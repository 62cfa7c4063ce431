"""The flagship Ray Data pipeline: interleaved spans -> OCR -> reassembly.

Lifecycle of every OCR build, SURVEY.md §3.4:

    read spans table                           # one row per document
      -> map_batches(OcrSpanProcessor(...))    # task stage over whole
             documents; one call explodes the batch, decodes +
             detects + lays out + recognizes its media spans, passes
             text spans through and re-stitches with reassemble_block
      -> write_parquet / return

A batch holds whole documents, so the re-stitch needs no exchange, and
no build splits documents into span rows. `balance_partitions > 0`
LPT-bins the documents by media pixel volume in front of the stage
(its one exchange is on the bin id); `build_layout_pipeline` runs the
same stage with `OcrLayoutProcessor` (layout JSON per media span).

The OCR stage is a callable processor instance, so Ray Data runs it as
tasks on Ray's reused worker processes rather than on an actor pool
that lives for one execution. The stage's heavy state (engine, media
store, memo cache) sits in one slot per worker process: the first OCR
batch in a process builds it, later batches, of this job and of later
jobs and shards, reuse it while the store and options match. Between
batches the stage holds no CPU.

Every output row satisfies span-sequence equality (kind, text,
media_ref, order) against the per-image engine's golden outputs, and a
document whose `spans` list is empty or null comes out unchanged.

Scale notes:
- media payloads come from one of two stores. A dict of payloads is
  broadcast (`ray.put` once, `ray.get` once per worker process): the
  form for media tables that fit in every worker. A media table too
  large for that is held by reference (`MediaTable`): its blocks sit
  in the object store once, each worker holds only a ref -> (block,
  row) index, and a task fetches just the blocks its batch cites, so
  no payload is shuffled or copied per citing span.
- reassembly is fully vectorized (no per-doc Python calls).
- ordering never relies on block arrival order: every span carries
  (doc_id, offset), mirroring the reference's re-sort by line index
  (/root/reference/ocrs/src/recognition.rs:530-535).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from .corpus import make_engine
from .schema import (
    MEDIA_SCHEMA,
    SPAN_STRUCT,
    SPANS_SCHEMA,
    validate_schema,
)

__all__ = [
    "OcrPipelineConfig",
    "explode_spans",
    "OcrSpanProcessor",
    "OcrLayoutProcessor",
    "reassemble_block",
    "read_spans",
    "read_spans_lance",
    "write_spans",
    "build_ocr_pipeline",
    "build_layout_pipeline",
    "MediaTable",
    "load_media_store",
]


#: Default OCR batch, in documents. Images are decoded one at a time,
#: so the batch mostly sets the OCR stage's TASK granularity: batches
#: per stage must comfortably exceed its concurrency or stragglers
#: bound the stage. 16 documents is ~72 spans at the benchmark's 4.5
#: spans per document. perfbench `ocr_unique` (160-doc jobs, 2 OCR
#: actors, 6 logical CPUs on a 1-CPU host; measured before the stage
#: moved to tasks), seeds 21-23 each, at 16 / 32 / 64 documents gave
#: median cpu_s_per_op 5.85 / 5.55 / 5.69 s (inside run-to-run noise),
#: op_s.p50 2.83 / 3.11 / 3.11 s and peak RSS 2222 / 2124 / 2010 MB.
#: Large pools are unmeasured at this granularity.
DOCS_PER_BATCH = 16


@dataclass
class OcrPipelineConfig:
    """Tuning knobs for the OCR pipeline stages."""

    #: documents per batch into the OCR stage; None picks the measured
    #: default, DOCS_PER_BATCH.
    ocr_batch_size: int | None = None
    #: most OCR tasks running at once: an int, or a (min, max) tuple
    #: whose max is the cap. A task holds its CPUs only while it runs
    #: a batch, so a cap equal to the session's CPUs still leaves the
    #: read task room between batches (an actor pool that size held
    #: every CPU and starved the read).
    ocr_concurrency: Any = 4
    #: CPUs reserved per running OCR task.
    ocr_num_cpus: float = 1.0
    #: GPUs reserved per running OCR task (north-star: detection and
    #: recognition weights live on GPUs on a real cluster). 0 keeps the
    #: stage CPU-only — the only mode testable in this sandbox; >0 maps
    #: the SAME pipeline onto GPU workers, which then stay warm like
    #: CPU ones (fractional values pack several tasks per device).
    ocr_num_gpus: float = 0.0
    #: no effect: no build has a `doc_id` re-stitch exchange any more.
    #: Kept only because the benchmark's `ocr_unique` workload
    #: (perfbench/workloads.py) still passes it; delete it together
    #: with that argument.
    reassemble_partitions: int = 16
    #: memoize per-media_ref OCR results in each worker process (exact
    #: dedup of repeated media fetches; templates repeat in the corpus).
    #: The memo lives as long as the process's OCR state, so it spans
    #: the jobs and shards that share a media store. The `pixels`
    #: counter counts computed pixels only, so it can fall on later
    #: shards of a job while `media_spans` stays exact.
    cache_media: bool = True
    #: factory for the engine, called once per worker process (fake
    #: models by default). A module-level function keeps the engine
    #: warm across tasks; a closure is a new object in each task and
    #: rebuilds it per batch.
    engine_factory: Callable = make_engine
    #: name of a MetricsActor to flush per-batch lineage counters to
    #: (see ocrs_ray.state.metrics); None disables flushing.
    metrics_name: str | None = None
    #: pre-OCR skew control: weigh each document by the summed pixel
    #: volume of its media spans, LPT-balance documents across this
    #: many partitions, then hash-shuffle on the bin id so no OCR
    #: partition carries a disproportionate pixel load (north-rule
    #: "repartitioning by estimated pixel volume"). Documents stay
    #: whole, so the OCR stage still re-stitches in place.
    #: 0 disables (default: the OCR stage's pull-based batch
    #: scheduling already absorbs moderate skew; enable for
    #: heavy-tailed media sizes where whole batches can be hot).
    #: Measured crossover (tools/whale_skew_proof.py, BASELINE.md): 8
    #: batch-clustered whales at 117x tile pixel volume — balancing
    #: HURTS (exchange overhead); at 469x it wins 2.4x and at 2930x
    #: 4.3x. Enable when whale_pixels x whales_per_batch rivals
    #: rest_of_corpus / pool_size AND the tail is clustered in the
    #: input order; randomly-placed whales rarely cross it. (Measured
    #: when span rows were binned; each whale there is a one-span
    #: document, so document binning sees the same weights.)
    balance_partitions: int = 0
    #: "raise" aborts the job on a bad media span (exact-parity mode);
    #: "quarantine" emits the span with empty text (empty layout JSON
    #: on the layout build), counts it in the
    #: poison_rows metric, and keeps the job running (SURVEY.md §4:
    #: poison-row quarantine instead of job abort — one corrupt
    #: payload must not kill a 10^12-row run).
    on_error: str = "raise"


def read_spans(path: str, columns: list[str] | None = None) -> rd.Dataset:
    """Read the spans table, validating the declared schema."""
    import pyarrow.parquet as pq

    enable_hash_shuffle()
    validate_schema(pq.ParquetFile(_first_file(path)).schema_arrow, SPANS_SCHEMA, "spans")
    return rd.read_parquet(path, columns=columns)


def _lance_available() -> bool:
    """Capability probe (no execution wrapped in except): pylance
    importable AND this Ray version exposes the Lance IO surface."""
    try:
        import lance  # noqa: F401  (optional dependency)
    except ImportError:
        return False
    return hasattr(rd, "read_lance")


def read_spans_lance(path: str, columns: list[str] | None = None) -> rd.Dataset:
    """Read the spans table from a Lance dataset (the north-star input
    format: fragment-aligned random access + column pruning), falling
    back to parquet when pylance is not installed (this sandbox).
    `ray.data.read_lance` streams fragments exactly like read_parquet
    streams row groups, so the rest of the pipeline is format-agnostic.
    Mirrors the `read_spans` contract: hash shuffle enabled BEFORE
    dataset creation (contexts snapshot at creation) and the declared
    schema validated at read time, not deep inside explode_spans.
    """
    if _lance_available():
        import lance

        enable_hash_shuffle()
        validate_schema(lance.dataset(path).schema, SPANS_SCHEMA, "spans")
        return rd.read_lance(path, columns=columns)
    return read_spans(path, columns)


def write_spans(ds: rd.Dataset, path: str) -> None:
    """Write the output spans table — Lance when available (fragment
    commits give the checkpoint granularity the resume path keys on),
    else partitioned parquet (same resumability via file-per-shard).
    Format is chosen by capability probe BEFORE execution so an
    exception raised inside an upstream UDF propagates instead of
    silently re-executing the pipeline into a mixed-format directory."""
    if _lance_available() and hasattr(ds, "write_lance"):
        ds.write_lance(path)
    else:
        ds.write_parquet(path)


def _first_file(path: str) -> str:
    import os

    if os.path.isdir(path):
        for root, _, files in os.walk(path):
            for f in sorted(files):
                if f.endswith(".parquet"):
                    return os.path.join(root, f)
        if any(f.endswith(".lance") for f in os.listdir(path)) or os.path.isdir(
            os.path.join(path, "data")
        ):
            raise RuntimeError(
                f"{path} looks like a Lance dataset but pylance is not "
                "installed; install it or re-write the table as parquet"
            )
    return path


def explode_spans(batch: pa.Table, keep_spanless: bool = False) -> pa.Table:
    """Flatten (doc_id, spans) rows to one row per span (vectorized).

    A document whose `spans` list is empty or null has no span to emit.
    With `keep_spanless` it emits one marker row instead (null offset
    and kind; text "" for an empty list, null for a null list), so the
    document travels with the span rows and `reassemble_block` restores
    it unchanged.
    """
    t = batch.combine_chunks()
    col = t.column("spans")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    parent = pc.list_parent_indices(col)
    flat = pc.list_flatten(col)
    out = pa.table(
        {
            "doc_id": pc.take(t.column("doc_id"), parent),
            "offset": flat.field("offset"),
            "kind": flat.field("kind"),
            "text": flat.field("text"),
            "media_ref": flat.field("media_ref"),
        }
    )
    if not keep_spanless:
        return out
    spanless = pc.equal(pc.fill_null(pc.list_value_length(col), 0), 0)
    if not pc.any(spanless).as_py():
        return out
    marks = t.filter(spanless)
    n = marks.num_rows
    return pa.concat_tables(
        [
            out,
            pa.table(
                {
                    "doc_id": marks.column("doc_id"),
                    "offset": pa.nulls(n, pa.int32()),
                    "kind": pa.nulls(n, pa.string()),
                    "text": pc.if_else(pc.is_null(marks.column("spans")), None, ""),
                    "media_ref": pa.nulls(n, pa.string()),
                },
                schema=out.schema,
            ),
        ]
    )


#: Media-table columns of a payload: the ref, then `decode_media`'s tuple.
MEDIA_COLUMNS = ["media_ref", "image", "height", "width", "channels", "format"]


def load_media_store(media_path: str) -> dict[str, tuple[bytes, int, int, int, str]]:
    """Load the media sidecar table into a payload dict."""
    import pyarrow.parquet as pq

    t = pq.read_table(media_path, columns=MEDIA_COLUMNS)
    refs, *payload = (t.column(c).to_pylist() for c in MEDIA_COLUMNS)
    return dict(zip(refs, zip(*payload)))


@ray.remote(num_cpus=0)
def _index_block(block: pa.Table) -> pa.Table:
    """(media_ref, height, width) of one media block: metadata only, so
    no payload leaves the object store. Zero-CPU, like the other
    metadata probes, so it never waits behind a busy stage."""
    return block.select(["media_ref", "height", "width"])


class MediaTable:
    """A media table held by reference: the media store for tables too
    large to broadcast as a dict. Built on the driver, it materializes
    the table once, so each payload sits in the object store once, and
    indexes every media_ref to its (block, row) and pixel count with one
    metadata task per block. The pipeline `ray.put`s it once like a dict
    store; a worker holds this index and fetches only the blocks its
    batch cites (`payloads`), a zero-copy read from the local object
    store. A worker's warm OCR state holds the index, and so keeps the
    blocks in the object store, until a later job's store replaces it."""

    def __init__(self, media: rd.Dataset | str):
        if isinstance(media, str):
            media = rd.read_parquet(media, columns=MEDIA_COLUMNS)
        self.blocks = media.materialize().to_arrow_refs()
        metas = ray.get([_index_block.remote(b) for b in self.blocks])
        metas = metas or [MEDIA_SCHEMA.empty_table().select(["media_ref", "height", "width"])]
        meta = pa.concat_tables(metas)
        self.refs = meta["media_ref"].combine_chunks()
        self.block = np.repeat(np.arange(len(metas)), [m.num_rows for m in metas])
        self.row = np.concatenate([np.arange(m.num_rows) for m in metas])
        self.pixels = np.multiply(
            meta["height"].to_numpy(), meta["width"].to_numpy(), dtype=np.int64
        )

    def payloads(self, refs: list) -> list[tuple | None]:
        """The `decode_media` payload of each ref, None for a ref the
        table lacks (a miss, as in a dict store)."""
        at = pc.index_in(pa.array(refs, type=pa.string()), value_set=self.refs)
        at = pc.fill_null(at, -1).to_numpy()
        cited = np.unique(self.block[at[at >= 0]]).tolist()
        blocks = dict(zip(cited, ray.get([self.blocks[b] for b in cited])))
        return [
            None
            if i < 0
            else tuple(blocks[self.block[i]][c][self.row[i]].as_py() for c in MEDIA_COLUMNS[1:])
            for i in at
        ]


def decode_media(payload: tuple[bytes, int, int, int, str]) -> np.ndarray:
    """Decode an opaque media payload to an HWC uint8 array.

    "raw8-hwc" is a zero-parse numpy view; "png" decodes for real via
    the stdlib-zlib codec in `ocrs_ray.png` (grey/RGB/RGBA/palette,
    bit depths 1-16, all five filters, Adam7 interlacing); "jpeg"/
    "jpg" decodes for real via the
    pure-numpy codec in `ocrs_ray.jpeg` (baseline + progressive
    Huffman, 8-bit, the subset covering the reference's own fixture
    set — ocrs-cli decodes via the `image` crate,
    /root/reference/ocrs-cli/src/main.rs:312-323); "webp" decodes BOTH
    halves for real via pure-numpy codecs: lossless VP8L and lossy VP8
    keyframes (boolean arithmetic decoder, full intra prediction,
    normal+simple loop filters — `ocrs_ray.vp8`, bit-exact against
    libwebp in tests), VP8X containers with ALPH alpha planes, and
    animated WebP (ANIM/ANMF frame compositing — decode yields the
    first composited frame, like the `image` crate's `read_image`;
    `webp.decode_webp_frames` exposes the full sequence).
    """
    blob, h, w, c, fmt = payload
    if fmt == "raw8-hwc":
        return np.frombuffer(blob, dtype=np.uint8).reshape(h, w, c)
    if fmt == "png":
        from .png import decode_png

        return decode_png(blob)
    if fmt in ("jpeg", "jpg"):
        from .jpeg import decode_jpeg

        return decode_jpeg(blob)
    if fmt == "webp":
        from .webp import decode_webp

        return decode_webp(blob)
    raise ValueError(f"unknown media format: {fmt}")


#: This worker process's engine: `(factory, engine)`, or None until an
#: OCR or sink task first runs here. Keyed on the factory alone, so a
#: task that needs only the engine (a debug sink) reuses it and never
#: drops the OCR state below.
_ENGINE: tuple | None = None
#: This worker process's OCR state: `(key, _OcrState)`, or None until an
#: OCR task first runs here. Ray reuses task worker processes, so later
#: tasks, of this job and of later ones, find the state built; one slot
#: means a process never holds two media stores.
_WARM: tuple | None = None


def warm_engine(factory: Callable) -> Any:
    """This process's engine from `factory`, built on first use and
    reused by every later task that passes the same factory."""
    global _ENGINE
    if _ENGINE is None or _ENGINE[0] != factory:
        _ENGINE = None  # release the old engine before building the new one
        _ENGINE = (factory, factory())
    return _ENGINE[1]


class _OcrState:
    """One process's heavy OCR state: engine, media store and memo
    cache, and the one decode -> OCR -> quarantine path of every OCR
    processor, whether the store is a dict or a `MediaTable` and
    whether the output is text or layout JSON."""

    def __init__(self, engine: Any, media: Any, cache_media: bool, on_error: str):
        self.engine = engine
        self.media = media
        self.on_error = on_error
        # Keyed on (media_ref, layout): a worker that serves text and
        # layout calls must never answer one with the other's memo.
        self.cache: dict[tuple[str, bool], str] | None = {} if cache_media else None

    def _ocr_one(
        self, ref: str, payload: tuple | None, layout: bool, counts: dict[str, int]
    ) -> str:
        counts["media_spans"] += 1  # spans processed (cache hits included)
        key = (ref, layout)
        if self.cache is not None and key in self.cache:
            return self.cache[key]
        if payload is None:
            raise KeyError(f"unresolved media_ref: {ref}")
        img = decode_media(payload)
        inp = self.engine.prepare_input(img, order="hwc")
        out = self._layout_json(ref, img, inp) if layout else self.engine.get_text(inp)
        counts["pixels"] += img.shape[0] * img.shape[1]
        if self.cache is not None:
            self.cache[key] = out
        return out

    def _layout_json(self, ref: str, img: np.ndarray, inp: Any) -> str:
        """The staged engine surface (detect_words -> find_text_lines ->
        recognize_text) with word/line rotated-rect vertices, as
        deterministic HierText-style JSON (the reference's JSON output,
        ocrs-cli/src/output.rs:29-101)."""
        import json

        from .output import ocr_json

        words = self.engine.detect_words(inp)
        lines = self.engine.find_text_lines(inp, words)
        doc = ocr_json(ref, img.shape[:2], self.engine.recognize_text(inp, lines))
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def _ocr_or_quarantine(
        self, ref: str, doc_id: str, payload: tuple | None, layout: bool, counts: dict[str, int]
    ) -> str:
        if self.on_error == "raise":
            return self._ocr_one(ref, payload, layout, counts)
        try:
            return self._ocr_one(ref, payload, layout, counts)
        except Exception as exc:  # poison row: empty output, keep going
            counts["poison_rows"] += 1
            import logging

            logging.getLogger(__name__).warning(
                "quarantined media span doc_id=%s media_ref=%s: %r", doc_id, ref, exc
            )
            return ""

    def ocr_media(self, refs: list, docs: list, layout: bool) -> tuple[list[str], dict[str, int]]:
        """OCR output of each media span (quarantined spans read "") and
        the lineage counters of the call."""
        media = self.media
        if isinstance(media, MediaTable):
            payloads = media.payloads(refs)
        else:
            payloads = (media.get(ref) for ref in refs)
        counts = {"media_spans": 0, "pixels": 0, "poison_rows": 0}
        out = [
            self._ocr_or_quarantine(ref, doc, payload, layout, counts)
            for ref, doc, payload in zip(refs, docs, payloads)
        ]
        return out, counts


class _MediaOcr:
    """Options shared by the OCR processors: a callable instance built
    on the driver and pickled into every OCR task. It holds no heavy
    state; the first task in a worker process builds the `_OcrState`
    and later tasks reuse it while their key matches (see `_state`).
    Lineage counters are flushed per batch, fire-and-forget, to the
    named metrics actor when one is configured."""

    #: Output per media span: layout JSON when True, else text.
    layout = False

    def __init__(
        self,
        media_store: ray.ObjectRef,
        engine_factory: Callable = make_engine,
        cache_media: bool = True,
        metrics_name: str | None = None,
        on_error: str = "raise",
    ):
        if on_error not in ("raise", "quarantine"):
            raise ValueError(f"on_error must be 'raise' or 'quarantine', got {on_error!r}")
        self.media_store = media_store
        self.engine_factory = engine_factory
        self.cache_media = cache_media
        self.metrics_name = metrics_name
        self.on_error = on_error

    def _state(self) -> _OcrState:
        """This process's state for these options, built on first use.
        The key holds everything that changes the output: the store's
        identity (its ObjectRef, seen alike by every task of every
        build), the engine factory and the memo and error options. The
        engine comes from `warm_engine`, so a new store keeps it. A
        factory that pickles by value (a closure) is a new object in
        every task and rebuilds the state per task: correct, only
        slower. Text and layout processors share the state; the memo
        keeps them apart."""
        global _WARM
        key = (self.media_store.hex(), self.engine_factory, self.cache_media, self.on_error)
        if _WARM is not None and _WARM[0] == key:
            return _WARM[1]
        _WARM = None  # release the old store before loading the new one
        media = ray.get(self.media_store)
        state = _OcrState(warm_engine(self.engine_factory), media, self.cache_media, self.on_error)
        _WARM = (key, state)
        return state

    def ocr_media(self, refs: list, docs: list) -> list[str]:
        """OCR output of each media span (quarantined spans read ""),
        then one metrics flush for the batch. The metrics actor is
        looked up per call: it can be re-created between jobs."""
        out, counts = self._state().ocr_media(refs, docs, self.layout)
        if self.metrics_name is not None and any(counts.values()):
            try:
                ray.get_actor(self.metrics_name).add.remote(counts)
            except ValueError:
                pass
        return out


class OcrSpanProcessor(_MediaOcr):
    """Task stage over spans-table rows (doc_id, spans), each a whole
    document: the batch is exploded, its media spans OCR'd, its text
    spans passed through and its documents re-stitched in this one
    call, so no exchange is needed. Other input columns are dropped.

    Built on the driver from the options and an ObjectRef to the media
    store (a dict or a `MediaTable`); the store and both models are
    loaded once per worker process, by the first batch that runs there,
    and kept for later batches and jobs (`_MediaOcr`). Mirrors the
    stateful-stage mapping of SURVEY.md §2.3 (A1/A2).
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        flat = explode_spans(batch, keep_spanless=True).combine_chunks()
        media = pc.fill_null(pc.equal(flat["kind"], "media"), False).combine_chunks()
        if not pc.any(media).as_py():
            return reassemble_block(flat)
        rows = flat.filter(media)
        texts = self.ocr_media(rows["media_ref"].to_pylist(), rows["doc_id"].to_pylist())
        text = pc.replace_with_mask(
            flat["text"].combine_chunks(), media, pa.array(texts, type=pa.string())
        )
        return reassemble_block(flat.set_column(flat.schema.get_field_index("text"), "text", text))


class OcrLayoutProcessor(_MediaOcr):
    """Task stage: spans-table rows -> one row (doc_id, offset,
    media_ref, layout_json) per media span. The Ray-level S6 sink
    (SURVEY.md §2.1): per media span, HierText-style layout JSON
    (`_OcrState._layout_json`) through the same store, engine, memo,
    quarantine and metrics as the text processor."""

    layout = True

    def __call__(self, batch: pa.Table) -> pa.Table:
        flat = explode_spans(batch)
        media = flat.filter(pc.equal(flat["kind"], "media"))
        refs = media["media_ref"]
        out = self.ocr_media(refs.to_pylist(), media["doc_id"].to_pylist())
        return pa.table(
            {
                "doc_id": media["doc_id"],
                "offset": media["offset"],
                "media_ref": refs,
                "layout_json": pa.array(out, type=pa.string()),
            }
        )


def _media_pixels(media_store: Any) -> tuple[pa.Array, np.ndarray]:
    """(media_ref, height x width) of every image in a media store (a
    dict, a `MediaTable`, or an ObjectRef to either), from metadata
    only: no payload is decoded."""
    store = ray.get(media_store) if isinstance(media_store, ray.ObjectRef) else media_store
    if isinstance(store, MediaTable):
        return store.refs, store.pixels
    h, w = ([p[i] for p in store.values()] for i in (1, 2))
    return pa.array(list(store), type=pa.string()), np.multiply(h, w, dtype=np.int64)


def weigh_documents(batch: pa.Table, refs: pa.Array, pixels: np.ndarray) -> pa.Table:
    """Append each document's estimated pixel volume as `pixels`: the
    summed pixels of its media spans, `pixels[i]` for a span of
    `refs[i]` (see `_media_pixels`). Text spans and refs the store
    lacks weigh 0, as does a document without spans. Vectorized: the
    proportional estimate needs no payload (SURVEY.md §4 skew row)."""
    col = batch.column("spans")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = pc.list_flatten(col)
    at = pc.index_in(flat.field("media_ref"), value_set=refs)
    media = pc.fill_null(pc.and_(pc.equal(flat.field("kind"), "media"), pc.is_valid(at)), False)
    media = media.to_numpy(zero_copy_only=False)
    px = np.zeros(len(flat), dtype=np.int64)
    px[media] = pixels[pc.fill_null(at, 0).to_numpy()[media]]
    parent = pc.list_parent_indices(col).to_numpy()
    weights = np.bincount(parent, weights=px, minlength=batch.num_rows)
    return batch.append_column("pixels", pa.array(weights.astype(np.int64)))


def assign_weighted_partitions(
    batch: pa.Table, num_partitions: int, weight_col: str = "pixels"
) -> pa.Table:
    """LPT-bin rows of one block into `num_partitions` weight-balanced
    bins (heaviest rows first onto the lightest bin). Per-block binning
    composes with the cross-block hash shuffle on the bin id: each
    block is balanced, so the union of blocks per bin is too.
    """
    import heapq

    w = batch.column(weight_col).to_numpy(zero_copy_only=False)
    order = np.argsort(-w, kind="stable")
    bins = [(0, b) for b in range(num_partitions)]
    heapq.heapify(bins)
    assignment = np.empty(len(w), dtype=np.int32)
    for i in order:
        total, b = heapq.heappop(bins)
        assignment[i] = b
        heapq.heappush(bins, (total + int(w[i]), b))
    return batch.append_column("wpart", pa.array(assignment, type=pa.int32()))


def reassemble_block(batch: pa.Table) -> pa.Table:
    """Re-stitch flattened span rows into per-document span lists.

    Requires all rows of a doc_id to be in the same batch: every caller
    (OcrSpanProcessor) explodes whole documents, so no build
    repartitions on doc_id.
    Sorts by (doc_id, offset) and builds the list column with run-length
    offsets — no per-doc Python. Marker rows of
    `explode_spans(keep_spanless=True)` come back as their documents
    with an empty (text "") or null (text null) spans list.
    """
    t = batch.combine_chunks()
    marker = pc.and_(pc.is_null(t.column("kind")), pc.is_null(t.column("offset")))
    if pc.any(marker).as_py():
        marks = t.filter(marker)
        empty = pa.array([[]] * marks.num_rows, type=SPANS_SCHEMA.field("spans").type)
        spanless = pa.table(
            {
                "doc_id": marks.column("doc_id"),
                "spans": pc.if_else(pc.is_null(marks.column("text")), None, empty),
            },
            schema=SPANS_SCHEMA,
        )
        return pa.concat_tables([reassemble_block(t.filter(pc.invert(marker))), spanless])
    t = t.sort_by([("doc_id", "ascending"), ("offset", "ascending")])
    if t.num_rows == 0:
        return pa.table({"doc_id": [], "spans": []}, schema=SPANS_SCHEMA)
    doc = t.column("doc_id").combine_chunks()
    d = doc.to_numpy(zero_copy_only=False)
    change = np.flatnonzero(d[1:] != d[:-1]) + 1
    offsets = np.concatenate([[0], change, [len(d)]]).astype(np.int32)
    struct = pa.StructArray.from_arrays(
        [
            t.column("kind").combine_chunks(),
            t.column("text").combine_chunks(),
            t.column("media_ref").combine_chunks(),
            t.column("offset").combine_chunks(),
        ],
        fields=list(SPAN_STRUCT),
    )
    spans = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), struct)
    doc_ids = doc.take(pa.array(offsets[:-1].astype(np.int64)))
    return pa.table({"doc_id": doc_ids, "spans": spans}, schema=SPANS_SCHEMA)


def cluster_ncpu(default: int = 8) -> int:
    """CPU budget of the current Ray cluster (fallback when Ray is not
    yet initialized). The single source of truth for pool/partition
    sizing — keep callers on this helper so the fallback can't diverge."""
    if ray.is_initialized():
        return int(ray.cluster_resources().get("CPU", default))
    return default


def default_npart() -> int:
    """Default keyed-exchange partition count: scale with the cluster
    but cap at 16 — a larger hash exchange at a small test session
    starves the shuffle aggregators ("Limited available CPU resources
    for hash shuffle") and the query crawls. ONE copy of the test-
    scale rule; real deployments pass npart explicitly."""
    return max(2, min(16, cluster_ncpu()))


def enable_hash_shuffle(ds: rd.Dataset | None = None) -> bool:
    """Switch Ray Data to the hash-shuffle strategy (needed for
    key-based repartition, e.g. the balanced OCR path's exchange on its
    bin id). Returns False when unavailable.

    Datasets snapshot the DataContext at creation, so this must run
    before `read_parquet` — or pass the dataset to patch its captured
    context.
    """
    try:
        from ray.data.context import ShuffleStrategy

        ncpu = cluster_ncpu()
        contexts = [rd.DataContext.get_current()]
        if ds is not None and getattr(ds, "context", None) is not None:
            contexts.append(ds.context)
        for ctx in contexts:
            ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
            # Defaults (64 aggregators, 200 partitions, 300 s min wait)
            # are sized for big clusters; cap to the local CPU budget so
            # shuffle actors don't starve the map stages on a small node.
            # On a real multi-node cluster the defaults scale back up
            # with cluster_resources().
            # Aggregator actors poll even when idle; one per ~4 CPUs is
            # plenty for the small shuffle payloads here and keeps them
            # from stealing cycles from compute actors.
            ctx.max_hash_shuffle_aggregators = max(2, ncpu // 4)
            # Default shuffle parallelism is 200 partitions; at 200 x
            # 1/16 CPU the aggregators alone want 12.5 CPUs and starve
            # the map stages on a small node. Scale partitions to the
            # CPU budget (a real cluster raises this automatically).
            ctx.default_hash_shuffle_parallelism = max(8, ncpu)
            # Aggregators start in well under a second on a local
            # cluster; the 300 s default (and even 5 s) adds dead time
            # to every shuffle-bearing query.
            ctx.min_hash_shuffle_aggregator_wait_time_in_s = 1
        return True
    except Exception:
        return False


def _document_ocr(
    spans_ds: rd.Dataset,
    processor: type[_MediaOcr],
    media_store: Any,
    config: OcrPipelineConfig | None,
) -> rd.Dataset:
    """Whole documents through the OCR stage of `processor`, first
    LPT-binned by pixel volume when `balance_partitions > 0`. A media
    Dataset or parquet path becomes a `MediaTable` here (its one eager
    step: the media table is read and indexed now); a dict or a
    `MediaTable` is `ray.put` once. map_batches gets a callable
    `processor` instance, not the class, so the stage runs as tasks on
    Ray's reused worker processes and keeps its state warm from job to
    job (a class would get an actor pool that lives for one execution)."""
    cfg = config or OcrPipelineConfig()
    if isinstance(media_store, (str, rd.Dataset)):
        media_store = MediaTable(media_store)
    n = cfg.balance_partitions
    if n > 0:
        refs, pixels = _media_pixels(media_store)
        spans_ds = spans_ds.map_batches(
            weigh_documents, fn_kwargs={"refs": refs, "pixels": pixels}, batch_format="pyarrow"
        ).map_batches(
            assign_weighted_partitions, fn_kwargs={"num_partitions": n}, batch_format="pyarrow"
        )
        enable_hash_shuffle(spans_ds)
        # The OCR processors read doc_id and spans only, so the bin
        # columns (pixels, wpart) end at the OCR stage.
        spans_ds = spans_ds.repartition(n, keys=["wpart"])
    if not isinstance(media_store, ray.ObjectRef):
        media_store = ray.put(media_store)
    fn = processor(media_store, cfg.engine_factory, cfg.cache_media, cfg.metrics_name, cfg.on_error)
    conc = cfg.ocr_concurrency
    # Ray makes a GPU task's worker single-use (max_calls=1) unless told
    # otherwise, which would boot a process, and the models, per batch.
    gpu = {"num_gpus": cfg.ocr_num_gpus, "max_calls": 0} if cfg.ocr_num_gpus > 0 else {}
    out = spans_ds.map_batches(
        fn,
        batch_format="pyarrow",
        batch_size=cfg.ocr_batch_size or DOCS_PER_BATCH,
        concurrency=conc[1] if isinstance(conc, tuple) else conc,
        num_cpus=cfg.ocr_num_cpus,
        **gpu,
    )
    if n > 0:
        enable_hash_shuffle(out)  # the plan runs under the final context
    return out


def build_ocr_pipeline(
    spans_ds: rd.Dataset,
    media_store: Any,
    config: OcrPipelineConfig | None = None,
) -> rd.Dataset:
    """Compose the full OCR pipeline lazily (only a media table's read
    and index run here).

    `media_store` takes two forms:
    - a dict of payloads, or a `ray.ObjectRef` to one (preferred):
      broadcast once and looked up per span, for media tables that fit
      in every worker;
    - a media `Dataset` or parquet path, a `MediaTable`, or a
      `ray.ObjectRef` to one: held by reference, each payload in the
      object store once and each task fetching only the blocks its
      batch cites, for media tables too large to broadcast.
    A store is loaded once per worker process and reused by later jobs
    given the same ObjectRef.

    The OCR tasks take whole documents and re-stitch them in place (no
    re-stitch exchange). With `balance_partitions > 0` the documents
    are first spread across partitions by pixel volume. For one row
    per span, append `map_batches(explode_spans)`.
    """
    return _document_ocr(spans_ds, OcrSpanProcessor, media_store, config)


def build_layout_pipeline(
    spans_ds: rd.Dataset,
    media_store: Any,
    config: OcrPipelineConfig | None = None,
) -> rd.Dataset:
    """Layout JSON per media span, (doc_id, offset, media_ref,
    layout_json), lazily: the same task stage, media store, options
    and balancing as `build_ocr_pipeline`, with `OcrLayoutProcessor`
    as the processor."""
    return _document_ocr(spans_ds, OcrLayoutProcessor, media_store, config)
