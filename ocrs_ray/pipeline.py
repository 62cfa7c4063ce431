"""The flagship Ray Data pipeline: interleaved spans -> OCR -> reassembly.

Lifecycle of the default (broadcast-store) path, SURVEY.md §3.4:

    read spans table                           # one row per document
      -> map_batches(OcrSpanProcessor(...))    # task stage over whole
             documents; one call explodes the batch, decodes +
             detects + lays out + recognizes its media spans, passes
             text spans through and re-stitches with reassemble_block
      -> write_parquet / return

A batch holds whole documents, so the re-stitch needs no exchange. The
keyed `doc_id` exchange stays only where the OCR stage's input is span
rows, which split a document across batches: `build_ocr_pipeline_joined`
(media resolved by a hash join on media_ref) and `balance_partitions > 0`
(spans LPT-binned by pixel volume). There the lifecycle is

    read spans table
      -> map_batches(explode_spans)            # one row per span, one
             marker row per document with no spans
      -> ... -> OCR task stage over span rows
      -> repartition(keys=["doc_id"])          # re-stitch exchange
      -> map_batches(reassemble_block)

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
- media payloads are resolved from a broadcast store (`ray.put` once,
  `ray.get` once per worker process) when the media table is small; a
  hash join on media_ref covers large media tables
  (`build_ocr_pipeline_joined`).
- reassembly is fully vectorized (no per-doc Python calls).
- ordering never relies on block arrival order: every span carries
  (doc_id, offset), mirroring the reference's re-sort by line index
  (/root/reference/ocrs/src/recognition.rs:530-535).
"""

from __future__ import annotations

import os
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from .corpus import make_engine
from .schema import FLAT_SPANS_SCHEMA, SPAN_STRUCT, SPANS_SCHEMA, validate_schema

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
    "build_ocr_pipeline_joined",
    "OcrInlineProcessor",
    "load_media_store",
]


#: Default OCR batch on the default path, in documents. Images are
#: decoded one at a time, so the batch mostly sets the OCR stage's TASK
#: granularity: batches per stage must comfortably exceed its
#: concurrency or stragglers bound the stage. 16 documents (~72 spans
#: at the benchmark's 4.5 spans per document) keeps the granularity of the
#: measured span-row setting below. perfbench `ocr_unique` (160-doc
#: jobs, 2 OCR actors, 6 logical CPUs on a 1-CPU host; measured before
#: the stage moved to tasks), seeds 21-23 each,
#: at 16 / 32 / 64 documents gave median cpu_s_per_op 5.85 / 5.55 /
#: 5.69 s (inside run-to-run noise), op_s.p50 2.83 / 3.11 / 3.11 s and
#: peak RSS 2222 / 2124 / 2010 MB. Large pools are unmeasured at this
#: granularity.
DOCS_PER_BATCH = 16
#: Default OCR batch on the joined and balanced paths, in span rows.
#: Measured at 8k docs / 24 actors: 256 -> 22 tasks, 8.8-9.2 s; 64 ->
#: 64 tasks, 6.5-7.7 s in alternating same-session runs; 16 is past
#: the knee (per-task overhead wins).
SPAN_ROWS_PER_BATCH = 64


@dataclass
class OcrPipelineConfig:
    """Tuning knobs for the OCR pipeline stages."""

    #: rows per batch into the OCR stage, counted in the rows of
    #: the stage's input: DOCUMENTS on the default path, span rows on
    #: the joined and balanced paths. None picks the measured default
    #: of each: DOCS_PER_BATCH or SPAN_ROWS_PER_BATCH.
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
    #: number of hash partitions for the `doc_id` re-stitch exchange of
    #: the joined and balanced paths; the default path has no exchange.
    #: Scale to ~2-4x total cores; at cluster scale, to total cores
    #: across nodes.
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
    #: pre-OCR skew control: LPT-balance spans across this many
    #: partitions by estimated pixel volume, then hash-shuffle on the
    #: bin id so no OCR partition carries a disproportionate pixel
    #: load (north-rule "repartitioning by estimated pixel volume").
    #: 0 disables (default: the OCR stage's pull-based batch
    #: scheduling already absorbs moderate skew; enable for
    #: heavy-tailed media sizes where whole batches can be hot).
    #: Measured crossover (tools/whale_skew_proof.py, BASELINE.md): 8
    #: batch-clustered whales at 117x tile pixel volume — balancing
    #: HURTS (exchange overhead); at 469x it wins 2.4x and at 2930x
    #: 4.3x. Enable when whale_pixels x whales_per_batch rivals
    #: rest_of_corpus / pool_size AND the tail is clustered in the
    #: input order; randomly-placed whales rarely cross it.
    balance_partitions: int = 0
    #: "raise" aborts the job on a bad media span (exact-parity mode);
    #: "quarantine" emits the span with empty text, counts it in the
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


def load_media_store(media_path: str) -> dict[str, tuple[bytes, int, int, int, str]]:
    """Load the media sidecar table into a payload dict."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        media_path, columns=["media_ref", "image", "height", "width", "channels", "format"]
    )
    return {
        r["media_ref"]: (r["image"], r["height"], r["width"], r["channels"], r["format"])
        for r in t.to_pylist()
    }


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


#: This worker process's OCR state: `(key, _OcrState)`, or None until an
#: OCR task first runs here. Ray reuses task worker processes, so later
#: tasks, of this job and of later ones, find the state built; one slot
#: means a process never holds two media stores.
_WARM: tuple | None = None


class _OcrState:
    """One process's heavy OCR state: engine, media store and memo
    cache, and the one decode -> OCR -> quarantine path of both OCR
    processors, whether the payload comes from the store or a join."""

    def __init__(self, engine: Any, media: dict | None, cache_media: bool, on_error: str):
        self.engine = engine
        self.media = media
        self.on_error = on_error
        self.cache: dict[str, str] | None = {} if cache_media else None

    def _ocr_one(self, ref: str, payload: tuple | None, counts: dict[str, int]) -> str:
        counts["media_spans"] += 1  # spans processed (cache hits included)
        if self.cache is not None and ref in self.cache:
            return self.cache[ref]
        if payload is None:
            raise KeyError(f"unresolved media_ref: {ref}")
        img = decode_media(payload)
        inp = self.engine.prepare_input(img, order="hwc")
        text = self.engine.get_text(inp)
        counts["pixels"] += img.shape[0] * img.shape[1]
        if self.cache is not None:
            self.cache[ref] = text
        return text

    def _ocr_or_quarantine(
        self, ref: str, doc_id: str, payload: tuple | None, counts: dict[str, int]
    ) -> str:
        if self.on_error == "raise":
            return self._ocr_one(ref, payload, counts)
        try:
            return self._ocr_one(ref, payload, counts)
        except Exception as exc:  # poison row: empty text, keep going
            counts["poison_rows"] += 1
            import logging

            logging.getLogger(__name__).warning(
                "quarantined media span doc_id=%s media_ref=%s: %r", doc_id, ref, exc
            )
            return ""

    def ocr_texts(self, refs: list, docs: list, payloads) -> tuple[list[str], dict[str, int]]:
        """OCR text of each media span (quarantined spans read "") and
        the lineage counters of the call. `payloads` None resolves each
        ref in the media store."""
        if payloads is None:
            payloads = (self.media.get(ref) for ref in refs)
        counts = {"media_spans": 0, "pixels": 0, "poison_rows": 0}
        texts = [
            self._ocr_or_quarantine(ref, doc, payload, counts)
            for ref, doc, payload in zip(refs, docs, payloads)
        ]
        return texts, counts


class _MediaOcr:
    """Options shared by the OCR processors: a callable instance built
    on the driver and pickled into every OCR task. It holds no heavy
    state; the first task in a worker process builds the `_OcrState`
    and later tasks reuse it while their key matches (see `_state`).
    Lineage counters are flushed per batch, fire-and-forget, to the
    named metrics actor when one is configured."""

    def __init__(
        self,
        media_store: Any = None,
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
        # A dict store, or payloads that arrive by join, have no identity
        # a worker can see: their state lives for the tasks of one build.
        self._build_id = uuid.uuid4().hex

    def _store_key(self) -> Any:
        """The store's identity as every task of every build sees it:
        the ObjectRef, or the path and its mtime (a rewritten file is a
        new store)."""
        s = self.media_store
        if isinstance(s, ray.ObjectRef):
            return s.hex()
        if isinstance(s, str):
            return (s, os.stat(s).st_mtime_ns)
        return self._build_id

    def _state(self) -> _OcrState:
        """This process's state for these options, built on first use.
        The key holds everything that changes the output; the engine
        depends on the factory alone, so a new store keeps it. A factory
        that pickles by value (a closure) is a new object in every task
        and rebuilds the state per task: correct, only slower."""
        global _WARM
        key = (self._store_key(), self.engine_factory, self.cache_media, self.on_error)
        old = _WARM
        if old is not None and old[0] == key:
            return old[1]
        _WARM = None  # release the old store before loading the new one
        engine = old[1].engine if old is not None and old[0][1] == self.engine_factory else None
        del old
        if engine is None:
            engine = self.engine_factory()
        s = self.media_store
        if isinstance(s, ray.ObjectRef):
            media = ray.get(s)
        elif isinstance(s, str):
            media = load_media_store(s)
        else:
            media = s
        state = _OcrState(engine, media, self.cache_media, self.on_error)
        _WARM = (key, state)
        return state

    def ocr_texts(self, refs: list, docs: list, payloads=None) -> list[str]:
        """OCR text of each media span (quarantined spans read ""),
        then one metrics flush for the batch. The metrics actor is
        looked up per call: it can be re-created between jobs."""
        texts, counts = self._state().ocr_texts(refs, docs, payloads)
        if self.metrics_name is not None and any(counts.values()):
            try:
                ray.get_actor(self.metrics_name).add.remote(counts)
            except ValueError:
                pass
        return texts


class OcrSpanProcessor(_MediaOcr):
    """Task stage: OCR media spans, pass text spans through.

    Built on the driver from the options and the media store (a dict,
    an ObjectRef to one, or a parquet path); the media store and both
    models are loaded once per worker process, by the first batch that
    runs there, and kept for later batches and jobs (`_MediaOcr`).
    Mirrors the stateful-stage mapping of SURVEY.md §2.3 (A1/A2). A
    batch is either
    - spans-table rows (doc_id, spans), each a whole document: the
      batch is exploded, OCR'd and re-stitched in this one call, so
      the output is the finished documents and no exchange is needed;
    - flattened span rows (`explode_spans` output): the OCR'd span
      rows come back for a downstream `doc_id` exchange. Marker rows
      of span-less documents pass through like text spans.
    """

    def _ocr_rows(self, batch: pa.Table) -> pa.Table:
        kind = batch.column("kind")
        media_mask = pc.fill_null(pc.equal(kind, "media"), False)
        if pc.sum(media_mask).as_py() in (0, None):
            return batch
        idx = np.flatnonzero(media_mask.combine_chunks().to_numpy(zero_copy_only=False))
        refs = batch.column("media_ref").take(pa.array(idx)).to_pylist()
        docs = batch.column("doc_id").take(pa.array(idx)).to_pylist()
        ocr_texts = self.ocr_texts(refs, docs)
        text = batch.column("text").to_pylist()
        for i, t in zip(idx, ocr_texts):
            text[i] = t
        return batch.set_column(
            batch.schema.get_field_index("text"), "text", pa.array(text, type=pa.string())
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        if "spans" not in batch.column_names:
            return self._ocr_rows(batch)
        return reassemble_block(self._ocr_rows(explode_spans(batch, keep_spanless=True)))


class OcrLayoutProcessor:
    """Actor-pool stage: media spans -> HierText-style layout JSON.

    The Ray-level S6 sink (SURVEY.md §2.1): per media span, the full
    staged engine surface (detect_words -> find_text_lines ->
    recognize_text) with word/line rotated-rect vertices serialized as
    a deterministic JSON column, mirroring the reference's JSON output
    (/root/reference/ocrs-cli/src/output.rs:29-101).
    """

    def __init__(self, media_store: Any, engine_factory: Callable = make_engine):
        if isinstance(media_store, ray.ObjectRef):
            self.media = ray.get(media_store)
        elif isinstance(media_store, str):
            self.media = load_media_store(media_store)
        else:
            self.media = media_store
        self.engine = engine_factory()
        self.cache: dict[str, str] = {}

    def _layout_one(self, ref: str) -> str:
        import json

        if ref in self.cache:
            return self.cache[ref]
        payload = self.media.get(ref)
        if payload is None:
            raise KeyError(f"unresolved media_ref: {ref}")
        img = decode_media(payload)
        inp = self.engine.prepare_input(img, order="hwc")
        words = self.engine.detect_words(inp)
        lines = self.engine.find_text_lines(inp, words)
        text_lines = self.engine.recognize_text(inp, lines)
        from .output import ocr_json

        doc = ocr_json(ref, (img.shape[0], img.shape[1]), text_lines)
        out = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        self.cache[ref] = out
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch.column("media_ref").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "offset": batch.column("offset"),
                "media_ref": batch.column("media_ref"),
                "layout_json": pa.array(
                    [self._layout_one(r) for r in refs], type=pa.string()
                ),
            }
        )


class OcrInlineProcessor(_MediaOcr):
    """OCR media-span rows whose payload arrived inline via a shuffle
    join (columns image/height/width/channels/format joined onto the
    span rows). The large-media-table counterpart of OcrSpanProcessor:
    no broadcast store; decode, quarantine and metrics are shared. The
    joined media table has no identity a worker can check, so the memo
    cache lives for one build; the engine still carries over."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        cols = [
            batch.column(c).to_pylist()
            for c in ("image", "height", "width", "channels", "format")
        ]
        # A null image is a left-outer join miss: the media table has
        # no row for this ref, the same as a broadcast-store miss.
        payloads = (None if p[0] is None else p for p in zip(*cols))
        texts = self.ocr_texts(
            batch.column("media_ref").to_pylist(),
            batch.column("doc_id").to_pylist(),
            payloads,
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "offset": batch.column("offset"),
                "kind": batch.column("kind"),
                "text": pa.array(texts, type=pa.string()),
                "media_ref": batch.column("media_ref"),
            }
        )


def _ocr_stage(
    ds: rd.Dataset,
    processor: type[_MediaOcr],
    cfg: OcrPipelineConfig,
    default_batch_size: int,
    media_store: Any = None,
) -> rd.Dataset:
    """`ds` through the OCR stage. map_batches gets a callable
    `processor` instance, not the class, so the stage runs as tasks on
    Ray's reused worker processes and keeps its state warm from job to
    job (a class would get an actor pool that lives for one execution).
    `default_batch_size` applies when `cfg.ocr_batch_size` is None."""
    fn = processor(
        media_store=media_store,
        engine_factory=cfg.engine_factory,
        cache_media=cfg.cache_media,
        metrics_name=cfg.metrics_name,
        on_error=cfg.on_error,
    )
    conc = cfg.ocr_concurrency
    # Ray makes a GPU task's worker single-use (max_calls=1) unless told
    # otherwise, which would boot a process, and the models, per batch.
    gpu = {"num_gpus": cfg.ocr_num_gpus, "max_calls": 0} if cfg.ocr_num_gpus > 0 else {}
    return ds.map_batches(
        fn,
        batch_format="pyarrow",
        batch_size=cfg.ocr_batch_size or default_batch_size,
        concurrency=conc[1] if isinstance(conc, tuple) else conc,
        num_cpus=cfg.ocr_num_cpus,
        **gpu,
    )


def _restitch_by_doc(flat: rd.Dataset, cfg: OcrPipelineConfig) -> rd.Dataset:
    """Re-stitch OCR'd span rows whose documents are spread across
    batches: keyed `doc_id` exchange, then reassemble_block per
    partition (span-less documents ride along as marker rows)."""
    enable_hash_shuffle(flat)
    docs = flat.repartition(cfg.reassemble_partitions, keys=["doc_id"]).map_batches(
        reassemble_block, batch_format="pyarrow", batch_size=None
    )
    # The plan runs under the final dataset's context: patch it too.
    enable_hash_shuffle(docs)
    return docs


def build_ocr_pipeline_joined(
    spans_ds: rd.Dataset,
    media_ds: rd.Dataset,
    config: OcrPipelineConfig | None = None,
    join_partitions: int = 8,
) -> rd.Dataset:
    """OCR pipeline resolving media via a distributed hash join instead
    of a broadcast store — the path for media tables that do NOT fit in
    worker memory (SURVEY.md §2.4: `Dataset.join` on media_ref for
    large). Text spans bypass the join entirely; only media span keys
    and payloads shuffle. The spans input is read twice (text branch +
    media branch) — cheaper than shipping payloads to every task when
    the media table dominates. The join splits documents across
    batches, so this path keeps the `doc_id` re-stitch exchange.
    """
    cfg = config or OcrPipelineConfig()
    flat = spans_ds.map_batches(
        explode_spans, fn_kwargs={"keep_spanless": True}, batch_format="pyarrow"
    )
    enable_hash_shuffle(flat)
    enable_hash_shuffle(media_ds)

    # Text spans and span-less document markers (null kind) bypass OCR.
    text_rows = flat.map_batches(
        lambda t: t.filter(pc.fill_null(pc.not_equal(t["kind"], "media"), True)),
        batch_format="pyarrow",
    )
    media_rows = flat.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], "media")), batch_format="pyarrow"
    )
    # LEFT join, not inner: an unresolvable media_ref must surface as
    # an error (or quarantined empty span) exactly like the broadcast
    # path — an inner join would silently delete the span and break
    # span-sequence completeness.
    joined = media_rows.join(
        media_ds,
        join_type="left_outer",
        num_partitions=join_partitions,
        on=("media_ref",),
    )
    ocr = _ocr_stage(joined, OcrInlineProcessor, cfg, SPAN_ROWS_PER_BATCH)
    return _restitch_by_doc(text_rows.union(ocr), cfg)


class PixelWeigher:
    """Annotate flat span rows with estimated pixel volume.

    Media dims come from a broadcast {media_ref: pixels} dict (built
    from the media table's typed metadata — no payload decode). At
    100 TB the dims column rides in the spans table at ingest or joins
    in by media_ref; the estimate only needs to be proportional, not
    exact (SURVEY.md §4 skew row).
    """

    def __init__(self, dims_store: Any):
        store = (
            ray.get(dims_store)
            if isinstance(dims_store, ray.ObjectRef)
            else dims_store
        )
        # Accept either a ready {ref: pixels} dict or a full media
        # store (payload tuples) — derive dims without decoding.
        first = next(iter(store.values()), None)
        self.dims = media_dims(store) if isinstance(first, tuple) else store

    def __call__(self, batch: pa.Table) -> pa.Table:
        kinds = batch.column("kind").to_pylist()
        refs = batch.column("media_ref").to_pylist()
        px = [
            self.dims.get(r, 0) if k == "media" else 0
            for k, r in zip(kinds, refs)
        ]
        return batch.append_column("pixels", pa.array(px, type=pa.int64()))


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


def media_dims(media_store: dict) -> dict[str, int]:
    """{media_ref: pixel count} from a loaded media store (metadata
    only, payload untouched)."""
    return {ref: p[1] * p[2] for ref, p in media_store.items()}


def reassemble_block(batch: pa.Table) -> pa.Table:
    """Re-stitch flattened span rows into per-document span lists.

    Requires all rows of a doc_id to be in the same batch (guaranteed by
    OcrSpanProcessor receiving whole documents, or by a preceding hash
    repartition on doc_id with batch_size=None).
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
    key-based repartition; also the right all-to-all strategy for the
    reassembly exchange at scale). Returns False when unavailable.

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


def build_ocr_pipeline(
    spans_ds: rd.Dataset,
    media_store: Any,
    config: OcrPipelineConfig | None = None,
    reassemble: bool = True,
) -> rd.Dataset:
    """Compose the full OCR pipeline lazily (nothing executes here).

    `media_store` may be a dict, a `ray.ObjectRef` to a dict (broadcast
    once — preferred), or a path to the media parquet (each worker
    process loads it itself; useful when the object store is tight).
    A store is loaded once per worker process and reused by later jobs
    given the same ObjectRef or path.

    By default the OCR tasks take whole documents and re-stitch them
    in place (no exchange). With `balance_partitions > 0` span rows are
    balanced across partitions before OCR and re-stitched by a `doc_id`
    exchange. `reassemble=False` explodes the finished documents to one
    row per span (debug tap).
    """
    cfg = config or OcrPipelineConfig()
    if isinstance(media_store, dict):
        media_store = ray.put(media_store)
    if cfg.balance_partitions > 0:
        flat = spans_ds.map_batches(
            explode_spans, fn_kwargs={"keep_spanless": True}, batch_format="pyarrow"
        )
        enable_hash_shuffle(flat)
        flat = (
            flat.map_batches(
                PixelWeigher,
                fn_constructor_args=(media_store,),
                batch_format="pyarrow",
                concurrency=(1, 2),
            )
            .map_batches(
                assign_weighted_partitions,
                fn_kwargs={"num_partitions": cfg.balance_partitions},
                batch_format="pyarrow",
            )
            .repartition(cfg.balance_partitions, keys=["wpart"])
            .map_batches(
                lambda t: t.drop_columns(["pixels", "wpart"]),
                batch_format="pyarrow",
            )
        )
        ocr = _ocr_stage(flat, OcrSpanProcessor, cfg, SPAN_ROWS_PER_BATCH, media_store)
        docs = _restitch_by_doc(ocr, cfg)
    else:
        docs = _ocr_stage(spans_ds, OcrSpanProcessor, cfg, DOCS_PER_BATCH, media_store)
    if reassemble:
        return docs
    return docs.map_batches(explode_spans, batch_format="pyarrow")
