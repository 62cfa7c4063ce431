"""Benchmark inputs: template pools, seeded OCR jobs, expected tables.

Everything here is deterministic. Template pools are fixed (seed 42)
and cached under the build directory; their expected texts are pinned
in ``goldens.json`` next to this file, so an engine change can never
re-baseline the correctness gate by regenerating its own goldens. Jobs
are drawn from ``--seed``: the same seed gives byte-identical spans
tables and expected outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens.json")

#: The template pool: (n_templates, pool seed, share of 600x800
#: canvases). The pool is fixed; only the jobs drawn from it follow
#: ``--seed``.
POOL = (1024, 42, 0.05)


def pool_digest(table: pa.Table) -> str:
    """sha256 over every template's ref, shape, format and image bytes."""
    h = hashlib.sha256()
    for col in ("media_ref", "height", "width", "channels", "format"):
        h.update(json.dumps(table.column(col).to_pylist()).encode())
    for blob in table.column("image").to_pylist():
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()


def _render_pool() -> tuple[pa.Table, pa.Table]:
    """Regenerate the pool with the repo's generator. Returns the raw
    pool (as generated, expected texts computed by the engine) and the
    same pool re-encoded as lossless PNG."""
    from ocrs_ray.corpus import gen_media_templates
    from ocrs_ray.png import decode_png, encode_png

    n, seed, large = POOL
    raw = gen_media_templates(n_templates=n, seed=seed, large_frac=large)
    blobs = []
    for blob, h, w, c in zip(
        raw.column("image").to_pylist(),
        raw.column("height").to_pylist(),
        raw.column("width").to_pylist(),
        raw.column("channels").to_pylist(),
    ):
        img = np.frombuffer(blob, dtype=np.uint8).reshape(h, w, c)
        png = encode_png(img)
        back = decode_png(png)
        if back.shape != img.shape or not np.array_equal(back, img):
            raise RuntimeError(f"PNG round trip is lossy for a {h}x{w}x{c} template")
        blobs.append(png)
    encoded = raw.set_column(
        raw.schema.get_field_index("image"), "image", pa.array(blobs, type=pa.binary())
    ).set_column(
        raw.schema.get_field_index("format"),
        "format",
        pa.array(["png"] * raw.num_rows, type=pa.string()),
    )
    return raw, encoded


def pin_goldens() -> dict:
    """The pinned record of a freshly generated pool."""
    raw, encoded = _render_pool()
    return {
        "params": list(POOL),
        "raw_digest": pool_digest(raw),
        "png_digest": pool_digest(encoded),
        "expected_text": raw.column("expected_text").to_pylist(),
    }


def load_pinned() -> dict:
    with open(GOLDENS) as f:
        return json.load(f)


def _check_against_pin(pin: dict, raw: pa.Table | None, encoded: pa.Table) -> None:
    if pin["params"] != list(POOL):
        raise RuntimeError("pool parameters differ from the pinned goldens")
    if raw is not None:
        if pool_digest(raw) != pin["raw_digest"]:
            raise RuntimeError("regenerated pool images differ from the pinned pool")
        if raw.column("expected_text").to_pylist() != pin["expected_text"]:
            raise RuntimeError("the engine's texts for the regenerated pool differ from the pinned goldens")
    if pool_digest(encoded) != pin["png_digest"]:
        raise RuntimeError("cached PNG pool differs from the pinned pool")


def ensure_pool(cache_dir: str) -> tuple[str, pa.Table, float]:
    """Load the PNG pool from the cache, building it on first use.

    Returns (parquet path, pool, seconds spent building; 0.0 when
    cached). A built pool must match the pinned images and texts; a
    cached one must match the pinned PNG digest. Either mismatch raises.
    """
    pin = load_pinned()
    path = os.path.join(cache_dir, "pool.parquet")
    built_s = 0.0
    if not os.path.exists(path):
        t0 = time.perf_counter()
        raw, encoded = _render_pool()
        _check_against_pin(pin, raw, encoded)
        os.makedirs(cache_dir, exist_ok=True)
        tmp = path + f".{os.getpid()}.tmp"
        pq.write_table(encoded, tmp)
        os.replace(tmp, path)
        built_s = time.perf_counter() - t0
    pool = pq.read_table(path)
    _check_against_pin(pin, None, pool)
    # The correctness gate reads texts from the pin, never from the
    # generator's column.
    pool = pool.set_column(
        pool.schema.get_field_index("expected_text"),
        "expected_text",
        pa.array(pin["expected_text"], type=pa.string()),
    )
    return path, pool, built_s


class JobMaker:
    """Draws seeded OCR jobs from the pool. Every job carries exactly the
    same number of documents, spans, media spans and large-canvas media
    spans, so job cost does not swing with the seed; the seed decides
    which templates are cited and where they sit."""

    #: share of spans that are media spans (the repo corpus mixes ~0.41).
    MEDIA_FRAC = 0.4

    def __init__(self, pool: pa.Table, n_docs: int, seed: int):
        self.n_docs = n_docs
        self.seed = seed
        refs = np.asarray(pool.column("media_ref").to_pylist(), dtype=object)
        heights = pool.column("height").to_numpy()
        widths = pool.column("width").to_numpy()
        large = heights * widths > 100 * 200
        self.large_refs, self.small_refs = refs[large], refs[~large]
        self.large_share = float(large.mean())
        self.golden = dict(zip(refs, pool.column("expected_text").to_pylist()))
        self.pixels = dict(zip(refs, (heights * widths).tolist()))

    def make(self, index: int) -> tuple[pa.Table, pa.Table, dict]:
        """Job `index` of the seed: (spans table, expected flat table,
        facts about the job)."""
        rng = np.random.default_rng([self.seed, index])
        counts = np.resize(np.arange(1, 9, dtype=np.int64), self.n_docs)
        rng.shuffle(counts)
        n_spans = int(counts.sum())
        n_media = int(round(n_spans * self.MEDIA_FRAC))
        n_large = int(round(n_media * self.large_share))
        is_media = np.zeros(n_spans, dtype=bool)
        is_media[rng.choice(n_spans, n_media, replace=False)] = True
        media_refs = np.concatenate(
            [
                rng.choice(self.large_refs, n_large),
                rng.choice(self.small_refs, n_media - n_large),
            ]
        )
        rng.shuffle(media_refs)

        doc_index = np.repeat(np.arange(self.n_docs), counts)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        offsets = (np.arange(n_spans) - np.repeat(starts, counts)).astype(np.int32)
        doc_names = np.array([f"doc-{index:05d}-{i:06d}" for i in range(self.n_docs)], dtype=object)
        span_docs = doc_names[doc_index]
        texts = [f"text {d} span {o}" for d, o in zip(span_docs, offsets)]
        kind = np.where(is_media, "media", "text").astype(object)
        ref_col = np.full(n_spans, "", dtype=object)
        ref_col[is_media] = media_refs
        in_text = np.asarray(texts, dtype=object)
        in_text[is_media] = ""
        out_text = in_text.copy()
        out_text[is_media] = [self.golden[r] for r in media_refs]

        def span_struct(text_col):
            return pa.StructArray.from_arrays(
                [
                    pa.array(kind, type=pa.string()),
                    pa.array(text_col, type=pa.string()),
                    pa.array(ref_col, type=pa.string()),
                    pa.array(offsets, type=pa.int32()),
                ],
                names=["kind", "text", "media_ref", "offset"],
            )

        list_offsets = pa.array(np.concatenate([[0], np.cumsum(counts)]).astype(np.int32))
        spans = pa.table(
            {
                "doc_id": pa.array(doc_names, type=pa.string()),
                "spans": pa.ListArray.from_arrays(list_offsets, span_struct(in_text)),
            }
        )
        expected = pa.table(
            {
                "doc_id": pa.array(span_docs, type=pa.string()),
                "offset": pa.array(offsets, type=pa.int32()),
                "kind": pa.array(kind, type=pa.string()),
                "text": pa.array(out_text, type=pa.string()),
                "media_ref": pa.array(ref_col, type=pa.string()),
            }
        )
        facts = {
            "docs": self.n_docs,
            "spans": n_spans,
            "media_spans": n_media,
            "pixels_cited": int(sum(self.pixels[r] for r in media_refs)),
            "refs": sorted(set(media_refs.tolist())),
        }
        return spans, expected, facts


def write_spans(spans: pa.Table, out_dir: str) -> None:
    """One parquet file per read task, sized like the repo's corpus
    writer (>= 50 docs per file, at most 64 files)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    per = max(50, spans.num_rows // 256)
    n_files = min(64, -(-spans.num_rows // per))
    per = -(-spans.num_rows // n_files)
    for i in range(n_files):
        pq.write_table(spans.slice(i * per, per), os.path.join(out_dir, f"part-{i:04d}.parquet"))


def flatten_output(out: pa.Table) -> pa.Table:
    """Output (doc_id, spans) rows -> one row per span, documents in
    doc_id order, spans in the order the output lists them."""
    out = out.take(pc.sort_indices(out, sort_keys=[("doc_id", "ascending")]))
    col = out.column("spans").combine_chunks()
    flat = pc.list_flatten(col)
    return pa.table(
        {
            "doc_id": pc.take(out.column("doc_id"), pc.list_parent_indices(col)),
            "offset": flat.field("offset"),
            "kind": flat.field("kind"),
            "text": flat.field("text"),
            "media_ref": flat.field("media_ref"),
        }
    )


def check_output(out: pa.Table, expected: pa.Table) -> str | None:
    """Span-sequence equality (kind, text, media_ref, order) of a job's
    output against its expected table. None when equal, else a reason."""
    n_docs = pc.count_distinct(expected.column("doc_id")).as_py()
    if out.num_rows != n_docs:
        return f"{out.num_rows} documents out, {n_docs} expected"
    flat = flatten_output(out)
    if flat.num_rows != expected.num_rows:
        return f"{flat.num_rows} spans out, {expected.num_rows} expected"
    for name in expected.column_names:
        a = flat.column(name).combine_chunks()
        b = expected.column(name).combine_chunks()
        if not a.equals(b):
            bad = int(np.flatnonzero(~pc.equal(a, b).to_numpy(zero_copy_only=False))[0])
            return f"column {name} differs first at span {bad}: {a[bad]!r} != {b[bad]!r}"
    return None


def self_check(out: pa.Table, expected: pa.Table) -> None:
    """The gate must fail a job with one altered span and a job with
    one dropped document. Raises when either slips through."""
    if check_output(out, expected) is not None:
        raise RuntimeError("self-check needs a correct output to alter")
    spans = out.column("spans").combine_chunks()
    flat = spans.flatten()
    text = flat.field("text").to_pylist()
    text[len(text) // 2] += "x"
    fields = [
        pa.array(text, type=pa.string()) if f.name == "text" else flat.field(f.name)
        for f in flat.type
    ]
    offsets = pc.subtract(spans.offsets, spans.offsets[0])
    altered = out.set_column(
        out.schema.get_field_index("spans"),
        "spans",
        pa.ListArray.from_arrays(offsets, pa.StructArray.from_arrays(fields, fields=list(flat.type))),
    )
    if check_output(altered, expected) is None:
        raise RuntimeError("self-check: an altered span passed the correctness gate")
    if check_output(out.slice(1), expected) is None:
        raise RuntimeError("self-check: a dropped document passed the correctness gate")



if __name__ == "__main__":
    # Prints the pinned record for goldens.json. Run it only when the
    # pool itself is meant to change, never to absorb an engine change.
    import sys

    sys.path.insert(0, os.path.dirname(HERE))
    json.dump(pin_goldens(), sys.stdout, indent=0)
    print()
