"""Pixel-volume-weighted partition balancing (skew control)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def test_lpt_binning_balances_skewed_weights():
    from ocrs_ray.pipeline import assign_weighted_partitions

    # Heavy-tailed weights: a few huge images among many small ones.
    rng = np.random.default_rng(3)
    w = np.concatenate(
        [rng.integers(1_000, 5_000, 500), rng.integers(500_000, 1_000_000, 8)]
    )
    batch = pa.table({"pixels": pa.array(w, type=pa.int64())})
    out = assign_weighted_partitions(batch, 4)
    parts = out.column("wpart").to_numpy()
    totals = np.zeros(4, dtype=np.int64)
    np.add.at(totals, parts, w)
    # LPT guarantee: max bin <= 4/3 * optimal; here just assert tight
    # balance relative to a naive row-count split, which would put all
    # 8 giants wherever they fall.
    assert totals.max() / totals.mean() < 1.1
    assert set(parts) == {0, 1, 2, 3}


def _span(kind: str, ref: str, offset: int) -> dict:
    return {"kind": kind, "text": "", "media_ref": ref, "offset": offset}


def _weigh(docs: list[dict], store: dict, offset: int = 0) -> pa.Table:
    """`weigh_documents` over `docs[offset:]`, as a slice of one table."""
    from ocrs_ray.pipeline import _media_pixels, weigh_documents
    from ocrs_ray.schema import SPANS_SCHEMA

    table = pa.Table.from_pylist(docs, schema=SPANS_SCHEMA).slice(offset)
    return weigh_documents(table, *_media_pixels(store))


def test_document_weigher_sums_media_pixels_per_document():
    """A document weighs the summed pixels of its media spans: text
    spans (even naming a stored ref) and refs the store lacks weigh 0,
    and so do documents with an empty or null spans list."""
    store = {"m1": (b"", 100, 200, 1, "raw8-hwc"), "m2": (b"", 10, 10, 3, "raw8-hwc")}
    docs = [
        {
            "doc_id": "d1",
            "spans": [_span("text", "", 0), _span("media", "m1", 1), _span("media", "m2", 2)],
        },
        {"doc_id": "d2", "spans": [_span("media", "gone", 0), _span("media", "m1", 1)]},
        {"doc_id": "d3", "spans": []},
        {"doc_id": "d4", "spans": None},
        {"doc_id": "d5", "spans": [_span("text", "m1", 0)]},
        {"doc_id": "d6", "spans": [_span("media", "gone", 0)]},
    ]
    out = _weigh(docs, store)
    assert out.column("pixels").to_pylist() == [20100, 20000, 0, 0, 0, 0]
    assert out.column("doc_id").to_pylist() == [d["doc_id"] for d in docs]
    # A block that is a slice of a larger table weighs the same.
    assert _weigh(docs, store, offset=1).column("pixels").to_pylist() == [20000, 0, 0, 0, 0]


def test_whale_documents_at_block_head_land_in_distinct_bins():
    """Whale documents clustered at the head of a block (the hot-batch
    shape of tools/whale_skew_proof.py) are spread one per bin."""
    from ocrs_ray.pipeline import assign_weighted_partitions

    store = {"whale": (b"", 3000, 4000, 1, "raw8-hwc"), "tile": (b"", 64, 64, 1, "raw8-hwc")}
    whales = [{"doc_id": f"w{i}", "spans": [_span("media", "whale", 0)]} for i in range(4)]
    tiles = [
        {"doc_id": f"t{i:03d}", "spans": [_span("media", "tile", o) for o in range(4)]}
        for i in range(200)
    ]
    out = assign_weighted_partitions(_weigh(whales + tiles, store), 4)
    parts = out.column("wpart").to_pylist()
    assert sorted(parts[:4]) == [0, 1, 2, 3]
    totals = np.bincount(parts, weights=out.column("pixels").to_numpy(), minlength=4)
    assert totals.max() / totals.mean() < 1.01


def test_pipeline_equality_with_balancing(ray_session, tmp_path):
    """Balancing shuffles rows arbitrarily; output must still satisfy
    span-sequence equality."""
    import pyarrow.parquet as pq

    from ocrs_ray.corpus import ensure_corpus
    from ocrs_ray.pipeline import (
        OcrPipelineConfig,
        build_ocr_pipeline,
        load_media_store,
        read_spans,
    )

    paths = ensure_corpus("/tmp/ocrs_ray_bal_corpus", n_docs=120, row_group_docs=20)
    ds = read_spans(paths["spans"])
    media = load_media_store(paths["media"])
    cfg = OcrPipelineConfig(
        ocr_concurrency=(1, 2), balance_partitions=4
    )
    got = build_ocr_pipeline(ds, media, cfg).to_pandas()
    exp = pq.read_table(paths["expected_flat"]).to_pandas()
    exp_docs = {
        d: list(zip(g.sort_values("offset")["kind"], g.sort_values("offset")["text"]))
        for d, g in exp.groupby("doc_id")
    }
    got_docs = {
        r["doc_id"]: [(s["kind"], s["text"]) for s in r["spans"]]
        for _, r in got.iterrows()
    }
    assert got_docs == exp_docs
