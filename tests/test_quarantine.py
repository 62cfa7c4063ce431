"""Poison-row quarantine: one corrupt media payload must not abort the
job (SURVEY.md §4), and exact-parity mode must still raise."""

from __future__ import annotations

import pytest

from .util import arrow_rows


@pytest.fixture(scope="module")
def corpus(ray_session):
    from ocrs_ray.corpus import ensure_corpus

    return ensure_corpus("/tmp/ocrs_ray_poison_corpus", n_docs=60, row_group_docs=20)


def _broken_store(corpus):
    """Media store with one referenced payload removed (unresolvable
    ref) — the simplest poison; decode errors take the same path."""
    import pyarrow.parquet as pq

    from ocrs_ray.pipeline import load_media_store

    store = load_media_store(corpus["media"])
    spans = pq.read_table(corpus["spans"])
    import pyarrow.compute as pc

    flat = pc.list_flatten(spans.column("spans").combine_chunks())
    used = [r for r in set(flat.field("media_ref").to_pylist()) if r]
    victim = sorted(used)[0]
    del store[victim]
    return store, victim


def test_default_mode_aborts_on_poison(corpus):
    from ocrs_ray.pipeline import OcrPipelineConfig, build_ocr_pipeline, read_spans

    store, _ = _broken_store(corpus)
    cfg = OcrPipelineConfig(ocr_concurrency=(1, 2), reassemble_partitions=4)
    ds = build_ocr_pipeline(read_spans(corpus["spans"]), store, cfg)
    with pytest.raises(Exception):
        ds.count()


def test_quarantine_keeps_job_alive(corpus):
    import ray

    from ocrs_ray.pipeline import OcrPipelineConfig, build_ocr_pipeline, read_spans
    from ocrs_ray.state.metrics import MetricsActor

    store, victim = _broken_store(corpus)
    name = "poison_test_metrics"
    metrics = MetricsActor.options(name=name, get_if_exists=True).remote()
    ray.get(metrics.reset.remote())
    cfg = OcrPipelineConfig(
        ocr_concurrency=(1, 2),
        reassemble_partitions=4,
        on_error="quarantine",
        metrics_name=name,
    )
    out = build_ocr_pipeline(read_spans(corpus["spans"]), store, cfg).to_pandas()
    assert len(out) == 60  # every doc present
    poisoned, clean = 0, 0
    for _, row in out.iterrows():
        for s in row["spans"]:
            if s["kind"] != "media":
                continue
            if s["media_ref"] == victim:
                assert s["text"] == ""
                poisoned += 1
            elif s["text"]:
                clean += 1
    assert poisoned > 0 and clean > 0
    assert _poison_rows(metrics, poisoned) == poisoned


def _poison_rows(metrics, want: int) -> int:
    """The metrics actor's poison_rows once it reaches `want` (flushes
    are fire-and-forget), or its value after 5 s."""
    import time

    import ray

    deadline = time.time() + 5
    counted = 0
    while time.time() < deadline:
        counted = ray.get(metrics.snapshot.remote()).get("poison_rows", 0)
        if counted >= want:
            break
        time.sleep(0.1)
    return counted


def test_quarantine_same_on_broadcast_and_joined(corpus):
    """A poison media span is quarantined the same way whether media
    come from the broadcast store or the media_ref hash join: same
    output, same poison_rows count."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from ocrs_ray.pipeline import (
        OcrPipelineConfig,
        build_ocr_pipeline,
        build_ocr_pipeline_joined,
        read_spans,
    )
    from ocrs_ray.state.metrics import MetricsActor

    store, victim = _broken_store(corpus)
    media = pq.read_table(
        corpus["media"],
        columns=["media_ref", "image", "height", "width", "channels", "format"],
    )
    media = media.filter(pc.not_equal(media["media_ref"], victim))
    outs, counts = {}, {}
    for path in ("broadcast", "joined"):
        name = f"poison_{path}_metrics"
        metrics = MetricsActor.options(name=name, get_if_exists=True).remote()
        ray.get(metrics.reset.remote())
        cfg = OcrPipelineConfig(
            ocr_concurrency=(1, 2),
            reassemble_partitions=4,
            on_error="quarantine",
            metrics_name=name,
        )
        spans = read_spans(corpus["spans"])
        if path == "broadcast":
            ds = build_ocr_pipeline(spans, store, cfg)
        else:
            ds = build_ocr_pipeline_joined(spans, rd.from_arrow(media), cfg, join_partitions=4)
        outs[path] = sorted(arrow_rows(ds), key=lambda r: r["doc_id"])
        poisoned = sum(
            s["media_ref"] == victim for r in outs[path] for s in r["spans"]
        )
        counts[path] = _poison_rows(metrics, poisoned)
    assert len(outs["broadcast"]) == 60
    assert outs["joined"] == outs["broadcast"]
    assert counts["joined"] == counts["broadcast"] == poisoned > 0


def test_layout_quarantine_matches_text_paths(corpus):
    """A poison media span on the layout build: "raise" aborts, and
    "quarantine" gives it layout_json "" and one poison_rows count per
    span, like the text paths; every other media span keeps its JSON."""
    import ray

    from ocrs_ray.pipeline import OcrPipelineConfig, build_layout_pipeline, read_spans
    from ocrs_ray.state.metrics import MetricsActor

    store, victim = _broken_store(corpus)
    with pytest.raises(Exception):
        build_layout_pipeline(
            read_spans(corpus["spans"]), store, OcrPipelineConfig(ocr_concurrency=(1, 2))
        ).count()
    name = "poison_layout_metrics"
    metrics = MetricsActor.options(name=name, get_if_exists=True).remote()
    ray.get(metrics.reset.remote())
    cfg = OcrPipelineConfig(ocr_concurrency=(1, 2), on_error="quarantine", metrics_name=name)
    rows = arrow_rows(build_layout_pipeline(read_spans(corpus["spans"]), store, cfg))
    poisoned = [r["layout_json"] for r in rows if r["media_ref"] == victim]
    assert poisoned and set(poisoned) == {""}
    assert all(r["layout_json"] for r in rows if r["media_ref"] != victim)
    assert _poison_rows(metrics, len(poisoned)) == len(poisoned)


def test_invalid_on_error_rejected():
    from ocrs_ray.pipeline import OcrSpanProcessor

    with pytest.raises(ValueError, match="on_error"):
        OcrSpanProcessor({}, on_error="ignore")


def test_streaming_dedup_filter_invariants(ray_session):
    """First-seen-wins streaming dedup: survivor COUNT must equal the
    distinct-text count and survivors must be hash-unique; the winner
    IDs themselves are arrival-order-dependent by design."""
    import hashlib

    import pyarrow.parquet as pq

    from ocrs_ray.ops.dedup import streaming_dedup_filter

    sf = "/root/testdata/sf0.001"
    out = streaming_dedup_filter(sf).to_pandas()
    texts = pq.read_table(f"{sf}/documents.parquet", columns=["text"])
    n_distinct = len(set(texts.column("text").to_pylist()))
    hashes = [hashlib.md5(t.encode()).digest() for t in out["text"]]
    assert len(out) == n_distinct
    assert len(set(hashes)) == len(hashes)
