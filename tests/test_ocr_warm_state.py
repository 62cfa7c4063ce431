"""The OCR stage runs as Ray tasks whose heavy state (engine, media
store, memo cache) lives in one slot per worker process: later batches
and later jobs reuse it, and anything that changes the output (the
store, the engine factory, cache_media, on_error) replaces it."""

from __future__ import annotations

import os
import time

import pyarrow.parquet as pq
import pytest

from ocrs_ray.corpus import ensure_corpus, make_engine
from ocrs_ray.pipeline import (
    MEDIA_COLUMNS,
    OcrLayoutProcessor,
    OcrPipelineConfig,
    OcrSpanProcessor,
    build_layout_pipeline,
    build_ocr_pipeline,
    load_media_store,
    read_spans,
)

from .util import arrow_rows

CORPUS_ROOT = "/tmp/ocrs_ray_test_corpus/docs100"
BUILDS_NAME = "test_ocr_warm_engine_builds"


@pytest.fixture(scope="module")
def corpus():
    return ensure_corpus(CORPUS_ROOT, n_docs=100, n_templates=16)


@pytest.fixture(scope="module")
def engine_builds(ray_session):
    """The MetricsActor `counting_engine` counts into, held for the
    whole module: a non-detached actor dies with its last handle, and a
    test that re-created it by name could get the dying one."""
    from ocrs_ray.state.metrics import get_metrics_actor

    return get_metrics_actor(BUILDS_NAME)


def counting_engine():
    """Engine factory that counts its calls per worker process in a
    named MetricsActor. Module-level, so it pickles by reference and
    every task of every job sees the same factory."""
    import ray

    from ocrs_ray.state.metrics import get_metrics_actor

    ray.get(get_metrics_actor(BUILDS_NAME).add.remote({str(os.getpid()): 1}))
    return make_engine()


def _expected(corpus, text_of_ref=None) -> dict[str, list]:
    """doc_id -> [(kind, text)], media texts optionally remapped."""
    exp = pq.read_table(corpus["expected_flat"]).to_pandas().sort_values(["doc_id", "offset"])
    out = {}
    for doc, g in exp.groupby("doc_id"):
        out[doc] = [
            (k, text_of_ref[r] if text_of_ref and k == "media" else t)
            for k, t, r in zip(g["kind"], g["text"], g["media_ref"])
        ]
    return out


def _got(ds) -> dict[str, list]:
    return {r["doc_id"]: [(s["kind"], s["text"]) for s in r["spans"]] for r in arrow_rows(ds)}


def _wait_until_unnamed(name: str, timeout_s: float = 30.0) -> None:
    """Block until no live actor holds `name` (a killed actor frees
    its name asynchronously)."""
    import ray

    deadline = time.time() + timeout_s
    while True:
        try:
            ray.get_actor(name)
        except ValueError:
            return
        assert time.time() < deadline, f"actor {name} still registered"
        time.sleep(0.2)


def test_warm_slot_reused_by_later_builds_and_replaced_on_key_change(
    engine_builds, corpus, monkeypatch
):
    """The slot as one process sees it, called in-process: a later
    processor (a later job's tasks) with the same store ref and options
    reuses the state; a new store ref, or another cache_media, replaces
    it, keeping the engine, which depends only on the factory."""
    import ray

    from ocrs_ray import pipeline

    monkeypatch.setattr(pipeline, "_WARM", None)
    monkeypatch.setattr(pipeline, "_ENGINE", None)
    ray.get(engine_builds.reset.remote())
    batch = pq.read_table(corpus["spans"]).slice(0, 8)
    store = load_media_store(corpus["media"])
    ref = ray.put(store)

    def run(media_store, **kw):
        out = OcrSpanProcessor(media_store, engine_factory=counting_engine, **kw)(batch)
        return out, pipeline._WARM[1]

    first, state = run(ref)
    again, same = run(ref)
    assert again == first and same is state
    ref2 = ray.put(store)
    other, replaced = run(ref2)
    assert other == first and replaced is not state and replaced.engine is state.engine
    _, uncached = run(ref2, cache_media=False)
    assert uncached.cache is None and uncached.engine is state.engine
    assert ray.get(engine_builds.snapshot.remote()) == {str(os.getpid()): 1}


def test_text_and_layout_calls_share_state_not_memo(ray_session, corpus, monkeypatch):
    """A text call and a layout call on one store in one process share
    the warm state, memo cache on, yet each gets its own output: text
    equal to the goldens, layout JSON equal to the layout goldens, in
    either order."""
    import ray

    from ocrs_ray import pipeline

    monkeypatch.setattr(pipeline, "_WARM", None)
    batch = pq.read_table(corpus["spans"]).slice(0, 8)
    docs = set(batch.column("doc_id").to_pylist())
    ref = ray.put(load_media_store(corpus["media"]))
    layout_of = pq.read_table(corpus["expected_layout"]).to_pandas()
    want_layout = layout_of[layout_of["doc_id"].isin(docs)].sort_values(["doc_id", "offset"])
    want_text = {d: v for d, v in _expected(corpus).items() if d in docs}

    def text():
        out = OcrSpanProcessor(ref)(batch).to_pylist()
        return {r["doc_id"]: [(s["kind"], s["text"]) for s in r["spans"]] for r in out}

    def layout():
        out = OcrLayoutProcessor(ref)(batch).to_pandas().sort_values(["doc_id", "offset"])
        return out["layout_json"].tolist()

    assert text() == want_text
    state = pipeline._WARM[1]
    assert layout() == want_layout["layout_json"].tolist()
    assert text() == want_text and layout() == want_layout["layout_json"].tolist()
    assert pipeline._WARM[1] is state and len(want_layout) > 0


def test_sink_reuses_engine_and_keeps_ocr_state(ray_session, corpus, monkeypatch):
    """A debug-sink call in a process with warm OCR state runs on the
    same engine and leaves the OCR state (store and memo) in place."""
    import ray

    from ocrs_ray import pipeline
    from ocrs_ray.sinks import TextMapProcessor

    monkeypatch.setattr(pipeline, "_WARM", None)
    monkeypatch.setattr(pipeline, "_ENGINE", None)
    batch = pq.read_table(corpus["spans"]).slice(0, 8)
    OcrSpanProcessor(ray.put(load_media_store(corpus["media"])))(batch)
    state = pipeline._WARM[1]
    maps = TextMapProcessor()(pq.read_table(corpus["media"], columns=MEDIA_COLUMNS))
    assert maps.num_rows > 0
    assert pipeline._WARM[1] is state and pipeline._ENGINE[1] is state.engine


def test_engine_built_once_per_worker_across_jobs(engine_builds, corpus):
    """Two consecutive jobs over one broadcast store construct the
    engine at most once in each worker process."""
    import ray

    ray.get(engine_builds.reset.remote())
    store = ray.put(load_media_store(corpus["media"]))
    cfg = OcrPipelineConfig(ocr_concurrency=2, engine_factory=counting_engine)
    want = _expected(corpus)
    for _ in range(2):
        assert _got(build_ocr_pipeline(read_spans(corpus["spans"]), store, cfg)) == want
    per_process = ray.get(engine_builds.snapshot.remote())
    assert per_process and max(per_process.values()) == 1, per_process


def test_jobs_with_different_stores_get_their_own_text(ray_session, corpus):
    """Two stores map the same media_refs to different images. Jobs
    alternating between them, memo cache on, each read the text of
    their own store: no stale store or memo entry carries over."""
    store = load_media_store(corpus["media"])
    refs = sorted(store)
    # Each ref takes the image of the next template in the second store.
    swapped = {r: store[refs[(i + 1) % len(refs)]] for i, r in enumerate(refs)}
    text_of = {
        r: t
        for r, t in pq.read_table(corpus["expected_flat"], columns=["media_ref", "text"])
        .to_pandas()
        .dropna()
        .itertuples(index=False)
    }
    want = _expected(corpus)
    want_swapped = _expected(
        corpus, {r: text_of[refs[(i + 1) % len(refs)]] for i, r in enumerate(refs)}
    )
    assert want_swapped != want
    cfg = OcrPipelineConfig(ocr_concurrency=1)
    for media, expect in ((store, want), (swapped, want_swapped), (store, want)):
        assert _got(build_ocr_pipeline(read_spans(corpus["spans"]), media, cfg)) == expect


def test_media_spans_counted_after_metrics_actor_recreated(ray_session, corpus):
    """The metrics actor is looked up per task, not cached in the warm
    state: a job run after the actor is killed and re-created under the
    same name still counts every media span."""
    import ray

    from ocrs_ray.state.checkpoint import _stable_snapshot
    from ocrs_ray.state.metrics import get_metrics_actor

    name = "test_ocr_warm_metrics"
    flat = pq.read_table(corpus["expected_flat"], columns=["kind"]).to_pandas()
    n_media = int((flat["kind"] == "media").sum())
    store = ray.put(load_media_store(corpus["media"]))
    cfg = OcrPipelineConfig(ocr_concurrency=2, metrics_name=name)
    for _ in range(2):
        metrics = get_metrics_actor(name)
        ray.get(metrics.reset.remote())
        build_ocr_pipeline(read_spans(corpus["spans"]), store, cfg).materialize()
        assert _stable_snapshot(metrics).get("media_spans") == n_media
        ray.kill(metrics)
        _wait_until_unnamed(name)


@pytest.mark.parametrize("path", ("default", "balanced", "joined", "layout"))
def test_ocr_stage_runs_as_named_task_stage(ray_session, corpus, path):
    """Every build runs the OCR operator on the task pool (a callable
    instance, not an actor class) under its MapBatches(<processor>)
    name, which the benchmark's trace keys on."""
    import ray.data as rd
    from ray.data._internal.compute import TaskPoolStrategy

    cfg = OcrPipelineConfig(
        ocr_concurrency=(1, 2),
        balance_partitions=2 if path == "balanced" else 0,
    )
    spans = read_spans(corpus["spans"])
    if path == "joined":
        media = rd.read_parquet(corpus["media"], columns=MEDIA_COLUMNS)
        ds = build_ocr_pipeline(spans, media, cfg)
        name = "MapBatches(OcrSpanProcessor)"
    elif path == "layout":
        ds = build_layout_pipeline(spans, load_media_store(corpus["media"]), cfg)
        name = "MapBatches(OcrLayoutProcessor)"
    else:
        ds = build_ocr_pipeline(spans, load_media_store(corpus["media"]), cfg)
        name = "MapBatches(OcrSpanProcessor)"

    def logical_ops(op):
        yield op
        for dep in op.input_dependencies:
            yield from logical_ops(dep)

    ocr_ops = [op for op in logical_ops(ds._logical_plan.dag) if op.name == name]
    assert len(ocr_ops) == 1
    assert isinstance(ocr_ops[0]._compute, TaskPoolStrategy)
    assert ocr_ops[0]._compute.size == 2
    out = ds.materialize()
    assert f" {name}" in out.stats()
    if path == "layout":
        key = ["doc_id", "offset"]
        got = out.to_pandas().sort_values(key)
        want = pq.read_table(corpus["expected_layout"]).to_pandas().sort_values(key)
        assert got["layout_json"].tolist() == want["layout_json"].tolist()
    else:
        assert _got(out) == _expected(corpus)
