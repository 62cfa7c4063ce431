"""End-to-end Ray pipeline tests: span-sequence equality on a
deterministic corpus (FIXTURES.md §5, smoke tier)."""

import pandas as pd
import pyarrow.parquet as pq
import pytest

from ocrs_ray.corpus import ensure_corpus
from ocrs_ray.pipeline import (
    MEDIA_COLUMNS,
    OcrPipelineConfig,
    build_ocr_pipeline,
    explode_spans,
    load_media_store,
    read_spans,
    reassemble_block,
)

from .util import arrow_rows

CORPUS_ROOT = "/tmp/ocrs_ray_test_corpus/docs100"


@pytest.fixture(scope="module")
def corpus():
    return ensure_corpus(CORPUS_ROOT, n_docs=100, n_templates=16)


def flatten_result(res: pd.DataFrame) -> pd.DataFrame:
    rows = []
    for _, r in res.iterrows():
        for s in r["spans"]:
            rows.append((r["doc_id"], s["offset"], s["kind"], s["text"], s["media_ref"]))
    return (
        pd.DataFrame(rows, columns=["doc_id", "offset", "kind", "text", "media_ref"])
        .sort_values(["doc_id", "offset"])
        .reset_index(drop=True)
    )


def test_explode_reassemble_roundtrip(corpus):
    """Explode + reassemble is the identity on the spans table."""
    spans = pq.read_table(corpus["spans"])
    flat = explode_spans(spans)
    assert flat.num_rows == sum(len(s) for s in spans.column("spans").to_pylist())
    rebuilt = reassemble_block(flat)
    got = rebuilt.sort_by("doc_id").to_pylist()
    want = spans.sort_by("doc_id").to_pylist()
    assert got == want


def test_pipeline_span_equality(ray_session, corpus):
    """Full distributed pipeline output == per-image engine goldens."""
    ds = read_spans(corpus["spans"])
    media = load_media_store(corpus["media"])
    out = build_ocr_pipeline(
        ds, media, OcrPipelineConfig(ocr_concurrency=2)
    )
    got = flatten_result(out.to_pandas())
    exp = (
        pq.read_table(corpus["expected_flat"])
        .to_pandas()
        .sort_values(["doc_id", "offset"])
        .reset_index(drop=True)
    )
    exp["offset"] = exp["offset"].astype(got["offset"].dtype)
    assert len(got) == len(exp)
    pd.testing.assert_frame_equal(got, exp)


def test_pipeline_passthrough_docs(ray_session, corpus):
    """Docs without media spans come out byte-identical to their input."""
    spans = pq.read_table(corpus["spans"]).to_pylist()
    media_free = {
        r["doc_id"]: r["spans"]
        for r in spans
        if all(s["kind"] == "text" for s in r["spans"])
    }
    assert media_free, "corpus should include media-free docs"

    ds = read_spans(corpus["spans"])
    media = load_media_store(corpus["media"])
    out = build_ocr_pipeline(
        ds, media, OcrPipelineConfig(ocr_concurrency=2)
    ).to_pandas()
    by_doc = {r["doc_id"]: list(r["spans"]) for _, r in out.iterrows()}
    for doc_id, in_spans in media_free.items():
        got = sorted(by_doc[doc_id], key=lambda s: s["offset"])
        assert [dict(s) for s in got] == in_spans


def test_joined_pipeline_matches_broadcast(ray_session):
    """The by-reference media path (large-media-table mode: a media
    Dataset instead of a dict) produces byte-identical span sequences
    to the broadcast path."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ocrs_ray.corpus import ensure_corpus
    from ocrs_ray.pipeline import OcrPipelineConfig, read_spans

    paths = ensure_corpus("/tmp/ocrs_ray_join_corpus", n_docs=80, row_group_docs=20)
    spans = read_spans(paths["spans"])
    media = rd.read_parquet(paths["media"], columns=MEDIA_COLUMNS)
    cfg = OcrPipelineConfig(ocr_concurrency=(1, 2))
    got = build_ocr_pipeline(spans, media, cfg).to_pandas()
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


def test_media_table_payloads_match_dict_store(ray_session, corpus):
    """The by-reference store, built from a media parquet path, resolves
    a ref to the dict store's exact payload, and a ref it lacks to None
    (a miss), also when the media Dataset has no blocks at all."""
    import ray.data as rd

    from ocrs_ray.pipeline import MediaTable

    store = load_media_store(corpus["media"])
    ref = sorted(store)[0]
    table = MediaTable(corpus["media"])
    assert table.payloads([ref, "missing", None, ref]) == [store[ref], None, None, store[ref]]
    assert MediaTable(rd.from_items([])).payloads([ref]) == [None]


def test_doc_text_sink_matches_golden(ray_session, corpus):
    """Document-level plain-text sink (the reference's get_text shape,
    ocrs/src/lib.rs:290-300): span texts joined with '\n' in offset
    order, per document."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = read_spans(corpus["spans"])
    media = load_media_store(corpus["media"])
    docs = build_ocr_pipeline(
        ds, media, OcrPipelineConfig(ocr_concurrency=2)
    )

    def join_text(t: pa.Table) -> pa.Table:
        import numpy as np

        t = t.combine_chunks()
        spans = t.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        texts = pc.list_flatten(spans).field("text")
        lengths = pc.fill_null(pc.list_value_length(spans), 0).to_numpy()
        offsets = pa.array(
            np.concatenate([[0], np.cumsum(lengths)]), type=pa.int32()
        )
        lists = pa.ListArray.from_arrays(offsets, texts)
        return pa.table(
            {"doc_id": t.column("doc_id"), "doc_text": pc.binary_join(lists, "\n")}
        )

    got = (
        docs.map_batches(join_text, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp_flat = pq.read_table(corpus["expected_flat"]).to_pandas()
    want = (
        exp_flat.sort_values(["doc_id", "offset"])
        .groupby("doc_id")["text"]
        .agg("\n".join)
        .rename("doc_text")
        .reset_index()
    )
    pd.testing.assert_frame_equal(got, want)


def test_read_spans_lance_parquet_fallback(ray_session, tmp_path):
    """Without pylance installed the Lance-gated source/sink must run
    the exact parquet pipeline, end to end."""
    import pyarrow.parquet as pq

    from ocrs_ray.corpus import ensure_corpus
    from ocrs_ray.pipeline import (
        OcrPipelineConfig,
        _lance_available,
        build_ocr_pipeline,
        load_media_store,
        read_spans_lance,
        write_spans,
    )

    assert not _lance_available()  # this sandbox has no pylance
    paths = ensure_corpus(str(tmp_path / "corpus"), n_docs=30, n_templates=16,
                          row_group_docs=10)
    ds = read_spans_lance(paths["spans"])
    media = load_media_store(paths["media"])
    out = build_ocr_pipeline(
        ds, media, OcrPipelineConfig(ocr_concurrency=(1, 1))
    )
    out_dir = str(tmp_path / "out")
    write_spans(out, out_dir)
    got = pq.read_table(out_dir)
    assert got.num_rows == 30


def test_first_file_rejects_lance_dir_without_pylance(tmp_path):
    from ocrs_ray.pipeline import _first_file

    d = tmp_path / "tbl.lance"
    d.mkdir()
    (d / "data").mkdir()
    (d / "file.lance").write_bytes(b"")
    with pytest.raises(RuntimeError, match="pylance"):
        _first_file(str(d))


def test_gpu_actor_pool_mapping_contract(ray_session, corpus, monkeypatch):
    """The north-star deployment holds detection/recognition weights on
    GPUs; the test session has no GPU, so the seam is contract-tested:
    building the (lazy, never-executed) pipeline with ocr_num_gpus > 0
    must pass num_gpus to the OCR task stage, with max_calls=0 so Ray
    keeps reusing the worker (and its loaded models) instead of making
    a GPU task's worker single-use; with the default 0 it must send
    neither kwarg (a zero num_gpus would still make Ray schedule
    against the GPU resource)."""
    import ray.data as rd_mod

    calls = []
    orig = rd_mod.Dataset.map_batches

    def spy(self, fn, *a, **kw):
        name = getattr(fn, "__name__", type(fn).__name__ if not isinstance(fn, type) else fn.__name__)
        calls.append((name, dict(kw)))
        return orig(self, fn, *a, **kw)

    monkeypatch.setattr(rd_mod.Dataset, "map_batches", spy)
    ds = read_spans(corpus["spans"])
    media = load_media_store(corpus["media"])

    build_ocr_pipeline(
        ds, media, OcrPipelineConfig(ocr_concurrency=2, ocr_num_gpus=0.5)
    )
    ocr_calls = [kw for n, kw in calls if n.startswith("Ocr")]
    assert ocr_calls and ocr_calls[-1]["num_gpus"] == 0.5
    assert ocr_calls[-1]["num_cpus"] == 1.0
    assert ocr_calls[-1]["max_calls"] == 0

    calls.clear()
    build_ocr_pipeline(
        ds, media, OcrPipelineConfig(ocr_concurrency=2)
    )
    ocr_calls = [kw for n, kw in calls if n.startswith("Ocr")]
    assert ocr_calls and "num_gpus" not in ocr_calls[-1]
    assert "max_calls" not in ocr_calls[-1]


OCR_PATHS = ("default", "balanced", "joined")


def _build_path(path, spans_ds, corpus):
    """One of the three OCR pipeline builds over `spans_ds`: the
    document-granular default, pixel-balanced documents, and "joined",
    the media table held by reference (a media Dataset for the store)."""
    import ray.data as rd

    cfg = OcrPipelineConfig(
        ocr_concurrency=(1, 2),
        balance_partitions=2 if path == "balanced" else 0,
    )
    if path == "joined":
        media = rd.read_parquet(corpus["media"], columns=MEDIA_COLUMNS)
        return build_ocr_pipeline(spans_ds, media, cfg)
    return build_ocr_pipeline(spans_ds, load_media_store(corpus["media"]), cfg)


@pytest.fixture(scope="module")
def spanless_input(corpus, tmp_path_factory):
    """A 3-doc spans table: one corpus doc with media, one with an
    empty `spans` list, one with a null `spans` list."""
    import pyarrow as pa

    from ocrs_ray.schema import SPANS_SCHEMA

    docs = pq.read_table(corpus["spans"]).to_pylist()
    with_media = next(d for d in docs if any(s["kind"] == "media" for s in d["spans"]))
    table = pa.Table.from_pylist(
        [with_media, {"doc_id": "zz-empty", "spans": []}, {"doc_id": "zz-null", "spans": None}],
        schema=SPANS_SCHEMA,
    )
    path = str(tmp_path_factory.mktemp("spanless") / "spans.parquet")
    pq.write_table(table, path)
    return path, with_media["doc_id"]


@pytest.mark.parametrize("path", OCR_PATHS)
def test_spanless_docs_survive_every_path(ray_session, corpus, spanless_input, path):
    """A document whose spans list is empty or null comes out with its
    spans value unchanged (explode_spans emits no row for it)."""
    spans_path, media_doc = spanless_input
    out = _build_path(path, read_spans(spans_path), corpus)
    got = {r["doc_id"]: r["spans"] for r in arrow_rows(out)}
    exp = pq.read_table(corpus["expected_flat"]).to_pandas()
    want = (
        exp[exp["doc_id"] == media_doc]
        .sort_values("offset")[["kind", "text", "media_ref", "offset"]]
        .to_dict("records")
    )
    assert got == {"zz-empty": [], "zz-null": None, media_doc: want}


@pytest.mark.parametrize("path", OCR_PATHS)
def test_only_span_row_paths_exchange_on_doc_id(ray_session, corpus, spanless_input, path):
    """Every build re-stitches inside the OCR task, so none exchanges
    on doc_id: the default and by-reference ("joined") plans hold no
    shuffle or repartition, the balanced one only its exchange on the
    bin id. Span-less documents add no read, and the by-reference
    media table is read when the pipeline is built, not in its plan:
    the plan reads the spans table once."""
    import re

    out = _build_path(path, read_spans(spanless_input[0]), corpus).materialize()
    stats = out.stats()
    if path == "balanced":
        assert "key_columns=('wpart',)" in stats
        assert "key_columns=('doc_id',)" not in stats
    else:
        assert "Shuffle" not in stats and "Repartition" not in stats
    reads = re.findall(r"^Operator \d+ ReadParquet", stats, re.M)
    assert len(reads) == 1, stats


@pytest.fixture(scope="module")
def sparse_media_inputs(corpus, tmp_path_factory):
    """Spans tables whose media side is sparse: one text-only corpus
    document, and the first 3 corpus documents (2 distinct refs)."""
    docs = pq.read_table(corpus["spans"])
    rows = docs.to_pylist()
    text_only = next(i for i, d in enumerate(rows) if all(s["kind"] == "text" for s in d["spans"]))
    root = tmp_path_factory.mktemp("sparse_media")
    paths = {}
    for name, table in (("text_only", docs.slice(text_only, 1)), ("first3", docs.slice(0, 3))):
        paths[name] = str(root / f"{name}.parquet")
        pq.write_table(table, paths[name])
    return paths


@pytest.mark.parametrize("case", ("text_only", "first3"))
def test_joined_path_survives_sparse_media_side(ray_session, corpus, sparse_media_inputs, case):
    """A shard with few or no media spans is normal input for the
    by-reference build (a join on media_ref once did this work, and
    Ray's native Dataset.join crashed on such a shard: "No match or
    multiple matches for key field reference" at 2 partitions)."""
    spans_path = sparse_media_inputs[case]
    docs = pq.read_table(spans_path).column("doc_id").to_pylist()
    out = _build_path("joined", read_spans(spans_path), corpus)
    got = {r["doc_id"]: r["spans"] for r in arrow_rows(out)}
    exp = pq.read_table(corpus["expected_flat"]).to_pandas()
    want = {
        d: g.sort_values("offset")[["kind", "text", "media_ref", "offset"]].to_dict("records")
        for d, g in exp[exp["doc_id"].isin(docs)].groupby("doc_id")
    }
    assert got == want and len(got) == len(docs)
