"""Kill-and-resume checkpointing tests (north-rule requirement).

A killed run must restart from the last committed output partition and
still produce exactly-once output per doc_id, with per-partition
lineage rows in the manifest.
"""

from __future__ import annotations

import json
import os

import pyarrow.parquet as pq
import pytest

CORPUS_ROOT = "/tmp/ocrs_ray_ckpt_corpus"
N_DOCS = 200


@pytest.fixture(scope="module")
def corpus(ray_session):
    from ocrs_ray.corpus import ensure_corpus

    return ensure_corpus(CORPUS_ROOT, n_docs=N_DOCS, row_group_docs=25)


def _expected_docs(paths) -> dict[str, list]:
    flat = pq.read_table(paths["expected_flat"]).to_pandas()
    out = {}
    for doc_id, g in flat.groupby("doc_id"):
        g = g.sort_values("offset")
        out[doc_id] = list(zip(g["kind"], g["text"], g["media_ref"], g["offset"]))
    return out


def _output_docs(out_root) -> dict[str, list]:
    import glob

    import pyarrow.dataset as pa_ds

    files = sorted(glob.glob(os.path.join(out_root, "part=*", "*.parquet")))
    t = pa_ds.dataset(files, format="parquet").to_table()
    out = {}
    for row in t.to_pylist():
        out[row["doc_id"]] = [
            (s["kind"], s["text"], s["media_ref"], s["offset"]) for s in row["spans"]
        ]
    return out


def test_plan_shards_covers_input(corpus):
    from ocrs_ray.state import plan_shards

    shards = plan_shards(corpus["spans"], 4)
    assert len(shards) == 4
    assert sum(s.num_rows for s in shards) == N_DOCS
    # Contiguous, non-overlapping doc_id ranges.
    for a, b in zip(shards, shards[1:]):
        assert a.doc_id_max < b.doc_id_min


def test_kill_and_resume_exactly_once(corpus, tmp_path):
    from ocrs_ray.state import Manifest, run_ocr_job
    from ocrs_ray.pipeline import OcrPipelineConfig

    out_root = str(tmp_path / "out")
    cfg = OcrPipelineConfig(ocr_concurrency=(1, 2))

    # First run dies after 2 committed shards.
    with pytest.raises(RuntimeError, match="injected failure"):
        run_ocr_job(
            corpus["spans"], corpus["media"], out_root,
            config=cfg, num_shards=4, fail_after_shards=2,
        )
    m = Manifest(out_root)
    assert len(m.committed()) == 2

    # Resume: skips the committed shards, finishes the rest.
    result = run_ocr_job(
        corpus["spans"], corpus["media"], out_root, config=cfg, num_shards=4
    )
    assert result["skipped"] == [0, 1]
    assert len(result["lineage"]) == 2
    assert len(Manifest(out_root).committed()) == 4

    # Exactly-once, span-sequence-equal output across the two runs.
    got = _output_docs(out_root)
    expected = _expected_docs(corpus)
    assert len(got) == N_DOCS
    assert got == expected

    # Lineage rows carry the per-partition accounting.
    entries = Manifest(out_root).entries()
    assert sum(e["rows"] for e in entries) == N_DOCS
    media_total = sum(e["media_spans"] for e in entries)
    flat = pq.read_table(corpus["expected_flat"], columns=["kind"])
    import pyarrow.compute as pc

    n_media = pc.sum(pc.equal(flat.column("kind"), "media")).as_py()
    assert media_total == n_media
    for e in entries:
        assert e["attempt"] >= 1
        assert e["doc_id_min"] <= e["doc_id_max"]
        assert e["wall_ms"] > 0


def test_resume_noop_when_complete(corpus, tmp_path):
    from ocrs_ray.state import run_ocr_job
    from ocrs_ray.pipeline import OcrPipelineConfig

    out_root = str(tmp_path / "out2")
    cfg = OcrPipelineConfig(ocr_concurrency=(1, 2))
    run_ocr_job(corpus["spans"], corpus["media"], out_root, config=cfg, num_shards=2)
    result = run_ocr_job(
        corpus["spans"], corpus["media"], out_root, config=cfg, num_shards=2
    )
    assert result["skipped"] == [0, 1]
    assert result["lineage"] == []


def test_torn_manifest_line_is_uncommitted(tmp_path):
    from ocrs_ray.state import Manifest

    m = Manifest(str(tmp_path))
    m.commit({"fragment_id": 0, "rows": 10})
    with open(m.path, "a") as fh:
        fh.write('{"fragment_id": 1, "rows":')  # torn write, no newline
    assert m.committed() == {0}
    assert m.attempts(1) == 0


def test_job_cli_submit_and_resume(corpus, tmp_path):
    """The `python -m ocrs_ray.job` entrypoint (the `ray job submit`
    command line): a killed submission exits nonzero after committing
    partial shards; re-submitting the SAME command resumes, skips the
    committed partitions, and the final stdout line is one parseable
    JSON record — the job-level contract the north rule's multi-node
    deployment relies on."""
    import subprocess
    import sys

    out_root = str(tmp_path / "out")
    compact_dir = str(tmp_path / "compact")
    cmd = [
        sys.executable, "-m", "ocrs_ray.job",
        "--spans", corpus["spans"], "--media", corpus["media"],
        "--out", out_root, "--num-shards", "4", "--num-cpus", "4",
    ]
    env = {**os.environ, "PYTHONPATH": "/root/repo", "RAY_ADDRESS": "local"}
    first = subprocess.run(
        cmd + ["--fail-after-shards", "2", "--compact-to", compact_dir],
        capture_output=True, text=True, env=env, cwd="/root/repo",
        timeout=600,
    )
    assert first.returncode != 0
    from ocrs_ray.state import Manifest

    assert len(Manifest(out_root).committed()) == 2
    # The killed run never reached the post-pass: no partial compaction.
    assert not os.path.exists(compact_dir)

    second = subprocess.run(
        cmd + ["--compact-to", compact_dir],
        capture_output=True, text=True, env=env, cwd="/root/repo",
        timeout=600,
    )
    assert second.returncode == 0, second.stderr[-2000:]
    record = json.loads(second.stdout.strip().splitlines()[-1])
    assert record["shards_skipped"] == 2
    assert record["shards_done"] == 2
    assert len(Manifest(out_root).committed()) == 4
    # Exactly-once output across the kill/resume pair.
    got = _output_docs(out_root)
    assert len(got) == N_DOCS
    assert got == _expected_docs(corpus)
    # Opt-in compaction post-pass: real file-count reduction, and the
    # compacted layout carries the identical doc set (nothing lost,
    # duplicated, or corrupted by the rewrite).
    comp = record["compaction"]
    assert comp["dir"] == compact_dir
    assert comp["files_after"] < comp["files_before"], comp
    assert _output_docs(compact_dir) == got


def test_compact_job_output_reduces_fragmented_shards(corpus, tmp_path):
    """compact_job_output on the job layout itself (part=<sid>/ with
    several parquet files per shard): strictly fewer files, same docs."""
    from ocrs_ray.state import compact_job_output

    out_root = str(tmp_path / "out")
    docs = pq.read_table(corpus["spans"])
    step = 10
    for sid in range(4):
        shard = docs.slice(sid * 50, 50)
        part = os.path.join(out_root, f"part={sid}")
        os.makedirs(part)
        for i in range(0, shard.num_rows, step):
            pq.write_table(shard.slice(i, step), os.path.join(part, f"{i:04d}.parquet"))
    comp = compact_job_output(out_root, str(tmp_path / "compact"))
    assert comp["files_before"] == 20
    assert comp["files_after"] < comp["files_before"], comp
    assert _output_docs(str(tmp_path / "compact")) == _output_docs(out_root)


def test_default_config_finishes_every_shard(corpus, tmp_path):
    """`run_ocr_job(config=None)` on the 4-CPU session: the default
    ocr_concurrency of 4 OCR tasks must leave the read task room to
    run. An OCR actor pool of 4 held every CPU and no shard finished.
    The job runs as a second driver on the session's cluster so a hang
    fails here, after the timeout, and killing that driver frees its
    workers for the tests after this one."""
    import subprocess
    import sys

    import ray

    out_root = str(tmp_path / "out")
    script = (
        "import ray; from ocrs_ray.state import run_ocr_job; "
        "from ray.data import DataContext; "
        f"ray.init(address={ray.get_runtime_context().gcs_address!r}, logging_level='ERROR'); "
        "DataContext.get_current().enable_progress_bars = False; "
        f"run_ocr_job({corpus['spans']!r}, {corpus['media']!r}, {out_root!r}, num_shards=4)"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": root}
    subprocess.run([sys.executable, "-c", script], env=env, cwd=root, check=True, timeout=180)
    from ocrs_ray.state import Manifest

    assert len(Manifest(out_root).committed()) == 4
    assert _output_docs(out_root) == _expected_docs(corpus)
