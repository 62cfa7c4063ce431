"""Checkpoint-resumable execution with per-partition lineage.

North-rule requirement: a killed run restarts from the last committed
output partition. The reference has no equivalent (single process, no
restarts — SURVEY.md §4 "Checkpoint / resume: none"); the design here
is fragment-aligned sharding:

- The input spans table is split into contiguous *shards* of parquet
  row groups (the stand-in for Lance fragments at test scale). Each
  shard's doc_id range comes from the footer statistics, so reading a
  shard is a predicate-pushdown `read_parquet` that prunes all other
  row groups — no full-table scan per shard.
- Each shard runs the full OCR pipeline and writes one output
  directory (`part=<shard>/`). The manifest line for a shard is
  appended ONLY after its parquet files are fully written, so a kill
  mid-shard leaves an uncommitted directory that the retry overwrites
  idempotently (exactly-once output per doc_id across restarts).
- Per-shard lineage rows (fragment_id, doc_id_min, doc_id_max, rows,
  media_spans, pixels, wall_ms, attempt) mirror SURVEY.md §1.2 and are
  derived from the cluster metrics actor + output footers.

At 100 TB, one shard is many Lance fragments and each shard saturates
the cluster; shards sequence the job into resumable units without
capping intra-shard parallelism.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import Any

import pyarrow.compute as pc
import pyarrow.dataset as pa_ds
import pyarrow.parquet as pq

import ray

from ..pipeline import OcrPipelineConfig, build_ocr_pipeline, load_media_store
from ..schema import SPANS_SCHEMA, validate_schema
from ..session import read_table
from .metrics import get_metrics_actor, metrics_snapshot

__all__ = ["ShardPlan", "Manifest", "plan_shards", "run_ocr_job"]


@dataclass(frozen=True)
class ShardPlan:
    shard_id: int
    doc_id_min: str
    doc_id_max: str
    num_rows: int


def _spans_files(spans_path: str) -> list[str]:
    """A spans table is one parquet file or a directory of shard files
    (lexicographic order == doc order, the corpus layout contract)."""
    if os.path.isdir(spans_path):
        return [
            os.path.join(spans_path, n)
            for n in sorted(os.listdir(spans_path))
            if n.endswith(".parquet")
        ]
    return [spans_path]


def plan_shards(spans_path: str, num_shards: int) -> list[ShardPlan]:
    """Split the input into contiguous row-group runs with doc_id
    ranges taken from footer statistics (requires the writer to have
    laid docs out sorted by doc_id, which the corpus generator and any
    sane 100 TB ingest both do). Directory inputs concatenate each
    file's row groups in file order."""
    groups = []
    for path in _spans_files(spans_path):
        md = pq.ParquetFile(path).metadata
        doc_idx = next(
            i for i in range(len(md.schema))
            if md.schema.column(i).path == "doc_id"
        )
        for rg in range(md.num_row_groups):
            col = md.row_group(rg).column(doc_idx)
            st = col.statistics
            if st is None or st.min is None:
                raise ValueError("doc_id column lacks row-group statistics")
            groups.append((st.min, st.max, md.row_group(rg).num_rows))
    num_shards = min(num_shards, len(groups))
    # Contiguous split of row groups into num_shards runs.
    per = len(groups) / num_shards
    shards = []
    for s in range(num_shards):
        lo = round(s * per)
        hi = round((s + 1) * per)
        run = groups[lo:hi]
        shards.append(
            ShardPlan(
                shard_id=s,
                doc_id_min=min(g[0] for g in run),
                doc_id_max=max(g[1] for g in run),
                num_rows=sum(g[2] for g in run),
            )
        )
    return shards


class Manifest:
    """Append-only JSONL commit log under the output root.

    A shard is committed iff a line with its shard_id exists. Commit
    lines are written with flush+fsync after the shard's data files are
    durable, so the log never references missing output.
    """

    def __init__(self, out_root: str):
        os.makedirs(out_root, exist_ok=True)
        self.path = os.path.join(out_root, "manifest.jsonl")

    def entries(self) -> list[dict]:
        if not os.path.exists(self.path):
            return []
        out = []
        with open(self.path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    try:
                        out.append(json.loads(line))
                    except json.JSONDecodeError:
                        # A torn final line from a kill mid-append is
                        # an uncommitted shard; ignore it.
                        pass
        return out

    def committed(self) -> set[int]:
        return {e["fragment_id"] for e in self.entries()}

    def attempts(self, shard_id: int) -> int:
        return sum(1 for e in self.entries() if e.get("fragment_id") == shard_id)

    def commit(self, entry: dict) -> None:
        with open(self.path, "a") as fh:
            fh.write(json.dumps(entry) + "\n")
            fh.flush()
            os.fsync(fh.fileno())


def _read_shard(spans_path: str, shard: ShardPlan):
    """Predicate-pushdown read of one shard; row groups outside the
    doc_id range are pruned from the footer statistics."""
    expr = (pc.field("doc_id") >= shard.doc_id_min) & (
        pc.field("doc_id") <= shard.doc_id_max
    )
    return read_table(spans_path, filter=expr)


def _stable_snapshot(metrics, settle_s: float = 0.05, timeout_s: float = 2.0) -> dict:
    """Counter flushes are fire-and-forget from pool actors; wait until
    two consecutive reads agree so a shard's lineage doesn't lose
    in-flight deltas (bounded wait — lineage counters are accounting,
    not correctness)."""
    prev = ray.get(metrics.snapshot.remote())
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        time.sleep(settle_s)
        cur = ray.get(metrics.snapshot.remote())
        if cur == prev:
            return cur
        prev = cur
    return prev


def run_ocr_job(
    spans_path: str,
    media_path: str,
    out_root: str,
    config: OcrPipelineConfig | None = None,
    num_shards: int = 8,
    fail_after_shards: int | None = None,
) -> dict[str, Any]:
    """Run the OCR pipeline shard-by-shard with checkpoint/resume.

    Re-invoking after a kill skips committed shards and overwrites any
    partial output of uncommitted ones. `fail_after_shards` injects a
    crash after N commits (kill-and-resume tests).

    Returns {"lineage": [...], "metrics": {...}, "skipped": [...]}.
    """
    from dataclasses import replace

    from .metrics import DEFAULT_METRICS_NAME

    cfg = config or OcrPipelineConfig()
    if cfg.metrics_name is None:
        cfg = replace(cfg, metrics_name=DEFAULT_METRICS_NAME)
    validate_schema(
        pq.ParquetFile(_spans_files(spans_path)[0]).schema_arrow,
        SPANS_SCHEMA,
        "spans",
    )
    manifest = Manifest(out_root)
    committed = manifest.committed()
    shards = plan_shards(spans_path, num_shards)
    media_ref = ray.put(load_media_store(media_path))
    metrics = get_metrics_actor(cfg.metrics_name)

    lineage, skipped = [], []
    done_this_run = 0
    for shard in shards:
        if shard.shard_id in committed:
            skipped.append(shard.shard_id)
            continue
        shard_dir = os.path.join(out_root, f"part={shard.shard_id}")
        shutil.rmtree(shard_dir, ignore_errors=True)  # idempotent retry
        before = ray.get(metrics.snapshot.remote())
        t0 = time.time()
        ds = _read_shard(spans_path, shard)
        out = build_ocr_pipeline(ds, media_ref, cfg)
        out.write_parquet(shard_dir)
        wall_ms = int((time.time() - t0) * 1000)
        after = _stable_snapshot(metrics)
        rows = sum(
            pq.ParquetFile(p).metadata.num_rows
            for p in pa_ds.dataset(shard_dir, format="parquet").files
        )
        entry = {
            "fragment_id": shard.shard_id,
            "doc_id_min": shard.doc_id_min,
            "doc_id_max": shard.doc_id_max,
            "rows": rows,
            "media_spans": after.get("media_spans", 0) - before.get("media_spans", 0),
            "pixels": after.get("pixels", 0) - before.get("pixels", 0),
            "wall_ms": wall_ms,
            "attempt": manifest.attempts(shard.shard_id) + 1,
        }
        manifest.commit(entry)
        lineage.append(entry)
        done_this_run += 1
        if fail_after_shards is not None and done_this_run >= fail_after_shards:
            raise RuntimeError(
                f"injected failure after {done_this_run} shards (test hook)"
            )
    return {
        "lineage": lineage,
        "metrics": ray.get(metrics.snapshot.remote()),
        "skipped": sorted(skipped),
    }


def compact_job_output(
    out_root: str, compact_dir: str, partitions: int | None = None
) -> dict[str, int]:
    """Opt-in post-pass for a COMPLETED job: rewrite the run's
    shard-fragmented layout (part=<sid>/ with one file per writer
    block) into a compacted layout with `partitions`-bounded file
    count, keyed on the fragment id so the per-partition lineage
    mapping survives the rewrite. Idempotent: the target is cleared
    first, so a killed compaction re-runs cleanly when the job
    command is re-submitted (all shards skip, compaction redoes).

    Only call after every shard committed — run_ocr_job rmtree's and
    rewrites uncommitted partials on resume, so a completed manifest
    guarantees the tree holds exactly the committed data.
    """
    import shutil as _shutil

    from ocrs_ray.ops.sources import (
        _count_parquet_files,
        compact_partitioned_corpus,
    )

    files_before = _count_parquet_files(out_root)
    _shutil.rmtree(compact_dir, ignore_errors=True)
    files_after = compact_partitioned_corpus(
        out_root,
        compact_dir,
        partitions=partitions,
        key="part",
        file_extensions=["parquet"],
    )
    return {"files_before": files_before, "files_after": files_after}


def read_output(out_root: str):
    """Read a committed run's output as a Ray Dataset (committed
    partitions only — an uncommitted partial directory from a killed
    run is excluded)."""
    import glob

    files = [
        f
        for sid in sorted(Manifest(out_root).committed())
        for f in sorted(glob.glob(os.path.join(out_root, f"part={sid}", "*.parquet")))
    ]
    return read_table(files)
