"""`ray job submit` entrypoint for the extraction pipeline.

The north-star deployment runs this engine on a fixed-size multi-node
Ray cluster via the Ray job API:

    ray job submit --working-dir . -- \
        python -m ocrs_ray.job --spans s3://.../spans --media s3://.../media \
        --out s3://.../run1 --num-shards 256

In that environment `ray.init(address="auto")` attaches to the
cluster the job server placed us on; locally (no RAY_ADDRESS) it
falls back to a local session. This script OWNS its Ray session (the
library and `__ray_entry__` never call ray.init — see CLAUDE.md);
the guard keeps it composable when a caller already initialised Ray.

The run is checkpoint-resumable at shard granularity: re-submitting
the same command after a failure skips committed partitions and
re-processes only uncommitted ones (`state.run_ocr_job`). The final
stdout line is one JSON object with lineage + metrics, machine-
readable the same way bench.py's record is.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m ocrs_ray.job",
        description="Checkpoint-resumable distributed OCR extraction job",
    )
    p.add_argument("--spans", required=True, help="spans parquet path/dir")
    p.add_argument("--media", required=True, help="media parquet path/dir")
    p.add_argument("--out", required=True, help="output root (partitioned)")
    p.add_argument("--num-shards", type=int, default=8)
    p.add_argument(
        "--fail-after-shards",
        type=int,
        default=None,
        help="inject a crash after N shard commits (kill/resume testing)",
    )
    p.add_argument(
        "--num-cpus",
        type=int,
        default=None,
        help="CPU budget for a LOCAL session (ignored on a cluster)",
    )
    p.add_argument(
        "--compact-to",
        default=None,
        help="after ALL shards commit, compact the fragmented shard "
        "layout into this directory (opt-in post-pass; idempotent on "
        "resume — a killed compaction redoes cleanly)",
    )
    args = p.parse_args(argv)

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        # Under `ray job submit` RAY_ADDRESS is set by the job server;
        # standalone falls back to a local session. num_cpus only
        # applies locally — a cluster's size is the cluster's.
        address = os.environ.get("RAY_ADDRESS", "local")
        kwargs = (
            {"num_cpus": args.num_cpus}
            if address == "local" and args.num_cpus
            else {}
        )
        ray.init(
            address=address,
            include_dashboard=False,
            logging_level="ERROR",
            **kwargs,
        )
    try:
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        from ocrs_ray.pipeline import OcrPipelineConfig, cluster_ncpu
        from ocrs_ray.state import run_ocr_job

        # Size the actor pool from the MEASURED cluster. ncpu-2 alone
        # deadlocks at 32 CPUs (30 actors + 8 shuffle aggregators + the
        # read task exceed the budget); cap at 3/4 of the cluster like
        # bench.py so aggregators and the read always fit. Floor is 1,
        # NOT 2: at ncpu <= 3 a second actor is itself the deadlock
        # (nothing left for the read task).
        ncpu = cluster_ncpu(default=4)
        cfg = OcrPipelineConfig(ocr_concurrency=max(1, min(ncpu - 2, int(ncpu * 0.75))))
        t0 = time.time()
        result = run_ocr_job(
            args.spans,
            args.media,
            args.out,
            config=cfg,
            num_shards=args.num_shards,
            fail_after_shards=args.fail_after_shards,
        )
        record = {
            "out": args.out,
            "wall_sec": round(time.time() - t0, 3),
            "shards_done": len(result["lineage"]),
            "shards_skipped": len(result["skipped"]),
            "rows": sum(e["rows"] for e in result["lineage"]),
            "metrics": result["metrics"],
            "lineage": result["lineage"],
        }
        if args.compact_to:
            # run_ocr_job returning means every shard is committed —
            # the incremental sink is complete, so the small-files
            # rewrite is safe (and redone from scratch on resume).
            from ocrs_ray.state import compact_job_output

            record["compaction"] = compact_job_output(
                args.out, args.compact_to
            )
            record["compaction"]["dir"] = args.compact_to
    finally:
        if owns_session:
            # Flush Ray's stderr chatter before the JSON record so the
            # record is structurally the LAST stdout line (the bench.py
            # parseability lesson).
            ray.shutdown()
    sys.stdout.flush()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
