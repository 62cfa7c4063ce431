"""Memory-pressure proof for the headline OCR pipeline: run the
100k-doc streaming validation with the Ray OBJECT STORE capped far
below the data volume and show (a) the pipeline completes by streaming
+ spilling instead of OOMing, (b) the output is value-identical to the
golden (full bidirectional DuckDB EXCEPT), and (c) the measured spill /
restore counters — direct evidence the streaming-executor shape
survives data >> memory, which is the sandbox-testable slice of the
100 TB claim.

Two modes:

- default (broadcast media): the headline shape. Media is a broadcast
  dict, so object volume is spans + recognized text — the proof shows
  the streaming footprint stays bounded (little/no spill even at 100k
  docs under a small store).
- --joined: the media table is held by reference (a media Dataset
  passed to `build_ocr_pipeline`, a 1024-template pool with 30% large
  images): each payload sits in the object store once and OCR tasks
  fetch only the blocks their documents cite, so the proof shows what
  the by-reference store costs in spill, and that the output is exact.

Usage (owns its Ray session; never run concurrently with a bench):
    python tools/memory_pressure_proof.py [n_docs] [num_cpus] [store_mb] [--joined]
Defaults: 100_000 docs, 32 CPUs, 512 MB object store.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


def main() -> None:
    args = [a for a in sys.argv[1:] if a != "--joined"]
    joined = "--joined" in sys.argv
    n_docs = int(args[0]) if len(args) > 0 else 100_000
    num_cpus = int(args[1]) if len(args) > 1 else 32
    store_mb = int(args[2]) if len(args) > 2 else 512

    import ray
    import ray.data as rd
    from ray.data import DataContext

    from ocrs_ray.corpus import ensure_corpus
    from ocrs_ray.pipeline import (
        MEDIA_COLUMNS,
        OcrPipelineConfig,
        build_ocr_pipeline,
        load_media_store,
        read_spans_lance as read_spans,
    )

    if joined:
        # A 1024-template corpus with EXACT bench.py kwargs: ~130 MB of
        # media payloads cited by ~16k media spans. bench's sf0.1
        # headline corpus lives at /tmp/ocrs_ray_bench/sf0.1 with
        # n_docs=8000; reuse THAT cache when the doc count matches,
        # otherwise build our own (the params manifest would force a
        # full 1024-template regeneration of the shared dir on any
        # kwarg mismatch).
        root = (
            "/tmp/ocrs_ray_bench/sf0.1"
            if n_docs == 8000
            else "/tmp/ocrs_ray_memproof_joined"
        )
        paths = ensure_corpus(
            root,
            n_docs=n_docs,
            n_templates=1024,
            row_group_docs=max(50, n_docs // 256),
            goldens=False,
        )
    else:
        root = "/tmp/ocrs_ray_memproof"
        paths = ensure_corpus(
            root,
            n_docs=n_docs,
            row_group_docs=max(50, n_docs // 256),
            goldens=False,
        )
    out_dir = os.path.join(root, "out")
    shutil.rmtree(out_dir, ignore_errors=True)

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        object_store_memory=store_mb * 1024 * 1024,
        logging_level="ERROR",
    )
    DataContext.get_current().enable_progress_bars = False
    t0 = time.time()
    ds = read_spans(paths["spans"])
    w = max(2, min(num_cpus - 2, int(num_cpus * 0.75)))
    cfg = OcrPipelineConfig(ocr_concurrency=(w, w), cache_media=False)
    if joined:
        media = rd.read_parquet(paths["media"], columns=MEDIA_COLUMNS)
    else:
        media = load_media_store(paths["media"])
    out = build_ocr_pipeline(ds, media, cfg)
    out.write_parquet(out_dir)
    wall = time.time() - t0

    # Spill evidence straight from the session's spill directories
    # (ray_spilled_objects_*): the gRPC memory-summary API is absent in
    # this container, but the plasma spill worker's on-disk files are
    # the ground truth anyway. Scanned BEFORE shutdown (shutdown may
    # clean the session dir).
    import glob

    session = ray._private.worker._global_node.get_session_dir_path()
    spill_files = [
        f
        for d in glob.glob(os.path.join(session, "ray_spilled_objects*"))
        for f in glob.glob(os.path.join(d, "*"))
    ]
    spilled_bytes = sum(os.path.getsize(f) for f in spill_files)
    ray.shutdown()

    # Full bidirectional value compare vs the golden.
    import duckdb

    con = duckdb.connect()
    # The sink writes the reassembled spans table (doc_id, spans list);
    # flatten it the same way the flat queries do.
    cols = [
        r[0]
        for r in con.execute(
            f"DESCRIBE SELECT * FROM read_parquet('{out_dir}/*.parquet')"
        ).fetchall()
    ]
    if "spans" in cols:
        con.execute(
            f"CREATE VIEW got AS SELECT doc_id, s.\"offset\" AS \"offset\", "
            f"s.kind AS kind, s.text AS text, s.media_ref AS media_ref "
            f"FROM read_parquet('{out_dir}/*.parquet'), UNNEST(spans) AS t(s)"
        )
    else:
        con.execute(
            f"CREATE VIEW got AS SELECT doc_id, \"offset\", kind, text, "
            f"media_ref FROM read_parquet('{out_dir}/*.parquet')"
        )
    con.execute(
        f"CREATE VIEW want AS SELECT doc_id, \"offset\", kind, text, media_ref "
        f"FROM read_parquet('{paths['expected_flat']}')"
    )
    a = con.execute("SELECT count(*) FROM (SELECT * FROM got EXCEPT SELECT * FROM want)").fetchone()[0]
    b = con.execute("SELECT count(*) FROM (SELECT * FROM want EXCEPT SELECT * FROM got)").fetchone()[0]
    n_got = con.execute("SELECT count(*) FROM got").fetchone()[0]
    n_want = con.execute("SELECT count(*) FROM want").fetchone()[0]

    print(
        json.dumps(
            {
                "mode": "joined" if joined else "broadcast",
                "n_docs": n_docs,
                "num_cpus": num_cpus,
                "object_store_mb": store_mb,
                "wall_sec": round(wall, 1),
                "docs_per_sec": round(n_docs / wall, 1),
                "spilled_mib": round(spilled_bytes / (1024 * 1024), 1),
                "spill_files": len(spill_files),
                "rows_got": n_got,
                "rows_want": n_want,
                "mismatches_got_minus_want": a,
                "mismatches_want_minus_got": b,
            }
        )
    )


if __name__ == "__main__":
    main()
