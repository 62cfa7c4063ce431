"""Single-process engine layer profile, no Ray: `perfbench.trace.engine_pass`
over the media spans of one seeded perfbench `ocr_unique` job.

Usage (from the repo root):
    python tools/engine_layers.py [--seed 1] [--job 2] [--repeats 5] [--profile N]

Prints one JSON line: the best of `--repeats` passes for each
`engine.<layer>.ms_per_image`, their sum `engine.total.ms_per_image`,
plus the per-image contour, word and line counts. `--profile N` then
runs one more pass under cProfile and prints the N functions with the
most self time, to size a layer before working on it. Every pass checks each image's text against the pinned goldens,
as the traced benchmark run does. Job 2 is the first traced job of
`perfbench/run.py --trace 1` at the same seed, so the layers line up with
that run's `engine.*` metrics. The first call in a checkout builds the
benchmark's template pool (a few seconds).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from ocrs_ray.pipeline import load_media_store  # noqa: E402
from perfbench import inputs, trace  # noqa: E402
from perfbench.workloads import OCR_DOCS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--job", type=int, default=2)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--profile", type=int, default=0, metavar="N")
    args = ap.parse_args(argv)

    cache_dir = os.path.join(ROOT, ".bench_build", "perfbench", "cache")
    pool_path, pool, _ = inputs.ensure_pool(cache_dir)
    maker = inputs.JobMaker(pool, OCR_DOCS, args.seed)
    refs = maker.make(args.job)[2]["refs"]
    store = load_media_store(pool_path)
    passes = [
        trace.engine_pass(store, refs, maker.golden, trace.Tracer())
        for _ in range(args.repeats)
    ]
    best = {k: round(min(p[k] for p in passes), 4) for k in passes[0] if not k.endswith(".calls")}
    best["engine.total.ms_per_image"] = round(
        sum(best[f"engine.{layer}.ms_per_image"] for layer in trace.ENGINE_LAYERS), 4
    )
    record = {"seed": args.seed, "job": args.job, "images": len(refs), "repeats": args.repeats}
    print(json.dumps({**record, **best}))
    if args.profile:
        profiler = cProfile.Profile()
        profiler.runcall(trace.engine_pass, store, refs, maker.golden, trace.Tracer())
        pstats.Stats(profiler).sort_stats("tottime").print_stats(args.profile)
    return 0


if __name__ == "__main__":
    sys.exit(main())
