#!/usr/bin/env python3
"""Benchmark for the OCR job and the ops surface.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ocr_unique --seed 1 --seconds 40 --trace 0

Workloads (closed loops, one operation outstanding at a time, driven
from this one process; see README.md):

- ``ocr_unique``: the headline OCR job (read -> explode -> OCR actor
  pool -> ``doc_id`` hash exchange -> reassemble -> parquet) with the
  per-actor memo cache off, over the 1,024-template PNG pool.
- ``ops_slice``: one pass over the ops slice: one checked
  ``ops.registry`` query per ops module, the seed picking the candidate
  and the order.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a separate traced
run (see trace.py). The line before it is a detail record.

Exit code 2 means the checkout has no ``ocrs_ray`` package to measure;
1 means set-up or a check of the benchmark itself failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("ocr_unique", "ops_slice")
#: an op running longer than this fails and ends the run.
OP_TIMEOUT_S = 60.0
#: samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


class OpTimeout(Exception):
    pass


def call_with_timeout(fn, timeout_s: float):
    """fn() in a daemon thread; OpTimeout if it is still running after
    `timeout_s` (the thread is abandoned; the caller ends the run)."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised in the caller below
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise OpTimeout(f"still running after {timeout_s:.0f} s")
    if "error" in box:
        raise box["error"]
    return box.get("value")


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile of `samples` with
    at least TAIL_BEYOND samples beyond it; the maximum when there are
    too few samples for that."""
    s = sorted(samples)
    k = len(s) - TAIL_BEYOND - 1
    if k < 0:
        return s[-1], 100.0
    return s[k], 100.0 * k / (len(s) - 1)


class Bench:
    def __init__(self, args):
        from perfbench import session, trace

        self.args = args
        self.build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
        self.cache_dir = os.path.join(self.build_dir, "cache")
        self.run_dir = os.path.join(self.build_dir, f"run-{os.getpid()}")
        self.session = session.Session(ROOT, self.build_dir)
        self.tree = session.ProcessTree()
        self.tracer = trace.Tracer() if args.trace else None
        self.metrics_actor = None
        self.facts = None
        self.inputs_build_s = 0.0
        self.wl = self.make_workload(args.workload)

    def make_workload(self, name: str):
        from perfbench import workloads

        if name == "ops_slice":
            wl = workloads.OpsWorkload(self.args.seed, os.path.join(HERE, "data", "sf0.01"))
        else:
            wl = workloads.OcrWorkload(self.args.seed, self.cache_dir, self.run_dir)
        self.inputs_build_s += wl.build_s
        return wl

    def load(self, wl) -> None:
        wl.load()
        if self.tracer is not None and wl.name == "ocr_unique" and self.metrics_actor is None:
            from ocrs_ray.state.metrics import get_metrics_actor

            from perfbench.workloads import METRICS_NAME

            # The handle keeps the (non-detached) named actor alive.
            self.metrics_actor = get_metrics_actor(METRICS_NAME)

    # -- one op ----------------------------------------------------------

    def op(self, wl, index: int, traced: bool) -> dict:
        """Prepare, run (timed) and check op `index` of `wl`. Returns
        {"wall", "cpu", "error", "info", "job"}; raises OpTimeout."""
        import ray

        job = wl.prepare(index)
        spans: list = []
        if traced and wl.name == "ocr_unique":
            ray.get(self.metrics_actor.reset.remote())
        cpu0 = self.tree.cpu_s()
        t0 = time.perf_counter()
        error = None
        info: dict = {}
        try:
            info = call_with_timeout(lambda: wl.run(job, traced, spans), OP_TIMEOUT_S)
        except OpTimeout:
            raise
        except Exception as exc:
            error = f"{type(exc).__name__}: {str(exc)[:300]}"
        t1 = time.perf_counter()
        cpu = self.tree.cpu_s() - cpu0
        if error is None:
            try:
                error = wl.check(job)
            except Exception as exc:  # unreadable output is a wrong output
                error = f"check: {type(exc).__name__}: {str(exc)[:300]}"
        if self.tracer is not None:
            op_id = f"{wl.name}:{index}"
            self.tracer.add(op_id, "op.traced" if traced else "op", t0, t1)
            for name, start, end in spans:
                self.tracer.add(op_id, name, start, end)
        return {"wall": t1 - t0, "cpu": cpu, "error": error, "info": info, "job": job}

    def ocr_stage(self, facts: dict) -> dict:
        """MetricsActor counters of the job just run. Flushes are
        fire-and-forget, so wait until every media span is counted."""
        import ray

        deadline = time.monotonic() + 10.0
        snap = ray.get(self.metrics_actor.snapshot.remote())
        while snap.get("media_spans", 0) < facts["media_spans"] and time.monotonic() < deadline:
            time.sleep(0.05)
            snap = ray.get(self.metrics_actor.snapshot.remote())
        if snap.get("media_spans", 0) != facts["media_spans"]:
            raise RuntimeError(f"MetricsActor counted {snap} for {facts['media_spans']} media spans")
        return {
            "ocr_stage.media_spans": float(snap["media_spans"]),
            "ocr_stage.pixels_computed_frac": snap.get("pixels", 0) / facts["pixels_cited"],
            "ocr_stage.poison_rows": float(snap.get("poison_rows", 0)),
        }

    # -- phases ----------------------------------------------------------

    def setup(self, t_process: float) -> tuple[float, float]:
        """Ray session up -> inputs loaded and verified -> warm-up op
        (one OCR job, or one pass of the ops slice) done and checked.
        Returns (setup_s, ray.init seconds). Set-up counts from process
        start, less the one-off build of cached inputs."""
        t0 = time.time()
        self.session.start()
        init_s = time.time() - t0
        self.load(self.wl)
        r = self.op(self.wl, 0, traced=False)
        if r["error"] is not None:
            raise RuntimeError(f"warm-up op failed: {r['error']}")
        self.wl.self_check(r["job"])
        self.facts = r["job"].get("facts")
        self.wl.cleanup(r["job"])
        return time.time() - t_process - self.inputs_build_s, init_s

    def window(self) -> dict:
        """The closed loop: ops back to back for --seconds. In a traced
        run ops alternate untraced / traced."""
        res = {"walls": [], "cpus": [], "module_walls": [], "traced_walls": [], "traced": [], "errors": []}
        attempted = failed = 0
        index = 1
        deadline = time.perf_counter() + self.args.seconds
        with self.tree:
            while time.perf_counter() < deadline:
                traced = self.tracer is not None and index % 2 == 0
                attempted += 1
                try:
                    r = self.op(self.wl, index, traced)
                except OpTimeout as exc:
                    failed += 1
                    res["errors"].append(f"op {index}: {exc}")
                    res["timed_out"] = True
                    break
                if r["error"] is not None:
                    failed += 1
                    res["errors"].append(f"op {index}: {r['error']}")
                elif traced:
                    res["traced_walls"].append(r["wall"])
                    res["traced"].append(self.traced_extras(self.wl, r))
                else:
                    res["walls"].append(r["wall"])
                    res["cpus"].append(r["cpu"])
                    res["module_walls"].append(r["info"].get("module_walls", {}))
                self.wl.cleanup(r["job"])
                # Drop the op's datasets before the next op starts: a
                # live handle can keep its actor pool holding CPUs.
                del r
                index += 1
        res.update(attempted=attempted, failed=failed, peak_rss_mb=self.tree.peak_rss_mb)
        return res

    # -- traced run ------------------------------------------------------

    def traced_extras(self, wl, r: dict) -> dict:
        """Per-layer numbers of one traced op."""
        if wl.name == "ops_slice":
            return {f"ops.{m}.s": w for m, w in r["info"]["module_walls"].items()}
        from perfbench.trace import stage_metrics

        out = r["info"].pop("out")
        self.tracer.stats_text.append({"op": f"{wl.name}:{r['job']['index']}", "stats": out.stats()})
        m = stage_metrics(out)
        m["stage.write_s"] = r["info"]["write_s"]
        m.update(self.ocr_stage(r["job"]["facts"]))
        m["_refs"] = r["job"]["facts"]["refs"]
        return m

    def reference(self, name: str, n_ops: int):
        """A warm-up op, then `n_ops` traced ops, of another workload,
        for the layers this workload does not drive itself."""
        wl = self.make_workload(name)
        self.load(wl)
        extras = []
        for index in range(1 + n_ops):
            r = self.op(wl, index, traced=index > 0)
            if r["error"] is not None:
                raise RuntimeError(f"{name} reference op failed: {r['error']}")
            if index > 0:
                extras.append(self.traced_extras(wl, r))
            wl.cleanup(r["job"])
        return wl, extras

    def layer_metrics(self, init_s: float, win: dict) -> dict:
        """Every per-layer metric. Layers this workload does not drive
        (the OCR stages, engine and metrics actor under ops_slice, the
        ops modules under ocr_unique) are measured on a short traced
        reference run of the workload that does, at the same seed."""
        from ocrs_ray.pipeline import load_media_store

        from perfbench import trace

        if self.wl.name == "ocr_unique":
            ocr_wl, ocr_traced = self.wl, win["traced"]
            _, ops_traced = self.reference("ops_slice", 1)
        else:
            ops_traced = win["traced"]
            ocr_wl, ocr_traced = self.reference("ocr_unique", 2)
        if not ocr_traced or not win["traced_walls"]:
            raise RuntimeError("the window held no traced op; raise --seconds")
        per_op = ocr_traced + ops_traced
        metrics: dict[str, float] = {}
        for key in sorted({k for m in per_op for k in m if not k.startswith("_")}):
            metrics[key] = statistics.median(m[key] for m in per_op if key in m)
        metrics.update(
            trace.engine_pass(
                load_media_store(ocr_wl.pool_path),
                ocr_traced[0]["_refs"],
                ocr_wl.maker.golden,
                self.tracer,
            )
        )
        metrics.update(trace.floor_metrics(self.tracer))
        metrics["floor.session_init_s"] = init_s
        metrics["trace.overhead_frac"] = (
            statistics.median(win["traced_walls"]) / statistics.median(win["walls"]) - 1.0
        )
        return metrics

    def stop(self) -> None:
        """Stop Ray (bounded even if an op is stuck) and drop run files."""
        from perfbench.session import descendants

        try:
            call_with_timeout(self.session.stop, 60.0)
        except OpTimeout:
            me = os.getpid()
            for pid in descendants(me):
                if pid != me:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
        shutil.rmtree(self.run_dir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "ocrs_ray")):
        print(f"perfbench: no ocrs_ray package in {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    # An op abandoned after a timeout keeps calling Ray from its thread;
    # after shutdown those calls must fail, not start a second cluster.
    os.environ["RAY_ENABLE_AUTO_CONNECT"] = "0"
    sys.path.insert(0, ROOT)
    from perfbench.session import process_start_time

    t_process = process_start_time()
    bench = None
    try:
        bench = Bench(args)
        setup_s, init_s = bench.setup(t_process)
        win = bench.window()
        if not win["walls"]:
            raise RuntimeError(f"no op succeeded: {win['errors'][:3]}")
        layers = {}
        if args.trace and not win.get("timed_out"):
            layers = bench.layer_metrics(init_s, win)
    except Exception:
        traceback.print_exc()
        if bench is not None:
            bench.stop()
        return 1
    bench.stop()

    walls = win["walls"]
    p50 = statistics.median(walls)
    tail_s, tail_pct = tail(walls)
    by_module: dict[str, list[float]] = {}
    for pass_walls in win["module_walls"]:
        for module, wall in pass_walls.items():
            by_module.setdefault(module, []).append(wall)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": len(walls),
        "tail_percentile": round(tail_pct, 1),
        "op_walls_s": [round(w, 4) for w in walls],
        "failed_frac": win["failed"] / win["attempted"],
        "errors": win["errors"][:5],
        "session_init_s": init_s,
        "inputs_build_s": bench.inputs_build_s,
    }
    if bench.wl.name == "ops_slice":
        detail["slice"] = [query for _, query in bench.wl.order]
        detail["query_s_p50_by_module"] = {k: statistics.median(v) for k, v in sorted(by_module.items())}
    if bench.facts:
        # For comparison with BASELINE.md; derived from op_s.p50.
        detail["docs_per_s"] = bench.facts["docs"] / p50
        detail["media_spans_per_s"] = bench.facts["media_spans"] / p50
    if args.trace:
        path = os.path.join(bench.build_dir, "trace", f"{args.workload}-seed{args.seed}.json")
        detail["trace_file"] = os.path.relpath(path, ROOT)
        bench.tracer.write(path, {"detail": detail, "metrics": layers})
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s.p50": {"value": p50, "unit": "s"},
            "op_s.tail": {"value": tail_s, "unit": "s"},
            "cpu_s_per_op": {"value": statistics.median(win["cpus"]), "unit": "s"},
            "peak_rss_mb": {"value": win["peak_rss_mb"], "unit": "MB"},
        }
    record = {
        "correct": win["failed"] == 0,
        "attempted": win["attempted"],
        "failed": win["failed"],
        "metrics": metrics,
    }
    print(json.dumps(detail), flush=True)
    print(json.dumps(record), flush=True)
    return 0


def _unit(name: str) -> str:
    if name.endswith(".ms_per_image"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
