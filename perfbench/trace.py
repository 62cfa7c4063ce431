"""Per-layer measurements for the traced run, taken from outside the
program: around calls into each layer's public functions, from
``Dataset.stats()`` of traced jobs, and from the program's own
``MetricsActor``.

Spans are kept in memory (``Tracer``) and written once, when the run
ends, together with each traced job's ``Dataset.stats()`` text.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np

#: engine layers in the order OcrSpanProcessor drives them.
ENGINE_LAYERS = (
    "decode",
    "preprocess",
    "detect_pixels",
    "contours",
    "geometry",
    "layout",
    "recognition",
)
STAGES = ("read", "ocr_map", "exchange", "reassemble")
FLOOR_REPEATS = 3


class Tracer:
    """In-memory spans: (op, name, start, end), perf_counter seconds."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stats_text: list[dict] = []

    def add(self, op: int | str, name: str, start: float, end: float) -> None:
        self.spans.append({"op": op, "name": name, "start": start, "end": end})

    def write(self, path: str, record: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({**record, "job_stats": self.stats_text, "spans": self.spans}, f)


def _stage_of(name: str) -> str | None:
    if "OcrSpanProcessor" in name:
        return "ocr_map"
    if "reassemble_block" in name:
        return "reassemble"
    if "ReadParquet" in name or "explode_spans" in name:
        return "read"
    if "Shuffle" in name or "Repartition" in name:
        return "exchange"
    return None


def _operators(summary) -> list:
    ops = []
    for parent in getattr(summary, "parents", None) or []:
        ops.extend(_operators(parent))
    ops.extend(getattr(summary, "operators_stats", None) or [])
    return ops


def stage_metrics(ds) -> dict[str, float]:
    """Per-stage numbers of one executed (materialized) job. A stage's
    wall time spans its first block's start to its last block's end;
    the exchange is the union of its shuffle and finalize sub-operators."""
    fields = ("remote_cpu_s", "udf_s", "tasks")
    out = {f"stage.{s}.{f}": 0.0 for s in STAGES for f in ("wall_s",) + fields}
    spans: dict[str, list[float]] = {}
    remote_wall = 0.0
    for op in _operators(ds._get_stats_summary()):
        stage = _stage_of(op.operator_name)
        if stage is None or not op.latest_end_time:
            continue
        key = f"stage.{stage}"
        out[f"{key}.remote_cpu_s"] += (op.cpu_time or {}).get("sum", 0.0)
        out[f"{key}.udf_s"] += (op.udf_time or {}).get("sum", 0.0)
        out[f"{key}.tasks"] += (op.task_rows or {}).get("count", 0)
        lo, hi = spans.get(stage, (op.earliest_start_time, op.latest_end_time))
        spans[stage] = (min(lo, op.earliest_start_time), max(hi, op.latest_end_time))
        if stage == "exchange":
            remote_wall += (op.wall_time or {}).get("sum", 0.0)
    for stage, (lo, hi) in spans.items():
        out[f"stage.{stage}.wall_s"] = hi - lo
    out["stage.exchange.wait_s"] = max(0.0, out["stage.exchange.wall_s"] - remote_wall)
    return out


def engine_pass(store: dict, refs: list[str], golden: dict, tracer: Tracer) -> dict[str, float]:
    """Single-process pass over `refs`, one public layer call at a time,
    in OcrSpanProcessor's order. Every image's text must equal its
    pinned golden."""
    from ocrs_ray.contours import find_contours_external
    from ocrs_ray.corpus import make_engine
    from ocrs_ray.geometry import min_area_rect, simplify_polygon
    from ocrs_ray.pipeline import decode_media

    engine = make_engine()
    det = engine.detector
    busy = dict.fromkeys(ENGINE_LAYERS, 0.0)
    n_contours = n_words = n_lines = 0
    for ref in refs:
        marks = [time.perf_counter()]
        img = decode_media(store[ref])
        marks.append(time.perf_counter())
        inp = engine.prepare_input(img, order="hwc")
        marks.append(time.perf_counter())
        prob = engine.detect_text_pixels(inp)
        marks.append(time.perf_counter())
        contours = find_contours_external(prob > det.threshold())
        marks.append(time.perf_counter())
        words = []
        for contour in contours:
            rect = min_area_rect(simplify_polygon(contour.astype(np.float64), 2.0))
            if rect is None:
                continue
            rect.resize(rect.width() + 2.0 * det.EXPAND_DIST, rect.height() + 2.0 * det.EXPAND_DIST)
            if rect.area() >= det.params.min_area:
                words.append(rect)
        marks.append(time.perf_counter())
        lines = engine.find_text_lines(inp, words)
        marks.append(time.perf_counter())
        recognized = engine.recognize_text(inp, lines)
        marks.append(time.perf_counter())
        text = "\n".join(str(line) for line in recognized if line is not None)
        if text != golden[ref]:
            raise RuntimeError(f"engine pass: {ref} reads {text!r}, pinned golden is {golden[ref]!r}")
        for layer, start, end in zip(ENGINE_LAYERS, marks, marks[1:]):
            busy[layer] += end - start
            tracer.add(f"engine:{ref}", f"engine.{layer}", start, end)
        n_contours += len(contours)
        n_words += len(words)
        n_lines += len(lines)
    n = len(refs)
    out = {}
    for layer in ENGINE_LAYERS:
        out[f"engine.{layer}.ms_per_image"] = 1e3 * busy[layer] / n
        out[f"engine.{layer}.calls"] = float(n)
    out["engine.contours.per_image"] = n_contours / n
    out["engine.layout.words_per_image"] = n_words / n
    out["engine.layout.lines_per_image"] = n_lines / n
    return out


class _Identity:
    def __call__(self, batch):
        return batch


def _identity(batch):
    return batch


def floor_metrics(tracer: Tracer) -> dict[str, float]:
    """The fixed Ray cost every stage pays: identity map_batches on
    tasks (pyarrow and pandas batches) and on an actor, and a keyed hash
    repartition of a tiny table. Medians of FLOOR_REPEATS runs each."""
    import pyarrow as pa
    import ray.data as rd

    from ocrs_ray.pipeline import enable_hash_shuffle

    table = pa.table({"k": np.arange(2000) % 13, "v": np.arange(2000)})

    def task(fmt):
        return lambda: rd.from_arrow(table).map_batches(_identity, batch_format=fmt).materialize()

    def actor():
        return rd.from_arrow(table).map_batches(
            _Identity, batch_format="pyarrow", concurrency=1
        ).materialize()

    def exchange():
        ds = rd.from_arrow(table)
        enable_hash_shuffle(ds)
        return ds.repartition(4, keys=["k"]).materialize()

    probes = {
        "floor.map_task_pyarrow_s": task("pyarrow"),
        "floor.map_task_pandas_s": task("pandas"),
        "floor.map_actor_s": actor,
        "floor.exchange_s": exchange,
    }
    out = {}
    for name, fn in probes.items():
        walls = []
        for _ in range(FLOOR_REPEATS):
            t0 = time.perf_counter()
            fn()
            t1 = time.perf_counter()
            tracer.add("floor", name, t0, t1)
            walls.append(t1 - t0)
        out[name] = statistics.median(walls)
    return out
