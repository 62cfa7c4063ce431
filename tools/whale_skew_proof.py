"""Whale-skew proof for `balance_partitions` (pre-OCR pixel-volume
LPT balancing): find the tail weight where the knob starts mattering.

The r01 experiment (BASELINE.md) showed NO effect at 24x pixel skew —
the actor pool's pull-based batch scheduling absorbs moderate tails.
The knob's real failure mode is a hot BATCH: several whale images
landing consecutively in the input (same read block -> same
16-document OCR batch) serialize behind ONE task while the others
idle. Each whale is its own one-span document, so the document
weigher sees exactly the per-whale weights. This tool
synthesizes exactly that: `n_whales` whale templates (each referenced
once, all clustered at the head of shard 0) over a sea of 64x64 tiles,
and times the pipeline with balancing off vs on, back to back in the
same session (the only comparison this bursty host supports).

Usage (owns its Ray session; never run concurrently with a bench):
    python tools/whale_skew_proof.py [num_cpus] [whale_h,whale_w ...]
Defaults: 16 CPUs, tails 600x800 (117x a tile) and 3000x4000 (2929x).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

N_TILES = 256
N_DOCS = 2000
N_WHALES = 8
ROOT = "/tmp/ocrs_ray_whale"


def _render(h: int, w: int) -> np.ndarray:
    img = np.zeros((h, w, 1), dtype=np.uint8)
    for y in range(30, h - 30, 40):
        for x in range(0, w - 60, 70):
            img[y : y + 20, x : x + 50, :] = 255
    return img


def build_corpus(root: str, whale_hw: tuple[int, int]) -> dict[str, str]:
    from ocrs_ray.schema import MEDIA_SCHEMA, SPANS_SCHEMA

    rng = np.random.default_rng(3)
    refs, blobs, hs, ws = [], [], [], []
    for i in range(N_TILES):
        img = _render(64, 64)
        refs.append(f"tile-{i:04d}")
        blobs.append(img.tobytes())
        hs.append(64)
        ws.append(64)
    wh, ww = whale_hw
    whale_img = _render(wh, ww).tobytes()  # identical pixels, distinct refs
    for i in range(N_WHALES):
        refs.append(f"whale-{i:02d}")
        blobs.append(whale_img)
        hs.append(wh)
        ws.append(ww)
    media = pa.table(
        {
            "media_ref": refs,
            "image": blobs,
            "height": hs,
            "width": ws,
            "channels": [1] * len(refs),
            "format": ["raw8-hwc"] * len(refs),
            "expected_text": [""] * len(refs),
        },
        schema=MEDIA_SCHEMA,
    )
    doc_ids, spans_col = [], []
    # Whale docs FIRST: consecutive rows at the head of shard 0, so
    # unbalanced batching packs every whale into one OCR batch.
    for i in range(N_WHALES):
        doc_ids.append(f"whale-doc-{i:02d}")
        spans_col.append(
            [{"kind": "media", "text": "", "media_ref": f"whale-{i:02d}", "offset": 0}]
        )
    for i in range(N_DOCS):
        doc_ids.append(f"doc-{i:06d}")
        spans_col.append(
            [
                {
                    "kind": "media",
                    "text": "",
                    "media_ref": f"tile-{int(rng.integers(N_TILES)):04d}",
                    "offset": off,
                }
                for off in range(4)
            ]
        )
    spans = pa.table({"doc_id": doc_ids, "spans": spans_col}, schema=SPANS_SCHEMA)
    shutil.rmtree(root, ignore_errors=True)
    spans_dir = os.path.join(root, "spans")
    os.makedirs(spans_dir)
    n_shards = 8
    per = -(-spans.num_rows // n_shards)
    for i in range(n_shards):
        shard = spans.slice(i * per, per)
        if shard.num_rows:
            pq.write_table(shard, os.path.join(spans_dir, f"part-{i:04d}.parquet"))
    media_path = os.path.join(root, "media.parquet")
    pq.write_table(media, media_path)
    return {"spans": spans_dir, "media": media_path}


def main() -> None:
    num_cpus = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    tails = [
        tuple(int(v) for v in a.split(","))
        for a in sys.argv[2:]
    ] or [(600, 800), (3000, 4000)]

    import ray
    from ray.data import DataContext

    from ocrs_ray.pipeline import (
        OcrPipelineConfig,
        build_ocr_pipeline,
        load_media_store,
        read_spans,
    )

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
    )
    DataContext.get_current().enable_progress_bars = False
    w = max(2, min(num_cpus - 2, int(num_cpus * 0.75)))
    results = []
    for wh, ww in tails:
        paths = build_corpus(ROOT, (wh, ww))
        media = load_media_store(paths["media"])
        tile_px = 64 * 64
        for balance in (0, 16):
            cfg = OcrPipelineConfig(
                ocr_concurrency=(w, w),
                reassemble_partitions=max(8, num_cpus),
                balance_partitions=balance,
            )
            t0 = time.time()
            ds = read_spans(paths["spans"])
            n = build_ocr_pipeline(ds, media, cfg).count()
            wall = round(time.time() - t0, 1)
            results.append(
                {
                    "whale": f"{wh}x{ww}",
                    "tail_ratio": round(wh * ww / tile_px),
                    "balance_partitions": balance,
                    "wall_sec": wall,
                    "rows": n,
                }
            )
            print(json.dumps(results[-1]), flush=True)
    ray.shutdown()
    print(json.dumps({"runs": results}))


if __name__ == "__main__":
    main()
