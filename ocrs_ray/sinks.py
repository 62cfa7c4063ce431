"""Debug/annotation sinks as Ray Data stages (SURVEY.md §2.1 S7/S8).

The reference CLI exposes these as file-per-image debug flags
(/root/reference/ocrs-cli/src/main.rs:423-446 for --text-map /
--text-mask / --text-line-images, output.rs:116-180 for --png). Here
each sink is a `map_batches` task stage over a media table that emits
the raw tensors as opaque binary columns + typed metadata — the same
composable media-row layout the thumbnailer uses — and a
`write_debug_sinks` tap streams them to partitioned parquet. No image
codec is needed: a PNG encoder would only wrap the same bytes.

Each sink processor is a callable instance holding only its options,
like the OCR processors: its engine comes from the worker process's
engine slot (`pipeline.warm_engine`), built by the first task there and
kept for later tasks and jobs. Called in-process (the corpus goldens)
it uses the calling process's slot the same way.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np
import pyarrow as pa

import ray.data as rd

from .corpus import make_engine
from .output import generate_annotated_png
from .pipeline import MEDIA_COLUMNS, decode_media, warm_engine
from .session import read_table

__all__ = [
    "AnnotatedImageProcessor",
    "TextMapProcessor",
    "LineImageProcessor",
    "annotated_media",
    "ocr_text_maps",
    "ocr_line_images",
    "write_debug_sinks",
]


def _payloads(batch: pa.Table):
    cols = [batch.column(c).to_pylist() for c in MEDIA_COLUMNS]
    for ref, *payload in zip(*cols):
        yield ref, tuple(payload)


def digest_blob_columns(tbl: pa.Table, blob_cols: dict[str, str]) -> pa.Table:
    """Replace binary payload columns with md5 hex digests (rename per
    `blob_cols`: old name -> digest column name). The single shared
    value-compare form for blob-bearing tables — corpus goldens and
    driver queries digest through this same function so they cannot
    drift."""
    import hashlib

    cols = {}
    for name in tbl.schema.names:
        if name in blob_cols:
            cols[blob_cols[name]] = pa.array(
                [hashlib.md5(b).hexdigest() for b in tbl.column(name).to_pylist()],
                type=pa.string(),
            )
        else:
            cols[name] = tbl.column(name)
    return pa.table(cols)


class AnnotatedImageProcessor:
    """S7: input image + detection/recognition boxes -> annotated image
    rows (media-table layout). Output encoding is "raw8-hwc" (zero-copy
    default) or "png" (real PNG bytes via the stdlib-zlib codec in
    `ocrs_ray.png` — what the reference's --png flag writes to disk)."""

    def __init__(self, engine_factory: Callable = make_engine, encode: str = "raw8-hwc"):
        if encode not in ("raw8-hwc", "png"):
            raise ValueError(f"unknown annotated encoding: {encode!r}")
        self.engine_factory = engine_factory
        self.encode = encode

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .png import encode_png

        engine = warm_engine(self.engine_factory)
        refs, blobs, hs, ws = [], [], [], []
        for ref, payload in _payloads(batch):
            img = decode_media(payload)
            inp = engine.prepare_input(img, order="hwc")
            words = engine.detect_words(inp)
            lines = engine.find_text_lines(inp, words)
            text_lines = engine.recognize_text(inp, lines)
            ann = generate_annotated_png(img, lines, text_lines)  # CHW f32
            out = np.clip(np.rint(ann * 255.0), 0, 255).astype(np.uint8)
            out = np.ascontiguousarray(out.transpose(1, 2, 0))  # -> HWC u8
            refs.append(ref)
            blobs.append(
                encode_png(out) if self.encode == "png" else out.tobytes()
            )
            hs.append(out.shape[0])
            ws.append(out.shape[1])
        return pa.table(
            {
                "media_ref": pa.array(refs, type=pa.string()),
                "image": pa.array(blobs, type=pa.binary()),
                "height": pa.array(hs, type=pa.int32()),
                "width": pa.array(ws, type=pa.int32()),
                "channels": pa.array([3] * len(refs), type=pa.int32()),
                "format": pa.array([self.encode] * len(refs), type=pa.string()),
            }
        )


class TextMapProcessor:
    """S8: per-image detection probability map (f32 bytes) and its
    binarized mask at the engine's detection threshold (u8 0/1 bytes),
    mirroring --text-map / --text-mask (main.rs:423-437; the reference
    stores the mask as 0.0/1.0 f32 only because its PNG writer takes
    floats)."""

    def __init__(self, engine_factory: Callable = make_engine):
        self.engine_factory = engine_factory

    def __call__(self, batch: pa.Table) -> pa.Table:
        engine = warm_engine(self.engine_factory)
        refs, maps, masks, hs, ws = [], [], [], [], []
        thr = engine.detection_threshold()
        for ref, payload in _payloads(batch):
            img = decode_media(payload)
            inp = engine.prepare_input(img, order="hwc")
            text_map = engine.detect_text_pixels(inp).astype(np.float32)
            refs.append(ref)
            maps.append(text_map.tobytes())
            masks.append((text_map > thr).astype(np.uint8).tobytes())
            hs.append(text_map.shape[0])
            ws.append(text_map.shape[1])
        return pa.table(
            {
                "media_ref": pa.array(refs, type=pa.string()),
                "map_height": pa.array(hs, type=pa.int32()),
                "map_width": pa.array(ws, type=pa.int32()),
                "text_map": pa.array(maps, type=pa.binary()),
                "text_mask": pa.array(masks, type=pa.binary()),
            }
        )


class LineImageProcessor:
    """S8: per detected line, the preprocessed recognition input crop
    (f32 tensor bytes), mirroring --text-line-images
    (main.rs:441-446): one input row fans out to one row per line."""

    def __init__(self, engine_factory: Callable = make_engine):
        self.engine_factory = engine_factory

    def __call__(self, batch: pa.Table) -> pa.Table:
        engine = warm_engine(self.engine_factory)
        refs, idxs, blobs, hs, ws = [], [], [], [], []
        for ref, payload in _payloads(batch):
            img = decode_media(payload)
            inp = engine.prepare_input(img, order="hwc")
            words = engine.detect_words(inp)
            lines = engine.find_text_lines(inp, words)
            for i, line in enumerate(lines):
                crop = engine.prepare_recognition_input(inp, line)
                crop = np.asarray(crop, dtype=np.float32)
                refs.append(ref)
                idxs.append(i)
                blobs.append(crop.tobytes())
                hs.append(crop.shape[-2])
                ws.append(crop.shape[-1])
        return pa.table(
            {
                "media_ref": pa.array(refs, type=pa.string()),
                "line_index": pa.array(idxs, type=pa.int32()),
                "height": pa.array(hs, type=pa.int32()),
                "width": pa.array(ws, type=pa.int32()),
                "line_image": pa.array(blobs, type=pa.binary()),
            }
        )


def _stage(media_path: str, fn: Callable) -> rd.Dataset:
    """`fn`, a sink processor instance, as a task stage over the media
    table: no actor pool, so its engine stays warm across jobs."""
    return read_table(media_path, columns=MEDIA_COLUMNS).map_batches(
        fn, batch_format="pyarrow", batch_size=32
    )


def annotated_media(media_path: str, encode: str = "raw8-hwc") -> rd.Dataset:
    return _stage(media_path, AnnotatedImageProcessor(encode=encode))


def ocr_text_maps(media_path: str) -> rd.Dataset:
    return _stage(media_path, TextMapProcessor())


def ocr_line_images(media_path: str) -> rd.Dataset:
    return _stage(media_path, LineImageProcessor())


def write_debug_sinks(
    media_path: str,
    out_dir: str,
    which: tuple[str, ...] = ("annotated", "text_maps", "line_images"),
) -> dict[str, str]:
    """Stream the enabled debug sinks to parquet under `out_dir`, one
    directory per sink. Resumable: a sibling `<sink>._SUCCESS` marker
    (written after the sink's parquet completes; outside the directory
    so parquet scans never see it) marks a finished sink, and a rerun
    skips it — a partially-failed run only redoes unfinished sinks.
    Returns sink -> output directory."""
    builders = {
        "annotated": annotated_media,
        "text_maps": ocr_text_maps,
        "line_images": ocr_line_images,
    }
    out: dict[str, str] = {}
    for name in which:
        path = os.path.join(out_dir, name)
        marker = f"{path}._SUCCESS"
        if not os.path.exists(marker):
            import shutil

            shutil.rmtree(path, ignore_errors=True)  # drop partial output
            builders[name](media_path).write_parquet(path)
            with open(marker, "w"):
                pass
        out[name] = path
    return out
