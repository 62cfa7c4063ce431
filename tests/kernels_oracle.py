"""Frozen reference implementations of the engine's pre-processing kernels.

Straightforward versions of PNG scanline unfiltering (one row at a time,
Average and Paeth one byte at a time), greyscale prep (a channel matmul),
bilinear resize (fancy-indexed passes), polygon scanline fill (a list of
runs), line-image prep (a per-run copy loop) and the detector's
pad/resize/model/resize pass. The `ocrs_ray` kernels must return exactly
the bytes these return; `tests/test_kernels_oracle.py` checks it. Not
collected as tests.
"""

from __future__ import annotations

import numpy as np

from ocrs_ray.geometry import Rect
from ocrs_ray.preprocess import BLACK_VALUE, ITU_WEIGHTS


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def unfilter(data: np.ndarray, h: int, stride: int, bpp: int) -> np.ndarray:
    """Undo per-scanline filtering -> (h, stride) raw bytes."""
    rows = data.reshape(h, 1 + stride)
    out = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for y in range(h):
        ftype = int(rows[y, 0])
        line = rows[y, 1:].astype(np.int32)
        if ftype == 0:
            cur = line
        elif ftype == 1:
            cur = line.reshape(-1, bpp)
            cur = np.add.accumulate(cur, axis=0, dtype=np.int64) % 256
            cur = cur.reshape(-1)
        elif ftype == 2:
            cur = (line + prev) % 256
        elif ftype == 3:
            cur = np.empty(stride, dtype=np.int32)
            for i in range(stride):
                left = cur[i - bpp] if i >= bpp else 0
                cur[i] = (line[i] + ((left + int(prev[i])) >> 1)) % 256
        elif ftype == 4:
            cur = np.empty(stride, dtype=np.int32)
            for i in range(stride):
                a = cur[i - bpp] if i >= bpp else 0
                b = int(prev[i])
                cc = int(prev[i - bpp]) if i >= bpp else 0
                cur[i] = (line[i] + _paeth(int(a), b, cc)) % 256
        else:
            raise ValueError(f"bad PNG filter type {ftype} on row {y}")
        prev = cur.astype(np.uint8)
        out[y] = prev
    return out


def prepare_image(img: np.ndarray, order: str = "hwc") -> np.ndarray:
    """(1, H, W) float32 greyscale in [BLACK_VALUE, BLACK_VALUE + 1]."""
    hwc = np.moveaxis(img, 0, -1) if order == "chw" else img
    weights = np.array([1.0], dtype=np.float32) if hwc.shape[2] == 1 else ITU_WEIGHTS
    if hwc.dtype == np.uint8:
        weights = weights / np.float32(255.0)
    hwc_f = hwc.astype(np.float32, copy=False)
    used = hwc_f[:, :, : len(weights)]
    grey = used @ weights + np.float32(BLACK_VALUE)
    return grey[None, :, :].astype(np.float32, copy=False)


def _axis_weights(in_size: int, out_size: int):
    if out_size == in_size:
        idx = np.arange(in_size)
        return idx, idx, np.zeros(in_size, dtype=np.float32)
    scale = out_size / in_size
    src = (np.arange(out_size, dtype=np.float64) + 0.5) / scale - 0.5
    src = np.clip(src, 0.0, in_size - 1)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, in_size - 1)
    w_hi = (src - lo).astype(np.float32)
    return lo, hi, w_hi


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize the last two axes (ONNX linear, half_pixel), H pass first."""
    img = np.asarray(img, dtype=np.float32)
    h, w = img.shape[-2], img.shape[-1]
    if h == out_h and w == out_w:
        return img
    ylo, yhi, wy = _axis_weights(h, out_h)
    xlo, xhi, wx = _axis_weights(w, out_w)
    top = img[..., ylo, :]
    bot = img[..., yhi, :]
    rows = top + (bot - top) * wy[:, None]
    left = rows[..., :, xlo]
    right = rows[..., :, xhi]
    return left + (right - left) * wx[None, :]


def polygon_fill_rows(poly_xy: np.ndarray) -> list[tuple[int, int, int]]:
    """(y, x_start, x_end) half-open runs of pixel centres inside the
    polygon (even-odd rule), sorted by y then x."""
    poly = np.asarray(poly_xy, dtype=np.float64)
    if len(poly) < 3:
        return []
    x1 = poly[:, 0]
    y1 = poly[:, 1]
    x2 = np.roll(x1, -1)
    y2 = np.roll(y1, -1)
    ylo = np.minimum(y1, y2)
    yhi = np.maximum(y1, y2)
    y_start = np.ceil(ylo - 0.5).astype(np.int64)
    y_end = np.ceil(yhi - 0.5).astype(np.int64)
    counts = np.maximum(0, y_end - y_start)
    total = int(counts.sum())
    if total == 0:
        return []
    edge = np.repeat(np.arange(len(poly)), counts)
    k = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    y = y_start[edge] + k
    yc = y + 0.5
    t = (yc - y1[edge]) / (y2[edge] - y1[edge])
    xs = x1[edge] + t * (x2[edge] - x1[edge])
    order = np.lexsort((xs, y))
    y = y[order]
    xs = xs[order]
    starts = np.concatenate([[0], np.flatnonzero(y[1:] != y[:-1]) + 1])
    glen = np.diff(np.concatenate([starts, [total]]))
    rank = np.arange(total) - np.repeat(starts, glen)
    is_a = (rank % 2 == 0) & (rank + 1 < np.repeat(glen, glen))
    xa = xs[is_a]
    xb = xs[np.flatnonzero(is_a) + 1]
    x_start = np.ceil(xa - 0.5 + 1e-9).astype(np.int64)
    x_end = np.ceil(xb - 0.5 - 1e-9).astype(np.int64)
    keep = x_end > x_start
    return list(zip(y[is_a][keep].tolist(), x_start[keep].tolist(), x_end[keep].tolist()))


def prepare_text_line(
    image: np.ndarray,
    page_rect: Rect,
    line_region: np.ndarray,
    resized_width: int,
    output_height: int,
) -> np.ndarray:
    """Polygon-masked line pixels on a BLACK_VALUE canvas, resized; both
    source and destination rows are clamped against the page rect."""
    page_index_rect = page_rect.adjust_tlbr(0, 0, -1, -1)
    grey = image[0]
    xs_all = line_region[:, 0]
    ys_all = line_region[:, 1]
    top, left = int(ys_all.min()), int(xs_all.min())
    bottom, right = int(ys_all.max()), int(xs_all.max())
    lh, lw = bottom - top, right - left
    line_img = np.full((max(lh, 1), max(lw, 1)), np.float32(BLACK_VALUE), dtype=np.float32)
    for y, x0, x1 in polygon_fill_rows(line_region):
        in_y = y
        if not (page_index_rect.top <= in_y <= page_index_rect.bottom):
            continue
        out_y = in_y - top
        if not (page_index_rect.top <= out_y <= page_index_rect.bottom):
            continue
        if out_y >= line_img.shape[0]:
            continue
        ix0 = max(x0, page_index_rect.left, left + page_index_rect.left)
        ix1 = min(x1, page_index_rect.right + 1, left + page_index_rect.right + 1)
        ix1 = min(ix1, left + line_img.shape[1])
        ox0 = ix0 - left
        if ox0 < 0:
            ix0 -= ox0
            ox0 = 0
        if ix1 <= ix0:
            continue
        line_img[out_y, ox0 : ox0 + (ix1 - ix0)] = grey[in_y, ix0:ix1]
    resized = resize_bilinear(line_img[None, None], output_height, resized_width)
    return resized[0, 0]


def detect_text_pixels(detector, image: np.ndarray) -> np.ndarray:
    """`TextDetector.detect_text_pixels`: pad right/bottom with
    BLACK_VALUE to the model's input size, resize, run the model, crop
    and resize the mask back to (H, W)."""
    _, img_h, img_w = image.shape
    in_h, in_w = detector.input_shape[2].size, detector.input_shape[3].size
    pad_bottom = max(in_h - img_h, 0)
    pad_right = max(in_w - img_w, 0)
    batch = image[None, :, :, :]
    if pad_bottom > 0 or pad_right > 0:
        batch = np.pad(
            batch,
            ((0, 0), (0, 0), (0, pad_bottom), (0, pad_right)),
            constant_values=np.float32(BLACK_VALUE),
        )
    if batch.shape[2] != in_h or batch.shape[3] != in_w:
        batch = resize_bilinear(batch, in_h, in_w)
    mask = np.asarray(detector.model.run(batch.astype(np.float32)), dtype=np.float32)
    mask = mask[:, :, : in_h - pad_bottom, : in_w - pad_right]
    mask = resize_bilinear(mask, img_h, img_w)
    return mask.reshape(img_h, img_w)
