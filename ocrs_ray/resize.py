"""Bilinear image resize (ONNX `half_pixel` linear mode), vectorized.

Equivalent surface to rten's `resize_image` (ONNX Resize, linear,
half_pixel coordinate transform) as used at
/root/reference/ocrs/src/detection.rs:167-171,187-194 and
/root/reference/ocrs/src/recognition.rs:119-121.

Exactness: each output is `lo + (hi - lo) * w` in float32, the H pass
first, then the W pass on its result, as in the plain fancy-indexed form
`top + (bot - top) * wy` / `left + (right - left) * wx`. The passes here
run the same float32 operations on the same operands in the same order,
only in place (`bot -= top; bot *= wy; bot = top + bot`) and, in the W
pass, a tile of rows at a time, so every output is bit for bit the
same. IEEE `+` is commutative, so writing the sum into `bot` rounds
exactly as `top + bot` does; the sum is still taken as `top + bot`
because x86 returns the first operand's NaN when both are NaN, and the
sign of that NaN would otherwise change. An axis whose size does not
change runs its pass like any other, with `arange` indices and zero
weights (`x + (x - x) * 0`), which turns -0.0 into +0.0 and inf into
nan exactly as the plain form does.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["resize_bilinear"]

#: Elements per W-pass tile. The 200x100 -> 600x800 mask upsample takes
#: ~1.2 ms with tiles of 2**14 to 2**18 elements and ~2.5 ms as one tile
#: (x86, 1 CPU, numpy 1.26): the two tile buffers stay in cache while
#: the three arithmetic passes run over them.
_TILE = 1 << 16


@lru_cache(maxsize=256)
def _axis_weights(in_size: int, out_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source indices (lo, hi) and hi-weights for one axis, read-only."""
    if out_size == in_size:
        lo = hi = np.arange(in_size, dtype=np.intp)
        w_hi = np.zeros(in_size, dtype=np.float32)
    else:
        scale = out_size / in_size
        src = (np.arange(out_size, dtype=np.float64) + 0.5) / scale - 0.5
        src = np.clip(src, 0.0, in_size - 1)
        lo = np.floor(src).astype(np.intp)
        hi = np.minimum(lo + 1, in_size - 1)
        w_hi = (src - lo).astype(np.float32)
    for a in (lo, hi, w_hi):
        a.flags.writeable = False
    return lo, hi, w_hi


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize the last two axes of `img` to (out_h, out_w).

    Accepts (..., H, W) float arrays; returns float32 (`img` itself when
    both sizes are unchanged).
    """
    img = np.asarray(img, dtype=np.float32)
    h, w = img.shape[-2], img.shape[-1]
    if h == out_h and w == out_w:
        return img
    lead = img.shape[:-2]
    # H pass: rows = top + (bot - top) * wy, in place in `bot`.
    ylo, yhi, wy = _axis_weights(h, out_h)
    top = np.take(img, ylo, axis=-2)
    bot = np.take(img, yhi, axis=-2)
    bot -= top
    bot *= wy[:, None]
    np.add(top, bot, out=bot)
    n = math.prod(bot.shape[:-1])
    rows = bot.reshape(n, w)
    # W pass: out = left + (right - left) * wx, in place in `out`, a tile
    # of rows at a time through one `left` buffer. Every index is in
    # range, so mode="wrap" wraps none; it is the cheapest mode that
    # gathers straight into `out=` (numpy buffers "raise", and "clip"
    # clamps every index).
    xlo, xhi, wx = _axis_weights(w, out_w)
    out = np.empty((n, out_w), dtype=np.float32)
    tile = max(1, min(n, _TILE // max(out_w, 1)))
    left = np.empty((tile, out_w), dtype=np.float32)
    for r0 in range(0, n, tile):
        src = rows[r0 : r0 + tile]
        dst = out[r0 : r0 + tile]
        lbuf = left[: len(src)]
        np.take(src, xlo, axis=1, out=lbuf, mode="wrap")
        np.take(src, xhi, axis=1, out=dst, mode="wrap")
        dst -= lbuf
        dst *= wx
        np.add(lbuf, dst, out=dst)
    return out.reshape(*lead, out_h, out_w)
