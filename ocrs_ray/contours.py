"""Outer-border tracing of the 8-connected components of a binary mask.

Pure-numpy implementation of the public algorithm behind
`rten_imageproc::find_contours(mask, RetrievalMode::External)` as used by
word detection (reference `detection.rs:41-62`), in one pass over the
mask's bounding box of non-empty rows and columns:

1. Components. Horizontal runs of set pixels are found on the
   zero-padded box; the runs of adjacent rows that touch under
   8-connectivity are paired with two `searchsorted` calls, and
   vectorized min-label propagation labels each run with the lowest run
   index of its component. Components are emitted in that order, i.e.
   by their first pixel in row-major order, which is where each trace
   starts.
2. Trace. Every pixel gets an 8-bit mask of its set neighbours (bit d
   for Moore direction d, clockwise from W). The clockwise Moore trace
   then makes one table lookup per step, `(bits, backtrack) -> next
   direction`, on the whole padded box: every set 8-neighbour of a
   component pixel is in the same component, so no label image or
   per-component crop is needed. The trace stops when it is back on the
   start pixel and about to repeat its first move (Suzuki & Abe's rule),
   so a start pixel that the border passes more than once, such as the
   apex of a V, does not end it early.
"""

from __future__ import annotations

import numpy as np

__all__ = ["find_contours_external"]

# Moore neighbourhood in clockwise order starting from W, as (dx, dy).
_MOORE = ((-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1))


def _step_table() -> bytes:
    """`table[bits << 3 | back]`: the first set direction clockwise after
    the backtrack direction `back` (ending with `back` itself), or 8 for
    a pixel with no set neighbour."""
    table = bytearray(256 * 8)
    for bits in range(256):
        for back in range(8):
            dirs = [(back + k) % 8 for k in range(1, 9)]
            table[bits << 3 | back] = next((d for d in dirs if bits >> d & 1), 8)
    return bytes(table)


_STEP = _step_table()


def _components(padded: np.ndarray) -> np.ndarray:
    """Flat index in `padded` of the first pixel of each 8-connected
    component, in row-major order."""
    wp = padded.shape[1]
    edges = np.diff(padded.ravel().view(np.int8))
    starts = np.flatnonzero(edges == 1) + 1
    ends = np.flatnonzero(edges == -1) + 1  # exclusive
    # Run a on the row above touches run b iff a.start <= b.end and
    # a.end >= b.start (ends exclusive); in flat indices that is one
    # row (wp) back. The keys cannot reach two rows back or b's own row,
    # because every padded row starts and ends with a zero.
    lo = np.searchsorted(ends, starts - wp, side="left")
    hi = np.searchsorted(starts, ends - wp, side="right")
    n_pairs = np.maximum(hi - lo, 0)
    label = np.arange(len(starts))
    b = np.repeat(label, n_pairs)
    a = np.repeat(lo - np.cumsum(n_pairs) + n_pairs, n_pairs) + np.arange(len(b))
    # Each pass lowers both ends of every touching pair to their smaller
    # label, then follows labels as pointers; at the fixed point every
    # run holds the lowest run index of its component.
    while True:
        low = np.minimum(label[a], label[b])
        new = label.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new[new]]
        if (new == label).all():
            break
        label = new
    return starts[label == np.arange(len(starts))]


def find_contours_external(mask: np.ndarray) -> list[np.ndarray]:
    """Outer contours of all 8-connected components in `mask`.

    Equivalent surface to `find_contours(mask, RetrievalMode::External)`
    (reference `detection.rs:46`). Returns one (N, 2) int64 array of
    (x, y) border-pixel coordinates per component, clockwise from the
    component's first pixel, components in row-major order of that
    pixel.
    """
    mask = np.asarray(mask, dtype=bool)
    rows = np.flatnonzero(mask.any(axis=1))
    if len(rows) == 0:
        return []
    cols = np.flatnonzero(mask.any(axis=0))
    y0, x0 = int(rows[0]), int(cols[0])
    box = mask[y0 : int(rows[-1]) + 1, x0 : int(cols[-1]) + 1]
    h, w = box.shape
    wp = w + 2
    padded = np.zeros((h + 2, wp), dtype=np.uint8)
    padded[1:-1, 1:-1] = box
    offset = [dx + dy * wp for dx, dy in _MOORE]
    # Neighbour bits by flat shifts. Set pixels all lie in [wp + 1,
    # n - wp - 1), so their 8 neighbours never wrap; the other entries
    # are never read.
    cells = padded.ravel()
    n = cells.size
    bits = np.zeros(n, dtype=np.uint8)
    core = bits[wp + 1 : n - wp - 1]
    for d, off in enumerate(offset):
        core |= cells[wp + 1 + off : n - wp - 1 + off] << d
    nbits = bits.tobytes()

    step = _STEP
    back_of = [(d + 4) % 8 for d in range(8)]
    flat: list[int] = []
    ends: list[int] = []
    for start in _components(padded).tolist():
        flat.append(start)
        # The start is its component's first pixel, so the backtrack
        # direction W points at background.
        d = step[nbits[start] << 3]
        if d != 8:
            first = pos = start + offset[d]
            back = back_of[d]
            flat.append(first)
            while True:
                d = step[nbits[pos] << 3 | back]
                nxt = pos + offset[d]
                if nxt == first and pos == start:
                    break
                flat.append(nxt)
                pos = nxt
                back = back_of[d]
            flat.pop()  # the start pixel, reached again
        ends.append(len(flat))

    y, x = np.divmod(np.array(flat, dtype=np.int64), wp)
    xy = np.stack([x + (x0 - 1), y + (y0 - 1)], axis=1)
    return np.split(xy, ends[:-1])
