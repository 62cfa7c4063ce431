"""Frozen reference implementations of detection post-processing.

Straightforward versions of `find_contours_external`, `simplify_polygon`
and `min_area_rect`: run-based union-find labeling, a per-component
Moore-neighbour trace with one probe per neighbour, and numpy-array
geometry. `ocrs_ray.contours` / `ocrs_ray.geometry` must return exactly
what these return; `tests/test_postproc_oracle.py` checks it bit for
bit. Not collected as tests.
"""

from __future__ import annotations

import numpy as np

from ocrs_ray.geometry import Point, RotatedRect


def label_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected labels, components numbered 1..n by first run."""
    mask = np.ascontiguousarray(mask, dtype=bool)
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=np.int32)
    if not mask.any():
        return labels, 0
    padded = np.zeros((h, w + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    diff = np.diff(padded, axis=1)
    starts = np.argwhere(diff == 1)
    ends = np.argwhere(diff == -1)
    run_row = starts[:, 0]
    run_start = starts[:, 1]
    run_end = ends[:, 1]
    n_runs = len(run_row)
    parent = np.arange(n_runs, dtype=np.int64)

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb

    row_bounds = np.searchsorted(run_row, np.arange(h + 1))
    for r in range(1, h):
        a0, a1 = row_bounds[r - 1], row_bounds[r]
        b0, b1 = row_bounds[r], row_bounds[r + 1]
        if a0 == a1 or b0 == b1:
            continue
        ai = a0
        for bi in range(b0, b1):
            bs, be = run_start[bi] - 1, run_end[bi] + 1
            while ai < a1 and run_end[ai] <= bs:
                ai += 1
            aj = ai
            while aj < a1 and run_start[aj] < be:
                union(aj, bi)
                aj += 1

    roots = np.array([find(i) for i in range(n_runs)], dtype=np.int64)
    uniq, inv = np.unique(roots, return_inverse=True)
    comp_of_run = inv.astype(np.int32) + 1
    for i in range(n_runs):
        labels[run_row[i], run_start[i] : run_end[i]] = comp_of_run[i]
    return labels, len(uniq)


# Moore neighbourhood in clockwise order starting from W, as (dx, dy).
_MOORE = [(-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1)]


def trace_border(comp_mask: np.ndarray, start_xy: tuple[int, int]) -> np.ndarray:
    """Clockwise Moore trace of one padded component from its first
    row-major pixel. Stops when back on the start pixel and about to
    repeat the first move (Suzuki-Abe)."""
    sx, sy = start_xy
    contour = [(sx, sy)]
    prev_dir = 0
    cx, cy = sx, sy
    first_move = None
    while True:
        step = None
        for k in range(1, 9):
            d = (prev_dir + k) % 8
            dx, dy = _MOORE[d]
            if comp_mask[cy + dy, cx + dx]:
                step = (d, cx + dx, cy + dy)
                break
        if step is None:
            break  # isolated pixel
        d, nx, ny = step
        if (cx, cy) == (sx, sy) and (nx, ny) == first_move:
            break
        if first_move is None:
            first_move = (nx, ny)
        contour.append((nx, ny))
        cx, cy = nx, ny
        prev_dir = (d + 4) % 8
    if len(contour) > 1 and contour[-1] == contour[0]:
        contour.pop()
    return np.array(contour, dtype=np.int64)


def find_contours_external(mask: np.ndarray) -> list[np.ndarray]:
    labels, n = label_components(mask)
    if n == 0:
        return []
    h, w = labels.shape
    out: list[np.ndarray] = []
    flat = labels.ravel()
    nz = np.flatnonzero(flat)
    labs = flat[nz]
    ys, xs = nz // w, nz % w
    _, first = np.unique(labs, return_index=True)
    x0 = np.full(n + 1, w, dtype=np.int64)
    x1 = np.zeros(n + 1, dtype=np.int64)
    y0 = np.full(n + 1, h, dtype=np.int64)
    y1 = np.zeros(n + 1, dtype=np.int64)
    np.minimum.at(x0, labs, xs)
    np.maximum.at(x1, labs, xs)
    np.minimum.at(y0, labs, ys)
    np.maximum.at(y1, labs, ys)
    for lab in range(1, n + 1):
        i = first[lab - 1]
        bx0, bx1 = int(x0[lab]), int(x1[lab])
        by0, by1 = int(y0[lab]), int(y1[lab])
        sub = labels[by0 : by1 + 1, bx0 : bx1 + 1] == lab
        padded = np.zeros((sub.shape[0] + 2, sub.shape[1] + 2), dtype=bool)
        padded[1:-1, 1:-1] = sub
        pts = trace_border(padded, (int(xs[i]) - bx0 + 1, int(ys[i]) - by0 + 1)) - 1
        pts[:, 0] += bx0
        pts[:, 1] += by0
        out.append(pts)
    return out


def _convex_hull(points: np.ndarray) -> np.ndarray:
    pts = np.unique(points, axis=0)
    if len(pts) <= 2:
        return pts
    pairs = [(float(x), float(y)) for x, y in pts]

    def half(seq):
        hull: list[tuple[float, float]] = []
        for px, py in seq:
            while len(hull) >= 2:
                ax, ay = hull[-2]
                bx, by = hull[-1]
                if (bx - ax) * (py - ay) - (by - ay) * (px - ax) <= 0:
                    hull.pop()
                else:
                    break
            hull.append((px, py))
        return hull

    lower = half(pairs)
    upper = half(pairs[::-1])
    return np.array(lower[:-1] + upper[:-1])


def min_area_rect(points) -> RotatedRect | None:
    if isinstance(points, np.ndarray):
        arr = points.astype(np.float64)
    else:
        arr = np.array([[p.x, p.y] for p in points], dtype=np.float64)
    if len(arr) == 0:
        return None
    hull = _convex_hull(arr)
    if len(hull) == 1:
        return RotatedRect(Point(hull[0][0], hull[0][1]), (0.0, -1.0), 0.0, 0.0)
    if len(hull) == 2:
        d = hull[1] - hull[0]
        length = float(np.hypot(d[0], d[1]))
        center = (hull[0] + hull[1]) / 2.0
        dirn = d / length
        return RotatedRect(Point(center[0], center[1]), (dirn[1], -dirn[0]), length, 0.0)
    edges = np.roll(hull, -1, axis=0) - hull
    lens = np.hypot(edges[:, 0], edges[:, 1])
    valid = lens > 0
    dirs = edges[valid] / lens[valid][:, None]
    normals = np.stack([-dirs[:, 1], dirs[:, 0]], axis=1)
    proj_d = dirs @ hull.T
    proj_n = normals @ hull.T
    wd = proj_d.max(axis=1) - proj_d.min(axis=1)
    hn = proj_n.max(axis=1) - proj_n.min(axis=1)
    i = int(np.argmin(wd * hn))
    d = dirs[i]
    n = normals[i]
    cd = (proj_d[i].max() + proj_d[i].min()) / 2.0
    cn = (proj_n[i].max() + proj_n[i].min()) / 2.0
    center = d * cd + n * cn
    return RotatedRect(Point(center[0], center[1]), (d[1], -d[0]), float(wd[i]), float(hn[i]))


def simplify_polygon(points: np.ndarray, epsilon: float) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if n < 3:
        return pts
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        seg = pts[hi] - pts[lo]
        seg_len = np.hypot(seg[0], seg[1])
        mid = pts[lo + 1 : hi]
        if seg_len == 0:
            dists = np.hypot(mid[:, 0] - pts[lo][0], mid[:, 1] - pts[lo][1])
        else:
            dx = mid[:, 0] - pts[lo][0]
            dy = mid[:, 1] - pts[lo][1]
            dists = np.abs(seg[0] * dy - seg[1] * dx) / seg_len
        imax = int(np.argmax(dists))
        if dists[imax] > epsilon:
            k = lo + 1 + imax
            keep[k] = True
            stack.append((lo, k))
            stack.append((k, hi))
    return pts[keep]
