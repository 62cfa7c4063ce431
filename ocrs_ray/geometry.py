"""Geometry kernels: rects, rotated rects, lines, polygons.

Pure-numpy re-implementations of the public computational-geometry
algorithms the reference imports from `rten_imageproc` (call sites cited
per function). Coordinates follow image conventions: x grows right,
y grows down. Integer rects are half-open in spirit (width = right -
left) but store inclusive tlbr corner coordinates like the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Rect",
    "RectF",
    "RotatedRect",
    "Line",
    "Point",
    "rust_round",
    "idiv",
    "bounding_rect",
    "bounding_rect_f",
    "min_area_rect",
    "leftmost_edge",
    "rightmost_edge",
    "downwards_line",
    "simplify_polygon",
    "polygon_fill_rows",
    "polygon_is_simple",
]


def rust_round(x: float) -> int:
    """Round half away from zero, like Rust's f32::round."""
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def idiv(a: int, b: int) -> int:
    """Integer division truncating toward zero, like Rust i32 division."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


@dataclass(frozen=True)
class Point:
    """2D point; `x`,`y` may be ints or floats."""

    x: float
    y: float

    def to_f32(self) -> "Point":
        return Point(float(self.x), float(self.y))

    def floor_int(self) -> "Point":
        # Rust `as i32` truncates toward zero; used via line_polygon's
        # floor_point (/root/reference/ocrs/src/recognition.rs:32).
        return Point(int(self.x), int(self.y))


class Rect:
    """Axis-aligned integer rect, tlbr semantics.

    Mirrors `rten_imageproc::Rect<i32>` as used by the reference
    (layout analysis, empty-rect search, char rects).
    """

    __slots__ = ("top", "left", "bottom", "right")

    def __init__(self, top: int, left: int, bottom: int, right: int):
        self.top = int(top)
        self.left = int(left)
        self.bottom = int(bottom)
        self.right = int(right)

    @staticmethod
    def from_tlbr(top, left, bottom, right) -> "Rect":
        return Rect(top, left, bottom, right)

    @staticmethod
    def from_tlhw(top, left, height, width) -> "Rect":
        return Rect(top, left, top + height, left + width)

    @staticmethod
    def from_hw(height, width) -> "Rect":
        return Rect(0, 0, height, width)

    def width(self) -> int:
        return self.right - self.left

    def height(self) -> int:
        return self.bottom - self.top

    def area(self) -> int:
        return max(self.width(), 0) * max(self.height(), 0)

    def is_empty(self) -> bool:
        return self.right <= self.left or self.bottom <= self.top

    def center(self) -> Point:
        # i32 division truncates toward zero (Rust parity).
        return Point(idiv(self.left + self.right, 2), idiv(self.top + self.bottom, 2))

    def intersects(self, other: "Rect") -> bool:
        return (
            self.left < other.right
            and self.right > other.left
            and self.top < other.bottom
            and self.bottom > other.top
        )

    def intersection_area(self, other: "Rect") -> int:
        iw = min(self.right, other.right) - max(self.left, other.left)
        ih = min(self.bottom, other.bottom) - max(self.top, other.top)
        return max(iw, 0) * max(ih, 0)

    def iou(self, other: "Rect") -> float:
        inter = self.intersection_area(other)
        union = self.area() + other.area() - inter
        return inter / union if union > 0 else 0.0

    def union(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.top, other.top),
            min(self.left, other.left),
            max(self.bottom, other.bottom),
            max(self.right, other.right),
        )

    def contains(self, other: "Rect") -> bool:
        return (
            self.left <= other.left
            and self.right >= other.right
            and self.top <= other.top
            and self.bottom >= other.bottom
        )

    def contains_point(self, p: Point) -> bool:
        return self.top <= p.y <= self.bottom and self.left <= p.x <= self.right

    def adjust_tlbr(self, dt: int, dl: int, db: int, dr: int) -> "Rect":
        return Rect(self.top + dt, self.left + dl, self.bottom + db, self.right + dr)

    def to_f32(self) -> "RectF":
        return RectF(self.top, self.left, self.bottom, self.right)

    def corners(self) -> list[Point]:
        # Order matches RotatedRect with up=(0,-1): BR, BL, TL, TR is the
        # rotated-rect order; plain Rect::corners in the reference is
        # TL, TR, BR, BL. Only used via min_area_rect point sets, where
        # order is irrelevant.
        return [
            Point(self.left, self.top),
            Point(self.right, self.top),
            Point(self.right, self.bottom),
            Point(self.left, self.bottom),
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Rect)
            and self.top == other.top
            and self.left == other.left
            and self.bottom == other.bottom
            and self.right == other.right
        )

    def __hash__(self):
        return hash((self.top, self.left, self.bottom, self.right))

    def __repr__(self):
        return f"Rect(t={self.top}, l={self.left}, b={self.bottom}, r={self.right})"


class RectF:
    """Axis-aligned float rect, tlbr semantics (rten `RectF`)."""

    __slots__ = ("top", "left", "bottom", "right")

    def __init__(self, top: float, left: float, bottom: float, right: float):
        self.top = float(top)
        self.left = float(left)
        self.bottom = float(bottom)
        self.right = float(right)

    @staticmethod
    def from_tlhw(top, left, height, width) -> "RectF":
        return RectF(top, left, top + height, left + width)

    def width(self) -> float:
        return self.right - self.left

    def height(self) -> float:
        return self.bottom - self.top

    def center(self) -> Point:
        return Point((self.left + self.right) / 2.0, (self.top + self.bottom) / 2.0)

    def union(self, other: "RectF") -> "RectF":
        return RectF(
            min(self.top, other.top),
            min(self.left, other.left),
            max(self.bottom, other.bottom),
            max(self.right, other.right),
        )

    def left_edge(self) -> "Line":
        return Line(Point(self.left, self.top), Point(self.left, self.bottom))

    def right_edge(self) -> "Line":
        return Line(Point(self.right, self.top), Point(self.right, self.bottom))

    def integral_bounding_rect(self) -> Rect:
        """Smallest integer rect containing this rect (round outward)."""
        return Rect(
            math.floor(self.top),
            math.floor(self.left),
            math.ceil(self.bottom),
            math.ceil(self.right),
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RectF)
            and self.top == other.top
            and self.left == other.left
            and self.bottom == other.bottom
            and self.right == other.right
        )

    def __hash__(self):
        return hash((self.top, self.left, self.bottom, self.right))

    def __repr__(self):
        return f"RectF(t={self.top}, l={self.left}, b={self.bottom}, r={self.right})"


class Line:
    """Line segment between two points."""

    __slots__ = ("start", "end")

    def __init__(self, start: Point, end: Point):
        self.start = start
        self.end = end

    @staticmethod
    def from_endpoints(start: Point, end: Point) -> "Line":
        return Line(start, end)

    def center(self) -> Point:
        return Point(
            (self.start.x + self.end.x) / 2.0, (self.start.y + self.end.y) / 2.0
        )

    def rightwards(self) -> "Line":
        """Endpoints ordered so start.x <= end.x."""
        if self.start.x <= self.end.x:
            return self
        return Line(self.end, self.start)

    def vertical_overlap(self, other: "Line") -> float:
        """Length of the overlap of the two segments' Y ranges (>= 0)."""
        top = max(min(self.start.y, self.end.y), min(other.start.y, other.end.y))
        bottom = min(max(self.start.y, self.end.y), max(other.start.y, other.end.y))
        return max(0.0, bottom - top)

    def horizontal_overlap(self, other: "Line") -> float:
        """Length of the overlap of the two segments' X ranges (>= 0)."""
        left = max(min(self.start.x, self.end.x), min(other.start.x, other.end.x))
        right = min(max(self.start.x, self.end.x), max(other.start.x, other.end.x))
        return max(0.0, right - left)

    def intersects(self, other: "Line") -> bool:
        """True if the two closed segments intersect (incl. touching)."""
        return segments_intersect(
            (self.start.x, self.start.y),
            (self.end.x, self.end.y),
            (other.start.x, other.start.y),
            (other.end.x, other.end.y),
        )

    def y_for_x(self, x: float) -> float | None:
        """Y at the given X, if X lies within the segment's X range.

        Parity: used by char back-projection
        (/root/reference/ocrs/src/recognition.rs:177-185).
        """
        lo, hi = sorted((self.start.x, self.end.x))
        if x < lo or x > hi or hi == lo:
            return None
        t = (x - self.start.x) / (self.end.x - self.start.x)
        return self.start.y + t * (self.end.y - self.start.y)

    def bounding_rect(self) -> Rect:
        return Rect(
            min(self.start.y, self.end.y),
            min(self.start.x, self.end.x),
            max(self.start.y, self.end.y),
            max(self.start.x, self.end.x),
        )

    def __repr__(self):
        return f"Line({self.start} -> {self.end})"


def _orient(ax, ay, bx, by, cx, cy) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def segments_intersect(p1, p2, p3, p4) -> bool:
    d1 = _orient(p3[0], p3[1], p4[0], p4[1], p1[0], p1[1])
    d2 = _orient(p3[0], p3[1], p4[0], p4[1], p2[0], p2[1])
    d3 = _orient(p1[0], p1[1], p2[0], p2[1], p3[0], p3[1])
    d4 = _orient(p1[0], p1[1], p2[0], p2[1], p4[0], p4[1])
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True

    def on_seg(px, py, qx, qy, rx, ry):
        return min(px, qx) <= rx <= max(px, qx) and min(py, qy) <= ry <= max(py, qy)

    if d1 == 0 and on_seg(p3[0], p3[1], p4[0], p4[1], p1[0], p1[1]):
        return True
    if d2 == 0 and on_seg(p3[0], p3[1], p4[0], p4[1], p2[0], p2[1]):
        return True
    if d3 == 0 and on_seg(p1[0], p1[1], p2[0], p2[1], p3[0], p3[1]):
        return True
    if d4 == 0 and on_seg(p1[0], p1[1], p2[0], p2[1], p4[0], p4[1]):
        return True
    return False


class RotatedRect:
    """Oriented rectangle: center, unit up-axis, width (along the axis
    perpendicular to `up`) and height (along `up`).

    Corner order matches the reference's `RotatedRect::corners` as pinned
    by /root/reference/ocrs/src/text_items.rs:150-156: for an upright
    rect (up = (0,-1) in x,y) the order is [bottom-right, bottom-left,
    top-left, top-right].
    """

    __slots__ = ("cx", "cy", "up_x", "up_y", "w", "h")

    def __init__(self, center: Point, up: tuple[float, float], width: float, height: float):
        self.cx = float(center.x)
        self.cy = float(center.y)
        n = math.hypot(up[0], up[1])
        self.up_x = up[0] / n
        self.up_y = up[1] / n
        self.w = float(width)
        self.h = float(height)

    @staticmethod
    def from_rect(rect: RectF) -> "RotatedRect":
        return RotatedRect(rect.center(), (0.0, -1.0), rect.width(), rect.height())

    def center(self) -> Point:
        return Point(self.cx, self.cy)

    def up_axis(self) -> tuple[float, float]:
        return (self.up_x, self.up_y)

    def width(self) -> float:
        return self.w

    def height(self) -> float:
        return self.h

    def area(self) -> float:
        return self.w * self.h

    def resize(self, width: float, height: float) -> None:
        self.w = width
        self.h = height

    def corners(self) -> list[Point]:
        # perp = up rotated 90° clockwise in screen coords (y down).
        px, py = -self.up_y, self.up_x
        hx, hy = self.up_x * self.h / 2.0, self.up_y * self.h / 2.0
        wx, wy = px * self.w / 2.0, py * self.w / 2.0
        return [
            Point(self.cx - hx + wx, self.cy - hy + wy),  # "bottom-right"
            Point(self.cx - hx - wx, self.cy - hy - wy),  # "bottom-left"
            Point(self.cx + hx - wx, self.cy + hy - wy),  # "top-left"
            Point(self.cx + hx + wx, self.cy + hy + wy),  # "top-right"
        ]

    def bounding_rect(self) -> RectF:
        cs = self.corners()
        xs = [c.x for c in cs]
        ys = [c.y for c in cs]
        return RectF(min(ys), min(xs), max(ys), max(xs))

    def orient_towards(self, target: tuple[float, float]) -> "RotatedRect":
        """Return an equivalent rect whose up-axis best matches `target`.

        Parity: /root/reference/ocrs/src/text_items.rs:28-30 — give word
        rects a predictable orientation (up towards (-1, 0) in (y, x)).
        """
        candidates = []
        up = (self.up_x, self.up_y)
        w, h = self.w, self.h
        for _ in range(4):
            candidates.append((up, w, h))
            # rotate up by 90° clockwise; width/height swap.
            up = (-up[1], up[0])
            w, h = h, w
        best = max(candidates, key=lambda c: c[0][0] * target[0] + c[0][1] * target[1])
        return RotatedRect(Point(self.cx, self.cy), best[0], best[1], best[2])

    def __repr__(self):
        return (
            f"RotatedRect(c=({self.cx:.2f},{self.cy:.2f}), "
            f"up=({self.up_x:.2f},{self.up_y:.2f}), w={self.w:.2f}, h={self.h:.2f})"
        )


def bounding_rect(rects: list[Rect]) -> Rect | None:
    """Union of integer rects, or None if empty."""
    if not rects:
        return None
    out = rects[0]
    for r in rects[1:]:
        out = out.union(r)
    return out


def bounding_rect_f(rects: list[RotatedRect]) -> RectF | None:
    """Union of the bounding rects of rotated rects, or None if empty.

    Parity: `bounding_rect(words.iter())` call sites, e.g.
    /root/reference/ocrs/src/recognition.rs:432-434.
    """
    if not rects:
        return None
    out = rects[0].bounding_rect()
    for r in rects[1:]:
        out = out.union(r.bounding_rect())
    return out


def rightmost_edge(r: RotatedRect) -> Line:
    """Edge made of the two right-most vertices.

    Parity: /root/reference/ocrs/src/geom_util.rs:6-10 (stable sort by x,
    take corners[2], corners[3]).
    """
    corners = sorted(r.corners(), key=lambda c: c.x)
    return Line(corners[2], corners[3])


def leftmost_edge(r: RotatedRect) -> Line:
    """Edge made of the two left-most vertices.

    Parity: /root/reference/ocrs/src/geom_util.rs:12-17.
    """
    corners = sorted(r.corners(), key=lambda c: c.x)
    return Line(corners[0], corners[1])


def downwards_line(l: Line) -> Line:
    """Endpoints sorted top-to-bottom.

    Parity: /root/reference/ocrs/src/geom_util.rs:19-26.
    """
    if l.start.y <= l.end.y:
        return l
    return Line(l.end, l.start)


# ---------------------------------------------------------------------------
# Convex hull / min-area rect (one candidate box per hull edge)
# ---------------------------------------------------------------------------


def _convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Andrew's monotone chain over (x, y) float pairs, deduplicated and
    sorted by x then y.

    Scalar python-float arithmetic throughout: hulls here have a handful
    of points, where per-call numpy overhead dominates, and float64
    products and sums are bit-identical either way.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

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

    return half(pts)[:-1] + half(reversed(pts))[:-1]


def min_area_rect(points: list[Point] | np.ndarray) -> RotatedRect | None:
    """Minimum-area oriented rect containing `points`: for each hull edge,
    the bounding box of the hull projected on the edge and its normal.

    Parity target: `rten_imageproc::min_area_rect` call sites
    (/root/reference/ocrs/src/detection.rs:52,
    /root/reference/ocrs/src/text_items.rs:25).

    Edge lengths use `np.hypot`, which can differ from `math.hypot` in
    the last bit.
    """
    if isinstance(points, np.ndarray):
        pts = list(map(tuple, points.astype(np.float64).tolist()))
    else:
        pts = [(float(p.x), float(p.y)) for p in points]
    if not pts:
        return None
    hull = _convex_hull(pts)
    if len(hull) == 1:
        return RotatedRect(Point(*hull[0]), (0.0, -1.0), 0.0, 0.0)
    if len(hull) == 2:
        (ax, ay), (bx, by) = hull
        dx, dy = bx - ax, by - ay
        length = float(np.hypot(dx, dy))
        center = Point((ax + bx) / 2.0, (ay + by) / 2.0)
        return RotatedRect(center, (dy / length, -dx / length), length, 0.0)

    succ = hull[1:] + hull[:1]
    ex = [bx - ax for (ax, _), (bx, _) in zip(hull, succ)]
    ey = [by - ay for (_, ay), (_, by) in zip(hull, succ)]
    best = None
    for dx, dy, length in zip(ex, ey, np.hypot(ex, ey).tolist()):
        if not length > 0:
            continue
        dx /= length
        dy /= length
        # Projections on the edge direction d and its normal (-d.y, d.x).
        proj_d = [dx * x + dy * y for x, y in hull]
        proj_n = [-dy * x + dx * y for x, y in hull]
        d0, d1, n0, n1 = min(proj_d), max(proj_d), min(proj_n), max(proj_n)
        area = (d1 - d0) * (n1 - n0)
        if best is None or area < best[0]:
            best = (area, dx, dy, d0, d1, n0, n1)
    _, dx, dy, d0, d1, n0, n1 = best
    cd = (d1 + d0) / 2.0
    cn = (n1 + n0) / 2.0
    center = Point(dx * cd + -dy * cn, dy * cd + dx * cn)
    # Width runs along the edge direction (perp axis), height along the
    # normal (up axis): up = (d.y, -d.x) so that perp(up) == d.
    return RotatedRect(center, (dy, -dx), d1 - d0, n1 - n0)


# ---------------------------------------------------------------------------
# Polygon simplification (Douglas-Peucker)
# ---------------------------------------------------------------------------


def simplify_polygon(points: np.ndarray, epsilon: float) -> np.ndarray:
    """Douglas-Peucker polyline simplification.

    `points` is (N, 2) of (x, y). Used on contour point lists before
    min-area-rect, parity with `simplify_polygon(..., eps=2.0)`
    (/root/reference/ocrs/src/detection.rs:50).
    """
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if n < 3:
        return pts
    xs, ys = pts[:, 0], pts[:, 1]
    xl, yl = xs.tolist(), ys.tolist()
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        x0, y0 = xl[lo], yl[lo]
        sx, sy = xl[hi] - x0, yl[hi] - y0
        seg_len = np.hypot(sx, sy)
        dx = xs[lo + 1 : hi] - x0
        dy = ys[lo + 1 : hi] - y0
        if seg_len == 0:
            dists = np.hypot(dx, dy)
        else:
            # |seg x (p - lo)| / |seg| = |sx * dy - sy * dx| / |seg|,
            # computed in place.
            dy *= sx
            dx *= sy
            dy -= dx
            dists = np.abs(dy, out=dy)
            dists /= seg_len
        imax = int(dists.argmax())
        if dists[imax] > epsilon:
            k = lo + 1 + imax
            keep[k] = True
            stack.append((lo, k))
            stack.append((k, hi))
    return pts[keep]


# ---------------------------------------------------------------------------
# Polygon scanline fill
# ---------------------------------------------------------------------------


def polygon_fill_rows(poly_xy: np.ndarray) -> list[tuple[int, int, int]]:
    """Scanline fill of a polygon in integer pixel space.

    `poly_xy` is (N, 2) int array of (x, y) vertices. Yields
    (y, x_start, x_end) half-open pixel runs whose centers (x + 0.5,
    y + 0.5) lie inside the polygon (even-odd rule).

    Parity target: `Polygon::fill_iter`
    (/root/reference/ocrs/src/recognition.rs:110) — copies masked pixels
    of a line region.
    """
    poly = np.asarray(poly_xy, dtype=np.float64)
    if len(poly) < 3:
        return []
    x1 = poly[:, 0]
    y1 = poly[:, 1]
    x2 = np.roll(x1, -1)
    y2 = np.roll(y1, -1)
    # Vectorized over ALL (edge, scanline) crossings at once. An edge
    # crosses scanline center yc iff min(y1,y2) <= yc < max(y1,y2)
    # (identical to the per-row mask this replaces); the integer y range
    # per edge is [ceil(ylo-0.5), ceil(yhi-0.5)).
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
    # Sort crossings by (scanline, x) and pair consecutive ones
    # (even-odd rule). Degenerate odd-size groups drop the last
    # unpaired crossing, as the per-row pairing loop did.
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


def polygon_is_simple(poly_xy: np.ndarray) -> bool:
    """True if no two non-adjacent edges intersect (test helper only)."""
    pts = np.asarray(poly_xy, dtype=np.float64)
    n = len(pts)
    if n < 3:
        return True
    edges = [(tuple(pts[i]), tuple(pts[(i + 1) % n])) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j == (i + 1) % n) or (i == (j + 1) % n):
                continue
            if i == 0 and j == n - 1:
                continue
            a, b = edges[i]
            c, d = edges[j]
            if segments_intersect(a, b, c, d):
                return False
    return True


def polygon_contains_pixel(poly_xy: np.ndarray, x: int, y: int) -> bool:
    """Even-odd test whether pixel (x, y) center lies inside polygon."""
    for ry, xs, xe in polygon_fill_rows(poly_xy):
        if ry == y and xs <= x < xe:
            return True
    return False
