"""Geometry kernel tests (rect ops, rotated rects, min-area rect,
polygon fill, line ops)."""

import numpy as np

from ocrs_ray.geometry import (
    Line,
    Point,
    Rect,
    RectF,
    RotatedRect,
    leftmost_edge,
    min_area_rect,
    polygon_is_simple,
    polygons_fill_rows,
    rightmost_edge,
    rust_round,
    simplify_polygon,
)


def test_rust_round():
    assert rust_round(0.5) == 1
    assert rust_round(-0.5) == -1
    assert rust_round(2.5) == 3
    assert rust_round(2.4) == 2


def test_rect_basic():
    r = Rect.from_tlhw(10, 20, 5, 8)
    assert (r.top, r.left, r.bottom, r.right) == (10, 20, 15, 28)
    assert r.width() == 8 and r.height() == 5 and r.area() == 40
    assert r.center() == Point(24, 12)
    assert not r.is_empty()
    assert Rect.from_tlbr(0, 0, 0, 5).is_empty()


def test_rect_iou():
    a = Rect.from_tlbr(0, 0, 10, 10)
    b = Rect.from_tlbr(0, 5, 10, 15)
    assert abs(a.iou(b) - 50 / 150) < 1e-9
    assert a.iou(a) == 1.0
    assert a.iou(Rect.from_tlbr(20, 20, 30, 30)) == 0.0


def test_rotated_rect_corners_upright():
    # Pinned corner order from the reference's test_item_rotated_rect
    # (/root/reference/ocrs/src/text_items.rs:150-156): BR, BL, TL, TR.
    rr = RotatedRect(Point(15.0, 12.5), (0.0, -1.0), 30.0, 25.0)
    corners = [(c.y, c.x) for c in rr.corners()]
    assert corners == [(25.0, 30.0), (25.0, 0.0), (0.0, 0.0), (0.0, 30.0)]
    br = rr.bounding_rect()
    assert (br.top, br.left, br.bottom, br.right) == (0.0, 0.0, 25.0, 30.0)


def test_rotated_rect_from_rect_and_edges():
    rr = RotatedRect.from_rect(RectF(0, 0, 10, 20))
    left = leftmost_edge(rr)
    right = rightmost_edge(rr)
    assert {left.start.x, left.end.x} == {0.0}
    assert {right.start.x, right.end.x} == {20.0}
    assert left.vertical_overlap(right) == 10.0


def test_min_area_rect_axis_aligned():
    pts = [Point(0, 0), Point(30, 0), Point(30, 25), Point(0, 25)]
    rr = min_area_rect(pts)
    dims = sorted([round(rr.width()), round(rr.height())])
    assert dims == [25, 30]
    br = rr.bounding_rect()
    assert (br.top, br.left, br.bottom, br.right) == (0.0, 0.0, 25.0, 30.0)


def test_min_area_rect_rotated():
    # A 45-degree rotated square with diagonal 2: corners at compass points.
    pts = [Point(1, 0), Point(2, 1), Point(1, 2), Point(0, 1)]
    rr = min_area_rect(pts)
    assert abs(rr.width() - np.sqrt(2)) < 1e-6
    assert abs(rr.height() - np.sqrt(2)) < 1e-6
    assert abs(rr.cx - 1.0) < 1e-9 and abs(rr.cy - 1.0) < 1e-9


def test_orient_towards():
    rr = RotatedRect(Point(0, 0), (0.0, 1.0), 4.0, 2.0)
    up = rr.orient_towards((0.0, -1.0))
    assert (up.up_x, up.up_y) == (0.0, -1.0)
    assert (up.w, up.h) == (4.0, 2.0)
    sideways = rr.orient_towards((1.0, 0.0))
    assert (sideways.up_x, sideways.up_y) == (1.0, 0.0)
    assert (sideways.w, sideways.h) == (2.0, 4.0)


def test_line_ops():
    l = Line(Point(0.0, 0.0), Point(10.0, 10.0))
    assert l.y_for_x(5.0) == 5.0
    assert l.y_for_x(11.0) is None
    assert Line(Point(0, 0), Point(0, 5)).y_for_x(0.0) is None  # vertical
    m = Line(Point(0.0, 10.0), Point(10.0, 0.0))
    assert l.intersects(m)
    assert not l.intersects(Line(Point(20, 0), Point(30, 0)))


def test_simplify_polygon():
    # Collinear midpoints vanish; corner survives.
    pts = np.array([[0, 0], [5, 0.1], [10, 0], [10, 10]], dtype=float)
    out = simplify_polygon(pts, 2.0)
    assert [tuple(p) for p in out] == [(0, 0), (10, 0), (10, 10)]
    out2 = simplify_polygon(pts, 0.01)
    assert len(out2) == 4


def test_polygon_fill_rect():
    poly = np.array([[0, 0], [4, 0], [4, 3], [0, 3]])
    runs = polygons_fill_rows([poly])[1:]
    pixels = {(y, x) for y, x0, x1 in zip(*runs) for x in range(x0, x1)}
    assert pixels == {(y, x) for y in range(3) for x in range(4)}


def test_polygon_is_simple():
    square = np.array([[0, 0], [4, 0], [4, 4], [0, 4]])
    bowtie = np.array([[0, 0], [4, 4], [4, 0], [0, 4]])
    assert polygon_is_simple(square)
    assert not polygon_is_simple(bowtie)
