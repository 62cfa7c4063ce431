"""Connected-component detection tests.

Ported from /root/reference/ocrs/src/detection.rs:212-246.
"""

import numpy as np

from ocrs_ray.contours import find_contours_external
from ocrs_ray.detection import find_connected_component_rects
from ocrs_ray.geometry import Point

from .util import fill_rect, gen_rect_grid


def test_components_basic():
    mask = np.zeros((10, 10), dtype=bool)
    mask[1:3, 1:4] = True
    mask[5:8, 6:9] = True
    # Diagonal touch merges under 8-connectivity.
    mask[3, 4] = True
    contours = find_contours_external(mask)
    assert len(contours) == 2
    # One contour per component, each starting at its first pixel in
    # row-major order, as (x, y).
    assert contours[0][0].tolist() == [1, 1]
    assert [4, 3] in contours[0].tolist()  # diagonal-connected
    assert contours[1][0].tolist() == [6, 5]


def test_contour_through_v_apex_start():
    # The start pixel is the apex of a V: the trace passes it twice and
    # must not stop the first time it is back.
    mask = np.array([[0, 1, 0], [1, 0, 1]], dtype=bool)
    contours = find_contours_external(mask)
    assert len(contours) == 1
    assert contours[0].tolist() == [[1, 0], [2, 1], [1, 0], [0, 1]]


def test_contour_of_blocks_joined_at_v_apex():
    # Two 3x3 blocks hang off the arms of a V whose apex is the first
    # pixel: both blocks are on the one outer contour.
    mask = np.zeros((5, 9), dtype=bool)
    mask[0, 4] = mask[1, 3] = mask[1, 5] = True
    mask[2:5, 0:3] = True
    mask[2:5, 6:9] = True
    contours = find_contours_external(mask)
    assert len(contours) == 1
    pts = {tuple(p) for p in contours[0].tolist()}
    assert {(0, 2), (0, 4), (2, 2), (2, 4)} <= pts  # left block corners
    assert {(6, 2), (8, 2), (6, 4), (8, 4)} <= pts  # right block corners
    assert contours[0][0].tolist() == [4, 0]
    assert len(contours[0]) == 24


def test_find_connected_component_rects():
    mask = np.zeros((400, 400), dtype=bool)
    grid_h, grid_w = 5, 5
    rect_h, rect_w = 10, 50
    rects = gen_rect_grid(
        Point(10, 10), (grid_h, grid_w), (rect_h, rect_w), (10, 5)
    )
    for r in rects:
        expanded = r.adjust_tlbr(0, 0, 1, 1)
        fill_rect(mask, expanded, True)

    components = find_connected_component_rects(mask, 0.0, 100.0)
    assert len(components) == grid_h * grid_w
    for c in components:
        shape = sorted([round(c.height()), round(c.width())])
        assert shape == sorted([rect_h, rect_w])


def test_contours_single_pixel():
    mask = np.zeros((5, 5), dtype=bool)
    mask[2, 3] = True
    contours = find_contours_external(mask)
    assert len(contours) == 1
    assert contours[0].tolist() == [[3, 2]]
