"""Detection post-processing returns exactly what the frozen reference
implementations in `postproc_oracle.py` return: same contours (values,
dtype, shape, order), same simplified polygons, and RotatedRect fields
equal with `==`."""

import numpy as np
import pytest

from ocrs_ray.contours import find_contours_external
from ocrs_ray.corpus import gen_media_templates, make_engine
from ocrs_ray.geometry import Point, min_area_rect, simplify_polygon

from . import postproc_oracle as oracle

RECT_FIELDS = ("cx", "cy", "up_x", "up_y", "w", "h")


def assert_same_contours(mask):
    got = find_contours_external(mask)
    want = oracle.find_contours_external(mask)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


def assert_same_rect(points):
    got, want = min_area_rect(points), oracle.min_area_rect(points)
    if want is None:
        assert got is None
        return
    for field in RECT_FIELDS:
        assert getattr(got, field) == getattr(want, field), field


def _random_masks(rng, n, max_side):
    for _ in range(n):
        h, w = rng.integers(1, max_side, size=2)
        yield rng.random((h, w)) < rng.uniform(0.05, 0.95)


def _holes(rng):
    mask = np.zeros((40, 50), dtype=bool)
    mask[2:38, 3:47] = True
    for _ in range(12):
        y, x = rng.integers(3, 36), rng.integers(4, 45)
        mask[y : y + rng.integers(1, 4), x : x + rng.integers(1, 4)] = False
    mask[10:20, 10:30] = False
    mask[13:17, 15:25] = True  # an island inside a hole
    return mask


def _diagonal_bridges(rng):
    mask = np.zeros((30, 30), dtype=bool)
    mask[::2, ::2] = True
    mask[1::2, 1::2] = True  # checkerboard: every link is diagonal
    yield mask
    stair = np.zeros((20, 25), dtype=bool)
    for i in range(18):
        stair[i + 1, i + 2] = True  # a 1-px diagonal line
    stair[1:5, 0:3] = True
    stair[15:19, 20:24] = True  # two blocks joined only by the diagonal
    yield stair
    yield rng.random((25, 25)) < 0.3


def _lines_and_spurs():
    mask = np.zeros((30, 40), dtype=bool)
    mask[5, 2:38] = True  # horizontal line
    mask[2:28, 20] = True  # vertical line crossing it
    mask[20:24, 5:12] = True
    mask[24:29, 8] = True  # spur below a block
    mask[21, 12:16] = True  # spur to the right
    mask[27, 30:39] = True  # isolated line
    yield mask
    yield np.eye(12, dtype=bool)
    yield np.eye(12, dtype=bool)[::-1]
    yield np.ones((1, 17), dtype=bool)
    yield np.ones((9, 1), dtype=bool)


def _edge_touching(rng):
    frame = np.zeros((20, 30), dtype=bool)
    frame[0, :] = frame[-1, :] = frame[:, 0] = frame[:, -1] = True
    yield frame
    noisy = rng.random((20, 30)) < 0.4
    noisy[0, :] = noisy[-1, :] = noisy[:, 0] = noisy[:, -1] = True
    yield noisy
    corners = np.zeros((8, 8), dtype=bool)
    corners[0, 0] = corners[0, -1] = corners[-1, 0] = corners[-1, -1] = True
    yield corners


def test_contours_match_oracle_on_shapes():
    rng = np.random.default_rng(12)
    masks = [
        np.zeros((7, 9), dtype=bool),
        np.zeros((0, 0), dtype=bool),
        np.ones((7, 9), dtype=bool),
        np.ones((1, 1), dtype=bool),
        np.zeros((6, 6), dtype=bool),
        _holes(rng),
        *_diagonal_bridges(rng),
        *_lines_and_spurs(),
        *_edge_touching(rng),
        np.array([[0, 1, 0], [1, 0, 1]], dtype=bool),
    ]
    masks[4][3, 2] = True
    for mask in masks:
        assert_same_contours(mask)


def test_contours_match_oracle_on_random_masks():
    rng = np.random.default_rng(7)
    for mask in _random_masks(rng, 1500, 24):
        assert_same_contours(mask)


def test_contours_match_oracle_on_large_mask():
    rng = np.random.default_rng(3)
    mask = np.zeros((600, 800), dtype=bool)
    for _ in range(40):
        y, x = rng.integers(0, 580), rng.integers(0, 750)
        mask[y : y + rng.integers(3, 40), x : x + rng.integers(3, 120)] = True
    mask ^= rng.random(mask.shape) < 0.01
    assert_same_contours(mask)


def test_contours_match_oracle_on_detection_masks():
    engine = make_engine()
    templates = gen_media_templates(n_templates=32, seed=5, large_frac=0.1)
    for blob, h, w, c in zip(
        *(templates.column(k).to_pylist() for k in ("image", "height", "width", "channels"))
    ):
        img = np.frombuffer(blob, dtype=np.uint8).reshape(h, w, c)
        prob = engine.detect_text_pixels(engine.prepare_input(img, order="hwc"))
        assert_same_contours(prob > engine.detector.threshold())


def test_simplify_polygon_matches_oracle():
    rng = np.random.default_rng(11)
    for mask in _random_masks(rng, 300, 30):
        for contour in oracle.find_contours_external(mask):
            pts = contour.astype(np.float64)
            for eps in (0.5, 2.0):
                got = simplify_polygon(pts, eps)
                want = oracle.simplify_polygon(pts, eps)
                assert got.dtype == want.dtype and np.array_equal(got, want)
    repeated = np.array([[1.0, 1.0], [3.0, 2.0], [5.0, 7.0], [1.0, 1.0]])
    assert np.array_equal(simplify_polygon(repeated, 1.0), oracle.simplify_polygon(repeated, 1.0))


@pytest.mark.parametrize("scale", [1.0, 10.0, 300.0])
def test_min_area_rect_matches_oracle_on_random_polygons(scale):
    rng = np.random.default_rng(int(scale))
    for i in range(3000):
        pts = rng.normal(size=(int(rng.integers(1, 14)), 2)) * scale
        if i % 3 == 0:
            pts = np.round(pts)  # duplicates and collinear runs
        assert_same_rect(pts)
        if i % 10 == 0:
            assert_same_rect([Point(x, y) for x, y in pts.tolist()])


def test_min_area_rect_matches_oracle_on_degenerate_inputs():
    for pts in (
        np.zeros((0, 2)),
        np.array([[3.0, 4.0]]),
        np.array([[3.0, 4.0], [3.0, 4.0]]),
        np.array([[0.0, 0.0], [2.0, 1.0]]),
        np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [5.0, 5.0]]),
        np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [0.0, 3.0]]),
    ):
        assert_same_rect(pts)
    assert_same_rect([])
    assert_same_rect([Point(1, 2), Point(4, 6), Point(0, 5)])


def test_min_area_rect_matches_oracle_on_detected_polygons():
    rng = np.random.default_rng(2)
    for mask in _random_masks(rng, 300, 40):
        for contour in find_contours_external(mask):
            assert_same_rect(simplify_polygon(contour.astype(np.float64), 2.0))
