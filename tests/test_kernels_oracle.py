"""The engine's pre-processing kernels return exactly the bytes of the
frozen reference versions in `kernels_oracle.py`: PNG unfiltering,
greyscale prep, detection pad/resize, bilinear resize, polygon fill and
line-image prep, compared with `tobytes()` (plus dtype and shape)."""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa
import pytest

from ocrs_ray import png
from ocrs_ray.corpus import _render_template, make_engine
from ocrs_ray.detection import find_connected_component_rects
from ocrs_ray.geometry import (
    Point,
    Rect,
    RotatedRect,
    bounding_rect_f,
    polygons_fill_rows,
)
from ocrs_ray.layout import find_text_lines
from ocrs_ray.preprocess import BLACK_VALUE, prepare_image
from ocrs_ray.recognition import (
    TextRecLine,
    line_polygon,
    prepare_text_line,
    prepare_text_line_batch,
    resized_line_width,
)
from ocrs_ray.resize import _axis_weights, resize_bilinear

from . import kernels_oracle as oracle


def assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_fill(poly: np.ndarray) -> None:
    ys, x0, x1 = polygons_fill_rows([poly])[1:]
    assert ys.dtype == x0.dtype == x1.dtype == np.int64
    assert list(zip(ys.tolist(), x0.tolist(), x1.tolist())) == oracle.polygon_fill_rows(poly)


def decode_with_oracle(data: bytes, monkeypatch) -> np.ndarray:
    with monkeypatch.context() as m:
        m.setattr(png, "_unfilter", oracle.unfilter)
        return png.decode_png(data)


def _pool_pngs() -> list[bytes]:
    """The benchmark's 1,024-template PNG pool, rebuilt from its seed and
    checked against the pinned digest, so these are its exact bytes."""
    from perfbench import inputs

    n, seed, large_frac = inputs.POOL
    rng = np.random.default_rng(seed)
    imgs = [_render_template(rng, rng.random() < large_frac) for _ in range(n)]
    blobs = [png.encode_png(img) for img in imgs]
    table = pa.table(
        {
            "media_ref": [f"img-{i:04d}" for i in range(n)],
            "image": pa.array(blobs, type=pa.binary()),
            "height": [img.shape[0] for img in imgs],
            "width": [img.shape[1] for img in imgs],
            "channels": [img.shape[2] for img in imgs],
            "format": ["png"] * n,
        }
    )
    assert inputs.pool_digest(table) == inputs.load_pinned()["png_digest"]
    return blobs


def test_pool_templates_match_oracle(monkeypatch):
    """decode -> prep -> detect -> every line of every pool template."""
    engine = make_engine()
    det, rec = engine.detector, engine.recognizer
    rec_h = rec.input_height()
    n_lines = 0
    for blob in _pool_pngs():
        img = png.decode_png(blob)
        assert_same_bytes(img, decode_with_oracle(blob, monkeypatch))
        inp = prepare_image(img, order="hwc")
        assert_same_bytes(inp, oracle.prepare_image(img, order="hwc"))
        prob = det.detect_text_pixels(inp)
        assert_same_bytes(prob, oracle.detect_text_pixels(det, inp))
        page = Rect.from_hw(*inp.shape[1:])
        lines = []
        words = find_connected_component_rects(prob > det.threshold(), det.EXPAND_DIST, det.params.min_area)
        for i, line in enumerate(find_text_lines(words)):
            region = line_polygon(line)
            rect = bounding_rect_f(line).integral_bounding_rect()
            lines.append(TextRecLine(i, region, resized_line_width(rect.width(), rect.height(), rec_h)))
            assert_same_fill(region)
        if not lines:
            continue
        # One batch holding all of the image's lines, as wide as the widest.
        width = max(line.resized_width for line in lines)
        want = np.full((len(lines), 1, rec_h, width), np.float32(BLACK_VALUE), dtype=np.float32)
        for i, line in enumerate(lines):
            want[i, 0, :, : line.resized_width] = oracle.prepare_text_line(
                inp, page, line.region, line.resized_width, rec_h
            )
            assert_same_bytes(
                prepare_text_line(inp, page, line.region, line.resized_width, rec_h), want[i, 0, :, : line.resized_width]
            )
        assert_same_bytes(prepare_text_line_batch(inp, lines, page, rec_h, width), want)
        n_lines += len(lines)
    assert n_lines > 1024


def _special(rng, shape) -> np.ndarray:
    x = rng.normal(size=shape).astype(np.float32)
    flat = x.reshape(-1)
    if flat.size >= 8:
        pos = rng.choice(flat.size, size=4, replace=False)
        flat[pos] = [-0.0, np.inf, -np.inf, np.nan]
    return x


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_resize_matches_oracle_on_seeded_shapes():
    """Shapes the engine uses and seeded ones, with -0.0, +-inf and nan
    planted in each input."""
    rng = np.random.default_rng(14)
    shapes = [
        ((1, 1, 100, 100), 100, 200),  # identity H, W up (detection mask)
        ((1, 1, 200, 200), 200, 100),  # identity H, W down (padded input)
        ((1, 1, 200, 100), 600, 800),  # tiled W pass
        ((1, 1, 600, 800), 200, 100),
        ((1, 1, 26, 110), 64, 250),  # a text line
        ((7, 9), 7, 20),
        ((7, 9), 15, 9),  # identity W
        ((1, 1), 5, 4),  # 1-px input
        ((6, 5), 1, 1),  # 1-px output
        ((5, 1), 3, 8),
        ((3, 2, 11, 13), 17, 6),  # 4-D batch
        ((2, 3, 40, 700), 90, 1500),  # 4-D, tiles straddle the batch
        ((0, 4, 5), 8, 3),  # empty batch
    ]
    for _ in range(40):
        h, w = rng.integers(1, 60, size=2)
        shapes.append(((int(h), int(w)), int(rng.integers(1, 90)), int(rng.integers(1, 90))))
    for shape, oh, ow in shapes:
        x = _special(rng, shape)
        assert_same_bytes(resize_bilinear(x, oh, ow), oracle.resize_bilinear(x, oh, ow))
    # Non-contiguous, read-only and non-float32 inputs.
    base = _special(rng, (30, 50))
    views = [base.T, base[::2, 3:40:3], base[:, ::-1], np.asfortranarray(base)]
    ro = base.copy()
    ro.flags.writeable = False
    views += [ro, base.astype(np.float64), (base * 0).astype(np.int16)]
    for v in views:
        for oh, ow in [(v.shape[0], 77), (13, v.shape[1]), (41, 9)]:
            assert_same_bytes(resize_bilinear(v, oh, ow), oracle.resize_bilinear(v, oh, ow))
    same = rng.normal(size=(4, 5)).astype(np.float32)
    assert resize_bilinear(same, 4, 5) is same


def test_resize_cache_is_read_only():
    for in_size, out_size in [(10, 10), (10, 25), (25, 10)]:
        for a in _axis_weights(in_size, out_size):
            assert not a.flags.writeable
    rng = np.random.default_rng(5)
    x = rng.normal(size=(1, 1, 30, 40)).astype(np.float32)
    for oh, ow in [(64, 90), (30, 80), (12, 40), (600, 800)]:
        first = resize_bilinear(x, oh, ow)
        want = first.tobytes()
        first[...] = 123.0
        assert resize_bilinear(x, oh, ow).tobytes() == want


def _line_words(rng, h, w) -> list[RotatedRect]:
    """Two to four word rects in a row, some hanging over the page edge."""
    y = rng.uniform(-15, h + 5)
    x = rng.uniform(-30, w * 0.6)
    words = []
    for _ in range(int(rng.integers(1, 4))):
        ww, hh = rng.uniform(8, 60), rng.uniform(6, 40)
        words.append(RotatedRect(Point(x + ww / 2, y + hh / 2), (0.0, -1.0), ww, hh))
        x += ww + rng.uniform(3, 20)
    return words


def test_line_prep_matches_oracle_at_page_edges():
    rng = np.random.default_rng(21)
    for _ in range(150):
        h, w = int(rng.integers(20, 120)), int(rng.integers(30, 200))
        image = rng.uniform(-0.5, 0.5, size=(1, h, w)).astype(np.float32)
        region = line_polygon(_line_words(rng, h, w))
        out_h, width = int(rng.integers(8, 70)), int(rng.integers(10, 300))
        for page in (Rect.from_hw(h, w), Rect(5, 7, h - 3, w - 11)):
            assert_same_bytes(
                prepare_text_line(image, page, region, width, out_h),
                oracle.prepare_text_line(image, page, region, width, out_h),
            )
    # Random (often self-intersecting) polygons and degenerate ones.
    image = rng.uniform(-0.5, 0.5, size=(1, 40, 60)).astype(np.float32)
    page = Rect.from_hw(40, 60)
    polys = [rng.integers(-20, 80, size=(int(rng.integers(3, 9)), 2)) for _ in range(200)]
    polys += [np.array([[3, 4], [9, 4], [12, 4]]), np.array([[2, 2], [8, 2], [8, 2], [2, 2]])]
    for poly in polys:
        assert_same_fill(poly)
    for poly in (np.zeros((0, 2), dtype=np.int64), np.array([[1, 1], [5, 5]])):
        assert_same_fill(poly)
    # Many polygons in one call (degenerate ones among them): each
    # one's runs, in order.
    many = [np.array([[1, 1], [5, 5]])] + polys[:50] + [np.zeros((0, 2), dtype=np.int64)] + polys[50:]
    idx, ys, x0, x1 = polygons_fill_rows(many)
    runs = list(zip(idx.tolist(), ys.tolist(), x0.tolist(), x1.tolist()))
    assert runs == [(i, *run) for i, poly in enumerate(many) for run in oracle.polygon_fill_rows(poly)]
    # Batches of three lines share one fill-and-copy pass.
    for i in range(0, len(polys) - 2, 3):
        lines = [TextRecLine(k, poly, int(rng.integers(10, 40))) for k, poly in enumerate(polys[i : i + 3])]
        want = np.full((3, 1, 16, 40), np.float32(BLACK_VALUE), dtype=np.float32)
        for k, line in enumerate(lines):
            want[k, 0, :, : line.resized_width] = oracle.prepare_text_line(
                image, page, line.region, line.resized_width, 16
            )
        assert_same_bytes(prepare_text_line_batch(image, lines, page, 16, 40), want)


# -- PNG: every filter type, every byte distance, both layouts ------------

def _png(w, h, depth, ctype, interlace, idat_raw, palette=None):
    def chunk(tag, body):
        return struct.pack(">I", len(body)) + tag + body + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF)

    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, depth, ctype, 0, 0, interlace))
        + (chunk(b"PLTE", palette) if palette is not None else b"")
        + chunk(b"IDAT", zlib.compress(idat_raw))
        + chunk(b"IEND", b"")
    )


def _filtered_rows(rng, h, rowbytes, cycle_from) -> bytes:
    """Random scanline bytes (every byte string is valid filtered data)
    with filter bytes cycling 0-4."""
    rows = rng.integers(0, 256, size=(h, 1 + rowbytes), dtype=np.uint8)
    rows[:, 0] = (np.arange(h) + cycle_from) % 5
    return rows.tobytes()


def _mixed_filter_png(rng, w, h, depth, ctype, interlace) -> bytes:
    c = png._CHANNELS[ctype]
    if interlace == 0:
        raw = _filtered_rows(rng, h, (w * c * depth + 7) // 8, int(rng.integers(5)))
    else:
        parts = []
        for x0, y0, dx, dy in png._ADAM7:
            pw, ph = (w - x0 + dx - 1) // dx, (h - y0 + dy - 1) // dy
            if pw > 0 and ph > 0:
                parts.append(_filtered_rows(rng, ph, (pw * c * depth + 7) // 8, int(rng.integers(5))))
        raw = b"".join(parts)
    palette = rng.integers(0, 256, size=3 << depth, dtype=np.uint8).tobytes() if ctype == 3 else None
    return _png(w, h, depth, ctype, interlace, raw, palette)


# (depth, color type) per filter byte distance: bpp 1, 2, 3, 4, 6, 8,
# sub-8-bit grey and palette, and 16-bit grey.
PNG_KINDS = [
    (8, 0), (8, 4), (16, 0), (8, 2), (8, 6), (16, 4), (16, 2), (16, 6),
    (1, 0), (2, 0), (4, 0), (2, 3), (4, 3), (8, 3),
]


@pytest.mark.parametrize("interlace", [0, 1])
def test_png_decode_matches_oracle_on_mixed_filters(interlace, monkeypatch):
    rng = np.random.default_rng(40 + interlace)
    for depth, ctype in PNG_KINDS:
        for w, h in [(1, 1), (13, 9), (31, 17), (3, 40)]:
            data = _mixed_filter_png(rng, w, h, depth, ctype, interlace)
            assert_same_bytes(png.decode_png(data), decode_with_oracle(data, monkeypatch))


def test_unfilter_matches_oracle_on_random_rows():
    rng = np.random.default_rng(9)
    for i in range(400):
        h, bpp, npix = int(rng.integers(1, 14)), int(rng.choice([1, 2, 3, 4, 6, 8])), int(rng.integers(0, 12))
        stride = npix * bpp
        ftypes = rng.integers(0, 5, size=h) if i % 4 else np.full(h, rng.integers(0, 5))
        data = rng.integers(0, 256, size=(h, 1 + stride), dtype=np.uint8)
        data[:, 0] = ftypes
        data = data.reshape(-1)
        assert_same_bytes(png._unfilter(data, h, stride, bpp), oracle.unfilter(data, h, stride, bpp))
