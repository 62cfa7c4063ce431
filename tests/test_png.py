"""Pure-numpy PNG codec: round trips, filter coverage, spec edges, and
the real-codec media path through the engine."""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from ocrs_ray.png import decode_png, encode_png


def test_roundtrip_grey_rgb_rgba():
    rng = np.random.default_rng(3)
    for c in (1, 2, 3, 4):
        img = rng.integers(0, 256, size=(13, 17, c), dtype=np.uint8)
        out = decode_png(encode_png(img))
        np.testing.assert_array_equal(out, img)


def test_roundtrip_2d_input():
    img = np.arange(64, dtype=np.uint8).reshape(8, 8)
    out = decode_png(encode_png(img))
    np.testing.assert_array_equal(out[:, :, 0], img)


def _encode_with_filters(img: np.ndarray, ftype: int) -> bytes:
    """Hand-roll an encoder applying one filter type to every row, so
    the decoder's unfilter paths are each exercised against the spec
    definition (RFC 2083 §6)."""
    h, w, c = img.shape
    bpp = c
    stride = w * c
    flat = img.reshape(h, stride).astype(np.int32)
    rows = []
    prev = np.zeros(stride, dtype=np.int32)
    for y in range(h):
        cur = flat[y]
        left = np.concatenate([np.zeros(bpp, dtype=np.int32), cur[:-bpp]]) if stride > bpp else np.zeros(stride, dtype=np.int32)
        ul = np.concatenate([np.zeros(bpp, dtype=np.int32), prev[:-bpp]]) if stride > bpp else np.zeros(stride, dtype=np.int32)
        if ftype == 0:
            enc = cur
        elif ftype == 1:
            enc = (cur - left) % 256
        elif ftype == 2:
            enc = (cur - prev) % 256
        elif ftype == 3:
            enc = (cur - ((left + prev) >> 1)) % 256
        else:  # Paeth
            p = left + prev - ul
            pa, pb, pc = np.abs(p - left), np.abs(p - prev), np.abs(p - ul)
            pred = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, prev, ul))
            enc = (cur - pred) % 256
        rows.append(bytes([ftype]) + enc.astype(np.uint8).tobytes())
        prev = cur

    chunk = _chunk
    color_type = {1: 0, 3: 2, 4: 6}[c]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(b"".join(rows)))
        + chunk(b"IEND", b"")
    )


@pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("c", [1, 3, 4])
def test_all_filters_decode(ftype, c):
    rng = np.random.default_rng(10 * ftype + c)
    img = rng.integers(0, 256, size=(9, 11, c), dtype=np.uint8)
    out = decode_png(_encode_with_filters(img, ftype))
    np.testing.assert_array_equal(out, img)


def test_palette_png():
    chunk = _chunk
    pal = np.array([[255, 0, 0], [0, 255, 0], [0, 0, 255]], dtype=np.uint8)
    idx = np.array([[0, 1, 2], [2, 1, 0]], dtype=np.uint8)
    ihdr = struct.pack(">IIBBBBB", 3, 2, 8, 3, 0, 0, 0)
    raw = b"".join(b"\x00" + row.tobytes() for row in idx)
    data = (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"PLTE", pal.tobytes())
        + chunk(b"IDAT", zlib.compress(raw))
        + chunk(b"IEND", b"")
    )
    out = decode_png(data)
    np.testing.assert_array_equal(out, pal[idx])


def test_rejects_bad_inputs():
    img = np.zeros((4, 4, 3), dtype=np.uint8)
    good = encode_png(img)
    with pytest.raises(ValueError, match="signature"):
        decode_png(b"JUNK" + good)
    corrupted = bytearray(good)
    corrupted[20] ^= 0xFF  # flip a byte inside IHDR -> CRC mismatch
    with pytest.raises(ValueError, match="CRC"):
        decode_png(bytes(corrupted))
    with pytest.raises(ValueError, match="uint8"):
        encode_png(img.astype(np.float32))


def test_rejects_bad_filter_type_and_truncated_scanlines():
    """A filter byte above 4 names its value and row; scanline data
    shorter than the header promises is a size mismatch."""
    rng = np.random.default_rng(12)
    rows = rng.integers(0, 256, size=(6, 1 + 5 * 3), dtype=np.uint8)
    rows[:, 0] = [0, 1, 4, 2, 3, 0]
    ihdr = struct.pack(">IIBBBBB", 5, 6, 8, 2, 0, 0, 0)
    decode_png(_png(ihdr, rows.tobytes()))  # valid as it stands
    for bad in (5, 255):
        broken = rows.copy()
        broken[3, 0] = bad
        broken[5, 0] = 7  # only the first bad row is reported
        with pytest.raises(ValueError, match=f"bad PNG filter type {bad} on row 3"):
            decode_png(_png(ihdr, broken.tobytes()))
    with pytest.raises(ValueError, match="PNG scanline data size mismatch"):
        decode_png(_png(ihdr, rows.tobytes()[:-1]))
    with pytest.raises(ValueError, match="PNG interlaced data size mismatch"):
        img = rng.integers(0, 256, size=(6, 5, 3), dtype=np.uint8)
        decode_png(_png(struct.pack(">IIBBBBB", 5, 6, 8, 2, 0, 0, 1), _adam7_idat(img)[:-1]))


def test_roundtrip_property():
    """Hypothesis: encode->decode is the identity for any u8 image
    shape/channel count the encoder accepts."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=24),
        st.sampled_from([1, 2, 3, 4]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def check(h, w, c, seed):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, size=(h, w, c), dtype=np.uint8)
        np.testing.assert_array_equal(decode_png(encode_png(img)), img)

    check()


def test_decode_media_png_through_engine():
    """A real PNG payload flows through decode_media and OCRs to the
    same text as its raw8 twin."""
    from ocrs_ray.corpus import make_engine
    from ocrs_ray.pipeline import decode_media

    img = np.zeros((100, 200, 1), dtype=np.uint8)
    img[30:50, 0:50] = 255
    png_payload = (encode_png(img), 100, 200, 1, "png")
    raw_payload = (img.tobytes(), 100, 200, 1, "raw8-hwc")
    a = decode_media(png_payload)
    b = decode_media(raw_payload)
    np.testing.assert_array_equal(a, b)
    eng = make_engine()
    assert eng.get_text(eng.prepare_input(a, order="hwc")) == eng.get_text(
        eng.prepare_input(b, order="hwc")
    )
    # webp now routes to the real VP8L codec; junk bytes are a
    # container error, not a format gate
    with pytest.raises(ValueError):
        decode_media((b"x" * 16, 1, 1, 1, "webp"))


def _chunk(tag, body):
    return struct.pack(">I", len(body)) + tag + body + struct.pack(
        ">I", zlib.crc32(tag + body) & 0xFFFFFFFF
    )


def _png(ihdr_body, idat_raw, extra=b""):
    return (
        b"\x89PNG\r\n\x1a\n"
        + _chunk(b"IHDR", ihdr_body)
        + extra
        + _chunk(b"IDAT", zlib.compress(idat_raw))
        + _chunk(b"IEND", b"")
    )


def test_16bit_depth_downsamples_high_byte():
    # 16-bit samples v*257 have high byte v -> decode equals v exactly.
    rng = np.random.default_rng(11)
    for c, ctype in [(1, 0), (3, 2), (4, 6)]:
        img8 = rng.integers(0, 256, size=(5, 7, c), dtype=np.uint8)
        u16 = (img8.astype(">u2") * 257).astype(">u2")
        raw = b"".join(b"\x00" + u16[y].tobytes() for y in range(5))
        data = _png(struct.pack(">IIBBBBB", 7, 5, 16, ctype, 0, 0, 0), raw)
        np.testing.assert_array_equal(decode_png(data), img8)


def test_sub8bit_grey_scales_to_full_range():
    # depth-1: 0/1 -> 0/255; depth-2: *85; depth-4: *17. 10 px wide so
    # rows end mid-byte (padding bits must be dropped).
    for depth, mult in [(1, 255), (2, 85), (4, 17)]:
        rng = np.random.default_rng(depth)
        vals = rng.integers(0, 1 << depth, size=(3, 10), dtype=np.uint8)
        rows = []
        for y in range(3):
            # the low `depth` bits of each value, MSB-first
            bits = (
                vals[y][:, None]
                >> np.arange(depth - 1, -1, -1, dtype=np.uint8)
            ) & 1
            packed = np.packbits(bits.reshape(-1).astype(np.uint8))
            rows.append(b"\x00" + packed.tobytes())
        data = _png(
            struct.pack(">IIBBBBB", 10, 3, depth, 0, 0, 0, 0), b"".join(rows)
        )
        out = decode_png(data)
        np.testing.assert_array_equal(out[:, :, 0], vals * mult)


def test_4bit_palette_indices_stay_raw():
    pal = np.array(
        [[255, 0, 0], [0, 255, 0], [0, 0, 255], [7, 8, 9]], dtype=np.uint8
    )
    idx = np.array([[0, 1, 2, 3, 1], [3, 2, 1, 0, 2]], dtype=np.uint8)
    rows = []
    for y in range(2):
        bits = (idx[y][:, None] >> np.arange(3, -1, -1, dtype=np.uint8)) & 1
        rows.append(b"\x00" + np.packbits(bits.reshape(-1)).tobytes())
    data = _png(
        struct.pack(">IIBBBBB", 5, 2, 4, 3, 0, 0, 0),
        b"".join(rows),
        extra=_chunk(b"PLTE", pal.tobytes()),
    )
    np.testing.assert_array_equal(decode_png(data), pal[idx])


def _adam7_idat(img: np.ndarray, depth: int = 8) -> bytes:
    """Test-side interlacer: slice the image into the 7 passes (the
    inverse of the decoder's scatter), filter-0 the first row of each
    pass and filter-2 (Up) the rest — so a decoder that fails to reset
    its prev-row state between passes mismatches."""
    from ocrs_ray.png import _ADAM7

    h, w, c = img.shape
    out = bytearray()
    for x0, y0, dx, dy in _ADAM7:
        sub = img[y0::dy, x0::dx]
        if sub.size == 0:
            continue
        ph, pw = sub.shape[:2]
        if depth == 16:
            flat = (sub.astype(">u2") * 257).reshape(ph, -1).view(np.uint8)
        else:
            flat = sub.reshape(ph, -1)
        prev = np.zeros(flat.shape[1], dtype=np.int32)
        for y in range(ph):
            cur = flat[y].astype(np.int32)
            if y == 0:
                out += b"\x00" + flat[y].tobytes()
            else:
                out += b"\x02" + ((cur - prev) % 256).astype(np.uint8).tobytes()
            prev = cur
    return bytes(out)


def test_adam7_interlaced_decode():
    rng = np.random.default_rng(77)
    for h, w in [(16, 16), (9, 7), (5, 3), (1, 1), (2, 10)]:
        img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        data = _png(
            struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 1), _adam7_idat(img)
        )
        np.testing.assert_array_equal(decode_png(data), img)


def test_adam7_16bit_grey():
    rng = np.random.default_rng(78)
    img = rng.integers(0, 256, size=(11, 13, 1), dtype=np.uint8)
    data = _png(
        struct.pack(">IIBBBBB", 13, 11, 16, 0, 0, 0, 1),
        _adam7_idat(img, depth=16),
    )
    np.testing.assert_array_equal(decode_png(data), img)


# ---------------------------------------------------------------------------
# system-libpng cross-validation (ctypes; skipped when absent)
# ---------------------------------------------------------------------------


def _libpng():
    import ctypes
    import ctypes.util

    for name in ("libpng16.so.16", "libpng16.so", "libpng.so",
                 ctypes.util.find_library("png16"),
                 ctypes.util.find_library("png")):
        if not name:
            continue
        try:
            return ctypes.CDLL(name)
        except OSError:
            continue
    return None


LIBPNG = _libpng()


@pytest.mark.skipif(LIBPNG is None, reason="system libpng not available")
def test_libpng_cross_validation():
    """Independent-implementation conformance: libpng's simplified
    read API (safe — errors return, no longjmp) must agree with our
    decoder on real-world PNGs, and must decode our encoder's output
    byte-for-byte. Same oracle pattern as the VP8 libwebp tests."""
    import ctypes

    class PngImage(ctypes.Structure):
        _fields_ = [
            ("opaque", ctypes.c_void_p), ("version", ctypes.c_uint32),
            ("width", ctypes.c_uint32), ("height", ctypes.c_uint32),
            ("format", ctypes.c_uint32), ("flags", ctypes.c_uint32),
            ("colormap_entries", ctypes.c_uint32),
            ("warning_or_error", ctypes.c_uint32),
            ("message", ctypes.c_char * 64),
        ]

    def libpng_rgba(data: bytes) -> np.ndarray:
        img = PngImage()
        img.version = 1  # PNG_IMAGE_VERSION
        assert LIBPNG.png_image_begin_read_from_memory(
            ctypes.byref(img), data, len(data)
        ), img.message
        img.format = 3  # PNG_FORMAT_RGBA
        buf = (ctypes.c_uint8 * (img.width * img.height * 4))()
        assert LIBPNG.png_image_finish_read(
            ctypes.byref(img), None, buf, 0, None
        ), img.message
        arr = np.ctypeslib.as_array(buf)
        return arr.reshape(img.height, img.width, 4).copy()

    def to_rgba(a: np.ndarray) -> np.ndarray:
        if a.shape[2] == 1:
            a = np.repeat(a, 3, axis=2)
        if a.shape[2] == 3:
            a = np.dstack([a, np.full(a.shape[:2], 255, np.uint8)])
        return a

    rng = np.random.default_rng(3)
    for shape in [(9, 13, 3), (16, 5, 4), (7, 7, 1), (1, 1, 3)]:
        img = rng.integers(0, 256, shape, dtype=np.uint8)
        blob = encode_png(img)
        # libpng decodes our encoder's stream to the same pixels...
        np.testing.assert_array_equal(libpng_rgba(blob), to_rgba(img))
        # ...and both decoders agree on it
        np.testing.assert_array_equal(to_rgba(decode_png(blob)), libpng_rgba(blob))
    # real-world fixture (CPython test suite), when present on disk
    import glob

    for p in sorted(glob.glob(
        "/root/.pyenv/versions/*/lib/python*/test/imghdrdata/python.png"
    ))[:1]:
        data = open(p, "rb").read()
        np.testing.assert_array_equal(
            to_rgba(decode_png(data)), libpng_rgba(data)
        )
