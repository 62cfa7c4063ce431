"""Pure-numpy JPEG codec tests (no Ray needed for the kernel tests).

The reference decodes JPEG via the `image` crate
(/root/reference/ocrs-cli/src/main.rs:312-323); with no native decoder
in this sandbox the codec is pinned by (a) encode->decode error bounds
on smooth, noisy, odd-sized and grayscale images, (b) decoding the
reference repo's OWN example image (rust-book.jpg, a 1600x1200
PROGRESSIVE JPEG — the mode real-world files actually use) with stable
output, and (c) clean NotImplementedError gates for the unsupported
modes.
"""

from __future__ import annotations

import base64
import hashlib

import numpy as np
import pytest

from ocrs_ray.jpeg import decode_jpeg, encode_jpeg

RUST_BOOK = "/root/reference/ocrs/examples/rust-book.jpg"


def _gradient_rgb(h=64, w=96):
    y, x = np.mgrid[0:h, 0:w]
    return np.stack(
        [
            (x * 255 / (w - 1)).astype(np.uint8),
            (y * 255 / (h - 1)).astype(np.uint8),
            ((x + y) * 255 / (h + w - 2)).astype(np.uint8),
        ],
        axis=2,
    )


def test_roundtrip_smooth_rgb_tight():
    img = _gradient_rgb()
    out = decode_jpeg(encode_jpeg(img, quality=90))
    assert out.shape == img.shape
    err = np.abs(out.astype(int) - img.astype(int))
    assert err.max() <= 4
    assert err.mean() < 1.0


def test_roundtrip_subsampled_modes():
    # 4:2:0 / 4:2:2 encode pin the decoder's sampling-2 MCU paths
    # (multi-block MCUs, chroma upsampling, odd-size cropping).
    for ss, y_samp in [("420", 0x22), ("422", 0x21)]:
        for hw in [(16, 16), (15, 17), (33, 9), (64, 96)]:
            img = _gradient_rgb(*hw)
            out = decode_jpeg(encode_jpeg(img, quality=95, subsampling=ss))
            assert out.shape == img.shape
            err = np.abs(out.astype(int) - img.astype(int))
            # Chroma is genuinely sub-resolution: bound loosely here...
            assert err.mean() < 8.0
        # ...and tightly when chroma is FLAT (no subsampling loss) —
        # any block-order or upsample-alignment bug explodes this.
        y, x = np.mgrid[0:24, 0:40]
        g = (x * 255 / 39).astype(np.uint8)
        flat = np.stack([g, g, g], axis=2)
        out = decode_jpeg(encode_jpeg(flat, quality=95, subsampling=ss))
        assert np.abs(out.astype(int) - flat.astype(int)).max() <= 1
        data = encode_jpeg(flat, quality=95, subsampling=ss)
        sof = data.index(b"\xff\xc0")
        assert (data[sof + 11], data[sof + 14], data[sof + 17]) == (
            y_samp,
            0x11,
            0x11,
        )


def test_fill_bytes_before_markers_are_skipped():
    # ISO 10918-1 B.1.1.2: any marker may be preceded by 0xFF fill
    # bytes. Insert one before the first DQT and decode identically.
    img = _gradient_rgb(16, 24)
    data = encode_jpeg(img, quality=90)
    dqt = data.index(b"\xff\xdb")
    padded = data[:dqt] + b"\xff" + data[dqt:]
    np.testing.assert_array_equal(decode_jpeg(padded), decode_jpeg(data))
    # Fill bytes before EOI (i.e. right after the scan data) too.
    eoi = data.rindex(b"\xff\xd9")
    padded2 = data[:eoi] + b"\xff\xff" + data[eoi:]
    np.testing.assert_array_equal(decode_jpeg(padded2), decode_jpeg(data))


def test_roundtrip_grey_and_channel_one():
    g = _gradient_rgb()[:, :, 0]
    out = decode_jpeg(encode_jpeg(g, quality=95))
    assert out.shape == (*g.shape, 1)
    assert np.abs(out[:, :, 0].astype(int) - g.astype(int)).max() <= 2
    # (H, W, 1) input is accepted and equivalent.
    out2 = decode_jpeg(encode_jpeg(g[:, :, None], quality=95))
    np.testing.assert_array_equal(out, out2)


def test_roundtrip_noise_psnr_bound():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (40, 56, 3)).astype(np.uint8)
    out = decode_jpeg(encode_jpeg(img, quality=95))
    mse = np.mean((out.astype(float) - img.astype(float)) ** 2)
    psnr = 10 * np.log10(255**2 / mse)
    assert psnr > 28, psnr  # noise is JPEG's worst case; q95 holds ~30+


def test_roundtrip_odd_sizes_and_q100():
    rng = np.random.default_rng(5)
    for shape in [(13, 17), (8, 8), (1, 1), (9, 24, 3)]:
        img = rng.integers(0, 256, shape).astype(np.uint8)
        out = decode_jpeg(encode_jpeg(img, quality=100))
        want_c = 1 if len(shape) == 2 else shape[2]
        assert out.shape == (shape[0], shape[1], want_c)
        # q100 quant table is all-ones for most entries: near-lossless.
        ref = img if len(shape) == 3 else img[:, :, None]
        assert np.abs(out.astype(int) - ref.astype(int)).max() <= 3


def test_determinism():
    img = _gradient_rgb(32, 32)
    a = encode_jpeg(img, quality=80)
    b = encode_jpeg(img, quality=80)
    assert a == b
    np.testing.assert_array_equal(decode_jpeg(a), decode_jpeg(b))


def test_decodes_reference_progressive_fixture():
    """The reference repo's own example image: 1600x1200 PROGRESSIVE
    (SOF2) with 10 scans including DC/AC successive approximation —
    decode must succeed, match the header dimensions, look like a
    natural photo (non-degenerate intensity spread), and be
    bit-deterministic run to run."""
    data = open(RUST_BOOK, "rb").read()
    img = decode_jpeg(data)
    assert img.shape == (1600, 1200, 3)
    assert img.dtype == np.uint8
    assert 80 < img.mean() < 200      # photo, not garbage/black/white
    assert img.std() > 30             # real structure, not a flat field
    digest = hashlib.md5(img.tobytes()).hexdigest()
    assert digest == hashlib.md5(decode_jpeg(data).tobytes()).hexdigest()
    # Re-encoding our decode and decoding again must stay close to the
    # first decode (internal encoder/decoder consistency on real data).
    crop = img[:160, :120]
    again = decode_jpeg(encode_jpeg(crop, quality=95))
    mse = np.mean((again.astype(float) - crop.astype(float)) ** 2)
    assert 10 * np.log10(255**2 / mse) > 30


def test_unsupported_modes_raise_cleanly():
    img = _gradient_rgb(16, 16)
    data = bytearray(encode_jpeg(img, quality=90))
    sof = data.find(b"\xff\xc0")
    # 12-bit precision
    bad = bytearray(data)
    bad[sof + 4] = 12
    with pytest.raises(NotImplementedError):
        decode_jpeg(bytes(bad))
    # Arithmetic-coded SOF9
    bad = bytearray(data)
    bad[sof + 1] = 0xC9
    with pytest.raises(NotImplementedError):
        decode_jpeg(bytes(bad))
    with pytest.raises(ValueError):
        decode_jpeg(b"not a jpeg")


def test_flagship_pipeline_on_jpeg_media(ray_session):
    """JPEG payloads flow through the FULL distributed pipeline: with
    the corpus media store re-encoded as q100 JPEG, every OCR'd media
    span must equal the single-process engine golden computed from the
    SAME decoded-JPEG pixels, and text spans pass through untouched.
    (JPEG is lossy and the fake models are pixel-sensitive, so the
    golden is recomputed from the decoded payload — the test pins the
    distributed plumbing, not codec invariance.)"""
    from ocrs_ray.corpus import ensure_corpus, make_engine
    from ocrs_ray.pipeline import (
        OcrPipelineConfig,
        build_ocr_pipeline,
        load_media_store,
        read_spans,
    )

    corpus = ensure_corpus("/tmp/ocrs_ray_test_corpus/docs100", n_docs=100, n_templates=16)
    media = load_media_store(corpus["media"])
    engine = make_engine()
    jpeg_media = {}
    golden = {}
    for ref, (blob, h, w, c, fmt) in media.items():
        assert fmt == "raw8-hwc"
        img = np.frombuffer(blob, dtype=np.uint8).reshape(h, w, c)
        payload = encode_jpeg(img, quality=100)
        jpeg_media[ref] = (payload, h, w, c, "jpeg")
        decoded = decode_jpeg(payload)
        golden[ref] = engine.get_text(engine.prepare_input(decoded, order="hwc"))

    cfg = OcrPipelineConfig(ocr_concurrency=2)
    out = build_ocr_pipeline(read_spans(corpus["spans"]), jpeg_media, cfg).to_pandas()

    n_media = 0
    for _, r in out.iterrows():
        for s in r["spans"]:
            if s["kind"] == "media":
                assert s["text"] == golden[s["media_ref"]], s["media_ref"]
                n_media += 1
    assert n_media > 50  # the corpus is media-rich; the path really ran


def test_decode_media_routes_jpeg(ray_session):
    """Flagship-seam smoke: a jpeg-format payload flows through
    decode_media and the OCR engine exactly like its raw8 twin (the
    fake-model engine is deterministic on identical pixels)."""
    from ocrs_ray.corpus import make_engine
    from ocrs_ray.pipeline import decode_media

    img = np.zeros((100, 200, 1), dtype=np.uint8)
    img[30:50, 0:50] = 255
    payload = encode_jpeg(img, quality=100)
    a = decode_media((payload, 100, 200, 1, "jpeg"))
    b = decode_media((img.tobytes(), 100, 200, 1, "raw8-hwc"))
    # q100 on a binary image: tiny ringing possible; threshold match.
    assert a.shape == b.shape
    assert (np.abs(a.astype(int) - b.astype(int)) <= 6).mean() > 0.999
    eng = make_engine()
    assert eng.get_text(eng.prepare_input(a, order="hwc")) == eng.get_text(
        eng.prepare_input(b, order="hwc")
    )


# ---------------------------------------------------------------------------
# real-world fixture: a libjpeg-encoded 16x16 logo from CPython's test
# suite (543 bytes, embedded for hermeticity). An independent real
# encoder's output must decode to the pinned pixels, and sit within a
# sane PSNR of the same logo's lossless PNG twin composited on black
# (test_png.py cross-validates that twin against system libpng).
FIXTURE_JPG = base64.b64decode(
    "/9j/4AAQSkZJRgABAQEAAQABAAD/2wBDAAMCAgICAgMCAgIDAwMDBAYEBAQEBAgGBgUG"
    "CQgKCgkICQkKDA8MCgsOCwkJDRENDg8QEBEQCgwSExIQEw8QEBD/2wBDAQMDAwQDBAgE"
    "BAgQCwkLEBAQEBAQEBAQEBAQEBAQEBAQEBAQEBAQEBAQEBAQEBAQEBAQEBAQEBAQEBAQ"
    "EBAQEBD/wAARCAAQABADASIAAhEBAxEB/8QAFgABAQEAAAAAAAAAAAAAAAAABwQF/8QA"
    "JBAAAQQBBAICAwAAAAAAAAAAAQIDBAYFBwgSExEiABQJMTL/xAAVAQEBAAAAAAAAAAAA"
    "AAAAAAAABv/EACMRAAECBQMFAAAAAAAAAAAAAAECEQMEBQYhABIxFRZhgeH/2gAMAwEA"
    "AhEDEQA/ABSm0mobc8HmExLUlRzzEWPkJWW+ulrsaUVAseUgslSlH9LKuPryIKuWPZds"
    "kzXmm3fX5m2nF4GlVxx/HOpx4ks51+MiU/Iaad7UcUo4tILoS4kqcWkezS0hO/HvuRp0"
    "rO6hWnWO1UisZVuFi4GFeyEpmGepa5S5SWVPuciFKRFLgSrwetnyPIB+Vb4N9mKhQMzo"
    "5po9XLdDs9d6ZVix2VEhiL9kuNPxw2gEKcDQ/rs8AuA8VAe0vdl7VOYn+27flGAUgmIT"
    "jbhSmCg3BYlyeWDkMolvw4KOp1KM6iCNvngZHwetf//Z"
)


def test_real_libjpeg_fixture_decodes_pinned():
    import hashlib

    img = decode_jpeg(FIXTURE_JPG)
    assert img.shape == (16, 16, 3)
    assert (
        hashlib.md5(img.tobytes()).hexdigest()
        == "dbb5d9878836c7edc21cfc2ce6115416"
    )


def test_real_fixture_psnr_vs_png_twin():
    import glob

    from ocrs_ray.png import decode_png

    paths = sorted(glob.glob(
        "/root/.pyenv/versions/*/lib/python*/test/imghdrdata/python.png"
    ))
    if not paths:
        pytest.skip("png twin not on disk")
    png = decode_png(open(paths[0], "rb").read()).astype(np.float64)
    comp = png[:, :, :3] * (png[:, :, 3:4] / 255.0)  # composite on black
    img = decode_jpeg(FIXTURE_JPG).astype(np.float64)
    mse = np.mean((img - comp) ** 2)
    psnr = 10 * np.log10(255 * 255 / mse)
    assert psnr > 17.0, psnr  # 19.4 measured; sharp-edge 16x16 JPEG
