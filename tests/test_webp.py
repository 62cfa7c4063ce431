"""VP8L (lossless WebP) codec tests. No independent WebP decoder
exists in this sandbox (no PIL/cv2, and the reference ships no .webp
fixture), so — like the JPEG codec — conformance is pinned by
spec-derived unit gates (bit layout, canonical code assignment, the
published prefix of the near-distance map), lossless round-trips over
every encoder-reachable path, and hand-built bitstreams for the two
decoder paths the encoder never emits (meta-prefix groups and mapped
near distances)."""

from __future__ import annotations

import numpy as np
import pytest

from ocrs_ray import webp as W


def _rt(img: np.ndarray, **kw) -> np.ndarray:
    blob = W.encode_webp_lossless(img, **kw)
    out = W.decode_webp(blob)
    exp = img if img.ndim == 3 else img[:, :, None]
    if exp.shape[2] == 1:
        exp = np.repeat(exp, 3, axis=2)
    assert out.shape == exp.shape
    assert np.array_equal(out, exp)
    return out


# ---------------------------------------------------------------------------
# bit I/O + canonical codes


def test_bitwriter_reader_roundtrip():
    bw = W.BitWriter()
    vals = [(5, 3), (0, 1), (1, 1), (1023, 14), (7, 4)]
    for v, n in vals:
        bw.write_bits(v, n)
    br = W.BitReader(bw.getvalue())
    assert [br.read_bits(n) for _v, n in vals] == [v for v, _n in vals]


def test_prefix_code_bits_are_msb_first():
    bw = W.BitWriter()
    bw.write_code(0b10, 2)  # emits 1 then 0
    br = W.BitReader(bw.getvalue())
    assert br.read_bit() == 1
    assert br.read_bit() == 0


def test_canonical_assignment_rfc1951():
    # lengths {a:2, b:1, c:3, d:3} -> b=0, a=10, c=110, d=111
    codes = W.canonical_codes([2, 1, 3, 3])
    assert codes == {1: (0b0, 1), 0: (0b10, 2), 2: (0b110, 3), 3: (0b111, 3)}


def test_prefix_decoder_rejects_incomplete_code():
    with pytest.raises(ValueError, match="Kraft"):
        W.PrefixDecoder([2, 2, 2, 0])  # sum 3/4


def test_complete_lengths_kraft_exact():
    for k in range(2, 40):
        lens = W._complete_lengths(list(range(k)))
        assert sum(2.0 ** -l for l in lens.values()) == 1.0


# ---------------------------------------------------------------------------
# LZ77 prefix value coding + distance map


def test_prefix_value_coding_is_bijective():
    for v in list(range(1, 300)) + [1000, 4096]:
        code, extra, eb = W._prefix_encode(v)
        lo, eb2 = W._PREFIX_TABLE[code]
        assert eb == eb2 and lo + extra == v


def test_distance_map_matches_published_prefix():
    # First 22 entries of the spec's table (decoded from libwebp's
    # (dy<<4)|(8-dx) packing: 0x18 0x07 0x17 0x19 0x28 0x06 ...).
    expected = [
        (0, 1), (1, 0), (1, 1), (-1, 1), (0, 2), (2, 0), (1, 2), (-1, 2),
        (2, 1), (-2, 1), (2, 2), (-2, 2), (0, 3), (3, 0), (1, 3), (-1, 3),
        (3, 1), (-3, 1), (2, 3), (-2, 3), (3, 2), (-3, 2),
    ]
    assert W.DISTANCE_MAP[: len(expected)] == expected
    assert len(W.DISTANCE_MAP) == 120
    # packable in libwebp's nibble scheme: dx in [-7, 8], dy in [0, 15]
    assert all(-7 <= dx <= 8 and 0 <= dy <= 15 for dx, dy in W.DISTANCE_MAP)


def test_cache_key_spec_multiplier():
    assert W._cache_key(0, 4) == 0
    k = W._cache_key(0xFF112233, 6)
    assert 0 <= k < 64
    assert k == ((0x1E35A7BD * 0xFF112233) & 0xFFFFFFFF) >> 26


# ---------------------------------------------------------------------------
# round-trips over every encoder-reachable decoder path


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(20260818)


def test_roundtrip_plain_rgb_rgba_grey(rng):
    _rt(rng.integers(0, 256, (13, 17, 3), dtype=np.uint8))
    _rt(rng.integers(0, 256, (9, 11, 4), dtype=np.uint8))
    _rt(rng.integers(0, 256, (8, 5, 1), dtype=np.uint8))
    _rt(rng.integers(0, 256, (1, 1, 3), dtype=np.uint8))  # 1x1 edge


def test_roundtrip_all_14_predictor_modes(rng):
    img = rng.integers(0, 256, (12, 19, 3), dtype=np.uint8)
    for mode in range(14):
        _rt(img, predictor=mode)


def test_predictor13_truncates_toward_zero():
    # ClampAddSubtractHalf: a + (a-b)/2 with C division (truncate
    # toward zero). a=Average2(L,T)=10, b=TL=13 -> 10 + trunc(-3/2)
    # = 9; numpy floor division would give 8.
    from ocrs_ray.webp import _predict

    L = np.array([10, 10, 10, 10], dtype=np.uint8)
    T = np.array([10, 10, 10, 10], dtype=np.uint8)
    TL = np.array([13, 13, 13, 13], dtype=np.uint8)
    TR = np.zeros(4, dtype=np.uint8)
    assert _predict(13, L, T, TL, TR).tolist() == [9, 9, 9, 9]
    # Positive diff unchanged: a=20, b=13 -> 20 + 3 = 23.
    L2 = T2 = np.full(4, 20, dtype=np.uint8)
    assert _predict(13, L2, T2, TL, TR).tolist() == [23, 23, 23, 23]


def test_roundtrip_transform_combinations(rng):
    img = rng.integers(0, 256, (10, 14, 3), dtype=np.uint8)
    _rt(img, subtract_green=True)
    _rt(img, subtract_green=True, predictor=11)
    _rt(img, color_transform=(23, -11, 5))
    _rt(img, subtract_green=True, color_transform=(-3, 7, -128), predictor=2)


def test_roundtrip_palette_all_packings(rng):
    base = rng.integers(0, 2, (7, 30, 3), dtype=np.uint8) * 255
    _rt(base, palette=True)  # 2 colors -> 8 px/byte
    _rt(rng.integers(0, 3, (10, 21, 3), dtype=np.uint8) * 90, palette=True)
    _rt(rng.integers(0, 13, (9, 9, 3), dtype=np.uint8) * 19, palette=True)
    _rt(rng.integers(0, 200, (6, 40, 1), dtype=np.uint8), palette=True)  # unpacked


def test_roundtrip_cache_and_lz77(rng):
    img = np.repeat(
        np.repeat(rng.integers(0, 4, (4, 4, 3), dtype=np.uint8) * 80, 8, axis=0),
        8,
        axis=1,
    )
    _rt(img, use_lz77=True)
    _rt(img, cache_bits=4)
    _rt(img, use_lz77=True, cache_bits=6)
    _rt(img, use_lz77=True, cache_bits=2, subtract_green=True, predictor=1)


def test_alpha_plane_preserved(rng):
    img = rng.integers(0, 256, (6, 6, 4), dtype=np.uint8)
    img[:, :, 3] = 255
    assert _rt(img[:, :, :3]).shape[2] == 3  # constant alpha -> RGB out
    img[0, 0, 3] = 7
    assert _rt(img).shape[2] == 4


# ---------------------------------------------------------------------------
# hand-built streams: decoder paths the encoder never emits


def _stream_header(bw, w, h):
    bw.write_bits(w - 1, 14)
    bw.write_bits(h - 1, 14)
    bw.write_bits(0, 1)  # alpha hint
    bw.write_bits(0, 3)  # version


def test_decode_mapped_near_distance():
    # 4x2: row 0 = four literals, row 1 = copy of length 4 at
    # dist_code 1 -> (0, 1) -> distance = width = 4.
    w, h = 4, 2
    row = [(255, 10, 20, 30), (255, 11, 21, 31), (255, 12, 22, 32), (255, 13, 23, 33)]
    bw = W.BitWriter()
    _stream_header(bw, w, h)
    bw.write_bits(0, 1)  # no transforms
    bw.write_bits(0, 1)  # no cache
    bw.write_bits(0, 1)  # no meta
    len_code, len_extra, len_eb = W._prefix_encode(4)
    G = W._Code({g for _a, _r, g, _b in row} | {256 + len_code}, 280)
    R = W._Code({r for _a, r, _g, _b in row}, 256)
    B = W._Code({b for _a, _r, _g, b in row}, 256)
    A = W._Code({255}, 256)
    D = W._Code({0}, 40)  # dist prefix code 0 -> value 1 -> map (0,1)
    for c in (G, R, B, A, D):
        c.write_def(bw)
    for a, r, g, b in row:
        G.write_sym(bw, g)
        R.write_sym(bw, r)
        B.write_sym(bw, b)
        A.write_sym(bw, a)
    G.write_sym(bw, 256 + len_code)
    if len_eb:
        bw.write_bits(len_extra, len_eb)
    D.write_sym(bw, 0)
    out = W.decode_vp8l(b"\x2f" + bw.getvalue())
    assert out.shape == (2, 4, 3)
    assert np.array_equal(out[1], out[0])
    assert list(out[0, 2]) == [12, 22, 32]


def test_decode_meta_prefix_groups():
    # 8x1 image, huffman_bits=2 -> two 4px groups with different
    # single-symbol codes; decoded pixels must switch at x=4.
    w, h = 8, 1
    bw = W.BitWriter()
    _stream_header(bw, w, h)
    bw.write_bits(0, 1)  # no transforms
    bw.write_bits(0, 1)  # no cache
    bw.write_bits(1, 1)  # meta present
    bw.write_bits(0, 3)  # huffman_bits = 2
    # meta image: 2x1 entropy image, pixels (r<<8)|g = group 0, 1
    meta_px = np.array([0xFF000000, 0xFF000100], dtype=np.uint32)
    W._write_entropy_coded(bw, meta_px, level0=False, cache_bits=0, use_lz77=False)
    for green in (10, 200):  # one group per distinct literal
        for chan_val, alphabet in ((green, 280), (1, 256), (2, 256), (255, 256)):
            W._Code({chan_val}, alphabet).write_def(bw)
        W._Code({0}, 40).write_def(bw)
    # all-simple single-symbol codes: the 8 pixels cost zero bits
    out = W.decode_vp8l(b"\x2f" + bw.getvalue())
    assert out.shape == (1, 8, 3)
    assert list(out[0, 0]) == [1, 10, 2]
    assert list(out[0, 3]) == [1, 10, 2]
    assert list(out[0, 4]) == [1, 200, 2]
    assert list(out[0, 7]) == [1, 200, 2]


# ---------------------------------------------------------------------------
# container gating


def test_container_rejects_non_webp():
    with pytest.raises(ValueError, match="RIFF/WEBP"):
        W.decode_webp(b"\x89PNG\r\n\x1a\n" + b"\x00" * 16)


def test_lossy_vp8_now_decodes(rng):
    # Round 4: lossy VP8 keyframes decode for real (ocrs_ray.vp8);
    # the container routes them instead of raising.
    from ocrs_ray.vp8 import encode_webp_lossy

    img = rng.integers(0, 256, (24, 40, 3), dtype=np.uint8)
    out = W.decode_webp(encode_webp_lossy(img, q_index=4))
    assert out.shape == img.shape
    assert np.abs(out.astype(int) - img.astype(int)).mean() < 48  # lossy


def test_lossy_vp8_inter_frame_honestly_gated(rng):
    from ocrs_ray.vp8 import encode_webp_lossy

    img = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
    blob = bytearray(encode_webp_lossy(img))
    blob[20] |= 1  # flip the frame tag's keyframe bit -> inter frame
    with pytest.raises(NotImplementedError, match="inter frames"):
        W.decode_webp(bytes(blob))


def test_decode_media_routes_webp(rng):
    from ocrs_ray.pipeline import decode_media

    img = rng.integers(0, 256, (5, 7, 3), dtype=np.uint8)
    blob = W.encode_webp_lossless(img, subtract_green=True)
    out = decode_media((blob, 5, 7, 3, "webp"))
    assert np.array_equal(out, img)


def test_webp_media_ocr_equivalence():
    """Flagship-seam smoke: a lossless-webp payload flows through
    decode_media and the OCR engine bit-identically to its raw8 twin
    (VP8L is lossless, so unlike the JPEG twin test this is exact)."""
    from ocrs_ray.corpus import make_engine
    from ocrs_ray.pipeline import decode_media

    img = np.zeros((100, 200, 1), dtype=np.uint8)
    img[30:50, 0:50] = 255
    payload = W.encode_webp_lossless(img, predictor=2, use_lz77=True)
    a = decode_media((payload, 100, 200, 3, "webp"))
    b = decode_media((img.tobytes(), 100, 200, 1, "raw8-hwc"))
    assert np.array_equal(a, np.repeat(b, 3, axis=2))
    eng = make_engine()
    assert eng.get_text(eng.prepare_input(a, order="hwc")) == eng.get_text(
        eng.prepare_input(b, order="hwc")
    )


# ---------------------------------------------------------------------------
# property: any image x any option combo round-trips losslessly


def test_roundtrip_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=40, deadline=None)
    @given(
        h=st.integers(1, 24),
        w=st.integers(1, 24),
        c=st.sampled_from([1, 3, 4]),
        seed=st.integers(0, 2**31 - 1),
        sg=st.booleans(),
        pred=st.one_of(st.none(), st.integers(0, 13)),
        cache=st.sampled_from([0, 1, 4, 8]),
        lz=st.booleans(),
    )
    def check(h, w, c, seed, sg, pred, cache, lz):
        img = np.random.default_rng(seed).integers(
            0, 256, (h, w, c), dtype=np.uint8
        )
        out = W.decode_webp(
            W.encode_webp_lossless(
                img,
                subtract_green=sg,
                predictor=pred,
                cache_bits=cache,
                use_lz77=lz,
            )
        )
        exp = np.repeat(img, 3, axis=2) if c == 1 else img
        if c == 4 and bool(np.all(img[:, :, 3] == 255)):
            exp = img[:, :, :3]
        assert np.array_equal(out, exp)

    check()


def test_flagship_pipeline_on_lossy_webp_media(ray_session):
    """Lossy-WebP payloads flow through the FULL distributed pipeline:
    with the corpus media store re-encoded as VP8 keyframes, every
    OCR'd media span must equal the single-process engine golden
    computed from the SAME decoded pixels (VP8 is lossy, so like the
    JPEG twin the golden is recomputed from the decoded payload — the
    test pins the distributed plumbing over the new codec)."""
    import numpy as np

    from ocrs_ray.corpus import ensure_corpus, make_engine
    from ocrs_ray.pipeline import (
        OcrPipelineConfig,
        build_ocr_pipeline,
        load_media_store,
        read_spans,
    )
    from ocrs_ray.vp8 import encode_webp_lossy

    corpus = ensure_corpus(
        "/tmp/ocrs_ray_test_corpus/docs100", n_docs=100, n_templates=16
    )
    media = load_media_store(corpus["media"])
    engine = make_engine()
    webp_media = {}
    golden = {}
    for ref, (blob, h, w, c, fmt) in media.items():
        assert fmt == "raw8-hwc"
        img = np.frombuffer(blob, dtype=np.uint8).reshape(h, w, c)
        payload = encode_webp_lossy(img, q_index=4)
        webp_media[ref] = (payload, h, w, c, "webp")
        decoded = W.decode_webp(payload)
        golden[ref] = engine.get_text(
            engine.prepare_input(decoded, order="hwc")
        )

    cfg = OcrPipelineConfig(ocr_concurrency=2)
    out = build_ocr_pipeline(
        read_spans(corpus["spans"]), webp_media, cfg
    ).to_pandas()

    n_media = 0
    for _, r in out.iterrows():
        for s in r["spans"]:
            if s["kind"] == "media":
                assert s["text"] == golden[s["media_ref"]], s["media_ref"]
                n_media += 1
    assert n_media > 50
