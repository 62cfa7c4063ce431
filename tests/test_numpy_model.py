"""Real-model seam: checkpoint-backed NumpyModel loaded from disk in
actor __init__, resolve/cache semantics, and kernel numerics."""

from __future__ import annotations

import numpy as np
import pytest


def _naive_conv2d(x, w, b, stride, pad):
    n, c, h, ww = x.shape
    oc, ic, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (xp.shape[2] - kh) // stride + 1
    ow = (xp.shape[3] - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow), dtype=np.float64)
    for ni in range(n):
        for oi in range(oc):
            for yi in range(oh):
                for xi in range(ow):
                    patch = xp[ni, :, yi * stride : yi * stride + kh, xi * stride : xi * stride + kw]
                    out[ni, oi, yi, xi] = (patch * w[oi]).sum() + (b[oi] if b is not None else 0.0)
    return out


def test_conv2d_matches_naive():
    from ocrs_ray.models.numpy_backend import _conv2d

    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 7, 6)).astype(np.float32)
    w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    got = _conv2d(x, w, b, stride=2, pad=1)
    want = _naive_conv2d(x, w, b, stride=2, pad=1)
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)


def _write_fake_equivalent_checkpoints(tmp_path):
    """Checkpoints whose numpy-op programs reproduce the fake models'
    math exactly, so golden outputs transfer to the load-from-disk
    path."""
    from ocrs_ray.models.numpy_backend import save_checkpoint

    det = save_checkpoint(
        str(tmp_path / "det.npz"),
        [["sym", "batch"], ["fixed", 1], ["fixed", 200], ["fixed", 100]],
        [{"op": "add", "value": 0.5}],
        {},
    )
    rec = save_checkpoint(
        str(tmp_path / "rec.npz"),
        [["sym", "batch"], ["fixed", 1], ["fixed", 64], ["sym", "seq"]],
        [
            {"op": "maxpool_w", "k": 4},
            {"op": "squeeze", "axis": 1},
            {"op": "permute", "axes": [2, 0, 1]},
        ],
        {},
    )
    return det, rec


def test_checkpoint_roundtrip_matches_fakes(tmp_path):
    from ocrs_ray.models import FakeDetectionModel, FakeRecognitionModel, NumpyModel

    det_path, rec_path = _write_fake_equivalent_checkpoints(tmp_path)
    det = NumpyModel.load_file(det_path)
    rec = NumpyModel.load_file(rec_path)
    assert [d.size for d in det.input_shape()] == [None, 1, 200, 100]

    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, 1, 200, 100)).astype(np.float32) * 0.5
    np.testing.assert_allclose(det.run(x), FakeDetectionModel().run(x), rtol=1e-6)
    y = rng.normal(size=(2, 1, 64, 48)).astype(np.float32)
    np.testing.assert_allclose(rec.run(y), FakeRecognitionModel().run(y), rtol=1e-6)


def test_engine_with_checkpoint_models(tmp_path):
    """The engine produces identical text through the load-from-disk
    models as through the in-memory fakes."""
    from ocrs_ray.engine import OcrEngine, OcrEngineParams
    from ocrs_ray.models import NumpyModel, make_fake_alphabet

    det_path, rec_path = _write_fake_equivalent_checkpoints(tmp_path)
    engine = OcrEngine(
        OcrEngineParams(
            detection_model=NumpyModel.load_file(det_path),
            recognition_model=NumpyModel.load_file(rec_path),
            alphabet=make_fake_alphabet(),
        )
    )
    img = np.zeros((100, 200, 1), dtype=np.uint8)
    img[30:50, 0:50] = 255
    from ocrs_ray.corpus import make_engine

    want = make_engine().get_text(make_engine().prepare_input(img, order="hwc"))
    got = engine.get_text(engine.prepare_input(img, order="hwc"))
    assert got == want and got != ""


def test_conv_model_checkpoint(tmp_path):
    """A conv+sigmoid program exercises the weight-carrying path."""
    from ocrs_ray.models.numpy_backend import NumpyModel, save_checkpoint

    rng = np.random.default_rng(11)
    w = rng.normal(size=(1, 1, 3, 3)).astype(np.float32)
    b = np.array([0.1], dtype=np.float32)
    path = save_checkpoint(
        str(tmp_path / "conv.npz"),
        [["sym", "batch"], ["fixed", 1], ["fixed", 16], ["fixed", 16]],
        [{"op": "conv2d", "w": "w0", "b": "b0", "stride": 1, "pad": 1}, {"op": "sigmoid"}],
        {"w0": w, "b0": b},
    )
    m = NumpyModel.load_file(path)
    x = rng.normal(size=(1, 1, 16, 16)).astype(np.float32)
    want = 1.0 / (1.0 + np.exp(-_naive_conv2d(x, w, b, 1, 1)))
    np.testing.assert_allclose(m.run(x), want, rtol=1e-4, atol=1e-5)
    out = m.run(x)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_resolve_model_local_and_cache(tmp_path):
    from ocrs_ray.models import resolve_model

    local = tmp_path / "m.npz"
    local.write_bytes(b"x")
    assert resolve_model(str(local)) == str(local)
    with pytest.raises(FileNotFoundError):
        resolve_model(str(tmp_path / "missing.npz"))

    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "text-detection.npz").write_bytes(b"cached")
    got = resolve_model(
        "https://example.invalid/models/text-detection.npz", cache_dir=str(cache)
    )
    assert got == str(cache / "text-detection.npz")  # cache hit, no network
    with pytest.raises(RuntimeError, match="download failed"):
        resolve_model(
            "https://example.invalid/models/absent.npz", cache_dir=str(cache)
        )


def test_pipeline_actor_loads_checkpoint(ray_session, tmp_path):
    """Seam proof end-to-end: actor __init__ loads model weights from
    checkpoint files on disk (mirroring models.rs:100-107) and the
    pipeline output matches the golden expected_flat exactly."""
    import pyarrow.parquet as pq

    from ocrs_ray.corpus import ensure_corpus
    from ocrs_ray.engine import OcrEngine, OcrEngineParams
    from ocrs_ray.models import NumpyModel, make_fake_alphabet
    from ocrs_ray.pipeline import (
        OcrPipelineConfig,
        build_ocr_pipeline,
        explode_spans,
        load_media_store,
        read_spans_lance,
    )

    det_path, rec_path = _write_fake_equivalent_checkpoints(tmp_path)

    def factory():
        return OcrEngine(
            OcrEngineParams(
                detection_model=NumpyModel.load_file(det_path),
                recognition_model=NumpyModel.load_file(rec_path),
                alphabet=make_fake_alphabet(),
            )
        )

    paths = ensure_corpus("/tmp/ocrs_npz_smoke", n_docs=30, n_templates=8)
    ds = read_spans_lance(paths["spans"])
    media = load_media_store(paths["media"])
    cfg = OcrPipelineConfig(
        ocr_concurrency=1, engine_factory=factory
    )
    flat = (
        build_ocr_pipeline(ds, media, cfg)
        .map_batches(explode_spans, batch_format="pyarrow")
        .to_pandas()
        .sort_values(["doc_id", "offset"])
        .reset_index(drop=True)
    )
    want = (
        pq.read_table(paths["expected_flat"])
        .to_pandas()
        .sort_values(["doc_id", "offset"])
        .reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(flat[want.columns.tolist()], want)
