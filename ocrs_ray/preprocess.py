"""Image validation + greyscale normalization.

Vectorized numpy port of the preprocessing semantics of
/root/reference/ocrs/src/preprocess.rs: u8/f32 HWC/CHW inputs with 1, 3
or 4 channels are converted to a (1, H, W) float32 greyscale tensor with
values in [BLACK_VALUE, BLACK_VALUE + 1] using ITU BT.601 weights; alpha
is ignored.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BLACK_VALUE",
    "ITU_WEIGHTS",
    "ImageSourceError",
    "image_from_bytes",
    "prepare_image",
]

#: Value representing fully black pixels in prepared images.
#: Parity: /root/reference/ocrs/src/preprocess.rs:128.
BLACK_VALUE = -0.5

#: ITU BT.601 RGB -> luminance weights.
#: Parity: /root/reference/ocrs/src/preprocess.rs:171.
ITU_WEIGHTS = np.array([0.299, 0.587, 0.114], dtype=np.float32)


class ImageSourceError(ValueError):
    """Invalid image input (bad channel count or data length).

    Parity: /root/reference/ocrs/src/preprocess.rs:38-46.
    """

    UNSUPPORTED_CHANNEL_COUNT = "channel count is not 1, 3 or 4"
    INVALID_DATA_LENGTH = "data length is not a multiple of `width * height`"


def image_from_bytes(data: bytes | np.ndarray, width: int, height: int) -> np.ndarray:
    """Interpret a flat u8 buffer as an HWC image, inferring channels.

    Parity: `ImageSource::from_bytes`
    (/root/reference/ocrs/src/preprocess.rs:81-101).
    """
    buf = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray)) else data
    channel_len = int(width) * int(height)
    if channel_len == 0:
        raise ImageSourceError(ImageSourceError.UNSUPPORTED_CHANNEL_COUNT)
    if len(buf) % channel_len != 0:
        raise ImageSourceError(ImageSourceError.INVALID_DATA_LENGTH)
    channels = len(buf) // channel_len
    if channels not in (1, 3, 4):
        raise ImageSourceError(ImageSourceError.UNSUPPORTED_CHANNEL_COUNT)
    return buf.reshape(height, width, channels)


def _validate_channels(n: int) -> None:
    if n not in (1, 3, 4):
        raise ImageSourceError(ImageSourceError.UNSUPPORTED_CHANNEL_COUNT)


def prepare_image(img: np.ndarray, order: str = "hwc") -> np.ndarray:
    """Convert an image tensor to normalized (1, H, W) float32 greyscale.

    `img` is a 3D array, u8 in [0, 255] or float in [0, 1], in "hwc" or
    "chw" layout with 1 (grey), 3 (RGB) or 4 (RGBA, alpha ignored)
    channels. Output values are in [BLACK_VALUE, BLACK_VALUE + 1].

    Parity: `prepare_image` (/root/reference/ocrs/src/preprocess.rs:149-248):
    single-precision accumulation of `BLACK_VALUE + sum(c * w_c)` with the
    /255 scaling folded into the weights for u8 inputs.
    """
    if img.ndim != 3:
        raise ImageSourceError(ImageSourceError.UNSUPPORTED_CHANNEL_COUNT)
    if order == "chw":
        chw = img
        _validate_channels(chw.shape[0])
        hwc = np.moveaxis(chw, 0, -1)
    elif order == "hwc":
        _validate_channels(img.shape[2])
        hwc = img
    else:
        raise ValueError(f"unknown dim order: {order}")

    n_chans = hwc.shape[2]
    scale = np.float32(1.0) / np.float32(255.0) if hwc.dtype == np.uint8 else None
    if n_chans == 1:
        # One channel: `v * w + BLACK_VALUE` elementwise is the same single
        # float32 product and sum as the (H, W, 1) @ (1,) matmul, without
        # the matmul's per-pixel overhead.
        grey = np.empty((1,) + hwc.shape[:2], dtype=np.float32)
        w = np.float32(1.0) if scale is None else scale
        np.multiply(hwc[:, :, 0], w, out=grey[0], dtype=np.float32)
        grey += np.float32(BLACK_VALUE)
        return grey
    weights = ITU_WEIGHTS if scale is None else ITU_WEIGHTS / np.float32(255.0)
    hwc_f = hwc.astype(np.float32, copy=False)
    used = hwc_f[:, :, : len(weights)]
    grey = used @ weights + np.float32(BLACK_VALUE)
    return grey[None, :, :].astype(np.float32, copy=False)
