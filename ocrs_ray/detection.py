"""Text detection: model inference + connected-component post-processing.

Re-implements the semantics of /root/reference/ocrs/src/detection.rs as
a plain-python/numpy class that lives in the OCR task stage's warm
per-worker-process engine (weights loaded once per worker process, many
images per call).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contours import find_contours_external
from .geometry import RotatedRect, min_area_rect, simplify_polygon
from .models.protocol import Model
from .preprocess import BLACK_VALUE
from .resize import resize_bilinear

__all__ = ["TextDetectorParams", "TextDetector", "find_connected_component_rects"]


@dataclass(frozen=True)
class TextDetectorParams:
    """Post-processing thresholds.

    Parity: defaults min_area=100, text_threshold=0.2
    (/root/reference/ocrs/src/detection.rs:25-37).
    """

    min_area: float = 100.0
    text_threshold: float = 0.2


def find_connected_component_rects(
    mask: np.ndarray, expand_dist: float, min_area: float
) -> list[RotatedRect]:
    """Min-area oriented rects of connected components in a binary mask.

    Pipeline parity (/root/reference/ocrs/src/detection.rs:41-62):
    external contours -> Douglas-Peucker simplify (eps=2.0) ->
    min-area rect -> grow by `expand_dist` per side -> filter by area.
    """
    rects: list[RotatedRect] = []
    for contour in find_contours_external(mask):
        simplified = simplify_polygon(contour.astype(np.float64), 2.0)
        rect = min_area_rect(simplified)
        if rect is None:
            continue
        rect.resize(rect.width() + 2.0 * expand_dist, rect.height() + 2.0 * expand_dist)
        if rect.area() >= min_area:
            rects.append(rect)
    return rects


class TextDetector:
    """Finds oriented bounding boxes of words in normalized images.

    Built once per worker process, inside the OCR task stage's warm
    engine (model load in `__init__`); `detect_words` runs per image.
    """

    #: Distance to expand detected boxes by, recovering ground-truth size
    #: from the model's deliberately shrunk predictions.
    #: Parity: /root/reference/ocrs/src/detection.rs:111-116.
    EXPAND_DIST = 3.0

    def __init__(self, model: Model, params: TextDetectorParams | None = None):
        self.model = model
        self.params = params or TextDetectorParams()
        self.input_shape = model.input_shape()
        if len(self.input_shape) != 4:
            raise ValueError("detection model must declare a 4D NCHW input shape")

    def threshold(self) -> float:
        return self.params.text_threshold

    def detect_text_pixels(self, image: np.ndarray) -> np.ndarray:
        """Probability map (H, W) of each input pixel being text.

        `image` is a (1, H, W) float32 greyscale tensor in
        [BLACK_VALUE, BLACK_VALUE + 1]. Pads right/bottom with
        BLACK_VALUE to the model's fixed input size, resizes, runs the
        model, then maps the probability mask back to input coordinates.
        Parity: /root/reference/ocrs/src/detection.rs:131-199.
        """
        _, img_h, img_w = image.shape
        hdim, wdim = self.input_shape[2], self.input_shape[3]
        if not (hdim.is_fixed and wdim.is_fixed):
            raise ValueError("failed to get model dims")
        in_h, in_w = hdim.size, wdim.size

        pad_bottom = max(in_h - img_h, 0)
        pad_right = max(in_w - img_w, 0)
        batch = image[None, :, :, :]
        if pad_bottom > 0 or pad_right > 0:
            batch = np.full(
                (1, 1, img_h + pad_bottom, img_w + pad_right),
                np.float32(BLACK_VALUE),
                dtype=np.float32,
            )
            batch[0, 0, :img_h, :img_w] = image[0]
        if batch.shape[2] != in_h or batch.shape[3] != in_w:
            batch = resize_bilinear(batch, in_h, in_w)

        mask = np.asarray(self.model.run(batch.astype(np.float32)), dtype=np.float32)
        mask = mask[:, :, : in_h - pad_bottom, : in_w - pad_right]
        mask = resize_bilinear(mask, img_h, img_w)
        return mask.reshape(img_h, img_w)

    def detect_words(self, image: np.ndarray) -> list[RotatedRect]:
        """Unordered oriented word boxes in a normalized greyscale image.

        Parity: /root/reference/ocrs/src/detection.rs:104-122.
        """
        prob = self.detect_text_pixels(image)
        binary = prob > self.params.text_threshold
        return find_connected_component_rects(
            binary, self.EXPAND_DIST, self.params.min_area
        )
