"""OcrEngine facade: staged per-image API over detection + recognition.

Parity surface: /root/reference/ocrs/src/lib.rs:111-300. In the Ray
pipeline this class is not an operator — it is the per-worker-process
state (both models + alphabet + decode config) used inside the OCR
`map_batches` task stage; the staged methods double as composable
debug taps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import DEFAULT_ALPHABET
from .detection import TextDetector, TextDetectorParams
from .geometry import RotatedRect
from .models.protocol import Model
from .preprocess import prepare_image
from .recognition import RecognitionOpt, TextRecognizer
from .text_items import TextLine
from .layout import find_text_lines

__all__ = ["OcrEngineParams", "OcrEngine", "OcrInput"]


@dataclass
class OcrEngineParams:
    """Engine configuration (user-extension surface).

    Parity: /root/reference/ocrs/src/lib.rs:38-71.
    """

    detection_model: Model | None = None
    recognition_model: Model | None = None
    debug: bool = False
    decode_method: str = "greedy"  # "greedy" | "beam"
    beam_width: int = 100
    alphabet: str | None = None
    allowed_chars: str | None = None
    detector_params: TextDetectorParams = field(default_factory=TextDetectorParams)
    #: Drop recognized lines whose text is this many chars or shorter —
    #: the "likely spurious detections" filter from the reference's
    #: example pipeline (/root/reference/ocrs/examples/hello_ocr.rs:85-91,
    #: `len() > 1` there == min_line_chars=1 here). 0 disables (M16 is
    #: optional and off by default, matching the engine proper).
    min_line_chars: int = 0


@dataclass
class OcrInput:
    """Normalized greyscale (1, H, W) image in [-0.5, 0.5]."""

    image: np.ndarray


class OcrEngine:
    def __init__(self, params: OcrEngineParams):
        self.detector = (
            TextDetector(params.detection_model, params.detector_params)
            if params.detection_model is not None
            else None
        )
        self.recognizer = (
            TextRecognizer(params.recognition_model)
            if params.recognition_model is not None
            else None
        )
        self.alphabet = params.alphabet if params.alphabet is not None else DEFAULT_ALPHABET
        self.debug = params.debug
        self.decode_method = params.decode_method
        self.beam_width = params.beam_width
        self.min_line_chars = params.min_line_chars

        self.excluded_char_labels: list[int] | None = None
        if params.allowed_chars is not None:
            # Label 0 is the CTC blank; char i of the alphabet trains as
            # label i + 1. Parity: /root/reference/ocrs/src/lib.rs:153-170.
            allowed = set(params.allowed_chars)
            self.excluded_char_labels = [
                i + 1 for i, ch in enumerate(self.alphabet) if ch not in allowed
            ]

    def prepare_input(self, image: np.ndarray, order: str = "chw") -> OcrInput:
        return OcrInput(image=prepare_image(image, order=order))

    def detect_words(self, input: OcrInput) -> list[RotatedRect]:
        if self.detector is None:
            raise RuntimeError("Detection model not loaded")
        return self.detector.detect_words(input.image)

    def detect_text_pixels(self, input: OcrInput) -> np.ndarray:
        if self.detector is None:
            raise RuntimeError("Detection model not loaded")
        return self.detector.detect_text_pixels(input.image)

    def find_text_lines(
        self, input: OcrInput, words: list[RotatedRect]
    ) -> list[list[RotatedRect]]:
        return find_text_lines(words)

    def recognize_text(
        self, input: OcrInput, lines: list[list[RotatedRect]]
    ) -> list[TextLine | None]:
        if self.recognizer is None:
            raise RuntimeError("Recognition model not loaded")
        return self.recognizer.recognize_text_lines(
            input.image,
            lines,
            RecognitionOpt(
                debug=self.debug,
                decode_method=self.decode_method,
                beam_width=self.beam_width,
                alphabet=self.alphabet,
                excluded_char_labels=self.excluded_char_labels,
            ),
        )

    def prepare_recognition_input(
        self, input: OcrInput, line: list[RotatedRect]
    ) -> np.ndarray:
        if self.recognizer is None:
            raise RuntimeError("Recognition model not loaded")
        return self.recognizer.prepare_input(input.image, line)

    def detection_threshold(self) -> float:
        if self.detector is not None:
            return self.detector.threshold()
        return TextDetectorParams().text_threshold

    def get_text(self, input: OcrInput) -> str:
        """All text in the image, lines joined by newlines.

        Parity: /root/reference/ocrs/src/lib.rs:290-300.
        """
        words = self.detect_words(input)
        lines = self.find_text_lines(input, words)
        recognized = self.recognize_text(input, lines)
        return "\n".join(
            str(line)
            for line in recognized
            if line is not None
            and (not self.min_line_chars or len(str(line)) > self.min_line_chars)
        )
