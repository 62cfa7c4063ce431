"""Text-line recognition: line prep, width-bucket batching, CTC decode,
char geometry back-projection.

Re-implements the semantics of /root/reference/ocrs/src/recognition.rs
as a numpy class held by the Ray Data OCR stage. The reference's
intra-image rayon parallelism over width buckets is replaced by
inter-row parallelism across the OCR tasks; the width-bucket
micro-batching (multiples of 50 px, <= 20 lines per batch) is kept
inside each task for model efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ctc import CtcStep, decode_beam, decode_greedy
from .geometry import (
    Line,
    Point,
    Rect,
    RotatedRect,
    bounding_rect_f,
    downwards_line,
    leftmost_edge,
    polygons_fill_rows,
    rightmost_edge,
    rust_round,
)
from .models.protocol import Model
from .preprocess import BLACK_VALUE
from .resize import resize_bilinear
from .text_items import TextChar, TextLine

__all__ = [
    "line_polygon",
    "resized_line_width",
    "prepare_text_line",
    "prepare_text_line_batch",
    "polygon_slice_bounding_rect",
    "RecognitionOpt",
    "TextRecognizer",
]


def line_polygon(words: list[RotatedRect]) -> np.ndarray:
    """Polygon hugging the edges of a line's word rects.

    Clockwise from the top-left: top edge endpoints left-to-right, then
    bottom edge endpoints right-to-left, coordinates floored to ints.
    Parity: /root/reference/ocrs/src/recognition.rs:29-55.
    """
    pts: list[tuple[int, int]] = []
    edges = [
        (downwards_line(leftmost_edge(w)), downwards_line(rightmost_edge(w)))
        for w in words
    ]
    for left, right in edges:
        pts.append((int(left.start.x), int(left.start.y)))
        pts.append((int(right.start.x), int(right.start.y)))
    for left, right in reversed(edges):
        pts.append((int(right.end.x), int(right.end.y)))
        pts.append((int(left.end.x), int(left.end.y)))
    return np.array(pts, dtype=np.int64)


def resized_line_width(orig_width: int, orig_height: int, height: int) -> int:
    """Width to resize a line image to for a given target height.

    Clamped to [10, 2400]; the cap trades accuracy for latency on very
    long lines. Parity: /root/reference/ocrs/src/recognition.rs:58-75.
    """
    min_width, max_width = 10.0, 2400.0
    aspect_ratio = orig_width / orig_height if orig_height else 0.0
    return int(np.clip(np.float32(height * aspect_ratio), min_width, max_width))


@dataclass
class TextRecLine:
    index: int
    region: np.ndarray  # (N, 2) int polygon
    resized_width: int


def _line_canvases(
    image: np.ndarray, page_rect: Rect, regions: list[np.ndarray]
) -> list[np.ndarray]:
    """Each line region's polygon-masked pixels on a BLACK_VALUE canvas
    sized to the region's bounding rect, all regions in one pass.

    Parity: the reference's ocrs/src/recognition.rs:91-117, including
    the page-rect clamping of both source and destination coordinates.
    """
    if not regions:
        return []
    page = page_rect.adjust_tlbr(0, 0, -1, -1)
    # Per region: canvas shape and offset in one flat buffer, and the
    # clamps. Source rows must lie in the page; destination (line-local)
    # rows (y - top) are clamped against the page rect too (reference
    # quirk) and to the canvas. Columns are clamped to the page, to the
    # page shifted by `left` and to the canvas; the destination column
    # is the source column minus `left`.
    shapes, params, offset = [], [], 0
    for region in regions:
        pts = region.astype(np.int64, copy=False)
        left, top = pts.min(axis=0).tolist()
        right, bottom = pts.max(axis=0).tolist()
        lh, lw = max(bottom - top, 1), max(right - left, 1)
        params.append((
            max(page.top, top + page.top),
            min(page.bottom, top + page.bottom, top + lh - 1),
            max(page.left, left + max(page.left, 0)),
            min(page.right + 1, left + min(page.right + 1, lw)),
            lw,
            offset - top * lw - left,
        ))
        shapes.append((offset, lh, lw))
        offset += lh * lw
    buf = np.full(offset, np.float32(BLACK_VALUE), dtype=np.float32)

    idx, ys, x0, x1 = polygons_fill_rows(regions)
    y_lo, y_hi, x_lo, x_hi, lw, base = np.array(params, dtype=np.int64)[idx].T
    x0 = np.maximum(x0, x_lo)
    x1 = np.minimum(x1, x_hi)
    keep = np.flatnonzero((y_lo <= ys) & (ys <= y_hi) & (x0 < x1))
    if keep.size:
        ys, x0, lw, base = ys[keep], x0[keep], lw[keep], base[keep]
        lens = x1[keep] - x0
        # Pixel i of the copy lies in run r, at column x0[r] + i - start[r].
        step = np.repeat(np.cumsum(lens) - lens - x0, lens)
        sx = np.arange(len(step)) - step
        sy = np.repeat(ys, lens)
        buf[np.repeat(base + ys * lw, lens) + sx] = image[0][sy, sx]
    return [buf[o : o + lh * lw].reshape(lh, lw) for o, lh, lw in shapes]


def prepare_text_line(
    image: np.ndarray,
    page_rect: Rect,
    line_region: np.ndarray,
    resized_width: int,
    output_height: int,
) -> np.ndarray:
    """Extract a line region into a BLACK_VALUE canvas and resize.

    Copies polygon-masked pixels from the greyscale channel into a
    canvas sized to the region's bounding rect (`_line_canvases`), then
    bilinear-resizes to (output_height, resized_width).
    Parity: the reference's ocrs/src/recognition.rs:91-126.
    """
    (canvas,) = _line_canvases(image, page_rect, [line_region])
    return resize_bilinear(canvas[None, None], output_height, resized_width)[0, 0]


def prepare_text_line_batch(
    image: np.ndarray,
    lines: list[TextRecLine],
    page_rect: Rect,
    output_height: int,
    output_width: int,
) -> np.ndarray:
    """NCHW batch of line images, right-padded to a common width.

    Parity: /root/reference/ocrs/src/recognition.rs:135-158.
    """
    out = np.full(
        (len(lines), 1, output_height, output_width),
        np.float32(BLACK_VALUE),
        dtype=np.float32,
    )
    canvases = _line_canvases(image, page_rect, [line.region for line in lines])
    for i, (line, canvas) in enumerate(zip(lines, canvases)):
        resized = resize_bilinear(canvas[None, None], output_height, line.resized_width)
        out[i, 0, :, : line.resized_width] = resized[0, 0]
    return out


def polygon_slice_bounding_rect(
    poly: np.ndarray, min_x: int, max_x: int
) -> Rect | None:
    """Bounding rect of the polygon slice with X in [min_x, max_x].

    Edges are truncated to the X range via linear interpolation with
    rounded Y. Parity: /root/reference/ocrs/src/recognition.rs:162-193.
    """
    n = len(poly)
    result: Rect | None = None
    for i in range(n):
        sx, sy = int(poly[i][0]), int(poly[i][1])
        ex, ey = int(poly[(i + 1) % n][0]), int(poly[(i + 1) % n][1])
        e = Line(Point(sx, sy), Point(ex, ey)).rightwards()
        if (e.start.x < min_x and e.end.x < min_x) or (
            e.start.x > max_x and e.end.x > max_x
        ):
            continue
        y0 = e.y_for_x(float(min_x))
        start = Point(min_x, rust_round(y0)) if y0 is not None else e.start
        y1 = e.y_for_x(float(max_x))
        end = Point(max_x, rust_round(y1)) if y1 is not None else e.end
        edge_br = Line(start, end).bounding_rect()
        result = edge_br if result is None else result.union(edge_br)
    return result


@dataclass
class RecognitionOpt:
    debug: bool = False
    decode_method: str = "greedy"  # "greedy" | "beam"
    beam_width: int = 100
    alphabet: str = ""
    excluded_char_labels: list[int] | None = None


@dataclass
class LineRecResult:
    line: TextRecLine
    rec_input_len: int
    ctc_input_len: int
    ctc_output: list[CtcStep]


def text_lines_from_recognition_results(
    results: list[LineRecResult], alphabet: str
) -> list[TextLine | None]:
    """Combine recognition inputs/outputs into TextLines with char rects.

    Parity: /root/reference/ocrs/src/recognition.rs:241-311 — including
    the `'?'` fallback for out-of-alphabet labels and dropping chars
    whose projected X start falls in the right padding region.
    """
    out: list[TextLine | None] = []
    for result in results:
        xs = result.line.region[:, 0]
        ys = result.line.region[:, 1]
        line_rect = Rect(int(ys.min()), int(xs.min()), int(ys.max()), int(xs.max()))
        x_scale_factor = line_rect.width() / result.line.resized_width
        downsample_factor = rust_round(result.rec_input_len / result.ctc_input_len)

        steps = result.ctc_output
        chars: list[TextChar] = []
        for i, step in enumerate(steps):
            start_x = step.pos * downsample_factor
            end_x = (
                steps[i + 1].pos * downsample_factor
                if i + 1 < len(steps)
                else result.line.resized_width
            )
            start_x = line_rect.left + int(start_x * x_scale_factor)
            end_x = line_rect.left + int(end_x * x_scale_factor)
            if start_x >= line_rect.right:
                continue
            idx = step.label - 1
            char = alphabet[idx] if 0 <= idx < len(alphabet) else "?"
            rect = polygon_slice_bounding_rect(result.line.region, start_x, end_x)
            assert rect is not None, "invalid X coords"
            chars.append(TextChar(char=char, rect=rect))
        out.append(TextLine(chars) if chars else None)
    return out


class TextRecognizer:
    """Extracts char sequences + coords from detected text lines.

    Built once per worker process, inside the OCR task stage's warm
    engine (model load in `__init__`); `recognize_text_lines` runs per
    image.
    """

    #: Width buckets are multiples of 50 px; batches cap at 20 lines.
    #: Parity: /root/reference/ocrs/src/recognition.rs:437,450.
    GROUP_WIDTH_STEP = 50
    MAX_LINES_PER_GROUP = 20

    def __init__(self, model: Model):
        self.model = model
        self.input_shape = model.input_shape()

    def input_height(self) -> int:
        """Expected line-image height (default 50 when symbolic).

        Parity: /root/reference/ocrs/src/recognition.rs:332-337.
        """
        dim = self.input_shape[2]
        return dim.size if dim.is_fixed else 50

    def run(self, input: np.ndarray) -> np.ndarray:
        """NCHW line batch -> [batch, seq, class] score tensor."""
        out = np.asarray(self.model.run(input.astype(np.float32)))
        if out.ndim != 3:
            raise ValueError(
                f"expected recognition output to have 3 dims but it has {out.ndim}"
            )
        # [seq, batch, class] -> [batch, seq, class]
        return np.ascontiguousarray(out.transpose(1, 0, 2))

    def prepare_input(self, image: np.ndarray, line: list[RotatedRect]) -> np.ndarray:
        """Debug tap: the preprocessed image for one line.

        Parity: /root/reference/ocrs/src/recognition.rs:362-392.
        """
        _, img_h, img_w = image.shape
        page_rect = Rect.from_hw(img_h, img_w)
        br = bounding_rect_f(line)
        assert br is not None, "line has no words"
        line_rect = br.integral_bounding_rect()
        poly = line_polygon(line)
        rec_h = self.input_height()
        width = resized_line_width(line_rect.width(), line_rect.height(), rec_h)
        return prepare_text_line(image, page_rect, poly, width, rec_h)

    def recognize_text_lines(
        self,
        image: np.ndarray,
        lines: list[list[RotatedRect]],
        opts: RecognitionOpt,
    ) -> list[TextLine | None]:
        """Recognize text lines in a normalized greyscale image.

        Parity: /root/reference/ocrs/src/recognition.rs:404-540 —
        width-bucketed batching, per-batch CTC decode with excluded-label
        masking, results re-sorted to input order (the critical ordering
        invariant, :530-535).
        """
        _, img_h, img_w = image.shape
        page_rect = Rect.from_hw(img_h, img_w)
        rec_img_height = self.input_height()

        line_groups: dict[int, list[TextRecLine]] = {}
        for line_index, word_rects in enumerate(lines):
            br = bounding_rect_f(word_rects)
            assert br is not None, "line has no words"
            line_rect = br.integral_bounding_rect()
            resized_width = resized_line_width(
                line_rect.width(), line_rect.height(), rec_img_height
            )
            group_width = -(-resized_width // self.GROUP_WIDTH_STEP) * self.GROUP_WIDTH_STEP
            line_groups.setdefault(group_width, []).append(
                TextRecLine(
                    index=line_index,
                    region=line_polygon(word_rects),
                    resized_width=resized_width,
                )
            )

        batches: list[tuple[int, list[TextRecLine]]] = []
        for group_width, group_lines in line_groups.items():
            for i in range(0, len(group_lines), self.MAX_LINES_PER_GROUP):
                batches.append((group_width, group_lines[i : i + self.MAX_LINES_PER_GROUP]))

        alphabet_len = len(opts.alphabet)
        results: list[LineRecResult] = []
        for group_width, group_lines in batches:
            rec_input = prepare_text_line_batch(
                image, group_lines, page_rect, rec_img_height, group_width
            )
            rec_output = self.run(rec_input)
            if alphabet_len + 1 != rec_output.shape[2]:
                raise ValueError(
                    f"output column count ({rec_output.shape[2]}) does not match "
                    f"alphabet size ({alphabet_len + 1})"
                )
            ctc_input_len = rec_output.shape[1]
            for group_line_index, line in enumerate(group_lines):
                seq = rec_output[group_line_index]
                if opts.excluded_char_labels:
                    seq = seq.copy()
                    seq[:, opts.excluded_char_labels] = -np.inf
                if opts.decode_method == "beam":
                    ctc_output = decode_beam(seq, opts.beam_width)
                else:
                    ctc_output = decode_greedy(seq)
                results.append(
                    LineRecResult(
                        line=line,
                        rec_input_len=group_width,
                        ctc_input_len=ctc_input_len,
                        ctc_output=ctc_output,
                    )
                )

        # Re-sort batched results back to input order (ordering invariant).
        results.sort(key=lambda r: r.line.index)
        return text_lines_from_recognition_results(results, opts.alphabet)
