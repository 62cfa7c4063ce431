"""Shared test helpers: synthetic images + rect grids.

Ports of the reference's test utilities
(/root/reference/ocrs/src/test_util.rs:7-35,
/root/reference/ocrs/src/lib.rs:315-333).
"""

from __future__ import annotations

import numpy as np

from ocrs_ray.geometry import Point, Rect


def gen_rect_grid(
    top_left: Point,
    grid_shape: tuple[int, int],
    rect_size: tuple[int, int],
    gap_size: tuple[int, int],
) -> list[Rect]:
    rows, cols = grid_shape
    rect_h, rect_w = rect_size
    gap_h, gap_w = gap_size
    rects = []
    for r in range(rows):
        for c in range(cols):
            top = int(top_left.y) + r * (rect_h + gap_h)
            left = int(top_left.x) + c * (rect_w + gap_w)
            rects.append(Rect(top, left, top + rect_h, left + rect_w))
    return rects


def union_rects(rects: list[Rect]) -> Rect | None:
    out = None
    for r in rects:
        out = r if out is None else out.union(r)
    return out


def fill_rect(img: np.ndarray, rect: Rect, value) -> None:
    """Fill pixels with top <= y < bottom, left <= x < right (excludes
    the bottom/right boundary, like rten's fill_rect)."""
    img[..., max(rect.top, 0) : rect.bottom, max(rect.left, 0) : rect.right] = value


def gen_test_image(n_words: int) -> np.ndarray:
    """RGB CHW float image: black with one line of `n_words` white rects.

    Parity: /root/reference/ocrs/src/lib.rs:319-333 (3, 100, 200) canvas,
    word rects tlhw(30, i * 70, 20, 50).
    """
    image = np.zeros((3, 100, 200), dtype=np.float32)
    for word_idx in range(n_words):
        fill_rect(image, Rect.from_tlhw(30, word_idx * 70, 20, 50), 1.0)
    return image


def arrow_rows(ds) -> list[dict]:
    """Every row of a Ray dataset as a dict, read through its Arrow
    blocks so list and null values stay exact. Materializes once (a
    bare `to_arrow_refs` re-executes the plan to fetch the schema) and
    skips the zero-column blocks that empty partitions of
    `build_ocr_pipeline_joined`'s `doc_id` exchange yield (the other
    OCR builds yield none)."""
    import pyarrow as pa
    import ray

    blocks = [t for t in ray.get(ds.materialize().to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(blocks).to_pylist()
