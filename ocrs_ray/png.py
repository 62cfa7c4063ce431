"""Minimal pure-numpy PNG codec (stdlib zlib only) — real-codec decode
for the one format this environment can support without native image
libraries.

Covers the PNG subset the reference's input path needs for its test
fixtures (/root/reference/ocrs-cli/src/main.rs:312-323 decodes via the
`image` crate): bit depths 1/2/4/8/16 (16-bit downsamples to the high
byte — the engine consumes uint8 HWC), color types 0 (grey), 2 (RGB),
3 (palette), 4 (grey+alpha), 6 (RGBA), all five scanline filters,
non-interlaced AND Adam7-interlaced (each pass unfiltered
independently — prev-row state resets per pass — then scattered into
the canvas on the standard 8x8 grid).

The encoder writes filter-0 rows (always valid PNG; decoders are free
to re-filter), which also makes encode->decode a bit-exact round trip
for tests and lets the S7 annotated sink emit genuine .png payloads.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

__all__ = ["encode_png", "decode_png"]

_SIGNATURE = b"\x89PNG\r\n\x1a\n"
#: color type -> samples per pixel (before palette expansion)
_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}


def _chunk(tag: bytes, body: bytes) -> bytes:
    return (
        struct.pack(">I", len(body))
        + tag
        + body
        + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF)
    )


def encode_png(img: np.ndarray) -> bytes:
    """Encode an (H, W) or (H, W, C) uint8 array (C in {1, 2, 3, 4})."""
    if img.dtype != np.uint8:
        raise ValueError(f"encode_png wants uint8, got {img.dtype}")
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, c = img.shape
    color_type = {1: 0, 2: 4, 3: 2, 4: 6}.get(c)
    if color_type is None:
        raise ValueError(f"unsupported channel count: {c}")
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    # Filter byte 0 (None) prepended to each raw scanline.
    raw = np.empty((h, 1 + w * c), dtype=np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = img.reshape(h, w * c)
    idat = zlib.compress(raw.tobytes(), 6)
    return (
        _SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", idat)
        + _chunk(b"IEND", b"")
    )


def _wavefront(buf: np.ndarray, rows: np.ndarray, first: np.ndarray, ftypes: np.ndarray) -> None:
    """Undo Up, Average and Paeth rows in place, one anti-diagonal at a time.

    `buf` is the int16 (h + 1, npix + 1, bpp) image with a zero row on
    top and a zero pixel on the left, so every pixel's left, up and
    up-left neighbours exist. `rows` lists the image rows to undo and
    `first` each one's run start: a run's first row follows a final row
    (or the zero row). Pixel k of the row j rows into its run depends
    only on pixels of anti-diagonal j + k - 1 or earlier, so all pixels
    with the same j + k are undone together; the byte arithmetic is the
    per-byte loop's, on whole diagonals.
    """
    _, npix, bpp = buf.shape
    npix -= 1
    flat = buf.reshape(-1)
    row_len = (npix + 1) * bpp
    j = rows - first
    order = np.argsort(j, kind="stable")
    j = j[order]
    kind = ftypes[rows[order]]
    # Flat offset of each row's pixel 0, channel 0 (buffer row r + 1, pixel 1).
    base = (rows[order] + 1) * row_len + bpp
    chan = np.arange(bpp)
    steps = np.arange(int(j[-1]) + npix)
    lo = np.searchsorted(j, steps - npix, side="right")
    hi = np.searchsorted(j, steps, side="right")
    kinds = np.unique(kind).tolist()
    for d, a0, a1 in zip(steps.tolist(), lo.tolist(), hi.tolist()):
        idx = (base[a0:a1] + (d - j[a0:a1]) * bpp)[:, None] + chan
        up = flat[idx - row_len]
        preds = {2: up}
        if 3 in kinds or 4 in kinds:
            left = flat[idx - bpp]
        if 3 in kinds:
            preds[3] = (left + up) >> 1
        if 4 in kinds:
            upleft = flat[idx - row_len - bpp]
            pa = np.abs(up - upleft)
            pb = np.abs(left - upleft)
            pc = np.abs(left + up - 2 * upleft)
            preds[4] = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft))
        pred = preds[kinds[0]]
        for t in kinds[1:]:
            pred = np.where(kind[a0:a1, None] == t, preds[t], pred)
        flat[idx] = (flat[idx] + pred) & 0xFF


def _unfilter(data: np.ndarray, h: int, stride: int, bpp: int) -> np.ndarray:
    """Undo per-scanline filtering -> (h, stride) raw bytes.

    None rows are final as read and Sub rows are a per-channel uint8
    accumulate along the row, both for all such rows at once. The rows
    of a run of Up rows are an accumulate down the rows from the final
    row above the run. A run of Up, Average and Paeth rows holding at
    least one of the latter two goes to `_wavefront`, all such runs in
    one pass. uint8 arithmetic wraps, as the format's mod-256 sums do.
    """
    rows = data.reshape(h, 1 + stride)
    ftypes = rows[:, 0]
    bad = np.flatnonzero(ftypes > 4)
    if bad.size:
        y = int(bad[0])
        raise ValueError(f"bad PNG filter type {int(ftypes[y])} on row {y}")
    out = rows[:, 1:].copy()
    sub = np.flatnonzero(ftypes == 1)
    if sub.size:
        cur = out[sub].reshape(sub.size, -1, bpp)
        out[sub] = np.add.accumulate(cur, axis=1, dtype=np.uint8).reshape(sub.size, stride)
    dep = ftypes >= 2
    if not dep.any():
        return out
    # Maximal runs of rows that depend on the row above: [starts, ends).
    edges = np.diff(np.concatenate(([0], dep.view(np.int8), [0])))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    wave = []
    for a, b in zip(starts.tolist(), ends.tolist()):
        if (ftypes[a:b] == 2).all():
            # ~20x cheaper than the wavefront on an all-Up image
            # (600x800 RGB: 2.3 vs 42 ms).
            a0 = max(a - 1, 0)
            np.add.accumulate(out[a0:b], axis=0, dtype=np.uint8, out=out[a0:b])
        else:
            wave.append((a, b))
    if wave:
        npix = stride // bpp
        buf = np.zeros((h + 1, npix + 1, bpp), dtype=np.int16)
        buf[1:, 1:] = out.reshape(h, npix, bpp)
        wrows = np.concatenate([np.arange(a, b) for a, b in wave])
        first = np.concatenate([np.full(b - a, a) for a, b in wave])
        _wavefront(buf, wrows, first, ftypes)
        out = buf[1:, 1:].reshape(h, stride).astype(np.uint8)
    return out


#: Adam7 pass grid: (x0, y0, dx, dy) per pass.
_ADAM7 = (
    (0, 0, 8, 8),
    (4, 0, 8, 8),
    (0, 4, 4, 8),
    (2, 0, 4, 4),
    (0, 2, 2, 4),
    (1, 0, 2, 2),
    (0, 1, 1, 2),
)


def _expand_rows(
    rows: np.ndarray, w: int, c: int, depth: int, scale: bool
) -> np.ndarray:
    """(h, rowbytes) unfiltered bytes -> (h, w, c) uint8 samples.
    Sub-8-bit depths unpack MSB-first; 16-bit keeps the big-endian
    high byte; `scale` stretches sub-8 grey to the full 0-255 range
    (palette INDICES stay raw)."""
    h = rows.shape[0]
    if depth == 8:
        return rows[:, : w * c].reshape(h, w, c)
    if depth == 16:
        return rows[:, : w * c * 2].reshape(h, w, c, 2)[..., 0]
    # 1/2/4-bit: always one sample per pixel (grey or palette index).
    bits = np.unpackbits(rows, axis=1)
    weights = (1 << np.arange(depth - 1, -1, -1)).astype(np.uint8)
    v = (bits.reshape(h, -1, depth) * weights).sum(axis=2).astype(np.uint8)
    v = v[:, :w]
    if scale:
        v = (v * (255 // ((1 << depth) - 1))).astype(np.uint8)
    return v[:, :, None]


def decode_png(data: bytes) -> np.ndarray:
    """Decode PNG bytes to an (H, W, C) uint8 array (C = 1, 2, 3 or 4;
    palette images expand to their palette's channel count)."""
    if data[:8] != _SIGNATURE:
        raise ValueError("not a PNG (bad signature)")
    pos = 8
    ihdr = None
    idat = bytearray()
    palette: np.ndarray | None = None
    trns: np.ndarray | None = None
    while pos < len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        crc = struct.unpack_from(">I", data, pos + 8 + length)[0]
        if zlib.crc32(tag + body) & 0xFFFFFFFF != crc:
            raise ValueError(f"PNG chunk {tag!r} CRC mismatch")
        pos += 12 + length
        if tag == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", body)
        elif tag == b"PLTE":
            palette = np.frombuffer(body, dtype=np.uint8).reshape(-1, 3)
        elif tag == b"tRNS":
            trns = np.frombuffer(body, dtype=np.uint8)
        elif tag == b"IDAT":
            idat.extend(body)
        elif tag == b"IEND":
            break
    if ihdr is None:
        raise ValueError("PNG missing IHDR")
    w, h, depth, color_type, comp, filt, interlace = ihdr
    if depth not in (1, 2, 4, 8, 16):
        raise ValueError(f"invalid PNG bit depth {depth}")
    if depth < 8 and color_type not in (0, 3):
        raise ValueError(f"depth {depth} invalid for color type {color_type}")
    if depth == 16 and color_type == 3:
        raise ValueError("16-bit palette PNG is invalid")
    if interlace not in (0, 1):
        raise ValueError(f"invalid PNG interlace method {interlace}")
    if comp != 0 or filt != 0:
        raise ValueError("invalid PNG compression/filter method")
    if color_type not in _CHANNELS:
        raise ValueError(f"unknown PNG color type {color_type}")
    c = _CHANNELS[color_type]
    bpp = max(1, c * depth // 8)  # filter distance in BYTES
    scale = color_type != 3  # palette indices must stay raw
    raw = np.frombuffer(zlib.decompress(bytes(idat)), dtype=np.uint8)
    if interlace == 0:
        rowbytes = (w * c * depth + 7) // 8
        if raw.size != h * (rowbytes + 1):
            raise ValueError("PNG scanline data size mismatch")
        img = _expand_rows(_unfilter(raw, h, rowbytes, bpp), w, c, depth, scale)
    else:  # Adam7: each pass is its own independently-filtered image
        img = np.zeros((h, w, c), dtype=np.uint8)
        off = 0
        for x0, y0, dx, dy in _ADAM7:
            pw = (w - x0 + dx - 1) // dx
            ph = (h - y0 + dy - 1) // dy
            if pw <= 0 or ph <= 0:
                continue
            rowbytes = (pw * c * depth + 7) // 8
            n = ph * (rowbytes + 1)
            if off + n > raw.size:
                raise ValueError("PNG interlaced data size mismatch")
            sub = _unfilter(raw[off : off + n], ph, rowbytes, bpp)
            off += n
            img[y0::dy, x0::dx] = _expand_rows(sub, pw, c, depth, scale)
        if off != raw.size:
            raise ValueError("PNG interlaced data size mismatch")
    if color_type == 3:
        if palette is None:
            raise ValueError("palette PNG missing PLTE")
        idx = img[:, :, 0]
        img = palette[idx]
        if trns is not None:
            alpha = np.full(256, 255, dtype=np.uint8)
            alpha[: len(trns)] = trns
            img = np.dstack([img, alpha[idx]])
    return img
