"""Multimodal column operators: decode, feature-extract, resize,
frame-sample over opaque binary media payloads.

Media rows are (media_ref, image: binary, height, width, channels,
format) — the typed-metadata-plus-opaque-binary layout the 100 TB
corpus uses (SURVEY.md §1.2). Every stage is a task stage: a function
or a callable instance whose state (options) builds once with the stage.

Codec support in this container:
- "raw8-hwc" decodes for real (numpy frombuffer, zero parsing);
- "png" decodes for real via the stdlib-zlib codec (`ocrs_ray.png`);
- "jpeg"/"jpg" decodes for real via the pure-numpy baseline +
  progressive codec (`ocrs_ray.jpeg`);
- "webp" decodes for real via the pure-numpy codecs — lossless VP8L
  and lossy VP8 keyframes (`ocrs_ray.webp` / `ocrs_ray.vp8`, bit-exact
  vs libwebp), including animated ANIM/ANMF compositing;
- audio is WAV, decoded by the pure-numpy codec (`ocrs_ray.wav`) for
  `audio_features`; `video_frame_sample` decodes animated WebP for
  real and documents a deterministic fake frame stream for raw8 so the
  distributed shape (per-row fan-out to frame rows) is
  real and tested for container formats this sandbox lacks.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

from ..pipeline import decode_media, worker_value
from ..resize import resize_bilinear
from ..session import cogroup, read_table, source

__all__ = [
    "read_media",
    "media_features",
    "media_thumbnails",
    "video_frame_sample",
    "audio_features",
    "audio_feature_values",
    "AudioFeatureExtractor",
    "audio_content_key",
    "audio_content_dedup",
    "resample_linear",
    "audio_resample_values",
    "audio_resample",
    "media_ahash",
    "media_ahash_neardup",
    "media_ahash_survivors",
    "write_media_webdataset",
    "media_from_webdataset",
    "media_webdataset_roundtrip",
]

MEDIA_COLUMNS = ["media_ref", "image", "height", "width", "channels", "format"]


def read_media(media_path: str) -> rd.Dataset:
    return read_table(media_path, columns=MEDIA_COLUMNS)


def _payloads(batch: pa.Table):
    refs = batch.column("media_ref").to_pylist()
    blobs = batch.column("image").to_pylist()
    hs = batch.column("height").to_pylist()
    ws = batch.column("width").to_pylist()
    cs = batch.column("channels").to_pylist()
    fmts = batch.column("format").to_pylist()
    for ref, payload in zip(refs, zip(blobs, hs, ws, cs, fmts)):
        yield ref, payload


class MediaFeatureExtractor:
    """Task stage: decode + per-image feature vector.

    Features are plain numpy stats (mean/std/edge density/aspect) —
    deterministic, no model weights; a real embedding model drops into
    the same `__init__`-loads-weights / `__call__`-per-batch shape.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs, means, stds, edges, aspects, pixels = [], [], [], [], [], []
        for ref, payload in _payloads(batch):
            img = decode_media(payload).astype(np.float32)
            grey = img.mean(axis=2) if img.ndim == 3 else img
            gy, gx = np.gradient(grey)
            refs.append(ref)
            means.append(float(grey.mean()))
            stds.append(float(grey.std()))
            edges.append(float(np.hypot(gx, gy).mean()))
            aspects.append(float(grey.shape[1] / grey.shape[0]))
            pixels.append(int(grey.size))
        return pa.table(
            {
                "media_ref": pa.array(refs, type=pa.string()),
                "mean_intensity": pa.array(means, type=pa.float64()),
                "std_intensity": pa.array(stds, type=pa.float64()),
                "edge_density": pa.array(edges, type=pa.float64()),
                "aspect_ratio": pa.array(aspects, type=pa.float64()),
                "n_pixels": pa.array(pixels, type=pa.int64()),
            }
        )


def media_features(media_path: str) -> rd.Dataset:
    return read_media(media_path).map_batches(
        MediaFeatureExtractor(),
        batch_format="pyarrow",
        batch_size=128,
    )


class MediaThumbnailer:
    """Task stage: decode -> bilinear resize -> re-encode raw8.

    Output rows keep the opaque-binary + typed-metadata layout so the
    thumbnail table is itself a valid media table (composable).
    """

    def __init__(self, out_h: int = 32, out_w: int = 32):
        self.out_h = out_h
        self.out_w = out_w

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs, blobs, hs, ws, cs, fmts = [], [], [], [], [], []
        for ref, payload in _payloads(batch):
            img = decode_media(payload)
            chans = img.shape[2] if img.ndim == 3 else 1
            plane = img if img.ndim == 2 else img[:, :, 0]
            thumb = resize_bilinear(
                plane.astype(np.float32), self.out_h, self.out_w
            )
            out = np.clip(np.rint(thumb), 0, 255).astype(np.uint8)
            refs.append(ref)
            blobs.append(out.tobytes())
            hs.append(self.out_h)
            ws.append(self.out_w)
            cs.append(1)
            fmts.append("raw8-hwc")
            del chans
        return pa.table(
            {
                "media_ref": pa.array(refs, type=pa.string()),
                "image": pa.array(blobs, type=pa.binary()),
                "height": pa.array(hs, type=pa.int32()),
                "width": pa.array(ws, type=pa.int32()),
                "channels": pa.array(cs, type=pa.int32()),
                "format": pa.array(fmts, type=pa.string()),
            }
        )


def media_thumbnails(media_path: str, out_h: int = 32, out_w: int = 32) -> rd.Dataset:
    return read_media(media_path).map_batches(
        MediaThumbnailer(out_h, out_w),
        batch_format="pyarrow",
        batch_size=128,
    )


class MediaWebpTranscoder:
    """Task stage: decode -> lossy-WebP (VP8 keyframe) re-encode
    -> decode back; emits the transcoded payload plus compression /
    fidelity accounting. The media-normalization stage a 100-TB corpus
    runs to standardize heterogeneous crawled payloads onto one codec:
    output rows keep the opaque-binary + typed-metadata layout, so the
    transcoded table is itself a valid media table (composable with
    every other media op).

    Scale shape: stateless per-row codec work in a task stage, no
    shuffle; payload-heavy rows ride small batches. Deterministic
    (pure-integer codec), so the whole row is value-reproducible.
    """

    def __init__(self, q_index: int = 8):
        self.q_index = q_index

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ocrs_ray.vp8 import encode_webp_lossy
        from ocrs_ray.webp import decode_webp

        refs, blobs, hs, ws, cs, fmts = [], [], [], [], [], []
        orig_b, webp_b, ratio_milli, psnr_milli = [], [], [], []
        for ref, payload in _payloads(batch):
            img = decode_media(payload)
            if img.ndim == 2:
                img = img[:, :, None]
            blob = encode_webp_lossy(img, q_index=self.q_index)
            back = decode_webp(blob)
            if img.shape[2] == 1:
                # greyscale: fidelity reference is the luma replicated
                src = np.repeat(img, 3, 2)
            else:
                # RGB, or RGBA with alpha dropped by the lossy encode
                # (PSNR compares the colour planes only — replicating
                # the red channel here would score a bogus number)
                src = img[:, :, :3]
            mse = float(
                np.mean(
                    (back.astype(np.float64) - src.astype(np.float64)) ** 2
                )
            )
            psnr = 99_000 if mse == 0 else int(
                round(10_000 * np.log10(255 * 255 / mse))
            )
            refs.append(ref)
            blobs.append(blob)
            hs.append(img.shape[0])
            ws.append(img.shape[1])
            cs.append(3)
            fmts.append("webp")
            orig_b.append(len(payload[0]))
            webp_b.append(len(blob))
            ratio_milli.append(1000 * len(payload[0]) // max(1, len(blob)))
            psnr_milli.append(psnr)
        return pa.table(
            {
                "media_ref": pa.array(refs, type=pa.string()),
                "image": pa.array(blobs, type=pa.binary()),
                "height": pa.array(hs, type=pa.int32()),
                "width": pa.array(ws, type=pa.int32()),
                "channels": pa.array(cs, type=pa.int32()),
                "format": pa.array(fmts, type=pa.string()),
                "orig_bytes": pa.array(orig_b, type=pa.int64()),
                "webp_bytes": pa.array(webp_b, type=pa.int64()),
                "compression_ratio_milli": pa.array(
                    ratio_milli, type=pa.int64()
                ),
                "psnr_milli_db": pa.array(psnr_milli, type=pa.int64()),
            }
        )


def media_webp_transcode(media_path: str, q_index: int = 8) -> rd.Dataset:
    return read_media(media_path).map_batches(
        MediaWebpTranscoder(q_index),
        batch_format="pyarrow",
        batch_size=32,
    )


class VideoFrameSampler:
    """Task stage: one video row -> N sampled frame rows.

    Animated WebP is decoded FOR REAL (`ocrs_ray.webp.decode_webp_frames`
    composites ANMF frames with libwebp's WebPAnimDecoder semantics) and
    sampled evenly to at most `n_frames`. True video containers (mp4 etc.)
    need a codec library absent from this container, so payloads with
    format "raw8-hwc" are treated as a deterministic fake "video" whose
    frame t is the image rolled by t rows — the per-row fan-out (flat_map
    shape), frame indexing, and output schema are the same distributed
    plumbing either way; a cv2/av decoder swaps into `_frames` without
    touching the Ray side.
    """

    def __init__(self, n_frames: int = 4):
        self.n_frames = n_frames

    def _frames(self, payload) -> list[np.ndarray]:
        fmt = payload[4]
        if fmt == "webp":
            from ocrs_ray.webp import decode_webp_frames

            frames = [f for f, _dur in decode_webp_frames(payload[0])]
            if len(frames) <= self.n_frames:
                return frames
            picks = np.linspace(0, len(frames) - 1, self.n_frames).round().astype(int)
            return [frames[i] for i in picks]
        if fmt == "raw8-hwc":
            img = decode_media(payload)
            return [np.roll(img, t, axis=0) for t in range(self.n_frames)]
        raise NotImplementedError(
            f"video decode for format {fmt!r} requires a codec library "
            "not present in this environment"
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs, idxs, blobs, hs, ws = [], [], [], [], []
        for ref, payload in _payloads(batch):
            for t, frame in enumerate(self._frames(payload)):
                refs.append(ref)
                idxs.append(t)
                blobs.append(frame.tobytes())
                hs.append(frame.shape[0])
                ws.append(frame.shape[1])
        return pa.table(
            {
                "media_ref": pa.array(refs, type=pa.string()),
                "frame_index": pa.array(idxs, type=pa.int32()),
                "frame": pa.array(blobs, type=pa.binary()),
                "height": pa.array(hs, type=pa.int32()),
                "width": pa.array(ws, type=pa.int32()),
            }
        )


def video_frame_sample(media_path: str, n_frames: int = 4) -> rd.Dataset:
    return read_media(media_path).map_batches(
        VideoFrameSampler(n_frames),
        batch_format="pyarrow",
        batch_size=64,
    )


def audio_feature_values(
    samples: np.ndarray, sample_rate: int, bits: int | None = None
) -> dict[str, int]:
    """Deterministic audio feature kernel over decoded samples — the
    ONE definition both the corpus golden generator (which applies it
    to the pre-encode quantized samples) and the distributed op (which
    applies it to `wav.decode_wav` output) call, so a golden match
    pins the WAV decoder end to end (template-shared pattern).

    Amplitudes canonicalize through `wav.normalize_samples` (float64 in
    [-1, 1)); scalar results carry as integer micro-units so the golden
    compare is exact under any batch layout.
    """
    from ..wav import normalize_samples
    from .relational import round_half_away

    norm = normalize_samples(samples, bits)
    n_frames, n_channels = norm.shape
    if norm.size:
        rms = float(np.sqrt(np.mean(norm**2)))
        peak = float(np.max(np.abs(norm)))
        zc = int(np.count_nonzero(np.signbit(norm[1:]) != np.signbit(norm[:-1])))
    else:
        rms = peak = 0.0
        zc = 0
    return {
        "sample_rate": int(sample_rate),
        "n_channels": int(n_channels),
        "n_frames": int(n_frames),
        "duration_micro": n_frames * 1_000_000 // int(sample_rate),
        "rms_micro": int(round_half_away(np.float64(rms * 1e6))),
        "peak_micro": int(round_half_away(np.float64(peak * 1e6))),
        "zero_crossings": zc,
    }


_AUDIO_FEATURE_COLS = (
    "sample_rate n_channels n_frames duration_micro rms_micro "
    "peak_micro zero_crossings"
).split()


class AudioFeatureExtractor:
    """Task stage: RIFF/WAVE decode (pure-numpy `ocrs_ray.wav`)
    -> per-clip feature kernel. Per-clip Python is bounded (one decode
    + a handful of vectorized numpy reductions per row); payload bytes
    stay in Arrow buffers until the decode."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..wav import decode_wav

        refs = batch.column("media_ref").to_pylist()
        blobs = batch.column("audio").to_pylist()
        cols: dict[str, list] = {c: [] for c in _AUDIO_FEATURE_COLS}
        for blob in blobs:
            samples, rate, bits = decode_wav(blob)
            feats = audio_feature_values(samples, rate, bits)
            for c in _AUDIO_FEATURE_COLS:
                cols[c].append(feats[c])
        return pa.table(
            {
                "media_ref": pa.array(refs, type=pa.string()),
                **{c: pa.array(cols[c], type=pa.int64()) for c in _AUDIO_FEATURE_COLS},
            }
        )


def audio_features(audio_path: str) -> rd.Dataset:
    """Audio feature extraction over a WAV-payload table
    (media_ref, audio:binary): container metadata (rate, channels, bit
    depth) plus amplitude statistics in exact integer micro-units.
    Stateless vectorized-per-clip map — no shuffle; at 100 TB the only
    knob is batch_size (clips are small; payload bytes dominate)."""
    return read_table(
        audio_path, columns=["media_ref", "audio"]
    ).map_batches(
        AudioFeatureExtractor(),
        batch_format="pyarrow",
        batch_size=128,
    )


def audio_content_key(samples: np.ndarray, sample_rate: int, bits: int | None = None) -> str:
    """Container-insensitive content fingerprint: md5 over (rate,
    n_channels, canonical float64 sample bytes). The SAME audio stored
    as PCM16 and as IEEE float32 normalizes bit-identically (int16
    values are exact in f32 and i/32768 is a power-of-two quotient), so
    re-containered duplicates collide while any sample-level change
    does not. Shared by the generator's golden and the distributed op
    (template-shared pattern)."""
    import hashlib

    from ..wav import normalize_samples

    norm = np.ascontiguousarray(normalize_samples(samples, bits))
    h = hashlib.md5()
    h.update(np.int64(sample_rate).tobytes())
    h.update(np.int64(norm.shape[1] if norm.ndim == 2 else 1).tobytes())
    h.update(norm.tobytes())
    return h.hexdigest()


def audio_content_dedup(audio_path: str, partitions: int = 8) -> rd.Dataset:
    """Exact audio dedup by DECODED content, not container bytes: WAV
    clips that hold the same samples at the same rate dedup across
    PCM16 / float32 / any supported container (a byte-level hash
    misses them all — re-encoding is the most common dup vector in
    crawled audio). Survivor = min media_ref per content key.

    Scale shape: per-batch decode+fingerprint in a task stage, then
    ONE keyed exchange of (key, ref) pairs only — payload bytes never
    shuffle; per-partition vectorized min. Same shape as dedup_exact.
    """
    import pyarrow.compute as pc

    from ..wav import decode_wav

    def fingerprint(batch: pa.Table) -> pa.Table:
        refs = batch.column("media_ref").to_pylist()
        keys = []
        for blob in batch.column("audio").to_pylist():
            samples, rate, bits = decode_wav(blob)
            keys.append(audio_content_key(samples, rate, bits))
        return pa.table(
            {
                "media_ref": pa.array(refs, type=pa.string()),
                "content_key": pa.array(keys, type=pa.string()),
            }
        )

    keyed = read_table(
        audio_path, columns=["media_ref", "audio"]
    ).map_batches(
        fingerprint, batch_format="pyarrow", batch_size=128
    )

    def survivors(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "media_ref": pa.array([], type=pa.string()),
                    "content_key": pa.array([], type=pa.string()),
                    "n_copies": pa.array([], type=pa.int64()),
                }
            )
        g = (
            t.group_by("content_key")
            .aggregate([("media_ref", "min"), ("media_ref", "count")])
        )
        return pa.table(
            {
                "media_ref": g.column("media_ref_min"),
                "content_key": g.column("content_key"),
                "n_copies": pc.cast(g.column("media_ref_count"), pa.int64()),
            }
        )

    return keyed.repartition(partitions, keys=["content_key"]).map_batches(
        survivors, batch_format="pyarrow", batch_size=None
    )


def resample_linear(
    norm: np.ndarray, src_rate: int, dst_rate: int
) -> np.ndarray:
    """Deterministic linear-interpolation resample of canonical float64
    samples (n_frames, n_channels). Output frame k samples source time
    k/dst_rate; index arithmetic is exact integer rational (idx =
    k*src//dst, frac = (k*src % dst)/dst) so the output length and
    sample positions never drift with float error."""
    n = norm.shape[0]
    if n == 0 or src_rate == dst_rate:
        return norm.copy()
    n_out = (n - 1) * dst_rate // src_rate + 1
    k = np.arange(n_out, dtype=np.int64)
    num = k * src_rate
    idx = num // dst_rate
    frac = ((num % dst_rate).astype(np.float64) / dst_rate)[:, None]
    nxt = np.minimum(idx + 1, n - 1)
    return norm[idx] * (1.0 - frac) + norm[nxt] * frac


def audio_resample_values(
    samples: np.ndarray,
    sample_rate: int,
    bits: int | None = None,
    dst_rate: int = 16000,
) -> tuple[bytes, int]:
    """Canonicalize one clip to mono PCM16 at `dst_rate` (the standard
    ASR-corpus prep): normalize -> channel-mean downmix -> exact-index
    linear resample -> half-away-from-zero PCM16 quantize -> WAV
    encode. Returns (wav_bytes, n_frames). Shared by the generator's
    golden and the distributed op."""
    from ..wav import encode_wav, normalize_samples
    from .relational import round_half_away

    norm = normalize_samples(samples, bits)
    mono = norm.mean(axis=1, keepdims=True)
    res = resample_linear(mono, sample_rate, dst_rate)
    q = np.clip(round_half_away(res * 32767.0), -32768, 32767).astype(np.int16)
    return encode_wav(q, dst_rate), q.shape[0]


def audio_resample(audio_path: str, dst_rate: int = 16000) -> rd.Dataset:
    """Resample every clip to mono PCM16 at `dst_rate`; emits the
    re-encoded WAV digest + frame counts (blob reduced to md5 for a
    stable driver row, same convention as thumbnails). Stateless
    per-clip map in a task stage — no shuffle."""
    import hashlib

    from ..wav import decode_wav

    def resample(batch: pa.Table) -> pa.Table:
        refs = batch.column("media_ref").to_pylist()
        digests, frames = [], []
        for blob in batch.column("audio").to_pylist():
            samples, rate, bits = decode_wav(blob)
            wav, n = audio_resample_values(samples, rate, bits, dst_rate)
            digests.append(hashlib.md5(wav).hexdigest())
            frames.append(n)
        return pa.table(
            {
                "media_ref": pa.array(refs, type=pa.string()),
                "dst_rate": pa.array([dst_rate] * len(refs), type=pa.int64()),
                "n_frames": pa.array(frames, type=pa.int64()),
                "wav_md5": pa.array(digests, type=pa.string()),
            }
        )

    return read_table(
        audio_path, columns=["media_ref", "audio"]
    ).map_batches(
        resample, batch_format="pyarrow", batch_size=128
    )


class MediaAHasher:
    """Task stage: decode -> 8x8 bilinear downscale -> 64-bit
    average hash (aHash: bit i = pixel_i > mean) — the standard
    perceptual fingerprint for image dedup. Deterministic, codec-free
    (same raw8 contract as the thumbnailer)."""

    BITS = 64

    def hash_one(self, payload) -> int:
        img = decode_media(payload)
        plane = img if img.ndim == 2 else img[:, :, 0]
        small = resize_bilinear(plane.astype(np.float32), 8, 8)
        bits = (small > small.mean()).ravel()
        return int(np.packbits(bits).view(">u8")[0])

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs, hashes = [], []
        for ref, payload in _payloads(batch):
            refs.append(ref)
            hashes.append(self.hash_one(payload))
        return pa.table(
            {
                "media_ref": pa.array(refs, type=pa.string()),
                "ahash": pa.array(np.array(hashes, dtype=np.uint64)),
            }
        )


def media_ahash(media_path: str) -> rd.Dataset:
    return read_media(media_path).map_batches(
        MediaAHasher(), batch_format="pyarrow", batch_size=128
    )


def media_ahash_neardup(media_path: str, max_hamming: int = 2) -> rd.Dataset:
    """Image near-duplicate pairs by aHash hamming distance <=
    `max_hamming` — exact over the banded candidate space: the 64-bit
    hash splits into `max_hamming + 1` bands, so any pair within the
    distance budget shares at least one unchanged band (pigeonhole);
    banding is therefore LOSSLESS for the threshold, like the SymSpell
    blocking in `fuzzy_name_pairs`.

    Scale shape: one keyed repartition on (band, band value) groups
    candidates; per block, pairs are generated within each (usually
    tiny) bucket and hamming-verified exactly; a second repartition on
    the pair's first ref dedupes pairs that matched in multiple bands
    with a per-block drop_duplicates (co-located by construction).
    """
    import pandas as pd

    from ocrs_ray.pipeline import default_npart

    npart = default_npart()
    n_bands = max_hamming + 1
    width = 64 // n_bands

    def bands(batch: pa.Table) -> pa.Table:
        refs = batch.column("media_ref").to_pylist()
        hashes = batch.column("ahash").to_numpy(zero_copy_only=False)
        out_b, out_v, out_r, out_h = [], [], [], []
        for band in range(n_bands):
            shift = np.uint64(band * width)
            mask = np.uint64((1 << width) - 1) if band < n_bands - 1 else np.uint64(
                (1 << (64 - band * width)) - 1
            )
            vals = (hashes >> shift) & mask
            out_b.extend([band] * len(refs))
            out_v.extend(vals.tolist())
            out_r.extend(refs)
            out_h.extend(hashes.tolist())
        return pa.table(
            {
                "band": pa.array(out_b, type=pa.int32()),
                "band_val": pa.array(np.array(out_v, dtype=np.uint64)),
                "media_ref": pa.array(out_r, type=pa.string()),
                "ahash": pa.array(np.array(out_h, dtype=np.uint64)),
            }
        )

    def pairs(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        a_out, b_out, d_out = [], [], []
        for _, g in df.groupby(["band", "band_val"], sort=False):
            if len(g) < 2:
                continue
            refs = g["media_ref"].to_numpy()
            hs = g["ahash"].to_numpy().astype(np.uint64)
            order = np.argsort(refs, kind="stable")
            refs, hs = refs[order], hs[order]
            for i in range(len(refs)):
                for j in range(i + 1, len(refs)):
                    if refs[i] == refs[j]:
                        continue
                    d = int(bin(int(hs[i]) ^ int(hs[j])).count("1"))
                    if d <= max_hamming:
                        a_out.append(refs[i])
                        b_out.append(refs[j])
                        d_out.append(d)
        if not a_out:
            return _empty_pairs()
        return pd.DataFrame(
            {
                "media_a": pd.Series(a_out, dtype="object"),
                "media_b": pd.Series(b_out, dtype="object"),
                "hamming": pd.Series(d_out, dtype="int64"),
            }
        )

    def dedupe(df: "pd.DataFrame"):
        out = df.drop_duplicates(["media_a", "media_b"])
        if out.empty:
            return _empty_pairs()
        return out

    ds = media_ahash(media_path).map_batches(bands, batch_format="pyarrow")
    return (
        ds.repartition(npart, keys=["band", "band_val"])
        .map_batches(pairs, batch_format="pandas", batch_size=None)
        .repartition(npart, keys=["media_a"])
        .map_batches(dedupe, batch_format="pandas", batch_size=None)
    )


_REFS = pa.schema([("media_ref", pa.string())])


def _empty_refs() -> pa.Table:
    """Typed Arrow empty for the single-column media_ref result shape —
    zero-row object-dtype pandas columns trip Ray's size estimator (see
    CLAUDE.md)."""
    return _REFS.empty_table()


def _empty_pairs() -> pa.Table:
    """Typed Arrow empty for the (media_a, media_b, hamming) pair shape
    — same size-estimator rationale as `_empty_refs`."""
    return pa.table(
        {
            "media_a": pa.array([], type=pa.string()),
            "media_b": pa.array([], type=pa.string()),
            "hamming": pa.array([], type=pa.int64()),
        }
    )


def media_ahash_survivors(
    media_path: str,
    max_hamming: int = 2,
    broadcast_limit_bytes: int = 64 << 20,
) -> rd.Dataset:
    """Image dedup survivors: one representative per connected
    component of the aHash near-dup graph — the full image-dedup
    pipeline (hash -> lossless banded pairs -> distributed CC ->
    relabel -> keep-roots filter), the media-side mirror of the text
    corpus' `neardup_survivors`. The keeper is the lexicographically
    smallest media_ref of each component; singleton images survive
    unconditionally.

    Measured-size strategy on the PAIRED-ref set: under
    `broadcast_limit_bytes` the refs get a dense sorted int encoding in
    a driver dict (int order == lex order, so the CC min root IS the
    keeper) and the corpus streams through a vectorized isin filter
    against the broadcast loser set; above it nothing ref-count-sized
    touches the driver — refs hash-encode to 63-bit ints task-side
    (collision-checked via distinct counts), CC runs on the hashes, the
    lex-min keeper per component resolves via a root-keyed exchange, and
    the corpus filters through a ref-keyed `session.cogroup` with the
    loser rows. Both paths are exact and test-pinned equal
    (broadcast_limit_bytes=0 forces the distributed one)."""
    import hashlib

    import numpy as np
    import pandas as pd

    import ray

    from ocrs_ray.pipeline import default_npart

    from .analytics import _STAR_SCHEMA, cc_star_map, connected_components

    npart = default_npart()
    pairs = media_ahash_neardup(media_path, max_hamming=max_hamming)

    def _empty_r() -> pa.Table:
        return pa.table({"r": pa.array([], type=pa.string())})

    def distinct_refs(df: pd.DataFrame):
        u = pd.concat([df["media_a"], df["media_b"]]).unique()
        if len(u) == 0:
            return _empty_r()
        return pd.DataFrame({"r": u})

    def block_dedup(df: pd.DataFrame):
        out = df.drop_duplicates("r")
        if out.empty:
            return _empty_r()
        return out

    ref_ds = pairs.map_batches(distinct_refs, batch_format="pandas")
    ref_ds = (
        ref_ds.repartition(npart, keys=["r"])
        .map_batches(block_dedup, batch_format="pandas", batch_size=None)
        .materialize()
    )

    if ref_ds.size_bytes() <= broadcast_limit_bytes:
        inv = sorted(ref_ds.to_pandas()["r"]) if ref_ds.count() else []
        idx = {r: i for i, r in enumerate(inv)}
        idx_ref = ray.put(idx)

        def encode(df: pd.DataFrame) -> pd.DataFrame:
            idx = worker_value(idx_ref)
            return pd.DataFrame(
                {
                    "u": df["media_a"].map(idx).to_numpy(dtype="int64"),
                    "v": df["media_b"].map(idx).to_numpy(dtype="int64"),
                }
            )

        edges = pairs.map_batches(encode, batch_format="pandas")
        mapping = connected_components(edges)
        # Losers = non-root members; int order == lex order under the
        # dense sorted encoding, so the min-int root is the lex-min
        # keeper. Survivors are everything else — a streaming
        # vectorized isin filter, no relabel pass needed.
        losers_ref = ray.put(
            frozenset(inv[n] for n, m in mapping.items() if n != m)
        )

        def drop_losers(df: pd.DataFrame):
            refs = df["media_ref"]
            kept = refs[~refs.isin(worker_value(losers_ref))].to_numpy()
            if len(kept) == 0:
                return _empty_refs()
            return pd.DataFrame({"media_ref": kept})

        return read_table(media_path, columns=["media_ref"]).map_batches(
            drop_losers, batch_format="pandas"
        )

    # --- distributed path: nothing ref-count-sized on the driver ---

    def h63(refs) -> "np.ndarray":
        return np.fromiter(
            (
                int.from_bytes(hashlib.md5(r.encode()).digest()[:8], "big")
                & ((1 << 63) - 1)
                for r in refs
            ),
            dtype="int64",
            count=len(refs),
        )

    hashed_refs = ref_ds.map_batches(
        lambda df: pd.DataFrame({"h": h63(df["r"].tolist()), "r": df["r"]}),
        batch_format="pandas",
    ).materialize()

    # Collision check: distinct hash count must equal distinct ref
    # count (ref_ds is already distinct). Two tiny count aggregates.
    hs = hashed_refs.map_batches(
        lambda df: pd.DataFrame({"h": df["h"].unique()}), batch_format="pandas"
    )
    n_hashes = (
        hs.repartition(npart, keys=["h"])
        .map_batches(
            lambda df: df.drop_duplicates("h"),
            batch_format="pandas",
            batch_size=None,
        )
        .count()
    )
    n_refs = ref_ds.count()
    if n_hashes != n_refs:
        raise RuntimeError(
            f"media_ahash_survivors: 63-bit ref-hash collision "
            f"({n_refs} refs -> {n_hashes} hashes); use a wider encoding"
        )

    edges = pairs.map_batches(
        lambda df: pd.DataFrame(
            {"u": h63(df["media_a"].tolist()), "v": h63(df["media_b"].tolist())}
        ),
        batch_format="pandas",
    )
    star = cc_star_map(edges)  # (node, root) over 63-bit ref hashes

    # Attach each member's component root: cogroup (h, r) with the star
    # map on h (every paired ref is incident to an edge, so inner).
    members_schema = pa.schema([("r", pa.string()), ("root", pa.int64())])

    def resolve(hrefs: pd.DataFrame, stars: pd.DataFrame):
        m = hrefs.merge(stars, left_on="h", right_on="node", how="inner")
        if m.empty:
            return members_schema.empty_table()
        return m[members_schema.names]

    members = cogroup(
        [
            (hashed_refs, ["h"], pa.schema([("h", pa.int64()), ("r", pa.string())])),
            (star, ["node"], _STAR_SCHEMA),
        ],
        resolve,
        npart,
    )

    # Losers: members that are not the lex-min ref of their component
    # (one root-keyed repartition, vectorized min-rank per block).
    def losers(df: pd.DataFrame):
        if df.empty:
            return _empty_refs()
        df = df.sort_values(["root", "r"], kind="stable")
        lose = (df.groupby("root").cumcount() > 0).to_numpy()
        out = df["r"].to_numpy()[lose]
        if len(out) == 0:
            return _empty_refs()
        return pd.DataFrame({"media_ref": out})

    loser_ds = members.repartition(npart, keys=["root"]).map_batches(
        losers, batch_format="pandas", batch_size=None
    )

    # Survivors: corpus refs minus losers via a ref-keyed cogroup (the
    # sparse loser side cogroups instead of native-joining).
    def keep(corpus: pd.DataFrame, lost: pd.DataFrame):
        refs = corpus["media_ref"]
        kept = refs[~refs.isin(set(lost["media_ref"]))].to_numpy()
        if len(kept) == 0:
            return _empty_refs()
        return pd.DataFrame({"media_ref": kept})

    return cogroup(
        [
            (read_table(media_path, columns=["media_ref"]), ["media_ref"], _REFS),
            (loser_ds, ["media_ref"], _REFS),
        ],
        keep,
        npart,
    )


def write_media_webdataset(ds: rd.Dataset, out_dir: str) -> rd.Dataset:
    """WebDataset tar shard sink for the MEDIA table: per sample a
    `<media_ref>.bin` opaque image payload and a `<media_ref>.json`
    sidecar with the typed metadata (height/width/channels/format) —
    the layout multimodal training loaders stream sequentially. Each
    BLOCK writes one shard task-side (no driver collect) through the
    shared `sources.encode_shard_samples` kernel (byte-deterministic);
    stale shard-*.tar files are cleared first so reruns with different
    block boundaries cannot leave old generations behind. Returns the
    materialized (path, n_media) manifest."""
    import os

    from .sources import clear_webdataset_shards, encode_shard_samples

    os.makedirs(out_dir, exist_ok=True)
    clear_webdataset_shards(out_dir)

    def write_block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {
                    "path": pa.array([], type=pa.string()),
                    "n_media": pa.array([], type=pa.int64()),
                }
            )
        cols = {name: b.column(name).to_pylist() for name in MEDIA_COLUMNS}
        items = [
            (
                cols["media_ref"][i],
                cols["image"][i],
                {
                    name: cols[name][i]
                    for name in MEDIA_COLUMNS
                    if name != "image"
                },
            )
            for i in range(b.num_rows)
        ]
        path = os.path.join(out_dir, f"shard-{min(cols['media_ref'])}.tar")
        with open(path, "wb") as f:
            f.write(encode_shard_samples(items, ".bin"))
        return pa.table(
            {
                "path": pa.array([path], type=pa.string()),
                "n_media": pa.array([b.num_rows], type=pa.int64()),
            }
        )

    return ds.map_batches(
        write_block, batch_format="pyarrow", batch_size=None
    ).materialize()


@source
def media_from_webdataset(path_dir: str) -> rd.Dataset:
    """WebDataset source for the media table: one read task per .tar
    shard, decoded through the shared `sources.decode_shard_samples`
    kernel into MEDIA_COLUMNS with the image payload intact as opaque
    binary."""
    from .sources import decode_shard_samples

    def decode(batch: pa.Table) -> pa.Table:
        rows: dict[str, list] = {name: [] for name in MEDIA_COLUMNS}
        for raw in batch.column("bytes").to_pylist():
            for _key, payload, meta in decode_shard_samples(raw, ".bin"):
                rows["image"].append(payload)
                rows["media_ref"].append(meta["media_ref"])
                for name in ("height", "width", "channels"):
                    rows[name].append(int(meta[name]))
                rows["format"].append(meta["format"])
        return pa.table(
            {
                "media_ref": pa.array(rows["media_ref"], type=pa.string()),
                "image": pa.array(rows["image"], type=pa.binary()),
                "height": pa.array(rows["height"], type=pa.int32()),
                "width": pa.array(rows["width"], type=pa.int32()),
                "channels": pa.array(rows["channels"], type=pa.int32()),
                "format": pa.array(rows["format"], type=pa.string()),
            }
        )

    return rd.read_binary_files(path_dir).map_batches(
        decode, batch_format="pyarrow"
    )


def media_webdataset_roundtrip(media_path: str) -> rd.Dataset:
    """Sink/source coverage for binary-payload WebDataset shards: tar
    out the full media table, read it BACK, and emit per-row metadata
    plus the payload md5 — a lost sample, flipped byte, or mangled
    sidecar all change the output. Registered rows-only at the driver
    (the media table is corpus-internal, not a SQL view); the in-repo
    test value-compares the roundtrip against the source table
    exactly."""
    import hashlib
    import shutil
    import tempfile

    out_dir = tempfile.mkdtemp(prefix="ocrs_ray_mwds_")
    try:
        write_media_webdataset(read_media(media_path), out_dir)

        def digest(b: pa.Table) -> pa.Table:
            md5s = [
                hashlib.md5(raw).hexdigest()
                for raw in b.column("image").to_pylist()
            ]
            return pa.table(
                {
                    "media_ref": b.column("media_ref"),
                    "image_md5": pa.array(md5s, type=pa.string()),
                    "height": b.column("height"),
                    "width": b.column("width"),
                    "channels": b.column("channels"),
                    "format": b.column("format"),
                }
            )

        return (
            media_from_webdataset(out_dir)
            .map_batches(digest, batch_format="pyarrow")
            .materialize()
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
