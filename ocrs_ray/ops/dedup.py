"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram
Jaccard, embedding-cosine near-dup.

Scale shapes:
- exact dedup = hash column in `map_batches` + `groupby(hash)` min-id
  (the hash, not the full text, is what shuffles);
- MinHash+LSH = per-batch shingle->signature (vectorized) -> explode to
  (band, band_hash, doc_id) rows -> groupby band bucket -> candidate
  pairs -> exact-Jaccard verification via a Bloom-pruned distributed
  text join (`_attach_pair_texts`) — signatures and candidate texts
  shuffle, the corpus never materializes anywhere;
- embedding near-dup = exact triangle block-pair self-join (bounded
  per-task memory, no broadcast); `embedding_neardup_pairs_lsh` is the
  sub-quadratic approximate path.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..pipeline import worker_value
from ..session import cogroup, read_table
from .relational import hash_sum
from .text import TOKEN_CLASS_RE, read_documents

__all__ = [
    "dedup_normalized",
    "dedup_exact",
    "dedup_survivors",
    "streaming_dedup_filter",
    "fuzzy_name_pairs",
    "eval_decontaminate",
    "MinHashConfig",
    "minhash_signatures",
    "minhash_lsh_pairs",
    "simhash64",
    "ngram_jaccard",
    "ngram_jaccard_pairs",
    "repeated_substring_pairs",
    "embedding_neardup_pairs",
    "embedding_neardup_pairs_lsh",
    "snapshot_new_texts",
]

_MERSENNE = (1 << 61) - 1


def dedup_exact(sf_dir: str) -> rd.Dataset:
    """Keep the smallest doc_id per distinct text (by md5 key).

    Keyed repartition + per-block min instead of the hash-aggregate
    machinery: each md5 key's rows land in one block (verified
    one-block-per-partition semantics), so a per-block groupby-min is
    globally correct with the same shuffle volume and none of the
    aggregate-actor overhead.

    Arrow-native hot path: batches stay zero-copy pyarrow end to end;
    the local pre-dedupe (vectorized Arrow group_by on the raw text)
    runs BEFORE hashing, so md5 — the only per-row Python left, pinned
    by the DuckDB-md5 oracle — runs once per distinct text per batch,
    not once per row.
    """

    def add_hash(batch: pa.Table) -> pa.Table:
        grouped = batch.group_by("text").aggregate([("doc_id", "min")])
        keys = [
            hashlib.md5(t.encode("utf-8")).hexdigest()
            for t in grouped.column("text").to_pylist()
        ]
        return pa.table(
            {
                "text_md5": pa.array(keys, type=pa.string()),
                "doc_id": grouped.column("doc_id_min"),
            }
        )

    def block_min(t: pa.Table) -> pa.Table:
        g = t.group_by("text_md5").aggregate([("doc_id", "min")])
        return pa.table(
            {"text_md5": g.column("text_md5"), "doc_id": g.column("doc_id_min")}
        )

    from ocrs_ray.pipeline import default_npart

    npart = default_npart()
    ds = read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        add_hash, batch_format="pyarrow"
    )
    return ds.repartition(npart, keys=["text_md5"]).map_batches(
        block_min, batch_format="pyarrow", batch_size=None
    )


def dedup_survivors(sf_dir: str) -> rd.Dataset:
    """The cleaned corpus after exact dedup: every document whose
    doc_id is the keeper (min doc_id of its distinct text).

    Apply-side of `dedup_exact`: a native `left_semi` hash join of the
    full corpus against the winner-id set. Both sides scale with the
    corpus, so nothing is broadcast; the winner side ships only ids
    (never text), and left_semi emits each survivor exactly once with
    no build-side dedupe shuffle (cf. `orders_with_returns`,
    relational.py).
    """
    from ocrs_ray.pipeline import default_npart

    npart = default_npart()
    winners = dedup_exact(sf_dir).map_batches(
        lambda df: df[["doc_id"]], batch_format="pandas"
    )
    docs = read_documents(sf_dir, ["doc_id", "source", "n_chars"])
    return docs.join(
        winners,
        join_type="left_semi",
        num_partitions=npart,
        on=("doc_id",),
    )


def eval_decontaminate(
    sf_dir: str, one_in: int = 20, shingle_size: int = 3
) -> rd.Dataset:
    """Train-eval contamination scan: flag every training document that
    shares at least one word `shingle_size`-gram with the eval set,
    reporting the distinct-shingle overlap count.

    The eval set here is the deterministic 1-in-`one_in` md5 sample
    (standing in for a benchmark suite — tiny relative to the corpus by
    construction), so its distinct-shingle set is collected once on the
    driver and broadcast via ray.put; every corpus batch probes the
    broadcast set locally. That is the 100-TB shape: the small side
    ships once per node, the training side streams, and no shuffle
    happens at all. Contrast `ngram_jaccard_pairs`, which compares
    corpus x corpus and must shuffle signatures.
    """
    from .sampling import md5_bucket

    docs = read_documents(sf_dir, ["doc_id", "text"])

    def eval_shingles(df: pd.DataFrame) -> pd.DataFrame:
        sel = md5_bucket(df["doc_id"]) % one_in == 0
        out: set[str] = set()
        for t in df.loc[sel, "text"]:
            out.update(_shingles(t, shingle_size))
        return pd.DataFrame({"shingle": pd.Series(sorted(out), dtype="object")})

    # Driver-side collect is bounded by the EVAL suite's vocabulary,
    # not the corpus — the one case where materializing is right.
    ev = docs.map_batches(eval_shingles, batch_format="pandas")
    eval_set = frozenset(ev.to_pandas()["shingle"])
    ref = ray.put(eval_set)

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        sel = md5_bucket(df["doc_id"]) % one_in != 0
        ids_all = df.loc[sel, "doc_id"].to_numpy(dtype="int64")
        owners: list[int] = []
        shingles: list[str] = []
        for i, t in enumerate(df.loc[sel, "text"]):
            distinct = set(_shingles(t, shingle_size))
            owners.extend([i] * len(distinct))
            shingles.extend(distinct)
        if owners:
            # One vectorized membership probe for the whole batch
            # (C-speed hash lookups) instead of a per-doc set
            # intersection against the big broadcast set.
            hit = pd.Series(shingles, dtype="object").isin(worker_value(ref))
            counts = np.bincount(
                np.asarray(owners, dtype=np.int64)[hit.to_numpy()],
                minlength=len(ids_all),
            )
        else:
            counts = np.zeros(len(ids_all), dtype="int64")
        keep = counts > 0
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids_all[keep], dtype="int64"),
                "n_shared": pd.Series(counts[keep], dtype="int64"),
            }
        )

    return docs.map_batches(probe, batch_format="pandas")


@dataclass(frozen=True)
class MinHashConfig:
    num_perm: int = 128
    shingle_size: int = 3  # word n-grams
    bands: int = 32  # rows per band = num_perm // bands
    jaccard_threshold: float = 0.5
    seed: int = 7


def _stable_hash_u64(values: list[str]) -> np.ndarray:
    """Stable 64-bit hashes of strings (vectorized via pandas)."""
    return pd.util.hash_array(np.asarray(values, dtype=object)).astype(np.uint64)


def _shingles(text: str, k: int) -> list[str]:
    toks = text.split()
    if len(toks) < k:
        return [" ".join(toks)] if toks else []
    return [" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)]


class MinHasher:
    """The permutation coefficients, built once with the stage; passed
    to `map_batches` as an instance, so the stage runs as tasks.

    The hash family is multiply-shift over uint64 with natural
    wraparound (a*x + b mod 2^64) — fully vectorized numpy, ~75x faster
    per doc than arbitrary-precision `(a*x + b) % (2^61 - 1)`. MinHash
    only needs a deterministic near-uniform family for candidate
    RECALL; precision is guaranteed downstream by the exact-Jaccard
    verification stage, so the family swap cannot change final results
    beyond recall noise (covered by the banding margin).
    """

    def __init__(self, cfg: MinHashConfig, with_text_hash: bool = False):
        self.cfg = cfg
        self.with_text_hash = with_text_hash
        rng = np.random.default_rng(cfg.seed)
        self.a = (
            rng.integers(1, _MERSENNE, size=cfg.num_perm, dtype=np.int64)
            .astype(np.uint64)
            # multiply-shift needs odd multipliers for full-period mixing
            | np.uint64(1)
        )
        self.b = rng.integers(0, _MERSENNE, size=cfg.num_perm, dtype=np.int64).astype(
            np.uint64
        )

    def signature(self, shingle_hashes: np.ndarray) -> np.ndarray:
        if len(shingle_hashes) == 0:
            return np.full(self.cfg.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        s = shingle_hashes.astype(np.uint64)
        with np.errstate(over="ignore"):
            perm = self.a[:, None] * s[None, :] + self.b[:, None]
        return perm.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        sigs = []
        for t in texts:
            sh = _stable_hash_u64(_shingles(t, self.cfg.shingle_size))
            sigs.append(self.signature(np.unique(sh)))
        sig_arr = np.stack(sigs) if sigs else np.zeros((0, self.cfg.num_perm), np.uint64)
        cols = {
            "doc_id": batch.column("doc_id"),
            "signature": pa.array(
                [s.astype(np.int64) for s in sig_arr], type=pa.list_(pa.int64())
            ),
        }
        if self.with_text_hash:
            h0, h1 = _md5_pair(texts)
            cols["th0"] = pa.array(h0, type=pa.int64())
            cols["th1"] = pa.array(h1, type=pa.int64())
        return pa.table(cols)


def minhash_signatures(sf_dir: str, cfg: MinHashConfig | None = None) -> rd.Dataset:
    cfg = cfg or MinHashConfig()
    return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        MinHasher(cfg), batch_format="pyarrow"
    )


def _band_rows(batch: pa.Table, cfg: MinHashConfig) -> pa.Table:
    """Explode signatures to (band_id, band_hash, doc_id) rows.

    The band hash is a vectorized FNV-1a-style uint64 mix over the
    band's signature chunk (one pass over a (docs, bands, rows) cube) —
    it only needs to identify EQUAL chunks; a collision merely adds a
    candidate pair that the exact-Jaccard verifier discards.
    """
    has_th = "th0" in batch.column_names
    if batch.num_rows == 0:
        cols = {
            "band_id": pa.array([], type=pa.int32()),
            "band_hash": pa.array([], type=pa.int64()),
            "doc_id": pa.array([], type=pa.int64()),
        }
        if has_th:
            cols["th0"] = pa.array([], type=pa.int64())
            cols["th1"] = pa.array([], type=pa.int64())
        return pa.table(cols)
    sigs = np.asarray(batch.column("signature").to_pylist(), dtype=np.int64)
    doc = np.asarray(batch.column("doc_id").to_pylist(), dtype=np.int64)
    n = len(doc)
    rows_per_band = cfg.num_perm // cfg.bands
    cube = sigs.view(np.uint64).reshape(n, cfg.bands, rows_per_band)
    h = np.full((n, cfg.bands), 14695981039346656037, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for r in range(rows_per_band):
            h = (h ^ cube[:, :, r]) * np.uint64(1099511628211)
    cols = {
        "band_id": pa.array(
            np.tile(np.arange(cfg.bands, dtype=np.int32), n), type=pa.int32()
        ),
        "band_hash": pa.array(h.view(np.int64).ravel(), type=pa.int64()),
        "doc_id": pa.array(np.repeat(doc, cfg.bands), type=pa.int64()),
    }
    if has_th:
        cols["th0"] = pa.array(
            np.repeat(batch.column("th0").to_numpy(), cfg.bands), type=pa.int64()
        )
        cols["th1"] = pa.array(
            np.repeat(batch.column("th1").to_numpy(), cfg.bands), type=pa.int64()
        )
    return pa.table(cols)


def _jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    inter = len(a & b)
    union = len(a) + len(b) - inter
    return inter / union if union else 0.0


def ngram_jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    """Exact word n-gram Jaccard similarity (verification kernel)."""
    return _jaccard(set(_shingles(text_a, k)), set(_shingles(text_b, k)))


def _attach_pair_texts(
    pairs: rd.Dataset,
    docs: rd.Dataset,
    npart: int,
    n_bits: int = 1 << 22,
    broadcast_limit_bytes: int = 64 << 20,
) -> rd.Dataset:
    """Resolve candidate-pair texts distributively: (doc_a, doc_b) ->
    (doc_a, doc_b, text_a, text_b).

    The 100-TB shape (no whole-corpus driver collect anywhere):

    1. a Bloom filter over the pair doc ids is built distributively
       (fixed-size per-block bitsets OR-reduced — ids never leave their
       block) and broadcast once;
    2. the documents scan is pruned through the Bloom probe, so only
       (a small superset of) the docs that appear in some candidate
       pair survive — this small side materializes in the OBJECT STORE
       (not the driver) because two consumers read it;
    3. strategy selection on the MEASURED pruned size (the
       autoBroadcastJoinThreshold move): under `broadcast_limit_bytes`
       the candidate texts broadcast once via ray.put and attach in a
       single map (no extra shuffle — this is the bounded candidate
       set, never the corpus); above it, two native hash joins attach
       text_a then text_b, shuffling only candidate pairs + candidate
       texts (+ Bloom false positives, rate (1-e^{-kn/m})^k). The
       corpus streams through the probe untouched either way.

    Ray's join keeps the LEFT key name when right_on differs, so the
    right side's doc_id never collides; the right `text` column is
    renamed between the joins.
    """
    from .sketch import build_bloom

    def melt_ids(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": np.concatenate(
                    [
                        df["doc_a"].to_numpy(dtype="int64"),
                        df["doc_b"].to_numpy(dtype="int64"),
                    ]
                )
            }
        )

    bloom_ref = ray.put(
        build_bloom(pairs.map_batches(melt_ids, batch_format="pandas"), "doc_id", n_bits)
    )

    def bloom_probe(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df
        keep = worker_value(bloom_ref).contains(df["doc_id"].to_numpy(dtype="int64"))
        return df.loc[keep]

    cand_docs = docs.map_batches(
        bloom_probe, batch_format="pandas"
    ).materialize()  # bounded by the candidate set; consumed by 2 joins

    if cand_docs.size_bytes() <= broadcast_limit_bytes:
        texts: dict[int, str] = {}
        for b in cand_docs.iter_batches(batch_size=8192, batch_format="pyarrow"):
            texts.update(
                zip(b.column("doc_id").to_pylist(), b.column("text").to_pylist())
            )
        texts_ref = ray.put(texts)

        def attach_broadcast(df: pd.DataFrame) -> pd.DataFrame:
            t = worker_value(texts_ref)
            return df.assign(
                text_a=[t[a] for a in df["doc_a"]],
                text_b=[t[b] for b in df["doc_b"]],
            )

        return pairs.map_batches(attach_broadcast, batch_format="pandas")

    j1 = pairs.join(
        cand_docs, join_type="inner", num_partitions=npart,
        on=("doc_a",), right_on=("doc_id",),
    ).map_batches(
        lambda df: df.rename(columns={"text": "text_a"}), batch_format="pandas"
    )
    return j1.join(
        cand_docs, join_type="inner", num_partitions=npart,
        on=("doc_b",), right_on=("doc_id",),
    ).map_batches(
        lambda df: df.rename(columns={"text": "text_b"}), batch_format="pandas"
    )


_EMPTY_PAIRS = {
    "doc_a": pd.Series([], dtype="int64"),
    "doc_b": pd.Series([], dtype="int64"),
}


def _pairs_in_key_groups(
    batch: pd.DataFrame,
    key_cols: list[str],
    collapse_cols: list[str] | None = None,
) -> pd.DataFrame:
    """All (doc_a, doc_b) pairs within each key group of this block.

    The preceding hash repartition on the key co-locates each group;
    pairs are generated per run of the sorted block (vectorized
    triangle indices), not per-group Ray tasks.

    `collapse_cols` (the exact-text hash) is the hot-bucket guard:
    rows sharing the collapse key within a bucket are exact-duplicate
    texts, so they are collapsed to ONE representative (the min
    doc_id) before pair enumeration — a boilerplate page with 10^5
    exact copies contributes 1 row per bucket instead of 10^10
    candidate pairs. The local min IS the global representative:
    identical texts emit identical prefix tokens / band hashes, so
    every bucket a copy lands in contains the whole group. Callers
    expand representative pairs back to member pairs after
    verification (`_expand_rep_pairs` + `_intra_dup_pairs`), keeping
    the op exact.
    """
    if batch.empty:
        return pd.DataFrame(_EMPTY_PAIRS)
    sort_cols = [*key_cols, *(collapse_cols or []), "doc_id"]
    b = batch.sort_values(sort_cols, kind="stable")
    if collapse_cols:
        ck = b[key_cols[0]].astype(str)
        for c in [*key_cols[1:], *collapse_cols]:
            ck = ck + "|" + b[c].astype(str)
        ck = ck.to_numpy()
        first = np.concatenate([[True], ck[1:] != ck[:-1]])
        b = b.iloc[first]
    key = b[key_cols[0]].astype(str)
    for c in key_cols[1:]:
        key = key + "|" + b[c].astype(str)
    key = key.to_numpy()
    ids = b["doc_id"].to_numpy()
    boundaries = np.flatnonzero(key[1:] != key[:-1]) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(ids)]])
    out_a, out_b = [], []
    for s, e in zip(starts, ends):
        n = e - s
        if n < 2:
            continue
        iu = np.triu_indices(n, k=1)
        out_a.append(ids[s:e][iu[0]])
        out_b.append(ids[s:e][iu[1]])
    if not out_a:
        return pd.DataFrame(_EMPTY_PAIRS)
    return pd.DataFrame(
        {"doc_a": np.concatenate(out_a), "doc_b": np.concatenate(out_b)}
    )


def _local_dedup(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    return df.drop_duplicates(cols)


def _dedup_small(ds: rd.Dataset, cols: list[str], partitions: int = 8) -> rd.Dataset:
    """Global dedup of the VERIFIED pair set (after verification, never
    raw candidates): hash-partition on the pair so each pair lands in
    exactly one block, dedup per block. The shuffle payload is the
    verified set — normally tiny, but hash-partitioned (not a single
    block) so a pathological corpus with an m-doc duplicate clique and
    its m^2/2 surviving pairs still spreads across workers."""
    return ds.repartition(partitions, keys=cols).map_batches(
        _local_dedup, fn_kwargs={"cols": cols}, batch_format="pandas", batch_size=None
    )


def _md5_pair(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit exact-text key as two int64 columns (md5 digest halves).

    64 bits would risk birthday collisions at crawl scale (billions of
    docs); a collision here would silently merge two DIFFERENT texts
    into one exact-dup group and emit wrong pairs, so the full digest
    is carried."""
    n = len(texts)
    h0 = np.empty(n, dtype=np.int64)
    h1 = np.empty(n, dtype=np.int64)
    for i, t in enumerate(texts):
        d = hashlib.md5(t.encode("utf-8")).digest()
        h0[i] = int.from_bytes(d[:8], "big", signed=True)
        h1[i] = int.from_bytes(d[8:], "big", signed=True)
    return h0, h1


_EMPTY_MEMBERSHIP = {
    "rep_id": pd.Series([], dtype="int64"),
    "doc_id": pd.Series([], dtype="int64"),
}


def _exact_dup_membership(docs: rd.Dataset, npart: int) -> rd.Dataset:
    """(rep_id, doc_id) membership of every exact-duplicate text group
    of size >= 2, rep_id = global min doc_id (the rep itself included).

    One keyed exchange of 24 B (th0, th1, doc_id) rows — the same
    shuffle class as `dedup_exact`; texts never move. NOTE: the
    returned dataset is MATERIALIZED (callers measure its size for the
    broadcast-vs-cogroup expansion choice), so this builder runs its
    pipeline when CALLED — eager-stage convention applies."""
    def key_rows(batch: pa.Table) -> pa.Table:
        h0, h1 = _md5_pair(batch.column("text").to_pylist())
        return pa.table(
            {
                "th0": pa.array(h0, type=pa.int64()),
                "th1": pa.array(h1, type=pa.int64()),
                "doc_id": batch.column("doc_id"),
            }
        )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(_EMPTY_MEMBERSHIP)
        g = df.groupby(["th0", "th1"])["doc_id"]
        rep = g.transform("min").to_numpy()
        size = g.transform("size").to_numpy()
        keep = size >= 2
        return pd.DataFrame(
            {
                "rep_id": rep[keep],
                "doc_id": df["doc_id"].to_numpy()[keep],
            }
        )

    rows = docs.map_batches(key_rows, batch_format="pyarrow")
    out = rows.repartition(npart, keys=["th0", "th1"]).map_batches(
        finish, batch_format="pandas", batch_size=None
    )
    return out.materialize()


def _intra_dup_pairs(
    membership: rd.Dataset, npart: int, extra: dict | None = None
) -> rd.Dataset:
    """All (doc_a, doc_b) pairs inside each exact-dup group.

    Membership comes out of the text-hash repartition, but one
    map_batches later: a partition whose `finish` OUTPUT exceeds
    target_max_block_size is dynamically re-split by Ray, and a group
    cut across fragments would silently lose its cross-fragment pairs.
    So co-location is re-established here with one keyed exchange of
    16-byte (rep_id, doc_id) rows on rep_id — the one key a group is
    guaranteed to share — before the per-block triangle expansion.
    `extra` adds constant output columns (e.g. jaccard=1.0 — identical
    texts have Jaccard exactly 1, including the empty-shingle case)."""
    def expand(df: pd.DataFrame) -> pd.DataFrame:
        cols = dict(_EMPTY_PAIRS)
        for name, val in (extra or {}).items():
            cols[name] = pd.Series([], dtype=np.asarray([val]).dtype)
        if df.empty:
            return pd.DataFrame(cols)
        out = _pairs_in_key_groups(
            df.rename(columns={"rep_id": "grp"}), ["grp"]
        )
        for name, val in (extra or {}).items():
            out[name] = val
        return out if len(out) else pd.DataFrame(cols)

    return membership.repartition(npart, keys=["rep_id"]).map_batches(
        expand, batch_format="pandas", batch_size=None
    )


def _expand_rep_pairs(
    pairs: rd.Dataset,
    membership: rd.Dataset,
    npart: int,
    broadcast_limit_bytes: int,
    extra_cols: tuple[str, ...] = (),
) -> rd.Dataset:
    """Expand verified representative pairs to all member pairs:
    (ra, rb) -> {(min(a,b), max(a,b)) : a in G(ra), b in G(rb)};
    a rep absent from `membership` is a singleton group. Extra columns
    (e.g. the verified jaccard) replicate unchanged — identical texts
    per side mean the value is exact for every expanded pair.

    Measured-size strategy: `membership` holds only docs belonging to
    size>=2 exact-dup groups, and each such doc appears in at least one
    OUTPUT pair of this very op, so the broadcast side is never larger
    than the op's own result — under `broadcast_limit_bytes` it ships
    once via ray.put; above it, two `session.cogroup` passes attach
    each side's member list with one keyed exchange per side (pin both
    paths equal with broadcast_limit_bytes=0)."""
    def empty_out() -> pd.DataFrame:
        cols = dict(_EMPTY_PAIRS)
        for name in extra_cols:
            cols[name] = pd.Series([], dtype="float64")
        return pd.DataFrame(cols)

    def order_ab(df: pd.DataFrame) -> pd.DataFrame:
        a = df["doc_a"].to_numpy()
        b = df["doc_b"].to_numpy()
        out = pd.DataFrame(
            {"doc_a": np.minimum(a, b), "doc_b": np.maximum(a, b)}
        )
        for name in extra_cols:
            out[name] = df[name].to_numpy()
        return out

    if membership.size_bytes() <= broadcast_limit_bytes:
        groups: dict[int, list[int]] = {}
        for blk in membership.iter_batches(
            batch_size=65536, batch_format="pandas"
        ):
            for r, d in zip(blk["rep_id"], blk["doc_id"]):
                groups.setdefault(int(r), []).append(int(d))
        ref = ray.put({k: np.asarray(v, dtype=np.int64) for k, v in groups.items()})

        def _single(x):
            return np.asarray([int(x)], dtype=np.int64)

        def expand_broadcast(df: pd.DataFrame) -> pd.DataFrame:
            if df.empty:
                return empty_out()
            g = worker_value(ref)
            ma = [g.get(int(a), _single(a)) for a in df["doc_a"]]
            mb = [g.get(int(b), _single(b)) for b in df["doc_b"]]
            na = np.array([len(x) for x in ma])
            nb = np.array([len(x) for x in mb])
            reps = na * nb
            a_out = np.concatenate(
                [np.repeat(x, len(y)) for x, y in zip(ma, mb)]
            )
            b_out = np.concatenate(
                [np.tile(y, len(x)) for x, y in zip(ma, mb)]
            )
            out = pd.DataFrame({"doc_a": a_out, "doc_b": b_out})
            for name in extra_cols:
                out[name] = np.repeat(df[name].to_numpy(), reps)
            return order_ab(out)

        return pairs.map_batches(expand_broadcast, batch_format="pandas")

    # Distributed path: one cogroup pass per side. Membership rows and
    # pair rows co-locate on the side's rep key, then each partition
    # attaches that side's member list vectorized.
    members = pa.schema([("rep_id", pa.int64()), ("doc_id", pa.int64())])
    pair_schema = pa.schema(
        [("doc_a", pa.int64()), ("doc_b", pa.int64())]
        + [(name, pa.float64()) for name in extra_cols]
    )

    def one_side(ds: rd.Dataset, side: str) -> rd.Dataset:
        other = "doc_b" if side == "doc_a" else "doc_a"

        def resolve(m: pd.DataFrame, p: pd.DataFrame) -> pd.DataFrame:
            if p.empty:
                empty = pair_schema.empty_table().to_pandas()
                return empty[[side, other, *extra_cols]]
            groups: dict[int, np.ndarray] = {}
            if len(m):
                ms = m.sort_values("rep_id", kind="stable")
                kk = ms["rep_id"].to_numpy()
                mm = ms["doc_id"].to_numpy()
                cuts = np.flatnonzero(kk[1:] != kk[:-1]) + 1
                for key, arr in zip(
                    kk[np.concatenate([[0], cuts])],
                    np.split(mm, cuts),
                ):
                    groups[int(key)] = arr
            mem = [
                groups.get(int(k), np.asarray([int(k)], dtype=np.int64))
                for k in p[side]
            ]
            reps = np.array([len(x) for x in mem])
            out = pd.DataFrame(
                {
                    side: np.concatenate(mem),
                    other: np.repeat(p[other].to_numpy(), reps),
                }
            )
            for name in extra_cols:
                out[name] = np.repeat(p[name].to_numpy(), reps)
            return out

        return cogroup(
            [(membership, ["rep_id"], members), (ds, [side], pair_schema)],
            resolve,
            npart,
        )

    return one_side(one_side(pairs, "doc_a"), "doc_b").map_batches(
        lambda df: order_ab(df) if len(df) else empty_out(),
        batch_format="pandas",
    )


def _prefix_rows(
    batch: pd.DataFrame,
    k: int,
    threshold: float,
    with_text_hash: bool = False,
) -> pd.DataFrame:
    """Emit each doc's prefix-filter shingles as (token, doc_id) rows,
    optionally carrying the exact-text hash (th0, th1) for the
    hot-bucket pre-collapse in `_pairs_in_key_groups`.

    Prefix filtering principle (Chaudhuri/Bayardo AllPairs): order every
    doc's shingle set by one global total order (stable hash, tie-break
    on the string); if jaccard(A, B) >= t then |A∩B| >= ceil(t*|A|), so
    A and B must share a token within their first |S| - ceil(t*|S|) + 1
    shingles. Emitting only those prefixes keeps the shuffle small while
    candidate generation stays EXACT (no recall loss, unlike LSH).
    """
    if batch.empty:
        # Typed empty output: a zero-row object-dtype column breaks
        # Ray's block size estimator (CLAUDE.md empty-branch rule).
        out = {
            "token": pd.Series([], dtype="string"),
            "doc_id": pd.Series([], dtype="int64"),
        }
        if with_text_hash:
            out["th0"] = pd.Series([], dtype="int64")
            out["th1"] = pd.Series([], dtype="int64")
        return pd.DataFrame(out)
    toks: list[str] = []
    docs: list[int] = []
    h0s: list[int] = []
    h1s: list[int] = []
    if with_text_hash:
        th0, th1 = _md5_pair(list(batch["text"]))
    for i_row, (d, t) in enumerate(zip(batch["doc_id"], batch["text"])):
        sh = list(set(_shingles(t, k)))
        if not sh:
            # Empty-shingle docs are all mutual duplicates (jaccard 1.0);
            # route them through one sentinel bucket.
            emit = ["\x00<empty>"]
        else:
            order = np.lexsort(
                (np.asarray(sh, dtype=object), _stable_hash_u64(sh))
            )
            n = len(sh)
            plen = n - int(np.ceil(threshold * n)) + 1
            emit = [sh[i] for i in order[:plen]]
        toks.extend(emit)
        docs.extend([d] * len(emit))
        if with_text_hash:
            h0s.extend([th0[i_row]] * len(emit))
            h1s.extend([th1[i_row]] * len(emit))
    out = {"token": toks, "doc_id": np.asarray(docs, dtype="int64")}
    if with_text_hash:
        out["th0"] = np.asarray(h0s, dtype="int64")
        out["th1"] = np.asarray(h1s, dtype="int64")
    return pd.DataFrame(out)


def ngram_jaccard_pairs(
    sf_dir: str,
    threshold: float = 0.8,
    k: int = 3,
    documents: rd.Dataset | None = None,
    broadcast_limit_bytes: int = 64 << 20,
    collapse_exact: bool = True,
    expand_broadcast_limit_bytes: int | None = None,
) -> rd.Dataset:
    """EXACT all-pairs n-gram Jaccard dedup at threshold, without the
    O(n^2) cross join: prefix filtering (see `_prefix_rows`) generates a
    provably complete candidate set, hash-partitioned by token so pair
    enumeration is per-block; candidates dedup locally per block, verify
    with the exact Jaccard kernel, and the small verified set dedups
    globally in one block (dedup-late: no all-to-all on candidates).

    Unlike `minhash_lsh_pairs` (probabilistic recall), this matches the
    brute-force oracle bit-for-bit. Verification texts resolve through a
    Bloom-pruned distributed hash join (`_attach_pair_texts`) — no
    whole-corpus collect anywhere on the path.

    `collapse_exact` (default on) is the hot-bucket guard: exact-
    duplicate texts collapse to one representative per bucket BEFORE
    pair enumeration, so a boilerplate page with 10^5 identical copies
    contributes one candidate row per bucket instead of 10^10 candidate
    pairs; verified representative pairs expand back to member pairs
    and intra-group pairs union in afterwards — output identical to
    collapse_exact=False (pinned by test). NOTE the output itself is
    still quadratic in duplicate-group size (that IS the semantics);
    at corpus scale prefer the cluster/survivor ops, which stay linear.
    """
    docs = documents if documents is not None else read_documents(sf_dir, ["doc_id", "text"])

    prefix = docs.map_batches(
        _prefix_rows,
        fn_kwargs={
            "k": k,
            "threshold": threshold,
            "with_text_hash": collapse_exact,
        },
        batch_format="pandas",
    )

    from ocrs_ray.pipeline import default_npart

    npart = default_npart()
    # A pair can surface once per shared prefix token: dedup locally per
    # block (free), then globally — the global pair dedup is an
    # all-to-all over bare id pairs (16 B/row), far cheaper than letting
    # duplicated candidates ride through the text-join + verify stages.
    # The deduped candidate set materializes in the object store because
    # two consumers read it (the Bloom build and the text join).
    unique_pairs = prefix.repartition(npart, keys=["token"]).map_batches(
        _pairs_in_key_groups,
        fn_kwargs={
            "key_cols": ["token"],
            "collapse_cols": ["th0", "th1"] if collapse_exact else None,
        },
        batch_format="pandas",
        batch_size=None,
    ).map_batches(
        _local_dedup,
        fn_kwargs={"cols": ["doc_a", "doc_b"]},
        batch_format="pandas",
        batch_size=None,
    )
    unique_pairs = _dedup_small(unique_pairs, ["doc_a", "doc_b"]).materialize()

    # Integer threshold in micro-units: `inter/uni >= t` becomes
    # `inter * 1e6 >= t_micro * uni`, exact in int arithmetic (matches
    # the SQL oracle's integer comparison bit-for-bit).
    t_micro = int(round(threshold * 1_000_000))

    def exact_verify(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            return pd.DataFrame(_EMPTY_PAIRS)
        # Per-batch shingle memo: docs recur across the pairs of one
        # block (clique members arrive co-partitioned by doc_a).
        memo: dict[int, frozenset] = {}
        keep = []
        for a, b, ta, tb in zip(
            batch["doc_a"], batch["doc_b"], batch["text_a"], batch["text_b"]
        ):
            sa = memo.get(a)
            if sa is None:
                sa = memo[a] = frozenset(_shingles(ta, k))
            sb = memo.get(b)
            if sb is None:
                sb = memo[b] = frozenset(_shingles(tb, k))
            inter = len(sa & sb)
            uni = len(sa) + len(sb) - inter
            keep.append(inter * 1_000_000 >= t_micro * uni)
        return batch.loc[np.asarray(keep, dtype=bool), ["doc_a", "doc_b"]]

    with_texts = _attach_pair_texts(
        unique_pairs, docs, npart, broadcast_limit_bytes=broadcast_limit_bytes
    )
    verified = with_texts.map_batches(exact_verify, batch_format="pandas")
    if not collapse_exact:
        return verified
    membership = _exact_dup_membership(docs, npart)
    limit = (
        broadcast_limit_bytes
        if expand_broadcast_limit_bytes is None
        else expand_broadcast_limit_bytes
    )
    expanded = _expand_rep_pairs(verified, membership, npart, limit)
    return expanded.union(_intra_dup_pairs(membership, npart))


def minhash_lsh_pairs(
    sf_dir: str,
    cfg: MinHashConfig | None = None,
    documents: rd.Dataset | None = None,
    broadcast_limit_bytes: int = 64 << 20,
    collapse_exact: bool = True,
    expand_broadcast_limit_bytes: int | None = None,
) -> rd.Dataset:
    """Verified near-duplicate pairs via MinHash+LSH banding.

    Candidate generation shuffles only (band_hash, doc_id) rows; the
    final exact-Jaccard verification resolves texts through the
    Bloom-pruned distributed hash join (`_attach_pair_texts`) — no
    whole-corpus collect anywhere on the path.

    `collapse_exact` (default on) is the hot-bucket guard: exact-
    duplicate texts share EVERY band, so without it an m-copy
    boilerplate page floods each of its band buckets with m rows and
    m^2/2 candidate pairs. Copies collapse to one representative per
    bucket before pair enumeration; verified representative pairs
    expand back to member pairs (same jaccard — identical texts) and
    intra-group pairs (jaccard exactly 1.0) union in afterwards —
    output identical to collapse_exact=False (pinned by test).
    """
    cfg = cfg or MinHashConfig()
    docs = documents if documents is not None else read_documents(sf_dir, ["doc_id", "text"])

    sigs = docs.map_batches(MinHasher(cfg, collapse_exact), batch_format="pyarrow")
    bands = sigs.map_batches(
        _band_rows, fn_kwargs={"cfg": cfg}, batch_format="pyarrow"
    )

    from ocrs_ray.pipeline import default_npart

    npart = default_npart()
    # A pair can surface once per matching band: dedup locally per
    # block (free), then globally over bare id pairs, BEFORE the text
    # join — each surviving pair ships texts and verifies exactly once.
    unique_pairs = bands.repartition(npart, keys=["band_hash"]).map_batches(
        _pairs_in_key_groups,
        fn_kwargs={
            "key_cols": ["band_id", "band_hash"],
            "collapse_cols": ["th0", "th1"] if collapse_exact else None,
        },
        batch_format="pandas",
        batch_size=None,
    ).map_batches(
        _local_dedup,
        fn_kwargs={"cols": ["doc_a", "doc_b"]},
        batch_format="pandas",
        batch_size=None,
    )
    unique_pairs = _dedup_small(unique_pairs, ["doc_a", "doc_b"]).materialize()

    k, threshold = cfg.shingle_size, cfg.jaccard_threshold

    def jaccard_verify(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            return pd.DataFrame({**_EMPTY_PAIRS, "jaccard": pd.Series([], dtype="float64")})
        memo: dict[int, frozenset] = {}
        jac = []
        for a, b, ta, tb in zip(
            batch["doc_a"], batch["doc_b"], batch["text_a"], batch["text_b"]
        ):
            sa = memo.get(a)
            if sa is None:
                sa = memo[a] = frozenset(_shingles(ta, k))
            sb = memo.get(b)
            if sb is None:
                sb = memo[b] = frozenset(_shingles(tb, k))
            jac.append(_jaccard(sa, sb))
        batch = batch.assign(jaccard=jac)
        out = batch[batch["jaccard"] >= threshold]
        return out[["doc_a", "doc_b", "jaccard"]]

    with_texts = _attach_pair_texts(
        unique_pairs, docs, npart, broadcast_limit_bytes=broadcast_limit_bytes
    )
    verified = with_texts.map_batches(jaccard_verify, batch_format="pandas")
    if not collapse_exact:
        return verified
    membership = _exact_dup_membership(docs, npart)
    limit = (
        broadcast_limit_bytes
        if expand_broadcast_limit_bytes is None
        else expand_broadcast_limit_bytes
    )
    expanded = _expand_rep_pairs(
        verified, membership, npart, limit, extra_cols=("jaccard",)
    )
    return expanded.union(
        _intra_dup_pairs(membership, npart, extra={"jaccard": 1.0})
    )


def repeated_substring_pairs(
    sf_dir: str,
    k: int = 32,
    stride: int = 8,
    max_docs_per_gram: int | None = None,
) -> rd.Dataset:
    """EXACT repeated-substring detection across documents — the
    substring-level dedup primitive (Lee et al. 2022, "Deduplicating
    Training Data Makes Language Models Better"): for every unordered
    doc pair sharing at least one exact `k`-char substring sampled at
    `stride`, report the occurrence-pair count and each side's first
    matching position.

    Scale shape: per-doc gram extraction is a stateless map; a hash
    repartition on the gram co-locates all occurrences of each
    substring, so per-block pair partials are exact; partials (tiny:
    one row per (pair, block)) re-shuffle once on the pair key for the
    final sum/min combine. The gram payload is k bytes/row at 1/stride
    density — at 100 TB set `max_docs_per_gram` to cap degenerate hot
    substrings (boilerplate): buckets above the cap are dropped on
    both the Ray and oracle sides (HAVING count(distinct doc) <= cap),
    keeping the op exact for the capped semantics.
    """
    from ocrs_ray.pipeline import default_npart

    npart = default_npart()

    def grams(batch: pa.Table) -> pa.Table:
        ids, poss, gs = [], [], []
        for d, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            for pos in range(1, len(t) - k + 2, stride):
                ids.append(d)
                poss.append(pos)
                gs.append(t[pos - 1 : pos - 1 + k])
        return pa.table(
            {
                "gram": pa.array(gs, type=pa.string()),
                "doc_id": pa.array(ids, type=pa.int64()),
                "pos": pa.array(poss, type=pa.int64()),
            }
        )

    _EMPTY = {
        "doc_a": pd.Series([], dtype="int64"),
        "doc_b": pd.Series([], dtype="int64"),
        "n_shared_grams": pd.Series([], dtype="int64"),
        "first_pos_a": pd.Series([], dtype="int64"),
        "first_pos_b": pd.Series([], dtype="int64"),
    }

    def block_pairs(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(_EMPTY)
        # Vectorized pre-filter: a gram occurring once in the whole
        # block (the vast majority) can never produce a pair — drop
        # before the per-gram Python loop.
        df = df[df.duplicated("gram", keep=False)]
        if df.empty:
            return pd.DataFrame(_EMPTY)
        out: dict[tuple[int, int], list[int]] = {}
        for _, g in df.groupby("gram", sort=False):
            per_doc = g.groupby("doc_id")["pos"].agg(["count", "min"])
            if len(per_doc) < 2:
                continue
            if max_docs_per_gram is not None and len(per_doc) > max_docs_per_gram:
                continue
            docs = per_doc.index.to_numpy()
            cnt = per_doc["count"].to_numpy()
            mn = per_doc["min"].to_numpy()
            for i in range(len(docs)):
                for j in range(i + 1, len(docs)):
                    a, b = int(docs[i]), int(docs[j])
                    if a > b:
                        a, b = b, a
                        ca, cb = int(cnt[j]), int(cnt[i])
                        ma, mb = int(mn[j]), int(mn[i])
                    else:
                        ca, cb = int(cnt[i]), int(cnt[j])
                        ma, mb = int(mn[i]), int(mn[j])
                    acc = out.get((a, b))
                    if acc is None:
                        out[(a, b)] = [ca * cb, ma, mb]
                    else:
                        acc[0] += ca * cb
                        acc[1] = min(acc[1], ma)
                        acc[2] = min(acc[2], mb)
        if not out:
            return pd.DataFrame(_EMPTY)
        keys = np.array(list(out.keys()), dtype="int64")
        vals = np.array(list(out.values()), dtype="int64")
        return pd.DataFrame(
            {
                "doc_a": keys[:, 0],
                "doc_b": keys[:, 1],
                "n_shared_grams": vals[:, 0],
                "first_pos_a": vals[:, 1],
                "first_pos_b": vals[:, 2],
            }
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(_EMPTY)
        g = df.groupby(["doc_a", "doc_b"], as_index=False).agg(
            n_shared_grams=("n_shared_grams", "sum"),
            first_pos_a=("first_pos_a", "min"),
            first_pos_b=("first_pos_b", "min"),
        )
        return g

    ds = read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        grams, batch_format="pyarrow"
    )
    return (
        ds.repartition(npart, keys=["gram"])
        .map_batches(block_pairs, batch_format="pandas", batch_size=None)
        .repartition(npart, keys=["doc_a", "doc_b"])
        .map_batches(combine, batch_format="pandas", batch_size=None)
    )


def dup_gram_doc_fraction(sf_dir: str, n: int = 5) -> rd.Dataset:
    """Per-document duplicated-n-gram fraction (the RefinedWeb /
    Dolma-style cross-corpus quality signal): for each document, the
    share of its word `n`-gram positions whose gram occurs in at least
    two DISTINCT documents corpus-wide. Emits (doc_id, n_grams,
    n_dup_grams, dup_ppm) with the fraction as integer parts-per-
    million (floor), exactly matching the SQL oracle.

    Scale shape: per-doc gram extraction is a stateless map emitting
    one (gram, doc_id, cnt) row per DISTINCT gram per doc (local
    pre-combine — repeated grams within a doc shuffle once, not per
    occurrence); a hash repartition on the gram co-locates all docs
    holding each gram, so the >= 2-distinct-docs decision is exact
    per block and each block emits tiny (doc_id, n_dup) partials.
    The per-doc totals never shuffle with the grams: they ride a
    separate map branch and meet the partials in a UNION that hash-
    repartitions on doc_id (one block per partition on 2.49, verified
    across union branches — see CLAUDE.md), avoiding a sparse-side
    native join. The gram string itself is the shuffle key for
    bit-exactness vs the oracle; at 100 TB swap it for a 128-bit
    fingerprint (collision odds negligible) to cut shuffle bytes.

    Tokenizer note: the token class is the EXPLICIT ASCII-whitespace
    complement `TOKEN_CLASS_RE` on all three engines (Python re for
    gram extraction, Arrow RE2 for the denominator count, DuckDB RE2
    in the oracle) — `\\S` means different things to Python re
    (Unicode) and RE2 (ASCII), so under mixed `\\S` a doc containing
    NBSP would tokenize differently in numerator and denominator.
    """
    import re as _re

    from ocrs_ray.pipeline import default_npart

    npart = default_npart()
    tok = _re.compile(TOKEN_CLASS_RE)

    def grams(batch: pa.Table) -> pa.Table:
        ids, gs, cnts = [], [], []
        for d, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            w = tok.findall(t)
            local: dict[str, int] = {}
            for i in range(len(w) - n + 1):
                g = " ".join(w[i : i + n])
                local[g] = local.get(g, 0) + 1
            for g, c in local.items():
                ids.append(d)
                gs.append(g)
                cnts.append(c)
        return pa.table(
            {
                "gram": pa.array(gs, type=pa.string()),
                "doc_id": pa.array(ids, type=pa.int64()),
                "cnt": pa.array(cnts, type=pa.int64()),
            }
        )

    def block_dup_partials(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "n_dup": pd.Series([], dtype="int64"),
                "n_grams": pd.Series([], dtype="int64"),
            }
        )
        if df.empty:
            return empty
        # Rows are (gram, doc_id, cnt) with one row per distinct gram
        # per doc, so a gram appearing once in the block has exactly
        # one distinct doc — drop before grouping.
        df = df[df.duplicated("gram", keep=False)]
        if df.empty:
            return empty
        per_doc = df.groupby("doc_id", as_index=False)["cnt"].sum()
        return pd.DataFrame(
            {
                "doc_id": per_doc["doc_id"].to_numpy(),
                "n_dup": per_doc["cnt"].to_numpy(),
                "n_grams": np.zeros(len(per_doc), dtype="int64"),
            }
        )

    def totals(batch: pa.Table) -> pa.Table:
        nt = pc.count_substring_regex(
            batch.column("text"), pattern=TOKEN_CLASS_RE
        ).to_numpy(zero_copy_only=False)
        ng = np.maximum(nt.astype("int64") - (n - 1), 0)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_dup": pa.array(np.zeros(len(ng), dtype="int64")),
                "n_grams": pa.array(ng),
            }
        )

    def ppm(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "n_grams": pd.Series([], dtype="int64"),
                    "n_dup_grams": pd.Series([], dtype="int64"),
                    "dup_ppm": pd.Series([], dtype="int64"),
                }
            )
        ng = g["n_grams"].to_numpy()
        nd = g["n_dup"].to_numpy()
        ppm = np.where(ng > 0, (1_000_000 * nd) // np.maximum(ng, 1), 0)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "n_grams": ng,
                "n_dup_grams": nd,
                "dup_ppm": ppm.astype("int64"),
            }
        )

    docs = read_documents(sf_dir, ["doc_id", "text"])
    gram_rows = docs.map_batches(grams, batch_format="pyarrow")
    dup_partials = gram_rows.repartition(npart, keys=["gram"]).map_batches(
        block_dup_partials, batch_format="pandas", batch_size=None
    )
    total_rows = docs.map_batches(totals, batch_format="pyarrow")
    merged = dup_partials.union(total_rows)
    return hash_sum(merged, ["doc_id"], ["n_dup", "n_grams"], npart).map_batches(
        ppm, batch_format="pandas", batch_size=None
    )


def simhash64(sf_dir: str) -> rd.Dataset:
    """64-bit SimHash per document (Charikar 2002): sign of the
    token-hash bit-vote vector, emitted as hex.

    The token hash is the first 8 bytes of md5 (big-endian) — stable
    across library versions and exactly expressible in SQL
    (CAST('0x' || substr(md5(tok), 1, 16) AS UBIGINT)), so the op
    carries an exact DuckDB oracle instead of a rows-only check.
    Tokenization is the tri-engine `TOKEN_CLASS_RE` (explicit ASCII
    whitespace complement), which `_SIMHASH_CTE` uses verbatim — RE2
    '\\S+' would disagree on '\\v' (RE2 \\s excludes it) and Python
    str.split() on Unicode whitespace (NBSP etc.)."""
    tok_re = re.compile(TOKEN_CLASS_RE)

    def sh(batch: pa.Table) -> pa.Table:
        out = []
        memo: dict[str, int] = {}
        for text in batch.column("text").to_pylist():
            toks = tok_re.findall(text)
            if not toks:
                out.append("0" * 16)
                continue
            hashes = np.array(
                [
                    memo.get(t)
                    or memo.setdefault(
                        t, int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "big")
                    )
                    for t in toks
                ],
                dtype=np.uint64,
            )
            shifts = np.arange(64, dtype=np.uint64)
            bits = ((hashes[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
            votes = (2 * bits - 1).sum(axis=0)
            val = int(((votes > 0).astype(np.uint64) << shifts).sum(dtype=np.uint64))
            out.append(f"{val:016x}")
        return pa.table({"doc_id": batch.column("doc_id"), "simhash": out})

    return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        sh, batch_format="pyarrow"
    )


# Snapshot-B mutation — the ONE source of truth for the deterministic
# in-flight mutation every snapshot op shares (docs_snapshot_diff,
# snapshot_new_texts, extraction.web_extract_incremental, and their
# SQL oracles render from these): docs with doc_id % DEL == 0 are
# deleted, surviving doc_id % CHG == 0 get SNAPSHOT_REV_PREFIX
# prepended, doc_id % ADD == 0 re-ingest under id + SNAPSHOT_ID_OFFSET.
SNAPSHOT_DEL_MOD = 7
SNAPSHOT_CHG_MOD = 11
SNAPSHOT_ADD_MOD = 13
SNAPSHOT_REV_PREFIX = "rev2 "
SNAPSHOT_ID_OFFSET = 10_000_000


def snapshot_changed_mask(ids: np.ndarray) -> np.ndarray:
    return (ids % SNAPSHOT_DEL_MOD != 0) & (ids % SNAPSHOT_CHG_MOD == 0)


def snapshot_added_mask(ids: np.ndarray) -> np.ndarray:
    return ids % SNAPSHOT_ADD_MOD == 0


def snapshot_b_sql_cte(extra_cols: str = "") -> str:
    """The snapshot-B churn set as a SQL CTE body (changed + added
    rows with status), rendered from the shared constants."""
    return (
        f"SELECT doc_id, '{SNAPSHOT_REV_PREFIX}' || text AS text"
        f"{extra_cols}, 'changed' AS status FROM documents "
        f"WHERE doc_id % {SNAPSHOT_DEL_MOD} <> 0 "
        f"AND doc_id % {SNAPSHOT_CHG_MOD} = 0 "
        f"UNION ALL SELECT doc_id + {SNAPSHOT_ID_OFFSET} AS doc_id, text"
        f"{extra_cols}, 'added' AS status FROM documents "
        f"WHERE doc_id % {SNAPSHOT_ADD_MOD} = 0"
    )


def docs_snapshot_diff(sf_dir: str) -> rd.Dataset:
    """Corpus snapshot diff — the incremental-ingest primitive: compare
    snapshot A (the documents table) against snapshot B (a
    deterministic in-flight mutation of A: doc_id % 7 == 0 deleted,
    surviving doc_id % 11 == 0 re-texted, doc_id % 13 == 0 re-ingested
    under a new id) and emit one (doc_id, status) row per difference,
    status in {added, removed, changed}; unchanged docs are filtered
    out, so output is proportional to churn, not corpus size.

    Scale shape: both snapshots stream as (doc_id, content-md5) rows
    into one doc_id-keyed `session.cogroup`; each partition classifies
    its co-located ids vectorized — no native
    full-outer join (and none of its sparse-side hazards), and text
    never shuffles, only 16-byte digests. In production B would be a
    second table/scan; here it derives from A so the oracle is closed
    over the same parquet.
    """
    from ocrs_ray.pipeline import default_npart

    npart = default_npart()

    def side_a(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "h": [
                    hashlib.md5(t.encode("utf-8")).hexdigest()
                    for t in batch["text"]
                ],
            }
        )

    def side_b(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy()
        texts = batch["text"].to_numpy()
        keep = ids % SNAPSHOT_DEL_MOD != 0
        changed = snapshot_changed_mask(ids)
        out_ids = ids[keep].tolist()
        out_h = [
            hashlib.md5(
                ((SNAPSHOT_REV_PREFIX + t) if c else t).encode("utf-8")
            ).hexdigest()
            for t, c in zip(texts[keep], changed[keep])
        ]
        new_mask = snapshot_added_mask(ids)
        out_ids += (ids[new_mask] + SNAPSHOT_ID_OFFSET).tolist()
        out_h += [
            hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts[new_mask]
        ]
        return pd.DataFrame({"doc_id": pd.Series(out_ids, dtype="int64"), "h": out_h})

    def classify(a: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
        g = a.merge(b, on="doc_id", how="outer", suffixes=("_a", "_b"))
        ha, hb = g["h_a"], g["h_b"]
        status = np.where(
            hb.isna(),
            "removed",
            np.where(ha.isna(), "added", np.where(ha != hb, "changed", "unchanged")),
        )
        out = pd.DataFrame({"doc_id": g["doc_id"].to_numpy(), "status": status})
        return out[out["status"] != "unchanged"].reset_index(drop=True)

    docs = read_documents(sf_dir, ["doc_id", "text"])
    digests = pa.schema([("doc_id", pa.int64()), ("h", pa.string())])
    return cogroup(
        [
            (docs.map_batches(side_a, batch_format="pandas"), ["doc_id"], digests),
            (docs.map_batches(side_b, batch_format="pandas"), ["doc_id"], digests),
        ],
        classify,
        npart,
    )


def snapshot_new_texts(
    sf_dir: str, bloom_bits_per_key: int = 10
) -> rd.Dataset:
    """Incremental-ingest text anti-join: the docs of snapshot B (the
    same deterministic %7/11/13 mutation as `docs_snapshot_diff`)
    whose text appears NOWHERE in snapshot A — the "only process what
    is genuinely new" gate an incremental embed/dedup/extract run puts
    in front of itself. Emits (doc_id, status).

    Scale shape — a corpus-vs-corpus ANTI-join made overlap-
    proportional with two distributed Blooms (digests only, text
    never leaves its block):

    1. a Bloom over A's text digests ROUTES B: misses are DEFINITELY
       new (Blooms have no false negatives) and bypass the shuffle
       entirely; only B's maybe-duplicate subset enters the verify.
    2. a Bloom over B's digests PRUNES A: only A rows whose digest
       might collide with B enter the verify shuffle.

    The exact verify is one digest-keyed `session.cogroup` over the
    two pruned sides, so shuffle volume is O(|A ∩ B| + fp), not
    O(|A| + |B|). Costs three streaming passes over B (Bloom build,
    miss route, hit route) — each a pushdown 2-column read + md5,
    cheap next to the shuffle they avoid. B derives from A per the
    shared mutation so the oracle closes over the same parquet;
    production reads a second snapshot scan. Both Blooms size from the
    measured corpus count (~10 bits/key -> ~1% fp at k=5). Builder is
    EAGER (Bloom builds run when called — see CLAUDE.md timing note).
    """
    from ocrs_ray.pipeline import default_npart

    from .sketch import build_bloom

    npart = default_npart()
    n_docs = max(1, read_documents(sf_dir, ["doc_id"]).count())
    n_bits = 1 << min(
        30, max(20, int(np.ceil(np.log2(bloom_bits_per_key * n_docs))))
    )

    def _empty_b() -> pa.Table:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "status": pa.array([], type=pa.string()),
                "h": pa.array([], type=pa.string()),
                "h64": pa.array([], type=pa.int64()),
            }
        )

    def a_sigs(df: pd.DataFrame):
        if df.empty:
            return pa.table(
                {
                    "h": pa.array([], type=pa.string()),
                    "h64": pa.array([], type=pa.int64()),
                }
            )
        digs = [
            hashlib.md5(t.encode("utf-8")).digest()
            for t in pd.unique(df["text"])
        ]
        return pd.DataFrame(
            {
                "h": [d.hex() for d in digs],
                "h64": np.array(
                    [int.from_bytes(d[:8], "big", signed=True) for d in digs],
                    dtype="int64",
                ),
            }
        )

    def b_rows(df: pd.DataFrame):
        if df.empty:
            return _empty_b()
        ids = df["doc_id"].to_numpy()
        texts = df["text"].to_numpy()
        ch = snapshot_changed_mask(ids)
        ad = snapshot_added_mask(ids)
        out_ids = np.concatenate(
            [ids[ch], ids[ad] + SNAPSHOT_ID_OFFSET]
        ).astype("int64")
        if not len(out_ids):
            return _empty_b()
        out_status = ["changed"] * int(ch.sum()) + ["added"] * int(ad.sum())
        digs = [
            hashlib.md5(t.encode("utf-8")).digest()
            for t in [SNAPSHOT_REV_PREFIX + t for t in texts[ch]]
            + list(texts[ad])
        ]
        return pd.DataFrame(
            {
                "doc_id": out_ids,
                "status": out_status,
                "h": [d.hex() for d in digs],
                "h64": np.array(
                    [int.from_bytes(d[:8], "big", signed=True) for d in digs],
                    dtype="int64",
                ),
            }
        )

    docs = read_documents(sf_dir, ["doc_id", "text"])
    bloom_a_ref = ray.put(
        build_bloom(docs.map_batches(a_sigs, batch_format="pandas"), "h64", n_bits)
    )
    bloom_b_ref = ray.put(
        build_bloom(docs.map_batches(b_rows, batch_format="pandas"), "h64", n_bits)
    )

    # Bloom probes run as STATELESS task UDFs like every ops stage,
    # reading the broadcast filter once per worker process.
    def _route_b(df: pd.DataFrame, ref=None, keep_hits=True):
        if df.empty:
            return _empty_b()
        hit = worker_value(ref).contains(df["h64"].to_numpy())
        out = df.loc[hit if keep_hits else ~hit]
        return out.reset_index(drop=True) if len(out) else _empty_b()

    definitely_new = (
        docs.map_batches(b_rows, batch_format="pandas")
        .map_batches(
            _route_b,
            fn_kwargs={"ref": bloom_a_ref, "keep_hits": False},
            batch_format="pandas",
        )
        .select_columns(["doc_id", "status"])
    )

    def _prune_a(t: pa.Table, ref=None) -> pa.Table:
        """Keep A digests that might collide with B."""
        return t.filter(worker_value(ref).contains(t.column("h64").to_numpy()))

    b_cand = docs.map_batches(b_rows, batch_format="pandas").map_batches(
        _route_b,
        fn_kwargs={"ref": bloom_a_ref, "keep_hits": True},
        batch_format="pandas",
    )
    a_pruned = docs.map_batches(a_sigs, batch_format="pandas").map_batches(
        _prune_a, fn_kwargs={"ref": bloom_b_ref}, batch_format="pyarrow"
    )
    new_rows = _empty_b().select(["doc_id", "status"])

    def anti(b: pd.DataFrame, a: pd.DataFrame):
        keep = b.loc[~b["h"].isin(set(a["h"])), ["doc_id", "status"]]
        if keep.empty:
            return new_rows
        return keep.reset_index(drop=True)

    # The verify keys on h alone (no h64: the Bloom probes are done by
    # this point — don't pay 8 B/row of shuffle).
    verified_new = cogroup(
        [
            (b_cand, ["h"], _empty_b().select(["h", "doc_id", "status"]).schema),
            (a_pruned, ["h"], pa.schema([("h", pa.string())])),
        ],
        anti,
        npart,
    )
    return definitely_new.union(verified_new)


def simhash_neardup_pairs(sf_dir: str, max_hamming: int = 3) -> rd.Dataset:
    """Text near-duplicate pairs by SimHash hamming distance <=
    `max_hamming` (Manku, Jain & Das Sarma 2007 — the production
    web-scale simhash dedup design), EXACT over the banded candidate
    space: the 64-bit fingerprint splits into `max_hamming + 1` bands,
    so any pair within the distance budget agrees exactly on at least
    one band (pigeonhole) — banding is lossless for the threshold,
    the text mirror of `multimodal.media_ahash_neardup`.

    Scale shape: fingerprints are 8 bytes/doc (the whole corpus never
    shuffles); one keyed repartition on (band, band value) groups
    candidates, per-block buckets hamming-verify exactly, and a second
    repartition on doc_a collapses pairs that matched in multiple
    bands. Carries an exact DuckDB oracle (xor + bit_count over the
    same md5-derived fingerprints), unlike typical LSH ops whose
    recall is < 1.
    """
    from ocrs_ray.pipeline import default_npart

    npart = default_npart()
    n_bands = max_hamming + 1
    width = 64 // n_bands

    def bands(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        hashes = np.array(
            [int(s, 16) for s in batch.column("simhash").to_pylist()],
            dtype=np.uint64,
        )
        out_b, out_v, out_i, out_h = [], [], [], []
        for band in range(n_bands):
            shift = np.uint64(band * width)
            mask = (
                np.uint64((1 << width) - 1)
                if band < n_bands - 1
                else np.uint64((1 << (64 - band * width)) - 1)
            )
            vals = (hashes >> shift) & mask
            out_b.extend([band] * len(ids))
            out_v.extend(vals.tolist())
            out_i.extend(ids.tolist())
            out_h.extend(hashes.tolist())
        return pa.table(
            {
                "band": pa.array(out_b, type=pa.int32()),
                "band_val": pa.array(np.array(out_v, dtype=np.uint64)),
                "doc_id": pa.array(out_i, type=pa.int64()),
                "h": pa.array(np.array(out_h, dtype=np.uint64)),
            }
        )

    _EMPTY = {
        "doc_a": pd.Series([], dtype="int64"),
        "doc_b": pd.Series([], dtype="int64"),
        "hamming": pd.Series([], dtype="int64"),
    }

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(_EMPTY)
        df = df[df.duplicated(["band", "band_val"], keep=False)]
        if df.empty:
            return pd.DataFrame(_EMPTY)
        a_out, b_out, d_out = [], [], []
        for _, g in df.groupby(["band", "band_val"], sort=False):
            if len(g) < 2:
                continue
            ids = g["doc_id"].to_numpy()
            hs = g["h"].to_numpy().astype(np.uint64)
            order = np.argsort(ids, kind="stable")
            ids, hs = ids[order], hs[order]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    d = int(bin(int(hs[i]) ^ int(hs[j])).count("1"))
                    if d <= max_hamming:
                        a_out.append(int(ids[i]))
                        b_out.append(int(ids[j]))
                        d_out.append(d)
        return pd.DataFrame(
            {
                "doc_a": pd.Series(a_out, dtype="int64"),
                "doc_b": pd.Series(b_out, dtype="int64"),
                "hamming": pd.Series(d_out, dtype="int64"),
            }
        )

    def dedupe(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(_EMPTY)
        return df.drop_duplicates(["doc_a", "doc_b"])

    ds = simhash64(sf_dir).map_batches(bands, batch_format="pyarrow")
    return (
        ds.repartition(npart, keys=["band", "band_val"])
        .map_batches(pairs, batch_format="pandas", batch_size=None)
        .repartition(npart, keys=["doc_a"])
        .map_batches(dedupe, batch_format="pandas", batch_size=None)
    )


def embedding_neardup_pairs(
    sf_dir: str, threshold: float = 0.4, n_blocks: int | None = None
) -> rd.Dataset:
    """EXACT pairs of embeddings with cosine similarity >= threshold,
    as a triangle block-pair self-join — no driver materialization and
    no full-matrix broadcast anywhere.

    Shape: every vector hashes to one of B blocks and is replicated to
    the B block-pair buckets (i, j) containing its block (triangle of
    B(B+1)/2 buckets); a hash repartition on the bucket id co-locates
    each bucket, and the per-block kernel matmuls the two sub-blocks
    (upper triangle for the diagonal bucket). Each unordered pair is
    computed in exactly ONE bucket, so the output needs no dedup and
    matches the brute-force oracle bit-for-bit.

    Scale: the work is inherently O(N^2/B^2) per bucket x B^2 buckets
    (exactness at a cosine threshold cannot beat all-pairs); what this
    buys at 100 TB is bounded memory — a task holds 2 blocks of N/B
    vectors (choose B so N/B x dim fits a worker heap; replication
    shuffle volume is B x N x dim) — and full-cluster parallelism.
    `embedding_neardup_pairs_lsh` is the sub-quadratic approximate path.
    """
    from ocrs_ray.pipeline import cluster_ncpu, default_npart

    B = n_blocks or max(2, min(8, cluster_ncpu() // 2))
    npart = default_npart()

    def replicate(batch: pa.Table) -> pa.Table:
        vid = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        from .similarity import embedding_batch_matrix, f64_list_array

        emb = embedding_batch_matrix(batch)
        if len(vid) == 0:
            return pa.table(
                {
                    "pb": pa.array([], type=pa.int64()),
                    "vec_id": pa.array([], type=pa.int64()),
                    "blk": pa.array([], type=pa.int64()),
                    "unit": pa.array([], type=pa.list_(pa.float64())),
                }
            )
        n = np.linalg.norm(emb, axis=1)
        n[n == 0] = 1.0
        unit = emb / n[:, None]
        with np.errstate(over="ignore"):
            blk = (
                (vid.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
                >> np.uint64(32)
            ) % np.uint64(B)
        blk = blk.astype(np.int64)
        others = np.arange(B, dtype=np.int64)
        i = np.minimum(blk[:, None], others[None, :])
        j = np.maximum(blk[:, None], others[None, :])
        return pa.table(
            {
                "pb": pa.array((i * B + j).ravel(), type=pa.int64()),
                "vec_id": pa.array(np.repeat(vid, B), type=pa.int64()),
                "blk": pa.array(np.repeat(blk, B), type=pa.int64()),
                "unit": f64_list_array(np.repeat(unit, B, axis=0)),
            }
        )

    _EMPTY = {
        "vec_a": pd.Series([], dtype="int64"),
        "vec_b": pd.Series([], dtype="int64"),
    }

    def block_pairs(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(_EMPTY)
        out_a, out_b = [], []
        for pb, grp in df.groupby("pb", sort=False):
            i, j = divmod(int(pb), B)
            ids = grp["vec_id"].to_numpy(dtype="int64")
            blk = grp["blk"].to_numpy(dtype="int64")
            unit = np.stack(grp["unit"].to_numpy())
            if i == j:
                sims = unit @ unit.T
                r, c = np.nonzero(sims >= threshold)
                a, b = ids[r], ids[c]
                keep = a < b
                out_a.append(a[keep])
                out_b.append(b[keep])
            else:
                ai, aj = blk == i, blk == j
                if not ai.any() or not aj.any():
                    continue
                sims = unit[ai] @ unit[aj].T
                r, c = np.nonzero(sims >= threshold)
                u, v = ids[ai][r], ids[aj][c]
                out_a.append(np.minimum(u, v))
                out_b.append(np.maximum(u, v))
        if not out_a:
            return pd.DataFrame(_EMPTY)
        return pd.DataFrame(
            {"vec_a": np.concatenate(out_a), "vec_b": np.concatenate(out_b)}
        )

    rep = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(replicate, batch_format="pyarrow", batch_size=2048)
    return rep.repartition(npart, keys=["pb"]).map_batches(
        block_pairs, batch_format="pandas", batch_size=None
    )


def embedding_neardup_pairs_lsh(
    sf_dir: str,
    threshold: float = 0.4,
    n_planes: int = 4,
    n_tables: int = 16,
    seed: int = 23,
) -> rd.Dataset:
    """APPROXIMATE cosine near-dup pairs via random-hyperplane LSH
    banding — the sub-quadratic scale path next to the exact
    `embedding_neardup_pairs`.

    Each vector lands in `n_tables` sign-pattern buckets (Charikar
    2002: P[same bit] = 1 - theta/pi, so a pair at cosine >= t collides
    in >= 1 of T tables with prob 1 - (1 - p^b)^T — tune (b, T) to the
    threshold: the 4x16 default gives ~0.94 expected recall at t=0.4,
    higher at tighter thresholds); candidate pairs are
    enumerated per bucket after a hash repartition, deduped, and
    verified with the exact cosine via the same Bloom-join-free
    co-located kernel — verification ships only candidate vectors.
    Recall vs the exact op is pinned in tests (rows-only for the
    driver: recall < 1 by design).
    """
    from ocrs_ray.pipeline import default_npart

    npart = default_npart()

    def bucket_rows(batch: pa.Table) -> pa.Table:
        vid = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        from .similarity import embedding_batch_matrix, f64_list_array

        emb = embedding_batch_matrix(batch)
        if len(vid) == 0:
            return pa.table(
                {
                    "bucket": pa.array([], type=pa.int64()),
                    "vec_id": pa.array([], type=pa.int64()),
                    "unit": pa.array([], type=pa.list_(pa.float64())),
                }
            )
        n = np.linalg.norm(emb, axis=1)
        n[n == 0] = 1.0
        unit = emb / n[:, None]
        # Planes are a pure function of (seed, dim): every task derives
        # the same ones locally — nothing is broadcast.
        local_rng = np.random.default_rng(seed)
        planes = local_rng.standard_normal((n_tables, n_planes, emb.shape[1]))
        cols_b, cols_v, cols_u = [], [], []
        for t in range(n_tables):
            signs = (unit @ planes[t].T) > 0
            b = (signs * (1 << np.arange(n_planes))).sum(axis=1)
            cols_b.append(t * (1 << n_planes) + b)
            cols_v.append(vid)
            cols_u.append(unit)
        return pa.table(
            {
                "bucket": pa.array(np.concatenate(cols_b), type=pa.int64()),
                "vec_id": pa.array(np.concatenate(cols_v), type=pa.int64()),
                "unit": f64_list_array(np.concatenate(cols_u, axis=0)),
            }
        )

    _EMPTY = {
        "vec_a": pd.Series([], dtype="int64"),
        "vec_b": pd.Series([], dtype="int64"),
    }

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        """Per-bucket exact cosine verify; pairs dedup downstream
        (a pair can collide in several tables)."""
        if df.empty:
            return pd.DataFrame(_EMPTY)
        out_a, out_b = [], []
        for _, grp in df.groupby("bucket", sort=False):
            if len(grp) < 2:
                continue
            ids = grp["vec_id"].to_numpy(dtype="int64")
            unit = np.stack(grp["unit"].to_numpy())
            sims = unit @ unit.T
            r, c = np.nonzero(sims >= threshold)
            a, b = ids[r], ids[c]
            keep = a < b
            out_a.append(a[keep])
            out_b.append(b[keep])
        if not out_a:
            return pd.DataFrame(_EMPTY)
        return pd.DataFrame(
            {"vec_a": np.concatenate(out_a), "vec_b": np.concatenate(out_b)}
        )

    rows = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(bucket_rows, batch_format="pyarrow", batch_size=2048)
    pairs = rows.repartition(npart, keys=["bucket"]).map_batches(
        bucket_pairs, batch_format="pandas", batch_size=None
    )
    return _dedup_small(pairs, ["vec_a", "vec_b"], partitions=npart)


@ray.remote(num_cpus=0)
class _DedupShard:
    """One shard of the global seen-set for `streaming_dedup_filter`:
    holds the md5 keys whose hash lands on this shard. `claim` is
    atomic per actor (Ray actors process calls serially), so exactly
    one caller wins each key. num_cpus=0: the shards are memory
    holders that serve sub-millisecond set probes — giving them CPU
    slots would starve the claiming tasks on small clusters (the
    CPU-budget deadlock)."""

    def __init__(self):
        self.seen: set[bytes] = set()

    def claim(self, keys: list[bytes]) -> list[bool]:
        out = []
        for k in keys:
            if k in self.seen:
                out.append(False)
            else:
                self.seen.add(k)
                out.append(True)
        return out

    def size(self) -> int:
        return len(self.seen)


def streaming_dedup_filter(sf_dir: str, n_shards: int = 4) -> rd.Dataset:
    """Exact dedup as a STREAMING filter against a shared mutable
    index — the raw-actor tier (c) of the custom-operator ladder, for
    when rows must be admitted/rejected online (ingest pipelines) and a
    post-hoc shuffle pass (`dedup_exact`) is not an option.

    A pool of `n_shards` set-holding actors partitions the key space by
    content-hash; each batch claims its keys against the owning shards
    (one round-trip per shard per batch, keys only — text never leaves
    the batch) and keeps the rows that won. First-seen-wins: WHICH
    duplicate survives depends on arrival order, so the survivor ID set
    is nondeterministic across runs — but the survivor COUNT equals the
    distinct-text count and survivors are hash-unique, both pinned in
    tests. Use `dedup_exact` when deterministic min-id winners matter.

    Scale notes: shard count bounds per-actor memory (keys/shard =
    distinct/n_shards; 16 B md5 keys -> ~1e9 keys per 16 GiB shard) and
    call fan-in; the claiming stage runs as tasks, each batch sending
    one claim call per shard it touches, so claims pipeline with the
    read.
    """
    shards = [_DedupShard.remote() for _ in range(n_shards)]

    def claim(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            return batch
        keys = [hashlib.md5(t.encode()).digest() for t in batch["text"]]
        shard_of = [k[0] % len(shards) for k in keys]
        keep = np.zeros(len(keys), dtype=bool)
        per_shard: dict[int, list[int]] = {}
        for i, sh in enumerate(shard_of):
            per_shard.setdefault(sh, []).append(i)
        refs = {
            sh: shards[sh].claim.remote([keys[i] for i in idxs])
            for sh, idxs in per_shard.items()
        }
        for sh, idxs in per_shard.items():
            won = ray.get(refs[sh])
            keep[idxs] = won
        return batch.loc[keep]

    return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        claim, batch_format="pandas"
    )


def _lev(a: str, b: str, cap: int = 2) -> int:
    """Banded Levenshtein distance, early-exit above `cap` (returns
    cap+1). Strings here are short dictionary entries; the DP row is a
    few dozen cells."""
    if abs(len(a) - len(b)) > cap:
        return cap + 1
    if len(a) > len(b):
        a, b = b, a
    prev = list(range(len(a) + 1))
    for j, cb in enumerate(b, 1):
        cur = [j]
        best = j
        for i, ca in enumerate(a, 1):
            c = min(
                prev[i] + 1,
                cur[i - 1] + 1,
                prev[i - 1] + (ca != cb),
            )
            cur.append(c)
            best = min(best, c)
        if best > cap:
            return cap + 1
        prev = cur
    return prev[-1]


def _deletion_variants(name: str, d: int = 2) -> set[str]:
    """All strings reachable from `name` by deleting up to `d` chars —
    the SymSpell blocking key set: lev(a, b) <= d implies the variant
    sets intersect (substitutions delete one char from each side,
    insertions delete one from the longer), so blocking on shared
    variants is LOSSLESS for the verify step."""
    out = {name}
    frontier = {name}
    for _ in range(d):
        nxt = set()
        for s in frontier:
            for i in range(len(s)):
                nxt.add(s[:i] + s[i + 1 :])
        out |= nxt
        frontier = nxt
    return out


def fuzzy_name_pairs(sf_dir: str, max_dist: int = 2) -> rd.Dataset:
    """String-similarity self-join over the DISTINCT part-name
    dictionary: all name pairs within Levenshtein distance `max_dist`,
    with the exact distance — entity-resolution's core primitive,
    expressed with lossless SymSpell deletion-variant blocking instead
    of the quadratic all-pairs scan.

    Scale shape: the join runs on the NAME DICTIONARY (bounded by the
    vocabulary, not the row count — cf. `vocab_top_terms`), never on
    part rows. Stage 1 dedupes names per batch and explodes each into
    its <= sum_i C(L,i) deletion variants; the (variant, name) rows
    hash-shuffle by variant so every potentially-close pair meets in
    one block (the lossless-blocking guarantee: lev <= d implies a
    shared variant). Stage 2 emits per-bucket candidate pairs, a
    second keyed shuffle dedupes pairs (a pair can share many
    variants), and the banded-DP verify runs ONCE per distinct pair.
    At a 1e6-entry dictionary the variant shuffle is ~1e8 short rows —
    heavy but linear in the dictionary, vs 5e11 for all-pairs.
    """
    from ocrs_ray.pipeline import default_npart

    npart = default_npart()

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        names = pd.unique(batch["p_name"])
        var_col, name_col = [], []
        for n in names:
            for v in _deletion_variants(n, max_dist):
                var_col.append(v)
                name_col.append(n)
        return pd.DataFrame({"variant": var_col, "p_name": name_col})

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates()
        out_a, out_b = [], []
        for _, grp in df.groupby("variant", sort=False):
            names = sorted(set(grp["p_name"]))
            for i in range(len(names)):
                for j in range(i + 1, len(names)):
                    out_a.append(names[i])
                    out_b.append(names[j])
        return pd.DataFrame({"name_a": out_a, "name_b": out_b}).drop_duplicates()

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates()
        dist = [
            _lev(a, b, max_dist) for a, b in zip(df["name_a"], df["name_b"])
        ]
        out = df.assign(dist=pd.Series(dist, dtype="int64").to_numpy())
        return out[out["dist"] <= max_dist]

    return (
        read_table(f"{sf_dir}/part.parquet", columns=["p_name"])
        .map_batches(explode, batch_format="pandas", batch_size=None)
        .repartition(npart, keys=["variant"])
        .map_batches(bucket_pairs, batch_format="pandas", batch_size=None)
        .repartition(npart, keys=["name_a", "name_b"])
        .map_batches(verify, batch_format="pandas", batch_size=None)
    )


def dedup_normalized(sf_dir: str) -> rd.Dataset:
    """Exact dedup under text NORMALIZATION (collapse whitespace runs,
    trim, lowercase) — catches re-wrapped / re-cased copies that raw
    md5 misses, the standard first-tier key for web-corpus dedup
    before any near-dup sketching.

    Same physical shape as `dedup_exact` (per-batch pre-dedupe, keyed
    repartition on the hash, per-block min); only the key derivation
    differs, and it is pinned to the oracle's exact operation order
    and character classes by `text.normalize_ws_lower` (RE2's ASCII
    \\s, space-only trim).
    """
    from .text import normalize_ws_lower

    def add_hash(batch: pa.Table) -> pa.Table:
        # Pre-dedupe on the RAW text first (vectorized; raw-equal =>
        # normalized-equal), then normalize + md5 only distinct texts.
        grouped = batch.group_by("text").aggregate([("doc_id", "min")])
        keys = [
            hashlib.md5(normalize_ws_lower(t).encode("utf-8")).hexdigest()
            for t in grouped.column("text").to_pylist()
        ]
        out = pa.table(
            {
                "norm_md5": pa.array(keys, type=pa.string()),
                "doc_id": grouped.column("doc_id_min"),
            }
        )
        # Distinct raw texts can share a normalized key: dedupe again.
        g = out.group_by("norm_md5").aggregate([("doc_id", "min")])
        return pa.table(
            {"norm_md5": g.column("norm_md5"), "doc_id": g.column("doc_id_min")}
        )

    def block_min(t: pa.Table) -> pa.Table:
        g = t.group_by("norm_md5").aggregate([("doc_id", "min")])
        return pa.table(
            {"norm_md5": g.column("norm_md5"), "doc_id": g.column("doc_id_min")}
        )

    from ocrs_ray.pipeline import default_npart

    npart = default_npart()
    ds = read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        add_hash, batch_format="pyarrow"
    )
    return ds.repartition(npart, keys=["norm_md5"]).map_batches(
        block_min, batch_format="pyarrow", batch_size=None
    )
