"""Top-k and deterministic sampling over the documents table.

- `docs_topk_longest`: distributed top-k WITHOUT a global sort — each
  block keeps its local top-k (vectorized argpartition), the tiny
  candidate set reduces in one final block. `ds.sort` would be an
  all-to-all over every row; this ships k rows per block.
- `sample_documents`: content-deterministic sampling by md5(doc_id) —
  reproducible across runs, partitionings, and engines (the SQL oracle
  computes the same md5), unlike `ds.random_sample`.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

import ray.data as rd

from ..session import read_table

__all__ = [
    "docs_topk_longest",
    "sample_documents",
    "docs_split_stats",
    "docs_pack_chunks",
    "docs_shuffle_rank",
    "docs_length_outlier_filter",
    "source_budget_sample",
    "md5_bucket",
    "events_bottomk_sample",
]


def md5_bucket(ids, salt: str = "") -> np.ndarray:
    """First-8-hex-digit md5 bucket of str(id) + salt: the
    content-derived hash shared by every deterministic sampler,
    matching the SQL
    CAST(('0x' || substr(md5(CAST(id AS VARCHAR) || salt), 1, 8))
    AS UBIGINT). A non-empty salt decorrelates an op's selection from
    the other samplers' (they all draw from the unsalted hash)."""
    return np.fromiter(
        (
            int(hashlib.md5((str(d) + salt).encode()).hexdigest()[:8], 16)
            for d in ids
        ),
        dtype="int64",
        count=len(ids),
    )


def docs_topk_longest(sf_dir: str, k: int = 50) -> rd.Dataset:
    """Top-k documents by n_chars (ties: doc_id ascending)."""

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = df.sort_values(["n_chars", "doc_id"], ascending=[False, True])
        return g.head(k)[["doc_id", "n_chars"]]

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    ).map_batches(local_topk, batch_format="pandas")
    return ds.repartition(1).map_batches(
        local_topk, batch_format="pandas", batch_size=None
    )


def sample_documents(sf_dir: str, one_in: int = 20) -> rd.Dataset:
    """Keep docs where md5(doc_id) % one_in == 0 (deterministic)."""

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        sel = md5_bucket(df["doc_id"]) % one_in == 0
        return df.loc[sel, ["doc_id", "n_chars"]]

    return read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    ).map_batches(keep, batch_format="pandas")


def docs_split_stats(sf_dir: str) -> rd.Dataset:
    """Deterministic train/val/test partition of the corpus, reported
    as per-split (n_docs, sum_chars).

    Assignment keys on the top hex nibble of md5(doc_id) — 12/16 train,
    2/16 val, 2/16 test — so a document's split is a pure function of
    its id: stable across runs, partitionings, engines, and corpus
    growth (appending documents never reassigns existing ones, unlike
    `ds.random_sample` or position-modulo schemes). The 3-row key space
    is bounded by construction, so per-batch partials tree-reduce with
    no hash shuffle at any corpus size.
    """
    from .relational import tree_sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        nibble = md5_bucket(df["doc_id"]) >> 28
        out = pd.DataFrame(
            {
                "split": np.where(
                    nibble < 12, "train", np.where(nibble < 14, "val", "test")
                ),
                "n_docs": np.ones(len(df), dtype="int64"),
                "sum_chars": df["n_chars"].to_numpy(dtype="int64"),
            }
        )
        return out.groupby("split", as_index=False).sum()

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    ).map_batches(partial, batch_format="pandas")
    return tree_sum(ds, ["split"], ["n_docs", "sum_chars"])


def docs_pack_chunks(
    sf_dir: str, budget: int = 4096, partitions: int = 8
) -> rd.Dataset:
    """Sequence packing for training: assign every document a
    (pack_part, bin_id, bin_offset) slot in fixed-character-budget bins
    (concatenate-then-split packing — the GPT-style scheme where the
    stream is chunked at budget boundaries, so bins are exactly full
    and a document may straddle two bins).

    The corpus is hash-partitioned by md5(doc_id) % partitions and each
    partition packs independently in doc_id order — the only shape that
    scales (a single global packing order would serialize the corpus
    through one worker). Within a partition, a document starting at
    running total `start` lands at bin `start // budget`, offset
    `start % budget`. Deterministic and window-expressible, so the SQL
    oracle is bit-exact. One keyed repartition co-locates each
    partition (a block may hold several pack_parts when hash slots
    collide; the per-block groupby-cumsum handles that), then the
    packing itself is a vectorized sort + cumsum.
    """
    def add_part(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(),
                "n_chars": df["n_chars"].to_numpy(),
                "pack_part": md5_bucket(df["doc_id"]) % partitions,
            }
        )

    def pack(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "pack_part": pd.Series([], dtype="int64"),
                    "bin_id": pd.Series([], dtype="int64"),
                    "bin_offset": pd.Series([], dtype="int64"),
                }
            )
        df = df.sort_values(["pack_part", "doc_id"], kind="stable")
        start = df.groupby("pack_part")["n_chars"].cumsum() - df["n_chars"]
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(),
                "pack_part": df["pack_part"].to_numpy(),
                "bin_id": (start // budget).to_numpy(dtype="int64"),
                "bin_offset": (start % budget).to_numpy(dtype="int64"),
            }
        )

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    ).map_batches(add_part, batch_format="pandas")
    return ds.repartition(partitions, keys=["pack_part"]).map_batches(
        pack, batch_format="pandas", batch_size=None
    )


def docs_shuffle_rank(sf_dir: str, partitions: int = 8) -> rd.Dataset:
    """Deterministic global shuffle for training order: every
    document's 0-based rank under ORDER BY (md5(doc_id), doc_id) —
    computed WITHOUT a distributed sort.

    The md5 bucket is uniform over [0, 2^32), so fixed equal RANGES of
    the hash space are balanced partitions by construction: range
    partitioning needs no sampling pass, and composing global ranks
    needs only the per-range counts — a `partitions`-row exchange,
    prefix-summed on the driver — plus a vectorized local sort inside
    each range. `ds.sort` would sample, range-exchange, and merge every
    row; this moves each row exactly once into its range and ships
    `partitions` integers. Ties (32-bit md5 collisions) break by
    doc_id, and a collision never straddles ranges (same bucket ->
    same range), so the composition is exact.
    """
    from .relational import tree_sum

    def add_part(df: pd.DataFrame) -> pd.DataFrame:
        b = md5_bucket(df["doc_id"])
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(),
                "bucket": b,
                "part": (b * partitions) >> 32,
            }
        )

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {"part": df["part"], "n": np.ones(len(df), dtype="int64")}
        )
        return out.groupby("part", as_index=False).sum()

    base = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).map_batches(add_part, batch_format="pandas")

    counts = (
        tree_sum(base.map_batches(count_partial, batch_format="pandas"),
                 ["part"], ["n"])
        .to_pandas()
        .set_index("part")["n"]
    )
    offsets: dict[int, int] = {}
    start = 0
    for p in range(partitions):
        offsets[p] = start
        start += int(counts.get(p, 0))

    def rank_block(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for p, g in df.groupby("part", sort=True):
            g = g.sort_values(["bucket", "doc_id"], kind="stable")
            frames.append(
                pd.DataFrame(
                    {
                        "doc_id": g["doc_id"].to_numpy(),
                        "shuffle_rank": offsets[int(p)]
                        + np.arange(len(g), dtype="int64"),
                    }
                )
            )
        if not frames:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "shuffle_rank": pd.Series([], dtype="int64"),
                }
            )
        return pd.concat(frames, ignore_index=True)

    return base.repartition(partitions, keys=["part"]).map_batches(
        rank_block, batch_format="pandas", batch_size=None
    )


def docs_length_outlier_filter(sf_dir: str, q: float = 0.99) -> rd.Dataset:
    """Length-outlier removal by exact global quantile, computed from a
    value HISTOGRAM rather than a value shuffle.

    n_chars has a bounded integer domain, so per-batch
    (n_chars -> count) partials tree-reduce to one tiny block; the
    driver reads the cutoff off the cumulative histogram
    (quantile_disc convention: sorted element at 0-based rank
    ceil(q*n) - 1) and the corpus streams through a broadcast
    <= cutoff filter. No row ever shuffles — contrast
    `events_value_quantiles`, which co-locates each group's full value
    set and only scales while a group fits in one block. The same
    shape handles any bounded-domain column (token counts, scores in
    fixed micro-unit grids) at arbitrary corpus size.
    """
    from .relational import tree_sum

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {"n_chars": df["n_chars"], "n": np.ones(len(df), dtype="int64")}
        )
        return out.groupby("n_chars", as_index=False).sum()

    base = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    counts = (
        tree_sum(base.map_batches(hist, batch_format="pandas"), ["n_chars"], ["n"])
        .to_pandas()
        .sort_values("n_chars")
    )
    n = int(counts["n"].sum())
    k = int(np.ceil(q * n)) - 1
    cum = counts["n"].cumsum().to_numpy()
    cutoff = int(counts["n_chars"].to_numpy()[np.searchsorted(cum, k + 1)])

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        return df.loc[df["n_chars"] <= cutoff, ["doc_id", "n_chars"]]

    return base.map_batches(keep, batch_format="pandas")


def source_budget_sample(sf_dir: str, budget_chars: int = 3000) -> rd.Dataset:
    """Budget-driven mixture reweighting: subsample each source down to
    a target character budget (the Pile/DoReMi-style mixing step where
    over-represented sources are thinned toward a target distribution).

    Pass 1 tree-reduces per-source character totals (bounded source
    key space, no shuffle); the keep-rate per source is the INTEGER
    threshold min(1e6, budget*1e6 // total) — integer arithmetic on
    both sides, so no float boundary can disagree with the oracle.
    Pass 2 streams the corpus through a salted deterministic hash
    filter (md5(doc_id || ':mix'), salted so selection is independent
    of the split/sample ops' hash). Expected kept chars per source ~=
    budget; membership is a pure function of (doc_id, corpus totals).
    """
    from .relational import tree_sum

    def totals_partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {"source": df["source"], "t": df["n_chars"].to_numpy(dtype="int64")}
        )
        return out.groupby("source", as_index=False).sum()

    base = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"]
    )
    totals = (
        tree_sum(base.map_batches(totals_partial, batch_format="pandas"),
                 ["source"], ["t"])
        .to_pandas()
    )
    thr = {
        s: min(1_000_000, (budget_chars * 1_000_000) // int(t))
        for s, t in zip(totals["source"], totals["t"])
    }

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        salted = md5_bucket(df["doc_id"], salt=":mix")
        limit = df["source"].map(thr).to_numpy(dtype="int64")
        sel = (salted % 1_000_000) < limit
        return df.loc[sel, ["doc_id", "source", "n_chars"]]

    return base.map_batches(keep, batch_format="pandas")


def events_bottomk_sample(sf_dir: str, k: int = 20) -> rd.Dataset:
    """Deterministic k-per-group uniform sample via bottom-k hashing:
    per event_type, the k events with the smallest md5 hash (ties:
    event_id) — the distributed reservoir. Unlike a true reservoir it
    is content-deterministic (reruns and re-partitionings pick the SAME
    sample) and mergeable: each block keeps its local bottom-k, and
    bottom-k of unions == union of bottom-ks, so the reduce is exact.
    The same sketch doubles as a distinct-count estimator (k-minimum
    values) — the engine's sampling and cardinality families share it.

    Scale shape: local bottom-k per block (k rows per type per block
    cross the wire), one single-block final merge — the group space is
    the bounded type vocabulary; per-group k is a constant. No full
    shuffle, no global sort.
    """

    def local_bottomk(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "event_type": pd.Series([], dtype="object"),
                    "event_id": pd.Series([], dtype="int64"),
                    "h": pd.Series([], dtype="int64"),
                }
            )
        if "h" not in df.columns:
            df = pd.DataFrame(
                {
                    "event_type": df["event_type"].to_numpy(),
                    "event_id": df["event_id"].to_numpy(),
                    "h": md5_bucket(df["event_id"], salt=":bk"),
                }
            )
        df = df.sort_values(["event_type", "h", "event_id"], kind="stable")
        return df.groupby("event_type", sort=False).head(k)

    return (
        read_table(f"{sf_dir}/events.parquet", columns=["event_id", "event_type"])
        .map_batches(local_bottomk, batch_format="pandas")
        .repartition(1)
        .map_batches(local_bottomk, batch_format="pandas", batch_size=None)
    )
