"""Composed end-to-end training-data preparation pipeline.

The individual operators (quality gate, normalized dedup, split
assignment, chunking) each have their own `queries()` entry; this
module chains them into ONE lazy streaming Dataset — the shape a real
pretraining data-prep job runs — to demonstrate that the engine's
stages compose without materialization barriers:

    read -> quality gate (stateless map) -> normalized-dedup winners
    (the pipeline's one shuffle: keyed repartition on the norm hash,
    per-block min-doc survivor — text rides through the shuffle so no
    join-back is needed) -> split assign + chunk accounting (stateless
    map) -> bounded-key tree reduce (3 splits).

Every stage reuses the SAME kernels as its standalone operator
(`gopher_signals`, `normalize_ws_lower`, `md5_bucket`, the chunk
arithmetic of `docs_chunk_overlap`), and the whole chain is
SQL-expressible, so the driver value-hashes the composition end to
end — a one-stage bug anywhere in the chain shifts the final counts.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

import ray.data as rd

from .relational import tree_sum
from .sampling import md5_bucket
from .text import gopher_signals, normalize_ws_lower, read_documents

__all__ = ["pretrain_data_prep"]


def pretrain_data_prep(
    sf_dir: str, chunk_size: int = 32, stride: int = 24
) -> rd.Dataset:
    """Per-split (train/val/test) document, chunk, and chunk-token
    counts for the cleaned corpus: Gopher-gated, normalized-dedup'd,
    split by the stable md5-nibble rule, chunked with overlap.

    Scale shape: quality signals and the dedup key are map-side; the
    ONLY shuffle is the normalized-hash keyed repartition (survivor =
    min doc_id per key, exact per block since a key's rows co-locate);
    split/chunk accounting is arithmetic on the surviving rows; the
    3-key rollup tree-reduces. The full document text crosses the wire
    once (inside the dedup shuffle) and nothing is ever materialized.
    """
    from ocrs_ray.pipeline import default_npart

    npart = default_npart()

    def gate_and_key(batch: pd.DataFrame) -> pd.DataFrame:
        sig = gopher_signals(batch["text"])
        n_tok = sig["n_tokens"]
        kept = (
            (n_tok >= 20)
            & (n_tok <= 100_000)
            & (sig["mean_len_milli"] >= 3_000)
            & (sig["mean_len_milli"] <= 10_000)
            & (sig["top_tok_ppm"] <= 200_000)
            & (sig["stop_ppm"] >= 10_000)
        )
        b = batch.loc[kept]
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(),
                "norm_md5": [
                    hashlib.md5(normalize_ws_lower(t).encode("utf-8")).hexdigest()
                    for t in b["text"]
                ],
                "n_tokens": n_tok[kept],
            }
        )

    def survivors(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "n_tokens": pd.Series([], dtype="int64"),
                }
            )
        idx = df.groupby("norm_md5")["doc_id"].idxmin()
        return df.loc[idx, ["doc_id", "n_tokens"]].reset_index(drop=True)

    def split_and_chunks(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "split": pd.Series([], dtype="object"),
                    "n_docs": pd.Series([], dtype="int64"),
                    "n_chunks": pd.Series([], dtype="int64"),
                    "n_chunk_tokens": pd.Series([], dtype="int64"),
                }
            )
        nibble = md5_bucket(df["doc_id"].to_numpy()) >> 28
        split = np.where(nibble < 12, "train", np.where(nibble < 14, "val", "test"))
        n = df["n_tokens"].to_numpy()
        n_chunks = np.where(n == 0, 0, (np.maximum(n, 1) - 1) // stride + 1)
        # sum_{i<c} min(chunk_size, n - i*stride), closed form: the
        # first f chunks are full (n - i*stride >= chunk_size <=>
        # i <= (n - chunk_size)/stride), the rest are the arithmetic
        # tail sum (c-f)*n - stride*(f + ... + c-1).
        full = np.where(
            n >= chunk_size, (n - chunk_size) // stride + 1, 0
        ).astype("int64")
        full = np.minimum(full, n_chunks)
        tail = n_chunks - full
        chunk_tokens = (
            full * chunk_size
            + tail * n
            - stride * (tail * full + tail * (tail - 1) // 2)
        ).astype("int64")
        out = pd.DataFrame(
            {
                "split": split,
                "n_docs": np.ones(len(df), dtype="int64"),
                "n_chunks": n_chunks.astype("int64"),
                "n_chunk_tokens": chunk_tokens,
            }
        )
        return out.groupby("split", as_index=False).sum()

    ds = (
        read_documents(sf_dir, ["doc_id", "text"])
        .map_batches(gate_and_key, batch_format="pandas")
        .repartition(npart, keys=["norm_md5"])
        .map_batches(survivors, batch_format="pandas", batch_size=None)
        .map_batches(split_and_chunks, batch_format="pandas")
    )
    return tree_sum(ds, ["split"], ["n_docs", "n_chunks", "n_chunk_tokens"])
