"""Mergeable-sketch operators: t-digest quantiles and Bloom semi-join.

Both follow the same at-scale shape as the exact aggregates they
approximate, but the shuffle payload is a fixed-size summary instead of
per-key rows:

- `events_value_tdigest`: per-block t-digests per event_type merge
  associatively, so the reduce ships ~delta centroids per (type, block)
  regardless of row count — the scale path when exact grouped quantiles
  (`events_value_quantiles`) would shuffle the full column.
- `active_customers_bloom`: per-block Bloom bitsets OR-reduce into one
  filter that is broadcast to probe the other side — the classic
  shuffle-free approximate semi-join (superset semantics, bounded FPR).

Approximate by design — rows-only for the driver; error bounds and
superset/mergeability guarantees pinned in tests.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray
import ray.data as rd

from ..pipeline import worker_value
from ..session import read_table

__all__ = [
    "TDigest",
    "tdigest_from_values",
    "tdigest_merge_all",
    "events_value_tdigest",
    "BloomFilter",
    "build_bloom",
    "active_customers_bloom",
]


# ---------------------------------------------------------------------------
# t-digest (Dunning & Ertl, "Computing extremely accurate quantiles
# using t-digests"; k1 scale function)


class TDigest:
    """Mergeable quantile sketch: centroids (mean, weight) kept small by
    compressing under the k1 scale-function bound. Relative accuracy is
    highest at the tails (the property that makes p95/p99 reliable)."""

    __slots__ = ("delta", "means", "weights")

    def __init__(self, delta: int = 100, means=None, weights=None):
        self.delta = delta
        self.means = np.asarray([] if means is None else means, dtype=np.float64)
        self.weights = np.asarray([] if weights is None else weights, dtype=np.float64)

    # -- construction -------------------------------------------------

    @staticmethod
    def of(values: np.ndarray, delta: int = 100) -> "TDigest":
        d = TDigest(delta, values, np.ones(len(values)))
        return d.compress()

    def merge(self, other: "TDigest") -> "TDigest":
        return TDigest(
            self.delta,
            np.concatenate([self.means, other.means]),
            np.concatenate([self.weights, other.weights]),
        ).compress()

    def compress(self) -> "TDigest":
        if len(self.means) == 0:
            return self
        order = np.argsort(self.means, kind="stable")
        means, weights = self.means[order], self.weights[order]
        total = weights.sum()
        out_m: list[float] = []
        out_w: list[float] = []
        # k1 scale: k(q) = delta/(2*pi) * asin(2q - 1).
        def k(q: float) -> float:
            return self.delta / (2 * np.pi) * np.arcsin(2 * q - 1)

        cum = 0.0
        cur_m, cur_w = means[0], weights[0]
        k_lo = k(0.0)
        for m, w in zip(means[1:], weights[1:]):
            q_hi = (cum + cur_w + w) / total
            if k(min(q_hi, 1.0)) - k_lo <= 1.0:
                cur_m = (cur_m * cur_w + m * w) / (cur_w + w)
                cur_w += w
            else:
                out_m.append(cur_m)
                out_w.append(cur_w)
                cum += cur_w
                k_lo = k(cum / total)
                cur_m, cur_w = m, w
        out_m.append(cur_m)
        out_w.append(cur_w)
        return TDigest(self.delta, out_m, out_w)

    # -- query --------------------------------------------------------

    def quantile(self, q: float) -> float:
        if len(self.means) == 0:
            return float("nan")
        if len(self.means) == 1:
            return float(self.means[0])
        total = self.weights.sum()
        target = q * total
        # Centroid i spans cumulative weight (c_i - w_i/2, c_i + w_i/2).
        cum = np.cumsum(self.weights) - self.weights / 2
        if target <= cum[0]:
            return float(self.means[0])
        if target >= cum[-1]:
            return float(self.means[-1])
        i = int(np.searchsorted(cum, target) - 1)
        frac = (target - cum[i]) / (cum[i + 1] - cum[i])
        return float(self.means[i] + frac * (self.means[i + 1] - self.means[i]))

    def to_rows(self) -> pd.DataFrame:
        return pd.DataFrame({"mean": self.means, "weight": self.weights})


def tdigest_from_values(values: np.ndarray, delta: int = 100) -> TDigest:
    return TDigest.of(np.asarray(values, dtype=np.float64), delta)


def tdigest_merge_all(digests: list[TDigest], delta: int = 100) -> TDigest:
    out = TDigest(delta)
    for d in digests:
        out = out.merge(d)
    return out


def events_value_tdigest(sf_dir: str, delta: int = 100) -> rd.Dataset:
    """Approximate p50/p95 of `value` per event_type via mergeable
    per-block t-digests.

    Stage 1 emits one digest (as centroid rows tagged with a block id)
    per (event_type, block) — bounded ~delta rows regardless of block
    size; the final single-block reduce merges per type and queries.
    The exact counterpart is `events_value_quantiles`; at 10^12 rows
    the exact op shuffles every value while this ships fixed-size
    summaries.
    """

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for etype, grp in batch.groupby("event_type", sort=False):
            rows = TDigest.of(grp["value"].to_numpy(), delta).to_rows()
            rows.insert(0, "event_type", etype)
            frames.append(rows)
        if not frames:
            return pd.DataFrame(
                {
                    "event_type": pd.Series([], dtype="object"),
                    "mean": pd.Series([], dtype="float64"),
                    "weight": pd.Series([], dtype="float64"),
                }
            )
        return pd.concat(frames, ignore_index=True)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for etype, grp in df.groupby("event_type", sort=True):
            d = TDigest(
                delta, grp["mean"].to_numpy(), grp["weight"].to_numpy()
            ).compress()
            out.append(
                {
                    "event_type": etype,
                    "p50_approx": d.quantile(0.5),
                    "p95_approx": d.quantile(0.95),
                    "n_events": int(round(d.weights.sum())),
                }
            )
        return pd.DataFrame(out)

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    ).map_batches(partial, batch_format="pandas")
    return ds.repartition(1).map_batches(final, batch_format="pandas", batch_size=None)


# ---------------------------------------------------------------------------
# Bloom filter semi-join


class BloomFilter:
    """Fixed-size Bloom bitset over int64 keys with k derived hash
    probes (double hashing on two multiply-shift mixes). Bitsets OR
    together, so per-block filters tree-reduce without a shuffle."""

    __slots__ = ("n_bits", "k", "bits")

    _MIX1 = np.uint64(0x9E3779B97F4A7C15)
    _MIX2 = np.uint64(0xC2B2AE3D27D4EB4F)

    def __init__(self, n_bits: int = 1 << 20, k: int = 5, bits=None):
        self.n_bits = n_bits
        self.k = k
        self.bits = (
            np.zeros(n_bits // 64, dtype=np.uint64) if bits is None else bits
        )

    def _probes(self, keys: np.ndarray) -> np.ndarray:
        """(k, N) bit indices via double hashing h1 + i*h2."""
        x = keys.astype(np.uint64)
        h1 = x * self._MIX1
        h1 ^= h1 >> np.uint64(29)
        h2 = (x * self._MIX2) | np.uint64(1)  # odd => full-period step
        i = np.arange(self.k, dtype=np.uint64)[:, None]
        return (h1[None, :] + i * h2[None, :]) % np.uint64(self.n_bits)

    def add(self, keys: np.ndarray) -> None:
        idx = self._probes(np.asarray(keys))
        np.bitwise_or.at(
            self.bits, (idx // 64).ravel(), np.uint64(1) << (idx % 64).ravel()
        )

    def contains(self, keys: np.ndarray) -> np.ndarray:
        idx = self._probes(np.asarray(keys))
        hit = (self.bits[idx // 64] >> (idx % 64)) & np.uint64(1)
        return hit.all(axis=0).astype(bool)

    def union(self, other: "BloomFilter") -> "BloomFilter":
        return BloomFilter(self.n_bits, self.k, self.bits | other.bits)


def build_bloom(
    ds: "rd.Dataset", column: str, n_bits: int = 1 << 20, k: int = 5
) -> BloomFilter:
    """Distributed Bloom build over one int64 column: per-block bitsets
    (fixed n_bits/8-byte summaries — keys never leave their block)
    OR-reduce driver-side into a single broadcast-ready filter. The
    reusable half of every Bloom semi-join / dynamic-filter pushdown
    (`active_customers_bloom`, `q18_large_orders`). Size n_bits from
    the expected build-side cardinality: fp rate ~ (1-e^{-kn/m})^k.
    """

    def block_bits(batch: pd.DataFrame) -> pd.DataFrame:
        bf = BloomFilter(n_bits, k)
        keys = batch[column].to_numpy()
        if len(keys):
            bf.add(keys)
        return pd.DataFrame({"bits": [bf.bits.tobytes()]})

    parts = ds.map_batches(block_bits, batch_format="pandas").to_pandas()
    merged = BloomFilter(n_bits, k)
    for raw in parts["bits"]:
        merged.bits |= np.frombuffer(raw, dtype=np.uint64)
    return merged


def active_customers_bloom(
    sf_dir: str, since: str = "2001-01-01", n_bits: int = 1 << 20, k: int = 5
) -> rd.Dataset:
    """Approximate semi-join: customers with >= 1 order since `since`,
    via a Bloom filter built over the qualifying o_custkey side.

    Build: per-block bitsets OR-reduce driver-side (each block ships a
    fixed n_bits/8-byte summary, never keys). Probe: the merged filter
    broadcasts once via `ray.put` and each customer block filters
    locally — no shuffle on either side. Superset semantics: every true
    active customer is kept; false positives bounded by the standard
    (1 - e^{-kn/m})^k rate. Exact counterpart: `inactive_customers`
    (complement). Rows-only for the driver (approximate by design).
    """
    cutoff = pd.Timestamp(since)

    def qualifying_keys(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.loc[batch["o_orderdate"] >= cutoff, ["o_custkey"]]

    build = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"]
    ).map_batches(qualifying_keys, batch_format="pandas")
    ref = ray.put(build_bloom(build, "o_custkey", n_bits, k))

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        keep = worker_value(ref).contains(batch["c_custkey"].to_numpy())
        return batch.loc[keep, ["c_custkey", "c_name"]]

    return read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    ).map_batches(probe, batch_format="pandas")
