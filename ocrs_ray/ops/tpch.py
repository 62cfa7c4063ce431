"""TPC-H-shaped relational operators (Q6/Q7/Q10/Q12/Q14/Q16/Q19/Q21/Q22
analogues over the sandbox's TPC-H-lite tables).

Each op demonstrates one distinct physical shape at 100 TB scale:

- Q6  — scan-filter-aggregate with the predicate pushed INTO the
  parquet read (row-group pruning; no row that fails the filter ever
  leaves storage).
- Q7  — big x big orderkey join where BOTH sides are pre-filtered
  through broadcast dimension lookups and the fact side is
  pre-aggregated per join key before the shuffle.
- Q10 — join + unbounded-key groupby + distributed top-k (per-block
  top-k, single-block final merge — never a global sort).
- Q12 — big x big join feeding a conditional (CASE WHEN) aggregate
  over a bounded key space (tree-reduced, no hash shuffle).
- Q14 — broadcast dim probe + ratio of conditional sums, carried as
  arbitrary-precision integer parts-per-million (float-free).
- Q16 — COUNT(DISTINCT) per group: keyed repartition co-locates each
  group so the distinct count is a per-block kernel; map-side
  per-batch dedup shrinks the shuffle first.
- Q19 — disjunction of conjunctive range predicates evaluated
  map-side against broadcast part attributes (OR-of-ANDs never
  becomes a join fan-out).
- Q21 — double-correlated EXISTS / NOT EXISTS: one orderkey
  co-location turns both correlated subqueries into a vectorized
  per-order (n_suppliers, n_returned) test.
- Q8  — per-group (per-year) conditional revenue ratio: dimension
  chain folded into broadcast key sets; exact bigint ppm per group.
- Q22 — scalar-subquery threshold (computed as one tiny distributed
  aggregate, then closed over) + anti-join + bounded-key rollup.
- Q11 — GLOBAL-scalar HAVING: per-key aggregate filtered against a
  threshold derived from the whole-corpus total (exact integer
  floor-division rewrite; the scalar closes over the chain).
- Q20 — nested EXISTS-over-aggregate: semi-join type filter, two-level
  (supplier, part) aggregate, threshold EXISTS, sparse winner
  decoration via `session.cogroup` instead of a native join.

Reference parity note: the ocrs reference has no relational engine —
these extend the engine's query surface for training-data pipelines
(SURVEY.md §2.4-2.6 maps the reference's only join-like and aggregate
shapes; everything here is target-side capability).

Exactness: money is rounded half-away to integer micro-units (or
cents) per row on BOTH the Ray and SQL sides, so sums are
order-independent and value hashes compare bit-exactly.
"""

from __future__ import annotations

import datetime as _dt

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..pipeline import worker_value
from ..session import cogroup, read_table
from .relational import MICRO, hash_sum, round_half_away, tree_sum

__all__ = [
    "q6_forecast_revenue",
    "q7_nation_volume",
    "q10_returned_customers",
    "q12_priority_linestatus",
    "q14_promo_revenue",
    "q16_supplier_part_counts",
    "q19_disjunctive_revenue",
    "q22_idle_balance_customers",
    "q21_sole_returned_supplier",
    "q8_market_share",
    "q15_top_supplier",
    "q9_product_profit",
    "q11_important_parts",
    "q20_heavy_shippers",
]


def _ts(s: str):
    return _dt.datetime.fromisoformat(s)


def _npart() -> int:
    from ocrs_ray.pipeline import default_npart

    return default_npart()


def _rev_micro(batch: pd.DataFrame) -> np.ndarray:
    return round_half_away(
        batch["l_extendedprice"].to_numpy(dtype="float64")
        * (1.0 - batch["l_discount"].to_numpy(dtype="float64"))
        * MICRO
    ).astype("int64")


def q6_forecast_revenue(
    sf_dir: str,
    date_from: str = "1997-01-01",
    date_to: str = "1998-01-01",
    disc_lo: float = 0.05,
    disc_hi: float = 0.07,
    qty_below: float = 24.0,
) -> rd.Dataset:
    """TPC-H Q6: would-be revenue from small-quantity, mid-discount
    items in one shipping year — a pure scan-filter-aggregate.

    Scale shape: the WHOLE predicate is handed to `read_parquet`'s
    `filter=`, so parquet row-group statistics prune at the storage
    layer and non-qualifying rows never enter the object store; only
    3 of 11 columns are read. Each batch collapses to one partial row
    (sum, count); a single-block merge finishes — nothing shuffles.
    """
    import pyarrow.dataset as pads

    pred = (
        (pads.field("l_shipdate") >= _ts(date_from))
        & (pads.field("l_shipdate") < _ts(date_to))
        & (pads.field("l_discount") >= disc_lo)
        & (pads.field("l_discount") <= disc_hi)
        & (pads.field("l_quantity") < qty_below)
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rev = round_half_away(
            batch["l_extendedprice"].to_numpy(dtype="float64")
            * batch["l_discount"].to_numpy(dtype="float64")
            * MICRO
        ).astype("int64")
        return pd.DataFrame(
            {"revenue_micro": [int(rev.sum())], "n_items": [len(batch)]}
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "revenue_micro": [int(df["revenue_micro"].sum()) if len(df) else 0],
                "n_items": [int(df["n_items"].sum()) if len(df) else 0],
            }
        )

    ds = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_extendedprice", "l_discount", "l_quantity", "l_shipdate"],
        filter=pred,
    ).map_batches(partial, batch_format="pandas")
    return ds.repartition(1).map_batches(
        final, batch_format="pandas", batch_size=None
    )


def q7_nation_volume(
    sf_dir: str,
    nation_a: str = "NATION_3",
    nation_b: str = "NATION_7",
    date_from: str = "1996-01-01",
    date_to: str = "1998-01-01",
) -> rd.Dataset:
    """TPC-H Q7: shipping volume between two nations by year, where the
    supplier is in one nation and the customer in the other (either
    direction).

    Scale shape: supplier and customer nation keys are broadcast dicts
    probed map-side, so both join inputs are pre-filtered to the two
    nations BEFORE the only shuffle (the lineitem x orders orderkey
    hash join); lineitem additionally pre-aggregates revenue per
    (orderkey, supplier-nation, year), so the join moves partial sums.
    The final rollup key space is 2 x 2 x years — bounded — so it
    tree-reduces shuffle-free.
    """
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    import ray

    npart = _npart()

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    name_of = dict(
        zip(nation.column("n_nationkey").to_pylist(), nation.column("n_name").to_pylist())
    )
    keys = {k for k, v in name_of.items() if v in (nation_a, nation_b)}
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    supp_ref = ray.put(
        dict(zip(supp.column("s_suppkey").to_pylist(), supp.column("s_nationkey").to_pylist()))
    )
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    cust_ref = ray.put(
        dict(zip(cust.column("c_custkey").to_pylist(), cust.column("c_nationkey").to_pylist()))
    )

    def line_partial(batch: pd.DataFrame) -> pd.DataFrame:
        sn = batch["l_suppkey"].map(worker_value(supp_ref))
        sel = sn.isin(keys).to_numpy()
        b = batch.loc[sel]
        df = pd.DataFrame(
            {
                "l_orderkey": b["l_orderkey"].to_numpy(),
                "supp_nationkey": sn.to_numpy()[sel].astype("int64"),
                "l_year": b["l_shipdate"].dt.year.to_numpy().astype("int64"),
                "revenue_micro": _rev_micro(b),
            }
        )
        return df.groupby(
            ["l_orderkey", "supp_nationkey", "l_year"], as_index=False
        )["revenue_micro"].sum()

    def orders_proj(batch: pd.DataFrame) -> pd.DataFrame:
        cn = batch["o_custkey"].map(worker_value(cust_ref))
        sel = cn.isin(keys).to_numpy()
        return pd.DataFrame(
            {
                "o_orderkey": batch["o_orderkey"].to_numpy()[sel],
                "cust_nationkey": cn.to_numpy()[sel].astype("int64"),
            }
        )

    line = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_orderkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
        filter=(
            (pads.field("l_shipdate") >= _ts(date_from))
            & (pads.field("l_shipdate") < _ts(date_to))
        ),
    ).map_batches(line_partial, batch_format="pandas")
    orders = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    ).map_batches(orders_proj, batch_format="pandas")
    joined = line.join(
        orders,
        join_type="inner",
        num_partitions=npart,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    names = {k: name_of[k] for k in keys}

    def rollup(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.loc[
            (batch["supp_nationkey"] != batch["cust_nationkey"]).to_numpy()
        ]
        df = pd.DataFrame(
            {
                "supp_nation": b["supp_nationkey"].map(names).to_numpy(),
                "cust_nation": b["cust_nationkey"].map(names).to_numpy(),
                "l_year": b["l_year"].to_numpy(),
                "revenue_micro": b["revenue_micro"].to_numpy(),
            }
        )
        return df.groupby(
            ["supp_nation", "cust_nation", "l_year"], as_index=False
        )["revenue_micro"].sum()

    partials = joined.map_batches(rollup, batch_format="pandas")
    return tree_sum(
        partials, ["supp_nation", "cust_nation", "l_year"], ["revenue_micro"]
    )


def q10_returned_customers(
    sf_dir: str,
    date_from: str = "1997-07-01",
    date_to: str = "1997-10-01",
    k: int = 20,
) -> rd.Dataset:
    """TPC-H Q10: top-k customers by revenue lost to returned items in
    one quarter, decorated with the customer's nation.

    Scale shape: lineitem is pre-filtered to returns at the read
    (predicate pushdown) and pre-aggregated per orderkey before the
    orderkey hash join against the date-windowed orders scan. Customer
    revenue then concentrates via per-batch partials + keyed
    repartition (custkey is unbounded — tree_sum would not hold), and
    the top-k is per-block select followed by a single-block merge;
    the full customer ranking is never globally sorted. Name/nation
    decoration happens AFTER the top-k: only the k winners' customer
    rows are fetched (an `IN`-filter pushdown on the dimension scan),
    so no customer-sized structure is ever built — the dimension read
    is O(k), not O(|customer|).
    """
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    import ray

    npart = _npart()

    def line_partial(batch: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "l_orderkey": batch["l_orderkey"].to_numpy(),
                "revenue_micro": _rev_micro(batch),
            }
        )
        return df.groupby("l_orderkey", as_index=False)["revenue_micro"].sum()

    line = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
        filter=(pads.field("l_returnflag") == "R"),
    ).map_batches(line_partial, batch_format="pandas")

    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(
            (pads.field("o_orderdate") >= _ts(date_from))
            & (pads.field("o_orderdate") < _ts(date_to))
        ),
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "o_orderkey": b["o_orderkey"].to_numpy(),
                "o_custkey": b["o_custkey"].to_numpy(),
            }
        ),
        batch_format="pandas",
    )

    joined = line.join(
        orders,
        join_type="inner",
        num_partitions=npart,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def cust_partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby("o_custkey", as_index=False)["revenue_micro"].sum()

    def merge_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_custkey", as_index=False)["revenue_micro"].sum()
        g = g.sort_values(
            ["revenue_micro", "o_custkey"], ascending=[False, True]
        )
        return g.head(k)

    def final_topk(df: pd.DataFrame) -> pd.DataFrame:
        # Blocks are custkey-disjoint after the keyed repartition, so
        # this is a pure k-way merge, not a re-aggregation.
        g = df.sort_values(
            ["revenue_micro", "o_custkey"], ascending=[False, True]
        )
        return g.head(k)

    top = (
        joined.map_batches(cust_partial, batch_format="pandas")
        .repartition(npart, keys=["o_custkey"])
        .map_batches(merge_topk, batch_format="pandas", batch_size=None)
        .repartition(1)
        .map_batches(final_topk, batch_format="pandas", batch_size=None)
    )

    top = top.materialize()
    winners = [int(r["o_custkey"]) for r in top.take_all()]  # k rows, tiny
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey"],
        filters=[("c_custkey", "in", winners)],
    )
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    nname = dict(
        zip(nation.column("n_nationkey").to_pylist(), nation.column("n_name").to_pylist())
    )
    info = {
        ck: (nm, nname[nk])
        for ck, nm, nk in zip(
            cust.column("c_custkey").to_pylist(),
            cust.column("c_name").to_pylist(),
            cust.column("c_nationkey").to_pylist(),
        )
    }
    info_ref = ray.put(info)

    def decorate(batch: pd.DataFrame) -> pd.DataFrame:
        info = worker_value(info_ref)
        pairs = [info[ck] for ck in batch["o_custkey"]]
        return pd.DataFrame(
            {
                "c_custkey": batch["o_custkey"].to_numpy().astype("int64"),
                "c_name": [p[0] for p in pairs],
                "n_name": [p[1] for p in pairs],
                "revenue_micro": batch["revenue_micro"].to_numpy(),
            }
        )

    return top.map_batches(decorate, batch_format="pandas")


def q12_priority_linestatus(
    sf_dir: str,
    date_from: str = "1997-01-01",
    date_to: str = "1998-01-01",
) -> rd.Dataset:
    """TPC-H Q12-shaped conditional aggregate: for items shipped in one
    year, per line status, how many belong to urgent/high-priority
    orders vs everything else (the CASE WHEN two-way count).

    Scale shape: the priority flag is resolved into a 0/1 int on the
    orders side BEFORE the big x big orderkey hash join (3 columns in
    flight, never the priority string); the post-join conditional
    counts land on a bounded key (line status) so they tree-reduce
    without a second shuffle.
    """
    import pyarrow.dataset as pads

    npart = _npart()

    line = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linestatus", "l_shipdate"],
        filter=(
            (pads.field("l_shipdate") >= _ts(date_from))
            & (pads.field("l_shipdate") < _ts(date_to))
        ),
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "l_orderkey": b["l_orderkey"].to_numpy(),
                "l_linestatus": b["l_linestatus"].to_numpy(),
            }
        ),
        batch_format="pandas",
    )

    def orders_proj(b: pd.DataFrame) -> pd.DataFrame:
        high = b["o_orderpriority"].isin(["1-URGENT", "2-HIGH"])
        return pd.DataFrame(
            {
                "o_orderkey": b["o_orderkey"].to_numpy(),
                "is_high": high.to_numpy().astype("int64"),
            }
        )

    orders = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    ).map_batches(orders_proj, batch_format="pandas")

    joined = line.join(
        orders,
        join_type="inner",
        num_partitions=npart,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "l_linestatus": b["l_linestatus"].to_numpy(),
                "high_line_count": b["is_high"].to_numpy(),
                "low_line_count": (1 - b["is_high"].to_numpy()).astype("int64"),
            }
        )
        return df.groupby("l_linestatus", as_index=False).sum()

    return tree_sum(
        joined.map_batches(partial, batch_format="pandas"),
        ["l_linestatus"],
        ["high_line_count", "low_line_count"],
    )


def q14_promo_revenue(
    sf_dir: str,
    date_from: str = "1997-09-01",
    date_to: str = "1997-10-01",
) -> rd.Dataset:
    """TPC-H Q14: the share of one month's revenue that came from
    promotional parts, as exact integer parts-per-million.

    Scale shape: partkey -> is-promo is a broadcast bitmap probed
    map-side (the part table is the small dimension); each batch emits
    ONE two-column partial (promo, total) so the whole reduction is a
    single-block merge — no shuffle, no floats (the ppm is bigint
    floor division, mirroring HUGEINT division in the oracle).
    """
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    import ray

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    )
    promo_ref = ray.put(
        {
            k: (t == "PROMO")
            for k, t in zip(
                part.column("p_partkey").to_pylist(),
                part.column("p_type").to_pylist(),
            )
        }
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        is_promo = worker_value(promo_ref)
        rev = _rev_micro(batch)
        promo = batch["l_partkey"].map(is_promo).to_numpy(dtype=bool)
        return pd.DataFrame(
            {
                "promo_revenue_micro": [int(rev[promo].sum())],
                "total_revenue_micro": [int(rev.sum())],
            }
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        promo = int(df["promo_revenue_micro"].sum()) if len(df) else 0
        total = int(df["total_revenue_micro"].sum()) if len(df) else 0
        # Python bigints: 1e6 * promo overflows int64, never Python int.
        ppm = (1_000_000 * promo) // total if total else 0
        return pd.DataFrame(
            {
                "promo_revenue_micro": [promo],
                "total_revenue_micro": [total],
                "promo_ppm": [ppm],
            }
        )

    ds = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=(
            (pads.field("l_shipdate") >= _ts(date_from))
            & (pads.field("l_shipdate") < _ts(date_to))
        ),
    ).map_batches(partial, batch_format="pandas")
    return ds.repartition(1).map_batches(
        final, batch_format="pandas", batch_size=None
    )


def q16_supplier_part_counts(
    sf_dir: str, excluded_brand: str = "Brand#15"
) -> rd.Dataset:
    """TPC-H Q16-shaped COUNT(DISTINCT) per group: how many distinct
    suppliers ship each (brand, size), excluding one brand and a
    denylisted supplier set (stand-in for the reference query's
    complaint-comment suppliers: every 4th suppkey).

    Scale shape: brand/size come from a broadcast part dict and the
    supplier denylist is a broadcast set, both probed map-side;
    per-batch dedup of (brand, size, suppkey) shrinks the shuffle,
    then ONE keyed repartition on (brand, size) co-locates each group
    so the distinct count is an exact per-block kernel. A global
    `unique()` or count-distinct aggregate would move the same rows
    but lose the group alignment the per-block kernel exploits.
    """
    import pyarrow.parquet as pq

    import ray

    npart = _npart()

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"]
    )
    keys = part.column("p_partkey").to_pylist()
    brands = part.column("p_brand").to_pylist()
    sizes = part.column("p_size").to_pylist()
    kept = [i for i, b in enumerate(brands) if b != excluded_brand]
    attrs_ref = ray.put(
        (
            {keys[i]: brands[i] for i in kept},
            {keys[i]: sizes[i] for i in kept},
        )
    )

    def project(batch: pd.DataFrame) -> pd.DataFrame:
        brand_of, size_of = worker_value(attrs_ref)
        brand = batch["l_partkey"].map(brand_of)
        keep = (
            brand.notna().to_numpy()
            & (batch["l_suppkey"].to_numpy() % 4 != 0)
        )
        df = pd.DataFrame(
            {
                "p_brand": brand.to_numpy()[keep],
                "p_size": batch["l_partkey"]
                .map(size_of)
                .to_numpy()[keep]
                .astype("int64"),
                "l_suppkey": batch["l_suppkey"].to_numpy()[keep].astype("int64"),
            }
        )
        return df.drop_duplicates()

    def count_distinct(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.drop_duplicates()
            .groupby(["p_brand", "p_size"], as_index=False)["l_suppkey"]
            .nunique()
        )
        return g.rename(columns={"l_suppkey": "supplier_cnt"}).astype(
            {"supplier_cnt": "int64"}
        )

    ds = read_table(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    ).map_batches(project, batch_format="pandas")
    return ds.repartition(npart, keys=["p_brand", "p_size"]).map_batches(
        count_distinct, batch_format="pandas", batch_size=None
    )


def q19_disjunctive_revenue(sf_dir: str) -> rd.Dataset:
    """TPC-H Q19: revenue from an OR of three (brand, size-range,
    quantity-range) conjunctions — the disjunctive-predicate join.

    Scale shape: part attributes are a broadcast dict, so the
    disjunction is evaluated as three vectorized numpy masks map-side;
    the OR never becomes a join fan-out or a UNION of three scans (one
    pass over lineitem covers all branches). Each batch emits one
    partial row; single-block merge, zero shuffles.
    """
    import pyarrow.parquet as pq

    import ray

    branches = (
        ("Brand#12", 1, 5, 1.0, 11.0),
        ("Brand#23", 1, 10, 10.0, 20.0),
        ("Brand#25", 1, 15, 20.0, 30.0),
    )

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"]
    )
    attrs_ref = ray.put(
        (
            dict(zip(part.column("p_partkey").to_pylist(), part.column("p_brand").to_pylist())),
            dict(zip(part.column("p_partkey").to_pylist(), part.column("p_size").to_pylist())),
        )
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        brand_of, size_of = worker_value(attrs_ref)
        qty = batch["l_quantity"].to_numpy(dtype="float64")
        brand = batch["l_partkey"].map(brand_of).to_numpy()
        size = batch["l_partkey"].map(size_of).to_numpy().astype("int64")
        keep = np.zeros(len(batch), dtype=bool)
        for b, s_lo, s_hi, q_lo, q_hi in branches:
            keep |= (
                (brand == b)
                & (size >= s_lo)
                & (size <= s_hi)
                & (qty >= q_lo)
                & (qty <= q_hi)
            )
        rev = _rev_micro(batch)
        return pd.DataFrame(
            {
                "revenue_micro": [int(rev[keep].sum())],
                "n_items": [int(keep.sum())],
            }
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "revenue_micro": [int(df["revenue_micro"].sum()) if len(df) else 0],
                "n_items": [int(df["n_items"].sum()) if len(df) else 0],
            }
        )

    ds = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(partial, batch_format="pandas")
    return ds.repartition(1).map_batches(
        final, batch_format="pandas", batch_size=None
    )


def q22_idle_balance_customers(
    sf_dir: str, idle_since: str = "2000-01-01"
) -> rd.Dataset:
    """TPC-H Q22-shaped scalar subquery + anti-join: per market
    segment, count and total balance of customers whose balance
    exceeds the positive-balance average but who placed no order since
    `idle_since` (the untapped-account report).

    Scale shape: the scalar threshold is ONE tiny distributed
    aggregate (per-batch partials, single-block merge, two ints pulled
    to the driver — the only materialization, O(1) regardless of
    corpus size) closed over by the second pass. The above-average
    test is exact integer cross-multiplication (cents * n > sum_cents)
    — no float average on either side. The no-recent-orders predicate
    is a native left_anti hash join against the date-filtered,
    map-side-deduped orders scan; segment totals then tree-reduce over
    the bounded segment vocabulary.
    """
    import pyarrow.dataset as pads

    npart = _npart()

    def cents_of(b: pd.DataFrame) -> np.ndarray:
        return round_half_away(
            b["c_acctbal"].to_numpy(dtype="float64") * 100.0
        ).astype("int64")

    def avg_partial(b: pd.DataFrame) -> pd.DataFrame:
        cents = cents_of(b)
        pos = cents[cents > 0]
        return pd.DataFrame(
            {"sum_cents": [int(pos.sum())], "n_pos": [len(pos)]}
        )

    stats = (
        read_table(f"{sf_dir}/customer.parquet", columns=["c_acctbal"])
        .map_batches(avg_partial, batch_format="pandas")
        .repartition(1)
        .map_batches(
            lambda df: pd.DataFrame(
                {
                    "sum_cents": [int(df["sum_cents"].sum())],
                    "n_pos": [int(df["n_pos"].sum())],
                }
            ),
            batch_format="pandas",
            batch_size=None,
        )
        .take_all()[0]
    )
    sum_cents, n_pos = int(stats["sum_cents"]), int(stats["n_pos"])

    def rich(b: pd.DataFrame) -> pd.DataFrame:
        cents = cents_of(b)
        # cents > sum/n, exactly, in integers.
        keep = cents * n_pos > sum_cents
        return pd.DataFrame(
            {
                "c_custkey": b["c_custkey"].to_numpy()[keep],
                "c_mktsegment": b["c_mktsegment"].to_numpy()[keep],
                "acctbal_cents": cents[keep],
            }
        )

    customers = read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment", "c_acctbal"],
    ).map_batches(rich, batch_format="pandas")

    recent = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate"],
        filter=(pads.field("o_orderdate") >= _ts(idle_since)),
    ).map_batches(
        lambda b: pd.DataFrame(
            {"o_custkey": pd.unique(b["o_custkey"].to_numpy())}
        ),
        batch_format="pandas",
    )

    idle = customers.join(
        recent,
        join_type="left_anti",
        num_partitions=npart,
        on=("c_custkey",),
        right_on=("o_custkey",),
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "c_mktsegment": b["c_mktsegment"].to_numpy(),
                "n_custs": np.ones(len(b), dtype="int64"),
                "acctbal_cents_total": b["acctbal_cents"].to_numpy(),
            }
        )
        return df.groupby("c_mktsegment", as_index=False).sum()

    return tree_sum(
        idle.map_batches(partial, batch_format="pandas"),
        ["c_mktsegment"],
        ["n_custs", "acctbal_cents_total"],
    )


def q21_sole_returned_supplier(sf_dir: str) -> rd.Dataset:
    """TPC-H Q21-shaped double-correlated EXISTS / NOT EXISTS: per
    supplier, how many multi-supplier orders exist where THIS supplier
    had a returned item and NO OTHER supplier did (the
    sole-responsible-supplier report — the hardest classic shape:
    two correlated subqueries against the same fact table).

    Scale shape: the correlated pair never becomes two extra joins —
    lineitem collapses map-side to one (orderkey, suppkey,
    had-return) row per pair, ONE orderkey-keyed repartition
    co-locates each order's supplier set, and the EXISTS / NOT EXISTS
    pair becomes a vectorized per-order (n_suppliers, n_returned)
    test inside the block. Per-supplier counts then concentrate via a
    second keyed repartition (suppliers grow with corpus scale — not
    tree-reducible); the name decoration is a broadcast dict probe.
    """
    import pyarrow.parquet as pq

    import ray

    npart = _npart()

    def pair_partial(b: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "l_orderkey": b["l_orderkey"].to_numpy(),
                "l_suppkey": b["l_suppkey"].to_numpy(),
                "ret": (b["l_returnflag"].to_numpy() == "R").astype("int64"),
            }
        )
        return df.groupby(["l_orderkey", "l_suppkey"], as_index=False)["ret"].max()

    def order_filter(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "l_suppkey": pd.Series([], dtype="int64"),
                    "numwait": pd.Series([], dtype="int64"),
                }
            )
        pairs = df.groupby(["l_orderkey", "l_suppkey"], as_index=False)["ret"].max()
        per_order = pairs.groupby("l_orderkey").agg(
            n_supp=("l_suppkey", "size"), n_ret=("ret", "sum")
        )
        ok = per_order[(per_order["n_supp"] >= 2) & (per_order["n_ret"] == 1)]
        hit = pairs[
            (pairs["ret"] == 1) & pairs["l_orderkey"].isin(ok.index).to_numpy()
        ]
        g = hit.groupby("l_suppkey", as_index=False).size()
        return pd.DataFrame(
            {
                "l_suppkey": g["l_suppkey"].to_numpy(),
                "numwait": g["size"].to_numpy().astype("int64"),
            }
        )

    per_order = (
        read_table(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey", "l_suppkey", "l_returnflag"],
        )
        .map_batches(pair_partial, batch_format="pandas")
        .repartition(npart, keys=["l_orderkey"])
        .map_batches(order_filter, batch_format="pandas", batch_size=None)
    )
    counts = hash_sum(per_order, ["l_suppkey"], ["numwait"], npart)

    supp = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"])
    name_ref = ray.put(
        dict(zip(supp.column("s_suppkey").to_pylist(), supp.column("s_name").to_pylist()))
    )

    def decorate(b: pd.DataFrame) -> pd.DataFrame:
        names = worker_value(name_ref)
        return pd.DataFrame(
            {
                "s_name": b["l_suppkey"].map(names).to_numpy(),
                "numwait": b["numwait"].to_numpy(),
            }
        )

    return counts.map_batches(decorate, batch_format="pandas")


def q8_market_share(
    sf_dir: str,
    region: str = "ASIA",
    supp_nation: str = "NATION_3",
    date_from: str = "1996-01-01",
    date_to: str = "1998-01-01",
) -> rd.Dataset:
    """TPC-H Q8: per YEAR, the share of revenue from orders placed by
    customers in one region that is supplied by one nation — the
    per-group conditional ratio (Q14's ratio shape, but grouped, so
    the ppm division happens once per year in the final block).

    Scale shape: the dimension chain (nation -> region, customer ->
    nation, supplier -> nation) folds into two broadcast probes —
    customers-in-region and supplier-is-target — so the fact sides
    carry only (orderkey, year, rev, rev_target) partials into the one
    big x big orderkey hash join; year is calendar-bounded, so the
    grouped sums tree-reduce and the exact bigint ppm per year is
    arithmetic on a handful of rows.
    """
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    import ray

    npart = _npart()

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet",
        columns=["n_nationkey", "n_name", "n_regionkey"],
    )
    region_tbl = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    region_key = {
        r: k
        for k, r in zip(
            region_tbl.column("r_regionkey").to_pylist(),
            region_tbl.column("r_name").to_pylist(),
        )
    }[region]
    nat_in_region = {
        k
        for k, rk in zip(
            nation.column("n_nationkey").to_pylist(),
            nation.column("n_regionkey").to_pylist(),
        )
        if rk == region_key
    }
    target_nation_key = {
        n: k
        for k, n in zip(
            nation.column("n_nationkey").to_pylist(),
            nation.column("n_name").to_pylist(),
        )
    }[supp_nation]

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    cust_in_region_ref = ray.put(
        {
            ck
            for ck, nk in zip(
                cust.column("c_custkey").to_pylist(),
                cust.column("c_nationkey").to_pylist(),
            )
            if nk in nat_in_region
        }
    )
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    target_supp_ref = ray.put(
        {
            sk
            for sk, nk in zip(
                supp.column("s_suppkey").to_pylist(),
                supp.column("s_nationkey").to_pylist(),
            )
            if nk == target_nation_key
        }
    )

    def line_partial(b: pd.DataFrame) -> pd.DataFrame:
        rev = _rev_micro(b)
        is_target = b["l_suppkey"].isin(worker_value(target_supp_ref)).to_numpy()
        df = pd.DataFrame(
            {
                "l_orderkey": b["l_orderkey"].to_numpy(),
                "l_year": b["l_shipdate"].dt.year.to_numpy().astype("int64"),
                "rev_micro": rev,
                "rev_target_micro": np.where(is_target, rev, 0),
            }
        )
        return df.groupby(["l_orderkey", "l_year"], as_index=False).sum()

    def orders_proj(b: pd.DataFrame) -> pd.DataFrame:
        sel = b["o_custkey"].isin(worker_value(cust_in_region_ref)).to_numpy()
        return pd.DataFrame({"o_orderkey": b["o_orderkey"].to_numpy()[sel]})

    line = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_orderkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
        filter=(
            (pads.field("l_shipdate") >= _ts(date_from))
            & (pads.field("l_shipdate") < _ts(date_to))
        ),
    ).map_batches(line_partial, batch_format="pandas")
    orders = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    ).map_batches(orders_proj, batch_format="pandas")
    joined = line.join(
        orders,
        join_type="inner",
        num_partitions=npart,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def year_partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("l_year", as_index=False)[
            ["rev_micro", "rev_target_micro"]
        ].sum()

    def share(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("l_year").reset_index(drop=True)
        ppm = [
            (1_000_000 * int(t)) // int(r) if int(r) else 0
            for t, r in zip(df["rev_target_micro"], df["rev_micro"])
        ]
        return df.assign(share_ppm=pd.Series(ppm, dtype="int64").to_numpy())

    sums = tree_sum(
        joined.map_batches(year_partial, batch_format="pandas"),
        ["l_year"],
        ["rev_micro", "rev_target_micro"],
    )
    return sums.map_batches(share, batch_format="pandas", batch_size=None)


def q15_top_supplier(
    sf_dir: str,
    date_from: str = "1997-01-01",
    date_to: str = "1997-04-01",
) -> rd.Dataset:
    """TPC-H Q15: the supplier(s) with the maximum total revenue in one
    quarter — the scalar-subquery-over-an-aggregate / argmax-with-ties
    shape (the reference view + `WHERE total = (SELECT max(total))`).

    Scale shape: revenue reduces per supplier through the usual
    partial -> keyed repartition -> block merge (suppkey is unbounded,
    so the shuffle stays, but it ships one row per supplier per block).
    The argmax is then TWO-PHASE with ties preserved: each merged block
    emits only its local maximum rows, and a single-block final pass
    picks the global maximum among those candidates — no driver-side
    scalar pull, no re-execution of the aggregate, and the repartition(1)
    input is at most one row per block (plus ties). Winner names attach
    via a tiny native hash join against the supplier scan (the winner
    side is O(ties), so the join is effectively a broadcast probe).
    """
    import pyarrow.dataset as pads

    npart = _npart()

    def rev_partial(b: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "s_suppkey": b["l_suppkey"].to_numpy(),
                "total_revenue_micro": _rev_micro(b),
            }
        )
        return df.groupby("s_suppkey", as_index=False).sum()

    def local_winners(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        return df[df["total_revenue_micro"] == df["total_revenue_micro"].max()]

    partials = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=(
            (pads.field("l_shipdate") >= _ts(date_from))
            & (pads.field("l_shipdate") < _ts(date_to))
        ),
    ).map_batches(rev_partial, batch_format="pandas")
    rev = (
        hash_sum(partials, ["s_suppkey"], ["total_revenue_micro"], npart)
        .map_batches(local_winners, batch_format="pandas", batch_size=None)
        .repartition(1)
        .map_batches(local_winners, batch_format="pandas", batch_size=None)
    )
    supplier = read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    )
    joined = rev.join(
        supplier,
        join_type="inner",
        num_partitions=2,
        on=("s_suppkey",),
    )
    return joined.select_columns(["s_suppkey", "s_name", "total_revenue_micro"])


def q9_product_profit(
    sf_dir: str,
    name_token: str = "red",
    cost_ppm_of_retail: int = 100_000,
    part_broadcast_limit_bytes: int = 64 << 20,
) -> rd.Dataset:
    """TPC-H Q9 (partsupp-less variant): profit per (nation, order
    year) over lineitems whose part name contains a token. The sandbox
    corpus has no partsupp table, so unit cost is proxied as a fixed
    fraction of `p_retailprice` (default 10% = 100 000 ppm) — the join
    topology (lineitem x part x orders x supplier x nation, the
    heaviest join chain in TPC-H) is preserved exactly.

    Scale shape: the name-filtered part projection (partkey ->
    retailprice) attaches by MEASURED-size strategy selection (the
    `_attach_pair_texts` move): under `part_broadcast_limit_bytes` it
    broadcasts once via ray.put and folds into the profit map; above
    it, a native hash join on partkey (at that size the part side is
    dense per partition — see the Ray caveat below). Profit is then
    pre-aggregated per (orderkey, nation) to shrink the one big x big
    shuffle, and re-keys onto orders for the order year. The
    supplier -> nation-name chain folds into one broadcast dict (the
    same dimension-fold q7/q8 use), and the final (nation, year)
    key space is calendar x nation bounded, so it tree-reduces
    shuffle-free.

    Ray 2.49 caveat (why the small side must broadcast, not join): a
    native `Dataset.join` partition that receives ZERO blocks from one
    side is finalized as a schema-less empty table, and acero fails
    with "No match or multiple matches for key field reference ... "
    (`ray/data/_internal/execution/operators/join.py:118` builds it
    from an empty ArrowBlockBuilder). A sparse build side (few
    distinct keys vs num_partitions) hits this nondeterministically —
    observed with ~25 filtered parts across 8 partitions.
    """
    import pyarrow.parquet as pq

    import ray

    npart = _npart()

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    nat_name = dict(
        zip(
            nation.column("n_nationkey").to_pylist(),
            nation.column("n_name").to_pylist(),
        )
    )
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    supp_nation_ref = ray.put(
        {
            sk: nat_name[nk]
            for sk, nk in zip(
                supp.column("s_suppkey").to_pylist(),
                supp.column("s_nationkey").to_pylist(),
            )
        }
    )

    def part_filter(b: pd.DataFrame) -> pd.DataFrame:
        sel = b["p_name"].str.contains(name_token, regex=False).to_numpy()
        return pd.DataFrame(
            {
                "p_partkey": b["p_partkey"].to_numpy()[sel],
                "p_retailprice": b["p_retailprice"].to_numpy()[sel],
            }
        )

    parts = read_table(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_name", "p_retailprice"],
    ).map_batches(part_filter, batch_format="pandas").materialize()
    # ^ bounded by name selectivity; measured to pick the attach path.
    broadcast_parts = parts.size_bytes() <= part_broadcast_limit_bytes

    line = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
    )

    cost_scale = MICRO * cost_ppm_of_retail / 1_000_000

    if broadcast_parts:
        price_map: dict[int, float] = {}
        for pb in parts.iter_batches(batch_size=8192, batch_format="pyarrow"):
            price_map.update(
                zip(
                    pb.column("p_partkey").to_pylist(),
                    pb.column("p_retailprice").to_pylist(),
                )
            )
        price_ref = ray.put(price_map)
        with_part = line
    else:
        price_ref = None
        with_part = line.join(
            parts,
            join_type="inner",
            num_partitions=npart,
            on=("l_partkey",),
            right_on=("p_partkey",),
        )

    def profit_partial(b: pd.DataFrame) -> pd.DataFrame:
        # Profit per (orderkey, nation) partial; part retail prices
        # arrive either broadcast (price_ref) or pre-joined as a
        # `p_retailprice` column.
        if price_ref is not None:
            price = b["l_partkey"].map(worker_value(price_ref))
            b = b[price.notna().to_numpy()]
            retail = price.dropna().to_numpy(dtype="float64")
        else:
            retail = b["p_retailprice"].to_numpy(dtype="float64")
        rev = _rev_micro(b)
        cost = round_half_away(
            retail * b["l_quantity"].to_numpy(dtype="float64") * cost_scale
        ).astype("int64")
        df = pd.DataFrame(
            {
                "l_orderkey": b["l_orderkey"].to_numpy(),
                "nation": b["l_suppkey"].map(worker_value(supp_nation_ref)).to_numpy(),
                "profit_micro": rev - cost,
            }
        )
        return df.groupby(["l_orderkey", "nation"], as_index=False).sum()

    profit = with_part.map_batches(profit_partial, batch_format="pandas")

    def orders_proj(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "o_orderkey": b["o_orderkey"].to_numpy(),
                "o_year": b["o_orderdate"].dt.year.to_numpy().astype("int64"),
            }
        )

    orders = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
    ).map_batches(orders_proj, batch_format="pandas")

    joined = profit.join(
        orders,
        join_type="inner",
        num_partitions=npart,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def year_partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby(["nation", "o_year"], as_index=False)[
            ["profit_micro"]
        ].sum()

    return tree_sum(
        joined.map_batches(year_partial, batch_format="pandas"),
        ["nation", "o_year"],
        ["profit_micro"],
    )


def q11_important_parts(
    sf_dir: str, mult_num: int = 3, mult_den: int = 2
) -> rd.Dataset:
    """TPC-H Q11-shaped GLOBAL-SCALAR HAVING: per-part lineitem revenue
    for parts earning more than mult_num/mult_den (default 1.5x) the
    MEAN per-part share of total corpus revenue (Q11's "important
    stock" filter restated over lineitem — no partsupp table in the
    sandbox; the mean-relative threshold keeps the filter meaningful
    at every corpus scale, where a fixed global fraction degenerates
    as the part count grows — and 1.5x sits inside this corpus's
    observed max/mean band of ~1.75-1.9x).

    Shape: the global total is one tiny scan-aggregate (Q6-style, no
    shuffle) and the part count one metadata count; both scalars close
    over the per-part chain — the Q22 scalar-subquery pattern applied
    to a HAVING. Per-part revenue reduces through block partials + one
    keyed repartition; the threshold test
    `rev_micro > (mult_num * total) // (mult_den * n_parts)` is a
    single int64-safe compare against a Python-int threshold (the
    floor-division rewrite of
    `rev * mult_den * n_parts > mult_num * total`, exact for
    integers), matching the oracle's HUGEINT arithmetic bit for bit.
    """
    npart = _npart()

    def part_partial(batch: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "l_partkey": batch["l_partkey"].to_numpy(),
                "revenue_micro": _rev_micro(batch),
            }
        )
        return df.groupby("l_partkey", as_index=False)["revenue_micro"].sum()

    # ONE lineitem scan: the per-part block partials are materialized
    # (small — bounded by parts-per-block x blocks) and serve both the
    # global total (their sum IS the corpus total) and the keyed
    # combine, instead of scanning the biggest table twice.
    partials = (
        read_table(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_extendedprice", "l_discount"],
        )
        .map_batches(part_partial, batch_format="pandas")
        .materialize()
    )
    total = int(partials.sum("revenue_micro"))
    n_parts = read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey"]
    ).count()
    thr = (mult_num * total) // max(mult_den * n_parts, 1)

    def combine_filter(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "l_partkey": pd.Series([], dtype="int64"),
                    "revenue_micro": pd.Series([], dtype="int64"),
                }
            )
        g = df.groupby("l_partkey", as_index=False)["revenue_micro"].sum()
        return g[g["revenue_micro"] > thr].reset_index(drop=True)

    return partials.repartition(npart, keys=["l_partkey"]).map_batches(
        combine_filter, batch_format="pandas", batch_size=None
    )


def q20_heavy_shippers(
    sf_dir: str,
    p_type: str = "PROMO",
    date_from: str = "1997-01-01",
    date_to: str = "1998-01-01",
    qty_threshold: int = 50,
) -> rd.Dataset:
    """TPC-H Q20-shaped NESTED EXISTS-OVER-AGGREGATE: suppliers that
    shipped more than `qty_threshold` total units of at least one
    `p_type` part in the date window — Q20's "excess availability"
    chain (part filter -> per-(supplier, part) aggregate -> threshold
    EXISTS -> supplier decoration) restated over lineitem quantities.

    Shape: the date window pushes into the parquet read (row-group
    pruning); the type filter rides a native left_semi hash join
    against the filtered part keys (the key set is proportional to
    the part table, so it is NEVER broadcast); per-(suppkey, partkey)
    quantities reduce through block partials + one keyed repartition,
    and the threshold + per-supplier distinct-part count collapses in
    the same co-located block (suppkey is in the partition key's
    prefix... partition key is the pair, so a second tiny repartition
    on suppkey finishes the count). Supplier names decorate the small
    winner set via one keyed cogroup.
    """
    import pyarrow.dataset as pads

    npart = _npart()

    line = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
        filter=(
            (pads.field("l_shipdate") >= _ts(date_from))
            & (pads.field("l_shipdate") < _ts(date_to))
        ),
    ).map_batches(
        lambda b: b[["l_partkey", "l_suppkey", "l_quantity"]],
        batch_format="pandas",
    )

    parts = read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    ).map_batches(
        lambda b: b.loc[b["p_type"] == p_type, ["p_partkey"]],
        batch_format="pandas",
    )

    typed = line.join(
        parts,
        join_type="left_semi",
        num_partitions=npart,
        on=("l_partkey",),
        right_on=("p_partkey",),
    )

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["l_suppkey", "l_partkey"], as_index=False)[
            "l_quantity"
        ].sum()
        return out

    def pair_threshold(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "l_suppkey": pd.Series([], dtype="int64"),
                    "n_heavy_parts": pd.Series([], dtype="int64"),
                }
            )
        g = df.groupby(["l_suppkey", "l_partkey"], as_index=False)[
            "l_quantity"
        ].sum()
        heavy = g[g["l_quantity"] > qty_threshold]
        out = heavy.groupby("l_suppkey", as_index=False).size()
        out.columns = ["l_suppkey", "n_heavy_parts"]
        return out.astype({"n_heavy_parts": "int64"})

    pairs = typed.map_batches(pair_partial, batch_format="pandas")
    heavy = pairs.repartition(npart, keys=["l_suppkey", "l_partkey"]).map_batches(
        pair_threshold, batch_format="pandas", batch_size=None
    )
    supp_counts = hash_sum(heavy, ["l_suppkey"], ["n_heavy_parts"], npart)

    # Name decoration via one keyed cogroup: the winner set is sparse
    # (few rows over many blocks), exactly the shape that crashes Ray
    # 2.49's native join (CLAUDE.md); each co-located partition pairs
    # name and count vectorized.
    counts_schema = pa.schema(
        [("l_suppkey", pa.int64()), ("n_heavy_parts", pa.int64())]
    )
    names_schema = pa.schema([("s_suppkey", pa.int64()), ("s_name", pa.string())])
    out = pa.schema([*names_schema, counts_schema.field("n_heavy_parts")])

    def decorate(counts: pd.DataFrame, names: pd.DataFrame) -> pa.Table:
        # Inner: a winner key somehow missing from supplier drops
        # instead of surfacing an empty name (the oracle's join). Arrow
        # out, so an empty result is typed too (CLAUDE.md: no zero-row
        # object columns).
        m = counts.merge(names, left_on="l_suppkey", right_on="s_suppkey")
        return pa.Table.from_pandas(m[out.names], schema=out, preserve_index=False)

    names = read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"])
    return cogroup(
        [
            (supp_counts, ["l_suppkey"], counts_schema),
            (names, ["s_suppkey"], names_schema),
        ],
        decorate,
        npart,
    )
