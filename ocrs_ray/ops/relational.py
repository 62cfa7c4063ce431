"""Windowed / grouped aggregates over the events and lineitem tables.

Demonstrates the at-scale aggregation pattern: vectorized partial
aggregation inside `map_batches` (one row per key per batch), then a
small `groupby` over the partials — the shuffle moves partial sums,
never raw rows. Float measures are aggregated as integer micro-units
so results compare bit-exactly against the SQL oracle regardless of
summation order.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data as rd
from ray.data.aggregate import Sum

from ..pipeline import worker_value
from ..session import read_table

__all__ = [
    "events_tumbling_window",
    "events_hopping_window",
    "events_sessionize",
    "events_asof_join",
    "events_range_join",
    "events_daily_active_users",
    "orders_customer_join",
    "lineitem_pricing_summary",
    "q3_top_orders",
    "inactive_customers",
    "supplier_region_rollup",
    "part_type_revenue",
    "events_funnel",
    "user_retention",
    "events_value_quantiles",
    "events_sorted_sink_scan",
    "events_distinct_users_hll",
    "events_daily_active_users_hll",
    "customer_order_counts",
    "orders_with_returns",
    "part_small_quantity_revenue",
    "inactive_customers_anti_join",
    "lineitem_rollup",
    "q5_local_supplier_revenue",
    "q18_large_orders",
    "part_min_price_supplier",
    "lineitem_qty_price_stats",
    "segment_top_spender",
    "event_type_user_overlap",
    "events_daily_dense_counts",
    "returnflag_revenue_share",
    "supplier_acctbal_rank",
    "orders_monthly_revenue_delta",
    "events_value_mad",
    "user_click_purchase_full_outer",
    "supplier_acctbal_dense_rank",
    "lineitem_cube",
    "events_type_markov_transitions",
    "events_value_band_join",
    "supplier_abc_classification",
    "orders_merge_upsert",
    "events_weighted_median",
    "events_value_outliers",
    "band_bucketize",
    "band_pairs",
    "round_half_away",
]

MICRO = 1_000_000


def round_half_away(v: np.ndarray) -> np.ndarray:
    """Round half away from zero (matches SQL ROUND), not banker's."""
    return np.sign(v) * np.floor(np.abs(v) + 0.5)


def _merge_sums(
    df: pd.DataFrame, keys: list[str], vals: list[str], agg: str = "sum"
) -> pd.DataFrame:
    if df.empty:  # an empty partition can arrive without columns
        return df
    return df.groupby(keys, as_index=False)[vals].agg(agg)


def tree_sum(
    ds: rd.Dataset,
    keys: list[str],
    vals: list[str],
    fanin: int = 8,
    agg: str = "sum",
) -> rd.Dataset:
    """Tree-reduce per-key sums WITHOUT a hash shuffle: coalesce partial
    blocks (plain repartition moves whole blocks, no all-to-all), merge
    per block, then one final single-block merge. Correct whenever the
    distinct-key space fits in one worker's heap — true for token
    vocabularies (bounded ~1e6) and calendar-bounded window keys even at
    100 TB corpus scale. Unbounded key spaces (user ids, doc ids) must
    use `hash_sum` instead. `agg` is any associative+commutative pandas
    reduction ("sum", "max", "min").
    """
    kw = {"keys": list(keys), "vals": list(vals), "agg": agg}
    merged = ds.repartition(fanin).map_batches(
        _merge_sums, fn_kwargs=kw, batch_format="pandas", batch_size=None
    )
    return merged.repartition(1).map_batches(
        _merge_sums, fn_kwargs=kw, batch_format="pandas", batch_size=None
    )


def hash_sum(
    ds: rd.Dataset,
    keys: list[str],
    vals: list[str],
    npart: int,
    agg: str = "sum",
) -> rd.Dataset:
    """Per-key `agg` of partial rows through ONE keyed exchange:
    `repartition(npart, keys)` puts every partial of a key in one
    partition (one block per partition on Ray 2.49), and a per-partition
    merge finishes it. The unbounded-key counterpart of `tree_sum` (user,
    order, doc ids); `agg` is any associative+commutative pandas
    reduction ("sum", "max", "min")."""
    kw = {"keys": list(keys), "vals": list(vals), "agg": agg}
    return ds.repartition(npart, keys=list(keys)).map_batches(
        _merge_sums, fn_kwargs=kw, batch_format="pandas", batch_size=None
    )


def events_tumbling_window(sf_dir: str, window_s: int = 300) -> rd.Dataset:
    """Tumbling-window aggregate per event_type.

    Events are batch data here (Ray Data has no event-time streaming);
    the window key is floor(epoch/window). Value sums are integer
    micro-units. The (event_type, window_start) key space is calendar-
    bounded (types x windows in the data's time range, independent of
    row count), so the partials tree-reduce without a hash shuffle.
    """

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        epoch = batch["ts"].astype("int64") // 1_000_000
        win = (epoch // window_s).astype("int64")
        micro = round_half_away(batch["value"].to_numpy() * MICRO).astype("int64")
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "window_start": win * window_s,
                "sum_value_micro": micro,
                "n_events": np.ones(len(batch), dtype="int64"),
            }
        )
        return df.groupby(["event_type", "window_start"], as_index=False)[
            ["sum_value_micro", "n_events"]
        ].sum()

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    ).map_batches(partial, batch_format="pandas")
    return tree_sum(
        ds, ["event_type", "window_start"], ["sum_value_micro", "n_events"]
    )


def _partition_by_user(sf_dir: str, partitions: int = 8) -> rd.Dataset:
    """Hash-partition events by user_id (each user's rows co-located,
    so per-block session/as-of logic is globally correct)."""
    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )
    return ds.repartition(partitions, keys=["user_id"])


def events_sessionize(sf_dir: str, gap_minutes: int = 30) -> rd.Dataset:
    """Gap-based sessionization: per user, a new session starts when
    the time since the previous event exceeds `gap_minutes`.

    The classic stateful streaming window, expressed batch-side: one
    hash shuffle on user_id, then fully vectorized per-block pandas
    (sort -> gap flags -> cumulative session index -> groupby agg).
    """
    gap_us = gap_minutes * 60 * 1_000_000

    def sessionize(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    "session_id": pd.Series([], dtype="int64"),
                    "session_start_us": pd.Series([], dtype="int64"),
                    "session_end_us": pd.Series([], dtype="int64"),
                    "n_events": pd.Series([], dtype="int64"),
                    "sum_value_micro": pd.Series([], dtype="int64"),
                }
            )
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        ts_us = df["ts"].astype("int64")
        new_user = df["user_id"].ne(df["user_id"].shift())
        gap = ts_us.diff().gt(gap_us)
        df = df.assign(
            session_id=(new_user | gap).cumsum().astype("int64"),
            value_micro=round_half_away(df["value"].to_numpy() * MICRO).astype(
                "int64"
            ),
        )
        df = df.assign(ts_us=ts_us)
        out = df.groupby(["user_id", "session_id"], as_index=False).agg(
            session_start_us=("ts_us", "min"),
            session_end_us=("ts_us", "max"),
            n_events=("event_id", "count"),
            sum_value_micro=("value_micro", "sum"),
        )
        # session_id is per-user ordinal (1-based) so it is stable
        # across partitionings (epoch-us ints keep value hashes exact
        # vs the SQL oracle).
        out["session_id"] = out.groupby("user_id").cumcount().astype("int64") + 1
        out["n_events"] = out["n_events"].astype("int64")
        return out

    return _partition_by_user(sf_dir).map_batches(
        sessionize, batch_format="pandas", batch_size=None
    )


def events_asof_join(sf_dir: str) -> rd.Dataset:
    """As-of join: each purchase event matched to the most recent
    signup of the same user at-or-before its timestamp.

    Custom operator Ray Data lacks (SURVEY.md §2 custom-operator rule):
    implemented as hash-partition on the join key + per-block
    `pandas.merge_asof` — the shuffle co-locates users, the merge is
    vectorized; no global sort.
    """

    def asof(df: pd.DataFrame) -> pd.DataFrame:
        left = df[df["event_type"] == "purchase"].sort_values("ts", kind="stable")
        right = df[df["event_type"] == "signup"].sort_values("ts", kind="stable")
        if left.empty:
            return pd.DataFrame(
                {
                    "purchase_event_id": pd.Series([], dtype="int64"),
                    "user_id": pd.Series([], dtype="int64"),
                    "signup_event_id": pd.Series([], dtype="int64"),
                }
            )
        merged = pd.merge_asof(
            left[["event_id", "ts", "user_id"]],
            right[["event_id", "ts", "user_id"]].rename(
                columns={"event_id": "signup_event_id", "ts": "signup_ts"}
            ),
            left_on="ts",
            right_on="signup_ts",
            by="user_id",
            direction="backward",
        )
        merged = merged.dropna(subset=["signup_event_id"])
        return pd.DataFrame(
            {
                "purchase_event_id": merged["event_id"].astype("int64"),
                "user_id": merged["user_id"].astype("int64"),
                "signup_event_id": merged["signup_event_id"].astype("int64"),
            }
        )

    return _partition_by_user(sf_dir).map_batches(
        asof, batch_format="pandas", batch_size=None
    )


def orders_customer_join(sf_dir: str) -> rd.Dataset:
    """Broadcast hash join: orders x customer -> per-nation order stats.

    The small side (customer key -> nation) is broadcast once with
    `ray.put` and probed inside `map_batches` — no shuffle of the big
    side at all, which is the right join shape whenever one side fits
    in worker memory (SURVEY.md §2.4). The per-nation rollup then
    shuffles only pre-aggregated partials.
    """
    import pyarrow.parquet as pq

    import ray

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    lookup = dict(
        zip(cust.column("c_custkey").to_pylist(), cust.column("c_nationkey").to_pylist())
    )
    lookup_ref = ray.put(lookup)

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        lookup = worker_value(lookup_ref)
        nation = batch["o_custkey"].map(lookup)
        df = pd.DataFrame(
            {
                "c_nationkey": nation.astype("int64"),
                "sum_total_micro": round_half_away(
                    batch["o_totalprice"].to_numpy() * MICRO
                ).astype("int64"),
                "n_orders": np.ones(len(batch), dtype="int64"),
            }
        )
        return df.groupby("c_nationkey", as_index=False).sum()

    ds = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).map_batches(probe, batch_format="pandas")
    # Nation keys are bounded (25) regardless of order volume -> the
    # partials tree-reduce; no hash-aggregate machinery.
    return tree_sum(ds, ["c_nationkey"], ["sum_total_micro", "n_orders"])


def lineitem_pricing_summary(sf_dir: str, cutoff: str = "1998-09-02") -> rd.Dataset:
    """TPC-H Q1-shaped pricing summary over lineitem.

    Row filter applied at the batch level; money measures carried as
    integer micro-units through the partial + final aggregation.
    """
    cutoff_ts = pd.Timestamp(cutoff)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["l_shipdate"] <= cutoff_ts]
        if b.empty:
            return pd.DataFrame(
                {
                    "l_returnflag": pd.Series([], dtype="object"),
                    "l_linestatus": pd.Series([], dtype="object"),
                    "sum_qty_micro": pd.Series([], dtype="int64"),
                    "sum_base_micro": pd.Series([], dtype="int64"),
                    "sum_disc_micro": pd.Series([], dtype="int64"),
                    "n_rows": pd.Series([], dtype="int64"),
                }
            )
        qty = round_half_away(b["l_quantity"].to_numpy() * MICRO).astype("int64")
        base = round_half_away(b["l_extendedprice"].to_numpy() * MICRO).astype("int64")
        disc = round_half_away(
            (b["l_extendedprice"] * (1.0 - b["l_discount"])).to_numpy() * MICRO
        ).astype("int64")
        df = pd.DataFrame(
            {
                "l_returnflag": b["l_returnflag"].to_numpy(),
                "l_linestatus": b["l_linestatus"].to_numpy(),
                "sum_qty_micro": qty,
                "sum_base_micro": base,
                "sum_disc_micro": disc,
                "n_rows": np.ones(len(b), dtype="int64"),
            }
        )
        return df.groupby(["l_returnflag", "l_linestatus"], as_index=False).sum()

    ds = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
    ).map_batches(partial, batch_format="pandas")
    return ds.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty_micro", alias_name="sum_qty_micro"),
        Sum("sum_base_micro", alias_name="sum_base_micro"),
        Sum("sum_disc_micro", alias_name="sum_disc_micro"),
        Sum("n_rows", alias_name="n_rows"),
    )


def events_hopping_window(
    sf_dir: str, size_s: int = 600, hop_s: int = 300
) -> rd.Dataset:
    """Hopping (sliding) window aggregate per event_type: windows of
    `size_s` seconds starting every `hop_s` seconds, so each event lands
    in size/hop overlapping windows.

    The fan-out happens vectorized INSIDE the batch (np.repeat/tile) and
    is immediately collapsed by the per-batch partial aggregation, so
    downstream stages see one row per (type, window) per batch — the
    window overlap factor never multiplies moved bytes. Like the
    tumbling window, the key space is calendar-bounded, so the partials
    tree-reduce without a hash shuffle.
    """
    if size_s % hop_s != 0:
        raise ValueError(
            f"size_s ({size_s}) must be a multiple of hop_s ({hop_s}): "
            "partial-overlap windows would be silently dropped otherwise"
        )
    fanout = size_s // hop_s

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        epoch = (batch["ts"].astype("int64") // 1_000_000).to_numpy()
        base = epoch // hop_s
        micro = round_half_away(batch["value"].to_numpy() * MICRO).astype("int64")
        offs = np.arange(fanout, dtype="int64")
        win = (np.repeat(base, fanout) - np.tile(offs, len(base))) * hop_s
        df = pd.DataFrame(
            {
                "event_type": np.repeat(batch["event_type"].to_numpy(), fanout),
                "window_start": win,
                "sum_value_micro": np.repeat(micro, fanout),
                "n_events": np.ones(len(win), dtype="int64"),
            }
        )
        return df.groupby(["event_type", "window_start"], as_index=False)[
            ["sum_value_micro", "n_events"]
        ].sum()

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    ).map_batches(partial, batch_format="pandas")
    return tree_sum(
        ds, ["event_type", "window_start"], ["sum_value_micro", "n_events"]
    )


def events_daily_active_users(sf_dir: str) -> rd.Dataset:
    """Exact COUNT(DISTINCT user_id) per (event_type, day).

    Scale shape for exact distributed count-distinct: dedupe the
    (key, user) pairs locally per batch first (cuts shuffled rows),
    hash-shuffle ONLY the surviving pairs so each pair lands in exactly
    one partition, dedupe per block, then ship tiny per-block partial
    counts into the final small groupby.
    """

    def local_pairs(batch: pd.DataFrame) -> pd.DataFrame:
        day = (batch["ts"].astype("int64") // 1_000_000 // 86400).astype("int64")
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "day": day,
                "user_id": batch["user_id"],
            }
        )
        return df.drop_duplicates()

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates()
        out = df.groupby(["event_type", "day"], as_index=False).agg(
            n_users=("user_id", "count")
        )
        out["n_users"] = out["n_users"].astype("int64")
        return out

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "user_id"]
    ).map_batches(local_pairs, batch_format="pandas")
    deduped = ds.repartition(8, keys=["event_type", "day", "user_id"]).map_batches(
        count_partial, batch_format="pandas", batch_size=None
    )
    return deduped.groupby(["event_type", "day"]).aggregate(
        Sum("n_users", alias_name="n_users")
    )


def q3_top_orders(
    sf_dir: str,
    segment: str = "BUILDING",
    cutoff: str = "1998-06-01",
    k: int = 10,
) -> rd.Dataset:
    """TPC-H Q3-shaped 3-table pipeline: customer (filter, broadcast) x
    orders x lineitem -> per-order revenue -> distributed top-k.

    Join shapes chosen by side size: customer(segment) is a broadcast
    semi-filter (`ray.put` key set probed in map_batches — never
    shuffled); orders x lineitem is big x big, so it uses Ray Data's
    native hash `Dataset.join` which shuffles both sides by order key.
    Revenue partials are pre-aggregated per batch before the final
    groupby, and top-k is local-k per block + one tiny final reduce (no
    global sort).
    """
    import pyarrow.parquet as pq

    import ray

    from ocrs_ray.pipeline import default_npart

    join_partitions = default_npart()

    cutoff_ts = pd.Timestamp(cutoff)
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    keys = frozenset(
        ck
        for ck, seg in zip(
            cust.column("c_custkey").to_pylist(), cust.column("c_mktsegment").to_pylist()
        )
        if seg == segment
    )
    keys_ref = ray.put(keys)

    def semi_filter(batch: pd.DataFrame) -> pd.DataFrame:
        sel = batch["o_custkey"].isin(worker_value(keys_ref)) & (
            batch["o_orderdate"] < cutoff_ts
        )
        out = batch.loc[sel, ["o_orderkey", "o_orderdate"]]
        return out.assign(
            o_orderdate_us=out["o_orderdate"].astype("int64")
        )[["o_orderkey", "o_orderdate_us"]]

    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(semi_filter, batch_format="pandas")

    def line_partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["l_shipdate"] > cutoff_ts]
        rev = round_half_away(
            (b["l_extendedprice"] * (1.0 - b["l_discount"])).to_numpy() * MICRO
        ).astype("int64")
        df = pd.DataFrame({"l_orderkey": b["l_orderkey"].to_numpy(), "revenue_micro": rev})
        return df.groupby("l_orderkey", as_index=False).sum()

    lineitem = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(line_partial, batch_format="pandas")

    joined = orders.join(
        lineitem,
        join_type="inner",
        num_partitions=join_partitions,
        on=("o_orderkey",),
        right_on=("l_orderkey",),
    )

    def join_partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby(
            ["o_orderkey", "o_orderdate_us"], as_index=False
        ).agg(revenue_micro=("revenue_micro", "sum"))

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = df.sort_values(["revenue_micro", "o_orderkey"], ascending=[False, True])
        return g.head(k)[["o_orderkey", "o_orderdate_us", "revenue_micro"]]

    def merge_topk(df: pd.DataFrame) -> pd.DataFrame:
        return local_topk(
            df.groupby(["o_orderkey", "o_orderdate_us"], as_index=False)[
                "revenue_micro"
            ].sum()
        )

    # The join already co-partitions by order key, but one partition may
    # emit several blocks, so a key can straddle block boundaries. A
    # keyed repartition of the per-block partials (tiny: one row per
    # order per block) re-co-locates them; block merge+top-k is then
    # globally valid and only k rows per block reach the final reduce.
    partials = joined.map_batches(join_partial, batch_format="pandas")
    return (
        partials.repartition(join_partitions, keys=["o_orderkey"])
        .map_batches(merge_topk, batch_format="pandas", batch_size=None)
        .repartition(1)
        .map_batches(local_topk, batch_format="pandas", batch_size=None)
    )


def customer_order_counts(
    sf_dir: str, exclude_priority: str = "1-URGENT"
) -> rd.Dataset:
    """TPC-H Q13-shaped left-outer-join distribution: how many customers
    placed exactly N qualifying orders (the ON-clause filter excludes
    one priority class), INCLUDING the zero-order customers the outer
    join exists to keep.

    Scale shape: the outer join is never materialized. Orders reduce to
    per-customer counts (per-batch partial -> keyed repartition + block
    merge; custkey is unbounded so the shuffle stays but ships one row
    per customer per block, not one per order). The count histogram is
    a bounded key space (max orders/customer is a small constant), so it
    tree-reduces shuffle-free, and the zero bucket is recovered by
    arithmetic: |customer| (a metadata-only parquet count) minus the
    number of matched customers. Assumes o_custkey -> c_custkey
    referential integrity (TPC-H guarantees it); with orphan keys the
    matched counts would need a hash semi-join against customer first.
    """
    from ocrs_ray.pipeline import default_npart

    npart = default_npart()
    n_customers = read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    ).count()

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["o_orderpriority"] != exclude_priority]
        out = b.groupby("o_custkey", as_index=False).size()
        out.columns = ["c_custkey", "c_count"]
        return out

    def histogram(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("c_count", as_index=False).size()
        out.columns = ["c_count", "custdist"]
        return out

    def add_zero_bucket(df: pd.DataFrame) -> pd.DataFrame:
        unmatched = n_customers - int(df["custdist"].sum())
        if unmatched > 0:
            zero = pd.DataFrame({"c_count": [0], "custdist": [unmatched]})
            df = pd.concat([df, zero], ignore_index=True)
        return df.astype({"c_count": "int64", "custdist": "int64"})

    partials = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderpriority"]
    ).map_batches(partial, batch_format="pandas")
    counts = hash_sum(partials, ["c_custkey"], ["c_count"], npart).map_batches(
        histogram, batch_format="pandas", batch_size=None
    )
    merged = tree_sum(counts, ["c_count"], ["custdist"])
    return merged.map_batches(
        add_zero_bucket, batch_format="pandas", batch_size=None
    )


def orders_with_returns(
    sf_dir: str, start: str = "1997-01-01", end: str = "1998-01-01"
) -> rd.Dataset:
    """TPC-H Q4-shaped exact big x big semi-join: count orders per
    priority (within a date window) that have at least one returned
    lineitem (l_returnflag = 'R').

    The qualifying-orderkey set is proportional to the order count, so
    it can NEVER be broadcast (contrast `active_customers_bloom`, whose
    Bloom probe is approximate, and `inactive_customers`, whose build
    side is small). Ray Data's native `join_type="left_semi"` hash join
    does exactly the EXISTS semantics — each order emitted at most once
    regardless of how many returned lineitems it has, so no build-side
    dedupe shuffle is needed (a per-batch local dedupe still trims the
    shuffled volume). The per-priority count is a bounded key space
    (5 priorities) and tree-reduces shuffle-free.
    """
    from ocrs_ray.pipeline import default_npart

    npart = default_npart()
    start_ts, end_ts = pd.Timestamp(start), pd.Timestamp(end)

    def orders_filter(batch: pd.DataFrame) -> pd.DataFrame:
        sel = (batch["o_orderdate"] >= start_ts) & (batch["o_orderdate"] < end_ts)
        return batch.loc[sel, ["o_orderkey", "o_orderpriority"]]

    def returned_keys(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["l_returnflag"] == "R"]
        return b[["l_orderkey"]].drop_duplicates()

    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority", "o_orderdate"],
    ).map_batches(orders_filter, batch_format="pandas")
    returned = read_table(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_returnflag"]
    ).map_batches(returned_keys, batch_format="pandas")

    joined = orders.join(
        returned,
        join_type="left_semi",
        num_partitions=npart,
        on=("o_orderkey",),
        right_on=("l_orderkey",),
    )

    def count_partial(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.groupby("o_orderpriority", as_index=False).size()
        out.columns = ["o_orderpriority", "order_count"]
        return out.astype({"order_count": "int64"})

    partials = joined.map_batches(count_partial, batch_format="pandas")
    return tree_sum(partials, ["o_orderpriority"], ["order_count"])


def late_shipment_orders(
    sf_dir: str,
    start: str = "1997-01-01",
    end: str = "1998-01-01",
    late_days: int = 90,
) -> rd.Dataset:
    """TPC-H Q4-shaped CORRELATED NON-EQUI EXISTS: count orders per
    priority (within a date window) having at least one lineitem
    shipped `late_days` or more after the order date. Unlike
    `orders_with_returns` (equi-semi-join EXISTS), the predicate
    compares a lineitem column against the OUTER row's o_orderdate, so
    no native semi-join expresses it directly.

    Decorrelation: EXISTS(l_shipdate >= o_orderdate + D) over an
    order's lineitems is equivalent to max(l_shipdate) >= o_orderdate
    + D, so the shape is aggregate-then-rejoin (same as
    `part_small_quantity_revenue`): block-partial per-order max
    shrinks lineitem to ~unique keys per block, a keyed repartition +
    block merge makes the max exact (one block per partition on 2.49),
    and a dense big x big hash join ships one tiny (key, max) row per
    order next to the window-filtered orders. The final per-priority
    count is a bounded key space and tree-reduces shuffle-free.
    """
    import pyarrow.dataset as pads

    from ocrs_ray.pipeline import default_npart

    npart = default_npart()
    start_ts, end_ts = pd.Timestamp(start), pd.Timestamp(end)
    late = pd.Timedelta(days=late_days)

    def max_partial(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.groupby("l_orderkey", as_index=False)["l_shipdate"].max()
        return out.rename(columns={"l_shipdate": "max_ship"})

    li = read_table(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
    ).map_batches(max_partial, batch_format="pandas")
    maxes = hash_sum(li, ["l_orderkey"], ["max_ship"], npart, agg="max")

    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority", "o_orderdate"],
        filter=(
            (pads.field("o_orderdate") >= start_ts.to_pydatetime())
            & (pads.field("o_orderdate") < end_ts.to_pydatetime())
        ),
    )

    joined = orders.join(
        maxes,
        join_type="inner",
        num_partitions=npart,
        on=("o_orderkey",),
        right_on=("l_orderkey",),
    )

    def late_partial(batch: pd.DataFrame) -> pd.DataFrame:
        sel = batch["max_ship"] >= (batch["o_orderdate"] + late)
        out = batch.loc[sel].groupby("o_orderpriority", as_index=False).size()
        out.columns = ["o_orderpriority", "late_orders"]
        return out.astype({"late_orders": "int64"})

    partials = joined.map_batches(late_partial, batch_format="pandas")
    return tree_sum(partials, ["o_orderpriority"], ["late_orders"])


def part_small_quantity_revenue(sf_dir: str) -> rd.Dataset:
    """TPC-H Q17-shaped correlated scalar aggregate: total revenue and
    row count of lineitems whose quantity is below 20% of their own
    part's average quantity.

    The per-part average cannot be broadcast (partkey cardinality grows
    with the corpus), so the shape is aggregate-then-rejoin: per-part
    (sum_qty, n) reduces through keyed repartition + block merge, then
    a native hash join ships the tiny stats rows back alongside the
    detail rows co-partitioned by partkey. The below-average test is
    integer-exact — `5 * n * qty < sum_qty` with quantities cast to
    int64 — so no float-associativity drift vs the SQL oracle, and the
    final scalar tree-reduces (single bounded key).
    """
    from ocrs_ray.pipeline import default_npart

    npart = default_npart()

    def stats_partial(batch: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "l_partkey": batch["l_partkey"],
                "sum_qty": batch["l_quantity"].astype("int64"),
                "n": np.ones(len(batch), dtype="int64"),
            }
        )
        return df.groupby("l_partkey", as_index=False).sum()

    stats = hash_sum(
        read_table(
            f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_quantity"]
        ).map_batches(stats_partial, batch_format="pandas"),
        ["l_partkey"],
        ["sum_qty", "n"],
        npart,
    )

    # Probe side collapses to per-(partkey, quantity) buckets before the
    # join: quantities are integral and bounded, so each batch's bucket
    # partials (count + micro-revenue) are additive — duplicate bucket
    # rows across batches each join the part's single stats row once and
    # sum correctly downstream, so no global bucket merge is needed.
    def bucket_partial(batch: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "l_partkey": batch["l_partkey"],
                "qty": batch["l_quantity"].astype("int64"),
                "n_rows": np.ones(len(batch), dtype="int64"),
                "rev_micro": round_half_away(
                    batch["l_extendedprice"].to_numpy() * MICRO
                ).astype("int64"),
            }
        )
        return df.groupby(["l_partkey", "qty"], as_index=False).sum()

    buckets = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    ).map_batches(bucket_partial, batch_format="pandas")
    joined = buckets.join(
        stats,
        join_type="inner",
        num_partitions=npart,
        on=("l_partkey",),
    )

    def small_partial(batch: pd.DataFrame) -> pd.DataFrame:
        sel = 5 * batch["n"] * batch["qty"] < batch["sum_qty"]
        b = batch[sel]
        return pd.DataFrame(
            {
                "tag": [0],
                "n_small": [int(b["n_rows"].sum())],
                "revenue_micro": [int(b["rev_micro"].sum())],
            }
        ).astype("int64")

    partials = joined.map_batches(small_partial, batch_format="pandas")
    merged = tree_sum(partials, ["tag"], ["n_small", "revenue_micro"])

    def drop_tag(df: pd.DataFrame) -> pd.DataFrame:
        return df[["n_small", "revenue_micro"]]

    return merged.map_batches(drop_tag, batch_format="pandas", batch_size=None)


def _lineitem_qty_finest(sf_dir: str) -> rd.Dataset:
    """Finest (returnflag, linestatus) quantity aggregate shared by the
    ROLLUP and CUBE grouping-set ops: bounded key space, one data
    pass, tree-reduced shuffle-free; every coarser grouping set is
    derived from this single-block result."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "sum_qty": batch["l_quantity"].astype("int64"),
                "n_rows": np.ones(len(batch), dtype="int64"),
            }
        )
        return df.groupby(
            ["l_returnflag", "l_linestatus"], as_index=False
        ).sum()

    finest = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    ).map_batches(partial, batch_format="pandas")
    return tree_sum(
        finest, ["l_returnflag", "l_linestatus"], ["sum_qty", "n_rows"]
    )


def lineitem_rollup(sf_dir: str) -> rd.Dataset:
    """GROUP BY ROLLUP (returnflag, linestatus): the finest level plus
    per-returnflag subtotals and a grand total, NULL-marked like SQL.

    Scale shape: only the FINEST level touches the data — a bounded key
    space (|flags| x |statuses|), so it tree-reduces shuffle-free; the
    coarser rollup levels are derived from those few finest rows in the
    final single block. At 100 TB the subtotal derivation cost stays
    constant while a naive per-level re-aggregation would re-scan the
    corpus once per level.
    """

    def rollup(df: pd.DataFrame) -> pd.DataFrame:
        vals = ["sum_qty", "n_rows"]
        sub = df.groupby("l_returnflag", as_index=False)[vals].sum()
        sub["l_linestatus"] = None
        total = df[vals].sum().to_frame().T
        total["l_returnflag"] = None
        total["l_linestatus"] = None
        cols = ["l_returnflag", "l_linestatus", "sum_qty", "n_rows"]
        out = pd.concat([df[cols], sub[cols], total[cols]], ignore_index=True)
        return out.astype({"sum_qty": "int64", "n_rows": "int64"})

    return _lineitem_qty_finest(sf_dir).map_batches(
        rollup, batch_format="pandas", batch_size=None
    )


def inactive_customers(sf_dir: str, since: str = "2001-01-01") -> rd.Dataset:
    """Anti join: customers with NO order on/after `since`.

    The distinct recent-custkey set is reduced distributedly (per-batch
    unique -> `Dataset.unique`, which ships only deduped keys) and then
    broadcast via `ray.put` for a shuffle-free NOT-IN probe over
    customer. At 100 TB with a build side too large to broadcast this
    becomes `Dataset.join(join_type="left_anti"-style)` — same probe
    semantics, hash-partitioned instead of broadcast.
    """
    import ray

    since_ts = pd.Timestamp(since)

    def recent_keys(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["o_orderdate"] >= since_ts]
        return pd.DataFrame({"o_custkey": b["o_custkey"].unique()})

    recent = (
        read_table(
            f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"]
        )
        .map_batches(recent_keys, batch_format="pandas")
        .unique("o_custkey")
    )
    keys_ref = ray.put(frozenset(recent))

    def anti_probe(batch: pd.DataFrame) -> pd.DataFrame:
        sel = ~batch["c_custkey"].isin(worker_value(keys_ref))
        return batch.loc[sel, ["c_custkey", "c_name"]]

    return read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    ).map_batches(anti_probe, batch_format="pandas")


def inactive_customers_anti_join(
    sf_dir: str, since: str = "2001-01-01"
) -> rd.Dataset:
    """The 100-TB path for `inactive_customers`: the same NOT-EXISTS
    semantics via Ray Data's native `join_type="left_anti"` hash join,
    for when the recent-custkey build side is itself too large to
    broadcast. Both sides hash-partition by custkey; per-batch build
    dedupe trims shuffle volume (anti-join semantics don't need a
    global dedupe). Output is identical to the broadcast variant.
    """
    from ocrs_ray.pipeline import default_npart

    npart = default_npart()
    since_ts = pd.Timestamp(since)

    def recent_keys(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["o_orderdate"] >= since_ts]
        return pd.DataFrame({"o_custkey": b["o_custkey"].unique()})

    recent = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"]
    ).map_batches(recent_keys, batch_format="pandas")
    customer = read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    return customer.join(
        recent,
        join_type="left_anti",
        num_partitions=npart,
        on=("c_custkey",),
        right_on=("o_custkey",),
    )


def supplier_region_rollup(sf_dir: str) -> rd.Dataset:
    """Dimension-chain broadcast join: supplier x nation x region ->
    per-region supplier stats.

    The two dimension tables are pre-joined driver-side into ONE
    nationkey -> region_name lookup (dims are tiny by definition) and
    broadcast once; the fact scan probes it per batch. This is the
    star-schema shape at any scale: only the fact table streams, the
    shuffle carries one partial row per (region, block).
    """
    import pyarrow.parquet as pq

    import ray

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    )
    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    r_name = dict(
        zip(region.column("r_regionkey").to_pylist(), region.column("r_name").to_pylist())
    )
    nat_to_region = {
        nk: r_name[rk]
        for nk, rk in zip(
            nation.column("n_nationkey").to_pylist(),
            nation.column("n_regionkey").to_pylist(),
        )
    }
    lookup_ref = ray.put(nat_to_region)

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        lookup = worker_value(lookup_ref)
        df = pd.DataFrame(
            {
                "r_name": batch["s_nationkey"].map(lookup),
                "sum_acctbal_micro": round_half_away(
                    batch["s_acctbal"].to_numpy() * MICRO
                ).astype("int64"),
                "n_suppliers": np.ones(len(batch), dtype="int64"),
            }
        )
        return df.groupby("r_name", as_index=False).sum()

    ds = read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_nationkey", "s_acctbal"]
    ).map_batches(probe, batch_format="pandas")
    # The region key space is bounded (5 regions) regardless of fact
    # rows, so the partials tree-reduce — no hash-aggregate machinery.
    return tree_sum(ds, ["r_name"], ["sum_acctbal_micro", "n_suppliers"])


def events_sorted_sink_scan(
    sf_dir: str, lo: str = "2024-01-10", hi: str = "2024-01-15"
) -> "pd.DataFrame":
    """Sort-clustered sink + pruned window re-scan: globally sort the
    events ledger by ts (Ray Data's range-partitioned distributed
    sort — the all-to-all this op exists to exercise), write the
    sorted layout, then answer a time-window aggregate with a
    predicate-pushdown re-read of that layout. Sorting clusters each
    file/row-group's ts range tightly, so the window filter prunes
    whole files at the metadata level — the write-once/scan-many
    layout choice for time-windowed corpora (the test pins the file
    ranges really are disjoint).

    Scale shape: one distributed sort + streaming write, then a
    pruned streaming scan with per-block partials; the driver holds
    one row per block. Exact: micro-unit sums, count + sum oracled.
    """
    import shutil
    import tempfile
    from datetime import datetime

    import pyarrow.dataset as pads

    out_dir = tempfile.mkdtemp(prefix="ocrs_ray_sorted_")
    try:
        read_table(
            f"{sf_dir}/events.parquet", columns=["ts", "value"]
        ).sort("ts").write_parquet(out_dir)

        win = read_table(
            out_dir,
            columns=["ts", "value"],
            filter=(
                (pads.field("ts") >= datetime.fromisoformat(lo))
                & (pads.field("ts") < datetime.fromisoformat(hi))
            ),
        )

        def partial(b: pd.DataFrame) -> pd.DataFrame:
            micro = round_half_away(b["value"].to_numpy() * MICRO).astype(
                "int64"
            )
            return pd.DataFrame(
                {
                    "n_events": [len(b)],
                    "sum_value_micro": [int(micro.sum())],
                }
            )

        parts = win.map_batches(partial, batch_format="pandas").to_pandas()
        if parts.empty:
            # Zero blocks matched the window: to_pandas() returns a
            # COLUMN-LESS frame (CLAUDE.md zero-row trap) — emit the
            # correct empty aggregate instead of a KeyError.
            return pd.DataFrame({"n_events": [0], "sum_value_micro": [0]})
        return pd.DataFrame(
            {
                "n_events": [int(parts["n_events"].sum())],
                "sum_value_micro": [int(parts["sum_value_micro"].sum())],
            }
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def events_value_quantiles(sf_dir: str, partitions: int = 8) -> rd.Dataset:
    """Exact grouped quantiles (p50/p95) of event value per event_type.

    One hash shuffle co-locates each group, then the per-block kernel is
    a single vectorized sort. Quantile convention matches SQL
    `quantile_disc`: sorted element at index ceil(q*n)-1, computed on
    integer micro-units so the oracle compares bit-exactly. Group
    cardinality is bounded (event types), so whole-group blocks are the
    right shape; unbounded groups would switch to a mergeable sketch
    (t-digest) with the same pipeline shape.
    """

    def to_micro(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "value_micro": round_half_away(
                    batch["value"].to_numpy() * MICRO
                ).astype("int64"),
            }
        )

    def quantiles(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "event_type": pd.Series([], dtype="object"),
                    "p50_micro": pd.Series([], dtype="int64"),
                    "p95_micro": pd.Series([], dtype="int64"),
                    "n_events": pd.Series([], dtype="int64"),
                }
            )
        out = []
        for etype, g in df.groupby("event_type"):
            v = np.sort(g["value_micro"].to_numpy())
            n = len(v)
            pick = lambda q: int(v[int(np.ceil(q * n)) - 1])
            out.append((etype, pick(0.5), pick(0.95), n))
        return pd.DataFrame(
            out, columns=["event_type", "p50_micro", "p95_micro", "n_events"]
        ).astype({"p50_micro": "int64", "p95_micro": "int64", "n_events": "int64"})

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    ).map_batches(to_micro, batch_format="pandas")
    return ds.repartition(partitions, keys=["event_type"]).map_batches(
        quantiles, batch_format="pandas", batch_size=None
    )


_HLL_P = 12  # 4096 registers; relative error ~1.04/sqrt(4096) = 1.6%


def _hll_bucket_rank(hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-hash HLL (bucket, rank): bucket = top P bits, rank = leading
    zeros of the remaining 64-P bits + 1 (capped when all-zero)."""
    h = hashes.astype(np.uint64)
    bucket = (h >> np.uint64(64 - _HLL_P)).astype(np.int64)
    rest = h << np.uint64(_HLL_P)
    rank = np.full(len(h), 64 - _HLL_P + 1, dtype=np.int8)
    nz = rest != 0
    # log2 of a uint64 via float is unsafe past 2^53; shift down first.
    top32 = (rest[nz] >> np.uint64(32)).astype(np.uint64)
    lz = np.where(
        top32 != 0,
        31 - np.floor(np.log2(top32.astype(np.float64) + 0.5)).astype(np.int64),
        32 + 63 - np.floor(
            np.log2((rest[nz] & np.uint64(0xFFFFFFFF)).astype(np.float64) + 0.5)
        ).astype(np.int64) - 32,
    )
    rank[nz] = (lz + 1).astype(np.int8)
    return bucket, rank


def _hll_registers(hashes: np.ndarray) -> np.ndarray:
    """HyperLogLog register vector (max leading-zero rank per bucket)."""
    regs = np.zeros(1 << _HLL_P, dtype=np.int8)
    if len(hashes) == 0:
        return regs
    bucket, rank = _hll_bucket_rank(hashes)
    np.maximum.at(regs, bucket, rank)
    return regs


def _hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator with small-range (linear counting) fix."""
    m = float(len(regs))
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / np.power(2.0, -regs.astype(np.float64)).sum()
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)
    return float(est)


def events_distinct_users_hll(sf_dir: str, partitions: int = 8) -> rd.Dataset:
    """APPROXIMATE distinct users per event_type via HyperLogLog.

    The mergeable-sketch shape for count-distinct when per-key user sets
    no longer fit anywhere: each batch emits one 4096-byte register
    vector per key (constant size regardless of row count), registers
    merge with element-wise max after one hash shuffle, and the estimate
    is within ~1.6% (p=12). The exact path for bounded keys is
    `events_daily_active_users`.
    """

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        out = []
        hashes = pd.util.hash_array(batch["user_id"].to_numpy()).astype(np.uint64)
        for etype, idx in batch.groupby("event_type").groups.items():
            pos = batch.index.get_indexer(idx)
            out.append((etype, _hll_registers(hashes[pos]).tobytes()))
        return pd.DataFrame(out, columns=["event_type", "registers"])

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for etype, g in df.groupby("event_type"):
            regs = np.zeros(1 << _HLL_P, dtype=np.int8)
            for blob in g["registers"]:
                regs = np.maximum(regs, np.frombuffer(blob, dtype=np.int8))
            rows.append((etype, int(round(_hll_estimate(regs)))))
        out = pd.DataFrame(rows, columns=["event_type", "n_users_est"])
        out["n_users_est"] = out["n_users_est"].astype("int64")
        return out

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    ).map_batches(partial, batch_format="pandas")
    return ds.repartition(partitions, keys=["event_type"]).map_batches(
        merge, batch_format="pandas", batch_size=None
    )


def events_daily_active_users_hll(sf_dir: str) -> rd.Dataset:
    """APPROXIMATE daily active users per (event_type, day) — the
    grouped count-distinct at corpus scale, where the exact op
    (`events_daily_active_users`) must shuffle every distinct
    (type, day, user) triple.

    Sparse mergeable HLL: each batch emits one (key, bucket, max-rank)
    row per occupied register — never a dense 4 KiB blob per key, so
    tiny groups cost rows, not registers. Partials max-reduce through
    `tree_sum(agg="max")` (the (type, day, bucket) key space is
    calendar-bounded x 4096, independent of row count), and the final
    single-block pass densifies each group's registers and applies the
    standard estimator with the linear-counting small-range fix.
    """

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        epoch = batch["ts"].astype("int64") // 1_000_000
        day = (epoch // 86400).astype("int64")
        hashes = pd.util.hash_array(batch["user_id"].to_numpy()).astype(np.uint64)
        bucket, rank = _hll_bucket_rank(hashes)
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "day": day.to_numpy(),
                "bucket": bucket,
                "rank": rank.astype("int64"),
            }
        )
        return df.groupby(["event_type", "day", "bucket"], as_index=False)[
            "rank"
        ].max()

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for (etype, day), g in df.groupby(["event_type", "day"]):
            regs = np.zeros(1 << _HLL_P, dtype=np.int8)
            regs[g["bucket"].to_numpy()] = g["rank"].to_numpy()
            rows.append((etype, int(day), int(round(_hll_estimate(regs)))))
        return pd.DataFrame(
            rows, columns=["event_type", "day", "n_users_est"]
        ).astype({"day": "int64", "n_users_est": "int64"})

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "user_id"]
    ).map_batches(partial, batch_format="pandas")
    merged = tree_sum(
        ds, ["event_type", "day", "bucket"], ["rank"], agg="max"
    )
    return merged.map_batches(finalize, batch_format="pandas", batch_size=None)


def events_range_join(sf_dir: str, window_hours: int = 6) -> rd.Dataset:
    """Range (interval) join: each purchase matched to every error event
    of the same user within the following `window_hours`.

    The other classic join Ray Data lacks natively (alongside as-of):
    one hash shuffle co-locates users, then the per-block probe is two
    vectorized `searchsorted` calls per side — lo/hi bounds into the
    time-sorted error rows — plus an arange gather; no per-row loop and
    never a cross join. Integer-microsecond comparisons keep the result
    bit-exact vs the SQL oracle.
    """
    win_us = window_hours * 3600 * 1_000_000

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "purchase_event_id": pd.Series([], dtype="int64"),
                "error_event_id": pd.Series([], dtype="int64"),
                "user_id": pd.Series([], dtype="int64"),
            }
        )
        if df.empty:
            return empty
        out = []
        for _, g in df.groupby("user_id"):
            p = g[g["event_type"] == "purchase"]
            e = g[g["event_type"] == "error"].sort_values("ts", kind="stable")
            if p.empty or e.empty:
                continue
            e_us = e["ts"].astype("int64").to_numpy()
            e_ids = e["event_id"].to_numpy()
            p_us = p["ts"].astype("int64").to_numpy()
            p_ids = p["event_id"].to_numpy()
            lo = np.searchsorted(e_us, p_us, side="right")
            hi = np.searchsorted(e_us, p_us + win_us, side="right")
            counts = hi - lo
            total = int(counts.sum())
            if total == 0:
                continue
            pi = np.repeat(np.arange(len(p_us)), counts)
            k = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
            ei = lo[pi] + k
            out.append(
                pd.DataFrame(
                    {
                        "purchase_event_id": p_ids[pi],
                        "error_event_id": e_ids[ei],
                        "user_id": np.full(total, g["user_id"].iloc[0], dtype="int64"),
                    }
                )
            )
        return pd.concat(out, ignore_index=True) if out else empty

    return _partition_by_user(sf_dir).map_batches(
        probe, batch_format="pandas", batch_size=None
    )


def part_type_revenue(sf_dir: str) -> rd.Dataset:
    """TPC-H Q14-shaped rollup: discounted lineitem revenue per part
    type. Broadcast hash join (part key -> type is the small side, sent
    once via `ray.put`) probed inside `map_batches`; the big lineitem
    side never shuffles — only the per-type partials (a handful of rows
    per batch) reach the groupby."""
    import pyarrow.parquet as pq

    import ray

    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"])
    lookup_ref = ray.put(
        dict(zip(part.column("p_partkey").to_pylist(), part.column("p_type").to_pylist()))
    )

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        lookup = worker_value(lookup_ref)
        rev = batch["l_extendedprice"].to_numpy() * (
            1.0 - batch["l_discount"].to_numpy()
        )
        df = pd.DataFrame(
            {
                "p_type": batch["l_partkey"].map(lookup),
                "sum_revenue_micro": round_half_away(rev * MICRO).astype("int64"),
                "n_items": np.ones(len(batch), dtype="int64"),
            }
        )
        return df.groupby("p_type", as_index=False).sum()

    ds = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount"],
    ).map_batches(probe, batch_format="pandas")
    # p_type is a closed vocabulary (150 combinations in TPC-H),
    # bounded by the schema rather than the row count -> tree-reduce.
    return tree_sum(ds, ["p_type"], ["sum_revenue_micro", "n_items"])


def events_funnel(
    sf_dir: str, stages: tuple[str, ...] = ("signup", "click", "purchase")
) -> rd.Dataset:
    """Ordered funnel: users reaching each stage, where stage i+1 must
    occur at-or-after the user's first qualifying stage-i event.

    One hash shuffle on user_id; per-block the funnel is a vectorized
    per-user chain of first-at-or-after lookups; only the per-stage
    partial counts (len(stages) rows per block) leave the block.
    """

    def funnel(df: pd.DataFrame) -> pd.DataFrame:
        # Vectorized over stages, never over users: each stage is a
        # filter + merge-on-user + per-user min.
        counts = np.zeros(len(stages), dtype="int64")
        cutoff = None  # Series: user_id -> first time reaching prev stage
        for i, stage in enumerate(stages):
            sel = df.loc[df["event_type"] == stage, ["user_id", "ts"]]
            if cutoff is not None:
                sel = sel.merge(
                    cutoff.rename("cutoff"), left_on="user_id", right_index=True
                )
                sel = sel.loc[sel["ts"] >= sel["cutoff"], ["user_id", "ts"]]
            if sel.empty:
                break
            cutoff = sel.groupby("user_id")["ts"].min()
            counts[i] = len(cutoff)
        return pd.DataFrame(
            {
                "stage": np.arange(1, len(stages) + 1, dtype="int64"),
                "stage_name": list(stages),
                "n_users": counts,
            }
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["stage", "stage_name"], as_index=False)["n_users"].sum()
        return out.sort_values("stage").reset_index(drop=True)

    return (
        _partition_by_user(sf_dir)
        .map_batches(funnel, batch_format="pandas", batch_size=None)
        .repartition(1)
        .map_batches(final, batch_format="pandas", batch_size=None)
    )


def user_retention(sf_dir: str, horizon_days: int = 7) -> rd.Dataset:
    """Day-over-horizon retention: for each day, how many users active
    that day were also active exactly `horizon_days` later.

    Per-user day sets are local after the user_id shuffle; the day-key
    space is bounded by the corpus time range, so the partial counts
    tree-reduce without a second shuffle.
    """

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "day": pd.Series([], dtype="int64"),
                    "n_retained": pd.Series([], dtype="int64"),
                }
            )
        days = (df["ts"].astype("int64") // 86_400_000_000).astype("int64")
        d = pd.DataFrame({"user_id": df["user_id"], "day": days}).drop_duplicates()
        nxt = d.assign(day=d["day"] - horizon_days)
        hit = d.merge(nxt, on=["user_id", "day"])
        g = hit.groupby("day", as_index=False).size()
        return pd.DataFrame(
            {"day": g["day"].astype("int64"), "n_retained": g["size"].astype("int64")}
        )

    return tree_sum(
        _partition_by_user(sf_dir).map_batches(
            partial, batch_format="pandas", batch_size=None
        ),
        ["day"],
        ["n_retained"],
    )


def q5_local_supplier_revenue(
    sf_dir: str,
    region: str = "MIDDLE EAST",
    date_from: str = "1995-01-01",
    date_to: str = "1999-01-01",
) -> rd.Dataset:
    """TPC-H Q5-shaped 6-table join: revenue per nation from lineitems
    whose customer and supplier share a nation inside one region, over
    an order-date slice.

    Join plan by side size (the shapes that hold at 100 TB):
    region/nation and supplier are tiny dimensions -> broadcast dicts
    (`ray.put` once, probed inside map_batches); customer
    (custkey -> nationkey) is the same broadcast dimension
    `orders_customer_join` uses; the ONLY shuffle is the big x big
    lineitem x orders native hash join on the order key, with both
    sides pre-filtered and lineitem pre-aggregated per
    (orderkey, supplier-nation) so the join moves partial sums, not
    raw items. The cross-dimension predicate c_nationkey = s_nationkey
    is applied post-join on broadcast-derived columns, and the final
    per-nation rollup has a bounded key space (25 nations) so the
    partials tree-reduce with no second shuffle.
    """
    import pyarrow.parquet as pq

    import ray

    from ocrs_ray.pipeline import default_npart

    join_partitions = default_npart()
    t_from, t_to = pd.Timestamp(date_from), pd.Timestamp(date_to)

    reg = pq.read_table(f"{sf_dir}/region.parquet")
    region_keys = {
        rk
        for rk, rn in zip(
            reg.column("r_regionkey").to_pylist(), reg.column("r_name").to_pylist()
        )
        if rn == region
    }
    nat = pq.read_table(f"{sf_dir}/nation.parquet")
    nation_name = {
        nk: nn
        for nk, nn, nr in zip(
            nat.column("n_nationkey").to_pylist(),
            nat.column("n_name").to_pylist(),
            nat.column("n_regionkey").to_pylist(),
        )
        if nr in region_keys
    }
    sup = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    supp_nation = {
        sk: snk
        for sk, snk in zip(
            sup.column("s_suppkey").to_pylist(), sup.column("s_nationkey").to_pylist()
        )
        if snk in nation_name
    }
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    cust_nation = {
        ck: cnk
        for ck, cnk in zip(
            cust.column("c_custkey").to_pylist(), cust.column("c_nationkey").to_pylist()
        )
        if cnk in nation_name  # customers outside the region can never match
    }
    supp_ref, cust_ref = ray.put(supp_nation), ray.put(cust_nation)

    def order_probe(batch: pd.DataFrame) -> pd.DataFrame:
        cust_nation = worker_value(cust_ref)
        sel = (batch["o_orderdate"] >= t_from) & (batch["o_orderdate"] < t_to)
        b = batch.loc[sel]
        cn = b["o_custkey"].map(cust_nation)
        keep = cn.notna()
        return pd.DataFrame(
            {
                "o_orderkey": b.loc[keep, "o_orderkey"].to_numpy(),
                "c_nationkey": cn[keep].astype("int64").to_numpy(),
            }
        )

    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(order_probe, batch_format="pandas")

    def line_partial(batch: pd.DataFrame) -> pd.DataFrame:
        supp_nation = worker_value(supp_ref)
        sn = batch["l_suppkey"].map(supp_nation)
        keep = sn.notna()
        b = batch.loc[keep]
        rev = round_half_away(
            (b["l_extendedprice"] * (1.0 - b["l_discount"])).to_numpy() * MICRO
        ).astype("int64")
        df = pd.DataFrame(
            {
                "l_orderkey": b["l_orderkey"].to_numpy(),
                "s_nationkey": sn[keep].astype("int64").to_numpy(),
                "revenue_micro": rev,
                "n_items": np.ones(len(b), dtype="int64"),
            }
        )
        return df.groupby(
            ["l_orderkey", "s_nationkey"], as_index=False
        )[["revenue_micro", "n_items"]].sum()

    lineitem = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(line_partial, batch_format="pandas")

    joined = orders.join(
        lineitem,
        join_type="inner",
        num_partitions=join_partitions,
        on=("o_orderkey",),
        right_on=("l_orderkey",),
    )

    def nation_partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["c_nationkey"] == batch["s_nationkey"]]
        df = pd.DataFrame(
            {
                "n_name": b["s_nationkey"].map(nation_name).to_numpy(),
                "revenue_micro": b["revenue_micro"].to_numpy(),
                "n_items": b["n_items"].to_numpy(),
            }
        )
        return df.groupby("n_name", as_index=False)[
            ["revenue_micro", "n_items"]
        ].sum()

    return tree_sum(
        joined.map_batches(nation_partial, batch_format="pandas"),
        ["n_name"],
        ["revenue_micro", "n_items"],
    )


def q18_large_orders(sf_dir: str, threshold: int = 250) -> rd.Dataset:
    """TPC-H Q18-shaped GROUP BY ... HAVING then join back: orders whose
    total lineitem quantity exceeds `threshold`, with their customer.
    The HAVING side is the classic "find the whales" pattern — the
    filter can only be applied AFTER a full per-order aggregate. The
    orders scan carries a Bloom dynamic-filter pushdown built from the
    qualifying keys (see inline comment): the orders-side join shuffle
    ships ~1% of rows instead of the full table.

    Scale shape: lineitem collapses to per-order quantity sums BEFORE
    anything joins (per-batch partial -> keyed repartition + block
    merge; one row per order per block crosses the wire, never raw
    lineitems). The HAVING filter then cuts that to the qualifying ~1%,
    and two native hash joins attach orders and customer. The joins are
    deliberately NOT broadcasts: the qualifying set is data-proportional
    when the threshold is low, so the hash join is the shape that
    survives 100 TB; Ray's join shuffles only the already-aggregated
    rows. Quantities are integral in the data, so sum_qty is an exact
    int64 on both sides.
    """
    from ocrs_ray.pipeline import default_npart

    npart = default_npart()

    def qty_partial(batch: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "l_orderkey": batch["l_orderkey"].to_numpy(),
                "sum_qty": round_half_away(
                    batch["l_quantity"].to_numpy(dtype="float64")
                ).astype("int64"),
            }
        )
        return df.groupby("l_orderkey", as_index=False)["sum_qty"].sum()

    def merge_and_filter(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_orderkey", as_index=False)["sum_qty"].sum()
        return g[g["sum_qty"] > threshold]

    qualifying = (
        read_table(
            f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
        )
        .map_batches(qty_partial, batch_format="pandas")
        .repartition(npart, keys=["l_orderkey"])
        .map_batches(merge_and_filter, batch_format="pandas", batch_size=None)
    )

    # Bloom dynamic-filter pushdown: the qualifying whales are ~1% of
    # orders, so pre-filtering the orders scan map-side cuts the join's
    # shuffle volume ~100x. The filter is built from per-block bitsets
    # that OR-reduce driver-side (each block ships a fixed 128 KiB
    # summary, never keys — the build side is data-proportional, exact
    # key broadcast would not survive 100 TB). False positives only
    # re-admit rows the exact hash join then drops, so correctness is
    # untouched. `qualifying` is materialized: it feeds both the bloom
    # build and the join, and it is the small post-HAVING output.
    import ray

    from .sketch import build_bloom

    qualifying = qualifying.materialize()
    bloom_ref = ray.put(build_bloom(qualifying, "l_orderkey"))

    def orders_proj(batch: pd.DataFrame) -> pd.DataFrame:
        bf = worker_value(bloom_ref)
        keep = bf.contains(batch["o_orderkey"].to_numpy())
        b = batch.loc[keep]
        return pd.DataFrame(
            {
                "o_orderkey": b["o_orderkey"].to_numpy(),
                "o_custkey": b["o_custkey"].to_numpy(),
                "total_micro": round_half_away(
                    b["o_totalprice"].to_numpy(dtype="float64") * MICRO
                ).astype("int64"),
            }
        )

    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    ).map_batches(orders_proj, batch_format="pandas")
    customer = read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )

    with_orders = qualifying.join(
        orders,
        join_type="inner",
        num_partitions=npart,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )
    joined = with_orders.join(
        customer,
        join_type="inner",
        num_partitions=npart,
        on=("o_custkey",),
        right_on=("c_custkey",),
    )

    def project(batch: pd.DataFrame) -> pd.DataFrame:
        # Ray's join keeps the LEFT side's key name: the order key is
        # still l_orderkey and the customer key o_custkey after both
        # joins.
        out = batch[
            ["c_name", "o_custkey", "l_orderkey", "total_micro", "sum_qty"]
        ].rename(columns={"o_custkey": "c_custkey", "l_orderkey": "o_orderkey"})
        return out.astype(
            {"c_custkey": "int64", "o_orderkey": "int64", "sum_qty": "int64"}
        )

    return joined.map_batches(project, batch_format="pandas")


def part_min_price_supplier(sf_dir: str) -> rd.Dataset:
    """TPC-H Q2-shaped argmin-per-group with join back: for every part,
    the supplier offering its cheapest lineitem (min l_extendedprice,
    ties broken by the smaller suppkey), annotated with the part brand.
    The correlated-subquery MIN pattern (`price = (SELECT min(price)
    ...)`), expressed shuffle-light.

    Scale shape: the argmin is associative, so each batch keeps ONE
    candidate row per part before the keyed repartition — the shuffle
    ships |parts observed per batch| rows, never raw lineitems. A
    per-block argmin after co-location is then globally exact. The part
    table is data-proportional (it grows with the catalog), so brand
    attachment is a native hash join, not a broadcast. Prices are exact
    at 2 decimals in the data, so micro-units are exact int64.
    """
    from ocrs_ray.pipeline import default_npart

    npart = default_npart()

    def argmin_local(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["l_partkey", "min_price_micro", "s_suppkey"], kind="stable"
        )
        return df.drop_duplicates("l_partkey", keep="first")

    def line_partial(batch: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "l_partkey": batch["l_partkey"].to_numpy(),
                "min_price_micro": round_half_away(
                    batch["l_extendedprice"].to_numpy(dtype="float64") * MICRO
                ).astype("int64"),
                "s_suppkey": batch["l_suppkey"].to_numpy(),
            }
        )
        return argmin_local(df)

    candidates = (
        read_table(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_suppkey", "l_extendedprice"],
        )
        .map_batches(line_partial, batch_format="pandas", batch_size=None)
        .repartition(npart, keys=["l_partkey"])
        .map_batches(argmin_local, batch_format="pandas", batch_size=None)
    )

    part = read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]
    )
    joined = candidates.join(
        part,
        join_type="inner",
        num_partitions=npart,
        on=("l_partkey",),
        right_on=("p_partkey",),
    )

    def project(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[
            ["l_partkey", "p_brand", "min_price_micro", "s_suppkey"]
        ].rename(columns={"l_partkey": "p_partkey"})
        return out.astype(
            {
                "p_partkey": "int64",
                "min_price_micro": "int64",
                "s_suppkey": "int64",
            }
        )

    return joined.map_batches(project, batch_format="pandas")


def lineitem_qty_price_stats(sf_dir: str) -> rd.Dataset:
    """Grouped sufficient statistics for covariance / regression of
    price on quantity, per (l_returnflag, l_linestatus): n, sum(qty),
    sum(qty^2), sum(price_cents), sum(qty * price_cents). Downstream,
    slope / correlation / covariance are pure arithmetic over these
    five integers — the distributed part ships ONLY the moments, the
    statistical formula never touches the cluster. (Classic
    one-pass-moments pattern; integer units keep it bit-exact vs SQL.)

    Scale shape: bounded key space (flag x status, ~6 keys), so the
    per-batch partials tree-reduce shuffle-free. Overflow bound: the
    largest addend is qty * price_cents <= 5e8, so int64 holds exactly
    up to ~1.8e10 rows PER GROUP; past that (full 100 TB), split each
    group's reduce into sub-shards and merge the handful of shard sums
    as Python bigints on the driver.
    """

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        qty = round_half_away(
            batch["l_quantity"].to_numpy(dtype="float64")
        ).astype("int64")
        cents = round_half_away(
            batch["l_extendedprice"].to_numpy(dtype="float64") * 100.0
        ).astype("int64")
        df = pd.DataFrame(
            {
                "l_returnflag": batch["l_returnflag"].to_numpy(),
                "l_linestatus": batch["l_linestatus"].to_numpy(),
                "n": np.ones(len(qty), dtype="int64"),
                "sum_qty": qty,
                "sum_qty_sq": qty * qty,
                "sum_price_cents": cents,
                "sum_qty_price_cents": qty * cents,
            }
        )
        return df.groupby(
            ["l_returnflag", "l_linestatus"], as_index=False
        ).sum()

    partials = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
    ).map_batches(partial, batch_format="pandas")
    return tree_sum(
        partials,
        ["l_returnflag", "l_linestatus"],
        ["n", "sum_qty", "sum_qty_sq", "sum_price_cents", "sum_qty_price_cents"],
    )


def segment_top_spender(sf_dir: str) -> rd.Dataset:
    """Top-1 customer per market segment by lifetime order spend (ties
    broken by the smaller custkey) — grouped argmax ON TOP OF a
    distributed aggregate and a join, the "best entity per category"
    composite.

    Scale shape: orders collapse to per-customer spend (partial ->
    keyed repartition + block merge), the segment label attaches via a
    native hash join against customer (data-proportional side, no
    broadcast), then each block keeps one candidate per segment and the
    bounded segment space (5) merges in a single final block. Customers
    with no orders can never win a segment (spend > 0), so the inner
    join is semantically exact.
    """
    from ocrs_ray.pipeline import default_npart

    npart = default_npart()

    def spend_partial(batch: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "o_custkey": batch["o_custkey"].to_numpy(),
                "spend_micro": round_half_away(
                    batch["o_totalprice"].to_numpy(dtype="float64") * MICRO
                ).astype("int64"),
            }
        )
        return df.groupby("o_custkey", as_index=False)["spend_micro"].sum()

    spend = hash_sum(
        read_table(
            f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
        ).map_batches(spend_partial, batch_format="pandas"),
        ["o_custkey"],
        ["spend_micro"],
        npart,
    )

    customer = read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    joined = spend.join(
        customer,
        join_type="inner",
        num_partitions=npart,
        on=("o_custkey",),
        right_on=("c_custkey",),
    )

    def top1(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "c_mktsegment": pd.Series([], dtype="object"),
                    "c_custkey": pd.Series([], dtype="int64"),
                    "spend_micro": pd.Series([], dtype="int64"),
                }
            )
        df = df.sort_values(
            ["c_mktsegment", "spend_micro", "c_custkey"],
            ascending=[True, False, True],
            kind="stable",
        )
        out = df.drop_duplicates("c_mktsegment", keep="first")
        return out[["c_mktsegment", "c_custkey", "spend_micro"]].astype(
            {"c_custkey": "int64", "spend_micro": "int64"}
        )

    def local_top1(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.rename(columns={"o_custkey": "c_custkey"})
        return top1(b)

    return (
        joined.map_batches(local_top1, batch_format="pandas")
        .repartition(1)
        .map_batches(top1, batch_format="pandas", batch_size=None)
    )


def event_type_user_overlap(
    sf_dir: str, type_a: str = "click", type_b: str = "purchase"
) -> rd.Dataset:
    """Set-algebra cardinalities as a 2x2 contingency table: how many
    users did type_a only / type_b only / both / neither (among users
    present in events) — INTERSECT / EXCEPT counts in one pass instead
    of two set-op pipelines.

    Scale shape: per-batch per-user boolean flags (one row per user per
    batch) -> user_id keyed repartition -> per-block OR-merge -> count
    into the four (has_a, has_b) buckets, which tree-reduce shuffle-free
    (bounded key space). The shuffle ships flag rows, never events.
    """
    from ocrs_ray.pipeline import default_npart

    npart = default_npart()

    def flag_partial(batch: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "user_id": batch["user_id"].to_numpy(),
                "has_a": (batch["event_type"] == type_a).to_numpy().astype("int64"),
                "has_b": (batch["event_type"] == type_b).to_numpy().astype("int64"),
            }
        )
        return df.groupby("user_id", as_index=False)[["has_a", "has_b"]].max()

    def bucket_counts(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id", as_index=False)[["has_a", "has_b"]].max()
        out = g.groupby(["has_a", "has_b"], as_index=False).size()
        out.columns = ["has_a", "has_b", "n_users"]
        return out.astype({"has_a": "int64", "has_b": "int64", "n_users": "int64"})

    flags = (
        read_table(
            f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
        )
        .map_batches(flag_partial, batch_format="pandas")
        .repartition(npart, keys=["user_id"])
        .map_batches(bucket_counts, batch_format="pandas", batch_size=None)
    )
    return tree_sum(flags, ["has_a", "has_b"], ["n_users"])


def events_daily_dense_counts(sf_dir: str) -> rd.Dataset:
    """Time-series gap fill: per (event_type, day) event counts
    DENSIFIED to every day in the observed global range x every
    observed type, zero-filled — the calendar-spine cross join that
    turns sparse event counts into a dense series (required before any
    moving-average / anomaly pass, which would silently skip gap days).

    Scale shape: the sparse counts are a bounded key space (types x
    calendar days) and tree-reduce shuffle-free; densification happens
    in the final single block, where the full grid is |types| x |days|
    rows — calendar-bounded, never corpus-bounded. Days are carried as
    integer epoch days so value hashes are engine-exact.
    """

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        day = (batch["ts"].astype("int64") // (86_400 * 1_000_000)).astype(
            "int64"
        )
        df = pd.DataFrame(
            {"event_type": batch["event_type"].to_numpy(), "day": day.to_numpy()}
        )
        out = df.groupby(["event_type", "day"], as_index=False).size()
        out.columns = ["event_type", "day", "n_events"]
        return out.astype({"day": "int64", "n_events": "int64"})

    def densify(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df
        days = np.arange(df["day"].min(), df["day"].max() + 1, dtype="int64")
        types = np.sort(df["event_type"].unique())
        grid = pd.MultiIndex.from_product(
            [types, days], names=["event_type", "day"]
        ).to_frame(index=False)
        out = grid.merge(df, on=["event_type", "day"], how="left")
        out["n_events"] = out["n_events"].fillna(0).astype("int64")
        return out

    counts = tree_sum(
        read_table(f"{sf_dir}/events.parquet", columns=["ts", "event_type"])
        .map_batches(partial, batch_format="pandas"),
        ["event_type", "day"],
        ["n_events"],
    )
    return counts.map_batches(densify, batch_format="pandas", batch_size=None)


def returnflag_revenue_share(sf_dir: str) -> rd.Dataset:
    """Ratio-to-report: each return flag's revenue and its
    parts-per-million share of total revenue — the percent-of-total
    window (`SUM() OVER ()` denominator) computed WITHOUT floats: the
    share is floor(1e6 * flag_rev / total_rev) in arbitrary-precision
    integers on the Ray side and HUGEINT division in the oracle, so the
    comparison is structurally exact (no rounding-boundary caveat at
    all, unlike the ln-based scores).

    Scale shape: bounded key space (3 flags) -> per-batch revenue
    partials tree-reduce shuffle-free; the share needs the global total,
    which lives in the same final single block — no second pass.
    """

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rev = round_half_away(
            (batch["l_extendedprice"] * (1.0 - batch["l_discount"])).to_numpy()
            * MICRO
        ).astype("int64")
        df = pd.DataFrame(
            {"l_returnflag": batch["l_returnflag"].to_numpy(), "revenue_micro": rev}
        )
        return df.groupby("l_returnflag", as_index=False)["revenue_micro"].sum()

    def share(df: pd.DataFrame) -> pd.DataFrame:
        total = int(df["revenue_micro"].sum())
        # Python bigints: 1e6 * rev overflows int64, never Python int.
        ppm = [
            (1_000_000 * int(r)) // total for r in df["revenue_micro"]
        ]
        out = df.assign(share_ppm=pd.Series(ppm, dtype="int64").to_numpy())
        return out.sort_values("l_returnflag").reset_index(drop=True)

    totals = tree_sum(
        read_table(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_returnflag", "l_extendedprice", "l_discount"],
        ).map_batches(partial, batch_format="pandas"),
        ["l_returnflag"],
        ["revenue_micro"],
    )
    return totals.map_batches(share, batch_format="pandas", batch_size=None)


def supplier_acctbal_rank(sf_dir: str) -> rd.Dataset:
    """RANK() with gap semantics: each supplier's rank within its
    nation by account balance (ties on the exact cent value share a
    rank; the next distinct value skips past them) — the tie-aware
    window completion alongside row_number (top-k ops) and NTILE.

    Scale shape: one nationkey keyed repartition, then vectorized
    per-block sort + tie-aware rank (pandas `rank(method="min")` over
    the integer cents — float balances would make tie detection
    engine-dependent).
    """
    from ocrs_ray.pipeline import default_npart

    npart = default_npart()

    def to_cents(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "s_suppkey": batch["s_suppkey"].to_numpy(),
                "s_nationkey": batch["s_nationkey"].to_numpy(),
                "acctbal_cents": round_half_away(
                    batch["s_acctbal"].to_numpy(dtype="float64") * 100.0
                ).astype("int64"),
            }
        )

    def rank(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "s_suppkey": pd.Series([], dtype="int64"),
                    "s_nationkey": pd.Series([], dtype="int64"),
                    "acctbal_cents": pd.Series([], dtype="int64"),
                    "bal_rank": pd.Series([], dtype="int64"),
                }
            )
        r = (
            df.groupby("s_nationkey")["acctbal_cents"]
            .rank(method="min", ascending=False)
            .astype("int64")
        )
        return df.assign(bal_rank=r.to_numpy())

    ds = read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_nationkey", "s_acctbal"],
    ).map_batches(to_cents, batch_format="pandas")
    return ds.repartition(npart, keys=["s_nationkey"]).map_batches(
        rank, batch_format="pandas", batch_size=None
    )


def orders_monthly_revenue_delta(sf_dir: str) -> rd.Dataset:
    """Month-over-month revenue delta: per calendar month, total order
    revenue and its change vs the previous month — LAG over an
    AGGREGATE (the dashboard/trend shape), distinct from the per-entity
    row windows (`events_user_lag_diff`): the window runs over the
    grouped result, not the raw rows. The first month has no
    predecessor and is dropped on both sides (no NULL-representation
    ambiguity in the value hash).

    Scale shape: the month key space is calendar-bounded, so revenue
    partials tree-reduce shuffle-free and the LAG is one vectorized
    diff over the final single block's ordered months.
    """

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        month = (
            batch["o_orderdate"].dt.year * 100 + batch["o_orderdate"].dt.month
        ).astype("int64")
        rev = round_half_away(
            batch["o_totalprice"].to_numpy(dtype="float64") * MICRO
        ).astype("int64")
        df = pd.DataFrame({"month": month.to_numpy(), "revenue_micro": rev})
        return df.groupby("month", as_index=False)["revenue_micro"].sum()

    def delta(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("month").reset_index(drop=True)
        d = df["revenue_micro"].diff()
        out = df.assign(delta_micro=d).iloc[1:]
        return out.astype({"month": "int64", "delta_micro": "int64"})

    totals = tree_sum(
        read_table(
            f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"]
        ).map_batches(partial, batch_format="pandas"),
        ["month"],
        ["revenue_micro"],
    )
    return totals.map_batches(delta, batch_format="pandas", batch_size=None)


def events_value_mad(sf_dir: str, partitions: int = 8) -> rd.Dataset:
    """Robust dispersion per event_type: the exact median and the
    median absolute deviation (MAD) of value — the outlier-resistant
    sigma (1.4826*MAD estimates std under normality) that mean/variance
    aggregates (`lineitem_qty_price_stats`) cannot give. Two passes by
    construction: MAD needs |x - median|, and the median is unknowable
    until pass 1 ends.

    Scale shape: pass 1 = the `events_value_quantiles` shape (one
    event_type hash shuffle, per-block exact sort — groups are the
    bounded type vocabulary); the tiny per-type median table broadcasts
    via ray.put; pass 2 re-streams values, computes |x - med| map-side
    and reuses the same grouped exact-median machinery. Both medians
    use the quantile_disc convention (sorted element ceil(n/2)-1) on
    integer micro-units, so the oracle compares bit-exactly.
    """
    import ray

    def to_micro(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "value_micro": round_half_away(
                    batch["value"].to_numpy() * MICRO
                ).astype("int64"),
            }
        )

    def grouped_median(df: pd.DataFrame, col: str, out_col: str) -> pd.DataFrame:
        rows = []
        for etype, g in df.groupby("event_type"):
            v = np.sort(g[col].to_numpy())
            rows.append((etype, int(v[int(np.ceil(0.5 * len(v))) - 1]), len(v)))
        return pd.DataFrame(rows, columns=["event_type", out_col, "n_events"])

    def pass1(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "event_type": pd.Series([], dtype="object"),
                    "median_micro": pd.Series([], dtype="int64"),
                    "n_events": pd.Series([], dtype="int64"),
                }
            )
        return grouped_median(df, "value_micro", "median_micro")

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    ).map_batches(to_micro, batch_format="pandas")
    medians = (
        ds.repartition(partitions, keys=["event_type"])
        .map_batches(pass1, batch_format="pandas", batch_size=None)
        .to_pandas()
    )
    med_ref = ray.put(dict(zip(medians["event_type"], medians["median_micro"])))

    def abs_dev(batch: pd.DataFrame) -> pd.DataFrame:
        b = to_micro(batch)
        med = b["event_type"].map(worker_value(med_ref)).to_numpy(dtype="int64")
        return pd.DataFrame(
            {
                "event_type": b["event_type"].to_numpy(),
                "abs_dev_micro": np.abs(
                    b["value_micro"].to_numpy() - med
                ).astype("int64"),
            }
        )

    def pass2(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "event_type": pd.Series([], dtype="object"),
                    "mad_micro": pd.Series([], dtype="int64"),
                    "n_events": pd.Series([], dtype="int64"),
                }
            )
        return grouped_median(df, "abs_dev_micro", "mad_micro")

    ds2 = read_table(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    ).map_batches(abs_dev, batch_format="pandas")
    mads = ds2.repartition(partitions, keys=["event_type"]).map_batches(
        pass2, batch_format="pandas", batch_size=None
    )

    med_map = dict(zip(medians["event_type"], medians["median_micro"]))

    def attach_median(df: pd.DataFrame) -> pd.DataFrame:
        out = df.assign(
            median_micro=df["event_type"].map(med_map).astype("int64")
        )
        return out[["event_type", "median_micro", "mad_micro", "n_events"]]

    return mads.map_batches(attach_median, batch_format="pandas", batch_size=None)


def user_click_purchase_full_outer(sf_dir: str) -> rd.Dataset:
    """Per-user click vs purchase counts via a native FULL OUTER hash
    join — the join-type completing the engine's set (inner,
    left/right outer via Q13 arithmetic, semi, anti are elsewhere):
    users appearing on only one side survive with a zero-filled other
    side.

    Scale shape: each side collapses to exact per-user counts BEFORE
    the join (per-batch partials + `hash_sum` — user_id is unbounded
    so tree_sum would not hold), so the full-outer shuffle moves one
    row per user per side, never raw events. Ray's full_outer coalesces the key itself (left name, no
    nulls) and emits NaN for the absent side's payload; the post-join
    projection restores int64 zeros.

    Shuffle note: one `session.cogroup` of the two event sides
    computes the same table with one shuffle instead of three
    (two side merges + the join's own exchange) — this op
    deliberately keeps the native full_outer join to exercise and pin
    that code path; prefer the cogroup when the join type itself
    is not required.
    """
    import pyarrow.dataset as pads

    from ocrs_ray.pipeline import default_npart

    npart = default_npart()

    def side(event_type: str, out_col: str) -> rd.Dataset:
        def partial(b: pd.DataFrame) -> pd.DataFrame:
            df = pd.DataFrame(
                {
                    "user_id": b["user_id"].to_numpy(),
                    out_col: np.ones(len(b), dtype="int64"),
                }
            )
            return df.groupby("user_id", as_index=False)[out_col].sum()

        partials = read_table(
            f"{sf_dir}/events.parquet",
            columns=["user_id", "event_type"],
            filter=(pads.field("event_type") == event_type),
        ).map_batches(partial, batch_format="pandas")
        return hash_sum(partials, ["user_id"], [out_col], npart)

    clicks = side("click", "n_clicks")
    purchases = side("purchase", "n_purchases")
    # Rename the right key so the coalesce survives Ray's left-name
    # collapsing on same-named keys.
    purchases = purchases.map_batches(
        lambda b: b.rename(columns={"user_id": "p_user_id"}),
        batch_format="pandas",
    )
    joined = clicks.join(
        purchases,
        join_type="full_outer",
        num_partitions=npart,
        on=("user_id",),
        right_on=("p_user_id",),
    )

    def project(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": b["user_id"].to_numpy(dtype="int64"),
                "n_clicks": b["n_clicks"].fillna(0).to_numpy(dtype="int64"),
                "n_purchases": b["n_purchases"].fillna(0).to_numpy(dtype="int64"),
            }
        )

    return joined.map_batches(project, batch_format="pandas")


def supplier_acctbal_dense_rank(sf_dir: str) -> rd.Dataset:
    """DENSE_RANK() within nation by account balance — the no-gap
    companion to `supplier_acctbal_rank` (ties share a rank AND the
    next distinct value takes rank+1), completing the ranking-window
    family (row_number / rank / dense_rank / ntile / cume_dist).

    Same physical shape as the gap-rank op: one nationkey keyed
    repartition, vectorized per-block pandas `rank(method="dense")`
    over integer cents.
    """
    from ocrs_ray.pipeline import default_npart

    npart = default_npart()

    def to_cents(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "s_suppkey": batch["s_suppkey"].to_numpy(),
                "s_nationkey": batch["s_nationkey"].to_numpy(),
                "acctbal_cents": round_half_away(
                    batch["s_acctbal"].to_numpy(dtype="float64") * 100.0
                ).astype("int64"),
            }
        )

    def rank(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "s_suppkey": pd.Series([], dtype="int64"),
                    "s_nationkey": pd.Series([], dtype="int64"),
                    "acctbal_cents": pd.Series([], dtype="int64"),
                    "bal_dense_rank": pd.Series([], dtype="int64"),
                }
            )
        r = (
            df.groupby("s_nationkey")["acctbal_cents"]
            .rank(method="dense", ascending=False)
            .astype("int64")
        )
        return df.assign(bal_dense_rank=r.to_numpy())

    ds = read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_nationkey", "s_acctbal"],
    ).map_batches(to_cents, batch_format="pandas")
    return ds.repartition(npart, keys=["s_nationkey"]).map_batches(
        rank, batch_format="pandas", batch_size=None
    )


def lineitem_cube(sf_dir: str) -> rd.Dataset:
    """GROUP BY CUBE (returnflag, linestatus): all four grouping sets
    — finest, per-flag, per-status, grand total — NULL-marked like
    SQL. Completes the grouping-set family next to `lineitem_rollup`
    (ROLLUP emits the prefix sets only; CUBE adds the per-status
    marginal).

    Same scale shape as the rollup: ONE data pass builds the finest
    bounded-key aggregate shuffle-free (tree reduce); every coarser
    set is derived from those few rows in the final single block, so
    the marginal cost of CUBE over ROLLUP at 100 TB is zero extra
    scans.
    """

    def cube(df: pd.DataFrame) -> pd.DataFrame:
        vals = ["sum_qty", "n_rows"]
        by_flag = df.groupby("l_returnflag", as_index=False)[vals].sum()
        by_flag["l_linestatus"] = None
        by_status = df.groupby("l_linestatus", as_index=False)[vals].sum()
        by_status["l_returnflag"] = None
        total = df[vals].sum().to_frame().T
        total["l_returnflag"] = None
        total["l_linestatus"] = None
        cols = ["l_returnflag", "l_linestatus", "sum_qty", "n_rows"]
        out = pd.concat(
            [df[cols], by_flag[cols], by_status[cols], total[cols]],
            ignore_index=True,
        )
        return out.astype({"sum_qty": "int64", "n_rows": "int64"})

    return _lineitem_qty_finest(sf_dir).map_batches(
        cube, batch_format="pandas", batch_size=None
    )


def events_type_markov_transitions(sf_dir: str) -> rd.Dataset:
    """First-order Markov transition counts over each user's ordered
    event stream (prev type -> next type) — the sequence-model
    estimation step (session behavior modeling, next-event
    prediction).

    Scale shape: one user_id hash shuffle co-locates each user's
    history; per block the transition pairs fall out of a stable sort
    + shift (no per-event loop); the (prev, next) key space is the
    square of the bounded type vocabulary, so the counts tree-reduce
    with no second shuffle.
    """
    def transitions(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "prev_type": pd.Series([], dtype="object"),
                    "next_type": pd.Series([], dtype="object"),
                    "n_transitions": pd.Series([], dtype="int64"),
                }
            )
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        same_user = df["user_id"].eq(df["user_id"].shift()).to_numpy()
        prev = df["event_type"].shift()
        out = pd.DataFrame(
            {
                "prev_type": prev.to_numpy()[same_user],
                "next_type": df["event_type"].to_numpy()[same_user],
                "n_transitions": np.ones(int(same_user.sum()), dtype="int64"),
            }
        )
        return out.groupby(
            ["prev_type", "next_type"], as_index=False
        )["n_transitions"].sum()

    partials = _partition_by_user(sf_dir).map_batches(
        transitions, batch_format="pandas", batch_size=None
    )
    return tree_sum(partials, ["prev_type", "next_type"], ["n_transitions"])


def band_bucketize(
    v_micro: np.ndarray, ids: np.ndarray, eps_micro: int
) -> pd.DataFrame:
    """Band-join map side: every row goes to its home bucket
    (v // eps) plus ONE ghost copy in the next bucket up. A pair with
    |va - vb| <= eps spans at most adjacent buckets, so this
    replication (factor exactly 2, skew-independent) co-locates every
    qualifying pair."""
    home = v_micro // eps_micro
    return pd.DataFrame(
        {
            "bucket": np.concatenate([home, home + 1]),
            "event_id": np.concatenate([ids, ids]),
            "value_micro": np.concatenate([v_micro, v_micro]),
            "is_ghost": np.concatenate(
                [
                    np.zeros(len(v_micro), dtype=bool),
                    np.ones(len(v_micro), dtype=bool),
                ]
            ),
        }
    )


def band_pairs(df: pd.DataFrame, eps_micro: int) -> pd.DataFrame:
    """Band-join reduce side: within each bucket, emit (a < b) id pairs
    with |va - vb| <= eps via a sorted forward window (searchsorted +
    multi-arange — output-proportional, no per-pair Python).

    Exactly-once by construction: same-bucket pairs appear only in
    their shared home bucket (their ghosts meet one bucket up but two
    ghosts never pair); adjacent-bucket pairs appear only in the upper
    bucket (lower row's ghost x upper row's home). The hypothesis
    property test pins this against the quadratic reference with no
    dedup pass.
    """
    outs = []
    for _, g in df.groupby("bucket", sort=False):
        g = g.sort_values(["value_micro", "event_id"], kind="stable")
        v = g["value_micro"].to_numpy()
        ids = g["event_id"].to_numpy()
        ghost = g["is_ghost"].to_numpy()
        n = len(g)
        if n < 2:
            continue
        hi = np.searchsorted(v, v + eps_micro, side="right")
        cnt = hi - np.arange(n) - 1
        if not cnt.sum():
            continue
        ii = np.repeat(np.arange(n), cnt)
        jj = np.concatenate(
            [np.arange(i + 1, h) for i, h in enumerate(hi) if h > i + 1]
        )
        keep = ~(ghost[ii] & ghost[jj]) & (ids[ii] != ids[jj])
        ii, jj = ii[keep], jj[keep]
        outs.append(
            pd.DataFrame(
                {
                    "event_a": np.minimum(ids[ii], ids[jj]),
                    "event_b": np.maximum(ids[ii], ids[jj]),
                    "dv_micro": np.abs(v[jj] - v[ii]),
                }
            )
        )
    if not outs:
        return pd.DataFrame(
            {
                "event_a": pd.Series([], dtype="int64"),
                "event_b": pd.Series([], dtype="int64"),
                "dv_micro": pd.Series([], dtype="int64"),
            }
        )
    return pd.concat(outs, ignore_index=True)


def events_value_band_join(
    sf_dir: str, eps: float = 0.05, event_type: str = "purchase"
) -> rd.Dataset:
    """Banded theta self-join WITHOUT an equi key: all pairs of
    `event_type` events whose values differ by at most `eps` — the
    non-equi join class (|a - b| <= eps has no hash key), distributed
    via band bucketing + one-sided ghost replication (the
    bucket-grid decomposition of MapReduce theta-joins, cf. Okcan &
    Riedewald's 1-Bucket-Theta family). Kernels: `band_bucketize` /
    `band_pairs` (exactly-once pinned by a hypothesis property test
    against the quadratic reference).

    Scale shape: ONE keyed repartition on the bucket; per block the
    pair scan is output-proportional. Replication factor is exactly 2
    regardless of data size or skew. A bucket's rows must fit in a
    worker block (same contract as every keyed-repartition op here);
    heavy value-ties concentrate — at pathological skew, salt the
    bucket with a secondary hash and merge pair sets.
    """
    import pyarrow.dataset as pads

    from ocrs_ray.pipeline import default_npart

    npart = default_npart()
    eps_micro = int(round(eps * MICRO))

    def bucketize(b: pd.DataFrame) -> pd.DataFrame:
        v = round_half_away(b["value"].to_numpy(dtype="float64") * MICRO).astype(
            "int64"
        )
        return band_bucketize(v, b["event_id"].to_numpy().astype("int64"), eps_micro)

    def pair(df: pd.DataFrame) -> pd.DataFrame:
        return band_pairs(df, eps_micro)

    return (
        read_table(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "event_type", "value"],
            filter=(pads.field("event_type") == event_type),
        )
        .map_batches(bucketize, batch_format="pandas")
        .repartition(npart, keys=["bucket"])
        .map_batches(pair, batch_format="pandas", batch_size=None)
    )


def supplier_abc_classification(
    sf_dir: str, a_ppm: int = 700_000, b_ppm: int = 900_000
) -> rd.Dataset:
    """Pareto / ABC classification within nation: suppliers ordered by
    balance descending, classified A while the running cumulative
    share of the nation's positive total is < 70%, B until < 90%,
    else C — the cumulative-percent-of-total window (inventory/spend
    analysis staple).

    Scale shape: one nationkey keyed repartition co-locates each
    nation; per block a descending sort + integer cumsum gives the
    running share as exact bigint ppm (floor division — no float
    thresholds, ties broken by suppkey so the classification is
    deterministic on both sides). Only non-negative balances
    participate in the total; the cumulative total is per-nation, so
    no global sort exists anywhere.
    """
    from ocrs_ray.pipeline import default_npart

    npart = default_npart()

    def to_cents(batch: pd.DataFrame) -> pd.DataFrame:
        cents = round_half_away(
            batch["s_acctbal"].to_numpy(dtype="float64") * 100.0
        ).astype("int64")
        keep = cents >= 0
        return pd.DataFrame(
            {
                "s_suppkey": batch["s_suppkey"].to_numpy()[keep],
                "s_nationkey": batch["s_nationkey"].to_numpy()[keep],
                "acctbal_cents": cents[keep],
            }
        )

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "s_suppkey": pd.Series([], dtype="int64"),
                    "s_nationkey": pd.Series([], dtype="int64"),
                    "acctbal_cents": pd.Series([], dtype="int64"),
                    "cum_share_ppm": pd.Series([], dtype="int64"),
                    "abc_class": pd.Series([], dtype="object"),
                }
            )
        df = df.sort_values(
            ["s_nationkey", "acctbal_cents", "s_suppkey"],
            ascending=[True, False, True],
            kind="stable",
        )
        g = df.groupby("s_nationkey")["acctbal_cents"]
        cum = g.cumsum().to_numpy()
        total = g.transform("sum").to_numpy()
        # Python-int ppm: cents * 1e6 can exceed int64 at corpus scale.
        ppm = np.array(
            [
                (1_000_000 * int(c)) // int(t) if t else 1_000_000
                for c, t in zip(cum, total)
            ],
            dtype="int64",
        )
        cls = np.where(ppm < a_ppm, "A", np.where(ppm < b_ppm, "B", "C"))
        return pd.DataFrame(
            {
                "s_suppkey": df["s_suppkey"].to_numpy().astype("int64"),
                "s_nationkey": df["s_nationkey"].to_numpy().astype("int64"),
                "acctbal_cents": df["acctbal_cents"].to_numpy(),
                "cum_share_ppm": ppm,
                "abc_class": cls,
            }
        )

    ds = read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_nationkey", "s_acctbal"],
    ).map_batches(to_cents, batch_format="pandas")
    return ds.repartition(npart, keys=["s_nationkey"]).map_batches(
        classify, batch_format="pandas", batch_size=None
    )


def orders_merge_upsert(sf_dir: str) -> rd.Dataset:
    """MERGE INTO / CDC-apply: reconcile a change stream against a base
    table by key — updates override, deletes win over updates, inserts
    add new keys. The change set is derived deterministically from the
    base itself so the op needs no external data: every 10th orderkey
    gets priority '1-URGENT' (update), every 97th is deleted, and
    orderkeys congruent to 5 mod 13 spawn an insert under the negated key (a disjoint key
    range, like fresh surrogate keys in a real CDC feed).

    Scale shape: base rows and change rows ride the SAME scan (one
    pass — the change derivation is map-side), tagged with a
    precedence rank; ONE orderkey-keyed repartition co-locates each
    key's versions and the per-block resolve is a vectorized
    sort + drop_duplicates(keep=last-wins) — the exact shape a real
    MERGE takes when the change table arrives as its own dataset and
    unions in.
    """
    from ocrs_ray.pipeline import default_npart

    npart = default_npart()

    def emit(b: pd.DataFrame) -> pd.DataFrame:
        okey = b["o_orderkey"].to_numpy()
        prio = b["o_orderpriority"].to_numpy()
        frames = [
            pd.DataFrame(
                {"o_orderkey": okey, "o_orderpriority": prio, "rank": 0}
            )
        ]
        upd = okey % 10 == 0
        if upd.any():
            frames.append(
                pd.DataFrame(
                    {
                        "o_orderkey": okey[upd],
                        "o_orderpriority": "1-URGENT",
                        "rank": 1,
                    }
                )
            )
        dele = okey % 97 == 0
        if dele.any():
            frames.append(
                pd.DataFrame(
                    {
                        "o_orderkey": okey[dele],
                        "o_orderpriority": "",
                        "rank": 2,
                    }
                )
            )
        ins = okey % 13 == 5
        if ins.any():
            frames.append(
                pd.DataFrame(
                    {
                        "o_orderkey": -okey[ins],
                        "o_orderpriority": "5-LOW",
                        "rank": 1,
                    }
                )
            )
        out = pd.concat(frames, ignore_index=True)
        out["rank"] = out["rank"].astype("int64")
        return out

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "o_orderkey": pd.Series([], dtype="int64"),
                    "o_orderpriority": pd.Series([], dtype="object"),
                }
            )
        df = df.sort_values(["o_orderkey", "rank"], kind="stable")
        last = df.drop_duplicates("o_orderkey", keep="last")
        kept = last[last["rank"] != 2]
        return pd.DataFrame(
            {
                "o_orderkey": kept["o_orderkey"].to_numpy().astype("int64"),
                "o_orderpriority": kept["o_orderpriority"].to_numpy(),
            }
        )

    ds = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    ).map_batches(emit, batch_format="pandas")
    return ds.repartition(npart, keys=["o_orderkey"]).map_batches(
        resolve, batch_format="pandas", batch_size=None
    )


def events_weighted_median(sf_dir: str) -> rd.Dataset:
    """Exact grouped WEIGHTED median: per event type, the smallest
    value whose cumulative weight reaches half the total weight
    (weights come from the JSON `props.k` payload — the
    importance-weighted robust center no built-in aggregate provides;
    the oracle derives it from a window cumsum).

    Scale shape: map-side per-batch (type, value) weight partials
    collapse duplicates before the ONE bounded-key repartition; per
    block a sort + integer cumsum picks the crossing value. All
    integers (micro values, bigint weights) — the >= half test is
    2*cum >= total with no division.
    """
    from ocrs_ray.pipeline import cluster_ncpu

    npart = max(2, min(8, cluster_ncpu()))
    key_re = r'"k"\s*:\s*(-?\d+)'

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        w = b["props"].str.extract(key_re, expand=False).astype("int64")
        df = pd.DataFrame(
            {
                "event_type": b["event_type"].to_numpy(),
                "value_micro": round_half_away(
                    b["value"].to_numpy(dtype="float64") * MICRO
                ).astype("int64"),
                "w": w.to_numpy(),
            }
        )
        return df.groupby(["event_type", "value_micro"], as_index=False)["w"].sum()

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "event_type": pd.Series([], dtype="object"),
                    "wmedian_micro": pd.Series([], dtype="int64"),
                }
            )
        df = (
            df.groupby(["event_type", "value_micro"], as_index=False)["w"].sum()
        ).sort_values(["event_type", "value_micro"], kind="stable")
        out_t, out_v = [], []
        for et, g in df.groupby("event_type", sort=False):
            cw = g["w"].cumsum().to_numpy()
            total = int(cw[-1])
            idx = int(np.searchsorted(2 * cw, total, side="left"))
            out_t.append(et)
            out_v.append(int(g["value_micro"].to_numpy()[idx]))
        return pd.DataFrame(
            {
                "event_type": out_t,
                "wmedian_micro": pd.Series(out_v, dtype="int64"),
            }
        )

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["event_type", "value", "props"]
    ).map_batches(partial, batch_format="pandas")
    return ds.repartition(npart, keys=["event_type"]).map_batches(
        pick, batch_format="pandas", batch_size=None
    )


def events_value_outliers(sf_dir: str, k: int = 3) -> rd.Dataset:
    """Robust outlier flagging — the APPLY side of the exact grouped
    median/MAD stats: every event whose value deviates from its
    type's median by more than `k` MADs (the data-cleaning primitive;
    |x - med| > k*MAD in pure integers, so the cut is bit-exact).

    Scale shape: the per-type (median, MAD) table comes from the
    two-pass exact pipeline in `events_value_mad`, collapses to a
    handful of rows, and broadcasts into a third streaming pass over
    the events — stats never join back via shuffle (the bounded-key
    side always travels to the data, not the reverse).
    """
    import ray

    stats = {
        r["event_type"]: (int(r["median_micro"]), int(r["mad_micro"]))
        for r in events_value_mad(sf_dir).take_all()
    }
    stats_ref = ray.put(stats)

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        stats = worker_value(stats_ref)
        vm = round_half_away(
            b["value"].to_numpy(dtype="float64") * MICRO
        ).astype("int64")
        med = b["event_type"].map({t: s[0] for t, s in stats.items()})
        mad = b["event_type"].map({t: s[1] for t, s in stats.items()})
        keep = np.abs(vm - med.to_numpy()) > k * mad.to_numpy()
        return pd.DataFrame(
            {
                "event_id": b["event_id"].to_numpy()[keep].astype("int64"),
                "event_type": b["event_type"].to_numpy()[keep],
                "value_micro": vm[keep],
            }
        )

    return read_table(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    ).map_batches(flag, batch_format="pandas")
