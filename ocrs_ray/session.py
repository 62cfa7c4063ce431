"""The Ray Data session kernel: the one place that configures the
driver's `DataContext` and reads tables.

Ray Data copies the driver's current `DataContext` into every dataset
it creates, and a plan runs under the context of its final dataset.
The keyed steps of this engine (`repartition(n, keys=...)`, hash
`groupby`, native joins) need the hash-shuffle strategy in that
context: under Ray's default sort strategy a keyed repartition raises
"Key-based repartitioning only supported for HASH_SHUFFLE" and a
groupby silently falls back to the ~10x slower sort-based aggregate.

So the context is configured before a dataset is created, not patched
afterwards: every parquet read goes through `read_table`, and every
other source function that can start an op is decorated with
`source`. Datasets derived from those (maps, unions, joins) carry the
configured context. Only a dataset handed in from outside, created
before any read (the OCR pipeline's spans), needs
`enable_hash_shuffle(ds)`.

The kernel also owns the two-sided keyed exchange: `cogroup` co-locates
the rows of several datasets by key (per side a map, one union, one
keyed repartition, one map) and hands each partition's rows to a
function as one pandas frame per side. It is the partition half of
replicate-vs-partition, used where a native `Dataset.join` would meet a
sparse side (Ray 2.49 crashes on those) or where the resolve is not a
join at all.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd


def cluster_ncpu(default: int = 8) -> int:
    """CPU budget of the current Ray cluster (fallback when Ray is not
    yet initialized). The single source of truth for pool/partition
    sizing — keep callers on this helper so the fallback can't diverge."""
    if ray.is_initialized():
        return int(ray.cluster_resources().get("CPU", default))
    return default


def enable_hash_shuffle(ds: rd.Dataset | None = None) -> bool:
    """Configure the driver's DataContext for this engine: the
    hash-shuffle strategy, with its aggregators and partitions sized to
    the cluster. Returns False when the strategy is unavailable.

    `read_table` and `source` call this before they create a dataset,
    so library code does not call it. Pass `ds` only to patch a dataset
    created before the session was configured (a caller's dataset): its
    captured context is configured too.
    """
    try:
        from ray.data.context import ShuffleStrategy

        ncpu = cluster_ncpu()
        contexts = [rd.DataContext.get_current()]
        if ds is not None and getattr(ds, "context", None) is not None:
            contexts.append(ds.context)
        for ctx in contexts:
            ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
            # Defaults (64 aggregators, 200 partitions, 300 s min wait)
            # are sized for big clusters; cap to the local CPU budget so
            # shuffle actors don't starve the map stages on a small node.
            # On a real multi-node cluster the defaults scale back up
            # with cluster_resources().
            # Aggregator actors poll even when idle; one per ~4 CPUs is
            # plenty for the small shuffle payloads here and keeps them
            # from stealing cycles from compute actors.
            ctx.max_hash_shuffle_aggregators = max(2, ncpu // 4)
            # Default shuffle parallelism is 200 partitions; at 200 x
            # 1/16 CPU the aggregators alone want 12.5 CPUs and starve
            # the map stages on a small node. Scale partitions to the
            # CPU budget (a real cluster raises this automatically).
            ctx.default_hash_shuffle_parallelism = max(8, ncpu)
            # Aggregators start in well under a second on a local
            # cluster; the 300 s default (and even 5 s) adds dead time
            # to every shuffle-bearing query.
            ctx.min_hash_shuffle_aggregator_wait_time_in_s = 1
        return True
    except Exception:
        return False


def read_table(
    path: str | list[str],
    columns: list[str] | None = None,
    filter=None,
    file_extensions: list[str] | None = None,
) -> rd.Dataset:
    """A parquet file, directory or file list as a Dataset created under
    the configured session: `columns` and the pyarrow `filter`
    expression are pushed down to the scan. The block count is Ray's
    own choice."""
    enable_hash_shuffle()
    return rd.read_parquet(
        path, columns=columns, filter=filter, file_extensions=file_extensions
    )


def source(make: Callable[..., rd.Dataset]) -> Callable[..., rd.Dataset]:
    """Decorate a function that creates a dataset from a non-parquet
    source (JSON, CSV, binary files, Lance): the session is configured
    before it runs, as `read_table` does for parquet."""

    @functools.wraps(make)
    def configured(*args, **kwargs) -> rd.Dataset:
        enable_hash_shuffle()
        return make(*args, **kwargs)

    return configured


#: The int8 column `cogroup` tags every row with: the index of its side.
_SIDE = "__cogroup_side"


def _tag_side(
    block: pa.Table, side: int, cols: list[tuple[str, str]], schema: pa.Schema
) -> pa.Table:
    """One side's block in the exchange schema: its own columns cast
    and renamed (`cols` pairs exchange name with side name), typed
    nulls for the columns only other sides have, and the side tag."""
    n = block.num_rows
    if n == 0:
        return schema.empty_table()
    own = {name: block.column(src) for name, src in cols}
    arrays = [
        own[f.name].cast(f.type) if f.name in own else pa.nulls(n, f.type)
        for f in schema
        if f.name != _SIDE
    ]
    arrays.append(pa.array(np.full(n, side, dtype=np.int8)))
    return pa.Table.from_arrays(arrays, schema=schema)


def _split_sides(
    block: pa.Table,
    fn: Callable,
    sides: list[tuple[list[tuple[str, str]], pa.Schema]],
):
    """Call `fn` with one pandas frame per side from a co-located
    partition; a side with no rows here (or a partition without
    columns) gets an empty frame typed from its declared schema."""
    frames = []
    for i, (cols, schema) in enumerate(sides):
        if block.num_rows:
            rows = block.filter(pc.equal(block.column(_SIDE), i))
            table = pa.Table.from_arrays(
                [rows.column(name) for name, _ in cols], schema=schema
            )
        else:
            table = schema.empty_table()
        frames.append(table.to_pandas())
    return fn(*frames)


def cogroup(
    sides: list[tuple[rd.Dataset, list[str], pa.Schema]],
    fn: Callable,
    npart: int,
) -> rd.Dataset:
    """Co-locate the rows of several datasets by key and resolve each
    partition with `fn(*frames)`, one pandas frame per side, each typed
    from its side's declared schema (even when empty).

    A side is `(ds, keys, schema)`: the dataset, its key columns and
    the Arrow schema of the columns `fn` reads from it (keys included,
    under the side's own names). Keys pair up by position; in the
    exchange they take the first side's names, and `fn` sees every side
    under its own names. Non-key columns that two sides share by name
    share storage in the exchange, so their types must be equal, as
    must paired key types: a mismatch raises ValueError here, when the
    op is built. `fn` returns a pandas frame or an Arrow table.

    Plan: per side one pyarrow map (select, cast, tag), one union, one
    `repartition(npart, keys=...)` and one map over whole partitions,
    so every partition holds all its keys' rows from every side.
    """
    keys0 = list(sides[0][1])
    fields: dict[str, pa.Field] = {}
    layouts = []
    for ds, keys, schema in sides:
        if len(keys) != len(keys0):
            raise ValueError(f"cogroup: keys {keys} do not pair with {keys0}")
        rename = dict(zip(keys, keys0))
        missing = set(keys) - set(schema.names)
        if missing:
            raise ValueError(f"cogroup: key columns {sorted(missing)} not in schema")
        cols = []
        for f in schema:
            name = rename.get(f.name, f.name)
            if f.name not in rename and name in keys0:
                raise ValueError(f"cogroup: non-key column {name!r} is a key name")
            known = fields.setdefault(name, f.with_name(name))
            if known.type != f.type:
                raise ValueError(
                    f"cogroup: column {name!r} is {known.type} on one side "
                    f"and {f.type} on another"
                )
            cols.append((name, f.name))
        layouts.append((cols, schema))
    exchange = pa.schema(
        [fields[k] for k in keys0]
        + [f for name, f in fields.items() if name not in keys0]
        + [pa.field(_SIDE, pa.int8())]
    )
    tagged = [
        ds.map_batches(
            _tag_side,
            fn_kwargs={"side": i, "cols": cols, "schema": exchange},
            batch_format="pyarrow",
        )
        for i, ((ds, _, _), (cols, _)) in enumerate(zip(sides, layouts))
    ]
    return (
        tagged[0]
        .union(*tagged[1:])
        .repartition(npart, keys=keys0)
        .map_batches(
            _split_sides,
            fn_kwargs={"fn": fn, "sides": layouts},
            batch_format="pyarrow",
            batch_size=None,
        )
    )
