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
"""

from __future__ import annotations

import functools
from typing import Callable

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
