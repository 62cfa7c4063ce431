"""The session kernel's keyed exchanges: `session.cogroup` (two-sided,
one pandas frame per side per partition) and `relational.hash_sum`."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

I64 = pa.int64()


def _rows(ds) -> pd.DataFrame:
    return pd.concat(
        [b for b in ds.iter_batches(batch_format="pandas", batch_size=None) if len(b)],
        ignore_index=True,
    )


def _side_counts(a: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
    """Per key of either side: its row count on each side."""
    na = a.groupby("k").size().rename("n_a")
    nb = b.groupby("k").size().rename("n_b")
    out = pd.concat([na, nb], axis=1).fillna(0).astype("int64")
    return out.rename_axis("k").reset_index()


def test_split_sides_types_frames_without_rows_or_columns():
    """Kernel: a partition with no columns, or with no rows from one
    side, hands `fn` empty frames typed from each side's schema."""
    from ocrs_ray.session import _SIDE, _split_sides

    a = pa.schema([("k", I64), ("x", pa.string())])
    b = pa.schema([("k", I64), ("y", I64)])
    sides = [([("k", "k"), ("x", "x")], a), ([("k", "k"), ("y", "y")], b)]
    seen = []

    def fn(fa, fb):
        seen.append((fa, fb))
        return fa

    _split_sides(pa.table({}), fn, sides)
    block = pa.table(
        {
            "k": pa.array([1, 2], I64),
            "x": pa.array(["p", "q"]),
            "y": pa.nulls(2, I64),
            _SIDE: pa.array([0, 0], pa.int8()),
        }
    )
    _split_sides(block, fn, sides)
    (ea, eb), (fa, fb) = seen
    assert len(ea) == len(eb) == len(fb) == 0 and len(fa) == 2
    for frame in (ea, eb, fb):
        assert frame["k"].dtype == np.int64
    assert eb["y"].dtype == np.int64 and fb["y"].dtype == np.int64
    assert list(fa.columns) == ["k", "x"] and list(fb.columns) == ["k", "y"]


def test_cogroup_sparse_side_over_many_blocks(ray_session):
    """The shape that crashes Ray 2.49's native join: 29 rows spread
    over 16 mostly-empty blocks, 5 distinct keys, cogrouped with a
    dense side at 8 partitions."""
    import ray.data as rd

    from ocrs_ray.session import cogroup

    sparse = rd.range(1600, override_num_blocks=16).map_batches(
        lambda df: pd.DataFrame({"k": df["id"] % 5, "v": df["id"]})[df["id"] % 56 == 0],
        batch_format="pandas",
    )
    dense = rd.from_pandas(pd.DataFrame({"k": np.arange(500) % 7, "w": np.arange(500)}))
    out = cogroup(
        [
            (dense, ["k"], pa.schema([("k", I64), ("w", I64)])),
            (sparse, ["k"], pa.schema([("k", I64), ("v", I64)])),
        ],
        _side_counts,
        8,
    )
    got = _rows(out).sort_values("k").reset_index(drop=True)
    ids = np.arange(0, 1600, 56)
    want = _side_counts(
        pd.DataFrame({"k": np.arange(500) % 7}), pd.DataFrame({"k": ids % 5})
    )
    assert len(ids) == 29
    pd.testing.assert_frame_equal(got, want)


def test_cogroup_one_sided_partitions_get_typed_frames(ray_session):
    """A partition without rows from one side hands `fn` that side's
    frame empty but typed (int64 stays int64): the right side has one
    key, so at most one of the 4 partitions holds its rows."""
    import ray.data as rd

    from ocrs_ray.session import cogroup

    left = rd.from_pandas(pd.DataFrame({"k": np.arange(10), "n": np.arange(10) * 2}))
    right = rd.from_pandas(pd.DataFrame({"k": [100] * 3, "s": list("abc")}))

    def describe(a: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n_a": [len(a)],
                "n_b": [len(b)],
                "types": [",".join(str(t) for t in [*a.dtypes, *b.dtypes])],
            }
        )

    out = cogroup(
        [
            (left, ["k"], pa.schema([("k", I64), ("n", I64)])),
            (right, ["k"], pa.schema([("k", I64), ("s", pa.string())])),
        ],
        describe,
        4,
    )
    got = _rows(out)
    assert got["n_a"].sum() == 10 and got["n_b"].sum() == 3
    assert (got["n_b"] == 0).any()
    assert set(got["types"]) == {"int64,int64,int64,object"}


def test_cogroup_renamed_multi_column_keys(ray_session):
    """Keys pair by position across differently named columns; `fn`
    sees every side under its own names, and a non-key column the two
    sides share by name keeps its values per side."""
    import ray.data as rd

    from ocrs_ray.session import cogroup

    rng = np.random.default_rng(7)
    a = pd.DataFrame(
        {"k1": rng.integers(0, 4, 60), "k2": rng.choice(list("xyz"), 60), "val": rng.integers(0, 9, 60)}
    )
    b = pd.DataFrame(
        {"p": rng.integers(0, 4, 30), "q": rng.choice(list("xyz"), 30), "val": rng.integers(0, 9, 30)}
    )

    def join(fa: pd.DataFrame, fb: pd.DataFrame) -> pd.DataFrame:
        assert list(fb.columns) == ["p", "q", "val"]
        m = fa.merge(fb, left_on=["k1", "k2"], right_on=["p", "q"], suffixes=("_a", "_b"))
        return m[["k1", "k2", "val_a", "val_b"]]

    out = cogroup(
        [
            (
                rd.from_pandas(a),
                ["k1", "k2"],
                pa.schema([("k1", I64), ("k2", pa.string()), ("val", I64)]),
            ),
            (
                rd.from_pandas(b),
                ["p", "q"],
                pa.schema([("p", I64), ("q", pa.string()), ("val", I64)]),
            ),
        ],
        join,
        6,
    )
    cols = ["k1", "k2", "val_a", "val_b"]
    got = _rows(out).sort_values(cols).reset_index(drop=True)
    want = join(a, b).sort_values(cols).reset_index(drop=True)
    assert len(want) > 0
    pd.testing.assert_frame_equal(got, want)


def test_cogroup_zero_row_side(ray_session):
    """A side without a single row still types its frame in every
    partition, and the other side resolves as usual."""
    import ray.data as rd

    from ocrs_ray.session import cogroup

    rows = rd.from_pandas(pd.DataFrame({"k": np.arange(20), "v": np.arange(20)}))
    none = rd.from_pandas(pd.DataFrame({"k": np.arange(5), "w": np.arange(5)})).map_batches(
        lambda df: df[df["k"] < 0], batch_format="pandas"
    )

    def anti(a: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
        assert b["w"].dtype == np.int64
        return a[~a["k"].isin(b["k"])]

    out = cogroup(
        [
            (rows, ["k"], pa.schema([("k", I64), ("v", I64)])),
            (none, ["k"], pa.schema([("k", I64), ("w", I64)])),
        ],
        anti,
        4,
    )
    assert sorted(_rows(out)["k"]) == list(range(20))


def test_cogroup_rejects_conflicting_shared_types(ray_session):
    """Shared non-key columns and paired keys share exchange storage,
    so their types must agree; the op fails when it is built."""
    import ray.data as rd

    from ocrs_ray.session import cogroup

    ds = rd.from_pandas(pd.DataFrame({"k": [1], "v": [2]}))
    with pytest.raises(ValueError, match="'v'"):
        cogroup(
            [
                (ds, ["k"], pa.schema([("k", I64), ("v", I64)])),
                (ds, ["k"], pa.schema([("k", I64), ("v", pa.string())])),
            ],
            lambda a, b: a,
            2,
        )
    with pytest.raises(ValueError, match="'k'"):
        cogroup(
            [
                (ds, ["k"], pa.schema([("k", I64)])),
                (ds, ["v"], pa.schema([("v", pa.string())])),
            ],
            lambda a, b: a,
            2,
        )


def test_hash_sum_more_partitions_than_keys(ray_session):
    """`hash_sum` with npart above the distinct-key count (most
    partitions empty) matches a pandas groupby, for sum and max."""
    import ray.data as rd

    from ocrs_ray.ops.relational import hash_sum

    rng = np.random.default_rng(3)
    df = pd.DataFrame(
        {"g": rng.integers(0, 3, 200), "h": rng.choice(["a", "b"], 200), "x": rng.integers(-50, 50, 200)}
    )
    ds = rd.from_pandas(df).repartition(5)
    for agg in ("sum", "max"):
        got = _rows(hash_sum(ds, ["g", "h"], ["x"], 16, agg=agg))
        got = got.sort_values(["g", "h"]).reset_index(drop=True)
        want = df.groupby(["g", "h"], as_index=False)[["x"]].agg(agg)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        assert got["x"].dtype == np.int64
