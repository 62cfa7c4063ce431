"""Value hashes of every driver query: run each `__ray_entry__.queries()`
entry over one scale-factor directory, hash its rows in sorted order,
and write the hashes to a JSON snapshot or compare them with one.

A refactor that must not change any output takes a snapshot at the
parent commit and checks the change against it:

    python tools/value_hashes.py SF_DIR --write before.json   # parent checkout
    python tools/value_hashes.py SF_DIR --check before.json   # the change

A row hashes by value, not by representation: columns in name order,
floats to 12 significant digits (a parallel sum may round its last bit
differently from run to run), binary payloads by md5, nested values
recursively. Rows are sorted before hashing, so block order does not
matter. `--check` prints every query whose hash, row count or error
differs and exits 1 if any does. Owns its Ray session (4 CPUs); never
run it concurrently with a bench.
"""

from __future__ import annotations

import argparse
import datetime
import decimal
import hashlib
import json
import os
import sys
import time

import numpy as np

# repo root on the path BEFORE ray.init: workers inherit the init-time
# import path
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _canon(v):
    if isinstance(v, np.ndarray):
        return [_canon(x) for x in v.tolist()]
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float):
        return format(v, ".12g")
    if isinstance(v, (bytes, bytearray, memoryview)):
        return "md5:" + hashlib.md5(bytes(v)).hexdigest()
    if isinstance(v, dict):
        return {str(k): _canon(x) for k, x in sorted(v.items(), key=lambda kv: str(kv[0]))}
    if isinstance(v, (list, tuple)):
        return [_canon(x) for x in v]
    if isinstance(v, (datetime.date, datetime.datetime, datetime.timedelta, decimal.Decimal)):
        return str(v)
    return v


def _rows(res) -> list[dict]:
    """The rows of a query result: a Dataset, a pandas DataFrame or an
    Arrow table."""
    if hasattr(res, "take_all"):
        return res.take_all()
    if hasattr(res, "to_pylist"):
        return res.to_pylist()
    return res.to_dict("records")


def value_hash(res) -> dict:
    rows = _rows(res)
    cols = sorted({c for r in rows for c in r})
    lines = sorted(
        json.dumps([_canon(r.get(c)) for c in cols], default=str) for r in rows
    )
    h = hashlib.md5(json.dumps(cols).encode())
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return {"rows": len(rows), "hash": h.hexdigest()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("sf_dir", help="scale-factor directory the queries read")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="JSON", help="write the hashes here")
    mode.add_argument("--check", metavar="JSON", help="compare with this snapshot")
    ap.add_argument("names", nargs="*", help="a subset of queries (default: all)")
    args = ap.parse_intermixed_args()

    import ray

    ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entry

    queries = entry.queries()
    names = args.names or list(queries)
    got: dict[str, dict] = {}
    for name in names:
        t0 = time.perf_counter()
        try:
            got[name] = value_hash(queries[name](args.sf_dir))
        except Exception as e:  # noqa: BLE001 - an error is a recorded outcome
            got[name] = {"error": f"{type(e).__name__}: {e}"[:300]}
        print(f"{name} {time.perf_counter() - t0:.1f}s {got[name]}", flush=True)
    ray.shutdown()

    if args.write:
        with open(args.write, "w") as f:
            json.dump(got, f, indent=1, sort_keys=True)
        print(json.dumps({"queries": len(got)}))
        return
    with open(args.check) as f:
        want = json.load(f)
    diff = [n for n in names if got[n] != want.get(n)]
    for n in diff:
        print(f"DIFF {n}: snapshot {want.get(n)} now {got[n]}")
    print(json.dumps({"queries": len(names), "identical": len(names) - len(diff)}))
    sys.exit(1 if diff else 0)


if __name__ == "__main__":
    main()
