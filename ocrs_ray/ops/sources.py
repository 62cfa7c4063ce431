"""Alternate ingestion formats for the documents table.

The reference ingests one image file per process invocation
(`/root/reference/ocrs-cli/src/main.rs:319-323`); at corpus scale the
equivalent surface is "get external text shards into the engine's
documents schema". Parquet is the native format everywhere else in
this repo; these readers cover the two interchange formats corpora
actually arrive in — JSONL (one document object per line, the common
crawl-dump/export shape) and CSV — normalized to the exact
documents schema so every downstream operator runs unchanged.

Both map to Ray Data's native distributed readers (`read_json` /
`read_csv`): each input file becomes read task(s) that stream blocks
into the pipeline — no driver-side parsing, and a directory of shards
parallelizes across the cluster exactly like parquet row groups.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.csv as pacsv

import ray.data as rd

from ..session import read_table, source

__all__ = [
    "DOCUMENTS_SCHEMA",
    "documents_from_jsonl",
    "documents_from_jsonl_gz",
    "documents_from_csv",
    "documents_from_arrow_ipc",
    "write_documents_arrow_ipc",
    "write_documents_jsonl",
    "docs_jsonl_roundtrip",
    "write_documents_partitioned",
    "docs_partitioned_sink_roundtrip",
    "compact_partitioned_corpus",
    "docs_compacted_sink_roundtrip",
    "docs_arrow_ipc_roundtrip",
    "encode_webdataset_shard",
    "decode_webdataset_shard",
    "write_documents_webdataset",
    "documents_from_webdataset",
    "docs_webdataset_roundtrip",
]

#: The documents table contract (TESTDATA.md): every reader must land
#: exactly here so downstream ops are format-agnostic.
DOCUMENTS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("text", pa.string()),
        ("lang", pa.string()),
        ("source", pa.string()),
        ("n_chars", pa.int64()),
    ]
)

_COLUMNS = [f.name for f in DOCUMENTS_SCHEMA]


def _normalize(batch: pa.Table) -> pa.Table:
    """Project to the documents schema (column order AND types): JSON
    integers arrive as int64 already; CSV may infer int32/strings —
    cast instead of trusting inference."""
    arrays = [
        batch.column(name).cast(DOCUMENTS_SCHEMA.field(name).type)
        for name in _COLUMNS
    ]
    return pa.table(dict(zip(_COLUMNS, arrays)))


@source
def documents_from_jsonl(path: str) -> rd.Dataset:
    """Documents from newline-delimited JSON (one object per line,
    `.jsonl` / `.json`). Text with embedded newlines is safe (JSON
    escapes them); unknown extra keys are dropped by the projection."""
    return rd.read_json(path, file_extensions=["jsonl", "json"]).map_batches(
        _normalize, batch_format="pyarrow"
    )


@source
def documents_from_csv(path: str) -> rd.Dataset:
    """Documents from CSV with a header row. `newlines_in_values` is
    on because document text legitimately contains newlines inside
    quoted fields — without it the reader splits mid-document (the
    silent-corruption failure mode of naive CSV ingestion)."""
    return rd.read_csv(
        path,
        parse_options=pacsv.ParseOptions(newlines_in_values=True),
    ).map_batches(_normalize, batch_format="pyarrow")


@source
def documents_from_jsonl_gz(path: str) -> rd.Dataset:
    """Documents from gzip-compressed JSONL shards (`.jsonl.gz` — the
    shape crawl dumps actually ship in). Decompression happens inside
    each read task via Arrow's stream wrapper, so a directory of .gz
    shards parallelizes exactly like the uncompressed reader — the
    driver never touches the bytes. Note gzip shards are not
    splittable: one file = at least one task, so shard size (not row
    count) sets the read parallelism floor.
    """
    return rd.read_json(
        path,
        file_extensions=["gz"],
        arrow_open_stream_args={"compression": "gzip"},
    ).map_batches(_normalize, batch_format="pyarrow")


def write_documents_arrow_ipc(ds: rd.Dataset, out_dir: str) -> int:
    """Arrow IPC (Feather v2) sink: each BLOCK writes its own .arrow
    file task-side (streaming — no driver collect), returning the
    shard count. IPC files are the zero-copy interchange shape for
    handing blocks to non-Ray Arrow consumers (DuckDB, polars, C++).
    Stale part-*.arrow shards from a previous run are removed first —
    shard names are per-run UUIDs, so without the sweep a rerun into
    the same out_dir would accumulate old generations that
    `documents_from_arrow_ipc` reads back as duplicated rows (the same
    rerun-overwrite hazard `clear_webdataset_shards` closes for tar)."""
    import glob
    import os
    import uuid

    os.makedirs(out_dir, exist_ok=True)
    for f in glob.glob(os.path.join(out_dir, "part-*.arrow")):
        os.remove(f)

    def write_block(b: pa.Table) -> pa.Table:
        path = os.path.join(out_dir, f"part-{uuid.uuid4().hex}.arrow")
        with pa.OSFile(path, "wb") as f, pa.ipc.new_file(f, b.schema) as w:
            w.write_table(b)
        return pa.table({"path": pa.array([path]), "rows": pa.array([b.num_rows], type=pa.int64())})

    manifest = ds.map_batches(
        write_block, batch_format="pyarrow", batch_size=None
    ).materialize()
    return manifest.count()


@source
def documents_from_arrow_ipc(path_dir: str) -> rd.Dataset:
    """Arrow IPC source: one read task per .arrow shard
    (read_binary_files), decoded zero-copy via pa.ipc and normalized
    to the documents schema — the same distributed-scan shape as the
    parquet/JSONL readers."""

    def decode(batch: pa.Table) -> pa.Table:
        tables = [
            pa.ipc.open_file(pa.BufferReader(raw)).read_all()
            for raw in batch.column("bytes").to_pylist()
        ]
        if not tables:
            return DOCUMENTS_SCHEMA.empty_table()
        return _normalize(pa.concat_tables(tables))

    return rd.read_binary_files(path_dir).map_batches(
        decode, batch_format="pyarrow"
    )


def docs_arrow_ipc_roundtrip(sf_dir: str) -> rd.Dataset:
    """Source/sink coverage for Arrow IPC: stream the documents table
    into per-block .arrow shards, read them BACK as a distributed scan,
    and report per-source counts off the round-tripped data — the same
    lose-or-duplicate-a-row-and-fail contract as
    `docs_partitioned_sink_roundtrip`, over the interchange format."""
    import shutil
    import tempfile

    import pandas as pd

    out_dir = tempfile.mkdtemp(prefix="ocrs_ray_ipc_")
    try:
        ds = read_table(f"{sf_dir}/documents.parquet")
        write_documents_arrow_ipc(ds, out_dir)

        def partial(b: pd.DataFrame) -> pd.DataFrame:
            g = b.groupby("source", as_index=False).size()
            return pd.DataFrame(
                {"source": g["source"], "n_docs": g["size"].astype("int64")}
            )

        from .relational import tree_sum

        counts = tree_sum(
            documents_from_arrow_ipc(out_dir).map_batches(
                partial, batch_format="pandas"
            ),
            ["source"],
            ["n_docs"],
        )
        return counts.materialize()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def encode_shard_samples(
    items: list[tuple[str, bytes, dict]], payload_ext: str
) -> bytes:
    """Generic WebDataset tar kernel: (key, payload bytes, meta dict)
    samples -> one shard with `<key><payload_ext>` + `<key>.json` per
    sample. Member mtimes pinned to 0 and keys emitted in input order,
    so identical input yields byte-identical shards. Shared by the
    documents (.txt) and media (.bin) sinks — one tar walk to fix."""
    import io
    import json
    import tarfile

    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tf:
        for key, payload, meta in items:
            for ext, data in (
                (payload_ext, payload),
                (".json", json.dumps(meta, sort_keys=True).encode("utf-8")),
            ):
                ti = tarfile.TarInfo(key + ext)
                ti.size = len(data)
                ti.mtime = 0
                tf.addfile(ti, io.BytesIO(data))
    return buf.getvalue()


def decode_shard_samples(
    raw: bytes, payload_ext: str
) -> list[tuple[str, bytes, dict]]:
    """Generic WebDataset tar kernel inverse: shard bytes -> (key,
    payload bytes, meta dict) samples regrouped by key prefix, sorted
    by key."""
    import io
    import json
    import tarfile

    want = payload_ext.lstrip(".")
    out: list[tuple[str, bytes, dict]] = []
    with tarfile.open(fileobj=io.BytesIO(raw)) as tf:
        samples: dict[str, dict[str, bytes]] = {}
        for m in tf.getmembers():
            key, ext = m.name.rsplit(".", 1)
            samples.setdefault(key, {})[ext] = tf.extractfile(m).read()
        for key in sorted(samples):
            s = samples[key]
            out.append((key, s[want], json.loads(s["json"].decode("utf-8"))))
    return out


def clear_webdataset_shards(out_dir: str) -> None:
    """Remove any existing shard-*.tar in `out_dir` so a rerun whose
    block boundaries differ (different CPU count -> different shard
    names) cannot leave stale shards that read back as duplicates."""
    import glob
    import os

    for f in glob.glob(os.path.join(out_dir, "shard-*.tar")):
        os.remove(f)


def encode_webdataset_shard(cols: dict[str, list]) -> bytes:
    """Documents columns -> one WebDataset tar shard (`<key>.txt`
    payload + `<key>.json` sidecar, key = zero-padded doc_id), via the
    shared `encode_shard_samples` kernel."""
    items = [
        (
            f"{cols['doc_id'][i]:012d}",
            cols["text"][i].encode("utf-8"),
            {name: cols[name][i] for name in _COLUMNS if name != "text"},
        )
        for i in range(len(cols["doc_id"]))
    ]
    return encode_shard_samples(items, ".txt")


def decode_webdataset_shard(raw: bytes) -> dict[str, list]:
    """One tar shard -> documents columns, via the shared
    `decode_shard_samples` kernel (sorted by key)."""
    rows: dict[str, list] = {name: [] for name in _COLUMNS}
    for _key, payload, meta in decode_shard_samples(raw, ".txt"):
        rows["text"].append(payload.decode("utf-8"))
        for name in _COLUMNS:
            if name != "text":
                rows[name].append(meta[name])
    return rows


def write_documents_webdataset(ds: rd.Dataset, out_dir: str) -> rd.Dataset:
    """WebDataset-style tar shard sink: each BLOCK writes one
    `shard-<min_doc_id>.tar` task-side (streaming — no driver collect)
    in the sample-per-key-prefix convention multimodal training
    loaders consume sequentially. Stale shard-*.tar files in `out_dir`
    are cleared first, so a rerun whose block boundaries differ
    (different parallelism -> different shard names) cannot leave old
    generations behind to read back as duplicates; shards are
    byte-deterministic (see `encode_webdataset_shard`). Returns the
    materialized (path, n_docs) manifest."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    clear_webdataset_shards(out_dir)

    def write_block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {
                    "path": pa.array([], type=pa.string()),
                    "n_docs": pa.array([], type=pa.int64()),
                }
            )
        cols = {name: b.column(name).to_pylist() for name in _COLUMNS}
        path = os.path.join(out_dir, f"shard-{min(cols['doc_id']):012d}.tar")
        with open(path, "wb") as f:
            f.write(encode_webdataset_shard(cols))
        return pa.table(
            {
                "path": pa.array([path], type=pa.string()),
                "n_docs": pa.array([b.num_rows], type=pa.int64()),
            }
        )

    return ds.map_batches(
        write_block, batch_format="pyarrow", batch_size=None
    ).materialize()


@source
def documents_from_webdataset(path_dir: str) -> rd.Dataset:
    """WebDataset source: one read task per .tar shard
    (read_binary_files), decoded via `decode_webdataset_shard` and
    normalized to the documents schema — same distributed-scan shape
    as the parquet/JSONL readers, over the loader-native format."""

    def decode(batch: pa.Table) -> pa.Table:
        rows: dict[str, list] = {name: [] for name in _COLUMNS}
        for raw in batch.column("bytes").to_pylist():
            shard = decode_webdataset_shard(raw)
            for name in _COLUMNS:
                rows[name].extend(shard[name])
        return _normalize(
            pa.table(
                {
                    name: pa.array(rows[name], type=DOCUMENTS_SCHEMA.field(name).type)
                    for name in _COLUMNS
                }
            )
        )

    return rd.read_binary_files(path_dir).map_batches(
        decode, batch_format="pyarrow"
    )


def docs_webdataset_roundtrip(sf_dir: str) -> rd.Dataset:
    """Source/sink coverage for WebDataset tar shards: stream the full
    documents table out as tar shards and read it BACK, returning the
    reconstructed table itself — the oracle compares EVERY row and
    column against the parquet original, so a lost/duplicated sample,
    a mangled payload, or a dropped sidecar field all fail."""
    import shutil
    import tempfile

    out_dir = tempfile.mkdtemp(prefix="ocrs_ray_wds_")
    try:
        ds = read_table(f"{sf_dir}/documents.parquet")
        write_documents_webdataset(ds, out_dir)
        return documents_from_webdataset(out_dir).materialize()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def write_documents_partitioned(ds: rd.Dataset, out_dir: str) -> None:
    """Hive-partitioned parquet sink (`source=<v>/` directories): the
    resumable-output layout — a rerun can skip finished partitions,
    and a reader filtering on the partition key prunes whole
    directories without opening a file. One call per dataset; each
    block writes its own files under its partition, so the sink
    streams (never a driver-side collect)."""
    ds.write_parquet(out_dir, partition_cols=["source"])


def docs_partitioned_sink_roundtrip(sf_dir: str) -> rd.Dataset:
    """Sink-path coverage: stream the documents table into a
    Hive-partitioned parquet layout (`source=<v>/...`), read it BACK
    as a distributed scan (the partition key is reconstructed from the
    directory names, never stored in the files), and report per-source
    row counts from the round-tripped data — proving (a) the
    partitioned write streams block-wise, (b) the partition column
    survives the round trip, (c) the layout a resumable 100 TB job
    needs (finished partitions are skippable directories).

    The oracle is per-source counts straight off the original table,
    so any row lost or duplicated by the sink round-trip fails the
    value compare. The tiny bounded-key count table is materialized
    before the scratch directory is removed.
    """
    import shutil
    import tempfile

    import pandas as pd

    out_dir = tempfile.mkdtemp(prefix="ocrs_ray_sink_")
    try:
        ds = read_table(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
        )
        write_documents_partitioned(ds, out_dir)

        def partial(b: pd.DataFrame) -> pd.DataFrame:
            g = b.groupby("source", as_index=False).size()
            return pd.DataFrame(
                {"source": g["source"], "n_docs": g["size"].astype("int64")}
            )

        from .relational import tree_sum

        counts = tree_sum(
            read_table(out_dir).map_batches(partial, batch_format="pandas"),
            ["source"],
            ["n_docs"],
        )
        return counts.materialize()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def compact_partitioned_corpus(
    in_dir: str,
    out_dir: str,
    partitions: int | None = None,
    key: str = "source",
    file_extensions: list[str] | None = None,
) -> int:
    """Compact a fragmented Hive-partitioned corpus: read the whole
    layout, co-locate each partition key's rows with one keyed
    repartition, and rewrite — one file per partition directory
    instead of one per (writer block x key). THE operational fix for
    the small-files problem a long-running incremental sink accretes
    (metadata-bound scans, per-file open cost). Returns the output
    file count.

    Scale shape: one streaming scan + one hash exchange + a streaming
    write; nothing driver-sized. At 100 TB a partition key's rows can
    exceed one sane file, so `partitions` oversizes the exchange and
    the writer emits one file per (block, key) — file count is then
    `partitions`-bounded rather than writer-fragmentation-bounded.
    """
    from ocrs_ray.pipeline import default_npart

    npart = partitions or default_npart()
    # file_extensions lets a caller compact a layout whose root also
    # holds non-parquet state (e.g. a job manifest.jsonl next to the
    # part=N/ dirs); hive partition columns (`key`) are inferred.
    ds = read_table(in_dir, file_extensions=file_extensions)
    compacted = ds.repartition(npart, keys=[key])
    compacted.write_parquet(out_dir, partition_cols=[key])
    return _count_parquet_files(out_dir)


def _count_parquet_files(root: str) -> int:
    """Recursive parquet-file count via pyarrow.fs so the tally works
    on any filesystem the writer targets (s3://, hdfs://, local) and
    at any partition-directory depth — a local single-level glob
    returns 0 for remote URIs and under-counts nested layouts."""
    from pyarrow import fs as pafs

    filesystem, path = pafs.FileSystem.from_uri(root)
    infos = filesystem.get_file_info(
        pafs.FileSelector(path, recursive=True, allow_not_found=True)
    )
    return sum(
        1
        for i in infos
        if i.type == pafs.FileType.File and i.path.endswith(".parquet")
    )


def docs_compacted_sink_roundtrip(
    sf_dir: str, fragment_factor: int = 8
) -> rd.Dataset:
    """Compaction coverage: fragment the documents table into a
    many-small-files Hive layout (`fragment_factor` writer blocks x
    one file per (block, source)), compact it with
    `compact_partitioned_corpus`, require a real file-count reduction
    LOUDLY, and report per-source (n_docs, content checksum) from the
    COMPACTED data — the oracle computes the same off the original
    table, so any row lost, duplicated or corrupted by
    fragment->compact->read fails the value compare. The checksum is
    the per-source sum of each text's leading-8-hex md5 (the
    `md5_bucket` SQL-mirrorable fold; 32-bit values sum safely in
    int64 at any realistic partition size)."""
    import shutil
    import tempfile

    import pandas as pd

    from .relational import tree_sum

    frag_dir = tempfile.mkdtemp(prefix="ocrs_ray_frag_")
    comp_dir = tempfile.mkdtemp(prefix="ocrs_ray_comp_")
    try:
        ds = read_table(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
        )
        ds.repartition(fragment_factor).write_parquet(
            frag_dir, partition_cols=["source"]
        )
        n_before = _count_parquet_files(frag_dir)
        n_after = compact_partitioned_corpus(frag_dir, comp_dir)
        if n_after >= n_before:
            raise RuntimeError(
                f"compaction did not reduce file count: {n_before} -> "
                f"{n_after} (fragmented layout assumption broken)"
            )

        def partial(b: pd.DataFrame) -> pd.DataFrame:
            from .sampling import md5_bucket

            h = md5_bucket(b["text"]).astype("int64")
            g = pd.DataFrame({"source": b["source"].to_numpy(), "h": h})
            agg = g.groupby("source", as_index=False).agg(
                n_docs=("h", "size"), sum_h=("h", "sum")
            )
            return pd.DataFrame(
                {
                    "source": agg["source"].to_numpy(),
                    "n_docs": agg["n_docs"].to_numpy(dtype="int64"),
                    "sum_h": agg["sum_h"].to_numpy(dtype="int64"),
                }
            )

        counts = tree_sum(
            read_table(comp_dir).map_batches(
                partial, batch_format="pandas"
            ),
            ["source"],
            ["n_docs", "sum_h"],
        )
        return counts.materialize()
    finally:
        shutil.rmtree(frag_dir, ignore_errors=True)
        shutil.rmtree(comp_dir, ignore_errors=True)


def write_documents_jsonl(ds: rd.Dataset, out_dir: str) -> None:
    """Newline-delimited JSON sink (Ray-native `write_json`): one
    .json shard per block, written task-side — streaming, no driver
    collect. The inverse of `documents_from_jsonl`; embedded newlines
    survive because JSON escapes them."""
    ds.write_json(out_dir)


def docs_jsonl_roundtrip(sf_dir: str) -> rd.Dataset:
    """Source/sink coverage for JSONL: stream documents into per-block
    .json shards, read them BACK through `documents_from_jsonl` (the
    crawl-dump ingestion path), and report per-source doc counts AND
    total characters off the round-tripped rows — so a row lost,
    duplicated, or a text mangled by the escape/unescape cycle fails
    the value compare."""
    import shutil
    import tempfile

    import pandas as pd

    out_dir = tempfile.mkdtemp(prefix="ocrs_ray_jsonl_")
    try:
        ds = read_table(f"{sf_dir}/documents.parquet")
        write_documents_jsonl(ds, out_dir)

        def partial(b: pd.DataFrame) -> pd.DataFrame:
            g = b.groupby("source", as_index=False).agg(
                n_docs=("doc_id", "size"), sum_chars=("n_chars", "sum")
            )
            return g.astype({"n_docs": "int64", "sum_chars": "int64"})

        from .relational import tree_sum

        counts = tree_sum(
            documents_from_jsonl(out_dir).map_batches(
                partial, batch_format="pandas"
            ),
            ["source"],
            ["n_docs", "sum_chars"],
        )
        return counts.materialize()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
