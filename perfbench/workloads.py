"""The closed-loop operations the benchmark times.

One operation (op) is either one complete OCR job, from reading the
spans table to its parquet output, or one pass over the ops slice.
Every op is checked: OCR output for span-sequence equality against the
pinned goldens, each query against its DuckDB oracle.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow.parquet as pq

from . import inputs
from .session import OCR_ACTORS, REASSEMBLE_PARTITIONS

METRICS_NAME = "perfbench_metrics"

#: documents per OCR job: ~720 spans, 288 of them media spans. Small
#: enough that a run holds well over ten jobs; the fixed per-job Ray
#: cost (actor pool and exchange start-up) is a large share of a job.
OCR_DOCS = 160


class OcrWorkload:
    """``ocr_unique``: the headline OCR job with the per-actor memo
    cache off, over the PNG template pool. Job `i` of a run is the i-th
    job of the seed, so every op reads fresh documents."""

    name = "ocr_unique"

    def __init__(self, seed: int, cache_dir: str, run_dir: str):
        self.pool_path, self.pool, self.build_s = inputs.ensure_pool(cache_dir)
        self.maker = inputs.JobMaker(self.pool, OCR_DOCS, seed)
        self.run_dir = run_dir
        self.store_ref = None

    def load(self) -> None:
        """Per session: broadcast the media store once."""
        import ray

        from ocrs_ray.pipeline import load_media_store

        self.store_ref = ray.put(load_media_store(self.pool_path))

    def prepare(self, index: int) -> dict:
        spans, expected, facts = self.maker.make(index)
        job_dir = os.path.join(self.run_dir, f"{self.name}-{index:05d}")
        inputs.write_spans(spans, os.path.join(job_dir, "spans"))
        return {"dir": job_dir, "expected": expected, "facts": facts, "index": index}

    def run(self, job: dict, traced: bool, spans: list) -> dict:
        """Execute one job, read to written parquet. Returns what the
        trace needs; the op's wall time is taken by the caller."""
        from ocrs_ray.pipeline import OcrPipelineConfig, build_ocr_pipeline, read_spans

        cfg = OcrPipelineConfig(
            ocr_concurrency=(OCR_ACTORS, OCR_ACTORS),
            reassemble_partitions=REASSEMBLE_PARTITIONS,
            cache_media=False,
            metrics_name=METRICS_NAME if traced else None,
        )
        out_dir = os.path.join(job["dir"], "out")
        ds = build_ocr_pipeline(read_spans(os.path.join(job["dir"], "spans")), self.store_ref, cfg)
        if not traced:
            ds.write_parquet(out_dir)
            return {}
        # Traced: materialize first so Dataset.stats() covers the job
        # (a write alone leaves no per-operator stats), then write.
        t0 = time.perf_counter()
        out = ds.materialize()
        t1 = time.perf_counter()
        out.write_parquet(out_dir)
        t2 = time.perf_counter()
        spans.append(("job.execute", t0, t1))
        spans.append(("job.write", t1, t2))
        return {"write_s": t2 - t1, "out": out}

    def check(self, job: dict) -> str | None:
        out = pq.read_table(os.path.join(job["dir"], "out"))
        return inputs.check_output(out, job["expected"])

    def cleanup(self, job: dict) -> None:
        shutil.rmtree(job["dir"], ignore_errors=True)

    def self_check(self, job: dict) -> None:
        inputs.self_check(pq.read_table(os.path.join(job["dir"], "out")), job["expected"])


#: The slice: for each ops module, the registry queries that may stand
#: for it (candidates of one module cost about the same at sf0.01).
OPS_CANDIDATES = {
    "analytics": ("docs_token_entropy", "events_topk_per_group"),
    "composed": ("pretrain_data_prep",),
    "dedup": ("dedup_exact", "embedding_neardup_pairs", "dedup_normalized"),
    "extraction": ("docs_pdf_page_text", "docs_html_strip", "docs_html_table_extract"),
    "relational": ("events_tumbling_window", "lineitem_qty_price_stats"),
    "sampling": ("sample_documents", "docs_topk_longest"),
    "similarity": ("embedding_label_centroid",),
    "sketch": ("active_customers_bloom",),
    "sources": ("docs_webdataset_roundtrip",),
    "text": ("docs_pii_scrub", "docs_normalize_text", "content_hash"),
    "tpch": ("q6_forecast_revenue",),
}

#: Oracles for approximate queries, which the registry leaves rows-only.
#: The Bloom semi-join must return every row of the exact answer and at
#: most 1% extra rows.
SUPERSET_ORACLES = {
    "active_customers_bloom": (
        "SELECT c_custkey, c_name FROM customer WHERE c_custkey IN "
        "(SELECT o_custkey FROM orders WHERE o_orderdate >= DATE '2001-01-01')"
    ),
}


class OpsWorkload:
    """``ops_slice``: one op is one pass over the slice, one query per
    ops module, each result consumed in full. The seed picks which
    candidate stands for each module and where the pass starts."""

    name = "ops_slice"

    def __init__(self, seed: int, data_dir: str):
        rng = np.random.default_rng([seed, 3])
        modules = sorted(OPS_CANDIDATES)
        picks = [(m, OPS_CANDIDATES[m][int(rng.integers(len(OPS_CANDIDATES[m])))]) for m in modules]
        # A query runs slower after some queries than after others (the
        # previous query's actors are still being torn down). Passes run
        # back to back, so rotating one fixed cycle keeps every query's
        # predecessor the same whatever the seed; the seed picks where
        # the pass starts.
        start = int(rng.integers(len(modules)))
        self.order = picks[start:] + picks[:start]
        self.data_dir = data_dir
        self.expected: dict = {}
        self.build_s = 0.0

    def load(self) -> None:
        """Per session: compute each picked query's oracle result."""
        import duckdb

        from ocrs_ray.ops import registry

        sql = {**registry.oracle_sql(), **SUPERSET_ORACLES}
        con = duckdb.connect()
        try:
            for name in sorted(os.listdir(self.data_dir)):
                table = name.removesuffix(".parquet")
                path = os.path.join(self.data_dir, name)
                con.execute(f"CREATE VIEW {table} AS SELECT * FROM read_parquet('{path}')")
            self.expected = {q: _canon(con.execute(sql[q]).df()) for _, q in self.order}
        finally:
            con.close()

    def prepare(self, index: int) -> dict:
        return {"index": index}

    def run(self, job: dict, traced: bool, spans: list) -> dict:
        from ocrs_ray.ops import registry

        queries = registry.queries()
        job["results"] = {}
        walls = {}
        for module, query in self.order:
            t0 = time.perf_counter()
            res = queries[query](self.data_dir)
            job["results"][query] = res.to_pandas() if hasattr(res, "to_pandas") else res
            t1 = time.perf_counter()
            spans.append((f"query.{query}", t0, t1))
            walls[module] = t1 - t0
        return {"module_walls": walls}

    def check(self, job: dict) -> str | None:
        import pandas as pd

        for query, got in job.pop("results").items():
            exp = self.expected[query]
            if sorted(got.columns) != list(exp.columns):
                return f"{query}: columns {sorted(got.columns)} != {list(exp.columns)}"
            if query in SUPERSET_ORACLES:
                rows = set(_canon(got).itertuples(index=False))
                want = set(exp.itertuples(index=False))
                if not want <= rows or len(rows - want) > len(want) // 100:
                    return f"{query}: {len(want - rows)} rows missing, {len(rows - want)} extra"
                continue
            try:
                pd.testing.assert_frame_equal(_canon(got), exp, check_dtype=False)
            except AssertionError as exc:
                return f"{query}: {str(exc).splitlines()[0]}"
        return None

    def cleanup(self, job: dict) -> None:
        job.pop("results", None)

    def self_check(self, job: dict) -> None:
        """Oracle results come from DuckDB, not from the code measured;
        there is no pinned table here to alter."""


def _canon(df):
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)
