"""Corpus analytics: vocabulary building, TF-IDF, grouped top-k,
running windows, pivots, heavy hitters, stratified sampling, and
connected-components dedup clustering.

Scale notes baked into each operator:
- word counts pre-aggregate per batch (the shuffle moves one row per
  distinct token per batch, never raw token occurrences);
- the document-frequency table is a small side broadcast via `ray.put`
  and read inside `map_batches` (never re-shipped per batch);
- grouped top-k keeps k rows per block before the final reduce —
  no global sort;
- connected components is the alternating large-star/small-star
  algorithm (Kiveris et al., SoCC'14): join-free, each round is one
  `groupby(node).map_groups`, converging in O(log n) rounds.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from ..pipeline import worker_value
from ..session import cogroup, read_table
from .relational import MICRO, hash_sum, round_half_away, tree_sum
from .text import read_documents

__all__ = [
    "events_time_to_purchase",
    "events_user_session_number",
    "events_props_json_rollup",
    "vocab_top_terms",
    "tfidf_top_terms",
    "lm_quality_score",
    "lm_bigram_score",
    "events_topk_per_group",
    "events_user_running_sum",
    "events_user_pivot",
    "events_user_lag_diff",
    "events_user_first_last",
    "events_user_moving_sum",
    "events_user_type_sequence",
    "events_user_top_type",
    "events_user_ntile",
    "events_user_unpivot",
    "distinct_user_event_types",
    "source_distinct_shingles",
    "docs_token_entropy",
    "docs_length_histogram",
    "bm25_topk",
    "heavy_hitters_exact",
    "heavy_hitters_sketch",
    "stratified_sample_documents",
    "dedup_clusters",
    "neardup_survivors",
    "embedding_clusters",
    "connected_components",
    "cc_star_map",
    "substring_dup_clusters",
]

#: Lower-case letter runs; the SQL oracle tokenizes with the same
#: regexp over lower(text).
TOKEN_RE = r"[a-z]+"

#: Known event types (closed set in the synthetic corpus) for the
#: pivot operator's fixed output schema.
EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


# ---------------------------------------------------------------------------
# Vocabulary / TF-IDF
# ---------------------------------------------------------------------------


def _count_tokens(texts, per_doc_unique: bool = False) -> dict[str, int]:
    """Token counts over an iterable of texts (TOKEN_RE over lower()).
    With per_doc_unique, each doc contributes 1 per distinct token
    (document frequency); otherwise raw occurrences. The single
    tokenizer shared by every word-level operator — keep it in sync
    with the SQL oracles' regexp."""
    tok = re.compile(TOKEN_RE)
    counts: dict[str, int] = {}
    for text in texts:
        found = tok.findall(text.lower())
        for t in set(found) if per_doc_unique else found:
            counts[t] = counts.get(t, 0) + 1
    return counts


def _counts_frame(counts: dict[str, int], key: str, val: str) -> pd.DataFrame:
    return pd.DataFrame(
        {
            key: list(counts.keys()),
            val: np.fromiter(counts.values(), dtype="int64", count=len(counts)),
        }
    )


def _token_count_partial(batch: pd.DataFrame) -> pd.DataFrame:
    """One (token, n) row per distinct token per batch — the combiner
    that keeps the vocabulary shuffle tiny."""
    return _counts_frame(_count_tokens(batch["text"]), "token", "n")


def vocab_top_terms(sf_dir: str, k: int = 20) -> rd.Dataset:
    """Global top-k tokens by frequency (ties: token ascending).

    map_batches combiner -> tree-reduce (vocabulary is a bounded key
    space, so no hash shuffle is needed) -> top-k on the single merged
    block.
    """
    totals = tree_sum(
        read_documents(sf_dir, ["text"]).map_batches(
            _token_count_partial, batch_format="pandas"
        ),
        ["token"],
        ["n"],
    )

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["n", "token"], ascending=[False, True], kind="stable")
        return df.head(k)[["token", "n"]]

    return totals.map_batches(local_topk, batch_format="pandas", batch_size=None)


#: Broadcast a (token -> score) table as a driver dict only below this
#: measured size; above it per-doc scoring runs as a token-keyed cogroup
#: + doc-keyed re-aggregation. A 100-TB crawl's unigram vocabulary is
#: ~1e8+ and its bigram vocabulary effectively corpus-sized — neither
#: is a driver-side structure.
VOCAB_BROADCAST_LIMIT_BYTES = 64 << 20


def _doc_score_cogroup(
    doc_terms: rd.Dataset,
    scores: rd.Dataset,
    key_cols: list[str],
    npart: int,
) -> rd.Dataset:
    """Distributed per-document additive scoring: (doc_id, *key, tf)
    rows cogroup with (*key, score_micro) rows on the term key
    (`session.cogroup` — never a native join against the sparse score
    side), emit per-partition (doc_id, n_part, sum_part) partials, then
    one doc_id-keyed `hash_sum` finishes the sums. Exact: micro-scores
    are integers, so tf*score partials sum order-independently."""
    terms = [(k, pa.string()) for k in key_cols]

    def attach(docs: pd.DataFrame, sc: pd.DataFrame) -> pd.DataFrame:
        m = docs.merge(sc, on=key_cols, how="inner")
        tf = m["tf"].to_numpy(dtype="int64")
        return pd.DataFrame(
            {
                "doc_id": m["doc_id"].to_numpy(dtype="int64"),
                "n_part": tf,
                "sum_part": tf * m["score_micro"].to_numpy(dtype="int64"),
            }
        )

    partials = cogroup(
        [
            (
                doc_terms,
                key_cols,
                pa.schema([("doc_id", pa.int64()), *terms, ("tf", pa.int64())]),
            ),
            (scores, key_cols, pa.schema([*terms, ("score_micro", pa.int64())])),
        ],
        attach,
        npart,
    )
    return hash_sum(partials, ["doc_id"], ["n_part", "sum_part"], npart)


def lm_quality_score(
    sf_dir: str,
    broadcast_limit_bytes: int = VOCAB_BROADCAST_LIMIT_BYTES,
) -> rd.Dataset:
    """CCNet-style unigram language-model quality score: per document,
    its token count and the summed log-probability of its tokens under
    the corpus's own unigram distribution. Low (very negative mean)
    scores mark gibberish / rare-token soup; high scores mark
    stopword-heavy boilerplate — the standard LM quality filter axis.

    Per-token log-probs are micro-rounded BEFORE summing, so the
    per-document total is an order-independent integer — exact under
    any batch/partition layout. The oracle comparison additionally
    assumes numpy's log and DuckDB's ln round to the same micro grid:
    they can differ by 1 ulp, so a token whose 1e6*ln(p) lands within
    ~0.002 micro-units of a .5 boundary could flip (measured margin on
    the test vocab: 0.037; every other micro-rounded op is structural
    because both sides compute arithmetic-identical products).

    Scale shape: pass 1 builds global token counts with the
    tree-reduced combiner; the grand total is a tiny scalar aggregate.
    Strategy then follows the MEASURED counts-table size: under
    `broadcast_limit_bytes` the vocab-sized log-prob table broadcasts
    once via ray.put and pass 2 streams the corpus through a task
    stage probing it (no shuffle); above it nothing vocab-sized touches
    the driver — per-doc (token, tf) rows cogroup with the distributed
    log-prob table on token, then re-aggregate per doc_id
    (`_doc_score_cogroup`). Both paths are exact and test-pinned equal
    (broadcast_limit_bytes=0 forces the cogroup). Tokens unseen in
    pass 1 cannot occur in pass 2 (same corpus, same tokenizer).
    """
    from ocrs_ray.pipeline import default_npart

    totals = tree_sum(
        read_documents(sf_dir, ["text"]).map_batches(
            _token_count_partial, batch_format="pandas"
        ),
        ["token"],
        ["n"],
    ).materialize()
    total = int(
        totals.map_batches(
            lambda df: pd.DataFrame({"s": [int(df["n"].sum())]}),
            batch_format="pandas",
        )
        .to_pandas()["s"]
        .sum()
    )

    if totals.size_bytes() <= broadcast_limit_bytes:
        counts = totals.to_pandas()
        logp_micro = dict(
            zip(
                counts["token"],
                round_half_away(
                    1e6 * np.log(counts["n"].to_numpy(dtype="float64") / total)
                ).astype("int64"),
            )
        )
        ref = ray.put(logp_micro)

        def score(df: pd.DataFrame) -> pd.DataFrame:
            logp = worker_value(ref)
            tok = re.compile(TOKEN_RE)
            ids: list[int] = []
            ns: list[int] = []
            sums: list[int] = []
            for d, t in zip(df["doc_id"], df["text"]):
                found = tok.findall(t.lower())
                if not found:
                    continue
                ids.append(int(d))
                ns.append(len(found))
                sums.append(int(sum(logp[w] for w in found)))
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(ids, dtype="int64"),
                    "n_tokens": pd.Series(ns, dtype="int64"),
                    "sum_logp_micro": pd.Series(sums, dtype="int64"),
                }
            )

        return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
            score, batch_format="pandas"
        )

    # Distributed path: the log-prob table stays a Dataset.
    scores = totals.map_batches(
        lambda df: pd.DataFrame(
            {
                "token": df["token"],
                "score_micro": round_half_away(
                    1e6 * np.log(df["n"].to_numpy(dtype="float64") / total)
                ).astype("int64"),
            }
        ),
        batch_format="pandas",
    )
    doc_terms = read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        _doc_term_tf, batch_format="pandas"
    ).map_batches(
        lambda df: df.rename(columns={"term": "token"}), batch_format="pandas"
    )
    npart = default_npart()
    out = _doc_score_cogroup(doc_terms, scores, ["token"], npart)
    return out.map_batches(
        lambda df: df.rename(
            columns={"n_part": "n_tokens", "sum_part": "sum_logp_micro"}
        ),
        batch_format="pandas",
    )


def _bigram_count_partial(batch: pd.DataFrame) -> pd.DataFrame:
    """One (w1, w2, n) row per distinct bigram per batch — the combiner
    that keeps the bigram-table shuffle proportional to the observed
    bigram vocabulary, never to raw token positions."""
    tok = re.compile(TOKEN_RE)
    counts: dict[tuple[str, str], int] = {}
    for text in batch["text"]:
        found = tok.findall(text.lower())
        for pair in zip(found, found[1:]):
            counts[pair] = counts.get(pair, 0) + 1
    return pd.DataFrame(
        {
            "w1": [p[0] for p in counts],
            "w2": [p[1] for p in counts],
            "n": np.fromiter(counts.values(), dtype="int64", count=len(counts)),
        }
    )


def lm_bigram_score(
    sf_dir: str,
    broadcast_limit_bytes: int = VOCAB_BROADCAST_LIMIT_BYTES,
) -> rd.Dataset:
    """Bigram conditional LM quality score: per document, its bigram
    count and the summed log of p(w2|w1) = c(w1,w2) / c(w1 as prefix)
    under the corpus's own bigram statistics. The bigram axis catches
    word-salad that the unigram score (`lm_quality_score`) cannot:
    shuffled common words keep their unigram score but lose almost all
    bigram mass. Docs with fewer than two tokens emit no row (they have
    no bigrams), matching the SQL oracle's group-by over bigram rows.

    Per-bigram log-probs are micro-rounded BEFORE summing, so the
    per-document total is an order-independent integer (same exactness
    argument — and the same 1-ulp ln caveat — as `lm_quality_score`).
    The prefix count c(w1) counts w1's occurrences AS A BIGRAM PREFIX
    (i.e. excluding document-final positions), so the table is
    self-consistent: sum over w2 of p(w2|w1) is exactly 1.

    Scale shape: pass 1 tree-reduces per-batch bigram partials — the
    OBSERVED bigram vocabulary of natural language is Heaps-sublinear
    but effectively corpus-sized on a 100-TB crawl, so the strategy
    follows the MEASURED totals size: under `broadcast_limit_bytes` the
    collapsed log-prob table broadcasts once via ray.put and pass 2
    streams through a task stage probing it (no shuffle); above it the
    prefix-conditional log-probs compute inside one w1-keyed
    repartition and per-doc (w1, w2, tf) rows cogroup with them on the
    bigram key (`_doc_score_cogroup`) — nothing bigram-vocab-sized ever
    touches the driver. Both paths are exact and test-pinned equal
    (broadcast_limit_bytes=0 forces the cogroup). Bigrams unseen in
    pass 1 cannot occur in pass 2 (same corpus, same tokenizer).
    """
    from ocrs_ray.pipeline import default_npart

    totals = tree_sum(
        read_documents(sf_dir, ["text"]).map_batches(
            _bigram_count_partial, batch_format="pandas"
        ),
        ["w1", "w2"],
        ["n"],
    ).materialize()

    if totals.size_bytes() <= broadcast_limit_bytes:
        counts = totals.to_pandas()
        prefix = counts.groupby("w1")["n"].transform("sum").to_numpy(dtype="float64")
        logp = round_half_away(
            1e6 * np.log(counts["n"].to_numpy(dtype="float64") / prefix)
        ).astype("int64")
        logp_micro = dict(zip(zip(counts["w1"], counts["w2"]), logp))
        ref = ray.put(logp_micro)

        def score(df: pd.DataFrame) -> pd.DataFrame:
            logp = worker_value(ref)
            tok = re.compile(TOKEN_RE)
            ids: list[int] = []
            ns: list[int] = []
            sums: list[int] = []
            for d, t in zip(df["doc_id"], df["text"]):
                found = tok.findall(t.lower())
                if len(found) < 2:
                    continue
                ids.append(int(d))
                ns.append(len(found) - 1)
                sums.append(
                    int(sum(logp[p] for p in zip(found, found[1:])))
                )
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(ids, dtype="int64"),
                    "n_bigrams": pd.Series(ns, dtype="int64"),
                    "sum_logp_micro": pd.Series(sums, dtype="int64"),
                }
            )

        return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
            score, batch_format="pandas"
        )

    # Distributed path: conditional log-probs inside a w1-keyed
    # repartition (the prefix count c(w1) needs all of w1's bigram rows
    # co-located, and the keyed hash repartition guarantees exactly
    # that); the score table never leaves the object store.
    npart = default_npart()

    def cond_logp(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pa.table(
                {
                    "w1": pa.array([], type=pa.string()),
                    "w2": pa.array([], type=pa.string()),
                    "score_micro": pa.array([], type=pa.int64()),
                }
            )
        prefix = df.groupby("w1")["n"].transform("sum").to_numpy(dtype="float64")
        return pd.DataFrame(
            {
                "w1": df["w1"].to_numpy(),
                "w2": df["w2"].to_numpy(),
                "score_micro": round_half_away(
                    1e6 * np.log(df["n"].to_numpy(dtype="float64") / prefix)
                ).astype("int64"),
            }
        )

    scores = totals.repartition(npart, keys=["w1"]).map_batches(
        cond_logp, batch_format="pandas", batch_size=None
    )

    def _empty_bigrams():
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "w1": pa.array([], type=pa.string()),
                "w2": pa.array([], type=pa.string()),
                "tf": pa.array([], type=pa.int64()),
            }
        )

    def doc_bigram_tf(batch: pd.DataFrame):
        if batch.empty:
            return _empty_bigrams()
        tok = re.compile(TOKEN_RE)
        ids: list[int] = []
        w1s: list[str] = []
        w2s: list[str] = []
        tfs: list[int] = []
        for d, t in zip(batch["doc_id"], batch["text"]):
            found = tok.findall(t.lower())
            if len(found) < 2:
                continue
            counts: dict[tuple[str, str], int] = {}
            for pair in zip(found, found[1:]):
                counts[pair] = counts.get(pair, 0) + 1
            ids.extend([int(d)] * len(counts))
            w1s.extend(p[0] for p in counts)
            w2s.extend(p[1] for p in counts)
            tfs.extend(counts.values())
        if not ids:
            # All docs < 2 tokens: a zero-row object-dtype w1/w2 would
            # break Ray's block size estimator (see CLAUDE.md).
            return _empty_bigrams()
        return pd.DataFrame(
            {
                "doc_id": np.asarray(ids, dtype="int64"),
                "w1": w1s,
                "w2": w2s,
                "tf": np.asarray(tfs, dtype="int64"),
            }
        )

    doc_terms = read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        doc_bigram_tf, batch_format="pandas"
    )
    out = _doc_score_cogroup(doc_terms, scores, ["w1", "w2"], npart)
    return out.map_batches(
        lambda df: df.rename(
            columns={"n_part": "n_bigrams", "sum_part": "sum_logp_micro"}
        ),
        batch_format="pandas",
    )


def _doc_term_tf(batch: pd.DataFrame):
    """Per-(doc, term) term frequency; docs never span batches, so this
    is exact without any shuffle."""
    if batch.empty:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "term": pa.array([], type=pa.string()),
                "tf": pa.array([], type=pa.int64()),
            }
        )
    doc_ids: list[int] = []
    terms: list[str] = []
    tfs: list[int] = []
    for doc_id, text in zip(batch["doc_id"], batch["text"]):
        counts = _count_tokens([text])
        doc_ids.extend([doc_id] * len(counts))
        terms.extend(counts.keys())
        tfs.extend(counts.values())
    return pd.DataFrame(
        {
            "doc_id": np.asarray(doc_ids, dtype="int64"),
            "term": terms,
            "tf": np.asarray(tfs, dtype="int64"),
        }
    )


def document_frequency(sf_dir: str) -> rd.Dataset:
    """df(term) = number of documents containing the term. Tree-reduced
    (bounded vocabulary), same as `vocab_top_terms`."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return _counts_frame(
            _count_tokens(batch["text"], per_doc_unique=True), "term", "df"
        )

    return tree_sum(
        read_documents(sf_dir, ["text"]).map_batches(partial, batch_format="pandas"),
        ["term"],
        ["df"],
    )


def _tfidf_empty():
    return pa.table(
        {
            "doc_id": pa.array([], type=pa.int64()),
            "term": pa.array([], type=pa.string()),
            "tf": pa.array([], type=pa.int64()),
            "df": pa.array([], type=pa.int64()),
            "rank": pa.array([], type=pa.int64()),
        }
    )


def _tfidf_rank(tf: pd.DataFrame, k: int):
    """Shared (tf desc, df asc, term asc) per-doc top-k rank kernel for
    both tfidf strategies — one ordering definition, zero drift."""
    if tf.empty:
        return _tfidf_empty()
    tf = tf.sort_values(
        ["doc_id", "tf", "df", "term"],
        ascending=[True, False, True, True],
        kind="stable",
    )
    tf["rank"] = tf.groupby("doc_id").cumcount().astype("int64") + 1
    return tf[tf["rank"] <= k].reset_index(drop=True)


def tfidf_top_terms(
    sf_dir: str,
    k: int = 3,
    broadcast_limit_bytes: int = VOCAB_BROADCAST_LIMIT_BYTES,
) -> rd.Dataset:
    """Top-k distinctive terms per document, ranked by (tf desc,
    df asc, term asc) — a TF-IDF ordering kept in exact integers so it
    hashes bit-identically against the SQL oracle (float idf would
    differ in the last ulp between engines).

    The document-frequency table is computed distributed; strategy then
    follows its MEASURED size: under `broadcast_limit_bytes` it
    broadcasts ONCE via ray.put and every scoring task probes it (the
    canonical small-side broadcast, no shuffle); above it nothing
    vocab-sized touches the driver — per-doc (term, tf) rows cogroup
    with the df table on term, then one doc_id-keyed repartition
    co-locates each document for the same rank kernel. Both paths are
    exact and test-pinned equal (broadcast_limit_bytes=0 forces the
    cogroup)."""
    from ocrs_ray.pipeline import default_npart

    df_ds = document_frequency(sf_dir).materialize()

    if df_ds.size_bytes() <= broadcast_limit_bytes:
        df_table = df_ds.to_pandas()
        df_ref = ray.put(dict(zip(df_table["term"], df_table["df"].astype(int))))

        def scorer(batch: pd.DataFrame):
            tf = _doc_term_tf(batch)
            if not isinstance(tf, pd.DataFrame) or tf.empty:
                return _tfidf_empty()
            tf["df"] = tf["term"].map(worker_value(df_ref)).astype("int64")
            return _tfidf_rank(tf, k)

        return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
            scorer, batch_format="pandas"
        )

    # Distributed path: attach df via a term-keyed cogroup, then rank
    # inside a doc_id-keyed repartition.
    npart = default_npart()
    pairs = _tfidf_empty().drop_columns(["rank"])

    def attach(tf: pd.DataFrame, dfs: pd.DataFrame):
        m = tf.merge(dfs, on="term", how="inner")
        if m.empty:
            return pairs
        return m[pairs.column_names]

    def rank_block(df: pd.DataFrame):
        if df.empty:
            return _tfidf_empty()
        return _tfidf_rank(df[["doc_id", "term", "tf", "df"]].copy(), k)

    tf_rows = read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        _doc_term_tf, batch_format="pandas"
    )
    joined = cogroup(
        [
            (tf_rows, ["term"], pairs.select(["doc_id", "term", "tf"]).schema),
            (df_ds, ["term"], pairs.select(["term", "df"]).schema),
        ],
        attach,
        npart,
    )
    return joined.repartition(npart, keys=["doc_id"]).map_batches(
        rank_block, batch_format="pandas", batch_size=None
    )


# ---------------------------------------------------------------------------
# Grouped top-k / running windows / pivot
# ---------------------------------------------------------------------------


def events_topk_per_group(sf_dir: str, k: int = 3) -> rd.Dataset:
    """Top-k events by value within each event_type (ties:
    event_id ascending). Per-batch partial top-k (k rows per type per
    block) then one tiny single-block reduce — no global sort, no
    per-key shuffle of raw rows.
    """

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "event_type": pd.Series([], dtype="object"),
                    "event_id": pd.Series([], dtype="int64"),
                    "value_micro": pd.Series([], dtype="int64"),
                    "rank": pd.Series([], dtype="int64"),
                }
            )
        if "value_micro" not in df:
            df = df.assign(
                value_micro=round_half_away(df["value"].to_numpy() * MICRO).astype(
                    "int64"
                )
            )
        df = df.sort_values(
            ["event_type", "value_micro", "event_id"],
            ascending=[True, False, True],
            kind="stable",
        )
        df["rank"] = df.groupby("event_type").cumcount().astype("int64") + 1
        return df.loc[
            df["rank"] <= k, ["event_type", "event_id", "value_micro", "rank"]
        ].reset_index(drop=True)

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    ).map_batches(local_topk, batch_format="pandas")
    return ds.repartition(1).map_batches(
        local_topk, batch_format="pandas", batch_size=None
    )


def events_user_running_sum(sf_dir: str) -> rd.Dataset:
    """Per-user running total of value (ordered by ts, event_id) — the
    analytic-window `SUM ... OVER (PARTITION BY user ORDER BY ts)`.

    One hash shuffle co-locates each user's rows; the cumulative sum is
    then a fully vectorized per-block pandas pass.
    """
    from .relational import _partition_by_user

    def running(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "user_id": pd.Series([], dtype="int64"),
                    "ts_us": pd.Series([], dtype="int64"),
                    "cum_value_micro": pd.Series([], dtype="int64"),
                }
            )
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        micro = round_half_away(df["value"].to_numpy() * MICRO).astype("int64")
        cum = pd.Series(micro, index=df.index).groupby(df["user_id"]).cumsum()
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "user_id": df["user_id"].astype("int64"),
                "ts_us": df["ts"].astype("int64"),
                "cum_value_micro": cum.astype("int64"),
            }
        ).reset_index(drop=True)

    return _partition_by_user(sf_dir).map_batches(
        running, batch_format="pandas", batch_size=None
    )


def events_global_cumsum(sf_dir: str, n_buckets: int = 16) -> rd.Dataset:
    """GLOBAL ordered prefix scan: cumulative value total over the
    whole event ledger in event_id (arrival) order — `SUM(...) OVER
    (ORDER BY event_id)` with NO partition key, the one window shape a
    per-key shuffle cannot express. Classic two-phase distributed scan:

    Pass 1 streams associative (bucket, partial_sum) rows per read
    block — no shuffle; the collected partials are tiny (blocks x
    buckets) and reduce to n_buckets exclusive prefix offsets on the
    driver. Pass 2 repartitions once on the contiguous event_id bucket
    and finishes each bucket with a vectorized per-block sort + cumsum
    + broadcast offset. Bucket boundaries derive from max(event_id)
    (one pruned-column aggregate), so buckets are contiguous ranges
    regardless of id density; at 100 TB raise `n_buckets` with the
    partition budget — one bucket must fit a worker block. Values ride
    as round-half-away micro-units, bit-exact vs the SQL window.
    """
    from ocrs_ray.pipeline import default_npart

    npart = default_npart()
    max_id = int(
        read_table(f"{sf_dir}/events.parquet", columns=["event_id"]).max("event_id")
    )
    width = max(1, (max_id + n_buckets) // n_buckets)

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        vm = round_half_away(df["value"].to_numpy() * MICRO).astype("int64")
        g = pd.DataFrame(
            {
                "bucket": (df["event_id"].to_numpy() // width).astype("int64"),
                "vm": vm,
            }
        ).groupby("bucket", as_index=False)["vm"].sum()
        return g

    parts = (
        read_table(f"{sf_dir}/events.parquet", columns=["event_id", "value"])
        .map_batches(partials, batch_format="pandas")
        .to_pandas()
    )
    totals = parts.groupby("bucket")["vm"].sum().sort_index()
    prefix = {int(b): int(v) for b, v in totals.cumsum().shift(fill_value=0).items()}

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "bucket": (df["event_id"].to_numpy() // width).astype("int64"),
                "event_id": df["event_id"].to_numpy().astype("int64"),
                "vm": round_half_away(df["value"].to_numpy() * MICRO).astype(
                    "int64"
                ),
            }
        )

    def scan_block(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "cum_value_micro": pd.Series([], dtype="int64"),
                }
            )
        out = []
        # A hash partition may host several buckets; each bucket is
        # whole within its block, so the scan is exact per group.
        for b, g in df.groupby("bucket", sort=False):
            g = g.sort_values("event_id", kind="stable")
            cum = g["vm"].cumsum().to_numpy() + prefix.get(int(b), 0)
            out.append(
                pd.DataFrame(
                    {
                        "event_id": g["event_id"].to_numpy(),
                        "cum_value_micro": cum.astype("int64"),
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    ).map_batches(add_bucket, batch_format="pandas")
    return ds.repartition(npart, keys=["bucket"]).map_batches(
        scan_block, batch_format="pandas", batch_size=None
    )


def events_user_pivot(sf_dir: str) -> rd.Dataset:
    """Per-user event counts pivoted across the (closed) event-type set
    plus total value. Partial pivot per batch, then a keyed repartition
    co-locates each user's narrow partials and one vectorized per-block
    groupby-sum finishes — the same shuffle volume as a hash aggregate
    but without the aggregate-actor machinery (which costs seconds of
    fixed overhead on small partial sets).
    """
    cols = [f"n_{t}" for t in EVENT_TYPES]
    vals = cols + ["sum_value_micro"]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        micro = round_half_away(batch["value"].to_numpy() * MICRO).astype("int64")
        df = pd.DataFrame({"user_id": batch["user_id"], "value_micro": micro})
        for t, c in zip(EVENT_TYPES, cols):
            df[c] = (batch["event_type"] == t).astype("int64").to_numpy()
        agg = {c: (c, "sum") for c in cols}
        agg["sum_value_micro"] = ("value_micro", "sum")
        return df.groupby("user_id", as_index=False).agg(**agg)

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "value"]
    ).map_batches(partial, batch_format="pandas")
    return hash_sum(ds, ["user_id"], vals, 8)


# ---------------------------------------------------------------------------
# Heavy hitters
# ---------------------------------------------------------------------------


def heavy_hitters_exact(sf_dir: str, k: int = 20) -> rd.Dataset:
    """Exact top-k users by event count (ties: user_id ascending):
    per-batch combiner -> keyed repartition (each user's partials land
    in one block, so block top-k is globally valid) -> block merge+top-k
    -> final top-k on the <= 8k surviving rows."""
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("user_id", as_index=False).size()
        return pd.DataFrame(
            {"user_id": g["user_id"], "n": g["size"].astype("int64")}
        )

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["n", "user_id"], ascending=[False, True], kind="stable")
        return df.head(k)[["user_id", "n"]]

    def merge_topk(df: pd.DataFrame) -> pd.DataFrame:
        return local_topk(df.groupby("user_id", as_index=False)["n"].sum())

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id"]).map_batches(
        partial, batch_format="pandas"
    )
    return (
        ds.repartition(8, keys=["user_id"])
        .map_batches(merge_topk, batch_format="pandas", batch_size=None)
        .repartition(1)
        .map_batches(local_topk, batch_format="pandas", batch_size=None)
    )


def _mg_update(counters: dict[int, int], key: int, inc: int, capacity: int) -> None:
    if key in counters:
        counters[key] += inc
        return
    if len(counters) < capacity:
        counters[key] = inc
        return
    # Decrement-all step, vectorized over the deficit.
    dec = min(inc, min(counters.values()))
    remaining = inc - dec
    for c in list(counters):
        counters[c] -= dec
        if counters[c] <= 0:
            del counters[c]
    if remaining > 0:
        _mg_update(counters, key, remaining, capacity)


def _mg_summarize(batch: pd.DataFrame, capacity: int) -> pd.DataFrame:
    """Misra-Gries summary of one block: ≤ capacity (key, weight) rows
    whose weights underestimate true counts by at most n/capacity."""
    counters: dict[int, int] = {}
    g = batch.groupby("user_id").size() if "n" not in batch else None
    if g is not None:
        items = g.items()
    else:
        items = zip(batch["user_id"], batch["n"])
    for key, inc in items:
        _mg_update(counters, int(key), int(inc), capacity)
    return pd.DataFrame(
        {
            "user_id": np.fromiter(counters.keys(), dtype="int64", count=len(counters)),
            "n": np.fromiter(counters.values(), dtype="int64", count=len(counters)),
        }
    )


def heavy_hitters_sketch(sf_dir: str, k: int = 20, capacity: int = 256) -> rd.Dataset:
    """Misra-Gries heavy hitters (sketch): per-block MG summaries are
    themselves mergeable by MG, so the reduce ships ≤ capacity rows per
    block instead of the full key space. Counts are lower bounds with
    error ≤ total/capacity; a key is GUARANTEED to survive only when
    its true count exceeds total/capacity (the standard MG bound) — on
    near-uniform distributions tail keys of the true top-k can be
    evicted, which is the accepted trade-off of the sketch. Error
    bounds and the eviction path are pinned in tests.

    Not SQL-expressible (sketch semantics): rows-only for the driver.
    """

    def final(df: pd.DataFrame) -> pd.DataFrame:
        merged = _mg_summarize(df, capacity)
        merged = merged.sort_values(
            ["n", "user_id"], ascending=[False, True], kind="stable"
        )
        return merged.head(k).reset_index(drop=True)

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id"]).map_batches(
        _mg_summarize, fn_kwargs={"capacity": capacity}, batch_format="pandas"
    )
    return ds.repartition(1).map_batches(
        final, batch_format="pandas", batch_size=None
    )


# ---------------------------------------------------------------------------
# Stratified sampling
# ---------------------------------------------------------------------------

#: 1-in-N sampling rate per language stratum.
STRATA_RATES = {"en": 2, "de": 4, "fr": 4, "es": 8, "zh": 8}


def stratified_sample_documents(sf_dir: str) -> rd.Dataset:
    """Deterministic stratified sample: language stratum ``lang`` keeps
    docs where md5(doc_id) % rate == 0. Content-derived (not RNG), so
    the sample is identical across runs, partitionings, and engines —
    the property that makes sampling reproducible at 100 TB.
    """

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        from .sampling import md5_bucket

        rates = df["lang"].map(STRATA_RATES).fillna(1).astype("int64").to_numpy()
        return df.loc[md5_bucket(df["doc_id"]) % rates == 0, ["doc_id", "lang", "n_chars"]]

    return read_documents(sf_dir, ["doc_id", "lang", "n_chars"]).map_batches(
        keep, batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# Connected-components dedup clustering
# ---------------------------------------------------------------------------


def _star_round(df: pd.DataFrame, phase: str) -> pd.DataFrame:
    """One large-star or small-star round over an edge block grouped by
    node u (requires all edges of u co-located — guaranteed by the
    repartition on "u").

    large-star: emit (v, m) for v in N(u), v > u
    small-star: emit (v, m) for v in (N(u) ∪ {u}) \\ {m}, v <= u
    where m = min(N(u) ∪ {u}).  (Kiveris et al., SoCC'14.)
    """
    if df.empty:
        return pd.DataFrame(
            {"u": pd.Series([], dtype="int64"), "v": pd.Series([], dtype="int64")}
        )
    out_u: list[np.ndarray] = []
    out_v: list[np.ndarray] = []
    for u, grp in df.groupby("u", sort=False):
        nbrs = grp["v"].to_numpy()
        m = min(int(nbrs.min()), int(u))
        if phase == "large":
            sel = nbrs[nbrs > u]
        else:
            sel = nbrs[(nbrs <= u) & (nbrs != m)]
            if u != m:
                sel = np.append(sel, u)
        if len(sel):
            out_u.append(np.unique(sel))
            out_v.append(np.full(len(out_u[-1]), m, dtype="int64"))
    if not out_u:
        return pd.DataFrame(
            {"u": pd.Series([], dtype="int64"), "v": pd.Series([], dtype="int64")}
        )
    return pd.DataFrame(
        {
            "u": np.concatenate(out_u).astype("int64"),
            "v": np.concatenate(out_v).astype("int64"),
        }
    )


def _canonical_edges(df: pd.DataFrame) -> pd.DataFrame:
    """Dedup + drop self-loops + emit both directions for grouping."""
    a = df["u"].to_numpy(dtype="int64")
    b = df["v"].to_numpy(dtype="int64")
    keep = a != b
    a, b = a[keep], b[keep]
    hi = np.maximum(a, b)
    lo = np.minimum(a, b)
    uniq = np.unique(np.stack([hi, lo], axis=1), axis=0)
    return pd.DataFrame(
        {
            "u": np.concatenate([uniq[:, 0], uniq[:, 1]]),
            "v": np.concatenate([uniq[:, 1], uniq[:, 0]]),
        }
    )


def _union_find(u: np.ndarray, v: np.ndarray) -> dict[int, int]:
    """Min-root union-find over an edge list (path-halving)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = parent.setdefault(x, x)
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        # Path compression for x itself.
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    for a, b in zip(u.tolist(), v.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            hi, lo = (ra, rb) if ra > rb else (rb, ra)
            parent[hi] = lo
    return {n: find(n) for n in parent}


def _cc_converge(
    edges: rd.Dataset,
    partitions: int = 8,
    max_rounds: int = 64,
    local_threshold: int = 2_000_000,
) -> tuple[str, "pd.DataFrame | rd.Dataset | None"]:
    """Shared convergence core for `connected_components` /
    `cc_star_map`. Returns one of
      ("empty", None)            — no edges;
      ("local", DataFrame)       — small edge set, solved by one
                                   union-find pass: (node, root) rows;
      ("star", Dataset)          — converged directed star edges,
                                   materialized in the object store and
                                   NEVER pulled to the driver here.

    Hybrid, as production dedup pipelines do it: the near-dup edge set
    is orders of magnitude smaller than the corpus, so when it fits on
    one node (<= local_threshold edges after dedup) a single union-find
    pass finishes in one task — no iteration. Above the threshold it
    falls back to alternating large-star / small-star (Kiveris et al.,
    SoCC'14): each half-round is one hash-partition by "u" + per-block
    star rewrite — no joins, no global state, O(log n) rounds. The
    per-round driver check is a tiny edge-set checksum, not a data
    pull.
    """
    def _checksum_partial(df: pd.DataFrame) -> pd.DataFrame:
        # Order-independent per-block fingerprint of the directed edge
        # set: uint64 wraparound sum of a two-sided multiply mix. Each
        # block ships 16 bytes; the driver reduce is O(blocks).
        u = df["u"].to_numpy(dtype="uint64")
        v = df["v"].to_numpy(dtype="uint64")
        with np.errstate(over="ignore"):
            mix = (u * np.uint64(0x9E3779B97F4A7C15)) ^ (
                v * np.uint64(0xC2B2AE3D27D4EB4F)
            )
        return pd.DataFrame(
            {
                "sig": pd.Series([mix.sum(dtype=np.uint64)], dtype="uint64"),
                "n": pd.Series([len(df)], dtype="int64"),
            }
        )

    def checksum(ds: rd.Dataset) -> tuple[int, int]:
        """Distributed edge-set fingerprint: per-block partials + a tiny
        driver reduce — the convergence check never pulls edges."""
        parts = ds.map_batches(
            _checksum_partial, batch_format="pandas", batch_size=None
        ).to_pandas()
        sig = int(parts["sig"].to_numpy(dtype="uint64").sum(dtype=np.uint64))
        return sig, int(parts["n"].sum())

    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    cur = edges.map_batches(_canonical_edges, batch_format="pandas").materialize()
    # count() is directed (both directions emitted): 2x undirected edges.
    if cur.count() <= 2 * local_threshold:
        tbl = cur.to_pandas()
        if tbl.empty:
            return ("empty", None)
        # _canonical_edges emits both directions; u > v rows carry each
        # undirected edge exactly once.
        sel = tbl["u"].to_numpy() > tbl["v"].to_numpy()
        mapping = _union_find(
            tbl["u"].to_numpy(dtype="int64")[sel], tbl["v"].to_numpy(dtype="int64")[sel]
        )
        return (
            "local",
            pd.DataFrame(
                {
                    "node": np.fromiter(mapping.keys(), dtype="int64", count=len(mapping)),
                    "root": np.fromiter(mapping.values(), dtype="int64", count=len(mapping)),
                }
            ),
        )
    prev_sig = None
    for _ in range(max_rounds):
        for phase in ("large", "small"):
            cur = (
                cur.repartition(partitions, keys=["u"])
                .map_batches(
                    _star_round,
                    fn_kwargs={"phase": phase},
                    batch_format="pandas",
                    batch_size=None,
                )
                .map_batches(_canonical_edges, batch_format="pandas", batch_size=None)
            )
        # Materialize the (shrinking) edge set once per round — in the
        # OBJECT STORE, distributed — so the convergence check and the
        # next round share one execution. The only driver traffic per
        # round is the per-block checksum partials.
        cur = cur.materialize()
        sig = checksum(cur)
        if sig[1] == 0:
            return ("empty", None)
        if sig == prev_sig:
            break
        prev_sig = sig
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_rounds} rounds "
            f"({prev_sig[1] if prev_sig else '?'} directed edges remaining)"
        )
    return ("star", cur)


_STAR_SCHEMA = pa.schema([("node", pa.int64()), ("root", pa.int64())])


def _empty_star() -> pd.DataFrame:
    return _STAR_SCHEMA.empty_table().to_pandas()


def cc_star_map(
    edges: rd.Dataset,
    partitions: int = 8,
    max_rounds: int = 64,
    local_threshold: int = 2_000_000,
) -> rd.Dataset:
    """Connected components over an edge Dataset (u:int64, v:int64),
    returned as a materialized (node, root) star-map DATASET — one row
    per node incident to an edge, root = component min; roots map to
    themselves. Unlike `connected_components` (the dict form) nothing
    corpus-scale ever touches the driver: on the distributed path the
    converged star edges collapse to (node, min root) via one keyed
    repartition, and the root self-rows ride the same shuffle."""
    mode, payload = _cc_converge(edges, partitions, max_rounds, local_threshold)
    if mode == "empty":
        return rd.from_pandas(_empty_star())
    if mode == "local":
        return rd.from_pandas(payload)

    def star_rows(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return _empty_star()
        hi = np.maximum(df["u"].to_numpy(), df["v"].to_numpy()).astype("int64")
        lo = np.minimum(df["u"].to_numpy(), df["v"].to_numpy()).astype("int64")
        # Converged star edges point node -> component min directly, so
        # roots never appear on the hi side: (lo, lo) self-rows cannot
        # collide with a different root for lo. Emit both and min-reduce.
        out = pd.DataFrame(
            {
                "node": np.concatenate([hi, lo]),
                "root": np.concatenate([lo, lo]),
            }
        )
        return out.drop_duplicates(["node", "root"])

    rows = payload.map_batches(star_rows, batch_format="pandas")
    return hash_sum(rows, ["node"], ["root"], partitions, agg="min").materialize()


def connected_components(
    edges: rd.Dataset,
    partitions: int = 8,
    max_rounds: int = 64,
    local_threshold: int = 2_000_000,
) -> dict[int, int]:
    """Connected components over an edge Dataset with columns
    (u:int64, v:int64). Returns {node: component_min} for every node
    incident to an edge (singletons are their own component and never
    enter the edge set).

    This is the DICT form — it pulls the star map to the driver and is
    bounded by the dup-component node count. Scale-sensitive callers
    (`_cluster_assign` and friends) use `cc_star_map` + a measured-size
    strategy so the pull only happens when the map is provably small.
    """
    mode, payload = _cc_converge(edges, partitions, max_rounds, local_threshold)
    if mode == "empty":
        return {}
    if mode == "local":
        return dict(zip(payload["node"].tolist(), payload["root"].tolist()))
    tbl = payload.to_pandas()
    hi = np.maximum(tbl["u"].to_numpy(), tbl["v"].to_numpy())
    lo = np.minimum(tbl["u"].to_numpy(), tbl["v"].to_numpy())
    mapping: dict[int, int] = {}
    for node, root in zip(hi.tolist(), lo.tolist()):
        mapping[node] = min(root, mapping.get(node, root))
    # Roots map to themselves.
    for root in set(mapping.values()):
        mapping.setdefault(root, root)
    return mapping


def _sorted_star_arrays(star: rd.Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Pull a (node, root) star-map Dataset into sorted parallel numpy
    arrays for the broadcast relabel path. Caller has already verified
    the map is under the broadcast byte limit."""
    tbl = star.to_pandas()
    if tbl.empty:
        return np.empty(0, dtype="int64"), np.empty(0, dtype="int64")
    nodes = tbl["node"].to_numpy(dtype="int64")
    roots = tbl["root"].to_numpy(dtype="int64")
    order = np.argsort(nodes, kind="stable")
    return nodes[order], roots[order]


def _relabel_cogroup(
    ids: rd.Dataset,
    star: rd.Dataset,
    id_col: str,
    npart: int | None = None,
) -> rd.Dataset:
    """Distributed relabel: ids cogroup with star rows on the id
    (`session.cogroup`, one id-keyed exchange); each co-located
    partition resolves its ids against its star rows vectorized. Not a
    native join: the star side is exactly the shape that crashes Ray
    2.49's join (CLAUDE.md) — few dup-component rows over many
    blocks."""
    from ocrs_ray.pipeline import default_npart

    if npart is None:
        npart = default_npart()

    def resolve(id_rows: pd.DataFrame, stars: pd.DataFrame) -> pd.DataFrame:
        # Map each star row's key -> root via the sorted-probe kernel;
        # ids with no star row keep themselves.
        s_keys = stars["node"].to_numpy(dtype="int64")
        order = np.argsort(s_keys, kind="stable")
        s_keys = s_keys[order]
        s_roots = stars["root"].to_numpy(dtype="int64")[order]
        out_ids = id_rows[id_col].to_numpy(dtype="int64")
        out = out_ids.copy()
        if len(s_keys):
            pos = np.searchsorted(s_keys, out_ids)
            pos[pos == len(s_keys)] = 0
            hit = s_keys[pos] == out_ids
            out[hit] = s_roots[pos[hit]]
        return pd.DataFrame({id_col: out_ids, "cluster_id": out})

    return cogroup(
        [
            (ids, [id_col], pa.schema([(id_col, pa.int64())])),
            (star, ["node"], _STAR_SCHEMA),
        ],
        resolve,
        npart,
    )


#: Broadcast the star map as a dict only below this measured size; above
#: it the relabel runs as a distributed cogroup. At a realistic 30-50%
#: web dup rate the map is O(corpus), so the fallback is the 100-TB path.
STAR_BROADCAST_LIMIT_BYTES = 64 << 20


def _cluster_assign(
    pairs: rd.Dataset,
    ids: rd.Dataset,
    id_col: str,
    broadcast_limit_bytes: int = STAR_BROADCAST_LIMIT_BYTES,
) -> rd.Dataset:
    """CC over `pairs` (u, v), then relabel every row of `ids` with its
    component min (singletons label themselves). Measured-size strategy
    on the star map (the autoBroadcastJoinThreshold move): under
    `broadcast_limit_bytes` it broadcasts once via ray.put into a
    vectorized searchsorted probe (no shuffle over the corpus); above
    it, the relabel is a `session.cogroup` — one id-keyed shuffle,
    nothing dup-count-sized on the driver. Both paths are exact and
    test-pinned equal (broadcast_limit_bytes=0 forces the cogroup)."""
    star = cc_star_map(pairs)
    if star.size_bytes() <= broadcast_limit_bytes:
        map_ref = ray.put(_sorted_star_arrays(star))

        def relabel(df: pd.DataFrame) -> pd.DataFrame:
            # Rows keep their own id as the label when absent from the
            # map (singleton components). The map ships as two sorted
            # parallel arrays and probes via searchsorted: this stage
            # runs over EVERY corpus row in the cluster/survivor
            # pipelines, so a per-row dict lookup here would be the
            # hot-loop Python the rest of the repo avoids.
            nodes, roots = worker_value(map_ref)
            ids = df[id_col].to_numpy(dtype="int64")
            out = ids.copy()
            if len(nodes):
                pos = np.searchsorted(nodes, ids)
                pos[pos == len(nodes)] = 0
                hit = nodes[pos] == ids
                out[hit] = roots[pos[hit]]
            return pd.DataFrame({id_col: ids, "cluster_id": out})

        return ids.map_batches(relabel, batch_format="pandas")
    return _relabel_cogroup(ids, star, id_col)


def dedup_clusters(
    sf_dir: str,
    threshold: float = 0.8,
    broadcast_limit_bytes: int = STAR_BROADCAST_LIMIT_BYTES,
) -> rd.Dataset:
    """Near-duplicate cluster assignment: every document labeled with
    the min doc_id of its connected component in the n-gram-Jaccard
    similarity graph (exact edges from `ngram_jaccard_pairs`).

    Edge generation and component contraction are distributed; the
    relabel pass over the full corpus picks its strategy from the
    MEASURED star-map size (broadcast probe under the limit,
    cogroup above — see `_cluster_assign`); singletons label themselves
    either way without an extra shuffle."""
    from .dedup import ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(sf_dir, threshold=threshold).map_batches(
        lambda df: df.rename(columns={"doc_a": "u", "doc_b": "v"}),
        batch_format="pandas",
    )
    return _cluster_assign(
        pairs,
        read_documents(sf_dir, ["doc_id"]),
        "doc_id",
        broadcast_limit_bytes=broadcast_limit_bytes,
    )


def neardup_survivors(
    sf_dir: str,
    threshold: float = 0.8,
    broadcast_limit_bytes: int = STAR_BROADCAST_LIMIT_BYTES,
) -> rd.Dataset:
    """Near-dup-filtered corpus: one representative per connected
    component of the n-gram-Jaccard graph — the apply-side of
    `dedup_clusters`. The min-label convention makes the root itself
    the keeper, so survivors are exactly the rows where
    doc_id == cluster_id: a streaming filter over the relabel pass,
    adding no shuffle beyond what the cluster assignment already does
    (singletons keep themselves without ever leaving their block).
    """

    def roots(df: pd.DataFrame) -> pd.DataFrame:
        return df.loc[df["doc_id"] == df["cluster_id"], ["doc_id"]]

    return dedup_clusters(
        sf_dir, threshold=threshold, broadcast_limit_bytes=broadcast_limit_bytes
    ).map_batches(roots, batch_format="pandas")


_MEMBER_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("cluster_id", pa.int64()), ("win", pa.int64())]
)


def _pick_winners(members: rd.Dataset, npart: int) -> rd.Dataset:
    """(doc_id, root, n_chars) member rows -> (doc_id, cluster_id, win)
    with exactly one win=1 row per component (n_chars desc, doc_id asc),
    via one root-keyed repartition + a per-block vectorized rank."""
    def rank(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return _MEMBER_SCHEMA.empty_table()
        df = df.sort_values(
            ["root", "n_chars", "doc_id"], ascending=[True, False, True],
            kind="stable",
        )
        win = (df.groupby("root").cumcount() == 0).to_numpy().astype("int64")
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(dtype="int64"),
                "cluster_id": df["root"].to_numpy(dtype="int64"),
                "win": win,
            }
        )

    return members.repartition(npart, keys=["root"]).map_batches(
        rank, batch_format="pandas", batch_size=None
    )


def neardup_best_survivors(
    sf_dir: str,
    threshold: float = 0.8,
    broadcast_limit_bytes: int = STAR_BROADCAST_LIMIT_BYTES,
) -> rd.Dataset:
    """Quality-ranked near-dup survivor selection: one representative
    per connected component of the n-gram-Jaccard graph, keeping the
    LONGEST member (n_chars desc, doc_id asc tie-break) instead of the
    min-id root — the production dedup policy (keep the best copy, not
    an arbitrary one). Emits (doc_id, cluster_id) for every survivor;
    singletons keep themselves with cluster_id = doc_id.

    Scale shape: component contraction is the hybrid distributed CC;
    the winner pick needs quality only for docs INSIDE dup components —
    the star map's own node set. Measured-size strategy on that map:
    under `broadcast_limit_bytes` the members are pushdown-read
    (doc_id isin) and ranked in one bounded driver pass, and the corpus
    streams through a vectorized broadcast filter; above it everything
    is cogroups — members resolve via a Bloom-pruned doc_id cogroup
    with the star map, winners rank per root-keyed block, and the
    corpus labels through one id-keyed cogroup. Both paths
    are exact and test-pinned equal (broadcast_limit_bytes=0 forces the
    distributed one)."""
    import pyarrow.dataset as pads

    from .dedup import ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(sf_dir, threshold=threshold).map_batches(
        lambda df: df.rename(columns={"doc_a": "u", "doc_b": "v"}),
        batch_format="pandas",
    )
    star = cc_star_map(pairs)

    if star.size_bytes() <= broadcast_limit_bytes:
        tbl = star.to_pandas()
        winner_doc = np.empty(0, dtype="int64")
        winner_root = np.empty(0, dtype="int64")
        losers = np.empty(0, dtype="int64")
        if not tbl.empty:
            members = (
                read_table(
                    f"{sf_dir}/documents.parquet",
                    columns=["doc_id", "n_chars"],
                    filter=pads.field("doc_id").isin(
                        sorted(tbl["node"].tolist())
                    ),
                )
                .to_pandas()
                .astype({"doc_id": "int64", "n_chars": "int64"})
            )
            roots = dict(zip(tbl["node"].tolist(), tbl["root"].tolist()))
            members["cluster_id"] = members["doc_id"].map(roots).astype("int64")
            members = members.sort_values(
                ["cluster_id", "n_chars", "doc_id"], ascending=[True, False, True]
            )
            best = members.groupby("cluster_id", as_index=False).head(1)
            winner_doc = best["doc_id"].to_numpy(dtype="int64")
            winner_root = best["cluster_id"].to_numpy(dtype="int64")
            order = np.argsort(winner_doc, kind="stable")
            winner_doc, winner_root = winner_doc[order], winner_root[order]
            losers = np.sort(
                np.setdiff1d(
                    members["doc_id"].to_numpy(dtype="int64"), winner_doc
                )
            )
        ref = ray.put((losers, winner_doc, winner_root))

        def keep_best(df: pd.DataFrame) -> pd.DataFrame:
            losers, wdoc, wroot = worker_value(ref)
            ids = df["doc_id"].to_numpy(dtype="int64")
            if len(losers):
                pos = np.searchsorted(losers, ids)
                pos[pos == len(losers)] = 0
                ids = ids[losers[pos] != ids]
            out = ids.copy()
            if len(wdoc):
                pos = np.searchsorted(wdoc, ids)
                pos[pos == len(wdoc)] = 0
                hit = wdoc[pos] == ids
                out[hit] = wroot[pos[hit]]
            return pd.DataFrame({"doc_id": ids, "cluster_id": out})

        return read_documents(sf_dir, ["doc_id"]).map_batches(
            keep_best, batch_format="pandas"
        )

    # Distributed path: nothing dup-count-sized on the driver.
    from ocrs_ray.pipeline import default_npart

    from .sketch import build_bloom

    npart = default_npart()

    # Size the Bloom from the MEASURED star cardinality (~10 bits/key
    # -> ~1% fp at k=5); a fixed size saturates at exactly the scale
    # that activates this path. Capped at 2^30 bits (128 MiB broadcast)
    # — beyond ~100M dup-component members the filter just gets less
    # selective; the doc_id cogroup below stays exact regardless.
    n_keys = max(1, star.count())
    n_bits = 1 << min(30, max(22, int(np.ceil(np.log2(10 * n_keys)))))
    bloom_ref = ray.put(
        build_bloom(
            star.map_batches(
                lambda df: pd.DataFrame({"doc_id": df["node"]}),
                batch_format="pandas",
            ),
            "doc_id",
            n_bits,
        )
    )

    def bloom_probe(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df
        keep = worker_value(bloom_ref).contains(df["doc_id"].to_numpy(dtype="int64"))
        return df.loc[keep]

    cand = read_documents(sf_dir, ["doc_id", "n_chars"]).map_batches(
        bloom_probe, batch_format="pandas"
    )

    # Cogroup candidate quality rows with star rows on doc_id: drops
    # Bloom false positives and attaches each member's root.
    def resolve_members(quals: pd.DataFrame, stars: pd.DataFrame) -> pd.DataFrame:
        m = quals.merge(stars, left_on="doc_id", right_on="node", how="inner")
        return m[["doc_id", "root", "n_chars"]]

    members = cogroup(
        [
            (
                cand,
                ["doc_id"],
                pa.schema([("doc_id", pa.int64()), ("n_chars", pa.int64())]),
            ),
            (star, ["node"], _STAR_SCHEMA),
        ],
        resolve_members,
        npart,
    )
    winners = _pick_winners(members, npart)

    # Label the corpus: one id-keyed cogroup — winners keep their
    # component root, losers drop, non-members keep themselves.
    def finish(corpus: pd.DataFrame, member: pd.DataFrame) -> pd.DataFrame:
        m = corpus.merge(member, on="doc_id", how="left")
        keep = m["win"].isna() | (m["win"] == 1)
        m = m.loc[keep]
        ids = m["doc_id"].to_numpy(dtype="int64")
        cluster = m["cluster_id"].to_numpy()
        cluster = np.where(np.isnan(cluster), ids, cluster).astype("int64")
        return pd.DataFrame({"doc_id": ids, "cluster_id": cluster})

    return cogroup(
        [
            (
                read_documents(sf_dir, ["doc_id"]),
                ["doc_id"],
                pa.schema([("doc_id", pa.int64())]),
            ),
            (winners, ["doc_id"], _MEMBER_SCHEMA),
        ],
        finish,
        npart,
    )


def substring_dup_clusters(
    sf_dir: str,
    k: int = 32,
    stride: int = 8,
    min_shared: int = 2,
    broadcast_limit_bytes: int = STAR_BROADCAST_LIMIT_BYTES,
) -> rd.Dataset:
    """Cluster assignment over the repeated-substring graph: documents
    sharing >= `min_shared` exact k-char gram occurrence-pairs
    (`dedup.repeated_substring_pairs`) are connected; every doc labels
    with its component's min doc_id. The boilerplate/template-copy
    companion to the token-level `dedup_clusters` — substring overlap
    catches partial copies n-gram Jaccard dilutes away. Same hybrid CC
    + broadcast-relabel shape; singletons never shuffle."""
    from .dedup import repeated_substring_pairs

    def edges(df: pd.DataFrame) -> pd.DataFrame:
        keep = df.loc[df["n_shared_grams"] >= min_shared, ["doc_a", "doc_b"]]
        return keep.rename(columns={"doc_a": "u", "doc_b": "v"})

    pairs = repeated_substring_pairs(sf_dir, k=k, stride=stride).map_batches(
        edges, batch_format="pandas"
    )
    return _cluster_assign(
        pairs,
        read_documents(sf_dir, ["doc_id"]),
        "doc_id",
        broadcast_limit_bytes=broadcast_limit_bytes,
    )


def embedding_clusters(
    sf_dir: str,
    threshold: float = 0.4,
    broadcast_limit_bytes: int = STAR_BROADCAST_LIMIT_BYTES,
) -> rd.Dataset:
    """Cluster assignment over the embedding near-duplicate graph:
    every vector labeled with the min vec_id of its connected component
    under cosine-similarity >= threshold (exact edges from
    `embedding_neardup_pairs`). Same hybrid CC + broadcast-relabel
    shape as `dedup_clusters`, over a different modality."""
    from .dedup import embedding_neardup_pairs

    pairs = embedding_neardup_pairs(sf_dir, threshold=threshold).map_batches(
        lambda df: df.rename(columns={"vec_a": "u", "vec_b": "v"}),
        batch_format="pandas",
    )
    ids = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id"])
    return _cluster_assign(
        pairs, ids, "vec_id", broadcast_limit_bytes=broadcast_limit_bytes
    )


def embedding_cluster_survivors(
    sf_dir: str,
    threshold: float = 0.4,
    broadcast_limit_bytes: int = STAR_BROADCAST_LIMIT_BYTES,
) -> rd.Dataset:
    """SemDeDup-style semantic dedup apply-side (Abbas et al. 2023):
    one representative vector per connected component of the
    cosine-similarity graph — the embedding-space mirror of
    `neardup_survivors`. Min-label roots keep themselves, so survivors
    are a streaming filter over the cluster relabel pass; singletons
    never shuffle."""

    def roots(df: pd.DataFrame) -> pd.DataFrame:
        return df.loc[df["vec_id"] == df["cluster_id"], ["vec_id"]]

    return embedding_clusters(
        sf_dir, threshold=threshold, broadcast_limit_bytes=broadcast_limit_bytes
    ).map_batches(roots, batch_format="pandas")


def events_user_lag_diff(sf_dir: str) -> rd.Dataset:
    """Per-user deltas between consecutive events (the LAG window
    function): time since previous event and value change. Same
    one-shuffle-then-vectorized shape as `events_user_running_sum`;
    each user's first event has no predecessor and is omitted (matches
    the SQL oracle's WHERE lag IS NOT NULL)."""
    from .relational import _partition_by_user

    def lag(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "user_id": pd.Series([], dtype="int64"),
                    "dt_us": pd.Series([], dtype="int64"),
                    "dvalue_micro": pd.Series([], dtype="int64"),
                }
            )
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        same_user = df["user_id"].eq(df["user_id"].shift())
        ts_us = df["ts"].astype("int64")
        micro = pd.Series(
            round_half_away(df["value"].to_numpy() * MICRO).astype("int64"),
            index=df.index,
        )
        out = pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "user_id": df["user_id"].astype("int64"),
                "dt_us": ts_us - ts_us.shift(),
                "dvalue_micro": micro - micro.shift(),
            }
        )
        return out.loc[same_user].astype(
            {"dt_us": "int64", "dvalue_micro": "int64"}
        ).reset_index(drop=True)

    return _partition_by_user(sf_dir).map_batches(
        lag, batch_format="pandas", batch_size=None
    )


def docs_length_histogram(sf_dir: str, bucket: int = 100) -> rd.Dataset:
    """Histogram of document lengths in `bucket`-char bins. Bounded key
    space (max_len/bucket bins) -> tree-reduced like the vocabulary."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        bins = (batch["n_chars"] // bucket * bucket).astype("int64")
        g = bins.value_counts().sort_index()
        return pd.DataFrame(
            {"bucket_start": g.index.to_numpy(), "n_docs": g.to_numpy().astype("int64")}
        )

    return tree_sum(
        read_documents(sf_dir, ["n_chars"]).map_batches(partial, batch_format="pandas"),
        ["bucket_start"],
        ["n_docs"],
    )


def docs_global_length_rank(sf_dir: str) -> rd.Dataset:
    """Global BY-VALUE row numbering — `ROW_NUMBER() OVER (ORDER BY
    n_chars DESC, doc_id ASC)` with no partition key, the curriculum-
    ordering primitive (rank the whole corpus by a quality/length
    signal without ever running a global sort).

    Terasort-style decomposition: the value histogram is a bounded-key
    tree reduce (one streaming pass, no shuffle); the driver turns it
    into exclusive prefix offsets per distinct length (descending);
    one keyed repartition on n_chars co-locates each value class,
    whose members rank locally by doc_id plus the broadcast offset.
    Contrast `docs_shuffle_rank` (hash-ranked for unbiased splits) —
    this one orders by the VALUE. With real-valued scores the same
    shape works over histogram buckets with a per-bucket local sort.
    """
    from ocrs_ray.pipeline import default_npart

    npart = default_npart()

    def count_partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch["n_chars"].value_counts().sort_index()
        return pd.DataFrame(
            {
                "n_chars": g.index.to_numpy().astype("int64"),
                "n_docs": g.to_numpy().astype("int64"),
            }
        )

    counts = (
        tree_sum(
            read_documents(sf_dir, ["n_chars"]).map_batches(
                count_partial, batch_format="pandas"
            ),
            ["n_chars"],
            ["n_docs"],
        )
        .to_pandas()
        .sort_values("n_chars", ascending=False)
    )
    n_below = counts["n_docs"].cumsum().shift(fill_value=0)
    offsets = {
        int(v): int(o) for v, o in zip(counts["n_chars"], n_below)
    }

    def rank_block(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "length_rank": pd.Series([], dtype="int64"),
                }
            )
        out = []
        for v, g in df.groupby("n_chars", sort=False):
            ids = np.sort(g["doc_id"].to_numpy())
            out.append(
                pd.DataFrame(
                    {
                        "doc_id": ids,
                        "length_rank": offsets[int(v)]
                        + np.arange(1, len(ids) + 1, dtype="int64"),
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    ds = read_documents(sf_dir, ["doc_id", "n_chars"])
    return ds.repartition(npart, keys=["n_chars"]).map_batches(
        rank_block, batch_format="pandas", batch_size=None
    )


def bm25_topk(
    sf_dir: str,
    query: str = "the quick brown fox",
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
) -> rd.Dataset:
    """BM25 top-k document retrieval for a free-text query.

    Corpus statistics (document frequency, doc count, average length)
    come from one distributed pass and broadcast with the tokenized
    query; scoring is then embarrassingly parallel per batch, and the
    global top-k reduces through the usual local-top-k pattern (k rows
    per block, no sort). Per-doc scores are pure functions of the doc
    and the broadcast stats, so results are identical across
    blockings/cluster sizes. Float scores -> rows-only for the driver;
    pinned against a local reference in tests.
    """
    tok = re.compile(TOKEN_RE)
    q_terms = sorted(set(tok.findall(query.lower())))

    def stats_partial(batch: pd.DataFrame) -> pd.DataFrame:
        # One pass: per-query-term df + doc count + char sum per block.
        # df is restricted to the query's terms, so the reduce payload
        # is len(q_terms)+2 numbers per block regardless of vocabulary.
        # Vectorized: a doc contains term t iff t occurs as a MAXIMAL
        # [a-z]+ run (TOKEN_RE token), i.e. bounded by non-letters —
        # one RE2 kernel pass per query term instead of Python-
        # tokenizing every document. Lowercasing stays Python
        # str.lower() for parity with the Score pass (pc.utf8_lower is
        # SIMPLE case mapping and diverges on e.g. U+0130).
        import pyarrow.compute as pc

        lower = pa.array(
            [t.lower() for t in batch["text"]], type=pa.string()
        )
        row = {}
        for t in q_terms:
            pat = f"(^|[^a-z]){re.escape(t)}([^a-z]|$)"
            hit = pc.match_substring_regex(lower, pat)
            row[f"df_{t}"] = [pc.sum(pc.cast(hit, pa.int64())).as_py() or 0]
        row["n"] = [len(batch)]
        row["chars"] = [int(batch["n_chars"].sum())]
        return pd.DataFrame(row)

    stats = (
        read_documents(sf_dir, ["text", "n_chars"])
        .map_batches(stats_partial, batch_format="pandas")
        .to_pandas()
        .sum()
    )
    n_docs = int(stats["n"])
    avg_len = stats["chars"] / max(n_docs, 1)
    # Robertson-Sparck Jones idf with 0.5 smoothing, floored at 0.
    idf = {
        t: max(
            0.0,
            np.log((n_docs - stats[f"df_{t}"] + 0.5) / (stats[f"df_{t}"] + 0.5)),
        )
        for t in q_terms
    }
    ref = ray.put((idf, avg_len, k1, b))

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        idf, avg_len, k1, b = worker_value(ref)
        tok = re.compile(TOKEN_RE)
        out_id, out_s = [], []
        for doc_id, text, n_chars in zip(
            batch["doc_id"], batch["text"], batch["n_chars"]
        ):
            counts: dict[str, int] = {}
            for t in tok.findall(text.lower()):
                if t in idf:
                    counts[t] = counts.get(t, 0) + 1
            if not counts:
                continue
            norm = k1 * (1 - b + b * n_chars / avg_len)
            # Sorted-term summation keeps the float total
            # bit-identical regardless of token order in the doc
            # (ties in the top-k then break deterministically).
            s = sum(
                idf[t] * counts[t] * (k1 + 1) / (counts[t] + norm)
                for t in sorted(counts)
            )
            out_id.append(doc_id)
            out_s.append(s)
        return pd.DataFrame(
            {
                "doc_id": np.asarray(out_id, dtype="int64"),
                "score": np.asarray(out_s, dtype="float64"),
            }
        )

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["score", "doc_id"], ascending=[False, True], kind="stable")
        return df.head(k)[["doc_id", "score"]]

    scored = read_documents(sf_dir, ["doc_id", "text", "n_chars"]).map_batches(
        score, batch_format="pandas"
    )
    return (
        scored.map_batches(local_topk, batch_format="pandas")
        .repartition(1)
        .map_batches(local_topk, batch_format="pandas", batch_size=None)
    )


def events_user_first_last(sf_dir: str) -> rd.Dataset:
    """Per-user arg-min/arg-max aggregate: first and last event id in
    (ts, event_id) order plus the event count — the FIRST/LAST (ordered
    aggregate, a.k.a. ARG_MIN/ARG_MAX) taxonomy entry. One user_id hash
    shuffle co-locates each user, then one vectorized per-block
    sort + groupby first/last; no aggregate-actor machinery."""
    from .relational import _partition_by_user

    def first_last(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    "first_event_id": pd.Series([], dtype="int64"),
                    "last_event_id": pd.Series([], dtype="int64"),
                    "n_events": pd.Series([], dtype="int64"),
                }
            )
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        g = df.groupby("user_id", as_index=False).agg(
            first_event_id=("event_id", "first"),
            last_event_id=("event_id", "last"),
            n_events=("event_id", "count"),
        )
        return g.astype(
            {
                "user_id": "int64",
                "first_event_id": "int64",
                "last_event_id": "int64",
                "n_events": "int64",
            }
        )

    return _partition_by_user(sf_dir).map_batches(
        first_last, batch_format="pandas", batch_size=None
    )


def events_user_moving_sum(sf_dir: str, preceding: int = 2) -> rd.Dataset:
    """Bounded ROWS-frame sliding window: SUM(value) OVER (PARTITION BY
    user ORDER BY ts, event_id ROWS BETWEEN `preceding` PRECEDING AND
    CURRENT ROW). Same one-shuffle-then-vectorized shape as the running
    sum; the frame sum composes `preceding` shifted columns masked at
    user boundaries — the loop is over the frame width (a constant),
    never over rows."""
    from .relational import _partition_by_user

    def moving(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "user_id": pd.Series([], dtype="int64"),
                    "ts_us": pd.Series([], dtype="int64"),
                    "mov_sum_micro": pd.Series([], dtype="int64"),
                }
            )
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable").reset_index(
            drop=True
        )
        micro = pd.Series(
            round_half_away(df["value"].to_numpy() * MICRO).astype("int64")
        )
        user = df["user_id"].reset_index(drop=True)
        total = micro.copy()
        for j in range(1, preceding + 1):
            same = user.eq(user.shift(j))
            total = total + micro.shift(j).where(same, 0).astype("int64")
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "user_id": user.astype("int64"),
                "ts_us": df["ts"].astype("int64"),
                "mov_sum_micro": total.astype("int64"),
            }
        )

    return _partition_by_user(sf_dir).map_batches(
        moving, batch_format="pandas", batch_size=None
    )


def distinct_user_event_types(sf_dir: str, partitions: int = 8) -> rd.Dataset:
    """SELECT DISTINCT (user_id, event_type) — the set-projection
    taxonomy entry. Per-batch local dedupe (combiner) shrinks the
    shuffle to unique pairs per block, a keyed repartition on user_id
    co-locates surviving duplicates, and one per-block dedupe
    finishes — no sort, no aggregate machinery. user_id is unbounded at
    corpus scale so the shuffle stays (a tree reduce would be wrong);
    the combiner bounds its volume at (types x users) per block."""
    def local_distinct(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates().reset_index(drop=True)

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    ).map_batches(local_distinct, batch_format="pandas")
    return ds.repartition(partitions, keys=["user_id"]).map_batches(
        local_distinct, batch_format="pandas", batch_size=None
    )


def source_distinct_shingles(
    sf_dir: str, k: int = 3, partitions: int | None = None
) -> rd.Dataset:
    """Exact distinct word-k-gram count per source via VALUE-SALTED
    two-phase aggregation — the explicit hot-key (skew) pattern.

    COUNT(DISTINCT x) GROUP BY key is not algebraic: a naive key
    shuffle ships every distinct (key, x) pair of a hot key to ONE
    worker (a source owning 60% of a crawl owns ~60% of the pairs —
    that partition's heap scales with the corpus). Salting by a hash
    of the VALUE instead (bucket = siphash(shingle) % B) makes buckets
    partition the shingle space: per-bucket distinct counts are
    disjoint and SUM exactly, so the hot group spreads evenly over
    all B partitions and per-task memory is bounded by |vocab|/B,
    independent of key skew. Contrast `distinct_user_event_types`,
    which keys the shuffle on the group key (right for unbounded,
    unskewed keys; wrong for a bounded hot key space).

    Scale shape: per-block local dedup (combiner: Arrow split ->
    zero-copy window joins -> hash-distinct, one siphash per distinct
    shingle) -> one bucket-keyed repartition of distinct (source,
    bucket, shingle) rows -> per-partition exact distinct counts ->
    tree-sum over the bounded source key space. Emits
    (source, n_distinct_shingles).
    """
    from ocrs_ray.pipeline import default_npart

    npart = partitions or default_npart()
    # Oversalt: B = 8 x partitions. Bucket values hash to partitions,
    # so B == npart leaves some partitions with 2 buckets and some
    # with 0 (measured 2x row imbalance); 8x buckets per partition
    # smooths the balls-in-bins variance to ~±20%.
    n_buckets = 8 * npart

    def _empty_pairs():
        return pa.table(
            {
                "source": pa.array([], type=pa.string()),
                "bucket": pa.array([], type=pa.int64()),
                "shingle": pa.array([], type=pa.string()),
            }
        )

    def local_shingles(batch):
        # Fully vectorized combiner: tokens are TOKEN_CLASS_RE runs,
        # i.e. whatever whitespace-split leaves non-empty, so Arrow's
        # split_pattern_regex + list_flatten does the tokenize; k-gram
        # windows are ZERO-COPY slices of the flat token array joined
        # element-wise, masked where a window crosses a doc boundary
        # (token j and j+k-1 belong to different parent docs).
        import pyarrow.compute as pc

        if batch.num_rows == 0:
            return _empty_pairs()
        text = pc.cast(batch.column("text"), pa.string())
        toks = pc.split_pattern_regex(text, r"[ \t\n\r\f\v]+")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        nonempty = pc.not_equal(flat, "")
        flat = pc.filter(flat, nonempty)
        parent = pc.filter(parent, nonempty)
        n = len(flat)
        if n < k:
            return _empty_pairs()
        n_win = n - k + 1
        doc_idx = parent.to_numpy()
        valid = doc_idx[:n_win] == doc_idx[k - 1 :]
        windows = [flat.slice(i, n_win) for i in range(k)]
        sh = pc.binary_join_element_wise(*windows, " ")
        mask = pa.array(valid)
        sh = pc.filter(sh, mask)
        if len(sh) == 0:
            return _empty_pairs()
        src = pc.take(
            pc.cast(batch.column("source"), pa.string()),
            pa.array(doc_idx[:n_win][valid]),
        )
        # Local distinct via one hash aggregation, then one
        # deterministic siphash per DISTINCT shingle (pandas
        # hash_array uses a fixed key — stable across processes, so
        # every replica of a shingle lands in the same bucket).
        ded = (
            pa.table({"source": src, "shingle": sh})
            .group_by(["source", "shingle"])
            .aggregate([])
        )
        sh_np = ded.column("shingle").to_pandas().to_numpy()
        bks = (pd.util.hash_array(sh_np) % n_buckets).astype("int64")
        return pa.table(
            {
                "source": ded.column("source"),
                "bucket": pa.array(bks),
                "shingle": ded.column("shingle"),
            }
        )

    def count_distinct(df: pd.DataFrame):
        if df.empty:
            return pa.table(
                {
                    "source": pa.array([], type=pa.string()),
                    "n_distinct_shingles": pa.array([], type=pa.int64()),
                }
            )
        d = df.drop_duplicates(["source", "shingle"])
        out = d.groupby("source", as_index=False).size()
        return pd.DataFrame(
            {
                "source": out["source"].to_numpy(),
                "n_distinct_shingles": out["size"].to_numpy(dtype="int64"),
            }
        )

    ds = read_documents(sf_dir, ["source", "text"]).map_batches(
        local_shingles, batch_format="pyarrow"
    )
    partials = ds.repartition(npart, keys=["bucket"]).map_batches(
        count_distinct, batch_format="pandas", batch_size=None
    )
    return tree_sum(partials, ["source"], ["n_distinct_shingles"])


def events_user_type_sequence(sf_dir: str) -> rd.Dataset:
    """Ordered string aggregation: per user, the comma-joined sequence
    of event types in (ts, event_id) order plus the event count — SQL's
    `string_agg(x, ',' ORDER BY ...)`, the behavioral-sequence-mining
    primitive (each user's row IS their clickstream).

    Scale shape: one user_id hash shuffle co-locates each user, then a
    vectorized per-block sort + groupby join. The per-user row grows
    with that user's event count — at 100 TB a pathological single user
    could exceed a block, so production would cap the sequence length
    (keep first N per user); uncapped here to stay oracle-exact.
    """
    from .relational import _partition_by_user

    def seq(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    "type_seq": pd.Series([], dtype="object"),
                    "n_events": pd.Series([], dtype="int64"),
                }
            )
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        g = df.groupby("user_id", as_index=False).agg(
            type_seq=("event_type", ",".join),
            n_events=("event_id", "count"),
        )
        return g.astype({"user_id": "int64", "n_events": "int64"})

    return _partition_by_user(sf_dir).map_batches(
        seq, batch_format="pandas", batch_size=None
    )


def events_user_top_type(sf_dir: str) -> rd.Dataset:
    """Grouped mode with deterministic tie-break: each user's most
    frequent event type (ties -> lexicographically smallest type) and
    its count — the `mode()` aggregate, which SQL engines disagree on
    for ties, pinned here to an exact total order.

    Scale shape: per-batch (user, type) count partials shrink the
    shuffle to one row per pair per batch; after the user_id keyed
    repartition a per-block merge + argmax is globally exact. The
    per-user state is bounded by the closed event-type vocabulary, so
    blocks never grow with a user's raw event count (contrast
    `events_user_type_sequence`).
    """
    from ocrs_ray.pipeline import default_npart

    npart = default_npart()

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.groupby(["user_id", "event_type"], as_index=False).size()
        out.columns = ["user_id", "event_type", "n"]
        return out

    def top1(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    "top_type": pd.Series([], dtype="object"),
                    "n": pd.Series([], dtype="int64"),
                }
            )
        g = df.groupby(["user_id", "event_type"], as_index=False)["n"].sum()
        g = g.sort_values(
            ["user_id", "n", "event_type"],
            ascending=[True, False, True],
            kind="stable",
        )
        out = g.drop_duplicates("user_id", keep="first").rename(
            columns={"event_type": "top_type"}
        )
        return out[["user_id", "top_type", "n"]].astype(
            {"user_id": "int64", "n": "int64"}
        )

    return (
        read_table(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])
        .map_batches(partial, batch_format="pandas")
        .repartition(npart, keys=["user_id"])
        .map_batches(top1, batch_format="pandas", batch_size=None)
    )


def docs_token_entropy(sf_dir: str) -> rd.Dataset:
    """Per-document Shannon token entropy in micro-nats plus the token
    count — the lexical-diversity quality axis: near-zero entropy marks
    one-word spam / boilerplate repetition, high entropy marks
    token-diverse text. Complements `lm_quality_score` (which measures
    typicality, not diversity) and `docs_repetition_stats` (n-gram
    level).

    Each distinct token contributes -p*ln(p) (p = c/n within the doc),
    micro-rounded per term BEFORE summing so the total is an
    order-independent integer; docs never span batches, so the whole
    computation is a stateless map — no shuffle at any scale. Docs with
    zero tokens emit no row (entropy undefined), matching the oracle's
    join over token rows. Same 1-ulp ln caveat as `lm_quality_score`.
    """

    def entropy(df: pd.DataFrame) -> pd.DataFrame:
        tok = re.compile(TOKEN_RE)
        ids: list[int] = []
        ns: list[int] = []
        ents: list[int] = []
        for d, t in zip(df["doc_id"], df["text"]):
            found = tok.findall(t.lower())
            if not found:
                continue
            n = len(found)
            c = np.fromiter(
                _count_tokens([t]).values(), dtype="float64"
            )
            p = c / n
            terms = round_half_away(-1e6 * p * np.log(p)).astype("int64")
            ids.append(int(d))
            ns.append(n)
            ents.append(int(terms.sum()))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_tokens": pd.Series(ns, dtype="int64"),
                "entropy_micro": pd.Series(ents, dtype="int64"),
            }
        )

    return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        entropy, batch_format="pandas"
    )


def _ntile_buckets(i: np.ndarray, cnt: np.ndarray, n: int) -> np.ndarray:
    """SQL NTILE bucket (1-based) for 0-based row index `i` within a
    partition of `cnt` rows: the first (cnt % n) buckets hold
    ceil(cnt/n) rows, the rest floor(cnt/n). Pure arithmetic so the
    cnt < n edge (some buckets empty) is unit-testable without Ray."""
    big, rem = cnt // n, cnt % n
    cut = rem * (big + 1)
    return (
        np.where(
            i < cut,
            i // (big + 1),
            rem + (i - cut) // np.maximum(big, 1),
        )
        + 1
    ).astype("int64")


def events_user_ntile(sf_dir: str, n: int = 4) -> rd.Dataset:
    """NTILE(n) window: each event's n-quantile bucket within its user's
    (ts, event_id) ordering — the per-entity phase bucketing used for
    early/late behavioral comparisons. SQL NTILE semantics exactly: the
    first (count % n) buckets get the extra row.

    Scale shape: one user_id keyed repartition co-locates each user,
    then the bucket index is pure vectorized arithmetic over the
    per-user cumcount — no per-row Python.
    """
    from .relational import _partition_by_user

    def ntile(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "user_id": pd.Series([], dtype="int64"),
                    "bucket": pd.Series([], dtype="int64"),
                }
            )
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        i = df.groupby("user_id").cumcount().to_numpy()
        cnt = df.groupby("user_id")["event_id"].transform("size").to_numpy()
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "user_id": df["user_id"].to_numpy(),
                "bucket": _ntile_buckets(i, cnt, n),
            }
        )

    return _partition_by_user(sf_dir).map_batches(
        ntile, batch_format="pandas", batch_size=None
    )


def events_user_unpivot(sf_dir: str) -> rd.Dataset:
    """UNPIVOT (wide -> long reshape): the per-user pivoted count
    columns melt back to (user_id, event_type, n) rows, zero counts
    kept — the inverse of `events_user_pivot`, closing the reshape
    pair. Long form is what groupbys and joins consume; wide is what
    dashboards consume; an engine needs both directions.

    Scale shape: the melt is a stateless per-block reshape of the
    already-aggregated pivot output (|users| x |types| rows, never raw
    events) — no additional shuffle beyond the pivot's own.
    """
    cols = [f"n_{t}" for t in EVENT_TYPES]

    def melt(df: pd.DataFrame) -> pd.DataFrame:
        out = df.melt(
            id_vars=["user_id"],
            value_vars=cols,
            var_name="event_type",
            value_name="n",
        )
        out["event_type"] = out["event_type"].str.removeprefix("n_")
        return out.astype({"user_id": "int64", "n": "int64"})

    return events_user_pivot(sf_dir).map_batches(
        melt, batch_format="pandas", batch_size=None
    )


def events_user_cumulative_distinct(sf_dir: str) -> rd.Dataset:
    """Running COUNT(DISTINCT event_type) per user in event-time order
    — the dedup-within-window shape SQL cannot express as a plain
    `COUNT(DISTINCT) OVER (ORDER BY ...)`: the oracle (and this op)
    decomposes it into a first-occurrence flag + running sum.

    Scale shape: one user_id hash shuffle co-locates each user's
    history; per block everything is vectorized pandas — stable sort
    on (user, ts, event_id), `duplicated()` for the first-seen flag,
    grouped cumsum. No state crosses blocks because the partitioning
    key IS the window key.
    """
    from .relational import _partition_by_user

    def cume(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "user_id": pd.Series([], dtype="int64"),
                    "n_distinct_so_far": pd.Series([], dtype="int64"),
                }
            )
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        first = (~df.duplicated(["user_id", "event_type"])).astype("int64")
        run = first.groupby(df["user_id"].to_numpy()).cumsum()
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy().astype("int64"),
                "user_id": df["user_id"].to_numpy().astype("int64"),
                "n_distinct_so_far": run.to_numpy(),
            }
        )

    return _partition_by_user(sf_dir).map_batches(
        cume, batch_format="pandas", batch_size=None
    )


def events_value_cume_dist(sf_dir: str, partitions: int = 8) -> rd.Dataset:
    """Exact CUME_DIST within event type, carried as an integer
    fraction (n_le / n_total) instead of a float quotient — ties on
    the micro-unit value count fully on both sides, and no division
    happens until a consumer wants the ratio.

    Scale shape: one keyed repartition on the bounded event_type key
    co-locates each distribution; per block a single sort +
    `searchsorted(side="right")` gives every row's
    count-of-peers-at-or-below in O(n log n) — no per-row window scan,
    no global sort.
    """
    def micro(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": b["event_id"].to_numpy(),
                "event_type": b["event_type"].to_numpy(),
                "value_micro": round_half_away(
                    b["value"].to_numpy(dtype="float64") * MICRO
                ).astype("int64"),
            }
        )

    def cume(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "event_type": pd.Series([], dtype="string"),
                    "value_micro": pd.Series([], dtype="int64"),
                    "n_le": pd.Series([], dtype="int64"),
                    "n_total": pd.Series([], dtype="int64"),
                }
            )
        parts = []
        for et, g in df.groupby("event_type", sort=False):
            v = g["value_micro"].to_numpy()
            sv = np.sort(v)
            n_le = np.searchsorted(sv, v, side="right").astype("int64")
            parts.append(
                pd.DataFrame(
                    {
                        "event_id": g["event_id"].to_numpy(),
                        "event_type": et,
                        "value_micro": v,
                        "n_le": n_le,
                        "n_total": np.int64(len(v)),
                    }
                )
            )
        return pd.concat(parts, ignore_index=True)

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    ).map_batches(micro, batch_format="pandas")
    return ds.repartition(partitions, keys=["event_type"]).map_batches(
        cume, batch_format="pandas", batch_size=None
    )


def events_props_json_rollup(sf_dir: str) -> rd.Dataset:
    """Semi-structured payload handling: extract the integer `k` from
    the JSON `props` column and roll up (n, sum, min, max) per event
    type — the "parse the JSON sidecar once, map-side, then aggregate"
    shape (the parse never survives the shuffle, only four ints per
    key per batch do).

    Extraction is a vectorized regex for the corpus's flat
    single-key objects (`{"k": <int>}`); a general nested payload
    would swap in pyarrow's JSON kernels — the aggregation shape is
    unchanged. Bounded event-type key space -> per-batch partials,
    fan-in merge, single-block final (the min/max need an order-aware
    merge, so this is the mixed-agg variant of tree_sum).
    """
    key_re = r'"k"\s*:\s*(-?\d+)'

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        k = b["props"].str.extract(key_re, expand=False).astype("int64")
        df = pd.DataFrame(
            {
                "event_type": b["event_type"].to_numpy(),
                "n_events": np.ones(len(b), dtype="int64"),
                "sum_k": k.to_numpy(),
                "min_k": k.to_numpy(),
                "max_k": k.to_numpy(),
            }
        )
        return df.groupby("event_type", as_index=False).agg(
            {"n_events": "sum", "sum_k": "sum", "min_k": "min", "max_k": "max"}
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df
        return df.groupby("event_type", as_index=False).agg(
            {"n_events": "sum", "sum_k": "sum", "min_k": "min", "max_k": "max"}
        )

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["event_type", "props"]
    ).map_batches(partial, batch_format="pandas")
    merged = ds.repartition(8).map_batches(
        merge, batch_format="pandas", batch_size=None
    )
    return merged.repartition(1).map_batches(
        merge, batch_format="pandas", batch_size=None
    )


def events_user_session_number(sf_dir: str, gap_minutes: int = 30) -> rd.Dataset:
    """Gaps-and-islands row numbering: every event tagged with its
    1-based session index within the user (a new session starts at the
    first event or after a gap > `gap_minutes`) — the per-ROW
    companion to `events_sessionize` (which emits one row per island).

    Scale shape: one user_id hash shuffle; per block a stable sort +
    shift turns the gap test into a vectorized flag, and the session
    index is the grouped cumsum of that flag. Exact integer
    microsecond gap test on both sides (epoch_us in the oracle).
    """
    from .relational import _partition_by_user

    gap_us = gap_minutes * 60 * 1_000_000

    def number(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "user_id": pd.Series([], dtype="int64"),
                    "session_idx": pd.Series([], dtype="int64"),
                }
            )
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        ts_us = df["ts"].astype("int64")
        same_user = df["user_id"].eq(df["user_id"].shift()).to_numpy()
        gap = (ts_us - ts_us.shift()).to_numpy()
        new_session = (~same_user) | (gap > gap_us)
        idx = (
            pd.Series(new_session.astype("int64"))
            .groupby(df["user_id"].to_numpy())
            .cumsum()
        )
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy().astype("int64"),
                "user_id": df["user_id"].to_numpy().astype("int64"),
                "session_idx": idx.to_numpy(),
            }
        )

    return _partition_by_user(sf_dir).map_batches(
        number, batch_format="pandas", batch_size=None
    )


def events_time_to_purchase(sf_dir: str) -> rd.Dataset:
    """Time-to-conversion: for every event, microseconds until the
    SAME user's next purchase event (strictly later) — the conditional
    LEAD window (a plain LEAD can't skip non-purchase rows; the SQL
    needs a min-over-following-frame).

    Scale shape: one user_id hash shuffle; per block, a reverse
    cumulative minimum over the purchase timestamps (descending sort +
    accumulate) gives every row its next-purchase time in one
    vectorized pass — no per-row lookahead. Rows with no later
    purchase are omitted (matches the oracle's IS NOT NULL).
    """
    from .relational import _partition_by_user

    def to_next(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "user_id": pd.Series([], dtype="int64"),
                    "us_to_purchase": pd.Series([], dtype="int64"),
                }
            )
        # Reverse event-time order: a running minimum of purchase ts
        # seen SO FAR (excluding the current row) is each row's
        # next-purchase time in forward order.
        df = df.sort_values(
            ["user_id", "ts", "event_id"], ascending=[True, False, False],
            kind="stable",
        )
        ts_us = df["ts"].astype("int64").to_numpy()
        is_purchase = (df["event_type"] == "purchase").to_numpy()
        uid = df["user_id"].to_numpy()
        run = np.where(is_purchase, ts_us, np.iinfo("int64").max)
        # Shifted-by-one accumulate within user: numpy has no grouped
        # scan, but user boundaries reset the accumulator — do it with
        # pandas grouped cummin on the shifted series.
        prev = pd.Series(run).groupby(uid).shift(1, fill_value=np.iinfo("int64").max)
        nxt = prev.groupby(uid).cummin().to_numpy()
        keep = nxt != np.iinfo("int64").max
        out = pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy()[keep].astype("int64"),
                "user_id": uid[keep].astype("int64"),
                "us_to_purchase": (nxt[keep] - ts_us[keep]).astype("int64"),
            }
        )
        return out

    return _partition_by_user(sf_dir).map_batches(
        to_next, batch_format="pandas", batch_size=None
    )
