"""Tests for the training-data operators (ocrs_ray.ops).

SQL-expressible ops are oracle-checked by the driver; these tests pin
the sketch/heuristic ops (minhash, simhash, winnowing, lang-id, LSH
ANN) against exact reference implementations and invariants.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------------------
# Kernel-level tests (no Ray needed)


def test_ngram_jaccard_exact():
    from ocrs_ray.ops.dedup import ngram_jaccard

    a = "the quick brown fox jumps over the lazy dog"
    b = "the quick brown fox leaps over the lazy dog"
    # shingles(k=3): 7 each; shared: {the quick brown, quick brown fox,
    # over the lazy, the lazy dog} = 4; union = 10.
    assert ngram_jaccard(a, b, k=3) == pytest.approx(4 / 10)
    assert ngram_jaccard(a, a, k=3) == 1.0
    assert ngram_jaccard("", "", k=3) == 1.0
    assert ngram_jaccard(a, "", k=3) == 0.0


def test_minhash_estimates_jaccard():
    from ocrs_ray.ops.dedup import MinHashConfig, MinHasher, _shingles, _stable_hash_u64

    cfg = MinHashConfig(num_perm=256)
    mh = MinHasher(cfg)
    a = " ".join(f"tok{i}" for i in range(100))
    b = " ".join(f"tok{i}" for i in range(50, 150))

    def sig(text):
        return mh.signature(np.unique(_stable_hash_u64(_shingles(text, cfg.shingle_size))))

    sa, sb = sig(a), sig(b)
    est = (sa == sb).mean()
    # Exact word-3-gram Jaccard of the two token ranges.
    from ocrs_ray.ops.dedup import ngram_jaccard

    true_j = ngram_jaccard(a, b, cfg.shingle_size)
    assert abs(est - true_j) < 0.12  # 256 perms -> s.e. ~ sqrt(j(1-j)/256) ~ 0.03
    # Determinism: same config -> same signature.
    assert np.array_equal(sig(a), MinHasher(cfg).signature(
        np.unique(_stable_hash_u64(_shingles(a, cfg.shingle_size)))))


def test_winnow_fingerprint_reference():
    from ocrs_ray.ops.text import winnow_fingerprint

    text = "abracadabra abracadabra"
    k, w = 8, 4
    fp = winnow_fingerprint(text, k=k, window=w)
    # Brute-force reference: rolling hash of every k-gram, min per window,
    # dedup preserving first-occurrence order.
    data = text.encode()
    base, mod = 257, (1 << 61) - 1
    hashes = []
    for i in range(len(data) - k + 1):
        h = 0
        for c in data[i : i + k]:
            h = (h * base + c) % mod
        hashes.append(h)
    mins, seen = [], set()
    for i in range(len(hashes) - w + 1):
        m = min(hashes[i : i + w])
        if m not in seen:
            seen.add(m)
            mins.append(m)
    assert fp == mins
    assert winnow_fingerprint("short", k=8) == []
    # Every selected hash is an actual k-gram hash (no off-by-one).
    assert set(fp) <= set(hashes)


def test_token_class_re_tri_engine_agreement_on_vertical_tab():
    """TOKEN_CLASS_RE must tokenize identically in Python re, Arrow RE2
    and DuckDB RE2 — including '\\v', where RE2 '\\S+' disagrees with
    the explicit class (RE2 \\s excludes \\v). Pins the simhash oracle
    CTE to the shared class."""
    import re

    import duckdb

    from ocrs_ray.ops.registry import _SIMHASH_CTE
    from ocrs_ray.ops.text import TOKEN_CLASS_RE

    text = "a\vb c d\te"
    py = re.findall(TOKEN_CLASS_RE, text)
    assert py == ["a", "b c", "d", "e"]  # \v splits, NBSP doesn't
    duck = duckdb.connect().execute(
        "SELECT regexp_extract_all(?, ?)", [text, TOKEN_CLASS_RE]
    ).fetchone()[0]
    assert duck == py
    # And RE2 \S+ really does differ on \v — the drift the CTE had.
    assert duckdb.connect().execute(
        r"SELECT regexp_extract_all(?, '\S+')", [text]
    ).fetchone()[0] != py
    assert TOKEN_CLASS_RE in _SIMHASH_CTE


def test_simhash_hamming_tracks_similarity():
    """SimHash of near-identical docs differs in few bits; unrelated
    docs in ~32 of 64 bits."""
    from ocrs_ray.ops.dedup import simhash64  # noqa: F401 — import check

    def sh(text: str) -> int:
        import hashlib

        toks = text.split()
        hashes = np.array(
            [
                int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "big")
                for t in toks
            ],
            dtype=np.uint64,
        )
        shifts = np.arange(64, dtype=np.uint64)
        bits = ((hashes[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
        votes = (2 * bits - 1).sum(axis=0)
        val = 0
        for i in range(64):
            if votes[i] > 0:
                val |= 1 << i
        return val

    base = " ".join(f"word{i}" for i in range(200))
    near = base + " extra token"
    far = " ".join(f"other{i}" for i in range(200))
    ham = lambda a, b: bin(a ^ b).count("1")
    assert ham(sh(base), sh(near)) <= 8
    assert 16 <= ham(sh(base), sh(far)) <= 48


def test_lang_id_heuristic():
    from ocrs_ray.ops.text import LangId

    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "the cat is on the mat and it is happy",
                "der Hund ist ein Tier und das ist gut",
                "le chat est dans la maison et il est content",
                "zzz qqq xxx",
            ],
        }
    )
    out = LangId()(df)
    assert list(out["lang_pred"]) == ["en", "de", "fr", "und"]
    assert out["lang_score_ppm"].iloc[3] == 0
    # 10 tokens, 7 hits ("the" x2, "is" x2, "on", "and", "it") -> 700000.
    assert out["lang_score_ppm"].iloc[0] == 700_000


# ---------------------------------------------------------------------------
# Ray-level tests over the sf0.001 testdata


def test_minhash_lsh_pairs_verified_subset(ray_session):
    """Every returned pair really has Jaccard >= threshold, and pairs
    with very high similarity are found (LSH recall at j>=0.8 with
    32 bands x 4 rows is > 0.9999)."""
    import pyarrow.parquet as pq

    from ocrs_ray.ops.dedup import MinHashConfig, minhash_lsh_pairs, ngram_jaccard

    cfg = MinHashConfig()
    out = minhash_lsh_pairs(SF, cfg).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    texts = dict(zip(docs.column("doc_id").to_pylist(), docs.column("text").to_pylist()))
    for _, row in out.iterrows():
        assert (
            ngram_jaccard(texts[row.doc_a], texts[row.doc_b], cfg.shingle_size)
            >= cfg.jaccard_threshold
        )
        assert row.doc_a < row.doc_b
    # No duplicate pairs.
    assert not out.duplicated(["doc_a", "doc_b"]).any()
    # Brute-force recall check on high-similarity pairs (shingle sets
    # precomputed once; pairwise loop is set intersections only).
    from ocrs_ray.ops.dedup import _shingles

    ids = sorted(texts)
    sets = {d: set(_shingles(texts[d], cfg.shingle_size)) for d in ids}
    strong = set()
    for i, a in enumerate(ids):
        sa = sets[a]
        for b in ids[i + 1 :]:
            sb = sets[b]
            inter = len(sa & sb)
            union = len(sa) + len(sb) - inter
            j = inter / union if union else 1.0
            if j >= 0.8:
                strong.add((a, b))
    found = set(zip(out.doc_a, out.doc_b))
    assert strong <= found


def test_embedding_neardup_lsh_recall(ray_session):
    """The banded LSH scale path: perfect precision (exact cosine
    verify per bucket) and recall >= 0.8 vs the exact triangle join at
    the 4-plane x 16-table default (expected ~0.94 at t=0.4)."""
    from ocrs_ray.ops.dedup import (
        embedding_neardup_pairs,
        embedding_neardup_pairs_lsh,
    )

    exact = embedding_neardup_pairs(SF).to_pandas()
    lsh = embedding_neardup_pairs_lsh(SF).to_pandas()
    eset = set(zip(exact.vec_a, exact.vec_b))
    lset = set(zip(lsh.vec_a, lsh.vec_b))
    assert lset <= eset  # verified pairs only — no false positives
    assert len(lset & eset) / max(1, len(eset)) >= 0.8
    assert not lsh.duplicated(["vec_a", "vec_b"]).any()


def test_ann_bruteforce_matches_numpy(ray_session):
    from ocrs_ray.ops.similarity import ann_topk_bruteforce, load_embedding_matrix

    k, nq = 5, 4
    out = ann_topk_bruteforce(SF, n_queries=nq, k=k).to_pandas()
    ids, mat = load_embedding_matrix(SF)
    order = np.argsort(ids)
    unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    expected = {}
    for qi in order[:nq]:
        sims = unit @ unit[qi]
        cand = [(s, i) for s, i in zip(sims, ids) if i != ids[qi]]
        cand.sort(key=lambda t: (-t[0], t[1]))
        expected[ids[qi]] = [i for _, i in cand[:k]]
    assert len(out) == nq * k
    for qid, grp in out.groupby("query_id"):
        got = list(grp.sort_values("rank")["neighbor_id"])
        assert got == expected[qid]


def test_ann_lsh_structural(ray_session):
    from ocrs_ray.ops.similarity import ann_topk_lsh, load_embedding_matrix

    out = ann_topk_lsh(SF, n_queries=5, k=5).to_pandas()
    ids, mat = load_embedding_matrix(SF)
    q_ids = set(np.sort(ids)[:5])
    assert set(out.query_id) <= q_ids
    for qid, grp in out.groupby("query_id"):
        ranks = sorted(grp["rank"])
        assert ranks == list(range(1, len(ranks) + 1))
        assert qid not in set(grp.neighbor_id)
    # Deterministic across runs.
    out2 = ann_topk_lsh(SF, n_queries=5, k=5).to_pandas()
    pd.testing.assert_frame_equal(
        out.sort_values(["query_id", "rank"]).reset_index(drop=True),
        out2.sort_values(["query_id", "rank"]).reset_index(drop=True),
    )


def test_sessionize_semantics(ray_session):
    """Session boundaries: per-user ordinal ids, gap > 30min splits,
    n_events and time bounds consistent with raw events."""
    import pyarrow.parquet as pq

    from ocrs_ray.ops.relational import events_sessionize

    out = events_sessionize(SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet", columns=["user_id", "ts"]).to_pandas()
    assert out.groupby("user_id")["session_id"].apply(
        lambda s: sorted(s) == list(range(1, len(s) + 1))
    ).all()
    counts = ev.groupby("user_id").size()
    got_counts = out.groupby("user_id")["n_events"].sum()
    assert got_counts.to_dict() == counts.to_dict()
    assert (out["session_end_us"] >= out["session_start_us"]).all()
    # Sessions of the same user never overlap and respect the gap.
    for _, g in out.groupby("user_id"):
        g = g.sort_values("session_id")
        gaps = g["session_start_us"].to_numpy()[1:] - g["session_end_us"].to_numpy()[:-1]
        assert (gaps > 30 * 60 * 1_000_000).all()


def test_asof_join_semantics(ray_session):
    """Each purchase maps to the latest signup at-or-before it."""
    import pyarrow.parquet as pq

    from ocrs_ray.ops.relational import events_asof_join

    out = events_asof_join(SF).to_pandas()
    ev = pq.read_table(
        f"{SF}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
    ).to_pandas()
    by_id = ev.set_index("event_id")
    signups = ev[ev.event_type == "signup"]
    for _, row in out.head(50).iterrows():
        p_ts = by_id.loc[row.purchase_event_id, "ts"]
        s = signups[(signups.user_id == row.user_id) & (signups.ts <= p_ts)]
        assert s.sort_values(["ts", "event_id"]).iloc[-1]["event_id"] == row.signup_event_id
    # Purchases are matched at most once each.
    assert not out.duplicated("purchase_event_id").any()


def test_dedup_exact_keeps_min_doc(ray_session):
    import pyarrow.parquet as pq

    from ocrs_ray.ops.dedup import dedup_exact

    out = dedup_exact(SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    expected = docs.groupby("text", as_index=False)["doc_id"].min()
    assert len(out) == len(expected)
    assert sorted(out["doc_id"]) == sorted(expected["doc_id"])


def test_ngram_jaccard_pairs_matches_bruteforce(ray_session):
    """Prefix filtering is EXACT: output == brute-force all-pairs."""
    import pyarrow.parquet as pq

    from ocrs_ray.ops.dedup import _shingles, ngram_jaccard_pairs

    out = ngram_jaccard_pairs(SF, threshold=0.8).to_pandas()
    got = set(zip(out["doc_a"], out["doc_b"]))

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    sets = {d: set(_shingles(t, 3)) for d, t in zip(docs.doc_id, docs.text)}
    ids = sorted(sets)
    want = set()
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            inter = len(sets[a] & sets[b])
            uni = len(sets[a]) + len(sets[b]) - inter
            if inter * 10 >= 8 * uni:
                want.add((a, b))
    assert got == want
    assert want  # corpus must actually contain near-dups


def test_hopping_window_covers_each_event_twice(ray_session):
    import pyarrow.parquet as pq

    from ocrs_ray.ops.relational import events_hopping_window, round_half_away

    out = events_hopping_window(SF, size_s=600, hop_s=300).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet", columns=["ts", "event_type", "value"]).to_pandas()
    # size/hop = 2 windows per event.
    assert out["n_events"].sum() == 2 * len(ev)
    assert out["sum_value_micro"].sum() == 2 * int(
        round_half_away(ev["value"].to_numpy() * 1_000_000).astype("int64").sum()
    )
    # Spot-check one (type, window) cell against pandas.
    epoch = ev["ts"].astype("int64") // 1_000_000
    row = out.sort_values(["event_type", "window_start"]).iloc[len(out) // 2]
    in_win = (
        (ev["event_type"] == row["event_type"])
        & (epoch >= row["window_start"])
        & (epoch < row["window_start"] + 600)
    )
    assert in_win.sum() == row["n_events"]


def test_daily_active_users_exact(ray_session):
    import pyarrow.parquet as pq

    from ocrs_ray.ops.relational import events_daily_active_users

    out = events_daily_active_users(SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet", columns=["ts", "event_type", "user_id"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 1_000_000 // 86400
    want = (
        ev.groupby(["event_type", "day"])["user_id"].nunique().rename("n_users").reset_index()
    )
    merged = out.merge(want, on=["event_type", "day"], suffixes=("", "_want"))
    assert len(merged) == len(want) == len(out)
    assert (merged["n_users"] == merged["n_users_want"]).all()


def test_q3_top_orders_native_join(ray_session):
    import pyarrow.parquet as pq

    from ocrs_ray.ops.relational import q3_top_orders, round_half_away

    out = q3_top_orders(SF, k=10).to_pandas()
    cust = pq.read_table(f"{SF}/customer.parquet").to_pandas()
    orders = pq.read_table(f"{SF}/orders.parquet").to_pandas()
    line = pq.read_table(f"{SF}/lineitem.parquet").to_pandas()
    cutoff = pd.Timestamp("1998-06-01")
    keys = set(cust.loc[cust.c_mktsegment == "BUILDING", "c_custkey"])
    o = orders[(orders.o_custkey.isin(keys)) & (orders.o_orderdate < cutoff)]
    l = line[line.l_shipdate > cutoff].copy()
    l["revenue_micro"] = round_half_away(
        (l.l_extendedprice * (1.0 - l.l_discount)).to_numpy() * 1_000_000
    ).astype("int64")
    j = l.merge(o[["o_orderkey", "o_orderdate"]], left_on="l_orderkey", right_on="o_orderkey")
    rev = j.groupby(["o_orderkey", "o_orderdate"], as_index=False)["revenue_micro"].sum()
    rev["o_orderdate_us"] = rev["o_orderdate"].astype("int64")
    want = rev.sort_values(["revenue_micro", "o_orderkey"], ascending=[False, True]).head(10)
    assert out["o_orderkey"].tolist() == want["o_orderkey"].tolist()
    assert out["revenue_micro"].tolist() == want["revenue_micro"].tolist()
    assert out["o_orderdate_us"].tolist() == want["o_orderdate_us"].tolist()


def test_inactive_customers_anti_join(ray_session):
    import pyarrow.parquet as pq

    from ocrs_ray.ops.relational import inactive_customers

    out = inactive_customers(SF, since="2001-01-01").to_pandas()
    cust = pq.read_table(f"{SF}/customer.parquet").to_pandas()
    orders = pq.read_table(f"{SF}/orders.parquet").to_pandas()
    active = set(orders.loc[orders.o_orderdate >= pd.Timestamp("2001-01-01"), "o_custkey"])
    want = cust[~cust.c_custkey.isin(active)]
    assert sorted(out["c_custkey"]) == sorted(want["c_custkey"])
    assert 0 < len(out) < len(cust)


def test_ann_ivf_full_probe_is_exact(ray_session):
    """nprobe == nlist scans every cell -> identical to brute force."""
    from ocrs_ray.ops.similarity import ann_topk_bruteforce, ann_topk_ivf

    exact = ann_topk_bruteforce(SF, n_queries=5, k=5).to_pandas()
    ivf = ann_topk_ivf(SF, n_queries=5, k=5, nlist=8, nprobe=8).to_pandas()
    cols = ["query_id", "rank", "neighbor_id"]
    pd.testing.assert_frame_equal(
        exact.sort_values(cols[:2]).reset_index(drop=True)[cols],
        ivf.sort_values(cols[:2]).reset_index(drop=True)[cols],
    )


def test_ann_ivf_partial_probe_recall(ray_session):
    """nprobe < nlist trades recall for scan volume; recall stays high
    on the clustered synthetic embeddings."""
    from ocrs_ray.ops.similarity import ann_topk_bruteforce, ann_topk_ivf

    exact = ann_topk_bruteforce(SF, n_queries=5, k=10).to_pandas()
    ivf = ann_topk_ivf(SF, n_queries=5, k=10, nlist=16, nprobe=4).to_pandas()
    hits = 0
    total = 0
    for qid, g in exact.groupby("query_id"):
        want = set(g["neighbor_id"])
        got = set(ivf.loc[ivf.query_id == qid, "neighbor_id"])
        hits += len(want & got)
        total += len(want)
    assert hits / total >= 0.5  # embeddings are label-clustered; 4/16 cells


def test_ann_pq_full_shortlist_is_exact(ray_session):
    """shortlist >= batch size reranks EVERY row exactly -> identical
    to brute force regardless of codebook quality (the nprobe==nlist
    analog for PQ)."""
    from ocrs_ray.ops.similarity import ann_topk_bruteforce, ann_topk_pq

    exact = ann_topk_bruteforce(SF, n_queries=5, k=5).to_pandas()
    pq_ = ann_topk_pq(
        SF, n_queries=5, k=5, m_subspaces=4, n_codes=4, shortlist=10**9
    ).to_pandas()
    cols = ["query_id", "rank", "neighbor_id"]
    pd.testing.assert_frame_equal(
        exact.sort_values(cols[:2]).reset_index(drop=True)[cols],
        pq_.sort_values(cols[:2]).reset_index(drop=True)[cols],
    )


def test_ann_pq_adc_shortlist_recall(ray_session):
    """A bounded ADC shortlist trades recall for rerank volume; with
    the production-standard 8-bit codebooks (n_codes=256) recall at
    the default shortlist=4k is >= 0.85 (measured 0.95 at sf0.001),
    and the emitted similarities are exact cosines (rerank property)."""
    from ocrs_ray.ops.similarity import ann_topk_bruteforce, ann_topk_pq

    exact = ann_topk_bruteforce(SF, n_queries=5, k=10).to_pandas()
    pq_ = ann_topk_pq(SF, n_queries=5, k=10).to_pandas()
    hits = total = 0
    for qid, g in exact.groupby("query_id"):
        want = set(g["neighbor_id"])
        got = set(pq_.loc[pq_.query_id == qid, "neighbor_id"])
        hits += len(want & got)
        total += len(want)
    assert hits / total >= 0.85


def test_ann_ivfpq_full_probe_full_shortlist_is_exact(ray_session):
    """nprobe == nlist + shortlist >= batch size reranks every row
    exactly -> identical to brute force regardless of codebook or
    centroid quality (the composed degenerate of the IVF and PQ
    invariants)."""
    from ocrs_ray.ops.similarity import ann_topk_bruteforce, ann_topk_ivfpq

    exact = ann_topk_bruteforce(SF, n_queries=5, k=5).to_pandas()
    ivfpq = ann_topk_ivfpq(
        SF, n_queries=5, k=5, nlist=8, nprobe=8, m_subspaces=4,
        n_codes=4, shortlist=10**9,
    ).to_pandas()
    cols = ["query_id", "rank", "neighbor_id"]
    pd.testing.assert_frame_equal(
        exact.sort_values(cols[:2]).reset_index(drop=True)[cols],
        ivfpq.sort_values(cols[:2]).reset_index(drop=True)[cols],
    )


def test_ann_ivfpq_partial_probe_recall(ray_session):
    """Default IVFADC (nlist=16, nprobe=12, 8-bit residual codebooks):
    recall is gated by cell-probe misses, measured 0.98 at sf0.001 —
    pinned >= 0.85. Determinism across runs is also pinned (seeded
    training on the same head sample)."""
    from ocrs_ray.ops.similarity import ann_topk_bruteforce, ann_topk_ivfpq

    exact = ann_topk_bruteforce(SF, n_queries=5, k=10).to_pandas()
    ivfpq = ann_topk_ivfpq(SF, n_queries=5, k=10).to_pandas()
    hits = total = 0
    for qid, g in exact.groupby("query_id"):
        want = set(g["neighbor_id"])
        got = set(ivfpq.loc[ivfpq.query_id == qid, "neighbor_id"])
        hits += len(want & got)
        total += len(want)
    assert hits / total >= 0.85
    again = ann_topk_ivfpq(SF, n_queries=5, k=10).to_pandas()
    cols = ["query_id", "rank", "neighbor_id"]
    pd.testing.assert_frame_equal(
        ivfpq.sort_values(cols[:2]).reset_index(drop=True)[cols],
        again.sort_values(cols[:2]).reset_index(drop=True)[cols],
    )


def test_supplier_region_rollup(ray_session):
    import pyarrow.parquet as pq

    from ocrs_ray.ops.relational import round_half_away, supplier_region_rollup

    out = supplier_region_rollup(SF).to_pandas().sort_values("r_name").reset_index(drop=True)
    sup = pq.read_table(f"{SF}/supplier.parquet").to_pandas()
    nat = pq.read_table(f"{SF}/nation.parquet").to_pandas()
    reg = pq.read_table(f"{SF}/region.parquet").to_pandas()
    j = sup.merge(nat, left_on="s_nationkey", right_on="n_nationkey").merge(
        reg, left_on="n_regionkey", right_on="r_regionkey"
    )
    j["micro"] = round_half_away(j["s_acctbal"].to_numpy() * 1_000_000).astype("int64")
    want = (
        j.groupby("r_name", as_index=False)
        .agg(sum_acctbal_micro=("micro", "sum"), n_suppliers=("s_suppkey", "count"))
        .sort_values("r_name")
        .reset_index(drop=True)
    )
    want["n_suppliers"] = want["n_suppliers"].astype("int64")
    pd.testing.assert_frame_equal(out[["r_name", "sum_acctbal_micro", "n_suppliers"]], want)


def test_events_value_quantiles_exact(ray_session):
    """Distributed grouped quantiles == single-process numpy reference
    using the quantile_disc convention (sorted[ceil(q*n)-1])."""
    import pyarrow.parquet as pq

    from ocrs_ray.ops.relational import events_value_quantiles, round_half_away

    out = events_value_quantiles(SF).to_pandas().sort_values("event_type").reset_index(drop=True)
    ev = pq.read_table(f"{SF}/events.parquet", columns=["event_type", "value"]).to_pandas()
    ev["micro"] = round_half_away(ev["value"].to_numpy() * 1_000_000).astype("int64")
    rows = []
    for etype, g in ev.groupby("event_type"):
        v = np.sort(g["micro"].to_numpy())
        n = len(v)
        rows.append(
            (etype, int(v[int(np.ceil(0.5 * n)) - 1]), int(v[int(np.ceil(0.95 * n)) - 1]), n)
        )
    want = pd.DataFrame(rows, columns=["event_type", "p50_micro", "p95_micro", "n_events"])
    pd.testing.assert_frame_equal(out, want.astype(out.dtypes.to_dict()))


def test_local_topk_select_tie_exact():
    """Candidates tied at the k-th similarity resolve by id ascending,
    regardless of input order (the invariant that makes IVF at
    nprobe==nlist bit-identical to brute force)."""
    from ocrs_ray.ops.similarity import _local_topk_select

    sims = np.array([0.9, 0.5, 0.5, 0.5, 0.5, 0.1])
    ids = np.array([10, 40, 30, 20, 50, 60])
    top_ids, top_sims = _local_topk_select(ids, sims, k=3)
    assert top_ids.tolist() == [10, 20, 30]  # ties -> smallest ids win
    assert top_sims.tolist() == [0.9, 0.5, 0.5]
    # permuted input gives the identical answer
    perm = np.array([3, 0, 5, 2, 4, 1])
    top_ids2, _ = _local_topk_select(ids[perm], sims[perm], k=3)
    assert top_ids2.tolist() == [10, 20, 30]


def test_hll_rank_kernel_matches_reference():
    """Register ranks == pure-python leading-zero reference."""
    from ocrs_ray.ops.relational import _HLL_P, _hll_registers

    rng = np.random.default_rng(3)
    hashes = rng.integers(0, 2**63, size=2000, dtype=np.int64).astype(np.uint64)
    regs = _hll_registers(hashes)
    want = np.zeros(1 << _HLL_P, dtype=np.int8)
    for h in hashes.tolist():
        bucket = h >> (64 - _HLL_P)
        rest = (h << _HLL_P) & ((1 << 64) - 1)
        if rest == 0:
            rank = 64 - _HLL_P + 1
        else:
            rank = 64 - rest.bit_length() + 1
        want[bucket] = max(want[bucket], rank)
    assert np.array_equal(regs, want)


def test_hll_estimate_accuracy():
    from ocrs_ray.ops.relational import _hll_estimate, _hll_registers

    for true_n in (100, 5000, 100_000):
        rng = np.random.default_rng(true_n)
        # full-range uint64, like pd.util.hash_array output
        hashes = rng.integers(0, 2**64, size=true_n, dtype=np.uint64)
        est = _hll_estimate(_hll_registers(hashes))
        assert abs(est - true_n) / true_n < 0.05, (true_n, est)


def test_events_distinct_users_hll_close_to_exact(ray_session):
    import pyarrow.parquet as pq

    from ocrs_ray.ops.relational import events_distinct_users_hll

    out = events_distinct_users_hll(SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet", columns=["event_type", "user_id"]).to_pandas()
    exact = ev.groupby("event_type")["user_id"].nunique()
    for _, row in out.iterrows():
        true_n = exact[row["event_type"]]
        assert abs(row["n_users_est"] - true_n) / true_n < 0.08, (row.to_dict(), true_n)


def test_events_daily_active_users_hll_close_to_exact(ray_session):
    """Grouped sparse-HLL estimate within error bound of the exact
    per-(event_type, day) distinct-user count, for every group."""
    import pyarrow.parquet as pq

    from ocrs_ray.ops.relational import events_daily_active_users_hll

    out = events_daily_active_users_hll(SF).to_pandas()
    ev = pq.read_table(
        f"{SF}/events.parquet", columns=["ts", "event_type", "user_id"]
    ).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 1_000_000 // 86400
    exact = ev.groupby(["event_type", "day"])["user_id"].nunique()
    assert len(out) == len(exact)
    for _, row in out.iterrows():
        true_n = exact[(row["event_type"], row["day"])]
        # small groups are exact via linear counting; 8% covers the rest
        tol = max(0.08 * true_n, 3)
        assert abs(row["n_users_est"] - true_n) <= tol, (row.to_dict(), true_n)


def test_registry_consistency():
    """Every oracle key has a queries() entry and names stay stable;
    catches registry drift when operators are added."""
    import __ray_entry__ as em

    q = em.queries()
    sql = em.oracle_sql()
    missing = set(sql) - set(q)
    assert not missing, f"oracle without query: {missing}"
    assert len(q) >= 36
    for name, fn in q.items():
        assert callable(fn), name


def test_hopping_window_rejects_partial_overlap():
    from ocrs_ray.ops.relational import events_hopping_window

    with pytest.raises(ValueError, match="multiple of hop_s"):
        events_hopping_window(SF, size_s=450, hop_s=300)


def test_range_join_matches_pandas(ray_session):
    import pyarrow.parquet as pq

    from ocrs_ray.ops.relational import events_range_join

    out = events_range_join(SF, window_hours=6).to_pandas()
    ev = pq.read_table(
        f"{SF}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
    ).to_pandas()
    p = ev[ev.event_type == "purchase"]
    e = ev[ev.event_type == "error"]
    j = p.merge(e, on="user_id", suffixes=("_p", "_e"))
    win = pd.Timedelta(hours=6)
    j = j[(j.ts_e > j.ts_p) & (j.ts_e <= j.ts_p + win)]
    want = set(zip(j.event_id_p, j.event_id_e))
    assert set(zip(out.purchase_event_id, out.error_event_id)) == want
    assert len(out) == len(want) > 0


def test_funnel_stage_attrition(ray_session, tmp_path):
    """Funnel on a crafted skewed table where each stage loses users
    (the sf tables' funnel is saturated — every user completes all
    stages, so it can't catch ordering/attrition bugs). Compared
    against the registered DuckDB oracle on the same table.
    """
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocrs_ray.ops.registry import oracle_sql
    from ocrs_ray.ops.relational import events_funnel

    rng = np.random.default_rng(7)
    n = 5000
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype="int64"),
            "user_id": rng.integers(0, 300, n).astype("int64"),
            "event_type": rng.choice(
                ["signup", "click", "purchase", "view"], n, p=[0.15, 0.35, 0.1, 0.4]
            ),
            "ts": pd.to_datetime(rng.integers(0, 10_000_000, n), unit="s"),
            "value": rng.random(n),
        }
    )
    pq.write_table(
        pa.Table.from_pandas(df, preserve_index=False),
        str(tmp_path / "events.parquet"),
    )

    out = events_funnel(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{tmp_path}/events.parquet')"
    )
    exp = (
        con.execute(oracle_sql()["events_funnel"])
        .df()
        .sort_values("stage")
        .reset_index(drop=True)
    )
    assert list(out["n_users"]) == list(exp["n_users"])
    # The crafted table must actually discriminate: strict attrition.
    assert out["n_users"].iloc[0] > out["n_users"].iloc[2]


def test_ann_int8_recall(ray_session):
    """Int8-quantized scoring loses <= 0.4% per coordinate; recall@10
    vs the exact brute force should be near-perfect."""
    from ocrs_ray.ops.similarity import ann_topk_bruteforce, ann_topk_int8

    exact = ann_topk_bruteforce(SF, n_queries=5, k=10).to_pandas()
    quant = ann_topk_int8(SF, n_queries=5, k=10).to_pandas()
    hits = 0
    total = 0
    for qid, g in exact.groupby("query_id"):
        want = set(g["neighbor_id"])
        got = set(quant.loc[quant.query_id == qid, "neighbor_id"])
        hits += len(want & got)
        total += len(want)
    assert hits / total >= 0.9, hits / total


def test_hashing_embedder_kernel():
    """No-Ray kernel pin: deterministic, unit-norm, exact values."""
    import hashlib

    import numpy as np
    import pandas as pd

    from ocrs_ray.ops.similarity import HashingEmbedder

    emb = HashingEmbedder(dim=8)
    # Hand-computed reference for one document.
    text = "a b a"
    ref = np.zeros(8)
    for tok in text.split():
        h = int.from_bytes(hashlib.md5(tok.encode()).digest()[:8], "little")
        ref[h % 8] += 1.0 if (h >> 62) & 1 == 0 else -1.0
    ref = ref / np.linalg.norm(ref)
    got = emb.embed_one(text)
    np.testing.assert_allclose(got, ref.astype("float32"), rtol=0, atol=0)
    # Determinism across instances (fresh cache) and unit norm.
    got2 = HashingEmbedder(dim=8).embed_one(text)
    np.testing.assert_array_equal(got, got2)
    assert abs(float(np.linalg.norm(got)) - 1.0) < 1e-6
    # Empty text -> zero vector, no NaN.
    assert not np.isnan(emb.embed_one("")).any()
    assert float(np.linalg.norm(emb.embed_one(""))) == 0.0
    # Batch path shape.
    out = emb(pd.DataFrame({"doc_id": [1, 2], "text": ["a b", ""]}))
    assert list(out.columns) == ["doc_id", "embedding"]
    assert len(out["embedding"][0]) == 8


def test_hashing_embedder_zero_row_batch_is_typed():
    """A zero-row batch yields typed columns, never object dtype, and
    the embedding type matches what a non-empty batch converts to."""
    import pandas as pd
    import pyarrow as pa

    from ocrs_ray.ops.similarity import HashingEmbedder

    emb = HashingEmbedder(dim=8)
    empty = pd.DataFrame(
        {"doc_id": pd.Series([], dtype="int64"), "text": pd.Series([], dtype=object)}
    )
    out = emb(empty)
    assert len(out) == 0 and list(out.columns) == ["doc_id", "embedding"]
    assert not any(dt == object for dt in out.dtypes)
    full = emb(pd.DataFrame({"doc_id": [1], "text": ["a b"]}))
    got = pa.Table.from_pandas(out, preserve_index=False).schema
    want = pa.Table.from_pandas(full, preserve_index=False).schema
    assert got.field("embedding").type == want.field("embedding").type
    assert got.field("doc_id").type == pa.int64()


def test_attach_pair_texts_broadcast_equals_join(ray_session):
    """The size-selected broadcast path and the hash-join path of the
    candidate text resolver are interchangeable."""
    import ray.data as rd

    from ocrs_ray.ops.dedup import _attach_pair_texts

    docs = rd.from_items(
        [{"doc_id": i, "text": f"text number {i}"} for i in range(50)]
    )
    pairs = rd.from_items(
        [{"doc_a": i, "doc_b": i + 25} for i in range(25)]
    )
    cols = ["doc_a", "doc_b", "text_a", "text_b"]
    a = (
        _attach_pair_texts(pairs, docs, npart=2)  # tiny -> broadcast
        .to_pandas()[cols]
        .sort_values(["doc_a"])
        .reset_index(drop=True)
    )
    b = (
        _attach_pair_texts(pairs, docs, npart=2, broadcast_limit_bytes=0)
        .to_pandas()[cols]
        .sort_values(["doc_a"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
    assert (a["text_a"] == [f"text number {i}" for i in range(25)]).all()


def test_ngram_pairs_forced_join_path_matches(ray_session):
    """The hash-join text-resolution strategy (what runs above the
    broadcast threshold at corpus scale) produces the identical
    verified pair set on real corpus data."""
    from ocrs_ray.ops.dedup import ngram_jaccard_pairs

    default = ngram_jaccard_pairs(SF).to_pandas()
    joined = ngram_jaccard_pairs(SF, broadcast_limit_bytes=0).to_pandas()
    key = ["doc_a", "doc_b"]
    a = default.sort_values(key).reset_index(drop=True)
    b = joined.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0


def test_pairs_in_key_groups_hot_bucket_collapse():
    """The hot-bucket guard (kernel level, no Ray): 10^4 exact copies
    sharing one bucket collapse to ONE representative before pair
    enumeration — candidate count is bounded by distinct texts, not
    group size (was 10^8/2 pairs from this bucket)."""
    from ocrs_ray.ops.dedup import _pairs_in_key_groups

    n = 10_000
    df = pd.DataFrame(
        {
            "token": ["t"] * (n + 3),
            "doc_id": np.arange(n + 3, dtype=np.int64),
            # docs 0..n-1 identical text; 3 distinct texts after
            "th0": np.concatenate(
                [np.zeros(n, dtype=np.int64), np.array([1, 2, 3])]
            ),
            "th1": np.zeros(n + 3, dtype=np.int64),
        }
    )
    out = _pairs_in_key_groups(df, ["token"], collapse_cols=["th0", "th1"])
    # 4 distinct texts -> C(4,2) = 6 candidates; the group rep is the
    # min doc_id (0), which IS the global rep since every copy is
    # present in the bucket
    assert len(out) == 6
    assert out["doc_a"].min() == 0
    # without the guard the same bucket explodes quadratically
    legacy = _pairs_in_key_groups(
        df.head(200)[["token", "doc_id"]], ["token"]
    )
    assert len(legacy) == 200 * 199 // 2


def test_collapse_exact_equality_and_hot_bucket_e2e(ray_session, tmp_path):
    """collapse_exact=True (default) must be pair-for-pair identical to
    the uncollapsed path on a corpus WITH a hot exact-dup group, for
    both pair ops and both expansion strategies (broadcast and the
    forced cogroup at broadcast_limit_bytes=0). 60 identical docs give
    1770 intra pairs plus cross pairs to a near-dup variant."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocrs_ray.ops.dedup import (
        MinHashConfig,
        minhash_lsh_pairs,
        ngram_jaccard_pairs,
    )

    hot = "the quick brown fox jumps over the lazy dog again and again"
    near = hot + " tail"  # high-jaccard neighbor of the hot group
    texts = [hot] * 60 + [near, "a completely different document body here"]
    n = len(texts)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(np.arange(n, dtype=np.int64)),
                "text": pa.array(texts, type=pa.string()),
                "lang": pa.array(["en"] * n, type=pa.string()),
                "source": pa.array(["s0"] * n, type=pa.string()),
                "n_chars": pa.array(
                    np.array([len(t) for t in texts], dtype=np.int64)
                ),
            }
        ),
        str(tmp_path / "documents.parquet"),
        row_group_size=16,
    )
    sf = str(tmp_path)
    key = ["doc_a", "doc_b"]

    def norm(ds):
        return ds.to_pandas().sort_values(key).reset_index(drop=True)

    for fn, kw in [
        (ngram_jaccard_pairs, {"threshold": 0.8}),
        (minhash_lsh_pairs, {"cfg": MinHashConfig()}),
    ]:
        base = norm(fn(sf, collapse_exact=False, **kw))
        fast = norm(fn(sf, **kw))
        # force the distributed (cogroup) EXPANSION path only — not the
        # text-attach join, which would hit the Ray 2.49 sparse-side
        # acero crash on a corpus this small (CLAUDE.md join note)
        cogroup = norm(fn(sf, expand_broadcast_limit_bytes=0, **kw))
        pd.testing.assert_frame_equal(fast, base, check_like=True)
        pd.testing.assert_frame_equal(cogroup, base, check_like=True)
        # the 60-copy group contributes all C(60,2) intra pairs
        assert len(base) >= 60 * 59 // 2
        assert not fast.duplicated(key).any()


def test_repeated_substring_pairs_semantics(ray_session, tmp_path):
    """Occurrence-pair counting and first positions on crafted docs:
    doc 1 contains the 32-char block twice, doc 2 once, doc 3 never."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    block = "ABCDEFGHIJKLMNOPQRSTUVWXYZ012345"  # len 32
    assert len(block) == 32
    t1 = block + "x" * 8 + block  # occurrences at pos 1 and 41
    t2 = "y" * 8 + block  # occurrence at pos 9
    t3 = "q" * 64
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": [t1, t2, t3],
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    from ocrs_ray.ops.dedup import repeated_substring_pairs

    out = (
        repeated_substring_pairs(str(tmp_path))
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    row = out[(out.doc_a == 1) & (out.doc_b == 2)]
    assert len(row) == 1
    # grams sampled at stride 8 from pos 1: doc1 has `block` at 1 and 41
    # (both on-stride), doc2 at 9 (on-stride) -> 2x1 occurrence pairs.
    assert int(row.n_shared_grams.iloc[0]) == 2
    assert int(row.first_pos_a.iloc[0]) == 1
    assert int(row.first_pos_b.iloc[0]) == 9
    assert not ((out.doc_a == 3) | (out.doc_b == 3)).any()


def test_pii_patterns_kernel():
    """PII regexes via the same Arrow RE2 kernels the op uses (no Ray):
    multi-match counting, masking order (email -> IP -> phone), and
    non-matches (IP octets must not trip the phone pattern and vice
    versa)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocrs_ray.ops.text import PII_EMAIL_RE, PII_IPV4_RE, PII_PHONE_RE

    texts = pa.array(
        [
            "mail a.b+c@ex-1.org and d@e.io now",
            "call 555-0199 or 555-0200 from 10.0.3.77",
            "no pii here",
            "ip 192.168.0.1 only",
        ]
    )
    assert pc.count_substring_regex(texts, PII_EMAIL_RE).to_pylist() == [2, 0, 0, 0]
    assert pc.count_substring_regex(texts, PII_PHONE_RE).to_pylist() == [0, 2, 0, 0]
    assert pc.count_substring_regex(texts, PII_IPV4_RE).to_pylist() == [0, 1, 0, 1]

    red = pc.replace_substring_regex(texts, PII_EMAIL_RE, "<EMAIL>")
    red = pc.replace_substring_regex(red, PII_IPV4_RE, "<IP>")
    red = pc.replace_substring_regex(red, PII_PHONE_RE, "<PHONE>")
    assert red.to_pylist() == [
        "mail <EMAIL> and <EMAIL> now",
        "call <PHONE> or <PHONE> from <IP>",
        "no pii here",
        "ip <IP> only",
    ]


def test_snapshot_new_texts_anti_join(ray_session):
    """Bloom-routed corpus-vs-corpus anti-join: snapshot B docs whose
    text exists nowhere in A. On this corpus every 'changed' doc gets
    a brand-new ('rev2 '-prefixed) text and every 'added' doc re-uses
    an existing text, so the output is exactly the changed set —
    misses flow through the definitely-new fast path, re-ingested
    copies hit the A-Bloom and are dropped by the exact verify."""
    _check_snapshot_new_texts()


def _check_snapshot_new_texts():
    import pyarrow.parquet as pq

    from ocrs_ray.ops.dedup import snapshot_new_texts

    out = snapshot_new_texts(SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id"])
    ids = docs.column("doc_id").to_numpy()
    expected = np.sort(ids[(ids % 7 != 0) & (ids % 11 == 0)])
    assert (out["status"] == "changed").all()
    assert np.array_equal(np.sort(out["doc_id"].to_numpy()), expected)


def test_snapshot_new_texts_hashes_from_default_context(ray_session):
    """The session contract: an op configures the context through its
    reads (`session.read_table`), not by patching its datasets. With
    the driver's context reset to Ray's default (sort) strategy,
    `snapshot_new_texts`, whose keyed repartition sits behind a later
    `union`, must still hash (under sort it raises "Key-based
    repartitioning only supported for HASH_SHUFFLE") and return the
    same rows."""
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    from ocrs_ray.session import enable_hash_shuffle

    ctx = DataContext.get_current()
    ctx.shuffle_strategy = DataContext().shuffle_strategy
    assert ctx.shuffle_strategy != ShuffleStrategy.HASH_SHUFFLE
    try:
        _check_snapshot_new_texts()
        assert ctx.shuffle_strategy == ShuffleStrategy.HASH_SHUFFLE
    finally:
        enable_hash_shuffle()


def test_prefix_rows_empty_batch_typed():
    """Kernel: an empty input batch must return TYPED empty columns
    (zero-row object-dtype breaks Ray's block size estimator — the
    CLAUDE.md empty-branch rule); token must convert to Arrow string,
    not null."""
    import pyarrow as pa

    from ocrs_ray.ops.dedup import _prefix_rows

    for with_hash in (False, True):
        out = _prefix_rows(
            pd.DataFrame({"doc_id": [], "text": []}),
            k=5,
            threshold=0.8,
            with_text_hash=with_hash,
        )
        assert len(out) == 0
        t = pa.Table.from_pandas(out)
        assert t.schema.field("token").type == pa.string()
        assert t.schema.field("doc_id").type == pa.int64()
        if with_hash:
            assert t.schema.field("th0").type == pa.int64()


def test_intra_dup_pairs_survive_block_splits(ray_session):
    """An exact-dup group whose membership rows arrive SPLIT across
    blocks (Ray re-splits a map task's output once it exceeds
    target_max_block_size) must still emit every intra pair — the
    rep_id re-colocation exchange inside _intra_dup_pairs is what
    guarantees it. Simulated by feeding the group's rows as four
    separate input blocks."""
    import ray.data as rd

    from ocrs_ray.ops.dedup import _intra_dup_pairs

    # group rep 100 has members 100..111 spread over 4 blocks; a
    # second group (rep 500) interleaves to prove groups don't merge
    frames = []
    members = np.arange(100, 112, dtype=np.int64)
    for i in range(4):
        frames.append(
            pd.DataFrame(
                {
                    "rep_id": np.concatenate(
                        [np.full(3, 100, dtype=np.int64), [500]]
                    ),
                    "doc_id": np.concatenate(
                        [members[i * 3 : (i + 1) * 3], [500 + i]]
                    ),
                }
            )
        )
    ds = rd.from_pandas(frames)
    assert ds.num_blocks() == 4
    out = (
        _intra_dup_pairs(ds, npart=4)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    import itertools

    want = sorted(itertools.combinations(members.tolist(), 2)) + sorted(
        itertools.combinations([500, 501, 502, 503], 2)
    )
    got = sorted(zip(out["doc_a"], out["doc_b"]))
    assert got == sorted(want)


def test_semdedup_prune_kernel_semantics():
    """Kernel, no Ray: exact-dup pair collapses to one survivor
    (tie-break: lower vec_id), near-orthogonal members all survive,
    and a chain a~b, b~c, a!~c drops BOTH b and c (triangular-max —
    the released SemDeDup semantics, not greedy-kept)."""
    from ocrs_ray.ops.similarity import (
        _unit,
        semdedup_prune,
        semdedup_prune_order,
    )

    cent = _unit(np.array([[1.0, 0.2, 0.0]]))[0]
    # rows: two exact dups, one orthogonal-ish
    unit = _unit(
        np.array(
            [
                [1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
    )
    vid = np.array([10, 7, 3], dtype=np.int64)
    order = semdedup_prune_order(unit, cent, vid)
    keep = semdedup_prune(unit, order, tau=0.95)
    # the two dups have EQUAL centroid sim -> lower vec_id (7) wins
    assert keep.tolist() == [False, True, True]

    # chain: a~b (0.99), b~c (0.99), a~c (~0.96) with tau between —
    # use vectors on a small arc so consecutive sims exceed tau but
    # the endpoints' sim falls below it
    th = np.array([0.0, 0.20, 0.40])
    arc = _unit(np.stack([np.cos(th), np.sin(th), np.zeros(3)], axis=1))
    sims = arc @ arc.T
    tau = 0.97
    assert sims[0, 1] > tau and sims[1, 2] > tau and sims[0, 2] < tau
    cent2 = arc[0]
    vid2 = np.array([1, 2, 3], dtype=np.int64)
    order2 = semdedup_prune_order(arc, cent2, vid2)
    # priority: ascending centroid sim -> endpoint c first, then b, a
    assert order2.tolist() == [2, 1, 0]
    keep2 = semdedup_prune(arc, order2, tau)
    # c kept (first); b dropped (sim to c > tau); a dropped too:
    # sim(a, b) > tau and b is EARLIER in order even though dropped
    assert keep2.tolist() == [False, False, True]

    # arrival-order independence: shuffle rows, same survivors by id
    perm = np.array([2, 0, 1])
    order3 = semdedup_prune_order(arc[perm], cent2, vid2[perm])
    keep3 = semdedup_prune(arc[perm], order3, tau)
    assert set(vid2[perm][keep3]) == set(vid2[keep2])


def test_semdedup_survivors_matches_reference(ray_session):
    """Distributed semdedup == single-process numpy reference over the
    full sf0.001 embeddings table: centroids train driver-side (shared
    code path), so assignment + prune must agree EXACTLY."""
    from ocrs_ray.ops.similarity import (
        _stream_head_sample,
        _unit,
        load_embedding_matrix,
        semdedup_prune,
        semdedup_prune_order,
        semdedup_survivors,
        spherical_kmeans,
    )

    # the synthetic embeddings are near-random (max pairwise cosine
    # 0.479) — prune at tau=0.35 so the test exercises real pruning;
    # realistic-eps behavior on planted duplicates is the next test
    nlist, eps, seed = 8, 0.65, 13
    out = (
        semdedup_survivors(SF, nlist=nlist, eps=eps, seed=seed)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )

    sample = _unit(
        np.asarray(_stream_head_sample(SF, max(nlist * 64, 512)), dtype=np.float64)
    )
    cents = spherical_kmeans(sample, nlist, seed=seed, iters=10)
    ids, mat = load_embedding_matrix(SF)
    unit = _unit(mat.astype(np.float64))
    assign = np.argmax(unit @ cents.T, axis=1)
    want_v, want_c = [], []
    for cid in np.unique(assign):
        sel = assign == cid
        vid, u = ids[sel], unit[sel]
        srt = np.argsort(vid)
        vid, u = vid[srt], u[srt]
        order = semdedup_prune_order(u, cents[cid], vid)
        keep = semdedup_prune(u, order, 1.0 - eps)
        want_v.append(vid[keep])
        want_c.append(np.full(int(keep.sum()), cid, dtype=np.int64))
    want = (
        pd.DataFrame(
            {
                "vec_id": np.concatenate(want_v),
                "cluster_id": np.concatenate(want_c),
            }
        )
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    # some rows must actually be pruned for the test to mean anything
    assert len(want) < len(ids)
    pd.testing.assert_frame_equal(out, want)


def test_semdedup_survivors_planted_duplicates(ray_session, tmp_path):
    """E2E at realistic eps on a crafted table: 3 exact copies + 1
    tiny-perturbation near-dup of one base vector collapse to ONE
    survivor (the lowest vec_id among the equal-centroid-sim copies);
    all well-separated vectors survive."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocrs_ray.ops.similarity import semdedup_survivors

    rng = np.random.default_rng(5)
    base = rng.normal(size=(20, 16))
    dup_grp = np.stack(
        [base[0], base[0], base[0], base[0] + 0.001 * rng.normal(size=16)]
    )
    mat = np.concatenate([dup_grp, base[1:]])
    n = len(mat)
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(np.arange(n, dtype=np.int64)),
                "embedding": pa.array(
                    [r.astype(np.float32).tolist() for r in mat],
                    type=pa.list_(pa.float32()),
                ),
                "label": pa.array(np.zeros(n, dtype=np.int32)),
            }
        ),
        str(tmp_path / "embeddings.parquet"),
        row_group_size=7,  # group split across row groups/blocks
    )
    out = semdedup_survivors(
        str(tmp_path), nlist=4, eps=0.05, seed=13
    ).to_pandas()
    kept = set(out["vec_id"])
    # exactly one survivor from the 4-member dup group
    assert len(kept & {0, 1, 2, 3}) == 1
    # every base vector (random gaussians, mutually far) survives
    assert kept >= set(range(4, n))
    assert len(out) == n - 3


def test_docs_semdedup_survivors_matches_reference(ray_session):
    """The documents-table composition (hashing-embed pool -> semantic
    dedup) == single-process reference using the SAME embed/train/
    prune kernels over sf0.001."""
    import pyarrow.parquet as pq

    from ocrs_ray.ops.similarity import (
        HashingEmbedder,
        _unit,
        docs_semdedup_survivors,
        semdedup_prune,
        semdedup_prune_order,
        spherical_kmeans,
    )

    dim, nlist, eps, seed = 64, 8, 0.5, 13
    out = (
        docs_semdedup_survivors(SF, dim=dim, nlist=nlist, eps=eps, seed=seed)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ids = np.asarray(docs.column("doc_id").to_pylist(), dtype=np.int64)
    emb = HashingEmbedder(dim)
    mat = np.asarray(
        [emb.embed_one(t) for t in docs.column("text").to_pylist()],
        dtype=np.float64,
    )
    want = max(nlist * 64, 512)
    cents = spherical_kmeans(_unit(mat[:want]), nlist, seed=seed, iters=10)
    unit = _unit(mat)
    assign = np.argmax(unit @ cents.T, axis=1)
    want_v, want_c = [], []
    for cid in np.unique(assign):
        sel = assign == cid
        vid, u = ids[sel], unit[sel]
        srt = np.argsort(vid)
        vid, u = vid[srt], u[srt]
        order = semdedup_prune_order(u, cents[cid], vid)
        keep = semdedup_prune(u, order, 1.0 - eps)
        want_v.append(vid[keep])
        want_c.append(np.full(int(keep.sum()), cid, dtype=np.int64))
    ref = (
        pd.DataFrame(
            {
                "doc_id": np.concatenate(want_v),
                "cluster_id": np.concatenate(want_c),
            }
        )
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # the corpus HAS textual near-dups at cosine >= 0.5 — real pruning
    assert len(ref) < len(ids)
    pd.testing.assert_frame_equal(out, ref)


def test_semdedup_max_cluster_rows_guard(ray_session, tmp_path):
    """The partitioning-assumption guard raises LOUDLY when a cluster
    exceeds max_cluster_rows (instead of silently attempting an m^2
    prune that cannot scale)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocrs_ray.ops.similarity import semdedup_survivors

    rng = np.random.default_rng(3)
    mat = rng.normal(size=(40, 8))
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(np.arange(40, dtype=np.int64)),
                "embedding": pa.array(
                    [r.astype(np.float32).tolist() for r in mat],
                    type=pa.list_(pa.float32()),
                ),
                "label": pa.array(np.zeros(40, dtype=np.int32)),
            }
        ),
        str(tmp_path / "embeddings.parquet"),
    )
    with pytest.raises(Exception, match="max_cluster_rows"):
        semdedup_survivors(
            str(tmp_path), nlist=2, eps=0.05, max_cluster_rows=5
        ).count()


# ---------------------------------------------------------------------------
# Ops stages run as tasks; broadcast sides come from `worker_value`


def test_ops_stages_run_as_tasks():
    """No ops stage is an actor pool: `map_batches` gets a function or a
    callable instance, never a class, and no pool options. A class
    (with `concurrency`/`fn_constructor_args`) makes Ray Data boot a
    fresh actor pool per execution that cannot fuse with its read."""
    import ast
    import pathlib

    import ocrs_ray.ops

    pool_kwargs = {"concurrency", "fn_constructor_args", "fn_constructor_kwargs"}
    bad = []
    for path in sorted(pathlib.Path(ocrs_ray.ops.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        classes = {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
        for call in ast.walk(tree):
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "map_batches"
            ):
                continue
            first = call.args[0] if call.args else None
            names_class = isinstance(first, ast.Name) and first.id in classes
            kwargs = {k.arg for k in call.keywords} & pool_kwargs
            if names_class or kwargs:
                bad.append(f"{path.name}:{call.lineno}")
    assert not bad, f"actor-pool map_batches stages: {bad}"


def test_ops_read_through_session_kernel():
    """No ops module reads parquet or patches a dataset's context by
    hand: tables come from `session.read_table`, which configures the
    session before the dataset is created."""
    import ast
    import pathlib

    import ocrs_ray.ops

    banned = {"read_parquet", "enable_hash_shuffle"}
    bad = []
    for path in sorted(pathlib.Path(ocrs_ray.ops.__file__).parent.glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if isinstance(call, ast.Call):
                f = call.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in banned:
                    bad.append(f"{path.name}:{call.lineno} {name}")
    assert not bad, f"ops calls outside the session kernel: {bad}"


def test_worker_value_caches_per_process(ray_session, monkeypatch):
    import ray

    from ocrs_ray import pipeline

    monkeypatch.setattr(pipeline, "_VALUES", {})
    gets = []
    real_get = ray.get

    def counting_get(refs, *a, **kw):
        gets.append(refs)
        return real_get(refs, *a, **kw)

    monkeypatch.setattr(ray, "get", counting_get)
    ref = ray.put({"a": 1})
    first = pipeline.worker_value(ref)
    assert first == {"a": 1}
    assert pipeline.worker_value(ref) is first
    assert len(gets) == 1
    # A different conversion of the same ref is its own entry.
    assert pipeline.worker_value(ref, sorted) == ["a"]
    assert len(gets) == 2
    assert pipeline.worker_value(ref) is first
    assert len(gets) == 2
    # Full at the bound: the next new value clears the old entries.
    others = [ray.put(i) for i in range(pipeline._VALUES_MAX - 1)]
    for r in others[:-1]:
        pipeline.worker_value(r)
    assert len(pipeline._VALUES) == pipeline._VALUES_MAX
    assert pipeline.worker_value(others[-1]) == len(others) - 1
    assert len(pipeline._VALUES) == 1
    n = len(gets)
    assert pipeline.worker_value(ref) == {"a": 1}
    assert len(gets) == n + 1


def test_pagerank_block_frame_matches_direct_concat(ray_session):
    """pagerank's stationary-block fetch (`worker_value(refs,
    _block_frame)`) equals the direct concat of the blocks in ref-id
    order, for arrow and pandas blocks alike."""
    import pyarrow as pa
    import ray

    from ocrs_ray.ops.extraction import _block_frame
    from ocrs_ray.pipeline import worker_value

    blocks = [
        pa.table({"src": [1, 2], "dst": [3, 4]}),
        pd.DataFrame({"src": [5], "dst": [6]}),
        pa.table({"src": [7, 8, 9], "dst": [1, 1, 2]}),
    ]
    refs = [ray.put(b) for b in blocks]
    want = pa.concat_tables(
        [
            b if isinstance(b, pa.Table) else pa.Table.from_pandas(b)
            for b in ray.get(sorted(refs, key=lambda r: r.hex()))
        ]
    ).to_pandas()
    got = worker_value(set(refs), _block_frame)
    pd.testing.assert_frame_equal(got, want)
    assert worker_value(list(reversed(refs)), _block_frame) is got
    one = worker_value(refs[:1], _block_frame)
    pd.testing.assert_frame_equal(one, blocks[0].to_pandas())


def test_bloom_probe_runs_on_task_pool(ray_session):
    """`active_customers_bloom`'s probe stage runs as Ray tasks
    (`TaskPoolMapOperator`), not on an actor pool booted per execution."""
    from ray.data._internal.compute import TaskPoolStrategy

    from ocrs_ray.ops.sketch import active_customers_bloom

    ds = active_customers_bloom(SF)

    def logical_ops(op):
        yield op
        for dep in op.input_dependencies:
            yield from logical_ops(dep)

    compute = {
        op.name: op._compute
        for op in logical_ops(ds._logical_plan.dag)
        if hasattr(op, "_compute")
    }
    assert set(compute) == {"ReadParquet", "MapBatches(probe)"}
    assert all(isinstance(c, TaskPoolStrategy) for c in compute.values())
    assert " MapBatches(probe): " in ds.materialize().stats()
