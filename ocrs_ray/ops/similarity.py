"""Similarity search over the embeddings table.

- `ann_topk_bruteforce`: exact cosine top-k against a broadcast query
  matrix — numpy matmul per batch; the correctness baseline.
- `ann_topk_lsh`: random-hyperplane LSH bucketing (Charikar 2002) —
  the scale path: candidates only come from matching buckets across a
  few hash tables, so each batch multiplies against a small slice.
- `ann_topk_ivf`: IVF-flat (inverted-file) — spherical k-means
  centroids trained once on a sample, broadcast; each batch assigns its
  vectors to centroids and scans only the `nprobe` cells nearest each
  query. At nprobe == nlist it degrades to exact brute force (pinned in
  tests).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from ..pipeline import worker_value
from ..session import read_table

__all__ = [
    "HashingEmbedder",
    "docs_embed_hashing",
    "load_embedding_matrix",
    "ann_topk_bruteforce",
    "ann_topk_lsh",
    "ann_topk_ivf",
    "ann_topk_pq",
    "ann_topk_ivfpq",
    "spherical_kmeans",
    "kmeans_embeddings",
    "semdedup_survivors",
    "docs_semdedup_survivors",
    "semdedup_prune",
    "semdedup_prune_order",
    "embedding_label_centroid",
    "embedding_top_component",
    "embedding_quantize_int8",
    "ann_topk_int8",
]


def _vec_ids(tbl: "pa.Table", col: str) -> np.ndarray:
    """An id column as int64 numpy, without a Python object per row."""
    return np.asarray(tbl.column(col).to_numpy(zero_copy_only=False), dtype=np.int64)


def embedding_batch_matrix(tbl: "pa.Table") -> np.ndarray:
    """Vectorized (n, d) float64 matrix from an Arrow list<float>
    embedding column: flatten -> numpy -> reshape. Replaces per-row
    to_pylist (one Python object per element) on every corpus-scan hot
    path; the corpus contract guarantees a fixed dimension."""
    col = tbl.column("embedding")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty((0, 0), dtype=np.float64)
    if not hasattr(col, "flatten"):
        # Ray's ArrowTensorArray (a pandas column of fixed-size numpy
        # vectors converts to the tensor extension type, not
        # list<float>): to_numpy gives the dense (n, d) block directly
        return np.asarray(
            col.to_numpy(zero_copy_only=False), dtype=np.float64
        ).reshape(n, -1)
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(n, -1)


def f64_list_array(mat: np.ndarray) -> "pa.Array":
    """Arrow list<double> column from a 2-D float array with no
    per-element Python objects (offsets + flat values)."""
    n, d = mat.shape
    offsets = pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int64), type=pa.int64())
    values = pa.array(np.ascontiguousarray(mat, dtype=np.float64).ravel(), type=pa.float64())
    return pa.LargeListArray.from_arrays(offsets, values).cast(pa.list_(pa.float64()))


def load_embedding_matrix(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """Full-table driver read — TEST/REFERENCE USE ONLY (brute-force
    baselines in tests/). No corpus-path operator calls this; the ops
    below prepare queries/samples with `_query_vectors` /
    `_stream_head_sample`, which stay bounded at any corpus size."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64)
    mat = embedding_batch_matrix(t)
    return ids, mat


def _query_vectors(sf_dir: str, n_queries: int) -> tuple[np.ndarray, np.ndarray]:
    """The `n_queries` smallest vec_ids and their embeddings WITHOUT a
    full-table driver read: pass 1 streams only the vec_id column
    (distributed per-block bottom-k partials, tiny driver reduce of
    blocks x n_queries ids); pass 2 re-reads just those rows through a
    pushdown filter (parquet row-group pruning). Driver memory is
    O(n_queries), independent of the corpus."""
    import pyarrow.parquet as pq

    path = f"{sf_dir}/embeddings.parquet"

    def partial_bottomk(t: pa.Table) -> pa.Table:
        v = np.sort(np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64))
        return pa.table({"vec_id": pa.array(v[:n_queries], type=pa.int64())})

    parts = (
        read_table(path, columns=["vec_id"])
        .map_batches(partial_bottomk, batch_format="pyarrow")
        .take_all()
    )
    q_ids = np.sort(np.array([r["vec_id"] for r in parts], dtype=np.int64))[:n_queries]
    tbl = pq.read_table(
        path,
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", q_ids.tolist())],
    )
    vid = np.asarray(tbl.column("vec_id").to_pylist(), dtype=np.int64)
    emb = embedding_batch_matrix(tbl)
    order = np.argsort(vid)
    return vid[order], emb[order]


def _stream_head_sample(sf_dir: str, want: int) -> np.ndarray:
    """Deterministic bounded sample: stream row groups in file order
    until `want` rows — never loads the full table (same idiom as
    `kmeans_embeddings` init)."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    frames, got = [], 0
    for rb in pf.iter_batches(batch_size=want, columns=["embedding"]):
        frames.append(rb)
        got += rb.num_rows
        if got >= want:
            break
    tbl = pa.Table.from_batches(frames)
    return embedding_batch_matrix(tbl)[:want]


def _unit(mat: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(mat, axis=1)
    n[n == 0] = 1.0
    return mat / n[:, None]


def _local_topk_select(
    cand_ids: np.ndarray, cand_sims: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k by (-sim, id): tie-EXACT. A plain argpartition truncation
    keeps an arbitrary subset of candidates tied at the k-th similarity,
    which breaks the 'IVF at nprobe==nlist == brute force' invariant on
    tied inputs; instead partition for the k-th value, keep ALL ties at
    the threshold (still O(B)), then sort the small survivor set."""
    if len(cand_ids) > k:
        kth = np.partition(cand_sims, len(cand_sims) - k)[len(cand_sims) - k]
        keep = cand_sims >= kth
        cand_ids, cand_sims = cand_ids[keep], cand_sims[keep]
    sel = np.lexsort((cand_ids, -cand_sims))[:k]
    return cand_ids[sel], cand_sims[sel]


def ann_topk_bruteforce(
    sf_dir: str, n_queries: int = 10, k: int = 10
) -> rd.Dataset:
    """Exact top-k cosine neighbors for the first `n_queries` vectors.

    The query matrix is broadcast once (`ray.put`); each batch of the
    corpus computes a vectorized sims block and emits its local top-k
    candidates; a final small groupby keeps the global top-k. Ties break
    on neighbor id ascending (pinned so the SQL oracle matches).
    Query prep is the bounded two-pass `_query_vectors` — the corpus is
    never loaded on the driver.
    """
    q_ids, q_mat = _query_vectors(sf_dir, n_queries)
    q_unit = _unit(q_mat)
    ref = ray.put((q_ids, q_unit))

    def local_topk(batch: pa.Table) -> pa.Table:
        q_ids, q_unit = worker_value(ref)
        vid = _vec_ids(batch, "vec_id")
        emb = embedding_batch_matrix(batch)
        sims = q_unit @ _unit(emb).T  # (Q, B)
        out_q, out_n, out_s = [], [], []
        for qi in range(len(q_ids)):
            row = sims[qi]
            mask = vid != q_ids[qi]  # exclude self
            top_ids, top_sims = _local_topk_select(vid[mask], row[mask], k)
            out_q.extend([q_ids[qi]] * len(top_ids))
            out_n.extend(top_ids.tolist())
            out_s.extend(top_sims.tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "neighbor_id": pa.array(out_n, type=pa.int64()),
                "cosine": pa.array(out_s, type=pa.float64()),
            }
        )

    local = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(local_topk, batch_format="pyarrow", batch_size=2048)

    return _finalize_topk(local, k)


def _finalize_topk(local: rd.Dataset, k: int) -> rd.Dataset:
    """Global top-k from per-block partial top-k candidates.

    The candidate set is at most (blocks x queries x k) rows — tiny
    relative to the corpus — so the final reduce is a single-block
    vectorized sort, not a hash shuffle. With a large query set this
    becomes `groupby(query_id).map_groups` instead; the shuffle payload
    is still only the candidates, never the embedding matrix.
    """

    def global_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = df.sort_values(
            ["query_id", "cosine", "neighbor_id"], ascending=[True, False, True]
        )
        g = g.groupby("query_id", as_index=False, sort=True).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = g.groupby("query_id").cumcount().to_numpy() + 1
        return g[["query_id", "neighbor_id", "rank"]]

    return local.repartition(1).map_batches(
        global_topk, batch_format="pandas", batch_size=None
    )


def ann_topk_lsh(
    sf_dir: str,
    n_queries: int = 10,
    k: int = 10,
    n_planes: int = 12,
    n_tables: int = 6,
    seed: int = 11,
) -> rd.Dataset:
    """Approximate top-k via random-hyperplane LSH.

    Each vector lands in `n_tables` sign-pattern buckets; only buckets
    containing a query are scanned. Recall is approximate by design —
    validated against the brute-force baseline in tests, not an SQL
    oracle. Query prep via bounded `_query_vectors`; the planes are a
    pure function of (seed, dim).
    """
    q_ids, q_mat = _query_vectors(sf_dir, n_queries)
    q_unit = _unit(q_mat)
    dim = q_unit.shape[1]
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((n_tables, n_planes, dim))

    def bucket_of(vecs: np.ndarray, t: int) -> np.ndarray:
        signs = (vecs @ planes[t].T) > 0
        return (signs * (1 << np.arange(n_planes))).sum(axis=1)

    q_buckets = np.stack([bucket_of(q_unit, t) for t in range(n_tables)], axis=1)
    wanted: dict[tuple[int, int], list[int]] = {}
    for qi in range(len(q_ids)):
        for t in range(n_tables):
            wanted.setdefault((t, int(q_buckets[qi, t])), []).append(qi)
    ref = ray.put((q_ids, q_unit, planes, wanted))

    def bucket_scan(batch: pa.Table) -> pa.Table:
        q_ids, q_unit, planes, wanted = worker_value(ref)
        vid = _vec_ids(batch, "vec_id")
        emb = _unit(embedding_batch_matrix(batch))
        n_t = planes.shape[0]
        n_p = planes.shape[1]
        out_q, out_n, out_s = [], [], []
        cand_by_q: dict[int, set[int]] = {}
        for t in range(n_t):
            signs = (emb @ planes[t].T) > 0
            buckets = (signs * (1 << np.arange(n_p))).sum(axis=1)
            for row, b in enumerate(buckets):
                for qi in wanted.get((t, int(b)), ()):  # noqa: B905
                    cand_by_q.setdefault(qi, set()).add(row)
        for qi, rows in cand_by_q.items():
            rows = sorted(rows)
            sims = emb[rows] @ q_unit[qi]
            for r, s in zip(rows, sims):
                if vid[r] != q_ids[qi]:
                    out_q.append(q_ids[qi])
                    out_n.append(int(vid[r]))
                    out_s.append(float(s))
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "neighbor_id": pa.array(out_n, type=pa.int64()),
                "cosine": pa.array(out_s, type=pa.float64()),
            }
        )

    local = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(bucket_scan, batch_format="pyarrow", batch_size=2048)

    return _finalize_topk(local, k)


def spherical_kmeans(
    unit_vecs: np.ndarray, nlist: int, seed: int = 13, iters: int = 10
) -> np.ndarray:
    """Deterministic spherical k-means (cosine): seeded init, fixed
    iteration count, centroids re-normalized each round. Empty cells
    keep their previous centroid so nlist is stable."""
    rng = np.random.default_rng(seed)
    init = rng.permutation(len(unit_vecs))[:nlist]
    cents = unit_vecs[init].copy()
    for _ in range(iters):
        assign = np.argmax(unit_vecs @ cents.T, axis=1)
        for c in range(nlist):
            members = unit_vecs[assign == c]
            if len(members):
                cents[c] = members.sum(axis=0)
        cents = _unit(cents)
    return cents


def ann_topk_ivf(
    sf_dir: str,
    n_queries: int = 10,
    k: int = 10,
    nlist: int = 16,
    nprobe: int = 4,
    train_sample: int = 4096,
    seed: int = 13,
) -> rd.Dataset:
    """Approximate top-k via an IVF-flat index.

    Train: spherical k-means on a deterministic sample (driver-side,
    once; at 100 TB this trains on `ds.random_sample`-style hash-mod
    sample and the centroid matrix — nlist x dim, a few MB — is the
    ONLY broadcast state). Search: each batch computes its vectors'
    cell assignments vectorized, and for every query scans only the
    `nprobe` cells nearest the query; candidates reduce through the
    same local-top-k + single-block finalize as the exact baseline.
    Recall is tunable via nprobe; nprobe == nlist is exactly brute
    force. Query prep via bounded `_query_vectors`; training streams a
    bounded head sample (`_stream_head_sample`) — the full table never
    reaches the driver.
    """
    q_ids, q_mat = _query_vectors(sf_dir, n_queries)
    q_unit = _unit(q_mat)

    sample = _unit(_stream_head_sample(sf_dir, train_sample))
    cents = spherical_kmeans(sample, min(nlist, len(sample)), seed=seed)
    # Cells each query probes: nprobe nearest centroids.
    q_cells = np.argsort(-(q_unit @ cents.T), axis=1)[:, :nprobe]
    probe_by_cell: dict[int, list[int]] = {}
    for qi in range(len(q_ids)):
        for c in q_cells[qi]:
            probe_by_cell.setdefault(int(c), []).append(qi)
    ref = ray.put((q_ids, q_unit, cents, probe_by_cell, k))

    def cell_scan(batch: pa.Table) -> pa.Table:
        q_ids, q_unit, cents, probe_by_cell, k = worker_value(ref)
        vid = _vec_ids(batch, "vec_id")
        emb = _unit(embedding_batch_matrix(batch))
        assign = np.argmax(emb @ cents.T, axis=1)
        out_q, out_n, out_s = [], [], []
        for cell, qis in probe_by_cell.items():
            rows = np.flatnonzero(assign == cell)
            if not len(rows):
                continue
            sims = emb[rows] @ q_unit[qis].T  # (rows, probes)
            for j, qi in enumerate(qis):
                col = sims[:, j]
                mask = vid[rows] != q_ids[qi]
                top_ids, top_sims = _local_topk_select(
                    vid[rows][mask], col[mask], k
                )
                out_q.extend([q_ids[qi]] * len(top_ids))
                out_n.extend(top_ids.tolist())
                out_s.extend(top_sims.tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "neighbor_id": pa.array(out_n, type=pa.int64()),
                "cosine": pa.array(out_s, type=pa.float64()),
            }
        )

    local = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(cell_scan, batch_format="pyarrow", batch_size=2048)

    return _finalize_topk(local, k)


def _pq_kmeans(
    vecs: np.ndarray, k: int, seed: int, iters: int = 10
) -> np.ndarray:
    """Deterministic plain (Euclidean) k-means for PQ codebook
    training: seeded permutation init, fixed iterations, empty cells
    keep their previous centroid. Spherical k-means is wrong here —
    subvectors are NOT unit vectors and re-normalizing centroids
    would bias the reconstruction."""
    rng = np.random.default_rng(seed)
    cents = vecs[rng.permutation(len(vecs))[:k]].copy()
    for _ in range(iters):
        d2 = (
            -2.0 * (vecs @ cents.T)
            + (cents**2).sum(axis=1)[None, :]
        )
        assign = np.argmin(d2, axis=1)
        for c in range(len(cents)):
            members = vecs[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
    return cents


def _pq_train(
    sample_unit: np.ndarray, m_subspaces: int, n_codes: int, seed: int
) -> np.ndarray:
    """Per-subspace codebooks (m, n_codes, d/m) trained on the unit
    sample. `m_subspaces` is lowered to the largest divisor of the
    dimension so subvector blocks tile exactly (deterministic)."""
    d = sample_unit.shape[1]
    m = max(1, min(m_subspaces, d))
    while d % m:
        m -= 1
    sub = d // m
    k = min(n_codes, len(sample_unit))
    cbs = np.empty((m, k, sub), dtype=np.float64)
    for b in range(m):
        cbs[b] = _pq_kmeans(
            sample_unit[:, b * sub : (b + 1) * sub], k, seed + b
        )
    return cbs


def ann_topk_pq(
    sf_dir: str,
    n_queries: int = 10,
    k: int = 10,
    m_subspaces: int = 8,
    n_codes: int = 256,
    train_sample: int = 4096,
    shortlist: int | None = None,
    seed: int = 17,
) -> rd.Dataset:
    """Approximate top-k via product quantization with asymmetric
    distance (ADC) and exact rerank (Jegou et al. 2011, "Product
    Quantization for Nearest Neighbor Search").

    Train: per-subspace Euclidean k-means codebooks on a deterministic
    head sample (driver-side once; the m x n_codes x d/m codebook
    tensor — a few KB — is the ONLY broadcast state). Search: each
    batch encodes its vectors to PQ codes vectorized, scores every
    query by summed codebook lookup tables (approximate inner product
    against UNIT corpus vectors == approximate cosine), keeps a
    `shortlist` of candidates per query, and reranks the shortlist
    with EXACT cosine — so emitted similarities are exact and only
    RECALL is approximate. shortlist >= batch size degrades to exact
    brute force (pinned in tests, the nprobe==nlist analog).

    Scale shape: at 100 TB the codes (m bytes/vector) would be
    precomputed once into a codes column and the scan reads codes
    instead of embeddings — an 8-32x read-volume cut; here encoding is
    per-batch on the fly, which keeps the op a pure function of the
    embeddings table. No shuffle; candidates reduce through the shared
    single-block finalize.

    Default n_codes=256 is the production-standard 8-bit codebook
    (Jegou 2011 uses k*=256 throughout). Measured recall@10 vs exact at
    sf0.001, m=8, shortlist=4k: n_codes=16 -> 0.64, 64 -> 0.78,
    256 -> 0.95 (1.00 at shortlist=8k); the >= 0.85 bar is pinned in
    tests/test_ops.py.
    """
    if shortlist is None:
        shortlist = 4 * k
    q_ids, q_mat = _query_vectors(sf_dir, n_queries)
    q_unit = _unit(q_mat)
    sample = _unit(_stream_head_sample(sf_dir, train_sample))
    cbs = _pq_train(sample, m_subspaces, n_codes, seed)
    ref = ray.put((q_ids, q_unit, cbs, k, shortlist))

    def pq_scan(batch: pa.Table) -> pa.Table:
        q_ids, q_unit, cbs, k, shortlist = worker_value(ref)
        vid = _vec_ids(batch, "vec_id")
        emb = _unit(embedding_batch_matrix(batch))
        m, _codes, sub = cbs.shape
        n = len(vid)
        codes = np.empty((n, m), dtype=np.int64)
        for b in range(m):
            x = emb[:, b * sub : (b + 1) * sub]
            d2 = (
                -2.0 * (x @ cbs[b].T)
                + (cbs[b] ** 2).sum(axis=1)[None, :]
            )
            codes[:, b] = np.argmin(d2, axis=1)
        out_q, out_n, out_s = [], [], []
        for qi in range(len(q_ids)):
            approx = np.zeros(n, dtype=np.float64)
            for b in range(m):
                lut = cbs[b] @ q_unit[qi, b * sub : (b + 1) * sub]
                approx += lut[codes[:, b]]
            mask = vid != q_ids[qi]  # exclude self
            rows = np.flatnonzero(mask)
            # shortlist by ADC score, tie-broken on id so the
            # exact-degenerate path is deterministic
            sel = np.lexsort((vid[rows], -approx[rows]))[: shortlist]
            cand = rows[sel]
            exact = emb[cand] @ q_unit[qi]
            top_ids, top_sims = _local_topk_select(
                vid[cand], exact, k
            )
            out_q.extend([q_ids[qi]] * len(top_ids))
            out_n.extend(top_ids.tolist())
            out_s.extend(top_sims.tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "neighbor_id": pa.array(out_n, type=pa.int64()),
                "cosine": pa.array(out_s, type=pa.float64()),
            }
        )

    local = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(pq_scan, batch_format="pyarrow", batch_size=2048)

    return _finalize_topk(local, k)


def ann_topk_ivfpq(
    sf_dir: str,
    n_queries: int = 10,
    k: int = 10,
    nlist: int = 16,
    nprobe: int = 12,
    m_subspaces: int = 8,
    n_codes: int = 256,
    train_sample: int = 4096,
    shortlist: int | None = None,
    seed: int = 13,
) -> rd.Dataset:
    """Approximate top-k via IVF + residual PQ (IVFADC, Jegou et al.
    2011 §V) — the composed production scale path: the IVF coarse
    quantizer bounds the scan to `nprobe` cells per query AND the PQ
    codes bound the bytes touched per scanned vector.

    Train (driver-side once, on a bounded head sample): spherical
    k-means coarse centroids, then Euclidean k-means codebooks on the
    RESIDUALS x - c(x) pooled across cells — residual magnitudes are
    much smaller than vector magnitudes, so the same code budget
    quantizes finer than plain PQ. Broadcast state is the nlist x dim
    centroid matrix plus the m x n_codes x d/m codebook tensor (a few
    hundred KB).

    Search per batch: assign vectors to cells (vectorized argmax),
    encode residuals, then for each query scan only its `nprobe` cells;
    the ADC score is q . c(x) + sum_b LUT_b[code_b(x)] (exact inner
    product against the reconstruction), a `shortlist` survives per
    query, and the shortlist reranks with EXACT cosine — emitted
    similarities are exact, only recall is approximate. At
    nprobe == nlist and shortlist >= batch size it degrades to exact
    brute force (pinned in tests, the nprobe==nlist / full-shortlist
    analog of the IVF and PQ ops).

    Measured recall@10 vs exact at sf0.001 (nlist=16, m=8, n_codes=256,
    shortlist=4k, across seeds): nprobe=8 -> 0.74-0.80, 10 ->
    0.84-0.88, 12 -> 0.88-0.98 — recall is gated by cell-probe misses
    (same curve as IVF-flat), while in-cell ranking matches plain 8-bit
    PQ. The nprobe/nlist ratio at the 500-row test scale is high
    because true neighbors spread over many of the 16 cells; at corpus
    scale nlist grows ~sqrt(n) and nprobe/nlist shrinks. The >= 0.85
    bar at the nprobe=12 default is pinned in tests/test_ops.py.

    Scale shape: at 100 TB the cell id (2 bytes) and codes (m bytes)
    are precomputed columns, the table is PARTITIONED by cell id so a
    probe reads only its cells' fragments, and the scan never touches
    the float embeddings except for the shortlist rerank — the full
    IVFADC read-volume story. Here assignment/encoding run per batch on
    the fly so the op stays a pure function of the embeddings table.
    """
    if shortlist is None:
        shortlist = 4 * k
    q_ids, q_mat = _query_vectors(sf_dir, n_queries)
    q_unit = _unit(q_mat)
    sample = _unit(_stream_head_sample(sf_dir, train_sample))
    cents = spherical_kmeans(sample, min(nlist, len(sample)), seed=seed)
    s_assign = np.argmax(sample @ cents.T, axis=1)
    cbs = _pq_train(sample - cents[s_assign], m_subspaces, n_codes, seed)
    # Cells each query probes: nprobe nearest centroids.
    q_cells = np.argsort(-(q_unit @ cents.T), axis=1)[:, :nprobe]
    ref = ray.put((q_ids, q_unit, cents, cbs, q_cells, k, shortlist))

    def ivfpq_scan(batch: pa.Table) -> pa.Table:
        q_ids, q_unit, cents, cbs, q_cells, k, shortlist = worker_value(ref)
        vid = _vec_ids(batch, "vec_id")
        emb = _unit(embedding_batch_matrix(batch))
        assign = np.argmax(emb @ cents.T, axis=1)
        resid = emb - cents[assign]
        m, _codes, sub = cbs.shape
        codes = np.empty((len(vid), m), dtype=np.int64)
        for b in range(m):
            x = resid[:, b * sub : (b + 1) * sub]
            d2 = (
                -2.0 * (x @ cbs[b].T)
                + (cbs[b] ** 2).sum(axis=1)[None, :]
            )
            codes[:, b] = np.argmin(d2, axis=1)
        out_q, out_n, out_s = [], [], []
        for qi in range(len(q_ids)):
            member = np.isin(assign, q_cells[qi]) & (
                vid != q_ids[qi]
            )
            rows = np.flatnonzero(member)
            if not len(rows):
                continue
            qv = q_unit[qi]
            approx = cents[assign[rows]] @ qv
            for b in range(m):
                lut = cbs[b] @ qv[b * sub : (b + 1) * sub]
                approx = approx + lut[codes[rows, b]]
            # shortlist by ADC score, tie-broken on id so the
            # exact-degenerate path is deterministic
            sel = np.lexsort((vid[rows], -approx))[: shortlist]
            cand = rows[sel]
            exact = emb[cand] @ qv
            top_ids, top_sims = _local_topk_select(
                vid[cand], exact, k
            )
            out_q.extend([q_ids[qi]] * len(top_ids))
            out_n.extend(top_ids.tolist())
            out_s.extend(top_sims.tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "neighbor_id": pa.array(out_n, type=pa.int64()),
                "cosine": pa.array(out_s, type=pa.float64()),
            }
        )

    local = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(ivfpq_scan, batch_format="pyarrow", batch_size=2048)

    return _finalize_topk(local, k)


def kmeans_embeddings(
    sf_dir: str, k: int = 8, iters: int = 5, seed: int = 13
) -> rd.Dataset:
    """Distributed Lloyd's k-means over the full embeddings table.

    The iterative broadcast-and-reduce pattern: each round the k x dim
    centroid matrix (the ONLY driver-held state, a few KB) is broadcast
    via `ray.put`; `map_batches` computes per-batch partial statistics
    (cluster -> sum vector, count) vectorized; partials reduce on the
    driver in a deterministic order (sorted by batch min vec_id) so the
    float summation — and therefore the trained centroids — is
    reproducible run-to-run GIVEN the same block/batch boundaries (same
    input files and batch_size; a different blocking regroups the float
    additions, which can drift centroids by ulps). The corpus itself
    streams every round and is never materialized.

    Init: seeded permutation of a deterministic head sample (same idiom
    as `spherical_kmeans`). Final pass emits (vec_id, cluster_id).
    Iterative — not SQL-expressible; invariants pinned in tests.
    """
    import pyarrow.parquet as pq

    # Init sample: stream row groups until enough rows — never loads
    # the full table on the driver.
    want = max(k * 64, 512)
    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    frames = []
    got = 0
    for rb in pf.iter_batches(batch_size=want, columns=["embedding"]):
        frames.append(rb)
        got += rb.num_rows
        if got >= want:
            break
    hmat = np.array(
        [e for rb in frames for e in rb.column("embedding").to_pylist()][:want],
        dtype=np.float64,
    )
    rng = np.random.default_rng(seed)
    cents = hmat[rng.permutation(len(hmat))[:k]].copy()

    def read() -> rd.Dataset:
        return read_table(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )

    def partial_stats(batch: pa.Table, ref) -> pa.Table:
        c = worker_value(ref)
        if batch.num_rows == 0:
            return pa.table(
                {
                    "cluster": pa.array([], type=pa.int64()),
                    "n": pa.array([], type=pa.int64()),
                    "sum": pa.array([], type=pa.list_(pa.float64())),
                    "batch_min_vec": pa.array([], type=pa.int64()),
                }
            )
        vid = _vec_ids(batch, "vec_id")
        emb = embedding_batch_matrix(batch)
        # Squared euclidean distance argmin (ties -> lowest cluster id).
        d2 = (emb**2).sum(1)[:, None] - 2 * emb @ c.T + (c**2).sum(1)[None, :]
        assign = np.argmin(d2, axis=1)
        rows_c, rows_n = [], []
        sums = []
        for ci in np.unique(assign):
            members = emb[assign == ci]
            rows_c.append(int(ci))
            rows_n.append(len(members))
            sums.append(members.sum(axis=0))
        return pa.table(
            {
                "cluster": pa.array(rows_c, type=pa.int64()),
                "n": pa.array(rows_n, type=pa.int64()),
                "sum": pa.array([s.tolist() for s in sums], type=pa.list_(pa.float64())),
                "batch_min_vec": pa.array(
                    [int(vid.min())] * len(rows_c), type=pa.int64()
                ),
            }
        )

    for _ in range(iters):
        ref = ray.put(cents)
        parts = (
            read()
            .map_batches(
                partial_stats, fn_kwargs={"ref": ref}, batch_format="pyarrow",
                batch_size=2048,
            )
            .to_pandas()
        )
        parts = parts.sort_values(["cluster", "batch_min_vec"], kind="stable")
        new = cents.copy()
        for ci, grp in parts.groupby("cluster", sort=True):
            total = np.sum(np.stack(grp["sum"].to_numpy()), axis=0)
            n = int(grp["n"].sum())
            if n:
                new[int(ci)] = total / n
        cents = new

    final_ref = ray.put(cents)

    def assign_cluster(batch: pa.Table) -> pa.Table:
        cents = worker_value(final_ref)
        vid = _vec_ids(batch, "vec_id")
        emb = embedding_batch_matrix(batch)
        d2 = (
            (emb**2).sum(1)[:, None]
            - 2 * emb @ cents.T
            + (cents**2).sum(1)[None, :]
        )
        return pa.table(
            {
                "vec_id": pa.array(vid, type=pa.int64()),
                "cluster_id": pa.array(
                    np.argmin(d2, axis=1).astype(np.int64), type=pa.int64()
                ),
            }
        )

    return read().map_batches(
        assign_cluster, batch_format="pyarrow", batch_size=2048
    )


def semdedup_prune_order(
    unit: np.ndarray, cent: np.ndarray, vec_ids: np.ndarray
) -> np.ndarray:
    """SemDeDup keep-priority order within one cluster: ascending
    cosine-to-centroid (the paper keeps LOW-centroid-similarity
    examples from each duplicate group), ties broken by vec_id — a
    pure function of (member set, centroid), independent of row
    arrival order."""
    cs = unit @ cent
    return np.lexsort((vec_ids, cs))


def semdedup_prune(
    unit: np.ndarray, order: np.ndarray, tau: float, chunk: int = 2048
) -> np.ndarray:
    """Triangular-max prune (SemDeDup, Abbas et al. 2023,
    arXiv:2303.09540 — the released implementation's semantics): walk
    members in keep-priority `order`; drop member i iff ANY
    earlier-in-order member j (kept or not) has cosine(i, j) >= tau.
    NOT greedy-kept: in a chain a~b, b~c, a!~c both b and c drop (c is
    within tau of the already-dropped b) — transitive near-dup chains
    collapse to their single highest-priority representative, which is
    the paper's behavior and what the dedup rate is calibrated on.

    Vectorized as chunked matmuls: each chunk scores against all
    strictly-earlier rows plus its own strict lower triangle —
    O(m^2 d / chunk) GEMMs, O(m * chunk) memory, and a fixed float
    reduction order (deterministic across runs). Returns a boolean
    keep mask aligned to the INPUT row order."""
    m = len(order)
    u = unit[order]
    maxsim = np.full(m, -np.inf)
    for s in range(0, m, chunk):
        e = min(s + chunk, m)
        if s > 0:
            maxsim[s:e] = (u[s:e] @ u[:s].T).max(axis=1)
        if e - s > 1:
            intra = u[s:e] @ u[s:e].T
            # strict lower triangle only — masked with -inf so a row
            # with no intra-chunk predecessor cannot fake a 0.0
            intra[np.triu_indices(e - s, k=0)] = -np.inf
            maxsim[s:e] = np.maximum(maxsim[s:e], intra.max(axis=1))
    keep_ordered = maxsim < tau
    keep = np.empty(m, dtype=bool)
    keep[order] = keep_ordered
    return keep


def _semdedup_core(
    ds: rd.Dataset,
    cents: np.ndarray,
    tau: float,
    npart: int,
    max_cluster_rows: int,
    id_col: str = "vec_id",
) -> rd.Dataset:
    """Shared SemDeDup execution: assign each (id_col, embedding) row
    to its nearest cosine centroid (broadcast k x d matrix), ONE keyed
    repartition on cluster_id, per-cluster triangular prune. Returns
    surviving (id_col, cluster_id) rows."""
    cents_ref = ray.put(cents)

    def assign_cluster(batch: pa.Table) -> pa.Table:
        cents = worker_value(cents_ref)
        if batch.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], type=pa.int64()),
                    "cluster_id": pa.array([], type=pa.int64()),
                    "unit": pa.array([], type=pa.list_(pa.float64())),
                }
            )
        vid = _vec_ids(batch, id_col)
        u = _unit(embedding_batch_matrix(batch))
        # argmax takes the FIRST maximal centroid — lowest cluster
        # id on ties, matching the reference kernel exactly
        assign = np.argmax(u @ cents.T, axis=1).astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(vid, type=pa.int64()),
                "cluster_id": pa.array(assign, type=pa.int64()),
                "unit": f64_list_array(u),
            }
        )

    def prune_block(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    id_col: pd.Series([], dtype="int64"),
                    "cluster_id": pd.Series([], dtype="int64"),
                }
            )
        cmat = worker_value(cents_ref)
        out_v, out_c = [], []
        for cid, grp in df.groupby("cluster_id", sort=True):
            if len(grp) > max_cluster_rows:
                raise ValueError(
                    f"semdedup cluster {int(cid)} has {len(grp)} members "
                    f"> max_cluster_rows={max_cluster_rows}: raise nlist "
                    f"(target corpus_rows/nlist under the cap) or the cap"
                )
            vid = grp[id_col].to_numpy(dtype=np.int64)
            unit = np.stack(grp["unit"].to_numpy()).astype(np.float64)
            srt = np.argsort(vid)  # arrival-order independence
            vid, unit = vid[srt], unit[srt]
            order = semdedup_prune_order(unit, cmat[int(cid)], vid)
            keep = semdedup_prune(unit, order, tau)
            out_v.append(vid[keep])
            out_c.append(np.full(int(keep.sum()), int(cid), dtype=np.int64))
        return pd.DataFrame(
            {
                id_col: np.concatenate(out_v),
                "cluster_id": np.concatenate(out_c),
            }
        )

    ds = ds.map_batches(assign_cluster, batch_format="pyarrow", batch_size=2048)
    return ds.repartition(npart, keys=["cluster_id"]).map_batches(
        prune_block, batch_format="pandas", batch_size=None
    )


def semdedup_survivors(
    sf_dir: str,
    nlist: int = 16,
    eps: float = 0.05,
    seed: int = 13,
    iters: int = 10,
    npart: int | None = None,
    max_cluster_rows: int = 2_000_000,
) -> rd.Dataset:
    """Semantic deduplication over the embeddings table (SemDeDup):
    spherical k-means buckets the corpus by cosine, then each cluster
    prunes members within cosine >= 1 - eps of a higher-priority
    member, keeping the low-centroid-similarity representative of
    every semantic-duplicate group. Returns surviving
    (vec_id, cluster_id) rows.

    Scale shape: centroids train ONCE on a deterministic head sample
    on the driver (`spherical_kmeans`, the IVF coarse-quantizer idiom)
    and broadcast via ray.put — assignment is an embarrassingly
    parallel map, so the only exchange is ONE keyed repartition of
    (vec_id, cluster_id, unit vector) rows on cluster_id. The
    per-cluster prune is chunked-GEMM O(m^2 d / chunk) with fixed
    reduction order: the distributed result is bit-identical to a
    single-process reference (pinned in tests).

    Partitioning assumption (documented, guarded LOUDLY): one
    cluster's members must fit in a worker block — size nlist so
    corpus_rows / nlist stays under `max_cluster_rows` (the paper runs
    ~100k clusters at LAION scale for exactly this reason; the m^2
    prune inside a cluster is the other bound on cluster size).

    Iterative training — not SQL-expressible; invariants pinned in
    tests (exact-dup collapse, chain semantics, distributed ==
    single-process reference on the full table). Scale evidence:
    tools/semdedup_scale_proof.py (1M rows, 82k rows/s, 99.6% planted-
    group collapse).
    """
    from ocrs_ray.pipeline import default_npart

    if npart is None:
        npart = default_npart()
    sample = _unit(
        np.asarray(
            _stream_head_sample(sf_dir, max(nlist * 64, 512)), dtype=np.float64
        )
    )
    cents = spherical_kmeans(sample, nlist, seed=seed, iters=iters)
    ds = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return _semdedup_core(
        ds, cents, 1.0 - eps, npart, max_cluster_rows, id_col="vec_id"
    )


def docs_semdedup_survivors(
    sf_dir: str,
    dim: int = 64,
    nlist: int = 16,
    eps: float = 0.05,
    seed: int = 13,
    iters: int = 10,
    npart: int | None = None,
    max_cluster_rows: int = 2_000_000,
) -> rd.Dataset:
    """SemDeDup applied to the DOCUMENTS table end-to-end — the
    real-world composition: embed every document with the embedding
    task stage (`HashingEmbedder`, the real-encoder plumbing), then
    semantic-dedup the embedding space. Returns surviving (doc_id,
    cluster_id) rows.

    Centroid training embeds a deterministic head sample of documents
    in the calling process with the same kernel the stage runs —
    embed + assign + prune all share one code path with
    `semdedup_survivors`, so the
    distributed result is bit-identical to a single-process reference
    (pinned in tests). One keyed exchange total; embeddings never hit
    storage (they flow stage -> shuffle as list<float> columns)."""
    import pyarrow.parquet as pq

    from ocrs_ray.pipeline import default_npart

    if npart is None:
        npart = default_npart()
    # head-sample documents -> driver-side embed with the shared kernel
    want = max(nlist * 64, 512)
    pf = pq.ParquetFile(f"{sf_dir}/documents.parquet")
    embedder = HashingEmbedder(dim)
    sample_rows: list[np.ndarray] = []
    for rb in pf.iter_batches(batch_size=want, columns=["text"]):
        sample_rows.extend(
            embedder.embed_one(t) for t in rb.column("text").to_pylist()
        )
        if len(sample_rows) >= want:
            break
    sample = _unit(np.asarray(sample_rows[:want], dtype=np.float64))
    cents = spherical_kmeans(sample, nlist, seed=seed, iters=iters)

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(HashingEmbedder(dim), batch_format="pandas")
    return _semdedup_core(
        ds, cents, 1.0 - eps, npart, max_cluster_rows, id_col="doc_id"
    )


def embedding_label_centroid(sf_dir: str) -> rd.Dataset:
    """Per-label centroid accumulators over the embedding table:
    (label, dim, sum_micro, n) — the distributed half of a class-mean /
    prototype computation (the centroid itself is sum_micro / (1e6 * n),
    a client-side division).

    Elements are micro-rounded BEFORE summing so the partials are
    order-independent integers, exact under any batch layout and
    bit-comparable to the SQL oracle. The (label x dim) key space is
    bounded by the schema, not the row count, so per-batch partials
    tree-reduce with no shuffle — each batch contributes one
    (labels x dims) partial regardless of how many vectors it holds.
    """
    from .relational import MICRO, round_half_away, tree_sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(df["embedding"].to_numpy()).astype("float64")
        micro = round_half_away(mat * MICRO).astype("int64")
        dfm = pd.DataFrame(micro)
        dfm["label"] = df["label"].to_numpy(dtype="int64")
        sums = dfm.groupby("label").sum()
        cnt = dfm.groupby("label").size().rename("n").reset_index()
        out = sums.reset_index().melt(
            id_vars="label", var_name="dim", value_name="sum_micro"
        )
        out["dim"] = out["dim"].astype("int64") + 1  # 1-based like SQL
        return out.merge(cnt, on="label")

    ds = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
    ).map_batches(partial, batch_format="pandas")
    return tree_sum(ds, ["label", "dim"], ["sum_micro", "n"])


def embedding_top_component(sf_dir: str) -> rd.Dataset:
    """Top principal direction (lead eigenpair of the uncentered Gram
    matrix X^T X) of the embedding table — the lead-PCA/spectral-norm
    kernel, computed in ONE streaming pass.

    Scale shape: each batch contributes its d x d partial Gram
    X_b^T X_b (d^2 floats — for d=64 that is 32 KB, independent of the
    batch's row count); the driver reduces partials in deterministic
    (batch_min_vec) order and eigendecomposes the tiny d x d result
    exactly. The distributed work is the Gram accumulation; the O(d^3)
    eigensolve never touches the cluster. This beats distributed power
    iteration outright (which needs one FULL corpus pass per iteration
    and converges slowly when the eigengap is small — measured residual
    5e-3 after 50 passes on the test table vs exact here). For d large
    enough that d^2 outgrows the driver (~30k+ dims), switch to a
    Lanczos/power loop and accept the extra passes.
    Sign is fixed by making the largest-magnitude coordinate positive.
    Not SQL-expressible (eigendecomposition); rows-only for the driver,
    pinned by the eigenpair residual test in tests/test_analytics.py.
    """

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "gram": pa.array([], type=pa.list_(pa.float64())),
                    "batch_min_vec": pa.array([], type=pa.int64()),
                }
            )
        vid = _vec_ids(batch, "vec_id")
        emb = embedding_batch_matrix(batch)
        g = emb.T @ emb
        return pa.table(
            {
                "gram": pa.array([g.ravel().tolist()], type=pa.list_(pa.float64())),
                "batch_min_vec": pa.array([int(vid.min())], type=pa.int64()),
            }
        )

    parts = (
        read_table(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )
        .map_batches(partial, batch_format="pyarrow", batch_size=2048)
        .to_pandas()
    )
    parts = parts.sort_values("batch_min_vec", kind="stable")
    gram_flat = np.sum(np.stack(parts["gram"].to_numpy()), axis=0)
    d = int(round(np.sqrt(len(gram_flat))))
    gram = gram_flat.reshape(d, d)
    w, vecs = np.linalg.eigh(gram)
    eigval = float(w[-1])
    v = vecs[:, -1]
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    out = pd.DataFrame(
        {
            "dim": np.arange(d, dtype="int64"),
            "component": v,
            "eigval": np.full(d, eigval, dtype="float64"),
        }
    )
    return rd.from_pandas(out)


def embedding_quantize_int8(sf_dir: str) -> rd.Dataset:
    """Symmetric per-vector int8 quantization of the embedding column:
    each vector becomes a float scale (max|x| / 127) plus d int8 codes
    — 4x smaller than float32, the standard compression step before
    ANN index build / shipping embeddings across the wire at corpus
    scale. Stateless per-batch map (no shuffle, no state); the
    reconstruction-error and cosine-preservation bounds are pinned in
    tests (not SQL-expressible bit-exactly: float scale).
    """

    def quantize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], type=pa.int64()),
                    "scale": pa.array([], type=pa.float64()),
                    "codes": pa.array([], type=pa.list_(pa.int8())),
                }
            )
        vid = _vec_ids(batch, "vec_id")
        emb = embedding_batch_matrix(batch)
        scale = np.abs(emb).max(axis=1) / 127.0
        safe = np.where(scale == 0, 1.0, scale)
        codes = np.clip(np.rint(emb / safe[:, None]), -127, 127).astype(np.int8)
        return pa.table(
            {
                "vec_id": pa.array(vid, type=pa.int64()),
                "scale": pa.array(scale, type=pa.float64()),
                "codes": pa.array(
                    [c.tolist() for c in codes], type=pa.list_(pa.int8())
                ),
            }
        )

    return read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(quantize, batch_format="pyarrow", batch_size=2048)


def ann_topk_int8(
    sf_dir: str, n_queries: int = 10, k: int = 10
) -> rd.Dataset:
    """Approximate cosine top-k over int8-QUANTIZED corpus vectors —
    the memory-bandwidth scale path: each batch quantizes once
    (symmetric per-vector scale, as `embedding_quantize_int8`) and
    scores candidates through the int8 codes, touching 4x fewer bytes
    than the float path. Per-vector scales cancel in the cosine, so
    the score is computed entirely from codes; ranking error comes only
    from rounding (<= 0.4% per coordinate at 127 levels). Recall@k vs
    the exact brute force is pinned in tests — not an SQL oracle
    (quantized scores are approximate by design).

    Same broadcast-query / local-top-k / tiny-final-reduce shape as
    `ann_topk_bruteforce`; at corpus scale the quantized codes would be
    precomputed once (`embedding_quantize_int8` output) instead of
    per batch — kept inline here so the op is self-contained. Query
    prep via bounded `_query_vectors`.
    """
    q_ids, q_mat = _query_vectors(sf_dir, n_queries)
    q_unit = _unit(q_mat)
    ref = ray.put((q_ids, q_unit))

    def quantized_topk(batch: pa.Table) -> pa.Table:
        q_ids, q_unit = worker_value(ref)
        vid = _vec_ids(batch, "vec_id")
        emb = embedding_batch_matrix(batch)
        scale = np.abs(emb).max(axis=1) / 127.0
        safe = np.where(scale == 0, 1.0, scale)
        codes = np.clip(
            np.rint(emb / safe[:, None]), -127, 127
        ).astype(np.int8)
        # Cosine from codes alone: the per-vector scale multiplies
        # both the dot product and the norm, so it cancels.
        cf = codes.astype(np.float64)
        norms = np.linalg.norm(cf, axis=1)
        norms[norms == 0] = 1.0
        sims = q_unit @ (cf / norms[:, None]).T  # (Q, B)
        out_q, out_n, out_s = [], [], []
        for qi in range(len(q_ids)):
            row = sims[qi]
            mask = vid != q_ids[qi]
            top_ids, top_sims = _local_topk_select(
                vid[mask], row[mask], k
            )
            out_q.extend([q_ids[qi]] * len(top_ids))
            out_n.extend(top_ids.tolist())
            out_s.extend(top_sims.tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "neighbor_id": pa.array(out_n, type=pa.int64()),
                "cosine": pa.array(out_s, type=pa.float64()),
            }
        )

    local = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(quantized_topk, batch_format="pyarrow", batch_size=2048)
    return _finalize_topk(local, k)


class HashingEmbedder:
    """Deterministic hashing-trick text embedder (Weinberger et al.
    2009, feature hashing): token -> md5-derived bucket and sign,
    accumulate counts, L2-normalize. Stands in for a real encoder with
    the SAME Ray-side contract — setup (compiled tokenizer + a
    token->(bucket, sign) cache that warms across the batches of one
    task, the "model weights" of this fake) once in `__init__`, pure
    batched compute in `__call__`. Pass `map_batches` an instance.
    """

    def __init__(self, dim: int = 64):
        import hashlib
        import re as _re

        self.dim = dim
        self._md5 = hashlib.md5
        self._ws = _re.compile(r"\S+")
        self._cache: dict[str, tuple[int, float]] = {}

    def _slot(self, tok: str) -> tuple[int, float]:
        hit = self._cache.get(tok)
        if hit is None:
            h = int.from_bytes(self._md5(tok.encode("utf-8")).digest()[:8], "little")
            hit = (h % self.dim, 1.0 if (h >> 62) & 1 == 0 else -1.0)
            self._cache[tok] = hit
        return hit

    def embed_one(self, text: str) -> np.ndarray:
        v = np.zeros(self.dim, dtype="float64")
        for tok in self._ws.findall(text or ""):
            b, s = self._slot(tok)
            v[b] += s
        n = float(np.linalg.norm(v))
        return (v / n if n > 0 else v).astype("float32")

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            # Typed empty output: a zero-row object-dtype column breaks
            # Ray's block size estimator. list<float32> is the type
            # non-empty batches convert to.
            embedding = pd.Series([], dtype=pd.ArrowDtype(pa.list_(pa.float32())))
        else:
            embedding = [self.embed_one(t) for t in batch["text"]]
        return pd.DataFrame({"doc_id": batch["doc_id"].to_numpy(), "embedding": embedding})


def docs_embed_hashing(sf_dir: str, dim: int = 64) -> rd.Dataset:
    """Batched text "model" inference over documents: the hashing-trick
    embedder as a task stage over a callable instance — the plumbing
    (setup in `__init__` when the stage is built, per-batch vector
    output as a list<float> column) is exactly what a real transformer
    encoder stage uses; only the arithmetic inside `embed_one` is a
    deterministic fake (no
    model weights exist in this container).

    Rows-only for the driver (embeddings are float vectors);
    determinism + unit-norm + exact kernel values pinned in
    tests/test_ops.py without Ray.
    """
    return read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(HashingEmbedder(dim), batch_format="pandas")
