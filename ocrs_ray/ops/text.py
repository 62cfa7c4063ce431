"""Text-analysis operators: token counting, quality scoring, language
ID, fingerprinting.

All stages are stateless vectorized `map_batches` transforms over the
`documents` table (columns pruned at the read); the regex/stopword
state is compiled once, when the stage is built, where it matters.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..session import read_table

__all__ = [
    "read_documents",
    "token_counts",
    "text_quality",
    "lang_id",
    "content_hash",
    "winnow_fingerprints",
    "docs_repetition_stats",
    "docs_chunk_overlap",
    "docs_gopher_quality_filter",
    "docs_pii_scrub",
    "docs_normalize_text",
    "gopher_signals",
    "normalize_ws_lower",
    "WS_TOKEN_RE",
    "WORD_TOKEN_RE",
    "STOPWORDS",
]

#: Whitespace tokenization (both sides of the oracle use `\S+`).
WS_TOKEN_RE = r"\S+"

#: Engine-independent whitespace tokenizer: the explicit ASCII
#: whitespace complement, identical under Python re, Arrow RE2 and
#: DuckDB RE2 (unlike \S, which is Unicode in Python and ASCII in
#: RE2 — they disagree on NBSP and friends).
TOKEN_CLASS_RE = r"[^ \t\n\r\f\v]+"
#: BPE-ish pre-tokenizer: letter runs, digit runs, single other symbols.
WORD_TOKEN_RE = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"

STOPWORDS = ("the", "a", "an", "and", "of", "to", "in", "is", "on", "for")

_LANG_STOPWORDS: dict[str, frozenset[str]] = {
    "en": frozenset("the a an and of to in is on for with that it as at by".split()),
    "de": frozenset("der die das und ist ein eine zu den von mit auf für nicht".split()),
    "fr": frozenset("le la les et de un une est pour dans que qui sur pas".split()),
    "es": frozenset("el la los las y de un una es para en que no con por".split()),
}


def read_documents(sf_dir: str, columns: list[str]) -> rd.Dataset:
    return read_table(f"{sf_dir}/documents.parquet", columns=columns)


def token_counts(sf_dir: str) -> rd.Dataset:
    """Per-doc whitespace and word-level token counts."""
    ws = re.compile(WS_TOKEN_RE)
    word = re.compile(WORD_TOKEN_RE)

    def count(batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"]
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_ws_tokens": text.str.count(ws).astype("int64"),
                "n_word_tokens": text.str.count(word).astype("int64"),
            }
        )

    return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        count, batch_format="pandas"
    )


def text_quality(sf_dir: str) -> rd.Dataset:
    """Quality-scoring features: char-class ratios + stopword ratio.

    Ratios are IEEE double divisions of integer counts, so they compare
    bit-exactly against the SQL oracle.
    """
    ws = re.compile(WS_TOKEN_RE)
    alpha = re.compile(r"[A-Za-z]")
    digit = re.compile(r"[0-9]")
    space = re.compile(r"\s")
    upper = re.compile(r"[A-Z]")
    stop_re = re.compile(r"\b(?:" + "|".join(STOPWORDS) + r")\b")

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"]
        n_chars = text.str.len().astype("int64")
        n_tokens = text.str.count(ws).astype("int64")
        lower = text.str.lower()
        # Count stopwords as whole whitespace-delimited tokens.
        n_stop = lower.str.split().map(
            lambda toks: sum(1 for t in toks if t in STOPWORDS)
        ).astype("int64")
        denom_c = n_chars.replace(0, 1).astype("float64")
        denom_t = n_tokens.replace(0, 1).astype("float64")
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_chars": n_chars,
                "n_tokens": n_tokens,
                "alpha_ratio": text.str.count(alpha).astype("int64") / denom_c,
                "digit_ratio": text.str.count(digit).astype("int64") / denom_c,
                "space_ratio": text.str.count(space).astype("int64") / denom_c,
                "upper_ratio": text.str.count(upper).astype("int64") / denom_c,
                "stopword_ratio": n_stop / denom_t,
            }
        )

    return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pandas"
    )


class LangId:
    """Stopword-overlap language identification (passed to `map_batches`
    as an instance, so it runs as a task stage).

    A deterministic heuristic: tokenize, score each candidate language
    by its stopword hit count, argmax (ties to the alphabetically first
    language) with 'und' fallback when nothing matches. The score is
    the integer hit rate in ppm ((1e6 * hits) // n_tokens), so the op
    compares bit-exactly against its SQL oracle. State (compiled regex
    + stopword tables) builds once, when the stage is built.
    """

    def __init__(self):
        self.ws = re.compile(WS_TOKEN_RE)
        self.tables = {k: v for k, v in _LANG_STOPWORDS.items()}

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        preds, scores = [], []
        langs = sorted(self.tables)
        for text in batch["text"]:
            toks = [t.lower() for t in self.ws.findall(text)]
            n = max(len(toks), 1)
            best_lang, best = "und", 0
            for lang in langs:
                hits = sum(1 for t in toks if t in self.tables[lang])
                if hits > best:
                    best, best_lang = hits, lang
            preds.append(best_lang)
            scores.append((1_000_000 * best) // n)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "lang_pred": preds,
                "lang_score_ppm": pd.Series(scores, dtype="int64").to_numpy(),
            }
        )


def lang_id(sf_dir: str) -> rd.Dataset:
    return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        LangId(), batch_format="pandas"
    )


def content_hash(sf_dir: str) -> rd.Dataset:
    """MD5 content hash per doc (exact-dedup key)."""

    def h(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "text_md5": [
                    hashlib.md5(t.encode("utf-8")).hexdigest() for t in batch["text"]
                ],
            }
        )

    return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        h, batch_format="pandas"
    )


def winnow_fingerprint(text: str, k: int = 8, window: int = 4) -> list[int]:
    """Winnowing document fingerprint (Schleimer, Wilkerson, Aiken,
    SIGMOD 2003): k-gram rolling hashes, minimum per sliding window,
    deduplicated in order of first occurrence."""
    data = text.encode("utf-8")
    if len(data) < k:
        return []
    base, mod = 257, (1 << 61) - 1
    # Rolling polynomial hash of all k-grams, vectorized.
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
    powers = np.array([pow(base, k - 1 - i, mod) for i in range(k)], dtype=object)
    n = len(arr) - k + 1
    hashes = np.empty(n, dtype=np.int64)
    h = 0
    for i in range(k):
        h = (h * base + int(arr[i])) % mod
    hashes[0] = h
    top_pow = pow(base, k - 1, mod)
    for i in range(1, n):
        h = ((h - int(arr[i - 1]) * top_pow) * base + int(arr[i + k - 1])) % mod
        hashes[i] = h
    if n <= window:
        return [int(hashes.min())]
    # Sliding-window minima via stride tricks.
    win = np.lib.stride_tricks.sliding_window_view(hashes, window)
    mins = win.min(axis=1)
    out: list[int] = []
    seen = set()
    for m in mins:
        m = int(m)
        if m not in seen:
            seen.add(m)
            out.append(m)
    return out


def winnow_fingerprints(sf_dir: str) -> rd.Dataset:
    """Winnowing fingerprints, exploded to distinct (doc_id,
    fingerprint) rows — the relational form of the fingerprint SET
    (what containment/overlap joins consume; `winnow_fingerprint`
    keeps the first-occurrence-ordered list for callers that need
    positions). The rolling polynomial hash is base-257 mod 2^61-1
    over the utf-8 bytes, which a DuckDB window-min reproduces
    bit-exactly, so the op carries an exact SQL oracle."""

    def fp(batch: pa.Table) -> pa.Table:
        ids, prints = [], []
        for d, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            for v in winnow_fingerprint(t):
                ids.append(d)
                prints.append(v)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "fingerprint": pa.array(prints, type=pa.int64()),
            }
        )

    return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        fp, batch_format="pyarrow"
    )


def docs_repetition_stats(sf_dir: str, shingle_size: int = 3) -> rd.Dataset:
    """Gopher-style within-document repetition signal: per document,
    total vs distinct word `shingle_size`-gram counts. The duplicate
    fraction (1 - n_distinct / n_shingles) is the classic repetition
    filter axis; the division stays client-side so the row is
    integer-exact against the SQL oracle.

    Repetition is intra-document, so unlike the cross-document dedup
    family this is a pure stateless map — nothing ever shuffles at any
    corpus size.
    """

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        from .dedup import _shingles

        ids: list[int] = []
        total: list[int] = []
        distinct: list[int] = []
        for d, t in zip(df["doc_id"], df["text"]):
            sh = _shingles(t, shingle_size)
            ids.append(int(d))
            total.append(len(sh))
            distinct.append(len(set(sh)))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_shingles": pd.Series(total, dtype="int64"),
                "n_distinct": pd.Series(distinct, dtype="int64"),
            }
        )

    return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        stats, batch_format="pandas"
    )


def docs_chunk_overlap(sf_dir: str, size: int = 32, stride: int = 24) -> rd.Dataset:
    """Sliding-window token chunking with overlap — the doc -> training
    chunk explode (1 row in, ceil(ntok/stride) rows out), the standard
    context-window preparation step (chunks overlap by size - stride
    tokens so no boundary context is lost).

    Scale shape: a pure stateless flat map — each batch fans out
    independently, output never re-shuffles, and chunk ids are a pure
    function of (doc_id, start offset) so the op is retry-safe and
    order-free. Chunk text is re-joined from the SAME whitespace
    tokenization the oracle slices (`\\S+`), making the explode
    value-exact, not just count-exact.
    """
    ws = re.compile(WS_TOKEN_RE)

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        doc_ids: list[int] = []
        chunk_ids: list[int] = []
        starts: list[int] = []
        lens: list[int] = []
        texts: list[str] = []
        for did, text in zip(batch["doc_id"].to_numpy(), batch["text"]):
            toks = ws.findall(text or "")
            n = len(toks)
            for ci, start in enumerate(range(0, max(n, 1), stride)):
                if start >= n:
                    break
                piece = toks[start : start + size]
                doc_ids.append(int(did))
                chunk_ids.append(ci)
                starts.append(start)
                lens.append(len(piece))
                texts.append(" ".join(piece))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(doc_ids, dtype="int64"),
                "chunk_id": pd.Series(chunk_ids, dtype="int64"),
                "start_tok": pd.Series(starts, dtype="int64"),
                "n_tokens": pd.Series(lens, dtype="int64"),
                "chunk_text": texts,
            }
        )

    return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        explode, batch_format="pandas"
    )


def gopher_signals(texts) -> dict:
    """Integer quality signals shared by the Gopher gate and the
    composed data-prep pipeline: token count, floor-div mean word
    length (milli), top-token share and stopword share (ppm)."""
    ws = re.compile(WS_TOKEN_RE)
    stopset = frozenset(STOPWORDS)
    n = len(texts)
    n_tok = np.zeros(n, dtype="int64")
    sum_len = np.zeros(n, dtype="int64")
    top_cnt = np.zeros(n, dtype="int64")
    stop_cnt = np.zeros(n, dtype="int64")
    for i, text in enumerate(texts):
        toks = ws.findall(text or "")
        n_tok[i] = len(toks)
        if not toks:
            continue
        sum_len[i] = sum(len(t) for t in toks)
        _, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        top_cnt[i] = int(counts.max())
        stop_cnt[i] = sum(1 for t in toks if t in stopset)
    safe = np.maximum(n_tok, 1)
    return {
        "n_tokens": n_tok,
        "mean_len_milli": (1_000 * sum_len) // safe,
        "top_tok_ppm": (1_000_000 * top_cnt) // safe,
        "stop_ppm": (1_000_000 * stop_cnt) // safe,
    }


#: RE2's \s is the ASCII class [\t\n\f\r ] (no \v, no Unicode); the
#: Python default \s is Unicode-aware. Spell the class out so the key
#: matches the DuckDB oracle byte-for-byte on NBSP / \v inputs too.
_RE2_WS_RUN = re.compile(r"[\t\n\f\r ]+")


def normalize_ws_lower(text: str) -> str:
    """The normalized-dedup key text, pinned EXACTLY to the oracle's
    lower(trim(regexp_replace(text, '\\s+', ' ', 'g'))): RE2's ASCII
    whitespace class for the collapse, and trim()'s space-only strip
    (DuckDB trim removes spaces, not arbitrary whitespace)."""
    return _RE2_WS_RUN.sub(" ", text or "").strip(" ").lower()


def docs_gopher_quality_filter(
    sf_dir: str,
    min_tokens: int = 20,
    max_tokens: int = 100_000,
    mean_len_lo_milli: int = 3_000,
    mean_len_hi_milli: int = 10_000,
    top_tok_max_ppm: int = 200_000,
    stop_min_ppm: int = 10_000,
) -> rd.Dataset:
    """Gopher-style composite quality gate (Rae et al. 2021, "Scaling
    Language Models", public repetition/length rules adapted to the
    corpus): token-count band, mean word length band, most-frequent-
    token share cap (the repetition signal), and minimum stopword
    share.

    All four signals are carried as exact integers (floor-division
    milli / ppm units on BOTH sides), so `kept` is bit-identical to
    the SQL oracle — no float-threshold boundary cases. Stateless
    per-batch map over `gopher_signals` (per-document token loops —
    string tokenization is inherently per-doc, like every text op
    here; the distributed shape, one pass + no shuffle, is what
    matters at scale).
    """
    def score(batch: pd.DataFrame) -> pd.DataFrame:
        sig = gopher_signals(batch["text"])
        n_tok = sig["n_tokens"]
        mean_milli = sig["mean_len_milli"]
        top_ppm = sig["top_tok_ppm"]
        stop_ppm = sig["stop_ppm"]
        kept = (
            (n_tok >= min_tokens)
            & (n_tok <= max_tokens)
            & (mean_milli >= mean_len_lo_milli)
            & (mean_milli <= mean_len_hi_milli)
            & (top_ppm <= top_tok_max_ppm)
            & (stop_ppm >= stop_min_ppm)
        )
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "n_tokens": n_tok,
                "mean_len_milli": mean_milli,
                "top_tok_ppm": top_ppm,
                "stop_ppm": stop_ppm,
                "kept": kept.astype("int64"),
            }
        )

    return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pandas"
    )


#: PII patterns (RE2 syntax — evaluated by Arrow's regex kernels on the
#: Ray side and DuckDB's regexp_* on the oracle side; BOTH engines are
#: RE2, so match semantics are identical by construction).
PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE_RE = r"\b\d{3}-\d{4}\b"
PII_IPV4_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"


def _pii_augment(text: "pa.Array", ids: "pa.Array") -> "pa.Array":
    """Append the deterministic synthetic PII suffix derived from
    doc_id (email + 555- phone fragment + 10.0.x.y address), mirrored
    exactly in the SQL oracles of every op that sets
    inject_synthetic=True."""
    import pyarrow.compute as pc

    def _mod(x, m):
        # Arrow has no modulo kernel; int64 divide truncates, and
        # doc_id >= 0, so x - (x // m) * m is exact.
        return pc.subtract(x, pc.multiply(pc.divide(x, m), m))

    id_s = pc.cast(ids, pa.string())
    phone4 = pc.utf8_lpad(pc.cast(_mod(ids, 10_000), pa.string()), 4, padding="0")
    oct1 = pc.cast(_mod(ids, 256), pa.string())
    oct2 = pc.cast(_mod(pc.divide(ids, 256), 256), pa.string())
    return pc.binary_join_element_wise(
        text,
        " contact user",
        id_s,
        "@example.org or call 555-",
        phone4,
        " from 10.0.",
        oct1,
        ".",
        oct2,
        "",
    )


def docs_pii_scrub(sf_dir: str, inject_synthetic: bool = True) -> rd.Dataset:
    """PII detection + redaction over documents: count and mask emails,
    phone fragments and IPv4 addresses, emitting the redacted text.

    The sandbox corpus is PII-free word salad, so by default each doc
    is first augmented with a DETERMINISTIC synthetic PII suffix derived
    from doc_id (mirrored exactly in the SQL oracle) — this exercises
    the kernels with real matches while keeping the op value-exact.
    Production use is `inject_synthetic=False` over raw text.

    Scale shape: stateless single-pass Arrow-native map — zero-copy
    batches, RE2 kernels (`count_substring_regex`,
    `replace_substring_regex`), no shuffle, no Python row loop. Counts
    are taken on the augmented text per pattern, then redaction applies
    email -> IPv4 -> phone in that fixed order on both sides.
    """
    import pyarrow.compute as pc

    def scrub(batch: pa.Table) -> pa.Table:
        text = pc.cast(batch.column("text"), pa.string())
        if inject_synthetic:
            text = _pii_augment(text, batch.column("doc_id"))
        n_emails = pc.count_substring_regex(text, PII_EMAIL_RE)
        n_phones = pc.count_substring_regex(text, PII_PHONE_RE)
        n_ips = pc.count_substring_regex(text, PII_IPV4_RE)
        red = pc.replace_substring_regex(text, PII_EMAIL_RE, "<EMAIL>")
        red = pc.replace_substring_regex(red, PII_IPV4_RE, "<IP>")
        red = pc.replace_substring_regex(red, PII_PHONE_RE, "<PHONE>")
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "redacted": red,
                "n_emails": pc.cast(n_emails, pa.int64()),
                "n_phones": pc.cast(n_phones, pa.int64()),
                "n_ips": pc.cast(n_ips, pa.int64()),
            }
        )

    return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        scrub, batch_format="pyarrow"
    )


def docs_extract_matches(sf_dir: str, inject_synthetic: bool = True) -> rd.Dataset:
    """Structured extraction explode: every email / phone-fragment /
    IPv4 match becomes its own row (doc_id, kind, matched) — the
    long-format counterpart of `docs_pii_scrub`'s counts, and the
    shape entity/link-extraction pipelines emit. Uses the same
    deterministic synthetic augmentation so the sandbox corpus has
    real matches.

    Scale shape: stateless map explode, no shuffle; output volume is
    bounded by match density. Patterns compile under re.ASCII so
    Python's \\d and \\b mean what RE2's do (ASCII digits / ASCII word
    boundary) — without it, Unicode digits match \\d and accented
    letters count as word chars on the Python side only, and the two
    engines emit different match lists on non-ASCII text.
    """
    import re as _re

    import pyarrow.compute as pc

    pats = [
        ("email", _re.compile(PII_EMAIL_RE, _re.ASCII)),
        ("phone", _re.compile(PII_PHONE_RE, _re.ASCII)),
        ("ip", _re.compile(PII_IPV4_RE, _re.ASCII)),
    ]

    def extract(batch: pa.Table) -> pa.Table:
        text = pc.cast(batch.column("text"), pa.string())
        if inject_synthetic:
            text = _pii_augment(text, batch.column("doc_id"))
        ids_out: list[int] = []
        kinds: list[str] = []
        matches: list[str] = []
        for d, t in zip(batch.column("doc_id").to_pylist(), text.to_pylist()):
            for kind, rx in pats:
                for m in rx.findall(t):
                    ids_out.append(d)
                    kinds.append(kind)
                    matches.append(m)
        return pa.table(
            {
                "doc_id": pa.array(ids_out, type=pa.int64()),
                "kind": pa.array(kinds, type=pa.string()),
                "matched": pa.array(matches, type=pa.string()),
            }
        )

    return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        extract, batch_format="pyarrow"
    )


def docs_normalize_text(sf_dir: str) -> rd.Dataset:
    """Canonical text normalization: Unicode NFC, lowercase, collapse
    runs of whitespace to single spaces, trim — the standard prelude to
    exact/fuzzy dedup keys.

    Scale shape: stateless single-pass Arrow-native map (zero-copy
    batches, `utf8_normalize` / `utf8_lower` / RE2 collapse); no
    shuffle, nothing leaves the block but (doc_id, norm_text, n_chars).
    """
    import pyarrow.compute as pc

    def norm(batch: pa.Table) -> pa.Table:
        t = pc.cast(batch.column("text"), pa.string())
        t = pc.utf8_normalize(t, form="NFC")
        t = pc.utf8_lower(t)
        t = pc.replace_substring_regex(t, r"\s+", " ")
        t = pc.utf8_trim_whitespace(t)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "norm_text": t,
                "n_chars": pc.cast(pc.utf8_length(t), pa.int64()),
            }
        )

    return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        norm, batch_format="pyarrow"
    )
