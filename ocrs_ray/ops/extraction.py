"""Main-content extraction operators: HTML boilerplate strip, link
extraction, DOM-heuristic block scoring, and PDF content-stream /
layout parsing.

The sandbox corpus is plain word salad, so each op first wraps the
document in a DETERMINISTIC synthetic page (an HTML page or a PDF
text content stream) derived from (doc_id, text, lang, source) —
mirrored byte-for-byte in the SQL oracle via a SHARED template
(`_PAGE_TEMPLATE` renders both the Arrow concat and the SQL `||`
expression), the same convention as `text._pii_augment`. The
extraction kernels themselves are generic: they see only the markup
string. Production use is the same kernels over raw crawled
HTML/PDF-text columns.

Engine parity: every pattern here is RE2 (pyarrow.compute and DuckDB
both embed RE2), so the Ray kernels and the oracles share one regex
dialect — no `\\d`/`\\s` Unicode drift (see docs_extract_matches'
ASCII note in text.py). The corpus generator emits ASCII word salad
with no `<>&()"` characters; `_guard_markup_safe` raises loudly if
that assumption ever breaks rather than silently diverging from the
oracle (the ADVICE r02 winnow lesson).

Reference surface: the north rule names "HTML boilerplate strip,
PDF/layout parse, DOM heuristics" as the extraction pipeline's text
side; the reference repo's own extraction is OCR-only (ocrs/src/lib.rs),
so these ops are the training-data-pipeline extension of that surface,
built in the same stateless zero-copy map_batches shape as the OCR
preprocessing stages.

Scale shape (all ops): stateless single-pass Arrow-native maps — no
shuffle, no driver state, output volume O(input). At 100 TB each op
is embarrassingly parallel over blocks.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..session import read_table
from .relational import _merge_sums, hash_sum
from .text import read_documents

# --------------------------------------------------------------------
# Shared regex constants (RE2 — identical semantics in pyarrow and
# DuckDB). Pages are synthesized on a single line, so `.` never meets
# a newline and non-greedy spans behave identically in both engines.
# --------------------------------------------------------------------

HTML_SCRIPT_RE = r"<script[^>]*>.*?</script>"
HTML_STYLE_RE = r"<style[^>]*>.*?</style>"
HTML_COMMENT_RE = r"<!--.*?-->"
HTML_TAG_RE = r"<[^>]+>"
#: Whole-element anchor match; group 1 = href, group 2 = anchor text.
#: `[^<]*` (not `.*?`) for the anchor body so both engines agree on
#: boundaries without relying on non-greedy backtracking order.
HTML_LINK_RE = r'<a href="([^"]*)"[^>]*>([^<]*)</a>'
WS_COLLAPSE_RE = r"\s+"

#: Entity decode table, applied strictly in order — `&amp;` LAST so
#: `&amp;lt;` decodes to the literal text `&lt;`, never to `<`.
HTML_ENTITIES = (
    ("&lt;", "<"),
    ("&gt;", ">"),
    ("&quot;", '"'),
    ("&nbsp;", " "),
    ("&copy;", "(c)"),
    ("&amp;", "&"),
)

#: Top-level page blocks in document order: (block_idx, tag label,
#: RE2 extraction pattern with one named group `b`). The block split
#: is pattern-anchored (no RE2 backreferences exist), which assumes
#: no nested same-tag elements inside a block — true of the synthetic
#: page; `html_block_segments` below is the generic nesting-aware
#: scanner, test-pinned equal to this path on flat markup.
HTML_BLOCKS = (
    (0, "nav", r"<nav>(?P<b>.*?)</nav>"),
    (1, "ad", r'<div class="ad">(?P<b>.*?)</div>'),
    (2, "content", r'<div class="content">(?P<b>.*?)</div>'),
    (3, "footer", r"<footer>(?P<b>.*?)</footer>"),
)

# --------------------------------------------------------------------
# Synthetic page template — ONE structure renders both engines'
# construction, so parity is by construction, not by review.
# Literal strings pass through; tuples name a per-doc field.
# --------------------------------------------------------------------

_PAGE_TEMPLATE = (
    '<html lang="',
    ("lang",),
    '"><head><title>Doc ',
    ("id",),
    " &amp; ",
    ("source",),
    "</title><style>body{font-size:10px;margin:0}</style>"
    "<script>var docId=",
    ("id",),
    ";track(&quot;view&quot;);</script></head><body><!--render:",
    ("id",),
    '--><nav><a href="/home">Home</a> <a href="/about">About</a> '
    '<a href="/doc/',
    ("id_prev",),
    '">Prev doc</a> <a href="/doc/',
    ("id_next",),
    '">Next doc</a></nav><div class="ad">'
    '<a href="https://ads.example.com/c/',
    ("id_mod7",),
    '">Click here for offer ',
    ("id_mod7",),
    ' now</a></div><div class="content"><h1>Entry ',
    ("id",),
    " from ",
    ("source",),
    "</h1><p>",
    ("text",),
    ' &amp; more &lt;details&gt; below.</p><a href="/ref/',
    ("id_mod13",),
    '">[',
    ("id_mod13",),
    "]</a></div><footer>&copy; 2024 ",
    ("source",),
    ' &nbsp;<a href="/terms">Terms</a> '
    '<a href="/privacy">Privacy</a></footer></body></html>',
)

_FIELD_SQL = {
    "id": "CAST(doc_id AS VARCHAR)",
    "id_prev": "CAST(doc_id - 1 AS VARCHAR)",
    "id_next": "CAST(doc_id + 1 AS VARCHAR)",
    "id_mod7": "CAST(doc_id % 7 AS VARCHAR)",
    "id_mod13": "CAST(doc_id % 13 AS VARCHAR)",
    # per-table-row cell values for the table-extraction template
    "id_r1": "CAST(doc_id % 97 AS VARCHAR)",
    "id_r2": "CAST((doc_id * 2) % 97 AS VARCHAR)",
    "id_r3": "CAST((doc_id * 3) % 97 AS VARCHAR)",
    "lang": "lang",
    "source": "source",
    "text": "text",
}

_MARKUP_UNSAFE_RE = r'[<>&()"]'


def _template_sql(template: tuple) -> str:
    """A page template as a DuckDB `||` expression over the documents
    view — byte-identical to `_render_template_arrow`."""
    parts = []
    for piece in template:
        if isinstance(piece, tuple):
            parts.append(_FIELD_SQL[piece[0]])
        else:
            parts.append("'" + piece.replace("'", "''") + "'")
    return " || ".join(parts)


def synth_html_sql() -> str:
    """The flat-page construction as a DuckDB `||` expression over the
    documents view — byte-identical to `_synth_html_arrow`."""
    return _template_sql(_PAGE_TEMPLATE)


def _guard_markup_safe(text: pa.Array) -> None:
    """The synthesis templates embed document text unescaped; any
    markup-significant character in the corpus would make the Ray
    kernels and the SQL oracle diverge SILENTLY. Fail loudly instead."""
    import pyarrow.compute as pc

    bad = pc.sum(pc.count_substring_regex(text, _MARKUP_UNSAFE_RE)).as_py()
    if bad:
        raise ValueError(
            f"document text contains {bad} markup-significant characters "
            '(<>&()"); the synthetic-page oracles assume none — escape at '
            "synthesis or regenerate the corpus"
        )


def _render_template_arrow(batch: pa.Table, template: tuple) -> pa.Array:
    """Render a page template for each row via one vectorized
    binary_join_element_wise — zero Python per row. Only the fields
    the template actually names are computed (and only their columns
    need to be present in `batch`), so ops whose templates skip
    `text` can prune it at the read — the biggest column by far."""
    import pyarrow.compute as pc

    ids = batch.column("doc_id")

    def _mod(x, m):
        # doc_id >= 0, so truncating divide gives exact modulo.
        return pc.subtract(x, pc.multiply(pc.divide(x, m), m))

    def _text():
        t = pc.cast(batch.column("text"), pa.string())
        _guard_markup_safe(t)
        return t

    makers = {
        "id": lambda: pc.cast(ids, pa.string()),
        "id_prev": lambda: pc.cast(pc.subtract(ids, 1), pa.string()),
        "id_next": lambda: pc.cast(pc.add(ids, 1), pa.string()),
        "id_mod7": lambda: pc.cast(_mod(ids, 7), pa.string()),
        "id_mod13": lambda: pc.cast(_mod(ids, 13), pa.string()),
        "id_r1": lambda: pc.cast(_mod(ids, 97), pa.string()),
        "id_r2": lambda: pc.cast(_mod(pc.multiply(ids, 2), 97), pa.string()),
        "id_r3": lambda: pc.cast(_mod(pc.multiply(ids, 3), 97), pa.string()),
        "lang": lambda: pc.cast(batch.column("lang"), pa.string()),
        "source": lambda: pc.cast(batch.column("source"), pa.string()),
        "text": _text,
    }
    fields = {
        name: makers[name]()
        for name in {p[0] for p in template if isinstance(p, tuple)}
    }
    pieces = [
        fields[p[0]] if isinstance(p, tuple) else p for p in template
    ]
    return pc.binary_join_element_wise(*pieces, "")


def _synth_html_arrow(batch: pa.Table) -> pa.Array:
    """Render the flat `_PAGE_TEMPLATE` (the four-block page every
    flat HTML op consumes)."""
    return _render_template_arrow(batch, _PAGE_TEMPLATE)


_DOC_COLS = ["doc_id", "text", "lang", "source"]
#: The URL/robots/table templates interpolate only doc_id-derived
#: fields and `source` — prune `text`/`lang` at the read.
_URL_COLS = ["doc_id", "source"]

# --------------------------------------------------------------------
# Extraction kernels (generic — they see only the markup string)
# --------------------------------------------------------------------


def strip_markup(arr: pa.Array) -> pa.Array:
    """script/style/comment removal -> tag strip -> entity decode ->
    whitespace collapse + trim, all RE2 kernels. Decode runs AFTER tag
    strip so decoded `&lt;details&gt;` stays literal text."""
    import pyarrow.compute as pc

    x = pc.replace_substring_regex(arr, HTML_SCRIPT_RE, "")
    x = pc.replace_substring_regex(x, HTML_STYLE_RE, "")
    x = pc.replace_substring_regex(x, HTML_COMMENT_RE, "")
    x = pc.replace_substring_regex(x, HTML_TAG_RE, "")
    for ent, rep in HTML_ENTITIES:
        x = pc.replace_substring(x, ent, rep)
    x = pc.replace_substring_regex(x, WS_COLLAPSE_RE, " ")
    return pc.utf8_trim_whitespace(x)


def strip_markup_sql(expr: str) -> str:
    """`strip_markup` as nested DuckDB calls over `expr` — one
    transform list, two renderings."""
    x = expr
    for pat in (HTML_SCRIPT_RE, HTML_STYLE_RE, HTML_COMMENT_RE, HTML_TAG_RE):
        x = f"regexp_replace({x}, '{pat}', '', 'g')"
    for ent, rep in HTML_ENTITIES:
        x = f"replace({x}, '{ent}', '{rep}')"
    return f"trim(regexp_replace({x}, '{WS_COLLAPSE_RE}', ' ', 'g'))"


def _link_chars(blk: pa.Array) -> pa.Array:
    """Total anchor-text characters per block: tag-stripped length
    minus tag-stripped length with whole anchor elements removed.
    Pure length arithmetic — no list aggregation kernel needed."""
    import pyarrow.compute as pc

    def tagless_len(a):
        return pc.utf8_length(pc.replace_substring_regex(a, HTML_TAG_RE, ""))

    no_links = pc.replace_substring_regex(blk, HTML_LINK_RE, "")
    return pc.cast(
        pc.subtract(tagless_len(blk), tagless_len(no_links)), pa.int64()
    )


def _link_chars_sql(expr: str) -> str:
    return (
        f"length(regexp_replace({expr}, '{HTML_TAG_RE}', '', 'g')) - "
        f"length(regexp_replace(regexp_replace({expr}, '{HTML_LINK_RE}', "
        f"'', 'g'), '{HTML_TAG_RE}', '', 'g'))"
    )


def _extract_block(pages: pa.Array, pattern: str, tag: str) -> pa.Array:
    """One named-group RE2 extraction; loud on any non-matching page
    (a generic page may legitimately lack a block — callers of the
    generic path use `html_block_segments` instead)."""
    import pyarrow.compute as pc

    hit = pc.extract_regex(pages, pattern)
    if not pc.all(pc.is_valid(hit)).as_py():
        n = pc.sum(pc.cast(pc.is_null(hit), pa.int64())).as_py()
        raise ValueError(f"{n} pages lack a <{tag}> block")
    return pc.struct_field(hit, "b")


BLOCK_TAGS = frozenset(
    {"nav", "div", "footer", "section", "article", "main", "aside", "header"}
)

_TAG_SCAN_RE = re.compile(r"<(/?)([a-zA-Z][a-zA-Z0-9]*)([^>]*)>", re.ASCII)


def _is_self_closing(attrs: str) -> bool:
    """True for XML-style self-closed tags (<br/>, <section />,
    <img src="x"/>) but NOT for an unquoted attribute value that
    happens to end in '/' (<div data-href=http://x.com/>): per the
    HTML5 tokenizer an unquoted value consumes everything up to
    whitespace or '>', so that '/' belongs to the value. The '/'
    counts as self-closing only when preceded by whitespace, a quote,
    or nothing (bare <tag/>)."""
    a = attrs.rstrip()
    if not a.endswith("/"):
        return False
    before = a[:-1]
    return not before or before[-1] in ' \t\r\n"\''


def html_block_segments(html: str) -> list[tuple[str, str]]:
    """Generic nesting-aware block segmentation: scan tags with a
    depth stack and emit (tag, inner_html) for each TOP-LEVEL block
    element inside <body>. Unlike the anchored-pattern fast path in
    `HTML_BLOCKS`, nested <div>s inside a block do not split it —
    the production-path scanner for arbitrary crawled markup
    (test-pinned equal to the pattern path on flat pages)."""
    out: list[tuple[str, str]] = []
    stack: list[tuple[str, int]] = []  # (tag, inner-start offset)
    depth = 0
    in_body = False
    for m in _TAG_SCAN_RE.finditer(html):
        closing, tag = m.group(1) == "/", m.group(2).lower()
        if tag == "body":
            in_body = not closing
            continue
        if not in_body or tag not in BLOCK_TAGS:
            continue
        if not closing and _is_self_closing(m.group(3)):
            # XML-style self-closed block (<section/>): no depth
            # change; at top level it is its own empty block.
            if depth == 0:
                out.append((tag, ""))
            continue
        if not closing:
            if depth == 0:
                stack.append((tag, m.end()))
            depth += 1
        elif depth > 0:  # stray close tags in crawled markup: ignore
            depth -= 1
            if depth == 0 and stack:
                open_tag, start = stack.pop()
                out.append((open_tag, html[start : m.start()]))
    return out


# --------------------------------------------------------------------
# Operators
# --------------------------------------------------------------------


def docs_html_strip(sf_dir: str, synthesize: bool = True) -> rd.Dataset:
    """Full-page markup strip: visible text of the whole synthetic
    page (title + nav + content + footer), scripts/styles/comments
    removed, entities decoded, whitespace collapsed.

    Scale shape: stateless zero-copy Arrow map; per-batch work is a
    fixed chain of RE2 kernels. No shuffle.
    """
    import pyarrow.compute as pc

    def strip(batch: pa.Table) -> pa.Table:
        pages = (
            _synth_html_arrow(batch)
            if synthesize
            else pc.cast(batch.column("text"), pa.string())
        )
        flat = strip_markup(pages)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "page_text": flat,
                "n_chars": pc.cast(pc.utf8_length(flat), pa.int64()),
            }
        )

    return read_documents(sf_dir, _DOC_COLS).map_batches(
        strip, batch_format="pyarrow"
    )


def docs_html_links(sf_dir: str, synthesize: bool = True) -> rd.Dataset:
    """Link-graph explode: one row per anchor element — (doc_id, href,
    anchor, is_external). The edge list a crawl-graph / PageRank stage
    consumes.

    Scale shape: stateless map explode; output volume bounded by link
    density (8/doc here). The per-match loop is bounded by matches,
    not corpus size — same shape as docs_extract_matches.
    """
    import pyarrow.compute as pc

    link_re = re.compile(HTML_LINK_RE, re.ASCII)

    def links(batch: pa.Table) -> pa.Table:
        pages = (
            _synth_html_arrow(batch)
            if synthesize
            else pc.cast(batch.column("text"), pa.string())
        )
        ids, hrefs, anchors = [], [], []
        for d, page in zip(batch.column("doc_id").to_pylist(), pages.to_pylist()):
            for href, anchor in link_re.findall(page):
                ids.append(d)
                hrefs.append(href)
                anchors.append(anchor)
        href_arr = pa.array(hrefs, type=pa.string())
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "href": href_arr,
                "anchor": pa.array(anchors, type=pa.string()),
                "is_external": pc.cast(
                    pc.starts_with(href_arr, "http"), pa.int64()
                ),
            }
        )

    return read_documents(sf_dir, _DOC_COLS).map_batches(
        links, batch_format="pyarrow"
    )


def _block_stats_arrays(pages: pa.Array):
    """Per-block (idx, tag, flat_text, text_chars, link_chars,
    density_ppm) columns for the four top-level blocks — all
    vectorized over the page batch."""
    import pyarrow.compute as pc

    out = []
    for idx, tag, pattern in HTML_BLOCKS:
        blk = _extract_block(pages, pattern, tag)
        flat = strip_markup(blk)
        text_chars = pc.cast(pc.utf8_length(flat), pa.int64())
        if pc.min(text_chars).as_py() == 0:
            raise ValueError(f"empty <{tag}> block — density undefined")
        link_chars = _link_chars(blk)
        density_ppm = pc.divide(pc.multiply(link_chars, 1_000_000), text_chars)
        out.append((idx, tag, flat, text_chars, link_chars, density_ppm))
    return out


def docs_html_block_stats(sf_dir: str) -> rd.Dataset:
    """Per-block DOM statistics, long format: (doc_id, block_idx, tag,
    text_chars, link_chars, link_density_ppm) for each top-level block
    — the feature table a boilerplate classifier trains on. Density is
    integer parts-per-million (micro-unit convention).

    Scale shape: stateless Arrow map, 4 output rows per doc, no
    shuffle; each block's stats are one fixed RE2-kernel chain.
    """

    def stats(batch: pa.Table) -> pa.Table:
        pages = _synth_html_arrow(batch)
        n = len(batch)
        chunks = []
        for idx, tag, _flat, text_chars, link_chars, density in (
            _block_stats_arrays(pages)
        ):
            chunks.append(
                pa.table(
                    {
                        "doc_id": batch.column("doc_id"),
                        "block_idx": pa.array([idx] * n, type=pa.int64()),
                        "tag": pa.array([tag] * n, type=pa.string()),
                        "text_chars": text_chars,
                        "link_chars": link_chars,
                        "link_density_ppm": density,
                    }
                )
            )
        return pa.concat_tables(chunks)

    return read_documents(sf_dir, _DOC_COLS).map_batches(
        stats, batch_format="pyarrow"
    )


def _pick_main_block(stats: list, n: int) -> dict:
    """THE winner-pick kernel, shared by docs_html_main_content,
    web_extract_prep and web_extract_incremental (one copy so the
    heuristic and its three SQL mirrors cannot drift): each block
    scores `text_chars * (1_000_000 - link_density_ppm)`; numpy argmax
    returns the FIRST maximum == lowest-block_idx tiebreak. Returns
    the winner's per-doc arrays."""
    scores = np.stack(
        [
            (tc.to_numpy() * (1_000_000 - d.to_numpy()))
            for _i, _t, _f, tc, _lc, d in stats
        ]
    )
    texts = np.stack(
        [f.to_numpy(zero_copy_only=False) for _i, _t, f, *_ in stats]
    )
    tcs = np.stack([tc.to_numpy() for _i, _t, _f, tc, *_x in stats])
    dens = np.stack([d.to_numpy() for *_x, d in stats])
    win = scores.argmax(axis=0)
    cols = np.arange(n)
    tags = np.array([t for _i, t, *_ in stats])
    return {
        "win": win.astype("int64"),
        "tag": tags[win],
        "text": texts[win, cols],
        "text_chars": tcs[win, cols],
        "density": dens[win, cols],
        "score": scores[win, cols],
    }


def docs_html_main_content(sf_dir: str) -> rd.Dataset:
    """Boilerplate strip proper: Readability/Boilerpipe-style main
    block pick. Each top-level block scores
    `text_chars * (1_000_000 - link_density_ppm)` — long low-link
    blocks win, link-dense nav/ad/footer lose — and the argmax block's
    flattened text is the document's extracted main content
    (tie -> lowest block_idx).

    Scale shape: stateless Arrow map (the four block chains + one
    numpy argmax per batch), no shuffle, one output row per doc.
    """
    def pick(batch: pa.Table) -> pa.Table:
        pages = _synth_html_arrow(batch)
        w = _pick_main_block(_block_stats_arrays(pages), len(batch))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "main_idx": pa.array(w["win"]),
                "main_tag": pa.array(w["tag"], type=pa.string()),
                "score_micro": pa.array(w["score"].astype("int64")),
                "main_text": pa.array(w["text"], type=pa.string()),
            }
        )

    return read_documents(sf_dir, _DOC_COLS).map_batches(
        pick, batch_format="pyarrow"
    )


#: Boilerpipe-style two-feature block rule (Kohlschutter 2010 uses
#: link density + text length as the dominant pair): a block is
#: boilerplate when link-dense, `short` when link-light but under the
#: length floor, else `content`. ONE constant pair, two renderings.
BOILER_DENSITY_MAX_PPM = 400_000
BOILER_SHORT_MIN_CHARS = 200


def docs_block_boilerplate_classify(sf_dir: str) -> rd.Dataset:
    """Per-block boilerplate classification, long format: (doc_id,
    block_idx, tag, text_chars, link_density_ppm, label) with label in
    {boilerplate, short, content} by the two-feature rule above —
    nav/ad are always link-dense, the footer sits at ~430-444k ppm
    (source-length dependent), and the content block splits
    content/short on the document's own text length.

    Scale shape: stateless Arrow map, 4 output rows per doc, no
    shuffle."""
    import pyarrow.compute as pc

    def classify(batch: pa.Table) -> pa.Table:
        pages = _synth_html_arrow(batch)
        n = len(batch)
        chunks = []
        for idx, tag, _flat, text_chars, _lc, density in (
            _block_stats_arrays(pages)
        ):
            label = pc.if_else(
                pc.greater_equal(density, BOILER_DENSITY_MAX_PPM),
                pa.scalar("boilerplate"),
                pc.if_else(
                    pc.less(text_chars, BOILER_SHORT_MIN_CHARS),
                    pa.scalar("short"),
                    pa.scalar("content"),
                ),
            )
            chunks.append(
                pa.table(
                    {
                        "doc_id": batch.column("doc_id"),
                        "block_idx": pa.array([idx] * n, type=pa.int64()),
                        "tag": pa.array([tag] * n, type=pa.string()),
                        "text_chars": text_chars,
                        "link_density_ppm": density,
                        "label": label,
                    }
                )
            )
        return pa.concat_tables(chunks)

    return read_documents(sf_dir, _DOC_COLS).map_batches(
        classify, batch_format="pyarrow"
    )


def block_boilerplate_classify_sql() -> str:
    return (
        _block_stats_cte() + " SELECT doc_id, block_idx, tag, text_chars, "
        "CAST(link_density_ppm AS BIGINT) AS link_density_ppm, "
        f"CASE WHEN link_density_ppm >= {BOILER_DENSITY_MAX_PPM} "
        "THEN 'boilerplate' "
        f"WHEN text_chars < {BOILER_SHORT_MIN_CHARS} THEN 'short' "
        "ELSE 'content' END AS label FROM blocks"
    )


def docs_boilerplate_filtered_text(sf_dir: str) -> rd.Dataset:
    """Boilerplate FILTER (vs main-content's single-winner PICK): the
    document's extracted text is the block-order concatenation of
    every block the two-feature rule labels `content` — a doc whose
    content block is short yields the empty string (kept_blocks 0),
    the honest multi-block-filter semantics. Output: (doc_id,
    kept_blocks, extracted_text, n_chars).

    Scale shape: stateless Arrow map (a fill-null concat chain does
    the variable-subset join vectorized), one output row per doc, no
    shuffle."""
    import pyarrow.compute as pc

    def filt(batch: pa.Table) -> pa.Table:
        pages = _synth_html_arrow(batch)
        pieces, kept = [], None
        for _idx, _tag, flat, text_chars, _lc, density in (
            _block_stats_arrays(pages)
        ):
            keep = pc.and_(
                pc.less(density, BOILER_DENSITY_MAX_PPM),
                pc.greater_equal(text_chars, BOILER_SHORT_MIN_CHARS),
            )
            pieces.append(pc.if_else(keep, flat, pa.scalar(None, pa.string())))
            k = pc.cast(keep, pa.int64())
            kept = k if kept is None else pc.add(kept, k)
        # NOT binary_join_element_wise(null_handling="skip"): on this
        # pyarrow an all-null row is DROPPED from the output (length
        # shrinks), not emitted as "" — misaligns the batch. Explicit
        # conditional-separator concat instead.
        text = pc.fill_null(pieces[0], "")
        for p in pieces[1:]:
            sep = pc.if_else(
                pc.and_(pc.not_equal(text, ""), pc.is_valid(p)),
                pa.scalar(" "),
                pa.scalar(""),
            )
            text = pc.binary_join_element_wise(
                text, sep, pc.fill_null(p, ""), ""
            )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "kept_blocks": kept,
                "extracted_text": text,
                "n_chars": pc.cast(pc.utf8_length(text), pa.int64()),
            }
        )

    return read_documents(sf_dir, _DOC_COLS).map_batches(
        filt, batch_format="pyarrow"
    )


def boilerplate_filtered_text_sql() -> str:
    agg = "coalesce(string_agg(l.flat_text, ' ' ORDER BY l.block_idx), '')"
    return (
        _block_stats_cte()
        + ", kept AS (SELECT doc_id, block_idx, flat_text FROM blocks "
        f"WHERE link_density_ppm < {BOILER_DENSITY_MAX_PPM} "
        f"AND text_chars >= {BOILER_SHORT_MIN_CHARS}) "
        "SELECT d.doc_id, CAST(count(l.doc_id) AS BIGINT) AS kept_blocks, "
        f"{agg} AS extracted_text, "
        f"CAST(length({agg}) AS BIGINT) AS n_chars "
        "FROM documents d LEFT JOIN kept l ON d.doc_id = l.doc_id "
        "GROUP BY d.doc_id"
    )


# --------------------------------------------------------------------
# PDF content-stream / layout parse
# --------------------------------------------------------------------

#: One positioned text run: `BT 1 0 0 1 <x> <y> Tm (<text>) Tj ET`
#: (identity text matrix + show-text — the minimal Tm/Tj subset).
PDF_RUN_RE = r"BT 1 0 0 1 (\d+) (\d+) Tm \(([^)]*)\) Tj ET"

PDF_CHUNK = 40
_PDF_MAX_CHARS = 4160  # keeps y = 720 - (i//2)*14 non-negative


def _pdf_runs_for_text(text: str) -> list[tuple[int, int, int, str]]:
    """Deterministic two-column layout: chunk i sits at
    x = 72 + (i%2)*240, y = 720 - (i//2)*14 — so reading order
    (y desc, x asc) is exactly chunk order. Returns
    (i, x, y, chunk)."""
    if len(text) > _PDF_MAX_CHARS:
        raise ValueError(
            f"text of {len(text)} chars exceeds the {_PDF_MAX_CHARS}-char "
            "synthetic single-page layout — negative y would break the "
            "run grammar (and the oracle) silently"
        )
    if "(" in text or ")" in text:
        # The minimal `(chunk) Tj` grammar has no escape sequences: an
        # embedded ')' truncates the run match and the page text stops
        # round-tripping SILENTLY. Same loud-guard convention as
        # _guard_markup_safe on the HTML side.
        raise ValueError(
            "text contains parentheses — the minimal (...) Tj run "
            "grammar cannot escape them; refusing to synthesize a "
            "silently-corrupt content stream"
        )
    runs = []
    for i in range(0, (len(text) + PDF_CHUNK - 1) // PDF_CHUNK):
        chunk = text[i * PDF_CHUNK : (i + 1) * PDF_CHUNK]
        runs.append((i, 72 + (i % 2) * 240, 720 - (i // 2) * 14, chunk))
    return runs


def _serialize_runs(runs: list[tuple[int, int, int, str]]) -> str:
    """Serialize runs in SHUFFLED order (i%3, i) — content streams
    carry no reading-order guarantee, so the parser must reconstruct
    it geometrically. ONE copy of the run-grammar literal, kept in
    sync with PDF_RUN_RE and the SQL stream CTEs."""
    runs = sorted(runs, key=lambda r: (r[0] % 3, r[0]))
    return " ".join(
        f"BT 1 0 0 1 {x} {y} Tm ({chunk}) Tj ET" for _i, x, y, chunk in runs
    )


def _pdf_stream_for_text(text: str) -> str:
    return _serialize_runs(_pdf_runs_for_text(text))


_PDF_SYNTH_SQL = (
    "WITH ch AS (SELECT doc_id, text, unnest(range(0, CAST(ceil("
    f"length(text) / {PDF_CHUNK}.0) AS BIGINT))) AS i FROM documents), "
    "r AS (SELECT doc_id, i, 72 + (i % 2) * 240 AS x, "
    "720 - (i // 2) * 14 AS y, "
    f"substr(text, CAST(1 + i * {PDF_CHUNK} AS INTEGER), {PDF_CHUNK}) "
    "AS chunk FROM ch), "
    "stream AS (SELECT doc_id, string_agg('BT 1 0 0 1 ' || x || ' ' || y "
    "|| ' Tm (' || chunk || ') Tj ET', ' ' ORDER BY i % 3, i) AS s "
    "FROM r GROUP BY doc_id), "
    "m AS (SELECT doc_id, unnest(regexp_extract_all(s, "
    f"'{PDF_RUN_RE}')) AS run FROM stream), "
    "parsed AS (SELECT doc_id, "
    f"CAST(regexp_extract(run, '{PDF_RUN_RE}', 1) AS BIGINT) AS x, "
    f"CAST(regexp_extract(run, '{PDF_RUN_RE}', 2) AS BIGINT) AS y, "
    f"regexp_extract(run, '{PDF_RUN_RE}', 3) AS run_text FROM m)"
)


def pdf_runs_sql() -> str:
    """Oracle for docs_pdf_runs: synthesize the shuffled stream in
    SQL, parse it back with the same RE2 grammar, rank into reading
    order."""
    return (
        _PDF_SYNTH_SQL + " SELECT doc_id, CAST(row_number() OVER ("
        "PARTITION BY doc_id ORDER BY y DESC, x ASC) - 1 AS BIGINT) "
        "AS run_idx, x, y, run_text FROM parsed"
    )


def pdf_page_text_sql() -> str:
    """Oracle for docs_pdf_page_text: same synth+parse, reassembled —
    a correct geometric sort makes page_text round-trip to the source
    text exactly. LEFT JOIN keeps zero-run docs (text = '') with
    n_runs=0 / page_text='', matching the op's one-row-per-doc
    semantics (the dup-gram oracle's zero-gram convention)."""
    return (
        _PDF_SYNTH_SQL + " SELECT d.doc_id, "
        "CAST(coalesce(p.n_runs, 0) AS BIGINT) AS n_runs, "
        "coalesce(p.page_text, '') AS page_text FROM documents d "
        "LEFT JOIN (SELECT doc_id, count(*) AS n_runs, "
        "string_agg(run_text, '' ORDER BY y DESC, x ASC) AS page_text "
        "FROM parsed GROUP BY doc_id) p ON d.doc_id = p.doc_id"
    )


def _parse_pdf_batch(batch: pa.Table, streamer=_pdf_stream_for_text):
    """Shared synth -> regex parse for the PDF ops. The loop is per
    run (<= 15/doc at corpus lengths), with a compiled RE2-compatible
    pattern — the docs_extract_matches explode shape. `streamer` picks
    the synthetic layout (zigzag vs newspaper columns)."""
    run_re = re.compile(PDF_RUN_RE, re.ASCII)
    parsed = []  # (doc_id, x, y, run_text)
    for d, t in zip(
        batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
    ):
        stream = streamer(t)
        for x, y, run_text in run_re.findall(stream):
            parsed.append((d, int(x), int(y), run_text))
    return parsed


def docs_pdf_runs(sf_dir: str) -> rd.Dataset:
    """PDF layout parse, long format: each positioned text run of the
    synthetic content stream as (doc_id, run_idx, x, y, run_text),
    run_idx being the GEOMETRIC reading-order rank (y desc, x asc) —
    the layout-analysis table column/block detection consumes.

    Scale shape: stateless map explode per doc; no shuffle (reading
    order is computed within the row's own runs).
    """

    def parse(batch: pa.Table) -> pa.Table:
        rows = _parse_pdf_batch(batch)
        by_doc: dict[int, list] = {}
        for rec in rows:
            by_doc.setdefault(rec[0], []).append(rec)
        ids, idxs, xs, ys, texts = [], [], [], [], []
        for d, recs in by_doc.items():
            recs.sort(key=lambda r: (-r[2], r[1]))
            for k, (_d, x, y, rt) in enumerate(recs):
                ids.append(d)
                idxs.append(k)
                xs.append(x)
                ys.append(y)
                texts.append(rt)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "run_idx": pa.array(idxs, type=pa.int64()),
                "x": pa.array(xs, type=pa.int64()),
                "y": pa.array(ys, type=pa.int64()),
                "run_text": pa.array(texts, type=pa.string()),
            }
        )

    return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        parse, batch_format="pyarrow"
    )


def docs_pdf_page_text(sf_dir: str) -> rd.Dataset:
    """PDF text extraction: parse the shuffled content stream, sort
    runs into geometric reading order, reassemble the page text —
    (doc_id, n_runs, page_text). Exact round-trip to the source text
    certifies the whole parse+sort chain.

    Scale shape: stateless map, one output row per doc, no shuffle.
    """

    def assemble(batch: pa.Table) -> pa.Table:
        rows = _parse_pdf_batch(batch)
        by_doc: dict[int, list] = {}
        for rec in rows:
            by_doc.setdefault(rec[0], []).append(rec)
        ids, counts, texts = [], [], []
        for d in batch.column("doc_id").to_pylist():
            recs = by_doc.get(d, [])
            recs.sort(key=lambda r: (-r[2], r[1]))
            ids.append(d)
            counts.append(len(recs))
            texts.append("".join(r[3] for r in recs))
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_runs": pa.array(counts, type=pa.int64()),
                "page_text": pa.array(texts, type=pa.string()),
            }
        )

    return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        assemble, batch_format="pyarrow"
    )


# --------------------------------------------------------------------
# Newspaper-column PDF layout: true column detection
# --------------------------------------------------------------------


def _pdf_column_runs_for_text(text: str) -> list[tuple[int, int, int, str]]:
    """TRUE newspaper-column layout: chunks fill the LEFT column top
    to bottom, then the RIGHT — chunk i of n sits at column
    i // rpc, row i % rpc with rpc = ceil(n/2) rows per column,
    x = 72 + col*240, y = 720 - row*14. Unlike `_pdf_runs_for_text`'s
    zigzag (where naive row-major (y desc, x asc) order happens to be
    correct), here row-major order INTERLEAVES the columns and
    corrupts the text: reconstruction requires column detection.
    Same grammar, same guards, same max length (rpc <= 52 keeps
    y positive exactly when n <= 104 chunks = `_PDF_MAX_CHARS`)."""
    if len(text) > _PDF_MAX_CHARS:
        raise ValueError(
            f"text of {len(text)} chars exceeds the {_PDF_MAX_CHARS}-char "
            "synthetic single-page layout — negative y would break the "
            "run grammar (and the oracle) silently"
        )
    if "(" in text or ")" in text:
        raise ValueError(
            "text contains parentheses — the minimal (...) Tj run "
            "grammar cannot escape them; refusing to synthesize a "
            "silently-corrupt content stream"
        )
    n = (len(text) + PDF_CHUNK - 1) // PDF_CHUNK
    rpc = (n + 1) // 2  # ceil(n/2) rows per column
    runs = []
    for i in range(n):
        chunk = text[i * PDF_CHUNK : (i + 1) * PDF_CHUNK]
        runs.append(
            (i, 72 + (i // rpc) * 240, 720 - (i % rpc) * 14, chunk)
        )
    return runs


def _pdf_column_stream_for_text(text: str) -> str:
    """Column-layout runs through the same shuffled serializer — the
    parser sees no ordering hint from the stream."""
    return _serialize_runs(_pdf_column_runs_for_text(text))


_PDF_COL_SYNTH_SQL = (
    "WITH nch AS (SELECT doc_id, text, CAST(ceil(length(text) / "
    f"{PDF_CHUNK}.0) AS BIGINT) AS n FROM documents), "
    "rp AS (SELECT doc_id, text, CAST(ceil(n / 2.0) AS BIGINT) AS rpc, "
    "unnest(range(0, n)) AS i FROM nch), "
    "r AS (SELECT doc_id, i, 72 + (i // rpc) * 240 AS x, "
    "720 - (i % rpc) * 14 AS y, "
    f"substr(text, CAST(1 + i * {PDF_CHUNK} AS INTEGER), {PDF_CHUNK}) "
    "AS chunk FROM rp), "
    "stream AS (SELECT doc_id, string_agg('BT 1 0 0 1 ' || x || ' ' || y "
    "|| ' Tm (' || chunk || ') Tj ET', ' ' ORDER BY i % 3, i) AS s "
    "FROM r GROUP BY doc_id), "
    "m AS (SELECT doc_id, unnest(regexp_extract_all(s, "
    f"'{PDF_RUN_RE}')) AS run FROM stream), "
    "parsed AS (SELECT doc_id, "
    f"CAST(regexp_extract(run, '{PDF_RUN_RE}', 1) AS BIGINT) AS x, "
    f"CAST(regexp_extract(run, '{PDF_RUN_RE}', 2) AS BIGINT) AS y, "
    f"regexp_extract(run, '{PDF_RUN_RE}', 3) AS run_text FROM m)"
)


def pdf_column_text_sql() -> str:
    """Oracle for docs_pdf_column_text: synthesize the shuffled
    newspaper-column stream in SQL, parse with the same RE2 grammar,
    read columns left-to-right / top-to-bottom (x ASC, y DESC)."""
    return (
        _PDF_COL_SYNTH_SQL + " SELECT d.doc_id, "
        "CAST(coalesce(p.n_cols, 0) AS BIGINT) AS n_cols, "
        "coalesce(p.page_text, '') AS page_text FROM documents d "
        "LEFT JOIN (SELECT doc_id, count(DISTINCT x) AS n_cols, "
        "string_agg(run_text, '' ORDER BY x ASC, y DESC) AS page_text "
        "FROM parsed GROUP BY doc_id) p ON d.doc_id = p.doc_id"
    )


def docs_pdf_column_text(sf_dir: str) -> rd.Dataset:
    """Column-aware PDF text extraction: parse the shuffled
    newspaper-column content stream, DETECT the columns (distinct x
    origins, left-to-right), read each column top-to-bottom, and
    reassemble — (doc_id, n_cols, page_text). The zigzag ops'
    row-major sort would interleave the columns here; exact
    round-trip to the source text certifies the column detection
    (layout analysis, not just geometric sorting).

    Scale shape: stateless map, one output row per doc, no shuffle.
    """

    def assemble(batch: pa.Table) -> pa.Table:
        rows = _parse_pdf_batch(batch, streamer=_pdf_column_stream_for_text)
        by_doc: dict[int, list] = {}
        for rec in rows:
            by_doc.setdefault(rec[0], []).append(rec)
        ids, ncols, texts = [], [], []
        for d in batch.column("doc_id").to_pylist():
            recs = by_doc.get(d, [])
            # Column detection: distinct x origins, read left-to-right,
            # each column top-to-bottom.
            recs.sort(key=lambda r: (r[1], -r[2]))
            ids.append(d)
            ncols.append(len({r[1] for r in recs}))
            texts.append("".join(r[3] for r in recs))
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_cols": pa.array(ncols, type=pa.int64()),
                "page_text": pa.array(texts, type=pa.string()),
            }
        )

    return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        assemble, batch_format="pyarrow"
    )


# --------------------------------------------------------------------
# Multi-page PDF: pagination removes the single-page length cap
# --------------------------------------------------------------------

#: Rows per synthetic page (y = 720 - r*14 stays >= 34 for r < 50).
PDF_ROWS_PER_PAGE = 50
#: Page-stream separator in the serialized multi-page document (real
#: PDFs carry one content stream per page object; this is the flat
#: single-line equivalent the parser re-splits on).
PDF_PAGE_SEP = " %%PAGE%% "


def _pdf_multipage_stream_for_text(text: str) -> str:
    """Serialize a MULTI-PAGE document: chunk i sits on page i // 50,
    row i % 50 (single column, x = 72). Runs are shuffled (i%3, i)
    WITHIN each page; pages are joined in order by `PDF_PAGE_SEP`.
    No length cap — overflow starts the next page, which is exactly
    what the single-page ops' `_PDF_MAX_CHARS` guard cannot do. The
    parentheses guard still applies (grammar has no escapes)."""
    if "(" in text or ")" in text:
        raise ValueError(
            "text contains parentheses — the minimal (...) Tj run "
            "grammar cannot escape them; refusing to synthesize a "
            "silently-corrupt content stream"
        )
    if PDF_PAGE_SEP in text:
        # both engines would split the stream mid-chunk (parity holds
        # but the exact-round-trip invariant silently breaks) — guard
        # loudly like the parentheses / hyphen cases
        raise ValueError(
            f"text contains the page separator {PDF_PAGE_SEP!r} — the "
            "multi-page round-trip invariant would silently break"
        )
    n = (len(text) + PDF_CHUNK - 1) // PDF_CHUNK
    rpp = PDF_ROWS_PER_PAGE
    pages: dict[int, list] = {}
    for i in range(n):
        chunk = text[i * PDF_CHUNK : (i + 1) * PDF_CHUNK]
        pages.setdefault(i // rpp, []).append((i, 72, 720 - (i % rpp) * 14, chunk))
    return PDF_PAGE_SEP.join(
        _serialize_runs(pages[pg]) for pg in sorted(pages)
    )


def docs_pdf_multipage_text(sf_dir: str) -> rd.Dataset:
    """Multi-page PDF text extraction, long format: split the
    serialized document on the page separator, parse each page's
    shuffled runs, sort into reading order (y desc; single column),
    and emit (doc_id, page_idx, n_runs, page_text) — one row per
    page. Concatenating page_text over page_idx round-trips the
    source text exactly, at ANY length (pagination replaces the
    single-page ops' max-chars guard). Zero-chunk docs emit no rows
    (the docs_pdf_runs convention).

    Scale shape: stateless map explode, no shuffle; rows per doc
    bounded by ceil(len/2000).
    """
    run_re = re.compile(PDF_RUN_RE, re.ASCII)

    def parse(batch: pa.Table) -> pa.Table:
        ids, pgs, counts, texts = [], [], [], []
        for d, t in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            stream = _pdf_multipage_stream_for_text(t)
            if not stream:
                continue
            for pg, page_s in enumerate(stream.split(PDF_PAGE_SEP)):
                runs = [
                    (int(y), rt) for _x, y, rt in run_re.findall(page_s)
                ]
                runs.sort(key=lambda r: -r[0])
                ids.append(d)
                pgs.append(pg)
                counts.append(len(runs))
                texts.append("".join(rt for _y, rt in runs))
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "page_idx": pa.array(pgs, type=pa.int64()),
                "n_runs": pa.array(counts, type=pa.int64()),
                "page_text": pa.array(texts, type=pa.string()),
            }
        )

    return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        parse, batch_format="pyarrow"
    )


def pdf_multipage_text_sql() -> str:
    """Oracle for docs_pdf_multipage_text: synthesize the SAME
    serialized multi-page string in SQL (per-page shuffled streams
    joined by the separator), re-split it, re-parse each page with
    the shared RE2 grammar, reassemble in reading order."""
    rpp = PDF_ROWS_PER_PAGE
    sep = PDF_PAGE_SEP
    return (
        "WITH ch AS (SELECT doc_id, text, unnest(range(0, CAST(ceil("
        f"length(text) / {PDF_CHUNK}.0) AS BIGINT))) AS i FROM documents), "
        f"r AS (SELECT doc_id, i, i // {rpp} AS pg, 72 AS x, "
        f"720 - (i % {rpp}) * 14 AS y, "
        f"substr(text, CAST(1 + i * {PDF_CHUNK} AS INTEGER), {PDF_CHUNK}) "
        "AS chunk FROM ch), "
        "pstream AS (SELECT doc_id, pg, string_agg('BT 1 0 0 1 ' || x || "
        "' ' || y || ' Tm (' || chunk || ') Tj ET', ' ' ORDER BY i % 3, i) "
        "AS s FROM r GROUP BY doc_id, pg), "
        f"doc_stream AS (SELECT doc_id, string_agg(s, '{sep}' "
        "ORDER BY pg) AS doc_s FROM pstream GROUP BY doc_id), "
        "pages AS (SELECT doc_id, "
        "generate_subscripts(l, 1) - 1 AS page_idx, unnest(l) AS page_s "
        f"FROM (SELECT doc_id, string_split(doc_s, '{sep}') AS l "
        "FROM doc_stream)), "
        "m AS (SELECT doc_id, page_idx, unnest(regexp_extract_all(page_s, "
        f"'{PDF_RUN_RE}')) AS run FROM pages), "
        "parsed AS (SELECT doc_id, page_idx, "
        f"CAST(regexp_extract(run, '{PDF_RUN_RE}', 2) AS BIGINT) AS y, "
        f"regexp_extract(run, '{PDF_RUN_RE}', 3) AS run_text FROM m) "
        "SELECT doc_id, CAST(page_idx AS BIGINT) AS page_idx, "
        "CAST(count(*) AS BIGINT) AS n_runs, "
        "string_agg(run_text, '' ORDER BY y DESC) AS page_text "
        "FROM parsed GROUP BY doc_id, page_idx"
    )


def _pdf_hyphen_runs_for_text(text: str) -> list[tuple[int, int, int, str]]:
    """The zigzag layout with LINE-BREAK HYPHENS: when a fixed-width
    chunk boundary splits a word (non-space on both sides), the chunk
    is emitted with a trailing '-' — the hyphenated-linebreak artifact
    every real PDF text extractor must undo. Corpus texts contain no
    literal '-' (guarded loudly below), so every trailing hyphen is a
    break artifact and the dehyphenated text round-trips exactly."""
    if "-" in text:
        raise ValueError(
            "text contains a literal '-' — the synthetic hyphenated "
            "layout could not distinguish it from a line-break hyphen "
            "and the round-trip oracle would silently diverge"
        )
    runs = _pdf_runs_for_text(text)
    out = []
    for i, x, y, chunk in runs:
        straddle = (
            (i + 1) * PDF_CHUNK < len(text)
            and text[(i + 1) * PDF_CHUNK - 1] != " "
            and text[(i + 1) * PDF_CHUNK] != " "
        )
        out.append((i, x, y, chunk + "-" if straddle else chunk))
    return out


def _pdf_hyphen_stream_for_text(text: str) -> str:
    return _serialize_runs(_pdf_hyphen_runs_for_text(text))


def docs_pdf_dehyphenated_text(sf_dir: str) -> rd.Dataset:
    """PDF text extraction with DEHYPHENATION: parse the shuffled
    hyphenated content stream, sort runs into reading order, and undo
    line-break hyphens by the standard heuristic — a run-final '-'
    whose successor starts with a non-space character is a break
    artifact (drop it, join directly); any other junction concatenates
    as-is. Output (doc_id, n_runs, n_hyphens, page_text); page_text
    round-trips to the source text exactly.

    Scale shape: stateless map, one output row per doc, no shuffle;
    the per-doc run loop is bounded (<= 15 runs at corpus lengths).
    """

    def parse(batch: pa.Table) -> pa.Table:
        rows = _parse_pdf_batch(batch, streamer=_pdf_hyphen_stream_for_text)
        by_doc: dict[int, list] = {}
        for rec in rows:
            by_doc.setdefault(rec[0], []).append(rec)
        ids = batch.column("doc_id").to_pylist()
        n_runs, n_hyph, texts = [], [], []
        for d in ids:
            recs = sorted(by_doc.get(d, []), key=lambda r: (-r[2], r[1]))
            parts, h = [], 0
            for k, (_d, _x, _y, rt) in enumerate(recs):
                nxt = recs[k + 1][3] if k + 1 < len(recs) else None
                if rt.endswith("-") and nxt and not nxt.startswith(" "):
                    parts.append(rt[:-1])
                    h += 1
                else:
                    parts.append(rt)
            n_runs.append(len(recs))
            n_hyph.append(h)
            texts.append("".join(parts))
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_runs": pa.array(n_runs, type=pa.int64()),
                "n_hyphens": pa.array(n_hyph, type=pa.int64()),
                "page_text": pa.array(texts, type=pa.string()),
            }
        )

    return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        parse, batch_format="pyarrow"
    )


def pdf_dehyphenated_text_sql() -> str:
    """Same synth (hyphens via the straddle rule), same parse, same
    lead()-based dehyphenation heuristic — one rule, two renderings."""
    c = PDF_CHUNK
    return (
        "WITH ch AS (SELECT doc_id, text, unnest(range(0, CAST(ceil("
        f"length(text) / {c}.0) AS BIGINT))) AS i FROM documents), "
        "r AS (SELECT doc_id, i, 72 + (i % 2) * 240 AS x, "
        "720 - (i // 2) * 14 AS y, "
        f"substr(text, CAST(1 + i * {c} AS INTEGER), {c}) || "
        f"CASE WHEN (i + 1) * {c} < length(text) "
        f"AND substr(text, CAST((i + 1) * {c} AS INTEGER), 1) != ' ' "
        f"AND substr(text, CAST((i + 1) * {c} + 1 AS INTEGER), 1) != ' ' "
        "THEN '-' ELSE '' END AS chunk FROM ch), "
        "stream AS (SELECT doc_id, string_agg('BT 1 0 0 1 ' || x || ' ' "
        "|| y || ' Tm (' || chunk || ') Tj ET', ' ' ORDER BY i % 3, i) "
        "AS s FROM r GROUP BY doc_id), "
        "m AS (SELECT doc_id, unnest(regexp_extract_all(s, "
        f"'{PDF_RUN_RE}')) AS run FROM stream), "
        "parsed AS (SELECT doc_id, "
        f"CAST(regexp_extract(run, '{PDF_RUN_RE}', 1) AS BIGINT) AS x, "
        f"CAST(regexp_extract(run, '{PDF_RUN_RE}', 2) AS BIGINT) AS y, "
        f"regexp_extract(run, '{PDF_RUN_RE}', 3) AS run_text FROM m), "
        "seq AS (SELECT doc_id, run_text, row_number() OVER w AS rn, "
        "lead(run_text) OVER w AS nxt FROM parsed "
        "WINDOW w AS (PARTITION BY doc_id ORDER BY y DESC, x ASC)), "
        "fixed AS (SELECT doc_id, rn, CASE WHEN run_text LIKE '%-' "
        "AND nxt IS NOT NULL AND substr(nxt, 1, 1) != ' ' "
        "THEN substr(run_text, 1, length(run_text) - 1) "
        "ELSE run_text END AS t, CASE WHEN run_text LIKE '%-' "
        "AND nxt IS NOT NULL AND substr(nxt, 1, 1) != ' ' "
        "THEN 1 ELSE 0 END AS h FROM seq) "
        "SELECT d.doc_id, CAST(coalesce(p.n_runs, 0) AS BIGINT) AS n_runs, "
        "CAST(coalesce(p.n_hyphens, 0) AS BIGINT) AS n_hyphens, "
        "coalesce(p.page_text, '') AS page_text FROM documents d "
        "LEFT JOIN (SELECT doc_id, count(*) AS n_runs, sum(h) AS n_hyphens, "
        "string_agg(t, '' ORDER BY rn) AS page_text FROM fixed "
        "GROUP BY doc_id) p ON d.doc_id = p.doc_id"
    )


# --------------------------------------------------------------------
# HTML table extraction (ragged per-doc structure)
# --------------------------------------------------------------------

#: One table row: label cell + value cell ([^<]* bodies — both
#: engines agree on boundaries without non-greedy backtracking).
HTML_TR_RE = r"<tr><td>([^<]*)</td><td>([^<]*)</td></tr>"

_TABLE_ROW_TEMPLATES = (
    ("<tr><td>k1</td><td>", ("id_r1",), "</td></tr>"),
    ("<tr><td>k2</td><td>", ("id_r2",), "</td></tr>"),
    ("<tr><td>k3</td><td>", ("id_r3",), "</td></tr>"),
)


def _table_page_template(n_rows: int) -> tuple:
    """Page variant with `n_rows` table rows (1..3) — the per-doc row
    count (doc_id % 3 + 1) makes the extraction output RAGGED."""
    parts: tuple = (
        "<html><body><h1>Data ",
        ("id",),
        '</h1><table class="data">',
    )
    for r in range(n_rows):
        parts = parts + _TABLE_ROW_TEMPLATES[r]
    return parts + ("</table><footer>", ("source",), "</footer></body></html>")


def docs_html_table_extract(sf_dir: str) -> rd.Dataset:
    """HTML table extraction: parse the page's <table> rows into a
    ragged long format — (doc_id, row_idx, row_label, row_value),
    1-3 rows per doc (doc_id % 3 + 1). The structured-data sibling of
    the link explode: crawled pages carry key-value tables
    (infoboxes, spec sheets) that pipeline stages consume as typed
    rows, not flattened text.

    Scale shape: stateless map explode, output bounded by rows/page;
    the per-match loop is the docs_html_links shape.
    """
    import pyarrow.compute as pc

    templates = [_table_page_template(n) for n in (1, 2, 3)]
    tr_re = re.compile(HTML_TR_RE, re.ASCII)

    def extract(batch: pa.Table) -> pa.Table:
        rendered = [
            _render_template_arrow(batch, t).to_numpy(zero_copy_only=False)
            for t in templates
        ]
        mod = pc.subtract(
            batch.column("doc_id"),
            pc.multiply(pc.divide(batch.column("doc_id"), 3), 3),
        ).to_numpy()
        pages = np.select(
            [mod == 0, mod == 1], rendered[:2], default=rendered[2]
        )
        ids, idxs, labels, vals = [], [], [], []
        for d, page in zip(batch.column("doc_id").to_pylist(), pages):
            for j, (lab, val) in enumerate(tr_re.findall(page)):
                ids.append(d)
                idxs.append(j)
                labels.append(lab)
                vals.append(val)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "row_idx": pa.array(idxs, type=pa.int64()),
                "row_label": pa.array(labels, type=pa.string()),
                "row_value": pa.array(vals, type=pa.string()),
            }
        )

    return read_documents(sf_dir, _URL_COLS).map_batches(
        extract, batch_format="pyarrow"
    )


#: Heading match: (level digit, body). RE2 has no backreferences, so
#: the close tag matches any of h1-h3 — fine on well-formed markup
#: (the synthesis guarantees it; a mismatched close would pair wrong
#: levels and the oracle would catch the divergence value-exactly).
HTML_HEADING_RE = r"<h([123])>([^<]*)</h[123]>"


def _outline_page_template(n_sections: int) -> tuple:
    """Sectioned page variant with `n_sections` h2 sections (1..3);
    the 3-section variant also nests an <h3> inside its last section
    — level variety for the outline parse."""
    parts: tuple = ("<html><body><h1>Doc ", ("id",), "</h1>")
    bodies: tuple = (
        ("<p>", ("text",), "</p>"),
        ("<p>Appendix ", ("id_mod7",), "</p>"),
        ("<p>Notes ", ("id_mod13",), "</p>"),
    )
    for j in range(n_sections):
        parts = parts + ("<h2>Part " + str(j + 1) + " of ", ("source",), "</h2>")
        parts = parts + bodies[j]
        if n_sections == 3 and j == 2:
            parts = parts + ("<h3>Sub ", ("id_mod7",), "</h3>")
    return parts + ("<footer>", ("source",), "</footer></body></html>")


def docs_html_outline(sf_dir: str) -> rd.Dataset:
    """Document-outline extraction: parse every h1/h2/h3 of the
    sectioned page (doc_id % 3 + 1 sections, the 3-section variant
    nesting an h3) into document-order rows — (doc_id, heading_idx,
    level, heading). The table-of-contents structure layout-aware
    chunkers and section-level dedup key on.

    Scale shape: stateless map explode, 2-5 rows per doc; the
    per-match loop is the docs_html_links shape."""
    import pyarrow.compute as pc

    templates = [_outline_page_template(n) for n in (1, 2, 3)]
    h_re = re.compile(HTML_HEADING_RE, re.ASCII)

    def extract(batch: pa.Table) -> pa.Table:
        # render each doc_id%3 subset with ITS template only — the
        # outline templates embed `text`, so rendering all three
        # variants for every row (the cheap table-extract pattern)
        # would triple the dominant string-concat cost here
        mod = pc.subtract(
            batch.column("doc_id"),
            pc.multiply(pc.divide(batch.column("doc_id"), 3), 3),
        ).to_numpy()
        ids, idxs, levels, texts = [], [], [], []
        for v, tpl in enumerate(templates):
            mask = mod == v
            if not mask.any():
                continue
            sub = batch.filter(pa.array(mask))
            pages = _render_template_arrow(sub, tpl).to_numpy(
                zero_copy_only=False
            )
            for d, page in zip(sub.column("doc_id").to_pylist(), pages):
                for j, (lvl, body) in enumerate(h_re.findall(page)):
                    ids.append(d)
                    idxs.append(j)
                    levels.append(int(lvl))
                    texts.append(body)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "heading_idx": pa.array(idxs, type=pa.int64()),
                "level": pa.array(levels, type=pa.int64()),
                "heading": pa.array(texts, type=pa.string()),
            }
        )

    return read_documents(sf_dir, ["doc_id", "source", "text"]).map_batches(
        extract, batch_format="pyarrow"
    )


def html_outline_sql() -> str:
    """Oracle for docs_html_outline: render the SAME three sectioned
    variants selected by doc_id % 3, re-parse every heading with the
    shared pattern, ordinal heading_idx."""
    cases = " ".join(
        f"WHEN {n - 1} THEN {_template_sql(_outline_page_template(n))}"
        for n in (1, 2, 3)
    )
    return (
        f"WITH pages AS (SELECT doc_id, CASE doc_id % 3 {cases} END AS h "
        "FROM documents), "
        "hs AS (SELECT doc_id, generate_subscripts(l, 1) - 1 AS heading_idx, "
        "unnest(l) AS hd FROM (SELECT doc_id, "
        f"regexp_extract_all(h, '{HTML_HEADING_RE}') AS l FROM pages)) "
        "SELECT doc_id, CAST(heading_idx AS BIGINT) AS heading_idx, "
        f"CAST(regexp_extract(hd, '{HTML_HEADING_RE}', 1) AS BIGINT) AS level, "
        f"regexp_extract(hd, '{HTML_HEADING_RE}', 2) AS heading FROM hs"
    )


def docs_table_value_rollup(sf_dir: str) -> rd.Dataset:
    """Typed aggregation over the EXTRACTED tables: per row_label, the
    bigint sum of the (numeric) row_value cells and the row count —
    the extraction-to-typed-aggregate composition (parse cells, cast,
    reduce). Label space is bounded (k1..k3), so partials tree-reduce
    without a hash shuffle (the CLAUDE.md bounded-key convention).

    Scale shape: stateless extract + per-batch combiner + tree
    reduce; nothing key-space-sized leaves the workers.
    """
    import pyarrow.compute as pc

    from .relational import tree_sum

    rows = docs_html_table_extract(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "row_label": batch.column("row_label"),
                "sum_value": pc.cast(batch.column("row_value"), pa.int64()),
                "n_rows": pa.array(
                    np.ones(batch.num_rows, dtype=np.int64)
                ),
            }
        )
        g = t.group_by("row_label").aggregate(
            [("sum_value", "sum"), ("n_rows", "sum")]
        )
        return pa.table(
            {
                "row_label": g.column("row_label"),
                "sum_value": g.column("sum_value_sum"),
                "n_rows": g.column("n_rows_sum"),
            }
        )

    return tree_sum(
        rows.map_batches(partial, batch_format="pyarrow"),
        ["row_label"],
        ["sum_value", "n_rows"],
    )


def table_value_rollup_sql() -> str:
    return (
        "SELECT row_label, CAST(sum(CAST(row_value AS BIGINT)) AS BIGINT) "
        "AS sum_value, CAST(count(*) AS BIGINT) AS n_rows FROM ("
        + html_table_extract_sql()
        + ") GROUP BY row_label"
    )


def html_table_extract_sql() -> str:
    """Oracle for docs_html_table_extract: render the SAME three page
    variants selected by doc_id % 3, re-parse every <tr> with the
    shared pattern, ordinal row_idx."""
    cases = " ".join(
        f"WHEN {n - 1} THEN {_template_sql(_table_page_template(n))}"
        for n in (1, 2, 3)
    )
    return (
        f"WITH pages AS (SELECT doc_id, CASE doc_id % 3 {cases} END AS h "
        "FROM documents), "
        "rows_ AS (SELECT doc_id, generate_subscripts(l, 1) - 1 AS row_idx, "
        "unnest(l) AS tr FROM (SELECT doc_id, "
        f"regexp_extract_all(h, '{HTML_TR_RE}') AS l FROM pages)) "
        "SELECT doc_id, CAST(row_idx AS BIGINT) AS row_idx, "
        f"regexp_extract(tr, '{HTML_TR_RE}', 1) AS row_label, "
        f"regexp_extract(tr, '{HTML_TR_RE}', 2) AS row_value FROM rows_"
    )


# --------------------------------------------------------------------
# URL canonicalization (crawl-frontier raw URL stream)
# --------------------------------------------------------------------

#: Three dirty-URL variants every doc's page carries — each exercises
#: a different normalization rule: v0 a single dot-segment + fragment,
#: v1 an uppercase scheme/host + duplicate slashes + trailing slash
#: (13 canonical groups), v2 utm_* tracking params around a real one
#: (91 canonical groups). Rendered by the shared template machinery,
#: so Arrow and SQL synthesize byte-identical raw URLs.
_URL_VARIANTS = (
    ("/doc/", ("id",), "/../", ("id_next",), "/index.html#sec", ("id_mod7",)),
    ("HTTP://EX.com//p", ("id_mod13",), "//q/",),
    (
        "/ref/",
        ("id_mod13",),
        "?utm_source=feed&utm_medium=",
        ("source",),
        "&ref=",
        ("id_mod7",),
    ),
)

#: Ordered normalization steps (applied top to bottom; each is
#: (pattern, replacement, is_regex)). ONE list, two renderings —
#: `normalize_urls` (RE2 global replace) and `normalize_urls_sql`
#: (DuckDB regexp_replace 'g') — so parity holds by construction.
#: Constraints the synthesis guarantees (guarded loudly in tests):
#: at most ONE dot-segment per URL (step 3 is a single pass), and the
#: only scheme/host is the literal `HTTP://EX.com` (step 5 is a
#: literal lowercase — RE2 replacements can't case-fold).
URL_NORM_STEPS = (
    (r"#.*$", "", True),  # strip fragment
    (r"utm_[a-z]+=[^&]*&?", "", True),  # strip tracking params
    (r"[?&]$", "", True),  # tidy a dangling separator
    (r"/[^/]+/\.\./", "/", True),  # resolve the single dot-segment
    (r"([^:/])/{2,}", r"\1/", True),  # collapse duplicate slashes
    ("HTTP://EX.com", "http://ex.com", False),  # case-fold the host
    (r"(.)/$", r"\1", True),  # strip the trailing slash (non-root)
)


def normalize_urls(arr: pa.Array) -> pa.Array:
    """URL canonicalization as ordered RE2 kernels over a string
    array (see URL_NORM_STEPS)."""
    import pyarrow.compute as pc

    x = arr
    for pat, rep, is_re in URL_NORM_STEPS:
        if is_re:
            x = pc.replace_substring_regex(x, pat, rep)
        else:
            x = pc.replace_substring(x, pat, rep)
    return x


def normalize_urls_sql(expr: str) -> str:
    """The SAME ordered step list as nested DuckDB calls."""
    x = expr
    for pat, rep, is_re in URL_NORM_STEPS:
        if is_re:
            x = f"regexp_replace({x}, '{pat}', '{rep}', 'g')"
        else:
            x = f"replace({x}, '{pat}', '{rep}')"
    return x


def docs_url_normalize(sf_dir: str) -> rd.Dataset:
    """Canonicalize the crawl frontier's raw URL stream: 3 dirty URLs
    per doc (fragment + dot-segment, shouting host + slash runs,
    utm-tracked query) -> (doc_id, url_idx, href_raw, href_norm).
    The canonical form is what dedup / frontier scheduling keys on.

    Scale shape: stateless vectorized map, 3 output rows per input
    row, no shuffle."""
    return read_documents(sf_dir, _URL_COLS).map_batches(
        _render_url_variants, batch_format="pyarrow"
    )


def _render_url_variants(batch: pa.Table) -> pa.Table:
    """(doc_id, url_idx, href_raw, href_norm) — the 3 dirty variants
    rendered + canonicalized for one document batch."""
    import pyarrow.compute as pc

    # loud corpus guard: a '&', '#' or '?' inside `source` would
    # change what the utm/fragment rules strip (parity would still
    # hold — both engines run the same steps — but the canonical
    # groups would silently shift meaning)
    if batch.num_rows and pc.any(
        pc.match_substring_regex(batch.column("source"), r"[&#?]")
    ).as_py():
        raise ValueError(
            "documents.source contains URL-delimiter characters; "
            "the synthesized URL variants assume it is URL-safe"
        )
    n = batch.num_rows
    parts = [
        pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "url_idx": pa.array(np.full(n, i, dtype=np.int64)),
                "href_raw": _render_template_arrow(batch, tpl),
            }
        )
        for i, tpl in enumerate(_URL_VARIANTS)
    ]
    t = pa.concat_tables(parts)
    return t.append_column("href_norm", normalize_urls(t.column("href_raw")))


def url_normalize_sql() -> str:
    arms = " UNION ALL ".join(
        f"SELECT doc_id, CAST({i} AS BIGINT) AS url_idx, "
        f"{_template_sql(tpl)} AS href_raw FROM documents"
        for i, tpl in enumerate(_URL_VARIANTS)
    )
    return (
        f"WITH urls AS ({arms}) SELECT doc_id, url_idx, href_raw, "
        + normalize_urls_sql("href_raw")
        + " AS href_norm FROM urls"
    )


def _urlgroup_empty() -> pa.Table:
    return pa.table(
        {
            "href_norm": pa.array([], type=pa.string()),
            "n_refs": pa.array([], type=pa.int64()),
            "first_doc": pa.array([], type=pa.int64()),
        }
    )


def _urlgroup_agg(df, n_refs_spec, first_doc_spec) -> "object":
    """Shared groupby('href_norm') assembly for the combine and
    finish phases — only the aggregation specs differ."""
    if df.empty:
        return _urlgroup_empty()
    import pandas as pd

    g = df.groupby("href_norm", as_index=False).agg(
        n_refs=n_refs_spec, first_doc=first_doc_spec
    )
    return pd.DataFrame(
        {
            "href_norm": g["href_norm"].to_numpy(),
            "n_refs": g["n_refs"].to_numpy(dtype="int64"),
            "first_doc": g["first_doc"].to_numpy(dtype="int64"),
        }
    )


def _urlgroup_combine(df) -> "object":
    return _urlgroup_agg(df, ("doc_id", "size"), ("doc_id", "min"))


def _urlgroup_finish(df) -> "object":
    return _urlgroup_agg(df, ("n_refs", "sum"), ("first_doc", "min"))


def _canonical_groups_over(urls: rd.Dataset, npart: int) -> rd.Dataset:
    """(doc_id, href_norm, ...) stream -> per-href_norm (n_refs,
    first_doc): per-batch algebraic combine caps hot canonical keys
    at one row per batch, then one keyed exchange + per-block
    finish."""
    partials = urls.map_batches(_urlgroup_combine, batch_format="pandas")
    return partials.repartition(npart, keys=["href_norm"]).map_batches(
        _urlgroup_finish, batch_format="pandas", batch_size=None
    )


def docs_url_canonical_groups(
    sf_dir: str, npart: int | None = None
) -> rd.Dataset:
    """Group the normalized URL stream by canonical form: per
    href_norm, the reference count and the first (min) citing doc —
    the frontier-dedup view (v1/v2 collapse N raw URLs onto 13 / 91
    canonical targets; v0 stays per-doc).

    Scale shape: see `_canonical_groups_over`."""
    from ocrs_ray.pipeline import default_npart

    if npart is None:
        npart = default_npart()
    return _canonical_groups_over(docs_url_normalize(sf_dir), npart)


def url_canonical_groups_sql() -> str:
    return (
        "SELECT href_norm, CAST(count(*) AS BIGINT) AS n_refs, "
        "CAST(min(doc_id) AS BIGINT) AS first_doc FROM ("
        + url_normalize_sql()
        + ") GROUP BY href_norm"
    )


def frontier_new_urls(sf_dir: str, npart: int | None = None) -> rd.Dataset:
    """Incremental crawl-frontier diff: canonical URL groups whose
    target was NEVER referenced by the already-crawled first half of
    the corpus (doc_id < (max_id+1)//2) — the "only fetch what's
    genuinely new" gate in front of a recrawl. The hub targets (v1/v2
    variants) are all seen early, so survivors are essentially the
    second half's per-doc v0 pages.

    Scale shape: the crawled side is a predicate-pushdown read
    (doc_id row-group pruning) -> stateless normalize -> per-batch
    unique; the diff is Ray's native left_anti hash join on
    href_norm. Both sides are dense per partition (every block emits
    rows), which is the documented safe regime for Dataset.join."""
    from ocrs_ray.pipeline import default_npart

    if npart is None:
        npart = default_npart()
    groups = docs_url_canonical_groups(sf_dir, npart=npart)
    return _anti_join_uncrawled(groups, sf_dir, npart, _render_url_variants)


def _anti_join_uncrawled(
    groups: rd.Dataset, sf_dir: str, npart: int, url_batch_fn
) -> rd.Dataset:
    """Anti-join canonical URL groups against the URL set of the
    already-crawled first half (doc_id < (max_id+1)//2): pushdown
    read -> `url_batch_fn` (render + normalize, optionally
    robots-filtered) -> per-batch unique -> native left_anti. ONE
    copy of the recipe — the cut rule, the pushdown read, and the
    hash-shuffle choreography encoding the Ray 2.49 join-safety
    reasoning stay in sync across frontier_new_urls and
    crawl_schedule_prep.

    NOTE: the `max("doc_id")` below is an EAGER stage that runs when
    the builder is CALLED (one pushdown single-column scan) — when
    timing, call the builder once and reuse the handle (see the
    CLAUDE.md eager-stage convention)."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    max_id = read_documents(sf_dir, ["doc_id"]).max("doc_id")
    if max_id is None:
        raise ValueError(
            f"documents table at {sf_dir} is empty — the crawled/"
            "uncrawled doc_id cut is undefined on an empty corpus"
        )
    cut = (max_id + 1) // 2

    def seen_urls(batch: pa.Table) -> pa.Table:
        # per-batch unique: the join only needs key presence, so
        # don't ship 3 rows/doc into the shuffle
        return pa.table(
            {"href_norm": pc.unique(batch.column("href_norm"))}
        )

    crawled = read_table(
        f"{sf_dir}/documents.parquet",
        columns=_URL_COLS,
        filter=pads.field("doc_id") < cut,
    )
    seen = crawled.map_batches(
        url_batch_fn, batch_format="pyarrow"
    ).map_batches(seen_urls, batch_format="pyarrow")
    return groups.join(
        seen,
        join_type="left_anti",
        num_partitions=npart,
        on=("href_norm",),
    )


def frontier_new_urls_sql() -> str:
    return (
        "SELECT * FROM ("
        + url_canonical_groups_sql()
        + ") WHERE href_norm NOT IN (SELECT href_norm FROM ("
        + url_normalize_sql()
        + ") WHERE doc_id < (SELECT (max(doc_id) + 1) // 2 FROM documents))"
    )


# --------------------------------------------------------------------
# Robots-policy crawl filtering (per-source deterministic rules)
# --------------------------------------------------------------------

#: Each source site publishes ONE disallow rule, derived from its
#: numeric suffix k = int(source[3:]): k%3==0 disallows '/ref/',
#: k%3==1 disallows '/doc/', k%3==2 allows everything. Relative URLs
#: resolve against the citing doc's own site, so the doc's source's
#: rule applies; the absolute http://ex.com target is external and
#: ex.com disallows nothing. Both disallow prefixes are 5 chars, so
#: the per-row prefix test is one fixed-width slice compare — fully
#: vectorized with a PER-ROW rule (pc.starts_with only takes a scalar
#: pattern).
ROBOTS_RULE_LEN = 5


def _robots_rule(src_k, pc):
    """k -> the source's disallow prefix ('' = allow all), as an
    Arrow CASE chain over int k."""
    m = pc.subtract(src_k, pc.multiply(pc.divide(src_k, 3), 3))
    return pc.if_else(
        pc.equal(m, 0),
        pa.scalar("/ref/"),
        pc.if_else(pc.equal(m, 1), pa.scalar("/doc/"), pa.scalar("")),
    )


def _robots_label_batch(batch: pa.Table) -> pa.Table:
    """Shared labeling kernel: the rendered+normalized URL stream with
    the citing source, its rule, and the allow verdict — (doc_id,
    url_idx, href_norm, source, rule, allowed)."""
    import pyarrow.compute as pc

    t = _render_url_variants(batch)
    # loud corpus guard: the rule derivation assumes 'src<digits>'
    # sources — an unexpected shape must raise here, not as an opaque
    # cast error inside a worker
    if batch.num_rows and not pc.all(
        pc.match_substring_regex(batch.column("source"), r"^src[0-9]+$")
    ).as_py():
        raise ValueError(
            "documents.source does not match 'src<digits>'; the robots "
            "rule derivation (numeric suffix % 3) would be undefined"
        )
    # variants are concatenated per template, each in batch order
    src = pa.chunked_array([batch.column("source").combine_chunks()] * 3)
    k = pc.cast(pc.utf8_slice_codeunits(src, 3, 99), pa.int64())
    rule = _robots_rule(k, pc)
    prefix = pc.utf8_slice_codeunits(
        t.column("href_norm"), 0, ROBOTS_RULE_LEN
    )
    disallowed = pc.and_(pc.not_equal(rule, ""), pc.equal(prefix, rule))
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "url_idx": t.column("url_idx"),
            "href_norm": t.column("href_norm"),
            "source": src,
            "rule": rule,
            "allowed": pc.invert(disallowed),
        }
    )


def docs_robots_policy_filter(sf_dir: str) -> rd.Dataset:
    """Apply each source site's robots disallow rule to its pages'
    normalized URL stream: (doc_id, url_idx, href_norm, rule,
    allowed) — the crawl-scheduler gate between URL canonicalization
    and the fetch frontier.

    Scale shape: stateless vectorized map (render + normalize + one
    slice-compare), 3 output rows per doc, no shuffle."""

    def filt(batch: pa.Table) -> pa.Table:
        return _robots_label_batch(batch).drop_columns(["source"])

    return read_documents(sf_dir, _URL_COLS).map_batches(
        filt, batch_format="pyarrow"
    )


_ROBOTS_SQL_CORE = (
    "WITH n AS ("
    "{normalize}), "
    "j AS (SELECT n.doc_id, n.url_idx, n.href_norm, d.source FROM n "
    "JOIN documents d ON n.doc_id = d.doc_id), "
    "pol AS (SELECT doc_id, url_idx, href_norm, "
    "CASE CAST(substr(source, 4) AS BIGINT) % 3 "
    "WHEN 0 THEN '/ref/' WHEN 1 THEN '/doc/' ELSE '' END AS rule, "
    "source FROM j), "
    "lab AS (SELECT doc_id, url_idx, href_norm, rule, source, "
    "NOT (rule != '' AND "
    f"substr(href_norm, 1, {ROBOTS_RULE_LEN}) = rule) AS allowed "
    "FROM pol)"
)


def robots_policy_filter_sql() -> str:
    return (
        _ROBOTS_SQL_CORE.format(normalize=url_normalize_sql())
        + " SELECT doc_id, url_idx, href_norm, rule, allowed FROM lab"
    )


def source_crawl_budget(sf_dir: str) -> rd.Dataset:
    """Per-source crawl budget after robots filtering: (source,
    n_urls, n_allowed, n_disallowed) — the scheduler's per-site
    work-queue sizing table.

    Scale shape: per-batch combine to one row per (batch, source),
    then the bounded-key tree-sum (sources are a site vocabulary —
    bounded even at corpus scale); no hash shuffle."""
    import pandas as pd

    from .relational import tree_sum

    def combine(df: pd.DataFrame) -> "object":
        if df.empty:
            # typed empty — never a zero-row object column (the block
            # size estimator gotcha)
            return pa.table(
                {
                    "source": pa.array([], type=pa.string()),
                    "n_urls": pa.array([], type=pa.int64()),
                    "n_allowed": pa.array([], type=pa.int64()),
                }
            )
        g = df.groupby("source", as_index=False).agg(
            n_urls=("allowed", "size"), n_allowed=("allowed", "sum")
        )
        return pd.DataFrame(
            {
                "source": g["source"].to_numpy(),
                "n_urls": g["n_urls"].to_numpy(dtype="int64"),
                "n_allowed": g["n_allowed"].to_numpy(dtype="int64"),
            }
        )

    def label(batch: pa.Table) -> pa.Table:
        return _robots_label_batch(batch).select(["source", "allowed"])

    rows = read_documents(sf_dir, _URL_COLS).map_batches(
        label, batch_format="pyarrow"
    ).map_batches(combine, batch_format="pandas")
    totals = tree_sum(rows, ["source"], ["n_urls", "n_allowed"])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["n_disallowed"] = df["n_urls"] - df["n_allowed"]
        return df

    return totals.map_batches(finish, batch_format="pandas")


def crawl_schedule_prep(sf_dir: str, npart: int | None = None) -> rd.Dataset:
    """The composed crawl-scheduling chain as ONE lazy streaming
    Dataset (the crawl analog of `pretrain_data_prep`): render +
    canonicalize the URL stream, apply each source's robots rule,
    canonical-group the allowed URLs, and anti-join away everything
    the crawled first half already referenced (and was allowed to
    fetch). Output (href_norm, n_refs, first_doc) — the fetch queue.

    Scale shape: two exchanges total — one keyed repartition of
    per-batch-combined group partials, one left_anti hash join; the
    robots gate runs BEFORE both, so disallowed URLs never enter a
    shuffle. Both join sides are dense per partition (safe regime).
    """
    from ocrs_ray.pipeline import default_npart

    if npart is None:
        npart = default_npart()

    def allowed_urls(batch: pa.Table) -> pa.Table:
        t = _robots_label_batch(batch)
        return t.filter(t.column("allowed")).select(["doc_id", "href_norm"])

    groups = _canonical_groups_over(
        read_documents(sf_dir, _URL_COLS).map_batches(
            allowed_urls, batch_format="pyarrow"
        ),
        npart,
    )
    return _anti_join_uncrawled(groups, sf_dir, npart, allowed_urls)


def crawl_schedule_prep_sql() -> str:
    return (
        _ROBOTS_SQL_CORE.format(normalize=url_normalize_sql())
        + " SELECT href_norm, CAST(count(*) AS BIGINT) AS n_refs, "
        "CAST(min(doc_id) AS BIGINT) AS first_doc FROM lab "
        "WHERE allowed AND href_norm NOT IN ("
        "SELECT href_norm FROM lab WHERE allowed AND doc_id < "
        "(SELECT (max(doc_id) + 1) // 2 FROM documents)) "
        "GROUP BY href_norm"
    )


def source_crawl_budget_sql() -> str:
    return (
        _ROBOTS_SQL_CORE.format(normalize=url_normalize_sql())
        + " SELECT source, CAST(count(*) AS BIGINT) AS n_urls, "
        "CAST(sum(CASE WHEN allowed THEN 1 ELSE 0 END) AS BIGINT) "
        "AS n_allowed, "
        "CAST(sum(CASE WHEN allowed THEN 0 ELSE 1 END) AS BIGINT) "
        "AS n_disallowed FROM lab GROUP BY source"
    )


# --------------------------------------------------------------------
# Oracle SQL builders (HTML family)
# --------------------------------------------------------------------

_PAGES_CTE = f"WITH pages AS (SELECT doc_id, {synth_html_sql()} AS h FROM documents)"


def html_strip_sql() -> str:
    flat = strip_markup_sql("h")
    return (
        _PAGES_CTE + f" SELECT doc_id, {flat} AS page_text, "
        f"CAST(length({flat}) AS BIGINT) AS n_chars FROM pages"
    )


def html_links_sql() -> str:
    return (
        _PAGES_CTE + ", m AS (SELECT doc_id, unnest(regexp_extract_all(h, "
        f"'{HTML_LINK_RE}')) AS tag FROM pages) "
        f"SELECT doc_id, regexp_extract(tag, '{HTML_LINK_RE}', 1) AS href, "
        f"regexp_extract(tag, '{HTML_LINK_RE}', 2) AS anchor, "
        f"CAST(regexp_extract(tag, '{HTML_LINK_RE}', 1) LIKE 'http%' "
        "AS BIGINT) AS is_external FROM m"
    )


def _block_stats_cte(pages_cte: str | None = None) -> str:
    """pages -> blocks(doc_id, block_idx, tag, text_chars, link_chars,
    link_density_ppm, flat_text) via one UNION ALL arm per block.
    `pages_cte` overrides the default corpus-page construction with any
    CTE chain ending in pages(doc_id, h, ...)."""
    arms = []
    for idx, tag, pattern in HTML_BLOCKS:
        blk = f"regexp_extract(h, '{pattern}', 1)"
        flat = strip_markup_sql(blk)
        lc = _link_chars_sql(blk)
        arms.append(
            f"SELECT doc_id, CAST({idx} AS BIGINT) AS block_idx, "
            f"'{tag}' AS tag, CAST(length({flat}) AS BIGINT) AS text_chars, "
            f"CAST({lc} AS BIGINT) AS link_chars, {flat} AS flat_text "
            "FROM pages"
        )
    head = _PAGES_CTE if pages_cte is None else pages_cte
    return (
        head + ", blocks AS (SELECT doc_id, block_idx, tag, "
        "text_chars, link_chars, "
        "(1000000 * link_chars) // text_chars AS link_density_ppm, "
        "flat_text FROM (" + " UNION ALL ".join(arms) + "))"
    )


def html_block_stats_sql() -> str:
    return (
        _block_stats_cte() + " SELECT doc_id, block_idx, tag, text_chars, "
        "link_chars, CAST(link_density_ppm AS BIGINT) AS link_density_ppm "
        "FROM blocks"
    )


def html_main_content_sql() -> str:
    return (
        _block_stats_cte() + " SELECT doc_id, block_idx AS main_idx, "
        "tag AS main_tag, CAST(text_chars * (1000000 - link_density_ppm) "
        "AS BIGINT) AS score_micro, flat_text AS main_text FROM blocks "
        "QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY "
        "text_chars * (1000000 - link_density_ppm) DESC, block_idx ASC) = 1"
    )


# --------------------------------------------------------------------
# Nested-markup main content: the depth-tracking scanner as the
# production path, certified by a structurally-anchored oracle
# --------------------------------------------------------------------

#: NESTED page: the top-level <div class="body"> contains a nested
#: <div class="inner"> followed by a tail paragraph — a non-greedy
#: pattern split (`<div class="body">(.*?)</div>`) stops at the INNER
#: close and silently drops the tail, so correct segmentation requires
#: the depth-tracking scanner. Single line, markup-safe fields only
#: (same `_guard_markup_safe` contract as the flat template).
_NESTED_PAGE_TEMPLATE = (
    "<html><head><title>N ",
    ("id",),
    '</title></head><body><nav><a href="/home">Home</a> '
    '<a href="/doc/',
    ("id_prev",),
    '">Prev</a> <a href="/doc/',
    ("id_next",),
    '">Next</a></nav><div class="body"><h1>Doc ',
    ("id",),
    "</h1><p>",
    ("text",),
    '</p><div class="inner"><a href="/ref/',
    ("id_mod13",),
    '">[',
    ("id_mod13",),
    ']</a> pull quote</div><p>Tail from ',
    ("source",),
    ".</p></div><footer>&copy; 2024 ",
    ("source",),
    ' <a href="/terms">Terms</a></footer></body></html>',
)

#: SQL-side structural anchors for the nested page's THREE top-level
#: segments. The body arm is GREEDY and anchored on the following
#: block (`</div><footer>`), so the nested </div> stays inside — the
#: independent parse the scanner is value-compared against.
_NESTED_BLOCK_ANCHORS = (
    (0, "nav", "<nav>(.*)</nav>"),
    (1, "div", '<div class="body">(.*)</div><footer>'),
    (2, "footer", "<footer>(.*)</footer>"),
)


def docs_html_nested_main_content(sf_dir: str) -> rd.Dataset:
    """Main-content pick over NESTED markup: segment each page with
    the depth-tracking `html_block_segments` scanner (a nested
    same-tag element must not split its parent), score each top-level
    segment with the shared `text_chars * (1_000_000 - density_ppm)`
    heuristic, emit the argmax segment — (doc_id, main_idx, main_tag,
    score_micro, main_text). The flat ops' anchored-pattern split
    would truncate the body at the inner </div> and lose the tail
    paragraph; the oracle's structurally-anchored greedy parse
    catches any scanner mis-segmentation value-exactly.

    Scale shape: stateless map; the per-page Python scanner loop is
    bounded by tags/page (the production cost of nesting — crawled
    markup has no anchorable structure), all block statistics stay
    vectorized Arrow kernels over the flattened segment array.
    """
    import pyarrow.compute as pc

    def pick(batch: pa.Table) -> pa.Table:
        pages = _render_template_arrow(batch, _NESTED_PAGE_TEMPLATE)
        segs = [html_block_segments(p) for p in pages.to_pylist()]
        shapes = {tuple(t for t, _ in s) for s in segs}
        if shapes != {("nav", "div", "footer")}:
            raise ValueError(
                f"unexpected top-level segmentation {shapes} — the "
                "scanner and the template-anchored oracle would diverge"
            )
        n, k = len(batch), 3
        inner = pa.array(
            [blk for s in segs for _t, blk in s], type=pa.string()
        )
        flat = strip_markup(inner)
        tc = pc.cast(pc.utf8_length(flat), pa.int64())
        if pc.min(tc).as_py() == 0:
            raise ValueError("empty top-level segment — density undefined")
        lc = _link_chars(inner)
        dens = pc.divide(pc.multiply(lc, 1_000_000), tc)
        scores = (
            tc.to_numpy() * (1_000_000 - dens.to_numpy())
        ).reshape(n, k)
        win = scores.argmax(axis=1)  # first max == lowest idx tiebreak
        rows = np.arange(n)
        tags = np.array(["nav", "div", "footer"])
        texts = np.asarray(flat.to_numpy(zero_copy_only=False)).reshape(n, k)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "main_idx": pa.array(win.astype("int64")),
                "main_tag": pa.array(tags[win], type=pa.string()),
                "score_micro": pa.array(
                    scores[rows, win].astype("int64")
                ),
                "main_text": pa.array(texts[rows, win], type=pa.string()),
            }
        )

    return read_documents(sf_dir, _DOC_COLS).map_batches(
        pick, batch_format="pyarrow"
    )


def html_nested_main_content_sql() -> str:
    """Oracle for docs_html_nested_main_content: render the SAME
    nested template in SQL, extract the three top-level segments by
    STRUCTURAL anchors (greedy body arm anchored on the following
    block), then the shared strip/density/argmax pick."""
    pages = (
        "WITH pages AS (SELECT doc_id, "
        f"{_template_sql(_NESTED_PAGE_TEMPLATE)} AS h FROM documents)"
    )
    arms = []
    for idx, tag, pattern in _NESTED_BLOCK_ANCHORS:
        blk = f"regexp_extract(h, '{pattern}', 1)"
        flat = strip_markup_sql(blk)
        lc = _link_chars_sql(blk)
        arms.append(
            f"SELECT doc_id, CAST({idx} AS BIGINT) AS block_idx, "
            f"'{tag}' AS tag, CAST(length({flat}) AS BIGINT) AS text_chars, "
            f"CAST({lc} AS BIGINT) AS link_chars, {flat} AS flat_text "
            "FROM pages"
        )
    return (
        pages + ", blocks AS (SELECT doc_id, block_idx, tag, text_chars, "
        "link_chars, (1000000 * link_chars) // text_chars AS "
        "link_density_ppm, flat_text FROM ("
        + " UNION ALL ".join(arms)
        + ")) SELECT doc_id, block_idx AS main_idx, tag AS main_tag, "
        "CAST(text_chars * (1000000 - link_density_ppm) AS BIGINT) AS "
        "score_micro, flat_text AS main_text FROM blocks "
        "QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY "
        "text_chars * (1000000 - link_density_ppm) DESC, block_idx ASC) = 1"
    )


# --------------------------------------------------------------------
# Link-graph analytics: distributed PageRank over the extracted edges
# --------------------------------------------------------------------

_DOC_HREF_RE = r"^/doc/([0-9]+)$"


def _link_edges(sf_dir: str) -> rd.Dataset:
    """Internal link edges (src, dst): /doc/<id> hrefs from the
    extracted link table, dropping targets outside the corpus (the
    prev-link of doc 0 and the next-link of the last doc)."""
    import pyarrow.compute as pc

    links = docs_html_links(sf_dir)
    # pruned single-column scan for the bound — NOT max over `links`,
    # which would synthesize every page a second time just for a scalar
    max_id = read_documents(sf_dir, ["doc_id"]).max("doc_id")

    def parse(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(batch.column("href"), r"^/doc/(?P<d>[0-9]+)$")
        ok = pc.is_valid(hit)
        dst = pc.cast(pc.struct_field(hit, "d"), pa.int64())
        keep = pc.and_(ok, pc.less_equal(dst, max_id))
        t = pa.table(
            {"src": batch.column("doc_id"), "dst": dst}
        ).filter(keep)
        if t.num_rows == 0:
            return pa.table(
                {
                    "src": pa.array([], type=pa.int64()),
                    "dst": pa.array([], type=pa.int64()),
                }
            )
        return t

    return links.map_batches(parse, batch_format="pyarrow")


def _pb_of(ids: np.ndarray, npart: int) -> np.ndarray:
    """Partition bucket of a node id: fixed-key siphash (pandas
    util.hash_array — process-deterministic) mod npart. One function
    for BOTH src- and dst-side keying, so a node's bucket is a single
    value everywhere."""
    from pandas.util import hash_array

    return (hash_array(ids.astype("int64")) % np.uint64(npart)).astype(
        "int64"
    )


def _block_frame(blocks: list) -> "object":
    """Concat + to_pandas of fetched stationary blocks (pagerank's
    edge/node partitions); the `worker_value` conversion, so reused
    workers skip it on every later round."""
    tbls = [
        t if isinstance(t, pa.Table) else pa.Table.from_pandas(t)
        for t in blocks
    ]
    return (pa.concat_tables(tbls) if len(tbls) > 1 else tbls[0]).to_pandas()


def docs_link_pagerank(
    sf_dir: str,
    iters: int = 5,
    checkpoint_dir: str | None = None,
    npart: int | None = None,
) -> rd.Dataset:
    """PageRank over the internal link graph, integer-exact: ranks
    start at 1_000_000 micro-units per node and iterate
    `rank' = 150_000 + (17 * sum(in_contrib)) // 20` (damping 0.85 as
    the exact rational 17/20; contributions are `rank // out_degree`)
    — the same integer recurrence the unrolled-CTE oracle runs, so
    values compare exactly after any iteration count. Nodes without
    inbound links settle at 150_000; dangling-mass redistribution is
    deliberately omitted on BOTH sides (this graph has no dangling
    nodes: every doc keeps at least one valid prev/next link).

    Scale shape: Pregel-style power iteration with STATIONARY graph
    state. Edges (with out-degree and precomputed dst bucket) and the
    node list are hash-bucketed by `_pb_of(node) % npart` and
    materialized ONCE as per-partition Arrow blocks in the object
    store; the driver holds only {bucket: ObjectRef}. Each round is
    then a single map over the bucket-partitioned rank state (each
    block zero-copy-fetches ITS edge partition, joins ranks to edges,
    and pre-aggregates contributions per dst — the combiner) followed
    by ONE keyed exchange of those partial sums to the dst buckets,
    where the stationary node blocks close the recurrence. Per-round
    shuffle volume is O(partially-aggregated contribs + npart
    sentinels), NOT O(edges): the O(E) edge set never moves again
    after setup. Sentinel rows (node=-1, one per bucket) guarantee
    every bucket's block exists each round so zero-inbound partitions
    still emit their nodes at 150_000.

    Partitioning assumptions (documented per the custom-operator
    rule): a bucket's edge/node partition must fit in a worker's heap
    (scale the `npart` kwarg with the graph — the default suits the
    test scales), and correctness does NOT rely on
    Ray assigning the same bucket to the same partition index across
    datasets — blocks carry their bucket ids and stage 2 filters the
    fetched node blocks to the buckets actually present.

    With `checkpoint_dir`, each completed round's rank state is
    committed as partitioned parquet under `iter=NNNN/` (written to a
    dot-tmp dir, then atomically renamed — a half-written round is
    never visible), and a killed run resumes from the highest
    committed round instead of iteration 0; a `manifest.json` node
    count guards against resuming onto a different corpus. The same
    commit-then-rename protocol as the OCR job's fragment checkpoints
    (`state/checkpoint.py`), extended to iterative-algorithm state.
    """
    import pandas as pd
    import ray

    from ocrs_ray.pipeline import default_npart, worker_value

    # default bucket count suits the test scales; at real scale pass
    # `npart` sized so one bucket's edges fit a worker's heap (the
    # documented partitioning assumption) — any value works, including
    # npart >> nodes (empty buckets ride the sentinel path).
    if npart is None:
        npart = default_npart()

    def _contrib_empty() -> pa.Table:
        return pa.table(
            {
                "node": pa.array([], type=pa.int64()),
                "val": pa.array([], type=pa.int64()),
                "pb": pa.array([], type=pa.int64()),
            }
        )

    def _rank_empty() -> pa.Table:
        return pa.table(
            {
                "node": pa.array([], type=pa.int64()),
                "rank": pa.array([], type=pa.int64()),
                "pb": pa.array([], type=pa.int64()),
            }
        )

    @ray.remote(num_cpus=0)
    def _pbs_of(tbl) -> list[int]:
        # metadata probe over a stationary block — zero-CPU so these
        # never compete with the map/shuffle pools (the registry-actor
        # rule from the working notes).
        if not isinstance(tbl, pa.Table):
            tbl = pa.Table.from_pandas(tbl)
        if tbl.num_rows == 0:
            return []
        pb = tbl.column("pb").to_numpy(zero_copy_only=False)
        return [int(p) for p in np.unique(pb)]

    def _refs_by_pb(mat) -> dict:
        # pb -> LIST of block refs: a keyed repartition emits one
        # block per partition, but a map_batches AFTER it (edges_deg)
        # re-splits at target_max_block_size — a single-ref dict would
        # silently drop all but the last block of an oversized bucket.
        refs = mat.to_arrow_refs()
        by_pb: dict = {}
        for pbs, ref in zip(ray.get([_pbs_of.remote(r) for r in refs]), refs):
            for p in pbs:
                by_pb.setdefault(p, []).append(ref)
        return by_pb

    start_iter = 0
    ranks = None
    if checkpoint_dir:
        import json
        import os
        import shutil

        os.makedirs(checkpoint_dir, exist_ok=True)
        for d in os.listdir(checkpoint_dir):  # stale uncommitted rounds
            if d.startswith(".tmp-"):
                shutil.rmtree(os.path.join(checkpoint_dir, d))
        n_nodes = read_documents(sf_dir, ["doc_id"]).count()
        manifest = os.path.join(checkpoint_dir, "manifest.json")
        if os.path.exists(manifest):
            with open(manifest) as f:
                saved = json.load(f)
            if saved.get("n_nodes") != n_nodes:
                raise ValueError(
                    f"checkpoint at {checkpoint_dir} is for a "
                    f"{saved.get('n_nodes')}-node corpus, input has "
                    f"{n_nodes} nodes — refusing to resume"
                )
            if "npart" not in saved:
                # manifests written before the npart guard carry no
                # key — the partitioning they used is unknowable, so
                # the resume cannot be verified; say that, not
                # "written with npart=None"
                raise ValueError(
                    f"checkpoint manifest at {checkpoint_dir} predates "
                    "the npart guard and cannot be verified against "
                    f"the requested npart={npart} — delete the "
                    "checkpoint directory (or add the correct "
                    '"npart" to manifest.json) to proceed'
                )
            if saved.get("npart") != npart:
                # checkpoints persist pb = siphash(node) % npart; a
                # resume with a different npart would look up edge /
                # node buckets by stale pb and SILENTLY drop
                # contributions — refuse loudly instead
                raise ValueError(
                    f"checkpoint at {checkpoint_dir} was written with "
                    f"npart={saved.get('npart')}, resume requested "
                    f"npart={npart} — pass the same npart to resume"
                )
        else:
            with open(manifest, "w") as f:
                json.dump({"n_nodes": n_nodes, "npart": npart}, f)
        done = sorted(
            int(d.split("=", 1)[1])
            for d in os.listdir(checkpoint_dir)
            if d.startswith("iter=")
        )
        done = [i for i in done if i <= iters]
        if done:
            start_iter = done[-1]
            resumed = read_table(
                os.path.join(checkpoint_dir, f"iter={start_iter:04d}")
            )
            # restore the bucket partitioning (checkpoints persist pb)
            ranks = resumed.repartition(npart, keys=["pb"]).materialize()

    # ---- stationary node list (bucket-partitioned once) ----
    def node_pb(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "node": pa.array([], type=pa.int64()),
                    "pb": pa.array([], type=pa.int64()),
                }
            )
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {"node": t.column("doc_id"), "pb": pa.array(_pb_of(ids, npart))}
        )

    nodes = read_documents(sf_dir, ["doc_id"]).map_batches(
        node_pb, batch_format="pyarrow"
    )
    nodes = nodes.repartition(npart, keys=["pb"]).materialize()
    node_by_pb = _refs_by_pb(nodes)

    if ranks is None:

        def init_rank(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node": t.column("node"),
                    "rank": pa.array(
                        np.full(t.num_rows, 1_000_000, dtype=np.int64)
                    ),
                    "pb": t.column("pb"),
                }
            )

        # map over the materialized node blocks — partitioning kept
        ranks = nodes.map_batches(
            init_rank, batch_format="pyarrow"
        ).materialize()

    # ---- stationary edges (bucket-partitioned once, skipped when the
    # checkpoint already covers every requested round) ----
    edge_by_pb: dict = {}
    if start_iter < iters:

        def edge_pb(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table(
                    {
                        "src": pa.array([], type=pa.int64()),
                        "dst": pa.array([], type=pa.int64()),
                        "pb": pa.array([], type=pa.int64()),
                        "dst_pb": pa.array([], type=pa.int64()),
                    }
                )
            src = t.column("src").to_numpy(zero_copy_only=False)
            dst = t.column("dst").to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "src": t.column("src"),
                    "dst": t.column("dst"),
                    "pb": pa.array(_pb_of(src, npart)),
                    "dst_pb": pa.array(_pb_of(dst, npart)),
                }
            )

        # out-degree: the pb keying co-locates each src's edges, so
        # degree is a per-block count — no join.
        def with_degree(df: pd.DataFrame) -> pd.DataFrame:
            if df.empty:
                return pa.table(
                    {
                        "src": pa.array([], type=pa.int64()),
                        "dst": pa.array([], type=pa.int64()),
                        "pb": pa.array([], type=pa.int64()),
                        "dst_pb": pa.array([], type=pa.int64()),
                        "deg": pa.array([], type=pa.int64()),
                    }
                ).to_pandas()
            out = df.copy()
            out["deg"] = (
                df.groupby("src")["src"].transform("size").to_numpy(
                    dtype="int64"
                )
            )
            return out

        edges = _link_edges(sf_dir).map_batches(
            edge_pb, batch_format="pyarrow"
        )
        edges_deg = (
            edges.repartition(npart, keys=["pb"])
            .map_batches(with_degree, batch_format="pandas", batch_size=None)
            .materialize()
        )
        edge_by_pb = _refs_by_pb(edges_deg)

    # one sentinel row per bucket keeps every bucket's stage-2 block
    # alive even when no contributions flow to it this round
    sentinels = rd.from_arrow(
        pa.table(
            {
                "node": pa.array([-1] * npart, type=pa.int64()),
                "val": pa.array([0] * npart, type=pa.int64()),
                "pb": pa.array(list(range(npart)), type=pa.int64()),
            }
        )
    )

    def stage1(df: pd.DataFrame):
        # rank block -> partially-aggregated (dst, contrib) rows.
        # Fetches only ITS buckets' stationary edge blocks (worker-
        # memoized); the inner merge keys on real node ids, so any
        # extra buckets sharing a fetched block can't double-count.
        if df.empty:
            return _contrib_empty()
        pbs = np.unique(df["pb"].to_numpy())
        refs = {
            r
            for p in pbs
            if int(p) in edge_by_pb
            for r in edge_by_pb[int(p)]
        }
        if not refs:
            return _contrib_empty()
        e = worker_value(refs, _block_frame)
        m = e.merge(
            pd.DataFrame(
                {
                    "src": df["node"].to_numpy(dtype="int64"),
                    "rank": df["rank"].to_numpy(dtype="int64"),
                }
            ),
            on="src",
            how="inner",
        )
        if m.empty:
            return _contrib_empty()
        contrib = m["rank"].to_numpy(dtype="int64") // m["deg"].to_numpy(
            dtype="int64"
        )
        out = pd.DataFrame(
            {
                "node": m["dst"].to_numpy(dtype="int64"),
                "val": contrib,
                "pb": m["dst_pb"].to_numpy(dtype="int64"),
            }
        )
        agg = out.groupby(["node", "pb"], as_index=False)["val"].sum()
        return agg[["node", "val", "pb"]]

    def stage2(df: pd.DataFrame):
        # exchanged contribs -> next-round ranks, against the
        # stationary node blocks. Filtering the fetched nodes to the
        # buckets PRESENT in this block (each bucket lands in exactly
        # one block, sentinel-guaranteed) keeps every node emitted
        # exactly once without assuming cross-dataset partition
        # alignment.
        if df.empty:
            return _rank_empty()
        pbs = np.unique(df["pb"].to_numpy())
        refs = {
            r
            for p in pbs
            if int(p) in node_by_pb
            for r in node_by_pb[int(p)]
        }
        if not refs:
            return _rank_empty()
        nf = worker_value(refs, _block_frame)
        nf = nf[np.isin(nf["pb"].to_numpy(), pbs)]
        if nf.empty:
            return _rank_empty()
        real = df[df["node"].to_numpy() >= 0]
        agg = real.groupby("node", as_index=False)["val"].sum()
        m = pd.DataFrame(
            {
                "node": nf["node"].to_numpy(dtype="int64"),
                "pb": nf["pb"].to_numpy(dtype="int64"),
            }
        ).merge(agg, on="node", how="left")
        a = m["val"].fillna(0).to_numpy(dtype="int64")
        return pd.DataFrame(
            {
                "node": m["node"].to_numpy(dtype="int64"),
                "rank": 150_000 + (17 * a) // 20,
                "pb": m["pb"].to_numpy(dtype="int64"),
            }
        )

    for it in range(start_iter + 1, iters + 1):
        contribs = ranks.map_batches(
            stage1, batch_format="pandas", batch_size=None
        ).union(sentinels)
        nxt = contribs.repartition(npart, keys=["pb"]).map_batches(
            stage2, batch_format="pandas", batch_size=None
        )
        if checkpoint_dir:
            # checkpointing needs a round barrier: materialize, then
            # commit the round's state via write-tmp + atomic rename
            import os

            ranks = nxt.materialize()
            tmp = os.path.join(
                checkpoint_dir, f".tmp-{it:04d}-{os.getpid()}"
            )
            ranks.write_parquet(tmp)
            os.rename(tmp, os.path.join(checkpoint_dir, f"iter={it:04d}"))
        else:
            # no checkpoint: chain rounds lazily so the streaming
            # executor pipelines all k exchanges in ONE execution —
            # no per-round barrier, state still lives in the object
            # store. The plan is k stages deep, executed once by the
            # final consumer.
            ranks = nxt

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["node"].to_numpy(dtype="int64"),
                "rank_micro": df["rank"].to_numpy(dtype="int64"),
            }
        )

    return ranks.map_batches(finish, batch_format="pandas")


def link_pagerank_sql(iters: int = 5) -> str:
    """Unrolled-CTE oracle running the identical integer recurrence."""
    sql = (
        _PAGES_CTE
        + ", m AS (SELECT doc_id, unnest(regexp_extract_all(h, "
        + f"'{HTML_LINK_RE}')) AS tag FROM pages)"
        + ", l AS (SELECT doc_id AS src, "
        + f"regexp_extract(tag, '{HTML_LINK_RE}', 1) AS href FROM m)"
        + ", edges AS (SELECT src, "
        + f"CAST(regexp_extract(href, '{_DOC_HREF_RE}', 1) AS BIGINT) AS dst "
        + f"FROM l WHERE regexp_matches(href, '{_DOC_HREF_RE}') "
        + f"AND CAST(regexp_extract(href, '{_DOC_HREF_RE}', 1) AS BIGINT) "
        + "<= (SELECT max(doc_id) FROM documents))"
        + ", deg AS (SELECT src, CAST(count(*) AS BIGINT) AS c "
        + "FROM edges GROUP BY src)"
        + ", r0 AS (SELECT doc_id AS node, CAST(1000000 AS BIGINT) AS rank "
        + "FROM documents)"
    )
    for i in range(iters):
        sql += (
            f", r{i + 1} AS (SELECT d.doc_id AS node, "
            "CAST(150000 + (17 * COALESCE(s.agg, 0)) // 20 AS BIGINT) AS rank "
            "FROM documents d LEFT JOIN (SELECT e.dst, "
            "CAST(sum(r.rank // g.c) AS BIGINT) AS agg FROM edges e "
            f"JOIN deg g ON e.src = g.src JOIN r{i} r ON r.node = e.src "
            "GROUP BY e.dst) s ON d.doc_id = s.dst)"
        )
    return sql + f" SELECT node AS doc_id, rank AS rank_micro FROM r{iters}"


# --------------------------------------------------------------------
# Link-graph degree / anchor analytics (doc + ref edges)
# --------------------------------------------------------------------

#: Internal edge href: /doc/<id> (the prev/next links) or /ref/<id%13>
#: (the citation link — 13 hub targets, so the in-side is HOT and
#: asymmetric, unlike the reciprocal prev/next chain). One alternation
#: pattern, named group for pc.extract_regex, index 1 for DuckDB
#: (RE2 both sides).
ANY_DOC_HREF_RE = r"^/(?:doc|ref)/(?P<d>[0-9]+)$"
_ANY_DOC_HREF_SQL = r"^/(?:doc|ref)/([0-9]+)$"


def _doc_ref_edges(sf_dir: str, with_anchor: bool = False) -> rd.Dataset:
    """Internal edges (src, dst[, anchor]) over BOTH /doc/ and /ref/
    hrefs from the extracted link table: targets outside the corpus
    are dropped (the doc-0 prev link and last-doc next link don't
    parse / exceed max_id) and so are self-loops (docs 0..12 /ref/
    themselves). Edge OCCURRENCES, not distinct pairs — consumers
    dedup where their semantics need it."""
    import pyarrow.compute as pc

    links = docs_html_links(sf_dir)
    # pruned single-column scan for the bound (same as _link_edges)
    max_id = read_documents(sf_dir, ["doc_id"]).max("doc_id")

    def parse(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(batch.column("href"), ANY_DOC_HREF_RE)
        ok = pc.is_valid(hit)
        dst = pc.cast(pc.struct_field(hit, "d"), pa.int64())
        src = batch.column("doc_id")
        keep = pc.and_(
            pc.and_(ok, pc.less_equal(dst, max_id)),
            pc.not_equal(dst, src),
        )
        cols = {"src": src, "dst": dst}
        if with_anchor:
            cols["anchor"] = pc.cast(batch.column("anchor"), pa.string())
        t = pa.table(cols).filter(keep)
        if t.num_rows == 0:
            empty = {
                "src": pa.array([], type=pa.int64()),
                "dst": pa.array([], type=pa.int64()),
            }
            if with_anchor:
                empty["anchor"] = pa.array([], type=pa.string())
            return pa.table(empty)
        return t

    return links.map_batches(parse, batch_format="pyarrow")


#: The per-document degree columns `docs_link_degree` sums.
_DEGREES = ["out_degree", "in_degree", "reciprocal_degree"]


def _degree_empty() -> "object":
    import pandas as pd

    return pd.DataFrame(
        {
            c: pd.Series([], dtype="int64")
            for c in ("doc_id", "out_degree", "in_degree", "reciprocal_degree")
        }
    )


def _degree_add_pair(df) -> "object":
    """Annotate edge occurrences with the canonical endpoint pair
    (lo, hi) = (min, max) — the exchange key that co-locates both
    directions of an undirected pair in one block."""
    import pandas as pd

    if df.empty:
        return pd.DataFrame(
            {c: pd.Series([], dtype="int64") for c in ("src", "dst", "lo", "hi")}
        )
    s = df["src"].to_numpy(dtype="int64")
    d = df["dst"].to_numpy(dtype="int64")
    return pd.DataFrame(
        {"src": s, "dst": d, "lo": np.minimum(s, d), "hi": np.maximum(s, d)}
    )


def _degree_pair_resolve(df) -> "object":
    """Per pair-keyed block: global dedup of (src, dst) occurrences
    (all rows of a pair are local), direction pairing for reciprocity,
    then a map-side combine to per-doc partial counts. Exact under any
    partition of PAIRS across blocks — pinned by a property test."""
    import pandas as pd

    if df.empty:
        return _degree_empty()
    e = df.drop_duplicates(["src", "dst"])
    out_p = e.groupby("src").size()
    in_p = e.groupby("dst").size()
    fwd = e["src"].to_numpy() == e["lo"].to_numpy()
    dirs = pd.DataFrame(
        {
            "lo": e["lo"].to_numpy(dtype="int64"),
            "hi": e["hi"].to_numpy(dtype="int64"),
            "f": fwd,
            "b": ~fwd,
        }
    )
    g = dirs.groupby(["lo", "hi"], as_index=False)[["f", "b"]].any()
    rec = g[g["f"] & g["b"]]
    rec_docs = np.concatenate(
        [rec["lo"].to_numpy(dtype="int64"), rec["hi"].to_numpy(dtype="int64")]
    )
    z = np.zeros  # typed zero column helper
    parts = pd.concat(
        [
            pd.DataFrame(
                {
                    "doc_id": out_p.index.to_numpy(dtype="int64"),
                    "out_degree": out_p.to_numpy(dtype="int64"),
                    "in_degree": z(len(out_p), dtype="int64"),
                    "reciprocal_degree": z(len(out_p), dtype="int64"),
                }
            ),
            pd.DataFrame(
                {
                    "doc_id": in_p.index.to_numpy(dtype="int64"),
                    "out_degree": z(len(in_p), dtype="int64"),
                    "in_degree": in_p.to_numpy(dtype="int64"),
                    "reciprocal_degree": z(len(in_p), dtype="int64"),
                }
            ),
            pd.DataFrame(
                {
                    "doc_id": rec_docs,
                    "out_degree": z(len(rec_docs), dtype="int64"),
                    "in_degree": z(len(rec_docs), dtype="int64"),
                    "reciprocal_degree": np.ones(len(rec_docs), dtype="int64"),
                }
            ),
        ]
    )
    return parts.groupby("doc_id", as_index=False)[
        ["out_degree", "in_degree", "reciprocal_degree"]
    ].sum()


def _degree_zero_rows(df) -> "object":
    import pandas as pd

    if df.empty:
        return _degree_empty()
    n = len(df)
    return pd.DataFrame(
        {
            "doc_id": df["doc_id"].to_numpy(dtype="int64"),
            "out_degree": np.zeros(n, dtype="int64"),
            "in_degree": np.zeros(n, dtype="int64"),
            "reciprocal_degree": np.zeros(n, dtype="int64"),
        }
    )


def _degree_final_sum(df) -> "object":
    """The per-partition merge `docs_link_degree`'s `hash_sum` runs (its
    combiner stack is property-tested against brute force)."""
    return _merge_sums(df, ["doc_id"], _DEGREES)


def docs_link_degree(sf_dir: str, npart: int | None = None) -> rd.Dataset:
    """Per document: distinct-neighbor out-degree, in-degree, and
    reciprocal degree (neighbors linked BOTH ways) over the doc+ref
    edge set — the crawl-graph structure profile (reciprocity
    separates the mutual prev/next chain from the one-way citation
    edges into the 13 /ref/ hubs). Every document gets a row; docs
    with no surviving edges report zeros.

    Scale shape: two keyed exchanges, both of partially-aggregated
    rows. Exchange 1 keys edge occurrences by the canonical
    (lo, hi) = (min, max) endpoint pair, so one block holds every
    occurrence of a pair — per-block dedup IS global dedup and
    direction pairing is local. The block emits per-doc partial
    (out, in, reciprocal) counts — map-side combined, so exchange 2
    (keyed by doc_id, closed by a zero row per document) moves at
    most npart+1 rows per doc no matter how hot the /ref/ hubs get.
    Partitioning assumption: one pair-partition's occurrences fit a
    worker's heap (pair multiplicity is bounded by links/page)."""
    from ocrs_ray.pipeline import default_npart

    if npart is None:
        npart = default_npart()

    keyed = _doc_ref_edges(sf_dir).map_batches(
        _degree_add_pair, batch_format="pandas"
    )
    partials = keyed.repartition(npart, keys=["lo", "hi"]).map_batches(
        _degree_pair_resolve, batch_format="pandas", batch_size=None
    )
    zeros = read_documents(sf_dir, ["doc_id"]).map_batches(
        _degree_zero_rows, batch_format="pandas"
    )
    return hash_sum(partials.union(zeros), ["doc_id"], _DEGREES, npart)


def link_degree_sql() -> str:
    """Oracle for docs_link_degree: identical edge construction
    (doc+ref alternation, bound, distinct, no self-loops), degrees via
    GROUP BY, reciprocity via the (src,dst)x(dst,src) self-join,
    LEFT JOINed onto documents so zero-edge docs report zeros."""
    return (
        _PAGES_CTE
        + ", m AS (SELECT doc_id, unnest(regexp_extract_all(h, "
        + f"'{HTML_LINK_RE}')) AS tag FROM pages)"
        + ", l AS (SELECT doc_id AS src, "
        + f"regexp_extract(tag, '{HTML_LINK_RE}', 1) AS href FROM m)"
        + ", e0 AS (SELECT src, TRY_CAST(regexp_extract(href, "
        + f"'{_ANY_DOC_HREF_SQL}', 1) AS BIGINT) AS dst FROM l "
        + f"WHERE regexp_matches(href, '{_ANY_DOC_HREF_SQL}'))"
        + ", edges AS (SELECT DISTINCT src, dst FROM e0 WHERE dst <= "
        + "(SELECT max(doc_id) FROM documents) AND dst <> src)"
        + ", od AS (SELECT src AS doc_id, CAST(count(*) AS BIGINT) AS c "
        + "FROM edges GROUP BY src)"
        + ", idg AS (SELECT dst AS doc_id, CAST(count(*) AS BIGINT) AS c "
        + "FROM edges GROUP BY dst)"
        + ", rc AS (SELECT a.src AS doc_id, CAST(count(*) AS BIGINT) AS c "
        + "FROM edges a JOIN edges b ON a.src = b.dst AND a.dst = b.src "
        + "GROUP BY a.src)"
        + " SELECT d.doc_id, COALESCE(od.c, 0) AS out_degree, "
        + "COALESCE(idg.c, 0) AS in_degree, "
        + "COALESCE(rc.c, 0) AS reciprocal_degree "
        + "FROM documents d LEFT JOIN od USING (doc_id) "
        + "LEFT JOIN idg USING (doc_id) LEFT JOIN rc USING (doc_id)"
    )


def docs_link_anchor_profile(
    sf_dir: str, k: int = 5, npart: int | None = None
) -> rd.Dataset:
    """Per link TARGET: incoming-link count and the top-k anchor
    texts in (anchor, src) order, '|'-joined — the anchor-text
    profile a web corpus attaches to each page as a relevance /
    labeling signal. Counts are over edge OCCURRENCES (each link
    contributes its anchor); the /ref/ hubs make the in-side hot.

    Scale shape: per-batch combiner emits per-target (partial count +
    at most k candidate anchors), so the keyed exchange moves
    O(npart * (k+1)) rows per target even for the N/13-hot hubs;
    top-k by a total order is distributive (min-k of min-k's), so the
    per-block finish is exact. Anchors are template-ASCII, so pandas
    codepoint order == DuckDB binary collation in the oracle."""
    from ocrs_ray.pipeline import default_npart

    if npart is None:
        npart = default_npart()

    partials = _doc_ref_edges(sf_dir, with_anchor=True).map_batches(
        _anchor_combine, fn_kwargs={"k": k}, batch_format="pandas"
    )
    return partials.repartition(npart, keys=["dst"]).map_batches(
        _anchor_finish,
        fn_kwargs={"k": k},
        batch_format="pandas",
        batch_size=None,
    )


def _anchor_combine(df, k: int) -> "object":
    """Per input batch: per-target partial count row (src = -1
    sentinel) plus the k smallest (anchor, src) candidate rows.
    Exact under any batch split — min-k is distributive and counts
    are sums; pinned by a property test."""
    import pandas as pd

    if df.empty:
        # typed Arrow empty — a zero-row object-dtype pandas column
        # breaks Ray's block size estimator (the CLAUDE.md trap)
        return pa.table(
            {
                "dst": pa.array([], type=pa.int64()),
                "src": pa.array([], type=pa.int64()),
                "anchor": pa.array([], type=pa.string()),
                "cnt": pa.array([], type=pa.int64()),
            }
        )
    top = df.sort_values(["dst", "anchor", "src"]).groupby("dst").head(k)
    cnt = df.groupby("dst", as_index=False).size()
    return pd.concat(
        [
            pd.DataFrame(
                {
                    "dst": top["dst"].to_numpy(dtype="int64"),
                    "src": top["src"].to_numpy(dtype="int64"),
                    "anchor": top["anchor"].to_numpy(),
                    "cnt": np.zeros(len(top), dtype="int64"),
                }
            ),
            pd.DataFrame(
                {
                    "dst": cnt["dst"].to_numpy(dtype="int64"),
                    "src": np.full(len(cnt), -1, dtype="int64"),
                    "anchor": np.full(len(cnt), "", dtype=object),
                    "cnt": cnt["size"].to_numpy(dtype="int64"),
                }
            ),
        ]
    ).reset_index(drop=True)


def _anchor_finish(df, k: int) -> "object":
    """Per dst-keyed block: sum the count partials, merge the
    candidate top-k's and keep the global k, '|'-join."""
    import pandas as pd

    if df.empty:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "in_degree": pa.array([], type=pa.int64()),
                "top_anchors": pa.array([], type=pa.string()),
            }
        )
    cnts = df[df["src"] < 0].groupby("dst", as_index=False)["cnt"].sum()
    cand = df[df["src"] >= 0].sort_values(["dst", "anchor", "src"])
    topk = cand.groupby("dst").head(k)
    agg = topk.groupby("dst", as_index=False)["anchor"].agg("|".join)
    m = cnts.merge(agg, on="dst", how="inner")
    return pd.DataFrame(
        {
            "doc_id": m["dst"].to_numpy(dtype="int64"),
            "in_degree": m["cnt"].to_numpy(dtype="int64"),
            "top_anchors": m["anchor"].to_numpy(),
        }
    )


def link_anchor_profile_sql(k: int = 5) -> str:
    """Oracle for docs_link_anchor_profile: same edge construction
    with anchors, row_number window for the top-k, string_agg in
    (anchor, src) order."""
    return (
        _PAGES_CTE
        + ", m AS (SELECT doc_id, unnest(regexp_extract_all(h, "
        + f"'{HTML_LINK_RE}')) AS tag FROM pages)"
        + ", l AS (SELECT doc_id AS src, "
        + f"regexp_extract(tag, '{HTML_LINK_RE}', 1) AS href, "
        + f"regexp_extract(tag, '{HTML_LINK_RE}', 2) AS anchor FROM m)"
        + ", e0 AS (SELECT src, TRY_CAST(regexp_extract(href, "
        + f"'{_ANY_DOC_HREF_SQL}', 1) AS BIGINT) AS dst, anchor FROM l "
        + f"WHERE regexp_matches(href, '{_ANY_DOC_HREF_SQL}'))"
        + ", e2 AS (SELECT * FROM e0 WHERE dst <= "
        + "(SELECT max(doc_id) FROM documents) AND dst <> src)"
        + ", rn AS (SELECT dst, src, anchor, row_number() OVER "
        + "(PARTITION BY dst ORDER BY anchor, src) AS r FROM e2)"
        + ", t AS (SELECT dst, string_agg(anchor, '|' ORDER BY anchor, src) "
        + f"AS top_anchors FROM rn WHERE r <= {k} GROUP BY dst)"
        + ", c AS (SELECT dst, CAST(count(*) AS BIGINT) AS in_degree "
        + "FROM e2 GROUP BY dst)"
        + " SELECT c.dst AS doc_id, c.in_degree, t.top_anchors "
        + "FROM c JOIN t USING (dst)"
    )


# --------------------------------------------------------------------
# Composed web-extraction data-prep chain
# --------------------------------------------------------------------


def web_extract_prep(sf_dir: str) -> rd.Dataset:
    """The full web-extraction chain as ONE lazy streaming Dataset —
    the shape a crawl-to-corpus job runs: page parse -> DOM-heuristic
    main-content pick -> Gopher quality gate ON THE EXTRACTED TEXT
    (+ the extraction-side gates: winner must be the content block
    with link density <= 30%) -> per-source rollup (pages seen, pages
    kept, kept tokens, summed kept link-density).

    Every stage reuses the standalone operators' kernels
    (`_block_stats_arrays`, `text.gopher_signals`), and the whole
    chain is SQL-expressible, so the driver value-hashes the
    composition end to end.

    Scale shape: ZERO shuffles — extraction, scoring, and gating are
    one stateless map emitting per-block per-source partials; the
    rollup tree-reduces over the bounded source key space.
    """
    import pandas as pd

    from .relational import tree_sum
    from .text import gopher_signals

    def _empty() -> pa.Table:
        return pa.table(
            {
                "source": pa.array([], type=pa.string()),
                "n_pages": pa.array([], type=pa.int64()),
                "n_kept": pa.array([], type=pa.int64()),
                "kept_tokens": pa.array([], type=pa.int64()),
                "kept_density_ppm": pa.array([], type=pa.int64()),
            }
        )

    def prep(batch: pa.Table):
        if len(batch) == 0:
            # Typed Arrow empty — a zero-row object-dtype pandas column
            # breaks Ray's block size estimator (see CLAUDE.md).
            return _empty()
        pages = _synth_html_arrow(batch)
        w = _pick_main_block(_block_stats_arrays(pages), len(batch))
        win, density = w["win"], w["density"]
        sig = gopher_signals(w["text"])
        n_tok = sig["n_tokens"]
        kept = (
            (win == 2)  # content block won the heuristic
            & (density <= 300_000)
            & (n_tok >= 20)
            & (n_tok <= 100_000)
            & (sig["mean_len_milli"] >= 3_000)
            & (sig["mean_len_milli"] <= 10_000)
            & (sig["top_tok_ppm"] <= 200_000)
            & (sig["stop_ppm"] >= 10_000)
        ).astype("int64")
        df = pd.DataFrame(
            {
                "source": batch.column("source").to_pylist(),
                "n_pages": np.ones(len(batch), dtype="int64"),
                "n_kept": kept,
                "kept_tokens": kept * n_tok,
                "kept_density_ppm": kept * density,
            }
        )
        return df.groupby("source", as_index=False).sum()

    ds = read_documents(sf_dir, _DOC_COLS).map_batches(
        prep, batch_format="pyarrow"
    )
    return tree_sum(
        ds, ["source"], ["n_pages", "n_kept", "kept_tokens", "kept_density_ppm"]
    )


def web_extract_prep_sql(stop_list: str) -> str:
    """End-to-end oracle: block stats -> winner pick -> Gopher signals
    over the winner's text -> per-source rollup, all one statement."""
    return (
        _block_stats_cte()
        + ", win AS (SELECT b.doc_id, d.source, b.block_idx, "
        "b.link_density_ppm, b.flat_text FROM blocks b "
        "JOIN documents d ON b.doc_id = d.doc_id "
        "QUALIFY row_number() OVER (PARTITION BY b.doc_id ORDER BY "
        "b.text_chars * (1000000 - b.link_density_ppm) DESC, "
        "b.block_idx ASC) = 1)"
        r", t AS (SELECT doc_id, source, block_idx, link_density_ppm, "
        r"regexp_extract_all(flat_text, '\S+') AS toks FROM win)"
        ", m AS (SELECT doc_id, unnest(toks) AS tok FROM t)"
        ", top AS (SELECT doc_id, max(c) AS top_cnt FROM "
        "(SELECT doc_id, tok, count(*) AS c FROM m GROUP BY 1, 2) "
        "GROUP BY 1)"
        ", s AS (SELECT t.doc_id, t.source, t.block_idx, "
        "t.link_density_ppm, length(t.toks) AS n_tok, "
        "COALESCE(list_sum(list_transform(t.toks, x -> length(x))), 0) "
        "AS sum_len, COALESCE(top.top_cnt, 0) AS top_cnt, "
        f"length(list_filter(t.toks, x -> x IN ({stop_list}))) AS stop_cnt "
        "FROM t LEFT JOIN top ON t.doc_id = top.doc_id)"
        ", k AS (SELECT source, link_density_ppm, n_tok, "
        "CASE WHEN block_idx = 2 AND link_density_ppm <= 300000 "
        "AND n_tok >= 20 AND n_tok <= 100000 "
        "AND (1000 * sum_len) // greatest(n_tok, 1) BETWEEN 3000 AND 10000 "
        "AND (1000000 * top_cnt) // greatest(n_tok, 1) <= 200000 "
        "AND (1000000 * stop_cnt) // greatest(n_tok, 1) >= 10000 "
        "THEN 1 ELSE 0 END AS kept FROM s) "
        "SELECT source, CAST(count(*) AS BIGINT) AS n_pages, "
        "CAST(sum(kept) AS BIGINT) AS n_kept, "
        "CAST(sum(kept * n_tok) AS BIGINT) AS kept_tokens, "
        "CAST(sum(kept * link_density_ppm) AS BIGINT) AS kept_density_ppm "
        "FROM k GROUP BY source"
    )


def web_extract_incremental(sf_dir: str) -> rd.Dataset:
    """Incremental ingest for the extraction pipeline: re-extract main
    content ONLY for the documents that the snapshot diff classifies
    as added or changed (the same deterministic snapshot-B mutation as
    `dedup.docs_snapshot_diff`: doc_id % 7 == 0 deleted, surviving
    doc_id % 11 == 0 re-texted with a 'rev2 ' prefix, doc_id % 13 == 0
    re-ingested under id + 10_000_000). Emits (doc_id, status,
    main_tag, text_chars) per churned doc — output proportional to
    churn, never corpus size; removed docs need no extraction.

    Scale shape: one stateless map (mutation selection + page synth +
    block scoring fused per batch), no shuffle, no driver state.
    """
    import numpy as np
    import pandas as pd

    def _empty() -> pa.Table:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "status": pa.array([], type=pa.string()),
                "main_tag": pa.array([], type=pa.string()),
                "text_chars": pa.array([], type=pa.int64()),
            }
        )

    from .dedup import (
        SNAPSHOT_ID_OFFSET,
        SNAPSHOT_REV_PREFIX,
        snapshot_added_mask,
        snapshot_changed_mask,
    )

    def inc(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        ids = df["doc_id"].to_numpy()
        ch = snapshot_changed_mask(ids)
        ad = snapshot_added_mask(ids)
        sub = pd.DataFrame(
            {
                "doc_id": np.concatenate(
                    [ids[ch], ids[ad] + SNAPSHOT_ID_OFFSET]
                ).astype("int64"),
                "text": (
                    (SNAPSHOT_REV_PREFIX + df.loc[ch, "text"]).tolist()
                    + df.loc[ad, "text"].tolist()
                ),
                "lang": df.loc[ch, "lang"].tolist() + df.loc[ad, "lang"].tolist(),
                "source": (
                    df.loc[ch, "source"].tolist() + df.loc[ad, "source"].tolist()
                ),
                "status": ["changed"] * int(ch.sum()) + ["added"] * int(ad.sum()),
            }
        )
        if sub.empty:
            return _empty()
        sub_t = pa.table(
            {
                "doc_id": pa.array(sub["doc_id"], type=pa.int64()),
                "text": pa.array(sub["text"], type=pa.string()),
                "lang": pa.array(sub["lang"], type=pa.string()),
                "source": pa.array(sub["source"], type=pa.string()),
            }
        )
        pages = _synth_html_arrow(sub_t)
        w = _pick_main_block(_block_stats_arrays(pages), len(sub))
        return pa.table(
            {
                "doc_id": pa.array(sub["doc_id"], type=pa.int64()),
                "status": pa.array(sub["status"], type=pa.string()),
                "main_tag": pa.array(w["tag"], type=pa.string()),
                "text_chars": pa.array(
                    w["text_chars"].astype("int64"), type=pa.int64()
                ),
            }
        )

    return read_documents(sf_dir, _DOC_COLS).map_batches(
        inc, batch_format="pyarrow"
    )


def web_extract_incremental_sql() -> str:
    """Oracle: build the mutated snapshot-B churn set in SQL, run the
    SAME page synthesis + block scoring over it."""
    from .dedup import snapshot_b_sql_cte

    b_cte = (
        f"WITH b AS ({snapshot_b_sql_cte(extra_cols=', lang, source')}), "
        f"pages AS (SELECT doc_id, {synth_html_sql()} AS h FROM b)"
    )
    return (
        _block_stats_cte(pages_cte=b_cte)
        + " SELECT b2.doc_id, b.status, b2.tag AS main_tag, b2.text_chars "
        "FROM blocks b2 JOIN b ON b2.doc_id = b.doc_id "
        "QUALIFY row_number() OVER (PARTITION BY b2.doc_id ORDER BY "
        "b2.text_chars * (1000000 - b2.link_density_ppm) DESC, "
        "b2.block_idx ASC) = 1"
    )
