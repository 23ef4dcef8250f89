"""Property-based parity: the vectorized Arrow span kernels must agree with
the sequential reference ports on arbitrary span configurations (the
offset-arithmetic property testing SURVEY §7.4 calls for)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from recon_ray import reference_extractor as rx
from recon_ray.ops.mentions_io import mentions_list_array, mentions_parts
from recon_ray.ops.spans import (
    filter_overlaps,
    fix_annotations,
    strip_annotations,
    upcase_labels,
)
from recon_ray.spec import Mention

CHARS = "ab .-:!?xyz_"
LABELS = ["call", "def", "import", "ident", "CALL"]


span_st = st.tuples(
    st.text(alphabet=CHARS, min_size=1, max_size=8),
    st.integers(min_value=0, max_value=400),
    st.sampled_from(LABELS),
)


def _to_batch(docs):
    lengths = np.array([len(d) for d in docs], dtype=np.int64)
    flat = [m for d in docs for m in d]
    mentions = mentions_list_array(
        lengths,
        np.array([m[0] for m in flat], dtype=object),
        np.array([m[1] for m in flat], dtype=np.int64),
        np.array([m[2] for m in flat], dtype=np.int64),
        np.array([m[3] for m in flat], dtype=object),
        np.array(["t"] * len(flat), dtype=object),
    )
    t = pa.table({"doc_id": pa.array(range(len(docs)), pa.uint64())})
    return t.append_column("mentions", mentions)


def _spans_of(batch, d):
    lengths, text, start, end, label, _ = mentions_parts(batch)
    lo = int(lengths[:d].sum())
    hi = lo + int(lengths[d])
    return [(text[i], int(start[i]), int(end[i]), label[i]) for i in range(lo, hi)]


def _mk_docs(raw_docs):
    """hypothesis tuples → per-doc span lists (end = start + len(text))."""
    return [
        [(t, s, s + len(t), l) for (t, s, l) in doc]
        for doc in raw_docs
    ]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(span_st, max_size=8), min_size=1, max_size=5))
def test_strip_parity(raw_docs):
    docs = _mk_docs(raw_docs)
    out = strip_annotations(_to_batch(docs))
    for d, doc in enumerate(docs):
        seq = rx.strip_annotations(
            [Mention(t, s, e, l) for (t, s, e, l) in doc]
        )
        assert _spans_of(out, d) == [(m.text, m.start, m.end, m.label) for m in seq]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(span_st, max_size=10), min_size=1, max_size=4))
def test_filter_overlaps_parity(raw_docs):
    docs = _mk_docs(raw_docs)
    out = filter_overlaps(_to_batch(docs))
    for d, doc in enumerate(docs):
        seq = rx.filter_overlaps([Mention(t, s, e, l) for (t, s, e, l) in doc])
        assert _spans_of(out, d) == [(m.text, m.start, m.end, m.label) for m in seq]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(span_st, max_size=6), min_size=1, max_size=3),
    st.lists(
        st.tuples(
            st.text(alphabet=CHARS, min_size=1, max_size=4),
            st.sampled_from([["CALL"], ["ANY"], ["IDENT", "DEF"]]),
            st.sampled_from([None, "FIXED"]),
        ),
        max_size=4,
    ),
)
def test_fix_annotations_parity(raw_docs, corrections):
    docs = _mk_docs(raw_docs)
    out = fix_annotations(upcase_labels(_to_batch(docs)), corrections=corrections)
    for d, doc in enumerate(docs):
        seq = rx.fix_annotations(
            rx.upcase_labels([Mention(t, s, e, l) for (t, s, e, l) in doc]),
            corrections=corrections,
        )
        assert _spans_of(out, d) == [(m.text, m.start, m.end, m.label) for m in seq]


# ---------------------------------------------------------------------------
# tokenizer properties (no Ray needed — the op kernels are pure functions)
# ---------------------------------------------------------------------------

TOK_CHARS = "ab c.d(_)!\n\tz0"


@given(st.text(alphabet=TOK_CHARS, max_size=200))
@settings(max_examples=200, deadline=None)
def test_tokenize_partition_properties(text):
    """Tokens are in-bounds, ordered, non-overlapping, text-faithful, and
    exactly cover every non-whitespace character (the \\w+|[^\\w\\s]
    pattern partitions non-space text)."""
    from recon_ray.ops.tokens import tokenize

    tx, starts, ends = tokenize(text)
    assert len(tx) == len(starts) == len(ends)
    prev_end = 0
    covered = 0
    for t, s, e in zip(tx, starts, ends):
        assert 0 <= s < e <= len(text)
        assert s >= prev_end  # ordered, non-overlapping
        assert text[s:e] == t  # faithful offsets
        assert text[prev_end:s].strip() == ""  # gaps are whitespace only
        prev_end = e
        covered += e - s
    assert covered == sum(1 for c in text if not c.isspace())


@given(st.text(alphabet=TOK_CHARS, min_size=3, max_size=120))
@settings(max_examples=150, deadline=None)
def test_add_tokens_alignment_property(text):
    """Any span cut exactly at token boundaries aligns to those token
    indices; shifting the start mid-token drops the doc."""
    from recon_ray.ops.tokens import add_tokens, tokenize, tokenize_batch

    tx, starts, ends = tokenize(text)
    if len(tx) == 0:
        return
    i = len(tx) // 3
    j = min(len(tx) - 1, i + 1)

    def run(start, end):
        lengths = np.array([1], dtype=np.int64)
        m = mentions_list_array(
            lengths,
            np.array([text[start:end]], dtype=object),
            np.array([start], dtype=np.int64),
            np.array([end], dtype=np.int64),
            np.array(["IDENT"], dtype=object),
            np.array(["t"], dtype=object),
        )
        batch = pa.table(
            {
                "doc_id": pa.array([0], pa.int64()),
                "content": pa.array([text], pa.string()),
                "mentions": m,
            }
        )
        return add_tokens(tokenize_batch(batch))

    out = run(int(starts[i]), int(ends[j]))
    assert out.num_rows == 1
    align = out.column("mention_tokens").to_pylist()[0][0]
    assert (align["token_start"], align["token_end"]) == (i, j)

    # start shifted INTO a multi-char token → misaligned → doc dropped
    if ends[i] - starts[i] > 1:
        out2 = run(int(starts[i]) + 1, int(ends[j]))
        assert out2.num_rows == 0


# ---------------------------------------------------------------------------
# FULL extraction-path parity on arbitrary code-like text: the batched
# detector + vectorized correction chain must equal the sequential
# reference path doc-for-doc. This probes INPUTS, not just span configs —
# the mitigation for the shared-spec oracle caveat (VERDICT round 1).
# ---------------------------------------------------------------------------

CODE_FRAGS = [
    "def foo():", "def foo_bar(x):", "def  spaced ():", "import os",
    "import foo.bar", "from foo import bar", "from a.b import c", "foo(",
    "foo ()", "bar(x)", "if (", "for (", "while(", "print(x)",
    "return baz", "x = y", "class C:", "function f() {", "const x =",
    "require('m')", "func g() {", "package main", "qux", "q_1", ".", ",",
    ")", ";", "\n", "\n\n", " ", "\t", "0f", "_x(", "def(", "import ",
]


def _langs():
    from recon_ray import spec

    return sorted(spec.PATTERNS) + ["unknown"]


@given(
    st.lists(
        st.tuples(
            st.sampled_from(_langs()),
            st.lists(st.sampled_from(CODE_FRAGS), max_size=40),
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=120, deadline=None)
def test_full_extraction_path_parity(doc_specs):
    from recon_ray.ops.spans import rename_labels
    from recon_ray.stages.detect import detect_batch

    contents = ["".join(frags) for (_, frags) in doc_specs]
    langs = [lang for (lang, _) in doc_specs]
    table = pa.table(
        {
            "repo": pa.array([f"r{i}" for i in range(len(contents))]),
            "path": pa.array([f"p{i}.x" for i in range(len(contents))]),
            "commit": pa.array(["c"] * len(contents)),
            "lang": pa.array(langs),
            "content": pa.array(contents),
        }
    )
    out = detect_batch(table)
    for kernel in (upcase_labels, rename_labels, strip_annotations,
                   filter_overlaps, fix_annotations):
        out = kernel(out)
    for d, (lang, content) in enumerate(zip(langs, contents)):
        seq = rx.correct_mentions(rx.detect_mentions(content, lang))
        assert _spans_of(out, d) == [
            (m.text, m.start, m.end, m.label) for m in seq
        ], (lang, content)


# ---------------------------------------------------------------------------
# sequence-packing properties (pure-kernel: the per-bucket greedy)
# ---------------------------------------------------------------------------

@given(
    st.lists(st.integers(min_value=0, max_value=40), max_size=60),
    st.integers(min_value=1, max_value=50),
)
@settings(max_examples=200, deadline=None)
def test_pack_greedy_properties(token_counts, budget):
    """Greedy invariants for any token sequence and budget: packs are
    contiguous runs in doc order, every pack fits the budget unless it is
    an oversized singleton, and no doc could move to the previous pack."""
    import pandas as pd

    from recon_ray.functions.pack import _pack_bucket

    g = pd.DataFrame(
        {"doc_id": range(len(token_counts)), "n_tokens": token_counts}
    )
    out = _pack_bucket(budget)(g)
    if len(out) == 0:
        return
    seq = out["seq_id"].to_numpy()
    tok = out["n_tokens"].to_numpy()
    # contiguous, starting at 0, non-decreasing by ≤1
    assert seq[0] == 0
    assert ((seq[1:] - seq[:-1] >= 0) & (seq[1:] - seq[:-1] <= 1)).all()
    sums = out.groupby("seq_id")["n_tokens"].sum()
    counts = out.groupby("seq_id")["n_tokens"].size()
    for sid, s in sums.items():
        assert s <= budget or counts[sid] == 1  # oversized -> singleton
    # maximality: first doc of pack k+1 would not have fit in pack k
    for i in range(1, len(out)):
        if seq[i] != seq[i - 1]:
            prev_sum = sums[seq[i - 1]]
            assert prev_sum + tok[i] > budget


# ---------------------------------------------------------------------------
# FULL link-path parity: detect → correction chain → DEF scan → symbol
# table → link_block, all as pure local kernels, vs the sequential
# reference extractor's extract_corpus — raw triple-for-triple, including
# cross-doc resolution inside a repo (round-2 growth of the shared-spec
# oracle mitigation: now the LINKER semantics are input-fuzzed too).
# ---------------------------------------------------------------------------

@given(
    st.lists(
        st.tuples(
            st.sampled_from(["r0", "r1"]),
            st.sampled_from(_langs()),
            st.lists(st.sampled_from(CODE_FRAGS), max_size=30),
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_full_link_path_parity(doc_specs):
    from recon_ray.ops.spans import rename_labels
    from recon_ray.stages.detect import detect_batch, scan_symbols_batch
    from recon_ray.stages.link import _dedup_symbol_table, link_block

    rows = [
        {"repo": repo, "path": f"p{i}.x", "commit": "c", "lang": lang,
         "content": "".join(frags)}
        for i, (repo, lang, frags) in enumerate(doc_specs)
    ]
    table = pa.table(
        {k: pa.array([r[k] for r in rows]) for k in
         ("repo", "path", "commit", "lang", "content")}
    )

    symbols = _dedup_symbol_table(scan_symbols_batch(table))
    out = detect_batch(table)
    for kernel in (upcase_labels, rename_labels, strip_annotations,
                   filter_overlaps, fix_annotations):
        out = kernel(out)
    triples = link_block(out.drop_columns(["content"]), symbols)

    cols = ["subj", "pred", "obj", "subj_type", "obj_type", "repo",
            "path", "commit", "content_sha256", "extractor"]
    got = sorted(
        tuple(t) for t in zip(*(triples.column(c).to_pylist() for c in cols))
    ) if triples.num_rows else []
    want = sorted(tuple(t[c] for c in cols)
                  for t in rx.extract_corpus(rows)["triples"])
    assert got == want, rows
