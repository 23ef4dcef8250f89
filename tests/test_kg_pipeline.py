"""End-to-end parity: the Ray Data pipeline must reproduce the sequential
reference extractor's canonical triples EXACTLY (the P/R≥0.95 gate of
BASELINE.json, met at P=R=1.0), plus lineage and scoring checks."""

from __future__ import annotations

import pandas as pd
import pytest

from recon_ray.pipelines.kg import lineage_summary, run_kg

COLS = [
    "subj", "pred", "obj", "subj_type", "obj_type", "n_mentions",
    "repo", "path", "commit", "content_sha256", "extractor",
]


def _raw_triples(res):
    """The raw (un-canonicalized) triples of a run_kg result, as a lazy
    Dataset: its pinned docs linked against its symbol dictionary."""
    from recon_ray.stages.link import make_link_batch

    return res["docs"].map_batches(
        make_link_batch(res["symbols_ref"]), batch_format="pyarrow",
        zero_copy_batch=True)


@pytest.fixture(scope="module")
def kg_result(unit_corpus_dir):
    res = run_kg(unit_corpus_dir, track_lineage=True)
    canonical = res["canonical"].to_pandas()
    mentions = res["mentions"].to_pandas()
    return res, canonical, mentions


def test_canonical_exact_match(kg_result, gold_extraction):
    _, canonical, _ = kg_result
    gold = pd.DataFrame(gold_extraction["canonical"])
    a = canonical[COLS].sort_values(["subj", "pred", "obj"]).reset_index(drop=True)
    b = gold[COLS].sort_values(["subj", "pred", "obj"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_canonical_sorted_output(kg_result):
    _, canonical, _ = kg_result
    keys = list(zip(canonical["subj"], canonical["pred"], canonical["obj"]))
    assert keys == sorted(keys)


def test_mentions_match_gold(kg_result, gold_extraction):
    _, _, mentions = kg_result
    gold = pd.DataFrame(gold_extraction["mentions"])
    cols = ["repo", "path", "text", "start", "end", "label"]
    a = mentions[cols].sort_values(cols).reset_index(drop=True)
    b = gold[cols].sort_values(cols).reset_index(drop=True)
    a["start"] = a["start"].astype("int64")
    a["end"] = a["end"].astype("int64")
    b["start"] = b["start"].astype("int64")
    b["end"] = b["end"].astype("int64")
    pd.testing.assert_frame_equal(a, b)


def test_triple_prf_gate(kg_result, gold_extraction):
    from recon_ray.functions.scoring import score_triples_frames

    _, canonical, _ = kg_result
    gold = pd.DataFrame(gold_extraction["canonical"])
    scores = score_triples_frames(canonical, gold)
    assert scores["precision"] >= 0.95
    assert scores["recall"] >= 0.95
    assert scores["f1"] == 1.0


def test_lineage_counts(kg_result):
    import time

    res, _, _ = kg_result
    # workers report via fire-and-forget actor calls — poll until all five
    # ops have landed their full row counts (no cross-caller ordering)
    for _ in range(100):
        summary = lineage_summary(res["tracker"])
        if len(summary) == 5 and all(s["rows"] == 120 for s in summary):
            break
        time.sleep(0.1)
    names = [s["name"] for s in summary]
    assert names == [
        "recon_ray.upcase_labels.v1",
        "recon_ray.rename_labels.v1",
        "recon_ray.strip_annotations.v1",
        "recon_ray.filter_overlaps.v1",
        "recon_ray.fix_annotations.v1",
    ]
    for s in summary:
        assert s["rows"] == 120
        assert s["added"] == 0 and s["removed"] == 0
        assert 0 < s["changed"] <= 120


def test_symbol_dict_matches_reference(kg_result, gold_extraction):
    import ray

    res, _, _ = kg_result
    table = ray.get(res["symbols_ref"])
    ray_rows = set(zip(*(table.column(c).to_pylist()
                         for c in ("q", "name", "repo"))))
    gold_rows = {(r["id"], r["name"], r["repo"]) for r in gold_extraction["symbols"]}
    assert ray_rows == gold_rows


def test_canonicalize_over_1024_blocks(kg_result):
    """Past 1024 partial blocks (the old fallback threshold) the range
    exchange still splits every block once and merges each key range in
    one reduce task: 1100 raw-triple slices canonicalize to the identical
    sorted table. ``sort=False`` is accepted and ignored: the lazy
    raw-triples Dataset canonicalizes to the same sorted table."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from recon_ray.stages.canonicalize import canonicalize

    res, _, _ = kg_result
    a = res["canonical"].to_pandas()
    triples = _raw_triples(res)
    raw = pa.concat_tables(ray.get(triples.materialize().to_arrow_refs()))
    n = 1100
    assert raw.num_rows >= n
    cuts = [raw.num_rows * i // n for i in range(n + 1)]
    refs = [ray.put(raw.slice(cuts[i], cuts[i + 1] - cuts[i])) for i in range(n)]
    for ds, sort in ((rd.from_arrow_refs(refs), True), (triples, False)):
        b = canonicalize(ds, sort=sort).to_pandas()
        pd.testing.assert_frame_equal(
            a.reset_index(drop=True), b[a.columns].reset_index(drop=True)
        )
        keys = list(zip(b["subj"], b["pred"], b["obj"]))
        assert keys == sorted(keys)


def test_canonicalize_groups_split_tasks(kg_result, monkeypatch):
    """The exchange's grouping rule: with one CPU reported, one split task
    takes all 12 partial blocks; with a 32-object bound, split tasks take
    several blocks each. Either way the output is the identical sorted
    table."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from recon_ray.functions import relational
    from recon_ray.stages.canonicalize import canonicalize

    res, _, _ = kg_result
    a = res["canonical"].to_pandas()
    raw = pa.concat_tables(ray.get(_raw_triples(res).materialize().to_arrow_refs()))
    n = 12
    cuts = [raw.num_rows * i // n for i in range(n + 1)]
    refs = [ray.put(raw.slice(cuts[i], cuts[i + 1] - cuts[i])) for i in range(n)]
    real_split = relational.split_blocks
    for cpus, max_objects in ((1, relational.MAX_EXCHANGE_OBJECTS), (64, 32)):
        calls = []

        def counting_split(refs, *args, **kw):
            calls.append(len(refs))
            return real_split(refs, *args, **kw)

        monkeypatch.setattr(relational, "cluster_cpus", lambda: cpus)
        monkeypatch.setattr(relational, "MAX_EXCHANGE_OBJECTS", max_objects)
        monkeypatch.setattr(relational, "split_blocks", counting_split)
        b = canonicalize(rd.from_arrow_refs(refs)).to_pandas()
        assert sum(calls) == n and 1 <= len(calls) < n
        if cpus == 1:
            assert calls == [n]
        pd.testing.assert_frame_equal(
            a.reset_index(drop=True), b[a.columns].reset_index(drop=True)
        )
        keys = list(zip(b["subj"], b["pred"], b["obj"]))
        assert keys == sorted(keys)


def test_key_boundaries_match_python_sort():
    """The Arrow-sorted boundary sample equals sorting the packed keys as
    Python str, and the range rule's bucket of each key equals
    ``bisect_right(bounds, key)``: duplicates, non-ASCII text, the \\x00
    separator, keys equal to a boundary (they go to the upper range) and
    no boundaries at all (one bucket)."""
    import bisect

    import pyarrow as pa

    from recon_ray.stages.canonicalize import _key_boundaries, _range_buckets

    def python_bounds(keys, n_ranges):
        keys = sorted(keys)
        bounds = []
        for r in range(1, n_ranges):
            b = keys[min(len(keys) - 1, len(keys) * r // n_ranges)]
            if not bounds or b != bounds[-1]:
                bounds.append(b)
        return bounds

    words = ["a", "a\x00b", "a\x00", "ab", "Z", "é", "e\u0301", "日本",
             "\U0001f600", "ß", "a\x00b", "z\x00\x00", "", "ÿ", "\uffff"]
    keys = [f"{w}\x00{v}" for w in words for v in ("x", "ä", "x")] + words * 3
    for n_ranges in (2, 3, 8, 16, 64, 256):
        for chunks in ([keys], [keys[:7], keys[7:]]):
            arr = pa.chunked_array(chunks, pa.string())
            bounds = _key_boundaries(arr, n_ranges)
            assert bounds == python_bounds(keys, n_ranges)
            assert set(bounds) <= set(keys)
            got = _range_buckets(pa.array(bounds, pa.string()),
                                 pa.table({"k": arr}), len(bounds) + 1)
            assert got.tolist() == [bisect.bisect_right(bounds, k) for k in keys]
    assert _key_boundaries(pa.chunked_array([], pa.string()), 8) == []
    assert _range_buckets(pa.array([], pa.string()), pa.table({"k": keys}),
                          1).tolist() == [0] * len(keys)
    # the rule packs multi-column keys with the \x00 separator
    two = pa.table({"a": ["a", "a", "b"], "b": ["", "b", ""]})
    assert _range_buckets(pa.array(["a\x00b"], pa.string()), two, 2).tolist() \
        == [0, 1, 1]


def test_empty_corpus_all_modes(tmp_path):
    """0 rows flow through the pipeline without error (schema-less empty
    blocks must not break the reduce kernels): a directory without any
    Parquet file and a 0-row fragment both give an empty canonical table
    with the full schema and a docs Dataset without rows."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from recon_ray.pipelines.kg import run_kg

    no_files = tmp_path / "no_parquet_file"
    no_files.mkdir()
    d = tmp_path / "empty_corpus"
    d.mkdir()
    t = pa.table(
        {c: pa.array([], pa.string())
         for c in ["repo", "path", "commit", "lang", "content"]}
    )
    pq.write_table(t, str(d / "part-0.parquet"))
    for path in (no_files, d):
        res = run_kg(str(path))
        assert res["canonical"].count() == 0
        # the exchange's merge of the 0-row partial gives the full schema
        assert res["canonical"].schema().names == COLS
        assert res["docs"].count() == 0
        assert res["mentions"].count() == 0
    assert run_kg(str(d), symbol_source="mentions")["canonical"].count() == 0


def test_symbols_from_docs_equals_scan(unit_corpus_dir, kg_result):
    """The mentions-derived symbol table (vectorized def_name/module_of)
    is row-identical to the DEF-only corpus scan's distinct rows."""
    from recon_ray.pipelines.kg import read_files, scan_symbols, symbols_from_docs

    scan = scan_symbols(read_files(unit_corpus_dir)).to_pandas()
    scan = scan.drop_duplicates().sort_values(["repo", "module", "name"]).reset_index(drop=True)
    derived = symbols_from_docs(kg_result[0]["docs"]).to_pandas()
    derived = derived.drop_duplicates().sort_values(["repo", "module", "name"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(derived, scan)


def test_small_batches_with_empty_read_blocks(tmp_path):
    """The per-block DEF and link tasks take an empty doc block (a 0-row
    fragment's detect slice: every column, no rows) and return their
    empty output with the full schema. And 32 files in 8 fragments, each
    cut into byte-budgeted detect slices, must still equal the reference
    extractor's output."""
    import ray

    from recon_ray import reference_extractor as rx
    from recon_ray.corpusgen import generate_corpus, write_corpus
    from recon_ray.pipelines.kg import _defs_block, _detect_kernel, _link_block
    from recon_ray.stages.canonicalize import _EMPTY_PARTIAL
    from recon_ray.stages.link import merge_symbols

    symbols_ref = ray.put(merge_symbols())  # the empty symbol table
    empty = _detect_kernel(generate_corpus(1, seed=7), 0, 0)
    assert empty.num_rows == 0 and "mentions" in empty.column_names
    defs = ray.get(_defs_block.remote(empty))
    assert defs.num_rows == 0
    assert defs.column_names == ["repo", "module", "name"]
    part = ray.get(_link_block.remote(empty, symbols_ref))
    assert part.num_rows == 0
    assert part.schema == _EMPTY_PARTIAL.schema
    d = write_corpus(32, str(tmp_path / "files"), seed=7, files_per_fragment=4)
    got = run_kg(d)["canonical"].to_pandas()
    gold = pd.DataFrame(
        rx.extract_corpus(generate_corpus(32, seed=7).to_pylist())["canonical"]
    )
    assert len(gold) > 0
    pd.testing.assert_frame_equal(
        got[COLS].reset_index(drop=True),
        gold[COLS].sort_values(["subj", "pred", "obj"]).reset_index(drop=True),
    )


def test_linker_sees_each_doc_once(unit_corpus_dir, tmp_path, monkeypatch):
    """Linking runs once per doc, in run_kg and in the checkpointed runner:
    the per-block link tasks see every pinned doc once (no plan runs
    twice and no shard is linked twice)."""
    import ray

    from recon_ray.pipelines import kg
    from recon_ray.state.runner import run_kg_checkpointed

    log = tmp_path / "linked_rows"
    real, path = kg._link_kernel, str(log)

    def counted(block, symbols):
        with open(path, "a") as f:
            f.write(f"{len(block)}\n")
        return real(block, symbols)

    def linked_rows() -> int:
        n = sum(int(x) for x in log.read_text().split())
        log.unlink()
        return n

    monkeypatch.setattr(kg, "_link_block", ray.remote(counted))
    kg.run_kg(unit_corpus_dir)["canonical"].count()
    assert linked_rows() == 120
    run_kg_checkpointed(unit_corpus_dir, str(tmp_path / "ckpt"),
                        fragments_per_shard=1)
    assert linked_rows() == 120


def test_ref_bundle_api_pinned():
    """The streaming feed (``stages/streaming.py:_feed_refs``) takes block
    refs off the executor through Ray Data's DeveloperAPI
    (Dataset.iter_internal_ref_bundles, RefBundle.block_refs). A Ray
    upgrade that drops either must fail here, not silently switch every
    streaming operator to the slower fallback."""
    import ray
    import ray.data as rd

    from recon_ray.stages.streaming import (iter_block_refs,
                                            ref_bundle_api_available)

    assert ref_bundle_api_available()
    refs = list(iter_block_refs(rd.range(10, override_num_blocks=3)))
    assert sum(len(b) for b in ray.get(refs)) == 10


def test_ref_bundle_api_fallback(monkeypatch):
    """Without the DeveloperAPI, iter_block_refs falls back to
    materialize().to_arrow_refs() and the streaming feed hands on the
    same rows."""
    import pyarrow as pa
    import ray
    import ray.data as rd
    from ray.data._internal.execution.interfaces import RefBundle

    from recon_ray.stages import streaming

    for cls, attr in [(rd.Dataset, "iter_internal_ref_bundles"),
                      (RefBundle, "block_refs")]:
        with monkeypatch.context() as m:
            m.delattr(cls, attr)
            assert not streaming.ref_bundle_api_available()

    def fed() -> pa.Table:
        refs = streaming._feed_refs(rd.range(100, override_num_blocks=4),
                                    "id", ordered=False)
        return pa.concat_tables(ray.get(list(refs))).sort_by("id")

    want = fed()
    # Ray Data itself calls both attributes, so the run hides them from
    # the probe only
    monkeypatch.setattr(streaming, "ref_bundle_api_available", lambda: False)
    assert fed().equals(want)
    assert want.column("id").to_pylist() == list(range(100))


def test_run_kg_starts_no_ray_data_execution(unit_corpus_dir, monkeypatch):
    """run_kg reads, detects, links and merges in plain tasks: no Ray
    Data execution starts before it returns (only the exploded mentions
    stay a lazy Dataset, which the probe sees when it runs)."""
    import ray
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    calls = []
    real = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    res = run_kg(unit_corpus_dir)
    assert calls == []
    assert sum(t.num_rows for t in ray.get(res["doc_refs"])) == 120
    res["mentions"].count()
    assert calls


def test_detect_slices_by_content_bytes(tmp_path, monkeypatch):
    """run_kg cuts each fragment's rows into detect slices by content
    bytes (the corpus's content ÷ (2 × CPUs), at most 32 MiB). Over 1000
    files in 8 fragments of 125, every row is detected exactly once and
    a slice over the budget is a single row; 2 fragments at 4 CPUs give
    at least 4 slices (one detect call per fragment kept 2 of the 4 CPUs
    busy)."""
    import numpy as np
    import pyarrow.compute as pc
    import ray

    from recon_ray.corpusgen import write_corpus
    from recon_ray.pipelines import kg

    # the slicing rule itself, budget 10: a slice closes before the row
    # that would push it past 10 bytes; the 20-byte row stands alone
    assert kg.row_slices(np.array([4, 4, 3, 20, 1, 1]), 10) == [
        (0, 2), (2, 1), (3, 1), (4, 2)]
    assert kg.row_slices(np.array([], np.int32), 10) == [(0, 0)]

    d = write_corpus(1000, str(tmp_path / "files"), seed=3,
                     files_per_fragment=125)
    frags = kg.list_fragments(d)
    assert len(frags) == 8 and kg.cluster_cpus() == 4
    log = tmp_path / "slices"
    real, path = kg._detect_kernel, str(log)

    def counted(table, offset, length, tracker=None):
        out = real(table, offset, length, tracker)
        content = table.slice(offset, length).column("content")
        with open(path, "a") as f:
            f.write(" ".join(map(str, [
                length, pc.sum(pc.binary_length(content)).as_py() or 0,
                *out.column("doc_id").to_pylist()])) + "\n")
        return out

    def logged_slices(inp) -> list[list[int]]:
        ray.get(kg.run_kg(inp)["doc_refs"])
        rows = [[int(x) for x in line.split()]
                for line in log.read_text().splitlines()]
        log.unlink()
        return rows

    monkeypatch.setattr(kg, "_detect_slice", ray.remote(counted))
    budget = kg.slice_budget(frags)
    slices = logged_slices(d)
    doc_ids = [i for s in slices for i in s[2:]]
    assert sum(s[0] for s in slices) == len(doc_ids) == len(set(doc_ids)) == 1000
    assert all(s[1] <= budget or s[0] == 1 for s in slices)
    assert len(logged_slices(frags[:2])) >= 4


def test_link_block_resolution_rules():
    """link_block on hand-made blocks: the same-module definition wins
    over a smaller q from another module; otherwise the smallest in-repo
    q; a DEF in another repo never matches; a block without DEF rows
    links its calls from the doc's <module> sentinel."""
    import pyarrow as pa

    from recon_ray.ops.mentions_io import MENTION_TYPE
    from recon_ray.stages.link import _dedup_symbol_table, link_block

    symbols = _dedup_symbol_table(pa.table({
        "repo": ["r0", "r0", "r0", "r0", "r1"],
        "module": ["b", "z", "c", "d", "a"],
        "name": ["f", "f", "g", "g", "h"],
    }))

    def linked(path, spans):
        mentions = [{"text": t, "start": s, "end": s + len(t), "label": lbl,
                     "source": ""} for t, s, lbl in spans]
        docs = pa.table({
            "repo": ["r0"], "path": [path], "commit": ["c"],
            "content_sha256": ["s"], "lang": ["python"],
            "mentions": pa.array([mentions], pa.list_(MENTION_TYPE)),
        })
        t = link_block(docs, symbols)
        return sorted(zip(*(t.column(c).to_pylist()
                            for c in ("subj", "pred", "obj"))))

    assert linked("z.py", [("def main", 0, "DEF"), ("f", 10, "CALL"),
                           ("g", 20, "CALL"), ("h", 30, "CALL")]) == sorted([
        ("r0/z.py", "defines", "r0:z.main"),
        ("r0:z.main", "calls", "r0:z.f"),
        ("r0:z.main", "calls", "r0:c.g"),
        ("r0:z.main", "calls_unresolved", "h"),
    ])
    assert linked("m/n.py", [("f", 3, "CALL")]) == [
        ("r0:m.n.<module>", "calls", "r0:b.f")]
