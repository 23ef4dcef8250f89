"""Checkpoint/resume semantics of the sharded runner — the partition-grain
analogue of the reference's replay test (recon/dataset.py:370-381)."""

from __future__ import annotations

import json
import os

import pandas as pd
import pytest


@pytest.fixture(scope="module")
def ckpt(unit_corpus_dir, tmp_path_factory, gold_extraction):
    from recon_ray.state.runner import run_kg_checkpointed

    out = str(tmp_path_factory.mktemp("ckpt"))
    # simulate a mid-run kill: only 1 shard allowed, then "crash"
    r1 = run_kg_checkpointed(
        unit_corpus_dir, out, fragments_per_shard=1, max_shards=1
    )
    # resume: remaining shards run, first shard skipped
    r2 = run_kg_checkpointed(unit_corpus_dir, out, fragments_per_shard=1)
    # idempotent third run: everything skipped
    r3 = run_kg_checkpointed(unit_corpus_dir, out, fragments_per_shard=1)
    return out, r1, r2, r3


def test_resume_skips_completed(ckpt):
    out, r1, r2, r3 = ckpt
    assert r1["shards_run"] == 1 and not r1["complete"]
    assert r2["shards_skipped"] == 1 and r2["complete"]
    assert r3["shards_run"] == 0 and r3["shards_skipped"] == 3 and r3["complete"]


def test_final_output_matches_oracle(ckpt, gold_extraction):
    out, _, _, _ = ckpt
    final = pd.read_parquet(os.path.join(out, "triples", "data"))
    gold = pd.DataFrame(gold_extraction["canonical"])
    cols = list(gold.columns)
    a = final[cols].sort_values(["subj", "pred", "obj"]).reset_index(drop=True)
    b = gold.sort_values(["subj", "pred", "obj"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_manifests_record_lineage(ckpt):
    out, _, _, _ = ckpt
    shard_dirs = sorted(os.listdir(os.path.join(out, "shards")))
    assert len(shard_dirs) == 3
    n_triples = 0
    for d in shard_dirs:
        with open(os.path.join(out, "shards", d, "manifest.json")) as f:
            m = json.load(f)
        assert m["status"] == "COMPLETED"
        assert m["n_files"] > 0 and m["n_canonical"] > 0
        assert m["content_hash_rollup"]
        assert m["input_fragments"][0]["rows"] == m["n_files"]
        n_triples += m["n_triples"]
        # per-partition quality insights written alongside
        assert os.path.isdir(os.path.join(out, "shards", d, "insights", "coverage"))
    # n_triples counts the shard's raw triples, which the merge only sums
    final = pd.read_parquet(os.path.join(out, "triples", "data"))
    assert n_triples == final["n_mentions"].sum() > 0


def test_stale_shard_dirs_not_merged(ckpt, unit_corpus_dir, tmp_path_factory):
    """A reused out_dir with leftover higher-numbered shard dirs (e.g. from
    a previous run with smaller fragments_per_shard) must not leak stale
    triples into the final merge."""
    import shutil

    from recon_ray.state.runner import run_kg_checkpointed

    out, _, _, _ = ckpt
    out2 = str(tmp_path_factory.mktemp("ckpt_stale"))
    # first run: 3 shards (fragments_per_shard=1)
    run_kg_checkpointed(unit_corpus_dir, out2, fragments_per_shard=1)
    first = pd.read_parquet(os.path.join(out2, "triples", "data"))
    # second run over the SAME out_dir with fragments_per_shard=3 → 1 shard;
    # shard=0001/0002 dirs from the first run survive on disk
    r = run_kg_checkpointed(unit_corpus_dir, out2, fragments_per_shard=3)
    assert r["complete"]
    merged = pd.read_parquet(os.path.join(out2, "triples", "data"))
    key = ["subj", "pred", "obj"]
    pd.testing.assert_frame_equal(
        merged.sort_values(key).reset_index(drop=True),
        first.sort_values(key).reset_index(drop=True),
    )
    # manifest n_canonical records the MERGED row count, not the shard sum
    with open(os.path.join(out2, "triples", "manifest.json")) as f:
        m = json.load(f)
    assert m["n_canonical"] == len(merged)


def test_external_edit_forces_recompute(ckpt, unit_corpus_dir, tmp_path_factory):
    """Changed input ⇒ fingerprint mismatch ⇒ the edited shard recomputes
    (the commit-hash semantics of recon/dataset.py:353-368) — and because
    the appended docs introduce NEW DEF symbols, the global dictionary
    changes and the symbol-content hash correctly invalidates the OTHER
    shards too (their mentions may now link differently). The merged
    output must equal a from-scratch run over the edited corpus."""
    import shutil

    from recon_ray.state.runner import run_kg_checkpointed

    out, _, _, _ = ckpt
    edited = str(tmp_path_factory.mktemp("edited"))
    shutil.copytree(unit_corpus_dir, edited, dirs_exist_ok=True)
    out2 = str(tmp_path_factory.mktemp("ckpt2"))
    run_kg_checkpointed(edited, out2, fragments_per_shard=1)
    # append rows to one fragment
    import pyarrow.parquet as pq

    from recon_ray.corpusgen import generate_corpus

    frag = sorted(os.listdir(edited))[0]
    extra = generate_corpus(5, seed=99)
    old = pq.read_table(os.path.join(edited, frag))
    import pyarrow as pa

    pq.write_table(pa.concat_tables([old, extra]), os.path.join(edited, frag))
    r = run_kg_checkpointed(edited, out2, fragments_per_shard=1)
    assert r["shards_run"] == 3 and r["shards_skipped"] == 0

    out3 = str(tmp_path_factory.mktemp("ckpt3"))
    run_kg_checkpointed(edited, out3, fragments_per_shard=1)
    a = pd.read_parquet(os.path.join(out2, "triples", "data"))
    b = pd.read_parquet(os.path.join(out3, "triples", "data"))
    cols = ["subj", "pred", "obj"]
    pd.testing.assert_frame_equal(
        a.sort_values(cols).reset_index(drop=True)[cols],
        b.sort_values(cols).reset_index(drop=True)[cols],
    )


def test_incremental_ingest_growth(tmp_path_factory):
    """Continuous-ingestion contract: when NEW fragments arrive, a re-run
    recomputes what correctness requires — the symbol dictionary changes
    (new DEFs), so every shard relinks (conservative invalidation via the
    symbol-content hash in the shard args hash) — and the merged triples
    are IDENTICAL to a from-scratch run over the full corpus. A re-run
    with no new data is then a complete no-op."""
    import pyarrow.parquet as pq

    from recon_ray.corpusgen import generate_corpus
    from recon_ray.state.runner import run_kg_checkpointed

    table = generate_corpus(120, seed=42)
    ingest = tmp_path_factory.mktemp("ingest_files")
    scratch = tmp_path_factory.mktemp("scratch_files")
    # initial arrival: first 80 rows as two fragments
    for i in range(0, 80, 40):
        pq.write_table(table.slice(i, 40),
                       str(ingest / f"part-{i:05d}.parquet"))
    out = str(tmp_path_factory.mktemp("ingest_out"))
    r1 = run_kg_checkpointed(str(ingest), out, fragments_per_shard=1)
    assert r1["shards_run"] == 2 and r1["complete"]

    # new data lands (sorts after the existing fragments)
    pq.write_table(table.slice(80, 40),
                   str(ingest / f"part-z0080.parquet"))
    r2 = run_kg_checkpointed(str(ingest), out, fragments_per_shard=1)
    assert r2["complete"]
    # the grown corpus adds DEF symbols -> old shards must relink too
    assert r2["shards_run"] == 3 and r2["shards_skipped"] == 0

    # idempotent third run: nothing changed, everything skips
    r3 = run_kg_checkpointed(str(ingest), out, fragments_per_shard=1)
    assert r3["shards_run"] == 0 and r3["shards_skipped"] == 3

    # ground truth: from-scratch over the full corpus
    for i in range(0, 120, 40):
        pq.write_table(table.slice(i, 40),
                       str(scratch / f"part-{i:05d}.parquet"))
    out2 = str(tmp_path_factory.mktemp("scratch_out"))
    run_kg_checkpointed(str(scratch), out2, fragments_per_shard=1)

    import os

    import pandas as pd

    a = pd.read_parquet(os.path.join(out, "triples", "data"))
    b = pd.read_parquet(os.path.join(out2, "triples", "data"))
    cols = ["subj", "pred", "obj"]
    a = a.sort_values(cols).reset_index(drop=True)
    b = b.sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a[cols], b[cols])
    assert (a["n_mentions"].to_numpy() == b["n_mentions"].to_numpy()).all()


def test_shard_triples_sorted(tmp_path_factory):
    """Each shard's triples, read in the file-name order the final merge
    lists them, are sorted by (subj, pred, obj): the per-shard canonical
    output comes from the same range-partitioned reduce as ``run_kg``."""
    import pyarrow.parquet as pq

    from recon_ray.corpusgen import generate_corpus
    from recon_ray.state.runner import run_kg_checkpointed

    table = generate_corpus(200, seed=3)
    files = tmp_path_factory.mktemp("sorted_files")
    bounds = [table.num_rows * i // 16 for i in range(17)]
    for i in range(16):
        pq.write_table(table.slice(bounds[i], bounds[i + 1] - bounds[i]),
                       str(files / f"part-{i:05d}.parquet"))
    out = str(tmp_path_factory.mktemp("sorted_out"))
    r = run_kg_checkpointed(str(files), out, fragments_per_shard=8)
    assert r["complete"] and r["shards_run"] == 2

    for sid in range(2):
        d = os.path.join(out, "shards", f"shard={sid:04d}", "triples")
        parts = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
        shard = pd.concat(
            [pd.read_parquet(os.path.join(d, f)) for f in parts],
            ignore_index=True,
        )
        assert len(shard) > 0
        keys = list(zip(shard["subj"], shard["pred"], shard["obj"]))
        assert keys == sorted(keys)


def test_shard_tail_matches_library_definitions(tmp_path_factory):
    """The per-block tail (stats tasks + one insights merge task per
    shard) writes what the Dataset definitions give for the shard's
    ``run_kg`` docs under the run's dictionary: coverage equal to
    ``entity_coverage(explode_mentions(docs))`` in rows and order, label
    counts equal to ``label_counts``, and manifest counts and rollup
    equal to ``docs.count()``, the exploded row count and the
    ``combine_u64`` of the sha heads."""
    import pyarrow.parquet as pq

    from recon_ray.corpusgen import generate_corpus
    from recon_ray.functions.stats import entity_coverage, label_counts
    from recon_ray.hashing import combine_u64
    from recon_ray.pipelines.kg import run_kg
    from recon_ray.stages.explode import explode_mentions
    from recon_ray.stages.link import build_symbol_broadcast
    from recon_ray.state.runner import run_kg_checkpointed

    table = generate_corpus(160, seed=8)
    files = tmp_path_factory.mktemp("tail_files")
    frags = []
    for i in range(4):
        frags.append(str(files / f"part-{i:05d}.parquet"))
        pq.write_table(table.slice(40 * i, 40), frags[-1])
    out = str(tmp_path_factory.mktemp("tail_out"))
    r = run_kg_checkpointed(str(files), out, fragments_per_shard=2)
    assert r["complete"] and r["shards_run"] == 2

    symbols_ref, _ = build_symbol_broadcast(
        pq.read_table(os.path.join(out, "symbols", "data", "symbols.parquet")))
    for sid in range(2):
        shard_dir = os.path.join(out, "shards", f"shard={sid:04d}")
        docs = run_kg(frags[2 * sid:2 * sid + 2], symbols_ref=symbols_ref)["docs"]
        mentions = explode_mentions(docs).materialize()

        got = pd.read_parquet(os.path.join(shard_dir, "insights", "coverage"))
        want = entity_coverage(mentions).to_pandas()
        assert len(want) > 0
        pd.testing.assert_frame_equal(got, want)
        got = pd.read_parquet(
            os.path.join(shard_dir, "insights", "label_counts.parquet"))
        assert got.equals(label_counts(mentions))

        with open(os.path.join(shard_dir, "manifest.json")) as f:
            m = json.load(f)
        assert m["n_files"] == docs.count() == 80
        assert m["n_mentions"] == mentions.count()
        rollup = combine_u64(
            int(h[:16], 16) for h in docs.to_pandas()["content_sha256"])
        assert m["content_hash_rollup"] == f"{rollup:016x}"


@pytest.mark.parametrize("block", ["arrow", "pandas"])
def test_doc_block_stats_of_an_empty_block(block):
    """An empty doc block (a 0-row fragment's detect slice: every column,
    no rows) gives zero counts and 0-row partials of the full schema,
    also after a round trip through a pandas frame under the docs
    schema."""
    import pyarrow as pa
    import ray

    from recon_ray.corpusgen import generate_corpus
    from recon_ray.pipelines.kg import _detect_kernel
    from recon_ray.state.runner import _doc_block_stats_task

    empty = _detect_kernel(generate_corpus(1, seed=7), 0, 0)
    if block == "pandas":
        empty = pa.Table.from_pandas(
            empty.to_pandas(), schema=empty.schema, preserve_index=False)
    counts, cov, labels = ray.get(_doc_block_stats_task.remote(empty))
    assert counts == (0, 0, 0)
    assert cov.num_rows == labels.num_rows == 0
    assert cov.schema == pa.schema(
        [("text", pa.string()), ("label", pa.string()), ("partial", pa.int64())])
    assert labels.schema == pa.schema(
        [("label", pa.string()), ("partial", pa.int64())])


def test_empty_fragment_shard(tmp_path_factory):
    """A shard whose only fragment has no rows commits zero counts and
    empty insights with their columns, and the merge still runs."""
    import pyarrow.parquet as pq

    from recon_ray.corpusgen import generate_corpus
    from recon_ray.state.runner import run_kg_checkpointed

    table = generate_corpus(40, seed=1)
    files = tmp_path_factory.mktemp("empty_frag_files")
    pq.write_table(table, str(files / "part-00000.parquet"))
    pq.write_table(table.slice(0, 0), str(files / "part-00001.parquet"))
    out = str(tmp_path_factory.mktemp("empty_frag_out"))
    r = run_kg_checkpointed(str(files), out, fragments_per_shard=1)
    assert r["complete"] and r["shards_run"] == 2
    empty = r["manifests"][1]
    assert (empty.n_files, empty.n_mentions, empty.n_canonical) == (0, 0, 0)
    assert empty.content_hash_rollup == f"{0:016x}"
    insights = os.path.join(out, "shards", "shard=0001", "insights")
    cov = pd.read_parquet(os.path.join(insights, "coverage"))
    assert list(cov.columns) == ["text", "label", "count"] and len(cov) == 0
    labels = pd.read_parquet(os.path.join(insights, "label_counts.parquet"))
    assert list(labels.columns) == ["label", "count"] and len(labels) == 0
    final = pd.read_parquet(os.path.join(out, "triples", "data"))
    assert len(final) == r["manifests"][0].n_canonical > 0


def test_symbols_digest_ignores_order_and_duplicates():
    """The shard args hash folds in ``symbols_digest`` of the deduped,
    sorted symbol table: reordered or repeated DEF rows leave it as it
    is, one new DEF changes it."""
    import pyarrow as pa

    from recon_ray.stages.link import build_symbol_broadcast
    from recon_ray.state.runner import symbols_digest

    def digest(rows: pa.Table) -> str:
        return symbols_digest(build_symbol_broadcast(rows)[1])

    rows = pa.table({"repo": ["r1", "r1", "r2", "r2"],
                     "module": ["a", "b", "a", "a.b"],
                     "name": ["f", "g", "f", "h"]})
    base = digest(rows)
    assert digest(rows.take([3, 1, 0, 2])) == base
    assert digest(pa.concat_tables([rows.slice(2), rows, rows.slice(0, 1)])) == base
    grown = pa.concat_tables(
        [rows, pa.table({"repo": ["r2"], "module": ["b"], "name": ["h"]})])
    assert digest(grown) != base


def test_runner_starts_no_ray_data_execution(tmp_path_factory, monkeypatch):
    """The symbol scan, the shard writes and the final merge write run as
    plain tasks: an interrupted, a resumed and a no-op run each start no
    Ray Data execution."""
    import pyarrow.parquet as pq
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    from recon_ray.corpusgen import generate_corpus
    from recon_ray.state.runner import run_kg_checkpointed

    table = generate_corpus(200, seed=5)
    files = tmp_path_factory.mktemp("noexec_files")
    for i in range(4):
        pq.write_table(table.slice(50 * i, 50), str(files / f"part-{i:05d}.parquet"))
    out = str(tmp_path_factory.mktemp("noexec_out"))

    calls = []
    real = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    counts = []
    for kw, want in (({"max_shards": 1}, (1, 0, False)), ({}, (1, 1, True)),
                     ({}, (0, 2, True))):
        r = run_kg_checkpointed(str(files), out, fragments_per_shard=2, **kw)
        assert (r["shards_run"], r["shards_skipped"], r["complete"]) == want
        counts.append(len(calls))
        calls.clear()
    assert counts == [0, 0, 0]


def test_write_task_counts_match_the_files(tmp_path_factory):
    """The counts the write tasks return are the files' counts: a shard
    manifest's ``n_canonical``/``n_triples`` are its triples' rows and
    ``n_mentions`` sum, the final manifest's ``n_canonical`` is the final
    row count, and the stored DEF rows give the symbol table the Ray Data
    scan gives."""
    import pyarrow.parquet as pq

    from recon_ray.corpusgen import generate_corpus
    from recon_ray.pipelines.kg import list_fragments, read_files, scan_symbols
    from recon_ray.stages.link import build_symbol_broadcast
    from recon_ray.state import lineage as lin
    from recon_ray.state.runner import run_kg_checkpointed

    table = generate_corpus(160, seed=11)
    files = tmp_path_factory.mktemp("counts_files")
    for i in range(4):
        pq.write_table(table.slice(40 * i, 40), str(files / f"part-{i:05d}.parquet"))
    out = str(tmp_path_factory.mktemp("counts_out"))
    r = run_kg_checkpointed(str(files), out, fragments_per_shard=2)
    assert r["complete"] and r["shards_run"] == 2

    for m in r["manifests"]:
        triples = pd.read_parquet(
            os.path.join(out, "shards", f"shard={m.shard_id:04d}", "triples"))
        assert m.n_canonical == len(triples) > 0
        assert m.n_triples == triples["n_mentions"].sum()
    final = pd.read_parquet(r["final_dir"])
    assert lin.load_manifest(os.path.join(out, "triples")).n_canonical == len(final) > 0

    stored = pq.read_table(os.path.join(out, "symbols", "data", "symbols.parquet"))
    scanned = scan_symbols(read_files(list_fragments(str(files))))
    assert build_symbol_broadcast(stored)[1].equals(build_symbol_broadcast(scanned)[1])
