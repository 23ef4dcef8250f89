"""The benchmark's own checks, at the benchmark's 1k-file scale.

    python -m pytest perfbench/ -q

- the pipeline's canonical triples equal ``reference_extractor``'s
  (P = R = 1, every column) and the pinned digest describes them;
- the merged output of an interrupted-then-resumed checkpointed run
  equals ``run_kg``'s output on the same corpus;
- a printed record carries exactly the metric names and units listed in
  ``BENCHMARK.json``, for both the untraced and the traced run;
- without the program next to it the benchmark fails without a record.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, ROOT]

import host  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import last_operator_stats  # noqa: E402

SEED = 0


def _pinned() -> dict:
    """kg_batch's pinned corpora (KG_FILES files each), by corpus number."""
    return oracle.load_pinned()["kg"][str(workloads.KG_FILES)]


@pytest.fixture(scope="module")
def ray_cluster(tmp_path_factory):
    import ray

    from run import ray_start

    os.environ["PYTHONPATH"] = os.pathsep.join([ROOT, HERE])
    ray_start(host.host_cpus(), str(tmp_path_factory.mktemp("ray")))
    yield
    ray.shutdown()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    from recon_ray import corpusgen

    cseed = _pinned()[str(SEED)]["corpus_seed"]
    table = corpusgen.generate_corpus(workloads.KG_FILES, seed=cseed)
    path = corpusgen.write_corpus(workloads.KG_FILES, str(tmp_path_factory.mktemp("corpus")),
                                  seed=cseed, files_per_fragment=workloads.FILES_PER_FRAGMENT)
    return table, path


def _rows(table: pa.Table) -> set:
    return set(zip(*(table.column(c).to_pylist() for c in oracle.CANON_COLS)))


def test_pipeline_equals_reference(ray_cluster, corpus, tmp_path):
    from recon_ray import reference_extractor as rx
    from recon_ray.pipelines.kg import run_kg

    table, path = corpus
    run_kg(path, symbol_source="mentions")["canonical"].write_parquet(str(tmp_path / "t"))
    got = workloads._parquet_table(str(tmp_path / "t"))
    ref = pa.Table.from_pylist(rx.extract_corpus(table.to_pylist())["canonical"])
    assert _rows(got) == _rows(ref)  # precision = recall = 1
    assert got.num_rows == ref.num_rows
    pinned = _pinned()[str(SEED)]
    assert pinned == {"corpus_seed": workloads.corpus_seed(SEED, workloads.KG_FILES),
                      **oracle.reference_record(table)}
    assert oracle.check_canonical(got, pinned) == pinned["n_raw"]


def test_resume_merge_equals_batch(ray_cluster, corpus, tmp_path):
    from recon_ray.pipelines.kg import run_kg
    from recon_ray.state.runner import run_kg_checkpointed

    _, path = corpus
    run_kg(path, symbol_source="mentions")["canonical"].write_parquet(str(tmp_path / "batch"))
    out = str(tmp_path / "ckpt")
    first = run_kg_checkpointed(path, out, fragments_per_shard=workloads.SHARD_FRAGMENTS,
                                max_shards=workloads.INTERRUPT_AFTER)
    assert not first["complete"]
    second = run_kg_checkpointed(path, out, fragments_per_shard=workloads.SHARD_FRAGMENTS)
    assert second["complete"] and second["shards_skipped"] == workloads.INTERRUPT_AFTER
    batch = workloads._parquet_table(str(tmp_path / "batch"))
    merged = workloads._parquet_table(second["final_dir"])
    assert oracle.canonical_digest(merged) == oracle.canonical_digest(batch)


def test_corpus_seed_holds_volume():
    from recon_ray import corpusgen

    sizes = []
    for seed in range(3):
        cseed = _pinned()[str(seed)]["corpus_seed"]
        content = corpusgen.generate_corpus(workloads.KG_FILES, seed=cseed).column("content")
        sizes.append(sum(len(s) for s in content.to_pylist()))
    assert max(sizes) / min(sizes) < 1.1


def test_seed_selects_pinned_corpus():
    from recon_ray import corpusgen

    pinned = _pinned()

    def gen(c):
        return corpusgen.generate_corpus(workloads.KG_FILES, seed=c)

    assert oracle.kg_expected(len(pinned) + 3, workloads.KG_FILES, gen) == pinned["3"]
    with pytest.raises(oracle.InputDrift):  # the generator no longer makes the pinned input
        oracle.kg_expected(3, workloads.KG_FILES, lambda c: gen(c + 1))


def test_triangle_oracle_small_graph():
    edges = pa.table({"subj": ["a", "b", "c", "a", "d", "d"],
                      "obj": ["b", "c", "a", "d", "c", "d"]})
    # triangles abc, acd; edges ab bc ca ad dc (the d-d loop is dropped)
    assert oracle.triangle_expected(edges) == {
        "n_nodes": 4, "n_edges": 5, "n_wedges": 8, "n_triangles": 2}


def test_stats_parser():
    class Fake:
        def stats(self):
            return ("Operator 1 ReadParquet: 8 tasks executed\n"
                    "* Remote wall time: 1ms min, 9ms max, 3ms mean, 24ms total\n"
                    "* Remote cpu time: 1ms min, 8ms max, 2ms mean, 16ms total\n"
                    "Operator 2 MapBatches(detect_batch): 7 tasks executed\n"
                    "* Remote wall time: 138.22ms min, 1.2s max, 400ms mean, 2.64s total\n"
                    "* Remote cpu time: 133.32ms min, 482.69ms max, 344.08ms mean, 2.41s total\n")

    s = last_operator_stats(Fake())
    assert s["cpu_s"] == pytest.approx(2.41)
    assert s["task_max_over_mean"] == pytest.approx(3.0)


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_record_matches_benchmark_json(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = _bench(ROOT, "--workload", "kg_batch", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert p.returncode == 0, p.stderr[-3000:]
    record = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    got = {name: m["unit"] for name, m in record["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec[section]}


def test_fails_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".run", "out", "__pycache__"))
    p = _bench(str(tmp_path), "--workload", "kg_batch", "--seed", "1", "--seconds", "1")
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
