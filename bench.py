"""Benchmark harness.

Headline: the flagship KG pipeline (read → detect → correct → link →
canonicalize → sorted write) over the deterministic synthetic code corpus
sized for $GRAFT_SF_DIR (default /root/testdata/sf0.1 → 96,000 files,
~700 MB source text), at ``num_cpus = $RAY_GRAFT_CPUS`` (default: the
CPUs this process may run on, ``os.sched_getaffinity``).

Prints ONE JSON line:
  {"metric": "kg_pipeline_sec", "value": <headline sec>, "unit": "sec",
   "queries": {...per-query sec...}, "sf": ..., "num_cpus": N,
   "triples_per_sec": ..., "files_per_sec": ...}

``--scaling``: runs the headline twice in FRESH processes (num_cpus=8 and
32) on the same input and prints both throughputs + scaling efficiency
(the in-sandbox proxy for the N→4N-node criterion in BASELINE.json).

An untimed warmup execution spawns worker processes / actor pools and
warms the page cache first, so the timed run measures compute + shuffle.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS",
                              len(os.sched_getaffinity(0))))


def pa_sum(col) -> int:
    import pyarrow.compute as pc

    return pc.sum(col).as_py() or 0


def run_bench() -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        log_to_driver=False,  # keep stdout to the single JSON line
    )
    import logging

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from recon_ray import fixtures
    from recon_ray.pipelines.kg import run_kg

    fixtures.ensure_fixtures(SF_DIR, files_only=True)
    corpus = fixtures.files_dir(SF_DIR)
    import glob
    import shutil

    n_fragments = sum(
        1 for _ in glob.glob(os.path.join(corpus, "*.parquet"))
    )
    n_files = fixtures.N_FILES[fixtures.sf_name(SF_DIR)]

    # ---- warmup (untimed): spawn workers/pools, warm page cache ----------
    warm_frags = sorted(glob.glob(os.path.join(corpus, "*.parquet")))[:2]
    run_kg(warm_frags)["canonical"].count()

    queries: dict[str, float] = {}

    # ---- headline: full KG pipeline, sorted parquet materialize ----------
    # best-of-2 timed runs: co-tenant noise on this VM spans 2.5× between
    # identical runs (see BASELINE.md), so a single shot is not a
    # measurement; both raw times are reported alongside the best
    out_dir = "/tmp/recon_ray_bench/triples"
    headline_runs = []
    run_cpu = []  # per-run /proc/stat busy/steal% over EXACTLY the timed span
    for attempt in range(3):
        if attempt == 2 and min(c["steal_pct"] for c in run_cpu) < 5.0:
            break  # third run only when BOTH timed runs were steal-hit
        shutil.rmtree(out_dir, ignore_errors=True)
        s0 = _cpu_stat()
        t0 = time.time()
        res = run_kg(corpus)
        res["canonical"].write_parquet(out_dir)
        headline_runs.append(round(time.time() - t0, 3))
        run_cpu.append(_stat_delta_pct(s0, _cpu_stat()))
    headline = min(headline_runs)
    queries["kg_pipeline"] = headline

    import pyarrow.parquet as pq

    n_canonical = sum(
        pq.ParquetFile(os.path.join(out_dir, f)).metadata.num_rows
        for f in os.listdir(out_dir)
        if f.endswith(".parquet")
    )
    # raw (pre-dedup) triples throughput is the "triples/sec" metric. Each
    # canonical row carries n_mentions = number of raw triples it absorbed,
    # so the raw count is a single-column read of the OUTPUT parquet — no
    # re-execution of the link stage.
    n_raw = 0
    for f in os.listdir(out_dir):
        if f.endswith(".parquet"):
            t = pq.read_table(os.path.join(out_dir, f), columns=["n_mentions"])
            n_raw += int(pa_sum(t.column("n_mentions")))

    if os.environ.get("RAY_GRAFT_HEADLINE_ONLY"):
        # --scaling phases: headline only, so each level's measurement and
        # its adjacent machine control sample the SAME co-tenant load
        # window (the secondary suite adds minutes between them otherwise)
        ray.shutdown()
        return {
            "metric": "kg_pipeline_sec",
            "value": headline,
            "unit": "sec",
            "queries": queries,
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
            "headline_runs": headline_runs,
            "headline_run_cpu": run_cpu,
            "n_files": n_files,
            "n_fragments": n_fragments,
            "n_raw_triples": int(n_raw),
            "n_canonical_triples": int(n_canonical),
            "triples_per_sec": round(n_raw / headline, 1),
            "files_per_sec": round(n_files / headline, 1),
        }

    # ---- secondary pipelines over driver testdata -------------------------
    from recon_ray.pipelines.queries import (
        QUERIES,
        doc_token_counts,
        knn_exact_top10,
        q1_pricing_summary,
    )

    t0 = time.time()
    q1_pricing_summary(SF_DIR)
    queries["q1_pricing_summary"] = round(time.time() - t0, 3)

    t0 = time.time()
    doc_token_counts(SF_DIR)
    queries["doc_token_counts"] = round(time.time() - t0, 3)

    t0 = time.time()
    knn_exact_top10(SF_DIR)
    queries["knn_exact_top10"] = round(time.time() - t0, 3)

    from recon_ray.functions.dedup import dup_groups, minhash_lsh_dedup
    import ray.data as rd

    t0 = time.time()
    minhash_lsh_dedup(
        rd.read_parquet(f"{SF_DIR}/documents.parquet").repartition(16),
        threshold=0.7,
        concurrency=max(2, NUM_CPUS // 4),
    )
    queries["doc_minhash_dedup"] = round(time.time() - t0, 3)

    t0 = time.time()
    dup_groups(rd.read_parquet(f"{SF_DIR}/documents.parquet").repartition(16))
    queries["doc_exact_dedup"] = round(time.time() - t0, 3)

    from recon_ray.functions.dedup import cross_doc_ngram_dups

    t0 = time.time()
    cross_doc_ngram_dups(
        rd.read_parquet(f"{SF_DIR}/documents.parquet").repartition(16), n=50
    )
    queries["doc_common_ngram_pairs"] = round(time.time() - t0, 3)

    from recon_ray.pipelines.queries import doc_repetition, emb_kmeans_clusters

    t0 = time.time()
    doc_repetition(SF_DIR)
    queries["doc_repetition"] = round(time.time() - t0, 3)

    t0 = time.time()
    emb_kmeans_clusters(SF_DIR)
    queries["emb_kmeans"] = round(time.time() - t0, 3)

    from recon_ray.pipelines.queries import doc_pack_sequences

    t0 = time.time()
    doc_pack_sequences(SF_DIR)
    queries["doc_pack_sequences"] = round(time.time() - t0, 3)

    from recon_ray.pipelines.queries import doc_shuffle, q_events_props_scrub

    t0 = time.time()
    doc_shuffle(SF_DIR)
    queries["doc_shuffle"] = round(time.time() - t0, 3)

    t0 = time.time()
    q_events_props_scrub(SF_DIR).count()
    queries["events_pii_scrub"] = round(time.time() - t0, 3)

    from recon_ray.pipelines.queries import doc_line_dedup

    t0 = time.time()
    doc_line_dedup(SF_DIR)
    queries["doc_line_dedup"] = round(time.time() - t0, 3)

    from recon_ray.pipelines.curate import curate

    t0 = time.time()
    curate(
        rd.read_parquet(f"{SF_DIR}/documents.parquet").repartition(16)
    )["packed"].count()
    queries["doc_curation"] = round(time.time() - t0, 3)

    from recon_ray.functions.text import chunk_documents

    t0 = time.time()
    chunk_documents(
        rd.read_parquet(f"{SF_DIR}/documents.parquet",
                        columns=["doc_id", "text"]).repartition(16),
        size=256, stride=192,
    ).count()
    queries["doc_token_chunks"] = round(time.time() - t0, 3)

    # graph analytics over the headline run's OWN canonical triples
    import pyarrow.compute as pc_

    from recon_ray.functions.graph import triangle_stats

    t0 = time.time()
    calls = rd.read_parquet(out_dir).map_batches(
        lambda t: t.filter(pc_.equal(t.column("pred"), "calls")).select(
            ["subj", "obj"]
        ),
        batch_format="pyarrow",
    )
    tri = triangle_stats(calls)
    queries["kg_call_triangles"] = round(time.time() - t0, 3)
    assert int(tri["n_triangles"][0]) >= 0  # consume → executes

    # zone-map layout engine: Z-order-clustered write + pruned box scan
    import tempfile as _tf

    import pandas as _pd

    from recon_ray.sources.zonemap import (prune_files, read_zonemapped,
                                           write_zonemapped)

    t0 = time.time()
    zm_src = rd.read_parquet(f"{SF_DIR}/events.parquet").map_batches(
        lambda b: _pd.DataFrame(
            {"event_id": b["event_id"], "user_id": b["user_id"],
             "day": b["ts"].to_numpy().astype("datetime64[D]")
                          .astype("int64"),
             "value": b["value"]}),
        batch_format="pandas",
    )
    zm_dir = _tf.mkdtemp(prefix="bench_zm_")
    write_zonemapped(zm_src, zm_dir, stat_cols=["user_id", "day"],
                     zorder_cols=("user_id", "day"), rows_per_file=4096)
    box = {"user_id": (3, 8), "day": (19728, 19737)}
    kept, total = prune_files(zm_dir, box)
    n_hits = read_zonemapped(zm_dir, box).count()
    queries["zonemap_write_scan"] = round(time.time() - t0, 3)
    assert n_hits >= 0 and len(kept) <= total

    # SQL front-end: the TPC-H mini-suite's heaviest members compiled
    # and executed by the engine (identical strings to the DuckDB gate)
    for q in ("q1", "q3"):
        t0 = time.time()
        QUERIES[f"q_sql_frontend_tpch_{q}"](SF_DIR)
        queries[f"sql_tpch_{q}"] = round(time.time() - t0, 3)

    # raw big×big exchange: lineitem ⋈ orders through shuffle_join
    # (measures the engine's big-join floor now that Q3's adaptive plan
    # avoids the shuffle entirely)
    from recon_ray.functions.relational import shuffle_join

    t0 = time.time()
    shuffle_join(
        rd.read_parquet(f"{SF_DIR}/lineitem.parquet",
                        columns=["l_orderkey", "l_quantity"]),
        rd.read_parquet(f"{SF_DIR}/orders.parquet",
                        columns=["o_orderkey", "o_orderdate"]),
        on="l_orderkey", right_on="o_orderkey").count()
    queries["shuffle_join_big2"] = round(time.time() - t0, 3)

    # grouped_agg through the hash exchange: 147k distinct l_orderkey
    # groups merge in ~0.3 s vs ~70 s through Ray's sort-based Aggregate
    # on the same partials (measured r5; recorded in BASELINE.md and
    # docs/SCALE.md)
    from recon_ray.functions.relational import grouped_agg

    li_ga = rd.read_parquet(
        f"{SF_DIR}/lineitem.parquet",
        columns=["l_orderkey", "l_quantity", "l_extendedprice"])
    t0 = time.time()
    grouped_agg(li_ga, "l_orderkey",
                {"l_quantity": ["sum", "count"],
                 "l_extendedprice": ["sum", "min", "max"]})
    queries["grouped_agg_orderkey"] = round(time.time() - t0, 3)

    # streaming window replay: events in event-time order through the
    # watermark actors (tumbling 6h × event_type)
    from recon_ray.stages.streaming import stream_tumbling_agg

    t0 = time.time()
    stream_tumbling_agg(
        rd.read_parquet(f"{SF_DIR}/events.parquet",
                        columns=["ts", "event_type", "value"]),
        window="6h", lateness="0s", ordered=True,
    )["result"].count()
    queries["events_stream_tumbling"] = round(time.time() - t0, 3)

    # the PRODUCTION streaming path: ordered=False — no sort, no
    # source materialization, blocks stream off the execution with
    # backpressure; lateness covers the table's disorder (it is
    # ts-sorted, so 6h is ample) and zero late drops is asserted
    t0 = time.time()
    out_u = stream_tumbling_agg(
        rd.read_parquet(f"{SF_DIR}/events.parquet",
                        columns=["ts", "event_type", "value"]),
        window="6h", lateness="6h", ordered=False,
    )
    out_u["result"].count()
    queries["events_stream_tumbling_unordered"] = round(
        time.time() - t0, 3)
    assert out_u["n_late_dropped"] == 0, out_u["n_late_dropped"]

    # high-cardinality key (user_id ≈ row cardinality): the columnar
    # state fold keeps per-event cost within ~2× of the
    # event_type-keyed entry — the VERDICT r4 regression canary for
    # the vectorized state merge
    t0 = time.time()
    out_k = stream_tumbling_agg(
        rd.read_parquet(f"{SF_DIR}/events.parquet",
                        columns=["ts", "user_id", "value"]),
        key_cols=("user_id",), window="6h", lateness="6h",
        ordered=False,
    )
    out_k["result"].count()
    queries["events_stream_tumbling_userkey"] = round(
        time.time() - t0, 3)
    assert out_k["n_late_dropped"] == 0, out_k["n_late_dropped"]

    from recon_ray.pipelines.queries import q_events_stream_attribution

    t0 = time.time()
    q_events_stream_attribution(SF_DIR)
    queries["events_stream_attribution"] = round(time.time() - t0, 3)

    # incremental dedup indexes: ingest the documents/embeddings tables
    # as TWO shards (doc_id parity) into a fresh index — the
    # history-independence claim is shard-2 cost ≈ shard-1 cost (each
    # ingest scales with shard × admissible-index-slice, not history)
    from recon_ray.functions.embedding_index import (
        embedding_index_ingest, embedding_index_init)
    from recon_ray.functions.minhash_index import (minhash_index_ingest,
                                                   minhash_index_init)

    docs = rd.read_parquet(f"{SF_DIR}/documents.parquet",
                           columns=["doc_id", "text"])
    even = docs.map_batches(
        lambda t: t.filter(pc_.equal(pc_.bit_wise_and(
            t.column("doc_id"), 1), 0)),
        batch_format="pyarrow").materialize()
    odd = docs.map_batches(
        lambda t: t.filter(pc_.equal(pc_.bit_wise_and(
            t.column("doc_id"), 1), 1)),
        batch_format="pyarrow").materialize()
    mh_dir = _tf.mkdtemp(prefix="bench_mhidx_")
    minhash_index_init(mh_dir, threshold=0.7)
    t0 = time.time()
    minhash_index_ingest(mh_dir, even, "shard-even")
    queries["minhash_ingest_shard1"] = round(time.time() - t0, 3)
    t0 = time.time()
    minhash_index_ingest(mh_dir, odd, "shard-odd")
    queries["minhash_ingest_shard2"] = round(time.time() - t0, 3)

    embs = rd.read_parquet(f"{SF_DIR}/embeddings.parquet",
                           columns=["vec_id", "embedding"])
    e_even = embs.map_batches(
        lambda t: t.filter(pc_.equal(pc_.bit_wise_and(
            t.column("vec_id"), 1), 0)),
        batch_format="pyarrow").materialize()
    e_odd = embs.map_batches(
        lambda t: t.filter(pc_.equal(pc_.bit_wise_and(
            t.column("vec_id"), 1), 1)),
        batch_format="pyarrow").materialize()
    emb_dir = _tf.mkdtemp(prefix="bench_embidx_")
    embedding_index_init(emb_dir, threshold=0.95)
    t0 = time.time()
    embedding_index_ingest(emb_dir, e_even, "shard-even")
    queries["emb_ingest_shard1"] = round(time.time() - t0, 3)
    t0 = time.time()
    embedding_index_ingest(emb_dir, e_odd, "shard-odd")
    queries["emb_ingest_shard2"] = round(time.time() - t0, 3)

    result = {
        "metric": "kg_pipeline_sec",
        "value": headline,
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "headline_runs": headline_runs,
        "headline_run_cpu": run_cpu,
        "n_files": n_files,
        "n_fragments": n_fragments,
        "n_raw_triples": int(n_raw),
        "n_canonical_triples": int(n_canonical),
        "triples_per_sec": round(n_raw / headline, 1),
        "files_per_sec": round(n_files / headline, 1),
    }
    ray.shutdown()
    return result


def _machine_control(ncpu: int) -> float:
    """Hardware-ceiling control: 64 pure-CPU Ray tasks (no data, no
    shuffle) at this num_cpus. On this sandbox VM, 8→32 vCPUs yields only
    ~2.9× even for pure arithmetic (turbo/steal effects), so the raw
    pipeline efficiency conflates engine scalability with the box's own
    ceiling; the control lets us report both raw and machine-normalized
    numbers. Runs in a fresh subprocess like the real measurements."""
    code = (
        "import ray,time;"
        f"ray.init(address='local',num_cpus={ncpu},include_dashboard=False,"
        "logging_level='ERROR',log_to_driver=False);"
        "burn=ray.remote(lambda k:sum(i*i for i in range(20_000_000)));"
        f"ray.get([burn.remote(i) for i in range({ncpu})]);"
        "t0=time.time();ray.get([burn.remote(i) for i in range(64)]);"
        "print(time.time()-t0);ray.shutdown()"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    return float(out.strip().splitlines()[-1])


def _cpu_stat() -> list:
    """First line of /proc/stat: aggregate jiffies
    (user nice system idle iowait irq softirq steal ...)."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def _stat_delta_pct(a: list, b: list) -> dict:
    """%-of-capacity spent busy / stolen / iowait between two samples.
    Steal is the hypervisor giving our vCPUs to a co-tenant — the direct
    measurement of the load spikes that the bracketing controls can miss
    when they hit mid-phase."""
    d = [y - x for x, y in zip(a, b)]
    total = sum(d) or 1
    return {
        "busy_pct": round(100 * (d[0] + d[1] + d[2] + d[5] + d[6]) / total, 1),
        "steal_pct": round(100 * d[7] / total, 1),
        "iowait_pct": round(100 * d[4] / total, 1),
    }


def run_scaling() -> None:
    def one(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            RAY_GRAFT_HEADLINE_ONLY="1",  # keep phases short: the level's
            # control must sample the same co-tenant load window
        )
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if proc.returncode != 0:
            # surface the child's tail — a bare CalledProcessError hides
            # the actual Ray/python traceback
            sys.stderr.write(proc.stderr[-2000:])
            raise RuntimeError(
                f"bench child (num_cpus={ncpu}) exited "
                f"{proc.returncode}; stderr tail above"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    # Per level: control → headline → control, all back-to-back. The box's
    # co-tenant load oscillates on a few-minute period, so a control
    # measured minutes after its headline samples a DIFFERENT machine (a
    # run measured machine_eff 1.05 that way — nonsense). best-of-2
    # controls bracket the headline in time; headline itself is already
    # best-of-2 in-process.
    lo_cpus, hi_cpus = 8, 32
    per_level = {}
    stats = {}
    for ncpu in (lo_cpus, hi_cpus):
        c_before = _machine_control(ncpu)
        s0 = _cpu_stat()
        r = one(ncpu)
        s1 = _cpu_stat()
        c_after = _machine_control(ncpu)
        stats[ncpu] = _stat_delta_pct(s0, s1)
        per_level[ncpu] = (r, min(c_before, c_after), [c_before, c_after])
    lo, ctrl_lo, ctrls_lo = per_level[lo_cpus]
    hi, ctrl_hi, ctrls_hi = per_level[hi_cpus]
    tput_lo = lo["triples_per_sec"]
    tput_hi = hi["triples_per_sec"]
    eff = (tput_hi / tput_lo) / (hi_cpus / lo_cpus)
    machine_eff = (ctrl_lo / ctrl_hi) / (hi_cpus / lo_cpus)
    print(
        json.dumps(
            {
                "metric": "scaling_efficiency",
                "sec_8": lo["value"],
                "sec_32": hi["value"],
                "triples_per_sec_8": tput_lo,
                "triples_per_sec_32": tput_hi,
                "cpu_ratio": hi_cpus / lo_cpus,
                "scaling_efficiency": round(eff, 3),
                "machine_control_sec_8": round(ctrl_lo, 2),
                "machine_control_sec_32": round(ctrl_hi, 2),
                "machine_controls_8": [round(c, 2) for c in ctrls_lo],
                "machine_controls_32": [round(c, 2) for c in ctrls_hi],
                "machine_parallel_efficiency": round(machine_eff, 3),
                "phase_cpu_8": stats[lo_cpus],
                "phase_cpu_32": stats[hi_cpus],
                "headline_runs_8": lo.get("headline_runs"),
                "headline_runs_32": hi.get("headline_runs"),
                "headline_run_cpu_8": lo.get("headline_run_cpu"),
                "headline_run_cpu_32": hi.get("headline_run_cpu"),
                "pipeline_efficiency_vs_machine": round(
                    min(eff / machine_eff, 1.0), 3
                ),
                "sf": SF_DIR,
            }
        )
    )


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        run_scaling()
    else:
        print(json.dumps(run_bench()))
