#!/usr/bin/env python3
"""recon_ray benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload kg_batch --seed 7 --seconds 10 --trace 0

Run from the repository root. ``--trace 0`` times the program's public
entry points and prints the end-to-end metrics; ``--trace 1`` calls each
layer's public functions in turn, writes the spans to
``perfbench/out/trace-<workload>-seed<seed>.json`` and prints the
per-layer metrics. Either way the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``, every
output is checked against the oracle (see oracle.py), and a host record
(CPUs, busy and steal shares, every iteration's values) is written to
``perfbench/out/record-<workload>-seed<seed>-trace<t>.json``.

Set-up (``ray.init`` plus an untimed warm-up execution that spawns the
workers) is repeated ``SETUP_CYCLES`` times and reported as its median;
the last cluster stays up for the measurement. The measurement repeats
whole iterations until ``--seconds`` have passed and at least the
workload's ``min_iterations`` ran, and reports medians over them. A
failed or unverified operation is counted, reported on stderr with its
traceback, and the next iteration runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: on a 4-vCPU VM a set-up cycle costs ~10 s (ray.init ~3.5 s, warm-up
#: ~6.5 s) plus ~1.6 s of shutdown; two keep a whole run near 40 s
SETUP_CYCLES = 2
OBJECT_STORE_BYTES = 512 * 1024 * 1024
#: no new iteration starts after this many seconds of the run; the
#: watchdog reports whatever is still running at DEADLINE_S as failed
SOFT_DEADLINE_S = 120.0
DEADLINE_S = 165.0

END_TO_END = {
    "wall_s": "s",
    "raw_triples_per_s": "1/s",
    "resume_s": "s",
    "setup_s": "s",
    "peak_mem_mb": "MiB",
    "ok_ops_ratio": "ratio",
}

_LAYER_BUSY = ["read", "detect", "spans", "symbols", "link", "canonicalize", "sink",
               "explode", "stats"]
PER_LAYER = {
    **{f"{layer}.busy_s": "s" for layer in _LAYER_BUSY},
    "read.rows_out": "count", "read.bytes_out": "bytes",
    "detect.cpu_s": "s", "detect.bytes_out": "bytes", "detect.task_max_over_mean": "ratio",
    "spans.mentions_in": "count", "spans.mentions_out": "count",
    "symbols.entries": "count",
    "link.cpu_s": "s", "link.triples_out": "count", "link.bytes_out": "bytes",
    "link.task_max_over_mean": "ratio",
    "canonicalize.rows_in": "count", "canonicalize.rows_out": "count",
    "sink.bytes_out": "bytes",
    "explode.rows_out": "count",
    "runner.symbols_s": "s", "runner.shard_s_median": "s", "runner.shard_s_max": "s",
    "runner.merge_s": "s", "runner.noop_rerun_s": "s", "runner.shards_run": "count",
    "runner.shards_skipped": "count", "runner.recompute_ratio": "ratio",
    "relational.grouped_agg_s": "s", "relational.shuffle_join_s": "s",
    "relational.rows_out": "count", "graph.triangles_s": "s",
    "trace.span_sum_over_wall": "ratio", "host.steal_pct": "%", "host.busy_pct": "%",
}
#: traced span name → the per-layer metric holding its summed duration
SPAN_METRIC = {
    **{layer: f"{layer}.busy_s" for layer in _LAYER_BUSY},
    "relational.grouped_agg": "relational.grouped_agg_s",
    "relational.shuffle_join": "relational.shuffle_join_s",
    "graph.triangles": "graph.triangles_s",
}


class Outcome:
    """Operation counts shared with the watchdog; prints the result once."""

    def __init__(self):
        self.lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.printed = False

    def add(self, attempted: int, failed: int) -> None:
        with self.lock:
            self.attempted += attempted
            self.failed += failed

    def emit(self, metrics: dict, extra_failed: int = 0) -> bool:
        with self.lock:
            if self.printed:
                return False
            self.printed = True
            attempted = self.attempted + extra_failed
            failed = self.failed + extra_failed
            if attempted == 0:  # nothing ran: the run itself is the failure
                attempted = failed = 1
            print(json.dumps({"correct": failed == 0, "attempted": attempted,
                              "failed": failed, "metrics": metrics}), flush=True)
            return True


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def ray_temp_dir(run_dir: str) -> tuple[str, bool]:
    """Ray's session directory holds AF_UNIX sockets, whose paths may not
    exceed 107 bytes; the session name and socket file add ~64. Use the
    run's directory in the checkout when that fits, else a private
    directory in the system temp dir (removed at exit). Returns (path,
    is_private)."""
    if len(run_dir.encode()) + 64 <= 107:
        return run_dir, False
    return tempfile.mkdtemp(prefix="pb-ray-"), True


def ray_start(num_cpus: int, temp_dir: str) -> None:
    import logging

    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, _temp_dir=temp_dir)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def zero_metrics(units: dict) -> dict:
    return {k: {"value": 0.0, "unit": u} for k, u in units.items()}


def _enough(t0: float, t_it: float, t_process: float, seconds: float, n: int,
            min_n: int) -> bool:
    """Stop after ``seconds`` and ``min_n`` iterations, or when another
    iteration as long as the last would pass the soft deadline."""
    now = time.perf_counter()
    if now - t_process + (now - t_it) > SOFT_DEADLINE_S:
        return True
    return now - t0 >= seconds and n >= min_n


def measure(wl, args, outcome, watch, t_process) -> tuple[list[dict], dict]:
    """Untraced iterations until ``--seconds`` have passed and at least
    ``min_iterations`` ran; plain medians over the verified ones. Each
    iteration's CPU steal share is kept in the record as context."""
    import host
    from workloads import Failed

    results, t0, n = [], time.perf_counter(), 0
    while True:
        n += 1
        watch.reset()
        t_it = time.perf_counter()
        cpu0 = host.cpu_times()
        try:
            r = wl.run()
            r["peak_mem_mb"] = watch.peak()
            r["steal_pct"] = host.cpu_shares(cpu0, host.cpu_times())["steal_pct"]
            results.append(r)
            outcome.add(wl.attempted_per_iteration, 0)
        except Failed as f:
            outcome.add(f.attempted, f.failed)
            traceback.print_exception(f.cause, file=sys.stderr)
        if _enough(t0, t_it, t_process, args.seconds, n, wl.min_iterations):
            break
    if not results:
        return results, {}
    return results, {
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "raw_triples_per_s": statistics.median(r["n_raw"] / r["wall_s"] for r in results),
        "resume_s": statistics.median(r["resume_s"] for r in results),
        "peak_mem_mb": statistics.median(r["peak_mem_mb"] for r in results),
    }


def measure_traced(wl, args, outcome, tracer, t_process) -> tuple[list[dict], dict]:
    """Traced iterations until ``--seconds`` have passed, at least one:
    per-layer figures carry no bound, and a traced kg_resume iteration
    (runner, layer chain, exchanges) costs about twice an untraced one."""
    from workloads import Failed

    results, t0, n = [], time.perf_counter(), 0
    while True:
        n += 1
        t_it = time.perf_counter()
        with tracer.span("iteration") as it:
            try:
                counts = wl.trace(tracer, it)
            except Failed as f:
                counts = None
                outcome.add(f.attempted, f.failed)
                traceback.print_exception(f.cause, file=sys.stderr)
        if counts is not None:
            outcome.add(wl.attempted_per_iteration, 0)
            busy = tracer.busy(it)
            for name, secs in busy.items():
                if name in SPAN_METRIC:
                    counts[SPAN_METRIC[name]] = secs
            counts["trace.span_sum_over_wall"] = sum(busy.values()) / (it["end"] - it["start"])
            results.append(counts)
        if _enough(t0, t_it, t_process, args.seconds, n, 1):
            break
    return results, {name: statistics.median(r.get(name, 0.0) for r in results)
                     for name in PER_LAYER if not name.startswith("host.")} if results else {}


def main(argv=None) -> int:
    t_process = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "recon_ray", "__init__.py")):
        print(f"perfbench: no recon_ray package under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    # Ray workers inherit the environment: they import recon_ray from here
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")

    import host
    import oracle
    from tracing import Tracer
    from workloads import WORKLOADS

    units = PER_LAYER if args.trace else END_TO_END
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    run_dir = os.path.join(HERE, ".run", str(os.getpid()))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    temp_dir, private_temp = ray_temp_dir(run_dir)
    outcome = Outcome()
    watch = host.ProcessWatch()
    done = threading.Event()

    def watchdog():
        if done.wait(DEADLINE_S - (time.perf_counter() - t_process)):
            return
        print(f"perfbench: run still busy after {DEADLINE_S:.0f} s; reporting it as failed",
              file=sys.stderr, flush=True)
        outcome.emit(zero_metrics(units), extra_failed=1)
        watch.remember_tree()
        host.stop_all(watch.seen, grace_s=2.0, wait_s=8.0)
        shutil.rmtree(run_dir, ignore_errors=True)
        if private_temp:
            shutil.rmtree(temp_dir, ignore_errors=True)
        os._exit(0)

    threading.Thread(target=watchdog, daemon=True).start()
    cpus = host.host_cpus()
    record = {"run_id": run_id, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host_cpus": cpus, "num_cpus": cpus}
    metrics = None
    ray_up = False
    try:
        try:
            wl = WORKLOADS[args.workload](args.seed, os.path.join(run_dir, "work"))
        except oracle.InputDrift as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 3
        import ray

        setup_s = []
        for _ in range(SETUP_CYCLES if not args.trace else 1):
            if ray_up:
                ray.shutdown()
                watch.remember_tree()
            t0 = time.perf_counter()
            ray_start(record["num_cpus"], temp_dir)
            ray_up = True
            wl.warm_up()
            setup_s.append(time.perf_counter() - t0)
        record["setup_s"] = setup_s
        watch.start()
        cpu0 = host.cpu_times()
        if args.trace:
            tracer = Tracer(run_id)
            results, values = measure_traced(wl, args, outcome, tracer, t_process)
        else:
            results, values = measure(wl, args, outcome, watch, t_process)
            values["setup_s"] = statistics.median(setup_s)
        shares = host.cpu_shares(cpu0, host.cpu_times())
        record.update(shares)
        record["iterations"] = results
        if args.trace:
            values["host.steal_pct"] = shares["steal_pct"]
            values["host.busy_pct"] = shares["busy_pct"]
            trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
            tracer.write(trace_path, {k: record[k] for k in
                                      ("workload", "seed", "host_cpus", "num_cpus")})
            record["trace_file"] = os.path.relpath(trace_path, ROOT)
        if results:
            if not args.trace:
                values["ok_ops_ratio"] = (outcome.attempted - outcome.failed) / outcome.attempted
            metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    except Exception:
        traceback.print_exc()
        outcome.add(1, 1)
    finally:
        if ray_up:
            import ray

            watch.remember_tree()
            ray.shutdown()
        watch.close()
        host.stop_all(watch.seen)
        shutil.rmtree(run_dir, ignore_errors=True)
        if private_temp:
            shutil.rmtree(temp_dir, ignore_errors=True)
    record["attempted"], record["failed"] = outcome.attempted, outcome.failed
    with open(os.path.join(out_dir, f"record-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    print(f"perfbench: {args.workload} seed={args.seed} cpus={record['num_cpus']} "
          f"busy={record.get('busy_pct', 0):.1f}% steal={record.get('steal_pct', 0):.1f}% "
          f"iterations={len(record.get('iterations', []))}", file=sys.stderr)
    if outcome.emit(metrics or zero_metrics(units)):
        done.set()
    return 0


if __name__ == "__main__":
    sys.exit(main())
