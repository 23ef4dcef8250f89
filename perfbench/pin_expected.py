#!/usr/bin/env python3
"""Pin the reference digests of the KG workloads' corpora.

    python3 perfbench/pin_expected.py --seeds 0-99 [--jobs 4]

For every pinned corpus of each size the workloads use (kg_batch's and
kg_resume's): find its corpusgen seed (``workloads.corpus_seed``), run
``reference_extractor.extract_corpus`` (single-process, ~16 ms per file)
over that corpus, and record both in ``perfbench/expected.json``, one
corpus per worker process. Entries whose input digest still matches are
kept; an entry whose corpus changed is recomputed and reported.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))


def _one(job: tuple[int, int]) -> tuple[int, int, dict]:
    from recon_ray import corpusgen

    import oracle
    from workloads import corpus_seed

    n_files, seed = job
    cseed = corpus_seed(seed, n_files)
    corpus = corpusgen.generate_corpus(n_files, seed=cseed)
    return n_files, seed, {"corpus_seed": cseed, **oracle.reference_record(corpus)}


def _seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    import oracle
    from recon_ray import corpusgen
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, help="e.g. 0-99 or 1,5,9-12")
    p.add_argument("--jobs", type=int, default=4)
    args = p.parse_args()

    pinned = oracle.load_pinned() if os.path.exists(oracle.EXPECTED_PATH) else {}
    if pinned.get("generator") != oracle.GENERATOR:
        pinned = {"generator": oracle.GENERATOR, "kg": {}}
    sizes = sorted({w.n_files for w in WORKLOADS.values()}, reverse=True)
    todo = []
    for n_files in sizes:
        corpora = pinned["kg"].setdefault(str(n_files), {})
        for seed in _seeds(args.seeds):
            rec = corpora.get(str(seed))
            if rec and rec["input_sha256"] == oracle.corpus_digest(
                    corpusgen.generate_corpus(n_files, seed=rec["corpus_seed"])):
                continue
            if rec:
                print(f"{n_files} files, seed {seed}: input changed, recomputing",
                      file=sys.stderr)
            todo.append((n_files, seed))
    with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
        for n_files, seed, rec in pool.imap_unordered(_one, todo):
            pinned["kg"][str(n_files)][str(seed)] = rec
            print(f"{n_files} files, seed {seed}: corpus seed {rec['corpus_seed']}, "
                  f"{rec['n_canonical']} triples", file=sys.stderr)
    pinned["kg"] = {n: dict(sorted(c.items(), key=lambda kv: int(kv[0])))
                    for n, c in sorted(pinned["kg"].items(), key=lambda kv: -int(kv[0]))}
    with open(oracle.EXPECTED_PATH, "w") as f:
        json.dump(pinned, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
