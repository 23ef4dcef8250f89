"""Checkpointed, resumable KG runner.

Shard-at-a-time execution with per-shard lineage manifests
(state/lineage.py): kill the process at any point and re-run — completed
shards are skipped (their Parquet output + manifest already committed),
pending shards recompute, the final merge re-runs only if any shard
changed. This is the reference's replay-incomplete-operations contract
(recon/dataset.py:370-381) at partition grain, and the "resumable from
checkpoint with per-partition lineage + metrics" requirement of
BASELINE.json.

Each shard is internally fully parallel (the whole cluster works on one
shard's fragments); shard size trades resume granularity against scheduling
overhead — at 100 TB, hundreds of multi-GB shards. Every step is plain
tasks, and the runner starts no Ray Data execution: one DEF-only scan
task per fragment feeds the global symbol table; per shard, one task per
canonical key range (``run_kg``'s ``canonical_refs``) writes its Parquet
file and returns its counts, and one stats task per doc block ``run_kg``
pinned flattens the ``mentions`` list column (no explode) and returns the
block's doc and mention counts, its content-hash rollup and its coverage
and label-count partials; one task per shard merges those partials into
the per-shard quality insights (entity coverage, label counts —
north_star "per partition"), written next to the shard's triples. The
driver only sees the counts. The final merge reads each shard file in its
own task into a canonicalize partial, feeds the partials to
``merge_partials``, the tail ``run_kg`` shares, and writes each range as
a shard does.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from recon_ray import spec
from recon_ray.functions.stats import _partial_coverage, _partial_label_counts
from recon_ray.hashing import combine_u64
from recon_ray.pipelines.kg import list_fragments, run_kg
from recon_ray.stages.canonicalize import merge_partials, partial_canonicalize
from recon_ray.stages.detect import scan_symbols_batch
from recon_ray.stages.link import SYMBOL_ROWS_SCHEMA, build_symbol_broadcast
from recon_ray.state import lineage as lin

RUN_CONFIG_VERSION = {"extractor": spec.EXTRACTOR_TAG, "chain": "v1"}


def _shards(fragments: list[str], fragments_per_shard: int) -> list[list[str]]:
    return [
        fragments[i : i + fragments_per_shard]
        for i in range(0, len(fragments), fragments_per_shard)
    ]


#: the flattened spans of a block without mentions, and their partials
_NO_SPANS = pa.table({"text": pa.array([], pa.string()),
                      "label": pa.array([], pa.string())})
_NO_COVERAGE = _partial_coverage(_NO_SPANS, case_sensitive=False)
_NO_LABELS = _partial_label_counts(_NO_SPANS)


def _joined(strings: pa.Array, sep: str) -> pa.StringScalar:
    """A whole string array joined into one string, in one kernel call."""
    return pc.binary_join(pa.ListArray.from_arrays(
        pa.array([0, len(strings)], pa.int32()), strings), sep)[0]


def _sha_rollup(sha: pa.ChunkedArray) -> int:
    """``combine_u64(int(h[:16], 16) for h in sha)`` without per-row
    Python: the 16-hex-char heads, joined into one string, decode to
    big-endian u64s whose numpy sum wraps mod 2^64."""
    heads = pc.utf8_slice_codeunits(sha, 0, 16).combine_chunks()
    joined = _joined(heads, "").as_py()
    if len(joined) != 16 * len(heads):
        raise ValueError("content_sha256 holds a value shorter than 16 hex chars")
    return int(np.frombuffer(bytes.fromhex(joined), ">u8").sum(dtype=np.uint64))


def symbols_digest(symbols: pa.Table) -> str:
    """SHA-256 of a symbol table from ``build_symbol_broadcast`` (deduped
    and sorted, so equal DEF sets give equal digests): its rows as
    ``repo NUL name NUL q`` lines. Repos, names and ``q`` never hold a
    NUL or a newline."""
    rows = pc.binary_join_element_wise(
        *[symbols.column(c).combine_chunks() for c in ("repo", "name", "q")], "\x00")
    return hashlib.sha256(_joined(rows, "\n").as_buffer()).hexdigest()


def _doc_block_stats(block: pa.Table) -> tuple[tuple[int, int, int], pa.Table, pa.Table]:
    """One pinned doc block → ``(n_docs, n_mentions, sha rollup)``, its
    lower-cased ``(text, label)`` coverage partial and its label-count
    partial. The ``mentions`` list column is flattened, not exploded:
    the flattened length is the exploded row count."""
    child = block.column("mentions").combine_chunks().flatten()
    spans = pa.table({"text": child.field("text"), "label": child.field("label")})
    return ((block.num_rows, spans.num_rows,
             _sha_rollup(block.column("content_sha256"))),
            _partial_coverage(spans, case_sensitive=False),
            _partial_label_counts(spans))


_doc_block_stats_task = ray.remote(num_returns=3)(_doc_block_stats)


@ray.remote
def _write_insights(out_dir: str, n_blocks: int, *parts: pa.Table) -> None:
    """Merge a shard's per-block partials (``n_blocks`` coverage partials,
    then as many label partials) and write ``coverage/`` and
    ``label_counts.parquet`` under ``out_dir``, in the order of
    ``functions/stats.py``'s ``entity_coverage`` (count desc, text,
    label) and ``label_counts`` (count desc, label)."""
    # the empty partials give a shard without blocks its schema
    cov = pa.concat_tables([_NO_COVERAGE, *parts[:n_blocks]]).group_by(
        ["text", "label"]).aggregate([("partial", "sum")]).rename_columns(
        ["text", "label", "count"])
    labels = pa.concat_tables([_NO_LABELS, *parts[n_blocks:]]).group_by(
        "label").aggregate([("partial", "sum")]).rename_columns(["label", "count"])
    os.makedirs(os.path.join(out_dir, "coverage"))
    pq.write_table(
        cov.sort_by([("count", "descending"), ("text", "ascending"),
                     ("label", "ascending")]),
        os.path.join(out_dir, "coverage", "part-00000.parquet"))
    pq.write_table(
        labels.sort_by([("count", "descending"), ("label", "ascending")]),
        os.path.join(out_dir, "label_counts.parquet"))


@ray.remote
def _file_partial(path: str) -> pa.Table:
    """One shard triples file as a canonicalize partial."""
    return partial_canonicalize(pq.read_table(path))


@ray.remote
def _scan_fragment(path: str) -> pa.Table:
    """One fragment's DEF rows ``(repo, module, name)``."""
    return scan_symbols_batch(
        pq.read_table(path, columns=["repo", "path", "lang", "content"]))


@ray.remote
def _write_range(table: pa.Table, out_dir: str, i: int) -> tuple[int, int]:
    """Write key range ``i`` of canonical triples to ``part-{i:05d}``
    (file-name order is key order) → ``(rows, raw triples)``: a canonical
    row's ``n_mentions`` counts the raw triples it absorbed."""
    pq.write_table(table, os.path.join(out_dir, f"part-{i:05d}.parquet"))
    return table.num_rows, pc.sum(table.column("n_mentions")).as_py() or 0


def run_kg_checkpointed(
    input_path: str,
    out_dir: str,
    *,
    fragments_per_shard: int = 8,
    write_insights: bool = True,
    max_shards: Optional[int] = None,
) -> dict:
    """Returns {"shards_run", "shards_skipped", "manifests", "final_dir"}.

    ``max_shards`` stops early after N shards (used by the resume tests to
    simulate a mid-run kill)."""
    fragments = list_fragments(input_path)
    args_hash = lin.args_hash_for(
        {**RUN_CONFIG_VERSION, "fragments_per_shard": fragments_per_shard}
    )

    # --- stage 0: global symbol dictionary (cached like any shard) ---------
    sym_dir = os.path.join(out_dir, "symbols")
    sym_parquet = os.path.join(sym_dir, "data", "symbols.parquet")
    if lin.shard_is_complete(sym_dir, args_hash, fragments):
        symbols_table = pq.read_table(sym_parquet)
    else:
        t0 = time.time()
        symbols_table = pa.concat_tables([SYMBOL_ROWS_SCHEMA.empty_table(), *ray.get(
            [_scan_fragment.remote(f) for f in fragments])])
        with lin.atomic_output_dir(os.path.join(sym_dir, "data")) as tmp:
            pq.write_table(symbols_table, os.path.join(tmp, "symbols.parquet"))
        lin.write_manifest(
            sym_dir,
            lin.ShardManifest(
                shard_id=-1,
                status=lin.COMPLETED,
                args_hash=args_hash,
                input_fragments=lin.fragment_fingerprint(fragments),
                n_files=len(fragments),
                elapsed_sec=time.time() - t0,
            ),
        )
    symbols_ref, symbols = build_symbol_broadcast(symbols_table)

    # Shard validity must depend on the GLOBAL symbol dictionary, not just
    # the shard's own fragments: linking resolves against symbols from the
    # whole corpus, so a grown/edited corpus that changes the dictionary
    # (new DEFs) silently changes what OLD shards' mentions should link
    # to. Folding a content hash of the symbol table into the per-shard
    # args hash forces a (conservative, correct) relink of every shard
    # when the dictionary changes, while an unchanged dictionary keeps
    # the skip behavior byte-for-byte. Finer-grain invalidation (only
    # shards whose mentions match NEW symbols) is the documented upgrade.
    shard_args_hash = lin.args_hash_for(
        {"args": args_hash, "symbols_sha": symbols_digest(symbols)})

    # --- stage 1: per-shard extract → triples ------------------------------
    shards = _shards(fragments, fragments_per_shard)
    run_count = skip_count = 0
    manifests = []
    for sid, shard_frags in enumerate(shards):
        if max_shards is not None and run_count >= max_shards:
            break
        shard_dir = os.path.join(out_dir, "shards", f"shard={sid:04d}")
        if lin.shard_is_complete(shard_dir, shard_args_hash, shard_frags):
            skip_count += 1
            manifests.append(lin.load_manifest(shard_dir))
            continue
        t0 = time.time()
        res = run_kg(shard_frags, symbols_ref=symbols_ref)
        # the stats tasks run while the canonical write does
        stats = [_doc_block_stats_task.remote(ref) for ref in res["doc_refs"]]

        with lin.atomic_output_dir(os.path.join(shard_dir, "triples")) as tmp:
            writes = [_write_range.remote(ref, tmp, i)
                      for i, ref in enumerate(res["canonical_refs"])]
            if write_insights:
                with lin.atomic_output_dir(os.path.join(shard_dir, "insights")) as itmp:
                    ray.get(_write_insights.remote(
                        itmp, len(stats), *[s[1] for s in stats], *[s[2] for s in stats]))
            n_canonical, n_triples = map(sum, zip(*ray.get(writes)))
        counts = ray.get([s[0] for s in stats])
        # order-insensitive content-hash rollup (the shard's commit hash,
        # analogue of recon/hashing.py:88-100)
        sha_rollup = combine_u64(c[2] for c in counts)
        m = lin.ShardManifest(
            shard_id=sid,
            status=lin.COMPLETED,
            args_hash=shard_args_hash,
            input_fragments=lin.fragment_fingerprint(shard_frags),
            content_hash_rollup=f"{sha_rollup:016x}",
            n_files=sum(c[0] for c in counts),
            n_mentions=sum(c[1] for c in counts),
            n_triples=n_triples,
            n_canonical=n_canonical,
            elapsed_sec=time.time() - t0,
        )
        lin.write_manifest(shard_dir, m)
        manifests.append(m)
        run_count += 1

    all_done = skip_count + run_count == len(shards)

    # --- stage 2: global merge (cheap: inputs are pre-canonicalized) -------
    final_dir = os.path.join(out_dir, "triples")
    if all_done:
        merge_hash = lin.args_hash_for({
            "args": shard_args_hash, "shards": [m.content_hash_rollup or "" for m in manifests]})
        fm = lin.load_manifest(final_dir)
        if not (fm and fm.status == lin.COMPLETED and fm.args_hash == merge_hash):
            t0 = time.time()
            # enumerate ONLY this run's shard ids — a reused out_dir may hold
            # stale higher-numbered shard dirs from a previous run with a
            # different fragments_per_shard, which must not leak into the merge
            shard_dirs = [os.path.join(out_dir, "shards", f"shard={sid:04d}", "triples")
                          for sid in range(len(shards))]
            shard_parts = [os.path.join(d, f) for d in shard_dirs
                           for f in sorted(os.listdir(d)) if f.endswith(".parquet")]
            merged = merge_partials([_file_partial.remote(p) for p in shard_parts])
            with lin.atomic_output_dir(os.path.join(final_dir, "data")) as tmp:
                # count the MERGED rows (cross-shard triples dedupe at the
                # global canonicalize, so summing shard counts would overstate)
                n_merged = sum(n for n, _ in ray.get(
                    [_write_range.remote(ref, tmp, i) for i, ref in enumerate(merged)]))
            lin.write_manifest(
                final_dir,
                lin.ShardManifest(
                    shard_id=-2,
                    status=lin.COMPLETED,
                    args_hash=merge_hash,
                    n_canonical=n_merged,
                    elapsed_sec=time.time() - t0,
                ),
            )
    return {
        "shards_run": run_count,
        "shards_skipped": skip_count,
        "manifests": manifests,
        "final_dir": os.path.join(final_dir, "data"),
        "complete": all_done,
    }
