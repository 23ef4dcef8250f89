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
overhead — at 100 TB, hundreds of multi-GB shards. Per-shard quality
insights (entity coverage, label counts — north_star "per partition")
are written next to the shard's triples.
"""

from __future__ import annotations

import os
import time
from typing import Optional

import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from recon_ray import spec
from recon_ray.functions.stats import entity_coverage, label_counts
from recon_ray.hashing import combine_u64
from recon_ray.pipelines.kg import run_kg, scan_symbols, read_files
from recon_ray.stages.canonicalize import canonicalize
from recon_ray.stages.link import build_symbol_broadcast
from recon_ray.state import lineage as lin

RUN_CONFIG_VERSION = {"extractor": spec.EXTRACTOR_TAG, "chain": "v1"}


def _list_fragments(input_path: str) -> list[str]:
    if os.path.isfile(input_path):
        return [input_path]
    return sorted(
        os.path.join(input_path, f)
        for f in os.listdir(input_path)
        if f.endswith(".parquet")
    )


def _shards(fragments: list[str], fragments_per_shard: int) -> list[list[str]]:
    return [
        fragments[i : i + fragments_per_shard]
        for i in range(0, len(fragments), fragments_per_shard)
    ]


def run_kg_checkpointed(
    input_path: str,
    out_dir: str,
    *,
    fragments_per_shard: int = 8,
    write_insights: bool = True,
    max_shards: Optional[int] = None,
    batch_size: int = 128,
) -> dict:
    """Returns {"shards_run", "shards_skipped", "manifests", "final_dir"}.

    ``max_shards`` stops early after N shards (used by the resume tests to
    simulate a mid-run kill)."""
    fragments = _list_fragments(input_path)
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
        symbols_table = scan_symbols(read_files(fragments))
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
    symbols_ref, _ = build_symbol_broadcast(symbols_table)

    # Shard validity must depend on the GLOBAL symbol dictionary, not just
    # the shard's own fragments: linking resolves against symbols from the
    # whole corpus, so a grown/edited corpus that changes the dictionary
    # (new DEFs) silently changes what OLD shards' mentions should link
    # to. Folding a content hash of the symbol table into the per-shard
    # args hash forces a (conservative, correct) relink of every shard
    # when the dictionary changes, while an unchanged dictionary keeps
    # the skip behavior byte-for-byte. Finer-grain invalidation (only
    # shards whose mentions match NEW symbols) is the documented upgrade.
    sym_df = symbols_table.to_pandas()
    sym_canon = sym_df.sort_values(list(sym_df.columns)).to_csv(index=False)
    shard_args_hash = lin.args_hash_for(
        {"args": args_hash, "symbols_sha": lin.args_hash_for(
            {"csv": sym_canon})}
    )

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
        res = run_kg(shard_frags, batch_size=batch_size, symbols_ref=symbols_ref)
        docs = res["docs"]
        # three consumers below (count, coverage, label counts): explode once
        mentions = res["mentions"].materialize()

        triples_dir = os.path.join(shard_dir, "triples")
        with lin.atomic_output_dir(triples_dir) as tmp:
            res["canonical"].write_parquet(tmp)
        # n_mentions of a canonical row = the raw triples it absorbed
        n_canonical = n_triples = 0
        for f in os.listdir(triples_dir):
            if f.endswith(".parquet"):
                col = pq.read_table(
                    os.path.join(triples_dir, f), columns=["n_mentions"]
                ).column("n_mentions")
                n_canonical += len(col)
                n_triples += pc.sum(col).as_py() or 0
        n_mentions = mentions.count()
        if write_insights:
            with lin.atomic_output_dir(os.path.join(shard_dir, "insights")) as tmp:
                entity_coverage(mentions).write_parquet(
                    os.path.join(tmp, "coverage")
                )
                label_counts(mentions).to_parquet(
                    os.path.join(tmp, "label_counts.parquet")
                )
        # order-insensitive content-hash rollup (the shard's commit hash,
        # analogue of recon/hashing.py:88-100)
        sha_rollup = combine_u64(
            int(h[:16], 16)
            for b in docs.select_columns(["content_sha256"]).iter_batches(
                batch_format="pyarrow"
            )
            for h in b.column("content_sha256").to_pylist()
        )
        m = lin.ShardManifest(
            shard_id=sid,
            status=lin.COMPLETED,
            args_hash=shard_args_hash,
            input_fragments=lin.fragment_fingerprint(shard_frags),
            content_hash_rollup=f"{sha_rollup:016x}",
            n_files=docs.count(),
            n_mentions=n_mentions,
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
        merge_hash = lin.args_hash_for(
            {
                "args": shard_args_hash,
                "shards": [m.content_hash_rollup or "" for m in manifests],
            }
        )
        fm = lin.load_manifest(final_dir)
        if not (fm and fm.status == lin.COMPLETED and fm.args_hash == merge_hash):
            t0 = time.time()
            # enumerate ONLY this run's shard ids — a reused out_dir may hold
            # stale higher-numbered shard dirs from a previous run with a
            # different fragments_per_shard, which must not leak into the merge
            shard_parts = [
                os.path.join(out_dir, "shards", f"shard={sid:04d}", "triples", f)
                for sid in range(len(shards))
                for f in sorted(
                    os.listdir(
                        os.path.join(out_dir, "shards", f"shard={sid:04d}", "triples")
                    )
                )
                if f.endswith(".parquet")
            ]
            merged = canonicalize(rd.read_parquet(shard_parts))
            with lin.atomic_output_dir(os.path.join(final_dir, "data")) as tmp:
                merged.write_parquet(tmp)
            # count the MERGED rows (cross-shard triples dedupe at the global
            # canonicalize, so summing per-shard counts would overstate)
            data_dir = os.path.join(final_dir, "data")
            n_merged = sum(
                pq.ParquetFile(os.path.join(data_dir, f)).metadata.num_rows
                for f in os.listdir(data_dir)
                if f.endswith(".parquet")
            )
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
