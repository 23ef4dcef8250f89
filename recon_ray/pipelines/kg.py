"""The flagship KG-construction pipeline (SURVEY §7.1), one sequence:

    read_parquet(files)                            [Ray's read sizing: one
                                                    block per small fragment]
      → mention detection (+ content_sha256)       [elastic tasks; per-process
          (import/def/call/ident raw spans)         compiled-pattern cache]
      → correction chain (upcase → rename → strip
        → filter_overlaps → fix_annotations)       [vectorized Arrow kernels]
      → drop content (sha256 travels on)           [block slimming]
      → pin the docs block by block; each block    [streamed off the
          feeds a DEF task, merged remotely into     executor as blocks land]
          the (repo, name, q) symbol table
      → link + combine: one task per pinned block  [plain ray tasks; the
          links it against that table (or a          table is a top-level
          caller-given one) and pre-aggregates its   argument, read
          triples into a canonicalize partial        zero-copy]
      → canonicalize tail (range split of the      [the shared exchange
          partials → key-range merge, each range     under a range rule;
          sorted by (subj, pred, obj))               output sorted, no
                                                     sort stage]
    plus the exploded mentions table for stats/insights.

``run_kg`` executes detection, the symbol build, linking and the
canonicalize exchange before it returns: the detected docs are pinned
(content-free, so about the size of their mentions), no raw-triples
Dataset exists, and the returned ``canonical`` Dataset is backed by
reduce-task refs. Only the exploded mentions stay lazy. Corpora whose
pinned docs would not fit the object store go through
``state/runner.py:run_kg_checkpointed`` shard by shard.
The DEF, symbol and link kernels live in ``stages/link.py``; this module
only wires tasks together. The correction chain is load-bearing: raw
labels are lowercase, CALL spans carry trailing whitespace, keyword
false-positives must be deleted — skipping any step changes the emitted
triples (P/R gate vs recon_ray/reference_extractor.py).
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa
import ray
import ray.data as rd

from recon_ray.ops import LineageTracker, pipe
from recon_ray.ops.spans import CORRECTION_CHAIN
from recon_ray.stages.canonicalize import merge_partials, partial_canonicalize
from recon_ray.stages.detect import detect_batch, scan_symbols_batch
from recon_ray.stages.explode import explode_mentions
from recon_ray.stages.link import (SYMBOL_ROWS_SCHEMA, defs_of, link_block,
                                   merge_symbols)
from recon_ray.stages.streaming import iter_block_refs

#: docs per detector batch — source files average ~1-4 KB here; at 100 TB
#: with multi-MB files, budget by bytes (target ≲ 32 MiB of content/batch).
DEFAULT_BATCH_SIZE = 128


def read_files(input_path: str, parallelism: Optional[int] = None):
    """Source: the input_hint Parquet table. All five columns are needed
    (content for detection, the rest for provenance/keys) so no column
    pruning applies here; downstream stages drop ``content`` as soon as
    detection has run."""
    kwargs = {}
    if parallelism:
        kwargs["override_num_blocks"] = parallelism
    return rd.read_parquet(input_path, **kwargs)


def _symbol_rows(ds) -> pa.Table:
    """A Dataset of ``(repo, module, name)`` blocks, collected to the
    driver (orders of magnitude smaller than the corpus)."""
    blocks = ray.get(ds.materialize().to_arrow_refs())
    return pa.concat_tables([b for b in blocks if b.num_rows]
                            or [SYMBOL_ROWS_SCHEMA.empty_table()])


def scan_symbols(files_ds) -> pa.Table:
    """Pass 1: DEF-only scan → ``(repo, module, name)`` rows. The
    checkpointed runner builds its global symbol table with it."""
    return _symbol_rows(files_ds.map_batches(
        scan_symbols_batch,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=DEFAULT_BATCH_SIZE,
    ))


def _as_arrow(block) -> pa.Table:
    """A pinned doc block as Arrow (empty blocks can be pandas frames)."""
    import pandas as pd

    if isinstance(block, pd.DataFrame):
        return pa.Table.from_pandas(block, preserve_index=False)
    return block


@ray.remote
def _defs_block(block) -> pa.Table:
    """Task form of the DEF kernel over one materialized doc block."""
    return defs_of(_as_arrow(block))


def _link_kernel(block, symbols: pa.Table) -> pa.Table:
    """Link one pinned doc block against the symbol table and
    pre-aggregate its triples into the canonicalize partial
    ``(KEY_COLS, n_mentions, prov)``."""
    return partial_canonicalize(link_block(_as_arrow(block), symbols))


_link_block = ray.remote(_link_kernel)
_merge_symbols = ray.remote(merge_symbols)


def symbols_from_docs(docs_ds) -> pa.Table:
    """Symbol rows derived from the ALREADY-DETECTED mentions: DEF spans
    survive the correction chain unchanged (SymbolScanner invariant,
    asserted in tests), and the linker derives the name the same way
    (spec.def_name = text.split()[-1]) — so this is exactly the scan
    table without the second corpus read+regex pass (measured 3.5 s @32 /
    5.3 s @8 cpus at 96k files). Requires a MATERIALIZED docs dataset or
    detection runs twice."""
    return _symbol_rows(docs_ds.map_batches(
        defs_of, batch_format="pyarrow", zero_copy_batch=True))


def run_kg(
    input_path: str,
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
    track_lineage: bool = False,
    symbols_ref=None,
    symbol_source: str = "mentions",
) -> dict:
    """Detect → correct → pin docs (+ symbol build) → link each block into
    canonical partials → merge them.
    Returns the component Datasets (``canonical`` sorted by
    (subj, pred, obj)), the pinned doc block refs behind ``docs``
    (``doc_refs``), the symbol table ref and the lineage tracker.

    ``symbols_ref``: pass a pre-broadcast symbol table (the ref from
    ``stages/link.py:build_symbol_broadcast``) to link against it instead
    of the table derived from this call's own DEF mentions — the
    checkpointed runner builds one global table and reuses the ref across
    shards.

    ``symbol_source``: accepts only ``"mentions"``; kept for existing
    callers of the benchmark and goes when the benchmark is next revised."""
    if symbol_source != "mentions":
        raise ValueError(
            f"symbol_source={symbol_source!r}: only 'mentions' is supported"
        )
    tracker = LineageTracker.remote() if track_lineage else None

    # Ray's own read sizing: one block per small fragment (big fragments
    # still split by size). Splitting 125-file fragments into 16-row
    # blocks added no detect tasks (the batch_size bundler joins them
    # back) and serialized detection: over 1000 files in 8 fragments at
    # 4 vCPUs, detect calls kept 0.79 CPUs busy with 64 read blocks
    # against 1.6 with one block per fragment.
    files = read_files(input_path)
    # the regex detector's only state is module-level compiled patterns,
    # so it runs as elastic stateless tasks
    docs = files.map_batches(
        detect_batch,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )
    docs = pipe(docs, CORRECTION_CHAIN, tracker=tracker, batch_size=batch_size)
    docs = docs.drop_columns(["content"])

    # Pin the corrected docs (the linker and the exploded mentions both
    # read them, so detection runs once) by streaming their blocks as
    # detection finishes them. Without a given symbol table, each block
    # gets a DEF task as it lands and the table is merged in a REMOTE
    # task (the DEF partials are tiny next to detection).
    derive_symbols = symbols_ref is None
    block_refs, def_parts = [], []
    for ref in iter_block_refs(docs):
        block_refs.append(ref)
        if derive_symbols:
            def_parts.append(_defs_block.remote(ref))
    if derive_symbols:
        symbols_ref = _merge_symbols.remote(*def_parts)
    # One link task per pinned block, returning its canonicalize partial
    # straight into the shared range exchange: no raw-triples Dataset and
    # no combiner operator, whose Ray Data start-up dominated this phase
    # (1000 files, 4 vCPUs: pinned docs to all partials in 0.58-0.60 s as
    # link map_batches + combiner, 0.29-0.33 s as these tasks). The symbol
    # table is a top-level argument: no link task starts before it exists,
    # and each reads it zero-copy from the object store.
    partials = [_link_block.remote(ref, symbols_ref) for ref in block_refs]
    canonical = merge_partials(partials)
    # an empty corpus yields no blocks; materialize() keeps its schema
    docs = rd.from_arrow_refs(block_refs) if block_refs else docs.materialize()
    mentions = explode_mentions(docs)

    return {
        "files": files,
        "docs": docs,
        "doc_refs": block_refs,
        "mentions": mentions,
        "canonical": canonical,
        "symbols_ref": symbols_ref,
        "tracker": tracker,
    }


def lineage_summary(tracker) -> list[dict]:
    return ray.get(tracker.summary.remote()) if tracker is not None else []
