"""The flagship KG-construction pipeline (SURVEY §7.1), one sequence:

    read each Parquet fragment                     [one plain task per
                                                    fragment, ≤ 2 × CPUs
                                                    fragments open at once]
      → cut its rows into slices by content bytes  [driver: the lengths
                                                    array only; budget =
                                                    corpus content bytes ÷
                                                    (2 × CPUs), ≤ 32 MiB]
      → per slice: mention detection               [one plain task per
          (+ content_sha256; import/def/call/ident   slice; per-process
          raw spans), the correction chain           compiled-pattern cache,
          (upcase → rename → strip →                 vectorized Arrow
          filter_overlaps → fix_annotations),        kernels]
          drop content (sha256 travels on)
      → the slices are the pinned doc blocks; each [one DEF task per slice
          feeds a DEF task, merged remotely into     as it is submitted]
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

``run_kg`` submits detection, the symbol build, linking and the
canonicalize exchange as plain tasks and starts no Ray Data execution
before it returns: the detected docs are pinned (content-free, so about
the size of their mentions), no raw-triples Dataset exists, and the
returned ``canonical`` Dataset is backed by reduce-task refs. Only the
exploded mentions stay lazy. Corpora whose pinned docs would not fit the
object store go through ``state/runner.py:run_kg_checkpointed`` shard by
shard.
The DEF, symbol and link kernels live in ``stages/link.py``; this module
only wires tasks together. The correction chain is load-bearing: raw
labels are lowercase, CALL spans carry trailing whitespace, keyword
false-positives must be deleted — skipping any step changes the emitted
triples (P/R gate vs recon_ray/reference_extractor.py).
"""

from __future__ import annotations

import os
from typing import Optional, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from recon_ray.functions.relational import cluster_cpus
from recon_ray.ops import OPS, LineageTracker
from recon_ray.ops.spans import CORRECTION_CHAIN
from recon_ray.stages.canonicalize import merge_partials, partial_canonicalize
from recon_ray.stages.detect import detect_batch, scan_symbols_batch
from recon_ray.stages.explode import explode_mentions
from recon_ray.stages.link import (SYMBOL_ROWS_SCHEMA, defs_of, link_block,
                                   merge_symbols)

#: docs per DEF-scan batch of ``scan_symbols``, which only the benchmark
#: and the tests call — source files average ~1-4 KB here; detection
#: itself is sized by bytes (MAX_SLICE_BYTES).
DEFAULT_BATCH_SIZE = 128

#: the most content bytes one detect slice takes (a single larger file
#: still forms its own slice)
MAX_SLICE_BYTES = 32 << 20


def list_fragments(input_path: Union[str, list]) -> list[str]:
    """The Parquet fragments of a directory (its ``.parquet`` files,
    sorted), a single file, or a list of files (kept as given)."""
    if isinstance(input_path, (list, tuple)):
        return list(input_path)
    if os.path.isfile(input_path):
        return [input_path]
    return sorted(
        os.path.join(input_path, f)
        for f in os.listdir(input_path)
        if f.endswith(".parquet")
    )


def read_files(input_path: str, parallelism: Optional[int] = None):
    """The corpus as a Ray Data Dataset, for the benchmark and the tests
    (``run_kg`` and the checkpointed runner read fragments in plain
    tasks). All five columns are read."""
    kwargs = {}
    if parallelism:
        kwargs["override_num_blocks"] = parallelism
    return rd.read_parquet(input_path, **kwargs)


def _content_bytes(path: str) -> int:
    """The uncompressed size of a fragment's ``content`` column, from its
    Parquet footer."""
    md = pq.read_metadata(path)
    j = md.schema.names.index("content")
    return sum(md.row_group(g).column(j).total_uncompressed_size
               for g in range(md.num_row_groups))


def slice_budget(fragments: list[str]) -> int:
    """Content bytes per detect slice: the corpus's content ÷ (2 × CPUs),
    so a small corpus still spreads over every CPU twice, capped at
    ``MAX_SLICE_BYTES``."""
    total = sum(_content_bytes(f) for f in fragments)
    return min(MAX_SLICE_BYTES, total // (2 * cluster_cpus()))


def row_slices(lengths: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """``(offset, length)`` row ranges over rows of ``lengths`` content
    bytes: a slice closes before the row that would push it past
    ``budget``, a row over the budget forms its own slice, and 0 rows
    still give one (empty) slice."""
    csum = np.cumsum(lengths, dtype=np.int64)
    out, lo = [], 0
    while lo < len(csum):
        base = csum[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(csum, base + budget, side="right")))
        out.append((lo, hi - lo))
        lo = hi
    return out or [(0, 0)]


@ray.remote(num_returns=2)
def _read_fragment(path: str):
    """One fragment's table and its rows' content bytes (the driver
    fetches only the latter)."""
    table = pq.read_table(path)
    return table, pc.binary_length(table.column("content"))


def _detect_kernel(table: pa.Table, offset: int, length: int,
                   tracker=None) -> pa.Table:
    """Detect one slice of a fragment, run the correction chain over it
    (lineage counted per op as ``ops.pipe`` does) and drop ``content``."""
    docs = detect_batch(table.slice(offset, length))
    for name in CORRECTION_CHAIN:
        docs = OPS[name].batch_fn(tracker=tracker)(docs)
    return docs.drop_columns(["content"])


_detect_slice = ray.remote(_detect_kernel)


def _detect_fragments(fragments: list[str], tracker=None) -> list:
    """Submit the read and detect tasks of ``fragments`` → the detect
    slices' refs, in fragment order. At most 2 × CPUs fragments are open
    at once (read, or with a slice not yet done), so at most that many
    fragments' content sits in the object store; the driver drops each
    table ref as soon as its slices are submitted."""
    budget = slice_budget(fragments)
    window = 2 * cluster_cpus()
    slices = [[] for _ in fragments]
    reads = {}  # lengths ref → (fragment, table ref)
    running = {}  # slice ref → fragment
    pending = {}  # open fragment → its read or slice refs not yet done
    nxt = 0
    while nxt < len(fragments) or reads:
        while nxt < len(fragments) and len(pending) < window:
            table, lengths = _read_fragment.remote(fragments[nxt])
            reads[lengths], pending[nxt] = (nxt, table), 1
            nxt += 1
        [done], _ = ray.wait([*reads, *running], fetch_local=False)
        if done in reads:
            i, table = reads.pop(done)
            for lo, n in row_slices(ray.get(done).to_numpy(), budget):
                ref = _detect_slice.remote(table, lo, n, tracker)
                slices[i].append(ref)
                running[ref] = i
            pending[i] += len(slices[i])
        else:
            i = running.pop(done)
        pending[i] -= 1
        if not pending[i]:
            del pending[i]
    return [ref for refs in slices for ref in refs]


def _symbol_rows(ds) -> pa.Table:
    """A Dataset of ``(repo, module, name)`` blocks, collected to the
    driver (orders of magnitude smaller than the corpus)."""
    blocks = ray.get(ds.materialize().to_arrow_refs())
    return pa.concat_tables([b for b in blocks if b.num_rows]
                            or [SYMBOL_ROWS_SCHEMA.empty_table()])


def scan_symbols(files_ds) -> pa.Table:
    """DEF-only scan of a files Dataset → ``(repo, module, name)`` rows,
    for the benchmark and the tests. The checkpointed runner maps the
    same kernel, ``scan_symbols_batch``, over its fragments in plain
    tasks."""
    return _symbol_rows(files_ds.map_batches(
        scan_symbols_batch,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=DEFAULT_BATCH_SIZE,
    ))


@ray.remote
def _defs_block(block) -> pa.Table:
    """Task form of the DEF kernel over one materialized doc block."""
    return defs_of(block)


def _link_kernel(block, symbols: pa.Table) -> pa.Table:
    """Link one pinned doc block against the symbol table and
    pre-aggregate its triples into the canonicalize partial
    ``(KEY_COLS, n_mentions, prov)``."""
    return partial_canonicalize(link_block(block, symbols))


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
    input_path: Union[str, list],
    *,
    track_lineage: bool = False,
    symbols_ref=None,
    symbol_source: str = "mentions",
) -> dict:
    """Detect → correct → pin docs (+ symbol build) → link each block into
    canonical partials → merge them. ``input_path`` is a directory of
    Parquet fragments, one fragment, or a list of them.
    Returns the component Datasets (``canonical`` sorted by
    (subj, pred, obj)), the pinned doc block refs behind ``docs``
    (``doc_refs``), the key-range reduce refs behind ``canonical``
    (``canonical_refs``, in key order), the symbol table ref and the
    lineage tracker.

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

    # Detection in plain tasks over byte-budgeted slices, not Ray Data's
    # read → map_batches: the executor's start-up dominated the front end,
    # and one detect call per fragment left 20 oversized files deciding
    # the wall (1000 files in 8 fragments, 4 vCPUs, median of 7 warm runs:
    # run_kg plus the sorted write 1.37 s that way, 0.88 s in 13 slices).
    # The slices are the pinned docs: the linker and the exploded mentions
    # both read them, so detection runs once.
    block_refs = _detect_fragments(list_fragments(input_path), tracker)
    # Without a given symbol table, each block gets a DEF task and the
    # table is merged in a REMOTE task (the DEF partials are tiny next to
    # detection).
    if symbols_ref is None:
        symbols_ref = _merge_symbols.remote(
            *[_defs_block.remote(ref) for ref in block_refs])
    # One link task per pinned block, returning its canonicalize partial
    # straight into the shared range exchange: no raw-triples Dataset and
    # no combiner operator, whose Ray Data start-up dominated this phase
    # (1000 files, 4 vCPUs: pinned docs to all partials in 0.58-0.60 s as
    # link map_batches + combiner, 0.29-0.33 s as these tasks). The symbol
    # table is a top-level argument: no link task starts before it exists,
    # and each reads it zero-copy from the object store.
    partials = [_link_block.remote(ref, symbols_ref) for ref in block_refs]
    docs = rd.from_arrow_refs(block_refs)
    canonical_refs = merge_partials(partials)

    return {
        "docs": docs,
        "doc_refs": block_refs,
        "mentions": explode_mentions(docs),
        "canonical": rd.from_arrow_refs(canonical_refs),
        "canonical_refs": canonical_refs,
        "symbols_ref": symbols_ref,
        "tracker": tracker,
    }


def lineage_summary(tracker) -> list[dict]:
    return ray.get(tracker.summary.remote()) if tracker is not None else []
