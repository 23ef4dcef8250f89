"""Canonicalization — exact dedup of triples on normalized keys, the
analogue of the reference's content-addressed ``ExampleStore`` dedup
(recon/store.py:39-47) re-expressed as a combiner + shuffle:

1. **partial pre-aggregation** (one row per distinct triple key per
   block), inside ``run_kg``'s per-block link tasks, the checkpointed
   runner's per-file merge tasks or, for a Dataset of raw triples, a
   ``map_batches`` combiner — this is the skew absorber:
   a mega-repo's hot key collapses to one tiny partial row per block
   before anything moves, so the merge only moves pre-reduced rows
   (SURVEY §4.2; the explicit salted path for combiner-less aggs lives
   in recon_ray/functions/relational.py:salted_group_count);
2. **range-partitioned merge**: key boundaries are sampled from the
   partial blocks, and the shared exchange
   (``functions/relational.py:exchange``) splits every partial block
   ONCE by a range rule; one reduce task per key range merges its slices
   with ONLY built-in vectorized aggregates (Sum + Min) — a per-group
   Python callback (map_groups) costs ~1 ms per group and collapses at
   10^5+ distinct triples, so provenance is packed into a single
   \\x00-separated string whose lexicographic Min equals the
   (repo, path) tuple-min the sequential oracle computes;
3. each reduce task **sorts** its range by the key columns, so the
   ranges in order are the graph's storage order, (subj, pred, obj).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from recon_ray.functions.relational import cluster_cpus, exchange

KEY_COLS = ["subj", "pred", "obj", "subj_type", "obj_type"]
PROV_COLS = ["repo", "path", "commit", "content_sha256", "extractor"]
_SEP = "\x00"  # sorts before every printable char → string min == tuple min


def _pack(batch: pa.Table, cols: list[str]) -> pa.ChunkedArray:
    """The columns joined into one _SEP-separated string per row."""
    packed = batch.column(cols[0]).cast(pa.string())
    for c in cols[1:]:
        packed = pc.binary_join_element_wise(
            packed, batch.column(c).cast(pa.string()), _SEP
        )
    return packed


def partial_canonicalize(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: dedup + count + min-provenance (all Arrow)."""
    return _group(pa.table({
        **{c: batch.column(c) for c in KEY_COLS},
        "prov": _pack(batch, PROV_COLS),
        "n_mentions": batch.column("n_mentions")
        if "n_mentions" in batch.column_names
        else pa.array([1] * batch.num_rows, pa.int64()),
    }))


def _group(t: pa.Table) -> pa.Table:
    """One row per distinct key: summed counts, min packed provenance."""
    g = t.group_by(KEY_COLS).aggregate([("n_mentions", "sum"), ("prov", "min")])
    return g.rename_columns(KEY_COLS + ["n_mentions", "prov"])


#: the 0-row partial block, which a key range with no rows merges
_EMPTY_PARTIAL = partial_canonicalize(
    pa.table({c: pa.array([], pa.string()) for c in KEY_COLS + PROV_COLS}))


def _unpack(batch: pa.Table) -> pa.Table:
    parts = pc.split_pattern(batch.column("prov"), _SEP)
    cols = {c: batch.column(c) for c in KEY_COLS}
    cols["n_mentions"] = batch.column("n_mentions").cast(pa.int64())
    for i, c in enumerate(PROV_COLS):
        cols[c] = pc.list_element(parts, i)
    return pa.table(cols)


#: cap on the reduce tasks, one per key range (the count is
#: min(MAX_REDUCERS, cluster CPUs): one reduce wave, since each task reads
#: only its own range's slices). 256, not 64: at 96k files a 64-way merge
#: showed 3.5× skew between the hottest and the mean reduce task (2.9 s
#: vs 0.8 s); more tasks even the reduce wave. At 4 CPUs, 4 ranges merged
#: 1000 files' partials in 67 ms against 93 ms for 8 (two waves)
MAX_REDUCERS = 256

#: partial blocks fetched to the driver for the key-boundary sample
SAMPLE_BLOCKS = 8


def _as_table(b) -> pa.Table | None:
    """A partial block, or None when it holds no keys. The combiner
    emits Arrow; empty upstream blocks can arrive schema-less, even as
    zero-column pandas frames (Ray's to_arrow_refs leaves those)."""
    keyed = isinstance(b, pa.Table) and KEY_COLS[0] in b.column_names
    return b if keyed and b.num_rows else None


def _merge_range(t: pa.Table) -> pa.Table:
    """The reduce of one key range: merge its partial rows, sort them
    and unpack. The concatenation of the range outputs is globally
    sorted, because packed-key order refines (subj, pred, obj) order
    deterministically.

    Unpacking happens HERE (not in a downstream map_batches): with the
    executor's default ``preserve_order=False`` a map stage after
    ``from_arrow_refs`` may emit blocks in completion order, silently
    breaking the global sort — the reduce output must already be the
    final table so the sorted Dataset is a pure block source."""
    return _unpack(_group(t).sort_by([(c, "ascending") for c in KEY_COLS]))


def _range_buckets(bounds: pa.Array, keys: pa.Table, n_buckets: int):
    """The range rule: a row's bucket is ``bisect_right(bounds, packed
    key)``, so bucket i holds the packed keys in [bounds[i-1], bounds[i]).
    One stable Arrow sort of ``bounds ++ keys`` puts each boundary before
    the keys equal to it; the running count of boundaries, scattered back
    to the keys' positions, is the bucket."""
    nb = len(bounds)
    allk = pa.chunked_array([bounds, *_pack(keys, keys.column_names).chunks],
                            pa.string())
    order = pc.sort_indices(allk).to_numpy()
    is_key = order >= nb
    out = np.empty(len(order) - nb, np.int64)
    out[order[is_key] - nb] = np.cumsum(~is_key)[is_key]
    return out


def _key_boundaries(keys: pa.ChunkedArray, n_ranges: int) -> list[str]:
    """Quantile boundaries of a packed-key sample, distinct and ascending.
    Arrow sorts strings by their UTF-8 bytes, which is Python's code-point
    order, so only the ``n_ranges - 1`` picks ever become Python str."""
    n = len(keys)
    if not n:
        return []
    order = pc.sort_indices(keys)
    pos = pa.array([min(n - 1, n * r // n_ranges) for r in range(1, n_ranges)],
                   pa.int64())
    bounds: list[str] = []
    for b in keys.take(order.take(pos)).to_pylist():
        if not bounds or b != bounds[-1]:
            bounds.append(b)
    return bounds


def _sample_key_boundaries(refs, n_ranges: int) -> list[str]:
    """Boundaries from at most SAMPLE_BLOCKS evenly spaced partial blocks
    (deterministic; balance only affects task sizing, never correctness)."""
    if not refs:
        return []
    idx = sorted(set(np.linspace(0, len(refs) - 1,
                                 min(SAMPLE_BLOCKS, len(refs))).astype(int)))
    tables = [t for t in map(_as_table, ray.get([refs[i] for i in idx]))
              if t is not None]
    if not tables:
        return []
    keys = pa.chunked_array([c for t in tables for c in _pack(t, KEY_COLS).chunks],
                            pa.string())
    return _key_boundaries(keys, n_ranges)


def merge_partials(refs):
    """Partial-block refs (each a :func:`partial_canonicalize` output) →
    the canonical Dataset, sorted by (subj, pred, obj): key boundaries
    sampled from the partials, then one :func:`exchange` under the range
    rule, where each partial block is split into its key ranges once and
    one reduce task per range merges with one vectorized Arrow group_by,
    sorts and unpacks. The shared tail of :func:`canonicalize`, of
    ``run_kg``, whose link tasks return partials directly, and of the
    checkpointed runner's final merge. The reduce
    output stays in the object store (``from_arrow_refs``)."""
    import ray.data as rd

    bounds = _sample_key_boundaries(refs, min(MAX_REDUCERS, cluster_cpus()))
    rule = partial(_range_buckets, pa.array(bounds, pa.string()))
    return rd.from_arrow_refs(exchange(
        [(refs, KEY_COLS, _EMPTY_PARTIAL)], len(bounds) + 1, _merge_range, rule))


def canonicalize(triples_ds, sort: bool = True):
    """Dataset of raw (or pre-canonicalized) triples → canonical deduped
    Dataset, sorted by (subj, pred, obj). Its callers are the benchmark
    and the tests; ``run_kg`` and the checkpointed runner's final merge
    build their partials in plain tasks and call :func:`merge_partials`.

    (1) per-batch combiner (one row per distinct key per batch — the skew
    absorber); (2) a materialize barrier on the partial blocks; (3)
    :func:`merge_partials`. Ray's sort-based groupby on the same partials
    measured 7–12 s of pure orchestration for <2 s of useful work at
    10^6 partial rows, and its groupby/map_groups path took 656.6 s
    against this reduce's 10.5 s on 1066 partial blocks (4 vCPUs).

    The materialize() barrier on the SMALL combiner output is deliberate:
    fusing the merge into the heavy extraction DAG makes the executor
    juggle both and, at low CPU counts, collapses into spill-thrash
    (measured at 8 cpus: merge 22 s fused vs 5 s on materialized input).
    Partial rows are ≤ distinct-keys-per-batch, so pinning costs
    ~rows(canonical), not rows(corpus).

    ``sort`` is accepted and ignored (the output is always sorted); it is
    kept for the benchmark's existing callers and goes when the benchmark
    is next revised."""
    partials = triples_ds.map_batches(
        partial_canonicalize, batch_format="pyarrow", zero_copy_batch=True
    )
    # materialize first: on a lazy Dataset, to_arrow_refs() runs the plan
    # a second time to fetch the schema (Ray 2.49)
    return merge_partials(partials.materialize().to_arrow_refs())
