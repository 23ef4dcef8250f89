"""Canonicalization — exact dedup of triples on normalized keys, the
analogue of the reference's content-addressed ``ExampleStore`` dedup
(recon/store.py:39-47) re-expressed as a combiner + shuffle:

1. **partial pre-aggregation** inside ``map_batches`` (one row per distinct
   triple key per batch) — this is the skew absorber: a mega-repo's hot key
   collapses to one tiny partial row per batch before anything moves, so
   the all-to-all groupby only shuffles pre-reduced rows (SURVEY §4.2;
   the explicit salted path for combiner-less aggs lives in
   recon_ray/functions/relational.py:salted_group_count);
2. **global groupby merge** on the key columns using ONLY built-in
   vectorized aggregates (Sum + Min) — a per-group Python callback
   (map_groups) costs ~1 ms per group and collapses at 10^5+ distinct
   triples, so provenance is packed into a single \\x00-separated string
   whose lexicographic Min equals the (repo, path) tuple-min the
   sequential oracle computes;
3. **sorted materialize** by (subj, pred, obj) — the graph's storage order.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray

KEY_COLS = ["subj", "pred", "obj", "subj_type", "obj_type"]
PROV_COLS = ["repo", "path", "commit", "content_sha256", "extractor"]
_SEP = "\x00"  # sorts before every printable char → string min == tuple min


def _pack_prov(batch: pa.Table) -> pa.Array:
    packed = batch.column(PROV_COLS[0]).cast(pa.string())
    for c in PROV_COLS[1:]:
        packed = pc.binary_join_element_wise(
            packed, batch.column(c).cast(pa.string()), _SEP
        )
    return packed


def partial_canonicalize(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: dedup + count + min-provenance (all Arrow)."""
    t = pa.table(
        {
            **{c: batch.column(c) for c in KEY_COLS},
            "prov": _pack_prov(batch),
            "n_mentions": batch.column("n_mentions")
            if "n_mentions" in batch.column_names
            else pa.array([1] * batch.num_rows, pa.int64()),
        }
    )
    g = t.group_by(KEY_COLS).aggregate([("n_mentions", "sum"), ("prov", "min")])
    return g.rename_columns(KEY_COLS + ["n_mentions", "prov"])


def _unpack(batch: pa.Table) -> pa.Table:
    parts = pc.split_pattern(batch.column("prov"), _SEP)
    cols = {c: batch.column(c) for c in KEY_COLS}
    cols["n_mentions"] = batch.column("n_mentions").cast(pa.int64())
    for i, c in enumerate(PROV_COLS):
        cols[c] = pc.list_element(parts, i)
    return pa.table(cols)


#: 256 (not 64): at 96k files the 64-bucket merge showed 3.5× skew between
#: hottest and mean bucket task (2.9 s vs 0.8 s); 4× more buckets evens the
#: reduce wave and the per-bucket Python overhead stays negligible
N_BUCKETS = 256


def _add_bucket(batch: pa.Table) -> pa.Table:
    import pandas as pd

    key = batch.column("subj").to_pandas()
    for c in KEY_COLS[1:]:
        key = key + _SEP + batch.column(c).to_pandas()
    h = pd.util.hash_pandas_object(key, index=False).to_numpy()
    return batch.append_column(
        "bucket", pa.array((h % N_BUCKETS).astype("int64"), pa.int64())
    )




def _pack_key(batch: pa.Table) -> pa.Array:
    packed = batch.column(KEY_COLS[0]).cast(pa.string())
    for c in KEY_COLS[1:]:
        packed = pc.binary_join_element_wise(
            packed, batch.column(c).cast(pa.string()), _SEP
        )
    return packed


@ray.remote
def _reduce_key_range(lo, hi, *blocks: pa.Table) -> pa.Table:
    """Range-partitioned reduce: gather [lo, hi) of the PACKED key space
    from every map block, merge, sort locally, and UNPACK — the
    concatenation of the range outputs is globally sorted, so the separate
    post-merge sort stage (≈5 s of orchestration at 10^6 rows)
    disappears. Packed-key order refines (subj, pred, obj) order
    deterministically.

    Unpacking happens HERE (not in a downstream map_batches): with the
    executor's default ``preserve_order=False`` a map stage after
    ``from_arrow_refs`` may emit blocks in completion order, silently
    breaking the global sort — the reduce output must already be the
    final table so the sorted Dataset is a pure block source."""
    picked = []
    for b in blocks:
        # empty upstream blocks can arrive schema-less (no columns at
        # all) and even as raw pandas frames (Ray's to_arrow_refs does
        # not convert zero-column pandas blocks)
        if not isinstance(b, pa.Table):
            import pandas as _pd

            if not isinstance(b, _pd.DataFrame) or not len(b.columns):
                continue
            b = pa.Table.from_pandas(b, preserve_index=False)
        if b.num_rows == 0 or KEY_COLS[0] not in b.column_names:
            continue
        key = _pack_key(b)
        mask = None
        if lo is not None:
            mask = pc.greater_equal(key, pa.scalar(lo))
        if hi is not None:
            m2 = pc.less(key, pa.scalar(hi))
            mask = m2 if mask is None else pc.and_(mask, m2)
        t = b if mask is None else b.filter(mask)
        if t.num_rows:
            picked.append(t.select(KEY_COLS + ["n_mentions", "prov"]))
    if not picked:
        return pa.table(
            {
                **{c: pa.array([], pa.string()) for c in KEY_COLS},
                "n_mentions": pa.array([], pa.int64()),
                **{c: pa.array([], pa.string()) for c in PROV_COLS},
            }
        )
    t = pa.concat_tables(picked)
    g = t.group_by(KEY_COLS).aggregate(
        [("n_mentions", "sum"), ("prov", "min")]
    )
    g = g.rename_columns(KEY_COLS + ["n_mentions", "prov"])
    return _unpack(g.sort_by([(c, "ascending") for c in KEY_COLS]))


def _sample_key_boundaries(refs, n_reducers: int) -> list[str]:
    """Quantile boundaries of the packed key space from a block sample
    (deterministic; balance only affects task sizing, never correctness)."""
    import numpy as np

    if not refs:
        return []
    idx = sorted(set(np.linspace(0, len(refs) - 1, min(8, len(refs))).astype(int)))
    tables = ray.get([refs[i] for i in idx])
    keys: list[str] = []
    for t in tables:
        if not isinstance(t, pa.Table):
            import pandas as _pd

            if not isinstance(t, _pd.DataFrame) or not len(t.columns):
                continue
            t = pa.Table.from_pandas(t, preserve_index=False)
        if t.num_rows and KEY_COLS[0] in t.column_names:
            keys.extend(_pack_key(t).to_pylist())
    if not keys:
        return []
    keys.sort()
    bounds = []
    for r in range(1, n_reducers):
        b = keys[min(len(keys) - 1, len(keys) * r // n_reducers)]
        if not bounds or b != bounds[-1]:
            bounds.append(b)
    return bounds


@ray.remote
def _reduce_bucket_range(r: int, n_reducers: int, *blocks: pa.Table) -> pa.Table:
    """One reduce task: gather its bucket range from every map block
    (zero-copy plasma reads on-node; remote fetches on a cluster — the
    same data movement as any shuffle) and merge vectorized."""
    lo = r * N_BUCKETS // n_reducers
    hi = (r + 1) * N_BUCKETS // n_reducers
    picked = []
    for b in blocks:
        if not isinstance(b, pa.Table):
            import pandas as _pd

            if not isinstance(b, _pd.DataFrame) or not len(b.columns):
                continue
            b = pa.Table.from_pandas(b, preserve_index=False)
        if b.num_rows == 0 or "bucket" not in b.column_names:
            continue
        col = b.column("bucket")
        mask = pc.and_(
            pc.greater_equal(col, pa.scalar(lo)), pc.less(col, pa.scalar(hi))
        )
        t = b.filter(mask)
        if t.num_rows:
            picked.append(t)
    if not picked:
        return pa.table(
            {
                **{c: pa.array([], pa.string()) for c in KEY_COLS},
                "n_mentions": pa.array([], pa.int64()),
                "prov": pa.array([], pa.string()),
            }
        )
    t = pa.concat_tables(picked)
    g = t.group_by(KEY_COLS).aggregate(
        [("n_mentions", "sum"), ("prov", "min")]
    )
    return g.rename_columns(KEY_COLS + ["n_mentions", "prov"])


def _merge_bucket_pd(g):
    # fallback-path per-bucket merge (one vectorized call per bucket)
    agg = g.groupby(KEY_COLS, sort=False, as_index=False).agg(
        n_mentions=("n_mentions", "sum"), prov=("prov", "min")
    )
    return agg.drop(columns=[c for c in ("bucket",) if c in agg.columns],
                    errors="ignore")


#: above this many combiner blocks, the explicit reduce (which hands every
#: block ref to every reduce task) degrades to O(blocks × reducers) argument
#: plumbing — fall back to Ray's staged shuffle. The checkpointed runner
#: bounds per-shard block counts far below this; only an unsharded run over
#: a huge corpus trips it.
MAX_REDUCE_FANIN = 1024


def canonicalize(triples_ds, sort: bool = True, n_reducers: int | None = None,
                 max_fanin: int = MAX_REDUCE_FANIN):
    """Dataset of raw (or pre-canonicalized) triples → canonical deduped
    Dataset.

    Two-phase hash aggregation: (1) per-batch combiner (one row per
    distinct key per batch — the skew absorber); (2) bucket merge as
    EXPLICIT reduce tasks over the materialized partial blocks: each of
    ``n_reducers`` tasks filters its bucket range out of every map block
    and merges with one vectorized Arrow group_by. Ray's sort-based
    groupby on the same partials measured 7–12 s of pure orchestration
    (boundary sampling + 2×blocks task waves) for <2 s of useful work at
    10^6 partial rows — the documented raw-task escape hatch applies
    (same all-to-all data movement, none of the sort machinery). The
    reduce output stays in the object store (``from_arrow_refs``).

    The materialize() barrier on the SMALL combiner output is deliberate:
    fusing the merge into the heavy extraction DAG makes the executor
    juggle both and, at low CPU counts, collapses into spill-thrash
    (measured at 8 cpus: merge 22 s fused vs 5 s on materialized input).
    Partial rows are ≤ distinct-keys-per-batch, so pinning costs
    ~rows(canonical), not rows(corpus)."""
    import ray as _ray

    partial = triples_ds.map_batches(
        partial_canonicalize, batch_format="pyarrow", zero_copy_batch=True
    )
    if not sort:  # hash-range reduce routes on the bucket column
        partial = partial.map_batches(
            _add_bucket, batch_format="pyarrow", zero_copy_batch=True
        )
    # materialize first: on a lazy Dataset, to_arrow_refs() runs the plan
    # a second time to fetch the schema (Ray 2.49)
    refs = partial.materialize().to_arrow_refs()
    if n_reducers is None:
        try:
            cpus = int(_ray.cluster_resources().get("CPU", 8))
        except Exception:
            cpus = 8
        n_reducers = max(8, min(N_BUCKETS, cpus))
    import ray.data as rd

    if len(refs) > max_fanin:
        # scale-safety valve: Ray's staged shuffle beats per-task ref
        # plumbing at very high block counts (see MAX_REDUCE_FANIN)
        ds = rd.from_arrow_refs(refs)
        if sort:
            ds = ds.map_batches(
                _add_bucket, batch_format="pyarrow", zero_copy_batch=True
            )
        merged = ds.groupby("bucket").map_groups(
            _merge_bucket_pd, batch_format="pandas"
        )
        out = merged.map_batches(
            _unpack, batch_format="pyarrow", zero_copy_batch=True
        )
        return out.sort(["subj", "pred", "obj"]) if sort else out

    if sort:
        # range-partitioned reduce: each task merges, locally sorts its
        # key range AND unpacks; block order = key order, so the output
        # Dataset is already globally sorted with no stage after the
        # source (a later map stage could re-emit blocks in completion
        # order under preserve_order=False — see _reduce_key_range)
        bounds = _sample_key_boundaries(refs, n_reducers)
        edges = [None, *bounds, None]
        out_refs = [
            _reduce_key_range.remote(edges[i], edges[i + 1], *refs)
            for i in range(len(edges) - 1)
        ]
        return rd.from_arrow_refs(out_refs)
    out_refs = [
        _reduce_bucket_range.remote(r, n_reducers, *refs)
        for r in range(n_reducers)
    ]
    out = rd.from_arrow_refs(out_refs)
    return out.map_batches(
        _unpack, batch_format="pyarrow", zero_copy_batch=True
    )
