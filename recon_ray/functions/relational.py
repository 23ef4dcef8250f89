"""Relational building blocks on Ray Data Datasets.

The reference has no relational joins — only broadcast-dict lookups
(recon/corrections.py:58-81), positional zips, and hash-joins of two
aggregate maps (recon/stats.py:168-186). Generalized here as the standard
distributed shapes (SURVEY §2.5):

- ``broadcast_join``: small side ``ray.put`` once, pandas merge per batch —
  no shuffle. The right tool for dimension tables, vocab, blocklists.
- ``semi_join`` / ``anti_join``: broadcast key set + vectorized isin filter.
- ``exchange``: the split/reduce pair behind every wide step — split
  tasks cut blocks into buckets by a rule (``hash_buckets`` by default;
  canonicalize passes a key-range rule), one reduce task per bucket.
  ``to_table`` collects an exchange result with its columns, even when
  every bucket is empty.
- ``shuffle_join`` / ``shuffle_semi_join``: both sides large — one hash
  exchange with a local Acero join per bucket.
- ``grouped_agg``: combiner pattern — per-batch pandas partial aggregates
  (sum/count/min/max; mean derived as sum/count at merge), then the same
  exchange merges them per bucket. Hot keys arrive pre-reduced (skew
  absorber).
- ``salted_group_count``: the explicit salting path for combiner-less
  aggregations — key ⊕ salt bucket first, merge second (SURVEY §4.2).
- ``local_global_topk``: per-batch top-k then driver merge — no global sort.
- ``distinct``: per-batch dedup then grouped first.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ray.data.aggregate import Count, Sum

AggSpec = dict[str, Sequence[str]]  # col → ["sum","count","min","max","mean"]

N_HASH_BUCKETS = 64


def _get_broadcast(ref_or_obj):
    return ray.get(ref_or_obj) if isinstance(ref_or_obj, ray.ObjectRef) else ref_or_obj


def broadcast_join(
    big_ds,
    small: Union[pd.DataFrame, pa.Table],
    on: Union[str, list[str]],
    how: str = "inner",
    small_on: Optional[Union[str, list[str]]] = None,
):
    """Hash-join a Dataset against a driver-side small table. The small side
    ships to the object store ONCE; every batch task reads it zero-copy."""
    if isinstance(small, pa.Table):
        small = small.to_pandas()
    ref = ray.put(small)
    on_ = [on] if isinstance(on, str) else list(on)
    small_on_ = (
        on_ if small_on is None
        else [small_on] if isinstance(small_on, str) else list(small_on)
    )

    def join_batch(batch: pd.DataFrame) -> pd.DataFrame:
        sm = _get_broadcast(ref)
        return batch.merge(
            sm, left_on=on_, right_on=small_on_, how=how, suffixes=("", "_r")
        )

    return big_ds.map_batches(join_batch, batch_format="pandas")


def semi_join(big_ds, keys: Union[set, pd.DataFrame], on: Union[str, list[str]]):
    return _membership_join(big_ds, keys, on, keep=True)


def anti_join(big_ds, keys: Union[set, pd.DataFrame], on: Union[str, list[str]]):
    return _membership_join(big_ds, keys, on, keep=False)


def _membership_join(big_ds, keys, on, keep: bool):
    on_ = [on] if isinstance(on, str) else list(on)
    if isinstance(keys, pd.DataFrame):
        keys = set(map(tuple, keys[on_].itertuples(index=False)))
    ref = ray.put(keys)

    def filter_batch(batch: pd.DataFrame) -> pd.DataFrame:
        ks = _get_broadcast(ref)
        if len(on_) == 1:
            flat = {k[0] if isinstance(k, tuple) else k for k in ks}
            mask = batch[on_[0]].isin(flat)
        else:
            mask = pd.Series(
                list(map(tuple, batch[on_].itertuples(index=False))), index=batch.index
            ).isin(ks)
        return batch[mask if keep else ~mask]

    return big_ds.map_batches(filter_batch, batch_format="pandas")


def arrow_filter(ds, predicate):
    """Schema-preserving row filter. ``Dataset.filter(expr=...)`` emits
    ZERO-COLUMN blocks for empty inputs (observed on ray 2.49), which
    poisons any downstream hash join ("No match for FieldRef on left
    side") or pandas merge. ``pa.Table.filter`` keeps the schema on
    0-row output, so this is safe to feed into joins at any scale.

    ``predicate``: pa.Table -> boolean Array/ChunkedArray."""
    return ds.map_batches(
        lambda t: t.filter(predicate(t)), batch_format="pyarrow"
    )


def _rebatch(t: pa.Table) -> pa.Table:
    """Join-side batch normalizer: all-NULL input columns decay to
    Arrow's null type, which Acero rejects as a join non-key field —
    cast them to float64 (pure NULLs either way, and pandas/DuckDB see
    DOUBLE NULLs too)."""
    for i, f in enumerate(t.schema):
        if pa.types.is_null(f.type):
            t = t.set_column(
                i, pa.field(f.name, pa.float64()),
                pc.cast(t.column(i), pa.float64()))
    return t


_PA_JOIN_TYPE = {"inner": "inner", "left_outer": "left outer",
                 "right_outer": "right outer", "full_outer": "full outer",
                 "left_semi": "left semi", "left_anti": "left anti"}

# Upper bound on the slice objects one hash exchange creates (input
# blocks × buckets). Each slice is its own object-store entry and the
# driver holds a ref to every one; past the bound, the split tasks take
# several input blocks each, so the object count stays bounded and the
# slices grow instead.
MAX_EXCHANGE_OBJECTS = 16_384


def cluster_cpus() -> int:
    """The cluster's CPU count; 8 when Ray cannot report it."""
    try:
        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        return 8


def hash_buckets(keys, n_buckets: int) -> np.ndarray:
    """The default bucket rule of :func:`exchange`: row ``i`` of the key
    columns ``keys`` (an Arrow table or pandas frame) goes to bucket
    ``hash_pandas_object(keys row i) % n_buckets``.

    Key columns match by POSITION, not name, so two sides bucket alike
    when their key columns are named differently (l_orderkey vs
    o_orderkey). Numeric and bool keys hash as float64: an int64 key in
    one block and the same values as float64 in another (pandas renders
    a nullable int column float64 once the block has a NULL) must land
    in the same bucket, and ``hash_pandas_object`` is dtype-sensitive.
    float64 rounding past 2^53 only merges buckets, never splits a key
    across them."""
    if isinstance(keys, pa.Table):
        keys = keys.to_pandas()
    df = keys.copy(deep=False)
    df.columns = range(df.shape[1])
    for c in df.columns:
        if isinstance(df[c].dtype, pd.CategoricalDtype):
            df[c] = df[c].astype(object)
        elif pd.api.types.is_bool_dtype(df[c]) or \
                pd.api.types.is_numeric_dtype(df[c]):
            df[c] = pd.to_numeric(df[c]).astype("float64")
    h = pd.util.hash_pandas_object(df, index=False).to_numpy()
    return (h % np.uint64(n_buckets)).astype(np.int64)


def bucket_slices(block, buckets: np.ndarray, n_buckets: int) -> tuple:
    """Cut an Arrow or pandas block into ``n_buckets`` slices by the
    per-row bucket ids; every slice keeps the block's columns."""
    rows = [np.flatnonzero(buckets == i) for i in range(n_buckets)]
    if isinstance(block, pa.Table):
        return tuple(block.take(r) for r in rows)
    return tuple(block.iloc[r] for r in rows)


def _concat(parts):
    """Concatenate blocks of one format (Arrow or pandas)."""
    if len(parts) == 1:
        return parts[0]
    if isinstance(parts[0], pa.Table):
        return pa.concat_tables(parts, promote_options="permissive")
    return pd.concat(parts, ignore_index=True)


@ray.remote
def _split_task(key_cols, n_buckets: int, rule, *blocks):
    """Map side of the exchange: concatenate ``blocks`` and cut them into
    ``n_buckets`` slices by ``rule(key columns, n_buckets)``, each its
    OWN object-store entry (``num_returns``) so the driver holds only
    refs. Slices keep the input format. Ray synthesizes zero-column
    empty blocks (repartition or filter of small inputs); blocks without
    the key columns carry no rows, and a group with no keyed block fans
    out as ``n_buckets`` empty slices."""
    keyed = [b for b in blocks if set(key_cols) <= set(
        b.column_names if isinstance(b, pa.Table) else b.columns)]
    if keyed:
        block = _concat(keyed)
        keys = (block.select(list(key_cols)) if isinstance(block, pa.Table)
                else block[list(key_cols)])
        out = bucket_slices(block, rule(keys, n_buckets), n_buckets)
    else:
        out = (blocks[0],) * n_buckets
    return out if n_buckets > 1 else out[0]


def split_blocks(refs, key_cols, n_buckets: int, rule=hash_buckets) -> list:
    """Submit one split task over the block refs ``refs``; return its
    ``n_buckets`` slice refs as a list (also when ``n_buckets == 1``,
    where Ray returns a bare ref)."""
    s = _split_task.options(num_returns=n_buckets).remote(
        tuple(key_cols), n_buckets, rule, *refs)
    return [s] if n_buckets == 1 else list(s)


@ray.remote
def _reduce_task(fn, empties, counts, *slices):
    """Reduce side of the exchange: ``slices`` are this bucket's slices,
    side after side (``counts[i]`` of side i). Top-level arguments, so
    Ray fetches them before the task starts (a nested ref list would
    start it early and block a worker). Concatenates each side (no
    slice with columns: its entry in ``empties``), returns
    ``fn(*tables)``; a key lives wholly in one bucket."""
    tables, at = [], 0
    for n, empty in zip(counts, empties):
        live = [p for p in slices[at:at + n] if len(p.columns)]
        tables.append(_concat(live) if live else empty)
        at += n
    return fn(*tables)


def exchange(sides, n_buckets: int, fn, rule=hash_buckets) -> list:
    """One exchange: ``sides`` is a list of ``(block refs, key columns,
    empty table)``. Blocks are split by ``rule`` on their side's key
    columns, and one reduce task per bucket calls ``fn(side_0_rows,
    side_1_rows, ...)`` on that bucket's rows. Returns the reduce refs
    in bucket order.

    Grouping rule: each split task takes a run of consecutive blocks, so
    that the split tasks fit one wave (at most the cluster's CPUs, or
    one per side) and blocks × buckets stays under
    ``MAX_EXCHANGE_OBJECTS``."""
    n_blocks = sum(len(refs) for refs, _, _ in sides)
    max_tasks = max(cluster_cpus(), len(sides))
    per_task = max(1, -(-n_blocks * n_buckets // MAX_EXCHANGE_OBJECTS),
                   -(-n_blocks // max_tasks))
    while sum(-(-len(refs) // per_task) for refs, _, _ in sides) > max_tasks:
        per_task += 1
    splits = [
        [split_blocks(refs[i:i + per_task], keys, n_buckets, rule)
         for i in range(0, len(refs), per_task)]
        for refs, keys, _ in sides
    ]
    empties = [empty for _, _, empty in sides]
    counts = [len(side) for side in splits]
    return [
        _reduce_task.remote(fn, empties, counts,
                            *[s[i] for side in splits for s in side])
        for i in range(n_buckets)
    ]


def to_table(ds) -> pa.Table:
    """A materialized Dataset, such as an exchange result
    (``from_arrow_refs`` over the reduce refs), as one Arrow table. It
    keeps the columns when every block is empty, where Ray 2.49's
    ``to_pandas`` returns a frame without any. Empty blocks that skipped
    an Arrow UDF stay column-less pandas frames, which ``to_arrow_refs``
    hands through; they are dropped, and with no block left the table
    is the schema's empty one."""
    blocks = [b for b in ray.get(ds.to_arrow_refs())
              if isinstance(b, pa.Table) or len(b)]
    if not blocks:
        return ds.schema().base_schema.empty_table()
    return pa.concat_tables(blocks, promote_options="default")


def _arrow_type(t) -> Optional[pa.DataType]:
    """A Dataset schema type (Arrow, or a numpy dtype for pandas
    blocks) as an Arrow type; None when it has none (object)."""
    if t is None or isinstance(t, pa.DataType):
        return t
    try:
        return pa.from_numpy_dtype(t)
    except (pa.ArrowNotImplementedError, TypeError, ValueError):
        return None


def _schema_types(sch, cols) -> list:
    if sch is None:
        return [None] * len(cols)
    types = dict(zip(sch.names, sch.types))
    return [_arrow_type(types.get(c)) for c in cols]


def _empty_side(sch, keys, other_key_types) -> pa.Table:
    """The 0-row table an all-empty join side joins as: ``sch``'s
    columns (the side's schema taken before the rebatch, which turns
    an empty side into one zero-column block), a key whose type is
    unknown takes the other side's key type, and any other unknown
    type becomes float64 (Acero rejects null-type non-key fields)."""
    names = list(sch.names) if sch is not None else list(keys)
    types = _schema_types(sch, names)
    key_type = dict(zip(keys, other_key_types))
    fields = []
    for n, t in zip(names, types):
        if t is None or pa.types.is_null(t):
            t = key_type.get(n) or pa.float64()
        fields.append(pa.field(n, t))
    return pa.schema(fields).empty_table()


def _to_f64(t: pa.Table, cols) -> pa.Table:
    for c in cols:
        i = t.schema.get_field_index(c)
        t = t.set_column(i, pa.field(c, pa.float64()),
                         pc.cast(t.column(c), pa.float64()))
    return t


def _hash_join(left_ds, right_ds, on_, r_on, how: str,
               num_partitions: Optional[int]):
    """Both joins' body: rebatch and pin each side, then one
    :func:`exchange` whose reduce runs a local Acero join per
    bucket (same engine and semantics as Ray's ``Dataset.join``).

    Both sides are re-batched with an explicit batch_size: Ray
    synthesizes ZERO-COLUMN empty blocks (repartition of small inputs,
    ``filter(expr=...)``) and passes them through map_batches without
    calling the UDF; the explicit-batch_size batcher consumes blocks
    into batches, where empties vanish."""
    import ray.data as rd

    if how not in _PA_JOIN_TYPE:
        raise ValueError(f"unsupported join type {how!r}; "
                         f"one of {sorted(_PA_JOIN_TYPE)}")
    if num_partitions is None:
        num_partitions = max(8, cluster_cpus())
    lm = left_ds.map_batches(
        _rebatch, batch_format="pyarrow", batch_size=65536).materialize()
    rm = right_ds.map_batches(
        _rebatch, batch_format="pyarrow", batch_size=65536).materialize()
    # an all-empty side leaves the rebatch as one zero-column block:
    # take its schema from before the rebatch
    lsch = lm.schema() or left_ds.schema()
    rsch = rm.schema() or right_ds.schema()
    l_types, r_types = _schema_types(lsch, on_), _schema_types(rsch, r_on)

    # Acero rejects mismatched join key types. Numeric mismatches are
    # legitimate inputs (an ALL-NULL pandas Int64 key upcasts to
    # float64 on one side while the other stays int64), so both sides'
    # keys normalize to float64 when a numeric pair disagrees — equal
    # values stay equal, non-integral floats still match nothing.
    def _numeric(t):
        return t is not None and (pa.types.is_integer(t)
                                  or pa.types.is_floating(t))

    pairs = [(lc, rc) for lc, rc, a, b in zip(on_, r_on, l_types, r_types)
             if _numeric(a) and _numeric(b) and a != b]
    l_casts = [lc for lc, _ in pairs]
    r_casts = [rc for _, rc in pairs]
    join_type = _PA_JOIN_TYPE[how]

    def join(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return _to_f64(lt, l_casts).join(
            _to_f64(rt, r_casts), keys=list(on_), right_keys=list(r_on),
            join_type=join_type, right_suffix="_r")

    out = exchange(
        [(lm.to_arrow_refs(), on_, _empty_side(lsch, on_, r_types)),
         (rm.to_arrow_refs(), r_on, _empty_side(rsch, r_on, l_types))],
        num_partitions, join)
    return rd.from_arrow_refs(out)


def shuffle_join(
    left_ds,
    right_ds,
    on: Union[str, list[str]],
    right_on: Optional[Union[str, list[str]]] = None,
    how: str = "inner",
    num_partitions: Optional[int] = None,
):
    """Both-sides-large hash join: each side splits on the key into
    ``num_partitions`` hash buckets (:func:`exchange`) and each
    bucket joins locally. Use when neither side fits a broadcast; keys
    should be pre-salted upstream if one key is hot. ``how`` is one of
    inner / left_outer / right_outer / full_outer / left_semi /
    left_anti; right-side columns that clash take an ``_r`` suffix."""
    on_ = (on,) if isinstance(on, str) else tuple(on)
    r_on = (
        on_ if right_on is None
        else (right_on,) if isinstance(right_on, str) else tuple(right_on)
    )
    return _hash_join(left_ds, right_ds, on_, r_on, how, num_partitions)


def grouped_agg(ds, keys: Union[str, list[str]], aggs: AggSpec,
                n_buckets: int = N_HASH_BUCKETS):
    """Pre-aggregated groupby. Output columns named ``{col}_{agg}``.

    Each batch reduces to pandas partials (sum/count/min/max), and the
    partials merge through one :func:`exchange` over ``n_buckets``
    buckets: one pandas groupby per bucket (counts merge by SUM,
    min/max by themselves). The merge stays in pandas because
    ``pd.concat`` unifies an int64 partial-key block with a float64
    one, where Arrow concatenation would not."""
    keys_ = [keys] if isinstance(keys, str) else list(keys)
    # which partials each requested agg needs
    partial_cols: list[tuple[str, str]] = []  # (col, op) with op in sum/count/min/max
    for col, ops in aggs.items():
        for op in ops:
            if op == "mean":
                partial_cols += [(col, "sum"), (col, "count")]
            else:
                partial_cols.append((col, op))
    partial_cols = sorted(set(partial_cols))

    # NULL groups in object keys ride the exchange as a sentinel and
    # decode after the merge (SQL GROUP BY keeps NULL groups, so must
    # we): a NULL then hashes and groups alike in every partial block,
    # whatever dtype pandas gave that block's key.
    _NULLK = "\x00__NULL__"

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(keys_, sort=False, dropna=False)
        out = {}
        for col, op in partial_cols:
            s = getattr(g[col], op)()
            out[f"__{col}__{op}"] = s
        res = pd.DataFrame(out).reset_index()
        for k in keys_:
            # an all-NULL batch slice degrades an object key to float64 —
            # check the SOURCE column's dtype, not the partial's
            if batch[k].dtype == object:
                res[k] = res[k].astype(object).where(
                    res[k].notna(), _NULLK
                )
        return res

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return g
        gb = g.groupby(keys_, sort=False, dropna=False)
        out = {}
        for col, op in partial_cols:
            name = f"__{col}__{op}"
            mop = "sum" if op in ("sum", "count") else op
            out[name] = getattr(gb[name], mop)()
        return pd.DataFrame(out).reset_index()

    # explicit batch_size: coalesces the partials into few blocks
    refs = ds.map_batches(partial, batch_format="pandas").map_batches(
        lambda b: b, batch_format="pandas", batch_size=65536
    ).materialize().to_pandas_refs()
    merged = pd.concat(
        ray.get(exchange([(refs, keys_, pd.DataFrame())], n_buckets, merge)),
        ignore_index=True,
    )
    if merged.empty and not all(k in merged.columns for k in keys_):
        # an all-empty input has no partial columns to merge;
        # reconstruct the output columns (float64 — callers cast)
        cols = keys_ + [
            f"{col}_{op}" for col, ops in aggs.items() for op in ops
        ]
        return pd.DataFrame({c: pd.Series(dtype="float64") for c in cols})
    for k in keys_:
        if merged[k].dtype == object:
            # where (not replace): no silent-downcasting FutureWarning,
            # and key columns stay object even when all-NULL
            merged[k] = merged[k].where(merged[k] != _NULLK, np.nan)
    out = merged[keys_].copy()
    for col, ops in aggs.items():
        for op in ops:
            if op == "mean":
                out[f"{col}_mean"] = (
                    merged[f"__{col}__sum"] / merged[f"__{col}__count"]
                )
            else:
                out[f"{col}_{op}"] = merged[f"__{col}__{op}"]
    return out


def group_count(ds, keys: Union[str, list[str]], alias: str = "count") -> pd.DataFrame:
    keys_ = [keys] if isinstance(keys, str) else list(keys)
    # NULL groups in object keys ride the shuffle as a sentinel (Ray's
    # sort-based groupby can't order NaN-float/str mixes) — same rule as
    # grouped_agg
    _NULLK = "\x00__NULL__"

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        res = (
            batch.groupby(keys_, sort=False, dropna=False)
            .size()
            .rename("__partial")
            .reset_index()
        )
        for k in keys_:
            if batch[k].dtype == object:
                res[k] = res[k].astype(object).where(res[k].notna(), _NULLK)
        return res

    merged = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(keys_)
        .aggregate(Sum("__partial", alias_name=alias))
        .to_pandas()
    )
    for k in keys_:
        if k in merged.columns and merged[k].dtype == object:
            # where (not replace): no silent-downcasting FutureWarning,
            # and key columns stay object even when all-NULL
            merged[k] = merged[k].where(merged[k] != _NULLK, np.nan)
    if merged.empty and alias not in merged.columns:
        # an all-empty input loses its schema through Ray's Aggregate
        # (same reconstruction as grouped_agg)
        return pd.DataFrame(
            {**{k: pd.Series(dtype="object") for k in keys_},
             alias: pd.Series(dtype="int64")}
        )
    merged[alias] = merged[alias].astype("int64")
    return merged


def salted_group_count(
    ds, keys: Union[str, list[str]], n_salts: int = 16, alias: str = "count"
) -> pd.DataFrame:
    """Two-phase count with an EXPLICIT salt column: phase 1 groups on
    (keys, salt) so a hot key splits across n_salts reducers; phase 2 merges
    the per-salt partials. Use when the per-batch combiner can't run (e.g.
    map_groups logic); otherwise grouped_agg's combiner already absorbs skew."""
    keys_ = [keys] if isinstance(keys, str) else list(keys)

    def add_salt(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["__salt"] = np.arange(len(batch)) % n_salts
        return batch

    salted = ds.map_batches(add_salt, batch_format="pandas")
    phase1 = (
        salted.groupby(keys_ + ["__salt"])
        .aggregate(Count(alias_name="__c"))
    )
    phase2 = phase1.groupby(keys_).aggregate(Sum("__c", alias_name=alias)).to_pandas()
    phase2[alias] = phase2[alias].astype("int64")
    return phase2.drop(columns=[c for c in ["__salt"] if c in phase2], errors="ignore")


def local_global_topk(
    ds, by: Union[str, list[str]], k: int, descending: bool = True,
    columns: Optional[list[str]] = None,
) -> pd.DataFrame:
    """Top-k without a global sort: each batch emits its local top-k, the
    driver merges ≤ k×n_batches rows."""
    by_ = [by] if isinstance(by, str) else list(by)

    def local(batch: pd.DataFrame) -> pd.DataFrame:
        if columns:
            batch = batch[columns]
        return batch.sort_values(by_, ascending=not descending,
                                 kind="mergesort").head(k)

    parts = ds.map_batches(local, batch_format="pandas").to_pandas()
    return (
        parts.sort_values(by_, ascending=not descending, kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )




def _add_hash_bucket(key_cols: list[str], n_buckets: int):
    def add(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["__bucket"] = hash_buckets(batch[key_cols], n_buckets)
        return batch

    return add


def bucketed_group_apply(ds, key_cols: Union[str, list[str]], bucket_fn,
                         n_buckets: int = N_HASH_BUCKETS):
    """Group-wise apply WITHOUT the per-distinct-key Python-callback trap:
    rows shuffle on :func:`hash_buckets` (every row of a key lands in one
    bucket), and ``bucket_fn`` runs once per BUCKET — bounded at n_buckets
    calls total — with a fully vectorized pandas body over all keys in the
    bucket. A plain ``groupby(key).map_groups`` costs ~1 ms of interpreter
    overhead per DISTINCT KEY (measured in canonicalize.py) and collapses
    when distinct keys ≈ corpus size.

    The shuffle is Ray's ``groupby("__bucket").map_groups``: it groups on
    only n_buckets keys and streams Arrow blocks, and on row-scale input
    it measured faster than a task exchange (sf0.1 triangle census:
    0.7–0.8 s vs 1.2–1.7 s, whose materialize barrier and pandas block
    shipping scale with input size). A prototype on :func:`exchange`,
    with reduce slices passed as top-level arguments, ran
    ``triangle_stats`` over the benchmark's exchange edges (seeds 1–3,
    4 vCPUs) in a median of 7.6–8.1 s against 1.3–1.4 s on this path."""
    key_cols_ = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    tagged = ds.map_batches(
        _add_hash_bucket(key_cols_, n_buckets), batch_format="pandas",
        batch_size=65536,
    )
    return tagged.groupby("__bucket").map_groups(
        lambda g: bucket_fn(g.drop(columns="__bucket")), batch_format="pandas"
    )


def distinct(ds, cols: Union[str, list[str]]):
    """Exact distinct on a column subset: per-batch dedup (combiner), then
    a bucketed global dedup (one vectorized call per hash bucket, not one
    per distinct key)."""
    cols_ = [cols] if isinstance(cols, str) else list(cols)
    pre = ds.map_batches(
        lambda b: b[cols_].drop_duplicates(), batch_format="pandas"
    )
    return bucketed_group_apply(pre, cols_, lambda g: g.drop_duplicates(cols_))


def _set_op(a_ds, b_ds, cols: Union[str, list[str]], op: str,
            n_buckets: int = N_HASH_BUCKETS):
    """SQL INTERSECT / EXCEPT (distinct set semantics) in ONE hash shuffle:
    per-batch distinct combiners slim each side, a side tag rides the
    union, and each hash bucket resolves membership vectorized (min/max of
    the 0/1 side flag per key). No driver collection, no per-key callback."""
    cols_ = [cols] if isinstance(cols, str) else list(cols)

    def pre(side: int):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            out = b[cols_].drop_duplicates()
            return out.assign(__side=np.int64(side))

        return f

    u = a_ds.map_batches(pre(0), batch_format="pandas").union(
        b_ds.map_batches(pre(1), batch_format="pandas")
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        piv = g.groupby(cols_, sort=False)["__side"].agg(["min", "max"])
        if op == "intersect":
            keep = piv[(piv["min"] == 0) & (piv["max"] == 1)]
        else:  # except: in a, absent from b
            keep = piv[piv["max"] == 0]
        return keep.reset_index()[cols_]

    return bucketed_group_apply(u, cols_, per_bucket, n_buckets=n_buckets)


def intersect(a_ds, b_ds, cols: Union[str, list[str]]):
    """Distinct rows (over ``cols``) present in BOTH datasets — SQL
    INTERSECT (SURVEY §2.8; the reference's set ops are in-memory list
    intersections, e.g. label_disparities' span-set overlap)."""
    return _set_op(a_ds, b_ds, cols, "intersect")


def difference(a_ds, b_ds, cols: Union[str, list[str]]):
    """Distinct rows (over ``cols``) in ``a_ds`` and NOT in ``b_ds`` —
    SQL EXCEPT."""
    return _set_op(a_ds, b_ds, cols, "except")


def asof_join(
    left_ds,
    right_ds,
    by: str,
    on: str,
    suffix: str = "_r",
    direction: str = "backward",
    n_buckets: int = N_HASH_BUCKETS,
):
    """As-of join — for each left row, the single right row with the same
    ``by`` key whose ``on`` is the greatest value ≤ the left's ``on``
    (direction="backward"; "forward" mirrors it). Inner semantics:
    unmatched left rows drop.

    Ray Data has no as-of join; this is the co-partitioned composition
    (SURVEY §2.5 custom-operator path (a)): tag both sides, union them,
    hash-shuffle ONCE on ``by`` (every key's rows — both sides — land in
    one bucket), then one vectorized ``pandas.merge_asof`` per BUCKET.
    Python callbacks are bounded at n_buckets, not at distinct keys.

    Partitioning assumption: a bucket's rows fit one pandas frame. Keys
    are hash-spread across buckets, so this holds unless a single ``by``
    key is itself object-store-sized — such hot keys would need a
    secondary time-range split inside the bucket.

    Right non-key columns come back ``suffix``-renamed; right numeric
    columns ride through the union as nullable (pandas float) — cast at
    the consumer if exact integer dtype matters.
    """
    def _pa_schema(ds) -> pa.Schema:
        base = ds.schema().base_schema
        if isinstance(base, pa.Schema):
            return base
        # pandas-backed blocks expose numpy dtypes; object columns are text
        fields = []
        for n, t in zip(base.names, base.types):
            if isinstance(t, pa.DataType):
                fields.append((n, t))
            else:
                try:
                    fields.append((n, pa.from_numpy_dtype(t)))
                except (pa.ArrowNotImplementedError, TypeError):
                    fields.append((n, pa.string()))
        return pa.schema(fields)

    left_schema = _pa_schema(left_ds)
    right_schema = _pa_schema(right_ds)
    l_cols = list(left_schema.names)
    r_cols = list(right_schema.names)
    r_keep = [c for c in r_cols if c != by]
    r_renamed = [c + suffix for c in r_keep]
    on_r = on + suffix
    out_r_cols = [on_r] + [c for c in r_renamed if c != on_r]

    # capture only the pa.Schemas in the task closures, never the Datasets
    def widen_left(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        for c, src in zip(r_renamed, r_keep):
            batch = batch.append_column(
                c, pa.nulls(n, right_schema.field(src).type)
            )
        return batch.append_column("__side", pa.array(np.zeros(n, np.int8)))

    def widen_right(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {c + suffix: batch.column(c) for c in r_keep}
        cols[by] = batch.column(by)
        arrays, names = [], []
        for c in l_cols:
            if c in cols:
                arrays.append(cols[c]); names.append(c)
            else:
                arrays.append(pa.nulls(n, left_schema.field(c).type))
                names.append(c)
        for c in r_renamed:
            arrays.append(cols[c]); names.append(c)
        arrays.append(pa.array(np.ones(n, np.int8)))
        names.append("__side")
        return pa.table(dict(zip(names, arrays)))

    tagged = left_ds.map_batches(
        widen_left, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        right_ds.map_batches(
            widen_right, batch_format="pyarrow", zero_copy_batch=True
        )
    )

    out_cols = l_cols + out_r_cols

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["__side"] == 0][l_cols].sort_values(on, kind="mergesort")
        r = (
            g[g["__side"] == 1][[by] + out_r_cols]
            .sort_values(on_r, kind="mergesort")
        )
        if l.empty or r.empty:
            return pd.DataFrame(
                {c: pd.Series(dtype=g[c].dtype) for c in out_cols}
            )
        out = pd.merge_asof(
            l, r, left_on=on, right_on=on_r, by=by, direction=direction
        )
        return out.dropna(subset=[on_r])[out_cols]

    return bucketed_group_apply(tagged, by, bucket_fn, n_buckets=n_buckets)


def window_over(
    ds,
    partition_by: Union[str, list[str]],
    order_by: Union[str, list[str]],
    specs: list[tuple],
    n_buckets: int = N_HASH_BUCKETS,
    ascending: bool = True,
):
    """Partitioned window functions — the ``OVER (PARTITION BY … ORDER BY
    …)`` family Ray Data has no operator for. ``specs`` is a list of
    ``(kind, value_col, out_name)`` with kind ∈ {"row_number", "rank",
    "dense_rank", "running_sum", "running_min", "running_max", "lag",
    "lead", "ffill" (LOCF), "percent_rank", "ntile", "cume_dist",
    "first_value",
    "last_value" (whole-partition frame), "partition_sum" (no ORDER —
    ratio-to-report totals)} (value_col is ignored for the rank-family
    kinds; ties for
    rank/dense_rank are rows equal on every order_by column — NaN order
    keys each start their own run, unlike SQL's NULLs-are-equal).

    Execution (SURVEY §2.5 custom-operator path (a)): ONE hash shuffle on
    ``partition_by`` (every partition's rows land in one bucket), then per
    BUCKET one vectorized pandas pass — mergesort by (partition, order),
    grouped cumsum/cumcount/cummin/cummax/shift, all C kernels. Python
    callbacks are bounded at n_buckets, never at distinct partitions.

    Determinism: exact iff ``order_by`` is a total order within each
    partition (pass a unique tie-break column). Float running_sum
    accumulates IN ORDER — engines that use tree/segment accumulation
    (DuckDB window SUM) can differ in last-ulp rounding; quantize to
    int64 first when cross-engine exactness matters (the repo-wide
    integer-cents pattern). lag/lead emit NaN/None at partition edges —
    fillna at the consumer if the schema needs to stay integral.
    """
    part_cols = (
        [partition_by] if isinstance(partition_by, str) else list(partition_by)
    )
    order_cols = [order_by] if isinstance(order_by, str) else list(order_by)
    kinds = {"row_number", "rank", "dense_rank", "running_sum",
             "running_min", "running_max", "lag", "lead", "ffill",
             "percent_rank", "ntile", "cume_dist", "first_value",
             "last_value", "partition_sum", "rolling_sum", "rolling_min",
             "rolling_max"}
    for kind, _col, _out in specs:
        # bounded-frame kinds carry the frame length in the kind string:
        # "rolling_sum:3" = ROWS BETWEEN 2 PRECEDING AND CURRENT ROW;
        # "lag:2" / "lead:2" = SQL's offset argument (default 1)
        base = kind.split(":", 1)[0]
        if base not in kinds:
            raise ValueError(f"unknown window kind {kind!r}")
        if base.startswith("rolling_") and (
            ":" not in kind or not kind.split(":", 1)[1].isdigit()
            or int(kind.split(":", 1)[1]) < 1
        ):
            raise ValueError(
                f"{base} needs a positive frame length, e.g. '{base}:3'"
            )
        if base in ("lag", "lead") and ":" in kind and (
            not kind.split(":", 1)[1].isdigit()
            or int(kind.split(":", 1)[1]) < 1
        ):
            raise ValueError(
                f"{base} offset must be a positive integer, e.g. "
                f"'{base}:2'")

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        # ascending=False flips the ORDER BY direction (DESC); NaN
        # order keys sort last either way, matching DuckDB's default
        # NULLS LAST in both directions
        g = g.sort_values(
            part_cols + order_cols,
            ascending=[True] * len(part_cols)
            + [bool(ascending)] * len(order_cols),
            kind="mergesort")
        # dropna=False: SQL PARTITION BY treats NULL keys as ONE
        # partition (sorted to the end, so its rows are contiguous);
        # the default would silently drop those rows from every window
        grp = g.groupby(part_cols, sort=False, dropna=False)
        need_rank = any(
            k in ("rank", "dense_rank", "percent_rank", "cume_dist")
            for k, _c, _o in specs
        )
        if need_rank:
            # a tie run = consecutive rows equal on (partition, order)
            keyed = g[part_cols + order_cols]
            new_run = keyed.ne(keyed.shift()).any(axis=1)
            run_id = new_run.cumsum()
            rn = (grp.cumcount() + 1).astype("int64")
        part_key = [g[c] for c in part_cols]
        out = {}
        for kind, col, name in specs:
            if kind == "row_number":
                out[name] = (grp.cumcount() + 1).astype("int64")
            elif kind == "rank":
                # SQL RANK(): row_number of the tie run's first row
                out[name] = rn.groupby(run_id).transform("first")
            elif kind == "dense_rank":
                # distinct tie runs so far within the partition
                out[name] = (
                    new_run.astype("int64")
                    .groupby(part_key, dropna=False).cumsum()
                )
            elif kind in ("running_sum", "running_min", "running_max"):
                # SQL aggregate-over-frame semantics: NULL inputs are
                # SKIPPED (the running value carries past them); the
                # result is NULL only while NO non-null value has been
                # seen. pandas cum* instead leaves NaN AT null positions.
                vals = g[col]
                if vals.isna().any():
                    seen = (vals.notna().astype("int64")
                            .groupby(part_key, dropna=False).cumsum())
                    if kind == "running_sum":
                        acc = (vals.fillna(0)
                               .groupby(part_key, dropna=False).cumsum())
                    elif kind == "running_min":
                        acc = (vals.fillna(np.inf)
                               .groupby(part_key, dropna=False).cummin())
                    else:
                        acc = (vals.fillna(-np.inf)
                               .groupby(part_key, dropna=False).cummax())
                    out[name] = acc.where(seen > 0)
                elif kind == "running_sum":
                    out[name] = grp[col].cumsum()
                elif kind == "running_min":
                    out[name] = grp[col].cummin()
                else:
                    out[name] = grp[col].cummax()
            elif kind.split(":", 1)[0] in ("lag", "lead"):
                base_k, _, off_s = kind.partition(":")
                off = int(off_s) if off_s else 1
                out[name] = grp[col].shift(
                    off if base_k == "lag" else -off)
            elif kind == "ffill":
                # LOCF: last non-NULL value up to the current row — SQL's
                # last_value(col IGNORE NULLS) OVER (... ROWS UNBOUNDED
                # PRECEDING); leading NULLs stay NULL
                out[name] = grp[col].ffill()
            elif kind == "percent_rank":
                # SQL PERCENT_RANK(): (rank-1)/(n-1), 0.0 for n == 1
                r = rn.groupby(run_id).transform("first")
                n = grp[order_cols[0]].transform("size").astype("int64")
                out[name] = np.where(n > 1, (r - 1) / (n - 1).clip(lower=1),
                                     0.0)
            elif kind == "cume_dist":
                # SQL CUME_DIST(): rows with order key ≤ current over n —
                # the tie run's LAST row_number / partition size; the one
                # float op is a single int/int division (IEEE-exact both
                # engines)
                r_last = rn.groupby(run_id).transform("last")
                n = grp[order_cols[0]].transform("size").astype("int64")
                out[name] = r_last / n
            elif kind == "first_value":
                # positional, NOT transform("first"): SQL FIRST_VALUE
                # respects NULLs (a NULL in the partition's first row IS
                # the answer), while pandas "first" skips NaN
                v = g[col].to_numpy()
                pos = np.arange(len(g))
                starts = (grp.cumcount() == 0).to_numpy()
                out[name] = pd.Series(
                    v[np.maximum.accumulate(np.where(starts, pos, -1))],
                    index=g.index,
                )
            elif kind == "last_value":
                # partition-final value, i.e. SQL last_value(...) with the
                # ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING
                # frame (the default CURRENT ROW frame makes last_value a
                # no-op; nobody wants that); positional for NULL-respect
                v = g[col].to_numpy()
                pos = np.arange(len(g))
                starts = (grp.cumcount() == 0).to_numpy()
                ends = np.empty(len(g), dtype=bool)
                if len(g):
                    ends[:-1] = starts[1:]
                    ends[-1] = True
                arr = np.where(ends, pos, len(g))
                out[name] = pd.Series(
                    v[np.minimum.accumulate(arr[::-1])[::-1]],
                    index=g.index,
                )
            elif kind == "partition_sum":
                # sum(x) OVER (PARTITION BY g) — no ORDER, whole-partition
                # total; the ratio-to-report building block
                out[name] = grp[col].transform("sum")
            elif kind == "ntile":
                # SQL NTILE(col): col is the tile count; the first
                # (n mod t) tiles get the extra row
                t = int(col)
                idx = grp.cumcount().astype("int64")
                n = grp[order_cols[0]].transform("size").astype("int64")
                base_sz, extra = n // t, n % t
                big_span = (base_sz + 1) * extra
                in_big = idx < big_span
                out[name] = np.where(
                    in_big,
                    idx // np.maximum(base_sz + 1, 1) + 1,
                    extra + (idx - big_span)
                    // np.maximum(base_sz, 1) + 1,
                ).astype("int64")
            elif kind.startswith("rolling_"):
                # bounded frame: ROWS BETWEEN k-1 PRECEDING AND CURRENT
                # ROW; frame length rides in the kind ("rolling_sum:3")
                base_k, k_str = kind.split(":", 1)
                roll = grp[col].rolling(window=int(k_str), min_periods=1)
                res = getattr(roll, base_k[len("rolling_"):])()
                res.index = res.index.get_level_values(-1)
                res = res.reindex(g.index)
                if pd.api.types.is_integer_dtype(g[col]):
                    # rolling promotes to float64; exact for |sum| < 2^53
                    res = res.astype("int64")
                out[name] = res
        return g.assign(**out)

    return bucketed_group_apply(ds, part_cols, bucket_fn, n_buckets=n_buckets)


def range_join(
    big_ds,
    ranges: Union[pd.DataFrame, pa.Table],
    on: str,
    lo: str = "lo",
    hi: str = "hi",
    closed: str = "left",
):
    """Interval join: each big-side row pairs with EVERY range row whose
    [lo, hi) contains its ``on`` value (closed="left"; "both" includes hi).
    Overlapping ranges multi-match — one output row per (row, range) pair.

    Ray Data has no interval join; the standard distributed shape is a
    broadcast: the range table ships via ``ray.put`` once (range tables —
    price bands, time buckets, geo tiers — are small by construction), and
    each batch evaluates all ranges with vectorized comparisons: O(n_ranges)
    numpy ops per batch, no shuffle at all. A billion-row big side streams
    through untouched."""
    if isinstance(ranges, pa.Table):
        ranges = ranges.to_pandas()
    ranges = ranges.reset_index(drop=True)
    ref = ray.put(ranges)

    def join_batch(batch: pd.DataFrame) -> pd.DataFrame:
        r = _get_broadcast(ref)
        v = batch[on].to_numpy()
        parts = []
        for i in range(len(r)):
            lo_v, hi_v = r[lo].iloc[i], r[hi].iloc[i]
            mask = (v >= lo_v) & ((v <= hi_v) if closed == "both" else (v < hi_v))
            if not mask.any():
                continue
            hit = batch[mask].reset_index(drop=True)
            for c in r.columns:
                hit[c] = r[c].iloc[i]
            parts.append(hit)
        if not parts:
            out = batch.head(0).copy()
            for c in r.columns:
                out[c] = pd.Series(dtype=r[c].dtype)
            return out
        return pd.concat(parts, ignore_index=True)

    return big_ds.map_batches(join_batch, batch_format="pandas")


def dataset_diff(a_ds, b_ds, id_col: str = "doc_id",
                 content_cols: Union[str, list[str]] = "text"):
    """Content-addressed diff between two VERSIONS of a table — the
    distributed analogue of the reference's per-op Transformation records
    (recon/types.py:211-221: EXAMPLE_ADDED/REMOVED/CHANGED): rows are
    matched by ``id_col``, equality is a sha256-u64 over ``content_cols``.

    Returns a lazy Dataset ``(id_col, status)`` with status ∈
    {'added', 'removed', 'changed'} — unchanged rows are dropped (at
    100 TB the diff is the small output; never materialize the equal
    mass). Shape: each side maps to narrow ``(id, content_hash, side)``
    rows (16 B + flag — payloads never shuffle), both ride ONE shared
    hash-bucket shuffle on ``id``, and each bucket resolves its ids with
    a vectorized pandas groupby (ids land whole in one bucket).
    """
    cols_ = (
        [content_cols] if isinstance(content_cols, str) else list(content_cols)
    )

    def prep(side: int):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            import hashlib

            hs = np.empty(len(b), dtype=np.int64)
            packed = zip(*(b[c].astype(str) for c in cols_)) if cols_ else []
            for i, parts in enumerate(packed):
                m = hashlib.sha256()
                for p in parts:
                    m.update(p.encode())
                    m.update(b"\x00")
                hs[i] = int.from_bytes(m.digest()[:8], "little", signed=True)
            return pd.DataFrame(
                {id_col: b[id_col].to_numpy(), "__h": hs,
                 "__side": np.full(len(b), side, dtype=np.int8)}
            )

        return f

    tagged = a_ds.map_batches(prep(0), batch_format="pandas").union(
        b_ds.map_batches(prep(1), batch_format="pandas")
    )

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        piv = g.pivot_table(
            index=id_col, columns="__side", values="__h", aggfunc="first"
        )
        for side in (0, 1):
            if side not in piv.columns:
                piv[side] = np.nan
        a, b = piv[0], piv[1]
        status = np.where(
            a.isna(), "added",
            np.where(b.isna(), "removed",
                     np.where(a != b, "changed", "")),
        )
        out = pd.DataFrame({id_col: piv.index.to_numpy(), "status": status})
        return out[out["status"] != ""]

    return bucketed_group_apply(tagged, id_col, bucket_fn)


def rollup_agg(ds, keys: list[str], aggs: AggSpec,
               total_label: str = "__all__") -> pd.DataFrame:
    """GROUP BY ROLLUP over ``keys``: the finest level runs as ONE
    distributed pre-aggregated groupby (`grouped_agg` — per-batch
    combiners, a single key shuffle); every coarser level (prefixes of
    ``keys``, down to the grand total) derives from the finest partials
    with driver-side pandas re-aggregation — sums/counts/mins/maxes
    compose exactly, means recompose from sum+count, so no second pass
    over the data. Rolled-up key slots carry ``total_label``.

    Supported aggs: sum / count / min / max / mean. Output columns are
    ``{col}_{agg}`` like grouped_agg.
    """
    sets = [tuple(keys[:i]) for i in range(len(keys), -1, -1)]
    return grouping_sets_agg(ds, keys, sets, aggs, total_label)


def grouping_sets_agg(ds, keys: list[str], sets: list[tuple],
                      aggs: AggSpec, total_label: str = "__all__"
                      ) -> pd.DataFrame:
    """GROUPING SETS over ``keys``: like `rollup_agg` but with explicit
    sets (each a tuple of key-subset names). Same execution shape — ONE
    distributed finest-level groupby, every set recomposed from those
    partials on the driver."""
    need: dict[str, list[str]] = {}
    for col, ops in aggs.items():
        s = set()
        for op in ops:
            s.update(("sum", "count") if op == "mean" else (op,))
        need[col] = sorted(s)
    finest = grouped_agg(ds, keys, need)
    how = {}
    for col, ops in need.items():
        for op in ops:
            how[f"{col}_{op}"] = "sum" if op in ("sum", "count") else op

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df[keys].copy() if len(df) else pd.DataFrame(columns=keys)
        for col, ops in aggs.items():
            for op in ops:
                if op == "mean":
                    out[f"{col}_mean"] = df[f"{col}_sum"] / df[f"{col}_count"]
                else:
                    out[f"{col}_{op}"] = df[f"{col}_{op}"]
        return out

    levels = []
    for gset in sets:
        gkeys = [k for k in keys if k in set(gset)]
        if gkeys == keys:
            levels.append(finish(finest))
            continue
        if gkeys:
            rolled = finest.groupby(
                gkeys, as_index=False, dropna=False
            ).agg(how)
        else:
            rolled = finest[list(how)].agg(how).to_frame().T.reset_index(
                drop=True
            )
        for k in keys:
            if k not in gkeys:
                rolled[k] = total_label
        levels.append(finish(rolled))
    out = pd.concat(levels, ignore_index=True)
    # key columns mix native values with the string total_label after the
    # concat, so sort on the string form (numeric keys would otherwise
    # raise TypeError: '<' between str and int); content is unaffected
    return out.sort_values(
        keys, kind="mergesort", key=lambda s: s.astype(str)
    ).reset_index(drop=True)


def cube_agg(ds, keys: list[str], aggs: AggSpec,
             total_label: str = "__all__") -> pd.DataFrame:
    """GROUP BY CUBE: every subset of ``keys`` as a grouping set."""
    from itertools import combinations

    sets = [
        tuple(c)
        for r in range(len(keys), -1, -1)
        for c in combinations(keys, r)
    ]
    return grouping_sets_agg(ds, keys, sets, aggs, total_label)


def pivot_agg(
    ds,
    index_keys: Union[str, list[str]],
    pivot_col: str,
    value_col: Optional[str] = None,
    agg: str = "count",
    categories: Optional[list] = None,
    fill=0,
) -> pd.DataFrame:
    """Distributed pivot / crosstab: one row per ``index_keys`` group, one
    column per distinct ``pivot_col`` value, cells aggregated by ``agg``
    (count, or sum/min/max/mean of ``value_col``).

    Scale shape: the only pass that touches data is a pre-aggregated
    groupby on (index_keys + pivot_col) — per-batch combiners, one key
    shuffle. The reshape runs over the (groups × categories)-sized result,
    which IS the pivot's output, so no extra materialization. Pass
    ``categories`` to pin the output schema (a category absent from this
    input still gets its ``fill`` column — required for stable schemas
    across shards/scales)."""
    keys_ = [index_keys] if isinstance(index_keys, str) else list(index_keys)
    if agg == "count":
        flat = group_count(ds, keys_ + [pivot_col], alias="__v")
    else:
        if value_col is None:
            raise ValueError("value_col required for agg != 'count'")
        flat = grouped_agg(ds, keys_ + [pivot_col], {value_col: [agg]})
        flat = flat.rename(columns={f"{value_col}_{agg}": "__v"})
    piv = flat.pivot_table(
        index=keys_, columns=pivot_col, values="__v",
        aggfunc="first", fill_value=fill,
        dropna=False,  # keep NULL-keyed groups — SQL GROUP BY semantics,
        # and the combiner above already counts them (dropna=False there)
    )
    if categories is not None:
        piv = piv.reindex(columns=list(categories), fill_value=fill)
    piv.columns = [str(c) for c in piv.columns]
    out = piv.reset_index()
    out.columns.name = None
    return out


def unpivot(ds, id_cols: Union[str, list[str]], value_cols: list[str],
            var_name: str = "name", value_name: str = "value"):
    """SQL UNPIVOT / pandas melt: wide columns → (id..., name, value)
    long rows. Embarrassingly parallel per-batch melt — no shuffle, no
    state; output rows = input rows × len(value_cols). The inverse of
    :func:`pivot_agg` (modulo aggregation). Column order in
    ``value_cols`` fixes the within-row emit order."""
    ids = [id_cols] if isinstance(id_cols, str) else list(id_cols)

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.melt(
            id_vars=ids, value_vars=list(value_cols),
            var_name=var_name, value_name=value_name,
        )

    return ds.map_batches(fn, batch_format="pandas")


def grouped_mode(
    ds,
    key: Union[str, list[str]],
    col: str,
    alias: Optional[str] = None,
    count_alias: str = "mode_count",
):
    """Per-group mode (argmax-by-frequency) with a deterministic
    tie-break: highest count wins, ties broken by the smallest ``col``
    value. Returns a lazy Dataset of (key..., mode, count).

    Scale shape: per-batch (key, col) combiner counts → one key shuffle
    into pair counts (a distinct-pairs-sized table, never the raw rows) →
    ``bucketed_group_apply`` resolves the argmax vectorized per hash
    bucket (bounded Python calls, not one per distinct key)."""
    keys_ = [key] if isinstance(key, str) else list(key)
    pair_keys = keys_ + [col]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return (
            batch.groupby(pair_keys, sort=False, dropna=False)
            .size()
            .rename("__c")
            .reset_index()
        )

    pairs = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(pair_keys)
        .aggregate(Sum("__c", alias_name="__c"))
    )
    out_col = alias or f"{col}_mode"

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            keys_ + ["__c", col],
            ascending=[True] * len(keys_) + [False, True],
            kind="mergesort",
        )
        g = g.drop_duplicates(subset=keys_)
        g = g.rename(columns={col: out_col, "__c": count_alias})
        g[count_alias] = g[count_alias].astype("int64")
        return g[keys_ + [out_col, count_alias]]

    return bucketed_group_apply(pairs, keys_, pick)


def key_profile(
    ds, key: Union[str, list[str]], k: int = 10
) -> dict:
    """Key-skew profiler — the pre-flight check before keying a shuffle on
    ``key`` at scale: per-key counts (combiner + one key shuffle over the
    distinct-keys-sized table), then {n_rows, n_keys, top-k keys with
    exact integer ppm shares}. Shares are ``count * 1e6 // n_rows`` so the
    result is layout-invariant and hashable."""
    keys_ = [key] if isinstance(key, str) else list(key)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return (
            batch.groupby(keys_, sort=False, dropna=False)
            .size()
            .rename("__c")
            .reset_index()
        )

    counts = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(keys_)
        .aggregate(Sum("__c", alias_name="__c"))
        .materialize()
    )
    summary = counts.aggregate(
        Sum("__c", alias_name="n_rows"), Count(alias_name="n_keys")
    ) or {}
    n_rows = int(summary.get("n_rows") or 0)
    n_keys = int(summary.get("n_keys") or 0)
    # local top-k per block then driver merge, under the exact final total
    # order (count desc, key asc — via a negated count column, so the
    # boundary tie-break is identical at both levels)
    def local(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["__negc"] = -batch["__c"].astype("int64")
        return batch.sort_values(
            ["__negc"] + keys_, kind="mergesort"
        ).head(k)

    top = counts.map_batches(local, batch_format="pandas").to_pandas()
    if top.empty:
        top = pd.DataFrame(
            {**{c: pd.Series(dtype="object") for c in keys_},
             "__c": pd.Series(dtype="int64"),
             "__negc": pd.Series(dtype="int64")}
        )
    top = (
        top.sort_values(["__negc"] + keys_, kind="mergesort")
        .head(k)
        .drop(columns="__negc")
        .reset_index(drop=True)
    )
    top = top.rename(columns={"__c": "count"})
    top["count"] = top["count"].astype("int64")
    top["share_ppm"] = top["count"] * 1_000_000 // max(n_rows, 1)
    return {"n_rows": n_rows, "n_keys": n_keys, "top": top}


def skew_join(
    left_ds,
    right_ds,
    on: Union[str, list[str]],
    right_on: Optional[Union[str, list[str]]] = None,
    how: str = "inner",
    hot_share_ppm: int = 50_000,
    max_hot_keys: int = 64,
    num_partitions: Optional[int] = None,
):
    """Skew-aware large-large join. A plain hash join sends every row of
    a hot key to ONE partition — at 100 TB one worker gets the mega-key
    while the rest idle. This operator:

    1. profiles the LEFT key histogram (`key_profile`: combiner pass,
       shuffle sized by distinct keys) and takes as HOT the top
       ``max_hot_keys`` keys holding ≥ ``hot_share_ppm`` of rows;
    2. routes hot-key left rows through a BROADCAST join against the
       hot slice of the right side (hot slice ships via ``ray.put``
       once; hot left rows never shuffle, they stay where they are);
    3. routes the cold remainder through the ordinary hash
       `shuffle_join`, now free of the stragglers;
    4. unions the two outputs (same column convention: right-side
       collisions suffixed ``_r``).

    Partitioning assumption (documented per SURVEY §2.5(c)): each hot
    key's RIGHT-side match set is broadcastable — true for dimension
    or pre-aggregated right sides, the shapes where skew joins apply.
    ``how`` ∈ {"inner", "left_outer"}. With no hot keys this is exactly
    `shuffle_join`.
    """
    if how not in ("inner", "left_outer"):
        raise ValueError(f"skew_join supports inner/left_outer, got {how!r}")
    on_ = [on] if isinstance(on, str) else list(on)
    r_on = (
        on_ if right_on is None
        else [right_on] if isinstance(right_on, str) else list(right_on)
    )
    prof = key_profile(left_ds.select_columns(on_), on_, k=max_hot_keys)
    top = prof["top"]
    hot = top[top["share_ppm"] >= hot_share_ppm]
    if hot.empty:
        return shuffle_join(left_ds, right_ds, on=on, right_on=right_on,
                            how=how, num_partitions=num_partitions)
    # prepare the hot-key value set ONCE driver-side as Arrow arrays so the
    # per-batch split is a C-speed pc.is_in kernel, not a Python per-row
    # tuple probe (3 full-data passes ride through side())
    _SEP = "\x1f"
    if len(on_) == 1:
        hot_set = pa.array(hot[on_[0]].tolist())
    else:
        hot_cols = [pa.array(hot[c].tolist()) for c in on_]
        hot_set = pc.binary_join_element_wise(
            *[pc.cast(c, pa.string()) for c in hot_cols], _SEP
        )
    ref = ray.put(hot_set)

    def side(keep: bool, cols: list[str]):
        # Arrow-native filter: a 0-row Arrow table KEEPS its schema, so
        # an all-hot (or all-cold) corpus still presents typed blocks to
        # the downstream hash join.
        def f(t: pa.Table) -> pa.Table:
            vs = _get_broadcast(ref)
            if len(cols) == 1:
                col = t.column(cols[0]).combine_chunks()
                mask = pc.is_in(col, value_set=vs.cast(col.type))
            else:
                comp = pc.binary_join_element_wise(
                    *[pc.cast(t.column(c), pa.string()) for c in cols],
                    _SEP,
                )
                mask = pc.is_in(comp, value_set=vs)
            if not keep:
                mask = pc.invert(mask)
            return t.filter(mask)
        return f

    left_hot = left_ds.map_batches(
        side(True, on_), batch_format="pyarrow")
    left_cold = left_ds.map_batches(
        side(False, on_), batch_format="pyarrow")
    right_hot_slice = right_ds.map_batches(
        side(True, r_on), batch_format="pyarrow").to_pandas()

    pandas_how = "inner" if how == "inner" else "left"
    hot_ref = ray.put(right_hot_slice)

    def hot_join(batch: pd.DataFrame) -> pd.DataFrame:
        sm = _get_broadcast(hot_ref)
        return batch.merge(sm, left_on=on_, right_on=r_on,
                           how=pandas_how, suffixes=("", "_r"))

    hot_out = left_hot.map_batches(hot_join, batch_format="pandas")
    if int(hot["count"].sum()) >= prof["n_rows"]:
        # the profile proves every left row is hot — no cold side exists
        # (Ray's hash join cannot take a fully-empty left input anyway)
        return hot_out
    cold_out = shuffle_join(left_cold, right_ds, on=on, right_on=right_on,
                            how=how, num_partitions=num_partitions)
    return hot_out.union(cold_out)


def shuffle_semi_join(left_ds, right_ds, on, right_on=None,
                      anti: bool = False,
                      num_partitions: Optional[int] = None):
    """Large-large EXISTS / NOT EXISTS: keep left rows with (semi) or
    without (anti) a key match on the right, via a hash-partitioned
    left_semi/left_anti join — BOTH sides shuffle, so the right side may
    be arbitrarily large (the broadcast :func:`semi_join` collects its
    key set; this one never does). Same exchange as
    :func:`shuffle_join`. Output columns = left columns only."""
    on_ = (on,) if isinstance(on, str) else tuple(on)
    r_on = (
        on_ if right_on is None
        else (right_on,) if isinstance(right_on, str) else tuple(right_on)
    )
    # only the right KEYS decide membership and the output is left
    # columns only — never ship right payload bytes through the shuffle
    try:
        right_ds = right_ds.select_columns(list(r_on))
    except Exception:
        pass  # schema-less side: planner guards handle emptiness
    return _hash_join(left_ds, right_ds, on_, r_on,
                      "left_anti" if anti else "left_semi", num_partitions)


def bloom_semi_join(
    big_ds,
    key_ds,
    on: Union[str, list[str]],
    key_on: Optional[str] = None,
    m_bits: int = 1 << 22,
    k: int = 7,
    exact: bool = True,
    num_partitions: Optional[int] = None,
):
    """Semi-join ``big_ds`` against a key set that is itself a Dataset too
    large for an exact driver-side set. Two stages:

    1. build a Bloom filter of the keys (distributed per-batch bit
       arrays, OR-merged — the driver holds m_bits/8 bytes, never the
       keys) and pre-filter ``big_ds`` inside `map_batches`: definite
       non-members drop immediately, so only the ~match-sized survivor
       stream continues;
    2. ``exact=True`` (default) removes the Bloom false positives with a
       hash semi-join of the survivors against the distinct keys — the
       shuffle now moves the survivor slice, not the full input.
       ``exact=False`` keeps the superset (documented FPR
       ≈ (1-e^{-kn/m})^k) for pipelines that tolerate it.

    Single-column keys only (compose a struct/concat column upstream for
    multi-key semantics)."""
    from recon_ray.functions.sketches import bloom_partials, _bloom_positions, _col_hashes

    on_col = on if isinstance(on, str) else on[0]
    if not isinstance(on, str) and len(on) > 1:
        raise ValueError("bloom_semi_join takes a single key column")
    kc = key_on or on_col
    sk = bloom_partials(key_ds.select_columns([kc]), kc, m_bits=m_bits, k=k)
    bits_ref = ray.put(sk["bits"])
    m = sk["m"]

    def prefilter(batch: pd.DataFrame) -> pd.DataFrame:
        bits = _get_broadcast(bits_ref)
        if len(batch) == 0:
            return batch
        pos = _bloom_positions(_col_hashes(batch, on_col), k, m)
        hit = ((bits[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1).all(axis=1)
        return batch[hit]

    maybe = big_ds.map_batches(prefilter, batch_format="pandas")
    if not exact:
        return maybe
    keys = distinct(key_ds.select_columns([kc]), kc)
    if kc != on_col:
        keys = keys.map_batches(
            lambda b: b.rename(columns={kc: on_col}), batch_format="pandas"
        )
    out = shuffle_join(maybe, keys, on=on_col, how="inner",
                       num_partitions=num_partitions)
    return out


def merge_upsert(
    base_ds,
    updates_ds,
    key: Union[str, list[str]],
    version_col: Optional[str] = None,
    n_buckets: int = N_HASH_BUCKETS,
):
    """Warehouse MERGE / upsert: one output row per key — an update row
    replaces the base row with the same key; unmatched updates insert;
    unmatched base rows survive. With ``version_col``, the highest
    version wins WITHIN each side first (dup-tolerant inputs); updates
    always beat base at equal key (ties inside a side break by highest
    version, then the side tag).

    Scale shape: tag each side (base=0, updates=1), union — one hash
    shuffle on the key — then a vectorized per-bucket argmax
    (`bucketed_group_apply`: Python calls bounded by n_buckets, never by
    distinct keys). Nothing materializes on the driver."""
    keys_ = [key] if isinstance(key, str) else list(key)

    def tag(v: int):
        def f(batch: pd.DataFrame) -> pd.DataFrame:
            batch = batch.copy()
            batch["__src"] = np.int8(v)
            return batch
        return f

    both = base_ds.map_batches(tag(0), batch_format="pandas").union(
        updates_ds.map_batches(tag(1), batch_format="pandas")
    )
    order_cols = ["__src"] + ([version_col] if version_col else [])

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            keys_ + order_cols,
            ascending=[True] * len(keys_) + [False] * len(order_cols),
            kind="mergesort",
        )
        return g.drop_duplicates(subset=keys_).drop(columns="__src")

    return bucketed_group_apply(both, keys_, pick, n_buckets=n_buckets)


def apply_cdc(
    base_ds,
    log_ds,
    key: Union[str, list[str]],
    op_col: str = "op",
    version_col: str = "version",
    n_buckets: int = N_HASH_BUCKETS,
):
    """Change-data-capture apply: fold an I/U/D change log into a base
    table (the Debezium-consumer / lakehouse-merge pattern). Per key the
    HIGHEST-version log row decides: 'D' deletes the key (base row and
    all earlier changes vanish), 'I'/'U' replace the payload (an insert
    for unseen keys); keys untouched by the log pass through. Ties at
    equal version break by op descending ('U' > 'I' > 'D') — supply
    unique (key, version) pairs to avoid relying on it.

    Scale shape: identical to :func:`merge_upsert` — tag sides, union,
    ONE hash shuffle on the key, vectorized per-bucket argmax + delete
    filter; nothing lands on the driver. Output columns = base payload
    (op/version are consumed, not emitted)."""
    keys_ = [key] if isinstance(key, str) else list(key)

    def tag_base(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["__src"] = np.int8(0)
        batch[op_col] = ""
        batch[version_col] = np.int64(-1)
        return batch

    def tag_log(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["__src"] = np.int8(1)
        return batch

    both = base_ds.map_batches(tag_base, batch_format="pandas").union(
        log_ds.map_batches(tag_log, batch_format="pandas")
    )

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            keys_ + ["__src", version_col, op_col],
            ascending=[True] * len(keys_) + [False, False, False],
            kind="mergesort",
        )
        top = g.drop_duplicates(subset=keys_)
        top = top[top[op_col] != "D"]
        return top.drop(columns=["__src", op_col, version_col])

    return bucketed_group_apply(both, keys_, pick, n_buckets=n_buckets)


def fill_day_gaps(
    ds,
    key: Union[str, list[str]],
    day_col: str = "day",
    fill_cols: Optional[list[str]] = None,
    n_buckets: int = N_HASH_BUCKETS,
):
    """Time-series densification (SQL ``generate_series`` resample): the
    input has ONE row per (key, day) — the usual output of a daily
    grouped aggregate — and the result has a row for EVERY day between
    each key's first and last observation, with ``fill_cols`` zero-filled
    on the gap days. ``day_col`` may be datetime64 (day-truncated) or an
    integer day number.

    Scale shape: rides on the (keys × active-days)-sized aggregate, not
    the raw events; ONE hash shuffle on the key, then a fully vectorized
    per-bucket expansion (cumsum/repeat index arithmetic across ALL keys
    in the bucket — no per-key Python). Gap mass is bounded by span, the
    same bound the SQL replay pays."""
    keys_ = [key] if isinstance(key, str) else list(key)
    if len(keys_) != 1:
        raise ValueError("fill_day_gaps expects a single key column")
    k = keys_[0]

    def fill(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([k, day_col], kind="mergesort")
        is_dt = np.issubdtype(g[day_col].dtype, np.datetime64)
        day_i = (
            g[day_col].to_numpy().astype("datetime64[D]").astype("int64")
            if is_dt else g[day_col].to_numpy().astype("int64")
        )
        uk, starts_idx = np.unique(g[k].to_numpy(), return_index=True)
        order = np.argsort(starts_idx)
        uk, starts_idx = uk[order], starts_idx[order]
        ends_idx = np.append(starts_idx[1:], len(g))
        lo = day_i[starts_idx]
        hi = day_i[ends_idx - 1]
        lens = hi - lo + 1
        total = int(lens.sum())
        idx = np.arange(total, dtype=np.int64)
        run_start = np.cumsum(lens) - lens
        offs = idx - np.repeat(run_start, lens)
        dense = pd.DataFrame({
            k: np.repeat(uk, lens),
            day_col: np.repeat(lo, lens) + offs,
        })
        obs = pd.DataFrame({k: g[k].to_numpy(), day_col: day_i})
        for c in fill_cols or []:
            obs[c] = g[c].to_numpy()
        out = dense.merge(obs, on=[k, day_col], how="left")
        for c in fill_cols or []:
            out[c] = out[c].fillna(0).astype(g[c].dtype)
        if is_dt:
            out[day_col] = out[day_col].to_numpy().astype(
                "datetime64[D]").astype("datetime64[us]")
        return out

    return bucketed_group_apply(ds, k, fill, n_buckets=n_buckets)


def grouped_topk(
    ds,
    key: Union[str, list[str]],
    by: str,
    k: int,
    ascending: bool = False,
    tie_cols: Optional[list[str]] = None,
    n_buckets: int = N_HASH_BUCKETS,
):
    """Per-group top-k rows by ``by`` under a deterministic total order
    (``by`` ± then ``tie_cols`` ascending). Combiner shape: each batch
    keeps its local per-group top-k FIRST (so at most k rows per group
    per batch ride the shuffle), then one hash shuffle on the key and a
    vectorized per-bucket head-k under the identical order — local and
    global orders match, so the boundary is exact. Returns a lazy
    Dataset."""
    keys_ = [key] if isinstance(key, str) else list(key)
    ties = tie_cols or []
    sort_cols = keys_ + [by] + ties
    asc = [True] * len(keys_) + [ascending] + [True] * len(ties)

    def local(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return batch
        return (
            batch.sort_values(sort_cols, ascending=asc, kind="mergesort")
            .groupby(keys_, sort=False)
            .head(k)
        )

    pre = ds.map_batches(local, batch_format="pandas")

    def final(bucket: pd.DataFrame) -> pd.DataFrame:
        return (
            bucket.sort_values(sort_cols, ascending=asc, kind="mergesort")
            .groupby(keys_, sort=False)
            .head(k)
        )

    return bucketed_group_apply(pre, keys_, final, n_buckets=n_buckets)


def explode_list(
    ds,
    list_col: str,
    value_name: str = "value",
    pos_name: Optional[str] = None,
    keep_cols: Optional[list[str]] = None,
):
    """UNNEST / explode a ``list<T>`` column: one output row per list
    element, scalar columns repeated per element (SQL ``UNNEST``, with
    ``pos_name`` as the 0-based ``WITH ORDINALITY`` index). Null and
    empty lists emit no rows, matching SQL UNNEST.

    Pure per-batch Arrow kernels — ``list_flatten`` for the values,
    ``list_parent_indices`` + ``take`` for the repeats — so it stays an
    embarrassingly parallel map with zero-copy inputs; no shuffle, no
    Python per row. Positions are derived from the run structure of the
    (non-decreasing) parent index vector, which stays correct when the
    column has null/empty lists (unlike raw offset arithmetic, which
    mis-aligns once flatten has skipped a null)."""

    def f(t: pa.Table) -> pa.Table:
        col = t[list_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        parent = pc.list_parent_indices(col)
        flat = pc.list_flatten(col)
        out = {}
        for name in keep_cols if keep_cols is not None else [
            c for c in t.column_names if c != list_col
        ]:
            out[name] = pc.take(t[name], parent)
        out[value_name] = flat
        if pos_name is not None:
            par = np.asarray(parent, dtype=np.int64)
            idx = np.arange(len(par), dtype=np.int64)
            if len(par):
                run_start = np.where(
                    np.r_[True, par[1:] != par[:-1]], idx, 0
                )
                out[pos_name] = pa.array(
                    idx - np.maximum.accumulate(run_start),
                    type=pa.int64(),
                )
            else:
                out[pos_name] = pa.array([], type=pa.int64())
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def group_concat(
    ds,
    key: Union[str, list[str]],
    col: str,
    sep: str = ",",
    distinct: bool = False,
    alias: str = "concat",
    n_buckets: int = N_HASH_BUCKETS,
    ascending: bool = True,
):
    """SQL ``string_agg(col, sep ORDER BY col [DESC])`` per group
    (GROUP_CONCAT). Elements are joined in ``col`` order — the only
    ordering that is layout-invariant without a secondary sort key.
    NULL elements are skipped (SQL aggregate semantics); a group whose
    values are all NULL drops from the output.

    Combiner shape: project to (key, col) first, and when ``distinct``
    drop per-batch duplicates BEFORE the shuffle (a hot group whose
    values repeat in every block ships once per distinct value per
    block, not once per row). Then ONE hash shuffle on the key and a
    per-bucket mergesort + C-level ``str.join`` — Python callbacks are
    bounded at n_buckets, never at distinct groups. Returns a lazy
    Dataset with columns key… + alias."""
    keys_ = [key] if isinstance(key, str) else list(key)

    def pre(b: pd.DataFrame) -> pd.DataFrame:
        b = b[keys_ + [col]].dropna(subset=[col])
        return b.drop_duplicates() if distinct else b

    slim = ds.map_batches(pre, batch_format="pandas")

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        if distinct:
            g = g.drop_duplicates()
        g = g.sort_values(
            keys_ + [col],
            ascending=[True] * len(keys_) + [bool(ascending)],
            kind="mergesort")
        return (
            g.groupby(keys_, sort=False, dropna=False)[col]
            .agg(sep.join)
            .rename(alias)
            .reset_index()
        )

    return bucketed_group_apply(slim, keys_, bucket_fn, n_buckets=n_buckets)


def grouped_moments(
    ds,
    key: Union[str, list[str]],
    cols: list[str],
    cross: Optional[tuple[str, str]] = None,
):
    """Exact per-group second moments over int64-quantized columns: for
    each col, (n, Σx, Σx²), plus Σxy for one ``cross`` pair. Per-batch
    int64 partials (a batch's Σx² is bounded by batch size · max²), then
    the TINY partial table (n_blocks × n_groups rows) collects and
    merges in arbitrary-precision Python ints — so the global moments
    are exact at any scale and any layout, with no int64 overflow in the
    merge and no float order-dependence anywhere. The variance/corr
    consumers do ONE float conversion at the end, matching what the SQL
    engine does with its HUGEINT accumulators."""
    keys_ = [key] if isinstance(key, str) else list(key)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby(keys_, sort=False, dropna=False)
        out = g[cols[0]].size().rename("__n").reset_index()
        for c in cols:
            out[f"__s_{c}"] = g[c].sum().to_numpy()
            out[f"__ss_{c}"] = g[c].apply(
                lambda x: int(np.dot(x.to_numpy(), x.to_numpy()))
            ).to_numpy()
        if cross is not None:
            a, bcol = cross
            out["__sxy"] = g.apply(
                lambda x: int(np.dot(x[a].to_numpy(), x[bcol].to_numpy())),
                include_groups=False,
            ).to_numpy()
        return out

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    vals = [c for c in parts.columns if c.startswith("__")]
    merged = (
        parts.astype({c: object for c in vals})
        .groupby(keys_, sort=True, dropna=False)[vals]
        .sum()
        .reset_index()
    )
    return merged.rename(columns={c: c.lstrip("_") for c in vals})


def grouped_variance(
    ds,
    key: Union[str, list[str]],
    col: str,
    sample: bool = True,
):
    """Per-group variance and stddev of an int64-quantized column,
    bit-identical to SQL ``var_samp``/``stddev_samp`` written in moment
    form: (n·Σx² − (Σx)²) is computed EXACTLY in big ints, converted to
    float once, and divided by n·(n−1) — and sqrt is IEEE-correctly
    rounded, so the engines can't diverge. Groups with n ≤ ddof get
    NaN (SQL NULL)."""
    keys_ = [key] if isinstance(key, str) else list(key)
    m = grouped_moments(ds, key, [col])
    ddof = 1 if sample else 0
    out = m[keys_].copy()
    n = m["n"]
    num = n * m[f"ss_{col}"] - m[f"s_{col}"] * m[f"s_{col}"]
    den = n * (n - ddof)
    var = np.array(
        [float(a) / float(b) if b > 0 else np.nan
         for a, b in zip(num, den)],
        dtype=np.float64,
    )
    out["n"] = n.astype("int64")
    out["var"] = var
    out["std"] = np.sqrt(var)
    return out


def grouped_corr(ds, key: Union[str, list[str]], x: str, y: str):
    """Per-group Pearson correlation of two int64-quantized columns in
    exact moment form (same determinism argument as grouped_variance);
    NaN when either column is constant."""
    keys_ = [key] if isinstance(key, str) else list(key)
    m = grouped_moments(ds, key, [x, y], cross=(x, y))
    out = m[keys_].copy()
    n = m["n"]
    num = n * m["sxy"] - m[f"s_{x}"] * m[f"s_{y}"]
    vx = n * m[f"ss_{x}"] - m[f"s_{x}"] * m[f"s_{x}"]
    vy = n * m[f"ss_{y}"] - m[f"s_{y}"] * m[f"s_{y}"]
    corr = np.array(
        [
            float(a) / (np.sqrt(float(b)) * np.sqrt(float(c)))
            if b > 0 and c > 0 else np.nan
            for a, b, c in zip(num, vx, vy)
        ],
        dtype=np.float64,
    )
    out["n"] = n.astype("int64")
    out["corr"] = corr
    return out


def time_rolling_sum(
    ds,
    partition_by: Union[str, list[str]],
    ts_col: str,
    value_col: str,
    horizon,
    out_name: str = "rolling_sum",
    tie_cols: Optional[list[str]] = None,
    n_buckets: int = N_HASH_BUCKETS,
):
    """Trailing TIME-horizon running sum per partition: for each row, the
    sum of ``value_col`` over partition rows with ts in
    [row.ts - horizon, row.ts], counting ts-ties only up to the current
    row in (ts, *tie_cols) order — the value-based window (SQL RANGE
    frame) that ROWS-BETWEEN frames can't express.

    One hash shuffle (bucketed_group_apply on the partition key), then
    per bucket a vectorized pass: sort, prefix-sum, and one
    ``searchsorted`` of (ts - horizon) per partition — O(n log n), no
    per-row Python. ``horizon`` is a pandas Timedelta / offset string
    ("7D"). int64 values stay exact."""
    part_cols = (
        [partition_by] if isinstance(partition_by, str)
        else list(partition_by)
    )
    ties = list(tie_cols or [])
    delta = pd.Timedelta(horizon)

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return g
        g = g.sort_values(part_cols + [ts_col] + ties, kind="mergesort")
        out = np.empty(len(g), dtype=np.int64)
        vals = g[value_col].to_numpy(np.int64)
        ts = g[ts_col].to_numpy()
        # partition boundaries within the sorted bucket
        key = g[part_cols]
        new_part = key.ne(key.shift()).any(axis=1).to_numpy()
        starts = np.flatnonzero(new_part)
        bounds = np.append(starts, len(g))
        for s, e in zip(bounds[:-1], bounds[1:]):
            seg_ts = ts[s:e]
            pref = np.concatenate(
                ([0], np.cumsum(vals[s:e], dtype=np.int64))
            )
            lo = np.searchsorted(seg_ts, seg_ts - delta, side="left")
            out[s:e] = pref[1 + np.arange(e - s)] - pref[lo]
        return g.assign(**{out_name: out})

    return bucketed_group_apply(ds, part_cols, bucket_fn,
                                n_buckets=n_buckets)
