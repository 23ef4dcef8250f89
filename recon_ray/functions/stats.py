"""Dataset statistics — Ray Data ports of recon/stats.py.

All wide steps follow the combiner pattern: partial aggregation inside
``map_batches`` (one row per key per batch) before the global groupby, so
hot keys (mega-repos) arrive pre-reduced at the shuffle (SURVEY §4.2).
Scalar math (entropy, Jensen-Shannon) runs driver-side on the tiny grouped
results, in numpy (scipy isn't available here; formulas inlined).

Parity targets:
- ``ner_stats``                       ← get_ner_stats (recon/stats.py:13-50)
- ``label_counts``                    ← n_annotations_per_type ordering
  (count desc; ties by label asc for determinism — the reference relies on
  dict insertion order, recon/stats.py:36-39)
- ``entity_coverage``                 ← get_entity_coverage (recon/stats.py:102-145)
- ``entity_coverage_similarity``      ← calculate_entity_coverage_similarity
  (recon/stats.py:148-190)
- ``label_distribution_similarity``   ← calculate_label_distribution_similarity
  (recon/stats.py:68-99): 100*(1−JS_distance)
- ``label_balance_entropy`` / ``entity_coverage_entropy``
                                      ← recon/stats.py:236-263
- ``detect_outliers``                 ← recon/stats.py:266-283 (IQR fence,
  floor()ed, low ≤ fence, high > fence)
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ray.data.aggregate import Sum


def _partial_label_counts(batch: pa.Table) -> pa.Table:
    t = batch.group_by("label").aggregate([("label", "count")])
    return t.rename_columns(["label", "partial"])


def label_counts(mentions_ds):
    """(label, count) sorted by count desc, label asc."""
    partial = mentions_ds.select_columns(["label"]).map_batches(
        _partial_label_counts, batch_format="pyarrow", zero_copy_batch=True
    )
    out = partial.groupby("label").aggregate(Sum("partial", alias_name="count"))
    # tiny result; deterministic ordering done driver-side. Ray's groupby
    # over no rows returns a frame with no columns, hence the reindex.
    df = out.to_pandas().reindex(columns=["label", "count"])
    df = df.sort_values(
        ["count", "label"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)
    return df.astype({"label": object, "count": "int64"})


def ner_stats(docs_ds) -> dict:
    """Corpus summary over docs-with-mentions (pre-explode): doc counts,
    no-mention docs, per-label counts — one streaming pass, partial agg."""

    def partial(batch: pa.Table) -> pa.Table:
        lens = batch.column("mentions").combine_chunks().value_lengths()
        n_docs = batch.num_rows
        n_empty = pc.sum(pc.equal(lens.fill_null(0), 0)).as_py() or 0
        flat = batch.column("mentions").combine_chunks().flatten()
        lbl_tbl = pa.table({"label": flat.field("label")})
        g = lbl_tbl.group_by("label").aggregate([("label", "count")])
        labels = g.column("label").to_pylist()
        counts = g.column("label_count").to_pylist()
        return pa.table(
            {
                "label": pa.array(["__docs__", "__docs_no_mentions__"] + labels),
                "partial": pa.array([n_docs, n_empty] + counts, pa.int64()),
            }
        )

    merged = (
        docs_ds.select_columns(["mentions"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("label")
        .aggregate(Sum("partial", alias_name="count"))
        .to_pandas()
    )
    counts = dict(zip(merged["label"], merged["count"].astype(int)))
    n_docs = counts.pop("__docs__", 0)
    n_empty = counts.pop("__docs_no_mentions__", 0)
    per_type = dict(
        sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    )
    return {
        "n_docs": int(n_docs),
        "n_docs_no_mentions": int(n_empty),
        "n_mentions": int(sum(per_type.values())),
        "n_mentions_per_type": per_type,
    }


def _partial_coverage(batch: pa.Table, case_sensitive: bool) -> pa.Table:
    text = batch.column("text")
    if not case_sensitive:
        text = pc.utf8_lower(text)
    t = pa.table({"text": text, "label": batch.column("label")})
    g = t.group_by(["text", "label"]).aggregate([("label", "count")])
    return g.rename_columns(["text", "label", "partial"])


#: entity_coverage over no mentions: Ray's groupby over no rows returns
#: blocks without any columns, so the empty result is this table instead
_EMPTY_COVERAGE = pa.table({"text": pa.array([], pa.string()),
                            "label": pa.array([], pa.string()),
                            "count": pa.array([], pa.int64())})


def entity_coverage(mentions_ds, case_sensitive: bool = False):
    """(text, label, count) sorted desc — the canonical wide shuffle.
    Returns a materialized Dataset (callers .to_pandas() small results or
    write big ones); an empty one keeps the three columns."""
    partial = mentions_ds.select_columns(["text", "label"]).map_batches(
        lambda b: _partial_coverage(b, case_sensitive),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    out = partial.groupby(["text", "label"]).aggregate(
        Sum("partial", alias_name="count")
    )
    out = out.sort(["count", "text", "label"],
                   descending=[True, False, False]).materialize()
    return out if out.count() else rd.from_arrow(_EMPTY_COVERAGE)


def entity_coverage_similarity(x_mentions, y_mentions) -> dict:
    """% of y's (text,label) keys — and % of y's count mass — present in x.
    Joins the two (small) coverage aggregates; for vocabulary sizes beyond
    driver RAM, swap the pandas merge for a key-partitioned Dataset join."""
    # Ray's to_pandas() drops the columns of an empty Dataset
    xc, yc = (entity_coverage(ds).to_pandas().reindex(
        columns=_EMPTY_COVERAGE.column_names) for ds in (x_mentions, y_mentions))
    m = yc.merge(xc[["text", "label"]], on=["text", "label"], how="left", indicator=True)
    inter = m["_merge"] == "both"
    n_union = len(yc)
    count_union = int(yc["count"].sum())
    return {
        "entity": 100.0 * inter.sum() / n_union if n_union else 0.0,
        "count": 100.0 * int(m.loc[inter, "count"].sum()) / count_union
        if count_union
        else 0.0,
    }


def _probs(counts) -> np.ndarray:
    a = np.asarray(counts, dtype=np.float64)
    return a / a.sum()


def shannon_entropy(counts) -> float:
    """scipy.stats.entropy equivalent (natural log) on counts/probs."""
    p = _probs(counts)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def jensen_shannon_distance(p, q) -> float:
    """scipy.spatial.distance.jensenshannon equivalent (base-2 sqrt form
    matches scipy default: sqrt(JS divergence with log base e / ln? —
    scipy uses natural log unless base given; distance = sqrt(JSD))."""
    p = _probs(p)
    q = _probs(q)
    m = (p + q) / 2.0

    def _kl(a, b):
        mask = a > 0
        return float((a[mask] * np.log(a[mask] / b[mask])).sum())

    jsd = (_kl(p, m) + _kl(q, m)) / 2.0
    return math.sqrt(max(jsd, 0.0))


def label_distribution_similarity(x_docs, y_docs) -> float:
    sx = ner_stats(x_docs)
    sy = ner_stats(y_docs)
    keys = sorted(
        set(sx["n_mentions_per_type"]) | set(sy["n_mentions_per_type"]) | {"NOT_LABELED"}
    )
    px = dict(sx["n_mentions_per_type"], NOT_LABELED=sx["n_docs_no_mentions"])
    py = dict(sy["n_mentions_per_type"], NOT_LABELED=sy["n_docs_no_mentions"])
    cx = [px.get(k, 0) for k in keys]
    cy = [py.get(k, 0) for k in keys]
    return (1.0 - jensen_shannon_distance(cx, cy)) * 100.0


def label_balance_entropy(stats: dict) -> float:
    return shannon_entropy(list(stats["n_mentions_per_type"].values()))


def entity_coverage_entropy(coverage_df: pd.DataFrame) -> float:
    return shannon_entropy(coverage_df["count"].to_numpy())


def detect_outliers(values, use_log: bool = False) -> dict:
    """IQR fence (recon/stats.py:266-283): low = idx where v <= floor(q1-1.5iqr),
    high = idx where v > floor(q3+1.5iqr). Driver-side numpy on a collected
    column; for columns beyond driver RAM compute q1/q3 from a seeded
    random_sample first."""
    seq = np.asarray(values, dtype=np.float64)
    if use_log:
        seq = np.log(seq)
    q1 = np.quantile(seq, 0.25)
    q3 = np.quantile(seq, 0.75)
    iqr = q3 - q1
    fence_low = math.floor(q1 - 1.5 * iqr)
    fence_high = math.floor(q3 + 1.5 * iqr)
    return {
        "low": [int(i) for i in np.nonzero(seq <= fence_low)[0]],
        "high": [int(i) for i in np.nonzero(seq > fence_high)[0]],
        "fence_low": fence_low,
        "fence_high": fence_high,
    }


def profile_columns(ds, cols: list) -> "pd.DataFrame":
    """Data-quality column profiler — one row per column: n_rows,
    n_null, exact n_distinct, min and max (stringified for the
    cross-type output frame; integral numerics print as ints).

    Scale shape: counts/nulls/min/max are a pure combiner pass (one
    tiny typed partial row per column per batch, reduced driver-side);
    exact distinct counts shuffle per-batch-DISTINCT (column, repr)
    pairs through the bucketed distinct — the only all-to-all, sized by
    the distinct value set, never the row count. The profiler never
    collects data rows."""
    import pandas as pd

    from recon_ray.functions.relational import distinct, group_count

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in cols:
            s = batch[c]
            sv = s[s.notna()]
            is_num = pd.api.types.is_numeric_dtype(s)
            rows.append({
                "column": c,
                "n": int(len(s)),
                "n_null": int(len(s) - len(sv)),
                "is_num": bool(is_num),
                "min_num": float(sv.min()) if is_num and len(sv) else None,
                "max_num": float(sv.max()) if is_num and len(sv) else None,
                "min_str": None if is_num or sv.empty else str(sv.min()),
                "max_str": None if is_num or sv.empty else str(sv.max()),
            })
        return pd.DataFrame(rows)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()

    def _nanmin(s):  # object-dtype min chokes on None-mixed groups
        s = s.dropna()
        return s.min() if len(s) else None

    def _nanmax(s):
        s = s.dropna()
        return s.max() if len(s) else None

    agg = parts.groupby("column").agg(
        n_rows=("n", "sum"), n_null=("n_null", "sum"),
        is_num=("is_num", "max"),
        min_num=("min_num", _nanmin), max_num=("max_num", _nanmax),
        min_str=("min_str", _nanmin), max_str=("max_str", _nanmax),
    )

    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for c in cols:
            sv = batch[c].dropna().drop_duplicates()
            frames.append(
                pd.DataFrame({"column": c, "value": sv.astype(str)})
            )
        return pd.concat(frames, ignore_index=True)

    dpairs = distinct(
        ds.map_batches(pairs, batch_format="pandas"), ["column", "value"]
    )
    ndist = group_count(dpairs, "column", alias="n_distinct")

    out = agg.join(ndist.set_index("column")).reset_index()
    # a fully-NULL column contributes no distinct pairs → its n_distinct
    # row is absent from the join: count is 0 (SQL count(DISTINCT) = 0)
    out["n_distinct"] = out["n_distinct"].fillna(0)
    fmt_min, fmt_max = [], []
    for _, r in out.iterrows():
        if r["is_num"]:
            # integral numerics print as ints (int64 column profiles)
            for src_v, dst in ((r["min_num"], fmt_min),
                               (r["max_num"], fmt_max)):
                dst.append(
                    None if src_v is None or pd.isna(src_v)
                    else str(int(src_v)) if float(src_v).is_integer()
                    else str(src_v)
                )
        else:
            fmt_min.append(r["min_str"])
            fmt_max.append(r["max_str"])
    out["min_value"] = fmt_min
    out["max_value"] = fmt_max
    for c in ("n_rows", "n_null", "n_distinct"):
        out[c] = out[c].astype("int64")
    return (
        out[["column", "n_rows", "n_null", "n_distinct",
             "min_value", "max_value"]]
        .sort_values("column")
        .reset_index(drop=True)
    )


def grouped_mad_outliers(ds, key: str, col: str, k: float = 3.0
                         ) -> pd.DataFrame:
    """Per-group ROBUST outlier detection — median / MAD instead of the
    mean/σ that the outliers themselves corrupt (the standard robust
    companion to :func:`detect_outliers`' IQR fence). A row is an
    outlier iff |x − median(group)| > k · MAD(group), with median and
    MAD in exact ``quantile_disc`` element semantics so the whole rule
    is SQL-replayable bit-for-bit on integer columns.

    Two :func:`~recon_ray.functions.sketches.grouped_quantiles` passes
    (one key shuffle each: medians, then absolute-deviation medians),
    then ONE combiner pass counts per-batch outliers against the
    broadcast (median, MAD) maps — the raw column never lands on the
    driver. Returns (key, med, mad, n, n_outliers)."""
    import ray

    from recon_ray.functions.sketches import grouped_quantiles

    med = grouped_quantiles(ds, key, col, [0.5])
    med_map = dict(zip(med[key], med["value"]))
    med_ref = ray.put(med_map)

    def absdev(b: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(med_ref) if isinstance(med_ref, ray.ObjectRef) \
            else med_ref
        return pd.DataFrame(
            {key: b[key], "__ad": (b[col] - b[key].map(m)).abs()})

    mad = grouped_quantiles(
        ds.map_batches(absdev, batch_format="pandas"), key, "__ad", [0.5])
    mad_map = dict(zip(mad[key], mad["value"]))
    mad_ref = ray.put(mad_map)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(med_ref) if isinstance(med_ref, ray.ObjectRef) \
            else med_ref
        s = ray.get(mad_ref) if isinstance(mad_ref, ray.ObjectRef) \
            else mad_ref
        v = b.dropna(subset=[col])
        dev = (v[col] - v[key].map(m)).abs()
        out = v.assign(
            __o=(dev > k * v[key].map(s)).astype("int64"),
            __n=np.int64(1),
        ).groupby(key, as_index=False)[["__o", "__n"]].sum()
        return out

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby(key, as_index=False)[["__o", "__n"]].sum()
    out = agg.rename(columns={"__o": "n_outliers", "__n": "n"})
    out["med"] = out[key].map(med_map)
    out["mad"] = out[key].map(mad_map)
    out["n_outliers"] = out["n_outliers"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return (
        out[[key, "med", "mad", "n", "n_outliers"]]
        .sort_values(key).reset_index(drop=True)
    )


def psi_drift(ds_a, ds_b, col: str, n_bins: int = 10,
              round_dp: int = 6) -> pd.DataFrame:
    """Population Stability Index between two dataset versions — the
    standard drift monitor for a continuously-refreshed training
    corpus. Bin edges are side A's exact (n_bins−1) interior
    ``quantile_disc`` order statistics (:func:`sketches.exact_quantiles`
    — two streaming passes, no sort), so bins hold ~equal A mass and
    the binning rule is SQL-replayable: ``bin = Σ (v ≥ edge_i)``
    (numpy ``searchsorted(edges, v, "right")``). Per-(side, bin)
    counts are one combiner pass per side; proportions use additive
    smoothing ``(c + 0.5) / (n + n_bins/2)`` so empty B bins stay
    finite; PSI = Σ (pa − pb)·ln(pa/pb), rounded to ``round_dp`` (one
    transcendental per bin — the rounding absorbs last-ulp libm
    variation between engines).

    Returns one row per bin (bin, count_a, count_b, psi_term) plus the
    total under bin = −1 — all deterministic, layout-invariant."""
    import math

    from recon_ray.functions.sketches import exact_quantiles

    qs = [i / n_bins for i in range(1, n_bins)]
    edges = exact_quantiles(ds_a, col, qs)
    if edges and edges[0] is None:
        raise ValueError(f"side A has no non-null {col!r} values")
    e = np.asarray(edges, dtype=np.float64)

    def counts(ds):
        def part(b: pd.DataFrame) -> pd.DataFrame:
            v = b[col].to_numpy(np.float64)
            v = v[~np.isnan(v)]
            bins = np.searchsorted(e, v, side="right")
            c = np.bincount(bins, minlength=n_bins).astype(np.int64)
            return pd.DataFrame({"c": [c.tobytes()]})

        parts = ds.map_batches(part, batch_format="pandas").to_pandas()
        tot = np.zeros(n_bins, dtype=np.int64)
        for blob in parts["c"] if not parts.empty else []:
            tot += np.frombuffer(blob, dtype=np.int64)
        return tot

    def _round_away(x: float, dp: int) -> float:
        # DuckDB's round(): std::round(x·10ⁿ)/10ⁿ, half AWAY from zero
        # (python round() is banker's — would diverge at .5 ulps)
        m = 10.0 ** dp
        return math.copysign(math.floor(abs(x) * m + 0.5), x) / m

    ca, cb = counts(ds_a), counts(ds_b)
    na, nb = int(ca.sum()), int(cb.sum())
    rows = []
    total = 0.0
    for i in range(n_bins):
        pa = (ca[i] + 0.5) / (na + n_bins / 2.0)
        pb = (cb[i] + 0.5) / (nb + n_bins / 2.0)
        term = _round_away((pa - pb) * math.log(pa / pb), round_dp)
        total += term
        rows.append((i, int(ca[i]), int(cb[i]), term))
    rows.append((-1, na, nb, _round_away(total, round_dp)))
    return pd.DataFrame(rows, columns=["bin", "count_a", "count_b",
                                       "psi_term"])
