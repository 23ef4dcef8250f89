"""The driver-facing query surface: one entry per operator/pipeline from
SURVEY §2, each paired (where SQL-expressible) with a DuckDB oracle over
the same inputs.

Conventions keeping the driver's order-insensitive value-hash compare
stable:
- every aggregate/computed column is NAMED IDENTICALLY in Ray and SQL;
- counts are int64 both sides;
- floating-point aggregates are rounded (sums → 2dp, means/ratios → 6dp)
  in BOTH implementations, because summation order differs between engines;
- top-k selections always carry a full deterministic tie-break order.

KG queries run over the deterministic synthetic corpus (fixtures.py); their
oracles read the sequential reference extractor's gold parquet — i.e. the
driver compare IS the P/R-vs-reference gate.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from recon_ray import fixtures
from recon_ray.functions import graph as _graph
from recon_ray.functions import insights as ins
from recon_ray.functions import stats as st
from recon_ray.functions.dedup import dup_groups, embedding_neardup, minhash_lsh_dedup
from recon_ray.functions.relational import (
    anti_join,
    arrow_filter,
    broadcast_join,
    distinct,
    grouped_agg,
    group_count,
    local_global_topk,
    semi_join,
)
from recon_ray.functions.similarity import knn_bruteforce, knn_lsh
from recon_ray.functions.text import quality_scores, token_counts

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _t(sf_dir: str, name: str):
    return rd.read_parquet(f"{sf_dir}/{name}.parquet")


def _pdf(sf_dir: str, name: str) -> pd.DataFrame:
    return pd.read_parquet(f"{sf_dir}/{name}.parquet")




def _round_away(x, dp: int):
    """DuckDB-compatible round: floor(v*10^dp + 0.5) / 10^dp (half away
    from zero for positives) — numpy/pandas .round() is banker's and
    disagrees with the SQL oracle on exact halves."""
    f = 10.0 ** dp
    a = np.asarray(x, dtype=np.float64)
    out = np.floor(a * f + 0.5) / f
    if isinstance(x, pd.Series):
        return pd.Series(out, index=x.index)
    return out


def _cents(series, factor: int = 100) -> "pd.Series":
    """value → integer cents with HALF-AWAY-FROM-ZERO rounding (DuckDB's
    round(); pandas .round() is banker's and disagrees on half-cents)."""
    a = np.asarray(series, dtype=np.float64) * factor
    return pd.Series(np.floor(a + 0.5).astype("int64"), index=getattr(series, "index", None))


def _cents_arrow(col, factor: float = 100.0):
    """Arrow-kernel _cents: floor(v·factor + 0.5) as int64 — keeps the
    monetary stages zero-copy pyarrow instead of a pandas conversion."""
    return pc.cast(
        pc.floor(
            pc.add(
                pc.multiply(pc.cast(col, pa.float64()), pa.scalar(factor)),
                pa.scalar(0.5),
            )
        ),
        pa.int64(),
    )


def _add_revenue_part(t: pa.Table) -> pa.Table:
    """revenue_part = price_cents · (100 − discount_bp), exact int64."""
    price_c = _cents_arrow(t.column("l_extendedprice"))
    disc_bp = _cents_arrow(t.column("l_discount"))
    rev = pc.multiply(
        price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_bp)
    )
    return t.append_column("revenue_part", rev)


# ---------------------------------------------------------------------------
# TPC-H-ish relational queries
# ---------------------------------------------------------------------------


def q1_pricing_summary(sf_dir: str):
    """Filter → grouped agg → sort (TPC-H Q1 shape)."""
    li = _t(sf_dir, "lineitem")
    li = li.map_batches(
        lambda t: t.filter(
            pc.less_equal(t["l_shipdate"], pa.scalar(pd.Timestamp("1998-09-02")))
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def add_cents(t: pa.Table) -> pa.Table:
        # integer-cent/basis-point arithmetic: double summation order differs
        # between engines, so monetary aggregates are computed EXACTLY in
        # int64 and divided once at the end (both here and in the oracle);
        # all Arrow kernels — no pandas conversion on the 6M-row table
        price_c = _cents_arrow(t.column("l_extendedprice"))
        disc_bp = _cents_arrow(t.column("l_discount"))
        tax_bp = _cents_arrow(t.column("l_tax"))
        hundred = pa.scalar(100, pa.int64())
        disc_c = pc.multiply(price_c, pc.subtract(hundred, disc_bp))
        charge_c = pc.multiply(disc_c, pc.add(hundred, tax_bp))
        return pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "l_linestatus": t.column("l_linestatus"),
                "qty": t.column("l_quantity"),
                "price_c": price_c,
                "disc_c": disc_c,
                "charge_c": charge_c,
                "disc_bp": disc_bp,
            }
        )

    g = grouped_agg(
        li.map_batches(add_cents, batch_format="pyarrow", zero_copy_batch=True),
        ["l_returnflag", "l_linestatus"],
        {
            "qty": ["sum", "count"],
            "price_c": ["sum"],
            "disc_c": ["sum"],
            "charge_c": ["sum"],
            "disc_bp": ["sum"],
        },
    )
    n = g["qty_count"].astype("int64")
    out = pd.DataFrame(
        {
            "l_returnflag": g["l_returnflag"],
            "l_linestatus": g["l_linestatus"],
            "sum_qty": _round_away(g["qty_sum"], 2),
            "sum_base_price": _round_away((g["price_c_sum"] / 100.0), 2),
            "sum_disc_price": _round_away((g["disc_c_sum"] / 10000.0), 2),
            "sum_charge": _round_away((g["charge_c_sum"] / 1000000.0), 2),
            "avg_qty": _round_away((g["qty_sum"] / n), 6),
            "avg_disc": _round_away((g["disc_bp_sum"] / 100.0 / n), 6),
            "count_order": n,
        }
    )
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


ORACLE_Q1 = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 2)                                    AS sum_qty,
       round(sum(round(l_extendedprice * 100)::BIGINT) / 100.0, 2)  AS sum_base_price,
       round(sum(round(l_extendedprice * 100)::BIGINT
                 * (100 - round(l_discount * 100)::BIGINT)) / 10000.0, 2)
                                                                    AS sum_disc_price,
       round(sum(round(l_extendedprice * 100)::BIGINT
                 * (100 - round(l_discount * 100)::BIGINT)
                 * (100 + round(l_tax * 100)::BIGINT)) / 1000000.0, 2)
                                                                    AS sum_charge,
       round(sum(l_quantity) / count(*), 6)                         AS avg_qty,
       round(sum(round(l_discount * 100)::BIGINT) / 100.0 / count(*), 6)
                                                                    AS avg_disc,
       count(*)::BIGINT                                             AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


def q3_top_orders(sf_dir: str):
    """customer ⋈ orders ⋈ lineitem (broadcast small sides) → grouped
    revenue → top 10."""
    li = _t(sf_dir, "lineitem")
    cust = _pdf(sf_dir, "customer")
    orders = _pdf(sf_dir, "orders")
    building = cust.loc[cust["c_mktsegment"] == "BUILDING", ["c_custkey"]]
    sel_orders = orders.merge(
        building, left_on="o_custkey", right_on="c_custkey"
    )[["o_orderkey", "o_orderdate"]]
    joined = broadcast_join(li, sel_orders, on="l_orderkey", small_on="o_orderkey")

    joined = joined.map_batches(
        _add_revenue_part, batch_format="pyarrow", zero_copy_batch=True
    )
    g = grouped_agg(joined, ["l_orderkey", "o_orderdate"], {"revenue_part": ["sum"]})
    g["revenue"] = _round_away((g["revenue_part_sum"] / 10000.0), 2)
    g = g.drop(columns=["revenue_part_sum"])
    g = g.sort_values(
        ["revenue", "l_orderkey"], ascending=[False, True], kind="mergesort"
    ).head(10)
    return g[["l_orderkey", "o_orderdate", "revenue"]].reset_index(drop=True)


ORACLE_Q3 = """
SELECT l_orderkey, o_orderdate,
       round(sum(round(l_extendedprice * 100)::BIGINT * (100 - round(l_discount * 100)::BIGINT)) / 10000.0, 2) AS revenue
FROM customer JOIN orders ON c_custkey = o_custkey
              JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
GROUP BY l_orderkey, o_orderdate
ORDER BY revenue DESC, l_orderkey
LIMIT 10
"""


def q5_nation_revenue(sf_dir: str):
    """Multi-dimension broadcast join chain: lineitem→orders→customer→
    nation→region, revenue per nation."""
    li = _t(sf_dir, "lineitem")
    orders = _pdf(sf_dir, "orders")[["o_orderkey", "o_custkey"]]
    cust = _pdf(sf_dir, "customer")[["c_custkey", "c_nationkey"]]
    nation = _pdf(sf_dir, "nation")[["n_nationkey", "n_name", "n_regionkey"]]
    region = _pdf(sf_dir, "region")[["r_regionkey", "r_name"]]
    dim = (
        orders.merge(cust, left_on="o_custkey", right_on="c_custkey")
        .merge(nation, left_on="c_nationkey", right_on="n_nationkey")
        .merge(region, left_on="n_regionkey", right_on="r_regionkey")
    )[["o_orderkey", "n_name", "r_name"]]
    joined = broadcast_join(li, dim, on="l_orderkey", small_on="o_orderkey")

    g = grouped_agg(
        joined.map_batches(
            _add_revenue_part, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["r_name", "n_name"],
        {"revenue_part": ["sum"], "l_orderkey": ["count"]},
    )
    out = pd.DataFrame(
        {
            "r_name": g["r_name"],
            "n_name": g["n_name"],
            "revenue": _round_away((g["revenue_part_sum"] / 10000.0), 2),
            "n_items": g["l_orderkey_count"].astype("int64"),
        }
    )
    return out.sort_values(["r_name", "n_name"]).reset_index(drop=True)


ORACLE_Q5 = """
SELECT r_name, n_name,
       round(sum(round(l_extendedprice * 100)::BIGINT * (100 - round(l_discount * 100)::BIGINT)) / 10000.0, 2) AS revenue,
       count(*)::BIGINT AS n_items
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
              JOIN customer ON o_custkey = c_custkey
              JOIN nation ON c_nationkey = n_nationkey
              JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name, n_name
ORDER BY r_name, n_name
"""


def q6_revenue_forecast(sf_dir: str):
    """Pure filter + global aggregate (single row)."""
    li = _t(sf_dir, "lineitem")

    def f(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(
                pc.greater_equal(t["l_discount"], pa.scalar(0.03)),
                pc.less_equal(t["l_discount"], pa.scalar(0.07)),
            ),
            pc.less(t["l_quantity"], pa.scalar(24.0)),
        )
        t = t.filter(m)
        rev = pc.multiply(
            _cents_arrow(t["l_extendedprice"]), _cents_arrow(t["l_discount"])
        )
        return pa.table(
            {"rev": [int(pc.sum(rev).as_py() or 0)], "n": [t.num_rows]}
        )

    parts = li.map_batches(f, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    return pd.DataFrame(
        {
            "revenue": [round(float(parts["rev"].sum()) / 10000.0, 2)],
            "n_items": [int(parts["n"].sum())],
        }
    )


ORACLE_Q6 = """
SELECT round(sum(round(l_extendedprice * 100)::BIGINT * round(l_discount * 100)::BIGINT) / 10000.0, 2) AS revenue,
       count(*)::BIGINT AS n_items
FROM lineitem
WHERE l_discount BETWEEN 0.03 AND 0.07 AND l_quantity < 24
"""


def q_top_suppliers(sf_dir: str):
    li = _t(sf_dir, "lineitem")
    supp = _pdf(sf_dir, "supplier")[["s_suppkey", "s_name"]]

    g = grouped_agg(
        li.map_batches(
            _add_revenue_part, batch_format="pyarrow", zero_copy_batch=True
        ),
        "l_suppkey",
        {"revenue_part": ["sum"]},
    )
    g["total_revenue"] = _round_away((g["revenue_part_sum"] / 10000.0), 2)
    g = g.merge(supp, left_on="l_suppkey", right_on="s_suppkey")
    g = g.sort_values(
        ["total_revenue", "s_suppkey"], ascending=[False, True], kind="mergesort"
    ).head(10)
    return g[["s_suppkey", "s_name", "total_revenue"]].reset_index(drop=True)


ORACLE_TOP_SUPPLIERS = """
SELECT s_suppkey, s_name,
       round(sum(round(l_extendedprice * 100)::BIGINT * (100 - round(l_discount * 100)::BIGINT)) / 10000.0, 2) AS total_revenue
FROM lineitem JOIN supplier ON l_suppkey = s_suppkey
GROUP BY s_suppkey, s_name
ORDER BY total_revenue DESC, s_suppkey
LIMIT 10
"""


def q_order_priority_counts(sf_dir: str):
    g = group_count(_t(sf_dir, "orders"), "o_orderpriority", alias="n_orders")
    return g.sort_values("o_orderpriority").reset_index(drop=True)


ORACLE_ORDER_PRIORITY = """
SELECT o_orderpriority, count(*)::BIGINT AS n_orders
FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


def q_distinct_segments(sf_dir: str):
    d = distinct(_t(sf_dir, "customer"), "c_mktsegment").to_pandas()
    return d.sort_values("c_mktsegment").reset_index(drop=True)


ORACLE_DISTINCT_SEGMENTS = (
    "SELECT DISTINCT c_mktsegment FROM customer ORDER BY c_mktsegment"
)


def q_big_customer_orders(sf_dir: str):
    """Semi-join: orders of customers who placed any order > 400000."""
    orders = _t(sf_dir, "orders")
    big = (
        orders.map_batches(
            lambda t: t.filter(
                pc.greater(t.column("o_totalprice"), 400000)
            ).select(["o_custkey"]),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        .to_pandas()["o_custkey"]
        .unique()
    )
    sel = semi_join(orders, set(big.tolist()), "o_custkey")
    g = group_count(sel, "o_custkey", alias="n_orders")
    return g.sort_values("o_custkey").reset_index(drop=True)


ORACLE_BIG_CUSTOMER = """
SELECT o_custkey, count(*)::BIGINT AS n_orders
FROM orders
WHERE o_custkey IN (SELECT o_custkey FROM orders WHERE o_totalprice > 400000)
GROUP BY o_custkey ORDER BY o_custkey
"""


def q_order_outliers(sf_dir: str):
    """IQR outlier fences over o_totalprice (detect_outliers port)."""
    vals = (
        _t(sf_dir, "orders")
        .select_columns(["o_totalprice"])
        .to_pandas()["o_totalprice"]
        .to_numpy()
    )
    out = st.detect_outliers(vals)
    return pd.DataFrame(
        {
            "fence_low": [int(out["fence_low"])],
            "fence_high": [int(out["fence_high"])],
            "n_low": [len(out["low"])],
            "n_high": [len(out["high"])],
        }
    )


ORACLE_ORDER_OUTLIERS = """
WITH q AS (
  SELECT quantile_cont(o_totalprice, 0.25) AS q1,
         quantile_cont(o_totalprice, 0.75) AS q3
  FROM orders
), f AS (
  SELECT floor(q1 - 1.5 * (q3 - q1))::BIGINT AS fence_low,
         floor(q3 + 1.5 * (q3 - q1))::BIGINT AS fence_high
  FROM q
)
SELECT f.fence_low, f.fence_high,
       (SELECT count(*) FROM orders, f WHERE o_totalprice <= f.fence_low)::BIGINT AS n_low,
       (SELECT count(*) FROM orders, f WHERE o_totalprice > f.fence_high)::BIGINT AS n_high
FROM f
"""


def q_events_by_type(sf_dir: str):
    g = grouped_agg(
        _t(sf_dir, "events"), "event_type", {"value": ["sum", "mean", "count"]}
    )
    out = pd.DataFrame(
        {
            "event_type": g["event_type"],
            "n_events": g["value_count"].astype("int64"),
            "total_value": _round_away(g["value_sum"], 2),
            "avg_value": _round_away(g["value_mean"], 6),
        }
    )
    return out.sort_values("event_type").reset_index(drop=True)


ORACLE_EVENTS_BY_TYPE = """
SELECT event_type, count(*)::BIGINT AS n_events,
       round(sum(value), 2) AS total_value,
       round(avg(value), 6) AS avg_value
FROM events GROUP BY event_type ORDER BY event_type
"""


def q_events_daily(sf_dir: str):
    ev = _t(sf_dir, "events")

    def day(t: pa.Table) -> pa.Table:
        return pa.table({"day": pc.floor_temporal(t.column("ts"),
                                                  unit="day")})

    g = group_count(
        ev.map_batches(day, batch_format="pyarrow",
                       zero_copy_batch=True),
        "day", alias="n_events")
    return g.sort_values("day").reset_index(drop=True)


ORACLE_EVENTS_DAILY = """
SELECT date_trunc('day', ts) AS day, count(*)::BIGINT AS n_events
FROM events GROUP BY 1 ORDER BY 1
"""


def q_events_sessions(sf_dir: str):
    """Session windows (30-min inactivity gap) per user — sessionization
    runs once per HASH BUCKET of users (all of a user's events land in one
    bucket), fully vectorized inside the bucket: sort by (user, ts), mark
    session starts at user boundaries and >30-min gaps, grouped sum. Scales
    to millions of users at a bounded number of Python callbacks."""
    from recon_ray.functions.relational import bucketed_group_apply

    ev = _t(sf_dir, "events")

    def sessions_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        new_user = g["user_id"].ne(g["user_id"].shift())
        gap = g["ts"].diff() > pd.Timedelta(minutes=30)
        g = g.assign(__ns=(new_user | gap))
        agg = g.groupby("user_id", sort=False).agg(
            n_sessions=("__ns", "sum"), n_events=("__ns", "size")
        )
        return agg.reset_index()

    out = bucketed_group_apply(
        ev.select_columns(["user_id", "ts"]), "user_id", sessions_bucket
    ).to_pandas()
    out["n_sessions"] = out["n_sessions"].astype("int64")
    out["n_events"] = out["n_events"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


ORACLE_EVENTS_SESSIONS = """
WITH marked AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
                   OR ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                      > INTERVAL 30 MINUTE
              THEN 1 ELSE 0 END AS new_session
  FROM events
)
SELECT user_id, sum(new_session)::BIGINT AS n_sessions,
       count(*)::BIGINT AS n_events
FROM marked GROUP BY user_id ORDER BY user_id
"""


def q_events_tumbling_6h(sf_dir: str):
    """Tumbling-window aggregate (6-hour buckets × event_type): the
    batch-expressible form of a streaming window — the window key is a
    pure row function (ts floor), so it composes with the combiner
    grouped_agg like any other key; no ordering or state needed."""
    ev = _t(sf_dir, "events")

    def win(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "window_start": pc.floor_temporal(
                    t.column("ts"), multiple=6, unit="hour"),
                "event_type": t.column("event_type"),
                "value": t.column("value"),
            }
        )

    g = grouped_agg(
        ev.map_batches(win, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["window_start", "event_type"],
        {"value": ["sum", "count"]},
    )
    out = pd.DataFrame(
        {
            "window_start": g["window_start"],
            "event_type": g["event_type"],
            "n_events": g["value_count"].astype("int64"),
            "total_value": _round_away(g["value_sum"], 2),
        }
    )
    return out.sort_values(["window_start", "event_type"]).reset_index(drop=True)


ORACLE_EVENTS_TUMBLING = """
SELECT time_bucket(INTERVAL '6 hours', ts) AS window_start, event_type,
       count(*)::BIGINT AS n_events,
       round(sum(value), 2) AS total_value
FROM events GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_events_stream_hopping_6h_2h(sf_dir: str):
    """HOPPING (sliding) streaming window: 6-hour windows every 2 hours
    — each event contributes to 3 overlapping windows; the watermark
    seals each hop independently. Oracle: the batch form as a DuckDB
    cross join of events against the 3 hop offsets."""
    from recon_ray.stages.streaming import stream_tumbling_agg

    out = stream_tumbling_agg(
        _t(sf_dir, "events"), ts_col="ts", key_cols=["event_type"],
        value_col="value", window="6h", slide="2h", lateness="0s",
        ordered=True,
    )
    df = out["result"].to_pandas()
    df["n_events"] = df["n_events"].astype("int64")
    df["total_value"] = _round_away(df["total_value"], 2)
    return (
        df[["window_start", "event_type", "n_events", "total_value"]]
        .sort_values(["window_start", "event_type"])
        .reset_index(drop=True)
    )


ORACLE_EVENTS_STREAM_HOPPING = """
SELECT time_bucket(INTERVAL '2 hours', ts) - k * INTERVAL '2 hours'
         AS window_start,
       event_type,
       count(*)::BIGINT AS n_events,
       round(sum(value), 2) AS total_value
FROM events CROSS JOIN (SELECT unnest([0, 1, 2]) AS k) hops
GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_events_stream_distinct_6h(sf_dir: str):
    """Watermarked COUNT(DISTINCT user_id) per tumbling 6h window ×
    event_type (stages/streaming.py DistinctWindowActor, exact mode —
    per-window value sets; mode="hll" is the fixed-memory scale path,
    accuracy-pinned in tests/test_streaming.py)."""
    from recon_ray.stages.streaming import stream_distinct_agg

    out = stream_distinct_agg(
        _t(sf_dir, "events"), ts_col="ts", key_cols=["event_type"],
        distinct_col="user_id", window="6h", lateness="0s",
        mode="exact", ordered=True,
    )
    df = out["result"].to_pandas()
    df["n_distinct"] = df["n_distinct"].astype("int64")
    return (
        df[["window_start", "event_type", "n_distinct"]]
        .sort_values(["window_start", "event_type"])
        .reset_index(drop=True)
    )


ORACLE_EVENTS_STREAM_DISTINCT = """
SELECT time_bucket(INTERVAL '6 hours', ts) AS window_start, event_type,
       count(DISTINCT user_id)::BIGINT AS n_distinct
FROM events GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_events_stream_topk_users_6h(sf_dir: str):
    """Watermarked per-window TOP-5 users by event count (streaming
    TopKWindowActor, exact mode — rows split by WINDOW so each actor
    ranks whole windows; mode="mg" is the fixed-memory Misra-Gries
    scale path, heavy-hitter-pinned in tests/test_streaming.py).
    Deterministic rank: count DESC, user_id ASC."""
    from recon_ray.stages.streaming import stream_topk_agg

    out = stream_topk_agg(
        _t(sf_dir, "events"), ts_col="ts", item_col="user_id",
        window="6h", k=5, lateness="0s", mode="exact", ordered=True,
    )
    df = out["result"].to_pandas()
    df = df.rename(columns={"item": "user_id"})
    df["n"] = df["n"].astype("int64")
    return (
        df[["window_start", "user_id", "n"]]
        .sort_values(["window_start", "n", "user_id"],
                     ascending=[True, False, True])
        .reset_index(drop=True)
    )


ORACLE_EVENTS_STREAM_TOPK = """
WITH c AS (
  SELECT time_bucket(INTERVAL '6 hours', ts) AS window_start, user_id,
         count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2),
r AS (SELECT *, row_number() OVER (
        PARTITION BY window_start ORDER BY n DESC, user_id) AS rk
      FROM c)
SELECT window_start, user_id, n FROM r WHERE rk <= 5
ORDER BY window_start, n DESC, user_id
"""


def q_events_stream_attribution(sf_dir: str):
    """Stream-stream event-time interval join (stages/streaming.py
    IntervalJoinActor): purchases attributed to a preceding view by
    the same user within 24 h — (view event_id, purchase event_id)
    pairs, emitted exactly once regardless of which side arrives
    second. The two-input watermark is min(per-side max ts) −
    lateness, the Flink rule. Oracle: the equivalent batch interval
    self-join in DuckDB."""
    import pyarrow.compute as _pc

    from recon_ray.stages.streaming import stream_interval_join

    ev = _t(sf_dir, "events")

    def side(t, kind):
        return t.filter(_pc.equal(t.column("event_type"), kind))

    views = ev.map_batches(lambda t: side(t, "view"),
                           batch_format="pyarrow", zero_copy_batch=True)
    buys = ev.map_batches(lambda t: side(t, "purchase"),
                          batch_format="pyarrow", zero_copy_batch=True)
    out = stream_interval_join(
        views, buys, key_col="user_id", ts_col="ts",
        id_col="event_id", horizon="24h", lateness="0s", ordered=True,
    )
    df = out["result"].to_pandas().rename(
        columns={"left_id": "view_id", "right_id": "purchase_id"})
    df["view_id"] = df["view_id"].astype("int64")
    df["purchase_id"] = df["purchase_id"].astype("int64")
    return (df.sort_values(["view_id", "purchase_id"])
            .reset_index(drop=True))


ORACLE_EVENTS_STREAM_ATTRIBUTION = """
SELECT v.event_id AS view_id, p.event_id AS purchase_id
FROM events v JOIN events p
  ON v.user_id = p.user_id
 AND v.event_type = 'view' AND p.event_type = 'purchase'
 AND p.ts >= v.ts AND p.ts <= v.ts + INTERVAL 24 HOUR
ORDER BY view_id, purchase_id
"""


def q_events_stream_sessions(sf_dir: str):
    """STREAMING gap-based sessionization (stages/streaming.py
    SessionStateActor — the MERGING-window case: a late event can
    bridge two open sessions into one). Ordered replay with zero
    lateness reproduces the batch sessionization exactly, so the
    per-user rollup of the emitted session records shares
    q_events_sessions' DuckDB oracle. Merge/late-drop behavior is
    pinned by out-of-order fixtures in tests/test_streaming.py."""
    from recon_ray.stages.streaming import stream_session_windows

    out = stream_session_windows(
        _t(sf_dir, "events"), ts_col="ts", key_col="user_id",
        gap="30m", lateness="0s", ordered=True, key_type="int64",
    )
    df = out["result"].to_pandas()
    agg = (
        df.groupby("user_id", as_index=False)
        .agg(n_sessions=("session_start", "size"),
             n_events=("n_events", "sum"))
    )
    agg["n_sessions"] = agg["n_sessions"].astype("int64")
    agg["n_events"] = agg["n_events"].astype("int64")
    return agg.sort_values("user_id").reset_index(drop=True)


def q_events_stream_tumbling_6h(sf_dir: str):
    """STREAMING form of the tumbling window: the events table replays
    in event-time order through key-partitioned watermark actors
    (stages/streaming.py — per-window state lives ACROSS micro-batches,
    emission happens when the watermark passes each window's end, state
    is freed on emit). With an ordered replay nothing is ever late, so
    the emitted aggregate must equal the batch groupby — the same
    DuckDB oracle as q_events_tumbling_6h. Late-drop semantics are
    pinned by out-of-order fixtures in tests/test_streaming.py."""
    from recon_ray.stages.streaming import stream_tumbling_agg

    out = stream_tumbling_agg(
        _t(sf_dir, "events"), ts_col="ts", key_cols=["event_type"],
        value_col="value", window="6h", lateness="0s", ordered=True,
    )
    df = out["result"].to_pandas()
    df["n_events"] = df["n_events"].astype("int64")
    df["total_value"] = _round_away(df["total_value"], 2)
    return (
        df[["window_start", "event_type", "n_events", "total_value"]]
        .sort_values(["window_start", "event_type"])
        .reset_index(drop=True)
    )


def q_events_rolling_7d(sf_dir: str):
    """Rolling 7-day event count per day: the heavy part (daily counts) is
    a distributed grouped count; the rolling frame runs over the TINY
    per-day table (one row per day) on the driver — the right split for a
    window whose frame spans many partitions."""
    ev = _t(sf_dir, "events")

    def day(t: pa.Table) -> pa.Table:
        return pa.table({"day": pc.floor_temporal(t.column("ts"),
                                                  unit="day")})

    daily = group_count(
        ev.map_batches(day, batch_format="pyarrow",
                       zero_copy_batch=True),
        "day", alias="n_events"
    ).sort_values("day").reset_index(drop=True)
    daily["n_events_7d"] = (
        daily.set_index("day")["n_events"].rolling("7D").sum().to_numpy()
        .astype("int64")
    )
    return daily[["day", "n_events", "n_events_7d"]]


ORACLE_EVENTS_ROLLING = """
WITH daily AS (
  SELECT date_trunc('day', ts) AS day, count(*)::BIGINT AS n_events
  FROM events GROUP BY 1
)
SELECT day, n_events,
       sum(n_events) OVER (
         ORDER BY day RANGE BETWEEN INTERVAL 6 DAYS PRECEDING AND CURRENT ROW
       )::BIGINT AS n_events_7d
FROM daily ORDER BY day
"""


def q_full_outer_daily_users(sf_dir: str):
    """FULL OUTER join shape: daily purchase totals vs daily click
    totals per day — days with only one side survive with the other
    side's measures NULL (returned as 0-filled ints + presence flags so
    the hash gate stays integral). Both sides are pre-aggregated
    combiner-first, so the shuffle moves ≤ n_days rows per side."""
    from recon_ray.functions.relational import shuffle_join, to_table

    ev = _t(sf_dir, "events").select_columns(["ts", "event_type", "value"])

    def day_counts(which: str):
        def f(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t.column("event_type"), which))
            d = pc.strftime(t.column("ts"), format="%Y-%m-%d")
            g = (pa.table({"day": d})
                 .group_by(["day"]).aggregate([([], "count_all")]))
            return g.rename_columns(["day", "n"])
        return f

    buy = grouped_agg(
        ev.map_batches(day_counts("purchase"), batch_format="pyarrow",
                       zero_copy_batch=True),
        "day", {"n": ["sum"]},
    ).rename(columns={"n_sum": "n_purchases"})
    log = grouped_agg(
        ev.map_batches(day_counts("click"), batch_format="pyarrow",
                       zero_copy_batch=True),
        "day", {"n": ["sum"]},
    ).rename(columns={"n_sum": "n_clicks"})
    # drop odd days from the left and even from the right so BOTH
    # unmatched directions exist and the FULL OUTER semantics are load-
    # bearing, not decorative
    buy = buy[buy["day"].str[-1].astype(int) % 2 == 0]
    log = log[log["day"].str[-1].astype(int) % 2 == 1]
    j = to_table(shuffle_join(
        rd.from_pandas(buy.rename(columns={"day": "bday"})),
        rd.from_pandas(log.rename(columns={"day": "lday"})),
        on="bday", right_on="lday", how="full_outer",
    )).to_pandas()
    day = j["bday"].where(j["bday"].notna(), j.get("lday"))
    out = pd.DataFrame(
        {"day": day,
         "has_purchases": j["n_purchases"].notna().astype("int64"),
         "n_purchases": j["n_purchases"].fillna(0).astype("int64"),
         "has_clicks": j["n_clicks"].notna().astype("int64"),
         "n_clicks": j["n_clicks"].fillna(0).astype("int64")}
    )
    return out.sort_values("day").reset_index(drop=True)


ORACLE_FULL_OUTER_DAILY = """
WITH b AS (
  SELECT strftime(ts, '%Y-%m-%d') AS day, count(*)::BIGINT AS n_purchases
  FROM events WHERE event_type = 'purchase' GROUP BY 1
), l AS (
  SELECT strftime(ts, '%Y-%m-%d') AS day, count(*)::BIGINT AS n_clicks
  FROM events WHERE event_type = 'click' GROUP BY 1
), b2 AS (SELECT * FROM b WHERE CAST(right(day, 1) AS INT) % 2 = 0),
   l2 AS (SELECT * FROM l WHERE CAST(right(day, 1) AS INT) % 2 = 1)
SELECT coalesce(b2.day, l2.day) AS day,
       (b2.day IS NOT NULL)::BIGINT AS has_purchases,
       coalesce(b2.n_purchases, 0) AS n_purchases,
       (l2.day IS NOT NULL)::BIGINT AS has_clicks,
       coalesce(l2.n_clicks, 0) AS n_clicks
FROM b2 FULL OUTER JOIN l2 ON b2.day = l2.day
ORDER BY day
"""


def q_orders_profile(sf_dir: str):
    """Column profiler (functions.stats.profile_columns) over four
    orders columns: exact per-column row/null/distinct counts + min/max
    (combiner pass + one distinct-pair shuffle; no row collection).
    Floats are excluded from min/max stringification parity; the int
    and varchar columns are byte-exact against DuckDB."""
    from recon_ray.functions.stats import profile_columns

    return profile_columns(
        _t(sf_dir, "orders").select_columns(
            ["o_custkey", "o_orderpriority", "o_orderstatus", "o_orderkey"]
        ),
        ["o_custkey", "o_orderpriority", "o_orderstatus", "o_orderkey"],
    )


ORACLE_ORDERS_PROFILE = """
WITH p AS (
  SELECT 'o_custkey' AS "column", count(*)::BIGINT AS n_rows,
         (count(*) - count(o_custkey))::BIGINT AS n_null,
         count(DISTINCT o_custkey)::BIGINT AS n_distinct,
         CAST(min(o_custkey) AS VARCHAR) AS min_value,
         CAST(max(o_custkey) AS VARCHAR) AS max_value
  FROM orders
  UNION ALL
  SELECT 'o_orderpriority', count(*), count(*) - count(o_orderpriority),
         count(DISTINCT o_orderpriority),
         min(o_orderpriority), max(o_orderpriority) FROM orders
  UNION ALL
  SELECT 'o_orderstatus', count(*), count(*) - count(o_orderstatus),
         count(DISTINCT o_orderstatus),
         min(o_orderstatus), max(o_orderstatus) FROM orders
  UNION ALL
  SELECT 'o_orderkey', count(*), count(*) - count(o_orderkey),
         count(DISTINCT o_orderkey),
         CAST(min(o_orderkey) AS VARCHAR),
         CAST(max(o_orderkey) AS VARCHAR) FROM orders
)
SELECT * FROM p ORDER BY "column"
"""


def q_semi_anti_shuffle(sf_dir: str):
    """Large-large EXISTS + NOT EXISTS via hash-partitioned
    left_semi/left_anti joins (relational.shuffle_semi_join — neither
    side is collected or broadcast, unlike the key-set semi_join). Left:
    customers; right: orders over $150k. Per-segment counts plus
    min/max custkey of each class keep the result small while pinning
    the exact membership."""
    from recon_ray.functions.relational import (arrow_filter,
                                                shuffle_semi_join)

    cust = _t(sf_dir, "customer").select_columns(
        ["c_custkey", "c_mktsegment"]
    )
    big = arrow_filter(
        _t(sf_dir, "orders").select_columns(["o_custkey", "o_totalprice"]),
        lambda t: pc.greater(t.column("o_totalprice"), 150000.0),
    )

    def profile(ds, flag: str) -> pd.DataFrame:
        df = grouped_agg(ds, "c_mktsegment",
                         {"c_custkey": ["count", "min", "max"]})
        df = df.rename(columns={
            "c_custkey_count": f"n_{flag}",
            "c_custkey_min": f"min_key_{flag}",
            "c_custkey_max": f"max_key_{flag}",
        })
        for c in df.columns:
            if c != "c_mktsegment":
                df[c] = df[c].astype("int64")
        return df

    has = profile(
        shuffle_semi_join(cust, big, on="c_custkey", right_on="o_custkey"),
        "with",
    )
    not_has = profile(
        shuffle_semi_join(cust, big, on="c_custkey", right_on="o_custkey",
                          anti=True),
        "without",
    )
    out = has.merge(not_has, on="c_mktsegment", how="outer")
    return out.sort_values("c_mktsegment").reset_index(drop=True)


ORACLE_SEMI_ANTI_SHUFFLE = """
WITH big AS (SELECT DISTINCT o_custkey FROM orders
             WHERE o_totalprice > 150000.0),
w AS (
  SELECT c_mktsegment, count(*)::BIGINT AS n_with,
         min(c_custkey)::BIGINT AS min_key_with,
         max(c_custkey)::BIGINT AS max_key_with
  FROM customer WHERE c_custkey IN (SELECT o_custkey FROM big)
  GROUP BY 1
), wo AS (
  SELECT c_mktsegment, count(*)::BIGINT AS n_without,
         min(c_custkey)::BIGINT AS min_key_without,
         max(c_custkey)::BIGINT AS max_key_without
  FROM customer WHERE c_custkey NOT IN (SELECT o_custkey FROM big)
  GROUP BY 1
)
SELECT coalesce(w.c_mktsegment, wo.c_mktsegment) AS c_mktsegment,
       n_with, min_key_with, max_key_with,
       n_without, min_key_without, max_key_without
FROM w FULL OUTER JOIN wo ON w.c_mktsegment = wo.c_mktsegment
ORDER BY c_mktsegment
"""


def q_lineitem_unpivot(sf_dir: str):
    """UNPIVOT (functions.relational.unpivot): every 500th order's
    lineitem measures (quantity/discount/tax as integer cents) melt to
    (orderkey, linenumber, name, cents) long rows — per-batch pandas
    melt, no shuffle. Oracle: the equivalent UNION ALL."""
    from recon_ray.functions.relational import unpivot

    li = _t(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_linenumber", "l_quantity", "l_discount", "l_tax"]
    )

    def slim(t: pa.Table) -> pa.Table:
        k = t.column("l_orderkey")
        m = pa.scalar(500, pa.int64())
        t = t.filter(pc.equal(k, pc.multiply(pc.divide(k, m), m)))
        return pa.table(
            {
                "l_orderkey": t.column("l_orderkey"),
                "l_linenumber": t.column("l_linenumber"),
                "quantity_c": _cents_arrow(t.column("l_quantity")),
                "discount_c": _cents_arrow(t.column("l_discount")),
                "tax_c": _cents_arrow(t.column("l_tax")),
            }
        )

    out = (
        unpivot(
            li.map_batches(slim, batch_format="pyarrow"),
            ["l_orderkey", "l_linenumber"],
            ["quantity_c", "discount_c", "tax_c"],
            var_name="measure", value_name="cents",
        )
        .to_pandas()
        .sort_values(["l_orderkey", "l_linenumber", "measure"])
        .reset_index(drop=True)
    )
    out["cents"] = out["cents"].astype("int64")
    return out


ORACLE_LINEITEM_UNPIVOT = """
WITH s AS (
  SELECT l_orderkey, l_linenumber,
         CAST(floor(l_quantity * 100 + 0.5) AS BIGINT) AS quantity_c,
         CAST(floor(l_discount * 100 + 0.5) AS BIGINT) AS discount_c,
         CAST(floor(l_tax * 100 + 0.5) AS BIGINT) AS tax_c
  FROM lineitem WHERE l_orderkey % 500 = 0
)
SELECT l_orderkey, l_linenumber, measure, cents FROM (
  SELECT l_orderkey, l_linenumber, 'quantity_c' AS measure,
         quantity_c AS cents FROM s
  UNION ALL
  SELECT l_orderkey, l_linenumber, 'discount_c', discount_c FROM s
  UNION ALL
  SELECT l_orderkey, l_linenumber, 'tax_c', tax_c FROM s
) ORDER BY l_orderkey, l_linenumber, measure
"""


def q_events_transitions(sf_dir: str):
    """Event-type transition matrix (first-order Markov counts): per-user
    event streams ordered by (ts, event_id), adjacent (prev → next) type
    pairs counted corpus-wide with an integer-ppm share of each source
    type's outgoing mass. One hash shuffle (window_over lag on user_id),
    then a combiner group count — the behavioral-analytics staple
    composed from the engine's own window + aggregate ops. Oracled by
    DuckDB's lag() window."""
    from recon_ray.functions.relational import window_over

    ev = _t(sf_dir, "events").select_columns(
        ["event_id", "user_id", "ts", "event_type"]
    )
    w = window_over(
        ev, "user_id", ["ts", "event_id"],
        [("lag", "event_type", "prev_type")],
    )
    pairs = w.map_batches(
        lambda t: t.filter(pc.is_valid(t.column("prev_type")))
        .select(["prev_type", "event_type"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    out = group_count(pairs, ["prev_type", "event_type"], alias="n")
    out["n"] = out["n"].astype("int64")
    tot = out.groupby("prev_type")["n"].transform("sum")
    out["share_ppm"] = (out["n"] * 1_000_000 // tot).astype("int64")
    return (
        out.sort_values(["prev_type", "event_type"]).reset_index(drop=True)
    )


ORACLE_EVENTS_TRANSITIONS = """
WITH seq AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev_type
  FROM events
), pairs AS (
  SELECT prev_type, event_type, count(*)::BIGINT AS n
  FROM seq WHERE prev_type IS NOT NULL GROUP BY 1, 2
)
SELECT prev_type, event_type, n,
       (n * 1000000 // sum(n) OVER (PARTITION BY prev_type))::BIGINT
         AS share_ppm
FROM pairs ORDER BY prev_type, event_type
"""


def q_events_rolling_value(sf_dir: str):
    """Bounded-frame window: per-user 5-row rolling sum and 3-row rolling
    max of integer event cents ordered by (ts, event_id) —
    relational.window_over's ROWS-BETWEEN frames ("rolling_sum:5"), one
    hash shuffle, vectorized pandas rolling kernels per bucket. Integer
    cents make the rolling sum order-free, so DuckDB's frame engine
    reproduces it exactly."""
    from recon_ray.functions.relational import window_over

    ev = _t(sf_dir, "events").select_columns(
        ["event_id", "user_id", "ts", "value"]
    )

    def cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "ts": t.column("ts"),
                "value_cents": _cents_arrow(t.column("value")),
            }
        )

    out = window_over(
        ev.map_batches(cents, batch_format="pyarrow"),
        "user_id", ["ts", "event_id"],
        [("rolling_sum:5", "value_cents", "roll5_sum"),
         ("rolling_max:3", "value_cents", "roll3_max")],
    ).to_pandas()
    out = out[["event_id", "roll5_sum", "roll3_max"]]
    return out.sort_values("event_id").reset_index(drop=True)


ORACLE_EVENTS_ROLLING_VALUE = """
WITH c AS (
  SELECT event_id, user_id, ts,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_cents
  FROM events
)
SELECT event_id,
  CAST(sum(value_cents) OVER (PARTITION BY user_id ORDER BY ts, event_id
       ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS BIGINT) AS roll5_sum,
  CAST(max(value_cents) OVER (PARTITION BY user_id ORDER BY ts, event_id
       ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS BIGINT) AS roll3_max
FROM c ORDER BY event_id
"""


def q_events_user_spend_7d(sf_dir: str):
    """Trailing 7-DAY per-user spend at every event
    (relational.time_rolling_sum): a value-based window (SQL RANGE
    frame) — one hash shuffle on user_id, then per-partition prefix-sum
    + one searchsorted of (ts - 7d); integer cents keep it exact. Ties
    on ts count up to the current row in (ts, event_id) order, which the
    self-join oracle encodes explicitly."""
    from recon_ray.functions.relational import time_rolling_sum

    ev = _t(sf_dir, "events").select_columns(
        ["event_id", "user_id", "ts", "value"]
    )

    def cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "ts": t.column("ts"),
                "value_cents": _cents_arrow(t.column("value")),
            }
        )

    out = time_rolling_sum(
        ev.map_batches(cents, batch_format="pyarrow"),
        "user_id", "ts", "value_cents", "7D",
        out_name="spend_7d", tie_cols=["event_id"],
    ).to_pandas()
    out = out[["event_id", "spend_7d"]]
    return out.sort_values("event_id").reset_index(drop=True)


ORACLE_EVENTS_SPEND_7D = """
WITH c AS (
  SELECT event_id, user_id, ts,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_cents
  FROM events
)
SELECT a.event_id, CAST(sum(b.value_cents) AS BIGINT) AS spend_7d
FROM c a JOIN c b ON b.user_id = a.user_id
 AND b.ts >= a.ts - INTERVAL 7 DAY
 AND (b.ts < a.ts OR (b.ts = a.ts AND b.event_id <= a.event_id))
GROUP BY a.event_id ORDER BY a.event_id
"""


def q_events_state_intervals(sf_dir: str):
    """SCD2-style validity intervals: each event is the user's current
    state from its own ts until the user's NEXT event (exclusive), the
    last state open-ended (sentinel 9999-12-31) — the lead window
    composed into the warehouse's slowly-changing-dimension shape. One
    hash shuffle; timestamps serialize as strings so both engines hash
    identical bytes."""
    from recon_ray.functions.relational import window_over

    ev = _t(sf_dir, "events").select_columns(
        ["event_id", "user_id", "ts", "event_type"]
    )
    w = window_over(
        ev, "user_id", ["ts", "event_id"],
        [("lead", "ts", "next_ts")],
    ).to_pandas()
    out = pd.DataFrame(
        {
            "event_id": w["event_id"].astype("int64"),
            "user_id": w["user_id"].astype("int64"),
            "state": w["event_type"],
            "valid_from": w["ts"].dt.strftime("%Y-%m-%d %H:%M:%S"),
            "valid_to": w["next_ts"].dt.strftime("%Y-%m-%d %H:%M:%S")
            .fillna("9999-12-31 00:00:00"),
        }
    )
    return out.sort_values("event_id").reset_index(drop=True)


ORACLE_EVENTS_STATE_INTERVALS = """
SELECT event_id, user_id, event_type AS state,
       strftime(ts, '%Y-%m-%d %H:%M:%S') AS valid_from,
       coalesce(
         strftime(lead(ts) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id),
                  '%Y-%m-%d %H:%M:%S'),
         '9999-12-31 00:00:00') AS valid_to
FROM events ORDER BY event_id
"""


def q_events_window_running(sf_dir: str):
    """Per-row window functions over every event — row_number, running
    sum, previous value, and running max per user ordered by
    (ts, event_id) — via relational.window_over (one hash shuffle on
    user_id, per-bucket vectorized kernels, Python callbacks bounded at
    bucket count). Value rides as integer cents (floor(v·100+0.5), the
    repo-wide quantization) so the running sum is order-free int64 —
    DuckDB's window SUM accumulates in segment-tree order and could
    differ in float ulps otherwise."""
    from recon_ray.functions.relational import window_over

    ev = _t(sf_dir, "events").select_columns(
        ["event_id", "user_id", "ts", "value"]
    )

    def cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "ts": t.column("ts"),
                "value_cents": _cents_arrow(t.column("value")),
            }
        )

    out = window_over(
        ev.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True),
        "user_id",
        ["ts", "event_id"],
        [
            ("row_number", None, "rn"),
            ("running_sum", "value_cents", "running_value_cents"),
            ("lag", "value_cents", "prev_value_cents"),
            ("running_max", "value_cents", "max_value_cents"),
        ],
    )
    # tie-aware ranks on a coarse key (value bucket) — a second window
    # pass ordered by a DIFFERENT key than the first
    out = window_over(
        out.map_batches(
            lambda t: t.append_column(
                "value_bucket",
                pc.cast(
                    pc.floor(pc.divide(pc.cast(t.column("value_cents"),
                                               pa.float64()),
                                       pa.scalar(1000.0))),
                    pa.int64(),
                ),
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        "user_id",
        ["value_bucket"],
        [("rank", None, "vrank"), ("dense_rank", None, "vdense")],
    ).to_pandas()
    out["prev_value_cents"] = (
        out["prev_value_cents"].fillna(0).astype("int64")
    )
    out = out[
        ["event_id", "user_id", "ts", "value_cents", "rn",
         "running_value_cents", "prev_value_cents", "max_value_cents",
         "value_bucket", "vrank", "vdense"]
    ]
    return out.sort_values("event_id").reset_index(drop=True)


ORACLE_EVENTS_WINDOW = """
WITH e AS (
  SELECT event_id, user_id, ts,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_cents
  FROM events
)
SELECT event_id, user_id, ts, value_cents,
       row_number() OVER w AS rn,
       (sum(value_cents) OVER (PARTITION BY user_id ORDER BY ts, event_id
          ROWS UNBOUNDED PRECEDING))::BIGINT AS running_value_cents,
       COALESCE(lag(value_cents) OVER w, 0) AS prev_value_cents,
       max(value_cents) OVER (PARTITION BY user_id ORDER BY ts, event_id
          ROWS UNBOUNDED PRECEDING) AS max_value_cents,
       floor(value_cents / 1000)::BIGINT AS value_bucket,
       rank() OVER b AS vrank,
       dense_rank() OVER b AS vdense
FROM e
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id),
       b AS (PARTITION BY user_id ORDER BY floor(value_cents / 1000))
ORDER BY event_id
"""


def _events_user_days(sf_dir: str, event_type: str):
    """(user_id, day) pairs for one event type — map-side filter +
    projection (no full-row shuffle; the set op dedups)."""
    ev = _t(sf_dir, "events")

    def proj(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("event_type"), event_type))
        return pa.table(
            {"user_id": t.column("user_id"),
             "day": pc.floor_temporal(t.column("ts"), unit="day")}
        )

    return ev.map_batches(proj, batch_format="pyarrow",
                          zero_copy_batch=True)


def q_events_user_day_intersect(sf_dir: str):
    """(user, day) pairs with BOTH a purchase and a click — SQL INTERSECT
    via functions.relational.intersect (single hash shuffle)."""
    from recon_ray.functions.relational import intersect

    out = intersect(
        _events_user_days(sf_dir, "purchase"),
        _events_user_days(sf_dir, "click"),
        ["user_id", "day"],
    ).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values(["user_id", "day"]).reset_index(drop=True)


ORACLE_EVENTS_INTERSECT = """
SELECT user_id, day FROM (
  SELECT DISTINCT user_id, date_trunc('day', ts) AS day
  FROM events WHERE event_type='purchase'
  INTERSECT
  SELECT DISTINCT user_id, date_trunc('day', ts) AS day
  FROM events WHERE event_type='click'
) ORDER BY user_id, day
"""


def q_events_user_day_except(sf_dir: str):
    """(user, day) purchase pairs with NO click that day — SQL EXCEPT via
    functions.relational.difference."""
    from recon_ray.functions.relational import difference

    out = difference(
        _events_user_days(sf_dir, "purchase"),
        _events_user_days(sf_dir, "click"),
        ["user_id", "day"],
    ).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values(["user_id", "day"]).reset_index(drop=True)


ORACLE_EVENTS_EXCEPT = """
SELECT user_id, day FROM (
  SELECT DISTINCT user_id, date_trunc('day', ts) AS day
  FROM events WHERE event_type='purchase'
  EXCEPT
  SELECT DISTINCT user_id, date_trunc('day', ts) AS day
  FROM events WHERE event_type='click'
) ORDER BY user_id, day
"""


def q_events_asof_purchase_click(sf_dir: str):
    """As-of join: each purchase event matched to the SAME user's latest
    click at-or-before it (inner — purchases with no prior click drop).
    Uses functions.relational.asof_join: both sides co-partition in ONE
    hash shuffle on user_id, then one vectorized merge_asof per bucket;
    DuckDB's native ASOF JOIN is the oracle."""
    import pyarrow.compute as pc

    from recon_ray.functions.relational import asof_join

    ev = _t(sf_dir, "events")

    def only(event_type: str):
        def f(t):
            return t.filter(pc.equal(t["event_type"], pa.scalar(event_type)))

        return f

    cols = ["event_id", "user_id", "ts"]
    purchases = ev.map_batches(
        only("purchase"), batch_format="pyarrow", zero_copy_batch=True
    ).select_columns(cols)
    clicks = ev.map_batches(
        only("click"), batch_format="pyarrow", zero_copy_batch=True
    ).select_columns(cols)

    j = asof_join(purchases, clicks, by="user_id", on="ts").to_pandas()
    out = pd.DataFrame(
        {
            "purchase_id": j["event_id"].astype("int64"),
            "user_id": j["user_id"].astype("int64"),
            "purchase_ts": j["ts"],
            "click_id": j["event_id_r"].astype("int64"),
            "click_ts": j["ts_r"],
        }
    )
    return out.sort_values("purchase_id").reset_index(drop=True)


ORACLE_EVENTS_ASOF = """
SELECT l.event_id AS purchase_id, l.user_id AS user_id, l.ts AS purchase_ts,
       r.event_id AS click_id, r.ts AS click_ts
FROM (SELECT * FROM events WHERE event_type = 'purchase') l
ASOF JOIN (SELECT * FROM events WHERE event_type = 'click') r
  ON l.user_id = r.user_id AND r.ts <= l.ts
ORDER BY purchase_id
"""


def q_events_retention(sf_dir: str):
    """Weekly cohort retention (epoch-anchored 7-day windows): users
    bucketed by first-activity week, counted once per (cohort, offset)
    they were active in — functions.insights.retention, one user-key
    shuffle + per-bucket vectorized resolution. All-integer output."""
    from recon_ray.functions.insights import retention

    return retention(_t(sf_dir, "events"))


ORACLE_EVENTS_RETENTION = """
WITH p AS (
  SELECT user_id, epoch_us(ts) // 604800000000 AS pi FROM events
), f AS (
  SELECT user_id, min(pi) AS c FROM p GROUP BY user_id
), a AS (
  SELECT DISTINCT p.user_id, f.c, p.pi - f.c AS k
  FROM p JOIN f USING (user_id)
)
SELECT c::BIGINT AS cohort_idx, k::BIGINT AS week_offset,
       count(*)::BIGINT AS n_users
FROM a GROUP BY c, k ORDER BY c, k
"""


def q_events_grouped_quantiles(sf_dir: str):
    """Exact per-group quantiles (quantile_disc element semantics) of the
    event value by event_type — functions.sketches.grouped_quantiles: one
    key shuffle, all groups of a bucket resolved in one vectorized pass.
    The picked values are actual data elements, so floats compare exactly."""
    from recon_ray.functions.sketches import grouped_quantiles

    return grouped_quantiles(
        _t(sf_dir, "events"), "event_type", "value", [0.25, 0.5, 0.9]
    )


ORACLE_EVENTS_GROUPED_QUANTILES = """
SELECT event_type, CAST(q AS DOUBLE) AS q, value FROM (
  SELECT event_type, 0.25 AS q, quantile_disc(value, 0.25) AS value
  FROM events GROUP BY event_type
  UNION ALL
  SELECT event_type, 0.5, quantile_disc(value, 0.5)
  FROM events GROUP BY event_type
  UNION ALL
  SELECT event_type, 0.9, quantile_disc(value, 0.9)
  FROM events GROUP BY event_type
) ORDER BY event_type, q
"""


def q_events_funnel(sf_dir: str):
    """view → click → purchase conversion funnel, first-touch semantics
    (stage i needs a stage-i event strictly after the user's first
    qualifying stage-(i-1) event). functions.insights.funnel: one hash
    shuffle on user_id, stage chain vectorized per bucket, per-stage
    partial counts summed on the driver."""
    from recon_ray.functions.insights import funnel

    return funnel(_t(sf_dir, "events"), ["view", "click", "purchase"])


ORACLE_EVENTS_FUNNEL = """
WITH s0 AS (
  SELECT user_id, min(ts) AS t FROM events
  WHERE event_type = 'view' GROUP BY user_id
), s1 AS (
  SELECT e.user_id, min(e.ts) AS t FROM events e
  JOIN s0 ON s0.user_id = e.user_id
  WHERE e.event_type = 'click' AND e.ts > s0.t GROUP BY e.user_id
), s2 AS (
  SELECT e.user_id, min(e.ts) AS t FROM events e
  JOIN s1 ON s1.user_id = e.user_id
  WHERE e.event_type = 'purchase' AND e.ts > s1.t GROUP BY e.user_id
)
SELECT 0::BIGINT AS stage_idx, 'view' AS stage,
       (SELECT count(*) FROM s0)::BIGINT AS n_users
UNION ALL SELECT 1, 'click', (SELECT count(*) FROM s1)
UNION ALL SELECT 2, 'purchase', (SELECT count(*) FROM s2)
ORDER BY stage_idx
"""


def q_events_props_scrub(sf_dir: str):
    """PII-style redaction over the raw event payloads: every digit run in
    ``props`` replaced with a ``<number>`` token. Pure streaming Arrow
    kernel (functions.pii.scrub) — no shuffle, no state; the oracle is
    DuckDB's regexp_replace with the identical RE2 pattern."""
    from recon_ray.functions.pii import scrub

    ev = _t(sf_dir, "events").select_columns(["event_id", "props"])
    return scrub(ev, "props", kinds=("number",), out_col="props_redacted")


ORACLE_EVENTS_PROPS_SCRUB = r"""
SELECT event_id, props,
       regexp_replace(props, '\d+', '<number>', 'g') AS props_redacted
FROM events ORDER BY event_id
"""


def q_events_pii_audit(sf_dir: str):
    """PII audit rollup: per event_type, how many digit-run matches live in
    the payloads (counted independently, unmasked — functions.pii.pii_counts)
    plus the count of events carrying at least one. Combiner grouped agg."""
    from recon_ray.functions.pii import pii_counts
    from recon_ray.functions.relational import grouped_agg

    ev = _t(sf_dir, "events").select_columns(["event_type", "props"])
    counted = pii_counts(ev, "props", kinds=("number",)).map_batches(
        lambda t: t.append_column(
            "has_pii",
            pc.cast(pc.greater(t["n_number"], pa.scalar(0)), pa.int64()),
        ),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    out = grouped_agg(counted, "event_type",
                      {"n_number": ["sum"], "has_pii": ["sum"]})
    out = out.rename(columns={"n_number_sum": "n_matches",
                              "has_pii_sum": "n_events_with_pii"})
    out["n_matches"] = out["n_matches"].astype("int64")
    out["n_events_with_pii"] = out["n_events_with_pii"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


ORACLE_EVENTS_PII_AUDIT = r"""
SELECT event_type,
       sum(len(regexp_extract_all(props, '\d+')))::BIGINT AS n_matches,
       sum(CASE WHEN regexp_matches(props, '\d+') THEN 1 ELSE 0 END)::BIGINT
           AS n_events_with_pii
FROM events GROUP BY event_type ORDER BY event_type
"""


#: price bands for the range-join showcase — deliberately OVERLAPPING
#: ('huge' ⊂ 'large'), so rows multi-match and the interval semantics
#: (not just a CASE bucketing) are what the oracle checks.
PRICE_BANDS = [
    ("small", 0.0, 50_000.0),
    ("medium", 50_000.0, 150_000.0),
    ("large", 150_000.0, 1e12),
    ("huge", 300_000.0, 1e12),
]


def q_orders_range_join_bands(sf_dir: str):
    """Interval (range) join: orders against a broadcast band table on
    o_totalprice ∈ [lo, hi) — overlapping bands multi-match — then a
    combiner grouped agg per band. No shuffle for the join itself
    (functions.relational.range_join)."""
    from recon_ray.functions.relational import range_join

    orders = _t(sf_dir, "orders")
    bands = pd.DataFrame(PRICE_BANDS, columns=["band", "lo", "hi"])
    j = range_join(orders, bands, on="o_totalprice")

    def cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {"band": t.column("band"),
             "price_c": _cents_arrow(t.column("o_totalprice"))}
        )

    g = grouped_agg(
        j.map_batches(cents, batch_format="pyarrow",
                      zero_copy_batch=True),
        ["band"],
        {"price_c": ["sum", "count"]},
    )
    out = pd.DataFrame(
        {
            "band": g["band"],
            "n_orders": g["price_c_count"].astype("int64"),
            "total_price": _round_away(g["price_c_sum"] / 100.0, 2),
        }
    )
    return out.sort_values("band").reset_index(drop=True)


ORACLE_ORDERS_RANGE_JOIN = """
WITH bands(band, lo, hi) AS (VALUES
  ('small', 0.0, 50000.0),
  ('medium', 50000.0, 150000.0),
  ('large', 150000.0, 1e12),
  ('huge', 300000.0, 1e12))
SELECT band, count(*)::BIGINT AS n_orders,
       round(sum(round(o_totalprice * 100)::BIGINT) / 100.0, 2) AS total_price
FROM orders JOIN bands ON o_totalprice >= lo AND o_totalprice < hi
GROUP BY band ORDER BY band
"""


def q_union_price_bands(sf_dir: str):
    """Union-all of two filtered selects + grouped count (Corpus.all shape)."""
    orders = _t(sf_dir, "orders")

    def tag(t: pa.Table, band: str, lo: float, hi: float) -> pa.Table:
        p = t.column("o_totalprice")
        sel = t.filter(pc.and_(pc.greater_equal(p, lo),
                               pc.less(p, hi)))
        return pa.table({
            "band": pa.array([band] * sel.num_rows, pa.string()),
            "o_orderkey": sel.column("o_orderkey"),
        })

    high = orders.map_batches(
        lambda t: tag(t, "high", 300000.0, float("inf")),
        batch_format="pyarrow", zero_copy_batch=True
    )
    low = orders.map_batches(
        lambda t: tag(t, "low", 0.0, 50000.0),
        batch_format="pyarrow", zero_copy_batch=True
    )
    g = group_count(high.union(low), "band", alias="n_orders")
    return g.sort_values("band").reset_index(drop=True)


ORACLE_UNION_BANDS = """
SELECT band, count(*)::BIGINT AS n_orders FROM (
  SELECT 'high' AS band, o_orderkey FROM orders WHERE o_totalprice >= 300000
  UNION ALL
  SELECT 'low' AS band, o_orderkey FROM orders WHERE o_totalprice < 50000
) GROUP BY band ORDER BY band
"""


def q_part_type_stats(sf_dir: str):
    g = grouped_agg(
        _t(sf_dir, "part"), "p_type", {"p_retailprice": ["min", "max", "mean", "count"]}
    )
    out = pd.DataFrame(
        {
            "p_type": g["p_type"],
            "n_parts": g["p_retailprice_count"].astype("int64"),
            "min_price": _round_away(g["p_retailprice_min"], 2),
            "max_price": _round_away(g["p_retailprice_max"], 2),
            "avg_price": _round_away(g["p_retailprice_mean"], 6),
        }
    )
    return out.sort_values("p_type").reset_index(drop=True)


ORACLE_PART_TYPE = """
SELECT p_type, count(*)::BIGINT AS n_parts,
       round(min(p_retailprice), 2) AS min_price,
       round(max(p_retailprice), 2) AS max_price,
       round(avg(p_retailprice), 6) AS avg_price
FROM part GROUP BY p_type ORDER BY p_type
"""



def q_priority_revenue_shuffle_join(sf_dir: str):
    """Both-sides-large hash join (Dataset.join, hash-partitioned):
    lineitem ⋈ orders on the order key, revenue per order priority."""
    from recon_ray.functions.relational import shuffle_join

    li = _t(sf_dir, "lineitem").map_batches(
        lambda t: _add_revenue_part(t).select(["l_orderkey", "revenue_part"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    orders = _t(sf_dir, "orders").select_columns(["o_orderkey", "o_orderpriority"])
    joined = shuffle_join(li, orders, on="l_orderkey", right_on="o_orderkey")
    g = grouped_agg(joined, "o_orderpriority",
                    {"revenue_part": ["sum", "count"]})
    out = pd.DataFrame(
        {
            "o_orderpriority": g["o_orderpriority"],
            "revenue": _round_away((g["revenue_part_sum"] / 10000.0), 2),
            "n_items": g["revenue_part_count"].astype("int64"),
        }
    )
    return out.sort_values("o_orderpriority").reset_index(drop=True)


ORACLE_PRIORITY_REVENUE = """
SELECT o_orderpriority,
       round(sum(round(l_extendedprice * 100)::BIGINT
                 * (100 - round(l_discount * 100)::BIGINT)) / 10000.0, 2) AS revenue,
       count(*)::BIGINT AS n_items
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


# ---------------------------------------------------------------------------
# KG-construction queries (synthetic corpus; oracle = gold parquet from the
# sequential reference extractor — the P/R-vs-reference gate)
# ---------------------------------------------------------------------------

_KG_CACHE: dict = {}


def _kg(sf_dir: str) -> dict:
    """Run the Ray pipeline once and cache MATERIALIZED Datasets (pinned in
    the object store, never collected to driver pandas) — every downstream
    query streams over them with Arrow filters / grouped aggregates; only a
    query's own RESULT table is collected. The KG corpus scale is PINNED to
    fixtures.PINNED_KG_SF independent of sf_dir — oracle_sql() bakes
    absolute gold paths with no sf parameter, so query and oracle must
    resolve the same corpus (see fixtures.py)."""
    sf_dir = fixtures.PINNED_KG_SF
    key = fixtures.sf_name(sf_dir)
    if key in _KG_CACHE:
        return _KG_CACHE[key]
    fixtures.ensure_fixtures(sf_dir)
    from recon_ray.pipelines.kg import run_kg, symbols_from_docs

    res = run_kg(fixtures.files_dir(sf_dir))
    out = {
        "canonical_ds": res["canonical"].materialize(),
        "mentions_ds": res["mentions"].materialize(),
        "docs": res["docs"],
        "symbols_table": symbols_from_docs(res["docs"]).to_pandas(),
    }
    _KG_CACHE[key] = out
    return out


def _canonical_pred(sf_dir: str, pred: str, cols: dict[str, str]) -> pd.DataFrame:
    """Streaming Arrow filter over the canonical Dataset; only the (small)
    filtered projection collects."""
    ds = _kg(sf_dir)["canonical_ds"]

    def f(t: pa.Table) -> pa.Table:
        sel = t.filter(pc.equal(t["pred"], pa.scalar(pred)))
        return sel.select(list(cols))

    out = ds.map_batches(
        f, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    out = out.rename(columns=cols)
    return out.sort_values(list(cols.values())[:2]).reset_index(drop=True)


def _gold(sf_dir: str, which: str) -> str:
    sf_dir = fixtures.PINNED_KG_SF
    fixtures.ensure_fixtures(sf_dir)
    return fixtures.gold_path(sf_dir, which)


def kg_canonical_triples(sf_dir: str):
    # the full canonical table IS this query's result — collection here is
    # the deliverable, not an intermediate
    return _kg(sf_dir)["canonical_ds"].to_pandas()


def kg_imports(sf_dir: str):
    return _canonical_pred(
        sf_dir, "imports",
        {"subj": "repo", "obj": "package", "n_mentions": "n_mentions"},
    )


def kg_calls(sf_dir: str):
    return _canonical_pred(
        sf_dir, "calls",
        {"subj": "caller", "obj": "callee", "n_mentions": "n_mentions"},
    )


def kg_defines(sf_dir: str):
    return _canonical_pred(sf_dir, "defines", {"subj": "file", "obj": "function"})


def kg_symbols(sf_dir: str):
    s = _kg(sf_dir)["symbols_table"].copy()
    s["id"] = s.apply(lambda r: f"{r['repo']}:{r['module']}.{r['name']}", axis=1)
    return s[["id", "name", "repo"]].sort_values("id").reset_index(drop=True)


def kg_mentions(sf_dir: str):
    # full mentions table as the result: streaming projection, then collect
    out = (
        _kg(sf_dir)["mentions_ds"]
        .select_columns(["repo", "path", "text", "start", "end", "label"])
        .to_pandas()
    )
    out["start"] = out["start"].astype("int64")
    out["end"] = out["end"].astype("int64")
    return out.sort_values(["repo", "path", "start", "end", "label"]).reset_index(
        drop=True
    )


def kg_entity_coverage(sf_dir: str):
    cov = st.entity_coverage(_kg(sf_dir)["mentions_ds"]).to_pandas()
    cov["count"] = cov["count"].astype("int64")
    return cov


def kg_label_counts(sf_dir: str):
    return st.label_counts(_kg(sf_dir)["mentions_ds"])


def kg_ner_stats(sf_dir: str):
    s = st.ner_stats(_kg(sf_dir)["docs"])
    return pd.DataFrame(
        {
            "n_docs": [s["n_docs"]],
            "n_docs_no_mentions": [s["n_docs_no_mentions"]],
            "n_mentions": [s["n_mentions"]],
        }
    )


def kg_label_disparities(sf_dir: str):
    df = ins.top_label_disparities(_kg(sf_dir)["mentions_ds"], dedupe=True)
    return df.sort_values(["label1", "label2"]).reset_index(drop=True)


def kg_token_alignment(sf_dir: str):
    """add_tokens over the corrected docs: per-mention char→token alignment
    (token_start = index of the token starting at span.start, token_end =
    index of the token ending at span.end). The SQL oracle recomputes both
    indices from the gold mentions + file contents with the same regex —
    the tokenizer is prefix-stable, so token_start equals the token count
    of content[:start]. Both sides restrict to files < 8 KiB: the oracle's
    per-mention prefix regex is O(|content|·mentions) and the oversized
    256 KiB fixture files would make the SQL side quadratic."""
    from recon_ray.ops import OPS, pipe
    from recon_ray.ops.spans import CORRECTION_CHAIN
    from recon_ray.pipelines.kg import read_files
    from recon_ray.stages.detect import detect_batch

    sf_dir = fixtures.PINNED_KG_SF
    fixtures.ensure_fixtures(sf_dir)
    docs = read_files(fixtures.files_dir(sf_dir)).map_batches(
        lambda t: t.filter(pc.less(pc.utf8_length(t["content"]),
                                   pa.scalar(8192))),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).map_batches(
        detect_batch, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=128,
    )
    docs = pipe(docs, CORRECTION_CHAIN)
    tok = OPS["recon_ray.add_tokens.v1"].apply(docs)

    def flatten(t: pa.Table) -> pa.Table:
        m = t.column("mentions")
        if isinstance(m, pa.ChunkedArray):
            m = m.combine_chunks()
        a = t.column("mention_tokens")
        if isinstance(a, pa.ChunkedArray):
            a = a.combine_chunks()
        lengths = m.value_lengths().fill_null(0).to_numpy(zero_copy_only=False)
        didx = np.repeat(np.arange(len(lengths)), lengths)
        mc, ac = m.flatten(), a.flatten()
        return pa.table(
            {
                "repo": pc.take(t.column("repo"), pa.array(didx)),
                "path": pc.take(t.column("path"), pa.array(didx)),
                "start": mc.field("start").cast(pa.int64()),
                "end": mc.field("end").cast(pa.int64()),
                "label": mc.field("label"),
                "token_start": ac.field("token_start").cast(pa.int64()),
                "token_end": ac.field("token_end").cast(pa.int64()),
            }
        )

    out = tok.map_batches(
        flatten, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    return out.sort_values(
        ["repo", "path", "start", "end", "label"]
    ).reset_index(drop=True)


def kg_triple_score(sf_dir: str):
    """Self-check query: P/R/F of the Ray pipeline vs the gold parquet
    (expected identically 1.0) — the acceptance metric as a result row."""
    from recon_ray.functions.scoring import score_triples_frames

    pred = _kg(sf_dir)["canonical_ds"].to_pandas()
    gold = pd.read_parquet(_gold(sf_dir, "canonical"))
    s = score_triples_frames(pred, gold)
    return pd.DataFrame(
        {
            "precision": [round(s["precision"], 6)],
            "recall": [round(s["recall"], 6)],
            "f1": [round(s["f1"], 6)],
            "n_pred": [s["n_pred"]],
            "n_gold": [s["n_gold"]],
        }
    )


def kg_degrees(sf_dir: str):
    """Entity degree profile of the triple graph (out/in/total, multigraph
    counting) — combiner partials + one groupby shuffle."""
    from recon_ray.functions.graph import degree_table

    return degree_table(_kg(sf_dir)["canonical_ds"])


def kg_pagerank(sf_dir: str):
    """Integer fixed-point PageRank over the canonical triple graph (5
    iterations, damping 85/100) as task rounds over once-materialized
    edge-index blocks. Bit-identical to the unrolled-CTE SQL oracle: every
    step is int64 floor arithmetic, so block order/batching can't move a
    single bit."""
    from recon_ray.functions.graph import pagerank

    return pagerank(_kg(sf_dir)["canonical_ds"], n_iter=5)


def kg_pagerank_weighted(sf_dir: str):
    """Mention-weighted PageRank: rank mass leaves each entity in
    proportion to each canonical edge's n_mentions (a triple observed
    1,000× pulls 1,000 unit shares, not one). Same int64 fixed-point
    task rounds as kg_pagerank — the per-unit-weight share is one floor
    division, each edge contributes share × weight, so the weighted
    unrolled-CTE oracle is still bit-exact."""
    from recon_ray.functions.graph import pagerank

    return pagerank(
        _kg(sf_dir)["canonical_ds"], n_iter=5, weight_col="n_mentions"
    )


def kg_pagerank_personalized(sf_dir: str):
    """Personalized (seed-restart) PageRank: teleport + dangling mass
    return only to the seed entity — the lexicographic-min repo among
    import subjects (deterministic and SQL-replicable) — so rank_q
    measures relatedness to THAT repo's neighborhood, not global
    centrality. Same int64 recurrence, oracled by the seeded
    unrolled-CTE form; entities the seed cannot reach hold rank 0."""
    from recon_ray.functions.graph import pagerank

    ds = _kg(sf_dir)["canonical_ds"]

    def subj_min(t: pa.Table) -> pa.Table:
        sel = t.filter(pc.equal(t["pred"], pa.scalar("imports")))
        if sel.num_rows == 0:
            return pa.table({"s": pa.array([], pa.string())})
        return pa.table({"s": pa.array([pc.min(sel["subj"]).as_py()])})

    mins = ds.map_batches(
        subj_min, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    seed = mins["s"].min()
    return pagerank(ds, n_iter=5, seeds=[seed])


def kg_hits(sf_dir: str):
    """HITS hubs & authorities over the canonical call graph — hub =
    functions that call many good callees, authority = functions called
    by many good callers. Integer quotient-norm recurrence (task rounds
    over once-indexed edge blocks), bit-exact against the MATERIALIZED
    unrolled-CTE oracle."""
    from recon_ray.functions.graph import hits

    edges = arrow_filter(
        _kg(sf_dir)["canonical_ds"],
        lambda t: pc.equal(t.column("pred"), "calls"),
    ).select_columns(["subj", "obj"])
    return hits(edges, n_iter=5)


def kg_components(sf_dir: str):
    """Connected components of the undirected entity graph by iterative
    min-label propagation over the once-built edge index (one task per
    edge block per round, an elementwise min on the driver). Oracled:
    DuckDB recursive-CTE transitive closure + min reached label per node
    gives the identical lexicographic-min-entity component labels."""
    from recon_ray.functions.graph import graph_components

    return graph_components(_kg(sf_dir)["canonical_ds"])



def kg_communities(sf_dir: str):
    """Community detection over the undirected entity graph by
    deterministic SYNCHRONOUS label propagation
    (functions.graph.label_propagation): 4 fixed rounds of
    most-frequent-neighbor-label with lexicographic-min tie-break, each
    one task per block of the once-built undirected edge index —
    layout-invariant by construction (synchronous update + exact counts),
    and bit-matched by the unrolled-CTE oracle replaying the identical
    rule over the gold triples."""
    from recon_ray.functions.graph import label_propagation

    return label_propagation(_kg(sf_dir)["canonical_ds"], n_rounds=4)


def kg_file_metrics(sf_dir: str):
    """Corpus-scan code metrics straight off the files table: per lang,
    file count, total bytes, total lines, and branch-keyword density
    ('if' / 'for' occurrence counts) — the pre-KG profiling pass that
    sizes a 100-TB ingest. Pure zero-copy Arrow kernels
    (count_substring / utf8_length) over a columns-pruned read (only
    lang + content leave storage); per-batch partials merge on the
    driver. Oracle replays the identical counting rules with SQL string
    functions over the same parquet."""
    fixtures.ensure_fixtures(fixtures.PINNED_KG_SF)
    files = rd.read_parquet(
        fixtures.files_dir(fixtures.PINNED_KG_SF),
        columns=["lang", "content"],
    )

    def partial(t: pa.Table) -> pa.Table:
        content = t.column("content")
        df = pd.DataFrame({
            "lang": t.column("lang").to_pandas(),
            "n_files": np.int64(1),
            "n_bytes": pc.binary_length(content).to_pandas(),
            "n_lines": pc.add(
                pc.count_substring(content, "\n"), 1).to_pandas(),
            "n_if": pc.count_substring(content, "if ").to_pandas(),
            "n_for": pc.count_substring(content, "for ").to_pandas(),
        })
        return pa.Table.from_pandas(
            df.groupby("lang", as_index=False).sum(), preserve_index=False)

    parts = files.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    out = parts.groupby("lang", as_index=False).sum()
    for c in ("n_files", "n_bytes", "n_lines", "n_if", "n_for"):
        out[c] = out[c].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


def _kg_file_metrics_oracle_sql() -> str:
    fixtures.ensure_fixtures(fixtures.PINNED_KG_SF)
    d = fixtures.files_dir(fixtures.PINNED_KG_SF)
    return f"""
SELECT lang, count(*)::BIGINT AS n_files,
       sum(strlen(content))::BIGINT AS n_bytes,
       sum(length(content) - length(replace(content, chr(10), '')) + 1
       )::BIGINT AS n_lines,
       sum((length(content) - length(replace(content, 'if ', '')))
           / 3)::BIGINT AS n_if,
       sum((length(content) - length(replace(content, 'for ', '')))
           / 4)::BIGINT AS n_for
FROM read_parquet('{d}/*.parquet')
GROUP BY lang ORDER BY lang
"""


def kg_import_assoc(sf_dir: str):
    """Market-basket association mining over the import graph
    (functions.insights.association_pairs): which packages are imported
    TOGETHER — per unordered package pair, support = repos importing
    both, lift = support·N / (c(a)·c(b)) at 6 dp. Distinct (repo,
    package) rows ride one basket shuffle; pairs are generated per
    bucket (quadratic only in basket size); the oracle replays the
    self-join + lift arithmetic over the gold triples."""
    from recon_ray.functions.insights import association_pairs

    imports = arrow_filter(
        _kg(sf_dir)["canonical_ds"],
        lambda t: pc.equal(t.column("pred"), "imports"),
    ).select_columns(["subj", "obj"])
    return association_pairs(imports, "subj", "obj",
                             min_support=2, k=30)


def kg_call_triangles(sf_dir: str):
    """Undirected triangle census of the call graph
    (functions.graph.triangle_stats): canonical u<v edge table (bucketed
    distinct), wedges keyed at each triangle's min vertex (one edge
    self-join shuffle), closure via a composite-key hash join, wedge
    denominator from the combiner degree table. Exact one-row census —
    SQL-oracled by the identical three-way self-join over the gold
    triples (the clustering coefficient is a single IEEE division, so
    it hashes exactly)."""
    from recon_ray.functions.graph import triangle_stats

    edges = arrow_filter(
        _kg(sf_dir)["canonical_ds"],
        lambda t: pc.equal(t.column("pred"), "calls"),
    ).select_columns(["subj", "obj"])
    return triangle_stats(edges)


def _busiest_caller(edges) -> str:
    """The root of the call-graph path queries: the highest-out-degree
    caller, ties to the lexicographic min (``degree_table`` is sorted by
    entity, and ``argmax`` keeps the first maximum)."""
    from recon_ray.functions.graph import degree_table

    deg = degree_table(edges)
    return str(deg["entity"].iloc[deg["out_degree"].to_numpy().argmax()])


def kg_call_bfs_levels(sf_dir: str):
    """Single-source BFS shortest-path levels over the directed call
    graph (functions.graph.bfs_levels): edge blocks indexed once against
    the broadcast node array, frontier bool vector re-broadcast per
    round, OR-merged reach sets — O(diameter) rounds, driver state is
    bits per node, edges never leave the object store. Root is the
    highest-out-degree caller, ties broken to the lexicographic min
    (deterministic and SQL-replicable, and it reaches a real tree rather
    than the min-name leaf's). Oracled by a DuckDB recursive CTE taking
    min(level) per reached node at the same depth cap — exact integer
    levels, full hash gate."""
    from recon_ray.functions.graph import bfs_levels

    edges = arrow_filter(
        _kg(sf_dir)["canonical_ds"],
        lambda t: pc.equal(t.column("pred"), "calls"),
    ).select_columns(["subj", "obj"])
    out = bfs_levels(edges, root=_busiest_caller(edges), max_depth=20)
    out["level"] = out["level"].astype("int64")
    return out


def kg_link_prediction(sf_dir: str):
    """Neighborhood link prediction over the undirected call graph
    (functions.graph.link_prediction): top-50 non-adjacent pairs by
    common-neighbor count, with exact-integer Resource-Allocation
    (Σ SCALE//deg — the rational twin of Adamic-Adar, chosen so partial
    sums commute bit-exactly) and 6dp Jaccard. All pair generation and
    the existing-edge anti-join run as bucketed shuffles; the driver
    only merges per-batch top-50s. SQL-oracled by the identical
    wedge/NOT-EXISTS query over the gold triples."""
    from recon_ray.functions.graph import link_prediction

    edges = arrow_filter(
        _kg(sf_dir)["canonical_ds"],
        lambda t: pc.equal(t.column("pred"), "calls"),
    ).select_columns(["subj", "obj"])
    return link_prediction(edges, k=50)


def kg_call_cheapest(sf_dir: str):
    """Single-source cheapest paths over the call graph with n_mentions
    as the edge cost (functions.graph.cheapest_paths): 8 Bellman-Ford
    relaxation rounds — edge blocks indexed once, int64 distance vector
    broadcast per round, candidates merged by elementwise min. Root =
    highest-out-degree caller (lexicographic tie-break), same rule as
    the BFS query. Bit-matched by the unrolled per-round min-merge CTE
    oracle (a recursive UNION ALL would enumerate every path and
    explode on cycles)."""
    from recon_ray.functions.graph import cheapest_paths

    edges = arrow_filter(
        _kg(sf_dir)["canonical_ds"],
        lambda t: pc.equal(t.column("pred"), "calls"),
    ).select_columns(["subj", "obj", "n_mentions"])
    return cheapest_paths(edges, root=_busiest_caller(edges), n_rounds=8,
                          weight_col="n_mentions")


def kg_kcore(sf_dir: str):
    """2-core of the undirected call graph (functions.graph.kcore):
    fixed-16-round degree peel — each round one degree task per block
    of the once-built edge index against the broadcast alive mask,
    edges never collected. Output is (entity, core_degree) of the
    surviving subgraph, bit-matched by the unrolled MATERIALIZED-CTE
    oracle running the identical peel."""
    from recon_ray.functions.graph import kcore

    edges = arrow_filter(
        _kg(sf_dir)["canonical_ds"],
        lambda t: pc.equal(t.column("pred"), "calls"),
    ).select_columns(["subj", "obj"])
    return kcore(edges, k=2, n_rounds=16)


def kg_call_topo_levels(sf_dir: str):
    """Topological levels + cycle detection over the call graph
    (functions.graph.topo_levels): Kahn-style fixed-round peel —
    level = longest call-chain depth from any entry point, -1 for
    functions on (or downstream of) call cycles — the dependency
    ordering a build/analysis pass over the KG needs. Each round is
    one task per block of the once-built edge index marking the targets
    of unresolved sources; bit-matched by the unrolled-CTE SQL oracle."""
    from recon_ray.functions.graph import topo_levels

    edges = arrow_filter(
        _kg(sf_dir)["canonical_ds"],
        lambda t: pc.equal(t.column("pred"), "calls"),
    ).select_columns(["subj", "obj"])
    return topo_levels(edges)


def kg_calls_2hop(sf_dir: str):
    """2-hop call closure over the canonical triple graph: (f, g) and
    (g, h) call edges compose into (f, calls2, h) with the number of
    distinct middle functions as the path count. Executed as the edge
    table hash-joined with itself on the middle key (one shuffle keyed
    by function id), then a pre-aggregated pair count — the standard
    distributed shape for bounded-depth closures (each extra hop is one
    more self-join, never a driver loop over rows)."""
    from recon_ray.functions.relational import shuffle_join

    # arrow_filter, not filter(expr=...): expr-filter emits zero-column
    # empty blocks that crash the downstream hash-join aggregator
    edges = arrow_filter(
        _kg(sf_dir)["canonical_ds"],
        lambda t: pc.equal(t.column("pred"), "calls"),
    ).select_columns(["subj", "obj"])
    right = edges.map_batches(
        lambda t: t.rename_columns(["mid", "callee"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    paths = shuffle_join(edges, right, on="obj", right_on="mid")
    out = group_count(
        paths.map_batches(
            lambda b: b.rename(columns={"subj": "caller"})[
                ["caller", "callee"]
            ],
            batch_format="pandas",
        ),
        ["caller", "callee"], alias="n_paths",
    )
    out["n_paths"] = out["n_paths"].astype("int64")
    return out.sort_values(["caller", "callee"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# documents-table queries (text analysis + dedup)
# ---------------------------------------------------------------------------

_CHUNK_SIZE, _CHUNK_STRIDE = 48, 32

# replays chunk_documents exactly: RE2 \s-class tokenization with
# empties dropped, chunk count 1 if T<=size else ceil((T-size)/stride)
# + 1, window [c·stride, c·stride+size), single-space re-join
ORACLE_DOC_TOKEN_CHUNKS = f"""
WITH toks AS (
  SELECT doc_id, unnest(l) AS tok,
         generate_subscripts(l, 1)::BIGINT AS i
  FROM (SELECT doc_id,
        list_filter(string_split_regex(text, '[ \t\n\r\f\v]+'),
                    x -> x <> '') AS l FROM documents)
), cnt AS (
  SELECT doc_id, count(*) AS t FROM toks GROUP BY doc_id
), chunks AS (
  SELECT doc_id, unnest(generate_series(1,
    CASE WHEN t <= {_CHUNK_SIZE} THEN 1
         ELSE (t - {_CHUNK_SIZE} + {_CHUNK_STRIDE} - 1)
              // {_CHUNK_STRIDE} + 1 END))::BIGINT - 1 AS chunk_idx
  FROM cnt
)
SELECT ch.doc_id, ch.chunk_idx, count(*) AS n_tokens,
  string_agg(tk.tok, ' ' ORDER BY tk.i) AS chunk_text
FROM chunks ch JOIN toks tk ON tk.doc_id = ch.doc_id
 AND tk.i > ch.chunk_idx * {_CHUNK_STRIDE}
 AND tk.i <= ch.chunk_idx * {_CHUNK_STRIDE} + {_CHUNK_SIZE}
GROUP BY ch.doc_id, ch.chunk_idx
ORDER BY ch.doc_id, ch.chunk_idx
"""


def doc_token_chunks(sf_dir: str):
    """Overlapping token-window chunking (RAG / training prep — the
    splitting counterpart of sequence packing): pure map stage, NO
    shuffle — each batch explodes its tokens (replication ≤
    ceil(size/stride)), assigns chunk ids by integer index arithmetic,
    and joins per OUTPUT chunk at C level. Byte-exact vs a DuckDB
    oracle replaying the tokenizer class, the window rule and the
    single-space re-join."""
    from recon_ray.functions.text import chunk_documents

    ds = _t(sf_dir, "documents").select_columns(["doc_id", "text"])
    out = chunk_documents(ds, size=_CHUNK_SIZE, stride=_CHUNK_STRIDE)
    return out.to_pandas().sort_values(
        ["doc_id", "chunk_idx"]).reset_index(drop=True)


def doc_token_counts(sf_dir: str):
    out = (
        _t(sf_dir, "documents")
        .map_batches(token_counts, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


ORACLE_DOC_TOKENS = """
SELECT doc_id,
       CASE WHEN trim(text)='' THEN 0
            ELSE len(regexp_split_to_array(trim(text), '\\s+')) END::BIGINT AS n_tokens,
       length(text)::BIGINT AS n_chars
FROM documents ORDER BY doc_id
"""


def doc_bpe_token_counts(sf_dir: str):
    """BPE-ish pre-tokenizer counts (\\w+|[^\\w\\s] matches) —
    functions.text.bpe_token_counts."""
    from recon_ray.functions.text import bpe_token_counts

    out = (
        _t(sf_dir, "documents")
        .map_batches(bpe_token_counts, batch_format="pyarrow",
                     zero_copy_batch=True)
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


ORACLE_DOC_BPE_TOKENS = r"""
SELECT doc_id,
       len(regexp_extract_all(text, '\w+|[^\w\s]'))::BIGINT AS n_bpe_tokens
FROM documents ORDER BY doc_id
"""


def doc_word_freq_top50(sf_dir: str):
    """Word-frequency coverage (entity_coverage shape over word tokens)."""
    docs = _t(sf_dir, "documents")

    def words(t: pa.Table) -> pa.Table:
        import re

        out = []
        for s in t.column("text").to_pylist():
            out += re.findall(r"\w+", s.lower())
        return pa.table({"word": pa.array(out, pa.string())})

    w = docs.map_batches(words, batch_format="pyarrow", zero_copy_batch=True)
    g = group_count(w, "word", alias="n_occurrences")
    return (
        g.sort_values(["n_occurrences", "word"], ascending=[False, True],
                      kind="mergesort")
        .head(50)
        .reset_index(drop=True)
    )


ORACLE_WORD_FREQ = """
SELECT lower(w) AS word, count(*)::BIGINT AS n_occurrences
FROM (SELECT unnest(regexp_extract_all(text, '\\w+')) AS w FROM documents)
GROUP BY 1 ORDER BY n_occurrences DESC, word LIMIT 50
"""


def doc_distinctive_terms(sf_dir: str):
    """Per-doc distinctive terms — the TF-IDF shape with an all-integer
    ordering (tf DESC, then rarer-corpus-wide first via df ASC, then word)
    so the oracle comparison is exact, no float idf at the boundary.

    Stage 1 (df): per-batch DISTINCT (doc, word) pairs slim the explode,
    then ONE vocab-sized combiner shuffle (group_count). Stage 2: the df
    map broadcasts (ray.put once — vocabulary, not corpus, sized) and each
    batch ranks its own docs' term counts locally — no second shuffle, no
    window over the exploded table."""
    import re
    from collections import Counter

    import ray

    docs = _t(sf_dir, "documents").select_columns(["doc_id", "text"])

    def pairs(t: pa.Table) -> pa.Table:
        ids: list[int] = []
        words: list[str] = []
        for d, s in zip(t.column("doc_id").to_pylist(),
                        t.column("text").to_pylist()):
            ws = set(re.findall(r"\w+", s.lower()))
            ids += [d] * len(ws)
            words += list(ws)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "word": pa.array(words, pa.string())})

    df_tbl = group_count(
        docs.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True),
        "word", alias="df",
    )
    df_ref = ray.put(dict(zip(df_tbl["word"], df_tbl["df"].astype(int))))

    def topk(t: pa.Table) -> pd.DataFrame:
        dfm = ray.get(df_ref) if isinstance(df_ref, ray.ObjectRef) else df_ref
        rows = []
        for d, s in zip(t.column("doc_id").to_pylist(),
                        t.column("text").to_pylist()):
            cnt = Counter(re.findall(r"\w+", s.lower()))
            best = sorted(
                cnt.items(), key=lambda kv: (-kv[1], dfm[kv[0]], kv[0])
            )[:3]
            rows += [(d, i + 1, w, tf, dfm[w])
                     for i, (w, tf) in enumerate(best)]
        return pd.DataFrame(
            rows, columns=["doc_id", "rk", "word", "tf", "df"]
        ).astype({"doc_id": "int64", "rk": "int64",
                  "tf": "int64", "df": "int64"})

    out = docs.map_batches(topk, batch_format="pyarrow").to_pandas()
    return out.sort_values(["doc_id", "rk"]).reset_index(drop=True)


ORACLE_DOC_DISTINCTIVE = r"""
WITH tw AS (
  SELECT doc_id, lower(w) AS word
  FROM (SELECT doc_id, unnest(regexp_extract_all(text, '\w+')) AS w
        FROM documents)
), tf AS (
  SELECT doc_id, word, count(*)::BIGINT AS tf FROM tw GROUP BY doc_id, word
), df AS (
  SELECT word, count(DISTINCT doc_id)::BIGINT AS df FROM tw GROUP BY word
)
SELECT doc_id, rk, word, tf, df FROM (
  SELECT t.doc_id, t.word, t.tf, d.df,
         row_number() OVER (PARTITION BY t.doc_id
                            ORDER BY t.tf DESC, d.df ASC, t.word)::BIGINT AS rk
  FROM tf t JOIN df d USING (word)
) WHERE rk <= 3 ORDER BY doc_id, rk
"""


def doc_word_top20_mg(sf_dir: str):
    """Exact top-20 words WITHOUT a full-vocabulary shuffle: Misra-Gries
    candidate summaries + an exact broadcast-membership count —
    functions.sketches.heavy_hitters. The oracle recomputes the same
    top-20 with a plain GROUP BY, so the hash compare proves the sketch
    path is exact on this corpus."""
    from recon_ray.functions.sketches import heavy_hitters

    docs = _t(sf_dir, "documents")

    def words(t: pa.Table) -> pa.Table:
        import re

        out = []
        for s in t.column("text").to_pylist():
            out += re.findall(r"\w+", s.lower())
        return pa.table({"word": pa.array(out, pa.string())})

    w = docs.map_batches(words, batch_format="pyarrow", zero_copy_batch=True)
    out = heavy_hitters(w, "word", k=20, capacity=4096)
    out = out.rename(columns={"value": "word", "count": "n_occurrences"})
    return out[["word", "n_occurrences"]]


ORACLE_WORD_TOP20_MG = """
SELECT lower(w) AS word, count(*)::BIGINT AS n_occurrences
FROM (SELECT unnest(regexp_extract_all(text, '\\w+')) AS w FROM documents)
GROUP BY 1 ORDER BY n_occurrences DESC, word LIMIT 20
"""


#: packing parameters pinned for the oracled queries (the SQL below bakes
#: the same constants)
PACK_MAX_TOKENS = 512
PACK_N_BUCKETS = 16

# Greedy packing is a linear recurrence, so the oracle is a recursive CTE:
# all buckets advance one rank per iteration (depth = largest bucket), which
# is exactly the partition-parallel shape of the Ray operator.
def _pack_cte_body(source: str) -> str:
    """The ranked/packed CTE pair over any (doc_id, text) relation."""
    return f"""ranked AS (
  SELECT doc_id, doc_id % {PACK_N_BUCKETS} AS bucket,
         CASE WHEN trim(text)='' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\\s+')) END::BIGINT AS n_tokens,
         row_number() OVER (PARTITION BY doc_id % {PACK_N_BUCKETS} ORDER BY doc_id) AS rk
  FROM {source}
),
packed AS (
  SELECT bucket, rk, doc_id, n_tokens, 0::BIGINT AS seq_id, n_tokens AS acc
  FROM ranked WHERE rk = 1
  UNION ALL
  SELECT r.bucket, r.rk, r.doc_id, r.n_tokens,
         CASE WHEN p.acc + r.n_tokens > {PACK_MAX_TOKENS}
              THEN p.seq_id + 1 ELSE p.seq_id END,
         CASE WHEN p.acc + r.n_tokens > {PACK_MAX_TOKENS}
              THEN r.n_tokens ELSE p.acc + r.n_tokens END
  FROM packed p JOIN ranked r ON r.bucket = p.bucket AND r.rk = p.rk + 1
)
"""


_PACK_CTE = "WITH RECURSIVE " + _pack_cte_body("documents")


def doc_pack_sequences(sf_dir: str):
    """Per-doc training-sequence assignment — functions.pack.pack_sequences
    (greedy ≤512-token packs within doc_id%16 buckets, docs never split)."""
    from recon_ray.functions.pack import pack_sequences

    out = pack_sequences(
        _t(sf_dir, "documents"),
        max_tokens=PACK_MAX_TOKENS,
        n_buckets=PACK_N_BUCKETS,
    ).to_pandas()
    out = out[["doc_id", "bucket", "n_tokens", "seq_id"]].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


ORACLE_DOC_PACK = (
    _PACK_CTE
    + "SELECT doc_id, bucket, n_tokens, seq_id FROM packed ORDER BY doc_id"
)


def doc_pack_texts(sf_dir: str):
    """Tokenizer-ready packed sequences (concatenated member texts) —
    functions.pack.pack_texts; the oracle rebuilds each sequence with
    string_agg ordered by doc_id, so the hash compare proves both the
    assignment AND the concatenation order."""
    from recon_ray.functions.pack import pack_texts

    out = pack_texts(
        _t(sf_dir, "documents"),
        max_tokens=PACK_MAX_TOKENS,
        n_buckets=PACK_N_BUCKETS,
    ).to_pandas()
    out = out.astype(
        {"bucket": "int64", "seq_id": "int64", "n_docs": "int64",
         "pack_tokens": "int64"}
    )
    return (
        out[["bucket", "seq_id", "seq_text", "n_docs", "pack_tokens"]]
        .sort_values(["bucket", "seq_id"])
        .reset_index(drop=True)
    )


ORACLE_DOC_PACK_TEXTS = (
    _PACK_CTE
    + """SELECT p.bucket, p.seq_id,
       string_agg(d.text, chr(10)||chr(10) ORDER BY p.doc_id) AS seq_text,
       count(*)::BIGINT AS n_docs, sum(p.n_tokens)::BIGINT AS pack_tokens
FROM packed p JOIN documents d USING (doc_id)
GROUP BY 1, 2 ORDER BY 1, 2"""
)


def doc_curation_pack(sf_dir: str):
    """The composed curation pipeline end-to-end (pipelines.curate):
    quality + repetition + lang gates → exact dedup → sequence packing,
    verified against ONE composed SQL oracle built from the same
    fragments that oracle each stage individually."""
    from recon_ray.pipelines.curate import curate

    res = curate(_t(sf_dir, "documents"))
    out = res["packed"].to_pandas()
    out = out[["doc_id", "bucket", "n_tokens", "seq_id"]].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _curation_oracle_sql() -> str:
    from recon_ray.pipelines.curate import (DEFAULT_MAX_DUP_WORD,
                                            DEFAULT_MIN_WORDS)

    return f"""WITH RECURSIVE qual AS (
  SELECT doc_id, len(regexp_extract_all(text, '\\w+'))::BIGINT AS n_words
  FROM documents
),
wl AS (
  SELECT doc_id,
         list_transform(regexp_extract_all(text, '\\w+'), x -> lower(x)) AS ws
  FROM documents
),
wordrows AS (SELECT doc_id, unnest(ws) AS word FROM wl),
wc AS (SELECT doc_id, word, count(*) AS c FROM wordrows GROUP BY 1, 2),
wstats AS (SELECT doc_id, sum(c) AS n, count(*) AS d FROM wc GROUP BY 1),
rep AS (
  SELECT wl.doc_id,
         CASE WHEN coalesce(wstats.n, 0) > 0
              THEN (wstats.n - wstats.d) * 1.0 / wstats.n ELSE 0 END
           AS dup_word_frac
  FROM wl LEFT JOIN wstats USING (doc_id)
),
lang AS ({_langid_oracle_sql()}),
keepdocs AS (
  SELECT d.doc_id, d.text
  FROM documents d
  JOIN qual USING (doc_id) JOIN rep USING (doc_id) JOIN lang USING (doc_id)
  WHERE qual.n_words >= {DEFAULT_MIN_WORDS}
    AND rep.dup_word_frac <= {DEFAULT_MAX_DUP_WORD}
    AND lang.lang_pred <> 'unknown'
),
rep_keep AS (SELECT min(doc_id) AS doc_id FROM keepdocs GROUP BY text),
curated AS (SELECT k.doc_id, k.text FROM keepdocs k JOIN rep_keep USING (doc_id)),
{_pack_cte_body("curated")}
SELECT doc_id, bucket, n_tokens, seq_id FROM packed ORDER BY doc_id"""


def doc_pack_stats(sf_dir: str):
    """Per-pack rollup (the tokenized-shard manifest): n_docs + token total
    per (bucket, seq_id), as a distributed grouped aggregate."""
    from recon_ray.functions.pack import pack_sequences, pack_stats

    packed = pack_sequences(
        _t(sf_dir, "documents"),
        max_tokens=PACK_MAX_TOKENS,
        n_buckets=PACK_N_BUCKETS,
    )
    out = pack_stats(packed)
    return out.astype(
        {"bucket": "int64", "seq_id": "int64", "n_docs": "int64",
         "pack_tokens": "int64"}
    )


ORACLE_DOC_PACK_STATS = (
    _PACK_CTE
    + """SELECT bucket, seq_id, count(*)::BIGINT AS n_docs,
       sum(n_tokens)::BIGINT AS pack_tokens
FROM packed GROUP BY bucket, seq_id ORDER BY bucket, seq_id"""
)


def q_events_value_quantiles(sf_dir: str):
    """EXACT distributed quantiles (2-pass histogram refinement, no
    global sort) — functions.sketches.exact_quantiles, verified against
    DuckDB's quantile_disc (same nearest-rank element semantics)."""
    from recon_ray.functions.sketches import exact_quantiles

    qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    vals = exact_quantiles(_t(sf_dir, "events"), "value", qs)
    return pd.DataFrame(
        {
            "q": np.asarray(qs, dtype=np.float64),
            "value": np.asarray(vals, dtype=np.float64),
        }
    )


ORACLE_EVENTS_QUANTILES = """
SELECT CAST(q AS DOUBLE) AS q, value FROM (
  SELECT 0.1 AS q, quantile_disc(value, 0.1) AS value FROM events
  UNION ALL SELECT 0.25, quantile_disc(value, 0.25) FROM events
  UNION ALL SELECT 0.5, quantile_disc(value, 0.5) FROM events
  UNION ALL SELECT 0.75, quantile_disc(value, 0.75) FROM events
  UNION ALL SELECT 0.9, quantile_disc(value, 0.9) FROM events
  UNION ALL SELECT 0.99, quantile_disc(value, 0.99) FROM events
) ORDER BY q
"""


def q_events_user_hll(sf_dir: str):
    """HyperLogLog distinct users (rows-only: the estimate is
    approximate by design; the ±2% accuracy bound vs exact COUNT
    DISTINCT is pinned in tests/test_functions.py)."""
    from recon_ray.functions.sketches import hll_distinct

    res = hll_distinct(_t(sf_dir, "events"), "user_id", p=12)
    return pd.DataFrame({"distinct_users_est": [round(res["estimate"], 1)]})


def doc_search(sf_dir: str):
    """Dataset.search port: case-insensitive substring match, streaming
    Arrow filter (recon/dataset.py:291-311 semantics)."""
    from recon_ray.functions.text import search

    hits = (
        search(_t(sf_dir, "documents"), "SPARK", case_sensitive=False)
        .select_columns(["doc_id"])
        .to_pandas()
    )
    return hits.sort_values("doc_id").reset_index(drop=True)


ORACLE_DOC_SEARCH = """
SELECT doc_id FROM documents WHERE contains(lower(text), 'spark')
ORDER BY doc_id
"""


def doc_dedup_groups(sf_dir: str):
    return dup_groups(_t(sf_dir, "documents").repartition(8))


ORACLE_DOC_DEDUP = """
SELECT min(doc_id)::BIGINT AS doc_id, count(*)::BIGINT AS n_copies
FROM documents GROUP BY text ORDER BY doc_id
"""


def doc_quality(sf_dir: str):
    out = (
        _t(sf_dir, "documents")
        .map_batches(quality_scores, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
    )
    out = out[["doc_id", "n_chars", "n_words", "avg_word_len"]].copy()
    out["avg_word_len"] = _round_away(out["avg_word_len"], 6)
    return out.sort_values("doc_id").reset_index(drop=True)


ORACLE_DOC_QUALITY = """
WITH w AS (
  SELECT doc_id, length(text)::BIGINT AS n_chars,
         len(regexp_extract_all(text, '\\w+'))::BIGINT AS n_words,
         length(regexp_replace(text, '[^a-zA-Z0-9_]', '', 'g'))::BIGINT AS word_chars
  FROM documents
)
SELECT doc_id, n_chars, n_words,
       round(word_chars / greatest(n_words, 1), 6) AS avg_word_len
FROM w ORDER BY doc_id
"""


def doc_length_gate(sf_dir: str):
    """Quantile-gated curation filter (the Gopher length-gate shape): keep
    documents whose word count is at or above the corpus 25th percentile.
    The threshold comes from functions.sketches.exact_quantiles (2-pass
    histogram refinement, quantile_disc semantics — no global sort), then
    the gate itself is a pure streaming filter. All-integer metric, so the
    boundary comparison is exact on both engines."""
    from recon_ray.functions.sketches import exact_quantiles

    scored = (
        _t(sf_dir, "documents")
        .map_batches(quality_scores, batch_format="pyarrow",
                     zero_copy_batch=True)
        .select_columns(["doc_id", "n_words"])
    )
    thr = exact_quantiles(scored, "n_words", [0.25])[0]
    thr = -1 if thr is None else int(thr)
    out = scored.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n_words"], pa.scalar(thr))),
        batch_format="pyarrow", zero_copy_batch=True,
    ).to_pandas()
    out["n_words"] = out["n_words"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


ORACLE_DOC_LENGTH_GATE = r"""
WITH w AS (
  SELECT doc_id, len(regexp_extract_all(text, '\w+'))::BIGINT AS n_words
  FROM documents
)
SELECT doc_id, n_words FROM w
WHERE n_words >= (SELECT quantile_disc(n_words, 0.25) FROM w)
ORDER BY doc_id
"""


def doc_top_words_per_lang(sf_dir: str):
    """Group-wise top-k (the rank-then-filter window shape): 3 longest
    docs per language tag by (n_words DESC, doc_id) — window_over rank in
    one shuffle, filtered BEFORE any driver collection (the filter is a
    map stage, so only k·n_groups rows ever leave the cluster)."""
    from recon_ray.functions.relational import window_over
    from recon_ray.functions.text import WORD_RE

    docs = _t(sf_dir, "documents")

    def feat(t: pa.Table) -> pa.Table:
        # only n_words is consumed — count WORD_RE matches directly
        # instead of running the full quality kernel's per-char scans
        texts = t.column("text").to_pylist()
        n_words = pa.array(
            [len(WORD_RE.findall(x)) for x in texts], pa.int64()
        )
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "lang": t.column("lang"),
                "n_words": n_words,
                # window_over orders ascending; negate for a DESC rank
                "__neg_words": pc.negate(n_words),
            }
        )

    ranked = window_over(
        docs.map_batches(feat, batch_format="pyarrow", zero_copy_batch=True),
        "lang",
        ["__neg_words", "doc_id"],
        [("row_number", None, "rk")],
    )
    out = ranked.map_batches(
        lambda t: t.filter(
            pc.less_equal(t.column("rk"), 3)).drop_columns(
            ["__neg_words"]),
        batch_format="pyarrow", zero_copy_batch=True,
    ).to_pandas()
    out["rk"] = out["rk"].astype("int64")
    out = out[["lang", "rk", "doc_id", "n_words"]]
    return out.sort_values(["lang", "rk"]).reset_index(drop=True)


ORACLE_DOC_TOP_PER_LANG = """
WITH w AS (
  SELECT lang, doc_id,
         len(regexp_extract_all(text, '\\w+'))::BIGINT AS n_words
  FROM documents
),
r AS (
  SELECT lang, doc_id, n_words,
         row_number() OVER (PARTITION BY lang
                            ORDER BY n_words DESC, doc_id) AS rk
  FROM w
)
SELECT lang, rk, doc_id, n_words FROM r WHERE rk <= 3 ORDER BY lang, rk
"""


_MIX_RATES = {"en": 1.0, "de": 0.5, "fr": 0.25, "es": 0.25, "zh": 0.1}


def doc_shuffle(sf_dir: str):
    """Deterministic global shuffle order for training: shuffle_pos = rank
    of doc_id's multiplicative u64 hash (functions.insights.
    deterministic_shuffle — histogram pass + one hash shuffle; reproducible
    on any cluster layout, unlike random_shuffle)."""
    from recon_ray.functions.insights import deterministic_shuffle

    docs = _t(sf_dir, "documents").select_columns(["doc_id"])
    out = deterministic_shuffle(docs, "doc_id").to_pandas()
    out["shuffle_pos"] = out["shuffle_pos"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _shuffle_oracle_sql() -> str:
    from recon_ray.functions.insights import _MIX_C

    return (
        "SELECT doc_id, (row_number() OVER (ORDER BY "
        f"(doc_id::HUGEINT * {_MIX_C}) % 18446744073709551616"
        ") - 1)::BIGINT AS shuffle_pos FROM documents ORDER BY doc_id"
    )


def doc_stratified_sample(sf_dir: str):
    """Deterministic stratified sample: the 3 lowest-hash docs per lang
    (multiplicative u64 hash of doc_id — a layout/run-invariant "random"
    pick, same rule as doc_shuffle). Combiner shape: each batch emits its
    LOCAL 3-per-lang, the driver merges ≤ 3·n_langs·n_batches rows — no
    shuffle, no global sort."""
    from recon_ray.functions.insights import _MIX_C

    docs = _t(sf_dir, "documents").select_columns(["doc_id", "lang"])

    def local(df: pd.DataFrame) -> pd.DataFrame:
        h = df["doc_id"].to_numpy().astype(np.uint64) * np.uint64(_MIX_C)
        return df.assign(__h=h).sort_values("__h").groupby(
            "lang", sort=False
        ).head(3)

    parts = docs.map_batches(local, batch_format="pandas").to_pandas()
    top = parts.sort_values("__h").groupby("lang", sort=False).head(3)
    top = top.sort_values(["lang", "__h"]).reset_index(drop=True)
    top["rk"] = (top.groupby("lang", sort=False).cumcount() + 1).astype("int64")
    return top[["lang", "rk", "doc_id"]]


def _stratified_oracle_sql() -> str:
    from recon_ray.functions.insights import _MIX_C

    return (
        "SELECT lang, rk, doc_id FROM ("
        "SELECT lang, doc_id, row_number() OVER (PARTITION BY lang "
        f"ORDER BY (doc_id::HUGEINT * {_MIX_C}) % 18446744073709551616"
        ")::BIGINT AS rk FROM documents) WHERE rk <= 3 ORDER BY lang, rk"
    )


def doc_mixture_sample(sf_dir: str):
    """Deterministic domain mixing: keep each doc with a per-language
    rate, decided by a pure multiplicative hash of doc_id (no RNG, no
    shuffle — functions.insights.mixture_sample). The oracle applies the
    IDENTICAL integer rule in HUGEINT space, so the surviving set matches
    row-for-row."""
    from recon_ray.functions.insights import mixture_sample

    out = mixture_sample(
        _t(sf_dir, "documents").select_columns(["doc_id", "lang"]),
        "lang",
        _MIX_RATES,
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _mixture_oracle_sql() -> str:
    from recon_ray.functions.insights import _MIX_C

    cases = " ".join(
        f"WHEN '{k}' THEN {int(float(r) * (1 << 64))}::HUGEINT"
        for k, r in _MIX_RATES.items()
    )
    return (
        "SELECT doc_id, lang FROM documents "
        f"WHERE ((doc_id::HUGEINT * {_MIX_C}) % 18446744073709551616) "
        f"< CASE lang {cases} ELSE -1::HUGEINT END "
        "ORDER BY doc_id"
    )


_SPLIT_FRACTIONS = {"train": 0.9, "val": 0.05, "test": 0.05}


def doc_split_assign(sf_dir: str):
    """Deterministic train/val/test holdout assignment
    (functions.insights.assign_split): split = first cumulative-fraction
    bucket past the id's multiplicative u64 hash. No RNG, no shuffle; a
    doc's split never changes as the corpus grows. Oracle: the identical
    integer CASE in HUGEINT space — full hash gate over every row."""
    from recon_ray.functions.insights import assign_split

    out = assign_split(
        _t(sf_dir, "documents").select_columns(["doc_id"]),
        _SPLIT_FRACTIONS,
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _split_oracle_sql() -> str:
    from recon_ray.functions.insights import _MIX_C

    labels = list(_SPLIT_FRACTIONS)
    cum, whens = 0.0, []
    for lb in labels[:-1]:
        cum += float(_SPLIT_FRACTIONS[lb])
        t = min(int(cum * (1 << 64)), (1 << 64) - 1)
        whens.append(
            f"WHEN ((doc_id::HUGEINT * {_MIX_C}) % 18446744073709551616) "
            f"< {t}::HUGEINT THEN '{lb}'"
        )
    return (
        "SELECT doc_id, CASE " + " ".join(whens) +
        f" ELSE '{labels[-1]}' END AS split FROM documents ORDER BY doc_id"
    )


def doc_repetition(sf_dir: str):
    """Gopher-style within-doc repetition filters (dup word/2-gram/3-gram
    fractions, top-word share) — functions.text.repetition_scores."""
    from recon_ray.functions.text import repetition_scores

    out = (
        _t(sf_dir, "documents")
        .map_batches(
            repetition_scores, batch_format="pyarrow", zero_copy_batch=True
        )
        .to_pandas()
    )
    for c in ["dup_word_frac", "dup_2gram_frac", "dup_3gram_frac",
              "top_word_frac"]:
        out[c] = _round_away(out[c].astype("float64"), 6)
    return out.sort_values("doc_id").reset_index(drop=True)


ORACLE_DOC_REPETITION = r"""
WITH w AS (
  SELECT doc_id,
         list_transform(regexp_extract_all(text, '\w+'), x -> lower(x)) AS ws
  FROM documents
),
wordrows AS (SELECT doc_id, unnest(ws) AS word FROM w),
wc AS (SELECT doc_id, word, count(*) AS c FROM wordrows GROUP BY 1, 2),
wstats AS (
  SELECT doc_id, sum(c) AS n, count(*) AS d, max(c) AS topc FROM wc GROUP BY 1
),
g2 AS (
  SELECT doc_id, array_to_string(ws[i:i+1], ' ') AS gram
  FROM w, LATERAL (SELECT unnest(generate_series(1, len(ws) - 1)) AS i) t
),
g2s AS (
  SELECT doc_id, count(*) AS n, count(DISTINCT gram) AS d FROM g2 GROUP BY 1
),
g3 AS (
  SELECT doc_id, array_to_string(ws[i:i+2], ' ') AS gram
  FROM w, LATERAL (SELECT unnest(generate_series(1, len(ws) - 2)) AS i) t
),
g3s AS (
  SELECT doc_id, count(*) AS n, count(DISTINCT gram) AS d FROM g3 GROUP BY 1
)
SELECT w.doc_id,
       coalesce(ws_.n, 0)::BIGINT AS n_words,
       round(CASE WHEN coalesce(ws_.n, 0) > 0
             THEN (ws_.n - ws_.d) * 1.0 / ws_.n ELSE 0 END, 6) AS dup_word_frac,
       round(CASE WHEN coalesce(g2s.n, 0) > 0
             THEN (g2s.n - g2s.d) * 1.0 / g2s.n ELSE 0 END, 6) AS dup_2gram_frac,
       round(CASE WHEN coalesce(g3s.n, 0) > 0
             THEN (g3s.n - g3s.d) * 1.0 / g3s.n ELSE 0 END, 6) AS dup_3gram_frac,
       round(CASE WHEN coalesce(ws_.n, 0) > 0
             THEN ws_.topc * 1.0 / ws_.n ELSE 0 END, 6) AS top_word_frac
FROM w
LEFT JOIN wstats ws_ ON ws_.doc_id = w.doc_id
LEFT JOIN g2s ON g2s.doc_id = w.doc_id
LEFT JOIN g3s ON g3s.doc_id = w.doc_id
ORDER BY w.doc_id
"""


def doc_line_dedup(sf_dir: str):
    """C4-style corpus-wide exact line dedup (keep-first). The synthetic
    docs are single-line, so the query first segments each doc into
    3-word "lines" (the shared vocab gives real cross-doc duplicate
    signal) and then runs functions.dedup.line_dedup: every non-first
    occurrence of a line is deleted corpus-wide; the heavy text column
    never rides a shuffle (narrow (hash, pos) rows + a broadcast drop
    table). Oracle mirrors the segmentation with list slicing and the
    keep-first rule with a row_number window over (doc_id, line_no)."""
    from recon_ray.functions.dedup import line_dedup

    def chunk(batch: pd.DataFrame) -> pd.DataFrame:
        texts = []
        for t in batch["text"]:
            ws = t.split()
            texts.append(
                "\n".join(
                    " ".join(ws[i:i + 3]) for i in range(0, len(ws), 3)
                )
            )
        return pd.DataFrame(
            {"doc_id": batch["doc_id"].to_numpy(), "text": texts}
        )

    ds = (
        _t(sf_dir, "documents")
        .select_columns(["doc_id", "text"])
        .map_batches(chunk, batch_format="pandas")
    )
    out = line_dedup(ds).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


ORACLE_DOC_LINE_DEDUP = r"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(text, '\S+') AS ws FROM documents
),
chunks AS (
  SELECT doc_id, i AS line_no,
         array_to_string(ws[(i-1)*3+1:(i-1)*3+3], ' ') AS ln
  FROM w, LATERAL (SELECT unnest(generate_series(1,
       cast(ceil(len(ws)/3.0) AS BIGINT))) AS i) t
  UNION ALL
  -- a zero-word doc is ONE empty line on the Ray side (''.split → ['']),
  -- participating in corpus-wide dedup like any other line
  SELECT doc_id, 1 AS line_no, '' AS ln FROM w WHERE len(ws) = 0
),
marked AS (
  SELECT doc_id, line_no, ln,
         count(*) OVER (PARTITION BY ln) AS c,
         row_number() OVER (PARTITION BY ln ORDER BY doc_id, line_no) AS rn
  FROM chunks
),
kept AS (SELECT doc_id, line_no, ln FROM marked WHERE c = 1 OR rn = 1),
tot AS (SELECT doc_id, count(*) AS n_lines FROM chunks GROUP BY 1),
agg AS (SELECT doc_id, count(*) AS n_kept,
               string_agg(ln, chr(10) ORDER BY line_no) AS text_clean
        FROM kept GROUP BY 1)
SELECT t.doc_id, t.n_lines, coalesce(a.n_kept, 0) AS n_kept,
       coalesce(a.text_clean, '') AS text_clean
FROM tot t LEFT JOIN agg a USING (doc_id) ORDER BY t.doc_id
"""


def doc_rollup_stats(sf_dir: str):
    """GROUP BY ROLLUP (lang, source) over documents — OLAP grouping
    sets (functions.relational.rollup_agg): the finest level is ONE
    distributed pre-aggregated groupby; coarser levels recompose from its
    partials on the driver (sums add, means = sum/count). Oracle is the
    native DuckDB ROLLUP."""
    from recon_ray.functions.relational import rollup_agg

    out = rollup_agg(
        _t(sf_dir, "documents").select_columns(["lang", "source", "n_chars"]),
        ["lang", "source"],
        {"n_chars": ["sum", "count", "mean"]},
    )
    out["n_chars_sum"] = out["n_chars_sum"].astype("int64")
    out["n_chars_count"] = out["n_chars_count"].astype("int64")
    out["n_chars_mean"] = _round_away(
        out["n_chars_mean"].astype("float64"), 6
    )
    return out.reset_index(drop=True)


ORACLE_DOC_ROLLUP = """
SELECT coalesce(lang, '__all__') AS lang,
       coalesce(source, '__all__') AS source,
       CAST(sum(n_chars) AS BIGINT) AS n_chars_sum,
       CAST(count(n_chars) AS BIGINT) AS n_chars_count,
       round(sum(n_chars)::DOUBLE / count(n_chars), 6) AS n_chars_mean
FROM documents
GROUP BY ROLLUP(lang, source)
ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# partsupp wave: TPC-H Q2 / Q9 / Q16 / Q20 (adapted to the synthetic
# schema — no p_mfgr/p_container/s_comment columns; recon_ray/partsupp.py
# derives the deterministic partsupp table the testdata lacks, cached
# under /tmp so the oracle SQL can read_parquet() the identical rows)
# ---------------------------------------------------------------------------


def _ps_path(sf_dir: str) -> str:
    from recon_ray.partsupp import ensure_partsupp

    return ensure_partsupp(sf_dir)


def _ps(sf_dir: str):
    return rd.read_parquet(_ps_path(sf_dir))


def q2_min_cost_supplier(sf_dir: str):
    """TPC-H Q2 (minimum-cost supplier), adapted: for LARGE parts sized
    10..20, the EUROPE supplier(s) whose supply cost equals the
    region-wide per-part minimum. The supplier→nation→region chain and
    the part filter are driver-side dims merged once and BROADCAST;
    partsupp streams through two broadcast joins; the per-part min is a
    combiner-pass grouped_agg whose part-sized frame broadcasts back
    for the equality filter — one shuffle total, no partsupp collect.
    (s_name, p_partkey) is a unique total order, so LIMIT 100 pages
    deterministically in both engines."""
    part_f = _pdf(sf_dir, "part")
    part_f = part_f[
        (part_f["p_type"] == "LARGE")
        & part_f["p_size"].between(10, 20)
    ][["p_partkey", "p_name"]]
    supp = (
        _pdf(sf_dir, "supplier")[
            ["s_suppkey", "s_name", "s_acctbal", "s_nationkey"]]
        .merge(_pdf(sf_dir, "nation"),
               left_on="s_nationkey", right_on="n_nationkey")
        .merge(_pdf(sf_dir, "region"),
               left_on="n_regionkey", right_on="r_regionkey")
    )
    supp = supp[supp["r_name"] == "EUROPE"][
        ["s_suppkey", "s_name", "s_acctbal", "n_name"]]

    j = broadcast_join(
        _ps(sf_dir).select_columns(
            ["ps_partkey", "ps_suppkey", "ps_supplycost_c"]),
        supp, on="ps_suppkey", small_on="s_suppkey")
    j = broadcast_join(j, part_f, on="ps_partkey",
                       small_on="p_partkey").materialize()
    # ^ consumed twice (grouped min + equality join): pin the filtered
    # region×part subset instead of re-reading partsupp
    mins = grouped_agg(j, "ps_partkey", {"ps_supplycost_c": ["min"]})
    mins = mins.rename(columns={"ps_supplycost_c_min": "__mc"})
    out = (
        broadcast_join(j, mins, on="ps_partkey")
        .map_batches(
            lambda t: t.filter(
                pc.equal(t["ps_supplycost_c"], t["__mc"])),
            batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
    )
    # ^ the cost == min equality runs IN the Dataset, so only the
    # near-final (≤ one row per part × tied suppliers) frame lands
    # driver-side
    out = out[["s_acctbal", "s_name", "n_name", "p_partkey", "p_name",
               "ps_supplycost_c"]]
    out = out.sort_values(
        ["s_acctbal", "n_name", "s_name", "p_partkey"],
        ascending=[False, True, True, True]).head(100)
    return out.reset_index(drop=True)


def _oracle_q2(ps_path: str) -> str:
    return f"""
WITH ps AS (SELECT * FROM read_parquet('{ps_path}')),
eu AS (
  SELECT ps_partkey, ps_suppkey, ps_supplycost_c,
         s_name, s_acctbal, n_name
  FROM ps JOIN supplier ON ps_suppkey = s_suppkey
          JOIN nation ON s_nationkey = n_nationkey
          JOIN region ON n_regionkey = r_regionkey
  WHERE r_name = 'EUROPE'),
mins AS (
  SELECT eu.ps_partkey, min(ps_supplycost_c) AS mc FROM eu
  JOIN part ON eu.ps_partkey = p_partkey
  WHERE p_type = 'LARGE' AND p_size BETWEEN 10 AND 20
  GROUP BY eu.ps_partkey)
SELECT s_acctbal, s_name, n_name, p_partkey, p_name, ps_supplycost_c
FROM eu JOIN part ON eu.ps_partkey = p_partkey
        JOIN mins ON mins.ps_partkey = eu.ps_partkey
                 AND eu.ps_supplycost_c = mins.mc
WHERE p_type = 'LARGE' AND p_size BETWEEN 10 AND 20
ORDER BY s_acctbal DESC, n_name, s_name, p_partkey
LIMIT 100
"""


def q9_product_profit(sf_dir: str):
    """TPC-H Q9 (product-type profit by nation and year), adapted: parts
    named '%widget%'; profit = Σ price_c·(100−disc_bp) −
    supplycost_c·qty·100 in exact integer cent·bp units, ÷10000 at the
    end (the q5 convention). lineitem streams once: a broadcast
    part-key semi-filter, then broadcast suppkey→nation and
    (partkey,suppkey)→cost lookups (supplier/nation are genuinely
    small dims; partsupp is 4×|part| with the partitioned fallback
    documented in functions/relational.py), and the orders side —
    big×big at scale — as a SHUFFLE hash join on orderkey, both sides
    pre-pruned to the join columns; one final combiner-pass
    grouped_agg on (n_name, o_year)."""
    from recon_ray.functions.relational import shuffle_join

    part_keys = _pdf(sf_dir, "part")
    part_keys = part_keys[
        part_keys["p_name"].str.contains("widget")]["p_partkey"]
    cost = pd.read_parquet(
        _ps_path(sf_dir),
        columns=["ps_partkey", "ps_suppkey", "ps_supplycost_c"])
    supp_nat = _pdf(sf_dir, "supplier")[["s_suppkey", "s_nationkey"]].merge(
        _pdf(sf_dir, "nation")[["n_nationkey", "n_name"]],
        left_on="s_nationkey", right_on="n_nationkey",
    )[["s_suppkey", "n_name"]]

    def year_col(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t.column("o_orderkey"),
            "o_year": pc.year(t.column("o_orderdate")).cast(pa.int64()),
        })

    orders_ds = _t(sf_dir, "orders").select_columns(
        ["o_orderkey", "o_orderdate"]
    ).map_batches(year_col, batch_format="pyarrow", zero_copy_batch=True)

    li = semi_join(
        _t(sf_dir, "lineitem").select_columns(
            ["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
             "l_extendedprice", "l_discount"]),
        set(part_keys), on="l_partkey")
    li = broadcast_join(li, supp_nat, on="l_suppkey",
                        small_on="s_suppkey")
    li = shuffle_join(li, orders_ds, on="l_orderkey",
                      right_on="o_orderkey")
    li = broadcast_join(li, cost, on=["l_partkey", "l_suppkey"],
                        small_on=["ps_partkey", "ps_suppkey"])

    def amount(t: pa.Table) -> pa.Table:
        price_c = _cents_arrow(t.column("l_extendedprice")).to_numpy()
        disc_bp = _cents_arrow(t.column("l_discount")).to_numpy()
        qty = (t.column("l_quantity").to_numpy(zero_copy_only=False)
               .astype("int64"))
        sup = t.column("ps_supplycost_c").to_numpy(zero_copy_only=False)
        amt = price_c * (100 - disc_bp) - sup * qty * 100
        return pa.table({"n_name": t.column("n_name"),
                         "o_year": t.column("o_year"),
                         "amount": pa.array(amt, pa.int64())})

    g = grouped_agg(li.map_batches(amount, batch_format="pyarrow",
                                   zero_copy_batch=True),
                    ["n_name", "o_year"], {"amount": ["sum"]})
    out = pd.DataFrame({
        "n_name": g["n_name"],
        "o_year": g["o_year"].astype("int64"),
        "profit": _round_away(g["amount_sum"] / 10000.0, 2),
    })
    return out.sort_values(
        ["n_name", "o_year"], ascending=[True, False]
    ).reset_index(drop=True)


def _oracle_q9(ps_path: str) -> str:
    return f"""
WITH ps AS (SELECT * FROM read_parquet('{ps_path}'))
SELECT n_name, CAST(year(o_orderdate) AS BIGINT) AS o_year,
       round(sum(round(l_extendedprice * 100)::BIGINT
                 * (100 - round(l_discount * 100)::BIGINT)
                 - ps_supplycost_c * CAST(l_quantity AS BIGINT) * 100
             ) / 10000.0, 2) AS profit
FROM lineitem JOIN ps ON l_partkey = ps_partkey
                     AND l_suppkey = ps_suppkey
              JOIN part ON l_partkey = p_partkey
              JOIN supplier ON l_suppkey = s_suppkey
              JOIN nation ON s_nationkey = n_nationkey
              JOIN orders ON l_orderkey = o_orderkey
WHERE p_name LIKE '%widget%'
GROUP BY n_name, year(o_orderdate)
ORDER BY n_name, o_year DESC
"""


def q16_supplier_part_counts(sf_dir: str):
    """TPC-H Q16 (supplier counts by part attributes), adapted: parts
    NOT Brand#1 / NOT PROMO with sizes in the classic 9-value list,
    excluding negative-balance suppliers (the 'Customer Complaints'
    analogue the synthetic supplier table can express). partsupp
    streams through a broadcast part-attr join + broadcast exclusion
    set; the distinct (brand,type,size,suppkey) pass is the bucketed
    combiner distinct; the final count is a combiner group_count — two
    narrow shuffles, keys only."""
    sizes = [1, 4, 7, 10, 13, 16, 19, 22, 25]
    part_f = _pdf(sf_dir, "part")
    part_f = part_f[
        (part_f["p_brand"] != "Brand#1")
        & (part_f["p_type"] != "PROMO")
        & part_f["p_size"].isin(sizes)
    ][["p_partkey", "p_brand", "p_type", "p_size"]]
    supp = _pdf(sf_dir, "supplier")
    excl = set(supp[supp["s_acctbal"] < 0]["s_suppkey"])

    j = broadcast_join(
        _ps(sf_dir).select_columns(["ps_partkey", "ps_suppkey"]),
        part_f, on="ps_partkey", small_on="p_partkey")
    j = anti_join(j, excl, on="ps_suppkey")
    d = distinct(j.map_batches(
        lambda t: t.select(["p_brand", "p_type", "p_size",
                            "ps_suppkey"]),
        batch_format="pyarrow", zero_copy_batch=True),
        ["p_brand", "p_type", "p_size", "ps_suppkey"])
    out = group_count(d, ["p_brand", "p_type", "p_size"],
                      alias="supplier_cnt")
    out["supplier_cnt"] = out["supplier_cnt"].astype("int64")
    out["p_size"] = out["p_size"].astype("int64")
    return out.sort_values(
        ["supplier_cnt", "p_brand", "p_type", "p_size"],
        ascending=[False, True, True, True]).reset_index(drop=True)


def _oracle_q16(ps_path: str) -> str:
    return f"""
WITH ps AS (SELECT * FROM read_parquet('{ps_path}'))
SELECT p_brand, p_type, p_size,
       CAST(count(DISTINCT ps_suppkey) AS BIGINT) AS supplier_cnt
FROM ps JOIN part ON ps_partkey = p_partkey
WHERE p_brand <> 'Brand#1' AND p_type <> 'PROMO'
  AND p_size IN (1, 4, 7, 10, 13, 16, 19, 22, 25)
  AND ps_suppkey NOT IN (
      SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
GROUP BY p_brand, p_type, p_size
ORDER BY supplier_cnt DESC, p_brand, p_type, p_size
"""


def q20_excess_stock(sf_dir: str):
    """TPC-H Q20 (suppliers holding excess stock), adapted: suppliers
    with any 'blue %' part whose availqty exceeds half that
    (part,supplier) pair's 1996 shipped quantity. lineitem streams once
    through a broadcast part-key semi-filter into a DATASET-native
    grouped sum (the pair table never lands on the driver); partsupp
    streams through the same semi-filter and the two sides meet in a
    SHUFFLE hash join on (partkey, suppkey) for the 2·avail > qty gate
    — quantities are whole doubles, so the comparison is exact. Only
    the qualifying suppkey set (suppliers-bounded) reaches the driver.
    Output is the distinct qualifying suppliers' (s_name, n_name)."""
    from recon_ray.functions.relational import shuffle_join

    pk = _pdf(sf_dir, "part")
    pk = set(pk[pk["p_name"].str.startswith("blue ")]["p_partkey"])

    def in_1996(t: pa.Table) -> pa.Table:
        d = t.column("l_shipdate")
        m = pc.and_(
            pc.greater_equal(d, pa.scalar(pd.Timestamp("1996-01-01"))),
            pc.less(d, pa.scalar(pd.Timestamp("1997-01-01"))),
        )
        return t.filter(m)

    li = semi_join(
        _t(sf_dir, "lineitem").select_columns(
            ["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"]
        ).map_batches(in_1996, batch_format="pyarrow"),
        pk, on="l_partkey")
    qty_ds = li.groupby(["l_partkey", "l_suppkey"]).sum(
        "l_quantity"
    ).map_batches(
        lambda t: t.rename_columns(
            ["__sq" if c == "sum(l_quantity)" else c
             for c in t.column_names]),
        batch_format="pyarrow", zero_copy_batch=True,
    )

    ps = semi_join(
        _ps(sf_dir).select_columns(
            ["ps_partkey", "ps_suppkey", "ps_availqty"]),
        pk, on="ps_partkey")
    j = shuffle_join(ps, qty_ds, on=["ps_partkey", "ps_suppkey"],
                     right_on=["l_partkey", "l_suppkey"])
    j = arrow_filter(
        j,
        lambda t: pc.greater(
            pc.multiply(pc.cast(t["ps_availqty"], pa.float64()),
                        pa.scalar(2.0)),
            t["__sq"]),
    )
    keys = set(
        j.select_columns(["ps_suppkey"]).to_pandas()["ps_suppkey"]
    )
    supp = _pdf(sf_dir, "supplier")[
        ["s_suppkey", "s_name", "s_nationkey"]].merge(
        _pdf(sf_dir, "nation")[["n_nationkey", "n_name"]],
        left_on="s_nationkey", right_on="n_nationkey")
    out = supp[supp["s_suppkey"].isin(keys)][["s_name", "n_name"]]
    return out.sort_values("s_name").reset_index(drop=True)


def _oracle_q20(ps_path: str) -> str:
    return f"""
WITH ps AS (SELECT * FROM read_parquet('{ps_path}')),
sq AS (
  SELECT l_partkey, l_suppkey, sum(l_quantity) AS q
  FROM lineitem
  WHERE l_shipdate >= DATE '1996-01-01'
    AND l_shipdate < DATE '1997-01-01'
  GROUP BY l_partkey, l_suppkey)
SELECT DISTINCT s_name, n_name
FROM ps JOIN part ON ps_partkey = p_partkey
        JOIN sq ON sq.l_partkey = ps.ps_partkey
               AND sq.l_suppkey = ps.ps_suppkey
        JOIN supplier ON ps_suppkey = s_suppkey
        JOIN nation ON s_nationkey = n_nationkey
WHERE p_name LIKE 'blue %' AND 2 * ps_availqty > q
ORDER BY s_name
"""


def q_orders_exists_discount(sf_dir: str):
    """TPC-H Q4 shape (EXISTS semi-join): orders per priority having at
    least one line item with discount ≥ 0.06. The inner side reduces to
    DISTINCT order keys (per-batch combiner + one bucket shuffle —
    functions.relational.distinct), then a broadcast semi-join gates the
    orders scan; no row ever widens."""
    from recon_ray.functions.relational import distinct, group_count, semi_join

    keys = distinct(
        arrow_filter(
            _t(sf_dir, "lineitem").select_columns(
                ["l_orderkey", "l_discount"]),
            lambda t: pc.greater_equal(t["l_discount"],
                                       pa.scalar(0.06)),
        ),
        "l_orderkey",
    ).to_pandas()
    gated = semi_join(
        _t(sf_dir, "orders").select_columns(["o_orderkey", "o_orderpriority"]),
        set(keys["l_orderkey"].tolist()),
        on="o_orderkey",
    )
    out = group_count(gated, "o_orderpriority", alias="order_count")
    return out.sort_values("o_orderpriority").reset_index(drop=True)


ORACLE_ORDERS_EXISTS = """
SELECT o_orderpriority, count(*) AS order_count
FROM orders o
WHERE EXISTS (
  SELECT 1 FROM lineitem l
  WHERE l.l_orderkey = o.o_orderkey AND l.l_discount >= 0.06
)
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


def q_events_distinct_users(sf_dir: str):
    """Exact distinct users per event type: per-batch distinct pairs
    (combiner) + one bucket shuffle (functions.relational.distinct), then
    a tiny count — the exact companion to the HLL sketch query."""
    from recon_ray.functions.relational import distinct, group_count

    pairs = distinct(
        _t(sf_dir, "events").select_columns(["event_type", "user_id"]),
        ["event_type", "user_id"],
    )
    out = group_count(pairs, "event_type", alias="n_users")
    return out.sort_values("event_type").reset_index(drop=True)


ORACLE_EVENTS_DISTINCT_USERS = """
SELECT event_type, count(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type ORDER BY event_type
"""


def q_events_impute_mean(sf_dir: str):
    """Group-mean NULL imputation (the standard data-cleaning operator):
    rows with event_id % 7 == 0 are treated as missing and receive their
    event_type's mean value over the REMAINING rows, computed in exact
    integer cents with floor division (sum_c // n) so the fill value is
    bit-identical in both engines. One combiner grouped_agg over the
    non-missing stream + one group count of the missing — the per-type
    summary (n_missing, fill_value_c) is dim-sized; at scale the fill
    itself is a broadcast-join map over the stream, never a shuffle."""
    ev = _t(sf_dir, "events").select_columns(
        ["event_id", "event_type", "value"]
    )

    def split(t: pa.Table) -> pa.Table:
        # pyarrow.compute has no mod kernel: x % 7 == x - (x // 7) * 7
        # (event_id ≥ 0, so integer divide == floor divide)
        eid = t.column("event_id")
        seven = pa.scalar(7, pa.int64())
        missing = pc.equal(
            pc.subtract(eid, pc.multiply(pc.divide(eid, seven), seven)),
            pa.scalar(0, pa.int64()),
        )
        return pa.table(
            {"event_type": t.column("event_type"),
             "value_c": _cents_arrow(t.column("value")),
             "is_missing": pc.cast(missing, pa.int64())}
        )

    tagged = ev.map_batches(split, batch_format="pyarrow",
                            zero_copy_batch=True)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        miss = b["is_missing"] == 1
        keep = b[~miss]
        g = keep.groupby("event_type", sort=False)["value_c"].agg(
            ["sum", "count"]
        )
        m = b[miss].groupby("event_type", sort=False).size().rename("nm")
        out = g.join(m, how="outer").fillna(0).reset_index()
        return pd.DataFrame(
            {"event_type": out["event_type"],
             "s": out["sum"].astype("int64"),
             "n": out["count"].astype("int64"),
             "nm": out["nm"].astype("int64")}
        )

    from ray.data.aggregate import Sum

    g = (
        tagged.map_batches(partial, batch_format="pandas")
        .groupby("event_type")
        .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n"),
                   Sum("nm", alias_name="nm"))
        .to_pandas()
    )
    out = pd.DataFrame(
        {"event_type": g["event_type"],
         "n_missing": g["nm"].astype("int64"),
         "fill_value_c": (g["s"].astype("int64")
                          // g["n"].astype("int64"))}
    )
    return out.sort_values("event_type").reset_index(drop=True)


ORACLE_EVENTS_IMPUTE_MEAN = """
SELECT event_type,
       count(*) FILTER (event_id % 7 = 0)::BIGINT AS n_missing,
       (sum(round(value * 100)::BIGINT) FILTER (event_id % 7 <> 0)
        // count(*) FILTER (event_id % 7 <> 0))::BIGINT AS fill_value_c
FROM events GROUP BY event_type ORDER BY event_type
"""


def q_events_user_streaks(sf_dir: str):
    """Gaps-and-islands: longest run of CONSECUTIVE active days per
    user. The classic row_number anchor trick (day − rank collapses a
    consecutive run to one constant), executed distributed: distinct
    (user, day) pairs via the bucketed exact distinct, then one
    bucketed_group_apply on user_id whose body is fully vectorized
    pandas across every user in the bucket (sort → cumcount → anchor →
    run sizes → max), never a per-user Python call."""
    from recon_ray.functions.relational import bucketed_group_apply

    days = distinct(
        _t(sf_dir, "events").select_columns(["user_id", "ts"]).map_batches(
            lambda t: pa.table(
                {"user_id": t.column("user_id"),
                 "day": pc.floor_temporal(t.column("ts"), unit="day")}
            ),
            batch_format="pyarrow",
        ),
        ["user_id", "day"],
    )

    def streaks(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "day"], kind="mergesort")
        rn = g.groupby("user_id", sort=False).cumcount()
        anchor = g["day"] - pd.to_timedelta(rn, unit="D")
        runs = (
            g.assign(__a=anchor)
            .groupby(["user_id", "__a"], sort=False).size()
            .rename("len").reset_index()
        )
        out = runs.groupby("user_id", sort=False)["len"].max()
        return pd.DataFrame({"user_id": out.index.to_numpy(),
                             "max_streak": out.to_numpy(np.int64)})

    out = bucketed_group_apply(days, "user_id", streaks).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    out["max_streak"] = out["max_streak"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


ORACLE_EVENTS_USER_STREAKS = """
WITH d AS (
  SELECT DISTINCT user_id, date_trunc('day', ts) AS day FROM events
), r AS (
  SELECT user_id, day,
         row_number() OVER (PARTITION BY user_id ORDER BY day) AS rn
  FROM d
), g AS (
  SELECT user_id, day - rn * INTERVAL 1 DAY AS anchor FROM r
)
SELECT user_id, max(cnt)::BIGINT AS max_streak FROM (
  SELECT user_id, anchor, count(*) AS cnt FROM g GROUP BY 1, 2
) GROUP BY user_id ORDER BY user_id
"""


def q_events_pseudonymize(sf_dir: str):
    """Keyed pseudonymization of the user_id column
    (functions.pii.pseudonymize_column): consistent token = (id+salt)·C
    mod 2⁶⁴ — stateless zero-copy Arrow map, no shuffle, join-stable
    tokens. The bijection means the distinct-token count must equal the
    distinct-user count, and the oracle replays the exact HUGEINT
    arithmetic; documented as pseudonymization (linkable tokens), with
    the keyed-PRF seam for hostile-reader deployments."""
    from recon_ray.functions.pii import pseudonymize_column

    out = pseudonymize_column(
        _t(sf_dir, "events").select_columns(["event_id", "user_id"]),
        "user_id", salt=20260818,
    ).to_pandas()
    out = out[["event_id", "user_id_token"]]
    # decimal-string tokens: DuckDB returns HUGEINT as lossy float64
    # through pandas, so the comparable form on BOTH sides is VARCHAR
    out["user_id_token"] = out["user_id_token"].astype("uint64").astype(str)
    return out.sort_values("event_id").reset_index(drop=True)


def _pseudonymize_oracle_sql() -> str:
    from recon_ray.functions.pii import _PSEUDO_C

    return (
        "SELECT event_id, "
        f"(((user_id::HUGEINT + 20260818) * {_PSEUDO_C}) "
        "% 18446744073709551616)::VARCHAR AS user_id_token "
        "FROM events ORDER BY event_id"
    )


def q_events_value_histogram(sf_dir: str):
    """Fixed-width histogram over events.value (functions.sketches
    .histogram): per-batch int64 bincounts, combiner-summed, no shuffle.
    lo/hi/width are exactly-representable doubles so the bin assignment
    floor((v-lo)/width) is bit-identical between numpy and the DuckDB
    oracle."""
    from recon_ray.functions.sketches import histogram

    out = histogram(_t(sf_dir, "events"), "value", lo=0.0, hi=500.0,
                    n_bins=20)
    out = out[["bin", "count"]].copy()
    out["count"] = out["count"].astype("int64")
    return out.reset_index(drop=True)


ORACLE_EVENTS_HISTOGRAM = """
WITH bins AS (SELECT unnest(generate_series(-1, 20)) AS bin),
hits AS (
  SELECT least(greatest(cast(floor((value - 0.0) / 25.0) AS BIGINT), -1),
               20) AS bin,
         count(*) AS c
  FROM events GROUP BY 1
)
SELECT b.bin, coalesce(h.c, 0) AS count
FROM bins b LEFT JOIN hits h ON h.bin = b.bin
ORDER BY b.bin
"""


def q_events_cube(sf_dir: str):
    """GROUP BY CUBE (event_type, day) over events — all four grouping
    sets from ONE distributed finest-level groupby
    (functions.relational.cube_agg). Values aggregate as int cents so the
    recomposed sums are exact at every level; oracle is native DuckDB
    CUBE."""
    from recon_ray.functions.relational import cube_agg

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {"event_type": t.column("event_type"),
             "day": pc.strftime(t.column("ts"), format="%Y-%m-%d"),
             "value_c": _cents_arrow(t.column("value"))}
        )

    ds = _t(sf_dir, "events").select_columns(
        ["event_type", "ts", "value"]
    ).map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    out = cube_agg(ds, ["event_type", "day"],
                   {"value_c": ["sum", "count"]})
    out["value_c_sum"] = out["value_c_sum"].astype("int64")
    out["value_c_count"] = out["value_c_count"].astype("int64")
    return out.reset_index(drop=True)


ORACLE_EVENTS_CUBE = """
SELECT coalesce(event_type, '__all__') AS event_type,
       coalesce(strftime(ts, '%Y-%m-%d'), '__all__') AS day,
       CAST(sum(cast(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS value_c_sum,
       CAST(count(*) AS BIGINT) AS value_c_count
FROM events
GROUP BY CUBE(event_type, strftime(ts, '%Y-%m-%d'))
ORDER BY 1, 2
"""


def doc_bpe_trained_tokens(sf_dir: str):
    """Corpus-trained BPE (functions/bpe.py: distributed word count →
    driver merges over the vocabulary-sized table, Sennrich 2016) then a
    token-count encode pass under the learned merges. Iterative training
    → no SQL oracle; hand-computed merges, layout invariance and the
    lossless/monotone encode properties are pinned in tests/test_bpe.py."""
    from recon_ray.functions.bpe import make_bpe_encoder, train_bpe

    docs = _t(sf_dir, "documents").select_columns(["doc_id", "text"])
    model = train_bpe(docs, n_merges=100)
    out = (
        docs.map_batches(
            make_bpe_encoder(model["merges"]), batch_format="pandas"
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    return out


def doc_normalize(sf_dir: str):
    """Curation text normalization (functions.text.normalize_text):
    lowercase + whitespace-run squash + strip (NFKC off here so the SQL
    oracle is exact — DuckDB has no NFKC fold). Streaming map_batches."""
    from recon_ray.functions.text import normalize_text

    out = (
        normalize_text(
            _t(sf_dir, "documents").select_columns(["doc_id", "text"]),
            nfkc=False,
        )
        .to_pandas()[["doc_id", "text_norm", "norm_changed"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    return out


ORACLE_DOC_NORMALIZE = r"""
SELECT doc_id,
       trim(regexp_replace(lower(text), '\s+', ' ', 'g')) AS text_norm,
       (trim(regexp_replace(lower(text), '\s+', ' ', 'g')) <> text)
         AS norm_changed
FROM documents ORDER BY doc_id
"""


def doc_lm_score(sf_dir: str):
    """CCNet-style LM quality scoring (functions/lm.py): bigram model
    trained on the corpus (two distributed counts), docs scored by mean
    add-1-smoothed bigram log-likelihood via a broadcast count table.
    The oracle reproduces the exact smoothing rule in SQL."""
    import ray as _ray

    from recon_ray.functions.lm import make_lm_scorer, train_bigram_lm

    docs = _t(sf_dir, "documents").select_columns(["doc_id", "text"])
    model = train_bigram_lm(docs)
    out = (
        docs.map_batches(
            make_lm_scorer(_ray.put(model), k=1.0), batch_format="pandas"
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    out["lm_score"] = _round_away(out["lm_score"], 6)
    return out


ORACLE_DOC_LM_SCORE = r"""
WITH w AS (
  SELECT doc_id,
         list_transform(regexp_extract_all(text, '\w+'), x -> lower(x)) AS ws
  FROM documents
),
unic AS (
  SELECT w, count(*) AS c FROM (SELECT unnest(ws) AS w FROM w) GROUP BY 1
),
v AS (SELECT count(*) AS v FROM unic),
big AS (
  SELECT doc_id, ws[i] AS w1, ws[i+1] AS w2
  FROM w, LATERAL (SELECT unnest(generate_series(1, len(ws) - 1)) AS i) t
),
bic AS (SELECT w1, w2, count(*) AS c FROM big GROUP BY 1, 2),
doc AS (
  SELECT b.doc_id, count(*) AS n_bigrams,
         sum(ln((bc.c + 1.0) / (uc.c + (SELECT v FROM v)))) / count(*)
           AS lm
  FROM big b
  JOIN bic bc ON bc.w1 = b.w1 AND bc.w2 = b.w2
  JOIN unic uc ON uc.w = b.w1
  GROUP BY 1
)
SELECT w.doc_id, coalesce(d.n_bigrams, 0) AS n_bigrams,
       round(coalesce(d.lm, 0), 6) AS lm_score
FROM w LEFT JOIN doc d ON d.doc_id = w.doc_id
ORDER BY w.doc_id
"""


def doc_bm25_search(sf_dir: str):
    """BM25 full-text top-10 (functions.text.bm25_search) for the query
    {hash, merge, window}: one combiner stats pass (N, total terms, the
    three query terms' df — never a full posting index), then a
    broadcast-model scoring pass with batch-local top-k. The oracle
    replays the exact BM25 form (k1=1.2, b=0.75, ln idf) over the same
    \\w+ tokenization; scores round to 6 dp on both engines."""
    from recon_ray.functions.text import bm25_search

    return bm25_search(
        _t(sf_dir, "documents").select_columns(["doc_id", "text"]),
        ["hash", "merge", "window"], k=10,
    )


ORACLE_DOC_BM25 = r"""
WITH t AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\w+')) AS term
  FROM documents
), dl AS (
  SELECT doc_id, count(*) AS dl FROM t GROUP BY 1
), st AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT count(*) FROM t)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
), q AS (
  SELECT unnest(['hash', 'merge', 'window']) AS term
), df AS (
  SELECT q.term, (SELECT count(DISTINCT t.doc_id) FROM t
                  WHERE t.term = q.term) AS df
  FROM q
), tf AS (
  SELECT t.doc_id, t.term, count(*) AS tf
  FROM t JOIN q USING (term) GROUP BY 1, 2
), sc AS (
  SELECT tf.doc_id,
         sum(ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
             * tf.tf * (1.2 + 1)
             / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl))) AS s
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id), st
  GROUP BY 1
)
SELECT doc_id, round(s, 6) AS score
FROM sc WHERE s > 0
ORDER BY round(s, 6) DESC, doc_id LIMIT 10
"""


def doc_version_diff(sf_dir: str):
    """Content-addressed version diff (functions.relational.dataset_diff —
    the distributed analogue of the reference's Transformation records,
    recon/types.py:211-221). v2 is a deterministic mutation of documents:
    doc_id%17==0 removed, else %13==0 text-changed, plus a new row per
    %19==0 doc. Narrow (id, hash, side) rows ride one shared bucket
    shuffle; the oracle mirrors the mutation and a FULL OUTER JOIN."""
    from recon_ray.functions.relational import dataset_diff

    docs = _t(sf_dir, "documents").select_columns(["doc_id", "text"])

    def mutate(b: pd.DataFrame) -> pd.DataFrame:
        keep = b[b["doc_id"] % 17 != 0].copy()
        ch = keep["doc_id"] % 13 == 0
        keep.loc[ch, "text"] = keep.loc[ch, "text"] + " v2"
        new = b[b["doc_id"] % 19 == 0]
        added = pd.DataFrame(
            {"doc_id": new["doc_id"] + 10_000_000,
             "text": "new doc " + new["doc_id"].astype(str)}
        )
        return pd.concat([keep, added], ignore_index=True)

    v2 = docs.map_batches(mutate, batch_format="pandas")
    out = dataset_diff(docs, v2, id_col="doc_id", content_cols="text")
    out = out.to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


ORACLE_DOC_VERSION_DIFF = r"""
WITH v2 AS (
  SELECT doc_id,
         CASE WHEN doc_id % 13 = 0 THEN text || ' v2' ELSE text END AS text
  FROM documents WHERE doc_id % 17 <> 0
  UNION ALL
  SELECT doc_id + 10000000 AS doc_id, 'new doc ' || doc_id::VARCHAR AS text
  FROM documents WHERE doc_id % 19 = 0
)
SELECT coalesce(a.doc_id, b.doc_id) AS doc_id,
       CASE WHEN a.doc_id IS NULL THEN 'added'
            WHEN b.doc_id IS NULL THEN 'removed'
            ELSE 'changed' END AS status
FROM documents a FULL OUTER JOIN v2 b ON a.doc_id = b.doc_id
WHERE a.doc_id IS NULL OR b.doc_id IS NULL OR a.text <> b.text
ORDER BY doc_id
"""


def doc_langid(sf_dir: str):
    from recon_ray.functions.text import make_langid_batch

    out = (
        _t(sf_dir, "documents")
        .map_batches(make_langid_batch(), batch_format="pyarrow",
                     zero_copy_batch=True)
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def _langid_oracle_sql() -> str:
    """The stopword-hit-rate argmax is SQL-expressible: per-language score
    subexpressions generated from functions.text.STOPWORDS (single source
    of truth), argmax with the SAME tie-break as the Python dict-order
    loop (strict > keeps the earlier language), min_score 0.05 → unknown.
    Equality verified row-exact at sf0.01 and in tests."""
    from recon_ray.functions.text import STOPWORDS

    langs = list(STOPWORDS)  # dict order = tie-break priority
    assert langs == ["en", "de", "fr", "es"]

    def inlist(lang: str) -> str:
        return ", ".join("'%s'" % w for w in sorted(STOPWORDS[lang]))

    scores = ",\n".join(
        f"    CASE WHEN len(words)=0 THEN 0.0 ELSE "
        f"len(list_filter(words, x -> x IN ({inlist(l)})))::DOUBLE / len(words) "
        f"END AS s_{l}"
        for l in langs
    )
    return f"""
WITH w AS (
  SELECT doc_id, list_transform(regexp_extract_all(text, '\\w+'), x -> lower(x)) AS words
  FROM documents
),
s AS (
  SELECT doc_id,
{scores}
  FROM w
)
SELECT doc_id,
  CASE WHEN greatest(s_en, s_de, s_fr, s_es) < 0.05 THEN 'unknown'
       WHEN s_en >= s_de AND s_en >= s_fr AND s_en >= s_es THEN 'en'
       WHEN s_de >= s_fr AND s_de >= s_es THEN 'de'
       WHEN s_fr >= s_es THEN 'fr' ELSE 'es' END AS lang_pred,
  round(greatest(s_en, s_de, s_fr, s_es), 6) AS lang_score
FROM s ORDER BY doc_id
"""


def doc_fingerprints(sf_dir: str):
    from recon_ray.functions.text import make_fingerprint_batch

    out = (
        _t(sf_dir, "documents")
        .map_batches(make_fingerprint_batch(), batch_format="pyarrow",
                     zero_copy_batch=True)
        .to_pandas()
    )
    out["fingerprint"] = out["fingerprint"].astype("uint64")
    return out.sort_values("doc_id").reset_index(drop=True)


def doc_minhash_dedup(sf_dir: str):
    res = minhash_lsh_dedup(
        _t(sf_dir, "documents").repartition(8), threshold=0.7, concurrency=2
    )
    pairs = res["pairs"][["a", "b"]].copy()
    pairs["a"] = pairs["a"].astype("int64")
    pairs["b"] = pairs["b"].astype("int64")
    return pairs.sort_values(["a", "b"]).reset_index(drop=True)


def doc_minhash_incremental(sf_dir: str):
    """Dedup-at-ingest (functions/minhash_index.py): the documents table
    split by doc_id parity into two arrival shards, ingested in order
    against a fresh persisted index — each shard dedups against
    everything accepted so far via ONE band-bucket join + the
    shuffle-join exact-Jaccard verify, and only novel docs extend the
    index. Deterministic (keep-first by min id, seeded hashes), but the
    index is iterative/stateful → rows-only; exact equality with batch
    keep-first dedup over the union is pinned in
    tests/test_minhash_index.py."""
    import shutil
    import tempfile

    from recon_ray.functions.minhash_index import (
        minhash_index_ingest,
        minhash_index_init,
    )

    docs = _t(sf_dir, "documents").select_columns(["doc_id", "text"])
    even = arrow_filter(
        docs, lambda t: pc.equal(
            pc.bit_wise_and(t["doc_id"], pa.scalar(1, pa.int64())),
            pa.scalar(0, pa.int64())),
    ).repartition(4)
    odd = arrow_filter(
        docs, lambda t: pc.equal(
            pc.bit_wise_and(t["doc_id"], pa.scalar(1, pa.int64())),
            pa.scalar(1, pa.int64())),
    ).repartition(4)
    state = tempfile.mkdtemp(prefix="mh_idx_")
    try:
        minhash_index_init(state, threshold=0.7)
        r1 = minhash_index_ingest(state, even, "even")
        r2 = minhash_index_ingest(state, odd, "odd")
        out = pd.DataFrame({
            "shard": ["even", "odd"],
            "n_new": np.int64([r1["n_new"], r2["n_new"]]),
            "n_novel": np.int64([r1["n_novel"], r2["n_novel"]]),
            "n_dup": np.int64([r1["n_dup"], r2["n_dup"]]),
        })
    finally:
        shutil.rmtree(state, ignore_errors=True)
    return out


def emb_incremental_neardup(sf_dir: str):
    """Exact-cosine dedup-at-ingest (functions/embedding_index.py): the
    embeddings table split by vec_id parity into two arrival shards;
    each shard dedups against the persisted index with the EXACT
    angular triangle bound over stored part metas (recall 1.0 — no
    banding miss), and only novel vectors extend the index. Stateful /
    iterative → rows-only; exact equality with batch embedding_neardup
    + components over the union is pinned in
    tests/test_embedding_index.py."""
    import shutil
    import tempfile

    from recon_ray.functions.embedding_index import (
        embedding_index_ingest,
        embedding_index_init,
    )

    emb = _t(sf_dir, "embeddings").select_columns(["vec_id", "embedding"])
    even = arrow_filter(
        emb, lambda t: pc.equal(
            pc.bit_wise_and(t["vec_id"], pa.scalar(1, pa.int64())),
            pa.scalar(0, pa.int64())),
    ).repartition(4)
    odd = arrow_filter(
        emb, lambda t: pc.equal(
            pc.bit_wise_and(t["vec_id"], pa.scalar(1, pa.int64())),
            pa.scalar(1, pa.int64())),
    ).repartition(4)
    state = tempfile.mkdtemp(prefix="emb_idx_")
    try:
        embedding_index_init(state, threshold=0.98)
        r1 = embedding_index_ingest(state, even, "even")
        r2 = embedding_index_ingest(state, odd, "odd")
        out = pd.DataFrame({
            "shard": ["even", "odd"],
            "n_new": np.int64([r1["n_new"], r2["n_new"]]),
            "n_novel": np.int64([r1["n_novel"], r2["n_novel"]]),
            "n_dup": np.int64([r1["n_dup"], r2["n_dup"]]),
        })
    finally:
        shutil.rmtree(state, ignore_errors=True)
    return out


def doc_common_ngram_pairs(sf_dir: str):
    """Cross-document exact 50-char-substring duplication (Lee et al.
    2022's dedup signal): pairs of docs sharing ≥1 verbatim 50-gram plus
    the count of DISTINCT shared grams. Ray side ships only (u64 rolling
    hash, doc_id) through one hash-bucket shuffle
    (functions.dedup.cross_doc_ngram_dups); the oracle recomputes over the
    raw substrings — identical because distinct windows hash distinctly
    (collision odds ~10⁻⁹ at this scale; the rolling-hash kernel itself
    is brute-force-pinned in tests)."""
    from recon_ray.functions.dedup import cross_doc_ngram_dups

    return cross_doc_ngram_dups(
        _t(sf_dir, "documents").repartition(8), n=50
    )


ORACLE_COMMON_NGRAM = """
WITH grams AS (
  SELECT DISTINCT doc_id, substring(text, i::INT, 50) AS g
  FROM documents,
       LATERAL (SELECT unnest(generate_series(1, length(text) - 49)) AS i) t
),
ok AS (
  SELECT g FROM grams GROUP BY g HAVING count(*) BETWEEN 2 AND 50
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*)::BIGINT AS n_shared
FROM grams a JOIN ok USING (g) JOIN grams b USING (g)
WHERE a.doc_id < b.doc_id
GROUP BY 1, 2 ORDER BY 1, 2
"""


def doc_contamination(sf_dir: str):
    """Benchmark decontamination scan: corpus docs (doc_id % 20 != 0)
    sharing a verbatim 50-gram with any probe doc (doc_id % 20 == 0 — the
    stand-in held-out eval set), with distinct shared-gram counts —
    functions.dedup.ngram_contamination (cross-side-only bucket join,
    corpus-side hot-gram cap)."""
    from recon_ray.functions.dedup import ngram_contamination

    docs = _t(sf_dir, "documents").select_columns(["doc_id", "text"])

    def side(keep_probe: bool):
        def f(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            mask = (ids % 20 == 0) == keep_probe
            return t.filter(pa.array(mask))

        return f

    corpus = docs.map_batches(
        side(False), batch_format="pyarrow", zero_copy_batch=True
    )
    probe = docs.map_batches(
        side(True), batch_format="pyarrow", zero_copy_batch=True
    )
    return ngram_contamination(corpus, probe, n=50)


ORACLE_CONTAMINATION = """
WITH grams AS (
  SELECT DISTINCT doc_id, substring(text, i::INT, 50) AS g
  FROM documents,
       LATERAL (SELECT unnest(generate_series(1, length(text) - 49)) AS i) t
),
c AS (SELECT * FROM grams WHERE doc_id % 20 <> 0),
p AS (SELECT * FROM grams WHERE doc_id % 20 = 0),
ok AS (SELECT g FROM c GROUP BY g HAVING count(*) <= 50)
SELECT c.doc_id AS doc_id, p.doc_id AS probe_id,
       count(*)::BIGINT AS n_shared
FROM c JOIN ok USING (g) JOIN p USING (g)
GROUP BY 1, 2 ORDER BY 1, 2
"""


def doc_ngram_jaccard_dedup(sf_dir: str):
    """Exact n-gram Jaccard near-dup pairs via prefix filtering (exact
    recall, unlike MinHash banding) — functions.dedup.ngram_jaccard_dedup.
    SQL-oracled (ORACLE_NGRAM_JACCARD recomputes Jaccard over distinct
    word-3-gram STRINGS — identical to Jaccard over their sha1 hashes
    because hashing a set preserves distinctness); exactness vs a
    brute-force all-pairs sweep is additionally pinned in
    tests/test_functions.py."""
    from recon_ray.functions.dedup import ngram_jaccard_dedup

    res = ngram_jaccard_dedup(
        _t(sf_dir, "documents").repartition(8), threshold=0.7, k=3
    )
    pairs = res["pairs"][["a", "b", "jaccard"]].copy()
    pairs["a"] = pairs["a"].astype("int64")
    pairs["b"] = pairs["b"].astype("int64")
    pairs["jaccard"] = _round_away(pairs["jaccard"].astype("float64"), 6)
    return pairs.sort_values(["a", "b"]).reset_index(drop=True)


ORACLE_NGRAM_JACCARD = r"""
WITH w AS (
  SELECT doc_id,
         list_transform(regexp_extract_all(text, '\w+'), x -> lower(x)) AS ws
  FROM documents
),
g AS (
  SELECT DISTINCT doc_id, array_to_string(ws[i:i+2], ' ') AS gram
  FROM w, LATERAL (SELECT unnest(generate_series(
    1, greatest(len(ws) - 2, CASE WHEN len(ws) > 0 THEN 1 ELSE 0 END))) AS i) t
),
sz AS (SELECT doc_id, count(*) AS n FROM g GROUP BY doc_id),
inter AS (
  SELECT ga.doc_id AS a, gb.doc_id AS b, count(*) AS c
  FROM g ga JOIN g gb ON ga.gram = gb.gram AND ga.doc_id < gb.doc_id
  GROUP BY 1, 2
)
SELECT a::BIGINT AS a, b::BIGINT AS b,
       round(c * 1.0 / (sa.n + sb.n - c), 6) AS jaccard
FROM inter JOIN sz sa ON sa.doc_id = a JOIN sz sb ON sb.doc_id = b
WHERE c * 1.0 / (sa.n + sb.n - c) >= 0.7
ORDER BY a, b
"""


def doc_dedup_keep_best(sf_dir: str):
    """Near-dup clusters (minhash) → keep-best policy: one keeper per
    cluster by (max token count, min doc_id) — functions.dedup.
    dedup_keep_best. Cluster membership comes from LSH so no SQL oracle;
    the policy invariants are pinned in tests/test_functions.py."""
    from recon_ray.functions.dedup import dedup_keep_best, minhash_lsh_dedup

    docs = _t(sf_dir, "documents").repartition(8)
    res = minhash_lsh_dedup(docs, threshold=0.7)
    kb = dedup_keep_best(docs, res["clusters"])
    out = kb["keep"].copy()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["cluster"] = out["cluster"].astype("int64")
    out["quality"] = out["quality"].astype("int64")
    return out.sort_values(["cluster", "doc_id"]).reset_index(drop=True)


def doc_simhash_dedup(sf_dir: str):
    from recon_ray.functions.dedup import simhash_dedup

    pairs = simhash_dedup(
        _t(sf_dir, "documents").repartition(8), max_hamming=8, concurrency=2
    )
    out = pairs[["a", "b", "hamming"]].copy()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


# ---------------------------------------------------------------------------
# embeddings-table queries (similarity search)
# ---------------------------------------------------------------------------


def _query_vectors(sf_dir: str, n: int = 5):
    emb = _pdf(sf_dir, "embeddings").sort_values("vec_id").head(n)
    return np.stack(emb["embedding"].to_numpy()), emb["vec_id"].tolist()


def knn_exact_top10(sf_dir: str):
    q, qids = _query_vectors(sf_dir, 5)
    out = knn_bruteforce(
        _t(sf_dir, "embeddings").repartition(8), q, k=10, query_ids=qids
    )
    out = out[["query_id", "rank", "vec_id"]].copy()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def knn_int8_top10(sf_dir: str):
    """Brute-force kNN over the int8-QUANTIZED corpus
    (functions.similarity.knn_int8 — 4× less embedding memory in
    flight). Quantization perturbs cosine in the last decimals, so no
    SQL hash oracle; recall ≥0.9 vs the oracled exact search is pinned
    in tests/test_functions.py."""
    from recon_ray.functions.similarity import knn_int8

    q, qids = _query_vectors(sf_dir, 5)
    out = knn_int8(
        _t(sf_dir, "embeddings").repartition(8), q, k=10, query_ids=qids
    )
    out = out[["query_id", "rank", "vec_id"]].copy()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


ORACLE_KNN = """
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qe
  FROM embeddings ORDER BY vec_id LIMIT 5
), s AS (
  SELECT q.query_id, e.vec_id,
         list_cosine_similarity(q.qe, e.embedding) AS c
  FROM q CROSS JOIN embeddings e
), r AS (
  SELECT query_id, vec_id,
         row_number() OVER (PARTITION BY query_id ORDER BY c DESC, vec_id) AS rank
  FROM s
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, vec_id::BIGINT AS vec_id
FROM r WHERE rank <= 10 ORDER BY query_id, rank
"""


def knn_lsh_top10(sf_dir: str):
    q, qids = _query_vectors(sf_dir, 5)
    out = knn_lsh(
        _t(sf_dir, "embeddings").repartition(8), q, k=10, n_bits=6, n_tables=8,
        query_ids=qids,
    )
    out = out[["query_id", "rank", "vec_id"]].copy()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def knn_ivf_top10(sf_dir: str):
    from recon_ray.functions.similarity import knn_ivf

    q, qids = _query_vectors(sf_dir, 5)
    out = knn_ivf(
        _t(sf_dir, "embeddings").repartition(8), q, k=10, n_cells=8,
        nprobe=4, query_ids=qids,
    )
    out = out[["query_id", "rank", "vec_id"]].copy()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def emb_neardup_pairs(sf_dir: str):
    pairs = embedding_neardup(
        _t(sf_dir, "embeddings").repartition(8), threshold=0.5
    )
    out = pairs[["a", "b"]].copy() if len(pairs) else pd.DataFrame(
        {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64")}
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


ORACLE_EMB_NEARDUP = """
SELECT a.vec_id::BIGINT AS a, b.vec_id::BIGINT AS b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.5
ORDER BY a, b
"""


#: centroid quantization scale — ×2^20 is EXACT in floating point (power
#: of two), so floor(e*2^20) yields identical int64 in numpy and DuckDB
EMB_Q = 1 << 20


def emb_label_centroid_norms(sf_dir: str):
    """Grouped vector aggregate: mean embedding per label → L2 norm.

    Determinism (the kmeans int64-quantization pattern, and what makes
    this SQL-oracle-able): elements quantize to floor(e·2^20) int64, the
    per-dimension sums are EXACT integers (order-free across any batch
    partitioning), the squared norm is exact arbitrary-precision integer
    arithmetic, and the only float ops — one sqrt, one division by the
    exactly-representable 2^20·n — are bit-identical on both sides."""
    emb = _t(sf_dir, "embeddings")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        mats = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        q = np.floor(mats * EMB_Q).astype(np.int64)
        g = df.groupby("label", sort=False)
        rows = []
        for lbl, idx in g.indices.items():
            rows.append(
                {
                    "label": int(lbl),
                    "vsum": q[idx].sum(axis=0).tolist(),
                    "n": len(idx),
                }
            )
        return pd.DataFrame(rows)

    parts = emb.map_batches(partial, batch_format="pandas").to_pandas()
    out = []
    for lbl, g in parts.groupby("label"):
        vsum = [int(x) for x in np.sum(
            np.stack(g["vsum"].to_numpy()).astype(object), axis=0
        )]
        n = int(g["n"].sum())
        norm2 = sum(s * s for s in vsum)  # exact python ints
        out.append(
            {
                "label": int(lbl),
                "n_vectors": n,
                "centroid_norm": float(np.sqrt(float(norm2))) / (EMB_Q * n),
            }
        )
    df = pd.DataFrame(out).sort_values("label").reset_index(drop=True)
    df["label"] = df["label"].astype("int64")
    df["n_vectors"] = df["n_vectors"].astype("int64")
    return df


ORACLE_EMB_CENTROID_NORMS = f"""
WITH n AS (
  SELECT label::BIGINT AS label, count(*)::BIGINT AS n_vectors
  FROM embeddings GROUP BY 1
),
u AS (
  SELECT label::BIGINT AS label,
         unnest(embedding) AS e,
         unnest(range(len(embedding))) AS idx
  FROM embeddings
),
s AS (
  SELECT label, idx,
         sum(floor(e::DOUBLE * {EMB_Q})::BIGINT)::HUGEINT AS sd
  FROM u GROUP BY 1, 2
),
n2 AS (SELECT label, sum(sd * sd) AS norm2 FROM s GROUP BY 1)
SELECT n.label, n.n_vectors,
       sqrt(norm2::DOUBLE) / ({EMB_Q}.0 * n.n_vectors) AS centroid_norm
FROM n JOIN n2 USING (label) ORDER BY n.label
"""


def doc_media_features(sf_dir: str):
    """Multimodal plumbing under the driver gate: documents re-shaped as
    opaque binary payloads (MEDIA_SCHEMA) → the ImageFeatureExtractor
    stage (byte-budgeted MM_BATCH_SIZE batches) → payload size + sha256.
    The fake-decode channel stats are not SQL-expressible, but the
    payload provenance IS — DuckDB recomputes octet_length + sha256 over
    the same utf8 bytes, so the oracle proves the binary column survived
    the stage byte-exact."""
    from recon_ray.functions.multimodal import (MM_BATCH_SIZE,
                                                ImageFeatureExtractor)

    docs = _t(sf_dir, "documents")

    def to_media(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "media_id": batch.column("doc_id"),
                "kind": pa.array(["image"] * n),
                "format": pa.array(["raw"] * n),
                "payload": batch.column("text").cast(pa.binary()),
                "width": pa.array([8] * n, pa.int32()),
                "height": pa.array([8] * n, pa.int32()),
                "duration_ms": pa.array([-1] * n, pa.int32()),
            }
        )

    media = docs.map_batches(
        to_media, batch_format="pyarrow", zero_copy_batch=True
    )
    fx = ImageFeatureExtractor()

    def feats(batch: pa.Table) -> pa.Table:
        out = fx(batch)
        return out.append_column(
            "payload_bytes",
            pc.binary_length(batch.column("payload")).cast(pa.int64()),
        )

    out = media.map_batches(
        feats, batch_format="pyarrow", batch_size=MM_BATCH_SIZE
    ).to_pandas()
    out = out[["media_id", "payload_bytes", "payload_sha256"]]
    return out.sort_values("media_id").reset_index(drop=True)


ORACLE_MEDIA_FEATURES = """
SELECT doc_id AS media_id,
       octet_length(encode(text))::BIGINT AS payload_bytes,
       sha256(text) AS payload_sha256
FROM documents ORDER BY doc_id
"""


def media_audio_dominant_bins(sf_dir: str):
    """REAL audio DSP under the oracle gate: 24 deterministic PCM16 WAV
    clips (pure tones at 250·(i+1) Hz, rate 16 kHz), decoded by the
    pure-numpy WAV codec and pushed through the AudioSpectrogram actor
    stage (Hann window, |rfft|², per-bin mean). A bin-aligned tone's
    dominant bin is freq·frame/rate = 4·(i+1) in closed form, so DuckDB
    can oracle the whole decode→FFT→argmax chain without an FFT: the
    SQL computes the physics, the pipeline computes the signal."""
    from recon_ray.functions.multimodal import (MM_BATCH_SIZE,
                                                AudioSpectrogram,
                                                NetpbmBackend, encode_wav)

    rate, frame, n = 16000, 256, 24
    rows = {"media_id": [], "kind": [], "format": [], "payload": [],
            "width": [], "height": [], "duration_ms": []}
    t = np.arange(rate // 2) / rate  # 0.5 s per clip
    for i in range(n):
        wave = np.sin(2 * np.pi * (250 * (i + 1)) * t).astype(np.float32)
        rows["media_id"].append(i)
        rows["kind"].append("audio")
        rows["format"].append("wav")
        rows["payload"].append(encode_wav(wave * 0.5, rate))
        rows["width"].append(-1)
        rows["height"].append(-1)
        rows["duration_ms"].append(len(t) // 16)
    tbl = pa.table({
        "media_id": pa.array(rows["media_id"], pa.int64()),
        "kind": pa.array(rows["kind"]), "format": pa.array(rows["format"]),
        "payload": pa.array(rows["payload"], pa.binary()),
        "width": pa.array(rows["width"], pa.int32()),
        "height": pa.array(rows["height"], pa.int32()),
        "duration_ms": pa.array(rows["duration_ms"], pa.int32()),
    })
    ds = rd.from_arrow(tbl).repartition(4)
    out = ds.map_batches(
        AudioSpectrogram,
        batch_format="pyarrow",
        batch_size=MM_BATCH_SIZE,
        concurrency=2,
        fn_constructor_kwargs={"frame": frame, "backend": NetpbmBackend()},
    ).to_pandas()
    out["dominant_bin"] = out["dominant_bin"].astype("int64")
    out = out[["media_id", "dominant_bin"]]
    return out.sort_values("media_id").reset_index(drop=True)


ORACLE_MEDIA_DOMINANT_BINS = """
SELECT i::BIGINT AS media_id, (4 * (i + 1))::BIGINT AS dominant_bin
FROM generate_series(0, 23) AS s(i) ORDER BY 1
"""


def media_video_luma(sf_dir: str):
    """REAL video container decode under the oracle gate: 20 Y4M
    (YUV4MPEG2) payloads — plain-text header + fixed-size raw C444
    frames, decoded by the pure-numpy Y4MBackend with one O(1) seek per
    sampled frame (stride 3, never a sequential decode). The fixture's
    planes are closed-form (Y[r,c] = (37i + 11k + r + c) mod 256), so
    DuckDB recomputes every sampled frame's exact integer luma sum with
    pure arithmetic: the SQL computes the pattern, the pipeline decodes
    the actual container bytes."""
    import ray.data as _rd

    from recon_ray.functions.multimodal import (MM_BATCH_SIZE,
                                                VideoLumaStats,
                                                synthetic_video_table)

    ds = _rd.from_arrow(synthetic_video_table(20, seed=0))
    out = ds.map_batches(
        VideoLumaStats,
        batch_format="pyarrow",
        batch_size=MM_BATCH_SIZE,
        concurrency=2,
        fn_constructor_kwargs={"stride": 3},
    ).to_pandas()
    return out.sort_values(["media_id", "frame_idx"]).reset_index(drop=True)


ORACLE_MEDIA_VIDEO_LUMA = """
WITH f AS (
  SELECT i, k
  FROM generate_series(0, 19) s(i), generate_series(0, 12) t(k)
  WHERE k < 8 + (i % 5) AND k % 3 = 0
)
SELECT i::BIGINT AS media_id, k::BIGINT AS frame_idx,
       (SELECT sum((i * 37 + k * 11 + r + c) % 256)
        FROM generate_series(0, 23) a(r),
             generate_series(0, 31) b(c))::BIGINT AS y_sum
FROM f ORDER BY 1, 2
"""


ORACLE_MEDIA_GIF_CHANNELS = """
SELECT i::BIGINT AS media_id,
  (SELECT sum((((r + 2*c + i) % 16) * 7) % 256)
   FROM generate_series(0, 31) a(r), generate_series(0, 23) b(c)
   WHERE r < 16 + (i % 3) * 8)::BIGINT AS r_sum,
  (SELECT sum((((r + 2*c + i) % 16) * 13) % 256)
   FROM generate_series(0, 31) a(r), generate_series(0, 23) b(c)
   WHERE r < 16 + (i % 3) * 8)::BIGINT AS g_sum,
  (SELECT sum((((r + 2*c + i) % 16) * 29) % 256)
   FROM generate_series(0, 31) a(r), generate_series(0, 23) b(c)
   WHERE r < 16 + (i % 3) * 8)::BIGINT AS b_sum
FROM generate_series(0, 11) s(i) ORDER BY 1
"""


def media_image_gif_channels(sf_dir: str):
    """REAL GIF decode under the oracle gate: 12 GIF89a payloads
    (longhand LZW — variable code width, early-change growth,
    dictionary resets — global color table), palette index
    idx[r,c] = (r + 2c + i) mod 16 and palette[j] = (7j, 13j, 29j)
    mod 256, pushed through the ImageChannelSums actor stage with the
    real NetpbmBackend. DuckDB recomputes every channel sum by pure
    arithmetic: the SQL computes the pattern, the pipeline decodes the
    actual LZW-compressed bytes — any bit the codec gets wrong moves
    an integer sum."""
    import ray.data as _rd

    from recon_ray.functions.multimodal import (MEDIA_SCHEMA,
                                                MM_BATCH_SIZE,
                                                ImageChannelSums,
                                                NetpbmBackend,
                                                encode_gif)

    rows = {k.name: [] for k in MEDIA_SCHEMA}
    pal = np.stack([(np.arange(16) * 7) % 256,
                    (np.arange(16) * 13) % 256,
                    (np.arange(16) * 29) % 256], axis=1).astype(np.uint8)
    for i in range(12):
        h, w = 16 + (i % 3) * 8, 24
        r = np.arange(h)[:, None]
        c = np.arange(w)[None, :]
        idx = (r + 2 * c + i) % 16
        img = pal[idx]
        rows["media_id"].append(i)
        rows["kind"].append("image")
        rows["format"].append("gif")
        rows["payload"].append(encode_gif(img))
        rows["width"].append(w)
        rows["height"].append(h)
        rows["duration_ms"].append(-1)
    ds = _rd.from_arrow(pa.table(rows, schema=MEDIA_SCHEMA))
    out = ds.map_batches(
        ImageChannelSums,
        batch_format="pyarrow",
        batch_size=MM_BATCH_SIZE,
        concurrency=2,
        fn_constructor_kwargs={"backend": NetpbmBackend()},
    ).to_pandas()
    return out.sort_values("media_id").reset_index(drop=True)


def media_image_png_channels(sf_dir: str):
    """REAL PNG decode under the oracle gate: 15 PNG payloads (stdlib
    zlib DEFLATE, filter i%5 so ALL five scanline filters — None / Sub /
    Up / Average / Paeth — sit under the hash), pixels closed-form
    px[r,c,ch] = (7i + 3r + 5c + 11ch) mod 256, pushed through the
    ImageChannelSums actor stage with the real NetpbmBackend. DuckDB
    recomputes every channel sum by pure arithmetic: the SQL computes
    the pattern, the pipeline decodes the actual compressed bytes."""
    import ray.data as _rd

    from recon_ray.functions.multimodal import (MEDIA_SCHEMA,
                                                MM_BATCH_SIZE,
                                                ImageChannelSums,
                                                NetpbmBackend,
                                                encode_png)

    rows = {k.name: [] for k in MEDIA_SCHEMA}
    for i in range(15):
        h, w = 16 + (i % 3) * 8, 32
        r = np.arange(h)[:, None, None]
        c = np.arange(w)[None, :, None]
        ch = np.arange(3)[None, None, :]
        img = ((7 * i + 3 * r + 5 * c + 11 * ch) % 256).astype(np.uint8)
        rows["media_id"].append(i)
        rows["kind"].append("image")
        rows["format"].append("png")
        rows["payload"].append(encode_png(img, filter_id=i % 5))
        rows["width"].append(w)
        rows["height"].append(h)
        rows["duration_ms"].append(-1)
    ds = _rd.from_arrow(pa.table(rows, schema=MEDIA_SCHEMA))
    out = ds.map_batches(
        ImageChannelSums,
        batch_format="pyarrow",
        batch_size=MM_BATCH_SIZE,
        concurrency=2,
        fn_constructor_kwargs={"backend": NetpbmBackend()},
    ).to_pandas()
    return out.sort_values("media_id").reset_index(drop=True)


ORACLE_MEDIA_PNG_CHANNELS = """
WITH img AS (
  SELECT i, 16 + (i % 3) * 8 AS h FROM generate_series(0, 14) s(i)
)
SELECT i::BIGINT AS media_id,
       sum((7 * i + 3 * r + 5 * c) % 256)::BIGINT AS r_sum,
       sum((7 * i + 3 * r + 5 * c + 11) % 256)::BIGINT AS g_sum,
       sum((7 * i + 3 * r + 5 * c + 22) % 256)::BIGINT AS b_sum
FROM img, generate_series(0, 31) b(c), generate_series(0, 31) a(r)
WHERE r < h
GROUP BY i ORDER BY i
"""


def media_image_jpeg_channels(sf_dir: str):
    """REAL baseline JPEG decode under the oracle gate: 10 JFIF
    payloads from the pure-numpy T.81 encoder (DCT, Annex K tables,
    Huffman bitstream, byte stuffing; odd ids add DRI/RSTn restart
    markers), each 24x24 gray with CONSTANT 8x8 blocks
    v_b = 128 + 2*(((i*7 + b*13) % 61) - 30). Constant blocks carry
    only a DC coefficient, and the even offsets make its quantization
    at quality 50 (q0 = 16) an exact identity — so the lossy codec
    reconstructs every pixel EXACTLY and DuckDB can replay the channel
    sums in closed form: the SQL computes the pattern, the pipeline
    Huffman-decodes the actual compressed scan. General (AC) content
    is covered by round-trip PSNR bounds in tests/test_codecs.py."""
    import ray.data as _rd

    from recon_ray.functions.multimodal import (MEDIA_SCHEMA,
                                                MM_BATCH_SIZE,
                                                ImageChannelSums,
                                                NetpbmBackend,
                                                encode_jpeg)

    rows = {k.name: [] for k in MEDIA_SCHEMA}
    blockmap = (3 * (np.arange(24)[:, None] // 8)
                + np.arange(24)[None, :] // 8)
    for i in range(10):
        vb = (128 + 2 * (((i * 7 + np.arange(9) * 13) % 61) - 30)
              ).astype(np.uint8)
        img = np.repeat(vb[blockmap][..., None], 3, axis=2)
        rows["media_id"].append(i)
        rows["kind"].append("image")
        rows["format"].append("jpeg")
        rows["payload"].append(encode_jpeg(
            img, quality=50, subsample="444",
            restart_interval=2 if i % 2 else 0))
        rows["width"].append(24)
        rows["height"].append(24)
        rows["duration_ms"].append(-1)
    ds = _rd.from_arrow(pa.table(rows, schema=MEDIA_SCHEMA))
    out = ds.map_batches(
        ImageChannelSums,
        batch_format="pyarrow",
        batch_size=MM_BATCH_SIZE,
        concurrency=2,
        fn_constructor_kwargs={"backend": NetpbmBackend()},
    ).to_pandas()
    return out.sort_values("media_id").reset_index(drop=True)


ORACLE_MEDIA_JPEG_CHANNELS = """
SELECT i::BIGINT AS media_id,
       sum(64 * (128 + 2 * (((i*7 + b*13) % 61) - 30)))::BIGINT AS r_sum,
       sum(64 * (128 + 2 * (((i*7 + b*13) % 61) - 30)))::BIGINT AS g_sum,
       sum(64 * (128 + 2 * (((i*7 + b*13) % 61) - 30)))::BIGINT AS b_sum
FROM generate_series(0, 9) s(i), generate_series(0, 8) t(b)
GROUP BY i ORDER BY 1
"""


def media_image_progressive_jpeg_channels(sf_dir: str):
    """REAL progressive JPEG (SOF2) decode under the oracle gate —
    closes the round-4 seam: 10 payloads from the pure-numpy
    progressive encoder (spectral selection, successive approximation,
    EOB runs; the IJG-style 10-scan script), same constant-8x8-block
    images as media_image_jpeg_channels, so quantization is exact and
    DuckDB replays the channel sums in closed form. The decoder walks
    every Annex G scan kind (DC first/refine interleaved, AC
    first/refine with EOBRUN); general AC content is pinned
    pixel-identical to the baseline decode in tests/test_codecs.py."""
    import ray.data as _rd

    from recon_ray.functions.multimodal import (MEDIA_SCHEMA,
                                                MM_BATCH_SIZE,
                                                ImageChannelSums,
                                                NetpbmBackend,
                                                encode_jpeg_progressive)

    rows = {k.name: [] for k in MEDIA_SCHEMA}
    blockmap = (3 * (np.arange(24)[:, None] // 8)
                + np.arange(24)[None, :] // 8)
    for i in range(10):
        vb = (128 + 2 * (((i * 7 + np.arange(9) * 13) % 61) - 30)
              ).astype(np.uint8)
        img = np.repeat(vb[blockmap][..., None], 3, axis=2)
        rows["media_id"].append(i)
        rows["kind"].append("image")
        rows["format"].append("jpeg")
        rows["payload"].append(encode_jpeg_progressive(img, quality=50))
        rows["width"].append(24)
        rows["height"].append(24)
        rows["duration_ms"].append(-1)
    ds = _rd.from_arrow(pa.table(rows, schema=MEDIA_SCHEMA))
    out = ds.map_batches(
        ImageChannelSums,
        batch_format="pyarrow",
        batch_size=MM_BATCH_SIZE,
        concurrency=2,
        fn_constructor_kwargs={"backend": NetpbmBackend()},
    ).to_pandas()
    return out.sort_values("media_id").reset_index(drop=True)


ORACLE_MEDIA_PROG_JPEG_CHANNELS = ORACLE_MEDIA_JPEG_CHANNELS


def media_image_neardup(sf_dir: str):
    """Image near-duplicate pairs over REAL encoded PPM payloads:
    deterministic base images plus planted one-pixel perturbations →
    per-image 64-bit perceptual dHash (ImagePHash actor pool, pure-numpy
    decode) → banded Hamming LSH (dedup.hash64_neardup_pairs — only
    (media_id, phash) rides the shuffle, payloads never do). Each planted
    pair (2i, 2i+1) must surface; unrelated random images must not. The
    hash itself is not SQL-expressible (rows-only gate); the planted-pair
    recovery is asserted exactly in tests/test_codecs.py."""
    from recon_ray.functions.multimodal import (MEDIA_SCHEMA, NetpbmBackend,
                                                encode_ppm,
                                                image_neardup_pairs)

    rng = np.random.RandomState(1234)
    rows = {k.name: [] for k in MEDIA_SCHEMA}
    mid = 0
    for i in range(12):
        base = rng.randint(0, 256, (24, 24, 3)).astype(np.uint8)
        near = base.copy()
        near[(i * 3) % 24, (i * 7) % 24] ^= 0xFF
        for img in (base, near):
            rows["media_id"].append(mid)
            mid += 1
            rows["kind"].append("image")
            rows["format"].append("ppm")
            rows["payload"].append(encode_ppm(img))
            rows["width"].append(24)
            rows["height"].append(24)
            rows["duration_ms"].append(-1)
    tbl = pa.table(rows, schema=MEDIA_SCHEMA)
    ds = rd.from_arrow(tbl).repartition(4)
    out = image_neardup_pairs(ds, max_hamming=6, backend=NetpbmBackend())
    out["a"] = out["a"].astype("int64")
    out["b"] = out["b"].astype("int64")
    out["hamming"] = out["hamming"].astype("int64")
    return out.reset_index(drop=True)


def emb_kmeans_clusters(sf_dir: str):
    """Distributed spherical k-means (Lloyd's, streaming partial-sum
    passes — functions.similarity.kmeans) → per-cluster size and mean
    cosine. Iterative, so no SQL oracle; determinism and convergence are
    pinned in tests/test_functions.py."""
    from recon_ray.functions.similarity import kmeans

    res = kmeans(_t(sf_dir, "embeddings"), k=8, n_iter=5, seed=99)
    out = pd.DataFrame(
        {
            "cluster": np.arange(len(res["sizes"]), dtype=np.int64),
            "size": res["sizes"].astype("int64"),
            "mean_cosine": _round_away(res["mean_cosine"], 6),
        }
    )
    return out.sort_values("cluster").reset_index(drop=True)


def emb_logreg_train(sf_dir: str):
    """Distributed multinomial logistic regression on (embedding → label)
    via deterministic quantized full-batch GD (functions.ml.fit_logreg),
    then a broadcast-weights scoring pass. Iterative training → no SQL
    oracle; bit-identity to the sequential math is pinned in
    tests/test_ml.py. Returns per-class prediction counts + accuracy."""
    from recon_ray.functions.ml import fit_logreg, predict_proba

    emb = _t(sf_dir, "embeddings")
    res = fit_logreg(emb, label_col="label", emb_col="embedding", n_iter=15)
    scored = predict_proba(emb, res["weights"]).to_pandas()
    out = (
        scored.assign(correct=(scored["pred"] == scored["label"]).astype(int))
        .groupby("pred")
        .agg(n=("vec_id", "size"), n_correct=("correct", "sum"))
        .reset_index()
    )
    out["n"] = out["n"].astype("int64")
    out["n_correct"] = out["n_correct"].astype("int64")
    out["train_accuracy"] = _round_away(
        np.full(len(out), res["accuracy"]), 6
    )
    return out.sort_values("pred").reset_index(drop=True)


def emb_pca_variance(sf_dir: str):
    """Distributed PCA over the embeddings table (functions.ml.fit_pca):
    one streaming pass of per-row-quantized covariance partials → driver
    eigendecomposition. Bit-identical under any layout (tests/test_ml.py);
    eigendecomposition is iterative → no SQL oracle. Returns per-component
    explained variance."""
    from recon_ray.functions.ml import fit_pca

    res = fit_pca(_t(sf_dir, "embeddings"), n_components=8)
    out = pd.DataFrame(
        {"component": np.arange(len(res["explained_variance"]),
                                dtype=np.int64),
         "explained_variance": _round_away(res["explained_variance"], 9),
         "explained_ratio": _round_away(res["explained_ratio"], 9)}
    )
    return out


def emb_semdedup(sf_dir: str):
    """SemDeDup (Abbas et al. 2023): k-means buckets + within-cluster
    greedy cosine dedup at τ=0.99, keep-lowest-id
    (functions.dedup.semdedup). k-means is iterative → no SQL oracle; the
    greedy rule, planted-dup recall and layout invariance are pinned in
    tests/test_semdedup.py. Returns per-cluster (n, n_kept)."""
    from recon_ray.functions.dedup import semdedup

    flags = semdedup(_t(sf_dir, "embeddings"), k=8, threshold=0.99, seed=99)
    out = (
        flags.groupby("cluster")
        .agg(n=("vec_id", "size"), n_kept=("keep", "sum"))
        .reset_index()
    )
    out["n"] = out["n"].astype("int64")
    out["n_kept"] = out["n_kept"].astype("int64")
    return out.sort_values("cluster").reset_index(drop=True)


EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def q_events_pivot_day_type(sf_dir: str):
    """Pivot / crosstab (functions.relational.pivot_agg): one row per day,
    one count column per event type. The only data pass is a combiner
    groupby on (day, type); categories pinned so the schema is stable at
    every scale. Oracle = conditional aggregation (count FILTER)."""
    from recon_ray.functions.relational import pivot_agg

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {"day": pc.strftime(t.column("ts"), format="%Y-%m-%d"),
             "event_type": t.column("event_type")}
        )

    ds = _t(sf_dir, "events").select_columns(["ts", "event_type"]).map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True
    )
    out = pivot_agg(ds, "day", "event_type", agg="count",
                    categories=EVENT_TYPES)
    for c in EVENT_TYPES:
        out[c] = out[c].astype("int64")
    return out.sort_values("day").reset_index(drop=True)


ORACLE_EVENTS_PIVOT = """
SELECT strftime(ts, '%Y-%m-%d') AS day,
       count(*) FILTER (event_type = 'click')    AS click,
       count(*) FILTER (event_type = 'error')    AS error,
       count(*) FILTER (event_type = 'purchase') AS purchase,
       count(*) FILTER (event_type = 'signup')   AS signup,
       count(*) FILTER (event_type = 'view')     AS view
FROM events GROUP BY 1 ORDER BY 1
"""


def q_events_user_top_type(sf_dir: str):
    """Per-group mode (functions.relational.grouped_mode): each user's
    most frequent event type, ties to the lexicographically smallest
    type. Combiner (user, type) counts → one key shuffle → vectorized
    argmax per hash bucket. Oracle = row_number window."""
    from recon_ray.functions.relational import grouped_mode

    out = grouped_mode(
        _t(sf_dir, "events").select_columns(["user_id", "event_type"]),
        "user_id", "event_type", alias="top_type",
    ).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


ORACLE_EVENTS_USER_TOP_TYPE = """
SELECT user_id, event_type AS top_type, c AS mode_count FROM (
  SELECT user_id, event_type, count(*) AS c,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY count(*) DESC, event_type ASC) AS rn
  FROM events GROUP BY 1, 2
) WHERE rn = 1 ORDER BY user_id
"""


def q_customer_order_counts_outer(sf_dir: str):
    """LEFT OUTER hash join (functions.relational.shuffle_join →
    Dataset.join left_outer): every customer with its order count,
    zero-order customers preserved with count 0. The per-customer counts
    pre-aggregate (combiner) before the join, so the join's right side is
    keys-sized."""
    from ray.data.aggregate import Sum

    from recon_ray.functions.relational import shuffle_join, to_table

    cust = _t(sf_dir, "customer").select_columns(
        ["c_custkey", "c_mktsegment"]
    )
    counts = (
        _t(sf_dir, "orders")
        .select_columns(["o_custkey"])
        .map_batches(
            lambda b: b.groupby("o_custkey", sort=False)
            .size()
            .rename("__c")
            .reset_index(),
            batch_format="pandas",
        )
        .groupby("o_custkey")
        .aggregate(Sum("__c", alias_name="__c"))
    )
    out = to_table(shuffle_join(
        cust, counts, on="c_custkey", right_on="o_custkey", how="left_outer"
    )).to_pandas()
    out["order_count"] = out["__c"].fillna(0).astype("int64")
    out = out[["c_custkey", "c_mktsegment", "order_count"]]
    out["c_custkey"] = out["c_custkey"].astype("int64")
    return out.sort_values("c_custkey").reset_index(drop=True)


ORACLE_CUSTOMER_ORDER_COUNTS_OUTER = """
SELECT c.c_custkey, c.c_mktsegment,
       coalesce(o.cnt, 0) AS order_count
FROM customer c
LEFT JOIN (SELECT o_custkey, count(*) AS cnt FROM orders GROUP BY 1) o
  ON o.o_custkey = c.c_custkey
ORDER BY c.c_custkey
"""


def q_events_type_cms(sf_dir: str):
    """Count-Min sketch (functions.sketches.count_min_partials, Cormode &
    Muthukrishnan 2005): per-batch depth×width int64 partial matrices,
    merged by elementwise sum. event_type has 5 distinct values and the
    fixed seeds give them collision-free cells at width 2048, so the
    point estimates are EXACT and the oracle is a plain GROUP BY count —
    a sketch query under the full hash gate (unlike HLL, whose estimate
    is inherently approximate)."""
    from recon_ray.functions.sketches import (
        count_min_estimate,
        count_min_partials,
    )

    sk = count_min_partials(
        _t(sf_dir, "events").select_columns(["event_type"]), "event_type"
    )
    out = count_min_estimate(sk, EVENT_TYPES)
    out = out.rename(columns={"value": "event_type"})
    out["estimate"] = out["estimate"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


ORACLE_EVENTS_TYPE_CMS = """
SELECT event_type, count(*) AS estimate
FROM events GROUP BY 1 ORDER BY 1
"""


def q_events_user_skew(sf_dir: str):
    """Key-skew profile (functions.relational.key_profile) on user_id —
    the pre-flight check before keying a shuffle on a column at scale:
    exact top-10 heavy keys with integer-ppm shares, plus global
    n_rows/n_keys stamped on every row. Counts pre-aggregate per batch;
    the top-k merge never moves the full key table to one place out of
    order (local top-k under the exact final total order)."""
    from recon_ray.functions.relational import key_profile

    prof = key_profile(
        _t(sf_dir, "events").select_columns(["user_id"]), "user_id", k=10
    )
    out = prof["top"].copy()
    out["user_id"] = out["user_id"].astype("int64")
    out["n_rows"] = np.int64(prof["n_rows"])
    out["n_keys"] = np.int64(prof["n_keys"])
    return out[["user_id", "count", "share_ppm", "n_rows", "n_keys"]]


ORACLE_EVENTS_USER_SKEW = """
WITH c AS (SELECT user_id, count(*) AS cnt FROM events GROUP BY 1),
tot AS (SELECT CAST(sum(cnt) AS BIGINT) AS n_rows,
               CAST(count(*) AS BIGINT) AS n_keys FROM c)
SELECT user_id, CAST(cnt AS BIGINT) AS count,
       CAST(cnt * 1000000 // t.n_rows AS BIGINT) AS share_ppm,
       t.n_rows AS n_rows, t.n_keys AS n_keys
FROM c, tot t
ORDER BY cnt DESC, user_id ASC
LIMIT 10
"""


def doc_dsir_weights(sf_dir: str):
    """DSIR importance weights (functions/dsir.py, Xie et al. 2023):
    target = lang='en' documents, features = unigram words; weight(doc) =
    Σ ln(p_target(w)/p_raw(w)) with add-1 smoothing over the raw vocab.
    Two distributed count passes + one broadcast scoring pass; the oracle
    replays the exact smoothing rule in SQL."""
    from recon_ray.functions.dsir import make_dsir_scorer, train_dsir

    docs = _t(sf_dir, "documents").select_columns(
        ["doc_id", "text", "lang"]
    )
    model = train_dsir(docs, lambda b: b["lang"] == "en")
    import ray as _ray

    ref = _ray.put(model)
    out = (
        docs.map_batches(make_dsir_scorer(ref), batch_format="pandas")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_words"] = out["n_words"].astype("int64")
    return out


ORACLE_DOC_DSIR = r"""
WITH w AS (
  SELECT doc_id, lang,
         list_transform(regexp_extract_all(text, '\w+'), x -> lower(x)) AS ws
  FROM documents
),
tok AS (SELECT doc_id, unnest(ws) AS w FROM w),
tgt AS (SELECT doc_id, unnest(ws) AS w FROM w WHERE lang = 'en'),
rc AS (SELECT w, count(*) AS c FROM tok GROUP BY 1),
tc AS (SELECT w, count(*) AS c FROM tgt GROUP BY 1),
nv AS (
  SELECT (SELECT count(*) FROM rc) AS v,
         (SELECT count(*) FROM tok) AS n_raw,
         (SELECT count(*) FROM tgt) AS n_tgt
),
lr AS (
  SELECT rc.w,
         ln((coalesce(tc.c, 0) + 1.0) / (nv.n_tgt + nv.v))
           - ln((rc.c + 1.0) / (nv.n_raw + nv.v)) AS lr
  FROM rc LEFT JOIN tc USING (w), nv
),
doc AS (
  SELECT t.doc_id, count(*) AS n_words, sum(l.lr) AS s
  FROM tok t JOIN lr l ON l.w = t.w
  GROUP BY 1
)
SELECT w.doc_id, coalesce(d.n_words, 0) AS n_words,
       round(coalesce(d.s, 0), 6) AS dsir_weight
FROM w LEFT JOIN doc d USING (doc_id)
ORDER BY w.doc_id
"""



def q_events_props_k_by_type(sf_dir: str):
    """JSON column extraction (functions/jsonx.py): parse the props JSON
    string into a typed int column in a streaming stage, then a combiner
    groupby. Oracle = DuckDB json_extract over the same payloads."""
    from recon_ray.functions.jsonx import json_extract_cols

    ev = json_extract_cols(
        _t(sf_dir, "events").select_columns(["event_type", "props"]),
        "props", {"k": "int64"},
    )
    g = grouped_agg(ev, "event_type", {"k": ["sum", "max", "count"]})
    out = pd.DataFrame(
        {"event_type": g["event_type"],
         "k_sum": g["k_sum"].astype("int64"),
         "k_max": g["k_max"].astype("int64"),
         "n": g["k_count"].astype("int64")}
    )
    return out.sort_values("event_type").reset_index(drop=True)


ORACLE_EVENTS_PROPS_K = """
SELECT event_type,
       sum(CAST(json_extract_string(props, '$.k') AS BIGINT))::BIGINT AS k_sum,
       max(CAST(json_extract_string(props, '$.k') AS BIGINT))::BIGINT AS k_max,
       count(json_extract_string(props, '$.k'))::BIGINT AS n
FROM events GROUP BY 1 ORDER BY 1
"""


def q12_priority_by_linestatus(sf_dir: str):
    """TPC-H Q12 shape: per-(orderkey, linestatus) lineitem counts
    pre-aggregate in a combiner (keys-sized table), THEN the large-large
    hash join with orders, then conditional high/low-priority sums — the
    join never moves raw lineitem rows, only pair counts."""
    from ray.data.aggregate import Sum

    from recon_ray.functions.relational import shuffle_join

    li = (
        _t(sf_dir, "lineitem")
        .select_columns(["l_orderkey", "l_linestatus"])
        .map_batches(
            lambda b: b.groupby(["l_orderkey", "l_linestatus"], sort=False)
            .size().rename("__c").reset_index(),
            batch_format="pandas",
        )
        .groupby(["l_orderkey", "l_linestatus"])
        .aggregate(Sum("__c", alias_name="__c"))
    )
    orders = _t(sf_dir, "orders").select_columns(
        ["o_orderkey", "o_orderpriority"]
    )
    j = shuffle_join(li, orders, on="l_orderkey", right_on="o_orderkey")

    def split(t: pa.Table) -> pa.Table:
        hi = pc.is_in(t.column("o_orderpriority"),
                      value_set=pa.array(["1-URGENT", "2-HIGH"]))
        c = t.column("__c")
        zero = pa.scalar(0, pa.int64())
        return pa.table(
            {"l_linestatus": t.column("l_linestatus"),
             "high_count": pc.if_else(hi, c, zero),
             "low_count": pc.if_else(hi, zero, c)}
        )

    g = grouped_agg(
        j.map_batches(split, batch_format="pyarrow",
                      zero_copy_batch=True),
        "l_linestatus", {"high_count": ["sum"], "low_count": ["sum"]},
    )
    out = pd.DataFrame(
        {"l_linestatus": g["l_linestatus"],
         "high_count": g["high_count_sum"].astype("int64"),
         "low_count": g["low_count_sum"].astype("int64")}
    )
    return out.sort_values("l_linestatus").reset_index(drop=True)


ORACLE_Q12 = """
SELECT l_linestatus,
       count(*) FILTER (o_orderpriority IN ('1-URGENT','2-HIGH'))::BIGINT
         AS high_count,
       count(*) FILTER (o_orderpriority NOT IN ('1-URGENT','2-HIGH'))::BIGINT
         AS low_count
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY 1 ORDER BY 1
"""


def q14_promo_revenue_share(sf_dir: str):
    """TPC-H Q14 shape: broadcast the part dimension into lineitem,
    integer-cent revenue split by p_type = 'PROMO'; the share divides two
    exact int64 sums, so the ratio is bit-identical to the oracle."""
    li = _t(sf_dir, "lineitem").select_columns(
        ["l_partkey", "l_extendedprice", "l_discount"]
    )
    part = _pdf(sf_dir, "part")[["p_partkey", "p_type"]]
    j = broadcast_join(li, part, on="l_partkey", small_on="p_partkey")

    def rev(t: pa.Table) -> pa.Table:
        t = _add_revenue_part(t)
        promo = pc.equal(t.column("p_type"), pa.scalar("PROMO"))
        zero = pa.scalar(0, pa.int64())
        return pa.table(
            {"promo_part": pc.if_else(promo, t.column("revenue_part"), zero),
             "revenue_part": t.column("revenue_part")}
        )

    from ray.data.aggregate import Sum

    g = j.map_batches(rev, batch_format="pyarrow").aggregate(
        Sum("promo_part", alias_name="promo_part_sum"),
        Sum("revenue_part", alias_name="revenue_part_sum"),
    )
    promo_c = int(g["promo_part_sum"])
    total_c = int(g["revenue_part_sum"])
    return pd.DataFrame(
        {"promo_revenue": [float(_round_away(promo_c / 10000.0, 2))],
         "total_revenue": [float(_round_away(total_c / 10000.0, 2))],
         "promo_share_pct": [float(_round_away(100.0 * promo_c / total_c, 6))]}
    )


ORACLE_Q14 = """
WITH r AS (
  SELECT CASE WHEN p_type = 'PROMO'
              THEN round(l_extendedprice * 100)::BIGINT
                   * (100 - round(l_discount * 100)::BIGINT) ELSE 0 END
           AS promo_part,
         round(l_extendedprice * 100)::BIGINT
           * (100 - round(l_discount * 100)::BIGINT) AS revenue_part
  FROM lineitem JOIN part ON l_partkey = p_partkey
)
SELECT round(sum(promo_part) / 10000.0, 2) AS promo_revenue,
       round(sum(revenue_part) / 10000.0, 2) AS total_revenue,
       round(100.0 * sum(promo_part) / sum(revenue_part), 6)
         AS promo_share_pct
FROM r
"""


def q18_large_orders(sf_dir: str):
    """TPC-H Q18 shape (group-HAVING + join chain): per-order quantity
    sums pre-aggregate in a combiner, the HAVING filter prunes to the
    few large orders BEFORE any join, then the orders/customer dims
    broadcast in. Top-100 by (o_totalprice desc, o_orderkey asc)."""
    from ray.data.aggregate import Sum

    qty = (
        _t(sf_dir, "lineitem")
        .select_columns(["l_orderkey", "l_quantity"])
        .map_batches(
            lambda b: b.groupby("l_orderkey", sort=False)["l_quantity"]
            .sum().rename("sum_qty").reset_index(),
            batch_format="pandas",
        )
        .groupby("l_orderkey")
        .aggregate(Sum("sum_qty", alias_name="sum_qty"))
    )
    qty = arrow_filter(qty, lambda t: pc.greater(t.column("sum_qty"), 200))
    dim = (
        _pdf(sf_dir, "orders")[
            ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
        ]
        .merge(
            _pdf(sf_dir, "customer")[["c_custkey", "c_name"]],
            left_on="o_custkey", right_on="c_custkey",
        )
    )
    j = broadcast_join(qty, dim, on="l_orderkey", small_on="o_orderkey")
    out = j.to_pandas()
    out["sum_qty"] = _round_away(out["sum_qty"], 2)
    out = out.sort_values(
        ["o_totalprice", "o_orderkey"], ascending=[False, True],
        kind="mergesort",
    ).head(100)
    return out[
        ["c_name", "c_custkey", "o_orderkey", "o_orderdate",
         "o_totalprice", "sum_qty"]
    ].reset_index(drop=True)


ORACLE_Q18 = """
SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
       round(sum(l_quantity), 2) AS sum_qty
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
              JOIN customer ON o_custkey = c_custkey
GROUP BY 1, 2, 3, 4, 5
HAVING sum(l_quantity) > 200
ORDER BY o_totalprice DESC, o_orderkey ASC
LIMIT 100
"""


def q_events_user_bloom(sf_dir: str):
    """Bloom membership (functions.sketches.bloom_partials, OR-merged
    per-batch bit arrays): probe user_ids 0-9, all present in every
    scale's events table — the no-false-negative guarantee makes every
    answer exactly True, so the probe IS hash-oracled (the FPR side is
    pytest-bounded on absent probes)."""
    from recon_ray.functions.sketches import bloom_contains, bloom_partials

    sk = bloom_partials(
        _t(sf_dir, "events").select_columns(["user_id"]), "user_id"
    )
    out = bloom_contains(sk, list(range(10)))
    out = out.rename(columns={"value": "user_id"})
    out["user_id"] = out["user_id"].astype("int64")
    out["present"] = out["present"].astype(bool)
    return out.sort_values("user_id").reset_index(drop=True)


ORACLE_EVENTS_USER_BLOOM = """
SELECT DISTINCT user_id, true AS present
FROM events WHERE user_id BETWEEN 0 AND 9 ORDER BY 1
"""



def q_events_above_type_mean(sf_dir: str):
    """Skew-aware join (functions.relational.skew_join): every event_type
    holds ~20% of rows, so ALL keys profile as hot and the join runs
    entirely on the broadcast path — no hot key ever crosses a shuffle
    (the cold path handles the long tail when one exists). Above-mean is
    decided by the exact integer rule value_cents·n > sum_cents, so the
    boundary can't flip between engines."""
    from ray.data.aggregate import Count, Sum

    from recon_ray.functions.relational import skew_join

    ev = _t(sf_dir, "events").select_columns(["event_type", "value"])

    def cents(t: pa.Table) -> pa.Table:
        return t.append_column("value_c", _cents_arrow(t.column("value")))

    evc = ev.map_batches(cents, batch_format="pyarrow")
    stats = (
        evc.groupby("event_type")
        .aggregate(Sum("value_c", alias_name="sum_c"),
                   Count(alias_name="n"))
        .map_batches(
            lambda t: t.rename_columns(
                ["t_type" if c == "event_type" else c
                 for c in t.column_names]),
            batch_format="pyarrow", zero_copy_batch=True,
        )
    )
    j = skew_join(evc, stats, on="event_type", right_on="t_type",
                  hot_share_ppm=50_000)

    def above(b: pd.DataFrame) -> pd.DataFrame:
        hi = b["value_c"].astype("int64") * b["n"].astype("int64") \
             > b["sum_c"].astype("int64")
        return pd.DataFrame(
            {"event_type": b["event_type"],
             "above": hi.astype("int64"),
             "one": np.ones(len(b), dtype="int64")}
        )

    g = grouped_agg(j.map_batches(above, batch_format="pandas"),
                    "event_type", {"above": ["sum"], "one": ["sum"]})
    out = pd.DataFrame(
        {"event_type": g["event_type"],
         "n_above_mean": g["above_sum"].astype("int64"),
         "n_events": g["one_sum"].astype("int64")}
    )
    return out.sort_values("event_type").reset_index(drop=True)


ORACLE_EVENTS_ABOVE_TYPE_MEAN = """
WITH c AS (
  SELECT event_type, floor(value * 100 + 0.5)::BIGINT AS value_c
  FROM events
),
s AS (
  SELECT event_type, sum(value_c) AS sum_c, count(*) AS n
  FROM c GROUP BY 1
)
SELECT c.event_type,
       count(*) FILTER (c.value_c * s.n > s.sum_c)::BIGINT AS n_above_mean,
       count(*)::BIGINT AS n_events
FROM c JOIN s USING (event_type)
GROUP BY 1 ORDER BY 1
"""



def doc_editdist_pairs(sf_dir: str):
    """Fuzzy (edit-distance) near-duplicate pairs
    (functions.dedup.edit_distance_pairs): bounded byte-level Levenshtein
    over 48-char text keys, blocked by (lang, 8-char prefix) — the
    blocking rule is exact and replayed verbatim by the SQL oracle, and
    the DP is byte-identical to DuckDB's levenshtein."""
    from recon_ray.functions.dedup import edit_distance_pairs

    out = edit_distance_pairs(
        _t(sf_dir, "documents").select_columns(["doc_id", "text", "lang"]),
        text_col="text", id_col="doc_id", group_col="lang",
        key_len=48, block_len=8, max_dist=5,
    ).to_pandas()
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


ORACLE_DOC_EDITDIST = """
WITH k AS (
  SELECT doc_id, lang, substr(text, 1, 48) AS key,
         substr(text, 1, 8) AS blk
  FROM documents
)
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       levenshtein(a.key, b.key)::BIGINT AS dist
FROM k a JOIN k b
  ON a.lang = b.lang AND a.blk = b.blk AND a.doc_id < b.doc_id
WHERE levenshtein(a.key, b.key) <= 5
ORDER BY 1, 2
"""


def part_jw_name_pairs(sf_dir: str):
    """Jaro-Winkler linkage pairs over the distinct part names
    (functions.dedup.jw_name_pairs): byte-level JW byte-exact vs DuckDB's
    jaro_winkler_similarity (kernel fuzzed at 1e-12), blocked by the
    first name token — the blocking rule and the 6-dp integer rounding
    are replayed verbatim by the SQL oracle."""
    from recon_ray.functions.dedup import jw_name_pairs

    out = jw_name_pairs(
        _t(sf_dir, "part").select_columns(["p_name"]),
        text_col="p_name", min_sim6=600000,
    ).to_pandas()
    return out.sort_values(["name_a", "name_b"]).reset_index(drop=True)


ORACLE_PART_JW = """
WITH names AS (SELECT DISTINCT p_name FROM part)
SELECT a.p_name AS name_a, b.p_name AS name_b,
       CAST(round(jaro_winkler_similarity(a.p_name, b.p_name) * 1000000)
            AS BIGINT) AS jw6
FROM names a JOIN names b
  ON split_part(a.p_name, ' ', 1) = split_part(b.p_name, ' ', 1)
 AND a.p_name < b.p_name
WHERE round(jaro_winkler_similarity(a.p_name, b.p_name) * 1000000) >= 600000
ORDER BY 1, 2
"""


def doc_entity_resolution(sf_dir: str):
    """Within-table entity resolution (functions.dedup.entity_resolution):
    blocking → bounded-Levenshtein verify → connected components over the
    match graph → canonical min-id per cluster, emitted for EVERY row
    (singletons canon to themselves, size 1). The oracle replays the
    identical blocking + levenshtein pair rule and closes the match graph
    with a recursive min-label CTE — so the component structure itself is
    under the hash gate, not just the pair table."""
    from recon_ray.functions.dedup import entity_resolution

    out = entity_resolution(
        _t(sf_dir, "documents").select_columns(["doc_id", "text", "lang"]),
        text_col="text", id_col="doc_id", group_col="lang",
        key_len=48, block_len=8, max_dist=5,
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


ORACLE_DOC_ENTITY_RESOLUTION = """
WITH RECURSIVE k AS MATERIALIZED (
  SELECT doc_id, lang, substr(text, 1, 48) AS key,
         substr(text, 1, 8) AS blk
  FROM documents
), p AS MATERIALIZED (
  SELECT a.doc_id AS a, b.doc_id AS b
  FROM k a JOIN k b
    ON a.lang = b.lang AND a.blk = b.blk AND a.doc_id < b.doc_id
  WHERE levenshtein(a.key, b.key) <= 5
), edges AS MATERIALIZED (
  SELECT a, b FROM p UNION SELECT b AS a, a AS b FROM p
), lab(node, lbl) AS (
  SELECT doc_id, doc_id FROM documents
  UNION
  SELECT e.b, lab.lbl FROM lab JOIN edges e ON lab.node = e.a
), canon AS (
  SELECT node AS doc_id, min(lbl) AS canon FROM lab GROUP BY node
)
SELECT doc_id::BIGINT AS doc_id, canon::BIGINT AS canon,
       count(*) OVER (PARTITION BY canon)::BIGINT AS cluster_size
FROM canon ORDER BY doc_id
"""


def q_events_pruned_scan(sf_dir: str):
    """Zone-map data skipping end to end (sources/zonemap.py): events are
    rewritten as a Z-ORDER-clustered (user_id × day Morton key) zone-mapped
    Parquet layout, then a box predicate (user_id 3–8, days 5–14 of the
    month) is answered through the PRUNED reader — files whose min/max
    window misses the box never leave disk, survivors get the exact
    residual filter. The oracle is the plain full-table SQL, so the gate
    proves pruning is invisible to results; the actual file skipping is
    pinned in tests/test_zonemap.py."""
    import tempfile

    from recon_ray.sources.zonemap import read_zonemapped, write_zonemapped

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t.column("event_id"),
            "user_id": t.column("user_id"),
            "event_type": t.column("event_type"),
            # date32 IS days-since-epoch; two casts give the int64 day
            "day": pc.cast(pc.cast(
                pc.cast(t.column("ts"), pa.date32()), pa.int32()),
                pa.int64()),
            "cents": _cents_arrow(t.column("value")),
        })

    ds = _t(sf_dir, "events").map_batches(prep, batch_format="pyarrow",
                                          zero_copy_batch=True)
    out_dir = tempfile.mkdtemp(prefix="zonemap_")
    write_zonemapped(ds, out_dir, stat_cols=["user_id", "day"],
                     zorder_cols=("user_id", "day"), rows_per_file=512)
    box = {"user_id": (3, 8), "day": (19728, 19737)}
    hits = read_zonemapped(out_dir, box).to_pandas()
    if hits.empty:  # all-empty to_pandas drops columns (Ray quirk)
        return pd.DataFrame({"event_type": pd.Series([], dtype=object),
                             "n": pd.Series([], dtype="int64"),
                             "cents": pd.Series([], dtype="int64")})
    out = (
        hits.groupby("event_type", as_index=False)
        .agg(n=("event_id", "size"), cents=("cents", "sum"))
    )
    out["n"] = out["n"].astype("int64")
    out["cents"] = out["cents"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


ORACLE_EVENTS_PRUNED_SCAN = """
SELECT event_type, count(*)::BIGINT AS n,
       sum(CAST(floor(value * 100 + 0.5) AS BIGINT))::BIGINT AS cents
FROM events
WHERE user_id BETWEEN 3 AND 8
  AND date_diff('day', TIMESTAMP '1970-01-01', date_trunc('day', ts))
      BETWEEN 19728 AND 19737
GROUP BY event_type ORDER BY event_type
"""


def q_events_point_scan(sf_dir: str):
    """Bloom-filter point-lookup data skipping (sources/zonemap.py):
    events are written in their NATURAL (ts) order — so every file's
    user_id min/max window spans the whole domain and range pruning is
    useless — with a per-file BLOOM over user_id. A point lookup
    (``equals={"user_id": u}`` for the user who owns event 42) then
    skips every file whose bloom proves the user absent; survivors get
    the exact residual equality filter. The oracle is the plain
    full-table SQL (pruning invisible to results); the actual
    file-skip counts are pinned in tests/test_zonemap.py."""
    import tempfile

    from recon_ray.sources.zonemap import read_zonemapped, write_zonemapped

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t.column("event_id"),
            "user_id": t.column("user_id"),
            "event_type": t.column("event_type"),
            "cents": _cents_arrow(t.column("value")),
        })

    ds = _t(sf_dir, "events").map_batches(prep, batch_format="pyarrow",
                                          zero_copy_batch=True)
    out_dir = tempfile.mkdtemp(prefix="zonemap_pt_")
    write_zonemapped(ds, out_dir, stat_cols=["user_id"],
                     rows_per_file=1024, bloom_cols=["user_id"])
    probe = int(
        arrow_filter(
            _t(sf_dir, "events").select_columns(
                ["event_id", "user_id"]),
            lambda t: pc.equal(t["event_id"], pa.scalar(42)),
        ).take_all()[0]["user_id"])
    hits = read_zonemapped(out_dir,
                           equals={"user_id": probe}).to_pandas()
    out = pd.DataFrame({
        "n": pd.Series([len(hits)], dtype="int64"),
        "cents": pd.Series([int(hits["cents"].sum())], dtype="int64"),
        "n_types": pd.Series([hits["event_type"].nunique()],
                             dtype="int64"),
    })
    return out


ORACLE_EVENTS_POINT_SCAN = """
SELECT count(*)::BIGINT AS n,
       coalesce(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)),
                0)::BIGINT AS cents,
       count(DISTINCT event_type)::BIGINT AS n_types
FROM events
WHERE user_id = (SELECT user_id FROM events WHERE event_id = 42)
"""


def interop_roundtrip(sf_dir: str):
    """CSV → Arrow-IPC interchange round-trip under the oracle gate
    (sources/interop.py): events rows (props coalesced to '' — CSV cannot
    tell NULL from empty, the documented lossy edge) are pushed through
    the distributed CSV sink, Ray's parallel CSV reader with pinned
    column types, then the IPC sink and stream-decoding IPC source, then
    the ORC sink and footer-schema ORC source, and finally a combiner
    aggregate whose hash must equal the same aggregate straight off the
    original parquet — any quoting, escaping, type inference or schema
    drift in any of the three codecs breaks the gate (props are JSON
    strings full of quotes/commas/braces)."""
    import tempfile

    from recon_ray.sources.interop import (
        read_csv_shards, read_ipc_shards, read_orc_shards,
        write_csv_shards, write_ipc_shards, write_orc_shards,
    )

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t.column("event_id"),
            "event_type": t.column("event_type"),
            "props": pc.fill_null(t.column("props"), ""),
            "cents": _cents_arrow(t.column("value")),
        })

    ds = _t(sf_dir, "events").map_batches(prep, batch_format="pyarrow",
                                          zero_copy_batch=True)
    d_csv = tempfile.mkdtemp(prefix="interop_csv_")
    write_csv_shards(ds, d_csv)
    back = read_csv_shards(d_csv, column_types={
        "event_id": pa.int64(), "event_type": pa.string(),
        "props": pa.string(), "cents": pa.int64()})
    d_ipc = tempfile.mkdtemp(prefix="interop_ipc_")
    write_ipc_shards(back, d_ipc)
    d_orc = tempfile.mkdtemp(prefix="interop_orc_")
    write_orc_shards(read_ipc_shards(d_ipc), d_orc)
    final = read_orc_shards(d_orc)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        p = b["props"].fillna("")
        g = b.assign(__len=p.str.len().astype("int64"), __p=p).groupby(
            "event_type", as_index=False)
        out = g.agg(n=("event_id", "size"), cents=("cents", "sum"),
                    props_len=("__len", "sum"), props_min=("__p", "min"),
                    props_max=("__p", "max"))
        return out

    parts = final.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("event_type", as_index=False).agg(
        n=("n", "sum"), cents=("cents", "sum"),
        props_len=("props_len", "sum"), props_min=("props_min", "min"),
        props_max=("props_max", "max"))
    for c in ("n", "cents", "props_len"):
        out[c] = out[c].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


ORACLE_INTEROP_ROUNDTRIP = """
SELECT event_type, count(*)::BIGINT AS n,
       sum(CAST(floor(value * 100 + 0.5) AS BIGINT))::BIGINT AS cents,
       sum(length(coalesce(props, '')))::BIGINT AS props_len,
       min(coalesce(props, '')) AS props_min,
       max(coalesce(props, '')) AS props_max
FROM events GROUP BY event_type ORDER BY event_type
"""


def interop_schema_evolution(sf_dir: str):
    """Schema-evolution Parquet read (sources/evolve.py): a
    three-version ingestion directory derived from orders — v0 parts
    carry (o_orderkey, o_custkey), v1 adds extra_cents as INT32, v2
    drops o_custkey, widens extra_cents to INT64 (+1,000,000) and adds
    a note_tag string — is read back through
    ``read_parquet_evolved``'s union-by-name + int-widening promotion
    (per-schema read groups, typed-null fill, one streaming union),
    then aggregated per version. The oracle replays DuckDB
    ``union_by_name`` semantics in closed form over the orders view:
    every count/sum pins which version carried which column and that
    int32 survived widening exactly."""
    import os

    import pyarrow.parquet as _pq

    from recon_ray.functions.relational import grouped_agg
    from recon_ray.sources.evolve import read_parquet_evolved

    orders = _pq.read_table(os.path.join(sf_dir, "orders.parquet"),
                            columns=["o_orderkey", "o_custkey"])
    k = orders.column("o_orderkey").to_numpy()
    c = orders.column("o_custkey").to_numpy()
    fix = os.path.join("/tmp", f"recon_evolve_fixture_{len(k)}")
    marker = os.path.join(fix, "_COMPLETE")
    if not os.path.exists(marker):
        os.makedirs(fix, exist_ok=True)
        v = k % 3
        cents = (k * 7) % 100000
        for half in (0, 1):  # two part files per version
            hm = (k % 2) == half
            m0 = (v == 0) & hm
            _pq.write_table(pa.table({
                "o_orderkey": pa.array(k[m0], pa.int64()),
                "o_custkey": pa.array(c[m0], pa.int64())}),
                os.path.join(fix, f"v0-{half}.parquet"))
            m1 = (v == 1) & hm
            _pq.write_table(pa.table({
                "o_orderkey": pa.array(k[m1], pa.int64()),
                "o_custkey": pa.array(c[m1], pa.int64()),
                "extra_cents": pa.array(cents[m1], pa.int32())}),
                os.path.join(fix, f"v1-{half}.parquet"))
            m2 = (v == 2) & hm
            _pq.write_table(pa.table({
                "o_orderkey": pa.array(k[m2], pa.int64()),
                "extra_cents": pa.array(cents[m2] + 1_000_000,
                                        pa.int64()),
                "note_tag": pa.array(
                    [f"v2-{int(x) % 10}" for x in k[m2]],
                    pa.string())}),
                os.path.join(fix, f"v2-{half}.parquet"))
        with open(marker, "w") as f:
            f.write("ok")
    ds = read_parquet_evolved(fix)

    def add_version(t: pa.Table) -> pa.Table:
        ver = pa.array(t.column("o_orderkey").to_numpy() % 3, pa.int64())
        return t.append_column("version", ver)

    ds = ds.map_batches(add_version, batch_format="pyarrow",
                        zero_copy_batch=True)
    out = grouped_agg(ds, "version", {
        "o_orderkey": ["count", "sum"],
        "o_custkey": ["count"],
        "extra_cents": ["count", "sum"],
        "note_tag": ["count"],
    })
    for col in ("o_orderkey_count", "o_orderkey_sum", "o_custkey_count",
                "extra_cents_count", "extra_cents_sum",
                "note_tag_count"):
        out[col] = out[col].fillna(0).astype("int64")
    return out.sort_values("version").reset_index(drop=True)


ORACLE_INTEROP_SCHEMA_EVOLUTION = """
SELECT (o_orderkey % 3)::BIGINT AS version,
       count(*)::BIGINT AS o_orderkey_count,
       sum(o_orderkey)::BIGINT AS o_orderkey_sum,
       (CASE WHEN o_orderkey % 3 = 2 THEN 0 ELSE count(*) END)::BIGINT
           AS o_custkey_count,
       (CASE WHEN o_orderkey % 3 = 0 THEN 0 ELSE count(*) END)::BIGINT
           AS extra_cents_count,
       coalesce(sum(CASE
           WHEN o_orderkey % 3 = 1 THEN (o_orderkey * 7) % 100000
           WHEN o_orderkey % 3 = 2
               THEN (o_orderkey * 7) % 100000 + 1000000
       END), 0)::BIGINT AS extra_cents_sum,
       (CASE WHEN o_orderkey % 3 = 2 THEN count(*) ELSE 0 END)::BIGINT
           AS note_tag_count
FROM orders GROUP BY o_orderkey % 3 ORDER BY 1
"""


def q_orders_apply_cdc(sf_dir: str):
    """Change-data-capture apply (functions.relational.apply_cdc): a
    deterministic I/U/D log derived from orders — keys %5 get an Update
    (price +500, version 2), keys %7 a Delete (version 3, so %35 keys
    die even though they were also updated), keys %11 an Insert under
    key+20M (version 1) — folds into the base in ONE key shuffle with a
    per-bucket vectorized argmax; the oracle replays precedence with a
    row_number window over the same log and a FULL OUTER JOIN."""
    from recon_ray.functions.relational import apply_cdc

    base = _t(sf_dir, "orders").select_columns(
        ["o_orderkey", "o_orderstatus", "o_totalprice"])

    def mk_log(b: pd.DataFrame) -> pd.DataFrame:
        upd = b[b["o_orderkey"] % 5 == 0].copy()
        upd["o_totalprice"] = upd["o_totalprice"] + 500.0
        upd["op"], upd["version"] = "U", np.int64(2)
        dels = b[b["o_orderkey"] % 7 == 0].copy()
        dels["op"], dels["version"] = "D", np.int64(3)
        ins = b[b["o_orderkey"] % 11 == 0].copy()
        ins["o_orderkey"] = ins["o_orderkey"] + 20_000_000
        ins["op"], ins["version"] = "I", np.int64(1)
        return pd.concat([upd, dels, ins], ignore_index=True)

    log = base.map_batches(mk_log, batch_format="pandas")
    merged = apply_cdc(base, log, key="o_orderkey")

    def cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {"o_orderstatus": t.column("o_orderstatus"),
             "price_c": _cents_arrow(t.column("o_totalprice"))})

    out = (
        merged.map_batches(cents, batch_format="pyarrow",
                           zero_copy_batch=True)
        .to_pandas().groupby("o_orderstatus", as_index=False)
        .agg(n=("price_c", "size"), cents=("price_c", "sum"))
    )
    out["n"] = out["n"].astype("int64")
    out["cents"] = out["cents"].astype("int64")
    return out.sort_values("o_orderstatus").reset_index(drop=True)


ORACLE_ORDERS_APPLY_CDC = """
WITH log AS (
  SELECT o_orderkey AS k, 'U' AS op, 2 AS ver, o_orderstatus,
         o_totalprice + 500 AS o_totalprice
  FROM orders WHERE o_orderkey % 5 = 0
  UNION ALL
  SELECT o_orderkey, 'D', 3, o_orderstatus, o_totalprice
  FROM orders WHERE o_orderkey % 7 = 0
  UNION ALL
  SELECT o_orderkey + 20000000, 'I', 1, o_orderstatus, o_totalprice
  FROM orders WHERE o_orderkey % 11 = 0
), latest AS (
  SELECT * FROM (
    SELECT *, row_number() OVER (PARTITION BY k
                                 ORDER BY ver DESC, op DESC) AS rn
    FROM log
  ) WHERE rn = 1
), merged AS (
  SELECT coalesce(l.o_orderstatus, b.o_orderstatus) AS o_orderstatus,
         coalesce(l.o_totalprice, b.o_totalprice) AS price,
         l.op
  FROM (SELECT o_orderkey, o_orderstatus, o_totalprice FROM orders) b
  FULL OUTER JOIN latest l ON l.k = b.o_orderkey
)
SELECT o_orderstatus, count(*)::BIGINT AS n,
       sum(CAST(floor(price * 100 + 0.5) AS BIGINT))::BIGINT AS cents
FROM merged WHERE op IS NULL OR op <> 'D'
GROUP BY o_orderstatus ORDER BY o_orderstatus
"""


def q_events_daily_filled(sf_dir: str):
    """Time-series gap filling (functions.relational.fill_day_gaps):
    per-user daily activity resampled to a DENSE calendar — every day
    between a user's first and last active day appears, zero-filled
    where nothing happened (the standard pre-step for rolling windows /
    forecasting features). The heavy part is the per-(user, day) grouped
    aggregate (combiner); the densification rides the aggregate through
    one key shuffle with cumsum/repeat index arithmetic — no per-user
    Python. Oracle: generate_series over the same spans."""
    from recon_ray.functions.relational import fill_day_gaps

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": b["user_id"],
            "day": b["ts"].to_numpy().astype("datetime64[D]"),
            "cents": _cents(b["value"]),
        })

    daily = (
        _t(sf_dir, "events").map_batches(prep, batch_format="pandas")
        .map_batches(
            lambda b: b.groupby(["user_id", "day"], as_index=False)
            .agg(n=("cents", "size"), cents=("cents", "sum")),
            batch_format="pandas",
        )
    )
    # batch-local partials may split a (user, day): merge exactly once
    from recon_ray.functions.relational import bucketed_group_apply

    merged = bucketed_group_apply(
        daily, "user_id",
        lambda g: g.groupby(["user_id", "day"], as_index=False)
        .agg(n=("n", "sum"), cents=("cents", "sum")),
    )
    dense = fill_day_gaps(merged, "user_id", "day",
                          fill_cols=["n", "cents"]).to_pandas()
    dense["user_id"] = dense["user_id"].astype("int64")
    dense["n"] = dense["n"].astype("int64")
    dense["cents"] = dense["cents"].astype("int64")
    return dense.sort_values(["user_id", "day"]).reset_index(drop=True)


ORACLE_EVENTS_DAILY_FILLED = """
WITH d AS (
  SELECT user_id, date_trunc('day', ts) AS day, count(*)::BIGINT AS n,
         sum(CAST(floor(value * 100 + 0.5) AS BIGINT))::BIGINT AS cents
  FROM events GROUP BY 1, 2
), span AS (
  SELECT user_id, min(day) AS lo, max(day) AS hi FROM d GROUP BY 1
), grid AS (
  SELECT user_id, unnest(generate_series(lo, hi, INTERVAL 1 DAY)) AS day
  FROM span
)
SELECT grid.user_id, grid.day, coalesce(d.n, 0)::BIGINT AS n,
       coalesce(d.cents, 0)::BIGINT AS cents
FROM grid LEFT JOIN d ON d.user_id = grid.user_id AND d.day = grid.day
ORDER BY 1, 2
"""


def q_events_ffill_value(sf_dir: str):
    """Forward-fill imputation (LOCF) as a window kind
    (relational.window_over "ffill"): rows with event_id % 7 == 0 are
    treated as missing and take the user's last observed cents value in
    (ts, event_id) order; leading missings stay NULL. One user-key
    shuffle, per-bucket grouped ffill — the oracle is DuckDB's
    last_value(... IGNORE NULLS) running frame."""
    from recon_ray.functions.relational import window_over

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        cents = _cents(b["value"]).astype("float64")
        cents[b["event_id"] % 7 == 0] = np.nan
        return pd.DataFrame({
            "event_id": b["event_id"], "user_id": b["user_id"],
            "ts": b["ts"], "cents": cents,
        })

    out = window_over(
        _t(sf_dir, "events").map_batches(prep, batch_format="pandas"),
        partition_by="user_id", order_by=["ts", "event_id"],
        specs=[("ffill", "cents", "filled")],
    ).to_pandas()
    out = out[["event_id", "filled"]]
    # float64, matching how DuckDB's BIGINT-with-NULLs lands in pandas
    # (the driver stringifies raw: "1234.0"/"nan" must agree bytewise)
    out["filled"] = out["filled"].astype("float64")
    return out.sort_values("event_id").reset_index(drop=True)


ORACLE_EVENTS_FFILL = """
WITH e AS (
  SELECT event_id, user_id, ts,
         CASE WHEN event_id % 7 = 0 THEN NULL
              ELSE CAST(floor(value * 100 + 0.5) AS BIGINT) END AS cents
  FROM events
)
SELECT event_id,
       last_value(cents IGNORE NULLS) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
       )::BIGINT AS filled
FROM e ORDER BY event_id
"""


def q_events_ab_test(sf_dir: str):
    """A/B experiment readout: users hash into arms with the
    growth-stable split rule (functions.insights.assign_split on
    user_id — the experiment unit, so every event of a user lands in one
    arm), conversion = users with ≥1 high-value purchase (value >
    200 — a real minority outcome at every scale), and the two-proportion
    pooled z statistic at 6 dp. Distinct-user sets ride the bucketed
    exact distinct; the z arithmetic runs on four scalars. The oracle
    replays the HUGEINT hash split and the identical pooled-z formula."""
    from recon_ray.functions.insights import assign_split
    from recon_ray.functions.relational import arrow_filter, distinct

    from recon_ray.functions.relational import shuffle_semi_join

    ev = _t(sf_dir, "events").select_columns(["user_id", "event_type"])
    users = assign_split(
        distinct(ev.select_columns(["user_id"]), ["user_id"]),
        {"A": 0.5, "B": 0.5}, id_col="user_id", split_col="arm",
    ).materialize()  # consumed twice (totals + converted)
    buyers = distinct(
        arrow_filter(
            _t(sf_dir, "events")
            .select_columns(["user_id", "event_type", "value"]),
            lambda t: pc.and_(
                pc.equal(t.column("event_type"), "purchase"),
                pc.greater(t.column("value"), pa.scalar(200.0)),
            ),
        ).select_columns(["user_id"]),
        ["user_id"],
    )
    # converted users via a hash semi-join — the buyer set never
    # collects on the driver (users-sized at scale)
    converted = shuffle_semi_join(users, buyers, on="user_id")

    def arm_counts(ds_, col):
        return (
            ds_.map_batches(
                lambda b, c=col: b.assign(**{c: np.int64(1)})
                .groupby("arm", as_index=False)[[c]].sum(),
                batch_format="pandas",
            ).to_pandas().groupby("arm")[[col]].sum()
        )

    s = arm_counts(users, "__n").join(
        arm_counts(converted, "__c"), how="left").fillna(0)
    n_a, conv_a = int(s.loc["A", "__n"]), int(s.loc["A", "__c"])
    n_b, conv_b = int(s.loc["B", "__n"]), int(s.loc["B", "__c"])
    pooled = (conv_a + conv_b) / (n_a + n_b)
    z = (conv_a / n_a - conv_b / n_b) / math.sqrt(
        pooled * (1 - pooled) * (1.0 / n_a + 1.0 / n_b))
    return pd.DataFrame({
        "n_a": pd.Series([n_a], dtype="int64"),
        "conv_a": pd.Series([conv_a], dtype="int64"),
        "n_b": pd.Series([n_b], dtype="int64"),
        "conv_b": pd.Series([conv_b], dtype="int64"),
        "z": [round(z, 6)],
    })


def _ab_test_oracle_sql() -> str:
    from recon_ray.functions.insights import _MIX_C

    half = 1 << 63
    return f"""
WITH u AS (
  SELECT DISTINCT user_id,
    CASE WHEN ((user_id::HUGEINT * {_MIX_C}) % 18446744073709551616)
         < {half}::HUGEINT THEN 'A' ELSE 'B' END AS arm
  FROM events
), c AS (
  SELECT DISTINCT user_id FROM events
  WHERE event_type = 'purchase' AND value > 200
), s AS (
  SELECT arm, count(*)::BIGINT AS n, count(c.user_id)::BIGINT AS conv
  FROM u LEFT JOIN c USING (user_id) GROUP BY arm
), m AS (
  SELECT max(CASE WHEN arm = 'A' THEN n END) AS n_a,
         max(CASE WHEN arm = 'A' THEN conv END) AS conv_a,
         max(CASE WHEN arm = 'B' THEN n END) AS n_b,
         max(CASE WHEN arm = 'B' THEN conv END) AS conv_b
  FROM s
)
SELECT n_a, conv_a, n_b, conv_b,
  round((conv_a::DOUBLE / n_a - conv_b::DOUBLE / n_b)
    / sqrt(((conv_a + conv_b)::DOUBLE / (n_a + n_b))
           * (1 - (conv_a + conv_b)::DOUBLE / (n_a + n_b))
           * (1.0 / n_a + 1.0 / n_b)), 6) AS z
FROM m
"""


def q_events_attribution(sf_dir: str):
    """Last-touch revenue attribution: every purchase's cents credit to
    the user's most recent PRECEDING non-purchase event type (the
    marketing-attribution primitive). Composition of existing kinds:
    mask the channel column (NULL on purchases), forward-fill it with
    the window family's "ffill" (one user shuffle), filter to purchases,
    combiner-sum cents per attributed channel. Oracle: the identical
    last_value(... IGNORE NULLS) running frame."""
    from recon_ray.functions.relational import window_over

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        ch = b["event_type"].where(b["event_type"] != "purchase")
        return pd.DataFrame({
            "user_id": b["user_id"], "ts": b["ts"],
            "event_id": b["event_id"], "event_type": b["event_type"],
            "cents": _cents(b["value"]), "channel": ch,
        })

    filled = window_over(
        _t(sf_dir, "events").map_batches(prep, batch_format="pandas"),
        partition_by="user_id", order_by=["ts", "event_id"],
        specs=[("ffill", "channel", "attributed")],
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        p = b[(b["event_type"] == "purchase") & b["attributed"].notna()]
        return (
            p.assign(__n=np.int64(1))
            .groupby("attributed", as_index=False)
            .agg(n=("__n", "sum"), cents=("cents", "sum"))
        )

    parts = filled.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("attributed", as_index=False)[["n", "cents"]].sum()
    out["n"] = out["n"].astype("int64")
    out["cents"] = out["cents"].astype("int64")
    return out.sort_values("attributed").reset_index(drop=True)


ORACLE_EVENTS_ATTRIBUTION = """
WITH e AS (
  SELECT user_id, ts, event_id, event_type,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents,
         CASE WHEN event_type <> 'purchase' THEN event_type END AS ch
  FROM events
), f AS (
  SELECT *,
         last_value(ch IGNORE NULLS) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
         ) AS attributed
  FROM e
)
SELECT attributed, count(*)::BIGINT AS n, sum(cents)::BIGINT AS cents
FROM f WHERE event_type = 'purchase' AND attributed IS NOT NULL
GROUP BY attributed ORDER BY attributed
"""


def q_events_top_paths(sf_dir: str):
    """Top user journeys: each user's first three event types in
    (ts, event_id) order joined with '>' — the classic path-analytics
    prefix — counted and ranked. One user-key shuffle; inside each
    bucket the per-user prefix assembles VECTORIZED (cumcount filter +
    pivot + column concat, no per-user Python), and only path partial
    counts leave the bucket. Oracle: row_number window + ordered
    string_agg."""
    from recon_ray.functions.relational import bucketed_group_apply

    ev = _t(sf_dir, "events").select_columns(
        ["user_id", "ts", "event_id", "event_type"])

    def paths(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        rn = g.groupby("user_id", sort=False).cumcount()
        g = g[rn < 3].assign(__rn=rn[rn < 3])
        w = g.pivot(index="user_id", columns="__rn", values="event_type")
        path = w[0].astype(object)
        for c in sorted(w.columns)[1:]:
            nxt = w[c]
            path = path.where(nxt.isna(), path + ">" + nxt.fillna(""))
        return (
            pd.DataFrame({"path": path.to_numpy()})
            .groupby("path", as_index=False).size()
        )

    parts = bucketed_group_apply(ev, "user_id", paths).to_pandas()
    out = parts.groupby("path", as_index=False)["size"].sum().rename(
        columns={"size": "n_users"})
    out["n_users"] = out["n_users"].astype("int64")
    return (
        out.sort_values(["n_users", "path"], ascending=[False, True])
        .head(10).reset_index(drop=True)
    )


ORACLE_EVENTS_TOP_PATHS = """
WITH r AS (
  SELECT user_id, event_type,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events
), p AS (
  SELECT user_id, string_agg(event_type, '>' ORDER BY rn) AS path
  FROM r WHERE rn <= 3 GROUP BY user_id
)
SELECT path, count(*)::BIGINT AS n_users
FROM p GROUP BY path ORDER BY n_users DESC, path LIMIT 10
"""


_CENTS_REV = (
    "round(sum(cast(round(l_extendedprice * 100) AS bigint) * "
    "(100 - cast(round(l_discount * 100) AS bigint))) / 10000.0, 2)"
)


# The oracle spells the engine's exact two-pass formula — (Σx², Σx, n)
# partials, then (q − s·s/n, floored at 0) / (n or n−1) in that op
# order. Over an INTEGER column every partial sum is an exact float64
# integer (< 2^53), so both engines perform the identical IEEE ops and
# the hash matches bit-for-bit with no rounding. DuckDB's own
# stddev_samp (Welford) would differ in the last bits.
ORACLE_SQL_FRONTEND_STDDEV = """
SELECT lang, count(n_chars) AS n,
  sqrt(greatest(sum(n_chars * n_chars)::DOUBLE
                - sum(n_chars)::DOUBLE * sum(n_chars)::DOUBLE
                  / count(n_chars), 0) / (count(n_chars) - 1)) AS sd,
  greatest(sum(n_chars * n_chars)::DOUBLE
           - sum(n_chars)::DOUBLE * sum(n_chars)::DOUBLE
             / count(n_chars), 0) / count(n_chars) AS vp
FROM documents GROUP BY lang ORDER BY lang
"""


# The oracle spells the engine's exact two-pass formula over the six
# pairwise sum partials (n, Σx, Σy, Σxy, Σx², Σy²) in the engine's
# fixed op order — centered sums Cab = Σab − Σa·Σb/n with Cxx/Cyy
# floored at 0, then each statistic as one or two IEEE divisions.
# Over INTEGER columns every partial sum is an exact float64 integer
# (< 2^53), so both engines perform the identical IEEE sequence and
# the hash matches bit-for-bit. DuckDB's native corr/covar (streaming
# single-pass updates) would differ in the last bits.
ORACLE_SQL_FRONTEND_CORR = """
WITH s AS (
  SELECT lang, count(*) AS n, count(doc_id) AS pn,
    sum(doc_id)::DOUBLE AS sx, sum(n_chars)::DOUBLE AS sy,
    sum(n_chars * doc_id)::DOUBLE AS sxy,
    sum(doc_id * doc_id)::DOUBLE AS sxx,
    sum(n_chars * n_chars)::DOUBLE AS syy
  FROM documents GROUP BY lang
), c AS (
  SELECT lang, n, pn,
    sxy - sx * sy / pn AS cxy,
    greatest(sxx - sx * sx / pn, 0) AS cxx,
    greatest(syy - sy * sy / pn, 0) AS cyy,
    sx, sy
  FROM s
)
SELECT lang, n,
  cxy / nullif(sqrt(cxx * cyy), 0) AS r,
  cxy / nullif(pn - 1, 0) AS cs,
  cxy / pn AS cp,
  cxy / nullif(cxx, 0) AS sl,
  (sy - (cxy / nullif(cxx, 0)) * sx) / pn AS ic,
  CASE WHEN cxx <= 0 THEN NULL WHEN cyy = 0 THEN 1.0
       ELSE (cxy * cxy) / (cxx * cyy) END AS r2
FROM c ORDER BY lang
"""


# the oracle is the same pipeline as ONE statement: each CTAS becomes
# a CTE — CREATE TABLE x AS ...; SELECT ... FROM x ≡ WITH x AS (...)
ORACLE_SQL_FRONTEND_SCRIPT = """
WITH big AS (
  SELECT o_custkey, o_totalprice FROM orders
  WHERE o_totalprice > 150000
), spend AS (
  SELECT o_custkey, count(*) AS n,
         sum(cast(o_totalprice * 100 AS BIGINT)) AS cents
  FROM big GROUP BY o_custkey
)
SELECT n, count(*) AS n_customers,
       cast(sum(cents) AS BIGINT) AS total_cents
FROM spend GROUP BY n ORDER BY n
"""


# arg_max(v, by) = v at the group's max by, over rows where BOTH are
# non-null; ties on by break to MAX v. DuckDB's native arg_max picks
# the ARRIVAL-order winner on ties (layout-dependent), so the oracle
# replays the deterministic rule explicitly: join each group back on
# its extreme `by`, then take max(v) among the tied rows.
ORACLE_SQL_FRONTEND_ARGMAX = """
WITH f AS (
  SELECT event_type, ts, value FROM events
  WHERE ts IS NOT NULL AND value IS NOT NULL
), m AS (
  SELECT event_type, max(ts) AS mx, min(ts) AS mn
  FROM f GROUP BY event_type
), n AS (
  SELECT event_type, count(*) AS n FROM events GROUP BY event_type
)
SELECT n.event_type, n.n,
  max(CASE WHEN f.ts = m.mx THEN f.value END) AS last_value,
  max(CASE WHEN f.ts = m.mn THEN f.value END) AS first_value
FROM n
LEFT JOIN m ON n.event_type = m.event_type
LEFT JOIN f ON f.event_type = m.event_type
GROUP BY n.event_type, n.n ORDER BY n.event_type
"""


class SqlQuery(NamedTuple):
    """One SQL front-end query: the statement (or ``;``-separated script)
    the engine runs, the sf tables it reads, the registry description,
    and the DuckDB oracle when it is not ``sql`` itself."""

    sql: str
    tables: tuple[str, ...]
    doc: str
    oracle: Optional[str] = None


def _run_sql_entry(name: str, sf_dir: str):
    from recon_ray.sql import run_sql_script

    q = SQL_FRONTEND[name]
    return run_sql_script(q.sql, {t: _t(sf_dir, t) for t in q.tables})


def _sql_query(name: str):
    fn = functools.partial(_run_sql_entry, name)
    fn.__doc__ = SQL_FRONTEND[name].doc
    return fn


# Every q_sql_frontend_* query, in registry order. The engine runs
# ``sql`` through the front-end (``recon_ray.sql``), and DuckDB runs
# ``oracle or sql`` as its oracle.
SQL_FRONTEND: dict[str, SqlQuery] = {
    "q_sql_frontend_events": SqlQuery(
        "SELECT event_type, count(*) AS n, count(user_id) AS cu, "
        "cast(sum(user_id) AS bigint) AS su, "
        "min(user_id) AS min_u, max(user_id) AS max_u "
        "FROM events WHERE user_id >= 2 AND event_type <> 'error' "
        "GROUP BY event_type ORDER BY event_type",
        ("events",),
        """Mini SQL front-end (recon_ray/sql.py) under the oracle gate: the
        ORACLE STRING ITSELF is executed by the engine — parsed and compiled
        to arrow_filter + a combiner grouped aggregate — while DuckDB runs
        the identical text. Any divergence in predicate, NULL, aggregate or
        grouping semantics breaks the hash.""",
    ),
    "q_sql_frontend_orders": SqlQuery(
        "SELECT o_orderstatus, count(*) AS n, min(o_orderkey) AS first_key "
        "FROM orders WHERE o_totalprice >= 1000 "
        "GROUP BY o_orderstatus ORDER BY n DESC, o_orderstatus LIMIT 3",
        ("orders",),
        """Second front-end shape under the gate: WHERE on a float column,
        ORDER BY an aggregate, LIMIT — same contract as
        q_sql_frontend_events (engine and DuckDB execute the identical
        string).""",
    ),
    "q_sql_frontend_lineitem": SqlQuery(
        "SELECT l_linestatus, count(*) AS n, "
        "count(distinct l_orderkey) AS n_orders "
        "FROM lineitem WHERE l_quantity >= 10 "
        "GROUP BY l_linestatus HAVING n >= 100 ORDER BY l_linestatus",
        ("lineitem",),
        """Third front-end shape under the gate: HAVING on an alias plus an
        exact count(DISTINCT ...) (compiled to the bucketed distinct) —
        engine and DuckDB execute the identical string.""",
    ),
    "q_sql_frontend_join": SqlQuery(
        "SELECT c_mktsegment, o_orderpriority, count(*) AS n, "
        "count(DISTINCT o_custkey) AS n_cust, "
        "min(o_totalprice) AS p_min, max(o_totalprice) AS p_max "
        "FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey "
        "WHERE o_orderstatus IN ('F', 'O') "
        "GROUP BY c_mktsegment, o_orderpriority "
        "ORDER BY c_mktsegment, o_orderpriority",
        ("orders", "customer"),
        """SQL front-end two-table equi-JOIN under the gate: the identical
        string compiles to shuffle_join + combiner aggregates in the engine
        and runs natively in DuckDB — join cardinality, the IN predicate
        applied post-join, exact count(DISTINCT) on the fact side and
        min/max all sit under the hash.""",
    ),
    "q_sql_frontend_window": SqlQuery(
        "SELECT user_id, event_id, "
        "row_number() OVER (PARTITION BY user_id ORDER BY event_id) AS rn, "
        "rank() OVER (PARTITION BY user_id ORDER BY event_id) AS rk, "
        "lag(event_id) OVER (PARTITION BY user_id ORDER BY event_id) "
        "AS prev_id, "
        "ntile(4) OVER (PARTITION BY user_id ORDER BY event_id) AS quartile "
        "FROM events ORDER BY user_id, event_id",
        ("events",),
        """SQL front-end window functions under the gate: the identical
        string compiles to one window_over hash-shuffle pass in the engine
        and runs natively in DuckDB — row numbering, ranking, lag NULLs at
        partition edges and NTILE tile arithmetic all sit under the hash
        (event_id is unique per partition, the documented total-order
        contract).""",
    ),
    "q_sql_frontend_subquery": SqlQuery(
        "SELECT o_orderstatus, count(*) AS n, min(o_orderkey) AS k_min "
        "FROM orders WHERE o_totalprice >= 500 AND o_custkey IN "
        "(SELECT c_custkey FROM customer WHERE c_acctbal BETWEEN 100 AND "
        "5000) GROUP BY o_orderstatus ORDER BY o_orderstatus",
        ("orders", "customer"),
        """IN (SELECT ...) under the gate: the subquery compiles to a
        hash semi-join (shuffle_semi_join — both sides stream, the inner
        key set never collects on the driver) fused with the scalar WHERE
        and grouped aggregates; DuckDB runs the identical string.""",
    ),
    "q_sql_frontend_scalar_subq": SqlQuery(
        "SELECT o_orderpriority, count(*) AS n FROM orders "
        "WHERE o_totalprice < (SELECT max(o_totalprice) FROM orders "
        "WHERE o_orderstatus = 'F') "
        "GROUP BY o_orderpriority ORDER BY o_orderpriority",
        ("orders",),
        """Scalar subquery under the gate (TPC-H Q17's below-threshold
        shape): the single-aggregate subquery evaluates recursively (max is
        accumulation-order exact even on floats) and folds into the
        conjunctive WHERE; DuckDB runs the identical string.""",
    ),
    "q_sql_frontend_quantile": SqlQuery(
        "SELECT event_type, quantile_disc(value, 0.5) AS med_value, "
        "quantile_disc(value, 0.9) AS p90_value, count(*) AS n "
        "FROM events GROUP BY event_type ORDER BY event_type",
        ("events",),
        """quantile_disc aggregates under the gate: compiled to the
        grouped_quantiles element-semantics shuffle (order statistics are
        exact — no arithmetic, so float columns hash-match too); DuckDB
        runs the identical string.""",
    ),
    "q_sql_frontend_chain": SqlQuery(
        "SELECT n_name, o_orderpriority, count(*) AS n, "
        "min(o_totalprice) AS p_min "
        "FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey "
        "JOIN nation nt ON c.c_nationkey = nt.n_nationkey "
        "WHERE o_orderstatus = 'F' "
        "GROUP BY n_name, o_orderpriority ORDER BY n_name, o_orderpriority",
        ("orders", "customer", "nation"),
        """Three-table left-deep join chain under the gate (TPC-H Q5's
        fact→dim→dim shape): two shuffle_joins in sequence, post-chain
        WHERE, grouped aggregates; DuckDB runs the identical string.""",
    ),
    "q_sql_frontend_time": SqlQuery(
        "SELECT event_type, count(*) AS n, count(DISTINCT user_id) AS nu "
        "FROM events WHERE ts >= '2024-01-05' AND ts < '2024-01-12' "
        "GROUP BY event_type ORDER BY event_type",
        ("events",),
        """Temporal literals under the gate: string date bounds cast to the
        timestamp column's type exactly as SQL does (midnight boundaries),
        so the window membership, grouped counts and exact distinct users
        all sit under the hash; DuckDB runs the identical string.""",
    ),
    "q_sql_frontend_union": SqlQuery(
        "SELECT event_type AS label, count(*) AS n FROM events "
        "GROUP BY event_type "
        "UNION ALL "
        "SELECT o_orderstatus AS label, count(*) AS n FROM orders "
        "GROUP BY o_orderstatus ORDER BY label, n",
        ("events", "orders"),
        """UNION ALL under the gate: two grouped aggregates over different
        tables concatenate with the trailing ORDER BY binding the union
        (exactly SQL's attachment rule); DuckDB runs the identical
        string.""",
    ),
    "q_sql_frontend_filter": SqlQuery(
        "SELECT o_orderpriority, "
        "count(*) FILTER (WHERE o_orderstatus = 'F') AS n_f, "
        "count(*) FILTER (WHERE o_totalprice >= 1000) AS n_big, "
        "min(o_totalprice) FILTER (WHERE o_orderstatus = 'O') AS p_min_o, "
        "count(*) AS n "
        "FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority",
        ("orders",),
        """agg(...) FILTER (WHERE ...) under the gate (TPC-H Q12's
        conditional-count shape without CASE): each filtered aggregate gets
        its own masked combiner partials in the same single pass; DuckDB
        runs the identical string.""",
    ),
    "q_sql_frontend_case": SqlQuery(
        "SELECT CASE WHEN o_totalprice < 150000 THEN 'small' "
        "WHEN o_totalprice < 320000 THEN 'mid' ELSE 'large' END AS band, "
        "count(*) AS n, min(o_totalprice) AS p_min, "
        "count(*) FILTER (WHERE o_orderstatus = 'F') AS n_f "
        "FROM orders GROUP BY band ORDER BY band",
        ("orders",),
        """CASE WHEN bands under the gate (TPC-H Q12/Q14's conditional
        shape): the CASE compiles to one vectorized np.select derive stage
        (first-match semantics, missing ELSE -> NULL), then the banded
        grouped aggregates run in the same combiner pass; DuckDB runs the
        identical string.""",
    ),
    "q_sql_frontend_bool": SqlQuery(
        "SELECT o_orderpriority, count(*) AS n, min(o_orderkey) AS k_min "
        "FROM orders "
        "WHERE NOT (o_orderstatus = 'F' OR o_totalprice < 100000) "
        "OR o_orderpriority = '1-URGENT' "
        "GROUP BY o_orderpriority ORDER BY o_orderpriority",
        ("orders",),
        """OR / NOT predicate trees under the gate: the WHERE compiles to
        one pyarrow mask with Kleene three-valued logic (and_kleene /
        or_kleene / invert, UNKNOWN excluded at the top); DuckDB runs the
        identical string. Integer-exact outputs keep the hash strict.""",
    ),
    "q_sql_frontend_expr": SqlQuery(
        "SELECT l_returnflag, sum(l_quantity) AS sum_qty, "
        "sum(l_quantity * (1 + l_linenumber)) AS w_qty, "
        "max(l_quantity * 2 - 1) AS mq, count(*) AS n "
        "FROM lineitem WHERE l_quantity BETWEEN 5 AND 45 "
        "GROUP BY l_returnflag ORDER BY l_returnflag",
        ("lineitem",),
        """Arithmetic expression aggregates under the gate (TPC-H Q1's
        sum-of-products shape): each expression materializes as a hidden
        vectorized derive column feeding the same combiner pass. The
        operands here are integer-valued doubles, so the sums are EXACT in
        float64 and hash-identical to DuckDB — the float-product TPC-H Q1/
        Q6 verbatim strings are tolerance-checked in pytest instead
        (double accumulation order differs between engines).""",
    ),
    "q_sql_frontend_tpch_q1": SqlQuery(
        "SELECT l_returnflag, l_linestatus, "
        "round(sum(l_quantity), 2) AS sum_qty, "
        "round(sum(cast(round(l_extendedprice * 100) AS bigint)) / 100.0, "
        "2) AS sum_base_price, "
        "round(sum(cast(round(l_extendedprice * 100) AS bigint) * "
        "(100 - cast(round(l_discount * 100) AS bigint))) / 10000.0, 2) "
        "AS sum_disc_price, "
        "round(sum(cast(round(l_extendedprice * 100) AS bigint) * "
        "(100 - cast(round(l_discount * 100) AS bigint)) * "
        "(100 + cast(round(l_tax * 100) AS bigint))) / 1000000.0, 2) "
        "AS sum_charge, "
        "round(sum(l_quantity) / count(*), 6) AS avg_qty, "
        "round(sum(cast(round(l_discount * 100) AS bigint)) / 100.0 / "
        "count(*), 6) AS avg_disc, "
        "count(*) AS count_order "
        "FROM lineitem WHERE l_shipdate <= timestamp '2000-09-02' "
        "GROUP BY l_returnflag, l_linestatus "
        "ORDER BY l_returnflag, l_linestatus",
        ("lineitem",),
        """TPC-H Q1 in integer-cents form under the hash gate, compiled and
        executed by the engine itself. It runs the computation of ORACLE_Q1
        (the handwritten q1 pipeline's oracle), spelled cast(x AS bigint)
        where ORACLE_Q1 writes x::BIGINT, and with a 2000-09-02 shipdate
        cutoff instead of 1998-09-02. The cents expressions
        (cast(round(price * 100) as bigint) products) materialize as int64
        derive columns whose sums stay EXACT past float64's 2^53, the
        round(sum(...) / 10^k, 2) outer layer is a post-aggregate
        expression on the groups-sized result, and the rounding mirrors
        DuckDB operation-for-operation — so the hash matches bit-exactly
        where the raw-float Q1 cannot (accumulation-order drift;
        tests/test_sql_frontend.py::test_tpch_q1_q6_verbatim covers that
        form with tolerance).""",
    ),
    "q_sql_frontend_tumbling_6h": SqlQuery(
        "SELECT time_bucket(INTERVAL '6 hours', ts) AS window_start, "
        "event_type, count(*) AS n_events, "
        "round(sum(value), 2) AS total_value "
        "FROM events GROUP BY window_start, event_type "
        "ORDER BY window_start, event_type",
        ("events",),
        """Tumbling-window aggregate THROUGH the SQL front-end:
        time_bucket(INTERVAL 'N unit', ts) compiles to a temporal derive
        column (bucket widths must divide a day, so the epoch origin and
        DuckDB's 2000-01-01 origin agree) feeding the combiner groupby —
        the identical string runs in DuckDB as the oracle.""",
    ),
    "q_sql_frontend_tpch_q3": SqlQuery(
        "SELECT l_orderkey, o_orderdate, " + _CENTS_REV + " AS revenue "
        "FROM customer "
        "JOIN orders ON customer.c_custkey = orders.o_custkey "
        "JOIN lineitem ON lineitem.l_orderkey = orders.o_orderkey "
        "WHERE c_mktsegment = 'BUILDING' "
        "GROUP BY l_orderkey, o_orderdate "
        "ORDER BY revenue DESC, l_orderkey LIMIT 10",
        ("customer", "orders", "lineitem"),
        """TPC-H Q3 (cents form) under the gate, compiled by the front-end
        — two chained shuffle_joins, the cents product as an int64 hidden
        derive, the revenue rounding as a post-aggregate expression, and a
        fully-tiebroken top-10 (revenue DESC, then l_orderkey). It runs the
        computation of ORACLE_Q3 (the handwritten q3 pipeline's oracle),
        spelled cast(x AS bigint) where ORACLE_Q3 writes x::BIGINT.""",
    ),
    "q_sql_frontend_tpch_q5": SqlQuery(
        "SELECT r_name, n_name, " + _CENTS_REV + " AS revenue, "
        "count(*) AS n_items "
        "FROM lineitem "
        "JOIN orders ON lineitem.l_orderkey = orders.o_orderkey "
        "JOIN customer ON orders.o_custkey = customer.c_custkey "
        "JOIN nation ON customer.c_nationkey = nation.n_nationkey "
        "JOIN region ON nation.n_regionkey = region.r_regionkey "
        "GROUP BY r_name, n_name ORDER BY r_name, n_name",
        ("lineitem", "orders", "customer", "nation", "region"),
        """TPC-H Q5 (cents form) under the gate: a four-join left-deep
        chain (lineitem→orders→customer→nation→region) compiled to chained
        hash shuffle_joins, nation-level revenue hash-exact.""",
    ),
    "q_sql_frontend_tpch_q6": SqlQuery(
        "SELECT round(sum(cast(round(l_extendedprice * 100) AS bigint) * "
        "cast(round(l_discount * 100) AS bigint)) / 10000.0, 2) AS revenue "
        "FROM lineitem "
        "WHERE l_shipdate >= date '1996-01-01' "
        "AND l_shipdate < date '1997-01-01' "
        "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
        ("lineitem",),
        """TPC-H Q6 (cents form) under the gate: pure pyarrow filter (date
        window + BETWEEN + comparison) into one global cents aggregate —
        no shuffle at all, hash-exact.""",
    ),
    "q_sql_frontend_tpch_q10": SqlQuery(
        "SELECT c_custkey, c_name, n_name, " + _CENTS_REV + " AS revenue "
        "FROM customer "
        "JOIN orders ON customer.c_custkey = orders.o_custkey "
        "JOIN lineitem ON lineitem.l_orderkey = orders.o_orderkey "
        "JOIN nation ON customer.c_nationkey = nation.n_nationkey "
        "WHERE l_returnflag = 'R' AND o_orderdate >= date '1996-01-01' "
        "AND o_orderdate < date '1997-01-01' "
        "GROUP BY c_custkey, c_name, n_name "
        "ORDER BY revenue DESC, c_custkey LIMIT 20",
        ("customer", "orders", "lineitem", "nation"),
        """TPC-H Q10 (returned-item revenue, cents form) under the gate:
        three joins, a post-join WHERE mixing a string equality with a
        temporal window, per-customer revenue, deterministic top-20
        (revenue DESC then c_custkey).""",
    ),
    "q_sql_frontend_tpch_q4": SqlQuery(
        "SELECT o_orderpriority, count(*) AS order_count "
        "FROM orders "
        "WHERE o_orderdate >= date '1996-01-01' "
        "AND o_orderdate < date '1996-10-01' "
        "AND o_orderkey IN "
        "(SELECT l_orderkey FROM lineitem WHERE l_quantity >= 48) "
        "GROUP BY o_orderpriority ORDER BY o_orderpriority",
        ("orders", "lineitem"),
        """TPC-H Q4 under the gate, EXISTS expressed as the equivalent IN
        subquery (the synthetic lineitem has no commit/receipt dates, so
        the 'late line' predicate becomes a quantity threshold): temporal
        window filter, hash semi-join against the filtered lineitem keys,
        priority counts.""",
    ),
    "q_sql_frontend_tpch_q19": SqlQuery(
        "SELECT " + _CENTS_REV + " AS revenue "
        "FROM lineitem "
        "JOIN part ON part.p_partkey = lineitem.l_partkey "
        "WHERE (p_brand = 'Brand#12' AND l_quantity BETWEEN 1 AND 11 "
        "AND p_size BETWEEN 1 AND 5) "
        "OR (p_brand = 'Brand#23' AND l_quantity BETWEEN 10 AND 20 "
        "AND p_size BETWEEN 1 AND 10) "
        "OR (p_brand = 'Brand#34' AND l_quantity BETWEEN 20 AND 30 "
        "AND p_size BETWEEN 1 AND 15)",
        ("lineitem", "part"),
        """TPC-H Q19 under the gate (container/shipmode predicates dropped
        — those columns don't exist in the synthetic part/lineitem): the
        classic disjunction-of-conjunctions WHERE compiles to ONE pyarrow
        Kleene or_/and_ mask over the joined stream, then the cents
        revenue aggregate — hash-exact.""",
    ),
    "q_sql_frontend_like": SqlQuery(
        "SELECT source, count(*) AS n, "
        "count(*) FILTER (WHERE text LIKE '%the%') AS n_the, "
        "min(n_chars) AS c_min "
        "FROM documents WHERE lang LIKE 'e%' OR source LIKE '%wiki%' "
        "GROUP BY source ORDER BY source",
        ("documents",),
        """[NOT] LIKE under the gate: wildcard predicates in WHERE (under
        OR) compile to pc.match_like masks, and a LIKE inside a FILTER
        clause runs through the pandas 3VL tree (regex-translated with %
        and _ as the only metacharacters); DuckDB runs the identical
        string.""",
    ),
    "q_sql_frontend_tpch_q14": SqlQuery(
        "SELECT round(100.0 * sum(CASE WHEN p_type LIKE 'PROMO%' THEN "
        "cast(round(l_extendedprice * 100) AS bigint) * "
        "(100 - cast(round(l_discount * 100) AS bigint)) ELSE 0 END) / "
        "sum(cast(round(l_extendedprice * 100) AS bigint) * "
        "(100 - cast(round(l_discount * 100) AS bigint))), 6) "
        "AS promo_revenue "
        "FROM lineitem JOIN part ON part.p_partkey = lineitem.l_partkey "
        "WHERE l_shipdate >= date '1996-09-01' "
        "AND l_shipdate < date '1996-10-01'",
        ("lineitem", "part"),
        """TPC-H Q14 (promotion-revenue ratio, cents form) under the gate:
        sum(CASE WHEN p_type LIKE 'PROMO%' THEN cents ELSE 0 END) over the
        joined stream — CASE excised into the expression AST, evaluated as
        an int64 derive column — divided by the plain cents sum in a
        post-aggregate expression; both sums exact, rounding
        DuckDB-mirrored, hash-exact.""",
    ),
    "q_sql_frontend_tpch_q18": SqlQuery(
        "SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, "
        "sum(l_quantity) AS total_qty "
        "FROM customer "
        "JOIN orders ON customer.c_custkey = orders.o_custkey "
        "JOIN lineitem ON lineitem.l_orderkey = orders.o_orderkey "
        "WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem "
        "GROUP BY l_orderkey HAVING sum(l_quantity) > 300) "
        "GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice "
        "ORDER BY o_totalprice DESC, o_orderkey LIMIT 100",
        ("customer", "orders", "lineitem"),
        """TPC-H Q18 (large-volume customers) under the gate: the IN
        subquery is itself an aggregated query (GROUP BY + HAVING on a raw
        sum) planned recursively, its groups-sized key set semi-joined
        back into the customer x orders x lineitem chain; quantity sums
        are integer-valued doubles, so everything is hash-exact. The
        clause splitter is paren-aware — the inner GROUP BY/HAVING lives
        inside the subquery parens.""",
    ),
    "q_sql_frontend_tpch_q13": SqlQuery(
        "SELECT c_count, count(*) AS custdist FROM "
        "(SELECT c_custkey, count(o_orderkey) AS c_count FROM customer "
        "LEFT JOIN orders ON customer.c_custkey = orders.o_custkey "
        "GROUP BY c_custkey) c_orders "
        "GROUP BY c_count ORDER BY custdist DESC, c_count DESC",
        ("customer", "orders"),
        """TPC-H Q13 (customer order-count distribution) under the gate:
        the FROM is a DERIVED TABLE — the inner per-customer LEFT-join
        count plans recursively (groups-sized result), re-enters as an
        in-memory base, and the outer distribution groups over it.
        Integer counts throughout — hash-exact.""",
    ),
    "q_sql_frontend_qualify": SqlQuery(
        "SELECT user_id, event_id, "
        "row_number() OVER (PARTITION BY user_id ORDER BY event_id) AS rn "
        "FROM events QUALIFY rn <= 3 ORDER BY user_id, rn LIMIT 200",
        ("events",),
        """QUALIFY under the gate — the grouped top-k idiom: row numbers
        from one bucketed window shuffle, then a distributed pyarrow
        filter on the window output (no driver touch, no extra shuffle);
        DuckDB runs the identical string. (user_id, rn) is unique, so the
        LIMIT boundary is deterministic.""",
    ),
    "q_sql_frontend_tpch_q15": SqlQuery(
        "WITH revenue AS (SELECT l_suppkey AS supplier_no, "
        "round(sum(cast(round(l_extendedprice * 100) AS bigint) * "
        "(100 - cast(round(l_discount * 100) AS bigint))) / 10000.0, 2) "
        "AS total_revenue FROM lineitem "
        "WHERE l_shipdate >= date '1996-01-01' "
        "AND l_shipdate < date '1996-04-01' "
        "GROUP BY l_suppkey) "
        "SELECT s_suppkey, s_name, total_revenue "
        "FROM supplier JOIN revenue ON supplier.s_suppkey = "
        "revenue.supplier_no "
        "WHERE total_revenue = (SELECT max(total_revenue) FROM revenue) "
        "ORDER BY s_suppkey",
        ("lineitem", "supplier"),
        """TPC-H Q15 (top supplier, cents form) under the gate: the
        revenue CTE plans once and registers as an in-memory result-sized
        table, the scalar subquery takes its max over the SAME registered
        frame (no recompute), and the equality filter + supplier join
        resolve against exact cents-derived doubles — hash-exact.""",
    ),
    "q_sql_frontend_tpch_q17": SqlQuery(
        "WITH pa AS (SELECT l_partkey AS pkey, "
        "round(0.2 * sum(l_quantity) / count(*), 6) AS qty_limit "
        "FROM lineitem GROUP BY l_partkey) "
        "SELECT round(sum(cast(round(l_extendedprice * 100) AS bigint)) "
        "/ 100.0 / 7.0, 2) AS avg_yearly "
        "FROM lineitem JOIN pa ON pa.pkey = lineitem.l_partkey "
        "WHERE l_quantity < qty_limit",
        ("lineitem",),
        """TPC-H Q17 (small-quantity-order revenue) under the gate, the
        correlated subquery decorrelated into a per-part CTE (the standard
        rewrite): per-part 20%-of-average limits from one grouped pass,
        joined back, with a COLUMN-TO-COLUMN comparison (l_quantity <
        qty_limit) in the post-join WHERE; quantity sums exact, limits
        identical doubles in both engines — hash-exact.""",
    ),
    "q_sql_frontend_setops": SqlQuery(
        "SELECT o_orderpriority FROM orders WHERE o_orderstatus = 'F' "
        "INTERSECT "
        "SELECT o_orderpriority FROM orders WHERE o_totalprice > 200000 "
        "ORDER BY o_orderpriority",
        ("orders",),
        """INTERSECT under the gate: two filtered projections of the same
        table, set semantics with SQL's NULLs-are-equal rule, the trailing
        ORDER BY binding the whole chain; DuckDB runs the identical
        string.""",
    ),
    "q_sql_frontend_rollup": SqlQuery(
        "SELECT o_orderpriority, o_orderstatus, count(*) AS n, "
        "min(o_orderkey) AS k_min "
        "FROM orders GROUP BY ROLLUP(o_orderpriority, o_orderstatus) "
        "ORDER BY o_orderpriority, o_orderstatus, n",
        ("orders",),
        """GROUP BY ROLLUP under the gate: subtotal levels recompose from
        the finest level's combiner partials (one input pass total), with
        SQL-NULL subtotal keys; DuckDB runs the identical string.
        Integer-exact outputs keep the hash strict.""",
    ),
    "q_sql_frontend_stddev": SqlQuery(
        "SELECT lang, count(n_chars) AS n, stddev_samp(n_chars) AS sd, "
        "var_pop(n_chars) AS vp "
        "FROM documents GROUP BY lang ORDER BY lang",
        ("documents",),
        """stddev_samp / var_pop under the gate: one extra sum-of-squares
        partial rides the existing combiner (no second shuffle), and the
        two-pass recomposition (q − s·s/n)/(n or n−1) is bit-for-bit
        reproducible against an oracle spelling the same formula over
        exact integer sums.""",
        oracle=ORACLE_SQL_FRONTEND_STDDEV,
    ),
    "q_sql_frontend_corr": SqlQuery(
        "SELECT lang, count(*) AS n, corr(n_chars, doc_id) AS r, "
        "covar_samp(n_chars, doc_id) AS cs, "
        "covar_pop(n_chars, doc_id) AS cp, "
        "regr_slope(n_chars, doc_id) AS sl, "
        "regr_intercept(n_chars, doc_id) AS ic, "
        "regr_r2(n_chars, doc_id) AS r2 "
        "FROM documents GROUP BY lang ORDER BY lang",
        ("documents",),
        """Two-column statistical aggregates under the gate — corr /
        covar_samp / covar_pop / regr_slope / regr_intercept / regr_r2:
        six pairwise-masked sum partials per column pair ride the ONE
        existing combiner pass (no extra shuffle), and the fixed-op-order
        recomposition is bit-for-bit reproducible against an oracle
        spelling the same formula over exact integer sums.""",
        oracle=ORACLE_SQL_FRONTEND_CORR,
    ),
    "q_sql_frontend_median": SqlQuery(
        "SELECT event_type, count(value) AS n, median(value) AS med, "
        "quantile_cont(value, 0.25) AS p25, "
        "quantile_cont(value, 0.9) AS p90, "
        "quantile_disc(value, 0.5) AS d50 "
        "FROM events GROUP BY event_type ORDER BY event_type",
        ("events",),
        """Interpolated quantiles under the gate — median / quantile_cont
        alongside the element-semantics quantile_disc: one grouped-
        quantile hash shuffle per column, each bucket resolving all its
        groups vectorized. The interpolation replays DuckDB's Interpolator
        op order (lo·(CRN−RN) + hi·(RN−FRN) around RN=(n−1)·q) so the
        NATIVE aggregate is the oracle and the hash is bit-strict — no
        sums involved, so this holds for arbitrary doubles, not just
        integers.""",
    ),
    "q_sql_frontend_argmax": SqlQuery(
        "SELECT event_type, count(*) AS n, "
        "arg_max(value, ts) AS last_value, "
        "arg_min(value, ts) AS first_value "
        "FROM events GROUP BY event_type ORDER BY event_type",
        ("events",),
        """arg_max / arg_min (max_by / min_by) under the gate: a per-batch
        argmax combiner slims each batch to one row per group, then ONE
        bucketed narrow shuffle resolves the global winner vectorized —
        the value column never rides a full shuffle. Deterministic
        tie-break (max v at the extreme by) replayed explicitly by the
        oracle, so the hash is strict where DuckDB's native arg_max would
        be arrival-order-dependent.""",
        oracle=ORACLE_SQL_FRONTEND_ARGMAX,
    ),
    "q_sql_frontend_winframe": SqlQuery(
        "SELECT o_custkey, o_orderkey, "
        "min(o_totalprice) OVER (PARTITION BY o_custkey "
        "ORDER BY o_orderdate, o_orderkey "
        "ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS low_5, "
        "max(o_totalprice) OVER (PARTITION BY o_custkey "
        "ORDER BY o_orderdate, o_orderkey "
        "ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS high_5, "
        "lag(o_totalprice, 2) OVER (PARTITION BY o_custkey "
        "ORDER BY o_orderdate, o_orderkey) AS prev2 "
        "FROM orders ORDER BY o_custkey, o_orderkey",
        ("orders",),
        """Bounded window frames + offset lag under the gate — ROWS
        BETWEEN k PRECEDING AND CURRENT ROW compiles to the rolling window
        kinds and lag(col, n) to an offset shift, both riding the ONE
        bucketed window shuffle. Multi-column ORDER BY (orderdate,
        orderkey) gives a TOTAL order (orderkey is unique), and rolling
        min/max/lag are element picks — no accumulation — so the hash is
        strict on the double column. (The integral-sum rolling frames are
        pinned by the engine-level window fuzz; the synthetic lineitem
        has duplicate (orderkey, linenumber) pairs per supplier, so it
        offers no total order for a hash-strict SQL frame query.)""",
    ),
    "q_sql_frontend_stragg": SqlQuery(
        "SELECT n_regionkey, count(*) AS n, "
        "string_agg(n_name, ', ' ORDER BY n_name) AS nations, "
        "string_agg(DISTINCT n_name, '|' ORDER BY n_name DESC) AS rev "
        "FROM nation GROUP BY n_regionkey ORDER BY n_regionkey",
        ("nation",),
        """string_agg under the gate — ordered concatenation isn't a
        mergeable partial, so each aggregate rides ONE group_concat narrow
        shuffle (per-batch distinct combiner when DISTINCT, per-bucket
        mergesort + C-level join); ORDER BY the aggregated column itself
        keeps the element order layout-invariant. DuckDB runs the
        identical string.""",
    ),
    "q_sql_frontend_cross": SqlQuery(
        "SELECT r_name, n_name FROM region CROSS JOIN nation "
        "WHERE n_regionkey = r_regionkey ORDER BY r_name, n_name",
        ("region", "nation"),
        """CROSS JOIN under the gate — broadcast nested loop (right side
        ships once via the object store, bounded at the broadcast row
        budget; left streams). The column-to-column WHERE references both
        sides, so it filters the cartesian post-join — the theta-join
        spelling. DuckDB runs the identical string.""",
    ),
    "q_sql_frontend_exists": SqlQuery(
        "SELECT o_orderpriority, count(*) AS n FROM orders "
        "WHERE EXISTS (SELECT r_regionkey FROM region "
        "WHERE r_name = 'ASIA') "
        "AND NOT EXISTS (SELECT r_regionkey FROM region "
        "WHERE r_name = 'ATLANTIS') "
        "GROUP BY o_orderpriority ORDER BY o_orderpriority",
        ("orders", "region"),
        """Uncorrelated [NOT] EXISTS under the gate — each probe evaluates
        its subquery ONCE (raw projections capped at LIMIT 1 by the
        parser) and resolves to keep-all or keep-none before the combiner
        runs; correlated EXISTS stays with the operator API like other
        correlation. DuckDB runs the identical string.""",
    ),
    "q_sql_frontend_script": SqlQuery(
        """
CREATE TABLE big AS
  SELECT o_custkey, o_totalprice FROM orders
  WHERE o_totalprice > 150000;
CREATE TABLE spend AS
  SELECT o_custkey, count(*) AS n,
         sum(cast(o_totalprice * 100 AS BIGINT)) AS cents
  FROM big GROUP BY o_custkey;
SELECT n, count(*) AS n_customers,
       cast(sum(cents) AS BIGINT) AS total_cents
FROM spend GROUP BY n ORDER BY n
""",
        ("orders",),
        """Multi-statement SQL script under the gate — CREATE TABLE AS
        registers each result for later statements (the streamable first
        CTAS stays a LAZY Dataset re-planned into its consumer; the
        aggregated second materializes its groups-sized frame), and the
        final SELECT reads the chain. The oracle folds the script into
        one CTE statement — semantically identical — so the hash is
        strict in exact integer cents.""",
        oracle=ORACLE_SQL_FRONTEND_SCRIPT,
    ),
    "q_sql_frontend_exists_corr": SqlQuery(
        "SELECT o_orderpriority, count(*) AS order_count "
        "FROM orders o "
        "WHERE o.o_orderdate >= date '1996-01-01' "
        "AND o.o_orderdate < date '1996-10-01' "
        "AND EXISTS (SELECT l_orderkey FROM lineitem l "
        "WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity >= 48) "
        "GROUP BY o_orderpriority ORDER BY o_orderpriority",
        ("orders", "lineitem"),
        """TPC-H Q4 in its NATIVE correlated-EXISTS spelling: the planner
        decorrelates the single qualified equality into a hash semi-join
        key set (inner-only predicates stay with the inner scan), so the
        correlated form runs identically to the IN-subquery form — both
        sides stream, nothing per-row. DuckDB runs the identical string;
        the companion q_sql_frontend_tpch_q4 pins the IN spelling to the
        same answer.""",
    ),
    "q_sql_frontend_pivot": SqlQuery(
        "PIVOT events ON event_type USING count(value) "
        "GROUP BY user_id ORDER BY user_id",
        ("events",),
        """DuckDB's PIVOT statement form under the gate, compiled to
        pivot_agg: per-batch combiners on (keys, pivot), ONE key shuffle,
        reshape over the output-sized table; pivoted column names are the
        category values and missing count cells are 0 — DuckDB's rules.
        DuckDB runs the identical statement.""",
    ),
    "q_sql_frontend_unpivot": SqlQuery(
        "UNPIVOT part ON p_size, p_retailprice INTO NAME metric VALUE val",
        ("part",),
        """DuckDB's UNPIVOT statement form under the gate — per-batch melt
        (no shuffle, no state), every non-listed column rides as an id,
        NULL cells drop, mixed numeric columns coerce to double in both
        engines. DuckDB runs the identical statement.""",
    ),
    "q_sql_frontend_q22_native": SqlQuery(
        "SELECT substring(c_name, 18, 1) AS cntrycode, count(*) AS numcust, "
        "cast(sum(cast(round(c_acctbal * 100) AS bigint)) AS bigint) "
        "AS totacctbal_c "
        "FROM customer c "
        "WHERE substring(c_name, 18, 1) IN ('0', '1', '2', '3', '4') "
        "AND c_acctbal > (SELECT avg(c_acctbal) FROM customer "
        "WHERE c_acctbal > 0.0) "
        "AND NOT EXISTS (SELECT o_custkey FROM orders o "
        "WHERE o.o_custkey = c.c_custkey AND o.o_orderstatus = 'F') "
        "GROUP BY cntrycode ORDER BY cntrycode",
        ("customer", "orders"),
        """TPC-H Q22 in its NATIVE correlated NOT-EXISTS spelling — the
        planner decorrelates the single qualified equality into a hash
        anti-join key set (the inner status filter stays with the inner
        scan), alongside the substring country-code key and the
        scalar-aggregate threshold. Same answer as the NOT-IN companion
        q_sql_frontend_tpch_q22; DuckDB runs the identical string.""",
    ),
    "q_sql_frontend_gsets": SqlQuery(
        "SELECT o_orderpriority, o_orderstatus, count(*) AS n, "
        "cast(sum(o_custkey) AS bigint) AS ck, min(o_orderkey) AS k_min "
        "FROM orders GROUP BY GROUPING SETS "
        "((o_orderpriority, o_orderstatus), (o_orderstatus), ()) "
        "ORDER BY o_orderpriority, o_orderstatus, n",
        ("orders",),
        """GROUP BY GROUPING SETS under the gate: exactly the requested
        sets recompose from ONE combiner pass over the union of keys (the
        finest level appears only if asked for), with SQL-NULL keys for
        the grouped-out columns; DuckDB runs the identical string.
        Integer-exact outputs keep the hash strict.""",
    ),
    "q_sql_frontend_scalarfn": SqlQuery(
        "SELECT o_orderstatus, "
        "cast(sum(coalesce(nullif(least(o_custkey, 500), 500), 0)) "
        "AS bigint) AS s1, "
        "max(greatest(o_custkey, o_orderkey / 4)) AS g1, "
        "cast(min(least(o_custkey, o_orderkey)) AS bigint) AS l1, "
        "cast(sum(abs(o_custkey - 700)) AS bigint) AS sa, "
        "sum(floor(o_totalprice / 1000)) AS fl, "
        "sum(ceil(o_totalprice / 1000)) AS ce "
        "FROM orders GROUP BY o_orderstatus ORDER BY o_orderstatus",
        ("orders",),
        """Scalar numeric functions under the gate — coalesce / nullif /
        greatest / least / abs / floor / ceil nested inside aggregates,
        evaluated as one vectorized derive stage before the combiner;
        DuckDB runs the identical string. floor/ceil/abs over exact
        dyadic quotients and greatest/least over ints are IEEE-identical
        in both engines, so the hash stays strict.""",
    ),
    "q_sql_frontend_datefn": SqlQuery(
        "SELECT date_trunc('month', ts) AS mo, extract(dow from ts) AS dw, "
        "count(*) AS n, min(event_id) AS e_min "
        "FROM events GROUP BY mo, dw ORDER BY mo, dw",
        ("events",),
        """date_trunc + extract under the gate: a temporal derive column
        and a numeric extract leaf both serving as GROUP BY keys (dow is
        Sunday=0); DuckDB runs the identical string. Timestamps and
        bigints hash exactly.""",
    ),
    "q_sql_frontend_strfn": SqlQuery(
        "SELECT lower(c_mktsegment) AS seg, "
        "substring(c_name, 15, 2) AS sk, count(*) AS n, "
        "cast(sum(length(c_name || c_mktsegment)) AS bigint) AS sl, "
        "min(c_custkey) AS k_min, "
        "min(c_name) AS nm_min, max(c_name) AS nm_max "
        "FROM customer GROUP BY seg, sk ORDER BY seg, sk",
        ("customer",),
        """String functions under the gate — lower()/substring() derive
        columns as GROUP BY keys, length(a || b) as a numeric aggregate
        leaf, and min/max OVER STRING COLUMNS (NULL-skipping object
        partials that merge like any other combiner column), all evaluated
        as one vectorized derive stage (pyarrow utf8 kernels on the
        pure-Arrow path) before the combiner; DuckDB runs the identical
        string. Strings and bigints hash exactly.""",
    ),
    "q_sql_frontend_strpred": SqlQuery(
        "SELECT c_custkey, c_name, replace(c_mktsegment, 'I', '!') AS segx "
        "FROM customer "
        "WHERE (lower(c_mktsegment) LIKE '%i%' "
        "AND right(c_name, 1) IN ('0', '5')) "
        "OR trim(c_name) <> c_name "
        "ORDER BY c_custkey LIMIT 400",
        ("customer",),
        """String-expression predicates under the gate — function-call
        LHS in LIKE / IN / <>-vs-column (cmp2 with a string-expression
        side), compiled to the same zero-copy pyarrow masks as plain
        column predicates and pushed below any join; plus a replace()
        derive in the select list. DuckDB runs the identical string; the
        c_custkey total order plus LIMIT keeps the page deterministic.""",
    ),
    "q_sql_frontend_tpch_q7": SqlQuery(
        "WITH n1 AS (SELECT DISTINCT n_nationkey AS n1_key, "
        "n_name AS supp_nation FROM nation), "
        "n2 AS (SELECT DISTINCT n_nationkey AS n2_key, "
        "n_name AS cust_nation FROM nation) "
        "SELECT supp_nation, cust_nation, "
        "extract(year from l_shipdate) AS l_year, "
        + _CENTS_REV + " AS revenue, count(*) AS n_items "
        "FROM supplier "
        "JOIN lineitem ON supplier.s_suppkey = lineitem.l_suppkey "
        "JOIN orders ON lineitem.l_orderkey = orders.o_orderkey "
        "JOIN customer ON orders.o_custkey = customer.c_custkey "
        "JOIN n1 ON supplier.s_nationkey = n1.n1_key "
        "JOIN n2 ON customer.c_nationkey = n2.n2_key "
        "WHERE ((supp_nation = 'NATION_3' AND cust_nation = 'NATION_8') "
        "OR (supp_nation = 'NATION_8' AND cust_nation = 'NATION_3')) "
        "AND l_shipdate >= '1995-01-01' AND l_shipdate <= '1996-12-31' "
        "GROUP BY supp_nation, cust_nation, l_year "
        "ORDER BY supp_nation, cust_nation, l_year",
        ("nation", "supplier", "lineitem", "orders", "customer"),
        """TPC-H Q7 (volume shipping between two nations) under the gate.
        The classic self-join of nation is expressed as two DISTINCT
        column-renaming CTEs (the engine's result-sized CTE rule; nation
        keys are unique so DISTINCT is a no-op), joined into a FIVE-table
        left-deep chain, with the symmetric (supp, cust) OR condition in
        the post-join WHERE and extract(year) as a GROUP BY key. Revenue
        in exact integer cents — hash-exact vs DuckDB on the identical
        string.""",
    ),
    "q_sql_frontend_tpch_q8": SqlQuery(
        "WITH n1 AS (SELECT DISTINCT n_nationkey AS n1_key, "
        "n_regionkey AS n1_rkey FROM nation), "
        "n2 AS (SELECT DISTINCT n_nationkey AS n2_key, "
        "n_name AS supp_nation FROM nation) "
        "SELECT extract(year from o_orderdate) AS o_year, "
        "round(sum(CASE WHEN supp_nation = 'NATION_8' THEN "
        "cast(round(l_extendedprice * 100) AS bigint) * "
        "(100 - cast(round(l_discount * 100) AS bigint)) ELSE 0 END) "
        "* 1.0 / sum(cast(round(l_extendedprice * 100) AS bigint) * "
        "(100 - cast(round(l_discount * 100) AS bigint))), 6) AS mkt_share "
        "FROM part "
        "JOIN lineitem ON part.p_partkey = lineitem.l_partkey "
        "JOIN supplier ON lineitem.l_suppkey = supplier.s_suppkey "
        "JOIN orders ON lineitem.l_orderkey = orders.o_orderkey "
        "JOIN customer ON orders.o_custkey = customer.c_custkey "
        "JOIN n1 ON customer.c_nationkey = n1.n1_key "
        "JOIN region ON n1.n1_rkey = region.r_regionkey "
        "JOIN n2 ON supplier.s_nationkey = n2.n2_key "
        "WHERE r_name = 'ASIA' AND p_type = 'ECONOMY' "
        "AND o_orderdate >= '1995-01-01' AND o_orderdate <= '1996-12-31' "
        "GROUP BY o_year ORDER BY o_year",
        (
            "nation",
            "region",
            "part",
            "supplier",
            "lineitem",
            "orders",
            "customer",
        ),
        """TPC-H Q8 (national market share) under the gate: a SEVEN-table
        left-deep join chain (part, lineitem, supplier, orders, customer,
        both nation roles via renaming CTEs, region), a conditional
        aggregate (CASE inside sum) over exact integer-cent volumes, and
        a post-aggregate share division rounded to 6 places — both
        engines divide the identical exact integers, so the quotient is
        the identical double. Hash-exact vs DuckDB.""",
    ),
    "q_sql_frontend_tpch_q9": SqlQuery(
        "SELECT n_name, extract(year from o_orderdate) AS o_year, "
        + _CENTS_REV + " AS sum_profit "
        "FROM part "
        "JOIN lineitem ON part.p_partkey = lineitem.l_partkey "
        "JOIN supplier ON lineitem.l_suppkey = supplier.s_suppkey "
        "JOIN orders ON lineitem.l_orderkey = orders.o_orderkey "
        "JOIN nation ON supplier.s_nationkey = nation.n_nationkey "
        "WHERE p_name LIKE '%gear%' "
        "GROUP BY n_name, o_year ORDER BY n_name, o_year DESC",
        ("nation", "part", "supplier", "lineitem", "orders"),
        """TPC-H Q9 (product-type profit by nation and year) under the
        gate, adapted to the schema: the synthetic tables carry no
        partsupp/ps_supplycost, so profit reduces to discounted revenue
        (exact integer cents). Substring LIKE on p_name at the scan,
        five-table chain, extract(year) GROUP BY key, ORDER BY with a
        DESC component. Hash-exact vs DuckDB on the identical string.""",
    ),
    "q_sql_frontend_tpch_q12": SqlQuery(
        "SELECT l_returnflag, "
        "cast(sum(CASE WHEN o_orderpriority = '1-URGENT' "
        "OR o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END) AS bigint) "
        "AS high_line_count, "
        "cast(sum(CASE WHEN o_orderpriority <> '1-URGENT' "
        "AND o_orderpriority <> '2-HIGH' THEN 1 ELSE 0 END) AS bigint) "
        "AS low_line_count "
        "FROM orders JOIN lineitem ON orders.o_orderkey = lineitem.l_orderkey "
        "WHERE l_shipdate >= '1996-01-01' AND l_shipdate < '1997-01-01' "
        "GROUP BY l_returnflag ORDER BY l_returnflag",
        ("orders", "lineitem"),
        """TPC-H Q12 (shipping-priority line counts) under the gate,
        adapted: the synthetic lineitem has no l_shipmode/commit/receipt
        dates, so the priority-class CASE counts group by l_returnflag
        over a ship-date year — the same two complementary conditional
        aggregates over one join. Integer counts hash exactly.""",
    ),
    "q_sql_frontend_tpch_q21": SqlQuery(
        "SELECT s_name, count(*) AS numwait "
        "FROM supplier JOIN lineitem ON supplier.s_suppkey = "
        "lineitem.l_suppkey "
        "WHERE l_returnflag = 'R' AND l_orderkey IN "
        "(SELECT l_orderkey FROM lineitem GROUP BY l_orderkey "
        "HAVING count(DISTINCT l_suppkey) > 1) "
        "GROUP BY s_name ORDER BY numwait DESC, s_name LIMIT 20",
        ("supplier", "lineitem"),
        """TPC-H Q21 (suppliers who kept orders waiting) under the gate,
        adapted: without commit/receipt dates the correlated EXISTS pair
        becomes its set-semantics core — returned ('R') lineitems on
        MULTI-SUPPLIER orders, via an aggregated IN-subquery whose HAVING
        uses exact count(DISTINCT). The subquery's distinct-supplier
        count runs as the bucketed distinct pass; the probe is a shuffle
        semi-join. DESC count with s_name tie-break keeps the LIMIT page
        total-ordered — hash-exact.""",
    ),
    "q_sql_frontend_tpch_q22": SqlQuery(
        "SELECT substring(c_name, 18, 1) AS cntrycode, count(*) AS numcust, "
        "cast(sum(cast(round(c_acctbal * 100) AS bigint)) AS bigint) "
        "AS totacctbal_c "
        "FROM customer "
        "WHERE substring(c_name, 18, 1) IN ('0', '1', '2', '3', '4') "
        "AND c_acctbal > (SELECT avg(c_acctbal) FROM customer "
        "WHERE c_acctbal > 0.0) "
        "AND c_custkey NOT IN (SELECT o_custkey FROM orders "
        "WHERE o_orderstatus = 'F') "
        "GROUP BY cntrycode ORDER BY cntrycode",
        ("customer", "orders"),
        """TPC-H Q22 (global sales opportunity) under the gate, adapted:
        the synthetic customer has no c_phone, so the country code is a
        substring of c_name (the last key digit) — a STRING-FUNCTION
        predicate LHS and GROUP BY key. Keeps all three Q22 mechanisms:
        the substring IN-list, the scalar-aggregate subquery threshold
        (avg over positive balances; both engines compare the identical
        double), and NOT IN an uncorrelated subquery (customers with no
        'F'-status orders — the no-orders-at-all form is empty at every
        sf because every customer orders). Account balances summed in
        exact cents — hash-exact.""",
    ),
    "q_sql_frontend_full_join": SqlQuery(
        "WITH hc AS (SELECT c_nationkey AS nk_c, count(*) AS n_cust, "
        "cast(sum(cast(round(c_acctbal * 100) AS bigint)) AS bigint) "
        "AS cust_bal_c "
        "FROM customer WHERE c_acctbal > 9000 GROUP BY c_nationkey), "
        "hs AS (SELECT s_nationkey AS nk_s, count(*) AS n_supp "
        "FROM supplier WHERE s_acctbal > 5000 GROUP BY s_nationkey) "
        "SELECT nk_c, nk_s, n_cust, n_supp, cust_bal_c "
        "FROM hc FULL OUTER JOIN hs ON hc.nk_c = hs.nk_s "
        "ORDER BY nk_c, nk_s",
        ("customer", "supplier"),
        """FULL OUTER JOIN under the gate: per-nation high-balance
        customer and supplier rollups (aggregated CTEs) full-joined on
        nation key — nations rich on only one side genuinely exercise
        both preserved directions (each side's key column NULL on the
        other side's rows, which is why the engine joins on renamed
        copies of BOTH keys: Ray/Acero would otherwise coalesce them).
        Balances in exact cents — hash-exact vs DuckDB.""",
    ),
    "q_sql_frontend_right_join": SqlQuery(
        "WITH hs AS (SELECT s_nationkey AS nk, count(*) AS n_high, "
        "cast(sum(cast(round(s_acctbal * 100) AS bigint)) AS bigint) "
        "AS bal_c "
        "FROM supplier WHERE s_acctbal > 8000 GROUP BY s_nationkey) "
        "SELECT n_name, n_high, bal_c FROM hs "
        "RIGHT JOIN nation ON hs.nk = nation.n_nationkey "
        "ORDER BY n_name",
        ("supplier", "nation"),
        """RIGHT [OUTER] JOIN under the gate: every nation survives with
        NULL rollup columns where no high-balance supplier exists — at
        sf0.001 the left side is provably EMPTY and the planner resolves
        it (NULL-pads the preserved right side) without running a join at
        all, the same short-circuit that guards Ray's no-schema-on-empty
        hazard. Hash-exact vs DuckDB.""",
    ),
    "q_sql_frontend_left_join": SqlQuery(
        "SELECT c_mktsegment, count(o_orderkey) AS n_orders, "
        "count(*) AS n_rows "
        "FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey "
        "GROUP BY c_mktsegment ORDER BY c_mktsegment",
        ("customer", "orders"),
        """LEFT OUTER variant: customers with no orders survive the join and
        count(col) skips their NULLs while count(*) keeps the row — the
        classic outer-join counting asymmetry, hash-gated against DuckDB on
        the identical string.""",
    ),
}


def q_events_weighted_sample(sf_dir: str):
    """Deterministic weighted (probability-proportional-to-spend)
    Bernoulli sample (functions.insights.weighted_bernoulli_sample):
    each event kept with p = cents/20000 decided by its id's
    multiplicative u64 hash — layout/rerun-invariant and growth-stable,
    no RNG. The oracle replays the identical HUGEINT hash draw and
    clamp, so the exact sampled-row set (summarized per type) sits
    under the hash gate."""
    from recon_ray.functions.insights import weighted_bernoulli_sample

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_id": b["event_id"],
                             "event_type": b["event_type"],
                             "cents": _cents(b["value"])})

    ev = (_t(sf_dir, "events")
          .select_columns(["event_id", "event_type", "value"])
          .map_batches(prep, batch_format="pandas"))
    samp = weighted_bernoulli_sample(ev, "cents", cap=20000,
                                     id_col="event_id")
    parts = samp.map_batches(
        lambda b: b.groupby("event_type", as_index=False)
        .agg(n=("event_id", "size"), sum_cents=("cents", "sum")),
        batch_format="pandas",
    ).to_pandas()
    if parts.empty:
        return pd.DataFrame({"event_type": pd.Series(dtype=object),
                             "n": pd.Series(dtype="int64"),
                             "sum_cents": pd.Series(dtype="int64")})
    out = parts.groupby("event_type", as_index=False).agg(
        n=("n", "sum"), sum_cents=("sum_cents", "sum"))
    out["n"] = out["n"].astype("int64")
    out["sum_cents"] = out["sum_cents"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


ORACLE_EVENTS_WEIGHTED_SAMPLE = """
WITH s AS (
  SELECT event_type, CAST(round(value * 100) AS BIGINT) AS cents
  FROM events
  WHERE ((event_id::HUGEINT * 11400714819323198485)
         % 18446744073709551616) % 20000
        < GREATEST(CAST(round(value * 100) AS BIGINT), 0)
)
SELECT event_type, count(*)::BIGINT AS n, sum(cents)::BIGINT AS sum_cents
FROM s GROUP BY 1 ORDER BY 1
"""


def q_events_incremental_agg(sf_dir: str):
    """Incremental aggregate maintenance (state/aggstore.py): events
    arrive as THREE deltas (event_id mod 3 — a stand-in for daily
    partitions), each folded into versioned parquet state by one
    combiner pass + one groups-sized merge shuffle; delta 0 is then
    RE-APPLIED and must be a no-op (the idempotence contract sits under
    the hash gate). The oracle recomputes the same rollup from scratch
    over all events — maintained ≡ recomputed."""
    import tempfile

    from recon_ray.functions.relational import arrow_filter
    from recon_ray.state.aggstore import AggStore

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "day": (b["event_id"].to_numpy() % 3).astype("int64"),
            "event_type": b["event_type"],
            "user_bucket": (b["user_id"].to_numpy() % 10).astype("int64"),
            "cents": _cents(b["value"]),
        })

    ev = (_t(sf_dir, "events")
          .select_columns(["event_id", "event_type", "user_id", "value"])
          .map_batches(prep, batch_format="pandas"))
    store = AggStore(tempfile.mkdtemp(prefix="aggstore_"),
                     keys=["event_type", "user_bucket"],
                     value_cols=["cents"])

    def delta(k: int):
        return arrow_filter(
            ev, lambda t, k=k: pc.equal(t.column("day"), pa.scalar(k)))

    for k in (0, 1, 2):
        store.apply_delta(delta(k), f"day{k}")
    res = store.apply_delta(delta(0), "day0")  # idempotent re-run
    assert res["skipped"], "re-applied delta must be a no-op"
    out = store.resolved().to_pandas()
    out = pd.DataFrame({
        "event_type": out["event_type"],
        "user_bucket": out["user_bucket"].astype("int64"),
        "n_rows": out["n_rows"].astype("int64"),
        "cents_sum": out["cents_sum"].astype("int64"),
        "cents_min": out["cents_min"].astype("int64"),
        "cents_max": out["cents_max"].astype("int64"),
    })
    return out.sort_values(["event_type", "user_bucket"]).reset_index(
        drop=True)


ORACLE_EVENTS_INCREMENTAL_AGG = """
WITH c AS (
  SELECT event_type, user_id % 10 AS user_bucket,
         CAST(round(value * 100) AS BIGINT) AS cents
  FROM events
)
SELECT event_type, user_bucket, count(*)::BIGINT AS n_rows,
       sum(cents)::BIGINT AS cents_sum, min(cents)::BIGINT AS cents_min,
       max(cents)::BIGINT AS cents_max
FROM c GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_events_user_gini(sf_dir: str):
    """Gini coefficient of per-user spend — the inequality metric every
    marketplace dashboard carries. Per-user cents totals come from one
    combiner groupby (users-sized); the coefficient uses the exact
    rank identity G = (2·Σ i·x_(i) − (n+1)·Σx) / (n·Σx) with
    deterministic (cents, user_id) rank order, all-integer until the
    single division at 6 dp; the oracle replays it with a row_number
    window."""
    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"user_id": b["user_id"],
                             "cents": _cents(b["value"])})

    parts = (
        _t(sf_dir, "events").map_batches(prep, batch_format="pandas")
        .map_batches(
            lambda b: b.groupby("user_id", as_index=False)["cents"].sum(),
            batch_format="pandas",
        ).to_pandas()
    )
    tot = parts.groupby("user_id", as_index=False)["cents"].sum()
    tot = tot.sort_values(["cents", "user_id"],
                          kind="mergesort").reset_index(drop=True)
    x = tot["cents"].to_numpy(np.int64)
    n = len(x)
    sx = int(x.sum())
    num = 2 * int((np.arange(1, n + 1, dtype=np.int64) * x).sum()) \
        - (n + 1) * sx
    return pd.DataFrame({
        "n_users": pd.Series([n], dtype="int64"),
        "total_cents": pd.Series([sx], dtype="int64"),
        "gini": [round(num / (n * sx), 6)],
    })


def q_events_user_twap(sf_dir: str):
    """Time-weighted average value per user (the TWAP of telemetry and
    finance): each event's cents weight by the seconds until the user's
    next event, divided by the user's active span. Composition: one
    user-key window pass ("lead" on integer epoch seconds), then a
    combiner weighted-sum — all-integer numerators (cents × seconds
    stays far inside int64), one final division at 6 dp. Users whose
    span is zero drop. Oracle: the identical lead window in SQL."""
    from recon_ray.functions.relational import window_over

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": b["user_id"],
            "event_id": b["event_id"],
            "t": b["ts"].to_numpy().astype("int64") // 1_000_000,
            "cents": _cents(b["value"]),
        })

    w = window_over(
        _t(sf_dir, "events").map_batches(prep, batch_format="pandas"),
        partition_by="user_id", order_by=["t", "event_id"],
        specs=[("lead", "t", "next_t")],
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        has = b["next_t"].notna()
        dur = (b["next_t"] - b["t"]).where(has, 0).astype("int64")
        return (
            b.assign(__num=(b["cents"] * dur).astype("int64"),
                     __lo=b["t"], __hi=b["t"])
            .groupby("user_id", as_index=False)
            .agg(num=("__num", "sum"), lo=("__lo", "min"),
                 hi=("__hi", "max"))
        )

    parts = w.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby("user_id", as_index=False).agg(
        num=("num", "sum"), lo=("lo", "min"), hi=("hi", "max"))
    agg = agg[agg["hi"] > agg["lo"]]
    out = pd.DataFrame({
        "user_id": agg["user_id"].astype("int64"),
        "twap": (agg["num"] / (agg["hi"] - agg["lo"])).round(6),
    })
    return out.sort_values("user_id").reset_index(drop=True)


ORACLE_EVENTS_USER_TWAP = """
WITH e AS (
  SELECT user_id, event_id,
         date_diff('second', TIMESTAMP '1970-01-01', ts) AS t,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
), w AS (
  SELECT user_id, t, cents,
         lead(t) OVER (PARTITION BY user_id
                       ORDER BY t, event_id) AS next_t
  FROM e
), a AS (
  SELECT user_id,
         sum(CASE WHEN next_t IS NULL THEN 0
                  ELSE cents * (next_t - t) END) AS num,
         min(t) AS lo, max(t) AS hi
  FROM w GROUP BY 1
)
SELECT user_id, round(num::DOUBLE / (hi - lo), 6) AS twap
FROM a WHERE hi > lo ORDER BY user_id
"""


ORACLE_EVENTS_USER_GINI = """
WITH u AS (
  SELECT user_id,
         sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS cents
  FROM events GROUP BY 1
), r AS (
  SELECT cents,
         row_number() OVER (ORDER BY cents, user_id) AS i
  FROM u
), a AS (
  SELECT count(*) AS n, sum(cents) AS sx, sum(i * cents) AS sxi FROM r
)
SELECT n::BIGINT AS n_users, sx::BIGINT AS total_cents,
       round((2 * sxi - (n + 1) * sx)::DOUBLE / (n * sx), 6) AS gini
FROM a
"""


def q_events_auc(sf_dir: str):
    """Exact ROC-AUC (functions.ml.auc_score): does event value predict
    purchases? Mann-Whitney rank-sum with tie-averaged ranks kept
    INTEGRAL (2·avg_rank = 2·c_less + n + 1) until the single final
    division — one combiner pass builds the distinct-score table, the
    cumulative scan runs on it. The oracle replays the identical
    arithmetic with a window cumulative sum."""
    from recon_ray.functions.ml import auc_score

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "s": _cents(b["value"]),
            "y": (b["event_type"] == "purchase").astype("int64"),
        })

    r = auc_score(
        _t(sf_dir, "events").map_batches(prep, batch_format="pandas"),
        "s", "y")
    return pd.DataFrame({
        "n_pos": pd.Series([r["n_pos"]], dtype="int64"),
        "n_neg": pd.Series([r["n_neg"]], dtype="int64"),
        "auc": [r["auc"]],
    })


ORACLE_EVENTS_AUC = """
WITH e AS (
  SELECT CAST(floor(value * 100 + 0.5) AS BIGINT) AS s,
         CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS y
  FROM events WHERE value IS NOT NULL
), t AS (
  SELECT s, count(*) AS n, sum(y) AS pos FROM e GROUP BY 1
), c AS (
  SELECT s, n, pos,
         coalesce(sum(n) OVER (ORDER BY s ROWS BETWEEN UNBOUNDED
                               PRECEDING AND 1 PRECEDING), 0) AS c_less
  FROM t
), agg AS (
  SELECT sum(pos) AS np, sum(n) - sum(pos) AS nn,
         sum(pos * (2 * c_less + n + 1)) AS trs
  FROM c
)
SELECT np::BIGINT AS n_pos, nn::BIGINT AS n_neg,
       round((trs - np * (np + 1))::DOUBLE / (2 * np * nn), 6) AS auc
FROM agg
"""


def q_events_chi2_type_weekday(sf_dir: str):
    """Chi-square independence test on the event_type × weekday
    contingency table: observed counts from ONE combiner groupby, the
    statistic from expected = row·col/n over the tiny table on the
    driver. Counts are exact integers; the χ² sums in (type, weekday)
    order and rounds to 6 dp — the oracle replays the identical
    expected-count arithmetic."""

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        wd = b["ts"].dt.dayofweek.astype("int64")  # Monday=0, ISO-ish
        return pd.DataFrame({"event_type": b["event_type"], "wd": wd})

    parts = (
        _t(sf_dir, "events").select_columns(["event_type", "ts"])
        .map_batches(prep, batch_format="pandas")
        .map_batches(
            lambda b: b.groupby(["event_type", "wd"], as_index=False)
            .size(),
            batch_format="pandas",
        ).to_pandas()
    )
    obs = parts.groupby(["event_type", "wd"])["size"].sum().unstack(
        fill_value=0).sort_index()
    obs = obs.reindex(sorted(obs.columns), axis=1)
    o = obs.to_numpy(np.int64)
    n = o.sum()
    e = o.sum(axis=1, keepdims=True) * o.sum(axis=0, keepdims=True) / n
    chi2 = 0.0
    for i in range(o.shape[0]):          # fixed (type, weekday) order:
        for j in range(o.shape[1]):      # deterministic float summation
            if e[i, j] > 0:
                d = o[i, j] - e[i, j]
                chi2 += d * d / e[i, j]
    dof = (o.shape[0] - 1) * (o.shape[1] - 1)
    return pd.DataFrame({
        "n": pd.Series([int(n)], dtype="int64"),
        "dof": pd.Series([dof], dtype="int64"),
        "chi2": [round(chi2, 6)],
    })


ORACLE_EVENTS_CHI2 = """
WITH o AS (
  SELECT event_type, isodow(ts) - 1 AS wd, count(*)::BIGINT AS c
  FROM events GROUP BY 1, 2
), tot AS (
  SELECT sum(c) AS n FROM o
), rt AS (SELECT event_type, sum(c) AS r FROM o GROUP BY 1),
ct AS (SELECT wd, sum(c) AS k FROM o GROUP BY 1),
cell AS (
  SELECT o.c, rt.r * ct.k / tot.n AS e
  FROM o JOIN rt USING (event_type) JOIN ct USING (wd), tot
)
SELECT (SELECT n FROM tot)::BIGINT AS n,
       ((SELECT count(*) FROM rt) - 1)
         * ((SELECT count(*) FROM ct) - 1) AS dof,
       round(sum((c - e) * (c - e) / e), 6) AS chi2
FROM cell
"""


def q_events_winsorized(sf_dir: str):
    """Winsorized robust totals: per event_type, cents clamp to the
    exact [p5, p95] element quantiles (sketches.grouped_quantiles,
    quantile_disc semantics) before summing — the standard
    outlier-resistant preprocessing for revenue metrics. One grouped-
    quantile shuffle, then a combiner clamp-and-sum pass against the
    broadcast fences; all-integer, bit-exact vs the SQL replay."""
    import ray as _ray

    from recon_ray.functions.sketches import grouped_quantiles

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": b["event_type"],
                             "cents": _cents(b["value"])})

    ev = _t(sf_dir, "events").map_batches(prep, batch_format="pandas")
    qs = grouped_quantiles(ev, "event_type", "cents", [0.05, 0.95])
    lo = dict(zip(qs[qs["q"] == 0.05]["event_type"],
                  qs[qs["q"] == 0.05]["value"]))
    hi = dict(zip(qs[qs["q"] == 0.95]["event_type"],
                  qs[qs["q"] == 0.95]["value"]))
    ref = _ray.put((lo, hi))

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        lo_, hi_ = _ray.get(ref) if isinstance(ref, _ray.ObjectRef) else ref
        c = b["cents"].clip(
            lower=b["event_type"].map(lo_),
            upper=b["event_type"].map(hi_),
        ).astype("int64")
        return (
            b.assign(__s=c, __n=np.int64(1))
            .groupby("event_type", as_index=False)[["__s", "__n"]].sum()
        )

    parts = ev.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("event_type", as_index=False)[["__s", "__n"]].sum()
    out = out.rename(columns={"__s": "cents_winsorized", "__n": "n"})
    out["n"] = out["n"].astype("int64")
    out["cents_winsorized"] = out["cents_winsorized"].astype("int64")
    return (
        out[["event_type", "n", "cents_winsorized"]]
        .sort_values("event_type").reset_index(drop=True)
    )


ORACLE_EVENTS_WINSORIZED = """
WITH e AS (
  SELECT event_type,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events WHERE value IS NOT NULL
), q AS (
  SELECT event_type, quantile_disc(cents, 0.05) AS lo,
         quantile_disc(cents, 0.95) AS hi
  FROM e GROUP BY 1
)
SELECT e.event_type, count(*)::BIGINT AS n,
       sum(CASE WHEN e.cents < q.lo THEN q.lo
                WHEN e.cents > q.hi THEN q.hi
                ELSE e.cents END)::BIGINT AS cents_winsorized
FROM e JOIN q USING (event_type)
GROUP BY e.event_type ORDER BY e.event_type
"""


def q_events_mad_outliers(sf_dir: str):
    """Grouped robust outliers (functions.stats.grouped_mad_outliers):
    per event_type, rows with |cents − median| > 3·MAD — median and MAD
    in exact quantile_disc element semantics over integer cents, so the
    whole robust fence replays bit-exact in SQL. Two grouped-quantile
    shuffles + one combiner counting pass."""
    from recon_ray.functions.stats import grouped_mad_outliers

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": b["event_type"],
                             "cents": _cents(b["value"])})

    out = grouped_mad_outliers(
        _t(sf_dir, "events").map_batches(prep, batch_format="pandas"),
        "event_type", "cents", k=3.0,
    )
    out["med"] = out["med"].astype("int64")
    out["mad"] = out["mad"].astype("int64")
    return out


ORACLE_EVENTS_MAD_OUTLIERS = """
WITH e AS (
  SELECT event_type,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events WHERE value IS NOT NULL
), m AS (
  SELECT event_type, quantile_disc(cents, 0.5) AS med
  FROM e GROUP BY 1
), d AS (
  SELECT e.event_type, e.cents, m.med, abs(e.cents - m.med) AS ad
  FROM e JOIN m USING (event_type)
), s AS (
  SELECT event_type, quantile_disc(ad, 0.5) AS mad FROM d GROUP BY 1
)
SELECT d.event_type, any_value(d.med)::BIGINT AS med,
       any_value(s.mad)::BIGINT AS mad,
       count(*)::BIGINT AS n,
       count(*) FILTER (d.ad > 3 * s.mad)::BIGINT AS n_outliers
FROM d JOIN s USING (event_type)
GROUP BY d.event_type ORDER BY d.event_type
"""


def q_validate_suite(sf_dir: str):
    """Declarative data-validation suite (functions/validate.py): seven
    expectations over events — not_null / range / accepted-values / regex
    in ONE combiner pyarrow pass, two exact-unique rules (one bucketed
    distinct shuffle each) and a referential-integrity rule
    (user_id ⊆ customer.c_custkey) as a hash-partition anti semi-join.
    The oracle recomputes every rule's violation and denominator in SQL,
    so both the happy counts (fk holds: 0 orphans, event_id unique) and
    the violating ones (values outside [5, 95], the excluded 'error'
    type, duplicated user_ids) sit under the hash gate."""
    from recon_ray.functions.validate import check_expectations

    rules = [
        {"kind": "not_null", "col": "props"},
        {"kind": "range", "col": "value", "lo": 5.0, "hi": 95.0},
        {"kind": "accepted", "col": "event_type",
         "values": ["view", "click", "purchase", "signup"]},
        {"kind": "regex", "col": "props", "pattern": "^\\{"},
        {"kind": "unique", "col": "event_id"},
        {"kind": "unique", "col": "user_id"},
        {"kind": "fk", "col": "user_id", "ref": "customer",
         "ref_col": "c_custkey"},
    ]
    return check_expectations(
        _t(sf_dir, "events"), rules,
        refs={"customer": _t(sf_dir, "customer")},
    )


ORACLE_VALIDATE_SUITE = r"""
SELECT rule, violations::BIGINT AS violations,
       n_checked::BIGINT AS n_checked
FROM (VALUES
  ('accepted.event_type',
   (SELECT count(*) FROM events WHERE event_type IS NOT NULL
      AND event_type NOT IN ('view','click','purchase','signup')),
   (SELECT count(event_type) FROM events)),
  ('fk.user_id',
   (SELECT count(*) FROM events e WHERE user_id IS NOT NULL
      AND NOT EXISTS (SELECT 1 FROM customer c
                      WHERE c.c_custkey = e.user_id)),
   (SELECT count(user_id) FROM events)),
  ('not_null.props',
   (SELECT count(*) FROM events WHERE props IS NULL),
   (SELECT count(*) FROM events)),
  ('range.value',
   (SELECT count(*) FROM events WHERE value IS NOT NULL
      AND (value < 5.0 OR value > 95.0)),
   (SELECT count(value) FROM events)),
  ('regex.props',
   (SELECT count(*) FROM events WHERE props IS NOT NULL
      AND NOT regexp_matches(props, '^\{')),
   (SELECT count(props) FROM events)),
  ('unique.event_id',
   (SELECT count(event_id) - count(DISTINCT event_id) FROM events),
   (SELECT count(event_id) FROM events)),
  ('unique.user_id',
   (SELECT count(user_id) - count(DISTINCT user_id) FROM events),
   (SELECT count(user_id) FROM events))
) AS t(rule, violations, n_checked)
ORDER BY rule
"""


def q_orders_merge_upsert(sf_dir: str):
    """MERGE / upsert (functions.relational.merge_upsert): updates
    replace matched base rows, unmatched updates insert, survivors pass
    through — derived deterministically from orders (keys %7 update with
    +1000 price, keys %13 insert under key+10M), then a grouped checksum
    of the merged table. One key shuffle + bucketed argmax; the oracle
    replays the precedence with a row_number window over the union."""
    from recon_ray.functions.relational import merge_upsert

    base = _t(sf_dir, "orders").select_columns(
        ["o_orderkey", "o_orderstatus", "o_totalprice"]
    )

    def mk_updates(b: pd.DataFrame) -> pd.DataFrame:
        upd = b[b["o_orderkey"] % 7 == 0].copy()
        upd["o_totalprice"] = upd["o_totalprice"] + 1000.0
        ins = b[b["o_orderkey"] % 13 == 0].copy()
        ins["o_orderkey"] = ins["o_orderkey"] + 10_000_000
        return pd.concat([upd, ins], ignore_index=True)

    updates = base.map_batches(mk_updates, batch_format="pandas")
    merged = merge_upsert(base, updates, key="o_orderkey")

    def cents(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"o_orderstatus": b["o_orderstatus"],
             "price_c": _cents(b["o_totalprice"])}
        )

    g = grouped_agg(merged.map_batches(cents, batch_format="pandas"),
                    "o_orderstatus", {"price_c": ["sum", "count"]})
    out = pd.DataFrame(
        {"o_orderstatus": g["o_orderstatus"],
         "n_orders": g["price_c_count"].astype("int64"),
         "total_price": _round_away(g["price_c_sum"] / 100.0, 2)}
    )
    return out.sort_values("o_orderstatus").reset_index(drop=True)


ORACLE_ORDERS_MERGE_UPSERT = """
WITH updates AS (
  SELECT o_orderkey, o_orderstatus, o_totalprice + 1000 AS o_totalprice
  FROM orders WHERE o_orderkey % 7 = 0
  UNION ALL
  SELECT o_orderkey + 10000000, o_orderstatus, o_totalprice
  FROM orders WHERE o_orderkey % 13 = 0
),
u AS (
  SELECT o_orderkey, o_orderstatus, o_totalprice, 1 AS src FROM updates
  UNION ALL
  SELECT o_orderkey, o_orderstatus, o_totalprice, 0 AS src FROM orders
),
m AS (
  SELECT *, row_number() OVER (PARTITION BY o_orderkey
                               ORDER BY src DESC) AS rn
  FROM u
)
SELECT o_orderstatus, count(*)::BIGINT AS n_orders,
       round(sum(round(o_totalprice * 100)::BIGINT) / 100.0, 2)
         AS total_price
FROM m WHERE rn = 1 GROUP BY 1 ORDER BY 1
"""


def q_lineitem_price_tiles(sf_dir: str):
    """NTILE + PERCENT_RANK window kinds (functions.relational.
    window_over): quartile tiles of extended price within each return
    flag under a total order, summarized per (flag, tile). One hash
    shuffle, vectorized per-bucket kernels."""
    from recon_ray.functions.relational import window_over

    li = _t(sf_dir, "lineitem").select_columns(
        ["l_returnflag", "l_extendedprice", "l_orderkey", "l_linenumber"]
    )
    w = window_over(
        li, "l_returnflag",
        ["l_extendedprice", "l_orderkey", "l_linenumber"],
        [("ntile", "4", "tile"), ("percent_rank", None, "pr")],
    )
    g = grouped_agg(w, ["l_returnflag", "tile"],
                    {"pr": ["max", "count"]})
    out = pd.DataFrame(
        {"l_returnflag": g["l_returnflag"],
         "tile": g["tile"].astype("int64"),
         "n_rows": g["pr_count"].astype("int64"),
         "max_pr": _round_away(g["pr_max"], 6)}
    )
    return out.sort_values(["l_returnflag", "tile"]).reset_index(drop=True)


ORACLE_LINEITEM_PRICE_TILES = """
WITH w AS (
  SELECT l_returnflag,
         ntile(4) OVER (PARTITION BY l_returnflag
                        ORDER BY l_extendedprice, l_orderkey,
                                 l_linenumber) AS tile,
         percent_rank() OVER (PARTITION BY l_returnflag
                              ORDER BY l_extendedprice, l_orderkey,
                                       l_linenumber) AS pr
  FROM lineitem
)
SELECT l_returnflag, tile, count(*)::BIGINT AS n_rows,
       round(max(pr), 6) AS max_pr
FROM w GROUP BY 1, 2 ORDER BY 1, 2
"""


KEYWORD_DICT = ["batch", "data", "merge", "spark window", "vector"]


def doc_keyword_tags(sf_dir: str):
    """Dictionary / gazetteer tagging (functions.text.dictionary_tag):
    broadcast keyword list, one C-speed vectorized count pass per
    keyword per batch (multi-word keywords included), per-keyword
    independent non-overlapping counts — the exact rule the SQL
    replace-length oracle replays."""
    from recon_ray.functions.text import dictionary_tag

    tags = dictionary_tag(
        _t(sf_dir, "documents").select_columns(["doc_id", "text"]),
        KEYWORD_DICT,
    )
    g = grouped_agg(tags, "keyword", {"n_hits": ["sum", "count"]})
    out = pd.DataFrame(
        {"keyword": g["keyword"],
         "n_hits": g["n_hits_sum"].astype("int64"),
         "n_docs": g["n_hits_count"].astype("int64")}
    )
    return out.sort_values("keyword").reset_index(drop=True)


ORACLE_DOC_KEYWORD_TAGS = """
WITH kws(kw) AS (
  VALUES ('batch'), ('data'), ('merge'), ('spark window'), ('vector')
),
c AS (
  SELECT kw,
         (length(text) - length(replace(text, kw, ''))) / length(kw)
           AS cnt
  FROM documents, kws
)
SELECT kw AS keyword, sum(cnt)::BIGINT AS n_hits,
       (count(*) FILTER (cnt > 0))::BIGINT AS n_docs
FROM c GROUP BY 1 HAVING sum(cnt) > 0 ORDER BY 1
"""



def q_events_type_user_hll(sf_dir: str):
    """Per-group approximate distinct (functions.sketches.
    grouped_hll_distinct): distinct users per event type from per-group
    HLL register rows merged by elementwise max — register rows ride the
    shuffle, never raw user ids. No SQL oracle (HLL estimates aren't
    SQL-expressible); pytest bounds the error vs exact and pins layout
    invariance. The exact companion is q_events_distinct_users."""
    from recon_ray.functions.sketches import grouped_hll_distinct

    out = (
        grouped_hll_distinct(
            _t(sf_dir, "events").select_columns(["event_type", "user_id"]),
            "event_type", "user_id", p=12,
        )
        .to_pandas().sort_values("event_type").reset_index(drop=True)
    )
    out["estimate"] = _round_away(out["estimate"], 2)
    return out



def emb_unnest_dims(sf_dir: str):
    """UNNEST a ``list<float>`` column (functions.relational.explode_list):
    every 50th vector explodes to (vec_id, dim, val) rows via per-batch
    ``list_flatten`` / ``list_parent_indices`` Arrow kernels — an
    embarrassingly parallel map, no shuffle. val upcast float32→float64
    (exact) so both engines hash identical bits."""
    from recon_ray.functions.relational import explode_list

    def pick(t: pa.Table) -> pa.Table:
        # arrow filter (NOT pandas — a pandas round-trip would rewrite the
        # list<float> column as Ray's tensor extension type); int divide
        # truncates, so v - (v/50)*50 is v % 50
        v = t["vec_id"]
        fifty = pa.scalar(50, pa.int64())
        mask = pc.equal(v, pc.multiply(pc.divide(v, fifty), fifty))
        return t.filter(mask).select(["vec_id", "embedding"])

    sel = _t(sf_dir, "embeddings").map_batches(
        pick, batch_format="pyarrow", zero_copy_batch=True
    )
    out = (
        explode_list(sel, "embedding", value_name="val", pos_name="dim")
        .to_pandas()
        .sort_values(["vec_id", "dim"])
        .reset_index(drop=True)
    )
    out["val"] = out["val"].astype("float64")
    return out[["vec_id", "dim", "val"]]


ORACLE_EMB_UNNEST = """
SELECT vec_id, dim, CAST(val AS DOUBLE) AS val FROM (
  SELECT vec_id,
         generate_subscripts(embedding, 1) - 1 AS dim,
         unnest(embedding) AS val
  FROM embeddings WHERE vec_id % 50 = 0
) ORDER BY vec_id, dim
"""


def doc_regex_extract(sf_dir: str):
    """All 5+-letter word matches per document with ordinality
    (functions.text.regex_extract_all) — the SQL
    UNNEST(regexp_extract_all(...)) table function as a distributed
    flat-map. RE2-safe pattern, so DuckDB finds byte-identical spans;
    full hash gate over every (doc_id, ord, match) row."""
    from recon_ray.functions.text import regex_extract_all

    out = (
        regex_extract_all(
            _t(sf_dir, "documents").select_columns(["doc_id", "text"]),
            r"[a-z]{5,}",
        )
        .to_pandas()
        .sort_values(["doc_id", "ord"])
        .reset_index(drop=True)
    )
    out["doc_id"] = out["doc_id"].astype("int64")
    return out[["doc_id", "ord", "match"]]


ORACLE_DOC_REGEX_EXTRACT = """
SELECT doc_id, (generate_subscripts(l, 1))::BIGINT AS ord,
       unnest(l) AS match
FROM (SELECT doc_id, regexp_extract_all(text, '[a-z]{5,}') AS l
      FROM documents)
ORDER BY doc_id, ord
"""


def emb_quantize_int8(sf_dir: str):
    """Per-vector symmetric int8 quantization (functions.ml
    .quantize_embeddings) flattened to (vec_id, dim, q) for every 50th
    vector — the memory-scale path for 100-TB embedding tables. The
    quantization rule is exact IEEE-double arithmetic, so DuckDB's
    identical list expression reproduces every int8 code: full hash
    gate."""
    from recon_ray.functions.ml import quantize_embeddings

    def pick(t: pa.Table) -> pa.Table:
        v = t["vec_id"]
        fifty = pa.scalar(50, pa.int64())
        mask = pc.equal(v, pc.multiply(pc.divide(v, fifty), fifty))
        return t.filter(mask).select(["vec_id", "embedding"])

    sel = _t(sf_dir, "embeddings").map_batches(
        pick, batch_format="pyarrow", zero_copy_batch=True
    )
    q = quantize_embeddings(sel).to_pandas()
    rows = []
    for vid, qv in zip(q["vec_id"], q["qvec"]):
        arr = np.asarray(qv, dtype=np.int64)
        rows.append(pd.DataFrame(
            {"vec_id": np.int64(vid), "dim": np.arange(len(arr)),
             "q": arr}
        ))
    out = pd.concat(rows, ignore_index=True)
    out["dim"] = out["dim"].astype("int64")
    return out.sort_values(["vec_id", "dim"]).reset_index(drop=True)


ORACLE_EMB_QUANTIZE = """
WITH sel AS (
  SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS e
  FROM embeddings WHERE vec_id % 50 = 0
), m AS (
  SELECT vec_id, e,
         list_max(list_transform(e, x -> abs(x))) / 127.0 AS scale
  FROM sel
), flat AS (
  SELECT vec_id, generate_subscripts(e, 1) - 1 AS dim,
         unnest(e) AS val, scale
  FROM m
)
SELECT vec_id, dim::BIGINT AS dim,
       CASE WHEN scale = 0 THEN 0
            ELSE CAST(trunc(val / scale + 0.5 * sign(val / scale)) AS BIGINT)
       END AS q
FROM flat ORDER BY vec_id, dim
"""


def doc_compression_signals(sf_dir: str):
    """Compressibility + encoding-health quality signals
    (functions.text.compression_signals): zlib-6 ratio (low-entropy
    boilerplate detector — the FineWeb/CCNet-style filter), non-printable
    and U+FFFD rates, all integer ppm. zlib output bytes are
    deterministic for a pinned level but not SQL-expressible, so this is
    a rows-only gate; determinism and the planted-boilerplate ordering
    are pinned in tests/test_functions.py."""
    from recon_ray.functions.text import compression_signals

    out = (
        _t(sf_dir, "documents")
        .map_batches(compression_signals, batch_format="pyarrow",
                     zero_copy_batch=True)
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def part_fuzzy_catalog_link(sf_dir: str):
    """Two-table record linkage (functions.dedup.fuzzy_join): the
    distinct part names matched against a deterministically "dirtied"
    catalog (each name pluralized) under blocking on the first 4 chars
    and Levenshtein ≤ 2 — cross-name matches like 'hot gear' ↔ 'hot
    gears' AND 'red widget' ↔ 'red widgets' surface; far names drop.
    The dirty side is SQL-derivable, so DuckDB's levenshtein() replays
    the whole linkage byte-exact under the hash gate."""
    from recon_ray.functions.dedup import fuzzy_join
    from recon_ray.functions.relational import distinct

    names = distinct(
        _t(sf_dir, "part").select_columns(["p_name"]), ["p_name"]
    )
    dirty = names.map_batches(
        lambda b: pd.DataFrame({"rname": b["p_name"] + "s"}),
        batch_format="pandas",
    )
    out = (
        fuzzy_join(names, dirty, "p_name", "rname",
                   block_len=4, max_dist=2)
        .to_pandas()
        .sort_values(["left_value", "right_value"])
        .reset_index(drop=True)
    )
    return out


ORACLE_PART_FUZZY_LINK = """
WITH l AS (SELECT DISTINCT p_name AS lname FROM part),
r AS (SELECT DISTINCT p_name || 's' AS rname FROM part)
SELECT lname AS left_value, rname AS right_value,
       levenshtein(lname, rname)::BIGINT AS dist
FROM l JOIN r ON substr(lname, 1, 4) = substr(rname, 1, 4)
WHERE levenshtein(lname, rname) <= 2
ORDER BY left_value, right_value
"""


def doc_chunks(sf_dir: str):
    """Sliding-window chunking (functions.text.chunk_texts): docs over
    400 chars split into 300-char windows at stride 200 — the
    long-document splitter that runs before sequence packing. No
    shuffle; window starts are numpy run arithmetic per batch."""
    from recon_ray.functions.text import chunk_texts

    out = (
        chunk_texts(
            _t(sf_dir, "documents").select_columns(["doc_id", "text"]),
            size=300, stride=200, min_chars=400,
        )
        .to_pandas()
        .sort_values(["doc_id", "chunk_idx"])
        .reset_index(drop=True)
    )
    out["doc_id"] = out["doc_id"].astype("int64")
    return out


ORACLE_DOC_CHUNKS = """
SELECT doc_id, (off / 200)::BIGINT AS chunk_idx,
       substr(text, (off + 1)::INT, 300) AS chunk
FROM (
  SELECT doc_id, text,
         unnest(range(0, length(text)::BIGINT, 200)) AS off
  FROM documents WHERE length(text) > 400
)
ORDER BY doc_id, chunk_idx
"""


def q_events_value_drift(sf_dir: str):
    """PSI drift monitor (functions.stats.psi_drift) between two
    deterministic 'versions' of events (event_id parity): bin edges =
    side A's 9 interior quantile_disc order statistics (two streaming
    passes, no sort), binning = Σ(v ≥ edge_i) — replayed verbatim by
    the oracle as a sum of boolean casts — one combiner count pass per
    side, smoothed proportions, 6-dp PSI terms with DuckDB's
    half-away rounding."""
    from recon_ray.functions.stats import psi_drift

    ev = _t(sf_dir, "events").select_columns(["event_id", "value"])

    def _side(parity: int):
        def f(t: pa.Table, p=parity) -> pa.Table:
            keep = pc.equal(
                pc.bit_wise_and(t.column("event_id"), 1), p)
            return t.filter(keep)

        return ev.map_batches(f, batch_format="pyarrow",
                              zero_copy_batch=True)

    a, b = _side(0), _side(1)
    out = psi_drift(a, b, "value", n_bins=10)
    return out.sort_values("bin").reset_index(drop=True)


def _oracle_events_value_drift() -> str:
    n_bins = 10
    edges = ", ".join(
        f"quantile_disc(value, {i / n_bins}) AS e{i}"
        for i in range(1, n_bins))
    binexpr = " + ".join(
        f"(value >= e{i})::BIGINT" for i in range(1, n_bins))
    pa = "(coalesce(ba.c, 0) + 0.5) / (n.na + 5.0)"
    pb = "(coalesce(bb.c, 0) + 0.5) / (n.nb + 5.0)"
    return f"""
WITH a AS (SELECT value FROM events
           WHERE event_id % 2 = 0 AND value IS NOT NULL),
b AS (SELECT value FROM events
      WHERE event_id % 2 = 1 AND value IS NOT NULL),
e AS (SELECT {edges} FROM a),
ba AS (SELECT ({binexpr}) AS bin, count(*) AS c FROM a, e GROUP BY 1),
bb AS (SELECT ({binexpr}) AS bin, count(*) AS c FROM b, e GROUP BY 1),
n AS (SELECT (SELECT count(*) FROM a) AS na,
             (SELECT count(*) FROM b) AS nb),
bins AS (SELECT unnest(generate_series(0, {n_bins - 1}))::BIGINT
         AS bin),
terms AS (
  SELECT bins.bin,
    coalesce(ba.c, 0)::BIGINT AS count_a,
    coalesce(bb.c, 0)::BIGINT AS count_b,
    round(({pa} - {pb}) * ln(({pa}) / ({pb})), 6) AS psi_term
  FROM bins
  LEFT JOIN ba ON ba.bin = bins.bin
  LEFT JOIN bb ON bb.bin = bins.bin
  CROSS JOIN n
)
SELECT * FROM terms
UNION ALL
SELECT -1, n.na, n.nb, round((SELECT sum(psi_term) FROM terms), 6)
FROM n
ORDER BY bin
"""


ORACLE_EVENTS_VALUE_DRIFT = _oracle_events_value_drift()


def q_events_value_variance(sf_dir: str):
    """Grouped variance/stddev (functions.relational.grouped_variance):
    per event type over integer cents, in exact moment form — n·Σx²−(Σx)²
    merged as arbitrary-precision ints, ONE float conversion, IEEE sqrt —
    bit-identical to the HUGEINT moment form in SQL, immune to summation
    order."""
    from recon_ray.functions.relational import grouped_variance

    ev = _t(sf_dir, "events").select_columns(["event_type", "value"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "vc": _cents_arrow(t.column("value")),
            }
        )

    out = grouped_variance(
        ev.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True),
        "event_type", "vc", sample=True,
    )
    return (
        out.rename(columns={"var": "var_c2", "std": "std_c"})
        .sort_values("event_type")
        .reset_index(drop=True)
    )


ORACLE_EVENTS_VARIANCE = """
WITH e AS (
  SELECT event_type, CAST(floor(value * 100 + 0.5) AS BIGINT) AS vc
  FROM events
)
SELECT event_type, count(*)::BIGINT AS n,
       ((count(*) * sum(vc * vc) - sum(vc) * sum(vc))::DOUBLE
        / (count(*) * (count(*) - 1))::DOUBLE)        AS var_c2,
       sqrt((count(*) * sum(vc * vc) - sum(vc) * sum(vc))::DOUBLE
        / (count(*) * (count(*) - 1))::DOUBLE)        AS std_c
FROM e GROUP BY event_type ORDER BY event_type
"""


def q_events_value_hour_corr(sf_dir: str):
    """Grouped Pearson correlation (functions.relational.grouped_corr):
    value cents vs hour-of-day per event type, exact moment form (see
    q_events_value_variance for the determinism argument)."""
    from recon_ray.functions.relational import grouped_corr

    ev = _t(sf_dir, "events").select_columns(["event_type", "ts", "value"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": b["event_type"],
                "vc": _cents(b["value"]),
                "hr": b["ts"].dt.hour.astype("int64"),
            }
        )

    out = grouped_corr(
        ev.map_batches(prep, batch_format="pandas"),
        "event_type", "vc", "hr",
    )
    return out.sort_values("event_type").reset_index(drop=True)


ORACLE_EVENTS_HOUR_CORR = """
WITH e AS (
  SELECT event_type,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS vc,
         hour(ts)::BIGINT AS hr
  FROM events
)
SELECT event_type, count(*)::BIGINT AS n,
       ((count(*) * sum(vc * hr) - sum(vc) * sum(hr))::DOUBLE
        / (sqrt((count(*) * sum(vc * vc) - sum(vc) * sum(vc))::DOUBLE)
           * sqrt((count(*) * sum(hr * hr) - sum(hr) * sum(hr))::DOUBLE)))
         AS corr
FROM e GROUP BY event_type ORDER BY event_type
"""


def q_events_window_dist(sf_dir: str):
    """Second window-family query: CUME_DIST (with and without ties),
    FIRST_VALUE / LAST_VALUE (whole-partition frame), and partition-total
    SUM (the ratio-to-report shape) per user. cume_dist's single int/int
    float division is IEEE-exact in both engines; everything else is
    int64."""
    from recon_ray.functions.relational import window_over

    ev = _t(sf_dir, "events").select_columns(
        ["event_id", "user_id", "value"]
    )

    def prep(t: pa.Table) -> pa.Table:
        vc = _cents_arrow(t.column("value"))
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "value_cents": vc,
                "value_bucket": pc.cast(
                    pc.floor(pc.divide(pc.cast(vc, pa.float64()),
                                       pa.scalar(1000.0))),
                    pa.int64(),
                ),
            }
        )

    w1 = window_over(
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        "user_id",
        ["value_cents", "event_id"],
        [
            ("cume_dist", None, "cd"),
            ("first_value", "value_cents", "fv"),
            ("last_value", "value_cents", "lv"),
            ("partition_sum", "value_cents", "total_cents"),
        ],
    )
    # tie-heavy second pass: order by the coarse bucket alone — cume_dist
    # is tie-run-invariant, so the output is deterministic without a
    # total order
    out = window_over(
        w1, "user_id", ["value_bucket"], [("cume_dist", None, "cd_bucket")]
    ).to_pandas()
    out["total_cents"] = out["total_cents"].astype("int64")
    out = out[
        ["event_id", "user_id", "value_cents", "cd", "fv", "lv",
         "total_cents", "cd_bucket"]
    ]
    return out.sort_values("event_id").reset_index(drop=True)


ORACLE_EVENTS_WINDOW_DIST = """
WITH e AS (
  SELECT event_id, user_id,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_cents,
         CAST(floor(CAST(floor(value * 100 + 0.5) AS BIGINT) / 1000.0)
              AS BIGINT) AS value_bucket
  FROM events
)
SELECT event_id, user_id, value_cents,
       cume_dist() OVER (PARTITION BY user_id
                         ORDER BY value_cents, event_id) AS cd,
       first_value(value_cents) OVER (PARTITION BY user_id
                         ORDER BY value_cents, event_id) AS fv,
       last_value(value_cents) OVER (PARTITION BY user_id
                         ORDER BY value_cents, event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND UNBOUNDED FOLLOWING) AS lv,
       (sum(value_cents) OVER (PARTITION BY user_id))::BIGINT
         AS total_cents,
       cume_dist() OVER (PARTITION BY user_id ORDER BY value_bucket)
         AS cd_bucket
FROM e ORDER BY event_id
"""


def q_orders_status_concat(sf_dir: str):
    """Grouped ordered string concatenation (functions.relational
    .group_concat): per order priority the distinct statuses joined
    ascending — SQL string_agg(DISTINCT … ORDER BY …). Per-batch
    distinct runs BEFORE the shuffle, so only unique (priority, status)
    pairs ride it."""
    from recon_ray.functions.relational import group_concat

    out = (
        group_concat(
            _t(sf_dir, "orders").select_columns(
                ["o_orderpriority", "o_orderstatus"]
            ),
            "o_orderpriority", "o_orderstatus",
            sep=",", distinct=True, alias="statuses",
        )
        .to_pandas()
        .sort_values("o_orderpriority")
        .reset_index(drop=True)
    )
    return out


ORACLE_ORDERS_STATUS_CONCAT = """
SELECT o_orderpriority,
       string_agg(DISTINCT o_orderstatus, ',' ORDER BY o_orderstatus)
         AS statuses
FROM orders GROUP BY 1 ORDER BY 1
"""


def q17_small_quantity_revenue(sf_dir: str):
    """TPC-H Q17 shape — correlated per-group aggregate: revenue from
    Brand#1 lineitems whose quantity is below 20% of that part's average
    quantity. Distributed form: brand partkeys broadcast as a semi-join
    filter, per-part (sum_qty, count) via the combiner grouped_agg, the
    resulting per-part threshold table broadcast back over the lineitem
    stream, and the comparison done in exact int64 cents
    (qc·5·cnt < sum_qc ⟺ q < 0.2·avg) so both engines agree bit-for-bit.
    Only one small-side collect (per-part aggregates of ONE brand —
    |parts|/|brands| rows); lineitem is never materialized."""
    parts = _pdf(sf_dir, "part")
    pks = set(parts.loc[parts["p_brand"] == "Brand#1", "p_partkey"])
    li = semi_join(
        _t(sf_dir, "lineitem").select_columns(
            ["l_partkey", "l_quantity", "l_extendedprice"]
        ),
        pks, "l_partkey",
    )

    def add_cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_partkey": t.column("l_partkey"),
                "qc": _cents_arrow(t.column("l_quantity")),
                "pc_": _cents_arrow(t.column("l_extendedprice")),
            }
        )

    slim = li.map_batches(add_cents, batch_format="pyarrow",
                          zero_copy_batch=True)
    per_part = grouped_agg(slim, "l_partkey", {"qc": ["sum", "count"]})
    per_part = per_part.rename(columns={"qc_sum": "sqc", "qc_count": "cnt"})
    per_part["sqc"] = per_part["sqc"].astype("int64")
    per_part["cnt"] = per_part["cnt"].astype("int64")
    joined = broadcast_join(slim, per_part, on="l_partkey")

    def below(b: pd.DataFrame) -> pd.DataFrame:
        keep = b[b["qc"] * 5 * b["cnt"] < b["sqc"]]
        return pd.DataFrame({"pc_": keep["pc_"]})

    total = joined.map_batches(below, batch_format="pandas").sum("pc_")
    return pd.DataFrame(
        {"avg_yearly": [_round_away(pd.Series([total / 700.0]), 2).iloc[0]]}
    )


ORACLE_Q17 = """
WITH t AS (
  SELECT l_partkey,
         round(l_quantity * 100)::BIGINT      AS qc,
         round(l_extendedprice * 100)::BIGINT AS pc_
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE p_brand = 'Brand#1'
), a AS (
  SELECT l_partkey, sum(qc)::BIGINT AS sqc, count(*)::BIGINT AS cnt
  FROM t GROUP BY 1
)
SELECT round(sum(t.pc_)::BIGINT / 700.0, 2) AS avg_yearly
FROM t JOIN a USING (l_partkey)
WHERE t.qc * 5 * a.cnt < a.sqc
"""


def q22_global_sales_opportunity(sf_dir: str):
    """TPC-H Q22 shape — scalar correlated subquery + NOT EXISTS:
    customers in nation set {1,3,5,7,9} whose balance beats the positive
    average of that set and who placed no URGENT order, counted per
    nation.
    Distributed form: the scalar threshold is a 2-number global combiner
    aggregate; the NOT EXISTS is an anti-join against the distinct
    orderer set (distinct keys broadcast — at 100 TB swap in the Bloom
    prefilter + shuffle anti-join, the compare stays identical); all
    balance math in int64 cents (bc·cnt > sum_c ⟺ bal > avg)."""
    from recon_ray.functions.relational import anti_join

    nations = {1, 3, 5, 9, 7}
    cust = _t(sf_dir, "customer")

    def prep(t: pa.Table) -> pa.Table:
        keep = t.filter(
            pc.is_in(t["c_nationkey"],
                     value_set=pa.array(sorted(nations), pa.int32()))
        )
        return pa.table(
            {
                "c_custkey": keep.column("c_custkey"),
                "c_nationkey": keep.column("c_nationkey"),
                "bc": _cents_arrow(keep.column("c_acctbal")),
            }
        )

    slim = cust.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)

    def pos_partial(b: pd.DataFrame) -> pd.DataFrame:
        p = b.loc[b["bc"] > 0, "bc"]
        return pd.DataFrame({"s": [int(p.sum())], "n": [int(len(p))]})

    partials = slim.map_batches(pos_partial, batch_format="pandas")
    sum_c, cnt = int(partials.sum("s")), int(partials.sum("n"))

    orderers = distinct(
        arrow_filter(
            _t(sf_dir, "orders"),
            lambda t: pc.equal(t.column("o_orderpriority"), "1-URGENT"),
        ).select_columns(["o_custkey"]),
        "o_custkey",
    ).to_pandas()
    rich = slim.map_batches(
        lambda b: b[b["bc"] * cnt > sum_c], batch_format="pandas"
    )
    no_orders = anti_join(
        rich, set(orderers["o_custkey"]), "c_custkey"
    ).to_pandas()
    g = (
        no_orders.groupby("c_nationkey", sort=True)
        .agg(numcust=("c_custkey", "size"), tot_c=("bc", "sum"))
        .reset_index()
    )
    out = pd.DataFrame(
        {
            "c_nationkey": g["c_nationkey"].astype("int32"),
            "numcust": g["numcust"].astype("int64"),
            "totacctbal": _round_away(g["tot_c"] / 100.0, 2),
        }
    )
    return out


ORACLE_Q22 = """
WITH c AS (
  SELECT c_custkey, c_nationkey,
         round(c_acctbal * 100)::BIGINT AS bc
  FROM customer WHERE c_nationkey IN (1, 3, 5, 7, 9)
), thresh AS (
  SELECT sum(bc)::BIGINT AS s, count(*)::BIGINT AS n
  FROM c WHERE bc > 0
)
SELECT c_nationkey, count(*)::BIGINT AS numcust,
       round(sum(bc)::BIGINT / 100.0, 2) AS totacctbal
FROM c, thresh
WHERE bc * n > s
  AND NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_orderpriority = '1-URGENT')
GROUP BY c_nationkey ORDER BY c_nationkey
"""


def q_orders_top3_per_priority(sf_dir: str):
    """Per-group top-k (functions.relational.grouped_topk): 3 priciest
    orders per priority under the total order (price desc, orderkey
    asc). Local per-group top-k per batch means at most k rows per
    group per batch ride the shuffle. Oracle = row_number window."""
    from recon_ray.functions.relational import grouped_topk

    out = (
        grouped_topk(
            _t(sf_dir, "orders").select_columns(
                ["o_orderpriority", "o_totalprice", "o_orderkey"]
            ),
            "o_orderpriority", "o_totalprice", k=3,
            ascending=False, tie_cols=["o_orderkey"],
        )
        .to_pandas()
        .sort_values(["o_orderpriority", "o_totalprice", "o_orderkey"],
                     ascending=[True, False, True], kind="mergesort")
        .reset_index(drop=True)
    )
    out["o_orderkey"] = out["o_orderkey"].astype("int64")
    return out[["o_orderpriority", "o_orderkey", "o_totalprice"]]


ORACLE_ORDERS_TOP3_PER_PRIORITY = """
SELECT o_orderpriority, o_orderkey, o_totalprice FROM (
  SELECT o_orderpriority, o_orderkey, o_totalprice,
         row_number() OVER (PARTITION BY o_orderpriority
                            ORDER BY o_totalprice DESC, o_orderkey ASC)
           AS rn
  FROM orders
) WHERE rn <= 3
ORDER BY o_orderpriority, o_totalprice DESC, o_orderkey
"""


# ---------------------------------------------------------------------------
# TPC-H second wave — the remaining join/EXISTS shapes expressible over this
# corpus (no partsupp table and no commit/receipt dates exist, so Q2/Q9/Q11/
# Q16/Q20 are out of reach and Q4/Q21's "late line" predicate is adapted to
# l_returnflag = 'R'; every join/correlation SHAPE is the TPC-H one).
# ---------------------------------------------------------------------------


def q4_order_priority(sf_dir: str):
    """TPC-H Q4 shape — date-window + EXISTS semi-join + group count:
    orders placed in 1996Q3 having at least one returned ('R') lineitem,
    counted per priority. Distributed form: both sides stay Datasets and
    the EXISTS runs as a hash-partitioned ``shuffle_semi_join`` (the
    returned-lineitem side may be arbitrarily large — its key set is
    never collected to the driver)."""
    from recon_ray.functions.relational import shuffle_semi_join

    ords = arrow_filter(
        _t(sf_dir, "orders").select_columns(["o_orderkey", "o_orderdate",
                                             "o_orderpriority"]),
        lambda t: pc.and_(
            pc.greater_equal(t.column("o_orderdate"),
                             pa.scalar(pd.Timestamp("1996-07-01"))),
            pc.less(t.column("o_orderdate"),
                    pa.scalar(pd.Timestamp("1996-10-01"))),
        ),
    )
    flagged = arrow_filter(
        _t(sf_dir, "lineitem").select_columns(["l_orderkey", "l_returnflag"]),
        lambda t: pc.equal(t.column("l_returnflag"), pa.scalar("R")),
    )
    kept = shuffle_semi_join(ords, flagged, on="o_orderkey",
                             right_on="l_orderkey")
    out = group_count(kept, "o_orderpriority", alias="order_count")
    return out.sort_values("o_orderpriority").reset_index(drop=True)


ORACLE_Q4 = """
SELECT o_orderpriority, count(*)::BIGINT AS order_count
FROM orders
WHERE o_orderdate >= DATE '1996-07-01' AND o_orderdate < DATE '1996-10-01'
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_returnflag = 'R')
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


def q7_volume_shipping(sf_dir: str):
    """TPC-H Q7 shape — two-nation volume shipping: revenue between
    supplier-nation/customer-nation pairs (NATION_3 ↔ NATION_8) per ship
    year, 1995–1996. Distributed form: lineitem streams once; the two
    nation attributions broadcast in as small dicts (supplier→nation is
    dim-sized; order→customer-nation is the orders dim PRE-FILTERED to
    customers of the two nations, so the broadcast is a fraction of the
    orders table); revenue in exact int64 cents."""
    nat = _pdf(sf_dir, "nation")[["n_nationkey", "n_name"]]
    pair = {"NATION_3", "NATION_8"}
    nat2 = nat[nat["n_name"].isin(pair)]
    sup = _pdf(sf_dir, "supplier")[["s_suppkey", "s_nationkey"]].merge(
        nat2, left_on="s_nationkey", right_on="n_nationkey"
    )[["s_suppkey", "n_name"]].rename(columns={"n_name": "supp_nation"})
    cust = _pdf(sf_dir, "customer")[["c_custkey", "c_nationkey"]].merge(
        nat2, left_on="c_nationkey", right_on="n_nationkey"
    )[["c_custkey", "n_name"]].rename(columns={"n_name": "cust_nation"})
    omap = _pdf(sf_dir, "orders")[["o_orderkey", "o_custkey"]].merge(
        cust, left_on="o_custkey", right_on="c_custkey"
    )[["o_orderkey", "cust_nation"]]

    li = arrow_filter(
        _t(sf_dir, "lineitem").select_columns(
            ["l_orderkey", "l_suppkey", "l_shipdate",
             "l_extendedprice", "l_discount"]
        ),
        lambda t: pc.and_(
            pc.greater_equal(t.column("l_shipdate"),
                             pa.scalar(pd.Timestamp("1995-01-01"))),
            pc.less_equal(t.column("l_shipdate"),
                          pa.scalar(pd.Timestamp("1996-12-31"))),
        ),
    )

    def prep(t: pa.Table) -> pa.Table:
        t = _add_revenue_part(t)
        return pa.table(
            {"l_orderkey": t.column("l_orderkey"),
             "l_suppkey": t.column("l_suppkey"),
             "l_year": pc.cast(pc.year(t.column("l_shipdate")), pa.int64()),
             "revenue_part": t.column("revenue_part")}
        )

    slim = li.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    j = broadcast_join(slim, sup, on="l_suppkey", small_on="s_suppkey")
    j = broadcast_join(j, omap, on="l_orderkey", small_on="o_orderkey")
    j = j.map_batches(
        lambda b: b[b["supp_nation"] != b["cust_nation"]],
        batch_format="pandas",
    )
    g = grouped_agg(j, ["supp_nation", "cust_nation", "l_year"],
                    {"revenue_part": ["sum"]})
    g["revenue"] = _round_away(
        g["revenue_part_sum"].astype("int64") / 10000.0, 2
    )
    g = g.sort_values(["supp_nation", "cust_nation", "l_year"])
    return g[["supp_nation", "cust_nation", "l_year",
              "revenue"]].reset_index(drop=True)


ORACLE_Q7 = """
SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
       year(l_shipdate)::BIGINT AS l_year,
       round(sum(round(l_extendedprice * 100)::BIGINT
                 * (100 - round(l_discount * 100)::BIGINT)) / 10000.0, 2)
         AS revenue
FROM supplier
JOIN lineitem ON s_suppkey = l_suppkey
JOIN orders   ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN nation n1 ON s_nationkey = n1.n_nationkey
JOIN nation n2 ON c_nationkey = n2.n_nationkey
WHERE ((n1.n_name = 'NATION_3' AND n2.n_name = 'NATION_8')
    OR (n1.n_name = 'NATION_8' AND n2.n_name = 'NATION_3'))
  AND l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'
GROUP BY 1, 2, 3
ORDER BY 1, 2, 3
"""


def q8_market_share(sf_dir: str):
    """TPC-H Q8 shape — national market share: NATION_2-suppliers' share
    of PROMO-part revenue sold to ASIA customers, per order year
    1996–1997. Distributed form: lineitem pre-prunes on a broadcast
    PROMO-partkey semi-filter, the ASIA-orders dim (order→year) and the
    supplier-nation flag broadcast in, then one grouped int64 sum of
    (nation_part, revenue_part) per year — share is a single IEEE
    division of exact ints, identical in both engines."""
    parts = _pdf(sf_dir, "part")
    promo_pks = set(parts.loc[parts["p_type"] == "PROMO", "p_partkey"])
    nat = _pdf(sf_dir, "nation")
    reg = _pdf(sf_dir, "region")
    asia_nk = set(
        nat.merge(reg[reg["r_name"] == "ASIA"],
                  left_on="n_regionkey", right_on="r_regionkey")["n_nationkey"]
    )
    cust = _pdf(sf_dir, "customer")
    asia_ck = set(cust.loc[cust["c_nationkey"].isin(asia_nk), "c_custkey"])
    ords = _pdf(sf_dir, "orders")[["o_orderkey", "o_custkey", "o_orderdate"]]
    ords = ords[
        ords["o_custkey"].isin(asia_ck)
        & (ords["o_orderdate"] >= pd.Timestamp("1996-01-01"))
        & (ords["o_orderdate"] < pd.Timestamp("1998-01-01"))
    ].copy()
    ords["o_year"] = ords["o_orderdate"].dt.year.astype("int64")
    omap = ords[["o_orderkey", "o_year"]]
    sup = _pdf(sf_dir, "supplier")[["s_suppkey", "s_nationkey"]]
    nk2 = int(nat.loc[nat["n_name"] == "NATION_2", "n_nationkey"].iloc[0])
    sup = sup.assign(is_target=(sup["s_nationkey"] == nk2))[
        ["s_suppkey", "is_target"]
    ]

    li = semi_join(
        _t(sf_dir, "lineitem").select_columns(
            ["l_partkey", "l_orderkey", "l_suppkey",
             "l_extendedprice", "l_discount"]
        ),
        promo_pks, "l_partkey",
    )
    slim = li.map_batches(
        lambda t: _add_revenue_part(t).select(
            ["l_orderkey", "l_suppkey", "revenue_part"]
        ),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    j = broadcast_join(slim, omap, on="l_orderkey", small_on="o_orderkey")
    j = broadcast_join(j, sup, on="l_suppkey", small_on="s_suppkey")

    def split(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"o_year": b["o_year"],
             "nation_part": np.where(b["is_target"], b["revenue_part"], 0),
             "revenue_part": b["revenue_part"]}
        )

    g = grouped_agg(j.map_batches(split, batch_format="pandas"), "o_year",
                    {"nation_part": ["sum"], "revenue_part": ["sum"]})
    g["mkt_share"] = _round_away(
        g["nation_part_sum"].astype("int64")
        / g["revenue_part_sum"].astype("int64"), 6
    )
    g = g.sort_values("o_year")
    return g[["o_year", "mkt_share"]].reset_index(drop=True)


ORACLE_Q8 = """
WITH base AS (
  SELECT year(o_orderdate)::BIGINT AS o_year,
         round(l_extendedprice * 100)::BIGINT
           * (100 - round(l_discount * 100)::BIGINT) AS revenue_part,
         n2.n_name AS supp_nation
  FROM part
  JOIN lineitem ON p_partkey = l_partkey
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN orders   ON l_orderkey = o_orderkey
  JOIN customer ON o_custkey = c_custkey
  JOIN nation n1 ON c_nationkey = n1.n_nationkey
  JOIN region    ON n1.n_regionkey = r_regionkey
  JOIN nation n2 ON s_nationkey = n2.n_nationkey
  WHERE r_name = 'ASIA' AND p_type = 'PROMO'
    AND o_orderdate >= DATE '1996-01-01'
    AND o_orderdate < DATE '1998-01-01'
)
SELECT o_year,
       round(sum(CASE WHEN supp_nation = 'NATION_2'
                      THEN revenue_part ELSE 0 END) * 1.0
             / sum(revenue_part), 6) AS mkt_share
FROM base GROUP BY o_year ORDER BY o_year
"""


def q10_returned_items(sf_dir: str):
    """TPC-H Q10 shape — returned-item reporting: top-20 customers by
    revenue lost to returns ('R' lines) on 1996Q1 orders. Distributed
    form: lineitem filters to returns and streams; the in-window orders
    dim broadcasts (1/26th of orders); revenue aggregates per customer
    in exact cents via the combiner grouped_agg; only the ≤|customers|
    aggregate rows reach the driver, where the top-20 and the
    customer/nation dim decoration happen."""
    ords = _pdf(sf_dir, "orders")[["o_orderkey", "o_custkey", "o_orderdate"]]
    ords = ords[
        (ords["o_orderdate"] >= pd.Timestamp("1996-01-01"))
        & (ords["o_orderdate"] < pd.Timestamp("1996-04-01"))
    ][["o_orderkey", "o_custkey"]]

    li = arrow_filter(
        _t(sf_dir, "lineitem").select_columns(
            ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"]
        ),
        lambda t: pc.equal(t.column("l_returnflag"), pa.scalar("R")),
    )
    slim = li.map_batches(
        lambda t: _add_revenue_part(t).select(["l_orderkey", "revenue_part"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    j = broadcast_join(slim, ords, on="l_orderkey", small_on="o_orderkey")
    g = grouped_agg(j, "o_custkey", {"revenue_part": ["sum"]})
    g["revenue"] = _round_away(
        g["revenue_part_sum"].astype("int64") / 10000.0, 2
    )
    top = g.sort_values(["revenue", "o_custkey"],
                        ascending=[False, True], kind="mergesort").head(20)
    dim = _pdf(sf_dir, "customer").merge(
        _pdf(sf_dir, "nation")[["n_nationkey", "n_name"]],
        left_on="c_nationkey", right_on="n_nationkey",
    )
    out = top.merge(dim, left_on="o_custkey", right_on="c_custkey")
    out = out.sort_values(["revenue", "c_custkey"],
                          ascending=[False, True], kind="mergesort")
    return out[["c_custkey", "c_name", "revenue", "c_acctbal", "n_name",
                "c_mktsegment"]].reset_index(drop=True)


ORACLE_Q10 = """
SELECT c_custkey, c_name,
       round(sum(round(l_extendedprice * 100)::BIGINT
                 * (100 - round(l_discount * 100)::BIGINT)) / 10000.0, 2)
         AS revenue,
       c_acctbal, n_name, c_mktsegment
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN nation   ON c_nationkey = n_nationkey
WHERE o_orderdate >= DATE '1996-01-01' AND o_orderdate < DATE '1996-04-01'
  AND l_returnflag = 'R'
GROUP BY c_custkey, c_name, c_acctbal, n_name, c_mktsegment
ORDER BY revenue DESC, c_custkey
LIMIT 20
"""


def q13_customer_distribution(sf_dir: str):
    """TPC-H Q13 shape — LEFT OUTER join with an extra join predicate +
    two-level aggregation: distribution of per-customer order counts,
    orders restricted to non-URGENT priority INSIDE the join condition
    (so filtered-out customers still appear with count 0). Distributed
    form: non-urgent orders group-count per customer (combiner shuffle);
    the zero-order customers come from one vectorized membership pass
    over the customer key column — no driver row loop; the final
    count-of-counts is dim-sized."""
    cnt = group_count(
        arrow_filter(
            _t(sf_dir, "orders").select_columns(
                ["o_custkey", "o_orderpriority"]
            ),
            lambda t: pc.invert(
                pc.equal(t.column("o_orderpriority"), pa.scalar("1-URGENT"))
            ),
        ),
        "o_custkey", alias="c_count",
    )
    cust = _pdf(sf_dir, "customer")[["c_custkey"]]
    merged = cust.merge(cnt, left_on="c_custkey", right_on="o_custkey",
                        how="left")
    merged["c_count"] = merged["c_count"].fillna(0).astype("int64")
    dist = (
        merged.groupby("c_count", sort=False).size().rename("custdist")
        .reset_index()
    )
    dist["custdist"] = dist["custdist"].astype("int64")
    return dist.sort_values(
        ["custdist", "c_count"], ascending=[False, False], kind="mergesort"
    ).reset_index(drop=True)


ORACLE_Q13 = """
SELECT c_count, count(*)::BIGINT AS custdist
FROM (
  SELECT c_custkey, count(o_orderkey)::BIGINT AS c_count
  FROM customer LEFT OUTER JOIN orders
    ON c_custkey = o_custkey AND o_orderpriority <> '1-URGENT'
  GROUP BY c_custkey
)
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC
"""


def q15_top_supplier(sf_dir: str):
    """TPC-H Q15 shape — aggregate view + scalar-max selection: the
    supplier(s) whose 1996Q1 shipment revenue equals the maximum over
    all suppliers. Distributed form: per-supplier revenue via the
    combiner grouped_agg in exact cents (the 'revenue view'); max and
    the equality selection happen on the ≤|suppliers| aggregate rows —
    ties ALL survive, exactly as the SQL does, because the comparison
    is on exact int64 cents, never a rounded float."""
    li = arrow_filter(
        _t(sf_dir, "lineitem").select_columns(
            ["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"]
        ),
        lambda t: pc.and_(
            pc.greater_equal(t.column("l_shipdate"),
                             pa.scalar(pd.Timestamp("1996-01-01"))),
            pc.less(t.column("l_shipdate"),
                    pa.scalar(pd.Timestamp("1996-04-01"))),
        ),
    )
    slim = li.map_batches(
        lambda t: _add_revenue_part(t).select(["l_suppkey", "revenue_part"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    g = grouped_agg(slim, "l_suppkey", {"revenue_part": ["sum"]})
    best = int(g["revenue_part_sum"].max())
    win = g[g["revenue_part_sum"] == best].copy()
    win["total_revenue"] = _round_away(
        win["revenue_part_sum"].astype("int64") / 10000.0, 2
    )
    sup = _pdf(sf_dir, "supplier")[["s_suppkey", "s_name"]]
    out = win.merge(sup, left_on="l_suppkey", right_on="s_suppkey")
    return out[["s_suppkey", "s_name", "total_revenue"]].sort_values(
        "s_suppkey"
    ).reset_index(drop=True)


ORACLE_Q15 = """
WITH revenue AS MATERIALIZED (
  SELECT l_suppkey AS supplier_no,
         sum(round(l_extendedprice * 100)::BIGINT
             * (100 - round(l_discount * 100)::BIGINT)) AS total_c
  FROM lineitem
  WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1996-04-01'
  GROUP BY l_suppkey
)
SELECT s_suppkey, s_name, round(total_c / 10000.0, 2) AS total_revenue
FROM supplier JOIN revenue ON s_suppkey = supplier_no
WHERE total_c = (SELECT max(total_c) FROM revenue)
ORDER BY s_suppkey
"""


def q19_discounted_revenue(sf_dir: str):
    """TPC-H Q19 shape — disjunction of conjunctive brand/size/quantity
    ranges evaluated in one pass: revenue from three OR'd
    (brand, p_size band, l_quantity band) branches. Distributed form:
    the 3-brand part slice broadcasts; the branch predicate is one
    vectorized numpy expression over the joined stream; the result is a
    single global int64 sum."""
    parts = _pdf(sf_dir, "part")
    sel = parts[parts["p_brand"].isin(["Brand#1", "Brand#2", "Brand#3"])][
        ["p_partkey", "p_brand", "p_size"]
    ]
    li = semi_join(
        _t(sf_dir, "lineitem").select_columns(
            ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"]
        ),
        set(sel["p_partkey"]), "l_partkey",
    )
    slim = li.map_batches(
        lambda t: _add_revenue_part(
            t.append_column("qc", _cents_arrow(t.column("l_quantity")))
        ).select(["l_partkey", "qc", "revenue_part"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    j = broadcast_join(slim, sel, on="l_partkey", small_on="p_partkey")

    def branch(b: pd.DataFrame) -> pd.DataFrame:
        qty = b["qc"].to_numpy(np.int64)  # quantity in cents
        size = b["p_size"].to_numpy()
        brand = b["p_brand"].to_numpy()
        m = (
            ((brand == "Brand#1") & (size >= 1) & (size <= 10)
             & (qty >= 100) & (qty <= 1500))
            | ((brand == "Brand#2") & (size >= 11) & (size <= 25)
               & (qty >= 1000) & (qty <= 2500))
            | ((brand == "Brand#3") & (size >= 26) & (size <= 50)
               & (qty >= 2000) & (qty <= 3500))
        )
        return pd.DataFrame({"revenue_part": b.loc[m, "revenue_part"]})

    total = int(j.map_batches(branch, batch_format="pandas")
                .sum("revenue_part"))
    return pd.DataFrame(
        {"revenue": [float(_round_away(total / 10000.0, 2))]}
    )


ORACLE_Q19 = """
SELECT round(sum(round(l_extendedprice * 100)::BIGINT
                 * (100 - round(l_discount * 100)::BIGINT)) / 10000.0, 2)
         AS revenue
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE (p_brand = 'Brand#1' AND p_size BETWEEN 1 AND 10
       AND l_quantity BETWEEN 1 AND 15)
   OR (p_brand = 'Brand#2' AND p_size BETWEEN 11 AND 25
       AND l_quantity BETWEEN 10 AND 25)
   OR (p_brand = 'Brand#3' AND p_size BETWEEN 26 AND 50
       AND l_quantity BETWEEN 20 AND 35)
"""


def q11_important_nations(sf_dir: str):
    """TPC-H Q11 shape — HAVING against a global-total scalar subquery
    (re-based onto supplier nations; this corpus has no partsupp):
    nations whose supplier-side lineitem revenue exceeds 1/25 of the
    global total. Distributed form: one combiner grouped sum per nation
    (supplier→nation broadcasts as a dim dict); the comparison is the
    exact integer cross-multiply s·25 > total (never a float
    threshold), computed on the 25 aggregate rows."""
    sup = _pdf(sf_dir, "supplier")[["s_suppkey", "s_nationkey"]].merge(
        _pdf(sf_dir, "nation")[["n_nationkey", "n_name"]],
        left_on="s_nationkey", right_on="n_nationkey",
    )[["s_suppkey", "n_name"]]
    slim = _t(sf_dir, "lineitem").select_columns(
        ["l_suppkey", "l_extendedprice", "l_discount"]
    ).map_batches(
        lambda t: _add_revenue_part(t).select(["l_suppkey", "revenue_part"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    j = broadcast_join(slim, sup, on="l_suppkey", small_on="s_suppkey")
    g = grouped_agg(j, "n_name", {"revenue_part": ["sum"]})
    s = g["revenue_part_sum"].astype("int64")
    total = int(s.sum())
    keep = g[s * 25 > total].copy()
    keep["value"] = _round_away(
        keep["revenue_part_sum"].astype("int64") / 10000.0, 2
    )
    keep = keep.sort_values(["value", "n_name"], ascending=[False, True],
                            kind="mergesort")
    return keep[["n_name", "value"]].reset_index(drop=True)


ORACLE_Q11 = """
WITH r AS MATERIALIZED (
  SELECT n_name,
         sum(round(l_extendedprice * 100)::BIGINT
             * (100 - round(l_discount * 100)::BIGINT)) AS s
  FROM lineitem
  JOIN supplier ON l_suppkey = s_suppkey
  JOIN nation   ON s_nationkey = n_nationkey
  GROUP BY n_name
)
SELECT n_name, round(s / 10000.0, 2) AS value
FROM r WHERE s * 25 > (SELECT sum(s) FROM r)
ORDER BY value DESC, n_name
"""


def q21_suppliers_waiting(sf_dir: str):
    """TPC-H Q21 shape — double-correlated EXISTS / NOT EXISTS: on
    finished ('F') multi-supplier orders, count per supplier the
    returned ('R') lines where that supplier is the ONLY one with a
    returned line (the reference's "kept the order waiting" predicate
    adapted to l_returnflag — this corpus has no commit/receipt dates).
    Distributed form: the order-status filter is a shuffle semi-join;
    the two correlated subqueries collapse into per-order supplier /
    returned-supplier nunique aggregates computed inside ONE
    bucketed_group_apply on l_orderkey (every row of an order lands in
    one bucket; the bucket body is vectorized pandas, never a
    per-order Python call); the qualifying rows group-count per
    supplier and only supplier-sized aggregates reach the driver."""
    from recon_ray.functions.relational import (
        bucketed_group_apply, shuffle_semi_join,
    )

    f_orders = arrow_filter(
        _t(sf_dir, "orders").select_columns(["o_orderkey", "o_orderstatus"]),
        lambda t: pc.equal(t.column("o_orderstatus"), pa.scalar("F")),
    )
    li = shuffle_semi_join(
        _t(sf_dir, "lineitem").select_columns(
            ["l_orderkey", "l_suppkey", "l_returnflag"]
        ),
        f_orders, on="l_orderkey", right_on="o_orderkey",
    )

    def per_order(g: pd.DataFrame) -> pd.DataFrame:
        nsupp = g.groupby("l_orderkey")["l_suppkey"].nunique()
        r = g[g["l_returnflag"] == "R"]
        if len(r) == 0:
            return pd.DataFrame({"l_suppkey": pd.Series([], dtype="int64")})
        nr = r.groupby("l_orderkey")["l_suppkey"].nunique()
        ok = nr[(nr == 1)].index.intersection(nsupp[nsupp > 1].index)
        return pd.DataFrame(
            {"l_suppkey": r.loc[r["l_orderkey"].isin(ok), "l_suppkey"]
             .astype("int64")}
        )

    waiting = bucketed_group_apply(li, "l_orderkey", per_order)
    cnt = group_count(waiting, "l_suppkey", alias="numwait")
    sup = _pdf(sf_dir, "supplier")[["s_suppkey", "s_name"]]
    out = cnt.merge(sup, left_on="l_suppkey", right_on="s_suppkey")
    out = out.sort_values(["numwait", "s_name"], ascending=[False, True],
                          kind="mergesort").head(100)
    return out[["s_name", "numwait"]].reset_index(drop=True)


ORACLE_Q21 = """
SELECT s_name, count(*)::BIGINT AS numwait
FROM supplier
JOIN lineitem l1 ON s_suppkey = l1.l_suppkey
JOIN orders ON o_orderkey = l1.l_orderkey
WHERE o_orderstatus = 'F' AND l1.l_returnflag = 'R'
  AND EXISTS (SELECT 1 FROM lineitem l2
              WHERE l2.l_orderkey = l1.l_orderkey
                AND l2.l_suppkey <> l1.l_suppkey)
  AND NOT EXISTS (SELECT 1 FROM lineitem l3
                  WHERE l3.l_orderkey = l1.l_orderkey
                    AND l3.l_suppkey <> l1.l_suppkey
                    AND l3.l_returnflag = 'R')
GROUP BY s_name
ORDER BY numwait DESC, s_name
LIMIT 100
"""


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

QUERIES = {
    # relational
    "q1_pricing_summary": q1_pricing_summary,
    "q3_top_orders": q3_top_orders,
    "q5_nation_revenue": q5_nation_revenue,
    "q6_revenue_forecast": q6_revenue_forecast,
    "q_top_suppliers": q_top_suppliers,
    "q_order_priority_counts": q_order_priority_counts,
    "q_distinct_segments": q_distinct_segments,
    "q_big_customer_orders": q_big_customer_orders,
    "q_order_outliers": q_order_outliers,
    "q2_min_cost_supplier": q2_min_cost_supplier,
    "q9_product_profit": q9_product_profit,
    "q16_supplier_part_counts": q16_supplier_part_counts,
    "q20_excess_stock": q20_excess_stock,
    "q_events_by_type": q_events_by_type,
    "q_events_daily": q_events_daily,
    "q_events_sessions": q_events_sessions,
    "q_events_value_quantiles": q_events_value_quantiles,
    "q_events_user_hll": q_events_user_hll,
    "q_events_tumbling_6h": q_events_tumbling_6h,
    "q_events_stream_tumbling_6h": q_events_stream_tumbling_6h,
    "q_events_stream_sessions": q_events_stream_sessions,
    "q_events_stream_hopping_6h_2h": q_events_stream_hopping_6h_2h,
    "q_events_stream_distinct_6h": q_events_stream_distinct_6h,
    "q_events_stream_topk_users_6h": q_events_stream_topk_users_6h,
    "q_events_stream_attribution": q_events_stream_attribution,
    "q_events_rolling_7d": q_events_rolling_7d,
    "q_events_window_running": q_events_window_running,
    "q_events_transitions": q_events_transitions,
    "q_events_rolling_value": q_events_rolling_value,
    "q_events_user_spend_7d": q_events_user_spend_7d,
    "q_events_state_intervals": q_events_state_intervals,
    "q_full_outer_daily_users": q_full_outer_daily_users,
    "q_lineitem_unpivot": q_lineitem_unpivot,
    "q_semi_anti_shuffle": q_semi_anti_shuffle,
    "q_orders_profile": q_orders_profile,
    "q_events_asof_purchase_click": q_events_asof_purchase_click,
    "q_events_retention": q_events_retention,
    "q_events_cube": q_events_cube,
    "q_orders_exists_discount": q_orders_exists_discount,
    "q_events_distinct_users": q_events_distinct_users,
    "q_events_pivot_day_type": q_events_pivot_day_type,
    "q_events_user_top_type": q_events_user_top_type,
    "q_customer_order_counts_outer": q_customer_order_counts_outer,
    "q_events_type_cms": q_events_type_cms,
    "q_events_user_skew": q_events_user_skew,
    "doc_dsir_weights": doc_dsir_weights,
    "q_events_props_k_by_type": q_events_props_k_by_type,
    "q12_priority_by_linestatus": q12_priority_by_linestatus,
    "q14_promo_revenue_share": q14_promo_revenue_share,
    "q18_large_orders": q18_large_orders,
    "q4_order_priority": q4_order_priority,
    "q7_volume_shipping": q7_volume_shipping,
    "q8_market_share": q8_market_share,
    "q10_returned_items": q10_returned_items,
    "q13_customer_distribution": q13_customer_distribution,
    "q11_important_nations": q11_important_nations,
    "q15_top_supplier": q15_top_supplier,
    "q19_discounted_revenue": q19_discounted_revenue,
    "q21_suppliers_waiting": q21_suppliers_waiting,
    "q_events_user_bloom": q_events_user_bloom,
    "q_events_above_type_mean": q_events_above_type_mean,
    "doc_editdist_pairs": doc_editdist_pairs,
    "part_jw_name_pairs": part_jw_name_pairs,
    "doc_entity_resolution": doc_entity_resolution,
    "q_events_pruned_scan": q_events_pruned_scan,
    "q_events_point_scan": q_events_point_scan,
    "interop_roundtrip": interop_roundtrip,
    "interop_schema_evolution": interop_schema_evolution,
    "q_validate_suite": q_validate_suite,
    "q_events_daily_filled": q_events_daily_filled,
    "q_events_mad_outliers": q_events_mad_outliers,
    "q_events_ffill_value": q_events_ffill_value,
    "q_events_ab_test": q_events_ab_test,
    "q_events_winsorized": q_events_winsorized,
    "q_events_chi2_type_weekday": q_events_chi2_type_weekday,
    "q_events_top_paths": q_events_top_paths,
    "q_events_attribution": q_events_attribution,
    "q_events_auc": q_events_auc,
    **{name: _sql_query(name) for name in SQL_FRONTEND},
    "q_events_user_gini": q_events_user_gini,
    "q_events_weighted_sample": q_events_weighted_sample,
    "q_events_incremental_agg": q_events_incremental_agg,
    "q_events_user_twap": q_events_user_twap,
    "q_orders_apply_cdc": q_orders_apply_cdc,
    "q_orders_merge_upsert": q_orders_merge_upsert,
    "q_lineitem_price_tiles": q_lineitem_price_tiles,
    "doc_keyword_tags": doc_keyword_tags,
    "q_events_type_user_hll": q_events_type_user_hll,
    "q_orders_top3_per_priority": q_orders_top3_per_priority,
    "emb_unnest_dims": emb_unnest_dims,
    "q_orders_status_concat": q_orders_status_concat,
    "q_events_window_dist": q_events_window_dist,
    "q_events_value_variance": q_events_value_variance,
    "q_events_value_drift": q_events_value_drift,
    "doc_chunks": doc_chunks,
    "doc_compression_signals": doc_compression_signals,
    "part_fuzzy_catalog_link": part_fuzzy_catalog_link,
    "doc_regex_extract": doc_regex_extract,
    "emb_quantize_int8": emb_quantize_int8,
    "q_events_value_hour_corr": q_events_value_hour_corr,
    "q17_small_quantity_revenue": q17_small_quantity_revenue,
    "q22_global_sales_opportunity": q22_global_sales_opportunity,
    "q_events_value_histogram": q_events_value_histogram,
    "q_events_impute_mean": q_events_impute_mean,
    "q_events_user_streaks": q_events_user_streaks,
    "q_events_pseudonymize": q_events_pseudonymize,
    "q_events_grouped_quantiles": q_events_grouped_quantiles,
    "q_events_funnel": q_events_funnel,
    "q_events_props_scrub": q_events_props_scrub,
    "q_events_pii_audit": q_events_pii_audit,
    "q_events_user_day_intersect": q_events_user_day_intersect,
    "q_events_user_day_except": q_events_user_day_except,
    "q_orders_range_join_bands": q_orders_range_join_bands,
    "q_union_price_bands": q_union_price_bands,
    "q_part_type_stats": q_part_type_stats,
    "q_priority_revenue_shuffle_join": q_priority_revenue_shuffle_join,
    # kg pipeline
    "kg_canonical_triples": kg_canonical_triples,
    "kg_imports": kg_imports,
    "kg_calls": kg_calls,
    "kg_defines": kg_defines,
    "kg_symbols": kg_symbols,
    "kg_mentions": kg_mentions,
    "kg_entity_coverage": kg_entity_coverage,
    "kg_label_counts": kg_label_counts,
    "kg_ner_stats": kg_ner_stats,
    "kg_label_disparities": kg_label_disparities,
    "kg_token_alignment": kg_token_alignment,
    "kg_triple_score": kg_triple_score,
    "kg_degrees": kg_degrees,
    "kg_calls_2hop": kg_calls_2hop,
    "kg_call_topo_levels": kg_call_topo_levels,
    "kg_pagerank": kg_pagerank,
    "kg_pagerank_weighted": kg_pagerank_weighted,
    "kg_pagerank_personalized": kg_pagerank_personalized,
    "kg_hits": kg_hits,
    "kg_components": kg_components,
    "kg_communities": kg_communities,
    "kg_import_assoc": kg_import_assoc,
    "kg_file_metrics": kg_file_metrics,
    "kg_call_triangles": kg_call_triangles,
    "kg_call_bfs_levels": kg_call_bfs_levels,
    "kg_link_prediction": kg_link_prediction,
    "kg_kcore": kg_kcore,
    "kg_call_cheapest": kg_call_cheapest,
    # documents
    "doc_token_counts": doc_token_counts,
    "doc_bpe_token_counts": doc_bpe_token_counts,
    "doc_word_freq_top50": doc_word_freq_top50,
    "doc_distinctive_terms": doc_distinctive_terms,
    "doc_word_top20_mg": doc_word_top20_mg,
    "doc_search": doc_search,
    "doc_bm25_search": doc_bm25_search,
    "doc_dedup_groups": doc_dedup_groups,
    "doc_quality": doc_quality,
    "doc_top_words_per_lang": doc_top_words_per_lang,
    "doc_mixture_sample": doc_mixture_sample,
    "doc_split_assign": doc_split_assign,
    "doc_shuffle": doc_shuffle,
    "doc_length_gate": doc_length_gate,
    "doc_stratified_sample": doc_stratified_sample,
    "doc_langid": doc_langid,
    "doc_repetition": doc_repetition,
    "doc_line_dedup": doc_line_dedup,
    "doc_version_diff": doc_version_diff,
    "doc_rollup_stats": doc_rollup_stats,
    "doc_bpe_trained_tokens": doc_bpe_trained_tokens,
    "doc_lm_score": doc_lm_score,
    "doc_normalize": doc_normalize,
    "doc_token_chunks": doc_token_chunks,
    "doc_fingerprints": doc_fingerprints,
    "doc_minhash_dedup": doc_minhash_dedup,
    "doc_minhash_incremental": doc_minhash_incremental,
    "emb_incremental_neardup": emb_incremental_neardup,
    "doc_dedup_keep_best": doc_dedup_keep_best,
    "doc_ngram_jaccard_dedup": doc_ngram_jaccard_dedup,
    "doc_common_ngram_pairs": doc_common_ngram_pairs,
    "doc_contamination": doc_contamination,
    "doc_simhash_dedup": doc_simhash_dedup,
    "doc_pack_sequences": doc_pack_sequences,
    "doc_pack_stats": doc_pack_stats,
    "doc_pack_texts": doc_pack_texts,
    "doc_curation_pack": doc_curation_pack,
    # embeddings
    "knn_exact_top10": knn_exact_top10,
    "knn_int8_top10": knn_int8_top10,
    "knn_lsh_top10": knn_lsh_top10,
    "knn_ivf_top10": knn_ivf_top10,
    "emb_neardup_pairs": emb_neardup_pairs,
    "emb_label_centroid_norms": emb_label_centroid_norms,
    "emb_kmeans_clusters": emb_kmeans_clusters,
    "emb_semdedup": emb_semdedup,
    "emb_logreg_train": emb_logreg_train,
    "emb_pca_variance": emb_pca_variance,
    "doc_media_features": doc_media_features,
    "media_audio_dominant_bins": media_audio_dominant_bins,
    "media_video_luma": media_video_luma,
    "media_image_png_channels": media_image_png_channels,
    "media_image_gif_channels": media_image_gif_channels,
    "media_image_jpeg_channels": media_image_jpeg_channels,
    "media_image_progressive_jpeg_channels": media_image_progressive_jpeg_channels,
    "media_image_neardup": media_image_neardup,
}


def _ppr_seed(g_can: str) -> str:
    """The personalized-PageRank seed both engines agree on: the
    lexicographic-min subject among 'imports' triples of the gold
    parquet (== the pipeline's canonical output, P/R = 1)."""
    import pyarrow.parquet as _pq

    t = _pq.read_table(g_can, columns=["subj", "pred"])
    sel = t.filter(pc.equal(t["pred"], pa.scalar("imports")))
    return pc.min(sel["subj"]).as_py()


def oracles_for(sf_dir: str) -> dict[str, str]:
    """SQL strings for every SQL-expressible query. KG oracles read the gold
    parquet fixtures (absolute /tmp paths, pinned scale — fixtures.py);
    the partsupp oracles read the deterministic /tmp partsupp derived
    from the CALLER's sf_dir (the driver compares at one sf, so query
    and oracle see the same rows)."""
    ps_path = _ps_path(sf_dir)
    sf_dir = fixtures.PINNED_KG_SF
    fixtures.ensure_fixtures(sf_dir)
    g_can = fixtures.gold_path(sf_dir, "canonical")
    g_men = fixtures.gold_path(sf_dir, "mentions")
    g_sym = fixtures.gold_path(sf_dir, "symbols")
    return {
        "q1_pricing_summary": ORACLE_Q1,
        "q3_top_orders": ORACLE_Q3,
        "q5_nation_revenue": ORACLE_Q5,
        "q6_revenue_forecast": ORACLE_Q6,
        "q_top_suppliers": ORACLE_TOP_SUPPLIERS,
        "q_order_priority_counts": ORACLE_ORDER_PRIORITY,
        "q_distinct_segments": ORACLE_DISTINCT_SEGMENTS,
        "q_big_customer_orders": ORACLE_BIG_CUSTOMER,
        "q_order_outliers": ORACLE_ORDER_OUTLIERS,
        "q2_min_cost_supplier": _oracle_q2(ps_path),
        "q9_product_profit": _oracle_q9(ps_path),
        "q16_supplier_part_counts": _oracle_q16(ps_path),
        "q20_excess_stock": _oracle_q20(ps_path),
        "q_events_by_type": ORACLE_EVENTS_BY_TYPE,
        "q_events_daily": ORACLE_EVENTS_DAILY,
        "q_events_sessions": ORACLE_EVENTS_SESSIONS,
        "q_events_tumbling_6h": ORACLE_EVENTS_TUMBLING,
        "q_events_stream_tumbling_6h": ORACLE_EVENTS_TUMBLING,
        "q_events_stream_sessions": ORACLE_EVENTS_SESSIONS,
        "q_events_stream_hopping_6h_2h": ORACLE_EVENTS_STREAM_HOPPING,
        "q_events_stream_distinct_6h": ORACLE_EVENTS_STREAM_DISTINCT,
        "q_events_stream_topk_users_6h": ORACLE_EVENTS_STREAM_TOPK,
        "q_events_stream_attribution": ORACLE_EVENTS_STREAM_ATTRIBUTION,
        "q_events_rolling_7d": ORACLE_EVENTS_ROLLING,
        "q_events_window_running": ORACLE_EVENTS_WINDOW,
        "q_events_transitions": ORACLE_EVENTS_TRANSITIONS,
        "q_events_rolling_value": ORACLE_EVENTS_ROLLING_VALUE,
        "q_events_user_spend_7d": ORACLE_EVENTS_SPEND_7D,
        "q_events_state_intervals": ORACLE_EVENTS_STATE_INTERVALS,
        "q_full_outer_daily_users": ORACLE_FULL_OUTER_DAILY,
        "q_lineitem_unpivot": ORACLE_LINEITEM_UNPIVOT,
        "q_semi_anti_shuffle": ORACLE_SEMI_ANTI_SHUFFLE,
        "q_orders_profile": ORACLE_ORDERS_PROFILE,
        "q_events_asof_purchase_click": ORACLE_EVENTS_ASOF,
        "q_events_retention": ORACLE_EVENTS_RETENTION,
        "q_events_grouped_quantiles": ORACLE_EVENTS_GROUPED_QUANTILES,
        "q_events_funnel": ORACLE_EVENTS_FUNNEL,
        "q_events_props_scrub": ORACLE_EVENTS_PROPS_SCRUB,
        "q_events_pii_audit": ORACLE_EVENTS_PII_AUDIT,
        "q_events_user_day_intersect": ORACLE_EVENTS_INTERSECT,
        "q_events_user_day_except": ORACLE_EVENTS_EXCEPT,
        "q_orders_range_join_bands": ORACLE_ORDERS_RANGE_JOIN,
        "q_union_price_bands": ORACLE_UNION_BANDS,
        "q_part_type_stats": ORACLE_PART_TYPE,
        "q_priority_revenue_shuffle_join": ORACLE_PRIORITY_REVENUE,
        "kg_canonical_triples": f"SELECT * FROM read_parquet('{g_can}')",
        "kg_imports": (
            f"SELECT subj AS repo, obj AS package, n_mentions FROM "
            f"read_parquet('{g_can}') WHERE pred='imports' ORDER BY repo, package"
        ),
        "kg_calls": (
            f"SELECT subj AS caller, obj AS callee, n_mentions FROM "
            f"read_parquet('{g_can}') WHERE pred='calls' ORDER BY caller, callee"
        ),
        "kg_call_bfs_levels": (
            f"WITH RECURSIVE e AS (SELECT subj, obj FROM "
            f"read_parquet('{g_can}') WHERE pred='calls'), "
            f"walk(entity, level) AS ("
            f"  SELECT (SELECT subj FROM e GROUP BY subj "
            f"          ORDER BY count(*) DESC, subj LIMIT 1), 0 "
            f"  UNION "
            f"  SELECT e.obj, w.level + 1 FROM walk w "
            f"  JOIN e ON e.subj = w.entity WHERE w.level < 20) "
            f"SELECT entity, min(level)::BIGINT AS level FROM walk "
            f"GROUP BY entity ORDER BY entity"
        ),
        "kg_call_triangles": (
            f"WITH raw AS (SELECT subj, obj FROM read_parquet('{g_can}') "
            f"WHERE pred='calls' AND subj <> obj), "
            f"e AS (SELECT DISTINCT least(subj, obj) AS u, "
            f"greatest(subj, obj) AS v FROM raw), "
            f"deg AS (SELECT node, count(*)::BIGINT AS d FROM "
            f"(SELECT u AS node FROM e UNION ALL SELECT v FROM e) "
            f"GROUP BY 1), "
            f"tri AS (SELECT count(*)::BIGINT AS c FROM e a "
            f"JOIN e b ON a.u = b.u AND a.v < b.v "
            f"JOIN e cl ON cl.u = a.v AND cl.v = b.v) "
            f"SELECT (SELECT count(*) FROM deg)::BIGINT AS n_nodes, "
            f"(SELECT count(*) FROM e)::BIGINT AS n_edges, "
            f"(SELECT coalesce(sum(d*(d-1)//2), 0) FROM deg)::BIGINT AS n_wedges, "
            f"(SELECT c FROM tri)::BIGINT AS n_triangles, "
            f"CASE WHEN (SELECT sum(d*(d-1)//2) FROM deg) > 0 THEN "
            f"3.0 * (SELECT c FROM tri) / (SELECT sum(d*(d-1)//2) FROM deg) "
            f"ELSE 0.0 END AS global_clustering"
        ),
        "kg_call_topo_levels": _graph.topo_levels_oracle_sql(
            f"SELECT subj, obj FROM read_parquet('{g_can}') "
            f"WHERE pred='calls'"),
        "kg_calls_2hop": (
            f"WITH e AS (SELECT subj, obj FROM read_parquet('{g_can}') "
            f"WHERE pred='calls') "
            f"SELECT a.subj AS caller, b.obj AS callee, "
            f"count(*)::BIGINT AS n_paths "
            f"FROM e a JOIN e b ON a.obj = b.subj "
            f"GROUP BY 1, 2 ORDER BY 1, 2"
        ),
        "kg_defines": (
            f"SELECT subj AS file, obj AS function FROM read_parquet('{g_can}') "
            f"WHERE pred='defines' ORDER BY file, function"
        ),
        "kg_symbols": (
            f"SELECT id, name, repo FROM read_parquet('{g_sym}') ORDER BY id"
        ),
        "kg_mentions": (
            f"SELECT repo, path, text, start::BIGINT AS start, \"end\"::BIGINT "
            f"AS \"end\", label FROM read_parquet('{g_men}') "
            f"ORDER BY repo, path, start, \"end\", label"
        ),
        "kg_entity_coverage": (
            f"SELECT lower(text) AS text, label, count(*)::BIGINT AS count "
            f"FROM read_parquet('{g_men}') GROUP BY 1, 2 "
            f"ORDER BY count DESC, text, label"
        ),
        "kg_label_counts": (
            f"SELECT label, count(*)::BIGINT AS count FROM read_parquet('{g_men}') "
            f"GROUP BY label ORDER BY count DESC, label"
        ),
        "kg_ner_stats": (
            f"SELECT (SELECT count(*) FROM read_parquet('{fixtures.files_dir(sf_dir)}/*.parquet'))::BIGINT AS n_docs, "
            f"(SELECT count(*) FROM read_parquet('{fixtures.files_dir(sf_dir)}/*.parquet') f "
            f" WHERE NOT EXISTS (SELECT 1 FROM read_parquet('{g_men}') m "
            f"  WHERE m.repo = f.repo AND m.path = f.path))::BIGINT AS n_docs_no_mentions, "
            f"(SELECT count(*) FROM read_parquet('{g_men}'))::BIGINT AS n_mentions"
        ),
        "kg_label_disparities": (
            f"WITH pairs AS (SELECT DISTINCT lower(text) AS text, label FROM "
            f"read_parquet('{g_men}')) "
            f"SELECT a.label AS label1, b.label AS label2, count(*)::BIGINT AS count "
            f"FROM pairs a JOIN pairs b ON a.text = b.text AND a.label < b.label "
            f"GROUP BY 1, 2 ORDER BY 1, 2"
        ),
        "kg_token_alignment": (
            "SELECT m.repo, m.path, m.start::BIGINT AS start, "
            "m.\"end\"::BIGINT AS \"end\", m.label, "
            "len(regexp_extract_all(left(f.content, m.start::INT), "
            "'\\w+|[^\\w\\s]'))::BIGINT AS token_start, "
            "(len(regexp_extract_all(left(f.content, m.\"end\"::INT), "
            "'\\w+|[^\\w\\s]')) - 1)::BIGINT AS token_end "
            f"FROM read_parquet('{g_men}') m "
            f"JOIN read_parquet('{fixtures.files_dir(sf_dir)}/*.parquet') f "
            "USING (repo, path) "
            "WHERE length(f.content) < 8192 "
            "ORDER BY m.repo, m.path, m.start, m.\"end\", m.label"
        ),
        "kg_degrees": (
            f"WITH e AS (SELECT subj, obj FROM read_parquet('{g_can}')), "
            "outd AS (SELECT subj AS entity, count(*)::BIGINT AS out_degree "
            "FROM e GROUP BY subj), "
            "ind AS (SELECT obj AS entity, count(*)::BIGINT AS in_degree "
            "FROM e GROUP BY obj) "
            "SELECT entity, coalesce(out_degree, 0)::BIGINT AS out_degree, "
            "coalesce(in_degree, 0)::BIGINT AS in_degree, "
            "(coalesce(out_degree, 0) + coalesce(in_degree, 0))::BIGINT AS degree "
            "FROM outd FULL OUTER JOIN ind USING (entity) ORDER BY entity"
        ),
        "kg_pagerank": _graph.pagerank_oracle_sql(
            f"SELECT subj, obj FROM read_parquet('{g_can}')", n_iter=5
        ),
        "kg_pagerank_weighted": _graph.pagerank_oracle_sql(
            f"SELECT subj, obj, n_mentions AS w FROM read_parquet('{g_can}')",
            n_iter=5, weighted=True,
        ),
        "kg_pagerank_personalized": _graph.pagerank_oracle_sql(
            f"SELECT subj, obj FROM read_parquet('{g_can}')",
            n_iter=5, seeds=[_ppr_seed(g_can)],
        ),
        "kg_link_prediction": _graph.link_prediction_oracle_sql(
            f"SELECT subj, obj FROM read_parquet('{g_can}') "
            f"WHERE pred='calls'", k=50,
        ),
        "kg_call_cheapest": _graph.cheapest_paths_oracle_sql(
            f"SELECT subj, obj, n_mentions AS w FROM "
            f"read_parquet('{g_can}') WHERE pred='calls'",
            "SELECT subj FROM e GROUP BY subj "
            "ORDER BY count(*) DESC, subj LIMIT 1",
            n_rounds=8,
        ),
        "kg_kcore": _graph.kcore_oracle_sql(
            f"SELECT subj, obj FROM read_parquet('{g_can}') "
            f"WHERE pred='calls'", k=2, n_rounds=16,
        ),
        "kg_hits": _graph.hits_oracle_sql(
            f"SELECT subj, obj FROM read_parquet('{g_can}') "
            f"WHERE pred='calls'", n_iter=5,
        ),
        # connected components ARE SQL-expressible in DuckDB: recursive-CTE
        # transitive closure over the undirected edge set, then min reached
        # label per node — exact, since the Ray side's label is also the
        # lexicographic-min entity of the component
        "kg_components": (
            f"WITH RECURSIVE "
            f"e AS (SELECT subj AS a, obj AS b FROM read_parquet('{g_can}') "
            f"UNION SELECT obj, subj FROM read_parquet('{g_can}')), "
            f"reach(node, lbl) AS ("
            f"  SELECT a, a FROM e "
            f"  UNION "
            f"  SELECT e.b, r.lbl FROM reach r JOIN e ON e.a = r.node) "
            f"SELECT node AS entity, min(lbl) AS component FROM reach "
            f"GROUP BY node ORDER BY entity"
        ),
        "kg_file_metrics": _kg_file_metrics_oracle_sql(),
        "kg_communities": _graph.lpa_oracle_sql(
            f"SELECT subj, obj FROM read_parquet('{g_can}')", n_rounds=4,
        ),
        "kg_import_assoc": (
            f"WITH bi AS (SELECT DISTINCT subj AS r, obj AS p"
            f" FROM read_parquet('{g_can}') WHERE pred = 'imports'),"
            f" n AS (SELECT count(DISTINCT r) AS nb FROM bi),"
            f" ic AS (SELECT p, count(*) AS c FROM bi GROUP BY 1),"
            f" pr AS (SELECT x.p AS a, y.p AS b, count(*) AS support"
            f"  FROM bi x JOIN bi y ON x.r = y.r AND x.p < y.p"
            f"  GROUP BY 1, 2)"
            f" SELECT pr.a, pr.b, pr.support::BIGINT AS support,"
            f"  round((pr.support * n.nb)::DOUBLE / (ia.c * ib.c), 6)"
            f"   AS lift"
            f" FROM pr CROSS JOIN n"
            f"  JOIN ic ia ON ia.p = pr.a JOIN ic ib ON ib.p = pr.b"
            f" WHERE pr.support >= 2"
            f" ORDER BY pr.support DESC, pr.a, pr.b LIMIT 30"
        ),
        "doc_token_counts": ORACLE_DOC_TOKENS,
        "doc_bpe_token_counts": ORACLE_DOC_BPE_TOKENS,
        "doc_word_freq_top50": ORACLE_WORD_FREQ,
        "doc_distinctive_terms": ORACLE_DOC_DISTINCTIVE,
        "doc_search": ORACLE_DOC_SEARCH,
        "doc_bm25_search": ORACLE_DOC_BM25,
        "doc_dedup_groups": ORACLE_DOC_DEDUP,
        "doc_quality": ORACLE_DOC_QUALITY,
        "doc_top_words_per_lang": ORACLE_DOC_TOP_PER_LANG,
        "doc_mixture_sample": _mixture_oracle_sql(),
        "doc_split_assign": _split_oracle_sql(),
        "doc_shuffle": _shuffle_oracle_sql(),
        "doc_length_gate": ORACLE_DOC_LENGTH_GATE,
        "doc_stratified_sample": _stratified_oracle_sql(),
        "doc_repetition": ORACLE_DOC_REPETITION,
        "doc_line_dedup": ORACLE_DOC_LINE_DEDUP,
        "doc_version_diff": ORACLE_DOC_VERSION_DIFF,
        "doc_rollup_stats": ORACLE_DOC_ROLLUP,
        "q_events_cube": ORACLE_EVENTS_CUBE,
        "q_orders_exists_discount": ORACLE_ORDERS_EXISTS,
        "q_events_distinct_users": ORACLE_EVENTS_DISTINCT_USERS,
        "q_events_pivot_day_type": ORACLE_EVENTS_PIVOT,
        "q_events_user_top_type": ORACLE_EVENTS_USER_TOP_TYPE,
        "q_customer_order_counts_outer": ORACLE_CUSTOMER_ORDER_COUNTS_OUTER,
        "q_events_type_cms": ORACLE_EVENTS_TYPE_CMS,
        "q_events_user_skew": ORACLE_EVENTS_USER_SKEW,
        "doc_dsir_weights": ORACLE_DOC_DSIR,
        "q_events_props_k_by_type": ORACLE_EVENTS_PROPS_K,
        "q12_priority_by_linestatus": ORACLE_Q12,
        "q14_promo_revenue_share": ORACLE_Q14,
        "q18_large_orders": ORACLE_Q18,
        "q4_order_priority": ORACLE_Q4,
        "q7_volume_shipping": ORACLE_Q7,
        "q8_market_share": ORACLE_Q8,
        "q10_returned_items": ORACLE_Q10,
        "q13_customer_distribution": ORACLE_Q13,
        "q11_important_nations": ORACLE_Q11,
        "q15_top_supplier": ORACLE_Q15,
        "q19_discounted_revenue": ORACLE_Q19,
        "q21_suppliers_waiting": ORACLE_Q21,
        "q_events_user_bloom": ORACLE_EVENTS_USER_BLOOM,
        "q_events_above_type_mean": ORACLE_EVENTS_ABOVE_TYPE_MEAN,
        "doc_editdist_pairs": ORACLE_DOC_EDITDIST,
        "part_jw_name_pairs": ORACLE_PART_JW,
        "doc_entity_resolution": ORACLE_DOC_ENTITY_RESOLUTION,
        "q_events_pruned_scan": ORACLE_EVENTS_PRUNED_SCAN,
        "q_events_point_scan": ORACLE_EVENTS_POINT_SCAN,
        "interop_roundtrip": ORACLE_INTEROP_ROUNDTRIP,
        "interop_schema_evolution": ORACLE_INTEROP_SCHEMA_EVOLUTION,
        "q_validate_suite": ORACLE_VALIDATE_SUITE,
        "q_orders_apply_cdc": ORACLE_ORDERS_APPLY_CDC,
        "q_events_daily_filled": ORACLE_EVENTS_DAILY_FILLED,
        "q_events_mad_outliers": ORACLE_EVENTS_MAD_OUTLIERS,
        "q_events_ffill_value": ORACLE_EVENTS_FFILL,
        "q_events_ab_test": _ab_test_oracle_sql(),
        "q_events_winsorized": ORACLE_EVENTS_WINSORIZED,
        "q_events_chi2_type_weekday": ORACLE_EVENTS_CHI2,
        "q_events_top_paths": ORACLE_EVENTS_TOP_PATHS,
        "q_events_attribution": ORACLE_EVENTS_ATTRIBUTION,
        "q_events_auc": ORACLE_EVENTS_AUC,
        **{name: q.oracle or q.sql
           for name, q in SQL_FRONTEND.items()},
        "q_events_user_gini": ORACLE_EVENTS_USER_GINI,
        "q_events_weighted_sample": ORACLE_EVENTS_WEIGHTED_SAMPLE,
        "q_events_incremental_agg": ORACLE_EVENTS_INCREMENTAL_AGG,
        "q_events_user_twap": ORACLE_EVENTS_USER_TWAP,
        "q_orders_merge_upsert": ORACLE_ORDERS_MERGE_UPSERT,
        "q_lineitem_price_tiles": ORACLE_LINEITEM_PRICE_TILES,
        "doc_keyword_tags": ORACLE_DOC_KEYWORD_TAGS,
        "q_orders_top3_per_priority": ORACLE_ORDERS_TOP3_PER_PRIORITY,
        "emb_unnest_dims": ORACLE_EMB_UNNEST,
        "q_orders_status_concat": ORACLE_ORDERS_STATUS_CONCAT,
        "q_events_window_dist": ORACLE_EVENTS_WINDOW_DIST,
        "q_events_value_variance": ORACLE_EVENTS_VARIANCE,
        "q_events_value_drift": ORACLE_EVENTS_VALUE_DRIFT,
        "doc_chunks": ORACLE_DOC_CHUNKS,
        "part_fuzzy_catalog_link": ORACLE_PART_FUZZY_LINK,
        "doc_regex_extract": ORACLE_DOC_REGEX_EXTRACT,
        "emb_quantize_int8": ORACLE_EMB_QUANTIZE,
        "q_events_value_hour_corr": ORACLE_EVENTS_HOUR_CORR,
        "q17_small_quantity_revenue": ORACLE_Q17,
        "q22_global_sales_opportunity": ORACLE_Q22,
        "doc_lm_score": ORACLE_DOC_LM_SCORE,
        "q_events_value_histogram": ORACLE_EVENTS_HISTOGRAM,
        "q_events_impute_mean": ORACLE_EVENTS_IMPUTE_MEAN,
        "q_events_user_streaks": ORACLE_EVENTS_USER_STREAKS,
        "q_events_pseudonymize": _pseudonymize_oracle_sql(),
        "doc_normalize": ORACLE_DOC_NORMALIZE,
        "doc_token_chunks": ORACLE_DOC_TOKEN_CHUNKS,
        "doc_media_features": ORACLE_MEDIA_FEATURES,
        "media_audio_dominant_bins": ORACLE_MEDIA_DOMINANT_BINS,
        "media_video_luma": ORACLE_MEDIA_VIDEO_LUMA,
        "media_image_png_channels": ORACLE_MEDIA_PNG_CHANNELS,
        "media_image_gif_channels": ORACLE_MEDIA_GIF_CHANNELS,
        "media_image_jpeg_channels": ORACLE_MEDIA_JPEG_CHANNELS,
        "media_image_progressive_jpeg_channels": ORACLE_MEDIA_PROG_JPEG_CHANNELS,
        "doc_word_top20_mg": ORACLE_WORD_TOP20_MG,
        "q_events_value_quantiles": ORACLE_EVENTS_QUANTILES,
        "knn_exact_top10": ORACLE_KNN,
        "emb_neardup_pairs": ORACLE_EMB_NEARDUP,
        "doc_ngram_jaccard_dedup": ORACLE_NGRAM_JACCARD,
        "doc_common_ngram_pairs": ORACLE_COMMON_NGRAM,
        "doc_contamination": ORACLE_CONTAMINATION,
        "doc_pack_sequences": ORACLE_DOC_PACK,
        "doc_pack_stats": ORACLE_DOC_PACK_STATS,
        "doc_pack_texts": ORACLE_DOC_PACK_TEXTS,
        "doc_curation_pack": _curation_oracle_sql(),
        "doc_langid": _langid_oracle_sql(),
        "emb_label_centroid_norms": ORACLE_EMB_CENTROID_NORMS,
    }
