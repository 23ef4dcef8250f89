"""Mini SQL front-end (recon_ray/sql.py) differentially fuzzed against
DuckDB executing the IDENTICAL string on the identical table — grouped
aggregates with NULL keys/values, conjunctive WHERE, global aggregates,
projections, ORDER BY + LIMIT, and the parser's rejection surface."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd
from hypothesis import example, given, settings, strategies as st

from recon_ray.sql import SqlError, parse_sql, run_sql

GROUPED_Q = ("SELECT g, count(*) AS n, count(v) AS cv, sum(v) AS sv, "
             "min(v) AS mv, max(v) AS xv, avg(v) AS av FROM t{where} "
             "GROUP BY g")

WHERES = ["", " WHERE h >= 1", " WHERE v < 10 AND h <> 2",
          " WHERE g = 'x'", " WHERE v >= -5 AND v <= 25",
          " WHERE v BETWEEN -10 AND 20 AND h IN (0, 2)",
          " WHERE g IN ('x', 'y') AND v IS NOT NULL",
          " WHERE v IS NULL", " WHERE h NOT IN (1, 3)",
          " WHERE v BETWEEN 0 AND 30 AND g IS NOT NULL AND h <= 2"]


def _mk_df(rows):
    return pd.DataFrame(
        {"g": pd.Series([r[0] for r in rows], dtype=object),
         "h": pd.Series([r[1] for r in rows], dtype="int64"),
         "v": pd.Series([r[2] for r in rows], dtype="Float64")}
    )


def _exec_both(sql, df, parts):
    got = run_sql(sql, {"t": rd.from_pandas(df).repartition(parts)})
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute(sql).fetchdf()
    return got, want


def _cmp_sorted(got, want, float_cols=()):
    assert list(got.columns) == list(want.columns)
    key = [c for c in got.columns if c not in float_cols]
    g = got.sort_values(key, na_position="last").reset_index(drop=True) \
        if key else got
    w = want.sort_values(key, na_position="last").reset_index(drop=True) \
        if key else want
    assert len(g) == len(w)
    for c in got.columns:
        gv, wv = g[c], w[c]
        assert list(gv.isna()) == list(wv.isna()), c
        if c in float_cols:
            assert np.allclose(gv.dropna().astype(float),
                               wv.dropna().astype(float)), c
        else:
            assert list(gv.dropna()) == list(wv.dropna()), c


rows_st = st.lists(
    st.tuples(
        st.sampled_from(["x", "y", None]),
        st.integers(0, 3),
        st.one_of(st.none(), st.integers(-50, 50)),
    ),
    min_size=1, max_size=30,
)


@settings(max_examples=10, deadline=None)
@given(rows_st, st.sampled_from(WHERES),
       st.integers(min_value=1, max_value=4))
def test_grouped_aggregates_match_duckdb(rows, where, parts):
    df = _mk_df(rows)
    sql = GROUPED_Q.format(where=where)
    got, want = _exec_both(sql, df, parts)
    _cmp_sorted(got, want, float_cols=("sv", "av", "mv", "xv"))


@settings(max_examples=10, deadline=None)
@given(rows_st, st.sampled_from(WHERES),
       st.integers(min_value=1, max_value=4))
def test_global_aggregates_match_duckdb(rows, where, parts):
    df = _mk_df(rows)
    sql = ("SELECT count(*) AS n, count(v) AS cv, sum(v) AS sv, "
           "avg(v) AS av FROM t" + where)
    got, want = _exec_both(sql, df, parts)
    assert len(got) == 1 == len(want)
    _cmp_sorted(got, want, float_cols=("sv", "av"))


@settings(max_examples=8, deadline=None)
@given(rows_st, st.integers(min_value=1, max_value=4))
def test_projection_and_order_limit(rows, parts):
    df = _mk_df(rows)
    got, want = _exec_both("SELECT h, v FROM t WHERE h >= 1", df, parts)
    _cmp_sorted(got, want, float_cols=("v",))
    # unique order key -> deterministic LIMIT boundary
    df2 = df.assign(k=np.arange(len(df), dtype=np.int64))
    sql = ("SELECT k, count(*) AS n FROM t GROUP BY k "
           "ORDER BY k DESC LIMIT 3")
    got, want = _exec_both(sql, df2, parts)
    assert list(got["k"]) == list(want["k"])
    assert list(got["n"].astype("int64")) == list(want["n"])


def test_parser_rejects_out_of_scope():
    for bad in [
        "SELECT a FROM t JOIN u ON a = b",
        "SELECT a, sum(v) FROM t",                    # agg+raw, no group
        "SELECT sum(v) FROM t GROUP BY a ORDER BY zz",
        "SELECT * FROM t",
        "SELECT a FROM t WHERE v = 1 OR a IN (SELECT a FROM u)",
        "SELECT a FROM t WHERE NOT v > (SELECT max(v) FROM u)",
        "SELECT v + 1 FROM t",                        # expr needs alias
        "DELETE FROM t",
        "SELECT min(*) FROM t",
    ]:
        with pytest.raises(SqlError):
            parse_sql(bad)


def test_string_literals_and_escapes(ray_session):
    df = pd.DataFrame({"s": ["it's", "plain", None], "v": [1, 2, 3]})
    got = run_sql("SELECT v FROM t WHERE s = 'it''s'",
                  {"t": rd.from_pandas(df)})
    assert list(got["v"]) == [1]


@settings(max_examples=10, deadline=None)
@given(rows_st, st.integers(min_value=1, max_value=4))
def test_distinct_countdistinct_having(rows, parts):
    df = _mk_df(rows)
    # SELECT DISTINCT
    got, want = _exec_both("SELECT DISTINCT g, h FROM t", df, parts)
    _cmp_sorted(got, want)
    # count(DISTINCT v) grouped + HAVING on an alias
    sql = ("SELECT g, count(*) AS n, count(distinct v) AS dv "
           "FROM t GROUP BY g HAVING n >= 2")
    got, want = _exec_both(sql, df, parts)
    _cmp_sorted(got, want)
    # global count(distinct)
    got, want = _exec_both(
        "SELECT count(distinct v) AS dv, count(distinct g) AS dg FROM t",
        df, parts)
    assert list(got["dv"]) == list(want["dv"])
    assert list(got["dg"]) == list(want["dg"])


JOIN_QS = [
    "SELECT s, sum(y) AS sy, count(*) AS n FROM t1 a JOIN t2 b "
    "ON a.k = b.fk GROUP BY s",
    "SELECT s, count(y) AS cy, count(*) AS n FROM t1 a LEFT JOIN t2 b "
    "ON a.k = b.fk GROUP BY s",
    "SELECT s, lbl, min(x) AS mx, max(y) AS xy FROM t1 a "
    "LEFT OUTER JOIN t2 b ON a.k = b.fk GROUP BY s, lbl",
    "SELECT k, x, y, lbl FROM t1 INNER JOIN t2 ON t1.k = t2.fk",
    "SELECT k, x, y FROM t1 a LEFT JOIN t2 b ON a.k = b.fk "
    "WHERE x > 15",
    "SELECT lbl, avg(x) AS ax, count(DISTINCT k) AS dk FROM t1 a "
    "JOIN t2 b ON a.k = b.fk WHERE y IS NOT NULL GROUP BY lbl",
    "SELECT count(*) AS n, sum(x) AS sx FROM t1 a JOIN t2 b "
    "ON a.k = b.fk AND a.s = b.lbl",
    # the RIGHT key column stays in scope after the join (joined on a
    # renamed copy); on LEFT joins it must be NULL for unmatched rows
    "SELECT fk, s, count(*) AS n FROM t1 a JOIN t2 b ON a.k = b.fk "
    "GROUP BY fk, s",
    "SELECT k, fk, y FROM t1 a LEFT JOIN t2 b ON a.k = b.fk",
]


@settings(max_examples=12, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 5),
                       st.sampled_from(["x", "y", "p", "q"]),
                       st.integers(-5, 50)),
             min_size=0, max_size=12),
    st.lists(st.tuples(st.integers(0, 5),
                       st.one_of(st.none(), st.integers(0, 99)),
                       st.sampled_from(["x", "y", "p", "q"])),
             min_size=0, max_size=10),
    st.sampled_from(JOIN_QS),
    st.integers(min_value=1, max_value=3),
)
def test_join_matches_duckdb(lrows, rrows, sql, parts):
    """Two-table equi-JOIN front-end vs DuckDB on the identical string:
    inner/left cardinality, NULL right sides through every aggregate,
    post-join WHERE, multi-key ON — row order compared sorted on all
    columns (tie order under ORDER BY is unspecified in SQL). Runs the
    plan BOTH ways: broadcast (default — these frames are tiny) and
    forced shuffle (broadcast_rows=0); NULL join keys on both sides
    must never match (pandas merge would happily match NaN to NaN)."""
    t1 = pd.DataFrame(
        {"k": pd.Series(
            [None if r[2] % 7 == 3 else r[0] for r in lrows],
            dtype="Int64"),
         "s": pd.Series([r[1] for r in lrows], dtype=object),
         "x": pd.Series([r[2] for r in lrows], dtype="int64")})
    t2 = pd.DataFrame(
        {"fk": pd.Series(
            [None if (r[1] or 0) % 5 == 4 else r[0] for r in rrows],
            dtype="Int64"),
         "y": pd.Series([r[1] for r in rrows], dtype="Float64"),
         "lbl": pd.Series([r[2] for r in rrows], dtype=object)})
    con = duckdb.connect()
    con.register("t1", t1)
    con.register("t2", t2)
    want = con.execute(sql).fetchdf()
    for bcast in (200_000, 0):
        got = run_sql(sql,
                      {"t1": rd.from_pandas(t1).repartition(parts),
                       "t2": rd.from_pandas(t2).repartition(parts)},
                      broadcast_rows=bcast)
        _cmp_sorted(got, want, float_cols=("sy", "ax", "av"))


OUTER_JOIN_QS = [
    "SELECT k, s, x, fk, y, lbl FROM t1 a RIGHT JOIN t2 b "
    "ON a.k = b.fk",
    "SELECT k, s, x, fk, y, lbl FROM t1 a FULL OUTER JOIN t2 b "
    "ON a.k = b.fk",
    "SELECT s, count(y) AS cy, count(*) AS n FROM t1 a "
    "RIGHT OUTER JOIN t2 b ON a.k = b.fk GROUP BY s",
    "SELECT lbl, count(x) AS cx, count(*) AS n FROM t1 a "
    "FULL JOIN t2 b ON a.k = b.fk GROUP BY lbl",
    "SELECT k, fk, y FROM t1 a FULL JOIN t2 b ON a.k = b.fk "
    "WHERE x > 15 OR x IS NULL",
    "SELECT count(*) AS n FROM t1 a RIGHT JOIN t2 b "
    "ON a.k = b.fk AND a.s = b.lbl",
    "SELECT min(x) AS mx, max(y) AS xy, count(*) AS n FROM t1 a "
    "FULL OUTER JOIN t2 b ON a.k = b.fk",
]


@settings(max_examples=12, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 5),
                       st.sampled_from(["x", "y", "p", "q"]),
                       st.integers(-5, 50)),
             min_size=0, max_size=12),
    st.lists(st.tuples(st.integers(0, 5),
                       st.one_of(st.none(), st.integers(0, 99)),
                       st.sampled_from(["x", "y", "p", "q"])),
             min_size=0, max_size=10),
    st.sampled_from(OUTER_JOIN_QS),
    st.integers(min_value=1, max_value=3),
)
def test_outer_join_matches_duckdb(lrows, rrows, sql, parts):
    """RIGHT / FULL OUTER joins vs DuckDB on identical strings: both
    key columns stay in scope (each NULL on the other side's preserved
    rows — the engine joins on renamed copies because Ray/Acero
    consumes one key and coalesces the other), NULL keys never match
    but their rows still emit, empty sides resolve in the planner
    (NULL-pad or drop per join type), and WHERE stays post-join
    (pushdown is disabled — filtered rows would resurface
    NULL-padded)."""
    t1 = pd.DataFrame(
        {"k": pd.Series(
            [None if r[2] % 7 == 3 else r[0] for r in lrows],
            dtype="Int64"),
         "s": pd.Series([r[1] for r in lrows], dtype=object),
         "x": pd.Series([r[2] for r in lrows], dtype="int64")})
    t2 = pd.DataFrame(
        {"fk": pd.Series(
            [None if (r[1] or 0) % 5 == 4 else r[0] for r in rrows],
            dtype="Int64"),
         "y": pd.Series([r[1] for r in rrows], dtype="Float64"),
         "lbl": pd.Series([r[2] for r in rrows], dtype=object)})
    con = duckdb.connect()
    con.register("t1", t1)
    con.register("t2", t2)
    want = con.execute(sql).fetchdf()
    for bcast in (200_000, 0):
        got = run_sql(sql,
                      {"t1": rd.from_pandas(t1).repartition(parts),
                       "t2": rd.from_pandas(t2).repartition(parts)},
                      broadcast_rows=bcast)
        _cmp_sorted(got, want, float_cols=("cy", "cx"))


def test_join_parser_rejection_surface(ray_session):
    """Out-of-scope join shapes raise SqlError instead of mis-executing:
    colliding schemas, unknown aliases, non-equi ON, reserved aliases."""
    t1 = pd.DataFrame({"k": [1], "v": [2]})
    t2 = pd.DataFrame({"k": [1], "w": [3]})
    tables = {"t1": rd.from_pandas(t1), "t2": rd.from_pandas(t2)}
    with pytest.raises(SqlError):  # shared column name k
        run_sql("SELECT v FROM t1 a JOIN t2 b ON a.k = b.k", tables)
    with pytest.raises(SqlError):  # unknown qualifier
        run_sql("SELECT z.v FROM t1 a JOIN t2 b ON a.k = b.w", tables)
    with pytest.raises(SqlError):  # non-equi ON
        run_sql("SELECT v FROM t1 a JOIN t2 b ON a.k < b.w", tables)
    with pytest.raises(SqlError):  # ON must span both tables
        run_sql("SELECT v FROM t1 a JOIN t2 b ON a.k = a.v", tables)
    with pytest.raises(SqlError):  # same alias twice
        run_sql("SELECT v FROM t1 a JOIN t2 a ON a.k = a.w", tables)


WIN_QS = [
    "SELECT g, o, row_number() OVER (PARTITION BY g ORDER BY o) AS rn, "
    "rank() OVER (PARTITION BY g ORDER BY o) AS rk FROM t",
    "SELECT g, o, sum(v) OVER (PARTITION BY g ORDER BY o) AS rs, "
    "lag(v) OVER (PARTITION BY g ORDER BY o) AS pv FROM t",
    "SELECT g, o, ntile(3) OVER (PARTITION BY g ORDER BY o) AS t3, "
    "first_value(v) OVER (PARTITION BY g ORDER BY o) AS fv FROM t "
    "WHERE v >= 0",
    "SELECT o, percent_rank() OVER (PARTITION BY g ORDER BY o) AS pr, "
    "cume_dist() OVER (PARTITION BY g ORDER BY o) AS cd FROM t",
    "SELECT g, o, max(v) OVER (PARTITION BY g ORDER BY o) AS rm, "
    "lead(v) OVER (PARTITION BY g ORDER BY o) AS nv FROM t",
]


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["a", "b", "c", None]),
                       st.one_of(st.none(), st.integers(-9, 99))),
             min_size=0, max_size=25),
    st.sampled_from(WIN_QS),
    st.integers(min_value=1, max_value=3),
)
def test_window_fns_match_duckdb(rows, sql, parts):
    """Window-function front-end vs DuckDB on the identical string —
    unique ORDER BY key per the documented total-order contract; NULL
    partition keys and NULL values flow through every kind."""
    df = pd.DataFrame(
        {"g": pd.Series([r[0] for r in rows], dtype=object),
         "o": pd.Series(range(len(rows)), dtype="int64"),
         "v": pd.Series([r[1] for r in rows], dtype="Float64")})
    got = run_sql(sql, {"t": rd.from_pandas(df).repartition(parts)})
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute(sql).fetchdf()
    _cmp_sorted(got, want, float_cols=("pr", "cd"))


def test_window_parser_rejections(ray_session):
    df = pd.DataFrame({"g": ["a"], "v": [1]})
    tables = {"t": rd.from_pandas(df)}
    with pytest.raises(SqlError):  # windows + GROUP BY
        run_sql("SELECT g, row_number() OVER (PARTITION BY g ORDER BY v)"
                " AS rn FROM t GROUP BY g", tables)
    with pytest.raises(SqlError):  # missing alias
        run_sql("SELECT row_number() OVER (PARTITION BY g ORDER BY v) "
                "FROM t", tables)
    with pytest.raises(SqlError):  # row_number takes no argument
        run_sql("SELECT row_number(v) OVER (PARTITION BY g ORDER BY v) "
                "AS rn FROM t", tables)


SUBQ_QS = [
    "SELECT k, x FROM t1 WHERE k IN (SELECT fk FROM t2 WHERE y = 1)",
    "SELECT k, x FROM t1 WHERE k NOT IN (SELECT fk FROM t2 WHERE y = 1)",
    "SELECT k, x FROM t1 WHERE k NOT IN (SELECT fk FROM t2 WHERE y = 0 "
    "AND fk IS NOT NULL)",
    "SELECT count(*) AS n, sum(x) AS sx FROM t1 "
    "WHERE x > 2 AND k IN (SELECT fk FROM t2)",
    "SELECT k, count(*) AS n FROM t1 "
    "WHERE k IN (SELECT fk FROM t2 WHERE y BETWEEN 0 AND 1) GROUP BY k",
]


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 6)),
                       st.integers(-5, 50)), min_size=0, max_size=12),
    st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 6)),
                       st.integers(0, 1)), min_size=0, max_size=8),
    st.sampled_from(SUBQ_QS),
    st.integers(min_value=1, max_value=3),
)
def test_in_subquery_matches_duckdb(lrows, rrows, sql, parts):
    """IN / NOT IN (SELECT ...) vs DuckDB on identical strings — the
    semi/anti-join compilation, NOT IN NULL poisoning (any NULL in the
    subquery empties the result), NULL probe values, and empty
    subquery sides."""
    t1 = pd.DataFrame(
        {"k": pd.Series([r[0] for r in lrows], dtype="Float64"),
         "x": pd.Series([r[1] for r in lrows], dtype="int64")})
    t2 = pd.DataFrame(
        {"fk": pd.Series([r[0] for r in rrows], dtype="Float64"),
         "y": pd.Series([r[1] for r in rrows], dtype="int64")})
    got = run_sql(sql, {"t1": rd.from_pandas(t1).repartition(parts),
                        "t2": rd.from_pandas(t2).repartition(parts)})
    con = duckdb.connect()
    con.register("t1", t1)
    con.register("t2", t2)
    want = con.execute(sql).fetchdf()
    _cmp_sorted(got, want, float_cols=("sx",))


def test_subquery_parser_rejections(ray_session):
    df = pd.DataFrame({"k": [1], "v": [2]})
    tables = {"t": rd.from_pandas(df), "u": rd.from_pandas(df)}
    with pytest.raises(SqlError):  # multi-column subquery
        run_sql("SELECT k FROM t WHERE k IN (SELECT k, v FROM u)", tables)
    with pytest.raises(SqlError):  # aggregate subquery
        run_sql("SELECT k FROM t WHERE k IN (SELECT max(k) FROM u)",
                tables)
    with pytest.raises(SqlError):  # LIMIT changes semantics
        run_sql("SELECT k FROM t WHERE k IN (SELECT k FROM u LIMIT 1)",
                tables)
    with pytest.raises(SqlError):  # nested subquery
        run_sql("SELECT k FROM t WHERE k IN (SELECT k FROM u WHERE "
                "k IN (SELECT v FROM u))", tables)


SCALAR_QS = [
    "SELECT k, x FROM t1 WHERE x >= (SELECT avg(x) FROM t1)",
    "SELECT k FROM t1 WHERE x > (SELECT min(y) FROM t2 WHERE y > 20)",
    "SELECT count(*) AS n FROM t1 WHERE x <= (SELECT max(y) FROM t2)",
    "SELECT k FROM t1 WHERE x < (SELECT sum(y) FROM t2 WHERE y > 999)",
    "SELECT k FROM t1 WHERE x <> (SELECT count(*) FROM t2)",
]


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 9), st.integers(-5, 60)),
             min_size=0, max_size=10),
    st.lists(st.integers(0, 120), min_size=0, max_size=8),
    st.sampled_from(SCALAR_QS),
    st.integers(min_value=1, max_value=3),
)
def test_scalar_subquery_matches_duckdb(lrows, rvals, sql, parts):
    """Scalar (SELECT <agg> ...) comparisons vs DuckDB on identical
    strings — integer columns so every aggregate is accumulation-order
    exact; NULL scalars (sum/min/max over zero rows) empty the result."""
    t1 = pd.DataFrame(
        {"k": pd.Series([r[0] for r in lrows], dtype="int64"),
         "x": pd.Series([r[1] for r in lrows], dtype="int64")})
    t2 = pd.DataFrame({"y": pd.Series(rvals, dtype="int64"),
                       "fk": pd.Series(rvals, dtype="int64")})
    got = run_sql(sql, {"t1": rd.from_pandas(t1).repartition(parts),
                        "t2": rd.from_pandas(t2).repartition(parts)})
    con = duckdb.connect()
    con.register("t1", t1)
    con.register("t2", t2)
    want = con.execute(sql).fetchdf()
    _cmp_sorted(got, want)


def test_explain_sql_plan_shapes():
    """EXPLAIN names every physical stage the query compiles to, in
    pipeline order, without executing anything."""
    from recon_ray.sql import explain_sql

    plan = explain_sql(
        "SELECT s, sum(y) AS sy, count(DISTINCT k) AS dk FROM t1 a "
        "JOIN t2 b ON a.k = b.fk WHERE y > 3 AND k IN (SELECT fk FROM "
        "t3) AND x >= (SELECT avg(x) FROM t1) GROUP BY s "
        "HAVING sy > 10 ORDER BY sy DESC LIMIT 5")
    order = ["Scan t1", "Join t2", "ScalarSubquery", "Filter",
             "SemiJoin", "Aggregate", "DistinctCount", "Having",
             "Sort", "Limit"]
    pos = [plan.index(tok) for tok in order]
    assert pos == sorted(pos), plan
    assert "on k = fk; hash shuffle_join" in plan
    plan2 = explain_sql(
        "SELECT g, row_number() OVER (PARTITION BY g ORDER BY o) AS rn "
        "FROM t")
    assert "Window [PARTITION BY g ORDER BY o" in plan2
    assert "Aggregate" not in plan2
    # DELETE/UPDATE/INSERT are statement forms now; truly unknown
    # syntax still rejects
    with pytest.raises(SqlError):
        explain_sql("DROP TABLE t")


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                       st.one_of(st.none(), st.integers(-20, 80))),
             min_size=0, max_size=25),
    st.sampled_from([
        "SELECT g, quantile_disc(v, 0.5) AS med, count(*) AS n FROM t "
        "GROUP BY g",
        "SELECT quantile_disc(v, 0.9) AS p90 FROM t",
        "SELECT g, quantile_disc(v, 0.25) AS q1, "
        "quantile_disc(v, 0.75) AS q3 FROM t WHERE v > 0 GROUP BY g",
        "SELECT quantile_disc(v, 1.0) AS top FROM t WHERE v < 0",
    ]),
    st.integers(min_value=1, max_value=3),
)
def test_quantile_disc_matches_duckdb(rows, sql, parts):
    """quantile_disc in the front-end (compiled to grouped_quantiles /
    exact_quantiles element semantics) vs DuckDB on identical strings —
    NULL values skipped, empty/all-NULL groups yield NULL. (NULL group
    keys are out of the documented quantile scope.)"""
    df = pd.DataFrame(
        {"g": pd.Series([r[0] for r in rows], dtype=object),
         "v": pd.Series([r[1] for r in rows], dtype="Float64")})
    got = run_sql(sql, {"t": rd.from_pandas(df).repartition(parts)})
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute(sql).fetchdf()
    _cmp_sorted(got, want)


CHAIN_QS = [
    "SELECT cname, sum(qty) AS sq, count(*) AS n FROM cust c "
    "JOIN orders o ON c.ck = o.ock JOIN items i ON o.ok = i.iok "
    "GROUP BY cname",
    "SELECT cname, count(qty) AS cq FROM cust c LEFT JOIN orders o "
    "ON c.ck = o.ock LEFT JOIN items i ON o.ok = i.iok GROUP BY cname",
    "SELECT cname, status, qty FROM cust JOIN orders ON cust.ck = "
    "orders.ock JOIN items ON orders.ok = items.iok WHERE qty > 2",
    "SELECT count(*) AS n FROM cust c JOIN orders o ON c.ck = o.ock "
    "LEFT JOIN items i ON o.ok = i.iok WHERE status = 'F'",
    "SELECT cname, status, qty FROM cust c RIGHT JOIN orders o "
    "ON c.ck = o.ock FULL JOIN items i ON o.ok = i.iok",
    "SELECT status, count(qty) AS cq, count(*) AS n FROM cust c "
    "LEFT JOIN orders o ON c.ck = o.ock "
    "RIGHT JOIN items i ON o.ok = i.iok GROUP BY status",
]


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=0, max_size=5),
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 4),
                       st.sampled_from(["F", "O"])),
             min_size=0, max_size=8),
    st.lists(st.tuples(st.integers(0, 12), st.integers(1, 9)),
             min_size=0, max_size=10),
    st.sampled_from(CHAIN_QS),
    st.integers(min_value=1, max_value=3),
)
@example(  # empty mid-chain right side loses its schema; a later FULL
    # join's ON key must still resolve from the synthesized columns
    cks=[0, 2, 0, 0, 0], orows=[], irows=[(9, 4), (9, 1), (0, 1)],
    sql="SELECT cname, status, qty FROM cust c RIGHT JOIN orders o "
        "ON c.ck = o.ock FULL JOIN items i ON o.ok = i.iok",
    parts=1)
def test_join_chain_matches_duckdb(cks, orows, irows, sql, parts):
    """Three-table left-deep join chains vs DuckDB on identical strings
    — mixed INNER/LEFT, chain emptiness at any link, post-chain WHERE."""
    cust = pd.DataFrame({
        "ck": pd.Series(sorted(set(cks)), dtype="int64"),
        "cname": pd.Series([f"c{k}" for k in sorted(set(cks))],
                           dtype=object)})
    orders = pd.DataFrame({
        "ok": pd.Series(range(len(orows)), dtype="int64"),
        "ock": pd.Series([r[1] for r in orows], dtype="int64"),
        "status": pd.Series([r[2] for r in orows], dtype=object)})
    items = pd.DataFrame({
        "iok": pd.Series([r[0] for r in irows], dtype="int64"),
        "qty": pd.Series([r[1] for r in irows], dtype="int64")})
    tables = {n: rd.from_pandas(df).repartition(parts)
              for n, df in [("cust", cust), ("orders", orders),
                            ("items", items)]}
    got = run_sql(sql, tables)
    con = duckdb.connect()
    for n, df in [("cust", cust), ("orders", orders), ("items", items)]:
        con.register(n, df)
    want = con.execute(sql).fetchdf()
    _cmp_sorted(got, want, float_cols=("sq",))


@settings(max_examples=8, deadline=None)
@given(
    st.lists(st.integers(0, 29 * 24 * 3600), min_size=0, max_size=20),
    st.sampled_from([
        "SELECT count(*) AS n FROM t WHERE ts >= '2024-01-05'",
        "SELECT count(*) AS n FROM t WHERE ts < '2024-01-12' AND "
        "ts >= '2024-01-03'",
        "SELECT count(*) AS n FROM t "
        "WHERE ts BETWEEN '2024-01-02' AND '2024-01-20'",
        "SELECT count(*) AS n FROM t WHERE ts = '2024-01-01'",
    ]),
    st.integers(min_value=1, max_value=3),
)
def test_temporal_literals_match_duckdb(offsets, sql, parts):
    """String date literals against a timestamp column — cast to the
    column type at the same midnight boundaries SQL uses."""
    base = pd.Timestamp("2024-01-01")
    df = pd.DataFrame({"ts": [base + pd.Timedelta(seconds=s)
                              for s in offsets]})
    df["ts"] = pd.to_datetime(df["ts"]).astype("datetime64[us]")
    got = run_sql(sql, {"t": rd.from_pandas(df).repartition(parts)})
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute(sql).fetchdf()
    assert got.values.tolist() == want.values.tolist(), (offsets, sql)


UNION_QS = [
    "SELECT g, v FROM t1 UNION ALL SELECT h AS g, w AS v FROM t2",
    "SELECT g, v FROM t1 UNION SELECT h AS g, w AS v FROM t2",
    "SELECT g, count(*) AS n FROM t1 GROUP BY g UNION ALL "
    "SELECT h AS g, count(*) AS n FROM t2 GROUP BY h",
    "SELECT v FROM t1 WHERE v > 1 UNION ALL "
    "SELECT w AS v FROM t2 WHERE w < 99",
]


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["a", "b", None]),
                       st.integers(0, 6)), min_size=0, max_size=10),
    st.lists(st.tuples(st.sampled_from(["b", "c", None]),
                       st.integers(0, 6)), min_size=0, max_size=10),
    st.sampled_from(UNION_QS),
    st.integers(min_value=1, max_value=3),
)
def test_union_matches_duckdb(lrows, rrows, sql, parts):
    """UNION / UNION ALL vs DuckDB on identical strings — distinct
    semantics treat NULLs as equal, trailing ORDER BY binds the union."""
    t1 = pd.DataFrame(
        {"g": pd.Series([r[0] for r in lrows], dtype=object),
         "v": pd.Series([r[1] for r in lrows], dtype="int64")})
    t2 = pd.DataFrame(
        {"h": pd.Series([r[0] for r in rrows], dtype=object),
         "w": pd.Series([r[1] for r in rrows], dtype="int64")})
    got = run_sql(sql, {"t1": rd.from_pandas(t1).repartition(parts),
                        "t2": rd.from_pandas(t2).repartition(parts)})
    con = duckdb.connect()
    con.register("t1", t1)
    con.register("t2", t2)
    want = con.execute(sql).fetchdf()
    _cmp_sorted(got, want)


def test_union_rejections_and_explain(ray_session):
    from recon_ray.sql import explain_sql

    t1 = rd.from_pandas(pd.DataFrame({"g": ["a"]}))
    t2 = rd.from_pandas(pd.DataFrame({"w": [1]}))
    with pytest.raises(SqlError):  # mismatched column names
        run_sql("SELECT g FROM t1 UNION ALL SELECT w FROM t2",
                {"t1": t1, "t2": t2})
    plan = explain_sql(
        "SELECT g FROM t1 UNION ALL SELECT h AS g FROM t2 ORDER BY g")
    assert "UnionAll" in plan and "Side 2:" in plan and "Sort" in plan


FILTER_QS = [
    "SELECT g, count(*) FILTER (WHERE s = 'x') AS nx, count(*) AS n "
    "FROM t GROUP BY g",
    "SELECT g, sum(v) FILTER (WHERE v > 10) AS hi, "
    "avg(v) FILTER (WHERE s = 'y') AS ay, "
    "min(v) FILTER (WHERE v >= 0) AS mn FROM t GROUP BY g",
    "SELECT count(*) FILTER (WHERE v IS NULL) AS nn, "
    "sum(v) FILTER (WHERE v BETWEEN 0 AND 5) AS sv FROM t",
    "SELECT g, max(v) FILTER (WHERE s IN ('x')) AS mx FROM t "
    "WHERE v > -5 GROUP BY g",
    "SELECT count(v) FILTER (WHERE s <> 'x') AS cv FROM t",
]


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["a", "b", None]),
                       st.one_of(st.none(), st.integers(-12, 60)),
                       st.sampled_from(["x", "y"])),
             min_size=0, max_size=20),
    st.sampled_from(FILTER_QS),
    st.integers(min_value=1, max_value=3),
)
def test_filter_aggregates_match_duckdb(rows, sql, parts):
    """agg(...) FILTER (WHERE ...) vs DuckDB on identical strings —
    masked partials per aggregate, SQL NULL semantics inside the
    filter, empty-mask groups resolve to NULL sums / zero counts."""
    df = pd.DataFrame(
        {"g": pd.Series([r[0] for r in rows], dtype=object),
         "v": pd.Series([r[1] for r in rows], dtype="Float64"),
         "s": pd.Series([r[2] for r in rows], dtype=object)})
    got = run_sql(sql, {"t": rd.from_pandas(df).repartition(parts)})
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute(sql).fetchdf()
    _cmp_sorted(got, want, float_cols=("hi", "ay", "sv"))


@settings(max_examples=10, deadline=None)
@given(rows_st, st.sampled_from([
    "SELECT g, sum(v) AS sv FROM t GROUP BY g HAVING count(*) > 3",
    "SELECT g FROM t GROUP BY g HAVING count(DISTINCT v) >= 2 "
    "AND max(v) < 40",
    "SELECT g, count(*) AS n FROM t GROUP BY g "
    "HAVING n >= 2 AND min(v) > -20",
    "SELECT g FROM t GROUP BY g HAVING avg(v) > 5",
]), st.integers(min_value=1, max_value=4))
def test_having_raw_aggregates_match_duckdb(rows, sql, parts):
    """HAVING on aggregates not in the SELECT list (materialized as
    hidden result columns, dropped at the end) vs DuckDB."""
    df = _mk_df(rows)
    got, want = _exec_both(sql, df, parts)
    _cmp_sorted(got, want, float_cols=("sv",))


CASE_QS = [
    "SELECT CASE WHEN v < 10 THEN 'low' WHEN v < 30 THEN 'mid' "
    "ELSE 'high' END AS band, count(*) AS n FROM t GROUP BY band",
    "SELECT g, CASE WHEN v >= 0 AND v <= 20 THEN v ELSE 0 END "
    "AS clamped FROM t WHERE v IS NOT NULL",
    "SELECT CASE WHEN v IS NULL THEN 'missing' WHEN g = 'x' THEN g "
    "END AS lab, count(*) AS n FROM t GROUP BY lab",
    "SELECT CASE WHEN v BETWEEN 0 AND 30 THEN 'in' ELSE 'out' END "
    "AS w, min(v) AS mn, count(v) AS cv FROM t GROUP BY w",
    "SELECT CASE WHEN h IN (0, 2) THEN 'even' ELSE 'odd' END AS p, "
    "sum(v) AS sv FROM t GROUP BY p",
    "SELECT g, CASE WHEN v < 20 THEN v ELSE 0 END AS c, "
    "sum(v) AS sv FROM t GROUP BY g, c",
]


@settings(max_examples=10, deadline=None)
@given(rows_st, st.sampled_from(CASE_QS),
       st.integers(min_value=1, max_value=4))
def test_case_when_matches_duckdb(rows, sql, parts):
    """CASE WHEN bands in SELECT (derived-column stage, first-match
    semantics, missing-ELSE NULL, GROUP BY the alias) vs DuckDB."""
    df = _mk_df(rows)
    got, want = _exec_both(sql, df, parts)
    # `c` is exact (values of v or 0) and doubles as a GROUP key — it
    # must stay a sort key, or rows with tied g compare order-dependently
    _cmp_sorted(got, want, float_cols=("sv", "clamped"))


@pytest.mark.parametrize("sql", [
    "SELECT count(*) FILTER (WHERE s LIKE '%b') AS n, "
    "count(*) FILTER (WHERE s NOT LIKE 'a_b') AS m FROM t",
    "SELECT s, CASE WHEN s LIKE '%b' THEN 1 ELSE 0 END AS hit FROM t",
])
def test_like_spans_newlines_matches_duckdb(ray_session, sql):
    """LIKE's % and _ match a newline in FILTER and CASE too (the pandas
    predicate path), as they do in WHERE and in DuckDB."""
    df = pd.DataFrame({"s": pd.Series(["a\nb", "ab", "c"], dtype=object)})
    got, want = _exec_both(sql, df, 1)
    _cmp_sorted(got, want)


def test_case_parser_rejections():
    with pytest.raises(SqlError):  # needs alias
        parse_sql("SELECT CASE WHEN v > 1 THEN 'x' END FROM t")
    with pytest.raises(SqlError):  # subquery predicate
        parse_sql("SELECT CASE WHEN v IN (SELECT v FROM u) THEN 1 "
                  "ELSE 0 END AS c FROM t")
    with pytest.raises(SqlError):  # dangling arm
        parse_sql("SELECT CASE WHEN v > 1 END AS c FROM t")


BOOL_WHERES = [
    " WHERE v < 10 OR v > 30",
    " WHERE NOT (v < 10 OR g = 'x')",
    " WHERE v < 10 OR (g = 'x' AND h IN (1, 2))",
    " WHERE NOT v IS NULL AND (h = 1 OR h = 2)",
    " WHERE g = 'x' OR g IS NULL",
    " WHERE NOT (v BETWEEN 0 AND 20) OR h = 3",
    " WHERE NOT h = 2",
    " WHERE (v > 0 AND v < 10) OR (v > 20 AND v < 40) OR g = 'y'",
    " WHERE NOT (g IN ('x', 'y') AND NOT v IS NULL)",
    " WHERE NOT v BETWEEN 0 AND 20 AND h <> 1",
]


@settings(max_examples=12, deadline=None)
@given(rows_st, st.sampled_from(BOOL_WHERES),
       st.integers(min_value=1, max_value=4))
def test_or_not_where_matches_duckdb(rows, where, parts):
    """OR / NOT predicate trees vs DuckDB on the identical string —
    the landmine is SQL's three-valued logic (NOT UNKNOWN stays
    UNKNOWN, FALSE AND UNKNOWN is FALSE), exercised by the NULL g/v
    rows the strategy always mixes in."""
    df = _mk_df(rows)
    sql = ("SELECT g, count(*) AS n, sum(v) AS sv FROM t"
           + where + " GROUP BY g")
    got, want = _exec_both(sql, df, parts)
    _cmp_sorted(got, want, float_cols=("sv",))


EXPR_QS = [
    "SELECT g, sum(v * 2 + h) AS s, count(v * h) AS c, "
    "min(v - h) AS mn, avg(v * 2) AS av FROM t GROUP BY g",
    "SELECT g, max(v / h) AS mx FROM t GROUP BY g",
    "SELECT h * 2 AS hh, count(*) AS n FROM t GROUP BY hh",
    "SELECT g, v * 2 - h AS d FROM t WHERE v IS NOT NULL",
    "SELECT sum(v * (1 - h) * (1 + h)) AS s FROM t",
    "SELECT g, sum(-v + 2 * (h - 1)) AS s FROM t GROUP BY g",
    "SELECT avg(v / (h + 1)) AS r, min(v / 0) AS z FROM t",
]


@settings(max_examples=12, deadline=None)
@given(rows_st, st.sampled_from(EXPR_QS),
       st.integers(min_value=1, max_value=4))
def test_arith_exprs_match_duckdb(rows, sql, parts):
    """Arithmetic expressions (derived select items and inside
    aggregates) vs DuckDB: NULL propagation through + - *, DuckDB's
    x/0-is-NULL division, unary minus, parens, GROUP BY a derived
    alias."""
    df = _mk_df(rows)
    got, want = _exec_both(sql, df, parts)
    _cmp_sorted(got, want,
                float_cols=("s", "mn", "av", "mx", "d", "r", "z"))


TPCH_Q1 = """
SELECT l_returnflag, l_linestatus,
  sum(l_quantity) AS sum_qty,
  sum(l_extendedprice) AS sum_base_price,
  sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
  sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
  avg(l_quantity) AS avg_qty,
  avg(l_extendedprice) AS avg_price,
  avg(l_discount) AS avg_disc,
  count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= date '2000-09-02'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""

TPCH_Q6 = """
SELECT sum(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= date '1996-01-01'
  AND l_shipdate < date '1997-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07
  AND l_quantity < 24
"""


def test_tpch_q1_q6_verbatim(ray_session):
    """The VERBATIM TPC-H Q1/Q6 strings (dates shifted to the synthetic
    corpus range) execute on the engine and on DuckDB; float-product
    sums compare with tolerance (double accumulation order differs
    between engines, which is why the hash-gate queries use
    integer-exact arithmetic instead)."""
    path = "/root/testdata/sf0.001/lineitem.parquet"
    li = rd.read_parquet(path)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW lineitem AS SELECT * FROM '{path}'")
    for sql in (TPCH_Q1, TPCH_Q6):
        got = run_sql(sql, {"lineitem": li})
        want = con.execute(sql).fetchdf()
        assert list(got.columns) == list(want.columns)
        assert len(got) == len(want)
        for c in got.columns:
            gv, wv = got[c], want[c]
            if gv.dtype == object:
                assert list(gv) == list(wv), c
            else:
                assert np.allclose(gv.astype(float), wv.astype(float),
                                   rtol=1e-9, equal_nan=True), c


def test_expr_and_bool_parser_rejections():
    for bad in [
        "SELECT v + 'x' AS s FROM t",            # strings in arithmetic
        "SELECT sum(v + ) AS s FROM t",          # truncated expr
        "SELECT sum(v)) AS s FROM t",            # unbalanced
        "SELECT v * select AS s FROM t",         # keyword in expr
        "SELECT sum(distinct v + 1) AS s FROM t",  # DISTINCT over expr
        "SELECT sum(v * 2) FILTER (WHERE h = 1) AS s FROM t",
    ]:
        with pytest.raises(SqlError):
            parse_sql(bad)


def test_explain_shows_bool_and_derive():
    from recon_ray.sql import explain_sql

    plan = explain_sql(
        "SELECT h * 2 AS hh, count(*) AS n FROM t "
        "WHERE NOT (v < 1 OR g = 'x') GROUP BY hh")
    assert "Derive [" in plan and "NOT (" in plan and " OR " in plan
    plan2 = explain_sql("SELECT sum(v * (1 - h)) AS s FROM t")
    assert "sum((v * (1 - h)))->s" in plan2


POSTAGG_QS = [
    # dyadic-safe values only (v/4, v/8, h/2): the round() boundary is
    # exact in binary, so engine and DuckDB agree bit-for-bit
    "SELECT g, round(sum(v) / count(*), 2) AS r FROM t GROUP BY g",
    "SELECT g, round(avg(v / 4), 3) AS a, count(*) AS n "
    "FROM t GROUP BY g",
    "SELECT round(sum(v * 4) / sum(h + 1), 3) AS ratio, "
    "min(v) AS mn FROM t",
    "SELECT g, sum(v) / count(v) AS m, max(v) - min(v) AS rng "
    "FROM t GROUP BY g",
    "SELECT g, sum(cast(round(v * 100) as bigint)) AS cents "
    "FROM t WHERE v IS NOT NULL GROUP BY g",
    "SELECT g, round(sum(v), 1) AS s FROM t GROUP BY g "
    "HAVING s > 4",
    "SELECT cast(v / 8 as double) AS vd, round(v / 8, 2) AS vr, "
    "h FROM t WHERE v IS NOT NULL",
    "SELECT g, cast(round(v / 2) as bigint) AS half, count(*) AS n "
    "FROM t WHERE v IS NOT NULL GROUP BY g, half",
]


@settings(max_examples=12, deadline=None)
@given(rows_st, st.sampled_from(POSTAGG_QS),
       st.integers(min_value=1, max_value=4))
def test_round_cast_postagg_match_duckdb(rows, sql, parts):
    """round()/cast() in expressions and POST-aggregate expressions
    (arithmetic over aggregate results) vs DuckDB on identical
    strings: half-away-from-zero double rounding mirrored
    operation-for-operation, DuckDB's rounding double→BIGINT cast,
    aggregate-leaf dedup, HAVING on a post-aggregate alias."""
    df = _mk_df(rows)
    got, want = _exec_both(sql, df, parts)
    _cmp_sorted(got, want,
                float_cols=("r", "a", "ratio", "m", "rng", "mn",
                            "s", "vd", "vr"))


def test_postagg_parser_rejections():
    for bad in [
        # raw column mixed into a post-aggregate expression
        "SELECT g, v + sum(v) AS s FROM t GROUP BY g",
        "SELECT sum(sum(v)) AS s FROM t",           # nested aggregate
        "SELECT cast(v AS varchar) AS s FROM t",     # unsupported type
        "SELECT round(v, h) AS s FROM t",            # non-literal digits
        "SELECT round(sum(v), 2) FROM t",            # needs alias
    ]:
        with pytest.raises(SqlError):
            parse_sql(bad)


LIKE_QS = [
    "SELECT s, count(*) AS n FROM t WHERE s LIKE 'ab%' GROUP BY s",
    "SELECT s FROM t WHERE s NOT LIKE '%b%'",
    "SELECT s, count(*) AS n FROM t WHERE s LIKE '_b%' OR s LIKE 'c%' "
    "GROUP BY s",
    "SELECT count(*) AS n FROM t WHERE NOT s LIKE '%c'",
    "SELECT s FROM t WHERE s LIKE 'a\\%b'",
    "SELECT s FROM t WHERE s LIKE '%.*%'",
]


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.sampled_from(
        ["abc", "abd", "b", "cab", "a%b", "a.b", "ab", "x.*y",
         "a\\b", None]), min_size=1, max_size=20),
    st.sampled_from(LIKE_QS),
    st.integers(min_value=1, max_value=4),
)
def test_like_matches_duckdb(vals, sql, parts):
    """[NOT] LIKE vs DuckDB on identical strings: %/_ wildcards,
    backslash-is-a-literal (DuckDB's default LIKE has no escape char —
    pyarrow's match_like does, so the compiler doubles backslashes),
    regex metacharacters staying literal, NULL→UNKNOWN, and LIKE under
    OR/NOT."""
    df = pd.DataFrame({"s": pd.Series(vals, dtype=object)})
    got, want = _exec_both(sql, df, parts)
    _cmp_sorted(got, want)


def test_explain_with_tables_shows_optimizer(ray_session):
    from recon_ray.sql import explain_sql

    t1 = pd.DataFrame({"k": [1, 2, 3], "s": ["a", "b", "c"]})
    t2 = pd.DataFrame({"fk": [1, 2], "y": [5.0, 6.0]})
    tables = {"t1": rd.from_pandas(t1), "t2": rd.from_pandas(t2)}
    plan = explain_sql(
        "SELECT s, sum(y) AS sy FROM t1 a JOIN t2 b ON a.k = b.fk "
        "WHERE s = 'a' AND y > 1 GROUP BY s", tables)
    assert "PushedFilter [s = 'a'" in plan        # base-side pushdown
    assert "PushedFilter [y > " in plan           # inner-right pushdown
    assert "BROADCAST" in plan and "~2 rows" in plan
    # without tables: logical plan, no optimizer annotations
    plan2 = explain_sql(
        "SELECT s, sum(y) AS sy FROM t1 a JOIN t2 b ON a.k = b.fk "
        "WHERE s = 'a' GROUP BY s")
    assert "PushedFilter" not in plan2 and "shuffle" in plan2


CASEX_QS = [
    "SELECT g, sum(CASE WHEN v > 10 THEN v ELSE 0 END) AS s, "
    "count(*) AS n FROM t GROUP BY g",
    "SELECT sum(CASE WHEN h IN (0, 2) THEN 1 ELSE 0 END) AS hits, "
    "max(CASE WHEN v < 0 THEN -v END) AS m FROM t",
    "SELECT g, 2 * CASE WHEN v >= 0 THEN v + h ELSE -v END AS d "
    "FROM t WHERE v IS NOT NULL",
    "SELECT round(100.0 * sum(CASE WHEN g = 'x' THEN v ELSE 0 END) "
    "/ sum(v), 4) AS pct FROM t WHERE v IS NOT NULL",
    "SELECT g, avg(CASE WHEN h > 1 THEN v * 2 WHEN h = 1 THEN v END) "
    "AS a FROM t GROUP BY g",
]


@settings(max_examples=12, deadline=None)
@given(rows_st, st.sampled_from(CASEX_QS),
       st.integers(min_value=1, max_value=4))
def test_case_in_expressions_matches_duckdb(rows, sql, parts):
    """CASE inside aggregates and arithmetic (the TPC-H Q12/Q14
    conditional-aggregate shape) vs DuckDB: excised-body parsing,
    expression THEN/ELSE values, missing-ELSE NULLs flowing through
    sum/max/avg, CASE as a post-aggregate ratio numerator."""
    df = _mk_df(rows)
    got, want = _exec_both(sql, df, parts)
    _cmp_sorted(got, want, float_cols=("s", "m", "d", "pct", "a"))


def test_casex_parser_rejections():
    for bad in [
        "SELECT sum(CASE WHEN v > 1 THEN CASE WHEN h = 1 THEN 1 END "
        "END) AS s FROM t",                       # nested CASE
        "SELECT 1 + CASE WHEN v > 1 THEN 'x' END AS s FROM t",
        "SELECT sum(CASE WHEN v > 1 THEN 1) AS s FROM t",  # no END
    ]:
        with pytest.raises(SqlError):
            parse_sql(bad)


AGG_SUBQ_QS = [
    "SELECT g, count(*) AS n FROM t WHERE h IN "
    "(SELECT h FROM t GROUP BY h HAVING count(*) >= 3) GROUP BY g",
    "SELECT g, v FROM t WHERE h NOT IN "
    "(SELECT h FROM t GROUP BY h HAVING sum(v) > 20)",
    "SELECT count(*) AS n FROM t WHERE g IN "
    "(SELECT g FROM t WHERE v IS NOT NULL GROUP BY g "
    "HAVING min(v) >= -10)",
]


@settings(max_examples=10, deadline=None)
@given(rows_st, st.sampled_from(AGG_SUBQ_QS),
       st.integers(min_value=1, max_value=4))
def test_aggregated_in_subquery_matches_duckdb(rows, sql, parts):
    """IN (SELECT k ... GROUP BY k HAVING agg) — the TPC-H Q18 shape:
    the inner query plans recursively, its groups-sized key set
    semi/anti-joins back; the paren-aware clause splitter keeps the
    inner GROUP BY/HAVING out of the outer statement. NOT IN keeps its
    NULL poisoning (a NULL group key in the inner result empties the
    outer)."""
    df = _mk_df(rows)
    got, want = _exec_both(sql, df, parts)
    # v holds exact integers (or NULL), so it stays a sort key - as a
    # float_col, rows with tied g would compare order-dependently
    _cmp_sorted(got, want)


DERIVED_QS = [
    "SELECT cnt, count(*) AS dist FROM (SELECT g, count(*) AS cnt "
    "FROM t GROUP BY g) gc GROUP BY cnt ORDER BY dist DESC, cnt DESC",
    "SELECT sum(sv) AS total, count(*) AS ng FROM "
    "(SELECT g, sum(v) AS sv FROM t WHERE v IS NOT NULL GROUP BY g) x",
    "SELECT g, h FROM (SELECT DISTINCT g, h FROM t) d "
    "WHERE h >= 1 ORDER BY g, h",
    "SELECT avg(mx) AS am FROM (SELECT h, max(v) AS mx FROM t "
    "GROUP BY h) hv WHERE mx IS NOT NULL",
]


@settings(max_examples=10, deadline=None)
@given(rows_st, st.sampled_from(DERIVED_QS),
       st.integers(min_value=1, max_value=4))
def test_derived_tables_match_duckdb(rows, sql, parts):
    """FROM (SELECT ... GROUP BY / DISTINCT) alias — derived tables
    (the TPC-H Q13 shape): the inner aggregated query plans
    recursively, its groups-sized frame re-enters as the base; outer
    WHERE/GROUP BY/ORDER BY operate on the inner's aliases."""
    df = _mk_df(rows)
    got, want = _exec_both(sql, df, parts)
    _cmp_sorted(got, want, float_cols=("total", "am", "sv"))


def test_derived_table_rejections():
    with pytest.raises(SqlError):  # raw inner projection
        parse_sql("SELECT a FROM (SELECT a FROM t) x")
    with pytest.raises(SqlError):  # needs alias
        parse_sql("SELECT a FROM (SELECT a, count(*) AS n FROM t "
                  "GROUP BY a)")
    with pytest.raises(SqlError):  # joins on top are out of scope
        parse_sql("SELECT a FROM (SELECT a, count(*) AS n FROM t "
                  "GROUP BY a) x JOIN u ON x.a = u.b")


QUALIFY_QS = [
    "SELECT g, o, row_number() OVER (PARTITION BY g ORDER BY o) AS rn "
    "FROM t QUALIFY rn <= 2",
    "SELECT g, o, rank() OVER (PARTITION BY g ORDER BY o) AS rk "
    "FROM t WHERE v IS NOT NULL QUALIFY rk = 1 OR rk = 3",
    "SELECT g, o, sum(v) OVER (PARTITION BY g ORDER BY o) AS rs "
    "FROM t QUALIFY rs > 10 ORDER BY o LIMIT 5",
    "SELECT o, ntile(2) OVER (PARTITION BY g ORDER BY o) AS t2 "
    "FROM t QUALIFY NOT t2 = 2",
]


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["a", "b", "c", None]),
                       st.one_of(st.none(), st.integers(-9, 99))),
             min_size=0, max_size=25),
    st.sampled_from(QUALIFY_QS),
    st.integers(min_value=1, max_value=3),
)
def test_qualify_matches_duckdb(rows, sql, parts):
    """QUALIFY (filter on window outputs — distributed grouped top-k)
    vs DuckDB on identical strings: boolean trees over window aliases,
    UNKNOWN rows dropped, composing with WHERE / ORDER BY / LIMIT."""
    df = pd.DataFrame(
        {"g": pd.Series([r[0] for r in rows], dtype=object),
         "o": pd.Series(range(len(rows)), dtype="int64"),
         "v": pd.Series([r[1] for r in rows], dtype="Float64")})
    got = run_sql(sql, {"t": rd.from_pandas(df).repartition(parts)})
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute(sql).fetchdf()
    _cmp_sorted(got, want, float_cols=("rs",))


def test_qualify_rejections():
    with pytest.raises(SqlError):  # no windows
        parse_sql("SELECT g FROM t QUALIFY g = 'x'")
    with pytest.raises(SqlError):  # not a result column
        parse_sql("SELECT g, row_number() OVER (PARTITION BY g "
                  "ORDER BY o) AS rn FROM t QUALIFY v > 1")


CTE_QS = [
    "WITH gc AS (SELECT g, count(*) AS n FROM t GROUP BY g) "
    "SELECT n, count(*) AS dist FROM gc GROUP BY n ORDER BY n",
    "WITH hv AS (SELECT h, sum(v) AS sv FROM t GROUP BY h), "
    "top AS (SELECT max(sv) AS m FROM hv) "
    "SELECT h, sv FROM hv WHERE sv = (SELECT max(m) FROM top) "
    "ORDER BY h",
    "WITH d AS (SELECT DISTINCT g, h FROM t) "
    "SELECT g, count(*) AS n FROM d GROUP BY g ORDER BY g",
]


@settings(max_examples=10, deadline=None)
@given(rows_st, st.sampled_from(CTE_QS),
       st.integers(min_value=1, max_value=4))
def test_ctes_match_duckdb(rows, sql, parts):
    """WITH ... AS: each (result-sized) CTE plans once and registers
    as an in-memory table visible to later CTEs, subqueries, and the
    main query — the TPC-H Q15 shape — vs DuckDB on identical
    strings."""
    df = _mk_df(rows)
    got, want = _exec_both(sql, df, parts)
    _cmp_sorted(got, want, float_cols=("sv",))


def test_cte_rejections():
    from recon_ray.sql import run_sql as _rs

    with pytest.raises(SqlError):  # raw projection CTE
        _rs("WITH x AS (SELECT g FROM t) SELECT g FROM x", {})
    with pytest.raises(SqlError):  # unbalanced
        _rs("WITH x AS (SELECT g, count(*) AS n FROM t GROUP BY g "
            "SELECT n FROM x", {})


CMP2_QS = [
    "SELECT g, count(*) AS n FROM t WHERE v < h GROUP BY g",
    "SELECT g, v, h FROM t WHERE v >= h AND g IS NOT NULL",
    "SELECT count(*) AS n FROM t WHERE NOT v = h OR v IS NULL",
    "SELECT g, sum(CASE WHEN v > h THEN 1 ELSE 0 END) AS gt "
    "FROM t GROUP BY g",
]


@settings(max_examples=10, deadline=None)
@given(rows_st, st.sampled_from(CMP2_QS),
       st.integers(min_value=1, max_value=4))
def test_col_to_col_comparisons_match_duckdb(rows, sql, parts):
    """Column-to-column comparisons (v < h) vs DuckDB: NULL on either
    side is UNKNOWN (the pandas 3VL path must mask BOTH columns), and
    they compose with NOT/OR and CASE."""
    df = _mk_df(rows)
    got, want = _exec_both(sql, df, parts)
    _cmp_sorted(got, want)


WIN_DESC_QS = [
    "SELECT g, o, row_number() OVER (PARTITION BY g ORDER BY o DESC) "
    "AS rn FROM t",
    "SELECT g, o, sum(v) OVER (PARTITION BY g ORDER BY o DESC) AS rs, "
    "lag(v) OVER (PARTITION BY g ORDER BY o DESC) AS pv FROM t",
    "SELECT g, o, row_number() OVER (PARTITION BY g ORDER BY o DESC) "
    "AS rn FROM t QUALIFY rn <= 2",
    "SELECT g, o, rank() OVER (PARTITION BY g ORDER BY o) AS up, "
    "rank() OVER (PARTITION BY g ORDER BY o DESC) AS down FROM t",
]


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["a", "b", None]),
                       st.one_of(st.none(), st.integers(-9, 99))),
             min_size=0, max_size=25),
    st.sampled_from(WIN_DESC_QS),
    st.integers(min_value=1, max_value=3),
)
def test_window_desc_matches_duckdb(rows, sql, parts):
    """ORDER BY ... DESC windows vs DuckDB (unique order key per the
    total-order contract) — including ASC and DESC windows in ONE
    query (two separate window_over shuffles) and DESC top-k via
    QUALIFY."""
    df = pd.DataFrame(
        {"g": pd.Series([r[0] for r in rows], dtype=object),
         "o": pd.Series(range(len(rows)), dtype="int64"),
         "v": pd.Series([r[1] for r in rows], dtype="Float64")})
    got = run_sql(sql, {"t": rd.from_pandas(df).repartition(parts)})
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute(sql).fetchdf()
    _cmp_sorted(got, want, float_cols=("rs",))


SETOP_QS = [
    "SELECT g, h FROM t WHERE v > 0 INTERSECT SELECT g, h FROM t "
    "WHERE h >= 1 ORDER BY g, h",
    "SELECT g FROM t WHERE h <= 1 EXCEPT SELECT g FROM t WHERE v < 0",
    "SELECT g, h FROM t EXCEPT SELECT g, h FROM t WHERE v IS NULL "
    "ORDER BY g, h LIMIT 5",
    "SELECT h FROM t INTERSECT SELECT h FROM t WHERE g = 'x' "
    "INTERSECT SELECT h FROM t WHERE v IS NOT NULL",
]


@settings(max_examples=10, deadline=None)
@given(rows_st, st.sampled_from(SETOP_QS),
       st.integers(min_value=1, max_value=4))
def test_intersect_except_match_duckdb(rows, sql, parts):
    """INTERSECT / EXCEPT vs DuckDB on identical strings: set
    semantics (dedup), SQL's NULLs-are-equal rule for set operators,
    left-associative EXCEPT chains, trailing ORDER BY/LIMIT binding
    the whole chain."""
    df = _mk_df(rows)
    got, want = _exec_both(sql, df, parts)
    _cmp_sorted(got, want)


def test_mixed_setops_rejected():
    with pytest.raises(SqlError):
        parse_sql("SELECT g FROM t UNION SELECT g FROM t "
                  "INTERSECT SELECT g FROM t")


@settings(max_examples=8, deadline=None)
@given(rows_st, st.integers(0, 6), st.integers(1, 5),
       st.integers(min_value=1, max_value=4))
def test_limit_offset_matches_duckdb(rows, off, lim, parts):
    """LIMIT n OFFSET m after a total-order ORDER BY (unique key k, so
    the page boundary is deterministic) vs DuckDB."""
    df = _mk_df(rows).assign(k=np.arange(len(rows), dtype=np.int64))
    sql = (f"SELECT k, h FROM t ORDER BY k DESC LIMIT {lim} "
           f"OFFSET {off}")
    got, want = _exec_both(sql, df, parts)
    assert list(got["k"]) == list(want["k"])
    assert list(got["h"]) == list(want["h"])
    # grouped paging too
    sql2 = (f"SELECT k, count(*) AS n FROM t GROUP BY k "
            f"ORDER BY k LIMIT {lim} OFFSET {off}")
    got2, want2 = _exec_both(sql2, df, parts)
    assert list(got2["k"]) == list(want2["k"])


ROLLUP_QS = [
    "SELECT g, h, count(*) AS n, sum(v) AS sv FROM t "
    "GROUP BY ROLLUP(g, h)",
    "SELECT g, h, min(v) AS mn, max(v) AS mx, avg(v) AS av FROM t "
    "WHERE v IS NOT NULL GROUP BY CUBE(g, h)",
    "SELECT g, count(*) AS n, "
    "count(*) FILTER (WHERE v > 0) AS np FROM t GROUP BY ROLLUP(g)",
]


@settings(max_examples=10, deadline=None)
@given(rows_st, st.sampled_from(ROLLUP_QS),
       st.integers(min_value=1, max_value=4))
def test_rollup_cube_match_duckdb(rows, sql, parts):
    """GROUP BY ROLLUP/CUBE vs DuckDB on identical strings: every
    coarser grouping set recomposes from the finest level's combiner
    partials (no second input pass) — including FILTER'd partials —
    with SQL-NULL subtotal keys alongside genuine NULL key groups."""
    df = _mk_df(rows)
    got, want = _exec_both(sql, df, parts)
    # CUBE legitimately emits rows with IDENTICAL key tuples from
    # different grouping sets (a genuine-NULL key group vs a subtotal),
    # so aggregates must join the sort key; they're bit-identical here
    # (integer sums, identical sum/count divisions)
    _cmp_sorted(got, want)


def test_rollup_rejections():
    with pytest.raises(SqlError):
        parse_sql("SELECT g, count(DISTINCT v) AS d FROM t "
                  "GROUP BY ROLLUP(g)")
    with pytest.raises(SqlError):
        parse_sql("SELECT g, quantile_disc(v, 0.5) AS q FROM t "
                  "GROUP BY CUBE(g)")


SCALARFN_QS = [
    "SELECT g, coalesce(v, 0) AS cv, abs(v) AS av, "
    "greatest(v, h) AS gr, least(v, h) AS le FROM t",
    "SELECT nullif(h, 2) AS nh, power(h, 2) AS p2, "
    "floor(v / 4) AS fl, ceil(v / 4) AS ce FROM t",
    "SELECT g, sum(coalesce(v, 0)) AS sv, "
    "max(abs(v)) AS mx FROM t GROUP BY g",
    "SELECT round(sqrt(abs(sum(v))), 6) AS rs, "
    "round(ln(count(*) + 1), 6) AS lc, "
    "exp(0) * count(*) AS e1 FROM t",
    "SELECT g, coalesce(v, h, NULL) AS c3 FROM t",
]


@settings(max_examples=10, deadline=None)
@given(rows_st, st.sampled_from(SCALARFN_QS),
       st.integers(min_value=1, max_value=4))
def test_scalar_fns_match_duckdb(rows, sql, parts):
    """Scalar numeric functions (abs/floor/ceil/sqrt/ln/exp/power,
    coalesce/nullif/greatest/least) vs DuckDB on identical strings —
    as select items, inside aggregates, in WHERE, and in
    post-aggregate expressions. greatest/least skip NULLs (DuckDB
    semantics); NULL literals are legal expression atoms."""
    df = _mk_df(rows)
    got, want = _exec_both(sql, df, parts)
    _cmp_sorted(got, want,
                float_cols=("cv", "av", "gr", "le", "nh", "p2", "fl",
                            "ce", "sv", "mx", "rs", "lc", "e1", "c3"))


def test_scalar_fn_rejections():
    with pytest.raises(SqlError):  # nullif arity
        parse_sql("SELECT nullif(v) AS x FROM t")
    with pytest.raises(SqlError):  # power arity
        parse_sql("SELECT power(v, 2, 3) AS x FROM t")
    with pytest.raises(SqlError):  # coalesce arity
        parse_sql("SELECT coalesce(v) AS x FROM t")
    with pytest.raises(SqlError):  # unknown function still rejects
        parse_sql("SELECT sin(v) AS x FROM t")
    with pytest.raises(SqlError):  # expression-LHS WHERE predicates
        parse_sql("SELECT g FROM t WHERE coalesce(v, 0) >= 0")


VARAGG_QS = [
    "SELECT g, stddev_samp(v) AS sd, var_samp(v) AS vs FROM t "
    "GROUP BY g",
    "SELECT g, stddev_pop(v) AS sp, var_pop(v) AS vp, count(v) AS n "
    "FROM t GROUP BY g",
    "SELECT stddev(v) AS sd, variance(v) AS va FROM t",
    "SELECT g, stddev_samp(v + h) AS sd2 FROM t GROUP BY g",
    # count(v)/sum(v) are exact-integer disambiguators: ROLLUP can
    # emit a genuine-NULL-key group and a subtotal with IDENTICAL key
    # tuples, and var_pop (float) can't join the sort key — when
    # (g, h, n, sv) all tie, the two rows aggregate the same set, so
    # vp ties too
    "SELECT g, h, count(v) AS n, sum(v) AS sv, var_pop(v) AS vp FROM t "
    "GROUP BY ROLLUP(g, h)",
    "SELECT round(stddev_samp(v) / 10, 6) AS r FROM t "
    "WHERE v IS NOT NULL",
]


@settings(max_examples=10, deadline=None)
@given(rows_st, st.sampled_from(VARAGG_QS),
       st.integers(min_value=1, max_value=4))
def test_variance_aggs_match_duckdb(rows, sql, parts):
    """stddev/variance family vs DuckDB on identical strings: the
    (Σx², Σx, n) two-pass partials merge like sums — so they ride the
    same combiner, recompose through ROLLUP, and accept expression
    arguments and post-aggregate use. n=1 → NULL for _samp / 0 for
    _pop; n=0 → NULL (matches SQL)."""
    df = _mk_df(rows)
    got, want = _exec_both(sql, df, parts)
    _cmp_sorted(got, want,
                float_cols=("sd", "vs", "sp", "vp", "va", "sd2", "r",
                            "sv"))


def test_variance_rejections():
    with pytest.raises(SqlError):  # DISTINCT not supported
        parse_sql("SELECT stddev_samp(DISTINCT v) AS s FROM t")
    with pytest.raises(SqlError):  # FILTER not supported
        parse_sql("SELECT var_pop(v) FILTER (WHERE h > 1) AS s FROM t")
    with pytest.raises(SqlError):  # stddev(*) is not a thing
        parse_sql("SELECT stddev_samp(*) AS s FROM t")


GSETS_QS = [
    "SELECT g, h, count(*) AS n, sum(v) AS sv FROM t "
    "GROUP BY GROUPING SETS ((g, h), (g), ())",
    "SELECT g, h, count(*) AS n FROM t "
    "GROUP BY GROUPING SETS ((h), (g))",
    "SELECT g, h, count(*) AS n, min(v) AS mn, avg(v) AS av FROM t "
    "WHERE v IS NOT NULL GROUP BY GROUPING SETS ((g, h), ())",
    "SELECT g, count(*) AS n FROM t "
    "GROUP BY GROUPING SETS ((g), (g))",
]


@settings(max_examples=10, deadline=None)
@given(rows_st, st.sampled_from(GSETS_QS),
       st.integers(min_value=1, max_value=4))
def test_grouping_sets_match_duckdb(rows, sql, parts):
    """GROUP BY GROUPING SETS vs DuckDB on identical strings: exactly
    the requested sets (finest level only if asked for; duplicate sets
    emit duplicate rows, like SQL), recomposed from one combiner pass
    over the union of keys."""
    df = _mk_df(rows)
    got, want = _exec_both(sql, df, parts)
    _cmp_sorted(got, want, float_cols=("sv", "mn", "av"))


def test_grouping_sets_rejections():
    with pytest.raises(SqlError):  # unparenthesized set
        parse_sql("SELECT g, count(*) AS n FROM t "
                  "GROUP BY GROUPING SETS (g)")
    with pytest.raises(SqlError):  # distinct counts don't recompose
        parse_sql("SELECT g, count(DISTINCT v) AS d FROM t "
                  "GROUP BY GROUPING SETS ((g), ())")


DATEFN_QS = [
    "SELECT date_trunc('day', ts) AS d, count(*) AS n FROM t "
    "GROUP BY d",
    "SELECT date_trunc('month', ts) AS mo, date_trunc('week', ts) "
    "AS wk, date_trunc('hour', ts) AS hh FROM t",
    "SELECT extract(year from ts) AS y, extract(month from ts) AS mo, "
    "extract(day from ts) AS d, extract(hour from ts) AS hh FROM t",
    "SELECT extract(dow from ts) AS dw, extract(doy from ts) AS dy, "
    "extract(week from ts) AS wk, extract(minute from ts) AS mi FROM t",
    "SELECT extract(year from ts) AS y, count(*) AS n FROM t "
    "GROUP BY y",
    "SELECT date_trunc('year', ts) AS yy, sum(v) AS sv, "
    "count(*) AS n FROM t GROUP BY yy",
]


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.one_of(st.none(), st.integers(0, 800)),
             min_size=1, max_size=25),
    st.lists(st.one_of(st.none(), st.integers(-50, 50)),
             min_size=1, max_size=25),
    st.sampled_from(DATEFN_QS),
    st.integers(min_value=1, max_value=4),
)
def test_date_fns_match_duckdb(days, vals, sql, parts):
    """date_trunc (temporal derive column, usable as a GROUP BY key)
    and extract (numeric expression leaf) vs DuckDB on identical
    strings — dow is Sunday=0, week is ISO, date_trunc('week') lands
    on Monday. NaT propagates as NULL."""
    n = max(len(days), len(vals))
    days = (days * n)[:n]
    vals = (vals * n)[:n]
    base = pd.Timestamp("2023-11-30 21:15:40")
    ts = [None if d is None
          else base + pd.Timedelta(hours=int(d) * 7 + (int(d) % 13))
          for d in days]
    df = pd.DataFrame({
        "ts": pd.Series(ts, dtype="datetime64[ns]"),
        "v": pd.Series(vals, dtype="Float64"),
    })
    got, want = _exec_both(sql, df, parts)
    _cmp_sorted(got, want, float_cols=("sv",))


def test_date_fn_rejections():
    with pytest.raises(SqlError):  # unknown part
        parse_sql("SELECT date_trunc('fortnight', ts) AS d FROM t")
    with pytest.raises(SqlError):  # date_trunc needs an alias
        parse_sql("SELECT date_trunc('day', ts) FROM t")
    with pytest.raises(SqlError):  # unknown extract part
        parse_sql("SELECT extract(century from ts) AS c FROM t")


strs_st = st.lists(
    st.one_of(
        st.none(),
        st.sampled_from(["Customer#0001", "bob smith", "  pad  ", "",
                         "Ann", "ZZ top", "a'b", "naïve", "x%y_z",
                         "  LEAD  ", "tail   "]),
        st.text(alphabet="abXY #%_0", min_size=0, max_size=12),
    ),
    min_size=1, max_size=25,
)

STRFN_QS = [
    "SELECT upper(s) AS u, lower(s) AS lo, length(s) AS n FROM t",
    "SELECT substring(s, 1, 4) AS pre, substring(s, 3) AS sfx, "
    "trim(s) AS tr FROM t",
    "SELECT ltrim(s) AS lt, rtrim(s) AS rt, left(s, 3) AS l3, "
    "right(s, 2) AS r2, left(s, 0) AS l0, right(s, 0) AS r0 FROM t",
    "SELECT s || '!' AS bang, s || '-' || tag AS joined, "
    "concat(s, '/', tag) AS cat FROM t",
    "SELECT replace(s, 'b', 'B') AS rep, "
    "upper(substring(trim(s), 1, 2)) AS nest FROM t",
    "SELECT substring(s, 1, 2) AS g2, count(*) AS n, sum(v) AS sv "
    "FROM t GROUP BY g2",
    "SELECT upper(tag) AS ut, min(v) AS mn, count(s) AS cs FROM t "
    "GROUP BY ut",
    "SELECT sum(length(s)) AS sl, max(length(s || tag)) AS ml, "
    "count(*) AS n FROM t",
    "SELECT length(s) + v AS lv, length(concat(s, tag)) AS lc FROM t",
    "SELECT upper(tag) AS ut, min(s) AS s_mn, max(s) AS s_mx, "
    "count(*) AS n FROM t GROUP BY ut",
    "SELECT min(s) AS s_mn, max(tag) AS t_mx, min(v) AS v_mn FROM t",
    "SELECT tag, min(s) AS s_mn, count(*) AS n FROM t "
    "GROUP BY ROLLUP (tag)",
]


@settings(max_examples=10, deadline=None)
@given(strs_st, st.sampled_from(STRFN_QS),
       st.integers(min_value=1, max_value=4))
def test_string_fns_match_duckdb(strs, sql, parts):
    """String expressions vs DuckDB on identical strings — as derived
    select items, GROUP BY keys, inside length() numeric leaves, and
    nested (upper(substring(trim(s),...))). || propagates NULL;
    concat() skips NULLs; trim strips whitespace only."""
    n = len(strs)
    df = pd.DataFrame({
        "s": pd.Series(strs, dtype=object),
        "tag": pd.Series((["q", None, "R ", ""] * n)[:n], dtype=object),
        "v": pd.Series(([3, None, -1, 8, 0] * n)[:n], dtype="Float64"),
    })
    got, want = _exec_both(sql, df, parts)
    _cmp_sorted(got, want, float_cols=("sv", "mn", "lv"))


STRPRED_QS = [
    "SELECT s FROM t WHERE upper(s) = 'BOB SMITH'",
    "SELECT s, v FROM t WHERE substring(s, 1, 1) IN ('b', 'C', 'Z')",
    "SELECT s FROM t WHERE trim(s) <> s",
    "SELECT s FROM t WHERE lower(s) LIKE '%b%' OR length(s) IS NULL",
    "SELECT count(*) AS n FROM t WHERE s || tag IS NOT NULL",
    "SELECT s FROM t WHERE left(s, 2) NOT IN ('bo', 'Cu') "
    "AND v IS NOT NULL",
    "SELECT s, tag FROM t WHERE replace(s, ' ', '') = 'bobsmith' "
    "OR upper(tag) = 'Q'",
    "SELECT substring(s, 2, 3) AS mid FROM t "
    "WHERE upper(substring(s, 1, 3)) >= 'BO'",
]


@settings(max_examples=10, deadline=None)
@given(strs_st, st.sampled_from(STRPRED_QS),
       st.integers(min_value=1, max_value=4))
def test_string_preds_match_duckdb(strs, sql, parts):
    """String-expression predicate LHS vs DuckDB: = <> >= IN LIKE
    IS [NOT] NULL over fn results, in AND/OR trees, compiled to the
    same zero-copy pyarrow kernels as plain-column predicates (and
    eligible for pushdown below joins)."""
    n = len(strs)
    df = pd.DataFrame({
        "s": pd.Series(strs, dtype=object),
        "tag": pd.Series((["q", None, "R ", ""] * n)[:n], dtype=object),
        "v": pd.Series(([3, None, -1, 8, 0] * n)[:n], dtype="Float64"),
    })
    got, want = _exec_both(sql, df, parts)
    _cmp_sorted(got, want, float_cols=("v",))


def test_string_fn_rejections():
    with pytest.raises(SqlError):  # alias required
        parse_sql("SELECT upper(s) FROM t")
    with pytest.raises(SqlError):  # substring is 1-based
        parse_sql("SELECT substring(s, 0, 2) AS x FROM t")
    with pytest.raises(SqlError):  # position args must be int literals
        parse_sql("SELECT substring(s, v, 2) AS x FROM t")
    with pytest.raises(SqlError):  # replace needs literal pattern
        parse_sql("SELECT replace(s, tag, 'x') AS x FROM t")
    with pytest.raises(SqlError):  # bare ints aren't strings
        parse_sql("SELECT concat(s, 5) AS x FROM t")
    with pytest.raises(SqlError):  # unknown string fn
        parse_sql("SELECT reverse(s) AS x FROM t")
    with pytest.raises(SqlError):  # numeric-expression LHS still out
        parse_sql("SELECT s FROM t WHERE length(s) > 5")
    with pytest.raises(SqlError):  # string IN-subquery probe
        parse_sql("SELECT s FROM t WHERE upper(s) IN (SELECT g FROM u)")


# ---------------------------------------------------------------------------
# two-column statistical aggregates: corr / covar_samp / covar_pop /
# regr_slope / regr_intercept / regr_r2 — six pairwise-masked sum
# partials on the one combiner pass, fixed-op-order recomposition.
# Fuzzed against DuckDB's NATIVE aggregates (different algorithm, same
# math → allclose), NULLs on either side excluded pairwise, degenerate
# groups (n=0/1, zero variance) produce identical NULL patterns.
# ---------------------------------------------------------------------------

COV_SQL = ("SELECT g, count(*) AS n, corr(y, x) AS r, "
           "covar_samp(y, x) AS cs, covar_pop(y, x) AS cp, "
           "regr_slope(y, x) AS sl, regr_intercept(y, x) AS ic, "
           "regr_r2(y, x) AS r2 FROM t GROUP BY g")

cov_rows_st = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.one_of(st.none(), st.integers(-40, 40)),
        st.one_of(st.none(), st.integers(-9, 9)),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=12, deadline=None)
@given(cov_rows_st, st.integers(min_value=1, max_value=4))
def test_cov_aggregates_match_duckdb(rows, parts):
    df = pd.DataFrame(
        {"g": pd.Series([r[0] for r in rows], dtype="int64"),
         "y": pd.Series([r[1] for r in rows], dtype="Float64"),
         "x": pd.Series([r[2] for r in rows], dtype="Float64")})
    got, want = _exec_both(COV_SQL, df, parts)
    _cmp_sorted(got, want,
                float_cols=("r", "cs", "cp", "sl", "ic", "r2"))


def test_cov_aggregates_global_and_degenerate(ray_session):
    # constant x → slope/corr/r2 NULL; single pair → covar_samp NULL;
    # perfectly linear → corr ±1, r2 1
    df = pd.DataFrame({
        "g": [0, 0, 0, 1, 2, 2, 3, 3, 3],
        "x": [5.0, 5.0, 5.0, 7.0, 1.0, 2.0, 1.0, 2.0, 3.0],
        "y": [1.0, 2.0, 3.0, 9.0, 4.0, 2.0, 2.0, 4.0, 6.0],
    })
    sql = COV_SQL + " ORDER BY g"
    got, want = _exec_both(sql, df, 2)
    _cmp_sorted(got, want,
                float_cols=("r", "cs", "cp", "sl", "ic", "r2"))
    assert got.loc[3, "r"] == pytest.approx(1.0)
    assert np.isnan(got.loc[0, "r"])  # zero x-variance
    assert np.isnan(got.loc[1, "cs"])  # n=1
    # global (no GROUP BY) single row
    g2, w2 = _exec_both(
        "SELECT corr(y, x) AS r, regr_slope(y, x) AS sl FROM t", df, 3)
    assert np.allclose(g2["r"], w2["r"]) and np.allclose(
        g2["sl"], w2["sl"])


def test_cov_aggregates_rollup_recompose(ray_session):
    # ROLLUP: subtotal levels recompose corr from the finest level's
    # pair partials (sums add) — compare every level against DuckDB
    df = pd.DataFrame({
        "a": ["p", "p", "p", "q", "q", "q", "q", "q"],
        "b": [0, 0, 1, 0, 0, 1, 1, 1],
        "x": [1.0, 2.0, 3.0, 4.0, 2.0, 7.0, 1.0, 5.0],
        "y": [2.0, 4.0, 5.0, 9.0, 4.0, 15.0, 3.0, 11.0],
    })
    sql = ("SELECT a, b, corr(y, x) AS r, covar_pop(y, x) AS cp "
           "FROM t GROUP BY ROLLUP (a, b) ORDER BY a, b")
    got, want = _exec_both(sql, df, 2)
    _cmp_sorted(got, want, float_cols=("r", "cp"))


def test_cov_parser_rejections():
    with pytest.raises(SqlError):  # one arg
        parse_sql("SELECT corr(x) AS r FROM t GROUP BY g")
    with pytest.raises(SqlError):  # expressions not supported as args
        parse_sql("SELECT corr(y + 1, x) AS r FROM t GROUP BY g")
    with pytest.raises(SqlError):  # FILTER out of scope
        parse_sql("SELECT corr(y, x) FILTER (WHERE y > 0) AS r "
                  "FROM t GROUP BY g")


# ---------------------------------------------------------------------------
# interpolated quantiles: median / quantile_cont — grouped-quantile
# shuffle with DuckDB's Interpolator op order (lo·(CRN−RN) +
# hi·(RN−FRN) around RN=(n−1)·q), so the NATIVE aggregate compares
# bit-exactly (no sums involved — holds for arbitrary doubles).
# ---------------------------------------------------------------------------

MED_SQL = ("SELECT g, median(v) AS med, quantile_cont(v, 0.25) AS p25, "
           "quantile_cont(v, 0.9) AS p90, quantile_disc(v, 0.5) AS d50 "
           "FROM t GROUP BY g")


@settings(max_examples=10, deadline=None)
@given(rows_st, st.integers(min_value=1, max_value=4))
def test_quantile_cont_matches_duckdb_bitexact(rows, parts):
    df = _mk_df(rows)
    got, want = _exec_both(MED_SQL, df, parts)
    key = ["g"]
    g = got.sort_values(key, na_position="last").reset_index(drop=True)
    w = want.sort_values(key, na_position="last").reset_index(drop=True)
    assert len(g) == len(w)
    for c in ("med", "p25", "p90", "d50"):
        assert list(g[c].isna()) == list(w[c].isna()), c
        # bit-exact, not allclose: the engine replays DuckDB's exact
        # Interpolator IEEE sequence
        assert list(g[c].dropna()) == list(w[c].dropna()), c


def test_quantile_cont_edges(ray_session):
    # 1 element (med = the element), 2 elements (midpoint), fractional
    # doubles, and a global no-group median
    df = pd.DataFrame({"g": [0, 1, 1, 2, 2, 2],
                       "v": [7.5, 1.25, 2.0, 10.0, 30.0, 20.0]})
    got, want = _exec_both(MED_SQL + " ORDER BY g", df, 2)
    for c in ("med", "p25", "p90", "d50"):
        assert list(got[c]) == list(want[c]), c
    assert got.loc[0, "med"] == 7.5
    assert got.loc[1, "med"] == 1.625
    assert got.loc[2, "med"] == 20.0
    g2, w2 = _exec_both(
        "SELECT median(v) AS med, quantile_cont(v, 0.333) AS px "
        "FROM t", df, 3)
    assert g2["med"][0] == w2["med"][0] and g2["px"][0] == w2["px"][0]


def test_quantile_cont_rejections():
    with pytest.raises(SqlError):  # median takes no fraction
        parse_sql("SELECT median(v, 0.5) AS m FROM t GROUP BY g")
    with pytest.raises(SqlError):  # quantile_cont needs a fraction
        parse_sql("SELECT quantile_cont(v) AS m FROM t GROUP BY g")
    with pytest.raises(SqlError):  # no ROLLUP recomposition
        parse_sql("SELECT g, median(v) AS m FROM t "
                  "GROUP BY ROLLUP (g)")


# ---------------------------------------------------------------------------
# arg_max / arg_min (max_by / min_by): per-batch argmax combiner + one
# bucketed narrow shuffle. Ties on `by` break to MAX v (deterministic,
# layout-invariant); DuckDB's native tie pick is arrival-order, so the
# fuzz uses tie-free `by` draws (a permutation).
# ---------------------------------------------------------------------------

ARGM_SQL = ("SELECT g, arg_max(v, b) AS am, arg_min(v, b) AS an, "
            "max_by(s, b) AS sm, min_by(s, b) AS sn "
            "FROM t GROUP BY g")


@settings(max_examples=10, deadline=None)
@given(st.integers(5, 60), st.integers(0, 4),
       st.integers(min_value=1, max_value=4))
def test_arg_aggregates_match_duckdb(n, nulls, parts):
    rng = np.random.default_rng(n * 31 + nulls)
    df = pd.DataFrame({
        "g": rng.integers(0, 3, n),
        "b": rng.permutation(n).astype("float64"),  # tie-free
        "v": rng.integers(-50, 50, n).astype("float64"),
        "s": pd.Series([f"s{i}" for i in rng.integers(0, 20, n)],
                       dtype=object)})
    for c in ("b", "v"):
        idx = rng.choice(n, min(nulls, n), replace=False)
        df.loc[idx, c] = np.nan
    got, want = _exec_both(ARGM_SQL, df, parts)
    g = got.sort_values("g").reset_index(drop=True)
    w = want.sort_values("g").reset_index(drop=True)
    assert len(g) == len(w)
    for c in ("am", "an", "sm", "sn"):
        assert list(g[c].isna()) == list(w[c].isna()), c
        assert list(g[c].dropna()) == list(w[c].dropna()), c


def test_arg_aggregates_ties_and_edges(ray_session):
    # constant by → max v wins for BOTH arg_max and arg_min; a group
    # whose rows are all NULL-by yields NULL; global form; empty input
    df = pd.DataFrame({
        "g": [0, 0, 0, 1, 1, 2],
        "b": [1.0, 1.0, 1.0, 5.0, np.nan, np.nan],
        "v": [5.0, 9.0, 7.0, 4.0, 8.0, 3.0]})
    t = rd.from_pandas(df).repartition(3)
    got = run_sql("SELECT g, arg_max(v, b) AS am, arg_min(v, b) AS an "
                  "FROM t GROUP BY g ORDER BY g", {"t": t})
    assert got["am"].tolist()[:2] == [9.0, 4.0]
    assert got["an"].tolist()[:2] == [9.0, 4.0]
    assert np.isnan(got.loc[2, "am"]) and np.isnan(got.loc[2, "an"])
    g2 = run_sql("SELECT arg_max(v, b) AS am FROM t", {"t": t})
    assert g2["am"][0] == 4.0  # global max b is 5.0 → its v
    g3 = run_sql("SELECT arg_max(v, b) AS am FROM t WHERE v < -99",
                 {"t": t})
    assert len(g3) == 1 and np.isnan(g3["am"][0])


def test_arg_aggregates_rejections():
    with pytest.raises(SqlError):  # one arg
        parse_sql("SELECT arg_max(v) AS a FROM t GROUP BY g")
    with pytest.raises(SqlError):  # no ROLLUP recomposition
        parse_sql("SELECT g, arg_max(v, b) AS a FROM t "
                  "GROUP BY ROLLUP (g)")


# ---------------------------------------------------------------------------
# window frames + offsets through the SQL grammar: ROWS BETWEEN k
# PRECEDING AND CURRENT ROW (→ rolling kinds), UNBOUNDED PRECEDING (→
# the running default), lag/lead(col, n), multi-column ORDER BY.
# ---------------------------------------------------------------------------

FRAME_SQL = (
    "SELECT id, "
    "sum(v) OVER (PARTITION BY g ORDER BY k, id "
    "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS r3, "
    "min(v) OVER (PARTITION BY g ORDER BY k, id "
    "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS m2, "
    "sum(v) OVER (PARTITION BY g ORDER BY k, id "
    "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS rs, "
    "lag(v, 2) OVER (PARTITION BY g ORDER BY k, id) AS l2, "
    "lead(v, 3) OVER (PARTITION BY g ORDER BY k, id) AS d3 "
    "FROM t ORDER BY id")


@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5),
                          st.integers(-30, 30)),
                min_size=1, max_size=40),
       st.integers(min_value=1, max_value=4))
def test_sql_window_frames_match_duckdb(rows, parts):
    df = pd.DataFrame(rows, columns=["g", "k", "v"])
    df["id"] = np.arange(len(df), dtype=np.int64)  # unique tie-break
    got, want = _exec_both(FRAME_SQL, df, parts)
    for c in ("r3", "m2", "rs", "l2", "d3"):
        a = got[c].to_numpy("float64")
        b = want[c].to_numpy("float64")
        assert ((np.isnan(a) & np.isnan(b)) | (a == b)).all(), c


def test_sql_window_frame_rejections():
    with pytest.raises(SqlError):  # frames only on sum/min/max
        parse_sql("SELECT row_number() OVER (PARTITION BY g ORDER BY k "
                  "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS r "
                  "FROM t")
    with pytest.raises(SqlError):  # lag offset must be positive
        parse_sql("SELECT lag(v, 0) OVER (PARTITION BY g ORDER BY k) "
                  "AS r FROM t")
    with pytest.raises(SqlError):  # FOLLOWING frames out of scope
        parse_sql("SELECT sum(v) OVER (PARTITION BY g ORDER BY k ROWS "
                  "BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS r FROM t")


# ---------------------------------------------------------------------------
# string_agg([DISTINCT] col, 'sep' ORDER BY col [DESC]): one
# group_concat narrow shuffle per aggregate; element order is the
# aggregated column itself (layout-invariant), NULLs skipped, NULL
# group keys form their own group.
# ---------------------------------------------------------------------------

SAGG_SQL = ("SELECT g, count(*) AS n, "
            "string_agg(s, ',' ORDER BY s) AS cat, "
            "string_agg(DISTINCT s, '|' ORDER BY s DESC) AS dcat "
            "FROM t GROUP BY g")


@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["x", "y", None]),
                          st.sampled_from(["a", "b", "c", "''q", None])),
                min_size=1, max_size=30),
       st.integers(min_value=1, max_value=4))
def test_string_agg_matches_duckdb(rows, parts):
    df = pd.DataFrame(
        {"g": pd.Series([r[0] for r in rows], dtype=object),
         "s": pd.Series([r[1] for r in rows], dtype=object)})
    got, want = _exec_both(SAGG_SQL, df, parts)
    _cmp_sorted(got, want)


def test_string_agg_global_and_rejections(ray_session):
    df = pd.DataFrame({"g": ["a", "a"], "s": ["m", "k"],
                       "v": [1.0, 2.0]})
    t = rd.from_pandas(df).repartition(2)
    g = run_sql("SELECT string_agg(s, '+' ORDER BY s) AS cat FROM t",
                {"t": t})
    assert g["cat"][0] == "k+m"
    g2 = run_sql("SELECT string_agg(s, '+' ORDER BY s) AS cat FROM t "
                 "WHERE v > 9", {"t": t})
    assert len(g2) == 1 and pd.isna(g2["cat"][0])
    with pytest.raises(SqlError):  # ORDER BY another column
        parse_sql("SELECT string_agg(s, ',' ORDER BY v) AS c "
                  "FROM t GROUP BY g")
    with pytest.raises(SqlError):  # ORDER BY required
        parse_sql("SELECT string_agg(s, ',') AS c FROM t GROUP BY g")
    with pytest.raises(SqlError):  # no ROLLUP recomposition
        parse_sql("SELECT g, string_agg(s, ',' ORDER BY s) AS c "
                  "FROM t GROUP BY ROLLUP (g)")


# ---------------------------------------------------------------------------
# CROSS JOIN: broadcast nested loop, right side bounded.
# ---------------------------------------------------------------------------

@settings(max_examples=8, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5),
                          st.one_of(st.none(), st.integers(-9, 9))),
                min_size=0, max_size=12),
       st.lists(st.integers(0, 3), min_size=0, max_size=4),
       st.integers(min_value=1, max_value=3))
def test_cross_join_matches_duckdb(lrows, rvals, parts):
    l = pd.DataFrame({"x": pd.Series([r[0] for r in lrows],
                                     dtype="int64"),
                      "v": pd.Series([r[1] for r in lrows],
                                     dtype="Float64")})
    r = pd.DataFrame({"y": pd.Series(rvals, dtype="int64")})
    tabs = {"l": rd.from_pandas(l).repartition(parts),
            "r": rd.from_pandas(r)}
    sql = ("SELECT x, y, count(*) AS n, sum(v) AS sv FROM l "
           "CROSS JOIN r WHERE x >= y GROUP BY x, y")
    got = run_sql(sql, tabs)
    con = duckdb.connect()
    con.register("l", l)
    con.register("r", r)
    want = con.execute(sql).fetchdf()
    _cmp_sorted(got, want, float_cols=("sv",))


def test_cross_join_bound_and_parse(ray_session):
    l = pd.DataFrame({"x": [1, 2]})
    r = pd.DataFrame({"y": np.arange(50, dtype=np.int64)})
    tabs = {"l": rd.from_pandas(l), "r": rd.from_pandas(r)}
    with pytest.raises(SqlError):  # right side over the bound
        run_sql("SELECT x, y FROM l CROSS JOIN r", tabs,
                broadcast_rows=10)
    out = run_sql("SELECT count(*) AS n FROM l CROSS JOIN r", tabs)
    assert out["n"][0] == 100
    with pytest.raises(SqlError):  # ON on a cross join is not SQL
        parse_sql("SELECT x FROM l CROSS JOIN r ON l.x = r.y")


# ---------------------------------------------------------------------------
# uncorrelated [NOT] EXISTS: one probe evaluation → keep-all/keep-none.
# ---------------------------------------------------------------------------

def test_exists_subquery_matches_duckdb(ray_session):
    t = pd.DataFrame({"x": [1, 2, 3]})
    u = pd.DataFrame({"y": [5, 9]})
    tabs = {"t": rd.from_pandas(t).repartition(2),
            "u": rd.from_pandas(u)}
    con = duckdb.connect()
    con.register("t", t)
    con.register("u", u)
    for sql in [
        "SELECT x FROM t WHERE EXISTS (SELECT y FROM u WHERE y > 7) "
        "ORDER BY x",
        "SELECT x FROM t WHERE EXISTS (SELECT y FROM u WHERE y > 99) "
        "ORDER BY x",
        "SELECT x FROM t WHERE NOT EXISTS "
        "(SELECT y FROM u WHERE y > 99) AND x >= 2 ORDER BY x",
        "SELECT count(*) AS n FROM t "
        "WHERE EXISTS (SELECT sum(y) AS s FROM u)",
        "SELECT count(*) AS n FROM t "
        "WHERE NOT EXISTS (SELECT y FROM u)",
    ]:
        got = run_sql(sql, tabs)
        want = con.execute(sql).fetchdf()
        assert got.values.tolist() == want.values.tolist(), sql


def test_exists_rejections():
    # single-equality correlation now DECORRELATES (exists_semi)
    # instead of rejecting
    q = parse_sql("SELECT x FROM t WHERE EXISTS "
                  "(SELECT y FROM u WHERE u.y = t.x)")
    assert q["where"][0][0] == "exists_semi"
    with pytest.raises(SqlError):  # inside OR stays out of scope
        parse_sql("SELECT x FROM t WHERE x = 1 OR EXISTS "
                  "(SELECT y FROM u)")


# ---------------------------------------------------------------------------
# multi-statement scripts: CTAS (lazy when streamable) + COPY TO parquet
# ---------------------------------------------------------------------------

def test_sql_script_ctas_copy(ray_session, tmp_path):
    import glob

    import pyarrow.parquet as pq

    from recon_ray.sql import (NotStreamable, plan_sql_dataset,
                               run_sql_script)

    df = pd.DataFrame({"x": np.arange(40, dtype=np.int64),
                       "g": (["a", "b"] * 20)})
    tabs = {"t": rd.from_pandas(df).repartition(3)}
    outdir = str(tmp_path / "out")
    script = f"""
    CREATE TABLE big AS SELECT x, g FROM t WHERE x >= 10;
    CREATE TABLE agg AS SELECT g, count(*) AS n, sum(x) AS s
      FROM big GROUP BY g;
    COPY big TO '{outdir}';
    SELECT g, n, s FROM agg ORDER BY g
    """
    out = run_sql_script(script, tabs)
    want = duckdb.sql(
        "SELECT g, count(*) AS n, sum(x) AS s FROM df "
        "WHERE x >= 10 GROUP BY g ORDER BY g").df()
    assert out["n"].tolist() == want["n"].tolist()
    assert [int(v) for v in out["s"]] == [int(v) for v in want["s"]]
    n = sum(pq.ParquetFile(f).metadata.num_rows
            for f in glob.glob(outdir + "/*.parquet"))
    assert n == 30
    assert set(tabs) == {"t"}  # caller registry never mutated
    # lazy plan really is lazy + rename-to-alias works
    d = plan_sql_dataset("SELECT x AS xx FROM t WHERE x < 5", tabs)
    assert d.schema().names == ["xx"] and d.count() == 5
    with pytest.raises(NotStreamable):
        plan_sql_dataset("SELECT count(*) AS n FROM t", tabs)
    with pytest.raises(NotStreamable):
        plan_sql_dataset("SELECT x FROM t ORDER BY x", tabs)
    # duplicate CTAS without OR REPLACE refuses; with it, replaces
    with pytest.raises(SqlError):
        run_sql_script("CREATE TABLE t AS SELECT x FROM t", tabs)
    r = run_sql_script(
        "CREATE TABLE v AS SELECT x FROM t WHERE x < 3;"
        "CREATE OR REPLACE TABLE v AS SELECT x FROM t WHERE x < 7;"
        "SELECT count(*) AS n FROM v", tabs)
    assert r["n"][0] == 7
    # quoted semicolons don't split statements
    df2 = pd.DataFrame({"s": ["a;b", "c"]})
    r2 = run_sql_script("SELECT s FROM u WHERE s = 'a;b'",
                        {"u": rd.from_pandas(df2)})
    assert r2["s"].tolist() == ["a;b"]


# ---------------------------------------------------------------------------
# positional ordinals: GROUP BY 1 (the select expression), ORDER BY n
# (the output column).
# ---------------------------------------------------------------------------

def test_ordinals_match_duckdb(ray_session):
    df = pd.DataFrame({"g": ["a", "b", "a", "b", "c"],
                       "v": [1, 2, 3, 4, 5]})
    tabs = {"t": rd.from_pandas(df).repartition(2)}
    con = duckdb.connect()
    con.register("t", df)
    for sql in [
        "SELECT g AS grp, count(*) AS n, sum(v) AS s FROM t "
        "GROUP BY 1 ORDER BY 3 DESC",
        "SELECT g, sum(v) AS s FROM t GROUP BY 1 ORDER BY 2",
        "SELECT v, g FROM t ORDER BY 2 DESC, 1",
    ]:
        got = run_sql(sql, tabs)
        want = con.execute(sql).fetchdf()
        assert got.values.tolist() == want.values.tolist(), sql
    with pytest.raises(SqlError):  # aggregate ordinal in GROUP BY
        parse_sql("SELECT g, count(*) AS n FROM t GROUP BY 2")
    with pytest.raises(SqlError):  # out of range
        parse_sql("SELECT g FROM t ORDER BY 4")


# ---------------------------------------------------------------------------
# correlated EXISTS decorrelation: one qualified equality → semi/anti
# key-set join; NULL semantics differ from NOT IN (no poisoning).
# ---------------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(st.lists(st.one_of(st.none(), st.integers(0, 6)),
                min_size=1, max_size=15),
       st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 6)),
                          st.integers(0, 9)),
                min_size=0, max_size=15),
       st.integers(min_value=1, max_value=3))
def test_correlated_exists_matches_duckdb(cks, orows, parts):
    cust = pd.DataFrame({"ck": pd.Series(cks, dtype="Int64"),
                         "cn": [f"c{i}" for i in range(len(cks))]})
    orders = pd.DataFrame({
        "ock": pd.Series([r[0] for r in orows], dtype="Int64"),
        "ov": pd.Series([r[1] for r in orows], dtype="int64")})
    tabs = {"cust": rd.from_pandas(cust).repartition(parts),
            "orders": rd.from_pandas(orders)}
    con = duckdb.connect()
    con.register("cust", cust)
    con.register("orders", orders)
    for sql in [
        "SELECT cn FROM cust c WHERE EXISTS (SELECT ock FROM orders o "
        "WHERE o.ock = c.ck AND o.ov >= 5) ORDER BY cn",
        "SELECT cn FROM cust c WHERE NOT EXISTS (SELECT ock FROM "
        "orders o WHERE o.ock = c.ck AND o.ov >= 5) ORDER BY cn",
    ]:
        got = run_sql(sql, tabs)
        want = con.execute(sql).fetchdf()
        assert got["cn"].tolist() == want["cn"].tolist(), sql


def test_correlated_exists_rejections():
    with pytest.raises(SqlError):  # two correlation equalities
        parse_sql("SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u "
                  "WHERE u.a = t.x AND u.b = t.y)")
    with pytest.raises(SqlError):  # outer ref in a non-equality
        parse_sql("SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u "
                  "WHERE u.a = t.x AND u.b > t.y)")


# ---------------------------------------------------------------------------
# PIVOT statement form (DuckDB syntax) → pivot_agg.
# ---------------------------------------------------------------------------

def test_pivot_statement_matches_duckdb(ray_session):
    rng = np.random.default_rng(2)
    df = pd.DataFrame({"g": rng.integers(0, 6, 200),
                       "p": rng.choice(["a", "b", "c"], 200),
                       "v": rng.integers(0, 100, 200).astype("float64")})
    tabs = {"t": rd.from_pandas(df).repartition(3)}
    con = duckdb.connect()
    con.register("t", df)
    for agg in ("sum", "count", "min", "max", "avg"):
        sql = f"PIVOT t ON p USING {agg}(v) GROUP BY g ORDER BY g"
        got = run_sql(sql, tabs)
        want = con.execute(sql).fetchdf()
        assert list(got.columns) == list(want.columns), agg
        for c in got.columns:
            a = got[c].fillna(-1).to_numpy("float64")
            b = want[c].fillna(-1).to_numpy("float64")
            assert (a == b).all(), (agg, c)
    with pytest.raises(SqlError):
        run_sql("PIVOT missing ON p USING sum(v) GROUP BY g", tabs)


def test_unpivot_statement_matches_duckdb(ray_session):
    df = pd.DataFrame({"g": [1, 2, 3],
                       "a": [1.0, 2.0, None],
                       "b": [3.0, None, 5.0]})
    tabs = {"t": rd.from_pandas(df).repartition(2)}
    sql = "UNPIVOT t ON a, b INTO NAME k VALUE v"
    got = run_sql(sql, tabs).sort_values(["g", "k"]).reset_index(
        drop=True)
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute(sql).fetchdf().sort_values(
        ["g", "k"]).reset_index(drop=True)
    assert got.values.tolist() == want.values.tolist()
    with pytest.raises(SqlError):
        run_sql("UNPIVOT t ON nope INTO NAME k VALUE v", tabs)


def test_approx_count_distinct_bounded(ray_session):
    rng = np.random.default_rng(5)
    df = pd.DataFrame({"g": rng.integers(0, 3, 30000),
                       "u": rng.integers(0, 5000, 30000)})
    tabs = {"t": rd.from_pandas(df).repartition(4)}
    m = run_sql(
        "SELECT g, count(DISTINCT u) AS exact_n, "
        "approx_count_distinct(u) AS approx_n "
        "FROM t GROUP BY g ORDER BY g", tabs)
    err = (m["approx_n"] - m["exact_n"]).abs() / m["exact_n"]
    assert err.max() < 0.05  # p=12 → ~1.6% stderr; 5% is 3σ headroom
    g = run_sql("SELECT approx_count_distinct(u) AS a, "
                "count(DISTINCT u) AS e FROM t", tabs)
    assert abs(g["a"][0] - g["e"][0]) / g["e"][0] < 0.05
    # layout invariance: same registers whatever the partitioning
    m2 = run_sql(
        "SELECT g, approx_count_distinct(u) AS approx_n "
        "FROM t GROUP BY g ORDER BY g",
        {"t": rd.from_pandas(df).repartition(9)})
    assert m2["approx_n"].tolist() == m["approx_n"].tolist()
    with pytest.raises(SqlError):  # no ROLLUP recomposition here
        parse_sql("SELECT g, approx_count_distinct(u) AS a FROM t "
                  "GROUP BY ROLLUP (g)")


def test_describe_statement(ray_session):
    from recon_ray.sql import run_sql_script

    df = pd.DataFrame({"x": np.int64([1]), "s": ["a"]})
    tabs = {"t": rd.from_pandas(df)}
    d = run_sql("DESCRIBE t", tabs)
    assert d["column_name"].tolist() == ["x", "s"]
    # mid-script: DESCRIBE sees a CTAS-registered lazy plan's schema
    d2 = run_sql_script(
        "CREATE TABLE v AS SELECT x AS xx FROM t WHERE x > 0; "
        "DESCRIBE v", tabs)
    assert d2["column_name"].tolist() == ["xx"]
    with pytest.raises(SqlError):
        run_sql("DESCRIBE nope", tabs)


def test_select_star_matches_duckdb(ray_session):
    """SELECT [DISTINCT] * expands to the table's schema at the
    statement level (where the registry is in scope); joins reject."""
    df = pd.DataFrame({
        "g": ["x", "y", None, "x", "x"],
        "h": np.int64([1, 2, 3, 1, 1]),
        "v": pd.Series([5, None, 7, 5, 5], dtype="Float64"),
    })
    tabs = {"t": rd.from_pandas(df).repartition(3)}
    con = duckdb.connect()
    con.register("t", df)
    for sql in [
        "SELECT * FROM t ORDER BY h, g",
        "SELECT DISTINCT * FROM t ORDER BY h, g",
        "SELECT * FROM t WHERE v IS NOT NULL AND h <= 2 ORDER BY h",
        "SELECT * FROM t ORDER BY h LIMIT 2",
    ]:
        got = run_sql(sql, tabs)
        want = con.execute(sql).fetchdf()
        _cmp_sorted(got, want, float_cols=("v",))
    # star is also a valid union side and CTE consumer target
    got = run_sql("WITH c AS (SELECT g, count(*) AS n FROM t GROUP BY g) "
                  "SELECT * FROM c ORDER BY n DESC, g", tabs)
    want = con.execute(
        "WITH c AS (SELECT g, count(*) AS n FROM t GROUP BY g) "
        "SELECT * FROM c ORDER BY n DESC, g").fetchdf()
    _cmp_sorted(got, want)
    with pytest.raises(SqlError):  # join output columns need naming
        run_sql("SELECT * FROM t a JOIN t b ON a.h = b.h", tabs)
    with pytest.raises(SqlError):
        run_sql("SELECT * FROM nope", tabs)


def test_unknown_column_binder_error(ray_session):
    """Unknown columns fail at plan time with the schema in the
    message — not as a KeyError inside a Ray task mid-scan. Renames
    and derived aliases stay legal as group keys / references."""
    df = pd.DataFrame({"g": ["x", "y"], "v": np.int64([1, 2])})
    tabs = {"t": rd.from_pandas(df)}
    for bad in [
        "SELECT nope FROM t",
        "SELECT g FROM t WHERE nope > 1",
        "SELECT g, sum(nope) AS s FROM t GROUP BY g",
        "SELECT g FROM t WHERE v > 0 AND nope IS NULL",
    ]:
        with pytest.raises(SqlError, match="unknown column"):
            run_sql(bad, tabs)
    # legal: rename referenced downstream, CASE alias as group key
    out = run_sql("SELECT g AS grp, sum(v) AS s FROM t GROUP BY g "
                  "ORDER BY grp", tabs)
    assert out["grp"].tolist() == ["x", "y"]
    out = run_sql("SELECT CASE WHEN v > 1 THEN 'hi' ELSE 'lo' END AS b, "
                  "count(*) AS n FROM t GROUP BY b ORDER BY b", tabs)
    assert out["b"].tolist() == ["hi", "lo"]


def test_insert_into_script(ray_session):
    """INSERT INTO in scripts: lazy select appends (streaming union),
    positional VALUES, name-based reorder; arity/name mismatches and
    unknown targets reject."""
    from recon_ray.sql import run_sql_script

    df = pd.DataFrame({"k": np.int64([1, 2, 3]), "v": ["a", "b", "c"]})
    tabs = {"t": rd.from_pandas(df)}
    con = duckdb.connect()
    con.register("t", df)
    script = (
        "CREATE TABLE u AS SELECT k, v FROM t WHERE k >= 2; "
        "INSERT INTO u SELECT k, v FROM t WHERE k = 1; "
        "INSERT INTO u VALUES (10, 'z'), (11, NULL); "
        "SELECT count(*) AS n, sum(k) AS sk, count(v) AS nv FROM u")
    got = run_sql_script(script, tabs)
    want = con.execute(script).df()
    assert got.astype(float).values.tolist() == \
        want.astype(float).values.tolist()
    # reorder by name: SELECT v, k still lands on (k, v)
    got = run_sql_script(
        "CREATE TABLE w AS SELECT k, v FROM t WHERE k >= 3; "
        "INSERT INTO w SELECT v, k FROM t WHERE k = 1; "
        "SELECT sum(k) AS sk FROM w", dict(tabs))
    assert got["sk"].tolist() == [4]
    for bad in ["INSERT INTO nope SELECT k, v FROM t",
                "INSERT INTO u VALUES (1)",
                "INSERT INTO u SELECT k AS x, v FROM t"]:
        with pytest.raises(SqlError):
            run_sql_script(
                "CREATE TABLE u AS SELECT k, v FROM t WHERE k >= 2; "
                + bad, dict(tabs))


def test_delete_update_script(ray_session):
    """DELETE (inverted-filter lazy stage, UNKNOWN rows survive —
    SQL's rule) and UPDATE (masked derive) match DuckDB running the
    identical script."""
    from recon_ray.sql import run_sql_script

    df = pd.DataFrame({
        "k": np.int64([1, 2, 3, 4, 5]),
        "v": pd.Series([10.0, None, 30.0, 40.0, None]),
        "s": ["a", "b", None, "d", "e"],
    })
    mk = "CREATE TABLE u AS SELECT k, v, s FROM t"
    mk_d = "CREATE TABLE u AS SELECT k, v, s FROM src"
    cases = [
        # v > 15 is UNKNOWN for NULL v → those rows SURVIVE the delete
        ("DELETE FROM u WHERE v > 15",
         "SELECT count(*) AS n, sum(k) AS sk FROM u"),
        ("DELETE FROM u WHERE s = 'a' OR k >= 4",
         "SELECT count(*) AS n, sum(k) AS sk FROM u"),
        ("UPDATE u SET k = k * 10 + 1 WHERE v > 15",
         "SELECT sum(k) AS sk, count(*) AS n FROM u"),
        ("UPDATE u SET s = 'zz' WHERE k >= 4",
         "SELECT count(*) AS n, min(s) AS ms, max(s) AS xs FROM u"),
        ("UPDATE u SET v = NULL WHERE k = 1",
         "SELECT count(v) AS nv FROM u"),
        ("UPDATE u SET k = k + 100", "SELECT sum(k) AS sk FROM u"),
    ]
    for dml, final in cases:
        got = run_sql_script("; ".join([mk, dml, final]),
                             {"t": rd.from_pandas(df).repartition(2)})
        con = duckdb.connect()
        con.register("src", df)
        want = con.execute("; ".join([mk_d, dml, final])).df()
        g = got.astype(object).where(got.notna(), None).values.tolist()
        w = want.astype(object).where(want.notna(), None)
        assert [[float(x) if isinstance(x, (int, float)) else x
                 for x in row] for row in g] == \
               [[float(x) if isinstance(x, (int, float)) else x
                 for x in row] for row in w.values.tolist()], dml
    for bad in ["DELETE FROM u",
                "DELETE FROM nope WHERE k = 1",
                "UPDATE u SET nope = 1",
                "UPDATE u SET k = q + 1"]:
        with pytest.raises(SqlError):
            run_sql_script(mk + "; " + bad,
                           {"t": rd.from_pandas(df)})


_dml_rows = st.lists(
    st.tuples(st.integers(0, 9),
              st.one_of(st.none(), st.integers(-20, 20)),
              st.sampled_from(["x", "y", "z", None])),
    min_size=1, max_size=12)
_dml_stmts = st.lists(st.sampled_from([
    "DELETE FROM u WHERE w > 5",
    "DELETE FROM u WHERE g = 'x'",
    "DELETE FROM u WHERE w IS NULL AND h <= 3",
    "UPDATE u SET w = w + 100 WHERE h >= 5",
    "UPDATE u SET g = 'q' WHERE w < 0",
    "UPDATE u SET w = NULL WHERE g = 'y'",
    "UPDATE u SET h = h * 2 + 1",
    "UPDATE u SET h = NULL WHERE g = 'z'",
    "UPDATE u SET g = 'has where inside' WHERE h = 2",
    "INSERT INTO u VALUES (7, 3, 'x'), (8, NULL, NULL)",
]), min_size=1, max_size=4)


@settings(max_examples=8, deadline=None)
@given(_dml_rows, _dml_stmts, st.integers(1, 3))
def test_dml_fuzz_matches_duckdb(rows, stmts, parts):
    """Random DML sequences over NULL-bearing frames: the engine and
    DuckDB run the IDENTICAL script and must agree on the final
    aggregate (counts, sums, NULL counts per column)."""
    from recon_ray.sql import run_sql_script

    # fixed anchor row, un-deletable by the statement pool: keeps g
    # typed VARCHAR at DuckDB registration (an all-NULL object column
    # would register as INT32 — fixture artifact) and keeps the table
    # from going provably empty (the engine's schema-less no-op path
    # has its own targeted test below)
    rows = rows + [(4, 4, "anchor")]
    df = pd.DataFrame({
        "h": pd.Series([r[0] for r in rows], dtype="int64"),
        "w": pd.Series([r[1] for r in rows], dtype="Float64"),
        "g": pd.Series([r[2] for r in rows], dtype=object),
    })
    final = ("SELECT count(*) AS n, sum(h) AS sh, sum(w) AS sw, "
             "count(w) AS nw, count(g) AS ng FROM u")
    script = "; ".join(
        ["CREATE TABLE u AS SELECT h, w, g FROM t"] + stmts + [final])
    got = run_sql_script(script,
                         {"t": rd.from_pandas(df).repartition(parts)})
    con = duckdb.connect()
    con.register("src", df)
    want = con.execute(script.replace(
        "SELECT h, w, g FROM t", "SELECT h, w, g FROM src")).df()
    for c in got.columns:
        gv, wv = got[c][0], want[c][0]
        if pd.isna(gv) or pd.isna(wv):
            assert pd.isna(gv) and pd.isna(wv), (c, gv, wv)
        else:
            assert float(gv) == float(wv), (c, gv, wv, script)


def test_dml_on_provably_empty_table(ray_session):
    """A DELETE that removes every row may leave a schema-less Dataset
    (whether Ray's schema() still reports the upstream schema is an
    execution detail): behavior must be stable either way — further
    DELETE/UPDATE act as no-ops, an INSERT select repopulates, and
    positional VALUES either append (schema survived) or reject with
    the schema-less message (it did not). Aggregates over the emptied
    table read 0 rows regardless."""
    from recon_ray.sql import run_sql_script

    df = pd.DataFrame({"k": np.int64([1, 2]), "v": ["a", "b"]})
    tabs = {"t": rd.from_pandas(df)}
    base = ("CREATE TABLE u AS SELECT k, v FROM t; "
            "DELETE FROM u WHERE k >= 0")
    out = run_sql_script(
        base + "; DELETE FROM u WHERE k = 1; UPDATE u SET k = 9; "
        "SELECT count(*) AS n FROM u", dict(tabs))
    assert out["n"].tolist() == [0]
    out = run_sql_script(
        base + "; INSERT INTO u SELECT k, v FROM t WHERE k = 2; "
        "SELECT count(*) AS n, sum(k) AS sk FROM u", dict(tabs))
    assert out["n"].tolist() == [1] and out["sk"].tolist() == [2]
    try:
        out = run_sql_script(
            base + "; INSERT INTO u VALUES (9, 'z'); "
            "SELECT count(*) AS n, max(v) AS mv FROM u", dict(tabs))
        assert out["n"].tolist() == [1] and out["mv"].tolist() == ["z"]
    except SqlError as e:
        assert "schema-less" in str(e)


def test_dml_null_typing_survives_parquet(ray_session, tmp_path):
    """The round-3 ADVICE repro: INSERT VALUES with a NULL cell into an
    int64 column, and UPDATE SET intcol = NULL, must keep EVERY block
    on the target schema (int64 + nulls) — COPY TO parquet previously
    died with 'Unsupported cast from int64 to null', and match-free
    blocks kept int64 while matched blocks upcast."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from recon_ray.sql import run_sql_script

    df = pd.DataFrame({"k": np.int64([1, 2, 3, 4]),
                       "v": np.int64([10, 20, 30, 40])})
    out_dir = tmp_path / "x"
    out = run_sql_script(
        f"CREATE TABLE u AS SELECT k, v FROM t WHERE k >= 1; "
        f"INSERT INTO u VALUES (7, NULL); "
        f"UPDATE u SET v = NULL WHERE k = 2; "
        f"COPY u TO '{out_dir}'",
        {"t": rd.from_pandas(df).repartition(3)})
    assert out["rows_written"].tolist() == [5]
    tb = pq.read_table(str(out_dir))
    assert tb.schema.field("v").type == pa.int64()
    got = tb.to_pandas().sort_values("k").reset_index(drop=True)
    assert got["k"].tolist() == [1, 2, 3, 4, 7]
    vals = got["v"].tolist()
    assert vals[0] == 10 and pd.isna(vals[1]) and vals[2] == 30
    assert vals[3] == 40 and pd.isna(vals[4])


def test_update_where_inside_string_literal(ray_session):
    """UPDATE u SET s = 'x where y' WHERE k = 1 must split SET/WHERE
    quote-aware (a regex split at ' where ' misparsed this)."""
    from recon_ray.sql import run_sql_script

    df = pd.DataFrame({"k": np.int64([1, 2]), "s": ["a", "b"]})
    out = run_sql_script(
        "UPDATE u SET s = 'x where y' WHERE k = 1; "
        "SELECT k, s FROM u ORDER BY k",
        {"u": rd.from_pandas(df)})
    assert out["s"].tolist() == ["x where y", "b"]
    # no WHERE at all still works
    out2 = run_sql_script(
        "UPDATE u SET s = 'all where z'; SELECT count(*) AS n, "
        "min(s) AS m FROM u", {"u": rd.from_pandas(df)})
    assert out2["n"].tolist() == [2] and out2["m"].tolist() == ["all where z"]


def test_time_bucket_widths(ray_session):
    """time_bucket matches DuckDB on the identical string for every
    width shape — day-dividing, non-dividing (origin-dependent), and
    multi-day — including pre-origin timestamps (these fixtures sit in
    1970, well before DuckDB's 2000-01-03 default origin, so the
    negative floor-division path is exercised)."""
    import duckdb

    ev = pd.DataFrame({
        "ts": pd.to_datetime(
            np.arange(50, dtype="int64") * 2_700_000_000_000, unit="us"),
        "v": np.arange(50, dtype="float64"),
    })
    # a second frame sitting after the origin (2024) with odd offsets
    ev2 = pd.DataFrame({
        "ts": pd.Timestamp("2024-01-05 03:00:00")
        + pd.to_timedelta(np.arange(50, dtype="int64") * 2_700, unit="s"),
        "v": np.arange(50, dtype="float64"),
    })
    # parquet timestamps arrive as datetime64[us] — the int64 view is
    # unit-sensitive, so the us case must be covered too
    ev3 = ev2.assign(ts=ev2["ts"].astype("datetime64[us]"))
    con = duckdb.connect()
    for name, frame in (("e", ev), ("e2", ev2), ("e3", ev3)):
        con.register(name, frame)
        for width in ("2 hours", "45 minutes", "1 day", "30 seconds",
                      "7 hours", "90 minutes", "2 days", "3 days"):
            sql = (f"SELECT time_bucket(INTERVAL '{width}', ts) AS w, "
                   "count(*) AS n, round(sum(v), 2) AS sv "
                   f"FROM {name} GROUP BY w ORDER BY w")
            got = run_sql(sql, {name: rd.from_pandas(frame)})
            want = con.execute(sql).df()
            assert list(got["n"]) == list(want["n"]), width
            assert list(got["sv"]) == list(want["sv"]), width
            assert list(got["w"]) == list(want["w"]), width
    with pytest.raises(SqlError):
        run_sql("SELECT time_bucket(INTERVAL '0 hours', ts) AS w, "
                "count(*) AS n FROM e GROUP BY w",
                {"e": rd.from_pandas(ev)})


def test_sql_frontend_table_registered_and_tables_exact():
    """Every SQL_FRONTEND entry is a queries() and oracle_sql() key, and
    its ``tables`` are exactly the tables its SQL reads: run_sql fails on
    a missing table but not on an extra one, so DuckDB's binder is the
    reference. PIVOT, UNPIVOT and the multi-statement script cannot be
    bound without data, so they are left out of the table check. Each
    query also survives plain pickle with its description."""
    import pickle

    import __ray_entry__ as e
    from recon_ray.pipelines.queries import SQL_FRONTEND

    queries, oracles = e.queries(), e.oracle_sql()
    con = duckdb.connect()
    unbound = {"q_sql_frontend_pivot", "q_sql_frontend_unpivot",
               "q_sql_frontend_script"}
    for name, q in SQL_FRONTEND.items():
        assert name in queries and name in oracles, name
        assert pickle.loads(pickle.dumps(queries[name])).__doc__ == q.doc
        if name not in unbound:
            assert set(q.tables) == con.get_table_names(q.sql), name
