"""grouped_topk / group_concat / explode_list fuzzed against DuckDB on
random small inputs and random block layouts — the combiner boundary
(local per-group top-k before the shuffle, per-batch distinct before the
concat shuffle, chunk-local flatten) must be invisible in the result."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd
from hypothesis import given, settings, strategies as st

from recon_ray.functions.relational import (
    explode_list,
    group_concat,
    grouped_topk,
)

rows_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),    # g
        st.integers(min_value=-9, max_value=9),   # v (ties likely)
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=10, deadline=None)
@given(rows_st, st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4))
def test_grouped_topk_matches_duckdb(rows, k, parts):
    df = pd.DataFrame(rows, columns=["g", "v"])
    df["id"] = np.arange(len(df), dtype=np.int64)
    got = (
        grouped_topk(rd.from_pandas(df).repartition(parts), "g", "v",
                     k=k, ascending=False, tie_cols=["id"])
        .to_pandas().sort_values(["g", "id"]).reset_index(drop=True)
    )
    want = duckdb.connect().execute(
        f"""SELECT g, v, id FROM (
              SELECT *, row_number() OVER
                (PARTITION BY g ORDER BY v DESC, id) AS rn FROM df)
            WHERE rn <= {k} ORDER BY g, id"""
    ).fetchdf()
    assert got[["g", "v", "id"]].values.tolist() == want.values.tolist()


strs_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.text(alphabet="abcxyz", min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=10, deadline=None)
@given(strs_st, st.booleans(), st.integers(min_value=1, max_value=4))
def test_group_concat_matches_duckdb(rows, dist, parts):
    df = pd.DataFrame(rows, columns=["g", "v"])
    d = "DISTINCT " if dist else ""
    want = duckdb.connect().execute(
        f"""SELECT g, string_agg({d}v, ',' ORDER BY v) AS concat
            FROM df GROUP BY g ORDER BY g"""
    ).fetchdf()
    got = (
        group_concat(rd.from_pandas(df).repartition(parts), "g", "v",
                     distinct=dist)
        .to_pandas().sort_values("g").reset_index(drop=True)
    )
    assert got.values.tolist() == want.values.tolist()


lists_st = st.lists(
    st.one_of(
        st.none(),
        st.lists(st.integers(min_value=-5, max_value=5), max_size=5),
    ),
    min_size=1,
    max_size=15,
)


@settings(max_examples=10, deadline=None)
@given(lists_st, st.integers(min_value=1, max_value=4))
def test_explode_list_matches_duckdb(lists, parts):
    t = pa.table(
        {"id": pa.array(range(len(lists)), pa.int64()),
         "v": pa.array(lists, pa.list_(pa.int64()))}
    )
    df = t.to_pandas()  # noqa: F841 (registered into duckdb by name)
    want = duckdb.connect().execute(
        """SELECT id, generate_subscripts(v, 1) - 1 AS pos,
                  unnest(v) AS x
           FROM t ORDER BY id, pos"""
    ).fetchdf()
    out = explode_list(rd.from_arrow(t).repartition(parts), "v",
                       value_name="x", pos_name="pos")
    got = out.to_pandas()
    if len(got) == 0:
        # Ray's to_pandas drops columns at zero rows (the Dataset schema
        # itself is intact); nothing further to compare
        assert len(want) == 0
        assert set(out.schema().names) == {"id", "x", "pos"}
        return
    got = got.sort_values(["id", "pos"]).reset_index(drop=True)
    assert got[["id", "pos", "x"]].values.tolist() == want.values.tolist()


semi_rows_st = st.lists(
    st.integers(min_value=0, max_value=8), min_size=1, max_size=25
)


@settings(max_examples=10, deadline=None)
@given(semi_rows_st, semi_rows_st, st.integers(min_value=1, max_value=4))
def test_shuffle_semi_anti_matches_duckdb(lk, rk, parts):
    """Large-large left_semi/left_anti (shuffle_semi_join) vs DuckDB
    IN / NOT IN — duplicate keys on both sides, empty blocks from
    repartition, disjoint and overlapping key sets."""
    from recon_ray.functions.relational import shuffle_semi_join

    left = pd.DataFrame({"k": lk, "x": np.arange(len(lk), dtype=np.int64)})
    right = pd.DataFrame({"rk": rk})
    lds = rd.from_pandas(left).repartition(parts)
    rds = rd.from_pandas(right).repartition(parts)

    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    for anti, op in ((False, "IN"), (True, "NOT IN")):
        got = (
            shuffle_semi_join(lds, rds, on="k", right_on="rk", anti=anti)
            .to_pandas()
        )
        want = con.execute(
            f"SELECT k, x FROM l WHERE k {op} (SELECT rk FROM r) ORDER BY x"
        ).fetchdf()
        if len(got) == 0:
            # an all-empty Ray result collects as a column-less frame
            assert len(want) == 0, (anti, lk, rk)
            continue
        got = got.sort_values("x").reset_index(drop=True)
        assert list(got["x"]) == list(want["x"]), (anti, lk, rk)


trs_rows_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),    # user
        st.integers(min_value=0, max_value=500),  # minutes offset
        st.integers(min_value=-50, max_value=50),  # cents
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=10, deadline=None)
@given(trs_rows_st, st.integers(min_value=1, max_value=4))
def test_time_rolling_sum_matches_self_join(rows, parts):
    """time_rolling_sum vs the explicit self-join oracle: random minute
    offsets (duplicate timestamps likely), 1-hour horizon, tie-break on
    row id."""
    from recon_ray.functions.relational import time_rolling_sum

    df = pd.DataFrame(rows, columns=["u", "mins", "v"])
    df["id"] = np.arange(len(df), dtype=np.int64)
    df["ts"] = pd.Timestamp("2024-01-01") + pd.to_timedelta(
        df["mins"], unit="m"
    )
    df = df[["id", "u", "ts", "v"]]

    got = (
        time_rolling_sum(
            rd.from_pandas(df).repartition(parts), "u", "ts", "v", "1h",
            out_name="s", tie_cols=["id"],
        )
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("c", df)
    want = con.execute("""
        SELECT a.id, sum(b.v) AS s FROM c a JOIN c b ON b.u = a.u
         AND b.ts >= a.ts - INTERVAL 1 HOUR
         AND (b.ts < a.ts OR (b.ts = a.ts AND b.id <= a.id))
        GROUP BY a.id ORDER BY a.id
    """).fetchdf()
    assert list(got["s"]) == list(want["s"]), rows


unpivot_rows_st = st.lists(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)),
    min_size=1, max_size=20,
)


@settings(max_examples=10, deadline=None)
@given(unpivot_rows_st, st.integers(min_value=1, max_value=4))
def test_unpivot_matches_union_all(rows, parts):
    from recon_ray.functions.relational import unpivot

    df = pd.DataFrame(rows, columns=["a", "b", "c"])
    df["id"] = np.arange(len(df), dtype=np.int64)
    got = (
        unpivot(rd.from_pandas(df).repartition(parts), "id", ["a", "b", "c"])
        .to_pandas().sort_values(["id", "name"]).reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute("""
        SELECT id, name, value FROM (
          SELECT id, 'a' AS name, a AS value FROM t
          UNION ALL SELECT id, 'b', b FROM t
          UNION ALL SELECT id, 'c', c FROM t
        ) ORDER BY id, name
    """).fetchdf()
    assert list(got["value"]) == list(want["value"]), rows


name_st = st.lists(
    st.text(alphabet="abcde ", min_size=1, max_size=10),
    min_size=1, max_size=12,
)


@settings(max_examples=10, deadline=None)
@given(name_st, name_st, st.integers(min_value=1, max_value=3))
def test_fuzzy_join_matches_duckdb(lnames, rnames, parts):
    """Two-table fuzzy_join vs DuckDB levenshtein under the identical
    2-char-prefix blocking rule (random short strings, duplicates and
    shared prefixes likely)."""
    from recon_ray.functions.dedup import fuzzy_join

    left = pd.DataFrame({"a": sorted(set(lnames))})
    right = pd.DataFrame({"b": sorted(set(rnames))})
    got = (
        fuzzy_join(
            rd.from_pandas(left).repartition(parts),
            rd.from_pandas(right).repartition(parts),
            "a", "b", block_len=2, max_dist=2,
        )
        .to_pandas()
    )
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    want = con.execute("""
        SELECT a AS left_value, b AS right_value,
               levenshtein(a, b)::BIGINT AS dist
        FROM l JOIN r ON substr(a, 1, 2) = substr(b, 1, 2)
        WHERE levenshtein(a, b) <= 2
        ORDER BY left_value, right_value
    """).fetchdf()
    if len(got) == 0:
        assert len(want) == 0, (lnames, rnames)
        return
    got = got.sort_values(["left_value", "right_value"]).reset_index(drop=True)
    assert got.values.tolist() == want.values.tolist(), (lnames, rnames)


rex_text_st = st.lists(
    st.text(alphabet="ab1 .X", min_size=0, max_size=20),
    min_size=1, max_size=10,
)


@settings(max_examples=10, deadline=None)
@given(rex_text_st, st.sampled_from([r"[a-z]+", r"[0-9]+", r"[aX]{2,}"]),
       st.integers(min_value=1, max_value=3))
def test_regex_extract_all_matches_duckdb(texts, pattern, parts):
    """regex_extract_all vs UNNEST(regexp_extract_all(...)) — RE2-safe
    patterns over adversarial short strings (empty docs, no matches,
    adjacent matches)."""
    from recon_ray.functions.text import regex_extract_all

    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                       "text": texts})
    got = (
        regex_extract_all(rd.from_pandas(df).repartition(parts), pattern)
        .to_pandas()
    )
    con = duckdb.connect()
    con.register("d", df)
    want = con.execute(f"""
        SELECT doc_id, (generate_subscripts(l, 1))::BIGINT AS ord,
               unnest(l) AS match
        FROM (SELECT doc_id, regexp_extract_all(text, '{pattern}') AS l
              FROM d)
        ORDER BY doc_id, ord
    """).fetchdf()
    if len(got) == 0:
        assert len(want) == 0, (texts, pattern)
        return
    got = got.sort_values(["doc_id", "ord"]).reset_index(drop=True)
    assert got[["doc_id", "ord", "match"]].values.tolist() \
        == want.values.tolist(), (texts, pattern)


prof_rows_st = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-5, 5)),
        st.one_of(st.none(), st.text(alphabet="xyz", min_size=0, max_size=2)),
    ),
    min_size=1, max_size=20,
)


@settings(max_examples=10, deadline=None)
@given(prof_rows_st, st.integers(min_value=1, max_value=4))
def test_profile_columns_matches_duckdb(rows, parts):
    """profile_columns vs per-column DuckDB aggregates on random
    nullable int/str frames at several partitionings."""
    from recon_ray.functions.stats import profile_columns

    df = pd.DataFrame(rows, columns=["i", "s"])
    df["i"] = df["i"].astype("float64")  # None -> NaN, int values
    got = profile_columns(
        rd.from_pandas(df).repartition(parts), ["i", "s"]
    ).set_index("column")
    con = duckdb.connect()
    con.register("t", df)
    for col in ("i", "s"):
        w = con.execute(f"""
            SELECT count(*)::BIGINT AS n_rows,
                   (count(*) - count({col}))::BIGINT AS n_null,
                   count(DISTINCT {col})::BIGINT AS n_distinct
            FROM t
        """).fetchone()
        assert int(got.loc[col, "n_rows"]) == w[0], (col, rows)
        assert int(got.loc[col, "n_null"]) == w[1], (col, rows)
        assert int(got.loc[col, "n_distinct"]) == w[2], (col, rows)


piv_rows_st = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 2)),          # index key
        st.sampled_from(["x", "y", "z"]),                  # pivot col
        st.integers(-9, 9),                                # value
    ),
    min_size=1, max_size=25,
)


@settings(max_examples=10, deadline=None)
@given(piv_rows_st, st.integers(min_value=1, max_value=4))
def test_pivot_agg_null_keys_match_duckdb(rows, parts):
    """pivot_agg keeps NULL index keys (SQL GROUP BY semantics) — vs
    DuckDB conditional aggregation with pinned categories."""
    from recon_ray.functions.relational import pivot_agg

    df = pd.DataFrame(rows, columns=["k", "p", "v"])
    df["k"] = df["k"].astype("float64")
    got = pivot_agg(
        rd.from_pandas(df).repartition(parts), "k", "p",
        value_col="v", agg="sum", categories=["x", "y", "z"],
    )
    got = got.sort_values("k", na_position="last").reset_index(drop=True)
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute("""
        SELECT k,
               coalesce(sum(CASE WHEN p='x' THEN v END), 0) AS x,
               coalesce(sum(CASE WHEN p='y' THEN v END), 0) AS y,
               coalesce(sum(CASE WHEN p='z' THEN v END), 0) AS z
        FROM t GROUP BY k ORDER BY k NULLS LAST
    """).fetchdf()
    assert len(got) == len(want), rows
    for c in ("x", "y", "z"):
        assert [int(v) for v in got[c]] == [int(v) for v in want[c]], (c, rows)


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
             max_size=30),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=4),
)
def test_assign_split_matches_sql_case(ids, tenths_a, tenths_b, parts):
    """assign_split vs the HUGEINT CASE rule for random fraction pairs
    (remainder to the last label)."""
    from recon_ray.functions.insights import _MIX_C, assign_split

    fa, fb = tenths_a / 20.0, tenths_b / 20.0  # up to 0.4 each
    fr = {"train": fa, "val": fb, "test": max(1.0 - fa - fb, 0.0)}
    df = pd.DataFrame({"doc_id": sorted(set(ids))})
    got = (
        assign_split(rd.from_pandas(df).repartition(parts), fr)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    t1 = min(int(fa * (1 << 64)), (1 << 64) - 1)
    t2 = min(int((fa + fb) * (1 << 64)), (1 << 64) - 1)
    con = duckdb.connect()
    con.register("d", df)
    want = con.execute(f"""
        SELECT doc_id,
          CASE WHEN ((doc_id::HUGEINT * {_MIX_C}) % 18446744073709551616)
                 < {t1}::HUGEINT THEN 'train'
               WHEN ((doc_id::HUGEINT * {_MIX_C}) % 18446744073709551616)
                 < {t2}::HUGEINT THEN 'val'
               ELSE 'test' END AS split
        FROM d ORDER BY doc_id
    """).fetchdf()
    assert list(got["split"]) == list(want["split"]), (ids, fa, fb)


asof_rows_st = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 50), st.integers(-9, 9)),
    min_size=1, max_size=20,
)


@settings(max_examples=10, deadline=None)
@given(asof_rows_st, asof_rows_st,
       st.sampled_from(["backward", "forward"]),
       st.integers(min_value=1, max_value=4))
def test_asof_join_fuzz_vs_duckdb(lrows, rrows, direction, parts):
    """asof_join vs DuckDB ASOF JOIN (backward) / the mirrored explicit
    subquery (forward) — duplicate on-values and disjoint keys likely.
    Right-side duplicate (by, on) pairs are collapsed (keep max value)
    so 'the single matching row' is well-defined both sides."""
    from recon_ray.functions.relational import asof_join

    left = pd.DataFrame(lrows, columns=["k", "t", "lv"])
    left["lid"] = np.arange(len(left), dtype=np.int64)
    right = (
        pd.DataFrame(rrows, columns=["k", "t", "rv"])
        .groupby(["k", "t"], as_index=False)["rv"].max()
    )
    got = asof_join(
        rd.from_pandas(left).repartition(parts),
        rd.from_pandas(right).repartition(parts),
        by="k", on="t", direction=direction,
    ).to_pandas()
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    op, agg = ("<=", "max") if direction == "backward" else (">=", "min")
    want = con.execute(f"""
        SELECT l.lid, r.rv FROM l JOIN r ON r.k = l.k AND r.t = (
          SELECT {agg}(r2.t) FROM r r2 WHERE r2.k = l.k AND r2.t {op} l.t)
        ORDER BY l.lid
    """).fetchdf()
    if len(got) == 0:
        assert len(want) == 0, (lrows, rrows, direction)
        return
    got = got.sort_values("lid").reset_index(drop=True)
    assert list(got["lid"].astype("int64")) == list(want["lid"]), \
        (lrows, rrows, direction)
    # right value columns come back suffixed (asof_join's contract)
    assert list(got["rv_r"].astype("int64")) == list(want["rv"]), \
        (lrows, rrows, direction)


ga_rows_st = st.lists(
    st.tuples(
        st.one_of(st.none(), st.sampled_from(["a", "b"])),
        st.integers(-9, 9),
    ),
    min_size=1, max_size=25,
)


@settings(max_examples=10, deadline=None)
@given(ga_rows_st, st.integers(min_value=1, max_value=4))
def test_grouped_agg_null_keys_match_duckdb(rows, parts):
    """grouped_agg (the combiner backbone) keeps NULL groups — sum /
    count / min / max vs SQL GROUP BY with nulls."""
    from recon_ray.functions.relational import grouped_agg

    df = pd.DataFrame(rows, columns=["g", "v"])
    got = grouped_agg(
        rd.from_pandas(df).repartition(parts), "g",
        {"v": ["sum", "count", "min", "max"]},
    )
    got = got.sort_values("g", na_position="last").reset_index(drop=True)
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute("""
        SELECT g, sum(v)::BIGINT AS s, count(v)::BIGINT AS c,
               min(v)::BIGINT AS mn, max(v)::BIGINT AS mx
        FROM t GROUP BY g ORDER BY g NULLS LAST
    """).fetchdf()
    assert len(got) == len(want), rows
    assert [int(x) for x in got["v_sum"]] == [int(x) for x in want["s"]]
    assert [int(x) for x in got["v_count"]] == [int(x) for x in want["c"]]
    assert [int(x) for x in got["v_min"]] == [int(x) for x in want["mn"]]
    assert [int(x) for x in got["v_max"]] == [int(x) for x in want["mx"]]


@settings(max_examples=10, deadline=None)
@given(ga_rows_st, st.integers(min_value=1, max_value=4))
def test_group_count_null_keys_match_duckdb(rows, parts):
    """group_count keeps NULL groups (same sentinel rule as grouped_agg)."""
    from recon_ray.functions.relational import group_count

    df = pd.DataFrame(rows, columns=["g", "v"])
    got = group_count(rd.from_pandas(df).repartition(parts), "g", alias="n")
    got = got.sort_values("g", na_position="last").reset_index(drop=True)
    want = None
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute(
        "SELECT g, count(*)::BIGINT AS n FROM t GROUP BY g "
        "ORDER BY g NULLS LAST"
    ).fetchdf()
    assert len(got) == len(want), rows
    assert [int(x) for x in got["n"]] == [int(x) for x in want["n"]], rows


set_rows_st = st.lists(st.integers(0, 6), min_size=0, max_size=20)


@settings(max_examples=10, deadline=None)
@given(set_rows_st, set_rows_st, st.integers(min_value=1, max_value=4))
def test_intersect_except_match_duckdb(a, b, parts):
    """intersect / except_rows (distinct set semantics) vs SQL INTERSECT /
    EXCEPT — duplicates, empty sides, disjoint and equal sets."""
    from recon_ray.functions.relational import difference, intersect

    if not a:
        a = [0]  # from_pandas needs schema; empty-side covered by b
    da = pd.DataFrame({"k": a})
    db = pd.DataFrame({"k": b if b else []}, dtype="int64")
    ra = rd.from_pandas(da).repartition(parts)
    rb = rd.from_pandas(db).repartition(parts) if len(db) else \
        rd.from_pandas(pd.DataFrame({"k": pd.Series([], dtype="int64")}))
    con = duckdb.connect()
    con.register("a", da)
    con.register("b", db)
    for fn, sqlop in ((intersect, "INTERSECT"), (difference, "EXCEPT")):
        got = fn(ra, rb, "k").to_pandas()
        want = con.execute(
            f"SELECT k FROM a {sqlop} SELECT k FROM b ORDER BY k"
        ).fetchdf()
        if len(got) == 0:
            assert len(want) == 0, (sqlop, a, b)
            continue
        assert sorted(got["k"].astype("int64")) == list(want["k"]), \
            (sqlop, a, b)


ups_rows_st = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 9), st.integers(-9, 9)),
    min_size=1, max_size=15,
)


@settings(max_examples=10, deadline=None)
@given(ups_rows_st, ups_rows_st, st.integers(min_value=1, max_value=4))
def test_merge_upsert_matches_duckdb(base, ups, parts):
    """merge_upsert vs the explicit SQL precedence rule: per key the row
    with (max side, then max version) wins; dup-tolerant inputs."""
    from recon_ray.functions.relational import merge_upsert

    bdf = pd.DataFrame(base, columns=["k", "ver", "v"])
    udf = pd.DataFrame(ups, columns=["k", "ver", "v"])
    got = (
        merge_upsert(
            rd.from_pandas(bdf).repartition(parts),
            rd.from_pandas(udf).repartition(parts),
            key="k", version_col="ver",
        )
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("b", bdf)
    con.register("u", udf)
    want = con.execute("""
        WITH all_rows AS (
          SELECT k, ver, v, 0 AS src FROM b
          UNION ALL SELECT k, ver, v, 1 FROM u
        ), ranked AS (
          SELECT *, row_number() OVER (PARTITION BY k
            ORDER BY src DESC, ver DESC) AS rn
          FROM all_rows
        )
        SELECT k, ver, v FROM ranked WHERE rn = 1 ORDER BY k
    """).fetchdf()
    assert list(got["k"].astype("int64")) == list(want["k"]), (base, ups)
    assert list(got["ver"].astype("int64")) == list(want["ver"]), (base, ups)


# ---------------------------------------------------------------------------
# gaps-and-islands streaks (the q_events_user_streaks kernel)
# ---------------------------------------------------------------------------

STREAK_SQL = """
WITH d AS (SELECT DISTINCT user_id, day FROM df),
r AS (SELECT user_id, day,
             row_number() OVER (PARTITION BY user_id ORDER BY day) AS rn
      FROM d),
g AS (SELECT user_id, day - rn * INTERVAL 1 DAY AS anchor FROM r)
SELECT user_id, max(cnt)::BIGINT AS max_streak FROM (
  SELECT user_id, anchor, count(*) AS cnt FROM g GROUP BY 1, 2
) GROUP BY user_id ORDER BY user_id
"""


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 15)),
             min_size=1, max_size=60),
    st.integers(min_value=1, max_value=4),
)
def test_user_streaks_match_duckdb(pairs, parts):
    """Longest consecutive-day run per user: the row_number anchor trick,
    distributed via bucketed_group_apply, vs the identical SQL over
    random sparse/duplicated (user, day) sets."""
    from recon_ray.functions.relational import bucketed_group_apply, distinct

    df = pd.DataFrame(
        {"user_id": [p[0] for p in pairs],
         "day": pd.Timestamp("2024-03-01")
                + pd.to_timedelta([p[1] for p in pairs], unit="D")}
    )
    days = distinct(rd.from_pandas(df).repartition(parts),
                    ["user_id", "day"])

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

    got = bucketed_group_apply(days, "user_id", streaks).to_pandas()
    want = duckdb.connect().execute(STREAK_SQL).fetchdf()
    assert dict(zip(got["user_id"], got["max_streak"])) == dict(
        zip(want["user_id"], want["max_streak"])
    ), pairs


# ---------------------------------------------------------------------------
# entity_resolution (blocking -> levenshtein -> components -> canon)
# ---------------------------------------------------------------------------

ER_SQL = """
WITH RECURSIVE k AS MATERIALIZED (
  SELECT id, substr(txt, 1, 12) AS key, substr(txt, 1, 3) AS blk FROM df
), p AS MATERIALIZED (
  SELECT a.id AS a, b.id AS b FROM k a JOIN k b
    ON a.blk = b.blk AND a.id < b.id
  WHERE levenshtein(a.key, b.key) <= 2
), edges AS MATERIALIZED (
  SELECT a, b FROM p UNION SELECT b AS a, a AS b FROM p
), lab(node, lbl) AS (
  SELECT id, id FROM df
  UNION
  SELECT e.b, lab.lbl FROM lab JOIN edges e ON lab.node = e.a
), canon AS (SELECT node AS id, min(lbl) AS canon FROM lab GROUP BY node)
SELECT id, canon,
       count(*) OVER (PARTITION BY canon) AS cluster_size
FROM canon ORDER BY id
"""


@settings(max_examples=8, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["alpha", "bravo", "charli"]),
                       st.integers(0, 2), st.integers(0, 9)),
             min_size=1, max_size=25),
    st.integers(min_value=1, max_value=4),
)
def test_entity_resolution_matches_duckdb(specs, parts):
    """Random corpora of base words with planted single-char mutations at
    position `pos` and a numeric suffix — clusters form across mutations
    that stay within edit distance 2 under the identical blocking rule.
    The whole chain (pairs -> components -> canon/size) must match the
    recursive-CTE closure regardless of block layout."""
    from recon_ray.functions.dedup import entity_resolution

    txts = [w[:pos] + str(d) + w[pos + 1:] for (w, pos, d) in specs]
    df = pd.DataFrame({"id": np.arange(len(txts), dtype=np.int64),
                       "txt": txts})
    got = (
        entity_resolution(rd.from_pandas(df).repartition(parts),
                          text_col="txt", id_col="id", group_col=None,
                          key_len=12, block_len=3, max_dist=2)
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    want = duckdb.connect().execute(ER_SQL).fetchdf()
    assert list(got["canon"].astype("int64")) == list(
        want["canon"].astype("int64")), specs
    assert list(got["cluster_size"].astype("int64")) == list(
        want["cluster_size"].astype("int64")), specs


# ---------------------------------------------------------------------------
# apply_cdc (I/U/D log fold with version precedence)
# ---------------------------------------------------------------------------

cdc_log_st = st.lists(
    st.tuples(st.integers(0, 5),                      # k
              st.integers(1, 6),                      # version
              st.sampled_from(["I", "U", "D"]),       # op
              st.integers(-9, 9)),                    # payload
    min_size=0, max_size=18,
    # two rows with identical (key, version, op) but different
    # payloads are an arbitrary tie in BOTH engines (the documented
    # op-descending tiebreak can't order identical ops), so the oracle
    # comparison would be ill-posed; same-version different-op rows
    # stay in to exercise that tiebreak
    unique_by=lambda t: (t[0], t[1], t[2]),
)


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(-9, 9)),
             min_size=0, max_size=8, unique_by=lambda t: t[0]),
    cdc_log_st,
    st.integers(min_value=1, max_value=4),
)
def test_apply_cdc_matches_duckdb(base, log, parts):
    """apply_cdc vs the explicit SQL rule: per key the (max version,
    then op desc) log row decides — D deletes, I/U replaces, untouched
    base keys survive."""
    from recon_ray.functions.relational import apply_cdc

    if not base and not log:
        return
    bdf = pd.DataFrame(base, columns=["k", "v"]).astype("int64")
    ldf = pd.DataFrame(log, columns=["k", "version", "op", "v"])
    if bdf.empty:
        bdf = pd.DataFrame({"k": pd.Series([], dtype="int64"),
                            "v": pd.Series([], dtype="int64")})
    if ldf.empty:
        return  # empty-log fold is identity; covered by the base path
    got = apply_cdc(rd.from_pandas(bdf).repartition(parts),
                    rd.from_pandas(ldf).repartition(parts),
                    key="k").to_pandas()
    con = duckdb.connect()
    con.register("b", bdf)
    con.register("l", ldf)
    want = con.execute("""
        WITH latest AS (
          SELECT * FROM (
            SELECT k, op, v, row_number() OVER (PARTITION BY k
              ORDER BY version DESC, op DESC) AS rn FROM l
          ) WHERE rn = 1
        )
        SELECT coalesce(latest.k, b.k) AS k,
               coalesce(latest.v, b.v) AS v
        FROM b FULL OUTER JOIN latest ON latest.k = b.k
        WHERE latest.op IS NULL OR latest.op <> 'D'
        ORDER BY k
    """).fetchdf()
    if want.empty:  # everything deleted: empty to_pandas drops columns
        assert got.empty, (base, log)
        return
    got = got.sort_values("k").reset_index(drop=True)
    assert list(got["k"].astype("int64")) == list(
        want["k"].astype("int64")), (base, log)
    assert list(got["v"].astype("int64")) == list(
        want["v"].astype("int64")), (base, log)


# ---------------------------------------------------------------------------
# fill_day_gaps (generate_series densification)
# ---------------------------------------------------------------------------

GAPS_SQL = """
WITH span AS (SELECT k, min(day) AS lo, max(day) AS hi FROM df GROUP BY 1),
grid AS (SELECT k, unnest(generate_series(lo, hi, 1)) AS day FROM span)
SELECT grid.k, grid.day, coalesce(df.v, 0) AS v
FROM grid LEFT JOIN df ON df.k = grid.k AND df.day = grid.day
ORDER BY 1, 2
"""


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 20),
                       st.integers(1, 9)),
             min_size=1, max_size=25, unique_by=lambda t: (t[0], t[1])),
    st.integers(min_value=1, max_value=4),
)
def test_fill_day_gaps_matches_duckdb(rows, parts):
    """Dense integer-day resample with zero fill vs generate_series on
    random sparse per-key day sets."""
    from recon_ray.functions.relational import fill_day_gaps

    df = pd.DataFrame(rows, columns=["k", "day", "v"]).astype("int64")
    got = (
        fill_day_gaps(rd.from_pandas(df).repartition(parts), "k",
                      day_col="day", fill_cols=["v"])
        .to_pandas().sort_values(["k", "day"]).reset_index(drop=True)
    )
    want = duckdb.connect().execute(GAPS_SQL).fetchdf()
    for c in ("k", "day", "v"):
        assert list(got[c].astype("int64")) == list(
            want[c].astype("int64")), (c, rows)


# ---------------------------------------------------------------------------
# grouped_mad_outliers (median/MAD robust fence)
# ---------------------------------------------------------------------------

MAD_SQL = """
WITH m AS (SELECT g, quantile_disc(v, 0.5) AS med FROM df GROUP BY 1),
d AS (SELECT df.g, df.v, m.med, abs(df.v - m.med) AS ad
      FROM df JOIN m USING (g)),
s AS (SELECT g, quantile_disc(ad, 0.5) AS mad FROM d GROUP BY 1)
SELECT d.g, any_value(d.med) AS med, any_value(s.mad) AS mad,
       count(*) AS n, count(*) FILTER (d.ad > 3 * s.mad) AS n_outliers
FROM d JOIN s USING (g) GROUP BY d.g ORDER BY d.g
"""


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(-50, 50)),
             min_size=1, max_size=40),
    st.integers(min_value=1, max_value=4),
)
def test_grouped_mad_outliers_matches_duckdb(rows, parts):
    from recon_ray.functions.stats import grouped_mad_outliers

    df = pd.DataFrame(rows, columns=["g", "v"]).astype("int64")
    got = grouped_mad_outliers(
        rd.from_pandas(df).repartition(parts), "g", "v", k=3.0)
    want = duckdb.connect().execute(MAD_SQL).fetchdf()
    for c in ("g", "med", "mad", "n", "n_outliers"):
        assert list(got[c].astype("int64")) == list(
            want[c].astype("int64")), (c, rows)


# ---------------------------------------------------------------------------
# association_pairs (market-basket support + lift)
# ---------------------------------------------------------------------------

ASSOC_SQL = """
WITH bi AS (SELECT DISTINCT b, i FROM df),
n AS (SELECT count(DISTINCT b) AS nb FROM bi),
ic AS (SELECT i, count(*) AS c FROM bi GROUP BY 1),
pr AS (SELECT x.i AS a, y.i AS bb, count(*) AS support
       FROM bi x JOIN bi y ON x.b = y.b AND x.i < y.i GROUP BY 1, 2)
SELECT pr.a, pr.bb AS b, pr.support,
       round((pr.support * n.nb)::DOUBLE / (ia.c * ib.c), 6) AS lift
FROM pr CROSS JOIN n
 JOIN ic ia ON ia.i = pr.a JOIN ic ib ON ib.i = pr.bb
WHERE pr.support >= 1
ORDER BY pr.support DESC, pr.a, pr.bb LIMIT 100
"""


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 5),
                       st.sampled_from(list("pqrstu"))),
             min_size=1, max_size=30),
    st.integers(min_value=1, max_value=4),
)
def test_association_pairs_matches_duckdb(rows, parts):
    from recon_ray.functions.insights import association_pairs

    df = pd.DataFrame(rows, columns=["b", "i"])
    got = association_pairs(
        rd.from_pandas(df).repartition(parts), "b", "i",
        min_support=1, k=100)
    want = duckdb.connect().execute(ASSOC_SQL).fetchdf()
    assert len(got) == len(want), rows
    for c in ("a", "b", "support"):
        assert list(got[c]) == list(want[c]), (c, rows)
    assert np.allclose(got["lift"], want["lift"], atol=1e-9), rows


# ---------------------------------------------------------------------------
# bm25_search (combiner stats + broadcast-model scoring)
# ---------------------------------------------------------------------------

BM25_SQL = r"""
WITH t AS (
  SELECT id, unnest(regexp_extract_all(lower(txt), '\w+')) AS term
  FROM df
), dl AS (SELECT id, count(*) AS dl FROM t GROUP BY 1),
st AS (SELECT (SELECT count(*) FROM df) AS n,
              (SELECT count(*) FROM t)::DOUBLE
                / (SELECT count(*) FROM df) AS avgdl),
q AS (SELECT unnest(['red', 'blue']) AS term),
df_ AS (SELECT q.term, (SELECT count(DISTINCT t.id) FROM t
                        WHERE t.term = q.term) AS df FROM q),
tf AS (SELECT t.id, t.term, count(*) AS tf
       FROM t JOIN q USING (term) GROUP BY 1, 2),
sc AS (
  SELECT tf.id,
         sum(ln((st.n - df_.df + 0.5) / (df_.df + 0.5) + 1.0)
             * tf.tf * (1.2 + 1)
             / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl))) AS s
  FROM tf JOIN df_ USING (term) JOIN dl USING (id), st GROUP BY 1)
SELECT id, round(s, 6) AS score FROM sc WHERE s > 0
ORDER BY round(s, 6) DESC, id LIMIT 5
"""

WORDS = ["red", "blue", "green", "dog", "cat"]


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=8),
             min_size=1, max_size=12),
    st.integers(min_value=1, max_value=4),
)
def test_bm25_matches_duckdb(docs, parts):
    from recon_ray.functions.text import bm25_search

    df = pd.DataFrame({"id": np.arange(len(docs), dtype=np.int64),
                       "txt": [" ".join(d) for d in docs]})
    got = bm25_search(
        rd.from_pandas(df).repartition(parts), ["red", "blue"],
        k=5, text_col="txt", id_col="id")
    want = duckdb.connect().execute(BM25_SQL).fetchdf()
    assert list(got["id"].astype("int64")) == list(
        want["id"].astype("int64")), docs
    assert np.allclose(got["score"], want["score"], atol=1e-9), docs


JW_ALPHABET = "abcé ü"


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet=JW_ALPHABET, min_size=0, max_size=16),
       st.text(alphabet=JW_ALPHABET, min_size=0, max_size=16))
def test_jaro_winkler_kernel_matches_duckdb(a, b):
    """Byte-level Jaro-Winkler vs DuckDB's jaro_winkler_similarity at
    full double precision (multi-byte code points, empties, repeats)."""
    from recon_ray.functions.dedup import jaro_winkler

    want = duckdb.connect().execute(
        "select jaro_winkler_similarity(?, ?)", [a, b]).fetchone()[0]
    assert abs(jaro_winkler(a, b) - want) < 1e-12, (a, b)


def test_jaro_winkler_pins():
    """Pinned reference values incl. the DuckDB empty-string quirk
    (empty → 0.0, unlike libraries that define jw('','') = 1)."""
    from recon_ray.functions.dedup import jaro_winkler

    assert jaro_winkler("", "") == 0.0
    assert jaro_winkler("a", "") == 0.0
    assert jaro_winkler("abc", "abc") == 1.0
    assert abs(jaro_winkler("martha", "marhta") - 0.9611111111111111) < 1e-15
    assert abs(jaro_winkler("DIXON", "DICKSONX") - 0.8133333333333332) < 1e-15
    # boost only above 0.7: common prefix but low jaro stays unboosted
    assert abs(jaro_winkler("aazzzzzzzz", "aayyyyyyyy")
               - 0.4666666666666666) < 1e-15
    # byte-level: 'café' vs 'cafe' counts the é as two bytes
    assert abs(jaro_winkler("café", "cafe") - 0.8483333333333334) < 1e-15


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.sampled_from(
        ["red dog", "red dig", "red dg", "blue cat", "blue bat",
         "blue", "réd dog", "x", ""]),
        min_size=1, max_size=12),
    st.integers(min_value=1, max_value=4),
)
def test_jw_name_pairs_matches_duckdb(names, parts):
    """Distributed jw_name_pairs vs a DuckDB self-join replaying the
    identical first-token blocking and 6-dp integer rounding."""
    from recon_ray.functions.dedup import jw_name_pairs

    df = pd.DataFrame({"nm": names})
    got = (
        jw_name_pairs(rd.from_pandas(df).repartition(parts),
                      text_col="nm", min_sim6=500000)
        .to_pandas()
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute("""
        WITH names AS (SELECT DISTINCT nm FROM t)
        SELECT a.nm AS name_a, b.nm AS name_b,
               CAST(round(jaro_winkler_similarity(a.nm, b.nm) * 1000000)
                    AS BIGINT) AS jw6
        FROM names a JOIN names b
          ON split_part(a.nm, ' ', 1) = split_part(b.nm, ' ', 1)
         AND a.nm < b.nm
        WHERE round(jaro_winkler_similarity(a.nm, b.nm) * 1000000) >= 500000
        ORDER BY 1, 2
    """).fetchdf()
    if len(got) == 0:
        assert len(want) == 0, names
        return
    got = got.sort_values(["name_a", "name_b"]).reset_index(drop=True)
    assert got.values.tolist() == want.values.tolist(), names


def test_weighted_bernoulli_sample_properties(ray_session):
    """Layout invariance, the w≥cap ⇒ always / w≤0 ⇒ never edges, and
    growth stability (adding rows never flips an existing row's fate)."""
    from recon_ray.functions.insights import weighted_bernoulli_sample

    df = pd.DataFrame({"doc_id": np.arange(200, dtype=np.int64),
                       "w": np.arange(200, dtype=np.int64) * 7 % 150 - 20})
    got1 = weighted_bernoulli_sample(
        rd.from_pandas(df).repartition(1), "w", cap=100).to_pandas()
    got4 = weighted_bernoulli_sample(
        rd.from_pandas(df).repartition(4), "w", cap=100).to_pandas()
    assert sorted(got1["doc_id"]) == sorted(got4["doc_id"])
    kept = set(got1["doc_id"])
    assert all(i in kept for i in df[df.w >= 100]["doc_id"])
    assert not any(i in kept for i in df[df.w <= 0]["doc_id"])
    # growth stability: the first 100 rows' fate is unchanged
    sub = weighted_bernoulli_sample(
        rd.from_pandas(df.head(100)), "w", cap=100).to_pandas()
    assert sorted(sub["doc_id"]) == sorted(i for i in kept if i < 100)


@settings(max_examples=8, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 6),
                       st.integers(-5, 5)), min_size=0, max_size=25),
    st.lists(st.tuples(st.integers(0, 6),
                       st.text("abc", min_size=0, max_size=2)),
             min_size=0, max_size=25),
    st.sampled_from(["inner", "left_outer", "right_outer",
                     "full_outer"]),
    st.integers(min_value=1, max_value=3),
)
def test_bucket_join_matches_whole_input_join(lrows, rrows, how, parts):
    """The hash exchange must return the same multiset of rows as one
    Acero join over the whole input for every join type, including dup
    keys and NULL-free random layouts; an empty result keeps its
    columns."""
    from recon_ray.functions.relational import shuffle_join, to_table

    ldf = pd.DataFrame(lrows, columns=["k", "v"])
    rdf = pd.DataFrame(rrows, columns=["rk", "s"])
    if not len(ldf) or not len(rdf):
        return  # empty sides: test_hash_join_with_an_empty_side
    # nullable keys: one side int64, the other Int64-with-NULLs (which
    # pandas renders float64) — the bucket hash must be dtype-blind
    rdf["rk"] = pd.Series(
        [None if v == 6 else v for v in rdf["rk"]], dtype="Int64")

    def norm(g):
        g = g.reindex(sorted(g.columns), axis=1)
        return g.sort_values(list(g.columns)).reset_index(drop=True)

    got = shuffle_join(rd.from_pandas(ldf).repartition(parts),
                       rd.from_pandas(rdf).repartition(parts),
                       on="k", right_on="rk", how=how, num_partitions=4)
    want = pa.Table.from_pandas(ldf, preserve_index=False).join(
        pa.Table.from_pandas(rdf, preserve_index=False), keys="k",
        right_keys="rk", join_type=how.replace("_", " "),
        right_suffix="_r")
    got, want = to_table(got).to_pandas(), want.to_pandas()
    assert sorted(got.columns) == sorted(want.columns)
    pd.testing.assert_frame_equal(norm(got), norm(want), check_dtype=False)


@pytest.mark.parametrize("how", ["inner", "left_outer", "right_outer",
                                 "full_outer", "semi", "anti"])
def test_hash_join_with_an_empty_side(how):
    """A 0-row side (one zero-column block after the join's rebatch)
    joins as an empty table of its schema; results equal pandas."""
    from recon_ray.functions.relational import (shuffle_join,
                                                shuffle_semi_join)

    left = pd.DataFrame({"k": [1, 2, 3], "v": [10, 20, 30]})
    empty = pd.DataFrame({"k": pd.Series([], dtype="int64"),
                          "s": pd.Series([], dtype=object)})
    lds, eds = rd.from_pandas(left), rd.from_pandas(empty)
    if how in ("semi", "anti"):
        match = left["k"].isin(empty["k"])
        runs = [(shuffle_semi_join(lds, eds, on="k", anti=how == "anti"),
                 left[~match if how == "anti" else match])]
    else:
        pd_how = {"inner": "inner", "left_outer": "left",
                  "right_outer": "right", "full_outer": "outer"}[how]
        runs = [(shuffle_join(lds, eds, on="k", how=how),
                 left.merge(empty, on="k", how=pd_how)),
                (shuffle_join(eds, lds, on="k", how=how),
                 empty.merge(left, on="k", how=pd_how))]
    for got, w in runs:
        got = got.to_pandas()
        assert len(got) == len(w)
        if len(w):
            cols = sorted(w.columns)
            pd.testing.assert_frame_equal(
                got[cols].sort_values("k").reset_index(drop=True),
                w[cols].sort_values("k").reset_index(drop=True),
                check_dtype=False)


def test_hash_join_rejects_unknown_join_type():
    from recon_ray.functions.relational import shuffle_join

    ds = rd.from_pandas(pd.DataFrame({"k": [1]}))
    with pytest.raises(ValueError, match="unsupported join type"):
        shuffle_join(ds, ds, on="k", how="cross")


def test_to_table_drops_column_less_empty_blocks():
    """Empty blocks that skipped an Arrow UDF stay 0-row, column-less
    pandas frames under an Arrow schema; ``to_table`` drops them rather
    than fail to concatenate them."""
    import pyarrow.compute as pc
    import ray

    from recon_ray.functions.relational import to_table

    def double(t: pa.Table) -> pa.Table:
        return t.set_column(0, "x", pc.multiply(t.column("x"), 2))

    ds = rd.from_pandas(pd.DataFrame({"x": [3]})).repartition(3).map_batches(
        double, batch_format="pyarrow").materialize()
    blocks = ray.get(ds.to_arrow_refs())
    assert any(not isinstance(b, pa.Table) for b in blocks)
    assert to_table(ds).to_pydict() == {"x": [6]}
