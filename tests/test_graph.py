"""Graph analytics over triple tables — degree/PageRank/components parity
against independent sequential implementations (and the DuckDB unrolled-CTE
PageRank oracle used by the driver gate)."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from recon_ray.functions.graph import (
    degree_table,
    graph_components,
    pagerank,
    pagerank_oracle_sql,
)


@pytest.fixture(scope="module")
def triples():
    """Random directed multigraph with a hub, a dangling sink, and an
    isolated 2-cycle — the shapes that break naive PageRank/CC code."""
    rng = np.random.RandomState(11)
    names = [f"n{i:03d}" for i in range(60)]
    subj = [names[i] for i in rng.randint(0, 50, 400)]
    obj = [names[i] for i in rng.randint(0, 50, 400)]
    subj += ["n000"] * 30  # hub fan-out
    obj += [names[i] for i in rng.randint(1, 50, 30)]
    subj += ["n055"]  # n056 is a dangling sink
    obj += ["n056"]
    subj += ["n058", "n059"]  # isolated 2-cycle
    obj += ["n059", "n058"]
    df = pd.DataFrame({"subj": subj, "pred": "p", "obj": obj})
    return df, rd.from_pandas(df).repartition(6)


def _seq_pagerank(df: pd.DataFrame, n_iter: int, dp: int = 85, scale: int = 2**36):
    """Independent sequential reference: plain dict/int arithmetic."""
    nodes = sorted(set(df["subj"]) | set(df["obj"]))
    outdeg = df["subj"].value_counts().to_dict()
    r = {v: scale for v in nodes}
    n = len(nodes)
    for _ in range(n_iter):
        t = sum(r.values())
        dang = sum((r[v] * dp) // 100 for v in nodes if v not in outdeg)
        base = (t * (100 - dp)) // (100 * n) + dang // n
        nxt = {v: base for v in nodes}
        for s, o in zip(df["subj"], df["obj"]):
            nxt[o] += (r[s] * dp) // (100 * outdeg[s])
        r = nxt
    return pd.DataFrame({"entity": nodes, "rank_q": [r[v] for v in nodes]})


def test_pagerank_matches_sequential_and_sql(triples):
    df, ds = triples
    got = pagerank(ds, n_iter=4)
    want = _seq_pagerank(df, n_iter=4)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want, check_dtype=False
    )
    con = duckdb.connect()
    con.register("tt", df)
    ora = con.execute(
        pagerank_oracle_sql("SELECT subj, obj FROM tt", n_iter=4)
    ).df()
    m = got.merge(ora, on="entity", suffixes=("_ray", "_sql"))
    assert len(m) == len(got) == len(ora)
    assert (m["rank_q_ray"] == m["rank_q_sql"]).all()


def test_pagerank_hub_ranks_high(triples):
    df, ds = triples
    got = pagerank(ds, n_iter=5).set_index("entity")["rank_q"]
    # nodes the hub points at 30 extra times outrank the median
    assert got.drop("n000").max() > got.median()
    assert (got > 0).all()


def test_pagerank_empty():
    ds = rd.from_pandas(pd.DataFrame({"subj": [], "pred": [], "obj": []}))
    out = pagerank(ds, n_iter=3)
    assert len(out) == 0
    assert list(out.columns) == ["entity", "rank_q"]


def test_degree_table(triples):
    df, ds = triples
    got = degree_table(ds)
    outd = df["subj"].value_counts()
    ind = df["obj"].value_counts()
    want = (
        pd.DataFrame({"out_degree": outd, "in_degree": ind})
        .fillna(0)
        .astype("int64")
    )
    want.index.name = "entity"
    want = want.reset_index().sort_values("entity").reset_index(drop=True)
    want["degree"] = want["out_degree"] + want["in_degree"]
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_graph_components_vs_union_find(triples):
    df, ds = triples
    got = graph_components(ds)

    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for s, o in zip(df["subj"], df["obj"]):
        union(s, o)
    # normalize: every component labeled by its lexicographic-min member
    want = pd.DataFrame(
        sorted((v, find(v)) for v in parent), columns=["entity", "component"]
    )
    # path compression may leave stale parents; re-resolve
    want["component"] = [find(v) for v in want["entity"]]
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want, check_dtype=False
    )
    # the isolated 2-cycle is its own component
    cc = got.set_index("entity")["component"]
    assert cc["n058"] == cc["n059"] == "n058"


def test_triangle_stats_known_graph():
    """K4 plus a pendant edge: K4 has 4 triangles, 4+1=5 edges... check
    exact census against hand counts, at several partitionings."""
    from recon_ray.functions.graph import triangle_stats

    # K4 on a,b,c,d (6 edges, 4 triangles, wedges = 4*C(3,2)=12) plus
    # pendant d-e (adds edge, d's degree 4 -> wedges C(4,2)-C(3,2)=+3,
    # e degree 1 -> +0) => nodes 5, edges 7, wedges 15, triangles 4.
    # edges given DIRECTED with duplicates and a self-loop to exercise
    # canonicalization
    pairs = [("a", "b"), ("b", "a"), ("a", "c"), ("a", "d"), ("b", "c"),
             ("d", "b"), ("c", "d"), ("d", "e"), ("e", "d"), ("c", "c")]
    df = pd.DataFrame(pairs, columns=["subj", "obj"])
    for parts in (1, 3):
        got = triangle_stats(rd.from_pandas(df).repartition(parts))
        assert got.iloc[0].to_dict() == {
            "n_nodes": 5, "n_edges": 7, "n_wedges": 15, "n_triangles": 4,
            "global_clustering": 3.0 * 4 / 15,
        }


def test_triangle_stats_no_triangles():
    """Bipartite graph (imports-shaped): zero triangles, zero division
    guarded."""
    from recon_ray.functions.graph import triangle_stats

    df = pd.DataFrame(
        [("r1", "p1"), ("r1", "p2"), ("r2", "p1")], columns=["subj", "obj"]
    )
    got = triangle_stats(rd.from_pandas(df))
    assert int(got["n_triangles"][0]) == 0
    assert float(got["global_clustering"][0]) == 0.0
    # degrees r1=2, r2=1, p1=2, p2=1 -> C(2,2 picks): 1 + 0 + 1 + 0
    assert int(got["n_wedges"][0]) == 2


def test_bfs_levels_chain_cycle_unreachable():
    """BFS levels on a hand graph: chain with a shortcut, a cycle back to
    the root, and an unreachable island; exact shortest-path levels at
    several partitionings, capped depth excludes the deep tail."""
    from recon_ray.functions.graph import bfs_levels

    edges = [
        ("r", "a"), ("a", "b"), ("b", "c"), ("c", "d"),  # chain r->d
        ("r", "c"),              # shortcut: c at level 1, d at level 2
        ("d", "r"),              # cycle back: r stays level 0
        ("x", "y"),              # unreachable island
    ]
    df = pd.DataFrame(edges, columns=["subj", "obj"])
    want = {"r": 0, "a": 1, "c": 1, "b": 2, "d": 2}
    for parts in (1, 4):
        got = bfs_levels(rd.from_pandas(df).repartition(parts), root="r")
        assert dict(zip(got["entity"], got["level"])) == want
    # depth cap: max_depth=1 keeps only root + direct callees
    got = bfs_levels(rd.from_pandas(df), root="r", max_depth=1)
    assert dict(zip(got["entity"], got["level"])) == {"r": 0, "a": 1, "c": 1}
    # default root = lexicographic-min subject ("a") reaches b,c,d,r...
    got = bfs_levels(rd.from_pandas(df))
    assert dict(zip(got["entity"], got["level"]))["a"] == 0


def test_pagerank_weighted(triples):
    """Weighted PageRank: all-ones weights reproduce the unweighted
    ranks bit-for-bit; a real weight column matches the weighted
    unrolled-CTE DuckDB oracle exactly."""
    df, _ = triples
    dfw = df.copy()
    rng = np.random.RandomState(3)
    dfw["w"] = rng.randint(1, 9, len(dfw)).astype("int64")
    dsw = rd.from_pandas(dfw).repartition(5)

    ones = dfw.assign(w=1)
    got_ones = pagerank(rd.from_pandas(ones).repartition(4), n_iter=4,
                        weight_col="w")
    want_unweighted = pagerank(rd.from_pandas(df).repartition(4), n_iter=4)
    pd.testing.assert_frame_equal(got_ones, want_unweighted)

    got = pagerank(dsw, n_iter=3, weight_col="w")
    con = duckdb.connect()
    con.register("tt", dfw)
    ora = con.execute(
        pagerank_oracle_sql("SELECT subj, obj, w FROM tt", n_iter=3,
                            weighted=True)
    ).df()
    m = got.merge(ora, on="entity", suffixes=("_ray", "_sql"))
    assert len(m) == len(got) == len(ora)
    assert (m["rank_q_ray"] == m["rank_q_sql"]).all()


def test_pagerank_personalized(triples):
    """Seeded PageRank matches the seeded CTE oracle bit-for-bit; nodes
    unreachable from the seed hold rank 0; unknown seeds raise."""
    df, ds = triples
    seeds = ["n000", "n001"]
    got = pagerank(ds, n_iter=3, seeds=seeds)
    con = duckdb.connect()
    con.register("tt", df)
    ora = con.execute(
        pagerank_oracle_sql("SELECT subj, obj FROM tt", n_iter=3,
                            seeds=seeds)
    ).df()
    m = got.merge(ora, on="entity", suffixes=("_ray", "_sql"))
    assert len(m) == len(got) == len(ora)
    assert (m["rank_q_ray"] == m["rank_q_sql"]).all()
    # the isolated 2-cycle n058/n059 is unreachable from the seeds
    byent = got.set_index("entity")["rank_q"]
    assert byent["n058"] == byent["n059"] == 0
    assert byent["n000"] > 0
    with pytest.raises(ValueError):
        pagerank(ds, n_iter=2, seeds=["not_a_node"])


def test_hits_matches_sql_oracle(triples):
    """HITS hubs/authorities: quotient-norm integer recurrence matches
    the unrolled-CTE oracle bit-for-bit; the fan-out hub node scores a
    top hub value."""
    from recon_ray.functions.graph import hits, hits_oracle_sql

    df, ds = triples
    got = hits(ds, n_iter=4)
    con = duckdb.connect()
    con.register("tt", df)
    ora = con.execute(
        hits_oracle_sql("SELECT subj, obj FROM tt", n_iter=4)
    ).df()
    m = got.merge(ora, on="entity", suffixes=("_ray", "_sql"))
    assert len(m) == len(got) == len(ora)
    assert (m["hub_q_ray"] == m["hub_q_sql"]).all()
    assert (m["auth_q_ray"] == m["auth_q_sql"]).all()
    byent = got.set_index("entity")
    # n000 has 30 extra fan-out edges: top-3 hub score
    assert (byent["hub_q"] >= byent.loc["n000", "hub_q"]).sum() <= 3


def test_hits_empty():
    from recon_ray.functions.graph import hits

    out = hits(rd.from_pandas(pd.DataFrame({"subj": [], "obj": []})))
    assert len(out) == 0 and list(out.columns) == ["entity", "hub_q", "auth_q"]


def test_hits_weighted(triples):
    """Weighted HITS: all-ones weights reproduce unweighted bit-for-bit;
    real weights match the weighted CTE oracle exactly."""
    from recon_ray.functions.graph import hits, hits_oracle_sql

    df, _ = triples
    dfw = df.copy()
    rng = np.random.RandomState(7)
    dfw["w"] = rng.randint(1, 6, len(dfw)).astype("int64")

    ones = dfw.assign(w=1)
    got_ones = hits(rd.from_pandas(ones).repartition(4), n_iter=3,
                    weight_col="w")
    want_unw = hits(rd.from_pandas(df).repartition(4), n_iter=3)
    pd.testing.assert_frame_equal(got_ones, want_unw)

    got = hits(rd.from_pandas(dfw).repartition(5), n_iter=3, weight_col="w")
    con = duckdb.connect()
    con.register("tt", dfw)
    ora = con.execute(
        hits_oracle_sql("SELECT subj, obj, w FROM tt", n_iter=3,
                        weighted=True)
    ).df()
    m = got.merge(ora, on="entity", suffixes=("_ray", "_sql"))
    assert len(m) == len(got) == len(ora)
    assert (m["hub_q_ray"] == m["hub_q_sql"]).all()
    assert (m["auth_q_ray"] == m["auth_q_sql"]).all()


def test_topo_levels_hand_pinned(ray_session):
    """Chain, diamond, cycle, downstream-of-cycle, self-loop — each
    shape's level hand-derived; the unrolled-CTE oracle must agree on
    the identical edge list."""
    from recon_ray.functions.graph import (topo_levels,
                                           topo_levels_oracle_sql)

    edges = pd.DataFrame({
        "subj": ["a", "b", "a", "c", "d",   # chain a→b→d, diamond a→c→d
                 "x", "y",                   # cycle x→y→x
                 "y",                        # z is downstream of the cycle
                 "s"],                       # self-loop s→s
        "obj": ["b", "d", "c", "d", "e",
                "y", "x",
                "z",
                "s"],
    })
    got = topo_levels(rd.from_pandas(edges).repartition(3), n_rounds=8)
    want = {
        "a": 0, "b": 1, "c": 1, "d": 2, "e": 3,   # longest path wins
        "x": -1, "y": -1, "z": -1, "s": -1,       # cycle + downstream
    }
    assert dict(zip(got["entity"], got["level"])) == want
    con = duckdb.connect()
    con.register("edges", edges)
    ora = con.execute(topo_levels_oracle_sql(
        "SELECT subj, obj FROM edges", n_rounds=8)).df()
    assert got["entity"].tolist() == ora["entity"].tolist()
    assert got["level"].tolist() == ora["level"].tolist()


def test_topo_levels_matches_oracle_random(triples, ray_session):
    """Random multigraph (hubs, sinks, a 2-cycle): bit-parity with the
    unrolled-CTE oracle at the same fixed round count."""
    from recon_ray.functions.graph import (topo_levels,
                                           topo_levels_oracle_sql)

    df, ds = triples
    df = df[["subj", "obj"]]
    got = topo_levels(ds, n_rounds=16)
    con = duckdb.connect()
    con.register("edges", df)
    ora = con.execute(topo_levels_oracle_sql(
        "SELECT subj, obj FROM edges", n_rounds=16)).df()
    assert got["entity"].tolist() == ora["entity"].tolist()
    assert got["level"].tolist() == ora["level"].tolist()


@pytest.mark.parametrize("edges", ["empty", "self_loops"])
def test_graph_loops_on_empty_and_self_loop_input(edges):
    """No edges, or only self-loops: each loop keeps its columns and
    dtypes. Self-loops are no undirected edges (k-core and communities
    are empty) but are nodes of the component and topological graphs
    (each its own component; each on a cycle, so level -1)."""
    from recon_ray.functions.graph import (kcore, label_propagation,
                                           topo_levels)

    if edges == "empty":
        df = pd.DataFrame({"subj": pd.Series([], dtype=object),
                           "obj": pd.Series([], dtype=object)})
    else:
        df = pd.DataFrame({"subj": ["a", "b"], "obj": ["a", "b"]})
    ds = rd.from_pandas(df)
    n_nodes = len(set(df["subj"]))
    cases = [
        (kcore(ds), {"entity": "object", "core_degree": "int64"}, 0),
        (label_propagation(ds),
         {"entity": "object", "community": "object"}, 0),
        (graph_components(ds),
         {"entity": "object", "component": "object"}, n_nodes),
        (topo_levels(ds), {"entity": "object", "level": "int64"}, n_nodes),
    ]
    for got, dtypes, n_rows in cases:
        assert got.dtypes.astype(str).to_dict() == dtypes
        assert len(got) == n_rows
    if edges == "self_loops":
        assert cases[2][0]["component"].tolist() == ["a", "b"]
        assert cases[3][0]["level"].tolist() == [-1, -1]


def test_graph_round_loops_start_no_ray_data_execution(monkeypatch):
    """The iterative loops run their rounds as plain tasks over the edge
    index: one round and many rounds start the same number of Ray Data
    executions (components: a 2-node chain converges at once, a 40-node
    chain takes ~40 rounds)."""
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    from recon_ray.functions.graph import (kcore, label_propagation,
                                           topo_levels)

    calls = []
    real = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)

    def chain(n):
        names = [f"c{i:02d}" for i in range(n + 1)]
        return rd.from_pandas(pd.DataFrame(
            {"subj": names[:-1], "obj": names[1:]})).repartition(3)

    def executions(fn, ds, **kw):
        calls.clear()
        fn(ds, **kw)
        return len(calls)

    long = chain(40)
    for fn, arg in ((kcore, "n_rounds"), (topo_levels, "n_rounds"),
                    (label_propagation, "n_rounds")):
        one = executions(fn, long, **{arg: 1})
        assert one == executions(fn, long, **{arg: 40}), fn.__name__
    assert (executions(graph_components, chain(1))
            == executions(graph_components, long))
