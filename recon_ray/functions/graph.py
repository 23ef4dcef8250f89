"""Graph analytics over the materialized triple table.

The north star's KG tier ends in a "sort-based graph materialize into
Parquet triple tables" — these operators are what a consumer of that
graph runs next: entity degree profiles, PageRank centrality, and
connected components over the (subj, obj) entity graph. The reference
(kabirkhan/recon) has no graph module; the aggregate *shape* follows its
stats utilities (recon/stats.py:24-63 get_ner_stats — per-key counts
over an exploded column), re-expressed as combiner-first Ray aggregates.

Every iterative loop (PageRank, HITS, BFS, Bellman-Ford, components,
k-core, topological levels, label propagation) runs over ONE edge index
(:func:`edge_index`): the sorted node array plus int64 ``(src, dst, w)``
node-index arrays per block, built once and kept in the object store.
Each round is one task per edge block against a broadcast node-sized
vector, merged order-free on the driver (sum / min / OR); no round
starts a Ray Data execution. The undirected operators index the
canonical ``u < v`` simple edges of :func:`_undirected_edges`.

Determinism contract (same as functions/similarity.kmeans): every
iterative quantity is INTEGER fixed-point, so results are bit-identical
under any Ray block order/batching — and exactly reproducible by a SQL
oracle doing the same integer arithmetic.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data.aggregate import Sum

__all__ = ["degree_table", "edge_index", "pagerank", "pagerank_oracle_sql",
           "label_propagation", "lpa_oracle_sql",
           "graph_components", "triangle_stats", "bfs_levels",
           "link_prediction", "link_prediction_oracle_sql",
           "kcore", "kcore_oracle_sql",
           "cheapest_paths", "cheapest_paths_oracle_sql"]


def _sum_partials(partials_ds, key, val_cols: list[str]) -> pd.DataFrame:
    """Merge per-batch partial-sum rows on the driver. The partial table
    is key-cardinality-sized (value_counts per batch, never raw rows),
    and every caller consumes the grouped result on the driver anyway —
    while Ray's sort-based groupby costs ~45 s on a 300k-row string-keyed
    partial table (measured, sf0.1 call graph degree pass), this merge is
    milliseconds and exact."""
    parts = partials_ds.to_pandas()
    keys = [key] if isinstance(key, str) else list(key)
    if parts.empty:
        return pd.DataFrame(
            {**{k: pd.Series([], dtype=object) for k in keys},
             **{v: pd.Series([], dtype="int64") for v in val_cols}})
    return parts.groupby(keys, as_index=False, sort=False)[val_cols].sum()


def degree_table(triples_ds, subj_col: str = "subj", obj_col: str = "obj") -> pd.DataFrame:
    """Per-entity out/in/total degree of the directed multigraph whose
    edges are the triple rows. Combiner-first: each batch emits one
    partial-count row per locally-distinct entity (value_counts, no
    Python loop); the entity-sized partials merge on the driver
    (_sum_partials)."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        od = batch[subj_col].value_counts()
        idg = batch[obj_col].value_counts()
        out = pd.DataFrame({"__out": od, "__in": idg}).fillna(0)
        out.index.name = "entity"
        return out.reset_index()

    merged = _sum_partials(
        triples_ds.map_batches(partial, batch_format="pandas"),
        "entity", ["__out", "__in"],
    ).rename(columns={"__out": "out_degree", "__in": "in_degree"})
    merged["out_degree"] = merged["out_degree"].astype("int64")
    merged["in_degree"] = merged["in_degree"].astype("int64")
    merged["degree"] = merged["out_degree"] + merged["in_degree"]
    return merged.sort_values("entity").reset_index(drop=True)


# --------------------------------------------------------------------------
# The edge index behind every iterative loop
# --------------------------------------------------------------------------


def edge_index(triples_ds, subj_col: str = "subj", obj_col: str = "obj",
               weight_col: Optional[str] = None) -> tuple[np.ndarray, list]:
    """Index the edge rows ONCE for the task rounds of an iterative graph
    loop → ``(nodes, idx_refs)``: ``nodes`` is the sorted array of
    distinct endpoints (so index order is name order), ``idx_refs`` one
    object-store ref per non-empty block, each holding int64 ``(src,
    dst, w)`` node-index arrays (``w`` all ones when unweighted). Every
    later round is one task per ref plus a node-sized driver merge; no
    round starts a Ray Data execution."""
    sel = [subj_col, obj_col] + ([weight_col] if weight_col else [])
    refs = triples_ds.select_columns(sel).materialize().to_arrow_refs()
    parts = ray.get([_block_nodes.remote(b, subj_col, obj_col) for b in refs])
    refs = [b for b, p in zip(refs, parts) if len(p)]
    if not refs:
        return np.array([], dtype=object), []
    nodes = np.unique(np.concatenate([p for p in parts if len(p)]))
    nodes_ref = ray.put(pa.array(nodes))
    return nodes, [_index_block.remote(b, nodes_ref, subj_col, obj_col,
                                       weight_col) for b in refs]


@ray.remote
def _block_nodes(block: pa.Table, subj_col: str, obj_col: str) -> np.ndarray:
    """One edge block's distinct endpoints."""
    if not len(block):
        # Ray's empty blocks can drop their columns, and one that skipped
        # an Arrow UDF stays a pandas frame that to_arrow_refs passes on
        return np.array([], dtype=object)
    ends = pa.chunked_array(block.column(subj_col).chunks
                            + block.column(obj_col).chunks,
                            block.schema.field(subj_col).type)
    return pc.unique(ends).to_numpy(zero_copy_only=False)


@ray.remote
def _index_block(block: pa.Table, nodes: pa.Array, subj_col: str,
                 obj_col: str, weight_col: Optional[str]):
    """One edge block → its int64 ``(src, dst, w)`` node-index arrays."""
    src, dst = (pc.index_in(block.column(c), value_set=nodes).to_numpy()
                .astype(np.int64) for c in (subj_col, obj_col))
    w = (block.column(weight_col).to_numpy().astype(np.int64)
         if weight_col is not None else np.ones(len(src), np.int64))
    return src, dst, w


def _round(task, idx_refs: list, *args) -> list:
    """One round of an iterative loop: ``task`` over every edge-index
    block, its partials gathered for the driver merge."""
    return ray.get([task.remote(i, *args) for i in idx_refs])


def _undirected_edges(triples_ds, subj_col: str, obj_col: str):
    """The canonical undirected simple graph as a materialized ``(u, v)``
    Dataset: ``u < v`` (self-loops dropped), each pair once — a per-batch
    Arrow normalize, then the bucketed global ``distinct``."""
    from recon_ray.functions.relational import distinct

    def canon(t: pa.Table) -> pa.Table:
        s, o = t.column(subj_col), t.column(obj_col)
        lt = pc.less(s, o)
        out = pa.table({"u": pc.if_else(lt, s, o), "v": pc.if_else(lt, o, s)})
        return out.filter(pc.not_equal(s, o))

    return distinct(
        triples_ds.map_batches(
            # explicit batch_size COALESCES upstream micro-blocks (a
            # filtered pipeline output arrives as many tiny blocks;
            # measured 57.5 s -> 3.4 s on the sf0.1 call graph census)
            canon, batch_format="pyarrow", batch_size=131072,
        ), ["u", "v"]
    ).materialize()


# --------------------------------------------------------------------------
# PageRank — integer fixed-point, exactly SQL-reproducible
# --------------------------------------------------------------------------
#
# Recurrence (all integer, floor division; damping d = dp/100):
#   r0[v]   = SCALE
#   share_i[u] = (r_i[u] * dp) // (100 * outdeg[u])          (outdeg>0)
#   dang_i     = sum over outdeg==0 of (r_i[u] * dp) // 100
#   r_{i+1}[v] = (T_i * (100-dp)) // (100 * N)                (teleport)
#              + dang_i // N
#              + sum over edges (u,v) of share_i[u]
#   with T_i = sum(r_i), N = |nodes|.
# Floors leak a little mass per step — irrelevant for ranking, and the
# price of bit-exact order-free reduction (int64 partial sums commute;
# float ones don't). Overflow headroom: with SCALE=2^36 total mass is
# N·2^36; ·dp(=85) stays under 2^63 for N up to ~1.5e9 nodes.

_SCALE = 2 ** 36


@ray.remote
def _outdeg_partial(idx_pair, n):
    src, _, w = idx_pair
    return np.bincount(src, weights=w, minlength=n).astype(np.int64)


@ray.remote
def _contrib_partial(idx_pair, share_ref, n):
    src, dst, w = idx_pair
    out = np.zeros(n, np.int64)
    # per-edge contribution = per-unit-weight share × edge weight
    np.add.at(out, dst, share_ref[src] * w)
    return out


def pagerank(
    triples_ds,
    n_iter: int = 5,
    damping_pct: int = 85,
    scale: int = _SCALE,
    subj_col: str = "subj",
    obj_col: str = "obj",
    weight_col: Optional[str] = None,
    seeds: Optional[list] = None,
) -> pd.DataFrame:
    """Distributed PageRank over the triple multigraph, as task rounds
    over ONCE-materialized edge-index blocks (the kmeans pattern:
    iterative algorithms must not pay executor startup per pass).

    Per iteration: the driver broadcasts the per-node share vector
    (``ray.put`` once); each edge block task scatter-adds int64 partial
    contribution vectors; the driver reduces. The corpus never collects —
    only O(N_nodes) vectors live on the driver. At 100-TB node counts the
    rank vector itself outgrows the driver; the upgrade path (same loop)
    is rank as a Dataset hash-joined onto edges with a groupby(dst).sum,
    exactly the swap documented on dedup.connected_components.

    ``weight_col`` (optional, integer — e.g. the canonical triple's
    n_mentions): mass leaves a node proportional to edge weight — the
    per-unit-weight share is (r·dp) // (100·W_u) with W_u the node's
    total outgoing weight, each edge contributing share × w. With all
    weights 1 this is EXACTLY the unweighted recurrence.

    ``seeds`` (optional): PERSONALIZED PageRank — teleport and dangling
    mass return only to the seed entities (split by floor division over
    the seed count) and r0 starts with all mass on the seeds, so rank_q
    measures relatedness TO the seed set instead of global centrality.
    Seeds absent from the graph raise.

    Returns (entity, rank_q) with rank_q the int64 fixed-point rank —
    bit-identical to the unrolled SQL from :func:`pagerank_oracle_sql`.
    """
    nodes, idx_refs = edge_index(triples_ds, subj_col, obj_col, weight_col)
    n = len(nodes)
    if not n:
        return pd.DataFrame({"entity": nodes, "rank_q": np.zeros(0, np.int64)})
    outdeg = sum(_round(_outdeg_partial, idx_refs, n))
    dangling = outdeg == 0
    dp = int(damping_pct)
    if seeds is None:
        seed_mask = None
        r = np.full(n, int(scale), np.int64)
    else:
        si = np.searchsorted(nodes, np.asarray(sorted(set(seeds))))
        bad = [s for j, s in enumerate(sorted(set(seeds)))
               if si[j] >= n or nodes[si[j]] != s]
        if bad:
            raise ValueError(f"seeds not in graph: {bad}")
        seed_mask = np.zeros(n, dtype=bool)
        seed_mask[si] = True
        n_seeds = int(seed_mask.sum())
        r = np.where(seed_mask, int(scale), 0).astype(np.int64)
    for _ in range(n_iter):
        t_total = int(r.sum())
        share = np.zeros(n, np.int64)
        nz = ~dangling
        share[nz] = (r[nz] * dp) // (100 * outdeg[nz])
        dang = int(((r[dangling] * dp) // 100).sum())
        share_ref = ray.put(share)
        if seed_mask is None:
            base = (t_total * (100 - dp)) // (100 * n) + dang // n
            nxt = np.full(n, base, np.int64)
        else:
            base = (
                (t_total * (100 - dp)) // (100 * n_seeds)
                + dang // n_seeds
            )
            nxt = np.where(seed_mask, base, 0).astype(np.int64)
        r = nxt + sum(_round(_contrib_partial, idx_refs, share_ref, n))
    return pd.DataFrame({"entity": nodes, "rank_q": r})


def pagerank_oracle_sql(
    edges_select: str,
    n_iter: int = 5,
    damping_pct: int = 85,
    scale: int = _SCALE,
    weighted: bool = False,
    seeds: Optional[list] = None,
) -> str:
    """Unrolled-CTE DuckDB oracle for :func:`pagerank` — one CTE per
    iteration doing the identical integer recurrence (DuckDB ``//`` on
    BIGINT is integer division; sums promote to HUGEINT, cast back at the
    end). ``edges_select`` must yield columns (subj, obj) — plus ``w``
    (integer edge weight) when ``weighted`` is set, which switches the
    out-degree to sum(w) and each edge's contribution to the
    per-unit-weight share × w (exactly :func:`pagerank`'s rule)."""
    dp = int(damping_pct)
    outd = (
        "outd AS (SELECT subj AS entity, sum(w)::BIGINT AS d FROM e GROUP BY subj)"
        if weighted else
        "outd AS (SELECT subj AS entity, count(*)::BIGINT AS d FROM e GROUP BY subj)"
    )
    per_edge = (
        f"((p.r * {dp}) // (100 * o.d)) * e.w" if weighted
        else f"(p.r * {dp}) // (100 * o.d)"
    )
    ctes = [
        f"e AS ({edges_select})",
        "nodes AS (SELECT DISTINCT entity FROM "
        "(SELECT subj AS entity FROM e UNION ALL SELECT obj AS entity FROM e))",
        "nn AS (SELECT count(*)::BIGINT AS n FROM nodes)",
        outd,
    ]
    if seeds is None:
        ctes.append(
            f"r0 AS (SELECT entity, CAST({int(scale)} AS BIGINT) AS r "
            f"FROM nodes)"
        )
        tele_n = "(SELECT n FROM nn)"
        is_seed = None
    else:
        lits = ", ".join(
            "'" + str(s).replace("'", "''") + "'" for s in sorted(set(seeds))
        )
        ctes.append(f"seeds AS (SELECT unnest([{lits}]) AS entity)")
        ctes.append("ns AS (SELECT count(*)::BIGINT AS n FROM seeds)")
        ctes.append(
            f"r0 AS (SELECT n.entity, CAST(CASE WHEN n.entity IN "
            f"(SELECT entity FROM seeds) THEN {int(scale)} ELSE 0 END "
            f"AS BIGINT) AS r FROM nodes n)"
        )
        tele_n = "(SELECT n FROM ns)"
        is_seed = "n.entity IN (SELECT entity FROM seeds)"
    for i in range(1, n_iter + 1):
        p = f"r{i - 1}"
        base = (
            f"((SELECT sum(r) FROM {p}) * {100 - dp}) // (100 * {tele_n})"
            f" + (SELECT coalesce(sum((p.r * {dp}) // 100), 0) FROM {p} p"
            f"    LEFT JOIN outd o ON o.entity = p.entity WHERE o.d IS NULL)"
            f"   // {tele_n}"
        )
        if is_seed is not None:
            base = f"CASE WHEN {is_seed} THEN {base} ELSE 0 END"
        ctes.append(
            f"r{i} AS (SELECT n.entity, CAST("
            f"{base}"
            f" + coalesce(c.contrib, 0) AS BIGINT) AS r"
            f" FROM nodes n LEFT JOIN ("
            f"   SELECT e.obj AS entity, sum({per_edge}) AS contrib"
            f"   FROM e JOIN {p} p ON p.entity = e.subj"
            f"   JOIN outd o ON o.entity = e.subj GROUP BY e.obj"
            f" ) c ON c.entity = n.entity)"
        )
    return (
        "WITH " + ",\n".join(ctes)
        + f"\nSELECT entity, r AS rank_q FROM r{n_iter} ORDER BY entity"
    )


def graph_components(triples_ds, subj_col: str = "subj", obj_col: str = "obj") -> pd.DataFrame:
    """Connected components of the UNDIRECTED entity graph, reusing the
    min-label rounds of dedup.connected_components (one task per edge
    block of the once-built index + a node-sized driver min per round;
    converges in O(diameter) — KG graphs are hub-shaped, so a handful).
    Labels are lexicographic-min entity names: deterministic, order-free.

    Returns (entity, component)."""
    from recon_ray.functions.dedup import connected_components

    edges = triples_ds.map_batches(
        lambda t: pa.table({"a": t.column(subj_col), "b": t.column(obj_col)}),
        batch_format="pyarrow", zero_copy_batch=True)
    out = connected_components(edges)
    out = out.rename(columns={"doc_id": "entity", "cluster": "component"})
    return out.sort_values("entity").reset_index(drop=True)


@ray.remote
def _label_votes(idx_pair, label_ref, n):
    """One block's LPA votes: distinct ``node·n + label[neighbor]`` keys,
    both edge directions, with their counts (merge = sum per key)."""
    src, dst, _w = idx_pair
    keys = np.concatenate([src * n + label_ref[dst], dst * n + label_ref[src]])
    return np.unique(keys, return_counts=True)


def label_propagation(triples_ds, subj_col: str = "subj",
                      obj_col: str = "obj",
                      n_rounds: int = 4) -> pd.DataFrame:
    """Community detection by SYNCHRONOUS label propagation (Raghavan
    et al. 2007, made deterministic): over the canonical undirected
    simple graph, every node starts labeled with its own name; each
    round, every node simultaneously takes the most frequent label among
    its neighbors, ties to the lexicographic-min label. Fixed
    ``n_rounds`` with an early stop only at an exact fixed point — both
    make the result layout- and order-invariant (async LPA's
    visit-order dependence is exactly what's being avoided), and the
    same unrolled rule is SQL-replayable (:func:`lpa_oracle_sql`).

    Distributed shape: the pagerank pattern over the edge index of the
    undirected edges. Labels are node indices, and index order is name
    order, so the min index is the min name. Per round the label vector
    is broadcast once and each edge block task emits its distinct
    (node, neighbor label) votes with counts; the driver sums them and
    keeps each node's max count, ties to the smallest label. Returns
    (entity, community)."""
    nodes, idx_refs = edge_index(
        _undirected_edges(triples_ds, subj_col, obj_col), "u", "v")
    n = len(nodes)
    label = np.arange(n)
    for _ in range(n_rounds if n else 0):
        parts = _round(_label_votes, idx_refs, ray.put(label), n)
        keys, inv = np.unique(np.concatenate([k for k, _ in parts]),
                              return_inverse=True)
        votes = np.bincount(inv, weights=np.concatenate([c for _, c in parts]))
        node, lbl = np.divmod(keys, n)
        best = np.lexsort((lbl, -votes, node))
        best = best[np.r_[True, node[best][1:] != node[best][:-1]]]
        new = label.copy()
        new[node[best]] = lbl[best]
        if np.array_equal(new, label):  # exact fixed point: further rounds no-op
            break
        label = new
    return pd.DataFrame({"entity": nodes, "community": nodes[label]})


def lpa_oracle_sql(edges_sql: str, n_rounds: int = 4) -> str:
    """Unrolled-CTE DuckDB replay of :func:`label_propagation`: the same
    canonical undirected simple edges, the same synchronous
    most-frequent-neighbor-label-with-min-tie-break update, the same
    fixed round count (a fixed point on the Ray side makes extra SQL
    rounds no-ops, so early stopping cannot diverge)."""
    ctes = [
        f"raw AS MATERIALIZED (SELECT * FROM ({edges_sql}) t(a, b))",
        "und AS MATERIALIZED ("
        " SELECT least(a, b) AS u, greatest(a, b) AS v FROM raw"
        " WHERE a <> b GROUP BY 1, 2)",
        "eb AS MATERIALIZED ("
        " SELECT u AS node, v AS nbr FROM und"
        " UNION ALL SELECT v, u FROM und)",
        "l0 AS MATERIALIZED ("
        " SELECT DISTINCT node, node AS lbl FROM eb)",
    ]
    for r in range(1, n_rounds + 1):
        ctes.append(
            f"c{r} AS MATERIALIZED ("
            f" SELECT eb.node, l.lbl, count(*) AS c"
            f" FROM eb JOIN l{r - 1} l ON l.node = eb.nbr"
            f" GROUP BY 1, 2)"
        )
        ctes.append(
            f"l{r} AS MATERIALIZED ("
            f" SELECT node, lbl FROM ("
            f"  SELECT node, lbl, row_number() OVER ("
            f"   PARTITION BY node ORDER BY c DESC, lbl) AS rn"
            f"  FROM c{r}) WHERE rn = 1)"
        )
    return (
        "WITH " + ",\n".join(ctes)
        + f"\nSELECT node AS entity, lbl AS community FROM l{n_rounds}"
        " ORDER BY entity"
    )


def triangle_stats(triples_ds, subj_col: str = "subj",
                   obj_col: str = "obj") -> pd.DataFrame:
    """Undirected triangle census of the entity graph — one row:
    (n_nodes, n_edges, n_wedges, n_triangles, global_clustering).

    Distributed shape (the standard two-join triangle count, e.g.
    Suri & Vassilvitskii 2011 "Counting Triangles and the Curse of the
    Last Reducer"):

    1. canonical edge table: per-batch (u,v) normalize with u < v +
       local dedup (combiner), then the bucketed global `distinct` —
       self-loops dropped, multi-edges collapsed; materialized ONCE
       because three downstream consumers read it;
    2. wedges keyed at the triangle's MIN vertex: edges self-joined on
       ``u`` (one hash shuffle) and filtered to v1 < v2, so each
       triangle {x<y<z} is generated exactly once (center x);
    3. closure: wedge (y,z) hash-joined against the edge table on the
       composite key (second shuffle); the match count IS n_triangles;
    4. n_wedges = sum C(d,2) from the total-degree table (combiner
       groupby, no join) — the denominator of the global clustering
       coefficient 3·T / W (one IEEE division, oracle-exact).

    Never a driver loop; the only driver-sized object is the one-row
    result. Skew note: a hub node h makes step 2 emit C(d_h, 2) wedges —
    at web scale cap or sample hub wedges; here the census is exact."""
    edges = _undirected_edges(triples_ds, subj_col, obj_col)
    n_edges = edges.count()

    # total degree per node -> n_nodes, n_wedges (combiner pass)
    def deg_partial(b: pd.DataFrame) -> pd.DataFrame:
        c = pd.concat([b["u"], b["v"]]).value_counts()
        return pd.DataFrame({"node": c.index, "d": c.to_numpy(np.int64)})

    deg = _sum_partials(
        edges.map_batches(deg_partial, batch_format="pandas"),
        "node", ["d"],
    )
    n_nodes = len(deg)
    if n_nodes == 0:
        # fully self-loop/empty input: the canonical edge table is empty
        # and Ray's empty frames drop their columns — short-circuit
        return pd.DataFrame(
            {"n_nodes": [0], "n_edges": [0], "n_wedges": [0],
             "n_triangles": [0], "global_clustering": [0.0]}
        )
    d = deg["d"].to_numpy(np.int64)
    n_wedges = int((d * (d - 1) // 2).sum())

    # --- wedges + closure without Dataset.join -------------------------
    # ray 2.49's hash-join aggregator chokes on the zero-column empty
    # blocks that map_batches emits for 0-row inputs; the bucketed-shuffle
    # primitives (same machinery as relational._set_op) are robust to
    # them and need one shuffle per stage anyway.
    #
    # Hub defense (the "curse of the last reducer"): wedges are centered
    # at each triangle's MIN-DEGREE vertex, not its min-id vertex. Each
    # undirected edge is oriented low-rank → high-rank (rank = (degree,
    # node), a total order), and only OUT-neighbor pairs form wedges —
    # so a degree-d hub contributes C(outdeg, 2) with outdeg bounded by
    # O(√m) instead of C(d, 2): total wedge work O(m^1.5) worst case
    # (Suri & Vassilvitskii 2011 §3). Measured on the sf0.1 call graph
    # (174k edges, hubs ~2.4k): 81.5 s → see BASELINE.md. The rank map
    # is node-count-sized and broadcast (the degree table is already
    # driver-resident here); at larger scale ship it as a shuffle join.
    from recon_ray.functions.relational import bucketed_group_apply

    rank_order = deg.sort_values(["d", "node"], kind="mergesort")
    rank = dict(zip(rank_order["node"], range(len(rank_order))))
    rank_ref = ray.put(rank)

    def orient(b: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(rank_ref) if isinstance(rank_ref, ray.ObjectRef) \
            else rank_ref
        ru = b["u"].map(r)
        rv = b["v"].map(r)
        low_first = ru < rv
        return pd.DataFrame({
            "c": b["u"].where(low_first, b["v"]),
            "n": b["v"].where(low_first, b["u"]),
        })

    oriented = edges.map_batches(orient, batch_format="pandas")

    def wedge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # co-centered OUT-neighbor pairs, canonicalized a < b by node id
        # to match the u < v edge table: each triangle appears exactly
        # once, at its min-rank vertex (the only vertex with both
        # triangle edges outgoing)
        m = g.merge(g, on="c")
        m = m[m["n_x"] < m["n_y"]]
        return pd.DataFrame({"a": m["n_x"], "b": m["n_y"]})

    wedges = bucketed_group_apply(oriented, "c", wedge_bucket)
    tag_w = wedges.map_batches(
        lambda b: b.assign(side=np.int64(0)), batch_format="pandas"
    )
    tag_e = edges.map_batches(
        lambda b: pd.DataFrame(
            {"a": b["u"], "b": b["v"], "side": np.int64(1)}
        ),
        batch_format="pandas",
    )

    def close_bucket(g: pd.DataFrame) -> pd.DataFrame:
        w = g[g["side"] == 0][["a", "b"]]
        e = g[g["side"] == 1][["a", "b"]].drop_duplicates()
        return pd.DataFrame({"n": [int(len(w.merge(e, on=["a", "b"])))]})

    counts = bucketed_group_apply(
        tag_w.union(tag_e), ["a", "b"], close_bucket
    ).to_pandas()
    n_triangles = int(counts["n"].sum()) if len(counts) else 0
    clustering = (3.0 * n_triangles / n_wedges) if n_wedges else 0.0
    return pd.DataFrame(
        {"n_nodes": [n_nodes], "n_edges": [n_edges],
         "n_wedges": [n_wedges], "n_triangles": [n_triangles],
         "global_clustering": [clustering]}
    )


@ray.remote
def _frontier_step(idx_pair, frontier_ref, n):
    """One BFS expansion over one edge block: dst nodes whose src is in
    the frontier, as a dense bool vector (merge = OR, order-free)."""
    src, dst, _w = idx_pair
    hit = frontier_ref[src]
    out = np.zeros(n, dtype=bool)
    out[dst[hit]] = True
    return out


def _reach(idx_refs: list, frontier: np.ndarray) -> np.ndarray:
    """One round: the nodes with an in-edge from a ``frontier`` node."""
    return functools.reduce(np.logical_or, _round(
        _frontier_step, idx_refs, ray.put(frontier), len(frontier)),
        np.zeros(len(frontier), dtype=bool))


@ray.remote
def _min_src(idx_pair) -> int:
    """One (non-empty) edge block's smallest source index."""
    return int(idx_pair[0].min())


def _root_index(nodes, idx_refs: list, root: Optional[str]) -> int:
    """``root``'s node index; ``None`` picks the lexicographic-min
    subject (the smallest source index: index order is name order)."""
    if root is None:
        return min(_round(_min_src, idx_refs))
    ri = int(np.searchsorted(nodes, root))
    if ri >= len(nodes) or nodes[ri] != root:
        raise ValueError(f"root {root!r} not in graph")
    return ri


def bfs_levels(
    triples_ds,
    root: Optional[str] = None,
    max_depth: int = 20,
    subj_col: str = "subj",
    obj_col: str = "obj",
) -> pd.DataFrame:
    """Single-source shortest-path levels (directed BFS) over the triple
    graph — (entity, level) for every node reachable from ``root``
    within ``max_depth`` hops. ``root=None`` picks the lexicographic-min
    subject (deterministic, SQL-replicable).

    Distributed shape (the pagerank pattern): edge blocks are indexed
    ONCE against the broadcast sorted node array and stay in the object
    store; each BFS round broadcasts the frontier bool vector
    (``ray.put`` once) and every edge block task emits the nodes it
    newly reaches (dense bool, merged by OR — order-free, exact). Rounds
    = graph diameter (bounded by ``max_depth``); per-round driver state
    is O(N_nodes) bits, never the edges. Levels are exact integers, so
    the recursive-CTE SQL oracle (min level per reached node, depth
    capped) reproduces them bit-for-bit."""
    nodes, idx_refs = edge_index(triples_ds, subj_col, obj_col)
    n = len(nodes)
    level = np.full(n, -1, dtype=np.int64)
    if n:
        level[_root_index(nodes, idx_refs, root)] = 0
    for depth in range(1, max_depth + 1):
        frontier = _reach(idx_refs, level == depth - 1) & (level < 0)
        if not frontier.any():
            break
        level[frontier] = depth
    mask = level >= 0
    return (
        pd.DataFrame({"entity": nodes[mask], "level": level[mask]})
        .sort_values("entity")
        .reset_index(drop=True)
    )


@ray.remote
def _hits_pass(idx_pair, vec_ref, n, direction):
    """One HITS half-step over one edge block: scatter-add the broadcast
    vector along edges, scaled by edge weight ('auth': h[src]·w -> dst;
    'hub': a[dst]·w -> src). int64 partials, merge = sum (order-free);
    unweighted edges carry w = 1."""
    src, dst, w = idx_pair
    out = np.zeros(n, np.int64)
    if direction == "auth":
        np.add.at(out, dst, vec_ref[src] * w)
    else:
        np.add.at(out, src, vec_ref[dst] * w)
    return out


_BF_INF = np.int64(2 ** 62)


@ray.remote
def _relax_step(idx_pair, dist_ref, n, inf):
    """One Bellman-Ford relaxation over one edge block: candidate
    distances dist[src] + w scattered to dst with minimum.at (merge =
    elementwise min — order-free, exact int64)."""
    src, dst, w = idx_pair
    d = dist_ref[src]
    ok = d < inf
    cand = np.full(n, inf, np.int64)
    np.minimum.at(cand, dst[ok], d[ok] + w[ok])
    return cand


def cheapest_paths(
    triples_ds,
    root: Optional[str] = None,
    n_rounds: int = 8,
    subj_col: str = "subj",
    obj_col: str = "obj",
    weight_col: Optional[str] = None,
) -> pd.DataFrame:
    """Single-source cheapest paths with positive integer edge weights
    (``weight_col``, default all-ones = hop count): ``n_rounds`` of
    Bellman-Ford relaxation, i.e. exact min-cost over all paths of at
    most ``n_rounds`` edges. Fixed rounds (not convergence-tested) keep
    the result a pure function the unrolled-CTE SQL oracle replays
    verbatim; the early exit below fires only at fixpoint, where extra
    rounds are no-ops both sides.

    Distributed shape: the pagerank/BFS pattern — edge blocks indexed
    once into the object store; per round the int64 distance vector is
    broadcast (ray.put) and each block task emits candidate minima,
    merged by elementwise min (commutative, exact). Driver state is
    O(N_nodes) ints; edges never leave the store.

    Returns (entity, cost) for nodes reachable within ``n_rounds``."""
    nodes, idx_refs = edge_index(triples_ds, subj_col, obj_col, weight_col)
    n = len(nodes)
    dist = np.full(n, _BF_INF, np.int64)
    if n:
        dist[_root_index(nodes, idx_refs, root)] = 0
    for _ in range(n_rounds):
        new = functools.reduce(np.minimum, _round(
            _relax_step, idx_refs, ray.put(dist), n, _BF_INF), dist)
        if np.array_equal(new, dist):
            break  # fixpoint — further rounds no-op (SQL ones too)
        dist = new
    mask = dist < _BF_INF
    return (
        pd.DataFrame({"entity": nodes[mask], "cost": dist[mask]})
        .sort_values("entity")
        .reset_index(drop=True)
    )


def cheapest_paths_oracle_sql(edges_select: str, root_select: str,
                              n_rounds: int = 8) -> str:
    """Unrolled-CTE DuckDB oracle for :func:`cheapest_paths` — one
    MATERIALIZED min-merge per relaxation round (a recursive CTE with
    UNION ALL would enumerate every path and explode on cyclic graphs;
    the per-round min table is node-sized like the Ray vector).
    ``edges_select`` must yield (subj, obj, w); ``root_select`` a
    one-value scalar subquery."""
    ctes = [
        f"e AS MATERIALIZED ({edges_select})",
        f"d0 AS MATERIALIZED (SELECT ({root_select}) AS entity, "
        f"0::BIGINT AS cost)",
    ]
    for r in range(1, n_rounds + 1):
        p = f"d{r - 1}"
        ctes.append(
            f"d{r} AS MATERIALIZED (SELECT entity, min(cost)::BIGINT AS cost "
            f"FROM (SELECT entity, cost FROM {p} "
            f"UNION ALL SELECT e.obj, d.cost + e.w FROM {p} d "
            f"JOIN e ON e.subj = d.entity) GROUP BY entity)"
        )
    return (
        "WITH " + ",\n".join(ctes)
        + f"\nSELECT entity, cost FROM d{n_rounds} ORDER BY entity"
    )


_HITS_SCALE = 2 ** 30


def hits(
    triples_ds,
    n_iter: int = 5,
    scale: int = _HITS_SCALE,
    subj_col: str = "subj",
    obj_col: str = "obj",
    weight_col: Optional[str] = None,
) -> pd.DataFrame:
    """HITS hubs & authorities (Kleinberg 1999) over the directed triple
    graph, integer fixed-point: a'_v = Σ h_u over in-edges, h'_u = Σ a_v
    over out-edges, each half-step renormalized by QUOTIENT norm —
    divide by max(total // (n·scale), 1) — so every quantity is an int64
    floor expression and the unrolled SQL from :func:`hits_oracle_sql`
    reproduces both vectors bit-for-bit under any block layout.

    Distributed shape: the pagerank pattern — edge blocks indexed once
    into the object store, per-round broadcast of the current vector,
    scatter-add partials merged on the driver (O(N_nodes) driver state).

    ``weight_col`` (optional int, e.g. n_mentions): each edge carries
    its weight into both half-steps (h·w into authorities, a·w into
    hubs) — all-ones weights reproduce the unweighted scores exactly.

    Returns (entity, hub_q, auth_q)."""
    nodes, idx_refs = edge_index(triples_ds, subj_col, obj_col, weight_col)
    n = len(nodes)
    if not n:
        return pd.DataFrame({"entity": nodes, "hub_q": np.zeros(0, np.int64),
                             "auth_q": np.zeros(0, np.int64)})
    mass = n * int(scale)
    h = np.full(n, int(scale), np.int64)
    a = np.zeros(n, np.int64)

    def _norm(v: np.ndarray) -> np.ndarray:
        t = int(v.sum())
        return v // max(t // mass, 1)

    for _ in range(n_iter):
        a = _norm(sum(_round(_hits_pass, idx_refs, ray.put(h), n, "auth")))
        h = _norm(sum(_round(_hits_pass, idx_refs, ray.put(a), n, "hub")))
    return pd.DataFrame({"entity": nodes, "hub_q": h, "auth_q": a})


@ray.remote
def _alive_degree(idx_pair, alive_ref, n):
    """One block's degree partial over the edges whose two ends are both
    alive (merge = sum)."""
    src, dst, _w = idx_pair
    both = alive_ref[src] & alive_ref[dst]
    return (np.bincount(src[both], minlength=n)
            + np.bincount(dst[both], minlength=n))


def kcore(triples_ds, k: int = 2, n_rounds: int = 16,
          subj_col: str = "subj", obj_col: str = "obj") -> pd.DataFrame:
    """k-core peeling over the UNDIRECTED distinct entity graph: run
    EXACTLY ``n_rounds`` rounds of "drop nodes with degree < k, drop
    their edges", then report the surviving (entity, core_degree)
    table. Fixing the round count (instead of testing convergence)
    makes the result a pure function of (edges, k, n_rounds) that the
    unrolled-CTE SQL oracle reproduces verbatim — converged or not —
    while 16 rounds is far past fixpoint for hub-shaped KG graphs
    (peeling depth grows with graph diameter, not size).

    Distributed shape: the pagerank pattern over the edge index of the
    undirected edges. The surviving edges are those whose two ends are
    alive, so a round is one degree task per edge block against the
    broadcast alive mask, summed on the driver; a node is present when
    its degree is > 0. Driver state is two node-sized vectors, the
    rank-vector budget; edges never leave the object store."""
    nodes, idx_refs = edge_index(
        _undirected_edges(triples_ds, subj_col, obj_col), "u", "v")
    n = len(nodes)
    alive = np.ones(n, dtype=bool)
    for r in range(n_rounds + 1):
        deg = sum(_round(_alive_degree, idx_refs, ray.put(alive), n),
                  np.zeros(n, np.int64))
        if r == n_rounds or not ((deg > 0) & (deg < k)).any():
            break  # the last round, or a fixpoint (further rounds are no-ops)
        alive = deg >= k
    present = deg > 0
    return pd.DataFrame({"entity": nodes[present], "core_degree": deg[present]})


def kcore_oracle_sql(edges_select: str, k: int = 2,
                     n_rounds: int = 16) -> str:
    """Unrolled-CTE DuckDB oracle for :func:`kcore` — the identical
    fixed-round peel (the early-exit in kcore fires only AT fixpoint,
    where extra SQL rounds are no-ops, so fixed unrolling still matches
    bit-for-bit). MATERIALIZED throughout: DuckDB inlines plain CTEs
    and multi-referenced peel rounds blow up exponentially otherwise."""
    ctes = [
        f"raw AS MATERIALIZED ({edges_select})",
        "e0 AS MATERIALIZED (SELECT DISTINCT least(subj, obj) AS u, "
        "greatest(subj, obj) AS v FROM raw WHERE subj <> obj)",
    ]
    for r in range(1, n_rounds + 1):
        p = f"e{r - 1}"
        ctes.append(
            f"d{r} AS MATERIALIZED (SELECT entity, count(*)::BIGINT AS d "
            f"FROM (SELECT u AS entity FROM {p} "
            f"UNION ALL SELECT v FROM {p}) GROUP BY entity)"
        )
        ctes.append(
            f"a{r} AS MATERIALIZED (SELECT entity FROM d{r} "
            f"WHERE d >= {int(k)})"
        )
        ctes.append(
            f"e{r} AS MATERIALIZED (SELECT u, v FROM {p} "
            f"WHERE u IN (SELECT entity FROM a{r}) "
            f"AND v IN (SELECT entity FROM a{r}))"
        )
    return (
        "WITH " + ",\n".join(ctes)
        + f"\nSELECT entity, count(*)::BIGINT AS core_degree FROM "
        f"(SELECT u AS entity FROM e{n_rounds} "
        f"UNION ALL SELECT v FROM e{n_rounds}) "
        f"GROUP BY entity ORDER BY entity"
    )


def topo_levels(triples_ds, n_rounds: int = 16,
                subj_col: str = "subj", obj_col: str = "obj"
                ) -> pd.DataFrame:
    """Kahn-style topological LEVELS + cycle detection over the
    DIRECTED distinct edge graph (dependency ordering of the import /
    call graph): round 0 resolves nodes with no incoming edges at
    level 0; each later round resolves nodes whose remaining in-edges
    all come from already-resolved nodes, so ``level`` is the longest
    path from any source. Runs EXACTLY ``n_rounds`` rounds (the early
    exit fires only at fixpoint, where extra rounds are no-ops);
    nodes still unresolved — on a cycle or downstream of one — report
    ``level = -1``. A pure function of (edges, n_rounds) that the
    unrolled-CTE SQL oracle reproduces verbatim.

    Distributed shape: BFS's reach round over the edge index of the
    directed edges (self-loops stay: they are cycles; repeated edges
    change nothing). Per round the unresolved mask is broadcast once and
    each edge block task marks the targets of edges whose source is
    unresolved (merge = OR); the unresolved nodes that no such edge
    reaches resolve at this round's level. Driver state is the
    node-sized level vector, pagerank's rank-vector budget."""
    nodes, idx_refs = edge_index(triples_ds, subj_col, obj_col)
    level = np.full(len(nodes), -1, dtype=np.int64)
    for r in range(n_rounds):
        newly = (level < 0) & ~_reach(idx_refs, level < 0)
        if not newly.any():
            break  # fixpoint: only cyclic/downstream nodes remain
        level[newly] = r
    return pd.DataFrame({"entity": nodes, "level": level})


def topo_levels_oracle_sql(edges_select: str,
                           n_rounds: int = 16) -> str:
    """Unrolled-CTE DuckDB oracle for :func:`topo_levels` — the
    identical fixed-round Kahn peel (extra rounds past fixpoint
    resolve nothing, matching the engine's early exit). MATERIALIZED
    throughout, like the other unrolled graph oracles."""
    ctes = [
        f"raw AS MATERIALIZED ({edges_select})",
        "e0 AS MATERIALIZED (SELECT DISTINCT subj AS s, obj AS o "
        "FROM raw)",
        "nodes AS MATERIALIZED (SELECT DISTINCT entity FROM "
        "(SELECT s AS entity FROM e0 UNION SELECT o FROM e0))",
        "l0 AS MATERIALIZED (SELECT entity FROM nodes WHERE entity "
        "NOT IN (SELECT o FROM e0))",
        "res0 AS MATERIALIZED (SELECT entity, 0 AS level FROM l0)",
    ]
    for r in range(1, n_rounds):
        p = r - 1
        ctes.append(
            f"e{r} AS MATERIALIZED (SELECT s, o FROM e{p} "
            f"WHERE s NOT IN (SELECT entity FROM l{p}))")
        ctes.append(
            f"l{r} AS MATERIALIZED (SELECT entity FROM nodes "
            f"WHERE entity NOT IN (SELECT entity FROM res{p}) "
            f"AND entity NOT IN (SELECT o FROM e{r}))")
        ctes.append(
            f"res{r} AS MATERIALIZED (SELECT * FROM res{p} "
            f"UNION ALL SELECT entity, {r} AS level FROM l{r})")
    return (
        "WITH " + ",\n".join(ctes)
        + f"\nSELECT n.entity, coalesce(v.level, -1)::BIGINT AS level "
        f"FROM nodes n LEFT JOIN res{n_rounds - 1} v "
        f"ON n.entity = v.entity ORDER BY n.entity"
    )


_RA_SCALE = 2 ** 40


def link_prediction(triples_ds, subj_col: str = "subj",
                    obj_col: str = "obj", k: int = 50,
                    min_common: int = 1) -> pd.DataFrame:
    """Neighborhood-based link prediction over the UNDIRECTED entity
    graph: for every non-adjacent node pair sharing ≥ ``min_common``
    neighbors, score with
      - common_neighbors  (Newman 2001),
      - Jaccard           |Γa∩Γb| / |Γa∪Γb| (one IEEE division of exact
                          ints, rounded 6dp — oracle-identical),
      - ra_fp             Resource-Allocation index (Zhou et al. 2009),
                          Σ_z 1/deg(z) in integer fixed point
                          (Σ SCALE // d_z) so partial sums commute and
                          the score is bit-exact under any block order
                          (Adamic-Adar's Σ 1/ln d would need a
                          transcendental — RA is its rational twin).
    Returns the top-``k`` by (common_neighbors desc, ra_fp desc, node1,
    node2) — a total order, so the cut is deterministic.

    Distributed shape (all pair generation stays off the driver):
    1. canonical distinct edge table (u < v), as in triangle_stats;
    2. incidence rows (z, nbr) both directions; bucketed_group_apply on
       z emits each z's neighbor pairs with the per-z RA share — d_z is
       computed inside the bucket (every row of z lands in one bucket),
       so no degree broadcast is needed for generation. Hub caveat: a
       degree-d hub emits C(d,2) pairs — cap or sample hub adjacency at
       web scale (same note as triangle_stats wedges);
    3. one groupby shuffle sums (cn, ra_fp) per candidate pair;
    4. existing edges are removed by the tagged bucket anti-join (no
       driver key set);
    5. per-batch local top-k → driver merges ≤ k·n_batches rows; only
       then do the two degree lookups (dim-sized) decorate Jaccard."""
    from recon_ray.functions.relational import bucketed_group_apply

    edges = _undirected_edges(triples_ds, subj_col, obj_col)

    inc = edges.map_batches(
        lambda b: pd.DataFrame(
            {"z": pd.concat([b["u"], b["v"]], ignore_index=True),
             "nbr": pd.concat([b["v"], b["u"]], ignore_index=True)}
        ),
        batch_format="pandas",
    )

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.groupby("z")["nbr"].transform("size").to_numpy(np.int64)
        g = g.assign(__d=d)
        m = g.merge(g[["z", "nbr"]], on="z")
        m = m[m["nbr_x"] < m["nbr_y"]]
        return pd.DataFrame(
            {"a": m["nbr_x"], "b": m["nbr_y"],
             "cn": np.ones(len(m), dtype=np.int64),
             "ra_fp": (_RA_SCALE // m["__d"].to_numpy(np.int64))}
        )

    wedges = bucketed_group_apply(inc, "z", pairs_bucket)
    cand = (
        wedges.groupby(["a", "b"])
        .aggregate(Sum("cn", alias_name="common_neighbors"),
                   Sum("ra_fp", alias_name="ra_fp"))
    )

    # anti-join against the edge table WITHOUT collecting its keys: tag
    # both sides, shuffle on (a, b), keep candidate rows whose bucket
    # group has no edge row (same machinery as triangle_stats closure)
    tag_c = cand.map_batches(
        lambda b: b.assign(__side=np.int64(0)), batch_format="pandas"
    )
    tag_e = edges.map_batches(
        lambda b: pd.DataFrame(
            {"a": b["u"], "b": b["v"],
             "common_neighbors": np.int64(0), "ra_fp": np.int64(0),
             "__side": np.int64(1)}
        ),
        batch_format="pandas",
    )

    def drop_adjacent(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["__side"] == 1][["a", "b"]]
        c = g[g["__side"] == 0]
        keep = c.merge(e.assign(__hit=1), on=["a", "b"], how="left")
        keep = keep[keep["__hit"].isna()]
        return keep[["a", "b", "common_neighbors", "ra_fp"]]

    nonadj = bucketed_group_apply(tag_c.union(tag_e), ["a", "b"],
                                  drop_adjacent)
    if min_common > 1:
        nonadj = nonadj.map_batches(
            lambda b: b[b["common_neighbors"] >= min_common],
            batch_format="pandas",
        )

    order = ["common_neighbors", "ra_fp", "a", "b"]
    asc = [False, False, True, True]

    def local_top(b: pd.DataFrame) -> pd.DataFrame:
        if not set(order) <= set(b.columns):
            # fully-empty upstream (e.g. all-self-loop input): Ray 2.49
            # synthesizes ZERO-COLUMN empty blocks — rebuild the schema
            return pd.DataFrame(
                {"a": pd.Series([], dtype=object),
                 "b": pd.Series([], dtype=object),
                 "common_neighbors": pd.Series([], dtype="int64"),
                 "ra_fp": pd.Series([], dtype="int64")}
            )
        return b.sort_values(order, ascending=asc, kind="mergesort").head(k)

    top = nonadj.map_batches(local_top, batch_format="pandas").to_pandas()
    # zero-column empty blocks skip the UDF entirely (Ray 2.49), so the
    # collected frame may have no columns at all — treat as no candidates
    if len(top) and set(order) <= set(top.columns):
        top = top.sort_values(order, ascending=asc,
                              kind="mergesort").head(k)
    else:
        top = top.iloc[0:0] if set(order) <= set(top.columns) else \
            pd.DataFrame(columns=order)
    if len(top) == 0:
        return pd.DataFrame(
            {"node1": pd.Series([], dtype=object),
             "node2": pd.Series([], dtype=object),
             "common_neighbors": pd.Series([], dtype="int64"),
             "ra_fp": pd.Series([], dtype="int64"),
             "jaccard": pd.Series([], dtype="float64")}
        )

    deg = _sum_partials(
        inc.map_batches(
            lambda b: b["z"].value_counts().rename("d").rename_axis("z")
            .reset_index(),
            batch_format="pandas",
        ),
        "z", ["d"],
    )
    dmap = dict(zip(deg["z"], deg["d"].astype("int64")))
    da = top["a"].map(dmap).to_numpy(np.int64)
    db = top["b"].map(dmap).to_numpy(np.int64)
    cn = top["common_neighbors"].to_numpy(np.int64)
    jac = cn / (da + db - cn)
    f = 10.0 ** 6
    out = pd.DataFrame(
        {"node1": top["a"].to_numpy(), "node2": top["b"].to_numpy(),
         "common_neighbors": cn, "ra_fp": top["ra_fp"].to_numpy(np.int64),
         "jaccard": np.floor(jac * f + 0.5) / f}
    )
    return out.reset_index(drop=True)


def link_prediction_oracle_sql(edges_select: str, k: int = 50,
                               min_common: int = 1) -> str:
    """DuckDB oracle for :func:`link_prediction`. ``edges_select`` must
    yield (subj, obj); the SQL mirrors the exact integer rules: RA in
    fixed point (SCALE // d — pure integer, no transcendental), Jaccard
    as one rounded division of exact ints, and the same total order."""
    return f"""
WITH raw AS MATERIALIZED ({edges_select}),
e AS MATERIALIZED (
  SELECT DISTINCT least(subj, obj) AS u, greatest(subj, obj) AS v
  FROM raw WHERE subj <> obj),
adj AS MATERIALIZED (
  SELECT u AS z, v AS nbr FROM e UNION ALL SELECT v, u FROM e),
deg AS MATERIALIZED (
  SELECT z, count(*)::BIGINT AS d FROM adj GROUP BY z),
wedge AS MATERIALIZED (
  SELECT x.nbr AS a, y.nbr AS b, dz.d AS dz
  FROM adj x JOIN adj y ON x.z = y.z AND x.nbr < y.nbr
  JOIN deg dz ON dz.z = x.z),
cand AS MATERIALIZED (
  SELECT a, b, count(*)::BIGINT AS common_neighbors,
         sum({_RA_SCALE} // dz)::BIGINT AS ra_fp
  FROM wedge GROUP BY a, b
  HAVING count(*) >= {int(min_common)}),
nonadj AS MATERIALIZED (
  SELECT c.* FROM cand c
  WHERE NOT EXISTS (SELECT 1 FROM e WHERE e.u = c.a AND e.v = c.b))
SELECT n.a AS node1, n.b AS node2, n.common_neighbors, n.ra_fp,
       round(n.common_neighbors * 1.0
             / (da.d + db.d - n.common_neighbors), 6) AS jaccard
FROM nonadj n JOIN deg da ON da.z = n.a JOIN deg db ON db.z = n.b
ORDER BY n.common_neighbors DESC, n.ra_fp DESC, node1, node2
LIMIT {int(k)}
"""


def hits_oracle_sql(
    edges_select: str,
    n_iter: int = 5,
    scale: int = _HITS_SCALE,
    weighted: bool = False,
) -> str:
    """Unrolled-CTE DuckDB oracle for :func:`hits` — per iteration one
    authority half-step then one hub half-step, both with the identical
    integer quotient-norm. ``edges_select`` must yield (subj, obj).

    Every CTE is MATERIALIZED: DuckDB inlines plain CTEs and the two
    references per norm step double the expression tree per iteration —
    3 inlined iterations already cost ~17 s where the materialized form
    runs in 0.07 s. ``weighted``: edges_select must also yield ``w``;
    contributions become sum(v·w) (exactly :func:`hits`'s rule)."""
    wmul = " * e.w" if weighted else ""
    ctes = [
        f"e AS MATERIALIZED ({edges_select})",
        "nodes AS MATERIALIZED (SELECT DISTINCT entity FROM "
        "(SELECT subj AS entity FROM e UNION ALL SELECT obj AS entity FROM e))",
        f"mass AS MATERIALIZED (SELECT count(*)::BIGINT * {int(scale)} AS m FROM nodes)",
        f"h0 AS MATERIALIZED (SELECT entity, CAST({int(scale)} AS BIGINT) AS v FROM nodes)",
    ]
    for i in range(1, n_iter + 1):
        hp = f"h{i - 1}"
        ctes.append(
            f"ar{i} AS MATERIALIZED (SELECT n.entity, coalesce(s.t, 0)::BIGINT AS v "
            f"FROM nodes n LEFT JOIN ("
            f"  SELECT e.obj AS entity, sum(p.v{wmul}) AS t FROM e "
            f"  JOIN {hp} p ON p.entity = e.subj GROUP BY e.obj"
            f") s ON s.entity = n.entity)"
        )
        ctes.append(
            f"a{i} AS MATERIALIZED (SELECT entity, CAST(v // greatest("
            f"(SELECT sum(v) FROM ar{i}) // (SELECT m FROM mass), 1) "
            f"AS BIGINT) AS v FROM ar{i})"
        )
        ctes.append(
            f"hr{i} AS MATERIALIZED (SELECT n.entity, coalesce(s.t, 0)::BIGINT AS v "
            f"FROM nodes n LEFT JOIN ("
            f"  SELECT e.subj AS entity, sum(p.v{wmul}) AS t FROM e "
            f"  JOIN a{i} p ON p.entity = e.obj GROUP BY e.subj"
            f") s ON s.entity = n.entity)"
        )
        ctes.append(
            f"h{i} AS MATERIALIZED (SELECT entity, CAST(v // greatest("
            f"(SELECT sum(v) FROM hr{i}) // (SELECT m FROM mass), 1) "
            f"AS BIGINT) AS v FROM hr{i})"
        )
    return (
        "WITH " + ",\n".join(ctes)
        + f"\nSELECT h.entity, h.v AS hub_q, a.v AS auth_q "
        f"FROM h{n_iter} h JOIN a{n_iter} a USING (entity) ORDER BY entity"
    )
