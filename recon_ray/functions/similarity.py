"""Similarity search over an embedding column (``list<float>``).

- ``knn_bruteforce``: exact cosine top-k — the query matrix broadcasts once
  (``ray.put``), each batch computes a numpy matmul block and emits its
  LOCAL top-k per query; the driver merges ≤ k×n_batches rows. No shuffle,
  no full materialization of the corpus.
- ``knn_lsh``: the scale path — random-hyperplane signatures prune each
  corpus batch to the rows any query probes (multi-probe over Hamming-1
  neighbors), cosine runs on the pruned candidate subset only, and the
  corpus never leaves the Dataset. Approximate; recall measured against
  brute force in tests (including a 100× fixture).
- ``knn_ivf``: the IVF variant — spherical k-means centroids (trained on
  a small deterministic sample) partition the corpus into cells; queries
  probe their ``nprobe`` nearest cells. Same distributed candidate-
  pruning shape as knn_lsh.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray


def _normalize(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


def knn_bruteforce(
    emb_ds,
    queries: np.ndarray,
    k: int = 10,
    query_ids: list | None = None,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    round_scores: int = 6,
) -> pd.DataFrame:
    """(query_id, rank, vec_id, cosine) — exact, deterministic ties broken
    by (−cosine, vec_id)."""
    q = _normalize(np.asarray(queries, dtype=np.float64))
    q_ref = ray.put(q)
    qids = list(query_ids) if query_ids is not None else list(range(len(q)))

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        qm = ray.get(q_ref)
        m = _normalize(np.stack(batch[emb_col].to_numpy()).astype(np.float64))
        sims = qm @ m.T  # (n_q, n_batch)
        ids = batch[id_col].to_numpy()
        kk = min(k, sims.shape[1])
        out_q, out_id, out_s = [], [], []
        for qi in range(sims.shape[0]):
            idx = np.argpartition(-sims[qi], kk - 1)[:kk]
            out_q += [qi] * kk
            out_id += ids[idx].tolist()
            out_s += sims[qi, idx].tolist()
        return pd.DataFrame({"qi": out_q, id_col: out_id, "cosine": out_s})

    parts = emb_ds.map_batches(local_topk, batch_format="pandas").to_pandas()
    return _merge_local_topk(parts, qids, k, id_col, round_scores)


def _merge_local_topk(
    parts: pd.DataFrame, qids: list, k: int, id_col: str, round_scores: int = 6
) -> pd.DataFrame:
    """Driver-side merge of per-batch local top-k rows (≤ k×n_batches)."""
    if len(parts) == 0:
        return pd.DataFrame(columns=["query_id", "rank", id_col, "cosine"])
    out = []
    for qi, g in parts.groupby("qi"):
        g = g.sort_values(["cosine", id_col], ascending=[False, True],
                          kind="mergesort").head(k)
        g = g.assign(rank=np.arange(1, len(g) + 1), query_id=qids[qi])
        out.append(g)
    df = pd.concat(out, ignore_index=True)
    df["cosine"] = df["cosine"].round(round_scores)
    return df[["query_id", "rank", id_col, "cosine"]].sort_values(
        ["query_id", "rank"]
    ).reset_index(drop=True)


def _rh_planes(dim: int, n_bits: int, seed: int = 99) -> np.ndarray:
    rng = np.random.RandomState(seed)
    return rng.normal(size=(n_bits, dim))


def _signature(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (m @ planes.T) > 0
    weights = (1 << np.arange(planes.shape[0])).astype(np.int64)
    return bits.astype(np.int64) @ weights


def knn_lsh(
    emb_ds,
    queries: np.ndarray,
    k: int = 10,
    n_bits: int = 8,
    n_tables: int = 4,
    query_ids: list | None = None,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    seed: int = 99,
    multiprobe: bool = True,
) -> pd.DataFrame:
    """Bucketed approximate top-k, fully distributed: the corpus NEVER
    leaves the Dataset. The query signatures + multi-probe sets (per
    table, signature → probing query ids) broadcast once; each corpus
    batch computes its rows' signatures, prunes to rows probed by ANY
    query, runs the cosine matmul on that candidate subset only, and
    emits its local top-k per query. The driver merges ≤ k×n_batches tiny
    rows — same merge as ``knn_bruteforce``. The union of per-batch
    candidates equals the global LSH bucket union, so results are
    identical to a bucketed shuffle layout without the all-to-all.
    Multiple tables is the standard recall lever for random-hyperplane
    LSH; Hamming-1 multiprobe widens each table's reach."""
    q = _normalize(np.asarray(queries, dtype=np.float64))
    n_q = len(q)
    planes = [
        _rh_planes(q.shape[1], n_bits, seed + 7919 * t) for t in range(n_tables)
    ]
    q_sigs = [_signature(q, p) for p in planes]
    # per table: signature → list of query indices probing that bucket
    probes: list[dict[int, list[int]]] = []
    for t in range(n_tables):
        pt: dict[int, list[int]] = {}
        for qi in range(n_q):
            sigs = [int(q_sigs[t][qi])]
            if multiprobe:
                sigs += [int(q_sigs[t][qi]) ^ (1 << b) for b in range(n_bits)]
            for s in sigs:
                pt.setdefault(s, []).append(qi)
        probes.append(pt)
    ref = ray.put((planes, probes, q))
    qids = list(query_ids) if query_ids is not None else list(range(n_q))

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        ps, pr, qm = ray.get(ref)
        empty = pd.DataFrame(
            {
                "qi": pd.Series(dtype="int64"),
                id_col: batch[id_col].iloc[:0],
                "cosine": pd.Series(dtype="float64"),
            }
        )
        if len(batch) == 0:
            return empty
        m = _normalize(np.stack(batch[emb_col].to_numpy()).astype(np.float64))
        n = len(m)
        cand = np.zeros((len(qm), n), dtype=bool)
        for t, p in enumerate(ps):
            sig = _signature(m, p)
            uniq, inv = np.unique(sig, return_inverse=True)
            pt = pr[t]
            for ui, s in enumerate(uniq):
                qs = pt.get(int(s))
                if qs:
                    cand[np.asarray(qs)[:, None], np.flatnonzero(inv == ui)[None, :]] = True
        cols = np.flatnonzero(cand.any(axis=0))
        if len(cols) == 0:
            return empty
        sims = qm @ m[cols].T  # (n_q, n_cand) — candidates only
        ids = batch[id_col].to_numpy()[cols]
        out_q, out_id, out_s = [], [], []
        for qi in np.flatnonzero(cand[:, cols].any(axis=1)):
            qc = np.flatnonzero(cand[qi, cols])
            kk = min(k, len(qc))
            idx = qc[np.argpartition(-sims[qi, qc], kk - 1)[:kk]]
            out_q += [int(qi)] * kk
            out_id += ids[idx].tolist()
            out_s += sims[qi, idx].tolist()
        return pd.DataFrame({"qi": out_q, id_col: out_id, "cosine": out_s})

    parts = emb_ds.map_batches(local_topk, batch_format="pandas").to_pandas()
    return _merge_local_topk(parts, qids, k, id_col)


def _kmeans_fit(
    sample: np.ndarray, k: int, n_iter: int = 10, seed: int = 99
) -> np.ndarray:
    """Deterministic spherical k-means on a driver-side sample (the IVF
    training step). Sample is small by construction; Lloyd iterations are
    numpy matmuls."""
    m = _normalize(sample.astype(np.float64))
    rng = np.random.RandomState(seed)
    k = min(k, len(m))
    centroids = m[rng.choice(len(m), size=k, replace=False)]
    for _ in range(n_iter):
        assign = np.argmax(m @ centroids.T, axis=1)
        for c in range(k):
            members = m[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        centroids = _normalize(centroids)
    return centroids


def knn_ivf(
    emb_ds,
    queries: np.ndarray,
    k: int = 10,
    n_cells: int = 16,
    nprobe: int = 4,
    sample_size: int = 2048,
    query_ids: list | None = None,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    seed: int = 99,
    centroids: "np.ndarray | None" = None,
) -> pd.DataFrame:
    """IVF approximate top-k, fully distributed like ``knn_lsh``: spherical
    k-means centroids train on a small sample (driver-side, deterministic),
    then broadcast; each corpus batch assigns its rows to cells, prunes to
    rows in any query's ``nprobe`` nearest cells, runs the cosine matmul on
    that candidate subset only, and emits local top-k. The corpus never
    leaves the Dataset. At cluster scale the assignment column doubles as a
    partition key for a cell-clustered layout (write once, probe-read
    later)."""
    q = _normalize(np.asarray(queries, dtype=np.float64))
    if centroids is None:
        # deterministic sample (lowest-hash rows, see _det_sample): limit()
        # returns whichever blocks the executor finishes first, which makes
        # the trained cells — and thus the approximate result — run-dependent
        sample = _det_sample(emb_ds, sample_size, id_col, emb_col)
        centroids = _kmeans_fit(sample, n_cells, seed=seed)
    # per-query probe cells (nprobe nearest centroids)
    np_eff = min(nprobe, len(centroids))
    q_cells = np.argsort(-(q @ centroids.T), axis=1)[:, :np_eff]
    cell_to_queries: dict[int, list[int]] = {}
    for qi, cells in enumerate(q_cells):
        for c in cells:
            cell_to_queries.setdefault(int(c), []).append(qi)
    ref = ray.put((centroids, cell_to_queries, q))
    qids = list(query_ids) if query_ids is not None else list(range(len(q)))

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        cents, c2q, qm = ray.get(ref)
        empty = pd.DataFrame(
            {
                "qi": pd.Series(dtype="int64"),
                id_col: batch[id_col].iloc[:0],
                "cosine": pd.Series(dtype="float64"),
            }
        )
        if len(batch) == 0:
            return empty
        m = _normalize(np.stack(batch[emb_col].to_numpy()).astype(np.float64))
        assign = np.argmax(m @ cents.T, axis=1)
        cand = np.zeros((len(qm), len(m)), dtype=bool)
        for c, qis in c2q.items():
            rows = np.flatnonzero(assign == c)
            if len(rows):
                cand[np.asarray(qis)[:, None], rows[None, :]] = True
        cols = np.flatnonzero(cand.any(axis=0))
        if len(cols) == 0:
            return empty
        sims = qm @ m[cols].T
        ids = batch[id_col].to_numpy()[cols]
        out_q, out_id, out_s = [], [], []
        for qi in np.flatnonzero(cand[:, cols].any(axis=1)):
            qc = np.flatnonzero(cand[qi, cols])
            kk = min(k, len(qc))
            idx = qc[np.argpartition(-sims[qi, qc], kk - 1)[:kk]]
            out_q += [int(qi)] * kk
            out_id += ids[idx].tolist()
            out_s += sims[qi, idx].tolist()
        return pd.DataFrame({"qi": out_q, id_col: out_id, "cosine": out_s})

    parts = emb_ds.map_batches(local_topk, batch_format="pandas").to_pandas()
    return _merge_local_topk(parts, qids, k, id_col)


def knn_recall(approx: pd.DataFrame, exact: pd.DataFrame, id_col: str = "vec_id") -> float:
    """Mean per-query recall of approx vs exact neighbor sets."""
    recalls = []
    for qid, g in exact.groupby("query_id"):
        truth = set(g[id_col])
        got = set(approx.loc[approx["query_id"] == qid, id_col])
        recalls.append(len(truth & got) / len(truth) if truth else 1.0)
    return float(np.mean(recalls)) if recalls else 0.0


def kmeans(
    emb_ds,
    k: int = 8,
    n_iter: int = 10,
    seed: int = 99,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    sample_size: int = 2048,
) -> dict:
    """Distributed spherical k-means (Lloyd's) over the full corpus —
    the clustering primitive a 100-TB embedding table needs (topic
    bucketing, stratified sampling, IVF training at full fidelity).

    Each iteration is ONE streaming pass: ``map_batches`` assigns its
    batch to the broadcast centroids and emits a (k × d) partial-sum
    table plus counts (a few KB per block — shuffle-free); the driver
    reduces the partials and renormalizes. The corpus itself never
    materializes.

    Deterministic under ANY execution order, which Ray does not
    guarantee (block completion/coalescing varies run to run):
    - the init sample is the ``sample_size`` rows with the LOWEST mixed
      hash of ``id_col`` (a streaming local-top-n + driver merge), not a
      ``limit()`` that grabs whichever blocks finish first;
    - partial sums are QUANTIZED to int64 (×2^40 — exact, order-free
      integer addition; quantization error ~n·2⁻⁴¹ ≪ float noise), so
      the reduce is independent of how rows were batched.

    Returns {"centroids": (k, d) ndarray, "sizes": (k,) int64,
    "mean_cosine": (k,) float64 per-cell mean similarity to its centroid,
    "inertia": float mean (1 - cosine) over the corpus, "n": int}.
    """
    # Materialize the (quantization-ready) blocks ONCE: an iterative
    # algorithm must not pay a full Dataset-executor startup + parquet
    # decode per pass. Blocks live in the object store across iterations
    # (spill-managed); every pass is then a plain round of Ray tasks over
    # the same refs — per-pass overhead drops from seconds to milliseconds.
    # Same pattern as the tasks of functions/relational.py:exchange.
    refs = emb_ds.materialize().to_arrow_refs()
    sample = _det_sample_refs(refs, sample_size, id_col, emb_col)
    if len(sample) == 0:
        return {
            "centroids": np.zeros((0, 0)),
            "sizes": np.zeros(0, np.int64),
            "mean_cosine": np.zeros(0),
            "inertia": 0.0,
            "n": 0,
        }
    m0 = _normalize(sample)
    rng = np.random.RandomState(seed)
    k_eff = min(k, len(m0))
    centroids = m0[rng.choice(len(m0), size=k_eff, replace=False)]
    dim = centroids.shape[1]
    Q = float(2 ** 40)  # |values| ≤ 1 → int64 sums safe to ~2^22 rows/cell
    sizes = np.zeros(k_eff, np.int64)
    sim_sums_i = np.zeros(k_eff, np.int64)
    n_total = 0
    # n_iter UPDATE passes + one final stats-only pass, so the returned
    # sizes/mean_cosine/inertia describe the RETURNED centroids (and agree
    # exactly with a subsequent assign_clusters)
    for it in range(n_iter + 1):
        ref = ray.put(centroids)
        parts = ray.get(
            [_kmeans_partial_task.remote(b, ref, Q, emb_col) for b in refs]
        )
        sums_i = np.zeros((k_eff, dim), np.int64)
        sizes = np.zeros(k_eff, np.int64)
        sim_sums_i = np.zeros(k_eff, np.int64)
        for p_sums, p_counts, p_ssum in parts:
            if p_sums is None:
                continue
            sums_i += p_sums
            sizes += p_counts
            sim_sums_i += p_ssum
        n_total = int(sizes.sum())
        if it == n_iter:  # stats-only pass: keep the returned centroids
            break
        nonempty = sizes > 0
        sums = sums_i.astype(np.float64) / Q
        centroids = np.where(
            nonempty[:, None], _normalize(np.where(
                nonempty[:, None], sums, 1.0)), centroids
        )
    sim_sums = sim_sums_i.astype(np.float64) / Q
    mean_cos = np.where(sizes > 0, sim_sums / np.maximum(sizes, 1), 0.0)
    inertia = float(1.0 - (sim_sums.sum() / max(n_total, 1)))
    return {
        "centroids": centroids,
        "sizes": sizes,
        "mean_cosine": mean_cos,
        "inertia": inertia,
        "n": n_total,
    }


@ray.remote
def _kmeans_partial_task(block, centroids, Q, emb_col):
    """One quantized partial-sum pass over one materialized block — the
    same math as the map_batches form, minus per-iteration executor cost.
    Returns (k×d int64 sums, k counts, k sim-sums) or Nones when empty."""
    df = block.to_pandas()
    if len(df) == 0:
        return (None, None, None)
    c = centroids
    m = _normalize(np.stack(df[emb_col].to_numpy()).astype(np.float64))
    a = np.argmax(m @ c.T, axis=1)
    mq = np.rint(m * Q).astype(np.int64)
    sums = np.zeros((len(c), m.shape[1]), np.int64)
    np.add.at(sums, a, mq)
    counts = np.bincount(a, minlength=len(c)).astype(np.int64)
    simq = np.rint((m * c[a]).sum(axis=1) * Q).astype(np.int64)
    ssum = np.zeros(len(c), np.int64)
    np.add.at(ssum, a, simq)
    return (sums, counts, ssum)


@ray.remote
def _sample_block_task(block, n, id_col, emb_col):
    df = block.to_pandas()
    if len(df) == 0:
        return (np.zeros(0, np.uint64), np.zeros(0, object))
    ids = df[id_col].to_numpy().astype(np.uint64)
    h = ids * np.uint64(0x9E3779B97F4A7C15)
    h ^= h >> np.uint64(29)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(32)
    take = np.argsort(h, kind="stable")[:n]
    return (h[take], df[emb_col].to_numpy()[take])


def _det_sample_refs(refs, n: int, id_col: str, emb_col: str) -> np.ndarray:
    """_det_sample over pre-materialized block refs (local lowest-n per
    block + driver merge — same global result as the Dataset form for any
    partitioning, since the merge is a global sort on the 64-bit hash)."""
    parts = ray.get(
        [_sample_block_task.remote(b, n, id_col, emb_col) for b in refs]
    )
    hs = np.concatenate([p[0] for p in parts]) if parts else np.zeros(0)
    if len(hs) == 0:
        return np.zeros((0, 0))
    es = np.concatenate([np.asarray(p[1], dtype=object) for p in parts])
    order = np.argsort(hs, kind="stable")[:n]
    return np.stack(es[order]).astype(np.float64)


def _det_sample(
    emb_ds, n: int, id_col: str, emb_col: str
) -> np.ndarray:
    """Deterministic pseudo-random sample: the n rows with the lowest
    64-bit mixed hash of their id — each batch emits only its local
    lowest-n, the driver merges. Unlike ``limit()``, the result does not
    depend on which blocks the executor happens to finish first."""

    def local(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame({"h": pd.Series(dtype="uint64"),
                                 "e": pd.Series(dtype="object")})
        ids = batch[id_col].to_numpy().astype(np.uint64)
        h = ids * np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(29)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(32)
        take = np.argsort(h, kind="stable")[:n]
        return pd.DataFrame(
            {"h": h[take], "e": batch[emb_col].to_numpy()[take]}
        )

    parts = emb_ds.map_batches(local, batch_format="pandas").to_pandas()
    if len(parts) == 0:
        return np.zeros((0, 0))
    parts = parts.sort_values("h", kind="stable").head(n)
    return np.stack(parts["e"].to_numpy()).astype(np.float64)


def assign_clusters(
    emb_ds,
    centroids: np.ndarray,
    emb_col: str = "embedding",
):
    """Streaming cluster assignment: appends ``cluster`` (argmax cosine)
    and ``cosine`` columns against the broadcast centroids. Lazy — at
    scale this is the pass that writes a cluster-partitioned layout."""
    ref = ray.put(np.asarray(centroids, dtype=np.float64))

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        c = ray.get(ref)
        if len(batch) == 0:
            batch["cluster"] = pd.Series(dtype="int64")
            batch["cosine"] = pd.Series(dtype="float64")
            return batch
        m = _normalize(np.stack(batch[emb_col].to_numpy()).astype(np.float64))
        sims = m @ c.T
        batch = batch.copy()
        batch["cluster"] = np.argmax(sims, axis=1).astype(np.int64)
        batch["cosine"] = sims.max(axis=1)
        return batch

    return emb_ds.map_batches(f, batch_format="pandas")


def knn_int8(
    emb_ds,
    queries: np.ndarray,
    k: int = 10,
    query_ids: list | None = None,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    round_scores: int = 6,
    rerank_factor: int | None = None,
) -> pd.DataFrame:
    """Brute-force kNN over the int8-QUANTIZED corpus
    (ml.quantize_embeddings inline): each batch dequantizes its codes
    (q·scale — 4× less corpus memory in flight than float32, the scale
    path for 100-TB embedding tables) and scores against the broadcast
    float queries; local top-k rows merge on the driver exactly like
    :func:`knn_bruteforce`. Approximation error is bounded by the
    per-element quantization step (scale/2), so recall vs the exact
    search stays high — pinned by test.

    ``rerank_factor``: two-stage retrieval — the quantized scan keeps
    the top k·factor candidate ids per query, then ONE narrow exact
    pass re-scores only those candidates in float (semi-join filter on
    the broadcast candidate-id set; the float corpus is touched for
    |candidates| rows, never scanned). With a sufficient factor the
    result EQUALS the exact search — asserted in tests at factor 3."""
    from recon_ray.functions.ml import quantize_embeddings

    q = _normalize(np.asarray(queries, dtype=np.float64))
    q_ref = ray.put(q)
    qids = list(query_ids) if query_ids is not None else list(range(len(q)))
    k_scan = k * rerank_factor if rerank_factor else k
    sigs = quantize_embeddings(emb_ds, emb_col=emb_col, id_col=id_col)

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        qm = ray.get(q_ref)
        mat = np.stack(
            [np.asarray(v, np.float64) * s
             for v, s in zip(batch["qvec"], batch["scale"])]
        )
        m = _normalize(mat)
        sims = qm @ m.T
        ids = batch[id_col].to_numpy()
        kk = min(k_scan, sims.shape[1])
        out_q, out_id, out_s = [], [], []
        for qi in range(sims.shape[0]):
            idx = np.argpartition(-sims[qi], kk - 1)[:kk]
            out_q += [qi] * kk
            out_id += ids[idx].tolist()
            out_s += sims[qi, idx].tolist()
        return pd.DataFrame({"qi": out_q, id_col: out_id, "cosine": out_s})

    parts = sigs.map_batches(local_topk, batch_format="pandas").to_pandas()
    if not rerank_factor:
        return _merge_local_topk(parts, qids, k, id_col, round_scores)

    # --- stage 2: exact float rerank of the candidate union ------------
    from recon_ray.functions.relational import semi_join

    cand = _merge_local_topk(parts, qids, k_scan, id_col, round_scores)
    cand_ids = set(cand[id_col].tolist())
    narrow = semi_join(
        emb_ds.map_batches(
            lambda t, c=(id_col, emb_col): t.select(list(c)),
            batch_format="pyarrow", zero_copy_batch=True,
        ),
        cand_ids, on=id_col,
    )
    return knn_bruteforce(narrow, queries, k=k, query_ids=qids,
                          id_col=id_col, emb_col=emb_col,
                          round_scores=round_scores)


def build_ivf_index(emb_ds, n_cells: int = 16, sample_size: int = 2048,
                    id_col: str = "vec_id", emb_col: str = "embedding",
                    seed: int = 99) -> np.ndarray:
    """Train the IVF centroid table once (deterministic lowest-hash
    sample + spherical k-means) so repeated :func:`knn_ivf` calls skip
    training — the build-once / probe-many serving pattern. Persist with
    :func:`save_ivf_index`."""
    sample = _det_sample(emb_ds, sample_size, id_col, emb_col)
    return _kmeans_fit(sample, n_cells, seed=seed)


def save_ivf_index(centroids: np.ndarray, path: str) -> None:
    """Centroid table → parquet (one row per cell, list<double>): a
    portable, versionable index artifact."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table({
        "cell": pa.array(range(len(centroids)), pa.int64()),
        "centroid": pa.array([list(map(float, c)) for c in centroids],
                             pa.list_(pa.float64())),
    })
    pq.write_table(t, path)


def load_ivf_index(path: str) -> np.ndarray:
    import pyarrow.parquet as pq

    t = pq.read_table(path).sort_by("cell")
    return np.array(t.column("centroid").to_pylist(), dtype=np.float64)
