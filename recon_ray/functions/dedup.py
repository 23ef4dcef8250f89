"""Deduplication family for training-data pipelines:

- ``exact_dedup``: content-hash → hash-partitioned groupby → keep the
  min-doc_id row per group (the distributed ExampleStore,
  recon/store.py:39-47).
- ``minhash_lsh_dedup``: word-shingle → 64-perm MinHash → banded LSH
  buckets (groupby shuffle) → candidate pairs → exact Jaccard verify →
  connected components via iterative min-label propagation (no driver
  union-find on big data).
- ``simhash_signatures`` + ``simhash_dedup``: 64-bit SimHash, banded
  bucketing, Hamming-distance verify.
- ``ngram_jaccard_pairs``: exact n-gram Jaccard for candidate pairs.
- ``embedding_neardup``: exact cosine near-dup over an embedding column
  (object-store block refs × block-pair tasks with an exact angular
  pruning bound — no driver materialization).

Everything is deterministic (fixed hash seeds), shuffle-aware (signatures
are tiny rows; texts never ride through the LSH shuffle), and shaped as
map_batches + groupby.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

WORD_RE = re.compile(r"\w+", re.UNICODE)

_MERSENNE = (1 << 61) - 1
_N_PERM = 64


def _perm_params(n_perm: int = _N_PERM, seed: int = 1234) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=n_perm, dtype=np.int64).astype(np.uint64)
    b = rng.randint(0, _MERSENNE, size=n_perm, dtype=np.int64).astype(np.uint64)
    return a, b


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Hashes of word k-grams (sha-truncated, deterministic)."""
    words = [w.lower() for w in WORD_RE.findall(text)]
    if len(words) < k:
        grams = [" ".join(words)] if words else []
    else:
        grams = [" ".join(words[i : i + k]) for i in range(len(words) - k + 1)]
    if not grams:
        return np.array([], dtype=np.uint64)
    out = np.empty(len(grams), dtype=np.uint64)
    for i, g in enumerate(grams):
        out[i] = int.from_bytes(
            hashlib.sha1(g.encode()).digest()[:8], "little"
        )
    return out


def jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    sa = set(_shingle_hashes(text_a, k).tolist())
    sb = set(_shingle_hashes(text_b, k).tolist())
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Keep one representative (min id) per distinct text. Shuffle keys are
    16-byte content hashes, never the texts themselves. Global dedup is a
    bucketed merge — one vectorized call per hash bucket, never one Python
    callback per distinct text (distinct texts ≈ corpus size at scale)."""
    from recon_ray.functions.relational import bucketed_group_apply

    def add_hash(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["__h"] = [
            hashlib.sha256(t.encode()).hexdigest()[:32] for t in batch[text_col]
        ]
        return batch

    hashed = ds.map_batches(add_hash, batch_format="pandas")

    def keep_min_per_hash(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(id_col, kind="mergesort").drop_duplicates("__h")

    kept = bucketed_group_apply(hashed, "__h", keep_min_per_hash)
    return kept.drop_columns(["__h"])


def dup_groups(ds, text_col: str = "text", id_col: str = "doc_id") -> pd.DataFrame:
    """(representative id, n_copies) per distinct text — the dedup audit.
    Pure built-in aggregates (Min + Count) over the content-hash key: the
    shuffle carries (hash, id) rows only and the merge is vectorized."""
    from ray.data.aggregate import Count, Min

    def add_hash(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "__h": [
                    hashlib.sha256(t.encode()).hexdigest()[:32]
                    for t in batch[text_col]
                ],
                id_col: batch[id_col].values,
            }
        )

    hashed = ds.map_batches(add_hash, batch_format="pandas")
    agg = (
        hashed.groupby("__h")
        .aggregate(Min(id_col, alias_name=id_col), Count(alias_name="n_copies"))
        .to_pandas()
    )
    out = agg[[id_col, "n_copies"]].copy()
    out["n_copies"] = out["n_copies"].astype("int64")
    return out.sort_values(id_col).reset_index(drop=True)


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------


class MinHasher:
    """Actor-pool signature stage: (doc_id, sig: list<uint64>[n_perm]).
    Permutation params built once per actor."""

    def __init__(self, n_perm: int = _N_PERM, k: int = 3, seed: int = 1234):
        self.a, self.b = _perm_params(n_perm, seed)
        self.n_perm = n_perm
        self.k = k

    def signature(self, text: str) -> np.ndarray:
        h = _shingle_hashes(text, self.k)
        if len(h) == 0:
            return np.full(self.n_perm, np.uint64(_MERSENNE), dtype=np.uint64)
        # (a*h + b) with uint64 wraparound (deterministic, avalanche-enough;
        # min over shingles per permutation) — vectorized outer product
        vals = self.a[:, None] * h[None, :] + self.b[:, None]
        return vals.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        sigs = [self.signature(t) for t in texts]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "sig": pa.array([s.tolist() for s in sigs],
                                pa.list_(pa.uint64())),
            }
        )


def _band_weights(n_bands: int, rows_per_band: int, seed: int = 777):
    """Fixed odd uint64 weights + per-band offsets for the vectorized band
    hash: bhash[b] = Σ sig[b,r]·W[b,r] + B[b] (mod 2^64). Collisions are
    spurious candidates only — the exact-Jaccard verify removes them."""
    rng = np.random.RandomState(seed)
    w = rng.randint(1, 2**62, size=(n_bands, rows_per_band)).astype(np.uint64)
    w |= np.uint64(1)  # odd → bijective per-term multiply mod 2^64
    b = rng.randint(1, 2**62, size=n_bands).astype(np.uint64)
    return w, b


#: per-worker-process kernel cache — the stage state (permutation params,
#: word-hash memos) is cheap to build but an ACTOR POOL costs 2-4 s of
#: spawn latency per call; elastic tasks + a process cache get the same
#: build-once-per-worker behavior with no pool (cf. stages/detect.py)
_PROCESS_KERNELS: dict = {}


def make_minhash_batch(n_perm: int = _N_PERM, k: int = 3):
    def fn(batch: pa.Table) -> pa.Table:
        key = ("minhash", n_perm, k)
        h = _PROCESS_KERNELS.get(key)
        if h is None:
            h = _PROCESS_KERNELS[key] = MinHasher(n_perm=n_perm, k=k)
        return h(batch)

    return fn


def make_simhash_batch():
    def fn(batch: pa.Table) -> pa.Table:
        h = _PROCESS_KERNELS.get("simhash")
        if h is None:
            h = _PROCESS_KERNELS["simhash"] = SimHasher()
        return h(batch)

    return fn


def make_shingle_batch(k: int = 3):
    def fn(batch: pa.Table) -> pa.Table:
        key = ("shingles", k)
        h = _PROCESS_KERNELS.get(key)
        if h is None:
            h = _PROCESS_KERNELS[key] = ShingleSets(k=k)
        return h(batch)

    return fn


def lsh_candidate_pairs(sig_ds, n_bands: int = 16, n_perm: int = _N_PERM):
    """Band the signatures, shuffle on the band hash, emit candidate pairs
    (a<b) within each bucket. Returns a DATASET of distinct (a, b) pairs.

    Pair enumeration runs once per HASH BUCKET of band keys (one vectorized
    self-merge per bucket), never once per band key — band keys ≈ n_docs ×
    n_bands, which is the per-distinct-key map_groups trap at scale. Only
    tiny (doc_id, band, bhash) rows ride the shuffle."""
    from recon_ray.functions.relational import bucketed_group_apply, distinct

    rows_per_band = n_perm // n_bands
    W, B = _band_weights(n_bands, rows_per_band)

    def bands(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "band": pa.array([], pa.int32()),
                    "bhash": pa.array([], pa.uint64()),
                }
            )
        sigs = np.asarray(batch.column("sig").to_pylist(), dtype=np.uint64)
        chunks = sigs.reshape(n, n_bands, rows_per_band)
        bh = (chunks * W[None, :, :]).sum(axis=2, dtype=np.uint64) + B[None, :]
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(doc_ids, n_bands), pa.int64()),
                "band": pa.array(
                    np.tile(np.arange(n_bands, dtype=np.int32), n), pa.int32()
                ),
                "bhash": pa.array(bh.reshape(-1), pa.uint64()),
            }
        )

    banded = sig_ds.map_batches(bands, batch_format="pyarrow", zero_copy_batch=True)

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["band", "bhash", "doc_id"])
        m = d.merge(d, on=["band", "bhash"])
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        return (
            m[["doc_id_x", "doc_id_y"]]
            .drop_duplicates()
            .rename(columns={"doc_id_x": "a", "doc_id_y": "b"})
        )

    pairs = bucketed_group_apply(banded, ["band", "bhash"], bucket_pairs)
    # the same pair can surface from several bands → global distinct
    return distinct(pairs, ["a", "b"])


class ShingleSets:
    """(doc_id, shingles: list<uint64>) — unique shingle hashes per doc,
    for distributed Jaccard verification."""

    def __init__(self, k: int = 3):
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        sets = [np.unique(_shingle_hashes(t, self.k)) for t in texts]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "shingles": pa.array(
                    [s.tolist() for s in sets], pa.list_(pa.uint64())
                ),
            }
        )


def _verify_pairs_fn(sh_ref, threshold: float):
    """map_batches kernel over the candidate-pair Dataset: exact Jaccard
    from broadcast shingle sets (fetched zero-copy once per worker)."""

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        sh = _get(sh_ref)
        jac = np.empty(len(batch), dtype=np.float64)
        for i, (a, b) in enumerate(zip(batch["a"].values, batch["b"].values)):
            sa, sb = sh.get(a), sh.get(b)
            if sa is None or sb is None or (len(sa) == 0 and len(sb) == 0):
                jac[i] = 1.0 if (sa is not None and sb is not None) else 0.0
                continue
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            union = len(sa) + len(sb) - inter
            jac[i] = inter / union if union else 1.0
        out = batch.assign(jaccard=jac)
        return out[out["jaccard"] >= threshold]

    return verify


def _get(ref):
    return ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref


def _verify_pairs_shuffle(cand_ds, sh_ds, threshold: float,
                          packed: bool = False):
    """Distributed candidate verification: the candidate shingle sets
    shuffle-join onto the pair Dataset's endpoints (a then b), then exact
    Jaccard runs row-wise inside map_batches — the escape hatch for when
    the candidate set outgrows a broadcast heap. Sets ride the shuffle
    once per endpoint; the driver sees only the final verified pairs.
    ``packed=True``: ``sh_ds`` is already (doc_id, sh_bin) binary cells
    (the minhash_index state format) — skip the pack step."""
    from recon_ray.functions.relational import shuffle_join

    def pack(t: pa.Table) -> pa.Table:
        # Acero rejects list<> join payloads — pack each shingle set
        # into a binary cell (uint64 little-endian), unpack after
        sh = t.column("shingles")
        if isinstance(sh, pa.ChunkedArray):
            sh = sh.combine_chunks()
        packed_cells = [
            np.asarray(s, dtype=np.uint64).tobytes()
            for s in sh.to_pylist()
        ]
        return pa.table({
            "doc_id": t.column("doc_id"),
            "sh_bin": pa.array(packed_cells, pa.large_binary()),
        })

    if not packed:
        sh_ds = sh_ds.map_batches(pack, batch_format="pyarrow")
    sh_ds = sh_ds.materialize()  # joined twice: once per endpoint
    j1 = shuffle_join(cand_ds, sh_ds, on="a", right_on="doc_id")
    j1 = j1.map_batches(
        lambda df: df.rename(columns={"sh_bin": "sh_a"})[
            ["a", "b", "sh_a"]],
        batch_format="pandas",
    )
    j2 = shuffle_join(j1, sh_ds, on="b", right_on="doc_id")

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        jac = np.empty(len(df), dtype=np.float64)
        for i, (ba, bb) in enumerate(zip(df["sh_a"].values,
                                         df["sh_bin"].values)):
            sa = np.frombuffer(ba, dtype=np.uint64)
            sb = np.frombuffer(bb, dtype=np.uint64)
            if len(sa) == 0 and len(sb) == 0:
                jac[i] = 1.0
                continue
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            union = len(sa) + len(sb) - inter
            jac[i] = inter / union if union else 1.0
        out = df[["a", "b"]].assign(jaccard=jac)
        return out[out["jaccard"] >= threshold]

    return j2.map_batches(verify, batch_format="pandas")


def _connected_components_shuffle(edges_ds, max_iter: int) -> pd.DataFrame:
    """Fully-distributed min-label propagation: labels live as a Dataset
    and each iteration is two shuffle joins (labels onto both endpoints)
    + one Ray groupby(node).min — nothing graph-sized ever reaches the
    driver. Convergence is detected by the label SUM: labels only
    decrease monotonically per node, so an unchanged sum ⇔ fixpoint;
    per-batch sums use Python ints (arbitrary precision), never an
    overflowing int64 accumulator."""
    from recon_ray.functions.relational import distinct, shuffle_join

    edges = edges_ds.map_batches(
        lambda t: t.select(["a", "b"]),
        batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    def _nodes(t: pa.Table) -> pa.Table:
        a = t.column("a").combine_chunks()
        b = t.column("b").combine_chunks()
        return pa.table({"node": pa.chunked_array([a, b])})

    labels = distinct(
        edges.map_batches(_nodes, batch_format="pyarrow",
                          zero_copy_batch=True),
        "node",
    ).map_batches(
        lambda t: t.append_column("lbl", t.column("node")),
        batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    def _label_sum(ds) -> int:
        parts = ds.map_batches(
            lambda df: pd.DataFrame(
                {"s": [str(df["lbl"].astype(object).sum())]}
            ),
            batch_format="pandas",
        ).to_pandas()
        return sum(int(x) for x in parts["s"]) if len(parts) else 0

    prev_sum = _label_sum(labels)
    for _ in range(max_iter):
        e1 = shuffle_join(edges, labels, on="a", right_on="node")
        e1 = e1.map_batches(
            lambda df: df.rename(columns={"lbl": "la"})[["a", "b", "la"]],
            batch_format="pandas",
        )
        e2 = shuffle_join(e1, labels, on="b", right_on="node")

        def msgs(t: pa.Table) -> pa.Table:
            # arrow blocks, matching `labels` — Dataset.union requires
            # homogeneous block types
            return pa.table({
                "node": pa.chunked_array(
                    [t.column("a").combine_chunks(),
                     t.column("b").combine_chunks()]),
                "lbl": pa.chunked_array(
                    [t.column("lbl").combine_chunks(),
                     t.column("la").combine_chunks()]),
            })

        m = e2.map_batches(msgs, batch_format="pyarrow",
                           zero_copy_batch=True).union(labels)
        new_labels = m.groupby("node").min("lbl").map_batches(
            lambda t: t.rename_columns(
                ["lbl" if c == "min(lbl)" else c
                 for c in t.column_names]),
            batch_format="pyarrow", zero_copy_batch=True,
        ).materialize()
        new_sum = _label_sum(new_labels)
        labels = new_labels
        if new_sum == prev_sum:
            break
        prev_sum = new_sum
    out = labels.to_pandas().rename(
        columns={"node": "doc_id", "lbl": "cluster"})
    return out[["doc_id", "cluster"]]


@ray.remote
def _min_neighbor_label(idx_pair, label_ref):
    """One edge block's min-label partial: each node's label lowered to
    its neighbors' min label over this block (merge = elementwise min)."""
    src, dst, _w = idx_pair
    out = label_ref.copy()
    np.minimum.at(out, src, label_ref[dst])
    np.minimum.at(out, dst, label_ref[src])
    return out


def connected_components(edges_ds, max_iter: int = 64,
                         driver_limit: int = 2_000_000) -> pd.DataFrame:
    """Connected components of the (a, b) edge Dataset by iterative
    min-label propagation. Up to ``driver_limit`` EDGES the edges are
    indexed once (functions.graph.edge_index) and each iteration is one
    task per edge block against the broadcast label vector plus an
    elementwise min on the driver. Labels are node indices (index order
    is value order, so the min index is the min id), and the label
    vector holds only the DUP-GRAPH nodes — documents that verified as
    near-duplicates — a small fraction of the corpus by construction.
    Past ``driver_limit`` edges the loop switches to
    :func:`_connected_components_shuffle` (labels as a Dataset, shuffle
    joins + Ray groupby-min — same fixpoint, nothing graph-sized on the
    driver; equality pinned in tests/test_functions.py's mega-cluster
    fixture).

    Converges in O(graph diameter) rounds; near-dup clusters are shallow."""
    from recon_ray.functions.graph import edge_index

    edges_ds = edges_ds.materialize()
    if edges_ds.count() > driver_limit:
        return _connected_components_shuffle(edges_ds, max_iter)
    nodes, idx_refs = edge_index(edges_ds, "a", "b")
    if not len(nodes):
        return pd.DataFrame(columns=["doc_id", "cluster"])
    label = np.arange(len(nodes))
    for _ in range(max_iter):
        label_ref = ray.put(label)
        new = functools.reduce(np.minimum, ray.get(
            [_min_neighbor_label.remote(i, label_ref) for i in idx_refs]))
        if np.array_equal(new, label):
            break
        label = new
    return pd.DataFrame({"doc_id": nodes, "cluster": nodes[label]})


def minhash_lsh_dedup(
    docs_ds,
    threshold: float = 0.8,
    n_perm: int = _N_PERM,
    n_bands: int = 16,
    k: int = 3,
    concurrency: int = 4,
    candidate_broadcast_limit: int = 1_000_000,
    pairs_as_dataset: bool = False,
) -> dict:
    """Full near-dup pipeline. Returns {"pairs": verified pair df,
    "clusters": doc_id→cluster_rep df, "n_duplicates": int}.

    ``pairs_as_dataset=True`` returns "pairs" as the verified
    ray.data.Dataset instead of collecting it — the escape hatch for a
    pathological corpus whose near-dup EDGE LIST outgrows the driver
    (dup pairs grow quadratically inside a dup cluster; a 1M-doc
    cluster is ~5·10^11 edges). Consume it with write_parquet or an
    aggregate; the clusters frame stays driver-side (doc-sized, not
    pair-sized).

    Distributed end to end: candidate pairs stay a Dataset; verification
    fetches only the CANDIDATE docs' shingle sets (semi-join by broadcast
    id-set, never the corpus) and runs exact Jaccard in map_batches over
    the pair Dataset; clustering is iterative min-label propagation as
    combiner passes over the edge Dataset (see connected_components).
    Past ``candidate_broadcast_limit`` candidate PAIRS the driver-side
    structures (candidate-id set, shingle dict) would outgrow a heap, so
    the whole verification goes distributed: the distinct endpoint ids
    stay a Dataset, the candidate docs are selected by a shuffle
    semi-join, and their shingle sets shuffle-join onto the pair
    Dataset's two endpoints (sets ride the shuffle once each, nothing
    pair-scaled ever collects on the driver; equality pinned in
    tests/test_functions.py)."""
    from recon_ray.functions.relational import (
        distinct,
        semi_join,
        shuffle_join,
    )

    sigs = docs_ds.map_batches(
        make_minhash_batch(n_perm, k),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    cand_ds = lsh_candidate_pairs(sigs, n_bands=n_bands, n_perm=n_perm)
    cand_ds = cand_ds.materialize()  # reused: id-collect + verify pass
    n_pairs = cand_ds.count()
    if n_pairs == 0:
        import ray.data as _rd

        empty = pd.DataFrame(columns=["a", "b", "jaccard"])
        return {
            "pairs": (_rd.from_arrow(pa.table({
                "a": pa.array([], pa.int64()),
                "b": pa.array([], pa.int64()),
                "jaccard": pa.array([], pa.float64())}))
                if pairs_as_dataset else empty),
            "clusters": pd.DataFrame(columns=["doc_id", "cluster"]),
            "n_duplicates": 0,
        }
    ends_ds = cand_ds.map_batches(
        lambda df: pd.DataFrame(
            {"i": pd.concat([df["a"], df["b"]], ignore_index=True)}
        ),
        batch_format="pandas",
    )
    if n_pairs <= candidate_broadcast_limit:
        cand_ids = set(np.unique(ends_ds.to_pandas()["i"]).tolist())
        # shingle sets for candidate docs only (candidates << corpus)
        sh_df = semi_join(
            docs_ds.select_columns(["doc_id", "text"]), cand_ids,
            "doc_id",
        ).map_batches(
            make_shingle_batch(k), batch_format="pyarrow",
            zero_copy_batch=True,
        ).to_pandas()
        sh_ref = ray.put(
            {
                d: np.asarray(s, dtype=np.uint64)
                for d, s in zip(sh_df["doc_id"], sh_df["shingles"])
            }
        )
        verified_ds = cand_ds.map_batches(
            _verify_pairs_fn(sh_ref, threshold), batch_format="pandas"
        ).materialize()  # reused: driver pair table + CC edge passes
    else:
        # fully distributed: no id set, no shingle dict on the driver
        ids_ds = distinct(ends_ds, "i")
        cand_docs = shuffle_join(
            docs_ds.select_columns(["doc_id", "text"]), ids_ds,
            on="doc_id", right_on="i",
        )
        sh_ds = cand_docs.map_batches(
            make_shingle_batch(k), batch_format="pyarrow",
            zero_copy_batch=True,
        )
        verified_ds = _verify_pairs_shuffle(
            cand_ds, sh_ds, threshold
        ).materialize()
    if pairs_as_dataset:
        verified = verified_ds.sort(["a", "b"])
    else:
        verified = (
            verified_ds.to_pandas().sort_values(["a", "b"])
            .reset_index(drop=True)
        )
    clusters = connected_components(verified_ds)
    clusters = clusters.sort_values("doc_id").reset_index(drop=True)
    n_dup = int((clusters["doc_id"] != clusters["cluster"]).sum())
    return {"pairs": verified, "clusters": clusters, "n_duplicates": n_dup}


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


class SimHasher:
    """64-bit SimHash signatures: sign-sum of per-word hash bits.

    Vectorized per batch: sha1 runs once per DISTINCT word (cached across
    batches in the actor), the bit expansion and sign accumulation are one
    numpy einsum over (n_distinct_words, 64) per doc group."""

    def __init__(self):
        self.word = WORD_RE
        self._cache: dict[str, int] = {}

    def _hash_words(self, words: list[str]) -> np.ndarray:
        c = self._cache
        out = np.empty(len(words), dtype=np.uint64)
        for i, w in enumerate(words):
            h = c.get(w)
            if h is None:
                h = int.from_bytes(hashlib.sha1(w.encode()).digest()[:8],
                                   "little")
                c[w] = h
            out[i] = h
        return out

    def simhash(self, text: str) -> int:
        words = [w.lower() for w in self.word.findall(text)]
        if not words:
            return 0
        hs = self._hash_words(words)
        shifts = np.arange(64, dtype=np.uint64)
        bits = (hs[:, None] >> shifts[None, :]) & np.uint64(1)  # (n_words, 64)
        acc = (2 * bits.astype(np.int64) - 1).sum(axis=0)
        return int(((acc > 0).astype(np.uint64) << shifts).sum())

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "simhash": pa.array(
                    [self.simhash(t) for t in texts], pa.uint64()
                ),
            }
        )


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def _hamming64_vec(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount of x^y (uint8 view + unpackbits)."""
    xor = (x ^ y).astype(np.uint64)
    as_bytes = xor.view(np.uint8).reshape(len(xor), 8)
    return np.unpackbits(as_bytes, axis=1).sum(axis=1).astype(np.int64)


def hash64_neardup_pairs(
    sig_ds,
    hash_col: str,
    id_col: str = "doc_id",
    max_hamming: int = 3,
    n_bands: int = 4,
) -> pd.DataFrame:
    """Near-dup pairs over ANY 64-bit hash column by banded Hamming LSH:
    ``n_bands`` equal bit-slices of the hash (pigeonhole: a pair within
    Hamming ≤ n_bands-1 shares at least one exact band), then exact
    popcount verify. Pair enumeration + verify run once per HASH BUCKET
    of band keys (one vectorized self-merge + popcount per bucket), not
    once per band key. Returns (a, b, hamming) with a < b.

    The signature dataset is the only thing that shuffles (id + banded
    key + hash — tens of bytes/row); payloads/text never ride it. Shared
    by :func:`simhash_dedup` (text) and multimodal.image_neardup_pairs
    (perceptual hashes)."""
    from recon_ray.functions.relational import bucketed_group_apply

    if 64 % n_bands:
        raise ValueError("n_bands must divide 64")
    bits = 64 // n_bands
    mask = np.uint64((1 << bits) - 1)

    def bands(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        sh = batch.column(hash_col).to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        band_idx = np.arange(n_bands, dtype=np.uint64)
        keys = (sh[:, None] >> (band_idx * np.uint64(bits))[None, :]) & mask
        return pa.table(
            {
                "__id": pa.array(np.repeat(ids, n_bands), pa.int64()),
                "band": pa.array(
                    np.tile(np.arange(n_bands, dtype=np.int32), n), pa.int32()
                ),
                "key": pa.array(keys.reshape(-1).astype(np.int64), pa.int64()),
                "__h": pa.array(np.repeat(sh, n_bands), pa.uint64()),
            }
        )

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["band", "key", "__id"])
        m = d.merge(d, on=["band", "key"])
        m = m[m["__id_x"] < m["__id_y"]]
        if len(m) == 0:
            return pd.DataFrame(
                {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64"),
                 "hamming": pd.Series(dtype="int64")}
            )
        ham = _hamming64_vec(
            m["__h_x"].to_numpy().astype(np.uint64),
            m["__h_y"].to_numpy().astype(np.uint64),
        )
        out = pd.DataFrame(
            {"a": m["__id_x"].values, "b": m["__id_y"].values, "hamming": ham}
        )
        return out[out["hamming"] <= max_hamming].drop_duplicates(["a", "b"])

    banded = sig_ds.map_batches(bands, batch_format="pyarrow",
                                zero_copy_batch=True)
    df = bucketed_group_apply(banded, ["band", "key"], bucket_pairs).to_pandas()
    if len(df) == 0:
        return pd.DataFrame(columns=["a", "b", "hamming"])
    return (
        df.drop_duplicates(["a", "b"]).sort_values(["a", "b"]).reset_index(drop=True)
    )


def simhash_dedup(docs_ds, max_hamming: int = 3, concurrency: int = 4) -> pd.DataFrame:
    """Near-dup pairs by SimHash: 4 bands of 16 bits (any pair within
    Hamming ≤3 of 64 bits shares at least one exact band), Hamming verify
    — the generic :func:`hash64_neardup_pairs` over the simhash column."""
    sigs_ds = docs_ds.map_batches(
        make_simhash_batch(), batch_format="pyarrow", zero_copy_batch=True
    )
    return hash64_neardup_pairs(
        sigs_ds, "simhash", id_col="doc_id",
        max_hamming=max_hamming, n_bands=4,
    )


# ---------------------------------------------------------------------------
# Embedding near-dup
# ---------------------------------------------------------------------------


def _angular_meta(sub: np.ndarray):
    c = sub.mean(axis=0)
    cn = c / max(np.linalg.norm(c), 1e-12)
    radius = float(np.arccos(np.clip(sub @ cn, -1.0, 1.0)).max())
    return cn, radius


@ray.remote(num_returns=2)
def _prep_emb_block(tbl: pa.Table, id_col: str, emb_col: str,
                    max_subs: int = 16):
    """Block prep task: normalized matrix stays in the OBJECT STORE (first
    return); only the tiny pruning metadata travels to the driver (second
    return): a block-level (n, centroid, radius) plus per-signature-run
    sub-block metas [(lo, hi, centroid, radius), ...] when the block
    arrived pre-sorted with a ``__lsh`` column — a block straddling two
    angular buckets has a useless block-level radius, but its runs stay
    tight, so the driver prunes at run granularity."""
    empty = ((np.zeros(0, np.int64), np.zeros((0, 1))),
             ((0, None, 0.0), []))
    if id_col not in tbl.column_names:
        # a sort can emit ZERO-COLUMN empty blocks when range boundaries
        # land between duplicate keys (clustered LSH signatures)
        return empty
    ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
    n = len(ids)
    if n == 0:
        return empty
    col = tbl.column(emb_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    # list<float> arrow column OR Ray tensor-extension column
    arr = col.to_numpy(zero_copy_only=False)
    mat = (np.stack(arr) if arr.dtype == object else np.asarray(arr)).astype(
        np.float64
    ).reshape(n, -1)
    mat = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    cn, radius = _angular_meta(mat)
    if "__lsh" in tbl.column_names and n > 1:
        sig = np.asarray(
            tbl.column("__lsh").to_numpy(zero_copy_only=False),
            dtype=np.uint64)
        cuts = np.flatnonzero(np.diff(sig)) + 1
        bounds = np.concatenate(([0], cuts, [n]))
        # cap the driver-side meta size: merge the smallest run into its
        # smaller neighbor until ≤ max_subs runs remain
        while len(bounds) - 1 > max_subs:
            sizes = np.diff(bounds)
            i = int(sizes.argmin())
            if i == 0:
                k = 1
            elif i == len(sizes) - 1:
                k = i
            else:
                k = i if sizes[i - 1] <= sizes[i + 1] else i + 1
            bounds = np.delete(bounds, k)
        subs = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            sc, sr = _angular_meta(mat[lo:hi])
            subs.append((int(lo), int(hi), sc, sr))
    else:
        subs = [(0, n, cn, radius)]
    return (ids, mat), ((n, cn, radius), subs)


@ray.remote
def _emb_block_pair(a, b, threshold: float, same: bool,
                    alo: int = 0, ahi: "int | None" = None,
                    blo: int = 0, bhi: "int | None" = None
                    ) -> pd.DataFrame:
    """One (sub-)block-pair matmul; emits only the (a<b, cosine≥threshold)
    hits. ``same`` means the two slices are the IDENTICAL slice (use the
    triangle); distinct slices of one block are a normal cross pair."""
    ids_a, ma = a
    ids_b, mb = b
    ids_a, ma = ids_a[alo:ahi], ma[alo:ahi]
    ids_b, mb = ids_b[blo:bhi], mb[blo:bhi]
    if len(ids_a) == 0 or len(ids_b) == 0:
        return pd.DataFrame(columns=["a", "b", "cosine"])
    sims = ma @ mb.T
    if same:
        sims = np.triu(sims, k=1)  # each within-block pair once, no self
    rows, cols = np.nonzero(sims >= threshold)
    if len(rows) == 0:
        return pd.DataFrame(columns=["a", "b", "cosine"])
    ia = ids_a[rows].astype(np.int64)
    ib = ids_b[cols].astype(np.int64)
    lo = np.minimum(ia, ib)
    hi = np.maximum(ia, ib)
    keep = lo != hi
    return pd.DataFrame(
        {
            "a": lo[keep],
            "b": hi[keep],
            "cosine": np.round(sims[rows, cols][keep], 6),
        }
    )


def _lsh_presort_signature(t: pa.Table, emb_col: str,
                           n_planes: int, seed: int) -> pa.Table:
    """Coarse angular bucket code per row (uint64) — the SAME seeded
    random planes in every batch, so the signature is a pure function of
    the embedding and the global sort on it is stable.

    NOT packed sign bits: numeric order on a sign-bit word scatters a
    cluster the moment one high plane cuts it. Instead the code is
    (signed strongest plane, signed second-strongest plane): the
    largest-|projection| plane is far from its decision boundary for
    every point of a tight cluster, so the whole cluster lands in one
    (or rarely two) buckets and a range sort yields angularly coherent
    blocks."""
    col = t.column(emb_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    arr = col.to_numpy(zero_copy_only=False)
    n = len(t)
    if n == 0:
        return t.append_column("__lsh", pa.array([], pa.uint64()))
    mat = (np.stack(arr) if arr.dtype == object else np.asarray(arr)
           ).astype(np.float64).reshape(n, -1)
    mat = mat / np.maximum(
        np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    planes = np.random.default_rng(seed).standard_normal(
        (mat.shape[1], n_planes))
    proj = mat @ planes
    mag = np.abs(proj)
    top1 = mag.argmax(axis=1)
    r = np.arange(n)
    code1 = (top1 * 2 + (proj[r, top1] >= 0)).astype(np.uint64)
    mag[r, top1] = -1.0
    top2 = mag.argmax(axis=1)
    code2 = (top2 * 2 + (proj[r, top2] >= 0)).astype(np.uint64)
    sig = code1 * np.uint64(2 * n_planes) + code2
    return t.append_column("__lsh", pa.array(sig, pa.uint64()))


def embedding_neardup(
    emb_ds, threshold: float = 0.98, id_col: str = "vec_id",
    emb_col: str = "embedding", presort: bool = True,
    presort_planes: int = 16, presort_seed: int = 0x5EED,
    block_rows: int = 4096,
    _stats: "dict | None" = None,
) -> pd.DataFrame:
    """Exact cosine near-dup pairs (a<b, cosine≥threshold), blocked: the
    corpus materializes as OBJECT-STORE block refs (never on the driver),
    each block is normalized once by a prep task, and the B(B+1)/2 block
    pairs run as Ray tasks that fetch their two blocks zero-copy and emit
    only the threshold hits. The Dataset API has no cross-join, so this is
    the documented raw-task escape hatch (block cross-product).

    Block pairs are pruned EXACTLY with an angular triangle bound: a pair
    of blocks with centroid angle θ and radii r_a, r_b can't contain a hit
    unless cos(max(0, θ − r_a − r_b)) ≥ threshold. ``presort=True``
    (default) first range-sorts the corpus by a coarse seeded
    signed-random-projection signature so blocks are angularly coherent
    and the bound actually fires — one extra narrow shuffle (id +
    embedding only) buys an O(B) task count on clustered data instead of
    O(B²); exactness is untouched because the bound, not the signature,
    decides pruning. Repartition upstream to size blocks so two fit in a
    worker heap. ``_stats`` (tests/telemetry) receives
    {n_blocks, n_pairs_possible, n_pairs_run}."""
    pre = emb_ds.select_columns([id_col, emb_col])
    if presort:
        pre = pre.map_batches(
            _lsh_presort_signature, batch_format="pyarrow",
            fn_kwargs={"emb_col": emb_col, "n_planes": presort_planes,
                       "seed": presort_seed},
        ).sort("__lsh")
    # coalesce to uniform ``block_rows`` blocks (order-preserving):
    # the pair-task count is quadratic in BLOCKS, so an input arriving
    # in many tiny blocks (e.g. post-filter) must not leak its block
    # structure into the cross-product — same re-batch guard as the
    # graph canon stages
    pre = pre.map_batches(lambda t: t, batch_format="pyarrow",
                          batch_size=block_rows)
    refs = pre.materialize().to_arrow_refs()
    prepped = [_prep_emb_block.remote(r, id_col, emb_col) for r in refs]
    data_refs = [p[0] for p in prepped]
    metas = ray.get([p[1] for p in prepped])
    theta_max = float(np.arccos(np.clip(threshold, -1.0, 1.0)))

    def _pruned(c_i, r_i, c_j, r_j) -> bool:
        ang = float(np.arccos(np.clip(np.dot(c_i, c_j), -1.0, 1.0)))
        return ang - r_i - r_j > theta_max

    # flat sub-block index: (block, lo, hi, centroid, radius)
    entries = []
    for bi, (blk, subs) in enumerate(metas):
        if blk[0] == 0:
            continue
        for lo, hi, sc, sr in subs:
            entries.append((bi, lo, hi, sc, sr))
    blocks = {bi: blk for bi, (blk, _s) in enumerate(metas) if blk[0]}
    subs_by_block: dict = {}
    for e in entries:  # group once: O(E), then O(1) per block pair
        subs_by_block.setdefault(e[0], []).append(e)
    tasks = []
    n_run = 0
    # two-level prune: block-level bound first (B² driver work), then
    # sub-run bounds only inside surviving block pairs — keeps the
    # driver loop from going quadratic in SUB-blocks at large B
    bids = sorted(blocks)
    for x, i in enumerate(bids):
        _n_i, c_i, r_i = blocks[i]
        subs_i = subs_by_block.get(i, [])
        for j in bids[x:]:
            _n_j, c_j, r_j = blocks[j]
            if i != j and _pruned(c_i, r_i, c_j, r_j):
                continue
            subs_j = subs_by_block.get(j, [])
            for si, (_, lo_i, hi_i, sc_i, sr_i) in enumerate(subs_i):
                start = si if i == j else 0
                for sj in range(start, len(subs_j)):
                    _, lo_j, hi_j, sc_j, sr_j = subs_j[sj]
                    identical = i == j and si == sj
                    if not identical and _pruned(sc_i, sr_i, sc_j, sr_j):
                        continue
                    n_run += 1
                    tasks.append(
                        _emb_block_pair.remote(
                            data_refs[i], data_refs[j], threshold,
                            identical, lo_i, hi_i, lo_j, hi_j,
                        )
                    )
    if _stats is not None:
        ne = len(entries)
        _stats.update(
            n_blocks=ne, n_pairs_possible=ne * (ne + 1) // 2,
            n_pairs_run=n_run,
        )
    # drop empty parts pre-concat (pandas deprecates all-NA entries in
    # concat dtype inference)
    parts = [p for p in ray.get(tasks) if len(p)]
    df = (
        pd.concat(parts, ignore_index=True)
        if parts
        else pd.DataFrame(columns=["a", "b", "cosine"])
    )
    if df.empty:
        return pd.DataFrame(columns=["a", "b", "cosine"])
    return (
        df.drop_duplicates(["a", "b"])
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )


# ---------------------------------------------------------------------------
# exact n-gram Jaccard join (prefix filtering)
# ---------------------------------------------------------------------------


def hot_shingles(sh_ds, df_threshold: int = 64) -> np.ndarray:
    """Shingle hashes whose document frequency ≥ ``df_threshold`` — the
    'boilerplate' set that would blow up prefix-filter buckets. Per-batch
    partial counts (ShingleSets already dedups within a doc) → bucketed
    sum that FILTERS to hot rows inside the bucket, so only the tiny hot
    set is ever collected, never the vocabulary."""
    from recon_ray.functions.relational import bucketed_group_apply

    def counts(batch: pa.Table) -> pa.Table:
        shingles = batch.column("shingles")
        if isinstance(shingles, pa.ChunkedArray):
            shingles = shingles.combine_chunks()
        flat = shingles.flatten().to_numpy(zero_copy_only=False)
        if len(flat) == 0:
            return pa.table(
                {"hash": pa.array([], pa.uint64()),
                 "cnt": pa.array([], pa.int64())}
            )
        u, c = np.unique(np.asarray(flat, dtype=np.uint64),
                         return_counts=True)
        return pa.table(
            {"hash": pa.array(u, pa.uint64()),
             "cnt": pa.array(c.astype(np.int64), pa.int64())}
        )

    part = sh_ds.map_batches(
        counts, batch_format="pyarrow", zero_copy_batch=True
    )

    def bucket_sum(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("hash", sort=False)["cnt"].sum().reset_index()
        return s[s["cnt"] >= df_threshold][["hash"]]

    hot = bucketed_group_apply(part, ["hash"], bucket_sum).to_pandas()
    if "hash" not in hot.columns:  # no bucket had a hot hash
        return np.zeros(0, np.uint64)
    return np.sort(hot["hash"].to_numpy().astype(np.uint64))


def prefix_candidate_pairs(sh_ds, threshold: float,
                           hot: "np.ndarray | None" = None):
    """EXACT-recall candidate pairs for Jaccard ≥ threshold by prefix
    filtering (the PPJoin family): order each doc's shingle hashes
    ascending (a global total order on the shingle universe) and emit only
    the first ``|s| - ⌈τ·|s|⌉ + 1`` of them; if J(a,b) ≥ τ the two
    prefixes MUST share a hash, so grouping on the emitted hash finds
    every qualifying pair — unlike MinHash banding there is no missed-pair
    probability, and only (hash, doc_id) rows ride the shuffle.

    Empty shingle sets (docs shorter than k) pair with each other
    (J(∅,∅)=1) via a sentinel hash.

    ``hot`` (from :func:`hot_shingles`) is the scale path for
    boilerplate-heavy corpora: a hash in MANY prefixes makes a quadratic
    bucket, so production PPJoin orders the universe rare-first. Passing
    the hot set switches the global order to (is_hot, hash) — still ONE
    total order used by every doc, so exactness is untouched, but
    prefixes now hold the rarest shingles and hot hashes only appear in
    prefixes of docs made almost entirely of boilerplate."""
    from recon_ray.functions.relational import bucketed_group_apply, distinct

    hot_sorted = np.sort(np.asarray(hot, dtype=np.uint64)) if hot is not None and len(hot) else None

    def prefixes(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        out_h: list[np.ndarray] = []
        out_d: list[np.ndarray] = []
        shingles = batch.column("shingles")
        if isinstance(shingles, pa.ChunkedArray):
            shingles = shingles.combine_chunks()
        for i in range(len(ids)):
            s = np.asarray(shingles[i].as_py(), dtype=np.uint64)
            if len(s) == 0:
                out_h.append(np.array([0], dtype=np.uint64))  # sentinel
                out_d.append(np.array([ids[i]], dtype=np.int64))
                continue
            if hot_sorted is not None:
                is_hot = np.isin(s, hot_sorted, assume_unique=True)
                s = np.concatenate([s[~is_hot], s[is_hot]])  # rare-first
            p = len(s) - int(math.ceil(threshold * len(s))) + 1
            out_h.append(s[:p])
            out_d.append(np.full(p, ids[i], dtype=np.int64))
        return pa.table(
            {
                "phash": pa.array(np.concatenate(out_h), pa.uint64()),
                "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
            }
        )

    emitted = sh_ds.map_batches(
        prefixes, batch_format="pyarrow", zero_copy_batch=True
    )

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["phash", "doc_id"])
        m = d.merge(d, on="phash")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        return (
            m[["doc_id_x", "doc_id_y"]]
            .drop_duplicates()
            .rename(columns={"doc_id_x": "a", "doc_id_y": "b"})
        )

    pairs = bucketed_group_apply(emitted, ["phash"], bucket_pairs)
    return distinct(pairs, ["a", "b"])


def ngram_jaccard_dedup(
    docs_ds, threshold: float = 0.8, k: int = 3,
    freq_order_df: "int | None" = None,
) -> dict:
    """Exact n-gram-Jaccard near-dup join: prefix-filtered candidates
    (EXACT recall — see prefix_candidate_pairs) → exact Jaccard verify in
    map_batches over broadcast candidate shingle sets → min-label
    clustering. Same return shape as minhash_lsh_dedup; use this when the
    threshold contract must be exact. ``freq_order_df`` enables the
    rare-first prefix ordering (hot = shingles with document frequency ≥
    the value) for boilerplate-heavy corpora — identical output, bounded
    buckets."""
    from recon_ray.functions.relational import semi_join

    sh_all = docs_ds.map_batches(
        make_shingle_batch(k), batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # reused: prefix emit + verify fetch
    hot = hot_shingles(sh_all, freq_order_df) if freq_order_df else None
    cand_ds = prefix_candidate_pairs(
        sh_all, threshold, hot=hot
    ).materialize()
    cand_ids = set(
        np.unique(
            cand_ds.map_batches(
                lambda df: pd.DataFrame(
                    {"i": pd.concat([df["a"], df["b"]], ignore_index=True)}
                ),
                batch_format="pandas",
            ).to_pandas()["i"]
        ).tolist()
    )
    if not cand_ids:
        return {
            "pairs": pd.DataFrame(columns=["a", "b", "jaccard"]),
            "clusters": pd.DataFrame(columns=["doc_id", "cluster"]),
            "n_duplicates": 0,
        }
    sh_df = semi_join(sh_all, cand_ids, "doc_id").to_pandas()
    sh_ref = ray.put(
        {
            d: np.asarray(s, dtype=np.uint64)
            for d, s in zip(sh_df["doc_id"], sh_df["shingles"])
        }
    )
    verified_ds = cand_ds.map_batches(
        _verify_pairs_fn(sh_ref, threshold), batch_format="pandas"
    ).materialize()
    verified = (
        verified_ds.to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    clusters = connected_components(verified_ds)
    n_dup = int((clusters["doc_id"] != clusters["cluster"]).sum()) if len(clusters) else 0
    return {"pairs": verified, "clusters": clusters, "n_duplicates": n_dup}


# ---------------------------------------------------------------------------
# keep-best dedup policy
# ---------------------------------------------------------------------------


def dedup_keep_best(docs_ds, clusters: pd.DataFrame,
                    quality_batch_fn=None) -> dict:
    """Turn a near-dup clustering (minhash/simhash/ngram — the
    ``clusters`` frame of their results: doc_id → cluster) into a
    keep/drop decision: per cluster keep the HIGHEST-quality member
    (default quality = whitespace token count; ties → smallest doc_id),
    drop the rest.

    Quality scores compute DISTRIBUTED over only the cluster members
    (semi-join → map_batches); the argmax itself runs on the driver
    because the dup graph is a small fraction of the corpus by
    construction — the same contract as connected_components, and the
    same swap (shuffle join + grouped max) applies if it ever outgrows
    the driver. The returned ``filtered`` Dataset streams the corpus
    through a broadcast drop-set filter — no shuffle, no
    materialization.

    Returns {"keep": DataFrame(doc_id, cluster, quality, keep),
    "drop_ids": ndarray, "filtered": Dataset}."""
    from recon_ray.functions.relational import semi_join

    if len(clusters) == 0:
        return {
            "keep": pd.DataFrame(
                columns=["doc_id", "cluster", "quality", "keep"]
            ),
            "drop_ids": np.zeros(0, np.int64),
            "filtered": docs_ds,
        }
    if quality_batch_fn is None:
        def quality_batch_fn(batch: pa.Table) -> pa.Table:
            texts = batch.column("text").to_pylist()
            q = np.fromiter(
                (len(t.split()) for t in texts), dtype=np.int64,
                count=len(texts),
            )
            return pa.table(
                {
                    "doc_id": batch.column("doc_id"),
                    "quality": pa.array(q, pa.int64()),
                }
            )

    member_ids = set(int(d) for d in clusters["doc_id"])
    q = (
        semi_join(docs_ds, member_ids, "doc_id")
        .map_batches(
            quality_batch_fn, batch_format="pyarrow", zero_copy_batch=True
        )
        .to_pandas()
    )
    merged = clusters.merge(q, on="doc_id", how="left")
    merged["quality"] = merged["quality"].fillna(0)
    merged = merged.sort_values(
        ["cluster", "quality", "doc_id"],
        ascending=[True, False, True],
        kind="mergesort",
    )
    merged["keep"] = ~merged.duplicated("cluster", keep="first")
    drop_ids = merged.loc[~merged["keep"], "doc_id"].to_numpy(np.int64)
    drop_ref = ray.put(set(int(d) for d in drop_ids))

    def drop_filter(batch: pa.Table) -> pa.Table:
        drop = ray.get(drop_ref) if isinstance(
            drop_ref, ray.ObjectRef) else drop_ref
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        mask = np.fromiter(
            (int(i) not in drop for i in ids), dtype=bool, count=len(ids)
        )
        return batch.filter(pa.array(mask))

    filtered = docs_ds.map_batches(
        drop_filter, batch_format="pyarrow", zero_copy_batch=True
    )
    out = merged[["doc_id", "cluster", "quality", "keep"]].reset_index(
        drop=True
    )
    return {"keep": out, "drop_ids": drop_ids, "filtered": filtered}


# ---------------------------------------------------------------------------
# cross-document exact n-gram duplication (the substring-level dedup signal
# from "Deduplicating Training Data Makes Language Models Better", Lee et
# al. 2022 — training corpora carry verbatim 50+-char runs repeated across
# documents; reference analogue: the ExampleStore text-hash dedup
# (recon/store.py) generalized from whole-doc to substring granularity)
# ---------------------------------------------------------------------------

_ROLL_B = np.uint64(1099511628211)  # FNV prime; ODD → invertible mod 2^64
_ROLL_BINV = np.uint64(pow(1099511628211, -1, 1 << 64))


def char_ngram_hashes(text: str, n: int) -> np.ndarray:
    """Polynomial rolling hash of EVERY n-CHARACTER window (codepoints via
    UTF-32, so the window unit matches SQL's character substring — byte
    windows would diverge from the oracle on non-ASCII text), fully
    vectorized: h_i = Σ_j (c[i+j]+1)·B^(n-1-j) mod 2^64. Uses the
    prefix-sum identity h_i = B^(n-1+i) · (S[i+n-1] − S[i-1]) with
    S = cumsum((c+1)·B^(−j)) — B is odd so B⁻¹ exists mod 2^64 and uint64
    wraparound IS the modulus. O(len) numpy work, no per-window loop."""
    b = np.frombuffer(
        text.encode("utf-32-le"), dtype=np.uint32
    ).astype(np.uint64) + np.uint64(1)
    length = len(b)
    if length < n:
        return np.empty(0, np.uint64)
    binv_pow = np.full(length, _ROLL_BINV, np.uint64)
    binv_pow[0] = np.uint64(1)
    np.cumprod(binv_pow, out=binv_pow)  # B^(−j), wrapping mod 2^64
    s = np.cumsum(b * binv_pow)  # S[j], wrapping
    win = s[n - 1:].copy()
    win[1:] -= s[: length - n]
    scale = np.full(length - n + 1, _ROLL_B, np.uint64)
    scale[0] = np.uint64(pow(int(_ROLL_B), n - 1, 1 << 64))
    np.cumprod(scale, out=scale)  # B^(n−1+i)
    return win * scale


def cross_doc_ngram_dups(
    docs_ds,
    n: int = 50,
    stride: int = 1,
    max_docs_per_gram: int = 50,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pd.DataFrame:
    """Document pairs sharing ≥1 exact n-character substring, with the
    count of distinct shared n-grams — the cross-doc duplicated-span
    signal (Lee et al. 2022).

    Flow: map_batches emits (gram_hash u64, doc_id) per-doc-unique; ONE
    hash-bucket shuffle on gram_hash; each bucket self-joins its grams
    vectorized (pairs bounded by max_docs_per_gram² per gram — hot
    boilerplate grams above the cap are SKIPPED, the standard LSH-bucket
    cap) and emits per-bucket partial pair counts; a grouped sum merges
    partials (a pair's grams can land in many buckets). Only u64+id pairs
    ride the shuffle — never text.

    At 100 TB: stride>1 samples every stride-th window position (a
    duplicated run of length ≥ n+stride−1 is still caught), cutting
    shuffle volume by stride×; the pairs table is output-sized, not
    corpus-sized.
    """
    from recon_ray.functions.relational import bucketed_group_apply, grouped_agg

    def grams(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        texts = batch.column(text_col).to_pylist()
        hs_out, id_out = [], []
        for did, txt in zip(ids, texts):
            hs = char_ngram_hashes(txt, n)[::stride]
            if len(hs) == 0:
                continue
            hs = np.unique(hs)
            hs_out.append(hs)
            id_out.append(np.full(len(hs), did, np.int64))
        if not hs_out:
            return pa.table(
                {"h": pa.array([], pa.uint64()),
                 id_col: pa.array([], pa.int64())}
            )
        return pa.table(
            {"h": pa.array(np.concatenate(hs_out), pa.uint64()),
             id_col: pa.array(np.concatenate(id_out), pa.int64())}
        )

    gram_ds = docs_ds.map_batches(
        grams, batch_format="pyarrow", zero_copy_batch=True
    )

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        sz = g.groupby("h")[id_col].transform("size")
        g = g[(sz >= 2) & (sz <= max_docs_per_gram)]
        if g.empty:
            return pd.DataFrame(
                {"doc_a": pd.Series(dtype="int64"),
                 "doc_b": pd.Series(dtype="int64"),
                 "n_shared": pd.Series(dtype="int64")}
            )
        m = g.merge(g, on="h")
        m = m[m[f"{id_col}_x"] < m[f"{id_col}_y"]]
        agg = (
            m.groupby([f"{id_col}_x", f"{id_col}_y"])
            .size().reset_index(name="n_shared")
        )
        agg.columns = ["doc_a", "doc_b", "n_shared"]
        return agg

    partial = bucketed_group_apply(gram_ds, "h", bucket_pairs)
    out = grouped_agg(partial, ["doc_a", "doc_b"], {"n_shared": ["sum"]})
    if out.empty:  # all-empty partials lose the schema through Aggregate
        return pd.DataFrame(
            {"doc_a": pd.Series(dtype="int64"),
             "doc_b": pd.Series(dtype="int64"),
             "n_shared": pd.Series(dtype="int64")}
        )
    out = pd.DataFrame(
        {
            "doc_a": out["doc_a"].astype("int64"),
            "doc_b": out["doc_b"].astype("int64"),
            "n_shared": out["n_shared_sum"].astype("int64"),
        }
    )
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def ngram_contamination(
    corpus_ds,
    probe_ds,
    n: int = 50,
    stride: int = 1,
    max_docs_per_gram: int = 50,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pd.DataFrame:
    """Benchmark decontamination: (corpus doc, probe doc) pairs sharing ≥1
    exact n-character substring, with the count of distinct shared grams —
    the eval-set-leakage scan a training corpus runs against its held-out
    benchmarks before training. Same distributed shape as
    ``cross_doc_ngram_dups`` (only u64+id rides the one hash shuffle), but
    the per-bucket join is CROSS-SIDE only, so pairs are bounded by the
    probe side's gram count; the hot-gram cap applies to the CORPUS side
    (a boilerplate gram matching every corpus doc is noise, but a probe
    gram must never be dropped).

    Returns pandas (doc_id, probe_id, n_shared) sorted."""
    from recon_ray.functions.relational import bucketed_group_apply, grouped_agg

    def grams(side: int):
        def f(batch: pa.Table) -> pa.Table:
            ids = batch.column(id_col).to_numpy(zero_copy_only=False)
            texts = batch.column(text_col).to_pylist()
            hs_out, id_out = [], []
            for did, txt in zip(ids, texts):
                hs = char_ngram_hashes(txt, n)[::stride]
                if len(hs) == 0:
                    continue
                hs = np.unique(hs)
                hs_out.append(hs)
                id_out.append(np.full(len(hs), did, np.int64))
            h = (
                np.concatenate(hs_out) if hs_out else np.empty(0, np.uint64)
            )
            i = (
                np.concatenate(id_out) if id_out else np.empty(0, np.int64)
            )
            return pa.table(
                {
                    "h": pa.array(h, pa.uint64()),
                    "rid": pa.array(i, pa.int64()),
                    "side": pa.array(
                        np.full(len(h), side, np.int8), pa.int8()
                    ),
                }
            )

        return f

    gram_ds = corpus_ds.map_batches(
        grams(0), batch_format="pyarrow", zero_copy_batch=True
    ).union(
        probe_ds.map_batches(
            grams(1), batch_format="pyarrow", zero_copy_batch=True
        )
    )

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        c = g[g["side"] == 0]
        p = g[g["side"] == 1]
        empty = pd.DataFrame(
            {"doc_id": pd.Series(dtype="int64"),
             "probe_id": pd.Series(dtype="int64"),
             "n_shared": pd.Series(dtype="int64")}
        )
        if c.empty or p.empty:
            return empty
        sz = c.groupby("h")["rid"].transform("size")
        c = c[sz <= max_docs_per_gram]
        if c.empty:
            return empty
        m = c.merge(p, on="h", suffixes=("_c", "_p"))
        if m.empty:
            return empty
        agg = (
            m.groupby(["rid_c", "rid_p"]).size().reset_index(name="n_shared")
        )
        agg.columns = ["doc_id", "probe_id", "n_shared"]
        return agg

    partial = bucketed_group_apply(gram_ds, "h", bucket_pairs)
    out = grouped_agg(partial, ["doc_id", "probe_id"], {"n_shared": ["sum"]})
    if out.empty:
        return pd.DataFrame(
            {"doc_id": pd.Series(dtype="int64"),
             "probe_id": pd.Series(dtype="int64"),
             "n_shared": pd.Series(dtype="int64")}
        )
    out = pd.DataFrame(
        {
            "doc_id": out["doc_id"].astype("int64"),
            "probe_id": out["probe_id"].astype("int64"),
            "n_shared": out["n_shared_sum"].astype("int64"),
        }
    )
    return out.sort_values(["doc_id", "probe_id"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# Corpus-wide exact line dedup (C4 §2.3 / RefinedWeb-style cleanup)
# ---------------------------------------------------------------------------

_LINE_BITS = 20  # lines-per-doc cap (2^20); leaves 44 bits for doc_id


def line_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
               sep: str = "\n"):
    """Corpus-wide exact line dedup: every distinct line keeps only its
    FIRST occurrence — lowest ``(doc_id, line_no)`` — and all later
    occurrences are deleted from their documents (the C4 "discard
    duplicated lines across the corpus" rule; RefinedWeb does the same at
    span grain). Returns a lazy Dataset ``(doc_id, n_lines, n_kept,
    text_clean)``; a doc whose every line was removed keeps
    ``text_clean = ""``.

    Distributed shape — the heavy text column NEVER rides a shuffle:
      1. explode docs → narrow ``(h, pos)`` rows (16 B each): ``h`` is a
         vectorized 64-bit content hash of the line (pandas' siphash —
         an equality-only shuffle key, same primitive as the bucket
         router; NOT cryptographic, so an adversarial corpus could force
         collisions — swap in sha256-u64 per line if that matters),
         ``pos = doc_id·2^20 | line_no`` so a single vectorized min
         resolves the global first occurrence;
      2. ONE hash-bucket shuffle of the narrow rows; inside each bucket
         (all rows of a hash land together) a vectorized groupby-transform
         emits exactly the occurrences to DROP (count > 1, pos ≠ min pos);
      3. the drop table — proportional to *removed* occurrences, not the
         corpus — is broadcast (``ray.put`` once, zero-copy read per
         worker) and each doc is rewritten in place in ``map_batches``.
         If the duplicate mass itself outgrew worker memory, step 3 would
         flip to a doc_id-keyed shuffle join (one corpus shuffle); the
         broadcast path is the fast default for real-world dup rates.

    Docs with more than 2^20 lines are rejected (pos packing).
    """
    from recon_ray.functions.relational import bucketed_group_apply

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        # vectorized split (one C pass) + vectorized 64-bit line hashing
        # (pandas' siphash over the object array — equality-only keys, the
        # same primitive the bucket router uses at relational.py)
        split = batch[text_col].str.split(sep, regex=False)
        lens = split.str.len().to_numpy(dtype=np.int64)
        if (lens >= (1 << _LINE_BITS)).any():
            bad = batch[id_col].to_numpy()[lens >= (1 << _LINE_BITS)][0]
            raise ValueError(f"doc {bad} exceeds 2^{_LINE_BITS} lines")
        if lens.sum() == 0:
            return pd.DataFrame(
                {"h": np.array([], np.int64), "pos": np.array([], np.int64)}
            )
        lines = np.concatenate(split.to_numpy())
        # per-doc 0-based line numbers without a Python loop
        ends = np.cumsum(lens)
        line_no = np.arange(ends[-1], dtype=np.int64) - np.repeat(
            ends - lens, lens
        )
        didx = np.repeat(batch[id_col].to_numpy(np.int64), lens)
        h = pd.util.hash_pandas_object(
            pd.Series(lines), index=False
        ).to_numpy()
        # int64 views (equality-only on h; pos is non-negative): Ray's
        # hash aggregate + Acero join coerce uint64 → int64 inconsistently
        return pd.DataFrame(
            {"h": h.view(np.int64),
             "pos": (didx << _LINE_BITS) | line_no}
        )

    lines_ds = ds.map_batches(explode, batch_format="pandas")

    def bucket_drops(g: pd.DataFrame) -> pd.DataFrame:
        grp = g.groupby("h", sort=False)["pos"]
        first = grp.transform("min").to_numpy()
        n = grp.transform("size").to_numpy()
        pos = g["pos"].to_numpy()
        drop_pos = pos[(n > 1) & (pos != first)]
        return pd.DataFrame(
            {id_col: drop_pos >> _LINE_BITS,
             "line_no": drop_pos & ((1 << _LINE_BITS) - 1)}
        )

    drops = bucketed_group_apply(lines_ds, "h", bucket_drops).to_pandas()
    drop_map = (
        {}
        if drops.empty or id_col not in drops.columns
        else {
            int(did): set(g["line_no"].tolist())
            for did, g in drops.groupby(id_col)
        }
    )
    drops_ref = ray.put(drop_map)

    def rewrite(batch: pd.DataFrame) -> pd.DataFrame:
        # per-worker-process cache: ray.get of a pickled dict re-deserializes
        # per call otherwise (zero-copy only holds for numpy buffers)
        key = ("line_dedup_drops", drops_ref.hex())
        dm = _PROCESS_KERNELS.get(key)
        if dm is None:
            dm = _PROCESS_KERNELS[key] = _get(drops_ref)
        # untouched docs pass through WITHOUT splitting: n_lines is a
        # vectorized separator count, text_clean is the original string —
        # only docs with drops (the small set) pay the split+rebuild
        n_lines = (
            batch[text_col].str.count(re.escape(sep)).to_numpy(np.int64) + 1
        )
        ids = batch[id_col].to_numpy()
        n_kept = n_lines.copy()
        cleaned = batch[text_col].tolist()
        for j, did in enumerate(ids):
            drop = dm.get(int(did))
            if not drop:
                continue
            lines = cleaned[j].split(sep)
            kept = [ln for i, ln in enumerate(lines) if i not in drop]
            n_kept[j] = len(kept)
            cleaned[j] = sep.join(kept)
        return pd.DataFrame(
            {id_col: ids, "n_lines": n_lines,
             "n_kept": n_kept, "text_clean": cleaned}
        )

    return ds.map_batches(rewrite, batch_format="pandas")


# ---------------------------------------------------------------------------
# SemDeDup — semantic (embedding-space) dedup, Abbas et al. 2023
# ---------------------------------------------------------------------------


def semdedup(
    emb_ds,
    k: int = 8,
    threshold: float = 0.95,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    n_iter: int = 10,
    seed: int = 99,
) -> pd.DataFrame:
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): k-means-cluster the
    embedding table, then *within each cluster* greedily drop every point
    whose cosine similarity to an already-KEPT point is ≥ ``threshold``.
    Greedy order is ``id_col`` ascending, so the survivor of a duplicate
    set is always its lowest id — deterministic under any block layout.

    Scale shape: the O(m²) pairwise work is confined to single clusters —
    exactly the paper's trick (pick k so n/k keeps m² per-cluster matmuls
    cheap; they use ~100k clusters for LAION-scale). Clustering is the
    repo's streaming quantized k-means (corpus never materializes); the
    per-cluster pass co-locates each cluster with ONE hash-bucket shuffle
    (`bucketed_group_apply` keyed on cluster id, vectorized per bucket).

    Returns pandas ``(vec_id, cluster, keep)`` sorted by id — at 100 TB
    you'd keep the same pipeline lazy and `write_parquet` it instead.
    """
    from recon_ray.functions.relational import bucketed_group_apply
    from recon_ray.functions.similarity import (
        _normalize,
        assign_clusters,
        kmeans,
    )

    model = kmeans(emb_ds, k=k, n_iter=n_iter, seed=seed,
                   emb_col=emb_col, id_col=id_col)
    if model["n"] == 0:
        return pd.DataFrame(
            {id_col: pd.Series(dtype="int64"),
             "cluster": pd.Series(dtype="int64"),
             "keep": pd.Series(dtype="bool")}
        )
    assigned = assign_clusters(emb_ds, model["centroids"], emb_col=emb_col)

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for cl, grp in g.groupby("cluster", sort=False):
            grp = grp.sort_values(id_col, kind="mergesort")
            embs = grp[emb_col].to_numpy()
            m = _normalize(np.stack(embs).astype(np.float64))
            n = len(grp)
            keep = np.ones(n, dtype=bool)
            if n > 1:
                sims = m @ m.T
                for i in range(1, n):
                    if sims[i, :i][keep[:i]].max(initial=-np.inf) >= threshold:
                        keep[i] = False
            outs.append(
                pd.DataFrame(
                    {id_col: grp[id_col].to_numpy(),
                     "cluster": np.full(n, cl, dtype=np.int64),
                     "keep": keep}
                )
            )
        if not outs:
            return pd.DataFrame(
                {id_col: pd.Series(dtype="int64"),
                 "cluster": pd.Series(dtype="int64"),
                 "keep": pd.Series(dtype="bool")}
            )
        return pd.concat(outs, ignore_index=True)

    out = bucketed_group_apply(
        assigned.select_columns([id_col, emb_col, "cluster"]),
        "cluster",
        bucket_fn,
    ).to_pandas()
    return out.sort_values(id_col).reset_index(drop=True)


def levenshtein(a: str, b: str, cap: int | None = None) -> int:
    """Levenshtein distance over the UTF-8 BYTE sequences (numpy row DP,
    O(|a|·|b|)) — byte-level to match DuckDB's ``levenshtein`` exactly
    (ASCII text: identical to character-level; multi-byte code points
    count per byte). With ``cap`` set, returns cap+1 early once a DP row
    minimum exceeds it."""
    if a == b:
        return 0
    ab, bb = a.encode("utf-8"), b.encode("utf-8")
    la, lb = len(ab), len(bb)
    if la == 0 or lb == 0:
        return max(la, lb)
    if cap is not None and abs(la - lb) > cap:
        return cap + 1
    bv = np.frombuffer(bb, dtype=np.uint8)
    prev = np.arange(lb + 1, dtype=np.int64)
    cur = np.empty(lb + 1, dtype=np.int64)
    for i, ch in enumerate(ab, 1):
        cur[0] = i
        sub = prev[:-1] + (bv != np.uint8(ch))
        np.minimum(sub, prev[1:] + 1, out=cur[1:])
        # in-order insertion scan (no vectorized closed form exists)
        c = cur
        for j in range(1, lb + 1):
            if c[j - 1] + 1 < c[j]:
                c[j] = c[j - 1] + 1
        if cap is not None and cur.min() > cap:
            return cap + 1
        prev, cur = cur, prev
    return int(prev[lb])


def edit_distance_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    group_col: str | None = "lang",
    key_len: int = 48,
    block_len: int = 8,
    max_dist: int = 5,
):
    """Fuzzy near-duplicate pairs by bounded Levenshtein over a derived
    key (the first ``key_len`` characters of ``text_col``). Blocking rule
    — EXACT and SQL-replicable, the operator's documented recall
    trade-off: candidates share ``group_col`` and the first ``block_len``
    characters of the key; pairs farther than ``max_dist`` are dropped
    after an exact banded DP verify. Returns a lazy Dataset of
    (id_a, id_b, dist) — the pair table never lands on the driver.

    Scale shape: keys (never full texts) ride ONE hash shuffle on the
    block id; each hash bucket verifies its blocks vectorized+banded.
    Within-block work is quadratic in block size — that is inherent to
    edit-distance joins; choose ``block_len`` so blocks stay small (the
    same knob every blocking-based ER system exposes)."""
    from recon_ray.functions.relational import bucketed_group_apply

    gcols = [group_col] if group_col else []

    def keys_stage(batch: pd.DataFrame) -> pd.DataFrame:
        keys = batch[text_col].astype(str).str.slice(0, key_len)
        out = pd.DataFrame({id_col: batch[id_col], "__key": keys,
                            "__block": keys.str.slice(0, block_len)})
        for g in gcols:
            out[g] = batch[g]
        return out

    keyed = ds.map_batches(keys_stage, batch_format="pandas")
    block_cols = gcols + ["__block"]

    def verify(bucket: pd.DataFrame) -> pd.DataFrame:
        ids_a, ids_b, dists = [], [], []
        for _, blk in bucket.groupby(block_cols, sort=False):
            if len(blk) < 2:
                continue
            rows = blk.sort_values(id_col)
            ids = rows[id_col].to_numpy()
            ks = rows["__key"].to_numpy()
            n = len(rows)
            for i in range(n - 1):
                for j in range(i + 1, n):
                    d = levenshtein(ks[i], ks[j], cap=max_dist)
                    if d <= max_dist:
                        ids_a.append(ids[i])
                        ids_b.append(ids[j])
                        dists.append(d)
        return pd.DataFrame(
            {"id_a": pd.Series(ids_a, dtype="int64"),
             "id_b": pd.Series(ids_b, dtype="int64"),
             "dist": pd.Series(dists, dtype="int64")}
        )

    return bucketed_group_apply(keyed, block_cols, verify)


def jaro_winkler(a: str, b: str) -> float:
    """Jaro-Winkler similarity over the UTF-8 BYTE sequences, matching
    DuckDB's ``jaro_winkler_similarity`` exactly (semantics probed against
    DuckDB: byte-level not codepoint-level, empty string → 0.0, Winkler
    prefix boost scale 0.1 with prefix capped at 4, boost applied only
    when the plain Jaro score exceeds 0.7)."""
    ab, bb = a.encode("utf-8"), b.encode("utf-8")
    la, lb = len(ab), len(bb)
    if la == 0 or lb == 0:
        return 0.0
    if ab == bb:
        jaro = 1.0
    else:
        window = max(la, lb) // 2 - 1
        if window < 0:
            window = 0
        s1 = np.frombuffer(ab, dtype=np.uint8)
        s2 = np.frombuffer(bb, dtype=np.uint8)
        taken = np.zeros(lb, dtype=bool)
        # greedy in-order match scan: for each byte of a, the first
        # not-yet-matched equal byte of b inside the Jaro window
        match_j = np.full(la, -1, dtype=np.int64)
        for i in range(la):
            lo = i - window
            if lo < 0:
                lo = 0
            hi = i + window + 1
            if hi > lb:
                hi = lb
            if lo >= hi:
                continue
            cand = np.nonzero((s2[lo:hi] == s1[i]) & ~taken[lo:hi])[0]
            if cand.size:
                j = lo + int(cand[0])
                taken[j] = True
                match_j[i] = j
        m = int((match_j >= 0).sum())
        if m == 0:
            return 0.0
        ma = s1[match_j >= 0]
        mb = s2[np.sort(match_j[match_j >= 0])]
        t = int((ma != mb).sum()) // 2
        jaro = (m / la + m / lb + (m - t) / m) / 3.0
    if jaro > 0.7:
        l = 0
        for x, y in zip(ab[:4], bb[:4]):
            if x != y:
                break
            l += 1
        jaro += l * 0.1 * (1.0 - jaro)
    return jaro


def jw_name_pairs(ds, text_col: str = "text", min_sim6: int = 0):
    """All within-block pairs of DISTINCT ``text_col`` values scored by
    Jaro-Winkler as a 6-dp integer (``jw6 = round(jw * 1e6)``). Blocking
    rule — exact and SQL-replicable: candidates share the first
    space-delimited token. The distinct-value table (vocab-sized, not
    corpus-sized) is built by the bucketed exact ``distinct`` and only
    those values ride ONE hash shuffle on the block token; each bucket
    enumerates its blocks vectorized. Returns a lazy Dataset of
    (name_a, name_b, jw6) with name_a < name_b.

    Scale shape: corpus-sized work is the distinct combiner; the
    quadratic pair enumeration is confined to per-block distinct values
    (the same knob every blocking-based linkage system exposes)."""
    from recon_ray.functions.relational import bucketed_group_apply, distinct

    names = distinct(ds, [text_col])

    def block_stage(batch: pd.DataFrame) -> pd.DataFrame:
        vals = batch[text_col].astype(str)
        return pd.DataFrame(
            {"__name": vals, "__block": vals.str.split(" ").str[0]}
        )

    keyed = names.map_batches(block_stage, batch_format="pandas")

    def verify(bucket: pd.DataFrame) -> pd.DataFrame:
        na, nb, s6 = [], [], []
        for _, blk in bucket.groupby("__block", sort=False):
            if len(blk) < 2:
                continue
            vals = np.sort(blk["__name"].to_numpy())
            n = len(vals)
            for i in range(n - 1):
                for j in range(i + 1, n):
                    jw = jaro_winkler(vals[i], vals[j])
                    jw6 = int(math.floor(jw * 1e6 + 0.5))
                    if jw6 >= min_sim6:
                        na.append(vals[i])
                        nb.append(vals[j])
                        s6.append(jw6)
        return pd.DataFrame(
            {"name_a": pd.Series(na, dtype=object),
             "name_b": pd.Series(nb, dtype=object),
             "jw6": pd.Series(s6, dtype="int64")}
        )

    return bucketed_group_apply(keyed, "__block", verify)


def fuzzy_join(
    left_ds,
    right_ds,
    left_col: str,
    right_col: str,
    key_len: int = 48,
    block_len: int = 8,
    max_dist: int = 3,
):
    """Two-table record linkage by bounded Levenshtein — the ER "match a
    dirty catalog against the clean one" join. Blocking rule (exact,
    SQL-replicable, the recall knob every blocking-based ER system
    exposes): candidates share the first ``block_len`` characters of the
    comparison key (first ``key_len`` chars of the value); matches
    beyond ``max_dist`` drop after the banded-DP verify.

    Scale shape: only (value-key, side) rows ride ONE hash shuffle on
    the block id; each bucket verifies LEFT × RIGHT within its blocks
    (never left × left). Returns a lazy Dataset of
    (left_value, right_value, dist)."""
    from recon_ray.functions.relational import bucketed_group_apply

    def keyed(col: str, side: int):
        def f(batch: pd.DataFrame) -> pd.DataFrame:
            keys = batch[col].astype(str).str.slice(0, key_len)
            return pd.DataFrame(
                {"__val": batch[col].astype(str), "__key": keys,
                 "__block": keys.str.slice(0, block_len),
                 "__side": np.int64(side)}
            )
        return f

    tagged = left_ds.map_batches(
        keyed(left_col, 0), batch_format="pandas"
    ).union(right_ds.map_batches(keyed(right_col, 1), batch_format="pandas"))

    def verify(bucket: pd.DataFrame) -> pd.DataFrame:
        la, rb, dists = [], [], []
        for _, blk in bucket.groupby("__block", sort=False):
            lrows = blk[blk["__side"] == 0]
            rrows = blk[blk["__side"] == 1]
            if lrows.empty or rrows.empty:
                continue
            for lv, lk in zip(lrows["__val"], lrows["__key"]):
                for rv, rk in zip(rrows["__val"], rrows["__key"]):
                    d = levenshtein(lk, rk, cap=max_dist)
                    if d <= max_dist:
                        la.append(lv)
                        rb.append(rv)
                        dists.append(d)
        return pd.DataFrame(
            {"left_value": pd.Series(la, dtype=object),
             "right_value": pd.Series(rb, dtype=object),
             "dist": pd.Series(dists, dtype="int64")}
        )

    return bucketed_group_apply(tagged, ["__block"], verify)


def entity_resolution(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    group_col: str | None = "lang",
    key_len: int = 48,
    block_len: int = 8,
    max_dist: int = 5,
):
    """Within-table entity resolution: fuzzy-duplicate rows collapse to a
    canonical id (the min id of their match component). The classic ER
    stack — blocking → bounded-Levenshtein pairwise verify
    (edit_distance_pairs, blocking rule exact and SQL-replayable) →
    connected components over the verified match graph → canonical-id
    assignment — producing (id, canon, cluster_size) for EVERY input row
    (singletons are their own canon with size 1).

    Scale shape: keys (never texts) ride the one blocking shuffle; the
    match graph holds only rows that verified as fuzzy duplicates — a
    small fraction of the corpus by construction — so its labels travel
    as a broadcast dict into the final stateless assignment map. If the
    dup graph ever outgrows the driver, swap the broadcast for a shuffle
    join of labels onto ids (same loop as connected_components' own
    documented seam). Reference analogue: ExampleStore dedup-by-hash
    (recon/store.py:39-47) generalized to fuzzy keys."""
    pairs = edit_distance_pairs(
        ds, text_col=text_col, id_col=id_col, group_col=group_col,
        key_len=key_len, block_len=block_len, max_dist=max_dist,
    )
    edges = pairs.map_batches(
        lambda df: pd.DataFrame({"a": df["id_a"], "b": df["id_b"]}),
        batch_format="pandas",
    )
    labels = connected_components(edges)  # doc_id -> cluster (min id)
    sizes = (
        labels.groupby("cluster").size().to_dict() if len(labels) else {}
    )
    lab_ref = ray.put(dict(zip(labels["doc_id"], labels["cluster"])))
    sz_ref = ray.put(sizes)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        lab, sz = _get(lab_ref), _get(sz_ref)
        ids = df[id_col]
        canon = ids.map(lab).fillna(ids).astype("int64")
        size = canon.map(sz).fillna(1).astype("int64")
        return pd.DataFrame(
            {id_col: ids.astype("int64"), "canon": canon,
             "cluster_size": size}
        )

    return ds.map_batches(assign, batch_format="pandas")
