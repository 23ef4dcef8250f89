"""Incremental EXACT-cosine near-dup index — the embedding counterpart
of ``functions/minhash_index.py`` (dedup at ingest).

Accepted vectors persist as content-addressed parquet parts whose
angular pruning metadata (n, centroid, radius) is precomputed ONCE at
append time and stored in the manifest. Each arriving shard:

1. dedups WITHIN itself via :func:`dedup.embedding_neardup` (the
   LSH-pre-sorted blocked exact path);
2. dedups AGAINST the index with the same exact angular triangle bound
   — a (shard sub-block × index part) pair task runs only when
   ``θ(centroids) − r_a − r_b ≤ arccos(threshold)``, so on a clustered
   corpus the shard touches a small slice of the index; the bound is
   exact, so recall is 1.0 (unlike banded-LSH candidate generation);
3. appends only the NOVEL vectors, pre-sorted by the stable
   strongest-plane signature so future parts stay angularly coherent
   (small radii → sharp pruning for every later shard).

Manifest-LAST crash safety and batch-id idempotence as in
minhash_index. Keep rule per verified cluster: an index vector if the
cluster touches one, else the minimum shard vec_id (keep-first) —
pinned equal to batch ``embedding_neardup``+components over the union
in tests/test_embedding_index.py. Requires globally-unique ``vec_id``.

At 100 TB: parts are block-sized (``rows_per_part``), the driver holds
one (centroid, radius) row per part — millions of parts fit a driver
easily — and each ingest reads only the admissible parts
column-complete (vectors are the payload; there is nothing to prune
within a part).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from recon_ray.functions.dedup import (
    _angular_meta,
    _emb_block_pair,
    _lsh_presort_signature,
    _prep_emb_block,
    connected_components,
    embedding_neardup,
)
from recon_ray.functions.minhash_index import (
    cluster_keep_dups,
    id_set_filter,
)

MANIFEST = "_manifest.json"


def _mpath(state_dir: str) -> str:
    return os.path.join(state_dir, MANIFEST)


def _publish(state_dir: str, man: dict) -> None:
    tmp = _mpath(state_dir) + f".tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(man, f)
    os.replace(tmp, _mpath(state_dir))


def embedding_index_init(state_dir: str, threshold: float = 0.98,
                         rows_per_part: int = 4096) -> dict:
    os.makedirs(os.path.join(state_dir, "vectors"), exist_ok=True)
    if os.path.exists(_mpath(state_dir)):
        man = json.load(open(_mpath(state_dir)))
        if man["threshold"] != threshold:
            raise ValueError(
                f"index at {state_dir} has threshold "
                f"{man['threshold']}, asked {threshold}")
        return man
    man = {"threshold": threshold, "rows_per_part": rows_per_part,
           "n_vecs": 0, "batch_ids": [], "parts": []}
    _publish(state_dir, man)
    return man


@ray.remote
def _load_part(path: str, id_col: str, emb_col: str):
    """Read one index part → the (ids, normalized matrix) pair the
    block-pair task consumes (runs on a worker, stays in plasma)."""
    t = pq.read_table(path)
    ids = t.column(id_col).to_numpy(zero_copy_only=False)
    arr = t.column(emb_col).to_numpy(zero_copy_only=False)
    n = len(ids)
    mat = (np.stack(arr) if arr.dtype == object else np.asarray(arr)
           ).astype(np.float64).reshape(n, -1)
    mat = mat / np.maximum(
        np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    return ids, mat


def embedding_index_ingest(state_dir: str, emb_ds, batch_id: str,
                           id_col: str = "vec_id",
                           emb_col: str = "embedding") -> dict:
    """Dedup ``emb_ds`` (vec_id, embedding) within itself and against
    the index; append novel vectors. Idempotent by ``batch_id``."""
    man = json.load(open(_mpath(state_dir)))
    done = {b["id"]: b for b in man["batch_ids"]}
    if batch_id in done:
        rec = done[batch_id]
        return {"n_new": rec["n_new"], "n_novel": rec["n_novel"],
                "n_dup": rec["n_dup"],
                "n_preexisting": rec.get("n_preexisting", 0),
                "novel_ids": pd.DataFrame(columns=[id_col]),
                "dup_pairs": pd.DataFrame(columns=["a", "b", "cosine"]),
                "replayed": True}
    emb_ds = emb_ds.select_columns([id_col, emb_col]).materialize()
    # id-collision guard: rows whose vec_id is ALREADY in the index are
    # the same logical doc arriving again (the unique-id contract) —
    # drop them up front instead of silently re-storing. One ids-only
    # column-pruned scan of the index, intersection is shard-bounded.
    n_pre = 0
    if man["parts"]:
        incoming = set(
            emb_ds.select_columns([id_col]).to_pandas()[id_col])
        stored_ids = rd.read_parquet(
            [os.path.join(state_dir, "vectors", p["name"])
             for p in man["parts"]],
            columns=[id_col])
        pre = id_set_filter(stored_ids, incoming,
                            col=id_col).to_pandas()
        pre_ids = (set(pre[id_col])
                   if id_col in pre.columns else set())
        if pre_ids:
            n_pre = len(pre_ids)
            emb_ds = id_set_filter(emb_ds, pre_ids, col=id_col,
                                   keep=False).materialize()
    n_new = emb_ds.count()
    threshold = man["threshold"]
    theta_max = float(np.arccos(np.clip(threshold, -1.0, 1.0)))

    # 1. within-shard exact pairs (pre-sorted blocked path)
    within = embedding_neardup(
        emb_ds, threshold=threshold, id_col=id_col, emb_col=emb_col)

    # 2. shard vs index: prep the shard's sorted sub-blocks once, pair
    #    them against ADMISSIBLE index parts only (manifest metas)
    cross_parts = []
    stats = {"parts_total": len(man["parts"]), "parts_touched": 0}
    if man["parts"] and n_new:
        pre = emb_ds.map_batches(
            _lsh_presort_signature, batch_format="pyarrow",
            fn_kwargs={"emb_col": emb_col, "n_planes": 16,
                       "seed": 0x5EED},
        ).sort("__lsh").map_batches(
            # order-preserving coalesce: shard × index pair-task count
            # scales with shard BLOCKS, so tiny post-filter blocks must
            # merge first (same guard as embedding_neardup)
            lambda t: t, batch_format="pyarrow", batch_size=4096)
        prepped = [_prep_emb_block.remote(r, id_col, emb_col)
                   for r in pre.materialize().to_arrow_refs()]
        data_refs = [p[0] for p in prepped]
        metas = ray.get([p[1] for p in prepped])
        part_cache: dict = {}
        tasks = []
        touched = set()
        for bi, (blk, subs) in enumerate(metas):
            if blk[0] == 0:
                continue
            for lo, hi, sc, sr in subs:
                for p in man["parts"]:
                    pc_ = np.asarray(p["centroid"], dtype=np.float64)
                    ang = float(np.arccos(np.clip(
                        float(np.dot(sc, pc_)), -1.0, 1.0)))
                    if ang - sr - p["radius"] > theta_max:
                        continue  # exact bound: no pair can qualify
                    touched.add(p["name"])
                    ref = part_cache.get(p["name"])
                    if ref is None:
                        ref = _load_part.remote(
                            os.path.join(state_dir, "vectors",
                                         p["name"]),
                            id_col, emb_col)
                        part_cache[p["name"]] = ref
                    tasks.append(_emb_block_pair.remote(
                        ref, data_refs[bi], threshold, False,
                        0, None, lo, hi))
        stats["parts_touched"] = len(touched)
        cross_parts = [p for p in ray.get(tasks) if len(p)]

    pieces = [within] if len(within) else []
    pieces += cross_parts
    if pieces:
        verified = pd.concat(pieces, ignore_index=True).drop_duplicates(
            ["a", "b"]).sort_values(["a", "b"]).reset_index(drop=True)
    else:
        verified = pd.DataFrame(columns=["a", "b", "cosine"])

    if len(verified):
        cc = connected_components(rd.from_pandas(verified[["a", "b"]]))
        new_ids = set(
            emb_ds.select_columns([id_col]).to_pandas()[id_col])
        dup_ids = cluster_keep_dups(cc, new_ids)
    else:
        dup_ids = set()

    novel = id_set_filter(emb_ds, dup_ids, col=id_col, keep=False)
    # append novel vectors re-sorted by signature → coherent parts
    parts = list(man["parts"])
    n_novel = 0
    if n_new - len(dup_ids) > 0:
        sorted_novel = novel.map_batches(
            _lsh_presort_signature, batch_format="pyarrow",
            fn_kwargs={"emb_col": emb_col, "n_planes": 16,
                       "seed": 0x5EED},
        ).sort("__lsh")
        for t in sorted_novel.iter_batches(
                batch_format="pyarrow",
                batch_size=man["rows_per_part"]):
            if t.num_rows == 0:
                continue
            if id_col not in t.column_names:
                continue  # empty sort-range block artifact
            t = t.select([id_col, emb_col])
            n_novel += t.num_rows
            sink = pa.BufferOutputStream()
            with pa.ipc.new_stream(sink, t.schema) as w:
                w.write_table(t)
            h = hashlib.sha1(
                sink.getvalue().to_pybytes()).hexdigest()[:16]
            name = f"part-{h}.parquet"
            path = os.path.join(state_dir, "vectors", name)
            if not os.path.exists(path):
                tmp = f"{path}.tmp-{os.getpid()}"
                pq.write_table(t, tmp)
                os.replace(tmp, path)
            arr = t.column(emb_col).to_numpy(zero_copy_only=False)
            mat = (np.stack(arr) if arr.dtype == object
                   else np.asarray(arr)).astype(np.float64).reshape(
                t.num_rows, -1)
            mat = mat / np.maximum(
                np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
            cn, radius = _angular_meta(mat)
            if not any(p["name"] == name for p in parts):
                parts.append({"name": name, "n": int(t.num_rows),
                              "centroid": [float(x) for x in cn],
                              "radius": float(radius)})
    man["parts"] = parts
    man["n_vecs"] = int(man["n_vecs"] + n_novel)
    man["batch_ids"].append({"id": batch_id, "n_new": int(n_new),
                             "n_novel": int(n_novel),
                             "n_dup": int(len(dup_ids)),
                             "n_preexisting": int(n_pre)})
    _publish(state_dir, man)
    nid = emb_ds.select_columns([id_col]).to_pandas()
    all_new = set(nid[id_col]) if id_col in nid.columns else set()
    novel_ids = pd.DataFrame({id_col: sorted(all_new - dup_ids)})
    return {"n_new": int(n_new), "n_novel": int(n_novel),
            "n_dup": int(len(dup_ids)), "n_preexisting": int(n_pre),
            "novel_ids": novel_ids, "dup_pairs": verified,
            "replayed": False, "prune_stats": stats}
