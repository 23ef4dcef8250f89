"""Distributed model training for curation loops: a multinomial logistic
regression trained by full-batch gradient descent over a Ray Dataset — the
shape of every quality-classifier stage (CCNet / fastText-style filters) a
100-TB curation pipeline needs, built on the repo's deterministic-reduce
pattern.

Scale + determinism shape (same as functions/similarity.py kmeans):
- blocks materialize ONCE into the object store (`to_arrow_refs`); every
  GD iteration is then a round of plain Ray tasks over the same refs —
  no per-iteration Dataset-executor startup;
- each task returns a per-block partial gradient QUANTIZED per row to
  int64 (×2^40). Integer addition is exact and order-free, so the fitted
  weights are bit-identical under any block layout / completion order —
  and bit-identical to a single-process NumPy run of the same math
  (pinned in tests/test_ml.py);
- features are L2-row-normalized (+ a bias column of 1) so every per-row
  gradient component is bounded by 1 and int64 partial sums have ~2^22
  rows of headroom per cell.

The model rides back into the pipeline via ``predict_proba`` — a
broadcast-weights ``map_batches`` scorer (one `ray.put`, zero-copy reads),
the same pattern as `assign_clusters`.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray

_Q = float(2**40)


def _feats(df: pd.DataFrame, emb_col: str) -> np.ndarray:
    m = np.stack(df[emb_col].to_numpy()).astype(np.float64)
    m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
    return np.hstack([m, np.ones((len(m), 1))])


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _grad_rows_quantized(x: np.ndarray, y: np.ndarray, w: np.ndarray,
                         n_classes: int):
    """Per-row quantized (k × d+1) gradient contributions + quantized loss.
    Quantizing per ROW (not per partial) makes the total sum independent
    of how rows are batched."""
    p = _softmax(x @ w.T)
    diff = p.copy()
    diff[np.arange(len(y)), y] -= 1.0  # (n, k), each |entry| ≤ 1
    # (k, d+1) int64 sum of per-row outer products, quantized per row:
    # einsum over pre-quantized per-row terms would round the PRODUCT, so
    # quantize the product itself row by row via the outer-product matmul
    # int64 is safe within one block: per-row cell magnitude ≤ 2^40, so
    # the in-task sum stays exact to ~2^23 rows — far above any Arrow
    # block (the cross-block reduce is arbitrary-precision on the driver)
    assert len(x) < (1 << 23), "block too large for int64 gradient partials"
    gq = np.zeros((n_classes, x.shape[1]), np.int64)
    # process in chunks to bound the (chunk, k, d+1) intermediate
    step = 4096
    for i in range(0, len(x), step):
        outer = diff[i:i + step, :, None] * x[i:i + step, None, :]
        gq += np.rint(outer * _Q).astype(np.int64).sum(axis=0)
    ll = np.log(np.maximum(p[np.arange(len(y)), y], 1e-300))
    # object-dtype sum = exact Python-int addition: a pathological block
    # (every row near -log(1e-300)·2^40 ≈ 2^49) would wrap an int64 sum
    loss_q = int(np.rint(-ll * _Q).astype(np.int64).astype(object).sum())
    correct = int((p.argmax(axis=1) == y).sum())
    return gq, loss_q, correct


@ray.remote
def _logreg_partial_task(block, w_ref, label_col, emb_col, n_classes):
    df = block.to_pandas()
    if len(df) == 0:
        return (None, 0, 0, 0)
    x = _feats(df, emb_col)
    y = df[label_col].to_numpy().astype(np.int64)
    gq, loss_q, correct = _grad_rows_quantized(x, y, w_ref, n_classes)
    return (gq, loss_q, correct, len(df))


def fit_logreg(
    ds,
    label_col: str = "label",
    emb_col: str = "embedding",
    n_classes: int | None = None,
    lr: float = 1.0,
    n_iter: int = 20,
    l2: float = 1e-4,
) -> dict:
    """Train a multinomial logistic regression over ``(emb_col,
    label_col)`` with deterministic full-batch GD. Returns ``{"weights":
    (k, d+1) ndarray, "loss": per-iter list, "accuracy": float, "n": int,
    "n_classes": k}``. Labels must be 0..k-1 integers."""
    refs = ds.materialize().to_arrow_refs()
    if n_classes is None:
        # one cheap pass for the label range (labels are small ints)
        maxes = ray.get([_label_max_task.remote(b, label_col) for b in refs])
        maxes = [m for m in maxes if m is not None]
        if not maxes:
            return {"weights": np.zeros((0, 0)), "loss": [],
                    "accuracy": 0.0, "n": 0, "n_classes": 0}
        n_classes = int(max(maxes)) + 1

    dim = None
    w = None
    losses: list[float] = []
    acc = 0.0
    n_total = 0
    for _ in range(n_iter + 1):  # + final stats-only pass
        if w is None:
            # probe the first non-empty block for the feature width
            for b in refs:
                t = ray.get(b)
                if t.num_rows:
                    # np.asarray handles list, ndarray AND Ray's
                    # TensorArrayElement (from_pandas tensor extension)
                    dim = np.asarray(t.to_pandas()[emb_col].iloc[0]).size + 1
                    break
            if dim is None:
                return {"weights": np.zeros((0, 0)), "loss": [],
                        "accuracy": 0.0, "n": 0, "n_classes": n_classes}
            w = np.zeros((n_classes, dim), np.float64)
        parts = ray.get(
            [_logreg_partial_task.remote(b, w, label_col, emb_col, n_classes)
             for b in refs]
        )
        # driver-side reduce in OBJECT dtype = arbitrary-precision Python
        # ints: per-block partials are int64-safe (a block is ≤ ~2^21 rows,
        # per-row cell magnitude ≤ 2^40), but the GLOBAL sum over a 100-TB
        # corpus would wrap int64 silently — k×(d+1) object cells cost
        # microseconds and make the reduce exact at any n
        gq = np.zeros((n_classes, dim), dtype=object)
        loss_q = 0
        correct = 0
        n_total = 0
        for p_g, p_l, p_c, p_n in parts:
            if p_g is None:
                continue
            gq += p_g.astype(object)
            loss_q += int(p_l)
            correct += p_c
            n_total += p_n
        if n_total == 0:
            return {"weights": w, "loss": [], "accuracy": 0.0, "n": 0,
                    "n_classes": n_classes}
        losses.append(loss_q / _Q / n_total)
        acc = correct / n_total
        if len(losses) == n_iter + 1:
            break  # stats-only pass: loss/accuracy describe returned w
        g = gq.astype(np.float64) / _Q / n_total
        w = w - lr * (g + l2 * w)
    return {"weights": w, "loss": losses, "accuracy": acc, "n": n_total,
            "n_classes": n_classes}


@ray.remote
def _label_max_task(block, label_col):
    df = block.to_pandas()
    if len(df) == 0:
        return None
    return int(df[label_col].max())


def predict_proba(ds, weights: np.ndarray, emb_col: str = "embedding"):
    """Broadcast-weights scorer: appends ``pred`` (argmax class) and
    ``prob`` (its probability). Lazy map_batches — at scale this is the
    filter pass that gates documents on classifier score."""
    ref = ray.put(np.asarray(weights, dtype=np.float64))

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        w = ray.get(ref)
        if len(batch) == 0:
            batch["pred"] = pd.Series(dtype="int64")
            batch["prob"] = pd.Series(dtype="float64")
            return batch
        p = _softmax(_feats(batch, emb_col) @ w.T)
        batch = batch.copy()
        batch["pred"] = p.argmax(axis=1).astype(np.int64)
        batch["prob"] = p.max(axis=1)
        return batch

    return ds.map_batches(f, batch_format="pandas")


@ray.remote
def _cov_partial_task(block, emb_col):
    """Quantized second-moment partials for PCA: Σxᵀx (d×d), Σx (d), n.
    Quantization is PER ROW (rint of each row's outer product ×2^30,
    like the logreg gradients), so the global integer sum is identical
    under ANY batching/layout, not merely any reduce order. Rows are
    L2-normalized, so every per-row entry is bounded by 1 and int64
    cells have ~2^32 rows of headroom."""
    df = block.to_pandas()
    if len(df) == 0:
        return (None, None, 0)
    m = np.stack(df[emb_col].to_numpy()).astype(np.float64)
    m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
    d = m.shape[1]
    qc = np.zeros((d, d), np.int64)
    step = 512  # bound the (chunk, d, d) intermediate
    for i in range(0, len(m), step):
        outer = m[i:i + step, :, None] * m[i:i + step, None, :]
        qc += np.rint(outer * _PCA_Q).astype(np.int64).sum(axis=0)
    qs = np.rint(m * _PCA_Q).astype(np.int64).sum(axis=0)
    return (qc, qs, len(m))


_PCA_Q = float(2**30)


def fit_pca(ds, n_components: int = 8, emb_col: str = "embedding") -> dict:
    """Distributed PCA over an embedding column: ONE streaming pass emits
    per-block quantized (Σxᵀx, Σx, n) partials (a few KB each — the
    corpus never materializes), the driver assembles the exact covariance
    and eigendecomposes it (d×d, trivial for embedding dims). Components
    get a deterministic sign (largest-|coeff| entry made positive);
    partials quantize PER ROW, so the assembled covariance — and hence
    the whole result — is bit-identical under any layout or reduce order.

    Returns {"components": (k, d), "explained_variance": (k,),
    "explained_ratio": (k,), "mean": (d,), "n": int}.
    """
    refs = ds.materialize().to_arrow_refs()
    parts = ray.get([_cov_partial_task.remote(b, emb_col) for b in refs])
    # object-dtype reduce = exact Python-int sums (per-row cell magnitude
    # ≤ 2^30 → int64 would wrap past ~2^33 rows; a 100-TB embedding table
    # has more)
    qc = None
    qs = None
    n = 0
    for p_c, p_s, p_n in parts:
        if p_c is None:
            continue
        qc = p_c.astype(object) if qc is None else qc + p_c.astype(object)
        qs = p_s.astype(object) if qs is None else qs + p_s.astype(object)
        n += p_n
    if n == 0:
        return {"components": np.zeros((0, 0)), "explained_variance":
                np.zeros(0), "explained_ratio": np.zeros(0),
                "mean": np.zeros(0), "n": 0}
    second = qc.astype(np.float64) / _PCA_Q
    mean = qs.astype(np.float64) / _PCA_Q / n
    cov = second / n - np.outer(mean, mean)
    evals, evecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(evals)[::-1][:n_components]
    comps = evecs[:, order].T
    # deterministic sign: the largest-|coeff| entry of each component > 0
    for i in range(len(comps)):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    ev = evals[order]
    total = float(evals.sum())
    return {"components": comps, "explained_variance": ev,
            "explained_ratio": ev / total if total > 0 else ev * 0.0,
            "mean": mean, "n": n}


def project_pca(ds, model: dict, emb_col: str = "embedding",
                out_col: str = "pca"):
    """Broadcast-projection pass: appends ``out_col`` = (x−mean)·Wᵀ over
    L2-normalized rows. Lazy map_batches — the dimensionality-reduction
    stage before ANN / clustering at scale."""
    ref = ray.put((np.asarray(model["components"], np.float64),
                   np.asarray(model["mean"], np.float64)))

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        w, mu = ray.get(ref)
        if len(batch) == 0:
            batch[out_col] = pd.Series(dtype="object")
            return batch
        m = np.stack(batch[emb_col].to_numpy()).astype(np.float64)
        m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        proj = (m - mu) @ w.T
        batch = batch.copy()
        batch[out_col] = list(proj)
        return batch

    return ds.map_batches(f, batch_format="pandas")


def quantize_embeddings(ds, emb_col: str = "embedding",
                        id_col: str = "vec_id"):
    """Symmetric per-vector int8 scalar quantization — the standard 4×
    memory reduction for embedding tables before ANN at corpus scale:
    scale = max|v| / 127 (float64), q_i = round-half-away(v_i / scale)
    ∈ [-127, 127]. Pure map stage, no shuffle; the quantization rule is
    exact IEEE-double arithmetic (cast-up from float32 is exact, one
    division, trunc(x + 0.5·sign(x))), so a SQL oracle doing the same
    list arithmetic reproduces every code bit-for-bit. An all-zero
    vector quantizes to zeros (scale 0 guarded identically both sides).

    Returns (id, scale float64, qvec list<int8>)."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        out_ids, scales, qvecs = [], [], []
        for i, v in zip(batch[id_col], batch[emb_col]):
            x = np.asarray(v, dtype=np.float64)
            s = float(np.abs(x).max()) / 127.0 if len(x) else 0.0
            if s == 0.0:
                q = np.zeros(len(x), dtype=np.int8)
            else:
                r = x / s
                q = np.trunc(r + 0.5 * np.sign(r)).astype(np.int8)
            out_ids.append(i)
            scales.append(s)
            qvecs.append(q)
        return pd.DataFrame(
            {id_col: out_ids, "scale": scales, "qvec": qvecs}
        )

    return ds.map_batches(fn, batch_format="pandas")


def auc_score(ds, score_col: str, label_col: str) -> dict:
    """Exact ROC-AUC by the Mann-Whitney rank-sum identity, in pure
    integer arithmetic until the final division: with c_less(s) = #rows
    scoring below s and c_eq(s) = #rows scoring exactly s, a positive at
    score s has 2·avg_rank = 2·c_less + c_eq + 1 (tie-averaged rank,
    doubled to stay integral), so

        AUC = (Σ_pos 2·avg_rank − 2·n_pos(n_pos+1)/2) / (2·n_pos·n_neg)

    Scale shape: ONE combiner pass builds the per-score (count, count
    positive) table — sized by DISTINCT scores, not rows (integerize
    scores upstream, the repo-wide cents pattern); the cumulative scan
    and the closed-form sum run on that table on the driver. Layout-
    invariant and bit-exact; returns {auc, n_pos, n_neg} with auc
    rounded to 6 dp (single final division)."""
    import pandas as pd

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby(score_col, as_index=False).agg(
            n=(label_col, "size"), pos=(label_col, "sum"))
        return g

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    t = parts.groupby(score_col, as_index=False)[["n", "pos"]].sum()
    t = t.sort_values(score_col, kind="mergesort").reset_index(drop=True)
    n = t["n"].to_numpy(np.int64)
    pos = t["pos"].to_numpy(np.int64)
    c_less = np.concatenate([[0], np.cumsum(n)[:-1]])
    n_pos = int(pos.sum())
    n_neg = int(n.sum() - n_pos)
    if n_pos == 0 or n_neg == 0:
        return {"auc": float("nan"), "n_pos": n_pos, "n_neg": n_neg}
    two_rank_sum = int((pos * (2 * c_less + n + 1)).sum())
    num = two_rank_sum - n_pos * (n_pos + 1)
    return {"auc": round(num / (2 * n_pos * n_neg), 6),
            "n_pos": n_pos, "n_neg": n_neg}
