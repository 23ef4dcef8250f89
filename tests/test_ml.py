"""Distributed logistic regression — bit-identical to a single-process
NumPy run of the same quantized math, layout-invariant, and actually
learns a separable problem."""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from recon_ray.functions.ml import (
    _feats,
    _grad_rows_quantized,
    _Q,
    fit_logreg,
    predict_proba,
)


def _fixture(n=600, k=3, d=8, seed=2):
    rng = np.random.RandomState(seed)
    centers = rng.randn(k, d) * 3
    y = rng.randint(0, k, n)
    x = centers[y] + rng.randn(n, d)
    return pd.DataFrame(
        {"vec_id": np.arange(n),
         "embedding": [row.astype(np.float32) for row in x],
         "label": y.astype(np.int32)}
    )


def _fit_sequential(df, n_classes, lr, n_iter, l2):
    x = _feats(df, "embedding")
    y = df["label"].to_numpy().astype(np.int64)
    w = np.zeros((n_classes, x.shape[1]), np.float64)
    losses = []
    for it in range(n_iter + 1):
        gq, loss_q, correct = _grad_rows_quantized(x, y, w, n_classes)
        losses.append(loss_q / _Q / len(x))
        if it == n_iter:
            break
        g = gq.astype(np.float64) / _Q / len(x)
        w = w - lr * (g + l2 * w)
    return w, losses, correct / len(x)


def test_logreg_matches_sequential_bit_identical():
    df = _fixture()
    got = fit_logreg(rd.from_pandas(df).repartition(7), n_iter=10)
    w, losses, acc = _fit_sequential(df, 3, 1.0, 10, 1e-4)
    np.testing.assert_array_equal(got["weights"], w)  # EXACT, not allclose
    assert got["loss"] == losses
    assert got["accuracy"] == acc


def test_logreg_layout_invariant():
    df = _fixture(seed=5)
    a = fit_logreg(rd.from_pandas(df).repartition(3), n_iter=6)
    b = fit_logreg(rd.from_pandas(df).repartition(11), n_iter=6)
    np.testing.assert_array_equal(a["weights"], b["weights"])
    assert a["loss"] == b["loss"]


def test_logreg_learns_separable_data():
    df = _fixture()
    res = fit_logreg(rd.from_pandas(df).repartition(4), n_iter=25)
    assert res["n"] == len(df)
    assert res["n_classes"] == 3
    assert res["loss"][-1] < res["loss"][0]
    assert res["accuracy"] > 0.85


def test_predict_proba_matches_driver_math():
    df = _fixture(n=120, seed=9)
    res = fit_logreg(rd.from_pandas(df).repartition(4), n_iter=5)
    scored = (
        predict_proba(rd.from_pandas(df).repartition(3), res["weights"])
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    x = _feats(df, "embedding")
    z = x @ res["weights"].T
    z -= z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    np.testing.assert_array_equal(scored["pred"].to_numpy(), p.argmax(axis=1))
    np.testing.assert_allclose(scored["prob"].to_numpy(), p.max(axis=1))


def test_logreg_empty():
    ds = rd.from_pandas(
        pd.DataFrame(
            {"vec_id": pd.Series([], dtype="int64"),
             "embedding": pd.Series([], dtype="object"),
             "label": pd.Series([], dtype="int32")}
        )
    )
    res = fit_logreg(ds)
    assert res["n"] == 0


# ---------------------------------------------------------------------------
# distributed PCA
# ---------------------------------------------------------------------------


def test_pca_layout_invariant_bit_identical():
    from recon_ray.functions.ml import fit_pca

    df = _fixture(n=500, d=12, seed=11)
    a = fit_pca(rd.from_pandas(df).repartition(3), n_components=4)
    b = fit_pca(rd.from_pandas(df).repartition(13), n_components=4)
    np.testing.assert_array_equal(a["components"], b["components"])
    np.testing.assert_array_equal(a["explained_variance"],
                                  b["explained_variance"])


def test_pca_matches_numpy_covariance():
    from recon_ray.functions.ml import fit_pca

    df = _fixture(n=400, d=10, seed=12)
    res = fit_pca(rd.from_pandas(df).repartition(5), n_components=10)
    m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    cov = (m.T @ m) / len(m) - np.outer(m.mean(0), m.mean(0))
    evals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    # quantization error ~2^-30 per row → covariance agrees to ~1e-8
    np.testing.assert_allclose(res["explained_variance"], evals, atol=1e-7)
    assert abs(res["explained_ratio"].sum() - 1.0) < 1e-9
    # components are orthonormal
    wwt = res["components"] @ res["components"].T
    np.testing.assert_allclose(wwt, np.eye(10), atol=1e-9)


def test_pca_projection_reduces_reconstruction_error():
    from recon_ray.functions.ml import fit_pca, project_pca

    df = _fixture(n=300, k=3, d=10, seed=13)
    model = fit_pca(rd.from_pandas(df).repartition(4), n_components=3)
    out = (
        project_pca(rd.from_pandas(df).repartition(4), model)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    proj = np.stack(out["pca"].to_numpy())
    assert proj.shape == (300, 3)
    # 3 gaussian clusters in d=10: top-3 PCs carry most of the variance
    assert model["explained_ratio"][:3].sum() > 0.5


def test_pca_empty():
    from recon_ray.functions.ml import fit_pca

    ds = rd.from_pandas(
        pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                      "embedding": pd.Series([], dtype="object")})
    )
    assert fit_pca(ds)["n"] == 0


def test_quantize_embeddings_bounds_and_zero():
    """int8 codes stay in [-127, 127], dequantized reconstruction error
    is within scale/2 per element, and an all-zero vector quantizes to
    zeros without dividing by zero."""
    import pandas as pd
    import ray.data as rd

    from recon_ray.functions.ml import quantize_embeddings

    rng = np.random.RandomState(5)
    vecs = [rng.randn(16).astype(np.float32) for _ in range(40)]
    vecs.append(np.zeros(16, dtype=np.float32))
    df = pd.DataFrame({"vec_id": range(len(vecs)), "embedding": vecs})
    out = (
        quantize_embeddings(rd.from_pandas(df).repartition(3))
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    )
    for vid, s, q in zip(out["vec_id"], out["scale"], out["qvec"]):
        q = np.asarray(q, dtype=np.int64)
        assert q.min() >= -127 and q.max() <= 127
        x = np.asarray(vecs[vid], dtype=np.float64)
        if s == 0.0:
            assert (q == 0).all()
        else:
            assert np.abs(q * s - x).max() <= s / 2 + 1e-12


def test_auc_matches_bruteforce_pairs(ray_session):
    """Exact AUC vs the O(n²) pair definition (ties count half) on a
    small random score/label set, plus layout invariance."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from recon_ray.functions.ml import auc_score

    rng = np.random.RandomState(4)
    df = pd.DataFrame({
        "s": rng.randint(0, 20, 300).astype("int64"),  # heavy ties
        "y": rng.randint(0, 2, 300).astype("int64"),
    })
    pos = df[df.y == 1]["s"].to_numpy()
    neg = df[df.y == 0]["s"].to_numpy()
    cmp_ = (pos[:, None] > neg[None, :]).sum() \
        + 0.5 * (pos[:, None] == neg[None, :]).sum()
    want = round(cmp_ / (len(pos) * len(neg)), 6)
    for parts in (1, 3, 7):
        r = auc_score(rd.from_pandas(df).repartition(parts), "s", "y")
        assert r["auc"] == want, parts
    r0 = auc_score(rd.from_pandas(df[df.y == 1]), "s", "y")
    assert np.isnan(r0["auc"])  # degenerate: one class only


def test_pca_runs_a_lazy_plan_once(tmp_path):
    """fit_pca runs its input plan once: each of the 4 blocks calls the
    upstream UDF once (a lazy ``to_arrow_refs()`` runs the plan a
    second time for the schema, 8 calls)."""
    from recon_ray.functions.ml import fit_pca

    log = tmp_path / "calls"

    def counted(batch):
        with open(log, "a") as f:
            f.write("x\n")
        return batch

    df = _fixture(n=200, d=6, seed=14)
    ds = rd.from_pandas(df).repartition(4).map_batches(
        counted, batch_format="pandas", batch_size=None)
    assert fit_pca(ds, n_components=2)["n"] == 200
    assert len(log.read_text().splitlines()) == 4
