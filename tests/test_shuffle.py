"""deterministic_shuffle — the assigned order must be the exact rank of
the multiplicative hash (sequential argsort parity), a full permutation,
and invariant to block layout."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from recon_ray.functions.insights import _MIX_C, deterministic_shuffle


def _expected(ids: np.ndarray) -> pd.DataFrame:
    h = ids.astype(np.uint64) * np.uint64(_MIX_C)
    pos = np.empty(len(ids), np.int64)
    pos[np.argsort(h, kind="stable")] = np.arange(len(ids))
    return pd.DataFrame({"doc_id": ids, "shuffle_pos": pos})


@pytest.mark.parametrize("n_blocks", [1, 7])
def test_matches_sequential_rank_any_layout(n_blocks):
    # non-contiguous, non-sorted ids
    ids = np.array([5, 900001, 3, 42, 7_000_000_000, 88, 17, 2**40 + 9])
    ds = rd.from_pandas(pd.DataFrame({"doc_id": ids, "x": range(len(ids))}))
    got = (
        deterministic_shuffle(ds.repartition(n_blocks), "doc_id")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    want = _expected(ids).sort_values("doc_id").reset_index(drop=True)
    assert got["shuffle_pos"].tolist() == want["shuffle_pos"].tolist()
    assert set(got.columns) == {"doc_id", "x", "shuffle_pos"}
    # payload column rode through untouched
    assert got.set_index("doc_id")["x"].to_dict() == {
        int(i): j for j, i in enumerate(ids)
    }


def test_is_permutation_and_spread():
    n = 3000
    ds = rd.from_pandas(pd.DataFrame({"doc_id": np.arange(n)})).repartition(5)
    got = deterministic_shuffle(ds, "doc_id").to_pandas()
    assert sorted(got["shuffle_pos"]) == list(range(n))
    # it actually shuffles: sequential ids land far apart
    bydoc = got.sort_values("doc_id")["shuffle_pos"].to_numpy()
    assert np.abs(np.diff(bydoc)).mean() > n / 10


def test_empty():
    ds = rd.from_pandas(pd.DataFrame({"doc_id": pd.Series([], dtype="int64")}))
    assert deterministic_shuffle(ds, "doc_id").count() == 0


def test_bad_buckets():
    ds = rd.from_pandas(pd.DataFrame({"doc_id": [1]}))
    with pytest.raises(ValueError):
        deterministic_shuffle(ds, "doc_id", n_buckets=100)


def test_bucketed_group_apply_matches_pandas(ray_session):
    """bucketed_group_apply equals the bucket body run on the whole
    input in process, including NULL keys and n_buckets=1."""
    from recon_ray.functions.relational import bucketed_group_apply

    rng = np.random.RandomState(3)
    df = pd.DataFrame({
        "k": rng.randint(0, 40, 500).astype("float64"),
        "v": rng.uniform(0, 10, 500),
    })
    df.loc[df.index % 17 == 0, "k"] = np.nan

    def fn(g):
        return (g.groupby("k", dropna=False, sort=False)["v"]
                .sum().rename("s").reset_index())

    def norm(o):
        return (o.sort_values("k", na_position="last")
                .reset_index(drop=True))

    want = norm(fn(df))
    for nb in (8, 1):
        got = bucketed_group_apply(
            rd.from_pandas(df).repartition(4), "k", fn,
            n_buckets=nb).to_pandas()
        pd.testing.assert_frame_equal(norm(got), want, check_like=True)


def test_grouped_agg_matches_pandas(ray_session, monkeypatch):
    """grouped_agg equals a pandas groupby over the whole input
    (sum/count/min/max/mean, NULL string keys), also when the exchange
    coalesces its input blocks to stay under its object-count bound."""
    from recon_ray.functions import relational
    from recon_ray.functions.relational import grouped_agg

    rng = np.random.RandomState(5)
    df = pd.DataFrame({
        "k": pd.Series(rng.choice(["a", "b", "c", None], 400),
                       dtype="object"),
        "v": rng.uniform(-5, 5, 400),
    })
    ops = ["sum", "count", "min", "max", "mean"]
    want = (df.groupby("k", dropna=False)["v"].agg(ops)
            .add_prefix("v_").reset_index())

    def key(o):
        return (o.assign(k=o["k"].fillna("\x7f"))
                .sort_values("k").reset_index(drop=True))

    got = grouped_agg(rd.from_pandas(df).repartition(3), "k", {"v": ops})
    pd.testing.assert_frame_equal(key(got), key(want), check_like=True,
                                  check_dtype=False)
    # 3 blocks x 8 buckets past a bound of 4: one split task takes all
    monkeypatch.setattr(relational, "MAX_EXCHANGE_OBJECTS", 4)
    got = grouped_agg(rd.from_pandas(df).repartition(3), "k", {"v": ops},
                      n_buckets=8)
    pd.testing.assert_frame_equal(key(got), key(want), check_like=True,
                                  check_dtype=False)


def test_exchange_hashes_int_and_float_keys_alike(ray_session):
    """Two Arrow blocks hold the same int64 keys and one also a NULL,
    so pandas reads that block's key as float64: each key must still
    reach ONE bucket (grouped_agg / distinct) and ONE streaming actor."""
    import pyarrow as pa

    from recon_ray.functions.relational import distinct, grouped_agg
    from recon_ray.stages.streaming import stream_tumbling_agg

    n = 70_000
    a = pa.table({"k": pa.array(list(range(n)) + [None], pa.int64()),
                  "v": pa.array(np.ones(n + 1))})
    b = pa.table({"k": pa.array(np.arange(n), pa.int64()),
                  "v": pa.array(np.ones(n))})
    ds = rd.from_arrow([a, b])
    g = grouped_agg(ds, "k", {"v": ["sum"]})
    assert len(g) == n + 1
    assert g["v_sum"].sum() == 2 * n + 1
    assert distinct(ds, "k").count() == n + 1

    ts = pa.array(np.zeros(n + 1, "datetime64[us]"))
    out = stream_tumbling_agg(
        rd.from_arrow([a.append_column("ts", ts),
                       b.append_column("ts", ts.slice(0, n))]),
        key_cols=("k",), value_col="v", window="1h", lateness="1h",
        n_partitions=4, ordered=False)["result"].to_pandas()
    # a key split across actors would emit its window twice
    assert len(out) == n and out["k"].is_unique
    assert (out["n_events"] == 2).all()
