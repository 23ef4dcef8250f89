"""Stats/insights parity vs. pandas oracles over the gold mention table."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from recon_ray.functions import insights as ins
from recon_ray.functions import stats as st


@pytest.fixture(scope="module")
def gold_mentions_df(gold_extraction):
    df = pd.DataFrame(gold_extraction["mentions"])
    # synthesize a doc key for grouping (repo,path is the doc identity)
    df["doc_id"] = (df["repo"] + "//" + df["path"]).astype("category").cat.codes.astype("uint64")
    return df


@pytest.fixture(scope="module")
def gold_mentions_ds(gold_mentions_df):
    return rd.from_pandas(gold_mentions_df).repartition(4)


def test_label_counts(gold_mentions_ds, gold_mentions_df):
    got = st.label_counts(gold_mentions_ds)
    want = (
        gold_mentions_df.groupby("label", as_index=False)
        .size()
        .rename(columns={"size": "count"})
        .sort_values(["count", "label"], ascending=[False, True], kind="mergesort")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want[["label", "count"]])


def test_label_counts_empty():
    """No mentions: a 0-row (label, count int64) frame, not a KeyError
    from sorting the column-less frame Ray's groupby returns."""
    from recon_ray.stages.explode import MENTIONS_FLAT_SCHEMA

    got = st.label_counts(rd.from_arrow(MENTIONS_FLAT_SCHEMA.empty_table()))
    assert list(got.columns) == ["label", "count"]
    assert len(got) == 0
    assert got["label"].dtype == object and got["count"].dtype == "int64"


def test_entity_coverage_empty():
    """No mentions: a 0-row (text, label, count) coverage, and a coverage
    similarity of zeros instead of a KeyError on the column-less frame."""
    from recon_ray.stages.explode import MENTIONS_FLAT_SCHEMA

    empty = rd.from_arrow(MENTIONS_FLAT_SCHEMA.empty_table())
    got = st.entity_coverage(empty)
    assert got.schema().names == ["text", "label", "count"]
    assert got.count() == 0
    assert st.entity_coverage_similarity(empty, empty) == {
        "entity": 0.0, "count": 0.0}


def test_entity_coverage(gold_mentions_ds, gold_mentions_df):
    got = st.entity_coverage(gold_mentions_ds).to_pandas()
    df = gold_mentions_df.copy()
    df["text"] = df["text"].str.lower()
    want = (
        df.groupby(["text", "label"], as_index=False)
        .size()
        .rename(columns={"size": "count"})
        .sort_values(["count", "text", "label"], ascending=[False, True, True],
                     kind="mergesort")
        .reset_index(drop=True)
    )
    got["count"] = got["count"].astype("int64")
    pd.testing.assert_frame_equal(got, want)


def test_ner_stats(unit_corpus_dir, gold_extraction):
    from recon_ray.pipelines.kg import run_kg

    res = run_kg(unit_corpus_dir)
    stats = st.ner_stats(res["docs"])
    gold = pd.DataFrame(gold_extraction["mentions"])
    assert stats["n_docs"] == 120
    assert stats["n_mentions"] == len(gold)
    per_type = gold.groupby("label").size().to_dict()
    assert stats["n_mentions_per_type"] == dict(
        sorted(per_type.items(), key=lambda kv: (-kv[1], kv[0]))
    )
    # no-mention docs: corpus generator plants empty/comment-only files
    assert stats["n_docs_no_mentions"] > 0


def test_coverage_similarity_self(gold_mentions_ds):
    sim = st.entity_coverage_similarity(gold_mentions_ds, gold_mentions_ds)
    assert sim["entity"] == 100.0
    assert sim["count"] == 100.0


def test_label_distribution_similarity_identical(unit_corpus_dir):
    from recon_ray.pipelines.kg import run_kg

    docs = run_kg(unit_corpus_dir)["docs"]
    assert st.label_distribution_similarity(docs, docs) == pytest.approx(100.0)


def test_entropy_helpers():
    # uniform over 4 → ln(4)
    assert st.shannon_entropy([5, 5, 5, 5]) == pytest.approx(np.log(4))
    assert st.jensen_shannon_distance([1, 0], [0, 1]) == pytest.approx(
        np.sqrt(np.log(2))
    )
    assert st.jensen_shannon_distance([3, 1], [3, 1]) == pytest.approx(0.0)


def test_detect_outliers_reference_semantics():
    seq = [1, 1, 2, 2, 2, 3, 3, 50]
    out = st.detect_outliers(seq)
    assert out["high"] == [7]
    assert out["low"] == []


def test_label_disparities(gold_mentions_ds, gold_mentions_df):
    got = ins.label_disparities(gold_mentions_ds, "CALL", "IDENT")
    df = gold_mentions_df.copy()
    df["text"] = df["text"].str.lower()
    call = set(df.loc[df["label"] == "CALL", "text"])
    ident = set(df.loc[df["label"] == "IDENT", "text"])
    assert got == (call & ident)
    assert len(got) > 0  # corpus plants fn names used as both


def test_top_label_disparities_dedupe(gold_mentions_ds):
    full = ins.top_label_disparities(gold_mentions_ds)
    deduped = ins.top_label_disparities(gold_mentions_ds, dedupe=True)
    assert len(full) == 2 * len(deduped)
    assert (full["count"].values[:-1] >= full["count"].values[1:]).all()


def test_top_prediction_errors_degraded_chain(unit_corpus_dir):
    """pred = pipeline WITHOUT fix_annotations, gold = full chain → every
    error is a keyword CALL false-positive reported as NOT_LABELED→CALL."""
    from recon_ray import spec
    from recon_ray.ops import OPS
    from recon_ray.pipelines.kg import read_files, run_kg
    from recon_ray.stages.detect import MentionDetector
    from recon_ray.stages.explode import explode_mentions

    res = run_kg(unit_corpus_dir)
    gold_ms = res["mentions"]

    degraded = read_files(unit_corpus_dir).map_batches(
        MentionDetector, batch_format="pyarrow", batch_size=64, concurrency=2
    )
    for name in [
        "recon_ray.upcase_labels.v1",
        "recon_ray.rename_labels.v1",
        "recon_ray.strip_annotations.v1",
        "recon_ray.filter_overlaps.v1",
    ]:
        degraded = OPS[name].apply(degraded)
    pred_ms = explode_mentions(degraded.drop_columns(["content"]))

    errors = ins.top_prediction_errors(pred_ms, gold_ms)
    assert len(errors) > 0
    kws = {k.lower() for k in spec.CALL_KEYWORDS}
    assert (errors["true_label"] == ins.NOT_LABELED).all()
    assert (errors["pred_label"] == "CALL").all()
    assert set(errors["text"].str.lower()) <= kws
    assert (errors["count"].values[:-1] >= errors["count"].values[1:]).all()

    hardest = ins.hardest_docs(pred_ms, gold_ms)
    assert len(hardest) > 0
    assert (hardest["score"].values[:-1] <= hardest["score"].values[1:]).all()
    assert hardest["score"].min() == 0.0 and hardest["score"].max() == 1.0

    errs_fn_only = ins.top_prediction_errors(pred_ms, gold_ms, exclude_fp=True)
    assert len(errs_fn_only) == 0  # degraded chain only ADDS spans


def test_exclude_fp_reports_fn_at_fp_offset():
    """Reference semantics (recon/insights.py:161-197): exclude_fp=True
    skips the WHOLE FP branch including seen.add(), so an FN at an offset
    that also had a mislabeled FP IS reported."""
    pred = rd.from_pandas(pd.DataFrame(
        {"doc_id": [1], "start": [0], "end": [3], "label": ["A"],
         "text": ["foo"]}))
    gold = rd.from_pandas(pd.DataFrame(
        {"doc_id": [1], "start": [0], "end": [3], "label": ["B"],
         "text": ["foo"]}))
    # default: the mislabeled FP reports (B→A) and 'seen' suppresses the FN
    errs = ins.top_prediction_errors(pred, gold)
    assert errs.to_dict("records") == [
        {"text": "foo", "true_label": "B", "pred_label": "A", "count": 1}
    ]
    # exclude_fp: FP branch (and its seen.add) skipped → the FN surfaces
    errs2 = ins.top_prediction_errors(pred, gold, exclude_fp=True)
    assert errs2.to_dict("records") == [
        {"text": "foo", "true_label": "B", "pred_label": ins.NOT_LABELED,
         "count": 1}
    ]
    # exclude_fn: only the FP row
    errs3 = ins.top_prediction_errors(pred, gold, exclude_fn=True)
    assert errs3.to_dict("records") == [
        {"text": "foo", "true_label": "B", "pred_label": "A", "count": 1}
    ]


def test_sample_stratified(gold_mentions_ds):
    sampled = ins.sample_mentions_stratified(
        gold_mentions_ds, ["label"], top_k_per_bucket=5, seed=3
    ).to_pandas()
    assert (sampled.groupby("label").size() <= 5).all()
    again = ins.sample_mentions_stratified(
        gold_mentions_ds, ["label"], top_k_per_bucket=5, seed=3
    ).to_pandas()
    pd.testing.assert_frame_equal(
        sampled.sort_values(list(sampled.columns)).reset_index(drop=True),
        again.sort_values(list(again.columns)).reset_index(drop=True),
    )


def test_mixture_sample_deterministic_and_rate_bounded():
    """mixture_sample keeps rate≈p of each group, identically across
    reruns and partitionings; unknown keys drop; rate 1.0 keeps all."""
    import numpy as np
    import ray.data as rd

    n = 4000
    df = pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "k": np.where(np.arange(n) % 2 == 0, "a", "b"),
        }
    )
    df.loc[::17, "k"] = "unconfigured"
    rates = {"a": 1.0, "b": 0.25}
    got = ins.mixture_sample(rd.from_pandas(df), "k", rates).to_pandas()
    # rate 1.0 keeps every 'a'; unknown keys all drop
    assert (got["k"] != "unconfigured").all()
    n_a = (df["k"] == "a").sum()
    assert (got["k"] == "a").sum() == n_a
    # rate 0.25 binomial: expect p·n within 5 sigma
    n_b = (df["k"] == "b").sum()
    kept_b = (got["k"] == "b").sum()
    assert abs(kept_b - 0.25 * n_b) < 5 * np.sqrt(n_b * 0.25 * 0.75)
    # repartition-invariant and rerun-identical
    again = ins.mixture_sample(
        rd.from_pandas(df).repartition(7), "k", rates
    ).to_pandas()
    pd.testing.assert_frame_equal(
        got.sort_values("doc_id").reset_index(drop=True),
        again.sort_values("doc_id").reset_index(drop=True),
    )


def test_profile_columns_nulls_and_types():
    """Profiler over a frame with nulls, strings, ints and floats —
    exact counts and min/max; float column keeps decimal repr, integral
    ints print as ints."""
    import pandas as pd
    import ray.data as rd

    from recon_ray.functions.stats import profile_columns

    df = pd.DataFrame(
        {
            "i": [3, 1, None, 2, 1],
            "s": ["b", None, "a", "c", "a"],
            "f": [1.5, 2.5, 2.5, None, -0.5],
        }
    )
    out = profile_columns(
        rd.from_pandas(df).repartition(3), ["i", "s", "f"]
    ).set_index("column")
    assert out.loc["i", "n_rows"] == 5 and out.loc["i", "n_null"] == 1
    assert out.loc["i", "n_distinct"] == 3
    assert out.loc["i", "min_value"] == "1" and out.loc["i", "max_value"] == "3"
    assert out.loc["s", "n_distinct"] == 3
    assert out.loc["s", "min_value"] == "a" and out.loc["s", "max_value"] == "c"
    assert out.loc["f", "n_null"] == 1
    assert out.loc["f", "min_value"] == "-0.5"
    assert out.loc["f", "max_value"] == "2.5"


# ---------------------------------------------------------------------------
# psi_drift: quantile-binned Population Stability Index
# ---------------------------------------------------------------------------


def test_psi_drift_identical_and_shifted(ray_session):
    import ray.data as rd

    from recon_ray.functions.stats import psi_drift

    rng = np.random.default_rng(4)
    va = rng.normal(100, 15, 4000)
    a = pd.DataFrame({"v": va})
    # identical distribution → PSI ≈ 0; shifted → PSI large
    b_same = pd.DataFrame({"v": rng.normal(100, 15, 4000)})
    b_shift = pd.DataFrame({"v": rng.normal(140, 15, 4000)})
    da = rd.from_pandas(a).repartition(3)
    same = psi_drift(da, rd.from_pandas(b_same).repartition(2), "v")
    shift = psi_drift(da, rd.from_pandas(b_shift).repartition(2), "v")
    tot_same = float(same.loc[same["bin"] == -1, "psi_term"].iloc[0])
    tot_shift = float(shift.loc[shift["bin"] == -1, "psi_term"].iloc[0])
    assert tot_same < 0.05          # industry "no drift" threshold
    assert tot_shift > 1.0          # gross shift
    # bins of A hold ~equal A mass (quantile edges)
    ca = same[same["bin"] >= 0]["count_a"].to_numpy()
    assert ca.sum() == 4000 and ca.min() >= 300
    # layout-invariance: different partitioning, identical output
    same2 = psi_drift(rd.from_pandas(a).repartition(7),
                      rd.from_pandas(b_same), "v")
    pd.testing.assert_frame_equal(same.reset_index(drop=True),
                                  same2.reset_index(drop=True))


def test_psi_drift_empty_side_raises(ray_session):
    import ray.data as rd

    from recon_ray.functions.stats import psi_drift

    a = pd.DataFrame({"v": [np.nan, np.nan]})
    b = pd.DataFrame({"v": [1.0]})
    with pytest.raises(ValueError):
        psi_drift(rd.from_pandas(a), rd.from_pandas(b), "v")
