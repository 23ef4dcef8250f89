"""Triple-level P/R/F scoring — the analogue of the reference's
``EntityRecognizer.evaluate`` → ``Scores`` (recon/recognizer.py:48-81,
recon/types.py:506-511), computed as a key-set comparison on
(subj, pred, obj) instead of span sets. Implements the BASELINE.json
acceptance check (P/R ≥ 0.95 vs. the reference extractor).
"""

from __future__ import annotations

import pandas as pd

KEY = ["subj", "pred", "obj"]


def score_triples_frames(pred: pd.DataFrame, gold: pd.DataFrame) -> dict:
    p = set(map(tuple, pred[KEY].itertuples(index=False)))
    g = set(map(tuple, gold[KEY].itertuples(index=False)))
    tp = len(p & g)
    precision = tp / len(p) if p else 0.0
    recall = tp / len(g) if g else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    per_pred = {}
    for pname in sorted({k[1] for k in p | g}):
        pp = {k for k in p if k[1] == pname}
        gg = {k for k in g if k[1] == pname}
        tpp = len(pp & gg)
        prec = tpp / len(pp) if pp else 0.0
        rec = tpp / len(gg) if gg else 0.0
        per_pred[pname] = {
            "precision": prec,
            "recall": rec,
            "f1": 2 * prec * rec / (prec + rec) if prec + rec else 0.0,
        }
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "n_pred": len(p),
        "n_gold": len(g),
        "per_pred": per_pred,
    }


MENTION_KEY = ["doc_id", "start", "end", "label"]


def score_mentions_frames(pred: pd.DataFrame, gold: pd.DataFrame) -> dict:
    """Span-level P/R/F global and per label (the reference's
    evaluate output shape, recon/recognizer.py:48-81): exact-match on
    (doc_id, start, end, label)."""
    p = set(map(tuple, pred[MENTION_KEY].itertuples(index=False)))
    g = set(map(tuple, gold[MENTION_KEY].itertuples(index=False)))
    tp = len(p & g)
    precision = tp / len(p) if p else 0.0
    recall = tp / len(g) if g else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    per_label = {}
    for lbl in sorted({k[3] for k in p | g}):
        pp = {k for k in p if k[3] == lbl}
        gg = {k for k in g if k[3] == lbl}
        tpp = len(pp & gg)
        prec = tpp / len(pp) if pp else 0.0
        rec = tpp / len(gg) if gg else 0.0
        per_label[lbl] = {
            "precision": prec,
            "recall": rec,
            "f1": 2 * prec * rec / (prec + rec) if prec + rec else 0.0,
        }
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "per_label": per_label,
    }

