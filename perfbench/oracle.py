"""Expected outputs, derived without the pipeline under test.

KG workloads: the canonical triples of ``reference_extractor.extract_corpus``
(the single-process oracle) over the same generated corpus, reduced to a
SHA-256 digest of every row and column, provenance included. The
digests are pinned in ``expected.json``, per corpus size, for corpora
0..N-1 (N = 100), each with the corpusgen seed it maps to and the digest
of the generated input, so an edit to ``corpusgen.py`` stops the
benchmark instead of quietly changing its workload. Benchmark seed ``n``
selects pinned corpus ``n mod N``; nothing is computed or cached at run
time.

Exchange layers (timed in kg_resume's traced run): the same questions
answered with single-process pyarrow and a plain-Python triangle count.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import defaultdict

import pyarrow as pa
import pyarrow.compute as pc

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
GENERATOR = "recon_ray.corpusgen.generate_corpus"

KEY_COLS = ["subj", "pred", "obj", "subj_type", "obj_type"]
CANON_COLS = KEY_COLS + ["n_mentions", "repo", "path", "commit",
                         "content_sha256", "extractor"]
CORPUS_COLS = ["repo", "path", "commit", "lang", "content"]


class Mismatch(Exception):
    """An output differs from its expected value."""


class InputDrift(Exception):
    """The generated input no longer matches its pinned digest."""


def rows_digest(table: pa.Table, cols: list[str]) -> str:
    """SHA-256 over the rows of ``table`` in their current order, each
    row the \\x1f-joined string form of ``cols`` (nulls as \\x00)."""
    parts = [pc.cast(table.column(c), pa.string()) for c in cols]
    rows = pc.binary_join_element_wise(
        *parts, "\x1f", null_handling="replace", null_replacement="\x00")
    h = hashlib.sha256()
    for chunk in rows.chunks if isinstance(rows, pa.ChunkedArray) else [rows]:
        h.update("\n".join(chunk.to_pylist()).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def canonical_digest(table: pa.Table) -> str:
    """Order-free digest of a canonical-triples table (every column)."""
    table = table.select(CANON_COLS).sort_by([(c, "ascending") for c in KEY_COLS])
    return rows_digest(table, CANON_COLS)


def corpus_digest(table: pa.Table) -> str:
    return rows_digest(table, CORPUS_COLS)


def reference_record(corpus: pa.Table) -> dict:
    """Run the sequential oracle over ``corpus`` and summarise its
    canonical output."""
    from recon_ray import reference_extractor as rx

    canon = pa.Table.from_pylist(rx.extract_corpus(corpus.to_pylist())["canonical"])
    return {
        "input_sha256": corpus_digest(corpus),
        "canonical_sha256": canonical_digest(canon),
        "n_canonical": canon.num_rows,
        "n_raw": int(pc.sum(canon.column("n_mentions")).as_py() or 0),
    }


def load_pinned() -> dict:
    with open(EXPECTED_PATH) as f:
        return json.load(f)


def kg_expected(seed: int, n_files: int, generate) -> dict:
    """Pinned expected record for benchmark seed ``seed``: corpus
    ``seed mod N`` of the N pinned ones. ``generate(corpus_seed)``
    builds the corpus table, whose digest must still be the pinned one;
    raises InputDrift otherwise, or when nothing is pinned for this
    generator and size."""
    pinned = load_pinned()
    corpora = pinned.get("kg", {}).get(str(n_files), {})
    keys = sorted(int(k) for k in corpora)
    if pinned.get("generator") != GENERATOR or not keys:
        raise InputDrift(
            f"{EXPECTED_PATH} pins no corpora of {GENERATOR}({n_files}); pin them with "
            "perfbench/pin_expected.py --seeds 0-99")
    rec = corpora[str(keys[seed % len(keys)])]
    digest = corpus_digest(generate(rec["corpus_seed"]))
    if digest != rec["input_sha256"]:
        raise InputDrift(
            f"{GENERATOR}({n_files}, seed={rec['corpus_seed']}) no longer produces the "
            f"pinned corpus ({digest} != {rec['input_sha256']}); re-pin with "
            "perfbench/pin_expected.py if the change is intended")
    return rec


def check_canonical(table: pa.Table, expected: dict) -> int:
    """Raise Mismatch unless ``table`` is the expected canonical output;
    returns its raw-triple count (sum of n_mentions)."""
    if table.num_rows == 0:
        raise Mismatch("no canonical triples written")
    digest = canonical_digest(table)
    if table.num_rows != expected["n_canonical"] or digest != expected["canonical_sha256"]:
        raise Mismatch(
            f"canonical triples differ from reference_extractor: {table.num_rows} rows "
            f"(expected {expected['n_canonical']}), digest {digest[:16]} "
            f"(expected {expected['canonical_sha256'][:16]})")
    return expected["n_raw"]


# --- exchange ----------------------------------------------------------------

def grouped_expected(facts: pa.Table) -> pa.Table:
    g = facts.group_by("subj").aggregate([("w", "sum"), ("w", "count"), ("w", "max")])
    return g.sort_by("subj")


def join_expected_digest(facts: pa.Table, dim: pa.Table) -> tuple[int, str]:
    j = facts.join(dim, "subj", join_type="inner")
    return j.num_rows, join_digest(j)


def join_digest(joined: pa.Table) -> str:
    cols = ["subj", "pred", "obj", "w", "repo"]
    joined = joined.select(cols).sort_by([(c, "ascending") for c in cols])
    return rows_digest(joined, cols)


def triangle_expected(edges: pa.Table) -> dict:
    """Undirected triangle census by the forward algorithm: orient every
    edge from lower to higher (degree, node) rank and intersect the
    out-neighbour sets at each edge's ends."""
    adj: dict[str, set] = defaultdict(set)
    for u, v in zip(edges.column("subj").to_pylist(), edges.column("obj").to_pylist()):
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    rank = {n: i for i, n in enumerate(sorted(adj, key=lambda n: (len(adj[n]), n)))}
    out = {n: {m for m in nb if rank[m] > rank[n]} for n, nb in adj.items()}
    triangles = sum(len(out[u] & out[v]) for u in out for v in out[u])
    degrees = [len(nb) for nb in adj.values()]
    return {
        "n_nodes": len(adj),
        "n_edges": sum(degrees) // 2,
        "n_wedges": sum(d * (d - 1) // 2 for d in degrees),
        "n_triangles": triangles,
    }


def check_grouped(got, expected: pa.Table) -> int:
    """``got`` is grouped_agg's pandas frame (columns w_sum, w_count,
    w_max). Counts and maxima must match exactly, sums to 1e-9 relative
    (the exchange adds partial sums in another order)."""
    got = got.sort_values("subj").reset_index(drop=True)
    if len(got) != expected.num_rows:
        raise Mismatch(f"grouped_agg: {len(got)} groups, expected {expected.num_rows}")
    exp = expected.to_pandas()
    if list(got["subj"]) != list(exp["subj"]) \
            or list(got["w_count"].astype("int64")) != list(exp["w_count"]) \
            or list(got["w_max"]) != list(exp["w_max"]):
        raise Mismatch("grouped_agg: keys, counts or maxima differ from pyarrow")
    err = ((got["w_sum"] - exp["w_sum"]).abs() / exp["w_sum"].abs().clip(lower=1e-12)).max()
    if not err <= 1e-9:
        raise Mismatch(f"grouped_agg: sums differ from pyarrow by {err:.3g} relative")
    return len(got)


def check_triangles(got, expected: dict) -> None:
    row = {k: int(got[k].iloc[0]) for k in expected}
    if row != expected:
        raise Mismatch(f"triangle_stats: {row}, expected {expected}")
