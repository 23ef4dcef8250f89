"""HAND-PINNED gold: literal source files → literal expected triples.

Every other KG parity test compares the Ray pipeline against the in-repo
sequential extractor — both consume spec.py, so a spec-level bug would be
invisible to them (the round-1 verdict's one structural caveat). Here the
expected mentions and canonical triples were derived BY HAND from the
documented pattern/correction/linking semantics (spec.py docstrings;
recon/corrections.py, recon/validation.py, recon/linker.py) and are
asserted against BOTH engines. A bug in spec.py's patterns or in either
engine breaks this file.

Semantics exercised: line-anchored import/from-import (python), require +
import-from (javascript), quoted import (go); DEF-beats-CALL overlap at
definition sites (chain-greedy longest-wins); trailing-space CALL spans
stripped then keyword false-positives deleted (`if`, `print`); same-module
resolution priority; cross-module fallback to the lexicographically
smallest qualified id; the `<module>` subject for pre-DEF calls; the
never-reset current_def (top-level calls after a def attribute to it);
calls_unresolved; import_root per language (first dotted component /
first path segment / full go path); exact-dedup n_mentions counting and
lexicographically-smallest (repo, path) provenance.
"""

from __future__ import annotations

import hashlib

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from recon_ray import reference_extractor as rx

# --- the corpus: four literal files -----------------------------------------

FILE_A = "\n".join([
    "import numpy.linalg",
    "from collections.abc import Mapping",
    "",
    "def helper(x):",
    "    return calc(x)",
    "",
    "def calc(y):",
    "    z = helper(y) + print(y)",
    "    if (y):",
    "        pass",
    "    total = 1",
    "",
])

FILE_B = "\n".join([
    "import numpy",
    "",
    "helper(1)",
    "",
    "def calc(v):",
    "    return v",
    "",
    "result = calc(2)",
    "unknown_fn(3)",
    "foo\t(9)",
    "",
])

FILE_C = "\n".join([
    "import widget from 'lodash/fp'",
    "const axios = require('axios')",
    "",
    "function render(el) {",
    "  return el",
    "}",
    "",
    "function drawAll(list) {",
    "  render(list)",
    "  draw(list)",
    "}",
    "",
])

FILE_D = "\n".join([
    "package main",
    "",
    'import "net/http"',
    "",
    "func fetch(url string) string {",
    "\tresp := get(url)",
    "\treturn resp",
    "}",
    "",
    "func get(url string) string {",
    "\treturn url",
    "}",
    "",
])

ROWS = [
    {"repo": "r1", "path": "src/app.py", "commit": "c1", "lang": "python",
     "content": FILE_A},
    {"repo": "r1", "path": "src/util.py", "commit": "c1", "lang": "python",
     "content": FILE_B},
    {"repo": "r2", "path": "lib/main.js", "commit": "c2", "lang": "javascript",
     "content": FILE_C},
    {"repo": "r2", "path": "cmd/tool.go", "commit": "c2", "lang": "go",
     "content": FILE_D},
]

# --- hand-derived expectations ----------------------------------------------

#: (label, text) per file in start order, AFTER the correction chain.
#: Derivation notes: `print`/`if` CALL spans are detected (the `if (y)` span
#: is "if " and strip_annotations trims the trailing space) then deleted by
#: fix_annotations; the CALL at each def site ("helper(", "calc(",
#: "render(", "drawAll(", "fetch(", "get(") loses to the longer DEF span in
#: filter_overlaps; IDENTs come from the assignment patterns.
EXPECTED_MENTIONS = {
    "src/app.py": [
        ("IMPORT", "numpy.linalg"),
        ("IMPORT", "collections.abc"),
        ("DEF", "def helper"),
        ("CALL", "calc"),
        ("DEF", "def calc"),
        ("IDENT", "z"),
        ("CALL", "helper"),
        ("IDENT", "total"),
    ],
    "src/util.py": [
        ("IMPORT", "numpy"),
        ("CALL", "helper"),
        ("DEF", "def calc"),
        ("IDENT", "result"),
        ("CALL", "calc"),
        ("CALL", "unknown_fn"),
        # `foo\t(9)`: the call pattern's group keeps the tab, and the tab is
        # NOT in STRIP_CHARS (space is), so the mention text retains it —
        # reference-faithful strip semantics, pinned on purpose.
        ("CALL", "foo\t"),
    ],
    "lib/main.js": [
        ("IMPORT", "lodash/fp"),
        ("IDENT", "axios"),
        ("CALL", "require"),
        ("IMPORT", "axios"),
        ("DEF", "function render"),
        ("DEF", "function drawAll"),
        ("CALL", "render"),
        ("CALL", "draw"),
    ],
    "cmd/tool.go": [
        ("IMPORT", "net/http"),
        ("DEF", "func fetch"),
        ("IDENT", "resp"),
        ("CALL", "get"),
        ("DEF", "func get"),
    ],
}

#: (subj, pred, obj, subj_type, obj_type, n_mentions). Derivation notes:
#: - `numpy` is imported by both r1 files (as `numpy.linalg` and `numpy`;
#:   import_root takes the first dotted component) → one canonical row with
#:   n_mentions=2, provenance = min(path) = src/app.py.
#: - `helper(1)` in src/util.py runs before any DEF → subj is the
#:   `<module>` sentinel; `helper` is only defined in src.app, so the
#:   cross-module fallback resolves to r1:src.app.helper.
#: - `calc(2)` in src/util.py runs AFTER `def calc` and current_def never
#:   resets → the self-edge (r1:src.util.calc, calls, r1:src.util.calc).
#: - `calc(x)` inside helper resolves same-module (r1:src.app.calc wins
#:   over r1:src.util.calc despite sorting first anyway).
#: - `require` is a CALL (not a keyword) with no definition → unresolved,
#:   subject = the js file's <module> (it precedes both function defs).
#: - go's import_root keeps the full path (`net/http`).
EXPECTED_CANONICAL = sorted([
    # file A (r1, src/app.py, module src.app)
    ("r1", "imports", "numpy", "repo", "package", 2),
    ("r1/src/app.py", "imports_module", "numpy.linalg", "file", "module", 1),
    ("r1", "imports", "collections", "repo", "package", 1),
    ("r1/src/app.py", "imports_module", "collections.abc", "file", "module", 1),
    ("r1/src/app.py", "defines", "r1:src.app.helper", "file", "function", 1),
    ("r1:src.app.helper", "calls", "r1:src.app.calc", "function", "function", 1),
    ("r1/src/app.py", "defines", "r1:src.app.calc", "file", "function", 1),
    ("r1:src.app.calc", "calls", "r1:src.app.helper", "function", "function", 1),
    # file B (r1, src/util.py, module src.util)
    ("r1/src/util.py", "imports_module", "numpy", "file", "module", 1),
    ("r1:src.util.<module>", "calls", "r1:src.app.helper", "function", "function", 1),
    ("r1/src/util.py", "defines", "r1:src.util.calc", "file", "function", 1),
    ("r1:src.util.calc", "calls", "r1:src.util.calc", "function", "function", 1),
    ("r1:src.util.calc", "calls_unresolved", "unknown_fn", "function", "ident", 1),
    ("r1:src.util.calc", "calls_unresolved", "foo\t", "function", "ident", 1),
    # file C (r2, lib/main.js, module lib.main)
    ("r2", "imports", "lodash", "repo", "package", 1),
    ("r2/lib/main.js", "imports_module", "lodash/fp", "file", "module", 1),
    ("r2:lib.main.<module>", "calls_unresolved", "require", "function", "ident", 1),
    ("r2", "imports", "axios", "repo", "package", 1),
    ("r2/lib/main.js", "imports_module", "axios", "file", "module", 1),
    ("r2/lib/main.js", "defines", "r2:lib.main.render", "file", "function", 1),
    ("r2/lib/main.js", "defines", "r2:lib.main.drawAll", "file", "function", 1),
    ("r2:lib.main.drawAll", "calls", "r2:lib.main.render", "function", "function", 1),
    ("r2:lib.main.drawAll", "calls_unresolved", "draw", "function", "ident", 1),
    # file D (r2, cmd/tool.go, module cmd.tool)
    ("r2", "imports", "net/http", "repo", "package", 1),
    ("r2/cmd/tool.go", "imports_module", "net/http", "file", "module", 1),
    ("r2/cmd/tool.go", "defines", "r2:cmd.tool.fetch", "file", "function", 1),
    ("r2:cmd.tool.fetch", "calls", "r2:cmd.tool.get", "function", "function", 1),
    ("r2/cmd/tool.go", "defines", "r2:cmd.tool.get", "file", "function", 1),
])

#: qualified definition ids per (repo, name) — the whole symbol dictionary.
EXPECTED_SYMBOLS = {
    ("r1", "calc"): ["r1:src.app.calc", "r1:src.util.calc"],
    ("r1", "helper"): ["r1:src.app.helper"],
    ("r2", "drawAll"): ["r2:lib.main.drawAll"],
    ("r2", "fetch"): ["r2:cmd.tool.fetch"],
    ("r2", "get"): ["r2:cmd.tool.get"],
    ("r2", "render"): ["r2:lib.main.render"],
}


def _mention_seq(mentions: list[dict]) -> dict[str, list[tuple[str, str]]]:
    by_path: dict[str, list] = {}
    for m in sorted(mentions, key=lambda m: (m["path"], m["start"], m["end"])):
        by_path.setdefault(m["path"], []).append((m["label"], m["text"]))
    return by_path


def _canon_tuples(canonical: list[dict]) -> list[tuple]:
    return sorted(
        (t["subj"], t["pred"], t["obj"], t["subj_type"], t["obj_type"],
         t["n_mentions"])
        for t in canonical
    )


# --- sequential engine vs the hand gold --------------------------------------


@pytest.fixture(scope="module")
def sequential():
    return rx.extract_corpus(ROWS)


def test_sequential_mentions_match_hand_gold(sequential):
    assert _mention_seq(sequential["mentions"]) == EXPECTED_MENTIONS


def test_sequential_mention_offsets_self_consistent(sequential):
    content = {(r["repo"], r["path"]): r["content"] for r in ROWS}
    for m in sequential["mentions"]:
        assert m["end"] - m["start"] == len(m["text"])
        assert content[(m["repo"], m["path"])][m["start"]:m["end"]] == m["text"]


def test_sequential_canonical_matches_hand_gold(sequential):
    assert _canon_tuples(sequential["canonical"]) == EXPECTED_CANONICAL


def test_sequential_symbols_match_hand_gold(sequential):
    got: dict[tuple, list] = {}
    for row in sequential["symbols"]:
        got.setdefault((row["repo"], row["name"]), []).append(row["id"])
    assert got == EXPECTED_SYMBOLS


def test_sequential_provenance_of_duplicate(sequential):
    """The n_mentions=2 numpy row keeps the lexicographically smallest
    (repo, path) provenance and that file's sha256."""
    [row] = [t for t in sequential["canonical"]
             if (t["subj"], t["pred"], t["obj"]) == ("r1", "imports", "numpy")]
    assert (row["repo"], row["path"], row["commit"]) == ("r1", "src/app.py", "c1")
    assert row["content_sha256"] == hashlib.sha256(FILE_A.encode()).hexdigest()


# --- Ray pipeline vs the same hand gold --------------------------------------


@pytest.fixture(scope="module")
def ray_result(tmp_path_factory):
    from recon_ray.pipelines.kg import run_kg

    d = tmp_path_factory.mktemp("handpinned")
    pq.write_table(pa.Table.from_pylist(ROWS), str(d / "part-0.parquet"))
    res = run_kg(str(d))
    return {
        "canonical": res["canonical"].to_pandas(),
        "mentions": res["mentions"].to_pandas(),
    }


def test_ray_mentions_match_hand_gold(ray_result):
    assert _mention_seq(ray_result["mentions"].to_dict("records")) == EXPECTED_MENTIONS


def test_ray_canonical_matches_hand_gold(ray_result):
    assert _canon_tuples(ray_result["canonical"].to_dict("records")) == EXPECTED_CANONICAL


def test_ray_provenance_of_duplicate(ray_result):
    df = ray_result["canonical"]
    row = df[(df["subj"] == "r1") & (df["pred"] == "imports")
             & (df["obj"] == "numpy")]
    assert len(row) == 1
    r = row.iloc[0]
    assert (r["repo"], r["path"], r["commit"]) == ("r1", "src/app.py", "c1")
    assert r["content_sha256"] == hashlib.sha256(FILE_A.encode()).hexdigest()
    assert int(r["n_mentions"]) == 2
