"""JSONL/BIO sources, corpus IO, mention scorer, CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pandas as pd
import pytest
import ray.data as rd


def test_jsonl_roundtrip(tmp_path):
    from recon_ray.sources.jsonl import read_jsonl_examples, write_jsonl_examples

    records = [
        # span text back-filled from offsets (recon/types.py:85-96)
        {"text": "Denver, Colorado is a city.",
         "spans": [{"start": 0, "end": 6, "label": "GPE"}],
         "meta": "Cities Data"},  # str meta → {"source": ...}
        {"text": "no spans here", "spans": [], "meta": {"k": "v"}},
        {"text": "ab cd", "spans": [{"start": 3, "end": 5, "label": "X",
                                     "text": "cd"}]},
    ]
    src = tmp_path / "in.jsonl"
    src.write_text("\n".join(json.dumps(r) for r in records))
    docs = read_jsonl_examples(str(src))
    t = docs.to_pandas().sort_values("text").reset_index(drop=True)
    assert len(t) == 3
    denver = t[t["text"].str.startswith("Denver")].iloc[0]
    assert denver["mentions"][0]["text"] == "Denver"
    assert json.loads(denver["meta_json"]) == {"source": "Cities Data"}
    out = tmp_path / "out"
    write_jsonl_examples(docs, str(out))
    back = read_jsonl_examples(str(out))
    assert sorted(back.to_pandas()["doc_id"]) == sorted(t["doc_id"])


def test_bio_decode():
    from recon_ray.sources.bio import decode_bio_row, read_bio_dataset

    tokens = ["John", "Smith", "works", "at", "Acme", "Corp", "."]
    tags = ["B-PER", "I-PER", "O", "O", "B-ORG", "I-ORG", "O"]
    text, spans = decode_bio_row(tokens, tags)
    assert text == "John Smith works at Acme Corp ."
    assert spans == [
        ("John Smith", 0, 10, "PER"),
        ("Acme Corp", 20, 29, "ORG"),
    ]
    ds = rd.from_items([{"tokens": tokens, "tags": tags}])
    docs = read_bio_dataset(ds).to_pandas()
    assert docs.iloc[0]["mentions"][0]["label"] == "PER"
    # adjacent B- spans, trailing entity
    _, s2 = decode_bio_row(["a", "b"], ["B-X", "B-X"])
    assert [(x[1], x[2]) for x in s2] == [(0, 1), (2, 3)]
    _, s3 = decode_bio_row(["a", "b"], ["O", "B-Y"])
    assert s3 == [("b", 2, 3, "Y")]


def test_corpus_io(tmp_path, unit_corpus_dir):
    from recon_ray.sources.corpus_io import (
        corpus_all,
        corpus_apply,
        load_corpus,
        save_corpus,
    )

    files = rd.read_parquet(unit_corpus_dir)
    n = files.count()
    train, rest = files.split_proportionately([0.6])
    dev, test = rest.split_proportionately([0.5])
    save_corpus({"train": train, "dev": dev, "test": test}, str(tmp_path / "c"))
    corpus = load_corpus(str(tmp_path / "c"))
    assert corpus["__meta__"]["splits"] == ["dev", "test", "train"]
    assert corpus_all(corpus).count() == n
    counts = corpus_apply(corpus, lambda ds: ds.count())
    assert counts["all"] == n
    assert counts["train"] + counts["dev"] + counts["test"] == n


def test_score_mentions():
    from recon_ray.functions.scoring import score_mentions_frames

    gold = pd.DataFrame(
        {"doc_id": [1, 1, 2], "start": [0, 5, 0], "end": [3, 8, 2],
         "label": ["A", "B", "A"]}
    )
    pred = pd.DataFrame(
        {"doc_id": [1, 1, 2], "start": [0, 5, 1], "end": [3, 8, 2],
         "label": ["A", "B", "A"]}
    )
    s = score_mentions_frames(pred, gold)
    assert s["precision"] == pytest.approx(2 / 3)
    assert s["recall"] == pytest.approx(2 / 3)
    assert s["per_label"]["B"]["f1"] == 1.0


def test_cli_score_and_stats(tmp_path, unit_corpus_dir, gold_extraction):
    gold = pd.DataFrame(gold_extraction["canonical"])
    p1 = tmp_path / "pred.parquet"
    p2 = tmp_path / "gold.parquet"
    gold.to_parquet(p1)
    gold.to_parquet(p2)
    env = dict(os.environ, PYTHONPATH="/root/repo")
    r = subprocess.run(
        [sys.executable, "-m", "recon_ray", "score", str(p1), str(p2)],
        capture_output=True, text=True, env=env, cwd="/root/repo", timeout=120,
    )
    assert r.returncode == 0, r.stderr[-500:]
    assert json.loads(r.stdout)["f1"] == 1.0


def test_cli_search(unit_corpus_dir):
    """search verb: streaming substring match over file contents (the
    Dataset.search analogue, recon/dataset.py:291-311)."""
    env = dict(os.environ, PYTHONPATH="/root/repo")
    r = subprocess.run(
        [sys.executable, "-m", "recon_ray", "search", unit_corpus_dir,
         "import numpy"],
        capture_output=True, text=True, env=env, cwd="/root/repo", timeout=300,
    )
    assert r.returncode == 0, r.stderr[-500:]
    lines = [ln for ln in r.stdout.splitlines() if ln.strip()]
    assert len(lines) > 0
    assert all("\t" in ln for ln in lines)  # repo\tpath rows
    # case sensitivity: uppercase query only hits with -i
    r2 = subprocess.run(
        [sys.executable, "-m", "recon_ray", "search", unit_corpus_dir,
         "IMPORT NUMPY"],
        capture_output=True, text=True, env=env, cwd="/root/repo", timeout=300,
    )
    assert r2.returncode == 0
    assert not [ln for ln in r2.stdout.splitlines() if ln.strip()]
    r3 = subprocess.run(
        [sys.executable, "-m", "recon_ray", "search", "-i", unit_corpus_dir,
         "IMPORT NUMPY"],
        capture_output=True, text=True, env=env, cwd="/root/repo", timeout=300,
    )
    assert r3.returncode == 0
    assert len([ln for ln in r3.stdout.splitlines() if ln.strip()]) == len(lines)


def test_cli_curate(tmp_path):
    """curate verb: documents parquet → packed-sequence parquet, budget
    respected, JSON summary on stdout."""
    env = dict(os.environ, PYTHONPATH="/root/repo")
    out = tmp_path / "packed"
    r = subprocess.run(
        [sys.executable, "-m", "recon_ray", "curate",
         "/root/testdata/sf0.001/documents.parquet", str(out)],
        capture_output=True, text=True, env=env, cwd="/root/repo", timeout=300,
    )
    assert r.returncode == 0, r.stderr[-500:]
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    df = pd.concat(
        pd.read_parquet(p) for p in out.glob("*.parquet")
    )
    assert summary["n_docs_packed"] == len(df) > 0
    assert df.groupby(["bucket", "seq_id"]).n_tokens.sum().max() <= 512


def test_docbin_roundtrip(tmp_path):
    """write_docbin → read_docbin round-trips text and entity spans through
    the spaCy DocBin byte format (zlib+msgpack, ORTH/ENT_IOB/ENT_TYPE),
    including multi-space and tab whitespace that needs pseudo-tokens."""
    from recon_ray.sources.jsonl import records_to_table
    from recon_ray.sources.spacy_bin import (
        hash_string,
        read_docbin,
        write_docbin,
    )

    records = [
        {
            "text": "Alice met Bob at ACME Corp yesterday.",
            "spans": [
                {"start": 0, "end": 5, "label": "PERSON"},
                {"start": 10, "end": 13, "label": "PERSON"},
                {"start": 17, "end": 26, "label": "ORG"},
            ],
        },
        {"text": "no entities  double space\tand tab", "spans": []},
        {
            "text": "trailing span end",
            "spans": [{"start": 9, "end": 17, "label": "X"}],
        },
    ]
    docs = rd.from_arrow(records_to_table(records))
    path = str(tmp_path / "out.spacy")
    assert write_docbin(docs, path) == 3
    back = read_docbin(path).to_pandas().sort_values("text").reset_index(drop=True)
    want = pd.DataFrame(records).sort_values("text").reset_index(drop=True)
    assert back["text"].tolist() == want["text"].tolist()
    got_spans = [
        [(s["start"], s["end"], s["label"]) for s in row]
        for row in back["mentions"]
    ]
    want_spans = [
        [(s["start"], s["end"], s["label"]) for s in row]
        for row in want["spans"]
    ]
    assert got_spans == want_spans

    # hash function invariants (spaCy StringStore contract)
    assert hash_string("") == 0
    assert hash_string("ACME") == hash_string("ACME") != hash_string("acme")


def test_prodigy_jsonl_roundtrip(tmp_path):
    """to_prodigy_jsonl/from_prodigy_jsonl: dataset-exists guard, hash
    fields, answer filtering, and the missing-dataset error listing."""
    from recon_ray.sources.jsonl import records_to_table
    from recon_ray.sources.prodigy_io import (
        from_prodigy_jsonl,
        to_prodigy_jsonl,
    )

    root = str(tmp_path / "prodigy_db")
    records = [
        {"text": "Alice met Bob.", "spans": [
            {"start": 0, "end": 5, "label": "PERSON"}]},
        {"text": "plain text row", "spans": []},
    ]
    docs = rd.from_arrow(records_to_table(records))
    assert to_prodigy_jsonl(docs, root, "train") == 2
    with pytest.raises(ValueError, match="already exists"):
        to_prodigy_jsonl(docs, root, "train")
    assert to_prodigy_jsonl(docs, root, "train", overwrite_dataset=True) == 2

    # hashes: same text different spans → same input hash, different task
    lines = [json.loads(l) for l in open(
        os.path.join(root, "train.jsonl"))]
    assert all("_input_hash" in r and "_task_hash" in r for r in lines)

    back = from_prodigy_jsonl(root, "train").to_pandas()
    assert sorted(back["text"]) == sorted(r["text"] for r in records)

    # answer filter: hand-add a rejected record
    with open(os.path.join(root, "train.jsonl"), "a") as f:
        f.write(json.dumps(
            {"text": "rejected row", "spans": [], "answer": "reject"}) + "\n")
    assert from_prodigy_jsonl(root, "train").count() == 2
    assert from_prodigy_jsonl(root, "train", answers=None).count() == 3

    with pytest.raises(ValueError, match="Available datasets"):
        from_prodigy_jsonl(root, "nope")


def test_cli_convert_roundtrip(tmp_path):
    """convert verb: JSONL → .spacy → JSONL and JSONL → prodigy → JSONL
    preserve texts and spans."""
    env = dict(os.environ, PYTHONPATH="/root/repo")
    src = tmp_path / "in.jsonl"
    recs = [
        {"text": "Alice met Bob.", "spans": [
            {"start": 0, "end": 5, "label": "PERSON"},
            {"start": 10, "end": 13, "label": "PERSON"}]},
        {"text": "nothing here", "spans": []},
    ]
    src.write_text("\n".join(json.dumps(r) for r in recs) + "\n")

    def run(*argv):
        r = subprocess.run(
            [sys.executable, "-m", "recon_ray", "convert", *argv],
            capture_output=True, text=True, env=env, cwd="/root/repo",
            timeout=300,
        )
        assert r.returncode == 0, r.stderr[-500:]
        return json.loads(r.stdout.strip().splitlines()[-1])

    def read_out(d):
        rows = []
        for p in sorted(d.glob("*.jsonl")):
            rows += [json.loads(l) for l in p.read_text().splitlines()]
        return sorted(rows, key=lambda r: r["text"])

    spacy_f = tmp_path / "out.spacy"
    assert run("jsonl-to-spacy", str(src), str(spacy_f))["docs"] == 2
    back1 = tmp_path / "back1"
    run("spacy-to-jsonl", str(spacy_f), str(back1))
    got = read_out(back1)
    assert [r["text"] for r in got] == sorted(r["text"] for r in recs)
    assert [(s["start"], s["end"], s["label"]) for s in got[0]["spans"]] == [
        (0, 5, "PERSON"), (10, 13, "PERSON")]

    pdir = tmp_path / "pdb"
    run("jsonl-to-prodigy", str(src), str(pdir), "--dataset", "d1")
    back2 = tmp_path / "back2"
    run("prodigy-to-jsonl", str(pdir), str(back2), "--dataset", "d1")
    assert [r["text"] for r in read_out(back2)] == sorted(
        r["text"] for r in recs)


def test_cli_diff(tmp_path):
    """diff verb: content-addressed version diff counts + --rows."""
    import pandas as pd

    old = pd.DataFrame({"doc_id": [1, 2, 3], "text": ["a", "b", "c"]})
    new = pd.DataFrame({"doc_id": [2, 3, 4], "text": ["b", "C", "d"]})
    old_p, new_p = str(tmp_path / "old"), str(tmp_path / "new")
    os.makedirs(old_p), os.makedirs(new_p)
    old.to_parquet(f"{old_p}/part.parquet", index=False)
    new.to_parquet(f"{new_p}/part.parquet", index=False)

    env = dict(os.environ, PYTHONPATH="/root/repo")
    r = subprocess.run(
        [sys.executable, "-m", "recon_ray", "diff", old_p, new_p, "--rows"],
        capture_output=True, text=True, env=env, cwd="/root/repo", timeout=300,
    )
    assert r.returncode == 0, r.stderr[-500:]
    assert "# 1 added, 1 removed, 1 changed" in r.stderr
    rows = dict(
        ln.split("\t") for ln in r.stdout.splitlines() if "\t" in ln
    )
    assert rows == {"1": "removed", "3": "changed", "4": "added"}


def test_render_mentions_matches_reference_walk():
    """render semantics = the reference's offset walk
    (recon/types.py:174-188), including the empty-label skip."""
    from recon_ray.ops.render import render_mentions

    text = "import os\ndef foo():"
    ms = [(0, 9, "IMPORT"), (10, 17, ""), (17, 20, "CALL")]
    out = render_mentions(text, ms)
    # empty label → highlighted but no label group, like the reference
    assert out == "[import os](IMPORT)\n[def foo][():](CALL)"


def test_cli_show(unit_corpus_dir):
    env = dict(os.environ, PYTHONPATH="/root/repo")
    r = subprocess.run(
        [sys.executable, "-m", "recon_ray", "show", unit_corpus_dir,
         "--limit", "2", "--no-color"],
        capture_output=True, text=True, env=env, cwd="/root/repo", timeout=300,
    )
    assert r.returncode == 0, r.stderr[-500:]
    assert "# 2 files rendered" in r.stderr
    assert "===" in r.stdout and "[" in r.stdout and "(" in r.stdout


def test_cli_report():
    env = dict(os.environ, PYTHONPATH="/root/repo")
    r = subprocess.run(
        [sys.executable, "-m", "recon_ray", "report",
         "/root/testdata/sf0.001/documents.parquet"],
        capture_output=True, text=True, env=env, cwd="/root/repo", timeout=600,
    )
    assert r.returncode == 0, r.stderr[-800:]
    assert "docs: 500" in r.stdout
    assert "languages:" in r.stdout and "top terms:" in r.stdout
    assert "quality quantiles" in r.stdout


def test_cli_report_html(tmp_path):
    out = tmp_path / "rep.html"
    env = dict(os.environ, PYTHONPATH="/root/repo")
    r = subprocess.run(
        [sys.executable, "-m", "recon_ray", "report",
         "/root/testdata/sf0.001/documents.parquet", "--html", str(out)],
        capture_output=True, text=True, env=env, cwd="/root/repo", timeout=600,
    )
    assert r.returncode == 0, r.stderr[-800:]
    html = out.read_text()
    assert html.startswith("<!doctype html>")
    for section in ("Summary", "Languages", "Quality quantiles",
                    "Top terms"):
        assert f"<h2>{section}</h2>" in html
    # self-contained: no scripts, no external fetches
    assert "<script" not in html and "http" not in html.split("</h1>")[1]


def test_ntriples_round_trip(tmp_path):
    """write_ntriples → read_ntriples is byte-exact for hostile entity
    strings (spaces, angle brackets, unicode, percent signs, dots)."""
    import pandas as pd
    import ray.data as rd

    from recon_ray.sources.ntriples import read_ntriples, write_ntriples

    df = pd.DataFrame(
        {
            "subj": ["repo/a b", "pkg.mod", "wäird<>", "100%"],
            "pred": ["imports", "calls", "defines", "imports"],
            "obj": ["numpy", "os.path join", "x\ty", "a.b."],
        }
    )
    out = str(tmp_path / "nt")
    n = write_ntriples(rd.from_pandas(df).repartition(2), out)
    assert n == 4
    files = [f for f in os.listdir(out) if f.endswith(".nt")]
    assert files and not any(f.startswith(".") for f in files)
    # every statement line terminates with ' .'
    for f in files:
        for line in open(os.path.join(out, f)):
            assert line.rstrip("\n").endswith(" .")
    got = (
        read_ntriples(out)
        .to_pandas()
        .sort_values(["subj", "pred", "obj"])
        .reset_index(drop=True)
    )
    want = df.sort_values(["subj", "pred", "obj"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def test_ntriples_malformed_raises(tmp_path):
    import ray.data as rd  # noqa: F401  (ray session from conftest)

    from recon_ray.sources.ntriples import read_ntriples

    p = tmp_path / "bad"
    p.mkdir()
    (p / "part-x.nt").write_text("<urn:recon:a> <urn:recon:b> .\n")
    with pytest.raises(Exception):
        read_ntriples(str(p)).to_pandas()


def test_cli_graph_and_profile(tmp_path, gold_extraction):
    """graph + profile verbs over a triples parquet built from the unit
    corpus's gold extraction."""
    import pandas as pd

    gold = pd.DataFrame(gold_extraction["canonical"])
    p = tmp_path / "triples.parquet"
    gold.to_parquet(p)
    env = dict(os.environ, PYTHONPATH="/root/repo")

    r = subprocess.run(
        [sys.executable, "-m", "recon_ray", "graph", "triangles", str(p),
         "--pred", "calls"],
        capture_output=True, text=True, env=env, cwd="/root/repo",
        timeout=300,
    )
    assert r.returncode == 0, r.stderr[-500:]
    assert "n_triangles" in r.stdout

    r = subprocess.run(
        [sys.executable, "-m", "recon_ray", "graph", "hits", str(p),
         "--limit", "3"],
        capture_output=True, text=True, env=env, cwd="/root/repo",
        timeout=300,
    )
    assert r.returncode == 0, r.stderr[-500:]
    assert "auth_q" in r.stdout

    r = subprocess.run(
        [sys.executable, "-m", "recon_ray", "profile", str(p), "pred"],
        capture_output=True, text=True, env=env, cwd="/root/repo",
        timeout=300,
    )
    assert r.returncode == 0, r.stderr[-500:]
    assert "n_distinct" in r.stdout

    r = subprocess.run(
        [sys.executable, "-m", "recon_ray", "graph", "kcore", str(p),
         "--pred", "calls", "-k", "1", "--limit", "5"],
        capture_output=True, text=True, env=env, cwd="/root/repo",
        timeout=300,
    )
    assert r.returncode == 0, r.stderr[-500:]
    assert "core_degree" in r.stdout

    r = subprocess.run(
        [sys.executable, "-m", "recon_ray", "graph", "cheapest", str(p),
         "--pred", "calls", "--weighted", "--limit", "5"],
        capture_output=True, text=True, env=env, cwd="/root/repo",
        timeout=300,
    )
    assert r.returncode == 0, r.stderr[-500:]
    assert "cost" in r.stdout

    r = subprocess.run(
        [sys.executable, "-m", "recon_ray", "graph", "linkpred", str(p),
         "--pred", "calls", "--limit", "5"],
        capture_output=True, text=True, env=env, cwd="/root/repo",
        timeout=300,
    )
    assert r.returncode == 0, r.stderr[-500:]
    assert "common_neighbors" in r.stdout


def test_cli_export_roundtrip(tmp_path, gold_extraction):
    """export to-ntriples → from-ntriples round-trips the gold triples."""
    import pandas as pd

    gold = pd.DataFrame(gold_extraction["canonical"])[
        ["subj", "pred", "obj"]
    ]
    p = tmp_path / "triples.parquet"
    gold.to_parquet(p)
    env = dict(os.environ, PYTHONPATH="/root/repo")
    nt = tmp_path / "nt"
    back = tmp_path / "back"
    for args in (["export", "to-ntriples", str(p), str(nt)],
                 ["export", "from-ntriples", str(nt), str(back)]):
        r = subprocess.run(
            [sys.executable, "-m", "recon_ray"] + args,
            capture_output=True, text=True, env=env, cwd="/root/repo",
            timeout=300,
        )
        assert r.returncode == 0, r.stderr[-500:]
        assert json.loads(r.stdout.strip().splitlines()[-1])["statements"] \
            == len(gold)
    got = pd.read_parquet(back).sort_values(["subj", "pred", "obj"])
    want = gold.sort_values(["subj", "pred", "obj"])
    assert got.values.tolist() == want.values.tolist()


def test_jsonl_gzip_roundtrip(tmp_path):
    """.jsonl.gz in and out: decompression happens in the read tasks
    (Arrow stream codec), the gzip sink pins mtime=0 so identical
    content → identical part bytes (content-addressing survives)."""
    import gzip

    from recon_ray.sources.jsonl import (read_jsonl_examples,
                                         write_jsonl_examples)

    records = [{"text": f"doc {i} body text", "spans": [],
                "meta": {"i": str(i)}} for i in range(12)]
    src = tmp_path / "in.jsonl.gz"
    with gzip.open(src, "wt") as f:
        f.write("\n".join(json.dumps(r) for r in records))
    docs = read_jsonl_examples(str(src))
    df = docs.to_pandas()
    assert len(df) == 12
    out = tmp_path / "gzout"
    write_jsonl_examples(docs, str(out), compress=True)
    names = sorted(p.name for p in out.iterdir())
    assert names and all(n.endswith(".jsonl.gz") for n in names)
    back = read_jsonl_examples(str(out)).to_pandas()
    assert sorted(back["doc_id"]) == sorted(df["doc_id"])


def test_cli_validate_and_layout(tmp_path):
    """validate gate (exit 1 on violations, 0 with --report-only) and the
    layout verbs (optimize → scan with pruning → versions → vacuum)."""
    import pandas as pd

    df = pd.DataFrame({"k": range(200), "v": [x * 2 for x in range(200)]})
    src = str(tmp_path / "t.parquet")
    df.to_parquet(src)
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": [
        {"kind": "not_null", "col": "v"},
        {"kind": "range", "col": "v", "lo": 0, "hi": 100},
        {"kind": "unique", "col": "k"},
    ]}))
    env = {**os.environ, "RAY_ADDRESS": "local"}

    r = subprocess.run(
        [sys.executable, "-m", "recon_ray", "validate", src, str(rules)],
        capture_output=True, text=True, env=env, cwd="/root/repo",
        timeout=300)
    assert r.returncode == 1, r.stdout + r.stderr[-300:]  # range violates
    assert '"total_violations"' in r.stdout

    r = subprocess.run(
        [sys.executable, "-m", "recon_ray", "validate", src, str(rules),
         "--report-only"],
        capture_output=True, text=True, env=env, cwd="/root/repo",
        timeout=300)
    assert r.returncode == 0, r.stderr[-300:]

    d = str(tmp_path / "zm")
    r = subprocess.run(
        [sys.executable, "-m", "recon_ray", "layout", "optimize", d, src,
         "--stats", "k", "--rows-per-file", "50", "--keep-history"],
        capture_output=True, text=True, env=env, cwd="/root/repo",
        timeout=300)
    assert r.returncode == 0, r.stderr[-300:]
    assert json.loads(r.stdout.splitlines()[-1])["n_rows"] == 200

    r = subprocess.run(
        [sys.executable, "-m", "recon_ray", "layout", "scan", d,
         "--where", "k:0:49"],
        capture_output=True, text=True, env=env, cwd="/root/repo",
        timeout=300)
    assert r.returncode == 0, r.stderr[-300:]
    info = json.loads(r.stdout.splitlines()[-1])
    assert info["rows"] == 50 and info["files_read"] < info["files_total"]

    for verb, extra, check in [
        ("versions", [], lambda o: o["versions"] == [1]),
        ("vacuum", ["--keep-last", "0"],
         lambda o: o["versions_dropped"] == 1),
    ]:
        r = subprocess.run(
            [sys.executable, "-m", "recon_ray", "layout", verb, d] + extra,
            capture_output=True, text=True, env=env, cwd="/root/repo",
            timeout=300)
        assert r.returncode == 0, r.stderr[-300:]
        assert check(json.loads(r.stdout.splitlines()[-1])), r.stdout


def test_cli_stream(tmp_path):
    import pandas as pd

    ev = pd.DataFrame({
        "ts": pd.to_datetime([0, 3_600_000_000, 30_000_000_000],
                             unit="us"),
        "event_type": ["a", "a", "b"],
        "value": [1.0, 2.0, 3.0],
        "user_id": pd.Series([1, 1, 2], dtype="int64"),
    })
    path = str(tmp_path / "ev.parquet")
    ev.to_parquet(path)
    env = dict(os.environ, PYTHONPATH="/root/repo")
    r = subprocess.run(
        [sys.executable, "-m", "recon_ray", "stream", path,
         "--window", "6h"],
        capture_output=True, text=True, env=env, cwd="/root/repo",
        timeout=300,
    )
    assert r.returncode == 0, r.stderr[-500:]
    assert "0 late-dropped" in r.stderr
    assert "window_start" in r.stdout
    r = subprocess.run(
        [sys.executable, "-m", "recon_ray", "stream", path,
         "--mode", "sessions", "--key", "user_id", "--gap", "90m"],
        capture_output=True, text=True, env=env, cwd="/root/repo",
        timeout=300,
    )
    assert r.returncode == 0, r.stderr[-500:]
    assert "session_start" in r.stdout
    # --key omitted: sessions must default to user_id (the round-4 help
    # text said so but the argparse default was event_type — regression)
    r = subprocess.run(
        [sys.executable, "-m", "recon_ray", "stream", path,
         "--mode", "sessions", "--gap", "90m"],
        capture_output=True, text=True, env=env, cwd="/root/repo",
        timeout=300,
    )
    assert r.returncode == 0, r.stderr[-500:]
    assert "user_id" in r.stdout


def test_cli_stream_distinct_topk(tmp_path):
    import pandas as pd

    ev = pd.DataFrame({
        "ts": pd.to_datetime([0, 1, 2, 3_600_000_000], unit="us"),
        "event_type": ["a", "a", "a", "b"],
        "value": [1.0, 2.0, 3.0, 4.0],
        "user_id": pd.Series([1, 1, 2, 3], dtype="int64"),
    })
    path = str(tmp_path / "ev.parquet")
    ev.to_parquet(path)
    env = dict(os.environ, PYTHONPATH="/root/repo")
    r = subprocess.run(
        [sys.executable, "-m", "recon_ray", "stream", path,
         "--mode", "distinct", "--window", "6h"],
        capture_output=True, text=True, env=env, cwd="/root/repo",
        timeout=300,
    )
    assert r.returncode == 0, r.stderr[-500:]
    assert "n_distinct" in r.stdout
    r = subprocess.run(
        [sys.executable, "-m", "recon_ray", "stream", path,
         "--mode", "topk", "-k", "2", "--window", "6h"],
        capture_output=True, text=True, env=env, cwd="/root/repo",
        timeout=300,
    )
    assert r.returncode == 0, r.stderr[-500:]
    assert "item" in r.stdout


def test_operators_md_count_matches_queries():
    """docs/OPERATORS.md header count must equal len(queries()) — the
    round-4 docs drift (257 vs 256) regression pin — and the whole file
    must be what tools/gen_operators_md.py renders from the registry, so
    no query description can change without the file following."""
    import importlib.util
    import os
    import re

    import __ray_entry__ as e

    n = len(e.queries())
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    md = open(os.path.join(root, "docs", "OPERATORS.md")).read()
    m = re.search(r"\*\*(\d+) queries, (\d+) SQL-oracled\.\*\*", md)
    assert m, "OPERATORS.md header count line missing"
    assert int(m.group(1)) == n, (m.group(1), n)
    assert int(m.group(2)) == len(e.oracle_sql())
    spec = importlib.util.spec_from_file_location(
        "gen_operators_md", os.path.join(root, "tools", "gen_operators_md.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert gen.render() == md, "stale docs/OPERATORS.md: run " \
        "python tools/gen_operators_md.py"
