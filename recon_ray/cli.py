"""Thin CLI (the analogue of the reference's ``recon stats`` CLI,
recon/cli/stats.py:13-76): ``python -m recon_ray <cmd>``.

Commands:
  run    <files_dir> <out_dir>   checkpointed KG pipeline (resumable)
  stats  <files_dir>             corpus stats report (ner stats, coverage,
                                 disparities — the `recon stats` analogue)
  score  <pred_parquet> <gold_parquet>   triple P/R/F
  search <files_dir> <query>     substring search over file contents
                                 (Dataset.search analogue)
  track  init|apply|log|rollback|gc   op-log verbs over a tracked workdir
                                 (apply_/rollback analogue)
  curate <documents> <out_dir>   curation flow (quality/repetition/lang
                                 gates → dedup → packed sequences);
                                 --store DIR makes it incremental over a
                                 persistent content-addressed ExampleStore
  convert <pair> <src> <dst>     JSONL Examples ↔ spaCy DocBin ↔
                                 Prodigy-format datasets ↔ parquet/CSV/
                                 Arrow-IPC tables
  validate <table> <rules.json>  expectations gate (exit 1 on violations)
  layout optimize|scan|versions|vacuum <dir> [src]
                                 zone-mapped data-skipping layout
                                 (Z-order clustering, time travel)
  bench                          delegate to bench.py

On a real cluster each command is submitted via ``ray job submit -- python
-m recon_ray ...``; locally it initializes a local Ray session itself
(guarded — the driver-owned entrypoints never call this).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import logging

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def cmd_run(args) -> int:
    _ensure_ray()
    from recon_ray.state.runner import run_kg_checkpointed

    res = run_kg_checkpointed(
        args.files_dir, args.out_dir, fragments_per_shard=args.fragments_per_shard
    )
    print(
        json.dumps(
            {
                "shards_run": res["shards_run"],
                "shards_skipped": res["shards_skipped"],
                "complete": res["complete"],
                "final_dir": res["final_dir"],
            }
        )
    )
    return 0


def cmd_stats(args) -> int:
    _ensure_ray()
    from recon_ray.functions import insights as ins
    from recon_ray.functions import stats as st
    from recon_ray.pipelines.kg import run_kg

    res = run_kg(args.files_dir)
    s = st.ner_stats(res["docs"])
    print("== ner stats ==")
    print(json.dumps(s, indent=1))
    print("== entity coverage (top 15) ==")
    print(st.entity_coverage(res["mentions"]).to_pandas().head(15).to_string())
    print("== label disparities ==")
    print(ins.top_label_disparities(res["mentions"], dedupe=True).to_string())
    print("== label balance entropy ==")
    print(round(st.label_balance_entropy(s), 4))
    return 0


def cmd_score(args) -> int:
    import pandas as pd

    from recon_ray.functions.scoring import score_triples_frames

    pred = pd.read_parquet(args.pred)
    gold = pd.read_parquet(args.gold)
    s = score_triples_frames(pred, gold)
    print(json.dumps(s, indent=1))
    return 0 if s["f1"] >= args.min_f1 else 1


def cmd_search(args) -> int:
    _ensure_ray()
    import ray.data as rd

    from recon_ray.functions.text import search

    hits = search(
        rd.read_parquet(args.files_dir),
        args.query,
        case_sensitive=not args.ignore_case,
        text_col=args.text_col,
    )
    # print match keys (repo/path/doc_id when present), streaming
    n = 0
    for b in hits.iter_batches(batch_format="pandas"):
        cols = [c for c in ("repo", "path", "doc_id") if c in b.columns]
        for _, row in b[cols].iterrows() if cols else ():
            print("\t".join(str(v) for v in row.values))
        n += len(b)
    print(f"# {n} matching rows", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    """Corpus release report: volume, language mix, quality quantiles,
    exact-dup rate, top terms — all streaming passes (pipelines/report.py)."""
    _ensure_ray()
    import ray.data as rd

    from recon_ray.pipelines.report import (
        corpus_report,
        format_report,
        format_report_html,
    )

    rep = corpus_report(
        rd.read_parquet(args.docs_path),
        text_col=args.text_col,
        id_col=args.id_col,
        lang_col=args.lang_col,
    )
    if getattr(args, "html", None):
        with open(args.html, "w") as f:
            f.write(format_report_html(rep))
        print(f"wrote {args.html}", file=sys.stderr)
    else:
        print(format_report(rep))
    return 0


def cmd_show(args) -> int:
    """Console-render detected mentions inline (the Example.pretty_print
    analogue, recon/types.py:161-188) for files matching a path substring."""
    _ensure_ray()
    import pyarrow.compute as pc
    import ray.data as rd

    from recon_ray.ops.render import render_doc_row
    from recon_ray.stages.detect import detect_batch

    ds = rd.read_parquet(args.files_dir)
    if args.path:
        needle = args.path
        ds = ds.map_batches(
            lambda t, n=needle: t.filter(pc.match_substring(t["path"], n)),
            batch_format="pyarrow", zero_copy_batch=True)
    ds = ds.limit(args.limit).map_batches(
        detect_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    n = 0
    for row in ds.iter_rows():
        print(f"=== {row['repo']}/{row['path']} [{row['lang']}]")
        print(render_doc_row(row, ansi=not args.no_color))
        n += 1
    print(f"# {n} files rendered", file=sys.stderr)
    return 0


def cmd_diff(args) -> int:
    """Content-addressed diff of two table versions (added/removed/changed
    counts + optional per-row statuses) — functions.relational.dataset_diff."""
    _ensure_ray()
    import ray.data as rd

    from recon_ray.functions.relational import dataset_diff

    out = dataset_diff(
        rd.read_parquet(args.old),
        rd.read_parquet(args.new),
        id_col=args.id_col,
        content_cols=args.content_cols.split(","),
    ).to_pandas()
    if out.empty:
        print("# identical: 0 added, 0 removed, 0 changed", file=sys.stderr)
        return 0
    counts = out["status"].value_counts()
    if args.rows:
        for _, row in out.sort_values(args.id_col).iterrows():
            print(f"{row[args.id_col]}\t{row['status']}")
    print(
        "# {} added, {} removed, {} changed".format(
            int(counts.get("added", 0)),
            int(counts.get("removed", 0)),
            int(counts.get("changed", 0)),
        ),
        file=sys.stderr,
    )
    return 0


def cmd_curate(args) -> int:
    """Curation flow over a documents parquet → packed-sequence parquet
    (doc_id, bucket, n_tokens, seq_id) + a JSON summary on stdout.

    With ``--store DIR`` the run is INCREMENTAL: the exact-dedup step is
    the persistent content-addressed ExampleStore at DIR, only
    never-seen-before content is packed, and re-running on the same
    input is a no-op (n_new=0)."""
    _ensure_ray()
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from recon_ray.pipelines.curate import curate, curate_incremental

    docs = rd.read_parquet(args.documents)

    def _count_rows(out_dir: str) -> int:
        return sum(
            pq.ParquetFile(os.path.join(out_dir, f)).metadata.num_rows
            for f in os.listdir(out_dir)
            if f.endswith(".parquet")
        )

    if args.store:
        if args.near_dedup:
            print(
                "--near-dedup is not supported with --store (the store IS "
                "the dedup boundary)",
                file=sys.stderr,
            )
            return 2
        res = curate_incremental(
            docs,
            args.store,
            min_words=args.min_words,
            max_dup_word=args.max_dup_word,
            max_tokens=args.max_tokens,
            n_buckets=args.n_buckets,
            texts=args.texts,
        )
        n_rows = 0
        if res["packed"] is not None:
            # count only THIS run's files: write_parquet appends new
            # uniquely-named parts when out_dir is reused across runs
            before = (
                set(os.listdir(args.out_dir))
                if os.path.isdir(args.out_dir)
                else set()
            )
            res["packed"].write_parquet(args.out_dir)
            n_rows = sum(
                pq.ParquetFile(os.path.join(args.out_dir, f)).metadata.num_rows
                for f in os.listdir(args.out_dir)
                if f.endswith(".parquet") and f not in before
            )
        key = "n_packs" if args.texts else "n_docs_packed"
        print(
            json.dumps(
                {
                    "n_new": res["n_new"],
                    key: n_rows,
                    "store_docs": len(res["store"]),
                    "out_dir": args.out_dir,
                }
            )
        )
        return 0

    res = curate(
        docs,
        min_words=args.min_words,
        max_dup_word=args.max_dup_word,
        near_dedup=args.near_dedup,
        max_tokens=args.max_tokens,
        n_buckets=args.n_buckets,
    )
    if args.texts:
        # tokenizer-ready shards: one row per pack, texts concatenated
        from recon_ray.functions.pack import pack_texts

        pack_texts(
            res["curated"], max_tokens=args.max_tokens,
            n_buckets=args.n_buckets,
        ).write_parquet(args.out_dir)
    else:
        res["packed"].write_parquet(args.out_dir)
    n_rows = _count_rows(args.out_dir)
    key = "n_packs" if args.texts else "n_docs_packed"
    print(json.dumps({key: n_rows, "out_dir": args.out_dir}))
    return 0


def cmd_track(args) -> int:
    """Op-log verbs over a TrackedDataset workdir (the CLI face of the
    reference's apply_/rollback contract, recon/dataset.py:176-289)."""
    _ensure_ray()
    import ray.data as rd

    from recon_ray.state.oplog import TrackedDataset

    if args.verb == "init":
        td = TrackedDataset(rd.read_parquet(args.input), args.workdir)
        print(json.dumps({"commit": td.commit_hash, "n_docs": len(td)}))
        return 0

    td = TrackedDataset.load(args.workdir)
    if args.verb == "log":
        for e in td.operations:
            print(f"{e.commit_hash}  {e.name}  n_docs={e.n_docs}  "
                  f"kwargs={json.dumps(e.kwargs, sort_keys=True)}")
        print(f"# head: {td.commit_hash} ({len(td.operations)} ops, "
              f"{len(td)} docs)", file=sys.stderr)
    elif args.verb == "apply":
        kwargs = json.loads(args.kwargs) if args.kwargs else {}
        td.apply_(args.op, **kwargs)
        print(json.dumps({"commit": td.commit_hash, "n_docs": len(td)}))
    elif args.verb == "rollback":
        td.rollback(args.n)
        print(json.dumps({"commit": td.commit_hash, "n_docs": len(td)}))
    elif args.verb == "gc":
        removed = td.gc()
        print(json.dumps({"removed": removed}))
    return 0


def cmd_store(args) -> int:
    """ExampleStore maintenance: ``compact`` merges each bucket's
    accumulated delta part files into one (crash-safe marker protocol —
    see state/example_store.py), ``len`` prints the store size."""
    _ensure_ray()
    from recon_ray.state.example_store import ExampleStore

    store = ExampleStore(args.root)
    if args.verb == "compact":
        print(json.dumps(store.compact()))
    elif args.verb == "len":
        print(json.dumps({"n_examples": len(store)}))
    return 0


def cmd_dedup_index(args) -> int:
    """Incremental near-dup index (functions/minhash_index.py):
    ``init`` creates the state dir, ``ingest`` dedups a documents
    parquet against everything accepted so far and appends its novel
    docs (idempotent by --batch-id), ``stats`` prints the manifest."""
    _ensure_ray()
    from recon_ray.functions.minhash_index import (
        minhash_index_ingest,
        minhash_index_init,
    )

    if args.verb == "init":
        man = minhash_index_init(args.state, threshold=args.threshold)
        print(json.dumps({"state": args.state,
                          "n_docs": man["n_docs"],
                          "threshold": man["threshold"]}))
    elif args.verb == "ingest":
        import ray.data as rd

        res = minhash_index_ingest(
            args.state, rd.read_parquet(args.documents), args.batch_id)
        print(json.dumps({k: res[k] for k in
                          ("n_new", "n_novel", "n_dup", "replayed")}))
    elif args.verb == "stats":
        import json as _json

        man = _json.load(open(f"{args.state}/_manifest.json"))
        print(json.dumps({"n_docs": man["n_docs"],
                          "n_batches": len(man["batch_ids"]),
                          "batches": man["batch_ids"]}))
    return 0


def cmd_emb_index(args) -> int:
    """Incremental exact-cosine embedding index
    (functions/embedding_index.py): init / ingest / stats — the vector
    counterpart of dedup-index."""
    _ensure_ray()
    from recon_ray.functions.embedding_index import (
        embedding_index_ingest,
        embedding_index_init,
    )

    if args.verb == "init":
        man = embedding_index_init(args.state, threshold=args.threshold)
        print(json.dumps({"state": args.state, "n_vecs": man["n_vecs"],
                          "threshold": man["threshold"]}))
    elif args.verb == "ingest":
        import ray.data as rd

        res = embedding_index_ingest(
            args.state, rd.read_parquet(args.embeddings), args.batch_id)
        out = {k: res[k] for k in
               ("n_new", "n_novel", "n_dup", "replayed")}
        if "prune_stats" in res:
            out["prune_stats"] = res["prune_stats"]
        print(json.dumps(out))
    elif args.verb == "stats":
        man = json.load(open(f"{args.state}/_manifest.json"))
        print(json.dumps({"n_vecs": man["n_vecs"],
                          "n_parts": len(man["parts"]),
                          "n_batches": len(man["batch_ids"])}))
    return 0


def cmd_convert(args) -> int:
    """Annotation-format conversions (the loaders surface: JSONL Examples
    ↔ spaCy DocBin ↔ Prodigy-format datasets)."""
    _ensure_ray()
    from recon_ray.sources.jsonl import read_jsonl_examples, write_jsonl_examples

    if args.pair == "jsonl-to-spacy":
        from recon_ray.sources.spacy_bin import write_docbin

        n = write_docbin(read_jsonl_examples(args.src), args.dst)
        print(json.dumps({"docs": n, "out": args.dst}))
    elif args.pair == "spacy-to-jsonl":
        from recon_ray.sources.spacy_bin import read_docbin

        ds = read_docbin(args.src)
        write_jsonl_examples(ds, args.dst)
        print(json.dumps({"docs": ds.count(), "out": args.dst}))
    elif args.pair == "jsonl-to-prodigy":
        from recon_ray.sources.prodigy_io import to_prodigy_jsonl

        n = to_prodigy_jsonl(
            read_jsonl_examples(args.src), args.dst, args.dataset,
            overwrite_dataset=args.overwrite,
        )
        print(json.dumps({"docs": n, "dataset": args.dataset}))
    elif args.pair == "prodigy-to-jsonl":
        from recon_ray.sources.prodigy_io import from_prodigy_jsonl

        ds = from_prodigy_jsonl(args.src, args.dataset)
        write_jsonl_examples(ds, args.dst)
        print(json.dumps({"docs": ds.count(), "out": args.dst}))
    elif args.pair == "parquet-to-csv":
        import ray.data as rd

        from recon_ray.sources.interop import write_csv_shards

        n = write_csv_shards(rd.read_parquet(args.src), args.dst)
        print(json.dumps({"rows": n, "out": args.dst}))
    elif args.pair == "csv-to-parquet":
        from recon_ray.sources.interop import read_csv_shards

        ds = read_csv_shards(args.src)
        ds.write_parquet(args.dst)
        print(json.dumps({"rows": ds.count(), "out": args.dst}))
    elif args.pair == "parquet-to-ipc":
        import ray.data as rd

        from recon_ray.sources.interop import write_ipc_shards

        n = write_ipc_shards(rd.read_parquet(args.src), args.dst)
        print(json.dumps({"rows": n, "out": args.dst}))
    elif args.pair == "ipc-to-parquet":
        from recon_ray.sources.interop import read_ipc_shards

        ds = read_ipc_shards(args.src)
        ds.write_parquet(args.dst)
        print(json.dumps({"rows": ds.count(), "out": args.dst}))
    elif args.pair == "parquet-to-orc":
        import ray.data as rd

        from recon_ray.sources.interop import write_orc_shards

        n = write_orc_shards(rd.read_parquet(args.src), args.dst)
        print(json.dumps({"rows": n, "out": args.dst}))
    elif args.pair == "orc-to-parquet":
        from recon_ray.sources.interop import read_orc_shards

        ds = read_orc_shards(args.src)
        ds.write_parquet(args.dst)
        print(json.dumps({"rows": ds.count(), "out": args.dst}))
    return 0


def cmd_sql(args) -> int:
    """Run the mini-SQL subset (recon_ray/sql.py) on Ray Data operators:
    --table name=path (repeatable) registers parquet tables; --file
    reads the query or ;-script from a file."""
    _ensure_ray()
    import ray.data as rd

    if args.file:
        if args.query:
            raise SystemExit("pass a query OR --file, not both")
        with open(args.file) as fh:
            args.query = fh.read()
    if not args.query:
        raise SystemExit("need a query string or --file")
    tables = {}
    for spec_ in args.table or []:
        name, _, path = spec_.partition("=")
        if not path:
            raise SystemExit(f"--table needs name=path, got {spec_!r}")
        tables[name] = rd.read_parquet(path)
    if args.explain:
        from recon_ray.sql import explain_sql

        # with tables registered the plan also shows the optimizer
        # decisions (pushdown + broadcast/shuffle from metadata counts)
        print(explain_sql(args.query, tables or None))
        return 0
    from recon_ray.sql import run_sql, run_sql_script

    t0 = time.time()
    if ";" in args.query or re.match(
            r"^\s*(create|copy|insert|delete|update)\b",
            args.query, re.I):
        # script mode: CTAS registers (lazily when streamable), COPY
        # writes parquet, the last statement's frame prints
        out = run_sql_script(args.query, tables)
    else:
        out = run_sql(args.query, tables)
    wall = time.time() - t0
    print(out.to_string(index=False))
    if args.analyze:
        # EXPLAIN ANALYZE: the compiled plan plus the measured wall
        # time of the run that just produced the rows above
        from recon_ray.sql import SqlError, explain_sql

        try:
            plan = explain_sql(args.query, tables or None)
        except SqlError as e:  # scripts explain per-statement only
            plan = f"(plan unavailable: {e})"
        print(f"\n-- EXPLAIN ANALYZE: {len(out)} row(s) in "
              f"{wall:.3f}s --")
        print(plan)
    return 0


def cmd_aggstate(args) -> int:
    """Incremental aggregate maintenance (state/aggstore.py):
    ``aggstate apply`` folds a parquet delta into the versioned state;
    ``aggstate show`` prints the maintained rollup."""
    _ensure_ray()
    import ray.data as rd

    from recon_ray.state.aggstore import AggStore

    store = AggStore(args.store, args.keys.split(","),
                     args.cols.split(","))
    if args.action == "apply":
        res = store.apply_delta(rd.read_parquet(args.delta),
                                args.delta_id or args.delta)
        print(json.dumps(res))
    else:
        out = store.resolved().to_pandas()
        print(out.to_string(index=False))
    return 0


def cmd_validate(args) -> int:
    """Run a JSON expectations file against a parquet table
    (functions/validate.py). Exit code 1 when any rule has violations
    — the CI data-quality gate shape."""
    _ensure_ray()
    import ray.data as rd

    from recon_ray.functions.validate import check_expectations

    with open(args.rules) as f:
        spec = json.load(f)
    refs = {
        name: rd.read_parquet(path)
        for name, path in (spec.get("refs") or {}).items()
    }
    out = check_expectations(
        rd.read_parquet(args.table), spec["rules"], refs=refs)
    print(out.to_string(index=False))
    bad = int(out["violations"].sum())
    print(json.dumps({"rules": len(out), "total_violations": bad}))
    return 1 if bad and not args.report_only else 0


def cmd_layout(args) -> int:
    """Zone-mapped layout verbs (sources/zonemap.py): optimize (write,
    optionally Z-order-clustered, optionally versioned), scan
    (predicate-pruned read), versions, vacuum."""
    _ensure_ray()
    import ray.data as rd

    from recon_ray.sources import zonemap as zm

    if args.verb == "optimize":
        stat_cols = args.stats.split(",")
        zorder = tuple(args.zorder.split(",")) if args.zorder else None
        m = zm.write_zonemapped(
            rd.read_parquet(args.src), args.dir, stat_cols=stat_cols,
            zorder_cols=zorder, rows_per_file=args.rows_per_file,
            keep_history=args.keep_history,
        )
        print(json.dumps({"files": len(m["files"]), "n_rows": m["n_rows"],
                          "version": m.get("version")}))
    elif args.verb == "scan":
        intervals = {}
        for w in args.where or []:
            col, lo, hi = w.split(":")
            conv = float if ("." in lo or "." in hi) else int
            intervals[col] = (conv(lo), conv(hi))
        kept, total = zm.prune_files(args.dir, intervals)
        n = zm.read_zonemapped(args.dir, intervals,
                               version=args.version).count()
        print(json.dumps({"files_total": total, "files_read": len(kept),
                          "rows": n}))
    elif args.verb == "versions":
        print(json.dumps({"versions": zm.list_versions(args.dir)}))
    elif args.verb == "vacuum":
        print(json.dumps(zm.vacuum(args.dir, keep_last=args.keep_last)))
    return 0


def cmd_graph(args) -> int:
    """Graph analytics over a (subj, pred, obj) triples Parquet table."""
    _ensure_ray()
    import pyarrow.compute as pc
    import ray.data as rd

    from recon_ray.functions import graph as g
    from recon_ray.functions.relational import arrow_filter

    ds = rd.read_parquet(args.path)
    if args.pred:
        ds = arrow_filter(
            ds, lambda t, p=args.pred: pc.equal(t.column("pred"), p)
        )
    if args.analysis == "degrees":
        out = g.degree_table(ds).head(args.limit)
    elif args.analysis == "pagerank":
        out = (
            g.pagerank(ds, n_iter=args.iters,
                       weight_col="n_mentions" if args.weighted else None)
            .sort_values("rank_q", ascending=False)
            .head(args.limit)
        )
    elif args.analysis == "components":
        out = g.graph_components(ds).head(args.limit)
    elif args.analysis == "triangles":
        out = g.triangle_stats(ds)
    elif args.analysis == "hits":
        out = (
            g.hits(ds, n_iter=args.iters)
            .sort_values("auth_q", ascending=False)
            .head(args.limit)
        )
    elif args.analysis == "bfs":
        out = g.bfs_levels(ds, root=args.root).head(args.limit)
    elif args.analysis == "communities":
        out = g.label_propagation(ds, n_rounds=args.iters).head(args.limit)
    elif args.analysis == "linkpred":
        out = g.link_prediction(ds, k=args.limit)
    elif args.analysis == "kcore":
        out = g.kcore(ds, k=max(args.k, 1)).head(args.limit)
    elif args.analysis == "cheapest":
        out = g.cheapest_paths(
            ds, root=args.root, n_rounds=args.iters,
            weight_col="n_mentions" if args.weighted else None,
        ).head(args.limit)
    else:  # pragma: no cover
        raise SystemExit(f"unknown analysis {args.analysis}")
    print(out.to_string(index=False))
    return 0


def cmd_profile(args) -> int:
    """Column-level data-quality profile of any Parquet table."""
    _ensure_ray()
    import ray.data as rd

    from recon_ray.functions.stats import profile_columns

    ds = rd.read_parquet(args.path)
    cols = args.columns or ds.schema().names
    out = profile_columns(ds.select_columns(cols), cols)
    print(out.to_string(index=False))
    return 0


def cmd_export(args) -> int:
    """Triple-table interchange: Parquet triples ↔ N-Triples lines."""
    _ensure_ray()
    import ray.data as rd

    from recon_ray.sources.ntriples import read_ntriples, write_ntriples

    if args.direction == "to-ntriples":
        n = write_ntriples(rd.read_parquet(args.src), args.dst,
                           base=args.base)
        print(json.dumps({"statements": n, "out": args.dst}))
    else:  # from-ntriples
        ds = read_ntriples(args.src, base=args.base)
        ds.write_parquet(args.dst)
        print(json.dumps({"statements": ds.count(), "out": args.dst}))
    return 0


def cmd_stream(args) -> int:
    """Event-time streaming windows over a parquet event table
    (stages/streaming.py): tumbling/hopping aggregates or gap
    sessions, replayed with a watermark and allowed lateness."""
    _ensure_ray()
    import ray.data as rd

    ds = rd.read_parquet(args.events)
    # per-mode key default: sessions sessionize per user, the window
    # aggregates group per event_type (argparse default is None so the
    # help text and the behavior agree)
    if args.key is None:
        args.key = "user_id" if args.mode == "sessions" else "event_type"
    if args.mode == "sessions":
        from recon_ray.stages.streaming import stream_session_windows

        out = stream_session_windows(
            ds, ts_col=args.ts_col, key_col=args.key,
            gap=args.gap, lateness=args.lateness,
            n_partitions=args.partitions,
            ordered=not args.unordered)
    elif args.mode == "distinct":
        from recon_ray.stages.streaming import stream_distinct_agg

        out = stream_distinct_agg(
            ds, ts_col=args.ts_col, key_cols=[args.key],
            distinct_col=args.distinct_col, window=args.window,
            lateness=args.lateness, mode=args.sketch,
            n_partitions=args.partitions,
            ordered=not args.unordered)
    elif args.mode == "topk":
        from recon_ray.stages.streaming import stream_topk_agg

        out = stream_topk_agg(
            ds, ts_col=args.ts_col, item_col=args.distinct_col,
            window=args.window, k=args.k, lateness=args.lateness,
            mode="exact" if args.sketch == "exact" else "mg",
            n_partitions=args.partitions,
            ordered=not args.unordered)
    else:
        from recon_ray.stages.streaming import stream_tumbling_agg

        out = stream_tumbling_agg(
            ds, ts_col=args.ts_col, key_cols=[args.key],
            value_col=args.value_col, window=args.window,
            slide=args.slide, lateness=args.lateness,
            n_partitions=args.partitions,
            ordered=not args.unordered)
    df = out["result"].to_pandas()
    df = df.sort_values(list(df.columns[:2])).reset_index(drop=True)
    print(df.head(args.limit).to_string(index=False))
    dropped = out["n_late_dropped"]
    open_key = ("max_open_sessions" if args.mode == "sessions"
                else "max_open_windows")
    print(f"# {len(df)} results; {dropped} late-dropped; "
          f"{open_key}={out[open_key]}", file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    import subprocess

    import os

    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "..", "bench.py")]
    if args.scaling:
        cmd.append("--scaling")
    return subprocess.call(cmd)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="recon_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    pr = sub.add_parser("run", help="checkpointed KG pipeline")
    pr.add_argument("files_dir")
    pr.add_argument("out_dir")
    pr.add_argument("--fragments-per-shard", type=int, default=8)
    pr.set_defaults(fn=cmd_run)

    ps = sub.add_parser("stats", help="corpus stats report")
    ps.add_argument("files_dir")
    ps.set_defaults(fn=cmd_stats)

    pc = sub.add_parser("score", help="triple P/R/F")
    pc.add_argument("pred")
    pc.add_argument("gold")
    pc.add_argument("--min-f1", type=float, default=0.95)
    pc.set_defaults(fn=cmd_score)

    pse = sub.add_parser("search", help="substring search over contents")
    pse.add_argument("files_dir")
    pse.add_argument("query")
    pse.add_argument("-i", "--ignore-case", action="store_true")
    pse.add_argument("--text-col", default="content")
    pse.set_defaults(fn=cmd_search)

    pcu = sub.add_parser("curate", help="curation flow → packed sequences")
    pcu.add_argument("documents")
    pcu.add_argument("out_dir")
    pcu.add_argument("--min-words", type=int, default=25, dest="min_words")
    pcu.add_argument("--max-dup-word", type=float, default=0.6,
                     dest="max_dup_word")
    pcu.add_argument("--near-dedup", action="store_true", dest="near_dedup")
    pcu.add_argument("--max-tokens", type=int, default=512, dest="max_tokens")
    pcu.add_argument("--n-buckets", type=int, default=16, dest="n_buckets")
    pcu.add_argument("--texts", action="store_true",
                     help="write concatenated pack texts, not assignments")
    pcu.add_argument("--store", default=None, metavar="DIR",
                     help="incremental mode: persistent ExampleStore root; "
                          "only never-seen content is packed")
    pcu.set_defaults(fn=cmd_curate)

    pt = sub.add_parser("track", help="op-log verbs over a tracked workdir")
    tsub = pt.add_subparsers(dest="verb", required=True)
    ti = tsub.add_parser("init", help="start tracking a docs parquet")
    ti.add_argument("workdir")
    ti.add_argument("input")
    ta = tsub.add_parser("apply", help="apply a registered op")
    ta.add_argument("workdir")
    ta.add_argument("op")
    ta.add_argument("--kwargs", default=None, help="JSON kwargs for the op")
    tl = tsub.add_parser("log", help="print the op log")
    tl.add_argument("workdir")
    tr = tsub.add_parser("rollback", help="undo the last n ops")
    tr.add_argument("workdir")
    tr.add_argument("-n", type=int, default=1)
    tg = tsub.add_parser("gc", help="drop unreferenced snapshots")
    tg.add_argument("workdir")
    for sp in (ti, ta, tl, tr, tg):
        sp.set_defaults(fn=cmd_track)

    pst = sub.add_parser("store", help="ExampleStore maintenance")
    stsub = pst.add_subparsers(dest="verb", required=True)
    for verb, h in (("compact", "merge delta part files per bucket"),
                    ("len", "count stored examples")):
        sv = stsub.add_parser(verb, help=h)
        sv.add_argument("root", help="store root directory")
        sv.set_defaults(fn=cmd_store)

    pdi = sub.add_parser("dedup-index",
                         help="incremental near-dup index (dedup at ingest)")
    disub = pdi.add_subparsers(dest="verb", required=True)
    dv = disub.add_parser("init", help="create an empty index")
    dv.add_argument("state")
    dv.add_argument("--threshold", type=float, default=0.8)
    dv.set_defaults(fn=cmd_dedup_index)
    dv = disub.add_parser("ingest",
                          help="dedup a shard against the index, "
                               "append its novel docs")
    dv.add_argument("state")
    dv.add_argument("documents")
    dv.add_argument("--batch-id", required=True, dest="batch_id")
    dv.set_defaults(fn=cmd_dedup_index)
    dv = disub.add_parser("stats", help="print the index manifest")
    dv.add_argument("state")
    dv.set_defaults(fn=cmd_dedup_index)

    pei = sub.add_parser("emb-index",
                         help="incremental exact-cosine embedding index")
    eisub = pei.add_subparsers(dest="verb", required=True)
    ev = eisub.add_parser("init", help="create an empty index")
    ev.add_argument("state")
    ev.add_argument("--threshold", type=float, default=0.98)
    ev.set_defaults(fn=cmd_emb_index)
    ev = eisub.add_parser("ingest",
                          help="dedup a vector shard against the index")
    ev.add_argument("state")
    ev.add_argument("embeddings")
    ev.add_argument("--batch-id", required=True, dest="batch_id")
    ev.set_defaults(fn=cmd_emb_index)
    ev = eisub.add_parser("stats", help="print the index manifest")
    ev.add_argument("state")
    ev.set_defaults(fn=cmd_emb_index)

    pcv = sub.add_parser("convert",
                         help="annotation/table format conversions")
    pcv.add_argument("pair", choices=[
        "jsonl-to-spacy", "spacy-to-jsonl",
        "jsonl-to-prodigy", "prodigy-to-jsonl",
        "parquet-to-csv", "csv-to-parquet",
        "parquet-to-ipc", "ipc-to-parquet",
        "parquet-to-orc", "orc-to-parquet"])
    pcv.add_argument("src")
    pcv.add_argument("dst")
    pcv.add_argument("--dataset", default="train",
                     help="prodigy dataset name")
    pcv.add_argument("--overwrite", action="store_true")
    pcv.set_defaults(fn=cmd_convert)

    psq = sub.add_parser("sql", help="mini-SQL over parquet tables")
    psq.add_argument("query", nargs="?", default=None)
    psq.add_argument("--file", help="read the query/script from a file "
                                    "(alternative to the positional)")
    psq.add_argument("--table", action="append",
                     help="name=path (repeatable)")
    psq.add_argument("--explain", action="store_true",
                     help="print the compiled physical plan, run nothing")
    psq.add_argument("--analyze", action="store_true",
                     help="run the query, then print the plan plus the "
                          "measured wall time (EXPLAIN ANALYZE)")
    psq.set_defaults(fn=cmd_sql)

    pvl = sub.add_parser("validate",
                         help="expectations gate over a parquet table")
    pvl.add_argument("table", help="parquet file or directory")
    pvl.add_argument("rules", help='JSON: {"rules": [...], "refs": {...}}')
    pvl.add_argument("--report-only", action="store_true",
                     help="exit 0 even with violations")
    pvl.set_defaults(fn=cmd_validate)

    pag = sub.add_parser("aggstate",
                         help="incremental aggregate state (apply/show)")
    pag.add_argument("action", choices=["apply", "show"])
    pag.add_argument("store", help="state directory")
    pag.add_argument("--keys", required=True, help="comma-sep key cols")
    pag.add_argument("--cols", required=True,
                     help="comma-sep value cols (sum/count/min/max/mean)")
    pag.add_argument("--delta", help="parquet delta (for apply)")
    pag.add_argument("--delta-id", help="idempotence id (default: path)")
    pag.set_defaults(fn=cmd_aggstate)

    ply = sub.add_parser("layout", help="zone-mapped layout management")
    ply.add_argument("verb", choices=["optimize", "scan", "versions",
                                      "vacuum"])
    ply.add_argument("dir", help="zone-mapped directory")
    ply.add_argument("src", nargs="?", help="optimize: source parquet")
    ply.add_argument("--stats", default="",
                     help="optimize: comma list of stat columns")
    ply.add_argument("--zorder", default=None,
                     help="optimize: two int columns a,b to Morton-cluster")
    ply.add_argument("--rows-per-file", type=int, default=65536)
    ply.add_argument("--keep-history", action="store_true")
    ply.add_argument("--where", action="append",
                     help="scan: col:lo:hi (repeatable)")
    ply.add_argument("--version", type=int, default=None,
                     help="scan: snapshot version")
    ply.add_argument("--keep-last", type=int, default=1,
                     help="vacuum: snapshots to retain")
    ply.set_defaults(fn=cmd_layout)

    pgr = sub.add_parser("graph", help="analytics over a triples parquet")
    pgr.add_argument("analysis", choices=[
        "degrees", "pagerank", "hits", "components", "communities",
        "triangles", "bfs", "linkpred", "kcore", "cheapest"])
    pgr.add_argument("path", help="triples parquet file or directory")
    pgr.add_argument("--pred", default=None,
                     help="filter to one predicate (e.g. calls)")
    pgr.add_argument("--weighted", action="store_true",
                     help="pagerank/cheapest: weight by n_mentions")
    pgr.add_argument("--iters", type=int, default=5)
    pgr.add_argument("--root", default=None,
                     help="bfs/cheapest root entity")
    pgr.add_argument("-k", type=int, default=2, help="kcore: minimum degree")
    pgr.add_argument("--limit", type=int, default=20)
    pgr.set_defaults(fn=cmd_graph)

    ppf = sub.add_parser("profile", help="column data-quality profile")
    ppf.add_argument("path", help="parquet file or directory")
    ppf.add_argument("columns", nargs="*", help="columns (default: all)")
    ppf.set_defaults(fn=cmd_profile)

    pex = sub.add_parser("export", help="triples Parquet ↔ N-Triples")
    pex.add_argument("direction", choices=["to-ntriples", "from-ntriples"])
    pex.add_argument("src")
    pex.add_argument("dst")
    pex.add_argument("--base", default="urn:recon:",
                     help="IRI base prefix for entity terms")
    pex.set_defaults(fn=cmd_export)

    prp = sub.add_parser("report", help="corpus release report")
    prp.add_argument("docs_path")
    prp.add_argument("--text-col", default="text")
    prp.add_argument("--id-col", default="doc_id")
    prp.add_argument("--lang-col", default="lang")
    prp.add_argument("--html", default=None, metavar="OUT.html",
                     help="write a standalone HTML report instead of "
                          "printing (the dashboard analogue)")
    prp.set_defaults(fn=cmd_report)

    psh = sub.add_parser("show", help="render detected mentions inline")
    psh.add_argument("files_dir")
    psh.add_argument("--path", default=None, help="path substring filter")
    psh.add_argument("--limit", type=int, default=5)
    psh.add_argument("--no-color", action="store_true")
    psh.set_defaults(fn=cmd_show)

    pdf = sub.add_parser("diff", help="content diff of two table versions")
    pdf.add_argument("old")
    pdf.add_argument("new")
    pdf.add_argument("--id-col", default="doc_id")
    pdf.add_argument("--content-cols", default="text",
                     help="comma-separated columns defining row content")
    pdf.add_argument("--rows", action="store_true",
                     help="print per-row statuses, not just counts")
    pdf.set_defaults(fn=cmd_diff)

    pb = sub.add_parser("bench", help="benchmark")
    pb.add_argument("--scaling", action="store_true")
    pb.set_defaults(fn=cmd_bench)

    pstr = sub.add_parser(
        "stream", help="event-time streaming windows (watermarked)")
    pstr.add_argument("events", help="events parquet path")
    pstr.add_argument("--mode",
                      choices=["tumbling", "sessions", "distinct",
                               "topk"],
                      default="tumbling")
    pstr.add_argument("--distinct-col", default="user_id",
                      help="distinct/top-k item column")
    pstr.add_argument("--sketch", choices=["exact", "hll", "mg"],
                      default="exact",
                      help="distinct: exact|hll; topk: exact|mg")
    pstr.add_argument("-k", type=int, default=5, help="topk k")
    pstr.add_argument("--ts-col", default="ts")
    pstr.add_argument("--key", default=None,
                      help="key column (default: user_id for "
                           "sessions, event_type otherwise)")
    pstr.add_argument("--value-col", default="value")
    pstr.add_argument("--window", default="6h")
    pstr.add_argument("--slide", default=None,
                      help="hop interval (hopping windows)")
    pstr.add_argument("--gap", default="30m", help="session gap")
    pstr.add_argument("--lateness", default="0s")
    pstr.add_argument("--partitions", type=int, default=8)
    pstr.add_argument("--unordered", action="store_true",
                      help="feed blocks as-is (late events may drop)")
    pstr.add_argument("--limit", type=int, default=20)
    pstr.set_defaults(fn=cmd_stream)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
