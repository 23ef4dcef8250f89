"""Entity-linker stage — the stateful actor-pool analogue of the
reference's ``EntityLinker`` (recon/linker.py:15-36): each actor holds the
shared symbol dictionary (broadcast ONCE via ``ray.put`` and fetched
zero-copy in ``__init__``) and scores CALL mentions against it, emitting
``(subj, pred, obj)`` triples.

Resolution rules live in the SPEC (recon_ray/spec.py SymbolDict.resolve):
same-module definition wins, else lexicographically-smallest in-repo
definition, else unresolved.

The per-batch body is vectorized: the enclosing function of a CALL (the
nearest preceding DEF span) is a per-doc forward-fill, and dictionary
resolution runs once per DISTINCT (repo, module, name) instead of once per
mention — a batch with 300k call mentions does a few thousand lookups.

Scale note: the broadcast dictionary is the right shape while the global
DEF set fits comfortably in a worker heap (≲ tens of millions of symbols;
docs/SCALE.md gives the measured size at the benchmark's corpus).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from recon_ray import spec

TRIPLE_FIELDS = [
    ("subj", pa.string()),
    ("pred", pa.string()),
    ("obj", pa.string()),
    ("subj_type", pa.string()),
    ("obj_type", pa.string()),
    ("repo", pa.string()),
    ("path", pa.string()),
    ("commit", pa.string()),
    ("content_sha256", pa.string()),
    ("extractor", pa.string()),
]
TRIPLE_SCHEMA = pa.schema(TRIPLE_FIELDS)


def resolve_call(symbols: dict, repo: str, module: str, name: str):
    """dict-shaped SymbolDict.resolve (symbols: repo → name → sorted [qualified])."""
    lst = symbols.get(repo, {}).get(name)
    if not lst:
        return None
    same = f"{repo}:{module}.{name}"
    if same in lst:
        return same
    return lst[0]


class TripleLinker:
    """map_batches(TripleLinker, fn_constructor_kwargs={"symbols_ref": ref},
    batch_format="pyarrow", concurrency=N).

    Consumes docs with corrected ``mentions``; emits the exploded triples
    table (``content`` must already be dropped — only sha256 provenance
    travels on)."""

    def __init__(self, symbols_ref):
        # one ray.get per actor: zero-copy read of the broadcast dictionary
        # (a plain dict is also accepted)
        if symbols_ref is None:
            self.symbols = {}
        elif isinstance(symbols_ref, dict):
            self.symbols = symbols_ref
        else:
            self.symbols = ray.get(symbols_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        arr = batch.column("mentions")
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        lengths = arr.value_lengths().fill_null(0).to_numpy(
            zero_copy_only=False
        )
        child = arr.flatten()
        n = len(child)
        if n == 0:
            return pa.table(
                {name: pa.array([], typ) for name, typ in TRIPLE_FIELDS}
            )
        didx = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)

        # the sequential oracle iterates per doc in (start, end, label)
        # order — one numpy lexsort instead of a 4-key pandas sort. The
        # label tie-break must be LEXICOGRAPHIC, so dictionary-encode and
        # remap the (tiny) dictionary's codes to its sorted ranks.
        starts = child.field("start").to_numpy(zero_copy_only=False)
        ends = child.field("end").to_numpy(zero_copy_only=False)
        enc = pc.dictionary_encode(child.field("label"))
        lab_dict = np.asarray(enc.dictionary.to_pylist(), dtype=object)
        rank_of = np.empty(len(lab_dict), dtype=np.int64)
        rank_of[np.argsort(lab_dict)] = np.arange(len(lab_dict))
        codes = enc.indices.to_numpy(zero_copy_only=False)
        order = np.lexsort((rank_of[codes], ends, starts, didx))
        didx_s = didx[order]
        codes_s = codes[order]

        def _code(lbl: str) -> int:
            hits = np.where(lab_dict == lbl)[0]
            return int(hits[0]) if len(hits) else -1

        is_def = codes_s == _code("DEF")
        is_imp = codes_s == _code("IMPORT")
        is_call = codes_s == _code("CALL")

        # per-DOC derived values (batch.num_rows strings, not n mentions);
        # per-mention values are cheap didx gathers of these
        repo_doc = np.asarray(batch.column("repo").to_pylist(), dtype=object)
        path_doc = np.asarray(batch.column("path").to_pylist(), dtype=object)
        commit_doc = np.asarray(
            batch.column("commit").to_pylist(), dtype=object
        )
        sha_doc = np.asarray(
            batch.column("content_sha256").to_pylist(), dtype=object
        )
        lang_doc = np.asarray(batch.column("lang").to_pylist(), dtype=object)
        module_doc = np.asarray(
            [spec.module_of(p) for p in path_doc], dtype=object
        )
        file_id_doc = np.asarray(
            [f"{r}/{p}" for r, p in zip(repo_doc, path_doc)], dtype=object
        )
        sentinel_doc = np.asarray(
            [f"{r}:{m}.{spec.MODULE_SENTINEL}"
             for r, m in zip(repo_doc, module_doc)],
            dtype=object,
        )

        text_arr = child.field("text")

        def _texts(rows: np.ndarray) -> np.ndarray:
            # fetch ONLY the needed subset's texts out of Arrow (IDENT
            # mentions — the bulk — never convert to Python)
            return np.asarray(
                text_arr.take(pa.array(order[rows])).to_pylist(), dtype=object
            )

        # enclosing def: qualified names exist only AT def rows (a small
        # subset); forward-fill per doc = running max of def positions,
        # reset at doc boundaries via each doc's first-row offset
        def_rows = np.where(is_def)[0]
        def_texts = _texts(def_rows)
        def_didx = didx_s[def_rows]
        qual_def = np.asarray(
            [f"{r}:{m}.{t.split()[-1]}"
             for r, m, t in zip(
                 repo_doc[def_didx], module_doc[def_didx], def_texts)],
            dtype=object,
        )
        qual_at = np.empty(n, dtype=object)
        qual_at[def_rows] = qual_def
        last_def = np.maximum.accumulate(
            np.where(is_def, np.arange(n, dtype=np.int64), -1)
        )
        offsets = np.concatenate(
            [[0], np.cumsum(lengths)]
        )  # sorted rows of doc d occupy [offsets[d], offsets[d+1])
        valid = last_def >= offsets[didx_s]
        enclosing = np.where(
            valid, qual_at[np.clip(last_def, 0, None)], sentinel_doc[didx_s]
        )

        cols: dict[str, list] = {name: [] for name, _ in TRIPLE_FIELDS}

        def emit(rows: np.ndarray, subj, pred, obj, st, ot):
            k = len(rows)
            d = didx_s[rows]
            cols["subj"].append(subj)
            cols["pred"].append(
                np.full(k, pred, dtype=object) if isinstance(pred, str)
                else pred
            )
            cols["obj"].append(obj)
            cols["subj_type"].append(
                np.full(k, st, dtype=object) if isinstance(st, str) else st
            )
            cols["obj_type"].append(
                np.full(k, ot, dtype=object) if isinstance(ot, str) else ot
            )
            cols["repo"].append(repo_doc[d])
            cols["path"].append(path_doc[d])
            cols["commit"].append(commit_doc[d])
            cols["content_sha256"].append(sha_doc[d])
            cols["extractor"].append(
                np.full(k, spec.EXTRACTOR_TAG, dtype=object)
            )

        imp_rows = np.where(is_imp)[0]
        if len(imp_rows):
            imp_texts = _texts(imp_rows)
            imp_d = didx_s[imp_rows]
            root = np.asarray(
                [spec.import_root(t, l)
                 for t, l in zip(imp_texts, lang_doc[imp_d])],
                dtype=object,
            )
            emit(imp_rows, repo_doc[imp_d], "imports", root, "repo",
                 "package")
            emit(imp_rows, file_id_doc[imp_d], "imports_module", imp_texts,
                 "file", "module")

        if len(def_rows):
            emit(def_rows, file_id_doc[def_didx], "defines", qual_def,
                 "file", "function")

        call_rows = np.where(is_call)[0]
        if len(call_rows):
            call_texts = _texts(call_rows)
            call_d = didx_s[call_rows]
            keys = pd.DataFrame(
                {
                    "repo": repo_doc[call_d],
                    "module": module_doc[call_d],
                    "name": call_texts,
                }
            )
            uniq = keys.drop_duplicates().copy()
            uniq["resolved"] = [
                resolve_call(self.symbols, r, m, nm)
                for r, m, nm in zip(
                    uniq["repo"], uniq["module"], uniq["name"])
            ]
            merged = keys.merge(
                uniq, on=["repo", "module", "name"], how="left"
            )
            resolved = merged["resolved"].to_numpy()
            ok = pd.notna(resolved)
            pred = np.where(ok, "calls", "calls_unresolved")
            obj = np.where(ok, resolved, call_texts)
            ot = np.where(ok, "function", "ident")
            emit(call_rows, enclosing[call_rows], pred, obj, "function", ot)

        total = sum(len(a) for a in cols["subj"])
        if total == 0:
            return pa.table(
                {name: pa.array([], typ) for name, typ in TRIPLE_FIELDS}
            )
        return pa.table(
            {
                name: pa.array(
                    np.concatenate(cols[name])
                    if len(cols[name]) > 1 else cols[name][0],
                    typ,
                )
                for name, typ in TRIPLE_FIELDS
            }
        )


_PROCESS_LINKER: dict = {}


def make_link_batch(symbols_ref):
    """Stateless-task form of the linker: returns a plain function from a
    doc table to its raw triples that fetches the broadcast dictionary
    ONCE PER WORKER PROCESS (``ray.get`` of a plasma object is
    shared-memory; the cache keys on the object ref so a new dictionary
    invalidates it). Its callers: ``run_kg``'s per-block link task
    (``pipelines/kg.py:_link_kernel``), and ``map_batches`` in the
    benchmark's traced link layer and in tests. Use the TripleLinker
    class form when the stage holds heavier per-actor state (models)."""

    def link_batch(batch: pa.Table) -> pa.Table:
        # resolve the cache through the IMPORTABLE module: cloudpickle
        # serializes this dynamic closure's globals BY VALUE, so naming
        # _PROCESS_LINKER directly would hand every task its own fresh
        # (empty) cache — each task then re-deserialized/rebuilt the
        # symbol dict (measured 220 rebuilds / 130 cpu-s per headline
        # run). The in-worker import returns the real module object,
        # whose state persists across tasks in that process.
        from recon_ray.stages import link as _mod

        key = symbols_ref.hex() if symbols_ref is not None else "none"
        linker = _mod._PROCESS_LINKER.get(key)
        if linker is None:
            linker = TripleLinker(symbols_ref)
            _mod._PROCESS_LINKER.clear()
            _mod._PROCESS_LINKER[key] = linker
        return linker(batch)

    return link_batch


def _symbols_from_rows(repos, modules, names) -> dict:
    from recon_ray import spec as _spec

    symbols: dict[str, dict[str, list[str]]] = {}
    for r, m, n in zip(repos, modules, names):
        lst = symbols.setdefault(r, {}).setdefault(n, [])
        q = _spec.qualified(r, m, n)
        if q not in lst:
            lst.append(q)
    for r in symbols:
        for n in symbols[r]:
            symbols[r][n].sort()
    return symbols


def _dedup_symbol_table(symbol_rows: pa.Table) -> pa.Table:
    """(repo, module, name) occurrence rows → distinct sorted
    (repo, name, q) table, fully Arrow-vectorized (the pandas string
    dedup this replaces measured 0.41 s vs 0.20 s at 227k rows)."""
    import pyarrow.compute as pc

    g = symbol_rows.group_by(["repo", "module", "name"]).aggregate([])
    # q = repo + ":" + module + "." + name (identical to spec.qualified;
    # dict-equality pinned in tests/test_kg_pipeline.py)
    q = pc.binary_join_element_wise(
        g.column("repo").combine_chunks(), pa.scalar(":"),
        g.column("module").combine_chunks(), pa.scalar(""))
    q = pc.binary_join_element_wise(
        q, g.column("name").combine_chunks(), pa.scalar("."))
    t = pa.table({"repo": g.column("repo"), "name": g.column("name"),
                  "q": q})
    t = t.group_by(["repo", "name", "q"]).aggregate([])
    return t.take(pc.sort_indices(t, sort_keys=[
        ("repo", "ascending"), ("name", "ascending"),
        ("q", "ascending")]))


def _dict_from_symbol_table(t: pa.Table) -> dict:
    """Deduped pre-sorted (repo, name, q) rows → the linker's nested
    lookup dict. Plain appends — sorting already happened in Arrow."""
    symbols: dict[str, dict[str, list[str]]] = {}
    for r, n, q in zip(t.column("repo").to_pylist(),
                       t.column("name").to_pylist(),
                       t.column("q").to_pylist()):
        symbols.setdefault(r, {}).setdefault(n, []).append(q)
    return symbols


def build_symbol_broadcast(symbol_rows: pa.Table):
    """Distinct (repo, module, name) rows → broadcast symbol lookup dict →
    ray.put ref (read zero-copy by every linker worker; ships once, not
    per batch). Returns ``(ref, symbols_dict)``.

    Dedup + qualified-name construction + ordering are Arrow-vectorized
    (a per-row `q not in list` membership scan here measured 4.4 s of
    serial driver time at 96k files and scales quadratically for hot
    names)."""
    symbols = _dict_from_symbol_table(_dedup_symbol_table(symbol_rows))
    return ray.put(symbols), symbols
