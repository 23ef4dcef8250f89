"""Mention-detector stage — the batched analogue of the reference's
``EntityRecognizer.predict`` (recon/recognizer.py:111-138), as a Ray Data
actor-pool callable: patterns compiled ONCE per actor in ``__init__``,
per-batch work in ``__call__`` (regex engine does the heavy lifting in C).

Appends a ``mentions`` list<struct<text,start,end,label,source>> column of
RAW (lowercase-label, dirty-boundary) spans; the correction chain
(recon_ray/ops/spans.py) cleans them downstream.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from recon_ray import spec
from recon_ray.hashing import add_content_keys
from recon_ray.ops.mentions_io import mentions_list_array


class MentionDetector:
    """map_batches(MentionDetector, batch_format="pyarrow", concurrency=N).

    At 100 TB scale this is the dominant compute stage: size the pool with
    ``concurrency=(min,max)`` and keep batches modest in *bytes* (source
    files can be MBs) — callers pass ``batch_size`` accordingly.
    """

    def __init__(self):
        # compile once per actor (reference recompiles nothing per doc either;
        # its model load happens once in SpacyEntityRecognizer.__init__)
        self.patterns = {
            lang: [(lbl, pat, grp) for (lbl, pat, grp) in pats]
            for lang, pats in spec.PATTERNS.items()
        }
        # lexicographic rank of every raw label: the (start, end, label)
        # tie-break compares label STRINGS, so with precomputed ranks the
        # whole batch sorts in one integer np.lexsort (stable, like the
        # reference's per-doc stable sort) instead of a Python sort per doc
        all_labels = sorted(
            {lbl for pats in self.patterns.values() for (lbl, _, _) in pats}
        )
        self.label_rank = {lbl: i for i, lbl in enumerate(all_labels)}

    def __call__(self, batch: pa.Table) -> pa.Table:
        if "content_sha256" not in batch.column_names:
            batch = add_content_keys(batch)
        contents = batch.column("content").to_pylist()
        langs = batch.column("lang").to_pylist()
        n = len(contents)
        # columnar accumulation: per match only one group() + one span() +
        # three appends; label/source/doc-index are CONSTANT per
        # (doc, pattern) chunk so they expand via np.repeat afterwards
        texts: list[str] = []
        starts: list[int] = []
        ends: list[int] = []
        chunk_doc: list[int] = []
        chunk_rank: list[int] = []
        chunk_label: list[str] = []
        chunk_src: list[str] = []
        chunk_count: list[int] = []
        t_app, s_app, e_app = texts.append, starts.append, ends.append
        for i in range(n):
            content, lang = contents[i], langs[i]
            for raw_label, pattern, group in self.patterns.get(lang, []):
                before = len(starts)
                for m in pattern.finditer(content):
                    t_app(m.group(group))
                    sp = m.span(group)
                    s_app(sp[0])
                    e_app(sp[1])
                c = len(starts) - before
                if c:
                    chunk_doc.append(i)
                    chunk_rank.append(self.label_rank[raw_label])
                    chunk_label.append(raw_label)
                    chunk_src.append(f"{lang}:{raw_label}")
                    chunk_count.append(c)
        counts = np.asarray(chunk_count, dtype=np.int64)
        doc_ids = np.asarray(chunk_doc, dtype=np.int64)
        didx = np.repeat(doc_ids, counts)
        ranks = np.repeat(np.asarray(chunk_rank, dtype=np.int64), counts)
        starts_np = np.asarray(starts, dtype=np.int64)
        ends_np = np.asarray(ends, dtype=np.int64)
        # one batch-wide stable sort in (doc, start, end, label) order
        order = np.lexsort((ranks, ends_np, starts_np, didx))
        lengths = np.bincount(doc_ids, weights=counts, minlength=n).astype(
            np.int64
        )
        mentions = mentions_list_array(
            lengths,
            np.asarray(texts, dtype=object)[order],
            starts_np[order],
            ends_np[order],
            np.repeat(np.asarray(chunk_label, dtype=object), counts)[order],
            np.repeat(np.asarray(chunk_src, dtype=object), counts)[order],
        )
        return batch.append_column("mentions", mentions)


_PROCESS_DETECTOR: "MentionDetector | None" = None


def detect_batch(batch: pa.Table) -> pa.Table:
    """Stateless-task form of the detector: the compiled-pattern state is a
    per-process singleton (patterns compile once per worker process, like an
    actor's __init__ but without per-execution pool-spawn latency). Use this
    for the plain regex detector; use the MentionDetector class form when
    the stage holds real per-actor state (models, GPU handles)."""
    global _PROCESS_DETECTOR
    if _PROCESS_DETECTOR is None:
        _PROCESS_DETECTOR = MentionDetector()
    return _PROCESS_DETECTOR(batch)


_PROCESS_SYMBOL_SCANNER: "SymbolScanner | None" = None


def scan_symbols_batch(batch: pa.Table) -> pa.Table:
    """Stateless-task form of the DEF-only scanner (same rationale)."""
    global _PROCESS_SYMBOL_SCANNER
    if _PROCESS_SYMBOL_SCANNER is None:
        _PROCESS_SYMBOL_SCANNER = SymbolScanner()
    return _PROCESS_SYMBOL_SCANNER(batch)


class SymbolScanner:
    """Pass-1 DEF-only scan used to build the linker's symbol dictionary.

    Exact by construction: DEF spans are never altered or removed by the
    correction chain (no strip chars in ``def name``; longest-in-chain so
    filter_overlaps keeps them; corrections only touch CALL labels) — an
    invariant asserted in tests against the full reference chain.

    Emits one row per (repo, module, name) occurrence; callers dedup with a
    groupby (the symbol table is orders of magnitude smaller than mentions).
    """

    def __init__(self):
        self.def_patterns = {
            lang: [(pat, grp) for (lbl, pat, grp) in pats if lbl == "def"]
            for lang, pats in spec.PATTERNS.items()
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        repos = batch.column("repo").to_pylist()
        paths = batch.column("path").to_pylist()
        contents = batch.column("content").to_pylist()
        langs = batch.column("lang").to_pylist()
        out_repo: list[str] = []
        out_module: list[str] = []
        out_name: list[str] = []
        for i in range(len(repos)):
            pats = self.def_patterns.get(langs[i], [])
            if not pats:
                continue
            module = spec.module_of(paths[i])
            seen: set[str] = set()
            for pat, grp in pats:
                for m in pat.finditer(contents[i]):
                    name = spec.def_name(m.group(grp))
                    if name not in seen:
                        seen.add(name)
                        out_repo.append(repos[i])
                        out_module.append(module)
                        out_name.append(name)
        return pa.table(
            {
                "repo": pa.array(out_repo, pa.string()),
                "module": pa.array(out_module, pa.string()),
                "name": pa.array(out_name, pa.string()),
            }
        )
