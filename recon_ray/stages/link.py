"""Entity-linker stage — the analogue of the reference's ``EntityLinker``
(recon/linker.py:15-36). Its knowledge base is ONE Arrow table of
``(repo, name, q)`` rows, deduped and sorted: the reference's flat
``Entity(id, name, aliases)`` rows (recon/types.py:205-208). The table
is built from DEF mentions in Arrow, broadcast once with ``ray.put``
and read zero-copy by every link task; no Python dict of symbols
exists between DEF extraction and linking.

Resolution rules live in the SPEC (recon_ray/spec.py SymbolDict.resolve):
same-module definition wins, else lexicographically-smallest in-repo
definition, else unresolved. ``link_block`` applies them by joining the
symbol table with the block's distinct call ``(repo, name)`` keys, so a
large dictionary costs one probe pass per block, not a lookup per call.

Every string (module, file id, sentinel, qualified names, import roots)
is built by Arrow kernels over per-doc columns; the enclosing function of
a CALL (the nearest preceding DEF span) is a numpy running max.

Scale note: the broadcast table is the right shape while the global DEF
set fits comfortably in a worker's object store (≲ tens of millions of
symbols; docs/SCALE.md gives the measured size at the benchmark's corpus).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from recon_ray import spec

TRIPLE_SCHEMA = pa.schema([
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
])

#: one row per DEF occurrence: what the DEF kernel and the scan emit and
#: the checkpointed runner stores; ``symbol_table`` dedups it
SYMBOL_ROWS_SCHEMA = pa.schema([("repo", pa.string()),
                                ("module", pa.string()),
                                ("name", pa.string())])

_PROV_COLS = ["repo", "path", "commit", "content_sha256"]


# --- the spec's module / name rules, vectorized --------------------------

def module_of(paths):
    """spec.module_of: the text before the LAST '.' (exactly
    ``str.rsplit('.', 1)[0]``), '/' → '.'."""
    return pc.replace_substring(
        pc.replace_substring_regex(paths, r"\.[^.]*$", ""), "/", ".")


def def_name(texts):
    """spec.def_name: the last whitespace-separated token."""
    return pc.struct_field(
        pc.extract_regex(texts, r"(?P<name>\S+)\s*$"), "name")


def qualified(repo, module, name):
    """spec.qualified: ``repo:module.name``."""
    return pc.binary_join_element_wise(repo, ":", module, ".", name, "")


def import_root(texts, langs):
    """spec.import_root: python keeps the first dotted component,
    javascript the first path segment of a bare specifier, go the path."""
    def head(sep):
        return pc.list_element(pc.split_pattern(texts, sep, max_splits=1), 0)

    js = pc.if_else(pc.starts_with(texts, "."), texts, head("/"))
    return pc.if_else(pc.equal(langs, "python"), head("."),
                      pc.if_else(pc.equal(langs, "javascript"), js, texts))


# --- DEF rows → the symbol table ------------------------------------------

def _flatten(docs: pa.Table):
    """A doc block's flattened mention structs and each one's doc index,
    or ``(None, None)`` when the block holds no mentions column (an empty
    block can arrive without any columns)."""
    if docs.num_rows == 0 or "mentions" not in docs.column_names:
        return None, None
    arr = docs.column("mentions").combine_chunks()
    lengths = arr.value_lengths().fill_null(0).to_numpy(zero_copy_only=False)
    return arr.flatten(), np.repeat(np.arange(len(lengths)), lengths)


def defs_of(docs: pa.Table) -> pa.Table:
    """Per-block DEF partial: distinct ``(repo, module, name)`` rows from
    the detected mentions; only the DEF subset is gathered."""
    child, didx = _flatten(docs)
    if child is None:
        return SYMBOL_ROWS_SCHEMA.empty_table()
    mask = pc.equal(child.field("label"), "DEF")
    d = didx[mask.to_numpy(zero_copy_only=False)]
    t = pa.table({"repo": docs.column("repo").take(d),
                  "module": module_of(docs.column("path").take(d)),
                  "name": def_name(child.field("text").filter(mask))},
                 schema=SYMBOL_ROWS_SCHEMA)
    return t.group_by(SYMBOL_ROWS_SCHEMA.names).aggregate([])


def _dedup_symbol_table(symbol_rows: pa.Table) -> pa.Table:
    """``(repo, module, name)`` occurrence rows → the symbol table:
    distinct ``(repo, name, q)`` rows sorted by all three."""
    g = symbol_rows.group_by(SYMBOL_ROWS_SCHEMA.names).aggregate([])
    t = pa.table({"repo": g.column("repo"), "name": g.column("name"),
                  "q": qualified(g.column("repo"), g.column("module"),
                                 g.column("name"))})
    return t.sort_by([(c, "ascending") for c in ("repo", "name", "q")])


def merge_symbols(*parts: pa.Table) -> pa.Table:
    """Per-block DEF partials → the symbol table."""
    return _dedup_symbol_table(
        pa.concat_tables([SYMBOL_ROWS_SCHEMA.empty_table(), *parts]))


def build_symbol_broadcast(symbol_rows: pa.Table):
    """``(repo, module, name)`` rows → the symbol table, put in the object
    store once (link tasks read it zero-copy). Returns ``(ref, table)``."""
    table = _dedup_symbol_table(symbol_rows)
    return ray.put(table), table


# --- linking ----------------------------------------------------------------

def _key(repo, name):
    """One string per ``(repo, name)``; names are identifiers (the DEF and
    CALL patterns match ``_ID``), so the text after the last NUL is the
    name and the key is injective."""
    return pc.binary_join_element_wise(repo, name, "\x00")


def _resolve(repo, name, same, symbols: pa.Table):
    """spec.SymbolDict.resolve per call row: ``same`` (the call's
    ``repo:module.name``) when it is a definition, else the smallest ``q``
    for its ``(repo, name)``, else null. A ``q`` names one definition, as
    it does in the graph, so ``same`` among the candidates' ``q`` is the
    reference's same-module test."""
    keys = pa.table({"repo": repo, "name": name}).group_by(
        ["repo", "name"]).aggregate([])
    cand = symbols.join(keys, ["repo", "name"], join_type="inner")
    smallest = cand.group_by(["repo", "name"]).aggregate([("q", "min")])
    at = pc.index_in(_key(repo, name), value_set=_key(
        smallest.column("repo"), smallest.column("name")).combine_chunks())
    return pc.if_else(
        pc.is_in(same, value_set=cand.column("q").combine_chunks()),
        same, smallest.column("q_min").take(at))


def link_block(docs: pa.Table, symbols: pa.Table) -> pa.Table:
    """Raw triples (``TRIPLE_SCHEMA``) of a doc block with corrected
    ``mentions`` (``content`` already dropped), linked against the symbol
    table: the reference's ``link_document`` over every doc at once."""
    child, didx = _flatten(docs)
    if child is None or len(child) == 0:
        return TRIPLE_SCHEMA.empty_table()
    # the reference walks each doc's mentions in (start, end, label) order
    order = pc.sort_indices(
        pa.table({"doc": didx, "start": child.field("start"),
                  "end": child.field("end"), "label": child.field("label")}),
        sort_keys=[(c, "ascending") for c in ("doc", "start", "end", "label")],
    ).to_numpy()
    didx = didx[order]
    label = child.field("label")
    is_def, is_imp, is_call = (
        pc.equal(label, lbl).to_numpy(zero_copy_only=False)[order]
        for lbl in ("DEF", "IMPORT", "CALL"))
    text = child.field("text")
    cols = {c: docs.column(c).combine_chunks() for c in (*_PROV_COLS, "lang")}
    repo = cols["repo"]
    module = module_of(cols["path"])
    file_id = pc.binary_join_element_wise(repo, cols["path"], "/")

    def rows(mask):
        """The sorted positions with the label, their docs and texts."""
        pos = np.flatnonzero(mask)
        return pos, didx[pos], text.take(order[pos])

    _, d_imp, imp_text = rows(is_imp)
    _, d_def, def_text = rows(is_def)
    call_pos, d_call, name = rows(is_call)
    qual_def = qualified(repo.take(d_def), module.take(d_def),
                         def_name(def_text))

    # enclosing def: the running max of DEF positions; it encloses a CALL
    # only inside the CALL's own doc, else the doc's <module> sentinel
    last_def = np.maximum.accumulate(
        np.where(is_def, np.arange(len(order)), -1))[call_pos]
    inside = (last_def >= 0) & (didx[np.maximum(last_def, 0)] == d_call)
    def_ordinal = np.cumsum(is_def) - 1
    repo_c, module_c = repo.take(d_call), module.take(d_call)
    enclosing = pc.coalesce(
        qual_def.take(pa.array(def_ordinal[last_def], mask=~inside)),
        qualified(repo_c, module_c, spec.MODULE_SENTINEL))
    resolved = _resolve(repo_c, name, qualified(repo_c, module_c, name),
                        symbols)
    ok = pc.is_valid(resolved)

    def part(d, subj, pred, obj, subj_type, obj_type):
        const = lambda v: pa.repeat(v, len(d)) if isinstance(v, str) else v
        prov = [cols[c].take(d) for c in _PROV_COLS]
        return pa.Table.from_arrays(
            [subj, const(pred), obj, const(subj_type), const(obj_type),
             *prov, const(spec.EXTRACTOR_TAG)], schema=TRIPLE_SCHEMA)

    return pa.concat_tables([
        part(d_imp, repo.take(d_imp), "imports",
             import_root(imp_text, cols["lang"].take(d_imp)),
             "repo", "package"),
        part(d_imp, file_id.take(d_imp), "imports_module", imp_text,
             "file", "module"),
        part(d_def, file_id.take(d_def), "defines", qual_def,
             "file", "function"),
        part(d_call, enclosing,
             pc.if_else(ok, "calls", "calls_unresolved"),
             pc.coalesce(resolved, name), "function",
             pc.if_else(ok, "function", "ident")),
    ])


def make_link_batch(symbols_ref):
    """``link_block`` as a ``map_batches`` function over the broadcast
    symbol table (``ray.get`` of a plasma object is a zero-copy read)."""
    return lambda batch: link_block(batch, ray.get(symbols_ref))
