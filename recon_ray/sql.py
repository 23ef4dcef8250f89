"""Mini SQL front-end compiled to the engine's own Ray Data operators —
`run_sql("SELECT ... FROM t WHERE ... GROUP BY ...", {"t": ds})`.

Scope (deliberately small, enforced by the parser — anything else raises
rather than mis-executing): one table or a left-deep chain of
equi-JOINs (INNER / LEFT / RIGHT / FULL [OUTER], ``ON a.x = b.y
[AND ...]`` with
table aliases, each ON linking the new table to any earlier one; all
schemas must be column-disjoint so every reference stays unambiguous —
colliding names raise instead of silently suffixing),
SELECT [DISTINCT], a boolean WHERE tree — AND / OR / NOT with SQL's
exact three-valued logic over comparisons, [NOT] IN lists, BETWEEN,
IS [NOT] NULL (applied AFTER the join, per SQL semantics) — arithmetic
expressions (`+ - * /`, parens, unary minus, `round(x[, n])`,
`cast(x AS bigint|double)`) as derived select items, inside aggregates
(`sum(a * (1 - b))`, the TPC-H Q1/Q6 shape), and OVER aggregate
results (`round(sum(cents) / 100.0, 2)` — the post-aggregate layer
that lets the integer-cents TPC-H Q1 run hash-exactly),
GROUP BY with SUM / COUNT / COUNT(*) / COUNT(DISTINCT col) / AVG /
MIN / MAX aggregates (aliases supported), HAVING over result aliases,
ORDER BY result columns, LIMIT, and window functions — row_number /
rank / dense_rank / percent_rank / cume_dist / ntile(n) / sum / min /
max / lag / lead / first_value OVER (PARTITION BY p ORDER BY o),
compiled to ``window_over`` (one hash shuffle per distinct
partition/order pair; exact versus other engines when the ORDER BY key
is unique within each partition — running frames use ROWS semantics,
which coincide with SQL's default RANGE frame exactly then; windows
don't mix with GROUP BY/DISTINCT, per SQL's own evaluation order they
run after WHERE), [NOT] IN (SELECT …) and scalar-aggregate subqueries,
and exact quantile_disc aggregates. That covers the reporting-query
shape; everything fancier (skew-aware, broadcast, as-of joins,
correlated subqueries) stays with the operator API, which has the
richer family anyway.

Compilation: WHERE → `arrow_filter` (zero-copy pyarrow kernels);
GROUP BY → a per-batch pandas combiner emitting partial (sum, count,
min, max) rows, merged on the driver (the grouped result is
groups-sized; AVG resolves as sum/count at the end); global aggregates
are the same with one group; a plain projection streams through
`select_columns` + `limit`. Nothing row-wise runs in Python.

Every construct is differentially fuzzed against DuckDB executing the
IDENTICAL string (tests/test_sql_frontend.py), and the oracled
q_sql_frontend_* queries (the SQL_FRONTEND table in
pipelines/queries.py) route through it end to end under the driver's
hash gate.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_QCOL = r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?"
_AGG_RE = re.compile(
    r"^(sum|count|avg|min|max|stddev_samp|stddev_pop|stddev|var_samp"
    r"|var_pop|variance)\s*\(\s*(distinct\s+)?(\*|" + _QCOL
    + r")\s*\)$", re.I)
_QAGG_RE = re.compile(
    r"^(quantile_disc|quantile_cont|median)\s*\(\s*(" + _QCOL
    + r")(?:\s*,\s*(1|1\.0|0|0?\.\d+))?\s*\)$", re.I)
_Q_AGGS = ("quantile_disc", "quantile_cont")
_COV_RE = re.compile(
    r"^(corr|covar_samp|covar_pop|regr_slope|regr_intercept|regr_r2)"
    r"\s*\(\s*(" + _QCOL + r")\s*,\s*(" + _QCOL + r")\s*\)$", re.I)
_ARGM_RE = re.compile(
    r"^(arg_max|arg_min|max_by|min_by)"
    r"\s*\(\s*(" + _QCOL + r")\s*,\s*(" + _QCOL + r")\s*\)$", re.I)
_SAGG_RE = re.compile(
    r"^string_agg\s*\(\s*(distinct\s+)?(" + _QCOL + r")\s*,\s*"
    r"('(?:[^']|'')*')\s+order\s+by\s+(" + _QCOL
    + r")(?:\s+(asc|desc))?\s*\)$", re.I)
_ITEM_RE = re.compile(
    r"^(?P<expr>.+?)(?:\s+as\s+(?P<alias>[A-Za-z_]\w*))?$", re.I | re.S)
_CMP_RE = re.compile(
    r"^(" + _QCOL + r")\s*(<=|>=|<>|!=|=|<|>)\s*(.+)$")

_OPS = {
    "=": pc.equal, "<>": pc.not_equal, "!=": pc.not_equal,
    "<": pc.less, "<=": pc.less_equal, ">": pc.greater,
    ">=": pc.greater_equal,
}


class SqlError(ValueError):
    pass


_IN_RE = re.compile(r"^(" + _QCOL + r")\s+(not\s+)?in\s*\((.+)\)$", re.I)
_BETWEEN_RE = re.compile(
    r"^(" + _QCOL + r")\s+between\s+(.+?)\s+and\s+(.+)$", re.I)
_NULL_RE = re.compile(r"^(" + _QCOL + r")\s+is\s+(not\s+)?null$", re.I)
_LIKE_RE = re.compile(
    r"^(" + _QCOL + r")\s+(not\s+)?like\s+('(?:[^']|'')*')$", re.I)
_ON_EQ_RE = re.compile(
    r"^([A-Za-z_]\w*)\.([A-Za-z_]\w*)\s*=\s*([A-Za-z_]\w*)\.([A-Za-z_]\w*)$")
_WIN_RE = re.compile(
    r"^(?P<fn>row_number|rank|dense_rank|percent_rank|cume_dist|sum|min"
    r"|max|lag|lead|first_value|ntile)\s*\(\s*(?P<arg>[^()]*?)\s*\)"
    r"\s+over\s+\(\s*partition\s+by\s+(?P<part>" + _QCOL + r")"
    r"\s+order\s+by\s+(?P<ord>" + _QCOL
    + r"(?:\s*,\s*" + _QCOL + r")*)(?:\s+(?P<dir>asc|desc))?"
    r"(?:\s+rows\s+between\s+(?P<prec>\d+|unbounded)\s+preceding"
    r"\s+and\s+current\s+row)?\s*\)$",
    re.I)
_WIN_NOARG = {"row_number", "rank", "dense_rank", "percent_rank",
              "cume_dist"}
_WIN_KINDS = {"sum": "running_sum", "min": "running_min",
              "max": "running_max", "lag": "lag", "lead": "lead",
              "first_value": "first_value", "ntile": "ntile"}
_RESERVED = {"where", "group", "having", "order", "limit", "join",
             "inner", "left", "outer", "on", "as"}


def _unqual(name: str, aliases: set) -> str:
    """Strip a validated table qualifier from ``alias.col``; bare names
    pass through (disjoint join schemas keep them unambiguous)."""
    if "." in name:
        qual, _, col = name.partition(".")
        if qual.lower() not in aliases:
            raise SqlError(f"unknown table qualifier in {name!r}")
        return col
    return name


def _parse_pred(clause: str, aliases: set) -> tuple:
    """One scalar predicate: col <op> lit | col [NOT] IN (...) |
    col BETWEEN a AND b | col IS [NOT] NULL | col <op> (SELECT ...).
    Column qualifiers are validated and stripped here."""
    xm = re.match(r"^(not\s+)?exists\s*\(\s*(select\b.+)\)$",
                  clause, re.I | re.S)
    if xm:
        # UNCORRELATED EXISTS: the subquery references no outer
        # columns (correlated EXISTS stays with the operator API, like
        # other correlation). Evaluated ONCE with LIMIT 1 — keeps all
        # rows or none.
        return ("not_exists_subq" if xm.group(1) else "exists_subq",
                None, xm.group(2).strip())
    bm = _BETWEEN_RE.match(clause)
    if bm:
        return ("between", _unqual(bm.group(1), aliases),
                (_literal(bm.group(2)), _literal(bm.group(3))))
    im = _IN_RE.match(clause)
    if im:
        payload = im.group(3).strip()
        if re.match(r"^select\b", payload, re.I):
            return ("not_in_subq" if im.group(2) else "in_subq",
                    _unqual(im.group(1), aliases), payload)
        vals = [_literal(v) for v in _split_top(payload)]
        return ("not_in" if im.group(2) else "in",
                _unqual(im.group(1), aliases), vals)
    nm = _NULL_RE.match(clause)
    if nm:
        return ("notnull" if nm.group(2) else "isnull",
                _unqual(nm.group(1), aliases), None)
    lm = _LIKE_RE.match(clause)
    if lm:
        return ("not_like" if lm.group(2) else "like",
                _unqual(lm.group(1), aliases), _literal(lm.group(3)))
    cm = _CMP_RE.match(clause)
    if not cm:
        sp = _parse_str_pred(clause, aliases)
        if sp is not None:
            return sp
        raise SqlError(f"unsupported predicate: {clause!r}")
    rhs = cm.group(3).strip()
    if re.match(r"^\(\s*select\b", rhs, re.I) and rhs.endswith(")"):
        return ("cmp_subq", _unqual(cm.group(1), aliases),
                (cm.group(2), rhs[1:-1].strip()))
    if (re.match(r"^" + _QCOL + r"$", rhs)
            and not re.match(r"^\d|^'", rhs)
            and rhs.lower() not in ("null", "true", "false")):
        # column-to-column comparison: l_quantity < qty_limit
        return ("cmp2", _unqual(cm.group(1), aliases),
                (cm.group(2), _unqual(rhs, aliases)))
    return (cm.group(2), _unqual(cm.group(1), aliases), _literal(rhs))


def _split_cmp_top(clause: str):
    """Find the first comparison operator at paren depth 0 outside
    quotes; returns (lhs, op, rhs) or None."""
    depth, in_q, i, n = 0, False, 0, len(clause)
    while i < n:
        ch = clause[i]
        if ch == "'":
            in_q = not in_q
        elif not in_q:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif depth == 0 and ch in "<>=!":
                for op in ("<=", ">=", "<>", "!=", "<", ">", "="):
                    if clause.startswith(op, i):
                        return (clause[:i].strip(), op,
                                clause[i + len(op):].strip())
        i += 1
    return None


def _parse_str_pred(clause: str, aliases: set):
    """A predicate whose LHS is a string EXPRESSION (function call /
    || chain): = <> IN LIKE IS NULL against string literals. Returns
    the usual (kind, col, payload) with col = the strexpr node, or
    None if the clause isn't string-expression-shaped."""
    m = re.match(r"^(.+?)\s+is\s+(not\s+)?null$", clause, re.I | re.S)
    if m:
        lhs = m.group(1).strip()
        lm = re.match(r"^length\s*\((.*)\)$", lhs, re.I | re.S)
        if lm is not None:
            # length(x) IS [NOT] NULL: evaluate the inner string
            # expression and null-check IT (length never creates or
            # removes a NULL)
            try:
                node = _parse_strexpr(lm.group(1), aliases)
            except SqlError:
                node = None
            if node is not None and node[0] != "snum":
                if node[0] == "scol":
                    return ("notnull" if m.group(2) else "isnull",
                            node[1], None)
                return ("notnull" if m.group(2) else "isnull",
                        node, None)
        node = _try_strfn(lhs, aliases)
        if node is not None:
            return ("notnull" if m.group(2) else "isnull", node, None)
    m = re.match(r"^(.+?)\s+(not\s+)?like\s+('(?:[^']|'')*')$",
                 clause, re.I | re.S)
    if m:
        node = _try_strfn(m.group(1), aliases)
        if node is not None:
            return ("not_like" if m.group(2) else "like", node,
                    _literal(m.group(3)))
    parts = _split_kw(clause, "in")
    if len(parts) == 2:
        lhs, rhs = parts
        neg = False
        if re.search(r"\bnot$", lhs, re.I):
            neg, lhs = True, re.sub(r"\s*not$", "", lhs, flags=re.I)
        node = _try_strfn(lhs, aliases)
        if node is not None:
            rhs = rhs.strip()
            if not (rhs.startswith("(") and rhs.endswith(")")):
                raise SqlError(f"IN needs a parenthesized list: "
                               f"{clause!r}")
            payload = rhs[1:-1].strip()
            if re.match(r"^select\b", payload, re.I):
                raise SqlError(
                    "IN-subqueries with a string-expression probe "
                    "are out of scope")
            vals = [_literal(v) for v in _split_top(payload)]
            if not all(isinstance(v, str) for v in vals):
                raise SqlError(
                    f"string expressions compare against string "
                    f"literals: {clause!r}")
            return ("not_in" if neg else "in", node, vals)
    sp = _split_cmp_top(clause)
    if sp is not None:
        lhs, op, rhs = sp
        node = _try_strfn(lhs, aliases)
        if node is not None:
            # RHS: a string literal, a bare column, or another string
            # expression (trim(s) <> s, upper(a) = upper(b))
            try:
                lit = _literal(rhs)
            except SqlError:
                lit = None
            else:
                if not isinstance(lit, str):
                    raise SqlError(
                        f"string expressions compare against strings: "
                        f"{clause!r}")
                return (op, node, lit)
            try:
                rnode = _parse_strexpr(rhs, aliases)
            except SqlError:
                raise SqlError(
                    f"string expressions compare against strings: "
                    f"{clause!r}")
            if rnode[0] == "slit":
                return (op, node, rnode[1])
            if rnode[0] == "snum":
                raise SqlError(
                    f"string expressions compare against strings: "
                    f"{clause!r}")
            if rnode[0] == "scol":
                return ("cmp2", node, (op, rnode[1]))
            return ("cmp2", node, (op, rnode))
    return None


def _rejoin_between(parts: list[str]) -> list[str]:
    """_split_and splits BETWEEN's own AND off; glue those back."""
    out, i = [], 0
    while i < len(parts):
        clause = parts[i].strip()
        if re.match(r"^(not\s+)?" + _QCOL + r"\s+between\s+", clause,
                    re.I) and i + 1 < len(parts):
            clause = clause + " and " + parts[i + 1].strip()
            i += 1
        i += 1
        out.append(clause)
    return out


def _strip_parens(s: str) -> str:
    """Strip outer parens that wrap the WHOLE clause (quote-aware)."""
    while s.startswith("(") and s.endswith(")"):
        depth, in_q = 0, False
        for i, ch in enumerate(s):
            if ch == "'":
                in_q = not in_q
            elif not in_q:
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                    if depth == 0 and i < len(s) - 1:
                        return s  # closes early: not an outer wrapper
        s = s[1:-1].strip()
    return s


def _parse_bool(text: str, aliases: set):
    """A boolean predicate tree with SQL's precedence
    (NOT > AND > OR): nodes are ``("or"|"and", [children])``,
    ``("not", child)``, or ``("pred", (kind, col, payload))``."""
    text = _strip_parens(text.strip())
    ors = _split_kw(text, "or")
    if len(ors) > 1:
        return ("or", [_parse_bool(p, aliases) for p in ors])
    ands = _rejoin_between(_split_and(text))
    if len(ands) > 1:
        return ("and", [_parse_bool(p, aliases) for p in ands])
    clause = _strip_parens(ands[0])
    nm = re.match(r"^not\s+(.+)$", clause, re.I | re.S)
    # "NOT <rest>" — but "x NOT IN ..." starts with a column, so a
    # leading NOT token is unambiguous. "NOT EXISTS (...)" stays one
    # predicate (the subquery kinds only work as top-level conjuncts,
    # so wrapping it in a NOT node would mis-route it to the Kleene
    # filter)
    if nm and not re.match(r"^exists\s*\(", nm.group(1), re.I):
        return ("not", _parse_bool(nm.group(1), aliases))
    if clause != ands[0]:
        # parens got stripped: the inside may itself be an OR/AND tree
        return _parse_bool(clause, aliases)
    return ("pred", _parse_pred(clause, aliases))


_SUBQ_KINDS = ("in_subq", "not_in_subq", "cmp_subq", "exists_subq",
               "not_exists_subq", "exists_semi", "exists_anti")


def _decorrelate_exists(subtext: str, outer_aliases: set):
    """Rewrite a correlated ``[NOT] EXISTS (SELECT … FROM t [a] WHERE
    inner.k = outer.c AND <inner-only preds>)`` into a key set the
    planner joins semi/anti — the TPC-H Q4/Q22 shape. Exactly ONE
    qualified equality may cross the boundary; every other conjunct
    must be inner-only (checked for qualified outer references; the
    correlation itself must be qualified on both sides). Returns
    (outer_col, inner_single_column_sql) or None when the pattern
    doesn't apply (the caller then requires the subquery to be
    uncorrelated)."""
    m = re.match(
        r"^select\s+.+?\s+from\s+([A-Za-z_]\w*)"
        r"(?:\s+(?!where\b)([A-Za-z_]\w*))?"
        r"(?:\s+where\s+(.+))?$", subtext, re.I | re.S)
    if not m or m.group(3) is None:
        return None
    tbl, al = m.group(1), m.group(2)
    ialias = (al or tbl).lower()

    def _side(qual):
        if qual == ialias:
            return "inner"
        return "outer" if qual in outer_aliases else None

    corr, rest = None, []
    for clause in _split_and(m.group(3)):
        clause = clause.strip()
        em = _ON_EQ_RE.match(clause)
        if em:
            qa, ca, qb, cb = em.groups()
            sa, sb = _side(qa.lower()), _side(qb.lower())
            hit = None
            if sa == "outer" and sb == "inner":
                hit = (ca, cb)
            elif sa == "inner" and sb == "outer":
                hit = (cb, ca)
            if hit:
                if corr is not None:
                    return None  # multi-key correlation out of scope
                corr = hit
                continue
        if any(re.search(r"\b" + re.escape(a) + r"\s*\.", clause,
                         re.I)
               for a in outer_aliases if a != ialias):
            return None  # some other outer reference — can't rewrite
        rest.append(clause)
    if corr is None:
        return None
    inner_sql = f"SELECT {corr[1]} FROM {tbl}" + (f" {al}" if al else "")
    if rest:
        inner_sql += " WHERE " + " AND ".join(rest)
    return corr[0], inner_sql


def _assert_scalar_tree(node, ctx: str):
    """Subquery predicates only work as top-level WHERE conjuncts —
    everywhere else (OR/NOT branches, CASE, FILTER) they raise."""
    if node[0] == "pred":
        if node[1][0] in _SUBQ_KINDS:
            raise SqlError(f"{ctx} predicates must be scalar (no "
                           "subqueries)")
    elif node[0] == "not":
        _assert_scalar_tree(node[1], ctx)
    else:
        for ch in node[1]:
            _assert_scalar_tree(ch, ctx)


def _pred_cols(pred, out: set):
    kind, col, payload = pred
    if isinstance(col, str):
        out.add(col)
    elif isinstance(col, tuple):  # string-expression LHS
        _strexpr_cols(col, out)
    if kind == "cmp2":
        if isinstance(payload[1], tuple):
            _strexpr_cols(payload[1], out)
        else:
            out.add(payload[1])


def _tree_cols(node, out: set):
    if node[0] == "pred":
        _pred_cols(node[1], out)
    elif node[0] == "not":
        _tree_cols(node[1], out)
    else:
        for ch in node[1]:
            _tree_cols(ch, out)


# ---------------------------------------------------------------------------
# string expressions — upper/lower/trim/substring/replace/concat/||
# over columns and 'literals', usable as derived select items (GROUP
# BY-able), as predicate left-hand sides, and via length() as a
# numeric-expression leaf. Nodes: ("scol", name) | ("slit", text) |
# ("sfn", fname, [args]) | ("scat", [parts]). DuckDB rules: || and the
# unary fns propagate NULL; concat() SKIPS NULL arguments.
# ---------------------------------------------------------------------------

# (min_args, max_args); substring's extra args are INT literals
_STR_FNS = {"upper": (1, 1), "lower": (1, 1), "trim": (1, 1),
            "ltrim": (1, 1), "rtrim": (1, 1), "substring": (2, 3),
            "substr": (2, 3), "left": (2, 2), "right": (2, 2),
            "replace": (3, 3), "concat": (2, 64)}

_STR_TOKEN = re.compile(
    r"\s*(?:(?P<lit>'(?:[^']|'')*')"
    r"|(?P<num>\d+)"
    r"|(?P<name>" + _QCOL + r")"
    r"|(?P<cat>\|\|)"
    r"|(?P<op>[(),]))")


def _lex_str(text: str) -> list[tuple]:
    toks, i, n = [], 0, len(text)
    while i < n:
        m = _STR_TOKEN.match(text, i)
        if not m:
            if text[i:].strip():
                raise SqlError(
                    f"bad token in string expression: {text[i:]!r}")
            break
        i = m.end()
        if m.group("lit") is not None:
            toks.append(("lit", m.group("lit")[1:-1].replace("''", "'")))
        elif m.group("num") is not None:
            toks.append(("num", int(m.group("num"))))
        elif m.group("name") is not None:
            toks.append(("name", m.group("name")))
        elif m.group("cat") is not None:
            toks.append(("op", "||"))
        else:
            toks.append(("op", m.group("op")))
    return toks


def _parse_strexpr(text: str, aliases: set):
    """Parse a string-valued expression; raises SqlError on anything
    that isn't one. A BARE column also parses (callers that need
    "genuinely a function" check the node kind)."""
    toks = _lex_str(text)
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def take():
        t = peek()
        pos[0] += 1
        return t

    def atom():
        t = take()
        if t is None:
            raise SqlError(f"truncated string expression: {text!r}")
        k, v = t
        if k == "lit":
            return ("slit", v)
        if k == "num":
            return ("snum", v)  # only legal as a position argument
        if k == "op" and v == "(":
            e = expr()
            if take() != ("op", ")"):
                raise SqlError(f"unbalanced parens in: {text!r}")
            return e
        if k != "name":
            raise SqlError(f"unexpected {v!r} in string expr: {text!r}")
        low = v.lower()
        if low in _STR_FNS and peek() == ("op", "("):
            take()
            args = [expr()]
            while peek() == ("op", ","):
                take()
                args.append(expr())
            if take() != ("op", ")"):
                raise SqlError(f"unbalanced parens in: {text!r}")
            lo, hi = _STR_FNS[low]
            if not lo <= len(args) <= hi:
                raise SqlError(
                    f"{low}() takes {lo}..{hi} arguments: {text!r}")
            name = "substring" if low == "substr" else low
            if name in ("substring", "left", "right"):
                for a in args[1:]:
                    if a[0] != "snum":
                        raise SqlError(
                            f"{name}() position arguments must be "
                            f"non-negative integer literals: {text!r}")
                if name == "substring" and args[1][1] < 1:
                    raise SqlError(
                        "substring() start is 1-based and must be "
                        f">= 1: {text!r}")
            if name == "replace" and (args[1][0] != "slit"
                                      or args[2][0] != "slit"):
                raise SqlError(
                    f"replace() pattern/replacement must be string "
                    f"literals: {text!r}")
            if args[0][0] == "snum" or (name == "concat" and any(
                    a[0] == "snum" for a in args)):
                raise SqlError(
                    f"{name}() string arguments can't be bare "
                    f"integers: {text!r}")
            if name == "concat":
                return ("scat", args, "skip")
            return ("sfn", name, args)
        if low in _STR_FNS or low in ("date_trunc", "extract", "cast",
                                      "case", "round", "coalesce"):
            raise SqlError(f"not a string expression atom: {v!r}")
        return ("scol", _unqual(v, aliases))

    def expr():
        e = atom()
        if peek() == ("op", "||"):
            parts = [e]
            while peek() == ("op", "||"):
                take()
                parts.append(atom())
            if any(p[0] == "snum" for p in parts):
                raise SqlError(
                    f"|| operands can't be bare integers: {text!r}")
            return ("scat", parts, "null")
        return e

    node = expr()
    if pos[0] != len(toks):
        raise SqlError(f"trailing tokens in string expr: {text!r}")
    for bad in ("snum",):
        if node[0] == bad:
            raise SqlError(f"not a string expression: {text!r}")
    return node


def _try_strfn(text: str, aliases: set):
    """Parse ``text`` as a NON-TRIVIAL string expression (a function
    call or || chain — not a bare column/literal); None if it isn't
    one."""
    if "||" not in text and not re.match(
            r"^(" + "|".join(_STR_FNS) + r")\s*\(", text.strip(), re.I):
        return None
    try:
        node = _parse_strexpr(text, aliases)
    except SqlError:
        return None
    return node if node[0] in ("sfn", "scat") else None


def _strexpr_cols(node, out: set):
    k = node[0]
    if k == "scol":
        out.add(node[1])
    elif k == "sfn":
        for a in node[2]:
            _strexpr_cols(a, out)
    elif k == "scat":
        for a in node[1]:
            _strexpr_cols(a, out)


def _eval_str_pd(b: pd.DataFrame, node) -> pd.Series:
    """Evaluate a string expression on a pandas batch → object Series
    (None/NaN = SQL NULL)."""
    k = node[0]
    if k == "scol":
        s = b[node[1]]
        return s if s.dtype == object else s.astype(object).where(
            s.notna(), None)
    if k == "slit":
        return pd.Series(np.full(len(b), node[1], dtype=object),
                         index=b.index)
    if k == "scat":
        parts = [_eval_str_pd(b, a) for a in node[1]]
        if node[2] == "skip":  # concat(): NULL args vanish
            out = parts[0].fillna("")
            for p in parts[1:]:
                out = out + p.fillna("")
            return out
        out = parts[0]
        for p in parts[1:]:  # ||: NULL propagates
            out = out + p
        return out
    fn = node[1]
    s = _eval_str_pd(b, node[2][0])
    if fn == "upper":
        return s.str.upper()
    if fn == "lower":
        return s.str.lower()
    if fn == "trim":
        return s.str.strip()
    if fn == "ltrim":
        return s.str.lstrip()
    if fn == "rtrim":
        return s.str.rstrip()
    if fn == "replace":
        return s.str.replace(node[2][1][1], node[2][2][1], regex=False)
    if fn == "substring":
        start = node[2][1][1] - 1
        if len(node[2]) == 3:
            return s.str.slice(start, start + node[2][2][1])
        return s.str.slice(start)
    if fn == "left":
        return s.str.slice(0, node[2][1][1])
    n = node[2][1][1]  # right
    return s.str.slice(0, 0) if n == 0 else s.str.slice(-n)


def _eval_str_arrow(t: pa.Table, node):
    """Evaluate a string expression on an Arrow table → string array
    (zero-copy kernels; NULLs ride along)."""
    k = node[0]
    if k == "scol":
        c = t.column(node[1])
        return c.cast(pa.string()) if pa.types.is_null(c.type) else c
    if k == "slit":
        return pa.scalar(node[1], pa.string())
    if k == "scat":
        parts = [_eval_str_arrow(t, a) for a in node[1]]
        null_h = "skip" if node[2] == "skip" else "emit_null"
        return pc.binary_join_element_wise(
            *parts, pa.scalar("", pa.string()), null_handling=null_h)
    fn = node[1]
    a = _eval_str_arrow(t, node[2][0])
    as_scalar = isinstance(a, pa.Scalar)
    if as_scalar:  # fn over a pure literal: compute on a 1-row array
        a = pa.array([a.as_py()], pa.string())

    def _done(res):
        return res[0] if as_scalar else res

    if fn == "upper":
        return _done(pc.utf8_upper(a))
    if fn == "lower":
        return _done(pc.utf8_lower(a))
    if fn == "trim":
        return _done(pc.utf8_trim_whitespace(a))
    if fn == "ltrim":
        return _done(pc.utf8_ltrim_whitespace(a))
    if fn == "rtrim":
        return _done(pc.utf8_rtrim_whitespace(a))
    if fn == "replace":
        return _done(pc.replace_substring(
            a, pattern=node[2][1][1], replacement=node[2][2][1]))
    if fn == "substring":
        start = node[2][1][1] - 1
        if len(node[2]) == 3:
            return _done(pc.utf8_slice_codeunits(
                a, start, stop=start + node[2][2][1]))
        return _done(pc.utf8_slice_codeunits(a, start))
    if fn == "left":
        return _done(pc.utf8_slice_codeunits(a, 0, stop=node[2][1][1]))
    n = node[2][1][1]  # right
    return _done(pc.utf8_slice_codeunits(a, 0, stop=0) if n == 0
                 else pc.utf8_slice_codeunits(a, -n))


def _split_kw(text: str, kw: str) -> list[str]:
    """Split on the word ``kw`` at paren depth 0 outside quotes.
    Input is whitespace-normalized upstream."""
    marker = " " + kw.lower() + " "
    mlen = len(marker) - 1
    out, depth, in_q, start, i, n = [], 0, False, 0, 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            in_q = not in_q
        elif not in_q:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif (depth == 0 and ch == " "
                    and text[i:i + mlen + 1].lower() == marker):
                out.append(text[start:i].strip())
                i += mlen
                start = i + 1
        i += 1
    out.append(text[start:].strip())
    return [p for p in out if p]


def _split_and(text: str) -> list[str]:
    """Split a conjunction on the word AND at paren depth 0 (so
    BETWEEN's AND re-join still works and subquery bodies stay whole)."""
    return _split_kw(text, "and")


def _case_value(tok: str, aliases: set):
    """A CASE THEN/ELSE operand: NULL, a column reference, a literal,
    or an arithmetic expression."""
    tok = tok.strip()
    if tok.lower() == "null":
        return ("lit", None)
    if re.match(r"^" + _QCOL + r"$", tok):
        return ("col", _unqual(tok, aliases))
    try:
        return ("lit", _literal(tok))
    except SqlError:
        return ("expr", _parse_arith(tok, aliases))


def _parse_case_body(text: str, aliases: set) -> dict:
    """``CASE WHEN bool THEN value ... [ELSE value] END`` →
    {"whens": [(tree, value), ...], "else": value}. Shared by the
    select-item CASE and CASE nested inside arithmetic/aggregates."""
    m = re.match(r"^case\s+when\s+(?P<body>.+)\s+end$", text.strip(),
                 re.I | re.S)
    if not m:
        raise SqlError(f"unsupported CASE: {text!r}")
    whens = []
    else_val = ("lit", None)
    chunks = _split_kw(m.group("body"), "when")
    for ci, ch in enumerate(chunks):
        if ci == len(chunks) - 1:
            eparts = _split_kw(ch, "else")
            if len(eparts) == 2:
                ch, ev = eparts
                else_val = _case_value(ev, aliases)
            elif len(eparts) > 2:
                raise SqlError("multiple ELSE in CASE")
        tparts = _split_kw(ch, "then")
        if len(tparts) != 2:
            raise SqlError(f"bad CASE arm: {ch!r}")
        tree = _parse_bool(tparts[0], aliases)
        _assert_scalar_tree(tree, "CASE")
        whens.append((tree, _case_value(tparts[1], aliases)))
    return {"whens": whens, "else": else_val}


def _excise_lengths(text: str):
    """Replace each ``length( ... )`` span (balanced parens, quote-
    aware) with a ``__slen{k}`` placeholder so the arithmetic lexer
    never sees string syntax; bodies parse via _parse_strexpr."""
    out: list = []
    bodies: dict = {}
    last, k = 0, 0
    for m in re.finditer(r"'(?:[^']|'')*'|\blength\s*\(", text, re.I):
        if m.group(0).startswith("'") or m.start() < last:
            continue
        depth, in_q, i, n = 1, False, m.end(), len(text)
        while i < n and depth:
            ch = text[i]
            if ch == "'":
                in_q = not in_q
            elif not in_q:
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
            i += 1
        if depth:
            raise SqlError(f"unbalanced length(): {text!r}")
        name = f"__slen{k}"
        bodies[name] = text[m.end():i - 1]
        out.append(text[last:m.start()])
        out.append(" " + name + " ")
        last, k = i, k + 1
    if not bodies:
        return text, bodies
    out.append(text[last:])
    return "".join(out), bodies


_CASE_SCAN = re.compile(r"'(?:[^']|'')*'|\bcase\b|\bend\b", re.I)


def _excise_cases(text: str):
    """Replace each top-level ``CASE ... END`` span with a
    ``__case{k}`` placeholder name so the arithmetic lexer never sees
    predicate syntax; the bodies parse separately via
    _parse_case_body. Nested CASE is out of scope."""
    out: list = []
    bodies: dict = {}
    last, k = 0, 0
    open_pos = None
    for m in _CASE_SCAN.finditer(text):
        tok = m.group(0).lower()
        if tok.startswith("'"):
            continue
        if tok == "case":
            if open_pos is not None:
                raise SqlError("nested CASE is out of scope")
            open_pos = m.start()
            out.append(text[last:m.start()])
        else:  # end
            if open_pos is None:
                raise SqlError(f"dangling END in expression: {text!r}")
            name = f"__case{k}"
            bodies[name] = text[open_pos:m.end()]
            out.append(" " + name + " ")
            k += 1
            open_pos = None
            last = m.end()
    if open_pos is not None:
        raise SqlError(f"CASE without END in: {text!r}")
    out.append(text[last:])
    return "".join(out), bodies


def _literal(tok: str):
    tok = tok.strip()
    dm = re.match(r"^(?:date|timestamp)\s+'(.*)'$", tok, re.I)
    if dm:
        # DATE '...' / TIMESTAMP '...' keyword literals: the string is
        # cast against the column's temporal type at compile time, same
        # as a bare string literal
        return dm.group(1)
    if tok.startswith("'") and tok.endswith("'") and len(tok) >= 2:
        return tok[1:-1].replace("''", "'")
    try:
        return int(tok)
    except ValueError:
        try:
            return float(tok)
        except ValueError:
            raise SqlError(f"unsupported literal: {tok!r}")


_ARITH_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>" + _QCOL + r")"
    r"|(?P<op>[-+*/(),]|\*))")

_AGG_FNS = ("sum", "count", "avg", "min", "max", "stddev",
            "stddev_samp", "stddev_pop", "var_samp", "var_pop",
            "variance")
_AGG_NORM = {"stddev": "stddev_samp", "variance": "var_samp"}
_VAR_AGGS = ("stddev_samp", "stddev_pop", "var_samp", "var_pop")
# two-column statistical aggregates — fn(y, x), SQL's pairwise
# both-non-null semantics; six extra sum partials per distinct column
# pair ride the same combiner (n, Σx, Σy, Σxy, Σx², Σy² all merge as
# sums, so ROLLUP/CUBE recomposition carries them unchanged)
_COV_AGGS = ("corr", "covar_samp", "covar_pop", "regr_slope",
             "regr_intercept", "regr_r2")
_ARG_AGGS = ("arg_max", "arg_min")
_INT_CASTS = {"bigint": "int", "int": "int", "integer": "int",
              "hugeint": "int"}
_FLOAT_CASTS = {"double": "float", "float": "float", "real": "float"}
# scalar numeric functions in expressions. Domain notes: sqrt/ln of
# out-of-range input yield NULL here where DuckDB raises a query error
# (a distributed stage can't abort one task's batch mid-stream);
# power(0, -1) is +inf, matching DuckDB. greatest/least IGNORE NULLs
# (DuckDB semantics), coalesce/nullif are standard.
_UNARY_FNS = {"abs", "floor", "ceil", "ceiling", "sqrt", "ln", "exp"}
_NARY_FNS = {"coalesce", "nullif", "greatest", "least", "power", "pow"}
_EXTRACT_PARTS = {"year", "month", "day", "hour", "minute", "second",
                  "dow", "doy", "week"}


def _lex_arith(text: str) -> list[tuple]:
    toks, i, n = [], 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        m = _ARITH_TOKEN.match(text, i)
        if not m or m.end() == i:
            raise SqlError(f"unsupported expression token at: "
                           f"{text[i:]!r}")
        if m.group("num") is not None:
            v = m.group("num")
            toks.append(("num", float(v) if ("." in v or "e" in v.lower())
                         else int(v)))
        elif m.group("name") is not None:
            toks.append(("name", m.group("name")))
        else:
            toks.append(("op", m.group("op")))
        i = m.end()
    return toks


def _parse_arith(text: str, aliases: set, agg_collect: list = None):
    """Numeric arithmetic over columns and literals — ``+ - * /``,
    unary minus, parens, ``round(x[, n])`` and
    ``cast(x AS bigint|double)``. AST nodes: ("col", name) |
    ("lit", v) | ("neg", x) | ("bin", op, l, r) |
    ("fn", "round", x, n) | ("cast", "int"|"float", x). Division
    follows DuckDB: always float, x/0 is NULL.

    With ``agg_collect`` (a list), aggregate calls are legal leaves —
    ``sum(expr)``, ``count(*)`` … register a (fn, inner-ast) spec there
    (deduplicated) and parse as ``("col", "__pa{i}")`` placeholders,
    the post-aggregation-expression hook.

    ``CASE WHEN ... END`` spans are legal atoms (excised to
    placeholders before lexing — predicate syntax never reaches the
    token stream), so ``sum(CASE WHEN p THEN x ELSE 0 END)`` — the
    TPC-H Q12/Q14 conditional-aggregate shape — parses here; the node
    is ("casex", {"whens": [...], "else": value})."""
    text, case_bodies = _excise_cases(text)
    text, slen_bodies = _excise_lengths(text)
    toks = _lex_arith(text)
    pos = [0]
    in_agg = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def take():
        t = peek()
        pos[0] += 1
        return t

    def expect(tok, what):
        if take() != tok:
            raise SqlError(f"expected {what} in: {text!r}")

    def atom():
        t = take()
        if t is None:
            raise SqlError(f"truncated expression: {text!r}")
        k, v = t
        if k == "num":
            return ("lit", v)
        if k == "name":
            low = v.lower()
            if v in slen_bodies:
                # length(strexpr): a BIGINT numeric leaf over a string
                # expression (NULL in → NULL out)
                return ("len", _parse_strexpr(slen_bodies[v], aliases))
            if v in case_bodies:
                spec = _parse_case_body(case_bodies[v], aliases)
                for _t, val in spec["whens"] + [(None, spec["else"])]:
                    if val[0] == "lit" and isinstance(val[1], str):
                        raise SqlError(
                            "string CASE values are not usable in "
                            "arithmetic expressions")
                return ("casex", spec)
            if low == "round" and peek() == ("op", "("):
                take()
                e = expr()
                n = 0
                if peek() == ("op", ","):
                    take()
                    neg = False
                    if peek() == ("op", "-"):
                        take()
                        neg = True
                    nt = take()
                    if nt is None or nt[0] != "num" \
                            or not isinstance(nt[1], int):
                        raise SqlError(
                            f"round() needs an integer precision: "
                            f"{text!r}")
                    n = -nt[1] if neg else nt[1]
                expect(("op", ")"), "')' after round()")
                return ("fn", "round", e, n)
            if low == "cast" and peek() == ("op", "("):
                take()
                e = expr()
                at = take()
                if at is None or at[0] != "name" or at[1].lower() != "as":
                    raise SqlError(f"cast needs AS <type>: {text!r}")
                tt = take()
                ty = tt[1].lower() if tt and tt[0] == "name" else None
                if ty in _INT_CASTS:
                    kind = "int"
                elif ty in _FLOAT_CASTS:
                    kind = "float"
                else:
                    raise SqlError(
                        f"unsupported cast type in: {text!r}")
                expect(("op", ")"), "')' after cast()")
                return ("cast", kind, e)
            if low == "null":
                return ("lit", None)
            if low in _UNARY_FNS and peek() == ("op", "("):
                take()
                e = expr()
                expect(("op", ")"), f"')' after {low}()")
                return ("ufn", "ceil" if low == "ceiling" else low, e)
            if low in _NARY_FNS and peek() == ("op", "("):
                take()
                args = [expr()]
                while peek() == ("op", ","):
                    take()
                    args.append(expr())
                expect(("op", ")"), f"')' after {low}()")
                name = "power" if low == "pow" else low
                if name in ("nullif", "power") and len(args) != 2:
                    raise SqlError(
                        f"{name}() takes exactly 2 arguments: {text!r}")
                if name != "power" and len(args) < 2:
                    raise SqlError(
                        f"{name}() needs at least 2 arguments: {text!r}")
                return ("nfn", name, args)
            if low == "extract" and peek() == ("op", "("):
                take()
                pt, ft, ct = take(), take(), take()
                if (pt is None or pt[0] != "name"
                        or pt[1].lower() not in _EXTRACT_PARTS
                        or ft is None or ft[0] != "name"
                        or ft[1].lower() != "from"
                        or ct is None or ct[0] != "name"):
                    raise SqlError(
                        f"extract needs (part FROM col): {text!r}")
                expect(("op", ")"), "')' after extract()")
                return ("xtr", pt[1].lower(), _unqual(ct[1], aliases))
            if low in _AGG_FNS and peek() == ("op", "("):
                if agg_collect is None or in_agg[0]:
                    raise SqlError(
                        "aggregates are not allowed inside this "
                        f"expression: {text!r}")
                take()
                if low == "count" and peek() == ("op", "*"):
                    take()
                    spec = ("count", None)
                else:
                    in_agg[0] += 1
                    inner = expr()
                    in_agg[0] -= 1
                    spec = (_AGG_NORM.get(low, low), inner)
                expect(("op", ")"), "')' after aggregate")
                for i, s in enumerate(agg_collect):
                    if s == spec:
                        return ("col", f"__pa{i}")
                agg_collect.append(spec)
                return ("col", f"__pa{len(agg_collect) - 1}")
            if low in _RESERVED or re.match(
                    r"^(?:case|when|then|else|end|and|or|not|null|"
                    r"between|in|is|select|distinct|filter|over|"
                    r"union)$", v, re.I):
                raise SqlError(f"unsupported expression token: {v!r}")
            return ("col", _unqual(v, aliases))
        if (k, v) == ("op", "("):
            e = expr()
            if take() != ("op", ")"):
                raise SqlError(f"unbalanced parens in: {text!r}")
            return e
        if (k, v) == ("op", "-"):
            return ("neg", atom())
        raise SqlError(f"unsupported expression: {text!r}")

    def term():
        node = atom()
        while peek() in (("op", "*"), ("op", "/")):
            op = take()[1]
            node = ("bin", op, node, atom())
        return node

    def expr():
        node = term()
        while peek() in (("op", "+"), ("op", "-")):
            op = take()[1]
            node = ("bin", op, node, term())
        return node

    node = expr()
    if pos[0] != len(toks):
        raise SqlError(f"trailing tokens in expression: {text!r}")
    return node


def _expr_cols(node, out: set):
    if node[0] == "col":
        out.add(node[1])
    elif node[0] == "neg":
        _expr_cols(node[1], out)
    elif node[0] == "bin":
        _expr_cols(node[2], out)
        _expr_cols(node[3], out)
    elif node[0] == "fn":
        _expr_cols(node[2], out)
    elif node[0] == "cast":
        _expr_cols(node[2], out)
    elif node[0] == "ufn":
        _expr_cols(node[2], out)
    elif node[0] == "nfn":
        for a in node[2]:
            _expr_cols(a, out)
    elif node[0] == "xtr":
        out.add(node[2])
    elif node[0] == "len":
        _strexpr_cols(node[1], out)
    elif node[0] == "casex":
        for tree, val in node[1]["whens"] + [(None, node[1]["else"])]:
            if tree is not None:
                _tree_cols(tree, out)
            if val[0] == "col":
                out.add(val[1])
            elif val[0] == "expr":
                _expr_cols(val[1], out)


def _expr_is_int(node) -> bool:
    """Static integer-typedness: int literals, cast-to-int, and + - *
    combinations thereof. Integer expressions materialize as int64
    derive columns so their SUMs stay exact past 2^53 (the cents-form
    TPC-H Q1 sums overflow float64's integer range)."""
    k = node[0]
    if k == "lit":
        return isinstance(node[1], int)
    if k == "col":
        return False
    if k == "neg":
        return _expr_is_int(node[1])
    if k == "cast":
        return node[1] == "int"
    if k == "fn":
        return False  # round() returns double, like DuckDB
    if k == "ufn":
        return node[1] == "abs" and _expr_is_int(node[2])
    if k == "nfn":
        return node[1] != "power" and all(
            _expr_is_int(a) for a in node[2])
    if k == "xtr":
        return True  # extract() is BIGINT in SQL
    if k == "len":
        return True  # length() is BIGINT in SQL
    if k == "casex":
        vals = [v for _t, v in node[1]["whens"]] + [node[1]["else"]]
        return all(
            (v[0] == "lit" and isinstance(v[1], int))
            or (v[0] == "expr" and _expr_is_int(v[1]))
            for v in vals)
    op = node[1]
    return op in "+-*" and _expr_is_int(node[2]) and _expr_is_int(node[3])


def _eval_postagg_int(b: pd.DataFrame, node):
    """Exact int64 evaluation of an ``_expr_is_int``-true post-aggregate
    tree. ``_eval_expr``'s 'col' case roundtrips through float64, which
    silently rounds integer aggregates past 2^53 while the final
    int-cast makes them LOOK exact; here integer aggregate columns are
    fetched as int64 directly. Returns None when any subtree needs the
    float path (NULLs present, non-int column, division, round, …) —
    the caller then falls back to the float evaluator unchanged."""
    k = node[0]
    if k == "lit":
        return np.int64(node[1]) if isinstance(node[1], int) else None
    if k == "col":
        v = b[node[1]]
        if pd.api.types.is_integer_dtype(v) and not v.isna().any():
            return v.to_numpy().astype("int64", copy=False)
        return None
    if k == "neg":
        v = _eval_postagg_int(b, node[1])
        return None if v is None else -v
    if k == "cast" and node[1] == "int":
        # CAST(<already-exact-int> AS BIGINT) is the identity; a
        # non-exact inner (avg, division) falls back to float+round
        return _eval_postagg_int(b, node[2])
    if k == "ufn" and node[1] == "abs":
        v = _eval_postagg_int(b, node[2])
        return None if v is None else np.abs(v)
    if len(node) == 4 and node[1] in "+-*":
        lv = _eval_postagg_int(b, node[2])
        rv = _eval_postagg_int(b, node[3])
        if lv is None or rv is None:
            return None
        return {"+": np.add, "-": np.subtract,
                "*": np.multiply}[node[1]](lv, rv)
    return None


def _round_away(y, n: int):
    """DuckDB's double rounding: std::round(x * 10^n) / 10^n — half
    away from zero, mirrored operation-for-operation so results are
    bit-identical."""
    p = 10.0 ** n
    y = y * p
    return np.copysign(np.floor(np.abs(y) + 0.5), y) / p


def _eval_expr(b: pd.DataFrame, node):
    """Vectorized expression evaluation over a pandas batch. NULL is
    NaN throughout (float64), so +-* propagate NULL like SQL; division
    by zero is NULL (DuckDB semantics)."""
    k = node[0]
    if k == "lit":
        return np.nan if node[1] is None else float(node[1])
    if k == "col":
        return pd.to_numeric(b[node[1]]).astype("float64").to_numpy()
    if k == "neg":
        return -_eval_expr(b, node[1])
    if k == "ufn":
        v = _eval_expr(b, node[2])
        fn = node[1]
        if fn == "abs":
            return np.abs(v)
        if fn == "floor":
            return np.floor(v)
        if fn == "ceil":
            return np.ceil(v)
        if fn == "exp":
            return np.exp(v)
        if fn == "sqrt":
            # DuckDB raises on a negative argument; a streaming stage
            # can't abort per-row, so out-of-domain yields NULL here
            with np.errstate(invalid="ignore"):
                return np.sqrt(v)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.log(v)
        return np.where(np.asarray(v) > 0, r, np.nan)
    if k == "nfn":
        fn = node[1]
        n = len(b)
        vs = [np.full(n, a, dtype="float64") if np.ndim(a) == 0
              else np.asarray(a, dtype="float64")
              for a in (_eval_expr(b, x) for x in node[2])]
        if fn == "power":
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.power(vs[0], vs[1])  # power(0,-1)=inf, DuckDB
        if fn == "nullif":
            return np.where(vs[0] == vs[1], np.nan, vs[0])
        if fn == "coalesce":
            res = vs[0].copy()
            for a in vs[1:]:
                m = np.isnan(res)
                res[m] = a[m]
            return res
        red = np.fmax if fn == "greatest" else np.fmin
        res = vs[0]  # fmax/fmin ignore NaN — DuckDB's NULL-skip rule
        for a in vs[1:]:
            res = red(res, a)
        return res
    if k == "len":
        s = _eval_str_pd(b, node[1])
        return s.str.len().astype("float64").to_numpy()
    if k == "xtr":
        s = pd.Series(b[node[2]])
        if not pd.api.types.is_datetime64_any_dtype(s):
            s = pd.to_datetime(s)
        part = node[1]
        if part == "dow":
            vals = (s.dt.dayofweek + 1) % 7  # SQL: Sunday = 0
        elif part == "doy":
            vals = s.dt.dayofyear
        elif part == "week":
            vals = s.dt.isocalendar().week
        else:
            vals = getattr(s.dt, part)
        return pd.Series(vals).astype("Float64").to_numpy(
            dtype="float64", na_value=np.nan)
    if k == "casex":  # CASE inside arithmetic: first-match np.select
        spec = node[1]

        def varr(v):
            if v[0] == "expr":
                return _eval_expr(b, v[1])
            if v[0] == "col":
                return pd.to_numeric(
                    b[v[1]]).astype("float64").to_numpy()
            return np.nan if v[1] is None else float(v[1])

        if len(b) == 0:
            return np.full(0, np.float64(np.nan))
        masks = [_pd_tri(b, tree) == 1.0 for tree, _v in spec["whens"]]
        return np.select(masks, [varr(v) for _t, v in spec["whens"]],
                         default=varr(spec["else"]))
    if k == "fn":  # round(x, n)
        return _round_away(_eval_expr(b, node[2]), node[3])
    if k == "cast":
        v = _eval_expr(b, node[2])
        if node[1] == "int":
            # DuckDB casts double→BIGINT by rounding half away from
            # zero (CAST(2.5 AS BIGINT) = 3); NULL stays NaN, so the
            # array remains float64 with exact integer values — the
            # derive stage downcasts statically-int expressions
            return _round_away(v, 0)
        return v
    _, op, lnode, rnode = node
    lv = _eval_expr(b, lnode)
    rv = _eval_expr(b, rnode)
    if op == "+":
        return lv + rv
    if op == "-":
        return lv - rv
    if op == "*":
        return lv * rv
    with np.errstate(divide="ignore", invalid="ignore"):
        res = lv / rv
    return np.where(np.asarray(rv) == 0.0, np.nan, res)


def _split_top(s: str, sep: str = ",") -> list[str]:
    out, depth, buf, in_q = [], 0, [], False
    for ch in s:
        if ch == "'":
            in_q = not in_q
        elif not in_q:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == sep and depth == 0:
                out.append("".join(buf).strip())
                buf = []
                continue
        buf.append(ch)
    out.append("".join(buf).strip())
    return [x for x in out if x]


def _ident_alias(seg: str, what: str) -> tuple[str, str]:
    toks = seg.strip().split(" ")
    if not (1 <= len(toks) <= 2) or not all(
            re.match(r"^[A-Za-z_]\w*$", t) for t in toks):
        raise SqlError(f"bad {what}: {seg!r}")
    table = toks[0]
    alias = (toks[1] if len(toks) == 2 else toks[0]).lower()
    if alias in _RESERVED or table.lower() in _RESERVED:
        raise SqlError(f"reserved word in {what}: {seg!r}")
    return table, alias


def _parse_from(text: str) -> tuple:
    """FROM clause: ``t1 [a1] (JOIN tk [ak] ON qual.c = qual.c
    [AND ...])*`` — a left-deep equi-join chain. Each ON equality links
    the NEW table to any previously introduced alias. Returns
    (base_table, alias set, join list); a derived table —
    ``( SELECT ... ) alias`` — returns ("\\x00subquery", subtext) as
    the base, restricted to aggregated/DISTINCT inner queries (their
    results are groups-sized; a raw inner projection would materialize
    the full input on the driver)."""
    text = text.strip()
    if text.startswith("("):
        depth, in_q, end = 0, False, None
        for i, ch in enumerate(text):
            if ch == "'":
                in_q = not in_q
            elif not in_q:
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                    if depth == 0:
                        end = i
                        break
        if end is None:
            raise SqlError(f"unbalanced parens in FROM: {text!r}")
        subtext = text[1:end].strip()
        rest = text[end + 1:].strip()
        am = re.match(r"^([A-Za-z_]\w*)(\s+.*)?$", rest, re.S)
        if not am or am.group(1).lower() in _RESERVED:
            raise SqlError(
                f"derived tables need an alias: {text!r}")
        _assert_result_sized(parse_sql(subtext), "derived tables")
        alias1 = am.group(1).lower()
        aliases = {alias1}
        joins: list = []
        tail = (am.group(2) or "").strip()
        if tail:
            raise SqlError(
                "JOINs on top of a derived table are out of scope "
                f"here: {tail!r}")
        return ("\x00subquery", subtext), aliases, joins
    parts = re.split(
        r"\s+(inner join|left outer join|left join|right outer join|"
        r"right join|full outer join|full join|cross join|join)\s+",
        text, flags=re.I)
    table, alias1 = _ident_alias(parts[0], "FROM table")
    aliases = {alias1}
    joins = []
    for kw, seg in zip(parts[1::2], parts[2::2]):
        if kw.lower() == "cross join":
            # CROSS JOIN t [alias]: no ON clause — every accumulated
            # row pairs with every right row (broadcast nested loop;
            # the executor bounds the right side)
            _t2, a2 = _ident_alias(seg.strip(), "CROSS JOIN table")
            if a2 in aliases:
                raise SqlError(f"duplicate join alias {a2!r}")
            aliases.add(a2)
            joins.append({"table": _t2, "how": "cross", "on": []})
            continue
        jm = re.match(
            r"^([A-Za-z_]\w*)(?: (?!on\b)([A-Za-z_]\w*))? on (.+)$",
            seg.strip(), re.I | re.S)
        if not jm:
            raise SqlError(f"unsupported join segment: {seg!r}")
        t2 = jm.group(1)
        _t2, a2 = _ident_alias(
            t2 + ((" " + jm.group(2)) if jm.group(2) else ""),
            "JOIN table")
        if a2 in aliases:
            raise SqlError(f"duplicate join alias {a2!r}")
        on_pairs = []
        for clause in _split_and(jm.group(3)):
            em = _ON_EQ_RE.match(clause.strip())
            if not em:
                raise SqlError(
                    f"unsupported ON clause (need alias.col = "
                    f"alias.col): {clause!r}")
            qa, ca, qb, cb = em.groups()
            qa, qb = qa.lower(), qb.lower()
            if qa == a2 and qb in aliases:
                on_pairs.append((cb, ca))
            elif qb == a2 and qa in aliases:
                on_pairs.append((ca, cb))
            else:
                raise SqlError(
                    f"ON must link the new table to an earlier one, "
                    f"got {clause!r}")
        aliases.add(a2)
        kwl = kw.lower()
        joins.append({
            "table": t2,
            "how": ("left_outer" if kwl.startswith("left")
                    else "right_outer" if kwl.startswith("right")
                    else "full_outer" if kwl.startswith("full")
                    else "inner"),
            "on": on_pairs,
        })
    return table, aliases, joins


_CLAUSE_ORDER = ("from", "where", "group by", "having", "qualify",
                 "order by", "limit")


def _split_clauses(s: str) -> dict:
    """Split a SELECT statement into its clauses at paren depth 0
    (quote-aware) — a regex can't do this once subqueries carry their
    own GROUP BY / HAVING / ORDER BY inside the parens."""
    m = re.match(r"^select\s+(distinct\s+)?", s, re.I)
    if not m:
        raise SqlError(f"unsupported SQL shape: {s!r}")
    out: dict = {"dist": bool(m.group(1))}
    marks: list = []
    low = s.lower()
    depth, in_q, i, n = 0, False, m.end(), len(s)
    while i < n:
        ch = s[i]
        if ch == "'":
            in_q = not in_q
        elif not in_q:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif depth == 0 and ch == " ":
                for kw in _CLAUSE_ORDER:
                    if low.startswith(" " + kw + " ", i):
                        marks.append((i, kw))
                        i += len(kw)
                        break
        i += 1
    if not marks or marks[0][1] != "from":
        raise SqlError(f"unsupported SQL shape (no FROM): {s!r}")
    kws = [k for _i, k in marks]
    canon = [k for k in _CLAUSE_ORDER if k in kws]
    if kws != canon or len(set(kws)) != len(kws):
        raise SqlError(f"clauses repeated or out of order: {s!r}")
    out["sel"] = s[m.end():marks[0][0]].strip()
    for j, (pos, kw) in enumerate(marks):
        end = marks[j + 1][0] if j + 1 < len(marks) else n
        out[kw] = s[pos + 1 + len(kw):end].strip()
    return out


def parse_sql(sql: str) -> dict:
    """The accepted grammar, or SqlError."""
    s = re.sub(r"\s+", " ", sql.strip().rstrip(";")).strip()
    _cl = _split_clauses(s)

    class m:  # keep the historical m.group(...) call sites readable
        @staticmethod
        def group(name):
            return {"dist": _cl["dist"] or None, "sel": _cl["sel"],
                    "frm": _cl.get("from"), "where": _cl.get("where"),
                    "grp": _cl.get("group by"),
                    "hav": _cl.get("having"),
                    "qual": _cl.get("qualify"),
                    "ord": _cl.get("order by"),
                    "lim": _cl.get("limit")}[name]

    if m.group("lim") is not None and not re.match(
            r"^\d+(?:\s+offset\s+\d+)?$", m.group("lim"), re.I):
        raise SqlError(f"bad LIMIT: {m.group('lim')!r}")
    table, aliases, joins = _parse_from(m.group("frm"))
    q = {"table": table, "select": [], "where": [],
         "group_by": [], "having": [], "order_by": [], "limit": None,
         "distinct": bool(m.group("dist")), "joins": joins,
         "qualify": None, "offset": 0, "group_mode": None}
    n_expr = 0
    pa_aggs: list = []  # shared across items → identical aggs dedup
    for item in _split_top(m.group("sel")):
        im = _ITEM_RE.match(item)
        expr = im.group("expr").strip()
        alias = im.group("alias")
        casem = re.match(r"^case\s+when\s+(?P<body>.+)\s+end$", expr,
                         re.I | re.S)
        if casem:
            if not alias:
                raise SqlError(
                    f"CASE select items need an AS alias: {item!r}")
            q["select"].append(
                {"agg": None, "col": alias, "distinct": False,
                 "alias": alias,
                 "case": _parse_case_body(expr, aliases)})
            continue
        sfn = _try_strfn(expr, aliases)
        if sfn is not None:
            # string-function select item: a vectorized string derive
            # column, legal as a GROUP BY key
            if not alias:
                raise SqlError(
                    f"string-function select items need an AS alias: "
                    f"{item!r}")
            q["select"].append(
                {"agg": None, "col": alias, "distinct": False,
                 "alias": alias, "strfn": sfn})
            continue
        tbm = re.match(
            r"^time_bucket\s*\(\s*interval\s+'(\d+)\s*"
            r"(second|seconds|minute|minutes|hour|hours|day|days)'"
            r"\s*,\s*(" + _QCOL + r")\s*\)$", expr, re.I)
        if tbm:
            # time_bucket(INTERVAL 'N unit', ts): arbitrary-width
            # tumbling bucket as a temporal derive column. Buckets are
            # aligned to DuckDB's default origin 2000-01-03 00:00:00
            # (a Monday), so any positive width — including multi-day
            # and non-day-dividing widths — matches DuckDB exactly.
            if not alias:
                raise SqlError(
                    f"time_bucket select items need an AS alias: "
                    f"{item!r}")
            n = int(tbm.group(1))
            unit = tbm.group(2).lower().rstrip("s")
            secs = n * {"second": 1, "minute": 60, "hour": 3600,
                        "day": 86400}[unit]
            if secs <= 0:
                raise SqlError(
                    f"time_bucket width must be positive: {item!r}")
            q["select"].append(
                {"agg": None, "col": alias, "distinct": False,
                 "alias": alias,
                 "datefn": (f"bucket_{secs}",
                            _unqual(tbm.group(3), aliases))})
            continue
        dtm = re.match(
            r"^date_trunc\s*\(\s*'(year|month|week|day|hour|minute)'"
            r"\s*,\s*(" + _QCOL + r")\s*\)$", expr, re.I)
        if dtm:
            # date_trunc('part', ts): a temporal derive column (the
            # numeric expression engine is float64-only), usable as a
            # GROUP BY key. 'week' truncates to Monday, like DuckDB.
            if not alias:
                raise SqlError(
                    f"date_trunc select items need an AS alias: {item!r}")
            q["select"].append(
                {"agg": None, "col": alias, "distinct": False,
                 "alias": alias,
                 "datefn": (dtm.group(1).lower(),
                            _unqual(dtm.group(2), aliases))})
            continue
        flt = None
        fm = re.match(r"^(?P<agg>.+?)\s+filter\s*\(\s*where\s+"
                      r"(?P<f>.+)\)$", expr, re.I)
        if fm:
            expr = fm.group("agg").strip()
            flt = _parse_bool(fm.group("f"), aliases)
            _assert_scalar_tree(flt, "FILTER")
        wm = _WIN_RE.match(expr)
        qm = None if wm else _QAGG_RE.match(expr)
        am = None if (wm or qm) else _AGG_RE.match(expr)
        if flt is not None and not am:
            raise SqlError(
                "FILTER (WHERE ...) is only supported on plain "
                "sum/count/avg/min/max aggregates")
        if qm:
            qfn = qm.group(1).lower()
            col = _unqual(qm.group(2), aliases)
            qv = qm.group(3)
            if qfn == "median":
                # median(x) IS quantile_cont(x, 0.5) — DuckDB's rule
                if qv is not None:
                    raise SqlError("median() takes a single column")
                qfn, qv = "quantile_cont", 0.5
            elif qv is None:
                raise SqlError(f"{qfn}() needs a quantile fraction")
            q["select"].append(
                {"agg": qfn, "col": col, "distinct": False,
                 "qv": float(qv),
                 "alias": alias or f"qd_{col}"})
            continue
        if wm:
            fn = wm.group("fn").lower()
            arg = wm.group("arg").strip()
            prec = wm.group("prec")
            if prec is not None and fn not in ("sum", "min", "max"):
                raise SqlError(
                    "ROWS BETWEEN frames are only supported on "
                    "sum/min/max windows")
            if fn in _WIN_NOARG:
                if arg:
                    raise SqlError(f"{fn}() takes no argument")
                kind, col = fn, None
            elif fn == "ntile":
                if not re.match(r"^\d+$", arg) or int(arg) < 1:
                    raise SqlError("ntile needs a positive integer")
                kind, col = "ntile", arg
            elif fn in ("lag", "lead"):
                # lag(col[, offset]) — SQL's offset argument, default 1
                lm = re.match(
                    r"^(" + _QCOL + r")(?:\s*,\s*(\d+))?$", arg)
                if not lm or (lm.group(2) and int(lm.group(2)) < 1):
                    raise SqlError(f"bad window argument: {arg!r}")
                col = _unqual(lm.group(1), aliases)
                off = int(lm.group(2)) if lm.group(2) else 1
                kind = fn if off == 1 else f"{fn}:{off}"
            else:
                if not re.match(r"^" + _QCOL + r"$", arg):
                    raise SqlError(f"bad window argument: {arg!r}")
                kind, col = _WIN_KINDS[fn], _unqual(arg, aliases)
            if prec is not None and prec.lower() != "unbounded":
                # bounded frame: ROWS BETWEEN k PRECEDING AND CURRENT
                # ROW → the rolling kinds (frame length k+1); an
                # UNBOUNDED frame IS the running default
                kind = f"rolling_{fn}:{int(prec) + 1}"
            if not alias:
                raise SqlError(
                    f"window select items need an AS alias: {item!r}")
            q["select"].append(
                {"agg": None, "col": None, "distinct": False,
                 "alias": alias,
                 "win": {"kind": kind, "col": col,
                         "part": _unqual(wm.group("part"), aliases),
                         "order": tuple(
                             _unqual(c.strip(), aliases)
                             for c in wm.group("ord").split(",")),
                         "asc": (wm.group("dir") or "asc").lower()
                         != "desc"}})
            continue
        if am:
            fn, dist, col = (am.group(1).lower(), bool(am.group(2)),
                             am.group(3))
            fn = _AGG_NORM.get(fn, fn)
            if col == "*" and fn != "count":
                raise SqlError(f"{fn}(*) is not a thing")
            if dist and fn != "count":
                raise SqlError("DISTINCT is only supported inside count()")
            if col != "*":
                col = _unqual(col, aliases)
            if flt is not None and dist:
                raise SqlError(
                    "FILTER on count(DISTINCT ...) is out of scope")
            if flt is not None and fn in _VAR_AGGS:
                raise SqlError(
                    "FILTER on stddev/variance aggregates is out of "
                    "scope")
            q["select"].append(
                {"agg": fn, "col": None if col == "*" else col,
                 "distinct": dist, "filter": flt,
                 "alias": alias or f"{fn}_{'star' if col == '*' else col}"})
            continue
        sgm = _SAGG_RE.match(expr)
        if sgm:
            # string_agg([DISTINCT] col, 'sep' ORDER BY col [DESC]):
            # the ORDER BY must be the aggregated column itself — the
            # only layout-invariant element order without a secondary
            # sort key riding the shuffle
            col = _unqual(sgm.group(2), aliases)
            ocol = _unqual(sgm.group(4), aliases)
            if ocol != col:
                raise SqlError(
                    "string_agg ORDER BY must be the aggregated "
                    "column itself (layout-invariant element order)")
            sep = sgm.group(3)[1:-1].replace("''", "'")
            q["select"].append(
                {"agg": "string_agg", "col": col,
                 "distinct": bool(sgm.group(1)), "filter": None,
                 "sasep": sep,
                 "saasc": (sgm.group(5) or "asc").lower() != "desc",
                 "alias": alias or f"string_agg_{col}"})
            continue
        agm = _ARGM_RE.match(expr)
        if agm:
            # arg_max(v, by) / max_by(v, by): v at the group's maximum
            # by, over rows where BOTH are non-null. Ties on by break
            # to MAX v (deterministic, layout-invariant — DuckDB's
            # native tie pick is arrival-order, so the oracle replays
            # this rule explicitly instead)
            fn = agm.group(1).lower()
            fn = {"max_by": "arg_max", "min_by": "arg_min"}.get(fn, fn)
            v = _unqual(agm.group(2), aliases)
            by = _unqual(agm.group(3), aliases)
            q["select"].append(
                {"agg": fn, "col": None, "amspec": (v, by),
                 "distinct": False, "filter": None,
                 "alias": alias or f"{fn}_{v}_{by}"})
            continue
        adm = re.match(
            r"^approx_count_distinct\s*\(\s*(" + _QCOL + r")\s*\)$",
            expr, re.I)
        if adm:
            # HLL sketch: register rows ride the (tiny) merge, never
            # the raw values — the approximate companion to exact
            # count(DISTINCT). DuckDB's HLL differs, so this construct
            # is bounded-error-tested rather than hash-oracled.
            q["select"].append(
                {"agg": "approx_distinct",
                 "col": _unqual(adm.group(1), aliases),
                 "distinct": False, "filter": None,
                 "alias": alias or f"approx_{adm.group(1)}"})
            continue
        cvm = _COV_RE.match(expr)
        if cvm:
            # corr(y, x) / covar_* / regr_*: two plain column args,
            # rows where EITHER side is NULL are excluded (SQL
            # pairwise semantics)
            fn = cvm.group(1).lower()
            y = _unqual(cvm.group(2), aliases)
            x = _unqual(cvm.group(3), aliases)
            q["select"].append(
                {"agg": fn, "col": None, "pair": (y, x),
                 "distinct": False, "filter": None,
                 "alias": alias or f"{fn}_{y}_{x}"})
            continue
        # aggregate over an arithmetic expression — sum(a * (1 - b)):
        # the expression materializes as a hidden derived column the
        # plain combiner then aggregates
        em = re.match(
            r"^(sum|count|avg|min|max|stddev_samp|stddev_pop|stddev"
            r"|var_samp|var_pop|variance)\s*\((.+)\)$", expr,
            re.I | re.S)
        if em and not re.match(r"^\s*distinct\b", em.group(2), re.I):
            # try the body as pure arithmetic; on failure fall through
            # (e.g. "sum(v) / count(v)" greedily matches here but is a
            # post-aggregate expression)
            try:
                ast = _parse_arith(em.group(2), aliases)
            except SqlError:
                ast = None
            if ast is not None:
                if not alias:
                    raise SqlError(
                        f"expression aggregates need an AS alias: "
                        f"{item!r}")
                if flt is not None:
                    raise SqlError(
                        "FILTER on expression aggregates is out of "
                        "scope")
                hid = f"__x{n_expr}"
                n_expr += 1
                _efn = em.group(1).lower()
                q["select"].append(
                    {"agg": _AGG_NORM.get(_efn, _efn), "col": hid,
                     "distinct": False, "filter": None, "alias": alias,
                     "expr": ast})
                continue
        if re.match(r"^" + _QCOL + r"$", expr):
            col = _unqual(expr, aliases)
            q["select"].append({"agg": None, "col": col,
                                "distinct": False,
                                "alias": alias or col})
            continue
        # derived arithmetic select item — a * 2 - b AS d: computed by
        # the same vectorized derive stage as CASE, usable as a GROUP
        # BY key. With aggregate leaves — round(sum(x) / count(*), 2)
        # — it becomes a POST-aggregate expression evaluated on the
        # groups-sized result, its aggregates materialized as hidden
        # select items.
        try:
            ast = _parse_arith(expr, aliases, agg_collect=pa_aggs)
        except SqlError:
            raise SqlError(f"unsupported select item: {item!r}")
        if not alias:
            raise SqlError(
                f"expression select items need an AS alias: {item!r}")
        pa_names = {f"__pa{i}" for i in range(len(pa_aggs))}
        used: set = set()
        _expr_cols(ast, used)
        if used & pa_names:
            if used - pa_names:
                raise SqlError(
                    "post-aggregate expressions may only combine "
                    f"aggregates and literals: {item!r}")
            q["select"].append({"agg": None, "col": None,
                                "distinct": False, "alias": alias,
                                "postagg": ast})
        else:
            q["select"].append({"agg": None, "col": alias,
                                "distinct": False, "alias": alias,
                                "expr": ast})
    if m.group("where"):
        tree = _parse_bool(m.group("where"), aliases)
        factors = tree[1] if tree[0] == "and" else [tree]
        preds = []
        for f in factors:
            if f[0] != "pred":
                # an OR / NOT subtree: compiles into the same pyarrow
                # filter with Kleene three-valued logic; subqueries
                # can't hide inside it
                _assert_scalar_tree(f, "OR/NOT")
                preds.append(("bool", None, f))
                continue
            kind, col, payload = f[1]
            if kind == "cmp_subq":
                op, subtext = payload
                sub = parse_sql(subtext)
                if (len(sub["select"]) != 1
                        or not sub["select"][0]["agg"]
                        or sub["group_by"] or sub["order_by"]
                        or sub["limit"] is not None):
                    raise SqlError(
                        "scalar subqueries must be a single global "
                        "aggregate (guaranteed one row)")
                preds.append((kind, col, (op, subtext)))
                continue
            if kind in ("exists_subq", "not_exists_subq"):
                deco = _decorrelate_exists(payload, aliases)
                if deco is not None:
                    # correlated on one equality: decorrelate to a
                    # key-set semi/anti join (the TPC-H Q4/Q22 shape).
                    # EXISTS keeps matches (NULL probes drop — UNKNOWN
                    # is not TRUE); NOT EXISTS keeps non-matches
                    # INCLUDING NULL probes, with NO NOT-IN-style
                    # poisoning (inner NULL keys simply never match)
                    ocol, inner_sql = deco
                    sub = parse_sql(inner_sql)
                    if any(k in _SUBQ_KINDS
                           for k, _c, _p in sub["where"]
                           if k != "bool"):
                        raise SqlError(
                            "nested subqueries inside EXISTS are not "
                            "supported")
                    preds.append((
                        "exists_semi" if kind == "exists_subq"
                        else "exists_anti",
                        _unqual(ocol, aliases), (inner_sql, sub)))
                    continue
                sub = parse_sql(payload)  # validates inner syntax
                if sub["limit"] is None and not any(
                        it["agg"] for it in sub["select"]):
                    # evaluation only probes emptiness — cap the
                    # inner's materialization at one row
                    payload = payload + " LIMIT 1"
                preds.append((kind, None, payload))
                continue
            if kind in ("in_subq", "not_in_subq"):
                sub = parse_sql(payload)
                hidden = set(sub["hidden"])
                visible = [it for it in sub["select"]
                           if it["alias"] not in hidden]
                if (len(visible) != 1 or visible[0].get("win")
                        or visible[0]["agg"] or visible[0].get("postagg")
                        or sub["joins"] or sub["order_by"]
                        or sub["limit"] is not None):
                    raise SqlError(
                        "IN subqueries must be a single-column "
                        "projection (optional WHERE / GROUP BY / "
                        "HAVING)")
                if any(k in ("in_subq", "not_in_subq")
                       for k, _c, _p in sub["where"] if k != "bool"):
                    raise SqlError("nested IN subqueries not supported")
                payload = (payload, sub)
            preds.append((kind, col, payload))
        q["where"] = preds
    q["hidden"] = []
    for i, (fn, inner) in enumerate(pa_aggs):
        # materialize each post-aggregate leaf as a hidden select item
        # the ordinary combiner computes; the outer expression then
        # evaluates on the groups-sized result frame
        hid = f"__pa{i}"
        if inner is None:
            q["select"].append(
                {"agg": "count", "col": None, "distinct": False,
                 "filter": None, "alias": hid})
        elif inner[0] == "col":
            q["select"].append(
                {"agg": fn, "col": inner[1], "distinct": False,
                 "filter": None, "alias": hid})
        else:
            hidx = f"__x{n_expr}"
            n_expr += 1
            q["select"].append(
                {"agg": fn, "col": hidx, "distinct": False,
                 "filter": None, "alias": hid, "expr": inner})
        q["hidden"].append(hid)
    if m.group("hav"):
        if not m.group("grp"):
            raise SqlError("HAVING requires GROUP BY here")
        for clause in _split_and(m.group("hav")):
            hm = re.match(r"^(.+?)\s*(<=|>=|<>|!=|=|<|>)\s*(.+)$",
                          clause.strip())
            if not hm:
                raise SqlError(f"unsupported HAVING clause: {clause!r}")
            lhs = hm.group(1).strip()
            ham = _AGG_RE.match(lhs)
            if ham:
                # HAVING on a raw aggregate: materialize it as a hidden
                # select item and filter on that alias
                fn, dist, c = (_AGG_NORM.get(ham.group(1).lower(),
                                             ham.group(1).lower()),
                               bool(ham.group(2)), ham.group(3))
                if c == "*" and fn != "count":
                    raise SqlError(f"{fn}(*) is not a thing")
                if dist and fn != "count":
                    raise SqlError(
                        "DISTINCT is only supported inside count()")
                if c != "*":
                    c = _unqual(c, aliases)
                hid = f"__hv{len(q['hidden'])}"
                q["select"].append(
                    {"agg": fn, "col": None if c == "*" else c,
                     "distinct": dist, "filter": None, "alias": hid})
                q["hidden"].append(hid)
                q["having"].append((hid, hm.group(2),
                                    _literal(hm.group(3))))
            else:
                if not re.match(r"^[A-Za-z_]\w*$", lhs):
                    raise SqlError(
                        f"unsupported HAVING clause: {clause!r}")
                q["having"].append((lhs, hm.group(2),
                                    _literal(hm.group(3))))
    if m.group("grp"):
        gtext = m.group("grp").strip()
        gsm = re.match(r"^grouping\s+sets\s*\((.+)\)$", gtext, re.I)
        if gsm:
            # GROUP BY GROUPING SETS ((a, b), (a), ()): the finest
            # level (union of all sets) aggregates once; each requested
            # set recomposes from those partials, like ROLLUP/CUBE
            sets, union = [], []
            for part in _split_top(gsm.group(1)):
                part = part.strip()
                if not (part.startswith("(") and part.endswith(")")):
                    raise SqlError(
                        f"GROUPING SETS needs parenthesized column "
                        f"lists, got {part!r}")
                inner = part[1:-1].strip()
                cols = ([c.strip() for c in _split_top(inner)]
                        if inner else [])
                for c in cols:
                    if not re.match(r"^" + _QCOL + r"$", c):
                        raise SqlError(f"bad grouping-set column: {c!r}")
                cols = [_unqual(c, aliases) for c in cols]
                sets.append(cols)
                for c in cols:
                    if c not in union:
                        union.append(c)
            if not sets:
                raise SqlError("GROUPING SETS needs at least one set")
            q["group_mode"] = ("sets", sets)
            q["group_by"] = union
        else:
            rm = re.match(r"^(rollup|cube)\s*\((.+)\)$", gtext, re.I)
            if rm:
                q["group_mode"] = rm.group(1).lower()
                gtext = rm.group(2)
            def _ordinal_key(n: int, for_order: bool) -> str:
                # SQL positional ordinals: GROUP BY 1 groups by the
                # first select item's EXPRESSION, ORDER BY 1 sorts by
                # its OUTPUT column
                if not (1 <= n <= len(q["select"])):
                    raise SqlError(
                        f"ordinal {n} out of range "
                        f"(1..{len(q['select'])})")
                it = q["select"][n - 1]
                if it["agg"] or it.get("postagg"):
                    if for_order:
                        return it["alias"]
                    raise SqlError(
                        f"GROUP BY ordinal {n} points at an aggregate")
                if it.get("win"):
                    raise SqlError(
                        f"ordinal {n} points at a window function")
                return it["alias"] if for_order else (it["col"]
                                                      or it["alias"])

            grp_cols = [c.strip() for c in _split_top(gtext)]
            keys_out = []
            for c in grp_cols:
                if re.match(r"^\d+$", c):
                    keys_out.append(_ordinal_key(int(c), False))
                elif re.match(r"^" + _QCOL + r"$", c):
                    keys_out.append(_unqual(c, aliases))
                else:
                    raise SqlError(f"bad group-by column: {c!r}")
            q["group_by"] = keys_out
    if m.group("ord"):
        for part in _split_top(m.group("ord")):
            toks = part.split()
            if len(toks) > 2 or (len(toks) == 2
                                 and toks[1].lower() not in ("asc", "desc")):
                raise SqlError(f"bad order-by: {part!r}")
            key = toks[0]
            if re.match(r"^\d+$", key):
                n = int(key)
                if not (1 <= n <= len(q["select"])):
                    raise SqlError(
                        f"ORDER BY ordinal {n} out of range")
                key = q["select"][n - 1]["alias"]
            q["order_by"].append(
                (key, len(toks) == 1 or toks[1].lower() == "asc"))
    if m.group("lim"):
        lm2 = re.match(r"^(\d+)(?:\s+offset\s+(\d+))?$",
                       m.group("lim"), re.I)
        q["limit"] = int(lm2.group(1))
        q["offset"] = int(lm2.group(2) or 0)
    has_agg = any(it["agg"] for it in q["select"])
    has_win = any(it.get("win") for it in q["select"])
    if has_win and (q["group_by"] or q["distinct"] or has_agg):
        raise SqlError(
            "window functions don't mix with GROUP BY / DISTINCT / "
            "aggregates here")
    if q["group_by"]:
        for it in q["select"]:
            if (it["agg"] is None and not it.get("postagg")
                    and it["col"] not in q["group_by"]):
                raise SqlError(
                    f"{it['col']} is neither grouped nor aggregated")
    elif has_agg and any(it["agg"] is None and not it.get("postagg")
                         for it in q["select"]):
        raise SqlError("mixing aggregates and raw columns without GROUP BY")
    if q["group_mode"]:
        if not q["group_by"]:
            raise SqlError("ROLLUP/CUBE need group columns")
        for it in q["select"]:
            if (it["agg"] in _Q_AGGS or it["agg"] in _ARG_AGGS
                    or it["agg"] in ("string_agg", "approx_distinct")
                    or (it["agg"] == "count" and it.get("distinct"))):
                raise SqlError(
                    "ROLLUP/CUBE work with sum/count/avg/min/max "
                    "(partials recompose); exact distinct counts, "
                    "quantiles, string_agg and arg_max/arg_min don't "
                    "merge across levels here")
    if m.group("qual"):
        if not has_win:
            raise SqlError("QUALIFY requires window functions")
        tree = _parse_bool(m.group("qual"), aliases)
        _assert_scalar_tree(tree, "QUALIFY")
        ok_cols = {it["alias"] for it in q["select"]
                   if it.get("win")
                   or (it["agg"] is None and it["col"] == it["alias"])}
        qcols: set = set()
        _tree_cols(tree, qcols)
        if not qcols <= ok_cols:
            raise SqlError(
                "QUALIFY may reference window aliases and selected "
                f"columns only, got {sorted(qcols - ok_cols)}")
        q["qualify"] = tree
    out_names = {it["alias"] for it in q["select"]}
    for col, _asc in q["order_by"]:
        if col not in out_names:
            raise SqlError(f"ORDER BY {col!r} is not a result column")
    for col, _op, _lit in q["having"]:
        if col not in out_names:
            raise SqlError(f"HAVING {col!r} is not a result alias")
    if q["distinct"] and has_agg:
        raise SqlError("SELECT DISTINCT with aggregates is redundant here")
    return q


def _scal(c, v):
    # SQL compares temporal columns with string literals by casting
    # the literal ('2024-01-05' → timestamp); mirror that, else the
    # Arrow kernel rejects the type pair
    if isinstance(v, str) and pa.types.is_temporal(c.type):
        return pc.cast(pa.scalar(v), c.type)
    return pa.scalar(v)


def _arrow_leaf(t: pa.Table, kind, col, payload):
    """One predicate as a NULLABLE boolean mask — NULL means SQL's
    UNKNOWN; the top of the tree decides (fill_null(False))."""
    c = (_eval_str_arrow(t, col) if isinstance(col, tuple)
         else t.column(col))
    if pa.types.is_null(c.type):
        # an all-NULL column decays to Arrow's null type, which the
        # comparison kernels reject; every comparison is UNKNOWN, so
        # the mask is all-NULL (NOT UNKNOWN must stay UNKNOWN)
        if kind == "isnull":
            return pc.is_null(c)
        if kind == "notnull":
            return pc.is_valid(c)
        return c.cast(pa.bool_())
    if kind == "cmp2":
        r = (_eval_str_arrow(t, payload[1])
             if isinstance(payload[1], tuple) else t.column(payload[1]))
        return _OPS[payload[0]](c, r)
    if kind in _OPS:
        return _OPS[kind](c, _scal(c, payload))
    if kind == "between":
        return pc.and_kleene(
            pc.greater_equal(c, _scal(c, payload[0])),
            pc.less_equal(c, _scal(c, payload[1])))
    if kind == "in":
        return pc.if_else(pc.is_valid(c),
                          pc.is_in(c, value_set=pa.array(payload)),
                          pa.scalar(None, pa.bool_()))
    if kind == "not_in":
        # SQL: NOT IN over literal lists (no NULL items parse) — a
        # NULL probe is still UNKNOWN
        return pc.if_else(
            pc.is_valid(c),
            pc.invert(pc.is_in(c, value_set=pa.array(payload))),
            pa.scalar(None, pa.bool_()))
    if kind in ("like", "not_like"):
        # DuckDB's default LIKE has NO escape character (backslash is a
        # literal), while pyarrow's match_like treats backslash as an
        # escape — double them so the semantics line up; NULL inputs
        # stay NULL (Kleene)
        pat = payload.replace("\\", "\\\\")
        m = pc.match_like(c, pat)
        return pc.invert(m) if kind == "not_like" else m
    if kind == "isnull":
        return pc.is_null(c)
    return pc.is_valid(c)


def _arrow_tree(t: pa.Table, node):
    """A predicate tree as a nullable mask with Kleene logic (exactly
    SQL's three-valued AND/OR/NOT)."""
    k = node[0]
    if k == "pred":
        return _arrow_leaf(t, *node[1])
    if k == "not":
        return pc.invert(_arrow_tree(t, node[1]))
    comb = pc.and_kleene if k == "and" else pc.or_kleene
    mask = _arrow_tree(t, node[1][0])
    for ch in node[1][1:]:
        mask = comb(mask, _arrow_tree(t, ch))
    return mask


def _compile_pred(conds):
    """Top-level WHERE conjunction (scalar predicates and OR/NOT
    subtrees) → one zero-copy pyarrow mask fn. UNKNOWN → excluded."""
    def pred(t: pa.Table, conds=list(conds)):
        mask = None
        for kind, col, payload in conds:
            if kind == "bool":
                m = _arrow_tree(t, payload)
            else:
                m = _arrow_leaf(t, kind, col, payload)
            mask = m if mask is None else pc.and_kleene(mask, m)
        return pc.fill_null(mask, False)

    return pred


_SETOPS = ("union all ", "intersect ", "except ", "union ")


def _split_union(text: str) -> tuple[list[str], str]:
    """Split on a top-level set operator chain — UNION [ALL] /
    INTERSECT / EXCEPT; returns (sides, op). Mixing different set
    operators in one statement is out of scope (SQL gives INTERSECT
    higher precedence; one homogeneous chain keeps it unambiguous)."""
    out, depth, in_q, start, i, n = [], 0, False, 0, 0, len(text)
    kinds: set = set()
    low = text.lower()
    while i < n:
        ch = text[i]
        if ch == "'":
            in_q = not in_q
        elif not in_q:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif depth == 0 and ch == " ":
                for kw in _SETOPS:
                    if low.startswith(" " + kw, i):
                        out.append(text[start:i])
                        kinds.add(kw.strip())
                        i += len(kw)
                        start = i + 1
                        break
        i += 1
    out.append(text[start:])
    if len(kinds) > 1:
        raise SqlError(
            "mixed set operators in one statement are out of scope")
    return ([s.strip() for s in out],
            kinds.pop() if kinds else "")


def _strip_tail(text: str) -> tuple[str, list, int | None]:
    """Pull a trailing ORDER BY / LIMIT off a query string (they belong
    to the whole UNION, exactly as SQL attaches them)."""
    limit = None
    lm = re.search(r"\s+limit\s+(\d+)\s*$", text, re.I)
    if lm:
        limit = int(lm.group(1))
        text = text[:lm.start()]
    order = []
    om = re.search(r"\s+order\s+by\s+([^()]+?)\s*$", text, re.I)
    if om:
        for part in _split_top(om.group(1)):
            toks = part.split()
            if len(toks) > 2 or (len(toks) == 2
                                 and toks[1].lower() not in ("asc",
                                                             "desc")):
                raise SqlError(f"bad union ORDER BY: {part!r}")
            order.append((toks[0],
                          len(toks) == 1 or toks[1].lower() == "asc"))
        text = text[:om.start()]
    return text, order, limit


_PYOPS = None


def _pyops():
    global _PYOPS
    if _PYOPS is None:
        import operator as _op

        _PYOPS = {"=": _op.eq, "<>": _op.ne, "!=": _op.ne,
                  "<": _op.lt, "<=": _op.le, ">": _op.gt, ">=": _op.ge}
    return _PYOPS


def _pd_lit(c: pd.Series, v):
    """Temporal literal cast for pandas comparisons (mirrors _scal)."""
    if isinstance(v, str) and pd.api.types.is_datetime64_any_dtype(c):
        return pd.Timestamp(v)
    return v


def _pd_tri(b: pd.DataFrame, node) -> np.ndarray:
    """A predicate tree as a float array — 1.0 TRUE, 0.0 FALSE, NaN
    UNKNOWN — Kleene three-valued logic in numpy, used inside pandas
    combiner batches (FILTER clauses) and the CASE derive stage."""
    k = node[0]
    if k == "not":
        return 1.0 - _pd_tri(b, node[1])  # NaN stays NaN
    if k in ("and", "or"):
        acc = _pd_tri(b, node[1][0])
        for ch in node[1][1:]:
            p = _pd_tri(b, ch)
            if k == "and":
                acc = np.select(
                    [(acc == 0.0) | (p == 0.0), (acc == 1.0) & (p == 1.0)],
                    [0.0, 1.0], default=np.nan)
            else:
                acc = np.select(
                    [(acc == 1.0) | (p == 1.0), (acc == 0.0) & (p == 0.0)],
                    [1.0, 0.0], default=np.nan)
        return acc
    kind, col, payload = node[1]
    c = _eval_str_pd(b, col) if isinstance(col, tuple) else b[col]
    nn = c.notna()
    nn_np = nn.to_numpy()
    if kind == "isnull":
        return (~nn_np).astype("float64")
    if kind == "notnull":
        return nn_np.astype("float64")
    if kind == "cmp2":
        c2 = (_eval_str_pd(b, payload[1])
              if isinstance(payload[1], tuple) else b[payload[1]])
        nn2 = (nn & c2.notna()).to_numpy()
        out = np.full(len(b), np.nan)
        out[nn2] = _pyops()[payload[0]](
            c[nn2], c2[nn2]).to_numpy().astype("float64")
        return out
    out = np.full(len(b), np.nan)
    pyops = _pyops()
    if kind in pyops:
        vals = pyops[kind](c[nn], _pd_lit(c, payload))
    elif kind == "between":
        vals = ((c[nn] >= _pd_lit(c, payload[0]))
                & (c[nn] <= _pd_lit(c, payload[1])))
    elif kind == "in":
        vals = c[nn].isin(payload)
    elif kind == "not_in":
        vals = ~c[nn].isin(payload)
    elif kind in ("like", "not_like"):
        rx = "".join(".*" if ch == "%" else "." if ch == "_"
                     else re.escape(ch) for ch in payload)
        # DOTALL: SQL's % and _ match newlines too
        vals = c[nn].astype(str).str.fullmatch(rx, flags=re.DOTALL)
        if kind == "not_like":
            vals = ~vals
    else:
        raise SqlError(f"unsupported predicate kind {kind!r} here")
    out[nn_np] = vals.to_numpy().astype("float64")
    return out


def _pd_mask(b: pd.DataFrame, tree) -> pd.Series:
    """The predicate tree as a pandas boolean mask with SQL NULL
    semantics (UNKNOWN → False at the top, Kleene inside)."""
    return pd.Series(_pd_tri(b, tree) == 1.0, index=b.index)


def _assert_result_sized(sub: dict, what: str):
    if not (sub["group_by"] or sub["distinct"]
            or any(it["agg"] or it.get("postagg")
                   for it in sub["select"])):
        raise SqlError(
            f"{what} must be aggregated or DISTINCT (result-sized); "
            "a raw projection would materialize the full input")


def _split_with(s: str):
    """Split a leading ``WITH name AS ( query ) [, ...]`` prefix off a
    statement (quote/paren-aware). Returns ([(name, subtext), ...],
    remainder)."""
    m = re.match(r"^with\s+", s, re.I)
    if not m:
        return [], s
    i = m.end()
    ctes = []
    while True:
        nm = re.match(r"([A-Za-z_]\w*)\s+as\s*\(", s[i:], re.I)
        if not nm:
            raise SqlError(f"bad CTE declaration at: {s[i:i + 40]!r}")
        name = nm.group(1).lower()
        if name in _RESERVED:
            raise SqlError(f"reserved CTE name {name!r}")
        j = i + nm.end() - 1  # the opening paren
        depth, in_q, end = 0, False, None
        for k in range(j, len(s)):
            ch = s[k]
            if ch == "'":
                in_q = not in_q
            elif not in_q:
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                    if depth == 0:
                        end = k
                        break
        if end is None:
            raise SqlError(f"unbalanced parens in CTE {name!r}")
        ctes.append((name, s[j + 1:end].strip()))
        i = end + 1
        while i < len(s) and s[i] == " ":
            i += 1
        if i < len(s) and s[i] == ",":
            i += 1
            while i < len(s) and s[i] == " ":
                i += 1
            continue
        return ctes, s[i:].strip()


def _pushdown_split(q: dict, tables: dict):
    """Predicate pushdown for join queries: WHERE conjuncts whose
    columns all live in ONE table move below the joins — onto the base
    table, or onto an INNER join's right side (a LEFT join's right
    side must filter AFTER the join, or preserved rows change).
    Returns ({slot: [factor, ...]}, post_join_factors) with slot
    "base" or the join index. Subquery factors never push.

    A RIGHT/FULL OUTER join anywhere in the chain disables pushdown
    entirely: rows filtered out of ANY input upstream of such a join
    don't vanish — they resurface NULL-padded on the preserved side,
    and the consumed conjunct can no longer reject them."""
    if any(j["how"] in ("right_outer", "full_outer")
           for j in q["joins"]):
        return {}, list(q["where"])
    pushed: dict = {}
    post: list = []
    slot_of: dict = {}
    base = tables.get(q["table"])
    bsch = base.schema() if base is not None else None
    for c in (bsch.names if bsch else []):
        slot_of[c] = "base"
    for ji, j in enumerate(q["joins"]):
        t = tables.get(j["table"])
        sch = t.schema() if t is not None else None
        for c in (sch.names if sch else []):
            slot_of.setdefault(c, ji)
    for f in q["where"]:
        kind, col, payload = f
        if kind in _SUBQ_KINDS:
            post.append(f)
            continue
        cols: set = set()
        if kind == "bool":
            _tree_cols(payload, cols)
        else:
            _pred_cols(f, cols)
        slots = {slot_of.get(c) for c in cols}
        if len(slots) == 1 and None not in slots:
            slot = next(iter(slots))
            if slot == "base" or q["joins"][slot]["how"] in ("inner",
                                                             "cross"):
                pushed.setdefault(slot, []).append(f)
                continue
        post.append(f)
    return pushed, post


class NotStreamable(SqlError):
    """Raised (internally) when ``plan_sql_dataset`` is asked for a
    statement whose result cannot stay a lazy Dataset — aggregates,
    ORDER BY / LIMIT, set operations, derived-table bases."""


def _expand_star(stmt: str, tables: dict) -> str:
    """Rewrite a topmost ``SELECT [DISTINCT] * FROM t ...`` into the
    explicit column list from ``t``'s schema, then let the normal
    grammar take over. Statement-level only — this is where the table
    registry (and therefore the schema) is in scope, which is why the
    parser itself never sees ``*``. Single-table only: a join's output
    column set depends on key coalescing in preserved-right joins, so
    ``*`` over a join stays out of scope (name the columns)."""
    m = re.match(r"^select\s+(distinct\s+)?\*\s+from\s", stmt, re.I)
    if not m:
        return stmt
    cl = _split_clauses(stmt)
    table, _aliases, joins = _parse_from(cl["from"])
    if joins or isinstance(table, tuple):
        raise SqlError(
            "SELECT * is single-table only (join/derived-table column "
            "sets depend on key coalescing — name the columns)")
    if table not in tables:
        raise SqlError(f"unknown table {table!r}")
    sch = tables[table].schema()
    if sch is None:
        raise SqlError(
            f"SELECT * over schema-less (provably empty) {table!r}")
    head = "select " + ("distinct " if cl["dist"] else "")
    out = head + ", ".join(sch.names)
    for kw in _CLAUSE_ORDER:
        if cl.get(kw) is not None:
            out += f" {kw} {cl[kw]}"
    return out


def run_sql(sql: str, tables: dict,
            broadcast_rows: int = 300_000,
            _as_dataset: bool = False) -> pd.DataFrame:
    """Execute the mini-SQL subset on Ray Data operators.

    ``broadcast_rows``: a join side whose RAW row count (metadata-cheap
    for parquet reads and in-memory tables) is at or under this bound
    is materialized once and broadcast through the object store instead
    of hash-shuffling both sides — the dimension-table plan. Pass 0 to
    force shuffle joins everywhere."""
    from recon_ray.functions.relational import arrow_filter

    _stmt = re.sub(r"\s+", " ", sql.strip().rstrip(";")).strip()
    pvm = re.match(
        r"^pivot\s+([A-Za-z_]\w*)\s+on\s+([A-Za-z_]\w*)\s+using\s+"
        r"(sum|count|min|max|avg)\s*\(\s*([A-Za-z_]\w*)\s*\)\s+"
        r"group\s+by\s+([A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*)"
        r"(?:\s+order\s+by\s+([A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*))?"
        r"\s*$", _stmt, re.I)
    if pvm:
        # PIVOT t ON p USING agg(v) GROUP BY keys — DuckDB's statement
        # form, compiled to pivot_agg: per-batch combiners on
        # (keys, p), ONE key shuffle, reshape over the output-sized
        # table. Missing cells are NULL (0 for count), pivoted column
        # names are the category values — DuckDB's rules.
        from recon_ray.functions.relational import pivot_agg

        tbl = pvm.group(1)
        if tbl not in tables:
            raise SqlError(f"unknown table {tbl!r}")
        agg = pvm.group(3).lower()
        keys = [c.strip() for c in pvm.group(5).split(",")]
        out = pivot_agg(
            tables[tbl], keys, pvm.group(2),
            value_col=pvm.group(4),
            agg={"avg": "mean"}.get(agg, agg),
            fill=0 if agg == "count" else np.nan)
        out.columns = [c if c in keys else str(c)
                       for c in out.columns]
        if pvm.group(6):
            oc = [c.strip() for c in pvm.group(6).split(",")]
            out = out.sort_values(oc, kind="mergesort")
        return out.reset_index(drop=True)
    dm_ = re.match(r"^describe\s+([A-Za-z_]\w*)\s*$", _stmt, re.I)
    if dm_:
        # DESCRIBE t → (column_name, column_type) from metadata only;
        # nothing streams. Useful mid-script to inspect a CTAS result.
        tbl = dm_.group(1)
        if tbl not in tables:
            raise SqlError(f"unknown table {tbl!r}")
        sch = tables[tbl].schema()
        if sch is None:
            return pd.DataFrame({"column_name": [], "column_type": []})
        return pd.DataFrame({
            "column_name": list(sch.names),
            "column_type": [str(t) for t in sch.types]})
    upm = re.match(
        r"^unpivot\s+([A-Za-z_]\w*)\s+on\s+"
        r"([A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*)\s+into\s+name\s+"
        r"([A-Za-z_]\w*)\s+value\s+([A-Za-z_]\w*)\s*$", _stmt, re.I)
    if upm:
        # UNPIVOT t ON a, b INTO NAME k VALUE v — DuckDB's statement
        # form: per-batch melt (no shuffle), every non-listed column
        # is an id column, NULL cells drop (DuckDB's rule)
        from recon_ray.functions.relational import unpivot

        tbl = upm.group(1)
        if tbl not in tables:
            raise SqlError(f"unknown table {tbl!r}")
        vcols = [c.strip() for c in upm.group(2).split(",")]
        nname, vname = upm.group(3), upm.group(4)
        sch = tables[tbl].schema()
        if sch is None:
            return pd.DataFrame()
        missing = [c for c in vcols if c not in sch.names]
        if missing:
            raise SqlError(f"UNPIVOT columns not in {tbl!r}: {missing}")
        ids = [c for c in sch.names if c not in vcols]
        out = unpivot(tables[tbl], ids, vcols,
                      var_name=nname, value_name=vname).to_pandas()
        return out.dropna(subset=[vname]).reset_index(drop=True)
    _ctes, _stmt = _split_with(_stmt)
    if _ctes:
        # WITH name AS (aggregated query), ...: each CTE plans
        # recursively (earlier CTEs visible to later ones) and
        # registers its result-sized frame as an in-memory table
        import ray.data as _rd

        tables = dict(tables)
        for _name, _subtext in _ctes:
            if _name in tables:
                raise SqlError(
                    f"CTE name {_name!r} shadows a registered table")
            _assert_result_sized(parse_sql(_subtext), f"CTE {_name!r}")
            tables[_name] = _rd.from_pandas(
                run_sql(_subtext, tables, broadcast_rows))
        return run_sql(_stmt, tables, broadcast_rows,
                       _as_dataset=_as_dataset)

    _sides, _op = _split_union(_stmt)
    if len(_sides) > 1:
        if _as_dataset:
            raise NotStreamable("set operations materialize")
        body, order, limit = _strip_tail(_sides[-1])
        frames = [run_sql(s, tables, broadcast_rows)
                  for s in _sides[:-1] + [body]]
        cols0 = list(frames[0].columns)
        for f in frames[1:]:
            if list(f.columns) != cols0:
                raise SqlError(
                    f"set-operation sides disagree on columns: "
                    f"{cols0} vs {list(f.columns)}")
        if _op == "union all":
            out = pd.concat(frames, ignore_index=True)
        elif _op == "union":
            out = pd.concat(frames, ignore_index=True).drop_duplicates()
        elif _op == "intersect":
            # set semantics; pandas merge matches NaN to NaN, which is
            # exactly SQL's NULLs-are-equal rule for set operators
            out = frames[0].drop_duplicates()
            for f in frames[1:]:
                out = out.merge(f.drop_duplicates(), on=cols0,
                                how="inner")
        else:  # except — left-associative anti-merges
            out = frames[0].drop_duplicates()
            for f in frames[1:]:
                m = out.merge(f.drop_duplicates(), on=cols0,
                              how="left", indicator=True)
                out = m.loc[m["_merge"] == "left_only", cols0]
        for c, _asc in order:
            if c not in cols0:
                raise SqlError(
                    f"ORDER BY {c!r} is not a union result column")
        if order:
            out = out.sort_values(
                [c for c, _ in order],
                ascending=[asc for _, asc in order], kind="mergesort")
        if limit is not None:
            out = out.head(limit)
        return out.reset_index(drop=True)

    q = parse_sql(_expand_star(_stmt, tables))
    if isinstance(q["table"], tuple):
        # derived table: plan the (aggregated, result-sized) inner
        # query recursively; its frame becomes the in-memory base
        import ray.data as _rd

        if _as_dataset:
            raise NotStreamable("derived-table bases materialize")
        inner_df = run_sql(q["table"][1], tables, broadcast_rows)
        ds = _rd.from_pandas(inner_df)
    else:
        if q["table"] not in tables:
            raise SqlError(f"unknown table {q['table']!r}")
        ds = tables[q["table"]]

    # Ray loses the schema entirely on empty in-memory datasets
    # (schema() → None); None MEANS provably zero rows. Left-deep join
    # chain: acc_cols tracks every column name introduced so far.
    _lsch = ds.schema()
    acc_cols = set(_lsch.names) if _lsch else set()
    # every column name the rest of the query will touch (needed to
    # synthesize NULL columns for an empty schema-less join side):
    # select + where + group by + window keys + every later ON key +
    # the columns inside CASE/FILTER predicate trees and arithmetic
    # expressions (their derived aliases are overwritten by the derive
    # stage anyway)
    _refcols: set = set()
    for f in q["where"]:
        if f[0] == "bool":
            _tree_cols(f[2], _refcols)
        elif f[0] == "cmp2":
            if isinstance(f[2][1], tuple):
                _strexpr_cols(f[2][1], _refcols)
            else:
                _refcols.add(f[2][1])
        if isinstance(f[1], tuple):  # string-expression LHS
            _strexpr_cols(f[1], _refcols)
    for it in q["select"]:
        if it.get("expr"):
            _expr_cols(it["expr"], _refcols)
        if it.get("pair"):
            _refcols.update(it["pair"])
        if it.get("amspec"):
            _refcols.update(it["amspec"])
        if it.get("datefn"):
            _refcols.add(it["datefn"][1])
        if it.get("strfn"):
            _strexpr_cols(it["strfn"], _refcols)
        if it.get("filter") is not None:
            _tree_cols(it["filter"], _refcols)
        if it.get("case"):
            for tree, val in (it["case"]["whens"]
                              + [(None, it["case"]["else"])]):
                if tree is not None:
                    _tree_cols(tree, _refcols)
                if val[0] == "col":
                    _refcols.add(val[1])
                elif val[0] == "expr":
                    _expr_cols(val[1], _refcols)
    _referenced = ({it["col"] for it in q["select"] if it["col"]}
                   | {c for _, c, _ in q["where"] if isinstance(c, str)}
                   | _refcols
                   | set(q["group_by"])
                   | {w for it in q["select"] if it.get("win")
                      for w in (it["win"]["part"],
                                *it["win"]["order"])}
                   | {it["win"]["col"] for it in q["select"]
                      if it.get("win") and it["win"]["col"]
                      and it["win"]["kind"] != "ntile"}
                   | {c for jj in q["joins"] for pair in jj["on"]
                      for c in pair})
    _null_synth = set()  # columns synthesized as all-NULL placeholders

    if not q["joins"] and _lsch is not None:
        # binder check (single-table only — join paths synthesize NULL
        # columns for schema-less empty sides, so they stay lazy): an
        # unknown column is a query bug and should fail HERE with the
        # schema in hand, not as a KeyError inside a Ray task minutes
        # into a big scan. Select-item aliases count as available
        # (CASE/derive aliases are legal group keys).
        _markers = ("win", "strfn", "amspec", "pair", "expr", "datefn",
                    "case")
        _avail = set(_lsch.names) | {
            it["alias"] for it in q["select"]
            if it.get("alias") and (
                it.get("agg") is not None
                or any(it.get(k) for k in _markers)
                or it["alias"] != it.get("col"))}  # a AS b renames
        _missing = sorted(c for c in _referenced
                          if c not in _avail and not c.startswith("__"))
        if _missing:
            raise SqlError(
                f"unknown column(s) {_missing} — table has "
                f"{list(_lsch.names)}")

    def _prune(d, sch):
        # projection pushdown: Ray pushes select_columns into the
        # parquet scan, so unreferenced columns never leave storage.
        # Keep one column when nothing is referenced (count(*)-only
        # queries) — a zero-column dataset is Ray's no-schema hazard.
        if d is None or sch is None:
            return d
        cols = [c for c in sch.names if c in _referenced]
        if not cols:
            cols = [sch.names[0]]
        return d.select_columns(cols) if len(cols) < len(sch.names) else d

    ds = _prune(ds, _lsch)
    post_where = q["where"]
    base_meta = None
    if q["joins"]:
        pushed, post_where = _pushdown_split(q, tables)
        if pushed.get("base") and _lsch is not None:
            ds = arrow_filter(ds, _compile_pred(pushed["base"]))
        # RAW row counts (metadata-cheap: parquet footers / in-memory
        # length) pick the join strategy; the filtered side is what
        # actually joins. When a pushed filter might shrink a side
        # under the broadcast bound, count the filtered side too — but
        # only below the probe cap (a bounded pruned-column scan;
        # never on petabyte-class inputs).
        base_meta = (tables[q["table"]].count()
                     if _lsch is not None else 0)
        base_eff = base_meta
        if (pushed.get("base") and 0 < base_meta
                and base_meta <= 20 * broadcast_rows):
            base_eff = ds.count()
    for ji, j in enumerate(q["joins"]):
        from recon_ray.functions.relational import (broadcast_join,
                                                    shuffle_join)

        if j["table"] not in tables:
            raise SqlError(f"unknown table {j['table']!r}")
        right = tables[j["table"]]
        r_meta = right.count() if right.schema() is not None else 0
        right = _prune(right, right.schema())
        if pushed.get(ji) and right.schema() is not None:
            right = arrow_filter(right, _compile_pred(pushed[ji]))
        rsch = right.schema()
        rcols = set(rsch.names) if rsch else set()
        overlap = sorted(acc_cols & rcols)
        if overlap:
            raise SqlError(
                f"joined tables share column names {overlap}; the "
                "mini-SQL join requires disjoint schemas (rename "
                "upstream)")
        lk = [p[0] for p in j["on"]]
        rk = [p[1] for p in j["on"]]
        for c in lk:
            if acc_cols and c not in acc_cols:
                raise SqlError(f"ON column {c!r} not on the left side")
        for c in rk:
            if rsch and c not in rcols:
                raise SqlError(
                    f"ON column {c!r} not in {j['table']!r}")
        # runtime-emptiness probes (limit(1) short-circuits): a side
        # whose blocks all vanished leaves Ray's join with no schema at
        # all ("No match for FieldRef"), so empty sides must resolve in
        # the planner, not the join
        how = j["how"]
        r_empty = rsch is None or not right.limit(1).count()
        l_empty = ds is None or not ds.limit(1).count()
        # a join keyed on an all-NULL synthesized column can never
        # match (NULL = NULL is UNKNOWN) — for INNER that proves
        # emptiness, for LEFT it degenerates to the pad path; the
        # RIGHT/FULL forms just run (the NaN placeholders convert to
        # Arrow nulls, which match nothing, and the preserved-side
        # rows still emit)
        lk_dead = any(c in _null_synth for c in lk)
        if how == "left_outer" and lk_dead:
            r_empty = True
        if ((how == "inner" and (l_empty or r_empty or lk_dead))
                or (how == "cross" and (l_empty or r_empty))
                or (how == "left_outer" and l_empty)
                or (how == "right_outer" and r_empty)
                or (how == "full_outer" and l_empty and r_empty)):
            ds = None  # provably empty join result
            if all(jj["how"] in ("inner", "left_outer")
                   for jj in q["joins"][ji + 1:]):
                break
            # a later RIGHT/FULL join resurrects rows from ITS right
            # side, so keep planning; every column seen so far stays
            # in scope as provably-all-NULL. An empty in-memory right
            # side loses its schema entirely — recover its column
            # claim from the referenced set (minus what later tables
            # will introduce), like the pad branches below, so a later
            # ON key that lives on this table stays resolvable
            if not rcols:
                later_known = set()
                for jj in q["joins"][ji + 1:]:
                    t_l = tables.get(jj["table"])
                    sch_l = t_l.schema() if t_l is not None else None
                    if sch_l:
                        later_known |= set(sch_l.names)
                rcols = ((_referenced | set(rk)) - acc_cols
                         - later_known)
            _null_synth |= acc_cols | rcols
            acc_cols |= rcols
            continue
        if how in ("left_outer", "full_outer") and r_empty:
            # LEFT/FULL JOIN against an empty right side: every left
            # row survives with NULL right columns. With a known
            # schema, synthesize exactly the right table's columns;
            # with the schema lost (empty in-memory side), fall back
            # to the referenced columns that no other table can claim
            if rsch:
                ref = set(rcols)
            else:
                later_known = set()
                for jj in q["joins"][ji + 1:]:
                    t_l = tables.get(jj["table"])
                    sch_l = t_l.schema() if t_l is not None else None
                    if sch_l:
                        later_known |= set(sch_l.names)
                ref = ((_referenced | set(rk)) - acc_cols
                       - later_known)

            def null_right(b: pd.DataFrame, ref=sorted(ref)) -> pd.DataFrame:
                return b.assign(**{c: np.full(len(b), np.nan) for c in ref})

            ds = ds.map_batches(null_right, batch_format="pandas")
            acc_cols |= set(ref)
            _null_synth |= set(ref)
        elif how in ("right_outer", "full_outer") and l_empty:
            # RIGHT/FULL JOIN with an empty (or never-materialized)
            # left side: every right row survives with the accumulated
            # left columns all NULL
            # schema-lost fallback mirrors the r_empty branch: columns
            # a LATER join table will introduce must not be
            # synthesized here or that join sees a fake collision
            later_known = set()
            for jj in q["joins"][ji + 1:]:
                t_l = tables.get(jj["table"])
                sch_l = t_l.schema() if t_l is not None else None
                if sch_l:
                    later_known |= set(sch_l.names)
            ref = sorted(acc_cols - rcols) or sorted(
                (_referenced | set(lk)) - rcols - later_known)

            def null_left(b: pd.DataFrame, ref=list(ref)) -> pd.DataFrame:
                return b.assign(**{c: np.full(len(b), np.nan) for c in ref})

            ds = right.map_batches(null_left, batch_format="pandas")
            _null_synth |= set(ref)
            acc_cols |= set(ref) | rcols
        elif how in ("right_outer", "full_outer"):
            # preserved-right joins always hash-shuffle: the per-batch
            # broadcast merge can't express them (an unmatched
            # broadcast-side row would emit once per batch). Ray/Acero
            # key-column behavior differs by type — right_outer keeps
            # the RIGHT key column (left key consumed); full_outer
            # keeps the LEFT key name with COALESCED values. SQL keeps
            # BOTH columns in scope, each NULL on the other side's
            # preserved rows — so the join runs on renamed COPIES of
            # the left keys (and, for full, of the right keys): the
            # originals ride their own side as data columns and get
            # NULL-padded exactly right.
            renl = {c: f"__jkl{ji}_{k}" for k, c in enumerate(lk)}

            def dup_lkeys(t: pa.Table, renl=dict(renl)) -> pa.Table:
                for src, dst in renl.items():
                    t = t.append_column(dst, t.column(src))
                return t

            ds = ds.map_batches(dup_lkeys, batch_format="pyarrow")
            lk = [renl[c] for c in lk]
            if how == "full_outer":
                renr = {c: f"__jkr{ji}_{k}" for k, c in enumerate(rk)}

                def dup_rkeys(t: pa.Table, renr=dict(renr)) -> pa.Table:
                    for src, dst in renr.items():
                        t = t.append_column(dst, t.column(src))
                    return t

                right = right.map_batches(dup_rkeys,
                                          batch_format="pyarrow")
                rk = [renr[c] for c in rk]
            ds = shuffle_join(ds, right, on=lk, right_on=rk, how=how)
            acc_cols |= rcols
        elif how == "cross":
            # CROSS JOIN: broadcast nested loop — the right side ships
            # once via the object store and every left batch pairs
            # with all of it (pandas merge(how="cross")). Output size
            # is |L|·|R|, so the right side must be dimension-sized;
            # an unbounded cartesian over two big tables is a query
            # bug, not a planning problem
            r_eff = r_meta
            if r_meta > broadcast_rows and pushed.get(ji):
                r_eff = right.count()
            if r_eff > broadcast_rows:
                raise SqlError(
                    f"CROSS JOIN right side has {r_eff} rows — "
                    f"bounded at {broadcast_rows} (cartesian outputs "
                    "explode; filter or pre-aggregate the small side)")
            import ray

            sm_df = right.to_pandas()

            def cross_merge(b: pd.DataFrame,
                            sm=ray.put(sm_df)) -> pd.DataFrame:
                s = ray.get(sm) if isinstance(sm, ray.ObjectRef) else sm
                return b.merge(s, how="cross")

            ds = ds.map_batches(cross_merge, batch_format="pandas")
            acc_cols |= rcols
        else:
            # Ray's join consumes the right_on columns. SQL keeps BOTH
            # key columns in scope (SELECT l_orderkey ... ON
            # lineitem.l_orderkey = orders.o_orderkey), so any right
            # key the rest of the query references joins on a renamed
            # COPY — the original survives as a data column, and LEFT
            # joins still NULL it on unmatched rows
            pd_how = "left" if j["how"] == "left_outer" else "inner"
            r_eff = r_meta
            if (r_meta > broadcast_rows and pushed.get(ji)
                    and r_meta <= 20 * broadcast_rows):
                r_eff = right.count()  # bounded filtered-side probe
            can_swap = (j["how"] == "inner" and ji == 0
                        and base_eff is not None
                        and base_eff <= broadcast_rows)
            if r_eff <= broadcast_rows and not (
                    can_swap and base_eff < r_eff):
                # dimension-sized right side: materialize the FILTERED
                # side once, drop NULL-key rows (SQL: NULL never
                # matches; pandas merge would match NaN to NaN), ship
                # via ray.put, stream the big side through. pandas
                # merge keeps both key columns, so no rename dance.
                sm = right.to_pandas().dropna(subset=rk)
                ds = broadcast_join(ds, sm, on=lk, small_on=rk,
                                    how=pd_how)
            elif can_swap:
                # small BASE side: inner joins commute, so broadcast
                # the (base-filtered) left side into the big right
                # stream instead of shuffling both — the result then
                # rides the BIG side's block parallelism
                sm = ds.to_pandas().dropna(subset=lk)
                ds = broadcast_join(right, sm, on=rk, small_on=lk,
                                    how="inner")
            else:
                swapped = False
                if (j["how"] == "inner" and ji > 0
                        and base_eff is not None
                        and base_eff <= broadcast_rows):
                    # adaptive join selection (the Spark-AQE move): a
                    # small filtered BASE often keeps the accumulated
                    # left side dimension-sized through the join chain
                    # (TPC-H Q3: BUILDING customers ⋈ orders ≈ 1/5 of
                    # orders, then ⋈ lineitem) — probe its ACTUAL size
                    # with a bounded limit (the streaming executor
                    # cancels upstream once the limit fills, so a
                    # genuinely-big left costs one partial pass, never
                    # a full scan) and swap-broadcast instead of
                    # paying the all-to-all hash shuffle. limit() ≥
                    # true size ⇒ the probe IS the whole left when it
                    # fits, so it executes exactly once.
                    lm = ds.limit(broadcast_rows + 1).materialize()
                    if lm.count() <= broadcast_rows:
                        sm = lm.to_pandas().dropna(subset=lk)
                        ds = broadcast_join(right, sm, on=rk,
                                            small_on=lk, how="inner")
                        swapped = True
                if not swapped:
                    # both sides large: hash-partition shuffle join.
                    # Ray's join consumes the right_on columns, but
                    # SQL keeps BOTH key columns in scope (SELECT
                    # l_orderkey ... ON lineitem.l_orderkey =
                    # orders.o_orderkey), so any right key the rest of
                    # the query references joins on a renamed COPY —
                    # the original survives as a data column, and LEFT
                    # joins still NULL it on unmatched rows
                    keep = [c for c in rk if c in _referenced]
                    if keep:
                        ren = {c: f"__jk{ji}_{k}"
                               for k, c in enumerate(keep)}

                        def dup_keys(t: pa.Table,
                                     ren=dict(ren)) -> pa.Table:
                            for src, dst in ren.items():
                                t = t.append_column(dst, t.column(src))
                            return t

                        right = right.map_batches(dup_keys,
                                                  batch_format="pyarrow")
                        rk = [ren.get(c, c) for c in rk]
                    ds = shuffle_join(ds, right, on=lk, right_on=rk,
                                      how=j["how"])
            acc_cols |= rcols

    _SUBQ = ("in_subq", "not_in_subq", "exists_semi", "exists_anti")
    _SEMI = ("in_subq", "exists_semi")
    scalar_conds = [p for p in post_where
                    if p[0] not in _SUBQ
                    and p[0] not in ("cmp_subq", "exists_subq",
                                     "not_exists_subq")]
    for kind, _c, subtext in (p for p in post_where
                              if p[0] in ("exists_subq",
                                          "not_exists_subq")):
        # uncorrelated EXISTS: one recursive evaluation (the parser
        # capped raw projections at LIMIT 1) decides keep-all vs
        # keep-none for the whole query
        if ds is None:
            break
        nonempty = len(run_sql(subtext, tables, broadcast_rows)) > 0
        if nonempty != (kind == "exists_subq"):
            ds = None
    for _k, col, (op, subtext) in (p for p in post_where
                                   if p[0] == "cmp_subq"):
        # scalar subquery: a single global aggregate (validated in the
        # parser) — evaluate it recursively, then fold the value into
        # the conjunctive predicate; a NULL scalar (e.g. sum over zero
        # rows) makes the comparison UNKNOWN for every row
        val_df = run_sql(subtext, tables, broadcast_rows)
        val = val_df.iloc[0, 0]
        if pd.isna(val):
            ds = None
            break
        scalar_conds.append(
            (op, col, val.item() if hasattr(val, "item") else val))
    if scalar_conds and ds is not None:
        ds = arrow_filter(ds, _compile_pred(scalar_conds))
    for kind, col, (subtext, sub) in (p for p in post_where
                                      if p[0] in _SUBQ):
        if ds is None:
            break
        if sub["table"] not in tables:
            raise SqlError(f"unknown table {sub['table']!r}")
        grouped = bool(sub["group_by"]) or any(
            it["agg"] for it in sub["select"])
        if grouped:
            # aggregated inner query (GROUP BY / HAVING — the TPC-H
            # Q18 shape): plan it recursively; the result is
            # groups-sized and joins back as the key set
            import ray.data as _rd

            inner_df = run_sql(subtext, tables, broadcast_rows)
            icol = inner_df.columns[0]
            if kind == "not_in_subq" and inner_df[icol].isna().any():
                # a NULL group key in the inner result poisons NOT IN
                # (exists_anti does NOT poison — NULLs never match)
                ds = None
                continue
            inner_df = inner_df.dropna(subset=[icol])
            if inner_df.empty:
                if kind in _SEMI:
                    ds = None
                continue
            # align the key dtype with the probe column — a NULL group
            # key upcasts pandas int64 → float64 on the way through
            # the combiner, and Acero rejects mismatched join key
            # types. Only integer-valued floats downcast (Ray's Schema
            # may carry pyarrow OR numpy types depending on the block
            # format).
            psch = ds.schema()
            if (psch is not None and col in psch.names
                    and pd.api.types.is_float_dtype(
                        inner_df[icol].dtype)):
                ty = psch.types[psch.names.index(col)]
                try:
                    is_int = (pa.types.is_integer(ty)
                              if isinstance(ty, pa.DataType)
                              else pd.api.types.is_integer_dtype(ty))
                except Exception:
                    is_int = False
                vals = inner_df[icol]
                if is_int and (vals == np.round(vals)).all():
                    inner_df = inner_df.assign(
                        **{icol: vals.astype("int64")})
            inner = _rd.from_pandas(inner_df[[icol]])
        else:
            inner = tables[sub["table"]]
            icol = sub["select"][0]["col"]
            if sub["where"] and inner.schema() is not None:
                inner = arrow_filter(inner, _compile_pred(sub["where"]))
            if inner.schema() is None:
                # provably empty subquery: IN () / EXISTS match
                # nothing; NOT IN () / NOT EXISTS keep every row
                # (even NULL — no comparison happens)
                if kind in _SEMI:
                    ds = None
                continue
            # the subquery side is dimension-sized by assumption; it
            # is consumed up to twice (emptiness/NULL probe + join
            # build), so materialize once. A side that filtered down
            # to ZERO rows must short-circuit: Ray's empty-block
            # coalescing leaves the join with no right-side schema at
            # all.
            inner = inner.select_columns([icol]).materialize()
            if inner.count() == 0:
                if kind in _SEMI:
                    ds = None
                continue
            if kind != "not_in_subq":
                # NULL inner keys never match any probe (IN / EXISTS
                # semantics) — drop them up front. This also retires
                # the all-NULL column whose Arrow type decayed to
                # null/double on its way through Ray (Acero rejects
                # mismatched join key types). NOT IN keeps its NULLs:
                # the poison probe below must see them.
                inner = inner.map_batches(
                    lambda t, c=icol: t.filter(
                        pc.is_valid(t.column(c))),
                    batch_format="pyarrow").materialize()
                if inner.count() == 0:
                    if kind in _SEMI:
                        ds = None
                    continue
            # residual dtype mismatch (float inner vs int probe or
            # vice versa): non-integral values can never equal an
            # integer probe, so the narrowing filter+cast preserves
            # semantics; int→float widening is lossless
            def _sch_ty(sch, name):
                try:
                    ty = sch.types[sch.names.index(name)]
                    return ty if isinstance(ty, pa.DataType) else None
                except Exception:
                    return None

            psch2, isch2 = ds.schema(), inner.schema()
            pty = (_sch_ty(psch2, col)
                   if psch2 is not None and col in psch2.names
                   else None)
            ity = (_sch_ty(isch2, icol)
                   if isch2 is not None and icol in isch2.names
                   else None)
            if pty is None:
                # pandas-extension-backed blocks raise on
                # Schema.types — read the REAL arrow type from one
                # batch (the emptiness probe just proved one exists)
                try:
                    tb1 = ds.limit(1).take_batch(
                        batch_format="pyarrow")
                    if col in tb1.schema.names:
                        pty = tb1.schema.field(col).type
                except Exception:
                    pty = None
            if pty is not None and pa.types.is_null(pty):
                # first block's probe keys are all NULL — confirm no
                # later block carries a real value before concluding
                any_valid = bool(ds.map_batches(
                    lambda t, c=col: t.filter(
                        pc.is_valid(t.column(c))),
                    batch_format="pyarrow").limit(1).count())
                if not any_valid:
                    # every probe key is NULL: nothing can match —
                    # semi keeps nothing, anti keeps everything; NOT
                    # IN's NULL probes never pass either
                    if kind in _SEMI or kind == "not_in_subq":
                        ds = None
                    continue
                pty = None  # mixed blocks: fall through unaligned
            if (pty is not None and ity is not None and pty != ity
                    and pa.types.is_integer(pty)
                    and pa.types.is_floating(ity)):
                def _narrow(t, c=icol, ty=pty):
                    arr = t.column(c)
                    keep = pc.and_kleene(
                        pc.is_valid(arr),
                        pc.equal(arr, pc.floor(arr)))
                    f = t.filter(pc.fill_null(keep, False))
                    return pa.table(
                        {c: pc.cast(f.column(c), ty, safe=False)})

                inner = inner.map_batches(
                    _narrow, batch_format="pyarrow").materialize()
                if inner.count() == 0:
                    if kind in _SEMI:
                        ds = None
                    continue
            elif (pty is not None and ity is not None and pty != ity
                    and pa.types.is_floating(pty)
                    and pa.types.is_integer(ity)):
                inner = inner.map_batches(
                    lambda t, c=icol, ty=pty: pa.table(
                        {c: pc.cast(t.column(c), ty)}),
                    batch_format="pyarrow").materialize()
        if not ds.limit(1).count():
            # scalar WHERE (or an earlier subquery) emptied the probe
            # side — same no-schema join hazard as above
            ds = None
            continue
        from recon_ray.functions.relational import shuffle_semi_join

        if kind in _SEMI:
            ds = shuffle_semi_join(ds, inner, on=col, right_on=icol)
        elif kind == "exists_anti":
            # NOT EXISTS: keep non-matching rows INCLUDING NULL probe
            # keys (NULL = anything is UNKNOWN, so no match EXISTS) —
            # no NOT-IN poisoning; NULL inner keys were dropped above
            ds = shuffle_semi_join(ds, inner, on=col, right_on=icol,
                                   anti=True)
        else:
            # SQL NOT IN semantics: a NULL anywhere in the subquery
            # poisons the whole predicate (x <> NULL is UNKNOWN), and a
            # NULL probe value never passes either
            nulls = inner.map_batches(
                lambda t, c=icol: pa.table(
                    {"n": pa.array([t.column(c).null_count],
                                   pa.int64())}),
                batch_format="pyarrow",
            ).sum("n")
            if nulls:
                ds = None
                continue
            ds = arrow_filter(
                ds, lambda t, c=col: pc.is_valid(t.column(c)))
            if not ds.limit(1).count():
                ds = None
                continue
            ds = shuffle_semi_join(ds, inner, on=col, right_on=icol,
                                   anti=True)

    derive_items = [it for it in q["select"]
                    if it.get("case") or it.get("expr")
                    or it.get("datefn") or it.get("strfn")]
    if derive_items and ds is not None:
        def _derive(b: pd.DataFrame,
                    items=derive_items) -> pd.DataFrame:
            b = b.copy()
            for it in items:
                if it.get("strfn"):
                    b[it["col"]] = _eval_str_pd(b, it["strfn"])
                    continue
                if it.get("datefn"):
                    part, src = it["datefn"]
                    s = pd.Series(b[src])
                    if not pd.api.types.is_datetime64_any_dtype(s):
                        s = pd.to_datetime(s)
                    if part.startswith("bucket_"):
                        # DuckDB time_bucket aligns to origin
                        # 2000-01-03 00:00:00 (not the Unix epoch);
                        # int64-ns floor-div rounds toward -inf so
                        # pre-origin timestamps bucket correctly too.
                        width_ns = int(part[7:]) * 1_000_000_000
                        origin_ns = pd.Timestamp("2000-01-03").value
                        # normalize to ns first — the bare int64 view
                        # is in the series' NATIVE unit (parquet
                        # timestamps are typically us)
                        ns = (s.astype("datetime64[ns]")
                              .astype("int64").to_numpy())
                        off = ns - origin_ns
                        v = pd.Series(
                            pd.to_datetime(
                                (off // width_ns) * width_ns
                                + origin_ns),
                            index=s.index)
                        if s.isna().any():
                            v[s.isna()] = pd.NaT
                    elif part == "year":
                        v = s.dt.to_period("Y").dt.to_timestamp()
                    elif part == "month":
                        v = s.dt.to_period("M").dt.to_timestamp()
                    elif part == "week":  # Monday, DuckDB's rule
                        v = (s.dt.floor("D")
                             - pd.to_timedelta(s.dt.dayofweek, unit="D"))
                    elif part == "day":
                        v = s.dt.floor("D")
                    elif part == "hour":
                        v = s.dt.floor("h")
                    else:
                        v = s.dt.floor("min")
                    b[it["col"]] = v
                    continue
                if it.get("expr"):
                    vals = _eval_expr(b, it["expr"])
                    if _expr_is_int(it["expr"]) \
                            and not np.any(np.isnan(vals)):
                        # statically-integer expression (int literals,
                        # cast-to-bigint, + - *): int64 keeps the
                        # downstream SUM exact past float64's 2^53
                        vals = np.asarray(vals).astype("int64")
                    b[it["col"]] = vals
                    continue
                spec = it["case"]

                def val_arr(v):
                    if v[0] == "expr":
                        return _eval_expr(b, v[1])
                    if v[0] == "col":
                        return b[v[1]].to_numpy()
                    if isinstance(v[1], str):
                        return np.full(len(b), v[1], dtype=object)
                    return np.full(
                        len(b), np.nan if v[1] is None else v[1])

                if len(b) == 0:
                    b[it["alias"]] = np.array([], dtype=object)
                    continue
                masks = [_pd_mask(b, tree).to_numpy()
                         for tree, _v in spec["whens"]]
                b[it["alias"]] = np.select(
                    masks, [val_arr(v) for _c, v in spec["whens"]],
                    default=val_arr(spec["else"]))
            return b

        ds = ds.map_batches(_derive, batch_format="pandas")

    has_agg = any(it["agg"] for it in q["select"])
    if has_agg and _as_dataset:
        raise NotStreamable("aggregates produce a groups-sized frame")
    if not has_agg:
        cols = [it["alias"] if it.get("win") else it["col"]
                for it in q["select"]]
        win_items = [it for it in q["select"] if it.get("win")]
        if win_items and ds is not None:
            from recon_ray.functions.relational import window_over

            # one window_over pass (one hash shuffle) per distinct
            # (PARTITION BY, ORDER BY) pair; each adds its columns
            wgroups = {}
            for it in win_items:
                w = it["win"]
                wgroups.setdefault(
                    (w["part"], w["order"], w["asc"]), []).append(
                    (w["kind"], w["col"], it["alias"]))
            for (p, o, asc), specs in wgroups.items():
                ds = window_over(ds, p, list(o), specs, ascending=asc)
            if q.get("qualify") is not None:
                # QUALIFY: filter on the window OUTPUT columns — stays
                # a distributed pyarrow mask (grouped top-k without a
                # driver touch); UNKNOWN rows drop, like WHERE
                ds = arrow_filter(
                    ds, _compile_pred([("bool", None, q["qualify"])]))
        if ds is not None:
            ds = ds.select_columns(list(dict.fromkeys(cols)))
            if q["distinct"]:
                from recon_ray.functions.relational import distinct as _dist

                ds = _dist(ds, list(dict.fromkeys(cols)))
            if _as_dataset:
                # lazy plan requested: hand back the Dataset itself —
                # nothing has executed yet. ORDER BY / LIMIT force a
                # materialization point and stay with the pandas path.
                if q["order_by"] or q["limit"] is not None \
                        or q.get("offset"):
                    raise NotStreamable(
                        "ORDER BY / LIMIT / OFFSET materialize")
                names = [it["alias"] for it in q["select"]]
                src = cols

                def _project(t: pa.Table, names=tuple(names),
                             src=tuple(src)) -> pa.Table:
                    return pa.table(
                        {n: t.column(c) for n, c in zip(names, src)})

                return ds.map_batches(_project, batch_format="pyarrow",
                                      zero_copy_batch=True)
            if q["limit"] is not None and not q["order_by"]:
                ds = ds.limit(q["limit"] + q.get("offset", 0))
        elif _as_dataset:
            raise NotStreamable("provably-empty plan has no schema")
        out = ds.to_pandas() if ds is not None else pd.DataFrame()
        if out.empty:
            out = pd.DataFrame({c: pd.Series(dtype=object) for c in cols})
        out = out[cols]
        out.columns = [it["alias"] for it in q["select"]]
    else:
        keys = q["group_by"]
        aggs = [it for it in q["select"] if it["agg"]]
        need = sorted({
            a["col"] for a in aggs
            if a["col"] and a["agg"] not in _Q_AGGS
            and a["agg"] not in ("string_agg", "approx_distinct")
            and not (a["agg"] == "count" and a.get("distinct"))
            and not a.get("filter")
        })
        # stddev/variance family: one extra sum-of-squares partial per
        # column — (Σx², Σx, n) merge like any other sums, so the same
        # combiner (and ROLLUP/CUBE recomposition) carries them
        need_sq = sorted({
            a["col"] for a in aggs
            if a["col"] and a["agg"] in _VAR_AGGS
        })
        # each column gets ONLY the partials its aggregates consume:
        # count(s) over a string column must not run a numeric sum or
        # a NaN-poisoned object min (pandas' py fallback can't order
        # str vs float)
        _sum_aggs = {"sum", "avg", *_VAR_AGGS}
        need_sum = sorted({
            a["col"] for a in aggs
            if a["col"] and a["agg"] in _sum_aggs and not a.get("filter")
        })
        need_mm = sorted({
            a["col"] for a in aggs
            if a["col"] and a["agg"] in ("min", "max")
            and not a.get("filter")
        })
        # FILTER'd aggregates get their own masked partials, keyed by
        # select position (the unfiltered ones share per-column
        # partials)
        fspecs = [(i, it) for i, it in enumerate(q["select"])
                  if it["agg"] and it.get("filter")]
        # two-column aggregates: one set of pairwise-masked sum
        # partials per distinct (y, x) pair, shared across corr /
        # covar / regr over the same pair
        need_pairs = sorted({it["pair"] for it in aggs
                             if it.get("pair")})
        _PAIR_SFX = ("y", "x", "xy", "xx", "yy")

        def _pkey(y, x):
            return f"{y}__{x}"

        def partial(b: pd.DataFrame) -> pd.DataFrame:
            if need_sq:
                b = b.assign(**{
                    f"__sq_{c}":
                        pd.to_numeric(b[c]).astype("float64") ** 2
                    for c in need_sq})
            if need_pairs:
                pas = {}
                for (y, x) in need_pairs:
                    k = _pkey(y, x)
                    yv = pd.to_numeric(b[y]).astype("float64")
                    xv = pd.to_numeric(b[x]).astype("float64")
                    both = yv.notna() & xv.notna()
                    ym, xm = yv.where(both), xv.where(both)
                    pas[f"__vy_{k}"] = ym
                    pas[f"__vx_{k}"] = xm
                    pas[f"__vxy_{k}"] = ym * xm
                    pas[f"__vxx_{k}"] = xm * xm
                    pas[f"__vyy_{k}"] = ym * ym
                b = b.assign(**pas)
            g = b.groupby(keys, dropna=False) if keys else None
            parts = {}
            for c in need:
                src = g[c] if g is not None else b[c]
                if c in need_sum:
                    parts[f"__s_{c}"] = src.sum()
                parts[f"__c_{c}"] = src.count()
                if c in need_mm:
                    if b[c].dtype == object:
                        # strings: min/max ignore NULLs (the py
                        # fallback can't compare NaN with str)
                        nb = b[b[c].notna()]
                        srcm = (nb.groupby(keys, dropna=False)[c]
                                if keys else nb[c])
                    else:
                        srcm = src
                    parts[f"__mn_{c}"] = srcm.min()
                    parts[f"__mx_{c}"] = srcm.max()
            for c in need_sq:
                src = g[f"__sq_{c}"] if g is not None else b[f"__sq_{c}"]
                parts[f"__q_{c}"] = src.sum()
            for (y, x) in need_pairs:
                k = _pkey(y, x)
                srcy = g[f"__vy_{k}"] if g is not None else b[f"__vy_{k}"]
                parts[f"__pn_{k}"] = srcy.count()
                for sfx in _PAIR_SFX:
                    src = (g[f"__v{sfx}_{k}"] if g is not None
                           else b[f"__v{sfx}_{k}"])
                    parts[f"__p{sfx}_{k}"] = src.sum()
            star = g.size() if g is not None else pd.Series(
                [len(b)], index=[0])
            parts["__n"] = star
            for i, it in fspecs:
                sub = b[_pd_mask(b, it["filter"])]
                gs = sub.groupby(keys, dropna=False) if keys else None
                c = it["col"]
                if c is None:  # count(*) FILTER
                    parts[f"__n_f{i}"] = (
                        gs.size() if gs is not None
                        else pd.Series([len(sub)], index=[0]))
                else:
                    src = gs[c] if gs is not None else sub[c]
                    if it["agg"] in _sum_aggs:
                        parts[f"__s_f{i}"] = src.sum()
                    parts[f"__c_f{i}"] = src.count()
                    if it["agg"] in ("min", "max"):
                        if sub[c].dtype == object:
                            nsub = sub[sub[c].notna()]
                            src = (nsub.groupby(keys, dropna=False)[c]
                                   if keys else nsub[c])
                        parts[f"__mn_f{i}"] = src.min()
                        parts[f"__mx_f{i}"] = src.max()
            out = pd.DataFrame(parts)
            return out.reset_index() if keys else out

        parts = (ds.map_batches(partial, batch_format="pandas").to_pandas()
                 if ds is not None else pd.DataFrame())
        if parts.empty:
            # all rows filtered: Ray's empty to_pandas drops columns.
            # SQL semantics: GROUP BY over nothing → zero rows; a global
            # aggregate → ONE row with count 0 and NULL sum/avg/min/max.
            base = {
                **{f"__s_{c}": [np.nan] for c in need_sum},
                **{f"__c_{c}": [0] for c in need},
                **{f"__mn_{c}": [np.nan] for c in need_mm},
                **{f"__mx_{c}": [np.nan] for c in need_mm},
                **{f"__q_{c}": [np.nan] for c in need_sq},
                **{f"__pn_{_pkey(y, x)}": [0] for (y, x) in need_pairs},
                **{f"__p{sfx}_{_pkey(y, x)}": [np.nan]
                   for (y, x) in need_pairs for sfx in _PAIR_SFX},
                "__n": [0],
            }
            for i, it in fspecs:
                if it["col"] is None:
                    base[f"__n_f{i}"] = [0]
                else:
                    if it["agg"] in _sum_aggs:
                        base[f"__s_f{i}"] = [np.nan]
                    base[f"__c_f{i}"] = [0]
                    if it["agg"] in ("min", "max"):
                        base[f"__mn_f{i}"] = [np.nan]
                        base[f"__mx_f{i}"] = [np.nan]
            if keys and q.get("group_mode"):
                # ROLLUP/CUBE over zero rows: only the grand-total
                # grouping set yields a row (count 0, NULL keys);
                # GROUPING SETS: one such row per requested () set
                mode = q["group_mode"]
                n_tot = (sum(1 for s in mode[1] if not s)
                         if isinstance(mode, tuple) else 1)
                merged = pd.DataFrame(
                    {**{k: [np.nan] * n_tot for k in keys},
                     **{c: v * n_tot for c, v in base.items()}})
            elif keys:
                merged = pd.DataFrame(
                    {**{k: [] for k in keys},
                     **{c: [] for c in base}})
            else:
                merged = pd.DataFrame(base)
        elif keys:
            gb = parts.groupby(keys, dropna=False)

            def _mm_g(colname, how):
                # object-dtype (string) min/max merge: pandas' py
                # fallback can't order str vs the NaN that marks
                # "block had no values for this group" — drop those
                # partials first (min/max skip NULLs anyway)
                s = parts[colname]
                if s.dtype != object:
                    return getattr(gb[colname], how)()
                sub = parts[s.notna()]
                return getattr(
                    sub.groupby(keys, dropna=False)[colname], how)()

            fcols = {}
            for i, it in fspecs:
                if it["col"] is None:
                    fcols[f"__n_f{i}"] = (
                        gb[f"__n_f{i}"].sum().fillna(0))
                else:
                    if it["agg"] in _sum_aggs:
                        fcols[f"__s_f{i}"] = gb[f"__s_f{i}"].sum()
                    fcols[f"__c_f{i}"] = (
                        gb[f"__c_f{i}"].sum().fillna(0))
                    if it["agg"] in ("min", "max"):
                        fcols[f"__mn_f{i}"] = _mm_g(f"__mn_f{i}", "min")
                        fcols[f"__mx_f{i}"] = _mm_g(f"__mx_f{i}", "max")
            merged = pd.DataFrame({
                **{f"__s_{c}": gb[f"__s_{c}"].sum() for c in need_sum},
                **{f"__c_{c}": gb[f"__c_{c}"].sum() for c in need},
                **{f"__mn_{c}": _mm_g(f"__mn_{c}", "min")
                   for c in need_mm},
                **{f"__mx_{c}": _mm_g(f"__mx_{c}", "max")
                   for c in need_mm},
                **{f"__q_{c}": gb[f"__q_{c}"].sum() for c in need_sq},
                **{f"__pn_{_pkey(y, x)}":
                   gb[f"__pn_{_pkey(y, x)}"].sum()
                   for (y, x) in need_pairs},
                **{f"__p{sfx}_{_pkey(y, x)}":
                   gb[f"__p{sfx}_{_pkey(y, x)}"].sum()
                   for (y, x) in need_pairs for sfx in _PAIR_SFX},
                "__n": gb["__n"].sum(),
                **fcols,
            }).reset_index()
        else:
            def _mm_s(colname, how):
                s = parts[colname]
                if s.dtype == object:
                    s = s.dropna()
                    if s.empty:
                        return np.nan
                return getattr(s, how)()

            fcols = {}
            for i, it in fspecs:
                if it["col"] is None:
                    fcols[f"__n_f{i}"] = [
                        int(parts[f"__n_f{i}"].fillna(0).sum())]
                else:
                    if it["agg"] in _sum_aggs:
                        fcols[f"__s_f{i}"] = [parts[f"__s_f{i}"].sum()]
                    fcols[f"__c_f{i}"] = [
                        int(parts[f"__c_f{i}"].fillna(0).sum())]
                    if it["agg"] in ("min", "max"):
                        fcols[f"__mn_f{i}"] = [_mm_s(f"__mn_f{i}", "min")]
                        fcols[f"__mx_f{i}"] = [_mm_s(f"__mx_f{i}", "max")]
            merged = pd.DataFrame({
                **{f"__s_{c}": [parts[f"__s_{c}"].sum()]
                   for c in need_sum},
                **{f"__c_{c}": [parts[f"__c_{c}"].sum()] for c in need},
                **{f"__mn_{c}": [_mm_s(f"__mn_{c}", "min")]
                   for c in need_mm},
                **{f"__mx_{c}": [_mm_s(f"__mx_{c}", "max")]
                   for c in need_mm},
                **{f"__q_{c}": [parts[f"__q_{c}"].sum()]
                   for c in need_sq},
                **{f"__pn_{_pkey(y, x)}":
                   [parts[f"__pn_{_pkey(y, x)}"].sum()]
                   for (y, x) in need_pairs},
                **{f"__p{sfx}_{_pkey(y, x)}":
                   [parts[f"__p{sfx}_{_pkey(y, x)}"].sum()]
                   for (y, x) in need_pairs for sfx in _PAIR_SFX},
                "__n": [parts["__n"].sum()] if len(parts) else [0],
                **fcols,
            })
        if q.get("group_mode") and keys and not parts.empty:
            # ROLLUP / CUBE: every coarser grouping set recomposes from
            # the FINEST level's partial columns (sums add, mins min,
            # maxes max, avg resolves as sum/count later) — no second
            # pass over the input, subtotal keys are SQL's NULLs
            import itertools as _it

            pcols = [c for c in merged.columns if c not in keys]
            def _obj_mm(how):
                def red(x):
                    x = x.dropna()
                    return getattr(x, how)() if len(x) else np.nan
                return red

            aggmap = {}
            for c in pcols:
                if c.startswith(("__mn_",)):
                    aggmap[c] = ("min" if merged[c].dtype != object
                                 else _obj_mm("min"))
                elif c.startswith(("__mx_",)):
                    aggmap[c] = ("max" if merged[c].dtype != object
                                 else _obj_mm("max"))
                else:  # __s_*, __c_*, __n, __n_f*, __s_f*, __c_f*
                    aggmap[c] = "sum"
            if q["group_mode"] == "rollup":
                levels = [keys[:i] for i in range(len(keys) - 1, -1, -1)]
                frames = [merged]
            elif q["group_mode"] == "cube":
                levels = [list(cmb)
                          for r in range(len(keys) - 1, -1, -1)
                          for cmb in _it.combinations(keys, r)]
                frames = [merged]
            else:  # ("sets", [...]): exactly the requested sets — the
                # finest level appears only if it was asked for (a set
                # equal to all keys regroups merged into itself)
                levels = [list(s) for s in q["group_mode"][1]]
                frames = []
            for lv in levels:
                if merged.empty:
                    break
                if lv:
                    sub = (merged.groupby(lv, dropna=False)
                           .agg(aggmap).reset_index())
                else:
                    sub = pd.DataFrame(
                        {c: [op(merged[c]) if callable(op)
                             else getattr(merged[c], op)()]
                         for c, op in aggmap.items()})
                for k in keys:
                    if k not in lv:
                        sub[k] = np.nan
                frames.append(sub[list(merged.columns)])
            merged = pd.concat(frames, ignore_index=True)
        # count(DISTINCT c): exact, via the bucketed distinct on
        # (keys, c) — a separate narrow pass per distinct-agg column
        dcounts = {}
        for it in q["select"]:
            if it["agg"] == "count" and it.get("distinct"):
                from recon_ray.functions.relational import (
                    distinct as _dist,
                )

                c = it["col"]
                if ds is None:
                    dp = pd.DataFrame(
                        {**{k: [] for k in keys}, c: []})
                else:
                    dd = _dist(ds.select_columns(keys + [c]),
                               keys + [c])
                    dp = dd.map_batches(
                        lambda b, c=c: b.dropna(subset=[c]),
                        batch_format="pandas",
                    ).to_pandas()
                if keys:
                    dc = (dp.groupby(keys, dropna=False).size()
                          .rename("__dc").reset_index()
                          if not dp.empty else
                          pd.DataFrame({**{k: [] for k in keys},
                                        "__dc": []}))
                    for k in keys:  # all-NaN object keys decay to float
                        dc[k] = dc[k].astype(merged[k].dtype)
                    dcounts[it["alias"]] = dc
                else:
                    dcounts[it["alias"]] = int(len(dp))
        # approx_count_distinct(col): HLL registers per group — the
        # shuffle (or global reduce) moves 2^p-byte register rows,
        # never values
        hframes = {}
        for it in q["select"]:
            if it["agg"] != "approx_distinct":
                continue
            c = it["col"]
            if ds is None:
                hframes[it["alias"]] = None
            elif keys:
                from recon_ray.functions.sketches import (
                    grouped_hll_distinct,
                )

                if len(keys) != 1:
                    raise SqlError(
                        "approx_count_distinct needs exactly one "
                        "GROUP BY key here")
                hf = grouped_hll_distinct(
                    ds.select_columns(
                        list(dict.fromkeys(keys + [c]))),
                    keys[0], c).to_pandas()
                hframes[it["alias"]] = None if hf.empty else hf
            else:
                from recon_ray.functions.sketches import hll_distinct

                est = hll_distinct(ds.select_columns([c]), c)
                hframes[it["alias"]] = int(round(est["estimate"]))

        # string_agg(col, 'sep' ORDER BY col): ordered concatenation
        # isn't a mergeable partial — one group_concat narrow shuffle
        # per aggregate (per-batch distinct combiner when DISTINCT)
        sframes = {}
        for it in q["select"]:
            if it["agg"] != "string_agg":
                continue
            c = it["col"]
            if ds is None:
                sframes[it["alias"]] = None
            elif keys:
                from recon_ray.functions.relational import group_concat

                gc = group_concat(
                    ds.select_columns(
                        list(dict.fromkeys(keys + [c]))),
                    keys, c, sep=it["sasep"],
                    distinct=it["distinct"], alias="__sa",
                    ascending=it["saasc"]).to_pandas()
                sframes[it["alias"]] = None if gc.empty else gc
            else:
                vp = ds.select_columns([c]).map_batches(
                    lambda b, c=c: (
                        b.dropna(subset=[c]).drop_duplicates()
                        if it["distinct"] else b.dropna(subset=[c])),
                    batch_format="pandas").to_pandas()
                if vp.empty or c not in vp.columns:
                    sframes[it["alias"]] = None
                else:
                    vals = vp[c]
                    if it["distinct"]:
                        vals = vals.drop_duplicates()
                    vals = vals.sort_values(ascending=it["saasc"])
                    sframes[it["alias"]] = it["sasep"].join(vals)
        # arg_max/arg_min(v, by): the winner row isn't a sum — a
        # per-batch argmax combiner slims each batch to ≤1 row per
        # group, then one bucketed narrow shuffle resolves the global
        # winner vectorized (ties on by break to MAX v, deterministic)
        aframes = {}
        for it in q["select"]:
            if it["agg"] not in _ARG_AGGS:
                continue
            v_c, by_c = it["amspec"]
            asc_by = it["agg"] == "arg_min"
            sel = list(dict.fromkeys((keys or []) + [v_c, by_c]))

            def _am_red(b, v_c=v_c, by_c=by_c, asc_by=asc_by):
                b = b[b[v_c].notna() & b[by_c].notna()]
                if b.empty:
                    return b
                b = b.sort_values([by_c, v_c],
                                  ascending=[asc_by, False],
                                  kind="mergesort")
                if keys:
                    return b.groupby(keys, dropna=False).head(1)
                return b.head(1)

            if ds is None:
                aframes[it["alias"]] = (None, v_c)
                continue
            slim = ds.select_columns(sel).map_batches(
                _am_red, batch_format="pandas")
            if keys:
                from recon_ray.functions.relational import (
                    bucketed_group_apply,
                )

                red = bucketed_group_apply(slim, keys, _am_red)
                rp = red.to_pandas()
                aframes[it["alias"]] = (None if rp.empty else rp, v_c)
            else:
                tp = slim.to_pandas()
                if tp.empty or v_c not in tp.columns:
                    # Ray drops all columns on empty datasets
                    aframes[it["alias"]] = (None, v_c)
                else:
                    rp = _am_red(tp)
                    aframes[it["alias"]] = (
                        (None if rp.empty else rp[v_c].iloc[0]), v_c)
        # quantile_disc/cont(col, q): exact order statistics aren't
        # combiner-mergeable — one grouped_quantiles shuffle per column
        qframes = {}
        _q_empty = None
        for it in q["select"]:
            if it["agg"] not in _Q_AGGS:
                continue
            qmode = ("cont" if it["agg"] == "quantile_cont"
                     else "disc")
            if keys and len(keys) != 1:
                raise SqlError(
                    f"{it['agg']} needs exactly one GROUP BY key here")
            if _q_empty is None:
                # runtime emptiness probe, once: the quantile operators
                # (like Ray itself) lose all columns on empty datasets
                _q_empty = ds is None or not ds.limit(1).count()
            if _q_empty:
                qframes[it["alias"]] = None
            elif keys:
                from recon_ray.functions.sketches import grouped_quantiles

                qd = grouped_quantiles(ds, keys[0], it["col"],
                                       [it["qv"]], mode=qmode)
                qframes[it["alias"]] = qd.rename(
                    columns={"value": "__qv"})[[keys[0], "__qv"]]
            else:
                from recon_ray.functions.sketches import exact_quantiles

                vs = exact_quantiles(ds, it["col"], [it["qv"]],
                                     mode=qmode)
                qframes[it["alias"]] = vs[0] if vs else np.nan
        cols = {}
        for _i, it in enumerate(q["select"]):
            a = it["alias"]
            if it.get("postagg"):
                continue  # evaluated below, on the result frame
            if it["agg"] is None:
                cols[a] = merged[it["col"]]
            elif it.get("filter"):
                if it["col"] is None:
                    cols[a] = merged[f"__n_f{_i}"].astype("int64")
                elif it["agg"] == "count":
                    cols[a] = merged[f"__c_f{_i}"].astype("int64")
                elif it["agg"] == "sum":
                    s = merged[f"__s_f{_i}"]
                    cols[a] = s.where(merged[f"__c_f{_i}"] > 0)
                elif it["agg"] == "avg":
                    cols[a] = (merged[f"__s_f{_i}"]
                               / merged[f"__c_f{_i}"].replace(0, np.nan))
                elif it["agg"] == "min":
                    cols[a] = merged[f"__mn_f{_i}"]
                else:
                    cols[a] = merged[f"__mx_f{_i}"]
            elif it["agg"] == "approx_distinct":
                hf = hframes[a]
                if keys:
                    if hf is None:
                        cols[a] = np.zeros(len(merged), dtype="int64")
                    else:
                        hf = hf.copy()
                        hf["estimate"] = hf["estimate"].round()
                        for k_ in keys:
                            hf[k_] = hf[k_].astype(merged[k_].dtype)
                        j = merged[keys].merge(hf, on=keys, how="left")
                        cols[a] = (j["estimate"].fillna(0)
                                   .astype("int64").to_numpy())
                else:
                    cols[a] = pd.Series(
                        [0 if hf is None else hf], dtype="int64")
            elif it["agg"] == "string_agg":
                sf = sframes[a]
                if keys:
                    if sf is None:
                        cols[a] = np.full(len(merged), np.nan)
                    else:
                        sf = sf.copy()
                        for k_ in keys:
                            sf[k_] = sf[k_].astype(merged[k_].dtype)
                        j = merged[keys].merge(sf, on=keys, how="left")
                        cols[a] = j["__sa"].to_numpy()
                else:
                    cols[a] = pd.Series(
                        [np.nan if sf is None else sf])
            elif it["agg"] in _ARG_AGGS:
                af, v_c = aframes[a]
                if keys:
                    if af is None:
                        cols[a] = np.full(len(merged), np.nan)
                    else:
                        af = af[keys + [v_c]].copy()
                        af.columns = keys + ["__am"]
                        for k_ in keys:
                            af[k_] = af[k_].astype(merged[k_].dtype)
                        j = merged[keys].merge(af, on=keys, how="left")
                        cols[a] = j["__am"].to_numpy()
                else:
                    cols[a] = pd.Series([np.nan if af is None else af])
            elif it["agg"] in _Q_AGGS:
                qf = qframes[a]
                if keys:
                    if qf is None:
                        cols[a] = np.full(len(merged), np.nan)
                    else:
                        # an all-NaN key column decays to float64 and
                        # can't merge against an object-dtype key
                        qf = qf.copy()
                        for k_ in keys:
                            qf[k_] = qf[k_].astype(merged[k_].dtype)
                        j = merged[keys].merge(qf, on=keys, how="left")
                        cols[a] = j["__qv"].to_numpy()
                else:
                    cols[a] = pd.Series(
                        [np.nan if qf is None else qf], dtype="float64")
            elif it["agg"] == "count" and it.get("distinct"):
                if keys:
                    j = merged[keys].merge(dcounts[a], on=keys,
                                           how="left")
                    cols[a] = j["__dc"].fillna(0).astype(
                        "int64").to_numpy()
                else:
                    cols[a] = pd.Series([dcounts[a]], dtype="int64")
            elif it["agg"] in _VAR_AGGS:
                # two-pass variance from the (Σx², Σx, n) partials in a
                # FIXED op order — (q − s·s/n) / (n or n−1) — so an
                # oracle spelling the same formula over exact integer
                # sums reproduces the IEEE result bit-for-bit
                c = it["col"]
                n = merged[f"__c_{c}"].astype("float64")
                s = merged[f"__s_{c}"].astype("float64")
                qq = merged[f"__q_{c}"].astype("float64")
                nn = n.replace(0.0, np.nan)
                m2 = (qq - s * s / nn).clip(lower=0.0)
                if it["agg"] in ("var_pop", "stddev_pop"):
                    var = m2 / nn
                else:  # _samp: n=1 → NULL (division by 0 → NaN)
                    var = m2 / (n - 1.0).replace(0.0, np.nan)
                cols[a] = (np.sqrt(var)
                           if it["agg"].startswith("stddev") else var)
            elif it["agg"] in _COV_AGGS:
                # two-pass moments from the six pairwise sum partials,
                # FIXED op order — the oracle spells the identical
                # formula over exact integer sums, so both engines run
                # the same IEEE sequence and the hash is strict.
                # Centered sums: Cxy = Σxy − Σx·Σy/n,
                # Cxx/Cyy floored at 0 like the variance family.
                y, x = it["pair"]
                k = _pkey(y, x)
                n = merged[f"__pn_{k}"].astype("float64")
                sx = merged[f"__px_{k}"].astype("float64")
                sy = merged[f"__py_{k}"].astype("float64")
                nn = n.replace(0.0, np.nan)
                cxy = (merged[f"__pxy_{k}"].astype("float64")
                       - sx * sy / nn)
                cxx = (merged[f"__pxx_{k}"].astype("float64")
                       - sx * sx / nn).clip(lower=0.0)
                cyy = (merged[f"__pyy_{k}"].astype("float64")
                       - sy * sy / nn).clip(lower=0.0)
                fn = it["agg"]
                if fn == "covar_pop":
                    v = cxy / nn
                elif fn == "covar_samp":
                    v = cxy / (n - 1.0).replace(0.0, np.nan)
                elif fn == "corr":
                    den = np.sqrt(cxx * cyy)
                    v = cxy / den.replace(0.0, np.nan)
                elif fn == "regr_slope":
                    v = cxy / cxx.replace(0.0, np.nan)
                elif fn == "regr_intercept":
                    slope = cxy / cxx.replace(0.0, np.nan)
                    v = (sy - slope * sx) / nn
                else:  # regr_r2: NULL when Cxx=0; 1 when Cyy=0
                    ratio = ((cxy * cxy)
                             / (cxx * cyy).replace(0.0, np.nan))
                    v = ratio.where(cyy != 0.0, 1.0).where(cxx > 0.0)
                cols[a] = v
            elif it["agg"] == "count" and it["col"] is None:
                cols[a] = merged["__n"].astype("int64")
            elif it["agg"] == "count":
                cols[a] = merged[f"__c_{it['col']}"].astype("int64")
            elif it["agg"] == "sum":
                s = merged[f"__s_{it['col']}"]
                cols[a] = s.where(merged[f"__c_{it['col']}"] > 0)
            elif it["agg"] == "avg":
                cols[a] = (merged[f"__s_{it['col']}"]
                           / merged[f"__c_{it['col']}"].replace(0, np.nan))
            elif it["agg"] == "min":
                cols[a] = merged[f"__mn_{it['col']}"]
            else:
                cols[a] = merged[f"__mx_{it['col']}"]
        out = pd.DataFrame(cols)
        pa_items = [it for it in q["select"] if it.get("postagg")]
        if pa_items:
            # post-aggregate expressions: vectorized over the
            # groups-sized frame (the hidden __pa aggregates are
            # ordinary result columns here), then restore select order
            for it in pa_items:
                vals = None
                if _expr_is_int(it["postagg"]):
                    # exact path: integer aggregates never roundtrip
                    # through float64 (sums past 2^53 must not round)
                    vals = _eval_postagg_int(out, it["postagg"])
                    if vals is not None and np.ndim(vals) == 0:
                        vals = np.full(len(out), vals, dtype="int64")
                if vals is None:
                    vals = _eval_expr(out, it["postagg"])
                    if _expr_is_int(it["postagg"]) \
                            and not np.any(np.isnan(vals)):
                        # cast-to-bigint over aggregate results stays
                        # int64 (matches DuckDB CAST(sum() AS BIGINT))
                        vals = np.asarray(vals).astype("int64")
                out[it["alias"]] = vals
            out = out[[it["alias"] for it in q["select"]]]

    if q["having"]:
        import operator as _op

        pyops = {"=": _op.eq, "<>": _op.ne, "!=": _op.ne, "<": _op.lt,
                 "<=": _op.le, ">": _op.gt, ">=": _op.ge}
        for col, op, lit in q["having"]:
            out = out[pyops[op](out[col], lit).fillna(False)]
    if q["order_by"]:
        out = out.sort_values(
            [c for c, _ in q["order_by"]],
            ascending=[asc for _, asc in q["order_by"]],
            kind="mergesort",
        )
    if q.get("offset"):
        out = out.iloc[q["offset"]:]
    if q["limit"] is not None:
        out = out.head(q["limit"])
    if q["hidden"]:
        out = out.drop(columns=q["hidden"])
    return out.reset_index(drop=True)


def _fmt_expr(node) -> str:
    k = node[0]
    if k == "col":
        return node[1]
    if k == "lit":
        return repr(node[1])
    if k == "neg":
        return f"-{_fmt_expr(node[1])}"
    if k == "fn":
        return f"round({_fmt_expr(node[2])}, {node[3]})"
    if k == "casex":
        return f"CASE({len(node[1]['whens'])} arms)"
    if k == "cast":
        ty = "bigint" if node[1] == "int" else "double"
        return f"cast({_fmt_expr(node[2])} as {ty})"
    if k == "ufn":
        return f"{node[1]}({_fmt_expr(node[2])})"
    if k == "nfn":
        return f"{node[1]}({', '.join(_fmt_expr(a) for a in node[2])})"
    if k == "xtr":
        return f"extract({node[1]} from {node[2]})"
    if k == "len":
        return f"length({_fmt_strexpr(node[1])})"
    return f"({_fmt_expr(node[2])} {node[1]} {_fmt_expr(node[3])})"


def _fmt_tree(node) -> str:
    k = node[0]
    if k == "pred":
        return _fmt_pred(node[1])
    if k == "not":
        return f"NOT ({_fmt_tree(node[1])})"
    joiner = " AND " if k == "and" else " OR "
    return "(" + joiner.join(_fmt_tree(ch) for ch in node[1]) + ")"


def _fmt_strexpr(node) -> str:
    k = node[0]
    if k == "scol":
        return node[1]
    if k == "slit":
        return f"'{node[1]}'"
    if k == "snum":
        return str(node[1])
    if k == "scat":
        sep = " || " if node[2] == "null" else ", "
        body = sep.join(_fmt_strexpr(a) for a in node[1])
        return body if node[2] == "null" else f"concat({body})"
    return f"{node[1]}({', '.join(_fmt_strexpr(a) for a in node[2])})"


def _fmt_pred(p) -> str:
    kind, col, payload = p
    if isinstance(col, tuple):
        col = _fmt_strexpr(col)
    if kind == "bool":
        return _fmt_tree(payload)
    if kind == "cmp2":
        rhs = (_fmt_strexpr(payload[1])
               if isinstance(payload[1], tuple) else payload[1])
        return f"{col} {payload[0]} {rhs}"
    if kind in _OPS:
        return f"{col} {kind} {payload!r}"
    if kind == "between":
        return f"{col} BETWEEN {payload[0]!r} AND {payload[1]!r}"
    if kind in ("in", "not_in"):
        neg = "NOT " if kind == "not_in" else ""
        return f"{col} {neg}IN ({len(payload)} literals)"
    if kind == "isnull":
        return f"{col} IS NULL"
    if kind == "notnull":
        return f"{col} IS NOT NULL"
    if kind in ("like", "not_like"):
        neg = "NOT " if kind == "not_like" else ""
        return f"{col} {neg}LIKE {payload!r}"
    if kind == "cmp_subq":
        return f"{col} {payload[0]} (scalar subquery)"
    if kind == "exists_subq":
        return "EXISTS (uncorrelated subquery)"
    if kind == "not_exists_subq":
        return "NOT EXISTS (uncorrelated subquery)"
    if kind == "exists_semi":
        return f"EXISTS (correlated on {col}, decorrelated)"
    if kind == "exists_anti":
        return f"NOT EXISTS (correlated on {col}, decorrelated)"
    if kind == "in_subq":
        return f"{col} IN (subquery on {payload[1]['table']})"
    return f"{col} NOT IN (subquery on {payload[1]['table']})"


def explain_sql(sql: str, tables: dict = None,
                broadcast_rows: int = 300_000) -> str:
    """The compiled physical plan as text — which Ray Data operators the
    query maps onto and where the shuffles are. Parses only, executes
    nothing. With ``tables`` (the same dict run_sql takes), the plan
    additionally shows the OPTIMIZER decisions: pushed-down filters and
    the broadcast-vs-shuffle choice from metadata row counts."""
    _stmt = re.sub(r"\s+", " ", sql.strip().rstrip(";")).strip()
    sm = re.match(
        r"^(pivot|unpivot|describe|create|copy|insert|delete|update)\b",
        _stmt, re.I)
    if sm:
        kw = sm.group(1).upper()
        return {
            "INSERT": ("InsertInto [streaming union append onto the "
                       "registered table — script statement, see "
                       "run_sql_script]"),
            "DELETE": ("DeleteWhere [lazy inverted arrow_filter; "
                       "UNKNOWN rows survive — script statement]"),
            "UPDATE": ("UpdateSet [lazy masked derive over the "
                       "registered table — script statement]"),
            "PIVOT": ("Pivot [combiners on (keys, pivot value), ONE "
                      "key shuffle, output-sized reshape]"),
            "UNPIVOT": "Unpivot [per-batch melt; no shuffle]",
            "DESCRIBE": "Describe [schema metadata only; no execution]",
            "CREATE": ("CreateTableAs [registers a LAZY streaming plan "
                       "when streamable, else the result-sized frame — "
                       "script statement, see run_sql_script]"),
            "COPY": ("CopyTo [parquet write straight from the "
                     "streaming executor — script statement, see "
                     "run_sql_script]"),
        }[kw]
    ctes, _stmt = _split_with(_stmt)
    if ctes:
        lines = []
        for name, subtext in ctes:
            lines.append(f"CTE {name} [result-sized, in-memory]:")
            lines.extend(
                "  " + ln for ln in explain_sql(
                    subtext, tables, broadcast_rows).splitlines())
        lines.extend(
            explain_sql(_stmt, tables, broadcast_rows).splitlines())
        return "\n".join(lines)
    sides, all_ = _split_union(_stmt)  # all_ = the set operator
    if len(sides) > 1:
        body, order, limit = _strip_tail(sides[-1])
        plans = [explain_sql(s, tables, broadcast_rows)
                 for s in sides[:-1] + [body]]
        lines = []
        for i, p in enumerate(plans):
            lines.append(f"Side {i + 1}:")
            lines.extend("  " + ln for ln in p.splitlines())
        lines.append({
            "union all": "UnionAll [concat, result-sized]",
            "union": "Union [concat + distinct, result-sized]",
            "intersect": "Intersect [distinct merge, result-sized]",
            "except": "Except [distinct anti-merge, result-sized]",
        }[all_])
        if order:
            lines.append("Sort [" + ", ".join(
                f"{c} {'ASC' if a else 'DESC'}" for c, a in order)
                + "; result-sized]")
        if limit is not None:
            lines.append(f"Limit [{limit}]")
        return "\n".join(lines)
    q = parse_sql(_expand_star(_stmt, tables) if tables is not None
                  else _stmt)
    pushed: dict = {}
    post = q["where"]
    counts: dict = {}

    def _cnt(name):
        t = tables.get(name) if tables else None
        if t is None or t.schema() is None:
            return None
        if name not in counts:
            counts[name] = t.count()
        return counts[name]

    if tables is not None and q["joins"]:
        pushed, post = _pushdown_split(q, tables)
    if isinstance(q["table"], tuple):
        inner = explain_sql(q["table"][1], tables, broadcast_rows)
        lines = ["DerivedTable:"]
        lines.extend("  " + ln for ln in inner.splitlines())
        lines.append("Scan (derived) [in-memory, result-sized]")
        bn = None
    else:
        bn = _cnt(q["table"])
        note = f"; ~{bn} rows" if bn is not None else ""
        lines = [f"Scan {q['table']} [streaming read{note}]"]
    if pushed.get("base"):
        lines.append(
            "  PushedFilter ["
            + " AND ".join(_fmt_pred(p) for p in pushed["base"])
            + "; below the joins]")
    for ji, j in enumerate(q["joins"]):
        on = " AND ".join(f"{a} = {b}" for a, b in j["on"])
        strat = "hash shuffle_join; both sides shuffle"
        if j["how"] == "cross":
            lines.append(
                f"Join {j['table']} [cross; BROADCAST nested loop — "
                f"right side bounded at {broadcast_rows} rows, left "
                "streams]")
            continue
        if j["how"] in ("right_outer", "full_outer"):
            lines.append(
                f"Join {j['table']} [{j['how']} on {on}; hash "
                "shuffle_join — preserved-right joins never "
                "broadcast, and they disable predicate pushdown "
                "(filtered rows would resurface NULL-padded)]")
            continue
        if tables is not None:
            rn = _cnt(j["table"])
            if rn is not None and rn <= broadcast_rows:
                strat = (f"BROADCAST right side (~{rn} rows <= "
                         f"{broadcast_rows}); big side streams")
            elif (j["how"] == "inner" and ji == 0 and bn is not None
                    and bn <= broadcast_rows):
                strat = (f"BROADCAST base side (~{bn} rows, inner "
                         "swap); right side streams")
            elif (rn is not None and pushed.get(ji)
                    and rn <= 20 * broadcast_rows):
                strat = ("filtered-side probe at run time: broadcast "
                         "if it shrinks under the bar, else shuffle")
        lines.append(f"Join {j['table']} [{j['how']} on {on}; {strat}]")
        if pushed.get(ji):
            lines.append(
                "  PushedFilter ["
                + " AND ".join(_fmt_pred(p) for p in pushed[ji])
                + "; below the join]")
    scalars = [p for p in post
               if p[0] not in ("in_subq", "not_in_subq", "cmp_subq",
                               "exists_subq", "not_exists_subq",
                               "exists_semi", "exists_anti")]
    for p in (p for p in post if p[0] == "cmp_subq"):
        lines.append(
            f"ScalarSubquery [{_fmt_pred(p)}; evaluated once, folded "
            "into Filter]")
    for p in (p for p in post
              if p[0] in ("exists_subq", "not_exists_subq")):
        lines.append(
            f"ExistsProbe [{_fmt_pred(p)}; evaluated once at LIMIT 1 — "
            "keep-all or keep-none]")
    if scalars or any(p[0] == "cmp_subq" for p in post):
        shown = [_fmt_pred(p) for p in scalars] or ["<from subquery>"]
        lines.append(
            f"Filter [{' AND '.join(shown)}; zero-copy pyarrow kernels, "
            "no shuffle]")
    for p in (p for p in post
              if p[0] in ("in_subq", "not_in_subq", "exists_semi",
                          "exists_anti")):
        anti = ("anti" if p[0] in ("not_in_subq", "exists_anti")
                else "semi")
        lines.append(
            f"SemiJoin [{_fmt_pred(p)}; hash {anti}-join, both sides "
            "stream]")
    for it in (it for it in q["select"] if it.get("case")):
        n_arms = len(it["case"]["whens"])
        lines.append(
            f"Case [{n_arms} WHEN arm(s)->{it['alias']}; one vectorized "
            "np.select derive pass, first-match, no shuffle]")
    for it in (it for it in q["select"] if it.get("expr")):
        dst = it["alias"] if it["agg"] is None else it["col"]
        lines.append(
            f"Derive [{_fmt_expr(it['expr'])}->{dst}; vectorized numpy "
            "derive pass, no shuffle]")
    win_items = [it for it in q["select"] if it.get("win")]
    if win_items:
        pairs = {}
        for it in win_items:
            w = it["win"]
            pairs.setdefault(
                (w["part"], w["order"], w["asc"]), []).append(
                f"{w['kind']}->{it['alias']}")
        for (part, order, asc), ks in pairs.items():
            d = "" if asc else " DESC"
            lines.append(
                f"Window [PARTITION BY {part} ORDER BY "
                f"{', '.join(order)}{d}: "
                f"{', '.join(ks)}; ONE bucketed hash shuffle]")
        if q.get("qualify") is not None:
            lines.append(
                f"Qualify [{_fmt_tree(q['qualify'])}; pyarrow filter "
                "on the window output, no extra shuffle]")
    aggs = [it for it in q["select"] if it["agg"]]
    if aggs:
        def fmt(a):
            d = "DISTINCT " if a.get("distinct") else ""
            f = " FILTERED" if a.get("filter") is not None else ""
            if a.get("pair"):
                arg = f"{a['pair'][0]}, {a['pair'][1]}"
            elif a.get("amspec"):
                arg = f"{a['amspec'][0]}, {a['amspec'][1]}"
            else:
                arg = (_fmt_expr(a["expr"]) if a.get("expr")
                       else (a["col"] or "*"))
            return f"{a['agg']}({d}{arg}){f}->{a['alias']}"

        by = ", ".join(q["group_by"]) or "<global>"
        lines.append(
            f"Aggregate [keys: {by}; {', '.join(fmt(a) for a in aggs)}; "
            "per-batch combiner partials, groups-sized merge]")
        for a in aggs:
            if a["agg"] == "count" and a.get("distinct"):
                lines.append(
                    f"  DistinctCount [{a['col']}: bucketed exact "
                    "distinct, one extra narrow shuffle]")
        for it in (it for it in q["select"] if it.get("postagg")):
            lines.append(
                f"PostAggregate [{_fmt_expr(it['postagg'])}->"
                f"{it['alias']}; groups-sized vectorized eval]")
    elif q["distinct"]:
        lines.append("Distinct [bucketed exact distinct, one hash "
                     "shuffle]")
    if q["having"]:
        lines.append(
            "Having [" + " AND ".join(
                f"{c} {op} {lit!r}" for c, op, lit in q["having"])
            + "; on the groups-sized result]")
    if q["order_by"]:
        lines.append("Sort [" + ", ".join(
            f"{c} {'ASC' if asc else 'DESC'}" for c, asc in q["order_by"])
            + "; result-sized]")
    if q["limit"] is not None:
        off = f" OFFSET {q['offset']}" if q.get("offset") else ""
        lines.append(f"Limit [{q['limit']}{off}]")
    return "\n".join(lines)


def plan_sql_dataset(sql: str, tables: dict,
                     broadcast_rows: int = 300_000):
    """Compile a STREAMABLE statement to a lazy ``ray.data.Dataset`` —
    nothing executes until the caller consumes it (``write_parquet``,
    ``iter_batches``, an aggregate). Streamable = projections /
    filters / derives / CASE / joins / window functions / DISTINCT /
    [NOT] EXISTS probes, with output columns renamed to their aliases;
    CTEs are allowed (they are result-sized by construction).
    Aggregates, ORDER BY / LIMIT / OFFSET, set operations and
    derived-table bases raise :class:`NotStreamable` — use
    :func:`run_sql` for those (their results are groups-sized or
    require a materialization point anyway)."""
    return run_sql(sql, tables, broadcast_rows, _as_dataset=True)


def _split_stmts(script: str) -> list:
    """Split a script on top-level semicolons (quote-aware)."""
    out, cur, in_q = [], [], False
    for ch in script:
        if ch == "'":
            in_q = not in_q
            cur.append(ch)
        elif ch == ";" and not in_q:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return [s for s in (x.strip() for x in out) if s]


_CTAS_RE = re.compile(
    r"^create\s+(or\s+replace\s+)?table\s+([A-Za-z_]\w*)\s+as\s+(.+)$",
    re.I | re.S)
_INSERT_RE = re.compile(
    r"^insert\s+into\s+([A-Za-z_]\w*)\s+(select\b.+|values\s*\(.+)$",
    re.I | re.S)
_DELETE_RE = re.compile(
    r"^delete\s+from\s+([A-Za-z_]\w*)\s+where\s+(.+)$", re.I | re.S)
_UPDATE_RE = re.compile(
    r"^update\s+([A-Za-z_]\w*)\s+set\s+(.+)$", re.I | re.S)


def _split_set_where(rest: str) -> tuple[str, str | None]:
    """Split an UPDATE's tail into (SET clause, WHERE clause or None)
    with a quote-aware scan — a regex split at ``' where '`` misfires
    on a WHERE inside a string literal (``SET s = 'x where y'``)."""
    low = rest.lower()
    in_q = False
    i = 0
    while i < len(rest):
        ch = rest[i]
        if ch == "'":
            in_q = not in_q
        elif not in_q and low.startswith("where", i):
            before_ok = i == 0 or not (rest[i - 1].isalnum()
                                       or rest[i - 1] == "_")
            j = i + 5
            after_ok = j >= len(rest) or not (rest[j].isalnum()
                                              or rest[j] == "_")
            if before_ok and after_ok:
                return rest[:i].strip(), rest[j:].strip() or None
        i += 1
    return rest.strip(), None


def _parse_where_conds(table: str, cond: str, tables: dict) -> list:
    """Compile a DML WHERE via the normal statement parser (so the
    binder check and the full predicate grammar apply), returning the
    conds list `_compile_pred` takes. Subquery predicates stay out of
    DML scope (they parse, then fail compilation with a clear error)."""
    q = parse_sql(f"select count(*) as __n from {table} where {cond}")
    sch = tables[table].schema()
    if sch is not None:
        refs: set = set()
        for f in q["where"]:
            _pred_cols(f, refs)
        missing = sorted(c for c in refs if isinstance(c, str)
                         and c not in sch.names
                         and not c.startswith("__"))
        if missing:
            raise SqlError(
                f"unknown column(s) {missing} — table has "
                f"{list(sch.names)}")
    return q["where"]


def _parse_values_rows(text: str, names: list) -> pd.DataFrame:
    """``VALUES (a, b), (c, d)`` → frame on the target's columns
    (positional, SQL's rule). Literals only — expressions in VALUES
    are out of scope."""
    rows = []
    for tup in _split_top(text):
        tup = tup.strip()
        if not (tup.startswith("(") and tup.endswith(")")):
            raise SqlError(f"bad VALUES tuple: {tup!r}")
        cells = [c.strip() for c in _split_top(tup[1:-1])]
        if len(cells) != len(names):
            raise SqlError(
                f"VALUES arity {len(cells)} != target arity "
                f"{len(names)} ({names})")
        rows.append([None if c.upper() == "NULL" else _literal(c)
                     for c in cells])
    return pd.DataFrame(rows, columns=names)
_COPY_RE = re.compile(
    r"^copy\s+(?:\(\s*(?P<sel>select\b.+)\)|(?P<tbl>[A-Za-z_]\w*))"
    r"\s+to\s+'(?P<path>[^']+)'\s*$", re.I | re.S)


def run_sql_script(script: str, tables: dict,
                   broadcast_rows: int = 300_000) -> pd.DataFrame:
    """Execute a ``;``-separated SQL script: any number of

    - ``CREATE [OR REPLACE] TABLE name AS <select>`` — registers the
      result for later statements. A streamable select stays a LAZY
      Dataset (re-planned into every consumer — the petabyte-safe
      path); anything else materializes its result-sized frame.
    - ``COPY (<select>) TO 'dir'`` / ``COPY name TO 'dir'`` — writes
      Parquet. A streamable select writes straight from the streaming
      executor (never collected); otherwise the result-sized frame
      writes in one part.
    - plain statements — evaluated with :func:`run_sql`.

    Returns the LAST statement's frame; CREATE/COPY statements yield a
    one-row status frame (so a script ending in COPY reports rows
    written). The registry is scoped to the script — the caller's
    ``tables`` dict is never mutated."""
    import ray.data as _rd

    tables = dict(tables)
    last = pd.DataFrame({"ok": [True]})
    for stmt in _split_stmts(script):
        cm = _CTAS_RE.match(stmt)
        if cm:
            name = cm.group(2).lower()
            if name in tables and not cm.group(1):
                raise SqlError(
                    f"table {name!r} exists (use CREATE OR REPLACE)")
            body = cm.group(3).strip()
            try:
                tables[name] = plan_sql_dataset(body, tables,
                                                broadcast_rows)
                kind = "lazy dataset"
            except NotStreamable:
                tables[name] = _rd.from_pandas(
                    run_sql(body, tables, broadcast_rows))
                kind = "materialized frame"
            last = pd.DataFrame({"table": [name], "kind": [kind]})
            continue
        if re.match(r"^delete\s+from\b", stmt, re.I) \
                and not _DELETE_RE.match(stmt):
            raise SqlError(
                "DELETE needs a WHERE clause (an unconditional delete "
                "empties the table into Ray's schema-less hazard — "
                "use CREATE OR REPLACE TABLE instead)")
        dm = _DELETE_RE.match(stmt)
        if dm:
            # DELETE FROM t WHERE pred: a LAZY inverted filter — rows
            # where pred is TRUE drop, FALSE and UNKNOWN survive
            # (SQL's rule; plain WHERE NOT(pred) would wrongly drop
            # UNKNOWN rows). WHERE is mandatory: an unconditional
            # DELETE empties the table into Ray's schema-less hazard —
            # use CREATE OR REPLACE instead.
            name = dm.group(1).lower()
            if name not in tables:
                raise SqlError(f"unknown DELETE target {name!r}")
            if tables[name].schema() is None:
                # provably empty (e.g. a prior DELETE removed every
                # row): deleting from nothing is a no-op, like SQL
                last = pd.DataFrame({"table": [name],
                                     "kind": ["no-op (empty table)"]})
                continue
            conds = _parse_where_conds(name, dm.group(2), tables)
            pred = _compile_pred(conds)

            def _keep(t: pa.Table, pred=pred) -> pa.Table:
                return t.filter(pc.invert(pred(t)))

            tables[name] = tables[name].map_batches(
                _keep, batch_format="pyarrow", zero_copy_batch=True)
            last = pd.DataFrame({"table": [name],
                                 "kind": ["lazy delete"]})
            continue
        um = _UPDATE_RE.match(stmt)
        if um:
            # UPDATE t SET c = expr [, ...] [WHERE pred]: a LAZY
            # map stage — expressions run through the normal derive
            # evaluator, the mask through the normal predicate
            # compiler; only pred-TRUE rows change. Like a derive, an
            # updated column takes the expression's natural type
            # (integer exprs stay int64, division widens to float).
            name = um.group(1).lower()
            if name not in tables:
                raise SqlError(f"unknown UPDATE target {name!r}")
            sch = tables[name].schema()
            if sch is None:
                # provably empty target: updating zero rows is a no-op
                last = pd.DataFrame({"table": [name],
                                     "kind": ["no-op (empty table)"]})
                continue
            set_part, where_part = _split_set_where(um.group(2))
            assigns = []
            for part in _split_top(set_part):
                am = re.match(r"^([A-Za-z_]\w*)\s*=\s*(.+)$",
                              part.strip(), re.S)
                if not am:
                    raise SqlError(f"bad SET clause: {part!r}")
                col, rhs = am.group(1), am.group(2).strip()
                if col not in sch.names:
                    raise SqlError(
                        f"unknown column {col!r} — table has "
                        f"{list(sch.names)}")
                if rhs.upper() == "NULL":
                    assigns.append((col, "lit", None))
                elif rhs.startswith("'"):
                    assigns.append((col, "lit", _literal(rhs)))
                else:
                    ast = _parse_arith(rhs, {name})
                    refs: set = set()
                    _expr_cols(ast, refs)
                    bad = sorted(c for c in refs
                                 if c not in sch.names)
                    if bad:
                        raise SqlError(
                            f"unknown column(s) {bad} — table has "
                            f"{list(sch.names)}")
                    assigns.append((col, "expr", ast))
            conds = (_parse_where_conds(name, where_part, tables)
                     if where_part else None)
            pred = _compile_pred(conds) if conds else None
            # deterministic output dtype per assigned column so EVERY
            # block leaves with the same schema (a NULL assignment on
            # an int64 column must not upcast only the matched blocks
            # to object/float64): int targets use pandas' nullable
            # Int64 (→ Arrow int64 + nulls), matching SQL's
            # nullable-int semantics
            base_sch = getattr(tables[name].schema(), "base_schema",
                               None)

            def _out_dtype(col, kind, val):
                orig = (base_sch.field(col).type
                        if isinstance(base_sch, pa.Schema)
                        and col in base_sch.names else None)
                if kind == "lit":
                    if isinstance(val, str):
                        return "object"
                    if val is None or isinstance(val, int):
                        if orig is not None and pa.types.is_floating(
                                orig):
                            return "float64"
                        if orig is None or pa.types.is_integer(orig):
                            return "Int64"
                        return None  # string/timestamp: None/NaT ok
                    return "float64"
                # expression: ints stay exact, everything else widens
                # — but never narrow a float column to Int64 just
                # because the expression is statically int (SET f = 1+1
                # on a DOUBLE column keeps the column float64, like the
                # literal branch above)
                if _expr_is_int(val):
                    if orig is not None and pa.types.is_floating(orig):
                        return "float64"
                    return "Int64"
                return "float64"

            out_dtypes = {col: _out_dtype(col, kind, val)
                          for col, kind, val in assigns}

            def _upd(t: pa.Table, pred=pred, assigns=assigns,
                     out_dtypes=out_dtypes) -> pa.Table:
                import numpy as _np

                b = t.to_pandas()
                if pred is not None:
                    m = pred(t).to_numpy(zero_copy_only=False
                                         ).astype(bool)
                else:
                    m = _np.ones(len(b), bool)
                for col, kind, val in assigns:
                    if kind == "lit":
                        b.loc[m, col] = val
                    else:
                        new = pd.Series(_eval_expr(b, val),
                                        index=b.index)
                        if not m.all():
                            out = b[col].where(~m, new)
                        else:
                            out = new
                        b[col] = out
                    dt = out_dtypes.get(col)
                    if dt is not None:
                        try:
                            b[col] = b[col].astype(dt)
                        except (TypeError, ValueError):
                            pass  # non-coercible mix: leave as-is
                return pa.Table.from_pandas(b, preserve_index=False)

            tables[name] = tables[name].map_batches(
                _upd, batch_format="pyarrow")
            last = pd.DataFrame({"table": [name],
                                 "kind": ["lazy update"]})
            continue
        im = _INSERT_RE.match(stmt)
        if im:
            # INSERT INTO t <select> | VALUES (...),(...): appends to a
            # registered table. A streamable select stays LAZY — the
            # target becomes a streaming union, rows never collect —
            # so an append to a petabyte table costs nothing until a
            # consumer runs. Column names must match the target's
            # schema exactly (reordered by name); positional VALUES
            # map onto the target's columns.
            name = im.group(1).lower()
            if name not in tables:
                raise SqlError(f"unknown INSERT target {name!r}")
            tsch = tables[name].schema()
            body = im.group(2).strip()
            if tsch is None and not body.lower().startswith("values"):
                # provably empty target: the inserted select simply
                # BECOMES the table (empty ∪ X = X); the lost schema
                # can't be name-checked, which is exactly why VALUES
                # (positional, schema-dependent) still rejects below
                try:
                    tables[name] = plan_sql_dataset(body, tables,
                                                    broadcast_rows)
                    kind = "lazy append"
                except NotStreamable:
                    tables[name] = _rd.from_pandas(
                        run_sql(body, tables, broadcast_rows))
                    kind = "materialized append"
                last = pd.DataFrame({"table": [name], "kind": [kind]})
                continue
            if tsch is None:
                raise SqlError(
                    f"INSERT target {name!r} is schema-less (empty) — "
                    "positional VALUES need the target schema")
            if body.lower().startswith("values"):
                new_df = _parse_values_rows(
                    body[6:].strip(), list(tsch.names))
                # cast the literal rows to the TARGET schema: pandas
                # inference would type a NULL cell as Arrow null (or
                # object), giving the union inconsistent block schemas
                # and breaking strict consumers (e.g. COPY → parquet
                # raises 'Unsupported cast from int64 to null')
                base = getattr(tsch, "base_schema", None)
                if isinstance(base, pa.Schema):
                    arrays, fields = [], []
                    for f in base:
                        vals = new_df[f.name].tolist()
                        if pa.types.is_null(f.type):
                            # degenerate target type (an all-NULL first
                            # block inferred null): keep the literals'
                            # own inferred type instead of erasing them
                            arr = pa.array(vals)
                        else:
                            try:
                                arr = pa.array(vals, type=f.type)
                            except (pa.ArrowInvalid, pa.ArrowTypeError,
                                    pa.ArrowNotImplementedError):
                                arr = pa.array(vals).cast(f.type)
                        arrays.append(arr)
                        fields.append(pa.field(f.name, arr.type))
                    new_ds = _rd.from_arrow(
                        pa.Table.from_arrays(
                            arrays, schema=pa.schema(fields)))
                else:
                    new_ds = _rd.from_pandas(new_df)
                kind = "values append"
            else:
                try:
                    new_ds = plan_sql_dataset(body, tables,
                                              broadcast_rows)
                    kind = "lazy append"
                except NotStreamable:
                    new_ds = _rd.from_pandas(
                        run_sql(body, tables, broadcast_rows))
                    kind = "materialized append"
                nsch = new_ds.schema()
                if nsch is None:
                    raise SqlError("INSERT select is provably empty")
                if set(nsch.names) != set(tsch.names):
                    raise SqlError(
                        f"INSERT columns {sorted(nsch.names)} != "
                        f"target columns {sorted(tsch.names)}")
                if list(nsch.names) != list(tsch.names):
                    new_ds = new_ds.select_columns(list(tsch.names))
            tables[name] = tables[name].union(new_ds)
            last = pd.DataFrame({"table": [name], "kind": [kind]})
            continue
        pm = _COPY_RE.match(stmt)
        if pm:
            path = pm.group("path")
            if pm.group("sel"):
                try:
                    out_ds = plan_sql_dataset(pm.group("sel"), tables,
                                              broadcast_rows)
                except NotStreamable:
                    out_ds = _rd.from_pandas(
                        run_sql(pm.group("sel"), tables,
                                broadcast_rows))
            else:
                tname = pm.group("tbl").lower()
                if tname not in tables:
                    raise SqlError(f"unknown table {tname!r}")
                out_ds = tables[tname]
            out_ds.write_parquet(path)
            import glob as _glob

            import pyarrow.parquet as _pq

            n = sum(_pq.ParquetFile(f).metadata.num_rows
                    for f in _glob.glob(os.path.join(path, "*.parquet")))
            last = pd.DataFrame({"path": [path],
                                 "rows_written": [int(n)]})
            continue
        last = run_sql(stmt, tables, broadcast_rows)
    return last
