"""Generate docs/OPERATORS.md — the query-surface inventory: every
queries() entry with its oracle status and first docstring line.
Run: python tools/gen_operators_md.py   (requires a Ray session-free env;
the import is enough, nothing executes)."""

from __future__ import annotations

import sys

sys.path.insert(0, ".")

import __ray_entry__ as entry  # noqa: E402


def first_line(fn) -> str:
    d = (fn.__doc__ or "").strip()
    if not d:
        return ""
    # compress the whole first sentence onto one line
    words = d.split()
    out = []
    for w in words:
        out.append(w)
        if w.endswith("."):
            break
    s = " ".join(out)
    return s if len(s) < 160 else s[:157] + "..."


def render() -> str:
    """The text of docs/OPERATORS.md for the current registry."""
    qs = entry.queries()
    oracles = entry.oracle_sql()
    groups: dict[str, list[str]] = {}
    for name, fn in qs.items():
        prefix = name.split("_", 1)[0]
        gate = "SQL oracle (rows+schema+value-hash)" if name in oracles \
            else "rows-only (pytest-verified)"
        groups.setdefault(prefix, []).append(
            f"| `{name}` | {gate} | {first_line(fn)} |"
        )
    lines = [
        "# Query / operator inventory",
        "",
        "Auto-generated by `tools/gen_operators_md.py` from the driver",
        "contract (`__ray_entry__.queries()` / `oracle_sql()`). Every row is",
        "exercised by the driver's side-by-side correctness gate at sf0.01;",
        "`tools/check_oracles.py` replicates that gate locally at any scale.",
        "",
        f"**{len(qs)} queries, {len(oracles)} SQL-oracled.** The",
        "rows-only entries are genuinely non-SQL-expressible (iterative ML,",
        "LSH, hashes DuckDB can't reproduce) and are pinned by pytest",
        "instead — each docstring says which test.",
        "",
    ]
    order = ["q", "kg", "doc", "emb", "knn", "media"]
    titles = {
        "q": "Relational / events (TPC-H-style)",
        "kg": "Knowledge-graph construction + graph analytics",
        "doc": "Documents: text analysis, dedup, curation",
        "emb": "Embeddings: ANN, clustering, ML",
        "knn": "Similarity search",
        "media": "Multimodal (binary payload) stages",
    }
    for p in order + sorted(set(groups) - set(order)):
        if p not in groups:
            continue
        lines += [f"## {titles.get(p, p)}", "",
                  "| query | correctness gate | what it does |",
                  "|---|---|---|"]
        lines += sorted(groups[p])
        lines.append("")
    return "\n".join(lines)


def main() -> None:
    with open("docs/OPERATORS.md", "w") as f:
        f.write(render())
    print(f"wrote docs/OPERATORS.md ({len(entry.queries())} queries)")


if __name__ == "__main__":
    main()
