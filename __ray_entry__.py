"""Driver contract for the Ray-Data-native KG-construction engine.

The driver calls ``ray.init`` itself before importing this module; nothing
here (or in the library) calls ``ray.init``/``ray.shutdown``.

- ``entry()``: flagship KG pipeline over the deterministic synthetic code
  corpus derived from sf0.001 (BASELINE.json input_hint shape) → canonical
  (subj, pred, obj) triples as a pandas DataFrame.
- ``queries()``: one callable per implemented operator/pipeline from
  SURVEY §2 (see recon_ray/pipelines/queries.py).
- ``oracle_sql()``: DuckDB SQL for every SQL-expressible query. KG oracles
  read the sequential reference extractor's gold parquet fixtures (written
  deterministically under /tmp by recon_ray/fixtures.py) — the side-by-side
  compare is therefore the P/R-vs-reference acceptance gate. Non-SQL ops
  (lang-ID, MinHash/SimHash, LSH ANN, fingerprints, centroid norms,
  triple-score) are rows-only by design.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

_DEFAULT_SF = "/root/testdata/sf0.01"


def entry() -> Any:
    from recon_ray import fixtures
    from recon_ray.pipelines.kg import run_kg

    sf_dir = "/root/testdata/sf0.001"
    fixtures.ensure_fixtures(sf_dir)
    res = run_kg(fixtures.files_dir(sf_dir))
    return res["canonical"].to_pandas()


def queries() -> dict[str, Callable[[str], Any]]:
    from recon_ray.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from recon_ray.pipelines.queries import oracles_for

    return oracles_for(_DEFAULT_SF)
