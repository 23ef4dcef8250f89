"""Watermark-based streaming window aggregation — the STATEFUL
streaming analogue of the batch tumbling window
(`pipelines/queries.py:q_events_tumbling_6h`).

The reference has no streaming surface (it is a bounded in-memory
library); this operator exists for the engine's own 100-TB shape: an
event stream that cannot be materialized, arriving as micro-batches
with bounded disorder. The Dataset API cannot express it in one pass
— per-window partial state must live ACROSS batches — so this is the
documented actor escape hatch (SURVEY §4: stateful stages are actors).

Semantics (the Flink/Beam event-time model):

- Tumbling windows ``[k·W, (k+1)·W)`` over an event-time column.
- Each of ``n_partitions`` actors owns a hash slice of the KEY space
  and keeps only its OPEN windows: ``(window_start, key) → [count,
  sum]``. Memory is bounded by the disorder horizon (windows newer
  than the watermark), never by stream length.
- Watermark per actor = ``max(ts seen) − allowed_lateness``. When the
  watermark passes a window's END, the window emits exactly once and
  its state is freed.
- An event for an already-sealed window (``window_end ≤ watermark``
  at arrival) is COUNTED AND DROPPED — the late-data contract.
- With an ordered feed (or ``lateness ≥`` the stream's max disorder)
  the emitted aggregate equals the batch tumbling groupby bit-for-bit
  — that equivalence is the operator's DuckDB oracle
  (`q_events_stream_tumbling_6h`); late-drop behavior is pinned by
  handcrafted out-of-order streams in tests/test_streaming.py.

Scale shape: the driver never touches event data — each Arrow block
splits into per-partition sub-tables in the exchange's split task
(``functions/relational.py:split_blocks``, the same hash rule as the
joins and ``grouped_agg``; per-window rankings pass a window-id rule)
and the sub-table REFS route to actors in submission order
(Ray actors execute a caller's tasks in submission order, so the
ordered feed survives the async pipeline). Emitted windows stay in the
object store (``from_arrow_refs``).

Cross-batch state in every actor is COLUMNAR (pandas frames / numpy
register matrices), and each ingest folds the batch in with one
vectorized concat + groupby — there is no per-(window × key) Python
loop anywhere on the hot path, so a stream keyed by a
row-cardinality column (user_id) costs the same per event as one
keyed by a low-cardinality column (event_type).

``ordered=False`` is the production path: blocks stream straight out
of the execution via ``iter_internal_ref_bundles`` (no sort, no
materialize of the source); results equal the batch aggregate iff
``lateness`` covers the stream's disorder.  ``ordered=True`` is the
deterministic replay mode (global sort first) used for oracle parity.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from recon_ray.functions.relational import hash_buckets, split_blocks


def _dur_us(spec: str) -> int:
    """'6h' / '30m' / '10s' / '250ms' → microseconds."""
    spec = spec.strip().lower()
    for suf, mul in (("ms", 1_000), ("s", 1_000_000),
                     ("m", 60_000_000), ("h", 3_600_000_000),
                     ("d", 86_400_000_000)):
        if spec.endswith(suf) and spec[: -len(suf)].isdigit():
            return int(spec[: -len(suf)]) * mul
    raise ValueError(f"bad duration {spec!r} (use e.g. '6h', '30m')")


def _col_types(ds, cols) -> list:
    """Arrow types of ``cols`` from the Dataset's schema, so emitted
    window rows carry the INPUT key dtypes (an int64 user_id key emits
    int64, not a hard-coded string)."""
    sch = ds.schema()
    m = dict(zip(sch.names, sch.types))
    out = []
    for c in cols:
        t = m.get(c)
        out.append(t if isinstance(t, pa.DataType) else pa.string())
    return out


def ref_bundle_api_available() -> bool:
    """True while Ray Data exposes the DeveloperAPI ``iter_block_refs``
    streams from: ``Dataset.iter_internal_ref_bundles()`` yielding
    bundles with a ``block_refs`` attribute."""
    try:
        from ray.data._internal.execution.interfaces import RefBundle
    except ImportError:
        return False
    return (hasattr(rd.Dataset, "iter_internal_ref_bundles")
            and hasattr(RefBundle, "block_refs"))


def iter_block_refs(ds):
    """Yield ``ds``'s block refs as the executor produces them, in
    dataset order (preserve_order keeps the block order deterministic
    while the executor still streams with backpressure). Unlike
    ``to_arrow_refs()``, this runs a lazy plan once — Ray 2.49's
    ``to_arrow_refs()`` executes it a second time to fetch the schema.
    Without the DeveloperAPI it falls back to the public
    ``materialize().to_arrow_refs()``, which waits for the whole plan."""
    if not ref_bundle_api_available():
        yield from ds.materialize().to_arrow_refs()
        return
    try:
        ds.context.execution_options.preserve_order = True
    except AttributeError:
        pass
    for bundle in ds.iter_internal_ref_bundles():
        yield from bundle.block_refs


def _feed_refs(ds, sort_col: str, ordered: bool):
    """Block refs in feed order. ``ordered=True`` → global sort +
    materialize (the deterministic replay mode; batch-equivalent by
    construction). ``ordered=False`` → STREAM the execution's ref
    bundles as they are produced — no sort, no materialization of the
    source; this is the production path, where backpressure and block
    pipelining stay intact. Either way the blocks are Arrow: a pandas
    block (a ``from_pandas`` source) converts in a whole-block map."""
    if ordered:
        return ds.sort(sort_col).materialize().to_arrow_refs()
    return iter_block_refs(ds.map_batches(
        lambda t: t, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True))


def _emit_schema(key_cols: list[str], key_types=None) -> pa.Schema:
    kts = key_types or [pa.string()] * len(key_cols)
    return pa.schema(
        [("window_start", pa.timestamp("us"))]
        + list(zip(key_cols, kts))
        + [("n_events", pa.int64()), ("total_value", pa.float64())]
    )


@ray.remote
class WindowStateActor:
    """One hash-partition of the key space: open-window partials,
    watermark, late-drop counter. State is a COLUMNAR frame
    (__w, *keys, __n, __s); each ingest folds the batch partial in
    with one vectorized concat + groupby-sum — cost is
    O(open state + batch groups) at numpy speed, independent of key
    cardinality (no per-group Python loop)."""

    def __init__(self, window_us: int, lateness_us: int,
                 ts_col: str, key_cols: list[str], value_col: str,
                 slide_us: "int | None" = None, key_types=None):
        self.w = window_us
        # hopping windows: starts aligned to ``slide``; every event
        # belongs to w/slide overlapping windows. slide == window (the
        # default) degenerates to tumbling.
        self.slide = slide_us or window_us
        if self.w % self.slide:
            raise ValueError("window must be a multiple of slide")
        self.hops = self.w // self.slide
        self.late = lateness_us
        self.ts_col = ts_col
        self.key_cols = list(key_cols)
        self.key_types = key_types
        self.value_col = value_col
        self.state: "pd.DataFrame | None" = None
        self.horizon = None  # emitted-through watermark (us)
        self.max_ts = None
        self.n_dropped = 0
        self.max_open = 0

    def _schema(self) -> pa.Schema:
        return _emit_schema(self.key_cols, self.key_types)

    def _table(self, frame: "pd.DataFrame | None") -> pa.Table:
        sch = self._schema()
        if frame is None or not len(frame):
            return sch.empty_table()
        frame = frame.sort_values(["__w"] + self.key_cols,
                                  kind="mergesort")
        cols = {
            "window_start": pa.array(
                frame["__w"].to_numpy().astype("int64"),
                pa.timestamp("us")),
            "n_events": pa.array(
                frame["__n"].to_numpy().astype("int64"), pa.int64()),
            "total_value": pa.array(
                frame["__s"].to_numpy().astype("float64"),
                pa.float64()),
        }
        for kc, kt in zip(self.key_cols, sch.types[1:1 + len(
                self.key_cols)]):
            cols[kc] = pa.array(frame[kc], type=kt, from_pandas=True)
        return pa.table({f.name: cols[f.name] for f in sch})

    def _emit_ready(self) -> pa.Table:
        if self.max_ts is None:
            return self._schema().empty_table()
        wm = self.max_ts - self.late
        self.horizon = wm
        if self.state is None or not len(self.state):
            return self._schema().empty_table()
        sealed = (self.state["__w"].to_numpy() + self.w) <= wm
        if not sealed.any():
            return self._schema().empty_table()
        emit = self.state[sealed]
        self.state = self.state[~sealed].reset_index(drop=True)
        return self._table(emit)

    def ingest(self, tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return self._schema().empty_table()
        df = tbl.to_pandas()
        ts = (df[self.ts_col].astype("datetime64[us]")
              .astype("int64").to_numpy())
        base = (ts // self.slide) * self.slide
        # one (event, window) assignment per hop — vectorized tile;
        # tumbling (hops == 1) replicates nothing. Lateness applies per
        # ASSIGNMENT: an event can be late for its oldest hop window
        # yet timely for newer ones (n_dropped counts assignments).
        win = np.concatenate(
            [base - k * self.slide for k in range(self.hops)])
        rep = np.tile(np.arange(len(ts)), self.hops)
        if self.horizon is not None:
            late = (win + self.w) <= self.horizon
            n_late = int(late.sum())
            if n_late:
                self.n_dropped += n_late
                keep = ~late
                win, rep = win[keep], rep[keep]
        if len(rep):
            vals = df[self.value_col].to_numpy()
            g = (
                pd.DataFrame({
                    "__w": win,
                    **{k: df[k].to_numpy()[rep]
                       for k in self.key_cols},
                    "__v": vals[rep],
                })
                .groupby(["__w"] + self.key_cols, sort=False)
                .agg(__n=("__v", "size"), __s=("__v", "sum"))
                .reset_index()
            )
            # vectorized cross-batch fold: ONE concat + groupby-sum,
            # no per-(window × key) Python loop
            if self.state is None or not len(self.state):
                self.state = g
            else:
                self.state = (
                    pd.concat([self.state, g], ignore_index=True)
                    .groupby(["__w"] + self.key_cols, sort=False,
                             as_index=False)
                    .agg({"__n": "sum", "__s": "sum"})
                )
            mx = int(ts.max())
            self.max_ts = mx if self.max_ts is None else max(
                self.max_ts, mx)
        out = self._emit_ready()
        # the bounded-state invariant is about what PERSISTS across
        # micro-batches (open windows inside the disorder horizon);
        # within-batch transient entries emit in the same call
        self.max_open = max(
            self.max_open,
            0 if self.state is None else len(self.state))
        return out

    def flush(self) -> pa.Table:
        out = self._table(self.state)
        self.state = None
        return out

    def stats(self) -> dict:
        return {"n_dropped": self.n_dropped, "max_open": self.max_open,
                "open_now": 0 if self.state is None else len(self.state)}


def stream_tumbling_agg(
    ds,
    *,
    ts_col: str = "ts",
    key_cols=("event_type",),
    value_col: str = "value",
    window: str = "6h",
    slide: "str | None" = None,
    lateness: str = "0s",
    n_partitions: int = 8,
    ordered: bool = True,
):
    """Feed a Dataset through key-partitioned window actors in arrival
    order. Returns ``{"result": Dataset of emitted windows,
    "n_late_dropped": int, "max_open_windows": int}``.

    ``slide``: hop interval for HOPPING (sliding) windows — window
    starts align to ``slide`` and every event contributes to
    ``window/slide`` overlapping windows. None (default) = tumbling.

    ``ordered=True`` sorts the stream by event time first — the
    deterministic replay mode (oracle parity; no event is ever late).
    ``ordered=False`` STREAMS blocks as the execution produces them
    (no sort, no source materialization): results equal the batch
    aggregate iff ``lateness`` covers the stream's disorder; beyond
    it, late events are counted and dropped (inspect
    ``n_late_dropped``)."""
    key_cols = list(key_cols)
    w_us, l_us = _dur_us(window), _dur_us(lateness)
    s_us = _dur_us(slide) if slide else None
    key_types = _col_types(ds, key_cols)
    actors = [
        WindowStateActor.remote(w_us, l_us, ts_col, key_cols, value_col,
                                slide_us=s_us, key_types=key_types)
        for _ in range(n_partitions)
    ]
    emitted = []
    for blk in _feed_refs(ds, ts_col, ordered):
        subs = split_blocks([blk], key_cols, n_partitions)
        for i in range(n_partitions):
            emitted.append(actors[i].ingest.remote(subs[i]))
    emitted.extend(a.flush.remote() for a in actors)
    stats = ray.get([a.stats.remote() for a in actors])
    result = rd.from_arrow_refs(emitted)
    return {
        "result": result,
        "n_late_dropped": int(sum(s["n_dropped"] for s in stats)),
        "max_open_windows": int(max(s["max_open"] for s in stats)),
    }


@ray.remote
class SessionStateActor:
    """One hash-partition of the key space for GAP-based session
    windows (the merging-window case tumbling windows don't have).

    Per batch the event rows collapse VECTORIZED into mini-sessions
    (sort + diff + cumsum → one row per contiguous run), and only the
    mini-sessions — sessions-bounded, never event-bounded — merge into
    the open-session state with the textbook interval rule: two
    sessions (or a session and a mini-session) unify when their gap
    distance is ≤ the session gap, so a late event can BRIDGE two open
    sessions into one. A session seals and emits when
    ``last_event + gap ≤ watermark`` (no admissible event can extend
    it: admissible means ``ts ≥ watermark``, which would start a new
    session); late events below the watermark are counted and
    dropped."""

    def __init__(self, gap_us: int, lateness_us: int,
                 ts_col: str, key_col: str, key_type="int64"):
        self.gap = gap_us
        self.late = lateness_us
        self.ts_col = ts_col
        self.key_col = key_col
        # pa.DataType (inferred from the input schema) or the legacy
        # "int64"/"string" strings
        if isinstance(key_type, pa.DataType):
            self.key_pa_type = key_type
        else:
            self.key_pa_type = (pa.int64() if key_type == "int64"
                                else pa.string())
        self.open: dict = {}  # key → sorted list of [start, last, n]
        self.max_ts = None
        self.n_dropped = 0
        self.max_open = 0

    def _schema(self) -> pa.Schema:
        return pa.schema([
            (self.key_col, self.key_pa_type),
            ("session_start", pa.timestamp("us")),
            ("session_end", pa.timestamp("us")),
            ("n_events", pa.int64()),
        ])

    def _table(self, rows) -> pa.Table:
        sch = self._schema()
        if not rows:
            return sch.empty_table()
        return pa.table({
            self.key_col: pa.array([r[0] for r in rows], sch.types[0]),
            "session_start": pa.array([r[1] for r in rows],
                                      pa.timestamp("us")),
            "session_end": pa.array([r[2] for r in rows],
                                    pa.timestamp("us")),
            "n_events": pa.array([r[3] for r in rows], pa.int64()),
        })

    def ingest(self, tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return self._schema().empty_table()
        df = tbl.to_pandas()
        ts = df[self.ts_col].astype("datetime64[us]").astype("int64")
        if self.max_ts is not None:
            horizon = self.max_ts - self.late
            late = ts < horizon
            n_late = int(late.sum())
            if n_late:
                self.n_dropped += n_late
                keep = ~late
                df, ts = df[keep], ts[keep]
        if len(df):
            d = pd.DataFrame({"k": df[self.key_col].to_numpy(),
                              "t": ts.to_numpy()}).sort_values(["k", "t"],
                                                               kind="mergesort")
            brk = d["k"].ne(d["k"].shift()) | (d["t"].diff() > self.gap)
            sid = brk.cumsum()
            mini = d.groupby(sid, sort=False).agg(
                k=("k", "first"), start=("t", "min"),
                last=("t", "max"), n=("t", "size"))
            for k, start, last, n in zip(
                    mini["k"].to_numpy(), mini["start"].to_numpy(),
                    mini["last"].to_numpy(), mini["n"].to_numpy()):
                lst = self.open.setdefault(k, [])
                merged = [int(start), int(last), int(n)]
                rest = []
                for s in lst:
                    if (merged[0] - s[1] > self.gap
                            or s[0] - merged[1] > self.gap):
                        rest.append(s)  # disjoint beyond the gap
                    else:  # bridge/extend: unify intervals and counts
                        merged = [min(merged[0], s[0]),
                                  max(merged[1], s[1]),
                                  merged[2] + s[2]]
                rest.append(merged)
                rest.sort(key=lambda s: s[0])
                self.open[k] = rest
            mx = int(ts.max())
            self.max_ts = mx if self.max_ts is None else max(
                self.max_ts, mx)
        # seal: no admissible event (ts ≥ watermark) can extend a
        # session whose last + gap < watermark
        rows = []
        if self.max_ts is not None:
            wm = self.max_ts - self.late
            for k in list(self.open):
                still = []
                for s in self.open[k]:
                    if s[1] + self.gap < wm:
                        rows.append((k, s[0], s[1], s[2]))
                    else:
                        still.append(s)
                if still:
                    self.open[k] = still
                else:
                    del self.open[k]
        self.max_open = max(self.max_open,
                            sum(len(v) for v in self.open.values()))
        rows.sort()
        return self._table(rows)

    def flush(self) -> pa.Table:
        rows = [(k, s[0], s[1], s[2])
                for k in sorted(self.open) for s in self.open[k]]
        self.open.clear()
        return self._table(rows)

    def stats(self) -> dict:
        return {"n_dropped": self.n_dropped, "max_open": self.max_open,
                "open_now": sum(len(v) for v in self.open.values())}


def stream_session_windows(
    ds,
    *,
    ts_col: str = "ts",
    key_col: str = "user_id",
    gap: str = "30m",
    lateness: str = "0s",
    n_partitions: int = 8,
    ordered: bool = True,
    key_type=None,
):
    """Gap-based streaming sessionization. Returns ``{"result":
    Dataset of (key, session_start, session_end, n_events) rows,
    "n_late_dropped": int, "max_open_sessions": int}``. Same feed
    contract as :func:`stream_tumbling_agg`; an ordered replay (or
    ``lateness`` ≥ the stream's disorder) reproduces the batch
    sessionization exactly — that equivalence is the operator's DuckDB
    oracle (`q_events_stream_sessions`). ``key_type=None`` (default)
    infers the emitted key dtype from the input schema."""
    gap_us, l_us = _dur_us(gap), _dur_us(lateness)
    if key_type is None:
        key_type = _col_types(ds, [key_col])[0]
    actors = [
        SessionStateActor.remote(gap_us, l_us, ts_col, key_col,
                                 key_type)
        for _ in range(n_partitions)
    ]
    emitted = []
    for blk in _feed_refs(ds, ts_col, ordered):
        subs = split_blocks([blk], (key_col,), n_partitions)
        for i in range(n_partitions):
            emitted.append(actors[i].ingest.remote(subs[i]))
    emitted.extend(a.flush.remote() for a in actors)
    stats = ray.get([a.stats.remote() for a in actors])
    return {
        "result": rd.from_arrow_refs(emitted),
        "n_late_dropped": int(sum(s["n_dropped"] for s in stats)),
        "max_open_sessions": int(max(s["max_open"] for s in stats)),
    }


def _hll_estimate_rows(regs: np.ndarray) -> np.ndarray:
    """Bias-corrected HLL estimator, VECTORIZED over a (g, m) register
    matrix — one estimate per row (same form as
    functions/sketches.py:hll_distinct, small-range linear counting)."""
    g, m = regs.shape
    r = regs.astype(np.float64)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -r), axis=1)
    zeros = (regs == 0).sum(axis=1)
    lin = m * np.log(m / np.maximum(zeros, 1))
    return np.where((est <= 2.5 * m) & (zeros > 0), lin, est)


def _lz64(h: np.ndarray, p: int) -> np.ndarray:
    """Leading-zero count of the low (64-p) bits of each uint64 —
    vectorized over the WHOLE batch (one 64-pass bit scan for all
    rows, not one per group)."""
    rest = h << np.uint64(p)
    nbits = 64 - p
    lz = np.full(len(h), nbits, dtype=np.int64)
    cur = rest.copy()
    found = np.zeros(len(h), dtype=bool)
    for b in range(nbits):
        top = (cur >> np.uint64(63)) & np.uint64(1)
        hit = (~found) & (top == 1)
        lz[hit] = b
        found |= hit
        cur = cur << np.uint64(1)
    return lz


@ray.remote
class DistinctWindowActor:
    """Watermarked tumbling windows over COUNT(DISTINCT col): per
    (window, key) the state is either the exact value set
    (``mode="exact"`` — right while per-window cardinality is
    driver-heap-ish) or a 2^p-register HyperLogLog (``mode="hll"`` —
    the 100-TB path: fixed bytes per open window regardless of
    cardinality; registers merge by elementwise max, so disorder and
    re-batching never change the estimate). Same watermark/lateness
    contract as WindowStateActor.

    Both modes keep COLUMNAR state and fold each batch vectorized:
    exact = a unique-rows frame (concat + drop_duplicates); hll = a
    group-keys frame aligned with a 2-D register matrix
    (whole-batch hashing + one scatter-max) — no per-group loop."""

    def __init__(self, window_us: int, lateness_us: int, ts_col: str,
                 key_cols: list[str], distinct_col: str,
                 mode: str = "exact", p: int = 12, key_types=None):
        from recon_ray.functions.sketches import _col_hashes

        self._hashes = _col_hashes
        self.w = window_us
        self.late = lateness_us
        self.ts_col = ts_col
        self.key_cols = list(key_cols)
        self.key_types = key_types
        self.dcol = distinct_col
        self.mode = mode
        self.p = p
        self.m = 1 << p
        # exact: frame of unique (__w, *keys, __v) rows
        self.state: "pd.DataFrame | None" = None
        # hll: group-keys frame (row-aligned with the register matrix)
        self.hkeys: "pd.DataFrame | None" = None
        self.regs: "np.ndarray | None" = None  # (n_groups, m) int8
        self.horizon = None
        self.max_ts = None
        self.n_dropped = 0
        self.max_open = 0

    def _schema(self) -> pa.Schema:
        kts = self.key_types or [pa.string()] * len(self.key_cols)
        return pa.schema(
            [("window_start", pa.timestamp("us"))]
            + list(zip(self.key_cols, kts))
            + [("n_distinct", pa.int64() if self.mode == "exact"
                else pa.float64())]
        )

    def _table(self, frame: "pd.DataFrame | None") -> pa.Table:
        """frame: columns __w, *keys, __d (the per-group value)."""
        sch = self._schema()
        if frame is None or not len(frame):
            return sch.empty_table()
        frame = frame.sort_values(["__w"] + self.key_cols,
                                  kind="mergesort")
        cols = {
            "window_start": pa.array(
                frame["__w"].to_numpy().astype("int64"),
                pa.timestamp("us")),
            "n_distinct": pa.array(frame["__d"].to_numpy(),
                                   sch.types[-1]),
        }
        for kc, kt in zip(self.key_cols,
                          sch.types[1:1 + len(self.key_cols)]):
            cols[kc] = pa.array(frame[kc], type=kt, from_pandas=True)
        return pa.table({f.name: cols[f.name] for f in sch})

    def _n_open(self) -> int:
        if self.mode == "exact":
            if self.state is None or not len(self.state):
                return 0
            return len(self.state[["__w"] + self.key_cols]
                       .drop_duplicates())
        return 0 if self.hkeys is None else len(self.hkeys)

    def ingest(self, tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return self._schema().empty_table()
        df = tbl.to_pandas()
        ts = (df[self.ts_col].astype("datetime64[us]")
              .astype("int64").to_numpy())
        win = (ts // self.w) * self.w
        if self.horizon is not None:
            late = (win + self.w) <= self.horizon
            n_late = int(late.sum())
            if n_late:
                self.n_dropped += n_late
                keep = ~late
                df, ts, win = df[keep], ts[keep], win[keep]
        if len(df):
            gcols = ["__w"] + self.key_cols
            if self.mode == "exact":
                d = pd.DataFrame({
                    "__w": win,
                    **{k: df[k].to_numpy() for k in self.key_cols},
                    "__v": df[self.dcol].to_numpy(),
                }).drop_duplicates()
                if self.state is None or not len(self.state):
                    self.state = d
                else:
                    self.state = pd.concat(
                        [self.state, d],
                        ignore_index=True).drop_duplicates()
            else:
                # whole-batch hashing + leading zeros, then ONE
                # grouped scatter-max into the register matrix
                h = self._hashes(
                    pd.DataFrame({"c": df[self.dcol].to_numpy()}), "c")
                idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
                rank = (_lz64(h, self.p) + 1).astype(np.int8)
                red = (
                    pd.DataFrame({
                        "__w": win,
                        **{k: df[k].to_numpy()
                           for k in self.key_cols},
                        "__idx": idx, "__r": rank,
                    })
                    .groupby(gcols + ["__idx"], sort=False,
                             as_index=False)["__r"].max()
                )
                gdf = red[gcols].drop_duplicates()
                if self.hkeys is None or not len(self.hkeys):
                    self.hkeys = gdf.reset_index(drop=True)
                    self.regs = np.zeros((len(self.hkeys), self.m),
                                         dtype=np.int8)
                else:
                    new = gdf.merge(self.hkeys, on=gcols, how="left",
                                    indicator=True)
                    new = new[new["_merge"] == "left_only"][gcols]
                    if len(new):
                        self.hkeys = pd.concat(
                            [self.hkeys, new],
                            ignore_index=True)
                        self.regs = np.vstack(
                            [self.regs,
                             np.zeros((len(new), self.m),
                                      dtype=np.int8)])
                hk = self.hkeys.reset_index(names="__row")
                pos = red.merge(hk, on=gcols,
                                how="left")["__row"].to_numpy()
                np.maximum.at(
                    self.regs,
                    (pos.astype(np.int64),
                     red["__idx"].to_numpy()),
                    red["__r"].to_numpy())
            mx = int(ts.max())
            self.max_ts = mx if self.max_ts is None else max(
                self.max_ts, mx)
        out = self._emit_ready()
        self.max_open = max(self.max_open, self._n_open())
        return out

    def _emit_ready(self) -> pa.Table:
        if self.max_ts is None:
            return self._schema().empty_table()
        wm = self.max_ts - self.late
        self.horizon = wm
        gcols = ["__w"] + self.key_cols
        if self.mode == "exact":
            if self.state is None or not len(self.state):
                return self._schema().empty_table()
            sealed = (self.state["__w"].to_numpy() + self.w) <= wm
            if not sealed.any():
                return self._schema().empty_table()
            emit = self.state[sealed]
            self.state = self.state[~sealed].reset_index(drop=True)
            counts = (emit.groupby(gcols, sort=False)
                      .size().rename("__d").reset_index())
            return self._table(counts)
        if self.hkeys is None or not len(self.hkeys):
            return self._schema().empty_table()
        sealed = (self.hkeys["__w"].to_numpy() + self.w) <= wm
        if not sealed.any():
            return self._schema().empty_table()
        emit = self.hkeys[sealed].copy()
        emit["__d"] = _hll_estimate_rows(self.regs[sealed])
        self.hkeys = self.hkeys[~sealed].reset_index(drop=True)
        self.regs = self.regs[~sealed]
        return self._table(emit)

    def flush(self) -> pa.Table:
        gcols = ["__w"] + self.key_cols
        if self.mode == "exact":
            if self.state is None or not len(self.state):
                return self._schema().empty_table()
            counts = (self.state.groupby(gcols, sort=False)
                      .size().rename("__d").reset_index())
            self.state = None
            return self._table(counts)
        if self.hkeys is None or not len(self.hkeys):
            return self._schema().empty_table()
        emit = self.hkeys.copy()
        emit["__d"] = _hll_estimate_rows(self.regs)
        self.hkeys, self.regs = None, None
        return self._table(emit)

    def stats(self) -> dict:
        return {"n_dropped": self.n_dropped, "max_open": self.max_open,
                "open_now": self._n_open()}


def stream_distinct_agg(
    ds,
    *,
    ts_col: str = "ts",
    key_cols=("event_type",),
    distinct_col: str = "user_id",
    window: str = "6h",
    lateness: str = "0s",
    mode: str = "exact",
    p: int = 12,
    n_partitions: int = 8,
    ordered: bool = True,
):
    """Watermarked COUNT(DISTINCT) per tumbling window. ``mode="exact"``
    keeps per-window value sets (oracle-able); ``mode="hll"`` keeps
    fixed-size mergeable registers — the scale path (disorder-proof:
    register max is order-free). Same feed contract as
    :func:`stream_tumbling_agg`."""
    key_cols = list(key_cols)
    w_us, l_us = _dur_us(window), _dur_us(lateness)
    key_types = _col_types(ds, key_cols)
    actors = [
        DistinctWindowActor.remote(w_us, l_us, ts_col, key_cols,
                                   distinct_col, mode, p,
                                   key_types=key_types)
        for _ in range(n_partitions)
    ]
    emitted = []
    for blk in _feed_refs(ds, ts_col, ordered):
        subs = split_blocks([blk], key_cols, n_partitions)
        for i in range(n_partitions):
            emitted.append(actors[i].ingest.remote(subs[i]))
    emitted.extend(a.flush.remote() for a in actors)
    stats = ray.get([a.stats.remote() for a in actors])
    return {
        "result": rd.from_arrow_refs(emitted),
        "n_late_dropped": int(sum(s["n_dropped"] for s in stats)),
        "max_open_windows": int(max(s["max_open"] for s in stats)),
    }


def _window_buckets(w_us: int, ts: pa.Table, n_buckets: int) -> np.ndarray:
    """Split rule by WINDOW assignment (floor(ts/w)) — for per-window
    rankings every row of a window must land on one actor (keys alone
    won't do: ranking is global within the window)."""
    ts = (ts.column(0).to_pandas()
          .astype("datetime64[us]").astype("int64").to_numpy())
    return hash_buckets(pd.DataFrame({"w": (ts // w_us) * w_us}), n_buckets)


@ray.remote
class TopKWindowActor:
    """Per-window top-k items. ``mode="exact"``: full item→count state
    per open window (oracle-able; right while per-window cardinality is
    heap-ish). ``mode="mg"``: a Misra-Gries summary of ``capacity``
    counters per window — fixed memory; any item with true frequency
    > window_n/capacity is guaranteed present (the classic heavy-hitter
    bound), so the true top-k survives on skewed streams. Emission
    ranks by (count DESC, item ASC) and keeps k rows per window.

    State is a COLUMNAR (__w, __i, __n) frame; each batch folds in
    with one concat + groupby-sum, and the MG capacity bound applies
    as the standard mergeable-summaries reduction (subtract each
    over-full window's (capacity+1)-th largest count from all of its
    counters, drop non-positive) — fully vectorized, no per-item
    loop."""

    def __init__(self, window_us: int, lateness_us: int, ts_col: str,
                 item_col: str, k: int, mode: str = "exact",
                 capacity: int = 256, item_type=None):
        self.w = window_us
        self.late = lateness_us
        self.ts_col = ts_col
        self.item_col = item_col
        self.k = k
        self.mode = mode
        self.cap = capacity
        self.item_type = item_type or pa.int64()
        self.state: "pd.DataFrame | None" = None  # __w, __i, __n
        self.horizon = None
        self.max_ts = None
        self.n_dropped = 0
        self.max_open = 0

    def _schema(self) -> pa.Schema:
        return pa.schema([
            ("window_start", pa.timestamp("us")),
            ("item", self.item_type),
            ("n", pa.int64()),
        ])

    def _table(self, frame: "pd.DataFrame | None") -> pa.Table:
        sch = self._schema()
        if frame is None or not len(frame):
            return sch.empty_table()
        return pa.table({
            "window_start": pa.array(
                frame["__w"].to_numpy().astype("int64"),
                pa.timestamp("us")),
            "item": pa.array(frame["__i"], type=self.item_type,
                             from_pandas=True),
            "n": pa.array(frame["__n"].to_numpy().astype("int64"),
                          pa.int64()),
        })

    def _rank_topk(self, frame: pd.DataFrame) -> pd.DataFrame:
        """(count DESC, item ASC) rank per window, head k — vectorized
        sort + cumcount."""
        s = frame.sort_values(["__w", "__n", "__i"],
                              ascending=[True, False, True],
                              kind="mergesort")
        pos = s.groupby("__w", sort=False).cumcount()
        return s[pos < self.k]

    def ingest(self, tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return self._schema().empty_table()
        df = tbl.to_pandas()
        ts = (df[self.ts_col].astype("datetime64[us]")
              .astype("int64").to_numpy())
        win = (ts // self.w) * self.w
        if self.horizon is not None:
            late = (win + self.w) <= self.horizon
            n_late = int(late.sum())
            if n_late:
                self.n_dropped += n_late
                keep = ~late
                df, ts, win = df[keep], ts[keep], win[keep]
        if len(df):
            counts = (
                pd.DataFrame({"__w": win,
                              "__i": df[self.item_col].to_numpy()})
                .groupby(["__w", "__i"], sort=False)
                .size().rename("__n").reset_index()
            )
            if self.state is None or not len(self.state):
                self.state = counts
            else:
                self.state = (
                    pd.concat([self.state, counts],
                              ignore_index=True)
                    .groupby(["__w", "__i"], sort=False,
                             as_index=False)["__n"].sum()
                )
            if self.mode == "mg":
                s = self.state
                sizes = s.groupby("__w", sort=False)["__w"].transform(
                    "size")
                if (sizes > self.cap).any():
                    # mergeable-summaries MG reduction: per over-full
                    # window subtract the (cap+1)-th largest count
                    # from every counter; survivors ≤ cap, and each
                    # item's total decrement stays ≤ n/(cap+1) — the
                    # heavy-hitter survival bound holds
                    s = s.sort_values(["__w", "__n"],
                                      ascending=[True, False],
                                      kind="mergesort")
                    pos = s.groupby("__w", sort=False).cumcount()
                    thr = s["__n"].where(pos == self.cap)
                    thr = (thr.groupby(s["__w"].to_numpy())
                           .transform("max").fillna(0).astype("int64"))
                    s = s.assign(__n=s["__n"] - thr)
                    self.state = s[s["__n"] > 0].reset_index(drop=True)
            mx = int(ts.max())
            self.max_ts = mx if self.max_ts is None else max(
                self.max_ts, mx)
        rows = None
        if self.max_ts is not None and self.state is not None \
                and len(self.state):
            wm = self.max_ts - self.late
            sealed = (self.state["__w"].to_numpy() + self.w) <= wm
            self.horizon = wm
            if sealed.any():
                rows = self._rank_topk(self.state[sealed])
                self.state = self.state[~sealed].reset_index(drop=True)
        elif self.max_ts is not None:
            self.horizon = self.max_ts - self.late
        out = self._table(rows)
        self.max_open = max(
            self.max_open,
            0 if self.state is None or not len(self.state)
            else self.state["__w"].nunique())
        return out

    def flush(self) -> pa.Table:
        if self.state is None or not len(self.state):
            return self._schema().empty_table()
        rows = self._rank_topk(self.state)
        self.state = None
        return self._table(rows)

    def stats(self) -> dict:
        return {"n_dropped": self.n_dropped, "max_open": self.max_open,
                "open_now": 0 if self.state is None
                else self.state["__w"].nunique()}


def stream_topk_agg(
    ds,
    *,
    ts_col: str = "ts",
    item_col: str = "user_id",
    window: str = "6h",
    k: int = 5,
    lateness: str = "0s",
    mode: str = "exact",
    capacity: int = 256,
    n_partitions: int = 8,
    ordered: bool = True,
):
    """Watermarked per-window top-k items. Rows split by WINDOW (a
    ranking needs its whole window on one actor), so actors own whole
    windows and emit exactly k (count DESC, item ASC) rows per sealed
    window. ``mode="mg"`` bounds per-window memory with a Misra-Gries
    summary (heavy hitters guaranteed above n/capacity)."""
    w_us, l_us = _dur_us(window), _dur_us(lateness)
    item_type = _col_types(ds, [item_col])[0]
    actors = [
        TopKWindowActor.remote(w_us, l_us, ts_col, item_col, k, mode,
                               capacity, item_type=item_type)
        for _ in range(n_partitions)
    ]
    emitted = []
    for blk in _feed_refs(ds, ts_col, ordered):
        subs = split_blocks([blk], (ts_col,), n_partitions,
                            partial(_window_buckets, w_us))
        for i in range(n_partitions):
            emitted.append(actors[i].ingest.remote(subs[i]))
    emitted.extend(a.flush.remote() for a in actors)
    stats = ray.get([a.stats.remote() for a in actors])
    return {
        "result": rd.from_arrow_refs(emitted),
        "n_late_dropped": int(sum(s["n_dropped"] for s in stats)),
        "max_open_windows": int(max(s["max_open"] for s in stats)),
    }


@ray.remote
class IntervalJoinActor:
    """Stream-stream event-time interval join (the attribution shape):
    emit (left_id, right_id) for every left/right pair of the same KEY
    with ``right.ts ∈ [left.ts, left.ts + horizon]`` — e.g. purchases
    attributed to a preceding view within 24 h.

    Per key the actor buffers BOTH sides inside their liveness
    horizons (a left dies when ``ts + horizon < watermark``, a right
    when ``ts < watermark`` — no admissible future partner exists
    beyond those). Matching is fully vectorized per (key, batch):
    pairs(all) − pairs(buffered-only) via ``searchsorted`` window
    bounds, so each pair emits exactly once no matter which side
    arrives second (disorder within the lateness budget included)."""

    def __init__(self, horizon_us: int, lateness_us: int):
        self.h = horizon_us
        self.late = lateness_us
        # key → (np.ndarray ts, np.ndarray id) per side, ts-sorted
        self.left: dict = {}
        self.right: dict = {}
        # two-input watermark = min(per-side max ts) − lateness (the
        # Flink rule): one stream running ahead must not expire the
        # other's still-admissible partners
        self.max_l = None
        self.max_r = None
        self.n_dropped = 0
        self.max_buffered = 0

    def _wm(self):
        if self.max_l is None or self.max_r is None:
            return None
        return min(self.max_l, self.max_r) - self.late

    @staticmethod
    def _schema() -> pa.Schema:
        return pa.schema([("left_id", pa.int64()),
                          ("right_id", pa.int64())])

    @staticmethod
    def _pairs(lt, li, rt, ri, h):
        """All (left_id, right_id) with rt ∈ [lt, lt+h]; inputs
        ts-sorted per side. Vectorized: per left, a searchsorted
        window over the right array."""
        if not len(lt) or not len(rt):
            return np.empty(0, np.int64), np.empty(0, np.int64)
        lo = np.searchsorted(rt, lt, side="left")
        hi = np.searchsorted(rt, lt + h, side="right")
        counts = hi - lo
        keep = counts > 0
        if not keep.any():
            return np.empty(0, np.int64), np.empty(0, np.int64)
        lo, hi, counts = lo[keep], hi[keep], counts[keep]
        lids = np.repeat(li[keep], counts)
        offs = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])
        return lids, ri[offs]

    def ingest(self, ltbl: pa.Table, rtbl: pa.Table) -> pa.Table:
        # extract (ts, id, key) TOGETHER and apply the late mask to
        # all three, so key alignment never depends on id uniqueness
        la_t, la_i, la_k = self._extract(ltbl)
        ra_t, ra_i, ra_k = self._extract(rtbl)
        wm_in = self._wm()
        if wm_in is not None:
            m = la_t < wm_in
            if m.any():
                self.n_dropped += int(m.sum())
                la_t, la_i, la_k = la_t[~m], la_i[~m], la_k[~m]
            m = ra_t < wm_in
            if m.any():
                self.n_dropped += int(m.sum())
                ra_t, ra_i, ra_k = ra_t[~m], ra_i[~m], ra_k[~m]
        out_l, out_r = [], []
        kl = self._group(la_k, la_t, la_i)
        kr = self._group(ra_k, ra_t, ra_i)
        keys = set(kl) | set(kr)
        for k in keys:
            nlt, nli = kl.get(k, (np.empty(0, np.int64),
                                  np.empty(0, np.int64)))
            nrt, nri = kr.get(k, (np.empty(0, np.int64),
                                  np.empty(0, np.int64)))
            olt, oli = self.left.get(k, (np.empty(0, np.int64),
                                         np.empty(0, np.int64)))
            ort, ori = self.right.get(k, (np.empty(0, np.int64),
                                          np.empty(0, np.int64)))
            alt = np.concatenate([olt, nlt])
            ali = np.concatenate([oli, nli])
            art = np.concatenate([ort, nrt])
            ari = np.concatenate([ori, nri])
            o = np.argsort(alt, kind="stable")
            alt, ali = alt[o], ali[o]
            o = np.argsort(art, kind="stable")
            art, ari = art[o], ari[o]
            # exactly-once: pairs(all) minus pairs(old, old)
            l_all, r_all = self._pairs(alt, ali, art, ari, self.h)
            l_old, r_old = self._pairs(olt, oli, ort, ori, self.h)
            if len(l_old):
                seen = set(zip(l_old.tolist(), r_old.tolist()))
                keep = [j for j in range(len(l_all))
                        if (int(l_all[j]), int(r_all[j])) not in seen]
                l_all, r_all = l_all[keep], r_all[keep]
            out_l.append(l_all)
            out_r.append(r_all)
            self.left[k] = (alt, ali)
            self.right[k] = (art, ari)
        if len(la_t):
            mx = int(la_t.max())
            self.max_l = mx if self.max_l is None else max(
                self.max_l, mx)
        if len(ra_t):
            mx = int(ra_t.max())
            self.max_r = mx if self.max_r is None else max(
                self.max_r, mx)
        # evict dead buffer entries (no admissible future partner)
        wm = self._wm()
        if wm is not None:
            for k in list(self.left):
                t, i = self.left[k]
                m = t + self.h >= wm
                if m.all():
                    continue
                if m.any():
                    self.left[k] = (t[m], i[m])
                else:
                    del self.left[k]
            for k in list(self.right):
                t, i = self.right[k]
                m = t >= wm
                if m.all():
                    continue
                if m.any():
                    self.right[k] = (t[m], i[m])
                else:
                    del self.right[k]
        self.max_buffered = max(
            self.max_buffered,
            sum(len(t) for t, _ in self.left.values())
            + sum(len(t) for t, _ in self.right.values()))
        if out_l:
            lcat = np.concatenate(out_l)
            rcat = np.concatenate(out_r)
        else:
            lcat = rcat = np.empty(0, np.int64)
        return pa.table({"left_id": pa.array(lcat, pa.int64()),
                         "right_id": pa.array(rcat, pa.int64())})

    @staticmethod
    def _extract(tbl: pa.Table):
        if tbl.num_rows == 0:
            return (np.empty(0, np.int64), np.empty(0, np.int64),
                    np.empty(0, object))
        df = tbl.to_pandas()
        ts = (df["__ts"].astype("datetime64[us]")
              .astype("int64").to_numpy())
        return (ts, df["__id"].to_numpy().astype(np.int64),
                df["__k"].to_numpy())

    @staticmethod
    def _group(keys: np.ndarray, ts: np.ndarray, ids: np.ndarray):
        """key → (ts, ids) arrays; inputs are row-aligned (the late
        mask was applied to all three upstream, so no id-based
        re-alignment is ever needed)."""
        out: dict = {}
        if not len(ts):
            return out
        order = np.argsort(keys, kind="stable")
        ks, t_s, i_s = keys[order], ts[order], ids[order]
        bounds = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
        for b, e in zip(bounds, np.r_[bounds[1:], len(ks)]):
            out[ks[b]] = (t_s[b:e], i_s[b:e])
        return out

    def stats(self) -> dict:
        return {"n_dropped": self.n_dropped,
                "max_buffered": self.max_buffered}


def stream_interval_join(
    left_ds,
    right_ds,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    horizon: str = "24h",
    lateness: str = "0s",
    n_partitions: int = 8,
    ordered: bool = True,
):
    """Stream-stream event-time interval join: (left_id, right_id) for
    same-key pairs with ``right.ts ∈ [left.ts, left.ts + horizon]``.
    Both streams hash-split by KEY to the same actor set; each actor
    buffers only events inside their liveness horizons, so memory is
    bounded by (active keys × horizon rate), never stream length.
    Pairs emit exactly once regardless of arrival order within the
    lateness budget. Returns {"result": Dataset(left_id, right_id),
    "n_late_dropped": int, "max_buffered": int}."""
    from itertools import zip_longest

    h_us, l_us = _dur_us(horizon), _dur_us(lateness)
    actors = [IntervalJoinActor.remote(h_us, l_us)
              for _ in range(n_partitions)]

    def prep(ds):
        ds = ds.map_batches(
            lambda t, kc=key_col, tc=ts_col, ic=id_col: pa.table({
                "__k": t.column(kc), "__ts": t.column(tc),
                "__id": t.column(ic)}),
            batch_format="pyarrow", zero_copy_batch=True)
        if ordered:
            ds = ds.sort("__ts")
        # order-preserving coalesce (AFTER the sort): ingest-call
        # count is blocks × partitions, and the per-call buffered-pair
        # subtraction is recomputed per micro-batch — fewer, bigger
        # micro-batches amortize both
        ds = ds.map_batches(lambda t: t, batch_format="pyarrow",
                            batch_size=32768)
        if ordered:
            return ds.materialize().to_arrow_refs()
        return _feed_refs(ds, "__ts", ordered=False)

    lrefs, rrefs = prep(left_ds), prep(right_ds)
    # zip the two streams' blocks into joint micro-batches (pad the
    # shorter side with empty tables)
    empty = pa.table({"__k": pa.array([], pa.int64()),
                      "__ts": pa.array([], pa.timestamp("us")),
                      "__id": pa.array([], pa.int64())})
    emitted = []
    for lb, rb in zip_longest(lrefs, rrefs, fillvalue=None):
        lb = lb if lb is not None else ray.put(empty)
        rb = rb if rb is not None else ray.put(empty)
        lsub = split_blocks([lb], ("__k",), n_partitions)
        rsub = split_blocks([rb], ("__k",), n_partitions)
        for i in range(n_partitions):
            emitted.append(actors[i].ingest.remote(lsub[i], rsub[i]))
    stats = ray.get([a.stats.remote() for a in actors])
    return {
        "result": rd.from_arrow_refs(emitted),
        "n_late_dropped": int(sum(s["n_dropped"] for s in stats)),
        "max_buffered": int(max(s["max_buffered"] for s in stats)),
    }
