"""Per-partition lineage manifests — the analogue of the reference's
``OperationState`` log + ``commit_hash`` resume contract
(recon/dataset.py:323-383) at partition granularity.

Layout under an output root:

    out/
      symbols/            data/symbols.parquet + manifest.json
      shards/shard=NNNN/  triples/ (sorted canonical parts),
                          insights/coverage/, insights/label_counts.parquet,
                          manifest.json
      triples/            data/ (final sorted canonical triples)
                          + manifest.json

Rules (mirroring recon/dataset.py:353-381 semantics):
- a shard is skipped on resume iff its manifest says COMPLETED, its
  ``args_hash`` matches the current run configuration, and its input
  fingerprint (per-fragment file name/size/row-count) is unchanged —
  externally-edited inputs force recompute, like the reference's
  commit-hash check;
- writes are idempotent under retries: output lands in a temp dir that is
  atomically renamed; the manifest is written LAST, so a crash mid-shard
  leaves no COMPLETED marker.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import pyarrow.parquet as pq

from recon_ray.hashing import stable_u64

COMPLETED = "COMPLETED"
IN_PROGRESS = "IN_PROGRESS"


def fragment_fingerprint(paths: list[str]) -> list[dict]:
    """Cheap per-fragment identity: name + bytes + parquet row count
    (metadata-only read). Detects external edits without re-hashing
    content; the rolled-up content sha lands in the manifest post-run."""
    out = []
    for p in sorted(paths):
        st = os.stat(p)
        nrows = pq.ParquetFile(p).metadata.num_rows
        out.append({"name": os.path.basename(p), "bytes": st.st_size, "rows": nrows})
    return out


@dataclass
class ShardManifest:
    shard_id: int
    status: str
    args_hash: str
    input_fragments: list = field(default_factory=list)
    content_hash_rollup: Optional[str] = None  # order-insensitive u64 (hex)
    n_files: int = 0
    n_mentions: int = 0
    n_triples: int = 0
    n_canonical: int = 0
    elapsed_sec: float = 0.0
    ts: float = 0.0


def manifest_path(shard_dir: str) -> str:
    return os.path.join(shard_dir, "manifest.json")


def write_manifest(shard_dir: str, manifest: ShardManifest) -> None:
    """Atomic: temp file + rename (manifest is the commit record)."""
    os.makedirs(shard_dir, exist_ok=True)
    manifest.ts = time.time()
    fd, tmp = tempfile.mkstemp(dir=shard_dir, suffix=".tmp")
    with os.fdopen(fd, "w") as f:
        json.dump(asdict(manifest), f, indent=1)
    os.replace(tmp, manifest_path(shard_dir))


def load_manifest(shard_dir: str) -> Optional[ShardManifest]:
    p = manifest_path(shard_dir)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return ShardManifest(**json.load(f))


def shard_is_complete(shard_dir: str, args_hash: str, fragments: list[str]) -> bool:
    m = load_manifest(shard_dir)
    if m is None or m.status != COMPLETED or m.args_hash != args_hash:
        return False
    return m.input_fragments == fragment_fingerprint(fragments)


def args_hash_for(config: dict) -> str:
    return f"{stable_u64(json.dumps(config, sort_keys=True)):016x}"


def atomic_output_dir(final_dir: str):
    """Context helper: yield a temp dir; rename to final_dir on success."""

    class _Ctx:
        def __enter__(self):
            self.tmp = final_dir + f".tmp-{os.getpid()}"
            shutil.rmtree(self.tmp, ignore_errors=True)
            os.makedirs(self.tmp, exist_ok=True)
            return self.tmp

        def __exit__(self, exc_type, exc, tb):
            if exc_type is None:
                shutil.rmtree(final_dir, ignore_errors=True)
                os.replace(self.tmp, final_dir)
            else:
                shutil.rmtree(self.tmp, ignore_errors=True)
            return False

    return _Ctx()
