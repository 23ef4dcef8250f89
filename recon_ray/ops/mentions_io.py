"""Arrow ⇄ flat-numpy conversion for the ``mentions`` list<struct> column.

The reference keeps spans as Python lists per Example (recon/types.py:77-96).
Here a batch's mentions live in one Arrow ListArray of structs; kernels
operate on the *flattened* child arrays (numpy / pyarrow.compute) plus a
per-doc length vector — no per-row Python in the vectorizable paths.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

MENTION_TYPE = pa.struct(
    [
        ("text", pa.string()),
        ("start", pa.int32()),
        ("end", pa.int32()),
        ("label", pa.string()),
        ("source", pa.string()),
    ]
)

MENTION_FIELDS = ["text", "start", "end", "label", "source"]


def mentions_list_array(
    lengths: np.ndarray,
    text: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    label: np.ndarray,
    source: np.ndarray,
) -> pa.ListArray:
    offsets = np.zeros(len(lengths) + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    child = pa.StructArray.from_arrays(
        [
            pa.array(text, pa.string()),
            pa.array(start.astype(np.int32), pa.int32()),
            pa.array(end.astype(np.int32), pa.int32()),
            pa.array(label, pa.string()),
            pa.array(source, pa.string()),
        ],
        names=MENTION_FIELDS,
    )
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), child)


def mentions_parts(batch: pa.Table, col: str = "mentions"):
    """→ (lengths, text, start, end, label, source); text/label/source are
    numpy object arrays, start/end int64 numpy, lengths int64 numpy."""
    arr = batch.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    lengths = arr.value_lengths().fill_null(0).to_numpy(zero_copy_only=False)
    child = arr.flatten()
    text = np.asarray(child.field("text").to_pylist(), dtype=object)
    start = child.field("start").to_numpy(zero_copy_only=False).astype(np.int64)
    end = child.field("end").to_numpy(zero_copy_only=False).astype(np.int64)
    label = np.asarray(child.field("label").to_pylist(), dtype=object)
    source = np.asarray(child.field("source").to_pylist(), dtype=object)
    return lengths.astype(np.int64), text, start, end, label, source


def doc_index(lengths: np.ndarray) -> np.ndarray:
    """Per-flat-mention doc index (0..n_docs-1)."""
    return np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
