"""Deterministic CSV and JSON writers shared by the emitting modules.

Floats are rendered with 12 significant digits, '.' decimal and ','
separator, so repeated runs with identical inputs produce byte-identical
files.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np


def fmt(value) -> str:
    """Render one value for a summary line the way ``write_csv`` renders it."""
    return format(value, ".12g") if isinstance(value, float) else str(value)


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length columns under ``header``, one line per row.

    A column is an array or a sequence of one kind of value. Float columns
    are rendered with ``%.12g`` (``inf``, ``-inf``, ``nan``, ``-0``),
    every other column (ints, bools, strings) with ``%s``.
    """
    arrays = [np.asarray(column) for column in columns]
    if len({a.shape for a in arrays}) > 1:
        raise ValueError(f"column lengths differ: {[a.shape for a in arrays]}")
    template = ",".join("%.12g" if a.dtype.kind == "f" else "%s"
                        for a in arrays) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(template.__mod__, zip(*(a.tolist() for a in arrays))))


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_sanitize(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sanitize(obj):
    """Make a payload JSON-safe: inf -> 'inf', numpy scalars -> python."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        obj = obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj
