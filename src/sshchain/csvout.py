"""Deterministic CSV and JSON writers shared by the emitting modules.

Floats are rendered with 12 significant digits, '.' decimal and ','
separator, so repeated runs with identical inputs produce byte-identical
files.
"""

from __future__ import annotations

import functools
import json
import math
from types import SimpleNamespace
from typing import Sequence

import numpy as np

# A table with at least this many rows, all of whose columns are float, is
# rendered by ``_render_floats``. The only all-float tables written are the
# four-column S21 traces, and on those the two renderers break even at ~150
# rows (the renderer's cost per block starts at ~0.15 ms). Blocks of 2048
# rows ran faster than longer ones (their scratch stays in cache) and bound
# the renderer's memory.
_RENDER_MIN_ROWS = 150
_BLOCK_ROWS = 2048


def fmt(value) -> str:
    """Render one value for a summary line the way ``write_csv`` renders it."""
    return format(value, ".12g") if isinstance(value, float) else str(value)


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length columns under ``header``, one line per row.

    A column is an array or a sequence of one kind of value. Float columns
    are rendered with ``%.12g`` (``inf``, ``-inf``, ``nan``, ``-0``),
    every other column (ints, bools, strings) with ``%s``. A long table of
    float columns only is rendered in blocks by a vectorized renderer that
    writes the same bytes.
    """
    arrays = [np.asarray(column) for column in columns]
    if len({a.shape for a in arrays}) > 1:
        raise ValueError(f"column lengths differ: {[a.shape for a in arrays]}")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        rows = len(arrays[0]) if arrays else 0
        if rows >= _RENDER_MIN_ROWS and all(
                a.dtype.kind == "f" and a.dtype.itemsize <= 8 for a in arrays):
            for start in range(0, rows, _BLOCK_ROWS):
                fh.write(_render_floats([a[start:start + _BLOCK_ROWS] for a in arrays]))
            return
        template = ",".join("%.12g" if a.dtype.kind == "f" else "%s"
                            for a in arrays) + "\n"
        fh.writelines(map(template.__mod__, zip(*(a.tolist() for a in arrays))))


# ------------------------------------------------------------ float renderer
#
# ``_render_floats`` writes ``'%.12g' % x`` for every cell, byte for byte.
# Each finite |x| in [2**-963, 2**964) (about 1.3e-290 to 1.6e290) is split
# into a decimal exponent e and a 12-digit mantissa m = round(|x|·10**(11-e))
# in [1e11, 1e12):
#
# - e starts from floor((b - 1023)·log10 2) for the binary exponent b, which
#   is the decade of |x| or one below it; one comparison with the correctly
#   rounded 10**(e+1) settles it. Where that rounding puts |x| on the wrong
#   side of the power, m rounds to 1e11 or carries to it: the same cell.
# - |x|·10**(11-e) uses a correctly rounded power of ten, so the product is
#   within 2**-52 relative, i.e. 2.2e-4 absolute below 1e12, of the exact
#   one. When its fraction lies more than 1e-3 from 1/2 it rounds as the
#   exact product would; m = 1e12 carries to 1e11 with e + 1.
#
# Zero, -0, inf, nan, values outside that range and fractions within 1e-3
# of 1/2 (where the rounding cannot be decided from the product, and ties
# round half to even) go through the template one at a time.
#
# Every cell is a run of 4-byte words of ASCII and NUL bytes; the NULs
# (blanked leading zeros, stripped trailing zeros, an absent sign) are
# deleted when the block is joined. Word j of every cell of a block sits in
# one row of a (words, rows) uint32 array, so each numpy pass runs over the
# rows, and the array is transposed once at the end.
#
#   fixed (-4 <= e < 12), K integer and F fraction words:
#       [sep sign i i] [i i i i]*K [. f f f] [f f f f]*(F-1)
#   scientific:
#       [sep sign d .] [d d d d] [d d d d] [d d d e] [± x x x]
#   fallback: the template's text, cut into words.


_FULL, _LEAD, _UNIT, _TRAIL = 0, 10000, 20000, 30000      # variants of the digit words


@functools.cache
def _tables() -> SimpleNamespace:
    """The renderer's lookup tables, built once per process on first use (~2 ms).

    Words are native uint32 holding 4 ASCII or NUL bytes.
    """
    # characters are built as (4, entries): one row per byte of the word
    ascii_ = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1) + np.uint8(ord("0"))
    lead = ascii_ == ord("0")                   # leading zeros
    trail = lead.copy()                         # trailing zeros
    for j in range(1, 4):
        lead[j] &= lead[j - 1]
        trail[3 - j] &= trail[4 - j]
    unit = lead.copy()                          # leading zeros but the units digit
    unit[3] = False
    # 4 digits: full, and blanked by lead, unit and trail
    digits = np.concatenate([ascii_, ascii_ * ~lead, ascii_ * ~unit, ascii_ * ~trail], axis=1)
    # '.ddd', and (+1000) with trailing zeros blanked, the '.' too when all three are
    dot = ascii_[:, :1000].copy()
    dot[0] = ord(".")
    dot = np.concatenate([dot, dot * ~trail[[1, 1, 2, 3], :1000]], axis=1)
    # 'ddde' with trailing zeros blanked
    tail = np.roll(ascii_[:, :1000], -1, axis=0)
    tail[3] = ord("e")
    tail[:3] *= ~trail[1:, :1000]
    # NUL NUL d '.', and (+10) without the '.'
    head = np.zeros((4, 20), np.uint8)
    head[2] = ascii_[3, np.arange(20) % 10]
    head[3, :10] = ord(".")
    # exponents -300..300: sign and 2 or 3 digits
    e = np.arange(-300, 301)
    exps = np.zeros((4, e.size), np.uint8)
    exps[0] = np.where(e < 0, ord("-"), ord("+"))
    e = np.abs(e)
    exps[1:, e >= 100] = ascii_[1:, e[e >= 100]]
    exps[1:3, e < 100] = ascii_[2:, e[e < 100]]
    # cell openers '', '-', ',', ',-' and the row end
    marks = np.array([[0, 45, 44, 44, 10], [0, 0, 0, 45, 0], [0] * 5, [0] * 5])

    def words(chars):
        chars = np.asarray(chars, dtype=np.uint8)
        out = np.empty((chars.shape[1], 4), np.uint8)
        for j in range(4):
            out[:, j] = chars[j]
        return out.view(np.uint32).ravel()

    pow10 = np.array([float(f"1e{k}") for k in range(-308, 312)])   # 10**k at k + 308
    # by biased binary exponent b: floor((b - 1023)·log10 2), and 10**(that + 1)
    e_floor = np.floor((np.arange(2048) - 1023) * math.log10(2.0)).astype(np.intp)
    return SimpleNamespace(
        digits=words(digits), dot=words(dot), tail=words(tail), head=words(head),
        exponent=words(exps), marks=words(marks),
        e_floor=e_floor, e_up=pow10[e_floor + 309],
        scale=pow10[319 - np.arange(-300, 301)],          # 10**(11-e) at e + 300
        fixed_div=pow10[319 - np.arange(-4, 12)],         # 10**(11-e) at e + 4
        fixed_mul=pow10[312 + np.arange(-4, 12)],         # 10**(4+e) at e + 4
    )


def _render_floats(columns) -> str:
    """Rows of ``'%.12g' % float(x)`` cells for equal-length float columns."""
    t = _tables()
    with np.errstate(invalid="ignore"):       # float32 signalling NaNs
        x = np.array(columns, dtype=np.float64)
    ncols, n = x.shape
    # decimal exponent e and 12-digit mantissa m; ok marks the decided cells
    bexp = (x.view(np.int64) >> 52) & 0x7FF
    ok = (bexp - 60).view(np.uint64) <= 1926  # 60 <= bexp <= 1986
    a = np.abs(x)
    a[~ok] = 1.0
    bexp = a.view(np.int64) >> 52
    e = t.e_floor[bexp] + (a >= t.e_up[bexp])
    prod = a * t.scale[e + 300]
    m = np.floor(prod)
    frac = prod - m
    ok &= np.abs(frac - 0.5) > 1e-3
    m += frac > 0.5
    carry = m == 1e12
    m -= 9e11 * carry
    e += carry
    fixed = ok & (e >= -4) & (e < 12)
    sci = np.divmod(np.flatnonzero(ok & ~fixed), n)
    fallback = np.divmod(np.flatnonzero(~ok), n)
    opener = ((x < 0) & ok).astype(np.intp)
    opener[1:] += 2
    sep = t.marks[opener]

    # one word layout for the block, wide enough for its widest cell
    ef = np.where(fixed, e, -4)
    hi, lo = int(ef.max()), int(np.where(fixed, e, 11).min())
    n_int = max(0, -(-(hi - 1) // 4))         # words beyond the first two digits
    n_frac = 0 if lo >= 11 else 1 - (lo - 8) // 4
    width = 1 + n_int + n_frac
    if sci[0].size:
        width = max(width, 5)
    texts = [(",%.12g" if c else "%.12g") % v
             for c, v in zip(fallback[0].tolist(), x[fallback].tolist())]
    if texts:
        width = max(width, -(-max(map(len, texts)) // 4))
    out = np.zeros((ncols * width + 1, n), np.uint32)
    cells = out[:-1].reshape(ncols, width, n)

    # fixed notation, computed for every cell (the others are overwritten)
    ef += 4
    div = t.fixed_div[ef]
    ip = np.floor(m / div)                    # exact: m < 2**53, div = 10**j
    f15 = ((m - ip * div) * t.fixed_mul[ef]).astype(np.int64)
    rest = ip.astype(np.int64)
    low = []
    for _ in range(n_int):
        q = rest // 10**4
        low.append(rest - q * 10**4)
        rest = q
    cells[:, 0] = t.digits[rest + (_LEAD if n_int else _UNIT)] | sep
    nonzero = rest > 0
    for j, chunk in enumerate(reversed(low), 1):
        blank = _LEAD if j < n_int else _UNIT
        cells[:, j] = t.digits[chunk + np.where(nonzero, _FULL, blank)]
        nonzero |= chunk > 0
    if n_frac:
        g = f15 // 10**12
        r = f15 - g * 10**12
        cells[:, 1 + n_int] = t.dot[g + 1000 * (r == 0)]
        for j, p in enumerate((10**8, 10**4, 1)[:n_frac - 1], 2 + n_int):
            g = r // p
            r -= g * p
            cells[:, j] = t.digits[g + _TRAIL * (r == 0)]

    if sci[0].size:                           # scientific cells replace theirs
        c, i = sci
        r = m[sci].astype(np.int64)
        d = r // 10**11
        r -= d * 10**11
        g1 = r // 10**7
        r -= g1 * 10**7
        g2 = r // 10**3
        g3 = r - g2 * 10**3
        bare3 = g3 == 0
        bare2 = bare3 & (g2 == 0)
        cells[c, :, i] = 0
        cells[c, 0, i] = t.head[d + 10 * (bare2 & (g1 == 0))] | sep[sci]
        cells[c, 1, i] = t.digits[g1 + _TRAIL * bare2]
        cells[c, 2, i] = t.digits[g2 + _TRAIL * bare3]
        cells[c, 3, i] = t.tail[g3]
        cells[c, 4, i] = t.exponent[e[sci] + 300]
    if texts:                                 # and so do the template's
        text = "".join(cell.ljust(4 * width, "\0") for cell in texts).encode()
        cells[fallback[0], :, fallback[1]] = np.frombuffer(text, np.uint32).reshape(-1, width)
    out[-1] = t.marks[4]
    out = out[out.any(axis=1)]               # words blank in every row
    return out.T.tobytes().translate(None, b"\0").decode("ascii")


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
