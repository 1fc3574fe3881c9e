"""Deterministic CSV and JSON writers shared by the emitting modules.

Floats are rendered with 12 significant digits, '.' decimal and ','
separator, so repeated runs with identical inputs produce byte-identical
files.
"""

from __future__ import annotations

import functools
import json
import math
import threading
from types import SimpleNamespace
from typing import Sequence

import numpy as np

# A table with at least this many rows whose columns ``_renderable`` takes
# (float columns, integer ones below 10**12 and ASCII text) is rendered by
# ``_render``: trace CSVs, the sweep mode table and the spectrum, ipr and
# disorder tables of 200 modes or samples and more. On the four-column S21
# traces the two renderers break even at 175-200 rows (a block costs the
# renderer at least ~0.2 ms). Blocks of 2048 rows are written without page
# faults. Longer blocks took up to 15% less time on 4001-row traces, but
# each block's bytes then fault in afresh (500-1,800 minor faults per 11
# such traces), and the workspace grows with the block.
_RENDER_MIN_ROWS = 200
_BLOCK_ROWS = 2048


def fmt(value) -> str:
    """Render one value for a summary line the way ``write_csv`` renders it."""
    return format(value, ".12g") if isinstance(value, float) else str(value)


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length columns under ``header``, one line per row.

    A column is an array or a sequence of one kind of value. Float columns
    are rendered with ``%.12g`` (``inf``, ``-inf``, ``nan``, ``-0``),
    every other column (ints, bools, strings) with ``%s``. A long table of
    float, integer and text columns is rendered in blocks by a vectorized
    renderer that writes the same bytes (see ``_renderable``).
    """
    arrays = [np.asarray(column) for column in columns]
    if len({a.shape for a in arrays}) > 1:
        raise ValueError(f"column lengths differ: {[a.shape for a in arrays]}")
    rows = len(arrays[0]) if arrays else 0
    renderable = _renderable(arrays) if rows >= _RENDER_MIN_ROWS else None
    if renderable is not None:
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            with _workspace_lock:
                for start in range(0, rows, _BLOCK_ROWS):
                    fh.write(_render([a[..., start:start + _BLOCK_ROWS] for a in renderable]))
        return
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        template = ",".join("%.12g" if a.dtype.kind == "f" else "%s"
                            for a in arrays) + "\n"
        fh.writelines(map(template.__mod__, zip(*(a.tolist() for a in arrays))))


def _renderable(arrays):
    """The columns of a table as ``_render`` takes them, or None when a column
    must go through the template.

    Float columns (up to float64) are kept, and so are integer columns whose
    every |k| is below 10**12, where ``'%.12g' % float(k)`` is ``'%s' % k``.
    A text column of ASCII values without NUL (the NULs of a word are
    dropped) becomes its cells' words, (words, rows) uint32, looked up in a
    table of its distinct values. Bools, wider ints, bytes and objects stay
    on the template.
    """
    out = []
    for c, a in enumerate(arrays):
        kind = a.dtype.kind
        if a.ndim != 1:
            return None
        elif kind == "f" and a.dtype.itemsize <= 8:
            out.append(a)
        elif kind in "iu" and -10**12 < int(a.min()) and int(a.max()) < 10**12:
            out.append(a)
        elif kind == "U":
            values, codes = np.unique(a, return_inverse=True)
            texts = [("," if c else "") + text for text in values.tolist()]
            if not all(text.isascii() and "\0" not in text for text in texts):
                return None
            width = -(-max(map(len, texts)) // 4)
            words = np.frombuffer("".join(text.ljust(4 * width, "\0") for text in texts)
                                  .encode(), np.uint32).reshape(len(texts), width)
            out.append(words.T[:, codes.ravel()])
        else:
            return None
    return out


# ------------------------------------------------------------ the renderer
#
# ``_number_words`` writes ``'%.12g' % x`` for every cell, byte for byte.
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
# one (columns, rows) plane of a (words, columns, rows) uint32 array, so
# each numpy pass writes one contiguous plane. ``_render`` stacks the words
# column by column, a text column's among them, and transposes them into
# rows once.
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


# The renderer's workspace: named flat buffers, allocated on first use and
# grown, never shrunk, so that no numpy pass of a block allocates; fresh
# temporaries would be trimmed off the heap after each block and faulted
# back in by the next. Every pass writes through ``out=`` (``np.take`` in
# "clip" mode, as "raise" copies its output first). The lock keeps
# overlapping calls from sharing the buffers.
_workspace = {}
_workspace_lock = threading.Lock()


def _buffers(shape, dtype, *names) -> list:
    """Views of ``shape`` on the workspace buffers ``names``."""
    size = math.prod(shape)
    views = []
    for name in names:
        buffer = _workspace.get(name)
        if buffer is None or buffer.size < size:
            buffer = _workspace[name] = np.empty(size, dtype)
        views.append(buffer[:size].reshape(shape))
    return views


def _bump(index, flag, step, scratch) -> None:
    """index += step where flag; a masked add is ~10x slower on scattered flags."""
    np.copyto(scratch, flag)
    if step != 1:
        np.multiply(scratch, step, out=scratch)
    np.add(index, scratch, out=index)


def _split(r, p, q, scratch) -> None:
    """q, r = divmod(r, p) in place for r >= 0; np.divmod is ~2x slower."""
    np.floor_divide(r, p, out=q)
    np.multiply(q, p, out=scratch)
    np.subtract(r, scratch, out=r)


def _render(columns) -> bytes:
    """The ASCII rows of one block of ``_renderable`` columns: ``'%.12g' %
    float(x)`` for each number and its words for each text cell (a text
    column arrives as its (words, rows) plane, a number column as 1-D)."""
    numbers = [a for a in columns if a.ndim == 1]
    planes = iter(_number_words(numbers, columns[0].ndim == 1) if numbers else ())
    planes = [next(planes) if a.ndim == 1 else a for a in columns]
    stack, = _buffers((sum(map(len, planes)) + 1, columns[0].shape[-1]), np.uint32, "stack")
    k = 0
    for plane in planes:
        np.copyto(stack[k:k + len(plane)], plane)
        k += len(plane)
    stack[k] = _tables().marks[4]
    return stack.T.tobytes().translate(None, b"\0")


def _number_words(columns, first) -> list:
    """The words of the cells of equal-length number columns, a (words, rows)
    plane per column, each cell opened by ',' unless it is in the row's
    ``first`` column (``columns[0]`` if ``first``)."""
    t = _tables()
    ncols, n = len(columns), len(columns[0])
    x, a, frac, m = _buffers((ncols, n), np.float64, "x", "a", "frac", "m")
    e, ef, rest, f15, q, g, s, *lows = _buffers((ncols, n), np.int64, "e", "ef", "rest", "f15",
                                                "q", "g", "s", "low1", "low2", "low3")
    ok, bad, fixed, sci, nonzero, flag = _buffers((ncols, n), np.bool_, "ok", "bad", "fixed",
                                                  "sci", "nonzero", "flag")
    sep, = _buffers((ncols, n), np.uint32, "sep")
    with np.errstate(invalid="ignore"):       # float32 signalling NaNs
        for c, column in enumerate(columns):
            x[c] = column
    # decimal exponent e and 12-digit mantissa m; ok marks the decided cells
    np.right_shift(x.view(np.int64), 52, out=q)
    np.bitwise_and(q, 0x7FF, out=q)
    np.subtract(q, 60, out=q)
    np.less_equal(q.view(np.uint64), 1926, out=ok)     # 60 <= bexp <= 1986
    np.logical_not(ok, out=bad)
    np.abs(x, out=a)
    np.copyto(a, 1.0, where=bad)
    np.right_shift(a.view(np.int64), 52, out=q)
    np.take(t.e_floor, q, out=e, mode="clip")
    np.take(t.e_up, q, out=frac, mode="clip")
    np.greater_equal(a, frac, out=flag)
    _bump(e, flag, 1, s)
    np.add(e, 300, out=q)
    np.take(t.scale, q, out=frac, mode="clip")
    np.multiply(a, frac, out=frac)            # |x|·10**(11-e)
    # m rounds to nearest; a fraction within 1e-3 of 1/2 is not decided (it
    # is within 1e-3 of 1/2 after floor exactly when it is after rint)
    np.rint(frac, out=m)
    np.subtract(frac, m, out=frac)
    np.abs(frac, out=frac)
    np.subtract(0.5, frac, out=frac)
    np.greater(frac, 1e-3, out=flag)
    np.logical_and(ok, flag, out=ok)
    np.equal(m, 1e12, out=flag)               # carries to 1e11 with e + 1
    np.copyto(m, 1e11, where=flag)
    _bump(e, flag, 1, s)
    np.add(e, 4, out=ef)
    np.less(ef.view(np.uint64), 16, out=fixed)  # -4 <= e < 12
    np.logical_and(fixed, ok, out=fixed)
    np.logical_not(ok, out=bad)
    # cell openers '', '-', ',', ',-'
    np.less(x, 0.0, out=flag)
    np.logical_and(flag, ok, out=flag)
    np.copyto(q, flag)
    np.add(q[first:], 2, out=q[first:])
    np.take(t.marks, q, out=sep, mode="clip")

    # one word layout for the block, wide enough for its widest cell
    np.copyto(s, fixed)
    np.multiply(ef, s, out=ef)                # e + 4 for fixed cells, else 0
    np.subtract(15, ef, out=q)
    np.multiply(q, s, out=q)
    hi, lo = int(ef.max()) - 4, 11 - int(q.max())   # -4 and 11 without fixed cells
    n_int = max(0, -(-(hi - 1) // 4))         # words beyond the first two digits
    n_frac = 0 if lo >= 11 else 1 - (lo - 8) // 4
    fixed_width = width = 1 + n_int + n_frac
    np.greater(ok, fixed, out=sci)            # ok and not fixed
    scientific = sci.any()
    if scientific:
        width = max(width, 5)
    fallback = np.flatnonzero(bad)
    texts = [(",%.12g" if i >= first * n else "%.12g") % v
             for i, v in zip(fallback.tolist(), x.ravel()[fallback].tolist())]
    if texts:
        width = max(width, -(-max(map(len, texts)) // 4))
    cells, = _buffers((width, ncols, n), np.uint32, "cells")   # word j of cell (c, i)
    cells[fixed_width:] = 0

    # fixed notation, computed for every cell (the others are overwritten)
    np.take(t.fixed_div, ef, out=frac, mode="clip")
    np.divide(m, frac, out=a)
    np.floor(a, out=a)                        # exact: m < 2**53, div = 10**j
    np.copyto(rest, a, casting="unsafe")
    np.multiply(a, frac, out=frac)
    np.subtract(m, frac, out=frac)
    np.take(t.fixed_mul, ef, out=a, mode="clip")
    np.multiply(frac, a, out=frac)
    np.copyto(f15, frac, casting="unsafe")
    chunks = lows[:n_int]                     # 4-digit groups below the first two digits
    for low in chunks:
        np.copyto(low, rest)
        _split(low, 10**4, rest, s)
    np.add(rest, _LEAD if n_int else _UNIT, out=q)
    np.take(t.digits, q, out=cells[0], mode="clip")
    np.bitwise_or(cells[0], sep, out=cells[0])
    np.greater(rest, 0, out=nonzero)
    for j, chunk in enumerate(reversed(chunks), 1):
        np.add(chunk, _LEAD if j < n_int else _UNIT, out=q)
        np.copyto(q, chunk, where=nonzero)
        np.take(t.digits, q, out=cells[j], mode="clip")
        np.greater(chunk, 0, out=flag)
        np.logical_or(nonzero, flag, out=nonzero)
    if n_frac:
        _split(f15, 10**12, g, s)
        np.equal(f15, 0, out=flag)
        _bump(g, flag, 1000, s)
        np.take(t.dot, g, out=cells[1 + n_int], mode="clip")
        for j, p in enumerate((10**8, 10**4, 1)[:n_frac - 1], 2 + n_int):
            _split(f15, p, g, s)
            np.equal(f15, 0, out=flag)
            _bump(g, flag, _TRAIL, s)
            np.take(t.digits, g, out=cells[j], mode="clip")

    if scientific:      # scientific cells replace theirs, on the span that holds them
        mask = sci.ravel()
        start, stop = int(np.argmax(mask)), mask.size - int(np.argmax(mask[::-1]))
        mask = mask[start:stop]
        mant, d, g1, g2, s = _buffers((stop - start,), np.int64, "mant", "d", "g1", "g2", "s1")
        word, select = _buffers((stop - start,), np.uint32, "word", "select")
        bare2, bare3 = _buffers((stop - start,), np.bool_, "bare2", "bare3")
        np.copyto(select, mask)
        np.negative(select, out=select)       # all ones on scientific cells

        def put(j, table, index):             # word j of the scientific cells
            dst = cells[j].ravel()[start:stop]
            np.take(table, index, out=word, mode="clip")
            np.bitwise_xor(dst, word, out=word)
            np.bitwise_and(word, select, out=word)
            np.bitwise_xor(dst, word, out=dst)
            return dst

        np.copyto(mant, m.ravel()[start:stop], casting="unsafe")
        _split(mant, 10**11, d, s)
        _split(mant, 10**7, g1, s)
        _split(mant, 10**3, g2, s)            # mant keeps the last 3 digits
        np.equal(mant, 0, out=bare3)
        np.equal(g2, 0, out=bare2)
        np.logical_and(bare2, bare3, out=bare2)
        put(3, t.tail, mant)
        _bump(g2, bare3, _TRAIL, s)
        put(2, t.digits, g2)
        np.equal(g1, 0, out=bare3)
        np.logical_and(bare3, bare2, out=bare3)
        _bump(g1, bare2, _TRAIL, s)
        put(1, t.digits, g1)
        _bump(d, bare3, 10, s)
        head = put(0, t.head, d)
        np.bitwise_or(head, sep.ravel()[start:stop], out=head)   # the others hold theirs
        np.add(e.ravel()[start:stop], 300, out=d)
        put(4, t.exponent, d)
        for j in range(5, fixed_width):
            np.copyto(cells[j].ravel()[start:stop], 0, where=mask)
    if texts:                                 # and so do the template's
        text = "".join(cell.ljust(4 * width, "\0") for cell in texts).encode()
        words = np.frombuffer(text, np.uint32).reshape(-1, width)
        for j in range(width):
            cells[j].ravel()[fallback] = words[:, j]

    # the words of each column but those blank in every row
    used = (np.bitwise_or.reduce(cells, axis=2) != 0).T.tolist()
    return [cells[u.index(True):width - u[::-1].index(True), c] for c, u in enumerate(used)]


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
