"""Chain data model: tight-binding and lumped-element circuit descriptions.

Units are fixed throughout the package: energies and frequencies in GHz,
inductances in nH, capacitances in fF. Planck's constant is absorbed so
on-site energies are quoted directly in frequency units.

Sites are ordered A1, B1, A2, B2, ... along the chain; cell ``n`` owns the
coupling inductor ``lv[n]`` between its A and B site, and coupling capacitor
``cw[k]`` sits on the bond between site ``2k-1`` and site ``2k`` (0-based),
with ``cw[0]`` and ``cw[N]`` connecting to the terminating coupling sites.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "ChainSpec",
    "CircuitSpec",
    "build_tb_hamiltonian",
    "map_circuit_to_tb",
    "chiral_defect",
    "default_circuit",
]


# values that float() or int() would read but that are not numbers
_NOT_NUMBERS = (str, bytes, bool, np.bool_, complex, np.complexfloating)
# size caps: each is at least 10x the largest input any shipped config or
# benchmark uses, and keeps a mistyped size from exhausting memory
MAX_CELLS = 2048
MAX_POINTS = 1_000_000


def _number(value, name: str, integer: bool = False, allow_inf: bool = False,
            minimum=None, maximum=None):
    """``value`` as a float (an int if ``integer``), else a ValidationError.

    The one reader of the scalars that enter the package from outside, as
    config values or library arguments; every error names ``name``. Text
    is never a number, even ``"401"``, and neither is a boolean
    (``np.bool_`` included); NaN is refused, and so is infinity unless
    ``allow_inf``; an integer is read only from an integral value, never
    truncated, and an int stays exact. numpy integer and float scalars
    are numbers. ``minimum`` and ``maximum`` are inclusive bounds. The
    error carries ``name`` (``ValidationError.name``).
    """
    if isinstance(value, np.ndarray):
        value = value[()]  # a 0-d array as its scalar, np.bool_ included
    try:
        if isinstance(value, _NOT_NUMBERS):
            raise TypeError(value)
        if integer and isinstance(value, (int, np.integer)):
            number = int(value)
        else:
            number = float(value)
            if integer and not number.is_integer():
                raise ValueError(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if integer else "numeric"
        raise ValidationError(f"{name} must be {what}, got {value!r}", name) from None
    if integer:
        number = int(number)
    elif not (math.isfinite(number) or allow_inf and number == math.inf):
        bound = "finite or inf" if allow_inf else "finite"
        raise ValidationError(f"{name} must be {bound}, got {number}", name)
    if minimum is not None and number < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {number}", name)
    if maximum is not None and number > maximum:
        raise ValidationError(f"{name} must be <= {maximum}, got {number}", name)
    return number


def _numbers(values, name: str, allow_inf: bool = False) -> np.ndarray:
    """``values`` as a new float array, each entry read as ``_number`` reads it.

    A numeric ndarray costs one copy and one vectorized finiteness pass;
    anything else is read entry by entry, so ``[8, True]`` and ``["8"]``
    fail by name instead of turning into 1.0 and 8.0.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        arr = np.array(values, dtype=float)
        ok = np.isfinite(arr)
        if allow_inf:
            ok |= arr == math.inf
        if not ok.all():
            _number(arr[~ok][0], name, allow_inf=allow_inf)  # raises
        return arr
    items = np.asarray(values, dtype=object)
    return np.array([_number(x, name, allow_inf=allow_inf) for x in items.flat],
                    dtype=float).reshape(items.shape)


def _matrix(h, even: bool = False) -> np.ndarray:
    """``h`` as a new real, finite, square float array (read by ``_numbers``) of
    positive dimension, even if ``even``; the one reader of an outside Hamiltonian."""
    if np.iscomplexobj(h):
        raise ValidationError("H must be real")
    h = _numbers(h, "H")
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.size == 0 or even and h.shape[0] % 2:
        what = "positive even" if even else "positive"
        raise ValidationError(f"H must be square with {what} dimension, got shape {h.shape}")
    return h


def _site_array(values, length: int, name: str, allow_inf: bool = False,
                positive: bool = False, nonnegative: bool = False) -> np.ndarray:
    """``values`` (see ``_numbers``) as a read-only array of ``length`` entries.

    Scalars broadcast to the full length. Raises ValidationError on
    non-numeric or non-finite entries, shape or sign violations.
    """
    arr = _numbers(values, name, allow_inf)
    if arr.ndim == 0:
        arr = np.full(length, arr)
    if arr.shape != (length,):
        raise ValidationError(
            f"{name} must have length {length}, got shape {arr.shape}", name)
    if positive and not np.all(arr > 0):
        raise ValidationError(f"{name} entries must be > 0", name)
    if nonnegative and np.any(arr < 0):
        raise ValidationError(f"{name} entries must be >= 0", name)
    arr.flags.writeable = False
    return arr


def _json_list(arr: np.ndarray) -> list:
    return [("inf" if math.isinf(x) else float(x)) for x in arr]


def _from_json_values(values, name: str):
    """Read the JSON form's one string, ``"inf"``, as infinity; refuse other
    text with an error naming ``name``."""
    def one(v):
        if isinstance(v, str):
            if v != "inf":
                raise ValidationError(f"{name}: expected a number or 'inf', got {v!r}", name)
            return math.inf
        return v
    return [one(v) for v in values] if isinstance(values, list) else one(values)


class _JsonSpec:
    """JSON form shared by the spec dataclasses.

    ``_JSON_KEYS`` pairs each per-site array field with its JSON key (which
    carries the unit); ``n_cells`` is stored under its own name. The one
    table drives ``to_dict``, ``from_dict``, ``to_json`` and ``from_json``.
    """

    _JSON_KEYS = ()

    @property
    def n_sites(self) -> int:
        return 2 * self.n_cells

    @classmethod
    def _json_keys(cls) -> set:
        """Every key of the JSON form; all are required."""
        return {"n_cells"} | {key for _, key in cls._JSON_KEYS}

    def to_dict(self) -> dict:
        out = {"n_cells": self.n_cells}
        out.update((key, _json_list(getattr(self, name)))
                   for name, key in self._JSON_KEYS)
        return out

    @classmethod
    def from_dict(cls, data: dict):
        allowed = cls._json_keys()
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ValidationError(f"unknown {cls.__name__} keys: {unknown}")
        missing = sorted(allowed - set(data))
        if missing:
            raise ValidationError(f"missing {cls.__name__} keys: {missing}")
        return cls(n_cells=data["n_cells"],
                   **{name: _from_json_values(data[key], name)
                      for name, key in cls._JSON_KEYS})

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class ChainSpec(_JsonSpec):
    """Tight-binding description of a finite chain with two sites per cell.

    Parameters
    ----------
    n_cells : int
        Number of unit cells N; the chain has 2N sites.
    eps : array_like
        2N on-site energies in GHz (a scalar broadcasts).
    v : array_like
        N intra-cell hopping strengths in GHz, >= 0.
    w : array_like
        N-1 inter-cell hopping strengths in GHz, >= 0.
    """

    _JSON_KEYS = (("eps", "eps_GHz"), ("v", "v_GHz"), ("w", "w_GHz"))

    n_cells: int
    eps: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        n = _number(self.n_cells, "n_cells", integer=True, minimum=1, maximum=MAX_CELLS)
        object.__setattr__(self, "n_cells", n)
        object.__setattr__(self, "eps", _site_array(self.eps, 2 * n, "eps"))
        object.__setattr__(self, "v", _site_array(self.v, n, "v", nonnegative=True))
        object.__setattr__(self, "w", _site_array(self.w, max(n - 1, 0), "w", nonnegative=True))


@dataclass(frozen=True)
class CircuitSpec(_JsonSpec):
    """Lumped-element description of the resonator chain.

    Parameters
    ----------
    n_cells : int
        Number of unit cells N.
    c0 : array_like
        2N site capacitances in fF, > 0.
    l0 : array_like
        2N site inductances in nH, > 0.
    lv : array_like
        N coupling inductances in nH, > 0; ``inf`` marks a pinched-off
        junction.
    cw : array_like
        N+1 coupling capacitances in fF, > 0. The outer two belong to the
        terminating coupling sites.
    """

    _JSON_KEYS = (("c0", "c0_fF"), ("l0", "l0_nH"), ("lv", "lv_nH"), ("cw", "cw_fF"))

    n_cells: int
    c0: np.ndarray
    l0: np.ndarray
    lv: np.ndarray
    cw: np.ndarray

    def __post_init__(self):
        n = _number(self.n_cells, "n_cells", integer=True, minimum=1, maximum=MAX_CELLS)
        object.__setattr__(self, "n_cells", n)
        object.__setattr__(self, "c0", _site_array(self.c0, 2 * n, "c0", positive=True))
        object.__setattr__(self, "l0", _site_array(self.l0, 2 * n, "l0", positive=True))
        object.__setattr__(self, "lv", _site_array(self.lv, n, "lv", allow_inf=True, positive=True))
        object.__setattr__(self, "cw", _site_array(self.cw, n + 1, "cw", positive=True))

    def with_lv(self, lv) -> "CircuitSpec":
        """Copy with the coupling-inductance list replaced."""
        return CircuitSpec(self.n_cells, self.c0, self.l0, lv, self.cw)


def default_circuit(n_cells: int = 5, c0_fF: float = 660.0, l0_nH: float = 1.0,
                    cw_fF: float = 30.0, lv_nH: float = math.inf) -> CircuitSpec:
    """Uniform five-cell reference circuit.

    With these values the hopping balance v = w falls at lv = l0*c0/cw
    = 22 nH, and the pinched-off site frequency is close to 6.06 GHz.
    """
    return CircuitSpec(n_cells, c0_fF, l0_nH, lv_nH, cw_fF)


def _hops(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """First off-diagonal of the chain Hamiltonian: v1, w1, v2, w2, ..., vN
    (along the last axis; leading axes are kept)."""
    hop = np.empty(v.shape[:-1] + (v.shape[-1] + w.shape[-1],))
    hop[..., 0::2] = v
    hop[..., 1::2] = w
    return hop


def _assemble_hamiltonian(eps: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The chain Hamiltonian of (eps, v, w); leading axes give a stack of them."""
    sites = np.arange(eps.shape[-1])
    h = np.zeros(eps.shape + sites.shape)
    hop = _hops(v, w)
    h[..., sites, sites] = eps
    h[..., sites[:-1], sites[1:]] = hop
    h[..., sites[1:], sites[:-1]] = hop
    return h


def build_tb_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Assemble the 2N x 2N real-symmetric tri-diagonal chain Hamiltonian.

    The diagonal carries the on-site energies; the first off-diagonal
    alternates v1, w1, v2, w2, ..., vN.
    """
    return _assemble_hamiltonian(spec.eps, spec.v, spec.w)


def _map_arrays(c0: np.ndarray, l0: np.ndarray, lv: np.ndarray, cw: np.ndarray):
    """Raw-array core of the circuit-to-chain mapping; returns (eps, v, w).

    Each array may carry leading axes, which broadcast (one circuit per
    row of a (points, sites) stack); every entry is computed as for one
    circuit alone.
    """
    n = lv.shape[-1]
    # A site of cell k touches cw[k]; B site touches cw[k+1].
    cw_site = np.empty(cw.shape[:-1] + (2 * n,))
    cw_site[..., 0::2] = cw[..., :-1]
    cw_site[..., 1::2] = cw[..., 1:]
    c_t = c0 + cw_site
    lv_site = np.repeat(lv, 2, axis=-1)
    l_t = 1.0 / (1.0 / l0 + 1.0 / lv_site)
    if np.any(c_t <= 0) or np.any(l_t <= 0):
        raise ValidationError("effective L_T and C_T must be positive")
    # nH * fF = 1e-24 s^2, so f[GHz] = 1e3 / (2 pi sqrt(L[nH] C[fF]))
    eps = 1e3 / (2.0 * np.pi * np.sqrt(l_t * c_t))

    v_side = 0.5 * eps * (l_t / lv_site)
    v = 0.5 * (v_side[..., 0::2] + v_side[..., 1::2])

    w_side = 0.5 * eps * (cw_site / c_t)
    w = 0.5 * (w_side[..., 1:-1:2] + w_side[..., 2:-1:2])
    return eps, v, w


def map_circuit_to_tb(spec: CircuitSpec) -> ChainSpec:
    """Map circuit parameters onto tight-binding parameters.

    Per site, the total node capacitance is C_T = C0 + Cw (the one coupling
    capacitor the site touches) and the parallel node inductance is
    L_T = (1/L0 + 1/Lv)^-1, so the site frequency is 1/(2*pi*sqrt(L_T C_T)).
    Hops follow eps = w_site, v = (eps/2)(L_T/Lv), w = (eps/2)(Cw/C_T); a
    bond between two sites with different local frequencies uses the
    arithmetic mean of the two per-site values. Pinched-off cells
    (lv = inf) map to v = 0 exactly.
    """
    eps, v, w = _map_arrays(spec.c0, spec.l0, spec.lv, spec.cw)
    return ChainSpec(n_cells=spec.n_cells, eps=eps, v=v, w=w)


def chiral_defect(h: np.ndarray, eps_ref: float) -> float:
    """Largest-magnitude entry of the anticommutator {Gamma, H - eps_ref*I}.

    Zero iff the shifted Hamiltonian is chiral-symmetric. Same-sublattice
    couplings (e.g. a second-nearest-neighbor bond of strength g) show up
    as 2g.
    """
    h = _matrix(h, even=True)
    signs = np.tile([1.0, -1.0], h.shape[0] // 2)  # the diagonal of Gamma
    shifted = h - _number(eps_ref, "eps_ref") * np.eye(h.shape[0])
    # {Gamma, X}_ij = (g_i + g_j) X_ij, without forming Gamma
    anti = (signs[:, None] + signs) * shifted
    return float(np.max(np.abs(anti)))
