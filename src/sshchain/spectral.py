"""Eigendecomposition, bulk/edge mode classification and coupling sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .chain import (
    ChainSpec,
    CircuitSpec,
    _assemble_hamiltonian,
    _map_arrays,
    _matrix,
    _number,
    _numbers,
)
from .csvout import write_csv
from .errors import NumericalError, ValidationError

__all__ = [
    "Spectrum",
    "ModeClassification",
    "SweepPoint",
    "eigendecompose",
    "classify_modes",
    "sweep_coupling",
    "find_fsr_crossing",
    "write_sweep_csv",
    "LABEL_BULK_LOWER",
    "LABEL_EDGE",
    "LABEL_BULK_UPPER",
    "PHASE_TOPOLOGICAL",
    "PHASE_NORMAL",
    "PHASE_TRIVIAL",
]

LABEL_BULK_LOWER = "bulk-lower"
LABEL_EDGE = "edge"
LABEL_BULK_UPPER = "bulk-upper"

PHASE_TOPOLOGICAL = "topological"
PHASE_NORMAL = "normal"
PHASE_TRIVIAL = "trivial"

# One FSR is called dominant when the other is below this fraction of it.
PHASE_RATIO = 0.2

_SYMMETRY_TOL = 1e-10
_ORTHO_TOL = 1e-9
_RECON_TOL = 1e-8

# the columns every phase summary CSV ends with; see _phase_columns
_PHASE_HEADER = ["fsr_edge_bulk_GHz", "fsr_edge_edge_GHz", "phase_tag"]


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues with sign-fixed orthonormal eigenvectors.

    Column k of ``eigenvectors`` belongs to ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        ev = np.array(self.eigenvalues, dtype=float, copy=True)
        vec = np.array(self.eigenvectors, dtype=float, copy=True)
        ev.flags.writeable = False
        vec.flags.writeable = False
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "eigenvectors", vec)

    @property
    def n_sites(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class ModeClassification:
    """Per-mode bulk/edge labels plus the free-spectral-range summary.

    ``fsr_edge_bulk`` is the larger of the two edge-to-bulk gaps; the
    per-side values are kept alongside because the two sides differ for
    disordered chains.
    """

    labels: tuple
    fsr_edge_bulk: float
    fsr_edge_edge: float
    fsr_edge_bulk_lower: float
    fsr_edge_bulk_upper: float
    phase_tag: str


@dataclass(frozen=True)
class SweepPoint:
    """One coupling-sweep sample: applied lv, mapped chain and results."""

    lv_nH: float
    chain: ChainSpec
    spectrum: Spectrum
    classification: ModeClassification


def _spectra(h: np.ndarray) -> tuple:
    """Eigendecompose a stack of real symmetric matrices, shape (points, n, n).

    One stacked ``np.linalg.eigh`` (each matrix gets the LAPACK call it
    would get alone, so the results are those of one call per matrix);
    a solver failure raises NumericalError. Each eigenvector is then
    scaled so its largest-magnitude component is positive (first such
    component on ties), and every point must pass both guards:
    max |V^T V - I| <= 1e-9 and max |H - V diag(lambda) V^T| <= 1e-8, else
    NumericalError quotes the first point that fails (a NaN fails both, so
    H, the eigenvalues and the eigenvectors are finite). Returns the
    eigenvalues (points, n) and eigenvectors (points, n, n).
    """
    try:
        evals, evecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from None
    lead = np.argmax(np.abs(evecs), axis=-2)[..., None, :]
    signs = np.sign(np.take_along_axis(evecs, lead, axis=-2))
    signs[signs == 0] = 1.0
    evecs *= signs

    # the guards work in place: at most two (points, n, n) stacks besides h and V
    gram = np.matmul(evecs.swapaxes(-1, -2), evecs)
    np.einsum("...ii->...i", gram)[...] -= 1.0  # a writeable view of each diagonal
    ortho = np.max(np.abs(gram, out=gram), axis=(-2, -1))
    recon = np.matmul(evecs * evals[..., None, :], evecs.swapaxes(-1, -2), out=gram)
    recon = np.max(np.abs(np.subtract(h, recon, out=recon), out=recon), axis=(-2, -1))
    # NaN-aware: a non-finite H, eigenvalue or eigenvector fails both
    bad = np.flatnonzero(~((ortho <= _ORTHO_TOL) & (recon <= _RECON_TOL)))
    if bad.size:
        k = bad[0]
        raise NumericalError(
            f"eigendecomposition failed invariants: ortho={ortho[k]:.3e}, recon={recon[k]:.3e}")
    return evals, evecs


def eigendecompose(h: np.ndarray) -> Spectrum:
    """Dense symmetric eigendecomposition with deterministic vector signs.

    H must be real, finite and symmetric within 1e-10. Each eigenvector is
    scaled so its largest-magnitude component is positive (first such
    component on ties), making degenerate subspaces reproducible across
    runs; the solve and its guards are those of every sweep point
    (``_spectra``).
    """
    h = _matrix(h)
    asym = float(np.max(np.abs(h - h.T)))
    if asym > _SYMMETRY_TOL:
        raise ValidationError(
            f"H is not symmetric: max |H - H^T| = {asym:.3e} exceeds {_SYMMETRY_TOL}")
    evals, evecs = _spectra(h[None])
    return Spectrum(eigenvalues=evals[0], eigenvectors=evecs[0])


_LABELS = np.array([LABEL_BULK_LOWER, LABEL_EDGE, LABEL_BULK_UPPER], dtype=object)


def _classify(evals: np.ndarray, eps_ref: np.ndarray) -> list:
    """``classify_modes`` of each row of ``evals`` (points, n) about its
    ``eps_ref``, for n >= 4 and finite references."""
    points = evals.shape[0]
    rows = np.arange(points)[:, None]
    ref = eps_ref[:, None]
    order = np.argsort(np.abs(evals - ref), axis=-1, kind="stable")
    edge_idx = np.sort(order[:, :2], axis=-1)
    edge = np.zeros(evals.shape, dtype=bool)
    edge[rows, edge_idx] = True
    lower = ~edge & (evals < ref)
    upper = ~edge & ~lower
    labels = _LABELS[np.where(edge, 1, np.where(lower, 0, 2))].tolist()

    edge_lo, edge_hi = evals[rows, edge_idx].T
    top_lower = np.max(np.where(lower, evals, -np.inf), axis=-1)
    bottom_upper = np.min(np.where(upper, evals, np.inf), axis=-1)
    fsr_lower = np.where(lower.any(axis=-1), edge_lo - top_lower, 0.0).tolist()
    fsr_upper = np.where(upper.any(axis=-1), bottom_upper - edge_hi, 0.0).tolist()
    fsr_edge = (edge_hi - edge_lo).tolist()

    classes = []
    for k in range(points):
        fsr_edge_bulk = max(fsr_lower[k], fsr_upper[k])
        if fsr_edge[k] < PHASE_RATIO * fsr_edge_bulk:
            phase = PHASE_TOPOLOGICAL
        elif fsr_edge_bulk < PHASE_RATIO * fsr_edge[k]:
            phase = PHASE_TRIVIAL
        else:
            phase = PHASE_NORMAL
        classes.append(ModeClassification(
            labels=tuple(labels[k]),
            fsr_edge_bulk=fsr_edge_bulk,
            fsr_edge_edge=fsr_edge[k],
            fsr_edge_bulk_lower=fsr_lower[k],
            fsr_edge_bulk_upper=fsr_upper[k],
            phase_tag=phase,
        ))
    return classes


def _check_modes(dim: int) -> None:
    if dim < 4:
        raise ValidationError(f"n_cells must be >= 2 to classify modes, got {dim} modes", "n_cells")


def classify_modes(spectrum: Spectrum, eps_ref: float) -> ModeClassification:
    """Label the two modes nearest ``eps_ref`` as edge, the rest as bulk.

    Proximity to the reference energy (not localization) identifies the
    edge pair so the labels stay meaningful in the trivial phase, where
    the pair degenerates into ordinary band-edge modes. A non-finite
    ``eps_ref`` raises ValidationError.
    """
    evals = spectrum.eigenvalues
    _check_modes(evals.size)
    eps_ref = _number(eps_ref, "eps_ref")
    return _classify(evals[None], np.array([eps_ref]))[0]


# Entries of one (points, n, n) stack of a block: the block's scratch is a
# few such stacks, ~2 MB each, whatever the sweep's length.
_BLOCK_ENTRIES = 1 << 18


def _block_slices(points: int, n_sites: int):
    """Consecutive slices of ``points`` sweep points, each one block: as many
    points as fit ``_BLOCK_ENTRIES`` matrix entries, and at least one."""
    size = max(1, _BLOCK_ENTRIES // (n_sites * n_sites))
    return (slice(k, min(k + size, points)) for k in range(0, points, size))


def _frozen(cls, **fields):
    """A ``cls`` with ``fields`` set as they are: no ``__post_init__`` reads
    or copies them. Only for values that passed every check of ``cls``."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


def _classified_block(c0, l0, lv, cw) -> list:
    """Map, diagonalize and classify a block of circuits about their mean site
    energies; the arrays are (points, ...) stacks or broadcast against them.

    Returns one (chain, spectrum, classification) per point, each equal to
    what the per-circuit chain ``map_circuit_to_tb``, ``build_tb_hamiltonian``,
    ``eigendecompose`` and ``classify_modes`` gives. The chains and spectra
    hold read-only row views of the block's arrays: ``ChainSpec`` would find
    them valid, as a checked circuit maps to eps > 0 and v, w >= 0, and
    ``_spectra`` finds them finite.
    """
    eps, v, w = _map_arrays(c0, l0, lv, cw)
    dim = eps.shape[-1]
    _check_modes(dim)
    evals, evecs = _spectra(_assemble_hamiltonian(eps, v, w))
    classes = _classify(evals, np.mean(eps, axis=-1))
    for block in (eps, v, w, evals, evecs):
        block.flags.writeable = False
    n_cells = dim // 2
    return [(_frozen(ChainSpec, n_cells=n_cells, eps=e, v=vk, w=wk),
             _frozen(Spectrum, eigenvalues=ev, eigenvectors=vec), classification)
            for e, vk, wk, ev, vec, classification in zip(eps, v, w, evals, evecs, classes)]


def _classified(circuits: Sequence[CircuitSpec]) -> list:
    """``_classified_block`` of circuits of one size, block by block."""
    out = []
    for block in _block_slices(len(circuits), circuits[0].n_sites):
        arrays = [np.array([getattr(c, name) for c in circuits[block]])
                  for name in ("c0", "l0", "lv", "cw")]
        out += _classified_block(*arrays)
    return out


def _phase_columns(classes: Sequence[ModeClassification]) -> list:
    """The ``_PHASE_HEADER`` columns of a run of classifications."""
    return [[c.fsr_edge_bulk for c in classes], [c.fsr_edge_edge for c in classes],
            [c.phase_tag for c in classes]]


def sweep_coupling(circuit: CircuitSpec, lv_grid: Sequence[float],
                   cells: Optional[Sequence[int]] = None) -> list:
    """Diagonalize the circuit for each coupling inductance on the grid.

    ``cells`` restricts which unit cells receive the swept value (all by
    default); untouched cells keep the lv of the input circuit. The grid
    is a non-empty list of values > 0, infinity included. The output is in
    grid order. The points are mapped, diagonalized and classified in
    blocks (see ``_spectra``), each point as it would be alone.
    """
    grid, cell_idx = _sweep_axes(circuit, lv_grid, cells)
    sweep = []
    for block in _block_slices(grid.size, circuit.n_sites):
        lv = np.tile(circuit.lv, (grid[block].size, 1))
        lv[:, cell_idx] = grid[block, None]
        sweep += [SweepPoint(lv_nH, *point) for lv_nH, point in zip(
            grid[block].tolist(), _classified_block(circuit.c0, circuit.l0, lv, circuit.cw))]
    return sweep


def _sweep_axes(circuit: CircuitSpec, lv_grid, cells) -> tuple:
    """``sweep_coupling``'s lv grid and swept cell indices, checked."""
    grid = _numbers(lv_grid, "lv grid", allow_inf=True)
    if grid.size == 0:
        raise ValidationError("lv grid must not be empty", "lv grid")
    if grid.ndim != 1:
        raise ValidationError(
            f"lv grid must be a flat list of values, got shape {grid.shape}", "lv grid")
    if not np.all(grid > 0):
        raise ValidationError(
            f"lv grid entries must be > 0, got {grid[grid <= 0][0]}", "lv grid")
    if cells is None:
        cell_idx = np.arange(circuit.n_cells)
    else:
        items = np.asarray(cells, dtype=object)
        if items.ndim != 1:
            raise ValidationError(
                f"cells must be a list of cell indices, got {items.tolist()!r}", "cells")
        cell_idx = np.array([_number(c, "cells", integer=True) for c in items], dtype=int)
        if cell_idx.size == 0:
            raise ValidationError("cells must not be empty", "cells")
        if np.any(cell_idx < 0) or np.any(cell_idx >= circuit.n_cells):
            raise ValidationError(
                f"cells must be indices in 0..{circuit.n_cells - 1}, got {cell_idx.tolist()}",
                "cells")
    return grid, cell_idx


def find_fsr_crossing(sweep: Sequence[SweepPoint]) -> Optional[float]:
    """Locate the lv where the edge-edge and edge-bulk FSR curves cross.

    Scans the sweep in grid order for a sign change of fsr_edge_bulk -
    fsr_edge_edge and interpolates linearly inside the bracketing interval,
    in 1/lv if an end is infinite. Returns None when no crossing exists.
    """
    lv = np.array([p.lv_nH for p in sweep])
    diff = np.array([p.classification.fsr_edge_bulk - p.classification.fsr_edge_edge
                     for p in sweep])
    for i in range(len(diff) - 1):
        if diff[i] == 0.0:
            return float(lv[i])
        if diff[i] * diff[i + 1] < 0:
            frac = diff[i] / (diff[i] - diff[i + 1])
            if np.isinf(lv[i:i + 2]).any():
                return float(1.0 / (1.0 / lv[i] + frac * (1.0 / lv[i + 1] - 1.0 / lv[i])))
            return float(lv[i] + frac * (lv[i + 1] - lv[i]))
    if len(diff) and diff[-1] == 0.0:
        return float(lv[-1])
    return None


def write_sweep_csv(sweep: Sequence[SweepPoint], modes_path, summary_path) -> None:
    """Emit the per-mode and summary CSV files for a coupling sweep."""
    lv = [p.lv_nH for p in sweep]
    classes = [p.classification for p in sweep]
    n_modes = np.array([len(c.labels) for c in classes], dtype=int)
    # per row, the row of its point's first mode
    first_rows = np.repeat(np.cumsum(n_modes) - n_modes, n_modes)
    write_csv(modes_path, ["lv_nH", "mode_index", "freq_GHz", "label"],
              [np.repeat(lv, n_modes), np.arange(first_rows.size) - first_rows,
               np.concatenate([np.empty(0)] + [p.spectrum.eigenvalues for p in sweep]),
               np.array([label for c in classes for label in c.labels], dtype=str)])
    write_csv(summary_path, ["lv_nH"] + _PHASE_HEADER, [lv] + _phase_columns(classes))
