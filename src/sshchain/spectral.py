"""Eigendecomposition, bulk/edge mode classification and coupling sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .chain import CircuitSpec, _assemble_hamiltonian, _map_arrays, _matrix, _number, _numbers
from .csvout import write_csv
from .errors import NumericalError, ValidationError

__all__ = [
    "Spectrum",
    "ModeClassification",
    "CouplingSweep",
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


class ModeClassification(NamedTuple):
    """Per-mode bulk/edge labels plus the free-spectral-range summary, as
    arrays: one chain's from ``classify_modes`` (labels (n,), the rest 0-d),
    or a sweep's with a leading points axis.

    ``labels`` and ``phase_tag`` hold text (``LABEL_*``, ``PHASE_*``).
    ``fsr_edge_bulk`` is the larger of the two edge-to-bulk gaps; the
    per-side values are kept alongside because the two sides differ for
    disordered chains.
    """

    labels: np.ndarray
    fsr_edge_bulk: np.ndarray
    fsr_edge_edge: np.ndarray
    fsr_edge_bulk_lower: np.ndarray
    fsr_edge_bulk_upper: np.ndarray
    phase_tag: np.ndarray


@dataclass(frozen=True)
class CouplingSweep:
    """A coupling sweep in grid order, one row per point: the applied
    ``lv_nH`` (points,), the ``eigenvalues`` (points, n) and their
    ``classification``."""

    lv_nH: np.ndarray
    eigenvalues: np.ndarray
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


# the text of the label and phase codes 0, 1, 2 of ``_classify``
_LABELS = np.array([LABEL_BULK_LOWER, LABEL_EDGE, LABEL_BULK_UPPER])
_PHASES = np.array([PHASE_TOPOLOGICAL, PHASE_NORMAL, PHASE_TRIVIAL])


def _classify(evals: np.ndarray, eps_ref: np.ndarray) -> ModeClassification:
    """``classify_modes`` of each row of ``evals`` (points, n) about its
    ``eps_ref``, for n >= 4 and finite references."""
    rows = np.arange(evals.shape[0])[:, None]
    ref = eps_ref[:, None]
    order = np.argsort(np.abs(evals - ref), axis=-1, kind="stable")
    edge_idx = np.sort(order[:, :2], axis=-1)
    edge = np.zeros(evals.shape, dtype=bool)
    edge[rows, edge_idx] = True
    lower = ~edge & (evals < ref)
    upper = ~edge & ~lower

    edge_lo, edge_hi = evals[rows, edge_idx].T
    top_lower = np.max(np.where(lower, evals, -np.inf), axis=-1)
    bottom_upper = np.min(np.where(upper, evals, np.inf), axis=-1)
    fsr_lower = np.where(lower.any(axis=-1), edge_lo - top_lower, 0.0)
    fsr_upper = np.where(upper.any(axis=-1), bottom_upper - edge_hi, 0.0)
    fsr_edge = edge_hi - edge_lo
    # max(fsr_lower, fsr_upper), the first on ties as Python's max() takes it
    fsr_edge_bulk = np.where(fsr_upper > fsr_lower, fsr_upper, fsr_lower)
    phases = np.where(fsr_edge < PHASE_RATIO * fsr_edge_bulk, 0,
                      np.where(fsr_edge_bulk < PHASE_RATIO * fsr_edge, 2, 1))
    return ModeClassification(_LABELS[np.where(edge, 1, np.where(lower, 0, 2))], fsr_edge_bulk,
                              fsr_edge, fsr_lower, fsr_upper, _PHASES[phases])


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
    return ModeClassification(*(field[0] for field in _classify(evals[None], np.array([eps_ref]))))


# Entries of one (points, n, n) stack of a block: the block's scratch is a
# few such stacks, ~2 MB each, whatever the sweep's length.
_BLOCK_ENTRIES = 1 << 18


def _block_slices(points: int, n_sites: int):
    """Consecutive slices of ``points`` sweep points, each one block: as many
    points as fit ``_BLOCK_ENTRIES`` matrix entries, and at least one."""
    size = max(1, _BLOCK_ENTRIES // (n_sites * n_sites))
    return (slice(k, min(k + size, points)) for k in range(0, points, size))


def _phase_columns(classes: ModeClassification) -> list:
    """The ``_PHASE_HEADER`` columns of a run of points."""
    return [classes.fsr_edge_bulk, classes.fsr_edge_edge, classes.phase_tag]


def sweep_coupling(circuit: CircuitSpec, lv_grid: Sequence[float],
                   cells: Optional[Sequence[int]] = None) -> CouplingSweep:
    """Diagonalize the circuit for each coupling inductance on the grid.

    ``cells`` restricts which unit cells receive the swept value (all by
    default); untouched cells keep the lv of the input circuit. The grid
    is a non-empty list of values > 0, infinity included. The points are
    mapped, diagonalized and classified in blocks (see ``_sweep_table``),
    each point as it would be alone. The sweep holds no chains and no
    eigenvectors; ``eigendecompose`` gives a point's vectors.
    """
    grid, swept = _sweep_axes(circuit, lv_grid, cells)
    return CouplingSweep(grid, *_sweep_table(circuit, np.where(swept, grid[:, None], circuit.lv)))


def _sweep_table(circuit: CircuitSpec, lv: np.ndarray) -> tuple:
    """The eigenvalues (points, n) and ``ModeClassification`` of ``circuit``
    swept over the rows of the lv table ``lv`` (points, n_cells), each row
    classified about its mean site energy. Each ``_block_slices`` block is
    mapped in one pass and solved by one ``_spectra``, and its eigenvectors
    are freed before the next."""
    evals, classes = [], []
    for block in _block_slices(lv.shape[0], circuit.n_sites):
        eps, v, w = _map_arrays(circuit.c0, circuit.l0, lv[block], circuit.cw)
        _check_modes(eps.shape[-1])
        block_evals, _ = _spectra(_assemble_hamiltonian(eps, v, w))
        evals.append(block_evals)
        classes.append(_classify(block_evals, np.mean(eps, axis=-1)))
    return np.concatenate(evals), ModeClassification(*map(np.concatenate, zip(*classes)))


def _sweep_axes(circuit: CircuitSpec, lv_grid, cells) -> tuple:
    """``sweep_coupling``'s lv grid and cells, checked; the cells as a mask."""
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
    return grid, np.isin(np.arange(circuit.n_cells), cell_idx)


def find_fsr_crossing(sweep: CouplingSweep) -> Optional[float]:
    """Locate the lv where the edge-edge and edge-bulk FSR curves cross.

    Scans the sweep in grid order for the first point where fsr_edge_bulk -
    fsr_edge_edge is 0, or the first interval where it changes sign, and
    interpolates linearly inside that interval, in 1/lv if an end is
    infinite. Returns None when no crossing exists.
    """
    lv = sweep.lv_nH
    diff = sweep.classification.fsr_edge_bulk - sweep.classification.fsr_edge_edge
    hits = np.flatnonzero((diff[:-1] == 0.0) | (diff[:-1] * diff[1:] < 0))
    if hits.size == 0:
        return float(lv[-1]) if diff.size and diff[-1] == 0.0 else None
    i = hits[0]
    if diff[i] == 0.0:
        return float(lv[i])
    frac = diff[i] / (diff[i] - diff[i + 1])
    if np.isinf(lv[i:i + 2]).any():
        return float(1.0 / (1.0 / lv[i] + frac * (1.0 / lv[i + 1] - 1.0 / lv[i])))
    return float(lv[i] + frac * (lv[i + 1] - lv[i]))


def write_sweep_csv(sweep: CouplingSweep, modes_path, summary_path) -> None:
    """Emit the per-mode and summary CSV files for a coupling sweep."""
    points, n_modes = sweep.eigenvalues.shape
    write_csv(modes_path, ["lv_nH", "mode_index", "freq_GHz", "label"],
              [np.repeat(sweep.lv_nH, n_modes), np.tile(np.arange(n_modes), points),
               sweep.eigenvalues.ravel(), sweep.classification.labels.ravel()])
    write_csv(summary_path, ["lv_nH"] + _PHASE_HEADER,
              [sweep.lv_nH] + _phase_columns(sweep.classification))
