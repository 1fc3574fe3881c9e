"""Eigendecomposition, bulk/edge mode classification and coupling sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .chain import (
    ChainSpec,
    CircuitSpec,
    _matrix,
    _number,
    _numbers,
    build_tb_hamiltonian,
    map_circuit_to_tb,
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


def eigendecompose(h: np.ndarray) -> Spectrum:
    """Dense symmetric eigendecomposition with deterministic vector signs.

    H must be real, finite and symmetric within 1e-10. Each eigenvector is
    scaled so its largest-magnitude component is positive (first such
    component on ties), making degenerate subspaces reproducible across runs.
    """
    h = _matrix(h)
    asym = float(np.max(np.abs(h - h.T)))
    if asym > _SYMMETRY_TOL:
        raise ValidationError(
            f"H is not symmetric: max |H - H^T| = {asym:.3e} exceeds {_SYMMETRY_TOL}")
    evals, evecs = np.linalg.eigh(h)
    lead = np.argmax(np.abs(evecs), axis=0)
    signs = np.sign(evecs[lead, np.arange(evecs.shape[1])])
    signs[signs == 0] = 1.0
    evecs = evecs * signs

    dim = h.shape[0]
    ortho = float(np.max(np.abs(evecs.T @ evecs - np.eye(dim))))
    recon = float(np.max(np.abs(h - (evecs * evals) @ evecs.T)))
    if ortho > _ORTHO_TOL or recon > _RECON_TOL:
        raise NumericalError(
            f"eigendecomposition failed invariants: ortho={ortho:.3e}, recon={recon:.3e}")
    return Spectrum(eigenvalues=evals, eigenvectors=evecs)


def classify_modes(spectrum: Spectrum, eps_ref: float) -> ModeClassification:
    """Label the two modes nearest ``eps_ref`` as edge, the rest as bulk.

    Proximity to the reference energy (not localization) identifies the
    edge pair so the labels stay meaningful in the trivial phase, where
    the pair degenerates into ordinary band-edge modes. A non-finite
    ``eps_ref`` raises ValidationError.
    """
    evals = spectrum.eigenvalues
    if evals.size < 4:
        raise ValidationError(
            f"classification needs at least 4 modes, got {evals.size}")
    eps_ref = _number(eps_ref, "eps_ref")
    order = np.argsort(np.abs(evals - eps_ref), kind="stable")
    edge_idx = np.sort(order[:2])
    labels = []
    for i, lam in enumerate(evals):
        if i in edge_idx:
            labels.append(LABEL_EDGE)
        elif lam < eps_ref:
            labels.append(LABEL_BULK_LOWER)
        else:
            labels.append(LABEL_BULK_UPPER)
    labels = tuple(labels)

    edge_lo, edge_hi = evals[edge_idx[0]], evals[edge_idx[1]]
    lower = [lam for lam, tag in zip(evals, labels) if tag == LABEL_BULK_LOWER]
    upper = [lam for lam, tag in zip(evals, labels) if tag == LABEL_BULK_UPPER]
    fsr_lower = float(edge_lo - max(lower)) if lower else 0.0
    fsr_upper = float(min(upper) - edge_hi) if upper else 0.0
    fsr_edge_bulk = max(fsr_lower, fsr_upper)
    fsr_edge_edge = float(edge_hi - edge_lo)

    if fsr_edge_edge < PHASE_RATIO * fsr_edge_bulk:
        phase = PHASE_TOPOLOGICAL
    elif fsr_edge_bulk < PHASE_RATIO * fsr_edge_edge:
        phase = PHASE_TRIVIAL
    else:
        phase = PHASE_NORMAL
    return ModeClassification(
        labels=labels,
        fsr_edge_bulk=fsr_edge_bulk,
        fsr_edge_edge=fsr_edge_edge,
        fsr_edge_bulk_lower=fsr_lower,
        fsr_edge_bulk_upper=fsr_upper,
        phase_tag=phase,
    )


def _classify_circuit(circuit: CircuitSpec) -> tuple:
    """Map, diagonalize and classify ``circuit`` about its mean site energy.

    Returns the mapped chain, its spectrum and the classification.
    """
    chain = map_circuit_to_tb(circuit)
    spectrum = eigendecompose(build_tb_hamiltonian(chain))
    return chain, spectrum, classify_modes(spectrum, float(np.mean(chain.eps)))


def _phase_columns(classes: Sequence[ModeClassification]) -> list:
    """The ``_PHASE_HEADER`` columns of a run of classifications."""
    return [[c.fsr_edge_bulk for c in classes], [c.fsr_edge_edge for c in classes],
            [c.phase_tag for c in classes]]


def _sweep_point(circuit: CircuitSpec, lv_value: float, cells) -> SweepPoint:
    lv = np.array(circuit.lv, copy=True)
    lv[cells] = lv_value
    return SweepPoint(float(lv_value), *_classify_circuit(circuit.with_lv(lv)))


def sweep_coupling(circuit: CircuitSpec, lv_grid: Sequence[float],
                   cells: Optional[Sequence[int]] = None) -> list:
    """Diagonalize the circuit for each coupling inductance on the grid.

    ``cells`` restricts which unit cells receive the swept value (all by
    default); untouched cells keep the lv of the input circuit. The grid
    is a non-empty list of values > 0, infinity included. The output is in
    grid order.
    """
    grid = _numbers(lv_grid, "lv grid", allow_inf=True)
    if grid.ndim != 1 or grid.size == 0:
        raise ValidationError(f"lv grid must be a non-empty list, got {lv_grid!r}")
    if not np.all(grid > 0):
        raise ValidationError(f"lv grid values must be > 0, got {grid[grid <= 0][0]}")
    if cells is None:
        cell_idx = np.arange(circuit.n_cells)
    else:
        items = np.asarray(cells, dtype=object)
        if items.ndim != 1:
            raise ValidationError(f"cells must be a list of cell indices, got {cells!r}")
        cell_idx = np.array([_number(c, "cells", integer=True) for c in items], dtype=int)
        if cell_idx.size == 0:
            raise ValidationError("cell mask must not be empty")
        if np.any(cell_idx < 0) or np.any(cell_idx >= circuit.n_cells):
            raise ValidationError(
                f"cell mask {cell_idx.tolist()} outside 0..{circuit.n_cells - 1}")
    return [_sweep_point(circuit, x, cell_idx) for x in grid.tolist()]


def find_fsr_crossing(sweep: Sequence[SweepPoint]) -> Optional[float]:
    """Locate the lv where the edge-edge and edge-bulk FSR curves cross.

    Scans the sweep in grid order for a sign change of
    fsr_edge_bulk - fsr_edge_edge and linearly interpolates inside the
    bracketing interval. Returns None when no crossing exists.
    """
    lv = np.array([p.lv_nH for p in sweep])
    diff = np.array([p.classification.fsr_edge_bulk - p.classification.fsr_edge_edge
                     for p in sweep])
    for i in range(len(diff) - 1):
        if diff[i] == 0.0:
            return float(lv[i])
        if diff[i] * diff[i + 1] < 0:
            frac = diff[i] / (diff[i] - diff[i + 1])
            return float(lv[i] + frac * (lv[i + 1] - lv[i]))
    if len(diff) and diff[-1] == 0.0:
        return float(lv[-1])
    return None


def write_sweep_csv(sweep: Sequence[SweepPoint], modes_path, summary_path) -> None:
    """Emit the per-mode and summary CSV files for a coupling sweep."""
    lv = [p.lv_nH for p in sweep]
    classes = [p.classification for p in sweep]
    n_modes = [len(c.labels) for c in classes]
    write_csv(modes_path, ["lv_nH", "mode_index", "freq_GHz", "label"],
              [np.repeat(lv, n_modes),
               [k for n in n_modes for k in range(n)],
               [f for p in sweep for f in p.spectrum.eigenvalues.tolist()],
               [label for c in classes for label in c.labels]])
    write_csv(summary_path, ["lv_nH"] + _PHASE_HEADER, [lv] + _phase_columns(classes))
