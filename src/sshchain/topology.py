"""Topological diagnostics: winding numbers, IPR, localization, disorder.

The real-space winding number follows the flatband construction: spectral
projectors of the shifted Hamiltonian build Q = P+ - P-, the sublattice
blocks Q_AB (A rows, B columns) and Q_BA enter a commutator with the
cell-position operator, and the trace is normalized per unit cell
(Mondragon-Shem, Hughes, Song and Prodan, PRL 113, 046802 (2014)). The
projectors come from one divide-and-conquer solve of the Hamiltonian's
tridiagonal bands (Cuppen, Numer. Math. 36, 177 (1981); LAPACK dstevd).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import MAX_POINTS, ChainSpec, _hops, _matrix, _number, _numbers
from .csvout import write_csv, write_json
from .errors import (
    DegenerateMidgapError,
    FitUnsupportedError,
    GapClosingError,
    NumericalError,
    ValidationError,
)
from .spectral import _ORTHO_TOL

__all__ = [
    "WindingResult",
    "DisorderConfig",
    "DisorderSample",
    "EnsembleResult",
    "flatband",
    "winding_number_real_space",
    "winding_number_k_space",
    "ipr",
    "localization_length_fit",
    "disorder_ensemble",
    "write_ensemble_outputs",
]

ZERO_TOL = 1e-12          # GHz; eigenvalues closer to zero need chiral splitting
# A pair of eigenvalues whose larger |lambda| lies this far below the next
# |lambda| is an edge pair hybridized across the chain; it is split by
# chirality too (when it is a chiral pair). A split by sign would put the
# end-to-end term L R^T + R L^T into Q. Disordered chains of N = 100-200
# with an edge-overlap margin >= ln 1e6 have ratios of 1.6e8 and up; a
# clean 12-cell chain at v/w = 0.3 (ratio 1.3e6) stays split by sign.
PAIR_SEPARATION = 1e7
AMPLITUDE_FLOOR = 1e-12   # |psi| below this is ignored by localization fits
K_POINTS_MIN = 1024       # fewest Brillouin-zone points of the k-space winding
RNG_NAME = "PCG64"


@dataclass(frozen=True)
class WindingResult:
    nu: float
    chain_length: int
    method: str


@dataclass(frozen=True)
class DisorderConfig:
    """Ensemble description: multiplicative strength, targets and seeding.

    ``targets`` is any subset of {"v", "w", "eps"}. Sample k draws from an
    independent PCG64 stream keyed by (seed, k), so results do not depend
    on evaluation order.
    """

    strength: float
    targets: tuple
    samples: int
    seed: int

    def __post_init__(self):
        strength = _number(self.strength, "strength")
        if not (0.0 <= strength < 1.0):
            raise ValidationError(f"strength must be in [0, 1), got {strength}", "strength")
        try:
            if isinstance(self.targets, str):  # not a list of one-letter names
                raise TypeError(self.targets)
            targets = tuple(sorted(set(self.targets)))
        except TypeError:
            raise ValidationError(
                f"disorder targets must be a list of names, got {self.targets!r}") from None
        bad = [t for t in targets if t not in ("v", "w", "eps")]
        if bad:
            raise ValidationError(f"unknown disorder targets: {bad}")
        if not targets:
            raise ValidationError("disorder targets must not be empty")
        samples = _number(self.samples, "samples", integer=True, minimum=1, maximum=MAX_POINTS)
        object.__setattr__(self, "strength", strength)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", _number(self.seed, "seed", integer=True))


@dataclass(frozen=True)
class DisorderSample:
    index: int
    nu: float
    min_gap_GHz: float


@dataclass(frozen=True)
class EnsembleResult:
    samples: tuple
    mean_nu: float
    std_nu: float
    rejections: int
    seed: int
    generator: str = RNG_NAME


def _tridiagonal_bands(h) -> tuple:
    """Diagonal and first off-diagonal of a real symmetric tridiagonal H."""
    h = _matrix(h, even=True)
    diag = np.diagonal(h)
    off = np.diagonal(h, 1)
    # Equal bands, and no nonzero entry outside the three bands.
    if not np.array_equal(off, np.diagonal(h, -1)) or np.count_nonzero(h) != \
            np.count_nonzero(diag) + 2 * np.count_nonzero(off):
        raise ValidationError("H must be real symmetric tridiagonal")
    return diag, off


def _flatband_bands(diag: np.ndarray, off: np.ndarray):
    """Flatband Q and eigenvalues of the tridiagonal matrix with bands diag, off.

    One divide-and-conquer eigensolve (dstevd; the MRRR routine dstemr
    stops with LAPACK info=22 on chains whose edge pair is degenerate far
    below roundoff, e.g. v = 0.01, w = 0.5 at N = 50). Q and the
    orthonormality guard are formed with scipy's BLAS, the library the
    solver already runs on, so numpy's separate OpenBLAS thread pool is
    not woken as well.
    """
    # imported here, so that importing the package loads no scipy (~0.3 s)
    from scipy.linalg import eigh_tridiagonal
    from scipy.linalg.blas import dgemm

    evals, evecs = eigh_tridiagonal(diag, off, check_finite=False,
                                    lapack_driver="stevd")
    gram = dgemm(1.0, evecs, evecs, trans_a=1)
    gram[np.diag_indices_from(gram)] -= 1.0
    ortho = float(np.max(np.abs(gram)))
    if not ortho <= _ORTHO_TOL:
        raise NumericalError(
            f"tridiagonal eigenvectors not orthonormal: max |V^T V - I| = "
            f"{ortho:.3e} exceeds {_ORTHO_TOL}")

    mags = np.abs(evals)
    zero = mags <= ZERO_TOL
    idx = np.flatnonzero(zero)
    states = None
    if idx.size == 0 and mags.size > 2:
        low = np.argsort(mags)[:3]
        if mags[low[1]] * PAIR_SEPARATION <= mags[low[2]]:
            states = _chiral_states(evecs[:, low[:2]])
            if states is not None:
                zero[low[:2]] = True
    elif idx.size:
        if idx.size != 2:
            raise DegenerateMidgapError(idx)
        states = _chiral_states(evecs[:, idx])
        if states is None:
            raise DegenerateMidgapError(
                idx, f"zero modes at indices {tuple(idx)} are not chiral partners")
    q = dgemm(1.0, evecs * (np.sign(evals) * ~zero), evecs, trans_b=1)
    if states is not None:
        q = q + np.outer(states[:, 1], states[:, 1]) - np.outer(states[:, 0], states[:, 0])
    return q, evals


def _chiral_states(sub: np.ndarray):
    """The chirality -1 and +1 states (columns) spanning the pair ``sub``, or None
    if the pair is not one of chiral partners."""
    # chirality Gamma = diag(+1, -1, ...) restricted to the pair
    block = sub[0::2].T @ sub[0::2] - sub[1::2].T @ sub[1::2]
    bvals, bvecs = np.linalg.eigh(block)
    if not (bvals[0] < -0.5 and bvals[1] > 0.5):
        return None
    return sub @ bvecs


def flatband(h: np.ndarray, eps_ref: float) -> np.ndarray:
    """Flatband image Q = P+ - P- of the shifted Hamiltonian H - eps_ref*I.

    H must be real symmetric tridiagonal with even dimension, as
    ``build_tb_hamiltonian`` returns it; anything else raises
    ValidationError, as does a non-finite ``eps_ref``. The eigensystem
    comes from one tridiagonal solve of the shifted diagonal and the first
    off-diagonal (scipy's ``eigh_tridiagonal``), and NumericalError is
    raised if its eigenvectors are not orthonormal within 1e-9.

    Eigenvalues with |lambda| <= ZERO_TOL cannot be assigned to a spectral
    half by sign. A protected pair of such zeros is split by its chirality
    eigenvalues (one state to each half, keeping Q involutory); anything
    else raises DegenerateMidgapError naming the offending indices. With
    no such zero, the two smallest |lambda| are split the same way when
    they lie PAIR_SEPARATION times below the third and form a chiral pair:
    the hybridized edge pair of a long chain, which a split by sign would
    mix into Q.
    """
    diag, off = _tridiagonal_bands(h)
    return _flatband_bands(diag - _number(eps_ref, "eps_ref"), off)[0]


def _winding_trace(q: np.ndarray) -> float:
    n_cells = q.shape[0] // 2
    x = np.arange(1, n_cells + 1, dtype=float)
    q_ab = q[0::2, 1::2]
    q_ba = q[1::2, 0::2]
    comm = (x[:, None] - x[None, :]) * q_ab
    diag = np.einsum("ij,ji->i", q_ba, comm)
    bulk = slice(1, n_cells - 1) if n_cells > 2 else slice(0, n_cells)
    return float(np.sum(diag[bulk])) / n_cells


def winding_number_real_space(h: np.ndarray, eps_ref: float) -> WindingResult:
    """Trace-per-volume winding number of a finite chain Hamiltonian.

    H must be real symmetric tridiagonal (see ``flatband``, which supplies
    Q from one tridiagonal eigensolve). The position operator counts unit
    cells 1..N, constant within a cell, and the trace runs over the bulk
    cells (the outermost cell on each end is excluded: over the full open
    chain the boundary contribution cancels the winding identically) while
    keeping the 1/N volume normalization. Quantization is therefore only
    approached for large N; small chains give intermediate values. The
    sign is fixed so the v < w phase winds to +1.
    """
    q = flatband(h, eps_ref)
    return WindingResult(nu=_winding_trace(q), chain_length=q.shape[0] // 2,
                         method="real-space")


def winding_number_k_space(v: float, w: float) -> WindingResult:
    """Winding of h(k) = v + w e^{ik} around the Brillouin zone.

    Midpoint quadrature of (1/2 pi i) Tr[h^-1 dh/dk] over at least
    ``K_POINTS_MIN`` points, refined near the gap closing so the raw value
    is always within 1e-6 of an integer; v = w raises GapClosingError and
    a negative or non-finite hop raises ValidationError.
    """
    v = _number(v, "v", minimum=0)
    w = _number(w, "w", minimum=0)
    if v == 0 and w == 0:
        raise ValidationError("v and w cannot both be zero")
    if v == w:
        raise GapClosingError(
            f"winding integrand is singular at v = w = {v}; the gap closes")
    # Quadrature error decays like exp(-M |log(v/w)|); pad the point count
    # accordingly when the gap is small.
    if v > 0 and w > 0:
        decay = abs(np.log(v / w))
        points = max(K_POINTS_MIN, int(np.ceil(40.0 / decay)))
    else:
        points = K_POINTS_MIN
    points = min(points, 1 << 22)
    k = 2.0 * np.pi * (np.arange(points) + 0.5) / points
    hk = v + w * np.exp(1j * k)
    dh = 1j * w * np.exp(1j * k)
    # midpoint rule for (1/2 pi i) * integral of h'/h over one period
    nu_raw = float(np.mean((dh / hk).imag))
    nu_int = round(nu_raw)
    if abs(nu_raw - nu_int) > 1e-6:
        raise NumericalError(
            f"k-space winding did not quantize: raw value {nu_raw!r}")
    return WindingResult(nu=float(nu_int), chain_length=0, method="k-space")


def _state(state) -> np.ndarray:
    """``state`` as a new flat array, each real and imaginary part read as ``_number`` would.

    The one reader of state vectors: complex amplitudes are kept, and
    text, booleans, NaN and infinity raise ValidationError.
    """
    if isinstance(state, np.ndarray):
        if np.iscomplexobj(state):
            return (_numbers(state.real, "state") + 1j * _numbers(state.imag, "state")).ravel()
        return _numbers(state, "state").ravel()
    # entry by entry: np.asarray would turn a True beside 1j into 1+0j
    return np.array([complex(_number(z.real, "state"), _number(z.imag, "state"))
                     if isinstance(z, (complex, np.complexfloating)) else _number(z, "state")
                     for z in np.asarray(state, dtype=object).flat])


def ipr(state: Sequence[float]) -> float:
    """Inverse participation ratio sum|psi|^4 / (sum|psi|^2)^2."""
    psi = _state(state)
    norm2 = float(np.sum(np.abs(psi) ** 2))
    if norm2 == 0.0:
        raise ValidationError("IPR of the zero vector is undefined")
    return float(np.sum(np.abs(psi) ** 4) / norm2 ** 2)


def localization_length_fit(state: Sequence[float], sublattice: str) -> float:
    """Exponential-decay length of a state on one sublattice, in unit cells.

    Least-squares slope of log|psi| against the cell index over amplitudes
    above 1e-12; xi = -1/slope. Raises FitUnsupportedError when fewer than
    three usable points remain or the profile does not decay.
    """
    psi = _state(state)
    if psi.size % 2 != 0:
        raise ValidationError(f"state length must be even, got {psi.size}")
    if sublattice not in ("A", "B"):
        raise ValidationError(f"sublattice must be 'A' or 'B', got {sublattice!r}")
    offset = 0 if sublattice == "A" else 1
    amp = np.abs(psi[offset::2])
    cells = np.arange(1, amp.size + 1, dtype=float)
    usable = amp > AMPLITUDE_FLOOR
    if int(np.count_nonzero(usable)) < 3:
        raise FitUnsupportedError(
            f"only {int(np.count_nonzero(usable))} usable amplitudes on "
            f"sublattice {sublattice}; need at least 3")
    slope, _ = np.polyfit(cells[usable], np.log(amp[usable]), 1)
    if slope >= 0:
        raise FitUnsupportedError(
            f"profile on sublattice {sublattice} does not decay (slope {slope:.3e})")
    return float(-1.0 / slope)


def _perturbed(values: np.ndarray, rng, delta: float) -> np.ndarray:
    return values * (1.0 + delta * rng.uniform(-1.0, 1.0, size=values.size))


def _draw_sample(base: ChainSpec, config: DisorderConfig, index: int):
    """One disorder realization.

    The stream is keyed by (seed, index) and consumed in the fixed order
    eps, v, w for the targeted families, so samples are reproducible
    regardless of evaluation order. Strength < 1 and non-negative base
    hops keep every drawn hop non-negative, so no draw is ever rejected.
    """
    rng = np.random.default_rng([config.seed & 0xFFFFFFFFFFFFFFFF, index])
    eps = _perturbed(base.eps, rng, config.strength) if "eps" in config.targets else base.eps
    v = _perturbed(base.v, rng, config.strength) if "v" in config.targets else base.v
    w = _perturbed(base.w, rng, config.strength) if "w" in config.targets else base.w
    eps_ref = float(np.mean(eps))
    q, evals = _flatband_bands(eps - eps_ref, _hops(v, w))
    return DisorderSample(index=index, nu=_winding_trace(q),
                          min_gap_GHz=float(np.min(np.abs(evals))))


def disorder_ensemble(base: ChainSpec, config: DisorderConfig) -> EnsembleResult:
    """Seeded multiplicative-disorder ensemble of winding numbers.

    Each sample perturbs the targeted parameter families by x(1 + delta*u)
    with u uniform in [-1, 1], then records the real-space winding number
    and the smallest distance of any eigenvalue to the sample's mean
    on-site energy. Both come from one tridiagonal eigensolve of the
    sample's bands shifted by that mean (no 2N x 2N Hamiltonian is built):
    the winding from its flatband Q, the gap as the smallest |eigenvalue|
    of the shifted spectrum. With delta < 1 no hop can turn negative, so
    ``rejections`` is always 0; it stays in the result and its JSON as
    part of the file format.
    """
    samples = tuple(_draw_sample(base, config, k) for k in range(config.samples))
    nus = np.array([s.nu for s in samples])
    return EnsembleResult(
        samples=samples,
        mean_nu=float(np.mean(nus)),
        std_nu=float(np.std(nus)),
        rejections=0,
        seed=config.seed,
    )


def write_ensemble_outputs(result: EnsembleResult, csv_path, json_path) -> None:
    """Emit the per-sample CSV and the JSON summary for an ensemble."""
    samples = result.samples
    write_csv(csv_path, ["sample_index", "nu", "min_gap_GHz"],
              [[s.index for s in samples], [s.nu for s in samples],
               [s.min_gap_GHz for s in samples]])
    write_json(json_path, {
        "mean_nu": result.mean_nu,
        "std_nu": result.std_nu,
        "rejections": result.rejections,
        "seed": result.seed,
        "generator": result.generator,
    })
