"""Topological diagnostics: winding numbers, IPR, localization, disorder.

The real-space winding number follows the flatband construction: spectral
projectors of the shifted Hamiltonian build Q = P+ - P-, the sublattice
blocks Q_AB (A rows, B columns) and Q_BA enter a commutator with the
cell-position operator, and the trace is normalized per unit cell
(Mondragon-Shem, Hughes, Song and Prodan, PRL 113, 046802 (2014)). The
projectors come from one divide-and-conquer solve of the Hamiltonian's
tridiagonal bands (Cuppen, Numer. Math. 36, 177 (1981); LAPACK dstevd).

``flatband`` and the winding share that solve and its checks
(``_flatband_basis``). The winding trace reads only Q_AB and Q_BA, so it
forms only those two N x 2N by 2N x N products, and the orthonormality
guard is one dsyrk (the upper triangle of V^T V). For chains of up to 50
cells every dgemm of a winding or a disorder sample then stays below
OpenBLAS's threading bound (m n k <= 4 * 65536) and runs on one thread.
Full 2N x 2N products cross that bound from N = 33 and wake the BLAS
thread pool, which at N = 50 doubled a sample's CPU time for no gain in
wall time.
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


def _lapack() -> tuple:
    """dstevd, dsyrk and dgemm: the one solver and the BLAS of every flatband product.

    Imported here, so that importing the package loads no scipy (~0.3 s).
    An ensemble reads them once (``_SamplePlan``); a single winding or
    flatband once per call.
    """
    from scipy.linalg.blas import dgemm, dsyrk
    from scipy.linalg.lapack import dstevd

    return dstevd, dsyrk, dgemm


def _bands_of(h, eps_ref) -> tuple:
    """The bands (diag - eps_ref, off) of a real symmetric tridiagonal H."""
    h = _matrix(h, even=True)
    diag = np.diagonal(h)
    off = np.diagonal(h, 1)
    # Equal bands, and no nonzero entry outside the three bands.
    if not np.array_equal(off, np.diagonal(h, -1)) or np.count_nonzero(h) != \
            np.count_nonzero(diag) + 2 * np.count_nonzero(off):
        raise ValidationError("H must be real symmetric tridiagonal")
    return diag - _number(eps_ref, "eps_ref"), off


def _flatband_basis(diag: np.ndarray, off: np.ndarray, lapack: tuple) -> tuple:
    """The shared step of every flatband product, for the tridiagonal bands diag, off.

    Returns (evals, evecs, signed, states): the eigensystem, the
    eigenvectors scaled by sign(lambda) with the columns of a chirally
    split pair zeroed, and that pair's chirality -1 and +1 states (columns;
    None if no pair is split), so that
    Q = signed evecs^T + s_+ s_+^T - s_- s_-^T (see ``_q_block``).

    One direct divide-and-conquer eigensolve (``lapack`` from ``_lapack``;
    the MRRR routine dstemr stops with LAPACK info=22 on chains whose edge
    pair is degenerate far below roundoff, e.g. v = 0.01, w = 0.5 at
    N = 50); a nonzero info raises NumericalError. The orthonormality
    guard reads the upper triangle of V^T V, formed by one dsyrk and
    reduced in place: every pair (i, j) is checked as by the full Gram
    dgemm, at half its flops, and on one thread up to N = 63 on OpenBLAS
    0.3.31 (measured), where the 2N x 2N x 2N dgemm is threaded from
    N = 33. The guard and Q run on scipy's BLAS, the library the solver
    already runs on, so numpy's separate OpenBLAS thread pool is not woken
    as well.
    """
    dstevd, dsyrk, _ = lapack
    evals, evecs, info = dstevd(diag, off)
    if info:
        raise NumericalError(f"tridiagonal eigensolve failed: LAPACK dstevd info = {info}")
    gram = dsyrk(1.0, evecs, trans=1)  # upper triangle; the lower one stays 0
    np.einsum("ii->i", gram)[:] -= 1.0  # a writeable view of the diagonal
    ortho = float(np.abs(gram, out=gram).max())
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
    return evals, evecs, evecs * (np.sign(evals) * ~zero), states


def _q_block(basis: tuple, rows: slice, cols: slice, dgemm) -> np.ndarray:
    """Rows ``rows`` and columns ``cols`` of Q, from one dgemm over ``basis``
    (see ``_flatband_basis``) plus the split pair's outer products."""
    _, evecs, signed, states = basis
    q = dgemm(1.0, signed[rows], evecs[cols], trans_b=1)
    if states is not None:
        q += np.outer(states[rows, 1], states[cols, 1])
        q -= np.outer(states[rows, 0], states[cols, 0])
    return q


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
    comes from one tridiagonal solve (LAPACK dstevd) of the shifted
    diagonal and the first off-diagonal; NumericalError is raised if the
    solve fails or its eigenvectors are not orthonormal within 1e-9.

    Eigenvalues with |lambda| <= ZERO_TOL cannot be assigned to a spectral
    half by sign. A protected pair of such zeros is split by its chirality
    eigenvalues (one state to each half, keeping Q involutory); anything
    else raises DegenerateMidgapError naming the offending indices. With
    no such zero, the two smallest |lambda| are split the same way when
    they lie PAIR_SEPARATION times below the third and form a chiral pair:
    the hybridized edge pair of a long chain, which a split by sign would
    mix into Q.
    """
    lapack = _lapack()
    every = slice(None)
    return _q_block(_flatband_basis(*_bands_of(h, eps_ref), lapack), every, every, lapack[2])


def _cells(n_cells: int) -> tuple:
    """The winding trace's geometry: the cell-position differences x_j - x_i
    (cells 1..N, as rows i and columns j) and the bulk cells it sums over."""
    x = np.arange(1, n_cells + 1, dtype=float)
    return x[:, None] - x[None, :], slice(1, n_cells - 1) if n_cells > 2 else slice(0, n_cells)


def _winding(basis: tuple, cells: tuple, dgemm) -> float:
    """Bulk trace of Q_BA [X, Q_AB] per unit cell, from the blocks alone.

    ``cells`` is ``_cells(N)``. The trace reads no other part of Q, so
    only Q_AB and Q_BA are formed: two N x N x 2N products, each a quarter
    of the full one, and below OpenBLAS's threading bound
    (m n k <= 4 * 65536) up to N = 50.
    """
    a, b = slice(0, None, 2), slice(1, None, 2)
    dx, bulk = cells
    comm = dx * _q_block(basis, a, b, dgemm)
    diag = np.einsum("ij,ji->i", _q_block(basis, b, a, dgemm), comm)
    return float(np.sum(diag[bulk])) / dx.shape[0]


def _winding_of_bands(diag: np.ndarray, off: np.ndarray) -> WindingResult:
    lapack = _lapack()
    n_cells = diag.size // 2
    nu = _winding(_flatband_basis(diag, off, lapack), _cells(n_cells), lapack[2])
    return WindingResult(nu=nu, chain_length=n_cells, method="real-space")


def winding_number_real_space(h: np.ndarray, eps_ref: float) -> WindingResult:
    """Trace-per-volume winding number of a finite chain Hamiltonian.

    H must be real symmetric tridiagonal, and the eigensolve and its checks
    are those of ``flatband``; only the blocks Q_AB and Q_BA that the trace
    reads are formed. The position operator counts unit
    cells 1..N, constant within a cell, and the trace runs over the bulk
    cells (the outermost cell on each end is excluded: over the full open
    chain the boundary contribution cancels the winding identically) while
    keeping the 1/N volume normalization. Quantization is therefore only
    approached for large N; small chains give intermediate values. The
    sign is fixed so the v < w phase winds to +1.
    """
    return _winding_of_bands(*_bands_of(h, eps_ref))


def _chain_winding(chain: ChainSpec, eps_ref: float) -> WindingResult:
    """``winding_number_real_space`` of ``build_tb_hamiltonian(chain)`` and a
    finite ``eps_ref``, solved from the chain's bands: no 2N x 2N H is built."""
    return _winding_of_bands(chain.eps - eps_ref, _hops(chain.v, chain.w))


def winding_number_k_space(v: float, w: float) -> WindingResult:
    """Winding of h(k) = v + w e^{ik} around the Brillouin zone.

    By the argument principle, (1/2 pi i) of the integral of h'/h over
    |z| = 1, with z = e^{ik}, counts the zeros of h(z) = v + w z inside the
    unit circle (h has no pole). Its zero z = -v/w (none if w = 0) lies
    inside exactly when v < w, so nu = 1 there and 0 for v > w (Asboth,
    Oroszlany and Palyi, A Short Course on Topological Insulators, LNP 919
    (2016), ch. 1).
    v = w raises GapClosingError and a negative or non-finite hop raises
    ValidationError.
    """
    v, w = _bloch_hops(v, w)
    if v == w:
        raise GapClosingError(
            f"winding integrand is singular at v = w = {v}; the gap closes")
    return WindingResult(nu=1.0 if v < w else 0.0, chain_length=0, method="k-space")


def _bloch_hops(v, w) -> tuple:
    v = _number(v, "v", minimum=0)
    w = _number(w, "w", minimum=0)
    if v == 0 and w == 0:
        raise ValidationError("v and w cannot both be zero", "v and w")
    return v, w


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


class _SamplePlan:
    """What every sample of one ensemble shares, prepared once (see ``_draw_sample``).

    The solver routines; the cell geometry of the winding trace; one hop
    buffer, whose untargeted half keeps the base hops; and, when eps is
    not a target, the base diagonal already shifted by its mean.
    """

    def __init__(self, base: ChainSpec, config: DisorderConfig):
        self.base = base
        self.config = config
        self.lapack = _lapack()
        self.cells = _cells(base.n_cells)
        self.hop = _hops(base.v, base.w)
        self.diag = None if "eps" in config.targets else base.eps - float(np.mean(base.eps))


def _draw_sample(plan: _SamplePlan, index: int) -> DisorderSample:
    """Disorder realization ``index`` of the ensemble ``plan`` was prepared for.

    The stream is keyed by (seed, index) and consumed in the fixed order
    eps, v, w for the targeted families, so samples are reproducible
    regardless of evaluation order. Strength < 1 and non-negative base
    hops keep every drawn hop non-negative, so no draw is ever rejected.
    """
    base, config, hop = plan.base, plan.config, plan.hop
    rng = np.random.default_rng([config.seed & 0xFFFFFFFFFFFFFFFF, index])
    diag = plan.diag
    if diag is None:
        eps = _perturbed(base.eps, rng, config.strength)
        diag = eps - float(np.mean(eps))
    if "v" in config.targets:
        hop[0::2] = _perturbed(base.v, rng, config.strength)
    if "w" in config.targets:
        hop[1::2] = _perturbed(base.w, rng, config.strength)
    basis = _flatband_basis(diag, hop, plan.lapack)
    return DisorderSample(index=index, nu=_winding(basis, plan.cells, plan.lapack[2]),
                          min_gap_GHz=float(np.min(np.abs(basis[0]))))


def disorder_ensemble(base: ChainSpec, config: DisorderConfig) -> EnsembleResult:
    """Seeded multiplicative-disorder ensemble of winding numbers.

    Each sample perturbs the targeted parameter families by x(1 + delta*u)
    with u uniform in [-1, 1], then records the real-space winding number
    and the smallest distance of any eigenvalue to the sample's mean
    on-site energy. Both come from one tridiagonal eigensolve of the
    sample's bands shifted by that mean (no 2N x 2N Hamiltonian is built):
    the winding from its flatband Q, the gap as the smallest |eigenvalue|
    of the shifted spectrum. What the samples share is prepared once
    (``_SamplePlan``). With delta < 1 no hop can turn negative, so
    ``rejections`` is always 0; it stays in the result and its JSON as
    part of the file format.
    """
    plan = _SamplePlan(base, config)
    samples = tuple(_draw_sample(plan, k) for k in range(config.samples))
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
