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
forms only those two N x 2N by 2N x N products.

The solve calls LAPACK dstevd in the OpenBLAS that numpy's wheel
bundles, bound with ctypes (``_lapack``) and prepared once per ensemble,
winding or flatband (``_Plan``), so no scipy module is loaded; the
products and the orthonormality guard are numpy matmuls, which call the
same OpenBLAS. Each sample or call holds that OpenBLAS to one thread:
unheld, it threads even an N = 50 sample's calls at twice the CPU for no
wall time, and from N = 81 the bits of a product depend on the thread
count.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
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
AMPLITUDE_FLOOR = 1e-12   # localization fits ignore |psi| below this times its peak
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
    on evaluation order; ``seed`` is an int64, -2**63 <= seed < 2**63.
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
        # the sample streams key on the seed's 64 low bits, so a wider seed
        # would share a stream with one inside the window
        object.__setattr__(self, "seed", _number(self.seed, "seed", integer=True,
                                                 minimum=-2**63, maximum=2**63 - 1))


@dataclass(frozen=True)
class EnsembleResult:
    """An ensemble in sample order: the winding ``nu`` and ``min_gap_GHz``
    of each sample (arrays of shape (samples,)), the mean and spread of
    ``nu``, and the seed."""

    nu: np.ndarray
    min_gap_GHz: np.ndarray
    mean_nu: float
    std_nu: float
    seed: int


_Lapack = collections.namedtuple("_Lapack", "dstevd threads")


@functools.cache
def _lapack() -> _Lapack:
    """dstevd, the one solver of every flatband product, and OpenBLAS's
    thread-count setter, both from numpy's own OpenBLAS.

    numpy's wheel bundles an ILP64 OpenBLAS (scipy-openblas, 0.3.31 for
    numpy 2.4.6) that exports LAPACK as ``scipy_<name>_64_``. The handle of
    numpy's extension module resolves them through that library, so no
    hashed file name is looked up, and no second BLAS library or thread
    pool is loaded. numpy exposes neither, so only these two are bound,
    on first use; a numpy whose library lacks one raises ImportError
    naming it.
    """
    from numpy._core import _multiarray_umath

    lib = ctypes.CDLL(_multiarray_umath.__file__)
    names = ("scipy_dstevd_64_", "openblas_set_num_threads_local")
    missing = [name for name in names if not hasattr(lib, name)]
    if missing:
        raise ImportError(f"numpy's BLAS library exports no {', '.join(missing)}; "
                          "sshchain needs numpy >= 2.4.6 with its bundled OpenBLAS")
    lapack = _Lapack(*(getattr(lib, name) for name in names))
    # a Fortran subroutine: every argument by reference, the character
    # argument followed at the end by its hidden length
    num, data = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    lapack.dstevd.argtypes = [ctypes.c_char_p, num, data, data, data, num, data, num, data,
                              num, num, ctypes.c_size_t]
    lapack.dstevd.restype = None
    lapack.threads.argtypes, lapack.threads.restype = [ctypes.c_int], ctypes.c_int
    return lapack


def _int(value: int):
    return ctypes.byref(ctypes.c_int64(value))


def _ptr(a: np.ndarray):
    return a.ctypes.data_as(ctypes.c_void_p)  # keeps ``a`` alive


class _Plan:
    """The buffers of one chain length, prepared once per ensemble, winding
    or flatband, and dstevd's argument tuple (ILP64 integers, the hidden
    string length) that points into them.

    ``solve`` and the matmuls into these buffers call numpy's OpenBLAS and
    run only under ``one_thread``. The eigensystem is left in ``evals`` and
    ``evecs`` (column-major) and overwritten by the next solve. The
    winding's products read ``rows``, the eigenvectors with their rows in
    sublattice order (A sites, then B), and ``signed``, the same rows scaled
    by each state's weight (see ``_flatband_basis``); Q_AB and Q_BA are then
    products of row blocks with leading dimension 2N, and no strided row
    set is copied per product.
    """

    def __init__(self, n_cells: int):
        self.lapack = _lapack()
        n, half = 2 * n_cells, n_cells
        self.evals, self.off = np.empty(n), np.empty(n - 1)
        self.evecs, self.rows, self.signed, self.grams = (
            np.empty((n, n), order="F") for _ in range(4))
        self.q_ab, self.q_ba = np.empty((half, half), order="F"), np.empty((half, half), order="F")
        work, iwork = np.empty(1 + 4 * n + n * n), np.empty(3 + 5 * n, dtype=np.int64)
        self._info = ctypes.c_int64()
        self._stevd = (b"V", _int(n), _ptr(self.evals), _ptr(self.off), _ptr(self.evecs),
                       _int(n), _ptr(work), _int(work.size), _ptr(iwork), _int(iwork.size),
                       ctypes.byref(self._info), ctypes.c_size_t(1))

    @contextlib.contextmanager
    def one_thread(self):
        """Hold OpenBLAS to one thread, then restore the caller's count.

        Unheld, numpy's OpenBLAS threads even an N = 50 sample's calls, at
        twice the CPU for no wall time. The count is process-wide on
        numpy's pthreads build (measured), so a hold spans one sample or
        call and never a yield.
        """
        previous = self.lapack.threads(1)
        try:
            yield
        finally:
            self.lapack.threads(previous)

    def solve(self, diag: np.ndarray, off: np.ndarray) -> int:
        """dstevd of the bands ``diag``, ``off`` into ``evals``, ``evecs``; returns info."""
        self.evals[:] = diag
        self.off[:] = off  # dstevd destroys it
        self.lapack.dstevd(*self._stevd)
        return self._info.value


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


def _flatband_basis(diag: np.ndarray, off: np.ndarray, plan: _Plan) -> tuple:
    """The shared step of every flatband product, for the tridiagonal bands diag, off.

    Returns (evals, evecs, weights, states): the eigensystem (``plan``'s
    buffers), each state's weight sign(lambda), 0 for the columns of a
    chirally split pair, and that pair's chirality -1 and +1 states
    (columns; None if no pair is split), so that
    Q = evecs diag(weights) evecs^T + s_+ s_+^T - s_- s_-^T.

    One direct divide-and-conquer eigensolve (``_Plan.solve``, LAPACK
    dstevd from numpy's OpenBLAS; the MRRR routine dstemr stops with LAPACK
    info=22 on chains whose edge pair is degenerate far below roundoff,
    e.g. v = 0.01, w = 0.5 at N = 50); a nonzero info raises
    NumericalError. The orthonormality guard checks the full V^T V, one
    matmul into ``plan.grams`` reduced in place. Callers run it under
    ``_Plan.one_thread``.
    """
    info = plan.solve(diag, off)
    if info:
        raise NumericalError(f"tridiagonal eigensolve failed: LAPACK dstevd info = {info}")
    gram = np.matmul(plan.evecs.T, plan.evecs, out=plan.grams)
    np.einsum("ii->i", gram)[:] -= 1.0  # a writeable view of the diagonal
    ortho = float(np.abs(gram, out=gram).max())
    if not ortho <= _ORTHO_TOL:
        raise NumericalError(
            f"tridiagonal eigenvectors not orthonormal: max |V^T V - I| = "
            f"{ortho:.3e} exceeds {_ORTHO_TOL}")

    evals, evecs = plan.evals, plan.evecs
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
            raise DegenerateMidgapError(idx, "zero modes at indices {} are not chiral partners")
    return evals, evecs, np.sign(evals) * ~zero, states


def _with_pair(q: np.ndarray, states, rows: slice, cols: slice) -> np.ndarray:
    """``q``, rows ``rows`` and columns ``cols`` of the weighted product, plus
    the split pair's outer products (see ``_flatband_basis``)."""
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
    diag, off = _bands_of(h, eps_ref)
    plan = _Plan(diag.size // 2)
    with plan.one_thread():
        _, evecs, weights, states = _flatband_basis(diag, off, plan)
        signed, q = np.multiply(evecs, weights, out=np.empty_like(evecs)), np.empty_like(evecs)
        np.matmul(signed, evecs.T, out=q)
    every = slice(None)
    return _with_pair(q, states, every, every)


def _cells(n_cells: int) -> tuple:
    """The winding trace's geometry: the cell-position differences x_j - x_i
    (cells 1..N, as rows i and columns j) and the bulk cells it sums over."""
    x = np.arange(1, n_cells + 1, dtype=float)
    return x[:, None] - x[None, :], slice(1, n_cells - 1) if n_cells > 2 else slice(0, n_cells)


def _blocks(basis: tuple, plan: _Plan) -> tuple:
    """Q_AB and Q_BA (A rows and B columns, and the reverse) over ``basis``:
    two N x N x 2N products over row blocks of one sublattice-ordered copy
    of the basis, each a quarter of the full product."""
    _, evecs, weights, states = basis
    half = evecs.shape[0] // 2
    plan.rows[:half], plan.rows[half:] = evecs[0::2], evecs[1::2]
    np.multiply(plan.rows, weights, out=plan.signed)
    np.matmul(plan.signed[:half], plan.rows[half:].T, out=plan.q_ab)
    np.matmul(plan.signed[half:], plan.rows[:half].T, out=plan.q_ba)
    a, b = slice(0, None, 2), slice(1, None, 2)
    return _with_pair(plan.q_ab, states, a, b), _with_pair(plan.q_ba, states, b, a)


def _winding(basis: tuple, cells: tuple, plan: _Plan) -> float:
    """Bulk trace of Q_BA [X, Q_AB] per unit cell, from the blocks alone.

    ``cells`` is ``_cells(N)``. The trace reads no other part of Q, so
    only Q_AB and Q_BA are formed (``_blocks``).
    """
    q_ab, q_ba = _blocks(basis, plan)
    dx, bulk = cells
    diag = np.einsum("ij,ji->i", q_ba, dx * q_ab)
    return float(np.sum(diag[bulk])) / dx.shape[0]


def _winding_of_bands(diag: np.ndarray, off: np.ndarray) -> WindingResult:
    n_cells = diag.size // 2
    plan = _Plan(n_cells)
    with plan.one_thread():
        nu = _winding(_flatband_basis(diag, off, plan), _cells(n_cells), plan)
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
    """Inverse participation ratio sum|psi|^4 / (sum|psi|^2)^2.

    The ratio does not change when psi is scaled. A state whose largest
    real or imaginary part lies outside [1e-50, 1e50] is divided by that
    part first, so that no power of |psi| under- or overflows; a state
    inside the window (a unit-norm eigenvector among them) is summed as
    given. Only the zero state raises ValidationError.
    """
    psi = _state(state)
    peak = max(np.max(np.abs(psi.real), initial=0.0), np.max(np.abs(psi.imag), initial=0.0))
    if peak == 0.0:
        raise ValidationError("IPR of the zero vector is undefined")
    if not 1e-50 <= peak <= 1e50:
        psi = psi / peak
    return float(_column_iprs(psi[:, None])[0])


def _column_iprs(vectors: np.ndarray) -> np.ndarray:
    """``ipr`` of every column of a matrix, in one array pass and without
    rescaling: the one IPR formula, which ``ipr`` applies to its one column
    (a unit-norm eigenvector needs no rescaling)."""
    mags = np.abs(np.ascontiguousarray(vectors.T))
    return np.sum(mags ** 4, axis=1) / np.sum(mags ** 2, axis=1) ** 2


def localization_length_fit(state: Sequence[float], sublattice: str) -> float:
    """Exponential-decay length of a state on one sublattice, in unit cells.

    Least-squares slope of log|psi| against the cell index over amplitudes
    above AMPLITUDE_FLOOR (1e-12) times the sublattice's largest amplitude,
    so xi does not change when psi is scaled; xi = -1/slope. Raises
    FitUnsupportedError when fewer than three usable points remain or the
    profile does not decay.
    """
    psi = _state(state)
    if psi.size % 2 != 0:
        raise ValidationError(f"state length must be even, got {psi.size}")
    if sublattice not in ("A", "B"):
        raise ValidationError(f"sublattice must be 'A' or 'B', got {sublattice!r}")
    offset = 0 if sublattice == "A" else 1
    amp = np.abs(psi[offset::2])
    cells = np.arange(1, amp.size + 1, dtype=float)
    usable = amp > AMPLITUDE_FLOOR * np.max(amp, initial=0.0)
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


def _samples(base: ChainSpec, config: DisorderConfig, indices):
    """Yield (nu, min_gap_GHz) of disorder realizations ``indices`` of the
    ensemble ``config`` of ``base``.

    What every sample shares is prepared once, before the first: the
    eigensolve's arguments and the products' buffers (``_Plan``); the cell
    geometry of the winding trace; one hop buffer, whose untargeted half
    keeps the base hops; and, when eps is not a target, the base diagonal
    already shifted by its mean. The stream of
    sample k is keyed by (seed, k) and consumed in the fixed order eps, v, w
    for the targeted families, so samples are reproducible regardless of
    evaluation order. Strength < 1 and non-negative base hops keep every
    drawn hop non-negative, so no draw is ever rejected. Each sample's
    calls run on one OpenBLAS thread, and the caller's count is back before
    the sample is yielded.
    """
    plan = _Plan(base.n_cells)
    cells = _cells(base.n_cells)
    hop = _hops(base.v, base.w)
    fixed = None if "eps" in config.targets else base.eps - float(np.mean(base.eps))
    for index in indices:
        rng = np.random.default_rng([config.seed & 0xFFFFFFFFFFFFFFFF, index])
        diag = fixed
        if diag is None:
            eps = _perturbed(base.eps, rng, config.strength)
            diag = eps - float(np.mean(eps))
        if "v" in config.targets:
            hop[0::2] = _perturbed(base.v, rng, config.strength)
        if "w" in config.targets:
            hop[1::2] = _perturbed(base.w, rng, config.strength)
        with plan.one_thread():
            basis = _flatband_basis(diag, hop, plan)
            sample = _winding(basis, cells, plan), float(np.min(np.abs(basis[0])))
        yield sample


def disorder_ensemble(base: ChainSpec, config: DisorderConfig) -> EnsembleResult:
    """Seeded multiplicative-disorder ensemble of winding numbers.

    Each sample perturbs the targeted parameter families by x(1 + delta*u)
    with u uniform in [-1, 1], then records the real-space winding number
    and the smallest distance of any eigenvalue to the sample's mean
    on-site energy. Both come from one tridiagonal eigensolve of the
    sample's bands shifted by that mean (no 2N x 2N Hamiltonian is built):
    the winding from its flatband Q, the gap as the smallest |eigenvalue|
    of the shifted spectrum. What the samples share is prepared once
    (``_samples``).
    """
    nu, gap = np.array(list(zip(*_samples(base, config, range(config.samples)))))
    return EnsembleResult(nu=nu, min_gap_GHz=gap, mean_nu=float(np.mean(nu)),
                          std_nu=float(np.std(nu)), seed=config.seed)


def write_ensemble_outputs(result: EnsembleResult, csv_path, json_path) -> None:
    """Emit the per-sample CSV and the JSON summary for an ensemble.

    ``rejections`` and ``generator`` are constants of the file format:
    with delta < 1 no hop can turn negative, so no draw is ever rejected,
    and every sample stream is a PCG64.
    """
    write_csv(csv_path, ["sample_index", "nu", "min_gap_GHz"],
              [range(result.nu.size), result.nu, result.min_gap_GHz])
    write_json(json_path, {
        "mean_nu": result.mean_nu,
        "std_nu": result.std_nu,
        "rejections": 0,
        "seed": result.seed,
        "generator": RNG_NAME,
    })
