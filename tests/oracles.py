"""Independent reference implementations used to check the main code paths.

Everything here deliberately avoids the package's own algorithms: general
(non-symmetric) eigensolvers instead of eigh, the Newton-iteration matrix
sign function instead of spectral projectors, adaptive quadrature instead
of midpoint sums, complex ABCD matrices instead of their four real parts,
``scipy.signal``'s loops instead of the package's own peak finding,
scipy's least-squares solvers, generalized eigensolver and PCHIP instead
of the package's Levenberg-Marquardt, Cholesky reduction and monotone
cubic, 50-digit nodal analysis instead of the ladder cascade, and closed
forms where they exist. Two references instead keep an older composition of
the package's own steps, which the lean paths must equal bit for bit: a
disorder sample formed afresh (``fresh_disorder_sample``) and one sweep
point through the public per-point chain (``classify_point``).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.interpolate
import scipy.linalg
import scipy.optimize
import scipy.signal


@dataclass(frozen=True)
class ChiralOperator:
    """Sublattice-sign operator: +1 on A sites, -1 on B sites."""

    n_cells: int
    matrix: np.ndarray


def chiral_operator(n_cells):
    """Sublattice operator diag(+1, -1, +1, -1, ...) of dimension 2N."""
    return ChiralOperator(n_cells, np.diag(np.tile([1.0, -1.0], n_cells)))


def dense_eigvals(h):
    """Sorted real eigenvalues via the general dense solver."""
    vals = scipy.linalg.eig(np.asarray(h, dtype=float))[0]
    assert np.max(np.abs(vals.imag)) < 1e-9
    return np.sort(vals.real)


def flatband_sign(h, eps_ref):
    """Flatband image via the Newton-iteration matrix sign function."""
    shifted = np.asarray(h, dtype=float) - float(eps_ref) * np.eye(h.shape[0])
    return scipy.linalg.signm(shifted)


def winding_integral(v, w):
    """Adaptive quadrature of the Brillouin-zone winding integrand."""
    def integrand(k):
        hk = v + w * np.exp(1j * k)
        return (1j * w * np.exp(1j * k) / hk).imag
    val, _ = scipy.integrate.quad(integrand, 0.0, 2.0 * np.pi, limit=400)
    return val / (2.0 * np.pi)


def rswn_from_q(q, bulk_margin_cells=1):
    """Winding trace evaluated with explicit loops from a given Q matrix.

    Sums (Q_BA [X, Q_AB])_ii over bulk B-row/A-column pairs elementwise,
    normalized per unit cell, with the margin cells dropped from the trace.
    """
    dim = q.shape[0]
    n_cells = dim // 2
    x = np.repeat(np.arange(1, n_cells + 1, dtype=float), 2)
    lo = 2 * bulk_margin_cells if n_cells > 2 else 0
    hi = dim - 2 * bulk_margin_cells if n_cells > 2 else dim
    total = 0.0
    for i in range(lo, hi):
        if i % 2 == 0:
            continue
        for j in range(dim):
            if j % 2 == 1:
                continue
            total += q[i, j] * (x[j] - x[i]) * q[j, i]
    return total / n_cells


def fresh_disorder_sample(base, config, index):
    """(nu, min_gap_GHz) of disorder sample ``index``, composed afresh: nothing
    is shared with other samples of the ensemble.

    The draws, then scipy's ``eigh_tridiagonal`` (LAPACK dstevd) of the
    bands shifted by the sample's mean on-site energy, the sign/chirality
    split of ``topology.flatband``, one dgemm per sublattice block of Q
    and the bulk trace, each formed afresh for the sample.
    """
    from scipy.linalg.blas import dgemm

    from sshchain.topology import PAIR_SEPARATION, ZERO_TOL, _chiral_states

    rng = np.random.default_rng([config.seed & 0xFFFFFFFFFFFFFFFF, index])

    def drawn(values, target):
        if target not in config.targets:
            return values
        return values * (1.0 + config.strength * rng.uniform(-1.0, 1.0, size=values.size))

    eps, v, w = drawn(base.eps, "eps"), drawn(base.v, "v"), drawn(base.w, "w")
    hop = np.empty(v.size + w.size)
    hop[0::2] = v
    hop[1::2] = w
    evals, evecs = scipy.linalg.eigh_tridiagonal(eps - float(np.mean(eps)), hop,
                                                 check_finite=False, lapack_driver="stevd")
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
        assert idx.size == 2
        states = _chiral_states(evecs[:, idx])
        assert states is not None
    signed = evecs * (np.sign(evals) * ~zero)

    def q_block(rows, cols):
        q = dgemm(1.0, signed[rows], evecs[cols], trans_b=1)
        if states is not None:
            q = q + np.outer(states[rows, 1], states[cols, 1]) - \
                np.outer(states[rows, 0], states[cols, 0])
        return q

    a, b = slice(0, None, 2), slice(1, None, 2)
    q_ab, q_ba = q_block(a, b), q_block(b, a)
    n_cells = q_ab.shape[0]
    x = np.arange(1, n_cells + 1, dtype=float)
    diag = np.einsum("ij,ji->i", q_ba, (x[:, None] - x[None, :]) * q_ab)
    bulk = slice(1, n_cells - 1) if n_cells > 2 else slice(0, n_cells)
    return float(np.sum(diag[bulk])) / n_cells, float(np.min(mags))


def classify_point(circuit):
    """(chain, spectrum, classification) of one circuit through the public
    per-point chain: ``map_circuit_to_tb``, ``build_tb_hamiltonian``,
    ``eigendecompose`` and ``classify_modes`` about the mean site energy."""
    from sshchain import build_tb_hamiltonian, classify_modes, eigendecompose, map_circuit_to_tb

    chain = map_circuit_to_tb(circuit)
    spectrum = eigendecompose(build_tb_hamiltonian(chain))
    return chain, spectrum, classify_modes(spectrum, float(np.mean(chain.eps)))


def sweep_points(circuit, grid, cells=None):
    """``[(lv_nH, chain, spectrum, classification), ...]`` of a coupling sweep,
    one ``classify_point`` per grid value, in grid order."""
    cells = np.arange(circuit.n_cells) if cells is None else np.asarray(cells)
    points = []
    for value in np.asarray(grid, dtype=float).tolist():
        lv = np.array(circuit.lv)
        lv[cells] = value
        points.append((value, *classify_point(circuit.with_lv(lv))))
    return points


def open_chain_ipr(n_sites):
    """IPR of every eigenvector of a uniform open chain of n_sites sites.

    Uniform on-site energy and hopping give the standing waves
    psi_j(n) = sqrt(2/(L+1)) sin(pi j n/(L+1)), n, j = 1..L, L = n_sites.
    With sin^4 x = 3/8 - cos(2x)/2 + cos(4x)/8, the two cosine sums over
    n = 0..L vanish unless 2j = 0 mod (L+1), so sum_n sin^4 = 3(L+1)/8 and
    IPR = (2/(L+1))^2 * 3(L+1)/8 = 3/(2(L+1)). For an SSH chain L = 2N,
    L+1 is odd and the condition holds for every j. This differs from the
    1/L of a uniform-amplitude (periodic-ring) state by 3L/(2(L+1)).
    """
    return 3.0 / (2.0 * (n_sites + 1))


def shunt_lc_s21(freqs_GHz, l_nH, c_fF, z0=50.0):
    """Closed-form transmission of one parallel-LC shunt between the ports."""
    omega = 2.0 * np.pi * np.asarray(freqs_GHz) * 1e9
    y = 1j * omega * c_fF * 1e-15 + 1.0 / (1j * omega * l_nH * 1e-9)
    return 1.0 / (1.0 + z0 * y / 2.0)


def abcd_to_s21(abcd, z0=50.0):
    """S21 of a stack of ABCD matrices at reference impedance z0."""
    a = abcd[..., 0, 0]
    b = abcd[..., 0, 1]
    c = abcd[..., 1, 0]
    d = abcd[..., 1, 1]
    return 2.0 / (a + b / z0 + c * z0 + d)


def complex_ladder_abcd(circuit, freqs):
    """ABCD matrices of the chain ladder, cascaded in complex arithmetic.

    The element-by-element complex cascade the package ran before it
    carried the lossless ladder as four real arrays; pinched (infinite)
    coupling inductances enter as 1000 nH.
    """
    omega = 2.0 * np.pi * np.asarray(freqs, dtype=float) * 1e9
    a = np.ones_like(omega, dtype=complex)
    b = np.zeros_like(a)
    c = np.zeros_like(a)
    d = np.ones_like(a)

    def shunt(y):
        nonlocal a, c
        a = a + b * y
        c = c + d * y

    def series(z):
        nonlocal b, d
        b = b + a * z
        d = d + c * z

    n = circuit.n_cells
    lv = np.where(np.isfinite(circuit.lv), circuit.lv, 1000.0)
    shunt(1j * omega * circuit.c0[0] * 1e-15)        # left terminating site
    series(1.0 / (1j * omega * circuit.cw[0] * 1e-15))
    for cell in range(n):
        for site, nxt in ((2 * cell, None), (2 * cell + 1, cell + 1)):
            shunt(1j * omega * circuit.c0[site] * 1e-15
                  + 1.0 / (1j * omega * circuit.l0[site] * 1e-9))
            if nxt is None:
                series(1j * omega * lv[cell] * 1e-9)
            else:
                series(1.0 / (1j * omega * circuit.cw[nxt] * 1e-15))
    shunt(1j * omega * circuit.c0[-1] * 1e-15)       # right terminating site
    return np.stack([np.stack([a, b], axis=-1),
                     np.stack([c, d], axis=-1)], axis=-2)


def complex_ladder_s21(circuit, freqs, z0=50.0):
    """S21 of the bare ladder from ``complex_ladder_abcd`` at port impedance z0."""
    return abcd_to_s21(complex_ladder_abcd(circuit, freqs), z0)


def lorentzian_mag(freqs, f0, fwhm, amplitude, baseline=0.0):
    """|s21|-style Lorentzian peak with the stated full width."""
    hwhm = fwhm / 2.0
    return baseline + amplitude * hwhm ** 2 / ((freqs - f0) ** 2 + hwhm ** 2)


def mode_linewidths(spectrum, kappa_port):
    """External linewidth per mode from the wavefunction weight on the ends.

    kappa_n = kappa_port * (|psi_n(first site)|^2 + |psi_n(last site)|^2);
    the values sum to 2 * kappa_port over a complete orthonormal basis.
    """
    vec = spectrum.eigenvectors
    return kappa_port * (vec[0, :] ** 2 + vec[-1, :] ** 2)


def normalized_spectrum(sweep):
    """``[(lv_nH, eigenvalues / mean on-site energy), ...]`` in sweep order;
    uniform-parameter chains come out symmetric about 1."""
    return [(point.lv_nH, point.spectrum.eigenvalues / float(np.mean(point.chain.eps)))
            for point in sweep]


# scipy.signal's peak finding, which ``extract_peaks`` imported until the
# package found its peaks itself. Each function takes the arguments and
# returns the results of the ``microwave`` helper ``SCIPY_PEAK_ROUTE`` maps
# it to.

def _quiet(function, *args, **kwargs):
    """``function(*args, **kwargs)`` without scipy's warnings of zero
    prominences and widths, which the package returns silently."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "some peaks have a .* of 0", RuntimeWarning)
        return function(*args, **kwargs)


def scipy_find_peaks(x, prominence):
    """The local maxima with ``prominence`` or more, and their prominences."""
    peaks, props = _quiet(scipy.signal.find_peaks, x, prominence=prominence)
    return peaks, props["prominences"]


def scipy_bases(x, peak):
    """The left and right prominence bases of one peak."""
    _, left, right = _quiet(scipy.signal.peak_prominences, x, [peak])
    return int(left[0]), int(right[0])


def scipy_half_height_crossings(x, peaks, prominences):
    """The interpolated half-prominence crossings of each peak; scipy takes
    the prominences afresh, as ``extract_peaks`` once let it."""
    _, _, left_ips, right_ips = _quiet(scipy.signal.peak_widths, x, peaks, rel_height=0.5)
    return left_ips, right_ips


SCIPY_PEAK_ROUTE = {"_find_peaks": scipy_find_peaks, "_bases": scipy_bases,
                    "_half_height_crossings": scipy_half_height_crossings}


# scipy's solvers, which the package used until it solved these itself.

def least_squares_c0(targets, start):
    """``start``'s c0 fitted to ``targets`` by ``least_squares`` (dogbox, its
    own two-point Jacobian) over ln c0 within a factor of ten of the start,
    the other parameters held: a first start of the package's fit with the
    c0 family free."""
    from sshchain import CircuitSpec, model_eigenfrequencies

    def residuals(x):
        return model_eigenfrequencies(
            CircuitSpec(start.n_cells, np.exp(x), start.l0, start.lv, start.cw)) - targets

    x0 = np.log(start.c0)
    result = scipy.optimize.least_squares(residuals, x0, method="dogbox", ftol=1e-7,
                                          xtol=1e-9, bounds=(x0 - math.log(10), x0 + math.log(10)))
    return np.exp(result.x)


def curve_fit_lm(residuals, p0):
    """The parameters ``curve_fit(method="lm", maxfev=200)`` finds for the
    residual function of a peak window, or None at its evaluation cap."""
    size = residuals(p0).size
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.optimize.OptimizeWarning)
            popt, _ = scipy.optimize.curve_fit(
                lambda _, *p: residuals(np.array(p)), np.zeros(size), np.zeros(size),
                p0=p0, method="lm", maxfev=200)
    except RuntimeError:
        return None
    return popt


def generalized_eigvals(k, m):
    """Eigenvalues of K x = lambda M x by LAPACK's dsygvd, ascending."""
    return scipy.linalg.eigh(k, m, eigvals_only=True)


def pchip(x, y, at):
    """``PchipInterpolator`` through (x, y), evaluated at ``at``."""
    return scipy.interpolate.PchipInterpolator(x, y)(at)


def mp_ladder_s21(circuit, freqs, z0=50.0, box=None, dps=50):
    """S21 of the chain ladder by nodal analysis in mpmath at ``dps`` digits.

    Shares no step with the ABCD cascade of ``s21_trace`` or
    ``complex_ladder_abcd``: the ladder's 2N + 2 nodes (the two terminating
    coupling sites around the 2N chain sites) give a tridiagonal admittance
    matrix, solved for a unit current into each port node. That yields the
    bare ladder's Z parameters; a box mode adds its series-LC bridge
    (resonant at ``box.f_box`` with reactance slope 2 z0 q_box, scaled by
    ``box.coupling``) to the Y parameters, from which S21 follows (Pozar,
    *Microwave Engineering*, table 4.2). Pinched junctions enter as
    ``PINCHED_LV_NH``, as in ``s21_trace``. Every input is taken exactly.
    """
    import mpmath

    from sshchain.microwave import PINCHED_LV_NH

    n = circuit.n_cells
    with mpmath.workdps(dps):
        mpf = mpmath.mpf
        c0 = [mpf(c) * mpf("1e-15") for c in circuit.c0.tolist()]
        l0 = [mpf(h) * mpf("1e-9") for h in circuit.l0.tolist()]
        cw = [mpf(c) * mpf("1e-15") for c in circuit.cw.tolist()]
        lv = [mpf(h if math.isfinite(h) else PINCHED_LV_NH) * mpf("1e-9")
              for h in circuit.lv.tolist()]
        z0 = mpf(z0)
        out = []
        for f in np.asarray(freqs, dtype=float).tolist():
            jw = mpmath.mpc(0, 2 * mpmath.pi * mpf(f) * mpf(10) ** 9)
            shunt = ([jw * c0[0]] + [jw * c0[k] + 1 / (jw * l0[k]) for k in range(2 * n)]
                     + [jw * c0[-1]])
            series = [jw * cw[0]]
            for cell in range(n):
                series += [1 / (jw * lv[cell]), jw * cw[cell + 1]]
            diag = [s + (series[i - 1] if i else 0) + (series[i] if i < 2 * n + 1 else 0)
                    for i, s in enumerate(shunt)]
            left = _mp_tridiagonal_solve(diag, [-s for s in series], 0)
            right = _mp_tridiagonal_solve(diag, [-s for s in series], 2 * n + 1)
            z11, z21, z12, z22 = left[0], left[-1], right[0], right[-1]
            det = z11 * z22 - z12 * z21
            y11, y12, y21, y22 = z22 / det, -z12 / det, -z21 / det, z11 / det
            if box is not None:
                omega_b = 2 * mpmath.pi * mpf(box.f_box) * mpf(10) ** 9
                z_char = 2 * z0 * mpf(box.q_box)
                bridge = mpf(box.coupling) / (jw * z_char / omega_b + z_char * omega_b / jw)
                y11, y12, y21, y22 = y11 + bridge, y12 - bridge, y21 - bridge, y22 + bridge
            s21 = -2 * y21 * z0 / ((1 + y11 * z0) * (1 + y22 * z0) - y12 * y21 * z0 ** 2)
            out.append(complex(s21))
    return np.array(out)


def _mp_tridiagonal_solve(diag, off, k):
    """Solve the symmetric tridiagonal system (diag, off) x = e_k (Thomas)."""
    size = len(diag)
    d = list(diag)
    rhs = [0] * size
    rhs[k] = 1
    for i in range(1, size):
        factor = off[i - 1] / d[i - 1]
        d[i] -= factor * off[i - 1]
        rhs[i] -= factor * rhs[i - 1]
    x = [0] * size
    x[-1] = rhs[-1] / d[-1]
    for i in range(size - 2, -1, -1):
        x[i] = (rhs[i] - off[i] * x[i + 1]) / d[i]
    return x
