"""Independent reference implementations used to check the main code paths.

Everything here deliberately avoids the package's own algorithms: general
(non-symmetric) eigensolvers instead of eigh, the Newton-iteration matrix
sign function instead of spectral projectors, adaptive quadrature instead
of midpoint sums, complex ABCD matrices instead of their four real parts,
``scipy.signal``'s loops instead of the package's own peak finding, and
closed forms where they exist.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.linalg
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
