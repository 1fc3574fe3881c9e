"""Least-squares estimation of circuit parameters from eigenfrequencies.

The fit matches the sorted tight-binding eigenfrequencies of a candidate
circuit to a supplied frequency list with the package's own bounded
Levenberg-Marquardt solver (``_levenberg_marquardt``, which peak
refinement in ``microwave`` uses too). It works on the logarithms of the
free parameters, so positivity is structural and relative steps mean the
same thing for nanohenries and femtofarads. The solver's Jacobian is
analytic: one eigendecomposition gives every eigenvalue's Hellmann-Feynman
derivatives, chained through the closed-form derivative of the
circuit-to-chain map. Only where two eigenvalues of the current model
(nearly) cross is it formed from forward differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .chain import CircuitSpec, _assemble_hamiltonian, _map_arrays, _number, _numbers
from .csvout import fmt, write_csv, write_json
from .errors import ValidationError

__all__ = [
    "FitOptions",
    "FitProblem",
    "FitResult",
    "PARAM_FAMILIES",
    "model_eigenfrequencies",
    "fit_circuit_params",
    "disorder_report",
    "fit_problem_from_dict",
    "write_fit_outputs",
]

PARAM_FAMILIES = ("c0", "l0", "cw", "lv")

# keys of the fit problem's JSON form; the first two are required
_FIT_PROBLEM_KEYS = ("targets_GHz", "start", "free", "bounds")


@dataclass(frozen=True)
class FitOptions:
    """Solver tolerances and start-point jitter for one fit.

    ``tol_f`` and ``tol_x`` are the ``ftol`` and ``xtol`` stops of the
    package's Levenberg-Marquardt solver (relative decrease of the cost
    and relative length of the log-parameter step), ``max_iter`` caps the
    residual evaluations of each start, and ``step`` is the half-width, in
    log-parameter units, of the uniform jitter applied to the start point
    of every start after the first. The solver's third stop, on the
    gradient, is fixed at 1e-8, ``scipy.optimize.least_squares``' default
    ``gtol``.
    """

    tol_f: float = 1e-7
    tol_x: float = 1e-9
    max_iter: int = 5000
    step: float = 0.02

    def __post_init__(self):
        for name in ("tol_f", "tol_x", "step"):
            object.__setattr__(self, name, _number(getattr(self, name), name, minimum=0))
        object.__setattr__(self, "max_iter",
                           _number(self.max_iter, "max_iter", integer=True, minimum=1))


def model_eigenfrequencies(circuit: CircuitSpec) -> np.ndarray:
    """Sorted tight-binding eigenfrequencies of a circuit, in GHz."""
    eps, v, w = _map_arrays(circuit.c0, circuit.l0, circuit.lv, circuit.cw)
    return np.linalg.eigvalsh(_assemble_hamiltonian(eps, v, w))


# forward-difference step per unit of max(1, |x|), as scipy's "2-point"
_DIFF_STEP = math.sqrt(np.finfo(float).eps)
# Adjacent eigenvalues closer than this, relative to max|lambda|, count as a
# crossing, where lambda_k has no derivative (Nelson, AIAA J. 14, 1201
# (1976)); that Jacobian is differenced. eigh's vectors carry errors of
# ~ machine eps * max|lambda| / gap, so below this gap the analytic columns
# are no more accurate than forward differences.
_DEGENERACY_TOL = _DIFF_STEP


def _eigenfrequency_jacobian(c0, l0, lv, cw, eps, h):
    """d lambda_k / d ln p for every circuit parameter p, or None at a crossing.

    ``eps`` and ``h`` are the site energies and the assembled Hamiltonian
    the circuit (c0, l0, lv, cw) maps to (``_map_arrays``,
    ``_assemble_hamiltonian``), as its residual evaluation built them.
    Columns follow the flat layout (c0 | l0 | cw | lv). Hellmann-Feynman gives
    d lambda_k / d eps_i = psi_ik^2 and d lambda_k / d t_j = 2 psi_jk psi_(j+1)k
    for a simple eigenvalue; the chain rule through the map is local to a site,
    where ln eps = -(ln L_T + ln C_T) / 2, a hop's side value is
    eps L_T / (2 Lv) (intra-cell v) or eps Cw / (2 C_T) (inter-cell w), and
    a hop is the mean of its bond's two side values. A pinched lv column is 0.
    """
    n = lv.size
    lam, psi = np.linalg.eigh(h)
    if np.any(np.diff(lam) <= _DEGENERACY_TOL * np.max(np.abs(lam))):
        return None
    cw_site = np.repeat(cw, 2)[1:-1]  # site 2k touches cw[k], site 2k+1 cw[k+1]
    c_share = (cw_site / (c0 + cw_site))[:, None]  # d ln C_T / d ln Cw
    l_share = (l0 / (l0 + np.repeat(lv, 2)))[:, None]  # d ln L_T / d ln Lv
    # per site and eigenvalue: d lambda / d ln eps, ln v_side and ln w_side
    bond = psi[:-1] * psi[1:]  # psi_j psi_(j+1); d t / d ln side = side / 2
    d_eps = psi ** 2 * eps[:, None]
    d_v = np.repeat(bond[0::2], 2, axis=0) * (0.5 * eps[:, None] * l_share)
    d_w = np.zeros_like(psi)
    d_w[1:-1:2] = d_w[2::2] = bond[1::2]  # bond 2k+1 joins sites 2k+1 and 2k+2
    d_w *= 0.5 * eps[:, None] * c_share
    half = -0.5 * (d_eps + d_v + d_w)  # ln eps enters all three
    d_ln_c0 = (1.0 - c_share) * (half - d_w)
    d_ln_cw_site = c_share * half + (1.0 - c_share) * d_w
    d_ln_l0 = (1.0 - l_share) * (half + d_v)
    d_ln_lv_site = l_share * half - (1.0 - l_share) * d_v
    d_ln_cw = np.zeros((n + 1, 2 * n))
    d_ln_cw[:-1] += d_ln_cw_site[0::2]
    d_ln_cw[1:] += d_ln_cw_site[1::2]
    d_ln_lv = d_ln_lv_site[0::2] + d_ln_lv_site[1::2]
    return np.concatenate([d_ln_c0, d_ln_l0, d_ln_cw, d_ln_lv]).T


def _forward_differences(fun, x, lo, hi):
    """Forward-difference Jacobian of ``fun`` at ``x``, steps as scipy's "2-point".

    A step that would leave the box [lo, hi] is taken backwards instead.
    """
    f0 = fun(x)
    h = _DIFF_STEP * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    h = np.where((x + h < lo) | (x + h > hi), -h, h)
    columns = []
    for j in range(x.size):
        shifted = x.copy()
        shifted[j] += h[j]
        columns.append((fun(shifted) - f0) / (shifted[j] - x[j]))
    return np.column_stack(columns)


# The solver stops once no free component of J^T r exceeds this, which is
# least_squares' default gtol. Without it the bench's zero-residual fits run
# on until their steps fall below xtol: 36-41 evaluations where 15-18 suffice.
_GTOL = 1e-8
# initial damping, relative to the scaled diagonal of J^T J (Madsen, Nielsen
# and Tingleff's tau)
_TAU = 1e-3


class _Solution(NamedTuple):
    """``_levenberg_marquardt``'s end point and residuals there, its stop
    (0: the evaluation cap, 1: gtol, 2: ftol, 3: xtol) and its counts of
    residual and Jacobian evaluations."""

    x: np.ndarray
    residuals: np.ndarray
    status: int
    evaluations: int
    jacobians: int


def _half_square(v: np.ndarray) -> float:
    """0.5 |v|^2. ``einsum`` sums in its own loop. BLAS's dot, which ``@``
    calls on two vectors, starts threads that stay busy after the call from
    10,001 entries (OpenBLAS 0.3.31: CPU/wall 1.99 against 1.12 at 10,000,
    on 2 cores); the matrix-vector products ``@`` makes of the same sizes
    measured single-threaded."""
    return 0.5 * float(np.einsum("k,k->", v, v))


def _levenberg_marquardt(fun, jac_t, x, lo, hi, ftol, xtol, max_nfev) -> _Solution:
    """Minimise 0.5 |fun(x)|^2 over the box lo <= x <= hi from ``x`` inside it.

    ``jac_t(x)`` returns the transposed Jacobian J^T, row j the derivative of
    every residual by x_j; row-major, its products over the residuals read
    contiguous memory.

    Each step solves the damped normal equations (J^T J + mu D^2) h = -J^T r,
    with Moré's scaling D, the running maximum of J's column norms (Moré,
    LNM 630, 105 (1978)), and projects x + h onto the box. A variable on a
    bound that -J^T r points out of is held there.
    A step that lowers the cost is taken; the gain ratio rho of actual to
    predicted decrease then scales mu by max(1/3, 1 - (2 rho - 1)^3), and a
    rejected step multiplies it by 2, 4, 8, ... (Madsen, Nielsen and
    Tingleff, *Methods for non-linear least squares problems*, DTU (2004),
    algorithm 3.16). The stops are those of ``least_squares``: no free
    gradient component above ``_GTOL``, a step that lowers the cost by less
    than ``ftol`` of it with rho > 1/4, a step shorter than
    ``xtol * (xtol + |x|)``, or ``max_nfev`` residual evaluations. ``jac_t``
    is evaluated once per point taken, except the last. Every product over
    the residuals is an ``einsum`` (see ``_half_square``): a peak window has
    thousands of residuals.
    """
    f = fun(x)
    cost = _half_square(f)
    evaluations = jacobians = 1
    jacobian_t = jac_t(x)
    scale = np.zeros(x.size)
    mu, grow = _TAU, 2.0
    status = 0
    while True:
        g = np.einsum("ik,k->i", jacobian_t, f)
        held = ((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0))
        descent = np.where(held, 0.0, -g)
        if np.abs(descent).max() < _GTOL:
            status = 1
            break
        gram = np.einsum("ik,jk->ij", jacobian_t, jacobian_t)  # J^T J
        diagonal = gram.diagonal().copy()
        scale = np.maximum(scale, np.sqrt(diagonal))
        damping = np.where(scale > 0, scale * scale, 1.0)
        # a held variable's row and column are cleared, so its step is 0
        normal = gram.copy()
        normal[held] = 0.0
        normal[:, held] = 0.0
        diagonal[held] = 0.0
        x_norm = math.sqrt(x @ x)
        taken = False
        while not (taken or status) and evaluations < max_nfev:
            np.fill_diagonal(normal, diagonal + mu * damping)
            try:
                step = np.linalg.solve(normal, descent)
            except np.linalg.LinAlgError:
                mu, grow = mu * grow, grow * 2.0
                continue
            x_new = np.minimum(np.maximum(x + step, lo), hi)
            step = x_new - x
            f_new = fun(x_new)
            evaluations += 1
            cost_new = _half_square(f_new)
            if not math.isfinite(cost_new):
                cost_new = math.inf
            predicted = -float(g @ step) - 0.5 * float(step @ gram @ step)
            actual = cost - cost_new
            ratio = actual / predicted if predicted > 0 else 0.0
            taken = actual > 0
            if taken:
                mu, grow = mu * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), 2.0
            else:
                mu, grow = mu * grow, grow * 2.0
            if actual < ftol * cost and ratio > 0.25:
                status = 2
            elif math.sqrt(step @ step) < xtol * (xtol + x_norm):
                status = 3
            if taken:
                x, f, cost = x_new, f_new, cost_new
        if status or evaluations >= max_nfev:
            break
        jacobian_t = jac_t(x)
        jacobians += 1
    return _Solution(x, f, status, evaluations, jacobians)


def _parameter_layout(start: CircuitSpec, free, bounds):
    """The fit's flat parameter vectors: start values, free mask, lo and hi.

    One entry per circuit parameter, families in ``PARAM_FAMILIES`` order
    (c0 | l0 | cw | lv), ascending index within each. A pinched (infinite)
    lv entry is never free, and some entry must be. Bounds are checked on
    free entries only.
    """
    for what, given, kind in (("free", free, "flags"), ("bounds", bounds, "(lo, hi)")):
        if not isinstance(given, (dict, type(None))):
            raise ValidationError(f"{what} must map parameter families to {kind}, got {given!r}",
                                  what)
        unknown = sorted(set(given or {}) - set(PARAM_FAMILIES))
        if unknown:
            raise ValidationError(f"{what} has unknown parameter families: {unknown}", what)
    free, bounds = free or {}, bounds or {}
    values = np.concatenate([getattr(start, name) for name in PARAM_FAMILIES])
    mask = np.isfinite(values)  # pinched junctions stay pinned
    lo = np.where(mask, values, 1.0) / 10.0
    hi = np.where(mask, values, 1.0) * 10.0
    offset = 0
    for name in PARAM_FAMILIES:
        size = getattr(start, name).size
        part = slice(offset, offset + size)
        offset += size
        flags = np.asarray(free.get(name, True))
        if flags.dtype != bool or flags.shape not in ((), (size,)):
            raise ValidationError(f"free.{name} must be true, false or one boolean "
                                  f"per entry ({size}), got {free.get(name)!r}", f"free.{name}")
        mask[part] &= flags
        if name in bounds:
            try:
                lo[part], hi[part] = (np.broadcast_to(_numbers(b, f"{name} bounds"), size)
                                      for b in bounds[name])
            except ValidationError:
                raise
            except (TypeError, ValueError):
                raise ValidationError(
                    f"{name} bounds must be a (lo, hi) pair of scalars or of one value "
                    f"per entry ({size}), got {bounds[name]!r}", f"{name} bounds") from None
        sel = mask[part]
        x, x_lo, x_hi = values[part][sel], lo[part][sel], hi[part][sel]
        if not np.all(x_lo > 0):
            raise ValidationError(f"{name} bounds must be positive", f"{name} bounds")
        if not np.all(x_lo < x_hi):
            raise ValidationError(f"{name} bounds must have lo < hi", f"{name} bounds")
        if np.any((x < x_lo) | (x > x_hi)):
            raise ValidationError(f"start {name} values fall outside their bounds",
                                  f"start {name}")
    if not mask.any():
        raise ValidationError("free selects no parameters to fit", "free")
    return values, mask, lo, hi


@dataclass(frozen=True)
class FitProblem:
    """Fit task: target frequency list, start circuit, freedom and bounds.

    ``free`` maps a parameter family to a boolean (or per-entry boolean
    list); omitted families are fully free. Non-finite lv entries are
    always held fixed. ``bounds`` maps a family to (lo, hi) scalars or
    per-entry arrays; defaults span a factor of ten around the start.
    """

    target_freqs: np.ndarray
    start: CircuitSpec
    free: Optional[dict] = None
    bounds: Optional[dict] = None
    _layout: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        targets = _numbers(self.target_freqs, "target frequencies").ravel()
        if targets.size != self.start.n_sites:
            raise ValidationError(
                f"need {self.start.n_sites} target frequencies, got {targets.size}")
        targets.sort()
        targets.flags.writeable = False
        object.__setattr__(self, "target_freqs", targets)
        # resolved here, so a bad problem fails before the optimizer runs
        object.__setattr__(self, "_layout", _parameter_layout(self.start, self.free, self.bounds))


@dataclass(frozen=True)
class FitResult:
    best: CircuitSpec
    residual_rms_kHz: float
    iterations: int
    evaluations: int
    restarts: int
    converged: bool
    clamped: int
    disorder_report_pct: dict


def disorder_report(spec: CircuitSpec) -> dict:
    """Relative spread (100 * stddev / mean) per parameter family.

    Infinite lv entries are excluded; families left with fewer than two
    finite entries are omitted from the report.
    """
    report = {}
    for name in PARAM_FAMILIES:
        arr = getattr(spec, name)
        finite = arr[np.isfinite(arr)]
        if finite.size < 2:
            continue
        report[name] = float(100.0 * np.std(finite) / np.mean(finite))
    return report


def fit_circuit_params(problem: FitProblem,
                       options: Optional[FitOptions] = None,
                       max_restarts: int = 8,
                       target_rms_GHz: float = 1e-7,
                       multi_start: int = 1) -> FitResult:
    """Fit the circuit's eigenfrequencies to the target list.

    Each start runs the package's bounded Levenberg-Marquardt solver
    (analytic Hellmann-Feynman Jacobian; forward differences only where two
    model eigenvalues nearly cross) on the residuals between the model and
    target eigenfrequencies, over the logs of the free parameters and
    inside the problem's box bounds; masked parameters are carried over
    to the result bit-identically. ``options`` sets the solver tolerances,
    the per-start evaluation cap and the jitter width (see
    :class:`FitOptions`). While the best RMS residual is above
    ``target_rms_GHz``, up to ``multi_start - 1`` (``multi_start`` >= 1)
    further starts are run
    from deterministically jittered copies of the start point, and the
    best outcome is kept; this escapes occasional secondary minima.
    ``max_restarts`` is accepted for compatibility (an integer) and has
    no effect.

    In the result, ``evaluations`` counts residual evaluations, including
    those of the forward-difference Jacobians at near crossings (an
    analytic Jacobian costs none), ``iterations`` counts Jacobian
    evaluations of either kind, ``restarts`` counts jittered starts run,
    ``converged`` reports whether the kept run met a tolerance, and
    ``clamped`` counts free parameters at a bound at the solution.
    """
    target_rms_GHz, multi_start = _fit_settings(max_restarts, target_rms_GHz, multi_start)
    opts = options or FitOptions()
    values, mask, lo, hi = problem._layout
    free = np.flatnonzero(mask)
    # math.log/exp per scalar: np.exp differs from math.exp in the last bit
    log_lo, log_hi, x0 = (np.array([math.log(b) for b in arr[free]]) for arr in (lo, hi, values))
    n = problem.start.n_cells
    evaluations = 0
    iterations = 0

    def circuit_arrays(x, in_box=False):
        """c0, l0, lv, cw (``_map_arrays`` order): views of a start copy holding
        exp(x), clipped to the box if ``in_box`` (exp(log b) can miss b by an ulp)."""
        flat = values.copy()
        flat[free] = [math.exp(value) for value in x]
        if in_box:
            flat[free] = np.clip(flat[free], lo[free], hi[free])
        return flat[:2 * n], flat[2 * n:4 * n], flat[5 * n + 1:], flat[4 * n:5 * n + 1]

    def model(x):
        """x with its circuit arrays, site energies and Hamiltonian."""
        arrays = circuit_arrays(x)
        eps, v, w = _map_arrays(*arrays)
        return x, arrays, eps, _assemble_hamiltonian(eps, v, w)

    last = (None,)  # model() of the last residual evaluation

    def residuals(x):
        nonlocal evaluations, last
        evaluations += 1
        last = model(x)
        return np.linalg.eigvalsh(last[3]) - problem.target_freqs

    def jacobian_t(x):
        # The solver asks at the point it evaluated last, the same array
        # object: its model is reused (matched by identity, as hashing x
        # costs more than the rebuild it saves)
        _, arrays, eps, h = last if last[0] is x else model(x)
        full = _eigenfrequency_jacobian(*arrays, eps, h)
        if full is None:
            return _forward_differences(residuals, x, log_lo, log_hi).T
        return full.T[free]

    def run(x_start):
        nonlocal iterations
        result = _levenberg_marquardt(residuals, jacobian_t, x_start, log_lo, log_hi,
                                      opts.tol_f, opts.tol_x, opts.max_iter)
        iterations += result.jacobians
        return result, float(np.sqrt(np.mean(result.residuals ** 2)))

    result, rms = run(x0)
    restarts = 0
    for attempt in range(1, multi_start):
        if rms <= target_rms_GHz:
            break
        restarts += 1
        rng = np.random.default_rng([0x5517, attempt])
        jittered = np.clip(x0 + opts.step * rng.uniform(-1.0, 1.0, x0.size),
                           log_lo, log_hi)
        retry, retry_rms = run(jittered)
        if retry_rms < rms:
            result, rms = retry, retry_rms

    best = CircuitSpec(n, *circuit_arrays(result.x, in_box=True))
    return FitResult(
        best=best,
        residual_rms_kHz=rms * 1e6,
        iterations=iterations,
        evaluations=evaluations,
        restarts=restarts,
        converged=result.status > 0,
        clamped=int(np.count_nonzero((result.x <= log_lo) | (result.x >= log_hi))),
        disorder_report_pct=disorder_report(best),
    )


def _fit_settings(max_restarts=8, target_rms_GHz=1e-7, multi_start=1) -> tuple:
    """``fit_circuit_params``' checked settings: the two that take effect."""
    _number(max_restarts, "max_restarts", integer=True)
    return (_number(target_rms_GHz, "target_rms_GHz"),
            _number(multi_start, "multi_start", integer=True, minimum=1))


def fit_problem_from_dict(data: dict) -> FitProblem:
    """Build a FitProblem from its JSON document form."""
    unknown = sorted(set(data) - set(_FIT_PROBLEM_KEYS))
    if unknown:
        raise ValidationError(f"unknown fit-problem keys: {unknown}")
    for key in _FIT_PROBLEM_KEYS[:2]:
        if key not in data:
            raise ValidationError(f"fit problem needs '{key}'")
    return FitProblem(
        target_freqs=data["targets_GHz"],
        start=CircuitSpec.from_dict(data["start"]),
        free=data.get("free"),
        bounds=data.get("bounds"),
    )


def write_fit_outputs(result: FitResult, json_path, sites_csv_path,
                      couplings_csv_path) -> None:
    """Emit the fit summary JSON and the per-site / per-coupling CSVs."""
    write_json(json_path, {
        "residual_rms_kHz": result.residual_rms_kHz,
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "restarts": result.restarts,
        "converged": result.converged,
        "clamped": result.clamped,
        "disorder_report_pct": result.disorder_report_pct,
        "best": result.best.to_dict(),
    })
    best = result.best
    write_csv(sites_csv_path, ["site_index", "c0_fF", "l0_nH"],
              [range(best.n_sites), best.c0, best.l0])
    # the last coupling capacitor has no junction: its lv cell stays empty
    write_csv(couplings_csv_path, ["coupling_index", "cw_fF", "lv_nH"],
              [range(best.n_cells + 1), best.cw,
               [fmt(x) for x in best.lv.tolist()] + [""]])
