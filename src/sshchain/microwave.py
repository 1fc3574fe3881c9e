"""Physical-layer models: gate-tunable nanowire inductance and two-port S21.

The chain is a two-port ladder driven from the left: a capacitance-only
terminating coupling site, the outer coupling capacitor, then per cell a
shunt site resonator (parallel L0/C0 to ground), the series coupling
inductor, the partner site and the next coupling capacitor, ending in the
right terminating site. An optional box mode bridges input to output in
parallel with the whole ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .chain import MAX_CELLS, MAX_POINTS, CircuitSpec, _frozen, _number, _numbers, _site_array
from .csvout import write_csv, write_json
from .errors import ExtrapolationError, NumericalError, ValidationError
from .estimation import _levenberg_marquardt

__all__ = [
    "GateModel",
    "BoxMode",
    "S21Trace",
    "Peak",
    "nanowire_inductance",
    "apply_gate_setting",
    "s21_trace",
    "ladder_abcd",
    "circuit_mode_frequencies",
    "background_normalize",
    "extract_peaks",
    "joint_gate_settings",
    "single_gate_settings",
    "read_gate_table_csv",
    "write_trace_outputs",
]

# Pinched-off junctions enter the transmission ladder as a large finite
# inductor: an exactly open branch would null the whole trace, while the
# tight-binding mapping keeps v = 0 exactly for them.
PINCHED_LV_NH = 1000.0

_GHZ = 1e9
_NH = 1e-9
_FF = 1e-15


@dataclass(frozen=True)
class GateModel:
    """Per-junction map from gate voltage and signal current to inductance.

    In parametric mode the low-power inductance follows
    ``l_min / s((v_g - v_p)/(v_o - v_p))`` with a clamped smoothstep ramp
    s, infinite at and below pinch-off. In table mode each junction
    carries measured (voltage, inductance) samples interpolated
    monotonically. The kinetic-inductance power factor
    ``1 + (i_s/i_star)^2`` applies multiplicatively in both modes.
    """

    n_junctions: int
    v_p: np.ndarray
    v_o: np.ndarray
    l_min: np.ndarray
    i_star: np.ndarray
    mode: str = "parametric"
    tables: Optional[tuple] = None

    def __post_init__(self):
        n = _number(self.n_junctions, "n_junctions", integer=True, minimum=1, maximum=MAX_CELLS)
        object.__setattr__(self, "n_junctions", n)
        object.__setattr__(self, "v_p", _site_array(self.v_p, n, "v_p"))
        object.__setattr__(self, "v_o", _site_array(self.v_o, n, "v_o"))
        object.__setattr__(self, "l_min", _site_array(self.l_min, n, "l_min", positive=True))
        object.__setattr__(self, "i_star", _site_array(self.i_star, n, "i_star", positive=True))
        bad = np.flatnonzero(self.v_p >= self.v_o)
        if bad.size:
            j = bad[0]
            raise ValidationError(f"v_p < v_o must hold at every junction, got "
                                  f"{self.v_p[j]} >= {self.v_o[j]} at junction {j}",
                                  "v_p < v_o")
        if self.mode not in ("parametric", "table"):
            raise ValidationError(f"mode must be 'parametric' or 'table', got {self.mode!r}")
        if self.mode == "table":
            if self.tables is None:
                raise ValidationError("table mode requires voltage/inductance samples")
            tables = self.tables
            if isinstance(tables, np.ndarray) or (
                    len(tables) and np.asarray(tables[0]).ndim == 1):
                tables = tuple([tables] * n)
            if len(tables) != n:
                raise ValidationError(
                    f"need one table per junction ({n}), got {len(tables)}")
            frozen = []
            for j, tab in enumerate(tables):
                name = f"table {j}"
                arr = _numbers(tab, name)
                if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
                    raise ValidationError(f"{name} must be (M, 2) samples with M >= 2", name)
                if np.any(np.diff(arr[:, 0]) <= 0):
                    raise ValidationError(f"{name} voltages must be strictly increasing", name)
                if np.any(arr[:, 1] <= 0):
                    raise ValidationError(f"{name} inductances must be > 0", name)
                arr.flags.writeable = False
                frozen.append(arr)
            object.__setattr__(self, "tables", tuple(frozen))
        elif self.tables is not None:
            raise ValidationError("tables are only allowed in table mode")


@dataclass(frozen=True)
class BoxMode:
    """Spurious enclosure resonance bridging the ports in parallel."""

    f_box: float = 6.0
    q_box: float = 10.0
    coupling: float = 1.0

    def __post_init__(self):
        for name in ("f_box", "q_box", "coupling"):
            value = _number(getattr(self, name), name)
            if value <= 0:
                raise ValidationError(f"{name} must be > 0, got {value}", name)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class S21Trace:
    """Finite complex two-port transmission on a strictly increasing GHz grid
    (read-only copies)."""

    freqs: np.ndarray
    s21: np.ndarray
    power_dBm: Optional[float] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        freqs = _increasing_grid(self.freqs)
        s21 = np.array(self.s21, dtype=complex)
        if s21.shape != freqs.shape:
            raise ValidationError(
                f"s21 shape {s21.shape} does not match grid {freqs.shape}")
        bad = np.flatnonzero(~np.isfinite(s21))
        if bad.size:
            raise ValidationError(
                f"s21 must be finite, got {s21[bad[0]]} at index {bad[0]}", "s21")
        s21.flags.writeable = False
        vars(self).update(freqs=freqs, s21=s21, power_dBm=_power(self.power_dBm),
                          metadata=dict(self.metadata))


def _power(power_dBm) -> Optional[float]:
    return None if power_dBm is None else _number(power_dBm, "power_dBm")


@dataclass(frozen=True)
class Peak:
    f0_GHz: float
    linewidth_GHz: float
    amplitude: float


def _junction_index(model: GateModel, junction) -> int:
    return _number(junction, "junction index", integer=True, minimum=0,
                   maximum=model.n_junctions - 1)


def nanowire_inductance(model: GateModel, junction: int, v_g: float,
                        i_s: float = 0.0) -> float:
    """Junction inductance in nH at gate voltage v_g and signal current i_s.

    Returns ``inf`` for a parametric junction at or below pinch-off. Table
    mode queries outside the sampled voltage range raise
    ExtrapolationError; a signal current that overflows the power factor
    raises ValidationError.
    """
    j = _junction_index(model, junction)
    i_s = _number(i_s, "signal current", minimum=0)
    v_g = _number(v_g, "gate voltage")
    return float(_gate_lv(model, np.array([[v_g]]), np.array([i_s]), slice(j, j + 1))[0, 0])


def _gate_lv(model: GateModel, voltages: np.ndarray, i_s: np.ndarray,
             junctions: slice = slice(None)) -> np.ndarray:
    """The (points, junctions) inductances at read (points, junctions) gate
    voltages and (points,) signal currents, either broadcasting along points,
    each the scalar model's bit for bit (``float_power`` rounds as the scalar
    ``** 2``, not as the array ``** 2``); refuses the entry a point-then-junction
    loop would refuse first."""
    index = range(model.n_junctions)[junctions]
    with np.errstate(over="ignore"):
        factor = 1.0 + np.float_power(i_s[:, None] / model.i_star[junctions], 2.0)
    voltages, i_s, factor = np.broadcast_arrays(voltages, i_s[:, None], factor)
    bad = (i_s < 0) | ~np.isfinite(factor)
    if model.mode == "table":
        knots = [model.tables[j][:, 0] for j in index]
        bad |= (voltages < [x[0] for x in knots]) | (voltages > [x[-1] for x in knots])
    if bad.any():
        p, k = np.unravel_index(np.argmax(bad), bad.shape)
        current = _number(i_s[p, k], "signal current", minimum=0)
        if not np.isfinite(factor[p, k]):
            raise ValidationError(f"signal current overflows the power factor 1 + (i_s/i_star)^2 "
                                  f"of junction {index[k]}, got i_s={current}, "
                                  f"i_star={model.i_star[index[k]]}", "signal current")
        raise ExtrapolationError(
            f"gate table of junction {index[k]}: v_g={float(voltages[p, k])} outside sampled "
            f"range [{knots[k][0]}, {knots[k][-1]}]", "gate table")
    if model.mode == "table":
        lv = np.column_stack([_pchip(model.tables[j][:, 0], model.tables[j][:, 1],
                                     voltages[:, k]) for k, j in enumerate(index)])
    else:
        v_p = model.v_p[junctions]
        u = np.clip((voltages - v_p) / (model.v_o[junctions] - v_p), 0.0, 1.0)
        ramp = u * u * (3.0 - 2.0 * u)  # smoothstep: exactly 0 at and below pinch-off
        with np.errstate(over="ignore"):  # an lv beyond the double range is pinch-off too
            lv = np.divide(model.l_min[junctions], ramp, out=np.full(u.shape, math.inf),
                           where=ramp != 0.0)
    with np.errstate(over="ignore"):
        lv *= factor
    return lv


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The knot derivatives of the monotone cubic through (x, y) (Fritsch and
    Carlson, SIAM J. Numer. Anal. 17, 238 (1980)), by ``PchipInterpolator``'s
    rule: zero at a local extremum or flat side, else Fritsch and Butland's
    weighted harmonic mean of the two secants; the ends take the one-sided
    three-point estimate, kept to the sign of the end secant and to three
    times it where the secants change sign. Two knots give the secant."""
    h = np.diff(x)
    m = np.diff(y) / h
    if x.size == 2:
        return np.array([m[0], m[0]])
    d = np.zeros_like(y)
    inner = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore"):
        d[1:-1][inner] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))[inner]
    for end, (h0, h1, m0, m1) in ((0, (h[0], h[1], m[0], m[1])),
                                  (-1, (h[-1], h[-2], m[-1], m[-2]))):
        slope = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(slope) != np.sign(m0):
            slope = 0.0
        elif np.sign(m0) != np.sign(m1) and abs(slope) > 3 * abs(m0):
            slope = 3 * m0
        d[end] = slope
    return d


def _pchip(x: np.ndarray, y: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The monotone cubic through (x, y) (``_pchip_slopes``) at x[0] <= at <= x[-1]."""
    d = _pchip_slopes(x, y)
    i = np.minimum(np.searchsorted(x, at, side="right") - 1, x.size - 2)
    h = x[i + 1] - x[i]
    m = (y[i + 1] - y[i]) / h
    # the Hermite cubic of interval i, its coefficients and sum as scipy's PPoly
    c3 = (d[i] + d[i + 1] - 2 * m) / h
    t = at - x[i]
    return y[i] + d[i] * t + ((m - d[i]) / h - c3) * (t * t) + c3 / h * (t * t * t)


def _gate_voltages(model: GateModel, voltages) -> np.ndarray:
    """``voltages`` read as one gate setting: a voltage per junction."""
    voltages = _numbers(voltages, "gate voltages")
    if voltages.shape != (model.n_junctions,):
        raise ValidationError(f"gate voltages must hold one voltage per junction "
                              f"({model.n_junctions}), got shape {voltages.shape}",
                              "gate voltages")
    return voltages


def apply_gate_setting(circuit: CircuitSpec, model: GateModel,
                       voltages: Sequence[float], i_s: float = 0.0) -> CircuitSpec:
    """Replace every coupling inductance by its gate-model value."""
    if model.n_junctions != circuit.n_cells:
        raise ValidationError(
            f"gate model has {model.n_junctions} junctions for "
            f"{circuit.n_cells} cells")
    voltages = _gate_voltages(model, voltages)
    return circuit.with_lv(_gate_lv(model, voltages, np.array([_number(i_s, "signal current")]))[0])


def joint_gate_settings(model: GateModel, steps: int) -> np.ndarray:
    """Synchronous sweep: every junction interpolates v_p -> v_o together."""
    steps = _number(steps, "steps", integer=True, minimum=2, maximum=MAX_POINTS)
    u = np.linspace(0.0, 1.0, steps)
    return model.v_p[None, :] + u[:, None] * (model.v_o - model.v_p)[None, :]


def single_gate_settings(model: GateModel, junction: int,
                         voltages: Sequence[float]) -> np.ndarray:
    """Per-junction sweep with all other gates held at pinch-off."""
    j = _junction_index(model, junction)
    voltages = _numbers(voltages, "gate voltages")
    if voltages.size == 0:
        raise ValidationError("single gate sweep holds no voltage")
    settings = np.tile(model.v_p, (voltages.size, 1))
    settings[:, j] = voltages
    return settings


def _increasing_grid(freqs, positive: bool = False) -> np.ndarray:
    """``freqs`` as a new read-only array, checked to be a non-empty, finite,
    strictly increasing 1-D grid, > 0 if ``positive``; the one grid check."""
    grid = _numbers(freqs, "frequency grid")
    if grid.ndim != 1 or grid.size == 0:
        raise ValidationError("frequency grid must be a non-empty 1-D array", "frequency grid")
    if np.any(np.diff(grid) <= 0):
        raise ValidationError("frequency grid must be strictly increasing", "frequency grid")
    if positive and grid[0] <= 0:  # the grid increases, so this is its minimum
        raise ValidationError(f"frequency grid must be > 0 (0 makes reactive elements "
                              f"singular), got {grid[0]}", "frequency grid")
    grid.flags.writeable = False
    return grid


def _port_inputs(freqs, z0) -> tuple:
    """``s21_trace``'s grid (a positive ``_increasing_grid``) and port impedance z0 > 0
    with a finite 1/z0."""
    z0 = _number(z0, "port impedance")
    if z0 <= 0:
        raise ValidationError(f"port impedance must be > 0, got {z0}", "port impedance")
    if not math.isfinite(1.0 / z0):
        raise ValidationError(
            f"port impedance must have a finite reciprocal, got {z0}", "port impedance")
    return _increasing_grid(freqs, positive=True), z0


def _cascade(circuit: CircuitSpec, omega: np.ndarray):
    """A, Im B, Im C and D of the bare chain ladder at angular frequencies omega.

    Every shunt admittance jY and series impedance jX of the ladder is
    purely imaginary, so A and D stay real and B and C purely imaginary
    (a lossless two-port). The four float64 arrays are updated in place:
    a shunt jY maps (A, B, C, D) to (A - B Y, B, C + D Y, D), a series jX
    to (A, B + A X, C, D - C X). Every element value and product is
    rounded exactly as in the complex cascade, so A + jB etc. equal it bit
    for bit; no temporary array is allocated per element.
    """
    a = np.ones_like(omega)
    b = np.zeros_like(omega)
    c = np.zeros_like(omega)
    d = np.ones_like(omega)
    x = np.empty_like(omega)        # Y or X of the current element
    tmp = np.empty_like(omega)

    def omega_times(value, unit, out):
        np.multiply(omega, value, out=out)
        return np.multiply(out, unit, out=out)

    def shunt(c_fF, l_nH=None):
        omega_times(c_fF, _FF, x)
        if l_nH is not None:
            np.subtract(x, np.divide(1.0, omega_times(l_nH, _NH, tmp), out=tmp), out=x)
        np.multiply(b, x, out=tmp)
        np.subtract(a, tmp, out=a)
        np.multiply(d, x, out=tmp)
        np.add(c, tmp, out=c)

    def series(l_nH=None, c_fF=None):
        if l_nH is not None:
            omega_times(l_nH, _NH, x)
        else:
            np.divide(-1.0, omega_times(c_fF, _FF, x), out=x)
        np.multiply(a, x, out=tmp)
        np.add(b, tmp, out=b)
        np.multiply(c, x, out=tmp)
        np.subtract(d, tmp, out=d)

    lv = np.where(np.isfinite(circuit.lv), circuit.lv, PINCHED_LV_NH)
    shunt(circuit.c0[0])                             # left terminating site
    series(c_fF=circuit.cw[0])
    for cell in range(circuit.n_cells):
        shunt(circuit.c0[2 * cell], circuit.l0[2 * cell])
        series(l_nH=lv[cell])
        shunt(circuit.c0[2 * cell + 1], circuit.l0[2 * cell + 1])
        series(c_fF=circuit.cw[cell + 1])
    shunt(circuit.c0[-1])                            # right terminating site
    return a, b, c, d


def ladder_abcd(circuit: CircuitSpec, freqs: Sequence[float]) -> np.ndarray:
    """ABCD matrices of the bare chain ladder, shape (n_freq, 2, 2)."""
    omega = 2.0 * np.pi * _increasing_grid(freqs, positive=True) * _GHZ
    a, b, c, d = _cascade(circuit, omega)
    abcd = np.zeros((a.size, 2, 2), dtype=complex)
    abcd.real[:, 0, 0] = a
    abcd.imag[:, 0, 1] = b
    abcd.imag[:, 1, 0] = c
    abcd.real[:, 1, 1] = d
    return abcd


def _nodal_matrices(circuit: CircuitSpec) -> tuple:
    """The unloaded ladder's inverse-inductance matrix K (1/H) and capacitance
    matrix M (F) over its 2N + 2 nodes: the left terminating site, the chain
    sites, the right terminating site. Cw[j] joins nodes 2j and 2j + 1, Lv[j]
    nodes 2j + 1 and 2j + 2; both matrices are tridiagonal."""
    c0 = circuit.c0 * _FF
    cw = circuit.cw * _FF
    inv_lv = 1.0 / (np.where(np.isfinite(circuit.lv), circuit.lv, PINCHED_LV_NH) * _NH)
    nn = 2 * circuit.n_cells + 2
    k = np.zeros((nn, nn))
    m = np.zeros((nn, nn))
    k.flat[nn + 1:-1:nn + 1] = 1.0 / (circuit.l0 * _NH) + np.repeat(inv_lv, 2)
    m.flat[::nn + 1] = np.concatenate([c0[:1], c0, c0[-1:]]) + np.repeat(cw, 2)
    for matrix, first, links in ((k, 1, inv_lv), (m, 0, cw)):
        off = np.zeros(nn - 1)  # entries (i, i + 1) and (i + 1, i)
        off[first::2] = -links
        matrix.flat[1::nn + 1] = matrix.flat[nn::nn + 1] = off
    return k, m


def circuit_mode_frequencies(circuit: CircuitSpec) -> np.ndarray:
    """Exact normal-mode frequencies of the unloaded ladder, in GHz.

    Solves the generalized eigenproblem K x = omega^2 M x of the network's
    inverse-inductance and capacitance matrices (``_nodal_matrices``) over
    all nodes including the terminating coupling sites, whose open
    inductors contribute two zero-frequency charge modes that are dropped.
    M is positive definite, so with its Cholesky factor M = L L^T the
    problem becomes the ordinary one of L^-1 K L^-T, as LAPACK's dsygvd
    reduces it. Unlike the tight-binding mapping this route keeps the full
    coupling structure, so it pins down where the transmission peaks of
    the same ladder must sit.
    """
    k, m = _nodal_matrices(circuit)
    l_inv = np.linalg.inv(np.linalg.cholesky(m))
    omega_sq = np.linalg.eigvalsh(l_inv @ k @ l_inv.T)
    omega_sq = omega_sq[omega_sq > 1e6]
    if omega_sq.size != 2 * circuit.n_cells:
        raise NumericalError(
            f"expected {2 * circuit.n_cells} finite circuit modes, found {omega_sq.size}")
    return np.sqrt(omega_sq) / (2.0 * np.pi) / _GHZ


def _box_bridge_susceptance(box: BoxMode, omega: np.ndarray, z0: float) -> np.ndarray:
    """Y of the lossless series-LC bridge jY between the ports, resonant at f_box."""
    omega_b = 2.0 * np.pi * box.f_box * _GHZ
    z_char = 2.0 * z0 * box.q_box
    l_b = z_char / omega_b
    c_b = 1.0 / (z_char * omega_b)
    react = omega * l_b - 1.0 / (omega * c_b)
    # regularize the measure-zero exact-resonance grid point
    tiny = 1e-12 * z_char
    react = np.where(np.abs(react) < tiny, tiny, react)
    return -box.coupling / react


def s21_trace(circuit: CircuitSpec, freqs: Sequence[float], z0: float = 50.0,
              box: Optional[BoxMode] = None, power_dBm: Optional[float] = None,
              metadata: Optional[dict] = None) -> S21Trace:
    """Two-port transmission of the chain ladder, optionally with a box mode.

    The ladder is cascaded in ABCD form and converted to S21 at z0. A box
    mode is combined in parallel by adding Y parameters before the
    conversion, in closed form from the four real ABCD parts. Pinched-off
    (infinite) coupling inductances are rendered as ``PINCHED_LV_NH``,
    recorded in the metadata. A peak |s21| above 1 (or NaN) raises
    NumericalError.
    """
    freqs, z0 = _port_inputs(freqs, z0)
    omega = 2.0 * np.pi * freqs * _GHZ
    a, b, c, d = _cascade(circuit, omega)
    # 2 / ((A + D) + j(B/z0 + C z0)), built in place; numpy divides a
    # complex array by a real z0 as b * (1/z0), and so does this
    s21 = np.empty(omega.shape, dtype=complex)
    real, imag = s21.real, s21.imag
    np.add(a, d, out=real)
    np.multiply(b, 1.0 / z0, out=imag)
    imag += c * z0
    if box is None:
        np.divide(2.0, s21, out=s21)
    else:
        # The ladder's Y parameters are y11 = -jD/B, y22 = -jA/B and
        # y12 = y21 = j/B, using AD + BC = 1, which holds exactly for a
        # reciprocal network (forming AD + BC numerically cancels to noise
        # where |AD| is large). Adding the bridge jY to y11 and y22 and
        # subtracting it from y12 and y21 gives
        # 2(1 - YB) / ((A + D - 2YB) + j(B/z0 + C z0 + z0 Y (A + D - 2))).
        y = _box_bridge_susceptance(box, omega, z0)
        imag += z0 * y * (real - 2.0)
        yb = y * b
        real -= 2.0 * yb
        np.divide(2.0 * (1.0 - yb), s21, out=s21)
    peak = float(np.max(np.abs(s21)))
    if not peak <= 1.0 + 1e-6:
        raise NumericalError(
            f"lossless network produced |s21| = {peak:.6f} > 1")
    pinched = [int(i) for i in np.flatnonzero(~np.isfinite(circuit.lv))]
    meta = {
        "z0_ohm": z0,
        "box": None if box is None else {
            "f_box_GHz": box.f_box, "q_box": box.q_box, "coupling": box.coupling},
        "pinched_cells": pinched,
        "pinched_lv_nH": PINCHED_LV_NH if pinched else None,
        "normalized": False,
    }
    if metadata:
        meta.update(metadata)
    s21.flags.writeable = False
    return _frozen(S21Trace, freqs=freqs, s21=s21, power_dBm=_power(power_dBm), metadata=meta)


def background_normalize(trace: S21Trace,
                         exclusion_windows: Sequence) -> S21Trace:
    """Divide the trace by a linear background interpolated between windows.

    The background is the linear interpolation of |s21| through the points
    outside every exclusion window (the chain modes are expected inside
    them); at least two points must survive.
    """
    windows = _numbers(exclusion_windows, "exclusion windows")
    if windows.size and (windows.ndim != 2 or windows.shape[1] != 2):
        raise ValidationError(
            f"exclusion windows must be (lo, hi) pairs, got {exclusion_windows!r}")
    windows = windows.reshape(-1, 2).tolist()
    for lo, hi in windows:
        if not lo < hi:
            raise ValidationError(f"bad exclusion window ({lo}, {hi})")
    freqs = trace.freqs
    outside = np.ones(freqs.size, dtype=bool)
    for lo, hi in windows:
        outside &= ~((freqs >= lo) & (freqs <= hi))
    if int(np.count_nonzero(outside)) < 2:
        raise ValidationError(
            "exclusion windows cover the grid; need >= 2 background points")
    mag = np.abs(trace.s21)
    background = np.interp(freqs, freqs[outside], mag[outside])
    if np.any(background <= 0):
        raise NumericalError("background magnitude vanishes; cannot normalize")
    meta = dict(trace.metadata)
    meta["normalized"] = True
    meta["exclusion_windows_GHz"] = windows
    s21 = trace.s21 / background
    s21.flags.writeable = False
    return _frozen(S21Trace, freqs=freqs, s21=s21, power_dBm=trace.power_dBm, metadata=meta)


def _lorentzian(f, f0, hwhm, amp, base):
    return base + amp * hwhm ** 2 / ((f - f0) ** 2 + hwhm ** 2)


def _lorentzian_jacobian_t(f, f0, hwhm, amp, base, out):
    """The derivatives of ``_lorentzian`` at every f by f0, hwhm, amp and
    base, one row each, written over the first 4·f.size values of ``out``."""
    rows = out[:4 * f.size].reshape(4, f.size)
    u = f - f0
    s = u * u + hwhm * hwhm
    w = 2.0 * amp * hwhm / (s * s)
    np.multiply(w * hwhm, u, out=rows[0])
    np.multiply(w * u, u, out=rows[1])
    np.divide(hwhm * hwhm, s, out=rows[2])
    rows[3] = 1.0
    return rows


# Peak refinement keeps the tolerances curve_fit gave MINPACK (ftol = xtol =
# 1.49012e-8) and its cap of 200 Lorentzian evaluations.
_PEAK_TOL = 1.49012e-8
_PEAK_EVALUATIONS = 200


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Midpoints ``(s + e) // 2`` of the maximal runs ``x[s..e]`` of equal
    values with a strictly lower neighbour on each side; a run touching a
    border is none. These are ``scipy.signal.find_peaks``' local maxima."""
    if x.size < 3:
        return np.empty(0, dtype=np.intp)
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    runs = x[starts]
    k = np.flatnonzero((runs[1:-1] > runs[:-2]) & (runs[1:-1] > runs[2:])) + 1
    return (starts[k] + starts[k + 1] - 1) // 2


def _sparse_table(values: np.ndarray, ufunc) -> np.ndarray:
    """Row k, column i: ``ufunc`` reduced over ``values[i:i + 2**k]``; columns
    past the end of row k are padding."""
    rows, span = [values], 1
    while 2 * span <= values.size:
        rows.append(ufunc(rows[-1][:-span], rows[-1][span:]))
        span *= 2
    table = np.empty((len(rows), values.size))
    for k, row in enumerate(rows):
        table[k, :row.size] = row
        table[k, row.size:] = row[-1]
    return table


def _find_peaks(x: np.ndarray, prominence: float):
    """The local maxima of a finite ``x`` whose prominence is at least
    ``prominence``, and those prominences: ``find_peaks(x, prominence=p)``
    of ``scipy.signal`` bit for bit, without its import (~0.8 s).

    A peak's prominence is its height less the higher of the lowest values
    on either side, each taken out to the first strictly higher sample or
    the border. Between two consecutive maxima ``x`` falls, then rises, so
    that lowest value is the least valley minimum out to the nearest
    strictly higher maximum; a sparse table over the maxima's heights finds
    that maximum, and one over the valley minima takes their least. Only
    maxima that stand ``prominence`` above the least valley on each side
    (an upper bound) are looked at, which drops the round-off maxima of a
    flat background.
    """
    peaks = _local_maxima(x)
    n = peaks.size
    if n == 0:
        return peaks, np.empty(0)
    heights = x[peaks]
    # valley j lies left of peak j, valley n right of the last peak
    valleys = np.minimum.reduceat(x, np.concatenate(([0], peaks)))
    bound = heights - np.maximum(np.minimum.accumulate(valleys)[:-1],
                                 np.minimum.accumulate(valleys[:0:-1])[::-1])
    index = np.flatnonzero(prominence <= bound)
    height = heights[index]
    highest = _sparse_table(heights, np.maximum)
    lowest = _sparse_table(valleys, np.minimum)
    first, last = index.copy(), index.copy()  # every height in between <= height
    for k in range(len(highest) - 1, -1, -1):
        span = 2 ** k
        step = (first >= span) & (highest[k, np.maximum(first - span, 0)] <= height)
        first[step] -= span
        step = (last + span < n) & (highest[k, np.minimum(last + 1, n - 1)] <= height)
        last[step] += span

    def least(lo, hi):  # min(valleys[lo..hi]), inclusive
        k = np.frexp(hi - lo + 1)[1] - 1
        return np.minimum(lowest[k, lo], lowest[k, hi - 2 ** k + 1])

    prominences = height - np.maximum(least(first, index), least(index + 1, last + 1))
    keep = prominence <= prominences
    return peaks[index[keep]], prominences[keep]


def _bases(x: np.ndarray, peak: int):
    """The left and right prominence bases of ``peak``, as
    ``scipy.signal.peak_prominences`` finds them: the last and the first
    lowest sample out to the first strictly higher one on each side."""
    height = x[peak]
    higher = np.flatnonzero(x[:peak] > height)
    start = higher[-1] + 1 if higher.size else 0
    left = x[start:peak + 1]
    higher = np.flatnonzero(x[peak:] > height)
    right = x[peak:peak + higher[0]] if higher.size else x[peak:]
    return start + left.size - 1 - int(np.argmin(left[::-1])), peak + int(np.argmin(right))


def _half_height_crossings(x: np.ndarray, peaks: np.ndarray,
                           prominences: np.ndarray):
    """Interpolated sample positions where each peak's sides cross half its
    prominence, within its bases: ``left_ips`` and ``right_ips`` of
    ``scipy.signal.peak_widths(x, peaks, rel_height=0.5)`` bit for bit."""
    left_ips, right_ips = np.empty(peaks.size), np.empty(peaks.size)
    for n, (peak, prom) in enumerate(zip(peaks.tolist(), prominences.tolist())):
        lo, hi = _bases(x, peak)
        height = x[peak] - prom * 0.5
        # the last sample in (lo, peak] and the first in [peak, hi) at or
        # below the half height, else the base
        below = np.flatnonzero(x[lo + 1:peak + 1] <= height)
        i = lo + 1 + int(below[-1]) if below.size else lo
        left_ips[n] = i + ((height - x[i]) / (x[i + 1] - x[i]) if x[i] < height else 0.0)
        below = np.flatnonzero(x[peak:hi] <= height)
        i = peak + int(below[0]) if below.size else hi
        right_ips[n] = i - ((height - x[i]) / (x[i - 1] - x[i]) if x[i] < height else 0.0)
    return left_ips, right_ips


def extract_peaks(trace: S21Trace, prominence: float,
                  max_peaks: int) -> list:
    """Locate and refine transmission peaks on a (normalized) trace.

    Local maxima of |s21| at least ``prominence`` (a finite number >= 0)
    above their surroundings are refined by an unbounded Lorentzian fit
    (``estimation._levenberg_marquardt`` with the analytic Jacobian; no
    scipy module), capped at 200 evaluations, over a window of five
    linewidth estimates on each side; points inside other candidates' cores
    are excluded from the fit. The fit is kept only inside its box: the
    centre within the window, the half width between a tenth of the grid
    step and ten half-windows, and a non-negative amplitude and baseline.
    A window left with fewer than four points, a fit that reaches the cap,
    or one outside its box keeps the estimates: the grid maximum, the
    half-maximum width and the height above the window minimum. At most
    ``max_peaks`` (an integer >= 1) peaks, largest prominence first, are
    returned, sorted by frequency. No peak above threshold gives an empty
    list.
    """
    max_peaks = _number(max_peaks, "max_peaks", integer=True, minimum=1)
    prominence = _number(prominence, "prominence", minimum=0)
    freqs = trace.freqs
    mag = np.abs(trace.s21)
    idx, prominences = _find_peaks(mag, prominence)
    if idx.size == 0:
        return []
    order = np.argsort(prominences, kind="stable")[::-1][:max_peaks]
    chosen = idx[order]
    left_ips, right_ips = _half_height_crossings(mag, chosen, prominences[order])
    grid_pos = np.arange(freqs.size)
    fwhm_est = np.interp(right_ips, grid_pos, freqs) - np.interp(left_ips, grid_pos, freqs)
    min_width = float(np.min(np.diff(freqs)))
    fwhm_est = np.maximum(fwhm_est, min_width)

    # each window holds the grid points with f0_est - half <= f <= f0_est + half
    halves = 5.0 * fwhm_est
    window_lo = np.searchsorted(freqs, freqs[chosen] - halves, side="left")
    window_hi = np.searchsorted(freqs, freqs[chosen] + halves, side="right")
    # one Jacobian buffer for every fit: the solver reads each Jacobian only
    # until it asks for the next
    jacobian = np.empty(4 * int(np.max(window_hi - window_lo)))

    peaks = []
    for n, i in enumerate(chosen):
        f0_est = freqs[i]
        half = halves[n]
        lo, hi = window_lo[n], window_hi[n]
        f_win = freqs[lo:hi]
        window = np.ones(f_win.size, dtype=bool)
        for m, j in enumerate(chosen):
            if j == i:
                continue
            core = 1.5 * fwhm_est[m]
            window &= ~(np.abs(f_win - freqs[j]) <= core)
        window[i - lo] = True
        f_fit = f_win[window]
        m_fit = mag[lo:hi][window]
        base0 = float(np.min(m_fit))
        amp0 = float(mag[i] - base0)
        f0, hwhm, amp = f0_est, fwhm_est[n] / 2, amp0
        if f_fit.size >= 4:  # the Lorentzian has four parameters
            p0 = np.array([f0_est, fwhm_est[n] / 2, max(amp0, 1e-12), base0])
            fit = _levenberg_marquardt(
                lambda p: (_lorentzian(f_fit, *p) - m_fit,
                           lambda: _lorentzian_jacobian_t(f_fit, *p, jacobian)),
                p0, -math.inf, math.inf, _PEAK_TOL, _PEAK_TOL, _PEAK_EVALUATIONS)
            if fit.status:  # 0: the evaluation cap was reached
                fit_f0, fit_hwhm, fit_amp, fit_base = fit.x
                if (abs(fit_f0 - f0_est) <= half
                        and min_width / 10 <= fit_hwhm <= 10.0 * half
                        and fit_amp >= 0 and fit_base >= 0):
                    f0, hwhm, amp = fit_f0, fit_hwhm, fit_amp
        peaks.append(Peak(f0_GHz=float(f0), linewidth_GHz=float(2 * hwhm),
                          amplitude=float(amp)))
    peaks.sort(key=lambda p: p.f0_GHz)
    return peaks


def read_gate_table_csv(path) -> np.ndarray:
    """Load (v_gate_V, l_nH) samples from a UTF-8 CSV with that header."""
    with open(path, encoding="utf-8") as fh:
        try:
            header = fh.readline().strip().split(",")
            if [h.strip() for h in header] != ["v_gate_V", "l_nH"]:
                raise ValidationError(
                    f"gate table {path} must have header 'v_gate_V,l_nH', got {header}")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        except UnicodeDecodeError as exc:
            raise ValidationError(f"gate table {path} is not UTF-8 text: {exc}") from None
    try:
        table = np.array([[float(a), float(b)] for a, b in rows])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"gate table {path} has malformed rows: {exc}") from None
    if table.size == 0:
        raise ValidationError(f"gate table {path} has no samples")
    return table


def write_trace_outputs(trace: S21Trace, csv_path, json_path) -> None:
    """Emit the trace CSV and its JSON metadata sidecar."""
    re, im = trace.s21.real, trace.s21.imag
    # hypot equals abs() of each complex value bit for bit; np.abs does not
    write_csv(csv_path, ["freq_GHz", "re_s21", "im_s21", "abs_s21"],
              [trace.freqs, re, im, np.hypot(re, im)])
    payload = dict(trace.metadata)
    payload["power_dBm"] = trace.power_dBm
    payload["n_points"] = int(trace.freqs.size)
    payload["f_start_GHz"] = float(trace.freqs[0])
    payload["f_stop_GHz"] = float(trace.freqs[-1])
    write_json(json_path, payload)
