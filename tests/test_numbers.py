"""The one reader of outside numbers, and the library entry points that use it."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sshchain import (
    BoxMode,
    ChainSpec,
    CircuitSpec,
    DisorderConfig,
    FitOptions,
    FitProblem,
    GateModel,
    S21Trace,
    ValidationError,
    apply_gate_setting,
    background_normalize,
    build_tb_hamiltonian,
    chiral_defect,
    classify_modes,
    default_circuit,
    eigendecompose,
    extract_peaks,
    fit_circuit_params,
    flatband,
    joint_gate_settings,
    mode_linewidths,
    model_eigenfrequencies,
    nanowire_inductance,
    s21_trace,
    sweep_coupling,
    winding_number_k_space,
)
from sshchain.chain import _number, _numbers

CIRCUIT = default_circuit(lv_nH=30.0)
CHAIN_H = build_tb_hamiltonian(ChainSpec(4, 6.5, 0.2, 0.5))
SPECTRUM = eigendecompose(CHAIN_H)
GATE = GateModel(5, v_p=0.4, v_o=1.8, l_min=9.0, i_star=1.0)
TRACE = s21_trace(CIRCUIT, np.linspace(5.5, 7.2, 401))
PROBLEM = FitProblem(model_eigenfrequencies(CIRCUIT), CIRCUIT,
                     free={"c0": True, "l0": False, "cw": False, "lv": False})

# each entry point, with ``x`` standing for one number it reads from outside
ENTRY_POINTS = {
    "ChainSpec.eps": lambda x: ChainSpec(2, [6.5, x, 6.5, 6.5], 0.2, 0.5),
    "ChainSpec.n_cells": lambda x: ChainSpec(x, 6.5, 0.2, 0.5),
    "CircuitSpec.lv": lambda x: CircuitSpec(2, 660.0, 1.0, [x, 30.0], 30.0),
    "CircuitSpec.from_dict": lambda x: CircuitSpec.from_dict(
        {**CIRCUIT.to_dict(), "cw_fF": [30.0, x, 30.0, 30.0, 30.0, 30.0]}),
    "chiral_defect": lambda x: chiral_defect(CHAIN_H, x),
    "classify_modes": lambda x: classify_modes(SPECTRUM, x),
    "sweep_coupling": lambda x: sweep_coupling(CIRCUIT, [20.0, x]),
    "flatband": lambda x: flatband(CHAIN_H, x),
    "winding_number_k_space": lambda x: winding_number_k_space(0.1, x),
    "DisorderConfig": lambda x: DisorderConfig(x, ("v",), 5, 1),
    "BoxMode": lambda x: BoxMode(6.0, x, 0.5),
    "S21Trace.freqs": lambda x: S21Trace([5.0, x], [0.5, 0.5]),
    "S21Trace.power_dBm": lambda x: S21Trace([5.0, 6.0], [0.5, 0.5], power_dBm=x),
    "s21_trace.z0": lambda x: s21_trace(CIRCUIT, [5.0, 6.0], z0=x),
    "s21_trace.freqs": lambda x: s21_trace(CIRCUIT, [5.0, x]),
    "background_normalize": lambda x: background_normalize(TRACE, [(x, 6.3)]),
    "extract_peaks": lambda x: extract_peaks(TRACE, prominence=x, max_peaks=3),
    "mode_linewidths": lambda x: mode_linewidths(SPECTRUM, x),
    "GateModel": lambda x: GateModel(5, x, 1.8, 9.0, 1.0),
    "nanowire_inductance": lambda x: nanowire_inductance(GATE, 0, x),
    "apply_gate_setting": lambda x: apply_gate_setting(CIRCUIT, GATE, [1.0, 1.0, x, 1.0, 1.0]),
    "joint_gate_settings": lambda x: joint_gate_settings(GATE, x),
    "FitOptions": lambda x: FitOptions(tol_f=x),
    "FitProblem": lambda x: FitProblem([x] * 10, CIRCUIT),
    "fit_circuit_params": lambda x: fit_circuit_params(PROBLEM, multi_start=x),
}


@pytest.mark.parametrize("bad", [True, np.bool_(False), np.array(True), "8", math.nan])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_refuses_non_numbers(entry, bad):
    with pytest.raises(ValidationError):
        ENTRY_POINTS[entry](bad)


def reading(value, integer):
    """The number the scalar reader must return for ``value``; None to refuse."""
    if isinstance(value, (bool, str)):
        return None
    if integer:
        if isinstance(value, int):
            return value
        return int(value) if math.isfinite(value) and value.is_integer() else None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


@given(value=st.booleans() | st.text() | st.integers() | st.floats(), integer=st.booleans())
def test_scalar_reader_returns_the_number_it_was_given(value, integer):
    expected = reading(value, integer)
    if expected is None:
        with pytest.raises(ValidationError, match="^x must be"):
            _number(value, "x", integer=integer)
    else:
        got = _number(value, "x", integer=integer)
        assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("values,allow_inf,expected", [
    (np.array([1, 2]), False, [1.0, 2.0]),
    ([np.float32(0.5), np.int64(3)], False, [0.5, 3.0]),
    ([[1.0, math.inf]], True, [[1.0, math.inf]]),
    (2.5, False, 2.5),
])
def test_array_reader_returns_a_new_float_array(values, allow_inf, expected):
    got = _numbers(values, "x", allow_inf=allow_inf)
    assert got.dtype == float and np.array_equal(got, expected)
    assert not np.shares_memory(got, values)


@pytest.mark.parametrize("values", [
    [8, True], np.array([True, False]), np.array(["8", "9"]), [1.0, "2"],
    np.array([1.0, math.nan]), [1.0, -math.inf], [1 + 2j], np.array([1 + 0j]),
])
def test_array_reader_refuses_what_the_scalar_reader_refuses(values):
    with pytest.raises(ValidationError, match="^lv "):
        _numbers(values, "lv", allow_inf=True)
