"""The one reader of outside numbers, and the library entry points that use it."""

import json
import math
import os
import re

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
    model_eigenfrequencies,
    nanowire_inductance,
    s21_trace,
    sweep_coupling,
    winding_number_k_space,
)
from sshchain import cli
from sshchain.chain import MAX_CELLS, MAX_POINTS, _number, _numbers

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


def resolve(*argv):
    return cli._resolve_config(cli.build_parser().parse_args(["winding", *argv]))


def linspace_points(x):
    return cli._linspace({"start": 0.0, "stop": 1.0, "points": x}, "grid",
                         ("start", "stop", "points"), {}, 2)


# every range-checked read: (key its error names, entry point with ``x`` for
# the value read, the inclusive bound, the nearest value past it)
BOUNDS = [
    ("n_cells", lambda x: ChainSpec(x, 6.5, 0.2, 0.5), 1, 0),
    ("n_cells", lambda x: ChainSpec(x, 6.5, 0.2, 0.5), MAX_CELLS, MAX_CELLS + 1),
    ("n_cells", lambda x: CircuitSpec(x, 660.0, 1.0, 30.0, 30.0), 1, 0),
    ("n_cells", lambda x: CircuitSpec(x, 660.0, 1.0, 30.0, 30.0), MAX_CELLS, MAX_CELLS + 1),
    ("n_junctions", lambda x: GateModel(x, 0.4, 1.8, 9.0, 1.0), 1, 0),
    ("n_junctions", lambda x: GateModel(x, 0.4, 1.8, 9.0, 1.0), MAX_CELLS, MAX_CELLS + 1),
    ("junction index", lambda x: nanowire_inductance(GATE, x, 1.0), 0, -1),
    ("junction index", lambda x: nanowire_inductance(GATE, x, 1.0), 4, 5),
    ("signal current", lambda x: nanowire_inductance(GATE, 0, 1.0, x), 0, -1e-300),
    ("steps", lambda x: joint_gate_settings(GATE, x), 2, 1),
    ("steps", lambda x: joint_gate_settings(GATE, x), MAX_POINTS, MAX_POINTS + 1),
    ("max_peaks", lambda x: extract_peaks(TRACE, 0.05, x), 1, 0),
    ("prominence", lambda x: extract_peaks(TRACE, x, 3), 0, -1e-300),
    ("tol_f", lambda x: FitOptions(tol_f=x), 0, -1e-300),
    ("tol_x", lambda x: FitOptions(tol_x=x), 0, -1e-300),
    ("step", lambda x: FitOptions(step=x), 0, -1e-300),
    ("max_iter", lambda x: FitOptions(max_iter=x), 1, 0),
    ("multi_start", lambda x: fit_circuit_params(PROBLEM, multi_start=x), 1, 0),
    ("multi_start", lambda x: fit_circuit_params(PROBLEM, multi_start=x), 1, -5),
    ("samples", lambda x: DisorderConfig(0.1, ("v",), x, 1), 1, 0),
    ("samples", lambda x: DisorderConfig(0.1, ("v",), x, 1), MAX_POINTS, MAX_POINTS + 1),
    ("v", lambda x: winding_number_k_space(x, 0.5), 0, -1e-300),
    ("w", lambda x: winding_number_k_space(0.5, x), 0, -1e-300),
    ("grid.points", linspace_points, 2, 1),
    ("grid.points", linspace_points, MAX_POINTS, MAX_POINTS + 1),
    ("threads", lambda x: resolve("--threads", str(x)), 1, 0),
    ("threads", lambda x: resolve("--set", f"threads={x}"), 1, 0),
]


@pytest.mark.parametrize("key,entry,bound,past", BOUNDS)
def test_range_check_names_its_key_and_bound(key, entry, bound, past):
    entry(bound)
    side = ">=" if past < bound else "<="
    with pytest.raises(ValidationError,
                       match=f"^{re.escape(f'{key} must be {side} {bound}, got {past}')}$"):
        entry(past)


@pytest.mark.parametrize("value", [2**70 + 1, -2**70 - 1, np.int64(2**62 + 1),
                                   np.uint64(2**64 - 1)])
def test_integer_reader_keeps_integers_exact(value):
    got = _number(value, "x", integer=True, minimum=value, maximum=value)
    assert got == value and type(got) is int


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def test_lv_grid_length_is_checked_before_the_grid_is_made(capsys, refused, tmp_path):
    # a dry run reads the whole grid: MAX_POINTS points pass every check
    args = ["--config", os.path.join(CONFIGS, "sweep_default.json"), "--set",
            f'lv_grid={{"start_nH": 1.0, "stop_nH": {float(MAX_POINTS)}, "step_nH": 1.0}}']
    assert cli.main(["sweep", *args, "--out-dir", str(tmp_path / "out"), "--dry-run"]) == 0
    assert json.loads(capsys.readouterr().out)["lv_grid"]["stop_nH"] == MAX_POINTS
    assert not (tmp_path / "out").exists()
    args[-1] = args[-1].replace(f"{float(MAX_POINTS)}", f"{MAX_POINTS + 1.0}")
    assert refused("sweep", *args).startswith(
        f"error: lv_grid point count must be <= {MAX_POINTS}, got {MAX_POINTS + 1.0}")


@pytest.mark.parametrize("argv,message", [
    (["fit", "--config", os.path.join(CONFIGS, "fit_roundtrip.json"),
      "--set", "multi_start=0"], "multi_start must be >= 1, got 0"),
    (["sweep", "--config", os.path.join(CONFIGS, "sweep_default.json"),
      "--set", "lv_grid.stop_nH=1e13"], f"lv_grid point count must be <= {MAX_POINTS}, got "),
    (["spectrum", "--set", 'chain={"n_cells": 100000, "eps_GHz": 6.5, "v_GHz": 0.2, '
      '"w_GHz": 0.5}'], f"chain.n_cells must be <= {MAX_CELLS}, got 100000"),
    (["s21", "--config", os.path.join(CONFIGS, "s21_topological.json"),
      "--set", "freqs.points=1000000000"], f"freqs.points must be <= {MAX_POINTS}, got "),
    # a library reader's range check names the config key it was read from
    (["gatesweep", "--config", os.path.join(CONFIGS, "gatesweep_joint.json"),
      "--set", "sweep.steps=1"], "sweep.steps must be >= 2, got 1"),
    (["disorder", "--config", os.path.join(CONFIGS, "disorder_topological.json"),
      "--set", "disorder.samples=0"], "disorder.samples must be >= 1, got 0"),
    (["fit", "--config", os.path.join(CONFIGS, "fit_roundtrip.json"),
      "--set", "options.tol_f=-1"], "options.tol_f must be >= 0, got -1.0"),
    (["s21", "--config", os.path.join(CONFIGS, "s21_topological.json"),
      "--set", "circuit.n_cells=0"], "circuit.n_cells must be >= 1, got 0"),
    (["winding", "--set", "v_GHz=-1", "--set", "w_GHz=0.5"], "v_GHz must be >= 0, got -1.0"),
    (["winding", "--set", "v_GHz=0.1", "--set", "w_GHz=-1"], "w_GHz must be >= 0, got -1.0"),
    # range checks written at their own sites name their keys too
    (["disorder", "--config", os.path.join(CONFIGS, "disorder_topological.json"),
      "--set", "disorder.strength=2"], "disorder.strength must be in [0, 1), got 2.0"),
    (["gatesweep", "--config", os.path.join(CONFIGS, "gatesweep_joint.json"),
      "--set", "gate.v_p_V=2.0"],
     "gate.v_p_V < gate.v_o_V must hold at every junction, got 2.0 >= 1.8 at junction 0"),
    (["fit", "--config", os.path.join(CONFIGS, "fit_roundtrip.json"),
      "--set", 'fit.bounds={"c0": [700, 600]}'], "fit.bounds.c0 must have lo < hi"),
    (["fit", "--config", os.path.join(CONFIGS, "fit_roundtrip.json"),
      "--set", 'fit.bounds={"c0": [-1, 600]}'], "fit.bounds.c0 must be positive"),
    # so do the fit problem's checks of its freedom and bounds as a whole
    (["fit", "--config", os.path.join(CONFIGS, "fit_roundtrip.json"),
      "--set", "fit.bounds=5"], "fit.bounds must map parameter families to (lo, hi), got 5"),
    (["fit", "--config", os.path.join(CONFIGS, "fit_roundtrip.json"),
      "--set", 'fit.free={"zz": true}'], "fit.free has unknown parameter families: ['zz']"),
    (["fit", "--config", os.path.join(CONFIGS, "fit_roundtrip.json"),
      "--set", "fit.free.c0=[true,false]"],
     "fit.free.c0 must be true, false or one boolean per entry (10), got [True, False]"),
    (["fit", "--config", os.path.join(CONFIGS, "fit_roundtrip.json"),
      "--set", 'fit.bounds={"c0": [1, 2]}'], "fit.start.c0_fF values fall outside their bounds"),
    # checks of the library's compute entry points, made by the read step
    (["s21", "--config", os.path.join(CONFIGS, "s21_topological.json"),
      "--set", 'power_dBm="x"'], "power_dBm must be numeric, got 'x'"),
    (["s21", "--config", os.path.join(CONFIGS, "s21_topological.json"),
      "--set", "z0_ohm=-5"], "z0_ohm must be > 0, got -5.0"),
    (["s21", "--config", os.path.join(CONFIGS, "s21_topological.json"),
      "--set", "freqs.start_GHz=0"],
     "freqs must be > 0 (0 makes reactive elements singular), got 0.0"),
    (["s21", "--config", os.path.join(CONFIGS, "s21_topological.json"),
      "--set", "freqs.start_GHz=8"], "freqs must be strictly increasing"),
    (["disorder", "--config", os.path.join(CONFIGS, "disorder_topological.json"),
      "--set", "disorder.strength=1.5"], "disorder.strength must be in [0, 1), got 1.5"),
    (["gatesweep", "--config", os.path.join(CONFIGS, "gatesweep_joint.json"),
      "--set", "sweep.steps=0"], "sweep.steps must be >= 2, got 0"),
    (["gatesweep", "--config", os.path.join(CONFIGS, "gatesweep_joint.json"),
      "--set", "i_s_uA=-1"], "i_s_uA must be >= 0, got -1.0"),
    (["sweep", "--config", os.path.join(CONFIGS, "sweep_default.json"),
      "--set", "cells=[7]"], "cells must be indices in 0..4, got [7]"),
    (["sweep", "--config", os.path.join(CONFIGS, "sweep_default.json"),
      "--set", 'lv_grid={"values_nH": [-3]}'], "lv_grid.values_nH entries must be > 0, got -3.0"),
    (["powersweep", "--config", os.path.join(CONFIGS, "powersweep_trivial.json"),
      "--set", 'i_s_grid={"values_uA": [-1]}'], "i_s_grid.values_uA must be >= 0, got -1.0"),
    (["powersweep", "--config", os.path.join(CONFIGS, "powersweep_trivial.json"),
      "--set", 'i_s_grid={"start_uA": -1, "stop_uA": 2}'], "i_s_grid must be >= 0, got -1.0"),
    (["powersweep", "--config", os.path.join(CONFIGS, "powersweep_trivial.json"),
      "--set", "setting_V=[1,1]"],
     "setting_V must hold one voltage per junction (5), got shape (2,)"),
    (["fit", "--config", os.path.join(CONFIGS, "fit_roundtrip.json"),
      "--set", "target_rms_GHz=abc"], "target_rms_GHz must be numeric, got 'abc'"),
    (["fit", "--config", os.path.join(CONFIGS, "fit_roundtrip.json"),
      "--set", "fit.free.c0=false"], "fit.free selects no parameters to fit"),
    (["winding", "--set", "method=nope"], "method must be 'k-space' or 'real-space', got 'nope'"),
    (["winding", "--set", "v_GHz=0", "--set", "w_GHz=0"], "v_GHz and w_GHz cannot both be zero"),
    (["spectrum", "--set", 'chain={"n_cells": 1, "eps_GHz": 6.5, "v_GHz": 0.2, "w_GHz": 0.5}'],
     "chain.n_cells must be >= 2 to classify modes, got 2 modes"),
    (["spectrum", "--set", f"circuit={json.dumps(default_circuit(1).to_dict())}"],
     "circuit.n_cells must be >= 2 to classify modes, got 2 modes"),
])
def test_out_of_range_input_exits_1_naming_its_key(refused, argv, message):
    assert refused(*argv).startswith(f"error: {message}")


def test_read_as_restates_only_the_mapped_value():
    keys = {"steps": "sweep.steps"}
    with pytest.raises(ValidationError, match=r"^sweep\.steps must be >= 2, got 1$") as info:
        with cli._read_as(keys):
            _number(1, "steps", integer=True, minimum=2)
    assert info.value.name == "sweep.steps"
    for error in (ValidationError("steps are unnamed"), ValidationError("x must be 1", "x")):
        with pytest.raises(ValidationError) as info:
            with cli._read_as(keys):
                raise error
        assert info.value is error
