"""The CSV writer: cell renderings and frozen output bytes.

The files under ``tests/golden/`` were written by the row-at-a-time CSV
writer that the column-wise one replaced; every case below must still
reproduce them byte for byte.
"""

import json
import math
import os

import numpy as np
import pytest

from sshchain import default_circuit
from sshchain.chain import CircuitSpec
from sshchain.cli import main
from sshchain.csvout import fmt, write_csv
from sshchain.estimation import FitResult, write_fit_outputs

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

CIRCUIT = json.dumps(default_circuit().to_dict())
CHAIN = json.dumps({"n_cells": 10, "eps_GHz": 6.5, "v_GHz": 0.1, "w_GHz": 0.5})
GATE = json.dumps({"mode": "parametric", "v_p_V": 0.4, "v_o_V": 1.8,
                   "l_min_nH": 9.0, "i_star_uA": 1.0})
BOX = json.dumps({"f_box_GHz": 6.0, "q_box": 10.0, "coupling": 0.2})


def _freqs(start, stop, points):
    return json.dumps({"start_GHz": start, "stop_GHz": stop, "points": points})


# name -> (CLI arguments, files the run writes)
CLI_CASES = {
    "s21": (["s21", "--set", f"circuit={json.dumps(default_circuit(lv_nH=60.0).to_dict())}",
             "--set", f"freqs={_freqs(5.75, 6.45, 401)}", "--set", f"box={BOX}"],
            ["s21_golden.csv"]),
    "disorder": (["disorder", "--set", f"chain={CHAIN}",
                  "--set", 'disorder={"strength": 0.1, "targets": ["v", "w", "eps"], '
                           '"samples": 20, "seed": 7}'],
                 ["disorder_golden.csv"]),
    "sweep": (["sweep", "--set", f"circuit={CIRCUIT}",
               "--set", 'lv_grid={"start_nH": 10.0, "stop_nH": 40.0, "step_nH": 5.0}'],
              ["sweep_golden.csv", "sweep_golden_summary.csv"]),
    "gatesweep": (["gatesweep", "--set", f"circuit={CIRCUIT}", "--set", f"gate={GATE}",
                   "--set", 'sweep={"kind": "joint", "steps": 3}',
                   "--set", f"freqs={_freqs(5.5, 7.2, 101)}", "--set", "emit_traces=true"],
                  ["gatesweep_golden_summary.csv"]
                  + [f"gatesweep_golden_trace{k:03d}.csv" for k in range(3)]),
    "powersweep": (["powersweep", "--set", f"circuit={CIRCUIT}", "--set", f"gate={GATE}",
                    "--set", 'i_s_grid={"start_uA": 0.0, "stop_uA": 2.0, "points": 3}',
                    "--set", f"freqs={_freqs(5.5, 7.2, 11)}"],
                   ["powersweep_golden.csv"]),
    "spectrum": (["spectrum", "--set", f"chain={CHAIN}"], ["spectrum_golden.csv"]),
    "ipr": (["ipr", "--set", f"chain={CHAIN}"], ["ipr_golden.csv"]),
}

FIT_FILES = ["fit_golden_sites.csv", "fit_golden_couplings.csv"]


def write_case(name, out_dir):
    """Write the outputs of one case into ``out_dir``; return their names."""
    if name == "fit":
        circuit = default_circuit(lv_nH=30.0)
        best = CircuitSpec(5, circuit.c0 * np.linspace(0.99, 1.01, 10), circuit.l0,
                           [30.0, 25.5, math.inf, 1e-3, 123456789.5], circuit.cw)
        result = FitResult(best=best, residual_rms_kHz=0.0, iterations=1,
                           evaluations=1, restarts=0, converged=True, clamped=0,
                           disorder_report_pct={})
        write_fit_outputs(result, os.path.join(out_dir, "fit_golden.json"),
                          *(os.path.join(out_dir, f) for f in FIT_FILES))
        return FIT_FILES
    argv, files = CLI_CASES[name]
    assert main(argv + ["--out-dir", str(out_dir), "--label", "golden"]) == 0
    return files


@pytest.mark.parametrize("name", sorted(CLI_CASES) + ["fit"])
def test_outputs_match_golden_bytes(name, tmp_path, capsys):
    for filename in write_case(name, tmp_path):
        with open(os.path.join(GOLDEN_DIR, filename), "rb") as fh:
            expected = fh.read()
        assert (tmp_path / filename).read_bytes() == expected, filename


def test_cells_render_like_fmt(tmp_path):
    floats = [math.inf, -math.inf, math.nan, -0.0, np.float64(1 / 3), 1e-300, 2.5e17]
    ints = [0, -1, np.int64(2 ** 40), 7, np.int64(-3), 12345678901234, 42]
    bools = [True, False, np.bool_(True), False, True, np.bool_(False), True]
    strs = ["edge", "", "a b", "nan", "0.1", "bulk-upper", "x"]
    path = tmp_path / "cells.csv"
    write_csv(path, ["f", "i", "b", "s"],
              [np.array(floats), np.array(ints), np.array(bools), strs])
    lines = path.read_text().splitlines()
    assert lines[0] == "f,i,b,s"
    assert lines[1:] == [",".join(fmt(x) for x in row)
                         for row in zip(floats, ints, bools, strs)]
    assert lines[1:5] == ["inf,0,True,edge", "-inf,-1,False,",
                          "nan,1099511627776,True,a b", "-0,7,False,nan"]
    assert lines[5] == "0.333333333333,-3,True,0.1"


def test_columns_of_python_scalars(tmp_path):
    path = tmp_path / "plain.csv"
    write_csv(path, ["k", "x"], [range(3), [0.1, math.inf, -0.0]])
    assert path.read_bytes() == b"k,x\n0,0.1\n1,inf\n2,-0\n"


def test_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ["a", "b"], [[], []])
    assert path.read_bytes() == b"a,b\n"


def test_ragged_columns_rejected(tmp_path):
    with pytest.raises(ValueError, match="column lengths"):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [[1.0, 2.0], [1.0]])
