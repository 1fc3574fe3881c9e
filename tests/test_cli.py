import glob
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sshchain import (
    CircuitSpec,
    apply_gate_setting,
    build_tb_hamiltonian,
    default_circuit,
    map_circuit_to_tb,
)
from sshchain import microwave as mw_mod
from sshchain import spectral as spec_mod
from sshchain import topology as topo_mod
from sshchain.cli import main
from sshchain.errors import NumericalError

from oracles import classify_point

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
GATE_TABLE = [[0.0, 60.0], [1.0, 20.0], [2.0, 8.0]]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def section_sets(section, spec):
    args = []
    for key, value in spec.to_dict().items():
        args += ["--set", f"{section}.{key}={json.dumps(value)}"]
    return args


def circuit_sets(**overrides):
    return section_sets("circuit", default_circuit(**overrides))


def shipped(config):
    """A shipped config's circuit, its parametric gate model (if any) and its path."""
    path = os.path.join(CONFIG_DIR, f"{config}.json")
    with open(path) as fh:
        document = json.load(fh)
    circuit = CircuitSpec.from_dict(document["circuit"])
    gate = document.get("gate")
    model = None if gate is None else mw_mod.GateModel(
        circuit.n_cells, gate["v_p_V"], gate["v_o_V"], gate["l_min_nH"], gate["i_star_uA"])
    return circuit, model, path


def assert_same_files(dir_a, dir_b):
    names = sorted(p.name for p in dir_a.iterdir())
    assert names and names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def summary_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def check_gatesweep(out_dir, label, model, settings, emit_traces):
    """The summary and traces of a ``gatesweep_joint`` run at 41 points."""
    circuit, _, _ = shipped("gatesweep_joint")
    rows = summary_rows(out_dir / f"gatesweep_{label}_summary.csv")
    assert len(rows) == len(settings)
    for k, (row, voltages) in enumerate(zip(rows, settings)):
        assert int(row[0]) == k
        assert [float(x) for x in row[1:6]] == pytest.approx(voltages, rel=1e-11)
        gated = apply_gate_setting(circuit, model, voltages)
        assert row[-1] == classify_point(gated)[2].phase_tag
        trace = out_dir / f"gatesweep_{label}_trace{k:03d}.csv"
        assert trace.exists() == emit_traces
        if emit_traces:
            expected = mw_mod.s21_trace(gated, np.linspace(5.5, 7.2, 41),
                                        box=mw_mod.BoxMode(6.0, 10.0, 0.2))
            values = np.loadtxt(trace, delimiter=",", skiprows=1)
            assert np.max(np.abs(values[:, 3] - np.abs(expected.s21))) <= 1e-12


def counted_dstevd(monkeypatch):
    """Patch the package's LAPACK dstevd call to record the size of every
    solve; returns the record."""
    solve, sizes = topo_mod._Plan.solve, []

    def counted(plan, diag, off):
        sizes.append(diag.size)
        return solve(plan, diag, off)

    monkeypatch.setattr(topo_mod._Plan, "solve", counted)
    return sizes


class TestWindingCommand:
    def test_k_space_prints_nu(self, capsys, tmp_path):
        code, out, _ = run(capsys, "winding", "--set", "method=k-space",
                           "--set", "v_GHz=0.25", "--set", "w_GHz=0.5",
                           "--out-dir", str(tmp_path), "--label", "x")
        assert code == 0
        assert "nu=1" in out
        payload = json.loads((tmp_path / "winding_x.json").read_text())
        assert payload["nu"] == 1.0

    def test_k_space_next_to_the_gap_closing(self, capsys, tmp_path):
        code, out, err = run(capsys, "winding", "--set", "method=k-space",
                             "--set", "v_GHz=0.5", "--set", "w_GHz=0.5000001",
                             "--out-dir", str(tmp_path))
        assert (code, out, err) == (0, "nu=1 method=k-space\n", "")

    def test_gap_closing_is_numerical_failure(self, capsys, tmp_path):
        code, _, err = run(capsys, "winding", "--set", "method=k-space",
                           "--set", "v_GHz=0.5", "--set", "w_GHz=0.5",
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert "numerical failure" in err

    def test_real_space(self, capsys, tmp_path, monkeypatch):
        solves = counted_dstevd(monkeypatch)
        code, out, _ = run(capsys, "winding", "--set", "method=real-space",
                           "--set", "chain.n_cells=100",
                           "--set", "chain.eps_GHz=6.5",
                           "--set", "chain.v_GHz=0.05",
                           "--set", "chain.w_GHz=0.5",
                           "--out-dir", str(tmp_path), "--label", "rs")
        assert code == 0
        payload = json.loads((tmp_path / "winding_rs.json").read_text())
        assert abs(payload["nu"] - 1.0) < 0.05
        assert solves == [200]


class TestConfigHandling:
    def test_unknown_keys_listed(self, refused):
        err = refused("winding", "--set", "method=k-space",
                      "--set", "v_GHz=0.25", "--set", "w_GHz=0.5",
                      "--set", "bogus=1", "--set", "also_bad=2")
        assert "bogus" in err and "also_bad" in err

    def test_dry_run_prints_resolved_config_without_outputs(self, capsys, tmp_path):
        code, out, _ = run(capsys, "spectrum",
                           "--set", "chain.n_cells=5",
                           "--set", "chain.eps_GHz=6.04",
                           "--set", "chain.v_GHz=0.01",
                           "--set", "chain.w_GHz=0.35",
                           "--out-dir", str(tmp_path), "--label", "dry",
                           "--dry-run")
        assert code == 0
        resolved = json.loads(out)
        assert resolved["chain"]["eps_GHz"] == 6.04
        assert list(tmp_path.iterdir()) == []

    def test_successive_calls_parse_independently(self, capsys, tmp_path, monkeypatch):
        # main() reuses one parser per process; no --set list, flag or
        # default may leak from one call into the next
        from sshchain import cli

        monkeypatch.delenv("SSHCHAIN_OUT_DIR", raising=False)

        def resolved(*argv):
            code, out, _ = run(capsys, *argv, "--dry-run")
            assert code == 0
            return json.loads(out)

        first = resolved("winding", "--set", "method=k-space", "--set", "v_GHz=0.1",
                         "--set", "w_GHz=0.5", "--out-dir", str(tmp_path), "--label", "one",
                         "--threads", "2", "--seed", "4")
        chain = {"n_cells": 5, "eps_GHz": 6.5, "v_GHz": 0.1, "w_GHz": 0.5}
        chain_sets = [a for key, value in chain.items() for a in ("--set", f"chain.{key}={value}")]
        second = resolved("spectrum", *chain_sets)
        third = resolved("winding", "--set", "method=real-space", *chain_sets, "--label", "three")
        assert (first["method"], first["v_GHz"], first["threads"], first["seed"]) == \
            ("k-space", 0.1, 2, 4)
        assert sorted(second) == ["chain", "label", "out_dir", "threads"]
        assert (second["chain"], second["out_dir"], second["threads"]) == (chain, ".", 1)
        assert sorted(third) == ["chain", "label", "method", "out_dir", "threads"]
        assert (third["method"], third["label"], third["threads"]) == ("real-space", "three", 1)
        assert cli._parser() is cli._parser()

    def test_missing_config_file(self, refused, tmp_path):
        assert "not found" in refused("spectrum", "--config", str(tmp_path / "nope.json"))

    def test_set_list_index_override(self, capsys, tmp_path):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({
            "circuit": default_circuit(lv_nH=50.0).to_dict(),
            "lv_grid": {"values_nH": [30.0]},
        }))
        code, out, _ = run(capsys, "sweep", "--config", str(config),
                           "--set", "circuit.lv_nH.2=15",
                           "--out-dir", str(tmp_path), "--label", "ovr",
                           "--dry-run")
        assert code == 0
        assert json.loads(out)["circuit"]["lv_nH"][2] == 15

    def test_out_dir_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SSHCHAIN_OUT_DIR", str(tmp_path))
        code, _, _ = run(capsys, "winding", "--set", "method=k-space",
                         "--set", "v_GHz=0.1", "--set", "w_GHz=0.5",
                         "--label", "env")
        assert code == 0
        assert (tmp_path / "winding_env.json").exists()

    @pytest.mark.parametrize("command,config,override", [
        ("fit", "fit_roundtrip", "multi_start=abc"),
        ("disorder", "disorder_topological", "threads=abc"),
        ("sweep", "sweep_default", "lv_grid.step_nH=abc"),
        ("s21", "s21_topological", "freqs.points=abc"),
        ("disorder", "disorder_topological", "disorder.samples=abc"),
        ("s21", "s21_topological", "power_dBm=abc"),
    ])
    def test_non_numeric_value_is_validation_error(self, refused, command, config, override):
        err = refused(command, "--config", os.path.join(CONFIG_DIR, f"{config}.json"),
                      "--set", override)
        key = override.split("=")[0].split(".")[-1]
        assert key in err and "abc" in err

    @pytest.mark.parametrize("command,config,override", [
        ("s21", "s21_topological", 'freqs.points="401"'),
        ("s21", "s21_topological", 'z0_ohm="50"'),
        ("s21", "s21_topological", 'circuit.lv_nH.0="8"'),
        ("sweep", "sweep_default", 'lv_grid={"values_nH": [8, "12"]}'),
        ("powersweep", "powersweep_trivial", 'setting_V=[1.8, 1.8, "1.8", 1.8, 1.8]'),
        ("disorder", "disorder_topological", 'disorder.samples="20"'),
    ])
    def test_numeric_string_is_validation_error(self, refused, command, config, override):
        err = refused(command, "--config", os.path.join(CONFIG_DIR, f"{config}.json"),
                      "--set", override)
        assert "'" in err

    @pytest.mark.parametrize("command,config,override", [
        ("fit", "fit_roundtrip", "options=5"),
        ("spectrum", None, "chain=5"),
    ])
    def test_scalar_section_is_validation_error(self, refused, command, config, override):
        args = ["--config", os.path.join(CONFIG_DIR, f"{config}.json")] if config else []
        err = refused(command, *args, "--set", override)
        key = override.split("=")[0]
        assert err.startswith(f"error: {command}.{key} must be an object")

    @pytest.mark.parametrize("command,config,overrides", [
        ("s21", "s21_topological", ["z0_ohm=Infinity"]),
        ("s21", "s21_topological", ["box.q_box=Infinity"]),
        ("s21", "s21_topological", ["box.f_box_GHz=Infinity"]),
        ("s21", "s21_topological", ["freqs.stop_GHz=Infinity"]),
        ("s21", "s21_topological", ["freqs.start_GHz=NaN"]),
        ("spectrum", None, ["chain.n_cells=5", "chain.eps_GHz=6.5", "chain.v_GHz=0.1",
                            "chain.w_GHz=0.5", "eps_ref_GHz=NaN"]),
        ("spectrum", None, ["chain.n_cells=5", "chain.eps_GHz=6.5", "chain.v_GHz=0.1",
                            "chain.w_GHz=0.5", "eps_ref_GHz=Infinity"]),
        ("winding", None, ["method=real-space", "chain.n_cells=5", "chain.eps_GHz=6.5",
                           "chain.v_GHz=0.1", "chain.w_GHz=0.5", "eps_ref_GHz=NaN"]),
        ("winding", None, ["method=k-space", "v_GHz=NaN", "w_GHz=0.5"]),
        ("s21", "s21_topological", ["power_dBm=NaN", "freqs.points=11"]),
        ("gatesweep", "gatesweep_joint", ["i_s_uA=Infinity"]),
        ("gatesweep", "gatesweep_joint", ["sweep.kind=explicit",
                                          "sweep.settings_V=[[Infinity, 1, 1, 1, 1]]"]),
        ("powersweep", "powersweep_trivial", ['i_s_grid={"values_uA": [0, Infinity]}']),
        ("powersweep", "powersweep_trivial", ["setting_V=[1, 1, -Infinity, 1, 1]"]),
    ])
    def test_non_finite_value_is_validation_error(self, refused, command, config, overrides):
        args = ["--config", os.path.join(CONFIG_DIR, f"{config}.json")] if config else []
        for expr in overrides:
            args += ["--set", expr]
        assert "finite" in refused(command, *args)

    @pytest.mark.parametrize("command,config,override,key", [
        ("fit", "fit_roundtrip", "fit.free.c0=[true,false]", "fit.free.c0"),
        ("fit", "fit_roundtrip", 'fit.bounds={"c0":5}', "fit.bounds.c0"),
        ("fit", "fit_roundtrip", 'fit.bounds={"c0":[[1,2],[3,4]]}', "fit.bounds.c0"),
        ("fit", "fit_roundtrip", 'fit.bounds={"c0":[1,2,3]}', "fit.bounds.c0"),
        ("fit", "fit_roundtrip", 'fit.bounds={"c0":[NaN,1000]}', "fit.bounds.c0"),
        ("fit", "fit_roundtrip", 'fit.bounds={"c0":[1,NaN]}', "fit.bounds.c0"),
        ("fit", "fit_roundtrip", "fit.free=5", "fit.free"),
        ("fit", "fit_roundtrip", "fit.bounds=5", "fit.bounds"),
        ("sweep", "sweep_default", 'cells=["a"]', "cells"),
        ("sweep", "sweep_default", "cells=5", "cells"),
        # values the runs used to coerce into something else
        ("gatesweep", "gatesweep_joint", 'emit_traces="no"', "emit_traces"),
        ("powersweep", "powersweep_trivial", 'emit_traces="no"', "emit_traces"),
        ("fit", "fit_roundtrip", 'fit.free.cw="false"', "fit.free.cw"),
        ("disorder", "disorder_topological", "disorder.seed=1.7", "seed"),
        ("disorder", "disorder_topological", "disorder.samples=true", "samples"),
        ("s21", "s21_topological", "freqs.points=11.5", "freqs.points"),
        ("sweep", "sweep_default", "cells=[1.5]", "cells"),
        ("sweep", "sweep_default", 'cells="12"', "cells"),
        ("disorder", "disorder_topological", 'disorder.targets="vw"', "list of names"),
        ("disorder", "disorder_topological", 'disorder.targets="eps"', "list of names"),
        # a boolean is not a number
        ("s21", "s21_topological", "z0_ohm=true", "z0_ohm"),
        ("s21", "s21_topological", "circuit.lv_nH.0=true", "circuit.lv_nH must be numeric"),
        ("s21", "s21_topological", "box.q_box=true", "q_box"),
        ("s21", "s21_topological", "freqs.start_GHz=true", "freqs.start_GHz"),
        ("s21", "s21_topological", "power_dBm=true", "power_dBm"),
        ("sweep", "sweep_default", 'lv_grid={"values_nH":[8,true]}', "values_nH"),
        ("powersweep", "powersweep_trivial", "setting_V=[true,1.8,1.8,1.8,1.8]",
         "setting_V"),
        ("fit", "fit_roundtrip", "options.tol_f=true", "tol_f"),
        ("spectrum", None, ["chain.n_cells=5", "chain.eps_GHz=6.5", "chain.v_GHz=0.1",
                            "chain.w_GHz=0.5", "eps_ref_GHz=true"], "eps_ref_GHz"),
        # a missing grid bound
        ("sweep", "sweep_default", 'lv_grid={"stop_nH":30,"step_nH":1}', "start_nH"),
        ("powersweep", "powersweep_trivial", 'i_s_grid={"points":3}', "stop_uA"),
        # output names must be non-empty strings
        ("winding", None, ["method=k-space", "v_GHz=0.1", "w_GHz=0.5", "out_dir=5"],
         "out_dir"),
        ("winding", None, ["method=k-space", "v_GHz=0.1", "w_GHz=0.5", "label=true"],
         "label"),
        ("winding", None, ["method=k-space", "v_GHz=0.1", "w_GHz=0.5", 'label=""'],
         "label"),
        # a label names files inside out_dir, and no path holds a NUL byte
        ("winding", None, ["method=k-space", "v_GHz=0.1", "w_GHz=0.5", ("--label", "sub/x")],
         "error: label must not hold '\\x00' or '/', got 'sub/x'"),
        ("winding", None, ["method=k-space", "v_GHz=0.1", "w_GHz=0.5", 'label="a\\u0000b"'],
         "error: label must not hold '\\x00' or '/', got 'a\\x00b'"),
        ("winding", None, ["method=k-space", "v_GHz=0.1", "w_GHz=0.5", 'out_dir="a\\u0000b"'],
         "error: out_dir must not hold '\\x00', got 'a\\x00b'"),
        # a gate table file is named by a path (0 read stdin, 1 opened stdout)
        ("powersweep", "powersweep_trivial", ["gate.mode=table", "gate.table_csv=0"],
         "error: gate.table_csv must be a non-empty path string, got 0"),
        ("powersweep", "powersweep_trivial", ["gate.mode=table", "gate.table_csv=1"],
         "error: gate.table_csv must be a non-empty path string, got 1"),
        ("powersweep", "powersweep_trivial", ["gate.mode=table", "gate.table_csv=true"],
         "error: gate.table_csv must be a non-empty path string, got True"),
        ("powersweep", "powersweep_trivial", ["gate.mode=table", "gate.table_csv=[1]"],
         "error: gate.table_csv must be a non-empty path string, got [1]"),
        ("gatesweep", "gatesweep_joint", ["gate.mode=table", 'gate.table_csv=""'],
         "error: gate.table_csv must be a non-empty path string, got ''"),
        # a flag (a tuple here) is checked as its config key is
        ("winding", None, ["method=k-space", "v_GHz=0.1", "w_GHz=0.5", ("--out-dir", "")],
         "out_dir"),
        ("winding", None, ["method=k-space", "v_GHz=0.1", "w_GHz=0.5", ("--label", "")],
         "label"),
        ("winding", None, ["method=k-space", "v_GHz=0.1", "w_GHz=0.5", ("--seed", "1.5")],
         "seed must be an integer"),
        ("disorder", "disorder_topological", [("--seed", "abc")], "seed must be an integer"),
        ("winding", None, ["method=k-space", "v_GHz=0.1", "w_GHz=0.5", "seed=abc"],
         "seed must be an integer"),
        # a flag does not hide a malformed config value
        ("winding", None, ["method=k-space", "v_GHz=0.1", "w_GHz=0.5", "threads=abc",
                           ("--threads", "2")], "threads must be an integer"),
        ("disorder", "disorder_topological", ["disorder.seed=1.7", ("--seed", "1")],
         "disorder.seed must be an integer"),
        # the one grid reader keeps each grid's messages
        ("s21", "s21_topological", 'freqs={"start_GHz": 5, "stop_GHz": 7}',
         "freqs needs 'points'"),
        ("s21", "s21_topological", "freqs.points=1", "freqs.points must be >= 2"),
        ("gatesweep", "gatesweep_joint", ["sweep.kind=single", "sweep.junction=1",
                                          "sweep.start_V=true"], "sweep.start_V"),
        # each gate value is named by its key
        ("gatesweep", "gatesweep_joint", "gate.v_p_V=true",
         "error: gate.v_p_V must be numeric, got True"),
        ("gatesweep", "gatesweep_joint", "gate.v_o_V=true",
         "error: gate.v_o_V must be numeric, got True"),
        ("powersweep", "powersweep_trivial", "gate.l_min_nH=[1, 2]",
         "error: gate.l_min_nH must have length 5, got shape (2,)"),
        ("powersweep", "powersweep_trivial", "gate.i_star_uA=0",
         "error: gate.i_star_uA entries must be > 0"),
        ("gatesweep", "gatesweep_joint", "gate.v_p_V=2.0", "error: gate.v_p_V < gate.v_o_V "
         "must hold at every junction, got 2.0 >= 1.8 at junction 0"),
        # each gate table is named by its key and junction
        ("gatesweep", "gatesweep_joint", ["gate.mode=table", 'gate.table=[[0, 20], [1, "x"]]'],
         "error: gate.table of junction 0 must be numeric, got 'x'"),
        ("gatesweep", "gatesweep_joint", ["gate.mode=table", "gate.table=[[0, 20], [1, NaN]]"],
         "error: gate.table of junction 0 must be finite, got nan"),
        ("gatesweep", "gatesweep_joint", ["gate.mode=table", "gate.table=[[0, 20]]"],
         "error: gate.table of junction 0 must be (M, 2) samples with M >= 2"),
        ("gatesweep", "gatesweep_joint", ["gate.mode=table", "gate.table=[[1, 20], [0, 9]]"],
         "error: gate.table of junction 0 voltages must be strictly increasing"),
        ("powersweep", "powersweep_trivial",
         ["gate.mode=table", "gate.table=" + json.dumps(
             [[[0, 20], [2, 9]]] * 3 + [[[0, 20], [2, -9]], [[0, 20], [2, 9]]])],
         "error: gate.table of junction 3 inductances must be > 0"),
        # a disorder seed outside the int64 window would share a sample stream
        ("disorder", "disorder_topological", [("--seed", str(2**64 + 5))],
         "error: seed must be <= 9223372036854775807, got 18446744073709551621"),
        ("disorder", "disorder_topological", f"disorder.seed={-2**63 - 1}",
         "error: disorder.seed must be >= -9223372036854775808, got -9223372036854775809"),
        # a sweep kind without its key, or an unknown kind
        ("gatesweep", "gatesweep_joint", "sweep.kind=single",
         "error: single gate sweep needs 'junction'"),
        ("gatesweep", "gatesweep_joint", "sweep.kind=explicit",
         "error: explicit gate sweep needs 'settings_V'"),
        ("gatesweep", "gatesweep_joint", "sweep.kind=ramp",
         "error: sweep.kind must be joint, single or explicit, got 'ramp'"),
        # a chain command with neither a chain nor a circuit
        ("spectrum", None, [], "error: 'spectrum' config needs 'chain' or 'circuit'"),
        ("ipr", None, [], "error: 'ipr' config needs 'chain' or 'circuit'"),
        ("disorder", None, ["seed=7"], "error: 'disorder' config needs 'chain' or 'circuit'"),
        ("winding", None, ["method=real-space"],
         "error: 'winding' config needs 'chain' or 'circuit'"),
        # an override without a value
        ("winding", None, [("--set", "v_GHz")], "error: --set needs key=value, got 'v_GHz'"),
    ])
    def test_malformed_value_is_validation_error(self, refused, tmp_path, monkeypatch,
                                                 command, config, override, key):
        monkeypatch.chdir(tmp_path)  # a run that fell back to "." would write here
        args = ["--config", os.path.join(CONFIG_DIR, f"{config}.json")] if config else []
        for item in [override] if isinstance(override, str) else override:
            args += list(item) if isinstance(item, tuple) else ["--set", item]
        assert key in refused(command, *args)

    @pytest.mark.parametrize("command,config,section", [
        ("gatesweep", "gatesweep_joint", "gate"),
        ("gatesweep", "gatesweep_joint", "freqs"),
        ("powersweep", "powersweep_trivial", "gate"),
        ("powersweep", "powersweep_trivial", "freqs"),
        ("s21", "s21_topological", "freqs"),
    ])
    def test_missing_section_names_the_command(self, refused, tmp_path,
                                               command, config, section):
        with open(os.path.join(CONFIG_DIR, f"{config}.json")) as fh:
            document = json.load(fh)
        del document[section]
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(document))
        assert refused(command, "--config", str(path)) == \
            f"error: '{command}' config needs '{section}'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,sets", [
        ("spectrum", []),
        ("winding", ["method=real-space"]),
        ("ipr", []),
        ("disorder", ["disorder.samples=5", "seed=7"]),
    ])
    def test_circuit_section_matches_its_mapped_chain(self, capsys, tmp_path,
                                                      command, sets):
        circuit = default_circuit(lv_nH=30.0)
        extra = [a for expr in sets for a in ("--set", expr)]
        for label, section in (("circ", section_sets("circuit", circuit)),
                               ("chain", section_sets("chain", map_circuit_to_tb(circuit)))):
            code, _, _ = run(capsys, command, *section, *extra,
                             "--out-dir", str(tmp_path / label), "--label", "x")
            assert code == 0
        assert_same_files(tmp_path / "circ", tmp_path / "chain")

    def test_set_list_index_runs_the_indexed_value(self, capsys, tmp_path):
        code, _, _ = run(capsys, "spectrum", *circuit_sets(lv_nH=50.0),
                         "--set", "circuit.lv_nH.2=15",
                         "--out-dir", str(tmp_path), "--label", "i")
        assert code == 0
        circuit = default_circuit(lv_nH=[50.0, 50.0, 15.0, 50.0, 50.0])
        spectrum = spec_mod.eigendecompose(build_tb_hamiltonian(map_circuit_to_tb(circuit)))
        freqs = [float(row[1]) for row in summary_rows(tmp_path / "spectrum_i.csv")]
        assert freqs == pytest.approx(spectrum.eigenvalues, rel=1e-11)

    def test_set_descends_through_list_indices(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gatesweep",
                           "--config", os.path.join(CONFIG_DIR, "gatesweep_joint.json"),
                           "--set", "sweep.kind=explicit",
                           "--set", "sweep.settings_V=[[0.4, 0.5, 0.5, 0.5, 0.5], [0.6, 0.7, "
                           "0.7, 0.7, 0.7]]", "--set", "sweep.settings_V.1.0=0.9", "--dry-run")
        assert code == 0
        assert json.loads(out)["sweep"]["settings_V"] == [[0.4, 0.5, 0.5, 0.5, 0.5],
                                                          [0.9, 0.7, 0.7, 0.7, 0.7]]

    @pytest.mark.parametrize("override,message", [
        ("circuit.lv_nH.x=15", "'x' is not a list index"),
        ("circuit.lv_nH.7=15", "index 7 out of range"),
        ("circuit.lv_nH.-1=15", "index -1 out of range"),
        ("circuit.lv_nH.2.0=15", "target is not settable"),
        ("circuit.lv_nH.2.0.1=15", "cannot descend into scalar at circuit.lv_nH.2"),
    ])
    def test_bad_set_path_is_validation_error(self, refused, override, message):
        err = refused("sweep", "--config", os.path.join(CONFIG_DIR, "sweep_default.json"),
                      "--set", override)
        assert err == f"error: --set {override.split('=')[0]}: {message}\n"

    @pytest.mark.parametrize("text,message", [
        (b'{"chain": ', "config is not valid JSON"),
        (b"[1, 2]", "config document must be a JSON object"),
        (b"\x89PNG\r\n\x1a\n", "config is not valid JSON: 'utf-8' codec can't decode byte "
                                "0x89 in position 0: invalid start byte\n"),
    ])
    def test_malformed_config_file(self, refused, tmp_path, text, message):
        path = tmp_path / "conf.json"
        path.write_bytes(text)
        assert refused("spectrum", "--config", str(path)).startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra,error", [
        (["--threads", "4"], None),
        (["--threads", "0"], "threads must be >= 1, got 0"),
        (["--threads", "0", "--dry-run"], "threads must be >= 1, got 0"),
        (["--set", "threads=0", "--dry-run"], "threads must be >= 1, got 0"),
        (["--threads", "abc"], "threads must be an integer, got 'abc'"),
        (["--threads", "1.5"], "threads must be an integer, got 1.5"),
    ])
    def test_threads_accepted_and_validated(self, capsys, refused, tmp_path, extra, error):
        args = ["--set", "method=k-space", "--set", "v_GHz=0.25", "--set", "w_GHz=0.5", *extra]
        if error is None:
            assert run(capsys, "winding", *args, "--out-dir", str(tmp_path))[0] == 0
        else:
            assert refused("winding", *args) == f"error: {error}\n"

    @pytest.mark.parametrize("below", ["", "sub/deeper"])
    def test_out_dir_under_a_file_is_refused(self, refused, tmp_path, below):
        # os.makedirs cannot make it, so the read step, and --dry-run, refuse it
        blocker = tmp_path / "file"
        blocker.write_text("")
        err = refused("winding", "--set", "method=k-space", "--set", "v_GHz=0.1",
                      "--set", "w_GHz=0.5", "--out-dir", str(blocker / below))
        assert err == f"error: out_dir cannot be made: {blocker} is not a directory\n"
        assert blocker.read_text() == ""

    def test_out_dir_that_cannot_be_made_after_the_read_step(self, capsys, tmp_path,
                                                            monkeypatch):
        out_dir = str(tmp_path / "out")

        def refuse(path, exist_ok=False):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(os, "makedirs", refuse)
        code, out, err = run(capsys, "winding", "--set", "method=k-space", "--set", "v_GHz=0.1",
                             "--set", "w_GHz=0.5", "--out-dir", out_dir)
        assert (code, out) == (1, "")
        assert err == ("error: output directory not writable: "
                       f"[Errno 13] Permission denied: {out_dir!r}\n")
        assert list(tmp_path.iterdir()) == []

    def test_flags_resolve_as_their_keys(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SSHCHAIN_OUT_DIR", str(tmp_path / "env"))
        args = ["winding", "--set", "method=k-space", "--set", "v_GHz=0.1", "--set", "w_GHz=0.5",
                "--set", "label=set", "--set", "seed=5", "--dry-run"]
        code, out, _ = run(capsys, *args)
        assert code == 0
        resolved = json.loads(out)
        assert (resolved["out_dir"], resolved["label"], resolved["threads"],
                resolved["seed"]) == (str(tmp_path / "env"), "set", 1, 5)
        code, out, _ = run(capsys, *args, "--out-dir", "flag", "--label", "2024",
                           "--threads", "2", "--seed", "3")
        assert code == 0
        resolved = json.loads(out)
        assert (resolved["out_dir"], resolved["label"], resolved["threads"],
                resolved["seed"]) == ("flag", "2024", 2, 3)
        assert list(tmp_path.iterdir()) == []

    def test_every_subcommand_supports_dry_run(self, capsys, tmp_path):
        from sshchain.cli import RUNNERS
        chain = ["--set", 'chain={"n_cells": 5, "eps_GHz": 6.5, "v_GHz": 0.1, "w_GHz": 0.5}']
        inputs = {"spectrum": chain, "ipr": chain,
                  "winding": ["--set", "v_GHz=0.1", "--set", "w_GHz=0.5"]}
        for path in glob.glob(os.path.join(CONFIG_DIR, "*.json")):
            inputs[os.path.basename(path).split("_")[0]] = ["--config", path]
        for command in RUNNERS:
            code, out, _ = run(capsys, command, *inputs[command], "--set", "label=probe",
                               "--out-dir", str(tmp_path), "--dry-run")
            assert code == 0, command
            assert json.loads(out)["label"] == "probe"
        assert list(tmp_path.iterdir()) == []


class TestSweepCommand:
    def test_default_spec_crossing_near_balance(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep",
                           "--config", os.path.join(CONFIG_DIR, "sweep_default.json"),
                           "--out-dir", str(tmp_path), "--label", "d")
        assert code == 0
        assert "crossing_lv_nH=" in out
        crossing = float(out.split("crossing_lv_nH=")[1].split()[0])
        assert abs(crossing - 22.0) <= 0.5
        summary = (tmp_path / "sweep_d_summary.csv").read_text().splitlines()
        assert summary[0] == "lv_nH,fsr_edge_bulk_GHz,fsr_edge_edge_GHz,phase_tag"


    def _library_sweep(self, tmp_path, grid):
        sweep = spec_mod.sweep_coupling(shipped("sweep_default")[0], grid)
        spec_mod.write_sweep_csv(sweep, tmp_path / "lib.csv", tmp_path / "lib_summary.csv")
        return sweep

    def test_values_grid_matches_the_library(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep",
                           "--config", os.path.join(CONFIG_DIR, "sweep_default.json"),
                           "--set", 'lv_grid={"values_nH": [10, 30, 60]}',
                           "--out-dir", str(tmp_path), "--label", "v")
        assert code == 0
        sweep = self._library_sweep(tmp_path, [10.0, 30.0, 60.0])
        crossing = spec_mod.find_fsr_crossing(sweep)
        assert out == f"points=3 crossing_lv_nH={crossing:.12g}\n"
        assert (tmp_path / "sweep_v.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
        assert (tmp_path / "sweep_v_summary.csv").read_bytes() == \
            (tmp_path / "lib_summary.csv").read_bytes()

    def test_multi_block_masked_sweep_matches_the_library(self, capsys, tmp_path):
        # 40 cells: 40 points per block, so these 100 points take three; every
        # other cell is swept, and the crossing lies between inf and 100 nH
        circuit = default_circuit(n_cells=40, lv_nH=30.0)
        grid = [np.inf] + np.linspace(100.0, 5.0, 99).tolist()
        cells = list(range(0, 40, 2))
        assert len(list(spec_mod._block_slices(len(grid), circuit.n_sites))) == 3
        code, out, err = run(capsys, "sweep", *section_sets("circuit", circuit),
                             "--set", f"lv_grid={json.dumps({'values_nH': ['inf'] + grid[1:]})}",
                             "--set", f"cells={json.dumps(cells)}",
                             "--out-dir", str(tmp_path), "--label", "m")
        assert (code, err) == (0, "")
        sweep = spec_mod.sweep_coupling(circuit, grid, cells=cells)
        spec_mod.write_sweep_csv(sweep, tmp_path / "lib.csv", tmp_path / "lib_summary.csv")
        crossing = spec_mod.find_fsr_crossing(sweep)
        assert 100.0 < crossing < np.inf
        assert out == f"points=100 crossing_lv_nH={crossing:.12g}\n"
        assert (tmp_path / "sweep_m.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
        assert (tmp_path / "sweep_m_summary.csv").read_bytes() == \
            (tmp_path / "lib_summary.csv").read_bytes()

    def test_grid_without_crossing(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep",
                           "--config", os.path.join(CONFIG_DIR, "sweep_default.json"),
                           "--set", 'lv_grid={"values_nH": [5, 6, 7]}',
                           "--out-dir", str(tmp_path), "--label", "n")
        assert code == 0
        assert out == "points=3 crossing=none\n"
        assert spec_mod.find_fsr_crossing(self._library_sweep(tmp_path, [5, 6, 7])) is None

    @pytest.mark.parametrize("step", [0, -0.5])
    def test_non_positive_step_is_validation_error(self, refused, step):
        err = refused("sweep", "--config", os.path.join(CONFIG_DIR, "sweep_default.json"),
                      "--set", f"lv_grid.step_nH={step}")
        assert err == "error: lv_grid needs step_nH > 0 and stop >= start\n"


    def test_infinite_values_grid(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep",
                           "--config", os.path.join(CONFIG_DIR, "sweep_default.json"),
                           "--set", 'lv_grid={"values_nH": ["inf", 30, 10]}',
                           "--out-dir", str(tmp_path), "--label", "i")
        assert code == 0
        sweep = self._library_sweep(tmp_path, [np.inf, 30.0, 10.0])
        assert out == f"points=3 crossing_lv_nH={spec_mod.find_fsr_crossing(sweep):.12g}\n"
        assert (tmp_path / "sweep_i.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
        assert (tmp_path / "sweep_i_summary.csv").read_bytes() == \
            (tmp_path / "lib_summary.csv").read_bytes()

    def test_crossing_next_to_an_infinite_grid_point_is_finite(self, capsys, tmp_path):
        # interpolated in 1/lv: linear in lv, the bracket [inf, 10] gave NaN
        code, out, err = run(capsys, "sweep",
                             "--config", os.path.join(CONFIG_DIR, "sweep_default.json"),
                             "--set", 'lv_grid={"values_nH": ["inf", 10]}',
                             "--out-dir", str(tmp_path), "--label", "p")
        assert (code, err) == (0, "")
        crossing = float(out.split("crossing_lv_nH=")[1])
        assert 10.0 < crossing < np.inf
        reverse = spec_mod.find_fsr_crossing(self._library_sweep(tmp_path, [10.0, np.inf]))
        assert reverse == pytest.approx(crossing, rel=1e-11)

    @pytest.mark.parametrize("override,message", [
        ('lv_grid={"values_nH": []}', "lv_grid.values_nH must not be empty"),
        ('lv_grid={"values_nH": [5, 0]}', "lv_grid.values_nH entries must be > 0, got 0.0"),
        ('lv_grid={"values_nH": [[5, 6]]}',
         "lv_grid.values_nH must be a flat list of values, got shape (1, 2)"),
        ('lv_grid={"values_nH": ["Infinity"]}',
         "lv_grid.values_nH: expected a number or 'inf', got 'Infinity'"),
        ('lv_grid={"start_nH": -1, "stop_nH": 3, "step_nH": 1}',
         "lv_grid entries must be > 0, got -1.0"),
        ("cells=[7]", "cells must be indices in 0..4, got [7]"),
        ("cells=[]", "cells must not be empty"),
    ])
    def test_input_errors_name_their_config_key(self, refused, override, message):
        err = refused("sweep", "--config", os.path.join(CONFIG_DIR, "sweep_default.json"),
                      "--set", override)
        assert err == f"error: {message}\n"


class TestSolverFailures:
    """A solver that reports non-convergence ends the run with exit code 2."""

    @pytest.mark.parametrize("command,args", [
        ("disorder", ["--config", os.path.join(CONFIG_DIR, "disorder_topological.json")]),
        ("winding", ["--set", "method=real-space", "--set", "chain.n_cells=20",
                     "--set", "chain.eps_GHz=6.5", "--set", "chain.v_GHz=0.1",
                     "--set", "chain.w_GHz=0.5"]),
    ])
    def test_tridiagonal_solver_info(self, capsys, tmp_path, monkeypatch, command, args):
        solve = topo_mod._Plan.solve

        def unconverged(plan, diag, off):
            solve(plan, diag, off)
            return 3

        monkeypatch.setattr(topo_mod._Plan, "solve", unconverged)
        code, out, err = run(capsys, command, *args, "--out-dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == ("numerical failure: tridiagonal eigensolve failed: "
                       "LAPACK dstevd info = 3\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,args", [
        ("sweep", ["--config", os.path.join(CONFIG_DIR, "sweep_default.json")]),
        ("gatesweep", ["--config", os.path.join(CONFIG_DIR, "gatesweep_joint.json")]),
        ("spectrum", ["--set", "chain.n_cells=5", "--set", "chain.eps_GHz=6.5",
                      "--set", "chain.v_GHz=0.1", "--set", "chain.w_GHz=0.5"]),
    ])
    def test_stacked_eigensolve_error(self, capsys, tmp_path, monkeypatch, command, args):
        def unconverged(h):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", unconverged)
        code, out, err = run(capsys, command, *args, "--out-dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == ("numerical failure: eigendecomposition failed: "
                       "Eigenvalues did not converge\n")
        assert list(tmp_path.iterdir()) == []


def _config(name):
    return os.path.join(CONFIG_DIR, f"{name}.json")


class TestFloatingPointFailures:
    """An overflow, a division by zero or an invalid operation ends a run
    with exit code 2 and one line naming it, with no numpy warning."""

    @pytest.mark.parametrize("command,args,kind", [
        ("s21", ["--config", _config("s21_topological"), "--set", "box.q_box=1e300"],
         "divide by zero"),
        ("s21", ["--config", _config("s21_topological"), "--set", "circuit.c0_fF=1e200",
                 "--set", "circuit.l0_nH=1e200", "--set", "circuit.cw_fF=1e200"], "overflow"),
        ("s21", ["--config", _config("s21_topological"), "--set", "circuit.l0_nH=1e-310"],
         "overflow"),
        ("s21", ["--config", _config("s21_topological"), "--set", "freqs.stop_GHz=1e300"],
         "overflow"),
    ], ids=["s21-q_box", "s21-huge-circuit", "s21-tiny-l0", "s21-stop"])
    def test_is_numerical_failure(self, capsys, tmp_path, command, args, kind):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, command, *args, "--out-dir", str(tmp_path))
        assert caught == []
        assert (code, out) == (2, "")
        assert err.startswith(f"numerical failure: floating-point {kind} encountered in ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestSpectrumCommand:
    def test_topological_chain(self, capsys, tmp_path):
        code, out, _ = run(capsys, "spectrum",
                           "--set", "chain.n_cells=5",
                           "--set", "chain.eps_GHz=6.04",
                           "--set", "chain.v_GHz=0.01",
                           "--set", "chain.w_GHz=0.35",
                           "--out-dir", str(tmp_path), "--label", "topo")
        assert code == 0
        assert "phase=topological" in out
        rows = (tmp_path / "spectrum_topo.csv").read_text().splitlines()
        assert len(rows) == 11


class TestDisorderCommand:
    def test_one_solve_per_sample(self, capsys, tmp_path, monkeypatch):
        solves = counted_dstevd(monkeypatch)
        code, _, _ = run(capsys, "disorder", "--config", _config("disorder_topological"),
                         "--out-dir", str(tmp_path))
        assert code == 0
        assert solves == [100] * 200
        assert len(summary_rows(tmp_path / "disorder_topological.csv")) == 200

    def test_seed_required(self, refused):
        err = refused("disorder",
                      "--set", "chain.n_cells=10",
                      "--set", "chain.eps_GHz=6.5",
                      "--set", "chain.v_GHz=0.05",
                      "--set", "chain.w_GHz=0.5",
                      "--set", "disorder.samples=4",
                      "--set", "disorder.strength=0.1")
        assert "seed" in err

    def test_threads_do_not_change_bytes(self, capsys, tmp_path):
        outputs = {}
        for threads in (1, 2):
            sub = tmp_path / f"t{threads}"
            code, _, _ = run(capsys, "disorder",
                             "--set", "chain.n_cells=10",
                             "--set", "chain.eps_GHz=6.5",
                             "--set", "chain.v_GHz=0.05",
                             "--set", "chain.w_GHz=0.5",
                             "--set", "disorder.samples=12",
                             "--set", "disorder.strength=0.1",
                             "--seed", "99",
                             "--threads", str(threads),
                             "--out-dir", str(sub), "--label", "det")
            assert code == 0
            outputs[threads] = (sub / "disorder_det.csv").read_bytes()
        assert outputs[1] == outputs[2]

    def test_seed_flag_wins_over_config_seeds(self, capsys, tmp_path):
        base = ["--set", "chain.n_cells=10", "--set", "chain.eps_GHz=6.5",
                "--set", "chain.v_GHz=0.05", "--set", "chain.w_GHz=0.5",
                "--set", "disorder.samples=20", "--set", "seed=7",
                "--out-dir", str(tmp_path)]
        code, out, _ = run(capsys, "disorder", *base, "--set", "disorder.seed=99",
                           "--seed", "1", "--dry-run")
        assert code == 0
        resolved = json.loads(out)
        assert resolved["seed"] == resolved["disorder"]["seed"] == 1
        csvs = {}
        for label, args in (("flag1", ["--set", "disorder.seed=99", "--seed", "1"]),
                            ("flag2", ["--set", "disorder.seed=99", "--seed", "2"]),
                            ("config1", ["--set", "disorder.seed=1"])):
            code, _, _ = run(capsys, "disorder", *base, *args, "--label", label)
            assert code == 0
            csvs[label] = (tmp_path / f"disorder_{label}.csv").read_bytes()
        assert csvs["flag1"] != csvs["flag2"]
        assert csvs["flag1"] == csvs["config1"]


class TestS21Command:
    def test_trace_with_box(self, capsys, tmp_path):
        code, out, _ = run(capsys, "s21",
                           "--config", os.path.join(CONFIG_DIR, "s21_topological.json"),
                           "--set", "freqs.points=801",
                           "--out-dir", str(tmp_path), "--label", "s")
        assert code == 0
        assert "points=801" in out
        meta = json.loads((tmp_path / "s21_s.json").read_text())
        assert meta["box"]["f_box_GHz"] == 6.0
        rows = (tmp_path / "s21_s.csv").read_text().splitlines()
        assert rows[0] == "freq_GHz,re_s21,im_s21,abs_s21"

    def test_power_is_recorded_as_a_float(self, capsys, tmp_path):
        code, _, _ = run(capsys, "s21",
                         "--config", os.path.join(CONFIG_DIR, "s21_topological.json"),
                         "--set", "freqs.points=11", "--set", "power_dBm=-30",
                         "--out-dir", str(tmp_path), "--label", "p")
        assert code == 0
        assert '"power_dBm": -30.0,' in (tmp_path / "s21_p.json").read_text()

    def test_zero_frequency_is_validation_error(self, refused):
        err = refused("s21", *circuit_sets(lv_nH=40.0),
                      "--set", "freqs.start_GHz=0",
                      "--set", "freqs.stop_GHz=1",
                      "--set", "freqs.points=5")
        assert err.startswith("error: freqs must be > 0")


class TestGateSweepCommand:
    def test_joint_sweep_summary(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gatesweep", *circuit_sets(),
                           "--set", 'gate.v_p_V=0.4', "--set", 'gate.v_o_V=1.8',
                           "--set", 'gate.l_min_nH=9.0',
                           "--set", 'gate.i_star_uA=1.0',
                           "--set", 'sweep.kind=joint', "--set", 'sweep.steps=4',
                           "--set", 'freqs.start_GHz=5.6',
                           "--set", 'freqs.stop_GHz=7.2',
                           "--set", 'freqs.points=301',
                           "--set", 'emit_traces=false',
                           "--out-dir", str(tmp_path), "--label", "j")
        assert code == 0
        assert "settings=4" in out
        summary = (tmp_path / "gatesweep_j_summary.csv").read_text().splitlines()
        assert len(summary) == 5
        assert summary[1].endswith("topological")  # all gates at pinch-off
        assert summary[-1].endswith("trivial")     # all gates open

    @staticmethod
    def count_work(monkeypatch):
        """Count gate maps, ``apply_gate_setting`` and ``s21_trace`` calls and
        the ``CircuitSpec`` objects built, from now on."""
        calls = dict.fromkeys(("_gate_lv", "apply_gate_setting", "s21_trace", "CircuitSpec"), 0)
        for name in ("_gate_lv", "apply_gate_setting", "s21_trace"):
            def counting(*args, _name=name, _fn=getattr(mw_mod, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(mw_mod, name, counting)
        post_init = CircuitSpec.__post_init__

        def counted_post_init(self):
            calls["CircuitSpec"] += 1
            post_init(self)

        monkeypatch.setattr(CircuitSpec, "__post_init__", counted_post_init)
        return calls

    @pytest.mark.parametrize("command,config,points", [
        ("gatesweep", "gatesweep_joint", 5), ("powersweep", "powersweep_trivial", 9)])
    @pytest.mark.parametrize("emit_traces", [False, True])
    def test_one_gate_map_per_sweep(self, capsys, tmp_path, monkeypatch,
                                    command, config, points, emit_traces):
        # the config's circuit, then one circuit per emitted trace and none per point
        calls = self.count_work(monkeypatch)
        code, _, _ = run(capsys, command,
                         "--config", os.path.join(CONFIG_DIR, f"{config}.json"),
                         "--set", "freqs.points=11",
                         "--set", f"emit_traces={json.dumps(emit_traces)}",
                         "--out-dir", str(tmp_path), "--label", "n")
        assert code == 0
        traces = points if emit_traces else 0
        assert calls == {"_gate_lv": 1, "apply_gate_setting": 0, "s21_trace": traces,
                         "CircuitSpec": 1 + traces}
        assert len(list(tmp_path.glob("*_trace*"))) == 2 * traces

    def test_large_dry_run_builds_no_circuit(self, capsys, tmp_path, monkeypatch):
        calls = self.count_work(monkeypatch)
        code, _, _ = run(capsys, "gatesweep", "--config", _config("gatesweep_joint"),
                         "--set", "sweep.steps=50000", "--set", "emit_traces=false",
                         "--out-dir", str(tmp_path), "--dry-run")
        assert code == 0
        assert calls == {"_gate_lv": 1, "apply_gate_setting": 0, "s21_trace": 0,
                         "CircuitSpec": 1}

    @pytest.mark.parametrize("command,config,override,line", [
        ("gatesweep", "gatesweep_joint", "i_s_uA=1e200",
         "i_s_uA overflows the power factor 1 + (i_s/i_star)^2 of junction 0, "
         "got i_s=1e+200, i_star=1.0"),
        ("powersweep", "powersweep_trivial", "i_s_grid.values_uA=[0, 1e160]",
         "i_s_grid.values_uA overflows the power factor 1 + (i_s/i_star)^2 of junction 0, "
         "got i_s=1e+160, i_star=1.0"),
        ("powersweep", "powersweep_trivial", "i_s_grid.values_uA=[0, -1, 1e160]",
         "i_s_grid.values_uA must be >= 0, got -1.0"),
        ("gatesweep", "gatesweep_joint", "i_s_uA=-0.5", "i_s_uA must be >= 0, got -0.5"),
    ], ids=["gatesweep-overflow", "powersweep-overflow", "powersweep-negative-first",
            "gatesweep-negative"])
    def test_signal_current_refused_by_key(self, refused, command, config, override, line):
        # an overflowing power factor read every junction as pinched off
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = refused(command, "--config", _config(config), "--set", override)
        assert caught == []
        assert err == f"error: {line}\n"

    @pytest.mark.parametrize("rows,message", [
        ("0.0,60\nnan,20\n", "must be finite, got nan"),
        ("0.0,60\n2.0,inf\n", "must be finite, got inf"),
        ("0.0,60\n", "must be (M, 2) samples with M >= 2"),
        ("1.0,60\n0.0,20\n", "voltages must be strictly increasing"),
        ("0.0,60\n2.0,0\n", "inductances must be > 0"),
    ], ids=["nan", "inf", "one-row", "decreasing", "zero"])
    def test_gate_table_csv_content_names_its_key(self, refused, tmp_path, rows, message):
        path = tmp_path / "table.csv"
        path.write_text("v_gate_V,l_nH\n" + rows)
        err = refused("gatesweep", "--config", _config("gatesweep_joint"),
                      "--set", "gate.mode=table", "--set", f"gate.table_csv={path}")
        assert err == f"error: gate.table_csv of junction 0 {message}\n"

    @pytest.mark.parametrize("command,config", [
        ("gatesweep", "gatesweep_joint"), ("powersweep", "powersweep_trivial")])
    def test_failed_trace_leaves_no_outputs(self, capsys, tmp_path, monkeypatch,
                                            command, config):
        traced = []
        s21_trace = mw_mod.s21_trace

        def failing_third(*args, **kwargs):
            traced.append(1)
            if len(traced) == 3:
                raise NumericalError("injected trace failure")
            return s21_trace(*args, **kwargs)

        monkeypatch.setattr(mw_mod, "s21_trace", failing_third)
        code, out, err = run(capsys, command,
                             "--config", os.path.join(CONFIG_DIR, f"{config}.json"),
                             "--set", "freqs.points=11", "--set", "emit_traces=true",
                             "--out-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert err == "numerical failure: injected trace failure\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("settings,shape", [
        ([], "(0,)"), ([0.4, 0.4, 1.8, 0.4, 0.4], "(5,)"), ([[0.4] * 3] * 2, "(2, 3)")])
    def test_explicit_settings_shape_validated(self, refused, settings, shape):
        err = refused("gatesweep", "--config", os.path.join(CONFIG_DIR, "gatesweep_joint.json"),
                      "--set", "sweep.kind=explicit",
                      "--set", f"sweep.settings_V={json.dumps(settings)}")
        assert err == f"error: sweep.settings_V must be (n_settings, 5), got {shape}\n"

    def test_single_sweep_matches_the_library(self, capsys, tmp_path):
        _, model, config = shipped("gatesweep_joint")
        code, out, _ = run(capsys, "gatesweep", "--config", config,
                           "--set", "sweep.kind=single", "--set", "sweep.junction=2",
                           "--set", "sweep.start_V=0.6", "--set", "sweep.points=3",
                           "--set", "freqs.points=41",
                           "--out-dir", str(tmp_path), "--label", "s")
        assert code == 0 and out == "settings=3 traces_written=3\n"
        settings = mw_mod.single_gate_settings(model, 2, np.linspace(0.6, 1.8, 3))
        check_gatesweep(tmp_path, "s", model, settings, emit_traces=True)

    def test_explicit_sweep_matches_the_library(self, capsys, tmp_path):
        _, model, config = shipped("gatesweep_joint")
        settings = [[0.4, 0.4, 1.8, 0.4, 0.4], [1.8, 1.8, 1.8, 1.8, 1.8]]
        code, out, _ = run(capsys, "gatesweep", "--config", config,
                           "--set", "sweep.kind=explicit",
                           "--set", f"sweep.settings_V={json.dumps(settings)}",
                           "--set", "freqs.points=41", "--set", "emit_traces=false",
                           "--out-dir", str(tmp_path), "--label", "e")
        assert code == 0 and out == "settings=2 traces_written=0\n"
        check_gatesweep(tmp_path, "e", model, settings, emit_traces=False)

    def test_gate_tables_match_the_library(self, capsys, tmp_path):
        _, parametric, config = shipped("gatesweep_joint")
        settings = [[0.5, 1.0, 1.5, 2.0, 0.0], [1.0] * 5]
        table_csv = tmp_path / "table.csv"
        table_csv.write_text("v_gate_V,l_nH\n" + "".join(f"{v},{l}\n" for v, l in GATE_TABLE))
        for label, table in (("inline", f"gate.table={json.dumps(GATE_TABLE)}"),
                             ("file", f"gate.table_csv={table_csv}")):
            code, _, _ = run(capsys, "gatesweep", "--config", config,
                             "--set", "gate.mode=table", "--set", table,
                             "--set", "sweep.kind=explicit",
                             "--set", f"sweep.settings_V={json.dumps(settings)}",
                             "--set", "freqs.points=41",
                             "--out-dir", str(tmp_path / label), "--label", "t")
            assert code == 0
        model = mw_mod.GateModel(5, parametric.v_p, parametric.v_o, parametric.l_min,
                                 parametric.i_star, mode="table", tables=np.array(GATE_TABLE))
        check_gatesweep(tmp_path / "inline", "t", model, settings, emit_traces=True)
        assert_same_files(tmp_path / "inline", tmp_path / "file")

    def test_lv_beyond_the_double_range_is_pinch_off(self, capsys, tmp_path):
        # 1e-160 V above pinch-off, l_min / ramp overflows; 1e-170 V gives a
        # ramp of 0: both junctions read as pinched off, with no warning
        gated = ["--config", _config("gatesweep_joint"), "--set", "gate.v_p_V=0",
                 "--set", "sweep.kind=explicit"]
        power = ["--config", _config("powersweep_trivial"), "--set", "gate.v_p_V=0"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for v_g in ("1e-160", "1e-170"):
                code, _, err = run(capsys, "gatesweep", *gated, "--set",
                                   f"sweep.settings_V=[[{v_g},1,1,1,1]]", "--dry-run")
                assert (code, err) == (0, "")
                code, _, err = run(capsys, "powersweep", *power, "--set",
                                   f"setting_V=[{v_g},1,1,1,1]",
                                   "--out-dir", str(tmp_path / v_g), "--label", "p")
                assert (code, err) == (0, "")
        rows = [(tmp_path / v_g / "powersweep_p.csv").read_text().splitlines()
                for v_g in ("1e-160", "1e-170")]
        assert rows[0] == rows[1]
        assert all(row.split(",")[1] == "inf" for row in rows[0][1:])

    @pytest.mark.parametrize("key", ["gate.table", "gate.table_csv"])
    def test_gate_table_extrapolation_names_its_key(self, refused, tmp_path, key):
        # the joint sweep starts at v_p = 0.4 V, below the table
        table = [[0.5, 60.0], [2.0, 8.0]]
        if key == "gate.table_csv":
            path = tmp_path / "table.csv"
            path.write_text("v_gate_V,l_nH\n" + "".join(f"{v},{l}\n" for v, l in table))
            table = str(path)
        err = refused("gatesweep", "--config", os.path.join(CONFIG_DIR, "gatesweep_joint.json"),
                      "--set", "gate.mode=table", "--set", f"{key}={json.dumps(table)}")
        assert err == f"error: {key} of junction 0: v_g=0.4 outside sampled range [0.5, 2.0]\n"

    @pytest.mark.parametrize("content,message", [
        (None, "gate table file not found: {}"),
        (b"\x89PNG\r\n\x1a\n", "gate table {} is not UTF-8 text: 'utf-8' codec can't decode "
                                "byte 0x89 in position 0: invalid start byte"),
    ], ids=["missing", "not-utf-8"])
    def test_unreadable_gate_table_file(self, refused, tmp_path, content, message):
        path = tmp_path / "table.csv"
        if content is not None:
            path.write_bytes(content)
        err = refused("gatesweep", "--config", os.path.join(CONFIG_DIR, "gatesweep_joint.json"),
                      "--set", "gate.mode=table", "--set", f"gate.table_csv={path}")
        assert err == f"error: {message.format(path)}\n"

    def test_single_sweep_junction_out_of_range(self, refused):
        err = refused("gatesweep", *circuit_sets(),
                      "--set", "gate.mode=parametric",
                      "--set", "sweep.kind=single", "--set", "sweep.junction=9",
                      "--set", "freqs.start_GHz=5.6", "--set", "freqs.stop_GHz=7.2",
                      "--set", "freqs.points=11")
        assert "sweep.junction must be <= 4, got 9" in err

    @pytest.mark.parametrize("points", [0, -1])
    def test_empty_single_sweep_is_validation_error(self, refused, points):
        err = refused("gatesweep", "--config", os.path.join(CONFIG_DIR, "gatesweep_joint.json"),
                      "--set", "sweep.kind=single", "--set", "sweep.junction=1",
                      "--set", f"sweep.points={points}")
        assert err == f"error: sweep.points must be >= 1, got {points}\n"


class TestPowerSweepCommand:
    def test_power_drive_reverts_phase(self, capsys, tmp_path):
        code, out, _ = run(capsys, "powersweep",
                           "--config", os.path.join(CONFIG_DIR, "powersweep_trivial.json"),
                           "--out-dir", str(tmp_path), "--label", "p")
        assert code == 0
        assert "phase_first=trivial" in out
        assert "phase_last=topological" in out
        rows = (tmp_path / "powersweep_p.csv").read_text().splitlines()[1:]
        lv_first = [float(r.split(",")[1]) for r in rows]
        assert all(b > a for a, b in zip(lv_first, lv_first[1:]))

    def test_emitted_traces_match_the_library(self, capsys, tmp_path):
        config = os.path.join(CONFIG_DIR, "powersweep_trivial.json")
        code, _, _ = run(capsys, "powersweep", "--config", config,
                         "--set", "emit_traces=true", "--set", "freqs.points=201",
                         "--out-dir", str(tmp_path), "--label", "t")
        assert code == 0
        circuit, model, _ = shipped("powersweep_trivial")
        freqs = np.linspace(5.5, 7.2, 201)
        currents = np.linspace(0.0, 2.0, 9)
        assert sorted(p.name for p in tmp_path.glob("powersweep_t_trace*")) == \
            [f"powersweep_t_trace{k:03d}.{ext}" for k in range(9) for ext in ("csv", "json")]
        for k, i_s in enumerate(currents):
            rows = np.loadtxt(tmp_path / f"powersweep_t_trace{k:03d}.csv",
                              delimiter=",", skiprows=1)
            expected = mw_mod.s21_trace(
                apply_gate_setting(circuit, model, model.v_o, i_s), freqs)
            assert np.max(np.abs(rows[:, 3] - np.abs(expected.s21))) <= 1e-12
            meta = json.loads((tmp_path / f"powersweep_t_trace{k:03d}.json").read_text())
            assert meta["i_s_uA"] == i_s

    @pytest.mark.parametrize("setting", ["pinch", [1.8, 0.4, 1.8, 0.4, 1.8]])
    def test_gate_setting_matches_the_library(self, capsys, tmp_path, setting):
        circuit, model, config = shipped("powersweep_trivial")
        code, _, _ = run(capsys, "powersweep", "--config", config,
                         "--set", f"setting_V={json.dumps(setting)}",
                         "--set", 'i_s_grid={"values_uA": [0.0, 0.9, 1.7]}',
                         "--out-dir", str(tmp_path), "--label", "g")
        assert code == 0
        voltages = model.v_p if setting == "pinch" else setting
        rows = summary_rows(tmp_path / "powersweep_g.csv")
        assert [float(row[0]) for row in rows] == [0.0, 0.9, 1.7]
        for row in rows:
            gated = apply_gate_setting(circuit, model, voltages, float(row[0]))
            np.testing.assert_allclose([float(x) for x in row[1:6]], gated.lv, rtol=1e-11)
            assert row[-1] == classify_point(gated)[2].phase_tag

    def test_gate_section_defaults(self, capsys, tmp_path):
        # a gate section naming only its mode takes v_p = 0 V, v_o = 1 V,
        # l_min = 9 nH and i_star = 1 uA
        circuit, _, config = shipped("powersweep_trivial")
        voltages = [0.25, 0.5, 0.75, 1.0, 0.6]
        code, _, _ = run(capsys, "powersweep", "--config", config,
                         "--set", 'gate={"mode": "parametric"}',
                         "--set", f"setting_V={json.dumps(voltages)}",
                         "--set", 'i_s_grid={"values_uA": [0.0, 0.5]}',
                         "--out-dir", str(tmp_path), "--label", "d")
        assert code == 0
        model = mw_mod.GateModel(5, 0.0, 1.0, 9.0, 1.0)
        rows = summary_rows(tmp_path / "powersweep_d.csv")
        assert [float(row[0]) for row in rows] == [0.0, 0.5]
        for row in rows:
            gated = apply_gate_setting(circuit, model, voltages, float(row[0]))
            np.testing.assert_allclose([float(x) for x in row[1:6]], gated.lv, rtol=1e-11)

    def test_unknown_setting_name_is_validation_error(self, refused):
        err = refused("powersweep",
                      "--config", os.path.join(CONFIG_DIR, "powersweep_trivial.json"),
                      "--set", "setting_V=half")
        assert err == ("error: setting_V must be 'open', 'pinch' or a voltage list, "
                       "got 'half'\n")

    def test_empty_current_grid_is_validation_error(self, refused):
        err = refused("powersweep",
                      "--config", os.path.join(CONFIG_DIR, "powersweep_trivial.json"),
                      "--set", 'i_s_grid={"values_uA": []}', "--label", "e")
        assert "i_s_grid holds no signal current" in err

    @pytest.mark.parametrize("points", [0, -1])
    def test_non_positive_current_points_is_validation_error(self, refused, points):
        err = refused("powersweep",
                      "--config", os.path.join(CONFIG_DIR, "powersweep_trivial.json"),
                      "--set", f'i_s_grid={{"stop_uA": 2.0, "points": {points}}}')
        assert err == f"error: i_s_grid.points must be >= 1, got {points}\n"


class TestFitCommand:
    def test_fit_with_an_overflowing_start_cost(self, capsys, tmp_path):
        # the solver refuses the start itself: its sum of squares overflows
        # without a floating-point flag
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "fit", "--config", _config("fit_roundtrip"),
                                 "--set", f"fit.targets_GHz={json.dumps([1e300] * 10)}",
                                 "--out-dir", str(tmp_path))
        assert caught == []
        assert (code, out) == (2, "")
        assert err == ("numerical failure: least-squares cost at the start point "
                       "is not finite: inf\n")
        assert list(tmp_path.iterdir()) == []

    def test_roundtrip_fixture(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fit",
                           "--config", os.path.join(CONFIG_DIR, "fit_roundtrip.json"),
                           "--out-dir", str(tmp_path), "--label", "rt")
        assert code == 0
        payload = json.loads((tmp_path / "fit_rt.json").read_text())
        assert payload["residual_rms_kHz"] < 1.0
        assert payload["disorder_report_pct"]["c0"] < 0.1
        assert (tmp_path / "fit_rt_sites.csv").exists()
        assert (tmp_path / "fit_rt_couplings.csv").exists()

    def test_solver_options_through_set(self, capsys, tmp_path):
        config = os.path.join(CONFIG_DIR, "fit_roundtrip.json")

        def fit(label, *sets):
            args = [a for expr in sets for a in ("--set", expr)]
            return run(capsys, "fit", "--config", config, *args,
                       "--out-dir", str(tmp_path), "--label", label)

        code, _, _ = fit("tuned", "options.tol_f=1e-9", "options.tol_x=1e-10",
                         "options.max_iter=400", "options.step=0.01")
        assert code == 0
        payload = json.loads((tmp_path / "fit_tuned.json").read_text())
        assert payload["residual_rms_kHz"] < 1.0
        # a one-evaluation cap stops every start before any tolerance is met
        code, _, _ = fit("capped", "options.max_iter=1", "multi_start=1")
        assert code == 0
        payload = json.loads((tmp_path / "fit_capped.json").read_text())
        assert payload["converged"] is False
        code, _, err = fit("bad", "options.max_iter=0")
        assert code == 1
        assert "max_iter" in err
        code, _, err = fit("bad", "options.tol_f=abc")
        assert code == 1
        assert "tol_f" in err


def test_cli_import_leaves_peak_finding_unloaded(tmp_path):
    # No scipy module at all, each in a fresh process: importing the CLI, the
    # fit, s21, table-mode gatesweep, disorder and real-space winding
    # subcommands, and the criterion-8 peak pipeline. The flatband solve
    # (disorder, real-space winding) calls LAPACK from numpy's own OpenBLAS.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def cli(command, config, *sets):
        argv = [command, "--out-dir", str(tmp_path / command), "--label", "probe"]
        if config:
            argv += ["--config", os.path.join(CONFIG_DIR, f"{config}.json")]
        for expr in sets:
            argv += ["--set", expr]
        return f"from sshchain.cli import main\nassert main({argv!r}) == 0\n"

    probes = [
        "import sshchain.cli\n",
        cli("fit", "fit_roundtrip"),
        cli("s21", "s21_topological"),
        cli("gatesweep", "gatesweep_joint", "gate.mode=table",
            f"gate.table={json.dumps(GATE_TABLE)}", "freqs.points=41"),
        cli("disorder", "disorder_topological"),
        cli("winding", None, "method=real-space", "chain.n_cells=100", "chain.eps_GHz=6.5",
            "chain.v_GHz=0.05", "chain.w_GHz=0.5"),
        "import numpy as np; from sshchain import microwave as mw, default_circuit\n"
        "circuit = default_circuit(lv_nH=60.0)\n"
        "modes = mw.circuit_mode_frequencies(circuit)\n"
        "freqs = np.linspace(modes[0] - 0.15, modes[-1] + 0.15, 40001)\n"
        "trace = mw.background_normalize(mw.s21_trace(circuit, freqs),\n"
        "                                [(modes[0] - 0.05, modes[-1] + 0.05)])\n"
        "assert len(mw.extract_peaks(trace, prominence=0.05, max_peaks=12)) == 9\n",
    ]
    for probe in probes:
        probe += ("import sys; print(sorted(m for m in sys.modules\n"
                  "                         if m == 'scipy' or m.startswith('scipy.')))\n")
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]", probe
