import json
import os

import numpy as np
import pytest

from sshchain import CircuitSpec, apply_gate_setting, default_circuit, map_circuit_to_tb
from sshchain import microwave as mw_mod
from sshchain.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


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


class TestWindingCommand:
    def test_k_space_prints_nu(self, capsys, tmp_path):
        code, out, _ = run(capsys, "winding", "--set", "method=k-space",
                           "--set", "v_GHz=0.25", "--set", "w_GHz=0.5",
                           "--out-dir", str(tmp_path), "--label", "x")
        assert code == 0
        assert "nu=1" in out
        payload = json.loads((tmp_path / "winding_x.json").read_text())
        assert payload["nu"] == 1.0

    def test_gap_closing_is_numerical_failure(self, capsys, tmp_path):
        code, _, err = run(capsys, "winding", "--set", "method=k-space",
                           "--set", "v_GHz=0.5", "--set", "w_GHz=0.5",
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert "numerical failure" in err

    def test_real_space(self, capsys, tmp_path):
        code, out, _ = run(capsys, "winding", "--set", "method=real-space",
                           "--set", "chain.n_cells=100",
                           "--set", "chain.eps_GHz=6.5",
                           "--set", "chain.v_GHz=0.05",
                           "--set", "chain.w_GHz=0.5",
                           "--out-dir", str(tmp_path), "--label", "rs")
        assert code == 0
        payload = json.loads((tmp_path / "winding_rs.json").read_text())
        assert abs(payload["nu"] - 1.0) < 0.05


class TestConfigHandling:
    def test_unknown_keys_listed(self, capsys, tmp_path):
        code, _, err = run(capsys, "winding", "--set", "method=k-space",
                           "--set", "v_GHz=0.25", "--set", "w_GHz=0.5",
                           "--set", "bogus=1", "--set", "also_bad=2",
                           "--out-dir", str(tmp_path))
        assert code == 1
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

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "spectrum",
                           "--config", str(tmp_path / "nope.json"))
        assert code == 1
        assert "not found" in err

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
    ])
    def test_non_numeric_value_is_validation_error(self, capsys, tmp_path,
                                                    command, config, override):
        code, _, err = run(capsys, command,
                           "--config", os.path.join(CONFIG_DIR, f"{config}.json"),
                           "--set", override, "--out-dir", str(tmp_path))
        assert code == 1
        key = override.split("=")[0].split(".")[-1]
        assert err.startswith("error: ") and key in err and "abc" in err

    @pytest.mark.parametrize("command,config,override", [
        ("fit", "fit_roundtrip", "options=5"),
        ("spectrum", None, "chain=5"),
    ])
    def test_scalar_section_is_validation_error(self, capsys, tmp_path,
                                                command, config, override):
        args = ["--config", os.path.join(CONFIG_DIR, f"{config}.json")] if config else []
        code, _, err = run(capsys, command, *args, "--set", override,
                           "--out-dir", str(tmp_path))
        assert code == 1
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
    ])
    def test_non_finite_value_is_validation_error(self, capsys, tmp_path,
                                                  command, config, overrides):
        args = ["--config", os.path.join(CONFIG_DIR, f"{config}.json")] if config else []
        for expr in overrides:
            args += ["--set", expr]
        code, out, err = run(capsys, command, *args, "--out-dir", str(tmp_path))
        assert code == 1
        assert out == "" and err.startswith("error: ") and "finite" in err
        assert list(tmp_path.iterdir()) == []

    def test_threads_accepted_and_validated(self, capsys, tmp_path):
        args = ("winding", "--set", "method=k-space", "--set", "v_GHz=0.25",
                "--set", "w_GHz=0.5", "--out-dir", str(tmp_path))
        assert run(capsys, *args, "--threads", "4")[0] == 0
        code, _, err = run(capsys, *args, "--threads", "0")
        assert code == 1
        assert "threads must be >= 1" in err

    def test_every_subcommand_supports_dry_run(self, capsys, tmp_path):
        from sshchain.cli import RUNNERS
        for command in RUNNERS:
            code, out, _ = run(capsys, command, "--set", "label=probe",
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


    def test_circuit_section_matches_its_mapped_chain(self, capsys, tmp_path):
        circuit = default_circuit(lv_nH=30.0)
        for label, sets in (("circ", section_sets("circuit", circuit)),
                            ("chain", section_sets("chain", map_circuit_to_tb(circuit)))):
            code, _, _ = run(capsys, "spectrum", *sets,
                             "--out-dir", str(tmp_path), "--label", label)
            assert code == 0
        for suffix in ("csv", "json"):
            assert (tmp_path / f"spectrum_circ.{suffix}").read_bytes() == \
                (tmp_path / f"spectrum_chain.{suffix}").read_bytes()


class TestDisorderCommand:
    def test_seed_required(self, capsys, tmp_path):
        code, _, err = run(capsys, "disorder",
                           "--set", "chain.n_cells=10",
                           "--set", "chain.eps_GHz=6.5",
                           "--set", "chain.v_GHz=0.05",
                           "--set", "chain.w_GHz=0.5",
                           "--set", "disorder.samples=4",
                           "--set", "disorder.strength=0.1",
                           "--out-dir", str(tmp_path))
        assert code == 1
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

    def test_zero_frequency_is_validation_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "s21", *circuit_sets(lv_nH=40.0),
                           "--set", "freqs.start_GHz=0",
                           "--set", "freqs.stop_GHz=1",
                           "--set", "freqs.points=5",
                           "--out-dir", str(tmp_path))
        assert code == 1


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

    def test_one_gated_circuit_per_setting(self, capsys, tmp_path, monkeypatch):
        calls = []
        apply = mw_mod.apply_gate_setting

        def counting_apply(*args, **kwargs):
            calls.append(args[2])
            return apply(*args, **kwargs)

        monkeypatch.setattr(mw_mod, "apply_gate_setting", counting_apply)
        code, out, _ = run(capsys, "gatesweep", *circuit_sets(),
                           "--set", "gate.v_p_V=0.4", "--set", "gate.v_o_V=1.8",
                           "--set", "sweep.kind=joint", "--set", "sweep.steps=3",
                           "--set", "freqs.start_GHz=5.6", "--set", "freqs.stop_GHz=7.2",
                           "--set", "freqs.points=11", "--set", "emit_traces=false",
                           "--out-dir", str(tmp_path), "--label", "n")
        assert code == 0 and "settings=3" in out
        assert len(calls) == 3

    def test_single_sweep_junction_out_of_range(self, capsys, tmp_path):
        code, _, err = run(capsys, "gatesweep", *circuit_sets(),
                           "--set", "gate.mode=parametric",
                           "--set", "sweep.kind=single", "--set", "sweep.junction=9",
                           "--set", "freqs.start_GHz=5.6", "--set", "freqs.stop_GHz=7.2",
                           "--set", "freqs.points=11", "--out-dir", str(tmp_path))
        assert code == 1
        assert "junction index 9 outside 0..4" in err


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
        with open(config) as fh:
            document = json.load(fh)
        circuit = CircuitSpec.from_dict(document["circuit"])
        gate = document["gate"]
        model = mw_mod.GateModel(circuit.n_cells, gate["v_p_V"], gate["v_o_V"],
                                 gate["l_min_nH"], gate["i_star_uA"])
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

    def test_empty_current_grid_is_validation_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "powersweep",
                           "--config", os.path.join(CONFIG_DIR, "powersweep_trivial.json"),
                           "--set", 'i_s_grid={"values_uA": []}',
                           "--out-dir", str(tmp_path), "--label", "e")
        assert code == 1
        assert "i_s_grid holds no signal current" in err


class TestFitCommand:
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
