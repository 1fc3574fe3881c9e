import json
import math
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest

from sshchain import (
    ChainSpec,
    CircuitSpec,
    GateModel,
    apply_gate_setting,
    NumericalError,
    ValidationError,
    build_tb_hamiltonian,
    classify_modes,
    default_circuit,
    eigendecompose,
    find_fsr_crossing,
    joint_gate_settings,
    map_circuit_to_tb,
    sweep_coupling,
)
from sshchain.spectral import (
    CouplingSweep,
    LABEL_BULK_LOWER,
    LABEL_BULK_UPPER,
    LABEL_EDGE,
    PHASE_NORMAL,
    PHASE_TOPOLOGICAL,
    PHASE_TRIVIAL,
    ModeClassification,
    write_sweep_csv,
)

from sshchain import chain as chain_mod
from sshchain import spectral as spec_mod
from sshchain.cli import main

from oracles import classify_point, dense_eigvals, normalized_spectrum, sweep_points

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


class TestEigendecompose:
    def test_two_by_two(self):
        spectrum = eigendecompose(np.array([[6.5, 0.5], [0.5, 6.5]]))
        assert np.allclose(spectrum.eigenvalues, [6.0, 7.0])

    def test_diagonal_gives_permuted_identity(self):
        spectrum = eigendecompose(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(spectrum.eigenvalues, [1.0, 2.0, 3.0])
        # sign fix makes each column a +1 unit vector
        expected = np.zeros((3, 3))
        expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
        assert np.allclose(spectrum.eigenvectors, expected)

    def test_midgap_pair_close_to_reference(self):
        h = build_tb_hamiltonian(ChainSpec(5, 6.5, 0.05, 0.5))
        spectrum = eigendecompose(h)
        mid = np.sort(np.abs(spectrum.eigenvalues - 6.5))[:2]
        # splitting ~ 2 w (v/w)^5 = 10 kHz, far inside the 1 MHz bound
        assert np.all(mid < 1e-3)
        assert np.allclose(spectrum.eigenvalues, dense_eigvals(h), atol=1e-9)

    def test_invariants(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(12, 12))
        h = m + m.T
        spectrum = eigendecompose(h)
        v = spectrum.eigenvectors
        assert np.max(np.abs(v.T @ v - np.eye(12))) < 1e-9
        assert np.max(np.abs(h - (v * spectrum.eigenvalues) @ v.T)) < 1e-8

    def test_rejects_asymmetric(self):
        h = np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]])
        with pytest.raises(ValidationError):
            eigendecompose(h)

    @pytest.mark.parametrize("h,message", [
        ([[0.0, 1j], [-1j, 0.0]], "H must be real"),
        ([[np.nan, 1.0], [1.0, 0.0]], "H must be finite"),
        (np.eye(2, dtype=bool), "H must be numeric"),
        ([["a", "b"], ["b", "a"]], "H must be numeric"),
        ([[1.0, 2.0, 3.0]], "H must be square"),
        (np.zeros((0, 0)), "positive dimension"),
    ])
    def test_malformed_h_rejected(self, h, message):
        with pytest.raises(ValidationError, match=message):
            eigendecompose(h)

    def test_non_orthonormal_eigenvectors_rejected(self, monkeypatch):
        eigh = np.linalg.eigh

        def skewed(h):
            evals, evecs = eigh(h)
            return evals, evecs * (1.0 + 1e-6)

        monkeypatch.setattr(np.linalg, "eigh", skewed)
        with pytest.raises(NumericalError, match="invariants"):
            eigendecompose(build_tb_hamiltonian(ChainSpec(5, 6.5, 0.1, 0.5)))

    def test_deterministic_signs_in_degenerate_subspace(self):
        h = build_tb_hamiltonian(ChainSpec(5, 6.5, 0.0, 0.5))
        a = eigendecompose(h).eigenvectors
        b = eigendecompose(h).eigenvectors
        assert np.array_equal(a, b)


class TestClassifyModes:
    def test_dimer_limit(self):
        spectrum = eigendecompose(build_tb_hamiltonian(ChainSpec(5, 6.5, 0.0, 0.5)))
        cls = classify_modes(spectrum, 6.5)
        assert cls.fsr_edge_edge == pytest.approx(0.0, abs=1e-12)
        assert cls.fsr_edge_bulk == pytest.approx(0.5, abs=1e-9)
        assert cls.phase_tag == PHASE_TOPOLOGICAL
        assert cls.labels.tolist().count(LABEL_EDGE) == 2
        assert cls.labels.tolist().count(LABEL_BULK_LOWER) == 4
        assert cls.labels.tolist().count(LABEL_BULK_UPPER) == 4

    def test_uniform_chain_is_normal(self):
        spectrum = eigendecompose(build_tb_hamiltonian(ChainSpec(5, 6.5, 0.5, 0.5)))
        cls = classify_modes(spectrum, 6.5)
        ratio = cls.fsr_edge_edge / cls.fsr_edge_bulk
        assert 0.5 <= ratio <= 2.0
        assert cls.phase_tag == PHASE_NORMAL

    def test_dimerized_trivial_chain(self):
        spectrum = eigendecompose(build_tb_hamiltonian(ChainSpec(5, 6.5, 1.0, 0.5)))
        cls = classify_modes(spectrum, 6.5)
        assert cls.fsr_edge_edge > 2.0 * cls.fsr_edge_bulk
        assert cls.phase_tag == PHASE_TRIVIAL

    def test_too_small_spectrum_rejected(self):
        spectrum = eigendecompose(np.array([[6.5, 0.5], [0.5, 6.5]]))
        with pytest.raises(ValidationError):
            classify_modes(spectrum, 6.5)

    @pytest.mark.parametrize("eps_ref", [math.nan, math.inf, -math.inf])
    def test_non_finite_reference_rejected(self, eps_ref):
        spectrum = eigendecompose(build_tb_hamiltonian(ChainSpec(5, 6.5, 0.1, 0.5)))
        with pytest.raises(ValidationError, match="eps_ref must be finite"):
            classify_modes(spectrum, eps_ref)

    def test_invariant_under_common_shift(self):
        spectrum = eigendecompose(build_tb_hamiltonian(ChainSpec(5, 6.5, 0.3, 0.5)))
        shifted = eigendecompose(
            build_tb_hamiltonian(ChainSpec(5, 8.2, 0.3, 0.5)))
        a = classify_modes(spectrum, 6.5)
        b = classify_modes(shifted, 8.2)
        assert np.array_equal(a.labels, b.labels)
        assert a.fsr_edge_edge == pytest.approx(b.fsr_edge_edge, abs=1e-12)
        assert a.fsr_edge_bulk == pytest.approx(b.fsr_edge_bulk, abs=1e-12)
        assert a.phase_tag == b.phase_tag

    def test_per_side_gaps_reported(self):
        spectrum = eigendecompose(build_tb_hamiltonian(ChainSpec(5, 6.5, 0.2, 0.5)))
        cls = classify_modes(spectrum, 6.5)
        assert cls.fsr_edge_bulk == max(cls.fsr_edge_bulk_lower,
                                        cls.fsr_edge_bulk_upper)
        assert cls.fsr_edge_bulk_lower >= 0
        assert cls.fsr_edge_bulk_upper >= 0


class TestSweep:
    def test_single_infinite_point(self):
        sweep = sweep_coupling(default_circuit(), [math.inf])
        assert sweep.lv_nH.tolist() == [math.inf] and sweep.eigenvalues.shape == (1, 10)
        assert sweep.classification.fsr_edge_edge[0] == pytest.approx(0.0, abs=1e-9)
        assert sweep.classification.phase_tag.tolist() == [PHASE_TOPOLOGICAL]

    def test_mean_frequency_rises_as_lv_drops(self):
        sweep = sweep_coupling(default_circuit(), [80.0, 40.0, 20.0, 10.0])
        assert np.all(np.diff(np.mean(sweep.eigenvalues, axis=1)) > 0)

    def test_crossing_near_designed_balance_point(self):
        grid = np.arange(5.0, 100.0 + 1e-9, 0.5)
        sweep = sweep_coupling(default_circuit(), grid)
        crossing = find_fsr_crossing(sweep)
        assert crossing is not None
        assert abs(crossing - 22.0) <= 0.5

    @pytest.mark.parametrize("diffs,expected", [
        ([0.3, 0.0, -0.2, -0.4], 20.0),   # exactly 0 at an inner point
        ([0.3, 0.2, 0.1, 0.0], 40.0),     # exactly 0 at the last point
        ([0.0, 0.0, 0.1, 0.2], 10.0),     # the first zero wins
        ([0.3, 0.2, 0.1, 0.05], None),
    ])
    def test_crossing_where_the_fsr_difference_is_zero(self, diffs, expected):
        # find_fsr_crossing reads only lv_nH and the two FSRs of the sweep
        sweep = SimpleNamespace(lv_nH=np.array([10.0, 20.0, 30.0, 40.0]),
                                classification=SimpleNamespace(
                                    fsr_edge_bulk=1.0 + np.array(diffs), fsr_edge_edge=np.ones(4)))
        assert find_fsr_crossing(sweep) == expected

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            sweep_coupling(default_circuit(), [])

    def test_nonpositive_grid_rejected(self):
        with pytest.raises(ValidationError):
            sweep_coupling(default_circuit(), [10.0, -1.0])

    def test_cell_mask_applies_only_to_selected_cells(self):
        base = default_circuit(lv_nH=50.0)
        sweep = sweep_coupling(base, [10.0], cells=[2])
        full = map_circuit_to_tb(base.with_lv([50.0, 50.0, 10.0, 50.0, 50.0]))
        expected = eigendecompose(build_tb_hamiltonian(full)).eigenvalues
        assert np.allclose(sweep.eigenvalues[0], expected, rtol=0, atol=1e-12)

    def test_bad_cell_mask_rejected(self):
        with pytest.raises(ValidationError):
            sweep_coupling(default_circuit(), [10.0], cells=[7])
        with pytest.raises(ValidationError):
            sweep_coupling(default_circuit(), [10.0], cells=[])

    def test_mode_continuity_scales_with_grid_step(self):
        def max_jump(step):
            grid = np.arange(10.0, 40.0 + 1e-9, step)
            sweep = sweep_coupling(default_circuit(), grid)
            return float(np.max(np.abs(np.diff(sweep.eigenvalues, axis=0))))

        coarse = max_jump(0.5)
        fine = max_jump(0.25)
        assert coarse < 0.05
        assert fine < 0.75 * coarse

    def test_fsr_trends_through_transition(self):
        # decreasing lv grows the edge splitting and shrinks the edge-bulk gap
        grid = np.arange(8.0, 60.0 + 1e-9, 1.0)
        sweep = sweep_coupling(default_circuit(), grid)
        assert np.all(np.diff(sweep.classification.fsr_edge_edge) <= 1e-12)
        assert np.all(np.diff(sweep.classification.fsr_edge_bulk) >= -1e-12)


class TestNormalizedSpectrum:
    def test_uniform_chain_symmetric_about_one(self):
        sweep = sweep_coupling(default_circuit(), [60.0, 25.0, 10.0])
        for _, scaled in normalized_spectrum(default_circuit(), sweep):
            assert np.max(np.abs((scaled - 1.0) + (scaled[::-1] - 1.0))) < 1e-6

    def test_dimer_limit_values(self):
        sweep = sweep_coupling(default_circuit(), [math.inf])
        _, scaled = normalized_spectrum(default_circuit(), sweep)[0]
        chain = map_circuit_to_tb(default_circuit(lv_nH=math.inf))
        ratio = chain.w[0] / chain.eps[0]
        expected = np.sort(np.concatenate([
            np.full(4, 1.0 - ratio), [1.0, 1.0], np.full(4, 1.0 + ratio)]))
        assert np.allclose(scaled, expected, atol=1e-12)

    def test_onsite_disorder_bounds_asymmetry(self):
        rng = np.random.default_rng(11)
        delta = 0.01
        worst = 0.0
        for _ in range(20):
            eps = 6.5 * (1.0 + delta * rng.uniform(-1, 1, 10))
            chain = ChainSpec(5, eps, 0.2, 0.5)
            evals = np.sort(np.linalg.eigvalsh(build_tb_hamiltonian(chain)))
            scaled = evals / float(np.mean(chain.eps))
            asym = np.max(np.abs((scaled - 1.0) + (scaled[::-1] - 1.0)))
            worst = max(worst, asym)
        assert 0.0 < worst < 3.0 * delta


def test_sweep_csv_layout(tmp_path):
    sweep = sweep_coupling(default_circuit(), [30.0, 15.0])
    modes = tmp_path / "modes.csv"
    summary = tmp_path / "summary.csv"
    write_sweep_csv(sweep, modes, summary)
    lines = modes.read_text().splitlines()
    assert lines[0] == "lv_nH,mode_index,freq_GHz,label"
    assert len(lines) == 1 + 2 * 10
    slines = summary.read_text().splitlines()
    assert slines[0] == "lv_nH,fsr_edge_bulk_GHz,fsr_edge_edge_GHz,phase_tag"
    assert len(slines) == 3
    assert slines[1].startswith("30,")


def test_empty_sweep_csv_has_headers_only(tmp_path):
    sweep = sweep_coupling(default_circuit(), [30.0])
    empty = CouplingSweep(sweep.lv_nH[:0], sweep.eigenvalues[:0],
                          ModeClassification(*(field[:0] for field in sweep.classification)))
    write_sweep_csv(empty, tmp_path / "modes.csv", tmp_path / "summary.csv")
    assert (tmp_path / "modes.csv").read_text() == "lv_nH,mode_index,freq_GHz,label\n"
    assert (tmp_path / "summary.csv").read_text() == \
        "lv_nH,fsr_edge_bulk_GHz,fsr_edge_edge_GHz,phase_tag\n"


def assert_same_row(evals, classes, k, spectrum, expected):
    """Row ``k`` of a sweep's eigenvalues and classification agrees bit for
    bit with one point's spectrum and ``classify_modes``, field by field."""
    assert evals[k].shape == spectrum.eigenvalues.shape
    assert evals[k].tobytes() == spectrum.eigenvalues.tobytes()
    for name, column, value in zip(ModeClassification._fields, classes, expected):
        got, want = np.asarray(column[k]), np.asarray(value)
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes()), name


def disordered_circuit(n_cells, seed, pinched=()):
    """A circuit with spread capacitances; the cells in ``pinched`` have lv = inf."""
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, 3 * n_cells + 1)
    lv = np.full(n_cells, 30.0)
    lv[list(pinched)] = math.inf
    return CircuitSpec(n_cells, 660.0 * (1 + 0.05 * u[:2 * n_cells]), 1.0, lv,
                       30.0 * (1 + 0.05 * u[2 * n_cells:]))


class TestSweepBlocks:
    """Sweep points and gated circuits are mapped, solved and classified in
    blocks; each point must equal the per-point public chain bit for bit."""

    GRID = [math.inf, 5.0, 22.0, math.inf, 100.0, 21.5]

    @pytest.mark.parametrize("n_cells", [2, 5, 50])
    @pytest.mark.parametrize("mask", ["all", "first", "last-and-first"])
    @pytest.mark.parametrize("block_entries", [None, 250])
    def test_points_match_per_point_chain(self, monkeypatch, n_cells, mask, block_entries):
        if block_entries is not None:  # blocks of a few points, so that blocks have seams
            monkeypatch.setattr(spec_mod, "_BLOCK_ENTRIES", block_entries)
        cells = {"all": None, "first": [0], "last-and-first": [n_cells - 1, 0]}[mask]
        circuit = disordered_circuit(n_cells, n_cells, pinched=[n_cells // 2])
        sweep = sweep_coupling(circuit, self.GRID, cells=cells)
        expected = sweep_points(circuit, self.GRID, cells)
        assert sweep.lv_nH.tolist() == [x[0] for x in expected]
        assert sweep.eigenvalues.shape == (len(self.GRID), circuit.n_sites)
        for k, (_, _, spectrum, cls) in enumerate(expected):
            assert_same_row(sweep.eigenvalues, sweep.classification, k, spectrum, cls)

    def test_one_cell_chain_has_too_few_modes(self):
        circuit = disordered_circuit(1, 1)
        with pytest.raises(ValidationError, match="n_cells must be >= 2 to classify modes, got 2 modes") as err:
            sweep_coupling(circuit, self.GRID)
        with pytest.raises(ValidationError, match=str(err.value)):
            sweep_points(circuit, self.GRID)

    @pytest.mark.parametrize("block_entries", [None, 250])
    def test_gated_circuits_match_per_point_chain(self, monkeypatch, block_entries):
        if block_entries is not None:
            monkeypatch.setattr(spec_mod, "_BLOCK_ENTRIES", block_entries)
        circuit = disordered_circuit(5, 3)
        model = GateModel(5, v_p=0.4, v_o=1.8, l_min=9.0, i_star=1.0)
        settings = list(joint_gate_settings(model, 11)) + [
            [0.4, 1.8, 0.4, 1.8, 0.4], [1.8, 0.4, 1.8, 0.4, 1.8], [0.4, 1.0, 1.8, 1.0, 0.4]]
        gated = [apply_gate_setting(circuit, model, v) for v in settings]
        assert sum(math.isinf(x) for g in gated for x in g.lv) >= 10  # pinched junctions
        evals, classes = spec_mod._sweep_table(circuit, np.array([g.lv for g in gated]))
        assert evals.shape == (len(gated), circuit.n_sites)
        for k, g in enumerate(gated):
            assert_same_row(evals, classes, k, *classify_point(g)[1:])

    def test_one_skewed_point_fails_the_block(self, monkeypatch):
        eigh = np.linalg.eigh
        grid = np.linspace(10.0, 40.0, 8)

        def skewed(h):
            evals, evecs = eigh(h)
            evecs[3, :, 1] += 1e-6 * evecs[3, :, 0]
            return evals, evecs

        sweep_coupling(default_circuit(), grid)
        monkeypatch.setattr(np.linalg, "eigh", skewed)
        with pytest.raises(NumericalError, match="invariants: ortho=1.000e-06"):
            sweep_coupling(default_circuit(), grid)

    def test_a_nan_eigenpair_fails_the_block(self, monkeypatch):
        # sweep points are built from the solved block unchecked; a NaN must
        # not slip through the guards, whose comparisons it makes false
        eigh = np.linalg.eigh

        def nan_pair(h):
            evals, evecs = eigh(h)
            evals[2, 0] = math.nan
            return evals, evecs

        monkeypatch.setattr(np.linalg, "eigh", nan_pair)
        with pytest.raises(NumericalError, match=r"invariants: ortho=\S+, recon=nan$"):
            sweep_coupling(default_circuit(), np.linspace(10.0, 40.0, 8))

    def test_mapped_overflow_is_numerical_error(self, capsys, tmp_path):
        # c0 = l0 = cw = 1e-200: L_T C_T underflows to 0, which the mapping
        # refuses before it divides by it (no divide-by-zero warning)
        circuit = default_circuit(c0_fF=1e-200, l0_nH=1e-200, cw_fF=1e-200)
        message = "circuit mapping failed: L_T * C_T underflows to 0"
        with pytest.raises(NumericalError, match=re.escape(message)):
            sweep_coupling(circuit, np.arange(5.0, 100.01, 0.5))
        spec = f"circuit={json.dumps(circuit.to_dict())}"
        for argv in (["sweep", "--config", CONFIG_DIR + "/sweep_default.json"], ["spectrum"]):
            code = main([*argv, "--set", spec, "--out-dir", str(tmp_path / "out")])
            assert code == 2
            assert capsys.readouterr().err == f"numerical failure: {message}\n"
            assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("command", ["spectrum", "sweep"])
    @pytest.mark.parametrize("overrides,message", [
        ({"c0_fF": 1e200, "l0_nH": 1e200, "cw_fF": 1e200}, "L_T * C_T overflows"),
        ({"l0_nH": 1e-310}, "1/L0 + 1/Lv overflows"),
    ], ids=["1e200", "1e-310"])
    def test_mapped_range_end_exits_2_without_a_warning(self, capsys, tmp_path, command,
                                                        overrides, message):
        # With c0 = l0 = cw = 1e200 at lv = inf, L_T * C_T overflows (the run
        # printed eps = 0 and exited 0); with l0 = 1e-310, 1/l0 overflows. A
        # numpy warning would be an error here (tier-1's filterwarnings)
        argv = [command, "--set", f"circuit={json.dumps(default_circuit(**overrides).to_dict())}",
                "--out-dir", str(tmp_path / "out")]
        if command == "sweep":  # the 1e200 circuit overflows at lv = inf only
            argv += ["--set", 'lv_grid={"values_nH": [10, "inf"]}']
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"numerical failure: circuit mapping failed: {message}\n")
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("command,config,points,summary", [
        ("sweep", "sweep_default", 191, "points=191 crossing_lv_nH="),
        ("gatesweep", "gatesweep_joint", 5, "settings=5 traces_written=5"),
        ("powersweep", "powersweep_trivial", 9, "points=9 phase_first="),
    ], ids=["sweep", "gatesweep", "powersweep"])
    def test_sweep_command_work_count(self, monkeypatch, capsys, tmp_path, command, config,
                                      points, summary):
        # blocks of two points: sweep goes through the public sweep_coupling
        # once, and every subcommand classifies its lv table with one
        # _sweep_table, which solves each block with one _spectra
        monkeypatch.setattr(spec_mod, "_BLOCK_ENTRIES", 250)
        calls = dict.fromkeys(("sweep_coupling", "_sweep_table", "_spectra"), 0)
        for name in calls:
            def counted(*args, _real=getattr(spec_mod, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(spec_mod, name, counted)
        code = main([command, "--config", f"{CONFIG_DIR}/{config}.json",
                     "--out-dir", str(tmp_path), "--label", "count"])
        assert code == 0 and capsys.readouterr().out.startswith(summary)
        assert calls == {"sweep_coupling": int(command == "sweep"), "_sweep_table": 1,
                         "_spectra": len(list(spec_mod._block_slices(points, 10)))}

    def test_point_count_does_not_grow_the_checks(self, monkeypatch):
        # each point of a block is built without re-reading its arrays: the
        # validating readers run as often for 191 points as for 2
        calls = []
        site_array = chain_mod._site_array

        def counted(*args, **kwargs):
            calls.append(args)
            return site_array(*args, **kwargs)

        monkeypatch.setattr(chain_mod, "_site_array", counted)
        counts = []
        for grid in ([10.0, 30.0], np.arange(5.0, 100.01, 0.5)):
            calls.clear()
            sweep_coupling(default_circuit(), grid)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("run", [
        lambda: eigendecompose(build_tb_hamiltonian(ChainSpec(5, 6.5, 0.1, 0.5))),
        lambda: sweep_coupling(default_circuit(), [10.0, 30.0]),
    ], ids=["eigendecompose", "sweep"])
    def test_solver_failure_is_numerical_error(self, monkeypatch, run):
        def unconverged(h):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", unconverged)
        with pytest.raises(NumericalError, match="did not converge"):
            run()

    @pytest.mark.parametrize("grid,cells,name,message", [
        ([], None, "lv grid", "^lv grid must not be empty$"),
        ([[10.0, 20.0]], None, "lv grid",
         r"^lv grid must be a flat list of values, got shape \(1, 2\)$"),
        ([5.0, 0.0], None, "lv grid", "^lv grid entries must be > 0, got 0.0$"),
        ([10.0], [7], "cells", r"^cells must be indices in 0..4, got \[7\]$"),
        ([10.0], [], "cells", "^cells must not be empty$"),
        ([10.0], np.array([[1, 2]]), "cells",
         r"^cells must be a list of cell indices, got \[\[1, 2\]\]$"),
    ])
    def test_input_errors_name_their_value(self, grid, cells, name, message):
        # the name lets the CLI restate the message under its config key
        with pytest.raises(ValidationError, match=message) as err:
            sweep_coupling(default_circuit(), grid, cells=cells)
        assert err.value.name == name
