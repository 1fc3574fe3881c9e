import math

import numpy as np
import pytest

from sshchain import (
    CircuitSpec,
    FitProblem,
    ValidationError,
    default_circuit,
    disorder_report,
    fit_circuit_params,
    map_circuit_to_tb,
    model_eigenfrequencies,
)
from sshchain import estimation
from sshchain.estimation import PARAM_FAMILIES, fit_problem_from_dict, write_fit_outputs

from oracles import dense_eigvals, least_squares_c0


class TestModelFrequencies:
    def test_matches_dense_oracle(self):
        circuit = default_circuit(lv_nH=30.0)
        chain = map_circuit_to_tb(circuit)
        from sshchain import build_tb_hamiltonian
        assert np.allclose(model_eigenfrequencies(circuit),
                           dense_eigvals(build_tb_hamiltonian(chain)), atol=1e-9)


class TestFitProblem:
    def test_targets_sorted_internally(self):
        circuit = default_circuit(lv_nH=30.0)
        freqs = model_eigenfrequencies(circuit)
        shuffled = freqs[::-1]
        problem = FitProblem(shuffled, circuit)
        assert np.all(np.diff(problem.target_freqs) >= 0)

    def test_target_count_enforced(self):
        with pytest.raises(ValidationError):
            FitProblem(np.ones(7), default_circuit())
        with pytest.raises(ValidationError, match="numeric"):
            FitProblem(["a"] * 10, default_circuit())

    def test_bounds_must_contain_start(self):
        circuit = default_circuit(lv_nH=30.0)
        freqs = model_eigenfrequencies(circuit)
        with pytest.raises(ValidationError):
            FitProblem(freqs, circuit, bounds={"c0": (100.0, 200.0)})
        with pytest.raises(ValidationError):  # an empty box
            FitProblem(freqs, circuit, bounds={"c0": (660.0, 660.0)})
        with pytest.raises(ValidationError, match="c0 bounds"):
            FitProblem(freqs, circuit, bounds={"c0": ("low", 1000.0)})

    def test_bounds_on_fixed_entries_not_checked(self):
        circuit = default_circuit(lv_nH=30.0)
        freqs = model_eigenfrequencies(circuit)
        lo = np.where(np.arange(10) % 2 == 0, 600.0, 700.0)  # odd entries start below lo
        FitProblem(freqs, circuit, free={"c0": [True, False] * 5},
                   bounds={"c0": (lo, np.full(10, 720.0))})
        FitProblem(freqs, circuit, free={"c0": False}, bounds={"c0": (800.0, 700.0)})
        with pytest.raises(ValidationError, match="start c0"):
            FitProblem(freqs, circuit, free={"c0": [False, True] * 5},
                       bounds={"c0": (lo, np.full(10, 720.0))})

    def test_unknown_families_rejected(self):
        circuit = default_circuit(lv_nH=30.0)
        freqs = model_eigenfrequencies(circuit)
        with pytest.raises(ValidationError):
            FitProblem(freqs, circuit, free={"c9": True})
        with pytest.raises(ValidationError):
            FitProblem(freqs, circuit, bounds={"c9": (1.0, 10.0)})


class TestFit:
    def test_fixed_point(self):
        circuit = default_circuit(lv_nH=30.0)
        problem = FitProblem(model_eigenfrequencies(circuit), circuit)
        result = fit_circuit_params(problem)
        assert result.residual_rms_kHz < 1e-3
        assert result.converged

    # criterion-7 start points; (8, 5) needs a sub-kHz stop and (60, 1)
    # needs a jittered start to leave a ~20 MHz secondary minimum
    @pytest.mark.parametrize("lv_nH, case", [(30.0, 0), (30.0, 4), (30.0, 12),
                                             (8.0, 5), (60.0, 1)])
    def test_round_trip_recovers_uniform_c0(self, lv_nH, case):
        truth = default_circuit(lv_nH=lv_nH)
        targets = model_eigenfrequencies(truth)
        rng = np.random.default_rng([77, case])
        start = CircuitSpec(
            5, truth.c0 * (1 + 0.05 * rng.uniform(-1, 1, 10)),
            truth.l0, truth.lv, truth.cw)
        problem = FitProblem(targets, start,
                             free={"c0": True, "l0": False,
                                   "cw": False, "lv": False})
        result = fit_circuit_params(problem, max_restarts=5,
                                    target_rms_GHz=5e-7, multi_start=8)
        assert result.residual_rms_kHz < 1.0
        assert result.disorder_report_pct["c0"] < 0.1

    def test_full_freedom_reaches_khz_residual(self):
        truth = default_circuit(lv_nH=30.0)
        targets = model_eigenfrequencies(truth)
        rng = np.random.default_rng(5)

        def perturb(arr):
            return arr * (1 + 0.05 * rng.uniform(-1, 1, arr.shape))

        start = CircuitSpec(5, perturb(truth.c0), perturb(truth.l0),
                            perturb(np.array(truth.lv)), perturb(truth.cw))
        result = fit_circuit_params(FitProblem(targets, start),
                                    max_restarts=10, multi_start=4)
        assert result.residual_rms_kHz < 1.0

    def test_dimer_limit_frequency_list(self):
        # band centers at 5.70 / 6.40 with the mid-gap pair at 6.04, fitted
        # from design-like start values
        targets = np.array([5.70] * 4 + [6.04] * 2 + [6.40] * 4)
        start = CircuitSpec(5, 610.0, 1.0, math.inf, 80.0)
        result = fit_circuit_params(FitProblem(targets, start),
                                    max_restarts=8, multi_start=4)
        chain = map_circuit_to_tb(result.best)
        assert result.residual_rms_kHz < 1.0
        assert 6.0 < float(np.mean(chain.eps)) < 6.1
        assert 0.32 < float(np.mean(chain.w)) < 0.38

    def test_objective_invariant_under_target_order(self):
        truth = default_circuit(lv_nH=30.0)
        targets = model_eigenfrequencies(truth)
        rng = np.random.default_rng(3)
        start = CircuitSpec(5, truth.c0 * (1 + 0.03 * rng.uniform(-1, 1, 10)),
                            truth.l0, truth.lv, truth.cw)
        mask = {"c0": True, "l0": False, "cw": False, "lv": False}
        a = fit_circuit_params(FitProblem(targets, start, free=mask))
        b = fit_circuit_params(FitProblem(targets[::-1], start, free=mask))
        assert a.residual_rms_kHz == b.residual_rms_kHz
        assert np.array_equal(a.best.c0, b.best.c0)

    def test_masked_parameters_bit_identical(self):
        truth = default_circuit(lv_nH=30.0)
        targets = model_eigenfrequencies(truth)
        rng = np.random.default_rng(8)
        start = CircuitSpec(
            5, truth.c0 * (1 + 0.04 * rng.uniform(-1, 1, 10)),
            truth.l0 * (1 + 0.02 * rng.uniform(-1, 1, 10)),
            truth.lv, truth.cw)
        problem = FitProblem(targets, start,
                             free={"c0": True, "l0": False,
                                   "cw": False, "lv": False})
        result = fit_circuit_params(problem)
        assert np.array_equal(result.best.l0, start.l0)
        assert np.array_equal(result.best.cw, start.cw)
        assert np.array_equal(result.best.lv, start.lv)

    def test_per_entry_masks_keep_their_offsets(self):
        # alternate c0 entries and every finite lv entry free, one junction
        # pinched: an offset slip in the flat vector moves a fixed entry
        truth = default_circuit(lv_nH=30.0).with_lv([30.0, math.inf, 25.0, 30.0, 35.0])
        rng = np.random.default_rng(9)
        start = CircuitSpec(5, truth.c0 * (1 + 0.04 * rng.uniform(-1, 1, 10)), truth.l0,
                            truth.lv * (1 + 0.1 * rng.uniform(-1, 1, 5)), truth.cw)
        c0_lo, c0_hi = start.c0 * 0.97, start.c0 * 1.03
        problem = FitProblem(model_eigenfrequencies(truth), start,
                             free={"c0": [True, False] * 5, "l0": False,
                                   "cw": False, "lv": True},
                             bounds={"c0": (c0_lo, c0_hi), "lv": (20.0, 40.0)})
        best = fit_circuit_params(problem).best
        assert np.array_equal(best.c0[1::2], start.c0[1::2])
        assert np.array_equal(best.l0, start.l0)
        assert np.array_equal(best.cw, start.cw)
        assert best.lv[1] == math.inf
        assert np.all((c0_lo[0::2] <= best.c0[0::2]) & (best.c0[0::2] <= c0_hi[0::2]))
        finite_lv = best.lv[[0, 2, 3, 4]]
        assert np.all((20.0 <= finite_lv) & (finite_lv <= 40.0))
        assert not np.array_equal(best.c0[0::2], start.c0[0::2])
        assert not np.array_equal(finite_lv, start.lv[[0, 2, 3, 4]])

    def test_pinched_lv_never_optimized(self):
        truth = default_circuit()  # lv all infinite
        targets = model_eigenfrequencies(truth)
        result = fit_circuit_params(FitProblem(targets, truth))
        assert np.all(np.isinf(result.best.lv))
        assert "lv" not in result.disorder_report_pct

    def test_bounds_clamp_and_flag(self):
        truth = default_circuit(lv_nH=30.0)
        targets = model_eigenfrequencies(truth)
        start = CircuitSpec(5, truth.c0 * 1.04, truth.l0, truth.lv, truth.cw)
        problem = FitProblem(
            targets, start,
            free={"c0": True, "l0": False, "cw": False, "lv": False},
            bounds={"c0": (truth.c0[0] * 1.02, truth.c0[0] * 1.10)})
        result = fit_circuit_params(problem, max_restarts=2)
        assert result.clamped > 0
        assert np.all(result.best.c0 >= truth.c0[0] * 1.02 - 1e-9)
        assert np.all(result.best.c0 <= truth.c0[0] * 1.10 + 1e-9)

    def test_empty_free_mask_rejected(self):
        truth = default_circuit()  # pinched lv cannot vary either
        with pytest.raises(ValidationError, match="^free selects no parameters to fit$"):
            FitProblem(model_eigenfrequencies(truth), truth,
                       free={"c0": False, "l0": False, "cw": False, "lv": True})


class TestDisorderReport:
    def test_uniform_spec_reports_zero(self):
        report = disorder_report(default_circuit(lv_nH=30.0))
        assert set(report) == {"c0", "l0", "cw", "lv"}
        for value in report.values():
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_single_perturbed_entry(self):
        c0 = np.full(10, 660.0)
        c0[3] *= 1.01
        spec = CircuitSpec(5, c0, 1.0, 30.0, 30.0)
        # population stddev of one 1% outlier among ten entries: ~0.3%
        expected = 100.0 * np.std(c0) / np.mean(c0)
        assert disorder_report(spec)["c0"] == pytest.approx(expected)
        assert expected == pytest.approx(0.3, abs=0.005)

    def test_infinite_lv_family_omitted(self):
        spec = default_circuit()
        assert "lv" not in disorder_report(spec)
        mixed = spec.with_lv([math.inf, 20.0, 25.0, math.inf, 30.0])
        report = disorder_report(mixed)
        finite = np.array([20.0, 25.0, 30.0])
        assert report["lv"] == pytest.approx(100.0 * np.std(finite) / np.mean(finite))


class TestFitIO:
    def test_problem_from_dict(self):
        circuit = default_circuit(lv_nH=30.0)
        data = {
            "targets_GHz": list(model_eigenfrequencies(circuit)),
            "start": circuit.to_dict(),
            "free": {"c0": True, "l0": False, "cw": False, "lv": False},
        }
        problem = fit_problem_from_dict(data)
        assert problem.start.n_cells == 5
        with pytest.raises(ValidationError):
            fit_problem_from_dict({**data, "bogus": 1})
        with pytest.raises(ValidationError):
            fit_problem_from_dict({"start": circuit.to_dict()})

    def test_outputs_layout(self, tmp_path):
        circuit = default_circuit(lv_nH=30.0)
        result = fit_circuit_params(
            FitProblem(model_eigenfrequencies(circuit), circuit))
        write_fit_outputs(result, tmp_path / "fit.json",
                          tmp_path / "sites.csv", tmp_path / "couplings.csv")
        assert '"residual_rms_kHz"' in (tmp_path / "fit.json").read_text()
        sites = (tmp_path / "sites.csv").read_text().splitlines()
        assert sites[0] == "site_index,c0_fF,l0_nH"
        assert len(sites) == 11
        couplings = (tmp_path / "couplings.csv").read_text().splitlines()
        assert couplings[0] == "coupling_index,cw_fF,lv_nH"
        assert len(couplings) == 7
        assert couplings[-1].endswith(",")  # no lv entry beyond the last cell


def _criterion7_start(lv_nH, case):
    """Criterion-7 start: the design circuit with c0 jittered by up to 5%."""
    truth = default_circuit(lv_nH=lv_nH)
    rng = np.random.default_rng([77, case])
    return truth, CircuitSpec(5, truth.c0 * (1 + 0.05 * rng.uniform(-1, 1, 10)),
                              truth.l0, truth.lv, truth.cw)


def _central_differences(spec, step=1e-5):
    """d lambda / d ln p by the fourth-order central stencil; 0 for a pinched lv.

    A second-order stencil is not enough: near the criterion-7 starts' closest
    pairs (gaps of ~3 MHz) its h^2 error is ~4e-8 GHz at any useful step.
    """
    n = spec.n_cells
    flat = np.concatenate([getattr(spec, name) for name in PARAM_FAMILIES])
    columns = []
    for j in range(flat.size):
        if not np.isfinite(flat[j]):
            columns.append(np.zeros(2 * n))
            continue
        values = {}
        for k in (-2, -1, 1, 2):
            moved = flat.copy()
            moved[j] *= math.exp(k * step)
            values[k] = model_eigenfrequencies(CircuitSpec(
                n, moved[:2 * n], moved[2 * n:4 * n], moved[5 * n + 1:],
                moved[4 * n:5 * n + 1]))
        columns.append((8 * (values[1] - values[-1]) - (values[2] - values[-2]))
                       / (12 * step))
    return np.column_stack(columns)


def _analytic(spec):
    return estimation._eigenfrequency_jacobian(spec.c0, spec.l0, spec.lv, spec.cw)


def _dimer_problem():
    targets = np.array([5.70] * 4 + [6.04] * 2 + [6.40] * 4)
    return FitProblem(targets, CircuitSpec(5, 610.0, 1.0, math.inf, 80.0))


# GHz per unit of log-parameter; the derivatives themselves are up to 2.4 GHz
# and the stencil at step 1e-5 carries ~1e-10 GHz of roundoff
JACOBIAN_ATOL = 3e-9


class TestJacobian:
    @pytest.mark.parametrize("case", range(20))
    def test_criterion7_c0_columns_match_central_differences(self, case):
        _, start = _criterion7_start(30.0, case)
        c0_columns = slice(0, 10)  # the flat layout starts with c0
        np.testing.assert_allclose(_analytic(start)[:, c0_columns],
                                   _central_differences(start)[:, c0_columns],
                                   rtol=0, atol=JACOBIAN_ATOL)

    def test_full_freedom_with_a_pinched_junction_matches_central_differences(self):
        truth = default_circuit(lv_nH=30.0).with_lv([30.0, math.inf, 25.0, 30.0, 35.0])
        rng = np.random.default_rng(11)

        def perturb(arr):
            return arr * (1 + 0.05 * rng.uniform(-1, 1, arr.shape))

        spec = CircuitSpec(5, perturb(truth.c0), perturb(truth.l0),
                           perturb(np.array(truth.lv)), perturb(truth.cw))
        jac = _analytic(spec)
        assert jac.shape == (10, 31)
        assert np.all(jac[:, 26 + 1] == 0.0)  # lv[1] is pinched
        np.testing.assert_allclose(jac, _central_differences(spec), rtol=0, atol=JACOBIAN_ATOL)

    def test_crossing_has_no_analytic_jacobian(self):
        assert _analytic(_dimer_problem().start) is None

    def test_dimer_limit_takes_the_difference_fallback(self, monkeypatch):
        # targets and start are exactly degenerate, so the first Jacobian is
        # differenced; later points may have simple eigenvalues again
        calls, analytic = [], []
        differences, exact = estimation._forward_differences, estimation._eigenfrequency_jacobian

        def spy(*args):
            calls.append(args[1].copy())
            return differences(*args)

        def exact_spy(*args):
            jac = exact(*args)
            analytic.append(jac is not None)
            return jac

        monkeypatch.setattr(estimation, "_forward_differences", spy)
        monkeypatch.setattr(estimation, "_eigenfrequency_jacobian", exact_spy)
        runs = [fit_circuit_params(_dimer_problem(), multi_start=4) for _ in range(2)]
        # every Jacobian is one iteration, and the crossings are differenced
        assert len(analytic) == runs[0].iterations + runs[1].iterations
        assert len(calls) == analytic.count(False) > 0
        assert not analytic[0]
        a, b = runs
        assert (a.residual_rms_kHz, a.evaluations, a.iterations) == \
            (b.residual_rms_kHz, b.evaluations, b.iterations)
        for name in PARAM_FAMILIES:
            assert np.array_equal(getattr(a.best, name), getattr(b.best, name))

    def test_difference_steps_turn_back_at_the_upper_bound(self):
        x = np.array([0.0, 1.0])
        hi = np.array([1.0, 1.0])
        steps = []

        def fun(point):
            steps.append(point - x)
            return np.array([point @ point])

        jac = estimation._forward_differences(fun, x, -hi, hi)
        assert steps[1][0] > 0 and steps[2][1] < 0
        np.testing.assert_allclose(jac, [[0.0, 2.0]], atol=1e-7)

    # the bench's fit jobs; difference Jacobians cost 145-168 evaluations here
    @pytest.mark.parametrize("lv_nH", [8.0, 12.0, 30.0, 60.0])
    def test_criterion7_fit_evaluation_count(self, lv_nH, monkeypatch):
        def refuse(*args):
            raise AssertionError("difference Jacobian on a fit without crossings")

        monkeypatch.setattr(estimation, "_forward_differences", refuse)
        truth, start = _criterion7_start(lv_nH, 0)
        problem = FitProblem(model_eigenfrequencies(truth), start,
                             free={"c0": True, "l0": False, "cw": False, "lv": False})
        result = fit_circuit_params(problem, max_restarts=5, target_rms_GHz=5e-7,
                                    multi_start=8)
        assert result.residual_rms_kHz < 1.0
        assert result.evaluations <= 40


C0_FREE = {"c0": True, "l0": False, "cw": False, "lv": False}


class TestSolver:
    """The package's Levenberg-Marquardt solver, which replaced least_squares."""

    def test_criterion7_starts_match_least_squares(self):
        # One start each. Ten frequencies pin ten c0 only loosely: at
        # residuals of 0.008-0.12 kHz, least_squares lands 2.0e-5 to 5.0e-5
        # (relative) from the truth, the owned solver 2.2e-5 to 1.1e-4, and
        # the two at most 9.4e-5 apart.
        for case in range(20):
            truth, start = _criterion7_start(30.0, case)
            targets = model_eigenfrequencies(truth)
            result = fit_circuit_params(FitProblem(targets, start, free=C0_FREE))
            assert result.converged and result.residual_rms_kHz < 1.0
            np.testing.assert_allclose(result.best.c0, least_squares_c0(targets, start),
                                       rtol=2e-4, atol=0)

    def test_cap_stops_without_an_exception(self):
        def fun(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])  # Rosenbrock

        def jac_t(x):  # one row per parameter
            return np.array([[-20.0 * x[0], -1.0], [10.0, 0.0]])

        start = np.array([-1.2, 1.0])
        capped = estimation._levenberg_marquardt(fun, jac_t, start, -np.inf, np.inf,
                                                 1e-12, 1e-12, 5)
        assert (capped.status, capped.evaluations) == (0, 5)
        solved = estimation._levenberg_marquardt(fun, jac_t, start, -np.inf, np.inf,
                                                 1e-12, 1e-12, 500)
        assert solved.status > 0
        np.testing.assert_allclose(solved.x, [1.0, 1.0], atol=1e-6)

    def test_bound_holds_the_minimum_outside_the_box(self):
        def fun(x):
            return x - np.array([2.0, -0.5])

        solved = estimation._levenberg_marquardt(fun, lambda x: np.eye(2), np.zeros(2),
                                                 np.array([-1.0, -1.0]), np.array([1.0, 1.0]),
                                                 1e-10, 1e-10, 100)
        assert solved.status > 0
        assert solved.x[0] == 1.0  # projected onto the bound exactly
        assert solved.x[1] == pytest.approx(-0.5, abs=1e-9)
