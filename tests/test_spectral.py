import math

import numpy as np
import pytest

from sshchain import (
    ChainSpec,
    NumericalError,
    ValidationError,
    build_tb_hamiltonian,
    classify_modes,
    default_circuit,
    eigendecompose,
    find_fsr_crossing,
    map_circuit_to_tb,
    sweep_coupling,
)
from sshchain.spectral import (
    LABEL_BULK_LOWER,
    LABEL_BULK_UPPER,
    LABEL_EDGE,
    PHASE_NORMAL,
    PHASE_TOPOLOGICAL,
    PHASE_TRIVIAL,
    write_sweep_csv,
)

from oracles import dense_eigvals, normalized_spectrum


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
        assert cls.labels.count(LABEL_EDGE) == 2
        assert cls.labels.count(LABEL_BULK_LOWER) == 4
        assert cls.labels.count(LABEL_BULK_UPPER) == 4

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
        assert a.labels == b.labels
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
        assert len(sweep) == 1
        point = sweep[0]
        assert point.classification.fsr_edge_edge == pytest.approx(0.0, abs=1e-9)
        assert point.classification.phase_tag == PHASE_TOPOLOGICAL

    def test_mean_frequency_rises_as_lv_drops(self):
        sweep = sweep_coupling(default_circuit(), [80.0, 40.0, 20.0, 10.0])
        means = [float(np.mean(p.spectrum.eigenvalues)) for p in sweep]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_crossing_near_designed_balance_point(self):
        grid = np.arange(5.0, 100.0 + 1e-9, 0.5)
        sweep = sweep_coupling(default_circuit(), grid)
        crossing = find_fsr_crossing(sweep)
        assert crossing is not None
        assert abs(crossing - 22.0) <= 0.5

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            sweep_coupling(default_circuit(), [])

    def test_nonpositive_grid_rejected(self):
        with pytest.raises(ValidationError):
            sweep_coupling(default_circuit(), [10.0, -1.0])

    def test_cell_mask_applies_only_to_selected_cells(self):
        base = default_circuit(lv_nH=50.0)
        sweep = sweep_coupling(base, [10.0], cells=[2])
        chain = sweep[0].chain
        full = map_circuit_to_tb(base.with_lv([50.0, 50.0, 10.0, 50.0, 50.0]))
        assert np.allclose(chain.v, full.v)

    def test_bad_cell_mask_rejected(self):
        with pytest.raises(ValidationError):
            sweep_coupling(default_circuit(), [10.0], cells=[7])
        with pytest.raises(ValidationError):
            sweep_coupling(default_circuit(), [10.0], cells=[])

    def test_mode_continuity_scales_with_grid_step(self):
        def max_jump(step):
            grid = np.arange(10.0, 40.0 + 1e-9, step)
            sweep = sweep_coupling(default_circuit(), grid)
            evals = np.array([p.spectrum.eigenvalues for p in sweep])
            return float(np.max(np.abs(np.diff(evals, axis=0))))

        coarse = max_jump(0.5)
        fine = max_jump(0.25)
        assert coarse < 0.05
        assert fine < 0.75 * coarse

    def test_fsr_trends_through_transition(self):
        # decreasing lv grows the edge splitting and shrinks the edge-bulk gap
        grid = np.arange(8.0, 60.0 + 1e-9, 1.0)
        sweep = sweep_coupling(default_circuit(), grid)
        ee = [p.classification.fsr_edge_edge for p in sweep]
        eb = [p.classification.fsr_edge_bulk for p in sweep]
        assert all(later <= earlier + 1e-12 for earlier, later in zip(ee, ee[1:]))
        assert all(later >= earlier - 1e-12 for earlier, later in zip(eb, eb[1:]))


class TestNormalizedSpectrum:
    def test_uniform_chain_symmetric_about_one(self):
        sweep = sweep_coupling(default_circuit(), [60.0, 25.0, 10.0])
        for _, scaled in normalized_spectrum(sweep):
            assert np.max(np.abs((scaled - 1.0) + (scaled[::-1] - 1.0))) < 1e-6

    def test_dimer_limit_values(self):
        sweep = sweep_coupling(default_circuit(), [math.inf])
        _, scaled = normalized_spectrum(sweep)[0]
        chain = sweep[0].chain
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
