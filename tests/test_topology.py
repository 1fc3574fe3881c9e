import math

import numpy as np
import pytest
import scipy.linalg

from sshchain import (
    ChainSpec,
    DegenerateMidgapError,
    DisorderConfig,
    FitUnsupportedError,
    GapClosingError,
    NumericalError,
    ValidationError,
    build_tb_hamiltonian,
    disorder_ensemble,
    eigendecompose,
    flatband,
    ipr,
    localization_length_fit,
    winding_number_k_space,
    winding_number_real_space,
)
from sshchain.topology import _draw_sample, write_ensemble_outputs

from oracles import (
    dense_eigvals,
    flatband_sign,
    open_chain_ipr,
    rswn_from_q,
    winding_integral,
)


def chain_h(n_cells, v, w, eps=6.5):
    return build_tb_hamiltonian(ChainSpec(n_cells, eps, v, w))


class TestFlatband:
    def test_isolated_dimers_give_involution(self):
        # eps * I + sigma_x per dimer: Q eigenvalues are exactly +-1
        h = chain_h(3, 0.8, 0.0)
        q = flatband(h, 6.5)
        assert np.allclose(np.sort(np.linalg.eigvalsh(q)), [-1] * 3 + [1] * 3)

    def test_dimerized_trivial_chain_is_block_diagonal(self):
        h = chain_h(4, 1.0, 0.0)
        q = flatband(h, 6.5)
        blocks = np.kron(np.eye(4), np.ones((2, 2)))
        assert np.max(np.abs(q * (1 - blocks))) < 1e-12

    def test_large_topological_chain_involution(self):
        h = chain_h(50, 0.05, 0.5)
        q = flatband(h, 6.5)
        assert np.max(np.abs(q @ q - np.eye(100))) < 1e-8

    def test_matches_matrix_sign_oracle(self):
        h = chain_h(10, 0.2, 0.5)
        q = flatband(h, 6.5)
        assert np.max(np.abs(q - flatband_sign(h, 6.5))) < 1e-8

    def test_chiral_block_off_diagonality(self):
        h = chain_h(12, 0.15, 0.5)
        q = flatband(h, 6.5)
        gamma = np.diag([1.0, -1.0] * 12)
        p_a = 0.5 * (np.eye(24) + gamma)
        p_b = np.eye(24) - p_a
        assert np.max(np.abs(q - (p_a @ q @ p_b + p_b @ q @ p_a))) < 1e-8

    def test_exact_zero_pair_split_by_chirality(self):
        # v = 0 leaves the two end sites at exactly the reference energy
        h = chain_h(5, 0.0, 0.5)
        q = flatband(h, 6.5)
        assert np.max(np.abs(q @ q - np.eye(10))) < 1e-12

    def test_more_than_two_zeros_rejected(self):
        h = chain_h(3, 0.0, [1.0, 0.0])
        with pytest.raises(DegenerateMidgapError) as err:
            flatband(h, 6.5)
        assert len(err.value.indices) == 4

    def test_single_zero_rejected(self):
        h = np.diag([6.5, 7.0, 6.0, 7.5])
        with pytest.raises(DegenerateMidgapError):
            flatband(h, 6.5)

    @pytest.mark.parametrize("func", [flatband, winding_number_real_space])
    @pytest.mark.parametrize("defect,message", [
        ("next-nearest", "real symmetric tridiagonal"),
        ("asymmetric", "real symmetric tridiagonal"),
        ("complex", "real"),
        ("nan", "finite"),
        ("nan-outside-bands", "finite"),
        ("boolean", "numeric"),
        ("empty", "positive even dimension"),
    ])
    def test_non_tridiagonal_rejected(self, func, defect, message):
        h = chain_h(4, 0.2, 0.5)
        if defect == "next-nearest":
            h[0, 2] = h[2, 0] = 0.01
        elif defect == "asymmetric":
            h[3, 2] += 1e-9
        elif defect == "complex":
            h = h + 1e-3j * (np.eye(8, k=1) - np.eye(8, k=-1))
        elif defect == "nan":
            h[3, 3] = np.nan
        elif defect == "nan-outside-bands":
            h[0, 5] = h[5, 0] = np.nan
        elif defect == "boolean":
            h = np.eye(8, dtype=bool)
        else:
            h = np.zeros((0, 0))
        with pytest.raises(ValidationError, match=message):
            func(h, 6.5)

    @pytest.mark.parametrize("func", [flatband, winding_number_real_space])
    @pytest.mark.parametrize("eps_ref", [math.nan, math.inf])
    def test_non_finite_reference_rejected(self, func, eps_ref):
        with pytest.raises(ValidationError, match="eps_ref must be finite"):
            func(chain_h(4, 0.2, 0.5), eps_ref)

    def test_non_orthonormal_eigenvectors_rejected(self, monkeypatch):
        solve = scipy.linalg.eigh_tridiagonal

        def skewed(diag, off, **kwargs):
            evals, evecs = solve(diag, off, **kwargs)
            return evals, evecs * (1.0 + 1e-6)

        monkeypatch.setattr("scipy.linalg.eigh_tridiagonal", skewed)
        with pytest.raises(NumericalError, match="orthonormal"):
            flatband(chain_h(5, 0.1, 0.5), 6.5)


class TestRealSpaceWinding:
    def test_quantization_at_large_n(self):
        topo = winding_number_real_space(chain_h(100, 0.1, 1.0), 6.5)
        triv = winding_number_real_space(chain_h(100, 2.0, 1.0), 6.5)
        assert abs(topo.nu - 1.0) < 0.05
        assert abs(triv.nu) < 0.05
        assert topo.method == "real-space"
        assert topo.chain_length == 100

    def test_frozen_values(self):
        assert winding_number_real_space(chain_h(100, 0.1, 1.0), 6.5).nu == \
            pytest.approx(0.979873, abs=1e-5)
        assert winding_number_real_space(chain_h(5, 0.1, 1.0), 6.5).nu == \
            pytest.approx(0.591483, abs=1e-5)

    def test_device_size_not_quantized(self):
        nu = winding_number_real_space(chain_h(5, 0.1, 1.0), 6.5).nu
        assert 0.5 < nu < 1.0
        assert min(abs(nu), abs(nu - 1.0)) > 0.05

    def test_converges_toward_k_space_value(self):
        for ratio, nu_k in ((0.1, 1.0), (2.0, 0.0)):
            errs = [abs(winding_number_real_space(
                chain_h(n, ratio * 0.5, 0.5), 6.5).nu - nu_k)
                for n in (20, 200)]
            assert errs[1] < errs[0]

    def test_matches_loop_trace_oracle(self):
        rng = np.random.default_rng(12)
        u = rng.uniform(-1.0, 1.0, size=(3, 24))
        disordered = build_tb_hamiltonian(ChainSpec(
            12, 6.5 + 0.02 * u[0], 0.2 * (1 + 0.3 * u[1, :12]),
            0.5 * (1 + 0.3 * u[2, :11])))
        for h in (chain_h(8, 0.12, 0.5), chain_h(11, 0.9, 0.5), disordered):
            nu = winding_number_real_space(h, 6.5).nu
            q = flatband_sign(h, 6.5)
            assert nu == pytest.approx(rswn_from_q(q), abs=1e-9)


class TestKSpaceWinding:
    @pytest.mark.parametrize("v,w,expected", [
        (0.25, 0.5, 1.0),
        (0.5, 0.25, 0.0),
        (0.0, 1.0, 1.0),
        (1.0, 0.0, 0.0),
    ])
    def test_reference_points(self, v, w, expected):
        result = winding_number_k_space(v, w)
        assert result.nu == expected
        assert result.method == "k-space"

    def test_gap_closing_rejected(self):
        with pytest.raises(GapClosingError):
            winding_number_k_space(0.5, 0.5)

    def test_negative_or_empty_hops_rejected(self):
        with pytest.raises(ValidationError):
            winding_number_k_space(-0.1, 0.5)
        with pytest.raises(ValidationError):
            winding_number_k_space(0.0, 0.0)
        for v, w in ((math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5), (0.1, math.inf)):
            with pytest.raises(ValidationError, match="finite"):
                winding_number_k_space(v, w)

    def test_agrees_with_sign_rule_for_random_pairs(self):
        rng = np.random.default_rng(2024)
        count = 0
        while count < 100:
            v, w = rng.uniform(0.0, 1.0, 2)
            if abs(v - w) <= 1e-3:
                continue
            count += 1
            assert winding_number_k_space(v, w).nu == (1.0 if v < w else 0.0)

    def test_agrees_with_adaptive_quadrature(self):
        for v, w in ((0.2, 0.9), (0.9, 0.2), (0.499, 0.5)):
            assert winding_number_k_space(v, w).nu == \
                pytest.approx(winding_integral(v, w), abs=1e-6)


class TestIpr:
    def test_delta_state(self):
        psi = np.zeros(10)
        psi[3] = 1.0
        assert ipr(psi) == pytest.approx(1.0)

    def test_uniform_state(self):
        assert ipr(np.full(10, 0.7)) == pytest.approx(0.1)

    def test_uniform_chain_matches_standing_wave_oracle(self):
        for n in (2, 5, 20):
            spectrum = eigendecompose(chain_h(n, 0.5, 0.5))
            for k in range(2 * n):
                value = ipr(spectrum.eigenvectors[:, k])
                assert abs(value - open_chain_ipr(2 * n)) < 1e-9

    def test_edge_mode_between_limits(self):
        spectrum = eigendecompose(chain_h(5, 0.25, 0.5))
        k = int(np.argmin(np.abs(spectrum.eigenvalues - 6.5)))
        value = ipr(spectrum.eigenvectors[:, k])
        assert 0.1 < value < 1.0
        assert value == pytest.approx(0.303197, abs=1e-5)

    def test_every_eigenvector_in_bounds(self):
        rng = np.random.default_rng(5)
        for n in (3, 5, 9):
            spec = ChainSpec(n, 6.5 + rng.normal(0, 0.05, 2 * n),
                             rng.uniform(0, 1, n), rng.uniform(0, 1, n - 1))
            spectrum = eigendecompose(build_tb_hamiltonian(spec))
            for k in range(2 * n):
                value = ipr(spectrum.eigenvectors[:, k])
                assert 1.0 / (2 * n) - 1e-12 <= value <= 1.0 + 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            ipr(np.zeros(6))

    def test_complex_state(self):
        assert ipr([1.0, 1j, -1.0, -1j]) == pytest.approx(0.25)


# states that are not finite numbers; complex amplitudes are allowed
BAD_STATES = [
    ([1.0, 0.5, np.nan, 0.0], "state must be finite"),
    ([1.0, np.inf, 0.5, 0.0], "state must be finite"),
    ([1.0, 0.5j, np.nan * 1j, 0.0], "state must be finite"),
    ([True, False, False, False], "state must be numeric"),
    (["a", "b", "c", "d"], "state must be numeric"),
    ([1j, True, 0.0, 0.0], "state must be numeric"),
    ([np.complex64(0.5j), np.bool_(True), 0.0, 0.0], "state must be numeric"),
    ([[1.0, 0.5], 0.5, 0.0], "state must be numeric"),
]


@pytest.mark.parametrize("state,message", BAD_STATES)
def test_ipr_rejects_malformed_state(state, message):
    with pytest.raises(ValidationError, match=message):
        ipr(state)


@pytest.mark.parametrize("state,message", BAD_STATES + [
    ([1.0, 0.0, 0.5j, 0.0, np.nan, 0.0, 0.125, 0.0], "state must be finite")])
def test_localization_fit_rejects_malformed_state(state, message):
    with pytest.raises(ValidationError, match=message):
        localization_length_fit(state, "A")


class TestLocalizationFit:
    def test_exact_exponential(self):
        cells = np.arange(1, 13)
        psi = np.zeros(24)
        psi[0::2] = np.exp(-cells / 2.0)
        assert localization_length_fit(psi, "A") == pytest.approx(2.0, abs=1e-6)

    def test_edge_mode_matches_theoretical_limit(self):
        spectrum = eigendecompose(chain_h(20, 0.1, 0.5))
        k = int(np.argmin(np.abs(spectrum.eigenvalues - 6.5)))
        xi = localization_length_fit(spectrum.eigenvectors[:, k], "A")
        limit = 1.0 / np.log(5.0)
        assert abs(xi - limit) / limit < 0.10

    def test_critical_chain_unreliable(self):
        spectrum = eigendecompose(chain_h(20, 0.5, 0.5))
        k = int(np.argmin(np.abs(spectrum.eigenvalues - 6.5)))
        try:
            xi = localization_length_fit(spectrum.eigenvectors[:, k], "A")
        except FitUnsupportedError:
            return
        assert xi > 20.0 / np.pi  # no meaningful decay inside the chain

    def test_too_few_points_rejected(self):
        psi = np.zeros(12)
        psi[0] = 1.0
        psi[2] = 0.1
        with pytest.raises(FitUnsupportedError):
            localization_length_fit(psi, "A")

    def test_growing_profile_rejected(self):
        cells = np.arange(1, 11)
        psi = np.zeros(20)
        psi[1::2] = np.exp(cells / 3.0)
        with pytest.raises(FitUnsupportedError):
            localization_length_fit(psi, "B")

    def test_complex_state_fits_its_modulus(self):
        cells = np.arange(1, 13)
        psi = np.zeros(24, dtype=complex)
        psi[0::2] = np.exp(-cells / 2.0) * np.exp(0.7j * cells)
        assert localization_length_fit(psi, "A") == pytest.approx(2.0, abs=1e-6)

    def test_bad_sublattice_rejected(self):
        with pytest.raises(ValidationError):
            localization_length_fit(np.ones(8), "C")


class TestDisorderEnsemble:
    def test_zero_strength_reproduces_base(self):
        base = ChainSpec(10, 6.5, 0.1, 0.5)
        config = DisorderConfig(strength=0.0, targets=("v", "w"), samples=5, seed=9)
        result = disorder_ensemble(base, config)
        reference = winding_number_real_space(build_tb_hamiltonian(base), 6.5).nu
        for sample in result.samples:
            assert sample.nu == pytest.approx(reference, abs=1e-12)
        assert result.std_nu == pytest.approx(0.0, abs=1e-15)
        assert result.rejections == 0

    def test_topological_mean_survives_disorder(self):
        base = ChainSpec(25, 6.5, 0.05, 0.5)
        config = DisorderConfig(strength=0.1, targets=("v", "w"), samples=50, seed=123)
        result = disorder_ensemble(base, config)
        assert result.mean_nu > 0.9

    def test_trivial_mean_stays_low(self):
        base = ChainSpec(25, 6.5, 1.0, 0.5)
        config = DisorderConfig(strength=0.1, targets=("v", "w"), samples=50, seed=123)
        result = disorder_ensemble(base, config)
        assert result.mean_nu < 0.1

    def test_samples_independent_of_evaluation_order(self):
        base = ChainSpec(20, 6.5, 0.1, 0.5)
        config = DisorderConfig(strength=0.08, targets=("v", "w", "eps"),
                                samples=16, seed=77)
        first = disorder_ensemble(base, config)
        reverse = [_draw_sample(base, config, k)
                   for k in reversed(range(config.samples))]
        assert first.samples == tuple(reversed(reverse))
        assert disorder_ensemble(base, config) == first

    def test_sample_matches_dense_oracles(self):
        base = ChainSpec(50, 6.5, 0.25, 0.5)
        config = DisorderConfig(strength=0.05, targets=("v", "w", "eps"),
                                samples=1, seed=21)
        sample = _draw_sample(base, config, 0)
        rng = np.random.default_rng([config.seed, 0])
        eps = base.eps * (1 + 0.05 * rng.uniform(-1, 1, 100))
        v = base.v * (1 + 0.05 * rng.uniform(-1, 1, 50))
        w = base.w * (1 + 0.05 * rng.uniform(-1, 1, 49))
        h = build_tb_hamiltonian(ChainSpec(50, eps, v, w))
        eps_ref = float(np.mean(eps))
        gap = float(np.min(np.abs(dense_eigvals(h) - eps_ref)))
        assert gap > 1e-3  # no zero modes: every state is split by sign
        assert sample.min_gap_GHz == pytest.approx(gap, abs=1e-12)
        assert sample.nu == pytest.approx(
            rswn_from_q(flatband_sign(h, eps_ref)), abs=1e-9)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            DisorderConfig(strength=1.0, targets=("v",), samples=5, seed=1)
        with pytest.raises(ValidationError):
            DisorderConfig(strength=0.1, targets=("bogus",), samples=5, seed=1)
        with pytest.raises(ValidationError):
            DisorderConfig(strength=0.1, targets=(), samples=5, seed=1)
        with pytest.raises(ValidationError):
            DisorderConfig(strength=0.1, targets=("v",), samples=0, seed=1)
        for bad in ({"strength": "x"}, {"targets": 5}, {"samples": "x"},
                    {"seed": [1]}):
            fields = {"strength": 0.1, "targets": ("v",), "samples": 5, "seed": 1,
                      **bad}
            with pytest.raises(ValidationError, match=next(iter(bad))):
                DisorderConfig(**fields)

    def test_outputs_layout(self, tmp_path):
        base = ChainSpec(8, 6.5, 0.1, 0.5)
        config = DisorderConfig(strength=0.05, targets=("v",), samples=4, seed=3)
        result = disorder_ensemble(base, config)
        csv_path = tmp_path / "ens.csv"
        json_path = tmp_path / "ens.json"
        write_ensemble_outputs(result, csv_path, json_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "sample_index,nu,min_gap_GHz"
        assert len(lines) == 5
        payload = json_path.read_text()
        assert '"generator": "PCG64"' in payload
        assert '"seed": 3' in payload
