import math

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

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
from sshchain import topology
from sshchain.topology import _draw_sample, _SamplePlan, write_ensemble_outputs

from oracles import (
    dense_eigvals,
    flatband_sign,
    open_chain_ipr,
    fresh_disorder_sample,
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

    @pytest.mark.parametrize("run", [
        lambda: flatband(chain_h(5, 0.1, 0.5), 6.5),
        lambda: winding_number_real_space(chain_h(5, 0.1, 0.5), 6.5),
        lambda: _draw_sample(_SamplePlan(ChainSpec(5, 6.5, 0.1, 0.5),
                                         DisorderConfig(0.05, ("v", "w"), 1, 3)), 0),
    ], ids=["flatband", "winding", "disorder-sample"])
    @pytest.mark.parametrize("defect", ["norms", "first-pair", "middle-pair", "last-pair"])
    def test_non_orthonormal_eigenvectors_rejected(self, monkeypatch, run, defect):
        # The guard reads one triangle of V^T V. A pair of columns skewed
        # toward each other keeps both norms to 1e-12, so only that pair's
        # off-diagonal entry can trip it; wherever the pair sits, it must.
        solve = scipy.linalg.lapack.dstevd

        def skewed(diag, off, **kwargs):
            evals, evecs, info = solve(diag, off, **kwargs)
            if defect == "norms":
                return evals, evecs * (1.0 + 1e-6), info
            half = evecs.shape[1] // 2
            i, j = {"first-pair": (0, 1), "middle-pair": (half - 1, half),
                    "last-pair": (-2, -1)}[defect]
            evecs[:, j] += 1e-6 * evecs[:, i]
            return evals, evecs, info

        monkeypatch.setattr(scipy.linalg.lapack, "dstevd", skewed)
        with pytest.raises(NumericalError, match="orthonormal"):
            run()


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

    @pytest.mark.parametrize("n_cells,v,eps", [(1, 0.3, 6.5), (5, 0.1, 6.5), (100, 0.05, 6.7),
                                               (200, 0.9, 6.2)])
    def test_chain_bands_match_dense_h(self, n_cells, v, eps):
        u = np.random.default_rng(n_cells).uniform(-1.0, 1.0, 2 * n_cells)
        chain = ChainSpec(n_cells, eps * (1 + 0.01 * u), v, 0.5)
        eps_ref = float(np.mean(chain.eps))
        dense = winding_number_real_space(build_tb_hamiltonian(chain), eps_ref)
        bands = topology._chain_winding(chain, eps_ref)
        assert bands == dense and np.array(bands.nu).tobytes() == np.array(dense.nu).tobytes()

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


@settings(max_examples=60)
@given(n_cells=st.integers(4, 60), v=st.floats(0.05, 1.0), w=st.floats(0.05, 1.0),
       spread=st.floats(0.0, 0.3), seed=st.integers(0, 2**32 - 1))
def test_winding_blocks_match_flatband_and_loop_oracle(n_cells, v, w, spread, seed):
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, 4 * n_cells - 1)
    eps = 6.5 + spread * u[:2 * n_cells]
    h = build_tb_hamiltonian(ChainSpec(n_cells, eps, v * (1 + 0.5 * u[2 * n_cells:3 * n_cells]),
                                       w * (1 + 0.5 * u[3 * n_cells:])))
    eps_ref = float(np.mean(eps))
    q = flatband(h, eps_ref)
    lapack = topology._lapack()
    basis = topology._flatband_basis(*topology._bands_of(h, eps_ref), lapack)
    a, b = slice(0, None, 2), slice(1, None, 2)
    for rows, cols in ((a, b), (b, a)):
        block = topology._q_block(basis, rows, cols, lapack[2])
        if n_cells <= 50:
            assert np.array_equal(block, q[rows, cols])
        else:
            # How OpenBLAS splits the full product across threads can change
            # the last bit of some entries: seen at N = 51-60 with two
            # threads, never with one.
            np.testing.assert_allclose(block, q[rows, cols], rtol=0, atol=1e-14)
    # The oracle takes the matrix sign, which a mode near zero energy does
    # not have (a pair split by chirality) or has only ill-conditioned.
    if np.min(np.abs(np.linalg.eigvalsh(h) - eps_ref)) > 1e-3:
        nu = winding_number_real_space(h, eps_ref).nu
        assert nu == pytest.approx(rswn_from_q(flatband_sign(h, eps_ref)), abs=1e-9)


def _long_disordered_chains():
    """The hybridized-edge-pair regime, derandomized: (r, s, n_cells, v, w, nu).

    ``numpy.random.default_rng(7)``; for r in (0.5, 0.7, 1.4, 2.0) and s in
    (0.5, 0.9), 60 draws each of N from 100-200, v ~ U(1-s, 1+s) per cell
    and w ~ r U(1-s, 1+s) per bond, with eps = 0. Only draws whose
    edge-overlap margin |sum_i ln w_i - sum_(i>=2) ln v_i| is at least
    ln 1e6 are kept (479 of 480); far from the critical r = 1, their
    winding is 1 when the w sum wins and 0 otherwise (Mondragon-Shem,
    Hughes, Song and Prodan, PRL 113, 046802 (2014)).
    """
    rng = np.random.default_rng(7)
    chains = []
    for r in (0.5, 0.7, 1.4, 2.0):
        for s in (0.5, 0.9):
            for _ in range(60):
                n = int(rng.integers(100, 201))
                v = rng.uniform(1 - s, 1 + s, n)
                w = r * rng.uniform(1 - s, 1 + s, n - 1)
                margin = np.sum(np.log(w)) - np.sum(np.log(v[1:]))
                if abs(margin) >= math.log(1e6):
                    chains.append((r, s, n, v, w, 1.0 if margin > 0 else 0.0))
    return chains


LONG_CHAINS = _long_disordered_chains()


class TestLongDisorderedChains:
    def test_regime_size(self):
        assert len(LONG_CHAINS) == 479

    # r = 1.4, s = 0.9 holds N = 118 and 131, whose edge pairs sit at
    # 2.0e-11 and 3.1e-12 GHz, above ZERO_TOL; split by sign they gave
    # nu = -0.006 and 0.395. The worst deviation with the pair split by
    # chirality is 0.185.
    @pytest.mark.parametrize("r", [0.5, 0.7, 1.4, 2.0])
    @pytest.mark.parametrize("s", [0.5, 0.9])
    def test_winding_matches_the_edge_overlap_prediction(self, r, s):
        for _, _, n, v, w, predicted in (c for c in LONG_CHAINS if c[:2] == (r, s)):
            h = build_tb_hamiltonian(ChainSpec(n, 0.0, v, w))
            nu = winding_number_real_space(h, 0.0).nu
            assert abs(nu - predicted) < 0.25, (n, nu, predicted)

    def test_only_a_chiral_pair_is_split_by_chirality(self):
        ends = np.zeros((6, 2))
        ends[0, 0] = ends[5, 1] = 1.0  # an A and a B site
        assert np.allclose(np.abs(topology._chiral_states(ends)), ends[:, ::-1])
        ends[5, 1], ends[2, 1] = 0.0, 1.0  # two A sites
        assert topology._chiral_states(ends) is None


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
        plan = _SamplePlan(base, config)
        reverse = [_draw_sample(plan, k)
                   for k in reversed(range(config.samples))]
        assert first.samples == tuple(reversed(reverse))
        assert disorder_ensemble(base, config) == first

    def test_sample_matches_dense_oracles(self):
        base = ChainSpec(50, 6.5, 0.25, 0.5)
        config = DisorderConfig(strength=0.05, targets=("v", "w", "eps"),
                                samples=1, seed=21)
        sample = _draw_sample(_SamplePlan(base, config), 0)
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

    @pytest.mark.parametrize("v", [0.01, 0.25, 1.0])
    def test_sample_keeps_every_dgemm_on_one_thread(self, monkeypatch, v):
        # OpenBLAS runs a dgemm on one thread when m n k <= SMP_THRESHOLD_MIN
        # * GEMM_MULTITHREAD_THRESHOLD = 65536 * 4 (interface/gemm.c); a
        # larger one wakes its thread pool, which costs CPU for no wall time
        # at this size. The shapes decide it, so nothing is timed.
        dgemm, dsyrk = scipy.linalg.blas.dgemm, scipy.linalg.blas.dsyrk
        sizes, grams = [], []

        def sized_dgemm(alpha, a, b, trans_a=0, trans_b=0):
            m, k = a.shape[::-1] if trans_a else a.shape
            sizes.append(m * k * (b.shape[0] if trans_b else b.shape[1]))
            return dgemm(alpha, a, b, trans_a=trans_a, trans_b=trans_b)

        def counted_dsyrk(alpha, a, **kwargs):
            grams.append(a.shape)
            return dsyrk(alpha, a, **kwargs)

        monkeypatch.setattr(scipy.linalg.blas, "dgemm", sized_dgemm)
        monkeypatch.setattr(scipy.linalg.blas, "dsyrk", counted_dsyrk)
        config = DisorderConfig(strength=0.1, targets=("v", "w"), samples=1, seed=5)
        _draw_sample(_SamplePlan(ChainSpec(50, 6.5, v, 0.5), config), 0)
        assert grams == [(100, 100)]  # the orthonormality guard ran
        assert len(sizes) == 2 and max(sizes) <= 4 * 65536, sizes

    @pytest.mark.parametrize("n_cells", [1, 2, 5, 50])
    @pytest.mark.parametrize("v", [0.0, 0.01, 0.25, 1.0])
    @pytest.mark.parametrize("targets", [("v", "w"), ("v", "w", "eps"), ("w",), ("eps",)])
    def test_prepared_samples_match_fresh_composition(self, n_cells, v, targets):
        # one plan serves every sample: its reused hop buffer and shifted
        # base diagonal must leave each sample as it was when formed afresh
        base = ChainSpec(n_cells, 6.5, v, 0.5)
        config = DisorderConfig(strength=0.1, targets=targets, samples=4, seed=2024)
        got = [(s.nu, s.min_gap_GHz) for s in disorder_ensemble(base, config).samples]
        expected = [fresh_disorder_sample(base, config, k) for k in range(config.samples)]
        assert np.array(got).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("info", [1, -2])
    def test_solver_failure_is_numerical_error(self, monkeypatch, info):
        solve = scipy.linalg.lapack.dstevd

        def failing(diag, off, **kwargs):
            evals, evecs, _ = solve(diag, off, **kwargs)
            return evals, evecs, info

        monkeypatch.setattr(scipy.linalg.lapack, "dstevd", failing)
        config = DisorderConfig(strength=0.1, targets=("v", "w"), samples=3, seed=5)
        with pytest.raises(NumericalError, match=f"dstevd info = {info}"):
            disorder_ensemble(ChainSpec(5, 6.5, 0.1, 0.5), config)

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
