import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sshchain import (
    ChainSpec,
    CircuitSpec,
    NumericalError,
    ValidationError,
    build_tb_hamiltonian,
    chiral_defect,
    default_circuit,
    map_circuit_to_tb,
)

from oracles import chiral_operator, dense_eigvals


class TestChainSpec:
    def test_scalar_broadcast(self):
        spec = ChainSpec(5, 6.5, 0.25, 0.5)
        assert spec.eps.shape == (10,)
        assert spec.v.shape == (5,)
        assert spec.w.shape == (4,)

    def test_length_validation(self):
        with pytest.raises(ValidationError):
            ChainSpec(5, [6.5] * 9, 0.25, 0.5)
        with pytest.raises(ValidationError):
            ChainSpec(5, 6.5, [0.25] * 4, 0.5)
        with pytest.raises(ValidationError):
            ChainSpec(5, 6.5, 0.25, [0.5] * 5)
        with pytest.raises(ValidationError, match="n_cells"):
            ChainSpec("five", 6.5, 0.25, 0.5)
        with pytest.raises(ValidationError, match="n_cells must be an integer"):
            ChainSpec("5", 6.5, 0.25, 0.5)

    def test_negative_hops_rejected(self):
        with pytest.raises(ValidationError):
            ChainSpec(5, 6.5, -0.1, 0.5)
        with pytest.raises(ValidationError):
            ChainSpec(5, 6.5, 0.1, [-0.5, 0.5, 0.5, 0.5])

    def test_non_finite_eps_rejected(self):
        with pytest.raises(ValidationError):
            ChainSpec(2, [6.5, np.nan, 6.5, 6.5], 0.25, 0.5)
        with pytest.raises(ValidationError):
            ChainSpec(2, [6.5, np.inf, 6.5, 6.5], 0.25, 0.5)
        with pytest.raises(ValidationError, match="eps"):
            ChainSpec(2, [6.5, "high", 6.5, 6.5], 0.25, 0.5)
        with pytest.raises(ValidationError, match="eps must be numeric"):
            ChainSpec(2, [6.5, "6.5", 6.5, 6.5], 0.25, 0.5)
        with pytest.raises(ValidationError, match="v must be numeric"):
            ChainSpec(2, 6.5, np.array([0.2, "0.3"], dtype=object), 0.5)
        with pytest.raises(ValidationError, match="w must be numeric"):
            ChainSpec(2, 6.5, 0.2, "0.5")

    def test_arrays_are_read_only(self):
        spec = ChainSpec(3, 6.5, 0.2, 0.5)
        with pytest.raises(ValueError):
            spec.eps[0] = 0.0

    def test_json_round_trip(self):
        spec = ChainSpec(3, [6.4, 6.5, 6.6, 6.5, 6.4, 6.5], [0.1, 0.2, 0.3], [0.5, 0.4])
        again = ChainSpec.from_json(spec.to_json())
        assert np.array_equal(again.eps, spec.eps)
        assert np.array_equal(again.v, spec.v)
        assert np.array_equal(again.w, spec.w)

    def test_from_dict_rejects_unknown_keys(self):
        data = ChainSpec(2, 6.5, 0.2, 0.5).to_dict()
        data["extra"] = 1
        with pytest.raises(ValidationError, match="extra"):
            ChainSpec.from_dict(data)


class TestCircuitSpec:
    def test_infinite_lv_allowed(self):
        spec = CircuitSpec(5, 660.0, 1.0, math.inf, 30.0)
        assert np.all(np.isinf(spec.lv))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            CircuitSpec(5, 0.0, 1.0, 30.0, 30.0)
        with pytest.raises(ValidationError):
            CircuitSpec(5, 660.0, -1.0, 30.0, 30.0)
        with pytest.raises(ValidationError):
            CircuitSpec(5, 660.0, 1.0, 30.0, 0.0)

    def test_cw_has_one_extra_entry(self):
        spec = default_circuit()
        assert spec.cw.size == spec.n_cells + 1
        with pytest.raises(ValidationError):
            CircuitSpec(5, 660.0, 1.0, 30.0, [30.0] * 5)

    @pytest.mark.parametrize("lv", [["inf", "8"], ["inf", "Infinity"], "8"])
    def test_from_dict_reads_only_inf_as_text(self, lv):
        data = CircuitSpec(2, 660.0, 1.0, [math.inf, 25.0], 30.0).to_dict()
        assert CircuitSpec.from_dict(data).lv[0] == math.inf
        data["lv_nH"] = lv
        with pytest.raises(ValidationError, match="expected a number or 'inf'"):
            CircuitSpec.from_dict(data)

    def test_from_dict_names_missing_keys(self):
        with pytest.raises(ValidationError,
                           match=re.escape("missing CircuitSpec keys: ['cw_fF', 'l0_nH', 'lv_nH']")):
            CircuitSpec.from_dict({"n_cells": 5, "c0_fF": 660.0})

    def test_json_round_trip_with_inf(self):
        spec = CircuitSpec(2, 660.0, 1.0, [math.inf, 25.0], 30.0)
        text = spec.to_json()
        assert '"inf"' in text
        again = CircuitSpec.from_json(text)
        assert math.isinf(again.lv[0])
        assert again.lv[1] == 25.0

    def test_with_lv_replaces_only_lv(self):
        spec = default_circuit()
        other = spec.with_lv(40.0)
        assert np.all(other.lv == 40.0)
        assert np.array_equal(other.c0, spec.c0)


class TestBuildHamiltonian:
    def test_single_cell_analytic(self):
        h = build_tb_hamiltonian(ChainSpec(1, 6.5, 0.5, []))
        assert np.allclose(np.linalg.eigvalsh(h), [6.0, 7.0])

    def test_decoupled_dimer_limit(self):
        # v = 0 leaves four w-dimers plus the two free end sites
        h = build_tb_hamiltonian(ChainSpec(5, 6.5, 0.0, 0.5))
        evals = np.sort(np.linalg.eigvalsh(h))
        expected = [6.0] * 4 + [6.5] * 2 + [7.0] * 4
        assert np.allclose(evals, expected, atol=1e-12)

    def test_full_spectrum_against_dense_oracle(self):
        h = build_tb_hamiltonian(ChainSpec(5, 6.5, 0.25, 0.5))
        frozen = [5.778682080303, 5.861900692381, 5.990704507787,
                  6.145726721618, 6.488240825909, 6.511759174091,
                  6.854273278382, 7.009295492213, 7.138099307619,
                  7.221317919697]
        assert np.allclose(np.sort(np.linalg.eigvalsh(h)), frozen, atol=1e-9)
        assert np.allclose(dense_eigvals(h), frozen, atol=1e-9)

    def test_structure(self):
        spec = ChainSpec(3, [1, 2, 3, 4, 5, 6], [0.1, 0.2, 0.3], [0.8, 0.9])
        h = build_tb_hamiltonian(spec)
        assert np.array_equal(np.diag(h), spec.eps)
        assert np.allclose(np.diag(h, 1), [0.1, 0.8, 0.2, 0.9, 0.3])
        assert np.count_nonzero(h - np.diag(np.diag(h))
                                - np.diag(np.diag(h, 1), 1)
                                - np.diag(np.diag(h, -1), -1)) == 0

    def test_bitwise_symmetry(self):
        h = build_tb_hamiltonian(ChainSpec(7, 6.123, 0.21, 0.47))
        assert np.array_equal(h, h.T)


class TestCircuitMapping:
    def test_pinched_reference_values(self):
        # direct evaluation of the mapping: L_T = L0, C_T = C0 + Cw
        spec = CircuitSpec(5, 300.0, 1.0, math.inf, 30.0)
        chain = map_circuit_to_tb(spec)
        f_expected = 1e3 / (2 * np.pi * np.sqrt(1.0 * 330.0))
        w_expected = 0.5 * f_expected * 30.0 / 330.0
        assert np.allclose(chain.eps, f_expected, atol=1e-9)
        assert abs(f_expected - 8.76) < 0.01
        assert np.allclose(chain.w, w_expected, atol=1e-9)
        assert abs(w_expected - 0.398) < 1e-3

    def test_pinched_maps_to_exactly_zero_hop(self):
        chain = map_circuit_to_tb(CircuitSpec(5, 660.0, 1.0, math.inf, 30.0))
        assert np.all(chain.v == 0.0)

    def test_halving_lv_raises_every_site_frequency(self):
        low = map_circuit_to_tb(default_circuit(lv_nH=40.0))
        high = map_circuit_to_tb(default_circuit(lv_nH=20.0))
        assert np.all(high.eps > low.eps)

    def test_v_decreases_and_w_grows_as_lv_shrinks(self):
        grid = [80.0, 40.0, 20.0, 10.0, 5.0]
        chains = [map_circuit_to_tb(default_circuit(lv_nH=lv)) for lv in grid]
        v_values = [c.v[0] for c in chains]
        w_values = [c.w[0] for c in chains]
        assert all(a < b for a, b in zip(v_values, v_values[1:]))
        assert all(a <= b for a, b in zip(w_values, w_values[1:]))

    @given(seed=st.integers(0, 2**32 - 1), n_cells=st.integers(1, 10),
           scale=st.lists(st.sampled_from([1.0, 1.001, 1.5, 20.0, 1e3, math.inf]),
                          min_size=10, max_size=10))
    def test_v_is_zero_exactly_when_pinched_and_v_w_fall_as_lv_grows(self, seed, n_cells,
                                                                      scale):
        rng = np.random.default_rng(seed)
        base = CircuitSpec(n_cells, rng.uniform(100.0, 2000.0, 2 * n_cells),
                           rng.uniform(0.2, 5.0, 2 * n_cells),
                           rng.uniform(0.5, 500.0, n_cells), rng.uniform(5.0, 100.0, n_cells + 1))
        grown = base.with_lv(base.lv * scale[:n_cells])
        before, after = map_circuit_to_tb(base), map_circuit_to_tb(grown)
        assert np.array_equal(after.v == 0.0, np.isinf(grown.lv))
        assert np.all(before.v > 0.0)
        assert np.all(after.v <= before.v) and np.all(after.w <= before.w)
        # a junction that grew lowers its own hop strictly
        assert np.all(after.v[grown.lv > base.lv] < before.v[grown.lv > base.lv])

    @pytest.mark.parametrize("overrides,message", [
        ({"c0_fF": 1e200, "l0_nH": 1e200, "cw_fF": 1e200}, "L_T * C_T overflows"),
        ({"l0_nH": np.finfo(float).max}, "L_T * C_T overflows"),  # L_T is inf
        ({"c0_fF": 1e308, "cw_fF": 1e308}, "L_T * C_T overflows"),  # C_T is inf
        ({"l0_nH": 1e-310}, "1/L0 + 1/Lv overflows"),
        ({"lv_nH": 1e-310}, "1/L0 + 1/Lv overflows"),
        ({"c0_fF": 1e308, "cw_fF": 1e308, "l0_nH": 1e-310},
         "1/L0 + 1/Lv overflows"),  # L_T = 0 meets C_T = inf
        ({"c0_fF": 1e-200, "l0_nH": 1e-200, "cw_fF": 1e-200}, "L_T * C_T underflows to 0"),
    ])
    def test_mapping_refuses_the_ends_of_the_double_range(self, overrides, message):
        # tier-1 makes every warning an error: each refusal is made without one
        with pytest.raises(NumericalError,
                           match=f"^circuit mapping failed: {re.escape(message)}$"):
            map_circuit_to_tb(default_circuit(**overrides))

    def test_mapping_keeps_extreme_values_whose_products_are_finite(self):
        chain = map_circuit_to_tb(default_circuit(c0_fF=1e-150, l0_nH=1e150, cw_fF=1e-150))
        assert np.all(np.isfinite(chain.eps) & (chain.eps > 0))

    def test_uniform_circuit_spectrum_symmetric_about_site_frequency(self):
        chain = map_circuit_to_tb(default_circuit(lv_nH=35.0))
        evals = np.sort(np.linalg.eigvalsh(build_tb_hamiltonian(chain)))
        shifted = evals - chain.eps[0]
        assert np.max(np.abs(shifted + shifted[::-1])) < 1e-9


class TestChiralOperator:
    def test_single_cell(self):
        op = chiral_operator(1)
        assert np.array_equal(op.matrix, np.diag([1.0, -1.0]))

    def test_trace_and_involution(self):
        op = chiral_operator(5)
        assert np.trace(op.matrix) == 0.0
        assert np.array_equal(op.matrix @ op.matrix, np.eye(10))

    @pytest.mark.parametrize("n_cells", [1, 2, 5, 8])
    def test_anticommutes_with_zero_diagonal_chain(self, n_cells):
        rng = np.random.default_rng(31 + n_cells)
        spec = ChainSpec(n_cells, 0.0, rng.uniform(0, 1, n_cells),
                         rng.uniform(0, 1, max(n_cells - 1, 0)))
        h = build_tb_hamiltonian(spec)
        gamma = chiral_operator(n_cells).matrix
        assert np.allclose(gamma @ h @ gamma, -h, atol=1e-15)


class TestChiralDefect:
    def test_uniform_chain_is_exactly_chiral(self):
        h = build_tb_hamiltonian(ChainSpec(5, 6.5, 0.3, 0.5))
        assert chiral_defect(h, 6.5) == 0.0

    def test_second_neighbor_bond_gives_two_g(self):
        h = build_tb_hamiltonian(ChainSpec(5, 6.5, 0.3, 0.5))
        g = 0.07
        h[2, 4] += g
        h[4, 2] += g
        assert np.isclose(chiral_defect(h, 6.5), 2 * g)

    def test_mapped_uniform_circuit_is_chiral(self):
        chain = map_circuit_to_tb(default_circuit(lv_nH=30.0))
        h = build_tb_hamiltonian(chain)
        assert chiral_defect(h, float(chain.eps[0])) < 1e-12

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValidationError):
            chiral_defect(np.eye(3), 0.0)

    @pytest.mark.parametrize("h,message", [
        (np.zeros((0, 0)), "positive even dimension"),
        ([[0.0, 1j], [-1j, 0.0]], "H must be real"),
        ([[np.nan, 1.0], [1.0, 0.0]], "H must be finite"),
        (np.eye(2, dtype=bool), "H must be numeric"),
    ])
    def test_malformed_h_rejected(self, h, message):
        with pytest.raises(ValidationError, match=message):
            chiral_defect(h, 0.0)


def test_default_circuit_crossing_design():
    # hop balance v = w falls at lv = l0 * c0 / cw
    spec = default_circuit()
    assert spec.l0[0] * spec.c0[0] / spec.cw[0] == pytest.approx(22.0)
