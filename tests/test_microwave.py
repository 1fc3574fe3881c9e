import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sshchain import (
    BoxMode,
    ChainSpec,
    CircuitSpec,
    ExtrapolationError,
    GateModel,
    NumericalError,
    S21Trace,
    ValidationError,
    apply_gate_setting,
    background_normalize,
    build_tb_hamiltonian,
    circuit_mode_frequencies,
    classify_modes,
    default_circuit,
    eigendecompose,
    extract_peaks,
    joint_gate_settings,
    ladder_abcd,
    map_circuit_to_tb,
    nanowire_inductance,
    s21_trace,
    single_gate_settings,
)
from sshchain import microwave as mw_mod
from sshchain.estimation import _Solution
from sshchain.microwave import read_gate_table_csv, write_trace_outputs
from sshchain.spectral import PHASE_TOPOLOGICAL, PHASE_TRIVIAL

from oracles import (SCIPY_PEAK_ROUTE, abcd_to_s21, complex_ladder_abcd,
                     complex_ladder_s21, curve_fit_lm, generalized_eigvals, lorentzian_mag,
                     mode_linewidths, mp_ladder_s21, pchip, scipy_bases, scipy_find_peaks,
                     scipy_half_height_crossings, shunt_lc_s21)

GATE = GateModel(5, v_p=0.4, v_o=1.8, l_min=9.0, i_star=1.0)
GOLDEN_PEAKS = os.path.join(os.path.dirname(__file__), "golden",
                            "criterion8_peaks_golden.csv")


def criterion8_trace(lv_nH, box=None):
    """The normalized 40001-point trace that criterion 8 extracts peaks from."""
    circuit = default_circuit(lv_nH=lv_nH)
    modes = circuit_mode_frequencies(circuit)
    freqs = np.linspace(modes[0] - 0.15, modes[-1] + 0.15, 40001)
    return background_normalize(s21_trace(circuit, freqs, box=box),
                                [(modes[0] - 0.05, modes[-1] + 0.05)])


def disordered_circuit(rng, n_cells):
    """Every element drawn around the reference circuit; lv spans both phases."""
    return CircuitSpec(
        n_cells,
        660.0 * (1 + 0.1 * rng.uniform(-1, 1, 2 * n_cells)),
        1.0 * (1 + 0.1 * rng.uniform(-1, 1, 2 * n_cells)),
        rng.uniform(1.0, 100.0, n_cells),
        30.0 * (1 + 0.1 * rng.uniform(-1, 1, n_cells + 1)),
    )


def bits(values):
    """The raw bit patterns of a float or complex array, sign of zero included."""
    return np.ascontiguousarray(values).view(np.uint64)


def single_peak_trace():
    freqs = np.linspace(6.0, 6.08, 1601)
    mag = lorentzian_mag(freqs, 6.04, 0.002, 0.9, baseline=1.0)
    return S21Trace(freqs, mag.astype(complex), metadata={"normalized": True})


class TestGateModel:
    def test_requires_vp_below_vo(self):
        with pytest.raises(ValidationError):
            GateModel(2, v_p=1.0, v_o=1.0, l_min=5.0, i_star=1.0)

    def test_per_junction_arrays(self):
        model = GateModel(3, v_p=[0.4, 0.15, 0.43], v_o=[1.8, 1.8, 1.8],
                          l_min=[8.0, 9.0, 10.0], i_star=[0.8, 1.0, 1.2])
        assert model.v_p[1] == 0.15
        assert model.l_min[2] == 10.0

    def test_table_mode_needs_samples(self):
        with pytest.raises(ValidationError):
            GateModel(2, 0.4, 1.8, 9.0, 1.0, mode="table")

    def test_tables_rejected_in_parametric_mode(self):
        with pytest.raises(ValidationError):
            GateModel(2, 0.4, 1.8, 9.0, 1.0,
                      tables=[[0.0, 100.0], [2.0, 9.0]])

    def test_table_voltage_order_enforced(self):
        with pytest.raises(ValidationError):
            GateModel(1, 0.4, 1.8, 9.0, 1.0, mode="table",
                      tables=[[1.0, 10.0], [0.5, 20.0]])
        with pytest.raises(ValidationError, match="table 0"):
            GateModel(1, 0.4, 1.8, 9.0, 1.0, mode="table",
                      tables=[[1.0, 10.0], ["x", 20.0]])


class TestNanowireInductance:
    def test_pinched_off_is_infinite(self):
        for v_g in (-1.0, 0.0, 0.4):
            assert math.isinf(nanowire_inductance(GATE, 0, v_g))
            assert math.isinf(nanowire_inductance(GATE, 0, v_g, i_s=2.0))

    def test_fully_open_reaches_l_min(self):
        assert nanowire_inductance(GATE, 2, 1.8) == pytest.approx(9.0)

    def test_power_factor_doubles_at_critical_current(self):
        assert nanowire_inductance(GATE, 2, 1.8, i_s=1.0) == pytest.approx(18.0)

    def test_monotone_in_gate_and_current(self):
        voltages = np.linspace(0.3, 2.2, 40)
        values = [nanowire_inductance(GATE, 1, v) for v in voltages]
        assert all(b <= a for a, b in zip(values, values[1:]))
        currents = np.linspace(0.0, 3.0, 25)
        values = [nanowire_inductance(GATE, 1, 1.2, i) for i in currents]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_table_mode(self):
        table = [[0.5, 200.0], [1.0, 40.0], [1.5, 12.0], [2.0, 9.0]]
        model = GateModel(2, 0.4, 2.0, 9.0, 1.0, mode="table", tables=table)
        assert nanowire_inductance(model, 0, 1.0) == pytest.approx(40.0)
        between = nanowire_inductance(model, 0, 1.25)
        assert 12.0 < between < 40.0
        assert nanowire_inductance(model, 1, 1.0, i_s=1.0) == pytest.approx(80.0)
        with pytest.raises(ExtrapolationError, match="^gate table of junction 0: v_g=2.5"):
            nanowire_inductance(model, 0, 2.5)

    @pytest.mark.parametrize("shape", ["decreasing", "increasing", "any"])
    def test_table_mode_matches_scipy_pchip(self, shape):
        # 2 to 8 samples, flat sides and knots included. On the 100 tables
        # of each shape the two agree bit for bit; 1e-13 leaves room only
        # for a compiler's different rounding.
        rng = np.random.default_rng(["decreasing", "increasing", "any"].index(shape))
        for _ in range(100):
            size = int(rng.integers(2, 9))
            volts = np.cumsum(rng.uniform(0.05, 0.5, size))
            henries = rng.uniform(5.0, 200.0, size)
            if shape != "any":
                henries = np.sort(henries)[::-1 if shape == "decreasing" else 1]
            if size > 3 and rng.uniform() < 0.3:
                henries[2] = henries[1]
            model = GateModel(1, 0.4, 1.8, 9.0, 1.0, mode="table",
                              tables=np.column_stack([volts, henries]))
            at = np.concatenate([volts, rng.uniform(volts[0], volts[-1], 10)])
            got = [nanowire_inductance(model, 0, v) for v in at]
            np.testing.assert_allclose(got, pchip(volts, henries, at), rtol=1e-13, atol=0)

    def test_invalid_junction_or_current(self):
        with pytest.raises(ValidationError):
            nanowire_inductance(GATE, 9, 1.0)
        with pytest.raises(ValidationError):
            nanowire_inductance(GATE, 0, 1.0, i_s=-0.5)

    @pytest.mark.parametrize("count", [5.7, True, "five", "5"])
    def test_junction_count_is_an_integer(self, count):
        with pytest.raises(ValidationError, match="n_junctions must be an integer"):
            GateModel(count, 0.4, 1.8, 9.0, 1.0)

    @pytest.mark.parametrize("junction", [2.5, True, "2"])
    def test_junction_index_is_an_integer(self, junction):
        with pytest.raises(ValidationError, match="junction index must be an integer"):
            single_gate_settings(GATE, junction, [1.0])
        with pytest.raises(ValidationError, match="junction index must be an integer"):
            nanowire_inductance(GATE, junction, 1.0)

    def test_numeric_strings_are_not_numbers(self):
        with pytest.raises(ValidationError, match="v_p must be numeric"):
            GateModel(5, [0.4, 0.4, "0.4", 0.4, 0.4], 1.8, 9.0, 1.0)
        with pytest.raises(ValidationError, match="table 0 must be numeric"):
            GateModel(5, 0.4, 1.8, 9.0, 1.0, mode="table",
                      tables=np.array([["0.4", "20.0"], ["1.8", "9.0"]]))
        with pytest.raises(ValidationError, match="gate voltage must be numeric"):
            nanowire_inductance(GATE, 0, "1.0")
        with pytest.raises(ValidationError, match="signal current must be numeric"):
            nanowire_inductance(GATE, 0, 1.0, i_s="0.5")
        with pytest.raises(ValidationError, match="gate voltages must be numeric"):
            single_gate_settings(GATE, 2, ["1.0"])
        with pytest.raises(ValidationError, match="gate voltages must be numeric"):
            apply_gate_setting(default_circuit(), GATE, [1.0, 1.0, 1.0, 1.0, "1.0"])

    def test_integral_counts_are_accepted(self):
        assert GateModel(5.0, 0.4, 1.8, 9.0, 1.0).n_junctions == 5
        settings = single_gate_settings(GATE, np.int64(2), [1.0])
        assert settings[0, 2] == 1.0
        assert joint_gate_settings(GATE, np.int64(3)).shape == (3, 5)

    def test_sweeps_need_points(self):
        with pytest.raises(ValidationError, match="holds no voltage"):
            single_gate_settings(GATE, 2, [])
        with pytest.raises(ValidationError, match="steps must be an integer"):
            joint_gate_settings(GATE, 2.5)


class TestLadder:
    def test_empty_cascade_is_transparent(self):
        identity = np.broadcast_to(np.eye(2, dtype=complex), (11, 2, 2))
        assert np.allclose(abcd_to_s21(identity), 1.0)

    def test_single_shunt_resonator_closed_form(self):
        freqs = np.linspace(4.0, 14.0, 4001)
        omega = 2 * np.pi * freqs * 1e9
        y = 1j * omega * 300e-15 + 1.0 / (1j * omega * 1e-9)
        abcd = np.zeros((freqs.size, 2, 2), dtype=complex)
        abcd[:, 0, 0] = 1.0
        abcd[:, 1, 1] = 1.0
        abcd[:, 1, 0] = y
        s21 = abcd_to_s21(abcd)
        assert np.allclose(s21, shunt_lc_s21(freqs, 1.0, 300.0), atol=1e-12)
        # the parallel-LC shunt turns transparent at its resonance
        f_peak = freqs[np.argmax(np.abs(s21))]
        assert f_peak == pytest.approx(1e3 / (2 * np.pi * math.sqrt(300.0)), abs=0.005)
        assert f_peak == pytest.approx(9.19, abs=0.01)

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValidationError):
            s21_trace(default_circuit(lv_nH=30.0), [0.0, 1.0])

    @pytest.mark.parametrize("freqs", [[5.0, math.inf], [math.nan, 6.0],
                                       [math.nan, math.nan]])
    def test_non_finite_grid_rejected(self, freqs):
        with pytest.raises(ValidationError, match="finite"):
            s21_trace(default_circuit(lv_nH=30.0), freqs)
        with pytest.raises(ValidationError, match="finite"):
            S21Trace(freqs=freqs, s21=[0.5, 0.5])

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.5, math.nan),
                                       complex(-math.inf, 0.0)])
    def test_non_finite_transmission_rejected(self, value):
        # extract_peaks' curve_fit used to die on it with a bare ValueError
        with pytest.raises(ValidationError, match=r"^s21 must be finite, got .* at index 2$"):
            S21Trace(np.linspace(5.0, 6.0, 4), [0.5, 0.5, value, 0.5])

    def test_traces_hold_read_only_copies(self):
        freqs = np.linspace(5.5, 7.2, 101)
        s21 = np.full(101, 0.5 + 0j)
        for trace in (s21_trace(default_circuit(lv_nH=30.0), freqs), S21Trace(freqs, s21),
                      background_normalize(S21Trace(freqs, s21), [(6.0, 6.2)])):
            for ours, theirs in ((trace.freqs, freqs), (trace.s21, s21)):
                assert not np.shares_memory(ours, theirs)
                with pytest.raises(ValueError, match="read-only"):
                    ours[0] = 1.0

    @pytest.mark.parametrize("z0", [math.inf, math.nan, 0.0])
    def test_non_finite_port_impedance_rejected(self, z0):
        with pytest.raises(ValidationError, match="port impedance"):
            s21_trace(default_circuit(lv_nH=30.0), [5.0, 6.0], z0=z0)

    def test_nan_transmission_fails_the_passivity_guard(self, monkeypatch):
        def nan_cascade(circuit, omega):
            return tuple(np.full(omega.shape, np.nan) for _ in range(4))

        monkeypatch.setattr(mw_mod, "_cascade", nan_cascade)
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="nan"):
            s21_trace(default_circuit(lv_nH=30.0), [5.0, 6.0])

    @pytest.mark.parametrize("lv_nH", [8.0, 22.0, 60.0, math.inf, 1e-3])
    def test_real_cascade_equals_the_complex_one_bit_for_bit(self, lv_nH):
        circuit = default_circuit(lv_nH=lv_nH)
        freqs = np.linspace(5.5, 7.2, 4001)
        assert np.array_equal(bits(s21_trace(circuit, freqs).s21),
                              bits(complex_ladder_s21(circuit, freqs)))
        assert np.array_equal(bits(ladder_abcd(circuit, freqs)),
                              bits(complex_ladder_abcd(circuit, freqs)))

    def test_real_cascade_of_disordered_ladders_is_bit_identical(self):
        rng = np.random.default_rng(5)
        freqs = np.linspace(4.0, 9.0, 2001)
        for _ in range(40):
            circuit = disordered_circuit(rng, int(rng.integers(1, 11)))
            for z0 in (50.0, 37.5):
                assert np.array_equal(
                    bits(s21_trace(circuit, freqs, z0=z0).s21),
                    bits(complex_ladder_s21(circuit, freqs, z0)))
            assert np.array_equal(bits(ladder_abcd(circuit, freqs)),
                                  bits(complex_ladder_abcd(circuit, freqs)))

    def test_passivity(self):
        rng = np.random.default_rng(17)
        freqs = np.linspace(4.5, 8.0, 2001)
        for k in range(4):
            circuit = CircuitSpec(
                5,
                660.0 * (1 + 0.05 * rng.uniform(-1, 1, 10)),
                1.0 * (1 + 0.05 * rng.uniform(-1, 1, 10)),
                rng.uniform(8.0, 80.0, 5),
                30.0 * (1 + 0.05 * rng.uniform(-1, 1, 6)),
            )
            box = None if k % 2 else BoxMode(6.0, 10.0, 0.5)
            trace = s21_trace(circuit, freqs, box=box)
            assert np.max(np.abs(trace.s21)) <= 1.0 + 1e-6

    def test_ten_cell_boxed_stop_band_stays_passive(self):
        # deep in the stop band |A D| reaches 1e20-1e70; a numerically
        # formed det = AD + BC is then pure cancellation error
        trace = s21_trace(default_circuit(n_cells=10), np.linspace(5.5, 7.2, 4001),
                          box=BoxMode(6.0, 10.0, 0.2))
        assert np.max(np.abs(trace.s21)) <= 1.0

    @settings(max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1), n_cells=st.integers(1, 10),
           box=st.none() | st.tuples(st.floats(5.0, 8.0), st.floats(2.0, 50.0),
                                     st.floats(0.05, 1.0)))
    def test_random_lossless_ladders_stay_passive(self, seed, n_cells, box):
        circuit = disordered_circuit(np.random.default_rng(seed), n_cells)
        box = None if box is None else BoxMode(*box)
        trace = s21_trace(circuit, np.linspace(4.0, 9.0, 2001), box=box)
        assert np.max(np.abs(trace.s21)) <= 1.0 + 1e-6

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1), n_cells=st.integers(1, 10),
           pinched=st.booleans(),
           box=st.none() | st.tuples(st.floats(5.0, 8.0), st.floats(2.0, 50.0),
                                     st.floats(0.05, 1.0)))
    def test_random_ladders_match_the_50_digit_nodal_oracle(self, seed, n_cells,
                                                            pinched, box):
        # 15 points anywhere in 4-9 GHz (|s21| down to ~1e-30 in the stop
        # band) and 15 across the chain modes +- 50 MHz. Over 60 seeded
        # circuits the worst relative error was 1.3e-11 (a boxed stop band)
        # and 2.9e-12 in the passband; within 1e-4 GHz of a mode the ladder's
        # own conditioning lets it reach ~1e-9, so those points are not drawn.
        # The 20 examples here reach 9.7e-12.
        rng = np.random.default_rng(seed)
        circuit = disordered_circuit(rng, n_cells)
        if pinched:
            circuit = circuit.with_lv(np.where(np.arange(n_cells) == rng.integers(n_cells),
                                               math.inf, circuit.lv))
        box = None if box is None else BoxMode(*box)
        modes = circuit_mode_frequencies(circuit)
        freqs = np.sort(np.concatenate([rng.uniform(4.0, 9.0, 15),
                                        rng.uniform(modes[0] - 0.05, modes[-1] + 0.05, 15)]))
        exact = mp_ladder_s21(circuit, freqs, box=box)
        s21 = s21_trace(circuit, freqs, box=box).s21
        assert np.max(np.abs(s21 - exact) / np.abs(exact)) <= 1e-10

    def test_reciprocity_of_disordered_ladder(self):
        rng = np.random.default_rng(23)
        circuit = CircuitSpec(
            5,
            660.0 * (1 + 0.1 * rng.uniform(-1, 1, 10)),
            1.0 * (1 + 0.1 * rng.uniform(-1, 1, 10)),
            rng.uniform(10.0, 60.0, 5),
            30.0 * (1 + 0.1 * rng.uniform(-1, 1, 6)),
        )
        reversed_circuit = CircuitSpec(
            5, circuit.c0[::-1], circuit.l0[::-1],
            circuit.lv[::-1], circuit.cw[::-1])
        freqs = np.linspace(5.0, 7.5, 1501)
        fwd = s21_trace(circuit, freqs)
        rev = s21_trace(reversed_circuit, freqs)
        assert np.max(np.abs(np.abs(fwd.s21) - np.abs(rev.s21))) < 1e-9

    def test_peaks_sit_on_exact_circuit_modes(self):
        circuit = default_circuit(lv_nH=60.0)
        modes = circuit_mode_frequencies(circuit)
        freqs = np.linspace(modes[0] - 0.15, modes[-1] + 0.15, 30001)
        trace = s21_trace(circuit, freqs)
        normalized = background_normalize(
            trace, [(modes[0] - 0.05, modes[-1] + 0.05)])
        peaks = extract_peaks(normalized, prominence=0.05, max_peaks=12)
        assert len(peaks) == 9  # quasi-degenerate mid-gap pair merges
        for peak in peaks:
            dist = float(np.min(np.abs(modes - peak.f0_GHz)))
            assert dist <= peak.linewidth_GHz

    def test_peaks_track_tb_eigenfrequencies_at_mapping_accuracy(self):
        # the weak-coupling mapping carries an O((Cw/CT)^2) offset, about
        # 5 MHz for this circuit, so the comparison is correspondingly coarse
        circuit = default_circuit(lv_nH=60.0)
        chain = map_circuit_to_tb(circuit)
        tb = eigendecompose(build_tb_hamiltonian(chain)).eigenvalues
        modes = circuit_mode_frequencies(circuit)
        freqs = np.linspace(modes[0] - 0.15, modes[-1] + 0.15, 30001)
        normalized = background_normalize(
            s21_trace(circuit, freqs), [(modes[0] - 0.05, modes[-1] + 0.05)])
        peaks = extract_peaks(normalized, prominence=0.05, max_peaks=12)
        found = np.array([p.f0_GHz for p in peaks])
        for freq in tb:
            assert float(np.min(np.abs(found - freq))) < 6e-3

    def test_trace_metadata_flags_pinched_cells(self):
        circuit = default_circuit()  # all junctions pinched
        trace = s21_trace(circuit, np.linspace(5.5, 6.6, 101))
        assert trace.metadata["pinched_cells"] == [0, 1, 2, 3, 4]
        assert trace.metadata["pinched_lv_nH"] == 1000.0
        assert trace.metadata["normalized"] is False

    def test_mode_frequencies_match_the_generalized_eigensolver(self):
        # the Cholesky reduction against LAPACK's dsygvd on 1-10 cells, some
        # junctions pinched: on these 100 circuits the worst relative
        # difference is 8.9e-16
        rng = np.random.default_rng(31)
        for _ in range(100):
            n_cells = int(rng.integers(1, 11))
            circuit = disordered_circuit(rng, n_cells)
            circuit = circuit.with_lv(np.where(rng.uniform(size=n_cells) < 0.3,
                                               math.inf, circuit.lv))
            omega_sq = generalized_eigvals(*mw_mod._nodal_matrices(circuit))
            want = np.sqrt(omega_sq[2:]) / (2.0 * np.pi) / 1e9  # two zero modes
            np.testing.assert_allclose(circuit_mode_frequencies(circuit), want,
                                       rtol=1e-13, atol=0)


class TestBackgroundNormalize:
    def test_flat_trace_normalizes_to_one(self):
        freqs = np.linspace(5.0, 7.0, 501)
        trace = S21Trace(freqs, np.full(501, 0.5 + 0.0j))
        normalized = background_normalize(trace, [(5.8, 6.2)])
        assert np.allclose(np.abs(normalized.s21), 1.0)
        assert normalized.metadata["normalized"] is True

    def test_linear_background_with_notch_preserved(self):
        freqs = np.linspace(5.0, 7.0, 2001)
        background = 0.2 + 0.1 * (freqs - 5.0)
        notch = 1.0 - 0.8 * lorentzian_mag(freqs, 6.0, 0.01, 1.0)
        trace = S21Trace(freqs, (background * notch).astype(complex))
        normalized = background_normalize(trace, [(5.9, 6.1)])
        outside = (freqs < 5.9) | (freqs > 6.1)
        assert np.max(np.abs(np.abs(normalized.s21)[outside] - 1.0)) < 1e-9
        depth = np.min(np.abs(normalized.s21))
        assert depth == pytest.approx(0.2, abs=1e-3)

    def test_box_background_flattened(self):
        circuit = default_circuit(lv_nH=60.0)
        modes = circuit_mode_frequencies(circuit)
        freqs = np.linspace(modes[0] - 0.3, modes[-1] + 0.3, 20001)
        trace = s21_trace(circuit, freqs, box=BoxMode(6.0, 8.0, 1.0))
        normalized = background_normalize(
            trace, [(modes[0] - 0.05, modes[-1] + 0.05)])
        outside = (freqs < modes[0] - 0.05) | (freqs > modes[-1] + 0.05)
        baseline = np.abs(normalized.s21)[outside]
        assert np.max(np.abs(baseline - 1.0)) < 0.05

    def test_full_cover_windows_rejected(self):
        freqs = np.linspace(5.0, 7.0, 101)
        trace = S21Trace(freqs, np.full(101, 0.5 + 0.0j))
        with pytest.raises(ValidationError):
            background_normalize(trace, [(4.0, 8.0)])


class TestExtractPeaks:
    def test_single_lorentzian_recovery(self):
        peaks = extract_peaks(single_peak_trace(), prominence=0.1, max_peaks=3)
        assert len(peaks) == 1
        assert abs(peaks[0].f0_GHz - 6.04) < 1e-4
        assert peaks[0].linewidth_GHz == pytest.approx(0.002, rel=0.05)
        assert peaks[0].amplitude == pytest.approx(0.9, rel=0.05)

    def test_two_overlapping_lorentzians(self):
        kappa = 0.002
        freqs = np.linspace(6.0, 6.08, 3201)
        mag = (lorentzian_mag(freqs, 6.037, kappa, 0.8, baseline=1.0)
               + lorentzian_mag(freqs, 6.043, kappa, 0.6))
        trace = S21Trace(freqs, mag.astype(complex), metadata={"normalized": True})
        peaks = extract_peaks(trace, prominence=0.1, max_peaks=4)
        assert len(peaks) == 2
        assert abs(peaks[0].f0_GHz - 6.037) < kappa / 2
        assert abs(peaks[1].f0_GHz - 6.043) < kappa / 2

    def test_no_peaks_returns_empty(self):
        freqs = np.linspace(5.0, 7.0, 301)
        trace = S21Trace(freqs, np.full(301, 1.0 + 0.0j))
        assert extract_peaks(trace, prominence=0.05, max_peaks=5) == []

    def test_max_peaks_keeps_most_prominent(self):
        freqs = np.linspace(5.9, 6.2, 4001)
        mag = (lorentzian_mag(freqs, 6.0, 0.004, 1.0, baseline=1.0)
               + lorentzian_mag(freqs, 6.1, 0.004, 0.3))
        trace = S21Trace(freqs, mag.astype(complex), metadata={"normalized": True})
        peaks = extract_peaks(trace, prominence=0.05, max_peaks=1)
        assert len(peaks) == 1
        assert abs(peaks[0].f0_GHz - 6.0) < 1e-3


    def test_window_too_small_to_fit_keeps_estimate(self, monkeypatch):
        # The narrow peak sits inside the broad peak's core, so its window
        # keeps only its own grid point: one point for four parameters.
        fitted = []
        solve = mw_mod._levenberg_marquardt

        def counting_fit(fun, jac, p0, *args):
            fitted.append(fun(p0).size)
            return solve(fun, jac, p0, *args)

        monkeypatch.setattr(mw_mod, "_levenberg_marquardt", counting_fit)
        freqs = np.linspace(5.9, 6.1, 2001)
        mag = (lorentzian_mag(freqs, 6.0, 0.02, 1.0, baseline=0.01)
               + lorentzian_mag(freqs, 6.025, 3e-4, 0.5))
        trace = S21Trace(freqs, mag.astype(complex), metadata={"normalized": True})
        broad, narrow = extract_peaks(trace, prominence=0.05, max_peaks=5)
        assert fitted and min(fitted) >= 4
        assert broad.amplitude == pytest.approx(1.0, rel=0.01)
        assert narrow.f0_GHz in freqs  # the grid maximum, not a fit
        assert narrow.f0_GHz == pytest.approx(6.025, abs=1e-4)
        assert narrow.amplitude == 0.0  # height above the one-point window


    @pytest.mark.parametrize("max_peaks", [2.5, True, 0, "three", "3", None])
    def test_max_peaks_is_a_positive_integer(self, max_peaks):
        with pytest.raises(ValidationError, match="max_peaks must be"):
            extract_peaks(single_peak_trace(), prominence=0.1, max_peaks=max_peaks)

    @pytest.mark.parametrize("prominence", [math.nan, math.inf, -0.1, "high", "0.1", None])
    def test_prominence_is_finite_and_non_negative(self, prominence):
        with pytest.raises(ValidationError, match="prominence must be"):
            extract_peaks(single_peak_trace(), prominence=prominence, max_peaks=3)


def assert_peaks_match_scipy(x, prominence):
    """Indices, prominences, bases and half-height crossings (and so widths)
    of every peak equal ``scipy.signal``'s, bit for bit."""
    peaks, prominences = mw_mod._find_peaks(x, prominence)
    want_peaks, want_prominences = scipy_find_peaks(x, prominence)
    assert np.array_equal(peaks, want_peaks)
    assert np.array_equal(bits(prominences), bits(want_prominences))
    assert [mw_mod._bases(x, p) for p in peaks] == [scipy_bases(x, p) for p in peaks]
    left, right = mw_mod._half_height_crossings(x, peaks, prominences)
    want_left, want_right = scipy_half_height_crossings(x, peaks, prominences)
    for got, want in ((left, want_left), (right, want_right),
                      (right - left, want_right - want_left)):
        assert np.array_equal(bits(got), bits(want))


# every array of length 0-5 over {0, 1, 2}: plateaus at either border and
# inside, ties between maxima, and lengths too short to hold a peak
SHORT_ARRAYS = [np.array(v, dtype=float) for n in range(6)
                for v in itertools.product((0.0, 1.0, 2.0), repeat=n)]

ARRAYS = st.one_of(
    st.lists(st.integers(0, 3), max_size=60),                   # plateaus and ties
    st.lists(st.integers(-2, 2), max_size=60).map(np.cumsum),   # random walks
    st.lists(st.floats(-1e6, 1e6), max_size=60),                # noise, -0.0 and subnormals
    # round-off about a flat background, as in a normalized trace
    st.lists(st.integers(-3, 3), max_size=60).map(lambda v: 1.0 + np.array(v) * 2.0 ** -52),
).map(lambda v: np.asarray(v, dtype=float))


class TestPeakFinding:
    """The package's peak finding against ``scipy.signal``, which it replaced."""

    @pytest.mark.parametrize("prominence", [0.0, 0.5, 1.0, 2.0])
    def test_every_short_array(self, prominence):
        for x in SHORT_ARRAYS:
            assert_peaks_match_scipy(x, prominence)

    @settings(max_examples=300)
    @given(x=ARRAYS, prominence=st.sampled_from([0.0, 2.0 ** -52, 0.5, 2.0]))
    def test_random_arrays(self, x, prominence):
        assert_peaks_match_scipy(x, prominence)

    @pytest.mark.parametrize("lv_nH, box", [(8.0, None), (60.0, None),
                                            (60.0, BoxMode(6.0, 10.0, 0.2))])
    def test_criterion8_traces(self, monkeypatch, lv_nH, box):
        trace = criterion8_trace(lv_nH, box)
        mag = np.abs(trace.s21)
        assert mw_mod._local_maxima(mag).size > 1000  # round-off maxima included
        for prominence in (0.0, 0.05):
            assert_peaks_match_scipy(mag, prominence)
        peaks = extract_peaks(trace, prominence=0.05, max_peaks=12)
        for name, oracle in SCIPY_PEAK_ROUTE.items():
            monkeypatch.setattr(mw_mod, name, oracle)
        assert extract_peaks(trace, prominence=0.05, max_peaks=12) == peaks


class TestPeakRefinement:
    """Capped Levenberg–Marquardt refinement, kept only inside its box."""

    @pytest.fixture(scope="class")
    def boxed(self):
        return criterion8_trace(60.0, box=BoxMode(6.0, 10.0, 0.2))

    def test_criterion8_peaks_match_the_golden_values(self):
        # Written by the bounded trust-region refinement this one replaced.
        golden = np.loadtxt(GOLDEN_PEAKS, delimiter=",", skiprows=1)
        assert golden[:, 4].sum() == 1
        for lv_nH in (60.0, 8.0):
            rows = golden[golden[:, 0] == lv_nH]
            peaks = extract_peaks(criterion8_trace(lv_nH), prominence=0.05, max_peaks=12)
            assert len(peaks) == len(rows)
            for peak, (_, f0, width, amp, merged) in zip(peaks, rows):
                if merged:
                    # two modes under one line: only its centre is pinned
                    assert abs(peak.f0_GHz - f0) <= 0.01 * width
                    continue
                assert abs(peak.f0_GHz - f0) <= 1e-8
                assert peak.linewidth_GHz == pytest.approx(width, rel=1e-3)
                assert peak.amplitude == pytest.approx(amp, rel=1e-3)

    def test_criterion8_windows_match_curve_fit(self, monkeypatch):
        # MINPACK's lm (differenced Jacobian) on the same residuals. On these
        # 19 windows both stop on ftol; f0 agreed to 3.0e-9 GHz, widths to
        # 1.1e-4 and amplitudes to 3.7e-5 relative, and the owned cost was
        # never above curve_fit's. The bounds are those of the golden file.
        solve, windows = mw_mod._levenberg_marquardt, []

        def compared(fun, jac, p0, *args):
            # compared here: the residuals close over the window being fitted
            fit, want = solve(fun, jac, p0, *args), curve_fit_lm(fun, p0)
            windows.append(fit)
            assert fit.status > 0 and want is not None
            assert abs(fit.x[0] - want[0]) <= 1e-8
            assert fit.x[1:3] == pytest.approx(want[1:3], rel=1e-3)
            assert np.sum(fun(fit.x) ** 2) <= np.sum(fun(want) ** 2) * (1 + 1e-9)
            return fit

        monkeypatch.setattr(mw_mod, "_levenberg_marquardt", compared)
        for lv_nH in (60.0, 8.0):
            extract_peaks(criterion8_trace(lv_nH), prominence=0.05, max_peaks=12)
        assert len(windows) == 19

    def test_every_window_stops_at_the_evaluation_cap(self, monkeypatch, boxed):
        calls = []
        lorentzian, solve = mw_mod._lorentzian, mw_mod._levenberg_marquardt

        def counting_lorentzian(f, *params):
            calls[-1] += 1
            return lorentzian(f, *params)

        def counting_fit(*args):
            calls.append(0)
            return solve(*args)

        monkeypatch.setattr(mw_mod, "_lorentzian", counting_lorentzian)
        monkeypatch.setattr(mw_mod, "_levenberg_marquardt", counting_fit)
        extract_peaks(boxed, prominence=0.05, max_peaks=12)
        assert calls and max(calls) <= 210

    def test_capped_window_keeps_its_candidate(self, boxed):
        # This window's fit converges to a 4.89 GHz Lorentzian, far outside
        # its window, so the box keeps the grid maximum.
        peaks = extract_peaks(boxed, prominence=0.05, max_peaks=12)
        nearest = min(peaks, key=lambda p: abs(p.f0_GHz - 6.0125))
        assert abs(nearest.f0_GHz - 6.0125) <= 1e-3
        assert nearest.f0_GHz in boxed.freqs

    @pytest.mark.parametrize("param, value", [
        (0, 7.0),      # centre outside the window
        (1, 1e-7),     # narrower than a tenth of the grid step
        (1, 1.0),      # wider than ten half-windows
        (1, -0.001),   # the model is even in hwhm; a negative one is outside too
        (2, -0.5),     # a dip, not a peak
        (3, -0.1),     # negative baseline
    ])
    def test_fit_outside_its_box_keeps_the_estimate(self, monkeypatch, param, value):
        trace = single_peak_trace()

        def capped(fun, jac, p0, *args):  # in its box, but stopped by the cap
            x = p0 + [1.25e-5, 0.0, 0.0, 0.0]
            return _Solution(x, fun(x), 0, 200, 40)

        monkeypatch.setattr(mw_mod, "_levenberg_marquardt", capped)
        estimate = extract_peaks(trace, prominence=0.1, max_peaks=3)
        assert estimate[0].f0_GHz == trace.freqs[np.argmax(np.abs(trace.s21))]

        def escaping(fun, jac, p0, *args):
            x = p0 + [1.25e-5, 0.0, 0.0, 0.0]  # kept if in its box
            x[param] = value
            return _Solution(x, fun(x), 2, 10, 9)

        monkeypatch.setattr(mw_mod, "_levenberg_marquardt", escaping)
        assert extract_peaks(trace, prominence=0.1, max_peaks=3) == estimate

    def test_fit_inside_its_box_is_kept(self, monkeypatch):
        def shifted(fun, jac, p0, *args):
            x = p0 + [1.25e-5, 0.0, 0.0, 0.0]
            return _Solution(x, fun(x), 2, 10, 9)

        monkeypatch.setattr(mw_mod, "_levenberg_marquardt", shifted)
        (peak,) = extract_peaks(single_peak_trace(), prominence=0.1, max_peaks=3)
        assert peak.f0_GHz == pytest.approx(6.04 + 1.25e-5, abs=1e-12)


class TestModeLinewidths:
    def test_uniform_state(self):
        hadamard = np.array([[1, 1, 1, 1], [1, -1, 1, -1],
                             [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
        from sshchain.spectral import Spectrum
        spectrum = Spectrum(np.arange(4.0), hadamard)
        kappas = mode_linewidths(spectrum, 8.0)
        assert kappas[0] == pytest.approx(8.0 * 2 / 4)

    def test_midgap_pair_carries_full_port_weight(self):
        spectrum = eigendecompose(build_tb_hamiltonian(ChainSpec(5, 6.5, 0.0, 0.5)))
        kappas = mode_linewidths(spectrum, 3.0)
        edge = np.argsort(np.abs(spectrum.eigenvalues - 6.5))[:2]
        for k in edge:
            assert kappas[k] == pytest.approx(3.0, abs=1e-9)

    def test_fully_dimerized_chain_splits_port_weight(self):
        # w = 0 pairs the end sites into dimers: half weight each, interior zero
        spectrum = eigendecompose(build_tb_hamiltonian(ChainSpec(5, 6.5, 1.0, 0.0)))
        kappas = np.sort(mode_linewidths(spectrum, 3.0))
        assert np.allclose(kappas[:6], 0.0, atol=1e-12)
        assert np.allclose(kappas[6:], 1.5, atol=1e-9)

    def test_completeness_sums_to_twice_port_rate(self):
        spectrum = eigendecompose(build_tb_hamiltonian(ChainSpec(5, 6.5, 0.3, 0.5)))
        assert float(np.sum(mode_linewidths(spectrum, 2.5))) == pytest.approx(5.0)


class TestGateSweep:
    def test_all_pinched_keeps_midgap_peak(self):
        gated = apply_gate_setting(default_circuit(), GATE, GATE.v_p, 0.0)
        eps_ref = float(np.mean(map_circuit_to_tb(gated).eps))
        freqs = np.linspace(eps_ref - 0.45, eps_ref + 0.45, 30001)
        trace = s21_trace(gated, freqs)
        normalized = background_normalize(
            trace, [(eps_ref - 0.3, eps_ref + 0.3)])
        peaks = extract_peaks(normalized, prominence=0.05, max_peaks=12)
        assert peaks, "no peaks in the pinched-phase trace"
        widest = max(peaks, key=lambda p: p.linewidth_GHz)
        assert abs(widest.f0_GHz - eps_ref) < 0.02

    def test_all_open_gives_two_bands_of_five(self):
        gated = apply_gate_setting(default_circuit(), GATE, GATE.v_o, 0.02)
        modes = circuit_mode_frequencies(gated)
        freqs = np.linspace(modes[0] - 0.2, modes[-1] + 0.2, 40001)
        trace = s21_trace(gated, freqs)
        normalized = background_normalize(
            trace, [(modes[0] - 0.05, modes[-1] + 0.05)])
        peaks = extract_peaks(normalized, prominence=0.02, max_peaks=12)
        assert len(peaks) == 10
        found = np.sort([p.f0_GHz for p in peaks])
        gap_at = int(np.argmax(np.diff(found)))
        assert gap_at == 4  # five modes below the main gap, five above

    def test_power_drives_frequencies_down_toward_topological(self):
        circuit = default_circuit()
        means = []
        tags = []
        splittings = []
        for i_s in (0.0, 0.7, 1.4, 2.0):
            gated = apply_gate_setting(circuit, GATE, GATE.v_o, i_s)
            chain = map_circuit_to_tb(gated)
            spectrum = eigendecompose(build_tb_hamiltonian(chain))
            cls = classify_modes(spectrum, float(np.mean(chain.eps)))
            means.append(float(np.mean(spectrum.eigenvalues)))
            tags.append(cls.phase_tag)
            splittings.append(cls.fsr_edge_edge)
        assert all(b < a for a, b in zip(means, means[1:]))
        assert all(b < a for a, b in zip(splittings, splittings[1:]))
        assert tags[0] == PHASE_TRIVIAL
        assert tags[-1] == PHASE_TOPOLOGICAL

    def test_joint_and_single_setting_builders(self):
        joint = joint_gate_settings(GATE, 5)
        assert joint.shape == (5, 5)
        assert np.allclose(joint[0], GATE.v_p)
        assert np.allclose(joint[-1], GATE.v_o)
        single = single_gate_settings(GATE, 2, [0.5, 1.0, 1.5])
        assert single.shape == (3, 5)
        assert np.allclose(single[:, 0], GATE.v_p[0])
        assert np.allclose(single[:, 2], [0.5, 1.0, 1.5])


class TestBoxMode:
    def test_validation(self):
        with pytest.raises(ValidationError):
            BoxMode(f_box=0.0)
        with pytest.raises(ValidationError):
            BoxMode(q_box=-1.0)
        for field in ("f_box", "q_box", "coupling"):
            for value in (math.inf, math.nan):
                with pytest.raises(ValidationError, match=f"{field} must be finite"):
                    BoxMode(**{field: value})

    def test_bandpass_away_from_chain(self):
        # pinched chain transmits almost nothing; the box passes its band
        # (the terminating shunt capacitors keep the peak below unity)
        circuit = default_circuit()
        freqs = np.linspace(4.5, 7.5, 3001)
        bare = s21_trace(circuit, freqs)
        boxed = s21_trace(circuit, freqs, box=BoxMode(6.0, 10.0, 1.0))
        k = int(np.argmin(np.abs(freqs - 6.0)))
        assert np.abs(boxed.s21[k]) > 0.3
        assert np.abs(bare.s21[k]) < 1e-3
        assert np.abs(boxed.s21[k]) > 100.0 * np.abs(bare.s21[k])

    def test_distorts_lineshape_without_moving_peaks(self):
        circuit = default_circuit(lv_nH=60.0)
        modes = circuit_mode_frequencies(circuit)
        freqs = np.linspace(modes[0] - 0.15, modes[-1] + 0.15, 30001)
        windows = [(modes[0] - 0.05, modes[-1] + 0.05)]
        plain = extract_peaks(
            background_normalize(s21_trace(circuit, freqs), windows),
            prominence=0.05, max_peaks=12)
        boxed = extract_peaks(
            background_normalize(
                s21_trace(circuit, freqs, box=BoxMode(6.0, 10.0, 0.2)), windows),
            prominence=0.05, max_peaks=12)
        for peak in plain:
            partner = min(boxed, key=lambda p: abs(p.f0_GHz - peak.f0_GHz))
            shift = abs(partner.f0_GHz - peak.f0_GHz)
            assert shift <= max(peak.linewidth_GHz, partner.linewidth_GHz)


def test_trace_outputs_and_gate_table_round_trip(tmp_path):
    circuit = default_circuit(lv_nH=40.0)
    trace = s21_trace(circuit, np.linspace(5.8, 6.4, 51), power_dBm=-30.0)
    csv_path = tmp_path / "trace.csv"
    json_path = tmp_path / "trace.json"
    write_trace_outputs(trace, csv_path, json_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "freq_GHz,re_s21,im_s21,abs_s21"
    assert len(lines) == 52
    assert '"power_dBm": -30.0' in json_path.read_text()

    table_path = tmp_path / "gate.csv"
    table_path.write_text("v_gate_V,l_nH\n0.5,120\n1.0,30\n2.0,9\n")
    table = read_gate_table_csv(table_path)
    assert table.shape == (3, 2)
    assert table[1, 1] == 30.0
    with pytest.raises(ValidationError):
        bad = tmp_path / "bad.csv"
        bad.write_text("volts,l\n1,2\n")
        read_gate_table_csv(bad)
