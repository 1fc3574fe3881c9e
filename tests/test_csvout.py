"""The CSV writer: cell renderings and frozen output bytes.

The files under ``tests/golden/`` were written by the row-at-a-time CSV
writer that the column-wise one replaced; every case below must still
reproduce them byte for byte. The %-template is the oracle of the
vectorized float renderer.
"""

import json
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sshchain import (GateModel, apply_gate_setting, csvout, default_circuit,
                      joint_gate_settings, s21_trace)
from sshchain.chain import CircuitSpec
from sshchain.cli import main
from sshchain.csvout import fmt, write_csv
from sshchain.estimation import FitResult, write_fit_outputs
from sshchain.microwave import write_trace_outputs
from sshchain.spectral import sweep_coupling, write_sweep_csv

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


@pytest.fixture
def renderer_calls(monkeypatch):
    """The row counts of the blocks that went through the float renderer."""
    calls = []

    def spy(columns):
        calls.append(len(columns[0]))
        return render(columns)

    render = csvout._render
    monkeypatch.setattr(csvout, "_render", spy)
    return calls


@pytest.mark.parametrize("rows", [csvout._RENDER_MIN_ROWS, 5000])
def test_long_float_tables_render_like_fmt(tmp_path, renderer_calls, rows):
    rng = np.random.default_rng(rows)
    specials = [math.inf, -math.inf, math.nan, -0.0, 0.0, 1 / 3, 1e-300, 2.5e17, 5e-324]
    floats = [np.resize(specials, rows), rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 14, rows),
              np.linspace(5.75, 6.45, rows), rng.uniform(-1, 1, rows).astype(np.float32)]
    path = tmp_path / "floats.csv"
    write_csv(path, ["a", "b", "c", "d"], floats)
    assert path.read_text().splitlines()[1:] == [
        ",".join(fmt(float(x)) for x in row) for row in zip(*floats)]
    assert sum(renderer_calls) == rows and max(renderer_calls) <= csvout._BLOCK_ROWS


def test_long_mixed_table_renders_like_fmt(tmp_path, renderer_calls):
    rows = 2 * csvout._RENDER_MIN_ROWS
    values = np.linspace(0.0, 1.0, rows)
    path = tmp_path / "mixed.csv"
    write_csv(path, ["k", "x"], [range(rows), values])
    assert path.read_text().splitlines()[1:] == [f"{k},{fmt(x)}" for k, x in
                                                 enumerate(values.tolist())]
    assert renderer_calls == [rows]


@pytest.mark.parametrize("column", [
    [True, False], [0, 10**12], [-10**12, 0], ["edge", "a\0b"], ["edge", "\u00e9"],
    [b"edge", b"bulk"], [None, "edge"],
], ids=["bool", "int 10**12", "int -10**12", "NUL", "non-ASCII", "bytes", "object"])
def test_long_table_with_an_unrenderable_column_stays_on_the_template(
        tmp_path, renderer_calls, column):
    rows = 2 * csvout._RENDER_MIN_ROWS
    values = np.linspace(0.0, 1.0, rows)
    cells = np.resize(np.array(column, dtype=object), rows)
    path = tmp_path / "mixed.csv"
    write_csv(path, ["x", "c"], [values, cells.tolist()])
    assert path.read_text() == "x,c\n" + template_rows([values, cells.tolist()])
    assert renderer_calls == []


def test_integer_bound_of_the_renderer(tmp_path, renderer_calls):
    rows = csvout._RENDER_MIN_ROWS
    for top, calls in ((10**12 - 1, [rows]), (10**12, [])):
        renderer_calls.clear()
        column = np.arange(rows) * (top // (rows - 1))
        column[-1], column[0] = top, -top
        write_csv(tmp_path / "k.csv", ["k"], [column])
        assert (tmp_path / "k.csv").read_text() == "k\n" + "".join(f"{k}\n" for k in
                                                                 column.tolist())
        assert renderer_calls == calls


def gate_trace_columns():
    """The columns of the first trace of the benchmark's gate sweep.

    The first setting of the joint sweep pinches every junction off, and
    99% of its S21 cells are scientific; the shipped gate sweep config
    writes none.
    """
    model = GateModel(5, v_p=0.4, v_o=1.8, l_min=9.0, i_star=1.0)
    circuit = apply_gate_setting(default_circuit(), model, joint_gate_settings(model, 11)[0])
    trace = s21_trace(circuit, np.linspace(5.5, 7.2, 4001))
    re, im = trace.s21.real, trace.s21.imag
    return trace, [trace.freqs, re, im, np.hypot(re, im)]


def test_scientific_gate_trace_renders_like_the_template(tmp_path):
    trace, columns = gate_trace_columns()
    path = tmp_path / "trace.csv"
    write_trace_outputs(trace, path, tmp_path / "trace.json")
    lines = path.read_text().splitlines()
    assert lines[1:] == template_rows(columns).splitlines()
    s21_cells = [cell for line in lines[1:] for cell in line.split(",")[1:]]
    assert sum("e" in cell for cell in s21_cells) >= 0.99 * len(s21_cells)


def test_second_trace_write_allocates_only_its_block_bytes(tmp_path):
    # Every pass of the renderer writes into its workspace. What a block
    # still allocates is its rows of words as bytes and those bytes without
    # their NULs, ~310 KB here; the renderer that made fresh temporaries for
    # each pass peaked 1,875 KB above the base on this trace.
    _, columns = gate_trace_columns()
    header = ["freq_GHz", "re_s21", "im_s21", "abs_s21"]
    write_csv(tmp_path / "first.csv", header, columns)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_csv(tmp_path / "second.csv", header, columns)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 400 * 1024
    assert (tmp_path / "second.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()


def template_rows(columns):
    """``write_csv``'s %-template rendering: ``'%.12g' % float(x)`` for each
    float cell, ``'%s' % x`` for every other cell."""
    columns = [np.asarray(c) for c in columns]
    template = ",".join("%.12g" if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
    return "".join(map(template.__mod__, zip(*(c.tolist() for c in columns))))


def assert_renders_like_template(columns):
    columns = [np.asarray(c) for c in columns]
    renderable = csvout._renderable(columns)
    assert renderable is not None
    assert csvout._render(renderable) == template_rows(columns).encode()


def tables(elements):
    """1-4 equal-length columns of 1-40 ``elements``."""
    return st.integers(1, 40).flatmap(
        lambda rows: st.lists(st.lists(elements, min_size=rows, max_size=rows),
                              min_size=1, max_size=4))


def near_tie(k, e, ulps, sign):
    """sign·(k + 1/2)·10**(e-11), correctly rounded, then moved by ``ulps`` ulps."""
    x = float(Fraction(sign * (2 * k + 1), 2) * Fraction(10) ** (e - 11))
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return x


class TestFloatRenderer:
    @given(tables(st.floats(width=64)))
    def test_arbitrary_doubles(self, columns):
        assert_renders_like_template(columns)

    @settings(max_examples=50)
    @given(tables(st.builds(near_tie, st.integers(10**11, 10**12 - 1), st.integers(-290, 290),
                            st.integers(-4, 4), st.sampled_from([1, -1]))))
    def test_near_ties(self, columns):
        assert_renders_like_template(columns)

    @pytest.mark.parametrize("width", [16, 32])
    @given(data=st.data())
    def test_narrow_float_columns(self, width, data):
        # every bit pattern: subnormals, infinities and quiet and signalling NaNs
        columns = data.draw(tables(st.integers(0, 2**width - 1)))
        assert_renders_like_template([np.array(c, dtype=f"uint{width}").view(f"float{width}")
                                      for c in columns])

    def test_g_boundaries_and_specials(self):
        edges = [9.99999999999e-5, 1e-4, 999999999999.5, 1e12, 9.9999999999996e-5,
                 0.99999999999951, 999999999999.4, 999999999999.6, 1e-290, 1e290]
        values = [y for x in edges for y in (np.nextafter(x, 0), x, np.nextafter(x, math.inf))]
        values += [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308,
                   2.2250738585072014e-308]
        values += [-x for x in values]
        assert_renders_like_template([values, values[::-1]])
        assert csvout._render([np.array([9.99999999999e-5, 1e-4, 1e12])]) == \
            b"9.99999999999e-05\n0.0001\n1e+12\n"

    def test_bulk_doubles_near_ties_and_powers_of_ten(self):
        rng = np.random.default_rng(12)
        bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
        k = rng.integers(10**11, 10**12, 100_000)
        e = rng.integers(-290, 291, 100_000)
        ties = (k + 0.5) * 10.0 ** (e - 11)
        ties += rng.integers(-4, 5, ties.size) * np.spacing(ties)
        powers = 10.0 ** rng.integers(-300, 301, 100_000)
        powers *= 1 + rng.integers(-50, 50, powers.size) * 1e-14
        for block in range(0, 100_000, 20_000):
            assert_renders_like_template([c[block:block + 20_000]
                                          for c in (bits, ties, -ties, powers)])

    def test_short_blocks_after_the_workspace_grew(self):
        rng = np.random.default_rng(23)
        wide = rng.standard_normal((4, 20_000)) * 10.0 ** rng.integers(-12, 14, (4, 20_000))
        assert_renders_like_template(wide)
        for rows in range(1, 41):
            for ncols in (1, 3):
                # narrow fixed cells beside scientific ones and zeros, in
                # buffers that hold the words of wider blocks
                scale = 10.0 ** rng.choice([-9, 1, 3, 14], (ncols, rows))
                values = rng.uniform(-10, 10, (ncols, rows)).round(2) * scale
                values[:, ::7] = 0.0
                assert_renders_like_template(values)

    def test_decade_table_brackets_every_rendered_exponent(self):
        # |x| in [2**(b-1023), 2**(b-1022)) lies in decade e_floor[b] or the next one
        for b in range(60, 1987):
            e = int(csvout._tables().e_floor[b])
            assert Fraction(10) ** e <= Fraction(2) ** (b - 1023)
            assert Fraction(2) ** (b - 1022) <= Fraction(10) ** (e + 2)


ASCII_TEXT = st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=12)


class TestIntegerAndTextColumns:
    @given(tables(st.integers(-10**12 + 1, 10**12 - 1)))
    def test_integers_below_10_to_the_12(self, columns):
        assert_renders_like_template(columns)

    @given(tables(ASCII_TEXT))
    def test_ascii_text(self, columns):
        assert_renders_like_template(columns)

    @given(st.integers(1, 40).flatmap(lambda rows: st.lists(
        st.sampled_from([st.floats(width=64), st.integers(-10**12 + 1, 10**12 - 1), ASCII_TEXT])
        .flatmap(lambda cells: st.lists(cells, min_size=rows, max_size=rows)),
        min_size=1, max_size=4)))
    def test_mixed_columns(self, columns):
        assert_renders_like_template(columns)

    def test_empty_text_cells(self):
        assert_renders_like_template([["", "", ""], [1, -2, 3]])
        assert_renders_like_template([[0.5, 1.0], ["", ""], ["", "x"]])
        assert_renders_like_template([["", ""], ["", ""]])

    def test_sweep_mode_table(self, tmp_path, renderer_calls):
        sweep = sweep_coupling(default_circuit(), np.arange(5.0, 100.01, 0.5))
        write_sweep_csv(sweep, tmp_path / "modes.csv", tmp_path / "summary.csv")
        lines = (tmp_path / "modes.csv").read_text().splitlines()
        assert lines[1:] == [f"{fmt(lv)},{k},{fmt(f)},{label}" for lv, freqs, labels in zip(
                                 sweep.lv_nH.tolist(), sweep.eigenvalues.tolist(),
                                 sweep.classification.labels.tolist())
                             for k, (f, label) in enumerate(zip(freqs, labels))]
        assert renderer_calls == [1910]


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
