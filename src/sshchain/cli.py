"""Command-line front end: JSON config in, CSV/JSON artifacts out.

Each subcommand reads one JSON config document (optionally patched by
dotted ``--set`` overrides), validates it against a strict key schema,
dispatches into the library and writes ``<command>_<label>.*`` files into
the output directory. A runner is a generator that reads and checks every
input up to its first ``yield``, where ``--dry-run`` stops; a run then makes
the output directory and resumes it to solve, write and yield the summary.
Every run is serial: ``--threads`` and the config key ``threads`` are
accepted and validated (>= 1) but have no effect, so identical config and
seed produce byte-identical CSVs whatever they are set to. Config values
that cannot be converted to the number they stand for, or that fall outside
their range, fail validation with exit code 1 and an error naming their
dotted config key.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import chain as chain_mod
from . import estimation as est_mod
from . import microwave as mw_mod
from . import spectral as spec_mod
from . import topology as topo_mod
from .chain import MAX_POINTS, _number, _numbers
from .csvout import fmt, write_csv, write_json
from .errors import NumericalError, ValidationError

OUT_DIR_ENV = "SSHCHAIN_OUT_DIR"

_CIRCUIT_KEYS = chain_mod.CircuitSpec._json_keys()
_CHAIN_KEYS = chain_mod.ChainSpec._json_keys()
_GATE_KEYS = {"mode", "v_p_V", "v_o_V", "l_min_nH", "i_star_uA", "table_csv", "table"}
# (BoxMode field, config key) pairs; the defaults are BoxMode's own
_BOX_FIELDS = (("f_box", "f_box_GHz"), ("q_box", "q_box"), ("coupling", "coupling"))
_BOX_KEYS = {key for _, key in _BOX_FIELDS}
_FREQ_KEYS = ("start_GHz", "stop_GHz", "points")  # all required
_COMMON_KEYS = {"label", "out_dir", "seed", "threads"}
_CHAIN_OR_CIRCUIT = {"chain": _CHAIN_KEYS, "circuit": _CIRCUIT_KEYS}  # see _chain_from

SCHEMAS = {
    "spectrum": {**_CHAIN_OR_CIRCUIT, "eps_ref_GHz": None},
    "sweep": {"circuit": _CIRCUIT_KEYS,
              "lv_grid": {"start_nH", "stop_nH", "step_nH", "values_nH"},
              "cells": None},
    "winding": {"method": None, "v_GHz": None, "w_GHz": None,
                **_CHAIN_OR_CIRCUIT, "eps_ref_GHz": None},
    "ipr": _CHAIN_OR_CIRCUIT,
    "disorder": {**_CHAIN_OR_CIRCUIT,
                 "disorder": {"strength", "targets", "samples", "seed"}},
    "s21": {"circuit": _CIRCUIT_KEYS, "freqs": _FREQ_KEYS, "z0_ohm": None,
            "box": _BOX_KEYS, "power_dBm": None},
    "gatesweep": {"circuit": _CIRCUIT_KEYS, "gate": _GATE_KEYS,
                  "sweep": {"kind", "steps", "junction", "start_V", "stop_V",
                            "points", "settings_V"},
                  "i_s_uA": None, "freqs": _FREQ_KEYS, "z0_ohm": None,
                  "box": _BOX_KEYS, "emit_traces": None},
    "powersweep": {"circuit": _CIRCUIT_KEYS, "gate": _GATE_KEYS,
                   "setting_V": None,
                   "i_s_grid": {"start_uA", "stop_uA", "points", "values_uA"},
                   "freqs": _FREQ_KEYS, "z0_ohm": None, "box": _BOX_KEYS,
                   "emit_traces": None},
    "fit": {"fit": set(est_mod._FIT_PROBLEM_KEYS),
            "options": {f.name for f in fields(est_mod.FitOptions)},
            "max_restarts": None, "target_rms_GHz": None, "multi_start": None},
}


def _validate_keys(node, schema, path):
    """Reject unknown keys at the top level and in sections; no silent ignores.

    A section the schema lists keys for must be an object; any other value
    there raises ValidationError naming its dotted key.
    """
    problems = []
    for key, value in node.items():
        if key not in schema:
            problems.append(f"{path}.{key}")
        elif schema[key] is not None:
            if not isinstance(value, dict):
                raise ValidationError(f"{path}.{key} must be an object, got {value!r}")
            problems.extend(f"{path}.{key}.{k}" for k in value if k not in schema[key])
    return problems


def _parse_set(expr: str):
    if "=" not in expr:
        raise ValidationError(f"--set needs key=value, got {expr!r}")
    key, raw = expr.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _apply_override(config: dict, dotted: str, value):
    parts = dotted.split(".")
    node = config
    for i, part in enumerate(parts[:-1]):
        if isinstance(node, list):
            node = node[_list_index(node, part, dotted)]
        elif isinstance(node, dict):
            node = node.setdefault(part, {})
        else:
            raise ValidationError(
                f"--set {dotted}: cannot descend into scalar at {'.'.join(parts[:i])}")
    last = parts[-1]
    if isinstance(node, list):
        node[_list_index(node, last, dotted)] = value
    elif isinstance(node, dict):
        node[last] = value
    else:
        raise ValidationError(f"--set {dotted}: target is not settable")


def _list_index(node, part, dotted):
    try:
        idx = int(part)
    except ValueError:
        raise ValidationError(
            f"--set {dotted}: {part!r} is not a list index") from None
    if not (0 <= idx < len(node)):
        raise ValidationError(f"--set {dotted}: index {idx} out of range")
    return idx


def _flag(config, key, default):
    """A boolean config value; a string such as ``"no"`` is not one."""
    value = config.get(key, default)
    if not isinstance(value, bool):
        raise ValidationError(f"{key} must be true or false, got {value!r}")
    return value


def _require(config, key, command):
    if key not in config:
        raise ValidationError(f"'{command}' config needs '{key}'")
    return config[key]


def _linspace(section, name, keys, defaults, min_points) -> np.ndarray:
    """The evenly spaced grid of config section ``name``; ``keys`` are its start,
    stop and point count, each from ``section``, else ``defaults``, else an error."""
    for key in keys:
        if key not in section and key not in defaults:
            raise ValidationError(f"{name} needs '{key}'")
    start, stop, points = (section.get(key, defaults.get(key)) for key in keys)
    points = _number(points, f"{name}.{keys[2]}", integer=True, minimum=min_points,
                     maximum=MAX_POINTS)
    return np.linspace(_number(start, f"{name}.{keys[0]}"),
                       _number(stop, f"{name}.{keys[1]}"), points)


@contextlib.contextmanager
def _read_as(keys):
    """Restate a library reader's error about value ``name`` under its config
    key ``keys[name]``; other errors pass unchanged."""
    try:
        yield
    except ValidationError as exc:
        if exc.name not in keys:
            raise
        raise exc.renamed(keys[exc.name]) from None


def _spec_keys(cls, section) -> dict:
    """The dotted config key of each field of spec ``cls`` read from ``section``."""
    return {"n_cells": f"{section}.n_cells",
            **{name: f"{section}.{key}" for name, key in cls._JSON_KEYS}}


def _spec_from(cls, config, section, command, classified=False):
    with _read_as(_spec_keys(cls, section)):
        spec = cls.from_dict(_require(config, section, command))
        if classified:
            spec_mod._check_modes(spec.n_sites)
    return spec


def _chain_from(config, command, classified=False) -> chain_mod.ChainSpec:
    if "chain" in config:
        return _spec_from(chain_mod.ChainSpec, config, "chain", command, classified)
    if "circuit" in config:
        return chain_mod.map_circuit_to_tb(
            _spec_from(chain_mod.CircuitSpec, config, "circuit", command, classified))
    raise ValidationError(f"'{command}' config needs 'chain' or 'circuit'")


def _trace_inputs(config, command) -> dict:
    """The checked ``freqs``, ``z0`` and ``box`` arguments of a transmission trace."""
    grid = _linspace(_require(config, "freqs", command), "freqs", _FREQ_KEYS, {}, 2)
    box = config.get("box")
    if box is not None:
        with _read_as({name: f"box.{key}" for name, key in _BOX_FIELDS}):
            box = mw_mod.BoxMode(**{name: box[key] for name, key in _BOX_FIELDS if key in box})
    with _read_as({"frequency grid": "freqs", "port impedance": "z0_ohm"}):
        freqs, z0 = mw_mod._port_inputs(grid, config.get("z0_ohm", 50.0))
    return {"freqs": freqs, "box": box, "z0": z0}


def _gate_from(config, command, n_junctions) -> mw_mod.GateModel:
    gate = _require(config, "gate", command)
    mode = gate.get("mode", "parametric")
    tables = None
    if "table_csv" in gate:
        path = gate["table_csv"]
        if not os.path.isfile(path):
            raise ValidationError(f"gate table file not found: {path}")
        tables = mw_mod.read_gate_table_csv(path)
    elif "table" in gate:
        tables = gate["table"]
    with _read_as({"v_p": "gate.v_p_V", "v_o": "gate.v_o_V", "l_min": "gate.l_min_nH",
                   "i_star": "gate.i_star_uA", "v_p < v_o": "gate.v_p_V < gate.v_o_V"}):
        return mw_mod.GateModel(
            n_junctions=n_junctions,
            v_p=gate.get("v_p_V", 0.0),
            v_o=gate.get("v_o_V", 1.0),
            l_min=gate.get("l_min_nH", 9.0),
            i_star=gate.get("i_star_uA", 1.0),
            mode=mode,
            tables=tables,
        )


def _run_spectrum(config, stem):
    chain = _chain_from(config, "spectrum", classified=True)
    eps_ref = _number(config.get("eps_ref_GHz", np.mean(chain.eps)), "eps_ref_GHz")
    yield
    spectrum = spec_mod.eigendecompose(chain_mod.build_tb_hamiltonian(chain))
    cls = spec_mod.classify_modes(spectrum, eps_ref)
    write_csv(f"{stem}.csv", ["mode_index", "freq_GHz", "label"],
              [range(spectrum.n_sites), spectrum.eigenvalues, cls.labels])
    write_json(f"{stem}.json", {
        "eps_ref_GHz": eps_ref,
        "fsr_edge_bulk_GHz": cls.fsr_edge_bulk,
        "fsr_edge_edge_GHz": cls.fsr_edge_edge,
        "phase_tag": cls.phase_tag,
    })
    yield (f"phase={cls.phase_tag} fsr_edge_bulk_GHz={fmt(cls.fsr_edge_bulk)} "
           f"fsr_edge_edge_GHz={fmt(cls.fsr_edge_edge)}")


def _run_sweep(config, stem):
    circuit = _spec_from(chain_mod.CircuitSpec, config, "circuit", "sweep", classified=True)
    grid_cfg = _require(config, "lv_grid", "sweep")
    if "values_nH" in grid_cfg:
        grid_key = "lv_grid.values_nH"
        grid = chain_mod._from_json_values(grid_cfg["values_nH"], grid_key)
    else:
        grid_key = "lv_grid"
        start, stop, step = (_number(_require(grid_cfg, key, "lv_grid"), f"lv_grid.{key}")
                             for key in ("start_nH", "stop_nH", "step_nH"))
        if step <= 0 or stop < start:
            raise ValidationError("lv_grid needs step_nH > 0 and stop >= start")
        # at most MAX_POINTS grid points, checked before any is made
        _number((stop - start) / step + 1, "lv_grid point count", allow_inf=True,
                maximum=MAX_POINTS)
        grid = np.arange(start, stop + step / 2, step)
    with _read_as({"lv grid": grid_key}):
        grid, cells = spec_mod._sweep_axes(circuit, grid, config.get("cells"))
    yield
    sweep = spec_mod.sweep_coupling(circuit, grid, cells=cells)
    spec_mod.write_sweep_csv(sweep, f"{stem}.csv", f"{stem}_summary.csv")
    crossing = spec_mod.find_fsr_crossing(sweep)
    found = "crossing=none" if crossing is None else f"crossing_lv_nH={fmt(crossing)}"
    yield f"points={len(sweep)} {found}"


def _run_winding(config, stem):
    method = config.get("method", "k-space")
    if method == "k-space":
        with _read_as({"v": "v_GHz", "w": "w_GHz", "v and w": "v_GHz and w_GHz"}):
            v, w = topo_mod._bloch_hops(
                *(_require(config, key, "winding") for key in ("v_GHz", "w_GHz")))
        yield
        result = topo_mod.winding_number_k_space(v, w)
    elif method == "real-space":
        chain = _chain_from(config, "winding")
        eps_ref = _number(config.get("eps_ref_GHz", np.mean(chain.eps)), "eps_ref_GHz")
        yield
        result = topo_mod._chain_winding(chain, eps_ref)
    else:
        raise ValidationError(
            f"method must be 'k-space' or 'real-space', got {method!r}")
    write_json(f"{stem}.json", {
        "nu": result.nu,
        "method": result.method,
        "chain_length": result.chain_length,
    })
    yield f"nu={fmt(result.nu)} method={result.method}"


def _run_ipr(config, stem):
    chain = _chain_from(config, "ipr")
    yield
    spectrum = spec_mod.eigendecompose(chain_mod.build_tb_hamiltonian(chain))
    values = [topo_mod.ipr(spectrum.eigenvectors[:, k])
              for k in range(spectrum.n_sites)]
    write_csv(f"{stem}.csv", ["mode_index", "freq_GHz", "ipr"],
              [range(spectrum.n_sites), spectrum.eigenvalues, values])
    yield f"modes={len(values)} ipr_min={fmt(min(values))} ipr_max={fmt(max(values))}"


def _run_disorder(config, stem):
    chain = _chain_from(config, "disorder")
    cfg = _require(config, "disorder", "disorder")
    seed = cfg.get("seed", config.get("seed"))  # --seed has overwritten both
    if seed is None:
        raise ValidationError("disorder runs need a seed (config 'seed' or --seed)")
    # a top-level seed was read as an integer, all DisorderConfig asks of it
    with _read_as({name: f"disorder.{name}" for name in ("strength", "samples", "seed")}):
        dconf = topo_mod.DisorderConfig(
            strength=cfg.get("strength", 0.1),
            targets=cfg.get("targets", ("v", "w")),
            samples=cfg.get("samples", 100),
            seed=seed,
        )
    yield
    result = topo_mod.disorder_ensemble(chain, dconf)
    topo_mod.write_ensemble_outputs(result, f"{stem}.csv", f"{stem}.json")
    yield (f"mean_nu={fmt(result.mean_nu)} std_nu={fmt(result.std_nu)} "
           f"rejections={result.rejections}")


def _run_s21(config, stem):
    circuit = _spec_from(chain_mod.CircuitSpec, config, "circuit", "s21")
    inputs = {**_trace_inputs(config, "s21"), "power_dBm": mw_mod._power(config.get("power_dBm"))}
    yield
    trace = mw_mod.s21_trace(circuit, **inputs)
    mw_mod.write_trace_outputs(trace, f"{stem}.csv", f"{stem}.json")
    yield f"points={trace.freqs.size} abs_s21_max={fmt(float(np.max(np.abs(trace.s21))))}"


def _gate_settings_from(config, model):
    sweep = _require(config, "sweep", "gatesweep")
    kind = sweep.get("kind", "joint")
    if kind == "joint":
        return mw_mod.joint_gate_settings(model, sweep.get("steps", 11))
    if kind == "single":
        if "junction" not in sweep:
            raise ValidationError("single gate sweep needs 'junction'")
        j = mw_mod._junction_index(model, sweep["junction"])
        voltages = _linspace(sweep, "sweep", ("start_V", "stop_V", "points"),
                             {"start_V": model.v_p[j], "stop_V": model.v_o[j], "points": 11}, 1)
        return mw_mod.single_gate_settings(model, j, voltages)
    if kind == "explicit":
        if "settings_V" not in sweep:
            raise ValidationError("explicit gate sweep needs 'settings_V'")
        settings = _numbers(sweep["settings_V"], "sweep.settings_V")
        if settings.ndim != 2 or settings.shape[1] != model.n_junctions:
            raise ValidationError(f"sweep.settings_V must be (n_settings, "
                                  f"{model.n_junctions}), got {settings.shape}", "sweep.settings_V")
        return settings
    raise ValidationError(
        f"sweep.kind must be joint, single or explicit, got {kind!r}")


def _gated_sweep(config, stem, command, circuit, model, keys, points, emit_traces):
    """Gate ``circuit`` once per ``(voltages, i_s, metadata)`` point and classify it.

    Used with ``yield from``: before the yield the points are gated, the gate
    model's errors named by the config ``keys``, and the trace inputs read.
    Each trace records its gate setting and signal current and the point's
    ``metadata``. With ``emit_traces`` every S21 trace is computed before the
    first is written, so a numerical failure leaves no partial trace files.
    Returns the gated circuits and their classifications.
    """
    inputs = _trace_inputs(config, command)
    table_key = "gate.table_csv" if "table_csv" in config["gate"] else "gate.table"
    with _read_as({**keys, "gate table": table_key}):
        gated = [mw_mod.apply_gate_setting(circuit, model, v, i_s) for v, i_s, _ in points]
    yield
    classes = [cls for _, _, cls in spec_mod._classified(gated)]
    if emit_traces:
        traces = [mw_mod.s21_trace(g, **inputs, metadata={
            "gate_setting_V": [float(v) for v in voltages], "i_s_uA": float(i_s), **meta})
            for g, (voltages, i_s, meta) in zip(gated, points)]
        for k, trace in enumerate(traces):
            mw_mod.write_trace_outputs(
                trace, f"{stem}_trace{k:03d}.csv", f"{stem}_trace{k:03d}.json")
    return gated, classes


def _run_gatesweep(config, stem):
    circuit = _spec_from(chain_mod.CircuitSpec, config, "circuit", "gatesweep", classified=True)
    model = _gate_from(config, "gatesweep", circuit.n_cells)
    with _read_as({"steps": "sweep.steps", "junction index": "sweep.junction"}):
        settings = _gate_settings_from(config, model)
    i_s = config.get("i_s_uA", 0.0)
    emit_traces = _flag(config, "emit_traces", True)
    _, classes = yield from _gated_sweep(
        config, stem, "gatesweep", circuit, model, {"signal current": "i_s_uA"},
        [(v, i_s, {"setting_index": k}) for k, v in enumerate(settings)], emit_traces)
    header = (["setting_index"] + [f"v_g{j}_V" for j in range(circuit.n_cells)]
              + spec_mod._PHASE_HEADER)
    write_csv(f"{stem}_summary.csv", header, [range(len(settings))] + list(settings.T)
              + spec_mod._phase_columns(classes))
    yield f"settings={len(settings)} traces_written={len(settings) if emit_traces else 0}"


def _run_powersweep(config, stem):
    circuit = _spec_from(chain_mod.CircuitSpec, config, "circuit", "powersweep", classified=True)
    model = _gate_from(config, "powersweep", circuit.n_cells)
    voltages = config.get("setting_V", "open")  # a list is read when it is applied
    if isinstance(voltages, str):
        if voltages not in ("open", "pinch"):
            raise ValidationError(
                f"setting_V must be 'open', 'pinch' or a voltage list, got {voltages!r}")
        voltages = model.v_o if voltages == "open" else model.v_p
    grid_cfg = _require(config, "i_s_grid", "powersweep")
    grid_key = "i_s_grid.values_uA" if "values_uA" in grid_cfg else "i_s_grid"
    if "values_uA" in grid_cfg:
        i_grid = _numbers(grid_cfg["values_uA"], grid_key)
    else:
        _require(grid_cfg, "stop_uA", "i_s_grid")
        i_grid = _linspace(grid_cfg, "i_s_grid", ("start_uA", "stop_uA", "points"),
                           {"start_uA": 0.0, "points": 9}, 1)
    if i_grid.ndim != 1 or i_grid.size == 0:
        raise ValidationError("i_s_grid holds no signal current (need a non-empty list)")
    gated, classes = yield from _gated_sweep(
        config, stem, "powersweep", circuit, model,
        {"gate voltages": "setting_V", "signal current": grid_key},
        [(voltages, i_s, {}) for i_s in i_grid], _flag(config, "emit_traces", False))
    header = (["i_s_uA"] + [f"lv{j}_nH" for j in range(circuit.n_cells)]
              + spec_mod._PHASE_HEADER)
    lv = np.array([g.lv for g in gated])
    write_csv(f"{stem}.csv", header,
              [i_grid] + list(lv.T) + spec_mod._phase_columns(classes))
    yield (f"points={len(i_grid)} phase_first={classes[0].phase_tag} "
           f"phase_last={classes[-1].phase_tag}")


def _run_fit(config, stem):
    start = _spec_keys(chain_mod.CircuitSpec, "fit.start")
    keys = {**start, "free": "fit.free", "bounds": "fit.bounds"}
    for name in est_mod.PARAM_FAMILIES:
        keys.update({f"{name} bounds": f"fit.bounds.{name}", f"free.{name}": f"fit.free.{name}",
                     f"start {name}": start[name]})
    with _read_as(keys):
        problem = est_mod.fit_problem_from_dict(_require(config, "fit", "fit"))
    with _read_as({f.name: f"options.{f.name}" for f in fields(est_mod.FitOptions)}):
        options = est_mod.FitOptions(**config.get("options", {}))
    settings = {key: config[key] for key in ("max_restarts", "target_rms_GHz", "multi_start")
                if key in config}
    est_mod._fit_settings(**settings)
    yield
    result = est_mod.fit_circuit_params(problem, options=options, **settings)
    est_mod.write_fit_outputs(result, f"{stem}.json", f"{stem}_sites.csv",
                              f"{stem}_couplings.csv")
    yield (f"residual_rms_kHz={fmt(result.residual_rms_kHz)} "
           f"converged={result.converged} restarts={result.restarts}")


RUNNERS = {
    "spectrum": _run_spectrum,
    "sweep": _run_sweep,
    "winding": _run_winding,
    "ipr": _run_ipr,
    "disorder": _run_disorder,
    "s21": _run_s21,
    "gatesweep": _run_gatesweep,
    "powersweep": _run_powersweep,
    "fit": _run_fit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sshchain",
        description="Bosonic SSH chain simulator: spectra, topology, "
                    "transmission and parameter estimation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="dotted-path config override, e.g. circuit.lv_nH.2=15")
        p.add_argument("--out-dir", help=f"output directory (default ${OUT_DIR_ENV} or .)")
        p.add_argument("--label", help="output file label (default: timestamp)")
        p.add_argument("--seed", help="override the config seed")
        p.add_argument("--threads",
                       help="accepted for compatibility (>= 1); has no effect, "
                            "every run is serial")
        p.add_argument("--dry-run", action="store_true",
                       help="read and check every config value, then print the "
                            "resolved config without computing or writing")
    return parser


def _resolve_config(args) -> dict:
    """The config file, patched by ``--set``, then by the flags, then defaults."""
    config = {}
    if args.config:
        if not os.path.isfile(args.config):
            raise ValidationError(f"config file not found: {args.config}")
        with open(args.config) as fh:
            try:
                config = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"config is not valid JSON: {exc}") from None
        if not isinstance(config, dict):
            raise ValidationError("config document must be a JSON object")
    for expr in args.set:
        _apply_override(config, *_parse_set(expr))
    schema = dict(SCHEMAS[args.command])
    schema.update({k: None for k in _COMMON_KEYS})
    problems = _validate_keys(config, schema, args.command)
    if problems:
        raise ValidationError(f"unknown config keys: {', '.join(sorted(problems))}")
    flags = {key: getattr(args, key) for key in _COMMON_KEYS if getattr(args, key) is not None}
    flags.update(_parse_set(f"{key}={flags[key]}") for key in ("threads", "seed") if key in flags)
    for values in (config, flags):  # a flag does not hide a malformed config value
        for key in ("out_dir", "label"):
            if key in values and not (isinstance(values[key], str) and values[key]):
                raise ValidationError(f"{key} must be a non-empty string, got {values[key]!r}")
        if "threads" in values:
            _number(values["threads"], "threads", integer=True, minimum=1)
        if "seed" in values:
            _number(values["seed"], "seed", integer=True)
    config.update(flags)
    if "seed" in flags and "seed" in config.get("disorder", {}):
        _number(config["disorder"]["seed"], "disorder.seed", integer=True)
        config["disorder"]["seed"] = flags["seed"]  # the flag wins over the config
    config.setdefault("out_dir", os.environ.get(OUT_DIR_ENV) or ".")
    config.setdefault("label", time.strftime("%Y%m%dT%H%M%S"))
    config.setdefault("threads", 1)
    # os.makedirs cannot make out_dir where it, or what exists above it, is a file
    existing = os.path.abspath(config["out_dir"])
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ValidationError(f"out_dir cannot be made: {existing} is not a directory", "out_dir")
    return config


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing does not change it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        run = RUNNERS[args.command](
            config, os.path.join(config["out_dir"], f"{args.command}_{config['label']}"))
        next(run)  # the read step
        if args.dry_run:
            print(json.dumps(config, indent=2, sort_keys=True))
            return 0
        try:
            os.makedirs(config["out_dir"], exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"output directory not writable: {exc}") from None
        summary = next(run)  # the compute step
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
