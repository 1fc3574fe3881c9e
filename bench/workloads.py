"""Benchmark inputs, jobs and per-job correctness checks.

A workload is a sequence of rounds; a round is a fixed list of jobs, so
every round has the same job-time mix and whole rounds keep the median and
tail of job times comparable between runs. A job is one ``sshchain`` CLI
call on a generated config, or one library pipeline where the CLI cannot
reach a layer (peak extraction).

Round ``r`` of workload ``w`` draws its inputs from
``numpy.random.default_rng([seed, w, r])``; the same seed gives the same
inputs. Two inputs are fixed instead, for the reasons given where they are
built: the fits' start points and the circuit of the boxed peak pipeline.
The thresholds in the checks are those of the acceptance criteria named
next to them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from sshchain import chain as chain_mod
from sshchain import estimation as est_mod
from sshchain import microwave as mw_mod

WORKLOADS = ("ensemble", "transmission")
CLI_KINDS = frozenset({"fit", "disorder", "sweep", "winding", "s21",
                       "gatesweep", "powersweep"})

# Fits: the first criterion-7 start point, on both sides of the 22 nH
# phase boundary.
FIT_LV_NH = (8.0, 12.0, 30.0, 60.0)
FIT_CASE = 0

PEAK_POINTS = 40001
S21_POINTS = 20001
GATE_POINTS = 4001
GATE_STEPS = 11
POWER_POINTS = 9
SWEEP_POINTS = 191
DISORDER_SAMPLES = 200
BOX = (6.0, 10.0, 0.2)
GATE = {"mode": "parametric", "v_p_V": 0.4, "v_o_V": 1.8,
        "l_min_nH": 9.0, "i_star_uA": 1.0}


@dataclass
class Job:
    """One unit of timed work: a CLI config or library inputs, and check parameters."""

    kind: str
    label: str
    items: int
    tag: str = "t1"
    threads: int = 1
    config: Optional[dict] = None
    params: dict = field(default_factory=dict)
    units: dict = field(default_factory=dict)
    pair: Optional[str] = None

    @property
    def cli(self) -> bool:
        return self.kind in CLI_KINDS


def circuit_dict(lv_nH, scale=1.0, n_cells=5) -> dict:
    """Uniform reference circuit; ``scale`` multiplies every capacitance.

    Scaling c0 and cw together keeps the v = w balance at
    lv = l0*c0/cw = 22 nH and shifts all frequencies by 1/sqrt(scale).
    """
    return {
        "n_cells": n_cells,
        "c0_fF": [660.0 * scale] * (2 * n_cells),
        "l0_nH": [1.0] * (2 * n_cells),
        "lv_nH": [lv_nH] * n_cells,
        "cw_fF": [30.0 * scale] * (n_cells + 1),
    }


def _pair(kind, label, items, nproc, config, params=None, units=None):
    """The same config at --threads 1 and at --threads nproc, back to back."""
    return [Job(kind, label, items, tag, threads, config, dict(params or {}),
                dict(units or {}), pair=label)
            for tag, threads in (("t1", 1), ("tN", nproc))]


def _fit_config(case, lv_nH):
    truth = chain_mod.default_circuit(lv_nH=lv_nH)
    u = np.random.default_rng([77, case]).uniform(-1.0, 1.0, 10)
    start = chain_mod.CircuitSpec(5, truth.c0 * (1 + 0.05 * u), truth.l0,
                                  truth.lv, truth.cw)
    return {
        "label": f"c{case}-lv{lv_nH:g}",
        "fit": {
            "targets_GHz": [float(f) for f in est_mod.model_eigenfrequencies(truth)],
            "start": start.to_dict(),
            "free": {"c0": True, "l0": False, "cw": False, "lv": False},
        },
        "max_restarts": 5, "target_rms_GHz": 5e-7, "multi_start": 8,
    }


def _fits(rng, nproc):
    # The start point is a fixed criterion-7 case, not drawn from the seed,
    # which only orders the fits. One fit takes 0.1-2.7 s depending on its
    # start point (2-vCPU Xeon VM): with seeded start points, fits/s moved
    # ~14% and the median job ~35% between seeds, as one run holds only ~30
    # distinct fits.
    jobs = []
    for i in rng.permutation(len(FIT_LV_NH)):
        config = _fit_config(FIT_CASE, FIT_LV_NH[i])
        jobs += _pair("fit", config["label"], 1, nproc, config)
    return jobs


def ensemble_round(seed, r, nproc):
    """Fits, N=50 disorder ensembles, the default lv sweep, N=100/200 winding.

    Every job runs at --threads 1 and then at --threads nproc.
    """
    rng = np.random.default_rng([seed, 1, r])
    jobs = _fits(rng, nproc)
    for phase, v in (("topological", 0.01), ("trivial", 1.0)):
        for targets in (["v", "w"], ["v", "w", "eps"]):
            label = f"r{r}-{phase}-{''.join(targets)}"
            config = {
                "label": label,
                "chain": {"n_cells": 50, "eps_GHz": 6.5, "v_GHz": v, "w_GHz": 0.5},
                "disorder": {"strength": 0.1, "targets": targets,
                             "samples": DISORDER_SAMPLES,
                             "seed": int(rng.integers(2 ** 31))},
            }
            jobs += _pair("disorder", label, DISORDER_SAMPLES, nproc, config,
                          {"phase": phase, "chiral": targets == ["v", "w"]},
                          {"samples": DISORDER_SAMPLES})
    label = f"r{r}-default"
    jobs += _pair("sweep", label, SWEEP_POINTS, nproc, {
        "label": label,
        "circuit": circuit_dict("inf", float(rng.uniform(0.9, 1.1))),
        "lv_grid": {"start_nH": 5.0, "stop_nH": 100.0, "step_nH": 0.5},
    })
    for n_cells, nu, lo, hi in ((100, 1.0, 0.05, 0.3), (200, 0.0, 1.5, 3.0)):
        w = float(rng.uniform(0.4, 0.6))
        label = f"r{r}-n{n_cells}"
        jobs += _pair("winding", label, 1, nproc, {
            "label": label, "method": "real-space",
            "chain": {"n_cells": n_cells, "eps_GHz": float(rng.uniform(6.0, 7.0)),
                      "v_GHz": w * float(rng.uniform(lo, hi)), "w_GHz": w},
        }, {"nu": nu})
    return jobs


def _grid(start, stop, points, scale):
    return {"start_GHz": start / np.sqrt(scale), "stop_GHz": stop / np.sqrt(scale),
            "points": points}


def transmission_round(seed, r, nproc):
    """Criterion-8 peak pipelines, an S21 trace, a gate sweep, a power sweep."""
    rng = np.random.default_rng([seed, 2, r])
    scale = float(rng.uniform(0.95, 1.05))
    lv_topo = float(rng.uniform(50.0, 100.0))
    lv_triv = float(rng.uniform(6.0, 14.0))
    jobs = [
        Job("pipeline", f"r{r}-topological", PEAK_POINTS,
            params={"circuit": circuit_dict(lv_topo, scale), "peaks": 9}),
        Job("pipeline", f"r{r}-trivial", PEAK_POINTS,
            params={"circuit": circuit_dict(lv_triv, scale), "peaks": 10}),
        # The boxed extraction runs on the criterion-8 circuit itself: its
        # cost moved 0.5-10 s with lv over 40-100 nH (2-vCPU Xeon VM), which
        # would swamp every other job of the round.
        Job("pipeline_box", f"r{r}-criterion8", 2 * PEAK_POINTS,
            params={"circuit": circuit_dict(60.0), "peaks": 9}),
    ]
    label = f"r{r}-s21"
    jobs.append(Job("s21", label, S21_POINTS, config={
        "label": label, "circuit": circuit_dict(lv_topo, scale),
        "freqs": _grid(5.75, 6.45, S21_POINTS, scale), "z0_ohm": 50.0,
        "box": {"f_box_GHz": BOX[0], "q_box": BOX[1], "coupling": BOX[2]},
    }))
    label = f"r{r}-gates"
    jobs += _pair("gatesweep", label, GATE_STEPS * GATE_POINTS, nproc, {
        "label": label, "circuit": circuit_dict("inf", scale), "gate": dict(GATE),
        "sweep": {"kind": "joint", "steps": GATE_STEPS}, "i_s_uA": 0.0,
        "freqs": _grid(5.5, 7.2, GATE_POINTS, scale), "emit_traces": True,
    }, units={"settings": GATE_STEPS})
    label = f"r{r}-power"
    jobs.append(Job("powersweep", label, 0, config={
        "label": label, "circuit": circuit_dict("inf", scale), "gate": dict(GATE),
        "setting_V": "open",
        "i_s_grid": {"start_uA": 0.0, "stop_uA": 2.0, "points": POWER_POINTS},
        "freqs": _grid(5.5, 7.2, 2001, scale), "emit_traces": False,
    }))
    return jobs


def round_jobs(workload, seed, r, nproc):
    """The jobs of round ``r``: identical for identical arguments."""
    if workload == "ensemble":
        return ensemble_round(seed, r, nproc)
    if workload == "transmission":
        return transmission_round(seed, r, nproc)
    raise ValueError(f"unknown workload {workload!r}")


def trace_jobs(workload, seed, nproc):
    """The fixed job list of a traced run, so its counts repeat exactly."""
    rounds = 2 if workload == "transmission" else 1
    return [j for r in range(rounds) for j in round_jobs(workload, seed, r, nproc)]


def warmup_jobs(workload, seed, nproc):
    """One job per kind, run untimed before the clock starts."""
    jobs = round_jobs(workload, seed, 0, nproc)
    if workload == "ensemble":
        # the quickest of the four fits
        jobs.insert(0, Job("fit", "warmup", 1, config=_fit_config(FIT_CASE, 30.0)))
    seen = {}
    for job in jobs:
        seen.setdefault(job.kind, job)
    return list(seen.values())


# ---------------------------------------------------------------- pipelines

def _peak_pipeline(circuit, box):
    modes = mw_mod.circuit_mode_frequencies(circuit)
    freqs = np.linspace(modes[0] - 0.15, modes[-1] + 0.15, PEAK_POINTS)
    trace = mw_mod.s21_trace(circuit, freqs, box=box)
    normalized = mw_mod.background_normalize(
        trace, [(modes[0] - 0.05, modes[-1] + 0.05)])
    return modes, mw_mod.extract_peaks(normalized, prominence=0.05, max_peaks=12)


def prepare(job):
    """Library inputs built before the clock starts."""
    if job.cli:
        return None
    circuit = chain_mod.CircuitSpec.from_dict(job.params["circuit"])
    return circuit, mw_mod.BoxMode(*BOX)


def run_library(job, prepared):
    circuit, box = prepared
    if job.kind == "pipeline":
        return _peak_pipeline(circuit, None)
    return _peak_pipeline(circuit, None), _peak_pipeline(circuit, box)


# ------------------------------------------------------------------- checks

def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        return header, [line.rstrip("\n").split(",") for line in fh]


def _worst_linewidth_ratio(modes, peaks):
    return max(float(np.min(np.abs(modes - p.f0_GHz))) / p.linewidth_GHz
               for p in peaks)


def _criterion8(modes, peaks, expected):
    """Peak count and every peak within one fitted linewidth of a mode."""
    if len(peaks) != expected:
        return False, f"{len(peaks)} peaks, expected {expected}"
    worst = _worst_linewidth_ratio(modes, peaks)
    return worst <= 1.0, f"worst peak-to-mode distance {worst:.3f} linewidths"


def check_fit(job, out_dir, result, stdout):
    doc = _read_json(os.path.join(out_dir, f"fit_{job.label}.json"))
    residual = doc["residual_rms_kHz"]
    spread = doc["disorder_report_pct"]["c0"]
    facts = {"evaluations": doc["evaluations"], "restarts": doc["restarts"],
             "clamped": doc["clamped"], "converged": int(bool(doc["converged"]))}
    ok = residual < 1.0 and spread < 0.1          # criterion 7
    return ok, f"residual {residual:.4f} kHz, c0 spread {spread:.5f}%", facts


def check_disorder(job, out_dir, result, stdout):
    doc = _read_json(os.path.join(out_dir, f"disorder_{job.label}.json"))
    _, rows = _read_csv(os.path.join(out_dir, f"disorder_{job.label}.csv"))
    nus = [float(row[1]) for row in rows]
    mean = doc["mean_nu"]
    ok = len(nus) == DISORDER_SAMPLES and abs(np.mean(nus) - mean) <= 1e-9
    if job.params["chiral"]:                       # criterion 6
        ok = ok and (mean > 0.9 if job.params["phase"] == "topological" else mean < 0.1)
    return ok, f"{job.params['phase']} mean nu {mean:.5f} over {len(nus)} samples", {}


def check_sweep(job, out_dir, result, stdout):
    fields = dict(part.split("=", 1) for part in stdout.split())
    points = int(fields.get("points", -1))
    crossing = fields.get("crossing_lv_nH", "none")
    ok = (points == SWEEP_POINTS and crossing != "none"
          and abs(float(crossing) - 22.0) <= 0.5)  # criterion 2
    return ok, f"{points} points, crossing at {crossing} nH", {}


def check_winding(job, out_dir, result, stdout):
    nu = _read_json(os.path.join(out_dir, f"winding_{job.label}.json"))["nu"]
    ok = abs(nu - job.params["nu"]) < 0.05         # criterion 4
    return ok, f"nu {nu:.5f}, expected {job.params['nu']:g}", {}


def check_pipeline(job, out_dir, result, stdout):
    modes, peaks = result
    ok, msg = _criterion8(modes, peaks, job.params["peaks"])
    return ok, msg, {}


def check_pipeline_box(job, out_dir, result, stdout):
    (modes, plain), (_, boxed) = result
    ok, msg = _criterion8(modes, plain, job.params["peaks"])
    worst = 0.0
    for peak in plain:
        partner = min(boxed, key=lambda p: abs(p.f0_GHz - peak.f0_GHz))
        worst = max(worst, abs(partner.f0_GHz - peak.f0_GHz)
                    / max(peak.linewidth_GHz, partner.linewidth_GHz))
    ok = ok and worst <= 1.0                       # criterion 8, box mode
    return ok, f"{msg}; box shift {worst:.3f} linewidths", {}


def check_s21(job, out_dir, result, stdout):
    header, rows = _read_csv(os.path.join(out_dir, f"s21_{job.label}.csv"))
    meta = _read_json(os.path.join(out_dir, f"s21_{job.label}.json"))
    values = np.array(rows, dtype=float)
    cfg = job.config
    grid = np.linspace(cfg["freqs"]["start_GHz"], cfg["freqs"]["stop_GHz"],
                       cfg["freqs"]["points"])
    box = mw_mod.BoxMode(*BOX)
    reference = mw_mod.s21_trace(chain_mod.CircuitSpec.from_dict(cfg["circuit"]),
                                 grid, z0=cfg["z0_ohm"], box=box)
    if header != ["freq_GHz", "re_s21", "im_s21", "abs_s21"] \
            or values.shape != (S21_POINTS, 4) or meta["n_points"] != S21_POINTS:
        return False, f"trace shape {values.shape}", {}
    deviation = float(np.max(np.abs(values[:, 3] - np.abs(reference.s21))))
    peak = float(np.max(values[:, 3]))
    ok = peak <= 1.0 + 1e-6 and deviation <= 1e-9
    return ok, f"max |S21| {peak:.6f}, CSV vs library {deviation:.1e}", {}


def check_gatesweep(job, out_dir, result, stdout):
    _, rows = _read_csv(os.path.join(out_dir, f"gatesweep_{job.label}_summary.csv"))
    traces = sorted(f for f in os.listdir(out_dir)
                    if f.startswith(f"gatesweep_{job.label}_trace") and f.endswith(".csv"))
    lengths = {len(_read_csv(os.path.join(out_dir, f))[1]) for f in traces}
    tags = [row[-1] for row in rows]
    ok = (len(rows) == GATE_STEPS and len(traces) == GATE_STEPS
          and lengths == {GATE_POINTS}
          and tags[0] == "topological" and tags[-1] == "trivial")
    return ok, f"{len(traces)} traces, phases {tags[0]} -> {tags[-1]}", {}


def check_powersweep(job, out_dir, result, stdout):
    _, rows = _read_csv(os.path.join(out_dir, f"powersweep_{job.label}.csv"))
    lv = np.array([[float(x) for x in row[1:6]] for row in rows])
    tags = [row[-1] for row in rows]
    ok = (len(rows) == POWER_POINTS and bool(np.all(np.diff(lv, axis=0) > 0))
          and tags[0] == "trivial" and tags[-1] == "topological")  # criterion 9
    return ok, f"phases {tags[0]} -> {tags[-1]}", {}


CHECKS = {
    "fit": check_fit,
    "disorder": check_disorder,
    "sweep": check_sweep,
    "winding": check_winding,
    "pipeline": check_pipeline,
    "pipeline_box": check_pipeline_box,
    "s21": check_s21,
    "gatesweep": check_gatesweep,
    "powersweep": check_powersweep,
}


def same_csvs(dir_a, dir_b):
    """Criterion 10: the CSVs of one config are byte-identical across threads."""
    names_a = sorted(f for f in os.listdir(dir_a) if f.endswith(".csv"))
    names_b = sorted(f for f in os.listdir(dir_b) if f.endswith(".csv"))
    if names_a != names_b:
        return False
    for name in names_a:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True
