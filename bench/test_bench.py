"""Self-tests of the benchmark: input generation, checkers and tracer hygiene.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import sshchain  # noqa: E402
import sshchain.cli  # noqa: E402,F401
import sshchain.topology  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

NPROC = 2


def _inputs(workload, seed):
    return [(job.kind, job.label, job.threads, json.dumps(job.config, sort_keys=True),
             json.dumps(job.params, sort_keys=True))
            for r in range(2) for job in workloads.round_jobs(workload, seed, r, NPROC)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)


def test_rounds_differ_within_a_run():
    first, second = (workloads.round_jobs("ensemble", 7, r, NPROC) for r in (0, 1))
    assert [j.config for j in first] != [j.config for j in second]


def test_thread_pairs_share_a_config():
    jobs = workloads.round_jobs("ensemble", 3, 0, NPROC)
    pairs = {}
    for job in jobs:
        if job.pair is not None:
            pairs.setdefault(job.pair, []).append(job)
    assert pairs
    for pair in pairs.values():
        assert [j.threads for j in pair] == [1, NPROC]
        assert pair[0].config == pair[1].config


def _fit_output(tmp_path, residual_kHz):
    job = next(j for j in workloads.round_jobs("ensemble", 0, 0, NPROC) if j.kind == "fit")
    doc = {"residual_rms_kHz": residual_kHz, "disorder_report_pct": {"c0": 0.01},
           "evaluations": 1000, "restarts": 0, "clamped": 0, "converged": True}
    (tmp_path / f"fit_{job.label}.json").write_text(json.dumps(doc))
    return job


def test_fit_check_rejects_a_5_kHz_residual(tmp_path):
    job = _fit_output(tmp_path, 5.0)
    ok, message, _ = workloads.check_fit(job, str(tmp_path), None, "")
    assert not ok, message


def test_fit_check_accepts_a_sub_kHz_residual(tmp_path):
    job = _fit_output(tmp_path, 0.4)
    ok, message, _ = workloads.check_fit(job, str(tmp_path), None, "")
    assert ok, message


def test_trace_csvs_differing_by_one_byte_are_rejected(tmp_path):
    a, b = tmp_path / "t1", tmp_path / "tN"
    a.mkdir()
    b.mkdir()
    body = "freq_GHz,re_s21,im_s21,abs_s21\n6.0,0.5,0.25,0.559016994375\n"
    (a / "gatesweep_x_trace000.csv").write_text(body)
    (b / "gatesweep_x_trace000.csv").write_text(body)
    assert workloads.same_csvs(a, b)
    (b / "gatesweep_x_trace000.csv").write_text(body.replace("0.25", "0.26"))
    assert not workloads.same_csvs(a, b)


def _bindings():
    """Every function-valued attribute of the package's modules and solvers."""
    import numpy.linalg
    import scipy.linalg
    owners = [m for n, m in sys.modules.items()
              if n == "sshchain" or n.startswith("sshchain.")]
    owners += [numpy.linalg, scipy.linalg]
    return {(owner.__name__, key): value for owner in owners
            for key, value in vars(owner).items() if callable(value)}


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    flatband = sshchain.topology.flatband
    before = _bindings()
    recorder = tracing.Tracer()
    with recorder.installed():
        assert sshchain.topology.flatband is not flatband
        assert sshchain.flatband is not flatband
        runner = worker.Runner(tmp_path, recorder)
        jobs = [j for j in workloads.round_jobs("ensemble", 1, 0, NPROC)
                if j.kind == "winding"]
        records = [runner.execute(job) for job in jobs]
    assert sshchain.topology.flatband is flatband
    assert _bindings() == before
    assert all(r["ok"] for r in records), [r["message"] for r in records]
    names = {s.name for s in recorder.spans}
    assert {"cli.main", "topology.winding_number_real_space",
            "topology.flatband", "csvout.write_json"} <= names
    assert recorder.linalg_calls >= len(jobs)


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("job failed")
    assert _bindings() == before


def test_self_time_subtracts_overlapping_children():
    parent = tracing.Span(1, "p", None, 1)
    parent.t0, parent.t1 = 0.0, 10.0
    kids = []
    for i, (t0, t1) in enumerate(((1.0, 4.0), (2.0, 5.0), (8.0, 12.0))):
        kid = tracing.Span(2 + i, "c", 1, 1)
        kid.t0, kid.t1 = t0, t1
        kids.append(kid)
    assert tracing.self_times([parent] + kids)[1] == pytest.approx(10.0 - 4.0 - 2.0)


def test_tail_has_ten_jobs_beyond_it():
    value, pct = worker.tail([float(i) for i in range(1, 101)])
    assert (value, pct) == (90.0, 90)
