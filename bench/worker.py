"""Workload process of the benchmark; started by run.py, not by hand.

Sets up (imports, inputs, one untimed warm-up job per kind), prints
``BENCH READY``, then either stops (``--setup-only``), runs whole rounds
of jobs for about ``--seconds`` (``--trace 0``), or runs each job of a
fixed list once untraced and once traced (``--trace 1``). The last line
is ``BENCH RESULT <json>``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import sshchain
    if Path(sshchain.__file__).resolve().parent != SRC / "sshchain":
        raise ImportError(f"sshchain imported from {sshchain.__file__}, not {SRC}")
    return sshchain


class Runner:
    """Runs jobs one at a time in their own output directories."""

    def __init__(self, work_dir, tracer=None):
        import sshchain.cli
        import workloads
        self.cli = sshchain.cli
        self.wl = workloads
        self.work_dir = Path(work_dir)
        self.tracer = tracer
        self.count = 0
        self.pending = {}

    def execute(self, job):
        self.count += 1
        out_dir = self.work_dir / f"job{self.count:05d}"
        out_dir.mkdir(parents=True)
        if job.cli:
            cfg_path = out_dir / "config.json"
            cfg_path.write_text(json.dumps(job.config))
            argv = [job.kind, "--config", str(cfg_path), "--out-dir", str(out_dir),
                    "--label", job.label, "--threads", str(job.threads)]
        prepared = self.wl.prepare(job)
        stdout = io.StringIO()
        first_span = len(self.tracer.spans) if self.tracer else 0
        result = error = None
        if self.tracer:
            self.tracer.job = self.count
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if job.cli:
                with contextlib.redirect_stdout(stdout):
                    code = self.cli.main(argv)
                if code != 0:
                    error = f"exit code {code}"
            else:
                result = self.wl.run_library(job, prepared)
        except Exception as exc:  # a job that raises is counted as failed
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if self.tracer:
            self.tracer.job = None

        record = {"id": self.count, "kind": job.kind, "label": job.label,
                  "tag": job.tag, "items": job.items, "units": job.units,
                  "wall": wall, "cpu": cpu, "facts": {}}
        if error is None:
            try:
                ok, message, facts = self.wl.CHECKS[job.kind](
                    job, str(out_dir), result, stdout.getvalue())
            except (OSError, ValueError, KeyError, IndexError) as exc:
                error = f"unreadable output: {exc}"
                ok, message, facts = False, error, {}
            record["facts"] = facts
        else:
            ok, message = False, error
        record["error"] = error is not None
        record["ok"] = bool(ok)
        record["message"] = message
        if self.tracer:
            record["facts"].update(self._written(first_span))
        if job.pair is None:
            shutil.rmtree(out_dir)
        elif job.pair in self.pending:
            first_dir = self.pending.pop(job.pair)
            if not self.wl.same_csvs(first_dir, out_dir):
                record["ok"] = False
                record["message"] += "; CSVs differ from the --threads 1 run"
            shutil.rmtree(first_dir)
            shutil.rmtree(out_dir)
        else:
            self.pending[job.pair] = out_dir
        return record

    def _written(self, first_span):
        rows = size = 0
        for span in self.tracer.spans[first_span:]:
            if span.name in ("csvout.write_csv", "csvout.write_json"):
                size += os.path.getsize(span.extra)
                if span.name == "csvout.write_csv":
                    with open(span.extra) as fh:
                        rows += sum(1 for _ in fh) - 1
        return {"csv_rows": rows, "bytes_written": size}


def tail(times):
    """Highest whole percentile with at least ten jobs beyond it (nearest rank)."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return ordered[rank - 1], pct
    return ordered[-1], 100


def end_to_end(rounds):
    """Throughput and CPU cost are medians over rounds, which share one job mix."""
    records = [r for jobs in rounds for r in jobs]
    walls = [r["wall"] for r in records]
    failed = sum(1 for r in records if not r["ok"])
    tail_s, pct = tail(walls)
    per_round = [(sum(r["items"] for r in jobs), sum(r["wall"] for r in jobs),
                  sum(r["cpu"] for r in jobs)) for jobs in rounds]
    metrics = {
        "items_per_s": (statistics.median(i / w for i, w, _ in per_round), "items/s"),
        "job_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "job_tail_ms": (tail_s * 1e3, "ms"),
        "cpu_ms_per_item": (statistics.median(c * 1e3 / i for i, _, c in per_round), "ms"),
        "ok_ratio": ((len(records) - failed) / len(records), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, {"tail_percentile": pct, "jobs": len(records)}


def provenance(args, sshchain, nproc):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sshchain": sshchain.__version__,
        "blas": blas,
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
    }


def verdict(records):
    """Fits follow criterion 7 (at least 18 of 20 cases good); other jobs all pass."""
    if any(r["error"] for r in records):
        return False
    fits = [r["ok"] for r in records if r["kind"] == "fit"]
    others = [r["ok"] for r in records if r["kind"] != "fit"]
    return all(others) and sum(fits) >= 0.9 * len(fits)


def checks_by_kind(records):
    out = {}
    for r in records:
        passed, total = out.get(r["kind"], (0, 0))
        out[r["kind"]] = (passed + int(r["ok"]), total + 1)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sshchain = _import_package()
    import workloads
    import tracer as tracing

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        warm = Runner(work_dir / "warmup")
        for job in workloads.warmup_jobs(args.workload, args.seed, nproc):
            warm.execute(job)
        print("BENCH READY", flush=True)
        if args.setup_only:
            return 0

        out = {"provenance": provenance(args, sshchain, nproc)}
        if args.trace == 0:
            runner = Runner(work_dir / "timed")
            rounds = []
            begin = time.perf_counter()
            while True:
                started = time.perf_counter()
                rounds.append([runner.execute(job) for job in workloads.round_jobs(
                    args.workload, args.seed, len(rounds), nproc)])
                now = time.perf_counter()
                if now - begin + (now - started) > args.seconds:
                    break
            metrics, out["tail"] = end_to_end(rounds)
            out["rounds"] = len(rounds)
            out["jobs"] = [[i, r["kind"], r["tag"], r["wall"], r["cpu"], r["items"], r["ok"]]
                           for i, jobs in enumerate(rounds) for r in jobs]
            records = [r for jobs in rounds for r in jobs]
        else:
            # Each job runs untraced and traced back to back, alternating
            # which goes first, so neither host-speed drift nor the second
            # run's warm caches lean the overhead estimate one way.
            recorder = tracing.Tracer()
            untraced = Runner(work_dir / "untraced")
            traced = Runner(work_dir / "traced", recorder)
            plain, records = [], []
            for i, job in enumerate(workloads.trace_jobs(args.workload, args.seed, nproc)):
                for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                    if side == 0:
                        plain.append(untraced.execute(job))
                    else:
                        with recorder.installed():
                            records.append(traced.execute(job))
            untraced_s = sum(r["wall"] for r in plain)
            overhead = 100.0 * (sum(r["wall"] for r in records) - untraced_s) / untraced_s
            jobs = {r["id"]: r for r in records}
            metrics = tracing.layer_metrics(recorder.spans, jobs,
                                            recorder.linalg_calls, overhead)
            trace_dir = ROOT / ".bench_run" / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            recorder.write(trace_dir / f"{args.workload}-seed{args.seed}.json", jobs)
            records = plain + records
        out["provenance"]["jobs"] = {k: v[1] for k, v in checks_by_kind(records).items()}
        out.update({
            "metrics": metrics,
            "attempted": len(records),
            "failed": sum(1 for r in records if not r["ok"]),
            "correct": verdict(records),
            "checks": checks_by_kind(records),
            "failures": [f"{r['kind']} {r['label']} {r['tag']}: {r['message']}"
                         for r in records if not r["ok"]][:20],
        })
        print("BENCH RESULT " + json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
