"""sshchain benchmark.

    python3 bench/run.py --workload ensemble|transmission \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, never from an installed copy. Each workload runs in its own
process, one job at a time (a closed loop with a single caller). ``--trace 0`` reports the end-to-end metrics: set-up time is the
median of three set-ups, each timed from process start to ready (two
set-up-only processes and the measuring one). ``--trace 1`` runs a fixed
job list untraced, then traced, and reports per-layer metrics.

The output is one line per metric (name, value, unit), the check verdicts
and the run's provenance, and as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A copy of
everything goes to ``.bench_run/results/``; a traced run also writes its
spans to ``.bench_run/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ("ensemble", "transmission")
SETUP_SAMPLES = 3
DEADLINE_S = 175.0


def run_worker(args, extra, budget):
    """Start one workload process; return (exit code, set-up seconds, result)."""
    work = RUN_DIR / f"work-{args.workload}-{os.getpid()}-{time.monotonic_ns()}"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work)] + extra
    ready = result = None
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(budget, 1.0), proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            if line.startswith("BENCH READY"):
                ready = time.perf_counter() - start
            elif line.startswith("BENCH RESULT "):
                result = json.loads(line[len("BENCH RESULT "):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(work, ignore_errors=True)
    return code, ready, result


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    return 2


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="sshchain benchmark", formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sshchain" / "__init__.py").is_file():
        return fail(f"no sshchain sources under {ROOT / 'src'}")
    began = time.perf_counter()
    RUN_DIR.mkdir(exist_ok=True)

    setups = []
    if args.trace == 0:
        for _ in range(SETUP_SAMPLES - 1):
            code, ready, _ = run_worker(args, ["--setup-only"], 60.0)
            if code != 0 or ready is None:
                return fail(f"set-up process exited with code {code}")
            setups.append(ready)
    code, ready, result = run_worker(args, [], DEADLINE_S - (time.perf_counter() - began))
    if code != 0 or result is None:
        return fail(f"workload process exited with code {code} and no result")

    metrics = dict(result["metrics"])
    if args.trace == 0:
        setups.append(ready)
        metrics["setup_s"] = (statistics.median(setups), "s")
        result["setup_samples_s"] = setups

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:<52} {value:>16.6g} {unit}")
    if "tail" in result:
        print(f"  job_tail_ms is p{result['tail']['tail_percentile']} "
              f"of {result['tail']['jobs']} jobs; {result['rounds']} rounds")
    print(f"  fail_ratio {result['failed'] / result['attempted']:.4g} "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    for kind, (passed, total) in sorted(result["checks"].items()):
        print(f"  check {kind:<14} {passed}/{total} passed")
    for line in result["failures"]:
        print(f"  failed: {line}")
    print(f"  correct: {result['correct']}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))

    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    results_dir = RUN_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
