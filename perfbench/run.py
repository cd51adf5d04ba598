"""ghzw benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload {canonical,window,mixed,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; nothing needs installing.  The
workload runs in a fresh process (worker.py) with BLAS pinned to one
thread.  Untraced, set-up is measured SETUP_SAMPLES times (fresh
processes that stop at the first timed operation, plus the measured
run itself) and the median is reported.  Lines before the last name
each metric with its unit; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("canonical", "window", "mixed", "cli")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

#: no extra threads: one operation at a time on one core
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def call_worker(args, deadline):
    """Run worker.py; return (monotonic start, parsed last stdout line)."""
    env = dict(os.environ, **ENV)
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("worker timed out")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return start, json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ghzw benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ghzw", "__init__.py")):
        print(f"error: no ghzw sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]

    if args.trace:
        _, result = call_worker(common + ["--trace", "1"], deadline)
    else:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            start, probe = call_worker(common + ["--setup-only"], deadline)
            setups.append(probe["ready"] - start)
        start, result = call_worker(common + ["--trace", "0"], deadline)
        setups.append(result["ready"] - start)
        result["metrics"]["setup_s"] = [statistics.median(setups), "s"]

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    for name, (value, unit) in {**result["named"], **result["metrics"]}.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    final = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": dict(sorted(metrics.items())),
    }
    os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
    with open(os.path.join(HERE, "_out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({**final, "raw": result["named"]}, fh, indent=1)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
