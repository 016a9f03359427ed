"""pass-uav benchmark: one run of one workload.

    python3 perfbench/run.py --workload cycle_default --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the library is imported from its src/ and
nothing is installed. The workload runs in a worker process of its own
(perfbench/worker.py), so its set-up time and peak memory are its alone.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones. setup_s is the median of SETUP_SAMPLES fresh worker start-ups (import,
input generation, solver warm-up), each timed from process start to the
worker's READY line. With --trace 1 they are the per-layer metrics of a
separate traced run. The exit code is non-zero when a request fails, the
correctness gate misses, or the checkout holds no pass_uav sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cycle_default", "plan_m30")
SETUP_SAMPLES = 5
# Every worker is killed at this point, so a run ends within 180 s.
TIME_LIMIT_S = 170.0
# One thread everywhere: the library is single-threaded Python, and extra
# BLAS threads would only add noise.
WORKER_ENV = {
    "PYTHONDONTWRITEBYTECODE": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def start_worker(argv: list[str], deadline: float) -> tuple[float | None, list[str], int]:
    """Run worker.py; return (seconds from start to READY, other stdout lines, exit code)."""
    env = dict(os.environ, **WORKER_ENV)
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), *argv],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    watchdog = threading.Timer(max(0.0, deadline - monotonic()), proc.kill)
    watchdog.start()
    setup, lines = None, []
    try:
        for line in proc.stdout:
            if setup is None and line.strip() == "READY":
                setup = perf_counter() - t0
            else:
                lines.append(line.rstrip("\n"))
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        code = proc.wait()
        proc.stdout.close()
    return setup, lines, code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "pass_uav" / "__init__.py").is_file():
        print(f"no pass_uav sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = monotonic() + TIME_LIMIT_S
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        setup, lines, code = start_worker(argv + ["--setup-only"], deadline)
        if code != 0 or setup is None:
            print(f"set-up failed (exit {code})", *lines, sep="\n", file=sys.stderr)
            return 1
        setups.append(setup)
    setup, lines, code = start_worker(argv, deadline)
    if code != 0 or setup is None or not lines or not lines[-1].startswith("RESULT "):
        print(f"worker failed (exit {code})", *lines, sep="\n", file=sys.stderr)
        return 1
    setups.append(setup)

    result = json.loads(lines[-1][len("RESULT "):])
    correct = result["failed"] == 0
    metrics = result["metrics"]
    if correct and not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    if "info" in result:
        print("info: " + ", ".join(f"{k}={v:.6g}" for k, v in result["info"].items()))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
