"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workloads cycle_default,plan_m30 --seeds 1-10 [--trace 1] [--json out.json]

Runs perfbench/run.py one run at a time, with BENCHMARK.json's run_seconds.
For each workload and metric it prints the median over the seeds and the
spread: the distance between the first and third quartile (as
statistics.quantiles(values, n=4) gives them) as a share of the median,
next to the metric's bound. Raw values go to --json when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(raw: str) -> list[int]:
    if "-" in raw:
        lo, hi = raw.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in raw.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    raw: dict[str, dict[str, list[float]]] = {}
    ok = True
    for workload in args.workloads.split(","):
        values = raw.setdefault(workload, {})
        for seed in parse_seeds(args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed} ({wall:.0f} s): " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    print(f"{'workload':14} {'metric':32} {'median':>12} {'spread':>8} {'bound':>6}")
    for workload, metrics in raw.items():
        for name, vals in metrics.items():
            med = statistics.median(vals)
            spread = float("nan")
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / abs(med)
            bound = bounds.get(name)
            flag = "" if bound is None or not spread > bound / 3 else (" OVER" if spread > bound else " >1/3")
            print(f"{workload:14} {name:32} {med:12.6g} {spread:8.4f} {bound if bound is not None else '':>6}{flag}")
    if args.json:
        args.json.write_text(json.dumps(raw, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
