"""One benchmark workload, run in a process of its own by run.py.

The worker imports pass_uav from the checkout's src/, builds the workload's
inputs from the seed, warms the solvers and prints READY; run.py times that
set-up from outside. It then runs requests in a closed loop (one at a time,
no think time) until the first pass over the inputs is done and --seconds
have passed. The correctness gate runs after the loop, outside the timed
region. The last line is RESULT and a JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import pass_uav  # noqa: E402
from pass_uav import activation as act  # noqa: E402
from pass_uav import harness, propagation, route_planner  # noqa: E402
from pass_uav import link_budget as lb  # noqa: E402
from pass_uav import scenario as scen  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

REL_TOL = 1e-12
# The loop gives up here, so that the gate and run.py still end within 180 s.
LOOP_DEADLINE_S = 130.0
OUT_DIR = ROOT / "perfbench" / "out"
# The library's default activator is its exact one ("bnb" at the seed).
EXACT = harness.StrategySpec().activator


def panel_seeds(seed: int, count: int) -> list[int]:
    return [seed * 1000 + i for i in range(count)]


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def not_above(a: float, b: float) -> bool:
    return a <= b * (1.0 + REL_TOL)


def warm_solvers(seed: int, activators) -> None:
    """First calls of each per-slot activator (HiGHS start-up, lru caches).

    A small K=8 instance keeps this cheap and steady; the workload's own
    inputs stay untouched until the timed loop.
    """
    s = scen.generate_scenario(seed, 4, pa_count=8)
    plan = lb.discretize(s, route_planner.nearest_neighbor(s))
    position = plan.slots[plan.flying_indices()[0]].position_m
    problem = act.ActivationProblem.from_scenario(s, position)
    spec = harness.StrategySpec()
    for name in activators:
        if name == "mimo":
            harness.mimo_required_power(s, spec.mimo, position)
        else:
            harness.solve_slot(problem, name, spec)


class CycleWorkload:
    """Full `simulate` cycles: plan, discretize, every activator, costing, writes.

    The inputs are a panel of scenarios drawn from the seed; request i runs
    scenario i mod panel.
    """

    def __init__(self, name, seed, nodes, panel, activators):
        self.name, self.seed, self.nodes, self.panel = name, seed, nodes, panel
        self.activators = activators
        self.spec = harness.StrategySpec(activator=activators[0])
        self.out = OUT_DIR / f"{name}-{os.getpid()}"

    def prepare(self) -> None:
        self.items = [scen.generate_scenario(s, self.nodes) for s in panel_seeds(self.seed, self.panel)]
        warm_solvers(self.seed, self.activators)

    def run(self, item: int):
        scenario = self.items[item]
        output = harness.run_dlo(scenario, self.spec, extra_activators=self.activators[1:])
        self._write(scenario, output)
        return output

    def _write(self, scenario, output) -> None:
        """The files `pass-uav simulate` writes, through the same writers."""
        d, spec = self.out, self.spec
        d.mkdir(parents=True, exist_ok=True)
        harness.write_tour_json(d / "tour.json", output.tour, spec.planner, scenario.rng_seed)
        harness.write_slots_csv(d / "slots.csv", output.slot_plan)
        lb.write_energy_csv(d / "energy.csv", output.slot_plan, output.reports,
                            mimo_elements=spec.mimo.element_count)
        lb.write_energy_json(d / "energy.json", output.reports)
        if output.planner_trace:
            harness.write_planner_trace_csv(d / "hao_trace.csv", output.planner_trace)
        slots = output.slot_plan.slots
        rows = [
            (i, float(propagation.pa_distances(scenario, slots[i].position_m).min()),
             output.reports[0].per_slot_power_w[i])
            for i in output.slot_plan.flying_indices()
        ]
        harness.write_distance_trace_csv(d / "trace_distance.csv", rows)

    def fingerprint(self) -> tuple[str, int]:
        """Digest and size of the files the last cycle wrote."""
        h, size = hashlib.sha256(), 0
        for path in sorted(self.out.iterdir()):
            data = path.read_bytes()
            h.update(path.name.encode() + b"\0" + data)
            size += len(data)
            path.unlink()
        return h.hexdigest(), size

    def check(self, item: int, output) -> dict:
        """Oracle and dominance checks on one cycle.

        Every slot the cycle solves (flying slots and slot 0) is compared with
        exhaustive enumeration. Without an exact activator in the cycle the
        oracle's own cycle energy stands in for the exact one.
        """
        scenario, plan = self.items[item], output.slot_plan
        reports = {r.strategy_name: r for r in output.reports}
        exact = reports.get(EXACT)
        c = {"misses": [], "compared": 0, "matched": 0}
        best: dict[int, np.ndarray] = {}
        for i, slot in enumerate(plan.slots):
            if slot.mode != lb.FLYING and i != 0:
                continue
            problem = act.ActivationProblem.from_scenario(scenario, slot.position_m)
            best[i] = act.exhaustive_best(problem)
            if exact is not None:
                c["compared"] += 1
                got = problem.objective(exact.per_slot_activation[i])
                if close(got, problem.objective(best[i])):
                    c["matched"] += 1
                else:
                    c["misses"].append(f"slot {i}: {EXACT} objective {got!r} is not the optimum")
        if exact is None:
            acts = []
            for i in range(plan.total_slots):
                acts.append(best[i] if i in best else acts[i - 1])
            exact = lb.cycle_energy(scenario, plan, acts, strategy_name="oracle")
        islr, full = reports["islr"], reports["full"]
        for i, powers in enumerate(zip(exact.per_slot_power_w, islr.per_slot_power_w, full.per_slot_power_w)):
            if not (not_above(powers[0], powers[1]) and not_above(powers[1], powers[2])):
                c["misses"].append(f"slot {i}: exact <= islr <= full fails {powers!r}")
        c.update(exact=exact.total_energy_j, islr=islr.total_energy_j, tour=output.tour.total_distance_m)
        return c


def make_workload(name: str, seed: int):
    if name == "cycle_default":
        return CycleWorkload(name, seed, nodes=10, panel=6, activators=(EXACT, "islr", "full", "mimo"))
    if name == "plan_m30":
        return CycleWorkload(name, seed, nodes=30, panel=16, activators=("islr", "full", "mimo"))
    raise SystemExit(f"unknown workload {name!r}")


@dataclass
class Record:
    index: int
    item: int
    seconds: float
    traced: bool
    output: object = None
    digest: str | None = None
    nbytes: int = 0


class Runner:
    """Runs requests, one at a time, and keeps what the checks need.

    With a tracer, each request index runs twice, once traced and once not,
    in alternating order. Both halves then see the same inputs and the same
    host speed, so their difference is the tracing overhead.
    """

    def __init__(self, wl, tracer: Tracer | None):
        self.wl, self.tracer = wl, tracer
        self.records: list[Record] = []
        self.misses: list[tuple[int, str]] = []
        self.digests: dict[int, str] = {}

    def run(self, index: int, traced: bool = False) -> None:
        item = index % len(self.wl.items)
        t0 = perf_counter()
        try:
            if traced:
                with self.tracer.root("bench.request", index):
                    output = self.wl.run(item)
            else:
                output = self.wl.run(item)
        except Exception as exc:  # a failed request is counted, the run goes on
            self.misses.append((index, f"{type(exc).__name__}: {exc}"))
            self.records.append(Record(index, item, perf_counter() - t0, traced))
            return
        rec = Record(index, item, perf_counter() - t0, traced)
        rec.digest, rec.nbytes = self.wl.fingerprint()
        if item not in self.digests:
            self.digests[item] = rec.digest
            rec.output = output  # the gate checks the first run of each input only
        elif self.digests[item] != rec.digest:
            self.misses.append((index, f"outputs differ from the first run of input {item}"))
        self.records.append(rec)

    def closed_loop(self, seconds: float) -> list[Record]:
        """Requests until the first pass is done and ``seconds`` have passed."""
        size = len(self.wl.items)
        t_start = perf_counter()
        index = 0
        while index < size or perf_counter() - t_start < seconds:
            if perf_counter() - t_start > LOOP_DEADLINE_S:
                self.misses.append((index, "first pass not done before the loop deadline"))
                break
            if self.tracer is None:
                self.run(index)
            else:
                for traced in ((False, True) if index % 2 == 0 else (True, False)):
                    self.run(index, traced)
            index += 1
        return list(self.records)

    def check(self) -> dict:
        """The correctness gate on the first run of every input, outside the
        timed region."""
        checks = {}
        for rec in self.records:
            if rec.output is not None:
                checks[rec.item] = self.wl.check(rec.item, rec.output)
                self.misses.extend((rec.index, m) for m in checks[rec.item]["misses"])
        return checks


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def overhead(timed: list[Record]) -> tuple[float, float]:
    """Median over request indices of traced minus untraced seconds, and the
    median untraced seconds."""
    pairs: dict[int, dict[bool, float]] = defaultdict(dict)
    for r in timed:
        pairs[r.index][r.traced] = r.seconds
    diffs = [p[True] - p[False] for p in pairs.values()]
    return statistics.median(diffs), statistics.median(p[False] for p in pairs.values())


def cycle_seconds(timed: list[Record]) -> float:
    """Mean over the inputs of each input's median seconds.

    The loop may stop partway through a pass; weighing every input the same
    keeps the mix of inputs from moving the figure.
    """
    per_item: dict[int, list[float]] = defaultdict(list)
    for r in timed:
        per_item[r.item].append(r.seconds)
    return statistics.fmean(statistics.median(v) for v in per_item.values())


def end_to_end(timed: list[Record], checks: dict, peak_rss_mb: float) -> dict:
    """Timings over every timed request; energies and tours over the inputs."""
    exact = [c["exact"] for c in checks.values()]
    return {
        "cycle_s": metric(cycle_seconds(timed), "s"),
        "exact_energy_j": metric(statistics.fmean(exact), "J"),
        "islr_energy_ratio": metric(sum(c["islr"] for c in checks.values()) / sum(exact), "ratio"),
        "tour_m": metric(statistics.fmean(c["tour"] for c in checks.values()), "m"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if Path(pass_uav.__file__).resolve().parent != ROOT / "src" / "pass_uav":
        print(f"pass_uav imported from {pass_uav.__file__}, not from the checkout", file=sys.stderr)
        return 2
    wl = make_workload(args.workload, args.seed)
    wl.prepare()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    size = len(wl.items)
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.instrument(tracer)
    runner = Runner(wl, tracer)
    try:
        timed = runner.closed_loop(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not runner.misses:
            # Byte identity (and, traced, equal counters) needs some input run twice.
            if timed[-1].index < size:
                runner.run(size, traced=tracer is not None)
            if tracer is not None:
                runner.misses.extend(layers.repeat_misses(tracer, size))
            checks = runner.check()
    finally:
        shutil.rmtree(wl.out, ignore_errors=True)

    for index, msg in runner.misses:
        print(f"miss: {args.workload} request {index}: {msg}", file=sys.stderr)
    failed = len({index for index, _ in runner.misses})
    result = {"attempted": len(runner.records), "failed": failed, "metrics": {}}
    if not failed and tracer is None:
        result["metrics"] = end_to_end(timed, checks, peak_rss_mb)
        result["info"] = {"cycle_s_samples": len(timed)}
    elif not failed:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        traced = [r for r in runner.records if r.traced]
        result["metrics"] = layers.metrics(tracer, size, checks, traced, overhead(timed))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
