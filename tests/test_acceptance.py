"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The whole suite is
compute-heavy (several minutes): the dominance criterion alone optimizes every
slot of twenty full delivery cycles.
"""

import time
from functools import lru_cache

import numpy as np
from oracles import walk_slot_count
from scipy.stats import spearmanr

from pass_uav import activation as act
from pass_uav import cli
from pass_uav import harness
from pass_uav import link_budget as lb
from pass_uav import propagation as prop
from pass_uav import route_planner as rp
from pass_uav import scenario as scen

M_CYCLE = 10
CYCLE_SEEDS = tuple(range(1, 21))


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@lru_cache(maxsize=None)
def _cycle(seed: int) -> tuple:
    """One full simulated cycle (default pipeline) with bnb/islr/full reports."""
    scenario = scen.generate_scenario(seed, M_CYCLE)
    spec = harness.StrategySpec()
    out = harness.run_dlo(scenario, spec, extra_activators=("islr", "full"))
    return scenario, out


@lru_cache(maxsize=None)
def _hao_nine(seed: int) -> tuple:
    """HAO at the reference parameters on a 9-node instance, plus the optimum."""
    scenario = scen.generate_scenario(seed, 9)
    ga = rp.GaConfig()  # population 200, p_s 0.4, p_c 0.6, p_m 0.05, 100 generations
    hao = rp.HaoConfig()  # subpath length 3
    result = rp.hao_plan(scenario, ga, hao, scen.rng_stream(seed, "ga"))
    optimum = rp.held_karp(scenario).total_distance_m
    return result, optimum


def test_criterion_1_bnb_matches_exhaustive_oracle():
    scenario = scen.generate_scenario(7, M_CYCLE)
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        pos = (rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(2.5, 7.5))
        problem = act.ActivationProblem.from_scenario(scenario, pos)
        ex = problem.objective(act.exhaustive_best(problem))
        bn = problem.objective(act.bnb_optimize(problem))
        worst = max(worst, abs(ex - bn) / max(abs(ex), 1e-30))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    _verdict(1, ok, f"100/100 positions, worst rel err {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_dominance_chain_over_cycles():
    violations = 0
    slots = 0
    for seed in CYCLE_SEEDS:
        _, out = _cycle(seed)
        bnb_r, islr_r, full_r = out.reports
        pb = np.asarray(bnb_r.per_slot_power_w)
        pi = np.asarray(islr_r.per_slot_power_w)
        pf = np.asarray(full_r.per_slot_power_w)
        violations += int(np.sum(pb > pi)) + int(np.sum(pi > pf))
        slots += out.slot_plan.total_slots
    ok = violations == 0
    _verdict(2, ok, f"{slots} slots over {len(CYCLE_SEEDS)} cycles, {violations} violations")


def test_criterion_3_hao_reaches_held_karp():
    hits = 0
    worst_excess = 0.0
    for seed in CYCLE_SEEDS:
        result, optimum = _hao_nine(seed)
        excess = result.tour.total_distance_m / optimum - 1.0
        worst_excess = max(worst_excess, excess)
        if result.tour.total_distance_m <= optimum * (1.0 + 1e-9):
            hits += 1
    ok = hits >= 18 and worst_excess <= 0.05
    _verdict(3, ok, f"{hits}/20 optimal, worst excess {100 * worst_excess:.3f}%")


def test_criterion_4_best_distance_traces_nonincreasing():
    runs = 0
    monotone = 0
    for seed in CYCLE_SEEDS:
        for trace in (_cycle(seed)[1].planner_trace, _hao_nine(seed)[0].best_distance_trace):
            runs += 1
            if all(a >= b for a, b in zip(trace, trace[1:])):
                monotone += 1
    ok = monotone == runs
    _verdict(4, ok, f"{monotone}/{runs} planner traces non-increasing")


def test_criterion_5_rate_threshold_scaling():
    thresholds = [3.0, 4.0, 5.0, 6.0, 7.0]
    base = scen.generate_scenario(11, 6)
    spec = harness.StrategySpec()
    tour, _ = harness.plan_tour(base, spec)

    totals: dict[str, list[float]] = {}
    bnb_runs = []
    for rth in thresholds:
        scenario = scen.generate_scenario(
            11, 6, physics_overrides={"rate_threshold_bps_hz": rth}
        )
        plan = lb.discretize(scenario, rp.make_tour(scenario, tour.order))
        for activator in ("bnb", "islr", "full", "mimo"):
            report = harness.solve_cycle(scenario, plan, activator, spec)
            totals.setdefault(activator, []).append(report.total_energy_j)
            if activator == "bnb":
                bnb_runs.append(report)

    increasing = all(
        all(a < b for a, b in zip(series, series[1:])) for series in totals.values()
    )

    ratio_ok = True
    checked = 0
    for lo_idx in range(len(thresholds) - 1):
        lo, hi = bnb_runs[lo_idx], bnb_runs[lo_idx + 1]
        expected = (2.0 ** thresholds[lo_idx + 1] - 1.0) / (2.0 ** thresholds[lo_idx] - 1.0)
        for a_lo, a_hi, p_lo, p_hi in zip(
            lo.per_slot_activation, hi.per_slot_activation,
            lo.per_slot_power_w, hi.per_slot_power_w,
        ):
            if np.array_equal(a_lo, a_hi):
                checked += 1
                if abs(p_hi / p_lo - expected) > 1e-6 * expected:
                    ratio_ok = False
    ok = increasing and ratio_ok and checked > 0
    _verdict(
        5, ok,
        f"all strategies increasing: {increasing}; per-slot ratio checked on "
        f"{checked} unchanged-activation slots",
    )


def test_criterion_6_distance_power_correlation():
    scenario, out = _cycle(7)
    report = out.reports[0]
    dists = []
    powers = []
    for idx in out.slot_plan.flying_indices():
        slot = out.slot_plan.slots[idx]
        dists.append(float(prop.pa_distances(scenario, slot.position_m).min()))
        powers.append(report.per_slot_power_w[idx])
    rho = float(spearmanr(dists, powers).statistic)
    ok = rho > 0.9
    _verdict(6, ok, f"Spearman(distance, power) = {rho:.4f} over {len(dists)} flying slots")


def test_criterion_7_pass_beats_mimo_in_service_corridor():
    # sampling resolves the open x-in-[50,100] wording to the near-waveguide
    # service corridor: lateral offset up to 10 m, full delivery altitude band
    scenario = scen.generate_scenario(7, M_CYCLE, physics_overrides={"rate_threshold_bps_hz": 7.0})
    mimo = harness.MimoConfig()
    rng = np.random.default_rng(77)
    n = 200
    wins = 0
    for _ in range(n):
        pos = (rng.uniform(50, 100), rng.uniform(0, 10), rng.uniform(2.5, 7.5))
        problem = act.ActivationProblem.from_scenario(scenario, pos)
        bits = act.bnb_optimize(problem)
        p_pass = lb.required_power(problem.gain(bits), 7.0, scenario.physics.noise_power_w)
        p_mimo = harness.mimo_required_power(scenario, mimo, pos)
        wins += p_pass < p_mimo
    ok = wins >= 0.95 * n
    _verdict(7, ok, f"{wins}/{n} sampled positions favor the coupler array")


def test_criterion_8_radiation_power_conservation():
    delta = 0.3
    k = 10
    worst = 0.0
    for word in range(1 << k):
        bits = [(word >> i) & 1 for i in range(k)]
        beta = prop.radiation_ratios(bits, delta)
        expected = 1.0 - (1.0 - delta * delta) ** sum(bits)
        worst = max(worst, abs(float(np.sum(beta * beta)) - expected))
    ok = worst < 1e-12
    _verdict(8, ok, f"max conservation error over 2^10 bitmaps: {worst:.2e}")


def test_criterion_9_simulate_is_byte_deterministic(tmp_path):
    names = ["tour.json", "slots.csv", "energy.csv", "energy.json", "trace_distance.csv"]
    checked = 0
    same = True
    for strategy in ("hao:bnb", "held_karp:exhaustive", "nearest_neighbor:islr"):
        dirs = [tmp_path / strategy.replace(":", "_") / run for run in ("run1", "run2")]
        for d in dirs:
            rc = cli.main(["simulate", "--seed", "7", "--strategy", strategy, "--out", str(d)])
            assert rc == 0
        files = names + (["hao_trace.csv"] if strategy.startswith("hao:") else [])
        same = same and all((dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in files)
        checked += len(files)
    _verdict(9, same, f"{checked} output files over 3 strategies byte-identical across runs")


def test_criterion_10_slot_count_oracle():
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(1000):
        m = int(rng.integers(1, 13))
        scenario = scen.generate_scenario(int(rng.integers(0, 100_000)), m)
        order = rng.permutation(m).tolist()
        plan = lb.discretize(scenario, rp.make_tour(scenario, order))
        if plan.total_slots != walk_slot_count(scenario, order):
            mismatches += 1
    ok = mismatches == 0
    _verdict(10, ok, f"1000 random tours, {mismatches} slot-count mismatches")
