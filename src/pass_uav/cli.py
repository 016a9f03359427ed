"""Command-line harness: plan, activate, simulate, benchmark.

Exit codes: 0 success, 2 invalid configuration, 3 infeasible slot.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import activation as act
from . import harness, link_budget as lb, route_planner, scenario as scen

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", type=Path, help="scenario JSON file (overrides --seed/--nodes)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--nodes", type=int, default=10, help="delivery node count")
    parser.add_argument("--pa-count", type=int, default=10)
    parser.add_argument("--rth", type=float, default=None, help="minimum rate in bps/Hz")
    parser.add_argument("--delta", type=float, default=None, help="per-coupler amplitude constant")
    parser.add_argument("--tau", type=float, default=None, help="slot length in seconds")


def _load_scenario(args) -> scen.Scenario:
    if args.scenario is not None:
        s = scen.load_scenario(args.scenario)
        if any(v is not None for v in (args.rth, args.delta, args.tau)):
            raise scen.ScenarioError("--rth/--delta/--tau apply to generated scenarios only")
        return s
    overrides = {}
    if args.rth is not None:
        overrides["rate_threshold_bps_hz"] = args.rth
    if args.delta is not None:
        overrides["radiation_constant"] = args.delta
    return scen.generate_scenario(
        args.seed,
        args.nodes,
        pa_count=args.pa_count,
        physics_overrides=overrides,
        slot_seconds=args.tau if args.tau is not None else 1.0,
    )


def _spec_from(args) -> harness.StrategySpec:
    planner, activator = harness._parse_strategy(args.strategy)
    ga = route_planner.GaConfig(
        population_size=args.population,
        selection_prob=args.ps,
        crossover_prob=args.pc,
        mutation_prob=args.pm,
        greedy_seed_fraction=args.pg,
        generations=args.generations,
    )
    hao = route_planner.HaoConfig(
        max_iterations=args.hao_iterations, subpath_length=args.subpath
    )
    return harness.StrategySpec(
        planner=planner,
        activator=activator,
        ga=ga,
        hao=hao,
        islr_high_count=args.islr_kprime,
    )


def _add_planner_args(parser: argparse.ArgumentParser) -> None:
    ga, hao = route_planner.GaConfig, route_planner.HaoConfig
    parser.add_argument("--population", type=int, default=ga.population_size)
    parser.add_argument("--generations", type=int, default=ga.generations)
    parser.add_argument("--ps", type=float, default=ga.selection_prob, help="selection probability")
    parser.add_argument("--pc", type=float, default=ga.crossover_prob, help="crossover probability")
    parser.add_argument("--pm", type=float, default=ga.mutation_prob, help="mutation probability")
    parser.add_argument("--pg", type=float, default=ga.greedy_seed_fraction,
                        help="greedy seed fraction")
    parser.add_argument("--hao-iterations", type=int, default=hao.max_iterations)
    parser.add_argument("--subpath", type=int, default=hao.subpath_length,
                        help="refinement window size")
    parser.add_argument("--islr-kprime", type=int, default=None)


def cmd_plan(args) -> int:
    scenario = _load_scenario(args)
    spec = _spec_from(args)
    tour, trace = harness.plan_tour(scenario, spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_tour_json(out / "tour.json", tour, spec.planner, scenario.rng_seed)
    if trace:
        harness.write_planner_trace_csv(out / "hao_trace.csv", trace)
    print(f"tour order: {list(tour.order)}")
    print(f"total distance: {tour.total_distance_m:.3f} m")
    return EXIT_OK


def cmd_activate(args) -> int:
    scenario = _load_scenario(args)
    if (args.position is None) == (args.slot is None):
        raise scen.ScenarioError("give exactly one of --position or --slot")
    if args.position is not None:
        position = tuple(float(v) for v in args.position.split(","))
        if len(position) != 3:
            raise scen.ScenarioError("--position must be x,y,z")
        if not scen._within_bounds(position):
            raise scen.ScenarioError(
                f"--position coordinates must be finite and within ±{scen.MAX_COORDINATE_M:g} m"
            )
    else:
        spec = harness.StrategySpec(planner=args.planner)
        tour, _ = harness.plan_tour(scenario, spec)
        plan = lb.discretize(scenario, tour)
        if not 0 <= args.slot < plan.total_slots:
            raise scen.ScenarioError(
                f"--slot must lie in [0, {plan.total_slots - 1}] for this plan"
            )
        position = plan.slots[args.slot].position_m
        print(f"slot {args.slot} ({plan.slots[args.slot].mode}) at "
              f"({position[0]:.3f}, {position[1]:.3f}, {position[2]:.3f})")
    problem = act.ActivationProblem.from_scenario(scenario, position)
    spec = harness.StrategySpec(activator=args.activator, islr_high_count=args.islr_kprime)
    if args.activator == "mimo":
        power = harness.mimo_required_power(scenario, spec.mimo, position)
        print(f"strategy: mimo (elements={spec.mimo.element_count})")
        if not np.isfinite(power):  # the array's gain is always positive
            raise lb.InfeasibleSlotError("the array needs more transmit power than a float holds")
    else:
        bits = harness.solve_slot(problem, args.activator, spec)
        gain = problem.gain(bits)
        power = lb.required_power(
            gain, scenario.physics.rate_threshold_bps_hz, scenario.physics.noise_power_w
        )
        print(f"strategy: {args.activator}")
        print(f"activation: {''.join(str(int(b)) for b in bits)}")
        print(f"K_a: {int(np.sum(bits))}")
        print(f"gain: {gain:.6e}")
        if not np.isfinite(power):
            raise lb.infeasible("the requested position", gain)
    print(f"required power: {power:.6e} W ({scen.watts_to_dbm(power):.2f} dBm)")
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = _load_scenario(args)
    spec = _spec_from(args)
    output = harness.run_dlo(scenario, spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_tour_json(out / "tour.json", output.tour, spec.planner, scenario.rng_seed)
    harness.write_slots_csv(out / "slots.csv", output.slot_plan)
    lb.write_energy_csv(
        out / "energy.csv", output.slot_plan, output.reports,
        mimo_elements=spec.mimo.element_count,
    )
    lb.write_energy_json(out / "energy.json", output.reports)
    if output.planner_trace:
        harness.write_planner_trace_csv(out / "hao_trace.csv", output.planner_trace)
    harness.write_distance_trace_csv(
        out / "trace_distance.csv", harness.distance_energy_trace(scenario, output)
    )
    print(f"strategy: {spec.label}")
    print(f"tour distance: {output.tour.total_distance_m:.3f} m")
    print(f"slots: {output.slot_plan.total_slots}")
    print(f"cycle energy: {output.total_energy_j:.6e} J")
    return EXIT_OK


def _parse_values(raw: str, variable: str):
    vals = [v for v in raw.split(",") if v]
    if variable == "rate_threshold":
        return [float(v) for v in vals]
    return [int(v) for v in vals]


def _parse_seeds(raw: str) -> list[int]:
    if "-" in raw and "," not in raw:
        lo, hi = raw.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in raw.split(",") if v]


def cmd_benchmark(args) -> int:
    strategies = [s for s in args.strategies.split(",") if s]
    values = _parse_values(args.values, args.variable)
    seeds = _parse_seeds(args.seeds)
    result = harness.sweep(args.variable, values, strategies, seeds, node_count=args.nodes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"sweep_{args.variable}.csv"
    harness.write_sweep_csv(path, result)
    print(f"wrote {path}")
    for value, strategy, seed, msg in result.failures:
        print(f"failure: value={value} strategy={strategy} seed={seed}: {msg}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pass-uav",
        description="Waveguide-coupler UAV delivery planner and activation optimizer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="solve the delivery sequence only")
    _add_scenario_args(p_plan)
    _add_planner_args(p_plan)
    p_plan.add_argument("--strategy", default="hao:bnb", help="planner:activator")
    p_plan.add_argument("--out", default="out", help="output directory")
    p_plan.set_defaults(func=cmd_plan)

    p_act = sub.add_parser("activate", help="optimize activation at one position")
    _add_scenario_args(p_act)
    p_act.add_argument("--position", help="UAV position x,y,z in meters")
    p_act.add_argument("--slot", type=int, default=None,
                       help="slot index of the planned cycle instead of --position")
    p_act.add_argument("--planner", default="nearest_neighbor",
                       choices=list(harness.PLANNERS), help="planner used with --slot")
    p_act.add_argument(
        "--activator", default="bnb", choices=list(harness.ACTIVATORS)
    )
    p_act.add_argument("--islr-kprime", type=int, default=None)
    p_act.set_defaults(func=cmd_activate)

    p_sim = sub.add_parser("simulate", help="run one full delivery cycle")
    _add_scenario_args(p_sim)
    _add_planner_args(p_sim)
    p_sim.add_argument("--strategy", default="hao:bnb", help="planner:activator")
    p_sim.add_argument("--out", default="out", help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("benchmark", help="sweep a variable over strategies and seeds")
    p_bench.add_argument(
        "--variable", default="rate_threshold",
        choices=["rate_threshold", "pa_count", "node_count"],
    )
    p_bench.add_argument("--values", default="3,4,5,6,7")
    p_bench.add_argument("--strategies", default="hao:bnb,hao:islr,hao:full,hao:mimo")
    p_bench.add_argument("--seeds", default="1-20")
    p_bench.add_argument("--nodes", type=int, default=10)
    p_bench.add_argument("--out", default="out")
    p_bench.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except lb.InfeasibleSlotError as exc:
        print(f"infeasible slot: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (scen.ScenarioError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
