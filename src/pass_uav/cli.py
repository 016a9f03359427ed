"""Command-line harness: plan, activate, simulate, benchmark.

Exit codes: 0 success, 2 invalid configuration, 3 infeasible slot.
"""

from __future__ import annotations

import argparse
import errno
import os
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
    parser.add_argument("--pa-count", type=int, default=None)
    parser.add_argument("--rth", type=float, default=None, help="minimum rate in bps/Hz")
    parser.add_argument("--delta", type=float, default=None, help="per-coupler amplitude constant")
    parser.add_argument("--tau", type=float, default=None, help="slot length in seconds")


def _load_scenario(args) -> scen.Scenario:
    if args.scenario is not None:
        s = scen.load_scenario(args.scenario)
        if any(v is not None for v in (args.pa_count, args.rth, args.delta, args.tau)):
            raise scen.ScenarioError(
                "--pa-count/--rth/--delta/--tau apply to generated scenarios only")
        return s
    sizes = {} if args.pa_count is None else {"pa_count": args.pa_count}
    overrides = {}
    if args.rth is not None:
        overrides["rate_threshold_bps_hz"] = args.rth
    if args.delta is not None:
        overrides["radiation_constant"] = args.delta
    return scen.generate_scenario(
        args.seed,
        args.nodes,
        physics_overrides=overrides,
        slot_seconds=args.tau if args.tau is not None else 1.0,
        **sizes,
    )


def _out_path(raw: str) -> Path:
    """The --out path, which must be a directory or absent below a directory;
    nothing is created."""
    out = Path(raw)
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        code = errno.EEXIST if nearest == out else errno.ENOTDIR  # as mkdir would say
        raise scen.ScenarioError(f"cannot create --out directory {out}: {os.strerror(code)}")
    return out


def _out_dir(out: Path) -> Path:
    """The --out directory, created with its parents if missing."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise scen.ScenarioError(f"cannot create --out directory {out}: {exc.strerror}") from None
    return out


def _activator_settings(args, scenario: scen.Scenario, activator: str):
    """The --islr-kprime value, checked against the scenario before any work,
    as is the coupler count of exhaustive search."""
    k = scenario.waveguide.pa_count
    if activator == "exhaustive" and k > act.EXHAUSTIVE_MAX_K:
        raise scen.ScenarioError(f"exhaustive search is guarded to K <= {act.EXHAUSTIVE_MAX_K}, got {k}")
    if args.islr_kprime is None:
        return None
    if activator != "islr":
        raise scen.ScenarioError(f"--islr-kprime applies to the islr activator only, not {activator}")
    if not 1 <= args.islr_kprime <= k:
        raise scen.ScenarioError(
            f"--islr-kprime must lie in [1, {k}], this scenario's coupler count range")
    return args.islr_kprime


def _planner_configs(args) -> dict:
    """The GA and HAO settings the planner flags give, as StrategySpec fields."""
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
    return {"ga": ga, "hao": hao}


def _spec_from(args, scenario=None) -> harness.StrategySpec:
    planner, activator = harness._parse_strategy(args.strategy)
    return harness.StrategySpec(
        planner=planner,
        activator=activator,
        **_planner_configs(args),
        islr_high_count=None if scenario is None else _activator_settings(args, scenario, activator),
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


def cmd_plan(args) -> int:
    scenario = _load_scenario(args)
    spec = _spec_from(args)
    out = _out_path(args.out)
    tour, trace = harness.plan_tour(scenario, spec)
    _out_dir(out)
    harness.write_tour_json(out / "tour.json", tour, spec.planner, scenario.rng_seed)
    if trace:
        harness.write_planner_trace_csv(out / "hao_trace.csv", trace)
    print(f"tour order: {list(tour.order)}")
    print(f"total distance: {tour.total_distance_m:.3f} m")
    return EXIT_OK


def cmd_activate(args) -> int:
    scenario = _load_scenario(args)
    spec = harness.StrategySpec(planner=args.planner, activator=args.activator,
                                **_planner_configs(args),
                                islr_high_count=_activator_settings(args, scenario, args.activator))
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
        tour, _ = harness.plan_tour(scenario, spec)
        plan = lb.discretize(scenario, tour)
        if not 0 <= args.slot < plan.total_slots:
            raise scen.ScenarioError(
                f"--slot must lie in [0, {plan.total_slots - 1}] for this plan"
            )
        position = plan.positions()[args.slot]
        print(f"slot {args.slot} ({plan.slots.mode[args.slot]}) at "
              f"({position[0]:.3f}, {position[1]:.3f}, {position[2]:.3f})")
    if args.activator == "mimo":
        gain = harness.mimo_gains(scenario, spec.mimo, [position])[0]
        print(f"strategy: mimo (elements={spec.mimo.element_count})")
    else:
        problem = act.ActivationProblem.from_scenario(scenario, position)
        bits = harness.solve_slot(problem, args.activator, spec)
        gain = problem.gain(bits)
        print(f"strategy: {args.activator}")
        print(f"activation: {''.join(str(int(b)) for b in bits)}")
        print(f"K_a: {int(np.sum(bits))}")
        print(f"gain: {gain:.6e}")
    power = lb.required_power(gain, scenario.physics.rate_threshold_bps_hz, scenario.physics.noise_power_w)
    if not np.isfinite(power):
        raise lb.infeasible("the requested position", gain)
    print(f"required power: {power:.6e} W ({scen.watts_to_dbm(power):.2f} dBm)")
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = _load_scenario(args)
    spec = _spec_from(args, scenario)
    out = _out_path(args.out)
    output = harness.run_dlo(scenario, spec)
    _out_dir(out)
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


def _parse_seeds(raw: str) -> list[int]:
    """The --seeds value: a range lo-hi or a comma list, of non-negative seeds."""
    try:
        if "-" in raw and "," not in raw:
            lo, hi = raw.split("-", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(v) for v in raw.split(",") if v]
    except ValueError:
        seeds = None
    if seeds is None or min(seeds, default=0) < 0:
        raise scen.ScenarioError(
            f"--seeds must be a range lo-hi or a comma list of non-negative integers, not {raw!r}")
    return seeds


def cmd_benchmark(args) -> int:
    strategies = [s for s in args.strategies.split(",") if s]
    values = [harness.SWEEP_VARIABLES[args.variable](v) for v in args.values.split(",") if v]
    seeds = _parse_seeds(args.seeds)
    out = _out_path(args.out)
    result = harness.sweep(args.variable, values, strategies, seeds, node_count=args.nodes)
    path = _out_dir(out) / f"sweep_{args.variable}.csv"
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
    _add_planner_args(p_act)
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
    p_sim.add_argument("--islr-kprime", type=int, default=None)
    p_sim.add_argument("--strategy", default="hao:bnb", help="planner:activator")
    p_sim.add_argument("--out", default="out", help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("benchmark", help="sweep a variable over strategies and seeds")
    p_bench.add_argument("--variable", default="rate_threshold", choices=list(harness.SWEEP_VARIABLES))
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
