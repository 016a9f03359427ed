"""Full-cycle runs: outer route planning feeding per-slot activation
optimization, baseline strategies including a conventional multi-antenna
array, benchmark sweeps, and the flat-file outputs the CLI emits.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import activation as act
from . import link_budget as lb
from . import propagation, route_planner, scenario as scen
from .link_budget import _fmt

PLANNERS = ("hao", "ga_only", "nearest_neighbor", "held_karp")
ACTIVATORS = ("bnb", "islr", "full", "exhaustive", "mimo")


@dataclass(frozen=True)
class MimoConfig:
    """Uniform linear array at the feed end, one RF chain per element, with
    the elements half a carrier wavelength apart."""

    element_count: int = 10
    array_origin_m: tuple[float, float, float] = (0.0, 0.0, 5.0)

    def element_positions(self, wavelength_m: float) -> np.ndarray:
        spacing = wavelength_m / 2.0
        origin = np.asarray(self.array_origin_m, dtype=float)
        out = np.tile(origin, (self.element_count, 1))
        out[:, 0] += spacing * np.arange(self.element_count)
        return out


@dataclass(frozen=True)
class StrategySpec:
    planner: str = "hao"
    activator: str = "bnb"
    ga: route_planner.GaConfig = field(default_factory=route_planner.GaConfig)
    hao: route_planner.HaoConfig = field(default_factory=route_planner.HaoConfig)
    islr_high_count: Optional[int] = None
    mimo: MimoConfig = field(default_factory=MimoConfig)
    reoptimize_hover: bool = False

    def __post_init__(self):
        if self.planner not in PLANNERS:
            raise ValueError(f"unknown planner '{self.planner}'")
        if self.activator not in ACTIVATORS:
            raise ValueError(f"unknown activator '{self.activator}'")

    @property
    def label(self) -> str:
        return f"{self.planner}:{self.activator}"


@dataclass(frozen=True)
class DloOutput:
    tour: route_planner.Tour
    slot_plan: lb.SlotPlan
    reports: tuple[lb.EnergyReport, ...]
    planner_trace: tuple[float, ...] = ()

    @property
    def total_energy_j(self) -> float:
        return self.reports[0].total_energy_j


def mimo_required_power(scenario: scen.Scenario, mimo: MimoConfig, uav_position_m):
    """Transmit power of the array baseline under maximum-ratio transmission:
    a float at one position, a list for each row of an (S, 3) block.

    Per-element free-space channels combine coherently, so the received gain
    is sum_n |h_n|^2.
    """
    phys = scenario.physics
    elements = mimo.element_positions(phys.wavelength_m)
    d = np.linalg.norm(elements - np.asarray(uav_position_m, dtype=float)[..., None, :], axis=-1)
    if np.any(d < propagation.MIN_DISTANCE_M):
        raise propagation.DegenerateGeometryError("UAV on top of an array element")
    eta = phys.wavelength_m**2 / (16.0 * math.pi**2)
    gains = np.sum(eta / (d * d), axis=-1)
    powers = [lb.required_power(float(g), phys.rate_threshold_bps_hz, phys.noise_power_w)
              for g in np.atleast_1d(gains)]
    return powers if gains.ndim else powers[0]


def plan_tour(
    scenario: scen.Scenario, spec: StrategySpec
) -> tuple[route_planner.Tour, tuple[float, ...]]:
    """Outer-layer delivery sequence under the requested planner.

    This is where the outer layer's objective is chosen: every planner
    minimizes a tour's cost on the scenario's distance matrix, built once per
    plan (`nearest_neighbor` builds the same matrix itself).
    """
    if spec.planner == "nearest_neighbor":
        return route_planner.nearest_neighbor(scenario), ()
    dist = route_planner.distance_matrix(scenario)
    if spec.planner == "held_karp":
        return route_planner.held_karp(dist), ()
    rng = scen.rng_stream(scenario.rng_seed, "ga")
    if spec.planner == "hao":
        result = route_planner.hao_plan(dist, spec.ga, spec.hao, rng)
        return result.tour, result.best_distance_trace
    candidates = route_planner.ga_explore(dist, spec.ga, rng)
    return min(candidates, key=lambda t: t.total_distance_m), ()


def solve_slot(problem: act.ActivationProblem, activator: str, spec: StrategySpec) -> np.ndarray:
    if activator == "bnb":
        return act.bnb_optimize(problem)
    if activator == "islr":
        return act.islr_optimize(problem, spec.islr_high_count)
    if activator == "exhaustive":
        return act.exhaustive_best(problem)
    if activator == "full":
        return act.full_activation(problem.size)
    raise ValueError(f"activator '{activator}' does not produce activation vectors")


def solve_cycle(
    scenario: scen.Scenario,
    plan: lb.SlotPlan,
    activator: str,
    spec: StrategySpec,
) -> lb.EnergyReport:
    """Per-slot optimization over one flight cycle, on one channel block.

    Flying slots are optimized at their own position, by the exact activator
    all at once; hovering slots reuse the previous slot's activation unless
    ``spec.reoptimize_hover`` is set. The array baseline has no activation
    vector and is costed per position.
    """
    if activator == "mimo":
        powers = tuple(mimo_required_power(scenario, spec.mimo, plan.positions()))
        return lb.EnergyReport(strategy_name="mimo", per_slot_power_w=powers,
                               total_energy_j=lb.cycle_total(powers, plan.slot_seconds),
                               per_slot_activation=())
    solved = np.array([s.mode == lb.FLYING or spec.reoptimize_hover for s in plan.slots], bool)
    solved[:1] = True
    channels = propagation.channel(scenario, plan.positions()[solved])
    response, delta, rho = act.link_constants(scenario)
    if activator == "bnb":
        rows = act.exact_rows(channels, response, delta, rho)
    else:
        rows = [solve_slot(act.ActivationProblem(h, response, delta, rho), activator, spec)
                for h in channels]
    # each slot takes the activation of the last solved slot at or before it
    activations = [rows[r] for r in np.cumsum(solved) - 1]
    return lb.cycle_energy(scenario, plan, activations, strategy_name=activator)


def run_dlo(
    scenario: scen.Scenario,
    spec: StrategySpec,
    extra_activators: Sequence[str] = (),
) -> DloOutput:
    """Plan the route, discretize it, optimize every slot; one report per
    activator, all sharing the planned cycle."""
    tour, trace = plan_tour(scenario, spec)
    plan = lb.discretize(scenario, tour)
    reports = tuple(
        solve_cycle(scenario, plan, activator, spec)
        for activator in (spec.activator, *extra_activators)
    )
    return DloOutput(tour=tour, slot_plan=plan, reports=reports, planner_trace=trace)


def distance_energy_trace(
    scenario: scen.Scenario, output: DloOutput
) -> list[tuple[int, float, float]]:
    """(slot_index, min distance to any coupler, optimized power) for flying
    slots of the first report; hover slots hold the previous activation and
    are excluded."""
    powers, flying = output.reports[0].per_slot_power_w, output.slot_plan.flying_indices()
    nearest = propagation.pa_distances(scenario, output.slot_plan.positions()[flying]).min(axis=-1)
    return [(i, float(d), powers[i]) for i, d in zip(flying, nearest)]


@dataclass(frozen=True)
class ExperimentResult:
    sweep_variable: str
    sweep_values: tuple
    strategies: tuple[str, ...]
    energies: np.ndarray  # (values, strategies) means over seeds
    seeds: tuple[int, ...]
    failures: tuple[tuple, ...]  # (value, strategy, seed, message)


def _parse_strategy(label: str) -> tuple[str, str]:
    if ":" in label:
        planner, activator = label.split(":", 1)
    else:
        planner, activator = "hao", label
    return planner, activator


def _scenario_for(variable: str, value, seed: int, node_count: int) -> scen.Scenario:
    if variable == "rate_threshold":
        return scen.generate_scenario(
            seed, node_count, physics_overrides={"rate_threshold_bps_hz": float(value)}
        )
    if variable == "pa_count":
        return scen.generate_scenario(seed, node_count, pa_count=int(value))
    if variable == "node_count":
        return scen.generate_scenario(seed, int(value))
    raise ValueError(f"unknown sweep variable '{variable}'")


def _sweep_cell(variable, value, seed, node_count, parsed, strategies, base):
    """Energies and failures for one (value, seed) cell; strategies sharing a
    planner reuse its tour and slot plan."""
    scenario = _scenario_for(variable, value, seed, node_count)
    plans: dict[str, tuple] = {}
    energies: list[Optional[float]] = []
    failures = []
    for si, (planner, activator) in enumerate(parsed):
        try:
            if planner not in plans:
                spec = dataclasses.replace(base, planner=planner, activator=activator)
                tour, _ = plan_tour(scenario, spec)
                plans[planner] = (spec, lb.discretize(scenario, tour))
            spec, plan = plans[planner]
            report = solve_cycle(scenario, plan, activator, spec)
            energies.append(report.total_energy_j)
        except (lb.InfeasibleSlotError, ValueError) as exc:
            energies.append(None)
            failures.append((value, strategies[si], seed, str(exc)))
    return energies, failures


def sweep(
    variable: str,
    values: Sequence,
    strategies: Sequence[str],
    seeds: Sequence[int],
    node_count: int = 10,
    base_spec: Optional[StrategySpec] = None,
) -> ExperimentResult:
    """Cycle-energy grid over one swept variable, averaged across seeds.

    Per-cell failures (e.g. an infeasible slot) are recorded and excluded from
    the mean rather than aborting the sweep.
    """
    if not values:
        raise ValueError("values must be nonempty")
    base = base_spec or StrategySpec()
    parsed = [_parse_strategy(s) for s in strategies]
    sums = np.zeros((len(values), len(strategies)))
    counts = np.zeros((len(values), len(strategies)), dtype=int)
    failures = []
    for vi, value in enumerate(values):
        for seed in seeds:
            energies, cell_failures = _sweep_cell(
                variable, value, seed, node_count, parsed, strategies, base
            )
            for si, energy in enumerate(energies):
                if energy is not None:
                    sums[vi, si] += energy
                    counts[vi, si] += 1
            failures.extend(cell_failures)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return ExperimentResult(
        sweep_variable=variable,
        sweep_values=tuple(values),
        strategies=tuple(strategies),
        energies=means,
        seeds=tuple(seeds),
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# Flat-file outputs
# ---------------------------------------------------------------------------


def write_tour_json(path: Path, tour: route_planner.Tour, planner: str, seed: int) -> None:
    payload = {
        "planner": planner,
        "seed": seed,
        "order": list(tour.order),
        "total_distance_m": tour.total_distance_m,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_slots_csv(path: Path, plan: lb.SlotPlan) -> None:
    lines = ["slot_index,mode,x,y,z,node_index"]
    for i, slot in enumerate(plan.slots):
        node = "" if slot.node_index is None else str(slot.node_index)
        x, y, z = slot.position_m
        lines.append(f"{i},{slot.mode},{_fmt(x)},{_fmt(y)},{_fmt(z)},{node}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_planner_trace_csv(path: Path, trace: Sequence[float]) -> None:
    lines = ["iteration,best_distance_m"]
    for i, d in enumerate(trace, start=1):
        lines.append(f"{i},{_fmt(d)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_distance_trace_csv(path: Path, rows: Sequence[tuple[int, float, float]]) -> None:
    lines = ["slot_index,distance_m,power_w"]
    for idx, dist, power in rows:
        lines.append(f"{idx},{_fmt(dist)},{_fmt(power)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_sweep_csv(path: Path, result: ExperimentResult) -> None:
    lines = ["value,strategy,mean_energy_j,seed_count,failure_count"]
    fail_count: dict[tuple, int] = {}
    for value, strategy, _, _ in result.failures:
        fail_count[(value, strategy)] = fail_count.get((value, strategy), 0) + 1
    for vi, value in enumerate(result.sweep_values):
        for si, strategy in enumerate(result.strategies):
            failures = fail_count.get((value, strategy), 0)
            ok = len(result.seeds) - failures
            mean = result.energies[vi, si]
            mean_s = _fmt(mean) if math.isfinite(mean) else "nan"
            lines.append(f"{_fmt(value)},{strategy},{mean_s},{ok},{failures}")
    Path(path).write_text("\n".join(lines) + "\n")
