"""Full-cycle runs: outer route planning feeding per-slot activation
optimization, baseline strategies including a conventional multi-antenna
array, benchmark sweeps, and the flat-file outputs the CLI emits.

`solve_rows` is the one place a PA activator's name picks its solver, for a
cycle and for one slot alike, and `run_dlo` builds a plan's (S, K) channel
block once for every PA activator, none for the array alone. A sweep keeps
every cell's cycle energy in one (values, seeds, strategies) array,
``ExperimentResult.cycle_energies``, NaN where the cell failed.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import activation as act
from . import link_budget as lb
from . import propagation, route_planner, scenario as scen

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


def mimo_gains(scenario: scen.Scenario, mimo: MimoConfig, positions) -> list[float]:
    """Received gain sum_n |h_n|^2 of the array baseline under maximum-ratio
    transmission at each row of an (S, 3) position block: per-element
    free-space channels combine coherently."""
    phys = scenario.physics
    elements = mimo.element_positions(phys.wavelength_m)
    d = np.linalg.norm(elements - np.asarray(positions, dtype=float)[:, None, :], axis=-1)
    if np.any(d < propagation.MIN_DISTANCE_M):
        raise propagation.DegenerateGeometryError("UAV on top of an array element")
    eta = phys.wavelength_m**2 / (16.0 * math.pi**2)
    return np.sum(eta / (d * d), axis=-1).tolist()


def mimo_required_power(scenario: scen.Scenario, mimo: MimoConfig, uav_position_m) -> float:
    """Transmit power of the array baseline at one position."""
    phys = scenario.physics
    gain = mimo_gains(scenario, mimo, [uav_position_m])[0]
    return lb.required_power(gain, phys.rate_threshold_bps_hz, phys.noise_power_w)


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


def solve_rows(channels, activator: str, spec: StrategySpec, response, delta, rho) -> np.ndarray:
    """Activations of an (S, K) channel block, one row per slot, as (S, K)
    int8 bitmaps: the one place a PA activator's name picks its solver."""
    if activator == "bnb":
        return act.exact_rows(channels, response, delta, rho)
    if activator == "islr":
        return act.islr_rows(channels, response, delta, rho, spec.islr_high_count)
    if activator == "full":
        return np.ones(np.shape(channels), dtype=np.int8)
    if activator == "exhaustive":
        return act.exhaustive_rows(channels, response, delta, rho)
    raise ValueError(f"activator '{activator}' does not produce activation vectors")


def solve_slot(problem: act.ActivationProblem, activator: str, spec: StrategySpec) -> np.ndarray:
    return solve_rows(problem.channel[None], activator, spec, problem.response, problem.delta,
                      problem.rho)[0]


def solve_cycle(
    scenario: scen.Scenario,
    plan: lb.SlotPlan,
    activator: str,
    spec: StrategySpec,
    *, channels: np.ndarray | None = None,
) -> lb.EnergyReport:
    """Per-slot optimization over one flight cycle, on one channel block.

    A slot's activation depends only on its position, so each distinct
    position is solved once, all in one `solve_rows` block, and every slot
    at it takes that answer; the same block, ``channels`` (built when
    omitted), then costs the cycle. The array baseline has no activation
    vector; its gains are costed by the same rule.
    """
    if activator == "mimo":
        gains = mimo_gains(scenario, spec.mimo, plan.positions())
        return lb.gain_report(scenario, plan, "mimo", gains, np.zeros((0, 0), dtype=np.int8))
    channels = propagation.channel(scenario, plan.positions()) if channels is None else channels
    first, where = plan.distinct
    rows = solve_rows(channels[first], activator, spec, *act.link_constants(scenario))
    return lb.cycle_energy(scenario, plan, rows[where], activator, channels=channels)


def run_dlo(
    scenario: scen.Scenario,
    spec: StrategySpec,
    extra_activators: Sequence[str] = (),
) -> DloOutput:
    """Plan the route, discretize it, optimize every slot; one report per
    activator, all sharing the planned cycle and its one channel block."""
    tour, trace = plan_tour(scenario, spec)
    plan = lb.discretize(scenario, tour)
    activators = (spec.activator, *extra_activators)
    channels = propagation.channel(scenario, plan.positions()) if {*activators} - {"mimo"} else None
    reports = tuple(solve_cycle(scenario, plan, activator, spec, channels=channels)
                    for activator in activators)
    return DloOutput(tour=tour, slot_plan=plan, reports=reports, planner_trace=trace)


def distance_energy_trace(
    scenario: scen.Scenario, output: DloOutput
) -> list[tuple[int, float, float]]:
    """(slot_index, min distance to any coupler, optimized power) for flying
    slots of the first report; hover slots, which repeat their node's
    position, are excluded."""
    powers, flying = output.reports[0].per_slot_power_w, output.slot_plan.flying_indices()
    nearest = propagation.pa_distances(scenario, output.slot_plan.positions()[flying]).min(axis=-1)
    return [(i, float(d), powers[i]) for i, d in zip(flying.tolist(), nearest)]


@dataclass(frozen=True)
class ExperimentResult:
    sweep_variable: str
    sweep_values: tuple
    strategies: tuple[str, ...]
    seeds: tuple[int, ...]
    cycle_energies: np.ndarray  # (values, seeds, strategies) cycle energy, NaN where a cell failed
    failures: tuple[tuple, ...]  # (value, strategy, seed, message)

    @property
    def seed_counts(self) -> np.ndarray:
        """(values, strategies) seeds each mean is taken over."""
        return np.sum(~np.isnan(self.cycle_energies), axis=1)

    @property
    def energies(self) -> np.ndarray:
        """(values, strategies) means over the seeds that succeeded, NaN where none did."""
        with np.errstate(invalid="ignore"):  # cumsum adds in seed order; nansum adds 8+ pairwise
            return np.nancumsum(self.cycle_energies, axis=1)[:, -1] / self.seed_counts


# The variables a sweep may run over and the type of their values. pa_count and
# node_count are generate_scenario arguments; the rate threshold is a physics override.
SWEEP_VARIABLES = {"rate_threshold": float, "pa_count": int, "node_count": int}
# The ceilings of the size variables, and what they count.
SWEEP_CEILINGS = {"node_count": (scen.MAX_NODES, "nodes"), "pa_count": (scen.MAX_PA_COUNT, "couplers")}


def _parse_strategy(label: str) -> tuple[str, str]:
    if ":" in label:
        planner, activator = label.split(":", 1)
    else:
        planner, activator = "hao", label
    return planner, activator


def _scenario_for(variable: str, value, seed: int, node_count: int) -> scen.Scenario:
    value = SWEEP_VARIABLES[variable](value)
    if variable == "rate_threshold":
        return scen.generate_scenario(
            seed, node_count, physics_overrides={"rate_threshold_bps_hz": value}
        )
    return scen.generate_scenario(seed, **{"node_count": node_count, variable: value})


def sweep(
    variable: str,
    values: Sequence,
    strategies: Sequence[str],
    seeds: Sequence[int],
    node_count: int = 10,
    base_spec: Optional[StrategySpec] = None,
) -> ExperimentResult:
    """Cycle energy of every (value, seed, strategy) cell over one swept variable.

    Bad inputs raise ValueError before any cell runs, among them a value that
    its variable's SWEEP_VARIABLES type would change (4.5 for pa_count) and a
    size past its SWEEP_CEILINGS entry.
    Each (planner, seed, node count) is planned once for the whole sweep: the
    rate threshold and the coupler count leave a seed's nodes and GA stream
    as they are, so every value shares its tour and slot plan. A cell that
    fails (e.g. an infeasible slot) is recorded and left NaN.
    """
    if variable not in SWEEP_VARIABLES:
        raise ValueError(f"unknown sweep variable '{variable}'")
    kind = SWEEP_VARIABLES[variable]
    for value in values:
        try:
            kept = kind(value) == value or value != value  # NaN is left to the scenario's check
        except (TypeError, ValueError, OverflowError):
            kept = False
        if not kept:
            raise ValueError(f"{variable} takes {kind.__name__} values, not {value!r}")
        cap, unit = SWEEP_CEILINGS.get(variable, (None, None))
        if cap is not None and value > cap:
            raise ValueError(f"{variable} takes at most {cap} {unit}, not {value}")
    for name, given in (("values", values), ("strategies", strategies), ("seeds", seeds)):
        if not given:
            raise ValueError(f"{name} must be nonempty")
    base = base_spec or StrategySpec()
    specs = [dataclasses.replace(base, planner=planner, activator=activator)
             for planner, activator in map(_parse_strategy, strategies)]
    cells = np.full((len(values), len(seeds), len(strategies)), np.nan)
    failures, plans = [], {}
    for (vi, value), (ni, seed) in itertools.product(enumerate(values), enumerate(seeds)):
        scenario = _scenario_for(variable, value, seed, node_count)
        for si, (spec, strategy) in enumerate(zip(specs, strategies)):
            key = (spec.planner, seed, len(scenario.nodes))
            try:
                if key not in plans:
                    plans[key] = lb.discretize(scenario, plan_tour(scenario, spec)[0])
                report = solve_cycle(scenario, plans[key], spec.activator, spec)
                cells[vi, ni, si] = report.total_energy_j
            except (lb.InfeasibleSlotError, ValueError) as exc:
                failures.append((value, strategy, seed, str(exc)))
    return ExperimentResult(variable, tuple(values), tuple(strategies), tuple(seeds), cells,
                            tuple(failures))


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
    lb.write_csv(path, "slot_index,mode,x,y,z,node_index", (
        (*cells, "" if node < 0 else node)
        for cells, node in zip(lb.slot_cells(plan), plan.slots.node_index.tolist())
    ))


def write_planner_trace_csv(path: Path, trace: Sequence[float]) -> None:
    lb.write_csv(path, "iteration,best_distance_m", enumerate(trace, start=1))


def write_distance_trace_csv(path: Path, rows: Sequence[tuple[int, float, float]]) -> None:
    lb.write_csv(path, "slot_index,distance_m,power_w", rows)


def write_sweep_csv(path: Path, result: ExperimentResult) -> None:
    """One row per (value, strategy) cell: its mean over the seeds that
    succeeded ("nan" when none did), and how many succeeded and failed."""
    lb.write_csv(path, "value,strategy,mean_energy_j,seed_count,failure_count", (
        (value, strategy, mean if math.isfinite(mean) else "nan", ok, len(result.seeds) - ok)
        for value, means, oks in zip(result.sweep_values, result.energies, result.seed_counts)
        for strategy, mean, ok in zip(result.strategies, means, oks)
    ))
