"""Rates, minimum transmit power, slot discretization and cycle energy totals."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import propagation
from .activation import combined_gains, link_constants
from .route_planner import Tour
from .scenario import Scenario, ScenarioError

FLYING = "flying"
HOVERING = "hovering"
# The most slots one cycle may hold. A plan keeps one object per slot and every
# slot is solved and costed, so a scenario that asks for more (a tiny
# slot_seconds, a near-zero speed) is rejected before anything is built. The
# reference cycles hold a few hundred slots.
MAX_SLOTS = 100_000


class InfeasibleSlotError(RuntimeError):
    """No finite transmit power meets the rate floor at a slot: its combined
    gain is zero, or the power it needs overflows a float."""


def achievable_rate(power_w: float, gain: float, noise_power_w: float) -> float:
    """Spectral efficiency log2(1 + P * gain / sigma^2) in bps/Hz."""
    if power_w < 0:
        raise ValueError("power_w must be nonnegative")
    if noise_power_w <= 0:
        raise ValueError("noise power must be positive")
    return math.log2(1.0 + power_w * gain / noise_power_w)


def required_power(gain: float, rate_threshold: float, noise_power_w: float) -> float:
    """Minimum transmit power meeting the rate floor: (2^R - 1) sigma^2 / gain.

    Returns +inf when the gain is zero; callers decide whether that slot is a
    hard failure.
    """
    if rate_threshold <= 0:
        raise ValueError("rate_threshold must be positive")
    if gain <= 0.0:
        return math.inf
    return (2.0**rate_threshold - 1.0) * noise_power_w / gain


def infeasible(where: str, gain: float) -> InfeasibleSlotError:
    """The error for a place whose required power is infinite, naming the cause."""
    if gain > 0.0:
        return InfeasibleSlotError(
            f"{where} needs more transmit power than a float holds (gain {gain:.6e})"
        )
    return InfeasibleSlotError(f"{where} has zero gain under its activation")


@dataclass(frozen=True)
class Slot:
    position_m: tuple[float, float, float]
    mode: str
    node_index: Optional[int] = None


@dataclass(frozen=True)
class SlotPlan:
    slots: tuple[Slot, ...]
    slot_seconds: float

    @property
    def total_slots(self) -> int:
        return len(self.slots)

    def flying_indices(self) -> list[int]:
        return [i for i, s in enumerate(self.slots) if s.mode == FLYING]

    def positions(self) -> np.ndarray:
        """The (S, 3) block of slot positions."""
        return np.array([s.position_m for s in self.slots], dtype=float).reshape(-1, 3)


def _slot_count(amount: float, per_slot: float) -> float:
    """ceil(amount / per_slot), or inf when the quotient is not a finite float."""
    try:
        quotient = amount / per_slot
    except (OverflowError, ZeroDivisionError):  # an int beyond float range; an underflowed step
        return math.inf
    return math.ceil(quotient) if math.isfinite(quotient) else math.inf


def _segment_slots(start: np.ndarray, end: np.ndarray, length: float, count: int,
                   step_m: float) -> list[np.ndarray]:
    """Flying-slot positions along one straight segment of ``count`` slots.

    Slot j sits at the slot-start point j*step from the segment start, except
    that a partial final slot is clamped onto the segment endpoint so arrival
    geometry is exact.
    """
    direction = (end - start) / length if count else None
    positions = []
    for j in range(count):
        if j == count - 1 and length - j * step_m < step_m:
            positions.append(end.copy())
        else:
            positions.append(start + direction * (j * step_m))
    return positions


def discretize(scenario: Scenario, tour: Tour) -> SlotPlan:
    """Slot-by-slot flight cycle for a closed tour.

    Flying slots advance v_f * tau along each straight segment: ceil(D / (v_f
    tau)) slots, at slot-start positions, with a partial last slot clamped to
    the target. On arrival at node m the UAV hovers for ceil(D_task_m / (v_d *
    tau)) slots. The counts are worked out before any slot is built, and a
    cycle of more than MAX_SLOTS slots raises ScenarioError.
    """
    tau = scenario.slot_seconds
    fly_step = scenario.flight_speed_mps * tau
    tasks_per_slot = scenario.delivery_speed_tps * tau
    station = np.asarray(scenario.station_m, dtype=float)
    node_pos = scenario.node_positions()

    stops = [station, *(node_pos[i] for i in tour.order), station]
    lengths = [float(np.linalg.norm(b - a)) for a, b in zip(stops, stops[1:])]
    fly_counts = [_slot_count(d, fly_step) if d > 0.0 else 0 for d in lengths]
    hover_counts = [_slot_count(scenario.nodes[i].task_count, tasks_per_slot) for i in tour.order]
    total = sum(fly_counts) + sum(hover_counts)
    if not total <= MAX_SLOTS:
        raise ScenarioError(
            f"the cycle needs {total} slots, more than the {MAX_SLOTS} a plan may hold; "
            "check slot_seconds and the speeds"
        )

    slots: list[Slot] = []
    for leg, (a, b) in enumerate(zip(stops, stops[1:])):
        for p in _segment_slots(a, b, lengths[leg], fly_counts[leg], fly_step):
            slots.append(Slot(position_m=tuple(p), mode=FLYING))
        if leg < len(tour.order):
            node_idx = tour.order[leg]
            hover = Slot(position_m=tuple(b), mode=HOVERING, node_index=node_idx)
            slots.extend(hover for _ in range(hover_counts[leg]))
    return SlotPlan(slots=tuple(slots), slot_seconds=tau)


@dataclass(frozen=True)
class EnergyReport:
    strategy_name: str
    per_slot_power_w: tuple[float, ...]
    total_energy_j: float
    per_slot_activation: tuple


def cycle_total(powers: Sequence[float], slot_seconds: float) -> float:
    """Cycle energy sum(P_l * tau); InfeasibleSlotError when it is not a finite float."""
    try:
        total = math.fsum(p * slot_seconds for p in powers)
    except OverflowError:  # finite terms whose sum leaves the float range
        total = math.inf
    if not math.isfinite(total):
        raise InfeasibleSlotError("the cycle energy overflows a float")
    return total


def cycle_energy(
    scenario: Scenario,
    plan: SlotPlan,
    activation_per_slot: Sequence,
    strategy_name: str = "custom",
) -> EnergyReport:
    """Per-slot minimum power, costed on one channel block, and the cycle total.

    Raises InfeasibleSlotError for the first slot that needs infinite power,
    and says whether its activation has zero gain or the power overflows a
    float; such a slot is a configuration error, not an infinite-energy result.
    """
    if len(activation_per_slot) != plan.total_slots:
        raise ValueError(
            "need one activation per slot (%d != %d)"
            % (len(activation_per_slot), plan.total_slots)
        )
    phys = scenario.physics
    activations = tuple(propagation.as_activation(a) for a in activation_per_slot)
    channels = propagation.channel(scenario, plan.positions())
    response, delta, _ = link_constants(scenario)
    gains = combined_gains(channels, response, np.reshape(activations, channels.shape), delta)
    powers = [required_power(g, phys.rate_threshold_bps_hz, phys.noise_power_w) for g in gains]
    for idx, p in enumerate(powers):
        if not math.isfinite(p):
            raise infeasible(f"slot {idx}", gains[idx])
    return EnergyReport(strategy_name=strategy_name, per_slot_power_w=tuple(powers),
                        total_energy_j=cycle_total(powers, plan.slot_seconds),
                        per_slot_activation=activations)


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def write_energy_csv(path, plan: SlotPlan, reports: Sequence[EnergyReport],
                     mimo_elements: int = 0) -> None:
    """One row per slot per strategy; K_a falls back to the array element
    count for reports without activation vectors."""
    lines = ["slot_index,mode,x,y,z,strategy,K_a,power_w"]
    for report in reports:
        for i, slot in enumerate(plan.slots):
            if report.per_slot_activation:
                ka = int(np.sum(report.per_slot_activation[i]))
            else:
                ka = mimo_elements
            x, y, z = slot.position_m
            lines.append(
                f"{i},{slot.mode},{_fmt(x)},{_fmt(y)},{_fmt(z)},"
                f"{report.strategy_name},{ka},{_fmt(report.per_slot_power_w[i])}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


def write_energy_json(path, reports: Sequence[EnergyReport]) -> None:
    """Full bitmaps per slot, for downstream tooling that needs them."""
    payload = []
    for report in reports:
        payload.append(
            {
                "strategy": report.strategy_name,
                "total_energy_j": report.total_energy_j,
                "per_slot_power_w": list(report.per_slot_power_w),
                "per_slot_activation": [
                    [int(b) for b in bits] for bits in report.per_slot_activation
                ],
            }
        )
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
