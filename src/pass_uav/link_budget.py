"""Rates, minimum transmit power, slot discretization and cycle energy totals.

A report's activations are one (S, K) int8 block, ``per_slot_activation``, a
row per slot; the array baseline, which has none, holds an empty (0, 0) block.

Also the one CSV line format every flat file uses: ``write_csv`` writes a
header and one comma-joined line per row, each cell formatted by ``_fmt``
(floats by repr, so a file round-trips every value exactly).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from . import propagation
from .activation import combined_gains, link_constants
from .route_planner import Tour
from .scenario import Scenario, ScenarioError

FLYING = "flying"
HOVERING = "hovering"
# The most slots one cycle may hold. A plan keeps one row per slot and every
# slot is solved and costed, so a scenario that asks for more (a tiny
# slot_seconds, a near-zero speed) is rejected before anything is built. The
# reference cycles hold a few hundred slots.
MAX_SLOTS = 100_000
# The most cells, slots x couplers, of a plan's (S, K) channel block. Building
# and costing the block peaks near 64 bytes a cell (tracemalloc), so about
# 270 MB at the cap.
MAX_CHANNEL_CELLS = 1 << 22


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


# A slot's record; node_index is -1 while flying.
SLOT_DTYPE = np.dtype([("position_m", float, (3,)), ("mode", "U8"), ("node_index", int)])


@dataclass(frozen=True)
class SlotPlan:
    slots: np.recarray  # (S,) SLOT_DTYPE records
    slot_seconds: float

    @property
    def total_slots(self) -> int:
        return len(self.slots)

    def flying_indices(self) -> np.ndarray:
        return np.flatnonzero(self.slots.mode == FLYING)

    def positions(self) -> np.ndarray:
        """The (S, 3) block of slot positions, a view of the records."""
        return self.slots.position_m

    @cached_property
    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, where): the first slot at each distinct position, in
        sorted position order, and each slot's place among them; worked out
        once per plan."""
        _, first, where = np.unique(self.positions(), axis=0, return_index=True, return_inverse=True)
        return first, where.reshape(-1)  # NumPy 2 can return the inverse with an extra axis


def _slot_count(amount: float, per_slot: float) -> float:
    """ceil(amount / per_slot), or inf when the quotient is not a finite float."""
    try:
        quotient = amount / per_slot
    except (OverflowError, ZeroDivisionError):  # an int beyond float range; an underflowed step
        return math.inf
    return math.ceil(quotient) if math.isfinite(quotient) else math.inf


def discretize(scenario: Scenario, tour: Tour) -> SlotPlan:
    """Slot-by-slot flight cycle for a closed tour.

    Flying slots advance v_f * tau along each straight segment: ceil(D / (v_f
    tau)) slots, at slot-start positions, with a partial last slot clamped to
    the target. On arrival at node m the UAV hovers for ceil(D_task_m / (v_d *
    tau)) slots. The counts are worked out before any slot is built, and a
    cycle of more than MAX_SLOTS slots, or of more than MAX_CHANNEL_CELLS
    slot-coupler cells, raises ScenarioError.
    """
    tau = scenario.slot_seconds
    fly_step = scenario.flight_speed_mps * tau
    tasks_per_slot = scenario.delivery_speed_tps * tau
    station = np.asarray(scenario.station_m, dtype=float)
    node_pos = scenario.node_positions()

    stops = [station, *(node_pos[i] for i in tour.order), station]
    ends = [*tour.order, -1]  # the node each leg ends at; the last leg ends at the station
    lengths = [float(np.linalg.norm(b - a)) for a, b in zip(stops, stops[1:])]
    fly_counts = [_slot_count(d, fly_step) if d > 0.0 else 0 for d in lengths]
    hover_counts = [_slot_count(scenario.nodes[i].task_count, tasks_per_slot) for i in tour.order] + [0]
    total = sum(fly_counts + hover_counts, 0.0)  # inf past the float range, for the message
    if not total <= MAX_SLOTS:
        raise ScenarioError(
            f"the cycle needs {total:.6g} slots, more than the {MAX_SLOTS} a plan may hold; "
            "check slot_seconds and the speeds"
        )
    cells = int(total) * scenario.waveguide.pa_count
    if cells > MAX_CHANNEL_CELLS:
        raise ScenarioError(
            f"the cycle's {int(total)} slots at {scenario.waveguide.pa_count} couplers need "
            f"{cells} channel cells, more than the {MAX_CHANNEL_CELLS} a plan may hold"
        )

    blocks = []  # each leg's flying rows, then the hover rows at its end
    for a, b, length, count, hovers in zip(stops, stops[1:], lengths, fly_counts, hover_counts):
        if count:
            flying = a + (b - a) / length * (np.arange(count)[:, None] * fly_step)
            if length - (count - 1) * fly_step < fly_step:
                flying[-1] = b  # a partial last slot lands on the target
            blocks.append(flying)
        blocks.append(np.tile(b, (hovers, 1)))
    node_index = np.repeat(np.column_stack([np.full(len(ends), -1), ends]).ravel(),
                           np.column_stack([fly_counts, hover_counts]).ravel())
    columns = [np.concatenate(blocks), np.where(node_index < 0, FLYING, HOVERING), node_index]
    return SlotPlan(np.rec.fromarrays(columns, dtype=SLOT_DTYPE), slot_seconds=tau)


@dataclass(frozen=True)
class EnergyReport:
    strategy_name: str
    per_slot_power_w: tuple[float, ...]
    total_energy_j: float
    per_slot_activation: np.ndarray  # (S, K) int8, one row per slot; (0, 0) when there are none


def cycle_energy(
    scenario: Scenario,
    plan: SlotPlan,
    activation_per_slot,
    strategy_name: str = "custom",
    *, channels: np.ndarray | None = None,
) -> EnergyReport:
    """The cycle under one activation per slot: gains on the plan's (S, K)
    ``channels`` block (built when omitted), costed by `gain_report`."""
    activations = propagation.as_activation(activation_per_slot)
    if len(activations) != plan.total_slots:
        raise ValueError(f"need one activation per slot ({len(activations)} != {plan.total_slots})")
    channels = propagation.channel(scenario, plan.positions()) if channels is None else channels
    activations = activations.reshape(channels.shape)
    response, delta, _ = link_constants(scenario)
    gains = combined_gains(channels, response, activations, delta)
    return gain_report(scenario, plan, strategy_name, gains, activations)


def gain_report(scenario: Scenario, plan: SlotPlan, strategy_name: str,
                gains: Sequence[float], activations: np.ndarray) -> EnergyReport:
    """Each slot's minimum power for its combined gain, and the cycle energy
    sum(P_l * tau): the one costing rule of every activator and the array.

    Raises InfeasibleSlotError for the first slot that needs infinite power,
    saying whether its gain is zero or its power overflows a float, and when
    the cycle energy is not a finite float.
    """
    phys = scenario.physics
    powers = [required_power(g, phys.rate_threshold_bps_hz, phys.noise_power_w) for g in gains]
    for idx, p in enumerate(powers):
        if not math.isfinite(p):
            raise infeasible(f"slot {idx}", gains[idx])
    try:
        total = math.fsum(p * plan.slot_seconds for p in powers)
    except OverflowError:  # finite terms whose sum leaves the float range
        total = math.inf
    if not math.isfinite(total):
        raise InfeasibleSlotError("the cycle energy overflows a float")
    return EnergyReport(strategy_name=strategy_name, per_slot_power_w=tuple(powers),
                        total_energy_j=total, per_slot_activation=activations)


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def write_csv(path, header: str, rows) -> None:
    """A header line, then one line per row of cells formatted by _fmt."""
    lines = [header, *(",".join(map(_fmt, row)) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n")


def slot_cells(plan: SlotPlan) -> list[tuple[str, ...]]:
    """Each slot's slot_index, mode, x, y and z cells, formatted."""
    return [(str(i), mode, *map(_fmt, xyz))
            for i, (mode, xyz) in enumerate(zip(plan.slots.mode.tolist(), plan.positions().tolist()))]


def write_energy_csv(path, plan: SlotPlan, reports: Sequence[EnergyReport],
                     mimo_elements: int = 0) -> None:
    """One row per slot per strategy; K_a falls back to the array element
    count for reports without activation vectors."""
    cells, rows = slot_cells(plan), []
    for report in reports:
        if report.per_slot_activation.size:
            active = np.sum(report.per_slot_activation, axis=-1)
        else:
            active = [mimo_elements] * len(cells)
        rows += [(*slot, report.strategy_name, k, power)
                 for slot, k, power in zip(cells, active, report.per_slot_power_w)]
    write_csv(path, "slot_index,mode,x,y,z,strategy,K_a,power_w", rows)


def write_energy_json(path, reports: Sequence[EnergyReport]) -> None:
    """Full bitmaps per slot, for downstream tooling that needs them."""
    payload = [{"strategy": r.strategy_name, "total_energy_j": r.total_energy_j,
                "per_slot_power_w": list(r.per_slot_power_w),
                "per_slot_activation": r.per_slot_activation.tolist()} for r in reports]
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
