"""Independent reference implementations used by unit and acceptance tests."""

import hashlib
import math

import numpy as np

from pass_uav.propagation import radiation_ratios


def bitmap_digest(bitmaps):
    """sha256 hex digest over each int8 bitmap's bytes followed by b";", and
    the number of bitmaps; golden tests pin a solver's answers with it."""
    digest = hashlib.sha256()
    count = 0
    for bits in bitmaps:
        digest.update(bits.tobytes() + b";")
        count += 1
    return digest.hexdigest(), count


def scalar_gain(problem, bits):
    """One slot's |sum_k conj(h_k) beta_k g_k|^2, summed on its own and taken
    through the scalar np.abs, which can differ from the array np.abs in the
    last bit."""
    beta = radiation_ratios(bits, problem.delta)
    amp = np.sum(np.conj(problem.channel) * beta * problem.response)
    return float(np.abs(amp) ** 2)


def walk_slot_count(scenario, order):
    """Step-walk oracle for the slot count of a closed tour.

    Simulates the cycle slot by slot without the closed-form ceilings: flying
    slots consume up to v_f*tau of remaining segment length, hovering slots
    consume up to v_d*tau outstanding tasks.
    """
    tau = scenario.slot_seconds
    points = [np.asarray(scenario.station_m, dtype=float)]
    points += [np.asarray(scenario.nodes[i].position_m, dtype=float) for i in order]
    points.append(np.asarray(scenario.station_m, dtype=float))
    slots = 0
    for start, end in zip(points, points[1:]):
        remaining = float(np.linalg.norm(end - start))
        while remaining > 1e-9:
            remaining -= scenario.flight_speed_mps * tau
            slots += 1
    for i in order:
        tasks = float(scenario.nodes[i].task_count)
        while tasks > 1e-9:
            tasks -= scenario.delivery_speed_tps * tau
            slots += 1
    return slots


def ordered_crossover_reference(parent1, parent2, segment):
    """Hole-filling OX oracle: copy parent1's inclusive segment into an empty
    child, then fill the holes left to right with parent2's remaining genes in
    parent2's order."""
    p1 = [int(v) for v in parent1]
    lo, hi = segment
    kept = set(p1[lo : hi + 1])
    child = [None] * len(p1)
    child[lo : hi + 1] = p1[lo : hi + 1]
    filler = iter(v for v in (int(v) for v in parent2) if v not in kept)
    return np.array([next(filler) if v is None else v for v in child], dtype=int)


def greedy_walk(dist, first=None):
    """Scalar nearest-neighbor oracle on an (M+1)x(M+1) matrix whose last
    index is the station: from the station, or from node ``first`` as the
    forced first visit, go to the nearest unvisited node, the lowest index on
    ties."""
    m = len(dist) - 1
    order = [] if first is None else [first]
    unvisited = set(range(m)).difference(order)
    current = m if first is None else first
    while unvisited:
        current = min(unvisited, key=lambda n: (dist[current][n], n))
        order.append(current)
        unvisited.remove(current)
    return order


def slot_walk(scenario, order):
    """Slot-by-slot oracle for a plan: (position_m, mode, node_index) per slot,
    node_index None while flying, built one slot object at a time. Each leg
    steps v_f*tau from its start; a partial last step lands on the target, and
    the UAV then hovers ceil(tasks / (v_d*tau)) slots at the node."""
    fly_step = scenario.flight_speed_mps * scenario.slot_seconds
    tasks_per_slot = scenario.delivery_speed_tps * scenario.slot_seconds
    station = np.asarray(scenario.station_m, dtype=float)
    stops = [station, *(scenario.node_positions()[i] for i in order), station]
    slots = []
    for leg, (a, b) in enumerate(zip(stops, stops[1:])):
        length = float(np.linalg.norm(b - a))
        count = math.ceil(length / fly_step) if length > 0.0 else 0
        if count:
            flying = a + (b - a) / length * (np.arange(count)[:, None] * fly_step)
            if length - (count - 1) * fly_step < fly_step:
                flying[-1] = b
            slots.extend((tuple(p), "flying", None) for p in flying)
        if leg < len(order):
            hovers = math.ceil(scenario.nodes[order[leg]].task_count / tasks_per_slot)
            slots.extend((tuple(b), "hovering", order[leg]) for _ in range(hovers))
    return slots
