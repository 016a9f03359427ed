"""Independent reference implementations used by unit and acceptance tests."""

import hashlib

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
