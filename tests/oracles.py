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


def islr_reference(problem, high_count=None):
    """Sequential ISLR oracle: the walk of `islr_optimize`, one set at a
    time, with a memo of every set it scores, returning the best set scored
    anywhere, the first one on ties.

    It scores the all-on set, then the gain-ranked prefixes of length
    1..high_count (ceil(K / 2) when None), keeping the first best; the pool
    is the couplers ranked high_count and later. Each round then drops the
    current members of least beta_k |phi_k| (ties by index) one more at a
    time while the objective strictly rises, and appends the pool in gain
    order the same way; it stops after a round that moved neither way, or
    after 4K rounds.
    """
    k = problem.size
    high_count = math.ceil(k / 2) if high_count is None else high_count
    mags = np.abs(np.conj(problem.channel) * problem.response)
    ranked = sorted(range(k), key=lambda i: (-mags[i], i))

    def bits(members):
        out = np.zeros(k, dtype=np.int8)
        out[sorted(members)] = 1
        return out

    scored = {}  # frozenset of members -> objective, in scoring order

    def score(members):
        key = frozenset(members)
        if key not in scored:
            scored[key] = problem.rho * scalar_gain(problem, bits(key))
        return scored[key]

    def climb(members, obj, candidates):
        moves = 0
        for candidate in candidates:
            new = score(candidate)
            if not new > obj:
                break
            members, obj, moves = candidate, new, moves + 1
        return members, obj, moves

    score(range(k))
    current, obj = [], -math.inf
    for n in range(1, high_count + 1):
        if score(ranked[:n]) > obj:
            current, obj = ranked[:n], score(ranked[:n])
    pool = ranked[high_count:]
    for _ in range(4 * k):
        dropped = 0
        if len(current) >= 2:
            beta = radiation_ratios(bits(current), problem.delta)
            order = sorted(current, key=lambda i: (beta[i] * mags[i], i))
            current, obj, dropped = climb(current, obj, [order[n:] for n in range(1, len(order))])
        current, obj, added = climb(current, obj, [current + pool[:n] for n in range(1, len(pool) + 1)])
        pool = pool[added:]
        if not (dropped or added):
            break
    return bits(max(scored, key=scored.get))


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


def best_path(dist, start, interior, end):
    """Shortest path start -> every interior node once -> end, by the scalar
    bitmask DP on a nested list of distances: the interior nodes in visit
    order. Cell (mask, j) takes the first predecessor k, in interior order,
    that strictly lowers prev_cost[k] + local[k][j]; the path ends at the
    first j minimizing its cost plus dist[j][end]."""
    n = len(interior)
    if n <= 1:
        return list(interior)
    local = [[dist[i][j] for j in interior] for i in interior]
    cost = [[math.inf] * n for _ in range(1 << n)]
    parent = [[-1] * n for _ in range(1 << n)]
    for j, node in enumerate(interior):
        cost[1 << j][j] = dist[start][node]
    for mask in range(1, 1 << n):
        if not mask & (mask - 1):
            continue
        members = [j for j in range(n) if mask >> j & 1]
        for j in members:
            prev_cost = cost[mask ^ (1 << j)]
            best, arg = math.inf, -1
            for k in members:
                if k != j:
                    c = prev_cost[k] + local[k][j]
                    if c < best:
                        best, arg = c, k
            cost[mask][j] = best
            parent[mask][j] = arg
    mask = (1 << n) - 1
    last = min(range(n), key=lambda j: (cost[mask][j] + dist[interior[j]][end], j))
    seq = []
    while last >= 0:
        seq.append(interior[last])
        mask, last = mask ^ (1 << last), parent[mask][last]
    return seq[::-1]


def dp_refine_reference(dist, order, subpath_length):
    """The window-by-window reordering of the closed tour station -> order ->
    station that `dp_refine` makes, each window solved by `best_path`."""
    costs = np.asarray(dist).tolist()
    station = len(costs) - 1
    path = [station, *order, station]
    cuts = [*range(0, len(path) - 1, subpath_length), len(path) - 1]
    new_order = []
    for lo, hi in zip(cuts, cuts[1:]):
        new_order.extend(best_path(costs, path[lo], path[lo + 1 : hi], path[hi]))
        if hi < len(path) - 1:
            new_order.append(path[hi])
    return new_order
