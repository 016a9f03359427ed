"""Delivery-sequence planning: GA global exploration alternated with exact
dynamic-programming refinement of short subpaths, plus a nearest-neighbor
constructor and an exact Held-Karp solver used as the small-instance oracle.

Node indices are 0-based; a tour is a permutation of 0..M-1 traversed as a
closed loop station -> order -> station. Distances are 3-D Euclidean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .scenario import Scenario

HELD_KARP_MAX_NODES = 16


@dataclass(frozen=True)
class Tour:
    order: tuple[int, ...]
    total_distance_m: float


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 200
    selection_prob: float = 0.4
    crossover_prob: float = 0.6
    mutation_prob: float = 0.05
    greedy_seed_fraction: float = 0.05
    generations: int = 100
    candidate_count: int = 20

    def __post_init__(self):
        for name in ("selection_prob", "crossover_prob", "mutation_prob", "greedy_seed_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.greedy_seed_fraction >= 0.10:
            raise ValueError("greedy_seed_fraction must stay below 10%")
        if self.candidate_count > self.population_size:
            raise ValueError("candidate_count cannot exceed population_size")
        if self.population_size < 2 or self.generations < 1:
            raise ValueError("population_size >= 2 and generations >= 1 required")


@dataclass(frozen=True)
class HaoConfig:
    max_iterations: int = 10
    subpath_length: int = 3
    # stop early after this many iterations without improvement
    stall_limit: int = 3

    def __post_init__(self):
        if self.subpath_length < 2:
            raise ValueError("subpath_length must be >= 2")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


def distance_matrix(scenario: Scenario) -> np.ndarray:
    """(M+1)x(M+1) pairwise distances; index M is the station."""
    pts = np.vstack([scenario.node_positions(), np.asarray(scenario.station_m)[None, :]])
    diff = pts[:, None, :] - pts[None, :, :]
    return np.linalg.norm(diff, axis=2)


def _check_permutation(order: Sequence[int], m: int) -> np.ndarray:
    arr = np.asarray(order, dtype=int)
    if arr.shape != (m,) or sorted(arr.tolist()) != list(range(m)):
        raise ValueError("order must be a permutation of 0..M-1")
    return arr


def tour_distance(scenario: Scenario, order: Sequence[int]) -> float:
    """Closed-loop length |q_1 - q_S| + sum |q_{m+1} - q_m| + |q_M - q_S|."""
    arr = _check_permutation(order, scenario.node_count)
    dist = distance_matrix(scenario)
    return _orders_distance(arr[None, :], dist)[0]


def _orders_distance(orders: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Vectorized closed-loop lengths for an (N, M) array of permutations."""
    station = dist.shape[0] - 1
    total = dist[station, orders[:, 0]] + dist[orders[:, -1], station]
    if orders.shape[1] > 1:
        total = total + dist[orders[:, :-1], orders[:, 1:]].sum(axis=1)
    return total


def make_tour(scenario: Scenario, order: Sequence[int]) -> Tour:
    return Tour(order=tuple(int(i) for i in order), total_distance_m=tour_distance(scenario, order))


def fitness(scenario: Scenario, order: Sequence[int]) -> float:
    """Reciprocal of the closed-loop tour length; shorter tours score higher."""
    return 1.0 / tour_distance(scenario, order)


def ordered_crossover(parent1, parent2, segment: tuple[int, int], rng=None) -> np.ndarray:
    """OX child: parent1's segment kept in place, the rest filled in parent2 order.

    ``segment`` is an inclusive 0-based (lo, hi) index pair into parent1.
    """
    p1 = np.asarray(parent1, dtype=int)
    p2 = np.asarray(parent2, dtype=int)
    lo, hi = segment
    if not 0 <= lo <= hi < p1.size:
        raise ValueError("segment out of range")
    child = np.full(p1.size, -1, dtype=int)
    child[lo : hi + 1] = p1[lo : hi + 1]
    kept = set(p1[lo : hi + 1].tolist())
    filler = [v for v in p2.tolist() if v not in kept]
    holes = [i for i in range(p1.size) if child[i] < 0]
    for i, v in zip(holes, filler):
        child[i] = v
    return child


def inversion_mutation(parent, i: int, j: int) -> np.ndarray:
    """Reverse the inclusive slice [i..j]; i <= j, 0-based."""
    if i > j:
        raise ValueError("need i <= j")
    out = np.asarray(parent, dtype=int).copy()
    out[i : j + 1] = out[i : j + 1][::-1]
    return out


def nearest_neighbor(scenario: Scenario, start_node: Optional[int] = None) -> Tour:
    """Greedy construction from the station, optionally forcing the first visit."""
    dist = distance_matrix(scenario)
    m = scenario.node_count
    station = m
    unvisited = set(range(m))
    order = []
    current = station
    if start_node is not None:
        if not 0 <= start_node < m:
            raise ValueError("start_node out of range")
        order.append(start_node)
        unvisited.remove(start_node)
        current = start_node
    while unvisited:
        nxt = min(unvisited, key=lambda n: (dist[current, n], n))
        order.append(nxt)
        unvisited.remove(nxt)
        current = nxt
    return make_tour(scenario, order)


def _initial_population(
    scenario: Scenario,
    cfg: GaConfig,
    seed_orders: Optional[list[np.ndarray]],
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedy/random mix; injected elite orders keep their slots on later rounds."""
    m = scenario.node_count
    n = cfg.population_size
    rows: list[np.ndarray] = []
    if seed_orders:
        rows.extend(np.asarray(o, dtype=int) for o in seed_orders[:n])
        n_greedy = round(0.9 * cfg.greedy_seed_fraction * n)
    else:
        n_greedy = round(cfg.greedy_seed_fraction * n)
    for i in range(n_greedy):
        start = None if i == 0 else (i - 1) % m
        rows.append(np.asarray(nearest_neighbor(scenario, start).order, dtype=int))
    while len(rows) < n:
        rows.append(rng.permutation(m))
    return np.vstack(rows[:n])


def _top_indices(values: np.ndarray, count: int) -> np.ndarray:
    """Indices of the `count` largest values, ties broken by lower index."""
    order = np.lexsort((np.arange(values.size), -values))
    return order[:count]


def ga_explore(
    scenario: Scenario,
    cfg: GaConfig,
    rng: np.random.Generator,
    seed_population: Optional[list[Tour]] = None,
    best_trace: Optional[list] = None,
) -> list[Tour]:
    """Evolve a population of delivery sequences and return the top candidates.

    Per generation: roulette selection without replacement keeps p_s*N
    individuals; about p_c*p_s*N OX children (parent 1 drawn from the elite
    tenth) and p_m*p_s*N inversion mutants are appended; the best half of that
    pool survives and the rest of the population is resampled randomly. The
    final population's best N/10 tours are returned, fittest first.
    """
    m = scenario.node_count
    dist = distance_matrix(scenario)
    seeds = [np.asarray(t.order, dtype=int) for t in seed_population] if seed_population else None
    population = _initial_population(scenario, cfg, seeds, rng)
    n = cfg.population_size
    keep = max(2, round(cfg.selection_prob * n))

    for _ in range(cfg.generations):
        fit = 1.0 / _orders_distance(population, dist)
        probs = fit / fit.sum()
        selected_idx = rng.choice(n, size=keep, replace=False, p=probs)
        pool = population[np.sort(selected_idx)]
        pool_fit = 1.0 / _orders_distance(pool, dist)

        elite_count = max(1, round(0.10 * keep))
        elites = pool[_top_indices(pool_fit, elite_count)]

        children = []
        n_cross = round(cfg.crossover_prob * keep)
        if n_cross and m >= 2:
            partners = rng.choice(keep, size=min(n_cross, keep), replace=False)
            for idx in partners:
                p1 = elites[rng.integers(elite_count)]
                lo, hi = sorted(rng.integers(0, m, size=2).tolist())
                children.append(ordered_crossover(p1, pool[idx], (lo, hi)))
        mutants = []
        n_mut = round(cfg.mutation_prob * keep)
        if n_mut and m >= 2:
            chosen = rng.choice(keep, size=min(n_mut, keep), replace=False)
            for idx in chosen:
                lo, hi = sorted(rng.integers(0, m, size=2).tolist())
                mutants.append(inversion_mutation(pool[idx], lo, hi))

        parts = [pool]
        if children:
            parts.append(np.vstack(children))
        if mutants:
            parts.append(np.vstack(mutants))
        combined = np.vstack(parts)
        comb_fit = 1.0 / _orders_distance(combined, dist)
        half = min(n // 2, combined.shape[0])
        survivors = combined[_top_indices(comb_fit, half)]
        refill = np.vstack([rng.permutation(m) for _ in range(n - half)]) if n > half else None
        population = np.vstack([survivors, refill]) if refill is not None else survivors
        if best_trace is not None:
            best_trace.append(float(_orders_distance(population, dist).min()))

    final_fit = 1.0 / _orders_distance(population, dist)
    top = population[_top_indices(final_fit, max(1, cfg.candidate_count))]
    return [make_tour(scenario, row) for row in top]


def _best_path(dist, start: int, interior: Sequence[int], end: int) -> list[int]:
    """Shortest path start -> every interior node once -> end, by bitmask DP.

    ``dist`` is a nested list of pairwise distances indexed by node; returns
    the interior nodes in visit order. Ties go to the predecessor listed
    earliest in ``interior``.
    """
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


def dp_refine(scenario: Scenario, tour: Tour, subpath_length: int) -> Tour:
    """Exactly reorder the interior of each overlapping-endpoint window.

    The closed tour is cut into floor(M/a)+1 windows of a+1 points sharing
    endpoints; each window's interior is solved to the fixed-endpoint optimum
    and the windows are recombined in order. The refined tour replaces the
    input only when strictly shorter.
    """
    if subpath_length < 2:
        raise ValueError("subpath_length must be >= 2")
    m = scenario.node_count
    a = subpath_length
    order = list(tour.order)
    dist = distance_matrix(scenario).tolist()
    station = m

    b = m // a
    # Window boundaries over tour slots: [station, 0..a-1], [a-1..2a-1], ..., tail to station.
    windows: list[tuple[int, list[int], int]] = []
    if b >= 1:
        windows.append((station, order[0 : a - 1], order[a - 1]))
        for i in range(1, b):
            windows.append((order[i * a - 1], order[i * a : (i + 1) * a - 1], order[(i + 1) * a - 1]))
        tail = order[b * a :]
        if tail:
            windows.append((order[b * a - 1], tail, station))
    else:
        windows.append((station, order, station))

    new_order: list[int] = []
    for start, interior, end in windows:
        new_order.extend(_best_path(dist, start, interior, end))
        if end != station:
            new_order.append(end)

    refined = make_tour(scenario, new_order)
    return refined if refined.total_distance_m < tour.total_distance_m else tour


@dataclass(frozen=True)
class HaoResult:
    tour: Tour
    best_distance_trace: tuple[float, ...]


def hao_plan(
    scenario: Scenario,
    ga_cfg: GaConfig,
    hao_cfg: HaoConfig,
    rng: np.random.Generator,
) -> HaoResult:
    """Alternate GA exploration with DP refinement, tracking the best tour.

    Refined candidates are injected into the next round's population; the loop
    stops after ``max_iterations`` rounds or once the best distance has not
    improved for ``stall_limit`` consecutive rounds. The recorded trace is the
    running best, hence non-increasing.
    """
    best: Optional[Tour] = None
    trace: list[float] = []
    injected: Optional[list[Tour]] = None
    stall = 0
    for _ in range(hao_cfg.max_iterations):
        candidates = ga_explore(scenario, ga_cfg, rng, seed_population=injected)
        refined = [dp_refine(scenario, t, hao_cfg.subpath_length) for t in candidates]
        it_best = min(refined, key=lambda t: t.total_distance_m)
        if best is None or it_best.total_distance_m < best.total_distance_m:
            best = it_best
            stall = 0
        else:
            stall += 1
        trace.append(best.total_distance_m)
        if stall >= hao_cfg.stall_limit:
            break
        injected = refined
    assert best is not None
    return HaoResult(tour=best, best_distance_trace=tuple(trace))


def held_karp(scenario: Scenario) -> Tour:
    """Exact optimal closed tour by bitmask DP; guarded to M <= 16 nodes."""
    m = scenario.node_count
    if m > HELD_KARP_MAX_NODES:
        raise ValueError(f"held_karp supports at most {HELD_KARP_MAX_NODES} nodes, got {m}")
    dist = distance_matrix(scenario).tolist()
    return make_tour(scenario, _best_path(dist, m, range(m), m))
