"""Delivery-sequence planning: GA global exploration alternated with exact
dynamic-programming refinement of short subpaths, plus a nearest-neighbor
constructor and an exact Held-Karp solver used as the small-instance oracle.

Node indices are 0-based; a tour is a permutation of 0..M-1 traversed as a
closed loop station -> order -> station. The planners see only an (M+1)x(M+1)
cost matrix whose last row and column are the station, and a tour's cost is
the sum of its edges' entries. `distance_matrix` builds the 3-D Euclidean one,
on which that cost is the flight length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .scenario import Scenario

HELD_KARP_MAX_NODES = 16
# hao_plan stops after this many rounds in a row without improvement
STALL_LIMIT = 3


@dataclass(frozen=True)
class Tour:
    order: tuple[int, ...]
    # the tour's cost on the matrix it was built from
    total_distance_m: float


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 200
    selection_prob: float = 0.4
    crossover_prob: float = 0.6
    mutation_prob: float = 0.05
    greedy_seed_fraction: float = 0.05
    generations: int = 100

    def __post_init__(self):
        for name in ("selection_prob", "crossover_prob", "mutation_prob", "greedy_seed_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.greedy_seed_fraction >= 0.10:
            raise ValueError("greedy_seed_fraction must stay below 10%")
        if self.population_size < 2 or self.generations < 1:
            raise ValueError("population_size >= 2 and generations >= 1 required")

    @property
    def candidate_count(self) -> int:
        """How many tours `ga_explore` returns: the best tenth of its population."""
        return max(1, self.population_size // 10)


@dataclass(frozen=True)
class HaoConfig:
    max_iterations: int = 10
    subpath_length: int = 3

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


def _orders_distance(orders: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Vectorized closed-loop costs for an (N, M) array of permutations."""
    station = dist.shape[0] - 1
    total = dist[station, orders[:, 0]] + dist[orders[:, -1], station]
    if orders.shape[1] > 1:
        total = total + dist[orders[:, :-1], orders[:, 1:]].sum(axis=1)
    return total


def make_tour(dist: np.ndarray, order: Sequence[int]) -> Tour:
    """The closed loop station -> order -> station, costed on ``dist``."""
    arr = np.asarray(order, dtype=int)
    if arr.shape != (dist.shape[0] - 1,) or sorted(arr.tolist()) != list(range(arr.size)):
        raise ValueError("order must be a permutation of 0..M-1")
    return Tour(order=tuple(arr.tolist()), total_distance_m=_orders_distance(arr[None, :], dist)[0])


def ordered_crossover(parent1, parent2, segment: tuple[int, int]) -> np.ndarray:
    """OX child: parent1's segment kept in place, the rest filled in parent2 order.

    The parents are permutations of 0..M-1; ``segment`` is an inclusive
    0-based (lo, hi) index pair into parent1.
    """
    p1 = np.asarray(parent1, dtype=int)
    p2 = np.asarray(parent2, dtype=int)
    lo, hi = segment
    if not 0 <= lo <= hi < p1.size:
        raise ValueError("segment out of range")
    kept = p1[lo : hi + 1]
    taken = np.zeros(p1.size, dtype=bool)
    taken[kept] = True
    rest = p2[~taken[p2]]
    return np.concatenate((rest[:lo], kept, rest[lo:]))


def inversion_mutation(parent, i: int, j: int) -> np.ndarray:
    """Reverse the inclusive slice [i..j]; i <= j, 0-based."""
    if i > j:
        raise ValueError("need i <= j")
    out = np.asarray(parent, dtype=int).copy()
    out[i : j + 1] = out[i : j + 1][::-1]
    return out


def _greedy(dist: np.ndarray, start_node: Optional[int]) -> list[int]:
    """Nearest-neighbor walk from the station, optionally forcing the first visit."""
    m = dist.shape[0] - 1
    if start_node is not None and not 0 <= start_node < m:
        raise ValueError("start_node out of range")
    order = [] if start_node is None else [start_node]
    unvisited = set(range(m)).difference(order)
    current = m if start_node is None else start_node
    while unvisited:
        current = min(unvisited, key=lambda n: (dist[current, n], n))
        order.append(current)
        unvisited.remove(current)
    return order


def nearest_neighbor(scenario: Scenario, start_node: Optional[int] = None) -> Tour:
    """Greedy construction on the scenario's distances, optionally forcing the first visit."""
    dist = distance_matrix(scenario)
    return make_tour(dist, _greedy(dist, start_node))


def _random_orders(rng: np.random.Generator, m: int, count: int) -> np.ndarray:
    """``count`` random permutations of 0..m-1: the rows, and the generator
    state after them, of ``count`` successive ``rng.permutation(m)`` calls."""
    return rng.permuted(np.tile(np.arange(m), (count, 1)), axis=1)


def _initial_population(
    dist: np.ndarray,
    cfg: GaConfig,
    seed_orders: Optional[list[np.ndarray]],
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedy/random mix; injected elite orders keep their slots on later rounds."""
    m = dist.shape[0] - 1
    n = cfg.population_size
    rows: list[np.ndarray] = []
    if seed_orders:
        rows.extend(np.asarray(o, dtype=int) for o in seed_orders[:n])
        n_greedy = round(0.9 * cfg.greedy_seed_fraction * n)
    else:
        n_greedy = round(cfg.greedy_seed_fraction * n)
    for i in range(n_greedy):
        start = None if i == 0 else (i - 1) % m
        rows.append(np.asarray(_greedy(dist, start), dtype=int))
    rows = rows[:n]
    if len(rows) < n:
        rows.append(_random_orders(rng, m, n - len(rows)))
    return np.vstack(rows)


def _top_indices(values: np.ndarray, count: int) -> np.ndarray:
    """Indices of the `count` largest values, ties broken by lower index."""
    order = np.lexsort((np.arange(values.size), -values))
    return order[:count]


def ga_explore(
    dist: np.ndarray,
    cfg: GaConfig,
    rng: np.random.Generator,
    seed_population: Optional[list[Tour]] = None,
    best_trace: Optional[list] = None,
) -> list[Tour]:
    """Evolve a population of delivery sequences and return the top candidates.

    Fitness is the reciprocal of a tour's cost on ``dist``. Per generation:
    roulette selection without replacement keeps p_s*N individuals; about
    p_c*p_s*N OX children (parent 1 drawn from the elite tenth) and p_m*p_s*N
    inversion mutants are appended; the best half of that pool survives and
    the rest of the population is resampled randomly. The final population's
    best N/10 tours are returned, fittest first.
    """
    m = dist.shape[0] - 1
    seeds = [np.asarray(t.order, dtype=int) for t in seed_population] if seed_population else None
    population = _initial_population(dist, cfg, seeds, rng)
    n = cfg.population_size
    keep = max(2, round(cfg.selection_prob * n))
    fit = 1.0 / _orders_distance(population, dist)

    for _ in range(cfg.generations):
        selected_idx = np.sort(rng.choice(n, size=keep, replace=False, p=fit / fit.sum()))
        pool = population[selected_idx]

        elite_count = max(1, round(0.10 * keep))
        elites = pool[_top_indices(fit[selected_idx], elite_count)]

        parts = [pool]
        n_cross = round(cfg.crossover_prob * keep)
        if n_cross and m >= 2:
            partners = rng.choice(keep, size=min(n_cross, keep), replace=False)
            for idx in partners:
                p1 = elites[rng.integers(elite_count)]
                lo, hi = sorted(rng.integers(0, m, size=2).tolist())
                parts.append(ordered_crossover(p1, pool[idx], (lo, hi)))
        n_mut = round(cfg.mutation_prob * keep)
        if n_mut and m >= 2:
            chosen = rng.choice(keep, size=min(n_mut, keep), replace=False)
            for idx in chosen:
                lo, hi = sorted(rng.integers(0, m, size=2).tolist())
                parts.append(inversion_mutation(pool[idx], lo, hi))

        combined = np.vstack(parts)
        comb_fit = 1.0 / _orders_distance(combined, dist)
        survivors = combined[_top_indices(comb_fit, min(n // 2, combined.shape[0]))]
        population = np.vstack([survivors, _random_orders(rng, m, n - len(survivors))])
        costs = _orders_distance(population, dist)
        fit = 1.0 / costs
        if best_trace is not None:
            best_trace.append(float(costs.min()))

    top = population[_top_indices(fit, cfg.candidate_count)]
    return [make_tour(dist, row) for row in top]


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


def dp_refine(dist: np.ndarray, tour: Tour, subpath_length: int) -> Tour:
    """Exactly reorder the interior of each overlapping-endpoint window.

    The closed tour is cut into floor(M/a)+1 windows of a+1 points sharing
    endpoints (a = ``subpath_length``); each window's interior is solved to the fixed-endpoint optimum
    and the windows are recombined in order. The refined tour replaces the
    input only when strictly cheaper.
    """
    if subpath_length < 2:
        raise ValueError("subpath_length must be >= 2")
    costs = dist.tolist()
    station = dist.shape[0] - 1
    path = [station, *tour.order, station]
    # Window endpoints: every a-th point of the closed path, then the final station.
    cuts = [*range(0, len(path) - 1, subpath_length), len(path) - 1]
    new_order: list[int] = []
    for lo, hi in zip(cuts, cuts[1:]):
        new_order.extend(_best_path(costs, path[lo], path[lo + 1 : hi], path[hi]))
        if hi < len(path) - 1:
            new_order.append(path[hi])

    refined = make_tour(dist, new_order)
    return refined if refined.total_distance_m < tour.total_distance_m else tour


@dataclass(frozen=True)
class HaoResult:
    tour: Tour
    best_distance_trace: tuple[float, ...]


def hao_plan(
    dist: np.ndarray,
    ga_cfg: GaConfig,
    hao_cfg: HaoConfig,
    rng: np.random.Generator,
) -> HaoResult:
    """Alternate GA exploration with DP refinement, tracking the best tour.

    Refined candidates are injected into the next round's population; the loop
    stops after ``max_iterations`` rounds or once the best cost has not
    improved for ``STALL_LIMIT`` consecutive rounds. The recorded trace is the
    running best, hence non-increasing.
    """
    best: Optional[Tour] = None
    trace: list[float] = []
    injected: Optional[list[Tour]] = None
    stall = 0
    for _ in range(hao_cfg.max_iterations):
        candidates = ga_explore(dist, ga_cfg, rng, seed_population=injected)
        refined = [dp_refine(dist, t, hao_cfg.subpath_length) for t in candidates]
        it_best = min(refined, key=lambda t: t.total_distance_m)
        if best is None or it_best.total_distance_m < best.total_distance_m:
            best = it_best
            stall = 0
        else:
            stall += 1
        trace.append(best.total_distance_m)
        if stall >= STALL_LIMIT:
            break
        injected = refined
    assert best is not None
    return HaoResult(tour=best, best_distance_trace=tuple(trace))


def held_karp(dist: np.ndarray) -> Tour:
    """Exact optimal closed tour by bitmask DP; guarded to M <= 16 nodes."""
    m = dist.shape[0] - 1
    if m > HELD_KARP_MAX_NODES:
        raise ValueError(f"held_karp supports at most {HELD_KARP_MAX_NODES} nodes, got {m}")
    return make_tour(dist, _best_path(dist.tolist(), m, range(m), m))
