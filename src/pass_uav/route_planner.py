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
    """Vectorized closed-loop costs for an (N, M) array of permutations:
    (station -> first + last -> station) + the row sum of the interior edges,
    an interior edge a -> b read from ``dist.ravel()`` at a * (M + 1) + b."""
    size = dist.shape[0]
    total = dist[-1].take(orders[:, 0]) + dist[:, -1].take(orders[:, -1])
    if orders.shape[1] > 1:
        total += dist.ravel()[orders[:, :-1] * size + orders[:, 1:]].sum(axis=1)
    return total


def make_tour(dist: np.ndarray, order: Sequence[int]) -> Tour:
    """The closed loop station -> order -> station, costed on ``dist``."""
    arr = np.asarray(order, dtype=int)
    if arr.shape != (dist.shape[0] - 1,) or sorted(arr.tolist()) != list(range(arr.size)):
        raise ValueError("order must be a permutation of 0..M-1")
    return Tour(order=tuple(arr.tolist()), total_distance_m=_orders_distance(arr[None, :], dist)[0])


def _crossover_rows(p1: np.ndarray, p2: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise OX of (k, M) parents, row i keeping p1's columns a[i]..b[i]
    (either end first). Each row's free columns take, in order, p2's genes
    outside p1's segment, gene g of row r marked taken at r * M + g."""
    k, m = p1.shape
    cols, off = np.arange(m), np.arange(0, k * m, m)[:, None]
    seg = (cols >= np.minimum(a, b)[:, None]) & (cols <= np.maximum(a, b)[:, None])
    taken = np.zeros(k * m, dtype=bool)
    taken[(off + p1)[seg]] = True
    child = p1.copy()
    child[~seg] = p2[~taken[off + p2]]
    return child


def ordered_crossover(parent1, parent2, segment: tuple[int, int]) -> np.ndarray:
    """OX child of two permutations of 0..M-1: parent1's inclusive 0-based
    ``segment`` (lo, hi) kept in place, the rest filled in parent2's order."""
    p1, p2 = np.asarray(parent1, dtype=int), np.asarray(parent2, dtype=int)
    lo, hi = segment
    if not 0 <= lo <= hi < p1.size:
        raise ValueError("segment out of range")
    return _crossover_rows(p1[None], p2[None], np.array([lo]), np.array([hi]))[0]


def _invert_rows(parents: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reverse each row's inclusive slice between a[i] and b[i] of a (k, M) array."""
    k, m = parents.shape
    cols, lo, hi = np.arange(m), np.minimum(a, b)[:, None], np.maximum(a, b)[:, None]
    src = np.where((cols >= lo) & (cols <= hi), lo + hi - cols, cols)
    return parents.ravel()[np.arange(0, k * m, m)[:, None] + src]


def inversion_mutation(parent, i: int, j: int) -> np.ndarray:
    """Reverse the inclusive slice [i..j]; 0 <= i <= j < M, 0-based."""
    p = np.asarray(parent, dtype=int)
    if not 0 <= i <= j < p.size:
        raise ValueError("need 0 <= i <= j < M")
    return _invert_rows(p[None], np.array([i]), np.array([j]))[0]


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


# The greedy seed tours walked on the last matrix seen. `hao_plan` runs
# `ga_explore` on one matrix every round, and a later round's greedy rows are
# a prefix of the first round's, so each plan walks them once.
_greedy_memo: dict = {}


def _greedy_rows(dist: np.ndarray, count: int) -> list[np.ndarray]:
    """The first ``count`` greedy seed tours: the plain walk, then walks that
    force the first visit to node 0, 1, ... in turn (cycling past M-1)."""
    m = dist.shape[0] - 1
    key = (dist.shape, dist.tobytes())
    rows = _greedy_memo.get(key, [])
    if len(rows) < count:
        rows = rows + [np.asarray(_greedy(dist, None if i == 0 else (i - 1) % m), dtype=int)
                       for i in range(len(rows), count)]
        _greedy_memo.clear()
        _greedy_memo[key] = rows
    return rows[:count]


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
    rows.extend(_greedy_rows(dist, n_greedy))
    rows = rows[:n]
    if len(rows) < n:
        rows.append(_random_orders(rng, m, n - len(rows)))
    return np.vstack(rows)


def _top_indices(values: np.ndarray, count: int) -> np.ndarray:
    """Indices of the `count` largest values, ties broken by lower index."""
    return (-values).argsort(kind="stable")[:count]


def _roulette(rng: np.random.Generator, p: np.ndarray, size: int) -> np.ndarray:
    """The indices, and the generator state after them, of ``rng.choice(p.size,
    size, replace=False, p=p)``, by NumPy's loop for that call: draw size - k
    uniforms, zero the weights of the k indices found (no draw lands on their
    flat cdf steps), search the normalized cumsum (side="right"), and append
    the new indices at their first occurrence."""
    p, found = p.copy(), []
    while len(found) < size:
        draws = rng.random(size - len(found))
        cdf = p.cumsum()
        if not 0.0 < cdf[-1] < math.inf:  # choice rejects such weights up front
            raise ValueError("roulette weights need a finite, positive sum")
        cdf /= cdf[-1]
        new = list(dict.fromkeys(cdf.searchsorted(draws, side="right").tolist()))
        p.put(new, 0.0)
        found += new
    return np.array(found)


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
    best N/10 tours are returned, fittest first. A generation draws the random
    stream of a child-by-child loop (`_roulette` replays ``rng.choice``) in a
    few calls on flattened rows, into a pool buffer made before the first one.
    """
    m = dist.shape[0] - 1
    seeds = [np.asarray(t.order, dtype=int) for t in seed_population] if seed_population else None
    population = _initial_population(dist, cfg, seeds, rng)
    costs = _orders_distance(population, dist)
    if not costs.all():  # on distances, one zero-length tour means all are
        raise ValueError("every tour has zero length: the delivery nodes all sit on the station")
    fit = 1.0 / costs

    n = cfg.population_size
    keep = max(2, round(cfg.selection_prob * n))
    elite_count = max(1, round(0.10 * keep))
    n_cross = min(round(cfg.crossover_prob * keep), keep) if m >= 2 else 0
    n_mut = min(round(cfg.mutation_prob * keep), keep) if m >= 2 else 0
    # one row per child: its elite parent, then both segment ends, drawn in
    # row-major order as by one rng.integers call each
    bounds = np.tile([elite_count, m, m], (n_cross, 1))
    pool = np.empty((keep + n_cross + n_mut, m), dtype=population.dtype)
    pool_costs = np.empty(pool.shape[0])
    n_survive = min(n // 2, pool.shape[0])
    refill_base = np.tile(np.arange(m), (n - n_survive, 1))

    for _ in range(cfg.generations):
        selected = np.sort(_roulette(rng, fit / fit.sum(), keep))
        population.take(selected, axis=0, out=pool[:keep])
        costs.take(selected, out=pool_costs[:keep])
        if n_cross:
            partners = rng.choice(keep, size=n_cross, replace=False)
            draws = rng.integers(bounds)
            elites = _top_indices(fit[selected], elite_count)
            pool[keep : keep + n_cross] = _crossover_rows(
                pool[elites[draws[:, 0]]], pool[partners], draws[:, 1], draws[:, 2]
            )
        if n_mut:
            chosen = rng.choice(keep, size=n_mut, replace=False)
            ends = rng.integers(0, m, size=(n_mut, 2))
            pool[keep + n_cross :] = _invert_rows(pool[chosen], ends[:, 0], ends[:, 1])

        # a row's cost is independent of its batch: only new rows are costed
        pool_costs[keep:] = _orders_distance(pool[keep:], dist)
        survivors = _top_indices(1.0 / pool_costs, n_survive)
        pool.take(survivors, axis=0, out=population[:n_survive])
        pool_costs.take(survivors, out=costs[:n_survive])
        rng.permuted(refill_base, axis=1, out=population[n_survive:])
        costs[n_survive:] = _orders_distance(population[n_survive:], dist)
        np.divide(1.0, costs, out=fit)
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
