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
# Most (N, M) cells a GA population may hold, N tours of M nodes: a HAO
# round's population, work buffers and costing peak at 34-42 bytes a cell,
# under 400 MB at the cap
MAX_POPULATION_CELLS = 1 << 23
# hao_plan stops after this many rounds in a row without improvement
STALL_LIMIT = 3
# hao_plan checks a new best tour for optimality (`_unbeatable`) up to this
# many nodes; past it the check's Held-Karp DP costs more than the rounds it saves
CERTIFY_MAX_NODES = 12


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
        edges = orders[:, :-1] * size
        edges += orders[:, 1:]
        total += dist.ravel().take(edges).sum(axis=1)
    return total


def make_tour(dist: np.ndarray, order: Sequence[int]) -> Tour:
    """The closed loop station -> order -> station, costed on ``dist``."""
    arr = np.asarray(order, dtype=int)
    if arr.shape != (dist.shape[0] - 1,) or sorted(arr.tolist()) != list(range(arr.size)):
        raise ValueError("order must be a permutation of 0..M-1")
    return Tour(order=tuple(arr.tolist()), total_distance_m=_orders_distance(arr[None, :], dist)[0])


def _ox_scratch(k: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The column index, the row offsets and a clear taken mask of a (k, M) crossover."""
    return np.arange(m), np.arange(0, k * m, m)[:, None], np.zeros(k * m, dtype=bool)


def _crossover_rows(p1: np.ndarray, p2: np.ndarray, a: np.ndarray, b: np.ndarray,
                    scratch: Optional[tuple] = None) -> np.ndarray:
    """Row-wise OX of (k, M) parents, row i keeping p1's columns a[i]..b[i]
    (either end first). Each row's free columns take, in order, p2's genes
    outside p1's segment, gene g of row r marked taken at r * M + g. A
    caller that crosses (k, M) blocks repeatedly passes one `_ox_scratch`,
    whose mask is left clear."""
    k, m = p1.shape
    cols, off, taken = scratch or _ox_scratch(k, m)
    seg = (cols >= np.minimum(a, b)[:, None]) & (cols <= np.maximum(a, b)[:, None])
    marks = (off + p1)[seg]
    taken[marks] = True
    child = p1.copy()
    child[~seg] = p2[~taken[off + p2]]
    taken[marks] = False
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


def _greedy_rows(dist: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` greedy seed tours as a (count, M) array, walked
    together: each step goes to the nearest unvisited node, the lowest index on
    ties. Row 0 starts at the station; row i >= 1 visits node (i - 1) % M
    first."""
    m = dist.shape[0] - 1
    rows = np.empty((count, m), dtype=int)
    free = np.ones((count, m), dtype=bool)
    current = np.full(count, m)
    for step in range(m):
        current = np.where(free, dist[current, :m], np.inf).argmin(axis=1)
        if step == 0:
            current[1:] = np.arange(count - 1) % m
        rows[:, step] = current
        free[np.arange(count), current] = False
    return rows


def nearest_neighbor(scenario: Scenario) -> Tour:
    """The greedy walk from the station on the scenario's distances."""
    dist = distance_matrix(scenario)
    return make_tour(dist, _greedy_rows(dist, 1)[0])


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
    few calls on flattened rows, into one work buffer made before the first one.
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
    scratch = _ox_scratch(n_cross, m)
    # [selected | children | mutants | refill]: survivor ranking draws nothing,
    # so the refill is drawn right after the mutants and every new row is
    # costed in one pass (a row's cost is independent of its batch)
    fresh = keep + n_cross + n_mut
    n_survive = min(n // 2, fresh)
    work = np.empty((fresh + n - n_survive, m), dtype=population.dtype)
    work_costs = np.empty(work.shape[0])
    refill_base = np.tile(np.arange(m), (n - n_survive, 1))

    for _ in range(cfg.generations):
        selected = np.sort(_roulette(rng, fit / fit.sum(), keep))
        population.take(selected, axis=0, out=work[:keep])
        costs.take(selected, out=work_costs[:keep])
        if n_cross:
            partners = rng.choice(keep, size=n_cross, replace=False)
            draws = rng.integers(bounds)
            elites = _top_indices(fit[selected], elite_count)
            work[keep : keep + n_cross] = _crossover_rows(
                work[elites[draws[:, 0]]], work[partners], draws[:, 1], draws[:, 2], scratch
            )
        if n_mut:
            chosen = rng.choice(keep, size=n_mut, replace=False)
            ends = rng.integers(0, m, size=(n_mut, 2))
            work[keep + n_cross : fresh] = _invert_rows(work[chosen], ends[:, 0], ends[:, 1])
        rng.permuted(refill_base, axis=1, out=work[fresh:])

        work_costs[keep:] = _orders_distance(work[keep:], dist)
        survivors = _top_indices(1.0 / work_costs[:fresh], n_survive)
        work.take(survivors, axis=0, out=population[:n_survive])
        work_costs.take(survivors, out=costs[:n_survive])
        population[n_survive:] = work[fresh:]
        costs[n_survive:] = work_costs[fresh:]
        np.divide(1.0, costs, out=fit)
        if best_trace is not None:
            best_trace.append(float(costs.min()))

    top = population[_top_indices(fit, cfg.candidate_count)]
    return [make_tour(dist, row) for row in top]


# One DP block holds at most this many (window, mask, node) cells, a larger
# batch going in chunks of windows. A layer step holds three arrays of
# candidates at once (costs in, edges, sums), so it builds at most a quarter
# as many.
_DP_BLOCK_CELLS = 1 << 20


def _mask_layers(n: int):
    """The cells (mask, j), j a member of mask, of an n-node bitmask DP
    whose masks have two or more members, as (masks, js, mask without j)
    arrays, one popcount at a time from 2 up: a layer reads only the one
    before it."""
    masks = np.arange(1 << n)
    size = sum((masks >> j) & 1 for j in range(n))
    for count in range(2, n + 1):
        layer = masks[size == count]
        row, j = np.nonzero((layer[:, None] >> np.arange(n)) & 1)
        yield layer[row], j, layer[row] ^ (1 << j)


def _dp_block(dist: np.ndarray, starts, nodes, ends) -> np.ndarray:
    """`_best_paths` on one block of windows, which all have n >= 2 interior nodes."""
    w, n = nodes.shape
    local = dist[nodes[:, :, None], nodes[:, None, :]]  # local[w, k, j]: node k -> node j
    cost = np.full((w, 1 << n, n), np.inf)
    parent = np.zeros((w, 1 << n, n), dtype=np.int8)
    cost[:, 1 << np.arange(n), np.arange(n)] = dist[starts[:, None], nodes]
    step = max(1, _DP_BLOCK_CELLS // (4 * w * n))
    for masks, js, prevs in _mask_layers(n):
        for lo in range(0, masks.size, step):
            mask, j, prev = masks[lo : lo + step], js[lo : lo + step], prevs[lo : lo + step]
            # candidate k of cell (mask, j): prev_cost[k] + local[k][j], inf unless k in prev
            cand = cost[:, prev, :] + local[:, :, j].transpose(0, 2, 1)
            cost[:, mask, j] = cand.min(axis=2)
            parent[:, mask, j] = cand.argmin(axis=2)
    rows, mask = np.arange(w), np.full(w, (1 << n) - 1)
    last = (cost[:, -1, :] + dist[nodes, ends[:, None]]).argmin(axis=1)
    seq = np.empty((w, n), dtype=np.intp)
    for i in reversed(range(n)):
        seq[:, i] = last
        mask, last = mask ^ (1 << last), parent[rows, mask, last].astype(np.intp)
    return nodes[rows[:, None], seq]


def _best_paths(dist: np.ndarray, starts, nodes, ends) -> np.ndarray:
    """Shortest paths start -> every interior node once -> end of a batch of
    windows, by one bitmask DP: (W,) starts and ends and (W, n) interior
    nodes give the (W, n) interiors in visit order.

    Cell (mask, j) is the cheapest path from the start through the interior
    nodes in mask that ends at node j. It takes prev_cost[k] + local[k][j]
    at the first k, in interior order, that minimizes it, and a path ends at
    the first j that minimizes its cost plus dist[j][end].
    """
    w, n = nodes.shape
    if n <= 1:
        return nodes.copy()
    chunk = max(1, _DP_BLOCK_CELLS // (n << n))
    return np.concatenate([
        _dp_block(dist, starts[lo : lo + chunk], nodes[lo : lo + chunk], ends[lo : lo + chunk])
        for lo in range(0, w, chunk)
    ])


def _refine_tours(dist: np.ndarray, tours: Sequence[Tour], subpath_length: int) -> list[Tour]:
    """`dp_refine` of each tour, all in one block: the windows of every tour
    that hold the same number of interior nodes are solved in one
    `_best_paths` call."""
    c, m = len(tours), dist.shape[0] - 1
    path = np.empty((c, m + 2), dtype=np.intp)
    path[:, [0, -1]] = m
    path[:, 1:-1] = [t.order for t in tours]
    # Window endpoints: every a-th point of the closed path, then the final station.
    cuts = [*range(0, m + 1, subpath_length), m + 1]
    sizes: dict[int, list[int]] = {}
    for lo, hi in zip(cuts, cuts[1:]):
        sizes.setdefault(hi - lo - 1, []).append(lo)
    for n, los in sizes.items():
        if n >= 2:
            lo = np.array(los)[:, None]
            cols = lo + np.arange(1, n + 1)
            best = _best_paths(dist, path[:, lo].ravel(), path[:, cols].reshape(-1, n),
                               path[:, lo + n + 1].ravel())
            path[:, cols] = best.reshape(c, len(los), n)
    costs = _orders_distance(path[:, 1:-1], dist)
    return [Tour(order=tuple(row), total_distance_m=cost) if cost < tour.total_distance_m else tour
            for tour, row, cost in zip(tours, path[:, 1:-1].tolist(), costs)]


def _check_window(dist: np.ndarray, subpath_length: int) -> None:
    """A window of a = ``subpath_length`` holds min(a - 1, M) interior nodes,
    and its DP 2^n cells per node, so n is capped as Held-Karp's M is."""
    if subpath_length < 2:
        raise ValueError("subpath_length must be >= 2")
    interior = min(subpath_length - 1, dist.shape[0] - 1)
    if interior > HELD_KARP_MAX_NODES:
        raise ValueError(f"subpath_length {subpath_length} puts {interior} nodes inside a DP window, "
                         f"more than the {HELD_KARP_MAX_NODES} a window may hold")


def dp_refine(dist: np.ndarray, tour: Tour, subpath_length: int) -> Tour:
    """Exactly reorder the interior of each overlapping-endpoint window.

    The closed tour is cut into floor(M/a)+1 windows of a+1 points sharing
    endpoints (a = ``subpath_length``); each window's interior is solved to the fixed-endpoint optimum
    and the windows are recombined in order. The refined tour replaces the
    input only when strictly cheaper.
    """
    _check_window(dist, subpath_length)
    return _refine_tours(dist, [tour], subpath_length)[0]


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
    running best, hence non-increasing. Up to ``CERTIFY_MAX_NODES`` nodes, a
    new best that `_unbeatable` certifies ends the loop at once, with the
    trace entries of the stall rounds that would follow: tour and trace are
    the full loop's, and only ``rng`` is drawn less.
    """
    _check_window(dist, hao_cfg.subpath_length)
    certify = dist.shape[0] - 1 <= CERTIFY_MAX_NODES
    best: Optional[Tour] = None
    trace: list[float] = []
    injected: Optional[list[Tour]] = None
    stall = 0
    for left in reversed(range(hao_cfg.max_iterations)):  # rounds left after this one
        candidates = ga_explore(dist, ga_cfg, rng, seed_population=injected)
        refined = _refine_tours(dist, candidates, hao_cfg.subpath_length)
        it_best = min(refined, key=lambda t: t.total_distance_m)
        if best is None or it_best.total_distance_m < best.total_distance_m:
            best = it_best
            stall = 0
        else:
            stall += 1
        trace.append(best.total_distance_m)
        if stall >= STALL_LIMIT:
            break
        if certify and stall == 0 and left and _unbeatable(dist, best):
            # no later round can improve on best: record the stall rounds it would run
            trace.extend([best.total_distance_m] * min(STALL_LIMIT, left))
            break
        injected = refined
    assert best is not None
    return HaoResult(tour=best, best_distance_trace=tuple(trace))


def _unbeatable(dist: np.ndarray, tour: Tour) -> bool:
    """Whether no tour costs less than ``tour`` on ``dist``, as
    `_orders_distance` sums it. Its reversal must not, and Held-Karp must
    still pick it, either way round, once each of its edges is lengthened in
    both directions by e = 4 (M+1) eps cost: any other tour shares at most
    M-1 of them, so it is at least about 2e longer, far past the (M+1)-term
    rounding of either sum."""
    m = dist.shape[0] - 1
    order = np.asarray(tour.order)
    if _orders_distance(order[None, ::-1], dist)[0] < tour.total_distance_m:
        return False
    path = np.concatenate(([m], order, [m]))
    bumped = dist.copy()
    e = 4 * (m + 1) * np.finfo(float).eps * tour.total_distance_m
    bumped[path[:-1], path[1:]] += e
    bumped[path[1:], path[:-1]] += e
    return held_karp(bumped).order in (tour.order, tour.order[::-1])


def held_karp(dist: np.ndarray) -> Tour:
    """Exact optimal closed tour by bitmask DP; guarded to M <= 16 nodes."""
    m = dist.shape[0] - 1
    if m > HELD_KARP_MAX_NODES:
        raise ValueError(f"held_karp supports at most {HELD_KARP_MAX_NODES} nodes, got {m}")
    station = np.array([m])
    return make_tour(dist, _best_paths(dist, station, np.arange(m)[None], station)[0])
