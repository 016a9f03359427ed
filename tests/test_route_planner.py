import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pass_uav import harness
from pass_uav import route_planner as rp
from pass_uav import scenario as scen

from oracles import ordered_crossover_reference


def _scenario_with_nodes(positions, station=(0.0, 0.0, 0.0)):
    base = scen.generate_scenario(7, 1)
    nodes = tuple(scen.DeliveryNode(position_m=p, task_count=1) for p in positions)
    return scen.Scenario(
        physics=base.physics, waveguide=base.waveguide, station_m=station, nodes=nodes,
        flight_speed_mps=5.0, delivery_speed_tps=0.5, slot_seconds=1.0, rng_seed=7,
    )


def _dist(seed, m):
    return rp.distance_matrix(scen.generate_scenario(seed, m))


def brute_force_best(dist):
    best = None
    for perm in itertools.permutations(range(dist.shape[0] - 1)):
        d = rp.make_tour(dist, perm).total_distance_m
        if best is None or d < best[1]:
            best = (perm, d)
    return best


def test_single_node_out_and_back():
    s = _scenario_with_nodes([(3.0, 4.0, 0.0)])
    assert rp.make_tour(rp.distance_matrix(s), [0]).total_distance_m == pytest.approx(10.0)


def test_reversed_order_same_distance():
    dist = _dist(3, 6)
    order = [0, 1, 2, 3, 4, 5]
    assert rp.make_tour(dist, order).total_distance_m == pytest.approx(
        rp.make_tour(dist, order[::-1]).total_distance_m, rel=1e-12
    )


def test_unit_square_matches_enumeration():
    s = _scenario_with_nodes(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0)]
    )
    dist = rp.distance_matrix(s)
    _, best_d = brute_force_best(dist)
    hk = rp.held_karp(dist)
    assert hk.total_distance_m == pytest.approx(best_d, rel=1e-12)
    assert best_d == pytest.approx(4.0)


def test_ordered_crossover_hand_trace():
    # keep positions 3..4 (1-based) of parent 1, fill from parent 2 in order
    child = rp.ordered_crossover([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], (2, 3))
    assert child.tolist() == [4, 1, 2, 3, 0]


def test_ordered_crossover_full_segment_is_parent1():
    child = rp.ordered_crossover([2, 0, 3, 1, 4], [4, 3, 2, 1, 0], (0, 4))
    assert child.tolist() == [2, 0, 3, 1, 4]


def test_ordered_crossover_identical_parents():
    for lo, hi in [(0, 0), (1, 3), (4, 4)]:
        child = rp.ordered_crossover([2, 0, 4, 1, 3], [2, 0, 4, 1, 3], (lo, hi))
        assert child.tolist() == [2, 0, 4, 1, 3]


def test_inversion_mutation_hand_trace():
    assert rp.inversion_mutation([1, 2, 3, 4, 5], 1, 3).tolist() == [1, 4, 3, 2, 5]


def test_inversion_mutation_identity_and_involution():
    assert rp.inversion_mutation([4, 2, 3], 1, 1).tolist() == [4, 2, 3]
    once = rp.inversion_mutation([5, 1, 4, 2, 3], 1, 3)
    twice = rp.inversion_mutation(once, 1, 3)
    assert twice.tolist() == [5, 1, 4, 2, 3]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(min_value=2, max_value=9))
def test_operators_preserve_permutations(data, m):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    p1 = rng.permutation(m)
    p2 = rng.permutation(m)
    lo, hi = sorted(rng.integers(0, m, size=2).tolist())
    child = rp.ordered_crossover(p1, p2, (lo, hi))
    assert sorted(child.tolist()) == list(range(m))
    mut = rp.inversion_mutation(p1, lo, hi)
    assert sorted(mut.tolist()) == list(range(m))


def test_nearest_neighbor_collinear():
    s = _scenario_with_nodes([(1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (3.0, 0.0, 0.0)])
    assert rp.nearest_neighbor(s).order == (0, 1, 2)


def test_nearest_neighbor_valid_and_bounded_by_optimum():
    for seed in range(5):
        s = scen.generate_scenario(seed, 7)
        greedy = rp.nearest_neighbor(s)
        assert sorted(greedy.order) == list(range(7))
        assert greedy.total_distance_m >= rp.held_karp(rp.distance_matrix(s)).total_distance_m - 1e-9


def test_held_karp_single_node():
    s = _scenario_with_nodes([(3.0, 4.0, 0.0)])
    tour = rp.held_karp(rp.distance_matrix(s))
    assert tour.order == (0,)
    assert tour.total_distance_m == pytest.approx(10.0)


def test_held_karp_matches_enumeration_m8():
    dist = _dist(12, 8)
    _, best_d = brute_force_best(dist)
    assert rp.held_karp(dist).total_distance_m == pytest.approx(best_d, rel=1e-12)


def test_held_karp_relabel_invariant():
    s = scen.generate_scenario(9, 7)
    perm = np.random.default_rng(0).permutation(7)
    shuffled = scen.Scenario(
        physics=s.physics, waveguide=s.waveguide, station_m=s.station_m,
        nodes=tuple(s.nodes[i] for i in perm),
        flight_speed_mps=s.flight_speed_mps, delivery_speed_tps=s.delivery_speed_tps,
        slot_seconds=s.slot_seconds, rng_seed=s.rng_seed,
    )
    assert rp.held_karp(rp.distance_matrix(shuffled)).total_distance_m == pytest.approx(
        rp.held_karp(rp.distance_matrix(s)).total_distance_m, rel=1e-12
    )


def test_held_karp_size_guard():
    with pytest.raises(ValueError, match="16"):
        rp.held_karp(_dist(0, 17))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=6),
    closed=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_best_path_matches_permutation_enumeration(n, closed, seed):
    # interior nodes 2..n+1 between start 0 and end 1, or start = end = 0
    pts = np.random.default_rng(seed).uniform(0.0, 10.0, size=(n + 2, 3))
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2).tolist()
    start, end = (0, 0) if closed else (0, 1)
    interior = list(range(2, n + 2))

    def length(seq):
        path = [start, *seq, end]
        return sum(dist[a][b] for a, b in zip(path, path[1:]))

    got = rp._best_path(dist, start, interior, end)
    assert sorted(got) == interior
    best = min(length(p) for p in itertools.permutations(interior))
    assert length(got) == pytest.approx(best, rel=1e-12)


def test_dp_refine_never_longer():
    rng = np.random.default_rng(3)
    for seed in range(8):
        dist = _dist(seed, 9)
        order = rng.permutation(9).tolist()
        tour = rp.make_tour(dist, order)
        refined = rp.dp_refine(dist, tour, 3)
        assert refined.total_distance_m <= tour.total_distance_m + 1e-12
        assert sorted(refined.order) == list(range(9))


def test_dp_refine_window_reaches_enumerated_optimum():
    # single window spanning the whole tour (M < a): interior fully reordered
    dist = _dist(21, 4)
    worst = max(
        (rp.make_tour(dist, p) for p in itertools.permutations(range(4))),
        key=lambda t: t.total_distance_m,
    )
    refined = rp.dp_refine(dist, worst, 5)
    _, best_d = brute_force_best(dist)
    assert refined.total_distance_m == pytest.approx(best_d, rel=1e-12)


def test_dp_refine_keeps_optimal_tour():
    dist = _dist(2, 7)
    best = rp.held_karp(dist)
    assert rp.dp_refine(dist, best, 3) is best


def test_ga_explore_saturates_tiny_instance():
    dist = _dist(5, 3)
    cfg = rp.GaConfig(population_size=30, generations=10)
    rng = np.random.default_rng(0)
    candidates = rp.ga_explore(dist, cfg, rng)
    _, best_d = brute_force_best(dist)
    assert min(t.total_distance_m for t in candidates) == pytest.approx(best_d, rel=1e-9)


def test_ga_explore_candidate_count_default_split():
    cfg = rp.GaConfig(population_size=200, generations=3)
    assert cfg.candidate_count == 20
    rng = np.random.default_rng(0)
    candidates = rp.ga_explore(_dist(5, 8), cfg, rng)
    assert len(candidates) == 20
    assert all(sorted(t.order) == list(range(8)) for t in candidates)


def test_ga_explore_elitist_best_is_monotone():
    cfg = rp.GaConfig(population_size=60, generations=25)
    trace = []
    rp.ga_explore(_dist(6, 10), cfg, np.random.default_rng(1), best_trace=trace)
    assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))


def test_ga_config_validation():
    with pytest.raises(ValueError, match="10%"):
        rp.GaConfig(greedy_seed_fraction=0.10)
    # the top tenth, and at least one tour
    assert rp.GaConfig(population_size=60).candidate_count == 6
    assert rp.GaConfig(population_size=9).candidate_count == 1


def test_hao_trace_nonincreasing_and_injection():
    ga = rp.GaConfig(population_size=60, generations=15)
    hao = rp.HaoConfig(max_iterations=4)
    result = rp.hao_plan(_dist(13, 9), ga, hao, np.random.default_rng(2))
    assert all(a >= b for a, b in zip(result.best_distance_trace, result.best_distance_trace[1:]))
    assert sorted(result.tour.order) == list(range(9))


def test_hao_single_iteration_reduces_to_ga_plus_refine():
    dist = _dist(13, 6)
    ga = rp.GaConfig(population_size=40, generations=10)
    hao = rp.HaoConfig(max_iterations=1)
    result = rp.hao_plan(dist, ga, hao, np.random.default_rng(2))
    assert len(result.best_distance_trace) == 1

    candidates = rp.ga_explore(dist, ga, np.random.default_rng(2))
    refined = [rp.dp_refine(dist, t, 3) for t in candidates]
    expected = min(t.total_distance_m for t in refined)
    assert result.tour.total_distance_m == pytest.approx(expected, rel=1e-12)


def test_hao_plan_walks_the_greedy_seeds_once(monkeypatch):
    # every round seeds its population with the same greedy tours on the same
    # matrix (the first round 10, later rounds the first 9): one walk each
    starts = []
    walk = rp._greedy
    monkeypatch.setattr(rp, "_greedy_memo", {})
    monkeypatch.setattr(rp, "_greedy", lambda dist, start: starts.append(start) or walk(dist, start))
    ga = rp.GaConfig(population_size=200, generations=5)
    result = rp.hao_plan(_dist(13, 12), ga, rp.HaoConfig(max_iterations=4), np.random.default_rng(2))
    assert len(result.best_distance_trace) > 1
    assert starts == [None, *range(9)]


def test_hao_matches_held_karp_on_small_instances():
    hits = 0
    for seed in range(6):
        dist = _dist(seed, 7)
        ga = rp.GaConfig(population_size=80, generations=30)
        hao = rp.HaoConfig(max_iterations=3)
        result = rp.hao_plan(dist, ga, hao, np.random.default_rng(seed))
        optimum = rp.held_karp(dist).total_distance_m
        assert result.tour.total_distance_m >= optimum - 1e-9
        if result.tour.total_distance_m <= optimum * (1.0 + 1e-9):
            hits += 1
    assert hits >= 5


def test_tour_distance_cache_is_consistent():
    # make_tour costs station -> order -> station on the matrix it is given
    dist = _dist(1, 6)
    order = [3, 1, 4, 0, 5, 2]
    path = [6, *order, 6]
    tour = rp.make_tour(dist, order)
    assert tour.order == tuple(order)
    assert tour.total_distance_m == pytest.approx(
        sum(dist[a, b] for a, b in zip(path, path[1:])), rel=1e-12
    )
    # any matrix, not only distances; rows and columns are (from, to)
    skew = dist + np.triu(np.full_like(dist, 100.0))
    assert rp.make_tour(skew, order).total_distance_m == pytest.approx(
        sum(skew[a, b] for a, b in zip(path, path[1:])), rel=1e-12
    )
    for bad in ([3, 1, 4, 0, 5], [3, 1, 4, 0, 5, 5], [3, 1, 4, 0, 5, 6]):
        with pytest.raises(ValueError, match="permutation"):
            rp.make_tour(dist, bad)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mask_crossover_matches_hole_filling_reference(m, seed):
    rng = np.random.default_rng(seed)
    p1, p2 = rng.permutation(m), rng.permutation(m)
    lo, hi = sorted(rng.integers(0, m, size=2).tolist())
    child = rp.ordered_crossover(p1, p2, (lo, hi))
    assert child.tolist() == ordered_crossover_reference(p1, p2, (lo, hi)).tolist()


@pytest.mark.parametrize("m", [1, 2, 3, 10, 30])
@pytest.mark.parametrize("count", [1, 7, 100])
def test_batched_refill_matches_successive_permutations(m, count):
    batched, successive = np.random.default_rng(m * count), np.random.default_rng(m * count)
    rows = rp._random_orders(batched, m, count)
    assert rows.tolist() == [successive.permutation(m).tolist() for _ in range(count)]
    assert batched.bit_generator.state == successive.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=2, max_value=300),
    spread=st.floats(min_value=1.0, max_value=1e6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_roulette_matches_weighted_choice_without_replacement(data, n, spread, seed):
    # ga_explore's selection replays NumPy's loop for this rng.choice call: a
    # NumPy release that changes that loop must fail here, not move the plans
    size = data.draw(st.integers(min_value=1, max_value=n))
    weights = spread ** np.random.default_rng(seed).random(n)
    p = weights / weights.sum()
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    got = rp._roulette(ours, p, size)
    assert got.tolist() == numpys.choice(n, size, replace=False, p=p).tolist()
    assert ours.bit_generator.state == numpys.bit_generator.state


@pytest.mark.parametrize("odd_start", [False, True])
@pytest.mark.parametrize(
    "ranges",
    [
        # 2**31 + 1 rejects about half its words, 3 * 2**30 a quarter
        [1, 30, 2**31 + 1, 3 * 2**30] * 25,
        [1] * 5,
        [2, 1, 10, 1, 1, 30],
        np.tile([8, 30, 30], (48, 1)),  # a generation's OX draws at the default spec
        [],
    ],
)
def test_bounded_draws_match_successive_integers(ranges, odd_start):
    # ga_explore draws a generation's OX values with one rng.integers call on
    # an array of bounds: it must give the values and state of one call per draw
    batched, successive = np.random.default_rng(17), np.random.default_rng(17)
    if odd_start:  # leave each generator holding a buffered 32-bit half
        for g in (batched, successive):
            g.integers(0, 2**32, size=3, dtype=np.uint32)
    ranges = np.asarray(ranges, dtype=np.int64)
    got = batched.integers(ranges)
    want = [successive.integers(r) for r in ranges.ravel().tolist()]
    assert got.shape == ranges.shape
    assert got.ravel().tolist() == want
    assert batched.bit_generator.state == successive.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=30),
    rows=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_crossover_rows_match_reference_row_by_row(m, rows, seed):
    rng = np.random.default_rng(seed)
    p1 = rng.permuted(np.tile(np.arange(m), (rows, 1)), axis=1)
    p2 = rng.permuted(np.tile(np.arange(m), (rows, 1)), axis=1)
    lo, hi = np.sort(rng.integers(0, m, size=(rows, 2)), axis=1).T
    children = rp._crossover_rows(p1, p2, lo, hi)
    for i in range(rows):
        expected = ordered_crossover_reference(p1[i], p2[i], (lo[i], hi[i]))
        assert children[i].tolist() == expected.tolist()
    mutants = rp._invert_rows(p1, lo, hi)
    for i in range(rows):
        expected = p1[i].copy()
        expected[lo[i] : hi[i] + 1] = expected[lo[i] : hi[i] + 1][::-1]
        assert mutants[i].tolist() == expected.tolist()


# Default-spec plans at seed 7, as floats' reprs. They pin the outer layer's
# random stream and arithmetic across changes (the GA's draws, crossover,
# refill and DP windows), which a comparison of two runs of one tree cannot.
GOLDEN_PLANS = {
    ("hao", 10): (
        (5, 6, 8, 1, 3, 7, 4, 0, 2, 9),
        ("333.4493128925391", "318.975647527313", "318.975647527313", "318.975647527313",
         "318.975647527313"),
        "318.975647527313",
    ),
    ("ga_only", 30): (
        (19, 24, 8, 23, 9, 12, 29, 28, 2, 7, 16, 15, 22, 20, 5, 14, 21, 4, 0, 11, 13, 27, 26, 3,
         25, 18, 17, 10, 1, 6),
        (),
        "595.7238049987675",
    ),
}


@pytest.mark.parametrize("planner, m", sorted(GOLDEN_PLANS))
def test_default_plan_is_unchanged(planner, m):
    order, trace, length = GOLDEN_PLANS[planner, m]
    tour, got_trace = harness.plan_tour(
        scen.generate_scenario(7, m), harness.StrategySpec(planner=planner)
    )
    assert tour.order == order
    assert tuple(repr(float(t)) for t in got_trace) == trace
    assert repr(float(tour.total_distance_m)) == length


# Edge configurations off the default spec, as reprs recorded before the GA
# was batched: populations 2 and 10 (one elite, so parent 1 takes no random
# word), crossover 0 and 1, mutation 1, and M = 1, 2, 3. Each entry is the
# returned orders, the per-generation best costs and the generator's next
# `random()`, which pins its state after the call.
# Key: (M, population, crossover_prob, mutation_prob, generations).
GOLDEN_GA = {
    (1, 2, 0.6, 0.05, 4): (
        ((0,),),
        ("160.29670746754283",) * 4,
        "0.24252156006490633",
    ),
    (2, 2, 1.0, 1.0, 6): (((0, 1),), ("266.1371399474681",) * 6, "0.403888535038356"),
    (3, 2, 1.0, 1.0, 6): (((1, 0, 2),), ("283.7465239738062",) * 6, "0.37470324310059366"),
    (2, 10, 1.0, 1.0, 6): (((0, 1),), ("266.1371399474681",) * 6, "0.7146582539486183"),
    (3, 10, 0.0, 1.0, 6): (((1, 0, 2),), ("283.7465239738062",) * 6, "0.3194921449920476"),
    (3, 10, 1.0, 0.05, 6): (((2, 0, 1),), ("283.7465239738062",) * 6, "0.7048022383818885"),
    (10, 10, 1.0, 1.0, 8): (
        ((1, 6, 5, 8, 7, 4, 0, 3, 2, 9),),
        ("498.6250595001132", "498.4800086757998", "421.98340915720485", "474.3897838913656",
         "464.86891619782523", "373.77491850326885", "373.77491850326885",
         "373.77491850326885"),
        "0.19398704172800996",
    ),
    (12, 40, 1.0, 1.0, 6): (
        ((10, 4, 7, 11, 0, 3, 2, 9, 5, 1, 6, 8), (10, 0, 3, 11, 7, 2, 4, 9, 5, 1, 6, 8),
         (10, 0, 3, 11, 7, 2, 4, 9, 5, 1, 6, 8), (8, 5, 1, 6, 4, 7, 11, 3, 0, 10, 2, 9)),
        ("461.96565481186457", "443.79974325306404", "435.95380040959463", "438.7781179982363",
         "407.1327534133863", "404.62447876693136"),
        "0.14023676883366687",
    ),
    (12, 30, 0.0, 0.0, 4): (
        ((0, 3, 4, 2, 10, 7, 11, 9, 5, 6, 1, 8), (8, 6, 1, 9, 4, 5, 10, 2, 0, 7, 3, 11),
         (5, 6, 3, 11, 7, 0, 10, 2, 8, 1, 9, 4)),
        ("359.7076785637036", "359.7076785637036", "414.4123969682728", "414.4123969682728"),
        "0.06661917730584255",
    ),
}

# As GOLDEN_GA, for hao_plan: the tour's order, the trace and the next draw.
# Key: (M, population, crossover_prob, mutation_prob, generations, max_iterations).
GOLDEN_HAO = {
    (1, 2, 1.0, 1.0, 3, 2): ((0,), ("160.29670746754283",) * 2, "0.994365591718783"),
    (3, 10, 1.0, 1.0, 6, 3): ((1, 0, 2), ("283.7465239738062",) * 3, "0.05334691417533943"),
    (10, 10, 1.0, 1.0, 8, 4): (
        (6, 8, 1, 5, 7, 4, 3, 0, 2, 9),
        ("370.29102207751924",) + ("346.28066324992346",) * 3,
        "0.9383167951948636",
    ),
}


def _edge_config(m, population, pc, pm, generations):
    cfg = rp.GaConfig(
        population_size=population, crossover_prob=pc, mutation_prob=pm, generations=generations
    )
    return _dist(7, m), cfg, np.random.default_rng(100 + m * population)


@pytest.mark.parametrize("key", sorted(GOLDEN_GA))
def test_edge_ga_runs_are_unchanged(key):
    orders, trace, next_draw = GOLDEN_GA[key]
    dist, cfg, rng = _edge_config(*key)
    got_trace = []
    tours = rp.ga_explore(dist, cfg, rng, best_trace=got_trace)
    assert tuple(t.order for t in tours) == orders
    assert tuple(repr(t) for t in got_trace) == trace
    assert repr(rng.random()) == next_draw


@pytest.mark.parametrize("key", sorted(GOLDEN_HAO))
def test_edge_hao_runs_are_unchanged(key):
    order, trace, next_draw = GOLDEN_HAO[key]
    dist, cfg, rng = _edge_config(*key[:5])
    result = rp.hao_plan(dist, cfg, rp.HaoConfig(max_iterations=key[5]), rng)
    assert result.tour.order == order
    assert tuple(repr(float(t)) for t in result.best_distance_trace) == trace
    assert repr(rng.random()) == next_draw


# As GOLDEN_GA, off the default selection probability, recorded before the
# roulette was rewritten: p_s = 1 (the selection drains every weight),
# p_s = 0.1 with no children (the survivors are the few selected, so the
# refill is larger than half the population), and the default spec at M = 30.
# Each entry is a sha256 over repr() of the returned orders, the
# per-generation best costs and the generator's next `random()`.
# Key: (M, population, selection_prob, crossover_prob, mutation_prob, generations).
GOLDEN_GA_SELECTION = {
    (10, 40, 1.0, 0.6, 0.05, 6): (
        "9b9747c57343d609c55ae66548677907ffccd88c9aff1657794f4fe97b497bfd",
        ("337.5335823713538",) * 5 + ("336.2417578977648",),
        "0.1543030584558307",
    ),
    (3, 10, 1.0, 1.0, 1.0, 6): (
        "99001042a26f6821bf43f5102d3cede46050baa1b6ea428aca214e21e547d17d",
        ("283.7465239738062",) * 6,
        "0.5943575864974157",
    ),
    (12, 60, 0.1, 0.0, 0.0, 5): (
        "5abfebf7163ebddf51ea3144973cf8264cf7d9490f548168456326e889b17168",
        ("518.1593448546048", "584.068862122835", "568.8042134754596", "585.7209448989578",
         "597.6516831380972"),
        "0.2257274251775685",
    ),
    (8, 10, 0.1, 0.0, 0.0, 5): (
        "45d920dd5e3bb21a6fe911a2ae8b69722cf0584bf3c82ad298dd0853d6f2a3e0",
        ("474.38798841064175", "463.30721876679434", "504.44965816074176", "480.5604425216518",
         "500.9106905612164"),
        "0.3480059296029393",
    ),
    (30, 200, 0.4, 0.6, 0.05, 5): (
        "c81929a7f64b8bc2208636910a45a0bbdb4572d882a506f99af06fb0232e4931",
        ("539.5375234838998",) + ("570.8275459689078",) * 3 + ("573.4943104093222",),
        "0.010653218192191005",
    ),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_GA_SELECTION))
def test_selection_ga_runs_are_unchanged(key):
    digest, trace, next_draw = GOLDEN_GA_SELECTION[key]
    m, population, ps, pc, pm, generations = key
    cfg = rp.GaConfig(
        population_size=population, selection_prob=ps, crossover_prob=pc, mutation_prob=pm,
        generations=generations,
    )
    rng = np.random.default_rng(100 + m * population)
    got_trace = []
    tours = rp.ga_explore(_dist(7, m), cfg, rng, best_trace=got_trace)
    orders = tuple(t.order for t in tours)
    assert hashlib.sha256(repr(orders).encode()).hexdigest() == digest
    assert tuple(repr(t) for t in got_trace) == trace
    assert repr(rng.random()) == next_draw
