import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pass_uav import route_planner as rp
from pass_uav import scenario as scen


def _scenario_with_nodes(positions, station=(0.0, 0.0, 0.0)):
    base = scen.generate_scenario(7, 1)
    nodes = tuple(scen.DeliveryNode(position_m=p, task_count=1) for p in positions)
    return scen.Scenario(
        physics=base.physics, waveguide=base.waveguide, station_m=station, nodes=nodes,
        flight_speed_mps=5.0, delivery_speed_tps=0.5, slot_seconds=1.0, rng_seed=7,
    )


def brute_force_best(scenario):
    m = scenario.node_count
    best = None
    for perm in itertools.permutations(range(m)):
        d = rp.tour_distance(scenario, perm)
        if best is None or d < best[1]:
            best = (perm, d)
    return best


def test_single_node_out_and_back():
    s = _scenario_with_nodes([(3.0, 4.0, 0.0)])
    assert rp.tour_distance(s, [0]) == pytest.approx(10.0)


def test_reversed_order_same_distance():
    s = scen.generate_scenario(3, 6)
    order = [0, 1, 2, 3, 4, 5]
    assert rp.tour_distance(s, order) == pytest.approx(
        rp.tour_distance(s, order[::-1]), rel=1e-12
    )


def test_unit_square_matches_enumeration():
    s = _scenario_with_nodes(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0)]
    )
    _, best_d = brute_force_best(s)
    hk = rp.held_karp(s)
    assert hk.total_distance_m == pytest.approx(best_d, rel=1e-12)
    assert best_d == pytest.approx(4.0)


def test_fitness_reciprocal():
    s = _scenario_with_nodes([(50.0, 0.0, 0.0)])
    assert rp.fitness(s, [0]) == pytest.approx(0.01)
    assert rp.fitness(s, [0]) * rp.tour_distance(s, [0]) == pytest.approx(1.0)


def test_ordered_crossover_hand_trace():
    # keep positions 3..4 (1-based) of parent 1, fill from parent 2 in order
    child = rp.ordered_crossover([1, 2, 3, 4, 5], [5, 4, 3, 2, 1], (2, 3))
    assert child.tolist() == [5, 2, 3, 4, 1]


def test_ordered_crossover_full_segment_is_parent1():
    child = rp.ordered_crossover([3, 1, 4, 2, 5], [5, 4, 3, 2, 1], (0, 4))
    assert child.tolist() == [3, 1, 4, 2, 5]


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
        assert greedy.total_distance_m >= rp.held_karp(s).total_distance_m - 1e-9


def test_held_karp_single_node():
    s = _scenario_with_nodes([(3.0, 4.0, 0.0)])
    tour = rp.held_karp(s)
    assert tour.order == (0,)
    assert tour.total_distance_m == pytest.approx(10.0)


def test_held_karp_matches_enumeration_m8():
    s = scen.generate_scenario(12, 8)
    _, best_d = brute_force_best(s)
    assert rp.held_karp(s).total_distance_m == pytest.approx(best_d, rel=1e-12)


def test_held_karp_relabel_invariant():
    s = scen.generate_scenario(9, 7)
    perm = np.random.default_rng(0).permutation(7)
    shuffled = scen.Scenario(
        physics=s.physics, waveguide=s.waveguide, station_m=s.station_m,
        nodes=tuple(s.nodes[i] for i in perm),
        flight_speed_mps=s.flight_speed_mps, delivery_speed_tps=s.delivery_speed_tps,
        slot_seconds=s.slot_seconds, rng_seed=s.rng_seed,
    )
    assert rp.held_karp(shuffled).total_distance_m == pytest.approx(
        rp.held_karp(s).total_distance_m, rel=1e-12
    )


def test_held_karp_size_guard():
    s = scen.generate_scenario(0, 17)
    with pytest.raises(ValueError, match="16"):
        rp.held_karp(s)


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
        s = scen.generate_scenario(seed, 9)
        order = rng.permutation(9).tolist()
        tour = rp.make_tour(s, order)
        refined = rp.dp_refine(s, tour, 3)
        assert refined.total_distance_m <= tour.total_distance_m + 1e-12
        assert sorted(refined.order) == list(range(9))


def test_dp_refine_window_reaches_enumerated_optimum():
    # single window spanning the whole tour (M < a): interior fully reordered
    s = scen.generate_scenario(21, 4)
    worst = max(
        (rp.make_tour(s, p) for p in itertools.permutations(range(4))),
        key=lambda t: t.total_distance_m,
    )
    refined = rp.dp_refine(s, worst, 5)
    _, best_d = brute_force_best(s)
    assert refined.total_distance_m == pytest.approx(best_d, rel=1e-12)


def test_dp_refine_keeps_optimal_tour():
    s = scen.generate_scenario(2, 7)
    best = rp.held_karp(s)
    assert rp.dp_refine(s, best, 3) is best


def test_ga_explore_saturates_tiny_instance():
    s = scen.generate_scenario(5, 3)
    cfg = rp.GaConfig(population_size=30, generations=10, candidate_count=3)
    rng = np.random.default_rng(0)
    candidates = rp.ga_explore(s, cfg, rng)
    _, best_d = brute_force_best(s)
    assert min(t.total_distance_m for t in candidates) == pytest.approx(best_d, rel=1e-9)


def test_ga_explore_candidate_count_default_split():
    s = scen.generate_scenario(5, 8)
    cfg = rp.GaConfig(population_size=200, generations=3, candidate_count=20)
    rng = np.random.default_rng(0)
    candidates = rp.ga_explore(s, cfg, rng)
    assert len(candidates) == 20
    assert all(sorted(t.order) == list(range(8)) for t in candidates)


def test_ga_explore_elitist_best_is_monotone():
    s = scen.generate_scenario(6, 10)
    cfg = rp.GaConfig(population_size=60, generations=25, candidate_count=6)
    trace = []
    rp.ga_explore(s, cfg, np.random.default_rng(1), best_trace=trace)
    assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))


def test_ga_config_validation():
    with pytest.raises(ValueError, match="10%"):
        rp.GaConfig(greedy_seed_fraction=0.10)
    with pytest.raises(ValueError):
        rp.GaConfig(candidate_count=300)


def test_hao_trace_nonincreasing_and_injection():
    s = scen.generate_scenario(13, 9)
    ga = rp.GaConfig(population_size=60, generations=15, candidate_count=6)
    hao = rp.HaoConfig(max_iterations=4)
    result = rp.hao_plan(s, ga, hao, np.random.default_rng(2))
    assert all(a >= b for a, b in zip(result.best_distance_trace, result.best_distance_trace[1:]))
    assert sorted(result.tour.order) == list(range(9))


def test_hao_single_iteration_reduces_to_ga_plus_refine():
    s = scen.generate_scenario(13, 6)
    ga = rp.GaConfig(population_size=40, generations=10, candidate_count=4)
    hao = rp.HaoConfig(max_iterations=1)
    result = rp.hao_plan(s, ga, hao, np.random.default_rng(2))
    assert len(result.best_distance_trace) == 1

    candidates = rp.ga_explore(s, ga, np.random.default_rng(2))
    refined = [rp.dp_refine(s, t, 3) for t in candidates]
    expected = min(t.total_distance_m for t in refined)
    assert result.tour.total_distance_m == pytest.approx(expected, rel=1e-12)


def test_hao_matches_held_karp_on_small_instances():
    hits = 0
    for seed in range(6):
        s = scen.generate_scenario(seed, 7)
        ga = rp.GaConfig(population_size=80, generations=30, candidate_count=8)
        hao = rp.HaoConfig(max_iterations=3)
        result = rp.hao_plan(s, ga, hao, np.random.default_rng(seed))
        optimum = rp.held_karp(s).total_distance_m
        assert result.tour.total_distance_m >= optimum - 1e-9
        if result.tour.total_distance_m <= optimum * (1.0 + 1e-9):
            hits += 1
    assert hits >= 5


def test_tour_distance_cache_is_consistent():
    s = scen.generate_scenario(1, 6)
    order = [3, 1, 4, 0, 5, 2]
    tour = rp.make_tour(s, order)
    assert tour.total_distance_m == pytest.approx(rp.tour_distance(s, order), rel=1e-12)
