import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import walk_slot_count

from pass_uav import activation
from pass_uav import link_budget as lb
from pass_uav import route_planner as rp
from pass_uav import scenario as scen


def _single_node_scenario(node_pos, tasks=5, v_f=5.0, v_d=0.5, tau=1.0):
    base = scen.generate_scenario(7, 1)
    node = scen.DeliveryNode(position_m=node_pos, task_count=tasks)
    return scen.Scenario(
        physics=base.physics, waveguide=base.waveguide, station_m=(0.0, 0.0, 0.0),
        nodes=(node,), flight_speed_mps=v_f, delivery_speed_tps=v_d,
        slot_seconds=tau, rng_seed=7,
    )


def test_rate_trivial_points():
    assert lb.achievable_rate(0.0, 1.0, 1e-12) == 0.0
    assert lb.achievable_rate(1e-12, 1.0, 1e-12) == pytest.approx(1.0)
    assert lb.achievable_rate(31e-12, 1.0, 1e-12) == pytest.approx(5.0)


def test_required_power_reference_point():
    # gain 1, R_th = 5 bps/Hz, sigma^2 = -90 dBm: (2^5 - 1) * 1e-12 W
    assert lb.required_power(1.0, 5.0, 1e-12) == pytest.approx(3.1e-11, rel=1e-9)


def test_required_power_inverse_proportional():
    p1 = lb.required_power(2e-9, 5.0, 1e-12)
    p2 = lb.required_power(4e-9, 5.0, 1e-12)
    assert p1 == pytest.approx(2.0 * p2, rel=1e-12)


def test_required_power_zero_gain_is_infinite():
    assert math.isinf(lb.required_power(0.0, 5.0, 1e-12))


@settings(max_examples=100, deadline=None)
@given(
    gain=st.floats(min_value=1e-14, max_value=1e-2),
    rate=st.floats(min_value=0.1, max_value=12.0),
)
def test_rate_power_inversion(gain, rate):
    power = lb.required_power(gain, rate, 1e-12)
    assert lb.achievable_rate(power, gain, 1e-12) == pytest.approx(rate, rel=1e-9)


def test_discretize_hand_example():
    # one node 10 m out, 5 tasks at 0.5 tasks/s, tau = 1 s, v_f = 5 m/s:
    # 2 flying out + 10 hovering + 2 flying back = 14 slots
    s = _single_node_scenario((10.0, 0.0, 0.0))
    tour = rp.make_tour(rp.distance_matrix(s), [0])
    plan = lb.discretize(s, tour)
    assert plan.total_slots == 14
    modes = [slot.mode for slot in plan.slots]
    assert modes == [lb.FLYING] * 2 + [lb.HOVERING] * 10 + [lb.FLYING] * 2
    assert all(s_.node_index == 0 for s_ in plan.slots if s_.mode == lb.HOVERING)


def test_halving_tau_doubles_integral_hover_count():
    s1 = _single_node_scenario((10.0, 0.0, 0.0), tasks=5, tau=1.0)
    s2 = _single_node_scenario((10.0, 0.0, 0.0), tasks=5, tau=0.5)
    tour = rp.make_tour(rp.distance_matrix(s1), [0])
    hov1 = sum(1 for sl in lb.discretize(s1, tour).slots if sl.mode == lb.HOVERING)
    hov2 = sum(1 for sl in lb.discretize(s2, tour).slots if sl.mode == lb.HOVERING)
    assert hov1 == 10 and hov2 == 20


def test_station_at_node_gives_hover_only():
    s = _single_node_scenario((0.0, 0.0, 0.0))
    plan = lb.discretize(s, rp.make_tour(rp.distance_matrix(s), [0]))
    assert all(slot.mode == lb.HOVERING for slot in plan.slots)
    assert plan.total_slots == 10


def test_partial_final_slot_clamps_to_node():
    # 12 m at 5 m/s: slots at 0 m, 5 m, then the 2 m remainder pinned on the node
    s = _single_node_scenario((12.0, 0.0, 0.0))
    plan = lb.discretize(s, rp.make_tour(rp.distance_matrix(s), [0]))
    flying_out = [sl for sl in plan.slots[:3]]
    assert [sl.mode for sl in flying_out] == [lb.FLYING] * 3
    assert flying_out[0].position_m[0] == pytest.approx(0.0)
    assert flying_out[1].position_m[0] == pytest.approx(5.0)
    assert flying_out[2].position_m[0] == pytest.approx(12.0)


def test_exact_multiple_segment_keeps_slot_start_positions():
    s = _single_node_scenario((10.0, 0.0, 0.0))
    plan = lb.discretize(s, rp.make_tour(rp.distance_matrix(s), [0]))
    assert plan.slots[0].position_m[0] == pytest.approx(0.0)
    assert plan.slots[1].position_m[0] == pytest.approx(5.0)


def test_slot_count_matches_walk_oracle_on_random_tours():
    rng = np.random.default_rng(5)
    for trial in range(60):
        m = int(rng.integers(1, 8))
        s = scen.generate_scenario(int(rng.integers(0, 10_000)), m)
        order = rng.permutation(m).tolist()
        plan = lb.discretize(s, rp.make_tour(rp.distance_matrix(s), order))
        assert plan.total_slots == walk_slot_count(s, order)


def test_cycle_energy_constant_position():
    s = _single_node_scenario((0.0, 20.0, 5.0), tasks=5)
    plan = lb.discretize(s, rp.make_tour(rp.distance_matrix(s), [0]))
    act = np.zeros(10, dtype=int)
    act[2] = 1
    report = lb.cycle_energy(s, plan, [act] * plan.total_slots)
    hover_slots = [i for i, sl in enumerate(plan.slots) if sl.mode == lb.HOVERING]
    p_hover = report.per_slot_power_w[hover_slots[0]]
    for i in hover_slots:
        assert report.per_slot_power_w[i] == pytest.approx(p_hover, rel=1e-12)


def test_cycle_energy_single_position_is_slots_times_power():
    # station on the node: every slot hovers at the same point, so the cycle
    # total collapses to L * P * tau
    s = _single_node_scenario((0.0, 0.0, 0.0), tasks=5, tau=2.0)
    plan = lb.discretize(s, rp.make_tour(rp.distance_matrix(s), [0]))
    act = np.ones(10, dtype=int)
    report = lb.cycle_energy(s, plan, [act] * plan.total_slots)
    p = report.per_slot_power_w[0]
    assert report.total_energy_j == pytest.approx(plan.total_slots * p * 2.0, rel=1e-12)


def test_cycle_energy_total_is_sum():
    s = scen.generate_scenario(4, 3)
    plan = lb.discretize(s, rp.make_tour(rp.distance_matrix(s), [0, 1, 2]))
    act = np.ones(10, dtype=int)
    report = lb.cycle_energy(s, plan, [act] * plan.total_slots)
    assert report.total_energy_j == pytest.approx(
        math.fsum(p * plan.slot_seconds for p in report.per_slot_power_w), rel=1e-12
    )


def test_rate_threshold_ratio_is_exact():
    # identical plan and activations: energy scales by (2^6 - 1) / (2^5 - 1)
    base = scen.generate_scenario(4, 3)
    plans = {}
    for rth in (5.0, 6.0):
        s = scen.generate_scenario(4, 3, physics_overrides={"rate_threshold_bps_hz": rth})
        plan = lb.discretize(s, rp.make_tour(rp.distance_matrix(s), [0, 1, 2]))
        act = np.ones(10, dtype=int)
        plans[rth] = lb.cycle_energy(s, plan, [act] * plan.total_slots).total_energy_j
    assert plans[6.0] / plans[5.0] == pytest.approx(63.0 / 31.0, rel=1e-12)
    del base


def test_energy_strictly_increasing_in_rate():
    energies = []
    for rth in (3.0, 4.0, 5.0, 6.0, 7.0):
        s = scen.generate_scenario(4, 3, physics_overrides={"rate_threshold_bps_hz": rth})
        plan = lb.discretize(s, rp.make_tour(rp.distance_matrix(s), [0, 1, 2]))
        act = np.ones(10, dtype=int)
        energies.append(lb.cycle_energy(s, plan, [act] * plan.total_slots).total_energy_j)
    assert all(a < b for a, b in zip(energies, energies[1:]))


def test_infeasible_slot_raises():
    s = scen.generate_scenario(4, 2)
    plan = lb.discretize(s, rp.make_tour(rp.distance_matrix(s), [0, 1]))
    zero = np.zeros(10, dtype=int)
    with pytest.raises(lb.InfeasibleSlotError, match="slot 0 has zero gain"):
        lb.cycle_energy(s, plan, [zero] * plan.total_slots)


def test_infeasible_slots_name_the_first_one():
    s = scen.generate_scenario(4, 2)
    plan = lb.discretize(s, rp.make_tour(rp.distance_matrix(s), [0, 1]))
    acts = [np.ones(10, dtype=int)] * plan.total_slots
    acts[3] = acts[5] = np.zeros(10, dtype=int)
    with pytest.raises(lb.InfeasibleSlotError, match="slot 3 has zero gain"):
        lb.cycle_energy(s, plan, acts)


def test_realized_rate_meets_threshold():
    s = scen.generate_scenario(4, 2)
    plan = lb.discretize(s, rp.make_tour(rp.distance_matrix(s), [0, 1]))
    act = np.ones(10, dtype=int)
    report = lb.cycle_energy(s, plan, [act] * plan.total_slots)
    for slot, p in zip(plan.slots, report.per_slot_power_w):
        gain = activation.ActivationProblem.from_scenario(s, slot.position_m).gain(act)
        rate = lb.achievable_rate(p, gain, s.physics.noise_power_w)
        assert rate >= s.physics.rate_threshold_bps_hz - 1e-9
