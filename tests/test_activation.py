import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pass_uav import activation as act
from pass_uav import link_budget as lb
from pass_uav import propagation as prop
from pass_uav import scenario as scen


@pytest.fixture(scope="module")
def reference():
    return scen.generate_scenario(7, 10)


def _problem(reference, pos):
    return act.ActivationProblem.from_scenario(reference, pos)


def _random_positions(n, seed):
    rng = np.random.default_rng(seed)
    return [
        (rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(2.5, 7.5)) for _ in range(n)
    ]


def test_objective_zero_activation(reference):
    pr = _problem(reference, (30.0, 40.0, 5.0))
    assert pr.objective(np.zeros(10, dtype=int)) == 0.0


def test_objective_proportional_to_gain(reference):
    pr = _problem(reference, (30.0, 40.0, 5.0))
    bits = np.array([1, 0, 1, 0, 0, 1, 0, 0, 0, 1])
    assert pr.objective(bits) == pytest.approx(pr.rho * pr.gain(bits), rel=1e-12)


def test_objective_argmax_equals_power_argmin(reference):
    # cross-check on K=8: the objective maximizer minimizes required power
    base = scen.generate_scenario(7, 1, pa_count=8)
    pr = act.ActivationProblem.from_scenario(base, (37.0, 22.0, 5.0))
    best_by_power = None
    for word in range(1, 1 << 8):
        bits = np.array([(word >> i) & 1 for i in range(8)], dtype=int)
        p = lb.required_power(pr.gain(bits), 5.0, base.physics.noise_power_w)
        if best_by_power is None or p < best_by_power[0]:
            best_by_power = (p, bits)
    ex = act.exhaustive_best(pr)
    assert pr.gain(ex) == pytest.approx(pr.gain(best_by_power[1]), rel=1e-12)


def test_exhaustive_single_antenna():
    s = scen.generate_scenario(7, 1, pa_count=1)
    pr = act.ActivationProblem.from_scenario(s, (10.0, 10.0, 5.0))
    assert act.exhaustive_best(pr).tolist() == [1]


def test_exhaustive_aligned_phases_take_everything():
    # all phasors equal: every additional coupler adds amplitude
    phasors = np.ones(3, dtype=complex) * 1e-4
    pr = act.ActivationProblem(
        channel=np.conj(phasors), response=np.ones(3), delta=0.3, rho=1.0
    )
    assert act.exhaustive_best(pr).tolist() == [1, 1, 1]


def test_exhaustive_beats_singles(reference):
    pr = _problem(reference, (61.0, 18.0, 6.0))
    best = pr.objective(act.exhaustive_best(pr))
    for k in range(10):
        bits = np.zeros(10, dtype=int)
        bits[k] = 1
        assert best >= pr.objective(bits) - 1e-15


def test_exhaustive_guard():
    pr = act.ActivationProblem(
        channel=np.ones(21, dtype=complex), response=np.ones(21), delta=0.3, rho=1.0
    )
    with pytest.raises(ValueError, match="20"):
        act.exhaustive_best(pr)


def test_bnb_matches_exhaustive_sweep(reference):
    for pos in _random_positions(25, seed=42):
        pr = _problem(reference, pos)
        assert np.array_equal(act.bnb_optimize(pr), act.exhaustive_best(pr))


def test_bnb_explored_boxes_within_tree_bound(reference):
    k = 10
    for pos in _random_positions(5, seed=3):
        pr = _problem(reference, pos)
        trace = act.BnbTrace()
        act.bnb_optimize(pr, trace=trace)
        # every DP point is a distinct nonempty bitmap
        assert trace.boxes_created <= 2**k - 1


def test_bnb_pruned_boxes_hold_nothing_better():
    # audit on K=8: every point a hull step dropped is no better than the answer
    s = scen.generate_scenario(7, 1, pa_count=8)
    for pos in _random_positions(6, seed=11):
        pr = act.ActivationProblem.from_scenario(s, pos)
        trace = act.BnbTrace()
        best = pr.objective(act.bnb_optimize(pr, trace=trace))
        assert trace.pruned_boxes
        for key in trace.pruned_boxes:
            bits = np.array([int(b) for b in format(key, "08b")], dtype=np.int8)
            assert pr.objective(bits) <= best * (1.0 + 1e-9)


def test_bnb_matches_exhaustive_on_k12():
    s = scen.generate_scenario(5, 1, pa_count=12)
    for pos in _random_positions(6, seed=23):
        pr = act.ActivationProblem.from_scenario(s, pos)
        assert np.array_equal(act.bnb_optimize(pr), act.exhaustive_best(pr))


_MAGNITUDES = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e3))
_PHASORS = st.lists(
    st.builds(cmath.rect, _MAGNITUDES, st.floats(min_value=-math.pi, max_value=math.pi)),
    min_size=1, max_size=14,
)


@settings(max_examples=150, deadline=None)
@given(phasors=_PHASORS, delta=st.floats(min_value=1e-3, max_value=0.999))
def test_bnb_equals_exhaustive_bit_for_bit(phasors, delta):
    phasors = np.array(phasors, dtype=complex)
    pr = act.ActivationProblem(
        channel=np.conj(phasors), response=np.ones(phasors.size), delta=delta, rho=1.0
    )
    assert act.bnb_optimize(pr).tolist() == act.exhaustive_best(pr).tolist()


@pytest.mark.parametrize(
    "phasors, expected",
    [
        ([0, 0], [0, 1]),  # every activation ties at zero: one coupler, the later one
        ([1e-4, 1e-4], [1, 1]),  # the twins' singles coincide; the pair beats both
        ([1e-4, 1e-4, 0], [1, 1, 0]),  # a silent coupler ties; fewest active wins
        ([0, 1e-4, -1e-4], [0, 0, 1]),  # opposite singles tie; the smaller bitmap wins
    ],
)
def test_bnb_ties_resolve_like_exhaustive(phasors, expected):
    phasors = np.array(phasors, dtype=complex)
    pr = act.ActivationProblem(
        channel=np.conj(phasors), response=np.ones(phasors.size), delta=0.3, rho=1.0
    )
    assert act.exhaustive_best(pr).tolist() == expected
    assert act.bnb_optimize(pr).tolist() == expected


def test_bnb_k32_is_flip_optimal():
    s = scen.generate_scenario(7, 1, pa_count=32)
    pr = act.ActivationProblem.from_scenario(s, (37.0, 22.0, 5.0))
    bits = act.bnb_optimize(pr)
    best = pr.objective(bits)
    # too large for the oracle: check that no single flip improves the answer
    for k in range(32):
        flipped = bits.copy()
        flipped[k] ^= 1
        assert pr.objective(flipped) <= best * (1.0 + 1e-12)


def test_bnb_single_antenna():
    s = scen.generate_scenario(7, 1, pa_count=1)
    pr = act.ActivationProblem.from_scenario(s, (10.0, 10.0, 5.0))
    assert act.bnb_optimize(pr).tolist() == [1]


def test_islr_single_antenna():
    s = scen.generate_scenario(7, 1, pa_count=1)
    pr = act.ActivationProblem.from_scenario(s, (10.0, 10.0, 5.0))
    assert act.islr_optimize(pr).tolist() == [1]


def test_islr_never_beats_bnb(reference):
    for pos in _random_positions(20, seed=8):
        pr = _problem(reference, pos)
        bn = pr.objective(act.bnb_optimize(pr))
        isl = pr.objective(act.islr_optimize(pr))
        assert isl <= bn * (1.0 + 1e-9)


def test_islr_feasible_and_dominates_full(reference):
    phys = reference.physics
    for pos in _random_positions(20, seed=9):
        pr = _problem(reference, pos)
        bits = act.islr_optimize(pr)
        assert bits.any()
        gain = pr.gain(bits)
        power = lb.required_power(gain, phys.rate_threshold_bps_hz, phys.noise_power_w)
        assert math.isfinite(power)
        rate = lb.achievable_rate(power, gain, phys.noise_power_w)
        assert rate == pytest.approx(phys.rate_threshold_bps_hz, rel=1e-9)
        full_power = lb.required_power(
            pr.gain(act.full_activation(10)), phys.rate_threshold_bps_hz, phys.noise_power_w
        )
        assert power <= full_power


def test_islr_high_count_validation(reference):
    pr = _problem(reference, (10.0, 10.0, 6.0))
    with pytest.raises(ValueError):
        act.islr_optimize(pr, high_count=0)
    with pytest.raises(ValueError):
        act.islr_optimize(pr, high_count=11)


def test_islr_deterministic(reference):
    pr = _problem(reference, (77.0, 13.0, 3.0))
    a = act.islr_optimize(pr)
    b = act.islr_optimize(pr)
    assert np.array_equal(a, b)


def test_full_activation_vector():
    bits = act.full_activation(10)
    assert bits.tolist() == [1] * 10
    beta = prop.radiation_ratios(bits, 0.3)
    assert float(np.sum(beta**2)) == pytest.approx(1.0 - (1.0 - 0.09) ** 10, rel=1e-12)


def test_full_activation_never_beats_bnb(reference):
    for pos in _random_positions(10, seed=14):
        pr = _problem(reference, pos)
        assert pr.objective(act.full_activation(10)) <= pr.objective(
            act.bnb_optimize(pr)
        ) * (1.0 + 1e-9)


def test_strategies_deterministic(reference):
    pos = (66.0, 29.0, 5.5)
    pr = _problem(reference, pos)
    assert np.array_equal(act.bnb_optimize(pr), act.bnb_optimize(pr))
    assert np.array_equal(act.exhaustive_best(pr), act.exhaustive_best(pr))
