import cmath
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import bitmap_digest, exhaustive_reference, islr_reference

from pass_uav import activation as act
from pass_uav import harness
from pass_uav import link_budget as lb
from pass_uav import propagation as prop
from pass_uav import route_planner as rp
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
_PHASOR = st.builds(cmath.rect, _MAGNITUDES, st.floats(min_value=-math.pi, max_value=math.pi))
_PHASORS = st.lists(_PHASOR, min_size=1, max_size=14)
# blocks of up to eight problems that share K, as exact_rows takes them
_PHASOR_BLOCKS = st.integers(min_value=1, max_value=12).flatmap(
    lambda k: st.lists(st.lists(_PHASOR, min_size=k, max_size=k), min_size=1, max_size=8)
)


@settings(max_examples=150, deadline=None)
@given(phasors=_PHASORS, delta=st.floats(min_value=1e-3, max_value=0.999))
def test_bnb_equals_exhaustive_bit_for_bit(phasors, delta):
    phasors = np.array(phasors, dtype=complex)
    pr = act.ActivationProblem(
        channel=np.conj(phasors), response=np.ones(phasors.size), delta=delta, rho=1.0
    )
    assert act.bnb_optimize(pr).tolist() == act.exhaustive_best(pr).tolist()


@settings(max_examples=150, deadline=None)
@given(block=_PHASOR_BLOCKS, delta=st.floats(min_value=1e-3, max_value=0.999))
def test_exact_rows_equal_exhaustive_bit_for_bit(block, delta):
    phasors = np.array(block, dtype=complex)
    response = np.ones(phasors.shape[1])
    got = act.exact_rows(np.conj(phasors), response, delta, 1.0)
    for row, bits in zip(phasors, got):
        pr = act.ActivationProblem(channel=np.conj(row), response=response, delta=delta, rho=1.0)
        assert bits.tolist() == act.exhaustive_best(pr).tolist()


# phasors that tie, or nearly tie, in |z|^2: zeros, tiny tails, twins one ulp
# apart, lattice phases and small integers
_TIE_PRONE_PHASOR = st.one_of(_PHASOR, st.sampled_from(
    [0j, 1e-6, 1, -1, 1j, 1 + 1j, 2 - 1j, cmath.rect(1, 3.0), cmath.rect(1 + 2**-52, 3.0)]))
_DELTAS = st.one_of(st.sampled_from([0.25, 0.3, 0.5, 2**-9]),
                    st.floats(min_value=1e-3, max_value=0.999))


@settings(max_examples=150, deadline=None)
@given(block=st.integers(min_value=1, max_value=10).flatmap(
           lambda k: st.lists(st.lists(_TIE_PRONE_PHASOR, min_size=k, max_size=k),
                              min_size=1, max_size=6)),
       delta=_DELTAS)
def test_exhaustive_rows_equal_the_enumeration_bit_for_bit(block, delta):
    phasors = np.array(block, dtype=complex)
    response = np.ones(phasors.shape[1])
    got = act.exhaustive_rows(np.conj(phasors), response, delta, 1.0)
    for row, bits in zip(phasors, got):
        pr = act.ActivationProblem(channel=np.conj(row), response=response, delta=delta, rho=1.0)
        assert bits.tolist() == exhaustive_reference(pr).tolist()


@settings(max_examples=12, deadline=None)
@given(k=st.integers(min_value=63, max_value=130), rows=st.integers(min_value=1, max_value=3),
       kind=st.sampled_from(["random", "lattice", "twins", "integers"]),
       seed=st.integers(min_value=0, max_value=2**32 - 1), delta=_DELTAS)
def test_exact_rows_equal_bnb_past_one_key_word(k, rows, kind, seed, delta):
    # keys of one to three uint64 words; lattice phases and small integers
    # send rows to the fallback, twins one ulp apart tie nearly in |z|^2
    rng = np.random.default_rng(seed)
    phasors = rng.normal(size=(rows, k)) + 1j * rng.normal(size=(rows, k))
    if kind == "lattice":
        phasors = 1j ** rng.integers(0, 4, size=(rows, k)) * rng.integers(1, 3, size=(rows, k))
    elif kind == "twins":
        phasors[:, 1::2] = phasors[:, ::2][:, : k // 2] * (1 + 2**-52)
    elif kind == "integers":
        phasors = rng.integers(-2, 3, size=(rows, k)) + 1j * rng.integers(-2, 3, size=(rows, k))
    response = np.ones(k)
    got = act.exact_rows(np.conj(phasors), response, delta, 1.0)
    for row, bits in zip(phasors, got):
        pr = act.ActivationProblem(channel=np.conj(row), response=response, delta=delta, rho=1.0)
        assert bits.tolist() == act.bnb_optimize(pr).tolist()


_GENERIC_ROW = [0.3 + 0.4j, -0.7 + 0.1j, 0.2 - 0.9j, 0.5 + 0.5j]


@pytest.mark.parametrize(
    "row",
    [
        [0.3 + 0.4j, 0.3 + 0.4j, 0.2 - 0.9j, 0.5 + 0.5j],  # twin phasors
        [0.3 + 0.4j, -0.7 + 0.1j, 0, 0.5 + 0.5j],  # a silent coupler
        [0.3 + 0.4j, -0.7 + 0.1j, 0.2 - 0.9j, -0.2 + 0.9j],  # opposite phasors
        [1e-4, 1e-4, 0],  # twins and a silent coupler
        [0, 1e-4, -1e-4],  # opposite singles tie
    ],
)
def test_degenerate_rows_take_the_fallback_and_match_exhaustive(row):
    # each degenerate row sits in a block beside a generic row, which the
    # array step solves; both answers must be the oracle's
    k = len(row)
    phasors = np.array([row, _GENERIC_ROW[:k]], dtype=complex)
    delta = 0.3
    _, flagged = act._hull_rows(phasors, delta)
    assert flagged.tolist() == [True, False]
    got = act.exact_rows(np.conj(phasors), np.ones(k), delta, 1.0)
    for p, bits in zip(phasors, got):
        pr = act.ActivationProblem(channel=np.conj(p), response=np.ones(k), delta=delta, rho=1.0)
        assert bits.tolist() == act.exhaustive_best(pr).tolist()


def test_exact_rows_break_mirror_ties_like_exhaustive():
    # conjugate singles have exactly equal |z|^2 and the pair loses to them:
    # a tie the array step decides by itself, to the smaller bitmap
    p = cmath.rect(1.0, math.radians(80.0))
    phasors = np.array([[p, p.conjugate()], [p.conjugate(), p]])
    _, flagged = act._hull_rows(phasors, 0.3)
    assert not flagged.any()
    assert act.exact_rows(np.conj(phasors), np.ones(2), 0.3, 1.0).tolist() == [[0, 1], [0, 1]]


@pytest.mark.parametrize(
    "scale, expected",
    [(1 + 2**-52, [[0, 1], [1, 0]]), (1 - 2**-53, [[1, 0], [0, 1]])],
)
def test_exact_rows_rank_near_ties_in_place(scale, expected):
    # the two singles' float |z|^2 lie within rounding of each other, so the
    # winner is ranked on exact values in the array step itself
    p = cmath.rect(scale, 3.0)
    phasors = np.array([[1, p], [p, 1]])
    _, flagged = act._hull_rows(phasors, 0.3)
    assert not flagged.any()
    got = act.exact_rows(np.conj(phasors), np.ones(2), 0.3, 1.0)
    for row, bits in zip(phasors, got):
        pr = act.ActivationProblem(channel=np.conj(row), response=np.ones(2), delta=0.3, rho=1.0)
        assert bits.tolist() == act.exhaustive_best(pr).tolist()
    assert got.tolist() == expected


@pytest.mark.parametrize("solve", [act.exact_rows, act.islr_rows, act.exhaustive_rows])
def test_row_solvers_take_any_block_layout(solve):
    channels, response, delta, rho = next(_flying_slot_blocks((10,)))
    expected = solve(np.ascontiguousarray(channels), response, delta, rho)
    for block in (np.asfortranarray(channels), channels[:, list(range(10))]):
        assert np.array_equal(solve(block, response, delta, rho), expected)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "pa_count, delta",
    # K = 64 keys fill one uint64 word and need no fallback; c == 1.0 leaves no centre s
    [(64, None), (10, 1e-9)],
)
def test_exact_rows_fall_back_where_the_array_step_cannot_go(pa_count, delta):
    overrides = {} if delta is None else {"radiation_constant": delta}
    s = scen.generate_scenario(7, 1, pa_count=pa_count, physics_overrides=overrides)
    positions = [(37.0, 22.0, 5.0), (61.0, 18.0, 6.0)]
    response, delta, rho = act.link_constants(s)
    flagged = act._hull_rows(np.conj(prop.channel(s, positions)) * response, delta)[1]
    assert flagged.tolist() == [pa_count == 10] * 2
    got = act.exact_rows(prop.channel(s, positions), response, delta, rho)
    for pos, bits in zip(positions, got):
        assert bits.tolist() == act.bnb_optimize(_problem(s, pos)).tolist()


@pytest.mark.parametrize(
    "phasors, expected",
    [
        ([0, 0], [0, 1]),  # every activation ties at zero: one coupler, the later one
        ([1e-4, 1e-4], [1, 1]),  # the twins' singles coincide; the pair beats both
        ([1e-4, 1e-4, 0], [1, 1, 0]),  # a silent coupler ties; fewest active wins
        ([0, 1e-4, -1e-4], [0, 0, 1]),  # opposite singles tie; the smaller bitmap wins
        # every |z|^2 would underflow to a tie at zero without the phasor scaling
        (np.array([1, 1j, -1 - 1j, 0.01]) * 1e-170, [0, 0, 1, 0]),
        # twin pairs of near-unit phasors whose |z|^2 differ by about 2e-16
        # relative: the Horner sum rounds the second pair ahead, but in exact
        # arithmetic the first pair is larger, and both solvers take it
        (
            [-0.5871085843732176 - 0.8095081902953648j] * 2
            + [0.06740733775696808 + 0.9977255388214326j] * 2,
            [1, 1, 0, 0],
        ),
    ],
)
def test_bnb_ties_resolve_like_exhaustive(phasors, expected):
    phasors = np.array(phasors, dtype=complex)
    pr = act.ActivationProblem(
        channel=np.conj(phasors), response=np.ones(phasors.size), delta=0.3, rho=1.0
    )
    assert act.exhaustive_best(pr).tolist() == expected
    assert act.bnb_optimize(pr).tolist() == expected


def test_rounding_does_not_pick_a_dominated_activation():
    # adding the silent coupler 9 only scales coupler 10's tiny term by c, and
    # so lowers |z|^2 in exact arithmetic, yet its float |z|^2 rounds one ulp
    # higher; the oracle, the hull DP and the array step all leave it out
    row = [0j] * 7 + [cmath.rect(279.0, 0.125), cmath.rect(277.0, 0.5), 0j,
                      cmath.rect(1.0000000000000002e-06, -1.25)]
    phasors, delta, expected = np.array(row), 0.001953125, [0] * 7 + [1, 1, 0, 1]
    pr = act.ActivationProblem(channel=np.conj(phasors), response=np.ones(11), delta=delta, rho=1.0)
    worse = np.array([0] * 7 + [1, 1, 1, 1])
    assert pr.gain(worse) > pr.gain(np.array(expected))
    assert act.exhaustive_best(pr).tolist() == expected
    assert act.bnb_optimize(pr).tolist() == expected
    assert act.exact_rows(np.conj(phasors)[None], np.ones(11), delta, 1.0).tolist() == [expected]


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
            pr.gain(np.ones(10, dtype=np.int8)), phys.rate_threshold_bps_hz, phys.noise_power_w
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


def _flying_slot_problems(pa_counts):
    """Every flying slot of the nearest-neighbor plans at seeds 1-3, for each
    coupler count in `pa_counts`."""
    for seed in (1, 2, 3):
        for k in pa_counts:
            s = scen.generate_scenario(seed, 10, pa_count=k)
            plan = lb.discretize(s, rp.nearest_neighbor(s))
            for i in plan.flying_indices():
                yield act.ActivationProblem.from_scenario(s, plan.slots[i].position_m)


def _islr_golden_problems():
    """The flying slots at K in {1, 3, 10, 16}, then seeded unit-modulus phasor
    problems with repeated and zero phasors. A rho of 1e-322 or 1e-323 leaves
    the objective a few subnormal bits, so many candidate sets tie exactly and
    the tie rules show."""
    yield from _flying_slot_problems((1, 3, 10, 16))
    rng = np.random.default_rng(14)
    for _ in range(600):
        k = int(rng.integers(1, 13))
        distinct = np.exp(2j * np.pi * rng.random(k))
        phasors = distinct[rng.integers(0, rng.integers(1, k + 1), size=k)]
        phasors[rng.random(k) < 0.2] = 0
        yield act.ActivationProblem(
            channel=np.conj(phasors), response=np.ones(k), delta=float(rng.uniform(0.05, 0.95)),
            rho=float(rng.choice([1.0, 1e-322, 1e-323])),
        )


def test_islr_bitmaps_are_unchanged():
    # sha256 of ISLR's int8 bitmaps over the problems above, each solved with
    # high_count None, 1 and K; it pins the sets scored, their order and the
    # tie rules across changes to the heuristic.
    digest, calls = bitmap_digest(
        act.islr_optimize(pr, high_count)
        for pr in _islr_golden_problems()
        for high_count in (None, 1, pr.size)
    )
    assert calls == 4524
    assert digest == "0da7840d3b76a1c948bf9caab301e8f7aa5ce215595989d65a0cfbfc5095074a"


def test_islr_rows_on_flying_slots_match_one_slot_solves():
    # one block per plan, K in {1, 3, 10, 16}, each high_count of the golden test
    for channels, response, delta, rho in _flying_slot_blocks((1, 3, 10, 16)):
        k = channels.shape[1]
        for high_count in (None, 1, k):
            rows = act.islr_rows(channels, response, delta, rho, high_count)
            for h, row in zip(channels, rows):
                expected = act.islr_optimize(act.ActivationProblem(h, response, delta, rho), high_count)
                assert np.array_equal(row, expected)


def test_islr_walk_moves_in_four_rounds():
    # a walk that still moves in its fourth round: a cap of 2 rounds gives
    # [1,0,0,1,1,1,1,0,1,0,0,0,1,0], a cap of 3 ends on coupler 13 still on
    channel = np.array([
        -1.2464084654890566 - 1.1930700794476279j, -0.7602010690633242 - 1.3114237867132217j,
        0.8629825647254689 - 0.1300034976280829j, -1.5646002890501058 - 0.24555377044348584j,
        1.327214622618723 - 1.492745202051466j, -0.9657046501851866 - 3.311730652756559j,
        -1.7037701329663761 + 1.7392430211273227j, 0.027534116641699784 - 0.025593758543069105j,
        1.4262957452762428 - 1.188807340493079j, 0.6360941772449658 - 0.3456764403627407j,
        1.2906177802836205 - 1.0073678454808745j, -1.0781055957213785 - 0.7582506514660935j,
        -2.310973912283712 + 1.846489368417861j, -1.0195083087108145 + 1.2029939064310868j,
    ])
    pr = act.ActivationProblem(channel, np.ones(14), 0.713050467759899, 1.0)
    expected = [1, 1, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0]
    assert act.islr_optimize(pr, 7).tolist() == expected
    assert islr_reference(pr, 7).tolist() == expected


def _mixed_block(k, rows, data):
    """A drawn block for the row solvers: repeated rows, zero phasors and
    subnormal objectives, as (channel, response, delta, rho, high_count)."""
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    distinct = rng.normal(size=(rows, k)) + 1j * rng.normal(size=(rows, k))
    channel = distinct[rng.integers(0, rng.integers(1, rows + 1), size=rows)]
    channel[rng.random((rows, k)) < 0.2] = 0
    response = np.exp(2j * np.pi * rng.random(k))
    delta = data.draw(st.floats(min_value=0.05, max_value=0.95))
    rho = data.draw(st.sampled_from([1.0, 1e-322, 1e-323]))
    high_count = data.draw(st.one_of(st.none(), st.integers(min_value=1, max_value=k)))
    return channel, response, delta, rho, high_count


def _rows_in_chunks(solve, block_rows, channel, *args):
    """A row solver in chunks of the default size (block_rows None) or of
    block_rows rows."""
    k = channel.shape[1]
    cells = {act.exact_rows: 2 * k + 2, act.exhaustive_rows: 1 << k, act.islr_rows: k * k}[solve]
    with mock.patch.object(act, "_BLOCK_CELLS", act._BLOCK_CELLS if block_rows is None
                           else block_rows * cells):
        block = solve(channel, *args)
    assert block.dtype == np.int8 and block.shape == channel.shape
    return block


@settings(max_examples=40, deadline=None)
@given(k=st.integers(min_value=1, max_value=10), rows=st.integers(min_value=1, max_value=8),
       data=st.data())
@pytest.mark.parametrize("solve", [act.exact_rows, act.exhaustive_rows, act.islr_rows])
def test_row_solvers_give_the_same_bitmaps_in_any_chunks(solve, k, rows, data):
    channel, response, delta, rho, _ = _mixed_block(k, rows, data)
    whole = _rows_in_chunks(solve, None, channel, response, delta, rho)
    for block_rows in (1, 2):
        assert np.array_equal(_rows_in_chunks(solve, block_rows, channel, response, delta, rho),
                              whole)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(min_value=1, max_value=12), rows=st.integers(min_value=1, max_value=8),
       block_rows=st.sampled_from([None, 3, 1]), data=st.data())
def test_islr_rows_match_islr_optimize_on_mixed_blocks(k, rows, block_rows, data):
    channel, response, delta, rho, high_count = _mixed_block(k, rows, data)
    block = _rows_in_chunks(act.islr_rows, block_rows, channel, response, delta, rho,
                            high_count)
    for h, row in zip(channel, block):
        expected = act.islr_optimize(act.ActivationProblem(h, response, delta, rho), high_count)
        assert np.array_equal(row, expected)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(min_value=1, max_value=12), rows=st.integers(min_value=1, max_value=8),
       block_rows=st.sampled_from([None, 3, 1]), data=st.data())
def test_islr_rows_match_the_sequential_reference(k, rows, block_rows, data):
    # the array walks keep only each walk's current set; the reference scores
    # one set at a time and keeps every set it scored
    channel, response, delta, rho, high_count = _mixed_block(k, rows, data)
    block = _rows_in_chunks(act.islr_rows, block_rows, channel, response, delta, rho,
                            high_count)
    for h, row in zip(channel, block):
        expected = islr_reference(act.ActivationProblem(h, response, delta, rho), high_count)
        assert np.array_equal(row, expected)


def test_islr_rows_memory_stays_bounded_at_large_k():
    # a walk scores up to K - 1 sets of K couplers per row; the cell cap keeps
    # a 64-row block at K = 256 in chunks of a few rows
    rng = np.random.default_rng(5)
    channel = rng.normal(size=(64, 256)) + 1j * rng.normal(size=(64, 256))
    response = np.exp(2j * np.pi * rng.random(256))
    tracemalloc.start()
    try:
        act.islr_rows(channel, response, 0.3, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_islr_rows_check_high_count_once_per_block():
    channel = np.ones((3, 4), dtype=complex)
    for bad in (0, 5):
        with pytest.raises(ValueError, match=r"high_count must lie in \[1, K\]"):
            act.islr_rows(channel, np.ones(4), 0.5, 1.0, bad)
    assert act.islr_rows(channel[:0], np.ones(4), 0.5, 1.0).shape == (0, 4)


def test_exact_bitmaps_on_flying_slots_are_unchanged():
    # sha256 of the exact activator's int8 bitmaps over every flying slot at
    # K in {1, 3, 10, 16, 32}; it pins the exact answers, ties included, across
    # changes to the solver. The tie-prone random problems are left out: on
    # them, two activations whose |z|^2 lie within rounding of each other
    # rank by the order of the float sums.
    digest, calls = bitmap_digest(
        act.bnb_optimize(pr) for pr in _flying_slot_problems((1, 3, 10, 16, 32))
    )
    assert calls == 1135
    assert digest == "3a32e96e72d4a0167124b236fd270b3cc1eaccd14379d7738035656c148a7467"


def _flying_slot_blocks(pa_counts, seeds=(1, 2, 3)):
    """The slots of `_flying_slot_problems`, in the same order, as one channel
    block per plan with the plan's shared response, delta and rho."""
    for seed in seeds:
        for k in pa_counts:
            s = scen.generate_scenario(seed, 10, pa_count=k)
            plan = lb.discretize(s, rp.nearest_neighbor(s))
            yield prop.channel(s, plan.positions()[plan.flying_indices()]), *act.link_constants(s)


def test_exact_rows_on_flying_slots_match_the_golden_digest_without_fallback():
    # the array step must solve every golden slot by itself: a row that falls
    # back to the scalar DP gets the right answer, but slowly
    rows, fallbacks = [], 0
    for channels, response, delta, rho in _flying_slot_blocks((1, 3, 10, 16, 32)):
        fallbacks += int(act._hull_rows(np.conj(channels) * response, delta)[1].sum())
        rows.extend(act.exact_rows(channels, response, delta, rho))
    assert fallbacks == 0
    digest, calls = bitmap_digest(rows)
    assert calls == 1135
    assert digest == "3a32e96e72d4a0167124b236fd270b3cc1eaccd14379d7738035656c148a7467"


def test_exact_rows_past_int64_keys_match_the_golden_digest_without_fallback():
    # keys of one and two uint64 words; the digest is of the scalar DP's
    # answers on the first 12 flying slots of the seed-1 plans
    rows, fallbacks = [], 0
    for channels, response, delta, rho in _flying_slot_blocks((64, 128), seeds=(1,)):
        channels = channels[:12]
        fallbacks += int(act._hull_rows(np.conj(channels) * response, delta)[1].sum())
        rows.extend(act.exact_rows(channels, response, delta, rho))
    assert fallbacks == 0
    digest, calls = bitmap_digest(rows)
    assert calls == 24
    assert digest == "fb4e5ee17369bc799757d9674a13a31937cf70ed86c43e776e85be15a5de43ad"


def test_exact_rows_memory_stays_bounded_on_a_large_block():
    # the hull DP holds 2K + 2 vertices per row; the cell cap keeps a
    # 20,000-row block in chunks
    rng = np.random.default_rng(6)
    channel = rng.normal(size=(20_000, 16)) + 1j * rng.normal(size=(20_000, 16))
    response = np.exp(2j * np.pi * rng.random(16))
    tracemalloc.start()
    try:
        act.exact_rows(channel, response, 0.3, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_full_activation_vector(reference):
    # the all-on baseline is the `full` activator's answer at any position
    bits = harness.solve_slot(_problem(reference, (30.0, 40.0, 5.0)), "full", harness.StrategySpec())
    assert bits.dtype == np.int8 and bits.tolist() == [1] * 10
    beta = prop.radiation_ratios(bits, 0.3)
    assert float(np.sum(beta**2)) == pytest.approx(1.0 - (1.0 - 0.09) ** 10, rel=1e-12)


def test_full_activation_never_beats_bnb(reference):
    for pos in _random_positions(10, seed=14):
        pr = _problem(reference, pos)
        assert pr.objective(np.ones(10, dtype=np.int8)) <= pr.objective(
            act.bnb_optimize(pr)
        ) * (1.0 + 1e-9)


def test_strategies_deterministic(reference):
    pos = (66.0, 29.0, 5.5)
    pr = _problem(reference, pos)
    assert np.array_equal(act.bnb_optimize(pr), act.bnb_optimize(pr))
    assert np.array_equal(act.exhaustive_best(pr), act.exhaustive_best(pr))
