import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pass_uav import activation as act
from pass_uav import propagation as prop
from pass_uav import scenario as scen


@pytest.fixture(scope="module")
def reference():
    return scen.generate_scenario(7, 10)


def test_channel_magnitude_against_hand_computation(reference):
    # UAV directly above the coupler at x=45 offset to (50,10,10):
    # d = sqrt(5^2 + 10^2 + 5^2) with the coupler at (45, 0, 5)
    h = prop.channel(reference, (50.0, 10.0, 10.0))
    lam = reference.physics.wavelength_m
    d = math.sqrt(25.0 + 100.0 + 25.0)
    assert abs(h[4]) == pytest.approx((lam / (4 * math.pi)) / d, rel=1e-12)


def test_channel_example_coupler_at_x50():
    # coupler placed exactly at x=50 on the waveguide; independent recomputation
    # with lam = c / 15 GHz gives d = sqrt(125), |h| = 1.4225402826891150e-04
    wg = scen.WaveguideConfig(
        y_m=0.0, z_m=5.0, span_m=100.0, feed_x_m=0.0, pa_x_m=(50.0,), min_spacing_m=10.0
    )
    s = scen.generate_scenario(7, 1)
    s = scen.Scenario(
        physics=s.physics, waveguide=wg, station_m=s.station_m, nodes=s.nodes,
        flight_speed_mps=s.flight_speed_mps, delivery_speed_tps=s.delivery_speed_tps,
        slot_seconds=s.slot_seconds, rng_seed=s.rng_seed,
    )
    h = prop.channel(s, (50.0, 10.0, 10.0))
    assert abs(h[0]) == pytest.approx(1.422540282689115e-04, rel=1e-12)


def test_channel_symmetry_along_x(reference):
    # equal offsets on either side of two couplers give equal magnitudes
    h = prop.channel(reference, (50.0, 7.0, 6.0))  # midpoint between x=45 and x=55
    assert abs(h[4]) == pytest.approx(abs(h[5]), rel=1e-12)


def test_channel_inverse_distance_law():
    wg = scen.WaveguideConfig(
        y_m=0.0, z_m=5.0, span_m=100.0, feed_x_m=0.0, pa_x_m=(50.0,), min_spacing_m=10.0
    )
    base = scen.generate_scenario(7, 1)
    s = scen.Scenario(
        physics=base.physics, waveguide=wg, station_m=base.station_m, nodes=base.nodes,
        flight_speed_mps=base.flight_speed_mps, delivery_speed_tps=base.delivery_speed_tps,
        slot_seconds=base.slot_seconds, rng_seed=base.rng_seed,
    )
    near = abs(prop.channel(s, (50.0, 10.0, 5.0))[0])
    far = abs(prop.channel(s, (50.0, 20.0, 5.0))[0])
    assert near == pytest.approx(2.0 * far, rel=1e-12)


def test_degenerate_geometry_raises(reference):
    pa = reference.waveguide.pa_positions()[0]
    with pytest.raises(prop.DegenerateGeometryError):
        prop.channel(reference, tuple(pa))


def test_waveguide_response_phases(reference):
    g = prop.waveguide_response(reference)
    assert np.allclose(np.abs(g), 1.0, atol=1e-12)

    lam_g = reference.physics.guided_wavelength_m
    for offset, expected in [(0.0, 1.0 + 0j), (lam_g, 1.0 + 0j), (lam_g / 2.0, -1.0 + 0j)]:
        wg = scen.WaveguideConfig(
            y_m=0.0, z_m=5.0, span_m=100.0, feed_x_m=0.0,
            pa_x_m=(offset,) if offset > 0 else (0.0,), min_spacing_m=1e-6,
        )
        s = scen.Scenario(
            physics=reference.physics, waveguide=wg, station_m=reference.station_m,
            nodes=reference.nodes, flight_speed_mps=reference.flight_speed_mps,
            delivery_speed_tps=reference.delivery_speed_tps,
            slot_seconds=reference.slot_seconds, rng_seed=reference.rng_seed,
        )
        got = prop.waveguide_response(s)[0]
        assert got == pytest.approx(expected, abs=1e-9)


def test_single_activation_ratio():
    beta = prop.radiation_ratios([0, 0, 1, 0], 0.5)
    assert beta.tolist() == [0.0, 0.0, 0.5, 0.0]


def test_two_activation_ratios_feed_order():
    beta = prop.radiation_ratios([1, 0, 1], 0.5)
    assert beta[0] == pytest.approx(0.5)
    assert beta[2] == pytest.approx(0.4330127018922193, rel=1e-12)
    assert beta[1] == 0.0


def test_zero_activation_zero_ratios():
    beta = prop.radiation_ratios([0] * 5, 0.3)
    assert np.all(beta == 0.0)


def test_ratio_power_conservation_exhaustive():
    # closed form sum(beta^2) = 1 - (1 - delta^2)^K_a over every bitmap, K = 10,
    # all 2^10 bitmaps fed at once as one stack
    delta = 0.3
    k = 10
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    beta = prop.radiation_ratios(bits, delta)
    expected = 1.0 - (1.0 - delta * delta) ** bits.sum(axis=1)
    assert np.max(np.abs(np.sum(beta * beta, axis=1) - expected)) < 1e-12


def test_effective_gain_zero_activation(reference):
    pr = act.ActivationProblem.from_scenario(reference, (50.0, 10.0, 10.0))
    assert pr.gain(np.zeros(10, dtype=int)) == 0.0


def test_effective_gain_single_antenna_phase_free(reference):
    h = prop.channel(reference, (50.0, 10.0, 10.0))
    pr = act.ActivationProblem.from_scenario(reference, (50.0, 10.0, 10.0))
    a = np.zeros(10, dtype=int)
    a[4] = 1
    assert pr.gain(a) == pytest.approx((0.3 * abs(h[4])) ** 2, rel=1e-12)


def test_destructive_pair_below_single():
    # construct two couplers whose total phase offset is half a wavelength
    base = scen.generate_scenario(7, 1)
    lam_g = base.physics.guided_wavelength_m
    # place couplers so the guided paths differ by half a guided wavelength and
    # the free-space distances are equal: antisymmetric geometry around the UAV
    x1, x2 = 40.0, 40.0 + lam_g / 2.0
    wg = scen.WaveguideConfig(
        y_m=0.0, z_m=5.0, span_m=100.0, feed_x_m=0.0, pa_x_m=(x1, x2), min_spacing_m=1e-9
    )
    s = scen.Scenario(
        physics=base.physics, waveguide=wg, station_m=base.station_m, nodes=base.nodes,
        flight_speed_mps=base.flight_speed_mps, delivery_speed_tps=base.delivery_speed_tps,
        slot_seconds=base.slot_seconds, rng_seed=base.rng_seed,
    )
    mid = ((x1 + x2) / 2.0, 30.0, 5.0)  # equidistant: free-space phases equal
    pr = act.ActivationProblem.from_scenario(s, mid)
    assert pr.gain(np.array([1, 1])) < pr.gain(np.array([1, 0]))


def test_effective_gain_global_phase_invariance(reference):
    pr = act.ActivationProblem.from_scenario(reference, (23.0, 41.0, 6.0))
    a = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 0])
    base = pr.gain(a)
    for phase in (0.3, 1.7, -2.2):
        rotated = act.ActivationProblem(
            channel=pr.channel * np.exp(1j * phase), response=pr.response,
            delta=pr.delta, rho=pr.rho,
        )
        assert rotated.gain(a) == pytest.approx(base, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    word=st.integers(min_value=1, max_value=1023),
    x=st.floats(min_value=0.0, max_value=100.0),
    y=st.floats(min_value=0.5, max_value=100.0),
    z=st.floats(min_value=2.5, max_value=7.5),
)
def test_gain_respects_triangle_inequality(word, x, y, z):
    s = scen.generate_scenario(11, 3)
    bits = np.array([(word >> i) & 1 for i in range(10)], dtype=int)
    pr = act.ActivationProblem.from_scenario(s, (x, y, z))
    beta = prop.radiation_ratios(bits, 0.3)
    bound = float(np.sum(beta * np.abs(pr.channel))) ** 2
    assert pr.gain(bits) <= bound * (1.0 + 1e-9) + 1e-30


def test_single_antenna_gain_monotone_in_distance(reference):
    a = np.zeros(10, dtype=int)
    a[4] = 1
    gains = [
        act.ActivationProblem.from_scenario(reference, (45.0, y, 5.0)).gain(a)
        for y in (5.0, 10.0, 20.0, 40.0, 80.0)
    ]
    assert all(a_ > b_ for a_, b_ in zip(gains, gains[1:]))
