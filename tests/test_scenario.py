import json
import math

import pytest

from pass_uav import scenario as scen


def test_generated_instance_matches_reference_setup():
    s = scen.generate_scenario(7, 10)
    assert s.node_count == 10
    assert all(0.0 <= n.position_m[0] <= 100.0 for n in s.nodes)
    assert all(0.0 <= n.position_m[1] <= 100.0 for n in s.nodes)
    assert all(2.5 <= n.position_m[2] <= 7.5 for n in s.nodes)
    assert all(n.task_count in {1, 2, 3, 4, 5} for n in s.nodes)
    assert s.station_m == (0.0, 0.0, 0.0)
    assert s.waveguide.pa_count == 10
    assert s.waveguide.span_m == 100.0
    assert s.waveguide.feed_x_m == 0.0
    gaps = [b - a for a, b in zip(s.waveguide.pa_x_m, s.waveguide.pa_x_m[1:])]
    assert all(abs(g - 10.0) < 1e-12 for g in gaps)


def test_same_seed_gives_byte_identical_json():
    a = scen.scenario_to_json(scen.generate_scenario(7, 10))
    b = scen.scenario_to_json(scen.generate_scenario(7, 10))
    assert a == b


def test_different_seeds_differ():
    a = scen.generate_scenario(7, 10)
    b = scen.generate_scenario(8, 10)
    assert a.nodes != b.nodes


def test_roundtrip_identity(tmp_path):
    s = scen.generate_scenario(3, 5)
    path = tmp_path / "scenario.json"
    scen.save_scenario(s, path)
    assert scen.load_scenario(path) == s


def test_physics_derived_fields():
    p = scen.PhysicsConfig()
    assert p.wavelength_m == pytest.approx(299792458.0 / p.carrier_frequency_hz, rel=1e-9)
    assert p.guided_wavelength_m == pytest.approx(p.wavelength_m / 1.4, rel=1e-12)
    assert p.noise_power_w == pytest.approx(1e-12, rel=1e-12)


def test_nonincreasing_pa_positions_rejected():
    with pytest.raises(scen.ScenarioError, match="strictly increasing"):
        scen.WaveguideConfig(
            y_m=0.0, z_m=5.0, span_m=100.0, feed_x_m=0.0,
            pa_x_m=(10.0, 10.0), min_spacing_m=10.0,
        )


def test_missing_task_count_names_field(tmp_path):
    s = scen.generate_scenario(1, 2)
    data = scen.scenario_to_dict(s)
    del data["nodes"][1]["task_count"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    with pytest.raises(scen.ScenarioError, match="task_count"):
        scen.load_scenario(path)


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n}")
    with pytest.raises(scen.ScenarioError, match="line"):
        scen.load_scenario(path)


def test_spacing_guard():
    with pytest.raises(scen.ScenarioError, match="min_spacing_m"):
        scen.WaveguideConfig(
            y_m=0.0, z_m=5.0, span_m=100.0, feed_x_m=0.0,
            pa_x_m=(10.0, 12.0), min_spacing_m=10.0,
        )


def test_radiation_constant_bounds():
    with pytest.raises(scen.ScenarioError):
        scen.PhysicsConfig(radiation_constant=1.0)
    with pytest.raises(scen.ScenarioError):
        scen.PhysicsConfig(radiation_constant=0.0)


@pytest.mark.parametrize("seed", range(0, 1000, 37))
def test_generated_scenarios_satisfy_invariants(seed):
    # spot checks across the seed space; the full 1000-seed run lives in the
    # acceptance-style property below
    s = scen.generate_scenario(seed, 4)
    assert sorted(s.waveguide.pa_x_m) == list(s.waveguide.pa_x_m)


def test_thousand_seeds_all_valid():
    for seed in range(1000):
        s = scen.generate_scenario(seed, 3)
        assert s.node_count == 3
        assert all(n.task_count >= 1 for n in s.nodes)
        assert all(math.isfinite(v) for n in s.nodes for v in n.position_m)


def test_coupler_count_has_a_ceiling():
    assert scen.generate_scenario(1, 1, pa_count=scen.MAX_PA_COUNT).waveguide.pa_count == 1024
    with pytest.raises(scen.ScenarioError, match="pa_count must be at most 1024, got 1025"):
        scen.generate_scenario(1, 1, pa_count=scen.MAX_PA_COUNT + 1)


def test_dbm_conversion_roundtrip():
    for dbm in (-90.0, -85.5, -120.0, 0.0):
        assert scen.watts_to_dbm(scen.dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-9)


@pytest.mark.parametrize(
    "fields",
    [
        {"rate_threshold_bps_hz": 1e-16},  # 2^R - 1 rounds to zero
        # a subnormal power floor, whose reciprocal overflows
        {"rate_threshold_bps_hz": 1e-10, "noise_power_dbm": -3000.0},
    ],
)
def test_vanishing_power_floor_rejected(fields):
    with pytest.raises(scen.ScenarioError, match="rate_threshold_bps_hz"):
        scen.PhysicsConfig(**fields)


def test_small_but_usable_link_budget_scales_accepted():
    assert scen.PhysicsConfig(rate_threshold_bps_hz=1e-15).rate_threshold_bps_hz == 1e-15
    assert math.isfinite(scen.PhysicsConfig(carrier_frequency_hz=1e-140).wavelength_m ** 2)


# Every constructor field of the three file sections, with the kind of value
# the file must hold there.
_FILE_FIELDS = [
    ("physics", "carrier_frequency_hz", "a number"),
    ("physics", "noise_power_dbm", "a number"),
    ("physics", "refraction_index", "a number"),
    ("physics", "rate_threshold_bps_hz", "a number"),
    ("physics", "radiation_constant", "a number"),
    ("waveguide", "y_m", "a number"),
    ("waveguide", "z_m", "a number"),
    ("waveguide", "span_m", "a number"),
    ("waveguide", "feed_x_m", "a number"),
    ("waveguide", "pa_x_m", "a list of numbers"),
    ("waveguide", "min_spacing_m", "a number"),
    ("nodes[1]", "position_m", "a list of numbers"),
    ("nodes[1]", "task_count", "an integer"),
]


def _section(data, where):
    return data["nodes"][1] if where == "nodes[1]" else data[where]


@pytest.mark.parametrize("where, key, kind", _FILE_FIELDS)
def test_each_file_field_is_named_when_missing_or_mistyped(where, key, kind):
    data = scen.scenario_to_dict(scen.generate_scenario(3, 3))
    del _section(data, where)[key]
    with pytest.raises(scen.ScenarioError) as missing:
        scen.scenario_from_dict(data)
    assert str(missing.value) == f"scenario file is missing field '{key}' in {where}"
    _section(data, where)[key] = "x"
    with pytest.raises(scen.ScenarioError) as mistyped:
        scen.scenario_from_dict(data)
    assert str(mistyped.value) == f"field '{key}' in {where} must be {kind}"
