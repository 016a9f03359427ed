import argparse
import contextlib
import copy
import hashlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pass_uav import cli, harness, link_budget as lb
from pass_uav import route_planner as rp
from pass_uav import scenario as scen

FAST = ["--population", "40", "--generations", "10", "--hao-iterations", "2"]


def test_plan_writes_tour_and_trace(tmp_path, capsys):
    outdir = tmp_path / "plan"
    rc = cli.main(
        ["plan", "--seed", "3", "--nodes", "5", "--out", str(outdir), *FAST]
    )
    assert rc == 0
    tour = json.loads((outdir / "tour.json").read_text())
    assert sorted(tour["order"]) == list(range(5))
    assert (outdir / "hao_trace.csv").read_text().startswith("iteration,best_distance_m")
    assert "total distance" in capsys.readouterr().out


def test_activate_reports_bitmap(capsys):
    rc = cli.main(
        ["activate", "--seed", "3", "--nodes", "2", "--position", "45,5,5",
         "--activator", "bnb"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "activation:" in out
    assert "required power" in out
    assert "dBm" in out


def test_activate_mimo(capsys):
    rc = cli.main(
        ["activate", "--seed", "3", "--nodes", "2", "--position", "45,5,5",
         "--activator", "mimo"]
    )
    assert rc == 0
    assert "mimo" in capsys.readouterr().out


def test_activate_mimo_at_a_coupler_prints_the_array_power(capsys):
    # the array has no coupler, so a UAV on one is an ordinary array position
    s = scen.generate_scenario(1, 10)
    coupler = s.waveguide.pa_positions()[0]
    rc = cli.main(["activate", "--seed", "1", "--position", ",".join(map(repr, coupler.tolist())),
                   "--activator", "mimo"])
    assert rc == cli.EXIT_OK
    power = harness.mimo_required_power(s, harness.MimoConfig(), coupler)
    assert f"required power: {power:.6e} W" in capsys.readouterr().out


@pytest.mark.parametrize("activator", harness.ACTIVATORS)
def test_activate_prints_the_answer_simulate_costs(tmp_path, capsys, activator):
    argv = ["--seed", "3", "--nodes", "3"]
    rc = cli.main(["simulate", *argv, "--strategy", f"nearest_neighbor:{activator}",
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    report = json.loads((tmp_path / "energy.json").read_text())[0]
    modes = [line.split(",")[1] for line in (tmp_path / "slots.csv").read_text().splitlines()[1:]]
    flying, hovering = modes.index(lb.FLYING) + 1, modes.index(lb.HOVERING)
    capsys.readouterr()
    for slot in (0, flying, hovering, len(modes) - 1):
        rc = cli.main(["activate", *argv, "--slot", str(slot), "--planner", "nearest_neighbor",
                       "--activator", activator])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert f"({modes[slot]})" in out
        assert f"required power: {report['per_slot_power_w'][slot]:.6e} W" in out
        if activator != "mimo":
            bits = "".join(map(str, report["per_slot_activation"][slot]))
            assert f"activation: {bits}\n" in out


@pytest.mark.parametrize("activator", ["islr", "mimo"])
def test_activate_plans_with_the_planner_flags(tmp_path, capsys, activator):
    # on this scenario the flags plan a longer tour than the default GaConfig does
    argv = ["--seed", "3", "--nodes", "8", "--population", "40", "--generations", "10"]
    rc = cli.main(["simulate", *argv, "--strategy", f"hao:{activator}", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    report = json.loads((tmp_path / "energy.json").read_text())[0]
    slots = (tmp_path / "slots.csv").read_text().splitlines()[1:]
    capsys.readouterr()
    for slot in (1, len(slots) // 2, len(slots) - 2):
        rc = cli.main(["activate", *argv, "--slot", str(slot), "--planner", "hao",
                       "--activator", activator])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        x, y, z = (float(v) for v in slots[slot].split(",")[2:5])
        assert f"at ({x:.3f}, {y:.3f}, {z:.3f})" in out
        assert f"required power: {report['per_slot_power_w'][slot]:.6e} W" in out


def test_activate_by_slot_index(capsys):
    rc = cli.main(
        ["activate", "--seed", "3", "--nodes", "2", "--slot", "0",
         "--activator", "full"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "slot 0" in out
    assert "activation: 1111111111" in out


def test_activate_requires_exactly_one_location():
    rc = cli.main(["activate", "--seed", "3", "--nodes", "2", "--activator", "bnb"])
    assert rc == cli.EXIT_CONFIG
    rc = cli.main(
        ["activate", "--seed", "3", "--nodes", "2", "--position", "1,1,5",
         "--slot", "0"]
    )
    assert rc == cli.EXIT_CONFIG


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("activator", harness.ACTIVATORS)
@pytest.mark.parametrize("position", ["nan,0,0", "0,inf,5", "0,0,-inf", "1e400,0,0", "1.01e150,0,5"])
def test_activate_position_out_of_range_is_a_configuration_error(capsys, position, activator):
    rc = cli.main(
        ["activate", "--seed", "3", "--nodes", "2", f"--position={position}",
         "--activator", activator]
    )
    assert rc == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("invalid configuration: --position coordinates must be finite "
                   "and within ±1e+150 m\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("activator", harness.ACTIVATORS)
def test_activate_position_at_the_bound_runs(capsys, activator):
    bound = scen.MAX_COORDINATE_M
    rc = cli.main(
        ["activate", "--seed", "3", "--nodes", "2", f"--position={-bound},0,5",
         "--activator", activator]
    )
    assert rc == cli.EXIT_OK
    assert "required power" in capsys.readouterr().out


def test_simulate_outputs(tmp_path):
    outdir = tmp_path / "sim"
    rc = cli.main(
        ["simulate", "--seed", "3", "--nodes", "3", "--strategy",
         "nearest_neighbor:islr", "--out", str(outdir), *FAST]
    )
    assert rc == 0
    for name in ("tour.json", "slots.csv", "energy.csv", "energy.json", "trace_distance.csv"):
        assert (outdir / name).exists(), name


def test_simulate_deterministic_bytes(tmp_path):
    args = ["simulate", "--seed", "5", "--nodes", "3", "--strategy",
            "nearest_neighbor:islr", *FAST]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main([*args, "--out", str(a)]) == 0
    assert cli.main([*args, "--out", str(b)]) == 0
    for name in ("tour.json", "slots.csv", "energy.csv", "trace_distance.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_benchmark_writes_sweep(tmp_path):
    outdir = tmp_path / "bench"
    rc = cli.main(
        ["benchmark", "--variable", "rate_threshold", "--values", "4,5",
         "--strategies", "nearest_neighbor:full", "--seeds", "1-2",
         "--nodes", "2", "--out", str(outdir)]
    )
    assert rc == 0
    text = (outdir / "sweep_rate_threshold.csv").read_text()
    assert text.startswith("value,strategy,mean_energy_j,seed_count,failure_count")
    assert len(text.splitlines()) == 3


def test_benchmark_sweep_matches_the_golden_digest(tmp_path):
    outdir = tmp_path / "bench"
    rc = cli.main(
        ["benchmark", "--variable", "pa_count", "--values", "4,8",
         "--strategies", "nearest_neighbor:bnb,held_karp:islr,nearest_neighbor:mimo",
         "--seeds", "1-2", "--nodes", "5", "--out", str(outdir)]
    )
    assert rc == 0
    data = (outdir / "sweep_pa_count.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "5eccd6b2d840955aa3c866bb09d13eba3b56c560862d26d569cbc58d66dfb396"
    )


def test_one_strategy_sweep_sums_its_seeds_in_order(tmp_path):
    """With one strategy and eight or more seeds, a pairwise sum (np.nansum)
    rounds the 3.0 row's mean differently from adding the seeds in order."""
    outdir = tmp_path / "bench"
    rc = cli.main(["benchmark", "--strategies", "nearest_neighbor:full", "--seeds", "1-12",
                   "--nodes", "2", "--out", str(outdir)])
    assert rc == 0
    data = (outdir / "sweep_rate_threshold.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "b202d4e2af78ae180e6338b5980efda629c807af316246d1447903dc6930c63b"
    )


def test_benchmark_variables_and_value_types_come_from_the_harness(tmp_path, capsys):
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    variable = subparsers.choices["benchmark"]._option_string_actions["--variable"]
    assert variable.choices == list(harness.SWEEP_VARIABLES)
    outdir = tmp_path / "bench"
    common = ["--strategies", "nearest_neighbor:full", "--seeds", "1", "--nodes", "2"]
    assert cli.main(["benchmark", "--values", "3", *common, "--out", str(outdir)]) == 0
    assert (outdir / "sweep_rate_threshold.csv").read_text().splitlines()[1].startswith("3.0,")
    rc = cli.main(["benchmark", "--variable", "pa_count", "--values", "4.5", *common,
                   "--out", str(outdir)])
    assert rc == cli.EXIT_CONFIG
    assert "'4.5'" in capsys.readouterr().err
    assert not (outdir / "sweep_pa_count.csv").exists()


_SWEEP = ["--values", "5", "--strategies", "nearest_neighbor:full", "--seeds", "1"]


@pytest.mark.parametrize("argv, named", [
    pytest.param(["simulate", "--scenario", "{missing}"], "{missing}", id="scenario-missing"),
    pytest.param(["simulate", "--scenario", "{dir}"], "{dir}", id="scenario-is-a-directory"),
    *(pytest.param([command, *extra, "--out", "{file}"], "--out directory {file}",
                   id=f"{command}-out-is-a-file")
      for command, extra in (("plan", FAST), ("simulate", FAST), ("benchmark", _SWEEP))),
])
def test_bad_paths_are_configuration_errors(tmp_path, capsys, argv, named):
    paths = {"missing": tmp_path / "no" / "such.json", "dir": tmp_path, "file": tmp_path / "taken"}
    paths["file"].write_text("not a directory\n")
    rc = cli.main([arg.format(**paths) for arg in argv] + ["--nodes", "2"])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert named.format(**paths) in err
    assert "Traceback" not in err
    assert paths["file"].read_text() == "not a directory\n"


def test_plan_takes_no_islr_kprime(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["plan", "--islr-kprime", "3", "--out", str(tmp_path / "plan")])
    assert exc.value.code == cli.EXIT_CONFIG
    parser = cli.build_parser()
    for command in ("simulate", "activate"):
        assert parser.parse_args([command, "--islr-kprime", "3"]).islr_kprime == 3


@pytest.mark.parametrize("values, strategies", [
    ("5,5", "held_karp:full"),
    ("5", "held_karp:full,held_karp:full"),
])
def test_benchmark_counts_a_repeated_row_once(tmp_path, values, strategies):
    """Held-Karp refuses 17 nodes, so each row has 0 seeds and 2 failures."""
    outdir = tmp_path / "bench"
    rc = cli.main(["benchmark", "--values", values, "--strategies", strategies,
                   "--seeds", "1-2", "--nodes", "17", "--out", str(outdir)])
    assert rc == 0
    rows = (outdir / "sweep_rate_threshold.csv").read_text().splitlines()[1:]
    assert rows == ["5.0,held_karp:full,nan,0,2"] * 2


@pytest.mark.parametrize("flags, cause", [
    (["--strategies", "hao:bogus,nearest_neighbor:full", "--seeds", "1"], "unknown activator 'bogus'"),
    (["--strategies", "nearest_neighbor:full", "--seeds", "5-3"], "seeds must be nonempty"),
    (["--strategies", ",", "--seeds", "1"], "strategies must be nonempty"),
    (["--strategies", "nearest_neighbor:full", "--seeds=-1"], "--seeds must be a range"),
    (["--strategies", "nearest_neighbor:full", "--seeds=2,-1"], "not '2,-1'"),
    (["--strategies", "nearest_neighbor:full", "--seeds", "1-x"], "not '1-x'"),
])
def test_benchmark_configuration_errors_exit_2_without_csv(tmp_path, capsys, flags, cause):
    outdir = tmp_path / "bench"
    rc = cli.main(["benchmark", "--values", "5", "--nodes", "3", *flags, "--out", str(outdir)])
    assert rc == cli.EXIT_CONFIG
    assert cause in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("command", [["plan"], ["simulate"], ["activate", "--slot", "0"]])
def test_negative_seed_exits_2_naming_the_seed(tmp_path, capsys, command):
    rc = cli.main([*command, "--seed", "-5", "--nodes", "2", *FAST[:4],
                   *([] if command[0] == "activate" else ["--out", str(tmp_path / "x")])])
    assert rc == cli.EXIT_CONFIG
    assert "seed must be a non-negative integer, got -5" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_readme_cli_flags_exist():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {opt for p in subparsers.choices.values() for opt in p._option_string_actions}
    assert flags and flags <= accepted, sorted(flags - accepted)


# The config field behind each planner flag.
_PLANNER_FLAG_FIELDS = {
    "--population": (rp.GaConfig, "population_size"),
    "--generations": (rp.GaConfig, "generations"),
    "--ps": (rp.GaConfig, "selection_prob"),
    "--pc": (rp.GaConfig, "crossover_prob"),
    "--pm": (rp.GaConfig, "mutation_prob"),
    "--pg": (rp.GaConfig, "greedy_seed_fraction"),
    "--hao-iterations": (rp.HaoConfig, "max_iterations"),
    "--subpath": (rp.HaoConfig, "subpath_length"),
}


def test_readme_planner_defaults_match_the_parser_and_configs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = dict(re.findall(r"`(--[a-z-]+)`\s+(?:[A-Za-z-]+\s+)*\(([0-9.]+)", section))
    assert documented.keys() == _PLANNER_FLAG_FIELDS.keys()
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("plan", "simulate"):
        actions = subparsers.choices[command]._option_string_actions
        for flag, (config, name) in _PLANNER_FLAG_FIELDS.items():
            default = getattr(config(), name)
            assert actions[flag].default == default == float(documented[flag]), (command, flag)


def test_invalid_config_exit_code():
    rc = cli.main(
        ["activate", "--seed", "3", "--nodes", "2", "--position", "45,5",
         "--activator", "bnb"]
    )
    assert rc == cli.EXIT_CONFIG


def test_bad_delta_exit_code():
    rc = cli.main(
        ["activate", "--seed", "3", "--nodes", "2", "--position", "45,5,5",
         "--delta", "1.5"]
    )
    assert rc == cli.EXIT_CONFIG


def test_scenario_file_roundtrip(tmp_path):
    s = scen.generate_scenario(11, 3)
    path = tmp_path / "scenario.json"
    scen.save_scenario(s, path)
    rc = cli.main(
        ["activate", "--scenario", str(path), "--position", "45,5,5",
         "--activator", "full"]
    )
    assert rc == 0


@pytest.mark.parametrize("flag, value", [
    ("--pa-count", "16"), ("--rth", "4"), ("--delta", "0.5"), ("--tau", "0.5"),
])
@pytest.mark.parametrize("command, extra", [
    ("plan", FAST), ("activate", ["--position", "45,5,5", "--activator", "full"]),
    ("simulate", FAST),
])
def test_generator_flags_with_a_scenario_file_are_configuration_errors(
        tmp_path, capsys, command, extra, flag, value):
    path = tmp_path / "scenario.json"
    scen.save_scenario(scen.generate_scenario(11, 3), path)
    outdir = tmp_path / "out"
    out = [] if command == "activate" else ["--out", str(outdir)]
    rc = cli.main([command, "--scenario", str(path), *extra, flag, value, *out])
    assert rc == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == ("invalid configuration: "
                            "--pa-count/--rth/--delta/--tau apply to generated scenarios only\n")
    assert captured.out == ""
    assert not outdir.exists()


def test_generated_scenarios_take_the_pa_count_flag_or_ten(capsys):
    for flags, couplers in (([], 10), (["--pa-count", "16"], 16)):
        rc = cli.main(["activate", "--seed", "3", "--nodes", "2", "--position", "45,5,5",
                       "--activator", "full", *flags])
        assert rc == 0
        assert f"activation: {'1' * couplers}\n" in capsys.readouterr().out


@pytest.mark.parametrize("command, extra, work", [
    ("plan", FAST, "plan_tour"), ("simulate", FAST, "run_dlo"), ("benchmark", _SWEEP, "sweep"),
])
def test_an_out_file_fails_before_any_work(tmp_path, capsys, monkeypatch, command, extra, work):
    monkeypatch.setattr(harness, work, lambda *a, **k: pytest.fail(f"{work} ran"))
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    rc = cli.main([command, *extra, "--nodes", "2", "--out", str(taken)])
    assert rc == cli.EXIT_CONFIG
    assert f"--out directory {taken}" in capsys.readouterr().err
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("command, extra, work", [
    ("plan", FAST, "plan_tour"), ("simulate", FAST, "run_dlo"), ("benchmark", _SWEEP, "sweep"),
])
def test_an_out_below_a_file_fails_before_any_work(tmp_path, capsys, monkeypatch, command, extra, work):
    for name in ("plan_tour", "run_dlo", "sweep"):
        monkeypatch.setattr(harness, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / "sub" / "deeper"
    rc = cli.main([command, *extra, "--nodes", "2", "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert f"--out directory {out}: Not a directory" in capsys.readouterr().err
    assert taken.read_text() == "not a directory\n"
    assert sorted(tmp_path.iterdir()) == [taken]


@pytest.mark.parametrize("argv, cause", [
    pytest.param(["simulate", "--strategy", "hao:islr", "--islr-kprime", "0"],
                 "--islr-kprime must lie in [1, 10]", id="simulate-zero"),
    pytest.param(["simulate", "--strategy", "hao:islr", "--islr-kprime", "11"],
                 "--islr-kprime must lie in [1, 10]", id="simulate-above-K"),
    pytest.param(["simulate", "--strategy", "hao:islr", "--pa-count", "4", "--islr-kprime", "5"],
                 "--islr-kprime must lie in [1, 4]", id="simulate-above-pa-count"),
    pytest.param(["simulate", "--strategy", "hao:bnb", "--islr-kprime", "0"],
                 "islr activator only, not bnb", id="simulate-bnb"),
    pytest.param(["simulate", "--strategy", "hao:full", "--islr-kprime", "3"],
                 "islr activator only, not full", id="simulate-full"),
    pytest.param(["activate", "--slot", "5", "--activator", "islr", "--islr-kprime", "11"],
                 "--islr-kprime must lie in [1, 10]", id="activate-above-K"),
    pytest.param(["activate", "--slot", "5", "--activator", "bnb", "--islr-kprime", "3"],
                 "islr activator only, not bnb", id="activate-bnb"),
])
def test_a_bad_islr_kprime_fails_before_any_planning(tmp_path, capsys, monkeypatch, argv, cause):
    monkeypatch.setattr(harness, "plan_tour", lambda *a, **k: pytest.fail("plan_tour ran"))
    out = ["--out", str(tmp_path / "sim")] if argv[0] == "simulate" else []
    rc = cli.main([*argv, "--seed", "1", *out])
    assert rc == cli.EXIT_CONFIG
    assert cause in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["simulate", "--strategy", "hao:exhaustive"], id="simulate"),
    pytest.param(["activate", "--slot", "3", "--planner", "hao", "--activator", "exhaustive"],
                 id="activate-slot"),
    pytest.param(["activate", "--position", "30,40,5", "--activator", "exhaustive"],
                 id="activate-position"),
])
def test_exhaustive_past_its_coupler_cap_fails_before_any_planning(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(harness, "plan_tour", lambda *a, **k: pytest.fail("plan_tour ran"))
    out = ["--out", str(tmp_path / "sim")] if argv[0] == "simulate" else []
    rc = cli.main([*argv, "--seed", "1", "--pa-count", "21", *out])
    assert rc == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid configuration: exhaustive search is guarded to K <= 20, got 21\n"
    assert not (tmp_path / "sim").exists()


def test_islr_kprime_at_the_coupler_count_runs(capsys):
    rc = cli.main(["activate", "--seed", "1", "--pa-count", "4", "--position", "45,5,5",
                   "--activator", "islr", "--islr-kprime", "4"])
    assert rc == cli.EXIT_OK
    assert "activation:" in capsys.readouterr().out


def _edited_scenario_file(tmp_path, *edits):
    """The seed-3, M=3 scenario with each (path, value) edit made, written as a file."""
    data = scen.scenario_to_dict(scen.generate_scenario(3, 3))
    for path, value in edits:
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps(data))
    return scenario_file


# Each field edit runs under nearest_neighbor:full. The unusable scales run
# under every kind of activator: a rate floor whose power floor
# (2^R - 1) sigma^2 rounds to zero, carriers for which lambda^2 / (16 pi^2)
# is not a finite float, and a noise power too large for a float in watts.
_MALFORMED_FIELDS = [
    ("slot_seconds_inf", ("slot_seconds",), float("inf")),
    ("rate_2000", ("physics", "rate_threshold_bps_hz"), 2000),
    ("rate_nan", ("physics", "rate_threshold_bps_hz"), float("nan")),
    ("speed_nan", ("speeds", "flight_mps"), float("nan")),
    ("nodes_not_list", ("nodes",), 5),
    ("task_count_fraction", ("nodes", 0, "task_count"), 2.7),
    ("feed_at_far_end", ("waveguide", "feed_x_m"), 100.0),
    ("delivery_tps_subnormal", ("speeds", "delivery_tps"), 1e-320),
    ("noise_dbm_400_digits", ("physics", "noise_power_dbm"), 10**400),
    ("slots_over_cap", ("slot_seconds",), 1e-9),
    ("node_beyond_1e150", ("nodes", 0, "position_m", 1), 1.01e150),
    ("station_beyond_1e150", ("station", 0), -1.01e150),
    ("waveguide_beyond_1e150", ("waveguide", "y_m"), 1.01e150),
    ("guided_phase_overflow", ("physics", "refraction_index"), 1e308),
]
_UNUSABLE_SCALES = [
    ("rate_1e-17", ("physics", "rate_threshold_bps_hz"), 1e-17),
    ("carrier_1e-150", ("physics", "carrier_frequency_hz"), 1e-150),
    ("carrier_1e-301", ("physics", "carrier_frequency_hz"), 1e-301),
    ("noise_dbm_5000", ("physics", "noise_power_dbm"), 5000.0),
]


@pytest.mark.parametrize(
    "path, value, activator",
    [pytest.param(path, value, "full", id=name) for name, path, value in _MALFORMED_FIELDS]
    + [
        pytest.param(path, value, activator, id=f"{name}_{activator}")
        for name, path, value in _UNUSABLE_SCALES
        for activator in ("full", "bnb", "mimo")
    ],
)
def test_malformed_scenario_file_exit_code(tmp_path, capsys, path, value, activator):
    scenario_file = _edited_scenario_file(tmp_path, (path, value))
    rc = cli.main(
        ["simulate", "--scenario", str(scenario_file), "--strategy",
         f"nearest_neighbor:{activator}", "--out", str(tmp_path / "sim")]
    )
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "invalid configuration" in err
    assert "Traceback" not in err
    if path[0] == "physics":  # rejected by name, not by a failure further on
        assert path[-1] in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "path, activator",
    [
        (("waveguide", "y_m"), "full"),
        (("waveguide", "y_m"), "bnb"),
        (("waveguide", "y_m"), "mimo"),
        # these two exit through the slot cap before any activator runs
        (("nodes", 0, "position_m", 1), "full"),
        (("station", 2), "full"),
    ],
)
def test_coordinates_at_the_bound_run_without_float_warnings(tmp_path, path, activator):
    # the largest accepted magnitude keeps every squared distance finite
    scenario_file = _edited_scenario_file(tmp_path, (path, -scen.MAX_COORDINATE_M))
    rc = cli.main(
        ["simulate", "--scenario", str(scenario_file), "--strategy",
         f"nearest_neighbor:{activator}", "--out", str(tmp_path / "sim")]
    )
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "frequency_hz, code",
    # a waveguide 1e150 m out allows carriers up to about 3e165 Hz
    [(1e160, cli.EXIT_INFEASIBLE), (1e170, cli.EXIT_CONFIG)],
)
def test_channel_phase_overflow_is_a_configuration_error(tmp_path, frequency_hz, code):
    scenario_file = _edited_scenario_file(
        tmp_path,
        (("waveguide", "y_m"), scen.MAX_COORDINATE_M),
        (("physics", "carrier_frequency_hz"), frequency_hz),
    )
    rc = cli.main(
        ["simulate", "--scenario", str(scenario_file), "--strategy", "nearest_neighbor:full",
         "--out", str(tmp_path / "sim")]
    )
    assert rc == code


@pytest.mark.parametrize(
    "strategy, message",
    [
        ("nearest_neighbor:full", "more transmit power than a float holds"),
        ("nearest_neighbor:mimo", "the cycle energy overflows a float"),
    ],
)
def test_power_overflow_is_not_reported_as_zero_gain(tmp_path, capsys, strategy, message):
    data = scen.scenario_to_dict(scen.generate_scenario(3, 3))
    data["physics"]["noise_power_dbm"] = 3000.0
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps(data))
    rc = cli.main(
        ["simulate", "--scenario", str(scenario_file), "--strategy", strategy,
         "--out", str(tmp_path / "sim")]
    )
    assert rc == cli.EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert message in err
    assert "zero gain" not in err


def test_a_mimo_slot_whose_power_overflows_is_named(tmp_path, capsys):
    # at 3050 dBm every slot's array power overflows; at 3000 dBm only the sum does
    data = scen.scenario_to_dict(scen.generate_scenario(3, 3))
    data["physics"]["noise_power_dbm"] = 3050.0
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps(data))
    rc = cli.main(["simulate", "--scenario", str(scenario_file), "--strategy",
                   "nearest_neighbor:mimo", "--out", str(tmp_path / "sim")])
    assert rc == cli.EXIT_INFEASIBLE
    assert "slot 0 needs more transmit power than a float holds" in capsys.readouterr().err


def test_infeasible_slot_exit_code(monkeypatch, tmp_path):
    def boom(*args, **kwargs):
        raise lb.InfeasibleSlotError("synthetic")

    monkeypatch.setattr("pass_uav.harness.run_dlo", boom)
    rc = cli.main(
        ["simulate", "--seed", "3", "--nodes", "2", "--out", str(tmp_path / "x"), *FAST]
    )
    assert rc == cli.EXIT_INFEASIBLE


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


# Values a hand-edited or generated scenario file might hold in any field.
_ODD_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-200.0, max_value=200.0),
    st.integers(min_value=-(10**30), max_value=10**400),
    st.sampled_from([0, 1, True, None, "1", [], {}, [1.0, 2.0, 3.0], [0.0] * 4]),
)


def _leaves(tree, path=()):
    """Paths to every value in a scenario dict, containers included."""
    yield path
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, child in items:
        yield from _leaves(child, (*path, key))


def _simulate(data, tmp_path, activator="full"):
    """Load ``data`` as the CLI does, then run one nearest_neighbor cycle on it
    under ``activator``; returns the exit code and stderr."""
    try:
        scen.scenario_from_dict(data)
    except scen.ScenarioError:
        pass
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps(data))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(
            ["simulate", "--scenario", str(scenario_file), "--strategy",
             f"nearest_neighbor:{activator}", "--out", str(tmp_path / "sim")]
        )
    return rc, err.getvalue()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    data=st.data(),
    m=st.integers(min_value=1, max_value=3),
    k=st.integers(min_value=1, max_value=4),
)
def test_fuzzed_scenario_files_end_in_documented_exit_codes(tmp_path_factory, data, m, k):
    seed = data.draw(st.integers(min_value=0, max_value=99))
    scenario = scen.scenario_to_dict(scen.generate_scenario(seed, m, pa_count=k))
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        path = data.draw(st.sampled_from(list(_leaves(scenario))[1:]))
        parent = scenario
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(data.draw(_ODD_VALUES))
    activator = data.draw(st.sampled_from(("full", "bnb", "mimo")))
    rc, _ = _simulate(scenario, tmp_path_factory.mktemp("fuzz"), activator)
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_INFEASIBLE)


def test_subpath_past_the_window_cap_exits_before_planning(tmp_path, capsys, monkeypatch):
    # a 30-node window's DP would ask for about 290 GB; it must never start
    def never(*args, **kwargs):
        raise AssertionError("planning started")

    monkeypatch.setattr(rp, "ga_explore", never)
    monkeypatch.setattr(rp, "_dp_block", never)
    out = tmp_path / "out"
    rc = cli.main(["plan", "--nodes", "30", "--subpath", "31", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_CONFIG
    assert f"30 nodes inside a DP window, more than the {rp.HELD_KARP_MAX_NODES}" in err
    assert "Traceback" not in err and not out.exists()


def test_huge_task_count_exits_through_the_slot_cap(tmp_path):
    # the count is printed to 6 digits: just past the cap, 2e30 slots, and two
    # hovers of 1.6e308 slots each, whose sum is past the float range
    for counts, shown in (((3, 49_976), "100002"), ((3, 10**30), "2e+30"),
                          ((8 * 10**307, 8 * 10**307), "inf")):
        scenario = scen.scenario_to_dict(scen.generate_scenario(3, 2, pa_count=4))
        for node, count in zip(scenario["nodes"], counts):
            node["task_count"] = count
        rc, err = _simulate(scenario, tmp_path)
        assert rc == cli.EXIT_CONFIG
        assert f"needs {shown} slots, more than the {lb.MAX_SLOTS}" in err
        assert "Traceback" not in err and len(err) < 200


def test_slot_length_near_zero_prints_a_short_slot_count(tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["simulate", "--tau", "1e-300", "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG
    assert f"e+302 slots, more than the {lb.MAX_SLOTS}" in err.getvalue()
    assert len(err.getvalue()) < 200 and not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("planner", ["hao", "ga_only"])
@pytest.mark.parametrize(
    "offset_m, code",
    # on the station; 1e-162 m, where every distance underflows to 0; and
    # 1e-160 m, whose distances (about 9.99994e-161 m) are tiny but positive
    [(0.0, cli.EXIT_CONFIG), (1e-162, cli.EXIT_CONFIG), (1e-160, cli.EXIT_OK)],
)
def test_tours_of_zero_length_are_a_configuration_error(tmp_path, capsys, planner, offset_m, code):
    data = scen.scenario_to_dict(scen.generate_scenario(3, 3))
    assert data["station"] == [0.0, 0.0, 0.0]
    for node in data["nodes"]:
        node["position_m"] = [offset_m, 0.0, 0.0]
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps(data))
    rc = cli.main(
        ["simulate", "--scenario", str(scenario_file), "--strategy", f"{planner}:full",
         "--out", str(tmp_path / "sim")]
    )
    assert rc == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == cli.EXIT_CONFIG:
        assert "every tour has zero length" in err
