import json

import pytest

from pass_uav import cli, link_budget as lb
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


@pytest.mark.parametrize(
    "path, value",
    [
        (("slot_seconds",), float("inf")),
        (("physics", "rate_threshold_bps_hz"), 2000),
        (("physics", "rate_threshold_bps_hz"), float("nan")),
        (("speeds", "flight_mps"), float("nan")),
        (("nodes",), 5),
        (("nodes", 0, "task_count"), 2.7),
    ],
    ids=["slot_seconds_inf", "rate_2000", "rate_nan", "speed_nan", "nodes_not_list",
         "task_count_fraction"],
)
def test_malformed_scenario_file_exit_code(tmp_path, capsys, path, value):
    data = scen.scenario_to_dict(scen.generate_scenario(3, 3))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps(data))
    rc = cli.main(
        ["simulate", "--scenario", str(scenario_file), "--strategy", "nearest_neighbor:full",
         "--out", str(tmp_path / "sim")]
    )
    assert rc == cli.EXIT_CONFIG
    assert "invalid configuration" in capsys.readouterr().err


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
