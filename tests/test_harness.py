import hashlib
import itertools
import json
import math
import re

import numpy as np
import pytest
from oracles import scalar_gain
from scipy.stats import spearmanr
from test_link_budget import _single_node_scenario

from pass_uav import activation as act
from pass_uav import harness
from pass_uav import link_budget as lb
from pass_uav import propagation
from pass_uav import route_planner as rp
from pass_uav import scenario as scen

FAST_GA = rp.GaConfig(population_size=40, generations=12)
FAST_HAO = rp.HaoConfig(max_iterations=2)


def fast_spec(**kw):
    return harness.StrategySpec(ga=FAST_GA, hao=FAST_HAO, **kw)


def test_mimo_colocated_limit():
    # far on the +x axis the 0.1 m aperture is negligible: gain ~ N |h|^2
    s = scen.generate_scenario(7, 1)
    mimo = harness.MimoConfig()
    pos = (5000.0, 0.0, 5.0)
    p = harness.mimo_required_power(s, mimo, pos)
    lam = s.physics.wavelength_m
    eta = lam**2 / (16 * math.pi**2)
    d = 5000.0
    expected = (2**5 - 1) * s.physics.noise_power_w / (10 * eta / d**2)
    assert p == pytest.approx(expected, rel=1e-3)


def test_cycle_powers_equal_the_scalar_gain_path_bit_for_bit():
    # the costing and the array baseline work on slot blocks; every power
    # must still be the one the per-slot path gives, to the last bit. An
    # array np.abs differs from the scalar one in the last bit on a few
    # slots, one of them a full-activation slot at seed 3, K = 3.
    spec = harness.StrategySpec()
    for seed in (1, 2, 3):
        for k in (3, 10, 16):
            s = scen.generate_scenario(seed, 10, pa_count=k)
            phys = s.physics
            plan = lb.discretize(s, rp.nearest_neighbor(s))
            for activator in ("bnb", "islr", "full", "mimo"):
                report = harness.solve_cycle(s, plan, activator, spec)
                for i, slot in enumerate(plan.slots):
                    if activator == "mimo":
                        expected = harness.mimo_required_power(s, spec.mimo, slot.position_m)
                    else:
                        bits = report.per_slot_activation[i]
                        problem = act.ActivationProblem.from_scenario(s, slot.position_m)
                        gain = problem.gain(bits)
                        assert gain == scalar_gain(problem, bits), (seed, k, activator, i)
                        expected = lb.required_power(
                            gain, phys.rate_threshold_bps_hz, phys.noise_power_w
                        )
                    assert report.per_slot_power_w[i] == expected, (seed, k, activator, i)


def test_mimo_element_doubling_halves_power():
    s = scen.generate_scenario(7, 1)
    pos = (5000.0, 0.0, 5.0)
    p10 = harness.mimo_required_power(s, harness.MimoConfig(element_count=10), pos)
    p20 = harness.mimo_required_power(s, harness.MimoConfig(element_count=20), pos)
    assert p10 / p20 == pytest.approx(2.0, rel=1e-3)


def test_pass_beats_mimo_above_distant_coupler():
    s = scen.generate_scenario(7, 10)
    pos = (90.0, 1.0, 6.0)  # just off the coupler at x=85/95, far from the array
    pr = act.ActivationProblem.from_scenario(s, pos)
    bits = act.bnb_optimize(pr)
    p_pass = lb.required_power(
        pr.gain(bits), s.physics.rate_threshold_bps_hz, s.physics.noise_power_w
    )
    p_mimo = harness.mimo_required_power(s, harness.MimoConfig(), pos)
    assert p_pass < p_mimo


def test_run_dlo_dominance_and_shared_plan():
    s = scen.generate_scenario(3, 4)
    out = harness.run_dlo(s, fast_spec(), extra_activators=("islr", "full"))
    bnb_r, islr_r, full_r = out.reports
    assert bnb_r.total_energy_j <= islr_r.total_energy_j <= full_r.total_energy_j
    assert len(bnb_r.per_slot_power_w) == out.slot_plan.total_slots
    pb = np.array(bnb_r.per_slot_power_w)
    pi = np.array(islr_r.per_slot_power_w)
    pf = np.array(full_r.per_slot_power_w)
    assert np.all(pb <= pi) and np.all(pi <= pf)


def test_run_dlo_first_slot_matches_direct_solver():
    s = scen.generate_scenario(3, 3)
    spec = fast_spec(planner="nearest_neighbor")
    out = harness.run_dlo(s, spec)
    first = out.slot_plan.slots[0]
    pr = act.ActivationProblem.from_scenario(s, first.position_m)
    assert np.array_equal(out.reports[0].per_slot_activation[0], act.bnb_optimize(pr))


def test_hover_slots_copy_previous_activation():
    s = scen.generate_scenario(3, 3)
    out = harness.run_dlo(s, fast_spec(planner="nearest_neighbor"))
    acts = out.reports[0].per_slot_activation
    for i, slot in enumerate(out.slot_plan.slots):
        if slot.mode == lb.HOVERING and i > 0:
            assert np.array_equal(acts[i], acts[i - 1])


def test_exact_multiple_leg_hover_is_solved_at_the_node():
    # the 10 m leg is two whole 5 m steps, so the last flying slot sits 5 m
    # short of the node; the hover slots must still be costed at the node
    # (reference energies from hover slots solved at their own position)
    s = _single_node_scenario((10.0, 0.0, 0.0))
    for activator, expected in (("bnb", 0.033225146974068594), ("islr", 0.07469485613379538)):
        out = harness.run_dlo(s, harness.StrategySpec(planner="nearest_neighbor",
                                                      activator=activator))
        assert out.total_energy_j == expected


@pytest.mark.parametrize("activator", ["bnb", "islr", "full", "exhaustive"])
def test_every_slot_takes_the_answer_at_its_own_position(activator):
    spec = fast_spec(planner="nearest_neighbor", activator=activator)
    for s in (_single_node_scenario((10.0, 0.0, 0.0)), scen.generate_scenario(3, 3)):
        out = harness.run_dlo(s, spec)
        for slot, bits in zip(out.slot_plan.slots, out.reports[0].per_slot_activation):
            problem = act.ActivationProblem.from_scenario(s, slot.position_m)
            # each activator's own one-slot oracle, not the dispatch under test
            expected = {
                "bnb": act.bnb_optimize,
                "islr": act.islr_optimize,
                "full": lambda p: np.ones(p.size, dtype=np.int8),
                "exhaustive": act.exhaustive_best,
            }[activator](problem)
            assert bits.dtype == np.int8 and np.array_equal(bits, expected)


@pytest.mark.parametrize("rows", [0, 1, 3])
@pytest.mark.parametrize("activator", [a for a in harness.ACTIVATORS if a != "mimo"])
def test_solve_rows_returns_one_int8_row_per_slot(activator, rows):
    s = scen.generate_scenario(3, 1, pa_count=6)
    positions = np.random.default_rng(8).uniform([0, 0, 2.5], [100, 100, 7.5], size=(rows, 3))
    channels = propagation.channel(s, positions)
    bits = harness.solve_rows(channels, activator, fast_spec(), *act.link_constants(s))
    assert bits.dtype == np.int8 and bits.shape == (rows, 6)


def test_solve_cycle_solves_each_distinct_position_once(monkeypatch):
    s = scen.generate_scenario(3, 3)
    plan = lb.discretize(s, rp.nearest_neighbor(s))
    distinct = len(np.unique(plan.positions(), axis=0))
    assert distinct < plan.total_slots
    islr, exact = [], []
    real_islr, real_exact = act.islr_rows, act.exact_rows
    monkeypatch.setattr(act, "islr_rows", lambda h, *a: islr.append(len(h)) or real_islr(h, *a))
    monkeypatch.setattr(act, "exact_rows", lambda h, *a: exact.append(len(h)) or real_exact(h, *a))
    harness.solve_cycle(s, plan, "islr", fast_spec())
    harness.solve_cycle(s, plan, "bnb", fast_spec())
    assert islr == [distinct]
    assert exact == [distinct]


@pytest.mark.parametrize("activator", harness.ACTIVATORS)
def test_solve_cycle_builds_one_channel_block(monkeypatch, activator):
    # solving and costing share one (S, K) block; the array baseline needs none
    s = scen.generate_scenario(3, 3)
    plan = lb.discretize(s, rp.nearest_neighbor(s))
    calls, real = [], propagation.channel
    monkeypatch.setattr(propagation, "channel", lambda *a: calls.append(1) or real(*a))
    report = harness.solve_cycle(s, plan, activator, fast_spec())
    assert len(calls) == (0 if activator == "mimo" else 1)
    monkeypatch.undo()
    if activator != "mimo":
        rebuilt = lb.cycle_energy(s, plan, report.per_slot_activation, activator)
        assert rebuilt.per_slot_power_w == report.per_slot_power_w


@pytest.mark.parametrize("extra, builds", [(("islr", "full", "exhaustive", "mimo"), 1), ((), 0)])
def test_run_dlo_builds_one_channel_block_per_plan(monkeypatch, extra, builds):
    # every PA activator shares the plan's block; the array alone needs none
    s = scen.generate_scenario(3, 3)
    spec = fast_spec(planner="nearest_neighbor", activator="mimo" if builds == 0 else "bnb")
    calls, real = [], propagation.channel
    monkeypatch.setattr(propagation, "channel", lambda *a: calls.append(1) or real(*a))
    output = harness.run_dlo(s, spec, extra_activators=extra)
    assert len(calls) == builds
    monkeypatch.undo()
    for report in output.reports:
        alone = harness.solve_cycle(s, output.slot_plan, report.strategy_name, spec)
        assert alone.per_slot_power_w == report.per_slot_power_w


def test_distinct_positions_are_found_once_per_plan(monkeypatch):
    # every activator of a cycle, and every cell of a sweep that shares the
    # plan, solves the same distinct positions
    s = scen.generate_scenario(3, 3)
    calls, real = [], np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or real(*a, **k))
    harness.run_dlo(s, fast_spec(planner="nearest_neighbor"),
                    extra_activators=("islr", "full", "exhaustive", "mimo"))
    assert len(calls) == 1
    calls.clear()
    result = harness.sweep("rate_threshold", [4.0, 5.0], ["nearest_neighbor:bnb", "nearest_neighbor:islr"],
                           [3], node_count=3)
    assert not result.failures and len(calls) == 1


def test_planner_dispatch_held_karp_is_shortest():
    s = scen.generate_scenario(3, 6)
    hk, _ = harness.plan_tour(s, fast_spec(planner="held_karp"))
    nn, _ = harness.plan_tour(s, fast_spec(planner="nearest_neighbor"))
    assert hk.total_distance_m <= nn.total_distance_m + 1e-9


def test_alternating_planner_never_loses_to_ga_alone():
    # both planners draw the same stream, so the first exploration round is
    # shared and the refinement loop can only improve on it
    for seed in (2, 9, 14):
        s = scen.generate_scenario(seed, 8)
        hao_tour, _ = harness.plan_tour(s, fast_spec(planner="hao"))
        ga_tour, _ = harness.plan_tour(s, fast_spec(planner="ga_only"))
        assert hao_tour.total_distance_m <= ga_tour.total_distance_m + 1e-12


def test_invalid_strategy_names_rejected():
    with pytest.raises(ValueError):
        harness.StrategySpec(planner="annealing")
    with pytest.raises(ValueError):
        harness.StrategySpec(activator="random")


def test_distance_trace_excludes_hover_and_correlates():
    s = scen.generate_scenario(7, 5)
    out = harness.run_dlo(s, fast_spec(planner="nearest_neighbor"))
    rows = harness.distance_energy_trace(s, out)
    plan = lb.discretize(s, harness.plan_tour(s, fast_spec(planner="nearest_neighbor"))[0])
    hover_idx = {i for i, sl in enumerate(plan.slots) if sl.mode == lb.HOVERING}
    assert all(idx not in hover_idx for idx, _, _ in rows)
    assert len(rows) == len(plan.flying_indices())
    rho = spearmanr([r[1] for r in rows], [r[2] for r in rows]).statistic
    assert rho > 0.9


def test_sweep_rate_threshold_strictly_increasing():
    result = harness.sweep(
        "rate_threshold", [3.0, 4.0, 5.0], ["nearest_neighbor:bnb", "nearest_neighbor:full"],
        seeds=[3], node_count=3, base_spec=fast_spec(),
    )
    for col in range(result.energies.shape[1]):
        e = result.energies[:, col]
        assert np.all(np.diff(e) > 0)
    assert not result.failures


def test_sweep_is_deterministic():
    kw = dict(
        values=[4.0, 5.0], strategies=["nearest_neighbor:islr"], seeds=[1, 2],
        node_count=3, base_spec=fast_spec(),
    )
    a = harness.sweep("rate_threshold", **kw)
    b = harness.sweep("rate_threshold", **kw)
    assert np.array_equal(a.energies, b.energies)


def test_sweep_keeps_every_cell_and_derives_means_and_counts_from_them():
    # Held-Karp refuses 17 nodes, so its column fails at that value only
    strategies = ["nearest_neighbor:full", "held_karp:islr", "nearest_neighbor:mimo"]
    values, seeds = [3, 17], [1, 2, 3]
    result = harness.sweep("node_count", values, strategies, seeds, base_spec=fast_spec())
    assert result.cycle_energies.shape == (len(values), len(seeds), len(strategies))
    failed = {(v, name, seed) for v, name, seed, _ in result.failures}
    assert failed == {(17, "held_karp:islr", seed) for seed in seeds}
    for (vi, value), (ni, seed), (si, name) in itertools.product(
        enumerate(values), enumerate(seeds), enumerate(strategies)
    ):
        energy = result.cycle_energies[vi, ni, si]
        if (value, name, seed) in failed:
            assert math.isnan(energy)
            continue
        s = scen.generate_scenario(seed, value)
        planner, activator = name.split(":")
        spec = fast_spec(planner=planner, activator=activator)
        plan = lb.discretize(s, harness.plan_tour(s, spec)[0])
        assert energy == harness.solve_cycle(s, plan, activator, spec).total_energy_j
    for vi, si in itertools.product(range(len(values)), range(len(strategies))):
        ok = [e for e in result.cycle_energies[vi, :, si] if not math.isnan(e)]
        total = 0.0
        for e in ok:
            total += e
        assert result.seed_counts[vi, si] == len(ok)
        mean = result.energies[vi, si]
        assert mean == total / len(ok) if ok else math.isnan(mean)


@pytest.mark.parametrize("variable, values, plans", [
    ("rate_threshold", [3.0, 4.0, 5.0], 2 * 2),  # seeds x planners
    ("pa_count", [4, 10], 2 * 2),
    ("node_count", [3, 4], 2 * 2 * 2),  # values x seeds x planners
])
def test_sweep_plans_each_route_once(monkeypatch, variable, values, plans):
    strategies = ["nearest_neighbor:full", "hao:islr", "hao:mimo"]
    calls, real = [], harness.plan_tour
    monkeypatch.setattr(harness, "plan_tour", lambda *a: calls.append(1) or real(*a))
    result = harness.sweep(variable, values, strategies, [1, 2], node_count=3, base_spec=fast_spec())
    assert len(calls) == plans
    monkeypatch.undo()
    for (vi, value), (ni, seed), (si, name) in itertools.product(
        enumerate(values), enumerate([1, 2]), enumerate(strategies)
    ):
        s = harness._scenario_for(variable, value, seed, 3)
        planner, activator = name.split(":")
        spec = fast_spec(planner=planner, activator=activator)
        plan = lb.discretize(s, harness.plan_tour(s, spec)[0])
        assert result.cycle_energies[vi, ni, si] == harness.solve_cycle(s, plan, activator, spec).total_energy_j


@pytest.mark.parametrize("variable, value", [
    ("pa_count", 4.5), ("node_count", 2.5), ("pa_count", "4"), ("rate_threshold", "5"),
    ("node_count", math.inf), ("pa_count", None),
])
def test_sweep_rejects_a_value_its_type_would_change_before_any_cell(monkeypatch, variable, value):
    monkeypatch.setattr(harness, "_scenario_for", lambda *a: pytest.fail("a cell ran"))
    with pytest.raises(ValueError, match=f"^{variable} takes .* values, not {re.escape(repr(value))}$"):
        harness.sweep(variable, [4, value], ["nearest_neighbor:full"], [1], node_count=2)


def test_sweep_runs_an_integral_float_count_as_its_int():
    kw = dict(strategies=["nearest_neighbor:full"], seeds=[1], node_count=2)
    as_float = harness.sweep("pa_count", [4.0], **kw)
    assert as_float.sweep_values == (4.0,)
    assert np.array_equal(as_float.energies, harness.sweep("pa_count", [4], **kw).energies)


def test_every_report_holds_one_activation_block(tmp_path):
    s = scen.generate_scenario(3, 4)
    output = harness.run_dlo(s, fast_spec(), extra_activators=("islr", "full", "exhaustive", "mimo"))
    k, slots = s.waveguide.pa_count, output.slot_plan.total_slots
    for report in output.reports[:-1]:
        assert report.per_slot_activation.dtype == np.int8
        assert report.per_slot_activation.shape == (slots, k)
    mimo = output.reports[-1]
    assert mimo.per_slot_activation.shape == (0, 0)
    lb.write_energy_json(tmp_path / "energy.json", output.reports)
    written = json.loads((tmp_path / "energy.json").read_text())
    assert [r["per_slot_activation"] for r in written] == [
        r.per_slot_activation.tolist() for r in output.reports[:-1]
    ] + [[]]


def test_nested_couplers_energy_monotone():
    # labeled nested-placement rule: positions of smaller arrays are subsets of
    # the larger ones, so per-slot optima can only improve with more couplers
    base = scen.generate_scenario(6, 3)
    full_positions = (5.0, 15.0, 25.0, 35.0, 45.0, 55.0, 65.0, 75.0, 85.0, 95.0)
    tour = rp.nearest_neighbor(base)
    energies = []
    for count in (4, 7, 10):
        wg = scen.WaveguideConfig(
            y_m=0.0, z_m=5.0, span_m=100.0, feed_x_m=0.0,
            pa_x_m=tuple(sorted(full_positions[:count])), min_spacing_m=10.0,
        )
        s = scen.Scenario(
            physics=base.physics, waveguide=wg, station_m=base.station_m, nodes=base.nodes,
            flight_speed_mps=base.flight_speed_mps, delivery_speed_tps=base.delivery_speed_tps,
            slot_seconds=base.slot_seconds, rng_seed=base.rng_seed,
        )
        plan = lb.discretize(s, tour)
        report = harness.solve_cycle(s, plan, "bnb", fast_spec())
        energies.append(report.total_energy_j)
    assert energies[0] >= energies[1] >= energies[2]


def test_csv_writers_are_byte_deterministic(tmp_path):
    s = scen.generate_scenario(3, 3)
    spec = fast_spec(planner="nearest_neighbor")
    out = harness.run_dlo(s, spec, extra_activators=("full",))
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    lb.write_energy_csv(p1, out.slot_plan, out.reports)
    lb.write_energy_csv(p2, out.slot_plan, out.reports)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "slot_index,mode,x,y,z,strategy,K_a,power_w"


def test_sweep_records_failures_without_aborting(monkeypatch):
    calls = {"n": 0}
    real = harness.solve_cycle

    def flaky(scenario, plan, activator, spec):
        calls["n"] += 1
        if calls["n"] == 1:
            raise lb.InfeasibleSlotError("synthetic failure")
        return real(scenario, plan, activator, spec)

    monkeypatch.setattr(harness, "solve_cycle", flaky)
    result = harness.sweep(
        "rate_threshold", [5.0], ["nearest_neighbor:full"], seeds=[1, 2],
        node_count=2, base_spec=fast_spec(),
    )
    assert len(result.failures) == 1
    assert math.isfinite(result.energies[0, 0])


def _written_digest(directory) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("seed, nodes", [(1, 10), (2, 30)])
def test_cycle_files_match_the_golden_digest(tmp_path, seed, nodes):
    """Every file a benchmark cycle writes, with four reports in energy.csv
    (three with activation vectors, the array baseline with its element count)."""
    s = scen.generate_scenario(seed, nodes)
    spec = fast_spec()
    output = harness.run_dlo(s, spec, extra_activators=("islr", "full", "mimo"))
    harness.write_tour_json(tmp_path / "tour.json", output.tour, spec.planner, s.rng_seed)
    harness.write_slots_csv(tmp_path / "slots.csv", output.slot_plan)
    lb.write_energy_csv(tmp_path / "energy.csv", output.slot_plan, output.reports,
                        mimo_elements=spec.mimo.element_count)
    lb.write_energy_json(tmp_path / "energy.json", output.reports)
    harness.write_planner_trace_csv(tmp_path / "hao_trace.csv", output.planner_trace)
    slots = output.slot_plan.slots
    rows = [
        (i, float(propagation.pa_distances(s, slots[i].position_m).min()),
         output.reports[0].per_slot_power_w[i])
        for i in output.slot_plan.flying_indices()
    ]
    harness.write_distance_trace_csv(tmp_path / "trace_distance.csv", rows)
    assert _written_digest(tmp_path) == GOLDEN_CYCLE_FILES[seed, nodes]


GOLDEN_CYCLE_FILES = {
    (1, 10): "519def9579100aa3b526d9eea8a97cdbc31e52006126a00600449c7476f64679",
    (2, 30): "66b9441a997fcd87082d8489026ecccc35571e2226b7740493c43731a5871ad8",
}
