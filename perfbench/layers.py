"""Which pass_uav functions the traced run wraps, and the per-layer metrics
built from their spans.

Span names are ``<module>.<function>``; a layer is a module. Metrics cover the
first pass over a workload's inputs, which is the same work on every run of
a seed, so counts repeat exactly and times compare across runs.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from pass_uav import activation, harness, propagation, route_planner
from pass_uav import link_budget
from pass_uav import scenario
from tracer import CYCLE, END, NAME, NOTE, PARENT, START, Tracer, self_times

MODULES = ("activation", "route_planner", "link_budget", "propagation", "harness", "scenario", "bench")
# Counts that must repeat exactly for the same input, with the wrapped
# functions each one is counted from.
COUNTERS = {
    "activation.lp_solves": ("activation.linprog",),
    "activation.boxes_created": ("activation.bnb_optimize",),
    "route_planner.hao_iterations": ("route_planner.hao_plan",),
    "route_planner.dp_calls": ("route_planner.dp_refine",),
    "propagation.channel_calls": ("propagation.channel",),
    "harness.slots_solved": ("harness.solve_slot",),
    "harness.slots_reused": ("harness.solve_slot", "harness.solve_cycle"),
}


def _bnb_before(args, kwargs):
    """Pass a BnbTrace through bnb_optimize's public ``trace`` argument."""
    trace_cls = getattr(activation, "BnbTrace", None)
    if trace_cls is None or "trace" in kwargs or len(args) >= 3:
        return args, kwargs, None
    note = trace_cls()
    return args, dict(kwargs, trace=note), note


def _solve_cycle_before(args, kwargs):
    plan = args[1] if len(args) > 1 else kwargs["plan"]
    activator = args[2] if len(args) > 2 else kwargs["activator"]
    return args, kwargs, (activator, plan.total_slots)


def _hao_after(note, args, kwargs, result):
    return len(result.best_distance_trace)


def _slots_after(note, args, kwargs, result):
    return result.total_slots


WRITERS = (
    "harness.write_tour_json",
    "harness.write_slots_csv",
    "harness.write_planner_trace_csv",
    "harness.write_distance_trace_csv",
    "link_budget.write_energy_csv",
    "link_budget.write_energy_json",
)


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions each workload reaches, plus HiGHS (linprog)."""
    for name in ("generate_scenario", "rng_stream"):
        tracer.wrap(scenario, name)
    tracer.wrap(route_planner, "hao_plan", after=_hao_after)
    for name in ("ga_explore", "dp_refine", "nearest_neighbor", "held_karp", "make_tour",
                 "distance_matrix"):
        tracer.wrap(route_planner, name)
    tracer.wrap(link_budget, "discretize", after=_slots_after)
    for name in ("cycle_energy", "slot_gain", "required_power", "write_energy_csv", "write_energy_json"):
        tracer.wrap(link_budget, name)
    for name in ("channel", "waveguide_response", "pa_distances", "radiation_ratios", "effective_gain"):
        tracer.wrap(propagation, name)
    tracer.wrap(activation, "bnb_optimize", before=_bnb_before)
    for name in ("relax_upper_bound", "linprog", "exhaustive_best", "islr_optimize", "full_activation"):
        tracer.wrap(activation, name)
    tracer.wrap(harness, "solve_cycle", before=_solve_cycle_before)
    for name in ("run_dlo", "plan_tour", "solve_slot", "mimo_required_power", "write_tour_json",
                 "write_slots_csv", "write_planner_trace_csv", "write_distance_trace_csv"):
        tracer.wrap(harness, name)


def per_cycle_counters(tracer: Tracer) -> dict[int, Counter]:
    """The COUNTERS of each request, keyed by its cycle id."""
    spans = tracer.spans
    solved_under = Counter(s[PARENT] for s in spans if s[NAME] == "harness.solve_slot")
    out: dict[int, Counter] = defaultdict(Counter)
    for j, s in enumerate(spans):
        c, name, note = out[s[CYCLE]], s[NAME], s[NOTE]
        if name == "activation.linprog":
            c["activation.lp_solves"] += 1
        elif name == "activation.bnb_optimize" and note is not None:
            c["activation.boxes_created"] += note.boxes_created
            c["activation.boxes_pruned"] += len(note.pruned_boxes)
        elif name == "route_planner.hao_plan":
            c["route_planner.hao_iterations"] += note
        elif name == "route_planner.dp_refine":
            c["route_planner.dp_calls"] += 1
        elif name == "propagation.channel":
            c["propagation.channel_calls"] += 1
        elif name == "harness.solve_slot":
            c["harness.slots_solved"] += 1
        elif name == "harness.solve_cycle" and note[0] != "mimo":
            c["harness.slots_reused"] += note[1] - solved_under[j]
    return out


def _counter_names(tracer: Tracer) -> list[str]:
    names = [k for k, needs in COUNTERS.items() if not set(needs) & set(tracer.missing)]
    if "activation.boxes_created" in names and not hasattr(activation, "BnbTrace"):
        names.remove("activation.boxes_created")
    return names


def repeat_misses(tracer: Tracer, size: int) -> list[tuple[int, str]]:
    """A repeated input whose counters differ from its first run."""
    counts = per_cycle_counters(tracer)
    names = _counter_names(tracer)
    misses = []
    for cycle in sorted(c for c in counts if c >= size):
        now, then = counts[cycle], counts[cycle % size]
        diff = [n for n in names if now[n] != then[n]]
        if diff:
            misses.append((cycle, "counters differ from the first run: " + ", ".join(diff)))
    return misses


def metrics(tracer: Tracer, size: int, checks: dict, records, overhead) -> dict:
    """Per-layer metrics of the first ``size`` requests. A metric whose
    wrapped function no longer exists is left out."""
    spans = tracer.spans
    selfs = self_times(spans)
    first = [j for j, s in enumerate(spans) if 0 <= s[CYCLE] < size]
    durations: dict[str, list[float]] = defaultdict(list)
    for j in first:
        durations[spans[j][NAME]].append(spans[j][END] - spans[j][START])
    out: dict[str, dict] = {}

    def put(name, value, unit, needs=()):
        if not set(needs) & set(tracer.missing):
            out[name] = {"value": value, "unit": unit}

    def total(name):
        return float(sum(durations[name]))

    bnb = [1000.0 * d for d in durations["activation.bnb_optimize"]]
    put("activation.bnb_s", total("activation.bnb_optimize"), "s", ["activation.bnb_optimize"])
    put("activation.bnb_calls", len(bnb), "count", ["activation.bnb_optimize"])
    for q in (50, 90):
        value = float(np.percentile(bnb, q)) if bnb else 0.0
        put(f"activation.bnb_ms_p{q}", value, "ms", ["activation.bnb_optimize"])
    lp_s, bnb_s = total("activation.linprog"), total("activation.bnb_optimize")
    put("activation.lp_s", lp_s, "s", ["activation.linprog"])
    put("activation.lp_share", lp_s / bnb_s if bnb_s else 0.0, "ratio",
        ["activation.linprog", "activation.bnb_optimize"])
    put("activation.exhaustive_s", total("activation.exhaustive_best"), "s", ["activation.exhaustive_best"])
    put("activation.islr_s", total("activation.islr_optimize"), "s", ["activation.islr_optimize"])
    put("activation.islr_calls", len(durations["activation.islr_optimize"]), "count",
        ["activation.islr_optimize"])
    compared = sum(c["compared"] for c in checks.values())
    matched = sum(c["matched"] for c in checks.values())
    put("activation.exact_match", matched / compared if compared else 0.0, "ratio")

    def top_planner(span):
        parent = span[PARENT]
        return span[NAME].startswith("route_planner.") and (
            parent < 0 or not spans[parent][NAME].startswith("route_planner.")
        )

    planner_top = float(sum(spans[j][END] - spans[j][START] for j in first if top_planner(spans[j])))
    put("route_planner.plan_s", planner_top, "s")
    put("route_planner.ga_s", total("route_planner.ga_explore"), "s", ["route_planner.ga_explore"])
    put("route_planner.ga_calls", len(durations["route_planner.ga_explore"]), "count",
        ["route_planner.ga_explore"])
    put("route_planner.dp_s", total("route_planner.dp_refine"), "s", ["route_planner.dp_refine"])

    put("link_budget.discretize_s", total("link_budget.discretize"), "s", ["link_budget.discretize"])
    put("link_budget.slots", sum(spans[j][NOTE] for j in first if spans[j][NAME] == "link_budget.discretize"),
        "count", ["link_budget.discretize"])
    put("link_budget.cost_s", total("link_budget.cycle_energy"), "s", ["link_budget.cycle_energy"])
    put("propagation.channel_s", total("propagation.channel"), "s", ["propagation.channel"])
    put("harness.solve_cycle_s", total("harness.solve_cycle"), "s", ["harness.solve_cycle"])
    put("harness.write_s", sum(total(w) for w in WRITERS if w not in tracer.missing), "s")
    put("harness.bytes_written", sum(r.nbytes for r in records if r.index < size), "count")

    counts = per_cycle_counters(tracer)
    names = _counter_names(tracer)
    if "activation.boxes_created" in names:
        names.append("activation.boxes_pruned")
    for name in names:
        put(name, sum(counts[c][name] for c in range(size)), "count")

    roots = sum(spans[j][END] - spans[j][START] for j in first if spans[j][PARENT] < 0)
    module_self = Counter()
    for j in first:
        module_self[spans[j][NAME].split(".", 1)[0]] += selfs[j]
    for module in MODULES:
        put(f"{module}.self_share", module_self[module] / roots, "ratio")

    traced_minus_untraced, untraced = overhead
    put("trace.overhead_s", traced_minus_untraced, "s")
    put("trace.overhead_frac", traced_minus_untraced / untraced, "ratio")
    put("trace.spans", len(first), "count")
    return out
