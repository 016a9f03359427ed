"""Per-slot antenna activation: exhaustive oracle, exact branch-and-bound with
McCormick-relaxed bounding, the incremental-search/local-replacement heuristic,
and the full-activation baseline.

The figure of merit is f(a) = rho * |sum_k conj(h_k) beta_k(a) g_k a_k|^2 with
rho = 1 / ((2^R_th - 1) sigma^2); maximizing f minimizes the transmit power
needed to meet the rate floor. The all-zero vector has zero gain and is treated
as infeasible throughout.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from . import propagation
from .scenario import Scenario

DEFAULT_EPSILON = 1e-9
EXHAUSTIVE_MAX_K = 20


@dataclass(frozen=True)
class ActivationProblem:
    """One slot's geometry: free-space channel h_k and in-waveguide response g_k
    per coupler, with the derived phasors conj(h_k) * g_k."""

    channel: np.ndarray
    response: np.ndarray
    delta: float
    rho: float
    phasors: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "phasors", np.conj(self.channel) * self.response)

    @classmethod
    def from_scenario(cls, scenario: Scenario, uav_position_m) -> "ActivationProblem":
        phys = scenario.physics
        return cls(
            channel=propagation.channel(scenario, uav_position_m),
            response=propagation.waveguide_response(scenario),
            delta=phys.radiation_constant,
            rho=1.0 / ((2.0**phys.rate_threshold_bps_hz - 1.0) * phys.noise_power_w),
        )

    @property
    def size(self) -> int:
        return int(self.phasors.size)

    def gain(self, activation) -> float:
        """Combined gain |sum_k conj(h_k) * beta_k * g_k|^2 under the sequential ratios."""
        beta = propagation.radiation_ratios(activation, self.delta)
        # Keep this product order: the costed per-slot powers, and with them
        # the simulate outputs, depend on its rounding in the last bits.
        amp = np.sum(np.conj(self.channel) * beta * self.response)
        return float(np.abs(amp) ** 2)

    def objective(self, activation) -> float:
        return self.rho * self.gain(activation)


def full_activation(k: int) -> np.ndarray:
    return np.ones(k, dtype=np.int8)


def _all_bitmaps(k: int) -> np.ndarray:
    ints = np.arange(1 << k, dtype=np.int64)
    return ((ints[:, None] >> np.arange(k)) & 1).astype(np.int8)


def exhaustive_best(problem: ActivationProblem) -> np.ndarray:
    """Global argmax over all 2^K activations, excluding the infeasible zero vector.

    Ties resolve to the smallest activated count, then the lexicographically
    smallest bitmap.
    """
    k = problem.size
    if k > EXHAUSTIVE_MAX_K:
        raise ValueError(f"exhaustive search is guarded to K <= {EXHAUSTIVE_MAX_K}, got {k}")
    bits = _all_bitmaps(k)[1:]
    amps = propagation.radiation_ratios(bits, problem.delta) @ problem.phasors
    objs = problem.rho * np.abs(amps) ** 2
    best = objs.max()
    tied = bits[objs == best]
    rows = sorted((int(row.sum()), tuple(int(b) for b in row)) for row in tied)
    return np.asarray(rows[0][1], dtype=np.int8)


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Sub-hyperrectangle of the activation space; coordinates with equal
    bounds are fixed, the rest span [0, 1]."""

    lower: np.ndarray
    upper: np.ndarray
    upper_bound_value: float
    relaxed_solution: np.ndarray


@dataclass
class BnbTrace:
    """Optional instrumentation of a branch-and-bound run."""

    gub: list = field(default_factory=list)
    glb: list = field(default_factory=list)
    pruned_boxes: list = field(default_factory=list)
    boxes_created: int = 0


def _pair_coeffs(problem: ActivationProblem, lower: np.ndarray, upper: np.ndarray):
    """Split the quadratic-form coefficients by the box's fixed/free pattern.

    Returns (const, linear, quad, free_idx): the fixed-one block contributes a
    constant, fixed-one/free cross terms fold into the linear part, and only
    free/free products remain quadratic (handled by the envelope).
    """
    v = problem.phasors
    coeff = np.real(np.outer(v, np.conj(v)))
    free = np.flatnonzero(lower != upper)
    ones = np.flatnonzero((lower == upper) & (upper == 1))
    const = float(coeff[np.ix_(ones, ones)].sum()) if ones.size else 0.0
    linear = np.zeros(free.size)
    if free.size:
        linear = coeff[free, free].copy()
        if ones.size:
            linear += 2.0 * coeff[np.ix_(ones, free)].sum(axis=0)
    iu, ju = np.triu_indices(free.size, k=1)
    quad = 2.0 * coeff[free[iu], free[ju]] if free.size > 1 else np.zeros(0)
    return const, linear, quad, free


def _separable_bound(const: float, linear: np.ndarray, quad: np.ndarray) -> float:
    """Cheap over-estimate of the envelope LP: take every positive term in full."""
    return const + np.clip(linear, 0.0, None).sum() + np.clip(quad, 0.0, None).sum()


@lru_cache(maxsize=32)
def _lp_structure(u: int):
    """Constraint system of the envelope LP for u free coordinates (cached;
    it depends only on u)."""
    iu, ju = np.triu_indices(u, k=1)
    p = iu.size
    rows = np.zeros((3 * p, u + p))
    rhs = np.zeros(3 * p)
    for r, (i, j) in enumerate(zip(iu, ju)):
        rows[3 * r, u + r] = 1.0
        rows[3 * r, i] = -1.0
        rows[3 * r + 1, u + r] = 1.0
        rows[3 * r + 1, j] = -1.0
        rows[3 * r + 2, u + r] = -1.0
        rows[3 * r + 2, i] = 1.0
        rows[3 * r + 2, j] = 1.0
        rhs[3 * r + 2] = 1.0
    bounds = [(0.0, 1.0)] * (u + p)
    return rows, rhs, bounds


def _envelope_lp(linear: np.ndarray, quad: np.ndarray):
    """Exact optimum of the McCormick-relaxed quadratic over the unit sub-box.

    Variables are the free activations a and one P_ij per free pair standing in
    for the product a_i a_j, constrained to its four-inequality envelope:
    P <= a_i, P <= a_j, P >= 0, P >= a_i + a_j - 1. Coefficients are channel
    powers (~1e-9), far below solver tolerances, so the objective is normalized
    to O(1) and the optimum rescaled afterwards.
    """
    u = linear.size
    norm = max(np.abs(linear).max(initial=0.0), np.abs(quad).max(initial=0.0))
    if norm == 0.0:
        return 0.0, np.zeros(u)
    c = -np.concatenate([linear, quad]) / norm
    a_ub, b_ub, bounds = _lp_structure(u)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"envelope relaxation failed with status {res.status}")
    return -res.fun * norm, np.clip(res.x[:u], 0.0, 1.0)


def relax_upper_bound(
    problem: ActivationProblem, lower, upper
) -> tuple[float, np.ndarray]:
    """Upper bound on the box-restricted optimum, with the relaxed activations.

    Free coordinates keep the equal-ratio (beta -> delta) relaxation solved
    over the McCormick envelope; a fully fixed box degenerates to the exact
    objective of its single vector under the true sequential ratios.
    """
    lower = np.asarray(lower, dtype=np.int8)
    upper = np.asarray(upper, dtype=np.int8)
    if np.any(lower > upper):
        raise ValueError("box is empty")
    const, linear, quad, free = _pair_coeffs(problem, lower, upper)
    scale = problem.rho * problem.delta * problem.delta
    a_relax = lower.astype(float)
    if free.size == 0:
        return problem.objective(upper), upper.astype(float)
    if free.size == 1:
        take = linear[0] > 0.0
        a_relax[free[0]] = 1.0 if take else 0.0
        return scale * (const + (linear[0] if take else 0.0)), a_relax
    value, a_free = _envelope_lp(linear, quad)
    a_relax[free] = a_free
    return scale * (const + value), a_relax


def _project(a_relax: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Round to binary (ties up); rescue an all-zero projection by switching on
    the free coordinate with the largest relaxed value."""
    bits = (a_relax >= 0.5).astype(np.int8)
    if bits.any():
        return bits
    free = np.flatnonzero(lower != upper)
    if free.size:
        bits[free[np.argmax(a_relax[free])]] = 1
    return bits


def bnb_optimize(
    problem: ActivationProblem,
    epsilon: float = DEFAULT_EPSILON,
    trace: Optional[BnbTrace] = None,
) -> np.ndarray:
    """Best-bound-first branch and bound over activation bitmaps.

    Bounding relaxes the radiation ratios to the leading coupler's and the
    binary products to their McCormick envelopes; projected (rounded) relaxed
    solutions evaluated under the true ratios supply the incumbents. Boxes are
    dropped once infeasible (zero-only), fathomed (bound gap within epsilon or
    fully fixed), or dominated (upper bound below the incumbent objective).
    With epsilon = 0 the incumbent's objective matches the exhaustive optimum.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    k = problem.size
    singles = np.abs(problem.phasors)
    best_k = int(np.argmax(singles))
    incumbent = np.zeros(k, dtype=np.int8)
    incumbent[best_k] = 1
    glb = problem.objective(incumbent)

    root_lower = np.zeros(k, dtype=np.int8)
    root_upper = np.ones(k, dtype=np.int8)
    root_value, root_relax = relax_upper_bound(problem, root_lower, root_upper)
    root = Box(
        lower=root_lower,
        upper=root_upper,
        upper_bound_value=root_value,
        relaxed_solution=root_relax,
    )
    heap: list = [(-root_value, 0, root)]
    counter = 0
    if trace is not None:
        trace.boxes_created += 1

    def consider(bits: np.ndarray) -> None:
        nonlocal glb, incumbent
        value = problem.objective(bits)
        if value > glb:
            glb = value
            incumbent = bits.copy()

    while heap:
        neg_ub, _, box = heap[0]
        gub = -neg_ub
        if trace is not None:
            trace.gub.append(gub)
            trace.glb.append(glb)
        if gub - glb <= epsilon:
            break
        heapq.heappop(heap)
        if gub < glb:
            if trace is not None:
                trace.pruned_boxes.append((box.lower, box.upper))
            continue
        parent_ub = gub
        # Maximum-length-first edge: every free side has length one, so break
        # the tie toward the strongest channel, which tightens bounds fastest.
        side = (box.upper - box.lower).astype(float)
        edge = int(np.argmax(side * (1.0 + singles)))
        for value_fixed in (1, 0):
            child_lower = box.lower.copy()
            child_upper = box.upper.copy()
            child_lower[edge] = value_fixed
            child_upper[edge] = value_fixed
            if trace is not None:
                trace.boxes_created += 1
            if not child_upper.any():
                continue  # zero-only box cannot meet the rate floor
            free = np.flatnonzero(child_lower != child_upper)
            if free.size == 0:
                consider(child_upper)
                continue
            const, linear, quad, _ = _pair_coeffs(problem, child_lower, child_upper)
            scale = problem.rho * problem.delta * problem.delta
            screen = scale * _separable_bound(const, linear, quad)
            if screen < glb:
                if trace is not None:
                    trace.pruned_boxes.append((child_lower, child_upper))
                continue
            child_ub, a_relax = relax_upper_bound(problem, child_lower, child_upper)
            child_ub = min(child_ub, parent_ub)
            projected = _project(a_relax, child_lower, child_upper)
            proj_value = problem.objective(projected)
            if proj_value > glb:
                glb = proj_value
                incumbent = projected.copy()
            if child_ub < glb:
                if trace is not None:
                    trace.pruned_boxes.append((child_lower, child_upper))
                continue
            if child_ub - proj_value <= epsilon:
                continue
            counter += 1
            child = Box(
                lower=child_lower,
                upper=child_upper,
                upper_bound_value=child_ub,
                relaxed_solution=a_relax,
            )
            heapq.heappush(heap, (-child_ub, counter, child))
    return incumbent


# ---------------------------------------------------------------------------
# Incremental search with local replacement
# ---------------------------------------------------------------------------


def _bits_from(indices, k: int) -> np.ndarray:
    bits = np.zeros(k, dtype=np.int8)
    for i in indices:
        bits[i] = 1
    return bits


class _BestTracker:
    def __init__(self, problem: ActivationProblem):
        self.problem = problem
        self.best_obj = -math.inf
        self.best_set: tuple[int, ...] = ()

    def evaluate(self, members) -> float:
        obj = self.problem.objective(_bits_from(members, self.problem.size))
        if obj > self.best_obj:
            self.best_obj = obj
            self.best_set = tuple(sorted(members))
        return obj


def islr_optimize(problem: ActivationProblem, high_count: Optional[int] = None) -> np.ndarray:
    """Gain-ranked incremental search refined by downsizing/upsizing swaps.

    Antennas sorted by free-space gain split into a high-efficiency prefix of
    ``high_count`` entries and a low-efficiency remainder. The best gain-ranked
    prefix seeds an alternating refinement: drop the lowest marginal-gain
    members while power keeps falling, then append remaining high-gain antennas
    while power keeps falling. The cheapest set evaluated anywhere along the
    way is returned; the all-on baseline is always among the candidates, so
    the heuristic never loses to plain full activation.
    """
    k = problem.size
    if high_count is None:
        high_count = math.ceil(k / 2)
    if not 1 <= high_count <= k:
        raise ValueError("high_count must lie in [1, K]")
    mags = np.abs(problem.phasors)
    ranked = np.argsort(-mags, kind="stable")
    tracker = _BestTracker(problem)
    tracker.evaluate(range(k))

    current: set[int] = set()
    current_obj = -math.inf
    for k_prefix in range(1, high_count + 1):
        members = set(int(i) for i in ranked[:k_prefix])
        obj = tracker.evaluate(members)
        if obj > current_obj:
            current, current_obj = members, obj
    pool = [int(i) for i in ranked[high_count:]]

    for _ in range(4 * k):
        changed = False

        if len(current) >= 2:
            # Marginal gain of each member under the current arrangement:
            # its own amplitude contribution, phases ignored.
            beta = propagation.radiation_ratios(_bits_from(current, k), problem.delta)
            removal = sorted(current, key=lambda p: (beta[p] * mags[p], p))
            prev_obj = current_obj
            working = set(current)
            adopted = None
            for p in removal[:-1]:
                working = working - {p}
                obj = tracker.evaluate(working)
                if obj <= prev_obj:
                    break
                prev_obj = obj
                adopted = (set(working), obj)
            if adopted is not None:
                current, current_obj = adopted
                changed = True

        if pool:
            prev_obj = current_obj
            working = set(current)
            adopted = None
            consumed = 0
            for idx, p in enumerate(pool):
                working = working | {p}
                obj = tracker.evaluate(working)
                if obj <= prev_obj:
                    break
                prev_obj = obj
                adopted = (set(working), obj)
                consumed = idx + 1
            if adopted is not None:
                current, current_obj = adopted
                pool = pool[consumed:]
                changed = True

        if not changed:
            break

    return _bits_from(tracker.best_set, k)
