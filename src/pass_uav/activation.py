"""Per-slot antenna activation: the exhaustive oracle, the exact convex-hull
dynamic program, the incremental-search/local-replacement heuristic, and the
full-activation baseline.

The figure of merit is f(a) = rho * |sum_k conj(h_k) beta_k(a) g_k a_k|^2 with
rho = 1 / ((2^R_th - 1) sigma^2); maximizing f minimizes the transmit power
needed to meet the rate floor. The all-zero vector has zero gain and is treated
as infeasible throughout.

Exact activation rests on the coupling chain. With c = sqrt(1 - delta^2), the
n-th active coupler in feed order radiates delta * c^(n-1) of the guided
amplitude, so an activation whose active couplers are k_1 < ... < k_n radiates
z = sum_i delta * c^(i-1) * phi_(k_i), with phasors phi_k = conj(h_k) g_k, and
f = rho |z|^2. Sweeping the couplers in feed order, the amplitudes reachable
with n active couplers update as S_n <- S_n u (S_(n-1) + delta c^(n-1) phi_k).
|z|^2 is convex, so its maximum over a finite set lies on a vertex of the
set's convex hull (Rockafellar, Convex Analysis, sec. 32), and the vertices of
hull(A u (B + v)) are among vert(A) u (vert(B) + v) (de Berg et al.,
Computational Geometry, ch. 1). Keeping only hull vertices after every step
is therefore exact, and it needs no relaxation, tolerance or LP. The hulls
hold about 1.7 K vertices, so a slot costs O(K^3) point steps instead of 2^K.

`bnb_optimize` keeps its name from the branch and bound it replaced, so that
the `bnb` activator label, and every output that carries it, stays as it was.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np
# Unused: the exact activator needs no LP. The import stays because the
# benchmark's traced run counts HiGHS solves through this module attribute;
# removing it (and SciPy from the runtime) retargets those layer metrics.
from scipy.optimize import linprog  # noqa: F401

from . import propagation
from .scenario import Scenario

EXHAUSTIVE_MAX_K = 20
# Bound on the relative error of a float orientation determinant (Shewchuk's
# errboundA is 3.3e-16). A determinant within it, or below _ORIENT_TINY where
# its products may have underflowed, gets its sign recomputed exactly.
_ORIENT_REL_ERR = 1e-15
_ORIENT_TINY = 1e-290


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


def _amplitudes(bits, problem: ActivationProblem) -> np.ndarray:
    """Radiated amplitude of each activation in a stack, summed in feed order.

    `bnb_optimize` builds its points from the same products, added in the same
    order, so both give an activation the same float amplitude, and couplers
    with equal phasors give exactly tied amplitudes in both.
    """
    beta = propagation.radiation_ratios(bits, problem.delta)
    amp = np.zeros(beta.shape[:-1], dtype=complex)
    for k in range(problem.size):
        amp += beta[..., k] * problem.phasors[k]
    return amp


def exhaustive_best(problem: ActivationProblem) -> np.ndarray:
    """Global argmax over all 2^K activations, excluding the infeasible zero vector.

    Activations are ranked by |amplitude|^2, which orders them as the
    objective does (rho > 0). Ties resolve to the smallest activated count,
    then the lexicographically smallest bitmap.
    """
    k = problem.size
    if k > EXHAUSTIVE_MAX_K:
        raise ValueError(f"exhaustive search is guarded to K <= {EXHAUSTIVE_MAX_K}, got {k}")
    bits = _all_bitmaps(k)[1:]
    amps = _amplitudes(bits, problem)
    power = amps.real**2 + amps.imag**2
    tied = bits[power == power.max()]
    rows = sorted((int(row.sum()), tuple(int(b) for b in row)) for row in tied)
    return np.asarray(rows[0][1], dtype=np.int8)


# ---------------------------------------------------------------------------
# Exact activation: convex-hull dynamic program
# ---------------------------------------------------------------------------


@dataclass
class BnbTrace:
    """Work counters of one exact solve.

    ``boxes_created`` counts the DP points made (one per hull vertex carried
    across a coupler); ``pruned_boxes`` lists the activations of the points
    that a hull step dropped, each as an int whose K-digit binary form is the
    bitmap in coupler order. The names are kept from the branch and bound
    this DP replaced.
    """

    boxes_created: int = 0
    pruned_boxes: list = field(default_factory=list)


def _orientation(o, a, b) -> float:
    """Cross product of a - o and b - o, with an exact sign: positive for a
    left turn, zero when the three points are collinear."""
    ux, uy = a[0] - o[0], a[1] - o[1]
    vx, vy = b[0] - o[0], b[1] - o[1]
    left, right = ux * vy, uy * vx
    det = left - right
    if abs(det) > max(_ORIENT_REL_ERR * (abs(left) + abs(right)), _ORIENT_TINY):
        return det
    # Nearly collinear: the float sign may be wrong, so redo it in rationals.
    ox, oy = Fraction(o[0]), Fraction(o[1])
    exact = (Fraction(a[0]) - ox) * (Fraction(b[1]) - oy) - (Fraction(a[1]) - oy) * (Fraction(b[0]) - ox)
    return float((exact > 0) - (exact < 0))


def _hull(points: list, trace: Optional[BnbTrace]) -> list:
    """Vertices of the convex hull of (x, y, key) points (Andrew's monotone chain).

    Coincident points share one float amplitude, so of those only the
    smallest key can win a tie; it alone is kept. Points on a hull edge go
    too: |z|^2 is strictly convex, so each lies strictly below an end of its
    edge.
    """
    points.sort()
    uniq = []
    for p in points:
        if uniq and uniq[-1][0] == p[0] and uniq[-1][1] == p[1]:
            if trace is not None:
                trace.pruned_boxes.append(p[2])
            continue
        uniq.append(p)
    if len(uniq) <= 2:
        return uniq
    lower: list = []
    for p in uniq:
        while len(lower) >= 2 and _orientation(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(uniq):
        while len(upper) >= 2 and _orientation(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if trace is not None:
        kept = {p[2] for p in hull}
        trace.pruned_boxes.extend(p[2] for p in uniq if p[2] not in kept)
    return hull


def bnb_optimize(problem: ActivationProblem, trace: Optional[BnbTrace] = None) -> np.ndarray:
    """Exact argmax of the objective by the convex-hull DP (see the module docstring).

    Returns the activation `exhaustive_best` returns, ties included: the
    points carry the oracle's own float amplitudes, and the winner is the
    largest |z|^2, then the fewest active couplers, then the
    lexicographically smallest bitmap. The two can differ only by rounding: a
    point dropped from a hull edge is strictly weaker in exact arithmetic,
    yet its |z|^2 can round equal to the optimum's when the two lie within an
    ulp, or when every |z|^2 underflows to zero (phasors below about 1e-154).
    """
    k = problem.size
    weights = propagation.radiation_ratios(np.ones(k, dtype=np.int8), problem.delta)
    # terms[n][j]: what coupler j radiates as the (n+1)-th active one
    terms = (weights[:, None] * problem.phasors[None, :]).tolist()
    # hulls[n]: hull vertices (x, y, key) of the amplitudes with n active
    # couplers; bit K-1-j of key is coupler j, so keys order as bitmaps do.
    hulls: list = [[(0.0, 0.0, 0)]]
    for j in range(k):
        bit = 1 << (k - 1 - j)
        grown = [hulls[0]]
        for n in range(1, j + 2):
            t = terms[n - 1][j]
            tx, ty = t.real, t.imag
            points = [(x + tx, y + ty, key | bit) for x, y, key in hulls[n - 1]]
            if trace is not None:
                trace.boxes_created += len(points)
            if n < len(hulls):
                points += hulls[n]
            grown.append(_hull(points, trace))
        hulls = grown
    best = min(
        (-(x * x + y * y), n, key)
        for n in range(1, k + 1)
        for x, y, key in hulls[n]
    )
    key = best[2]
    return np.array([(key >> (k - 1 - j)) & 1 for j in range(k)], dtype=np.int8)


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
