"""Per-slot antenna activation: the exhaustive oracle, the exact convex-hull
dynamic program and the incremental-search/local-replacement heuristic.

The figure of merit is f(a) = rho * |sum_k conj(h_k) beta_k(a) g_k a_k|^2 with
rho = 1 / ((2^R_th - 1) sigma^2); maximizing f minimizes the transmit power
needed to meet the rate floor. The all-zero vector has zero gain and is treated
as infeasible throughout.

Exact activation rests on the coupling chain. With c = sqrt(1 - delta^2), the
n-th active coupler in feed order radiates delta * c^(n-1) of the guided
amplitude, so an activation whose active couplers are k_1 < ... < k_n radiates
z = delta phi_(k_1) + c (delta phi_(k_2) + c (... + c delta phi_(k_n))), with
phasors phi_k = conj(h_k) g_k, and f = rho |z|^2. Swept from the far end, the
amplitudes Z_j of the activations that use only couplers j..K-1 obey
Z_j = Z_(j+1) u {delta phi_j} u (delta phi_j + c Z_(j+1)): an active coupler j
is the first active one, and every later one moves down a place. |z|^2 is
convex, so its maximum over a finite set lies on a vertex of the set's convex
hull (Rockafellar, Convex Analysis, sec. 32); an affine image of a hull is the
hull of the image, and the vertices of hull(A u B) are among vert(A) u vert(B)
(de Berg et al., Computational Geometry, ch. 1). Carrying one hull's vertices
from coupler to coupler is therefore exact, and it needs no relaxation,
tolerance or LP.

With the empty activation (the origin) kept in the hull P, each step is a
homothety: t + cP, t = delta phi_j, is P shrunk by c about s = t / (1 - c). If
s lies in P the hull does not change. Otherwise the new hull is the chain of
P that s cannot see, then the image of the chain it sees, joined by the two
tangents from s; the tangent points stay and exactly two vertices are added.
So the hull holds at most 2m + 1 vertices after m couplers, the origin
included, and a slot costs O(K^2) point steps instead of 2^K. `exact_rows`
takes this step for a block of slots at once, one array step per coupler. A
row whose floats are too close to a degenerate case to trust the step (a zero
phasor, a visibility or convexity determinant within 1e-12 relative of zero,
a seen chain in more than one run, a best |z|^2 of zero, a delta so small
that c rounds to 1) is solved by `bnb_optimize`, which carries the hull
without the origin through a monotone chain with exact orientation signs and
so takes any input. `exhaustive_rows` doubles all 2^K amplitudes per coupler.
All three exact solvers key activations alike and pick a winner by `_pick`.

`bnb_optimize` keeps its name from the branch and bound it replaced, so that
the `bnb` activator label, and every output that carries it, stays as it was.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import propagation
from .scenario import Scenario


def __getattr__(name: str):
    # The traced benchmark run wraps SciPy's `linprog` here; load it on first use only.
    if name == "linprog":
        try:
            from scipy.optimize import linprog
        except ImportError as exc:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from exc
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXHAUSTIVE_MAX_K = 20
# Bound on the relative error of a float orientation determinant (Shewchuk's
# errboundA is 3.3e-16). A determinant within it, or below _ORIENT_TINY where
# its products may have underflowed, gets its sign recomputed exactly.
_ORIENT_REL_ERR = 1e-15
_ORIENT_TINY = 1e-290
# A float |z|^2 of K couplers lies within about 4 K^2 ulps of its exact value,
# so two |z|^2 within _TIE_REL * (K^2 + 1) of the larger may be misordered:
# `_pick` ranks such near ties by their exact values.
_TIE_REL = 1e-15
# `exact_rows` sends a row to `bnb_optimize` when one of its float
# determinants lies within this fraction of the sum of its products' sizes.
_BATCH_REL_TOL = 1e-12
# The row solvers take their rows in chunks of at most this many cells, one
# row at least: 2^K amplitudes a row in `exhaustive_rows`, 2K + 2 hull vertices
# in `exact_rows`, K - 1 sets of K couplers in an `islr_rows` walk. A chunk
# peaked near 8, 30 and 8 MB under tracemalloc; in `exact_rows` 90 MB at
# K = 1,024, where a key takes 16 words.
_BLOCK_CELLS = 1 << 18


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
        return cls(propagation.channel(scenario, uav_position_m), *link_constants(scenario))

    @property
    def size(self) -> int:
        return int(self.phasors.size)

    def gain(self, activation) -> float:
        """Combined gain |sum_k conj(h_k) * beta_k * g_k|^2 under the sequential ratios."""
        return combined_gains(self.channel, self.response, activation, self.delta)[0]

    def objective(self, activation) -> float:
        return self.rho * self.gain(activation)


def link_constants(scenario: Scenario) -> tuple[np.ndarray, float, float]:
    """The in-waveguide response, delta and rho that every slot of a scenario shares."""
    phys = scenario.physics
    rho = 1.0 / ((2.0**phys.rate_threshold_bps_hz - 1.0) * phys.noise_power_w)
    return propagation.waveguide_response(scenario), phys.radiation_constant, rho


def combined_gains(channel, response, activations, delta: float) -> list[float]:
    """|sum_k conj(h_k) * beta_k * g_k|^2 for each activation of a stack whose
    last axis runs over couplers, each row under its own channel row.

    Keep the product order: the costed powers, and with them the simulate
    outputs, depend on its rounding in the last bits. For the same reason
    each magnitude is the scalar `np.abs`, which can differ from the array
    one in the last bit; the row sums do not depend on the stacking.
    """
    beta = propagation.radiation_ratios(activations, delta)
    amps = np.sum(np.conj(channel) * beta * response, axis=-1)
    return [float(np.abs(amp) ** 2) for amp in np.atleast_1d(amps)]


def _scaled_phasors(phasors: np.ndarray) -> np.ndarray:
    """Each row of phasors (last axis) over 2^e, e the binary exponent of its
    largest |phi| (none if all are zero), so that the solvers' |z|^2 cannot
    underflow. A power-of-two scale is exact, so it changes no ranking."""
    phasors = np.ascontiguousarray(phasors, dtype=np.complex128)  # `view` needs it
    exponent = np.frexp(np.max(np.abs(phasors), axis=-1, initial=0.0))[1]  # 0 for a zero peak
    return np.ldexp(phasors.view(np.float64), -exponent[..., None]).view(np.complex128)


def _exact_powers(bits, phasors, delta: float) -> list:
    """|z|^2 of each activation of an (N, K) stack in rationals: the solvers'
    sum from the far coupler back, from the same float radiated phasors and c,
    without its rounding. Equal partial sums are carried once, so activations
    that share a tail, or differ only in silent couplers, cost one sum."""
    c = Fraction(math.sqrt(1.0 - delta * delta))
    radiated = (delta * _scaled_phasors(phasors)).tolist()
    sums, ids = [(Fraction(0), Fraction(0))], np.zeros(len(bits), dtype=np.int64)
    for k in reversed(range(len(radiated))):
        steps, inverse = np.unique(2 * ids + bits[:, k], return_inverse=True)
        tx, ty = Fraction(radiated[k].real), Fraction(radiated[k].imag)
        made: dict = {}
        remap = []
        for step in steps.tolist():
            x, y = sums[step >> 1]
            if step & 1:
                x, y = tx + c * x, ty + c * y
            remap.append(made.setdefault((x, y), len(made)))
        sums = list(made)
        ids = np.asarray(remap)[inverse.ravel()]
    powers = [x * x + y * y for x, y in sums]
    return [powers[i] for i in ids.tolist()]


def _pick(bits, power, phasors, delta: float) -> np.ndarray:
    """The winner among candidate (N, K) bitmaps of float |z|^2 `power`: the
    largest, those within rounding of it ranked by `_exact_powers` (so that
    rounding does not pick, say, an extra silent coupler that only shrinks
    the amplitude), then the fewest active couplers, then the smallest bitmap.
    """
    k = bits.shape[1]
    bits = bits[power >= power.max() * (1.0 - _TIE_REL * (k * k + 1))]
    if len(bits) > 1:
        exact = _exact_powers(bits, phasors, delta)
        top = max(exact)
        bits = bits[[e == top for e in exact]]
    return np.asarray(min(bits.tolist(), key=lambda row: (sum(row), row)), dtype=np.int8)


def _pick_rows(power, words, phasors, delta: float) -> np.ndarray:
    """(S, K) int8 winners of rows of candidates, (S, N) float |z|^2 (-1 for
    none) keyed by (S, N, W) `_key_bits` words: the largest |z|^2, or `_pick`
    among a row's near ties."""
    rows, k = phasors.shape
    bits = _key_bits(words[np.arange(rows), np.argmax(power, axis=1)], k)
    near = power >= power.max(axis=1, keepdims=True) * (1.0 - _TIE_REL * (k * k + 1))
    for i in np.flatnonzero(near.sum(axis=1) > 1):
        bits[i] = _pick(_key_bits(words[i, near[i]], k), power[i, near[i]], phasors[i], delta)
    return bits


def _in_chunks(solve, channel, cells: int) -> np.ndarray:
    """`solve` on each chunk of an (S, K) channel block's rows, at most
    `_BLOCK_CELLS` cells at `cells` per row, as one (S, K) int8 block."""
    channel = np.asarray(channel, dtype=np.complex128)
    out = np.empty(channel.shape, dtype=np.int8)
    step = max(1, _BLOCK_CELLS // cells)
    for lo in range(0, len(channel), step):
        out[lo : lo + step] = solve(channel[lo : lo + step])
    return out


def exhaustive_rows(channel, response, delta: float, rho: float) -> np.ndarray:
    """Global argmax over all 2^K activations but the infeasible zero vector,
    for each row of an (S, K) channel block, as (S, K) int8 bitmaps: the
    largest |amplitude|^2 (rho > 0 orders the objective alike), picked by
    `_pick`. The amplitudes are swept from the far coupler with the float
    operations of `bnb_optimize`, so both give an activation the same float
    amplitude, and couplers with equal phasors give exactly tied ones."""
    k = np.shape(channel)[-1]
    if k > EXHAUSTIVE_MAX_K:
        raise ValueError(f"exhaustive search is guarded to K <= {EXHAUSTIVE_MAX_K}, got {k}")
    c = math.sqrt(1.0 - delta * delta)
    index = np.arange(1 << k, dtype=np.uint64)[None, :, None]

    def solve(block):
        phasors = np.conj(block) * response
        radiated = delta * _scaled_phasors(phasors)
        amps = np.zeros((len(block), 1 << k), dtype=complex)
        for j in range(k):  # coupler K-1-j is index bit j: Z u (t + c Z), summed as c Z + t
            amps[:, 1 << j : 2 << j] = c * amps[:, : 1 << j] + radiated[:, k - 1 - j, None]
        power = amps.real**2 + amps.imag**2
        power[:, 0] = -1.0
        return _pick_rows(power, np.broadcast_to(index, power.shape + (1,)), phasors, delta)

    return _in_chunks(solve, channel, 1 << k)


def exhaustive_best(problem: ActivationProblem) -> np.ndarray:
    """`exhaustive_rows` on one slot."""
    return exhaustive_rows(problem.channel[None], problem.response, problem.delta, problem.rho)[0]


# ---------------------------------------------------------------------------
# Exact activation: convex-hull dynamic program
# ---------------------------------------------------------------------------


@dataclass
class BnbTrace:
    """Work counters of one exact solve.

    ``boxes_created`` counts the DP points made, one per coupler for each
    hull vertex carried into it plus that coupler's single-coupler point;
    ``pruned_boxes`` lists the activations of the points that a hull step
    dropped, each as an int whose K-digit binary form is the bitmap in
    coupler order. The names are kept from the branch and bound this DP
    replaced.
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
    """Vertices of the convex hull of (x, y, count, key) points (Andrew's
    monotone chain).

    Coincident points share one float amplitude, so of those only the one
    with the fewest active couplers, then the smallest key, can win a tie; it
    alone is kept. Points on a hull edge go too: |z|^2 is strictly convex, so
    each lies strictly below an end of its edge.
    """
    points.sort()
    uniq = []
    for p in points:
        if uniq and uniq[-1][0] == p[0] and uniq[-1][1] == p[1]:
            if trace is not None:
                trace.pruned_boxes.append(p[3])
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
        kept = {p[3] for p in hull}
        trace.pruned_boxes.extend(p[3] for p in uniq if p[3] not in kept)
    return hull


def bnb_optimize(problem: ActivationProblem, trace: Optional[BnbTrace] = None) -> np.ndarray:
    """Exact argmax of the objective by the convex-hull DP (see the module docstring).

    Returns the activation `exhaustive_best` returns, ties included: the
    points carry the oracle's own float amplitudes, and `_pick` chooses
    among the final hull's vertices as the oracle does among all 2^K - 1
    activations. A point dropped from a hull edge is strictly weaker in
    exact arithmetic, and `_pick` ranks it so even where its float |z|^2
    rounds past the optimum's. Both score the `_scaled_phasors`, so tiny
    phasors do not tie every |z|^2 at an underflowed zero.
    """
    k = problem.size
    c = math.sqrt(1.0 - problem.delta * problem.delta)
    radiated = (problem.delta * _scaled_phasors(problem.phasors)).tolist()
    # hull vertices (x, y, count, key) of the amplitudes of the activations
    # that use only the couplers swept so far; bit K-1-j of key is coupler j,
    # so keys order as bitmaps do. The empty activation seeds each step's
    # single-coupler point but never joins the hull.
    hull: list = []
    for j in reversed(range(k)):
        tx, ty, bit = radiated[j].real, radiated[j].imag, 1 << (k - 1 - j)
        points = [
            (tx + c * x, ty + c * y, n + 1, key | bit) for x, y, n, key in [(0.0, 0.0, 0, 0)] + hull
        ]
        if trace is not None:
            trace.boxes_created += len(points)
        hull = _hull(points + hull, trace)
    power = np.array([x * x + y * y for x, y, _, _ in hull])
    raw = b"".join(p[3].to_bytes((k + 63) // 64 * 8, "big") for p in hull)
    words = np.frombuffer(raw, dtype=">u8").reshape(len(hull), -1)
    return _pick(_key_bits(words, k), power, problem.phasors, problem.delta)


def _key_bits(words, k: int) -> np.ndarray:
    """(N, K) int8 bitmaps of N keys held as (N, W) uint64 words, the most
    significant first: coupler j is bit K-1-j of its key, so keys order as
    bitmaps do."""
    raw = np.ascontiguousarray(words, dtype=">u8").view(np.uint8)
    return np.unpackbits(raw, axis=1)[:, raw.shape[1] * 8 - k :].astype(np.int8)


def _hull_rows(phasors: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The homothety sweep of the module docstring over an (S, K) phasor
    block: (S, K) int8 bitmaps and an (S,) mask of the rows whose bitmap
    cannot be trusted and must be solved by `bnb_optimize`.

    Row i carries the first n[i] columns of its x, y, count and key arrays as
    the counter-clockwise vertices of its hull, the origin included; a key is
    W uint64 words, as `_key_bits` reads them. Images are made with the
    scalar DP's float operations, so an activation has the same float
    amplitude in both, and the winner is picked by `_pick_rows`.
    """
    rows_n, k = phasors.shape
    c = math.sqrt(1.0 - delta * delta)
    if c == 1.0:  # no centre s at a delta below ~1e-8
        return np.zeros((rows_n, k), dtype=np.int8), np.ones(rows_n, dtype=bool)
    radiated = delta * _scaled_phasors(phasors)
    cols = np.arange(2 * k + 2)
    tx, ty = radiated.real, radiated.imag
    flagged = np.any(radiated == 0, axis=1)
    x, y = np.zeros((rows_n, cols.size)), np.zeros((rows_n, cols.size))
    count = np.zeros((rows_n, cols.size), dtype=np.int64)
    key = np.zeros((rows_n, cols.size, (k + 63) // 64), dtype=np.uint64)
    # the far coupler alone: the origin and its image
    x[:, 1], y[:, 1] = tx[:, k - 1] + c * 0.0, ty[:, k - 1] + c * 0.0
    count[:, 1], key[:, 1, -1] = 1, 1
    n = np.full(rows_n, 2)

    def near_zero(left, right):
        return np.abs(left - right) <= _BATCH_REL_TOL * (np.abs(left) + np.abs(right))

    def ring(sizes):
        """Each column's previous and next vertex on hulls of these sizes."""
        last = sizes[:, None] - 1
        return np.where(cols == 0, last, cols - 1), np.where(cols < last, cols + 1, 0)

    offsets = (np.arange(rows_n) * cols.size)[:, None]

    def at(values, index):
        """values[i, index[i, j]]: np.take_along_axis on axis 1, as one flat take."""
        return np.take(values, offsets + index)

    for j in reversed(range(k - 1)):
        live = cols < n[:, None]
        prv, nxt = ring(n)
        # edge i runs from vertex i to the next; s sees it when it lies to its right
        sx, sy = tx[:, j, None] / (1.0 - c), ty[:, j, None] / (1.0 - c)
        left = (at(x, nxt) - x) * (sy - y)
        right = (at(y, nxt) - y) * (sx - x)
        flagged |= np.any(live & near_zero(left, right), axis=1)
        seen = live & (left < right)
        starts = seen & ~at(seen, prv)
        m = seen.sum(axis=1)
        flagged |= starts.sum(axis=1) != (m > 0)  # the seen edges form one run, or none
        grow = (m > 0) & ~flagged
        # new hull: old vertices b..a (the unseen chain), then images of a..b
        a = np.argmax(starts, axis=1)
        split = np.where(grow, n - m + 1, n)[:, None]
        src = np.where(cols < split, (a + m)[:, None] + cols, a[:, None] + cols - split)
        src = offsets + np.where(grow[:, None], src % n[:, None], np.minimum(cols, n[:, None] - 1))
        image = grow[:, None] & (cols >= split)
        x, y = np.take(x, src), np.take(y, src)
        x = np.where(image, tx[:, j, None] + c * x, x)
        y = np.where(image, ty[:, j, None] + c * y, y)
        count = np.take(count, src) + image
        key = np.take(key.reshape(-1, key.shape[2]), src, axis=0)
        word, bit = divmod(k - 1 - j, 64)
        key[:, :, -1 - word] |= np.where(image, np.uint64(1 << bit), np.uint64(0))
        n = np.where(grow, n + 2, n)
        # every corner of a grown hull must turn left, by a clear margin
        live = cols < n[:, None]
        prv, nxt = ring(n)
        left = (x - at(x, prv)) * (at(y, nxt) - y)
        right = (y - at(y, prv)) * (at(x, nxt) - x)
        bent = live & ((left <= right) | near_zero(left, right))
        flagged |= grow & np.any(bent, axis=1)

    power = np.where((cols < n[:, None]) & (count > 0), x * x + y * y, -1.0)
    flagged |= ~(power.max(axis=1) > 0)
    power[flagged] = -1.0  # the fallback solves these rows; `_pick_rows` need not
    return _pick_rows(power, key, phasors, delta), flagged


def exact_rows(channel, response, delta: float, rho: float) -> np.ndarray:
    """Exact activations of an (S, K) channel block, one row per slot, as
    (S, K) int8 bitmaps: row i is `bnb_optimize`'s answer for the slot with
    channel row i and the shared response, delta and rho."""

    def solve(block):
        bits, flagged = _hull_rows(np.conj(block) * response, delta)
        for i in np.flatnonzero(flagged):
            bits[i] = bnb_optimize(ActivationProblem(block[i], response, delta, rho))
        return bits

    return _in_chunks(solve, channel, 2 * np.shape(channel)[-1] + 2)


# ---------------------------------------------------------------------------
# Incremental search with local replacement
# ---------------------------------------------------------------------------


def islr_optimize(problem: ActivationProblem, high_count: Optional[int] = None) -> np.ndarray:
    """Gain-ranked incremental search refined by downsizing/upsizing walks.

    Antennas sorted by free-space gain split into a high-efficiency prefix of
    ``high_count`` entries and a low-efficiency pool. The search runs in three
    phases: it scores the all-on baseline; it scans the gain-ranked prefixes
    of length 1..``high_count`` and keeps the first best; then it alternates a
    downsizing walk (drop the lowest marginal-gain members one by one) and an
    upsizing walk (append pool antennas in gain order) until neither raises
    the objective, for at most 4K rounds. Each walk moves to the last set of
    its strictly rising run. The best set scored anywhere, the first one on
    ties, is returned: the walk's objective only rises, so that is the all-on
    baseline when it scores at least the walk's final set, and the final set
    otherwise; the heuristic never loses to plain full activation. The slot
    is solved as a one-row `islr_rows` block.
    """
    return islr_rows([problem.channel], problem.response, problem.delta, problem.rho, high_count)[0]


def islr_rows(channel, response, delta: float, rho: float,
              high_count: Optional[int] = None) -> np.ndarray:
    """ISLR activations of an (S, K) channel block, one row per slot, as
    (S, K) int8 bitmaps: row i is the ISLR answer for the slot with channel
    row i and the shared response, delta and rho.

    The walks of a chunk of rows run in step. Each walk scores every
    candidate set of every row still moving in one `combined_gains` call on
    the matching channel rows, whose row sums do not depend on the stacking,
    so each slot sees the scores, and takes the walk, that it would take
    alone.
    """
    k = np.shape(channel)[-1]
    if high_count is None:
        high_count = math.ceil(k / 2)
    if not 1 <= high_count <= k:
        raise ValueError("high_count must lie in [1, K]")
    return _in_chunks(lambda block: _islr_chunk(block, response, delta, rho, high_count),
                      channel, k * k)


def _islr_chunk(channel, response, delta: float, rho: float, high_count: int) -> np.ndarray:
    """`islr_rows` on a chunk of rows, each set a (rows, K) bool mask."""
    rows, k = channel.shape
    mags = np.abs(np.conj(channel) * response)
    rank = np.argsort(np.argsort(-mags, axis=1, kind="stable"), axis=1)  # place in gain order
    steps = np.arange(1, k)

    def score(which, sets):
        return rho * np.array(combined_gains(channel[which], response, sets, delta))

    def walk(which, sets, obj, candidates, valid):
        """Score the valid candidates, (n, steps, K) masks, of each row in
        one call and move that row of ``sets`` and ``obj``, in place, to the
        last set of its strictly rising run; return the run lengths."""
        scores = np.full(valid.shape, -np.inf)
        scores[valid] = score(np.repeat(which, valid.sum(axis=1)), candidates[valid])
        path = np.column_stack([obj, scores])
        moved = np.logical_and.accumulate(path[:, 1:] > path[:, :-1], axis=1).sum(axis=1)
        at = np.flatnonzero(moved)
        sets[at], obj[at] = candidates[at, moved[at] - 1], scores[at, moved[at] - 1]
        return moved

    everyone = np.arange(rows)
    baseline = score(everyone, np.ones((rows, k), dtype=bool))
    prefixes = rank[:, None, :] < np.arange(1, high_count + 1)[:, None]
    scores = score(np.repeat(everyone, high_count), prefixes.reshape(-1, k)).reshape(rows, high_count)
    first = np.argmax(scores, axis=1)
    current, obj = prefixes[everyone, first], scores[everyone, first]
    start = np.full(rows, high_count)  # the pool is the couplers ranked start and later

    live = everyone
    for _ in range(4 * k):
        if not live.size:
            break
        sets, best = current[live], obj[live]
        # downsizing: drop the members of least marginal gain, beta_k |phi_k|
        # under the current arrangement with phases ignored, ties by index
        beta = propagation.radiation_ratios(sets, delta)
        place = np.argsort(np.argsort(np.where(sets, beta * mags[live], np.inf), axis=1,
                                      kind="stable"), axis=1)
        drops = sets[:, None, :] & (place[:, None, :] >= steps[:, None])
        dropped = walk(live, sets, best, drops, steps < sets.sum(axis=1)[:, None])
        # upsizing: append the pool's couplers in gain order
        pool_at = rank[live][:, None, :] - start[live][:, None, None]
        adds = sets[:, None, :] | ((pool_at >= 0) & (pool_at < steps[:, None]))
        added = walk(live, sets, best, adds, steps <= k - start[live][:, None])
        current[live], obj[live] = sets, best
        start[live] += added
        live = live[(dropped > 0) | (added > 0)]

    return np.where((baseline >= obj)[:, None], 1, current).astype(np.int8)
