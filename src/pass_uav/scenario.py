"""Delivery problem instances: data model, seeded generation, JSON (de)serialization.

All values are SI internally (meters, seconds, watts, Hz). Scenario files store
the noise power in dBm and convert to watts once at parse time. Instances are
immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT = 299792458.0

# Delivery space of the reference setup: nodes land in [0,100] x [0,100] x [2.5,7.5].
SPACE_X = (0.0, 100.0)
SPACE_Y = (0.0, 100.0)
SPACE_Z = (2.5, 7.5)
TASK_CHOICES = (1, 2, 3, 4, 5)
# Largest coordinate magnitude a scenario may hold, in meters: the squared
# distance between any two points, at most 3 * (2e150)**2, stays a finite float.
MAX_COORDINATE_M = 1e150


class ScenarioError(ValueError):
    """Invalid scenario data: a named invariant or schema field is violated."""


def _require_finite(obj, names) -> None:
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ScenarioError(f"{name} must be finite")


def _within_bounds(coordinates) -> bool:
    """Every coordinate finite and within ±MAX_COORDINATE_M (NaN fails the test)."""
    return all(abs(v) <= MAX_COORDINATE_M for v in coordinates)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts: float) -> float:
    return 10.0 * math.log10(watts) + 30.0


@dataclass(frozen=True)
class PhysicsConfig:
    """Carrier, noise and waveguide-coupling constants.

    ``wavelength_m``, ``guided_wavelength_m`` and ``noise_power_w`` are derived
    in ``__post_init__``; construct with the independent fields only.
    """

    carrier_frequency_hz: float = 15e9
    noise_power_dbm: float = -90.0
    refraction_index: float = 1.4
    rate_threshold_bps_hz: float = 5.0
    radiation_constant: float = 0.30
    wavelength_m: float = field(init=False)
    guided_wavelength_m: float = field(init=False)
    noise_power_w: float = field(init=False)

    def __post_init__(self):
        _require_finite(self, (
            "carrier_frequency_hz", "noise_power_dbm", "refraction_index",
            "rate_threshold_bps_hz", "radiation_constant",
        ))
        if self.carrier_frequency_hz <= 0:
            raise ScenarioError("carrier_frequency_hz must be positive")
        if self.refraction_index <= 0:
            raise ScenarioError("refraction_index must be positive")
        if not 0.0 < self.radiation_constant < 1.0:
            raise ScenarioError("radiation_constant must lie in (0, 1)")
        if self.rate_threshold_bps_hz <= 0:
            raise ScenarioError("rate_threshold_bps_hz must be positive")
        # the power law scales with 2^R, which must stay a finite float
        if self.rate_threshold_bps_hz >= sys.float_info.max_exp:
            raise ScenarioError(
                f"rate_threshold_bps_hz must lie below {sys.float_info.max_exp}"
            )
        object.__setattr__(self, "wavelength_m", SPEED_OF_LIGHT / self.carrier_frequency_hz)
        object.__setattr__(self, "guided_wavelength_m", self.wavelength_m / self.refraction_index)
        object.__setattr__(self, "noise_power_w", dbm_to_watts(self.noise_power_dbm))
        if self.noise_power_w <= 0:
            raise ScenarioError("noise power must be positive")


@dataclass(frozen=True)
class WaveguideConfig:
    """Waveguide line geometry and the predefined coupler positions along it."""

    y_m: float
    z_m: float
    span_m: float
    feed_x_m: float
    pa_x_m: tuple[float, ...]
    min_spacing_m: float

    def __post_init__(self):
        object.__setattr__(self, "pa_x_m", tuple(float(x) for x in self.pa_x_m))
        _require_finite(self, ("y_m", "z_m", "span_m", "feed_x_m", "min_spacing_m"))
        xs = self.pa_x_m
        if not xs:
            raise ScenarioError("pa_x_m must contain at least one position")
        if not _within_bounds((self.y_m, self.z_m, self.feed_x_m, *xs)):
            raise ScenarioError(
                f"y_m, z_m, feed_x_m and pa_x_m must lie within ±{MAX_COORDINATE_M:g} m"
            )
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ScenarioError("pa_x_m must be strictly increasing")
        if xs[0] < 0.0 or xs[-1] > self.span_m:
            raise ScenarioError("pa_x_m entries must lie within [0, span_m]")
        # The coupling chain runs in array order, so the feed must come first.
        if self.feed_x_m > xs[0]:
            raise ScenarioError("feed_x_m must lie at or before the first coupler, pa_x_m[0]")
        if self.min_spacing_m <= 0:
            raise ScenarioError("min_spacing_m must be positive")
        gaps = [b - a for a, b in zip(xs, xs[1:])]
        # Mutual-coupling guard: couplers may not sit closer than the configured gap.
        if gaps and min(gaps) < self.min_spacing_m - 1e-9:
            raise ScenarioError(
                "pa_x_m pairwise gap %.6g is below min_spacing_m %.6g"
                % (min(gaps), self.min_spacing_m)
            )

    @property
    def pa_count(self) -> int:
        return len(self.pa_x_m)

    def pa_positions(self) -> np.ndarray:
        """(K, 3) array of coupler positions in space."""
        xs = np.asarray(self.pa_x_m, dtype=float)
        out = np.empty((xs.size, 3))
        out[:, 0] = xs
        out[:, 1] = self.y_m
        out[:, 2] = self.z_m
        return out


@dataclass(frozen=True)
class DeliveryNode:
    position_m: tuple[float, float, float]
    task_count: int

    def __post_init__(self):
        object.__setattr__(self, "position_m", tuple(float(v) for v in self.position_m))
        if len(self.position_m) != 3 or not _within_bounds(self.position_m):
            raise ScenarioError(f"node position must be a 3-vector within ±{MAX_COORDINATE_M:g} m")
        if not isinstance(self.task_count, int) or self.task_count < 1:
            raise ScenarioError("task_count must be an integer >= 1")


@dataclass(frozen=True)
class Scenario:
    physics: PhysicsConfig
    waveguide: WaveguideConfig
    station_m: tuple[float, float, float]
    nodes: tuple[DeliveryNode, ...]
    flight_speed_mps: float
    delivery_speed_tps: float
    slot_seconds: float
    rng_seed: int

    def __post_init__(self):
        object.__setattr__(self, "station_m", tuple(float(v) for v in self.station_m))
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if len(self.station_m) != 3 or not _within_bounds(self.station_m):
            raise ScenarioError(
                f"station position must be a 3-vector within ±{MAX_COORDINATE_M:g} m"
            )
        if not self.nodes:
            raise ScenarioError("scenario needs at least one delivery node")
        _require_finite(self, ("flight_speed_mps", "delivery_speed_tps", "slot_seconds"))
        if self.flight_speed_mps <= 0:
            raise ScenarioError("flight_speed_mps must be positive")
        if self.delivery_speed_tps <= 0:
            raise ScenarioError("delivery_speed_tps must be positive")
        if self.slot_seconds <= 0:
            raise ScenarioError("slot_seconds must be positive")
        # Every UAV position lies on a segment between the station and nodes, so the
        # diagonal of the box around them, the feed and the couplers bounds
        # every channel distance and guided path d. The phase 2*pi*d/lambda
        # over it, with a factor 2 to spare for rounding, must stay finite.
        wg = self.waveguide
        points = np.vstack([
            self.station_m, self.node_positions(), wg.pa_positions(), (wg.feed_x_m, wg.y_m, wg.z_m)
        ])
        diagonal = math.hypot(*np.ptp(points, axis=0))
        shortest = min(self.physics.wavelength_m, self.physics.guided_wavelength_m)
        if not 4.0 * math.pi * diagonal < shortest * sys.float_info.max:
            raise ScenarioError(
                "carrier_frequency_hz and refraction_index are too high for the scenario's"
                " extent: the phase 2*pi*d/lambda would overflow"
            )

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def node_positions(self) -> np.ndarray:
        """(M, 3) array of delivery node positions."""
        return np.array([n.position_m for n in self.nodes], dtype=float)


def _streams(seed: int) -> dict[str, np.random.Generator]:
    """Named PCG64 child streams so each concern draws independently."""
    root = np.random.SeedSequence(seed)
    names = ("positions", "tasks", "ga")
    children = root.spawn(len(names))
    return {name: np.random.Generator(np.random.PCG64(ss)) for name, ss in zip(names, children)}


def rng_stream(seed: int, name: str) -> np.random.Generator:
    """Stream for one concern ('positions', 'tasks', 'ga') of a seeded instance."""
    return _streams(seed)[name]


def generate_scenario(
    seed: int,
    node_count: int,
    pa_count: int = 10,
    physics_overrides: dict | None = None,
    flight_speed_mps: float = 5.0,
    delivery_speed_tps: float = 0.5,
    slot_seconds: float = 1.0,
) -> Scenario:
    """Build a reproducible random instance on the reference geometry.

    Node positions are uniform over the delivery space, task counts uniform
    over {1..5}; the station sits at the origin and the couplers are evenly
    spaced along a 100 m waveguide at y=0, z=5. Equal seeds give bit-identical
    scenarios.
    """
    if node_count < 1:
        raise ScenarioError("node_count must be >= 1")
    if pa_count < 1:
        raise ScenarioError("pa_count must be >= 1")
    streams = _streams(seed)
    pos_rng = streams["positions"]
    task_rng = streams["tasks"]

    xs = pos_rng.uniform(*SPACE_X, size=node_count)
    ys = pos_rng.uniform(*SPACE_Y, size=node_count)
    zs = pos_rng.uniform(*SPACE_Z, size=node_count)
    tasks = task_rng.integers(TASK_CHOICES[0], TASK_CHOICES[-1] + 1, size=node_count)

    nodes = tuple(
        DeliveryNode(position_m=(float(x), float(y), float(z)), task_count=int(t))
        for x, y, z, t in zip(xs, ys, zs, tasks)
    )

    span = 100.0
    spacing = span / pa_count
    # Centered placement: spacing/2, 3*spacing/2, ... keeps uniform coverage of the span.
    pa_x = tuple((k + 0.5) * spacing for k in range(pa_count))

    physics = PhysicsConfig(**(physics_overrides or {}))
    waveguide = WaveguideConfig(
        y_m=0.0, z_m=5.0, span_m=span, feed_x_m=0.0, pa_x_m=pa_x, min_spacing_m=spacing
    )
    return Scenario(
        physics=physics,
        waveguide=waveguide,
        station_m=(0.0, 0.0, 0.0),
        nodes=nodes,
        flight_speed_mps=flight_speed_mps,
        delivery_speed_tps=delivery_speed_tps,
        slot_seconds=slot_seconds,
        rng_seed=seed,
    )


def scenario_to_dict(s: Scenario) -> dict:
    """JSON-ready dict; lengths in meters, noise power in dBm, frequencies in Hz."""
    return {
        "physics": {
            "carrier_frequency_hz": s.physics.carrier_frequency_hz,
            "noise_power_dbm": s.physics.noise_power_dbm,
            "refraction_index": s.physics.refraction_index,
            "rate_threshold_bps_hz": s.physics.rate_threshold_bps_hz,
            "radiation_constant": s.physics.radiation_constant,
        },
        "waveguide": {
            "y_m": s.waveguide.y_m,
            "z_m": s.waveguide.z_m,
            "span_m": s.waveguide.span_m,
            "feed_x_m": s.waveguide.feed_x_m,
            "pa_x_m": list(s.waveguide.pa_x_m),
            "min_spacing_m": s.waveguide.min_spacing_m,
        },
        "station": list(s.station_m),
        "nodes": [
            {"position_m": list(n.position_m), "task_count": n.task_count} for n in s.nodes
        ],
        "speeds": {
            "flight_mps": s.flight_speed_mps,
            "delivery_tps": s.delivery_speed_tps,
        },
        "slot_seconds": s.slot_seconds,
        "seed": s.rng_seed,
    }


def scenario_to_json(s: Scenario) -> str:
    return json.dumps(scenario_to_dict(s), indent=2, sort_keys=True)


def save_scenario(s: Scenario, path: str | Path) -> None:
    Path(path).write_text(scenario_to_json(s) + "\n")


def _require(mapping, key: str, where: str):
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{where} must be a JSON object")
    if key not in mapping:
        raise ScenarioError(f"scenario file is missing field '{key}' in {where}")
    return mapping[key]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _float(value, key: str, where: str) -> float:
    try:
        return float(value)
    except OverflowError:  # a JSON integer literal beyond the float range
        raise ScenarioError(f"field '{key}' in {where} is too large for a float") from None


def _number(mapping: dict, key: str, where: str) -> float:
    value = _require(mapping, key, where)
    if not _is_number(value):
        raise ScenarioError(f"field '{key}' in {where} must be a number")
    return _float(value, key, where)


def _numbers(mapping: dict, key: str, where: str) -> tuple[float, ...]:
    value = _require(mapping, key, where)
    if not isinstance(value, list) or not all(_is_number(v) for v in value):
        raise ScenarioError(f"field '{key}' in {where} must be a list of numbers")
    return tuple(_float(v, key, where) for v in value)


def _integer(mapping: dict, key: str, where: str) -> int:
    value = _require(mapping, key, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"field '{key}' in {where} must be an integer")
    return value


def scenario_from_dict(data: dict) -> Scenario:
    physics_raw = _require(data, "physics", "top level")
    waveguide_raw = _require(data, "waveguide", "top level")
    speeds_raw = _require(data, "speeds", "top level")
    nodes_raw = _require(data, "nodes", "top level")
    if not isinstance(nodes_raw, list):
        raise ScenarioError("field 'nodes' in top level must be a list")

    physics = PhysicsConfig(
        carrier_frequency_hz=_number(physics_raw, "carrier_frequency_hz", "physics"),
        noise_power_dbm=_number(physics_raw, "noise_power_dbm", "physics"),
        refraction_index=_number(physics_raw, "refraction_index", "physics"),
        rate_threshold_bps_hz=_number(physics_raw, "rate_threshold_bps_hz", "physics"),
        radiation_constant=_number(physics_raw, "radiation_constant", "physics"),
    )
    waveguide = WaveguideConfig(
        y_m=_number(waveguide_raw, "y_m", "waveguide"),
        z_m=_number(waveguide_raw, "z_m", "waveguide"),
        span_m=_number(waveguide_raw, "span_m", "waveguide"),
        feed_x_m=_number(waveguide_raw, "feed_x_m", "waveguide"),
        pa_x_m=_numbers(waveguide_raw, "pa_x_m", "waveguide"),
        min_spacing_m=_number(waveguide_raw, "min_spacing_m", "waveguide"),
    )
    nodes = [
        DeliveryNode(
            position_m=_numbers(raw, "position_m", f"nodes[{i}]"),
            task_count=_integer(raw, "task_count", f"nodes[{i}]"),
        )
        for i, raw in enumerate(nodes_raw)
    ]
    return Scenario(
        physics=physics,
        waveguide=waveguide,
        station_m=_numbers(data, "station", "top level"),
        nodes=tuple(nodes),
        flight_speed_mps=_number(speeds_raw, "flight_mps", "speeds"),
        delivery_speed_tps=_number(speeds_raw, "delivery_tps", "speeds"),
        slot_seconds=_number(data, "slot_seconds", "top level"),
        rng_seed=_integer(data, "seed", "top level"),
    )


def load_scenario(path: str | Path) -> Scenario:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"cannot parse scenario file {path}: line {exc.lineno}: {exc.msg}")
    return scenario_from_dict(data)
