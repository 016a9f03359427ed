"""Free-space channels, in-waveguide phase response, and radiation ratios.

Everything here is a pure function of immutable inputs, at complex128
precision. In-waveguide propagation is lossless: only phase is modeled.
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import Scenario

MIN_DISTANCE_M = 1e-6


class DegenerateGeometryError(ValueError):
    """UAV sits on (or numerically at) an antenna position."""


def pa_distances(scenario: Scenario, uav_position_m) -> np.ndarray:
    """Euclidean distance from the UAV to each coupler, shape (K,)."""
    pos = np.asarray(uav_position_m, dtype=float)
    return np.linalg.norm(scenario.waveguide.pa_positions() - pos[None, :], axis=1)


def channel(scenario: Scenario, uav_position_m) -> np.ndarray:
    """Per-antenna free-space gains sqrt(eta) * exp(-j*2*pi*d/lambda) / d.

    eta = lambda^2 / (16 pi^2), so a single entry has magnitude
    (lambda / 4 pi) / d: amplitude halves when distance doubles.
    """
    d = pa_distances(scenario, uav_position_m)
    if np.any(d < MIN_DISTANCE_M):
        raise DegenerateGeometryError(
            "UAV within %g m of an antenna (min distance %.3g m)" % (MIN_DISTANCE_M, d.min())
        )
    lam = scenario.physics.wavelength_m
    amp = math.sqrt(lam * lam / (16.0 * math.pi**2))
    return amp * np.exp(-2j * math.pi * d / lam) / d


def waveguide_response(scenario: Scenario) -> np.ndarray:
    """Unit phasors exp(-j*2*pi*|x0 - xk| / lambda_g) for the guided path to each coupler."""
    wg = scenario.waveguide
    path = np.abs(np.asarray(wg.pa_x_m, dtype=float) - wg.feed_x_m)
    return np.exp(-2j * math.pi * path / scenario.physics.guided_wavelength_m)


def as_activation(bits) -> np.ndarray:
    """Normalize an activation vector to an int8 0/1 array."""
    arr = np.asarray(bits)
    out = (arr != 0).astype(np.int8)
    return out


def radiation_ratios(activation, delta: float) -> np.ndarray:
    """Amplitude ratios of a sequential coupling chain, in waveguide (feed) order.

    The i-th activated coupler radiates delta * sqrt(1 - delta^2)^(i-1) of the
    guided amplitude; deactivated entries contribute a unit factor and radiate
    nothing. Consequently sum(beta^2) = 1 - (1 - delta^2)^K_a. The last axis
    runs over couplers, so a stack of activation vectors gives a stack of ratios.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    a = as_activation(activation)
    # exponent = number of activated couplers strictly before each position
    upstream = np.cumsum(a, axis=-1) - a
    return a * delta * np.sqrt(1.0 - delta * delta) ** upstream
