"""Energy-aware UAV delivery over a waveguide-fed pinching-antenna system.

Outer layer: delivery-sequence planning (GA exploration with exact DP window
refinement) on a cost matrix, the pairwise flight distances by default. Inner
layer: per-slot antenna activation (an exact convex-hull dynamic program and a
ranked-search heuristic) minimizing communication energy under a minimum rate
constraint.
"""

from .scenario import (
    DeliveryNode,
    PhysicsConfig,
    Scenario,
    ScenarioError,
    WaveguideConfig,
    generate_scenario,
    load_scenario,
    save_scenario,
)
from .route_planner import GaConfig, HaoConfig, Tour
from .link_budget import EnergyReport, InfeasibleSlotError, SlotPlan
from .harness import DloOutput, MimoConfig, StrategySpec, run_dlo, sweep

__all__ = [
    "DeliveryNode",
    "DloOutput",
    "EnergyReport",
    "GaConfig",
    "HaoConfig",
    "InfeasibleSlotError",
    "MimoConfig",
    "PhysicsConfig",
    "Scenario",
    "ScenarioError",
    "SlotPlan",
    "StrategySpec",
    "Tour",
    "WaveguideConfig",
    "generate_scenario",
    "load_scenario",
    "run_dlo",
    "save_scenario",
    "sweep",
]

__version__ = "0.1.0"
