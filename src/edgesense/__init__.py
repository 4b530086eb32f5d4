"""edgesense: trace-driven simulation of sensor activation policies.

A fleet of battery-powered air quality sensors is split into zones. Every
round each policy decides which sensors wake up, pays their energy cost,
and scores the information their readings carry. The package compares an
always-on baseline, a duty cycle, a UCB bandit, and an adaptive
utility-per-energy policy on energy use, event detection, and projected
network lifetime.
"""

__version__ = "0.1.0"

from .core import (
    ConfigError,
    Pollutant,
    SimConfig,
    build_fleet,
    load_config,
)
from .engine import RunResult, run_simulation
from .metrics import Comparison, RunMetrics, compare, compute_run_metrics
from .policy import PolicyKind, SelectionResult
from .trace import EventSpec, TraceError, TraceSet, generate_synthetic, inject_events

__all__ = [
    "__version__",
    "ConfigError",
    "Pollutant",
    "SimConfig",
    "build_fleet",
    "load_config",
    "RunResult",
    "run_simulation",
    "Comparison",
    "RunMetrics",
    "compare",
    "compute_run_metrics",
    "PolicyKind",
    "SelectionResult",
    "EventSpec",
    "TraceError",
    "TraceSet",
    "generate_synthetic",
    "inject_events",
]
