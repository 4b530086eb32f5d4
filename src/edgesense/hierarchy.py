"""Two-stage coordination: zone interest weights and budget allocation.

Each round the coordinator scores every zone from its observed context
(how high recent levels are, how fast they are moving) and splits the
global activation budget across zones in proportion. Selection inside a
zone stays local to that zone's candidates.
"""

from __future__ import annotations

import logging

import numpy as np

log = logging.getLogger("edgesense.hierarchy")

DEFAULT_TREND_GAIN = 1.0   # lambda: weight on normalized trend magnitude
DEFAULT_LEVEL_GAIN = 1.0   # mu: weight on normalized recent level


def normalize_max(values: np.ndarray) -> np.ndarray:
    """Scale non-negative values by the maximum so the largest maps to 1.
    An all-zero column normalizes to all zeros."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return values.copy()
    top = values.max(axis=0, keepdims=True) if values.ndim > 1 else values.max()
    out = np.zeros_like(values)
    np.divide(values, top, out=out, where=top > 0)
    return out


def scalarize(per_pollutant: np.ndarray) -> np.ndarray:
    """Collapse a [zones, pollutants] matrix to one scalar per zone.

    Each pollutant column is max-normalized across zones first, so channels
    measured in large units cannot drown out the others, then averaged.
    """
    per_pollutant = np.asarray(per_pollutant, dtype=np.float64)
    if per_pollutant.ndim != 2:
        raise ValueError(f"expected [zones, pollutants], got shape {per_pollutant.shape}")
    return normalize_max(per_pollutant).mean(axis=1)


def zone_interest_weights(
    trend_magnitude: np.ndarray,
    recent_level: np.ndarray,
    trend_gain: float = DEFAULT_TREND_GAIN,
    level_gain: float = DEFAULT_LEVEL_GAIN,
) -> np.ndarray:
    """Interest weight per zone: 1 + trend_gain * t + level_gain * l, where
    t and l are the per-zone trend magnitude and recent level, each
    max-normalized to [0, 1] across zones. Inputs are per-zone scalars."""
    t = normalize_max(np.abs(np.asarray(trend_magnitude, dtype=np.float64)))
    l = normalize_max(np.asarray(recent_level, dtype=np.float64))
    return 1.0 + trend_gain * t + level_gain * l


def allocate_budgets(global_budget: float, weights) -> np.ndarray:
    """Split the global budget across zones proportionally to weight; returns
    one budget per zone, in weight order.

    All-zero weights fall back to an equal split (with a warning), so the
    budget is always fully assigned.
    """
    if global_budget < 0:
        raise ValueError(f"global_budget must be >= 0, got {global_budget}")
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-d sequence")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total = float(w.sum())
    if total <= 0.0:
        log.warning("all zone weights are zero; splitting budget equally")
        return np.full(w.size, global_budget / w.size)
    return global_budget * (w / total)
