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


def normalize_max(values: np.ndarray) -> np.ndarray:
    """Scale non-negative values by the maximum so the largest maps to 1: a
    vector by its maximum, an array column by column along axis 0. An
    all-zero vector or column normalizes to all zeros."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return values.copy()
    if values.ndim < 2:
        top = values.max()
        return values / top if top > 0 else np.zeros_like(values)
    top = values.max(axis=0, keepdims=True)
    out = np.zeros(values.shape)
    np.divide(values, top, out=out, where=top > 0)
    return out


def scalarize(per_pollutant: np.ndarray) -> np.ndarray:
    """Collapse per-pollutant columns to one scalar per zone: a [zones,
    pollutants] matrix to [zones], or a stack [zones, k, pollutants] of k
    such matrices to [zones, k] in one pass.

    Each pollutant column is max-normalized across zones first, so channels
    measured in large units cannot drown out the others, then averaged.
    """
    per_pollutant = np.asarray(per_pollutant, dtype=np.float64)
    if per_pollutant.ndim not in (2, 3):
        raise ValueError(f"expected [zones, pollutants] or [zones, k, pollutants], got shape {per_pollutant.shape}")
    # the mean over the last axis, spelled out: np.mean's wrapper costs more than the sum
    return np.add.reduce(normalize_max(per_pollutant), axis=-1) / per_pollutant.shape[-1]


def zone_interest_weights(trend_magnitude: np.ndarray, recent_level: np.ndarray) -> np.ndarray:
    """Interest weight per zone: 1 + t + l, where t and l are the per-zone
    trend magnitude and recent level, each max-normalized to [0, 1] across
    zones. Inputs are per-zone scalars."""
    t = normalize_max(np.abs(np.asarray(trend_magnitude, dtype=np.float64)))
    l = normalize_max(np.asarray(recent_level, dtype=np.float64))
    return 1.0 + t + l


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
    if w.min() < 0:
        raise ValueError("weights must be non-negative")
    total = float(w.sum())
    if total <= 0.0:
        log.warning("all zone weights are zero; splitting budget equally")
        return np.full(w.size, global_budget / w.size)
    return global_budget * (w / total)
