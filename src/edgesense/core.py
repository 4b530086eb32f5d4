"""Shared vocabulary for the sensor-network simulator.

Pollutant labels, the simulation configuration with its validator, the
column-oriented fleet and the deterministic random streams live here.
Everything downstream (trace synthesis, policies, the engine) imports
these types rather than redefining them.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

import numpy as np


class Pollutant(str, enum.Enum):
    """The six monitored pollutant channels. Values are the CSV labels."""

    PM25 = "PM25"
    PM10 = "PM10"
    CO = "CO"
    NO2 = "NO2"
    O3 = "O3"
    SO2 = "SO2"

    @classmethod
    def from_label(cls, label: str) -> "Pollutant":
        try:
            return cls(label)
        except ValueError:
            valid = ", ".join(p.value for p in cls)
            raise ValueError(f"unknown pollutant label {label!r} (expected one of: {valid})") from None


POLLUTANTS: tuple[Pollutant, ...] = tuple(Pollutant)
N_POLLUTANTS = len(POLLUTANTS)
POLLUTANT_INDEX = {p: i for i, p in enumerate(POLLUTANTS)}

MINUTES_PER_DAY = 1440
MINUTES_PER_HOUR = 60  # rounds subdivide the hourly trace, so they divide the hour
# Reading noise is relative to the true value (engine.sensor_reading). Past
# 1 it outweighs the signal, and a huge sigma overflows the readings, so
# every feedback turns NaN and the tables come out wrong without an error.
MAX_NOISE_SIGMA = 1.0
# The bandit ranks by (mean + ucb_c * sqrt(2 ln t / count)) / cost
# (policy.ucb_scores), with the mean in [0, 1] and sqrt(2 ln t) < 10 for any
# t < 2**63. These bounds keep that index below 1e14 mAh^-1. Past them the
# multiply or the divide overflows to inf, and inf ties rank by node id.
MIN_ENERGY_COST = 1e-6  # mAh per activation
MAX_UCB_C = 1e6
# A fleet's budget is a share of its summed costs, which must stay finite.
MAX_ENERGY_COST = 1e6  # mAh per activation
# Rewards weigh information in [0, 1] against costs up to MAX_ENERGY_COST,
# and a round sums them over its selection, so the weights are bounded too.
MAX_REWARD_WEIGHT = 1e6
# The periodic schedule's phase arithmetic runs in int64.
MAX_PERIODIC_PERIOD = 2 ** 63 - 1


@dataclass
class SimConfig:
    n_zones: int = 20
    nodes_per_zone: int = 50
    rounds: int = 2880
    round_minutes: int = 15
    budget_fraction: float = 0.65
    eta: float = 0.1
    alpha: float = 1.0
    beta: float = 0.5
    ucb_c: float = 1.0
    score_floor: float = 0.12
    detect_threshold: float = 0.5
    periodic_period: int = 5
    periodic_duty: int = 4
    battery_capacity: float = 21600.0
    noise_sigma: float = 0.05
    seed: int = 1
    energy_cost_range: tuple[float, float] = (0.75, 1.75)
    hierarchy: bool = True

    @property
    def rounds_per_day(self) -> int:
        return MINUTES_PER_DAY // self.round_minutes

    @property
    def n_nodes(self) -> int:
        return self.n_zones * self.nodes_per_zone

    def replace(self, **kwargs) -> "SimConfig":
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["energy_cost_range"] = list(self.energy_cost_range)
        return d


class ConfigError(ValueError):
    """Raised for invalid configuration. Carries every violation, not just the first."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def validate_config(cfg: SimConfig) -> list[str]:
    """Return a list of violation messages, one per bad field. Empty means valid."""
    problems = []
    if cfg.n_zones < 1:
        problems.append(f"n_zones must be >= 1, got {cfg.n_zones}")
    if cfg.nodes_per_zone < 1:
        problems.append(f"nodes_per_zone must be >= 1, got {cfg.nodes_per_zone}")
    if cfg.rounds < 0:
        problems.append(f"rounds must be >= 0, got {cfg.rounds}")
    if cfg.round_minutes < 1 or MINUTES_PER_HOUR % cfg.round_minutes != 0:
        problems.append(
            f"round_minutes must be a positive divisor of {MINUTES_PER_HOUR}, got {cfg.round_minutes}"
        )
    if not (0.0 < cfg.budget_fraction <= 1.0):
        problems.append(f"budget_fraction must be in (0, 1], got {cfg.budget_fraction}")
    if not (0.0 < cfg.eta < 1.0):
        problems.append(f"eta must be in (0, 1), got {cfg.eta}")
    for name in ("alpha", "beta"):
        weight = getattr(cfg, name)
        if not 0.0 <= weight <= MAX_REWARD_WEIGHT:
            problems.append(f"{name} must be in [0, {MAX_REWARD_WEIGHT:g}], got {weight}")
    if not 0.0 <= cfg.ucb_c <= MAX_UCB_C:
        problems.append(f"ucb_c must be in [0, {MAX_UCB_C:g}], got {cfg.ucb_c}")
    if not cfg.score_floor >= 0:  # NaN too
        problems.append(f"score_floor must be >= 0, got {cfg.score_floor}")
    if not (0.0 < cfg.detect_threshold < 1.0):
        problems.append(f"detect_threshold must be in (0, 1), got {cfg.detect_threshold}")
    if not 1 <= cfg.periodic_period <= MAX_PERIODIC_PERIOD:
        problems.append(f"periodic_period must be in [1, 2**63 - 1], got {cfg.periodic_period}")
    if not (0 <= cfg.periodic_duty <= cfg.periodic_period):
        problems.append(
            f"periodic_duty must be in [0, periodic_period], got {cfg.periodic_duty}"
        )
    if not cfg.battery_capacity > 0:  # NaN too
        problems.append(f"battery_capacity must be > 0, got {cfg.battery_capacity}")
    if not 0.0 <= cfg.noise_sigma <= MAX_NOISE_SIGMA:
        problems.append(f"noise_sigma must be in [0, {MAX_NOISE_SIGMA:g}], got {cfg.noise_sigma}")
    lo, hi = cfg.energy_cost_range
    if not (MIN_ENERGY_COST <= lo <= hi <= MAX_ENERGY_COST):
        problems.append(f"energy_cost_range must satisfy {MIN_ENERGY_COST:g} <= lo <= hi <= {MAX_ENERGY_COST:g}, "
                        f"got ({lo}, {hi})")
    problem = seed_problem(cfg.seed)
    if problem:
        problems.append(problem)
    return problems


def seed_problem(seed: int, name: str = "seed") -> str | None:
    """The violation message for a seed outside [0, 2**64), else None. A
    seed keys its random streams as one 64-bit word, so a wider one would
    silently alias a seed inside the range."""
    if 0 <= seed < 2 ** 64:
        return None
    return f"{name} must be in [0, 2**64), got {seed}"


def require_valid(cfg: SimConfig) -> SimConfig:
    problems = validate_config(cfg)
    if problems:
        raise ConfigError(problems)
    return cfg


# --- configuration files -------------------------------------------------
#
# Flat key=value text, one pair per line, '#' starts a comment. Keys match
# SimConfig field names. energy_cost_range is written "lo,hi".

_BOOL_WORDS = {"on": True, "true": True, "1": True, "yes": True,
               "off": False, "false": False, "0": False, "no": False}


def _coerce(name: str, raw: str):
    ftypes = {f.name: f.type for f in dataclasses.fields(SimConfig)}
    t = ftypes[name]
    raw = raw.strip()
    if name == "energy_cost_range":
        parts = [p for p in raw.replace("(", "").replace(")", "").split(",") if p.strip()]
        if len(parts) != 2:
            raise ValueError(f"{name} expects two comma-separated numbers, got {raw!r}")
        return (float(parts[0]), float(parts[1]))
    if t == "bool":
        word = raw.lower()
        if word not in _BOOL_WORDS:
            raise ValueError(f"{name} expects on/off, got {raw!r}")
        return _BOOL_WORDS[word]
    if t == "int":
        return int(raw)
    if t == "float":
        return float(raw)
    return raw


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse key=value lines into a coerced mapping. Unknown keys are collected and rejected."""
    known = {f.name for f in dataclasses.fields(SimConfig)}
    values: dict = {}
    problems: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            problems.append(f"{source}:{lineno}: expected key=value, got {line.strip()!r}")
            continue
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in known:
            problems.append(f"{source}:{lineno}: unknown config key {key!r}")
            continue
        try:
            values[key] = _coerce(key, raw)
        except ValueError as exc:
            problems.append(f"{source}:{lineno}: {exc}")
    if problems:
        raise ConfigError(problems)
    return values


def load_config(path: str | None = None, overrides: dict | None = None) -> SimConfig:
    """Build a validated SimConfig from an optional file plus override mapping."""
    values: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            values.update(parse_config_text(fh.read(), source=str(path)))
    if overrides:
        values.update(overrides)
    cfg = SimConfig(**values)
    return require_valid(cfg)


def parse_override(item: str) -> tuple[str, object]:
    """Parse one --set KEY=VALUE argument into a coerced (key, value) pair."""
    if "=" not in item:
        raise ConfigError([f"override {item!r} is not of the form key=value"])
    key, _, raw = item.partition("=")
    key = key.strip()
    known = {f.name for f in dataclasses.fields(SimConfig)}
    if key not in known:
        raise ConfigError([f"unknown config key {key!r}"])
    try:
        return key, _coerce(key, raw)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from None


# --- fleet ----------------------------------------------------------------


@dataclass
class Fleet:
    """Column-oriented view of the whole fleet; node_id doubles as the row index."""

    zone_id: np.ndarray      # int32, n_nodes
    energy_cost: np.ndarray  # float64, n_nodes

    @property
    def n_nodes(self) -> int:
        return len(self.energy_cost)


def fleet_zones(cfg: SimConfig) -> np.ndarray:
    """Each node's zone: nodes_per_zone nodes to a zone, in zone order (int32)."""
    return np.repeat(np.arange(cfg.n_zones, dtype=np.int32), cfg.nodes_per_zone)


def build_fleet(cfg: SimConfig, seed: int | None = None) -> Fleet:
    """Draw per-node energy costs uniformly from cfg.energy_cost_range."""
    seed = cfg.seed if seed is None else seed
    rng = stream(seed, STREAM_FLEET)
    lo, hi = cfg.energy_cost_range
    costs = rng.uniform(lo, hi, size=cfg.n_nodes)
    return Fleet(zone_id=fleet_zones(cfg), energy_cost=costs)


# --- deterministic random streams ------------------------------------------
#
# Counter-based streams: each (seed, purpose) pair owns an independent
# Philox stream, so adding a policy or reordering evaluation cannot perturb
# draws consumed elsewhere.

STREAM_FLEET = 1
STREAM_TRACE = 2
STREAM_EVENTS = 3
STREAM_READING = 4


def stream(seed: int, purpose: int) -> np.random.Generator:
    key = [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(purpose)]
    return np.random.Generator(np.random.Philox(key=key))  # the counter starts at 0
