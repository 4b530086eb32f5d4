"""Pollution traces: CSV ingestion, interpolation, synthesis, event injection.

A TraceSet is a dense [rounds, zones, pollutants] array of non-negative
concentrations plus the list of injected events. Hourly traces come from
CSV files or the synthetic generator and carry no events; build_round_trace
interpolates them to the round grid the simulator consumes and applies events.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone

import numpy as np

from .core import (
    N_POLLUTANTS,
    POLLUTANT_INDEX,
    POLLUTANTS,
    Pollutant,
    SimConfig,
    STREAM_EVENTS,
    STREAM_TRACE,
    stream,
)

# Synthetic field shape. Base levels are typical urban concentrations in the
# native unit of each channel; the diurnal swing and noise are relative.
BASE_LEVELS = {
    Pollutant.PM25: 18.0,
    Pollutant.PM10: 32.0,
    Pollutant.CO: 0.7,
    Pollutant.NO2: 24.0,
    Pollutant.O3: 46.0,
    Pollutant.SO2: 9.0,
}
# Peak hour of each channel's daily cycle (traffic vs photochemical timing).
PEAK_HOUR = {
    Pollutant.PM25: 8.0,
    Pollutant.PM10: 9.0,
    Pollutant.CO: 8.0,
    Pollutant.NO2: 7.0,
    Pollutant.O3: 15.0,
    Pollutant.SO2: 11.0,
}
DIURNAL_AMPLITUDE = 0.28   # swing as a fraction of the base level
ZONE_SPREAD = 0.25         # per-zone base level factor in [1-s, 1+s]
OU_SIGMA = 0.04            # stationary std of the slow field noise (relative)
OU_TAU_HOURS = 8.0         # mean-reversion time constant

DEFAULT_EVENT_RATE = 0.4            # events per zone per day
EVENT_DURATION = (4, 16)            # rounds, inclusive bounds
EVENT_MAGNITUDE = (2.0, 5.0)

# Largest trace value accepted: readings, baseline window sums and trend sums
# of such values stay over 200 orders of magnitude below the float maximum.
MAX_TRACE_VALUE = 1e100

CSV_HEADER = ["timestamp", "zone_id", "pollutant", "value"]
TRACE_EPOCH = datetime(2026, 1, 1, 0, 0, 0, tzinfo=timezone.utc)


class TraceError(ValueError):
    pass


@dataclass(frozen=True)
class EventSpec:
    """A pollution episode: values of one channel in one zone are multiplied
    by `magnitude` for rounds in [start_round, end_round)."""

    zone_id: int
    start_round: int
    end_round: int
    pollutant: Pollutant
    magnitude: float

    def __post_init__(self):
        if self.start_round < 0:
            raise TraceError(f"event start_round must be >= 0, got {self.start_round}")
        if self.start_round >= self.end_round:
            raise TraceError(
                f"event window must be non-empty, got [{self.start_round}, {self.end_round})"
            )
        if self.magnitude <= 1.0:
            raise TraceError(f"event magnitude must be > 1, got {self.magnitude}")


@dataclass
class TraceSet:
    values: np.ndarray  # [n_rounds, n_zones, N_POLLUTANTS], non-negative
    zone_ids: tuple[int, ...]
    events: list[EventSpec] = field(default_factory=list)

    @property
    def n_rounds(self) -> int:
        return self.values.shape[0]

    @property
    def n_zones(self) -> int:
        return self.values.shape[1]

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.values, dtype=np.float64).tobytes())
        h.update(repr(self.zone_ids).encode())
        for ev in self.events:
            h.update(
                f"{ev.zone_id},{ev.start_round},{ev.end_round},{ev.pollutant.value},{ev.magnitude!r}".encode()
            )
        return h.hexdigest()


def check_values(values: np.ndarray) -> None:
    if values.ndim != 3 or values.shape[2] != N_POLLUTANTS:
        raise TraceError(f"trace values must be [rounds, zones, {N_POLLUTANTS}], got {values.shape}")
    if not np.isfinite(values).all():
        raise TraceError("trace values must be finite")
    if np.any(values < 0):
        raise TraceError("trace values must be non-negative")
    if np.any(values > MAX_TRACE_VALUE):
        raise TraceError(f"trace values must be at most {MAX_TRACE_VALUE:g}, got {values.max():g}")


# --- CSV ingestion ----------------------------------------------------------


def _parse_timestamp(raw: str, lineno: int) -> datetime:
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        raise TraceError(f"line {lineno}: bad timestamp {raw!r}") from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def load_csv(path: str, expected_zones: int | None = None) -> TraceSet:
    """Read an hourly trace CSV into a TraceSet (one frame per hour).

    The file must cover every (zone, pollutant) pair at every hour, with
    consecutive hourly timestamps. Errors carry line numbers.
    """
    cells: dict[tuple[datetime, int, Pollutant], float] = {}
    zones: set[int] = set()
    hours: set[datetime] = set()
    # every timestamp and label repeats on many rows: parse each distinct
    # string once; a bad one is never stored, so it fails on its first line
    parsed_ts: dict[str, datetime] = {}
    parsed_pol: dict[str, Pollutant] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != CSV_HEADER:
            raise TraceError(f"expected header {','.join(CSV_HEADER)}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 4:
                raise TraceError(f"line {lineno}: expected 4 columns, got {len(row)}")
            ts = parsed_ts.get(row[0])
            if ts is None:
                ts = parsed_ts[row[0]] = _parse_timestamp(row[0], lineno)
            try:
                zone = int(row[1])
            except ValueError:
                raise TraceError(f"line {lineno}: bad zone_id {row[1]!r}") from None
            pol = parsed_pol.get(row[2])
            if pol is None:
                try:
                    pol = parsed_pol[row[2]] = Pollutant.from_label(row[2].strip())
                except ValueError as exc:
                    raise TraceError(f"line {lineno}: {exc}") from None
            try:
                value = float(row[3])
            except ValueError:
                raise TraceError(f"line {lineno}: non-numeric value {row[3]!r}") from None
            if not math.isfinite(value) or value < 0:
                raise TraceError(f"line {lineno}: negative or invalid concentration {row[3]!r}")
            key = (ts, zone, pol)
            if key in cells:
                raise TraceError(f"line {lineno}: duplicate cell for {ts.isoformat()}, zone {zone}, {pol.value}")
            cells[key] = value
            zones.add(zone)
            hours.add(ts)

    if not hours:
        raise TraceError("trace file contains no data rows")
    hour_list = sorted(hours)
    for a, b in zip(hour_list, hour_list[1:]):
        if b - a != timedelta(hours=1):
            raise TraceError(f"timestamps must be consecutive hourly, gap between {a.isoformat()} and {b.isoformat()}")
    zone_list = tuple(sorted(zones))
    if expected_zones is not None and len(zone_list) != expected_zones:
        raise TraceError(f"expected {expected_zones} zones, file has {len(zone_list)}")

    values = np.empty((len(hour_list), len(zone_list), N_POLLUTANTS), dtype=np.float64)
    for hi, ts in enumerate(hour_list):
        for zi, zone in enumerate(zone_list):
            for pol in POLLUTANTS:
                key = (ts, zone, pol)
                if key not in cells:
                    raise TraceError(
                        f"missing cell for timestamp {ts.isoformat()}, zone {zone}, pollutant {pol.value}"
                    )
                values[hi, zi, POLLUTANT_INDEX[pol]] = cells[key]
    return TraceSet(values=values, zone_ids=zone_list)


def write_csv(traces: TraceSet, path: str) -> None:
    """Write an hourly TraceSet in the load_csv schema (one row per cell, a value as its repr, no field
    quoted), an hour's cells in zone then pollutant (POLLUTANT_INDEX) order, its timestamp formatted once."""
    frames = traces.values.reshape(traces.n_rounds, -1).tolist()
    labels = [f",{zone},{pol.value}," for zone in traces.zone_ids for pol in POLLUTANTS]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for hi, frame in enumerate(frames):
            ts = (TRACE_EPOCH + timedelta(hours=hi)).strftime("%Y-%m-%dT%H:%M:%SZ")
            fh.write("".join([f"{ts}{label}{value!r}\n" for label, value in zip(labels, frame)]))


# --- interpolation ----------------------------------------------------------


def interpolate(hourly: TraceSet, round_minutes: int) -> TraceSet:
    """Linearly interpolate an hourly trace onto the round grid.

    Produces (H - 1) * (60 / round_minutes) + 1 frames; frames that fall on
    hour marks carry the hourly values bit for bit.
    """
    if hourly.n_rounds < 2:
        raise TraceError("interpolation needs at least two hourly frames")
    if round_minutes < 1 or 60 % round_minutes != 0:
        raise TraceError(f"round_minutes must divide 60, got {round_minutes}")
    factor = 60 // round_minutes
    n_hours = hourly.n_rounds
    n_out = (n_hours - 1) * factor + 1
    out = np.empty((n_out, hourly.n_zones, N_POLLUTANTS), dtype=np.float64)
    out[::factor] = hourly.values
    for j in range(1, factor):
        w = j / factor
        out[j::factor] = hourly.values[:-1] * (1.0 - w) + hourly.values[1:] * w
    return TraceSet(values=out, zone_ids=hourly.zone_ids)


def fit_rounds(traces: TraceSet, rounds: int) -> TraceSet:
    """Trim a round-level trace to exactly `rounds` frames (interpolating a
    whole number of hours usually yields one extra frame)."""
    if traces.n_rounds < rounds:
        raise TraceError(f"trace has {traces.n_rounds} rounds, need {rounds}")
    if traces.n_rounds == rounds:
        return traces
    return TraceSet(values=traces.values[:rounds], zone_ids=traces.zone_ids)


# --- synthesis --------------------------------------------------------------


def hours_needed(cfg: SimConfig) -> int:
    """Smallest hourly frame count whose interpolation covers cfg.rounds."""
    factor = 60 // cfg.round_minutes
    if cfg.rounds <= 1:
        return 2
    return math.ceil((cfg.rounds - 1) / factor) + 1


def generate_synthetic(cfg: SimConfig, rng_seed: int | None = None) -> TraceSet:
    """Synthesize an hourly trace: diurnal sinusoid with a zone-specific
    phase plus slow mean-reverting noise, clipped at zero."""
    seed = cfg.seed if rng_seed is None else rng_seed
    rng = stream(seed, STREAM_TRACE)
    n_hours = hours_needed(cfg)
    n_zones = cfg.n_zones

    zone_phase = rng.uniform(0.0, 24.0, size=n_zones)
    base_factor = 1.0 + ZONE_SPREAD * rng.uniform(-1.0, 1.0, size=(n_zones, N_POLLUTANTS))
    noise = rng.standard_normal(size=(n_hours, n_zones, N_POLLUTANTS))

    base = np.array([BASE_LEVELS[p] for p in POLLUTANTS]) * base_factor  # [Z, P]
    peak = np.array([PEAK_HOUR[p] for p in POLLUTANTS])

    hours = np.arange(n_hours, dtype=np.float64)
    # phase angle per (hour, zone, pollutant); sin peaks at the channel's peak hour
    angle = (
        2.0 * np.pi
        * (hours[:, None, None] - peak[None, None, :] - zone_phase[None, :, None])
        / 24.0
    )
    diurnal = 1.0 + DIURNAL_AMPLITUDE * np.cos(angle)

    rho = math.exp(-1.0 / OU_TAU_HOURS)
    innovation = math.sqrt(1.0 - rho * rho) * OU_SIGMA
    ou = np.empty_like(noise)
    ou[0] = OU_SIGMA * noise[0]
    for h in range(1, n_hours):
        ou[h] = rho * ou[h - 1] + innovation * noise[h]

    values = np.maximum(0.0, base[None, :, :] * (diurnal + ou))
    return TraceSet(values=values, zone_ids=tuple(range(n_zones)))


# --- event injection ---------------------------------------------------------


def draw_events(
    n_rounds: int,
    n_zones: int,
    rounds_per_day: int,
    rate_per_zone_day: float = DEFAULT_EVENT_RATE,
    rng_seed: int = 0,
) -> list[EventSpec]:
    """Draw pollution episodes with memoryless arrivals per zone.

    Overlapping episodes on the same (zone, pollutant) are merged into one
    event spanning the union window with the larger magnitude.
    """
    if rate_per_zone_day < 0:
        raise TraceError(f"event rate must be >= 0, got {rate_per_zone_day}")
    rng = stream(rng_seed, STREAM_EVENTS)
    per_round_rate = rate_per_zone_day / rounds_per_day
    lo_d, hi_d = EVENT_DURATION
    lo_m, hi_m = EVENT_MAGNITUDE
    raw: list[EventSpec] = []
    if per_round_rate > 0:
        for zone in range(n_zones):
            t = rng.exponential(1.0 / per_round_rate)
            while t < n_rounds:
                start = int(t)
                duration = int(rng.integers(lo_d, hi_d + 1))
                end = min(start + duration, n_rounds)
                pol = POLLUTANTS[int(rng.integers(0, N_POLLUTANTS))]
                mag = float(rng.uniform(lo_m, hi_m))
                if end > start:
                    raw.append(EventSpec(zone, start, end, pol, mag))
                t += rng.exponential(1.0 / per_round_rate)
    return merge_events(raw)


def merge_events(events: list[EventSpec]) -> list[EventSpec]:
    """Merge overlapping windows on the same (zone, pollutant): union window,
    max magnitude. Events on different channels are left alone."""
    by_channel: dict[tuple[int, Pollutant], list[EventSpec]] = {}
    for ev in events:
        by_channel.setdefault((ev.zone_id, ev.pollutant), []).append(ev)
    merged: list[EventSpec] = []
    for (zone, pol), group in by_channel.items():
        group.sort(key=lambda e: (e.start_round, e.end_round))
        cur = group[0]
        for nxt in group[1:]:
            if nxt.start_round < cur.end_round:
                cur = EventSpec(
                    zone,
                    cur.start_round,
                    max(cur.end_round, nxt.end_round),
                    pol,
                    max(cur.magnitude, nxt.magnitude),
                )
            else:
                merged.append(cur)
                cur = nxt
        merged.append(cur)
    merged.sort(key=lambda e: (e.start_round, e.zone_id, e.pollutant.value))
    return merged


def apply_events(traces: TraceSet, events: list[EventSpec]) -> TraceSet:
    """Return a new TraceSet with event multipliers applied to the values.

    Where windows overlap on the same channel the larger multiplier wins,
    so stacking never compounds.
    """
    mult = np.ones_like(traces.values)
    zone_index = {z: i for i, z in enumerate(traces.zone_ids)}
    for ev in events:
        if ev.end_round > traces.n_rounds:
            raise TraceError(
                f"event window [{ev.start_round}, {ev.end_round}) exceeds trace length {traces.n_rounds}"
            )
        zi = zone_index[ev.zone_id]
        pi = POLLUTANT_INDEX[ev.pollutant]
        window = mult[ev.start_round : ev.end_round, zi, pi]
        np.maximum(window, ev.magnitude, out=window)
    with np.errstate(over="ignore"):  # an overflow to inf is rejected by check_values
        values = traces.values * mult
    return TraceSet(
        values=values,
        zone_ids=traces.zone_ids,
        events=list(traces.events) + list(events),
    )


# --- event CSV ----------------------------------------------------------------

EVENT_HEADER = ["zone_id", "start_round", "end_round", "pollutant", "magnitude"]


def write_events_csv(events: list[EventSpec], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EVENT_HEADER)
        for ev in events:
            writer.writerow([ev.zone_id, ev.start_round, ev.end_round, ev.pollutant.value, repr(ev.magnitude)])


def load_events_csv(path: str) -> list[EventSpec]:
    events = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != EVENT_HEADER:
            raise TraceError(f"expected header {','.join(EVENT_HEADER)}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                events.append(
                    EventSpec(int(row[0]), int(row[1]), int(row[2]), Pollutant.from_label(row[3]), float(row[4]))
                )
            except (ValueError, IndexError) as exc:
                raise TraceError(f"line {lineno}: bad event row: {exc}") from None
    return events


def build_round_trace(
    cfg: SimConfig,
    hourly: TraceSet,
    events: list[EventSpec] | None = None,
) -> TraceSet:
    """Interpolate an hourly trace to the round grid, trim to cfg.rounds,
    then apply the given events (already expressed in rounds).

    The result is positional, as the engine requires: zone ids become
    0..Z-1 in the hourly trace's zone order, and events are relabelled to
    match. An event on a zone the trace lacks raises TraceError, and so
    does an hourly trace that carries events (their windows would be
    read in hours on the round grid).
    """
    if hourly.events:
        raise TraceError("hourly traces carry no events; pass them to build_round_trace in rounds")
    position = {z: i for i, z in enumerate(hourly.zone_ids)}
    events = list(events or [])
    unknown = sorted({ev.zone_id for ev in events} - position.keys())
    if unknown:
        raise TraceError(f"events name zone ids the trace lacks: {unknown}")

    rounds = fit_rounds(interpolate(hourly, cfg.round_minutes), cfg.rounds)
    rounds = TraceSet(values=rounds.values, zone_ids=tuple(range(rounds.n_zones)))
    return apply_events(rounds, [replace(ev, zone_id=position[ev.zone_id]) for ev in events]) if events else rounds
