"""Alarm limits and alarm-sequence extraction from measurement traces.

A measurement alarms when its reading stays strictly beyond the high limit
(mean + kappa * std) or below the low limit (mean - kappa * std) for a
configurable persistence time.  High alarms of measurement ``m`` map to
symbol ``m``, low alarms to symbol ``m + n_measurements``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .documents import (
    FORMAT_VERSION,
    is_finite_array,
    is_finite_number,
    is_int,
    is_int_array,
    open_text,
    read_jsonl,
    require,
    write_jsonl,
)
from .errors import DomainError, SchemaError

HIGH = "high"
LOW = "low"


@dataclass(frozen=True)
class AlarmSymbolCodebook:
    """Bijection between (measurement, direction) pairs and symbol indices."""

    n_measurements: int

    def __post_init__(self):
        if self.n_measurements < 1:
            raise DomainError("codebook needs at least one measurement")

    @property
    def n_symbols(self) -> int:
        return 2 * self.n_measurements

    def encode(self, measurement: int, direction: str) -> int:
        if not 0 <= measurement < self.n_measurements:
            raise DomainError(f"measurement index {measurement} out of range")
        if direction == HIGH:
            return measurement
        if direction == LOW:
            return measurement + self.n_measurements
        raise DomainError(f"direction must be '{HIGH}' or '{LOW}', got {direction!r}")

    def decode(self, symbol: int) -> tuple[int, str]:
        if not 0 <= symbol < self.n_symbols:
            raise DomainError(f"symbol {symbol} out of range for {self.n_symbols} symbols")
        if symbol < self.n_measurements:
            return symbol, HIGH
        return symbol - self.n_measurements, LOW


@dataclass
class MeasurementTrace:
    """Uniformly sampled multivariate measurement readings."""

    sample_period: float
    values: np.ndarray  # (T_samples, M_meas)
    meas_ids: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.sample_period <= 0:
            raise DomainError("sample_period must be positive")
        if self.values.ndim != 2 or self.values.shape[0] < 1:
            raise DomainError("trace values must be a (samples, measurements) matrix")
        if not np.isfinite(self.values).all():
            raise DomainError("trace contains non-finite values")
        if len(self.meas_ids) != self.values.shape[1]:
            raise DomainError("meas_ids length does not match the value columns")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_measurements(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class AlarmLimits:
    """Per-measurement normal-operation moments and the alarm multiplier."""

    mean: np.ndarray
    std: np.ndarray
    kappa: float
    meas_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=float))
        if not (is_finite_number(self.kappa) and self.kappa >= 0):
            raise DomainError(f"kappa must be finite and non-negative, got {self.kappa!r}")
        if (self.std <= 0).any():
            bad = [self.meas_ids[i] for i in np.flatnonzero(self.std <= 0)]
            raise DomainError(f"zero or negative standard deviation for: {', '.join(bad)}")

    @property
    def high(self) -> np.ndarray:
        return self.mean + self.kappa * self.std

    @property
    def low(self) -> np.ndarray:
        return self.mean - self.kappa * self.std

    @property
    def n_measurements(self) -> int:
        return self.mean.shape[0]


@dataclass
class AlarmSequence:
    """Ordered, deduplicated alarm activations for one scenario."""

    symbols: list[int]
    times: list[float]
    fault: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.symbols = [int(s) for s in self.symbols]
        self.times = [float(t) for t in self.times]

    def __len__(self) -> int:
        return len(self.symbols)

    def validate(self, n_symbols: int | None = None) -> "AlarmSequence":
        if len(self.symbols) != len(self.times):
            raise DomainError("symbols and activation times differ in length")
        if len(set(self.symbols)) != len(self.symbols):
            raise DomainError("alarm symbols must be pairwise distinct")
        if any(b < a for a, b in zip(self.times, self.times[1:])):
            raise DomainError("activation times must be non-decreasing")
        if n_symbols is not None:
            bad = [s for s in self.symbols if not 0 <= s < n_symbols]
            if bad:
                raise DomainError(f"symbol {bad[0]} outside [0, {n_symbols})")
        return self


def fit_limits(normal_traces: list[MeasurementTrace], kappa: float = 3.0) -> AlarmLimits:
    """Estimate per-measurement mean and standard deviation at normal
    operation, pooling the samples of all traces; limits are mean +/- kappa*std.
    """
    if not normal_traces:
        raise DomainError("fit_limits requires at least one normal-operation trace")
    ids = normal_traces[0].meas_ids
    for trace in normal_traces[1:]:
        if trace.meas_ids != ids:
            raise DomainError("all normal traces must share the same measurement ids")
    pooled = np.concatenate([trace.values for trace in normal_traces], axis=0)
    if pooled.shape[0] < 2:
        raise DomainError("fit_limits needs at least two pooled samples per measurement")
    mean = pooled.mean(axis=0)
    std = pooled.std(axis=0)
    zero = np.flatnonzero(std <= 0)
    if zero.size:
        names = ", ".join(ids[i] for i in zero)
        raise DomainError(f"zero variance at normal operation for: {names}")
    return AlarmLimits(mean=mean, std=std, kappa=float(kappa), meas_ids=tuple(ids))


def _required_samples(persist_t: float, sample_period: float, n_samples: int) -> int:
    # n samples cover n * sample_period seconds; a single sample qualifies
    # whenever persist_t is at most one period, and no window of
    # n_samples + 1 samples fits in the trace.
    return max(1, math.ceil(min(persist_t / sample_period - 1e-12, n_samples + 1)))


def extract_sequence(
    trace: MeasurementTrace,
    limits: AlarmLimits,
    codebook: AlarmSymbolCodebook,
    persist_t: float = 300.0,
) -> AlarmSequence:
    """Extract the ordered alarm-symbol sequence of a trace.

    For each (measurement, direction) the earliest maximal excursion that
    stays strictly beyond the limit for at least ``persist_t`` seconds
    produces one symbol, stamped with the excursion start time.  Emissions
    are sorted by activation time, ties by ascending symbol index.
    """
    if not (is_finite_number(persist_t) and persist_t >= 0):
        raise DomainError(f"persist_t must be finite and non-negative, got {persist_t!r}")
    if trace.n_measurements != codebook.n_measurements:
        raise DomainError(
            f"trace has {trace.n_measurements} measurements, codebook expects "
            f"{codebook.n_measurements}"
        )
    for column, (got, expected) in enumerate(zip_longest(trace.meas_ids, limits.meas_ids)):
        if got != expected:
            raise DomainError(f"trace measurement {column + 1} is {got!r}, "
                              f"the limits were fitted on {expected!r}")

    # Column s is symbol s: the high alarms of every measurement, then the lows.
    beyond = np.hstack([trace.values > limits.high, trace.values < limits.low])
    window = _required_samples(persist_t, trace.sample_period, trace.n_samples)
    counts = np.zeros((trace.n_samples + 1, beyond.shape[1]), dtype=np.int64)
    np.cumsum(beyond, axis=0, out=counts[1:])
    # full[t, s]: samples t .. t + window - 1 all lie beyond limit s.  A
    # column's first full window starts its earliest long-enough excursion.
    full = counts[window:] - counts[:-window] == window
    fired, starts = np.nonzero(full.T)
    symbols, first = np.unique(fired, return_index=True)
    times = starts[first] * trace.sample_period
    order = np.lexsort((symbols, times))
    return AlarmSequence(symbols=symbols[order].tolist(), times=times[order].tolist())


def read_trace_csv(path) -> MeasurementTrace:
    """Read a ``time,<meas_id>...`` CSV with uniformly spaced time stamps."""
    reader = csv.reader(open_text(path, SchemaError, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty trace file") from None
    if not header or header[0] != "time":
        raise SchemaError(f"{path}: first column must be 'time'")
    meas_ids = header[1:]
    if not meas_ids:
        raise SchemaError(f"{path}: no measurement columns")
    times, rows = [], []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise SchemaError(f"{path}:{lineno}: expected {len(header)} fields")
        try:
            times.append(float(row[0]))
            rows.append([float(v) for v in row[1:]])
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: non-numeric value ({exc})") from None
        if not math.isfinite(times[-1]):
            raise SchemaError(f"{path}:{lineno}: time stamp {row[0]!r} is not finite")
    if len(rows) < 2:
        raise SchemaError(f"{path}: need at least two samples to infer the sample period")
    with np.errstate(over="ignore", invalid="ignore"):  # gaps between huge time stamps
        diffs = np.diff(times)
        period = float(np.median(diffs))
    # Extraction stamps sample i at i * period, counted from the first sample.
    if not math.isfinite((len(rows) - 1) * period):
        raise SchemaError(
            f"{path}:{len(rows) + 1}: sample period {period!r} puts the last sample time "
            "beyond the float range"
        )
    if period <= 0 or not np.allclose(diffs, period, rtol=1e-6, atol=1e-9):
        raise SchemaError(f"{path}: time stamps are not uniformly spaced")
    values = np.asarray(rows)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, column = bad[0]
        raise SchemaError(f"{path}:{row + 2}: reading {float(values[row, column])!r} "
                          f"in column {meas_ids[column]!r} is not finite")
    return MeasurementTrace(sample_period=period, values=values, meas_ids=meas_ids)


def write_trace_csv(path, trace: MeasurementTrace) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time"] + list(trace.meas_ids))
        for i, row in enumerate(trace.values):
            writer.writerow([repr(i * trace.sample_period)] + [repr(float(v)) for v in row])


def sequence_to_dict(sequence: AlarmSequence) -> dict:
    meta = dict(sequence.meta)
    meta.setdefault("format_version", FORMAT_VERSION)
    return {
        "fault": sequence.fault,
        "symbols": list(sequence.symbols),
        "times": list(sequence.times),
        "meta": meta,
    }


def sequence_from_dict(payload: dict) -> AlarmSequence:
    """Check one JSONL record against the sequence schema and build it.

    Nothing is coerced, and the result satisfies :meth:`AlarmSequence.validate`.
    """
    fault = require(payload, "fault", lambda value: value is None or is_int(value),
                    "an integer or null")
    symbols = require(payload, "symbols", is_int_array, "an array of integers")
    times = require(payload, "times", is_finite_array, "an array of finite numbers")
    meta = require(payload, "meta", lambda value: isinstance(value, dict), "an object")
    size = meta.get("n_measurements")
    if size is not None and not (is_int(size) and size >= 1):
        raise SchemaError("meta n_measurements must be a positive integer")
    if meta.get("format_version", FORMAT_VERSION) != FORMAT_VERSION:
        raise SchemaError(f"meta format_version must be {FORMAT_VERSION!r}")
    sequence = AlarmSequence(symbols=symbols, times=times, fault=fault, meta=meta)
    try:
        return sequence.validate()
    except DomainError as exc:
        raise SchemaError(str(exc)) from None


def write_sequences_jsonl(path, sequences: list[AlarmSequence]) -> None:
    write_jsonl(path, map(sequence_to_dict, sequences))


def read_sequences_jsonl(path) -> list[AlarmSequence]:
    return read_jsonl(path, sequence_from_dict)
