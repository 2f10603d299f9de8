"""Alarm limits and alarm-sequence extraction from measurement traces.

A measurement alarms when its reading stays strictly beyond the high limit
(mean + kappa * std) or below the low limit (mean - kappa * std) for a
configurable persistence time.  High alarms of measurement ``m`` map to
symbol ``m``, low alarms to symbol ``m + n_measurements``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .documents import (
    FORMAT_VERSION,
    check_int,
    check_number,
    is_finite_array,
    is_int,
    is_int_array,
    read_jsonl,
    read_text,
    require,
    write_jsonl,
)
from .errors import DomainError, SchemaError
from .hmm import as_symbols

HIGH = "high"
LOW = "low"
DEFAULT_KAPPA = 3.0        # alarm-limit multiplier
DEFAULT_PERSIST_T = 300.0  # persistence time, seconds

#: the most measurements whose successor-pair keys a * M + b (M = 2 n symbols) fit int64
MAX_MEASUREMENTS = 1_518_500_249


@dataclass(frozen=True)
class AlarmSymbolCodebook:
    """Bijection between (measurement, direction) pairs and symbol indices."""

    n_measurements: int

    def __post_init__(self):
        check_int(self.n_measurements, "n_measurements", 1, MAX_MEASUREMENTS)

    @property
    def n_symbols(self) -> int:
        return 2 * self.n_measurements

    def encode(self, measurement: int, direction: str) -> int:
        check_int(measurement, "measurement index", 0, self.n_measurements - 1)
        if direction == HIGH:
            return measurement
        if direction == LOW:
            return measurement + self.n_measurements
        raise DomainError(f"direction must be '{HIGH}' or '{LOW}', got {direction!r}")

    def decode(self, symbol: int) -> tuple[int, str]:
        as_symbols([symbol], self.n_symbols)
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
        check_number(self.sample_period, "sample_period", 0, strict=True)
        self.sample_period = float(self.sample_period)
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
        check_number(self.kappa, "kappa", 0)
        if (self.std <= 0).any():
            bad = [self.meas_ids[i] for i in np.flatnonzero(self.std <= 0)]
            raise DomainError(f"zero or negative standard deviation for: {', '.join(bad)}")

    @property
    def high(self) -> np.ndarray:
        return self.mean + self.kappa * self.std

    @property
    def low(self) -> np.ndarray:
        return self.mean - self.kappa * self.std


@dataclass
class AlarmSequence:
    """Ordered alarm activations for one scenario, and its root-cause fault if known.

    Construction checks that the symbols are integers and that ``fault`` is
    ``None`` or a non-negative integer.  A record's lengths, order, repeats and
    alphabet are the reader's to check: :func:`sequence_from_dict`."""

    symbols: list[int]
    times: list[float]
    fault: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.symbols = as_symbols(self.symbols).tolist()
        self.times = [float(t) for t in self.times]
        if self.fault is not None:
            check_int(self.fault, "fault label", 0)

    def __len__(self) -> int:
        return len(self.symbols)


def fit_limits(normal_traces: list[MeasurementTrace], kappa: float = DEFAULT_KAPPA) -> AlarmLimits:
    """Estimate per-measurement mean and standard deviation at normal
    operation, pooling the samples of all traces; limits are mean +/- kappa*std.
    """
    if not normal_traces:
        raise DomainError("fit_limits requires at least one normal-operation trace")
    ids = normal_traces[0].meas_ids
    for trace in normal_traces[1:]:
        if trace.meas_ids != ids:
            raise DomainError("all normal traces must share the same measurement ids")
    check_number(kappa, "kappa", 0)
    pooled = np.concatenate([trace.values for trace in normal_traces], axis=0)
    if pooled.shape[0] < 2:
        raise DomainError("fit_limits needs at least two pooled samples per measurement")
    with np.errstate(over="ignore", invalid="ignore"):  # huge readings overflow the std
        mean = pooled.mean(axis=0)
        std = pooled.std(axis=0)
    for bad, problem in ((~np.isfinite(mean + std), "mean or variance overflows"),
                         (std <= 0, "zero variance")):
        if bad.any():
            names = ", ".join(ids[i] for i in np.flatnonzero(bad))
            raise DomainError(f"{problem} at normal operation for: {names}")
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
    persist_t: float = DEFAULT_PERSIST_T,
) -> AlarmSequence:
    """Extract the ordered alarm-symbol sequence of a trace.

    For each (measurement, direction) the earliest maximal excursion that
    stays strictly beyond the limit for at least ``persist_t`` seconds
    produces one symbol, stamped with the excursion start time.  Emissions
    are sorted by activation time, ties by ascending symbol index.
    """
    check_number(persist_t, "persist_t", 0)
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


def _measurement_ids(path, header: list[str]) -> list[str]:
    """The measurement ids a trace header names after its ``time`` column."""
    if not header or header[0] != "time":
        raise SchemaError(f"{path}: first column must be 'time'")
    meas_ids = header[1:]
    if not meas_ids:
        raise SchemaError(f"{path}: no measurement columns")
    first = {}
    for column, meas_id in enumerate(meas_ids, start=2):
        if not meas_id:
            raise SchemaError(f"{path}: measurement id {meas_id!r} in column {column} is empty")
        if first.setdefault(meas_id, column) < column:
            raise SchemaError(f"{path}: measurement id {meas_id!r} in column {column} "
                              f"repeats column {first[meas_id]}")
    return meas_ids


def _plain_trace(path, text: str):
    """``(meas_ids, times, values)`` of a plain trace text, read in one
    :func:`numpy.loadtxt` call.

    Plain means: at least two data lines, none blank (``loadtxt`` skips
    them) and none beyond the csv field limit; a header with no ``"`` and
    no CR before its end; no ASCII separator control ``\\x1c``-``\\x1f``
    (``loadtxt`` strips them from a field's edge, ``float`` does not); and
    rows ``loadtxt`` reads, of the header's width, with finite time stamps.
    Any other text gives ``None``, and :func:`_csv_trace` reads it.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if (len(lines) < 3 or "" in lines or "\r" in lines
            or max(map(len, lines)) > csv.field_size_limit()
            or any(control in text for control in "\x1c\x1d\x1e\x1f")):
        return None
    header = lines[0].removesuffix("\r")
    if '"' in header or "\r" in header:
        return None
    meas_ids = _measurement_ids(path, header.split(","))
    try:  # comments=None: '#' starts no comment; a quote or stray CR raises
        table = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != len(meas_ids) + 1 or not np.isfinite(table[:, 0]).all():
        return None
    return meas_ids, table[:, 0], table[:, 1:]


def _csv_trace(path, text: str):
    """``(meas_ids, times, values)`` of a trace text read line by line by the csv
    module; the first bad line raises a SchemaError that names ``path:line``."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty trace file")
        meas_ids = _measurement_ids(path, header)
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
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: malformed CSV ({exc})") from None
    return meas_ids, np.array(times), np.array(rows)


def read_trace_csv(path) -> MeasurementTrace:
    """Read a ``time,<meas_id>...`` CSV with uniformly spaced time stamps.

    A plain file is read in one :func:`numpy.loadtxt` call (see
    :func:`_plain_trace`); any other goes through the csv module line by
    line.  Both give the same values, or the same error, for every text.
    """
    text = read_text(path, SchemaError)
    meas_ids, times, values = _plain_trace(path, text) or _csv_trace(path, text)
    if len(times) < 2:
        raise SchemaError(f"{path}: need at least two samples to infer the sample period")
    with np.errstate(over="ignore", invalid="ignore"):  # gaps between huge time stamps
        diffs = np.diff(times)
        period = float(np.median(diffs))
    # Extraction stamps sample i at i * period, counted from the first sample.
    if not math.isfinite((len(times) - 1) * period):
        raise SchemaError(
            f"{path}:{len(times) + 1}: sample period {period!r} puts the last sample time "
            "beyond the float range"
        )
    if period <= 0 or not np.allclose(diffs, period, rtol=1e-6, atol=1e-9):
        raise SchemaError(f"{path}: time stamps are not uniformly spaced")
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, column = bad[0]
        raise SchemaError(f"{path}:{row + 2}: reading {float(values[row, column])!r} "
                          f"in column {meas_ids[column]!r} is not finite")
    return MeasurementTrace(sample_period=period, values=values, meas_ids=meas_ids)


def write_trace_csv(path, trace: MeasurementTrace) -> None:
    """Write ``trace`` as the csv module writes it, one CRLF line per sample,
    stamping sample ``i`` at ``i * sample_period``."""
    period = trace.sample_period
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(["time", *trace.meas_ids])
        handle.writelines(",".join([repr(i * period), *map(repr, row.tolist())]) + "\r\n"
                          for i, row in enumerate(trace.values))


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

    Nothing is coerced.  Beyond what :class:`AlarmSequence` checks, symbols
    and times must be equally many, the symbols pairwise distinct and in the
    alphabet of ``meta.n_measurements`` if declared, the times non-decreasing."""
    fault = require(payload, "fault", lambda value: value is None or is_int(value),
                    "an integer or null")
    symbols = require(payload, "symbols", is_int_array, "an array of integers")
    times = require(payload, "times", is_finite_array, "an array of finite numbers")
    meta = require(payload, "meta", lambda value: isinstance(value, dict), "an object")
    if meta.get("format_version", FORMAT_VERSION) != FORMAT_VERSION:
        raise SchemaError(f"meta format_version must be {FORMAT_VERSION!r}")
    size = meta.get("n_measurements")
    try:
        n_symbols = None if size is None else AlarmSymbolCodebook(size).n_symbols
        sequence = AlarmSequence(symbols=symbols, times=times, fault=fault, meta=meta)
    except DomainError as exc:
        raise SchemaError(str(exc)) from None
    if len(symbols) != len(times):
        raise SchemaError("symbols and activation times differ in length")
    if len(set(symbols)) != len(symbols):
        raise SchemaError("alarm symbols must be pairwise distinct")
    if any(b < a for a, b in zip(times, times[1:])):
        raise SchemaError("activation times must be non-decreasing")
    as_symbols(sequence, n_symbols)
    return sequence


def write_sequences_jsonl(path, sequences: list[AlarmSequence]) -> None:
    write_jsonl(path, map(sequence_to_dict, sequences))


def read_sequences_jsonl(path, labeled: bool = False) -> list[AlarmSequence]:
    """The floods of a JSON Lines file; with ``labeled``, a record whose fault is
    null fails with ``no fault label``, named by its ``<path>:<line>``."""

    def build(record) -> AlarmSequence:
        sequence = sequence_from_dict(record)
        if labeled and sequence.fault is None:
            raise DomainError("no fault label")
        return sequence

    return read_jsonl(path, build)
