"""Synthetic fault-propagation scenario generator.

Stands in for a dynamic plant simulator: every fault owns an ordered list
of propagation stages (alarm symbols with nominal onset delays), and a
scenario draws per-symbol onset jitter, optional symbol drops and adjacent
swaps from a single seed.  Fault magnitude controls how deep into the
propagation path a scenario gets, so sequence order and length both vary
across replicates, while everything stays a pure function of (graph,
scenario spec).  A flood draws its variates as three arrays (jitters,
drops, swaps) over its graph's flat per-fault arrays, in the order of a
loop of one scalar draw per symbol and per pair, and so with its doubles.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .alarms import HIGH, MAX_MEASUREMENTS, AlarmSequence, AlarmSymbolCodebook, MeasurementTrace
from .documents import (
    FORMAT_VERSION,
    check_int,
    check_number,
    check_version,
    is_array,
    is_finite_array,
    is_finite_number,
    is_int,
    is_int_array,
    load_document,
    require,
    save_document,
)
from .errors import DomainError, SchemaError, located

DEFAULT_MAGNITUDE_RANGE = (0.2, 1.0)
DEFAULT_SWAP_PROB = 0.02
DEFAULT_DROP_PROB = 0.08

#: sample period of the simulated measurement traces, in seconds
TRACE_SAMPLE_PERIOD_S = 10.0
#: how long a fault trace runs on after its last alarm onset, in seconds
TRACE_TAIL_S = 900.0
#: height of a fault's measurement step, in units of the unit-variance noise
STEP_HEIGHT = 8.0

#: fault groups of the bundled graph that share propagation-path prefixes
#: and are therefore expected to absorb most short-prefix misclassifications
DEFAULT_CONFUSABLE_GROUPS = ((0, 1, 2), (1, 7), (4, 8))

#: per-fault (train, test) scenario counts giving the 65/42 case-study shape
DEFAULT_TRAIN_COUNTS = (5, 8, 7, 7, 6, 6, 6, 6, 6, 8)
DEFAULT_TEST_COUNTS = (4, 4, 4, 4, 4, 5, 5, 4, 4, 4)


@dataclass(frozen=True)
class Stage:
    """Alarm symbols that turn on together, around a nominal onset delay.

    Symbols within a stage share the stage delay; simultaneous onsets are
    ordered by ascending symbol index.
    """

    symbols: tuple[int, ...]
    delay_s: float
    jitter_s: float


@dataclass(frozen=True)
class FaultPath:
    """One fault's staged propagation path plus its magnitude-to-depth rule.

    ``depth_thresholds[s]`` is the smallest magnitude that still reaches
    stage ``s``; the first threshold is zero so stage one always fires.
    """

    name: str
    stages: tuple[Stage, ...]
    depth_thresholds: tuple[float, ...]


@dataclass(frozen=True)
class PropagationGraph:
    n_measurements: int
    faults: tuple[FaultPath, ...]

    def __post_init__(self):
        n_symbols = self.n_symbols  # the codebook checks n_measurements
        if not self.faults:
            raise DomainError("graph needs at least one fault")
        for index, fault in enumerate(self.faults):
            if not fault.stages:
                raise DomainError(f"fault {index} has no stages")
            # NaN fails every comparison, so strictly increasing delays with
            # finite ends are all finite; the same holds for the thresholds.
            delays = [stage.delay_s for stage in fault.stages]
            if not (all(a < b for a, b in zip(delays, delays[1:]))
                    and is_finite_number(delays[0]) and is_finite_number(delays[-1])):
                raise DomainError(
                    f"fault {index}: stage delays must be finite and strictly increase")
            # onsets are drawn uniformly from [-jitter, +jitter], a span that must be finite
            if not all(0.0 <= 2.0 * stage.jitter_s < math.inf for stage in fault.stages):
                raise DomainError(f"fault {index}: jitter must be non-negative and finite")
            thresholds = fault.depth_thresholds
            if len(thresholds) != len(fault.stages):
                raise DomainError(f"fault {index}: one depth threshold per stage required")
            if thresholds[0] != 0.0:
                raise DomainError(f"fault {index}: the first depth threshold must be 0")
            if not (all(a <= b for a, b in zip(thresholds, thresholds[1:]))
                    and is_finite_number(thresholds[-1])):
                raise DomainError(
                    f"fault {index}: depth thresholds must be finite and non-decreasing")
            # One pass in stage order; check_int runs only on a symbol that
            # fails, so the first error is the rule's own text.
            seen: set[int] = set()
            with located(f"fault {index}"):
                for stage in fault.stages:
                    for symbol in stage.symbols:
                        if not (is_int(symbol) and 0 <= symbol < n_symbols) or symbol in seen:
                            check_int(symbol, "symbol", 0, n_symbols - 1)
                            raise DomainError(f"symbol {symbol} listed twice")
                        seen.add(symbol)

    @property
    def n_symbols(self) -> int:
        return self.codebook.n_symbols

    @property
    def n_faults(self) -> int:
        return len(self.faults)

    @property
    def codebook(self) -> AlarmSymbolCodebook:
        return AlarmSymbolCodebook(self.n_measurements)

    @cached_property
    def _flat(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per fault, its stages laid end to end as read-only arrays
        ``(symbols, delays, jitters, ends)``: one entry per symbol in stage
        order, with its stage's delay and jitter, and ``ends[s]`` the number
        of symbols in stages ``0..s``.  A flood of depth ``d`` reads the first
        ``ends[d - 1]`` entries.  Built on the first flood and fixed from
        then on, like the graph."""
        flat = []
        for fault in self.faults:
            stages = fault.stages
            sizes = [len(stage.symbols) for stage in stages]
            arrays = (
                np.array([symbol for stage in stages for symbol in stage.symbols], dtype=np.int64),
                np.repeat(np.array([stage.delay_s for stage in stages], dtype=float), sizes),
                np.repeat(np.array([stage.jitter_s for stage in stages], dtype=float), sizes),
                np.cumsum(sizes),
            )
            for arr in arrays:
                arr.flags.writeable = False
            flat.append(arrays)
        return tuple(flat)


@dataclass(frozen=True)
class ScenarioSpec:
    """A single simulated scenario: fault, severity and noise settings."""

    fault: int
    magnitude: float
    seed: int
    swap_prob: float = 0.0
    drop_prob: float = 0.0

    def __post_init__(self):
        check_int(self.fault, "fault", 0)
        check_number(self.magnitude, "magnitude", 0, 1, strict=True)
        check_int(self.seed, "seed", 0)
        check_number(self.swap_prob, "swap_prob", 0, 1)
        check_number(self.drop_prob, "drop_prob", 0, 1)


def depth_for_magnitude(fault: FaultPath, magnitude: float) -> int:
    """Number of stages a fault of the given magnitude reaches."""
    return sum(1 for threshold in fault.depth_thresholds if threshold <= magnitude)


def simulate_alarm_sequence(graph: PropagationGraph, spec: ScenarioSpec) -> AlarmSequence:
    """Generate one labeled alarm sequence.

    Stages up to the magnitude-determined depth fire; each symbol's onset
    is its stage delay plus uniform jitter, clamped at 0; non-first-stage
    symbols may drop, then adjacent activations may swap.  Deterministic
    per (graph, spec).  The symbols are pairwise distinct and in the
    graph's alphabet, as :class:`PropagationGraph` guarantees, and the
    onsets sorted.

    The flood draws three arrays from its generator, in this order: one
    jitter per reached symbol, one drop variate per reached symbol (first
    stage included, though it never drops), and one swap variate per
    adjacent pair of kept symbols, ``i`` deciding whether positions ``i``
    and ``i + 1`` trade places after the swaps before it.  numpy draws one
    double per element, in order, for array arguments, so these are the
    doubles of a loop that draws one scalar per symbol and per pair.
    """
    if not 0 <= spec.fault < graph.n_faults:
        raise DomainError(f"fault {spec.fault} not present in the graph")
    fault = graph.faults[spec.fault]
    symbols, delays, jitters, ends = graph._flat[spec.fault]
    reached = ends[depth_for_magnitude(fault, spec.magnitude) - 1]
    symbols, delays, jitters = symbols[:reached], delays[:reached], jitters[:reached]
    rng = np.random.default_rng(spec.seed)

    onsets = np.maximum(delays + rng.uniform(-jitters, jitters), 0.0)
    kept = rng.random(reached) >= spec.drop_prob
    kept[:ends[0]] = True
    onsets, symbols = onsets[kept], symbols[kept]
    order = np.lexsort((symbols, onsets))

    times = onsets[order].tolist()
    symbols = symbols[order].tolist()
    for i in np.flatnonzero(rng.random(max(len(symbols) - 1, 0)) < spec.swap_prob).tolist():
        symbols[i], symbols[i + 1] = symbols[i + 1], symbols[i]

    return AlarmSequence(
        symbols=symbols,
        times=times,
        fault=spec.fault,
        meta={
            "fault_name": fault.name,
            "magnitude": spec.magnitude,
            "seed": spec.seed,
            "n_measurements": graph.n_measurements,
        },
    )


def _pair(value, what: str) -> tuple:
    """``value`` unpacked into two items, else :class:`DomainError` naming ``what``."""
    try:
        first, second = value
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be a pair, got {value!r}") from None
    return first, second


def generate_scenario_set(
    graph: PropagationGraph,
    per_fault_counts: dict[int, tuple[int, int]],
    magnitude_range: tuple[float, float] = DEFAULT_MAGNITUDE_RANGE,
    base_seed: int = 0,
    swap_prob: float = DEFAULT_SWAP_PROB,
    drop_prob: float = DEFAULT_DROP_PROB,
) -> tuple[list[AlarmSequence], list[AlarmSequence]]:
    """Labeled training and test scenario sets.

    Magnitudes and noise draws derive deterministically from
    (base_seed, split, fault, replicate); training and test use disjoint
    seed streams.
    """
    check_int(base_seed, "seed", 0)
    lo, hi = _pair(magnitude_range, "magnitude range")
    check_number(lo, "magnitude range lo", 0, 1, strict=True)
    check_number(hi, "magnitude range hi", 0, 1, strict=True)
    if not lo < hi:
        raise DomainError("magnitude range must satisfy 0 < lo < hi <= 1")
    train: list[AlarmSequence] = []
    test: list[AlarmSequence] = []
    for fault in per_fault_counts:
        check_int(fault, "fault", 0)  # the seed streams are derived from it
    for fault in sorted(per_fault_counts):
        n_train, n_test = _pair(per_fault_counts[fault], f"fault {fault}: counts")
        check_int(n_train, f"fault {fault}: training count", 1)
        check_int(n_test, f"fault {fault}: test count", 0)
        for split, count, bucket in ((0, n_train, train), (1, n_test, test)):
            for replicate in range(count):
                key = (base_seed, split, fault, replicate)
                magnitude_rng = np.random.default_rng(np.random.SeedSequence(key + (0xA1,)))
                spec = ScenarioSpec(
                    fault=fault,
                    magnitude=float(magnitude_rng.uniform(lo, hi)),
                    seed=int(np.random.SeedSequence(key).generate_state(1)[0]),
                    swap_prob=swap_prob,
                    drop_prob=drop_prob,
                )
                bucket.append(simulate_alarm_sequence(graph, spec))
    return train, test


def default_scenario_counts() -> dict[int, tuple[int, int]]:
    """The bundled 65-train / 42-test split across the ten default faults."""
    return {
        fault: (DEFAULT_TRAIN_COUNTS[fault], DEFAULT_TEST_COUNTS[fault])
        for fault in range(len(DEFAULT_TRAIN_COUNTS))
    }


def _staircase(*steps: tuple) -> tuple[tuple[Stage, ...], tuple[float, ...]]:
    """Build (stages, depth_thresholds) from (symbol(s), delay, jitter, threshold) rows."""
    stages, thresholds = [], []
    for symbols, delay, jitter, threshold in steps:
        if is_int(symbols):
            symbols = (symbols,)
        stages.append(Stage(tuple(symbols), float(delay), float(jitter)))
        thresholds.append(float(threshold))
    return tuple(stages), tuple(thresholds)


def default_graph() -> PropagationGraph:
    """The bundled 10-fault plant over 41 measurements (82 alarm symbols).

    High alarms of measurement ``m`` are symbol ``m``, low alarms are
    ``m + 41``.  Alarms fire one at a time on a staggered schedule whose
    jitter is smaller than the gaps, so the order is mostly stable with
    occasional transpositions.  Faults 0, 1 and 2 share their first seven
    alarms (one control loop), fault 7 shares its pressure/purge section
    with fault 1, and faults 4 and 8 share their first three alarms, so
    short prefixes inside those groups are ambiguous while full-length
    sequences stay separable.
    """
    n_meas = 41

    def low(m: int) -> int:
        return m + n_meas

    # Faults 0-2: reactor-loop trouble announces itself identically
    # (reactor temperature, then vessel pressures, then vessel levels).
    group_prefix = (
        (3, 60, 15, 0.0),
        (0, 150, 35, 0.0),
        (1, 225, 35, 0.0),
        (2, 300, 35, 0.0),
        (6, 420, 40, 0.0),
        (7, 495, 40, 0.0),
        (8, 570, 40, 0.0),
    )

    fault_tables = (
        (
            "reactor temperature sensor drift",
            group_prefix + (
                (12, 700, 45, 0.0),
                (19, 780, 45, 0.0),
                (10, 860, 45, 0.0),
                (4, 1000, 50, 0.45),
                (5, 1080, 50, 0.45),
                (low(17), 1200, 55, 0.7),
                (low(36), 1280, 55, 0.7),
            ),
        ),
        (
            "C feed valve stiction",
            group_prefix + (
                (20, 700, 45, 0.0),
                (18, 780, 45, 0.0),
                (12, 860, 45, 0.0),
                (5, 1000, 50, 0.4),
                (low(14), 1080, 50, 0.4),
                (low(21), 1200, 55, 0.6),
                (29, 1280, 55, 0.6),
                (30, 1400, 55, 0.8),
                (low(15), 1480, 55, 0.8),
            ),
        ),
        (
            "E feed valve stiction",
            group_prefix + (
                (9, 700, 45, 0.0),
                (11, 780, 45, 0.0),
                (12, 860, 45, 0.0),
                (4, 1000, 50, 0.4),
                (low(26), 1080, 50, 0.4),
                (37, 1200, 55, 0.6),
                (low(16), 1280, 55, 0.6),
                (38, 1400, 55, 0.8),
            ),
        ),
        (
            "D feed valve stiction",
            (
                (15, 60, 15, 0.0),
                (2, 150, 35, 0.0),
                (5, 225, 35, 0.0),
                (8, 330, 35, 0.0),
                (17, 410, 40, 0.0),
                (24, 700, 45, 0.35),
                (low(25), 780, 45, 0.35),
                (39, 1000, 50, 0.55),
                (low(22), 1080, 50, 0.55),
                (low(6), 1200, 55, 0.8),
                (low(7), 1280, 55, 0.8),
            ),
        ),
        (
            "reactor pressure sensor drift low",
            (
                (low(0), 60, 15, 0.0),
                (12, 150, 35, 0.0),
                (low(1), 225, 35, 0.0),
                (11, 330, 35, 0.0),
                (13, 410, 40, 0.0),
                (23, 700, 45, 0.45),
                (low(19), 780, 45, 0.45),
                (33, 1000, 50, 0.7),
                (34, 1080, 50, 0.7),
            ),
        ),
        (
            "separator level sensor drift low",
            (
                (low(7), 60, 15, 0.0),
                (4, 150, 35, 0.0),
                (17, 225, 35, 0.0),
                (1, 330, 35, 0.0),
                (low(3), 410, 40, 0.0),
                (40, 700, 45, 0.4),
                (low(18), 780, 45, 0.4),
                (low(27), 1000, 50, 0.7),
                (low(28), 1080, 50, 0.7),
            ),
        ),
        (
            "condenser coolant valve fault",
            (
                (9, 60, 15, 0.0),
                (1, 150, 35, 0.0),
                (4, 225, 35, 0.0),
                (18, 330, 35, 0.0),
                (40, 410, 40, 0.0),
                (low(29), 700, 45, 0.45),
                (low(30), 780, 45, 0.45),
                (low(31), 1000, 50, 0.75),
                (low(32), 1080, 50, 0.75),
            ),
        ),
        (
            # Shares its feed-loop section (12, 20, 18, then 5/55/62/29)
            # with fault 1, so the two become confusable once prefixes
            # reach that stretch, mirroring the same-loop ambiguity.
            "A feed valve stiction",
            (
                (13, 60, 15, 0.0),
                (26, 150, 35, 0.0),
                (27, 225, 35, 0.0),
                (12, 330, 35, 0.0),
                (20, 420, 40, 0.0),
                (18, 495, 40, 0.0),
                (5, 700, 45, 0.5),
                (low(14), 780, 45, 0.5),
                (low(21), 1000, 50, 0.75),
                (29, 1080, 50, 0.75),
                (31, 1200, 55, 0.9),
                (32, 1280, 55, 0.9),
            ),
        ),
        (
            "purge valve stiction",
            (
                (low(0), 60, 15, 0.0),
                (12, 150, 35, 0.0),
                (low(1), 225, 35, 0.0),
                (28, 330, 35, 0.0),
                (low(2), 410, 40, 0.0),
                (35, 700, 45, 0.45),
                (36, 780, 45, 0.45),
                (low(23), 1000, 50, 0.7),
            ),
        ),
        (
            "reactor coolant valve stiction",
            (
                (10, 60, 15, 0.0),
                (0, 150, 35, 0.0),
                (3, 225, 35, 0.0),
                (6, 330, 35, 0.0),
                (low(33), 410, 40, 0.0),
                (low(34), 700, 45, 0.4),
                (low(35), 780, 45, 0.4),
                (low(4), 1000, 50, 0.7),
                (low(5), 1080, 50, 0.7),
            ),
        ),
    )

    faults = []
    for name, table in fault_tables:
        stages, thresholds = _staircase(*table)
        faults.append(FaultPath(name=name, stages=stages, depth_thresholds=thresholds))
    return PropagationGraph(n_measurements=n_meas, faults=tuple(faults))


def graph_to_dict(graph: PropagationGraph) -> dict:
    """The graph document: the dataclass fields, with tuples as arrays."""
    return {"format_version": FORMAT_VERSION, **asdict(graph)}


def graph_from_dict(payload: dict) -> PropagationGraph:
    """Check a graph document and build its :class:`PropagationGraph`; nothing is coerced."""
    check_version(payload, SchemaError)
    n_measurements = require(payload, "n_measurements", is_int, "an integer")
    faults = tuple(
        FaultPath(
            name=require(fault, "name", lambda value: isinstance(value, str), "a string"),
            stages=tuple(
                Stage(
                    symbols=tuple(require(stage, "symbols", is_int_array, "an array of integers")),
                    delay_s=float(require(stage, "delay_s", is_finite_number, "a finite number")),
                    jitter_s=float(require(stage, "jitter_s", is_finite_number, "a finite number")),
                )
                for stage in require(fault, "stages", is_array, "an array")
            ),
            depth_thresholds=tuple(float(threshold) for threshold in require(
                fault, "depth_thresholds", is_finite_array, "an array of finite numbers")),
        )
        for fault in require(payload, "faults", is_array, "an array")
    )
    try:
        return PropagationGraph(n_measurements=n_measurements, faults=faults)
    except DomainError as exc:
        raise SchemaError(f"graph violates its invariants: {exc}") from exc


def save_graph(graph: PropagationGraph, path) -> None:
    save_document(path, graph_to_dict(graph))


def load_graph(path) -> PropagationGraph:
    return load_document(path, graph_from_dict, SchemaError)


def simulate_normal_trace(n_measurements: int, n_samples: int, seed: int = 0) -> MeasurementTrace:
    """Normal-operation readings: zero baseline plus unit-variance Gaussian noise."""
    check_int(n_measurements, "n_measurements", 1, MAX_MEASUREMENTS)  # the codebook's bound
    check_int(n_samples, "n_samples", 1)
    check_int(seed, "seed", 0)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x50)))
    values = rng.normal(0.0, 1.0, size=(n_samples, n_measurements))
    return MeasurementTrace(
        sample_period=TRACE_SAMPLE_PERIOD_S,
        values=values,
        meas_ids=[f"m{idx:02d}" for idx in range(n_measurements)],
    )


def simulate_fault_trace(
    graph: PropagationGraph, spec: ScenarioSpec
) -> tuple[MeasurementTrace, AlarmSequence]:
    """Measurement trace whose limit crossings realize a simulated scenario.

    Each scheduled alarm becomes a step of :data:`STEP_HEIGHT` (up for high
    alarms, down for low) that starts at the scheduled onset and persists
    to the end of the trace, :data:`TRACE_TAIL_S` after the last onset;
    unit-variance Gaussian noise lies on top.  Returns the trace together
    with the scheduled alarm sequence; exists to exercise the extraction
    pipeline end to end.
    """
    sequence = simulate_alarm_sequence(graph, spec)
    codebook = graph.codebook
    last_onset = max(sequence.times, default=0.0)
    n_samples = int(math.ceil((last_onset + TRACE_TAIL_S) / TRACE_SAMPLE_PERIOD_S)) + 1

    levels = np.zeros((n_samples, graph.n_measurements))
    for onset, symbol in sorted(zip(sequence.times, sequence.symbols)):
        measurement, direction = codebook.decode(symbol)
        start = int(math.ceil(onset / TRACE_SAMPLE_PERIOD_S - 1e-9))
        levels[start:, measurement] = STEP_HEIGHT if direction == HIGH else -STEP_HEIGHT

    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0x7C)))
    values = levels + rng.normal(0.0, 1.0, size=levels.shape)
    trace = MeasurementTrace(
        sample_period=TRACE_SAMPLE_PERIOD_S,
        values=values,
        meas_ids=[f"m{idx:02d}" for idx in range(graph.n_measurements)],
    )
    return trace, sequence
