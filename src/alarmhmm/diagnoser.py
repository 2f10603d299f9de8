"""Single-HMM fault diagnoser: faults are hidden states, alarms observables.

Training seeds one state per fault (diagonally dominant transitions,
per-fault alarm frequencies as emissions) and then runs unsupervised
Baum-Welch over all sequences pooled; because the states start from the
labeled per-fault statistics, state ``i`` is identified with fault ``i``
throughout.  Diagnosis decodes a sequence once, for its two best paths,
and reports the most recurring state of the best one as the fault, plus a
second opinion from the runner-up; one pass yields every prefix verdict.
Both decode their floods side by side, in chunks of at most N.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .alarms import AlarmSequence, AlarmSymbolCodebook
from .documents import (
    COUNT,
    FRACTION,
    is_array,
    is_finite_number,
    is_int,
    load_document,
    require,
    save_document,
    write_csv,
)
from .errors import DomainError, InferenceError, ModelFormatError, located
from .hmm import (
    FitConfig,
    Hmm,
    StatePath,
    _Batch,
    _batches,
    _FloodError,
    _k_best,
    _list_viterbi,
    as_observations,
    fit,
    hmm_from_dict,
    hmm_to_dict,
)

#: trained self-transition mass below this triggers a diagnostic warning,
#: since the state-to-fault identity rests on the diagonal structure
SELF_TRANSITION_WARN = 0.5

#: off-diagonal transition mass of the default hard-masked diagonal structure
HARD_MASK_OFF_DIAGONAL = 1e-3

#: the columns of ``accuracy.csv``, which ``report`` reads back, and their checks
ACCURACY_FIELDS = {"prefix_length": COUNT, "accuracy": FRACTION, "n_correct": COUNT,
                   "n_total": COUNT}


@dataclass
class LabeledSequence:
    """An alarm sequence together with its known root-cause fault index."""

    sequence: AlarmSequence
    fault: int

    def __post_init__(self):
        if self.fault < 0:
            raise DomainError(f"fault label {self.fault} must be non-negative")

    @property
    def symbols(self) -> list[int]:
        return self.sequence.symbols


def _labeled(index: int, sequence: AlarmSequence) -> LabeledSequence:
    with located(f"sequence {index}"):
        return LabeledSequence(sequence=sequence, fault=int(sequence.fault))


def as_labeled(sequences: list[AlarmSequence]) -> list[LabeledSequence]:
    """Wrap alarm sequences whose ``fault`` field is set; reject unlabeled ones."""
    labeled = []
    for index, sequence in enumerate(sequences):
        if sequence.fault is None:
            raise DomainError(f"sequence {index} has no fault label")
        labeled.append(_labeled(index, sequence))
    return labeled


def check_labels(sequences: list[AlarmSequence]) -> None:
    """Apply the label rule of :func:`as_labeled` to the sequences that carry a
    label; unlabeled ones pass, since a test set need not be labeled."""
    for index, sequence in enumerate(sequences):
        if sequence.fault is not None:
            _labeled(index, sequence)


@dataclass
class DiagnoserModel:
    """Trained HMM plus the fault and alarm-symbol naming around it."""

    hmm: Hmm
    fault_names: tuple[str, ...]
    codebook: AlarmSymbolCodebook
    training: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.fault_names) != self.hmm.n_states:
            raise DomainError("one fault name per hidden state required")
        if self.codebook.n_symbols != self.hmm.n_symbols:
            raise DomainError("codebook size does not match the model alphabet")

    @property
    def n_faults(self) -> int:
        return self.hmm.n_states


@dataclass(frozen=True)
class Diagnosis:
    """Primary and secondary fault candidates with their decoded paths."""

    primary_fault: int
    secondary_fault: int | None
    path: StatePath
    second_path: StatePath | None


@dataclass
class AccuracyCurve:
    """Classification accuracy as a function of the prefix length shown."""

    lengths: np.ndarray     # 1..L_max
    accuracy: np.ndarray    # fraction correct at each length
    n_correct: np.ndarray
    n_total: int
    confusion: np.ndarray   # (L_max, n_faults, n_faults): true x diagnosed counts


def _mode(states: np.ndarray, n_states: int) -> int:
    counts = np.bincount(states, minlength=n_states)
    return int(np.argmax(counts))  # ties resolve to the lowest index


def _second_mode(states: np.ndarray, n_states: int, primary: int) -> int | None:
    counts = np.bincount(states, minlength=n_states)
    counts[primary] = 0
    if counts.max() == 0:
        return None
    return int(np.argmax(counts))


def train_diagnoser(
    training: list[LabeledSequence],
    priors: np.ndarray | None = None,
    config: FitConfig | None = None,
    *,
    codebook: AlarmSymbolCodebook,
    fault_names: dict[int, str] | None = None,
    self_transition: float | None = None,
    init_smoothing: float = 0.5,
) -> DiagnoserModel:
    """Build and train the diagnoser HMM.

    Initialization uses the labels: the transition matrix starts diagonally
    dominant, emissions start from per-fault symbol frequencies with
    additive smoothing, and the initial distribution comes from ``priors``
    (e.g. equipment failure rates) or is uniform.  Baum-Welch then runs
    unsupervised on all sequences pooled.  An error about one sequence
    starts with ``sequence <i>: ``, ``i`` counting from 0 in ``training``.

    By default (``self_transition=None``) the diagonal structure is hard:
    off-diagonal transition mass is pinned at
    :data:`HARD_MASK_OFF_DIAGONAL` and not re-estimated, which is what
    keeps each state identified with its seeded fault.  A number starts
    the transitions at that diagonal mass (the rest uniform) and
    re-estimates them freely; prolonged unsupervised EM can then let one
    state capture alarm symbols shared between faults, which degrades the
    modal-state diagnosis rule.
    """
    if config is None:
        config = FitConfig()
    if not (is_finite_number(init_smoothing) and init_smoothing >= 0):
        raise DomainError(f"init_smoothing must be finite and non-negative, got {init_smoothing!r}")
    if not training:
        raise DomainError("training requires at least one labeled sequence")
    labels = {item.fault for item in training}
    n_faults = max(labels) + 1
    missing = sorted(set(range(n_faults)) - labels)
    if missing:
        raise DomainError(f"fault {missing[0]} has no training sequences")
    n_symbols = codebook.n_symbols
    observations = []
    for index, item in enumerate(training):
        with located(f"sequence {index}"):
            observations.append(as_observations(item.symbols, n_symbols))

    if priors is not None:
        initial = np.asarray(priors, dtype=float)
        if initial.shape != (n_faults,):
            raise DomainError(f"priors must have one entry per fault ({n_faults})")
        if abs(initial.sum() - 1.0) > 1e-6 or (initial < 0).any():
            raise DomainError("priors must be non-negative and sum to 1 within 1e-6")
        initial = initial / initial.sum()
    else:
        initial = np.full(n_faults, 1.0 / n_faults)

    if self_transition is None:
        off_diagonal = HARD_MASK_OFF_DIAGONAL
        config = replace(config, update_transitions=False)
    else:
        off_diagonal = (1.0 - self_transition) / (n_faults - 1) if n_faults > 1 else 0.0
    transition = np.full((n_faults, n_faults), off_diagonal)
    np.fill_diagonal(transition, 1.0 - off_diagonal * (n_faults - 1))

    counts = np.full((n_faults, n_symbols), init_smoothing, dtype=float)
    for item, obs in zip(training, observations):
        np.add.at(counts[item.fault], obs, 1.0)
    emission = counts / counts.sum(axis=1, keepdims=True)

    start = Hmm(transition=transition, emission=emission, initial=initial)
    model, trace = fit(start, observations, config)

    diagonal = np.diag(model.transition)
    weak = np.flatnonzero(diagonal < SELF_TRANSITION_WARN)
    if weak.size:
        warnings.warn(
            f"self-transition mass fell below {SELF_TRANSITION_WARN} for state(s) "
            f"{weak.tolist()}; the state-to-fault identity may have drifted",
            RuntimeWarning,
            stacklevel=2,
        )

    names = tuple(
        (fault_names or {}).get(fault, f"fault-{fault}") for fault in range(n_faults)
    )
    training_echo = {
        "n_sequences": len(training),
        "iterations": len(trace) - 1,
        "final_log_likelihood": float(trace[-1]),
        "max_iterations": config.max_iterations,
        "rel_tol": config.rel_tol,
        "emission_floor": config.emission_floor,
        "self_transition": self_transition,
        "init_smoothing": init_smoothing,
        "priors": None if priors is None else [float(p) for p in np.asarray(priors)],
    }
    return DiagnoserModel(
        hmm=model, fault_names=names, codebook=codebook, training=training_echo
    )


def _chunks(
    model: DiagnoserModel, observations: list[np.ndarray]
) -> Iterator[tuple[int, _Batch]]:
    """``(first, batch)`` for each chunk of at most N floods, ``first`` being the
    list index of the chunk's first flood.  A chunk's arrays are then no larger
    than the E-step's, which keeps the peak memory where training leaves it.
    """
    return zip(range(0, len(observations), model.n_faults),
               _batches(observations, model.n_faults))


@contextmanager
def _naming(first: int):
    """Name a decoding failure by the failing flood's index in the caller's list."""
    try:
        yield
    except _FloodError as exc:
        raise InferenceError(f"sequence {first + exc.index}: {exc}") from None


def _verdict(paths: list[StatePath], n: int) -> Diagnosis:
    best = paths[0]
    primary = _mode(best.states, n)
    second_path: StatePath | None = None
    secondary_fault: int | None = None
    if len(paths) > 1:
        second_path = paths[1]
        candidate = _mode(second_path.states, n)
        if candidate != primary:
            secondary_fault = candidate
        else:
            secondary_fault = _second_mode(best.states, n, primary)
            if secondary_fault is None:
                secondary_fault = _second_mode(second_path.states, n, primary)
    return Diagnosis(
        primary_fault=primary,
        secondary_fault=secondary_fault,
        path=best,
        second_path=second_path,
    )


def diagnose_all(model: DiagnoserModel, sequences) -> list[Diagnosis]:
    """Diagnose every alarm sequence, each with a single list-Viterbi decode.

    The floods are decoded side by side in chunks of at most N (the number
    of faults); each verdict equals the one the flood gets alone.  The
    primary fault is the most recurring state of the Viterbi path (ties to
    the lowest index); that path is rank 0 of the k=2 decode and the last
    of :func:`prefix_paths`, so the primary fault is also the full-length
    verdict of :func:`evaluate_prefix_accuracy`.  The secondary fault is
    the mode of the second-best path; when that coincides with the primary,
    the second most frequent state of the best path stands in, and if the
    best path is constant, the second path supplies its own runner-up
    state.  Only a single-path model (one fault) yields no secondary.  An
    error about one sequence starts with ``sequence <i>: ``, ``i`` counting
    from 0 in ``sequences``; of several floods that cannot be decoded, the
    first in the list is named.
    """
    observations = []
    for index, sequence in enumerate(sequences):
        with located(f"sequence {index}"):
            observations.append(as_observations(sequence, model.hmm.n_symbols))
    verdicts = []
    for first, batch in _chunks(model, observations):
        with _naming(first):
            verdicts += [_verdict(paths, model.n_faults) for paths in _k_best(model.hmm, batch, 2)]
    return verdicts


def diagnose(model: DiagnoserModel, sequence) -> Diagnosis:
    """:func:`diagnose_all` of the one sequence; an error names it ``sequence 0``."""
    return diagnose_all(model, [sequence])[0]


def evaluate_prefix_accuracy(
    model: DiagnoserModel, test: list[LabeledSequence], l_max: int
) -> AccuracyCurve:
    """Accuracy and confusion counts when only prefixes are shown.

    For every test sequence and prefix length ``p`` in 1..``l_max`` the
    diagnoser sees the first ``min(p, len(sequence))`` alarms, so the
    verdict for lengths beyond the sequence is the full-sequence verdict,
    the primary fault :func:`diagnose` gives.  The floods are decoded side
    by side in chunks of at most N, in one k=1 list-Viterbi pass per chunk;
    every step of the pass gives each running flood's verdict for that
    prefix: the mode of its best path.
    An error about one sequence starts with ``sequence <i>: ``, ``i``
    counting from 0 in ``test``.
    """
    if l_max < 1:
        raise DomainError("l_max must be >= 1")
    if not test:
        raise DomainError("evaluation requires at least one labeled sequence")
    n = model.n_faults
    observations = []
    for index, item in enumerate(test):
        with located(f"sequence {index}"):
            if item.fault >= n:
                raise DomainError(f"test label {item.fault} outside the model's faults")
            symbols = item.sequence.symbols[:l_max]
            observations.append(as_observations(symbols, model.hmm.n_symbols))
    verdicts = np.empty((len(test), l_max), dtype=np.int64)
    for first, batch in _chunks(model, observations):
        with _naming(first):
            for t, (score, paths) in enumerate(_list_viterbi(model.hmm, batch, 1)):
                # Row s * N + j of paths is flood s's best path ending in state j.
                offsets = np.arange(0, score.size, n)
                states = paths[score[:, :, 0].argmax(axis=1) + offsets] + offsets[:, None]
                counts = np.bincount(states.ravel(), minlength=score.size).reshape(-1, n)
                verdicts[first + batch.order[: offsets.size], t] = counts.argmax(axis=1)
    # Past its end, a flood keeps its full-length verdict.
    steps = np.arange(l_max)
    ends = np.array([obs.size for obs in observations])[:, None] - 1
    verdicts = np.take_along_axis(verdicts, np.minimum(steps, ends), axis=1)
    faults = np.array([item.fault for item in test])
    cells = (steps * n + faults[:, None]) * n + verdicts
    confusion = np.bincount(cells.ravel(), minlength=l_max * n * n).reshape(l_max, n, n)
    n_correct = np.trace(confusion, axis1=1, axis2=2)
    return AccuracyCurve(
        lengths=np.arange(1, l_max + 1),
        accuracy=n_correct / len(test),
        n_correct=n_correct,
        n_total=len(test),
        confusion=confusion,
    )


def write_accuracy_csv(curve: AccuracyCurve, path) -> None:
    write_csv(path, tuple(ACCURACY_FIELDS), (
        [int(length), repr(float(accuracy)), int(correct), curve.n_total]
        for length, accuracy, correct in zip(curve.lengths, curve.accuracy, curve.n_correct)
    ))


def write_confusion_csvs(curve: AccuracyCurve, directory) -> list[Path]:
    """One ``confusion_L<p>.csv`` per prefix length, true x diagnosed counts."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    n = curve.confusion.shape[1]
    for index, length in enumerate(curve.lengths):
        path = directory / f"confusion_L{int(length):02d}.csv"
        write_csv(path, ("true_fault", "diagnosed_fault", "count"), (
            [true_fault, diagnosed, int(curve.confusion[index, true_fault, diagnosed])]
            for true_fault in range(n)
            for diagnosed in range(n)
        ))
        written.append(path)
    return written


def diagnoser_to_dict(model: DiagnoserModel) -> dict:
    doc = hmm_to_dict(model.hmm)
    doc["faults"] = list(model.fault_names)
    doc["codebook"] = {"n_measurements": model.codebook.n_measurements}
    doc["training"] = model.training
    return doc


def diagnoser_from_dict(payload: dict) -> DiagnoserModel:
    hmm = hmm_from_dict(payload)
    faults = require(payload, "faults", lambda value: is_array(value) and all(
        isinstance(name, str) for name in value), "an array of fault names", ModelFormatError)
    codebook = require(payload, "codebook", lambda value: isinstance(value, dict),
                     "an object", ModelFormatError)
    size = require(codebook, "n_measurements", lambda value: is_int(value) and value >= 1,
                 "a positive integer", ModelFormatError)
    try:
        return DiagnoserModel(
            hmm=hmm,
            fault_names=tuple(faults),
            codebook=AlarmSymbolCodebook(size),
            training=payload.get("training", {}),
        )
    except DomainError as exc:
        raise ModelFormatError(str(exc)) from exc


def save_diagnoser(model: DiagnoserModel, path) -> None:
    save_document(path, diagnoser_to_dict(model))


def load_diagnoser(path) -> DiagnoserModel:
    return load_document(path, diagnoser_from_dict, ModelFormatError)
