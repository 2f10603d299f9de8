"""Single-HMM fault diagnoser: faults are hidden states, alarms observables.

Training seeds one state per fault (diagonally dominant transitions,
per-fault alarm frequencies as emissions) and then runs unsupervised
Baum-Welch over all sequences pooled; because the states start from the
labeled per-fault statistics, state ``i`` is identified with fault ``i``
throughout.  A verdict is read off each fault's summed log emission terms
(``hmm._fault_scores``), the fault posterior of the flood less a term all
faults share: the best-scoring fault is the primary, the runner-up the
secondary, and every prefix of a flood gets its verdict from the same
sums, one (T, N) block per flood.  Diagnosis also decodes each flood once,
on its own, for its two best paths, the explanation it reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .alarms import AlarmSequence, AlarmSymbolCodebook
from .documents import (
    COUNT,
    FRACTION,
    check_int,
    check_number,
    is_array,
    load_document,
    require,
    save_document,
    write_csv,
)
from .errors import DomainError, ModelFormatError, located
from .hmm import (
    FitConfig,
    Hmm,
    StatePath,
    _fault_scores,
    _observations,
    _paths,
    _terms,
    as_observations,
    fit,
    hmm_from_dict,
    hmm_to_dict,
    k_best_paths,
)

DEFAULT_INIT_SMOOTHING = 0.5  # additive smoothing of the seeded emission counts

#: off-diagonal transition mass of the pinned diagonal structure
HARD_MASK_OFF_DIAGONAL = 1e-3

#: the columns of ``accuracy.csv``, which ``report`` reads back, and their checks
ACCURACY_FIELDS = {"prefix_length": COUNT, "accuracy": FRACTION, "n_correct": COUNT,
                   "n_total": COUNT}


@dataclass(frozen=True)
class LabeledSequence:
    """An alarm sequence whose ``fault``, its known root cause, is set."""

    sequence: AlarmSequence

    def __post_init__(self):
        if self.sequence.fault is None:
            raise DomainError("no fault label")

    @property
    def fault(self) -> int:
        return self.sequence.fault

    @property
    def symbols(self) -> list[int]:
        return self.sequence.symbols


def as_labeled(sequences: list[AlarmSequence]) -> list[LabeledSequence]:
    """Each alarm sequence as a :class:`LabeledSequence`; an unlabeled one
    raises :class:`DomainError` naming it ``sequence <i>``, ``i`` counting from 0."""
    labeled = []
    for index, sequence in enumerate(sequences):
        with located(f"sequence {index}"):
            labeled.append(LabeledSequence(sequence))
    return labeled


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
        for name in self.fault_names:
            if not isinstance(name, str):
                raise DomainError(f"fault name {name!r} is not a string")
        if self.codebook.n_symbols != self.hmm.n_symbols:
            raise DomainError("codebook size does not match the model alphabet")

    @property
    def n_faults(self) -> int:
        return self.hmm.n_states


@dataclass(frozen=True)
class Diagnosis:
    """Primary and secondary fault candidates with their decoded paths;
    ``second_path`` is ``None`` unless a second path of nonzero probability exists."""

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


def train_diagnoser(
    training: list[LabeledSequence],
    *,
    config: FitConfig | None = None,
    codebook: AlarmSymbolCodebook,
    fault_names: dict[int, str] | None = None,
    init_smoothing: float = DEFAULT_INIT_SMOOTHING,
) -> DiagnoserModel:
    """Build and train the diagnoser HMM.

    Initialization uses the labels: emissions start from per-fault symbol
    frequencies with additive smoothing, and the initial distribution is
    uniform.  Baum-Welch then runs unsupervised on all sequences pooled.
    An error about one sequence starts with ``sequence <i>: ``, ``i``
    counting from 0 in ``training``.

    The diagonal transition structure is pinned: every off-diagonal entry
    is :data:`HARD_MASK_OFF_DIAGONAL` and is not re-estimated, which is
    what keeps each state identified with its seeded fault; it holds at
    most 1,001 faults.
    """
    if config is None:
        config = FitConfig()
    check_number(init_smoothing, "init_smoothing", 0)
    if not training:
        raise DomainError("training requires at least one labeled sequence")
    labels = sorted({item.fault for item in training})
    for fault, label in enumerate(labels):  # labels are non-negative: a gap is a missing fault
        if fault != label:
            raise DomainError(f"fault {fault} has no training sequences")
    n_faults = len(labels)
    n_symbols = codebook.n_symbols
    observations = _observations(training, n_symbols)

    off_diagonal = HARD_MASK_OFF_DIAGONAL
    limit = round(1.0 / off_diagonal) + 1
    if n_faults > limit:
        raise DomainError(
            f"{n_faults} faults exceed the {limit} that the pinned transition structure "
            f"holds (off-diagonal mass {off_diagonal} each)")
    transition = np.full((n_faults, n_faults), off_diagonal)
    np.fill_diagonal(transition, 1.0 - off_diagonal * (n_faults - 1))

    counts = np.full((n_faults, n_symbols), init_smoothing, dtype=float)
    # add.at adds in index order, so each count grows as flood by flood would.
    faults = np.repeat([item.fault for item in training], [obs.size for obs in observations])
    np.add.at(counts, (faults, np.concatenate(observations)), 1.0)
    with np.errstate(over="ignore"):
        totals = counts.sum(axis=1, keepdims=True)
    if not np.isfinite(totals).all():
        raise DomainError(f"init_smoothing {init_smoothing} overflows a seeded emission row sum")
    emission = counts / totals

    start = Hmm(transition=transition, emission=emission,
                initial=np.full(n_faults, 1.0 / n_faults))
    model, trace = fit(start, observations, config, fixed_transitions=True)

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
        "init_smoothing": init_smoothing,
    }
    return DiagnoserModel(
        hmm=model, fault_names=names, codebook=codebook, training=training_echo
    )


def _verdict(scores: np.ndarray, paths: list[StatePath]) -> Diagnosis:
    """The verdict of one flood from its (N,) fault scores at its last step
    and its best paths, best first: the faults in descending order of score,
    ties to the lower fault (one stable sort), give the primary and the
    secondary fault; a one-fault model has no secondary.  A second path of
    probability zero (log probability ``-inf``, which JSON cannot hold) is
    reported as none, as a one-state model's missing one is."""
    ranked = np.argsort(-scores, kind="stable")[:2].tolist()
    return Diagnosis(
        primary_fault=ranked[0],
        secondary_fault=ranked[1] if len(ranked) > 1 else None,
        path=paths[0],
        second_path=paths[1] if len(paths) > 1 and paths[1].log_prob > -np.inf else None,
    )


def diagnose_all(model: DiagnoserModel, sequences) -> list[Diagnosis]:
    """Diagnose every alarm sequence from its fault scores, and decode it once.

    The primary fault is the one whose log emission terms summed over the
    whole flood (``hmm._fault_scores``) are highest, ties to the lowest
    index, which is the full-length verdict of
    :func:`evaluate_prefix_accuracy` bit for bit; the secondary fault is the
    runner-up in the same order, and only a one-fault model yields none.
    The two best state paths, from one k=2 list-Viterbi decode, explain the
    verdict and do not enter it.  Every flood is checked first; then, in
    list order, each is gathered once (``hmm._terms``), decoded and scored,
    so each verdict and error is the one :func:`diagnose` gives it.  An
    error names ``sequence <i>``, ``i`` counting from 0 in ``sequences``:
    the first malformed flood, else the first whose decode or scoring fails.
    """
    observations = _observations(sequences, model.hmm.n_symbols)
    verdicts = []
    for index, symbols in enumerate(observations):
        with located(f"sequence {index}"):
            terms = _terms(model.hmm, symbols)
            try:
                paths = _paths(model.hmm, terms, 2)
            finally:  # the decode leaves the rows as they were; a scoring error wins
                scores = _fault_scores(model.hmm, terms)
            verdicts.append(_verdict(scores[-1], paths))
    return verdicts


def diagnose(model: DiagnoserModel, sequence) -> Diagnosis:
    """The :func:`diagnose_all` verdict of one sequence: its (T, N) log terms
    (``hmm._terms``) are scored first, then it is decoded through
    :func:`k_best_paths`; an error names it ``sequence 0``."""
    symbols = _observations([sequence], model.hmm.n_symbols)[0]
    with located("sequence 0"):
        scores = _fault_scores(model.hmm, _terms(model.hmm, symbols))
    return _verdict(scores[-1], k_best_paths(model.hmm, symbols, 2))


def evaluate_prefix_accuracy(
    model: DiagnoserModel, test: list[LabeledSequence], l_max: int
) -> AccuracyCurve:
    """Accuracy and confusion counts when only prefixes are shown.

    For every test sequence and prefix length ``p`` in 1..``l_max`` the
    diagnoser sees the first ``min(p, len(sequence))`` alarms, so the
    verdict for lengths beyond the sequence is the full-sequence verdict,
    the primary fault :func:`diagnose` gives.  Every flood is checked in
    full (its label, then its symbols) before it is cut to ``l_max``.  Then
    each cut flood is scored on its own, and nothing is decoded: step ``t``
    of its fault scores (``hmm._fault_scores``) gives its verdict for the
    prefix of ``t + 1`` alarms, the best-scoring fault, ties to the lowest,
    and its last verdict fills its row past its end.  ``l_max`` is a Python
    or numpy integer of at least 1, and at most the largest count whose
    confusion numpy can size; anything else, ``True`` or ``2.0`` included,
    raises :class:`DomainError`.  An error about one sequence starts with
    ``sequence <i>: ``, ``i`` counting from 0 in ``test``; of the cut floods
    where every fault scores ``-inf``, the first is named.
    """
    n = model.n_faults
    # the byte size of the (l_max, n, n) int64 confusion must fit numpy's index type
    check_int(l_max, "l_max", 1, np.iinfo(np.intp).max // (8 * n * n))
    if not test:
        raise DomainError("evaluation requires at least one labeled sequence")
    observations = []
    for index, item in enumerate(test):
        with located(f"sequence {index}"):
            if item.fault >= n:
                raise DomainError(f"test label {item.fault} outside the model's faults")
            observations.append(as_observations(item, model.hmm.n_symbols)[:l_max])
    steps = np.arange(max(obs.size for obs in observations))
    verdicts = np.empty((len(test), steps.size), dtype=np.int64)
    for index, (row, symbols) in enumerate(zip(verdicts, observations)):
        with located(f"sequence {index}"):
            scores = _fault_scores(model.hmm, _terms(model.hmm, symbols))
        row[: symbols.size] = scores.argmax(axis=1)
        # Past its end, a flood keeps its full-length verdict.
        row[symbols.size:] = row[symbols.size - 1]
    faults = np.array([item.fault for item in test])
    cells = (steps * n + faults[:, None]) * n + verdicts
    confusion = np.bincount(cells.ravel(), minlength=steps.size * n * n).reshape(-1, n, n)
    if l_max > steps.size:
        # past the longest flood, every length has the full-length confusion
        confusion = np.concatenate(
            (confusion, np.broadcast_to(confusion[-1], (l_max - steps.size, n, n))))
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


def write_confusion_csvs(curve: AccuracyCurve, directory) -> None:
    """One ``confusion_L<p>.csv`` per prefix length, true x diagnosed counts;
    any other ``confusion_L*.csv`` in ``directory``, a longer run's, is removed."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = set()
    n = curve.confusion.shape[1]
    for index, length in enumerate(curve.lengths):
        path = directory / f"confusion_L{int(length):02d}.csv"
        write_csv(path, ("true_fault", "diagnosed_fault", "count"), (
            [true_fault, diagnosed, int(curve.confusion[index, true_fault, diagnosed])]
            for true_fault in range(n)
            for diagnosed in range(n)
        ))
        written.add(path)
    for stale in set(directory.glob("confusion_L*.csv")) - written:
        stale.unlink()


def diagnoser_to_dict(model: DiagnoserModel) -> dict:
    doc = hmm_to_dict(model.hmm)
    doc["faults"] = list(model.fault_names)
    doc["codebook"] = {"n_measurements": model.codebook.n_measurements}
    doc["training"] = model.training
    return doc


def diagnoser_from_dict(payload: dict) -> DiagnoserModel:
    hmm = hmm_from_dict(payload)
    faults = require(payload, "faults", is_array, "an array", ModelFormatError)
    codebook = require(payload, "codebook", lambda value: isinstance(value, dict)
                       and "n_measurements" in value, "an object with 'n_measurements'",
                       ModelFormatError)
    training = require(payload, "training", lambda value: isinstance(value, dict),
                       "an object", ModelFormatError) if "training" in payload else {}
    try:
        return DiagnoserModel(
            hmm=hmm,
            fault_names=tuple(faults),
            codebook=AlarmSymbolCodebook(codebook["n_measurements"]),
            training=training,
        )
    except DomainError as exc:
        raise ModelFormatError(str(exc)) from exc


def save_diagnoser(model: DiagnoserModel, path) -> None:
    save_document(path, diagnoser_to_dict(model))


def load_diagnoser(path) -> DiagnoserModel:
    return load_document(path, diagnoser_from_dict, ModelFormatError)
