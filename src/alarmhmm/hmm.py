"""Discrete first-order hidden Markov models.

Scaled forward/backward inference, pooled multi-sequence Baum-Welch
training (each E-step sweeps forward/backward over batches of
sequences at once and builds no pair-posterior tensor) and exact
decoding over a finite observation alphabet: one list-Viterbi kernel
serves Viterbi, k-best and every prefix's best path, and decodes a
batch of sequences side by side, a single sequence being a batch of
one.  The forward/backward pass rescales at every step and keeps the
normalizers, decoding works entirely in log space, so long sequences do
not underflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .documents import (
    FORMAT_VERSION,
    check_version,
    is_finite_array,
    is_finite_number,
    is_int,
    require,
)
from .errors import DomainError, InferenceError, ModelFormatError, UnknownSymbolError

#: tolerance used when checking that probability rows sum to one
ROW_SUM_TOL = 1e-9


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_distribution(name: str, arr: np.ndarray) -> None:
    rows = np.atleast_2d(arr)
    if not np.isfinite(rows).all():
        raise DomainError(f"{name} contains non-finite entries")
    if (rows < 0).any():
        raise DomainError(f"{name} contains negative entries")
    sums = rows.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad.size:
        raise DomainError(
            f"{name} row {bad[0]} sums to {sums[bad[0]]!r}, expected 1 within {ROW_SUM_TOL}"
        )


@dataclass(frozen=True)
class Hmm:
    """A discrete hidden Markov model: the (transition, emission, initial) triple.

    Parameters
    ----------
    transition : (N, N) array; ``transition[i, j]`` is the probability of
        moving from hidden state ``i`` to state ``j``.  Rows sum to one.
    emission : (N, M) array; ``emission[j, k]`` is the probability that
        state ``j`` produces observation symbol ``k``.  Rows sum to one.
    initial : (N,) array; start-state distribution, sums to one.

    Arrays are copied and made read-only, so instances are immutable values
    that can be shared freely across threads.
    """

    transition: np.ndarray
    emission: np.ndarray
    initial: np.ndarray

    def __post_init__(self):
        a = _frozen_array(self.transition)
        b = _frozen_array(self.emission)
        pi = _frozen_array(self.initial)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError("transition must be a square matrix")
        n = a.shape[0]
        if b.ndim != 2 or b.shape[0] != n:
            raise DomainError("emission must have one row per state")
        if pi.shape != (n,):
            raise DomainError("initial must be a length-N vector")
        _check_distribution("transition", a)
        _check_distribution("emission", b)
        _check_distribution("initial", pi)
        object.__setattr__(self, "transition", a)
        object.__setattr__(self, "emission", b)
        object.__setattr__(self, "initial", pi)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.emission.shape[1]


@dataclass(frozen=True)
class TrellisResult:
    """Scaled forward/backward pass over one observation sequence.

    ``scale_factors[t]`` is the reciprocal of the unnormalized forward row
    sum at step ``t``, so ``log_likelihood == -sum(log(scale_factors))``.
    Unscaled quantities are recoverable as the scaled values divided by the
    cumulative products of the scale factors.
    """

    scaled_alpha: np.ndarray   # (T, N), every row sums to one
    scaled_beta: np.ndarray    # (T, N), rescaled with the same factors
    scale_factors: np.ndarray  # (T,), all > 0
    log_likelihood: float


@dataclass(frozen=True)
class Posteriors:
    """State and state-pair posteriors given a full observation sequence."""

    gamma: np.ndarray  # (T, N): gamma[t, i] = P(q_t = i | observations)
    xi: np.ndarray     # (T-1, N, N): xi[t, i, j] = P(q_t = i, q_{t+1} = j | observations)


@dataclass(frozen=True)
class StatePath:
    """A decoded hidden-state sequence with its joint log probability."""

    states: np.ndarray
    log_prob: float

    def __len__(self) -> int:
        return self.states.size


@dataclass(frozen=True)
class FitConfig:
    """Stopping and smoothing settings for :func:`fit`.

    ``emission_floor`` is applied after every M-step: emission and
    transition rows are renormalized with every entry held at or above the
    floor, which keeps decoding of test sequences containing symbols never
    seen in training from failing.  With ``update_transitions=False`` the
    transition matrix is held fixed, which backs hard-structured diagnoser
    variants.
    """

    max_iterations: int = 500
    rel_tol: float = 1e-6
    emission_floor: float = 1e-10
    update_transitions: bool = True

    def __post_init__(self):
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be >= 1")
        if not (is_finite_number(self.rel_tol) and self.rel_tol > 0):
            raise DomainError(f"rel_tol must be finite and positive, got {self.rel_tol!r}")
        if not (is_finite_number(self.emission_floor) and self.emission_floor >= 0):
            raise DomainError(
                f"emission_floor must be finite and non-negative, got {self.emission_floor!r}"
            )


def as_observations(obs, n_symbols: int) -> np.ndarray:
    """Validate a symbol sequence against an alphabet of ``n_symbols``.

    Accepts any 1-D integer sequence (or an object with a ``symbols``
    attribute) and returns it as an int64 array.  A symbol outside
    [0, ``n_symbols``) raises :class:`UnknownSymbolError`.
    """
    arr = np.asarray(getattr(obs, "symbols", obs))
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("observation sequence must be a non-empty 1-D list of symbol indices")
    if not np.issubdtype(arr.dtype, np.integer):
        cast = arr.astype(np.int64, copy=True)
        if arr.dtype.kind != "f" or not np.array_equal(cast, arr):
            raise DomainError("symbol indices must be integers")
        arr = cast
    out = arr.astype(np.int64)
    bad = np.flatnonzero((out < 0) | (out >= n_symbols))
    if bad.size:
        pos = int(bad[0])
        raise UnknownSymbolError(
            f"symbol {int(out[pos])} at position {pos} is outside [0, {n_symbols})"
        )
    return out


@dataclass(frozen=True)
class _Batch:
    """Observation sequences stacked time-major, longest first, zero-padded.

    Column ``c`` holds sequence ``order[c]`` of the caller's list, so the
    first ``active[t]`` columns are the sequences still running at step
    ``t``; ``active`` has one extra, zero entry after the last step.
    """

    symbols: np.ndarray  # (L, S) int64
    order: np.ndarray    # (S,)
    active: np.ndarray   # (L + 1,)


def _batch(seqs: list[np.ndarray]) -> _Batch:
    lengths = np.array([o.size for o in seqs], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    steps = np.arange(lengths.max(initial=0) + 1)
    symbols = np.zeros((steps.size - 1, lengths.size), dtype=np.int64)
    for column, index in enumerate(order):
        symbols[: lengths[index], column] = seqs[index]
    return _Batch(symbols, order, np.count_nonzero(steps[:, None] < lengths, axis=1))


def _batches(seqs: list[np.ndarray], n_states: int) -> list[_Batch]:
    """``seqs`` in list-order chunks of at most ``n_states`` sequences.

    A chunk's (L, S, N) arrays are then no larger than the (T, N, N)
    pair posteriors of its longest sequence.  Larger arrays raise the
    peak memory of a process that goes on allocating after training: once
    the allocator has freed blocks of several megabytes, it serves more
    requests from, and keeps more freed memory in, its heap.
    """
    return [_batch(seqs[start:start + n_states]) for start in range(0, len(seqs), n_states)]


def _forward(model: Hmm, batch: _Batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled forward recursion over every sequence of ``batch`` at once.

    Returns ``(emit, alpha, scale)``: the emission probabilities of the
    observed symbols and the scaled forward variables, both (L, S, N),
    and the (L, S) scale factors.  ``emit`` and ``alpha`` are zero and
    ``scale`` one past a sequence's end.  A zero total probability raises
    :class:`InferenceError` naming the step, taken from the first failing
    sequence in the caller's list.
    """
    emit = model.emission.T[batch.symbols]
    alpha = np.zeros_like(emit)
    total = np.ones(batch.symbols.shape)
    # A failed step turns the rest of its sequence NaN, which is never
    # <= 0, so each failing sequence shows exactly one failed step.
    with np.errstate(divide="ignore", invalid="ignore"):
        for t, k in enumerate(batch.active[:-1]):
            emit[t, k:] = 0.0
            prior = model.initial if t == 0 else alpha[t - 1, :k] @ model.transition
            row = prior * emit[t, :k]
            total[t, :k] = row.sum(axis=1)
            alpha[t, :k] = row * (1.0 / total[t, :k, None])
    failed = total <= 0.0
    if failed.any():
        columns = np.flatnonzero(failed.any(axis=0))
        column = columns[np.argmin(batch.order[columns])]
        step = int(np.argmax(failed[:, column]))
        raise InferenceError(f"zero total forward probability at step {step}")
    return emit, alpha, 1.0 / total


def _backward(model: Hmm, batch: _Batch, emit: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Scaled backward variables matching :func:`_forward`, zero past each end."""
    beta = np.zeros_like(emit)
    for t in range(beta.shape[0] - 1, -1, -1):
        k_next, k = batch.active[t + 1], batch.active[t]
        beta[t, k_next:k] = scale[t, k_next:k, None]
        if k_next:
            beta[t, :k_next] = scale[t, :k_next, None] * (
                (emit[t + 1, :k_next] * beta[t + 1, :k_next]) @ model.transition.T
            )
    return beta


def forward_backward(model: Hmm, obs) -> TrellisResult:
    """Run the scaled forward and backward recursions.

    Parameters
    ----------
    model : the HMM to evaluate under.
    obs : symbol sequence; every index must be < ``model.n_symbols``.

    Returns the per-step normalized forward and backward variables, the
    normalizers and the exact log likelihood of the sequence.  Raises
    :class:`InferenceError` if some step has zero total probability (only
    possible when the model contains exact zeros).
    """
    batch = _batch([as_observations(obs, model.n_symbols)])
    emit, alpha, scale = _forward(model, batch)
    beta = _backward(model, batch, emit, scale)
    return TrellisResult(
        scaled_alpha=_frozen_array(alpha[:, 0]),
        scaled_beta=_frozen_array(beta[:, 0]),
        scale_factors=_frozen_array(scale[:, 0]),
        log_likelihood=float(-np.log(scale).sum()),
    )


def posteriors(model: Hmm, obs, trellis: TrellisResult) -> Posteriors:
    """Combine a trellis into state and state-pair posteriors.

    The scale factors cancel, so the results equal the unscaled posterior
    definitions exactly.  The trellis must come from ``forward_backward``
    on the same model and observations.
    """
    o = as_observations(obs, model.n_symbols)
    t_len, n = o.size, model.n_states
    if trellis.scaled_alpha.shape != (t_len, n):
        raise DomainError(
            f"trellis shape {trellis.scaled_alpha.shape} does not match "
            f"{t_len} observations and {n} states"
        )

    joint = trellis.scaled_alpha * trellis.scaled_beta
    gamma = joint / joint.sum(axis=1, keepdims=True)

    if t_len == 1:
        xi = np.zeros((0, n, n))
    else:
        weighted = model.emission[:, o[1:]].T * trellis.scaled_beta[1:]  # (T-1, N)
        xi = (
            trellis.scaled_alpha[:-1, :, None]
            * model.transition[None, :, :]
            * weighted[:, None, :]
        )
        xi /= xi.sum(axis=(1, 2), keepdims=True)
    return Posteriors(gamma=_frozen_array(gamma), xi=_frozen_array(xi))


def _log_likelihood(model: Hmm, batches: list[_Batch]) -> float:
    return float(-sum(np.log(_forward(model, batch)[2]).sum() for batch in batches))


def total_log_likelihood(model: Hmm, sequences: Sequence) -> float:
    """Sum of per-sequence log likelihoods under ``model``."""
    seqs = [as_observations(s, model.n_symbols) for s in sequences]
    return _log_likelihood(model, _batches(seqs, model.n_states))


def _floor_rows(rows: np.ndarray, floor: float) -> np.ndarray:
    """Renormalize rows to sum to one with every entry at least ``floor``."""
    out = np.array(rows, dtype=float)
    sums = out.sum(axis=1, keepdims=True)
    dead = sums[:, 0] <= 0.0
    if dead.any():
        out[dead] = 1.0 / out.shape[1]
        sums = out.sum(axis=1, keepdims=True)
    out /= sums
    if floor <= 0.0:
        return out
    if floor * out.shape[1] >= 1.0:
        raise DomainError("smoothing floor too large for the alphabet size")
    for row in out:
        # Pin sub-floor entries and rescale the rest; repeat in case the
        # rescaling pushed a borderline entry under the floor.
        while True:
            low = row < floor
            if not low.any():
                break
            high = ~low
            row[low] = floor
            row[high] *= (1.0 - floor * low.sum()) / row[high].sum()
    return out


@dataclass
class _EStats:
    trans_num: np.ndarray
    trans_den: np.ndarray
    emit_num: np.ndarray
    emit_den: np.ndarray
    initial_sum: np.ndarray
    n_sequences: int


def _expectation(model: Hmm, batches: list[_Batch]) -> tuple[_EStats, float]:
    """Pooled E-step statistics of every sequence, one sweep per batch.

    With these scale factors every ``xi[t]`` already sums to one, so the
    pooled state-pair posteriors are one matrix product and no ``xi``
    tensor is built; the trellis is zero past each sequence's end, which
    drops the pairs that run into the padding.  The (L, S, N) arrays are
    reused in place, so a sweep holds three of them.
    """
    n, m = model.n_states, model.n_symbols
    stats = _EStats(np.zeros((n, n)), np.zeros(n), np.zeros((n, m)), np.zeros(n), np.zeros(n), 0)
    log_likelihood = 0.0
    for batch in batches:
        emit, alpha, scale = _forward(model, batch)
        gamma = _backward(model, batch, emit, scale)
        emit *= gamma
        stats.trans_num += model.transition * (alpha[:-1].reshape(-1, n).T @ emit[1:].reshape(-1, n))
        valid = np.arange(batch.order.size) < batch.active[:-1, None]  # (L, S)
        gamma *= alpha
        gamma /= np.where(valid, gamma.sum(axis=2), 1.0)[:, :, None]
        stats.trans_den += np.einsum("ts,tsn->n", valid[1:], gamma[:-1])
        symbols, rows = batch.symbols.ravel(), gamma.reshape(-1, n)
        for state in range(n):
            stats.emit_num[state] += np.bincount(symbols, weights=rows[:, state], minlength=m)
        stats.emit_den += gamma.sum(axis=(0, 1))
        stats.initial_sum += gamma[0].sum(axis=0)
        stats.n_sequences += batch.order.size
        log_likelihood -= np.log(scale).sum()
    return stats, float(log_likelihood)


def _maximization(model: Hmm, stats: _EStats, config: FitConfig) -> Hmm:
    new_initial = stats.initial_sum / stats.n_sequences
    new_initial = new_initial / new_initial.sum()

    if config.update_transitions:
        trans = np.array(model.transition)
        visited = stats.trans_den > 0.0
        trans[visited] = stats.trans_num[visited] / stats.trans_den[visited, None]
        trans = _floor_rows(trans, config.emission_floor)
    else:
        trans = model.transition

    emit = np.array(model.emission)
    seen = stats.emit_den > 0.0
    emit[seen] = stats.emit_num[seen] / stats.emit_den[seen, None]
    emit = _floor_rows(emit, config.emission_floor)

    return Hmm(trans, emit, new_initial)


def fit(
    initial_model: Hmm,
    sequences: Sequence,
    config: FitConfig | None = None,
    *,
    on_iteration: Callable[[int, Hmm, float], None] | None = None,
) -> tuple[Hmm, np.ndarray]:
    """Baum-Welch training pooled over multiple observation sequences.

    Numerator and denominator sums of the transition and emission updates
    are pooled across sequences before dividing; the initial distribution
    is the average of the per-sequence first-step posteriors.  After every
    M-step, emission and transition rows are floored at
    ``config.emission_floor`` and renormalized.  Sequences of length one
    contribute to the initial-state and emission updates only.

    Parameters
    ----------
    initial_model : starting point; also supplies N and M.
    sequences : non-empty list of symbol sequences.
    config : see :class:`FitConfig`; defaults apply when omitted.
    on_iteration : optional callback ``(iteration, model, log_likelihood)``
        invoked once per iteration with the model being evaluated.

    Returns
    -------
    (model, trace) where ``trace[k]`` is the total log likelihood of the
    model after ``k`` EM updates.  The trace is non-decreasing up to tiny
    floating-point slack and always ends at the returned model.  Training
    stops once the relative improvement drops below ``config.rel_tol`` or
    after ``config.max_iterations`` updates.
    """
    if config is None:
        config = FitConfig()
    model = initial_model
    seqs = [as_observations(s, model.n_symbols) for s in sequences]
    if not seqs:
        raise DomainError("fit requires at least one observation sequence")

    batches = _batches(seqs, model.n_states)
    trace: list[float] = []
    for iteration in range(config.max_iterations):
        stats, log_likelihood = _expectation(model, batches)
        trace.append(log_likelihood)
        if on_iteration is not None:
            on_iteration(iteration, model, log_likelihood)
        if iteration > 0:
            previous = trace[-2]
            floor = max(abs(previous), np.finfo(float).tiny)
            if log_likelihood - previous < config.rel_tol * floor:
                break
        model = _maximization(model, stats, config)
    else:
        # Budget exhausted: evaluate once more so the trace ends at the
        # returned model.
        log_likelihood = _log_likelihood(model, batches)
        trace.append(log_likelihood)
        if on_iteration is not None:
            on_iteration(config.max_iterations, model, log_likelihood)
    return model, np.asarray(trace)


class _FloodError(InferenceError):
    """A decoding failure of the flood at ``index`` in the decoded batch's list.

    It takes its message first, as every package error does, so that
    :func:`~alarmhmm.errors.located` can rebuild it.
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


def _list_viterbi(
    model: Hmm, batch: _Batch, k: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Parallel list-Viterbi pass (Seshadri & Sundberg 1994) over every flood
    of ``batch`` side by side, one step at a time.

    After step ``t`` it yields ``(score, paths)`` for the ``a = active[t]``
    floods still running, which are the batch's leading columns:
    ``score[s, j, r]`` is the log probability of the ``r``-th best path over
    the first ``t + 1`` symbols of column ``s`` that ends in state ``j``, and
    row ``(s * N + j) * w + r`` of ``paths`` is that path's states, where a
    cell keeps ``w = min(k, N**t)`` entries and is never padded.  Candidates
    rank by total score, emission term included, then by entry order (lowest
    row of the previous step first), within each flood.  Step ``t`` reads
    only the first ``t + 1`` symbols, so every step's yield is the answer for
    that prefix; a flood's last yield is at its own last step.

    The step's candidates form one ``(N * w, a * N)`` matrix: row ``i * w + r``
    is entry ``[i, r]`` of every flood and column ``s * N + j`` is state ``j``
    of flood ``s``, so each of the ``k`` selection rounds is one reduction
    over the rows for all floods at once, and a batch of one is the plain
    single-flood step.  A flood that fails keeps being decoded on ``-inf``
    scores; once every step is done, a :class:`_FloodError` names the step
    at which the failing flood that comes first in the caller's list failed,
    and carries that flood's list index.
    """
    n = model.n_states
    with np.errstate(divide="ignore"):
        log_trans = np.log(model.transition)
        log_emit = np.log(model.emission)
        log_initial = np.log(model.initial)
    # bonus[t, s * N + j] is the log emission term of state j for flood s at step t.
    bonus = log_emit.T[batch.symbols].reshape(batch.symbols.shape[0], -1)
    active = batch.active.tolist()
    # best[t, s * N + j] is the rank-0 score of state j for flood s at step t,
    # zero past the flood's end, so failures are found once, after the last step.
    best = np.zeros(bonus.shape)
    layouts: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    a = active[0]
    score = (log_initial + bonus[0, : a * n].reshape(a, n))[:, :, None]
    best[0, : a * n] = score.ravel()
    paths = np.tile(np.arange(n), a)[:, None]
    yield score, paths
    for t in range(1, len(active) - 1):
        a, w = active[t], score.shape[2]
        width = min(k, n * w)
        layout = layouts.get((a, w, width))
        if layout is None:
            # the columns, each column's first row of its flood's entries,
            # and the state column appended to the paths
            layout = layouts[a, w, width] = (
                np.arange(a * n),
                np.arange(a).repeat(n)[:, None] * (n * w),
                np.tile(np.arange(n).repeat(width), a)[:, None],
            )
        columns, offsets, states = layout
        cand = np.add(score[:a].transpose(1, 2, 0)[:, :, :, None],
                      log_trans[:, None, None, :], order="C").reshape(n * w, a * n)
        cand += bonus[t, : a * n]
        top = np.empty((a * n, width))
        picks = np.empty((a * n, width), dtype=np.int64)
        for rank in range(width):
            # A taken entry turns NaN, which fmax skips and == never matches;
            # argmax over the matches takes the lowest index.
            top[:, rank] = np.fmax.reduce(cand, axis=0)
            picks[:, rank] = (cand == top[:, rank]).argmax(axis=0)
            cand[picks[:, rank], columns] = np.nan
        best[t, : a * n] = top[:, 0]
        score = top.reshape(a, n, width)
        picks += offsets
        paths = np.concatenate((paths[picks.ravel()], states), axis=1)
        yield score, paths
    dead = best.reshape(*batch.symbols.shape, n).max(axis=2) == -np.inf
    if dead.any():
        columns = np.flatnonzero(dead.any(axis=0))
        column = columns[np.argmin(batch.order[columns])]
        step = int(np.argmax(dead[:, column]))
        raise _FloodError(
            "no state can produce the observation at step 0" if step == 0
            else f"no admissible state path at step {step}",
            int(batch.order[column]),
        )


def _best_paths(score: np.ndarray, paths: np.ndarray, k: int) -> list[StatePath]:
    """The ``k`` best of one list-Viterbi step's entries, best first.

    Ranked by score, then by entry order (one stable sort).
    """
    final = score.ravel()
    return [
        StatePath(states=_frozen_array(paths[row], dtype=np.int64), log_prob=float(final[row]))
        for row in np.argsort(-final, kind="stable")[:k]
    ]


def _k_best(model: Hmm, batch: _Batch, k: int) -> list[list[StatePath]]:
    """The ``k`` best paths of every flood of ``batch``, in the caller's list order."""
    found: list[list[StatePath]] = [[] for _ in batch.order]
    for t, (score, paths) in enumerate(_list_viterbi(model, batch, k)):
        rows = score[0].size
        for column in range(batch.active[t + 1], batch.active[t]):
            found[batch.order[column]] = _best_paths(
                score[column], paths[column * rows:(column + 1) * rows], k
            )
    return found


def k_best_paths(model: Hmm, obs, k: int) -> list[StatePath]:
    """The ``k`` highest-probability state paths, best first (list Viterbi).

    Every (time, state) cell keeps its ``k`` best entries, so the result is
    exact.  Paths are distinct and ordered by non-increasing log
    probability, exact ties by entry order (lower state, then the entry
    its cell ranked first), so the first path is :func:`viterbi`'s for any
    ``k``.  If fewer than ``k`` distinct paths exist, all are returned.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    return _k_best(model, _batch([as_observations(obs, model.n_symbols)]), k)[0]


def viterbi(model: Hmm, obs) -> StatePath:
    """Most probable state path for ``obs``, computed in log space.

    Ties in every maximization resolve toward the lowest state index, so
    this is rank 0 of :func:`k_best_paths` for any ``k``.  Raises
    :class:`InferenceError` when no state can produce the observed symbol
    at some step (possible only for models with exact zeros).
    """
    return k_best_paths(model, obs, 1)[0]


def prefix_paths(model: Hmm, obs) -> list[StatePath]:
    """``viterbi(model, obs[:p+1])`` for every ``p``, from one decoding pass.

    The last element is rank 0 of :func:`k_best_paths` for any ``k``.
    """
    batch = _batch([as_observations(obs, model.n_symbols)])
    return [_best_paths(score[0], paths, 1)[0] for score, paths in _list_viterbi(model, batch, 1)]


def random_model(n_states: int, n_symbols: int, seed: int = 0) -> Hmm:
    """A random valid model with Dirichlet(1) rows; useful for tests."""
    if n_states < 1 or n_symbols < 1:
        raise DomainError("n_states and n_symbols must be positive")
    rng = np.random.default_rng(seed)
    return Hmm(
        transition=rng.dirichlet(np.ones(n_states), size=n_states),
        emission=rng.dirichlet(np.ones(n_symbols), size=n_states),
        initial=rng.dirichlet(np.ones(n_states)),
    )


def hmm_to_dict(model: Hmm) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "n_states": model.n_states,
        "n_symbols": model.n_symbols,
        "transition": [list(row) for row in model.transition],
        "emission": [list(row) for row in model.emission],
        "initial": list(model.initial),
    }


def hmm_from_dict(payload: dict) -> Hmm:
    """Check a model document and build its :class:`Hmm`; nothing is coerced."""
    check_version(payload, ModelFormatError)
    sizes = [require(payload, key, is_int, "an integer", ModelFormatError)
             for key in ("n_states", "n_symbols")]
    arrays = [require(payload, key, lambda value: is_finite_array(value, ndim),
                    f"a {ndim}-D array of finite numbers", ModelFormatError)
              for key, ndim in (("transition", 2), ("emission", 2), ("initial", 1))]
    try:
        model = Hmm(*arrays)
    except (DomainError, ValueError) as exc:
        raise ModelFormatError(f"model arrays are invalid: {exc}") from exc
    if [model.n_states, model.n_symbols] != sizes:
        raise ModelFormatError("declared n_states/n_symbols do not match the stored arrays")
    return model
