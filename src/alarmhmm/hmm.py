"""Discrete first-order hidden Markov models.

One scaled forward/backward kernel pair sweeps batches of sequences at
once; it serves pooled multi-sequence Baum-Welch training (whose E-step
builds no pair-posterior tensor) and the total log likelihood.  A
transition with one value ``d`` on its diagonal and one ``e`` elsewhere,
the diagnoser's pinned one, is ``(d - e) I + e J``, so the kernels apply it
in O(N) per row (Felzenszwalb, Huttenlocher & Kleinberg 2004); any other
transition takes an (N, N) product per step.  Exact
decoding over a finite observation alphabet has one list-Viterbi step,
:class:`_ListStep`, for Viterbi and k-best: it alone knows a step's widths
and ``-inf`` scores, reads the previous step's scores and that step's
emission-log rows, and fills one buffer in place.  :func:`k_best_paths`
pushes one sequence's symbols through it; a batch pass decodes many side
by side, yielding per-sequence scores and back-pointers, which only the
k-best reader traces.  The diagnoser's verdicts decode nothing: they read
:func:`_fault_scores`, each state's log emission terms summed along time.
The forward/backward pass
rescales at every step and keeps the normalizers private to the kernels,
decoding works entirely in log space, so long sequences do not underflow.
Training, the likelihood and decoding start an error about one sequence
with ``sequence <i>: ``, a single sequence being ``sequence 0``.
The module needs numpy alone, so training and diagnosis load no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .documents import (
    FORMAT_VERSION,
    check_int,
    check_number,
    check_version,
    is_array,
    is_finite_array,
    is_int,
    require,
)
from .errors import DomainError, InferenceError, ModelFormatError, UnknownSymbolError, located

#: tolerance used when checking that probability rows sum to one
ROW_SUM_TOL = 1e-9

#: the least float: no sum of log probabilities reaches it, and it lies above ``-inf``
_LEAST = np.finfo(float).min


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
    with np.errstate(over="ignore"):  # a row of huge entries sums to inf
        sums = rows.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad.size:
        raise DomainError(
            f"{name} row {bad[0]} sums to {float(sums[bad[0]])!r}, expected 1 within {ROW_SUM_TOL}"
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
    that can be shared freely across threads.  Two caches derived from the
    arrays live on the instance, outside the dataclass fields, so equality,
    ``repr`` and :func:`hmm_to_dict` never see them: the first forward pass
    keeps ``_pinned``, the transition's ``(d - e, e)`` form or ``None``, and
    the first decode keeps ``_log_space``, the model's read-only log arrays.
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

    @cached_property
    def _pinned(self) -> tuple[float, float] | None:
        """``(d - e, e)`` when every diagonal entry of the transition is one
        number ``d`` and every other entry one number ``e`` (N >= 2), else
        ``None``.  Such a transition is ``(d - e) I + e J``, so the
        forward/backward steps apply it without an (N, N) product."""
        n = self.n_states
        d, e = self.transition[0, 0], self.transition[0, -1]
        form = np.full((n, n), e)
        np.fill_diagonal(form, d)
        return (float(d - e), float(e)) if n > 1 and np.array_equal(self.transition, form) else None

    @cached_property
    def _log_space(self) -> _LogSpace:
        """The decoder's log-space arrays, built on the first decode, so a
        model that is never decoded (each EM iteration's) builds none."""
        return _LogSpace(self)


class _LogSpace:
    """A model's arrays in log space, as the list-Viterbi step reads them.

    ``transition`` and ``emission`` are the C-contiguous ``log(transition).T``
    (N, N), a row per next state, and ``log(emission).T`` (M, N), a row per
    symbol; ``zeros`` says whether any log is ``-inf``.  Everything is
    read-only and fixed once built, like the model.
    """

    def __init__(self, model: Hmm):
        with np.errstate(divide="ignore"):
            trans, emit, initial = (np.log(arr) for arr in (model.transition, model.emission,
                                                             model.initial))
        self.n = model.n_states
        self.initial = initial
        self.transition = np.ascontiguousarray(trans.T)
        self.emission = np.ascontiguousarray(emit.T)
        self.zeros = any(np.isneginf(logs).any() for logs in (trans, emit, initial))
        for arr in (initial, self.transition, self.emission):
            arr.setflags(write=False)


@dataclass(frozen=True)
class StatePath:
    """A decoded hidden-state sequence with its joint log probability."""

    states: np.ndarray
    log_prob: float


@dataclass(frozen=True)
class FitConfig:
    """Stopping and smoothing settings for :func:`fit`.

    ``emission_floor`` is applied after every M-step: emission and
    re-estimated transition rows are renormalized with every entry held at
    or above the floor, which keeps decoding of test sequences containing
    symbols never seen in training from failing.  :func:`fit` rejects a
    floor of ``1/M`` or more for ``M`` symbols, or of ``1/N`` or more for
    ``N`` states when it re-estimates the transitions, before its first
    E-step.
    """

    max_iterations: int = 500
    rel_tol: float = 1e-6
    emission_floor: float = 1e-10

    def __post_init__(self):
        check_int(self.max_iterations, "max_iterations", 1)
        check_number(self.rel_tol, "rel_tol", 0, strict=True)
        check_number(self.emission_floor, "emission_floor", 0)


def as_symbols(obs, n_symbols: int | None = None) -> np.ndarray:
    """The package's one symbol rule: ``obs`` (or its ``symbols``) as an array
    if it is 1-D and empty or of an integer dtype, and holds no bool if it is a
    list or tuple, else :class:`DomainError`; given ``n_symbols``, the first
    symbol outside [0, ``n_symbols``) raises :class:`UnknownSymbolError`
    naming its position."""
    symbols = getattr(obs, "symbols", obs)
    arr = np.asarray(symbols)
    if arr.ndim != 1:
        raise DomainError("symbol indices must form a 1-D list")
    # numpy gives a list that mixes integers and bools an integer dtype.
    if arr.size and arr.dtype.kind not in "iu" or (
            is_array(symbols) and not {bool, np.bool_}.isdisjoint(map(type, symbols))):
        raise DomainError("symbol indices must be integers")
    if n_symbols is not None and arr.size:
        # Read as unsigned, a negative symbol is at least 2**(bits - 1), above every
        # valid one, so a single max tests both ends of the range.
        top = 2 ** (8 * arr.itemsize - (arr.dtype.kind == "i"))
        if arr.view(arr.dtype.str.replace("i", "u")).max() >= min(n_symbols, top):
            bad = np.flatnonzero((arr < 0) | (arr >= n_symbols))
            raise UnknownSymbolError(
                f"symbol {arr[bad[0]]} at position {bad[0]} is outside [0, {n_symbols})")
    return arr


def as_observations(obs, n_symbols: int) -> np.ndarray:
    """The :func:`as_symbols` of a non-empty sequence, as an int64 array."""
    arr = as_symbols(obs, n_symbols)
    if arr.size == 0:
        raise DomainError("observation sequence must be a non-empty 1-D list of symbol indices")
    return arr.astype(np.int64)


def _observations(sequences: Sequence, n_symbols: int) -> list[np.ndarray]:
    """:func:`as_observations` of every sequence; an error names ``sequence <i>``."""
    observations = []
    for index, sequence in enumerate(sequences):
        with located(f"sequence {index}"):
            observations.append(as_observations(sequence, n_symbols))
    return observations


@dataclass(frozen=True)
class _Batch:
    """Observation sequences stacked time-major, longest first, zero-padded.

    Column ``c`` holds sequence ``order[c]`` of the caller's whole list, so
    the first ``active[t]`` columns are the sequences still running at step
    ``t``; ``active`` has one extra, zero entry after the last step.
    """

    symbols: np.ndarray  # (L, S) int64
    order: np.ndarray    # (S,)
    active: np.ndarray   # (L + 1,)

    @property
    def padding(self) -> np.ndarray:
        """The (L, S) mask of the cells past each sequence's end."""
        return np.arange(self.order.size) >= self.active[:-1, None]


def _batch(seqs: list[np.ndarray], first: int = 0) -> _Batch:
    """``seqs`` as a :class:`_Batch`, ``seqs[0]`` being the caller's sequence ``first``."""
    lengths = np.array([o.size for o in seqs], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    steps = np.arange(lengths.max(initial=0) + 1)
    symbols = np.zeros((steps.size - 1, lengths.size), dtype=np.int64)
    for column, index in enumerate(order):
        symbols[: lengths[index], column] = seqs[index]
    return _Batch(symbols, first + order, np.count_nonzero(steps[:, None] < lengths, axis=1))


def _batches(seqs: list[np.ndarray], n_states: int) -> list[_Batch]:
    """``seqs`` in list-order chunks of at most ``n_states`` sequences, as the
    E-step, the k-best pass and :func:`_fault_scores` take them.

    The cap is set by peak RSS, not speed: on the benchmark's scaled plants,
    one batch of every sequence raised the peak RSS (``ru_maxrss``, 2 vCPUs)
    of ``train_diagnoser`` by 17.3-17.6 MB against 9.4-9.7 MB in chunks that
    share one workspace, and of ``diagnose_all`` by 5.7-6.2 MB against 0.4-0.6 MB.
    """
    return [_batch(seqs[start:start + n_states], start) for start in range(0, len(seqs), n_states)]


def _raise_first_failure(order: np.ndarray, failed: np.ndarray, what: Callable[[int], str]) -> None:
    """Raise :class:`InferenceError` if any cell of the (L, S) ``failed`` mask is set.

    Column ``c`` is sequence ``order[c]`` of the caller's list.  Of the
    failing sequences, the one that comes first in that list is named, with
    ``what(step)`` at its first failed step.
    """
    if failed.any():
        columns = np.flatnonzero(failed.any(axis=0))
        column = columns[np.argmin(order[columns])]
        step = int(np.argmax(failed[:, column]))
        raise InferenceError(f"sequence {order[column]}: {what(step)} at step {step}")


def _workspace(batches: list[_Batch], n: int) -> list[np.ndarray]:
    """One call's three flat buffers, each the size of the largest batch's (L, S, N) trellis."""
    return [np.empty(max((b.symbols.size for b in batches), default=0) * n) for _ in range(3)]


def _ranks(batch: _Batch) -> tuple[np.ndarray, list[np.ndarray]]:
    """``(present, ranks)``: the symbols of ``batch``'s running cells, most frequent
    first, and ``ranks[r]``, the ``r``-th cell in position order of each symbol of
    ``present`` that has more than ``r`` cells (a prefix of ``present``).

    Summing the cells' rows rank by rank from rank 0 adds each symbol's rows
    from 0.0 in position order, as ``np.bincount`` does.
    """
    cells = np.flatnonzero(~batch.padding.ravel())
    symbols = batch.symbols.ravel()[cells]
    counts = np.bincount(symbols)
    present = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
    # Each symbol's place in ``present``, in the smallest type: a stable sort of it is a radix sort.
    place = np.empty(counts.size, dtype=np.min_scalar_type(present.size))
    place[present] = np.arange(present.size)
    counts = counts[present]
    keys = place[symbols]
    grouped = np.argsort(keys, kind="stable")
    # Rank r holds the first widths[r] symbols of ``present``, and ends at cell ends[r] of the plan.
    widths = np.searchsorted(-counts, -np.arange(counts[0]))
    ends = np.cumsum(widths)
    # The r-th cell of symbol present[f] goes to slot f of rank r.
    rank = np.arange(cells.size) - np.repeat(np.cumsum(counts) - counts, counts)
    plan = np.empty_like(cells)
    plan[(ends - widths)[rank] + keys[grouped]] = cells[grouped]
    return present, [plan[end - width:end] for end, width in zip(ends.tolist(), widths.tolist())]


def _forward(model: Hmm, batch: _Batch, work: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled forward recursion over every sequence of ``batch`` at once.

    Returns ``(emit, alpha, scale)``: the emission probabilities of the
    observed symbols and the scaled forward variables, (L, S, N) views of
    ``work[0]`` and ``work[1]`` that are zero past a sequence's end, and the
    (L, S) scale factors, one there.  The padding is cleared once by the
    batch's mask, and each step writes its running rows in place.  A step
    carries the previous rows through the transition by its ``(d - e) I + e J``
    form when the model has one (``Hmm._pinned``): ``(d - e) alpha[t - 1] + e``,
    with no row sum, since each scaled row sums to one; else by the (N, N)
    product.  A zero total probability raises :class:`InferenceError` through
    :func:`_raise_first_failure`.
    """
    shape = (*batch.symbols.shape, model.n_states)
    emit, alpha = (buffer[: np.prod(shape)].reshape(shape) for buffer in work[:2])
    # The symbols are checked, so "clip" clips nothing; "raise" would fill a copy first.
    np.take(model.emission.T, batch.symbols, axis=0, out=emit, mode="clip")
    emit[batch.padding] = alpha[batch.padding] = 0.0
    total = np.ones(batch.symbols.shape)
    pinned = model._pinned
    # A failed step turns the rest of its sequence NaN, which is never
    # <= 0, so each failing sequence shows exactly one failed step.
    with np.errstate(divide="ignore", invalid="ignore"):
        for t, k in enumerate(batch.active[:-1].tolist()):
            row = alpha[t, :k]
            if not t:
                prior = model.initial
            elif pinned:
                # The previous row sums to one, so its product with e J is e.
                prior = np.multiply(alpha[t - 1, :k], pinned[0], out=row)
                row += pinned[1]
            else:
                prior = np.matmul(alpha[t - 1, :k], model.transition, out=row)
            np.multiply(prior, emit[t, :k], out=row)
            np.add.reduce(row, axis=1, out=total[t, :k])
            row *= 1.0 / total[t, :k, None]
    _raise_first_failure(batch.order, total <= 0.0, lambda step: "zero total forward probability")
    return emit, alpha, 1.0 / total


def _backward(
    model: Hmm, batch: _Batch, emit: np.ndarray, scale: np.ndarray, buffer: np.ndarray
) -> np.ndarray:
    """Scaled backward variables matching :func:`_forward`, zero past each end, in ``buffer``.

    The padding is cleared once by the batch's mask, and each step writes its rows in place.
    With ``x = emit[t + 1] beta[t + 1]``, a step is ``(d - e) x + e sum(x)`` for a
    transition of the ``(d - e) I + e J`` form (``Hmm._pinned``), and the (N, N)
    product ``x A.T`` otherwise; either is then scaled.
    """
    beta = buffer[: emit.size].reshape(emit.shape)
    beta[batch.padding] = 0.0
    active, pinned = batch.active.tolist(), model._pinned
    if pinned:
        diagonal, off = pinned[0], np.full(model.n_states, pinned[1])
    for t in range(beta.shape[0] - 1, -1, -1):
        k_next, k = active[t + 1], active[t]
        if k_next < k:
            beta[t, k_next:k] = scale[t, k_next:k, None]
        if k_next:
            row = beta[t, :k_next]
            if pinned:
                # x is built in place and e sum(x) is x @ (e, ..., e): at N = 10 each
                # numpy call saved counts, as a step is only a few microseconds.
                np.multiply(emit[t + 1, :k_next], beta[t + 1, :k_next], out=row)
                lift = row @ off
                row *= diagonal
                row += lift[:, None]
            else:
                np.matmul(emit[t + 1, :k_next] * beta[t + 1, :k_next], model.transition.T, out=row)
            row *= scale[t, :k_next, None]
    return beta


def _log_likelihood(model: Hmm, batches: list[_Batch], work: list) -> float:
    """0.0 minus the summed log scale factors, as the E-step counts it, so a zero is +0.0."""
    return float(0.0 - sum(np.log(_forward(model, batch, work)[2]).sum() for batch in batches))


def total_log_likelihood(model: Hmm, sequences: Sequence) -> float:
    """Sum of per-sequence log likelihoods under ``model``."""
    batches = _batches(_observations(sequences, model.n_symbols), model.n_states)
    return _log_likelihood(model, batches, _workspace(batches, model.n_states))


def _floor_rows(rows: np.ndarray, floor: float) -> np.ndarray:
    """Normalize rows of positive sum to one with every entry at least ``floor``.

    Each pass pins the sub-floor entries of every row that has one and
    rescales the rest of that row by their own ``.sum()``, which is pairwise
    (``np.add.reduceat`` adds in order and differs in the last bit); passes
    repeat while a rescale pushes a borderline entry under the floor."""
    out = rows / rows.sum(axis=1, keepdims=True)
    while (pinned := np.flatnonzero((out < floor).any(axis=1))).size:
        kept, low = out[pinned], out[pinned] < floor
        sums = np.array([row[~mask].sum() for row, mask in zip(kept, low)])
        out[pinned] = np.where(low, floor, kept * ((1.0 - floor * low.sum(axis=1)) / sums)[:, None])
    return out


def _expectation(
    model: Hmm, batches: list[_Batch], plans: list, fixed_transitions: bool, work: list
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Pooled Baum-Welch numerators of every sequence, one sweep per batch.

    Returns the (N, N) expected transition counts, the (N, M) expected
    emission counts, the summed first-state posteriors and the log
    likelihood.  Each update's denominator is the row sum of its
    numerator, so none is pooled.  With these scale factors every ``xi[t]``
    already sums to one, so the pooled state-pair posteriors are one
    matrix product and no ``xi`` tensor is built; the trellis is zero past
    each sequence's end, which drops the pairs that run into the padding;
    ``fixed_transitions`` leaves the transition counts at zero.  A batch's
    emission counts (Rabiner 1989, eq. 40c) sum its state posteriors rank by
    rank over its :func:`_ranks` plan, with the bits of per-state ``np.bincount``
    calls.  Every batch's (L, S, N) arrays are views of ``work``.
    """
    n, m = model.n_states, model.n_symbols
    trans_num, emit_num, first = np.zeros((n, n)), np.zeros((n, m)), np.zeros(n)
    log_likelihood = 0.0
    for batch, (present, ranks) in zip(batches, plans):
        emit, alpha, scale = _forward(model, batch, work)
        gamma = _backward(model, batch, emit, scale, work[2])
        if not fixed_transitions:
            emit *= gamma
            pairs = alpha[:-1].reshape(-1, n).T @ emit[1:].reshape(-1, n)
            trans_num += model.transition * pairs
        gamma *= alpha
        gamma /= np.where(batch.padding, 1.0, gamma.sum(axis=2))[:, :, None]
        rows = gamma.reshape(-1, n)
        tally = rows.take(ranks[0], axis=0)
        for cells in ranks[1:]:
            tally[: cells.size] += rows.take(cells, axis=0)
        emit_num[:, present] += tally.T
        first += gamma[0].sum(axis=0)
        log_likelihood -= np.log(scale).sum()
    return trans_num, emit_num, first, float(log_likelihood)


def _reestimate(old: np.ndarray, sums: np.ndarray, floor: float) -> np.ndarray:
    """The rows of ``sums`` normalized and floored; a row with no mass keeps ``old``'s."""
    return _floor_rows(np.where(sums.sum(axis=1, keepdims=True) > 0.0, sums, old), floor)


def fit(
    initial_model: Hmm,
    sequences: Sequence,
    config: FitConfig | None = None,
    *,
    fixed_transitions: bool = False,
    on_iteration: Callable[[int, Hmm, float], None] | None = None,
) -> tuple[Hmm, np.ndarray]:
    """Baum-Welch training pooled over multiple observation sequences.

    The expected transition counts, emission counts and first-state
    posteriors are pooled across sequences; every denominator of the
    update is the row sum of its numerator, so the M-step normalizes each
    pooled row.  A state with no posterior mass in a row keeps its old
    row; emission rows and re-estimated transition rows are then floored
    at ``config.emission_floor``.  The initial distribution is the average
    of the per-sequence first-step posteriors.  Sequences of length one
    contribute to the initial-state and emission updates only.  The
    sequences are batched once per call, and every iteration reuses one
    :func:`_workspace` and each chunk's :func:`_ranks` plan.

    Parameters
    ----------
    initial_model : starting point; also supplies N and M.
    sequences : non-empty list of symbol sequences.
    config : see :class:`FitConfig`; defaults apply when omitted.
    fixed_transitions : keep ``initial_model.transition``; EM then computes
        no transition sums and moves only the emissions and initial distribution.
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
    floored_rows = {"symbols": model.n_symbols}
    if not fixed_transitions:
        floored_rows["states"] = model.n_states
    for what, size in floored_rows.items():
        if config.emission_floor * size >= 1.0:
            raise DomainError(f"emission_floor {config.emission_floor!r} must be below "
                              f"1/{size} for {size} {what}")
    seqs = _observations(sequences, model.n_symbols)
    if not seqs:
        raise DomainError("fit requires at least one observation sequence")

    batches = _batches(seqs, model.n_states)
    work = _workspace(batches, model.n_states)
    plans = [_ranks(batch) for batch in batches]
    trace: list[float] = []
    for iteration in range(config.max_iterations):
        trans_num, emit_num, first, log_likelihood = _expectation(
            model, batches, plans, fixed_transitions, work)
        trace.append(log_likelihood)
        if on_iteration is not None:
            on_iteration(iteration, model, log_likelihood)
        if iteration > 0:
            previous = trace[-2]
            floor = max(abs(previous), np.finfo(float).tiny)
            if log_likelihood - previous < config.rel_tol * floor:
                break
        model = Hmm(
            model.transition if fixed_transitions
            else _reestimate(model.transition, trans_num, config.emission_floor),
            _reestimate(model.emission, emit_num, config.emission_floor),
            first / first.sum(),
        )
    else:
        # Budget exhausted: evaluate once more so the trace ends at the
        # returned model.
        log_likelihood = _log_likelihood(model, batches, work)
        trace.append(log_likelihood)
        if on_iteration is not None:
            on_iteration(config.max_iterations, model, log_likelihood)
    return model, np.asarray(trace)


class _ListStep:
    """The list-Viterbi step (Seshadri & Sundberg 1994) of one model and ``k``.

    ``step(score, bonus)`` takes the previous step's ``(a, E)`` scores of
    ``a`` floods (``None`` at the first step) and the ``(a * N,)`` log
    emission terms of their symbols at this step, ``bonus[s * N + j]`` for
    state ``j`` of flood ``s``, and returns this step's ``(score, back)``
    in :func:`_list_viterbi`'s layout.  It reads nothing else, so
    :func:`k_best_paths` drives it one symbol at a time with the row of
    ``model._log_space.emission`` at that symbol, and :func:`_list_viterbi`
    with the rows it gathers for a batch.  After a call, ``dead`` flags the
    floods with no entry above ``-inf``, or is ``None`` if no log is ``-inf``.

    The candidates of a step form one contiguous ``(a * N, E)`` array in
    a buffer kept between steps: row ``s * N + j`` is state ``j`` of flood
    ``s``, and column ``i * w + r`` the previous entry ``[i, r]`` of that
    flood.  The buffer and the transition block, ``_LogSpace.transition``
    repeated ``w`` times along the entries, are built again only when the
    width ``w`` changes, in the first few steps; a width's first step has
    the most floods of any of its steps, since floods only drop out of a
    pass, so its buffer holds every later step.  Its flat slice, its views
    and the row offsets are made again only when ``a`` or ``w`` changes.
    Rank ``r`` of every cell is one ``argmax`` over each row, which returns
    the first maximum and so breaks ties by entry order; the pick plus its
    row's offset indexes the buffer flat, to gather the values and to mask
    the taken entries to ``-inf``.  With ``-inf`` logs, the step first raises
    ``-inf`` candidates to ``_LEAST``, above the masked entries, so they too
    rank by entry order, and sets ranks that read ``_LEAST`` back to ``-inf``.
    """

    def __init__(self, model: Hmm, k: int):
        self.log, self.k = model._log_space, k
        # the width of the previous step's cells that the buffer fits, its views' shape, ``dead``
        self.w, self.shape, self.dead = 0, None, None

    def __call__(
        self, score: np.ndarray | None, bonus: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        n, zeros = self.log.n, self.log.zeros
        if score is None:
            top = self.log.initial + bonus.reshape(-1, n)
            if zeros:
                self.dead = np.isneginf(top).all(axis=1)
            return top, None
        rows, entries = bonus.size, score.shape[1]
        if (rows, entries) != self.shape:
            if entries != n * self.w:
                self.w = entries // n
                self.trans = self.log.transition.repeat(self.w, axis=1)
                self.buffer = np.empty(rows * entries)
            self.shape = rows, entries
            self.flat = flat = self.buffer[: rows * entries]
            self.cube, self.cand = flat.reshape(-1, n, entries), flat.reshape(rows, entries)
            self.offsets = np.arange(0, rows * entries, entries)
        width = min(self.k, entries)
        flat, cand, offsets = self.flat, self.cand, self.offsets
        np.add(score[:, None, :], self.trans, out=self.cube)
        cand += bonus[:, None]
        if zeros:
            np.maximum(cand, _LEAST, out=cand)
        top = np.empty((rows, width))
        picks = np.empty((rows, width), dtype=np.int64)
        for rank in range(width):
            if rank:
                flat[cells] = -np.inf
            picks[:, rank] = pick = cand.argmax(axis=1)
            cells = pick + offsets
            top[:, rank] = flat[cells]
        if zeros:
            least = top == _LEAST
            top[least] = -np.inf
            self.dead = least[:, 0].reshape(-1, n).all(axis=1)
        return top.reshape(-1, n * width), picks.reshape(-1, n * width)


def _list_viterbi(
    model: Hmm, batch: _Batch, k: int
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """Parallel list-Viterbi pass (Seshadri & Sundberg 1994) over every flood
    of ``batch`` side by side, one :class:`_ListStep` call per step.

    After step ``t`` it yields ``(score, back)`` for the ``a = active[t]``
    floods still running, which are the batch's leading columns: flood
    ``s`` has ``E = N * w`` entries in entry order, where a cell keeps
    ``w = min(k, N**t)`` entries and is never padded.  Entry ``j * w + r``
    is the ``r``-th best path over the first ``t + 1`` symbols that ends in
    state ``j``: ``score[s, e]`` (shape ``(a, E)``) is its log probability
    and ``back[s, e]`` (shape ``(a, E)``) the entry of flood ``s`` at step
    ``t - 1`` that it extends, a back-pointer; step 0 extends nothing and
    yields ``back=None``.  No path is stored: :func:`_trace` follows the
    back-pointers to the states, and no other code knows the layout.  The
    back-pointers of a flood hold ``E`` entries per step, no more than its
    final ``(E, T)`` paths.  Candidates rank by total score, emission term
    included, then by entry order (lowest entry of the previous step first),
    within each flood, so the first best entry of a flood is its rank 0.
    Step ``t`` reads only the first ``t + 1`` symbols; a flood's last yield
    is at its own last step.

    This is the step's batch driver (:func:`k_best_paths` drives it for one
    flood), and the step alone ranks candidates: the pass gathers every
    step's emission rows once, from the model's cached log-space arrays
    (``Hmm._log_space``), and hands the step its rows.  A flood the step
    flags ``dead`` keeps being decoded on ``-inf`` scores; once every step
    is done, :func:`_raise_first_failure` names the first such flood in the
    caller's list.
    """
    n = model.n_states
    # bonus[t, s * N + j] is the log emission term of state j for flood s at step t.
    bonus = model._log_space.emission[batch.symbols].reshape(batch.symbols.shape[0], -1)
    # failed[t, s] marks a step at which flood s has no entry above -inf.
    failed = np.zeros(batch.symbols.shape, dtype=bool)
    step, score = _ListStep(model, k), None
    for t, a in enumerate(batch.active[:-1].tolist()):
        score, back = step(score[:a] if t else None, bonus[t, : a * n])
        if step.dead is not None:
            failed[t, :a] = step.dead
        yield score, back
    _raise_first_failure(batch.order, failed, _no_path)


def _no_path(step: int) -> str:
    """What a decode with no entry above ``-inf`` at ``step`` reports."""
    return "no admissible state path" if step else "no state can produce the observation"


def _trace(backs: list, n: int, column: int, entries) -> list[list[int]]:
    """The states of ``entries``, entries of the flood in batch column
    ``column`` at step ``len(backs) - 1``, followed back through the
    back-pointers ``backs`` that :func:`_list_viterbi` yielded up to that
    step.  One walk over Python ints per entry: cheap for the few entries
    of one flood's verdict, where numpy calls would cost more than they save.
    """
    steps = [(back, back.shape[1] // n) for back in reversed(backs[1:])]
    paths = []
    for entry in entries:
        path = []
        for back, width in steps:
            path.append(entry // width)
            entry = back.item(column, entry)
        path.append(entry)
        paths.append(path[::-1])
    return paths


def _k_best(model: Hmm, batches: list[_Batch], k: int) -> list[list[StatePath]]:
    """The ``k`` best paths of every validated flood of the :func:`_batches`
    chunks ``batches``, in list order, decoded side by side a chunk at a
    time.  A flood's are picked at its last step, by score then by entry
    order (one stable sort), and traced back."""
    found: list[list[StatePath]] = [[] for batch in batches for _ in batch.order]
    for batch in batches:
        backs, active = [], batch.active.tolist()
        for t, (score, back) in enumerate(_list_viterbi(model, batch, k)):
            backs.append(back)
            for column in range(active[t + 1], active[t]):
                found[batch.order[column]] = _best_paths(score, backs, model.n_states, column, k)
    return found


def _best_paths(score: np.ndarray, backs: list, n: int, column: int, k: int) -> list[StatePath]:
    """The ``k`` best entries of batch column ``column``, by score then entry order, traced."""
    best = np.argsort(-score[column], kind="stable")[:k].tolist()
    return [StatePath(states=_frozen_array(states, dtype=np.int64),
                      log_prob=float(score[column, entry]))
            for entry, states in zip(best, _trace(backs, n, column, best))]


def k_best_paths(model: Hmm, obs, k: int) -> list[StatePath]:
    """The ``k`` highest-probability state paths, best first (list Viterbi).

    Every (time, state) cell keeps its ``k`` best entries, so the result is
    exact.  Paths are distinct and ordered by non-increasing log
    probability, exact ties by entry order (lower state, then the entry
    its cell ranked first), so the first path is :func:`viterbi`'s for any
    ``k``.  If fewer than ``k`` distinct paths exist, all are returned.
    ``k`` is a Python or numpy integer of at least 1; anything else,
    ``True`` or ``2.0`` included, raises :class:`DomainError`.

    The symbols are pushed one at a time through one :class:`_ListStep`,
    no batch (a batch of one costs more per call and per alarm), with
    :func:`_k_best`'s result and errors bit for bit.
    """
    check_int(k, "k", 1)
    symbols = _observations([obs], model.n_symbols)[0]
    log, step, score, backs = model._log_space, _ListStep(model, k), None, []
    for t, symbol in enumerate(symbols.tolist()):
        score, back = step(score, log.emission[symbol])
        backs.append(back)
        if step.dead is not None and step.dead[0]:
            raise InferenceError(f"sequence 0: {_no_path(t)} at step {t}")
    return _best_paths(score, backs, log.n, 0, k)


def viterbi(model: Hmm, obs) -> StatePath:
    """Most probable state path for ``obs``, computed in log space.

    Ties in every maximization resolve toward the lowest state index, so
    this is rank 0 of :func:`k_best_paths` for any ``k``.  Raises
    :class:`InferenceError` when no state can produce the observed symbol
    at some step (possible only for models with exact zeros).
    """
    return k_best_paths(model, obs, 1)[0]


def _fault_scores(model: Hmm, symbols: np.ndarray, batch: _Batch | None = None) -> np.ndarray:
    """Each state's log emission terms summed along time: for the (T, S)
    ``symbols``, ``scores[t, s, f]`` is the sum of ``log b_f(o_u)`` over the
    first ``t + 1`` symbols ``o_u`` of column ``s``.

    Read with state ``f`` as fault ``f``, this is the log fault posterior
    of every prefix of a flood (Rabiner 1989; Chow 1970) with the
    transitions between faults removed, up to a term that every fault
    shares, and with no initial distribution: its argmax, ties to the
    lowest fault, is the diagnoser's verdict.  One gather of the cached log
    emission rows is summed in place, so the (T, S, N) result is the only
    array of its size.  ``np.cumsum`` adds each column left to right, so a
    flood's scores have the same bits alone as in a batch.

    ``symbols`` is ``batch.symbols``, or without ``batch`` one flood as a
    (T, 1) column.  With exact zeros (``_LogSpace.zeros``), the first step
    at which every fault of a flood, padding aside, scores ``-inf`` raises
    :class:`InferenceError` through :func:`_raise_first_failure`, naming the
    batch's first such flood in the caller's list, or ``sequence 0``.
    """
    log = model._log_space
    scores = log.emission[symbols]
    np.cumsum(scores, axis=0, out=scores)
    if log.zeros:
        failed = np.isneginf(scores.max(axis=2))
        if batch is None:
            _raise_first_failure(np.zeros(1, dtype=np.int64), failed, _no_path)
        else:
            _raise_first_failure(batch.order, failed & ~batch.padding, _no_path)
    return scores


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
