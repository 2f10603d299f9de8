"""Reference computations used to check the fast implementations.

Most of them enumerate explicitly (all N**T state paths, all sample
runs, ...) or loop one item at a time instead of reusing the code under
test.  The exception is :func:`posteriors`, which runs the package's own
forward/backward kernels on a batch of one and builds the full γ and ξ
the package never keeps; the tests hold it to enumeration, and
:func:`loop_expectation` and :func:`em_update` on top of it check only
how the batched E-step pools them; :func:`enum_em_update` is the
enumerated update.  :func:`random_model` draws the seeded models the
tests run on.  :func:`bincount_emission_counts`,
:func:`sparse_emission_counts` and :func:`loop_floor_rows` are earlier
forms of the E-step's emission counts and of the M-step's floor, which
the fast code must match bit for bit.  :func:`dechatter` is the chattering
removal that the baseline does inline, and :func:`loop_posterior_verdicts`
the diagnoser's verdict rule, one prefix at a time.
:func:`loop_alarm_sequence` is the simulator's flood drawn one scalar
variate per symbol and per pair, which the array draws must match bit for
bit.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.sparse import csr_array
from scipy.spatial.distance import pdist

from alarmhmm import DomainError, Hmm, InferenceError, SchemaError, hmm
from alarmhmm.alarms import AlarmSequence, MeasurementTrace
from alarmhmm.baseline import BaselineResult, Dendrogram
from alarmhmm.documents import check_int, open_text
from alarmhmm.plantsim import depth_for_magnitude


def random_model(n_states: int, n_symbols: int, seed: int = 0) -> Hmm:
    """A random valid model with Dirichlet(1) rows."""
    check_int(n_states, "n_states", 1)
    check_int(n_symbols, "n_symbols", 1)
    rng = np.random.default_rng(seed)
    return Hmm(
        transition=rng.dirichlet(np.ones(n_states), size=n_states),
        emission=rng.dirichlet(np.ones(n_symbols), size=n_states),
        initial=rng.dirichlet(np.ones(n_states)),
    )


@dataclass(frozen=True)
class Posteriors:
    """State and state-pair posteriors of a full observation sequence, and its log likelihood."""

    gamma: np.ndarray  # (T, N): gamma[t, i] = P(q_t = i | observations)
    xi: np.ndarray     # (T-1, N, N): xi[t, i, j] = P(q_t = i, q_{t+1} = j | observations)
    log_likelihood: float


def posteriors(model, obs) -> Posteriors:
    """State and state-pair posteriors of ``obs`` under ``model``, and its log likelihood.

    One scaled forward/backward pass of the package's kernels over a batch
    of one; the scale factors cancel, so the results equal the unscaled
    posterior definitions exactly.  Every index of ``obs`` must be
    < ``model.n_symbols``.  Raises :class:`InferenceError` if some step has
    zero total probability (only possible when the model contains exact
    zeros).
    """
    batch = hmm._batch(hmm._observations([obs], model.n_symbols))
    work = hmm._workspace([batch], model.n_states)
    emit, alpha, scale = hmm._forward(model, batch, work)
    beta = hmm._backward(model, batch, emit, scale, work[2])
    alpha, beta = alpha[:, 0], beta[:, 0]
    joint = alpha * beta
    gamma = joint / joint.sum(axis=1, keepdims=True)
    xi = alpha[:-1, :, None] * model.transition[None, :, :] * (emit[1:, 0] * beta[1:])[:, None, :]
    xi /= xi.sum(axis=(1, 2), keepdims=True)
    return Posteriors(gamma=hmm._frozen_array(gamma), xi=hmm._frozen_array(xi),
                      log_likelihood=float(0.0 - np.log(scale).sum()))


def all_paths(n_states: int, t_len: int) -> np.ndarray:
    """All N**T state paths as an (N**T, T) int array, forward-lexicographic."""
    paths = np.array(list(itertools.product(range(n_states), repeat=t_len)), dtype=np.int64)
    return paths.reshape(-1, t_len)


def path_probabilities(model, obs) -> tuple[np.ndarray, np.ndarray]:
    """(paths, joint probabilities) over every possible state path."""
    obs = np.asarray(obs, dtype=np.int64)
    paths = all_paths(model.n_states, obs.size)
    probs = model.initial[paths[:, 0]] * model.emission[paths[:, 0], obs[0]]
    for t in range(1, obs.size):
        probs = probs * model.transition[paths[:, t - 1], paths[:, t]]
        probs = probs * model.emission[paths[:, t], obs[t]]
    return paths, probs


def path_log_probabilities(model, obs) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`path_probabilities` but accumulated in log space.

    The additions happen in the same left-to-right order the Viterbi
    implementations use, so exact ties reproduce bit-for-bit.
    """
    obs = np.asarray(obs, dtype=np.int64)
    paths = all_paths(model.n_states, obs.size)
    with np.errstate(divide="ignore"):
        log_trans = np.log(model.transition)
        log_emit = np.log(model.emission)
        log_initial = np.log(model.initial)
    scores = log_initial[paths[:, 0]] + log_emit[paths[:, 0], obs[0]]
    for t in range(1, obs.size):
        scores = scores + log_trans[paths[:, t - 1], paths[:, t]]
        scores = scores + log_emit[paths[:, t], obs[t]]
    return paths, scores


def enum_log_likelihood(model, obs) -> float:
    """log P(obs | model) from the full path enumeration."""
    _, probs = path_probabilities(model, obs)
    return math.log(math.fsum(probs.tolist()))


def enum_state_posteriors(model, obs) -> np.ndarray:
    """gamma[t, i] = P(q_t = i | obs) by path enumeration."""
    obs = np.asarray(obs, dtype=np.int64)
    paths, probs = path_probabilities(model, obs)
    total = math.fsum(probs.tolist())
    gamma = np.zeros((obs.size, model.n_states))
    for t in range(obs.size):
        np.add.at(gamma[t], paths[:, t], probs)
    return gamma / total


def enum_pair_posteriors(model, obs) -> np.ndarray:
    """xi[t, i, j] = P(q_t = i, q_{t+1} = j | obs) by path enumeration."""
    obs = np.asarray(obs, dtype=np.int64)
    paths, probs = path_probabilities(model, obs)
    total = math.fsum(probs.tolist())
    n = model.n_states
    xi = np.zeros((obs.size - 1, n, n))
    for t in range(obs.size - 1):
        np.add.at(xi[t], (paths[:, t], paths[:, t + 1]), probs)
    return xi / total


def loop_expectation(model, sequences) -> dict:
    """Pooled Baum-Welch sums, one sequence at a time through ``xi``.

    The reference for the batched E-step: per sequence, :func:`posteriors`
    (which builds the full (T-1, N, N) ``xi`` tensor), accumulated in list
    order.
    """
    n, m = model.n_states, model.n_symbols
    sums = dict(trans_num=np.zeros((n, n)), trans_den=np.zeros(n), emit_num=np.zeros((m, n)),
                emit_den=np.zeros(n), initial_sum=np.zeros(n))
    for obs in sequences:
        o = np.asarray(obs, dtype=np.int64)
        post = posteriors(model, o)
        if o.size >= 2:
            sums["trans_num"] += post.xi.sum(axis=0)
            sums["trans_den"] += post.gamma[:-1].sum(axis=0)
        np.add.at(sums["emit_num"], o, post.gamma)
        sums["emit_den"] += post.gamma.sum(axis=0)
        sums["initial_sum"] += post.gamma[0]
    sums["emit_num"] = sums["emit_num"].T
    return sums


def _chunk_posteriors(model, sequences):
    """Each chunk of ``sequences`` and its (L*S, N) state posteriors, zero in
    the padding, from the package's own forward/backward kernels."""
    n = model.n_states
    batches = hmm._batches([np.asarray(s, dtype=np.int64) for s in sequences], n)
    work = hmm._workspace(batches, n)
    for batch in batches:
        emit, alpha, scale = hmm._forward(model, batch, work)
        gamma = hmm._backward(model, batch, emit, scale, work[2])
        valid = np.arange(batch.order.size) < batch.active[:-1, None]  # (L, S)
        gamma *= alpha
        gamma /= np.where(valid, gamma.sum(axis=2), 1.0)[:, :, None]
        yield batch, gamma.reshape(-1, n)


def bincount_emission_counts(model, sequences) -> np.ndarray:
    """The E-step's (N, M) expected emission counts, one ``np.bincount`` per
    state and chunk over every cell of the chunk, zero-padded cells included."""
    n, m = model.n_states, model.n_symbols
    emit_num = np.zeros((n, m))
    for batch, rows in _chunk_posteriors(model, sequences):
        symbols = batch.symbols.ravel()
        for state in range(n):
            emit_num[state] += np.bincount(symbols, weights=rows[:, state], minlength=m)
    return emit_num


def sparse_emission_counts(model, sequences) -> np.ndarray:
    """The E-step's (N, M) expected emission counts, one product per chunk of a
    ``scipy.sparse.csr_array`` one-hot (an entry per running cell, in position
    order within each symbol's row) with the state posteriors."""
    n, m = model.n_states, model.n_symbols
    emit_num = np.zeros((n, m))
    for batch, rows in _chunk_posteriors(model, sequences):
        cells = np.flatnonzero(~batch.padding.ravel())
        onehot = csr_array((np.ones(cells.size), (batch.symbols.ravel()[cells], cells)),
                           shape=(m, batch.symbols.size))
        emit_num += (onehot @ rows).T
    return emit_num


def loop_floor_rows(rows, floor: float) -> np.ndarray:
    """The M-step's floor one row at a time: normalize, then pin the
    sub-floor entries and rescale the rest until none is left under it."""
    out = rows / rows.sum(axis=1, keepdims=True)
    if floor <= 0.0:
        return out
    for row in out:
        while True:
            low = row < floor
            if not low.any():
                break
            high = ~low
            row[low] = floor
            row[high] *= (1.0 - floor * low.sum()) / row[high].sum()
    return out


def _divided(old, num, den) -> np.ndarray:
    """``num / den`` row by row; a row whose ``den`` is zero keeps ``old``'s."""
    rows = np.array(old, dtype=float)
    seen = den > 0.0
    rows[seen] = num[seen] / den[seen, None]
    return rows


def em_update(model, sequences) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One unfloored Baum-Welch update from :func:`loop_expectation`.

    A state with no posterior mass where a row is estimated keeps its old
    row; every row is then renormalized.  Returns (transition, emission,
    initial).
    """
    sums = loop_expectation(model, sequences)

    def update(old, num, den):
        rows = _divided(old, num, den)
        return rows / rows.sum(axis=1, keepdims=True)

    initial = sums["initial_sum"] / len(sequences)
    return (
        update(model.transition, sums["trans_num"], sums["trans_den"]),
        update(model.emission, sums["emit_num"], sums["emit_den"]),
        initial / initial.sum(),
    )


def enum_em_update(model, sequences) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One unfloored Baum-Welch update as the textbook writes it (Rabiner
    1989, eqs. 40a-c): pooled numerator over pooled denominator, from the
    enumerated :func:`enum_state_posteriors` and :func:`enum_pair_posteriors`.

    A state with no posterior mass where a row is estimated keeps its old
    row; nothing is renormalized.  Returns (transition, emission, initial).
    """
    n, m = model.n_states, model.n_symbols
    trans_num, trans_den = np.zeros((n, n)), np.zeros(n)
    emit_num, emit_den = np.zeros((n, m)), np.zeros(n)
    initial = np.zeros(n)
    for obs in sequences:
        obs = np.asarray(obs, dtype=np.int64)
        gamma = enum_state_posteriors(model, obs)
        trans_num += enum_pair_posteriors(model, obs).sum(axis=0)
        trans_den += gamma[:-1].sum(axis=0)
        for t, symbol in enumerate(obs):
            emit_num[:, symbol] += gamma[t]
        emit_den += gamma.sum(axis=0)
        initial += gamma[0]
    return (
        _divided(model.transition, trans_num, trans_den),
        _divided(model.emission, emit_num, emit_den),
        initial / len(sequences),
    )


def dechatter(symbols) -> list[int]:
    """Collapse consecutive repeats of the same symbol to one occurrence."""
    symbols = list(symbols)
    return [s for i, s in enumerate(symbols) if i == 0 or s != symbols[i - 1]]


def dense_successor_counts(sequence, n_symbols: int) -> np.ndarray:
    """The full M x M successor-count matrix of the de-chattered sequence."""
    symbols = np.asarray(dechatter(getattr(sequence, "symbols", sequence)), dtype=np.int64)
    counts = np.zeros((n_symbols, n_symbols), dtype=np.int64)
    np.add.at(counts, (symbols[:-1], symbols[1:]), 1)
    return counts


def loop_flat_clusters(merge_rows: np.ndarray, n_items: int, n_clusters: int) -> np.ndarray:
    """The flat clusters after the first ``n_items - n_clusters`` rows of a scipy
    merge list, found with a union-find (path halving) over the cluster ids.

    Cluster ids follow first appearance in the item list.
    """
    parent = list(range(n_items + len(merge_rows)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for step in range(n_items - n_clusters):
        a, b = int(merge_rows[step, 0]), int(merge_rows[step, 1])
        merged = n_items + step
        parent[find(a)] = merged
        parent[find(b)] = merged

    labels = np.empty(n_items, dtype=np.int64)
    seen: dict[int, int] = {}
    for item in range(n_items):
        root = find(item)
        if root not in seen:
            seen[root] = len(seen)
        labels[item] = seen[root]
    return labels


def dense_baseline(training, test, n_clusters, n_symbols) -> BaselineResult:
    """The clustering baseline on dense M x M features, centroids compared exactly.

    Training items are (sequence, fault) pairs and ``n_clusters`` is a
    count.  Every flood's full successor matrix goes through ``pdist`` and
    average linkage; each test flood's squared distance to every centroid
    is summed in :class:`fractions.Fraction` over all M**2 cells, and the
    nearest centroid is the first one in cluster-id order with the
    smallest distance.
    """
    features = np.stack([dense_successor_counts(seq, n_symbols).ravel() for seq, _ in training])
    faults = np.array([fault for _, fault in training], dtype=np.int64)
    if len(training) == 1:
        labels, merges = np.zeros(1, dtype=np.int64), ()
    else:
        merge_rows = linkage(pdist(features.astype(float)), method="average")
        labels = loop_flat_clusters(merge_rows, len(training), n_clusters)
        merges = tuple((int(a), int(b), float(d)) for a, b, d, _ in merge_rows)
    cluster_faults = np.array(
        [np.argmax(np.bincount(faults[labels == c])) for c in range(n_clusters)], dtype=np.int64
    )
    centroids = [
        [Fraction(int(total), int((labels == c).sum()))
         for total in features[labels == c].sum(axis=0)]
        for c in range(n_clusters)
    ]
    predictions = []
    for seq in test:
        vector = dense_successor_counts(seq, n_symbols).ravel().tolist()
        distances = [sum((mean - value) ** 2 for mean, value in zip(centroid, vector))
                     for centroid in centroids]
        predictions.append(int(cluster_faults[distances.index(min(distances))]))
    return BaselineResult(Dendrogram(merges, n_clusters), labels, cluster_faults, predictions)


def ranked_paths(model, obs) -> tuple[np.ndarray, np.ndarray]:
    """All paths ordered by descending log probability.

    Exact ties are ordered by trailing state indices (compare the last
    state first).  That is a fixed order for the enumeration, not the
    decoder's tie rule, which ranks tied paths by list-Viterbi entry order
    (see :func:`loop_k_best`); compare tied decoder output with
    :func:`ranking_mismatches`.
    """
    paths, scores = path_log_probabilities(model, obs)
    keys = tuple(paths[:, t] for t in range(paths.shape[1])) + (-scores,)
    order = np.lexsort(keys)
    return paths[order], scores[order]


def enum_best_path(model, obs) -> tuple[np.ndarray, float]:
    paths, scores = ranked_paths(model, obs)
    return paths[0], float(scores[0])


def loop_list_viterbi(model, obs, k):
    """List Viterbi written as plain loops over (state, predecessor, rank).

    The reference for the vectorized decoder's tie rule: cell candidates
    are sorted by (-score, predecessor state, predecessor rank), the
    emission term already added, and a cell keeps its first ``k``.  A
    generator: after step ``t`` it yields every entry the step keeps as a
    ``(states, log_prob)`` pair, the states being its path over
    ``obs[:t + 1]``, in entry order (final state, then rank in its cell).
    It raises :class:`InferenceError` at the first step with no possible
    path.
    """
    obs = [int(o) for o in obs]
    n = model.n_states
    with np.errstate(divide="ignore"):
        log_trans = np.log(model.transition)
        log_emit = np.log(model.emission)
        log_initial = np.log(model.initial)

    # Cell entries are (score, previous state, previous rank).
    history = []
    for t, symbol in enumerate(obs):
        if t == 0:
            cells = [[(log_initial[j] + log_emit[j, symbol], -1, -1)] for j in range(n)]
        else:
            cells = []
            for j in range(n):
                bonus = log_emit[j, symbol]
                cands = [
                    (entry[0] + log_trans[i, j] + bonus, i, rank)
                    for i in range(n)
                    for rank, entry in enumerate(history[-1][i])
                ]
                cands.sort(key=lambda c: (-c[0], c[1], c[2]))
                cells.append(cands[:k])
        if all(np.isneginf(cell[0][0]) for cell in cells):
            what = "no admissible state path" if t else "no state can produce the observation"
            raise InferenceError(f"{what} at step {t}")
        history.append(cells)

        entries = []
        for j, cell in enumerate(cells):
            for rank, entry in enumerate(cell):
                states = [j]
                state, r = j, rank
                for step in range(t, 0, -1):
                    _, state, r = history[step][state][r]
                    states.append(state)
                entries.append((states[::-1], float(entry[0])))
        yield entries


def loop_k_best(model, obs, k) -> list[tuple[list[int], float]]:
    """The ``k`` best of the last :func:`loop_list_viterbi` entries, best first
    as ``(states, log_prob)`` pairs: a stable sort on ``-log_prob``, so ties
    keep entry order and rank 0 for any ``k`` is the ``k = 1`` path."""
    for entries in loop_list_viterbi(model, obs, k):
        pass
    return sorted(entries, key=lambda entry: -entry[1])[:k]


def loop_posterior_verdicts(model, flood) -> list[tuple[int, int | None]]:
    """The diagnoser's verdict at every prefix of ``flood``, summed in plain Python.

    Each fault's score adds the model's log emission rows
    (``model._log_space.emission``) as Python floats, left to right, from
    0.0, so its bits match the package's cumulative sum.  At each prefix the
    faults are ranked by descending score in one stable sort, ties to the
    lower fault: ``(primary, secondary)`` are the first two, the secondary
    ``None`` for a one-fault model.  Raises :class:`InferenceError` at the
    first prefix where every fault scores ``-inf``.
    """
    rows = model._log_space.emission
    totals = [0.0] * model.n_states
    verdicts = []
    for t, symbol in enumerate(flood):
        totals = [total + term for total, term in zip(totals, rows[symbol].tolist())]
        if all(total == -math.inf for total in totals):
            what = "no admissible state path" if t else "no state can produce the observation"
            raise InferenceError(f"{what} at step {t}")
        ranked = sorted(range(model.n_states), key=lambda fault: -totals[fault])
        verdicts.append((ranked[0], ranked[1] if len(ranked) > 1 else None))
    return verdicts


def _scores_close(a: float, b: float, tol: float) -> bool:
    if np.isneginf(a) and np.isneginf(b):
        return True
    return abs(a - b) <= tol


def ranking_mismatches(got, expected_paths, expected_scores, k, tol=1e-10) -> list[str]:
    """Compare a k-best result against the enumeration ranking.

    Exactly tied probabilities leave the order between the tied paths
    undefined, so within a tie (scores within ``tol``) any permutation is
    accepted; everything else must match position by position.  Every
    returned path must also achieve its reported score.
    """
    problems = []
    expected_count = min(k, len(expected_paths))
    if len(got) != expected_count:
        return [f"returned {len(got)} paths, expected {expected_count}"]
    truth = {tuple(p.tolist()): float(s) for p, s in zip(expected_paths, expected_scores)}
    seen = set()
    for i, path in enumerate(got):
        states = tuple(path.states.tolist())
        if states in seen:
            problems.append(f"duplicate path at position {i}")
        seen.add(states)
        if not _scores_close(path.log_prob, float(expected_scores[i]), tol):
            problems.append(
                f"score at position {i}: {path.log_prob} vs {float(expected_scores[i])}"
            )
        if states not in truth:
            problems.append(f"position {i} returned a nonexistent path {states}")
        elif not _scores_close(path.log_prob, truth[states], tol):
            problems.append(f"position {i} misreports its own path score")
    return problems


def scan_alarm_runs(readings, low, high, sample_period, persist_t):
    """First sample index of the earliest run beyond each limit lasting
    at least ``persist_t`` seconds, scanned one sample at a time.

    Returns (high_start, low_start), either of which may be None.
    """
    def first_qualifying(beyond):
        start = None
        count = 0
        for idx, flag in enumerate(beyond):
            if flag:
                if start is None:
                    start = idx
                count += 1
            else:
                if start is not None and count * sample_period >= persist_t:
                    return start
                start, count = None, 0
        if start is not None and count * sample_period >= persist_t:
            return start
        return None

    high_start = first_qualifying([r > high for r in readings])
    low_start = first_qualifying([r < low for r in readings])
    return high_start, low_start


def sample_moments(samples) -> tuple[float, float]:
    """Population mean and standard deviation via explicit sums."""
    values = [float(v) for v in samples]
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


def _csv_rows(path, reader):
    """The rows of ``reader``; a csv-module error becomes a SchemaError naming path:line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: malformed CSV ({exc})") from None


def loop_read_trace_csv(path) -> MeasurementTrace:
    """A trace CSV read one csv-module row at a time, every check in line order."""
    reader = _csv_rows(path, csv.reader(open_text(path, SchemaError, newline="")))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty trace file") from None
    if not header or header[0] != "time":
        raise SchemaError(f"{path}: first column must be 'time'")
    meas_ids = header[1:]
    if not meas_ids:
        raise SchemaError(f"{path}: no measurement columns")
    for column, meas_id in enumerate(meas_ids):
        if not meas_id:
            raise SchemaError(f"{path}: measurement id '' in column {column + 2} is empty")
        if meas_id in meas_ids[:column]:
            raise SchemaError(f"{path}: measurement id {meas_id!r} in column {column + 2} "
                              f"repeats column {meas_ids.index(meas_id) + 2}")
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
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = np.diff(times)
        period = float(np.median(diffs))
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


def csv_write_trace(path, trace: MeasurementTrace) -> None:
    """A trace CSV written one ``csv.writer`` row per sample."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time"] + list(trace.meas_ids))
        for i, row in enumerate(trace.values):
            writer.writerow([repr(i * trace.sample_period)] + [repr(float(v)) for v in row])


def loop_alarm_sequence(graph, spec) -> AlarmSequence:
    """:func:`alarmhmm.plantsim.simulate_alarm_sequence` as a loop of scalar
    draws: per reached symbol in stage order, a jitter; then per reached
    symbol a drop variate; then per adjacent pair of the sorted kept
    symbols, left to right, a swap variate."""
    if not 0 <= spec.fault < graph.n_faults:
        raise DomainError(f"fault {spec.fault} not present in the graph")
    fault = graph.faults[spec.fault]
    depth = depth_for_magnitude(fault, spec.magnitude)
    rng = np.random.default_rng(spec.seed)

    events = []
    for stage_index, stage in enumerate(fault.stages[:depth]):
        for symbol in stage.symbols:
            onset = stage.delay_s + rng.uniform(-stage.jitter_s, stage.jitter_s)
            events.append((max(0.0, onset), symbol, stage_index))

    kept = []
    for onset, symbol, stage_index in events:
        dropped = rng.random() < spec.drop_prob
        if stage_index == 0 or not dropped:
            kept.append((onset, symbol))
    kept.sort(key=lambda event: (event[0], event[1]))

    times = [onset for onset, _ in kept]
    symbols = [symbol for _, symbol in kept]
    for i in range(len(symbols) - 1):
        if rng.random() < spec.swap_prob:
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
