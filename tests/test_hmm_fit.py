"""Baum-Welch training: update equations, pooling, monotonicity, stopping."""

import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from alarmhmm import (
    AlarmSequence,
    AlarmSymbolCodebook,
    DomainError,
    FitConfig,
    Hmm,
    InferenceError,
    LabeledSequence,
    fit,
    total_log_likelihood,
    train_diagnoser,
)
from alarmhmm.hmm import _batches, _expectation, _floor_rows, _observations, _ranks, _workspace

import oracles


def sample_sequences(model, n_sequences, length, seed):
    rng = np.random.default_rng(seed)
    sequences = []
    for _ in range(n_sequences):
        state = rng.choice(model.n_states, p=model.initial)
        symbols = []
        for _ in range(length):
            symbols.append(rng.choice(model.n_symbols, p=model.emission[state]))
            state = rng.choice(model.n_states, p=model.transition[state])
        sequences.append(symbols)
    return sequences


def test_single_state_fit_counts_symbol_frequencies():
    start = Hmm(transition=[[1.0]], emission=[[1 / 3, 1 / 3, 1 / 3]], initial=[1.0])
    obs = [0, 1, 1, 2, 1]
    fitted, _ = fit(start, [obs], FitConfig(emission_floor=0.0))
    assert np.allclose(fitted.emission, [[0.2, 0.6, 0.2]], atol=1e-12)
    assert np.allclose(fitted.transition, [[1.0]], atol=1e-12)

    floored, _ = fit(start, [obs], FitConfig())
    assert np.allclose(floored.emission, [[0.2, 0.6, 0.2]], atol=1e-8)
    assert (floored.emission >= FitConfig().emission_floor).all()


def test_fit_reaches_generator_likelihood_in_sample():
    truth = Hmm(
        transition=[[0.9, 0.1], [0.2, 0.8]],
        emission=[[0.95, 0.05], [0.1, 0.9]],
        initial=[0.5, 0.5],
    )
    sequences = sample_sequences(truth, n_sequences=50, length=30, seed=123)
    start = Hmm(
        transition=[[0.6, 0.4], [0.4, 0.6]],
        emission=[[0.6, 0.4], [0.4, 0.6]],
        initial=[0.5, 0.5],
    )
    fitted, trace = fit(start, sequences, FitConfig(max_iterations=200))
    assert total_log_likelihood(fitted, sequences) >= total_log_likelihood(truth, sequences)
    assert (np.diff(trace) >= -1e-9).all()


def test_one_iteration_performs_exactly_one_update():
    start = oracles.random_model(2, 3, seed=5)
    sequences = sample_sequences(start, n_sequences=4, length=10, seed=6)
    fitted, trace = fit(start, sequences, FitConfig(max_iterations=1))
    assert trace.shape == (2,)
    assert trace[0] == pytest.approx(total_log_likelihood(start, sequences), rel=1e-12)
    assert trace[1] == pytest.approx(total_log_likelihood(fitted, sequences), rel=1e-12)
    assert not np.allclose(fitted.emission, start.emission)


def test_single_update_is_idempotent_only_at_a_fixed_point():
    # The empirical-frequency model of a single-state chain is an exact
    # fixed point of the update; anything else moves.
    start = Hmm(transition=[[1.0]], emission=[[0.25, 0.25, 0.5]], initial=[1.0])
    obs = [0, 1, 1, 2, 1]
    config = FitConfig(max_iterations=1, emission_floor=0.0)
    once, _ = fit(start, [obs], config)
    assert not np.allclose(once.emission, start.emission)
    twice, _ = fit(once, [obs], config)
    assert np.array_equal(twice.emission, once.emission)


def test_pooled_updates_match_posterior_sums():
    # One EM update must equal the pooled update equations evaluated via
    # the public posterior API (transition and emission numerators and
    # denominators summed over sequences before dividing; initial state is
    # the average first-step posterior).
    start = oracles.random_model(3, 4, seed=21)
    sequences = sample_sequences(start, n_sequences=5, length=9, seed=22)
    fitted, _ = fit(start, sequences, FitConfig(max_iterations=1, emission_floor=0.0))

    sums = oracles.loop_expectation(start, sequences)
    assert np.allclose(fitted.transition, sums["trans_num"] / sums["trans_den"][:, None],
                       atol=1e-12)
    assert np.allclose(fitted.emission, sums["emit_num"] / sums["emit_den"][:, None], atol=1e-12)
    assert np.allclose(fitted.initial, sums["initial_sum"] / len(sequences), atol=1e-12)


@st.composite
def ragged_batches(draw, max_states=5, max_symbols=6, max_sequences=6, max_length=12):
    """A model (N 1-5, M 1-6, a third of them with exact zeros) and 1-6
    sequences of 1-12 symbols sampled from it, so each is possible; the
    arguments lower those upper bounds."""
    n, m = draw(st.integers(1, max_states)), draw(st.integers(1, max_symbols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coarse = draw(st.integers(0, 2)) == 0

    def rows(count, width):
        if not coarse:
            return rng.dirichlet(np.ones(width), size=count)
        weights = rng.integers(0, 4, size=(count, width)).astype(float)
        weights[weights.sum(axis=1) == 0, 0] = 1.0
        return weights / weights.sum(axis=1, keepdims=True)

    model = Hmm(transition=rows(n, n), emission=rows(n, m), initial=rows(1, n)[0])
    sequences = []
    for length in draw(st.lists(st.integers(1, max_length), min_size=1, max_size=max_sequences)):
        state, symbols = rng.choice(n, p=model.initial), []
        for _ in range(length):
            symbols.append(int(rng.choice(m, p=model.emission[state])))
            state = rng.choice(n, p=model.transition[state])
        sequences.append(symbols)
    return model, sequences


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=ragged_batches())
@example(case=(Hmm(transition=[[0.5, 0.5], [0.0, 1.0]], emission=[[1.0, 0.0], [0.25, 0.75]],
                   initial=[1.0, 0.0]), [[0], [0, 1, 1], [0, 0]]))
# State 1 is only ever a last state, so its transition row is not re-estimated.
@example(case=(Hmm(transition=[[0.5, 0.5], [0.0, 1.0]], emission=[[1.0, 0.0], [0.0, 1.0]],
                   initial=[1.0, 0.0]), [[0, 1], [0], [0, 0, 1]]))
def test_batched_update_matches_the_per_sequence_xi_reference(case):
    model, sequences = case
    fitted, trace = fit(model, sequences, FitConfig(max_iterations=1, emission_floor=0.0))
    transition, emission, initial = oracles.em_update(model, sequences)
    assert np.allclose(fitted.transition, transition, rtol=0.0, atol=1e-12)
    assert np.allclose(fitted.emission, emission, rtol=0.0, atol=1e-12)
    assert np.allclose(fitted.initial, initial, rtol=0.0, atol=1e-12)
    per_sequence = sum(oracles.posteriors(model, s).log_likelihood for s in sequences)
    assert total_log_likelihood(model, sequences) == pytest.approx(per_sequence, rel=1e-12)
    assert trace[0] == pytest.approx(per_sequence, rel=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=ragged_batches(max_states=3, max_symbols=4, max_sequences=4, max_length=6))
# State 1 gets no posterior mass, so its transition and emission rows stay as they were.
@example(case=(Hmm(transition=[[1.0, 0.0], [0.3, 0.7]], emission=[[0.5, 0.5], [0.2, 0.8]],
                   initial=[1.0, 0.0]), [[0, 1], [1]]))
def test_update_is_the_enumerated_numerator_over_denominator(case):
    model, sequences = case
    fitted, _ = fit(model, sequences, FitConfig(max_iterations=1, emission_floor=0.0))
    transition, emission, initial = oracles.enum_em_update(model, sequences)
    assert np.allclose(fitted.transition, transition, rtol=0.0, atol=1e-12)
    assert np.allclose(fitted.emission, emission, rtol=0.0, atol=1e-12)
    assert np.allclose(fitted.initial, initial, rtol=0.0, atol=1e-12)


#: two states, so chunks of two floods: (L, S) = (5, 2), (7, 2) and (2, 1)
UNEQUAL_CHUNKS = (oracles.random_model(2, 3, seed=3),
                  [[0, 1, 2, 0, 1], [2], [1, 1, 0], [0, 2, 2, 1, 0, 0, 1], [2, 0]])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=ragged_batches(max_states=3, max_sequences=10), fixed=st.booleans(),
       iterations=st.integers(2, 4))
@example(case=UNEQUAL_CHUNKS, fixed=False, iterations=3)
@example(case=UNEQUAL_CHUNKS, fixed=True, iterations=3)
def test_reused_workspace_gives_the_bits_of_chained_single_iterations(case, fixed, iterations):
    # One fit keeps one workspace for every chunk and iteration, so a chunk
    # reads its views over what earlier chunks, of other shapes, left there.
    model, sequences = case
    assume(len(sequences) > model.n_states)
    fitted, trace = fit(model, sequences, FitConfig(max_iterations=iterations),
                        fixed_transitions=fixed)
    chained, expected = model, [trace[0]]
    for _ in range(trace.size - 1):
        chained, pair = fit(chained, sequences, FitConfig(max_iterations=1),
                            fixed_transitions=fixed)
        expected.append(pair[1])
    assert trace.tobytes() == np.array(expected).tobytes()
    for got, want in zip((fitted.transition, fitted.emission, fitted.initial),
                         (chained.transition, chained.emission, chained.initial)):
        assert got.tobytes() == want.tobytes()


def test_a_zero_log_likelihood_is_positive_zero():
    # The E-step and the budget's last evaluation both subtract from 0.0.
    model, sequences = Hmm([[1.0]], [[1.0]], [1.0]), [[0], [0]]
    _, trace = fit(model, sequences, FitConfig(max_iterations=1))
    assert trace.tolist() == [0.0, 0.0]
    assert not np.signbit(trace).any()
    assert not np.signbit(total_log_likelihood(model, sequences))
    assert not np.signbit(total_log_likelihood(model, [[0]]))
    flood = AlarmSequence(symbols=[0], times=[0.0], fault=0)
    trained = train_diagnoser(
        [LabeledSequence(flood)] * 2, codebook=AlarmSymbolCodebook(1),
        config=FitConfig(max_iterations=1, emission_floor=0.0), init_smoothing=0.0)
    assert not np.signbit(trained.training["final_log_likelihood"])


def emission_counts(model, sequences, fixed):
    batches = _batches(_observations(sequences, model.n_symbols), model.n_states)
    plans = [_ranks(batch) for batch in batches]
    return _expectation(model, batches, plans, fixed, _workspace(batches, model.n_states))[1]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=ragged_batches(max_sequences=12), fixed=st.booleans())
@example(case=UNEQUAL_CHUNKS, fixed=False)
@example(case=(Hmm(transition=[[0.8, 0.2], [0.3, 0.7]], emission=[[1.0], [1.0]],
                   initial=[0.5, 0.5]), [[0, 0, 0], [0], [0, 0], [0, 0, 0, 0]]), fixed=True)
def test_emission_counts_are_the_bits_of_the_bincount_loop(case, fixed):
    model, sequences = case
    emit_num = emission_counts(model, sequences, fixed)
    assert emit_num.tobytes() == oracles.bincount_emission_counts(model, sequences).tobytes()


@st.composite
def sparse_alphabets(draw):
    """A model without exact zeros (N 1-4, M 1-40) and 1-12 floods of 1-15
    alarms drawn from 1-4 of the M symbols, so most symbols never occur; or
    floods of one alarm each; or one symbol throughout every flood."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    model = oracles.random_model(n, m, seed=draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["ragged", "single alarms", "one symbol"]))
    lengths = draw(st.lists(st.integers(1, 15), min_size=1, max_size=12))
    used = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4, unique=True))
    if shape == "single alarms":
        lengths = [1] * len(lengths)
    if shape == "one symbol":
        used = used[:1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return model, [rng.choice(used, size=length).tolist() for length in lengths]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=sparse_alphabets(), fixed=st.booleans())
@example(case=UNEQUAL_CHUNKS, fixed=True)
@example(case=(oracles.random_model(2, 9, seed=4), [[7], [3], [7], [7], [0]]), fixed=False)
@example(case=(oracles.random_model(3, 5, seed=6), [[2] * 9, [2], [2] * 4, [2] * 12]), fixed=False)
@example(case=(oracles.random_model(1, 30, seed=8), [[29, 4, 29, 29, 4], [4] * 14, [29, 0]]), fixed=True)
def test_emission_counts_are_the_bits_of_the_sparse_onehot_product(case, fixed):
    # The rank-by-rank sum against the CSR product it replaced, and the
    # per-state bincounts before that: unequal lengths, single-alarm floods,
    # a symbol repeated throughout and symbols that never occur.
    model, sequences = case
    emit_num = emission_counts(model, sequences, fixed).tobytes()
    assert emit_num == oracles.sparse_emission_counts(model, sequences).tobytes()
    assert emit_num == oracles.bincount_emission_counts(model, sequences).tobytes()


@pytest.mark.parametrize("case", [UNEQUAL_CHUNKS, (oracles.random_model(4, 12, seed=7), None)],
                         ids=["unequal-chunks", "skewed-symbols"])
def test_the_rank_plan_holds_each_running_cell_once(case):
    # UNEQUAL_CHUNKS has two states, so chunks of (L, S) = (5, 2), (7, 2) and
    # (2, 1): the zero-padded cells hold symbol 0 but are in no rank.
    model, sequences = case
    if sequences is None:
        rng = np.random.default_rng(9)
        sequences = [rng.choice([0, 2, 5, 11], size=length, p=[0.1, 0.2, 0.6, 0.1]).tolist()
                     for length in rng.integers(1, 25, size=10)]
    for batch in _batches(_observations(sequences, model.n_symbols), model.n_states):
        present, ranks = _ranks(batch)
        symbols, running = batch.symbols.ravel(), ~batch.padding.ravel()
        cells = np.concatenate(ranks)
        assert np.array_equal(np.sort(cells), np.flatnonzero(running))
        counts = np.bincount(symbols[running], minlength=model.n_symbols)
        assert np.array_equal(np.sort(present), np.flatnonzero(counts))
        assert (np.diff(counts[present]) <= 0).all()
        for rank, rank_cells in enumerate(ranks):
            # Rank r holds the r-th cell of each symbol with more than r cells,
            # in present's order, and so no symbol twice.
            assert symbols[rank_cells].tolist() == present[: rank_cells.size].tolist()
            assert rank_cells.size == np.count_nonzero(counts > rank)
        for symbol in present:
            # A symbol's cells, rank by rank, are in position order.
            own = np.concatenate([held[symbols[held] == symbol] for held in ranks])
            assert own.size == counts[symbol] and (np.diff(own) > 0).all()


@st.composite
def floor_cases(draw):
    """1-6 rows of 1-300 non-negative entries of positive sum, spread thin
    (many under the floor), even, or small integer counts with exact zeros,
    and a floor of 0 or below 1/M."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count, m = draw(st.integers(1, 6)), draw(st.integers(1, 300))
    spread = draw(st.sampled_from([0.05, 1.0, None]))
    if spread is None:
        rows = rng.integers(0, 4, size=(count, m)).astype(float)
        rows[rows.sum(axis=1) == 0, 0] = 1.0
    else:
        rows = rng.dirichlet(np.full(m, spread), size=count)
    share = draw(st.sampled_from([0.0, 1e-10, None]))
    floor = draw(st.floats(0.0, 1.0, exclude_max=True)) / m if share is None else share
    return rows, floor


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=floor_cases())
# Pinning 0.05 rescales the rest by 0.9 / 0.95, which takes 0.1005 under the
# floor, so a second pass is needed.
@example(case=(np.array([[0.05, 0.1005, 0.8495], [0.2, 0.3, 0.5]]), 0.1))
@example(case=(np.array([[0.2, 0.3, 0.5]]), 0.1))  # no low entry
@example(case=(np.array([[0.0, 1.0, 3.0]]), 0.0))
@example(case=(np.array([[2.0], [0.5]]), 1e-10))  # a one-symbol alphabet
def test_floor_is_the_bits_of_the_row_loop(case):
    rows, floor = case
    got = _floor_rows(rows, floor)
    assert got.tobytes() == oracles.loop_floor_rows(rows, floor).tobytes()
    assert (got >= floor).all()


def test_zero_probability_reports_the_first_failing_sequence_in_list_order():
    # Symbol 1 is impossible.  With N = 3 the sequences are batched three at
    # a time; in the second batch, sequence 4 fails at step 2 and sequence 5,
    # which is longer and so decoded in an earlier column, at step 0.
    model = Hmm(
        transition=np.full((3, 3), 1 / 3),
        emission=[[1.0, 0.0]] * 3,
        initial=np.full(3, 1 / 3),
    )
    sequences = [[0, 0], [0], [0, 0, 0], [0, 0], [0, 0, 1, 0], [1, 0, 0, 0, 0], [1]]
    message = r"^sequence 4: zero total forward probability at step 2$"
    with pytest.raises(InferenceError, match=message):
        fit(model, sequences)
    with pytest.raises(InferenceError, match=message):
        total_log_likelihood(model, sequences)
    with pytest.raises(InferenceError, match=r"^sequence 0: zero total forward probability "
                                             r"at step 0$"):
        total_log_likelihood(model, [[1]])


def test_length_one_sequences_leave_transitions_alone():
    start = Hmm(
        transition=[[0.7, 0.3], [0.4, 0.6]],
        emission=[[0.5, 0.5], [0.1, 0.9]],
        initial=[0.6, 0.4],
    )
    fitted, _ = fit(start, [[0], [1]], FitConfig(max_iterations=1, emission_floor=0.0))
    assert np.allclose(fitted.transition, start.transition, atol=1e-12)
    assert not np.allclose(fitted.emission, start.emission)


def test_empty_sequence_list_rejected():
    with pytest.raises(DomainError, match="at least one"):
        fit(oracles.random_model(2, 2, seed=0), [])


def test_fitted_model_satisfies_invariants():
    start = oracles.random_model(3, 5, seed=31)
    sequences = sample_sequences(start, n_sequences=8, length=15, seed=32)
    config = FitConfig(max_iterations=40)
    fitted, trace = fit(start, sequences, config)
    assert np.allclose(fitted.transition.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(fitted.emission.sum(axis=1), 1.0, atol=1e-9)
    assert fitted.initial.sum() == pytest.approx(1.0, abs=1e-9)
    assert (fitted.emission >= config.emission_floor).all()
    assert (np.diff(trace) >= -1e-9).all()


def test_loose_tolerance_stops_early():
    start = oracles.random_model(2, 3, seed=41)
    sequences = sample_sequences(start, n_sequences=5, length=10, seed=42)
    _, trace = fit(start, sequences, FitConfig(max_iterations=500, rel_tol=1e-2))
    assert trace.size < 20


def test_frozen_transitions_stay_fixed():
    start = oracles.random_model(3, 3, seed=51)
    sequences = sample_sequences(start, n_sequences=5, length=8, seed=52)
    fitted, _ = fit(start, sequences, FitConfig(max_iterations=10), fixed_transitions=True)
    assert np.array_equal(fitted.transition, start.transition)
    # Skipping the transition statistics leaves the other updates exact.
    once, _ = fit(start, sequences, FitConfig(max_iterations=1, emission_floor=0.0),
                  fixed_transitions=True)
    _, emission, initial = oracles.em_update(start, sequences)
    assert np.array_equal(once.transition, start.transition)
    assert np.allclose(once.emission, emission, atol=1e-12)
    assert np.allclose(once.initial, initial, atol=1e-12)


def test_iteration_callback_sees_every_iteration():
    start = oracles.random_model(2, 2, seed=61)
    sequences = sample_sequences(start, n_sequences=3, length=6, seed=62)
    seen = []
    _, trace = fit(
        start,
        sequences,
        FitConfig(max_iterations=5),
        on_iteration=lambda i, model, ll: seen.append((i, ll)),
    )
    assert [ll for _, ll in seen] == list(trace)
    assert [i for i, _ in seen] == list(range(len(seen)))


@pytest.mark.parametrize("n_states, n_symbols, fixed_transitions, message", [
    (2, 4, True, r"^emission_floor 0.25 must be below 1/4 for 4 symbols$"),
    (4, 2, False, r"^emission_floor 0.25 must be below 1/4 for 4 states$"),
])
def test_too_large_floor_is_rejected_before_the_first_e_step(
        n_states, n_symbols, fixed_transitions, message):
    seen = []
    with pytest.raises(DomainError, match=message):
        fit(oracles.random_model(n_states, n_symbols, seed=71), [[0, 1, 1]],
            FitConfig(emission_floor=0.25), fixed_transitions=fixed_transitions,
            on_iteration=lambda *args: seen.append(args))
    assert seen == []


def test_state_limit_on_the_floor_holds_only_for_re_estimated_transitions():
    start = oracles.random_model(4, 2, seed=72)
    fitted, _ = fit(start, [[0, 1, 1]], FitConfig(max_iterations=1, emission_floor=0.25),
                    fixed_transitions=True)
    assert np.array_equal(fitted.transition, start.transition)
    assert (fitted.emission >= 0.25).all()


@pytest.mark.parametrize("bad", [dict(max_iterations=0), dict(rel_tol=0.0), dict(emission_floor=-1e-3)])
def test_invalid_config_rejected(bad):
    with pytest.raises(DomainError):
        FitConfig(**bad)


@pytest.mark.parametrize("call, message", [
    (lambda: FitConfig(max_iterations=2.5), "max_iterations must be an integer, got 2.5"),
    (lambda: FitConfig(max_iterations=True), "max_iterations must be an integer, got True"),
])
def test_counts_must_be_integers(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
    assert FitConfig(max_iterations=np.int64(3)).max_iterations == 3
