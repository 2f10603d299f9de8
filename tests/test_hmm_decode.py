"""Viterbi and k-best decoding against full path enumeration."""

import dataclasses
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alarmhmm import (
    DomainError,
    FitConfig,
    Hmm,
    InferenceError,
    UnknownSymbolError,
    fit,
    k_best_paths,
    total_log_likelihood,
    viterbi,
)
from alarmhmm.alarms import AlarmSequence
from alarmhmm.diagnoser import HARD_MASK_OFF_DIAGONAL
from alarmhmm.hmm import (
    _fault_scores,
    _ListStep,
    _terms,
    _trace,
    as_symbols,
    hmm_to_dict,
)

import oracles

from test_hmm_inference import TWO_STATE, TWO_STATE_OBS, small_random_case

# Frozen with oracles.ranked_paths on the two-state example.
TWO_STATE_BEST = ([0, 1, 1], -3.1294922637335154)
TWO_STATE_TOP3 = [
    ([0, 1, 1], -3.1294922637335154),
    ([0, 0, 0], -3.3036170533232916),
    ([0, 0, 1], -3.563128248808376),
]


def test_absorbing_chain_never_leaves_start_state():
    model = Hmm(
        transition=np.eye(3),
        emission=[[0.5, 0.5], [0.4, 0.6], [0.3, 0.7]],
        initial=[0.0, 1.0, 0.0],
    )
    path = viterbi(model, [0, 1, 1, 0])
    assert path.states.tolist() == [1, 1, 1, 1]


def test_two_state_best_path_matches_enumeration():
    model = Hmm(**TWO_STATE)
    path = viterbi(model, TWO_STATE_OBS)
    assert path.states.tolist() == TWO_STATE_BEST[0]
    assert path.log_prob == pytest.approx(TWO_STATE_BEST[1], abs=1e-10)
    expected_states, expected_score = oracles.enum_best_path(model, TWO_STATE_OBS)
    assert path.states.tolist() == expected_states.tolist()
    assert path.log_prob == pytest.approx(expected_score, abs=1e-10)


def test_identity_emissions_reveal_states():
    n = 3
    model = Hmm(
        transition=np.full((n, n), 1.0 / n),
        emission=np.eye(n),
        initial=np.full(n, 1.0 / n),
    )
    assert viterbi(model, [2, 0, 1]).states.tolist() == [2, 0, 1]


def test_uniform_model_ties_break_to_lowest_state():
    n = 3
    model = Hmm(
        transition=np.full((n, n), 1.0 / n),
        emission=np.full((n, 2), 0.5),
        initial=np.full(n, 1.0 / n),
    )
    assert viterbi(model, [0, 1, 0, 1]).states.tolist() == [0, 0, 0, 0]


def test_impossible_observation_raises_inference_error():
    model = Hmm(
        transition=[[0.5, 0.5], [0.5, 0.5]],
        emission=[[1.0, 0.0], [1.0, 0.0]],
        initial=[0.5, 0.5],
    )
    with pytest.raises(InferenceError, match="step 1"):
        viterbi(model, [0, 1])
    with pytest.raises(InferenceError, match="step 1"):
        k_best_paths(model, [0, 1], 2)


def test_symbol_range_checked():
    model = Hmm(**TWO_STATE)
    with pytest.raises(DomainError, match="position 0"):
        viterbi(model, [9])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_the_range_check_names_the_first_symbol_outside_the_alphabet(data):
    # as_symbols reads signed arrays as unsigned to test the range in one pass;
    # every integer dtype, and a list, must still give the plain comparison's verdict.
    dtype = data.draw(st.sampled_from(["int8", "int16", "int32", "int64", ">i4",
                                       "uint8", "uint16", "uint32", "uint64", ">u2", "list"]))
    info = np.iinfo("int64" if dtype == "list" else dtype)
    values = data.draw(st.lists(st.one_of(st.integers(max(-3, info.min), 12),
                                          st.integers(info.min, info.max)),
                                max_size=8))
    n_symbols = data.draw(st.one_of(st.integers(0, 12), st.integers(0, 2**64)))
    obs = values if dtype == "list" else np.array(values, dtype=dtype)
    bad = [index for index, value in enumerate(values) if not 0 <= value < n_symbols]
    if bad:
        message = f"symbol {values[bad[0]]} at position {bad[0]} is outside [0, {n_symbols})"
        with pytest.raises(UnknownSymbolError, match=f"^{re.escape(message)}$"):
            as_symbols(obs, n_symbols)
    else:
        assert as_symbols(obs, n_symbols).tolist() == values


def test_only_integer_symbols_are_decoded():
    model = Hmm(**TWO_STATE)
    for obs in ([0.0, 1.0], np.array([0, 1], dtype=np.float32), [True, False]):
        with pytest.raises(DomainError, match=r"^sequence 0: symbol indices must be integers$"):
            viterbi(model, obs)
    # An empty list is float64 to numpy; it is reported as empty, not as non-integer.
    with pytest.raises(DomainError, match="non-empty"):
        viterbi(model, [])


@pytest.mark.parametrize("symbols", [[0, True], (False, 1), [1, np.True_]])
def test_lists_that_mix_integers_and_bools_are_rejected(symbols):
    model = Hmm(**TWO_STATE)
    with pytest.raises(DomainError, match=r"^sequence 0: symbol indices must be integers$"):
        k_best_paths(model, symbols, 1)
    with pytest.raises(DomainError, match=r"^symbol indices must be integers$"):
        AlarmSequence(symbols, [0.0, 1.0])
    # An array is taken as typed: numpy has already made the bools integers.
    array = np.array(symbols, dtype=np.int64)
    assert AlarmSequence(array, [0.0, 1.0]).symbols == array.tolist()
    assert k_best_paths(model, array, 1)[0].states.size == 2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000))
def test_viterbi_matches_enumeration(seed):
    model, obs = small_random_case(seed)
    path = viterbi(model, obs)
    expected_states, expected_score = oracles.enum_best_path(model, obs)
    assert path.states.tolist() == expected_states.tolist()
    assert path.log_prob == pytest.approx(expected_score, abs=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000))
def test_viterbi_dominates_every_enumerated_path(seed):
    model, obs = small_random_case(seed)
    path = viterbi(model, obs)
    _, scores = oracles.path_log_probabilities(model, obs)
    assert path.log_prob >= scores.max() - 1e-12


def coarse_case(seed):
    """A small case whose probabilities are ratios of the integers 0..3.

    That gives exact zeros (so impossible observations and zero-probability
    paths) and exact ties between paths.
    """
    rng = np.random.default_rng(seed)
    n, m, t = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 8))

    def rows(count, width):
        weights = rng.integers(0, 4, size=(count, width)).astype(float)
        weights[weights.sum(axis=1) == 0, 0] = 1.0
        return weights / weights.sum(axis=1, keepdims=True)

    model = Hmm(transition=rows(n, n), emission=rows(n, m), initial=rows(1, n)[0])
    return model, rng.integers(0, m, size=t)


@pytest.mark.parametrize("size", [1, 5, 600, 1_000])
def test_fault_scores_sum_one_flood_in_place_left_to_right(size):
    # The gathered (T, N) terms are the only array of their size, summed in
    # place: with 1,000 faults, numpy's few hundred fixed bytes per call stay
    # under 10% of even a one-alarm block.  Column f holds fault f's emission
    # logs summed left to right.
    model = oracles.random_model(1_000, 20, seed=3)
    log = model._log_space  # built before the trace, as every later call finds it
    flood = np.random.default_rng(size).integers(0, model.n_symbols, size=size)
    tracemalloc.start()
    try:
        scores = _fault_scores(model, _terms(model, flood))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scores.shape == (size, 1_000)
    assert peak <= 1.1 * scores.nbytes
    rows = log.emission[flood]
    for fault in range(model.n_states):
        expected = np.array(list(itertools.accumulate(rows[:, fault].tolist())))
        assert scores[:, fault].tobytes() == expected.tobytes()


def test_symbol_relabeling_leaves_the_decoded_path_unchanged():
    model, obs = small_random_case(3)
    rng = np.random.default_rng(99)
    perm = rng.permutation(model.n_symbols)
    relabeled = Hmm(
        transition=model.transition,
        emission=model.emission[:, np.argsort(perm)],
        initial=model.initial,
    )
    original = viterbi(model, obs)
    permuted = viterbi(relabeled, perm[obs])
    assert original.states.tolist() == permuted.states.tolist()
    assert original.log_prob == pytest.approx(permuted.log_prob, rel=1e-12)


class TestKBest:
    def test_k1_equals_viterbi(self):
        model, obs = small_random_case(17)
        best = viterbi(model, obs)
        (only,) = k_best_paths(model, obs, 1)
        assert only.states.tolist() == best.states.tolist()
        assert only.log_prob == best.log_prob

    def test_two_state_top3_matches_enumeration(self):
        model = Hmm(**TWO_STATE)
        paths = k_best_paths(model, TWO_STATE_OBS, 3)
        assert [(p.states.tolist(), p.log_prob) for p in paths] == [
            (states, pytest.approx(score, abs=1e-10)) for states, score in TWO_STATE_TOP3
        ]

    def test_single_state_returns_single_path(self):
        model = Hmm(transition=[[1.0]], emission=[[0.2, 0.8]], initial=[1.0])
        paths = k_best_paths(model, [1, 0, 1], 2)
        assert len(paths) == 1
        assert paths[0].states.tolist() == [0, 0, 0]

    def test_requesting_more_paths_than_exist_returns_all(self):
        model = oracles.random_model(2, 2, seed=23)
        paths = k_best_paths(model, [0, 1], 10)
        assert len(paths) == 4
        as_tuples = [tuple(p.states.tolist()) for p in paths]
        assert len(set(as_tuples)) == 4

    def test_zero_probability_paths_keep_the_index_order(self):
        # Only [1, 1, 1] has nonzero probability.  The cells rank their
        # candidates after adding the emission term, so among the
        # impossible paths the lowest (state, rank) entries survive, and the
        # final tie goes to state 0's first entry.
        model = Hmm(
            transition=[[1.0, 0.0], [2 / 3, 1 / 3]],
            emission=[[0.0, 1.0], [0.5, 0.5]],
            initial=[0.5, 0.5],
        )
        paths = k_best_paths(model, [0, 1, 0], 2)
        assert [p.states.tolist() for p in paths] == [[1, 1, 1], [1, 0, 0]]
        assert np.isneginf(paths[1].log_prob)
        assert [(p.states.tolist(), p.log_prob) for p in paths] == oracles.loop_k_best(
            model, [0, 1, 0], 2
        )

    def test_a_k_beyond_the_path_count_returns_every_path(self):
        # 3**4 paths; a candidate buffer sized by k in place of the
        # candidates that occur would take 67 GiB here.
        model, obs = oracles.random_model(3, 4, seed=1), [0, 1, 2, 3]
        paths = k_best_paths(model, obs, 10**9)
        assert len({tuple(p.states.tolist()) for p in paths}) == 81
        assert [(p.states.tolist(), p.log_prob) for p in paths] == oracles.loop_k_best(
            model, obs, 10**9)

    def test_invalid_k_rejected(self):
        model = oracles.random_model(2, 2, seed=1)
        with pytest.raises(DomainError, match="k"):
            k_best_paths(model, [0, 1], 0)

    @pytest.mark.parametrize("k, message", [
        (2.0, "k must be an integer, got 2.0"), (True, "k must be an integer, got True"),
        ("2", "k must be an integer, got '2'"), (None, "k must be an integer, got None"),
        (0, "k must be >= 1, got 0"), (np.int64(-1), "k must be >= 1, got -1"),
    ], ids=["2.0", "True", "2", "None", "0", "k5"])
    def test_k_must_be_an_integer(self, k, message):
        model = oracles.random_model(2, 2, seed=1)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            k_best_paths(model, [0, 1], k)

    @pytest.mark.parametrize("k", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integer_k_is_an_integer(self, k):
        model = oracles.random_model(2, 2, seed=1)
        assert [(p.states.tolist(), p.log_prob) for p in k_best_paths(model, [0, 1], k)] == [
            (p.states.tolist(), p.log_prob) for p in k_best_paths(model, [0, 1], 3)]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), k=st.sampled_from([1, 2, 3, 7]), coarse=st.booleans())
    def test_matches_the_loop_reference_exactly(self, seed, k, coarse):
        model, obs = coarse_case(seed) if coarse else small_random_case(seed)
        try:
            expected = oracles.loop_k_best(model, obs, k)
        except InferenceError as exc:
            with pytest.raises(InferenceError, match=f"^sequence 0: {re.escape(str(exc))}$"):
                k_best_paths(model, obs, k)
            return
        got = [(p.states.tolist(), p.log_prob) for p in k_best_paths(model, obs, k)]
        assert got == expected  # same order and the same log-probability bits

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), k=st.sampled_from([2, 3, 7]), coarse=st.booleans())
    @example(seed=1419, k=2, coarse=True)  # an exact tie for the best path
    def test_first_path_is_the_viterbi_path(self, seed, k, coarse):
        model, obs = coarse_case(seed) if coarse else small_random_case(seed)
        try:
            viterbi(model, obs)
        except InferenceError:
            return
        for p in range(1, len(obs) + 1):
            best = viterbi(model, obs[:p])
            first = k_best_paths(model, obs[:p], k)[0]
            assert first.states.tolist() == best.states.tolist()
            assert first.log_prob == best.log_prob

    def test_an_exact_tie_puts_the_viterbi_path_first(self):
        # Both paths score -11.665719033862688; the tie goes to the entry
        # ranked first, which is the one viterbi keeps.
        model, obs = coarse_case(1419)
        best = viterbi(model, obs)
        first, second = k_best_paths(model, obs, 2)
        assert first.log_prob == second.log_prob == best.log_prob
        assert first.states.tolist() == best.states.tolist() == [0, 2, 0, 2, 0, 0, 2]
        assert second.states.tolist() == [2, 0, 0, 2, 0, 0, 2]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), k=st.sampled_from([1, 2, 3]), coarse=st.booleans(),
           lengths=st.lists(st.integers(1, 7), max_size=6))
    @example(seed=1419, k=2, coarse=True, lengths=[3, 1, 3, 7])  # an exact tie, equal lengths
    def test_every_step_of_every_flood_matches_the_loop_reference(self, seed, k, coarse, lengths):
        model, obs = coarse_case(seed) if coarse else small_random_case(seed)
        rng = np.random.default_rng(seed + 1)
        for flood in [obs] + [rng.integers(0, model.n_symbols, size=t) for t in lengths]:
            assert_every_step_matches_the_loop_reference(model, flood, k)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 5))
    def test_matches_enumeration_ranking(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 5))
        t = int(rng.integers(1, 7))
        model = oracles.random_model(n, m, seed=seed)
        obs = rng.integers(0, m, size=t)

        paths = k_best_paths(model, obs, k)
        expected_paths, expected_scores = oracles.ranked_paths(model, obs)
        problems = oracles.ranking_mismatches(paths, expected_paths, expected_scores, k)
        assert not problems, problems
        probs = [p.log_prob for p in paths]
        assert all(a >= b for a, b in zip(probs, probs[1:]))


def traced_entries(model, obs, k):
    """After each step of one flood through the list-Viterbi step: the step's
    ``dead`` flag and every entry as a ``(states, log_prob)`` pair, in entry
    order, the states traced back through the package's own back-pointers."""
    step, score, backs = _ListStep(model, k), None, []
    for bonus in _terms(model, np.asarray(obs)):
        score, back = step(score, bonus)
        backs.append(back)
        yield step.dead, list(zip(_trace(backs, model.n_states, range(score.size)),
                                  score.tolist()))


def assert_every_step_matches_the_loop_reference(model, obs, k):
    """Every entry of every step of ``obs``, -inf ones too, equals the loop
    reference's in entry order and to the bit; the step is flagged ``dead``
    exactly where the reference fails, and the decoder then names that step."""
    expected = oracles.loop_list_viterbi(model, obs, k)
    for dead, got in traced_entries(model, obs, k):
        try:
            want = next(expected)
        except InferenceError as exc:
            assert dead
            with pytest.raises(InferenceError, match=f"^sequence 0: {re.escape(str(exc))}$"):
                k_best_paths(model, obs, k)
            return
        assert not dead
        assert got == want


class TestDiagnoserShape:
    """The decoder at the diagnoser's shape: pinned-diagonal models with many
    states, floods of tens of alarms and coarse emissions, which give exact
    ties between paths and, with exact zeros, cells whose lower ranks are
    all ``-inf``."""

    @staticmethod
    def pinned_model(rng, n, zeros):
        """A pinned-diagonal model with a uniform start, 2N symbols and emissions
        that are ratios of small integers; every symbol has a state that emits it."""
        transition = np.full((n, n), HARD_MASK_OFF_DIAGONAL)
        np.fill_diagonal(transition, 1.0 - HARD_MASK_OFF_DIAGONAL * (n - 1))
        weights = rng.integers(0 if zeros else 1, 4, size=(n, 2 * n)).astype(float)
        weights[np.arange(2 * n) % n, np.arange(2 * n)] += 1.0
        return Hmm(transition=transition, emission=weights / weights.sum(axis=1, keepdims=True),
                   initial=np.full(n, 1.0 / n))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), n=st.integers(5, 12), k=st.sampled_from([2, 3]),
           zeros=st.booleans(), lengths=st.lists(st.integers(10, 30), min_size=1, max_size=3))
    # k > N**t for the first steps, and cells whose ranks past the first are -inf
    @example(seed=25, n=2, k=7, zeros=True, lengths=[10, 12, 11])
    def test_every_step_matches_the_loop_reference_exactly(self, seed, n, k, zeros, lengths):
        rng = np.random.default_rng(seed)
        model = self.pinned_model(rng, n, zeros)
        for obs in [rng.integers(0, model.n_symbols, size=t) for t in lengths]:
            got = k_best_paths(model, obs, k)
            assert [(p.states.tolist(), p.log_prob) for p in got] == oracles.loop_k_best(
                model, obs, k)
            assert_every_step_matches_the_loop_reference(model, obs, k)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12), k=st.sampled_from([1, 2, 3]),
           kind=st.sampled_from(["coarse", "pinned", "pinned with zeros", "random"]),
           length=st.integers(1, 30))
    @example(seed=3, n=6, k=2, kind="pinned", length=1)  # a one-alarm flood
    # One state that cannot emit symbol 1: the flood first fails at step 6, and so does
    # every later step (symbol 1 comes again at step 8); the first is the one named.
    @example(seed=27, n=1, k=2, kind="coarse", length=12)
    @example(seed=5, n=3, k=3, kind="coarse", length=5)  # no state emits the first symbol
    def test_one_flood_decodes_as_the_loop_reference(self, seed, n, k, kind, length):
        rng = np.random.default_rng(seed)
        model = self.model_of_kind(kind, rng, n, seed)
        obs = rng.integers(0, model.n_symbols, size=length)
        try:
            expected = [(states, log_prob.hex())
                        for states, log_prob in oracles.loop_k_best(model, obs, k)]
        except InferenceError as exc:
            with pytest.raises(InferenceError, match=f"^sequence 0: {re.escape(str(exc))}$"):
                k_best_paths(model, obs, k)
            return
        got = k_best_paths(model, obs, k)
        assert [(p.states.tolist(), p.log_prob.hex()) for p in got] == expected

    @classmethod
    def model_of_kind(cls, kind, rng, n, seed):
        if kind == "random":
            return oracles.random_model(n, 2 * n, seed=seed)
        if kind == "coarse":  # exact zeros, so some floods cannot be decoded; n is its own
            return coarse_case(seed)[0]
        return cls.pinned_model(rng, n, kind == "pinned with zeros")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12), k=st.sampled_from([1, 2, 3]),
           kind=st.sampled_from(["coarse", "pinned", "pinned with zeros", "random"]),
           lengths=st.lists(st.integers(1, 30), min_size=1, max_size=3))
    @example(seed=27, n=1, k=2, kind="coarse", lengths=[12, 3])
    @example(seed=5, n=3, k=3, kind="coarse", lengths=[5, 2])  # no state emits the first symbol
    def test_the_step_flags_each_flood_with_no_entry_above_minus_inf(
            self, seed, n, k, kind, lengths):
        rng = np.random.default_rng(seed)
        model = self.model_of_kind(kind, rng, n, seed)
        zeros = any((arr == 0).any() for arr in (model.transition, model.emission, model.initial))
        n = model.n_states
        for obs in [rng.integers(0, model.n_symbols, size=t) for t in lengths]:
            step, score = _ListStep(model, k), None
            for bonus in _terms(model, obs):
                score, _ = step(score, bonus)
                # the rank-0 entries, one per state, are the best of their cells
                assert step.dead is (zeros and bool(np.isneginf(score[:: score.size // n]).all()))


class TestLogSpaceCache:
    """Each model builds its log-space arrays on its first decode, and its
    transition's pinned form on its first forward pass, and keeps them."""

    @staticmethod
    def decoded(model, obs):
        return [[(p.states.tolist(), p.log_prob) for p in k_best_paths(model, obs, k)]
                for k in (1, 2, 3)]

    def test_models_of_one_shape_decoded_in_turn_keep_their_own_bits(self):
        obs = np.random.default_rng(5).integers(0, 6, size=12)
        first, second = oracles.random_model(4, 6, seed=1), oracles.random_model(4, 6, seed=2)
        expected = {id(model): [oracles.loop_k_best(model, obs, k) for k in (1, 2, 3)]
                    for model in (first, second)}
        assert expected[id(first)] != expected[id(second)]
        for model in (first, second, first, second, first):
            assert self.decoded(model, obs) == expected[id(model)]

    def test_the_cache_is_no_part_of_the_model_value(self):
        # Decoding builds _log_space; the forward pass builds _pinned, the
        # transition's (d - e, e) form, or None when it has none.
        dense = oracles.random_model(4, 6, seed=3)
        pinned = Hmm(np.full((4, 4), 0.25), dense.emission, dense.initial)
        for model in (dense, pinned):
            fields, text, document = dataclasses.fields(Hmm), repr(model), hmm_to_dict(model)
            for cache, use in (("_log_space", lambda: self.decoded(model, [0, 5, 2])),
                               ("_pinned", lambda: total_log_likelihood(model, [[0, 5, 2]]))):
                assert cache not in vars(model)
                use()
                assert cache in vars(model)
            assert (vars(model)["_pinned"] is None) == (model is dense)
            # The generated __eq__ compares the fields alone.
            assert dataclasses.fields(Hmm) == fields
            assert not {"_log_space", "_pinned"} & {field.name for field in fields}
            assert repr(model) == text
            assert hmm_to_dict(model) == document

    @pytest.mark.parametrize("case", ["dense", "coarse with zeros"])
    def test_decoding_leaves_the_log_arrays_as_first_built(self, case):
        model, obs = ((oracles.random_model(4, 6, seed=6), np.array([0, 5, 2, 3, 1]))
                      if case == "dense" else coarse_case(1419))
        log = model._log_space
        assert log.zeros == (case != "dense")
        built = dict(vars(log))
        for k in (1, 2, 3):
            k_best_paths(model, obs, k)
        assert vars(log).keys() == built.keys()
        for key, value in vars(log).items():
            assert value is built[key], key
            assert isinstance(value, (int, bool)) or not value.flags.writeable, key

    def test_a_fitted_model_decodes_as_its_arrays_do(self):
        rng = np.random.default_rng(7)
        sequences = [rng.integers(0, 6, size=t) for t in (9, 4, 12)]
        models = []
        trained, _ = fit(oracles.random_model(4, 6, seed=4), sequences, FitConfig(max_iterations=5),
                         on_iteration=lambda _, model, __: models.append(model))
        # Training decodes nothing, so none of its models builds the cache.
        assert not any("_log_space" in vars(model) for model in models)
        rebuilt = Hmm(trained.transition, trained.emission, trained.initial)
        for obs in sequences:
            assert self.decoded(trained, obs) == self.decoded(rebuilt, obs)
