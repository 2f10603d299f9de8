"""Viterbi and k-best decoding against full path enumeration."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alarmhmm import (
    DomainError,
    Hmm,
    InferenceError,
    k_best_paths,
    prefix_paths,
    random_model,
    viterbi,
)
from alarmhmm.hmm import _batch, _best_paths, _FloodError, _list_viterbi

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


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), coarse=st.booleans())
def test_prefix_paths_equal_viterbi_of_every_prefix(seed, coarse):
    model, obs = coarse_case(seed) if coarse else small_random_case(seed)
    try:
        prefixes = prefix_paths(model, obs)
    except InferenceError as exc:
        with pytest.raises(InferenceError, match=f"^{re.escape(str(exc))}$"):
            viterbi(model, obs)
        return
    assert len(prefixes) == len(obs)
    for p, path in enumerate(prefixes, start=1):
        expected = viterbi(model, obs[:p])
        assert path.states.tolist() == expected.states.tolist()
        assert path.log_prob == expected.log_prob


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
        model = random_model(2, 2, seed=23)
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

    def test_invalid_k_rejected(self):
        model = random_model(2, 2, seed=1)
        with pytest.raises(DomainError, match="k"):
            k_best_paths(model, [0, 1], 0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), k=st.sampled_from([1, 2, 3, 7]), coarse=st.booleans())
    def test_matches_the_loop_reference_exactly(self, seed, k, coarse):
        model, obs = coarse_case(seed) if coarse else small_random_case(seed)
        try:
            expected = oracles.loop_k_best(model, obs, k)
        except InferenceError as exc:
            with pytest.raises(InferenceError, match=f"^{re.escape(str(exc))}$"):
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

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 5))
    def test_matches_enumeration_ranking(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 5))
        t = int(rng.integers(1, 7))
        model = random_model(n, m, seed=seed)
        obs = rng.integers(0, m, size=t)

        paths = k_best_paths(model, obs, k)
        expected_paths, expected_scores = oracles.ranked_paths(model, obs)
        problems = oracles.ranking_mismatches(paths, expected_paths, expected_scores, k)
        assert not problems, problems
        probs = [p.log_prob for p in paths]
        assert all(a >= b for a, b in zip(probs, probs[1:]))


class TestBatched:
    """Floods decoded side by side give each flood its decode alone."""

    @staticmethod
    def floods(seed, coarse, lengths):
        """A small case's model, its sequence and more floods of ``lengths`` under it."""
        model, obs = coarse_case(seed) if coarse else small_random_case(seed)
        rng = np.random.default_rng(seed + 1)
        return model, [obs] + [rng.integers(0, model.n_symbols, size=t) for t in lengths]

    @staticmethod
    def alone(model, obs, k):
        try:
            return oracles.loop_k_best(model, obs, k)
        except InferenceError as exc:
            return exc

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), k=st.sampled_from([1, 2, 3]), coarse=st.booleans(),
           lengths=st.lists(st.integers(1, 7), max_size=6))
    @example(seed=1419, k=2, coarse=True, lengths=[3, 1, 3, 7])  # an exact tie, equal lengths
    def test_every_step_of_every_flood_matches_its_decode_alone(self, seed, k, coarse, lengths):
        model, floods = self.floods(seed, coarse, lengths)
        expected = [self.alone(model, obs, k) for obs in floods]
        failed = [i for i, result in enumerate(expected) if isinstance(result, InferenceError)]
        batch = _batch(floods)
        steps = _list_viterbi(model, batch, k)
        if failed:
            # every flood is decoded to its end, then the first failing one is named
            with pytest.raises(_FloodError) as info:
                list(steps)
            assert info.value.index == failed[0]
            assert str(info.value) == str(expected[failed[0]])
            return
        for t, (score, paths) in enumerate(steps):
            rows = score[0].size
            for column in range(batch.active[t]):
                obs = floods[batch.order[column]]
                got = _best_paths(score[column], paths[column * rows:(column + 1) * rows], k)
                alone = k_best_paths(model, obs[:t + 1], k)
                assert [(p.states.tolist(), p.log_prob) for p in got] == [
                    (p.states.tolist(), p.log_prob) for p in alone]
                if t + 1 == obs.size:
                    assert [(p.states.tolist(), p.log_prob) for p in got] == expected[
                        batch.order[column]]
