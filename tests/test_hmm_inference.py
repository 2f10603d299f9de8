"""Forward/backward and posterior computations against enumeration oracles."""

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
    total_log_likelihood,
)
from alarmhmm.hmm import _backward, _batch, _forward, _workspace

import oracles

# Frozen with oracles.enum_log_likelihood / enum_state_posteriors.
TWO_STATE = dict(
    transition=[[0.7, 0.3], [0.4, 0.6]],
    emission=[[0.5, 0.5], [0.1, 0.9]],
    initial=[0.6, 0.4],
)
TWO_STATE_OBS = [0, 1, 1]
TWO_STATE_LOG_LIKELIHOOD = -1.9242582523202143
TWO_STATE_GAMMA = [
    [0.85653222, 0.14346778],
    [0.47991561, 0.52008439],
    [0.41148345, 0.58851655],
]


def small_random_case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    m = int(rng.integers(2, 6))
    t = int(rng.integers(1, 9))
    model = oracles.random_model(n, m, seed=seed)
    obs = rng.integers(0, m, size=t)
    return model, obs


def scaled_trellis(model, obs):
    """The kernels' scaled alpha and beta, (T, N), and scale factors, (T,), of one sequence."""
    batch = _batch([np.asarray(obs, dtype=np.int64)])
    work = _workspace([batch], model.n_states)
    emit, alpha, scale = _forward(model, batch, work)
    return alpha[:, 0], _backward(model, batch, emit, scale, work[2])[:, 0], scale[:, 0]


class TestForwardBackward:
    def test_single_state_likelihood_is_emission_product(self):
        model = Hmm(transition=[[1.0]], emission=[[0.3, 0.7]], initial=[1.0])
        obs = [0, 1, 1]
        expected = np.log(0.3) + np.log(0.7) + np.log(0.7)
        assert total_log_likelihood(model, [obs]) == pytest.approx(expected, rel=1e-12)
        assert np.allclose(scaled_trellis(model, obs)[0], 1.0)

    def test_two_state_matches_enumeration(self):
        model = Hmm(**TWO_STATE)
        log_likelihood = total_log_likelihood(model, [TWO_STATE_OBS])
        assert log_likelihood == pytest.approx(TWO_STATE_LOG_LIKELIHOOD, abs=1e-12)
        assert log_likelihood == pytest.approx(
            oracles.enum_log_likelihood(model, TWO_STATE_OBS), rel=1e-12
        )

    def test_uniform_model_likelihood_depends_only_on_alphabet(self):
        n, m = 3, 4
        model = Hmm(
            transition=np.full((n, n), 1.0 / n),
            emission=np.full((n, m), 1.0 / m),
            initial=np.full(n, 1.0 / n),
        )
        log_likelihood = total_log_likelihood(model, [[0, 3, 1, 2, 2]])
        assert log_likelihood == pytest.approx(5 * np.log(1.0 / m), rel=1e-12)

    def test_scaled_alpha_rows_sum_to_one(self):
        model, obs = small_random_case(7)
        scaled_alpha, _, _ = scaled_trellis(model, obs)
        assert np.allclose(scaled_alpha.sum(axis=1), 1.0, atol=1e-9)

    def test_log_likelihood_is_negative_log_scale_sum(self):
        model, obs = small_random_case(11)
        _, _, scale_factors = scaled_trellis(model, obs)
        assert total_log_likelihood(model, [obs]) == pytest.approx(
            -np.log(scale_factors).sum(), rel=1e-12
        )

    def test_symbol_out_of_range_names_position(self):
        model = Hmm(**TWO_STATE)
        with pytest.raises(DomainError, match="position 2"):
            total_log_likelihood(model, [[0, 1, 5]])

    def test_zero_probability_step_is_reported(self):
        model = Hmm(
            transition=[[0.5, 0.5], [0.5, 0.5]],
            emission=[[1.0, 0.0], [1.0, 0.0]],
            initial=[0.5, 0.5],
        )
        with pytest.raises(InferenceError, match="step 1"):
            total_log_likelihood(model, [[0, 1]])

    @pytest.mark.parametrize("seed", range(20))
    def test_unscaled_alpha_beta_reconstruct_likelihood(self, seed):
        model, obs = small_random_case(seed)
        scaled_alpha, scaled_beta, c = scaled_trellis(model, obs)
        log_likelihood = total_log_likelihood(model, [obs])
        for t in range(obs.size):
            alpha_t = scaled_alpha[t] / np.prod(c[: t + 1])
            beta_t = scaled_beta[t] / np.prod(c[t:])
            assert np.log((alpha_t * beta_t).sum()) == pytest.approx(log_likelihood, rel=1e-9)

    def test_a_used_workspace_leaves_the_trellis_zero_past_each_end(self):
        # fit hands every chunk views over what earlier chunks left, so the
        # kernels must clear the padding themselves, once per call; NaN stands
        # for a fresh buffer, and the second chunk, of another (L, S), reads
        # over what the first left.
        model = oracles.random_model(3, 4, seed=9)
        batches = [_batch([np.array([0, 1]), np.array([2, 3, 1, 0]), np.array([3])]),
                   _batch([np.array([1, 2, 0, 3, 3]), np.array([0, 2])])]
        work = [np.full(batches[0].symbols.size * 3 + 5, np.nan) for _ in range(3)]
        for batch in batches:
            emit, alpha, scale = _forward(model, batch, work)
            beta = _backward(model, batch, emit, scale, work[2])
            padding = batch.padding
            assert padding.any()
            for trellis in (emit, alpha, beta):
                assert not trellis[padding].any()
                assert np.isfinite(trellis).all()
            assert (alpha[~padding] > 0.0).any(axis=1).all()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000))
    def test_likelihood_matches_path_enumeration(self, seed):
        model, obs = small_random_case(seed)
        log_likelihood = total_log_likelihood(model, [obs])
        expected = oracles.enum_log_likelihood(model, obs)
        assert np.exp(log_likelihood) == pytest.approx(np.exp(expected), rel=1e-9)


class TestPosteriors:
    def test_single_state_posteriors_are_all_ones(self):
        model = Hmm(transition=[[1.0]], emission=[[0.4, 0.6]], initial=[1.0])
        obs = [1, 0, 1, 1]
        post = oracles.posteriors(model, obs)
        assert np.allclose(post.gamma, 1.0)
        assert post.xi.shape == (3, 1, 1)
        assert np.allclose(post.xi, 1.0)

    def test_two_state_gamma_matches_enumeration(self):
        model = Hmm(**TWO_STATE)
        post = oracles.posteriors(model, TWO_STATE_OBS)
        assert np.allclose(post.gamma, TWO_STATE_GAMMA, atol=1e-8)
        assert np.allclose(
            post.gamma, oracles.enum_state_posteriors(model, TWO_STATE_OBS), atol=1e-10
        )
        assert np.allclose(
            post.xi, oracles.enum_pair_posteriors(model, TWO_STATE_OBS), atol=1e-10
        )

    def test_deterministic_chain_concentrates_on_start_state(self):
        model = Hmm(
            transition=[[1.0, 0.0], [0.0, 1.0]],
            emission=[[0.7, 0.3], [0.2, 0.8]],
            initial=[1.0, 0.0],
        )
        obs = [0, 1, 0]
        post = oracles.posteriors(model, obs)
        assert np.allclose(post.gamma[:, 0], 1.0)

    def test_unknown_symbol_names_sequence_0(self):
        model = Hmm(**TWO_STATE)
        with pytest.raises(UnknownSymbolError,
                           match=r"^sequence 0: symbol 5 at position 1 is outside \[0, 2\)$"):
            total_log_likelihood(model, [[0, 5]])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000))
    def test_normalization_and_marginal_consistency(self, seed):
        model, obs = small_random_case(seed)
        post = oracles.posteriors(model, obs)
        assert np.allclose(post.gamma.sum(axis=1), 1.0, atol=1e-9)
        if post.xi.size:
            assert np.allclose(post.xi.sum(axis=(1, 2)), 1.0, atol=1e-9)
            assert np.allclose(post.xi.sum(axis=2), post.gamma[:-1], atol=1e-9)


@st.composite
def acceptance_instances(draw):
    """A model and sequence from acceptance criterion 1's family: N in 1..4, M in 2..5, T in 1..8."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    model = oracles.random_model(n, m, seed=draw(st.integers(0, 2**31 - 1)))
    return model, np.array(draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=8)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=acceptance_instances(), data=st.data())
def test_total_log_likelihood_keeps_the_posterior_oracle_bits(case, data):
    # The forward-pass tests call total_log_likelihood(model, [obs]) where
    # they called the single-sequence posteriors; both run the same _forward.
    model, obs = case
    direct = total_log_likelihood(model, [obs])
    assert np.float64(direct).tobytes() == np.float64(
        oracles.posteriors(model, obs).log_likelihood).tobytes()
    # A symbol no state emits makes its first occurrence a zero-probability step.
    emission = model.emission.copy()
    emission[:, obs[data.draw(st.integers(0, obs.size - 1))]] = 0.0
    emission /= emission.sum(axis=1, keepdims=True)
    zeroed = Hmm(transition=model.transition, emission=emission, initial=model.initial)
    with pytest.raises(InferenceError) as direct_error:
        total_log_likelihood(zeroed, [obs])
    with pytest.raises(InferenceError) as oracle_error:
        oracles.posteriors(zeroed, obs)
    assert str(direct_error.value) == str(oracle_error.value)
    assert str(direct_error.value).startswith("sequence 0: zero total forward probability at step ")


def pinned_transition(n, d):
    """The (N, N) transition with ``d`` on the diagonal and ``(1 - d) / (N - 1)``
    elsewhere; ``"uniform"`` is ``1 / N`` everywhere, so ``d`` equals the rest."""
    if d == "uniform":
        return np.full((n, n), 1.0 / n)
    transition = np.full((n, n), (1.0 - d) / (n - 1))
    np.fill_diagonal(transition, d)
    return transition


@st.composite
def pinned_cases(draw):
    """A model with a pinned transition (N 2-4, M 2-4, random emissions and
    start) and 1-3 sequences of 1-5 symbols."""
    n, m = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    d = draw(st.one_of(st.just(1.0), st.just("uniform"), st.floats(1e-3, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = Hmm(transition=pinned_transition(n, d), emission=rng.dirichlet(np.ones(m), size=n),
                initial=rng.dirichlet(np.ones(n)))
    symbols = st.lists(st.integers(0, m - 1), min_size=1, max_size=5)
    return model, draw(st.lists(symbols, min_size=1, max_size=3))


class TestPinnedTransition:
    """A transition ``(d - e) I + e J`` takes the forward/backward steps without
    the (N, N) product; every other transition keeps the product."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=pinned_cases())
    @example(case=(Hmm(np.eye(2), [[0.9, 0.1], [0.2, 0.8]], [0.5, 0.5]), [[0, 1, 1, 0]]))
    @example(case=(Hmm(pinned_transition(3, "uniform"), [[0.7, 0.3], [0.4, 0.6], [0.5, 0.5]],
                       [0.2, 0.3, 0.5]), [[1, 0, 1], [0]]))
    def test_the_structured_steps_match_enumeration(self, case):
        model, sequences = case
        assert model._pinned is not None
        for obs in sequences:
            assert total_log_likelihood(model, [obs]) == pytest.approx(
                oracles.enum_log_likelihood(model, obs), rel=1e-12)
            assert np.allclose(oracles.posteriors(model, obs).gamma,
                               oracles.enum_state_posteriors(model, obs), rtol=0.0, atol=1e-9)
        fitted, _ = fit(model, sequences, FitConfig(max_iterations=1, emission_floor=0.0),
                        fixed_transitions=True)
        _, emission, initial = oracles.enum_em_update(model, sequences)
        assert np.allclose(fitted.emission, emission, rtol=0.0, atol=1e-12)
        assert np.allclose(fitted.initial, initial, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("d", [1.0, "uniform", 0.9, 0.1])
    def test_a_zero_step_names_the_first_failing_sequence_as_the_dense_path_does(self, d):
        # No state emits symbol 2.  Two states make chunks of two: sequence 2 is
        # the first in list order that fails (at step 3), and sequence 3, longer
        # and so in the chunk's first column, fails at step 0; the third chunk
        # fails too.
        transition = pinned_transition(2, d)
        emission = [[0.6, 0.4, 0.0], [0.3, 0.7, 0.0]]
        pinned = Hmm(transition, emission, [0.5, 0.5])
        dense_transition = transition.copy()
        dense_transition[0, 1] = np.nextafter(dense_transition[0, 1], 1.0)
        dense = Hmm(dense_transition, emission, [0.5, 0.5])
        assert pinned._pinned is not None and dense._pinned is None
        sequences = [[0, 1], [1], [0, 1, 0, 2], [2, 0, 1, 1, 0], [1, 1], [2, 2, 0]]
        message = r"^sequence 2: zero total forward probability at step 3$"
        for model in (pinned, dense):
            with pytest.raises(InferenceError, match=message):
                total_log_likelihood(model, sequences)
            with pytest.raises(InferenceError, match=message):
                fit(model, sequences, fixed_transitions=True)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 2), (1, 1), (2, 0), (2, 1)])
    def test_one_entry_one_ulp_off_the_form_is_dense(self, entry):
        transition = pinned_transition(3, 0.998)
        emission, initial = [[0.5, 0.5]] * 3, [0.2, 0.3, 0.5]
        assert Hmm(transition, emission, initial)._pinned == (
            0.998 - transition[0, 1], transition[0, 1])
        transition[entry] = np.nextafter(transition[entry], 0.0)
        assert Hmm(transition, emission, initial)._pinned is None

    def test_one_state_is_dense(self):
        assert Hmm([[1.0]], [[0.3, 0.7]], [1.0])._pinned is None
