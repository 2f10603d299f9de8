"""Diagnoser training, the primary/secondary fault rule, prefix evaluation."""

import hashlib
import json
import re

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
    viterbi,
)
from alarmhmm import diagnoser as diagnoser_module
from alarmhmm import hmm as hmm_module
from alarmhmm.alarms import AlarmSequence, AlarmSymbolCodebook
from alarmhmm.cli import main
from alarmhmm.diagnoser import (
    HARD_MASK_OFF_DIAGONAL,
    AccuracyCurve,
    DiagnoserModel,
    LabeledSequence,
    as_labeled,
    diagnose,
    diagnose_all,
    evaluate_prefix_accuracy,
    load_diagnoser,
    save_diagnoser,
    train_diagnoser,
)
from alarmhmm.plantsim import default_graph, default_scenario_counts, generate_scenario_set

import oracles

from test_hmm_decode import coarse_case


def labeled(symbols, fault):
    times = [float(10 * i) for i in range(len(symbols))]
    return LabeledSequence(AlarmSequence(symbols=list(symbols), times=times, fault=fault))


def coarse_diagnoser(seed):
    """``coarse_case(seed)`` as a diagnoser (exact zeros and exact ties) and its sequence.

    An odd alphabet gets one symbol no state emits, so that it fits a codebook.
    """
    hmm, obs = coarse_case(seed)
    emission = np.pad(hmm.emission, ((0, 0), (0, hmm.n_symbols % 2)))
    model = DiagnoserModel(
        hmm=Hmm(transition=hmm.transition, emission=emission, initial=hmm.initial),
        fault_names=tuple(f"f{i}" for i in range(hmm.n_states)),
        codebook=AlarmSymbolCodebook(n_measurements=(hmm.n_symbols + 1) // 2),
    )
    return model, obs


def floods_under(model, seed, count):
    """``count`` labeled floods of 1 to 8 random symbols and random faults of ``model``."""
    rng = np.random.default_rng(seed)
    return [
        labeled(rng.integers(0, model.hmm.n_symbols, size=int(rng.integers(1, 9))),
                int(rng.integers(0, model.n_faults)))
        for _ in range(count)
    ]


def path_bits(paths):
    """Each path's states and the bits of its log probability; ``None`` stays."""
    return [None if path is None else (path.states.tolist(), path.log_prob.hex())
            for path in paths]


def verdict_bits(verdict):
    """A verdict's faults and the bits of both its paths."""
    return (verdict.primary_fault, verdict.secondary_fault,
            *path_bits([verdict.path, verdict.second_path]))


def disjoint_training(n_faults=4, per_fault=3, block=4):
    """Each fault emits its own disjoint block of symbols."""
    out = []
    for fault in range(n_faults):
        base = fault * block
        for r in range(per_fault):
            symbols = [base + (r + k) % block for k in range(block)]
            out.append(labeled(symbols, fault))
    return out, AlarmSymbolCodebook(n_measurements=n_faults * block // 2)


class TestTraining:
    def test_single_fault_counts_frequencies(self):
        book = AlarmSymbolCodebook(n_measurements=2)
        model = train_diagnoser([labeled([0, 1, 1, 2], 0)], codebook=book)
        assert model.n_faults == 1
        assert np.allclose(model.hmm.emission[0], [0.25, 0.5, 0.25, 0.0], atol=1e-8)
        verdict = diagnose(model, [3])
        assert verdict.primary_fault == 0
        assert verdict.secondary_fault is None

    def test_priors_seed_the_initial_distribution(self):
        book = AlarmSymbolCodebook(n_measurements=2)
        training = [labeled([0, 1], 0), labeled([2, 3], 1)]
        model = train_diagnoser(training, config=FitConfig(max_iterations=1), codebook=book)
        # symmetric data and the uniform start stay symmetric after one step
        assert np.allclose(model.hmm.initial, [0.5, 0.5], atol=1e-12)
        # the configuration is keyword-only, so a positional priors vector is refused
        with pytest.raises(TypeError):
            train_diagnoser(training, [0.5, 0.5], codebook=book)

    def test_every_fault_needs_training_data(self):
        book = AlarmSymbolCodebook(n_measurements=2)
        with pytest.raises(DomainError, match="fault 1 has no training"):
            train_diagnoser([labeled([0], 0), labeled([1], 2)], codebook=book)

    def test_hard_mask_pins_the_transition_structure(self):
        training, book = disjoint_training()
        model = train_diagnoser(training, codebook=book)  # hard mask is the default
        n = model.n_faults
        off = model.hmm.transition[~np.eye(n, dtype=bool)]
        assert np.allclose(off, 1e-3, atol=1e-15)
        assert np.allclose(np.diag(model.hmm.transition), 1.0 - 1e-3 * (n - 1), atol=1e-12)

    def test_the_trained_transition_takes_the_structured_step_after_a_round_trip(
            self, tmp_path):
        training, book = disjoint_training()
        model = train_diagnoser(training, codebook=book)
        diagonal = 1.0 - HARD_MASK_OFF_DIAGONAL * (model.n_faults - 1)
        expected = (diagonal - HARD_MASK_OFF_DIAGONAL, HARD_MASK_OFF_DIAGONAL)
        assert model.hmm._pinned == expected
        save_diagnoser(model, tmp_path / "model.json")
        assert load_diagnoser(tmp_path / "model.json").hmm._pinned == expected

    def test_pinned_structure_holds_at_most_1001_faults(self):
        # The pinned diagonal is 1 - (F - 1) * 1e-3, which is negative past 1,001 faults.
        book = AlarmSymbolCodebook(n_measurements=2)
        training = [labeled([fault % 4], fault) for fault in range(1002)]
        message = ("1002 faults exceed the 1001 that the pinned transition structure holds "
                   "(off-diagonal mass 0.001 each)")
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            train_diagnoser(training, codebook=book)
        model = train_diagnoser(training[:-1], config=FitConfig(max_iterations=1), codebook=book)
        assert model.n_faults == 1001
        assert (np.diag(model.hmm.transition) == 0.0).all()

    def test_unlabeled_sequences_rejected(self):
        seq = AlarmSequence(symbols=[1], times=[0.0], fault=None)
        with pytest.raises(DomainError, match="^no fault label$"):
            LabeledSequence(seq)
        good = AlarmSequence(symbols=[1], times=[0.0], fault=0)
        with pytest.raises(DomainError, match="^sequence 1: no fault label$"):
            as_labeled([good, seq])

    def test_negative_fault_label_rejected(self):
        with pytest.raises(DomainError, match="^fault label must be non-negative, got -1$"):
            labeled([0], -1)
        with pytest.raises(DomainError, match="^fault label must be non-negative, got -2$"):
            AlarmSequence(symbols=[1], times=[0.0], fault=-2)

    @pytest.mark.parametrize("fault", [1.5, True])
    def test_fault_label_must_be_an_integer(self, fault):
        with pytest.raises(DomainError, match=f"^fault label must be an integer, got {fault}$"):
            AlarmSequence(symbols=[1], times=[0.0], fault=fault)
        numpy_label = AlarmSequence(symbols=[1], times=[0.0], fault=np.int64(1))
        assert as_labeled([numpy_label])[0].fault == 1

    def test_config_echo_recorded(self):
        training, book = disjoint_training()
        model = train_diagnoser(training, codebook=book)
        # the exact key set, so that a dropped or an added setting shows up here
        assert set(model.training) == {"n_sequences", "iterations", "final_log_likelihood",
                                       "max_iterations", "rel_tol", "emission_floor",
                                       "init_smoothing"}
        assert model.training["n_sequences"] == len(training)
        assert model.training["iterations"] >= 1


def uniform_diagnoser(weights):
    """A diagnoser whose emission rows are the integer ``weights`` (one row per
    fault, an even number of symbols) normalized, with uniform transitions
    and initial distribution, so that every flood some fault emits decodes."""
    emission = np.array(weights, dtype=float)
    emission /= emission.sum(axis=1, keepdims=True)
    n, m = emission.shape
    return DiagnoserModel(
        hmm=Hmm(transition=np.full((n, n), 1 / n), emission=emission, initial=np.full(n, 1 / n)),
        fault_names=tuple(f"f{i}" for i in range(n)),
        codebook=AlarmSymbolCodebook(n_measurements=m // 2),
    )


@st.composite
def verdict_cases(draw):
    """A :func:`uniform_diagnoser` of 1 to 5 faults over 2 or 4 symbols, whose
    weights 0..3 make exact ties and ``-inf`` scores, and a flood of 1 to 8
    of its symbols."""
    n, m = draw(st.integers(1, 5)), 2 * draw(st.integers(1, 2))
    row = st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any)
    weights = draw(st.lists(row, min_size=n, max_size=n))
    return uniform_diagnoser(weights), draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=8))


class TestDiagnose:
    def test_disjoint_emissions_force_the_decode(self):
        training, book = disjoint_training()
        model = train_diagnoser(training, codebook=book)
        verdict = diagnose(model, [12, 13, 14, 15])  # fault 3's block
        assert verdict.primary_fault == 3
        assert verdict.path.states.tolist() == [3, 3, 3, 3]

    def test_crafted_two_fault_example(self):
        # Enumeration oracle on this model ranks [0,0,1] first and [0,0,0]
        # second for the observation [0,0,1] (log probs frozen below).
        hmm = Hmm(
            transition=[[0.6, 0.4], [0.5, 0.5]],
            emission=[[0.7, 0.3], [0.2, 0.8]],
            initial=[0.8, 0.2],
        )
        model = DiagnoserModel(
            hmm=hmm, fault_names=("a", "b"), codebook=AlarmSymbolCodebook(1)
        )
        verdict = diagnose(model, [0, 0, 1])
        assert verdict.path.states.tolist() == [0, 0, 1]
        assert verdict.path.log_prob == pytest.approx(-2.58675334614603, abs=1e-10)
        assert verdict.second_path.states.tolist() == [0, 0, 0]
        assert verdict.second_path.log_prob == pytest.approx(-3.1621174910495924, abs=1e-10)
        # fault 0 emits [0, 0, 1] with 0.7 * 0.7 * 0.3 = 0.147, fault 1 with
        # 0.2 * 0.2 * 0.8 = 0.032: fault 0 is primary, fault 1 the runner-up
        assert (verdict.primary_fault, verdict.secondary_fault) == (0, 1)
        assert oracles.loop_posterior_verdicts(hmm, [0, 0, 1])[-1] == (0, 1)

        expected_paths, expected_scores = oracles.ranked_paths(hmm, [0, 0, 1])
        assert verdict.path.states.tolist() == expected_paths[0].tolist()
        assert verdict.second_path.states.tolist() == expected_paths[1].tolist()

    def test_constant_best_path_takes_runner_up_from_second_path(self):
        hmm = Hmm(
            transition=[[0.9, 0.1], [0.5, 0.5]],
            emission=[[0.9, 0.1], [0.8, 0.2]],
            initial=[0.99, 0.01],
        )
        model = DiagnoserModel(
            hmm=hmm, fault_names=("a", "b"), codebook=AlarmSymbolCodebook(1)
        )
        verdict = diagnose(model, [0, 0])
        assert verdict.path.states.tolist() == [0, 0]
        assert verdict.second_path.states.tolist() == [0, 1]
        # the best path never visits fault 1, which is still the runner-up:
        # 0.8 * 0.8 against fault 0's 0.9 * 0.9
        assert (verdict.primary_fault, verdict.secondary_fault) == (0, 1)
        assert oracles.loop_posterior_verdicts(hmm, [0, 0]) == [(0, 1), (0, 1)]

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=verdict_cases())
    @example(case=(uniform_diagnoser([[1, 1], [1, 1], [2, 0]]), [1]))  # a tie for the primary
    @example(case=(uniform_diagnoser([[1, 0], [0, 1], [0, 1]]), [0]))  # -inf runners-up tie
    @example(case=(uniform_diagnoser([[1, 1]]), [0, 1]))                # one fault, no secondary
    @example(case=(uniform_diagnoser([[1, 0], [0, 1]]), [0, 1]))        # every fault fails
    def test_verdict_follows_the_counted_rule(self, case):
        # The faults ranked by their summed log emission terms at the last
        # alarm, counted in plain Python; the path is still Viterbi's.
        model, flood = case
        try:
            expected = oracles.loop_posterior_verdicts(model.hmm, flood)[-1]
        except InferenceError as exc:
            with pytest.raises(InferenceError, match=f"^{re.escape(f'sequence 0: {exc}')}$"):
                diagnose(model, flood)
            return
        verdict = diagnose(model, flood)
        assert (verdict.primary_fault, verdict.secondary_fault) == expected
        assert verdict.path.states.tolist() == viterbi(model.hmm, flood).states.tolist()

    def test_length_one_sequence_closed_form(self):
        training, book = disjoint_training()
        model = train_diagnoser(training, codebook=book)
        symbol = 5
        verdict = diagnose(model, [symbol])
        # the verdict reads the emissions alone; the path weighs in the initial distribution
        assert verdict.primary_fault == int(np.argmax(model.hmm.emission[:, symbol]))
        expected = int(np.argmax(model.hmm.initial * model.hmm.emission[:, symbol]))
        assert verdict.path.states.tolist() == [expected]

    def test_unknown_symbol_rejected(self):
        training, book = disjoint_training()
        model = train_diagnoser(training, codebook=book)
        with pytest.raises(UnknownSymbolError):
            diagnose(model, [book.n_symbols + 3])

    @pytest.mark.parametrize("seed", range(8))
    def test_modal_rule_recount(self, seed):
        rng = np.random.default_rng(seed)
        training, book = disjoint_training()
        model = train_diagnoser(training, codebook=book)
        symbols = rng.integers(0, book.n_symbols, size=6).tolist()
        verdict = diagnose(model, symbols)
        alone = viterbi(model.hmm, symbols)
        assert alone.states.tolist() == verdict.path.states.tolist()
        assert alone.log_prob == verdict.path.log_prob
        expected = oracles.loop_posterior_verdicts(model.hmm, symbols)[-1]
        assert (verdict.primary_fault, verdict.secondary_fault) == expected
        assert verdict.secondary_fault != verdict.primary_fault

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 20_000), coarse=st.booleans())
    @example(seed=1419, coarse=True)  # an exact tie for the best path
    def test_diagnose_all_equals_diagnosing_each_flood(self, seed, coarse):
        if coarse:
            model = coarse_diagnoser(seed)[0]
        else:
            training, book = disjoint_training()
            model = train_diagnoser(training, codebook=book)
        floods = [item.symbols for item in floods_under(model, seed, 2 * model.n_faults + 1)]
        alone, failures = [], []
        for index, obs in enumerate(floods):
            try:
                alone.append(diagnose(model, obs))
            except InferenceError as exc:
                # a flood that fails is named by its list index
                failures.append(str(exc).replace("sequence 0: ", f"sequence {index}: ", 1))
        if failures:
            # each flood is scored and decoded in turn, so the first to fail is named
            with pytest.raises(InferenceError, match=f"^{re.escape(failures[0])}$"):
                diagnose_all(model, floods)
            return

        def fields(verdict):
            return (verdict.primary_fault, verdict.secondary_fault) + tuple(
                None if path is None else (path.states.tolist(), path.log_prob)
                for path in (verdict.path, verdict.second_path))

        assert [fields(v) for v in diagnose_all(model, floods)] == [fields(v) for v in alone]

    def test_determinism(self):
        training, book = disjoint_training()
        model = train_diagnoser(training, codebook=book)
        a = diagnose(model, [0, 5, 9])
        b = diagnose(model, [0, 5, 9])
        assert a.primary_fault == b.primary_fault
        assert a.secondary_fault == b.secondary_fault
        assert a.path.states.tolist() == b.path.states.tolist()
        assert a.path.log_prob == b.path.log_prob

    def test_a_flood_that_cannot_be_decoded_is_named_before_a_later_one_that_cannot_be_scored(
            self, tmp_path, capsys):
        # Only state 0 may start, and it emits only symbol 0.  Flood 0 scores
        # (fault 1 emits symbol 1) but has no state path; every fault scores
        # -inf on flood 1 from step 1.
        model = DiagnoserModel(
            hmm=Hmm(transition=np.full((2, 2), 0.5), emission=np.eye(2), initial=[1.0, 0.0]),
            fault_names=("a", "b"), codebook=AlarmSymbolCodebook(1),
        )
        decoding = "sequence 0: no state can produce the observation at step 0"
        with pytest.raises(InferenceError, match=f"^{decoding}$"):
            diagnose_all(model, [[1], [0, 1]])
        # The flood [1, 0] fails both: no state can start it, and every fault
        # scores -inf from step 1.  Every verdict names the scoring's error,
        # and only the decoder itself names its own.
        scoring = "sequence 0: no admissible state path at step 1"
        for verdict in (lambda: diagnose(model, [1, 0]), lambda: diagnose_all(model, [[1, 0]])):
            with pytest.raises(InferenceError, match=f"^{scoring}$"):
                verdict()
        with pytest.raises(InferenceError, match=f"^{decoding}$"):
            k_best_paths(model.hmm, [1, 0], 2)
        save_diagnoser(model, tmp_path / "model.json")
        floods = tmp_path / "floods.jsonl"
        floods.write_text(json.dumps({"fault": 0, "symbols": [1, 0], "times": [0.0, 10.0],
                                      "meta": {}}) + "\n")
        for command in ("diagnose", "evaluate"):
            capsys.readouterr()
            assert main([command, "--model", str(tmp_path / "model.json"), "--in", str(floods),
                         "--out", str(tmp_path / command)]) == 1
            assert capsys.readouterr().err == f"error: inference-error: {scoring}\n"

    def test_every_verdict_reads_the_log_terms_through_one_gather(self, monkeypatch):
        # Patched to gather a second model's terms, every reader gives that
        # model's outputs to the bit: none looks the log emission up itself.
        training, book = disjoint_training()
        model = train_diagnoser(training, codebook=book)
        weights = np.random.default_rng(5).integers(1, 9, size=model.hmm.emission.shape)
        other = DiagnoserModel(
            hmm=Hmm(transition=model.hmm.transition, initial=model.hmm.initial,
                    emission=weights / weights.sum(axis=1, keepdims=True)),
            fault_names=model.fault_names, codebook=book,
        )
        test = floods_under(model, 11, 2 * model.n_faults + 1)
        symbols = [item.symbols for item in test]

        def outputs(model):
            return ([verdict_bits(v) for v in diagnose_all(model, symbols)],
                    [verdict_bits(diagnose(model, obs)) for obs in symbols],
                    [path_bits(k_best_paths(model.hmm, obs, 3)) for obs in symbols],
                    evaluate_prefix_accuracy(model, test, 9).confusion.tobytes())

        expected = outputs(other)
        assert outputs(model) != expected  # the two models disagree
        gathered, calls = hmm_module._terms, []

        def terms(hmm, flood):
            calls.append(len(flood))
            return gathered(other.hmm, flood)

        for module in (hmm_module, diagnoser_module):
            monkeypatch.setattr(module, "_terms", terms)
        assert outputs(model) == expected
        calls.clear()
        diagnose_all(model, symbols)
        assert calls == [len(obs) for obs in symbols]  # one gather per flood

    def test_no_verdict_reaches_the_batch_machinery(self, monkeypatch):
        training, book = disjoint_training()
        models = [train_diagnoser(training, codebook=book), coarse_diagnoser(27)[0]]
        floods = [(model, floods_under(model, 3, 2 * model.n_faults + 1)) for model in models]

        def outcome(call):
            try:
                return call()
            except InferenceError as exc:
                return str(exc)

        def verdicts():
            out = []
            for model, test in floods:
                symbols = [item.symbols for item in test]
                out.append(outcome(lambda: [verdict_bits(v) for v in diagnose_all(model, symbols)]))
                for obs in symbols:
                    out.append(outcome(lambda: verdict_bits(diagnose(model, obs))))
                    out.append(outcome(lambda: path_bits(
                        k_best_paths(model.hmm, obs, 3) + [viterbi(model.hmm, obs)])))
                for l_max in (1, 3, 8):
                    out.append(outcome(lambda: evaluate_prefix_accuracy(
                        model, test, l_max).confusion.tolist()))
            return out

        expected = verdicts()
        assert any(isinstance(item, str) for item in expected)  # a failing flood is covered too
        assert not isinstance(expected[0], str)  # and a diagnose_all that succeeds

        def fail(*args, **kwargs):
            raise AssertionError("a verdict went through the batch machinery")

        monkeypatch.setattr(hmm_module, "_batch", fail)
        assert verdicts() == expected

    def test_label_permutation_equivariance(self):
        training, book = disjoint_training()
        model = train_diagnoser(training, codebook=book)
        perm = np.array([2, 0, 3, 1])  # new index of each old fault
        inverse = np.argsort(perm)
        permuted = DiagnoserModel(
            hmm=Hmm(
                transition=model.hmm.transition[np.ix_(inverse, inverse)],
                emission=model.hmm.emission[inverse],
                initial=model.hmm.initial[inverse],
            ),
            fault_names=tuple(model.fault_names[i] for i in inverse),
            codebook=book,
        )
        for symbols in ([0, 1, 2], [12, 13], [4, 5, 6, 7]):
            original = diagnose(model, symbols).primary_fault
            assert diagnose(permuted, symbols).primary_fault == perm[original]


#: Per bundled seed, the EM iterations of ``train_diagnoser`` and the sha256 of
#: its full-length ``evaluate_prefix_accuracy`` confusion bytes.  The iteration
#: counts date from before the forward/backward steps applied the pinned
#: transition without the (N, N) product, which moved the model's bits in the
#: last place only; the hashes from when the prefix verdicts became the fault
#: scores' argmax, which left seed 0's confusions as they were.
BUNDLED_SEEDS = {
    0: (4, "51bee4445f2356bc853202f0b7f069fdb0d059786f60a827112626de109c4a88"),
    1: (4, "0ad786b80767987305dcb6d3a5ea96cd72394fcca7f3f53dc76f4cdef633c971"),
    2: (3, "cf0b9deff9904f04e0c86ce0b25f07b11b3927d5a52dbfef02383845860eb03a"),
    3: (5, "e94c9c18389a8f2bf83db84e9d49ce2d5a91de747529f367ffa6dadb53ad68a0"),
}


@pytest.mark.parametrize("seed", sorted(BUNDLED_SEEDS))
def test_bundled_seeds_keep_their_iteration_counts_and_confusions(seed):
    graph = default_graph()
    train, test = generate_scenario_set(graph, default_scenario_counts(), base_seed=seed)
    model = train_diagnoser(as_labeled(train), codebook=graph.codebook)
    curve = evaluate_prefix_accuracy(model, as_labeled(test), max(len(s) for s in test))
    digest = hashlib.sha256(curve.confusion.tobytes()).hexdigest()
    assert (model.training["iterations"], digest) == BUNDLED_SEEDS[seed]


class TestEvaluation:
    def test_prefix_extension_convention(self):
        training, book = disjoint_training()
        model = train_diagnoser(training, codebook=book)
        test = [labeled([0, 1, 2, 3, 0], 0)]
        curve = evaluate_prefix_accuracy(model, test, l_max=8)
        assert curve.accuracy.shape == (8,)
        assert len(set(curve.accuracy[4:].tolist())) == 1  # constant beyond length 5

    def test_perfect_model_scores_one_at_full_length(self):
        training, book = disjoint_training()
        model = train_diagnoser(training, codebook=book)
        curve = evaluate_prefix_accuracy(model, training, l_max=6)
        assert curve.accuracy[-1] == 1.0

    def test_confusion_counts_sum_to_test_size(self):
        training, book = disjoint_training()
        model = train_diagnoser(training, codebook=book)
        curve = evaluate_prefix_accuracy(model, training, l_max=5)
        assert curve.confusion.shape == (5, 4, 4)
        assert (curve.confusion.sum(axis=(1, 2)) == len(training)).all()
        assert (curve.n_correct == np.trace(curve.confusion, axis1=1, axis2=2)).all()

    def test_l_max_past_the_longest_flood_repeats_the_full_length_confusion(self):
        training, book = disjoint_training()
        model = train_diagnoser(training, codebook=book)
        test = [labeled([0, 1, 2, 3, 0], 0), labeled([4, 5, 6], 1), labeled([0, 9, 8, 4, 5], 2)]
        full = evaluate_prefix_accuracy(model, test, l_max=5)
        curve = evaluate_prefix_accuracy(model, test, l_max=5000)
        assert curve.lengths.tolist() == list(range(1, 5001))
        assert np.array_equal(curve.confusion[:5], full.confusion)
        assert (curve.confusion[5:] == full.confusion[-1]).all()
        assert (curve.n_correct[4:] == full.n_correct[-1]).all()
        assert (curve.accuracy[4:] == full.accuracy[-1]).all()

    def test_the_padding_past_a_short_flood_is_not_scored(self):
        # No fault emits symbol 0, which a zero-padded layout would score past a flood's end.
        model = uniform_diagnoser([[0, 1, 0, 0], [0, 0, 1, 1]])
        test = [labeled([1, 1, 1], 0), labeled([2], 1)]
        assert evaluate_prefix_accuracy(model, test, l_max=3).n_correct.tolist() == [2, 2, 2]
        verdicts = diagnose_all(model, [item.symbols for item in test])
        assert [verdict.primary_fault for verdict in verdicts] == [0, 1]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 20_000), coarse=st.booleans(), l_max=st.integers(1, 10))
    @example(seed=1419, coarse=True, l_max=7)  # an exact tie for the best path
    def test_matches_diagnosing_every_prefix(self, seed, coarse, l_max):
        if coarse:
            model = coarse_diagnoser(seed)[0]
        else:
            training, book = disjoint_training()
            model = train_diagnoser(training, codebook=book)
        n = model.n_faults
        test = floods_under(model, seed, 2 * n + 1)
        confusion = np.zeros((l_max, n, n), dtype=np.int64)
        for index, item in enumerate(test):
            try:
                verdicts = oracles.loop_posterior_verdicts(model.hmm, item.symbols[:l_max])
            except InferenceError as exc:
                # the first flood, in list order, whose shown alarms every fault fails
                with pytest.raises(InferenceError,
                                   match=f"^{re.escape(f'sequence {index}: {exc}')}$"):
                    evaluate_prefix_accuracy(model, test, l_max=l_max)
                return
            for p in range(1, l_max + 1):
                confusion[p - 1, item.fault, verdicts[min(p, len(verdicts)) - 1][0]] += 1
        curve = evaluate_prefix_accuracy(model, test, l_max=l_max)
        assert np.array_equal(curve.confusion, confusion)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 20_000))
    @example(seed=1419)  # an exact tie for the best path
    @example(seed=7021)  # an exact tie between paths with different modal states
    def test_full_length_verdict_is_the_diagnosis_under_ties(self, seed):
        model, obs = coarse_diagnoser(seed)
        test = [labeled(obs, 0)]
        try:
            expected = oracles.loop_posterior_verdicts(model.hmm, obs)[-1]
        except InferenceError as exc:
            # both score the flood before anything else, and name the same step
            message = f"^{re.escape(f'sequence 0: {exc}')}$"
            with pytest.raises(InferenceError, match=message):
                diagnose(model, obs)
            with pytest.raises(InferenceError, match=message):
                evaluate_prefix_accuracy(model, test, l_max=len(obs))
            return
        curve = evaluate_prefix_accuracy(model, test, l_max=len(obs))
        assert np.flatnonzero(curve.confusion[-1, 0]).tolist() == [expected[0]]
        try:
            last = viterbi(model.hmm, obs)
        except InferenceError as exc:
            # the scores pass, so only the decode can fail
            with pytest.raises(InferenceError, match=f"^{re.escape(str(exc))}$"):
                diagnose(model, obs)
            return
        verdict = diagnose(model, obs)
        assert (verdict.primary_fault, verdict.secondary_fault) == expected
        assert verdict.path.states.tolist() == last.states.tolist()
        assert verdict.path.log_prob == last.log_prob

    def test_invalid_l_max_rejected(self):
        training, book = disjoint_training()
        model = train_diagnoser(training, codebook=book)
        with pytest.raises(DomainError, match="l_max"):
            evaluate_prefix_accuracy(model, training, l_max=0)
        with pytest.raises(DomainError, match="at least one"):
            evaluate_prefix_accuracy(model, [], l_max=3)

    @pytest.mark.parametrize("l_max", [True, 2.0, 2.5, "3", None])
    def test_non_integer_l_max_rejected(self, l_max):
        training, book = disjoint_training()
        model = train_diagnoser(training, codebook=book)
        message = f"l_max must be an integer, got {l_max!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            evaluate_prefix_accuracy(model, training, l_max=l_max)
        assert evaluate_prefix_accuracy(model, training, l_max=np.int64(2)).lengths.tolist() == [1, 2]


class TestModelIO:
    def test_round_trip_and_stable_bytes(self, tmp_path):
        training, book = disjoint_training()
        model = train_diagnoser(training, codebook=book)
        path = tmp_path / "diagnoser.json"
        save_diagnoser(model, path)
        loaded = load_diagnoser(path)
        assert loaded.fault_names == model.fault_names
        assert loaded.codebook == model.codebook
        assert np.array_equal(loaded.hmm.emission, model.hmm.emission)
        again = tmp_path / "again.json"
        save_diagnoser(loaded, again)
        assert path.read_bytes() == again.read_bytes()

    def test_model_with_re_estimated_transitions_and_an_old_echo_still_loads(self, tmp_path):
        # Models trained before the transitions were always pinned may carry
        # freely re-estimated transitions and a "self_transition" training
        # echo.  The echo is stored as read and never interpreted.
        training, book = disjoint_training()
        pinned = train_diagnoser(training, codebook=book)
        n = pinned.n_faults
        start = np.full((n, n), 0.1 / (n - 1))
        np.fill_diagonal(start, 0.9)
        floods = [item.symbols for item in training]
        hmm, _ = fit(Hmm(transition=start, emission=pinned.hmm.emission,
                         initial=pinned.hmm.initial), floods)
        assert (hmm.transition[~np.eye(n, dtype=bool)] != HARD_MASK_OFF_DIAGONAL).all()
        echo = dict(pinned.training, self_transition=0.9)
        path = tmp_path / "old.json"
        save_diagnoser(DiagnoserModel(hmm=hmm, fault_names=pinned.fault_names, codebook=book,
                                      training=echo), path)
        loaded = load_diagnoser(path)
        assert loaded.training == echo
        for name in ("transition", "emission", "initial"):
            assert np.array_equal(getattr(loaded.hmm, name), getattr(hmm, name)), name

        def fields(model):
            return [(v.primary_fault, v.secondary_fault, v.path.states.tolist(), v.path.log_prob,
                     v.second_path.states.tolist(), v.second_path.log_prob)
                    for v in diagnose_all(model, floods + [[0, 5, 9], [15, 14, 1]])]

        same = DiagnoserModel(hmm=hmm, fault_names=pinned.fault_names, codebook=book)
        assert fields(loaded) == fields(same)
        assert [verdict[0] for verdict in fields(loaded)[:len(training)]] == [
            item.fault for item in training]

    def test_fault_names_must_be_strings(self):
        # A model that trains also loads: the name rule is the model's, not the loader's.
        training, book = disjoint_training()
        with pytest.raises(DomainError, match=r"^fault name 5 is not a string$"):
            train_diagnoser(training, codebook=book, fault_names={0: 5})

    def test_numpy_float_settings_are_written_as_plain_floats(self, tmp_path):
        training, book = disjoint_training()
        config = FitConfig(max_iterations=3, rel_tol=np.float32(1e-6))
        model = train_diagnoser(training, config=config, codebook=book,
                                init_smoothing=np.float32(0.5))
        save_diagnoser(model, tmp_path / "model.json")
        echo = load_diagnoser(tmp_path / "model.json").training
        assert (echo["rel_tol"], echo["init_smoothing"]) == (float(np.float32(1e-6)), 0.5)

    def test_numpy_integer_settings_are_written_as_plain_integers(self, tmp_path):
        training, book = disjoint_training()
        paths = []
        for max_iterations in (3, np.int64(3)):
            config = FitConfig(max_iterations=max_iterations)
            paths.append(tmp_path / f"{type(max_iterations).__name__}.json")
            save_diagnoser(train_diagnoser(training, config=config, codebook=book), paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert load_diagnoser(paths[1]).codebook == book

    def test_missing_sections_rejected(self, tmp_path):
        from alarmhmm import ModelFormatError
        from alarmhmm.diagnoser import diagnoser_to_dict
        import json

        training, book = disjoint_training()
        model = train_diagnoser(training, codebook=book)
        doc = diagnoser_to_dict(model)
        del doc["codebook"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="codebook"):
            load_diagnoser(path)
