"""Diagnoser training, the modal/secondary fault rules, prefix evaluation."""

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
    prefix_paths,
    viterbi,
)
from alarmhmm.alarms import AlarmSequence, AlarmSymbolCodebook
from alarmhmm.diagnoser import (
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
from alarmhmm.errors import located

import oracles

from test_hmm_decode import coarse_case


def labeled(symbols, fault):
    times = [float(10 * i) for i in range(len(symbols))]
    return LabeledSequence(
        sequence=AlarmSequence(symbols=list(symbols), times=times, fault=fault), fault=fault
    )


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
        model = train_diagnoser(
            training,
            priors=[0.5, 0.5],
            config=FitConfig(max_iterations=1),
            codebook=book,
        )
        # symmetric data and symmetric priors stay symmetric after one step
        assert np.allclose(model.hmm.initial, [0.5, 0.5], atol=1e-12)

    def test_invalid_priors_rejected(self):
        book = AlarmSymbolCodebook(n_measurements=2)
        training = [labeled([0], 0), labeled([2], 1)]
        with pytest.raises(DomainError, match="sum to 1"):
            train_diagnoser(training, priors=[0.9, 0.2], codebook=book)
        with pytest.raises(DomainError, match="one entry per fault"):
            train_diagnoser(training, priors=[1.0], codebook=book)

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

    def test_soft_variant_reestimates_transitions(self):
        training, book = disjoint_training()
        model = train_diagnoser(training, codebook=book, self_transition=0.9)
        n = model.n_faults
        off = model.hmm.transition[~np.eye(n, dtype=bool)]
        # disjoint per-fault data keeps every sequence in its own state, so
        # EM pushes the off-diagonal mass far below its 0.1/(n-1) start
        assert (off < 1e-3).all()
        assert (np.diag(model.hmm.transition) > 0.99).all()

    def test_unsupervised_drift_triggers_a_warning(self):
        # Fault 0's only sequence runs off into fault 1's symbols; with a
        # weak diagonal start, EM leaves state 0 transient.
        book = AlarmSymbolCodebook(n_measurements=6)
        training = [
            labeled([0, 8, 9, 10, 11], 0),
            labeled([8, 9, 10, 11], 1),
            labeled([9, 10, 11, 8], 1),
            labeled([8, 9, 11, 10], 1),
        ]
        with pytest.warns(RuntimeWarning, match="self-transition"):
            train_diagnoser(training, codebook=book, self_transition=0.5)

    def test_unlabeled_sequences_rejected(self):
        seq = AlarmSequence(symbols=[1], times=[0.0], fault=None)
        with pytest.raises(DomainError, match="no fault label"):
            as_labeled([seq])

    def test_negative_fault_label_rejected(self):
        with pytest.raises(DomainError, match="fault label -1 must be non-negative"):
            labeled([0], -1)
        good = AlarmSequence(symbols=[1], times=[0.0], fault=0)
        bad = AlarmSequence(symbols=[1], times=[0.0], fault=-2)
        with pytest.raises(DomainError, match="^sequence 1: fault label -2 must be non-negative$"):
            as_labeled([good, bad])

    def test_config_echo_recorded(self):
        training, book = disjoint_training()
        model = train_diagnoser(training, codebook=book)
        assert model.training["n_sequences"] == len(training)
        assert model.training["self_transition"] is None
        assert model.training["iterations"] >= 1
        soft = train_diagnoser(training, codebook=book, self_transition=0.8)
        assert soft.training["self_transition"] == 0.8


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
        assert verdict.primary_fault == 0  # mode of [0, 0, 1]
        assert verdict.second_path.states.tolist() == [0, 0, 0]
        assert verdict.second_path.log_prob == pytest.approx(-3.1621174910495924, abs=1e-10)
        # second path's mode collides with the primary; the best path's
        # second most frequent state stands in
        assert verdict.secondary_fault == 1

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
        assert verdict.primary_fault == 0
        assert verdict.secondary_fault == 1

    def test_length_one_sequence_closed_form(self):
        training, book = disjoint_training()
        model = train_diagnoser(training, codebook=book)
        symbol = 5
        expected = int(np.argmax(model.hmm.initial * model.hmm.emission[:, symbol]))
        assert diagnose(model, [symbol]).primary_fault == expected

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
        counts = np.bincount(verdict.path.states, minlength=model.n_faults)
        assert counts[verdict.primary_fault] == counts.max()
        assert verdict.primary_fault == int(np.argmax(counts))
        if verdict.secondary_fault is not None:
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
        alone = []
        for index, obs in enumerate(floods):
            try:
                alone.append(diagnose(model, obs))
            except InferenceError as exc:
                # the first flood that cannot be decoded is named by its list index
                message = str(exc).replace("sequence 0: ", f"sequence {index}: ", 1)
                with pytest.raises(InferenceError, match=f"^{re.escape(message)}$"):
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
        # more than N floods, so that at least two chunks are decoded
        test = floods_under(model, seed, 2 * n + 1)
        confusion = np.zeros((l_max, n, n), dtype=np.int64)
        try:
            for index, item in enumerate(test):
                for p in range(1, l_max + 1):
                    with located(f"sequence {index}"):
                        states = viterbi(model.hmm, item.symbols[:p]).states
                    verdict = int(np.argmax(np.bincount(states, minlength=n)))
                    confusion[p - 1, item.fault, verdict] += 1
        except InferenceError as exc:
            # the first flood, in list order, that some prefix cannot decode
            with pytest.raises(InferenceError, match=f"^{re.escape(str(exc))}$"):
                evaluate_prefix_accuracy(model, test, l_max=l_max)
            return
        curve = evaluate_prefix_accuracy(model, test, l_max=l_max)
        assert np.array_equal(curve.confusion, confusion)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 20_000))
    @example(seed=1419)  # an exact tie for the best path
    @example(seed=7021)  # an exact tie between paths with different modal states
    def test_full_length_verdict_is_the_diagnosis_under_ties(self, seed):
        model, obs = coarse_diagnoser(seed)
        try:
            last = prefix_paths(model.hmm, obs)[-1]
        except InferenceError:
            return
        verdict = diagnose(model, obs)
        assert verdict.path.states.tolist() == last.states.tolist()
        assert verdict.path.log_prob == last.log_prob
        curve = evaluate_prefix_accuracy(model, [labeled(obs, 0)], l_max=len(obs))
        assert np.flatnonzero(curve.confusion[-1, 0]).tolist() == [verdict.primary_fault]

    def test_invalid_l_max_rejected(self):
        training, book = disjoint_training()
        model = train_diagnoser(training, codebook=book)
        with pytest.raises(DomainError, match="l_max"):
            evaluate_prefix_accuracy(model, training, l_max=0)
        with pytest.raises(DomainError, match="at least one"):
            evaluate_prefix_accuracy(model, [], l_max=3)


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
