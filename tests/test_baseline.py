"""Chattering removal, successor features, AHC clustering and classification."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import squareform

from alarmhmm import DomainError, UnknownSymbolError
from alarmhmm.alarms import AlarmSequence
from alarmhmm.baseline import (
    _average_linkage,
    fit_baseline,
    write_dendrogram_csv,
    write_predictions_csv,
)
from alarmhmm.diagnoser import LabeledSequence

from oracles import dechatter, dense_baseline, dense_successor_counts, loop_flat_clusters


def seq(symbols, fault=None):
    return AlarmSequence(
        symbols=list(symbols), times=[float(i) for i in range(len(symbols))], fault=fault
    )


def labeled(pairs):
    """(symbol list, fault) pairs as labeled sequences."""
    return [LabeledSequence(seq(symbols, fault)) for symbols, fault in pairs]


class TestDechatter:
    def test_collapses_runs(self):
        assert dechatter([5, 5, 5, 2, 2, 5]) == [5, 2, 5]

    def test_distinct_sequence_unchanged(self):
        assert dechatter([1, 2, 3]) == [1, 2, 3]

    def test_empty(self):
        assert dechatter([]) == []


class TestFeatureMatrix:
    """The dense successor counts of the reference baseline that ``fit_baseline`` must match."""

    def test_simple_chain(self):
        p = dense_successor_counts(seq([0, 1, 2]), 3)
        expected = np.zeros((3, 3), dtype=int)
        expected[0, 1] = expected[1, 2] = 1
        assert np.array_equal(p, expected)

    def test_single_symbol_gives_zero_matrix(self):
        assert dense_successor_counts(seq([1]), 3).sum() == 0

    def test_repeat_visits_accumulate(self):
        p = dense_successor_counts(seq([0, 1, 0, 1]), 2)
        assert p[0, 1] == 2 and p[1, 0] == 1

    def test_counts_follow_the_dechattered_sequence(self):
        p = dense_successor_counts([0, 0, 1], 2)
        assert p[0, 1] == 1 and p[0, 0] == 0
        assert p.sum() == len(dechatter([0, 0, 1])) - 1

    def test_out_of_range_symbol_rejected(self):
        message = "training sequence 0: symbol 5 at position 1 is outside [0, 3)"
        with pytest.raises(UnknownSymbolError, match=f"^{re.escape(message)}$"):
            fit_baseline(labeled([([0, 5], 0)]), [], None, 3)


class TestClustering:
    def disjoint_data(self):
        training = labeled([
            ([0, 1, 2, 3], 0),
            ([0, 1, 3, 2], 0),
            ([8, 9, 10, 11], 1),
            ([8, 9, 11, 10], 1),
        ])
        test = [seq([0, 1, 2, 3]), seq([8, 9, 10, 11])]
        return training, test

    def test_disjoint_faults_cluster_perfectly(self):
        training, test = self.disjoint_data()
        # Brute-force separation check: every within-fault distance is
        # smaller than every cross-fault distance, which forces average
        # linkage to merge within faults first.
        features = [dense_successor_counts(s.sequence, 16).ravel().astype(float) for s in training]
        faults = [s.fault for s in training]
        within, across = [], []
        for (i, a), (j, b) in itertools.combinations(enumerate(features), 2):
            (within if faults[i] == faults[j] else across).append(np.linalg.norm(a - b))
        assert max(within) < min(across)

        result = fit_baseline(training, test, n_clusters=2, n_symbols=16)
        assert result.train_clusters.tolist() == [0, 0, 1, 1]
        assert result.cluster_faults.tolist() == [0, 1]
        assert result.predictions == [0, 1]

    def test_singleton_clusters_reduce_to_nearest_neighbor(self):
        training, test = self.disjoint_data()
        result = fit_baseline(training, test, n_clusters=4, n_symbols=16)
        assert sorted(np.bincount(result.train_clusters).tolist()) == [1, 1, 1, 1]
        features = np.stack(
            [dense_successor_counts(s.sequence, 16).ravel().astype(float) for s in training]
        )
        for probe, prediction in zip(test, result.predictions):
            vector = dense_successor_counts(probe, 16).ravel().astype(float)
            nearest = int(np.argmin(np.linalg.norm(features - vector, axis=1)))
            assert prediction == training[nearest].fault

    def test_single_cluster_votes_globally(self):
        training = labeled([([0, 1], 1), ([0, 1], 1), ([4, 5], 0)])
        test = [seq([8, 9]), seq([0, 1])]
        assert fit_baseline(training, test, 1, 16).predictions == [1, 1]

    def test_majority_tie_breaks_to_lowest_fault(self):
        training = labeled([([0, 1], 3), ([1, 0], 2)])
        assert fit_baseline(training, [seq([0, 1])], 1, 4).predictions == [2]

    def test_cluster_count_validated(self):
        training, test = self.disjoint_data()
        with pytest.raises(DomainError, match="n_clusters"):
            fit_baseline(training, test, 0, 16)
        with pytest.raises(DomainError, match="n_clusters"):
            fit_baseline(training, test, 5, 16)

    @pytest.mark.parametrize("n_clusters", [2.0, True])
    def test_cluster_count_must_be_an_integer(self, n_clusters):
        training, test = self.disjoint_data()
        with pytest.raises(DomainError, match=f"^n_clusters must be an integer, got {n_clusters}$"):
            fit_baseline(training, test, n_clusters, 16)
        assert fit_baseline(training, test, np.int64(2), 16).dendrogram.cut == 2

    def test_test_symbols_must_be_integers(self):
        training, test = self.disjoint_data()
        with pytest.raises(DomainError, match="^test sequence 2: symbol indices must be integers$"):
            fit_baseline(training, test + [[1.5, 2.7, 3]], 2, 16)

    def test_cluster_count_defaults_to_distinct_faults(self):
        training, test = self.disjoint_data()
        result = fit_baseline(training, test, None, 16)
        assert result.dendrogram.cut == 2
        assert result.predictions == [0, 1]

    def test_average_linkage_merges_monotonically(self):
        rng = np.random.default_rng(11)
        training = labeled([
            (rng.integers(0, 12, size=rng.integers(3, 9)).tolist(), int(rng.integers(0, 3)))
            for _ in range(12)
        ])
        result = fit_baseline(training, [], n_clusters=3, n_symbols=12)
        distances = [d for _, _, d in result.dendrogram.merges]
        assert all(b >= a - 1e-12 for a, b in zip(distances, distances[1:]))
        assert result.dendrogram.cut == 3

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 5_000))
    def test_feature_distances_satisfy_metric_axioms(self, seed):
        rng = np.random.default_rng(seed)
        vectors = [
            dense_successor_counts(rng.integers(0, 6, size=rng.integers(1, 10)).tolist(), 6)
            .ravel()
            .astype(float)
            for _ in range(3)
        ]
        a, b, c = vectors
        dist = lambda x, y: float(np.linalg.norm(x - y))
        assert dist(a, b) >= 0
        assert dist(a, b) == dist(b, a)
        assert dist(a, a) == 0
        if dist(a, b) == 0:
            assert np.array_equal(a, b)
        assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12


class TestAgainstDenseReference:
    """The compact pair features against the dense M x M reference."""

    @staticmethod
    @st.composite
    def cases(draw):
        n_symbols = draw(st.integers(1, 6))
        flood = st.lists(st.integers(0, n_symbols - 1), max_size=8)
        pool = draw(st.lists(flood, min_size=1, max_size=4))
        # Drawing floods from a small pool repeats them, which forces ties.
        floods = st.one_of(st.sampled_from(pool), flood)
        training = draw(st.lists(st.tuples(floods, st.integers(0, 3)), min_size=1, max_size=10))
        test = draw(st.lists(floods, max_size=6))
        n_clusters = draw(st.none() | st.integers(1, len(training)))
        return training, test, n_clusters, n_symbols

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=cases())
    def test_matches_the_dense_reference(self, case):
        training, test, n_clusters, n_symbols = case
        result = fit_baseline(labeled(training), test, n_clusters, n_symbols)
        count = len({fault for _, fault in training}) if n_clusters is None else n_clusters
        expected = dense_baseline(training, test, count, n_symbols)
        merges = lambda d: [(a, b, distance.hex()) for a, b, distance in d.merges]
        assert merges(result.dendrogram) == merges(expected.dendrogram)
        assert result.dendrogram.cut == count
        assert result.train_clusters.tolist() == expected.train_clusters.tolist()
        assert result.cluster_faults.tolist() == expected.cluster_faults.tolist()
        assert result.predictions == expected.predictions

    def test_exact_tie_goes_to_the_lowest_cluster(self):
        training = [([2, 3, 1, 3, 0], 1), ([3, 0, 0], 1), ([0, 0, 0, 2, 1], 1),
                    ([0, 1, 0, 2, 1], 1), ([0], 2), ([1, 0, 2, 3, 2, 0, 0], 1), ([0, 2, 0], 2)]
        probe = [1, 0, 2, 3, 3, 0]
        result = fit_baseline(labeled(training), [probe], 4, 4)
        # Exact squared distances to the four centroids are 4, 3, 3.5 and 3:
        # clusters 1 and 3 tie, and cluster 1 (fault 2) wins.
        assert result.cluster_faults.tolist() == [1, 2, 1, 1]
        assert result.predictions == [2]
        assert dense_baseline(training, [probe], 4, 4).predictions == [2]

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(case=cases(), high=st.booleans(), where=st.integers(0, 3))
    def test_out_of_range_test_symbol_raises(self, case, high, where):
        training, test, n_clusters, n_symbols = case
        probe = [0, 0, 0]
        # Without the range check the pair (0, M) would share the key of (1, 0).
        probe.insert(where, n_symbols if high else -1)
        with pytest.raises(DomainError, match="outside"):
            fit_baseline(labeled(training), test + [probe], n_clusters, n_symbols)


class TestLongFloods:
    """The sparse Gram distances against ``pdist`` on the dense reference, at
    a size the cases above miss: floods of 60-100 alarms over 40 symbols."""

    @staticmethod
    @st.composite
    def walks(draw, n_symbols=40):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        # Two successors per symbol, neither itself: nothing chatters, and a
        # walk of 60-100 alarms over at most 80 pairs repeats some of them.
        successors = (np.arange(n_symbols)[:, None] + rng.integers(1, n_symbols, (n_symbols, 2)))
        successors %= n_symbols

        def walk():
            flood = [int(rng.integers(n_symbols))]
            for _ in range(int(rng.integers(59, 100))):
                flood.append(int(successors[flood[-1], rng.integers(2)]))
            return flood

        n_train = draw(st.integers(2, 20))
        training = [(walk(), int(rng.integers(4))) for _ in range(n_train)]
        test = [walk() for _ in range(draw(st.integers(0, 3)))]
        return training, test, draw(st.integers(1, n_train)), n_symbols

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(case=walks())
    # Every flood de-chatters to one alarm, so the features have no column.
    @example(case=([([3, 3, 3], 0), ([5], 1), ([2, 2], 0), ([9], 1)], [[7, 7], [1, 2]], 2, 40))
    @example(case=([(list(range(40)) * 2, 3)], [[0, 1, 0, 1], [5]], 1, 40))
    def test_merges_match_pdist_on_dense_counts(self, case):
        training, test, n_clusters, n_symbols = case
        result = fit_baseline(labeled(training), test, n_clusters, n_symbols)
        expected = dense_baseline(training, test, n_clusters, n_symbols)
        merges = lambda d: [(a, b, distance.hex()) for a, b, distance in d.merges]
        assert merges(result.dendrogram) == merges(expected.dendrogram)
        assert result.train_clusters.tolist() == expected.train_clusters.tolist()
        assert result.cluster_faults.tolist() == expected.cluster_faults.tolist()
        assert result.predictions == expected.predictions

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(case=walks())
    def test_the_walks_repeat_pairs(self, case):
        training, _, _, n_symbols = case
        assert max(dense_successor_counts(flood, n_symbols).max() for flood, _ in training) > 1


class TestFlatCut:
    """The cut of the merge list against the union-find reference."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        floods=st.lists(
            st.tuples(st.lists(st.integers(0, 2), max_size=4), st.sampled_from([0, 2, 7])),
            min_size=1, max_size=12,
        )
    )
    @example(floods=[([0, 1], 2)])
    def test_every_cut_matches_the_union_find(self, floods):
        # Floods of up to four alarms from three symbols repeat and tie often.
        training = labeled(floods)
        faults = np.array([fault for _, fault in floods])
        for n_clusters in range(1, len(floods) + 1):
            result = fit_baseline(training, [], n_clusters, 3)
            merge_rows = np.array([(a, b) for a, b, _ in result.dendrogram.merges]).reshape(-1, 2)
            expected = loop_flat_clusters(merge_rows, len(floods), n_clusters)
            assert result.train_clusters.tolist() == expected.tolist()
            votes = [np.bincount(faults[expected == c]) for c in range(n_clusters)]
            assert result.cluster_faults.tolist() == [int(np.argmax(v)) for v in votes]


class TestAverageLinkage:
    """The numpy port of average linkage against scipy's ``linkage``, bit for bit."""

    @staticmethod
    @st.composite
    def condensed(draw):
        # Square roots of integers from a small range: ties and zeros are common,
        # and distances are what fit_baseline passes, the roots of exact integers.
        n = draw(st.integers(2, 30))
        top = draw(st.integers(0, 12))
        pairs = st.lists(st.integers(0, top), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
        return np.sqrt(np.array(draw(pairs), dtype=float))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(y=condensed())
    @example(y=np.full(7 * 6 // 2, 2.0))   # all distances equal
    @example(y=np.zeros(9 * 8 // 2))       # all distances zero
    @example(y=np.zeros(30 * 29 // 2))
    @example(y=np.array([1.0]))
    def test_matches_scipy(self, y):
        expected = [(int(a), int(b), float(d).hex()) for a, b, d, _ in linkage(y, "average")]
        merges = _average_linkage(squareform(y))
        assert [(a, b, distance.hex()) for a, b, distance in merges] == expected


class TestCsvOutputs:
    def test_predictions_csv(self, tmp_path):
        path = tmp_path / "predictions.csv"
        write_predictions_csv(path, [(0, 3, 3), (1, None, 2)])
        lines = path.read_text().splitlines()
        assert lines[0] == "# format_version=1"
        assert lines[1] == "sequence_id,true_fault,predicted_fault"
        assert lines[2] == "0,3,3"
        assert lines[3] == "1,,2"

    def test_dendrogram_csv(self, tmp_path):
        training, test = TestClustering().disjoint_data()
        result = fit_baseline(training, test, n_clusters=2, n_symbols=16)
        path = tmp_path / "dendrogram.csv"
        write_dendrogram_csv(path, result.dendrogram)
        lines = path.read_text().splitlines()
        assert lines[1] == "step,cluster_a,cluster_b,distance"
        assert len(lines) == 2 + len(result.dendrogram.merges)
