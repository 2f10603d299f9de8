"""Sequence-similarity baseline classifier.

The comparison method: collapse chattering repeats, map each alarm
sequence to an M x M successor-count matrix, measure Euclidean distance
between those matrices, cluster the training set with average-linkage
agglomerative hierarchical clustering, label each cluster by majority
vote, and classify test sequences by the nearest cluster centroid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import pdist

from .documents import write_csv
from .errors import DomainError

#: header of ``predictions.csv``, which ``report`` reads back
PREDICTION_COLUMNS = ("sequence_id", "true_fault", "predicted_fault")


def dechatter(symbols) -> list[int]:
    """Collapse consecutive repeats of the same symbol to one occurrence."""
    symbols = list(symbols)
    return [s for i, s in enumerate(symbols) if i == 0 or s != symbols[i - 1]]


def feature_matrix(sequence, n_symbols: int) -> np.ndarray:
    """Successor-count matrix P of the de-chattered sequence.

    ``sequence`` is a symbol list or anything with a ``symbols`` list.
    ``P[i, j]`` counts how often alarm ``j`` immediately follows alarm
    ``i``; the counts sum to the de-chattered length minus one.
    """
    symbols = np.asarray(dechatter(getattr(sequence, "symbols", sequence)), dtype=np.int64)
    if symbols.size and (symbols.min() < 0 or symbols.max() >= n_symbols):
        bad = symbols[(symbols < 0) | (symbols >= n_symbols)][0]
        raise DomainError(f"symbol {bad} outside [0, {n_symbols})")
    counts = np.zeros((n_symbols, n_symbols), dtype=np.int64)
    if symbols.size >= 2:
        np.add.at(counts, (symbols[:-1], symbols[1:]), 1)
    return counts


@dataclass(frozen=True)
class Dendrogram:
    """Average-linkage merge history with the flat-cluster cut applied."""

    merges: tuple[tuple[int, int, float], ...]  # (cluster a, cluster b, linkage distance)
    cut: int                                    # number of flat clusters


@dataclass
class BaselineResult:
    dendrogram: Dendrogram
    train_clusters: np.ndarray   # flat cluster id per training sequence
    cluster_faults: np.ndarray   # majority fault label per cluster id
    predictions: list[int]       # predicted fault per test sequence


def _flat_clusters(merge_rows: np.ndarray, n_items: int, n_clusters: int) -> np.ndarray:
    """Cut the dendrogram after n_items - n_clusters merges.

    Cluster ids follow first appearance in the training list, so ties
    downstream resolve deterministically.
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


def fit_baseline(
    training: list, test: list, n_clusters: int | None, n_symbols: int
) -> BaselineResult:
    """Cluster the training sequences and classify the test sequences.

    Training items must expose ``sequence``/``fault`` (labeled) or be
    (sequence, fault) pairs; test items are plain sequences.  Cluster
    labels come from the majority fault of their members (ties to the
    lowest fault index); each test sequence takes the label of the nearest
    cluster centroid (mean feature matrix, ties to the lowest cluster id).
    ``n_clusters=None`` uses one cluster per distinct fault label.
    """
    if not training:
        raise DomainError("baseline training set must be non-empty")
    pairs = [(item.sequence, item.fault) if hasattr(item, "sequence") else item
             for item in training]
    sequences = [sequence for sequence, _ in pairs]
    faults = [int(fault) for _, fault in pairs]
    if n_clusters is None:
        n_clusters = len(set(faults))
    if not 1 <= n_clusters <= len(training):
        raise DomainError(
            f"n_clusters must lie in [1, {len(training)}], got {n_clusters}"
        )

    features = np.stack(
        [feature_matrix(seq, n_symbols).ravel().astype(float) for seq in sequences]
    )
    if len(training) == 1:
        labels = np.zeros(1, dtype=np.int64)
        merges: tuple = ()
    else:
        merge_rows = linkage(pdist(features), method="average")
        labels = _flat_clusters(merge_rows, len(training), n_clusters)
        merges = tuple(
            (int(row[0]), int(row[1]), float(row[2])) for row in merge_rows
        )

    faults = np.asarray(faults, dtype=np.int64)
    cluster_faults = np.empty(n_clusters, dtype=np.int64)
    centroids = np.empty((n_clusters, features.shape[1]))
    for cluster in range(n_clusters):
        members = labels == cluster
        votes = np.bincount(faults[members])
        cluster_faults[cluster] = int(np.argmax(votes))  # ties -> lowest fault
        centroids[cluster] = features[members].mean(axis=0)

    predictions = []
    for seq in test:
        vector = feature_matrix(seq, n_symbols).ravel().astype(float)
        distances = np.sqrt(((centroids - vector) ** 2).sum(axis=1))
        predictions.append(int(cluster_faults[int(np.argmin(distances))]))

    return BaselineResult(
        dendrogram=Dendrogram(merges=merges, cut=n_clusters),
        train_clusters=labels,
        cluster_faults=cluster_faults,
        predictions=predictions,
    )


def write_predictions_csv(path, rows: list[tuple[int, int | None, int]]) -> None:
    """Rows are (sequence_id, true_fault or None, predicted_fault)."""
    write_csv(path, PREDICTION_COLUMNS, (
        [sequence_id, "" if true_fault is None else true_fault, predicted]
        for sequence_id, true_fault, predicted in rows
    ))


def write_dendrogram_csv(path, dendrogram: Dendrogram) -> None:
    write_csv(path, ("step", "cluster_a", "cluster_b", "distance"), (
        [step, a, b, repr(distance)] for step, (a, b, distance) in enumerate(dendrogram.merges)
    ))
