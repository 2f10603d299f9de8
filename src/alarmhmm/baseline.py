"""Sequence-similarity baseline classifier.

The comparison method: collapse chattering repeats, map each alarm
sequence to its M x M successor counts, measure Euclidean distance
between those counts, cluster the training set with average-linkage
agglomerative hierarchical clustering, label each cluster by majority
vote, and classify test sequences by the nearest cluster centroid.
Only the successor pairs that occur in some sequence are stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import pdist

from .documents import COUNT, OPTIONAL_COUNT, write_csv
from .errors import DomainError, UnknownSymbolError

#: the columns of ``predictions.csv``, which ``report`` reads back, and their checks
PREDICTION_FIELDS = {"sequence_id": COUNT, "true_fault": OPTIONAL_COUNT, "predicted_fault": COUNT}


def dechatter(symbols) -> list[int]:
    """Collapse consecutive repeats of the same symbol to one occurrence."""
    symbols = list(symbols)
    return [s for i, s in enumerate(symbols) if i == 0 or s != symbols[i - 1]]


def _pair_keys(sequence, n_symbols: int) -> np.ndarray:
    """Keys ``a * n_symbols + b`` of the successive pairs (a, b) of the de-chattered symbols."""
    symbols = np.asarray(dechatter(getattr(sequence, "symbols", sequence)), dtype=np.int64)
    if symbols.size and (symbols.min() < 0 or symbols.max() >= n_symbols):
        bad = symbols[(symbols < 0) | (symbols >= n_symbols)][0]
        raise UnknownSymbolError(f"symbol {bad} outside [0, {n_symbols})")
    return symbols[:-1] * n_symbols + symbols[1:]


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

    Training items are labeled sequences (``sequence`` and a non-negative
    ``fault``, as :func:`alarmhmm.diagnoser.as_labeled` builds them); test
    items are symbol lists or anything with a ``symbols`` list.  Cluster
    labels come from the majority fault of their members (ties to the
    lowest fault index); each test sequence takes the label of the nearest
    cluster centroid (mean feature matrix, ties to the lowest cluster id).
    ``n_clusters=None`` uses one cluster per distinct fault label.
    """
    if not training:
        raise DomainError("baseline training set must be non-empty")
    faults = np.array([item.fault for item in training], dtype=np.int64)
    if n_clusters is None:
        n_clusters = len(set(faults.tolist()))
    if not 1 <= n_clusters <= len(training):
        raise DomainError(f"n_clusters must lie in [1, {len(training)}], got {n_clusters}")

    # One column per successor pair that occurs: all-zero columns change no distance.
    floods = [item.sequence for item in training] + list(test)
    keys = [_pair_keys(flood, n_symbols) for flood in floods]
    occurring, column = np.unique(np.concatenate(keys), return_inverse=True)
    owner = np.repeat(np.arange(len(keys)), [k.size for k in keys])
    width = occurring.size
    counts = np.bincount(owner * width + column, minlength=len(keys) * width)
    features = counts.reshape(len(keys), width).astype(float)
    train, probes = features[: len(training)], features[len(training):]
    if len(training) == 1:
        labels = np.zeros(1, dtype=np.int64)
        merges: tuple = ()
    else:
        merge_rows = linkage(pdist(train), method="average")
        labels = _flat_clusters(merge_rows, len(training), n_clusters)
        merges = tuple((int(a), int(b), float(d)) for a, b, d, _ in merge_rows)

    cluster_faults = np.empty(n_clusters, dtype=np.int64)
    sums = np.empty((n_clusters, width))
    for cluster in range(n_clusters):
        members = labels == cluster
        cluster_faults[cluster] = int(np.argmax(np.bincount(faults[members])))  # ties -> lowest
        sums[cluster] = train[members].sum(axis=0)

    # The squared distance to a centroid S/n is ||S - n v||^2 / n^2.  Every
    # term is an integer held exactly in a float, so the division is the only
    # rounding and exact ties go to the lowest cluster id.
    sizes = np.bincount(labels, minlength=n_clusters).astype(float)
    scaled = (sums**2).sum(axis=1) - 2 * sizes * (probes @ sums.T)
    scaled += sizes**2 * (probes**2).sum(axis=1)[:, None]
    nearest = np.argmin(scaled / sizes**2, axis=1)
    return BaselineResult(
        dendrogram=Dendrogram(merges=merges, cut=n_clusters), train_clusters=labels,
        cluster_faults=cluster_faults, predictions=cluster_faults[nearest].tolist(),
    )


def write_predictions_csv(path, rows: list[tuple[int, int | None, int]]) -> None:
    """Rows are (sequence_id, true_fault or None, predicted_fault)."""
    write_csv(path, tuple(PREDICTION_FIELDS), (
        [sequence_id, "" if true_fault is None else true_fault, predicted]
        for sequence_id, true_fault, predicted in rows
    ))


def write_dendrogram_csv(path, dendrogram: Dendrogram) -> None:
    write_csv(path, ("step", "cluster_a", "cluster_b", "distance"), (
        [step, a, b, repr(distance)] for step, (a, b, distance) in enumerate(dendrogram.merges)
    ))
