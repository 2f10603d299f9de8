"""Sequence-similarity baseline classifier.

The comparison method: collapse chattering repeats, count each alarm
sequence's successor pairs (a sparse integer row over the M x M pairs),
measure Euclidean distance between those counts, cluster the training
set with average-linkage agglomerative hierarchical clustering, label
each cluster by majority vote, and classify test sequences by the
nearest cluster centroid.  Every distance is exact until one rounding.
Only :func:`fit_baseline` imports scipy, when called: no other module does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alarms import MAX_MEASUREMENTS
from .documents import COUNT, OPTIONAL_COUNT, check_int, write_csv
from .errors import DomainError, located
from .hmm import as_symbols

#: the columns of ``predictions.csv``, which ``report`` reads back, and their checks
PREDICTION_FIELDS = {"sequence_id": COUNT, "true_fault": OPTIONAL_COUNT, "predicted_fault": COUNT}


def dechatter(symbols) -> list[int]:
    """Collapse consecutive repeats of the same symbol to one occurrence."""
    symbols = list(symbols)
    return [s for i, s in enumerate(symbols) if i == 0 or s != symbols[i - 1]]


def _pair_keys(sequence, n_symbols: int) -> np.ndarray:
    """Keys ``a * n_symbols + b`` of the successive pairs (a, b) of the de-chattered symbols."""
    symbols = np.asarray(dechatter(as_symbols(sequence, n_symbols).tolist()), dtype=np.int64)
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
    ``n_clusters=None`` uses one cluster per distinct fault label.  An
    error about one sequence starts with ``training sequence <i>: `` or
    ``test sequence <i>: ``, ``i`` counting from 0 in its list.
    """
    # Imported here: scipy costs about 39 MB of RSS and a few hundred ms of import.
    from scipy.cluster.hierarchy import linkage
    from scipy.sparse import csr_array

    if not training:
        raise DomainError("baseline training set must be non-empty")
    fault_ids, fault_codes = np.unique([item.fault for item in training], return_inverse=True)
    if n_clusters is None:
        n_clusters = fault_ids.size
    check_int(n_clusters, "n_clusters", 1, len(training))
    check_int(n_symbols, "n_symbols", 1, 2 * MAX_MEASUREMENTS)  # the codebook's bound

    keys = []
    for role, floods in (("training", [item.sequence for item in training]), ("test", test)):
        for index, flood in enumerate(floods):
            with located(f"{role} sequence {index}"):
                keys.append(_pair_keys(flood, n_symbols))
    owner = np.repeat(np.arange(len(keys)), [k.size for k in keys])
    # Sparse integer counts; repeated (flood, key) entries are summed into one.
    features = csr_array((np.ones(owner.size, dtype=np.int64), (owner, np.concatenate(keys))),
                         shape=(len(keys), n_symbols**2))
    train, probes = features[: len(training)], features[len(training):]
    # pdist's squared distances n_i + n_j - 2 G_ij from the integer Gram matrix G are
    # exact integers below 2**53, and sqrt rounds correctly: pdist's bits.
    gram = (train @ train.T).toarray()
    i, j = np.triu_indices(len(training), 1)
    squared = gram.diagonal()[i] + gram.diagonal()[j] - 2 * gram[i, j]
    merge_rows = linkage(np.sqrt(squared), "average") if len(training) > 1 else np.empty((0, 4))
    merges = tuple((int(a), int(b), float(d)) for a, b, d, _ in merge_rows)

    # The flat clusters are those left after the first n - K merges (scipy
    # numbers the cluster that row i makes n + i), numbered by their first member.
    groups = [[item] for item in range(len(training))]
    for a, b in merge_rows[: len(training) - n_clusters, :2].astype(np.int64).tolist():
        groups.append(groups[a] + groups[b])
        groups[a] = groups[b] = []
    labels = np.empty(len(training), dtype=np.int64)
    for cluster, members in enumerate(sorted(filter(None, groups), key=min)):
        labels[members] = cluster
    sums = csr_array(np.arange(n_clusters)[:, None] == labels) @ train
    # One count per (cluster, fault) pair; argmax ties go to the lowest fault.
    pairs = labels * fault_ids.size + fault_codes
    votes = np.bincount(pairs, minlength=n_clusters * fault_ids.size).reshape(n_clusters, -1)
    cluster_faults = fault_ids[votes.argmax(axis=1)]

    # The squared distance to a centroid S/n is ||S - n v||^2 / n^2.  Every
    # term is an exact integer, so the division is the only rounding and
    # exact ties go to the lowest cluster id.
    sizes = np.bincount(labels, minlength=n_clusters)
    scaled = (sums * sums).sum(axis=1) - 2 * sizes * (probes @ sums.T).toarray()
    scaled += sizes**2 * (probes * probes).sum(axis=1)[:, None]
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
