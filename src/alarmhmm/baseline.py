"""Sequence-similarity baseline classifier.

The comparison method: collapse chattering repeats, count each alarm
sequence's successor pairs (a sparse integer row over the M x M pairs),
measure Euclidean distance between those counts, cluster the training
set with average-linkage agglomerative hierarchical clustering, label
each cluster by majority vote, and classify test sequences by the
nearest cluster centroid.  Every distance is exact until one rounding,
and the merges are those of scipy's average linkage, bit for bit, from
numpy alone: the package imports no scipy module.
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


def _entries(rows, columns, counts, n_columns: int) -> np.ndarray:
    """A sparse integer matrix as the (3, E) int64 stack of its ``rows``,
    ``columns`` (below ``n_columns``) and ``counts``, sorted by row, then
    column, a repeated (row, column) summed into one."""
    cells = rows * n_columns + columns
    order = np.argsort(cells)
    cells, counts = cells[order], counts[order]
    starts = np.flatnonzero(np.diff(cells, prepend=-1))
    cells = cells[starts]
    return np.stack((cells // n_columns, cells % n_columns, np.add.reduceat(counts, starts)))


def _product(a: np.ndarray, b: np.ndarray, shape: tuple[int, int], n_columns: int) -> np.ndarray:
    """``A @ B.T`` in int64 for two matrices of :func:`_entries`: each pair of an
    entry of A and an entry of B in one column adds its counts' product."""
    (a_rows, a_columns, a_counts), (b_rows, b_columns, b_counts) = a, b
    order = np.argsort(b_columns)  # integer sums do not depend on the order of their terms
    per_column = np.bincount(b_columns, minlength=n_columns)
    matches = per_column[a_columns]
    a_index = np.repeat(np.arange(a_columns.size), matches)
    # The entries of B in the column of each entry of A, in turn.
    first = (np.cumsum(per_column) - per_column)[a_columns]
    offsets = np.repeat(first - np.cumsum(matches) + matches, matches)
    b_index = order[np.arange(a_index.size) + offsets]
    product = np.zeros(shape, dtype=np.int64)
    np.add.at(product.reshape(-1), a_rows[a_index] * shape[1] + b_rows[b_index],
              a_counts[a_index] * b_counts[b_index])
    return product


def _squared_norms(entries: np.ndarray, n_rows: int) -> np.ndarray:
    """The sum of the squared counts of each row of a matrix of :func:`_entries`."""
    rows, _, counts = entries
    norms = np.zeros(n_rows, dtype=np.int64)
    np.add.at(norms, rows, counts * counts)
    return norms


def _average_linkage(distances: np.ndarray) -> list[tuple[int, int, float]]:
    """The merges ``(cluster a, cluster b, distance)``, a < b, of average-linkage
    clustering of the n items whose symmetric (n, n) ``distances`` are given
    (and overwritten); the cluster that merge i makes is n + i.

    This is scipy's ``linkage(y, "average")`` step for step (``nn_chain`` and
    ``label`` of ``scipy.cluster._hierarchy``, scipy 1.17), so it gives its
    merges bit for bit.  A nearest-neighbour chain grows from the lowest live
    cluster: each step takes the nearest cluster to the chain's last one, the
    chain's previous one on a tie, else the lowest index among equal minima,
    until two clusters are each other's nearest.  Those two merge into the
    larger index, and its distance to every other cluster i becomes the
    Lance-Williams average ``(n_x d_xi + n_y d_yi) / (n_x + n_y)``.  Dropped
    clusters and the diagonal hold ``inf``.  A stable sort orders the merges
    by distance, and a union-find then numbers each merge's clusters.
    """
    n = len(distances)
    np.fill_diagonal(distances, np.inf)
    sizes = np.ones(n, dtype=np.int64)
    chain: list[int] = []
    found = []
    for _ in range(n - 1):
        if not chain:
            chain.append(int(np.argmax(sizes > 0)))
        while True:
            x = chain[-1]
            y = int(distances[x].argmin())
            if len(chain) > 1 and not distances[x, y] < distances[x, chain[-2]]:
                y = chain[-2]
                break
            chain.append(y)
        del chain[-2:]
        x, y = min(x, y), max(x, y)
        found.append((x, y, float(distances[x, y])))
        # Dropped clusters, x and y each have an inf term, so their averages stay inf.
        average = (sizes[x] * distances[x] + sizes[y] * distances[y]) / (sizes[x] + sizes[y])
        distances[y], distances[:, y] = average, average
        distances[x], distances[:, x] = np.inf, np.inf
        sizes[y] += sizes[x]
        sizes[x] = 0

    found.sort(key=lambda merge: merge[2])
    parent = list(range(2 * n - 1))

    def root(item: int) -> int:
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    merges = []
    for step, (x, y, distance) in enumerate(found):
        a, b = sorted((root(x), root(y)))
        parent[a] = parent[b] = n + step
        merges.append((a, b, distance))
    return merges


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

    Training items are labeled sequences (``symbols`` and a non-negative
    ``fault``, as :func:`alarmhmm.diagnoser.as_labeled` builds them); test
    items are symbol lists or anything with a ``symbols`` list.  Cluster
    labels come from the majority fault of their members (ties to the
    lowest fault index); each test sequence takes the label of the nearest
    cluster centroid (mean feature matrix, ties to the lowest cluster id).
    ``n_clusters=None`` uses one cluster per distinct fault label.  An
    error about one sequence starts with ``training sequence <i>: `` or
    ``test sequence <i>: ``, ``i`` counting from 0 in its list.
    """
    if not training:
        raise DomainError("baseline training set must be non-empty")
    fault_ids, fault_codes = np.unique([item.fault for item in training], return_inverse=True)
    if n_clusters is None:
        n_clusters = fault_ids.size
    check_int(n_clusters, "n_clusters", 1, len(training))
    check_int(n_symbols, "n_symbols", 1, 2 * MAX_MEASUREMENTS)  # the codebook's bound

    floods = []
    for role, items in (("training", [item.symbols for item in training]), ("test", test)):
        for index, flood in enumerate(items):
            with located(f"{role} sequence {index}"):
                floods.append(as_symbols(flood, n_symbols).astype(np.int64, copy=False))
    owner = np.repeat(np.arange(len(floods)), [flood.size for flood in floods])
    alarms = np.concatenate(floods)
    # The pairs (a, b) of the de-chattered floods are the successive alarms
    # of one flood with a != b; their keys a * M + b, numbered in order, are
    # the feature columns, and each pair counts once in its column.
    pair = (owner[1:] == owner[:-1]) & (alarms[1:] != alarms[:-1])
    keys, columns = np.unique(alarms[:-1][pair] * n_symbols + alarms[1:][pair], return_inverse=True)
    features = _entries(owner[1:][pair], columns, np.ones(columns.size, dtype=np.int64), keys.size)
    split = np.searchsorted(features[0], len(training))
    train, probes = features[:, :split], features[:, split:] - [[len(training)], [0], [0]]
    # pdist's squared distances n_i + n_j - 2 G_ij from the integer Gram matrix G are
    # exact integers below 2**53, and sqrt rounds correctly: pdist's bits.
    gram = _product(train, train, (len(training), len(training)), keys.size)
    norms = gram.diagonal()
    merges = _average_linkage(np.sqrt(norms[:, None] + norms - 2 * gram))

    # The flat clusters are those left after the first n - K merges (merge i
    # makes cluster n + i), numbered by their first member.
    groups = [[item] for item in range(len(training))]
    for a, b, _ in merges[: len(training) - n_clusters]:
        groups.append(groups[a] + groups[b])
        groups[a] = groups[b] = []
    labels = np.empty(len(training), dtype=np.int64)
    for cluster, members in enumerate(sorted(filter(None, groups), key=min)):
        labels[members] = cluster
    sums = _entries(labels[train[0]], train[1], train[2], keys.size)
    # One count per (cluster, fault) pair; argmax ties go to the lowest fault.
    pairs = labels * fault_ids.size + fault_codes
    votes = np.bincount(pairs, minlength=n_clusters * fault_ids.size).reshape(n_clusters, -1)
    cluster_faults = fault_ids[votes.argmax(axis=1)]

    # The squared distance to a centroid S/n is ||S - n v||^2 / n^2.  Every
    # term is an exact integer, so the division is the only rounding and
    # exact ties go to the lowest cluster id.
    sizes = np.bincount(labels, minlength=n_clusters)
    scaled = _squared_norms(sums, n_clusters) - 2 * sizes * _product(
        probes, sums, (len(test), n_clusters), keys.size)
    scaled += sizes**2 * _squared_norms(probes, len(test))[:, None]
    nearest = np.argmin(scaled / sizes**2, axis=1)
    return BaselineResult(
        dendrogram=Dendrogram(merges=tuple(merges), cut=n_clusters), train_clusters=labels,
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
