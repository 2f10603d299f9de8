"""Tests of the benchmark's scaled-graph generator.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from alarmhmm import diagnoser, plantsim  # noqa: E402
from scaled_graph import BASE_FRACTION, GROUP_SIZE, SHARED_STAGES, scaled_graph  # noqa: E402
from workloads import ScaledDiagnose, ScaledTrain  # noqa: E402

SMALL = (12, 40, 30)  # faults, measurements, stages


def symbols_of(fault):
    return [stage.symbols[0] for stage in fault.stages]


def test_same_seed_same_graph_and_other_seed_other_graph():
    assert scaled_graph(*SMALL, seed=3) == scaled_graph(*SMALL, seed=3)
    assert scaled_graph(*SMALL, seed=3) != scaled_graph(*SMALL, seed=4)


@pytest.mark.parametrize("workload", [ScaledTrain, ScaledDiagnose])
def test_benchmark_shapes(workload):
    n_faults, n_measurements, n_stages = workload.graph_shape
    graph = scaled_graph(n_faults, n_measurements, n_stages, seed=0)
    assert graph.n_faults == n_faults
    assert graph.n_symbols == 2 * n_measurements
    for fault in graph.faults:
        assert len(fault.stages) == n_stages
        assert all(len(stage.symbols) == 1 for stage in fault.stages)


def test_groups_share_a_prefix_that_no_other_path_uses():
    graph = scaled_graph(*SMALL, seed=5)
    paths = [symbols_of(fault) for fault in graph.faults]
    prefixes = [tuple(path[:SHARED_STAGES]) for path in paths]
    for fault, prefix in enumerate(prefixes):
        group = fault // GROUP_SIZE
        for other, other_prefix in enumerate(prefixes):
            if other // GROUP_SIZE == group:
                assert other_prefix == prefix
            else:
                assert not set(other_prefix) & set(prefix)
        assert not set(prefix) & {s for path in paths for s in path[SHARED_STAGES:]}
    assert len({tuple(path[SHARED_STAGES:]) for path in paths}) == len(paths)


def test_magnitude_sets_the_depth():
    fault = scaled_graph(*SMALL, seed=1).faults[0]
    shallow = plantsim.depth_for_magnitude(fault, 0.2)
    deep = plantsim.depth_for_magnitude(fault, 1.0)
    assert BASE_FRACTION * len(fault.stages) <= shallow < deep <= len(fault.stages)


def test_curve_is_low_at_short_prefixes_and_high_at_full_length():
    graph = scaled_graph(*SMALL, seed=2)
    train, test = plantsim.generate_scenario_set(
        graph, {fault: (1, 4) for fault in range(graph.n_faults)}, base_seed=2
    )
    model = diagnoser.train_diagnoser(diagnoser.as_labeled(train), codebook=graph.codebook)
    labeled = diagnoser.as_labeled(test)
    curve = diagnoser.evaluate_prefix_accuracy(model, labeled, max(len(s) for s in test))
    assert curve.accuracy[0] <= 0.5 and curve.accuracy[1] <= 0.5
    assert curve.accuracy[-1] >= 0.9
    # short-prefix mistakes stay inside the confusable group
    groups = np.arange(graph.n_faults) // GROUP_SIZE
    for length in (0, 1):
        true, guessed = np.nonzero(curve.confusion[length])
        assert (groups[true] == groups[guessed]).all()
