"""Seeded, scaled-up propagation graphs for the benchmark.

Built only from ``alarmhmm.plantsim``'s public ``PropagationGraph``,
``FaultPath`` and ``Stage``.  The shape follows ``default_graph()``:

* one alarm symbol per stage, stage delays on a staggered schedule whose
  jitter is smaller than the gaps;
* faults come in groups of ``GROUP_SIZE`` that share their first
  ``SHARED_STAGES`` stages, like the bundled plant's confusable loops, so
  short prefixes are ambiguous inside a group while full-length floods
  stay separable;
* the first ``BASE_FRACTION`` of a path always fires and the remaining
  stages need a growing fault magnitude, so magnitude sets the depth.

The same arguments always give the same graph.
"""

from __future__ import annotations

import numpy as np

from alarmhmm.plantsim import FaultPath, PropagationGraph, Stage

STAGE_GAP_S = 75.0
FIRST_DELAY_S = 60.0
JITTER_S = 30.0
GROUP_SIZE = 3
SHARED_STAGES = 5
BASE_FRACTION = 0.6


def scaled_graph(
    n_faults: int,
    n_measurements: int,
    n_stages: int,
    seed: int,
) -> PropagationGraph:
    """A random graph with confusable fault groups.

    Every group draws ``SHARED_STAGES`` prefix symbols of its own; each
    fault then draws the rest of its path from the symbols that start no
    group, so paths overlap at random beyond the shared prefix while a
    prefix symbol points to its group alone.
    """
    n_symbols = 2 * n_measurements
    if not SHARED_STAGES <= n_stages <= n_symbols:
        raise ValueError(f"need {SHARED_STAGES} <= n_stages <= 2 * n_measurements")
    n_groups = -(-n_faults // GROUP_SIZE)
    n_prefix = n_groups * SHARED_STAGES
    if n_prefix + n_stages - SHARED_STAGES > n_symbols:
        raise ValueError("too few symbols for distinct group prefixes")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5CA1ED)))
    order = rng.permutation(n_symbols)
    prefixes = order[:n_prefix].reshape(n_groups, SHARED_STAGES)
    rest = np.sort(order[n_prefix:])

    n_base = max(SHARED_STAGES, int(round(BASE_FRACTION * n_stages)))
    n_deep = n_stages - n_base
    thresholds = tuple([0.0] * n_base) + tuple(
        round((s + 1) / (n_deep + 1), 6) for s in range(n_deep)
    )
    delays = [FIRST_DELAY_S + STAGE_GAP_S * s for s in range(n_stages)]

    faults = []
    for fault in range(n_faults):
        prefix = prefixes[fault // GROUP_SIZE]
        tail = rng.choice(rest, size=n_stages - SHARED_STAGES, replace=False)
        symbols = [int(s) for s in np.concatenate([prefix, tail])]
        stages = tuple(
            Stage((symbol,), delay, JITTER_S) for symbol, delay in zip(symbols, delays)
        )
        faults.append(
            FaultPath(
                name=f"group {fault // GROUP_SIZE} fault {fault % GROUP_SIZE}",
                stages=stages,
                depth_thresholds=thresholds,
            )
        )
    return PropagationGraph(n_measurements=n_measurements, faults=tuple(faults))
