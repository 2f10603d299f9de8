"""Scenario generator: determinism, depth rule, noise knobs, trace mode."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alarmhmm import DomainError, SchemaError
from alarmhmm.alarms import AlarmSymbolCodebook, extract_sequence, fit_limits, sequence_to_dict
from alarmhmm.plantsim import (
    DEFAULT_TEST_COUNTS,
    DEFAULT_TRAIN_COUNTS,
    FaultPath,
    PropagationGraph,
    ScenarioSpec,
    Stage,
    default_graph,
    default_scenario_counts,
    depth_for_magnitude,
    generate_scenario_set,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
    simulate_alarm_sequence,
    simulate_fault_trace,
    simulate_normal_trace,
)

import oracles


def assert_flood_invariants(seq, graph):
    """A simulated flood: one time per symbol, symbols pairwise distinct and in
    the graph's alphabet, times sorted."""
    assert len(seq.symbols) == len(seq.times)
    assert len(set(seq.symbols)) == len(seq.symbols)
    assert all(0 <= symbol < graph.n_symbols for symbol in seq.symbols)
    assert seq.times == sorted(seq.times)


def toy_graph():
    return PropagationGraph(
        n_measurements=5,
        faults=(
            FaultPath(
                name="valve stuck",
                stages=(
                    Stage((4, 1), 10.0, 0.0),
                    Stage((7,), 20.0, 0.0),
                    Stage((2, 8), 30.0, 0.0),
                ),
                depth_thresholds=(0.0, 0.3, 0.7),
            ),
            FaultPath(
                name="sensor drift",
                stages=(Stage((0,), 5.0, 0.0), Stage((9, 3), 25.0, 0.0)),
                depth_thresholds=(0.0, 0.5),
            ),
        ),
    )


class TestSimulate:
    def test_noiseless_scenario_reproduces_nominal_order(self):
        seq = simulate_alarm_sequence(toy_graph(), ScenarioSpec(fault=0, magnitude=1.0, seed=3))
        assert seq.symbols == [1, 4, 7, 2, 8]  # stage order, ties by symbol index
        assert seq.times == [10.0, 10.0, 20.0, 30.0, 30.0]
        assert seq.fault == 0
        assert seq.meta["fault_name"] == "valve stuck"

    def test_small_magnitude_reaches_only_stage_one(self):
        seq = simulate_alarm_sequence(toy_graph(), ScenarioSpec(fault=0, magnitude=0.2, seed=3))
        assert sorted(seq.symbols) == [1, 4]

    def test_depth_rule_counts_thresholds(self):
        fault = toy_graph().faults[0]
        assert depth_for_magnitude(fault, 0.1) == 1
        assert depth_for_magnitude(fault, 0.3) == 2
        assert depth_for_magnitude(fault, 1.0) == 3

    def test_depth_by_bisection_is_the_count_of_thresholds_reached(self):
        for fault in default_graph().faults:
            for threshold in fault.depth_thresholds:
                for magnitude in (np.nextafter(threshold, -np.inf), threshold,
                                  np.nextafter(threshold, np.inf)):
                    count = sum(1 for bound in fault.depth_thresholds if bound <= magnitude)
                    assert depth_for_magnitude(fault, float(magnitude)) == count

    def test_magnitude_bounds_enforced(self):
        for magnitude in (0.0, -0.5, 1.5):
            with pytest.raises(DomainError, match="magnitude"):
                simulate_alarm_sequence(
                    toy_graph(), ScenarioSpec(fault=0, magnitude=magnitude, seed=1)
                )

    def test_unknown_fault_rejected(self):
        with pytest.raises(DomainError, match="fault"):
            simulate_alarm_sequence(toy_graph(), ScenarioSpec(fault=5, magnitude=0.5, seed=1))

    def test_deterministic_per_scenario_spec(self):
        spec = ScenarioSpec(fault=0, magnitude=0.9, seed=42, swap_prob=0.4, drop_prob=0.2)
        a = simulate_alarm_sequence(toy_graph(), spec)
        b = simulate_alarm_sequence(toy_graph(), spec)
        assert a.symbols == b.symbols and a.times == b.times

    def test_zero_noise_replicates_are_identical_across_seeds(self):
        a = simulate_alarm_sequence(toy_graph(), ScenarioSpec(fault=0, magnitude=0.8, seed=1))
        b = simulate_alarm_sequence(toy_graph(), ScenarioSpec(fault=0, magnitude=0.8, seed=999))
        assert a.symbols == b.symbols and a.times == b.times

    def test_drops_spare_the_first_stage(self):
        spec = ScenarioSpec(fault=0, magnitude=1.0, seed=11, drop_prob=1.0)
        seq = simulate_alarm_sequence(toy_graph(), spec)
        assert sorted(seq.symbols) == [1, 4]

    def test_swaps_permute_but_preserve_content(self):
        spec = ScenarioSpec(fault=0, magnitude=1.0, seed=11, swap_prob=1.0)
        seq = simulate_alarm_sequence(toy_graph(), spec)
        assert sorted(seq.symbols) == [1, 2, 4, 7, 8]
        assert seq.times == sorted(seq.times)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        magnitude=st.floats(0.01, 1.0),
        swap=st.floats(0.0, 1.0),
        drop=st.floats(0.0, 1.0),
    )
    def test_generated_sequences_always_validate(self, seed, magnitude, swap, drop):
        graph = default_graph()
        for fault in (0, 4, 9):
            spec = ScenarioSpec(
                fault=fault, magnitude=magnitude, seed=seed, swap_prob=swap, drop_prob=drop
            )
            seq = simulate_alarm_sequence(graph, spec)
            assert_flood_invariants(seq, graph)
            assert len(seq) >= 1
            assert seq.fault == fault


@st.composite
def graphs_and_specs(draw):
    """A random graph of up to three faults and a scenario of one of them.

    Stages hold one to three symbols; the first delay may be negative and the
    jitter zero or many times the gaps, so onsets tie, cross stages and clamp
    at 0; the depth thresholds let a flood stop after any stage, the first
    included; the swap and drop probabilities are often exactly 0 or 1."""
    n_measurements = draw(st.integers(6, 8))
    symbols = draw(st.permutations(range(2 * n_measurements)))
    faults = []
    for index in range(draw(st.integers(1, 3))):
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        delay = draw(st.floats(-50.0, 100.0))
        stages, start = [], 0
        for size in sizes:
            jitter = draw(st.sampled_from([0.0, 5.0]) | st.floats(0.0, 200.0))
            stages.append(Stage(tuple(symbols[start:start + size]), delay, jitter))
            start += size
            delay += draw(st.sampled_from([1.0, 10.0]) | st.floats(0.5, 100.0))
        thresholds = [0.0] + sorted(draw(st.lists(
            st.floats(0.0, 1.0), min_size=len(sizes) - 1, max_size=len(sizes) - 1)))
        faults.append(FaultPath(f"f{index}", tuple(stages), tuple(thresholds)))
    graph = PropagationGraph(n_measurements=n_measurements, faults=tuple(faults))
    probability = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    spec = ScenarioSpec(
        fault=draw(st.integers(0, len(faults) - 1)),
        magnitude=draw(st.floats(0.0, 1.0, exclude_min=True)),
        seed=draw(st.integers(0, 2**63)),
        swap_prob=draw(probability),
        drop_prob=draw(probability),
    )
    return graph, spec


def _clamp_graph():
    """Three stages, the first two with a jitter above their delays, so many onsets clamp to 0."""
    stages = (Stage((0, 3), 5.0, 50.0), Stage((1,), 10.0, 40.0), Stage((2, 5), 12.0, 0.0))
    return PropagationGraph(n_measurements=3, faults=(FaultPath("clamp", stages, (0.0, 0.0, 0.6)),))


class TestArrayDraws:
    """simulate_alarm_sequence against the loop of scalar draws it replaced."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=graphs_and_specs())
    @example(case=(toy_graph(), ScenarioSpec(0, 1.0, 11, swap_prob=1.0, drop_prob=1.0)))
    @example(case=(toy_graph(), ScenarioSpec(0, 0.1, 11, swap_prob=1.0)))  # depth 1
    @example(case=(_clamp_graph(), ScenarioSpec(0, 1.0, 3, drop_prob=0.5)))
    @example(case=(_clamp_graph(), ScenarioSpec(0, 0.5, 4, swap_prob=0.5)))
    def test_equals_the_scalar_loop_bit_for_bit(self, case):
        graph, spec = case
        got, expected = simulate_alarm_sequence(graph, spec), oracles.loop_alarm_sequence(graph, spec)
        assert got.symbols == expected.symbols
        assert all(type(symbol) is int for symbol in got.symbols)
        assert [time.hex() for time in got.times] == [time.hex() for time in expected.times]
        assert all(type(time) is float for time in got.times)
        assert (got.fault, got.meta) == (expected.fault, expected.meta)

    def test_clamped_onsets_tie_at_zero_in_symbol_order(self):
        seq = simulate_alarm_sequence(_clamp_graph(), ScenarioSpec(0, 1.0, 3))
        assert seq.times.count(0.0) >= 2
        zeros = [symbol for symbol, time in zip(seq.symbols, seq.times) if time == 0.0]
        assert zeros == sorted(zeros)

    def test_flat_arrays_are_built_once_and_read_only(self):
        graph = toy_graph()
        flat = graph._flat
        assert graph._flat is flat
        symbols, delays, jitters, ends = flat[0]
        assert symbols.tolist() == [4, 1, 7, 2, 8]
        assert delays.tolist() == [10.0, 10.0, 20.0, 30.0, 30.0]
        assert jitters.tolist() == [0.0] * 5
        assert ends.tolist() == [2, 3, 5]
        assert not any(arr.flags.writeable for fault in flat for arr in fault)


class TestScenarioSets:
    def test_default_shape_is_65_train_42_test(self):
        graph = default_graph()
        train, test = generate_scenario_set(graph, default_scenario_counts(), base_seed=1)
        assert len(train) == sum(DEFAULT_TRAIN_COUNTS) == 65
        assert len(test) == sum(DEFAULT_TEST_COUNTS) == 42
        assert sorted({seq.fault for seq in train}) == list(range(10))
        for seq in train + test:
            assert_flood_invariants(seq, graph)

    def test_same_seed_reproduces_bit_identical_sets(self):
        graph = default_graph()
        first = generate_scenario_set(graph, default_scenario_counts(), base_seed=7)
        second = generate_scenario_set(graph, default_scenario_counts(), base_seed=7)
        for bucket_a, bucket_b in zip(first, second):
            assert [sequence_to_dict(s) for s in bucket_a] == [
                sequence_to_dict(s) for s in bucket_b
            ]

    def test_train_and_test_use_disjoint_noise(self):
        graph = default_graph()
        train, test = generate_scenario_set(graph, {0: (3, 3)}, base_seed=5)
        train_seeds = {seq.meta["seed"] for seq in train}
        test_seeds = {seq.meta["seed"] for seq in test}
        assert not train_seeds & test_seeds

    def test_single_fault_without_test_data(self):
        graph = toy_graph()
        train, test = generate_scenario_set(graph, {1: (1, 0)}, base_seed=0)
        assert len(train) == 1 and test == []
        assert train[0].fault == 1

    def test_invalid_counts_and_ranges(self):
        graph = toy_graph()
        with pytest.raises(DomainError, match=r"^fault 0: training count must be >= 1, got 0$"):
            generate_scenario_set(graph, {0: (0, 1)})
        with pytest.raises(DomainError, match="magnitude range"):
            generate_scenario_set(graph, {0: (1, 1)}, magnitude_range=(0.9, 0.2))
        with pytest.raises(DomainError, match="seed must be non-negative, got -1"):
            generate_scenario_set(graph, {0: (1, 1)}, base_seed=-1)

    @pytest.mark.parametrize("call, message", [
        (lambda: generate_scenario_set(toy_graph(), {0: (1, 1)}, base_seed=1.5),
         "seed must be an integer, got 1.5"),
        (lambda: ScenarioSpec(fault=0, magnitude=0.5, seed=-1),
         "seed must be non-negative, got -1"),
        (lambda: ScenarioSpec(fault=0, magnitude=0.5, seed=True),
         "seed must be an integer, got True"),
        (lambda: simulate_normal_trace(3, 10, seed=-1), "seed must be non-negative, got -1"),
        (lambda: simulate_normal_trace(3, 10, seed=2.0), "seed must be an integer, got 2.0"),
    ], ids=["base-seed", "spec-negative", "spec-bool", "trace-negative", "trace-float"])
    def test_seeds_are_non_negative_integers(self, call, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()
        assert simulate_normal_trace(3, 10, seed=np.int64(2)).values.shape == (10, 3)

    @pytest.mark.parametrize("call, message", [
        (lambda: generate_scenario_set(toy_graph(), {0: (1.5, 1)}),
         "fault 0: training count must be an integer, got 1.5"),
        (lambda: generate_scenario_set(toy_graph(), {0: (1, True)}),
         "fault 0: test count must be an integer, got True"),
        (lambda: generate_scenario_set(toy_graph(), {1.0: (1, 0)}),
         "fault must be an integer, got 1.0"),
        (lambda: ScenarioSpec(fault=True, magnitude=0.5, seed=1),
         "fault must be an integer, got True"),
        (lambda: ScenarioSpec(fault=-1, magnitude=0.5, seed=1),
         "fault must be non-negative, got -1"),
        (lambda: generate_scenario_set(toy_graph(), {0: 5}),
         "fault 0: counts must be a pair, got 5"),
        (lambda: generate_scenario_set(toy_graph(), {0: (1, 1), "a": (1, 1)}),
         "fault must be an integer, got 'a'"),
        (lambda: generate_scenario_set(toy_graph(), {0: (1, 1)}, magnitude_range=(0.5,)),
         "magnitude range must be a pair, got (0.5,)"),
    ], ids=["train-count", "test-count", "fault-key", "spec-bool", "spec-negative",
            "count-not-a-pair", "mixed-key-types", "range-not-a-pair"])
    def test_faults_and_counts_are_integers(self, call, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()
        spec = ScenarioSpec(fault=np.int64(1), magnitude=0.5, seed=1)
        assert simulate_alarm_sequence(toy_graph(), spec).fault == 1
        train, test = generate_scenario_set(toy_graph(), {1: (np.int64(1), np.int64(0))})
        assert len(train) == 1 and test == []

    @pytest.mark.parametrize("n_measurements, n_samples, message", [
        (-1, 10, "n_measurements must lie in [1, 1518500249], got -1"),
        (0, 10, "n_measurements must lie in [1, 1518500249], got 0"),
        (3, 2.5, "n_samples must be an integer, got 2.5"),
        (3, 0, "n_samples must be >= 1, got 0"),
    ], ids=["negative-measurements", "zero-measurements", "float-samples", "zero-samples"])
    def test_normal_trace_sizes_are_checked(self, n_measurements, n_samples, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            simulate_normal_trace(n_measurements, n_samples)


class TestGraphIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "graph.json"
        save_graph(default_graph(), path)
        assert load_graph(path) == default_graph()

    def test_dict_round_trip(self):
        graph = toy_graph()
        assert graph_from_dict(graph_to_dict(graph)) == graph

    def test_invalid_documents_rejected(self, tmp_path):
        with pytest.raises(SchemaError, match="format_version"):
            graph_from_dict({"n_measurements": 2, "faults": []})
        payload = graph_to_dict(toy_graph())
        payload["faults"][0]["stages"][0]["symbols"] = [99]
        with pytest.raises(SchemaError, match="invariants"):
            graph_from_dict(payload)
        path = tmp_path / "graph.json"
        path.write_text("{]")
        with pytest.raises(SchemaError, match="JSON"):
            load_graph(path)

    @pytest.mark.parametrize("n_measurements, symbols, message", [
        (2.5, (0,), "n_measurements must be an integer, got 2.5"),
        (True, (0,), "n_measurements must be an integer, got True"),
        (2, (1.5,), "fault 0: symbol must be an integer, got 1.5"),
        (2, (0, True), "fault 0: symbol must be an integer, got True"),
    ])
    def test_sizes_and_stage_symbols_must_be_integers(self, n_measurements, symbols, message):
        fault = FaultPath(name="f", stages=(Stage(symbols, 10.0, 0.0),), depth_thresholds=(0.0,))
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            PropagationGraph(n_measurements=n_measurements, faults=(fault,))

    @pytest.mark.parametrize("delays, thresholds, message", [
        ((10.0, np.nan), (0.0, 0.5), "stage delays must be finite and strictly increase"),
        ((np.nan, 10.0), (0.0, 0.5), "stage delays must be finite and strictly increase"),
        ((np.nan,), (0.0,), "stage delays must be finite and strictly increase"),
        ((-np.inf, 10.0), (0.0, 0.5), "stage delays must be finite and strictly increase"),
        ((10.0, np.inf), (0.0, 0.5), "stage delays must be finite and strictly increase"),
        (("10",), (0.0,), "stage delays must be finite and strictly increase"),
        ((10.0, 20.0), (0.0, np.nan), "depth thresholds must be finite and non-decreasing"),
        ((10.0, 20.0, 30.0), (0.0, np.nan, 0.5),
         "depth thresholds must be finite and non-decreasing"),
        ((10.0, 20.0), (0.0, np.inf), "depth thresholds must be finite and non-decreasing"),
    ], ids=["nan-second-delay", "nan-first-delay", "nan-only-delay", "minus-inf-first-delay",
            "inf-last-delay", "string-delay", "nan-last-threshold", "nan-middle-threshold", "inf-last-threshold"])
    def test_non_finite_delays_and_thresholds_rejected(self, delays, thresholds, message):
        stages = tuple(Stage((symbol,), delay, 0.0) for symbol, delay in enumerate(delays))
        fault = FaultPath(name="f", stages=stages, depth_thresholds=thresholds)
        with pytest.raises(DomainError, match=f"^fault 0: {re.escape(message)}$"):
            PropagationGraph(n_measurements=2, faults=(fault,))

    def test_structural_invariants_enforced(self):
        with pytest.raises(DomainError, match="strictly increase"):
            PropagationGraph(
                n_measurements=2,
                faults=(
                    FaultPath(
                        name="bad",
                        stages=(Stage((0,), 10.0, 0.0), Stage((1,), 10.0, 0.0)),
                        depth_thresholds=(0.0, 0.0),
                    ),
                ),
            )
        with pytest.raises(DomainError, match="twice"):
            PropagationGraph(
                n_measurements=2,
                faults=(
                    FaultPath(
                        name="bad",
                        stages=(Stage((0, 0), 10.0, 0.0),),
                        depth_thresholds=(0.0,),
                    ),
                ),
            )
        with pytest.raises(DomainError, match="first depth threshold"):
            PropagationGraph(
                n_measurements=2,
                faults=(
                    FaultPath(
                        name="bad",
                        stages=(Stage((0,), 10.0, 0.0),),
                        depth_thresholds=(0.5,),
                    ),
                ),
            )


class TestDefaultGraph:
    def test_shape_matches_the_case_study(self):
        graph = default_graph()
        assert graph.n_faults == 10
        assert graph.n_measurements == 41
        assert graph.n_symbols == 82

    def test_confusable_groups_share_prefixes(self):
        graph = default_graph()
        first_two = lambda f: {
            s for stage in graph.faults[f].stages[:2] for s in stage.symbols
        }
        assert first_two(0) == first_two(1) == first_two(2)
        assert first_two(4) == first_two(8)

    def test_full_sequences_are_separable(self):
        graph = default_graph()
        full = []
        for fault in range(graph.n_faults):
            spec = ScenarioSpec(fault=fault, magnitude=1.0, seed=0)
            full.append(frozenset(simulate_alarm_sequence(graph, spec).symbols))
        assert len(set(full)) == graph.n_faults


class TestTraceMode:
    def test_extraction_recovers_the_scheduled_sequence(self):
        graph = PropagationGraph(
            n_measurements=4,
            faults=(
                FaultPath(
                    name="steps",
                    stages=(
                        Stage((2,), 100.0, 0.0),
                        Stage((5,), 500.0, 0.0),   # low alarm of measurement 1
                        Stage((0, 3), 900.0, 0.0),
                    ),
                    depth_thresholds=(0.0, 0.0, 0.0),
                ),
            ),
        )
        spec = ScenarioSpec(fault=0, magnitude=1.0, seed=21)
        trace, scheduled = simulate_fault_trace(graph, spec)
        normal = [simulate_normal_trace(4, 500, seed=900 + i) for i in range(2)]
        limits = fit_limits(normal, kappa=3.0)
        extracted = extract_sequence(trace, limits, AlarmSymbolCodebook(4), persist_t=300.0)
        assert extracted.symbols == scheduled.symbols
        for got, want in zip(extracted.times, scheduled.times):
            assert abs(got - want) <= trace.sample_period

    def test_quiet_plant_raises_no_alarms(self):
        normal = [simulate_normal_trace(4, 400, seed=1), simulate_normal_trace(4, 400, seed=2)]
        limits = fit_limits(normal, kappa=3.0)
        probe = simulate_normal_trace(4, 400, seed=3)
        extracted = extract_sequence(probe, limits, AlarmSymbolCodebook(4), persist_t=300.0)
        assert extracted.symbols == []
