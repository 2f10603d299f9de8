"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Criteria 1-3 check the decoders against vectorized
brute-force path enumeration on a shared family of 200 random instances;
criteria 5-7 share ten seeded end-to-end pipeline runs on the bundled
default plant.
"""

import time

import numpy as np
import pytest

from alarmhmm import (
    FitConfig,
    fit,
    k_best_paths,
    total_log_likelihood,
    viterbi,
)
from alarmhmm.alarms import AlarmLimits, AlarmSymbolCodebook, MeasurementTrace, extract_sequence
from alarmhmm.baseline import fit_baseline
from alarmhmm.cli import main
from alarmhmm.diagnoser import as_labeled, diagnose, evaluate_prefix_accuracy, train_diagnoser
from alarmhmm.plantsim import (
    DEFAULT_CONFUSABLE_GROUPS,
    ScenarioSpec,
    default_graph,
    default_scenario_counts,
    generate_scenario_set,
    save_graph,
    simulate_fault_trace,
    simulate_normal_trace,
)

import oracles


def report(number, name, ok, detail):
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def small_instances():
    """200 random HMMs with N in 1..4, M in 2..5, T in 1..8."""
    rng = np.random.default_rng(20250810)
    instances = []
    for index in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(2, 6))
        t = int(rng.integers(1, 9))
        model = oracles.random_model(n, m, seed=int(rng.integers(0, 2**31)))
        obs = rng.integers(0, m, size=t)
        instances.append((model, obs))
    return instances


@pytest.fixture(scope="module")
def pipeline_runs():
    """Ten seeded end-to-end runs on the bundled default graph (65/42 shape)."""
    graph = default_graph()
    runs = []
    diagnoser_elapsed = 0.0
    for seed in range(10):
        start = time.perf_counter()
        train, test = generate_scenario_set(graph, default_scenario_counts(), base_seed=seed)
        model = train_diagnoser(as_labeled(train), codebook=graph.codebook)
        l_max = max(len(s) for s in test)
        curve = evaluate_prefix_accuracy(model, as_labeled(test), l_max=l_max)
        diagnoser_elapsed += time.perf_counter() - start
        predictions = fit_baseline(
            as_labeled(train), test, n_clusters=graph.n_faults, n_symbols=graph.n_symbols
        ).predictions
        baseline_accuracy = float(
            np.mean([p == s.fault for p, s in zip(predictions, test)])
        )
        runs.append(
            dict(
                seed=seed,
                curve=curve,
                full_accuracy=float(curve.accuracy[-1]),
                baseline_accuracy=baseline_accuracy,
                train=train,
                test=test,
            )
        )
    return dict(runs=runs, diagnoser_elapsed=diagnoser_elapsed, graph=graph)


def test_c01_forward_oracle(small_instances):
    start = time.perf_counter()
    worst = 0.0
    for model, obs in small_instances:
        got = np.exp(total_log_likelihood(model, [obs]))
        want = np.exp(oracles.enum_log_likelihood(model, obs))
        worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    report(1, "forward-oracle", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s for 200 instances")


def test_c02_viterbi_oracle(small_instances):
    start = time.perf_counter()
    failures = 0
    worst = 0.0
    for model, obs in small_instances:
        path = viterbi(model, obs)
        expected_states, expected_score = oracles.enum_best_path(model, obs)
        if path.states.tolist() != expected_states.tolist():
            failures += 1
        worst = max(worst, abs(path.log_prob - expected_score))
    elapsed = time.perf_counter() - start
    ok = failures == 0 and worst <= 1e-10 and elapsed < 10.0
    report(2, "viterbi-oracle", ok,
           f"{failures} path mismatches, max |dlogp| {worst:.2e}, {elapsed:.1f}s")


def test_c03_k_best_oracle(small_instances):
    # Exactly tied joint probabilities leave the order inside the tie
    # undefined, so the comparison accepts permutations within a tie group
    # (scores within 1e-10) and is strict everywhere else.
    start = time.perf_counter()
    failures = 0
    for model, obs in small_instances:
        got = k_best_paths(model, obs, 3)
        expected_paths, expected_scores = oracles.ranked_paths(model, obs)
        if oracles.ranking_mismatches(got, expected_paths, expected_scores, 3, tol=1e-10):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 10.0
    report(3, "k-best-oracle", ok,
           f"{failures} ordering mismatches across 200 instances, {elapsed:.1f}s")


def test_c04_em_monotonicity():
    rng = np.random.default_rng(7)
    worst_drop = 0.0
    posterior_ok = True

    def check_posteriors(iteration, model, log_likelihood, seqs):
        nonlocal posterior_ok
        for seq in seqs[:2]:
            post = oracles.posteriors(model, seq)
            if not np.allclose(post.gamma.sum(axis=1), 1.0, atol=1e-9):
                posterior_ok = False
            if post.xi.size and not (
                np.allclose(post.xi.sum(axis=(1, 2)), 1.0, atol=1e-9)
                and np.allclose(post.xi.sum(axis=2), post.gamma[:-1], atol=1e-9)
            ):
                posterior_ok = False

    for _ in range(50):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        generator = oracles.random_model(n, m, seed=int(rng.integers(0, 2**31)))
        seqs = []
        for _ in range(int(rng.integers(3, 7))):
            t = int(rng.integers(5, 21))
            state = rng.choice(n, p=generator.initial)
            symbols = []
            for _ in range(t):
                symbols.append(int(rng.choice(m, p=generator.emission[state])))
                state = rng.choice(n, p=generator.transition[state])
            seqs.append(symbols)
        start = oracles.random_model(n, m, seed=int(rng.integers(0, 2**31)))
        _, trace = fit(
            start,
            seqs,
            FitConfig(max_iterations=50),
            on_iteration=lambda i, mdl, ll: check_posteriors(i, mdl, ll, seqs),
        )
        if trace.size > 1:
            worst_drop = min(worst_drop, float(np.diff(trace).min()))
    ok = worst_drop >= -1e-9 and posterior_ok
    report(4, "em-monotonicity", ok,
           f"worst per-step change {worst_drop:.2e}, posterior invariants {'held' if posterior_ok else 'violated'}")


def test_c05_diagnoser_qualitative(pipeline_runs):
    passes = 0
    details = []
    for run in pipeline_runs["runs"]:
        acc = run["curve"].accuracy
        full = run["full_accuracy"]
        ok = full >= 0.95 and acc[2] <= full and all(full >= acc[p] for p in range(3))
        passes += ok
        details.append(f"{full:.2f}")
    elapsed = pipeline_runs["diagnoser_elapsed"]
    ok = passes >= 8 and elapsed < 60.0
    report(5, "diagnoser-accuracy", ok,
           f"{passes}/10 seeds passed, full-length acc {details}, {elapsed:.1f}s total")


def test_c06_baseline_ordering(pipeline_runs):
    passes = sum(
        run["full_accuracy"] >= run["baseline_accuracy"] for run in pipeline_runs["runs"]
    )
    baselines = [f"{run['baseline_accuracy']:.2f}" for run in pipeline_runs["runs"]]
    ok = passes >= 8
    report(6, "baseline-ordering", ok, f"{passes}/10 seeds, baseline accuracies {baselines}")


def test_c07_confusion_structure(pipeline_runs):
    passes = 0
    details = []
    n = pipeline_runs["graph"].n_faults
    for run in pipeline_runs["runs"]:
        confusion = run["curve"].confusion[5]  # prefix length 6
        misclassified = 0
        in_group = 0
        for true_fault in range(n):
            for diagnosed in range(n):
                if true_fault == diagnosed:
                    continue
                count = int(confusion[true_fault, diagnosed])
                misclassified += count
                if any(
                    true_fault in group and diagnosed in group
                    for group in DEFAULT_CONFUSABLE_GROUPS
                ):
                    in_group += count
        ok = 2 * in_group >= misclassified
        passes += ok
        details.append(f"{in_group}/{misclassified}")
    ok = passes >= 8
    report(7, "confusion-structure", ok, f"{passes}/10 seeds, in-group/misclassified {details}")


def test_c08_training_budget(pipeline_runs):
    graph = pipeline_runs["graph"]
    run = pipeline_runs["runs"][0]
    start = time.perf_counter()
    model = train_diagnoser(as_labeled(run["train"]), codebook=graph.codebook)
    train_elapsed = time.perf_counter() - start
    probe = run["test"][0]
    diagnose(model, probe)  # warm-up
    diag_elapsed = 0.0
    for _ in range(5):
        start = time.perf_counter()
        diagnose(model, probe)
        diag_elapsed = max(diag_elapsed, time.perf_counter() - start)
    ok = train_elapsed < 5.0 and diag_elapsed < 0.1
    report(8, "timing-budget", ok,
           f"train {train_elapsed:.2f}s (< 5s), slowest diagnose {diag_elapsed * 1e3:.1f}ms (< 100ms)")


def test_c09_extraction_correctness():
    book = AlarmSymbolCodebook(1)
    limits = AlarmLimits(mean=[10.0], std=[1.0], kappa=3.0, meas_ids=("m0",))
    block = [15.0] * 20 + [10.0] * 20
    readings = [10.0] * 5 + block * 4
    trace = MeasurementTrace(
        sample_period=10.0, values=np.asarray(readings)[:, None], meas_ids=["m0"]
    )
    square_ok = True
    for persist_t in (300.0, 150.0):
        seq = extract_sequence(trace, limits, book, persist_t=persist_t)
        high_start, low_start = oracles.scan_alarm_runs(
            readings, limits.low[0], limits.high[0], 10.0, persist_t
        )
        expected_symbols = [] if high_start is None else [0]
        expected_times = [] if high_start is None else [high_start * 10.0]
        if seq.symbols != expected_symbols or seq.times != expected_times or low_start is not None:
            square_ok = False
    # fixed expectations: 200 s dwells fail a 300 s persistence, pass 150 s
    seq_300 = extract_sequence(trace, limits, book, persist_t=300.0)
    seq_150 = extract_sequence(trace, limits, book, persist_t=150.0)
    square_ok = square_ok and seq_300.symbols == [] and seq_150.symbols == [0]
    square_ok = square_ok and seq_150.times == [50.0]

    rng = np.random.default_rng(99)
    monotone_ok = True
    for _ in range(100):
        values = rng.normal(0.0, 1.5, size=(int(rng.integers(2, 120)), 2))
        random_trace = MeasurementTrace(sample_period=5.0, values=values, meas_ids=["a", "b"])
        random_limits = AlarmLimits(
            mean=[0.0, 0.0], std=[1.0, 1.0], kappa=1.0, meas_ids=("a", "b")
        )
        short = float(rng.uniform(0.0, 100.0))
        long = short + float(rng.uniform(1.0, 100.0))
        loose = extract_sequence(random_trace, random_limits, AlarmSymbolCodebook(2), short)
        tight = extract_sequence(random_trace, random_limits, AlarmSymbolCodebook(2), long)
        if not set(tight.symbols) <= set(loose.symbols):
            monotone_ok = False
    ok = square_ok and monotone_ok
    report(9, "extraction-correctness", ok,
           f"square-wave vs oracle {'ok' if square_ok else 'BAD'}, "
           f"persistence monotonicity on 100 traces {'ok' if monotone_ok else 'BAD'}")


def test_c10_pipeline_determinism(tmp_path):
    graph = default_graph()
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    from alarmhmm.alarms import write_trace_csv

    normal_paths = []
    for i in range(2):
        path = trace_dir / f"normal{i}.csv"
        write_trace_csv(path, simulate_normal_trace(graph.n_measurements, 400, seed=70 + i))
        normal_paths.append(str(path))
    fault_trace, _ = simulate_fault_trace(graph, ScenarioSpec(fault=3, magnitude=0.9, seed=4))
    fault_path = trace_dir / "fault.csv"
    write_trace_csv(fault_path, fault_trace)
    graph_path = tmp_path / "graph.json"
    save_graph(graph, graph_path)

    outputs = []
    for run in ("a", "b"):
        root = tmp_path / run
        data = root / "data"
        assert main(["simulate", "--graph", str(graph_path), "--seed", "1",
                     "--out", str(data)]) == 0
        extracted = root / "extracted.jsonl"
        assert main(["extract", "--normal", normal_paths[0], "--normal", normal_paths[1],
                     "--in", str(fault_path), "--fault", "3",
                     "--out", str(extracted)]) == 0
        model = root / "model.json"
        assert main(["train", "--in", str(data / "train.jsonl"),
                     "--out", str(model)]) == 0
        verdicts = root / "diagnosis.jsonl"
        assert main(["diagnose", "--model", str(model), "--in", str(data / "test.jsonl"),
                     "--out", str(verdicts)]) == 0
        evaluation = root / "evaluation"
        assert main(["evaluate", "--model", str(model), "--in", str(data / "test.jsonl"),
                     "--out", str(evaluation)]) == 0
        base = root / "baseline"
        assert main(["baseline", "--train", str(data / "train.jsonl"),
                     "--in", str(data / "test.jsonl"), "--out", str(base)]) == 0
        comparison = root / "comparison.csv"
        assert main(["report", "--evaluation", str(evaluation), "--baseline", str(base),
                     "--out", str(comparison)]) == 0
        artifacts = {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }
        outputs.append(artifacts)
    same_names = outputs[0].keys() == outputs[1].keys()
    diffs = [name for name in outputs[0] if outputs[0][name] != outputs[1].get(name)]
    ok = same_names and not diffs
    report(10, "pipeline-determinism", ok,
           f"{len(outputs[0])} artifacts compared, differing: {diffs or 'none'}")
