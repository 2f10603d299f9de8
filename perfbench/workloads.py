"""The benchmark's three workloads.

Each workload is one process and a closed loop with one caller: the next
call starts when the previous one returned.  ``setup`` builds the inputs
from the workload seed; ``round`` runs one unit of measured work through
the package's public functions (looked up on the module at call time, so
the traced run sees them) and records timings, checks and accuracy in a
:class:`Recorder`.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import calibration
from alarmhmm import alarms, baseline, cli, diagnoser, hmm, plantsim
from scaled_graph import scaled_graph


class Recorder:
    """Operation outcomes, timing samples and single figures of one run.

    An operation is a CLI command, a training, a baseline fit, a flood
    diagnosis or an evaluation; it fails if it raises or fails a check.
    Before an operation starts, the calibration kernel runs if it has not
    run for ``calibration.GAP_S``, so every timing sample has kernel
    times (``shots``) taken next to it; see ``calibration.py``.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[tuple[float, float, float]]] = defaultdict(list)
        self.figures: dict[str, float] = {}
        self.shots: list[tuple[float, float]] = []  # (end time, kernel seconds)
        self.attempted = 0
        self.failed: set[str] = set()
        self.problems: list[str] = []

    def calibrate(self, force: bool = False) -> None:
        if force or not self.shots or time.perf_counter() - self.shots[-1][0] >= calibration.GAP_S:
            seconds = calibration.kernel()
            self.shots.append((time.perf_counter(), seconds))

    def add(self, name: str, value: float, since: float) -> None:
        """Record a timing sample measured between ``since`` and now."""
        self.samples[name].append((value, since, time.perf_counter()))

    def run(self, op: str, fn, *args, **kwargs):
        """Call ``fn`` as operation ``op``; returns (seconds, result) or None."""
        self.calibrate()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = op
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.fail(op, traceback.format_exc())
            return None
        return time.perf_counter() - start, result

    def check(self, op: str, ok: bool, message: str) -> None:
        if not ok:
            self.fail(op, f"check failed: {message}")

    def fail(self, op: str, message: str) -> None:
        self.failed.add(op)
        self.problems.append(f"{op}: {message}")


def _digest(paths) -> str:
    sha = hashlib.sha256()
    for path in map(Path, paths):
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for file in files:
            sha.update(file.name.encode())
            sha.update(file.read_bytes())
    return sha.hexdigest()


def _csv_rows(path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(line for line in handle if not line.startswith("#")))


class BundledPipeline:
    """The paper's case study at its own size, as the full CLI chain."""

    name = "bundled-pipeline"
    n_normal = 2
    normal_samples = 360

    def setup(self, seed: int, work: Path, rec: Recorder) -> dict:
        graph = plantsim.default_graph()
        _, test = plantsim.generate_scenario_set(
            graph, plantsim.default_scenario_counts(), base_seed=seed
        )
        traces = work / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        normal = []
        for index in range(self.n_normal):
            path = traces / f"normal{index}.csv"
            trace = plantsim.simulate_normal_trace(
                graph.n_measurements, self.normal_samples, seed=seed * self.n_normal + index
            )
            alarms.write_trace_csv(path, trace)
            normal.append(path)
        floods, schedules = [], []
        for index, sequence in enumerate(test):
            spec = plantsim.ScenarioSpec(
                fault=sequence.fault,
                magnitude=sequence.meta["magnitude"],
                seed=sequence.meta["seed"],
                swap_prob=plantsim.DEFAULT_SWAP_PROB,
                drop_prob=plantsim.DEFAULT_DROP_PROB,
            )
            trace, schedule = plantsim.simulate_fault_trace(graph, spec)
            if schedule.symbols != sequence.symbols:
                raise RuntimeError(f"test flood {index}: the trace schedule differs from the split")
            path = traces / f"flood{index:02d}.csv"
            alarms.write_trace_csv(path, trace)
            floods.append(path)
            schedules.append((sequence.fault, set(schedule.symbols)))
        return {"seed": seed, "work": work, "normal": normal, "floods": floods,
                "schedules": schedules, "reference": {}}

    def _commands(self, state: dict, out: Path) -> list[tuple[str, list[str], list[Path]]]:
        sim, floods, model = out / "sim", out / "floods.jsonl", out / "model.json"
        extract = ["extract"]
        for path in state["normal"]:
            extract += ["--normal", str(path)]
        for path, (fault, _) in zip(state["floods"], state["schedules"]):
            extract += ["--in", str(path), "--fault", str(fault)]
        return [
            ("simulate", ["simulate", "--seed", str(state["seed"]), "--out", str(sim)], [sim]),
            ("extract", extract + ["--out", str(floods)], [floods]),
            ("train", ["train", "--in", str(sim / "train.jsonl"), "--out", str(model)], [model]),
            ("diagnose", ["diagnose", "--model", str(model), "--in", str(floods),
                          "--out", str(out / "diagnosis.jsonl")], [out / "diagnosis.jsonl"]),
            ("evaluate", ["evaluate", "--model", str(model), "--in", str(floods),
                          "--out", str(out / "eval")], [out / "eval"]),
            ("baseline", ["baseline", "--train", str(sim / "train.jsonl"), "--in", str(floods),
                          "--out", str(out / "base")], [out / "base"]),
            ("report", ["report", "--evaluation", str(out / "eval"), "--baseline",
                        str(out / "base"), "--out", str(out / "report.csv")], [out / "report.csv"]),
        ]

    @staticmethod
    def _cli(argv: list[str]) -> None:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}: {stderr.getvalue().strip()}")

    def round(self, state: dict, rec: Recorder, index: int) -> None:
        out = state["work"] / f"chain-{index}"
        reference = state["reference"]
        elapsed = {}
        since = time.perf_counter()
        try:
            for command, argv, outputs in self._commands(state, out):
                op = f"chain-{index}/{command}"
                outcome = rec.run(op, self._cli, argv)
                if outcome is None:
                    return
                elapsed[command] = outcome[0]
                digest = _digest(outputs)
                rec.check(op, reference.setdefault(command, digest) == digest,
                          f"{command} artifacts differ from the first chain's")
                self._check(command, op, out, state, rec)
            rec.add("pipeline_s", sum(elapsed.values()), since)
            for command in ("train", "baseline", "evaluate"):
                rec.add(f"{command}_s", elapsed[command], since)
            if index == 0:
                self._accuracy(out, rec)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    @staticmethod
    def _check(command: str, op: str, out: Path, state: dict, rec: Recorder) -> None:
        if command == "extract":
            records = [json.loads(line) for line in
                       (out / "floods.jsonl").read_text().splitlines()]
            got = [(r["fault"], set(r["symbols"])) for r in records]
            rec.check(op, got == state["schedules"],
                      "extracted symbol sets differ from the simulated schedules")
        elif command == "diagnose":
            for line in (out / "diagnosis.jsonl").read_text().splitlines():
                verdict = json.loads(line)
                second = verdict["second_log_prob"]
                rec.check(op, second is None or second <= verdict["log_prob"],
                          "the second path scores above the best path")
        elif command == "evaluate":
            verdicts = [json.loads(line) for line in
                        (out / "diagnosis.jsonl").read_text().splitlines()]
            correct = sum(v["primary_fault"] == v["true_fault"] for v in verdicts)
            last = _csv_rows(out / "eval" / "accuracy.csv")[-1]
            rec.check(op, int(last["n_correct"]) == correct,
                      f"evaluate counts {last['n_correct']} correct at L_max, "
                      f"diagnose {correct}")

    @staticmethod
    def _accuracy(out: Path, rec: Recorder) -> None:
        curve = [float(row["accuracy"]) for row in _csv_rows(out / "eval" / "accuracy.csv")]
        rec.figures["accuracy_full"] = curve[-1]
        rec.figures["accuracy_prefix_mean"] = float(np.mean(curve))
        rows = _csv_rows(out / "report.csv")
        rec.figures["baseline_accuracy"] = float(
            next(row["accuracy"] for row in rows if row["method"] == "baseline")
        )


def _same_model(a: diagnoser.DiagnoserModel, b: diagnoser.DiagnoserModel) -> bool:
    return (
        np.array_equal(a.hmm.transition, b.hmm.transition)
        and np.array_equal(a.hmm.emission, b.hmm.emission)
        and np.array_equal(a.hmm.initial, b.hmm.initial)
        and a.training == b.training
    )


class _Scaled:
    """Shared set-up of the scaled workloads: a seeded graph and its splits."""

    graph_shape: tuple[int, int, int]
    counts: tuple[int, int]

    def _splits(self, seed: int):
        graph = scaled_graph(*self.graph_shape, seed)
        train, test = plantsim.generate_scenario_set(
            graph, {fault: self.counts for fault in range(graph.n_faults)}, base_seed=seed
        )
        return graph, diagnoser.as_labeled(train), test


class ScaledTrain(_Scaled):
    """The offline side at scale: training, then the baseline on the same split."""

    name = "scaled-train"
    graph_shape = (60, 150, 100)
    counts = (2, 1)
    #: EM iterations per training; see README.md for why it is a budget
    max_iterations = 10

    def setup(self, seed: int, work: Path, rec: Recorder) -> dict:
        graph, train, test = self._splits(seed)
        return {"graph": graph, "train": train, "test": test,
                "config": hmm.FitConfig(max_iterations=self.max_iterations)}

    def round(self, state: dict, rec: Recorder, index: int) -> None:
        op = f"training-{index}"
        since = time.perf_counter()
        outcome = rec.run(op, diagnoser.train_diagnoser, state["train"],
                          config=state["config"], codebook=state["graph"].codebook)
        if outcome is None:
            return
        seconds, model = outcome
        first = state.setdefault("model", model)
        rec.check(op, model.training["iterations"] == self.max_iterations,
                  "training stopped before its iteration budget")
        rec.check(op, _same_model(model, first), "the model differs from the first training's")
        rec.add("train_s", seconds, since)
        base = self._baseline(state, rec, f"baseline-{index}")
        if base is not None:
            rec.add("pipeline_s", seconds + base, since)

    @staticmethod
    def _baseline(state: dict, rec: Recorder, op: str) -> float | None:
        since = time.perf_counter()
        outcome = rec.run(op, baseline.fit_baseline, state["train"], state["test"],
                          None, state["graph"].n_symbols)
        if outcome is None:
            return None
        seconds, result = outcome
        first = state.setdefault("baseline", result)
        rec.check(op, len(result.predictions) == len(state["test"])
                  and result.predictions == first.predictions
                  and result.dendrogram == first.dendrogram,
                  "the baseline left a flood unclassified or differs from the first round's")
        rec.add("baseline_s", seconds, since)
        rec.figures["baseline_accuracy"] = float(np.mean(
            [p == s.fault for p, s in zip(first.predictions, state["test"])]
        ))
        return seconds


class ScaledDiagnose(_Scaled):
    """The online side at scale: per-flood verdicts, then prefix evaluation."""

    name = "scaled-diagnose"
    graph_shape = (30, 100, 60)
    counts = (1, 4)

    def setup(self, seed: int, work: Path, rec: Recorder) -> dict:
        graph, train, test = self._splits(seed)
        start = time.perf_counter()
        model = diagnoser.train_diagnoser(train, codebook=graph.codebook)
        rec.add("train_s", time.perf_counter() - start, start)
        return {"graph": graph, "train": train, "test": test, "model": model,
                "labeled": diagnoser.as_labeled(test), "l_max": max(len(s) for s in test)}

    def round(self, state: dict, rec: Recorder, index: int) -> None:
        model, test = state["model"], state["test"]
        first = state.setdefault("verdicts", {})
        elapsed, correct = 0.0, 0
        since = time.perf_counter()
        for flood, sequence in enumerate(test):
            op = f"flood-{index}-{flood}"
            flood_since = time.perf_counter()
            outcome = rec.run(op, diagnoser.diagnose, model, sequence)
            if outcome is None:
                continue
            seconds, verdict = outcome
            elapsed += seconds
            rec.add("diagnose_ms", seconds * 1e3, flood_since)
            second = verdict.second_path
            rec.check(op, second is None or second.log_prob <= verdict.path.log_prob,
                      "the second path scores above the best path")
            pair = (verdict.primary_fault, verdict.secondary_fault)
            rec.check(op, first.setdefault(flood, pair) == pair,
                      "the verdict differs from the first round's")
            correct += verdict.primary_fault == sequence.fault

        op = f"evaluation-{index}"
        evaluation_since = time.perf_counter()
        outcome = rec.run(op, diagnoser.evaluate_prefix_accuracy, model,
                          state["labeled"], state["l_max"])
        if outcome is None:
            return
        seconds, curve = outcome
        elapsed += seconds
        rec.add("evaluate_s", seconds, evaluation_since)
        rec.check(op, int(curve.n_correct[-1]) == correct,
                  f"evaluate counts {int(curve.n_correct[-1])} correct at L_max, "
                  f"diagnose {correct}")
        reference = state.setdefault("curve", curve)
        rec.check(op, np.array_equal(curve.confusion, reference.confusion),
                  "the evaluation differs from the first round's")
        rec.figures["accuracy_full"] = float(reference.accuracy[-1])
        rec.figures["accuracy_prefix_mean"] = float(reference.accuracy.mean())
        rec.add("pipeline_s", elapsed, since)


WORKLOADS = {w.name: w for w in (BundledPipeline(), ScaledTrain(), ScaledDiagnose())}
