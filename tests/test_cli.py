"""End-to-end CLI pipeline, artifact formats, error reporting."""

import csv
import json
import re
import warnings

import numpy as np
import pytest

from alarmhmm.alarms import (
    AlarmSymbolCodebook,
    MeasurementTrace,
    read_sequences_jsonl,
    write_trace_csv,
)
from alarmhmm.cli import main
from alarmhmm.diagnoser import (
    HARD_MASK_OFF_DIAGONAL,
    DiagnoserModel,
    as_labeled,
    load_diagnoser,
    save_diagnoser,
    train_diagnoser,
)
from alarmhmm.hmm import Hmm
from alarmhmm.plantsim import (
    ScenarioSpec,
    graph_to_dict,
    save_graph,
    simulate_fault_trace,
    simulate_normal_trace,
)

from test_plantsim import toy_graph


def assert_one_error_line(capsys, kind, path):
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind}: ") and path in err, err
    assert err.count("\n") == 1, err


def first_row(text, row):
    """``text`` of a versioned CSV with its first data row replaced by ``row``."""
    version, header, _, rest = text.split("\n", 3)
    return "\n".join([version, header, row + "\r", rest])


def read_csv(path):
    with open(path) as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.DictReader(lines))


def edited_jsonl(source, target, edit):
    """Copy the JSON Lines file ``source`` to ``target`` with ``edit(index, record)``
    applied to every record."""
    records = [json.loads(line) for line in source.read_text().splitlines()]
    for index, record in enumerate(records):
        edit(index, record)
    target.write_text("".join(json.dumps(record) + "\n" for record in records))
    return target


@pytest.fixture
def pipeline(tmp_path):
    """Small two-fault pipeline: simulate -> train -> evaluate directories."""
    graph_path = tmp_path / "graph.json"
    save_graph(toy_graph(), graph_path)
    data = tmp_path / "data"
    assert main([
        "simulate", "--graph", str(graph_path), "--seed", "5",
        "--train-counts", "4,4", "--test-counts", "3,3",
        "--out", str(data),
    ]) == 0
    model = tmp_path / "model.json"
    assert main(["train", "--in", str(data / "train.jsonl"), "--out", str(model)]) == 0
    return tmp_path, data, model


class TestPipeline:
    def test_simulate_writes_both_splits(self, pipeline):
        _, data, _ = pipeline
        train = (data / "train.jsonl").read_text().splitlines()
        test = (data / "test.jsonl").read_text().splitlines()
        assert len(train) == 8 and len(test) == 6
        record = json.loads(train[0])
        assert set(record) == {"fault", "meta", "symbols", "times"}

    def test_diagnose_emits_verdicts(self, pipeline):
        tmp_path, data, model = pipeline
        out = tmp_path / "diagnosis.jsonl"
        assert main(["diagnose", "--model", str(model), "--in", str(data / "test.jsonl"),
                     "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 6
        for record in records:
            assert record["primary_fault"] in (0, 1)
            assert record["primary_fault_name"] in ("valve stuck", "sensor drift")
            assert record["path"]
            assert record["primary_fault"] == record["true_fault"]

    def test_evaluate_writes_accuracy_and_confusions(self, pipeline):
        tmp_path, data, model = pipeline
        out = tmp_path / "evaluation"
        assert main(["evaluate", "--model", str(model), "--in", str(data / "test.jsonl"),
                     "--lmax", "38", "--out", str(out)]) == 0
        rows = read_csv(out / "accuracy.csv")
        assert len(rows) == 38
        assert [row["prefix_length"] for row in rows] == [str(p) for p in range(1, 39)]
        confusions = sorted(out.glob("confusion_L*.csv"))
        assert len(confusions) == 38
        counts = read_csv(confusions[0])
        assert sum(int(row["count"]) for row in counts) == 6

    def test_baseline_and_report(self, pipeline):
        tmp_path, data, model = pipeline
        evaluation = tmp_path / "evaluation"
        main(["evaluate", "--model", str(model), "--in", str(data / "test.jsonl"),
              "--out", str(evaluation)])
        base = tmp_path / "baseline"
        assert main(["baseline", "--train", str(data / "train.jsonl"),
                     "--in", str(data / "test.jsonl"), "--out", str(base)]) == 0
        predictions = read_csv(base / "predictions.csv")
        assert len(predictions) == 6
        report = tmp_path / "comparison.csv"
        assert main(["report", "--evaluation", str(evaluation), "--baseline", str(base),
                     "--out", str(report)]) == 0
        rows = read_csv(report)
        assert rows[-1]["method"] == "baseline"
        assert rows[-1]["prefix_length"] == "full"
        assert 0.0 <= float(rows[-1]["accuracy"]) <= 1.0
        assert all(row["method"] == "hmm" for row in rows[:-1])

    def test_cluster_count_is_passed_through(self, pipeline, capsys):
        tmp_path, data, _ = pipeline
        args = ["baseline", "--train", str(data / "train.jsonl"), "--in", str(data / "test.jsonl"),
                "--out", str(tmp_path / "baseline")]
        assert main(args + ["--clusters", "3"]) == 0
        assert "with 3 clusters" in capsys.readouterr().out
        assert main(args) == 0
        assert "with 2 clusters" in capsys.readouterr().out
        assert main(args + ["--clusters", "0"]) == 1
        err = capsys.readouterr().err
        assert err == "error: domain-error: n_clusters must lie in [1, 8], got 0\n", err

    def test_length_one_sequence_decodes_closed_form(self, pipeline, tmp_path):
        tmp, _, model_path = pipeline
        seqs = tmp_path / "one.jsonl"
        seqs.write_text(
            '{"fault": null, "symbols": [4], "times": [0.0], "meta": {"n_measurements": 5}}\n'
        )
        out = tmp_path / "verdict.jsonl"
        assert main(["diagnose", "--model", str(model_path), "--in", str(seqs),
                     "--out", str(out)]) == 0
        (record,) = [json.loads(line) for line in out.read_text().splitlines()]
        model = load_diagnoser(model_path)
        expected = int(np.argmax(model.hmm.initial * model.hmm.emission[:, 4]))
        assert record["path"] == [expected]
        assert record["primary_fault"] == expected

    def test_repeated_in_pools_every_file(self, tmp_path):
        data = tmp_path / "data"
        assert main(["simulate", "--seed", "0", "--out", str(data)]) == 0
        model = tmp_path / "model.json"
        assert main(["train", "--in", str(data / "train.jsonl"), "--in", str(data / "test.jsonl"),
                     "--out", str(model)]) == 0
        assert json.loads(model.read_text())["training"]["n_sequences"] == 65 + 42

    def test_self_transition_selects_the_soft_variant(self, pipeline):
        tmp_path, data, hard = pipeline
        soft = tmp_path / "soft.json"
        assert main(["train", "--in", str(data / "train.jsonl"), "--self-transition", "0.9",
                     "--out", str(soft)]) == 0
        expected = train_diagnoser(as_labeled(read_sequences_jsonl(data / "train.jsonl")),
                                   codebook=AlarmSymbolCodebook(5), self_transition=0.9)
        model = load_diagnoser(soft)
        for name in ("transition", "emission", "initial"):
            assert np.array_equal(getattr(model.hmm, name), getattr(expected.hmm, name)), name
        assert model.training["self_transition"] == 0.9
        pinned = load_diagnoser(hard)
        off = pinned.hmm.transition[~np.eye(pinned.n_faults, dtype=bool)]
        assert (off == HARD_MASK_OFF_DIAGONAL).all()
        assert pinned.training["self_transition"] is None
        assert not np.array_equal(model.hmm.transition, pinned.hmm.transition)

    def test_model_round_trips_through_cli(self, pipeline):
        tmp_path, data, model = pipeline
        from alarmhmm.diagnoser import save_diagnoser

        loaded = load_diagnoser(model)
        again = tmp_path / "again.json"
        save_diagnoser(loaded, again)
        assert model.read_bytes() == again.read_bytes()


class TestMeasurementCount:
    """``train`` and ``baseline`` size the alphabet from ``meta.n_measurements``,
    or from ``--measurements`` for records that lack it or disagree on it."""

    @staticmethod
    def argv(command, tmp_path, train, test):
        return [str(arg) for arg in {
            "train": ["train", "--in", train, "--out", tmp_path / "model.json"],
            "baseline": ["baseline", "--train", train, "--in", test, "--out", tmp_path / "base"],
        }[command]]

    @pytest.mark.parametrize("command", ["train", "baseline"])
    def test_records_without_the_count_need_the_flag(self, pipeline, capsys, command):
        tmp_path, data, _ = pipeline
        train, test = (
            edited_jsonl(data / name, tmp_path / f"bare-{name}",
                         lambda _, record: record["meta"].pop("n_measurements"))
            for name in ("train.jsonl", "test.jsonl")
        )
        reference = tmp_path / "reference"
        reference.mkdir()
        assert main(self.argv(command, reference, data / "train.jsonl", data / "test.jsonl")) == 0
        argv = self.argv(command, tmp_path, train, test)
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == ("error: schema-mismatch: sequences carry no "
                                           "n_measurements metadata; pass --measurements\n")
        assert main(argv + ["--measurements", "5"]) == 0
        output = {"train": "model.json", "baseline": "base/predictions.csv"}[command]
        assert (tmp_path / output).read_bytes() == (reference / output).read_bytes()

    @pytest.mark.parametrize("command", ["train", "baseline"])
    def test_records_that_disagree_need_the_flag(self, pipeline, capsys, command):
        tmp_path, data, _ = pipeline

        def widen(index, record):
            if index == 1:
                record["meta"]["n_measurements"] = 6

        train = edited_jsonl(data / "train.jsonl", tmp_path / "mixed.jsonl", widen)
        argv = self.argv(command, tmp_path, train, data / "test.jsonl")
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == ("error: schema-mismatch: sequences disagree on "
                                           "n_measurements; pass --measurements\n")
        assert main(argv + ["--measurements", "6"]) == 0

    @staticmethod
    def alien(declared):
        """An edit that gives record 1 the symbol 99, keeping or dropping its
        declared ``meta.n_measurements``."""
        def edit(index, record):
            if index == 1:
                record.update(symbols=[99], times=[0.0])
                if not declared:
                    del record["meta"]["n_measurements"]
        return edit

    @pytest.mark.parametrize("flag", [[], ["--measurements", "5"]], ids=["meta", "flag"])
    @pytest.mark.parametrize("command", ["train", "baseline"])
    def test_symbol_outside_the_declared_alphabet_names_its_line(self, pipeline, capsys,
                                                                 command, flag):
        tmp_path, data, _ = pipeline
        train = edited_jsonl(data / "train.jsonl", tmp_path / "alien.jsonl", self.alien(True))
        capsys.readouterr()
        assert main(self.argv(command, tmp_path, train, data / "test.jsonl") + flag) == 1
        assert capsys.readouterr().err == (
            f"error: unknown-symbol: {train}:2: symbol 99 outside [0, 10)\n")

    @pytest.mark.parametrize("command, where", [
        ("train", "sequence 1"), ("baseline", "training sequence 1"),
        ("baseline-in", "test sequence 1"),
    ])
    def test_symbol_outside_the_flag_alphabet_names_its_sequence(self, pipeline, capsys,
                                                                 command, where):
        tmp_path, data, _ = pipeline
        files = {"train": data / "train.jsonl", "test": data / "test.jsonl"}
        edited = "test" if command == "baseline-in" else "train"
        files[edited] = edited_jsonl(files[edited], tmp_path / "alien.jsonl", self.alien(False))
        argv = self.argv(command.split("-")[0], tmp_path, files["train"], files["test"])
        capsys.readouterr()
        assert main(argv + ["--measurements", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown-symbol: {where}: symbol 99 "), err
        assert err.count("\n") == 1, err


class TestExtract:
    def test_extract_from_traces(self, tmp_path):
        from alarmhmm.plantsim import FaultPath, PropagationGraph, Stage

        graph = PropagationGraph(
            n_measurements=5,
            faults=(
                FaultPath(
                    name="steps",
                    stages=(
                        Stage((2,), 100.0, 0.0),
                        Stage((6,), 500.0, 0.0),  # low alarm of measurement 1
                        Stage((0, 3), 900.0, 0.0),
                    ),
                    depth_thresholds=(0.0, 0.0, 0.0),
                ),
            ),
        )
        normal_paths = []
        for i in range(2):
            path = tmp_path / f"normal{i}.csv"
            write_trace_csv(path, simulate_normal_trace(5, 300, seed=50 + i))
            normal_paths.append(path)
        trace, scheduled = simulate_fault_trace(
            graph, ScenarioSpec(fault=0, magnitude=1.0, seed=9)
        )
        fault_path = tmp_path / "fault.csv"
        write_trace_csv(fault_path, trace)

        out = tmp_path / "extracted.jsonl"
        assert main([
            "extract",
            "--normal", str(normal_paths[0]), "--normal", str(normal_paths[1]),
            "--in", str(fault_path), "--fault", "0",
            "--persist-t", "300", "--kappa", "3",
            "--out", str(out),
        ]) == 0
        (record,) = [json.loads(line) for line in out.read_text().splitlines()]
        assert record["fault"] == 0
        assert record["symbols"] == scheduled.symbols
        assert record["meta"]["n_measurements"] == 5

    @pytest.mark.parametrize("times, line", [
        (["0", "inf"], 3),
        (["0", "10", "nan"], 4),
        (["-1e308", "0", "1e308"], 4),
        (["-1.05e308", "-3.5e307", "3.5e307", "1.05e308"], 5),
    ], ids=["inf", "nan", "1e308", "7e307-period"])
    def test_time_stamps_and_sample_times_must_be_finite(self, tmp_path, capsys, times, line):
        normal = tmp_path / "normal.csv"
        write_trace_csv(normal, simulate_normal_trace(3, 100, seed=1))
        header, *rows = normal.read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(
            [header] + [time + row[row.index(","):] for time, row in zip(times, rows)]
        ) + "\n")
        code = main(["extract", "--normal", str(normal), "--in", str(bad),
                     "--out", str(tmp_path / "out.jsonl")])
        assert code == 1
        assert_one_error_line(capsys, "schema-mismatch", f"{bad}:{line}: ")

    @pytest.mark.parametrize("trace", ["normal", "fault"])
    @pytest.mark.parametrize("reading", ["nan", "inf", "-inf"])
    def test_non_finite_reading_names_its_file_and_line(self, tmp_path, capsys, trace, reading):
        normal = tmp_path / "normal.csv"
        write_trace_csv(normal, simulate_normal_trace(3, 100, seed=1))
        bad = tmp_path / "bad.csv"
        lines = normal.read_text().splitlines()
        time, *values = lines[5].split(",")
        lines[5] = ",".join([time, values[0], reading, values[2]])
        bad.write_text("\n".join(lines) + "\n")
        normal_arg, fault_arg = (bad, normal) if trace == "normal" else (normal, bad)
        code = main(["extract", "--normal", str(normal_arg), "--in", str(fault_arg),
                     "--out", str(tmp_path / "out.jsonl")])
        assert code == 1
        assert_one_error_line(capsys, "schema-mismatch", f"{bad}:6: reading {reading} in column ")

    def test_overflowing_normal_moments_are_one_domain_error(self, tmp_path, capsys):
        normal = tmp_path / "normal.csv"
        write_trace_csv(normal, simulate_normal_trace(5, 100, seed=1))
        bad = tmp_path / "huge.csv"
        lines = normal.read_text().splitlines()
        fields = lines[5].split(",")
        fields[4] = "1e308"  # column m03
        lines[5] = ",".join(fields)
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["extract", "--normal", str(normal), "--normal", str(bad),
                     "--in", str(normal), "--out", str(tmp_path / "out.jsonl")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: domain-error: mean or variance overflows at normal operation for: m03\n")
        assert not (tmp_path / "out.jsonl").exists()

    def test_persistence_beyond_a_fine_trace_yields_no_alarm(self, tmp_path):
        normal = tmp_path / "normal.csv"
        write_trace_csv(normal, simulate_normal_trace(3, 100, seed=1))
        values = np.zeros((50, 3))
        values[10:, 1] = 20.0  # a high alarm of m01 that lasts to the end
        fault = tmp_path / "fault.csv"
        write_trace_csv(fault, MeasurementTrace(sample_period=0.001, values=values,
                                                meas_ids=["m00", "m01", "m02"]))
        symbols = {}
        for persist_t in ("0.02", "1e308"):  # 1e308 s is about 1e311 samples of 1 ms
            out = tmp_path / f"{persist_t}.jsonl"
            assert main(["extract", "--normal", str(normal), "--in", str(fault),
                         "--persist-t", persist_t, "--out", str(out)]) == 0
            symbols[persist_t] = json.loads(out.read_text())["symbols"]
        assert symbols == {"0.02": [1], "1e308": []}

    @pytest.mark.parametrize("edit, message", [
        (lambda ids: ["x0", "x1", "x2"],
         "trace measurement 1 is 'x0', the limits were fitted on 'm00'"),
        (lambda ids: [ids[0], ids[2], ids[1]],
         "trace measurement 2 is 'm02', the limits were fitted on 'm01'"),
        (lambda ids: ids[:2], "trace has 2 measurements, codebook expects 3"),
    ], ids=["renamed", "swapped", "short"])
    def test_trace_header_must_name_the_limits_measurements(self, tmp_path, capsys, edit,
                                                            message):
        normal = tmp_path / "normal.csv"
        trace = simulate_normal_trace(3, 100, seed=1)
        write_trace_csv(normal, trace)
        ids = edit(list(trace.meas_ids))
        bad = tmp_path / "bad.csv"
        write_trace_csv(bad, MeasurementTrace(sample_period=trace.sample_period,
                                              values=trace.values[:, :len(ids)], meas_ids=ids))
        out = tmp_path / "out.jsonl"
        code = main(["extract", "--normal", str(normal), "--in", str(bad), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: domain-error: {bad}: {message}\n"
        assert not out.exists()

    def test_negative_fault_label_is_rejected_before_writing(self, tmp_path, capsys):
        normal = tmp_path / "normal.csv"
        write_trace_csv(normal, simulate_normal_trace(3, 100, seed=1))
        out = tmp_path / "out.jsonl"
        code = main(["extract", "--normal", str(normal), "--in", str(normal), "--fault", "-1",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: domain-error: sequence 0: fault label -1 must be non-negative\n")
        assert not out.exists()

    def test_fault_count_mismatch(self, tmp_path, capsys):
        path = tmp_path / "normal.csv"
        write_trace_csv(path, simulate_normal_trace(3, 100, seed=1))
        code = main(["extract", "--normal", str(path), "--in", str(path), "--in", str(path),
                     "--fault", "1", "--out", str(tmp_path / "out.jsonl")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: domain-error:")


class TestDeterminism:
    def test_repeated_pipeline_is_byte_identical(self, tmp_path):
        graph_path = tmp_path / "graph.json"
        save_graph(toy_graph(), graph_path)
        outputs = []
        for run in ("a", "b"):
            root = tmp_path / run
            data = root / "data"
            main(["simulate", "--graph", str(graph_path), "--seed", "3",
                  "--train-counts", "3,3", "--test-counts", "2,2", "--out", str(data)])
            model = root / "model.json"
            main(["train", "--in", str(data / "train.jsonl"), "--out", str(model)])
            evaluation = root / "evaluation"
            main(["evaluate", "--model", str(model), "--in", str(data / "test.jsonl"),
                  "--out", str(evaluation)])
            base = root / "baseline"
            main(["baseline", "--train", str(data / "train.jsonl"),
                  "--in", str(data / "test.jsonl"), "--out", str(base)])
            report = root / "comparison.csv"
            main(["report", "--evaluation", str(evaluation), "--baseline", str(base),
                  "--out", str(report)])
            artifacts = sorted(
                p.relative_to(root) for p in root.rglob("*") if p.is_file()
            )
            outputs.append({str(p): (root / p).read_bytes() for p in artifacts})
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], f"artifact {name} differs"


class TestErrorReporting:
    def test_missing_file(self, tmp_path, capsys):
        code = main(["train", "--in", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "model.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: missing-file:")
        assert err.count("\n") == 1

    def test_invalid_model_file(self, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text('{"not": "a model"}')
        seqs = tmp_path / "seqs.jsonl"
        seqs.write_text('{"fault": 0, "symbols": [0], "times": [0.0], "meta": {}}\n')
        code = main(["diagnose", "--model", str(bad), "--in", str(seqs),
                     "--out", str(tmp_path / "out.jsonl")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: invalid-model:")

    @pytest.mark.parametrize("size", ["abc", True, 0, 2.5])
    def test_invalid_codebook_size(self, pipeline, tmp_path, capsys, size):
        _, data, model = pipeline
        doc = json.loads(model.read_text())
        doc["codebook"]["n_measurements"] = size
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["diagnose", "--model", str(bad), "--in", str(data / "test.jsonl"),
                     "--out", str(tmp_path / "out.jsonl")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: invalid-model:")

    def test_schema_mismatch(self, tmp_path, capsys):
        seqs = tmp_path / "seqs.jsonl"
        seqs.write_text('{"fault": 0, "symbols": "oops", "times": [], "meta": {}}\n')
        code = main(["train", "--in", str(seqs), "--out", str(tmp_path / "model.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: schema-mismatch:")

    def test_unknown_symbol(self, pipeline, tmp_path, capsys):
        _, _, model = pipeline
        seqs = tmp_path / "alien.jsonl"
        seqs.write_text(
            '{"fault": 0, "symbols": [99], "times": [0.0], "meta": {"n_measurements": 5}}\n'
        )
        for command in ("diagnose", "evaluate"):
            code = main([command, "--model", str(model), "--in", str(seqs),
                         "--out", str(tmp_path / command)])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: unknown-symbol:")
            assert "\n" not in err.rstrip("\n")

    @pytest.mark.parametrize("reader", ["model", "graph", "jsonl", "trace", "report"])
    def test_non_utf8_bytes_give_one_typed_error_line(self, pipeline, tmp_path, capsys, reader):
        _, data, model = pipeline
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe not text \x80")
        evaluation, base = tmp_path / "evaluation", tmp_path / "baseline"
        argv, kind = {
            "model": (["diagnose", "--model", bad, "--in", data / "test.jsonl",
                       "--out", tmp_path / "out.jsonl"], "invalid-model"),
            "graph": (["simulate", "--graph", bad, "--out", tmp_path / "sim"], "schema-mismatch"),
            "jsonl": (["train", "--in", bad, "--out", tmp_path / "m.json"], "schema-mismatch"),
            "trace": (["extract", "--normal", bad, "--in", bad,
                       "--out", tmp_path / "x.jsonl"], "schema-mismatch"),
            "report": (["report", "--evaluation", evaluation, "--baseline", base,
                        "--out", tmp_path / "c.csv"], "schema-mismatch"),
        }[reader]
        if reader == "report":
            main(["baseline", "--train", str(data / "train.jsonl"),
                  "--in", str(data / "test.jsonl"), "--out", str(base)])
            evaluation.mkdir()
            (evaluation / "accuracy.csv").write_bytes(bad.read_bytes())
        capsys.readouterr()
        assert main([str(arg) for arg in argv]) == 1
        assert_one_error_line(capsys, kind, str(bad if reader != "report" else evaluation))

    def test_directory_as_model_is_an_io_error(self, pipeline, tmp_path, capsys):
        _, data, _ = pipeline
        code = main(["diagnose", "--model", str(tmp_path), "--in", str(data / "test.jsonl"),
                     "--out", str(tmp_path / "out.jsonl")])
        assert code == 1
        assert_one_error_line(capsys, "io-error", str(tmp_path))

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["faults"][0]["stages"][0].update(jitter_s=float("nan")),
        lambda doc: doc.update(n_measurements=41.9),
        lambda doc: doc["faults"][0]["stages"][0].update(delay_s="150"),
        lambda doc: doc["faults"][0].update(name=7),
        lambda doc: doc["faults"][0]["stages"][0].update(jitter_s=1e308),
    ], ids=["nan-jitter", "float-size", "string-delay", "int-name", "overflowing-jitter"])
    def test_graph_numbers_are_strict(self, tmp_path, capsys, edit):
        doc = json.loads(json.dumps(graph_to_dict(toy_graph())))
        edit(doc)
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(doc))
        code = main(["simulate", "--graph", str(graph), "--train-counts", "2,2",
                     "--test-counts", "1,1", "--out", str(tmp_path / "data")])
        assert code == 1
        assert_one_error_line(capsys, "schema-mismatch", str(graph))

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(initial=[str(p) for p in doc["initial"]]),
        lambda doc: doc.update(n_states=float(doc["n_states"])),
        lambda doc: doc["emission"][0].__setitem__(0, True),
        lambda doc: doc.update(transition=None),
    ], ids=["string-probabilities", "float-size", "bool-probability", "null-matrix"])
    def test_model_numbers_are_strict(self, pipeline, tmp_path, capsys, edit):
        _, data, model = pipeline
        doc = json.loads(model.read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["diagnose", "--model", str(bad), "--in", str(data / "test.jsonl"),
                     "--out", str(tmp_path / "out.jsonl")])
        assert code == 1
        assert_one_error_line(capsys, "invalid-model", str(bad))

    @pytest.mark.parametrize("target, edit", [
        ("predictions.csv", lambda text: text.replace("true_fault", "label")),
        ("accuracy.csv", lambda text: text.replace("format_version=1", "format_version=9")),
        ("accuracy.csv", lambda text: text.rsplit("\n", 2)[0] + "\n1,2\n"),
        ("accuracy.csv", lambda text: text.split("\n", 1)[0] + "\n"),
        ("accuracy.csv", lambda text: re.sub(r",[^,]*(,\d+,\d+\n)$", r",x\1", text)),
        ("accuracy.csv", lambda text: first_row(text, "1,abc,x,42")),
        ("accuracy.csv", lambda text: first_row(text, "1.0,0.5,1,2")),
        ("accuracy.csv", lambda text: first_row(text, "-1,0.5,1,2")),
        ("accuracy.csv", lambda text: first_row(text, "1,1.5,3,2")),
        ("accuracy.csv", lambda text: first_row(text, "1,NaN,1,2")),
        ("accuracy.csv", lambda text: first_row(text, "1,0.5,-1,2")),
        ("accuracy.csv", lambda text: first_row(text, "1,0.5,1,true")),
        ("predictions.csv", lambda text: first_row(text, "0,abc,xyz")),
        ("predictions.csv", lambda text: first_row(text, "1,00,0")),
        ("predictions.csv", lambda text: first_row(text, "-1,0,0")),
        ("predictions.csv", lambda text: first_row(text, "0,1,1.0")),
        ("predictions.csv", lambda text: first_row(text, "0,-1,0")),
    ], ids=["no-true-fault-column", "unknown-version", "short-row", "no-header",
            "non-numeric-accuracy", "garbage-row", "float-prefix", "negative-prefix",
            "accuracy-above-one", "nan-accuracy", "negative-count", "bool-total",
            "non-numeric-faults", "leading-zero-label", "negative-sequence-id",
            "float-prediction", "negative-label"])
    def test_report_checks_its_input_csvs(self, pipeline, tmp_path, capsys, target, edit):
        tmp, data, model = pipeline
        evaluation, base = tmp_path / "evaluation", tmp_path / "baseline"
        main(["evaluate", "--model", str(model), "--in", str(data / "test.jsonl"),
              "--out", str(evaluation)])
        main(["baseline", "--train", str(data / "train.jsonl"),
              "--in", str(data / "test.jsonl"), "--out", str(base)])
        path = (evaluation if target == "accuracy.csv" else base) / target
        path.write_text(edit(path.read_text()))
        capsys.readouterr()
        code = main(["report", "--evaluation", str(evaluation), "--baseline", str(base),
                     "--out", str(tmp_path / "comparison.csv")])
        assert code == 1
        assert_one_error_line(capsys, "schema-mismatch", str(path))

    @staticmethod
    def floods_after_a_good_one(data, tmp_path, record):
        """A JSON Lines file: the first test flood, then ``record`` as sequence 1."""
        floods = tmp_path / "floods.jsonl"
        floods.write_text((data / "test.jsonl").read_text().splitlines()[0] + "\n"
                          + json.dumps({"fault": 0, "meta": {}, **record}) + "\n")
        return floods

    EMPTY = ({"symbols": [], "times": []}, "domain-error: sequence 1: observation sequence "
             "must be a non-empty 1-D list of symbol indices")
    ALIEN = ({"symbols": [99], "times": [0.0]},
             "unknown-symbol: sequence 1: symbol 99 at position 0 is outside [0, 10)")
    UNSEEN = ({"fault": 7, "symbols": [0], "times": [0.0]},
              "domain-error: sequence 1: test label 7 outside the model's faults")

    @pytest.mark.parametrize("command, case", [
        ("diagnose", EMPTY), ("evaluate", EMPTY), ("diagnose", ALIEN), ("evaluate", ALIEN),
        ("evaluate", UNSEEN),
    ], ids=["diagnose-empty", "evaluate-empty", "diagnose-alien", "evaluate-alien",
            "evaluate-unseen-label"])
    def test_flood_that_cannot_be_decoded_is_named(self, pipeline, capsys, command, case):
        tmp_path, data, model = pipeline
        record, expected = case
        floods = self.floods_after_a_good_one(data, tmp_path, record)
        capsys.readouterr()
        assert main([command, "--model", str(model), "--in", str(floods),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize("command", ["diagnose", "evaluate"])
    def test_flood_from_another_plant_is_named(self, pipeline, capsys, command):
        # Symbols 1 and 2 exist in both alphabets, but name other alarms there.
        tmp_path, data, model = pipeline
        floods = self.floods_after_a_good_one(data, tmp_path, {
            "symbols": [1, 2], "times": [0.0, 10.0], "meta": {"n_measurements": 41}})
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, "--model", str(model), "--in", str(floods),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: schema-mismatch: sequence 1: "
                                           "meta.n_measurements 41 differs from the model's 5\n")
        assert not out.exists()

    def test_first_flood_in_the_list_that_cannot_be_decoded_is_named(self, tmp_path, capsys):
        # State 0 emits only symbols 0-2, states 1 and 2 only 3-5, and no state
        # is ever left: flood 1 fails at step 3 and flood 2, decoded beside it
        # in one chunk of three, already at step 1.
        model = tmp_path / "model.json"
        low, high = [1 / 3] * 3 + [0.0] * 3, [0.0] * 3 + [1 / 3] * 3
        save_diagnoser(DiagnoserModel(
            hmm=Hmm(transition=np.eye(3), emission=[low, high, high], initial=[1 / 3] * 3),
            fault_names=("a", "b", "c"), codebook=AlarmSymbolCodebook(3),
        ), model)
        floods = tmp_path / "floods.jsonl"
        floods.write_text("".join(
            json.dumps({"fault": 0, "symbols": symbols, "times": [0.0] * len(symbols),
                        "meta": {}}) + "\n"
            for symbols in ([5, 4], [0, 1, 2, 3], [4, 0])
        ))
        for command in ("diagnose", "evaluate"):
            out = tmp_path / command
            capsys.readouterr()
            assert main([command, "--model", str(model), "--in", str(floods),
                         "--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                "error: inference-error: sequence 1: no admissible state path at step 3\n")
            assert not out.exists()

    @pytest.mark.parametrize("record", [EMPTY[0], ALIEN[0]], ids=["empty", "alien"])
    def test_diagnose_writes_nothing_when_a_flood_fails(self, pipeline, record):
        tmp_path, data, model = pipeline
        floods = self.floods_after_a_good_one(data, tmp_path, record)
        out = tmp_path / "verdicts.jsonl"
        assert main(["diagnose", "--model", str(model), "--in", str(floods),
                     "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, kind", [("diagnose", "invalid-model"),
                                               ("train", "schema-mismatch")])
    def test_integers_too_long_to_convert(self, pipeline, tmp_path, capsys, command, kind):
        _, data, model = pipeline
        bad = tmp_path / "bad"
        bad.write_text('{"format_version": "1", "fault": ' + "1" * 5000 + "}\n")
        argv = {"diagnose": ["--model", bad, "--in", data / "test.jsonl"],
                "train": ["--in", bad]}[command]
        code = main([command] + [str(arg) for arg in argv] + ["--out", str(tmp_path / "out")])
        assert code == 1
        assert_one_error_line(capsys, kind, str(bad))

    @pytest.mark.parametrize("command", ["train", "evaluate", "baseline", "diagnose",
                                         "baseline-in"])
    def test_negative_fault_label_is_one_domain_error(self, pipeline, tmp_path, capsys, command):
        _, data, model = pipeline
        lines = (data / "train.jsonl").read_text().splitlines()
        record = json.loads(lines[2])
        record["fault"] = -1
        lines[2] = json.dumps(record)
        bad = tmp_path / "negative.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        argv = {
            "train": ["train", "--in", bad, "--out", tmp_path / "model.json"],
            "evaluate": ["evaluate", "--model", model, "--in", bad, "--out", tmp_path / "eval"],
            "baseline": ["baseline", "--train", bad, "--in", data / "test.jsonl",
                         "--out", tmp_path / "base"],
            "diagnose": ["diagnose", "--model", model, "--in", bad,
                         "--out", tmp_path / "verdicts.jsonl"],
            "baseline-in": ["baseline", "--train", data / "train.jsonl", "--in", bad,
                            "--out", tmp_path / "base"],
        }[command]
        capsys.readouterr()
        assert main([str(arg) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err == "error: domain-error: sequence 2: fault label -1 must be non-negative\n", err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--rel-tol", "--emission-floor", "--smoothing",
                                      "--kappa", "--persist-t"])
    def test_non_finite_setting_is_one_domain_error(self, pipeline, capsys, flag, value):
        tmp_path, data, _ = pipeline
        if flag in ("--kappa", "--persist-t"):
            normal = tmp_path / "normal.csv"
            write_trace_csv(normal, simulate_normal_trace(3, 100, seed=1))
            argv = ["extract", "--normal", normal, "--in", normal, "--out", tmp_path / "x.jsonl"]
        else:
            argv = ["train", "--in", data / "train.jsonl", "--out", tmp_path / "new.json"]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([str(arg) for arg in argv] + [f"{flag}={value}"]) == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: domain-error: ") and err.count("\n") == 1, err

    def test_negative_seed_is_one_domain_error(self, tmp_path, capsys):
        assert main(["simulate", "--seed", "-1", "--out", str(tmp_path / "data")]) == 1
        err = capsys.readouterr().err
        assert err == "error: domain-error: seed must be non-negative, got -1\n", err

    @pytest.mark.parametrize("empty", ["--train-counts", "--test-counts"])
    def test_empty_count_list_is_not_ignored(self, tmp_path, capsys, empty):
        counts = {"--train-counts": "5,8,7,7,6,6,6,6,6,8", "--test-counts": "4,4,4,4,4,5,5,4,4,4"}
        counts[empty] = ""
        out = ["--out", str(tmp_path / "data")]
        assert main(["simulate"] + [arg for pair in counts.items() for arg in pair] + out) == 1
        err = capsys.readouterr().err
        assert err == f"error: domain-error: {empty} must be a comma-separated list of integers\n"
        assert main(["simulate", empty, ""] + out) == 1
        err = capsys.readouterr().err
        assert err == ("error: domain-error: --train-counts and --test-counts "
                       "must be given together\n"), err
        assert not (tmp_path / "data").exists()

    def test_zero_lmax_is_rejected(self, pipeline, capsys):
        tmp_path, data, model = pipeline
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model), "--in", str(data / "test.jsonl"),
                     "--lmax", "0", "--out", str(tmp_path / "evaluation")]) == 1
        assert capsys.readouterr().err == "error: domain-error: l_max must be >= 1\n"
        assert not (tmp_path / "evaluation").exists()

    def test_empty_evaluation_input_is_one_domain_error(self, pipeline, capsys):
        tmp_path, _, model = pipeline
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model), "--in", str(empty),
                     "--out", str(tmp_path / "evaluation")]) == 1
        assert capsys.readouterr().err == (
            "error: domain-error: evaluation requires at least one labeled sequence\n")

    def test_flood_without_alarms_fails_as_with_an_explicit_lmax(self, pipeline, capsys):
        tmp_path, _, model = pipeline
        silent = tmp_path / "silent.jsonl"
        silent.write_text('{"fault": 0, "symbols": [], "times": [], "meta": {}}\n')
        capsys.readouterr()
        errors = []
        for lmax in ([], ["--lmax", "5"]):
            assert main(["evaluate", "--model", str(model), "--in", str(silent),
                         "--out", str(tmp_path / "evaluation"), *lmax]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and errors[0].count("\n") == 1, errors
        assert "l_max" not in errors[0]

    def test_unlabeled_training_data(self, tmp_path, capsys):
        seqs = tmp_path / "seqs.jsonl"
        seqs.write_text('{"fault": null, "symbols": [0], "times": [0.0], "meta": {}}\n')
        code = main(["train", "--in", str(seqs), "--out", str(tmp_path / "model.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: domain-error:")
