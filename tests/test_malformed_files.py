"""Fuzzed model, graph, sequence, trace and report files: one typed error line, never a
traceback.

Each case starts from a valid file, mutates it (drops a key or column,
swaps a value for a bool, string, float, NaN, null, list or -1, truncates the
bytes or inserts bytes that are not UTF-8) and runs the CLI command that
reads it.  The command must succeed or exit 1 with exactly one
``error: <kind>: ...`` line on stderr.
"""

import contextlib
import copy
import csv
import io
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alarmhmm.alarms import write_trace_csv
from alarmhmm.cli import main
from alarmhmm.plantsim import (
    ScenarioSpec,
    graph_to_dict,
    simulate_fault_trace,
    simulate_normal_trace,
)

from test_plantsim import toy_graph

SWAPS = (True, "x", 0.5, 1e308, math.nan, None, [1], -1)
ERROR_LINE = re.compile(r"error: [a-z-]+: [^\n]*\n")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid model, graph, sequence file, report inputs and a normal and a fault trace
    from the two-fault toy plant."""
    root = tmp_path_factory.mktemp("valid")
    graph = root / "graph.json"
    graph.write_text(json.dumps(graph_to_dict(toy_graph())))
    data = root / "data"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--graph", str(graph), "--seed", "2", "--train-counts", "3,3",
                     "--test-counts", "2,2", "--out", str(data)]) == 0
        assert main(["train", "--in", str(data / "train.jsonl"),
                     "--out", str(root / "model.json")]) == 0
        assert main(["evaluate", "--model", str(root / "model.json"),
                     "--in", str(data / "test.jsonl"), "--out", str(root / "evaluation")]) == 0
        assert main(["baseline", "--train", str(data / "train.jsonl"),
                     "--in", str(data / "test.jsonl"), "--out", str(root / "baseline")]) == 0
    write_trace_csv(root / "normal.csv", simulate_normal_trace(5, 60, seed=3))
    fault, _ = simulate_fault_trace(toy_graph(), ScenarioSpec(fault=0, magnitude=1.0, seed=4))
    write_trace_csv(root / "fault.csv", fault)
    return root


def run_cli(argv) -> None:
    """Run one command; it must succeed or fail with exactly one typed error line.

    A warning stays the error the test settings make it, so that, say, a
    numeric overflow cannot pass unnoticed.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    assert code in (0, 1)
    assert (code == 0 and err.getvalue() == "") or ERROR_LINE.fullmatch(err.getvalue()), \
        err.getvalue()


def json_paths(node, prefix=()):
    """Every (key, ...) path into a parsed JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    return [path for key, child in items
            for path in [prefix + (key,)] + json_paths(child, prefix + (key,))]


def corrupt(data, raw: bytes) -> bytes:
    """Leave the bytes whole, truncate them, or insert bytes that are not UTF-8."""
    action = data.draw(st.sampled_from(["keep", "truncate", "insert"]))
    at = data.draw(st.integers(0, len(raw)))
    if action == "truncate":
        return raw[:at]
    if action == "insert":
        return raw[:at] + b"\xff\xc3(" + raw[at:]
    return raw


def mutated_json(data, document) -> bytes:
    doc = copy.deepcopy(document)
    path = data.draw(st.sampled_from(json_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(st.sampled_from(SWAPS))
    return corrupt(data, json.dumps(doc).encode())


def mutated_csv(data, text: str) -> bytes:
    version, body = text.split("\n", 1)
    return corrupt(data, (version + "\n").encode() + mutated_rows(data, body))


def mutated_rows(data, text: str) -> bytes:
    """Drop a column of the CSV ``text``, or swap a field below its header for a SWAPS value."""
    rows = list(csv.reader(io.StringIO(text)))
    column = data.draw(st.integers(0, len(rows[0]) - 1))
    if data.draw(st.booleans()):
        rows = [row[:column] + row[column + 1:] for row in rows]
    else:
        row = data.draw(st.integers(1, len(rows) - 1))
        swap = data.draw(st.sampled_from(SWAPS))
        rows[row][column] = "" if swap is None else str(swap)
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue().encode()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_model(files, tmp_path_factory, data):
    bad = tmp_path_factory.getbasetemp() / "model.json"
    bad.write_bytes(mutated_json(data, json.loads((files / "model.json").read_text())))
    run_cli(["diagnose", "--model", bad, "--in", files / "data" / "test.jsonl",
             "--out", bad.with_suffix(".out")])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_graph(files, tmp_path_factory, data):
    bad = tmp_path_factory.getbasetemp() / "graph.json"
    bad.write_bytes(mutated_json(data, json.loads((files / "graph.json").read_text())))
    run_cli(["simulate", "--graph", bad, "--train-counts", "2,2", "--test-counts", "1,1",
             "--out", bad.with_suffix(".out")])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_sequence_record(files, tmp_path_factory, data):
    lines = (files / "data" / "train.jsonl").read_text().splitlines()
    record = mutated_json(data, json.loads(lines[0]))
    bad = tmp_path_factory.getbasetemp() / "train.jsonl"
    bad.write_bytes(record + b"\n" + "\n".join(lines[1:]).encode() + b"\n")
    run_cli(["train", "--in", bad, "--out", bad.with_suffix(".model")])
    run_cli(["diagnose", "--model", files / "model.json", "--in", bad,
             "--out", bad.with_suffix(".out")])
    run_cli(["evaluate", "--model", files / "model.json", "--in", bad,
             "--out", bad.with_suffix(".evaluation")])
    run_cli(["baseline", "--train", bad, "--in", files / "data" / "test.jsonl",
             "--out", bad.with_suffix(".baseline")])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), target=st.sampled_from(["evaluation/accuracy.csv",
                                               "baseline/predictions.csv"]))
def test_mutated_report_csv(files, tmp_path_factory, data, target):
    root = tmp_path_factory.getbasetemp() / "report"
    for name in ("evaluation/accuracy.csv", "baseline/predictions.csv"):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes((files / name).read_bytes())
    (root / target).write_bytes(mutated_csv(data, (files / target).read_text()))
    run_cli(["report", "--evaluation", root / "evaluation", "--baseline", root / "baseline",
             "--out", root / "comparison.csv"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), target=st.sampled_from(["normal.csv", "fault.csv"]))
def test_mutated_trace_csv(files, tmp_path_factory, data, target):
    root = tmp_path_factory.getbasetemp() / "traces"
    root.mkdir(exist_ok=True)
    for name in ("normal.csv", "fault.csv"):
        (root / name).write_bytes((files / name).read_bytes())
    (root / target).write_bytes(corrupt(data, mutated_rows(data, (files / target).read_text())))
    run_cli(["extract", "--normal", root / "normal.csv", "--in", root / "fault.csv",
             "--fault", "0", "--out", root / "extracted.jsonl"])
