"""Command-line pipeline: simulate, extract, train, diagnose, evaluate,
baseline, report.

Every subcommand is reproducible: identical inputs and ``--seed`` produce
byte-identical output files.  Failures exit nonzero with a single
``error: <kind>: <message>`` line on stderr: status 2 for a command line
that does not parse (kind ``usage``), 1 for any other failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import baseline as baseline_mod
from . import plantsim
from .alarms import (
    DEFAULT_KAPPA,
    DEFAULT_PERSIST_T,
    AlarmSymbolCodebook,
    extract_sequence,
    fit_limits,
    read_sequences_jsonl,
    read_trace_csv,
    write_sequences_jsonl,
)
from .diagnoser import (
    ACCURACY_FIELDS,
    DEFAULT_INIT_SMOOTHING,
    as_labeled,
    diagnose_all,
    evaluate_prefix_accuracy,
    load_diagnoser,
    save_diagnoser,
    train_diagnoser,
    write_accuracy_csv,
    write_confusion_csvs,
)
from .documents import check_number, csv_value, read_csv, write_csv, write_jsonl
from .errors import (
    AlarmHmmError,
    DomainError,
    InferenceError,
    ModelFormatError,
    SchemaError,
    UnknownSymbolError,
    located,
)
from .hmm import FitConfig


class UsageError(AlarmHmmError):
    """A command line that argparse rejects."""


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors reach :func:`main` as :class:`UsageError`."""

    def error(self, message):
        raise UsageError(message)


_ERROR_KINDS = (
    (UsageError, "usage"),
    (UnknownSymbolError, "unknown-symbol"),
    (ModelFormatError, "invalid-model"),
    (SchemaError, "schema-mismatch"),
    (InferenceError, "inference-error"),
    (DomainError, "domain-error"),
    (AlarmHmmError, "error"),
    (FileNotFoundError, "missing-file"),
    (OSError, "io-error"),
    (MemoryError, "out-of-memory"),
)


def _parse_counts(text: str, n_faults: int, option: str) -> list[int]:
    try:
        counts = [int(part) for part in text.split(",")]
    except ValueError:
        raise DomainError(f"{option} must be a comma-separated list of integers") from None
    if len(counts) != n_faults:
        raise DomainError(f"{option} must list one count per fault ({n_faults})")
    return counts


def _codebook_for(groups, size: int | None, source: str = "--measurements") -> AlarmSymbolCodebook:
    """``size`` measurements (``--measurements`` or the model's, named by ``source``),
    else the one count the records of the ``(label, sequences)`` groups declare;
    a record that declares another fails, named ``<label> <index in its group>``."""
    declared = [(f"{label} {index}", seq.meta["n_measurements"])
                for label, sequences in groups for index, seq in enumerate(sequences)
                if seq.meta.get("n_measurements") is not None]
    if size is None:
        sizes = {count for _, count in declared}
        if len(sizes) > 1:
            raise SchemaError("sequences disagree on n_measurements; pass --measurements")
        if not sizes:
            raise SchemaError("sequences carry no n_measurements metadata; pass --measurements")
        size = sizes.pop()
    codebook = AlarmSymbolCodebook(size)
    for name, count in declared:
        if count != size:
            raise SchemaError(f"{name}: meta.n_measurements {count} differs from {source} {size}")
    return codebook


def _read_inputs(paths, labeled: bool = False) -> list:
    """The sequences of every ``--in`` file, pooled in the order given; with
    ``labeled``, an unlabeled one fails, named by its ``<path>:<line>``."""
    return [sequence for path in paths for sequence in read_sequences_jsonl(path, labeled)]


def _read_floods(paths, model, labeled: bool = False) -> list:
    """:func:`_read_inputs`, each record declaring the model's count if it declares one."""
    sequences = _read_inputs(paths, labeled)
    _codebook_for([("sequence", sequences)], model.codebook.n_measurements, "the model's")
    return sequences


def _fault_names_from(sequences) -> dict[int, str]:
    names: dict[int, str] = {}
    for seq in sequences:
        if seq.fault is not None and "fault_name" in seq.meta:
            names.setdefault(seq.fault, str(seq.meta["fault_name"]))
    return names


def cmd_simulate(args) -> int:
    graph = plantsim.load_graph(args.graph) if args.graph else plantsim.default_graph()
    if args.train_counts is not None or args.test_counts is not None:
        if args.train_counts is None or args.test_counts is None:
            raise DomainError("--train-counts and --test-counts must be given together")
        train_counts = _parse_counts(args.train_counts, graph.n_faults, "--train-counts")
        test_counts = _parse_counts(args.test_counts, graph.n_faults, "--test-counts")
        counts = {f: (train_counts[f], test_counts[f]) for f in range(graph.n_faults)}
    elif graph.n_faults == len(plantsim.DEFAULT_TRAIN_COUNTS):
        counts = plantsim.default_scenario_counts()
    else:
        raise DomainError(
            "graph fault count differs from the bundled default; pass --train-counts/--test-counts"
        )
    train, test = plantsim.generate_scenario_set(
        graph,
        counts,
        magnitude_range=(args.magnitude_lo, args.magnitude_hi),
        base_seed=args.seed,
        swap_prob=args.swap_prob,
        drop_prob=args.drop_prob,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_sequences_jsonl(out / "train.jsonl", train)
    write_sequences_jsonl(out / "test.jsonl", test)
    print(f"wrote {len(train)} training and {len(test)} test scenarios to {out}")
    return 0


def cmd_extract(args) -> int:
    if args.fault and len(args.fault) != len(args.inputs):
        raise DomainError("--fault must be given once per --in trace")
    check_number(args.kappa, "kappa", 0)
    check_number(args.persist_t, "persist_t", 0)
    normal_traces = [read_trace_csv(path) for path in args.normal]
    limits = fit_limits(normal_traces, kappa=args.kappa)
    codebook = AlarmSymbolCodebook(normal_traces[0].n_measurements)
    sequences = []
    for index, path in enumerate(args.inputs):
        trace = read_trace_csv(path)
        with located(path):
            sequence = extract_sequence(trace, limits, codebook, persist_t=args.persist_t)
            sequences.append(replace(
                sequence, fault=args.fault[index] if args.fault else None,
                meta={"source": Path(path).name, "n_measurements": codebook.n_measurements}))
    write_sequences_jsonl(args.out, sequences)
    print(f"extracted {len(sequences)} sequence(s) to {args.out}")
    return 0


def cmd_train(args) -> int:
    sequences = _read_inputs(args.inputs, labeled=True)
    labeled = as_labeled(sequences)
    codebook = _codebook_for([("sequence", sequences)], args.measurements)
    config = FitConfig(max_iterations=args.max_iters, rel_tol=args.rel_tol,
                       emission_floor=args.emission_floor)
    model = train_diagnoser(
        labeled,
        config=config,
        codebook=codebook,
        fault_names=_fault_names_from(sequences),
        init_smoothing=args.smoothing,
    )
    save_diagnoser(model, args.out)
    print(
        f"trained {model.n_faults}-fault diagnoser on {len(labeled)} sequences "
        f"({model.training['iterations']} EM iterations) -> {args.out}"
    )
    return 0


def _verdict_record(model, seq, verdict) -> dict:
    return {
        "primary_fault": verdict.primary_fault,
        "primary_fault_name": model.fault_names[verdict.primary_fault],
        "secondary_fault": verdict.secondary_fault,
        "secondary_fault_name": (
            None
            if verdict.secondary_fault is None
            else model.fault_names[verdict.secondary_fault]
        ),
        "log_prob": verdict.path.log_prob,
        "path": verdict.path.states.tolist(),
        "second_log_prob": (
            None if verdict.second_path is None else verdict.second_path.log_prob
        ),
        "second_path": (
            None if verdict.second_path is None else verdict.second_path.states.tolist()
        ),
        "true_fault": seq.fault,
    }


def cmd_diagnose(args) -> int:
    model = load_diagnoser(args.model)
    sequences = _read_floods(args.inputs, model)
    records = [_verdict_record(model, seq, verdict)
               for seq, verdict in zip(sequences, diagnose_all(model, sequences))]
    write_jsonl(args.out, records)
    print(f"diagnosed {len(sequences)} sequence(s) -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    model = load_diagnoser(args.model)
    labeled = as_labeled(_read_floods(args.inputs, model, labeled=True))
    # At least 1, so that an empty input or floods without alarms meet the
    # checks of evaluate_prefix_accuracy, as with an explicit --lmax.
    l_max = args.lmax if args.lmax is not None else max([1] + [len(i.symbols) for i in labeled])
    curve = evaluate_prefix_accuracy(model, labeled, l_max=l_max)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_accuracy_csv(curve, out / "accuracy.csv")
    write_confusion_csvs(curve, out)
    print(
        f"evaluated {curve.n_total} sequences up to prefix length {l_max}; "
        f"accuracy at prefix length {l_max} {curve.accuracy[-1]:.3f} -> {out}"
    )
    return 0


def cmd_baseline(args) -> int:
    train_sequences = read_sequences_jsonl(args.train, labeled=True)
    labeled = as_labeled(train_sequences)
    test_sequences = _read_inputs(args.inputs)
    codebook = _codebook_for([("training sequence", train_sequences),
                              ("test sequence", test_sequences)], args.measurements)
    result = baseline_mod.fit_baseline(
        labeled, test_sequences, n_clusters=args.clusters, n_symbols=codebook.n_symbols
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = [
        (index, seq.fault, prediction)
        for index, (seq, prediction) in enumerate(zip(test_sequences, result.predictions))
    ]
    baseline_mod.write_predictions_csv(out / "predictions.csv", rows)
    baseline_mod.write_dendrogram_csv(out / "dendrogram.csv", result.dendrogram)
    print(f"baseline classified {len(rows)} sequence(s) "
          f"with {result.dendrogram.cut} clusters -> {out}")
    return 0


def cmd_report(args) -> int:
    accuracy_path = Path(args.evaluation) / "accuracy.csv"
    accuracy_rows = read_csv(accuracy_path, ACCURACY_FIELDS)
    prediction_path = Path(args.baseline) / "predictions.csv"
    prediction_rows = read_csv(prediction_path, baseline_mod.PREDICTION_FIELDS)
    if not accuracy_rows:
        raise SchemaError(f"{accuracy_path}: no accuracy rows")
    last = accuracy_rows[-1]
    scored = [row for row in prediction_rows if row["true_fault"] != ""]
    if not scored:
        raise SchemaError(f"{prediction_path}: no true fault labels to score")
    correct = sum(csv_value(row["true_fault"]) == csv_value(row["predicted_fault"])
                  for row in scored)
    write_csv(args.out, ("method", *ACCURACY_FIELDS), [
        ["hmm"] + [row[column] for column in ACCURACY_FIELDS] for row in accuracy_rows
    ] + [["baseline", "full", repr(correct / len(scored)), correct, len(scored)]])
    print(f"hmm accuracy at prefix length {last['prefix_length']} {csv_value(last['accuracy']):.3f}"
          f" vs baseline {correct / len(scored):.3f} at full length -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="alarmhmm",
        description="Diagnose the root-cause fault behind process alarm floods with a discrete HMM.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="generate labeled alarm-sequence scenario sets")
    simulate.add_argument("--graph", help="propagation graph JSON (default: bundled 10-fault plant)")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--train-counts", help="comma list, per-fault training scenario counts")
    simulate.add_argument("--test-counts", help="comma list, per-fault test scenario counts")
    simulate.add_argument("--magnitude-lo", type=float, default=plantsim.DEFAULT_MAGNITUDE_RANGE[0])
    simulate.add_argument("--magnitude-hi", type=float, default=plantsim.DEFAULT_MAGNITUDE_RANGE[1])
    simulate.add_argument("--swap-prob", type=float, default=plantsim.DEFAULT_SWAP_PROB)
    simulate.add_argument("--drop-prob", type=float, default=plantsim.DEFAULT_DROP_PROB)
    simulate.add_argument("--out", required=True, help="output directory (train.jsonl, test.jsonl)")
    simulate.set_defaults(func=cmd_simulate)

    extract = sub.add_parser("extract", help="turn measurement CSV traces into alarm sequences")
    extract.add_argument("--normal", action="append", required=True,
                         help="normal-operation trace CSV for limit fitting (repeatable)")
    extract.add_argument("--in", dest="inputs", action="append", required=True,
                         help="trace CSV to extract (repeatable)")
    extract.add_argument("--fault", type=int, action="append",
                         help="fault label per --in trace (repeatable)")
    extract.add_argument("--persist-t", type=float, default=DEFAULT_PERSIST_T,
                         help="persistence time in seconds (default %(default)s)")
    extract.add_argument("--kappa", type=float, default=DEFAULT_KAPPA,
                         help="alarm limit multiplier (default %(default)s)")
    extract.add_argument("--out", required=True, help="output JSONL path")
    extract.set_defaults(func=cmd_extract)

    train = sub.add_parser("train", help="train the HMM diagnoser from labeled sequences")
    train.add_argument("--in", dest="inputs", action="append", required=True,
                       help="labeled training JSONL (repeatable, pooled in order)")
    train.add_argument("--out", required=True, help="model JSON path")
    train.add_argument("--max-iters", type=int, default=FitConfig.max_iterations)
    train.add_argument("--rel-tol", type=float, default=FitConfig.rel_tol)
    train.add_argument("--emission-floor", type=float, default=FitConfig.emission_floor)
    train.add_argument("--measurements", type=int,
                       help="measurement count (defaults to sequence metadata)")
    train.add_argument("--smoothing", type=float, default=DEFAULT_INIT_SMOOTHING,
                       help="additive smoothing of the seeded emissions (default %(default)s)")
    train.set_defaults(func=cmd_train)

    diag = sub.add_parser("diagnose", help="decode fault verdicts for alarm sequences")
    diag.add_argument("--model", required=True)
    diag.add_argument("--in", dest="inputs", action="append", required=True,
                      help="alarm-sequence JSONL (repeatable, pooled in order)")
    diag.add_argument("--out", required=True, help="output JSONL path")
    diag.set_defaults(func=cmd_diagnose)

    evaluate = sub.add_parser("evaluate", help="prefix-length accuracy and confusion matrices")
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--in", dest="inputs", action="append", required=True,
                          help="labeled test JSONL (repeatable, pooled in order)")
    evaluate.add_argument("--lmax", type=int, default=None,
                          help="max prefix length (default: longest test sequence)")
    evaluate.add_argument("--out", required=True, help="output directory")
    evaluate.set_defaults(func=cmd_evaluate)

    base = sub.add_parser("baseline", help="successor-matrix clustering baseline classifier")
    base.add_argument("--train", required=True, help="labeled training JSONL")
    base.add_argument("--in", dest="inputs", action="append", required=True,
                      help="test JSONL (repeatable, pooled in order)")
    base.add_argument("--clusters", type=int, default=None,
                      help="flat cluster count (default: number of distinct faults)")
    base.add_argument("--measurements", type=int,
                      help="measurement count (defaults to sequence metadata)")
    base.add_argument("--out", required=True, help="output directory")
    base.set_defaults(func=cmd_baseline)

    report = sub.add_parser("report", help="merge evaluation and baseline outputs")
    report.add_argument("--evaluation", required=True, help="directory written by evaluate")
    report.add_argument("--baseline", required=True, help="directory written by baseline")
    report.add_argument("--out", required=True, help="comparison CSV path")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (AlarmHmmError, OSError, MemoryError) as exc:
        message = " ".join(str(exc).split())
        if not message and isinstance(exc, MemoryError):  # Python's own carry no text
            message = "an allocation failed"
        kind = next(kind for cls, kind in _ERROR_KINDS if isinstance(exc, cls))
        print(f"error: {kind}: {message}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
