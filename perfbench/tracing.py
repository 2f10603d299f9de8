"""Span tracing around the public functions of every ``alarmhmm`` layer.

:func:`install` replaces each public function of the package's layer
modules with a timing wrapper, in every module namespace of the package
that binds it (``diagnoser`` imports ``fit``/``viterbi``/``k_best_paths``
by name, ``cli`` imports from ``diagnoser`` and ``alarms`` by name, and
the package re-exports nearly everything), so a call is traced whichever
name it goes through.  Nothing inside the package changes.

A span is ``[name, start, end, parent, op, work]``: ``parent`` indexes the
enclosing span (-1 at the top), ``op`` is the operation id the benchmark
set when the call began, and ``work`` holds the counts read off the call's
arguments and result.  A count that cannot be read is recorded on the span
as ``work_errors`` and never changes what the call returns or raises.
Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

PACKAGE = "alarmhmm"
LAYERS = ("cli", "plantsim", "alarms", "diagnoser", "hmm", "baseline")


def _steps(args, kwargs, result):
    return {"steps": len(args[1])}


#: span name -> counts taken from (args, kwargs, result) once the call returned
WORK = {
    "hmm.fit": lambda a, k, r: {"iterations": len(r[1]) - 1},
    "hmm.forward_backward": _steps,
    # the (T-1) x N x N float64 state-pair posteriors of a standard E-step
    "hmm.posteriors": lambda a, k, r: {"xi_bytes": (len(a[1]) - 1) * a[0].n_states ** 2 * 8},
    "hmm.viterbi": _steps,
    "hmm.k_best_paths": _steps,
    "diagnoser.evaluate_prefix_accuracy": lambda a, k, r: {
        "verdicts": int(r.confusion.sum()),
        "alarms": sum(min(len(item.sequence), len(r.lengths)) for item in a[1]),
    },
    "alarms.read_trace_csv": lambda a, k, r: {"values": r.values.size},
    "alarms.extract_sequence": lambda a, k, r: {"samples": a[0].n_samples},
    "alarms.read_sequences_jsonl": lambda a, k, r: {"records": len(r)},
    "alarms.write_sequences_jsonl": lambda a, k, r: {"records": len(a[1])},
    "baseline.feature_matrix": lambda a, k, r: {"bytes": r.nbytes},
}


def span_name(layer: str, function: str) -> str:
    if layer == "cli" and function.startswith("cmd_"):
        return f"cli.{function[4:]}"
    return f"{layer}.{function}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), None, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = {"errors": 1}
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if work is not None:
                try:
                    span[5] = work(args, kwargs, result)
                except Exception:
                    span[5] = {"work_errors": 1}
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function wherever the package binds it."""
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        ]
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self.wrap(span_name(layer, attr), obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._undo):
            setattr(module, attr, obj)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, op, work in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                if work:
                    record.update(work)
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


EVALUATE = "diagnoser.evaluate_prefix_accuracy"
DIAGNOSE = "diagnoser.diagnose"
DECODERS = ("hmm.viterbi", "hmm.k_best_paths")


def summarize(spans: list[list], n_setups: int, n_rounds: int) -> dict[str, float]:
    """Per-name figures for one set-up plus one measured round.

    Spans whose operation id starts with ``setup`` are divided by the
    number of set-ups, all others by the number of measured rounds.  For
    every name: ``calls``, ``busy_s`` (summed span time), ``self_s`` (span
    time minus its child spans), ``errors``, ``work_errors`` (counts that
    could not be read) and the work counts of :data:`WORK`.  ``diagnoser.diagnose`` covers the verdicts asked for
    directly; the prefix verdicts ``evaluate_prefix_accuracy`` makes
    itself are listed under ``diagnoser.evaluate_prefix_accuracy.diagnose``.
    Two ratios come on top: ``diagnoser.diagnose.decodes_per_call``
    (decoder calls per verdict) and
    ``diagnoser.evaluate_prefix_accuracy.step_reuse`` (alarms scored per
    Viterbi step decoded).
    """
    children = [0.0] * len(spans)
    names = []
    for index, (name, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent] += end - start
        if name == DIAGNOSE and parent >= 0 and spans[parent][0] == EVALUATE:
            name = f"{EVALUATE}.diagnose"
        names.append(name)

    totals: dict[str, float] = defaultdict(float)
    decodes = eval_steps = alarms = 0
    for index, (_, start, end, parent, op, work) in enumerate(spans):
        name, work = names[index], dict(work or {})
        share = 1.0 / (n_setups if op.startswith("setup") else n_rounds)
        totals[f"{name}.calls"] += share
        totals[f"{name}.busy_s"] += (end - start) * share
        totals[f"{name}.self_s"] += (end - start - children[index]) * share
        totals[f"{name}.errors"] += work.pop("errors", 0)
        if "work_errors" in work:
            totals[f"{name}.work_errors"] += work.pop("work_errors")
        for key, value in work.items():
            totals[f"{name}.{key}"] += value * share
        alarms += work.get("alarms", 0)
        if name in DECODERS and parent >= 0:
            if names[parent] == DIAGNOSE:
                decodes += 1
            elif names[parent] == f"{EVALUATE}.diagnose":
                eval_steps += work.get("steps", 0)

    n_diagnose = names.count(DIAGNOSE)
    totals[f"{DIAGNOSE}.decodes_per_call"] = decodes / n_diagnose if n_diagnose else 0.0
    totals[f"{EVALUATE}.step_reuse"] = alarms / eval_steps if eval_steps else 0.0
    for layer in LAYERS:
        totals[f"{layer}.errors"] = sum(
            value for key, value in totals.items()
            if key.startswith(f"{layer}.") and key.endswith(".errors")
        )
    return dict(totals)
