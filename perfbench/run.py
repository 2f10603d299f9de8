"""Benchmark of the alarmhmm package in this checkout.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bundled-pipeline --seed 1 --seconds 30 --trace 0

It sets up the workload from ``--seed``, runs rounds of it for
``--seconds`` seconds (setting it up again a few times in between, to
time set-up), checks every output and prints a report.  Times are in
calibrated seconds (see ``calibration.py``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics, taken from
spans recorded around every public function of the package (see
``tracing.py``).  The full record, raw samples and machine description
included, goes to ``.perfbench-out/<workload>-seed<seed>-trace<trace>.json``
and, in a traced run, the spans to ``spans-<workload>-seed<seed>.jsonl``
beside it.  The exit code is 0 only when every operation succeeded and
every check held.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORK = ROOT / ".perfbench-work"

#: set-ups per run, the first before the rounds and the others spread over
#: them; ``setup_s`` is their median
SETUPS = 5


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be read."""
    with open("/proc/self/maps") as handle:
        libraries = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for library in sorted(libraries):
        lib = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def machine() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


def calibrated(rec, name: str) -> list[float]:
    """The samples of ``name`` in calibrated seconds (see ``calibration.py``).

    Each sample is scaled by the reference over the mean kernel time of
    the shots taken while it was measured or within the shot gap around it.
    """
    ends = np.array([end for end, _ in rec.shots])
    shots = np.array([seconds for _, seconds in rec.shots])
    gap = calibration.GAP_S
    out = []
    for value, since, until in rec.samples[name]:
        near = shots[(ends >= since - gap) & (ends <= until + gap)]
        out.append(value * calibration.REFERENCE_S / near.mean())
    return out


def figures(rec) -> dict[str, tuple[float, str, int]]:
    """Every figure of the run as name -> (value, unit, sample count)."""
    out = {}
    for name in sorted(rec.samples, key=lambda name: name != "setup_s"):
        values = calibrated(rec, name)
        if name == "diagnose_ms":
            p50, p90 = np.percentile(values, [50, 90])
            out["diagnose_ms_p50"] = (float(p50), "ms", len(values))
            out["diagnose_ms_p90"] = (float(p90), "ms", len(values))
        else:
            out[name] = (statistics.median(values), "s", len(values))
    for name, value in sorted(rec.figures.items()):
        out[name] = (value, "ratio", 1)
    kernel = [seconds for _, seconds in rec.shots]
    out["calibration_ms"] = (statistics.median(kernel) * 1e3, "ms", len(kernel))
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    out["error_rate"] = (len(rec.failed) / max(rec.attempted, 1), "ratio", rec.attempted)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "alarmhmm" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no alarmhmm sources under {SRC} or no BENCHMARK.json", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import alarmhmm

    if Path(alarmhmm.__file__).resolve().parent != SRC / "alarmhmm":
        print(f"error: imported alarmhmm from {alarmhmm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    rec = workloads.Recorder(tracer)
    work = WORK / f"{args.workload}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    setups = rec.samples["setup_s"]

    def set_up():
        if tracer is not None:
            tracer.op = f"setup-{len(setups)}"
        gc.collect()
        rec.calibrate(force=True)
        start = time.perf_counter()
        state = workload.setup(args.seed, work, rec)
        rec.add("setup_s", time.perf_counter() - start, start)
        rec.calibrate(force=True)
        return state

    try:
        state = set_up()
        rounds = 0
        start = time.perf_counter()
        deadline = start + args.seconds
        while rounds == 0 or time.perf_counter() < deadline:
            # The machine's speed drifts over seconds, so the repeat set-ups
            # are spread over the run rather than timed back to back.
            if time.perf_counter() >= start + len(setups) * args.seconds / SETUPS:
                set_up()
            gc.collect()
            workload.round(state, rec, rounds)
            rounds += 1
        while len(setups) < SETUPS:
            set_up()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    found = figures(rec)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": rounds, "machine": machine(),
              "figures": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in found.items()},
              "samples": rec.samples, "shots": rec.shots, "problems": rec.problems}
    if tracer is not None:
        layers = tracing.summarize(tracer.spans, SETUPS, rounds)
        for name, (value, _, _) in found.items():
            layers[f"traced.{name}"] = value
        record["per_layer"] = layers
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        record["spans"] = spans.name
        declared = spec["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in declared}
    else:
        declared = spec["end_to_end"]
        # a figure is missing only when every operation behind it failed
        values = {m["name"]: found.get(m["name"], (0.0,))[0] for m in declared}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} rounds={rounds}")
    print("machine " + " ".join(f"{k}={v}" for k, v in record["machine"].items()))
    print(f"{'figure':<24} {'value':>14} {'unit':<6} {'samples':>7}")
    for key, (value, unit, n) in found.items():
        print(f"{key:<24} {value:>14.6g} {unit:<6} {n:>7}")
    if tracer is not None:
        for key in sorted(record["per_layer"]):
            print(f"layer {key:<52} {record['per_layer'][key]:.6g}")
    for problem in rec.problems:
        print(f"problem: {problem}", file=sys.stderr)
    ok = not rec.failed
    print(json.dumps({
        "correct": ok,
        "attempted": rec.attempted,
        "failed": len(rec.failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
