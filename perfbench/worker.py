"""One workload process: import the layers, build the cases, run whole passes.

Started by run.py with the BLAS thread variables already in its
environment.  It prints `READY` once the cases are built, which is where
set-up ends, and as its last stdout line a JSON object with the pass times,
the operation counts and, in a traced run, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg  # noqa: F401  (loads LAPACK and its OpenBLAS)

import spectralab
import workloads
from checks import CheckError
from tracing import Tracer, layer_metrics

MAX_RUN_S = 150.0  # stop starting passes past this, so the run ends in time


def blas_threads() -> list[dict]:
    """Thread count in effect for every OpenBLAS loaded into this process."""
    libs = []
    with open("/proc/self/maps") as f:
        for line in f:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path) and path not in libs:
                libs.append(path)
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is not None and "threads" not in entry:
                    getter.restype = ctypes.c_int
                    entry["threads"] = getter()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas.get("version"),
        "scipy_openblas": sblas.get("version"),
        "thread_env": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads_in_effect": blas_threads(),
        "spectralab": spectralab.__file__,
    }


def run_pass(cases, work: Path, tracer: Tracer | None, errors: list) -> tuple[float, int, bool, list]:
    """One pass over the cases; returns (timed seconds, failed ops, correct, per-case seconds)."""
    elapsed, failed, correct, per_case = 0.0, 0, True, []
    for case in cases:
        out = work / case.name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if tracer is not None:
            tracer.case = case.name
        try:
            t0 = time.perf_counter()
            if tracer is None:
                result = case.run(out)
            else:
                tracer.enabled = True
                try:
                    with tracer.span("case"):
                        result = case.run(out)
                finally:
                    tracer.enabled = False
            dt = time.perf_counter() - t0
        except Exception as exc:  # a raising operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            errors.append(f"{case.name}: {exc!r}")
            failed += 1
            continue
        elapsed += dt
        per_case.append(dt)
        try:
            case.check(result)
        except CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            errors.append(f"{case.name}: {exc}")
            failed += 1
            correct = False
        del result
    return elapsed, failed, correct, per_case


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--spans", type=Path, default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    cases = workloads.build_cases(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    start = time.perf_counter()
    tracer = Tracer() if args.trace else None
    untraced, traced, layers, case_times = [], [], [], []
    attempted = failed = 0
    correct = True
    errors: list[str] = []
    spans_out = []
    while True:
        # A traced run alternates untraced and traced passes, for the overhead.
        trace_this = tracer is not None and len(untraced) > len(traced)
        if trace_this:
            tracer.spans = []
            tracer.install()
        try:
            dt, bad, ok, per_case = run_pass(cases, args.work, tracer if trace_this else None, errors)
        finally:
            if trace_this:
                tracer.uninstall()
        attempted += len(cases)
        failed += bad
        correct = correct and ok
        if trace_this:
            traced.append(dt)
            layers.append(layer_metrics(tracer.spans))
            spans_out += [dict(s.as_dict(start), **{"pass": len(traced)}) for s in tracer.spans]
        else:
            untraced.append(dt)
            case_times.append(per_case)
        t = time.perf_counter() - start
        done = t >= args.seconds and (tracer is None or traced)
        if done or t + dt > MAX_RUN_S:
            break

    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "errors": errors,
        "untraced_pass_s": untraced,
        "case_s": case_times,
        "case_names": [c.name for c in cases],
        "case_params": {c.name: c.params for c in cases},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer is not None:
        per_layer = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        per_layer["trace.pass_s"] = statistics.median(traced)
        per_layer["trace.untraced_pass_s"] = statistics.median(untraced)
        per_layer["trace.overhead_pct"] = 100.0 * (per_layer["trace.pass_s"] / per_layer["trace.untraced_pass_s"] - 1.0)
        result["traced_pass_s"] = traced
        result["per_layer"] = per_layer
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w") as f:
                json.dump(spans_out, f)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
