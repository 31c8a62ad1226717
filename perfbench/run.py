"""spectralab benchmark: one workload per call, measured in fresh processes.

    python3 perfbench/run.py --workload nystrom --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the directory holding src/spectralab).
With --trace 0 it prints the end-to-end metrics setup_s, pass_s and
peak_rss_mb; with --trace 1 the per-layer metrics of a traced run.  The last
stdout line is one JSON object {correct, attempted, failed, metrics}.  A
record with the environment (BLAS threads in effect, library versions, git
sha) is written under .perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("nystrom", "toeplitz", "cloud")
SETUP_PROBES = 4  # extra set-up-only processes; the workload process is one more sample
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

UNITS = {
    "setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB",
    "measures.nn_calls": "count", "measures.atoms": "count", "orlicz.iterations": "count",
    "spectral.order": "count", "operators.matrix_mb": "MB", "operators.alloc_peak_mb": "MB",
    "spectral.alloc_peak_mb": "MB", "experiment.covered_pct": "%", "trace.overhead_pct": "%",
}


class BenchError(Exception):
    pass


def child_env(root: Path, threads: int) -> dict:
    env = dict(os.environ)
    # Set outright: a variable already in the environment must not win.
    for var in THREAD_VARS:
        env[var] = str(threads)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(root: Path, env: dict, args, extra: list[str]) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(root / ".perfbench" / "work" / args.workload)] + extra
    return subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE)


def wait_ready(proc: subprocess.Popen, deadline: float) -> bytes:
    """Read stdout up to the READY line; returns what followed it."""
    buf = b""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while b"READY\n" not in buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not sel.select(remaining):
                raise BenchError("worker did not become ready in time")
            chunk = os.read(proc.stdout.fileno(), 65536)
            if not chunk:
                raise BenchError(f"worker exited during set-up (code {proc.wait()})")
            buf += chunk
    return buf.split(b"READY\n", 1)[1]


def finish(proc: subprocess.Popen, deadline: float) -> bytes:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    return out


def timed_start(root, env, args, extra, deadline) -> tuple[subprocess.Popen, float, bytes]:
    t0 = time.perf_counter()
    proc = start_worker(root, env, args, extra)
    try:
        rest = wait_ready(proc, deadline)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, time.perf_counter() - t0, rest


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return res.stdout.strip() or None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--threads", type=int, default=None,
                   help="BLAS threads (default and cap: the CPUs this process may use)")
    args = p.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "spectralab" / "__init__.py").is_file():
        print(f"no spectralab source under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    cpus = len(os.sched_getaffinity(0))
    threads = min(args.threads or cpus, cpus)
    env = child_env(root, threads)
    results = root / ".perfbench" / "results"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = results / f"{tag}-spans.json"

    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                proc, dt, _ = timed_start(root, env, args, ["--setup-only"], deadline)
                finish(proc, deadline)
                setup.append(dt)
        proc, dt, rest = timed_start(root, env, args, ["--spans", str(spans_path)], deadline)
        setup.append(dt)
        out = rest + finish(proc, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    worker = json.loads(out.decode().strip().splitlines()[-1])
    env_info = worker["environment"]
    if not Path(env_info["spectralab"]).resolve().is_relative_to(root / "src"):
        print(f"spectralab was imported from {env_info['spectralab']}, not this checkout", file=sys.stderr)
        return 1

    if args.trace:
        values = worker["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(worker["untraced_pass_s"]),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
    metrics = {k: {"value": v, "unit": UNITS.get(k, "s")} for k, v in values.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "threads": threads, "cpus": cpus, "git_sha": git_sha(root), "source_digest": source_digest(root),
        "setup_samples_s": setup, "metrics": metrics,
        **{k: v for k, v in worker.items() if k != "per_layer"},
    }
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{tag}.json", "w") as f:
        json.dump(record, f, indent=1)

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} operations: {worker['attempted']} attempted, {worker['failed']} failed")
    for err in worker["errors"]:
        print(f"  {err}")
    print(json.dumps({"correct": worker["correct"], "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
