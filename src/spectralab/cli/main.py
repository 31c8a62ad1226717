"""Command-line entry point.

Exit codes: 0 every verdict passes, 1 a verdict failed, 2 the config is at
fault (a ConfigError, or an argument argparse rejects), 3 the run failed for
any other reason.  Heavy imports happen after thread-count setup so
--threads (or SPECTRALAB_THREADS) can cap the BLAS pools.
"""

from __future__ import annotations

import argparse
import os
import sys

THREAD_ENV = "SPECTRALAB_THREADS"
# The largest N whose coefficients (d + codim = N) are all normal floats:
# from N = 226 on the smallest is subnormal, and from N = 236 on it is 0.0.
MAX_DIM = 225


def _thread_count(text: str) -> int:
    """A BLAS thread count: a positive integer."""
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"a thread count (also read from ${THREAD_ENV}) must be a positive integer, not {text!r}")
    return int(text)


def _apply_thread_limit(threads: int | None) -> None:
    if threads is None:
        return
    # An explicit cap overrides thread variables inherited from the shell.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectralab",
        description="Spectra of Birman-Schwinger operators of singular measures",
    )
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument(
        "--threads",
        type=_thread_count,
        # argparse parses a string default as it parses the flag
        default=os.environ.get(THREAD_ENV) or None,
        help=f"BLAS thread cap (default: ${THREAD_ENV} if set)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="path to the experiment JSON")

    p_val = sub.add_parser("validate", help="validate a config without running it")
    p_val.add_argument("config", help="path to the experiment JSON")

    sub.add_parser("list-scenarios", help="print the scenario catalog")

    p_tab = sub.add_parser("coeffs-table", help="export the coefficient table as CSV")
    p_tab.add_argument("--max-dim", type=int, default=4, help="table covers d + codim <= N for N up to this")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _apply_thread_limit(args.threads)

    from ..errors import ConfigError

    try:
        if args.command == "list-scenarios":
            from .scenarios import list_scenarios

            for name, desc, law, expected in list_scenarios():
                print(f"{name}: {desc}")
                print(f"    law: {law}")
                print(f"    expected verdict: {expected}")
            return 0

        if args.command == "coeffs-table":
            if args.max_dim > MAX_DIM:
                parser.error(f"argument --max-dim: past N = {MAX_DIM} the coefficients fall below the normal floats, not {args.max_dim}")
            from ..coeffs import coefficient_csv

            pairs = sorted((d, n - d) for n in range(2, args.max_dim + 1) for d in range(1, n))
            print(coefficient_csv(pairs), end="")
            return 0

        from .experiment import ExperimentConfig, run_experiment

        cfg = ExperimentConfig.from_file(args.config)

        if args.command == "validate":
            print(f"config ok: scenario {cfg.scenario!r}")
            return 0

        report = run_experiment(cfg, args.out)
        for v in report.verdicts:
            status = "PASS" if v["pass"] else "FAIL"
            obs = v.get("observed")
            extra = f" observed={obs:.6g}" if isinstance(obs, (int, float)) else ""
            print(f"[{status}] {cfg.scenario}:{v['name']}{extra}")
        print(f"report: {os.path.join(args.out, 'summary.json')}")
        return 0 if report.all_passed else 1

    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
