"""Command-line entry point.

Exit codes: 0 all verdicts pass, 1 verdict failure, 2 config/validation
error, 3 numerical failure.  Heavy imports happen after thread-count setup so
--threads (or SPECTRALAB_THREADS) can cap the BLAS pools.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

THREAD_ENV = "SPECTRALAB_THREADS"


def _apply_thread_limit(threads: int | None) -> None:
    if threads is None:
        threads = os.environ.get(THREAD_ENV)
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
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help=f"BLAS thread cap (default: ${THREAD_ENV} if set)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="path to the experiment JSON")
    p_run.add_argument("--svg", action="store_true", help="also write SVG plots")

    p_val = sub.add_parser("validate", help="validate a config without running it")
    p_val.add_argument("config", help="path to the experiment JSON")

    sub.add_parser("list-scenarios", help="print the scenario catalog")

    p_tab = sub.add_parser("coeffs-table", help="export the coefficient table as CSV")
    p_tab.add_argument("--file", default=None, help="write here instead of stdout")
    p_tab.add_argument("--max-dim", type=int, default=4, help="table covers d + codim <= N for N up to this")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _apply_thread_limit(args.threads)

    from ..errors import (
        ConfigError,
        DegenerateKernelError,
        EvaluationError,
        SaturationError,
        SolverError,
        SpectraLabError,
    )

    numerical = (SolverError, SaturationError, DegenerateKernelError, EvaluationError)

    try:
        if args.command == "list-scenarios":
            from .scenarios import list_scenarios

            for name, desc, law, expected in list_scenarios():
                print(f"{name}: {desc}")
                print(f"    law: {law}")
                print(f"    expected verdict: {expected}")
            return 0

        if args.command == "coeffs-table":
            from ..coeffs import coefficient_csv

            pairs = sorted((d, n - d) for n in range(2, args.max_dim + 1) for d in range(1, n))
            if args.file:
                with open(args.file, "w") as f:
                    f.write(coefficient_csv(pairs))
                print(f"wrote {args.file}")
            else:
                print(coefficient_csv(pairs), end="")
            return 0

        from .experiment import ExperimentConfig, run_experiment

        cfg = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)

        if args.command == "validate":
            print(f"config ok: scenario {cfg.scenario!r}")
            return 0

        if args.command == "run":
            if args.svg:
                cfg = dataclasses.replace(cfg, output={**cfg.output, "svg": True})
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
    except numerical as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SpectraLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
