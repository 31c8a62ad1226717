"""Regenerate the golden outputs: one JSON file per builtin scenario, at a
reduced size, holding the config it was run from, the CLI's exit code and
the run's summary.json.  tests/test_golden.py reruns each config and
compares.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

A change that regenerates these files lists every moved summary key.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from spectralab.cli.main import main
from spectralab.cli.scenarios import SCENARIOS

GOLDEN = Path(__file__).resolve().parent

# The overrides that shrink each scenario to about 400 atoms and IFS depth
# 8, with analysis windows the smaller spectra can fill.  The Fourier and
# Steklov spectra of singular measures decay to the 1e-14 eigenvalue floor,
# so the cutoffs are picked where no eigenvalue lies within 7e-15 of the
# largest one from the floor: the counts above it then do not hang on
# roundoff.  The Steklov routes need K >= 21 for the 40 eigenvalues of one
# sign of their default plateau window.
REDUCED = {
    "circle": {"measure": {"params": {"atoms": 400}}, "analysis": {"window": [20, 100]}},
    "circle_fourier": {"measure": {"params": {"atoms": 500}}, "operator": {"K": 12}},
    "segment": {"measure": {"params": {"atoms": 400}}},
    "two_circles": {"measure": {"params": {"atoms": 400}}},
    "half_signed_circle": {"measure": {"params": {"atoms": 400}}},
    "circle_plus_square": {"measure": {"params": {"atoms": 200, "cells": 14}}, "operator": {"K": 9}},
    "cantor_line": {"measure": {"params": {"depth": 8}}, "analysis": {"order_window": [10, 100]}},
    "steklov_lebesgue": {
        "measure": {"params": {"atoms": 400}},
        "operator": {"K": 64},
        "variants": [{"label": "shift", "operator": {"route": "steklov", "K": 64, "zero_mode": "shift"}}],
    },
    "steklov_cantor": {
        "measure": {"params": {"depth": 8}},
        "operator": {"K": 36},
        "variants": [{"label": "shift", "operator": {"route": "steklov", "K": 36, "zero_mode": "shift"}}],
        "analysis": {"order_window": [10, 40]},
    },
    "sphere": {"measure": {"params": {"atoms": 400}}},
}


def run_config(config: dict, workdir: Path) -> tuple[int, dict | None]:
    """The exit code of `spectralab run` on the config, and its summary (None
    when the run wrote none)."""
    path = workdir / "config.json"
    path.write_text(json.dumps(config))
    out = workdir / "out"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--out", str(out), "run", str(path)])
    summary = out / "summary.json"
    return code, json.loads(summary.read_text()) if summary.exists() else None


def main_regenerate() -> int:
    assert set(REDUCED) == set(SCENARIOS), "every scenario needs a reduced size"
    for name, overrides in REDUCED.items():
        config = {"scenario": name, **overrides}
        with tempfile.TemporaryDirectory() as tmp:
            code, summary = run_config(config, Path(tmp))
        record = {"config": config, "exit_code": code, "summary": summary}
        (GOLDEN / f"{name}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"{name}: exit code {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main_regenerate())
