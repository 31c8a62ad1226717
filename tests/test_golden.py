"""Golden outputs: each builtin scenario, at the reduced size recorded in
tests/golden/<scenario>.json, reproduces the recorded exit code and
summary.json.  Keys, strings, booleans and integers must match exactly;
floats within 1e-12 relative, with an absolute floor of 1e-13 for values at
roundoff level.  tests/golden/regenerate.py rewrites the files."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

REL_TOL = 1e-12
ABS_TOL = 1e-13


def _mismatches(got, want, path="summary"):
    """The paths at which got differs from want, with both values."""
    if isinstance(want, float) and type(got) is float:
        return [] if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL) else [(path, got, want)]
    if type(got) is not type(want):
        return [(path, got, want)]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [(path, sorted(got), sorted(want))]
        return [m for key in want for m in _mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [(f"{path} (length)", len(got), len(want))]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _mismatches(g, w, f"{path}[{i}]")]
    return [] if got == want else [(path, got, want)]


def test_every_scenario_has_a_golden_output():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(regenerate.SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(regenerate.REDUCED))
def test_scenario_reproduces_its_golden_output(scenario, tmp_path):
    golden = json.loads((GOLDEN / f"{scenario}.json").read_text())
    assert golden["config"] == {"scenario": scenario, **regenerate.REDUCED[scenario]}
    code, summary = regenerate.run_config(golden["config"], tmp_path)
    assert code == golden["exit_code"]
    assert _mismatches(summary, golden["summary"]) == []


def test_comparison_tolerates_roundoff_and_nothing_more():
    want = {"plateau": 0.5, "floor": 4e-16, "count": 3, "pass": True, "window": [2, 16]}
    assert _mismatches({**want, "plateau": 0.5 * (1 + 1e-13), "floor": 9e-16}, want) == []
    assert _mismatches({**want, "plateau": 0.5 * (1 + 1e-10)}, want) == [("summary.plateau", 0.5 * (1 + 1e-10), 0.5)]
    assert _mismatches({**want, "count": 3.0}, want) == [("summary.count", 3.0, 3)]
    assert _mismatches({**want, "pass": 1}, want) == [("summary.pass", 1, True)]
    assert _mismatches({**want, "window": [2, 17]}, want) == [("summary.window[1]", 17, 16)]
    assert _mismatches({k: v for k, v in want.items() if k != "floor"}, want) != []
