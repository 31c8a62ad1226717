"""Experiment runner and command line: determinism, artifacts, exit codes."""

import dataclasses
import json
import math
import os
import re
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import spectralab
from spectralab import coeffs, measures, operators
from spectralab.cli.experiment import ExperimentConfig, _resolve_density, run_experiment
from spectralab.cli.main import MAX_DIM, main
from spectralab.errors import ScenarioError
from spectralab.spectral import read_spectrum_csv

SMALL_CIRCLE = {
    "scenario": "circle",
    "seed": 17,
    "measure": {"params": {"atoms": 400}},
    "analysis": {"window": [20, 100]},
    "checks": [
        {"name": "weyl_plateau", "kind": "plateau", "sign": "+", "target": "predicted", "tol": 0.10},
        {"name": "calibrated_selected", "kind": "plateau_ratio_mass", "tol": 0.10},
        {"name": "kernel_sensitivity", "kind": "variant_plateau", "variant": "pure_log", "tol": 0.02},
        {"name": "dixmier_consistency", "kind": "dixmier_plateau", "tol": 0.10},
    ],
}


def _write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def test_run_small_circle(tmp_path):
    cfg = ExperimentConfig.from_dict(SMALL_CIRCLE)
    report = run_experiment(cfg, tmp_path / "out")
    assert report.all_passed, report.verdicts
    for artifact in ("summary.json", "spectrum.csv", "weyl.dat", "dixmier.dat", "measure.txt", "diagnostics.json"):
        assert (tmp_path / "out" / artifact).exists(), artifact
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert set(summary) == {
        "schema_version",
        "config",
        "measure",
        "orlicz",
        "prediction",
        "spectral",
        "verdicts",
    }
    assert summary["measure"]["total_mass"] == pytest.approx(2 * np.pi, abs=1e-4)
    assert all(v["pass"] for v in summary["verdicts"])


def test_summary_entries_are_their_results_fields(tmp_path):
    # a field added to a result changes these key sets, and so the summary, on purpose
    run_experiment(ExperimentConfig.from_dict(SMALL_CIRCLE), tmp_path / "out")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())

    def names(result):
        return {f.name for f in dataclasses.fields(result)}

    assert (
        set(summary["measure"]["ahlfors"])
        == {"exponent", "c_lower", "c_upper", "is_regular", "radii", "sample_count", "ratio"}
        == names(measures.AhlforsBand) | {"ratio"}
    )
    assert "density_bounds" not in summary["measure"]
    for mode in ("calibrated", "printed"):
        prediction = summary["prediction"][mode]
        assert (
            set(prediction)
            == {"a_plus", "a_minus", "components", "residue"}
            == names(coeffs.TracePrediction) | {"residue"}
        )
        assert set(prediction["components"][0]) == names(coeffs.ComponentPrediction)


def test_run_determinism(tmp_path):
    cfg = ExperimentConfig.from_dict(SMALL_CIRCLE)
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    a = (tmp_path / "a" / "summary.json").read_bytes()
    b = (tmp_path / "b" / "summary.json").read_bytes()
    assert a == b


def test_spectrum_csv_full_precision(tmp_path):
    cfg = ExperimentConfig.from_dict(SMALL_CIRCLE)
    report = run_experiment(cfg, tmp_path / "out")
    back = read_spectrum_csv(tmp_path / "out" / "spectrum.csv")
    assert np.array_equal(back["+"], report.eigen_primary.positive)


def test_unknown_scenario_rejected():
    with pytest.raises(ScenarioError):
        ExperimentConfig.from_dict({"scenario": "perpetuum_mobile"})


def test_cli_validate_and_exit_codes(tmp_path):
    good = _write_config(tmp_path, SMALL_CIRCLE)
    assert main(["validate", str(good)]) == 0

    bad = _write_config(tmp_path, {"scenario": "perpetuum_mobile"}, "bad.json")
    assert main(["validate", str(bad)]) == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["validate", str(broken)]) == 2


def test_verdicts_recomputable_from_summary(tmp_path):
    # reports are self-contained: every verdict can be re-derived from the
    # serialized observed/expected/tolerance numbers alone
    cfg = ExperimentConfig.from_dict(SMALL_CIRCLE)
    run_experiment(cfg, tmp_path / "out")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    for v in summary["verdicts"]:
        if "rel_error" in v and "tol" in v and "expected" in v:
            recomputed = abs(v["observed"] / v["expected"] - 1.0)
            assert recomputed == pytest.approx(v["rel_error"], rel=1e-12)
            assert v["pass"] == (v["rel_error"] <= v["tol"]) or v["kind"] == "plateau_ratio_mass"


def test_cli_run_unknown_scenario_leaves_no_outputs(tmp_path):
    bad = _write_config(tmp_path, {"scenario": "perpetuum_mobile"}, "bad_run.json")
    out = tmp_path / "never_created"
    assert main(["--out", str(out), "run", str(bad)]) == 2
    assert not out.exists()


def test_cli_run_exit_codes(tmp_path):
    ok_cfg = _write_config(tmp_path, SMALL_CIRCLE)
    out = tmp_path / "out_ok"
    assert main(["--out", str(out), "run", str(ok_cfg)]) == 0

    failing = dict(SMALL_CIRCLE)
    failing["checks"] = [
        {"name": "impossible", "kind": "plateau", "sign": "+", "target": 12345.0, "tol": 1e-9}
    ]
    fail_cfg = _write_config(tmp_path, failing, "failing.json")
    out2 = tmp_path / "out_fail"
    assert main(["--out", str(out2), "run", str(fail_cfg)]) == 1
    summary = json.loads((out2 / "summary.json").read_text())
    assert not summary["verdicts"][0]["pass"]


def test_cli_signed_density_on_indefinite_kernel_exits_3(tmp_path, capsys):
    # -log|x - y| is not positive definite on a circle of radius 2, so the
    # sign framing has no Cholesky factor: a numerical failure, exit code 3
    raw = {
        "scenario": "half_signed_circle",
        "measure": {"params": {"atoms": 400, "radius": 2.0}},
        "operator": {"kernel": "pure_log"},
    }
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(_write_config(tmp_path, raw))]) == 3
    assert "smallest eigenvalue" in capsys.readouterr().err
    assert "assemble" in (out / "FAILED").read_text()


# Configs that validate, but whose runs fail for a reason that is not the
# config's, and the stage at which each fails.
FAILING_RUNS = {
    # sum_i w_i psi(V_i / s) saturates: the Luxemburg root is past 1e300
    "circle_density_1e300": (
        {"scenario": "circle", "measure": {"params": {"atoms": 200}}, "density": {"kind": "expression", "expr": "1e300 * (2 + x)"},
         "variants": [], "checks": []},
        "orlicz",
    ),
}


@pytest.mark.parametrize("raw, stage", FAILING_RUNS.values(), ids=FAILING_RUNS.keys())
def test_run_failure_that_is_not_the_configs_exits_3(tmp_path, capsys, raw, stage):
    # exit code 1 is kept for a failed verdict
    path = _write_config(tmp_path, raw)
    assert main(["validate", str(path)]) == 0
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(path)]) == 3
    failed = (out / "FAILED").read_text()
    assert failed.startswith(f"stage: {stage}\nerror: ")
    error = failed.split("error: ")[1].split("(")[0]
    assert f"run failed: {error}: " in capsys.readouterr().err


@pytest.mark.parametrize("scenario, params", [
    ("circle", {"radius": 1e-60}),
    ("circle", {"radius": 1e20}),
    ("sphere", {"radius": 1e-60}),
    ("sphere", {"radius": 1e60}),
    ("segment", {"length": 1e100}),
    ("two_circles", {"r1": 1e-100, "r2": 1e-100, "gap": 1e-100}),
    ("sphere", {"radius": 1e-100}),
    ("sphere", {"radius": 1e-80}),
    ("sphere", {"radius": 1e80}),
    ("sphere", {"radius": 1e100}),
])
def test_configs_at_the_admitted_extremes_run_end_to_end(tmp_path, scenario, params):
    # total masses from about 1e-199 to 1e201: a small mass puts the Luxemburg
    # root hundreds of halvings below its first bracket, a large one reads psi
    # and phi where only their series is accurate; the spheres' ||M|| runs
    # from about 1e-198 to 1e202, where the eigensolve's check scales T
    raw = {"scenario": scenario, "measure": {"params": {"atoms": 200, **params}}, "checks": [], "variants": []}
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(_write_config(tmp_path, raw))]) == 0
    assert (out / "summary.json").exists()


def test_catalog_atoms_that_round_onto_one_point_are_config_error(tmp_path, capsys):
    # a unit circle at cx = 1e100, where doubles are 1.9e84 apart
    raw = {"scenario": "circle", "measure": {"params": {"atoms": 200, "cx": 1e100}}, "checks": [], "variants": []}
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(_write_config(tmp_path, raw))]) == 2
    assert (out / "FAILED").read_text().startswith("stage: measure\nerror: ScenarioError(")
    assert "coincident atoms" in capsys.readouterr().err


def _circle_fourier_at(cx, compare=None):
    """The 400-atom circle_fourier at K = 12, centred at (cx, 0)."""
    return {
        "scenario": "circle_fourier",
        "measure": {"params": {"atoms": 400, "cx": cx}},
        "operator": {"K": 12},
        "checks": [],
        "compare": compare,
    }


@pytest.mark.parametrize("cx", [1e10, 1e12, 1e13])
def test_catalog_measure_that_rounding_moves_is_config_error(tmp_path, capsys, cx):
    # doubles at cx are 1.2e-4, 7.8e-3 and 0.13 of the atom spacing apart; the
    # Fourier route reported 67, 77 and 94 positive eigenvalues, not 49
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(_write_config(tmp_path, _circle_fourier_at(cx)))]) == 2
    assert (out / "FAILED").read_text().startswith("stage: measure\nerror: ScenarioError(")
    assert "rounding moves its atoms" in capsys.readouterr().err


def test_catalog_measure_within_the_rounding_bound_keeps_its_spectrum(tmp_path):
    # at cx = 1e8 doubles are 9.5e-7 of the atom spacing apart
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(_write_config(tmp_path, _circle_fourier_at(1e8)))]) == 0
    primary = json.loads((out / "summary.json").read_text())["spectral"]["primary"]
    assert (primary["n_positive"], primary["n_negative"]) == (49, 0)


def test_run_records_its_numerical_health_in_diagnostics_json(tmp_path):
    compare = {"route": "logkernel", "kernel": "bessel"}
    report = run_experiment(ExperimentConfig.from_dict(_circle_fourier_at(0.0, compare)), tmp_path)
    diagnostics = json.loads((tmp_path / "diagnostics.json").read_text())
    assert set(diagnostics) == {"orlicz", "eigensolve", "timings", "threads", "peak_rss_mb"}
    assert set(diagnostics["orlicz"]) == set(report.norms) == {"luxemburg_psi", "luxemburg_phi", "averaged"}
    for name, search in diagnostics["orlicz"].items():
        assert search == {"evaluations": report.norms[name].iterations, "residual": report.norms[name].residual}
        assert search["evaluations"] > 0 and 0.0 <= search["residual"] <= 1e-10
    assert set(diagnostics["eigensolve"]) == set(report.solves) == {"primary", "compare"}
    for name, rep in report.solves.items():
        lo, hi = rep.metadata["checked_range"]
        assert diagnostics["eigensolve"][name] == {
            "residual_rel": rep.metadata["residual_rel"],
            "bisection_gap_rel": rep.metadata["bisection_gap_rel"],
            "checked_range": [lo, hi],
            "n_at_floor": rep.size - len(rep.positive) - len(rep.negative),
        }
    assert "diagnostics" not in json.loads((tmp_path / "summary.json").read_text())


def test_diagnostics_json_records_every_variant_solve(tmp_path):
    # the circle's default pure_log variant is checked like the primary solve
    raw = {"scenario": "circle", "measure": {"params": {"atoms": 200}}, "checks": []}
    run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
    eigensolve = json.loads((tmp_path / "diagnostics.json").read_text())["eigensolve"]
    spectral_summary = json.loads((tmp_path / "summary.json").read_text())["spectral"]
    assert set(eigensolve) == {"primary", "variants"} and set(eigensolve["variants"]) == {"pure_log"}
    for health, summary in [
        (eigensolve["primary"], spectral_summary["primary"]),
        (eigensolve["variants"]["pure_log"], spectral_summary["variants"]["pure_log"]),
    ]:
        assert set(health) == {"residual_rel", "bisection_gap_rel", "checked_range", "n_at_floor"}
        assert 0 <= health["residual_rel"] <= 1e-8 and 0 <= health["bisection_gap_rel"] <= 1e-8
        assert health["n_at_floor"] == summary["size"] - summary["n_positive"] - summary["n_negative"] >= 0


def test_diagnostics_json_records_stage_timings_and_blas_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    raw = {"scenario": "circle", "measure": {"params": {"atoms": 200}}, "checks": []}
    report = run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
    diagnostics = json.loads((tmp_path / "diagnostics.json").read_text())
    timings = diagnostics["timings"]
    assert set(timings) == {
        "measure",
        "measure_io",
        "diagnostics",
        "orlicz",
        "prediction",
        "assemble",
        "eigensolve",
        "spectrum_io",
        "assemble_pure_log",
        "eigensolve_pure_log",
    }
    assert timings == report.timings
    assert all(isinstance(dt, float) and math.isfinite(dt) and dt >= 0 for dt in timings.values())
    assert diagnostics["threads"] == {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": None}
    assert diagnostics["peak_rss_mb"] > 0
    assert not (tmp_path / "timings.txt").exists()


def test_fourier_route_reads_coordinates_modulo_the_period(tmp_path):
    # a circle at cx = 1e6 is the circle at the origin on the torus of
    # period L = 8; unreduced, its phases lose about 10 bits
    def run(cx):
        raw = {
            "scenario": "circle_fourier",
            "measure": {"params": {"atoms": 400, "cx": cx}},
            "operator": {"K": 12},
            "checks": [],
            "compare": None,
        }
        out = tmp_path / f"cx_{cx:g}"
        assert main(["--out", str(out), "run", str(_write_config(tmp_path, raw))]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["operator"]["L"] == 8.0
        return summary["spectral"]["primary"], read_spectrum_csv(out / "spectrum.csv")["+"][:40]

    (origin, ref), (far, top) = run(0.0), run(1e6)
    assert (far["n_positive"], far["n_negative"]) == (origin["n_positive"], origin["n_negative"])
    assert len(ref) == len(top) == 40
    np.testing.assert_allclose(top, ref, rtol=1e-7, atol=0.0)


def test_support_too_large_for_the_torus_is_config_error(tmp_path, capsys):
    # a circle of radius 3 spans 6, past L/2 = 4 of the circle_fourier torus
    raw = {"scenario": "circle_fourier", "measure": {"params": {"atoms": 200, "radius": 3.0}}, "compare": None, "checks": []}
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(_write_config(tmp_path, raw))]) == 2
    assert (out / "FAILED").read_text().startswith("stage: assemble\nerror: SupportTooLargeError(")
    assert "config error: support box side" in capsys.readouterr().err


def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    text = capsys.readouterr().out
    assert "circle" in text and "expected verdict" in text
    # the catalog is honest about the known finite-size obstruction
    assert "expected verdict: fail" in text


def test_cli_coeffs_table(capsys, tmp_path):
    assert main(["coeffs-table"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "d,codim,printed,calibrated"

    assert main(["coeffs-table", "--max-dim", "3"]) == 0
    assert capsys.readouterr().out == coeffs.coefficient_csv([(1, 1), (1, 2), (2, 1)])


def test_coeffs_table_stops_where_its_coefficients_are_normal_floats(capsys):
    assert main(["coeffs-table", "--max-dim", str(MAX_DIM)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == MAX_DIM * (MAX_DIM - 1) // 2
    assert min(float(x) for row in rows for x in row.split(",")[2:]) >= sys.float_info.min
    with pytest.raises(SystemExit) as exc:
        main(["coeffs-table", "--max-dim", str(MAX_DIM + 1)])
    assert exc.value.code == 2
    assert f"past N = {MAX_DIM}" in capsys.readouterr().err


def test_svg_output(tmp_path):
    raw = dict(SMALL_CIRCLE)
    raw["output"] = {"svg": True}
    cfg = ExperimentConfig.from_dict(raw)
    run_experiment(cfg, tmp_path / "out")
    svg = (tmp_path / "out" / "weyl.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_svg_of_a_spectrum_with_no_positive_eigenvalue(tmp_path):
    raw = {
        "scenario": "circle",
        "measure": {"params": {"atoms": 200}},
        "density": {"kind": "expression", "expr": "-1.0"},
        "variants": [],
        "checks": [],
        "output": {"svg": True},
    }
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(_write_config(tmp_path, raw))]) == 0
    assert '<polyline points=""' in (out / "weyl.svg").read_text()
    assert (out / "dixmier.svg").exists() and not (out / "FAILED").exists()


def test_failed_marker_on_stage_error(tmp_path):
    raw = dict(SMALL_CIRCLE)
    raw["measure"] = {"params": {"atoms": 400}, "name": "circle"}
    raw["operator"] = {"route": "fourier", "L": 3.0, "K": 10}  # support too large
    cfg = ExperimentConfig.from_dict(raw)
    with pytest.raises(Exception):
        run_experiment(cfg, tmp_path / "out")
    marker = (tmp_path / "out" / "FAILED").read_text()
    assert "assemble" in marker


def test_config_seed_and_overrides():
    raw = dict(SMALL_CIRCLE)
    raw["measure"] = {"params": {"atoms": 123}}
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.measure["name"] == "circle"  # merged from the scenario default
    assert cfg.measure["params"]["atoms"] == 123
    assert cfg.seed == 17


REDUCED_STEKLOV_CANTOR = {
    "scenario": "steklov_cantor",
    "operator": {"K": 300},
    "variants": [{"label": "shift", "operator": {"route": "steklov", "K": 300, "zero_mode": "shift"}}],
    # at K = 300 the order bound is resolved up to index ~60 (K = 2500 reaches 300)
    "analysis": {"order_window": [20, 60]},
}


@pytest.mark.parametrize(
    "raw",
    [{"scenario": "cantor_line"}, REDUCED_STEKLOV_CANTOR],
    ids=["cantor_line", "steklov_cantor"],
)
def test_cli_fractal_scenarios_complete(tmp_path, raw):
    # non-integer dimensions have no predicted trace; the run records why and
    # still reaches its order-bound verdicts
    cfg = _write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(cfg)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    for mode in ("calibrated", "printed"):
        assert summary["prediction"][mode]["available"] is False
        assert "non-integer dimension" in summary["prediction"][mode]["reason"]
    assert summary["verdicts"] and all(v["pass"] for v in summary["verdicts"])
    assert not (out / "FAILED").exists()


def test_cli_clipped_order_window_is_recorded(tmp_path):
    # at K = 300 fewer than 300 eigenvalues lie above the floor, so the
    # requested window [20, 300] is clipped to the spectrum length
    raw = {**REDUCED_STEKLOV_CANTOR, "analysis": {"order_window": [20, 300]}}
    out = tmp_path / "out"
    # the order-sharpness verdict fails: the window reaches the floor
    assert main(["--out", str(out), "run", str(_write_config(tmp_path, raw))]) == 1
    summary = json.loads((out / "summary.json").read_text())
    primary = summary["spectral"]["primary"]
    n_positive = primary["n_positive"]
    assert n_positive < 300
    bounds = primary["order_bounds"]
    assert bounds["window"] == [20, n_positive] and bounds["requested"] == [20, 300]
    (ratio,) = [v for v in summary["verdicts"] if v["kind"] == "order_ratio"]
    assert ratio["window"] == [20, n_positive] and ratio["requested"] == [20, 300]


@pytest.mark.parametrize(
    "check",
    [
        {"name": "weyl_plateau", "kind": "plateau", "sign": "+", "target": "predicted", "tol": 0.1},
        {"name": "calibrated_selected", "kind": "plateau_ratio_mass", "tol": 0.1},
    ],
)
def test_cli_prediction_check_without_prediction_is_config_error(tmp_path, check):
    cfg = _write_config(tmp_path, {"scenario": "cantor_line", "checks": [check]})
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(cfg)]) == 2
    assert "stage: verdicts" in (out / "FAILED").read_text()


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_threads_flag_overrides_inherited_blas_variables(monkeypatch):
    for var in BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "7")
    monkeypatch.delenv("SPECTRALAB_THREADS", raising=False)
    assert main(["--threads", "2", "list-scenarios"]) == 0
    assert all(os.environ[var] == "2" for var in BLAS_THREAD_VARS)

    monkeypatch.setenv("SPECTRALAB_THREADS", "3")
    assert main(["list-scenarios"]) == 0
    assert all(os.environ[var] == "3" for var in BLAS_THREAD_VARS)


@pytest.mark.parametrize("count", ["0", "-3", "abc"])
def test_thread_count_that_is_no_positive_integer_exits_2(monkeypatch, capsys, count):
    # argument handling only: every call stops before a thread variable is set
    for var in BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "7")
    monkeypatch.delenv("SPECTRALAB_THREADS", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["--threads", count, "list-scenarios"])
    assert exc.value.code == 2

    monkeypatch.setenv("SPECTRALAB_THREADS", count)
    with pytest.raises(SystemExit) as exc:
        main(["list-scenarios"])
    assert exc.value.code == 2
    assert "SPECTRALAB_THREADS" in capsys.readouterr().err
    assert all(os.environ[var] == "7" for var in BLAS_THREAD_VARS)


def test_every_lazy_export_resolves():
    # the package imports its modules on first use, so a name left in the
    # table after its function goes fails only when someone reaches for it
    listed = dir(spectralab)
    for name, module in spectralab._EXPORTS.items():
        assert getattr(spectralab, name) is getattr(getattr(spectralab, module), name)
        assert name in listed


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _density(cfg):
    mu, default = measures.builtin_measure(cfg.measure["name"], cfg.measure.get("params", {}))
    x, y = mu.positions.T
    return x, y, _resolve_density(cfg, mu, default).values


def test_density_expressions_match_numpy():
    x, y, got = _density(ExperimentConfig.from_file(CONFIGS / "circle_coarse_custom.json"))
    assert np.array_equal(got, 1.0 + 0.5 * np.cos(3 * np.arctan2(y, x)))

    # the form of the benchmark's densities, with its literals printed by repr
    a, b, m, c = 1.7352, 0.4109, 3, 2.2617
    expr = f"{a!r} + {b!r} * np.sin({m} * x + {c!r}) * np.cos(y)"
    raw = {**SMALL_CIRCLE, "density": {"kind": "expression", "expr": expr}}
    x, y, got = _density(ExperimentConfig.from_dict(raw))
    assert np.array_equal(got, a + b * np.sin(m * x + c) * np.cos(y))


@pytest.mark.parametrize(
    "expr", ["().__class__.__bases__", "__import__('os').getcwd()", "np.add(x, y, x)"]
)
def test_density_expression_outside_whitelist_is_config_error(tmp_path, expr, capsys):
    raw = {**SMALL_CIRCLE, "density": {"kind": "expression", "expr": expr}}
    path = _write_config(tmp_path, raw)
    assert main(["validate", str(path)]) == 2
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(path)]) == 2
    assert not out.exists()
    assert "density expression may not contain" in capsys.readouterr().err


def _check_config(scenario, check):
    return {"scenario": scenario, "checks": [check]}


MALFORMED = {
    "unknown_kind": _check_config("circle", {"kind": "nope", "tol": 0.1}),
    "missing_tol": _check_config("circle", {"kind": "plateau", "target": 1.0}),
    "missing_target": _check_config("circle", {"kind": "plateau", "tol": 0.1}),
    "missing_variant": _check_config("circle", {"kind": "variant_plateau", "tol": 0.02}),
    "unknown_variant": _check_config("circle", {"kind": "variant_plateau", "variant": "nope", "tol": 0.02}),
    "missing_top": _check_config("circle_fourier", {"kind": "route_match", "tol": 0.1}),
    "route_match_without_compare": _check_config("circle", {"kind": "route_match", "top": 30, "tol": 0.1}),
    "order_ratio_without_order_window": _check_config("circle", {"kind": "order_ratio", "tol": 10.0}),
    "order_norm_constant_without_order_window": _check_config("circle", {"kind": "order_norm_constant"}),
    "order_ratio_minus_sign": _check_config("cantor_line", {"kind": "order_ratio", "sign": "-", "tol": 10.0}),
    "plateau_unknown_sign": _check_config("circle", {"kind": "plateau", "sign": "x", "target": 1.0, "tol": 0.1}),
    "steklov_diagonal_off_steklov": _check_config("circle", {"kind": "steklov_diagonal", "tol": 1e-12}),
    # (2 * 11 + 1)^3 = 12167 modes in R^3 exceed the default budget of 12000
    "fourier_budget_in_3d": {"scenario": "sphere", "operator": {"route": "fourier", "L": 8.0, "K": 11}},
    "kernel_typo": {"scenario": "circle", "operator": {"kernel": "bessel_exact_N2"}},
    "zero_mode_typo": {"scenario": "steklov_lebesgue", "operator": {"zero_mode": "keep"}},
    "diagonal_rule_typo": {"scenario": "circle", "operator": {"diagonal_rule": "none"}},
    # logpotential is no route of the CLI: an unknown route
    "log_potential_diagonal_rule_typo": {"scenario": "circle", "operator": {"route": "logpotential", "diagonal_rule": "none"}},
    "negative_log_coefficient": {"scenario": "circle", "operator": {"log_coefficient": -1}},
    "zero_log_coefficient": {"scenario": "sphere", "operator": {"log_coefficient": 0}},
    "word_cutoff": {"scenario": "circle_fourier", "operator": {"K": "forty"}},
    "fractional_cutoff": {"scenario": "steklov_lebesgue", "operator": {"K": 150.5}},
    "negative_fourier_cutoff": {"scenario": "circle_fourier", "operator": {"K": -1}},
    # dropping the zero mode at K = 0 keeps no mode
    "steklov_cutoff_keeping_no_mode": {"scenario": "steklov_lebesgue", "operator": {"K": 0}},
    "boolean_cutoff": {"scenario": "steklov_lebesgue", "operator": {"K": True}},
    "zero_torus_period": {"scenario": "circle_fourier", "operator": {"L": 0}},
    "nan_torus_period": {"scenario": "circle_fourier", "operator": {"L": float("nan")}},
    "boolean_torus_period": {"scenario": "circle_fourier", "operator": {"L": True}},
    "center_in_3d": {"scenario": "steklov_lebesgue", "operator": {"center": [0, 0, 0]}},
    "word_center": {"scenario": "steklov_lebesgue", "operator": {"center": "ab"}},
    "nan_center": {"scenario": "steklov_lebesgue", "operator": {"center": [float("nan"), 0]}},
    "unknown_measure_parameter": {"scenario": "circle", "measure": {"params": {"atom": 200}}},
    "variant_without_label": {"scenario": "circle", "variants": [{"operator": {"route": "logkernel"}}]},
    "variant_without_operator": {"scenario": "steklov_lebesgue", "variants": [{"label": "shift"}]},
    "operator_key_typo": {"scenario": "circle", "operator": {"kernal": "pure_log"}},
    "budget_on_a_nystrom_route": {"scenario": "circle", "operator": {"budget": 4000}},
    # logpotential is no route of the CLI: an unknown route
    "kernel_on_log_potential": {"scenario": "circle", "operator": {"route": "logpotential", "kernel": "pure_log"}},
    "word_atom_count": {"scenario": "circle", "measure": {"params": {"atoms": "many"}}},
    "fractional_atom_count": {"scenario": "circle", "measure": {"params": {"atoms": 400.5}}},
    "boolean_radius": {"scenario": "circle", "measure": {"params": {"radius": True}}},
    "expression_density_without_expr": {"scenario": "circle", "density": {"kind": "expression"}},
    "file_density_without_path": {"scenario": "circle", "density": {"kind": "file"}},
    "analysis_window_fractions": {"scenario": "circle", "analysis": {"window_fractions": [0.1, 0.3]}},
    "fractional_window": {"scenario": "circle", "analysis": {"window": [100.5, 500]}},
    "word_density_value": {"scenario": "circle", "density": {"kind": "expression", "expr": "abc"}},
    "number_density_expression": {"scenario": "circle", "density": {"kind": "expression", "expr": 3.0}},
    "constant_density_kind": {"scenario": "circle", "density": {"kind": "constant", "value": 3.0}},
    "word_seed": {"scenario": "circle", "seed": "x"},
    # np.random.default_rng takes no negative seed
    "negative_seed": {"scenario": "circle", "seed": -1},
    "zero_top": _check_config("circle_fourier", {"kind": "route_match", "top": 0, "tol": 0.1}),
    "negative_top": _check_config("circle_fourier", {"kind": "route_match", "top": -1, "tol": 0.1}),
    # no checks: the circle's own check names the variant pure_log
    "duplicate_variant_labels": {"scenario": "circle", "checks": [], "variants": [
        {"label": "a", "operator": {"route": "logkernel"}},
        {"label": "a", "operator": {"route": "logkernel", "kernel": "pure_log"}},
    ]},
    "list_variant_label": {"scenario": "circle", "checks": [], "variants": [{"label": ["a"], "operator": {"route": "logkernel"}}]},
    "empty_variant_label": {"scenario": "circle", "checks": [], "variants": [{"label": "", "operator": {"route": "logkernel"}}]},
    "word_tol": _check_config("circle", {"kind": "dixmier_plateau", "tol": "x"}),
    "zero_atoms": {"scenario": "circle", "measure": {"params": {"atoms": 0}}},
    "negative_radius": {"scenario": "circle", "measure": {"params": {"radius": -1.0}}},
    "negative_depth": {"scenario": "cantor_line", "measure": {"params": {"depth": -1}}},
    "ifs_depth_past_atom_budget": {"scenario": "cantor_line", "measure": {"params": {"depth": 30}}},
    "atom_count_past_atom_budget": {"scenario": "circle", "measure": {"params": {"atoms": 1_000_000_000}}},
    "diagonal_rule_on_a_nystrom_route": {"scenario": "circle", "operator": {"diagonal_rule": "cell_average"}},
    "budget_on_a_toeplitz_route": {"scenario": "steklov_lebesgue", "operator": {"budget": 40}},
    "two_output_ufunc_divmod": {"scenario": "circle", "density": {"kind": "expression", "expr": "np.divmod(x, 1.0)"}},
    "two_output_ufunc_frexp": {"scenario": "circle", "density": {"kind": "expression", "expr": "np.frexp(x)"}},
    "two_output_ufunc_modf": {"scenario": "circle", "density": {"kind": "expression", "expr": "np.modf(x)"}},
    "unfinished_expression": {"scenario": "circle", "density": {"kind": "expression", "expr": "x +"}},
    "ufunc_of_the_wrong_type": {"scenario": "circle", "density": {"kind": "expression", "expr": "np.bitwise_and(x, 1)"}},
    "coordinate_past_the_plane": {"scenario": "circle", "density": {"kind": "expression", "expr": "1 + z"}},
    "coordinate_past_the_sphere_space": {"scenario": "sphere", "density": {"kind": "expression", "expr": "1 + x3"}},
    "density_value_typo": {"scenario": "circle", "density": {"kind": "expression", "exrp": "3.0"}},
    "check_sign_typo": _check_config("circle", {"kind": "plateau", "sgn": "-", "target": 1.0, "tol": 0.1}),
    "top_level_key_typo": {"scenario": "circle", "analyis": {"window": [10, 50]}},
    "measure_key_typo": {"scenario": "circle", "measure": {"parms": {"atoms": 200}}},
    "output_key_typo": {"scenario": "circle", "output": {"sgv": True}},
    "output_not_an_object": {"scenario": "circle", "output": True},
    "measure_not_an_object": {"scenario": "circle", "measure": ["circle"]},
    "operator_not_an_object": {"scenario": "circle", "operator": "logkernel"},
    "check_not_an_object": _check_config("circle", "plateau"),
    "checks_not_a_list": {"scenario": "circle", "checks": 3},
    "variants_not_a_list": {"scenario": "circle", "variants": 3},
    "svg_not_a_boolean": {"scenario": "circle", "output": {"svg": "no"}},
    # the order of a log-kernel matrix is the atom count, which MATRIX_BUDGET
    # bounds as it bounds the modes: primary, compare, variant, IFS depth
    "log_kernel_past_matrix_budget": {"scenario": "circle", "measure": {"params": {"atoms": 200_000}}},
    "log_kernel_compare_past_matrix_budget": {"scenario": "circle_fourier", "measure": {"params": {"atoms": 20_000}}},
    "log_kernel_variant_past_matrix_budget": {"scenario": "steklov_lebesgue", "measure": {"params": {"atoms": 12_001}},
                                              "variants": [{"label": "log", "operator": {"route": "logkernel"}}], "checks": []},
    "log_kernel_ifs_past_matrix_budget": {"scenario": "cantor_line", "measure": {"params": {"depth": 14}}},
    # lengths past measures.PARAM_SCALE, whose weights, coordinates or pair
    # distances would leave the normal floats
    "circle_radius_1e308": {"scenario": "circle", "measure": {"params": {"atoms": 200, "radius": 1e308}}, "variants": [], "checks": []},
    "sphere_radius_1e200": {"scenario": "sphere", "measure": {"params": {"atoms": 200, "radius": 1e200}}, "checks": []},
    "square_side_1e200": {"scenario": "circle_plus_square", "measure": {"params": {"atoms": 200, "cells": 4, "side": 1e200}}, "checks": []},
    "circle_radius_1e-300": {"scenario": "circle", "measure": {"params": {"atoms": 200, "radius": 1e-300}}, "variants": [], "checks": []},
    "circle_gap_1e308": {"scenario": "two_circles", "measure": {"params": {"atoms": 200, "gap": 1e308}}, "checks": []},
}


@pytest.mark.parametrize("raw", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_rejected_before_any_output(tmp_path, raw, capsys):
    path = _write_config(tmp_path, raw)
    assert main(["validate", str(path)]) == 2
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(path)]) == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


def test_density_expression_is_validated_in_the_measure_dimension():
    # z and x2 exist in R^3 only (see coordinate_past_the_plane above)
    cfg = ExperimentConfig.from_dict({"scenario": "sphere", "density": {"kind": "expression", "expr": "1 + z * x2"}})
    assert cfg.density["expr"] == "1 + z * x2"


@pytest.mark.parametrize(
    "density", [{"kind": "expression", "expr": "0"}, {"kind": "expression", "expr": "0 * x"}], ids=["constant", "expression"]
)
def test_density_zero_on_every_atom_is_config_error(tmp_path, density):
    raw = {**SMALL_CIRCLE, "density": density, "checks": []}
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(_write_config(tmp_path, raw))]) == 2
    assert "stage: measure" in (out / "FAILED").read_text()
    assert "density is zero on every atom" in (out / "FAILED").read_text()


def test_operator_override_of_another_route_replaces_the_scenario_operator():
    replaced = ExperimentConfig.from_dict({"scenario": "circle", "operator": {"route": "fourier", "L": 8.0, "K": 6}})
    assert replaced.operator == {"route": "fourier", "L": 8.0, "K": 6}
    merged = ExperimentConfig.from_dict({"scenario": "circle", "operator": {"kernel": "pure_log"}})
    assert merged.operator == {"route": "logkernel", "kernel": "pure_log"}


def test_every_scenario_and_config_validates():
    from spectralab.cli.scenarios import SCENARIOS

    for name in SCENARIOS:
        ExperimentConfig.from_dict({"scenario": name})
    for path in sorted(CONFIGS.glob("*.json")):
        assert main(["validate", str(path)]) == 0, path


@pytest.mark.parametrize(
    "operator", [{"route": "steklov", "K": 16, "zero_mode": "drop"}, {"route": "fourier", "L": 8.0, "K": 6}]
)
def test_80k_atom_cloud_configs_validate(operator):
    scenario = "steklov_lebesgue" if operator["route"] == "steklov" else "circle_fourier"
    ExperimentConfig.from_dict({
        "scenario": scenario,
        "measure": {"params": {"atoms": 80_000, "radius": 1.1, "cx": 0.2, "cy": -0.3}},
        "density": {"kind": "expression", "expr": "1 + 0.5 * np.sin(x)"},
        "operator": operator,
        "compare": None,
        "variants": [],
        "checks": [],
    })


def test_density_file_of_wrong_length_is_config_error(tmp_path):
    values = tmp_path / "v.txt"
    values.write_text("1.0\n2.0\n3.0\n")
    raw = {**SMALL_CIRCLE, "density": {"kind": "file", "path": str(values)}}
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(_write_config(tmp_path, raw))]) == 2
    assert "3 values for 400 atoms" in (out / "FAILED").read_text()


@pytest.mark.parametrize("kind", ["expression", "file"])
def test_density_not_finite_on_some_atom_is_config_error(tmp_path, kind):
    if kind == "expression":
        density = {"kind": "expression", "expr": "np.log(x)"}  # NaN or -inf where x <= 0
        count = r"\d+"
    else:
        values = np.ones(400)
        values[[5, 17]] = np.nan
        path = tmp_path / "v.txt"
        np.savetxt(path, values)
        density, count = {"kind": "file", "path": str(path)}, "2"
    raw = {**SMALL_CIRCLE, "density": density, "checks": []}
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(_write_config(tmp_path, raw))]) == 2
    failed = (out / "FAILED").read_text()
    assert "stage: measure" in failed
    assert re.search(rf"the {kind} density is not finite on {count} of 400 atoms", failed)


@pytest.mark.parametrize("expr, error", [
    ("1 / 0 + x", "division by zero"),
    ("x + 10.0 ** 400", "out of range"),
    # an int power is taken in float: it overflows at once instead of
    # building an integer of every digit
    ("x + 0 * 10 ** 400", "out of range"),
    ("x + 0 * 10 ** 10 ** 8", "out of range"),
])
def test_density_expression_scalar_arithmetic_error_is_config_error(tmp_path, expr, error, capsys):
    raw = {**SMALL_CIRCLE, "density": {"kind": "expression", "expr": expr}, "checks": []}
    assert main(["validate", str(_write_config(tmp_path, raw))]) == 2
    assert error in capsys.readouterr().err


def test_missing_density_file_is_config_error(tmp_path):
    missing = tmp_path / "no_such_values.txt"
    raw = {**SMALL_CIRCLE, "density": {"kind": "file", "path": str(missing)}}
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(_write_config(tmp_path, raw))]) == 2
    assert f"density file not found: {missing}" in (out / "FAILED").read_text()


@pytest.mark.parametrize("content, message", [
    ("abc", "cannot be read"),
    (None, "cannot be read"),  # a directory
    ("", "holds 0 values for 400 atoms"),  # without numpy's no-data warning
    ("# only a comment\n", "holds 0 values for 400 atoms"),
    # 400 values, but not one per line
    pytest.param("1.0 2.0\n" * 200, "has 2 columns", id="two_columns"),
    pytest.param(" ".join(["1.0"] * 400), "has 400 columns", id="one_row"),
])
@pytest.mark.filterwarnings("error")
def test_unreadable_density_file_is_config_error(tmp_path, content, message):
    path = tmp_path / "values"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    raw = {**SMALL_CIRCLE, "density": {"kind": "file", "path": str(path)}}
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(_write_config(tmp_path, raw))]) == 2
    failed = (out / "FAILED").read_text()
    assert "stage: measure" in failed and message in failed


def test_density_file_path_must_be_a_string(tmp_path, capsys):
    raw = {**SMALL_CIRCLE, "density": {"kind": "file", "path": 0}}
    assert main(["validate", str(_write_config(tmp_path, raw))]) == 2
    assert "path must be a string" in capsys.readouterr().err


def test_each_operator_is_freed_before_the_next_is_built(tmp_path, monkeypatch):
    # the circle's pure_log variant is assembled after the primary operator is garbage
    assemble, built, alive = operators.assemble_log_kernel, [], []

    def tracked(*args, **kwargs):
        alive.append([ref() is not None for ref in built])
        op = assemble(*args, **kwargs)
        built.append(weakref.ref(op))
        return op

    monkeypatch.setattr(operators, "assemble_log_kernel", tracked)
    raw = {"scenario": "circle", "measure": {"params": {"atoms": 200}}, "checks": []}
    report = run_experiment(ExperimentConfig.from_dict(raw), tmp_path / "out")
    assert alive == [[], [False]]
    assert set(report.spectral_summary["variants"]) == {"pure_log"}


def test_steklov_budget_counts_the_kept_modes(tmp_path, monkeypatch):
    # at K = 6000, dropping the zero mode keeps 2K = 12000 modes, within the
    # budget of 12000; the shift policy keeps 2K + 1 = 12001
    assemble, cutoffs = operators.assemble_steklov_circle, []

    def tracked(*args, **kwargs):
        cutoffs.append(kwargs["K"])
        return assemble(*args, **kwargs)

    monkeypatch.setattr(operators, "assemble_steklov_circle", tracked)
    raw = {
        "scenario": "steklov_lebesgue",
        "operator": {"K": 6000, "zero_mode": "drop"},
        "variants": [],
        "checks": [{"name": "diagonal_exact", "kind": "steklov_diagonal", "tol": 1e-12}],
    }
    assert operators.MATRIX_BUDGET == 12_000
    assert main(["validate", str(_write_config(tmp_path, raw, "drop.json"))]) == 0
    shift = {**raw, "operator": {"K": 6000, "zero_mode": "shift"}}
    assert main(["validate", str(_write_config(tmp_path, shift, "shift.json"))]) == 2
    assert cutoffs == []  # validation assembles nothing

    path = _write_config(tmp_path, {**raw, "operator": {"K": 20}})
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(path)]) == 0
    assert cutoffs == [20]
    assert json.loads((out / "summary.json").read_text())["spectral"]["primary"]["size"] == 40


def test_cli_clipped_weyl_window_is_recorded(tmp_path):
    # 400 atoms give 400 eigenvalues: the circle's window [100, 500] is clipped
    raw = {"scenario": "circle", "measure": {"params": {"atoms": 400}}, "variants": [],
           "checks": [{"name": "weyl_plateau", "kind": "plateau", "sign": "+", "target": "predicted", "tol": 1.0}]}
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(_write_config(tmp_path, raw))]) == 0
    summary = json.loads((out / "summary.json").read_text())
    plateau = summary["spectral"]["primary"]["plateau_plus"]
    assert plateau["window"] == [100, 400] and plateau["requested"] == [100, 500]
    (verdict,) = summary["verdicts"]
    assert verdict["window"] == [100, 400] and verdict["requested"] == [100, 500]


# Windows the spectrum cannot fill: 300 atoms give at most 300 eigenvalues of
# each sign, and the depth-6 Cantor measure has 64 atoms.
UNFILLABLE = {
    "weyl_plus": (
        {"scenario": "segment", "measure": {"params": {"atoms": 300}}, "analysis": {"window": [400, 500]}},
        "plateau_plus",
        {"name": "weyl_plateau", "kind": "plateau", "sign": "+", "target": "predicted", "tol": 1.0},
    ),
    "weyl_minus": (
        {"scenario": "half_signed_circle", "measure": {"params": {"atoms": 300}}, "analysis": {"window": [400, 500]}},
        "plateau_minus",
        {"name": "plateau_minus", "kind": "plateau", "sign": "-", "target": "predicted", "tol": 1.0},
    ),
    "order": (
        {"scenario": "cantor_line", "measure": {"params": {"depth": 6}}, "analysis": {"order_window": [100, 200]}},
        "order_bounds",
        {"name": "order_sharpness", "kind": "order_ratio", "sign": "+", "tol": 10.0},
    ),
}


@pytest.mark.parametrize("raw, key, check", UNFILLABLE.values(), ids=UNFILLABLE.keys())
def test_unfillable_window_reads_as_null(tmp_path, capsys, raw, key, check):
    unread = _write_config(tmp_path, {**raw, "checks": []}, "unread.json")
    assert main(["--out", str(tmp_path / "unread"), "run", str(unread)]) == 0
    summary = json.loads((tmp_path / "unread" / "summary.json").read_text())
    assert summary["spectral"]["primary"][key] is None

    read = _write_config(tmp_path, {**raw, "checks": [check]}, "read.json")
    assert main(["--out", str(tmp_path / "read"), "run", str(read)]) == 2
    assert (tmp_path / "read" / "FAILED").read_text().startswith("stage: verdicts")
    ((name, window),) = raw["analysis"].items()
    assert f"too few for the analysis {name} {window}" in capsys.readouterr().err
