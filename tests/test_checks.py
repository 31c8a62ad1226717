"""Every check kind through the pipeline, against verdicts recomputed here
from the returned spectra with the library's spectral functionals."""

import math

import numpy as np
import pytest

from spectralab import measures, orlicz, spectral
from spectralab.cli import experiment
from spectralab.cli.experiment import ExperimentConfig, run_experiment
from spectralab.coeffs import weyl_coefficient

KINDS = {
    "plateau",
    "plateau_ratio_mass",
    "variant_plateau",
    "dixmier_plateau",
    "dixmier_signed",
    "order_ratio",
    "order_norm_constant",
    "route_match",
    "steklov_diagonal",
}

STEKLOV_CANTOR_K300 = {
    "scenario": "steklov_cantor",
    "operator": {"K": 300},
    "variants": [{"label": "shift", "operator": {"route": "steklov", "K": 300, "zero_mode": "shift"}}],
    "analysis": {"order_window": [20, 60]},
}

# Reduced sizes of the scenarios; together they use every check kind.
REDUCED = {
    "circle": {"scenario": "circle", "measure": {"params": {"atoms": 400}}, "analysis": {"window": [20, 100]}},
    "cantor_line": {"scenario": "cantor_line"},
    # the norm bound at a tenth of the norm is below sup k lambda_k
    "cantor_line_tight_factor": {
        "scenario": "cantor_line",
        "checks": [{"name": "norm_bound_constant", "kind": "order_norm_constant", "factor": 0.1}],
    },
    "steklov_cantor": STEKLOV_CANTOR_K300,
    # the spectrum cannot fill [20, 300]: both order checks record the clip
    "steklov_cantor_clipped": {
        **STEKLOV_CANTOR_K300,
        "analysis": {"order_window": [20, 300]},
        "checks": [
            {"name": "order_sharpness", "kind": "order_ratio", "sign": "+", "tol": 10.0},
            {"name": "norm_bound_constant", "kind": "order_norm_constant", "factor": 5.0},
        ],
    },
    "half_signed_circle": {"scenario": "half_signed_circle", "measure": {"params": {"atoms": 600}}},
    # V = -1: no positive eigenvalues, and the signed Dixmier sum is negative
    "negative_circle": {
        "scenario": "half_signed_circle",
        "measure": {"params": {"atoms": 400}},
        "density": {"kind": "constant", "value": -1.0},
        "checks": [{"name": "signed_dixmier", "kind": "dixmier_signed", "target": -0.5, "tol": 1.0}],
    },
    "steklov_lebesgue": {"scenario": "steklov_lebesgue"},
    "circle_fourier": {
        "scenario": "circle_fourier",
        "measure": {"params": {"atoms": 400}},
        "operator": {"K": 10},
    },
}

FUNCTIONALS = ("weyl_plateau", "dixmier_sequence", "order_bounds", "resolve_window", "spectra_match")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Run each reduced config once, recording which spectral functionals
    are called while the verdicts are evaluated."""
    calls = []
    grading = [False]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if grading[0]:
                calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    evaluate = experiment._evaluate_checks

    def evaluate_counted(*args, **kwargs):
        grading[0] = True
        try:
            return evaluate(*args, **kwargs)
        finally:
            grading[0] = False

    with pytest.MonkeyPatch.context() as mp:
        for name in FUNCTIONALS:
            mp.setattr(spectral, name, counted(name, getattr(spectral, name)))
        from_values = counted("DixmierEstimate.from_values", spectral.DixmierEstimate.from_values)
        mp.setattr(spectral.DixmierEstimate, "from_values", staticmethod(from_values))
        mp.setattr(experiment, "_evaluate_checks", evaluate_counted)
        reports = {
            name: run_experiment(ExperimentConfig.from_dict(raw), tmp_path_factory.mktemp(name))
            for name, raw in REDUCED.items()
        }
    return reports, calls


def _oracle(check, report) -> dict:
    """The verdict of `check`, recomputed from the report's spectra."""
    cfg, primary = report.config, report.eigen_primary
    mu, v = measures.builtin_measure(cfg.measure["name"], cfg.measure.get("params", {}))
    v = experiment._resolve_density(cfg, mu, v)
    window = cfg.analysis.get("window")
    kind, tol = check["kind"], check.get("tol")
    entry = {"name": check.get("name", kind), "kind": kind}

    def plateau(rep, sign="+"):
        return spectral.weyl_plateau(rep, sign=sign, window=window)

    def graded(observed, expected):
        rel = abs(observed / expected - 1.0)
        return {"observed": observed, "expected": expected, "rel_error": rel, "tol": tol, "pass": rel <= tol}

    def order_window(ow):
        lo, hi = spectral.resolve_window(len(primary.positive), tuple(ow))
        return {"window": [lo, hi]} if [lo, hi] == list(ow) else {"window": [lo, hi], "requested": list(ow)}

    if kind == "plateau":
        sign = check.get("sign", "+")
        fit = plateau(primary, sign)
        target = check["target"]
        if target == "predicted":
            target = report.prediction["calibrated"]["a_plus" if sign == "+" else "a_minus"]
        entry.update(graded(fit.plateau, target), window=list(fit.window), dispersion=fit.dispersion)
    elif kind == "plateau_ratio_mass":
        d = int(round(mu.components[0].nominal_dim))
        z_cal = weyl_coefficient(d, mu.ambient_dim, "calibrated")
        z_printed = weyl_coefficient(d, mu.ambient_dim, "printed")
        ratio = plateau(primary).plateau / mu.total_mass
        rel_printed = abs(ratio / z_printed - 1.0)
        entry.update(graded(ratio, z_cal), rejected=z_printed, rel_error_printed=rel_printed)
        entry["pass"] = entry["pass"] and rel_printed > tol
    elif kind == "variant_plateau":
        (var,) = [var for var in cfg.variants if var["label"] == check["variant"]]
        rep = spectral.eigen_spectrum(experiment._assembly(var["operator"], mu.ambient_dim)(mu, v))
        entry.update(graded(plateau(rep).plateau, plateau(primary).plateau))
    elif kind == "dixmier_plateau":
        entry.update(graded(spectral.dixmier_sequence(primary.positive).final, plateau(primary).plateau))
    elif kind == "dixmier_signed":
        dix, target = spectral.dixmier_sequence(primary).final, check.get("target", 0.0)
        err = abs(dix - target)
        entry.update(observed=dix, expected=target, abs_error=err, tol=tol, **{"pass": err <= tol})
    elif kind == "order_ratio":
        ow = cfg.analysis["order_window"]
        bounds = spectral.order_bounds(primary, "+", window=tuple(ow))
        lo, hi = bounds.inf, bounds.sup
        entry.update(observed=hi / lo, inf=lo, sup=hi, tol=tol, **order_window(ow))
        entry["pass"] = hi / lo <= tol
    elif kind == "order_norm_constant":
        ow = cfg.analysis["order_window"]
        hi = spectral.order_bounds(primary, "+", window=tuple(ow)).sup
        av = orlicz.averaged_norm(v, mu)
        factor = check.get("factor", 5.0)
        bound = factor * av
        entry.update(sup=hi, averaged_norm=av, fitted_constant=hi / av, bound=bound, factor=factor)
        clip = order_window(ow)
        if "requested" in clip:
            entry.update(clip)
        entry["pass"] = hi <= bound
    elif kind == "route_match":
        match = spectral.spectra_match(primary, report.eigen_compare, top=check["top"], rel_tol=tol)
        deviations = [float(x) for x in match.deviations_positive]
        entry.update(observed=match.worst, top=check["top"], tol=tol, deviations=deviations)
        entry["pass"] = match.matched
    elif kind == "steklov_diagonal":
        K = int(cfg.operator["K"])
        ks = np.concatenate([np.arange(-K, 0), np.arange(1, K + 1)])
        expected = np.sort(1.0 / np.abs(ks) * mu.total_mass / (2 * math.pi))[::-1]
        m = min(len(expected), len(primary.positive))
        dev = float(np.abs(expected[:m] - primary.positive[:m]).max())
        entry.update(observed=dev, compared=m, tol=tol, **{"pass": m == len(expected) and dev <= tol})
    return entry


@pytest.mark.parametrize("name", REDUCED)
def test_verdicts_match_oracle(runs, name):
    reports, _ = runs
    report = reports[name]
    assert [v["kind"] for v in report.verdicts] == [c["kind"] for c in report.config.checks]
    for verdict, check in zip(report.verdicts, report.config.checks):
        assert verdict == _oracle(check, report), check


def test_order_norm_constant_can_fail(runs):
    reports, _ = runs
    passing = reports["cantor_line"].verdicts[1]
    (failing,) = reports["cantor_line_tight_factor"].verdicts
    assert passing["pass"] and passing["bound"] == pytest.approx(5.7310, abs=1e-4)
    assert not failing["pass"]
    assert failing["bound"] == pytest.approx(0.1146, abs=1e-4)
    assert failing["sup"] == pytest.approx(0.3287, abs=1e-4)


def test_verdicts_read_the_spectral_summary(runs):
    reports, calls = runs
    assert {v["kind"] for r in reports.values() for v in r.verdicts} == KINDS
    # route_match compares two spectra elementwise; every other number a
    # check reads was computed once, by the spectral summary
    assert calls and set(calls) == {"spectra_match"}
    negative = reports["negative_circle"]
    assert negative.spectral_summary["primary"]["n_positive"] == 0
    assert negative.verdicts[0]["observed"] == negative.spectral_summary["primary"]["dixmier_final_signed"] < 0
