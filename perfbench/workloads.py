"""The benchmark's workloads: cases drawn from the seed, the spectralab calls
each case makes, and the independent checks on what it returns.

A case's `run` holds only program calls and is what the benchmark times.
Its `check` reads the outputs afterwards, untimed, and raises
checks.CheckError on a disagreement.  Seeds move radii, centres and density
coefficients, never atom counts or cutoffs, so every seed costs the same.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from spectralab import measures, operators, orlicz, spectral
from spectralab.cli import experiment

WORKLOADS = ("nystrom", "toeplitz", "cloud")

# Sizes of every case, fixed across seeds (the README tabulates them).
NYSTROM_ATOMS = {"circle": 1600, "half_signed_circle": 1600, "sphere": 2000}
FOURIER_K = 16  # (2K + 1)^2 = 1089 complex modes
FOURIER_ATOMS = 1600  # the log-kernel comparison route solves on these
STEKLOV_K = 400  # 800 modes (drop) and 801 (shift)
STEKLOV_ATOMS = 900  # more than 2K, so equally spaced atoms alias no mode pair
CANTOR_DEPTH = 11  # 2048 atoms
CANTOR_K = 400
CLOUD_ATOMS = 80_000
CLOUD_STEKLOV_K = 16  # 32 modes
CLOUD_FOURIER_K = 6  # 169 modes
AHLFORS_CENTRES = 200
TOP = 40  # eigenvalues compared against closed forms


@dataclass
class Case:
    name: str
    run: Callable[[Path], dict]
    check: Callable[[dict], None]
    params: dict = field(default_factory=dict)


def _draw(rng, lo, hi, digits=4) -> float:
    return round(float(rng.uniform(lo, hi)), digits)


def _density_expression(rng) -> tuple[str, Callable]:
    """A positive, non-constant density V(x, y) as a config expression and as
    the benchmark's own function computing the same floating-point ops."""
    a, b = _draw(rng, 1.5, 2.0), _draw(rng, 0.3, 0.8)
    m, c = int(rng.integers(2, 5)), _draw(rng, 0.0, math.pi)
    expr = f"{a!r} + {b!r} * np.sin({m} * x + {c!r}) * np.cos(y)"
    return expr, lambda x, y: a + b * np.sin(m * x + c) * np.cos(y)


def _measure_dict(mu, v) -> dict:
    return {
        "positions": mu.positions,
        "weights": mu.weights,
        "density": None if v is None else v.values,
        "components": [(c.stop - c.start, c.nominal_dim) for c in mu.components],
        "total_mass": mu.total_mass,
    }


def _reference_measure(name, params, density_fn=None) -> dict:
    """The measure the case wrote, rebuilt for the round-trip comparison."""
    mu, v = measures.builtin_measure(name, params)
    ref = _measure_dict(mu, v)
    if density_fn is not None:
        ref["density"] = np.asarray(density_fn(mu.positions[:, 0], mu.positions[:, 1]), dtype=float)
    return ref


def _common_checks(label, loaded, norms, ref) -> None:
    """Round trip of measure.txt and the Luxemburg modular at both norms."""
    checks.check_round_trip(f"{label} measure.txt", loaded, ref)
    for key, young in (("luxemburg_psi", checks.psi), ("luxemburg_phi", checks.phi)):
        checks.check_luxemburg(f"{label} {key}", norms[key], ref["weights"], ref["density"], young)


def _pipeline_run(cfg, extra=None):
    def run(out: Path) -> dict:
        report = experiment.run_experiment(cfg, out)
        mu, v = measures.load_measure_text(out / "measure.txt")
        result = {"report": report, "loaded": _measure_dict(mu, v), "out": out}
        if extra is not None:
            result.update(extra(mu, v))
        return result

    return run


def _pipeline_case(name, raw, verify, density_fn=None, extra=None) -> Case:
    """A run_experiment case; `verify(out, summary, ref)` adds its own checks."""
    cfg = experiment.ExperimentConfig.from_dict(raw)
    measure = cfg.measure

    def check(out):
        with open(out["out"] / "summary.json") as f:
            summary = json.load(f)
        ref = _reference_measure(measure["name"], measure.get("params", {}), density_fn)
        _common_checks(name, out["loaded"], summary["orlicz"], ref)
        verify(out, summary, ref)

    return Case(name, _pipeline_run(cfg, extra), check, {"config": cfg.to_dict()})


def _signed_mass(ref) -> float:
    return float(np.dot(ref["weights"], ref["density"]))


# -- nystrom -----------------------------------------------------------------


def _nystrom(rng) -> list[Case]:
    r = _draw(rng, 0.8, 1.2)
    cx, cy = _draw(rng, -0.5, 0.5), _draw(rng, -0.5, 0.5)

    def circle(out, summary, ref):
        checks.check_top_spectrum("circle bessel_exact_N2", out["report"].eigen_primary.positive,
                                  checks.circle_bessel_spectrum(r), TOP, 5e-3)
        checks.check_top_spectrum("circle pure_log", summary["spectral"]["variants"]["pure_log"]["top_positive"],
                                  checks.circle_log_spectrum(r), TOP, 5e-3)

    rh = _draw(rng, 0.8, 1.2)

    def half_signed(out, summary, ref):
        prim = out["report"].eigen_primary
        checks.check_symmetric_spectrum("half_signed_circle", prim.positive, prim.negative)

    rs = _draw(rng, 0.9, 1.1)

    def sphere(out, summary, ref):
        pos = out["report"].eigen_primary.positive
        # l = 1..3: fifteen eigenvalues.
        checks.check_top_spectrum("sphere l<=3", pos, checks.sphere_log_spectrum(rs), 15, 1e-2)
        # The declared tolerance of the sphere scenario; its diagonal rule
        # biases the plateau by 14.84% at 2000 atoms (see the package README).
        checks.check_plateau("sphere plateau", pos, rs**2 / math.pi, 0.15)

    return [
        _pipeline_case("circle", {
            "scenario": "circle",
            "measure": {"params": {"atoms": NYSTROM_ATOMS["circle"], "radius": r, "cx": cx, "cy": cy}},
        }, circle),
        _pipeline_case("half_signed_circle", {
            "scenario": "half_signed_circle",
            "measure": {"params": {"atoms": NYSTROM_ATOMS["half_signed_circle"], "radius": rh}},
        }, half_signed),
        _pipeline_case("sphere", {
            "scenario": "sphere",
            "measure": {"params": {"atoms": NYSTROM_ATOMS["sphere"], "radius": rs}},
        }, sphere),
    ]


# -- toeplitz ----------------------------------------------------------------


def _cantor_case(rng) -> Case:
    """steklov_cantor through the library calls the pipeline would make; the
    pipeline itself stops at the trace prediction for fractal dimensions."""
    radius = _draw(rng, 0.8, 1.2)
    params = {"depth": CANTOR_DEPTH, "radius": radius}

    def run(out: Path) -> dict:
        mu, v = measures.builtin_measure("steklov_cantor", params)
        measures.save_measure_text(mu, out / "measure.txt", v)
        norms = {
            "luxemburg_psi": orlicz.luxemburg_norm(v, mu, "psi").value,
            "luxemburg_phi": orlicz.luxemburg_norm(v, mu, "phi").value,
            "averaged": orlicz.averaged_norm(v, mu),
        }
        reports = {}
        for policy in ("drop", "shift"):
            op = operators.assemble_steklov_circle(mu, v, K=CANTOR_K, zero_mode=policy)
            reports[policy] = spectral.eigen_spectrum(op)
            spectral.write_spectrum_csv(reports[policy], out / f"spectrum_{policy}.csv")
        bounds = spectral.order_bounds(reports["drop"], "+", window=(20, 300))
        dixmier = spectral.dixmier_sequence(reports["drop"]).final
        loaded = measures.load_measure_text(out / "measure.txt")
        return {"reports": reports, "orlicz": norms, "bounds": bounds, "dixmier": dixmier,
                "loaded": _measure_dict(*loaded)}

    def check(out):
        ref = _reference_measure("steklov_cantor", params)
        _common_checks("steklov_cantor", out["loaded"], out["orlicz"], ref)
        for policy, rep in out["reports"].items():
            label = f"steklov_cantor {policy}"
            if len(rep.negative):
                raise checks.CheckError(f"{label}: {len(rep.negative)} negative eigenvalues of a PSD form")
            checks.check_trace(label, rep.positive, rep.negative,
                               checks.steklov_trace(CANTOR_K, policy, _signed_mass(ref)))

    return Case("steklov_cantor", run, check, {"measure": params, "K": CANTOR_K})


def _toeplitz(rng) -> list[Case]:
    r = _draw(rng, 0.8, 1.2)
    cx, cy = _draw(rng, -0.5, 0.5), _draw(rng, -0.5, 0.5)

    def fourier(out, summary, ref):
        prim = out["report"].eigen_primary
        checks.check_trace("circle_fourier", prim.positive, prim.negative,
                           checks.fourier_trace(8.0, FOURIER_K, 2, _signed_mass(ref)))
        checks.check_top_spectrum("circle_fourier logkernel compare", out["report"].eigen_compare.positive,
                                  checks.circle_bessel_spectrum(r), TOP, 5e-3)

    rl = _draw(rng, 0.8, 1.2)
    sx, sy = _draw(rng, -0.5, 0.5), _draw(rng, -0.5, 0.5)

    def steklov(out, summary, ref):
        mass = _signed_mass(ref)
        prim = out["report"].eigen_primary
        checks.check_steklov_diagonal("steklov_lebesgue drop", prim.positive, STEKLOV_K, "drop", mass)
        checks.check_steklov_diagonal("steklov_lebesgue shift",
                                      summary["spectral"]["variants"]["shift"]["top_positive"],
                                      STEKLOV_K, "shift", mass, top=TOP)
        checks.check_trace("steklov_lebesgue", prim.positive, prim.negative,
                           checks.steklov_trace(STEKLOV_K, "drop", mass))

    steklov_op = {"route": "steklov", "K": STEKLOV_K, "center": [sx, sy]}
    return [
        _pipeline_case("circle_fourier", {
            "scenario": "circle_fourier",
            "measure": {"params": {"atoms": FOURIER_ATOMS, "radius": r, "cx": cx, "cy": cy}},
            "operator": {"K": FOURIER_K},
        }, fourier),
        _pipeline_case("steklov_lebesgue", {
            "scenario": "steklov_lebesgue",
            "measure": {"params": {"atoms": STEKLOV_ATOMS, "radius": rl, "cx": sx, "cy": sy}},
            "operator": dict(steklov_op, zero_mode="drop"),
            "variants": [{"label": "shift", "operator": dict(steklov_op, zero_mode="shift")}],
        }, steklov),
        _cantor_case(rng),
    ]


# -- cloud -------------------------------------------------------------------


def _cloud_case(name, rng, operator, scenario) -> Case:
    r = _draw(rng, 0.8, 1.2)
    cx, cy = _draw(rng, -0.5, 0.5), _draw(rng, -0.5, 0.5)
    expr, density_fn = _density_expression(rng)
    radii = r * np.geomspace(0.01, 0.5, 6)
    if operator["route"] == "steklov":
        operator = dict(operator, center=[cx, cy])

    def ahlfors(mu, v):
        band = measures.ahlfors_constants(mu, s=1.0, radii=radii, sample_count=AHLFORS_CENTRES, seed=0)
        return {"ahlfors": band}

    def verify(out, summary, ref):
        prim = out["report"].eigen_primary
        mass = _signed_mass(ref)
        if operator["route"] == "steklov":
            expected = checks.steklov_trace(operator["K"], "drop", mass)
        else:
            expected = checks.fourier_trace(operator["L"], operator["K"], 2, mass)
        checks.check_trace(name, prim.positive, prim.negative, expected)
        band = out["ahlfors"]
        checks.check_circle_ahlfors(f"{name} ahlfors", band.c_lower, band.c_upper, r, CLOUD_ATOMS, radii)

    return _pipeline_case(name, {
        "scenario": scenario,
        "measure": {"params": {"atoms": CLOUD_ATOMS, "radius": r, "cx": cx, "cy": cy}},
        "density": {"kind": "expression", "expr": expr},
        "operator": operator,
        "compare": None,
        "variants": [],
        "checks": [],
    }, verify, density_fn, ahlfors)


def _cloud(rng) -> list[Case]:
    return [
        _cloud_case("cloud_steklov", rng, {"route": "steklov", "K": CLOUD_STEKLOV_K, "zero_mode": "drop"},
                    "steklov_lebesgue"),
        _cloud_case("cloud_fourier", rng, {"route": "fourier", "L": 8.0, "K": CLOUD_FOURIER_K},
                    "circle_fourier"),
    ]


def build_cases(workload: str, seed: int) -> list[Case]:
    """The cases of one workload; the same seed gives the same inputs."""
    rng = np.random.default_rng(seed)
    return {"nystrom": _nystrom, "toeplitz": _toeplitz, "cloud": _cloud}[workload](rng)
