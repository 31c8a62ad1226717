"""Builtin experiment scenarios.

Each scenario bundles a catalog measure, an operator route, an analysis
window, and the checks its report is verified against.  `law` states the
asymptotic fact the experiment probes; `expected_verdict` records whether the
checks are expected to pass at the declared resolutions ("fail" documents a
known finite-size obstruction, kept for honesty rather than hidden).

Windows are conventions, not results: Nystrom (logkernel) routes default to
the 5%..25% index window; Fourier-route scenarios use the explicit window
[2, Xi_max/2] because compression at cutoff Xi_max depresses every eigenvalue
by roughly 1/(pi Xi_max), which corrupts k * lambda_k beyond k of order ten.
"""

from __future__ import annotations

SCENARIOS: dict[str, dict] = {
    "circle": {
        "description": "Unit circle, V = 1, exact-Bessel log kernel (2000 atoms)",
        "law": "k * lambda_k stabilizes at Z_cal(1,1) * 2 pi = 1; the exact "
        "circle spectrum is 1/(2|k|)",
        "expected_verdict": "pass",
        "measure": {"name": "circle", "params": {"atoms": 2000, "radius": 1.0}},
        "density": {"kind": "default"},
        "operator": {"route": "logkernel", "kernel": "bessel"},
        "variants": [{"label": "pure_log", "operator": {"route": "logkernel", "kernel": "pure_log"}}],
        "analysis": {"window": [100, 500]},
        "checks": [
            {"name": "weyl_plateau", "kind": "plateau", "sign": "+", "target": "predicted", "tol": 0.05},
            {"name": "calibrated_selected", "kind": "plateau_ratio_mass", "tol": 0.10},
            {"name": "kernel_sensitivity", "kind": "variant_plateau", "variant": "pure_log", "tol": 0.02},
            {"name": "dixmier_consistency", "kind": "dixmier_plateau", "tol": 0.10},
        ],
    },
    "circle_fourier": {
        "description": "Unit circle on the L=8 torus, Fourier compression K=40 "
        "(matrix 6561) vs the log-kernel route",
        "law": "nonzero spectra of the two factorizations of T coincide; at "
        "cutoff Xi_max = 10 pi the compression deficit 1/(pi Xi_max) ~ 0.01 "
        "exceeds the declared elementwise tolerance beyond the top ~10 "
        "eigenvalues, so this check documents a finite-size obstruction",
        "expected_verdict": "fail",
        "measure": {"name": "circle", "params": {"atoms": 2000, "radius": 1.0}},
        "density": {"kind": "default"},
        "operator": {"route": "fourier", "L": 8.0, "K": 40},
        "compare": {"route": "logkernel", "kernel": "bessel"},
        "analysis": {"window": [2, 16]},
        "checks": [
            {"name": "route_agreement", "kind": "route_match", "top": 30, "tol": 0.10},
            {"name": "weyl_plateau", "kind": "plateau", "sign": "+", "target": 1.0, "tol": 0.08},
        ],
    },
    "segment": {
        "description": "Unit segment in the plane, V = 1, log kernel (2000 atoms)",
        "law": "k * lambda_k stabilizes at Z_cal(1,1) * length = 1/(2 pi)",
        "expected_verdict": "pass",
        "measure": {"name": "segment", "params": {"atoms": 2000, "length": 1.0}},
        "density": {"kind": "default"},
        "operator": {"route": "logkernel", "kernel": "bessel"},
        "analysis": {},
        "checks": [
            {"name": "weyl_plateau", "kind": "plateau", "sign": "+", "target": "predicted", "tol": 0.10},
        ],
    },
    "two_circles": {
        "description": "Disjoint circles r=1 and r=0.5 at gap 1 (3000 atoms)",
        "law": "counting functions of separated components add: plateau = "
        "Z_cal(1,1) * 3 pi = 3/2",
        "expected_verdict": "pass",
        "measure": {
            "name": "two_circles",
            "params": {"atoms": 3000, "r1": 1.0, "r2": 0.5, "gap": 1.0},
        },
        "density": {"kind": "default"},
        "operator": {"route": "logkernel", "kernel": "bessel"},
        "analysis": {},
        "checks": [
            {"name": "weyl_plateau", "kind": "plateau", "sign": "+", "target": "predicted", "tol": 0.10},
        ],
    },
    "half_signed_circle": {
        "description": "Unit circle with V = +1 on the upper arc, -1 on the lower",
        "law": "positive and negative spectra track V+ and V- separately "
        "(each plateau 1/2); the signed Dixmier estimate vanishes",
        "expected_verdict": "pass",
        "measure": {"name": "half_signed_circle", "params": {"atoms": 2000, "radius": 1.0}},
        "density": {"kind": "default"},
        "operator": {"route": "logkernel", "kernel": "bessel"},
        "analysis": {},
        "checks": [
            {"name": "plateau_plus", "kind": "plateau", "sign": "+", "target": "predicted", "tol": 0.12},
            {"name": "plateau_minus", "kind": "plateau", "sign": "-", "target": "predicted", "tol": 0.12},
            {"name": "signed_dixmier", "kind": "dixmier_signed", "target": 0.0, "tol": 0.1},
        ],
    },
    "circle_plus_square": {
        "description": "Unit circle plus a unit-area square patch (dims 1 and 2), "
        "Fourier route K=40",
        "law": "components of different dimension contribute at the same "
        "order: plateau = Z_cal(1,1) * 2 pi + varpi_2 * 1 = 1 + 1/(4 pi)",
        "expected_verdict": "pass",
        "measure": {
            "name": "circle_plus_square",
            "params": {"atoms": 2000, "radius": 1.0, "cells": 45, "side": 1.0},
        },
        "density": {"kind": "default"},
        "operator": {"route": "fourier", "L": 8.0, "K": 40},
        "analysis": {"window": [2, 16]},
        "checks": [
            {"name": "weyl_plateau", "kind": "plateau", "sign": "+", "target": "predicted", "tol": 0.12},
        ],
    },
    "cantor_line": {
        "description": "Middle-third Cantor measure (depth 9) on a planar segment, "
        "log kernel",
        "law": "two-sided order bound: k * lambda_k stays within a bounded "
        "window (no Weyl limit is claimed at fractional dimension)",
        "expected_verdict": "pass",
        "measure": {"name": "cantor_line", "params": {"depth": 9}},
        "density": {"kind": "default"},
        "operator": {"route": "logkernel", "kernel": "bessel"},
        "analysis": {"order_window": [20, 400]},
        "checks": [
            {"name": "order_sharpness", "kind": "order_ratio", "sign": "+", "tol": 10.0},
            {"name": "norm_bound_constant", "kind": "order_norm_constant", "factor": 5.0},
        ],
    },
    "steklov_lebesgue": {
        "description": "Steklov form with the Lebesgue angle measure (400 atoms, K=150)",
        "law": "the operator is diagonal with eigenvalues 1/|k| exactly; "
        "zero-mode policies differ in finitely many modes only",
        "expected_verdict": "pass",
        "measure": {"name": "circle", "params": {"atoms": 400, "radius": 1.0}},
        "density": {"kind": "default"},
        "operator": {"route": "steklov", "K": 150, "zero_mode": "drop"},
        "variants": [
            {"label": "shift", "operator": {"route": "steklov", "K": 150, "zero_mode": "shift"}}
        ],
        "analysis": {},
        "checks": [
            {"name": "diagonal_exact", "kind": "steklov_diagonal", "tol": 1e-12},
            {"name": "zero_mode_policies", "kind": "variant_plateau", "variant": "shift", "tol": 0.02},
        ],
    },
    "steklov_cantor": {
        "description": "Steklov form with the Cantor angle measure (depth 12, K=2500)",
        "law": "order-sharp two-sided bounds: k * lambda_k confined to a "
        "bounded window for the singular angle measure",
        "expected_verdict": "pass",
        "measure": {"name": "steklov_cantor", "params": {"depth": 12}},
        "density": {"kind": "default"},
        "operator": {"route": "steklov", "K": 2500, "zero_mode": "drop"},
        "variants": [
            {"label": "shift", "operator": {"route": "steklov", "K": 2500, "zero_mode": "shift"}}
        ],
        "analysis": {"order_window": [20, 300]},
        "checks": [
            {"name": "order_sharpness", "kind": "order_ratio", "sign": "+", "tol": 10.0},
            {"name": "zero_mode_policies", "kind": "variant_plateau", "variant": "shift", "tol": 0.02},
        ],
    },
    "sphere": {
        "description": "Unit 2-sphere in R^3, pure log kernel (3000 atoms)",
        "law": "k * lambda_k stabilizes at Z_cal(2,1) * 4 pi = 1/pi; the "
        "exact spectrum is 1/(pi l (l+1)) with multiplicity 2l+1",
        "expected_verdict": "pass",
        "measure": {"name": "sphere", "params": {"atoms": 3000, "radius": 1.0}},
        "density": {"kind": "default"},
        "operator": {"route": "logkernel", "kernel": "pure_log"},
        "analysis": {},
        "checks": [
            {"name": "weyl_plateau", "kind": "plateau", "sign": "+", "target": "predicted", "tol": 0.15},
        ],
    },
}


def scenario_defaults(name: str) -> dict:
    from ..errors import ScenarioError

    if name not in SCENARIOS:
        raise ScenarioError(f"unknown scenario {name!r}")
    return SCENARIOS[name]


def list_scenarios() -> list[tuple[str, str, str, str]]:
    """(name, description, law, expected verdict) rows for the CLI listing."""
    return [
        (name, s["description"], s["law"], s["expected_verdict"])
        for name, s in sorted(SCENARIOS.items())
    ]
