"""Experiment pipeline: measure -> operator -> spectrum -> analyses -> report.

A run is fully determined by its config (scenario + overrides + seed); the
summary JSON is byte-identical across reruns.  What may differ between
reruns or machines is kept out of the summary for that reason and lands in
one sidecar, diagnostics.json: the numerical health of the run (the Orlicz
searches' evaluations and residuals, each eigensolve's check margins and
count of eigenvalues at the floor), the wall-clock seconds of each stage,
the BLAS thread variables and the process's peak RSS.
"""

from __future__ import annotations

import ast
import json
import math
import numbers
import operator
import os
import resource
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .. import coeffs, measures, operators, orlicz, spectral
from ..errors import (
    BudgetError,
    ConfigError,
    PredictionUnavailableError,
    SpectralWindowError,
)
from .scenarios import scenario_defaults

SCHEMA_VERSION = 1


def _merge(base, override):
    """The override merged into the base, object by object; anything but two
    objects is the override (validate() rejects a section that is no object)."""
    if not (isinstance(base, dict) and isinstance(override, dict)):
        return override
    return {**base, **{k: _merge(base.get(k), v) for k, v in override.items()}}


def _operator(base: dict, override) -> dict:
    """The scenario's operator with the config's overrides; an override that
    names another route replaces it, so no key of the old route carries over."""
    if isinstance(override, dict) and override.get("route", base["route"]) != base["route"]:
        return dict(override)
    return _merge(base, override)


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    seed: int
    measure: dict
    density: dict
    operator: dict
    analysis: dict
    checks: list
    compare: dict | None = None
    variants: list = field(default_factory=list)
    output: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        _keys("config", raw, ("scenario",), [f.name for f in fields(ExperimentConfig)])
        base = scenario_defaults(raw["scenario"])
        cfg = ExperimentConfig(
            scenario=raw["scenario"],
            seed=raw.get("seed", 0),
            measure=_merge(base["measure"], raw.get("measure", {})),
            density=_merge(base["density"], raw.get("density", {})),
            operator=_operator(base["operator"], raw.get("operator", {})),
            analysis=_merge(base.get("analysis", {}), raw.get("analysis", {})),
            checks=raw.get("checks", base.get("checks", [])),
            compare=raw.get("compare", base.get("compare")),
            variants=raw.get("variants", base.get("variants", [])),
            output=raw.get("output", {}),
        )
        cfg.validate()
        return cfg

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        try:
            with open(path) as f:
                raw = json.load(f)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return ExperimentConfig.from_dict(raw)

    def validate(self) -> None:
        if not (_is_number(self.seed, numbers.Integral) and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, not {self.seed!r}")
        _keys("measure", self.measure, ("name",), ("params",))
        _keys("output", self.output, takes=("svg",))
        if not isinstance(self.output.get("svg", False), bool):
            raise ConfigError(f"output svg must be true or false, not {self.output['svg']!r}")
        for key in ("checks", "variants"):
            if not isinstance(getattr(self, key), list):
                raise ConfigError(f"{key} must be a list, not {getattr(self, key)!r}")
        ambient_dim, _ = measures.catalog_entry(self.measure["name"], self.measure.get("params"))
        atoms, _ = measures.atom_count(self.measure["name"], self.measure.get("params"))
        for var in self.variants:
            _keys("variant", var, ("label", "operator"))
        labels = [var["label"] for var in self.variants]
        if not all(isinstance(label, str) and label for label in labels) or len(set(labels)) < len(labels):
            raise ConfigError(f"variant labels must be distinct non-empty strings, not {labels!r}")
        for op_cfg in (self.operator, self.compare, *(v["operator"] for v in self.variants)):
            if op_cfg is not None:
                _assembly(op_cfg, ambient_dim, atoms)
        _keys("analysis", self.analysis, takes=("window", "order_window"))
        for key, win in self.analysis.items():
            if not (isinstance(win, (list, tuple)) and list(map(type, win)) == [int, int] and 1 <= win[0] <= win[1]):
                raise ConfigError(f"invalid analysis {key} {win!r}")
        kind = _object("density", self.density).get("kind", "default")
        if kind not in _DENSITY_KEYS:
            raise ConfigError(f"unknown density kind {kind!r}")
        _keys(f"{kind} density", self.density, _DENSITY_KEYS[kind], ("kind",))
        if kind == "file" and not isinstance(self.density["path"], str):
            raise ConfigError(f"density file path must be a string, not {self.density['path']!r}")
        if kind == "expression":
            _expression_values(self.density["expr"], np.empty((0, ambient_dim)))
        for check in self.checks:
            _validate_check(check, self)

    def to_dict(self) -> dict:
        """The config as plain data (perfbench records it with each case)."""
        return asdict(self)


def _is_number(value, kind=numbers.Real) -> bool:
    """Whether a config value is a number of the kind (never a bool)."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _object(where: str, section) -> dict:
    """The config section; ConfigError if it is not an object."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object, not {section!r}")
    return section


def _keys(where: str, section, needs=(), takes=()) -> None:
    """ConfigError unless the config section is an object that holds every
    key of `needs` and no key outside `needs` and `takes`."""
    _object(where, section)
    allowed = dict.fromkeys((*needs, *takes))
    missing = [key for key in needs if key not in section]
    unknown = [key for key in section if key not in allowed]
    if missing or unknown:
        fault = f"needs {', '.join(missing)}" if missing else f"has no key {', '.join(map(repr, unknown))}"
        raise ConfigError(f"{where} {fault}; it takes {', '.join(allowed)}")


# The numeric keys of a check and their kind; a plateau target may also be "predicted".
_CHECK_NUMBERS = {"tol": numbers.Real, "factor": numbers.Real, "target": numbers.Real, "top": numbers.Integral}


def _validate_check(check: dict, cfg: ExperimentConfig) -> None:
    name = _object("check", check).get("name", check.get("kind"))
    kind = _CHECKS.get(check.get("kind"))
    if kind is None:
        raise ConfigError(f"check {name!r} has unknown kind {check.get('kind')!r}")
    _keys(f"check {name!r}", check, kind.fields, ("kind", "name", "sign", *_CHECK_NUMBERS))
    for key, number in _CHECK_NUMBERS.items():
        value = check.get(key, 0)
        predicted = key == "target" and value == "predicted" and check["kind"] == "plateau"
        if not (predicted or _is_number(value, number)):
            expected = "an integer" if number is numbers.Integral else "a real number"
            raise ConfigError(f"check {name!r} {key} must be {expected}, not {value!r}")
    if check.get("top", 1) < 1:
        raise ConfigError(f"check {name!r} top must be at least 1, not {check['top']!r}")
    present = {
        "compare": cfg.compare is not None,
        "analysis.order_window": "order_window" in cfg.analysis,
        "a steklov operator": cfg.operator.get("route") == "steklov",
    }
    if kind.needs is not None and not present[kind.needs]:
        raise ConfigError(f"check {name!r} needs {kind.needs} in the config")
    if check.get("sign", "+") not in kind.signs:
        signs = " or ".join(kind.signs)
        raise ConfigError(f"check {name!r} reads sign {signs}, not {check['sign']!r}")
    if "variant" in kind.fields and check["variant"] not in {v["label"] for v in cfg.variants}:
        raise ConfigError(f"check {name!r} names no variant of this config: {check['variant']!r}")


_BINARY_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Mod: operator.mod,
    ast.Pow: operator.pow,
}
_UNARY_OPS = {ast.USub: operator.neg, ast.UAdd: operator.pos}
_COMPARE_OPS = {
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
}


def _parse_density(expr) -> ast.Expression:
    if not isinstance(expr, str):
        raise ConfigError(f"density expression must be a string, not {expr!r}")
    try:
        return ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"density expression {expr!r} is not valid: {exc.msg}") from exc


def _eval_density(node: ast.AST, env: dict):
    """Evaluate a parsed density expression, allowing only arithmetic, unary
    signs, single comparisons, int and float literals, the names in `env`, and
    calls `np.<ufunc>(...)` of a single-output ufunc with one positional
    argument per ufunc input.  Anything else raises ConfigError before it
    runs.  A power of an int is taken in float."""
    if isinstance(node, ast.Expression):
        return _eval_density(node.body, env)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.Name) and node.id in env:
        return env[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        left, right = _eval_density(node.left, env), _eval_density(node.right, env)
        if isinstance(node.op, ast.Pow) and type(left) is int:
            # 10 ** 400 overflows at once, as 10.0 ** 400 does, not digit by digit
            left = float(left)
        return _BINARY_OPS[type(node.op)](left, right)
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
        return _UNARY_OPS[type(node.op)](_eval_density(node.operand, env))
    if isinstance(node, ast.Compare) and len(node.ops) == 1 and type(node.ops[0]) in _COMPARE_OPS:
        return _COMPARE_OPS[type(node.ops[0])](
            _eval_density(node.left, env), _eval_density(node.comparators[0], env)
        )
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
        and isinstance(getattr(np, node.func.attr, None), np.ufunc)
        and len(node.args) == getattr(np, node.func.attr).nin
        and getattr(np, node.func.attr).nout == 1
        and not node.keywords
    ):
        return getattr(np, node.func.attr)(*(_eval_density(a, env) for a in node.args))
    raise ConfigError(f"density expression may not contain {ast.unparse(node)!r}")


def _expression_values(expr, positions: np.ndarray) -> np.ndarray:
    """A density expression at the atoms, positions (n, N), as n floats, with
    the coordinates named x0, x1, ... and x, y, z.  validate() calls it on
    zero atoms, so that every fault that does not depend on the atoms is a
    ConfigError there."""
    env = {"pi": math.pi}
    for ax, column in enumerate(positions.T):
        env[f"x{ax}"] = column
        if ax < 3:
            env["xyz"[ax]] = column
    node = _parse_density(expr)
    # a log of zero or an overflow is reported by _resolve_density, not as a
    # warning; Python scalars raise instead (1 / 0, 10.0 ** 400), and so does
    # a ufunc given types it does not take
    try:
        with np.errstate(all="ignore"):
            return np.broadcast_to(_eval_density(node, env), (len(positions),)).astype(float)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise ConfigError(f"density expression {expr!r} fails: {exc}") from exc


# Density kind -> the keys it needs besides "kind", which it also takes.
_DENSITY_KEYS = {"default": (), "expression": ("expr",), "file": ("path",)}


def _resolve_density(
    cfg: ExperimentConfig, mu: measures.PointCloudMeasure, default: measures.SignedDensity
) -> measures.SignedDensity:
    """The configured density on the atoms; ConfigError if it is not finite on
    some atom or zero on every atom, or if a density file does not hold one
    value per line and one line per atom."""
    kind = cfg.density.get("kind", "default")
    if kind == "default":
        vals = default.values
    elif kind == "expression":
        vals = _expression_values(cfg.density["expr"], mu.positions)
    else:
        path = cfg.density["path"]
        try:
            with open(path) as f:  # no values: none read, and no np.loadtxt warning
                table = np.loadtxt(f, dtype=float, ndmin=2) if measures._rows_follow(f, "#") else np.empty((0, 1))
        except FileNotFoundError as exc:
            raise ConfigError(f"density file not found: {path}") from exc
        except (OSError, ValueError) as exc:
            raise ConfigError(f"density file {path} cannot be read: {exc}") from exc
        if table.shape[1] != 1:
            raise ConfigError(f"density file {path} has {table.shape[1]} columns; it must hold one value per line")
        vals = table[:, 0]
        if len(vals) != mu.atom_count:
            raise ConfigError(f"density file holds {len(vals)} values for {mu.atom_count} atoms")
    bad = int(np.count_nonzero(~np.isfinite(vals)))
    if bad:
        raise ConfigError(f"the {kind} density is not finite on {bad} of {mu.atom_count} atoms")
    if not np.any(vals):
        raise ConfigError(f"the {kind} density is zero on every atom")
    return default if kind == "default" else measures.SignedDensity(vals)


# Operator route -> the keys it needs and the others it takes, besides "route".
_ROUTE_KEYS = {
    "fourier": (("L", "K"), ()),
    "steklov": (("K",), ("zero_mode", "center")),
    "logkernel": ((), ("kernel",)),
}


def _assembly(op_cfg: dict, ambient_dim: int, atoms: int) -> Callable:
    """The assembly call of an operator config, as a function of (mu, v) on
    a measure of `atoms` atoms in R^ambient_dim.  Every parameter, and the
    order of a log-kernel matrix, is checked now, before any measure exists,
    by the library's own checks (the Steklov center here); a failure is a
    ConfigError.  The call looks up operators.assemble_* when it runs, so
    that wrappers of them see it."""
    route = _object("operator", op_cfg).get("route")
    if route not in _ROUTE_KEYS:
        raise ConfigError(f"unknown operator route {route!r}")
    needs, takes = _ROUTE_KEYS[route]
    _keys(f"{route} operator", op_cfg, needs, ("route", *takes))
    if route == "steklov" and ambient_dim != 2:
        raise ConfigError(f"operator {op_cfg} needs a measure in the plane, not in R^{ambient_dim}")
    try:
        if route == "fourier":
            L, K = op_cfg["L"], op_cfg["K"]
            operators.fourier_modes(K, ambient_dim, L)
            return lambda mu, v: operators.assemble_fourier_bs(mu, v, L=L, K=K)
        if route == "steklov":
            K, zero_mode = op_cfg["K"], op_cfg.get("zero_mode", "drop")
            operators.steklov_modes(K, zero_mode)
            center = tuple(op_cfg.get("center", (0.0, 0.0)))
            if len(center) != 2 or not all(_is_number(c) and math.isfinite(c) for c in center):
                raise ValueError(f"center must be two finite reals, not {op_cfg['center']!r}")
            return lambda mu, v: operators.assemble_steklov_circle(mu, v, K=K, zero_mode=zero_mode, center=center)
        operators.check_budget(atoms, "atoms")
    except (ValueError, TypeError, BudgetError) as exc:
        raise ConfigError(f"{route} operator {op_cfg}: {exc}") from exc
    kernel = op_cfg.get("kernel", "pure_log")
    if kernel not in operators.KERNELS:
        raise ConfigError(f"{route} operator {op_cfg}: unknown kernel {kernel!r}; the kernels are {', '.join(operators.KERNELS)}")
    return lambda mu, v: operators.assemble_log_kernel(mu, v, kernel)


def _entry(result, **derived) -> dict:
    """A library result as summary data: its fields and the derived values,
    less those that are None, with tuples as lists."""
    record = {**asdict(result), **derived}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in record.items() if v is not None}


def _fit_entry(fit: Callable, report: spectral.EigenReport, sign: str, window) -> dict | None:
    """A windowed fit as summary data; None if the spectrum cannot fill its window."""
    try:
        return _entry(fit(report, sign, window=window))
    except SpectralWindowError:
        return None


def _spectral_summary(report: spectral.EigenReport, analysis: dict) -> dict:
    out = {
        "route": report.route,
        "size": report.size,
        "floor": report.floor,
        "n_positive": int(len(report.positive)),
        "n_negative": int(len(report.negative)),
        "top_positive": [float(x) for x in report.positive[:40]],
        "top_negative": [float(x) for x in report.negative[:40]],
        "plateau_plus": _fit_entry(spectral.weyl_plateau, report, "+", analysis.get("window")),
        "plateau_minus": _fit_entry(spectral.weyl_plateau, report, "-", analysis.get("window")),
    }
    if len(report.positive):
        out["dixmier_final_positive"] = spectral.DixmierEstimate.from_values(
            report.positive
        ).final
    if len(report.positive) or len(report.negative):
        out["dixmier_final_signed"] = spectral.dixmier_sequence(report).final
    ow = analysis.get("order_window")
    out["order_bounds"] = None if ow is None else _fit_entry(spectral.order_bounds, report, "+", ow)
    return out


def _per_solve(solves: dict, record: Callable[[spectral.EigenReport], dict]) -> dict:
    """The record of each eigensolve of a run, in the shape of `solves`:
    primary, compare when configured, and variants by label."""
    variants = {label: record(rep) for label, rep in solves.get("variants", {}).items()}
    return {key: variants if key == "variants" else record(rep) for key, rep in solves.items()}


def _solve_health(report: spectral.EigenReport) -> dict:
    """An eigensolve's check margins and its count of eigenvalues at the floor."""
    return {**report.metadata, "n_at_floor": report.size - len(report.positive) - len(report.negative)}


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    measure: dict
    norms: dict  # orlicz.OrliczNormResult by name
    prediction: dict
    solves: dict  # spectral.EigenReport: primary, compare, variants by label
    spectral_summary: dict  # _spectral_summary of each solve
    verdicts: list
    timings: dict

    @property
    def eigen_primary(self) -> spectral.EigenReport:
        return self.solves["primary"]

    @property
    def eigen_compare(self) -> spectral.EigenReport | None:
        return self.solves.get("compare")

    @property
    def all_passed(self) -> bool:
        return all(v["pass"] for v in self.verdicts)

    def summary_dict(self) -> dict:
        # Timings deliberately excluded: summaries are byte-stable per seed.
        return {
            "schema_version": SCHEMA_VERSION,
            "config": asdict(self.config),
            "measure": self.measure,
            "orlicz": {key: norm.value for key, norm in self.norms.items()},
            "prediction": self.prediction,
            "spectral": self.spectral_summary,
            "verdicts": self.verdicts,
        }


def _prediction_summary(mu, v, mode: str) -> dict:
    """The predicted trace, or {"available": False, "reason": ...} when no
    asymptotic prediction exists (non-integer component dimensions)."""
    try:
        pred = coeffs.predicted_trace(mu, v, mode=mode)
    except PredictionUnavailableError as exc:
        return {"available": False, "reason": str(exc)}
    return _entry(pred, residue=pred.residue)


def _measure_diagnostics(cfg, mu, v) -> dict:
    nn = measures.nearest_neighbor_spacing(mu)
    diam = measures.diameter(mu)
    out = {
        "name": cfg.measure["name"],
        "ambient_dim": mu.ambient_dim,
        "atom_count": mu.atom_count,
        "total_mass": mu.total_mass,
        "nn_spacing": nn,
        "diameter": diam,
        "components": [
            {
                "nominal_dim": c.nominal_dim,
                "atoms": c.stop - c.start,
                "mass": float(mu.weights[c.start : c.stop].sum()),
            }
            for c in mu.components
        ],
        "signed_mass": float(np.sum(mu.weights * v.values)),
    }
    lo_r = 8.0 * nn
    hi_r = diam / 4.0
    if math.isfinite(nn) and lo_r < hi_r:
        radii = np.geomspace(lo_r, hi_r, 5)
        band = measures.ahlfors_constants(
            mu,
            s=mu.components[0].nominal_dim,
            radii=radii,
            sample_count=32,
            seed=cfg.seed,
        )
        out["ahlfors"] = _entry(band, ratio=band.ratio)
    else:
        out["ahlfors"] = None
    return out


def _prediction(check: dict, report) -> dict:
    """The calibrated predicted trace, which the check needs."""
    pred = report.prediction["calibrated"]
    if not pred.get("available", True):
        raise ConfigError(
            f"check {check.get('name', check['kind'])!r} needs the predicted trace, "
            f"which is unavailable: {pred['reason']}"
        )
    return pred


def _summary_value(report, key: str, variant: str | None = None):
    """A number from the spectral summary of the primary spectrum (or of a
    variant's); SpectralWindowError, naming the configured window, if the
    spectrum was too short for it."""
    spec = report.spectral_summary
    part = spec["variants"][variant] if variant else spec["primary"]
    if part.get(key) is None:
        name = "order_window" if key == "order_bounds" else "window"
        raise SpectralWindowError(
            f"no {key}: the spectrum has {part['n_positive']} positive and "
            f"{part['n_negative']} negative eigenvalues, too few for the analysis "
            f"{name} {report.config.analysis.get(name, '(default fractions)')}"
        )
    return part[key]


def _verdict(passed, **fields) -> dict:
    return {**fields, "pass": bool(passed)}


def _graded(observed: float, expected: float, tol: float) -> dict:
    """Relative error of observed against expected, passing within tol."""
    rel = abs(observed / expected - 1.0) if expected else math.inf
    return _verdict(rel <= tol, observed=observed, expected=expected, rel_error=rel, tol=tol)


def _plateau(check: dict, report) -> dict:
    sign = check.get("sign", "+")
    fit = _summary_value(report, "plateau_plus" if sign == "+" else "plateau_minus")
    target = check["target"]
    if target == "predicted":
        pred = _prediction(check, report)
        target = pred["a_plus"] if sign == "+" else pred["a_minus"]
    graded = _graded(fit["plateau"], target, check["tol"])
    return {**graded, **{k: fit[k] for k in ("window", "dispersion", "requested") if k in fit}}


def _plateau_ratio_mass(check: dict, report) -> dict:
    z_cal = _prediction(check, report)["components"][0]["coefficient"]
    z_printed = report.prediction["printed"]["components"][0]["coefficient"]
    ratio = _summary_value(report, "plateau_plus")["plateau"] / report.measure["total_mass"]
    graded = _graded(ratio, z_cal, check["tol"])
    rel_printed = abs(ratio / z_printed - 1.0)
    passed = graded.pop("pass") and rel_printed > check["tol"]
    return _verdict(passed, **graded, rejected=z_printed, rel_error_printed=rel_printed)


def _variant_plateau(check: dict, report) -> dict:
    expected = _summary_value(report, "plateau_plus")["plateau"]
    observed = _summary_value(report, "plateau_plus", check["variant"])["plateau"]
    return _graded(observed, expected, check["tol"])


def _dixmier_plateau(check: dict, report) -> dict:
    expected = _summary_value(report, "plateau_plus")["plateau"]
    return _graded(_summary_value(report, "dixmier_final_positive"), expected, check["tol"])


def _dixmier_signed(check: dict, report) -> dict:
    dix, target = _summary_value(report, "dixmier_final_signed"), check.get("target", 0.0)
    err, tol = abs(dix - target), check["tol"]
    return _verdict(err <= tol, observed=dix, expected=target, abs_error=err, tol=tol)


def _order_ratio(check: dict, report) -> dict:
    bounds = _summary_value(report, "order_bounds")
    ratio = bounds["sup"] / bounds["inf"] if bounds["inf"] > 0 else math.inf
    return _verdict(ratio <= check["tol"], observed=ratio, tol=check["tol"], **bounds)


def _order_norm_constant(check: dict, report) -> dict:
    """sup k lambda_k <= factor * averaged Orlicz norm of V; the fitted
    constant sup / norm is recorded."""
    bounds = _summary_value(report, "order_bounds")
    hi, av, factor = bounds["sup"], report.norms["averaged"].value, check.get("factor", 5.0)
    fitted = hi / av if av > 0 else math.inf
    # unclipped runs keep their summary bytes
    clipped = {k: bounds[k] for k in ("window", "requested")} if "requested" in bounds else {}
    bound = factor * av
    fields = dict(sup=hi, averaged_norm=av, fitted_constant=fitted, bound=bound, factor=factor)
    return _verdict(hi <= bound, **fields, **clipped)


def _route_match(check: dict, report) -> dict:
    top, tol = check["top"], check["tol"]
    match = spectral.spectra_match(report.eigen_primary, report.eigen_compare, top=top, rel_tol=tol)
    deviations = [float(x) for x in match.deviations_positive]
    return _verdict(match.matched, observed=match.worst, top=top, tol=tol, deviations=deviations)


def _steklov_diagonal(check: dict, report) -> dict:
    """The Steklov form of the Lebesgue angle measure is diagonal, with
    eigenvalues b(k)^2 mass / (2 pi) over the kept modes k."""
    op_cfg = report.config.operator
    K = int(op_cfg["K"])
    # closed-form b(k)^2, not operators.steklov_modes: an independent reference
    if op_cfg.get("zero_mode", "drop") == "drop":
        ks = np.concatenate([np.arange(-K, 0), np.arange(1, K + 1)])
        b2 = 1.0 / np.abs(ks)
    else:
        ks = np.arange(-K, K + 1)
        b2 = 1.0 / (np.abs(ks) + 1.0)
    expected = np.sort(b2 * report.measure["total_mass"] / (2 * math.pi))[::-1]
    got = report.eigen_primary.positive
    m = min(len(expected), len(got))
    dev = float(np.abs(expected[:m] - got[:m]).max()) if m else math.inf
    passed = m == len(expected) and dev <= check["tol"]
    return _verdict(passed, observed=dev, compared=m, tol=check["tol"])


class _CheckKind(NamedTuple):
    """A check kind: the function grading a report, the keys a check must
    carry, the config part it reads, and the signs it accepts."""

    grade: Callable[[dict, "ExperimentReport"], dict]
    fields: tuple[str, ...] = ("tol",)
    needs: str | None = None
    signs: tuple[str, ...] = ("+",)


_CHECKS = {
    "plateau": _CheckKind(_plateau, ("target", "tol"), signs=("+", "-")),
    "plateau_ratio_mass": _CheckKind(_plateau_ratio_mass),
    "variant_plateau": _CheckKind(_variant_plateau, ("variant", "tol")),
    "dixmier_plateau": _CheckKind(_dixmier_plateau),
    "dixmier_signed": _CheckKind(_dixmier_signed),
    "order_ratio": _CheckKind(_order_ratio, needs="analysis.order_window"),
    "order_norm_constant": _CheckKind(_order_norm_constant, (), "analysis.order_window"),
    "route_match": _CheckKind(_route_match, ("top", "tol"), "compare"),
    "steklov_diagonal": _CheckKind(_steklov_diagonal, needs="a steklov operator"),
}


def _evaluate_checks(report: ExperimentReport) -> list:
    """Verdicts of the config's checks, read off the run's spectral summary."""
    return [
        {"name": c.get("name", c["kind"]), "kind": c["kind"], **_CHECKS[c["kind"]].grade(c, report)}
        for c in report.config.checks
    ]


def run_experiment(cfg: ExperimentConfig, out_dir) -> ExperimentReport:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings: dict[str, float] = {}
    stage = "setup"

    def tick(name, fn, *args, **kwargs):
        nonlocal stage
        stage = name
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        timings[name] = time.perf_counter() - t0
        return result

    try:
        mu, v_default = tick(
            "measure", measures.builtin_measure, cfg.measure["name"], cfg.measure.get("params", {})
        )
        v = _resolve_density(cfg, mu, v_default)
        tick("measure_io", measures.save_measure_text, mu, out / "measure.txt", v)
        measure_diag = tick("diagnostics", _measure_diagnostics, cfg, mu, v)
        norms = tick(
            "orlicz",
            lambda: {
                "luxemburg_psi": orlicz.luxemburg_norm(v, mu, "psi"),
                "luxemburg_phi": orlicz.luxemburg_norm(v, mu, "phi"),
                "averaged": orlicz.averaged_norm(v, mu),
            },
        )
        prediction = tick(
            "prediction",
            lambda: {
                "calibrated": _prediction_summary(mu, v, "calibrated"),
                "printed": _prediction_summary(mu, v, "printed"),
            },
        )

        def spectrum(op_cfg: dict, suffix: str = "") -> spectral.EigenReport:
            # The operator is local, so its matrix is freed before the next is built.
            op = tick(f"assemble{suffix}", _assembly(op_cfg, mu.ambient_dim, mu.atom_count), mu, v)
            return tick(f"eigensolve{suffix}", spectral.eigen_spectrum, op)

        solves = {"primary": spectrum(cfg.operator)}
        tick("spectrum_io", spectral.write_spectrum_csv, solves["primary"], out / "spectrum.csv")
        if cfg.compare is not None:
            solves["compare"] = spectrum(cfg.compare, "_compare")
            spectral.write_spectrum_csv(solves["compare"], out / "spectrum_compare.csv")
        if cfg.variants:
            solves["variants"] = {var["label"]: spectrum(var["operator"], f"_{var['label']}") for var in cfg.variants}

        stage = "analysis"
        report = ExperimentReport(
            config=cfg,
            measure=measure_diag,
            norms=norms,
            prediction=prediction,
            solves=solves,
            spectral_summary=_per_solve(solves, lambda rep: _spectral_summary(rep, cfg.analysis)),
            verdicts=[],
            timings=timings,
        )
        stage = "verdicts"
        report.verdicts = _evaluate_checks(report)
        stage = "emit"
        emit_report(report, out)
        return report
    except Exception as exc:
        (out / "FAILED").write_text(f"stage: {stage}\nerror: {exc!r}\n")
        raise


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _write_json(path, obj) -> None:
    with open(path, "w") as f:
        json.dump(_jsonable(obj), f, indent=2, sort_keys=True)
        f.write("\n")


def write_svg_line(path, xs, ys, title: str, xlabel: str, ylabel: str) -> None:
    """Tiny dependency-free SVG polyline plot."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    w, h, pad = 640, 400, 50
    x0, x1 = (float(xs.min()), float(xs.max())) if xs.size else (0.0, 0.0)
    y0, y1 = (float(ys.min()), float(ys.max())) if ys.size else (0.0, 0.0)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1
    px = pad + (xs - x0) / (x1 - x0) * (w - 2 * pad)
    py = h - pad - (ys - y0) / (y1 - y0) * (h - 2 * pad)
    pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
    with open(path, "w") as f:
        f.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">\n'
            f'<rect width="{w}" height="{h}" fill="white"/>\n'
            f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>\n'
            f'<text x="{w / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>\n'
            f'<text x="{w / 2}" y="{h - 10}" text-anchor="middle" font-size="12">{xlabel}</text>\n'
            f'<text x="15" y="{h / 2}" font-size="12" transform="rotate(-90 15 {h / 2})" '
            f'text-anchor="middle">{ylabel}</text>\n'
            f'<text x="{pad}" y="{h - pad + 15}" font-size="10">{x0:.4g}</text>\n'
            f'<text x="{w - pad}" y="{h - pad + 15}" font-size="10" text-anchor="end">{x1:.4g}</text>\n'
            f'<text x="{pad - 5}" y="{h - pad}" font-size="10" text-anchor="end">{y0:.4g}</text>\n'
            f'<text x="{pad - 5}" y="{pad}" font-size="10" text-anchor="end">{y1:.4g}</text>\n'
            "</svg>\n"
        )


def emit_report(report: ExperimentReport, out_dir) -> None:
    """Write the summary JSON, the diagnostics.json sidecar and plain plot-data
    files (spectrum CSVs are written by the pipeline as soon as spectra exist)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "summary.json", report.summary_dict())
    pos = report.eigen_primary.positive
    k = np.arange(1, len(pos) + 1)
    with open(out / "weyl.dat", "w") as f:
        f.write("# k  k*lambda_k\n")
        for kk, lam in zip(k, pos):
            f.write(f"{kk} {float(kk * lam)!r}\n")
    est = spectral.dixmier_sequence(report.eigen_primary)
    with open(out / "dixmier.dat", "w") as f:
        f.write("# n  dixmier_n\n")
        for n, val in enumerate(est.sequence, start=1):
            f.write(f"{n} {float(val)!r}\n")
    if report.config.output.get("svg"):
        write_svg_line(
            out / "weyl.svg", k, k * pos, "Weyl plateau", "k", "k * lambda_k"
        )
        write_svg_line(
            out / "dixmier.svg",
            np.arange(1, len(est.sequence) + 1),
            est.sequence,
            "Dixmier estimator",
            "n",
            "partial sum / log(n+2)",
        )
    # The numerical health of the run, its timings and its environment go to
    # one sidecar, so summary.json stays byte-stable.
    diagnostics = {
        "orlicz": {key: {"evaluations": r.iterations, "residual": r.residual} for key, r in report.norms.items()},
        "eigensolve": _per_solve(report.solves, _solve_health),
        "timings": report.timings,
        "threads": {name: os.environ.get(name) for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        # the process's peak, so in a long-lived process it covers earlier runs
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    _write_json(out / "diagnostics.json", diagnostics)
