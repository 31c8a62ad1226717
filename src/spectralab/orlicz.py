"""The exponential Orlicz pair and its two norms.

The Young pair used throughout is

    psi(t) = (1 + t) log(1 + t) - t        (just better than L1)
    phi(t) = exp(t) - 1 - t                (its convex dual)

The Luxemburg norm is the infimum scaling that brings the modular below one;
the averaged norm is the dual-constrained supremum form used in the critical
eigenvalue estimates.  Both reduce, on an atom cloud, to one-dimensional
monotone root finding: _bracket_root brackets the root between a double and
its half, and measures.bisect_threshold, a safeguarded regula falsi, narrows
the bracket to adjacent doubles, the pair bisection would end at.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SaturationError
from .measures import PointCloudMeasure, SignedDensity, bisect_threshold, check_pairing

HOLDER_CONSTANT = 2.0  # of the Luxemburg-norm pairing
_RESIDUAL_TOL = 1e-10
# Each Young function's closed form and its Taylor coefficients c_k, the
# function being t^2 (c_0 + c_1 t + ...).  Below _SERIES_CUTOFF the closed
# forms lose their value to the rounding of t; five terms leave out < 5e-17.
_SERIES_CUTOFF = 1e-3
_YOUNG = {
    "psi": (lambda t: (1.0 + t) * np.log1p(t) - t, (1 / 2, -1 / 6, 1 / 12, -1 / 20, 1 / 30)),
    "phi": (lambda t: np.expm1(t) - t, (1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 720)),
}


def _young(which: str, t: np.ndarray) -> np.ndarray:
    """Young function `which` at t >= 0, inf where its closed form overflows."""
    closed, series = _YOUNG[which]
    with np.errstate(over="ignore"):
        value = np.asarray(closed(t))
    small = t < _SERIES_CUTOFF
    if np.any(small):
        s = t[small]
        value[small] = s * s * np.polyval(series[::-1], s)
    return value


def psi(t):
    """(1 + t) log(1 + t) - t, elementwise, for t >= 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("psi is defined for t >= 0")
    return _young("psi", t)


def phi(t):
    """exp(t) - 1 - t, elementwise, for t >= 0; saturates where it overflows, past 709.78."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("phi is defined for t >= 0")
    value = _young("phi", t)
    if np.any(np.isinf(value)):
        raise SaturationError("phi overflows double precision")
    return value


def _bracket_root(excess, start: float) -> tuple[float, int]:
    """Threshold of a decreasing test, a point s being below it when
    excess(s) > 0: from max(start, 1e-300), s doubles while it is below the
    threshold, or else halves while it is not (down to 1e-300), until the
    last two points bracket it, and bisect_threshold narrows that bracket to
    adjacent doubles.  Returns hi, the smallest double not below the
    threshold, and the count of excess evaluations.  A threshold above
    1e300 is a SaturationError."""
    x = max(start, 1e-300)
    fx = excess(x)
    evaluations = 1
    step = 2.0 if fx > 0 else 0.5
    while True:
        prev, f_prev = x, fx
        x *= step
        if x > 1e300:
            raise SaturationError("failed to bracket an Orlicz-norm root below 1e300")
        fx = excess(x)
        evaluations += 1
        if (fx > 0) != (f_prev > 0) or x <= 1e-300:
            break
    (lo, f_lo), (hi, f_hi) = sorted([(x, fx), (prev, f_prev)])
    _, hi, steps = bisect_threshold(excess, lo, hi, f_lo, f_hi)
    return hi, evaluations + steps


@dataclass(frozen=True)
class OrliczNormResult:
    """A norm, the evaluations of the modular (or constraint) its search
    made, and the relative residual of the tight condition at the result."""

    value: float
    iterations: int
    residual: float

    def __post_init__(self):
        if self.value > 0 and self.residual > _RESIDUAL_TOL:
            raise ValueError(f"norm residual {self.residual:g} exceeds 1e-10")


def luxemburg_norm(
    values: SignedDensity,
    measure: PointCloudMeasure,
    which: str = "psi",
) -> OrliczNormResult:
    """Luxemburg norm: inf over s > 0 of { sum_i w_i F(|V_i| / s) <= 1 }.

    The modular is continuous and strictly decreasing in s wherever positive,
    so the infimum is the root of modular(s) = 1: the smallest double s
    whose modular is at most 1, found by _bracket_root on the signed excess
    modular(s) - 1.  `iterations` counts the modular's evaluations, and
    `residual` is |modular(s) - 1| at the result.  Zero density gives norm
    zero.
    """
    check_pairing(measure, values)
    if which not in _YOUNG:
        raise ValueError(f"unknown Young function {which!r}")
    w = measure.weights
    v = np.abs(values.values)
    mask = (w > 0) & (v > 0)
    if not np.any(mask):
        return OrliczNormResult(0.0, 0, 0.0)
    w, v = w[mask], v[mask]

    def modular(s: float) -> float:
        return float(np.sum(w * _young(which, v / s)))

    value, steps = _bracket_root(lambda s: modular(s) - 1.0, float(v.max()))
    residual = abs(modular(value) - 1.0)  # value is the feasible endpoint
    return OrliczNormResult(float(value), steps, float(residual))


def averaged_norm(
    values: SignedDensity,
    measure: PointCloudMeasure,
    subset: np.ndarray | None = None,
) -> OrliczNormResult:
    """Solomyak averaged norm over a subset E of atoms.

    Maximizes sum_E w |V| g subject to sum_E w phi(g) <= mu(E).  The
    Lagrange stationarity condition gives g_i = log(1 + |V_i| / lam) with the
    multiplier lam >= 0 fixed by making the constraint tight: the smallest
    double lam whose constraint value is at most mu(E).  That value is
    strictly decreasing in lam, so the search of _bracket_root applies, with
    the signed excess constraint(lam) - mu(E).  `iterations` counts the
    constraint's evaluations, and `residual` is its relative slack at lam.
    Returns the norm 0 for an empty or massless subset.
    """
    check_pairing(measure, values)
    if subset is None:
        w = measure.weights
        v = np.abs(values.values)
    else:
        idx = np.asarray(subset, dtype=int)
        w = measure.weights[idx]
        v = np.abs(values.values[idx])
    mass = float(w.sum())
    mask = (w > 0) & (v > 0)
    if mass <= 0.0 or not np.any(mask):
        return OrliczNormResult(0.0, 0, 0.0)
    w, v = w[mask], v[mask]

    def constraint(lam: float) -> float:
        # phi(log(1 + v/lam)) = v/lam - log(1 + v/lam); clamp to dodge inf - inf
        r = np.minimum(v / lam, 1e300)
        return float(np.sum(w * (r - np.log1p(r))))

    lam, steps = _bracket_root(lambda lam: constraint(lam) - mass, float(v.max()))
    g = np.log1p(v / lam)
    residual = abs(constraint(lam) / mass - 1.0)
    return OrliczNormResult(float(np.sum(w * v * g)), steps, residual)


def holder_bound(
    f_values: SignedDensity,
    v_values: SignedDensity,
    measure: PointCloudMeasure,
) -> tuple[float, float]:
    """Return (|integral of f V dmu|, HOLDER_CONSTANT * ||f||_phi * ||V||_psi).

    With the classical Luxemburg-norm pairing the Holder constant is 2; the
    first component never exceeds the second.
    """
    check_pairing(measure, f_values)
    check_pairing(measure, v_values)
    lhs = abs(float(np.sum(measure.weights * f_values.values * v_values.values)))
    rhs = (
        HOLDER_CONSTANT
        * luxemburg_norm(f_values, measure, "phi").value
        * luxemburg_norm(v_values, measure, "psi").value
    )
    return lhs, rhs
