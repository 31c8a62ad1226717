"""The exponential Orlicz pair and its two norms.

The Young pair used throughout is

    psi(t) = (1 + t) log(1 + t) - t        (just better than L1)
    phi(t) = exp(t) - 1 - t                (its convex dual)

The Luxemburg norm is the infimum scaling that brings the modular below one;
the averaged norm is the dual-constrained supremum form used in the critical
eigenvalue estimates.  Both reduce, on an atom cloud, to one-dimensional
monotone root finding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SaturationError
from .measures import PointCloudMeasure, SignedDensity, check_pairing

PHI_ARG_CAP = 700.0  # beyond this expm1 overflows double precision
HOLDER_CONSTANT = 2.0  # of the Luxemburg-norm pairing
_BISECT_MAX_ITER = 200
_RESIDUAL_TOL = 1e-10


def psi(t):
    """(1 + t) log(1 + t) - t, elementwise, for t >= 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("psi is defined for t >= 0")
    return (1.0 + t) * np.log1p(t) - t


def phi(t):
    """exp(t) - 1 - t, elementwise, for t >= 0; saturates above 700."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("phi is defined for t >= 0")
    if np.any(t > PHI_ARG_CAP):
        raise SaturationError(f"phi argument exceeds the overflow cap {PHI_ARG_CAP}")
    return np.expm1(t) - t


def _phi_unchecked(t: np.ndarray) -> np.ndarray:
    """phi with overflow mapped to +inf (used inside feasibility scans)."""
    out = np.full_like(t, np.inf)
    ok = t <= PHI_ARG_CAP
    out[ok] = np.expm1(t[ok]) - t[ok]
    return out


def _bracket_root(infeasible, start: float, rtol: float) -> tuple[float, float, int]:
    """Bracket and bisect the threshold of a test that holds below it and
    fails above it.  hi doubles from max(start, 1e-300) until infeasible(hi)
    fails, lo halves from hi while it fails (down to 1e-300), then bisection
    narrows [lo, hi] until hi - lo <= rtol * hi.  Returns (lo, hi, steps),
    steps counting the doublings, halvings and bisection steps;
    infeasible(hi) is false.  A threshold above 1e300 is a SaturationError.
    """
    hi = max(start, 1e-300)
    steps = 0
    while infeasible(hi):
        hi *= 2.0
        steps += 1
        if hi > 1e300:
            raise SaturationError("failed to bracket an Orlicz-norm root below 1e300")
    lo = hi
    while not infeasible(lo) and lo > 1e-300:
        lo *= 0.5
        steps += 1
    for _ in range(_BISECT_MAX_ITER):
        steps += 1
        mid = 0.5 * (lo + hi)
        if infeasible(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= rtol * hi:
            break
    return lo, hi, steps


@dataclass(frozen=True)
class OrliczNormResult:
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
    so the infimum is the root of modular(s) = 1, found by bracketed
    bisection.  Zero density gives norm zero.
    """
    check_pairing(measure, values)
    if which == "psi":
        func = psi
    elif which == "phi":
        func = _phi_unchecked
    else:
        raise ValueError(f"unknown Young function {which!r}")
    w = measure.weights
    v = np.abs(values.values)
    mask = (w > 0) & (v > 0)
    if not np.any(mask):
        return OrliczNormResult(0.0, 0, 0.0)
    w, v = w[mask], v[mask]

    def modular(s: float) -> float:
        return float(np.sum(w * func(v / s)))

    _, value, steps = _bracket_root(lambda s: modular(s) > 1.0, float(v.max()), 1e-15)
    residual = abs(modular(value) - 1.0)  # value is the feasible endpoint
    return OrliczNormResult(float(value), steps, float(residual))


def averaged_norm(
    values: SignedDensity,
    measure: PointCloudMeasure,
    subset: np.ndarray | None = None,
) -> float:
    """Solomyak averaged norm over a subset E of atoms.

    Maximizes sum_E w |V| g subject to sum_E w phi(g) <= mu(E).  The
    Lagrange stationarity condition gives g_i = log(1 + |V_i| / lam) with the
    multiplier lam >= 0 fixed by making the constraint tight; the constraint
    value is strictly decreasing in lam, so bisection applies.  Returns 0 for
    an empty or massless subset.
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
    if mass <= 0.0 or len(w) == 0:
        return 0.0
    mask = (w > 0) & (v > 0)
    if not np.any(mask):
        return 0.0
    w, v = w[mask], v[mask]

    def constraint(lam: float) -> float:
        # phi(log(1 + v/lam)) = v/lam - log(1 + v/lam); clamp to dodge inf - inf
        r = np.minimum(v / lam, 1e300)
        return float(np.sum(w * (r - np.log1p(r))))

    lo, hi, _ = _bracket_root(lambda lam: constraint(lam) > mass, float(v.max()), 1e-14)
    lam = 0.5 * (lo + hi)
    g = np.log1p(v / lam)
    return float(np.sum(w * v * g))


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
