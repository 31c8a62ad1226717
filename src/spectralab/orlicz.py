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

import math
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


def _monotone_inverse(f, y: float) -> float:
    """Invert a continuous increasing f with f(0) = 0 by bracket + bisection."""
    if y < 0:
        raise ValueError("inverse requested for a negative value")
    if y == 0:
        return 0.0
    hi = 1.0
    while f(hi) < y:
        hi *= 2.0
        if hi > 1e300:
            raise SaturationError("inverse argument out of range")
    lo = 0.0
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if f(mid) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return 0.5 * (lo + hi)


def psi_inverse(y: float) -> float:
    return _monotone_inverse(lambda t: float(psi(t)), y)


def phi_inverse(y: float) -> float:
    # For the bracket, phi(t) <= e^t, so t >= log(y) is reached quickly.
    return _monotone_inverse(lambda t: float(phi(t)), y)


def young_eval(which: str, t: float) -> float:
    """Evaluate psi, phi, or their inverses at a nonnegative argument."""
    if t < 0:
        raise ValueError("Young functions are evaluated at t >= 0")
    table = {
        "psi": lambda: float(psi(t)),
        "phi": lambda: float(phi(t)),
        "psi_inverse": lambda: psi_inverse(t),
        "phi_inverse": lambda: phi_inverse(t),
    }
    if which not in table:
        raise ValueError(f"unknown Young function {which!r}")
    return table[which]()


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

    hi = max(float(v.max()), 1e-300)
    it = 0
    while modular(hi) > 1.0:
        hi *= 2.0
        it += 1
        if it > 200:
            raise SaturationError("failed to bracket the Luxemburg norm from above")
    lo = hi
    while modular(lo) <= 1.0 and lo > 1e-300:
        lo *= 0.5
        it += 1
    for _ in range(_BISECT_MAX_ITER):
        it += 1
        mid = 0.5 * (lo + hi)
        if modular(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if (hi - lo) <= 1e-15 * hi:
            break
    value = hi  # feasible endpoint of the bracket
    residual = abs(modular(value) - 1.0)
    return OrliczNormResult(float(value), it, float(residual))


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

    hi = max(float(v.max()), 1e-300)
    while constraint(hi) > mass:
        hi *= 2.0
        if hi > 1e300:
            raise SaturationError("failed to bracket the averaged-norm multiplier")
    lo = hi
    while constraint(lo) <= mass and lo > 1e-300:
        lo *= 0.5
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if constraint(mid) > mass:
            lo = mid
        else:
            hi = mid
        if (hi - lo) <= 1e-14 * hi:
            break
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
