"""Asymptotic coefficients: sphere areas, the Weyl coefficient and predicted
singular-trace values.

For T = A* P A with a principal symbol a(X, Xi) homogeneous of degree -N/2,
the Weyl coefficient of a component of dimension d and codimension
q = N - d depends on the symbol only through
int_{S^{N-1}} |a(X, theta)|^2 d theta: integrating the normal-fiber
integral over the unit tangent sphere and using homogeneity of degree -N
(with the scale invariance of dr/r) turns it into that cosphere integral,
so the tangent frame drops out.  For the isotropic symbol |Xi|^{-N/2} this
gives the one formula

    Z(d, q) = omega_{N-1} / (d (2 pi)^N),

whose q = 0 case is the absolutely continuous constant varpi_N.  Two
conventions coexist for the surface constant because the source formulas
disagree on powers of 2*pi.  The `printed` mode keeps the constant as
displayed, which is the formula times (2 pi)^d for q > 0; the `calibrated`
mode is the formula itself, the unique choice consistent with (a) the
absolutely continuous limit q = 0 and (b) the exact Fourier spectrum of the
circle log kernel.  Every report prints both; predictions default to
calibrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PredictionUnavailableError
from .measures import PointCloudMeasure, SignedDensity, check_pairing


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1} in R^n: 2 pi^{n/2} / Gamma(n/2)."""
    if n < 1:
        raise ValueError("sphere_area needs n >= 1")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def weyl_coefficient(d: int, n: int, mode: str = "calibrated") -> float:
    """Weyl coefficient omega_{N-1} / (d (2 pi)^N) of a d-dimensional
    component in R^N for the isotropic symbol |Xi|^{-N/2}: Z(d, N - d) in
    the (dimension, codimension) notation of the reports.

    `printed` is that times (2 pi)^d when d < N; at d = N both modes give
    the absolutely continuous constant.
    """
    if mode not in ("printed", "calibrated"):
        raise ValueError(f"unknown coefficient mode {mode!r}")
    if d < 1:
        raise ValueError("dimension must be positive")
    if d > n:
        raise ValueError(f"dimension {d} exceeds the ambient dimension {n}")
    power = n - d if mode == "printed" and d < n else n
    return sphere_area(n) / (d * (2.0 * math.pi) ** power)


@dataclass(frozen=True)
class ComponentPrediction:
    nominal_dim: int
    coefficient: float
    mass_plus: float
    mass_minus: float


@dataclass(frozen=True)
class TracePrediction:
    """Predicted Weyl/trace values: per-component coefficient times signed mass.

    The normalization step mu -> Z(d, q) mu is exactly the per-component
    coefficient weighting; `residue` is the signed total.
    """

    a_plus: float
    a_minus: float
    components: tuple[ComponentPrediction, ...]

    @property
    def residue(self) -> float:
        return self.a_plus - self.a_minus


def predicted_trace(
    measure: PointCloudMeasure, density: SignedDensity, mode: str = "calibrated"
) -> TracePrediction:
    """Predicted asymptotic coefficients A_+/- for T built from (measure, V)
    with the isotropic symbol.

    Every component must carry an integer nominal dimension (the asymptotics
    are proved only for rectifiable supports).
    """
    check_pairing(measure, density)
    comps = []
    a_plus = a_minus = 0.0
    for ci, comp in enumerate(measure.components):
        d_real = comp.nominal_dim
        d_int = round(d_real)
        if abs(d_real - d_int) > 1e-9 or d_int < 1:
            raise PredictionUnavailableError(
                f"component {ci} has non-integer dimension {d_real}; "
                "no asymptotic prediction is available"
            )
        sl = slice(comp.start, comp.stop)
        w = measure.weights[sl]
        v = density.values[sl]
        mass_p = float(np.sum(w * np.maximum(v, 0.0)))
        mass_m = float(np.sum(w * np.maximum(-v, 0.0)))
        coeff = weyl_coefficient(d_int, measure.ambient_dim, mode)
        comps.append(
            ComponentPrediction(
                nominal_dim=d_int, coefficient=coeff, mass_plus=mass_p, mass_minus=mass_m
            )
        )
        a_plus += coeff * mass_p
        a_minus += coeff * mass_m
    return TracePrediction(a_plus=a_plus, a_minus=a_minus, components=tuple(comps))


def coefficient_csv(pairs: Sequence[tuple[int, int]]) -> str:
    """The coefficient table as CSV text: header d,codim,printed,calibrated."""
    rows = (
        f"{d},{codim},{weyl_coefficient(d, d + codim, 'printed')!r},"
        f"{weyl_coefficient(d, d + codim, 'calibrated')!r}\n"
        for d, codim in pairs
    )
    return "d,codim,printed,calibrated\n" + "".join(rows)
