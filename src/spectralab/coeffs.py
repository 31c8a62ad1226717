"""Asymptotic coefficients: sphere areas, surface constants, fiber symbols,
cosphere densities, and predicted singular-trace values.

Two conventions coexist for the surface constant because the source formulas
disagree on powers of 2*pi.  The `printed` mode keeps the constant exactly as
displayed; the `calibrated` mode divides by an extra (2*pi)^d, which is the
unique choice consistent with (a) the absolutely continuous limit d = N and
(b) the exact Fourier spectrum of the circle log kernel.  Every report prints
both; predictions default to calibrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate
from scipy.special import beta as beta_fn

from .errors import PredictionUnavailableError, QuadratureError
from .measures import PointCloudMeasure, SignedDensity, check_pairing


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1} in R^n: 2 pi^{n/2} / Gamma(n/2)."""
    if n < 1:
        raise ValueError("sphere_area needs n >= 1")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class AsymptoticCoefficient:
    d: float
    codim: float
    value: float
    mode: str  # printed | calibrated
    kind: str  # surface_Z | ac_varpi | rho_integral

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("asymptotic coefficients are strictly positive")


def weyl_ac_coefficient(n: int) -> AsymptoticCoefficient:
    """Absolutely continuous Weyl constant omega_{N-1} / (N (2 pi)^N)."""
    if n < 1:
        raise ValueError("ambient dimension must be positive")
    value = sphere_area(n) / (n * (2.0 * math.pi) ** n)
    return AsymptoticCoefficient(d=float(n), codim=0.0, value=value, mode="calibrated", kind="ac_varpi")


def weyl_surface_coefficient(d: int, codim: int, mode: str = "calibrated") -> AsymptoticCoefficient:
    """Surface constant Z(d, codim) in either normalization.

    printed:    omega_{codim-1} omega_{d-1} B(d/2, codim/2) / (2 d (2 pi)^codim)
    calibrated: the same divided by (2 pi)^d
    """
    if d < 1 or codim < 1:
        raise ValueError("dimension and codimension must be positive")
    num = sphere_area(codim) * sphere_area(d) * beta_fn(d / 2.0, codim / 2.0)
    if mode == "printed":
        value = num / (2.0 * d * (2.0 * math.pi) ** codim)
    elif mode == "calibrated":
        value = num / (2.0 * d * (2.0 * math.pi) ** (codim + d))
    else:
        raise ValueError(f"unknown coefficient mode {mode!r}")
    return AsymptoticCoefficient(d=float(d), codim=float(codim), value=float(value), mode=mode, kind="surface_Z")


@dataclass(frozen=True)
class SymbolDescriptor:
    """Principal symbol a(X, Xi), positively homogeneous of degree -N/2 in Xi.

    `flagship` marks the isotropic symbol |Xi|^{-N/2}, for which every
    coefficient has a closed form.
    """

    ambient_dim: int
    evaluate: Callable[[np.ndarray, np.ndarray], float]
    flagship: bool = False

    @property
    def order(self) -> float:
        return -self.ambient_dim / 2.0

    def homogeneity_residual(self, seed: int = 0, samples: int = 8) -> float:
        """Max relative deviation of evaluate(X, 2 Xi) from 2^order * evaluate(X, Xi)."""
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(samples):
            x = rng.standard_normal(self.ambient_dim)
            xi = rng.standard_normal(self.ambient_dim)
            a1 = self.evaluate(x, xi)
            a2 = self.evaluate(x, 2.0 * xi)
            expect = 2.0**self.order * a1
            if expect != 0:
                worst = max(worst, abs(a2 - expect) / abs(expect))
        return worst


def flagship_symbol(ambient_dim: int) -> SymbolDescriptor:
    ell = ambient_dim / 2.0

    def evaluate(x: np.ndarray, xi: np.ndarray) -> float:
        return float(np.linalg.norm(xi) ** (-ell))

    return SymbolDescriptor(ambient_dim=ambient_dim, evaluate=evaluate, flagship=True)


def _check_orthonormal(vectors: np.ndarray, what: str) -> None:
    g = vectors @ vectors.T
    if np.abs(g - np.eye(len(vectors))).max() > 1e-8:
        raise ValueError(f"{what} basis is not orthonormal (Gram deviation > 1e-8)")


def _sphere_quadrature(dim: int, level: int):
    """Nodes and weights on the unit sphere S^{dim-1}.

    dim 1: two points; dim 2: periodic trapezoid (spectrally accurate);
    dim 3: Gauss-Legendre in the polar cosine times trapezoid in azimuth.
    """
    if dim == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if dim == 2:
        m = 8 * 2**level
        ang = 2 * np.pi * np.arange(m) / m
        nodes = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return nodes, np.full(m, 2 * np.pi / m)
    if dim == 3:
        m = 4 * 2**level
        t, wt = np.polynomial.legendre.leggauss(m)
        ang = 2 * np.pi * (np.arange(2 * m) + 0.5) / (2 * m)
        ct = t[:, None]
        st = np.sqrt(1 - t**2)[:, None]
        nodes = np.stack(
            [
                (st * np.cos(ang)[None, :]).ravel(),
                (st * np.sin(ang)[None, :]).ravel(),
                np.broadcast_to(ct, (m, 2 * m)).ravel(),
            ],
            axis=1,
        )
        w = np.broadcast_to(wt[:, None] * (2 * np.pi / (2 * m)), (m, 2 * m)).ravel()
        return nodes, w
    raise QuadratureError(f"sphere quadrature not implemented for dimension {dim}")


def fiber_symbol_r(
    symbol: SymbolDescriptor,
    x: np.ndarray,
    tangent_basis: np.ndarray,
    normal_basis: np.ndarray,
    xi: np.ndarray,
    rel_tol: float = 1e-6,
) -> float:
    """Normal-fiber integral (2 pi)^{-codim} int |a(X, xi + eta)|^2 d eta.

    Radial-spherical quadrature in the normal variables: adaptive Gauss
    quadrature on the ray (the integrand decays like |eta|^{-N}, so the
    radial integral converges) and a spherical rule refined until the
    relative change drops below rel_tol.
    """
    x = np.asarray(x, dtype=float)
    tb = np.atleast_2d(np.asarray(tangent_basis, dtype=float))
    nb = np.atleast_2d(np.asarray(normal_basis, dtype=float))
    _check_orthonormal(tb, "tangent")
    _check_orthonormal(nb, "normal")
    xi = np.asarray(xi, dtype=float)
    if np.linalg.norm(xi) == 0:
        raise ValueError("xi must be nonzero")
    codim = nb.shape[0]
    xi_amb = tb.T @ xi

    def ray_integral(direction: np.ndarray) -> float:
        def f(rho: float) -> float:
            return symbol.evaluate(x, xi_amb + rho * (nb.T @ direction)) ** 2

        def g(r: float) -> float:
            return f(r) * r ** (codim - 1)

        # quad forbids break points together with an infinite limit, so split
        # at a few multiples of |xi| (the integrand's crossover scale).
        scale = float(np.linalg.norm(xi))
        near, err1 = integrate.quad(g, 0.0, 10 * scale, points=[scale], limit=200)
        far, err2 = integrate.quad(g, 10 * scale, np.inf, limit=200)
        val = near + far
        if val > 0 and (err1 + err2) > 1e-6 * val:
            raise QuadratureError("radial fiber integral did not converge")
        return val

    prev = None
    for level in range(6):
        nodes, wts = _sphere_quadrature(codim, level)
        total = sum(w * ray_integral(u) for u, w in zip(nodes, wts))
        if codim == 1:
            prev = total
            break
        if prev is not None and abs(total - prev) <= rel_tol * abs(total):
            prev = total
            break
        prev = total
    else:
        raise QuadratureError("normal-fiber quadrature did not converge")
    return float(prev / (2 * math.pi) ** codim)


def fiber_symbol_closed_form(d: int, codim: int, xi_norm: float = 1.0) -> float:
    """Flagship closed form: omega_{codim-1} B(codim/2, d/2) / (2 (2 pi)^codim) |xi|^{-d}."""
    return (
        sphere_area(codim)
        * beta_fn(codim / 2.0, d / 2.0)
        / (2.0 * (2.0 * math.pi) ** codim)
        * xi_norm ** (-d)
    )


def rho_density(
    symbol: SymbolDescriptor,
    x: np.ndarray,
    tangent_basis: np.ndarray,
    normal_basis: np.ndarray,
    rel_tol: float = 1e-5,
) -> float:
    """Cosphere integral of the fiber symbol over the unit tangent sphere."""
    tb = np.atleast_2d(np.asarray(tangent_basis, dtype=float))
    d = tb.shape[0]
    prev = None
    for level in range(5):
        nodes, wts = _sphere_quadrature(d, level)
        total = sum(
            w * fiber_symbol_r(symbol, x, tangent_basis, normal_basis, u, rel_tol=rel_tol / 10)
            for u, w in zip(nodes, wts)
        )
        if d == 1:
            prev = total
            break
        if prev is not None and abs(total - prev) <= rel_tol * abs(total):
            prev = total
            break
        prev = total
    else:
        raise QuadratureError("cosphere quadrature did not converge")
    return float(prev)


def estimate_frame(
    measure: PointCloudMeasure, atom: int, d: int, k: int = 12
) -> tuple[np.ndarray, np.ndarray]:
    """Tangent/normal frame at one atom from local PCA over k nearest neighbors.

    The top-d principal directions span the tangent estimate; the rest the
    normal.  Only used when a scenario does not provide exact frames.
    """
    pos = measure.positions
    dist = np.linalg.norm(pos - pos[atom][None, :], axis=1)
    order = np.argsort(dist)[: max(k, d + 1)]
    cloud = pos[order] - pos[order].mean(axis=0)
    _, _, vt = np.linalg.svd(cloud, full_matrices=True)
    return vt[:d], vt[d:]


@dataclass(frozen=True)
class ComponentPrediction:
    nominal_dim: int
    coefficient: float
    mass_plus: float
    mass_minus: float


@dataclass(frozen=True)
class TracePrediction:
    """Predicted Weyl/trace values: per-component coefficient times signed mass.

    The normalization step mu -> Z(d, codim) mu is exactly the per-component
    coefficient weighting; `residue` is the signed total.
    """

    a_plus: float
    a_minus: float
    mode: str
    components: tuple[ComponentPrediction, ...]
    approximate_frames: bool = False

    @property
    def residue(self) -> float:
        return self.a_plus - self.a_minus


def predicted_trace(
    measure: PointCloudMeasure,
    density: SignedDensity,
    symbol: SymbolDescriptor,
    mode: str = "calibrated",
    frames: Sequence[tuple[np.ndarray, np.ndarray]] | None = None,
) -> TracePrediction:
    """Predicted asymptotic coefficients A_+/- for T built from (measure, V).

    Every component must carry an integer nominal dimension (the asymptotics
    are proved only for rectifiable supports).  Flagship symbols use the
    closed-form constants; other symbols need per-component frames (or PCA
    estimates, flagged approximate) to integrate the cosphere density.
    """
    check_pairing(measure, density)
    n_amb = measure.ambient_dim
    comps = []
    a_plus = a_minus = 0.0
    approx = False
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
        if symbol.flagship:
            if d_int == n_amb:
                coeff = weyl_ac_coefficient(n_amb).value
            else:
                coeff = weyl_surface_coefficient(d_int, n_amb - d_int, mode).value
        else:
            if d_int == n_amb:
                raise PredictionUnavailableError(
                    "full-dimensional components need the flagship symbol"
                )
            # Sample the cosphere density at a few atoms of the component and
            # use its mean as the per-component coefficient scale.
            count = comp.stop - comp.start
            picks = comp.start + np.unique(
                np.linspace(0, count - 1, num=min(8, count)).astype(int)
            )
            rho_vals = []
            for atom in picks:
                if frames is not None:
                    spec_frame = frames[ci]
                    tb, nb = spec_frame(atom) if callable(spec_frame) else spec_frame
                else:
                    tb, nb = estimate_frame(measure, int(atom), d_int)
                    approx = True
                rho_vals.append(
                    rho_density(symbol, measure.positions[atom], tb, nb)
                )
            coeff = float(np.mean(rho_vals)) / (d_int * (2 * math.pi) ** d_int)
            if mode == "printed":
                coeff *= (2 * math.pi) ** d_int
        comps.append(
            ComponentPrediction(
                nominal_dim=d_int, coefficient=coeff, mass_plus=mass_p, mass_minus=mass_m
            )
        )
        a_plus += coeff * mass_p
        a_minus += coeff * mass_m
    return TracePrediction(
        a_plus=a_plus,
        a_minus=a_minus,
        mode=mode,
        components=tuple(comps),
        approximate_frames=approx,
    )


def coefficient_table(pairs: Sequence[tuple[int, int]]) -> list[dict]:
    """Rows (d, codim, printed, calibrated) for documentation export."""
    rows = []
    for d, codim in pairs:
        rows.append(
            {
                "d": d,
                "codim": codim,
                "printed": weyl_surface_coefficient(d, codim, "printed").value,
                "calibrated": weyl_surface_coefficient(d, codim, "calibrated").value,
            }
        )
    return rows


def coefficient_csv(pairs: Sequence[tuple[int, int]]) -> str:
    """The coefficient table as CSV text: header d,codim,printed,calibrated."""
    rows = (f"{r['d']},{r['codim']},{r['printed']!r},{r['calibrated']!r}\n" for r in coefficient_table(pairs))
    return "d,codim,printed,calibrated\n" + "".join(rows)


def write_coefficient_csv(path, pairs: Sequence[tuple[int, int]]) -> None:
    with open(path, "w") as f:
        f.write(coefficient_csv(pairs))
