"""Correctness checks computed apart from spectralab.

Every reference value here comes from a closed form (Bessel and Legendre
spectra, trace identities, arc lengths) or from a property the method must
have (spectral symmetry, an exact file round trip, the defining equation of
the Luxemburg norm).  Nothing is compared against stored program output, and
this module imports nothing from spectralab.  Each check raises CheckError
with a message naming what deviated; `selftest.py` shows that each one fails
on a perturbed input.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import iv, kv


class CheckError(Exception):
    """A program output disagrees with its independent reference."""


def _top_relative(label: str, got, expected, top: int, rel_tol: float) -> None:
    got = np.asarray(got, dtype=float)
    expected = np.sort(np.asarray(expected, dtype=float))[::-1]
    if len(got) < top or len(expected) < top:
        raise CheckError(f"{label}: need {top} eigenvalues, have {len(got)} (reference {len(expected)})")
    rel = np.abs(got[:top] / expected[:top] - 1.0)
    worst = int(np.argmax(rel))
    if rel[worst] > rel_tol:
        raise CheckError(
            f"{label}: eigenvalue {worst + 1} is {float(got[worst])!r}, reference {float(expected[worst])!r} "
            f"(relative error {rel[worst]:.3g} > {rel_tol:g})"
        )


def circle_bessel_spectrum(radius: float, kmax: int = 40) -> np.ndarray:
    """Exact spectrum of K_0(|x - y|) / (2 pi) on the arc-length measure of a
    circle of radius r: r I_k(r) K_k(r), once for k = 0 and twice for k >= 1
    (Graf's addition theorem)."""
    k = np.arange(1, kmax + 1)
    lam = radius * iv(k, radius) * kv(k, radius)
    return np.sort(np.concatenate([[radius * iv(0, radius) * kv(0, radius)], np.repeat(lam, 2)]))[::-1]


def circle_log_spectrum(radius: float, kmax: int = 40) -> np.ndarray:
    """Positive spectrum of -log|x - y| / (2 pi) on a circle of radius r:
    r / (2|k|) twice for k >= 1, and -r log r for k = 0 when that is positive
    (from -log|e^it - e^is| = sum_k cos(k(t - s)) / k)."""
    k = np.arange(1, kmax + 1)
    lam = np.repeat(radius / (2.0 * k), 2)
    zero = -radius * math.log(radius)
    if zero > 0:
        lam = np.concatenate([lam, [zero]])
    return np.sort(lam)[::-1]


def sphere_log_spectrum(radius: float, lmax: int = 12) -> np.ndarray:
    """Spectrum of -log|x - y| / (2 pi^2) on the area measure of a sphere of
    radius R in R^3: R^2 / (pi l (l + 1)) with multiplicity 2l + 1 for
    l >= 1, and (2 R^2 / pi)(1/2 - log 2R) once for l = 0 (the mean of
    log|x - y| over the unit sphere is log 2 - 1/2).  Only positive values
    are returned."""
    ls = np.arange(1, lmax + 1)
    lam = np.repeat(radius**2 / (math.pi * ls * (ls + 1)), 2 * ls + 1)
    zero = 2.0 * radius**2 / math.pi * (0.5 - math.log(2.0 * radius))
    if zero > 0:
        lam = np.concatenate([lam, [zero]])
    return np.sort(lam)[::-1]


def check_top_spectrum(label: str, got, expected, top: int, rel_tol: float) -> None:
    """The top `top` eigenvalues agree elementwise with the reference."""
    _top_relative(label, got, expected, top, rel_tol)


def check_plateau(label: str, positive, target: float, rel_tol: float, fractions=(0.05, 0.25)) -> None:
    """Median of k * lambda_k over the index band [0.05 n, 0.25 n] is within
    rel_tol of the Weyl-law target."""
    lam = np.asarray(positive, dtype=float)
    n = len(lam)
    lo, hi = max(1, round(fractions[0] * n)), round(fractions[1] * n)
    if hi < lo + 10:
        raise CheckError(f"{label}: only {n} eigenvalues, too few for a plateau")
    k = np.arange(lo, hi + 1)
    plateau = float(np.median(k * lam[lo - 1 : hi]))
    rel = abs(plateau / target - 1.0)
    if rel > rel_tol:
        raise CheckError(f"{label}: plateau {plateau!r} vs {target!r} (relative error {rel:.3g} > {rel_tol:g})")


def check_symmetric_spectrum(label: str, positive, negative, rel_tol: float = 1e-9) -> None:
    """Spectrum invariant under lambda -> -lambda: the positive list and the
    absolute values of the negative list coincide."""
    pos = np.asarray(positive, dtype=float)
    neg = np.asarray(negative, dtype=float)
    if len(pos) == 0 or len(neg) == 0:
        raise CheckError(f"{label}: one sign is empty ({len(pos)} positive, {len(neg)} negative)")
    scale = max(pos[0], neg[0])
    m = min(len(pos), len(neg))
    # Lists may differ in length only by eigenvalues near the floor.
    for extra in (pos[m:], neg[m:]):
        if len(extra) and extra[0] > rel_tol * scale:
            raise CheckError(f"{label}: unpaired eigenvalue {float(extra[0])!r} above {rel_tol:g} * {float(scale)!r}")
    dev = np.abs(pos[:m] - neg[:m])
    worst = int(np.argmax(dev))
    if dev[worst] > rel_tol * scale:
        raise CheckError(
            f"{label}: +lambda_{worst + 1} = {float(pos[worst])!r} but -lambda_{worst + 1} = {float(neg[worst])!r}"
        )


def steklov_multiplier_squared(K: int, zero_mode: str) -> np.ndarray:
    """b_k^2 over the Steklov mode set: 1/|k| for 1 <= |k| <= K (zero mode
    dropped) or 1/(|k| + 1) for |k| <= K (shifted)."""
    if zero_mode == "drop":
        k = np.concatenate([np.arange(-K, 0), np.arange(1, K + 1)])
        return 1.0 / np.abs(k)
    k = np.arange(-K, K + 1)
    return 1.0 / (np.abs(k) + 1.0)


def check_steklov_diagonal(label: str, positive, K: int, zero_mode: str, mass: float,
                           abs_tol: float = 1e-12, top: int | None = None) -> None:
    """Equally spaced atoms with more atoms than 2K make the Steklov matrix
    diagonal: the spectrum is b_k^2 * mass / (2 pi), to rounding."""
    expected = np.sort(steklov_multiplier_squared(K, zero_mode) * mass / (2.0 * math.pi))[::-1]
    got = np.asarray(positive, dtype=float)
    m = len(expected) if top is None else top
    if len(got) < m:
        raise CheckError(f"{label}: {len(got)} eigenvalues, expected {m}")
    dev = np.abs(got[:m] - expected[:m])
    worst = int(np.argmax(dev))
    if dev[worst] > abs_tol:
        raise CheckError(
            f"{label}: eigenvalue {worst + 1} is {float(got[worst])!r}, b_k^2 mass/(2 pi) = {float(expected[worst])!r}"
        )


def fourier_trace(L: float, K: int, n_dim: int, signed_mass: float) -> float:
    """Trace of the Fourier compression: L^-N sum_{|xi|_inf <= K} a(xi)^2 * int V dmu
    with a(xi) = (1 + (2 pi |xi| / L)^2)^(-N/4)."""
    axis = np.arange(-K, K + 1)
    sq = np.zeros(1)
    for _ in range(n_dim):
        sq = (sq[:, None] + axis[None, :] ** 2).ravel()
    a2 = (1.0 + (2.0 * math.pi / L) ** 2 * sq) ** (-n_dim / 2.0)
    return float(a2.sum()) * signed_mass / L**n_dim


def steklov_trace(K: int, zero_mode: str, signed_mass: float) -> float:
    """Trace of the Steklov matrix: int V dmu / (2 pi) * sum_k b_k^2."""
    return float(steklov_multiplier_squared(K, zero_mode).sum()) * signed_mass / (2.0 * math.pi)


def check_trace(label: str, positive, negative, expected: float, rel_tol: float = 1e-9) -> None:
    """Sum of the signed eigenvalues equals the trace identity."""
    total = float(np.sum(positive) - np.sum(negative))
    rel = abs(total / expected - 1.0)
    if not rel <= rel_tol:
        raise CheckError(f"{label}: eigenvalue sum {total!r} vs trace {expected!r} (relative {rel:.3g})")


def check_round_trip(label: str, loaded, reference) -> None:
    """A written and re-read measure is bit-identical to the one written.

    Both arguments are dicts with `positions`, `weights`, `density`,
    `components` (pairs of atom count and nominal dimension) and `total_mass`.
    """
    for key in ("positions", "weights", "density"):
        a, b = loaded[key], reference[key]
        if a is None or b is None:
            if a is not b:
                raise CheckError(f"{label}: {key} present on one side only")
            continue
        if a.shape != b.shape or not np.array_equal(a, b):
            bad = np.flatnonzero(a.ravel() != b.ravel()) if a.shape == b.shape else []
            where = f" first at flat index {bad[0]}" if len(bad) else f" shapes {a.shape} vs {b.shape}"
            raise CheckError(f"{label}: {key} differ after the round trip;{where}")
    if list(loaded["components"]) != list(reference["components"]):
        raise CheckError(f"{label}: components {loaded['components']} vs {reference['components']}")
    if loaded["total_mass"] != reference["total_mass"]:
        raise CheckError(f"{label}: total mass {loaded['total_mass']!r} vs {reference['total_mass']!r}")


def psi(t):
    """(1 + t) log(1 + t) - t."""
    return (1.0 + t) * np.log1p(t) - t


def phi(t):
    """exp(t) - 1 - t."""
    return np.expm1(t) - t


def check_luxemburg(label: str, norm: float, weights, density, young, tol: float = 1e-9) -> None:
    """At the Luxemburg norm s the modular sum_i w_i F(|V_i| / s) equals 1."""
    if not norm > 0:
        raise CheckError(f"{label}: norm {norm!r} is not positive")
    modular = float(np.sum(np.asarray(weights) * young(np.abs(np.asarray(density)) / norm)))
    if abs(modular - 1.0) > tol:
        raise CheckError(f"{label}: modular at the returned norm {norm!r} is {modular!r}, not 1")


def circle_ball_bounds(radius: float, atoms: int, radii) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on mu(B(X, r)) / r for a circle atom X and closed balls B.

    The ball around an atom holds the arc of angle 2 alpha with
    alpha = 2 arcsin(r / 2R), whose length is 2 R alpha; the atoms inside it
    carry that length to within one atom weight w = 2 pi R / n.
    """
    r = np.asarray(radii, dtype=float)
    arc = 4.0 * radius * np.arcsin(r / (2.0 * radius))
    w = 2.0 * math.pi * radius / atoms
    slack = w * (1.0 + 1e-9)
    return (arc - slack) / r, (arc + slack) / r


def check_circle_ahlfors(label: str, c_lower: float, c_upper: float, radius: float, atoms: int, radii) -> None:
    """The sampled band [c_lower, c_upper] of mu(B(X, r)) / r over atoms X of a
    circle lies where the arc lengths put it: every centre sees the same
    arcs, so c_lower is the smallest and c_upper the largest ratio over r."""
    lo, hi = circle_ball_bounds(radius, atoms, radii)
    if not (lo.min() <= c_lower <= hi.min()):
        raise CheckError(f"{label}: c_lower {c_lower!r} outside [{float(lo.min())!r}, {float(hi.min())!r}]")
    if not (lo.max() <= c_upper <= hi.max()):
        raise CheckError(f"{label}: c_upper {c_upper!r} outside [{float(lo.max())!r}, {float(hi.max())!r}]")
