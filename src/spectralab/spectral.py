"""Eigendecomposition and spectral functionals: counting functions, Weyl
plateaus, Dixmier sequences, order bounds, and cross-route spectrum matching.

The plateau statistic is a median of k * lambda_k over an index window, not a
fit of n(lambda): medians are robust to the staircase shape of counting
functions.  Window defaults (5%..25% of the spectrum length) deliberately
exclude the discretization-corrupted tail; windows are artifact conventions,
so every windowed fit returns the window it used (see resolve_window).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, blas, eigh_tridiagonal, lapack

from .errors import SolverError, SpectralWindowError
from .operators import AssembledOperator, _mirror_lower

EIGENVALUE_FLOOR_FACTOR = 1e-14
RESIDUAL_TOL = 1e-8
RESIDUAL_PAIRS = 5
DEFAULT_WINDOW_FRACTIONS = (0.05, 0.25)
PLATEAU_MIN_COUNT = 40


@dataclass(frozen=True)
class EigenReport:
    """Signed spectrum above the numerical floor, sorted descending."""

    positive: np.ndarray  # descending positive eigenvalues
    negative: np.ndarray  # descending absolute values of negative eigenvalues
    size: int
    floor: float
    route: str = "unknown"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("positive", "negative"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            if np.any(np.diff(arr) > 0):
                raise ValueError(f"{name} eigenvalue list must be sorted descending")
            if np.any(arr <= 0):
                raise ValueError(f"{name} list must hold values above the floor")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def sequence(self, sign: str) -> np.ndarray:
        if sign == "+":
            return self.positive
        if sign == "-":
            return self.negative
        raise ValueError(f"unknown sign {sign!r}")

    @property
    def singular_values(self) -> np.ndarray:
        return np.sort(np.concatenate([self.positive, self.negative]))[::-1]


def _lapack_info(info: int, routine: str, n: int) -> None:
    if info != 0:
        raise SolverError(f"LAPACK {routine} returned info = {info} on a {n} x {n} problem")


def _tridiagonalize(a: np.ndarray):
    """Householder reduction A = Q T Q^T, lower storage (dsytrd), in place
    when `a` is a Fortran-order float64 array.

    Returns (c, d, e, tau): T's diagonal d and subdiagonal e, and the
    reflectors H_i = I - tau_i v_i v_i^T with v_i[:i+1] = (0, ..., 0, 1) and
    v_i[i+2:] = c[i+2:, i].  `c` is `a`, overwritten below its diagonal.
    """
    n = a.shape[0]
    work, info = lapack.dsytrd_lwork(n, lower=1)
    _lapack_info(info, "dsytrd workspace query", n)
    c, d, e, tau, info = lapack.dsytrd(a, lower=1, lwork=int(work), overwrite_a=1)
    _lapack_info(info, "dsytrd", n)
    return c, d, e, tau


def _back_transform(c: np.ndarray, tau: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Q z for the reduction's Q = H_0 H_1 ... H_{n-2}, applied to the k
    columns of z by one dormqr call: O(n^2 k), and Q is never formed.

    Below row 0, c holds the reflectors as a QR factorization would, so they
    act on rows 1 .. of z (LAPACK's dormtr does the same).  dormqr gets the
    (n, n - 1) Fortran-order view of c from c[1, 0] on: with leading
    dimension n it reads only the first n - 1 rows, c[1:, j], and nothing is
    copied.  A reflector with tau = 0 is the identity to LAPACK."""
    n = c.shape[0]
    x = np.array(z, order="F")
    if n < 2:
        return x
    v = c.ravel(order="F")[1 : 1 + n * (n - 1)].reshape((n, n - 1), order="F")
    work, info = lapack.dormqr("L", "N", v, tau, x[1:], -1)[1:]
    _lapack_info(info, "dormqr workspace query", n)
    x[1:], _, info = lapack.dormqr("L", "N", v, tau, x[1:], int(work[0]), overwrite_c=1)
    _lapack_info(info, "dormqr", n)
    return x


def eigen_spectrum(op: AssembledOperator) -> EigenReport:
    """Full dense symmetric eigensolve with a residual spot check.

    One Householder reduction to a real tridiagonal T serves both steps.
    All eigenvalues come from eigh_tridiagonal by dsterf.  A block of
    RESIDUAL_PAIRS eigenpairs at the large-magnitude end is found again by
    eigh_tridiagonal's bisection and inverse iteration (dstebz, dstein),
    back-transformed with the reduction's reflectors, and checked against the
    original matrix: ||M q - lam q|| <= 1e-8 ||M||, and bisection and dsterf
    agree to 1e-8 ||M||.  The check runs on T and M times the power of two
    that brings ||M|| into [1/2, 1), so its tolerances hold at any scale;
    dsterf sees T unscaled.  Below the normal range that power overflows,
    and ||M|| there is a SolverError.
    A passed check leaves its margins in the report's metadata:
    `residual_rel` (largest residual / ||M||), `bisection_gap_rel` (largest
    bisection-dsterf gap / ||M||) and `checked_range` (lo, hi), the 0-based
    ascending indices checked.  With n = 1 or M = 0 nothing is checked, and
    none of the three keys is set.  A LAPACK failure on T is a SolverError.

    The reduction runs in place on op.matrix, so no second n x n array is
    formed: LAPACK reduces the Fortran-order view m.T from its lower
    triangle, which is m's upper triangle, and the reflectors land in m's
    rows.  On return, and on any error, m is restored from its strict lower
    triangle and a saved diagonal, which is exact because AssembledOperator
    holds only exactly symmetric float64 matrices.  While the call runs the
    matrix is overwritten, so two threads must not solve one operator at
    once.
    """
    m = op.matrix
    n = op.size
    diag = m.diagonal().copy()
    try:
        c, d, e, tau = _tridiagonalize(m.T)
        values = eigh_tridiagonal(d, e, eigvals_only=True, lapack_driver="sterf")
        norm = float(np.abs(values).max(initial=0.0))
        checked = norm > 0 and n >= 2
        if checked:
            if norm < sys.float_info.min:
                raise SolverError(f"||M|| = {norm:g} lies below the normal range; the check cannot scale it")
            # the block at the large-|lambda| end of the ascending values
            k = min(RESIDUAL_PAIRS, n)
            lo, hi = (0, k - 1) if abs(values[0]) >= abs(values[-1]) else (n - k, n - 1)
            scale = 2.0 ** -math.frexp(norm)[1]
            vals_blk, z = eigh_tridiagonal(scale * d, scale * e, select="i", select_range=(lo, hi), lapack_driver="stebz")
            if len(vals_blk) != k:
                raise SolverError(f"dstebz found {len(vals_blk)} eigenvalues for the index range [{lo}, {hi}]")
            vecs_blk = _back_transform(c, tau, z)
    except LinAlgError as exc:
        raise SolverError(f"tridiagonal eigensolve failed on a {n} x {n} problem: {exc}") from exc
    finally:
        _mirror_lower(m)
        np.fill_diagonal(m, diag)

    metadata = dict(op.metadata)
    if checked:
        # scale M q through scipy's BLAS, like every LAPACK call above: m.T
        # is M in Fortran order, since M is symmetric; a NaN fails the check
        resid = np.linalg.norm(blas.dgemm(scale, m.T, vecs_blk) - vecs_blk * vals_blk, axis=0) / scale
        if not np.all(resid <= RESIDUAL_TOL * norm):
            raise SolverError(
                f"eigenpair residual {resid.max():g} exceeds {RESIDUAL_TOL:g} * ||M|| "
                f"(||M|| = {norm:g}, size {n})"
            )
        agree = np.abs(vals_blk / scale - values[lo : hi + 1]).max()
        if not agree <= RESIDUAL_TOL * norm:
            raise SolverError(
                f"bisection and dsterf eigenvalues differ by {agree:g} on the "
                f"checked block (||M|| = {norm:g}, size {n})"
            )
        metadata.update(
            residual_rel=float(resid.max()) / norm,
            bisection_gap_rel=float(agree) / norm,
            checked_range=(lo, hi),
        )

    floor = EIGENVALUE_FLOOR_FACTOR * norm
    return EigenReport(
        positive=values[values > floor][::-1],  # dsterf's values ascend
        negative=-values[values < -floor],
        size=n,
        floor=floor,
        route=op.route,
        metadata=metadata,
    )


def counting(report: EigenReport, lam: float, sign: str = "+") -> int:
    """Number of eigenvalues of (sign) T exceeding lam > 0."""
    if lam <= 0:
        raise ValueError("counting is defined for lam > 0")
    seq = report.sequence(sign)
    return int(np.sum(seq > lam))


@dataclass(frozen=True)
class WeylFit:
    window: tuple[int, int]  # 1-indexed, inclusive
    plateau: float
    dispersion: float  # interquartile range / plateau
    requested: tuple[int, int] | None = None  # the explicit window, if clipped

    def __post_init__(self):
        if self.window[0] < 1 or self.plateau < 0:
            raise ValueError("invalid Weyl fit")


def resolve_window(n: int, window: tuple[int, int] | None) -> tuple[int, int]:
    """1-indexed inclusive window over n eigenvalues: an explicit window
    clipped to [1, n], or DEFAULT_WINDOW_FRACTIONS of n.  A window the
    spectrum cannot fill raises SpectralWindowError; every windowed fit
    resolves its window here."""
    fractions = DEFAULT_WINDOW_FRACTIONS
    lo, hi = window if window is not None else (round(fractions[0] * n), round(fractions[1] * n))
    lo, hi = max(int(lo), 1), min(int(hi), n)
    if hi < lo:
        raise SpectralWindowError(f"window [{lo}, {hi}] is empty for {n} eigenvalues")
    return lo, hi


def _windowed_products(report: EigenReport, sign: str, window) -> tuple[np.ndarray, dict]:
    """k * lambda_k over the resolved window, and the fit's window fields:
    the window used, and the requested one when the spectrum clipped it."""
    seq = report.sequence(sign)
    lo, hi = resolve_window(len(seq), window)
    clipped = window is not None and (lo, hi) != tuple(window)
    products = np.arange(lo, hi + 1, dtype=float) * seq[lo - 1 : hi]
    return products, {"window": (lo, hi), "requested": tuple(window) if clipped else None}


def weyl_plateau(
    report: EigenReport, sign: str = "+", window: tuple[int, int] | None = None
) -> WeylFit:
    """Median of k * lambda_k over the window; dispersion is IQR / plateau.
    A plateau needs PLATEAU_MIN_COUNT eigenvalues of its sign."""
    count = len(report.sequence(sign))
    if count < PLATEAU_MIN_COUNT:
        raise SpectralWindowError(f"need at least {PLATEAU_MIN_COUNT} eigenvalues of sign {sign}, have {count}")
    products, fields = _windowed_products(report, sign, window)
    plateau = float(np.median(products))
    q1, q3 = np.percentile(products, [25, 75])
    dispersion = float((q3 - q1) / plateau) if plateau > 0 else math.inf
    return WeylFit(plateau=plateau, dispersion=dispersion, **fields)


@dataclass(frozen=True)
class DixmierEstimate:
    """Log-averaged partial sums n -> sum_{k<=n} s_k / log(n + 2)."""

    sequence: np.ndarray
    final: float

    @staticmethod
    def from_values(s: np.ndarray) -> "DixmierEstimate":
        s = np.asarray(s, dtype=float)
        if s.size == 0:
            raise ValueError("need at least one singular value")
        return _log_averaged(np.cumsum(s))


def _log_averaged(sums: np.ndarray) -> DixmierEstimate:
    """The estimate of partial sums: sums[n - 1] / log(n + 2)."""
    n = np.arange(1, len(sums) + 1, dtype=float)
    seq = sums / np.log(n + 2.0)
    return DixmierEstimate(sequence=seq, final=float(seq[-1]))


def dixmier_sequence(arg) -> DixmierEstimate:
    """Dixmier estimator for raw singular values or for a signed report.

    For an EigenReport the estimate is the difference of the positive and
    negative log-averaged sums; the shorter list is padded with zeros, so its
    partial sums saturate once it is exhausted (an empty list sums to zero),
    and the final value approximates the signed trace.
    """
    if isinstance(arg, EigenReport):
        m = max(len(arg.positive), len(arg.negative))
        if m == 0:
            raise ValueError("need at least one eigenvalue")
        cp, cn = (np.cumsum(np.pad(x, (0, m - len(x)))) for x in (arg.positive, arg.negative))
        return _log_averaged(cp - cn)
    return DixmierEstimate.from_values(np.asarray(arg, dtype=float))


@dataclass(frozen=True)
class OrderBounds:
    """inf and sup of k * lambda_k over a window: the two-sided order witness."""

    inf: float
    sup: float
    window: tuple[int, int]  # 1-indexed, inclusive
    requested: tuple[int, int] | None = None  # the explicit window, if clipped


def order_bounds(
    report: EigenReport, sign: str = "+", window: tuple[int, int] | None = None
) -> OrderBounds:
    """(inf, sup) of k * lambda_k over the window, with the window used."""
    products, fields = _windowed_products(report, sign, window)
    return OrderBounds(inf=float(products.min()), sup=float(products.max()), **fields)


@dataclass(frozen=True)
class MatchResult:
    matched: bool
    deviations_positive: np.ndarray
    deviations_negative: np.ndarray

    @property
    def worst(self) -> float:
        worst = 0.0
        for dev in (self.deviations_positive, self.deviations_negative):
            if len(dev):
                worst = max(worst, float(dev.max()))
        return worst


def spectra_match(
    a: EigenReport, b: EigenReport, top: int, rel_tol: float
) -> MatchResult:
    """Elementwise comparison of the top eigenvalues of each sign.

    Each sign is compared over min(top, len_a, len_b) entries; a sign with no
    eigenvalues on either side is skipped (floors differ between routes).
    """
    if top < 1:
        raise ValueError(f"top must be at least 1, not {top}")
    if len(a.positive) + len(a.negative) == 0 or len(b.positive) + len(b.negative) == 0:
        raise ValueError("both reports must carry some spectrum")
    devs = {}
    for sign in ("+", "-"):
        sa, sb = a.sequence(sign), b.sequence(sign)
        m = min(top, len(sa), len(sb))
        if m == 0:
            devs[sign] = np.empty(0)
            continue
        ref = np.maximum(np.abs(sa[:m]), np.abs(sb[:m]))
        devs[sign] = np.abs(sa[:m] - sb[:m]) / ref
    matched = all(len(d) == 0 or d.max() <= rel_tol for d in devs.values())
    return MatchResult(
        matched=bool(matched),
        deviations_positive=devs["+"],
        deviations_negative=devs["-"],
    )


# -- serialization -----------------------------------------------------------


def write_spectrum_csv(report: EigenReport, path) -> None:
    """Columns index, sign, lambda, k_lambda with full float precision."""
    with open(path, "w") as f:
        f.write("index,sign,lambda,k_lambda\n")
        for sign, seq in (("+", report.positive), ("-", report.negative)):
            for i, lam in enumerate(seq, start=1):
                f.write(f"{i},{sign},{float(lam)!r},{float(i * lam)!r}\n")


def read_spectrum_csv(path) -> dict[str, np.ndarray]:
    pos, neg = [], []
    with open(path) as f:
        header = f.readline()
        if not header.startswith("index,sign"):
            raise ValueError("not a spectralab spectrum file")
        for line in f:
            idx, sign, lam, _ = line.strip().split(",")
            (pos if sign == "+" else neg).append(float(lam))
    return {"+": np.array(pos), "-": np.array(neg)}
