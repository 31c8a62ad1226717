"""Spectral functionals on synthetic sequences with direct-summation oracles."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import scipy.linalg as sla

import spectralab as sl
from spectralab import measures, operators, spectral
from spectralab.errors import SolverError, SpectralWindowError
from spectralab.operators import AssembledOperator
from spectralab.spectral import (
    DixmierEstimate,
    EigenReport,
    dixmier_sequence,
    order_bounds,
    read_spectrum_csv,
    spectra_match,
    weyl_plateau,
    write_spectrum_csv,
)


def _report_from(values, size=None):
    values = np.asarray(values, dtype=float)
    pos = np.sort(values[values > 0])[::-1]
    neg = np.sort(-values[values < 0])[::-1]
    return EigenReport(
        positive=pos, negative=neg, size=size or len(values), floor=0.0
    )


# -- eigen_spectrum -----------------------------------------------------------


def test_eigen_spectrum_diagonal():
    op = AssembledOperator(matrix=np.diag([3.0, 1.0, -2.0]), route="logkernel")
    rep = sl.eigen_spectrum(op)
    assert np.allclose(rep.positive, [3.0, 1.0])
    assert np.allclose(rep.negative, [2.0])
    assert rep.size == 3


def test_eigen_spectrum_zero_matrix():
    op = AssembledOperator(matrix=np.zeros((4, 4)), route="logkernel")
    rep = sl.eigen_spectrum(op)
    assert len(rep.positive) == 0 and len(rep.negative) == 0


def test_eigen_spectrum_two_by_two():
    op = AssembledOperator(matrix=np.array([[0.0, 0.5], [0.5, 0.0]]), route="logkernel")
    rep = sl.eigen_spectrum(op)
    assert rep.positive[0] == pytest.approx(0.5, rel=1e-14)
    assert rep.negative[0] == pytest.approx(0.5, rel=1e-14)


def test_eigen_spectrum_permutation_invariant():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((40, 40))
    m = a + a.T
    perm = rng.permutation(40)
    op1 = AssembledOperator(matrix=m, route="logkernel")
    op2 = AssembledOperator(matrix=m[np.ix_(perm, perm)], route="logkernel")
    r1, r2 = sl.eigen_spectrum(op1), sl.eigen_spectrum(op2)
    assert np.abs(r1.positive - r2.positive).max() <= 1e-10
    assert np.abs(r1.negative - r2.negative).max() <= 1e-10


def _floored(values):
    """Reference eigenvalues split by sign above the solver's floor."""
    floor = spectral.EIGENVALUE_FLOOR_FACTOR * np.abs(values).max(initial=0.0)
    pos = np.sort(values[values > floor])[::-1]
    neg = np.sort(-values[values < -floor])[::-1]
    return pos, neg


def test_eigen_spectrum_of_a_float32_matrix():
    # held as float64: a single-precision reduction would miss the residual bound
    rng = np.random.default_rng(3)
    a = rng.standard_normal((200, 200)).astype(np.float32)
    m = a + a.T
    rep = sl.eigen_spectrum(AssembledOperator(matrix=m, route="logkernel"))
    pos, neg = _floored(np.linalg.eigvalsh(m.astype(float)))
    scale = max(pos.max(), neg.max())
    assert len(rep.positive) == len(pos) and len(rep.negative) == len(neg)
    assert np.abs(rep.positive - pos).max() <= 1e-13 * scale
    assert np.abs(rep.negative - neg).max() <= 1e-13 * scale


def test_eigen_spectrum_records_the_check_margins():
    n = 60
    op = _positive_definite_op(n)
    op.metadata["cutoff"] = 7
    rep = sl.eigen_spectrum(op)
    # a positive definite matrix is checked at its top end
    assert rep.metadata["checked_range"] == (n - spectral.RESIDUAL_PAIRS, n - 1)
    assert 0 <= rep.metadata["residual_rel"] < 1e-12
    assert 0 <= rep.metadata["bisection_gap_rel"] < 1e-12
    # the report's metadata is the check's margins alone; the operator's stays put
    assert set(rep.metadata) == {"checked_range", "residual_rel", "bisection_gap_rel"}
    assert op.metadata == {"cutoff": 7}


@pytest.mark.parametrize("matrix", [np.array([[2.5]]), np.zeros((4, 4))], ids=["one_by_one", "zero"])
def test_eigen_spectrum_records_no_margins_when_nothing_is_checked(matrix):
    rep = sl.eigen_spectrum(AssembledOperator(matrix=matrix, route="logkernel"))
    assert not {"residual_rel", "bisection_gap_rel", "checked_range"} & rep.metadata.keys()


def _circle_op():
    mu, v = measures.builtin_measure("circle", {"atoms": 300})
    return operators.assemble_log_kernel(mu, v, "bessel")


def _sphere_op():
    mu, v = measures.builtin_measure("sphere", {"atoms": 400})
    return operators.assemble_log_kernel(mu, v)


def _steklov_op():
    mu, v = measures.builtin_measure("steklov_cantor", {"depth": 8})
    return operators.assemble_steklov_circle(mu, v, 100, "shift")


@pytest.mark.parametrize(
    "build", [_circle_op, _sphere_op, _steklov_op], ids=["circle", "sphere", "steklov"]
)
def test_eigen_spectrum_bit_identical_to_divide_and_conquer(build):
    # dsyevd without vectors is the same reduction followed by dsterf
    op = build()
    ref = sla.eigh(op.matrix, eigvals_only=True, driver="evd")
    pos, neg = _floored(ref)
    rep = sl.eigen_spectrum(op)
    assert np.array_equal(rep.positive, pos)
    assert np.array_equal(rep.negative, neg)


def test_eigen_spectrum_split_tridiagonal():
    # a diagonal matrix reduces to e = 0: every block of T is 1 x 1
    diag = np.array([4.0, -1.0, 0.5, 4.0, -3.0, 2.0, 0.25, -1.0])
    rep = sl.eigen_spectrum(AssembledOperator(matrix=np.diag(diag), route="logkernel"))
    assert np.array_equal(rep.positive, [4.0, 4.0, 2.0, 0.5, 0.25])
    assert np.array_equal(rep.negative, [3.0, 1.0, 1.0])


def test_eigen_spectrum_degenerate_checked_block():
    # a ten-fold top eigenvalue: the five checked pairs cut through the
    # cluster, and inverse iteration must still return orthogonal vectors
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((50, 50)))
    lam = np.concatenate([np.full(10, 5.0), np.linspace(-1.0, 1.0, 40)])
    m = (q * lam) @ q.T
    rep = sl.eigen_spectrum(AssembledOperator(matrix=0.5 * (m + m.T), route="logkernel"))
    assert np.abs(rep.positive[:10] - 5.0).max() <= 1e-13
    assert rep.positive[10] < 1.0 + 1e-13


@pytest.mark.parametrize("entry", [2.5, -0.75, 0.0])
def test_eigen_spectrum_one_by_one(entry):
    rep = sl.eigen_spectrum(AssembledOperator(matrix=np.array([[entry]]), route="logkernel"))
    assert list(rep.positive) == ([entry] if entry > 0 else [])
    assert list(rep.negative) == ([-entry] if entry < 0 else [])
    assert rep.size == 1


def _positive_definite_op(n=60):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((n, n))
    return AssembledOperator(matrix=a @ a.T + np.eye(n), route="logkernel")


@pytest.mark.parametrize("p", [500, 600, -500, -600, -900])
def test_eigen_spectrum_checks_a_matrix_at_any_scale(p):
    # entries near 2^p * 60: the check's margins, relative to ||M||, do not
    # move with the scale, nor do the eigenvalues over 2^p
    base = sl.eigen_spectrum(_positive_definite_op())
    op = _positive_definite_op()
    op.matrix[:] *= 2.0**p
    rep = sl.eigen_spectrum(op)
    assert rep.metadata["residual_rel"] == pytest.approx(base.metadata["residual_rel"], rel=1e-3, abs=0)
    assert 0 <= rep.metadata["bisection_gap_rel"] < 1e-12
    assert np.abs(rep.positive / 2.0**p - base.positive).max() <= 1e-13 * base.positive.max()


def test_eigen_spectrum_below_the_normal_range_is_solver_error():
    # ||M|| near 2e-316 lies below the smallest normal double, where the
    # power of two that scales it into [1/2, 1) overflows
    op = _positive_definite_op()
    op.matrix[:] *= 1e-318
    before = op.matrix.tobytes()
    with pytest.raises(SolverError, match="below the normal range"):
        sl.eigen_spectrum(op)
    assert op.matrix.tobytes() == before


def test_eigen_spectrum_agreement_check_fires(monkeypatch):
    # the checked block is the top end; moving the largest dsterf eigenvalue
    # by 1e-6 relative leaves bisection on its own
    solve = spectral.eigh_tridiagonal

    def corrupted(d, e, **kwargs):
        result = solve(d, e, **kwargs)
        if kwargs.get("eigvals_only"):
            result = result.copy()
            result[-1] *= 1.0 + 1e-6
        return result

    monkeypatch.setattr(spectral, "eigh_tridiagonal", corrupted)
    op = _positive_definite_op()
    before = op.matrix.tobytes()
    with pytest.raises(SolverError, match="bisection and dsterf"):
        sl.eigen_spectrum(op)
    assert op.matrix.tobytes() == before


@pytest.mark.parametrize("eigvals_only", [True, False], ids=["dsterf", "dstebz"])
def test_eigen_spectrum_tridiagonal_failure_is_solver_error(monkeypatch, eigvals_only):
    # a LAPACK failure of either tridiagonal solve surfaces as SolverError,
    # and the matrix reduced in place is restored bit for bit
    solve = spectral.eigh_tridiagonal

    def failing(d, e, **kwargs):
        if kwargs.get("eigvals_only", False) == eigvals_only:
            raise sla.LinAlgError("stein (eigh_tridiagonal) 1 eigenvectors failed to converge")
        return solve(d, e, **kwargs)

    monkeypatch.setattr(spectral, "eigh_tridiagonal", failing)
    op = _positive_definite_op()
    before = op.matrix.tobytes()
    with pytest.raises(SolverError, match="failed to converge"):
        sl.eigen_spectrum(op)
    assert op.matrix.tobytes() == before


def test_eigen_spectrum_residual_check_fires(monkeypatch):
    # dropping the first reflector leaves T and every eigenvalue intact but
    # back-transforms the checked vectors wrongly
    reduce = spectral._tridiagonalize

    def corrupted(m):
        c, d, e, tau = reduce(m)
        tau = tau.copy()
        tau[0] = 0.0
        return c, d, e, tau

    monkeypatch.setattr(spectral, "_tridiagonalize", corrupted)
    op = _positive_definite_op()
    before = op.matrix.tobytes()
    with pytest.raises(SolverError, match="eigenpair residual"):
        sl.eigen_spectrum(op)
    assert op.matrix.tobytes() == before


def _half_signed_op():
    mu, v = measures.builtin_measure("half_signed_circle", {"atoms": 300})
    return operators.assemble_log_kernel(mu, v, "bessel")


@pytest.mark.parametrize(
    "build",
    [_circle_op, _sphere_op, _half_signed_op, _steklov_op],
    ids=["circle", "sphere", "half_signed_circle", "steklov"],
)
def test_eigen_spectrum_restores_the_matrix_bit_for_bit(build):
    # the reduction runs in place on op.matrix and gives it back
    op = build()
    before = op.matrix.tobytes()
    sl.eigen_spectrum(op)
    assert op.matrix.tobytes() == before


def test_eigen_spectrum_forms_no_second_matrix():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((1000, 1000))
    op = AssembledOperator(matrix=a + a.T, route="logkernel")
    tracemalloc.start()
    try:
        sl.eigen_spectrum(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * op.matrix.nbytes


def _per_reflector_back_transform(c, tau, z):
    # Q z reflector by reflector, last reflector first
    n = c.shape[0]
    x = np.array(z, dtype=c.dtype)
    for i in range(n - 2, -1, -1):
        v = np.concatenate([[1.0], c[i + 2 :, i]])
        x[i + 1 :] -= np.outer(v, tau[i] * (v @ x[i + 1 :]))
    return x


def _symmetric(kind, n):
    rng = np.random.default_rng(n)
    if kind == "diagonal":  # every reflector has tau = 0
        return np.diag(rng.standard_normal(n))
    a = rng.standard_normal((n, n))
    return a + a.T


@pytest.mark.parametrize("n", [2, 3, 33, 65, 129, 200])
@pytest.mark.parametrize("kind", ["real", "diagonal"])
def test_blocked_back_transform_matches_per_reflector(kind, n):
    # sizes below, at and across the 32-column blocks that dormqr applies
    # its reflectors in
    m = _symmetric(kind, n)
    c, d, e, tau = spectral._tridiagonalize(np.array(m, order="F"))
    if kind == "diagonal":
        assert not np.any(tau)
    z = np.random.default_rng(0).standard_normal((n, 5))
    want = _per_reflector_back_transform(c, tau, z)
    got = spectral._back_transform(c, tau, z)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    # Q is orthogonal and reduces m to the tridiagonal
    q = spectral._back_transform(c, tau, np.eye(n))
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-13
    assert np.abs(q.T @ m @ q - t).max() <= 1e-12 * np.abs(m).max()


def test_back_transform_copies_no_panel_of_the_reflectors():
    # one dormqr call reads the reflectors where the reduction left them:
    # less than one 32-column panel of c is allocated
    n = 2000
    c, d, e, tau = spectral._tridiagonalize(np.array(_symmetric("real", n), order="F"))
    z = np.random.default_rng(0).standard_normal((n, 5))
    tracemalloc.start()
    try:
        spectral._back_transform(c, tau, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 32 * 8


@pytest.mark.parametrize("n", [1, 2])
def test_back_transform_of_one_column(n):
    # no reflector (n = 1) and a single one (n = 2, with tau = 0 for a real matrix)
    m = _symmetric("real", n)
    c, d, e, tau = spectral._tridiagonalize(np.array(m, order="F"))
    z = np.random.default_rng(0).standard_normal((n, 1))
    want = _per_reflector_back_transform(c, tau, z)
    got = spectral._back_transform(c, tau, z)
    assert got.shape == (n, 1)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


# numpy and scipy link separate OpenBLAS builds, each with its own thread
# pool; a numpy product next to scipy's LAPACK leaves numpy's threads
# spinning on the cores that LAPACK runs on
NUMPY_BLAS_CALLS = {"dot", "matmul", "inner", "vdot", "tensordot"}


@pytest.mark.parametrize("module", [spectral, operators], ids=["spectral", "operators"])
def test_dense_products_run_through_scipys_blas_only(module):
    tree = ast.parse(Path(module.__file__).read_text())
    found = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
        and node.func.attr in NUMPY_BLAS_CALLS
    )
    assert found == []


# -- counting -------------------------------------------------------------------


def test_counting_examples():
    rep = _report_from([3.0, 1.0, 0.5])
    assert sl.counting(rep, 0.7, "+") == 2
    assert sl.counting(rep, 5.0, "+") == 0
    with pytest.raises(ValueError):
        sl.counting(rep, -1.0, "+")


def test_counting_staircase_property():
    rng = np.random.default_rng(1)
    vals = np.sort(rng.uniform(0.1, 5.0, 30))[::-1]
    rep = _report_from(vals)
    # counting(lam) = k exactly when lambda_k > lam >= lambda_{k+1}
    for k in (1, 7, 29):
        lam = vals[k - 1] * 0.999 if k == 30 else (vals[k - 1] + vals[k]) / 2 if k < 30 else 0.0
        assert sl.counting(rep, lam, "+") == k
    # right-continuity / monotonicity
    lams = np.linspace(0.05, 6.0, 200)
    counts = [sl.counting(rep, t, "+") for t in lams]
    assert np.all(np.diff(counts) <= 0)


# -- weyl plateau -----------------------------------------------------------------


def test_plateau_exact_c_over_k():
    c = 0.7
    vals = c / np.arange(1, 1001)
    rep = _report_from(vals)
    fit = weyl_plateau(rep)
    assert fit.plateau == pytest.approx(c, rel=1e-12)
    assert fit.dispersion == pytest.approx(0.0, abs=1e-12)


def test_plateau_with_lower_order_term():
    # direct evaluation: the median of k*(1/k + 10/k^2) over [0.05n, 0.25n]
    # is 1 + 10/(0.15 n), so the plateau reaches 2% of 1 around n ~ 3e3
    for n, tol in ((1000, 0.07), (10_000, 0.02)):
        k = np.arange(1, n + 1)
        rep = _report_from(1.0 / k + 10.0 / k**2)
        fit = weyl_plateau(rep)
        assert fit.plateau == pytest.approx(1.0 + 10.0 / (0.15 * n), rel=0.01)
        assert fit.plateau == pytest.approx(1.0, rel=tol)


def test_plateau_explicit_window_and_errors():
    vals = 1.0 / np.arange(1, 101)
    rep = _report_from(vals)
    fit = weyl_plateau(rep, window=(10, 50))
    assert fit.window == (10, 50)
    with pytest.raises(SpectralWindowError):
        weyl_plateau(_report_from([1.0, 0.5]))  # fewer than 40 eigenvalues


@pytest.mark.parametrize("fit", [weyl_plateau, order_bounds], ids=["weyl_plateau", "order_bounds"])
def test_windowed_fits_return_the_window_they_used(fit):
    rep = _report_from(1.0 / np.arange(1, 101))
    assert fit(rep, window=(10, 50)).window == (10, 50)
    assert fit(rep, window=(10, 50)).requested is None
    assert fit(rep).window == (5, 25) and fit(rep).requested is None
    clipped = fit(rep, window=(10, 300))
    assert clipped.window == (10, 100) and clipped.requested == (10, 300)
    with pytest.raises(SpectralWindowError):
        fit(rep, window=(101, 300))  # starts past the spectrum
    with pytest.raises(SpectralWindowError):
        fit(rep, "-")  # no negative eigenvalues


# -- dixmier ------------------------------------------------------------------------


def test_dixmier_harmonic_sequence_oracle():
    # direct-summation oracle: H_n / log(n + 2); at n = 10^6 this sits 4.2%
    # above 1 because of the Euler-Mascheroni offset
    n = 10**6
    s = 1.0 / np.arange(1.0, n + 1.0)
    est = dixmier_sequence(s)
    oracle = float(np.cumsum(s)[-1] / math.log(n + 2))
    assert est.final == pytest.approx(oracle, rel=1e-12)
    assert est.final == pytest.approx(1.041780, abs=1e-5)


def test_dixmier_square_summable_sequence():
    n = 10**4
    s = 1.0 / np.arange(1.0, n + 1.0) ** 2
    est = dixmier_sequence(s)
    oracle = float(np.sum(s) / math.log(n + 2))
    assert est.final == pytest.approx(oracle, rel=1e-12)
    assert est.final == pytest.approx(0.17859, abs=1e-4)
    # the sequence decays toward zero as n grows
    assert est.sequence[-1] < est.sequence[99]


def test_dixmier_alternating_weight_sequence():
    n = 10**6
    k = np.arange(1.0, n + 1.0)
    s = (2.0 + (-1.0) ** k) / k
    est = dixmier_sequence(s)
    oracle = float(np.cumsum(s)[-1] / math.log(n + 2))
    assert est.final == pytest.approx(oracle, rel=1e-12)
    assert abs(est.final - 2.0) / 2.0 <= 0.03  # within 3% of 2
    assert est.final == pytest.approx(2.03338, abs=1e-4)


def test_dixmier_signed_report():
    pos = 1.0 / np.arange(1.0, 501.0)
    neg = 0.5 / np.arange(1.0, 301.0)
    rep = EigenReport(positive=pos, negative=neg, size=800, floor=0.0)
    est = dixmier_sequence(rep)
    cp = np.concatenate([np.cumsum(pos), np.full(0, 0.0)])
    # saturated partial sums oracle
    total = (np.cumsum(pos)[-1] - np.cumsum(neg)[-1]) / math.log(500 + 2)
    assert est.final == pytest.approx(total, rel=1e-12)


def _three_branch_dixmier(pos, neg):
    """The signed Dixmier sequence with one branch per sign pattern."""
    if len(neg) == 0:
        return np.cumsum(pos) / np.log(np.arange(1, len(pos) + 1, dtype=float) + 2.0)
    if len(pos) == 0:
        return -(np.cumsum(neg) / np.log(np.arange(1, len(neg) + 1, dtype=float) + 2.0))
    m = max(len(pos), len(neg))
    cp, cn = np.cumsum(pos), np.cumsum(neg)
    cp = np.concatenate([cp, np.full(m - len(cp), cp[-1])])
    cn = np.concatenate([cn, np.full(m - len(cn), cn[-1])])
    return (cp - cn) / np.log(np.arange(1, m + 1, dtype=float) + 2.0)


def test_dixmier_signed_report_is_one_formula_for_every_sign_pattern():
    rng = np.random.default_rng(7)
    sizes = [(0, 5), (5, 0), (1, 1), (3, 40), (40, 3)] + [tuple(rng.integers(0, 60, 2)) for _ in range(300)]
    for n_pos, n_neg in sizes:
        if n_pos + n_neg == 0:
            continue
        pos = np.sort(rng.lognormal(-3.0, 2.0, n_pos))[::-1]
        neg = np.sort(rng.lognormal(-3.0, 2.0, n_neg))[::-1]
        got = dixmier_sequence(EigenReport(positive=pos, negative=neg, size=n_pos + n_neg, floor=0.0))
        want = _three_branch_dixmier(pos, neg)
        assert np.array_equal(got.sequence, want) and np.array_equal(np.signbit(got.sequence), np.signbit(want))
        assert got.final == want[-1]
    with pytest.raises(ValueError):
        dixmier_sequence(EigenReport(positive=np.empty(0), negative=np.empty(0), size=1, floor=0.0))


def test_eigen_report_sequence_reads_only_sign_symbols():
    rep = _report_from([2.0, 1.0, -1.0])
    assert np.array_equal(rep.sequence("+"), [2.0, 1.0]) and np.array_equal(rep.sequence("-"), [1.0])
    for alias in ("plus", "positive", "minus", "negative"):
        with pytest.raises(ValueError):
            rep.sequence(alias)


# -- order bounds ----------------------------------------------------------------------


def test_order_bounds_exact_law():
    c = 1.3
    rep = _report_from(c / np.arange(1, 501))
    bounds = order_bounds(rep, "+", window=(20, 400))
    lo, hi = bounds.inf, bounds.sup
    assert lo == pytest.approx(c, rel=1e-12)
    assert hi == pytest.approx(c, rel=1e-12)


def test_order_bounds_wrong_decay_flagged():
    k = np.arange(1, 2001)
    rep = _report_from(1.0 / k**1.5)
    bounds1 = order_bounds(rep, "+", window=(10, 100))
    lo1, hi1 = bounds1.inf, bounds1.sup
    bounds2 = order_bounds(rep, "+", window=(10, 1000))
    lo2, hi2 = bounds2.inf, bounds2.sup
    assert hi2 / lo2 > hi1 / lo1  # ratio grows with window width


# -- spectra match ---------------------------------------------------------------------


def test_spectra_match_self():
    rep = _report_from(1.0 / np.arange(1, 101))
    res = spectra_match(rep, rep, top=30, rel_tol=1e-12)
    assert res.matched


def test_spectra_match_detects_difference():
    a = _report_from(1.0 / np.arange(1, 101))
    b = _report_from(1.3 / np.arange(1, 101))
    res = spectra_match(a, b, top=10, rel_tol=0.1)
    assert not res.matched
    assert res.worst > 0.2


@pytest.mark.parametrize("top", [0, -1])
def test_spectra_match_compares_at_least_one_eigenvalue(top):
    # top 0 compared nothing and matched spectra five-fold apart; top -1
    # compared every eigenvalue but the last
    a = _report_from(1.0 / np.arange(1, 101))
    b = _report_from(5.0 / np.arange(1, 101))
    with pytest.raises(ValueError, match="top must be at least 1"):
        spectra_match(a, b, top=top, rel_tol=0.1)


# -- consistency invariant ----------------------------------------------------------------


def test_weyl_dixmier_consistency_on_circle():
    mu, v = sl.builtin_measure("circle", {"atoms": 1000})
    rep = sl.eigen_spectrum(
        sl.assemble_log_kernel(mu, v, "bessel")
    )
    fit = weyl_plateau(rep)
    if fit.dispersion <= 0.05:
        dix = DixmierEstimate.from_values(rep.positive).final
        assert abs(dix / fit.plateau - 1.0) <= 0.10


# -- serialization ---------------------------------------------------------------------------


def test_spectrum_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    vals = np.concatenate([rng.uniform(0.001, 5, 50), -rng.uniform(0.001, 2, 20)])
    rep = _report_from(vals)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(rep, path)
    back = read_spectrum_csv(path)
    assert np.array_equal(back["+"], rep.positive)
    assert np.array_equal(back["-"], rep.negative)


def test_plotdata_constant_for_exact_law(tmp_path):
    # lambda_k = 1/k makes the second weyl.dat column exactly 1
    from spectralab.cli.experiment import ExperimentConfig, ExperimentReport, emit_report

    rep = _report_from(1.0 / np.arange(1, 101))
    cfg = ExperimentConfig.from_dict({"scenario": "circle"})
    dummy = ExperimentReport(
        config=cfg,
        measure={},
        norms={},
        prediction={},
        solves={"primary": rep},
        spectral_summary={},
        verdicts=[],
        timings={},
    )
    emit_report(dummy, tmp_path)
    rows = [
        line.split() for line in (tmp_path / "weyl.dat").read_text().splitlines()[1:]
    ]
    second = np.array([float(r[1]) for r in rows])
    assert np.allclose(second, 1.0, atol=1e-12)
