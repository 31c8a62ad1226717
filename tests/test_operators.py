"""Operator assembly routes: closed-form examples, analytic circle oracle,
structural invariants, binary round trip."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.integrate import quad
from scipy.special import eval_legendre, k0

import spectralab as sl
from spectralab.errors import (
    BudgetError,
    DegenerateKernelError,
    NegativeDensityError,
    SolverError,
    SupportTooLargeError,
)
from spectralab.measures import PointCloudMeasure, SignedDensity
from spectralab.operators import (
    FOURIER_CHUNK_ELEMENTS,
    PANEL_ELEMENTS,
    _cholesky_frame,
    _fourier_coefficients,
    _steps,
    _table_entries,
    circle_angles,
)
from spectralab.orlicz import luxemburg_norm


def _point_mass():
    return PointCloudMeasure.from_atoms(np.zeros((1, 2)), np.ones(1), 1.0)


# -- fourier route ------------------------------------------------------------


def test_fourier_rank_one_point_mass():
    mu = _point_mass()
    op = sl.assemble_fourier_bs(mu, SignedDensity.ones(1), L=2 * math.pi, K=1)
    rep = sl.eigen_spectrum(op)
    # all phases are 1: the matrix is the rank-one outer product of a(xi),
    # so the single eigenvalue is sum a(xi)^2 / (2 pi)^2 with |xi|^2 summed
    # over the nine modes: 1 + 4/2 + 4/3 = 13/3
    expected = (13.0 / 3.0) / (2 * math.pi) ** 2
    assert len(rep.positive) == 1
    assert rep.positive[0] == pytest.approx(expected, rel=1e-12)


def test_fourier_zero_density():
    mu, _ = sl.builtin_measure("circle", {"atoms": 64})
    op = sl.assemble_fourier_bs(mu, SignedDensity(np.zeros(64)), L=8.0, K=3)
    assert np.all(op.matrix == 0)
    rep = sl.eigen_spectrum(op)
    assert len(rep.positive) == 0 and len(rep.negative) == 0


def test_fourier_hermitian_and_psd():
    mu, v = sl.builtin_measure("circle", {"atoms": 300})
    op = sl.assemble_fourier_bs(mu, v, L=8.0, K=8)
    m = op.matrix
    assert np.abs(m - m.conj().T).max() <= 1e-10
    vals = np.linalg.eigvalsh(m)
    assert vals.min() >= -1e-10 * np.abs(vals).max()


def test_fourier_self_convergence_top_eigenvalues():
    # compression depresses each eigenvalue by about 1/(pi Xi_max); between
    # K=24 and K=32 at L=8 the deficits differ by ~0.004, i.e. ~4% at the
    # tenth eigenvalue (computed), so 5% is the honest bound here
    mu, v = sl.builtin_measure("circle", {"atoms": 1200})
    tops = {}
    for K in (24, 32):
        op = sl.assemble_fourier_bs(mu, v, L=8.0, K=K)
        rep = sl.eigen_spectrum(op)
        tops[K] = rep.positive[:10]
    dev = np.abs(tops[24] - tops[32]) / tops[32]
    assert dev.max() <= 0.05
    assert dev[:3].max() <= 0.015


def test_fourier_budget_and_support_errors():
    mu, v = sl.builtin_measure("circle", {"atoms": 32})
    with pytest.raises(BudgetError):
        sl.assemble_fourier_bs(mu, v, L=8.0, K=60)
    with pytest.raises(SupportTooLargeError):
        sl.assemble_fourier_bs(mu, v, L=3.0, K=4)  # diameter 2 > L/2


# -- log kernel route -----------------------------------------------------------


# Two atoms at distance r with weights w and V = 1: the matrix is w k with
# off-diagonal o = -c log r and cell-average diagonal d = c (1 - log(r / 2)),
# c = 1 / (2 pi) in the plane, so its eigenvalues are w (d + o) and w (d - o).


def test_log_kernel_two_atoms_unit_distance():
    pos = np.array([[0.0, 0.0], [1.0, 0.0]])
    mu = PointCloudMeasure.from_atoms(pos, np.full(2, 0.5), 1.0)
    op = sl.assemble_log_kernel(mu, SignedDensity.ones(2), "pure_log")
    c = 1.0 / (2.0 * math.pi)
    assert op.metadata["log_coefficient"] == pytest.approx(c, rel=1e-15)
    assert op.matrix[0, 1] == op.matrix[1, 0] == 0.0  # log 1 = 0
    d = c * (1.0 + math.log(2.0))
    assert np.allclose(np.diag(op.matrix), 0.5 * d, rtol=1e-14, atol=0.0)


def test_log_kernel_two_atoms_distance_inv_e():
    pos = np.array([[0.0, 0.0], [math.exp(-1.0), 0.0]])
    mu = PointCloudMeasure.from_atoms(pos, np.full(2, 0.5), 1.0)
    op = sl.assemble_log_kernel(mu, SignedDensity.ones(2), "pure_log")
    c = 1.0 / (2.0 * math.pi)
    o, d = c, c * (2.0 + math.log(2.0))
    assert op.matrix[0, 1] == pytest.approx(0.5 * o, rel=1e-14)
    rep = sl.eigen_spectrum(op)
    assert len(rep.negative) == 0
    assert rep.positive == pytest.approx([0.5 * (d + o), 0.5 * (d - o)], rel=1e-12)


def test_log_kernel_circle_matches_fourier_oracle():
    # exact eigenvalues of the circle log kernel scale like 1/(2|k|): after
    # sorting, k * lambda_k ~ 1 in the quadrature-faithful window
    mu, v = sl.builtin_measure("circle", {"atoms": 2000})
    op = sl.assemble_log_kernel(mu, v, "bessel")
    rep = sl.eigen_spectrum(op)
    k = np.arange(50, 201)
    products = k * rep.positive[49:200]
    assert np.all(np.abs(products - 1.0) <= 0.05)


def test_log_kernel_bessel_top_matches_addition_theorem():
    # on the unit circle the exact Bessel-kernel eigenvalues are I_k(1) K_k(1)
    from scipy.special import iv, kv

    mu, v = sl.builtin_measure("circle", {"atoms": 1000})
    op = sl.assemble_log_kernel(mu, v, "bessel")
    rep = sl.eigen_spectrum(op)
    exact = [iv(0, 1) * kv(0, 1)] + [
        float(iv(k, 1) * kv(k, 1)) for k in (1, 1, 2, 2, 3, 3)
    ]
    exact = np.sort(np.array(exact))[::-1]
    assert np.abs(rep.positive[:7] - exact).max() / exact.max() <= 2e-3


def test_sphere_bessel_kernel_matches_funk_hecke():
    # on the unit sphere the kernel c_3 K_0(|x - y|) = k(x . y) has the
    # eigenvalue 2 pi int k(t) P_l(t) dt with multiplicity 2l + 1 (Funk-Hecke)
    c3 = sl.operators.log_kernel_coefficient(3)

    def integrand(t, ell):
        return c3 * k0(math.sqrt(2.0 - 2.0 * t)) * eval_legendre(ell, t)

    exact = []
    for ell in range(4):
        exact += [2 * math.pi * quad(integrand, -1.0, 1.0, args=(ell,), limit=200)[0]] * (2 * ell + 1)
    exact = np.sort(exact)[::-1][:10]
    mu, v = sl.builtin_measure("sphere", {"atoms": 1500})
    rep = sl.eigen_spectrum(sl.assemble_log_kernel(mu, v, "bessel"))
    assert len(rep.negative) == 0
    assert np.abs(rep.positive[:10] / exact - 1.0).max() <= 1e-2


def test_log_kernel_coincident_atoms_error():
    pos = np.zeros((2, 2))
    mu = PointCloudMeasure.from_atoms(pos, np.full(2, 0.5), 1.0)
    with pytest.raises(DegenerateKernelError):
        sl.assemble_log_kernel(mu, SignedDensity.ones(2))


def test_log_kernel_sign_framed_symmetry():
    mu, v = sl.builtin_measure("half_signed_circle", {"atoms": 400})
    op = sl.assemble_log_kernel(mu, v, "bessel")
    assert op.metadata["sign_framed"]
    rep = sl.eigen_spectrum(op)
    # V and -V play symmetric roles on the two half arcs
    assert len(rep.positive) == pytest.approx(len(rep.negative), abs=2)
    assert rep.positive[0] == pytest.approx(rep.negative[0], rel=0.05)


def test_sign_decomposition_counting():
    # positive counting of the signed operator tracks the V+ - only operator
    mu, v = sl.builtin_measure("half_signed_circle", {"atoms": 1000})
    signed = sl.eigen_spectrum(
        sl.assemble_log_kernel(mu, v, "bessel")
    )
    vplus = SignedDensity(v.positive_part)
    plus_only = sl.eigen_spectrum(
        sl.assemble_log_kernel(mu, vplus, "bessel")
    )
    lam = 0.02
    a = sl.counting(signed, lam, "+")
    b = sl.counting(plus_only, lam, "+")
    assert abs(a - b) <= 0.10 * max(a, b)


# -- reference constructions: cdist distances, S^{1/2} Sigma S^{1/2} framing --------


def _cdist_and_nn(mu):
    # the full square of cdist distances (diagonal 1.0) and each atom's
    # nearest-neighbour distance taken as its row minimum
    dist = cdist(mu.positions, mu.positions)
    np.fill_diagonal(dist, np.inf)
    nn = dist.min(axis=1)
    np.fill_diagonal(dist, 1.0)
    return dist, nn


def _cdist_kernel(mu, kernel):
    dist, nn = _cdist_and_nn(mu)
    c_log = sl.operators.log_kernel_coefficient(mu.ambient_dim)
    if kernel == "bessel":
        kern = k0(dist) / (1.0 / c_log)
        diag = c_log * (1.0 - np.log(nn / 2.0)) + c_log * (math.log(2.0) - np.euler_gamma)
    else:
        kern = c_log * (-np.log(dist))
        diag = c_log * (1.0 - np.log(nn / 2.0))
    np.fill_diagonal(kern, diag)
    return kern


def _root_scaled(kern, root):
    s = root[:, None] * kern * root[None, :]
    return 0.5 * (s + s.T)


def _eigh_sign_frame(kern, mu, v):
    # S^{1/2} Sigma S^{1/2} with S = sqrt(D) k sqrt(D), D = w |V|
    s = _root_scaled(kern, np.sqrt(mu.weights * np.abs(v.values)))
    lam, q = np.linalg.eigh(s)
    half = (q * np.sqrt(np.clip(lam, 0.0, None))) @ q.T
    return half @ (np.sign(v.values)[:, None] * half)


def _framing_case(case):
    rng = np.random.default_rng(23)
    if case == "half_signed_circle":
        mu, v = sl.builtin_measure("half_signed_circle", {"atoms": 400})
        return mu, v, "bessel"
    if case == "R2-lognormal-zeros":
        n = 300
        mu = PointCloudMeasure.from_atoms(
            rng.uniform(0.0, 1.0, size=(n, 2)), rng.lognormal(0.0, 1.0, n), 1.0
        )
        values = rng.normal(0.0, 1.0, n)
        values[rng.choice(n, 25, replace=False)] = 0.0
        return mu, SignedDensity(values), "bessel"
    n = 150
    mu = PointCloudMeasure.from_atoms(
        rng.uniform(0.0, 0.5, size=(n, 3)), rng.lognormal(0.0, 0.5, n), 2.0
    )
    return mu, SignedDensity(rng.normal(0.2, 1.0, n)), "pure_log" if case == "R3-pure-log" else "bessel"


@pytest.mark.parametrize("case", ["half_signed_circle", "R2-lognormal-zeros", "R3-pure-log", "R3-bessel"])
def test_cholesky_framing_matches_eigh_framing(case):
    mu, v, kernel = _framing_case(case)
    op = sl.assemble_log_kernel(mu, v, kernel)
    assert op.metadata["sign_framed"]
    m = op.matrix
    assert m.shape == (mu.atom_count, mu.atom_count)
    assert np.array_equal(m, m.T)
    got = np.linalg.eigvalsh(m)
    want = np.linalg.eigvalsh(_eigh_sign_frame(_cdist_kernel(mu, kernel), mu, v))
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-12 * scale
    zeros = int(np.sum(v.values == 0))
    assert int(np.sum(np.abs(got) <= 1e-12 * scale)) == zeros
    assert int(np.sum(np.abs(want) <= 1e-12 * scale)) == zeros


@pytest.mark.parametrize("radius", [2.0, 1.0])
def test_signed_density_on_indefinite_kernel_raises(radius):
    # -log|x - y| on a circle of radius >= 1 is not positive definite; the
    # smallest eigenvalue of k is -176.5 at radius 2 and -0.023 at radius 1
    mu, v = sl.builtin_measure("half_signed_circle", {"atoms": 1600, "radius": radius})
    with pytest.raises(DegenerateKernelError, match="not positive definite") as err:
        sl.assemble_log_kernel(mu, v, "pure_log")
    named = float(re.search(r"smallest eigenvalue (\S+)\)", str(err.value)).group(1))
    smallest = np.linalg.eigvalsh(_cdist_kernel(mu, "pure_log"))[0]
    assert smallest < 0
    assert named == pytest.approx(smallest, rel=1e-5)


@pytest.mark.parametrize(
    "name, params, kernel",
    [
        ("circle", {"atoms": 800}, "bessel"),
        ("sphere", {"atoms": 1000}, "pure_log"),
        ("segment", {"atoms": 500}, "pure_log"),
        ("sphere", {"atoms": 1000}, "bessel"),
    ],
)
def test_unsigned_log_kernel_bit_identical_to_cdist(name, params, kernel):
    mu, v = sl.builtin_measure(name, params)
    op = sl.assemble_log_kernel(mu, v, kernel)
    ref = _root_scaled(_cdist_kernel(mu, kernel), np.sqrt(mu.weights * v.values))
    assert np.array_equal(op.matrix, ref)


def test_log_potential_bit_identical_to_cdist():
    mu, v = sl.builtin_measure("cantor_line", {"depth": 8})
    dist, nn = _cdist_and_nn(mu)
    kern = np.log(dist)
    np.fill_diagonal(kern, np.log(nn / 2.0) - 1.0)
    ref = _root_scaled(kern, np.sqrt(mu.weights * v.values))
    assert np.array_equal(sl.assemble_log_potential(mu, v).matrix, ref)


@pytest.mark.parametrize("name", sl.measures.BUILTIN_MEASURES)
def test_tree_nearest_neighbour_distances_match_cdist(name):
    mu, _ = sl.builtin_measure(name)
    assert mu.atom_count < 20_000
    minima = np.empty(mu.atom_count)
    for i0 in range(0, mu.atom_count, 500):
        rows = cdist(mu.positions[i0 : i0 + 500], mu.positions)
        rows[np.arange(len(rows)), np.arange(i0, i0 + len(rows))] = np.inf
        minima[i0 : i0 + 500] = rows.min(axis=1)
    assert np.array_equal(mu._nn_distances, minima)


def test_boundedness_stability_across_refinements():
    # top eigenvalue / luxemburg_psi(V) stays in a factor-2 band
    ratios = []
    for atoms in (500, 1000, 2000):
        mu, v = sl.builtin_measure("circle", {"atoms": atoms})
        rep = sl.eigen_spectrum(
            sl.assemble_log_kernel(mu, v, "bessel")
        )
        ratios.append(rep.positive[0] / luxemburg_norm(v, mu, "psi").value)
    assert max(ratios) / min(ratios) <= 2.0


# -- log potential ----------------------------------------------------------------


def test_log_potential_single_atom_diagonal_rule():
    mu = _point_mass()
    op = sl.assemble_log_potential(mu, SignedDensity.ones(1))
    # no neighbor scale: the cell-average rule falls back to a unit cell
    assert op.size == 1
    assert op.matrix[0, 0] == pytest.approx(math.log(0.5) - 1.0, rel=1e-14)


def test_log_potential_scaling():
    mu, v = sl.builtin_measure("segment", {"atoms": 200})
    a = sl.eigen_spectrum(sl.assemble_log_potential(mu, v))
    doubled = SignedDensity(2.0 * v.values)
    b = sl.eigen_spectrum(sl.assemble_log_potential(mu, doubled))
    sa, sb = a.singular_values, b.singular_values
    m = min(len(sa), len(sb))
    assert np.allclose(sb[:m], 2.0 * sa[:m], rtol=1e-9)


def test_log_potential_rejects_negative_density():
    mu, v = sl.builtin_measure("half_signed_circle", {"atoms": 100})
    with pytest.raises(NegativeDensityError):
        sl.assemble_log_potential(mu, v)


def test_log_potential_cantor_order_bound():
    mu, v = sl.builtin_measure("cantor_line", {"depth": 9})
    rep = sl.eigen_spectrum(sl.assemble_log_potential(mu, v))
    s = rep.singular_values
    k = np.arange(20, 401)
    products = k * s[19:400]
    assert products.max() / products.min() <= 10.0
    assert products.max() < math.inf


# -- Steklov -------------------------------------------------------------------------


def test_steklov_lebesgue_diagonal():
    mu, v = sl.builtin_measure("circle", {"atoms": 400})
    op = sl.assemble_steklov_circle(mu, v, K=150, zero_mode="drop")
    rep = sl.eigen_spectrum(op)
    expected = np.sort(np.repeat(1.0 / np.arange(1, 151), 2))[::-1]
    assert np.abs(rep.positive - expected).max() <= 1e-12


def test_steklov_zero_density():
    mu, _ = sl.builtin_measure("circle", {"atoms": 100})
    op = sl.assemble_steklov_circle(mu, SignedDensity(np.zeros(100)), K=10)
    assert np.all(op.matrix == 0)


def test_steklov_counting_example():
    # the exact drop-policy spectrum is 1/|k| doubled; at lam = 0.1 exactly
    # the modes counted are 1 <= |k| <= 9 (1/10 is not > 0.1)
    from spectralab.spectral import EigenReport

    exact = np.sort(np.repeat(1.0 / np.arange(1, 151), 2))[::-1]
    rep = EigenReport(positive=exact, negative=np.empty(0), size=300, floor=0.0)
    assert sl.counting(rep, 0.1, "+") == 18

    # the assembled operator agrees off the knife edge
    mu, v = sl.builtin_measure("circle", {"atoms": 400})
    rep2 = sl.eigen_spectrum(sl.assemble_steklov_circle(mu, v, K=150, zero_mode="drop"))
    assert sl.counting(rep2, 0.105, "+") == 18


def test_steklov_shift_mode():
    mu, v = sl.builtin_measure("circle", {"atoms": 400})
    rep = sl.eigen_spectrum(sl.assemble_steklov_circle(mu, v, K=150, zero_mode="shift"))
    expected = np.sort(1.0 / (np.abs(np.arange(-150, 151)) + 1.0))[::-1]
    assert np.abs(rep.positive - expected).max() <= 1e-12


# -- the mode rule of the Fourier and Steklov routes ----------------------------------


def test_cutoff_zero_keeps_one_mode_unless_it_is_dropped():
    modes, a = sl.operators.fourier_modes(0, 2, 8.0)
    assert modes.tolist() == [[0, 0]] and a.tolist() == [1.0]
    modes, b = sl.operators.steklov_modes(0, "shift")
    assert modes.tolist() == [[0]] and b.tolist() == [1.0]
    with pytest.raises(ValueError, match="keeps no mode"):
        sl.operators.steklov_modes(0, "drop")


@pytest.mark.parametrize("K", [-1, -3, True])
def test_cutoff_keeping_no_mode_or_boolean_is_rejected(K):
    with pytest.raises(ValueError):
        sl.operators.fourier_modes(K, 2, 8.0)
    with pytest.raises(ValueError):
        sl.operators.steklov_modes(K, "shift")


@pytest.mark.parametrize("L", [0, -8.0, math.nan, math.inf, True, "8"])
def test_torus_period_must_be_finite_positive_real(L):
    with pytest.raises(ValueError, match="torus period"):
        sl.operators.fourier_modes(4, 2, L)


def test_mode_budget_is_checked_before_anything_is_allocated():
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="2000000 modes exceed the budget 12000"):
            sl.operators.steklov_modes(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_log_kernel_atom_budget_is_checked_before_anything_is_allocated(monkeypatch):
    # the order of a log-kernel matrix is the atom count
    monkeypatch.setattr(sl.operators, "MATRIX_BUDGET", 100)
    mu, v = sl.builtin_measure("circle", {"atoms": 100})
    assert sl.assemble_log_kernel(mu, v).size == 100

    def unreachable(*args):
        raise AssertionError("allocated past the budget")

    monkeypatch.setattr(sl.operators, "_mapped_matrix", unreachable)
    monkeypatch.setattr(sl.operators, "_nn_distances", unreachable)
    mu, v = sl.builtin_measure("circle", {"atoms": 101})
    for assemble in (sl.assemble_log_kernel, sl.operators.assemble_log_potential):
        with pytest.raises(BudgetError, match="101 atoms exceed the budget 100"):
            assemble(mu, v)


# -- real cos/sin form of the Fourier and Steklov compressions -------------------------


def _signed_cloud(rng, n, n_dim, box):
    # non-uniform weights and a signed density without symmetry, so that the
    # Fourier coefficients F(eta) have nonzero imaginary parts
    pos = rng.uniform(0.0, box, size=(n, n_dim))
    w = rng.uniform(0.2, 1.0, size=n)
    return PointCloudMeasure.from_atoms(pos, w, 1.0), SignedDensity(rng.normal(0.3, 1.0, n))


def _complex_fourier(mu, v, L, K):
    # M[xi, xi'] = a(xi) a(xi') L^{-N} sum_i w_i V_i exp(2 pi i (xi' - xi) X_i / L)
    n_dim = mu.ambient_dim
    axes = np.meshgrid(*[np.arange(-K, K + 1)] * n_dim, indexing="ij")
    xi = np.stack([m.ravel() for m in axes], axis=-1)
    a = (1.0 + (2 * math.pi / L) ** 2 * (xi**2).sum(axis=1)) ** (-n_dim / 4.0)
    e = np.exp(2j * math.pi / L * (xi @ mu.positions.T))
    m = (e.conj() * (mu.weights * v.values)) @ e.T / L**n_dim
    return a[:, None] * m * a[None, :]


def _complex_steklov(mu, v, K, zero_mode):
    # M[k, l] = b(k) b(l) (2 pi)^{-1} sum_i w_i V_i exp(i (l - k) theta_i)
    if zero_mode == "drop":
        k = np.concatenate([np.arange(-K, 0), np.arange(1, K + 1)])
        b = np.abs(k) ** -0.5
    else:
        k = np.arange(-K, K + 1)
        b = (np.abs(k) + 1.0) ** -0.5
    theta = sl.operators.circle_angles(mu)
    e = np.exp(1j * np.outer(k, theta))
    m = (e.conj() * (mu.weights * v.values)) @ e.T / (2 * math.pi)
    return b[:, None] * m * b[None, :]


def _signed_circle(rng, n):
    theta = np.sort(rng.uniform(0.0, 2 * math.pi, n))
    pos = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    mu = PointCloudMeasure.from_atoms(pos, rng.uniform(0.1, 1.0, n), 1.0)
    return mu, SignedDensity(np.cos(theta) + 0.4 * np.sin(3 * theta) + 0.2)


@pytest.mark.parametrize(
    "case",
    ["fourier-1d", "fourier-2d", "fourier-3d", "steklov-drop", "steklov-shift"],
)
def test_real_form_matches_complex_compression(case):
    rng = np.random.default_rng(11)
    if case.startswith("fourier"):
        n_dim, K = {"fourier-1d": (1, 8), "fourier-2d": (2, 5), "fourier-3d": (3, 2)}[case]
        mu, v = _signed_cloud(rng, 150, n_dim, 1.5)
        op = sl.assemble_fourier_bs(mu, v, L=4.0, K=K)
        ref = _complex_fourier(mu, v, 4.0, K)
    else:
        zero_mode = case.split("-")[1]
        mu, v = _signed_circle(rng, 200)
        op = sl.assemble_steklov_circle(mu, v, K=20, zero_mode=zero_mode)
        ref = _complex_steklov(mu, v, 20, zero_mode)
    assert np.abs(ref.imag).max() > 1e-3  # the test measure is not symmetric
    assert op.matrix.dtype == np.float64
    assert np.array_equal(op.matrix, op.matrix.T)
    got, want = np.linalg.eigvalsh(op.matrix), np.linalg.eigvalsh(ref)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_self_adjointness_check_rejects_one_bad_entry():
    # the check compares row blocks with column blocks; put the asymmetry
    # far below the diagonal, outside the first block
    m = np.zeros((1000, 1000))
    m[950, 3] = 1e-9
    with pytest.raises(ValueError, match="self-adjointness"):
        sl.AssembledOperator(matrix=m, route="fourier")
    # a complex dtype is rejected, even for an exactly Hermitian matrix
    with pytest.raises(ValueError, match="must be real, not complex128"):
        sl.AssembledOperator(matrix=np.eye(5, dtype=complex), route="fourier")


@pytest.mark.parametrize(
    "upper, lower, error, message",
    [
        (1.0, np.nextafter(1.0, 2.0), ValueError, "self-adjointness"),
        (math.nan, math.nan, SolverError, "non-finite"),
        (math.inf, math.inf, SolverError, "non-finite"),
    ],
    ids=["one_ulp", "nan", "inf_pair"],
)
def test_self_adjointness_is_exact_and_finite(upper, lower, error, message):
    # outside the first row block of the check, as above
    m = np.zeros((1000, 1000))
    m[3, 950], m[950, 3] = upper, lower
    with pytest.raises(error, match=message):
        sl.AssembledOperator(matrix=m, route="fourier")


def test_operator_keeps_the_callers_buffer():
    m = np.eye(4)
    m.flags.writeable = False
    op = sl.AssembledOperator(matrix=m, route="fourier")
    assert op.matrix is m and op.matrix.flags.writeable


# -- Fourier coefficient sums ------------------------------------------------------


def _reference_coefficients(positions, wv, L, K):
    # one atom at a time over the whole difference grid |eta|_inf <= 2K
    n_dim = positions.shape[1]
    axes = np.meshgrid(*[np.arange(-2 * K, 2 * K + 1)] * n_dim, indexing="ij")
    eta = np.stack([m.ravel() for m in axes], axis=-1)
    total = np.zeros(len(eta), dtype=complex)
    for x, w in zip(positions, wv):
        total += w * np.exp(2j * math.pi / L * (eta @ x))
    return (total / L**n_dim).reshape(axes[0].shape)


@pytest.mark.parametrize("chunks", ["below_one_chunk", "ragged_chunks"])
@pytest.mark.parametrize("n_dim, K", [(1, 8), (2, 5), (3, 2)], ids=["1d", "2d", "3d"])
def test_fourier_coefficients_match_the_per_atom_sum(n_dim, K, chunks):
    rows = [np.arange(-2 * K, 1)] + [np.arange(-2 * K, 2 * K + 1)] * (n_dim - 1)
    chunk = FOURIER_CHUNK_ELEMENTS // _table_entries(rows)
    n = chunk // 2 if chunks == "below_one_chunk" else 2 * chunk + 7
    rng = np.random.default_rng(n)
    mu, v = _signed_cloud(rng, n, n_dim, 1.5)
    wv = mu.weights * v.values
    F = _fourier_coefficients(mu.positions, wv, 4.0, K)
    ref = _reference_coefficients(mu.positions, wv, 4.0, K)
    assert np.abs(F - ref).max() <= 1e-14 * np.abs(ref).max()
    assert np.array_equal(np.flip(F), F.conj())


def _longdouble_coefficients(positions, wv, L, K):
    # the per-atom sum of _reference_coefficients with phases and sums in
    # long double, so that it grades rounding in the phases too
    n_dim = positions.shape[1]
    axes = np.meshgrid(*[np.arange(-2 * K, 2 * K + 1)] * n_dim, indexing="ij")
    eta = np.stack([m.ravel() for m in axes], axis=-1).astype(np.longdouble)
    scale = 2 * np.arccos(np.longdouble(-1)) / np.longdouble(L)
    x, w = positions.astype(np.longdouble), wv.astype(np.longdouble)
    total = np.zeros(len(eta), dtype=np.clongdouble)
    for i0 in range(0, len(x), 64):
        phase = (eta @ x[i0 : i0 + 64].T) * scale
        total += (np.cos(phase) + 1j * np.sin(phase)) @ w[i0 : i0 + 64]
    return (total / np.longdouble(L) ** n_dim).reshape(axes[0].shape)


# K = 0, 4 and 400 put 1, 9 (a perfect square) and 801 (a ragged last giant
# step) frequencies on the summed half axis
@pytest.mark.parametrize("n_dim, K", [(1, 0), (1, 4), (1, 400), (2, 0), (2, 4), (2, 16)])
def test_fourier_coefficients_match_a_long_double_reference(n_dim, K):
    if n_dim == 1:
        mu, _ = sl.builtin_measure("steklov_cantor", {"depth": 8})
        positions, L, wv = circle_angles(mu)[:, None], 2 * math.pi, mu.weights
    else:
        mu, v = _signed_cloud(np.random.default_rng(K), 300, 2, 1.5)
        positions, L, wv = mu.positions, 4.0, mu.weights * v.values
    F = _fourier_coefficients(positions, wv, L, K)
    ref = _longdouble_coefficients(positions, wv, L, K)
    assert np.abs(F - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(np.flip(F), F.conj())


@pytest.mark.parametrize("first, length", [(0, 1), (-8, 9), (-800, 801), (-32, 65), (-800, 1601)])
def test_giant_steps_cover_each_frequency_once(first, length):
    r = np.arange(first, first + length)
    B, q0, count = _steps(r)
    assert (B - 1) ** 2 < length <= B * B
    eta = (np.arange(q0, q0 + count)[:, None] * B + np.arange(B)).ravel()
    start = first - q0 * B
    assert np.array_equal(eta[start : start + length], r)
    # at most one giant step of padding at either end
    assert 0 <= start < B and len(eta) - start - length < B


@pytest.mark.parametrize("route", ["fourier-2d", "steklov"])
def test_fourier_coefficients_working_set_is_bounded(route):
    mu, _ = sl.builtin_measure("circle", {"atoms": 80_000})
    if route == "fourier-2d":
        positions, L, K = mu.positions, 8.0, 6
    else:
        positions, L, K = circle_angles(mu)[:, None], 2 * math.pi, 16
    wv = mu.weights * 1.0
    tracemalloc.start()
    try:
        _fourier_coefficients(positions, wv, L, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# -- one resident matrix per operator ------------------------------------------


def _assembly_routes():
    circle, ones = sl.builtin_measure("circle", {"atoms": 1600})
    signed = sl.builtin_measure("half_signed_circle", {"atoms": 1600})
    return {
        "logkernel": lambda: sl.assemble_log_kernel(circle, ones, "bessel"),
        "logkernel-signed": lambda: sl.assemble_log_kernel(*signed, "bessel"),
        "logpotential": lambda: sl.assemble_log_potential(circle, ones),
        "fourier": lambda: sl.assemble_fourier_bs(circle, ones, 8.0, 16),  # 1089 modes
        "steklov": lambda: sl.assemble_steklov_circle(circle, ones, 544, "shift"),  # 1089 modes
    }


@pytest.mark.parametrize("route", ["logkernel", "logkernel-signed", "logpotential", "fourier", "steklov"])
def test_assembly_working_set_is_bounded(route):
    # the matrix lives in its own mapping, which tracemalloc does not see;
    # every other allocation of the assembly is a small block temporary
    assemble = _assembly_routes()[route]
    assemble()  # builds the measure's cached tree outside the trace
    tracemalloc.start()
    try:
        op = assemble()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.size >= 1089
    assert peak < 2e6


_RSS_SCRIPT = """
import json, numpy as np, spectralab as sl

def rss():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) * 1024 for line in f if line.startswith("VmRSS:"))

big = np.ones(32_000_000 // 8)  # freeing it raises glibc's mmap threshold to 32 MB
del big
mu, v = sl.builtin_measure("circle", {"atoms": 1600})
op = sl.assemble_log_kernel(mu, v)
nbytes, before = op.matrix.nbytes, rss()
del op
print(json.dumps({"nbytes": nbytes, "released": before - rss()}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmRSS from /proc")
def test_freed_operator_matrix_returns_to_the_os():
    # a 20 MB matrix below glibc's raised mmap threshold would come from the
    # brk heap and stay resident after it is freed
    src = str(Path(sl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", _RSS_SCRIPT], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["released"] >= 0.9 * got["nbytes"]


@pytest.mark.parametrize("n", [1, 7, 700])
def test_cholesky_frame_is_the_weighted_product(n):
    # 700 rows span several column panels; d has both signs and zeros
    rng = np.random.default_rng(n)
    c = np.tril(rng.standard_normal((n, n))) + n * np.eye(n)
    d = rng.normal(0.0, 1.0, n)
    d[::5] = 0.0
    m = np.ascontiguousarray(c.T)  # row i holds column i of c
    assert n < 100 or 3 * (PANEL_ELEMENTS // n) < n  # several panels
    _cholesky_frame(m, d)
    want = c.T @ (d[:, None] * c)
    assert np.array_equal(m, m.T)
    assert np.abs(m - want).max() <= 1e-13 * np.abs(want).max()
