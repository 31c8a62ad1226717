"""Property tests of the ball statistics (permutation invariance,
monotonicity in the radius, additivity over unions), of the Orlicz norms
(scaling of the measure) and of the operator routes (scaling of the spectrum
with the measure; the same spectrum after rotating a Steklov measure or
translating a Fourier cloud; dilating a circle; counting functions over a
union of separated circles)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh

import spectralab as sl
from spectralab.measures import nearest_neighbor_spacing
from spectralab.orlicz import averaged_norm, luxemburg_norm

ROUNDING = 1e-12

clouds = st.tuples(
    st.integers(min_value=2, max_value=300),  # atoms
    st.sampled_from([1, 2, 3]),  # ambient dimension
    st.integers(min_value=0, max_value=2**32 - 1),  # seed
)


def _cloud(n, dim, rng, shift=0.0):
    positions = rng.random((n, dim))
    positions[:, 0] += shift
    return sl.PointCloudMeasure.from_atoms(positions, rng.lognormal(0.0, 1.0, n), float(dim))


def _radii(rng, k=5, lo=0.01, hi=2.0):
    return np.sort(rng.uniform(lo, hi, k))


@settings(max_examples=40, deadline=None)
@given(clouds)
def test_ball_statistics_invariant_under_permutation(cloud):
    n, dim, seed = cloud
    rng = np.random.default_rng(seed)
    mu = _cloud(n, dim, rng)
    perm = rng.permutation(n)
    shuffled = sl.PointCloudMeasure.from_atoms(mu.positions[perm], mu.weights[perm], float(dim))
    center = rng.random(dim)
    for r in _radii(rng):
        np.testing.assert_allclose(
            sl.ball_mass(shuffled, center, r), sl.ball_mass(mu, center, r), rtol=ROUNDING, atol=0.0
        )
    # with every atom a center, the sampled set does not depend on the order
    radii = 4.0 * nearest_neighbor_spacing(mu) * (1.0 + _radii(rng, lo=0.0, hi=20.0))
    band = sl.ahlfors_constants(mu, s=dim, radii=radii, sample_count=n)
    other = sl.ahlfors_constants(shuffled, s=dim, radii=radii, sample_count=n)
    np.testing.assert_allclose(
        [other.c_lower, other.c_upper], [band.c_lower, band.c_upper], rtol=ROUNDING, atol=0.0
    )


@settings(max_examples=40, deadline=None)
@given(clouds)
def test_random_cloud_ball_mass_monotone_in_radius(cloud):
    n, dim, seed = cloud
    rng = np.random.default_rng(seed)
    mu = _cloud(n, dim, rng)
    center = rng.random(dim)
    masses = np.array([sl.ball_mass(mu, center, r) for r in _radii(rng, k=12)])
    # sums over nested atom sets, each in its own order: monotone to rounding
    assert np.all(np.diff(masses) >= -ROUNDING * mu.total_mass)
    assert masses[-1] <= mu.total_mass * (1.0 + ROUNDING)


@settings(max_examples=40, deadline=None)
@given(clouds, st.integers(min_value=1, max_value=300))
def test_ball_mass_additive_over_disjoint_union(cloud, m):
    n, dim, seed = cloud
    rng = np.random.default_rng(seed)
    a = _cloud(n, dim, rng)
    b = _cloud(m, dim, rng, shift=1.5)  # disjoint from a
    union, _ = sl.union_measure(
        [(a, sl.SignedDensity.ones(n)), (b, sl.SignedDensity.ones(m))]
    )
    center = rng.random(dim) * np.r_[2.5, np.ones(dim - 1)]
    for r in _radii(rng):
        np.testing.assert_allclose(
            sl.ball_mass(union, center, r),
            sl.ball_mass(a, center, r) + sl.ball_mass(b, center, r),
            rtol=ROUNDING,
            atol=0.0,
        )


def _route_operator(route, mu, v):
    if route == "logkernel":
        return sl.assemble_log_kernel(mu, v, "bessel")
    if route == "fourier":
        return sl.assemble_fourier_bs(mu, v, L=8.0, K=5)
    return sl.assemble_steklov_circle(mu, v, K=20, zero_mode="drop")


@pytest.mark.parametrize("route", ["logkernel", "fourier", "steklov"])
@pytest.mark.parametrize("signed", [False, True], ids=["positive", "signed"])
@settings(max_examples=12, deadline=None)
@given(c=st.floats(min_value=1e-3, max_value=1e3))
def test_scaling_the_measure_scales_every_eigenvalue(route, signed, c):
    # T is linear in the measure: mu -> c mu multiplies the operator, and so
    # every eigenvalue, by c
    theta = 2 * math.pi * (np.arange(300) + 0.5) / 300
    positions = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    weights = np.random.default_rng(7).uniform(0.5, 1.5, 300) * 2 * math.pi / 300
    v = sl.SignedDensity(np.cos(theta) + (0.3 if signed else 1.5))
    mu = sl.PointCloudMeasure.from_atoms(positions, weights, 1.0)
    scaled = sl.PointCloudMeasure.from_atoms(positions, c * weights, 1.0)
    base = np.linalg.eigvalsh(_route_operator(route, mu, v).matrix)
    got = np.linalg.eigvalsh(_route_operator(route, scaled, v).matrix)
    assert np.abs(got - c * base).max() <= 1e-12 * c * np.abs(base).max()


@settings(max_examples=40, deadline=None)
@given(k=st.integers(min_value=-100, max_value=100), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_orlicz_norms_under_a_scaled_measure(k, seed):
    # weights 10^k w reach Young-function arguments V / s near 1e-50 (psi's
    # series) and Luxemburg roots near 1e-98 times V, hundreds of halvings
    rng = np.random.default_rng(seed)
    positions = rng.random((50, 2))
    weights = rng.uniform(0.5, 1.5, 50) / 50
    v = sl.SignedDensity(rng.uniform(0.1, 2.0, 50))
    mu = sl.PointCloudMeasure.from_atoms(positions, weights, 1.0)
    scaled = sl.PointCloudMeasure.from_atoms(positions, 10.0**k * weights, 1.0)
    for which in ("psi", "phi"):
        assert luxemburg_norm(v, scaled, which).residual <= 1e-10
    assert averaged_norm(v, scaled).value == pytest.approx(10.0**k * averaged_norm(v, mu).value, rel=1e-12)


def _spectral_deviation(a, b):
    """max |eig(a) - eig(b)| / max |eig(a)|, eigenvalues in ascending order."""
    ea, eb = eigvalsh(a.matrix), eigvalsh(b.matrix)
    return np.abs(ea - eb).max() / np.abs(ea).max()


@settings(max_examples=10, deadline=None)
@given(
    depth=st.integers(min_value=3, max_value=9),
    K=st.integers(min_value=1, max_value=400),
    angle=st.floats(min_value=0.0, max_value=2 * math.pi),
    zero_mode=st.sampled_from(["drop", "shift"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rotating_a_steklov_measure_keeps_its_spectrum(depth, K, angle, zero_mode, seed):
    # theta -> theta + angle multiplies F(eta) by exp(i eta angle): a unitary
    # similarity of M, for every eta up to 2K
    mu, _ = sl.builtin_measure("steklov_cantor", {"depth": depth})
    v = sl.SignedDensity(np.random.default_rng(seed).normal(0.5, 1.0, mu.atom_count))
    c, s = math.cos(angle), math.sin(angle)
    turned = sl.PointCloudMeasure.from_atoms(mu.positions @ np.array([[c, s], [-s, c]]), mu.weights, 1.0)
    base = sl.assemble_steklov_circle(mu, v, K, zero_mode)
    assert _spectral_deviation(base, sl.assemble_steklov_circle(turned, v, K, zero_mode)) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=300),
    K=st.integers(min_value=0, max_value=12),
    shift=st.tuples(st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=-2.0, max_value=2.0)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_translating_a_cloud_keeps_its_fourier_spectrum(n, K, shift, seed):
    # X -> X + t multiplies F(eta) by exp(2 pi i eta . t / L): a unitary
    # similarity of M, for every eta up to 2K on both axes
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-1.0, 1.0, (n, 2))  # span <= 2 = L/2
    mu = sl.PointCloudMeasure.from_atoms(positions, rng.lognormal(0.0, 1.0, n), 2.0)
    moved = sl.PointCloudMeasure.from_atoms(positions + np.array(shift), mu.weights, 2.0)
    v = sl.SignedDensity(rng.normal(0.5, 1.0, n))
    base = sl.assemble_fourier_bs(mu, v, 8.0, K)
    assert _spectral_deviation(base, sl.assemble_fourier_bs(moved, v, 8.0, K)) <= 1e-12


def _log_kernel_spectrum(name, params, kernel):
    mu, v = sl.builtin_measure(name, params)
    return mu, sl.eigen_spectrum(sl.assemble_log_kernel(mu, v, kernel))


@settings(max_examples=10, deadline=None)
@given(r=st.floats(min_value=1e-3, max_value=1e3))
def test_dilating_a_circle_is_a_rank_one_update_of_the_pure_log_kernel(r):
    # -log |r x - r y| = -log |x - y| - log r, and the cell diagonal moves by
    # the same -log r: M(r) / r = M(1) - c log r u u^T, so the eigenvalues of
    # M(r) / r interlace those of M(1), above them for r < 1
    a = eigvalsh(sl.assemble_log_kernel(*sl.builtin_measure("circle", {"atoms": 400}), "pure_log").matrix)
    mu, v = sl.builtin_measure("circle", {"atoms": 400, "radius": r})
    b = eigvalsh(sl.assemble_log_kernel(mu, v, "pure_log").matrix) / r
    tol = 1e-12 * np.abs(a).max()
    if r < 1:
        lower, upper = a, np.append(a[1:], np.inf)
    else:
        lower, upper = np.insert(a[:-1], 0, -np.inf), a
    assert np.all(b >= lower - tol) and np.all(b <= upper + tol)


@settings(max_examples=10, deadline=None)
@given(r=st.floats(min_value=0.01, max_value=1.0))
def test_shrinking_a_circle_keeps_its_bessel_plateau_per_unit_mass(r):
    # below the kernel's unit length scale K_0 is -log r plus a smooth
    # remainder, so the plateau per unit mass holds to 0.5% (past r = 1 it
    # does not: -78% at r = 100)
    def plateau(radius):
        mu, rep = _log_kernel_spectrum("circle", {"atoms": 400, "radius": radius}, "bessel")
        return sl.weyl_plateau(rep, window=(20, 80)).plateau / mu.total_mass

    assert plateau(r) == pytest.approx(plateau(1.0), rel=5e-3)


@pytest.mark.parametrize("gap", [0.5, 1.0, 3.0])
def test_counting_functions_add_over_separated_circles(gap):
    # the two_circles union against its circles alone: the cross blocks of
    # the kernel are smooth, and N_union - N_1 - N_2 stays within 2 between
    # the union's lambda_101 and lambda_6
    _, union = _log_kernel_spectrum("two_circles", {"atoms": 600, "r1": 1.0, "r2": 0.5, "gap": gap}, "bessel")
    _, one = _log_kernel_spectrum("circle", {"atoms": 400, "radius": 1.0}, "bessel")
    _, two = _log_kernel_spectrum("circle", {"atoms": 200, "radius": 0.5}, "bessel")
    lo, hi = union.positive[100], union.positive[5]
    # N(lam) = #{lambda > lam} is constant from one eigenvalue to the next,
    # so the eigenvalues in [lo, hi] are every value it takes there
    lams = np.concatenate([rep.positive for rep in (union, one, two)])
    lams = lams[(lams >= lo) & (lams <= hi)]

    def counts(rep):
        return np.array([sl.counting(rep, lam) for lam in lams])

    assert np.abs(counts(union) - counts(one) - counts(two)).max() <= 2
