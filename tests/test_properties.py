"""Property tests of the ball statistics: permutation invariance,
monotonicity in the radius, and additivity over unions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import spectralab as sl
from spectralab.measures import nearest_neighbor_spacing

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
