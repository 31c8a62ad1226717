"""Orlicz pair, Luxemburg norm, and the averaged norm against independent oracles."""

import decimal
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from spectralab.errors import SaturationError
from spectralab.measures import PointCloudMeasure, SignedDensity, builtin_measure
from spectralab.orlicz import averaged_norm, holder_bound, luxemburg_norm, phi, psi


def _root_of(f, target, lo=0.0, hi=1.0):
    """Test-side scalar bisection oracle (independent of package internals)."""
    while f(hi) < target:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


T_STAR_PSI = _root_of(lambda t: (1 + t) * math.log(1 + t) - t, 1.0)  # psi(t*) = 1
T_STAR_PHI = _root_of(lambda t: math.exp(t) - 1 - t, 1.0)  # phi(t**) = 1


def _prob_measure(n, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.standard_normal((n, 2))
    w = rng.uniform(0.2, 1.0, n)
    w = w / w.sum()
    return PointCloudMeasure.from_atoms(pos, w, 1.0)


# -- Young functions -----------------------------------------------------------


def test_young_values():
    assert float(psi(0.0)) == 0.0
    assert float(phi(0.0)) == 0.0
    assert float(phi(1.0)) == pytest.approx(math.e - 2.0, abs=1e-14)


def test_young_convex_increasing_grid():
    t = np.linspace(0.0, 5.0, 201)
    for f in (psi, phi):
        vals = f(t)
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) > 0)
        assert np.all(np.diff(vals, 2) > -1e-12)  # convexity

    with pytest.raises(ValueError):
        psi(-0.5)
    with pytest.raises(SaturationError):
        phi(800.0)


def _young_reference(t):
    """(psi(t), phi(t)) to 700 digits from the exact value of the double t."""
    with decimal.localcontext() as ctx:
        ctx.prec = 700
        x, one = decimal.Decimal(t), decimal.Decimal(1)
        return float((one + x) * (one + x).ln() - x), float(x.exp() - one - x)


def test_young_functions_match_a_700_digit_reference():
    # near 0 both closed forms cancel to nothing: psi was off by a factor 3
    # at t = 1.1e-16 and phi read 0 at 1e-150; past 1e-3 they lose 3 digits
    t = np.concatenate([np.logspace(-150, math.log10(600), 400), [1.1e-16, np.nextafter(1e-3, 1.0)]])
    want = np.array([_young_reference(x) for x in t])
    np.testing.assert_allclose(psi(t), want[:, 0], rtol=1e-12, atol=0)
    np.testing.assert_allclose(phi(t), want[:, 1], rtol=1e-12, atol=0)
    assert float(psi(1e-150)) == pytest.approx(want[0, 0], rel=1e-12)
    assert float(phi(1e-150)) == pytest.approx(want[0, 1], rel=1e-12)


def test_phi_saturates_where_its_value_overflows():
    # exp(t) passes the largest double at t = 709.7827
    assert np.isfinite(phi(709.78))
    with pytest.raises(SaturationError, match="overflows"):
        phi(np.array([1.0, 709.79]))


# -- Luxemburg norm --------------------------------------------------------------


def test_luxemburg_zero():
    mu = _prob_measure(10)
    res = luxemburg_norm(SignedDensity(np.zeros(10)), mu, "psi")
    assert res.value == 0.0


def test_luxemburg_constant_reduction():
    mu = _prob_measure(50, seed=1)
    for c in (0.5, 3.0, 20.0):
        res = luxemburg_norm(SignedDensity(np.full(50, c)), mu, "psi")
        assert res.value == pytest.approx(c / T_STAR_PSI, rel=1e-9)
        assert res.residual <= 1e-10


def test_luxemburg_norm_is_the_least_double_whose_modular_is_at_most_one():
    # the bisection stops on adjacent doubles, as ifs_dimension's does
    rng = np.random.default_rng(15)
    mu = _prob_measure(40, seed=16)
    v = np.abs(rng.standard_normal(40)) * 3.0
    for which, young in (("psi", psi), ("phi", phi)):
        s = luxemburg_norm(SignedDensity(v), mu, which).value

        def modular(s):
            return float(np.sum(mu.weights * young(v / s)))

        assert modular(s) <= 1.0 < modular(np.nextafter(s, 0.0)), which


def test_luxemburg_norm_past_1e300_is_saturation():
    # ||V||_psi is about 1e308 sqrt(10): doubling the bracket used to reach
    # inf, where the search for its lower end never stopped
    mu = PointCloudMeasure.from_atoms(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([10.0, 10.0]), 1.0)
    with pytest.raises(SaturationError, match="below 1e300"):
        luxemburg_norm(SignedDensity(np.full(2, 1e308)), mu, "psi")


def test_luxemburg_scaling_law():
    rng = np.random.default_rng(11)
    mu = _prob_measure(64, seed=2)
    for _ in range(10):
        v = rng.standard_normal(64) * rng.uniform(0.1, 5)
        a = luxemburg_norm(SignedDensity(v), mu, "psi").value
        b = luxemburg_norm(SignedDensity(2 * v), mu, "psi").value
        assert b == pytest.approx(2 * a, rel=1e-9)


def test_luxemburg_phi_norm_finite():
    mu = _prob_measure(20, seed=3)
    res = luxemburg_norm(SignedDensity(np.linspace(0, 4, 20)), mu, "phi")
    assert res.value > 0 and res.residual <= 1e-10


# -- averaged norm -----------------------------------------------------------------


def test_averaged_zero():
    mu = _prob_measure(10)
    assert averaged_norm(SignedDensity(np.zeros(10)), mu).value == 0.0


def test_averaged_constant_closed_form():
    mu = _prob_measure(40, seed=4)
    subset = np.arange(15)
    m_e = float(mu.weights[subset].sum())
    for c in (0.7, 2.0, 9.0):
        got = averaged_norm(SignedDensity(np.full(40, c)), mu, subset).value
        assert got == pytest.approx(c * m_e * T_STAR_PHI, rel=1e-9)


def _averaged_norm_slsqp(w, v, mass):
    """Independent convex-programming oracle: maximize sum w v g subject to
    sum w phi(g) <= mass over g >= 0 (SLSQP, no Lagrange closed form)."""

    def neg_obj(g):
        return -float(np.sum(w * v * g))

    def neg_obj_grad(g):
        return -(w * v)

    def constraint(g):
        return mass - float(np.sum(w * (np.exp(g) - 1.0 - g)))

    def constraint_grad(g):
        return -(w * (np.exp(g) - 1.0))

    g0 = np.full(len(w), 0.5)
    res = minimize(
        neg_obj,
        g0,
        jac=neg_obj_grad,
        method="SLSQP",
        bounds=[(0.0, 50.0)] * len(w),
        constraints=[{"type": "ineq", "fun": constraint, "jac": constraint_grad}],
        options={"maxiter": 1000, "ftol": 1e-12},
    )
    # status 8 = linesearch can no longer improve; accept it when the
    # iterate is feasible (the optimum sits on the constraint boundary)
    assert res.success or res.status == 8, res.message
    assert constraint(res.x) >= -1e-8 * max(1.0, abs(res.fun))
    return -res.fun


def test_averaged_matches_convex_oracle():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = 50
        w = rng.uniform(0.1, 1.0, n)
        v = np.abs(rng.standard_normal(n)) * rng.uniform(0.5, 2.0)
        mu = PointCloudMeasure.from_atoms(rng.standard_normal((n, 2)), w, 1.0)
        got = averaged_norm(SignedDensity(v), mu).value
        want = _averaged_norm_slsqp(w, v, float(w.sum()))
        assert got == pytest.approx(want, rel=1e-6), f"trial {trial}"


def test_averaged_small_instance_against_oracle():
    rng = np.random.default_rng(6)
    for trial in range(5):
        n = 20
        w = rng.uniform(0.2, 1.0, n)
        v = rng.uniform(0.0, 3.0, n)
        mu = PointCloudMeasure.from_atoms(rng.standard_normal((n, 2)), w, 1.0)
        got = averaged_norm(SignedDensity(v), mu).value
        want = _averaged_norm_slsqp(w, v, float(w.sum()))
        assert got == pytest.approx(want, rel=1e-6)


def test_averaged_homogeneous():
    rng = np.random.default_rng(7)
    mu = _prob_measure(30, seed=8)
    for _ in range(10):
        v = np.abs(rng.standard_normal(30))
        a = averaged_norm(SignedDensity(v), mu).value
        b = averaged_norm(SignedDensity(3.5 * v), mu).value
        assert b == pytest.approx(3.5 * a, rel=1e-9)


def test_averaged_monotone_under_zero_extension():
    # enlarging the subset, with |V| extended by zero, never decreases the norm
    rng = np.random.default_rng(9)
    mu = _prob_measure(40, seed=10)
    v = np.zeros(40)
    v[:20] = np.abs(rng.standard_normal(20))
    small = averaged_norm(SignedDensity(v), mu, np.arange(20)).value
    large = averaged_norm(SignedDensity(v), mu, np.arange(40)).value
    assert large >= small - 1e-12


def test_averaged_luxemburg_equivalence_band():
    # on one fixed measure the two norms stay within a bounded ratio
    rng = np.random.default_rng(12)
    mu = _prob_measure(100, seed=13)
    ratios = []
    for _ in range(25):
        v = np.abs(rng.standard_normal(100)) * rng.uniform(0.1, 10)
        av = averaged_norm(SignedDensity(v), mu).value
        lux = luxemburg_norm(SignedDensity(v), mu, "psi").value
        ratios.append(av / lux)
    assert max(ratios) / min(ratios) < 10.0


# -- Holder inequality ----------------------------------------------------------------


def test_holder_constant_two_over_random_instances():
    rng = np.random.default_rng(14)
    for trial in range(200):
        n = int(rng.integers(5, 60))
        w = rng.uniform(0.05, 1.0, n)
        mu = PointCloudMeasure.from_atoms(rng.standard_normal((n, 2)), w, 1.0)
        f = rng.standard_normal(n) ** 2 * rng.uniform(0.1, 4)  # plays |v|^2
        v = rng.standard_normal(n) * rng.uniform(0.1, 4)
        lhs, rhs = holder_bound(SignedDensity(f), SignedDensity(v), mu)
        assert lhs <= rhs * (1 + 1e-12), f"trial {trial}: {lhs} > {rhs}"


def test_orlicz_norms_of_an_80k_atom_cloud_take_half_the_bisection_evaluations():
    # the bracketing and bisection search took 53 steps for each Luxemburg
    # norm of this cloud
    mu, _ = builtin_measure("circle", {"atoms": 80_000, "radius": 1.1, "cx": 0.2, "cy": -0.3})
    x, y = mu.positions.T
    v = SignedDensity(1.75 + 0.5 * np.sin(3 * x + 1.25) * np.cos(y))
    for norm in (luxemburg_norm(v, mu, "psi"), luxemburg_norm(v, mu, "phi"), averaged_norm(v, mu)):
        assert 0 < norm.iterations <= 53 // 2


# The three norms (psi-Luxemburg, phi-Luxemburg, averaged) of catalog measures
# with their constant density, as the root search has always returned them.
# Each averaged norm hits an exact 0 excess, after which midpoint steps took
# its search to 34 or 35 evaluations.
CONSTANT_DENSITY_NORMS = {
    ("circle", 400): ("0x1.a0381fd2a8ec8p+0", "0x1.f05965383e84ep+0", "0x1.cce9615b40224p+2"),
    ("circle", 1600): ("0x1.a0381fd2a8ec8p+0", "0x1.f05965383e84ep+0", "0x1.cce9615b40224p+2"),
    ("circle", 80_000): ("0x1.a0381fd2a8ec8p+0", "0x1.f05965383e84ep+0", "0x1.cce9615b40221p+2"),
    ("sphere", 2000): ("0x1.2d695beaeec61p+1", "0x1.562a2779ff899p+1", "0x1.cce9615b40224p+3"),
    ("two_circles", None): ("0x1.02af103274c71p+1", "0x1.2b2c7c626cdeep+1", "0x1.59af09047019ap+3"),
    ("sierpinski", None): ("0x1.29f8d9d61337cp-1", "0x1.beb2313ca4790p-1", "0x1.256ceb3d765a3p+0"),
    ("half_signed_circle", None): ("0x1.a0381fd2a8ec8p+0", "0x1.f05965383e84ep+0", "0x1.cce9615b40224p+2"),
}


@pytest.mark.parametrize("name, atoms", list(CONSTANT_DENSITY_NORMS), ids=lambda x: str(x))
def test_root_search_keeps_its_doubles_and_steps_off_an_exact_zero(name, atoms):
    mu, v = builtin_measure(name, None if atoms is None else {"atoms": atoms})
    norms = (luxemburg_norm(v, mu, "psi"), luxemburg_norm(v, mu, "phi"), averaged_norm(v, mu))
    assert tuple(norm.value.hex() for norm in norms) == CONSTANT_DENSITY_NORMS[name, atoms]
    assert norms[2].iterations <= 16


def test_phi_luxemburg_norm_of_circle_plus_square_takes_twelve_evaluations():
    # its regula falsi points rounded onto an endpoint, and midpoint steps took 39
    mu, v = builtin_measure("circle_plus_square")
    norm = luxemburg_norm(v, mu, "phi")
    assert norm.value.hex() == "0x1.09910c3572f7dp+1"
    assert norm.iterations <= 12
