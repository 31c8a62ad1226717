"""The Weyl coefficient formula, its closed values, and trace predictions."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import beta

import spectralab as sl
from spectralab.coeffs import coefficient_csv
from spectralab.errors import PredictionUnavailableError
from spectralab.measures import SignedDensity

MODES = ("printed", "calibrated")
SURFACE_PAIRS = [(d, n) for n in range(2, 7) for d in range(1, n)]


def test_sphere_areas():
    assert sl.sphere_area(1) == pytest.approx(2.0, rel=1e-14)
    assert sl.sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
    assert sl.sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)


def _beta_form(d, n, mode):
    """The surface constant as the source formula displays it:
    omega_{q-1} omega_{d-1} B(d/2, q/2) / (2 d (2 pi)^q), q = n - d, divided
    by (2 pi)^d in the calibrated mode."""
    q = n - d
    value = sl.sphere_area(q) * sl.sphere_area(d) * beta(d / 2, q / 2) / (2 * d * (2 * math.pi) ** q)
    return value if mode == "printed" else value / (2 * math.pi) ** d


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("d, n", SURFACE_PAIRS, ids=[f"d{d}-N{n}" for d, n in SURFACE_PAIRS])
def test_weyl_coefficient_matches_the_beta_form(d, n, mode):
    assert sl.weyl_coefficient(d, n, mode) == pytest.approx(_beta_form(d, n, mode), rel=1e-14)


def test_ac_coefficients():
    for mode in MODES:
        assert sl.weyl_coefficient(1, 1, mode) == pytest.approx(1 / math.pi, rel=1e-14)
        assert sl.weyl_coefficient(2, 2, mode) == pytest.approx(1 / (4 * math.pi), rel=1e-14)
        assert sl.weyl_coefficient(3, 3, mode) == pytest.approx(1 / (6 * math.pi**2), rel=1e-14)


def test_surface_coefficient_modes():
    # Z(1, 1) and Z(2, 1) in (dimension, codimension): a curve in the plane
    # and a surface in space
    assert sl.weyl_coefficient(1, 2, "printed") == 1.0
    assert sl.weyl_coefficient(1, 2, "calibrated") == pytest.approx(1 / (2 * math.pi), rel=1e-14)
    assert sl.weyl_coefficient(2, 3, "calibrated") == pytest.approx(1 / (4 * math.pi**2), rel=1e-14)


def test_calibrated_matches_ac_limit():
    # at d = N both modes give the absolutely continuous constant
    # omega_{N-1} / (N (2 pi)^N), bit for bit
    for n in range(1, 7):
        ac = sl.sphere_area(n) / (n * (2.0 * math.pi) ** n)
        assert sl.weyl_coefficient(n, n, "printed") == ac
        assert sl.weyl_coefficient(n, n, "calibrated") == ac


def test_printed_symmetry_identity():
    # from the printed formula: Z(d, q) d (2 pi)^q is symmetric in (d, q),
    # so Z(d, q) d = Z(q, d) q (2 pi)^(d - q), with N = d + q
    for d, q in [(1, 2), (1, 3), (2, 3), (2, 5)]:
        lhs = sl.weyl_coefficient(d, d + q, "printed") * d
        rhs = sl.weyl_coefficient(q, d + q, "printed") * q * (2 * math.pi) ** (d - q)
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_weyl_coefficient_rejects_bad_input():
    with pytest.raises(ValueError, match="positive"):
        sl.weyl_coefficient(0, 2)
    with pytest.raises(ValueError, match="exceeds the ambient dimension"):
        sl.weyl_coefficient(3, 2)
    with pytest.raises(ValueError, match="unknown coefficient mode"):
        sl.weyl_coefficient(1, 2, "raw")


def test_dimensional_consistency_quadrature_vs_closed_form():
    # For |Xi|^{-N/2} the normal-fiber integral at a unit tangent covector is
    # (2 pi)^{-q} omega_{q-1} int_0^inf (1 + r^2)^{-N/2} r^{q-1} dr, and the
    # cosphere density rho is omega_{d-1} times it.  rho / (d (2 pi)^d) must
    # be the one formula: homogeneity has removed the tangent frame.
    for d, n in SURFACE_PAIRS:
        q = n - d
        radial = integrate.quad(lambda r: (1 + r * r) ** (-n / 2) * r ** (q - 1), 0, np.inf)[0]
        fiber = sl.sphere_area(q) * radial / (2 * math.pi) ** q
        rho = sl.sphere_area(d) * fiber
        if (d, q) == (1, 1):
            assert fiber == pytest.approx(0.5, rel=1e-12)
            assert rho == pytest.approx(1.0, rel=1e-12)
        z = rho / (d * (2 * math.pi) ** d)
        assert z == pytest.approx(sl.weyl_coefficient(d, n, "calibrated"), rel=1e-10), (d, n)


def test_coefficient_table_csv():
    lines = coefficient_csv([(1, 1), (2, 1)]).splitlines()
    assert lines[0] == "d,codim,printed,calibrated"
    d, codim, printed, calibrated = lines[1].split(",")
    assert (d, codim) == ("1", "1")
    assert float(printed) == 1.0
    assert float(calibrated) == pytest.approx(1 / (2 * math.pi), rel=1e-14)
    assert float(lines[2].split(",")[3]) == pytest.approx(1 / (4 * math.pi**2), rel=1e-14)


# -- predictions -----------------------------------------------------------------


def test_predicted_trace_circle():
    mu, v = sl.builtin_measure("circle", {"atoms": 2000})
    pred = sl.predicted_trace(mu, v, "calibrated")
    assert pred.a_plus == pytest.approx(1.0, abs=1e-4)
    assert pred.a_minus == 0.0
    assert pred.residue == pred.a_plus


def test_predicted_trace_half_signed():
    mu, v = sl.builtin_measure("half_signed_circle", {"atoms": 2000})
    pred = sl.predicted_trace(mu, v, "calibrated")
    assert pred.a_plus == pytest.approx(0.5, abs=1e-3)
    assert pred.a_minus == pytest.approx(0.5, abs=1e-3)
    assert abs(pred.residue) <= 1e-6


def test_predicted_trace_mixed_dimensions():
    mu, v = sl.builtin_measure("circle_plus_square", {})
    pred = sl.predicted_trace(mu, v, "calibrated")
    assert pred.a_plus == pytest.approx(1.0 + 1 / (4 * math.pi), abs=1e-3)
    dims = sorted(c.nominal_dim for c in pred.components)
    assert dims == [1, 2]
    # the full-dimensional component takes the a.c. constant in both modes
    printed = sl.predicted_trace(mu, v, "printed")
    assert [c.coefficient for c in printed.components if c.nominal_dim == 2] == [
        c.coefficient for c in pred.components if c.nominal_dim == 2
    ]


def test_predicted_trace_linearity():
    mu, _ = sl.builtin_measure("circle", {"atoms": 100})
    rng = np.random.default_rng(0)
    v1 = rng.standard_normal(100)
    v2 = rng.standard_normal(100)
    pa = sl.predicted_trace(mu, SignedDensity(v1)).residue
    pb = sl.predicted_trace(mu, SignedDensity(v2)).residue
    pab = sl.predicted_trace(mu, SignedDensity(v1 + v2)).residue
    assert pab == pytest.approx(pa + pb, abs=1e-10)


def test_predicted_trace_rejects_fractional_dimension():
    mu, v = sl.builtin_measure("cantor_line", {"depth": 5})
    with pytest.raises(PredictionUnavailableError):
        sl.predicted_trace(mu, v)
