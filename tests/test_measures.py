"""Measure construction, ball statistics, and regularity diagnostics."""

import inspect
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import spectralab as sl
from spectralab.errors import (
    BudgetError,
    DegenerateSystemError,
    DimensionMismatchError,
    InvalidRatioError,
    LipschitzBoundError,
    ResolutionError,
    ScenarioError,
)
from spectralab.measures import Component, SignedDensity, diameter, nearest_neighbor_spacing

LN2_LN3 = math.log(2) / math.log(3)


# -- IFS dimension -----------------------------------------------------------


def test_ifs_dimension_closed_forms():
    cantor = [sl.Similitude(1 / 3, [0.0]), sl.Similitude(1 / 3, [2 / 3])]
    assert sl.ifs_dimension(cantor) == pytest.approx(LN2_LN3, abs=1e-12)

    triple = [sl.Similitude(1 / 2, [float(j)]) for j in range(3)]
    assert sl.ifs_dimension(triple) == pytest.approx(math.log(3) / math.log(2), abs=1e-12)

    # x + x^2 = 1 with x = 2^-d gives d = log2((sqrt 5 + 1) / 2)
    mixed = [sl.Similitude(1 / 2, [0.0]), sl.Similitude(1 / 4, [1.0])]
    expected = math.log2((math.sqrt(5) + 1) / 2)
    assert sl.ifs_dimension(mixed) == pytest.approx(expected, abs=1e-12)


def test_ifs_dimension_is_exact_for_equal_ratios():
    # the closed forms to the last bit, not to a tolerance
    cantor = [sl.Similitude(1 / 3, [0.0]), sl.Similitude(1 / 3, [2 / 3])]
    assert sl.ifs_dimension(cantor) == math.log(2) / math.log(3)
    sierpinski = sl.sierpinski_system().maps
    assert sl.ifs_dimension(sierpinski) == math.log(3) / math.log(2)


def test_cantor_line_weights_are_exact():
    # exact similarity dimension -> self-similar weights of exactly 2^-9
    mu, _ = sl.builtin_measure("cantor_line")
    assert mu.atom_count == 2**9
    assert np.all(mu.weights == 2.0**-9)
    assert mu.weights.sum() == 1.0 and mu.total_mass == 1.0


def test_ifs_dimension_residual_property():
    rng = np.random.default_rng(7)
    for _ in range(20):
        ratios = rng.uniform(0.2, 0.8, size=rng.integers(2, 5))
        maps = [sl.Similitude(h, [0.0]) for h in ratios]
        d = sl.ifs_dimension(maps)
        assert abs(np.sum(ratios**d) - 1.0) <= 1e-12


def test_ifs_dimension_errors():
    with pytest.raises(DegenerateSystemError):
        sl.ifs_dimension([sl.Similitude(0.5, [0.0])])
    with pytest.raises(InvalidRatioError):
        sl.Similitude(1.2, [0.0])


# -- self-similar measures ----------------------------------------------------


def test_cantor_depth_one_atoms_at_fixed_points():
    mu = sl.ifs_self_similar_measure(sl.cantor_system(), depth=1)
    assert mu.atom_count == 2
    assert np.allclose(np.sort(mu.positions.ravel()), [0.0, 1.0])
    assert np.allclose(mu.weights, 0.5)


def test_cantor_depth_eight():
    mu = sl.ifs_self_similar_measure(sl.cantor_system(), depth=8)
    assert mu.atom_count == 256
    assert np.allclose(mu.weights, 2.0**-8)
    assert mu.positions.min() >= 0.0 and mu.positions.max() <= 1.0
    assert mu.total_mass == pytest.approx(1.0, abs=1e-10)


def test_unequal_ratio_weights_are_products():
    maps = [sl.Similitude(1 / 2, [0.0]), sl.Similitude(1 / 4, [0.75])]
    system = sl.SimilitudeSystem(tuple(maps))
    mu = sl.ifs_self_similar_measure(system, depth=2)
    x = 2.0 ** -system.similarity_dim
    # direct product enumeration over the four words
    expected = sorted([x * x, x * x**2, x**2 * x, x**2 * x**2])
    assert np.allclose(sorted(mu.weights), expected, rtol=1e-12)
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-10)
    assert x == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-10)


def test_atom_budget():
    # depth 18 builds 2^18 = 262144 atoms, past the budget of 200000
    with pytest.raises(BudgetError, match="2\\^18 atoms exceed the budget 200000"):
        sl.ifs_self_similar_measure(sl.cantor_system(), depth=18)


def test_weights_normalized_at_every_depth():
    maps = [sl.Similitude(0.3, [0.0]), sl.Similitude(0.45, [1.0])]
    system = sl.SimilitudeSystem(tuple(maps))
    for depth in range(1, 7):
        mu = sl.ifs_self_similar_measure(system, depth)
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-10)


# -- surface measures ----------------------------------------------------------


def _flat_patch(cells):
    return sl.LipschitzPatch(
        param_dim=1,
        codim=1,
        box_lo=[0.0],
        box_hi=[1.0],
        resolution=(cells,),
        phi=lambda x: np.zeros((len(x), 1)),
        lipschitz_estimate=0.1,
    )


def test_flat_patch_mass():
    mu = sl.surface_measure(_flat_patch(100))
    assert mu.total_mass == pytest.approx(1.0, abs=1e-12)


def test_diagonal_graph_mass():
    patch = sl.LipschitzPatch(
        param_dim=1,
        codim=1,
        box_lo=[0.0],
        box_hi=[1.0],
        resolution=(200,),
        phi=lambda x: x.copy(),
        lipschitz_estimate=1.0,
    )
    mu = sl.surface_measure(patch)
    assert mu.total_mass == pytest.approx(math.sqrt(2.0), abs=1e-6)


def _circle_patches(cells):
    lim = 1 / math.sqrt(2)

    def upper(x):
        return np.sqrt(1 - x**2)

    def lower(x):
        return -np.sqrt(1 - x**2)

    patches = []
    for f in (upper, lower):
        patches.append(
            sl.LipschitzPatch(
                param_dim=1,
                codim=1,
                box_lo=[-lim],
                box_hi=[lim],
                resolution=(cells,),
                phi=lambda x, f=f: f(x),
                lipschitz_estimate=1.2,
            )
        )
    return patches


def test_circle_from_patches():
    # four graph patches cover the circle: two as y(x), two as x(y); by
    # symmetry the x(y) pair has the same mass as the y(x) pair.
    mass = 2 * sum(sl.surface_measure(p).total_mass for p in _circle_patches(400))
    assert mass == pytest.approx(2 * math.pi, abs=1e-3)


def test_circle_patch_refinement_order():
    # halving the cell size should at least halve the mass error
    quarter = 2 * math.pi / 4  # exact arc length of one patch pair member, times 2
    errs = []
    for cells in (100, 200, 400):
        mass = 2 * sum(sl.surface_measure(p).total_mass for p in _circle_patches(cells))
        errs.append(abs(mass - 2 * math.pi))
    assert errs[1] <= errs[0] / 2 * 1.05
    assert errs[2] <= errs[1] / 2 * 1.05


def test_lipschitz_violation_detected():
    patch = sl.LipschitzPatch(
        param_dim=1,
        codim=1,
        box_lo=[0.0],
        box_hi=[1.0],
        resolution=(50,),
        phi=lambda x: 3.0 * x,
        lipschitz_estimate=1.0,
    )
    with pytest.raises(LipschitzBoundError):
        sl.surface_measure(patch)


# -- scenario catalog ----------------------------------------------------------


def test_builtin_circle_mass():
    mu, v = sl.builtin_measure("circle", {"radius": 1.0, "atoms": 2000})
    assert mu.total_mass == pytest.approx(2 * math.pi, abs=1e-4)
    assert np.all(v.values == 1.0)


def test_builtin_two_circles():
    mu, _ = sl.builtin_measure("two_circles", {"r1": 1.0, "r2": 0.5, "gap": 1.0, "atoms": 3000})
    assert mu.total_mass == pytest.approx(3 * math.pi, abs=1e-3)
    assert len(mu.components) == 2


def test_builtin_half_signed_circle():
    mu, v = sl.builtin_measure("half_signed_circle", {"radius": 1.0, "atoms": 2000})
    signed = float(np.sum(mu.weights * v.values))
    plus = float(np.sum(mu.weights * v.positive_part))
    assert abs(signed) <= 1e-6
    assert plus == pytest.approx(math.pi, abs=1e-3)


def test_builtin_circle_plus_square_dims():
    mu, _ = sl.builtin_measure("circle_plus_square", {})
    dims = sorted(c.nominal_dim for c in mu.components)
    assert dims == [1.0, 2.0]
    assert mu.total_mass == pytest.approx(2 * math.pi + 1.0, abs=1e-3)


def test_builtin_unknown_and_missing():
    with pytest.raises(ScenarioError):
        sl.builtin_measure("nonagon", {})


def test_builtin_unknown_parameter_is_scenario_error():
    with pytest.raises(ScenarioError, match="no parameter 'atom'"):
        sl.builtin_measure("circle", {"atom": 200})
    with pytest.raises(ScenarioError, match="no parameter 'atoms'"):
        sl.measures.catalog_entry("cantor_line", {"atoms": 200})


@pytest.mark.parametrize(
    "name, params, count",
    [
        ("circle", {"atoms": 10**9}, "1000000000"),
        ("circle_plus_square", {"cells": 445}, "2000 + 445^2"),
        ("cantor_line", {"depth": 30}, "2^30"),
        ("cantor_circle", {"depth": 18}, "2^18"),
        ("steklov_cantor", {"depth": 10**12}, "2^1000000000000"),
        ("sierpinski", {"depth": 12}, "3^12"),
    ],
    ids=["atoms", "atoms_plus_cells_squared", "cantor_line", "cantor_circle", "steklov_cantor", "sierpinski"],
)
def test_catalog_entry_rejects_a_measure_past_the_atom_budget(name, params, count):
    with pytest.raises(ScenarioError, match=re.escape(f"would build {count} atoms, past the atom budget 200000")):
        sl.measures.catalog_entry(name, params)


@pytest.mark.parametrize(
    "name, params",
    [
        ("circle", {"atoms": sl.measures.ATOM_BUDGET}),
        ("circle", {"atoms": 80_000}),
        ("circle_plus_square", {"cells": 444}),  # 2000 + 197136 atoms
        ("cantor_line", {"depth": 17}),
        ("sierpinski", {"depth": 11}),  # 177147 atoms
    ],
)
def test_catalog_entry_accepts_a_measure_within_the_atom_budget(name, params):
    sl.measures.catalog_entry(name, params)


def test_catalog_entry_bounds_the_real_parameters_by_param_scale():
    scale = sl.measures.PARAM_SCALE
    for params in ({"radius": scale}, {"radius": 1 / scale}, {"cx": -scale, "cy": scale}):
        sl.measures.catalog_entry("circle", params)
    for name, params, bound in (
        ("circle", {"radius": 2 * scale}, "in [1e-100, 1e+100]"),
        ("sphere", {"radius": 0.5 / scale}, "in [1e-100, 1e+100]"),
        ("circle", {"cy": -2 * scale}, "at most 1e+100 in magnitude"),
        ("two_circles", {"gap": float("nan")}, "at most 1e+100 in magnitude"),
    ):
        with pytest.raises(ScenarioError, match=re.escape(bound)):
            sl.measures.catalog_entry(name, params)


def test_readme_catalog_table_matches_the_builders():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (\d) \| (.*) \|$", readme, flags=re.M)
    assert {name for name, _, _ in rows} == set(sl.measures.BUILTIN_MEASURES)
    for name, dim, params in rows:
        ambient_dim, build = sl.measures.catalog_entry(name)
        declared = re.findall(r"`(\w+)` ([\d.]+)", params)
        signature = inspect.signature(build).parameters.values()
        assert int(dim) == ambient_dim
        assert declared == [(p.name, repr(p.default)) for p in signature], name


def test_builtin_sphere_mass():
    mu, _ = sl.builtin_measure("sphere", {"atoms": 500})
    assert mu.ambient_dim == 3
    assert mu.total_mass == pytest.approx(4 * math.pi, rel=1e-12)


# -- unions ---------------------------------------------------------------------


def test_union_identity():
    mu, v = sl.builtin_measure("circle", {"atoms": 100})
    out, vout = sl.union_measure([(mu, v)])
    assert np.array_equal(out.positions, mu.positions)
    assert out.total_mass == mu.total_mass


def test_union_mass_additive():
    a, va = sl.builtin_measure("circle", {"atoms": 100})
    b, vb = sl.builtin_measure("segment", {"atoms": 50})
    out, _ = sl.union_measure([(a, va), (b, vb)])
    assert out.total_mass == pytest.approx(a.total_mass + b.total_mass, rel=1e-12)
    assert [c.nominal_dim for c in out.components] == [1.0, 1.0]


def test_union_dimension_mismatch():
    a, va = sl.builtin_measure("circle", {"atoms": 50})
    b, vb = sl.builtin_measure("sphere", {"atoms": 50})
    with pytest.raises(DimensionMismatchError):
        sl.union_measure([(a, va), (b, vb)])


# -- ball mass -------------------------------------------------------------------


def test_ball_mass_whole_measure():
    mu, _ = sl.builtin_measure("circle", {"atoms": 500})
    assert sl.ball_mass(mu, [0.0, 0.0], 10.0) == pytest.approx(mu.total_mass)


def test_ball_mass_single_atom():
    mu = sl.PointCloudMeasure.from_atoms(np.zeros((1, 2)), np.ones(1), 1.0)
    assert sl.ball_mass(mu, [0.0, 0.0], 0.1) == 1.0


def test_ball_mass_segment_oracle():
    mu, _ = sl.builtin_measure("segment", {"atoms": 2000})
    center = [0.5, 0.0]
    r = 0.05
    # independent brute-force oracle
    dist = np.abs(mu.positions[:, 0] - 0.5)
    expected = float(mu.weights[dist <= r].sum())
    got = sl.ball_mass(mu, center, r)
    assert got == pytest.approx(expected, abs=0.0)
    assert got == pytest.approx(0.1, abs=2e-3)


def test_ball_mass_monotone_in_radius():
    mu, _ = sl.builtin_measure("cantor_line", {"depth": 7})
    center = mu.positions[13]
    radii = np.geomspace(1e-3, 2.0, 25)
    masses = [sl.ball_mass(mu, center, r) for r in radii]
    assert np.all(np.diff(masses) >= 0)


# -- regularity diagnostics -------------------------------------------------------


def test_ahlfors_uniform_segment():
    mu, _ = sl.builtin_measure("segment", {"atoms": 2000})
    radii = np.geomspace(0.01, 0.2, 6)
    band = sl.ahlfors_constants(mu, s=1.0, radii=radii, sample_count=2000)
    assert band.c_lower >= 1.0 - 1e-9
    assert band.c_upper <= 2.2
    assert band.is_regular


def test_ahlfors_cantor_band():
    mu, _ = sl.builtin_measure("cantor_line", {"depth": 10})
    radii = [3.0**-j for j in range(2, 8)]
    band = sl.ahlfors_constants(mu, s=LN2_LN3, radii=radii, sample_count=64, seed=3)
    assert band.ratio <= 10.0
    assert band.is_regular


def test_ahlfors_wrong_exponent_flagged():
    mu, _ = sl.builtin_measure("segment", {"atoms": 2000})
    small = sl.ahlfors_constants(mu, s=0.5, radii=[0.01, 0.02], sample_count=100)
    large = sl.ahlfors_constants(mu, s=0.5, radii=[0.01, 0.4], sample_count=100)
    # r^1 / r^0.5 shrinks with r: the band ratio grows as radii spread
    assert large.ratio > small.ratio

    # at a fine enough resolution the spread crosses the regularity threshold
    fine, _ = sl.builtin_measure("segment", {"atoms": 20_000})
    wide = sl.ahlfors_constants(
        fine, s=0.5, radii=[2.5e-4, 0.45], sample_count=20_000
    )
    assert not wide.is_regular
    assert wide.ratio > 50.0


def test_ahlfors_resolution_floor():
    mu, _ = sl.builtin_measure("segment", {"atoms": 100})
    with pytest.raises(ResolutionError):
        sl.ahlfors_constants(mu, s=1.0, radii=[1e-5], sample_count=10)


def test_density_bounds_segment_interior_and_endpoint():
    mu, _ = sl.builtin_measure("segment", {"atoms": 2000})
    radii = np.geomspace(0.01, 0.09, 8)
    interior = sl.density_bounds(mu, 1.0, [0.5, 0.0], radii)
    assert interior.c_lower == pytest.approx(2.0, rel=0.05)
    assert interior.c_upper == pytest.approx(2.0, rel=0.05)
    endpoint = sl.density_bounds(mu, 1.0, [0.0, 0.0], radii)
    assert endpoint.c_lower == pytest.approx(1.0, rel=0.05)
    assert endpoint.c_upper == pytest.approx(1.0, rel=0.05)


def test_density_bounds_cantor_oscillates_but_bounded():
    mu, _ = sl.builtin_measure("cantor_line", {"depth": 10})
    center = mu.positions[np.argmin(mu.positions[:, 0])]  # near the fixed point 0
    radii = [3.0**-j for j in range(2, 8)]
    est = sl.density_bounds(mu, LN2_LN3, center, radii)
    assert est.c_upper / est.c_lower <= 10.0


def test_density_bounds_interior_brackets_two():
    mu, _ = sl.builtin_measure("segment", {"atoms": 4000})
    radii = np.geomspace(0.005, 0.09, 10)
    est = sl.density_bounds(mu, 1.0, [0.47, 0.0], radii)
    assert est.c_lower <= 2.0 <= est.c_upper or abs(est.c_lower - 2.0) / 2.0 < 0.05


# -- ball statistics against a brute-force oracle --------------------------------


def _oracle_masses(mu, centers, radii):
    """Closed-ball masses by the rule sum_k (x_k - c_k)^2 <= r^2, atom by atom."""
    out = []
    for c in np.atleast_2d(np.asarray(centers, dtype=float)):
        sq = ((mu.positions - c) ** 2).sum(axis=1)
        out.append([mu.weights[sq <= r * r].sum() for r in radii])
    return np.array(out)


def _random_cloud(n, dim, seed):
    rng = np.random.default_rng(seed)
    weights = rng.lognormal(0.0, 1.0, n)  # far from uniform
    return sl.PointCloudMeasure.from_atoms(rng.random((n, dim)), weights, float(dim)), rng


@pytest.mark.parametrize(
    "n, dim, radii",
    [
        (3000, 2, np.geomspace(0.05, 1.2, 6)),
        (3000, 3, np.geomspace(0.2, 1.5, 6)),
        (120_000, 2, np.geomspace(0.02, 0.8, 5)),  # above 100k atoms
    ],
    ids=["R2", "R3", "R2-120k"],
)
def test_ball_statistics_match_oracle(n, dim, radii):
    mu, rng = _random_cloud(n, dim, seed=dim + n)
    centers = rng.random((8, dim)) * 1.2 - 0.1  # some outside the cloud's box
    expected = _oracle_masses(mu, centers, radii)
    for c, row in zip(centers, expected):
        got = [sl.ball_mass(mu, c, r) for r in radii]
        np.testing.assert_allclose(got, row, rtol=1e-12, atol=0.0)

    s = 1.3
    band = sl.ahlfors_constants(mu, s=s, radii=radii, sample_count=40, seed=11)
    idx = np.random.default_rng(11).choice(n, size=40, replace=False)
    ratios = _oracle_masses(mu, mu.positions[idx], radii) / radii**s
    assert band.c_lower == pytest.approx(ratios.min(), rel=1e-12, abs=0.0)
    assert band.c_upper == pytest.approx(ratios.max(), rel=1e-12, abs=0.0)

    est = sl.density_bounds(mu, s, centers[0], radii)
    ratios = expected[0] / radii**s
    assert est.c_lower == pytest.approx(ratios.min(), rel=1e-12, abs=0.0)
    assert est.c_upper == pytest.approx(ratios.max(), rel=1e-12, abs=0.0)


def test_ball_rule_is_squared_distance_at_the_edge():
    # Around atom 506 of the depth-7 gasket, two atoms lie on the sphere of
    # radius diam/4 to rounding; the rules |x - c| <= r and |x - c|^2 <= r^2
    # then disagree by one atom weight.
    mu, _ = sl.builtin_measure("sierpinski", {"depth": 7})
    r = diameter(mu) / 4.0
    c = mu.positions[506]
    expected = _oracle_masses(mu, [c], [r])[0, 0]
    norm_rule = mu.weights[np.linalg.norm(mu.positions - c, axis=1) <= r].sum()
    assert abs(norm_rule - expected) > 1e-3 * expected
    assert sl.ball_mass(mu, c, r) == pytest.approx(expected, rel=1e-12, abs=0.0)
    est = sl.density_bounds(mu, 1.0, c, [r])
    assert est.c_lower == est.c_upper == pytest.approx(expected / r, rel=1e-12, abs=0.0)


# -- type invariants ---------------------------------------------------------------


def test_component_partition_enforced():
    with pytest.raises(ValueError):
        sl.PointCloudMeasure(
            positions=np.zeros((3, 2)),
            weights=np.ones(3),
            components=(Component(0, 2, 1.0),),
            total_mass=3.0,
        )


def test_total_mass_consistency_enforced():
    with pytest.raises(ValueError):
        sl.PointCloudMeasure(
            positions=np.zeros((2, 2)),
            weights=np.ones(2),
            components=(Component(0, 2, 1.0),),
            total_mass=3.0,
        )


def test_measure_immutable():
    mu, _ = sl.builtin_measure("circle", {"atoms": 10})
    with pytest.raises(ValueError):
        mu.positions[0, 0] = 99.0


# -- serialization ------------------------------------------------------------------


def test_measure_text_round_trip(tmp_path):
    mu, v = sl.builtin_measure("circle_plus_square", {"atoms": 64, "cells": 5})
    path = tmp_path / "m.txt"
    sl.save_measure_text(mu, path, v)
    back, vback = sl.load_measure_text(path)
    assert np.array_equal(back.positions, mu.positions)
    assert np.array_equal(back.weights, mu.weights)
    assert np.array_equal(vback.values, v.values)
    assert [c.nominal_dim for c in back.components] == [
        c.nominal_dim for c in mu.components
    ]


def _old_measure_text(mu, v):
    """The text the row-at-once writer produced: one repr per value."""
    lines = [f"{mu.ambient_dim} {len(mu.components)} {mu.total_mass!r}\n"]
    lines += [f"{c.stop - c.start} {c.nominal_dim!r}\n" for c in mu.components]
    table = np.column_stack([mu.positions, mu.weights, v.values])
    lines += [" ".join(map(repr, row)) + "\n" for row in table.tolist()]
    return "".join(lines)


def test_measure_text_bytes_match_one_repr_per_value(tmp_path):
    # more atoms than two write blocks, and not a multiple of the block
    mu, _ = sl.builtin_measure("circle_plus_square", {"atoms": 7, "cells": 130})
    assert mu.atom_count > 2 * sl.measures.TEXT_BLOCK_ROWS
    assert mu.atom_count % sl.measures.TEXT_BLOCK_ROWS
    v = SignedDensity(np.cos(np.arange(mu.atom_count)))
    path = tmp_path / "m.txt"
    sl.save_measure_text(mu, path, v)
    assert path.read_text() == _old_measure_text(mu, v)


@pytest.mark.parametrize(
    "rows, problem",
    [
        ("0.5 0.25 1.0 1.0 7.0\n0.5 -0.25 1.0 1.0 7.0\n", "not 5"),
        ("0.5 1.0\n-0.5 1.0\n", "not 2"),
        ("0.5 0.25 1.0\n0.5 -0.25 1.0 1.0 7.0\n", "number of columns changed"),
        ("0.5 0.25 1.0\n0.5 # 1.0\n", "could not convert string '#'"),
    ],
    ids=["five_columns", "two_columns", "ragged", "hash_token"],
)
def test_measure_text_reader_rejects_wrong_columns(tmp_path, rows, problem):
    path = tmp_path / "m.txt"
    path.write_text("2 1 2.0\n2 1.0\n" + rows)
    with pytest.raises(ValueError, match=r"atom rows must have 3 or 4 columns \(N = 2\).*" + problem):
        sl.load_measure_text(path)


@pytest.mark.parametrize("text, header", [("", ""), ("2 1\n2 1.0\n", "2 1")], ids=["empty_file", "short_header"])
def test_measure_text_reader_rejects_a_short_header(tmp_path, text, header):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"the header line '{header}' must be 'N n_components total_mass'"):
        sl.load_measure_text(path)


@pytest.mark.parametrize(
    "text, k, line",
    [
        ("2 1 1.0\n", 1, ""),
        ("2 1 1.0\n3\n", 1, "3"),
        ("2 2 1.0\n1 1.0\n1 1.0 0.5\n0 0 1\n", 2, "1 1.0 0.5"),
        ("2 1 1.0\nx 1.0\n", 1, "x 1.0"),
        ("2 2 1.0\n1 1.0\n1 one\n0 0 1\n", 2, "1 one"),
    ],
    ids=["file_ends", "one_field", "three_fields", "word_count", "word_nominal_dim"],
)
def test_measure_text_reader_rejects_a_bad_component_line(tmp_path, text, k, line):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"m.txt: component line {k} '{line}' must be 'count nominal_dim'"):
        sl.load_measure_text(path)


@pytest.mark.parametrize(
    "header", ["two 1 1.0", "2 1.5 1.0", "2 1 mass"], ids=["word_dimension", "fractional_component_count", "word_mass"]
)
def test_measure_text_reader_rejects_a_non_numeric_header(tmp_path, header):
    path = tmp_path / "m.txt"
    path.write_text(header + "\n2 1.0\n")
    with pytest.raises(ValueError, match=f"m.txt: the header line '{header}' must be 'N n_components total_mass'"):
        sl.load_measure_text(path)


@pytest.mark.parametrize("components", [(), (Component(0, 0, 1.0),)], ids=["no_components", "empty_component"])
def test_measure_text_round_trip_with_zero_atoms(tmp_path, components):
    mu = sl.PointCloudMeasure(np.zeros((0, 2)), np.zeros(0), components, 0.0)
    path = tmp_path / "m.txt"
    sl.save_measure_text(mu, path)
    back, vback = sl.load_measure_text(path)
    assert back.positions.shape == (0, 2)
    assert back.weights.shape == (0,)
    assert back.components == components
    assert back.total_mass == 0.0
    assert vback is None


def test_measure_text_reader_rejects_rows_after_a_zero_atom_header(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 0 0.0\n0.5 0.25 1.0\n")
    with pytest.raises(ValueError, match="declares 0 atoms"):
        sl.load_measure_text(path)


@pytest.mark.parametrize("rows", [0, 2, 4], ids=["no_rows", "one_row_short", "one_row_over"])
def test_measure_text_reader_counts_rows_against_the_header(tmp_path, rows):
    # a truncated or overlong file: the header declares 3 atoms; no numpy
    # warning on the way (pytest turns warnings into errors)
    path = tmp_path / "m.txt"
    path.write_text("2 1 3.0\n3 1.0\n" + "0.5 0.25 1.0\n" * rows)
    with pytest.raises(ValueError, match=f"declares 3 atoms, but {rows} atom rows follow"):
        sl.load_measure_text(path)


@pytest.mark.parametrize("count", [-3, 10**12], ids=["negative", "more_than_the_file_holds"])
def test_measure_text_reader_rejects_counts_the_file_cannot_hold(tmp_path, count):
    path = tmp_path / "m.txt"
    path.write_text(f"2 1 1.0\n{count} 1.0\n0.5 0.25 1.0\n")
    with pytest.raises(ValueError, match=f"declares {count} atoms, but 1 atom rows follow"):
        sl.load_measure_text(path)


def test_measure_text_reader_reads_rows_of_the_least_length(tmp_path):
    # 2 (N + 1) bytes a row, the last one without its newline
    path = tmp_path / "m.txt"
    path.write_text("2 1 2.0\n2 1.0\n0 0 1\n1 1 1")
    back, vback = sl.load_measure_text(path)
    assert back.positions.tolist() == [[0.0, 0.0], [1.0, 1.0]]
    assert back.weights.tolist() == [1.0, 1.0] and vback is None


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_measure_text_io_working_set_is_bounded(tmp_path):
    mu, v = sl.builtin_measure("circle", {"atoms": 80_000})
    path = tmp_path / "m.txt"
    assert _peak_bytes(sl.save_measure_text, mu, path, v) < 4e6
    assert _peak_bytes(sl.load_measure_text, path) < 8e6


def test_measure_text_reader_holds_one_copy_of_the_atoms(tmp_path):
    # the arrays are filled block by block, not copied out of a whole table
    mu, v = sl.builtin_measure("circle", {"atoms": 80_000})
    path = tmp_path / "m.txt"
    sl.save_measure_text(mu, path, v)
    out = mu.positions.nbytes + mu.weights.nbytes + v.values.nbytes
    assert _peak_bytes(sl.load_measure_text, path) < 1.3 * out


def test_measure_text_reader_checks_columns_across_blocks(tmp_path):
    rows = sl.measures.TEXT_BLOCK_ROWS
    path = tmp_path / "m.txt"
    path.write_text(f"2 1 {rows + 1}.0\n{rows + 1} 1.0\n" + "0.5 0.25 1.0\n" * rows + "0.5 0.25 1.0 7.0\n")
    with pytest.raises(
        ValueError,
        match=rf"3 or 4 columns \(N = 2\): the number of columns changed from 3 to 4 at atom row {rows + 1}",
    ):
        sl.load_measure_text(path)


def test_measure_text_reader_skips_blank_lines(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 1 3.0\n3 1.0\n0.5 0.25 1.0 2.0\n\n0.5 -0.25 1.0 3.0\n  \n-0.5 0.25 1.0 4.0\n\n")
    back, vback = sl.load_measure_text(path)
    assert back.positions.tolist() == [[0.5, 0.25], [0.5, -0.25], [-0.5, 0.25]]
    assert vback.values.tolist() == [2.0, 3.0, 4.0]


finite = st.floats(allow_nan=False, allow_infinity=False)
EDGE_VALUES = [-0.0, 5e-324, 2.5e-310, 1e-5, 0.1, 1e16, sys.float_info.max, -sys.float_info.max]


@st.composite
def text_measures(draw):
    """(positions, weights, density or None) over finite doubles."""
    dim = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=30))
    positions = draw(hnp.arrays(float, (n, dim), elements=finite))
    # bounded so that the weight sum, the declared total mass, stays finite
    weights = draw(hnp.arrays(float, n, elements=st.floats(min_value=0.0, max_value=1e300)))
    density = draw(st.none() | hnp.arrays(float, n, elements=finite))
    return positions, weights, density


@settings(max_examples=60, deadline=None)
@given(text_measures())
@example((np.array([EDGE_VALUES]).T, np.array([0.0, 5e-324, 2.5e-310, 1e-5, 0.1, 1e16, 1e300, -0.0]),
          np.array(EDGE_VALUES[::-1])))
@example((np.array([EDGE_VALUES[:3]]), np.array([sys.float_info.max]), None))
@example((np.array([EDGE_VALUES[3:6], EDGE_VALUES[5:]]), np.array([5e-324, 1e-5]), np.array([-0.0, 1e16])))
def test_measure_text_round_trip_is_bit_exact(tmp_path_factory, case):
    positions, weights, density = case
    mu = sl.PointCloudMeasure.from_atoms(positions, weights, 1.0)
    v = None if density is None else SignedDensity(density)
    path = tmp_path_factory.mktemp("text") / "m.txt"
    sl.save_measure_text(mu, path, v)
    back, vback = sl.load_measure_text(path)
    assert back.positions.shape == mu.positions.shape
    assert back.positions.tobytes() == mu.positions.tobytes()
    assert back.weights.tobytes() == mu.weights.tobytes()
    assert repr(back.total_mass) == repr(mu.total_mass)
    if v is None:
        assert vback is None
    else:
        assert vback.values.tobytes() == v.values.tobytes()


def test_nn_spacing_circle():
    mu, _ = sl.builtin_measure("circle", {"atoms": 1000})
    expected = 2 * math.sin(math.pi / 1000)  # chord between adjacent atoms
    assert nearest_neighbor_spacing(mu) == pytest.approx(expected, rel=1e-9)
