"""Discrete approximations of singular measures and their geometric diagnostics.

A measure is represented as a weighted atom cloud.  Integrals against the
measure become weighted sums, ball masses become range queries, and the
regularity/density quantities of fractal geometry become finite-scale ratio
statistics.  All resolutions are explicit: nothing here claims to compute a
limit, only its finite-scale proxy.
"""

from __future__ import annotations

import inspect
import itertools
import math
import numbers
import os
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    BudgetError,
    DegenerateSystemError,
    DimensionMismatchError,
    EvaluationError,
    InvalidRatioError,
    LipschitzBoundError,
    ResolutionError,
    ScenarioError,
)

MASS_RTOL = 1e-12
IFS_DIMENSION_CAP = 64.0
ATOM_BUDGET = 200_000
REGULARITY_THRESHOLD = 50.0


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Component:
    """Contiguous atom range [start, stop) carrying one nominal dimension."""

    start: int
    stop: int
    nominal_dim: float


@dataclass(frozen=True)
class PointCloudMeasure:
    """Weighted atom cloud approximating a compactly supported Borel measure.

    positions : (n, N) array of atom locations in R^N
    weights   : (n,) nonnegative masses
    components: partition of the atom range, each with a nominal dimension
    total_mass: declared total mass, must match the weight sum
    """

    positions: np.ndarray
    weights: np.ndarray
    components: tuple[Component, ...]
    total_mass: float

    def __post_init__(self):
        pos = _readonly(np.asarray(self.positions, dtype=float))
        w = _readonly(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)
        if pos.ndim != 2 or pos.shape[0] != w.shape[0]:
            raise ValueError("positions must be (n, N) matching weights (n,)")
        if not np.all(np.isfinite(pos)):
            raise ValueError("atom positions must lie in a finite bounding box")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        s = float(w.sum())
        if abs(s - self.total_mass) > MASS_RTOL * max(1.0, abs(self.total_mass)):
            raise ValueError(
                f"total_mass {self.total_mass!r} does not match weight sum {s!r}"
            )
        edges = [(c.start, c.stop) for c in self.components]
        expect = 0
        for start, stop in edges:
            if start != expect or stop < start:
                raise ValueError("components must partition the atom range in order")
            expect = stop
        if expect != len(w):
            raise ValueError("components must cover all atoms")
        for c in self.components:
            if not (0.0 < c.nominal_dim <= self.ambient_dim):
                raise ValueError("nominal_dim must lie in (0, N]")

    @property
    def ambient_dim(self) -> int:
        return self.positions.shape[1]

    @property
    def atom_count(self) -> int:
        return self.positions.shape[0]

    @cached_property
    def _kdtree(self) -> cKDTree:
        return cKDTree(self.positions)

    @cached_property
    def _nn_distances(self) -> np.ndarray:
        """Each atom's distance to its nearest other atom, from the cached tree."""
        d, _ = self._kdtree.query(self.positions, k=2)
        return _readonly(d[:, 1])

    @cached_property
    def _nn_spacing(self) -> float:
        if self.atom_count < 2:
            return math.inf
        return float(np.median(self._nn_distances))

    @staticmethod
    def from_atoms(
        positions: np.ndarray, weights: np.ndarray, nominal_dim: float
    ) -> "PointCloudMeasure":
        """Single-component measure from raw atom arrays."""
        w = np.asarray(weights, dtype=float)
        return PointCloudMeasure(
            positions=np.asarray(positions, dtype=float),
            weights=w,
            components=(Component(0, len(w), nominal_dim),),
            total_mass=float(w.sum()),
        )


@dataclass(frozen=True)
class SignedDensity:
    """Per-atom values of a real density V; the pairing with a measure gives P = V mu."""

    values: np.ndarray

    def __post_init__(self):
        v = _readonly(np.asarray(self.values, dtype=float))
        if v.ndim != 1 or not np.all(np.isfinite(v)):
            raise ValueError("density values must be a finite 1-d sequence")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def positive_part(self) -> np.ndarray:
        return np.maximum(self.values, 0.0)

    @staticmethod
    def ones(n: int) -> "SignedDensity":
        return SignedDensity(np.ones(n))


def check_pairing(measure: PointCloudMeasure, density: SignedDensity) -> None:
    if len(density) != measure.atom_count:
        raise ValueError(
            f"density length {len(density)} does not match atom count {measure.atom_count}"
        )


@dataclass(frozen=True)
class Similitude:
    """Contractive similitude x -> h x + b with 0 < h < 1."""

    ratio: float
    translation: np.ndarray

    def __post_init__(self):
        if not (0.0 < self.ratio < 1.0):
            raise InvalidRatioError(f"contraction ratio {self.ratio} not in (0, 1)")
        b = _readonly(np.asarray(self.translation, dtype=float))
        if b.ndim != 1:
            raise ValueError("translation must be a vector")
        object.__setattr__(self, "translation", b)

    @property
    def dim(self) -> int:
        return self.translation.shape[0]

    def fixed_point(self) -> np.ndarray:
        """Unique solution of x = h x + b (exists since h < 1)."""
        return self.translation / (1.0 - self.ratio)


def bisect_threshold(below, lo: float, hi: float) -> tuple[float, float, int]:
    """Bisect [lo, hi], below(lo) true and below(hi) false, until the midpoint
    equals an endpoint, so lo and hi are adjacent doubles.  Returns (lo, hi, steps)."""
    steps = 0
    while (mid := 0.5 * lo + 0.5 * hi) not in (lo, hi):
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
        steps += 1
    return lo, hi, steps


def ifs_dimension(maps: Sequence[Similitude]) -> float:
    """Similarity dimension: the unique d > 0 with sum h_j^d = 1, bisected on
    (0, 64] to the largest double with sum h_j^d >= 1.  For the Cantor and
    Sierpinski maps that is log m / log(1/h) to the last bit."""
    if len(maps) < 2:
        raise DegenerateSystemError("an IFS needs at least two maps")
    h = np.array([s.ratio for s in maps], dtype=float)
    if np.any(h <= 0.0) or np.any(h >= 1.0):
        raise InvalidRatioError("all contraction ratios must lie in (0, 1)")

    def f(d: float) -> float:
        return float(np.sum(h**d)) - 1.0

    if f(IFS_DIMENSION_CAP) >= 0.0:
        raise InvalidRatioError("no similarity dimension below the cap 64")
    return bisect_threshold(lambda d: f(d) >= 0.0, 1e-12, IFS_DIMENSION_CAP)[0]


@dataclass(frozen=True)
class SimilitudeSystem:
    """An IFS; its similarity dimension is computed from the ratios."""

    maps: tuple[Similitude, ...]

    def __post_init__(self):
        n = self.maps[0].dim
        if not (0.0 < self.similarity_dim <= n):
            raise ValueError("similarity dimension must lie in (0, N]")

    @cached_property
    def similarity_dim(self) -> float:
        return ifs_dimension(self.maps)

    @property
    def probabilities(self) -> np.ndarray:
        """Self-similar weights p_j = h_j^d (sum to one by construction)."""
        h = np.array([s.ratio for s in self.maps])
        return h**self.similarity_dim


def cantor_system() -> SimilitudeSystem:
    """Middle-third Cantor IFS on the line (embedded as 1-d maps)."""
    maps = [Similitude(1 / 3, [0.0]), Similitude(1 / 3, [2 / 3])]
    return SimilitudeSystem(tuple(maps))


def sierpinski_system(side: float = 1.0) -> SimilitudeSystem:
    """Sierpinski gasket IFS: three half-scale maps toward triangle vertices."""
    verts = np.array([[0.0, 0.0], [side, 0.0], [0.5 * side, 0.5 * math.sqrt(3) * side]])
    maps = [Similitude(0.5, 0.5 * v) for v in verts]
    return SimilitudeSystem(tuple(maps))


def ifs_self_similar_measure(system: SimilitudeSystem, depth: int) -> PointCloudMeasure:
    """Depth-k atomization of the self-similar measure of an IFS.

    One atom per word w = (j_1 ... j_k): its position is the composed map
    S_{j_1} o ... o S_{j_k} applied to the fixed point of S_{j_1}, its weight
    the product of the self-similar probabilities p_{j_i} = h_{j_i}^d.  The
    open set condition is assumed, not verified; weights are exact for equal
    ratios and the natural surrogate otherwise.  BudgetError past ATOM_BUDGET
    atoms.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    m = len(system.maps)
    if m**depth > ATOM_BUDGET:
        raise BudgetError(f"{m}^{depth} atoms exceed the budget {ATOM_BUDGET}")
    n = system.maps[0].dim
    probs = system.probabilities

    # Left-to-right composition: keep (h, b) of the composed map x -> h x + b
    # plus the first letter of each word; extend words on the right.
    ratios = np.array([s.ratio for s in system.maps])  # (m,)
    offs = np.array([s.translation for s in system.maps])  # (m, n)
    cur_h, cur_b, cur_first, cur_w = ratios, offs, np.arange(m), probs
    for _ in range(depth - 1):
        # new = old o S_j : x -> h_old (h_j x + b_j) + b_old
        cur_b = (cur_h[:, None, None] * offs + cur_b[:, None, :]).reshape(-1, n)
        cur_h = (cur_h[:, None] * ratios).ravel()
        cur_first = np.repeat(cur_first, m)
        cur_w = (cur_w[:, None] * probs[None, :]).ravel()

    fixed = np.array([s.fixed_point() for s in system.maps])  # (m, n)
    pos = cur_h[:, None] * fixed[cur_first] + cur_b
    total = float(cur_w.sum())
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"IFS weights sum to {total!r}, expected 1")
    return PointCloudMeasure(
        positions=pos,
        weights=cur_w,
        components=(Component(0, len(cur_w), system.similarity_dim),),
        total_mass=total,
    )


@dataclass(frozen=True)
class LipschitzPatch:
    """Graph patch y = phi(x) over an axis-aligned box G in R^d.

    phi maps (m, d) arrays of points to (m, codim) arrays of values; the
    surface lives in R^{d + codim}.
    """

    param_dim: int
    codim: int
    box_lo: np.ndarray
    box_hi: np.ndarray
    resolution: tuple[int, ...]
    phi: Callable[[np.ndarray], np.ndarray]
    lipschitz_estimate: float

    def __post_init__(self):
        lo = _readonly(np.asarray(self.box_lo, dtype=float))
        hi = _readonly(np.asarray(self.box_hi, dtype=float))
        object.__setattr__(self, "box_lo", lo)
        object.__setattr__(self, "box_hi", hi)
        if lo.shape != (self.param_dim,) or hi.shape != (self.param_dim,):
            raise ValueError("box bounds must have length param_dim")
        if np.any(hi <= lo):
            raise ValueError("box must have positive extent on every axis")
        if len(self.resolution) != self.param_dim or min(self.resolution) < 2:
            raise ValueError("need a resolution of at least 2 cells per axis")

    @property
    def ambient_dim(self) -> int:
        return self.param_dim + self.codim


def _patch_grid(patch: LipschitzPatch):
    axes = [
        patch.box_lo[i]
        + (patch.box_hi[i] - patch.box_lo[i]) * (np.arange(k) + 0.5) / k
        for i, k in enumerate(patch.resolution)
    ]
    steps = [
        (patch.box_hi[i] - patch.box_lo[i]) / k for i, k in enumerate(patch.resolution)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return mesh, pts, steps


def surface_measure(patch: LipschitzPatch) -> PointCloudMeasure:
    """Midpoint-rule surface measure of a Lipschitz graph patch.

    Atom positions are (x_c, phi(x_c)) at cell centers; the weight is the
    area element sigma(x_c) = det(I + (grad phi)^T grad phi)^{1/2} times the
    cell volume.  Gradients use central differences, one-sided at the box
    boundary.
    """
    d, q = patch.param_dim, patch.codim
    mesh, pts, steps = _patch_grid(patch)
    vals = np.asarray(patch.phi(pts), dtype=float).reshape(-1, q)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("phi evaluated to a non-finite value on the grid")
    grid_shape = tuple(patch.resolution)
    vals_grid = vals.reshape(*grid_shape, q)

    # jac[..., a, i] = d phi_a / d x_i
    jac = np.empty(grid_shape + (q, d))
    for a in range(q):
        grads = np.gradient(vals_grid[..., a], *steps, edge_order=1)
        if d == 1:
            grads = [grads]
        for i in range(d):
            jac[..., a, i] = grads[i]
    if not np.all(np.isfinite(jac)):
        raise EvaluationError("non-finite finite-difference gradient")
    op_norms = np.linalg.norm(jac.reshape(-1, q, d), ord=2, axis=(1, 2))
    if op_norms.max(initial=0.0) > patch.lipschitz_estimate * (1 + 1e-6):
        raise LipschitzBoundError(
            f"gradient norm {op_norms.max():.6g} exceeds the Lipschitz estimate "
            f"{patch.lipschitz_estimate:.6g}"
        )

    gram = np.einsum("...ai,...aj->...ij", jac, jac) + np.eye(d)
    sigma = np.sqrt(np.linalg.det(gram.reshape(-1, d, d)))
    cell_vol = float(np.prod(steps))
    weights = sigma * cell_vol
    positions = np.concatenate([pts, vals], axis=1)
    return PointCloudMeasure(
        positions=positions,
        weights=weights,
        components=(Component(0, len(weights), float(d)),),
        total_mass=float(weights.sum()),
    )


def union_measure(
    parts: Sequence[tuple[PointCloudMeasure, SignedDensity]]
) -> tuple[PointCloudMeasure, SignedDensity]:
    """Concatenate measures; every input component survives with its dimension."""
    if not parts:
        raise ValueError("need at least one part")
    ambient = parts[0][0].ambient_dim
    for mu, v in parts:
        check_pairing(mu, v)
        if mu.ambient_dim != ambient:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {mu.ambient_dim} vs {ambient}"
            )
    positions = np.vstack([mu.positions for mu, _ in parts])
    weights = np.concatenate([mu.weights for mu, _ in parts])
    values = np.concatenate([v.values for _, v in parts])
    comps = []
    offset = 0
    for mu, _ in parts:
        for c in mu.components:
            comps.append(Component(c.start + offset, c.stop + offset, c.nominal_dim))
        offset += mu.atom_count
    total = float(sum(mu.total_mass for mu, _ in parts))
    out = PointCloudMeasure(
        positions=positions,
        weights=weights,
        components=tuple(comps),
        total_mass=total,
    )
    return out, SignedDensity(values)


# -- ball statistics ---------------------------------------------------------


def _ball_masses(
    measure: PointCloudMeasure, centers: np.ndarray, radii: np.ndarray
) -> np.ndarray:
    """Masses of the closed balls, shape (len(centers), len(radii)).

    An atom x lies in B(c, r) when sum_k (x_k - c_k)^2 <= r^2.  Each center
    takes one weighted, cumulative kd-tree traversal for all radii, on the
    tree the measure caches."""
    tree = measure._kdtree
    w = np.array(measure.weights)  # count_neighbors rejects read-only weights
    return np.array(
        [
            tree.count_neighbors(cKDTree(c[None, :]), radii, weights=(w, None), cumulative=True)
            for c in centers
        ]
    )


def ball_mass(measure: PointCloudMeasure, center: Sequence[float], radius: float) -> float:
    """Mass of the closed ball B(center, radius): a weighted range count."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    c = np.asarray(center, dtype=float)
    return float(_ball_masses(measure, c[None, :], np.array([float(radius)]))[0, 0])


def nearest_neighbor_spacing(measure: PointCloudMeasure) -> float:
    """Median nearest-neighbor distance; the resolution scale of the cloud.

    Computed once per measure: the measure is immutable, and the pipeline's
    diagnostics and both resolution-floor checks all ask for it."""
    return measure._nn_spacing


def diameter(measure: PointCloudMeasure) -> float:
    span = measure.positions.max(axis=0) - measure.positions.min(axis=0)
    return float(np.linalg.norm(span))


@dataclass(frozen=True)
class AhlforsBand:
    """Empirical bounds on mu(B(X, r)) / r^s over sampled centers and radii."""

    exponent: float
    c_lower: float
    c_upper: float
    is_regular: bool
    radii: tuple[float, ...]
    sample_count: int

    @property
    def ratio(self) -> float:
        return self.c_upper / self.c_lower if self.c_lower > 0 else math.inf


def _band(measure: PointCloudMeasure, s: float, centers: np.ndarray, radii: Sequence[float]) -> AhlforsBand:
    """The min/max band of mu(B(c, r)) / r^s over the centres and the radii.
    Each radius must be positive and at least the resolution floor."""
    r = np.asarray(sorted(radii), dtype=float)
    if r.size == 0 or np.any(r <= 0):
        raise ValueError("radii must be positive")
    floor = 4.0 * nearest_neighbor_spacing(measure)
    if r[0] < floor:
        raise ResolutionError(
            f"radius {r[0]:g} below the resolution floor {floor:g} "
            "(4 x nearest-neighbor spacing); the atom cloud cannot witness it"
        )
    ratios = _ball_masses(measure, centers, r) / r**s
    lo, hi = float(ratios.min()), float(ratios.max())
    return AhlforsBand(
        exponent=s,
        c_lower=lo,
        c_upper=hi,
        is_regular=bool(lo > 0 and hi / lo <= REGULARITY_THRESHOLD),
        radii=tuple(float(x) for x in r),
        sample_count=len(centers),
    )


def ahlfors_constants(
    measure: PointCloudMeasure,
    s: float,
    radii: Sequence[float],
    sample_count: int,
    seed: int = 0,
) -> AhlforsBand:
    """Scan mu(B(X, r)) / r^s over sampled atoms X; report the min/max band.

    The measure is flagged empirically s-regular when the band ratio stays
    below REGULARITY_THRESHOLD.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    n = measure.atom_count
    if sample_count >= n:
        centers = measure.positions
    else:
        rng = np.random.default_rng(seed)
        centers = measure.positions[rng.choice(n, size=sample_count, replace=False)]
    return _band(measure, s, centers, radii)


def density_bounds(
    measure: PointCloudMeasure,
    s: float,
    center: Sequence[float],
    radii: Sequence[float],
) -> AhlforsBand:
    """The band of mu(B(center, r)) / r^s over the given radii.  No pipeline
    stage calls it; perfbench's tracer still patches it by name."""
    return _band(measure, s, np.asarray(center, dtype=float)[None, :], radii)


# -- scenario catalog --------------------------------------------------------


def _circle_atoms(n: int, radius: float, center=(0.0, 0.0)):
    theta = 2 * np.pi * (np.arange(n) + 0.5) / n
    pos = np.stack(
        [center[0] + radius * np.cos(theta), center[1] + radius * np.sin(theta)], axis=1
    )
    w = np.full(n, 2 * np.pi * radius / n)
    return theta, pos, w


def _cantor_midpoints(depth: int) -> np.ndarray:
    """Midpoints of the level-k triadic intervals: distinct, none at 0 or 1."""
    x = np.array([0.5])
    for _ in range(depth):
        x = np.concatenate([x / 3.0, x / 3.0 + 2.0 / 3.0])
    return np.sort(x)


def _fibonacci_sphere(n: int, radius: float):
    j = np.arange(n)
    z = 1.0 - (2.0 * j + 1.0) / n
    phi = math.pi * (3.0 - math.sqrt(5.0)) * j
    rho = np.sqrt(1.0 - z**2)
    pos = radius * np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    w = np.full(n, 4 * np.pi * radius**2 / n)
    return pos, w


def _circle(atoms=2000, radius=1.0, cx=0.0, cy=0.0):
    n = int(atoms)
    _, pos, w = _circle_atoms(n, float(radius), (float(cx), float(cy)))
    return PointCloudMeasure.from_atoms(pos, w, 1.0), SignedDensity.ones(n)


def _segment(atoms=2000, length=1.0):
    n, length = int(atoms), float(length)
    x = length * (np.arange(n) + 0.5) / n
    pos = np.stack([x, np.zeros(n)], axis=1)
    w = np.full(n, length / n)
    return PointCloudMeasure.from_atoms(pos, w, 1.0), SignedDensity.ones(n)


def _two_circles(atoms=3000, r1=1.0, r2=0.5, gap=1.0):
    n, r1, r2 = int(atoms), float(r1), float(r2)
    n1 = min(max(int(round(n * r1 / (r1 + r2))), 1), n - 1)  # an atom on each circle
    n2 = n - n1
    _, pos1, w1 = _circle_atoms(n1, r1, (0.0, 0.0))
    _, pos2, w2 = _circle_atoms(n2, r2, (r1 + float(gap) + r2, 0.0))
    m1 = PointCloudMeasure.from_atoms(pos1, w1, 1.0)
    m2 = PointCloudMeasure.from_atoms(pos2, w2, 1.0)
    return union_measure([(m1, SignedDensity.ones(n1)), (m2, SignedDensity.ones(n2))])


def _sphere(atoms=3000, radius=1.0):
    n = int(atoms)
    pos, w = _fibonacci_sphere(n, float(radius))
    return PointCloudMeasure.from_atoms(pos, w, 2.0), SignedDensity.ones(n)


def _cantor_line(depth=9):
    line = ifs_self_similar_measure(cantor_system(), int(depth))
    pos = np.concatenate([line.positions, np.zeros((line.atom_count, 1))], axis=1)
    mu = PointCloudMeasure.from_atoms(pos, line.weights, line.components[0].nominal_dim)
    return mu, SignedDensity.ones(mu.atom_count)


def _cantor_circle(depth=10, radius=1.0):
    r = float(radius)
    d = cantor_system().similarity_dim
    x = _cantor_midpoints(int(depth))
    theta = 2 * np.pi * x
    pos = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    w = np.full(len(x), 1.0 / len(x))
    return PointCloudMeasure.from_atoms(pos, w, d), SignedDensity.ones(len(x))


def _sierpinski(depth=7, side=1.0):
    mu = ifs_self_similar_measure(sierpinski_system(float(side)), int(depth))
    return mu, SignedDensity.ones(mu.atom_count)


def _half_signed_circle(atoms=2000, radius=1.0):
    theta, pos, w = _circle_atoms(int(atoms), float(radius))
    v = np.where(theta < np.pi, 1.0, -1.0)
    return PointCloudMeasure.from_atoms(pos, w, 1.0), SignedDensity(v)


def _circle_plus_square(atoms=2000, radius=1.0, cells=45, side=1.0):
    n, cells, side = int(atoms), int(cells), float(side)
    _, cpos, cw = _circle_atoms(n, float(radius))
    g = side * ((np.arange(cells) + 0.5) / cells - 0.5)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    spos = np.stack([gx.ravel(), gy.ravel()], axis=1)
    sw = np.full(cells * cells, side * side / (cells * cells))
    mc = PointCloudMeasure.from_atoms(cpos, cw, 1.0)
    ms = PointCloudMeasure.from_atoms(spos, sw, 2.0)
    return union_measure([(mc, SignedDensity.ones(n)), (ms, SignedDensity.ones(cells * cells))])


# Catalog measure name -> (dimension of the space it lives in, builder).  A
# builder's keyword parameters and their defaults are the measure's params.
BUILTIN_MEASURES = {
    "circle": (2, _circle),
    "segment": (2, _segment),
    "two_circles": (2, _two_circles),
    "sphere": (3, _sphere),
    "cantor_line": (2, _cantor_line),
    "cantor_circle": (2, _cantor_circle),
    "sierpinski": (2, _sierpinski),
    "half_signed_circle": (2, _half_signed_circle),
    "circle_plus_square": (2, _circle_plus_square),
    "steklov_cantor": (2, partial(_cantor_circle, depth=12)),
}


# Least value of the integer catalog parameters: two atoms give every atom
# a nearest neighbour and each circle of two_circles an atom.
PARAM_MINIMUM = {"atoms": 2, "cells": 1, "depth": 1}
# Catalog parameters that are lengths, and so must be positive.
PARAM_LENGTHS = ("radius", "r1", "r2", "length", "side")
# A length lies in [1 / PARAM_SCALE, PARAM_SCALE] and any other real
# parameter (a centre coordinate, a gap) within PARAM_SCALE of 0, so that
# atoms, masses and squared distances stay normal floats.
PARAM_SCALE = 1e100
# The number of maps of each self-similar catalog measure: depth d builds
# maps^d atoms.
IFS_MAPS = {"cantor_line": 2, "cantor_circle": 2, "steklov_cantor": 2, "sierpinski": 3}


def atom_count(name: str, params: dict | None = None) -> tuple[int, str]:
    """The number of atoms the catalog measure builds from params, with the
    builder's defaults for the rest, and the sum it is: `atoms`, plus
    `cells`^2 for a square grid, plus maps^depth for a self-similar
    measure.  The params are ones catalog_entry accepts."""
    build = BUILTIN_MEASURES[name][1]
    params = {key: p.default for key, p in inspect.signature(build).parameters.items()} | (params or {})
    terms, count = [], 0
    if "atoms" in params:
        terms.append(f"{params['atoms']}")
        count += params["atoms"]
    if "cells" in params:
        terms.append(f"{params['cells']}^2")
        count += params["cells"] ** 2
    if name in IFS_MAPS:
        maps, depth = IFS_MAPS[name], params["depth"]
        terms.append(f"{maps}^{depth}")
        count += maps ** min(depth, 64)  # 2^64 is past any budget; no huge power
    return count, " + ".join(terms)


def catalog_entry(name: str, params: dict | None = None) -> tuple[int, Callable]:
    """(ambient dimension, builder) of a catalog measure; ScenarioError if the
    name is unknown, or if `params` holds a key the builder does not take or
    a value not of its default's type (an integer for an int default, a real
    number for a float one, never a bool), or out of range: at least
    PARAM_MINIMUM, a PARAM_LENGTHS value in [1 / PARAM_SCALE, PARAM_SCALE],
    any other real at most PARAM_SCALE in magnitude.  So is a measure that
    would build more atoms than ATOM_BUDGET."""
    if name not in BUILTIN_MEASURES:
        raise ScenarioError(f"unknown measure {name!r}")
    ambient_dim, build = BUILTIN_MEASURES[name]
    known = inspect.signature(build).parameters
    unknown = ", ".join(map(repr, sorted(set(params or {}) - set(known))))
    if unknown:
        raise ScenarioError(f"measure {name!r} has no parameter {unknown}; it takes {', '.join(known)}")
    for key, value in (params or {}).items():
        kind = numbers.Integral if isinstance(known[key].default, int) else numbers.Real
        if isinstance(value, bool) or not isinstance(value, kind):
            expected = "an integer" if kind is numbers.Integral else "a real number"
            raise ScenarioError(f"measure {name!r} parameter {key!r} must be {expected}, not {value!r}")
        if key in PARAM_MINIMUM:
            ok, bound = value >= PARAM_MINIMUM[key], f"at least {PARAM_MINIMUM[key]}"
        elif key in PARAM_LENGTHS:
            ok, bound = 1 / PARAM_SCALE <= value <= PARAM_SCALE, f"in [{1 / PARAM_SCALE:g}, {PARAM_SCALE:g}]"
        else:
            ok, bound = abs(value) <= PARAM_SCALE, f"at most {PARAM_SCALE:g} in magnitude"
        if not ok:
            raise ScenarioError(f"measure {name!r} parameter {key!r} must be {bound}, not {value!r}")
    count, terms = atom_count(name, params)
    if count > ATOM_BUDGET:
        raise ScenarioError(f"measure {name!r} would build {terms} atoms, past the atom budget {ATOM_BUDGET}")
    return ambient_dim, build


def builtin_measure(
    name: str, params: dict | None = None
) -> tuple[PointCloudMeasure, SignedDensity]:
    """Construct one of the catalog measures with its default density.

    All catalog measures carry V = 1 except `half_signed_circle`, whose
    density is +1 on the upper half-arc and -1 on the lower.  Parameters
    that round two atoms onto one point (a radius below the spacing of
    doubles at its centre) are a ScenarioError.
    """
    _, build = catalog_entry(name, params)
    mu, v = build(**(params or {}))
    if np.any(mu._nn_distances == 0):
        raise ScenarioError(
            f"measure {name!r} has coincident atoms: its lengths are below the spacing of doubles at its position"
        )
    return mu, v


# -- serialization -----------------------------------------------------------

# Atom rows that save_measure_text formats, and load_measure_text parses, at a time.
TEXT_BLOCK_ROWS = 8192


def save_measure_text(
    measure: PointCloudMeasure, path, density: SignedDensity | None = None
) -> None:
    """Columnar text format: header `N n_components total_mass`, one line per
    component `count nominal_dim`, then one line per atom `x1 .. xN w [V]`,
    each value its shortest round-trip repr.  Rows are formatted
    TEXT_BLOCK_ROWS at a time, so the Python floats alive do not grow with
    the atom count."""
    if density is not None:
        check_pairing(measure, density)
    with open(path, "w") as f:
        f.write(
            f"{measure.ambient_dim} {len(measure.components)} {measure.total_mass!r}\n"
        )
        for c in measure.components:
            f.write(f"{c.stop - c.start} {c.nominal_dim!r}\n")
        cols = [*measure.positions.T, measure.weights]
        if density is not None:
            cols.append(density.values)
        for i0 in range(0, measure.atom_count, TEXT_BLOCK_ROWS):
            block = (map(repr, col[i0 : i0 + TEXT_BLOCK_ROWS].tolist()) for col in cols)
            f.writelines(" ".join(row) + "\n" for row in zip(*block))


def _rows_follow(f, comments: str | None = None) -> bool:
    """Whether a line other than whitespace follows in the text file f, once
    a comment from `comments` on (if given) is cut off, as np.loadtxt cuts
    it; f is left at the start of that line.  np.loadtxt warns on input
    without data, so the reader asks this first."""
    while True:
        at = f.tell()
        line = f.readline()
        if not line:
            return False
        if (line.partition(comments)[0] if comments else line).strip():
            f.seek(at)
            return True


def _line_fields(line: str, types: tuple, error: str) -> list:
    """The fields of a header or component line, each converted by its type
    (int for a count); ValueError(error) for a wrong field count or a token
    the type does not parse."""
    fields = line.split()
    if len(fields) == len(types):
        try:
            return [kind(field) for kind, field in zip(types, fields)]
        except ValueError:
            pass
    raise ValueError(error)


def load_measure_text(path) -> tuple[PointCloudMeasure, SignedDensity | None]:
    """Read the format of save_measure_text.  Every atom row must hold N + 1
    numbers (coordinates and weight) or N + 2 (and a density value), N the
    header's dimension, and there must be as many rows as the header's
    component counts add up to; anything else is a ValueError.  The rows are
    parsed by np.loadtxt, correctly rounded, so a round trip is bit-exact.
    A header that declares no atoms reads back as the empty measure,
    without a density.

    The output arrays are allocated from the header's atom count, when the
    file is large enough to hold that many rows, and filled a block of
    TEXT_BLOCK_ROWS lines at a time, so no table of all the rows is held
    next to them.  The lines are read through readline, which keeps
    f.tell() valid for _rows_follow."""
    with open(path) as f:
        header = f.readline()
        ambient, ncomp, total = _line_fields(
            header, (int, int, float), f"{path}: the header line {header.strip()!r} must be 'N n_components total_mass'"
        )
        comps = []
        start = 0
        for k in range(1, ncomp + 1):
            line = f.readline()
            cnt, dim = _line_fields(
                line, (int, float), f"{path}: component line {k} {line.strip()!r} must be 'count nominal_dim'"
            )
            comps.append(Component(start, start + cnt, dim))
            start += cnt
        expected = f"{ambient + 1} or {ambient + 2} columns (N = {ambient})"
        lines = iter(f.readline, "")
        # a row takes at least 2 (N + 1) bytes, the last one a byte less; a
        # count the rest of the file cannot hold gets no arrays, and its rows
        # are only counted
        room = (os.fstat(f.fileno()).st_size - f.tell() + 1) // (2 * (ambient + 1))
        size = start if 0 <= start <= room else 0
        pos, w, v = np.empty((size, ambient)), np.empty(size), None
        width, read = None, 0
        while _rows_follow(f):
            try:
                block = np.loadtxt(
                    itertools.islice(lines, TEXT_BLOCK_ROWS), dtype=float, ndmin=2, comments=None
                )
            except ValueError as exc:
                raise ValueError(f"{path}: atom rows must have {expected}: {exc}") from exc
            if width is None:
                width = block.shape[1]
                if width not in (ambient + 1, ambient + 2):
                    raise ValueError(f"{path}: atom rows must have {expected}, not {width}")
                if width == ambient + 2:
                    v = np.empty(size)
            elif block.shape[1] != width:
                raise ValueError(
                    f"{path}: atom rows must have {expected}: the number of columns "
                    f"changed from {width} to {block.shape[1]} at atom row {read + 1}"
                )
            stop = read + len(block)
            if stop <= size:  # rows past size are only counted
                pos[read:stop] = block[:, :ambient]
                w[read:stop] = block[:, ambient]
                if v is not None:
                    v[read:stop] = block[:, ambient + 1]
            read = stop
    if read != start:
        raise ValueError(
            f"{path}: the header declares {start} atoms, but {read} atom rows follow"
        )
    mu = PointCloudMeasure(
        positions=pos, weights=w, components=tuple(comps), total_mass=total
    )
    return mu, None if v is None else SignedDensity(v)
