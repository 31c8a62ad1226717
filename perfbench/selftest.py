"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Each check must accept an input that is right and reject the same input with
one deliberate perturbation, so that no check passes vacuously.  The inputs
are built here from the closed forms, or from small matrices assembled with
plain numpy, without spectralab.  Exits 1 if any check accepts a perturbed
input or rejects an unperturbed one.
"""

from __future__ import annotations

import math

import numpy as np

import checks

FAILURES: list[str] = []


def expect(name: str, accepts, rejects) -> None:
    """`accepts` must run without CheckError and `rejects` must raise it."""
    try:
        accepts()
    except checks.CheckError as exc:
        FAILURES.append(f"{name}: rejected the unperturbed input: {exc}")
        print(f"FAIL {name}: rejected the unperturbed input: {exc}")
        return
    try:
        rejects()
    except checks.CheckError as exc:
        print(f"ok   {name}: {exc}")
        return
    FAILURES.append(f"{name}: accepted the perturbed input")
    print(f"FAIL {name}: accepted the perturbed input")


def scaled(values, index: int, factor: float) -> np.ndarray:
    out = np.array(values, dtype=float)
    out[index] *= factor
    return out


def circle_atoms(n: int, radius: float):
    theta = 2 * np.pi * (np.arange(n) + 0.5) / n
    pos = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return theta, pos, np.full(n, 2 * np.pi * radius / n)


def fourier_matrix(pos, wv, L: float, K: int) -> np.ndarray:
    """M[xi, xi'] = a(xi) a(xi') L^-2 sum_i w_i V_i exp(2 pi i (xi' - xi) . X_i / L)."""
    axis = np.arange(-K, K + 1)
    xi = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    a = (1.0 + (2 * np.pi / L) ** 2 * (xi**2).sum(axis=1)) ** -0.5
    e = np.exp(2j * np.pi / L * (pos @ xi.T))  # (atoms, modes)
    m = (e.conj().T * wv) @ e / L**2
    return a[:, None] * m * a[None, :]


def steklov_matrix(theta, wv, K: int, zero_mode: str) -> np.ndarray:
    k = np.arange(-K, K + 1) if zero_mode == "shift" else np.concatenate([np.arange(-K, 0), np.arange(1, K + 1)])
    b = np.sqrt(checks.steklov_multiplier_squared(K, zero_mode))
    e = np.exp(-1j * np.outer(k, theta))
    return b[:, None] * ((e * wv) @ e.conj().T / (2 * np.pi)) * b[None, :]


def signed(eigs):
    eigs = np.asarray(eigs)
    return np.sort(eigs[eigs > 0])[::-1], np.sort(-eigs[eigs < 0])[::-1]


def luxemburg(w, v, young) -> float:
    lo, hi = 1e-6, 1e6
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if np.sum(w * young(np.abs(v) / mid)) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def main() -> int:
    rng = np.random.default_rng(0)

    exact = checks.circle_bessel_spectrum(0.9)
    expect("circle Bessel spectrum",
           lambda: checks.check_top_spectrum("bessel", exact * (1 + 1e-4), exact, 40, 5e-3),
           lambda: checks.check_top_spectrum("bessel", scaled(exact, 7, 1.01), exact, 40, 5e-3))

    exact = checks.circle_log_spectrum(0.8)
    expect("circle pure-log spectrum",
           lambda: checks.check_top_spectrum("pure_log", exact, exact, 40, 5e-3),
           lambda: checks.check_top_spectrum("pure_log", scaled(exact, 0, 1.01), exact, 40, 5e-3))

    exact = checks.sphere_log_spectrum(1.05)
    expect("sphere l<=3 spectrum",
           lambda: checks.check_top_spectrum("sphere", exact * (1 + 5e-3), exact, 15, 1e-2),
           lambda: checks.check_top_spectrum("sphere", scaled(exact, 12, 1.02), exact, 15, 1e-2))

    long = checks.sphere_log_spectrum(1.05, lmax=60)
    expect("sphere plateau",
           lambda: checks.check_plateau("plateau", long, 1.05**2 / math.pi, 0.15),
           lambda: checks.check_plateau("plateau", long * 1.2, 1.05**2 / math.pi, 0.15))

    # Sign-framed spectrum: eigenvalues of S^1/2 Sigma S^1/2 for a reflection-
    # symmetric S and a sign pattern that the reflection negates.
    n = 200
    theta, pos, w = circle_atoms(n, 1.0)
    dist = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1) + np.eye(n)
    s = np.sqrt(w)[:, None] * (-np.log(dist) + 3 * np.eye(n)) * np.sqrt(w)[None, :]
    lam, q = np.linalg.eigh(s)
    half = (q * np.sqrt(np.clip(lam, 0, None))) @ q.T
    sign = np.where(theta < np.pi, 1.0, -1.0)
    plus, minus = signed(np.linalg.eigvalsh(half @ (sign[:, None] * half)))
    moved = np.concatenate([[plus[3]], minus])
    expect("half-signed symmetry",
           lambda: checks.check_symmetric_spectrum("sym", plus, minus),
           lambda: checks.check_symmetric_spectrum("sym", np.delete(plus, 3), np.sort(moved)[::-1]))
    expect("half-signed symmetry, one eigenvalue off by 1%",
           lambda: checks.check_symmetric_spectrum("sym", plus, minus),
           lambda: checks.check_symmetric_spectrum("sym", plus, scaled(minus, 10, 1.01)))

    K, atoms, radius = 30, 61, 1.1
    theta, pos, w = circle_atoms(atoms, radius)
    mass = float(w.sum())
    for policy in ("drop", "shift"):
        eig = np.sort(np.linalg.eigvalsh(steklov_matrix(theta, w, K, policy)))[::-1]
        expect(f"Steklov diagonal ({policy})",
               lambda: checks.check_steklov_diagonal("steklov", eig, K, policy, mass),
               lambda: checks.check_steklov_diagonal("steklov", scaled(eig, 20, 1 + 1e-10), K, policy, mass))
        # Cantor-like angles: the trace identity holds for any measure.
        ang = 2 * np.pi * np.sort(rng.random(300))
        wv = rng.random(300) / 300
        p, m = signed(np.linalg.eigvalsh(steklov_matrix(ang, wv, K, policy)))
        trace = checks.steklov_trace(K, policy, float(wv.sum()))
        expect(f"Steklov trace identity ({policy})",
               lambda: checks.check_trace("trace", p, m, trace),
               lambda: checks.check_trace("trace", scaled(p, 0, 1.01), m, trace))

    _, pos, w = circle_atoms(400, 0.9)
    v = 1.5 + 0.5 * np.sin(3 * pos[:, 0]) * np.cos(pos[:, 1])
    p, m = signed(np.linalg.eigvalsh(fourier_matrix(pos + 0.2, w * v, 8.0, 6)))
    trace = checks.fourier_trace(8.0, 6, 2, float(np.dot(w, v)))
    expect("Fourier trace identity",
           lambda: checks.check_trace("trace", p, m, trace),
           lambda: checks.check_trace("trace", scaled(p, 0, 1.01), m, trace))

    ref = {"positions": pos, "weights": w, "density": v, "components": [(400, 1.0)], "total_mass": float(w.sum())}
    for key, what in (("weights", "weight"), ("density", "density value"), ("positions", "coordinate")):
        bent = dict(ref)
        bent[key] = ref[key].copy()
        bent[key].flat[17] = np.nextafter(bent[key].flat[17], np.inf)
        expect(f"measure round trip, one {what} one ulp off",
               lambda: checks.check_round_trip("rt", dict(ref), ref),
               lambda: checks.check_round_trip("rt", bent, ref))
    expect("measure round trip, component dimension",
           lambda: checks.check_round_trip("rt", dict(ref), ref),
           lambda: checks.check_round_trip("rt", dict(ref, components=[(400, 2.0)]), ref))

    for name, young in (("psi", checks.psi), ("phi", checks.phi)):
        norm = luxemburg(w, v, young)
        expect(f"Luxemburg modular ({name})",
               lambda: checks.check_luxemburg(name, norm, w, v, young),
               lambda: checks.check_luxemburg(name, norm * (1 + 1e-6), w, v, young))

    atoms, radius = 80_000, 0.95
    _, pos, w = circle_atoms(atoms, radius)
    radii = radius * np.geomspace(0.01, 0.5, 6)
    ratios = []
    for c in pos[rng.choice(atoms, 20, replace=False)]:
        d = np.linalg.norm(pos - c, axis=1)
        ratios.append([w[d <= r].sum() / r for r in radii])
    lo, hi = float(np.min(ratios)), float(np.max(ratios))
    expect("circle Ahlfors band",
           lambda: checks.check_circle_ahlfors("ahlfors", lo, hi, radius, atoms, radii),
           lambda: checks.check_circle_ahlfors("ahlfors", lo, hi * 1.02, radius, atoms, radii))
    expect("circle Ahlfors band, lower end",
           lambda: checks.check_circle_ahlfors("ahlfors", lo, hi, radius, atoms, radii),
           lambda: checks.check_circle_ahlfors("ahlfors", lo * 0.98, hi, radius, atoms, radii))

    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
