"""Finite-dimensional discretizations of T = A* P A by two independent routes,
plus the logarithmic potential and the Steklov circle operator.

fourier:   compression of the quadratic form onto the truncated Fourier basis
           of a torus of period L with the measure localized in a sub-box.
logkernel: Nystrom matrix of the log-singular kernel of A A* on the atoms of
           the measure (the K K* side; nonzero spectra of the two sides
           coincide).

The fourier and steklov routes are one Toeplitz compression
M[xi, zeta] = a(xi) a(zeta) F(zeta - xi) onto the modes toeplitz_modes
builds: steklov is its 1-D case, the angle measure on a circle of period
2 pi with the multiplier b(k).  The symbol is even and the density real, so
M is returned as a real symmetric matrix in the cos/sin basis, with the
same spectrum as the complex Hermitian matrix on the exponentials.
"""

from __future__ import annotations

import math
import mmap
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh, issymmetric
from scipy.linalg.blas import dtrmm, zgemm
from scipy.linalg.lapack import dpotrf
from scipy.spatial.distance import cdist
from scipy.special import k0 as bessel_k0

from .coeffs import sphere_area
from .errors import (
    BudgetError,
    DegenerateKernelError,
    NegativeDensityError,
    SolverError,
    SupportTooLargeError,
)
from .measures import PointCloudMeasure, SignedDensity, check_pairing

# Largest order of a dense operator matrix: the modes of a Fourier or
# Steklov compression, the atoms of a log-kernel matrix.
MATRIX_BUDGET = 12_000
# The log-kernel choices: the pure log kernel, and the exact Bessel kernel
# c_N K_0 of (1 - Laplace)^{-N/2} in every dimension N.
KERNELS = ("pure_log", "bessel")
# Entries of the per-axis exponential tables of one atom chunk of the
# Fourier coefficient sum (2^16 complex entries: 1 MB), counted as
# _table_entries counts them.
FOURIER_CHUNK_ELEMENTS = 2**16
# Entries of one block temporary of an n x n assembly (2^15 doubles:
# 256 KB).  A block holds a few of them at once, so a build works in far
# less heap than one matrix.
BLOCK_ELEMENTS = 2**15
# Entries of one column panel of the sign framing (2^17 doubles: 1 MB).
PANEL_ELEMENTS = 2**17
# Rows of one block of a triangle mirror: each row of the block reads 16
# consecutive entries of a column block, two cache lines.
_MIRROR_ROWS = 16
EULER_GAMMA = float(np.euler_gamma)
_HUGE_PAGE = 2**21
_PRIVATE = {"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS} if hasattr(mmap, "MAP_PRIVATE") else {}


def _mapped_matrix(n: int) -> np.ndarray:
    """A zero n x n C-order float64 array in its own private anonymous mapping,
    unmapped when its last view dies.  Every dense operator matrix is
    allocated here.  A heap allocation of the same size could stay resident
    after it is freed: glibc raises its mmap threshold to the size of the
    last freed mapping, serves later matrices from the brk heap, and does
    not trim that heap.

    Like numpy's own large allocations, a matrix of a huge page or more
    asks for transparent huge pages, so that first touching it takes few
    page faults.  It then starts on a huge-page boundary, and only its
    whole huge pages are advised, so that a partly used huge page never
    adds to the resident size."""
    nbytes = 8 * n * n
    huge = nbytes - nbytes % _HUGE_PAGE
    buf = mmap.mmap(-1, max(nbytes + (_HUGE_PAGE if huge else 0), 1), **_PRIVATE)
    start = -np.frombuffer(buf, np.uint8, count=1).ctypes.data % _HUGE_PAGE if huge else 0
    if huge and hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE, start, huge)
    return np.frombuffer(buf, float, count=n * n, offset=start).reshape(n, n)


def _block_rows(n: int) -> int:
    """Rows of a block of BLOCK_ELEMENTS entries of an n-column matrix."""
    return max(1, BLOCK_ELEMENTS // max(n, 1))


def _mirror_lower(m: np.ndarray) -> None:
    """m's strict upper triangle <- the transpose of its strict lower one,
    in blocks of _MIRROR_ROWS rows; the diagonal is not read."""
    n = m.shape[0]
    full = np.triu_indices(_MIRROR_ROWS, 1)
    for i0 in range(0, n, _MIRROR_ROWS):
        i1 = min(i0 + _MIRROR_ROWS, n)
        block = m[i0:i1, i0:i1]
        upper = full if i1 - i0 == _MIRROR_ROWS else np.triu_indices(i1 - i0, 1)
        block[upper] = block.T[upper]
        m[i0:i1, i1:] = m[i1:, i0:i1].T


def log_kernel_coefficient(ambient_dim: int) -> float:
    """Leading log coefficient of the kernel of (1 - Laplace)^{-N/2}:
    c_N = omega_{N-1} / (2 pi)^N, for that kernel is exactly c_N K_0(r)
    (Stein 1970, ch. V.3).  (The constant printed in the source is not.)"""
    return sphere_area(ambient_dim) / (2.0 * math.pi) ** ambient_dim


def _check_self_adjoint(m: np.ndarray) -> None:
    """Raise unless m is finite and m == m^T exactly; neither test forms an
    n x n temporary.  A NaN or an infinity anywhere is a SolverError."""
    if not (math.isfinite(m.max()) and math.isfinite(m.min())):
        raise SolverError("operator matrix has non-finite entries")
    if not issymmetric(m):
        dev = max(float(np.abs(m[i, i:] - m[i:, i]).max()) for i in range(m.shape[0]))
        raise ValueError(f"matrix deviates from self-adjointness by {dev:g}")


@dataclass(frozen=True)
class AssembledOperator:
    """Dense real symmetric matrix discretizing T; the log-kernel route's
    metadata names its log coefficient and whether it is sign-framed.

    The matrix must equal its transpose exactly and be finite.  A complex
    matrix is a ValueError; any other real dtype is converted to float64
    once.  It is kept as a writable C-contiguous float64 array: the caller's
    own array where that is one (a read-only one is made writable), else a
    copy.
    spectral.eigen_spectrum reduces it in place and restores it, so one
    operator must not be solved in two threads at once."""

    matrix: np.ndarray
    route: str  # fourier | logkernel | steklov
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.dtype.kind == "c":
            raise ValueError(f"operator matrix must be real, not {m.dtype}")
        m = np.ascontiguousarray(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError("operator matrix must be square and nonempty")
        if not m.flags.writeable:
            try:
                m.flags.writeable = True
            except ValueError:
                m = m.copy()
        _check_self_adjoint(m)
        object.__setattr__(self, "matrix", m)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def check_budget(order: int, unit: str) -> None:
    """BudgetError if a matrix of this order, counted in units (modes or
    atoms), is past MATRIX_BUDGET."""
    if order > MATRIX_BUDGET:
        raise BudgetError(f"{order} {unit} exceed the budget {MATRIX_BUDGET}")


def toeplitz_modes(K: int, n_dim: int = 1, drop_zero: bool = False) -> np.ndarray:
    """The integer frequencies xi in R^n_dim with |xi|_inf <= K, in C order,
    less xi = 0 when drop_zero: an (n, n_dim) array.  ValueError for a K
    that is a bool, negative or keeps no mode, BudgetError past
    MATRIX_BUDGET, both before anything is allocated."""
    if isinstance(K, bool):
        raise ValueError(f"cutoff K must be an integer, not {K!r}")
    K = operator.index(K)
    count = (2 * K + 1) ** n_dim - drop_zero
    if K < 0 or count < 1:
        raise ValueError(f"cutoff K = {K} keeps no mode")
    check_budget(count, "modes")
    mesh = np.meshgrid(*[np.arange(-K, K + 1)] * n_dim, indexing="ij")
    modes = np.stack([m.ravel() for m in mesh], axis=-1)
    return np.delete(modes, len(modes) // 2, axis=0) if drop_zero else modes


def _steps(r: np.ndarray) -> tuple[int, int, int]:
    """The baby-step/giant-step split of the consecutive integers r: the
    baby-step count B = ceil(sqrt(len(r))), the first giant step
    q0 = floor(r[0] / B) and the giant-step count, so that every eta in r
    is q B + b with q0 <= q < q0 + count and 0 <= b < B."""
    B = math.isqrt(len(r) - 1) + 1
    q0 = int(r[0]) // B
    return B, q0, int(r[-1]) // B - q0 + 1


def _table_entries(rows: list[np.ndarray]) -> int:
    """Table entries a chunk holds per atom: each axis's giant and baby steps
    and, past one axis, the product table they are multiplied out to."""
    return sum(B + count + (len(rows) > 1) * B * count for B, _, count in map(_steps, rows))


def _chunk_coefficients(
    rows: list[np.ndarray], pos: np.ndarray, w: np.ndarray, L: float
) -> np.ndarray:
    """sum_i w_i prod_ax exp(2 pi i eta_ax X_i,ax / L) over one chunk of atoms,
    for eta on the grid rows[0] x rows[1] x ...  (each row consecutive
    integers).

    Per axis eta = q B + b (see _steps), and exp(i eta phi) is the giant
    step exp(i q B phi) times the baby step exp(i b phi): about 2 sqrt(n)
    exponentials per atom for n frequencies.  Giant steps are anchored at
    multiples of B, so eta = 0 is exp(0) exp(0) = 1 exactly.  In 1-D the sum
    is one product of the giant-step table with the weighted baby-step
    table; past one axis each axis's product table is multiplied out and
    the tables are contracted.  All tables are freed on return."""
    factors = []
    for ax, r in enumerate(rows):
        B, q0, count = _steps(r)
        phi = pos[:, ax] * (2 * math.pi / L)
        giant = 1j * np.outer(np.arange(q0, q0 + count) * B, phi)
        np.exp(giant, out=giant)
        baby = 1j * np.outer(np.arange(B), phi)
        np.exp(baby, out=baby)
        if ax == 0:
            baby *= w
        start = int(r[0]) - q0 * B
        if len(rows) == 1:
            # G Sw^T through scipy's BLAS (see _cholesky_frame): both .T are
            # Fortran-order views, so nothing is copied; entry (q, b) is
            # eta = (q0 + q) B + b
            return zgemm(1.0, giant.T, baby.T, trans_a=1).ravel()[start : start + len(r)]
        table = np.multiply(giant[:, None, :], baby[None, :, :]).reshape(B * count, -1)
        factors.append(table[start : start + len(r)])
    if len(rows) == 2:
        # F0 F1^T through scipy's BLAS: both .T are Fortran-order views
        return zgemm(1.0, factors[0].T, factors[1].T, trans_a=1)
    letters = "abcdef"[: len(rows)]
    return np.einsum(",".join(f"{c}i" for c in letters) + "->" + letters, *factors)


def _fourier_coefficients(
    positions: np.ndarray, wv: np.ndarray, L: float, K: int
) -> np.ndarray:
    """F(eta) = L^{-N} sum_i wv_i exp(2 pi i eta . X_i / L) for |eta|_inf <= 2K.

    Returned as an N-d array centred at eta = 0.  Only the half eta_0 <= 0 is
    summed (per-axis baby-step/giant-step tables, see _chunk_coefficients);
    the rest is its mirror image, so F(-eta) = conj F(eta) holds exactly.
    The atoms are summed in chunks whose tables hold about
    FOURIER_CHUNK_ELEMENTS entries in all, so the working set does not grow
    with the atom count.
    """
    n_atoms, n_dim = positions.shape
    diff = np.arange(-2 * K, 2 * K + 1)
    rows = [diff[: 2 * K + 1]] + [diff] * (n_dim - 1)
    half = np.zeros(tuple(len(r) for r in rows), dtype=complex)
    chunk = max(1, FOURIER_CHUNK_ELEMENTS // _table_entries(rows))
    for i0 in range(0, n_atoms, chunk):
        half += _chunk_coefficients(rows, positions[i0 : i0 + chunk], wv[i0 : i0 + chunk], L)
    half /= L**n_dim

    # In C order the flat index of -eta is size - 1 - index(eta), and the
    # indices up to the centre all have eta_0 <= 0.
    flat = np.empty(len(diff) ** n_dim, dtype=complex)
    mid = flat.size // 2
    flat[: mid + 1] = half.ravel()[: mid + 1]
    flat[mid] = flat[mid].real
    flat[mid + 1 :] = flat[:mid][::-1].conj()
    return flat.reshape((len(diff),) * n_dim)


def _toeplitz_compression(
    coords: np.ndarray, multiplier: np.ndarray, F: np.ndarray
) -> np.ndarray:
    """Real symmetric form of M[xi, zeta] = a(xi) a(zeta) F(zeta - xi).

    coords (n, N) are integer frequencies closed under xi -> -xi, multiplier
    holds an even symbol a at them, and F (centred N-d array) satisfies
    F(-eta) = conj F(eta) exactly.  M then commutes with u(xi) -> conj u(-xi),
    so in the orthonormal basis e_0, c_xi = (e_xi + e_-xi)/sqrt2 and
    s_xi = i (e_xi - e_-xi)/sqrt2 over one representative xi of each pair
    (first nonzero coordinate positive) it is real symmetric with the same
    spectrum.  With A = a(xi) a(zeta):

        cc = A [Re F(zeta - xi) + Re F(zeta + xi)]
        ss = A [Re F(zeta - xi) - Re F(zeta + xi)]
        cs = -A [Im F(zeta - xi) + Im F(zeta + xi)]
        zero-mode row: a0^2 F(0), sqrt2 a0 a Re F(zeta), -sqrt2 a0 a Im F(zeta)

    Rows are filled in blocks with the same arithmetic on both sides of the
    diagonal, and the sc block is the transpose of the cs block, so the
    result is symmetric bit for bit (signed zeros included).
    """
    strides = np.array([int(np.prod(F.shape[ax + 1 :])) for ax in range(F.ndim)])
    offset = (coords * strides).sum(axis=1)  # flat offset from the centre; its sign is lexicographic
    keep = offset > 0
    rep, a = offset[keep], multiplier[keep]
    zero = np.flatnonzero(offset == 0)
    z, p = len(zero), len(rep)
    n = z + 2 * p
    re = np.ascontiguousarray(F.real).ravel()
    im = np.ascontiguousarray(F.imag).ravel()
    mid = F.size // 2
    cols_c, cols_s = slice(z, z + p), slice(z + p, n)

    matrix = _mapped_matrix(n)
    if z:
        a0 = float(multiplier[zero[0]])
        scale = math.sqrt(2.0) * a0 * a
        matrix[0, 0] = a0 * a0 * re[mid]
        matrix[0, cols_c] = matrix[cols_c, 0] = scale * re[mid + rep]
        matrix[0, cols_s] = matrix[cols_s, 0] = -scale * im[mid + rep]

    block = _block_rows(p)
    for r0 in range(0, p, block):
        r1 = min(r0 + block, p)
        row = rep[r0:r1, None]
        dif, tot = mid - row + rep, mid + row + rep  # zeta - xi, zeta + xi
        rows_c, rows_s = slice(z + r0, z + r1), slice(z + p + r0, z + p + r1)
        # written in place, so that a block holds four temporaries at most
        cc, cs, ss = matrix[rows_c, cols_c], matrix[rows_c, cols_s], matrix[rows_s, cols_s]
        np.add(re[dif], re[tot], out=cc)
        np.subtract(re[dif], re[tot], out=ss)
        np.add(im[dif], im[tot], out=cs)
        np.negative(cs, out=cs)
        aa = a[r0:r1, None] * a
        cc *= aa
        cs *= aa
        ss *= aa
        matrix[cols_s, rows_c] = cs.T
    return matrix


def _toeplitz_operator(
    points: np.ndarray,
    wv: np.ndarray,
    L: float,
    K: int,
    modes: np.ndarray,
    multiplier: np.ndarray,
    route: str,
) -> AssembledOperator:
    """The compression of the measure sum_i wv_i delta_{points_i} on the torus
    of period L onto modes (cutoff K), with the multiplier at them."""
    F = _fourier_coefficients(points, wv, L, K)
    return AssembledOperator(_toeplitz_compression(modes, multiplier, F), route)


def fourier_modes(K: int, n_dim: int, L: float) -> tuple[np.ndarray, np.ndarray]:
    """The torus frequencies |xi|_inf <= K in R^n_dim and the multiplier
    a(xi) = (1 + (2 pi |xi| / L)^2)^{-N/4} at them.  ValueError unless L is
    a finite positive real; see toeplitz_modes for K."""
    if isinstance(L, bool) or not isinstance(L, numbers.Real) or not (math.isfinite(L) and L > 0):
        raise ValueError(f"torus period L must be a finite positive real, not {L!r}")
    modes = toeplitz_modes(K, n_dim)
    return modes, (1.0 + (2 * math.pi / L) ** 2 * (modes**2).sum(axis=1)) ** (-n_dim / 4.0)


def assemble_fourier_bs(
    measure: PointCloudMeasure,
    density: SignedDensity,
    L: float,
    K: int,
) -> AssembledOperator:
    """Quadratic-form compression onto torus frequencies |xi|_inf <= K.

    M[xi, xi'] = a(xi) a(xi') L^{-N} sum_i w_i V_i exp(2 pi i (xi' - xi) X_i / L)
    with the multiplier a of fourier_modes.  The measure support must fit in
    a box of side L/2 (localization margin).  The matrix is returned in the
    real cos/sin basis (see _toeplitz_compression).
    """
    check_pairing(measure, density)
    modes, a = fourier_modes(K, measure.ambient_dim, L)
    span = measure.positions.max(axis=0) - measure.positions.min(axis=0)
    if np.any(span > L / 2):
        raise SupportTooLargeError(
            f"support box side {span.max():g} exceeds the localization margin L/2 = {L / 2:g}"
        )
    wv = measure.weights * density.values
    return _toeplitz_operator(measure.positions, wv, L, K, modes, a, "fourier")


def _nn_distances(measure: PointCloudMeasure) -> np.ndarray:
    """Each atom's nearest-neighbour distance, the cell scale of the diagonal
    rule (1.0 for a lone atom: unit cell convention)."""
    if measure.atom_count == 1:
        return np.ones(1)
    nn = measure._nn_distances
    if not np.all(nn > 0):
        raise DegenerateKernelError("coincident atoms: kernel matrix is singular")
    return nn


def _log_kernel_matrix(
    measure: PointCloudMeasure,
    kernel: str,
    c_log: float,
    density: SignedDensity | None = None,
) -> np.ndarray:
    """The kernel k on the atoms, exactly symmetric, or with a density its
    frame sqrt(D) k sqrt(D), D_i = w_i |V_i|: -c_log log r (c_log = -1 gives
    +log r) or c_log K_0(r).  The diagonal is the mean of the kernel over a
    cell of the atom's nearest-neighbour distance.

    Built in row blocks of the lower triangle: the distances of one block
    come from cdist, the kernel and the frame are evaluated on the block,
    and it is written to its rows and, transposed, to its columns.  An
    entry of the frame is 0.5 ((k_ij r_i) r_j + (k_ij r_j) r_i) with
    r = sqrt(D), which is the same number on both sides of the diagonal.
    BudgetError past MATRIX_BUDGET atoms, before anything is allocated."""
    check_budget(measure.atom_count, "atoms")
    # exact 1-d cell mean of -log over a cell of width delta
    diag = c_log * (1.0 - np.log(_nn_distances(measure) / 2.0))
    if kernel == "bessel":
        # K_0(r) = -log r + (log 2 - gamma) + O(r^2 log r)
        diag = diag + c_log * (math.log(2.0) - EULER_GAMMA)

    x = measure.positions
    n = len(x)
    if density is not None:
        root = np.sqrt(measure.weights * np.abs(density.values))
    kern = _mapped_matrix(n)
    block = _block_rows(n)
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        on_diag = (np.arange(i1 - i0), np.arange(i0, i1))
        blk = cdist(x[i0:i1], x[:i1])
        blk[on_diag] = 1.0  # a finite placeholder for the diagonal
        if kernel == "bessel":
            bessel_k0(blk, out=blk)
            blk /= 1.0 / c_log  # 1 / c_2 is 2 pi to the last bit
        else:
            np.log(blk, out=blk)
            np.negative(blk, out=blk)
            blk *= c_log
        blk[on_diag] = diag[i0:i1]
        if density is not None:
            r_i, r_j = root[i0:i1, None], root[:i1]
            blk = 0.5 * (blk * r_i * r_j + blk * r_j * r_i)
        kern[i0:i1, :i1] = blk
        kern[:i1, i0:i1] = blk.T
    return kern


def _cholesky_frame(m: np.ndarray, d: np.ndarray) -> None:
    """m <- C^T diag(d) C in place, exactly symmetric, for C the lower
    triangular factor that dpotrf leaves in m.T (m's strict lower triangle
    zero).

    Column panel J of the product is C^T W with W = diag(d) C[:, J]: W is
    copied out and multiplied in place by dtrmm.  Its rows down to the end
    of the panel's diagonal block are then written over the same rows of
    column panel J of m.T.  Above the diagonal that panel holds zeros; its
    diagonal block is still read by the dtrmm of every later panel, but
    only against rows of W above that panel, which are zero.  Panels are
    taken in ascending order, and the triangle so built is mirrored.

    W, at most PANEL_ELEMENTS entries, is the only temporary.  The products
    run through scipy's BLAS, like the dpotrf before them and the eigensolve
    after them: numpy's BLAS is a second thread pool, whose spinning
    threads would slow scipy's down."""
    f = m.T
    n = m.shape[0]
    cols = max(1, PANEL_ELEMENTS // n)
    buf = np.empty((n, cols), order="F")
    for j0 in range(0, n, cols):
        j1 = min(j0 + cols, n)
        w = np.multiply(f[:, j0:j1], d[:, None], out=buf[:, : j1 - j0])
        f[:j1, j0:j1] = dtrmm(1.0, f, w, lower=1, trans_a=1, overwrite_b=1)[:j1]
    _mirror_lower(m)


def assemble_log_kernel(
    measure: PointCloudMeasure,
    density: SignedDensity,
    kernel: str = "pure_log",
) -> AssembledOperator:
    """Nystrom matrix of the log-singular K K* kernel on the atoms.

    k is one of KERNELS, with the log coefficient log_kernel_coefficient(N),
    and S = sqrt(D) k sqrt(D) with D_i = w_i |V_i|.  For sign-changing V the
    returned operator is C^T diag(w V) C with k = C C^T the Cholesky
    factorization; it is similar to Sigma S with Sigma = diag(sgn V), so its
    spectrum is that of the sign-framed T by the two-sided factorization.
    A signed density needs a positive definite k: otherwise
    DegenerateKernelError names the smallest eigenvalue of k.
    """
    check_pairing(measure, density)
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; the kernels are {', '.join(KERNELS)}")
    c_log = log_kernel_coefficient(measure.ambient_dim)
    sign_framed = bool(np.any(density.values < 0))
    if sign_framed:
        # k is exactly symmetric, so matrix.T is k in Fortran order: factor
        # it in place (dpotrf zeroes matrix's strict lower triangle), then
        # form C^T diag(w V) C on the factor
        matrix = _log_kernel_matrix(measure, kernel, c_log)
        if dpotrf(matrix.T, lower=1, overwrite_a=1)[1]:
            del matrix
            kern = _log_kernel_matrix(measure, kernel, c_log)
            lam = float(eigh(kern, eigvals_only=True, subset_by_index=[0, 0])[0])
            raise DegenerateKernelError(
                f"kernel matrix is not positive definite (smallest eigenvalue {lam:.6g}); a "
                f"sign-changing density needs a positive definite kernel, as bessel is in any dimension"
            )
        _cholesky_frame(matrix, measure.weights * density.values)
    else:
        matrix = _log_kernel_matrix(measure, kernel, c_log, density)
    return AssembledOperator(
        matrix=matrix,
        route="logkernel",
        metadata={"log_coefficient": c_log, "sign_framed": sign_framed},
    )


def assemble_log_potential(
    measure: PointCloudMeasure,
    density: SignedDensity,
) -> AssembledOperator:
    """Logarithmic potential f -> int log|X-Y| f(Y) P(dY) realized in L_{2,P}.

    Requires V >= 0 (for mixed signs use the sign-framed log-kernel route).
    The matrix is sqrt(w_i V_i) log|X_i - X_j| sqrt(w_j V_j), the log-kernel
    route's pure log kernel with coefficient -1; its singular values are
    read off by the spectral module.
    """
    check_pairing(measure, density)
    if np.any(density.values < 0):
        raise NegativeDensityError(
            "log potential needs V >= 0; use assemble_log_kernel for signed densities"
        )
    return AssembledOperator(_log_kernel_matrix(measure, "pure_log", -1.0, density), "logkernel")


def circle_angles(measure: PointCloudMeasure, center=(0.0, 0.0)) -> np.ndarray:
    c = np.asarray(center, dtype=float)
    rel = measure.positions - c[None, :]
    return np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2 * math.pi)


def steklov_modes(K: int, zero_mode: str = "drop") -> tuple[np.ndarray, np.ndarray]:
    """The Fourier modes k kept at cutoff K under a zero-mode policy, as an
    (n, 1) array, and the multiplier b(k) at them (see
    assemble_steklov_circle).  ValueError for an unknown policy; see
    toeplitz_modes for K."""
    if zero_mode not in ("drop", "shift"):
        raise ValueError(f"unknown zero-mode policy {zero_mode!r}")
    modes = toeplitz_modes(K, drop_zero=zero_mode == "drop")
    k = np.abs(modes[:, 0])
    return modes, k**-0.5 if zero_mode == "drop" else (k + 1.0) ** -0.5


def assemble_steklov_circle(
    measure: PointCloudMeasure,
    density: SignedDensity,
    K: int,
    zero_mode: str = "drop",
    center=(0.0, 0.0),
) -> AssembledOperator:
    """Weighted Steklov form on the unit circle over Fourier modes: the 1-D
    Fourier compression of the angle measure, on a circle of period 2 pi.

    M[k, l] = b(k) b(l) (2 pi)^{-1} sum_i w_i V_i exp(i (l - k) theta_i) with
    theta_i the angle of atom i about `center`.  The Dirichlet-to-Neumann
    operator of the disc acts as |k| on e^{i k t}; its inverse square root is
    undefined on constants, so either the zero mode is dropped
    (b(k) = |k|^{-1/2}, 1 <= |k| <= K) or all modes are kept with the shifted
    multiplier b(k) = (|k| + 1)^{-1/2}.  The matrix is returned in the real
    cos/sin basis (see _toeplitz_compression).
    """
    check_pairing(measure, density)
    if measure.ambient_dim != 2:
        raise ValueError("the Steklov circle operator lives in the plane")
    modes, b = steklov_modes(K, zero_mode)
    theta = circle_angles(measure, center)[:, None]
    wv = measure.weights * density.values
    return _toeplitz_operator(theta, wv, 2 * math.pi, K, modes, b, "steklov")
