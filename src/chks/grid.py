"""Cell-centered 2-D grid, discrete Neumann operators, and fast solvers.

All PDE fields live at cell centers of a uniform rectangle: an array of
shape (nx, ny) indexed [i, j] with centers ((i+1/2)*hx, (j+1/2)*hy).
Homogeneous Neumann boundary conditions are built into every operator
through mirror ghost cells (the ghost value equals the adjacent interior
value, so the normal derivative across each boundary face is exactly zero).

Operators
---------
- laplacian(grid, f):          5-point stencil with mirror ghosts.
- divergence(grid, c, f, ...): conservative div(c_face grad f), c_face the
                               centered mean or the upwind donor cell.
- grad_dot(grid, p, w):        cell average of the face products
                               grad(p).grad(w).
- helmholtz_solve(...):        (alpha*I - beta*Lap) x = b, direct by DCT
                               diagonalization; preconditioned CG, from an
                               optional guess, when alpha varies in space.
- ch_block_solve(...):         the coupled 2x2 per-mode system of a
                               semi-implicit Cahn-Hilliard step.

The mirrored 5-point Laplacian is diagonalized by the orthonormal DCT-II,
with 1-D eigenvalues -(2/h^2)(1 - cos(pi*k/n)); this makes the implicit
solves exact direct solves.

Cost per call
-------------
The sweeps call these kernels thousands of times on the same grid, so the
per-call work is kept to the arithmetic:

- A 2-D transform on a grid whose sides are both at most DENSE_DCT_MAX (64)
  is two dense products with the cached orthonormal DCT-II matrices
  (C_x f C_y^T, inverse C_x^T F C_y). Up to that size the BLAS products beat
  the FFT-based scipy.fft.dctn by 2-5x per call, which is mostly fixed call
  overhead on small arrays; from 128 up the O(n^3) products lose, so larger
  grids call scipy.fft. The choice follows from the grid shape alone.
- The Laplacian follows the same rule. At or below DENSE_DCT_MAX it is two
  products with cached 1-D mirrored second-difference matrices,
  D_x f + f D_y (8 us at 16^2 with its finiteness check, against 18 us
  for the slices, on two x86-64 cores); above it, the interior-face
  differences that divergence and grad_dot use (below), contiguous along
  both axes (250 us against 340 us with strided y slices at 256^2, each
  with its finiteness check).
- Cached per grid (lru_cache, read-only arrays): the Laplacian eigenvalues,
  the DCT and second-difference matrices, the per-mode inverse of the phi/mu
  block for each (tau, s_stab), and 1/(alpha - beta*lam) of each
  scalar-alpha Helmholtz solve. The singular-mode check of the block runs
  when its inverse is built.
- The variable-coefficient CG calls no stencil in its loop. Its
  preconditioner M = alpha_bar*I - beta*Lap is inverted exactly by DCT, so
  M z = r for every preconditioned residual z, and M p is carried by
  recurrence: q = r at the start, and q <- r + beta_k*q alongside
  p <- z + beta_k*p. Then A p = q + (alpha - alpha_bar)*p is one
  multiply-add, and an iteration costs one DCT pair plus vector updates
  (Eisenstat's trick, SIAM J. Sci. Stat. Comput. 2, 1981); x, r, p and q
  are updated in place through one scratch array.
- A guess x0 for the CG (the sweeps pass the linear extrapolation of their
  last two stored levels; Fischer, CMAME 163, 1998) costs one stencil call,
  for the initial residual b - alpha*x0 + beta*Lap x0, and saves about one
  DCT pair per call on the sweeps' solves. The stopping test and the
  iteration budget are the same with or without it, and the test runs
  before the first preconditioner application.
- divergence and grad_dot work on differences across interior faces
  only and build no face-flux arrays: each face value is added to the cell
  on one side and subtracted from (or, for grad_dot, added to) the cell on
  the other, and a boundary face carries nothing, so the no-flux condition
  needs no runtime guard. Differences along y are taken on the flattened
  array, where they are contiguous; the differences that straddle two rows
  are zeroed, which makes them the boundary faces.
- ch_block_solve with rhs_mu=None treats the second right-hand side as
  zero and skips its transform; the adjoint's transposed block uses this.
- Finiteness is checked where data enters. Each public kernel scans its
  array arguments for NaN and infinity unless called with
  check_finite=False (scipy.linalg's meaning: only those scans are
  skipped). The forward, tangent and adjoint sweeps pass False to every
  kernel call in their time loops and instead check all five outputs of
  each step once, before they are stored or used by the next step; a
  non-finite value made inside a step reaches an output through the
  transforms, so it is caught at that step's end. One scan,
  np.isfinite(f).all(), takes about 3 us at 16^2 and 23 us at 256^2.
  Each sweep's entry keeps the checked calls on caller data. The CG's
  warm start forms its first residual with the unchecked stencil, since
  helmholtz_solve has scanned the guess or was told not to, and a field
  alpha is checked by its min and max, which carry any NaN or infinity
  (min alone when unchecked: min > 0 is the positive-definiteness
  precondition). An unchecked right-hand side is caught by its norm,
  which must be finite for the stopping test to mean anything. Inside
  the CG loop
  nothing is scanned; a non-finite value there surfaces as a p.Ap that is
  not a positive finite number, which raises SolverError. Checks on
  scalars use math.isfinite and math.sqrt: 0.07 us per call against
  1.0 us for np.isfinite on a Python float (two x86-64 cores).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft as sfft

# Fixed linear-solver tolerances.
DIRECT_RESIDUAL_TOL = 1e-12
CG_RELATIVE_TOL = 1e-12
CG_MAX_ITER_FACTOR = 10

# Largest grid side at which a 2-D DCT is done by dense matrix products; see
# the module docstring for the measured crossover against scipy.fft.
DENSE_DCT_MAX = 64


class SolverError(RuntimeError):
    """Raised when a linear solve fails or an operator precondition is violated."""


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on the rectangle [0, lx] x [0, ly]."""

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid needs at least one cell per axis")
        if not (self.lx > 0 and self.ly > 0):
            raise ValueError("domain side lengths must be positive")

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays (x, y), each of shape (nx, ny)."""
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y, indexing="ij")


def _check_finite(f: np.ndarray, name: str = "field") -> None:
    if not np.isfinite(f).all():
        raise SolverError(f"{name} contains non-finite values")


def _face_pairs(f: np.ndarray):
    """Low and high cells of the interior x faces (rows) and y faces.

    The y pairs are neighbours of the flattened field, whose differences
    are contiguous; the pairs that straddle two rows fall on the entries
    k*ny of the y face buffer, which _to_cells zeroes.
    """
    flat = f.reshape(-1)
    return (f[:-1], f[1:]), (flat[:-1], flat[1:])


def _to_cells(bx: np.ndarray, by: np.ndarray, ny: int, combine) -> np.ndarray:
    """Bring face values back to cells: combine(high face, low face), summed over x and y.

    bx has shape (nx+1, ny), rows 0 and nx the boundary faces; by is flat
    of length nx*ny + 1, entry m the face below the cell of flat index m,
    so the entries k*ny are boundary faces. Both carry zero there.
    """
    bx[0] = bx[-1] = 0.0
    by[::ny] = 0.0
    out = combine(bx[1:], bx[:-1])
    flat = out.reshape(-1)
    flat += by[1:]
    combine(flat, by[:-1], out=flat)
    return out


def laplacian(grid: Grid, f: np.ndarray, check_finite: bool = True) -> np.ndarray:
    """5-point Laplacian with mirror ghost cells (zero normal derivative).

    Built from differences across interior faces: each one leaves the cell
    on its low side and enters the cell on its high side, and the boundary
    faces carry nothing, which is the mirror condition. Grids whose sides
    are both at most DENSE_DCT_MAX apply the same differences as two
    products with cached 1-D matrices, D_x f + f D_y (D symmetric).
    check_finite=False skips the scan of f for NaN and infinity, as in
    scipy.linalg; a caller that passes it checks what the result feeds.
    """
    if check_finite:
        _check_finite(f)
    return _laplacian(grid, f)


def _laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    """laplacian without the finiteness scan, for callers that made it."""
    nx, ny = f.shape
    cx, cy = 1.0 / grid.hx**2, 1.0 / grid.hy**2
    if max(nx, ny) <= DENSE_DCT_MAX:
        lap = _second_difference_matrix(nx) @ f
        lap *= cx
        lap_y = f @ _second_difference_matrix(ny)
        lap_y *= cy
        lap += lap_y
        return lap
    bx, by = np.empty((nx + 1, ny)), np.empty(nx * ny + 1)
    for (f_lo, f_hi), face, c in zip(_face_pairs(f), (bx[1:-1], by[1:-1]), (cx, cy)):
        np.subtract(f_hi, f_lo, out=face)
        face *= c
    return _to_cells(bx, by, ny, np.subtract)


def divergence(
    grid: Grid,
    c: np.ndarray,
    f: np.ndarray,
    scheme: str = "centered",
    upwind_by: np.ndarray | None = None,
    check_finite: bool = True,
) -> np.ndarray:
    """Conservative divergence div(c_face grad f) with no flux through the boundary.

    The flux c_face*(f_high - f_low)/h lives on interior faces only, so the
    no-flux condition holds by construction. scheme='centered' takes the
    mean of the two adjacent cells for c_face; scheme='upwind' the donor
    cell on the side the flux leaves, the low side where the face
    difference of upwind_by (f when None) is positive. Passing the base
    state's sigma as upwind_by keeps its donor cells, which is the
    derivative of the upwind flux away from faces where its gradient
    vanishes.

    check_finite=False skips the scans of c, f and upwind_by for NaN and
    infinity, as in scipy.linalg; a caller that passes it checks what the
    result feeds. A NaN in c or upwind_by need not reach the upwind
    result, whose donor choice can pass over it, so skip those scans only
    for fields already checked.
    """
    if scheme not in ("centered", "upwind"):
        raise ValueError(f"unknown chemotaxis flux scheme: {scheme!r}")
    if scheme != "upwind" or upwind_by is None:
        upwind_by = f
    if check_finite:
        _check_finite(c, "c")
        _check_finite(f, "f")
        if upwind_by is not f:
            _check_finite(upwind_by, "upwind_by")
    nx, ny = f.shape
    bx, by = np.empty((nx + 1, ny)), np.empty(nx * ny + 1)
    for (f_lo, f_hi), (c_lo, c_hi), (s_lo, s_hi), face, h in zip(
        _face_pairs(f), _face_pairs(c), _face_pairs(upwind_by), (bx[1:-1], by[1:-1]),
        (grid.hx, grid.hy),
    ):
        np.subtract(f_hi, f_lo, out=face)
        if scheme == "centered":
            coef = c_lo + c_hi
            coef *= 0.5 / h**2
        else:
            coef = np.where(face > 0.0 if upwind_by is f else s_hi > s_lo, c_lo, c_hi)
            coef *= 1.0 / h**2
        face *= coef
    return _to_cells(bx, by, ny, np.subtract)


def grad_dot(
    grid: Grid, p: np.ndarray, w: np.ndarray, check_finite: bool = True
) -> np.ndarray:
    """Cell average of the face products grad(p).grad(w).

    Each cell receives half of the product on each of its four faces, and
    boundary faces carry none. With the centered divergence this is the
    summation by parts <divergence(c, p), w> = -<c, grad_dot(p, w)>, which
    brings the adjoint's grad(sigma).grad(p3) back to cell centers.
    check_finite=False skips the scans of p and w for NaN and infinity, as
    in scipy.linalg; a caller that passes it checks what the result feeds.
    """
    if check_finite:
        _check_finite(p, "p")
        _check_finite(w, "w")
    nx, ny = p.shape
    bx, by = np.empty((nx + 1, ny)), np.empty(nx * ny + 1)
    for (p_lo, p_hi), (w_lo, w_hi), face, h in zip(
        _face_pairs(p), _face_pairs(w), (bx[1:-1], by[1:-1]), (grid.hx, grid.hy)
    ):
        np.subtract(p_hi, p_lo, out=face)
        dw = w_hi - w_lo
        dw *= 0.5 / h**2
        face *= dw
    return _to_cells(bx, by, ny, np.add)


def mean(grid: Grid, f: np.ndarray) -> float:
    """Cell average of f."""
    return float(f.mean())


def inner(grid: Grid, f: np.ndarray, g: np.ndarray) -> float:
    """Discrete L2 pairing hx*hy*sum(f*g)."""
    return float(grid.cell_area * np.sum(f * g))


def norm_l2(grid: Grid, f: np.ndarray) -> float:
    return float(np.sqrt(grid.cell_area) * np.linalg.norm(f.ravel()))


def grad_norm_sq(grid: Grid, f: np.ndarray) -> float:
    """Discrete integral of |grad f|^2 via face differences.

    Boundary faces carry no gradient, so only interior faces are summed.
    """
    _check_finite(f)
    dx = f[1:, :] - f[:-1, :]
    dy = f[:, 1:] - f[:, :-1]
    return grid.cell_area * float(np.vdot(dx, dx) / grid.hx**2 + np.vdot(dy, dy) / grid.hy**2)


def _read_only(a: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only, so no caller can change it for every other."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=32)
def _lap_eigenvalues(nx: int, ny: int, hx: float, hy: float) -> np.ndarray:
    """Eigenvalues of the mirrored 5-point Laplacian in DCT-II space, shape (nx, ny)."""
    kx = np.arange(nx)
    ky = np.arange(ny)
    lam_x = -(2.0 / hx**2) * (1.0 - np.cos(np.pi * kx / nx))
    lam_y = -(2.0 / hy**2) * (1.0 - np.cos(np.pi * ky / ny))
    return _read_only(lam_x[:, None] + lam_y[None, :])


def lap_eigenvalues(grid: Grid) -> np.ndarray:
    """Cached, read-only eigenvalues of the mirrored 5-point Laplacian."""
    return _lap_eigenvalues(grid.nx, grid.ny, grid.hx, grid.hy)


@lru_cache(maxsize=8)
def _second_difference_matrix(n: int) -> np.ndarray:
    """Mirrored 1-D second difference of unit spacing, n x n and symmetric.

    Its entries are small integers, so every product and partial sum of
    D @ c for a constant c is exact and the Laplacian of a constant is 0.
    """
    d = np.zeros((n, n))
    i = np.arange(n - 1)
    d[i, i + 1] = d[i + 1, i] = 1.0
    d[i, i] -= 1.0
    d[i + 1, i + 1] -= 1.0
    return _read_only(d)


@lru_cache(maxsize=8)
def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix C of size n: dct(x, norm='ortho') == C @ x."""
    return _read_only(sfft.dct(np.eye(n), type=2, norm="ortho", axis=0))


def _dct2(f: np.ndarray) -> np.ndarray:
    nx, ny = f.shape
    if max(nx, ny) <= DENSE_DCT_MAX:
        return _dct_matrix(nx) @ f @ _dct_matrix(ny).T
    return sfft.dctn(f, type=2, norm="ortho")


def _idct2(fh: np.ndarray) -> np.ndarray:
    nx, ny = fh.shape
    if max(nx, ny) <= DENSE_DCT_MAX:
        return _dct_matrix(nx).T @ fh @ _dct_matrix(ny)
    return sfft.idctn(fh, type=2, norm="ortho")


@lru_cache(maxsize=32)
def _helmholtz_inverse(
    nx: int, ny: int, hx: float, hy: float, alpha: float, beta: float
) -> np.ndarray:
    """Per-mode 1/(alpha - beta*lam) of the scalar-alpha Helmholtz operator."""
    return _read_only(1.0 / (alpha - beta * _lap_eigenvalues(nx, ny, hx, hy)))


def helmholtz_solve(
    grid: Grid,
    b: np.ndarray,
    alpha: float | np.ndarray,
    beta: float,
    x0: np.ndarray | None = None,
    check_finite: bool = True,
) -> np.ndarray:
    """Solve (alpha*I - beta*Lap) x = b with homogeneous Neumann conditions.

    Scalar alpha > 0: exact direct solve by DCT diagonalization.
    Field alpha (spatially varying, min > 0): conjugate gradient
    preconditioned by the mean-coefficient direct solve, started from the
    guess x0 when one is given (zero otherwise). The guess changes the
    work, not the stopping test. Alpha must be finite and positive, beta
    finite and nonnegative, and x0 a finite field of the grid's shape; the
    direct solve takes no guess.

    check_finite=False skips the scans of b and x0 for NaN and infinity,
    and of a field alpha for infinity, as in scipy.linalg; a caller that
    passes it checks the result. The scalar checks, the shapes and
    min(alpha) > 0, which positive definiteness needs, are still checked.
    """
    if check_finite:
        _check_finite(b, "rhs")
    if not (math.isfinite(beta) and beta >= 0):
        raise SolverError("helmholtz_solve requires a finite beta >= 0")
    if np.isscalar(alpha) or np.ndim(alpha) == 0:
        if x0 is not None:
            raise SolverError("helmholtz_solve takes a guess only for a field alpha")
        alpha = float(alpha)
        if not (math.isfinite(alpha) and alpha > 0):
            raise SolverError("helmholtz_solve requires a finite alpha > 0")
        inv = _helmholtz_inverse(grid.nx, grid.ny, grid.hx, grid.hy, alpha, float(beta))
        return _idct2(_dct2(b) * inv)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != grid.shape:
        raise SolverError("variable alpha must match the grid shape")
    # min and max carry any NaN or infinity, so two reductions check both;
    # min alone still catches NaN.
    if not (float(alpha.min()) > 0 and (not check_finite or float(alpha.max()) < math.inf)):
        raise SolverError("helmholtz_solve requires a finite alpha > 0 everywhere")
    if x0 is not None:
        if np.shape(x0) != grid.shape:
            raise SolverError("the guess x0 must match the grid shape")
        if check_finite:
            _check_finite(x0, "guess x0")
    return _helmholtz_cg(grid, b, alpha, beta, x0)


def _helmholtz_cg(
    grid: Grid, b: np.ndarray, alpha: np.ndarray, beta: float, x0: np.ndarray | None = None
) -> np.ndarray:
    """Preconditioned CG for (alpha(x)*I - beta*Lap) x = b, from x0 or from zero.

    The loop calls no stencil: q = M p is kept by recurrence, M =
    alpha_bar*I - beta*Lap the exactly inverted preconditioner, so
    A p = q + (alpha - alpha_bar)*p; see "Cost per call" in the module
    docstring. A guess x0 costs one stencil, for its residual
    b - alpha*x0 + beta*Lap x0; with M z = r for z the first preconditioned
    residual, the recurrence starts from q = r either way. The stopping test
    ||r|| <= CG_RELATIVE_TOL*||b|| runs before the first preconditioner
    application, so an exact guess costs no transform.

    The operator is symmetric positive definite, so p.Ap > 0 for every
    nonzero direction; a p.Ap that is not a positive finite number means the
    iterate broke down (or went non-finite) and raises SolverError. That is
    the loop's only finiteness check.
    """
    alpha_bar = float(alpha.mean())
    inv = 1.0 / (alpha_bar - beta * lap_eigenvalues(grid))
    delta = alpha - alpha_bar
    b_norm = math.sqrt(np.vdot(b, b))
    if b_norm == 0.0:
        return np.zeros_like(b)
    # An infinite tolerance would let any guess pass the stopping test.
    if not b_norm < math.inf:
        raise SolverError("helmholtz CG: the rhs norm is not finite")
    tol = CG_RELATIVE_TOL * b_norm
    scratch = np.empty_like(b)
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.array(x0, dtype=float)
        # helmholtz_solve has scanned the guess, so the stencil skips it.
        r = _laplacian(grid, x)
        r *= beta
        r += b
        np.multiply(alpha, x, out=scratch)
        r -= scratch
        if math.sqrt(np.vdot(r, r)) <= tol:
            return x
    q = r.copy()
    p = _precondition(r, inv)
    rz = float(np.vdot(r, p))
    max_iter = CG_MAX_ITER_FACTOR * grid.nx * grid.ny
    for _ in range(max_iter):
        np.multiply(delta, p, out=scratch)
        scratch += q  # A p
        pap = float(np.vdot(p, scratch))
        if not 0.0 < pap < math.inf:
            raise SolverError(f"helmholtz CG broke down: p.Ap = {pap!r}")
        gamma = rz / pap
        scratch *= gamma
        r -= scratch
        np.multiply(p, gamma, out=scratch)
        x += scratch
        if math.sqrt(np.vdot(r, r)) <= tol:
            return x
        z = _precondition(r, inv)
        rz_new = float(np.vdot(r, z))
        beta_k = rz_new / rz
        p *= beta_k
        p += z
        q *= beta_k
        q += r
        rz = rz_new
    raise SolverError("helmholtz CG did not converge within the iteration budget")


def _precondition(r: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """M^{-1} r: one DCT pair with the per-mode inverse in between."""
    rh = _dct2(r)
    rh *= inv
    return _idct2(rh)


@lru_cache(maxsize=16)
def _ch_block_inverse(
    nx: int, ny: int, hx: float, hy: float, tau: float, s_stab: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-mode inverse (i11, i12, i21, i22) of the phi/mu block matrix.

    The matrix is [[1/tau, -lam], [s_stab - lam, -1]]. Raises SolverError,
    and caches nothing, when a mode's determinant is numerically zero.
    """
    lam = _lap_eigenvalues(nx, ny, hx, hy)
    det = -1.0 / tau - lam * (lam - s_stab)
    if np.any(np.abs(det) < 1e-14):
        raise SolverError("ch_block_solve hit a singular mode")
    inv_det = 1.0 / det
    entries = (-inv_det, lam * inv_det, (lam - s_stab) * inv_det, inv_det / tau)
    return tuple(_read_only(m) for m in entries)


def ch_block_solve(
    grid: Grid,
    rhs_phi: np.ndarray,
    rhs_mu: np.ndarray | None,
    tau: float,
    s_stab: float,
    transpose: bool = False,
    check_finite: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the coupled pair { phi/tau - Lap mu = rhs_phi ; -Lap phi + s_stab*phi - mu = rhs_mu }.

    Both equations diagonalize in DCT space, leaving an independent 2x2
    system per mode. The determinant is bounded away from zero by -1/tau,
    so the solve is exact up to round-off. With transpose=True the
    transposed per-mode matrix is solved instead (same spectrum, same
    determinant); the backward adjoint sweep runs the block this way. Its
    inverse is the transpose of the cached inverse, so both share one entry.
    rhs_mu=None stands for a zero second right-hand side and skips its
    transform. check_finite=False skips the scans of rhs_phi and rhs_mu for
    NaN and infinity, as in scipy.linalg; a caller that passes it checks
    the result. tau and s_stab are checked either way.
    """
    if check_finite:
        _check_finite(rhs_phi, "rhs_phi")
        if rhs_mu is not None:
            _check_finite(rhs_mu, "rhs_mu")
    if not (math.isfinite(tau) and tau > 0):
        raise SolverError("ch_block_solve requires a finite tau > 0")
    if not (math.isfinite(s_stab) and s_stab >= 0):
        raise SolverError("ch_block_solve requires a finite s_stab >= 0")
    i11, i12, i21, i22 = _ch_block_inverse(
        grid.nx, grid.ny, grid.hx, grid.hy, float(tau), float(s_stab)
    )
    if transpose:
        i12, i21 = i21, i12
    rp = _dct2(rhs_phi)
    if rhs_mu is None:
        return _idct2(i11 * rp), _idct2(i21 * rp)
    rm = _dct2(rhs_mu)
    return _idct2(i11 * rp + i12 * rm), _idct2(i21 * rp + i22 * rm)
