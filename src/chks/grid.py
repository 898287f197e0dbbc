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
- divergence_transpose(grid, sigma, w, scheme):
                               the transpose in c of divergence(grid, c,
                               sigma, scheme).
- grad_dot(grid, p, w):        cell average of the face products
                               grad(p).grad(w).
- helmholtz_direct(...):       (alpha*I - Lap) x = b for a scalar alpha,
                               exactly by DCT diagonalization.
- helmholtz_cg(...):           (alpha*I - Lap) x = b for a field alpha, by
                               preconditioned CG from an optional guess.
- ch_block_solve(...):         the coupled 2x2 per-mode system of a
                               semi-implicit Cahn-Hilliard step.

The mirrored 5-point Laplacian is diagonalized by the orthonormal DCT-II,
with 1-D eigenvalues -(2/h^2)(1 - cos(pi*k/n)); this makes the implicit
solves exact direct solves.

The module holds kernels and their read-only caches only, so two threads
may call them at once, as Trajectory.advance (chks.state) does with the two
chains of a sweep step on large grids.

Cost per call
-------------
The sweeps call these kernels thousands of times on the same grid, so the
per-call work is kept to the arithmetic:

- A 2-D transform on a grid whose sides are both at most DENSE_DCT_MAX (64)
  is two dense products with the cached orthonormal DCT-II matrices
  (C_x f C_y^T, inverse C_x^T F C_y). Up to that size the BLAS products beat
  the FFT-based scipy.fft.dctn, whose cost there is mostly fixed call
  overhead; larger grids, where the O(n^3) products lose, call scipy.fft.
  The choice follows from the field's shape alone, by one size rule
  (_dense), and _dct_pair resolves it once per shape, so a transform pair
  makes one cache lookup.
- The Laplacian switches at the same DENSE_DCT_MAX, though its own
  crossover is lower. At or below it, it is two products with cached 1-D
  mirrored second-difference matrices, D_x f + f D_y; above it, the
  interior-face differences that divergence and grad_dot use (below),
  contiguous along both axes.
- Cached per grid (lru_cache keyed on the frozen Grid, read-only arrays):
  the Laplacian eigenvalues, the per-mode inverse of the phi/mu block for
  each (tau, s_stab), and 1/(alpha - lam) of each direct Helmholtz solve;
  the DCT and second-difference matrices are keyed on their size. The
  singular-mode check of the block runs when its inverse is built. A Grid
  computes its hash, spacings, shape and cell area once, so such a lookup
  hashes no tuple and a kernel's hx reads a stored float.
- The variable-coefficient CG calls no stencil in its loop. Its
  preconditioner M = alpha_bar*I - Lap is inverted exactly by DCT, so
  M z = r for every preconditioned residual z, and M p is carried by
  recurrence: q = r at the start, and q <- r + beta_k*q alongside
  p <- z + beta_k*p. Then A p = q + (alpha - alpha_bar)*p is one
  multiply-add, and an iteration costs one DCT pair plus vector updates
  (Eisenstat's trick, SIAM J. Sci. Stat. Comput. 2, 1981); x, r, p and q
  are updated in place through one scratch array. alpha_bar, the per-mode
  inverse and alpha - alpha_bar are formed only after the first stopping
  test, which most warm-started calls pass.
- A guess x0 for the CG costs one stencil call, for the initial residual
  b - alpha*x0 + Lap x0, as the cold start x0 = 0 does. The sweeps pass one
  of two guesses (Trajectory.extrapolate; Fischer, CMAME 163, 1998). On its
  own a sweep passes the linear extrapolation in time of its last two
  levels. Given a reference sweep for a nearby control, as optimize
  gives its line-search trials and adjoints, a sweep passes its own level
  plus the reference's increment over the same step, which saves more
  transforms. A start that already meets the stopping test, such as a
  repeated solve's, costs no transform.
  The stopping test and the iteration budget do not depend on the start.
- divergence and grad_dot work on differences across interior faces
  only and build no face-flux arrays: each face value is added to the cell
  on one side and subtracted from (or, for grad_dot, added to) the cell on
  the other, and a boundary face carries nothing, so the no-flux condition
  needs no runtime guard. Differences along y are taken on the flattened
  array, where they are contiguous; the differences that straddle two rows
  are zeroed, which makes them the boundary faces.
- ch_block_solve with rhs_mu=None treats the second right-hand side as
  zero and skips its transform; the adjoint's transposed block uses this.
- The kernels never scan an array argument for NaN or infinity. A
  non-finite argument reaches the result through the arithmetic, except
  where the upwind divergence's donor choice passes over it, and
  helmholtz_cg raises SolverError when the norm of its right-hand side is
  not finite (then, and only then, it scans b once to say whether b holds a
  non-finite value or only its norm overflows) or a p.Ap is not a positive
  finite number, the loop's only test. The checks live where data enters
  and at each step's end: the config reader; InitialData.validate,
  Control.validate and ControlSpec.check_targets; solve_linearized's check
  of its direction h; and Trajectory.advance, which runs each forward,
  tangent and adjoint step and checks the level it wrote, all five fields
  in one scan of the trajectory's array, before the next step reads it.
  A non-finite value made inside a step reaches an output through the
  transforms, so it is caught at that step's end. Its SolverError, like
  every one raised inside a step, names the sweep and the step. A level's
  five fields are scanned at once, np.isfinite(level).all(), which costs
  no more than five one-field scans; the field it names is looked up only
  after it fails.
  Every other precondition is checked on every call: helmholtz_cg's
  shapes and its field alpha, by min > 0 and a finite sum, which carry
  any NaN or infinity; the scalars of helmholtz_direct and ch_block_solve, by
  math.isfinite, which is cheaper than np.isfinite on a Python float.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np
import scipy.fft as sfft

# Fixed linear-solver tolerances.
CG_RELATIVE_TOL = 1e-12
CG_MAX_ITER_FACTOR = 10

# Largest grid side at which a 2-D DCT is done by dense matrix products; see
# the module docstring for the measured crossover against scipy.fft.
DENSE_DCT_MAX = 64
# The schemes divergence accepts for its face coefficient.
FLUX_SCHEMES = ("centered", "upwind")


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
        for name, side, n in (("lx", self.lx, self.nx), ("ly", self.ly, self.ny)):
            if not side > 0:
                raise ValueError(f"side {name} = {side!r} must be positive")
            # The kernels divide by h**2, so it must be a normal float.
            if not sys.float_info.min <= (side / n) * (side / n) <= sys.float_info.max:
                raise ValueError(f"side {name} = {side!r} over {n} cells gives a cell size "
                                 "whose square underflows or overflows")

    # Computed on first use and then read as plain attributes: the kernels
    # read them on every call, and every lru_cache lookup keyed on the grid
    # hashes it. The hash is the one the dataclass would generate.
    @cached_property
    def hx(self) -> float:
        return self.lx / self.nx

    @cached_property
    def hy(self) -> float:
        return self.ly / self.ny

    @cached_property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @cached_property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @cached_property
    def _hash(self) -> int:
        return hash((self.nx, self.ny, self.lx, self.ly))

    def __hash__(self) -> int:
        return self._hash

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays (x, y), each of shape (nx, ny)."""
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y, indexing="ij")


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


def laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    """5-point Laplacian with mirror ghost cells (zero normal derivative).

    Built from differences across interior faces: each one leaves the cell
    on its low side and enters the cell on its high side, and the boundary
    faces carry nothing, which is the mirror condition. Grids whose sides
    are both at most DENSE_DCT_MAX apply the same differences as two
    products with cached 1-D matrices, D_x f + f D_y (D symmetric).
    """
    nx, ny = f.shape
    cx, cy = 1.0 / grid.hx**2, 1.0 / grid.hy**2
    if _dense(f.shape):
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
) -> np.ndarray:
    """Conservative divergence div(c_face grad f) with no flux through the boundary.

    The flux c_face*(f_high - f_low)/h lives on interior faces only, so the
    no-flux condition holds by construction. scheme='centered' takes the
    mean of the two adjacent cells for c_face; scheme='upwind' the donor
    cell on the side the flux leaves: the low cell where upwind_by (f when
    None) is larger in the high cell, else the high cell. For f this test
    agrees with a positive face difference for every pair of doubles,
    signed zeros, inf and NaN included. Passing the base state's sigma as
    upwind_by keeps its donor cells, which is the derivative of the upwind
    flux away from faces where its gradient vanishes. A NaN in c or
    upwind_by need not reach the upwind result, whose donor choice can pass
    over it, so pass only checked fields.
    """
    if scheme not in FLUX_SCHEMES:
        raise ValueError(f"unknown chemotaxis flux scheme: {scheme!r}")
    if scheme != "upwind" or upwind_by is None:
        upwind_by = f
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
            coef = np.where(s_hi > s_lo, c_lo, c_hi)
            coef *= 1.0 / h**2
        face *= coef
    return _to_cells(bx, by, ny, np.subtract)


def divergence_transpose(
    grid: Grid, sigma: np.ndarray, w: np.ndarray, scheme: str = "centered"
) -> np.ndarray:
    """D1^T w: the transpose in c of divergence(grid, c, sigma, scheme).

    <divergence(grid, c, sigma, scheme), w> = <c, divergence_transpose(grid,
    sigma, w, scheme)> for every c and w. Each interior face carries the
    product -(sigma_hi - sigma_lo)*(w_hi - w_lo)/h^2. The centered scheme
    gives half of it to each side, which is -grad_dot(sigma, w); the upwind
    scheme gives it whole to the donor cell, the low cell where
    sigma_hi > sigma_lo and else the high one, divergence's one rule. No
    sweep calls it yet: its caller is to be the exact discrete adjoint of
    the tangent step (ROADMAP item 1(b)), at the chemotaxis term.
    """
    if scheme not in FLUX_SCHEMES:
        raise ValueError(f"unknown chemotaxis flux scheme: {scheme!r}")
    if scheme == "centered":
        out = grad_dot(grid, sigma, w)
        return np.negative(out, out=out)
    nx, ny = sigma.shape
    out = np.zeros((nx, ny))
    flat = out.reshape(-1)
    for (s_lo, s_hi), (w_lo, w_hi), (lo, hi), h in zip(
        _face_pairs(sigma), _face_pairs(w), ((out[:-1], out[1:]), (flat[:-1], flat[1:])),
        (grid.hx, grid.hy),
    ):
        face = s_hi - s_lo
        face *= w_hi - w_lo
        face *= -1.0 / h**2
        if face.ndim == 1:
            face[ny - 1::ny] = 0.0  # pairs that straddle two rows
        donor_lo = s_hi > s_lo
        lo += np.where(donor_lo, face, 0.0)
        hi += np.where(donor_lo, 0.0, face)
    return out


def grad_dot(grid: Grid, p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Cell average of the face products grad(p).grad(w).

    Each cell receives half of the product on each of its four faces, and
    boundary faces carry none. With the centered divergence this is the
    summation by parts <divergence(c, p), w> = -<c, grad_dot(p, w)>, which
    brings the adjoint's grad(sigma).grad(p3) back to cell centers.
    """
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


def inner(grid: Grid, f: np.ndarray, g: np.ndarray) -> float:
    """Discrete L2 pairing hx*hy*sum(f*g), formed without a product array.

    Stacked (levels, nx, ny) arrays are paired over all their levels, so
    tau * inner(grid, f, g) over the step-end levels is the L2(Q) pairing.
    """
    return float(grid.cell_area * np.vdot(f, g))


def norm_l2(grid: Grid, f: np.ndarray) -> float:
    return float(np.sqrt(grid.cell_area) * np.linalg.norm(f.ravel()))


def grad_norm_sq(grid: Grid, f: np.ndarray) -> float:
    """Discrete integral of |grad f|^2 via face differences.

    Boundary faces carry no gradient, so only interior faces are summed.
    """
    dx = f[1:, :] - f[:-1, :]
    dy = f[:, 1:] - f[:, :-1]
    return grid.cell_area * float(np.vdot(dx, dx) / grid.hx**2 + np.vdot(dy, dy) / grid.hy**2)


def _read_only(a: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only, so no caller can change it for every other."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=32)
def lap_eigenvalues(grid: Grid) -> np.ndarray:
    """Cached, read-only eigenvalues of the mirrored 5-point Laplacian in DCT-II space."""
    kx = np.arange(grid.nx)
    ky = np.arange(grid.ny)
    lam_x = -(2.0 / grid.hx**2) * (1.0 - np.cos(np.pi * kx / grid.nx))
    lam_y = -(2.0 / grid.hy**2) * (1.0 - np.cos(np.pi * ky / grid.ny))
    return _read_only(lam_x[:, None] + lam_y[None, :])


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


def _dense(shape: tuple[int, int]) -> bool:
    """The size rule: a field whose sides are both at most DENSE_DCT_MAX is
    transformed, and its Laplacian taken, by dense products."""
    return max(shape) <= DENSE_DCT_MAX


@lru_cache(maxsize=8)
def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix C of size n: dct(x, norm='ortho') == C @ x."""
    return _read_only(sfft.dct(np.eye(n), type=2, norm="ortho", axis=0))


@lru_cache(maxsize=8)
def _dct_pair(shape: tuple[int, int]) -> tuple[Callable, Callable]:
    """The orthonormal 2-D DCT-II of fields of a shape, and its inverse.

    Dense shapes take the products (C_x f) C_y^T and (C_x^T F) C_y with the
    cached matrices, others scipy.fft, so one lookup per shape resolves both
    transforms of a pair.
    """
    if not _dense(shape):
        return (partial(sfft.dctn, type=2, norm="ortho"),
                partial(sfft.idctn, type=2, norm="ortho"))
    cx, cy = _dct_matrix(shape[0]), _dct_matrix(shape[1])
    cx_t, cy_t = cx.T, cy.T

    def dct2(f: np.ndarray) -> np.ndarray:
        return cx @ f @ cy_t

    def idct2(fh: np.ndarray) -> np.ndarray:
        return cx_t @ fh @ cy

    return dct2, idct2


@lru_cache(maxsize=32)
def _helmholtz_inverse(grid: Grid, alpha: float) -> np.ndarray:
    """Per-mode 1/(alpha - lam) of the scalar-alpha Helmholtz operator."""
    return _read_only(1.0 / (alpha - lap_eigenvalues(grid)))


def helmholtz_direct(grid: Grid, b: np.ndarray, alpha: float) -> np.ndarray:
    """Solve (alpha*I - Lap) x = b with homogeneous Neumann conditions, exactly by DCT.

    alpha is a finite positive scalar; helmholtz_cg solves a field alpha.
    """
    alpha = float(alpha)  # a field alpha raises TypeError: it is helmholtz_cg's
    if not (math.isfinite(alpha) and alpha > 0):
        raise SolverError("helmholtz_direct requires a finite alpha > 0")
    return _precondition(b, _helmholtz_inverse(grid, alpha))


def helmholtz_cg(
    grid: Grid, b: np.ndarray, alpha: np.ndarray, x0: np.ndarray | None = None
) -> np.ndarray:
    """Solve (alpha(x)*I - Lap) x = b with homogeneous Neumann conditions by CG.

    alpha is a field of the grid's shape with finite values and min > 0. The
    conjugate gradient, preconditioned by the mean-coefficient direct solve,
    starts from the guess x0, a finite field of the grid's shape, or from
    zero. Either start costs one stencil, for the first residual, and the
    loop none (see "Cost per call" in the module docstring). The stopping
    test ||r|| <= CG_RELATIVE_TOL*||b|| runs before the first transform, so
    an exact guess costs none. The operator is symmetric positive definite,
    so a p.Ap that is not a positive finite number means the iterate broke
    down (or went non-finite) and raises SolverError: the loop's only
    finiteness check. A non-finite b, or one whose norm overflows, fails
    the norm test before the loop, which then scans b once to name the
    cause; otherwise b and x0 are not scanned.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != grid.shape:
        raise SolverError("helmholtz_cg requires alpha of the grid's shape")
    # min > 0 rules out NaN and -inf; then the sum, whose mean the
    # preconditioner needs, is finite exactly when every value is (or it
    # overflows, as the mean would).
    alpha_sum = float(alpha.sum()) if float(alpha.min()) > 0 else math.nan
    if not alpha_sum < math.inf:
        raise SolverError("helmholtz_cg requires a finite alpha > 0 everywhere")
    if x0 is not None and np.shape(x0) != grid.shape:
        raise SolverError("the guess x0 must match the grid shape")
    b_norm = math.sqrt(np.vdot(b, b))
    if b_norm == 0.0:
        return np.zeros_like(b)
    # An infinite tolerance would let any guess pass the stopping test. The
    # norm also overflows for finite entries above about 1e154; one scan of b
    # tells the two causes apart.
    if not b_norm < math.inf:
        b_max = float(np.abs(b).max())
        if not b_max < math.inf:
            raise SolverError("helmholtz CG: the rhs is not finite")
        raise SolverError(f"helmholtz CG: the rhs norm overflows (max |b| = {b_max:.3g})")
    tol = CG_RELATIVE_TOL * b_norm
    scratch = np.empty_like(b)
    x = np.zeros(grid.shape) if x0 is None else np.array(x0, dtype=float)
    r = laplacian(grid, x)
    r += b
    np.multiply(alpha, x, out=scratch)
    r -= scratch
    if math.sqrt(np.vdot(r, r)) <= tol:
        return x
    # The preconditioner, formed only for a start that fails the test;
    # alpha_sum / size has the bits of alpha.mean().
    alpha_bar = alpha_sum / alpha.size
    inv = 1.0 / (alpha_bar - lap_eigenvalues(grid))
    delta = alpha - alpha_bar
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
    dct2, idct2 = _dct_pair(r.shape)
    rh = dct2(r)
    rh *= inv
    return idct2(rh)


@lru_cache(maxsize=16)
def _ch_block_inverse(grid: Grid, tau: float, s_stab: float) -> tuple[np.ndarray, ...]:
    """Per-mode inverse (i11, i12, i21, i22) of the phi/mu block matrix.

    The matrix is [[1/tau, -lam], [s_stab - lam, -1]]. Raises SolverError,
    and caches nothing, when a mode's determinant is numerically zero.
    """
    lam = lap_eigenvalues(grid)
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
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the coupled pair { phi/tau - Lap mu = rhs_phi ; -Lap phi + s_stab*phi - mu = rhs_mu }.

    Both equations diagonalize in DCT space, leaving an independent 2x2
    system per mode. The determinant is bounded away from zero by -1/tau,
    so the solve is exact up to round-off. With transpose=True the
    transposed per-mode matrix is solved instead (same spectrum, same
    determinant); the backward adjoint sweep runs the block this way. Its
    inverse is the transpose of the cached inverse, so both share one entry.
    rhs_mu=None stands for a zero second right-hand side and skips its
    transform.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise SolverError("ch_block_solve requires a finite tau > 0")
    if not (math.isfinite(s_stab) and s_stab >= 0):
        raise SolverError("ch_block_solve requires a finite s_stab >= 0")
    i11, i12, i21, i22 = _ch_block_inverse(grid, float(tau), float(s_stab))
    if transpose:
        i12, i21 = i21, i12
    dct2, idct2 = _dct_pair(rhs_phi.shape)
    rp = dct2(rhs_phi)
    if rhs_mu is None:
        return idct2(i11 * rp), idct2(i21 * rp)
    rm = dct2(rhs_mu)
    return idct2(i11 * rp + i12 * rm), idct2(i21 * rp + i22 * rm)
