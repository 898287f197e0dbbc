"""Cell-centered 2-D grid, discrete Neumann operators, and fast solvers.

All PDE fields live at cell centers of a uniform rectangle: an array of
shape (nx, ny) indexed [i, j] with centers ((i+1/2)*hx, (j+1/2)*hy).
Homogeneous Neumann boundary conditions are built into every operator
through mirror ghost cells (the ghost value equals the adjacent interior
value, so the normal derivative across each boundary face is exactly zero).

Operators
---------
- laplacian(grid, f):          5-point stencil with mirror ghosts.
- gradient_faces(grid, f):     centered differences on interior faces,
                               zero on boundary faces.
- divergence(grid, flux):      conservative difference of face fluxes.
- chemotaxis_flux(...):        face flux a*grad(sigma), centered or upwind.
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
  for the slices, on two x86-64 cores); above it, slices of face
  differences written into one output array, with no zero fill.
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
- ch_block_solve with rhs_mu=None treats the second right-hand side as
  zero and skips its transform; the adjoint's transposed block uses this.
- Finiteness is checked where data enters: at each public operator's entry
  and by the sweeps at the end of every step, and each field once per call
  (chemotaxis_flux scans sigma, then takes its gradient unchecked). Inside
  the CG loop nothing is scanned; a non-finite value there surfaces as a
  p.Ap that is not a positive finite number, which raises SolverError.
"""

from __future__ import annotations

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


@dataclass
class FaceFlux:
    """Normal flux on cell faces: fx on x-faces (nx+1, ny), fy on y-faces (nx, ny+1).

    Boundary faces must carry zero normal flux (discrete no-flux condition).
    """

    fx: np.ndarray
    fy: np.ndarray


def _check_finite(f: np.ndarray, name: str = "field") -> None:
    if not np.isfinite(f).all():
        raise SolverError(f"{name} contains non-finite values")


def zero_flux(grid: Grid) -> FaceFlux:
    return FaceFlux(np.zeros((grid.nx + 1, grid.ny)), np.zeros((grid.nx, grid.ny + 1)))


def laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    """5-point Laplacian with mirror ghost cells (zero normal derivative).

    Built from differences across interior faces: each one leaves the cell
    on its low side and enters the cell on its high side, and the boundary
    faces carry nothing, which is the mirror condition. Grids whose sides
    are both at most DENSE_DCT_MAX apply the same differences as two
    products with cached 1-D matrices, D_x f + f D_y (D symmetric).
    """
    _check_finite(f)
    nx, ny = f.shape
    cx, cy = 1.0 / grid.hx**2, 1.0 / grid.hy**2
    if max(nx, ny) <= DENSE_DCT_MAX:
        lap = _second_difference_matrix(nx) @ f
        lap *= cx
        lap_y = f @ _second_difference_matrix(ny)
        lap_y *= cy
        lap += lap_y
        return lap
    lap = np.empty(f.shape)
    np.subtract(f[:, 1:], f[:, :-1], out=lap[:, :-1])
    lap[:, -1] = 0.0
    # numpy reads an overlapping operand as if it were copied first.
    lap[:, 1:] -= lap[:, :-1]
    d = f[1:, :] - f[:-1, :]
    d *= cx / cy
    lap[:-1, :] += d
    lap[1:, :] -= d
    lap *= cy
    return lap


def gradient_faces(grid: Grid, f: np.ndarray) -> FaceFlux:
    """Centered gradient on interior faces; boundary faces are zero."""
    _check_finite(f)
    return _gradient_faces(grid, f)


def _gradient_faces(grid: Grid, f: np.ndarray) -> FaceFlux:
    """gradient_faces without the finiteness scan, for callers that made it."""
    fx = np.zeros((grid.nx + 1, grid.ny))
    fy = np.zeros((grid.nx, grid.ny + 1))
    fx[1:-1, :] = (f[1:, :] - f[:-1, :]) / grid.hx
    fy[:, 1:-1] = (f[:, 1:] - f[:, :-1]) / grid.hy
    return FaceFlux(fx, fy)


def divergence(grid: Grid, flux: FaceFlux) -> np.ndarray:
    """Conservative divergence of a face flux. Rejects nonzero boundary flux."""
    fx, fy = flux.fx, flux.fy
    # .any() counts NaN as nonzero and -0.0 as zero.
    if fx[0, :].any() or fx[-1, :].any() or fy[:, 0].any() or fy[:, -1].any():
        raise SolverError("divergence requires zero flux on boundary faces")
    return (fx[1:, :] - fx[:-1, :]) / grid.hx + (fy[:, 1:] - fy[:, :-1]) / grid.hy


def face_average(grid: Grid, f: np.ndarray) -> FaceFlux:
    """Arithmetic mean of adjacent cells on interior faces; zero on boundary faces."""
    ax = np.zeros((grid.nx + 1, grid.ny))
    ay = np.zeros((grid.nx, grid.ny + 1))
    ax[1:-1, :] = 0.5 * (f[1:, :] + f[:-1, :])
    ay[:, 1:-1] = 0.5 * (f[:, 1:] + f[:, :-1])
    return FaceFlux(ax, ay)


def face_product_to_cells(grid: Grid, a: FaceFlux, b: FaceFlux) -> np.ndarray:
    """Cell average of the facewise dot product a.b.

    Each cell receives half of the product on its two x-faces plus half of
    the product on its two y-faces. This is the adjoint of cell-to-face
    arithmetic averaging composed with the face product, and is how
    advective terms like grad(sigma).grad(p) are brought back to centers.
    """
    qx = a.fx * b.fx
    qy = a.fy * b.fy
    return 0.5 * (qx[1:, :] + qx[:-1, :]) + 0.5 * (qy[:, 1:] + qy[:, :-1])


def chemotaxis_flux(
    grid: Grid, a: np.ndarray, sigma: np.ndarray, scheme: str = "centered"
) -> FaceFlux:
    """Face flux a_face * grad(sigma)_face.

    scheme='centered' takes the arithmetic mean of the two adjacent cells
    for a_face; scheme='upwind' takes the donor cell on the side the flux
    leaves, selected by the sign of the face gradient of sigma.
    """
    _check_finite(a, "a")
    _check_finite(sigma, "sigma")
    g = _gradient_faces(grid, sigma)
    if scheme == "centered":
        af = face_average(grid, a)
        return FaceFlux(af.fx * g.fx, af.fy * g.fy)
    if scheme == "upwind":
        fx = np.zeros_like(g.fx)
        fy = np.zeros_like(g.fy)
        gx = g.fx[1:-1, :]
        gy = g.fy[:, 1:-1]
        donor_x = np.where(gx > 0.0, a[:-1, :], a[1:, :])
        donor_y = np.where(gy > 0.0, a[:, :-1], a[:, 1:])
        fx[1:-1, :] = donor_x * gx
        fy[:, 1:-1] = donor_y * gy
        return FaceFlux(fx, fy)
    raise ValueError(f"unknown chemotaxis flux scheme: {scheme!r}")


def chemotaxis_flux_linearized(
    grid: Grid,
    a: np.ndarray,
    sigma: np.ndarray,
    alpha: np.ndarray,
    omega: np.ndarray,
    scheme: str = "centered",
) -> FaceFlux:
    """Directional derivative of chemotaxis_flux at (a, sigma) along (alpha, omega).

    For the upwind scheme the donor selection is frozen at the base state,
    which is the derivative away from the measure-zero set where the face
    gradient of sigma vanishes.
    """
    g = gradient_faces(grid, sigma)
    gw = gradient_faces(grid, omega)
    if scheme == "centered":
        af = face_average(grid, a)
        alf = face_average(grid, alpha)
        return FaceFlux(alf.fx * g.fx + af.fx * gw.fx, alf.fy * g.fy + af.fy * gw.fy)
    if scheme == "upwind":
        fx = np.zeros_like(g.fx)
        fy = np.zeros_like(g.fy)
        gx = g.fx[1:-1, :]
        gy = g.fy[:, 1:-1]
        up_x = gx > 0.0
        up_y = gy > 0.0
        donor_a_x = np.where(up_x, a[:-1, :], a[1:, :])
        donor_a_y = np.where(up_y, a[:, :-1], a[:, 1:])
        donor_al_x = np.where(up_x, alpha[:-1, :], alpha[1:, :])
        donor_al_y = np.where(up_y, alpha[:, :-1], alpha[:, 1:])
        fx[1:-1, :] = donor_al_x * gx + donor_a_x * gw.fx[1:-1, :]
        fy[:, 1:-1] = donor_al_y * gy + donor_a_y * gw.fy[:, 1:-1]
        return FaceFlux(fx, fy)
    raise ValueError(f"unknown chemotaxis flux scheme: {scheme!r}")


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
) -> np.ndarray:
    """Solve (alpha*I - beta*Lap) x = b with homogeneous Neumann conditions.

    Scalar alpha > 0: exact direct solve by DCT diagonalization.
    Field alpha (spatially varying, min > 0): conjugate gradient
    preconditioned by the mean-coefficient direct solve, started from the
    guess x0 when one is given (zero otherwise). The guess changes the
    work, not the stopping test. Alpha must be finite and positive, beta
    finite and nonnegative, and x0 a finite field of the grid's shape; the
    direct solve takes no guess.
    """
    _check_finite(b, "rhs")
    if not (np.isfinite(beta) and beta >= 0):
        raise SolverError("helmholtz_solve requires a finite beta >= 0")
    if np.isscalar(alpha) or np.ndim(alpha) == 0:
        if x0 is not None:
            raise SolverError("helmholtz_solve takes a guess only for a field alpha")
        alpha = float(alpha)
        if not (np.isfinite(alpha) and alpha > 0):
            raise SolverError("helmholtz_solve requires a finite alpha > 0")
        inv = _helmholtz_inverse(grid.nx, grid.ny, grid.hx, grid.hy, alpha, float(beta))
        return _idct2(_dct2(b) * inv)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != grid.shape:
        raise SolverError("variable alpha must match the grid shape")
    if not (np.all(np.isfinite(alpha)) and float(alpha.min()) > 0):
        raise SolverError("helmholtz_solve requires a finite alpha > 0 everywhere")
    if x0 is not None:
        if np.shape(x0) != grid.shape:
            raise SolverError("the guess x0 must match the grid shape")
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
    b_norm = np.sqrt(np.vdot(b, b))
    if b_norm == 0.0:
        return np.zeros_like(b)
    tol = CG_RELATIVE_TOL * b_norm
    scratch = np.empty_like(b)
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = laplacian(grid, x)
        r *= beta
        r += b
        np.multiply(alpha, x, out=scratch)
        r -= scratch
        if np.sqrt(np.vdot(r, r)) <= tol:
            return x
    q = r.copy()
    p = _precondition(r, inv)
    rz = float(np.vdot(r, p))
    max_iter = CG_MAX_ITER_FACTOR * grid.nx * grid.ny
    for _ in range(max_iter):
        np.multiply(delta, p, out=scratch)
        scratch += q  # A p
        pap = float(np.vdot(p, scratch))
        if not 0.0 < pap < np.inf:
            raise SolverError(f"helmholtz CG broke down: p.Ap = {pap!r}")
        gamma = rz / pap
        scratch *= gamma
        r -= scratch
        np.multiply(p, gamma, out=scratch)
        x += scratch
        if np.sqrt(np.vdot(r, r)) <= tol:
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
    _check_finite(rhs_phi, "rhs_phi")
    if rhs_mu is not None:
        _check_finite(rhs_mu, "rhs_mu")
    if not (np.isfinite(tau) and tau > 0):
        raise SolverError("ch_block_solve requires a finite tau > 0")
    if not (np.isfinite(s_stab) and s_stab >= 0):
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
