"""Discrete operator contracts: stencils, conservation, adjointness, solvers."""

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chks import grid as grid_mod
from chks.grid import (
    Grid,
    SolverError,
    ch_block_solve,
    divergence,
    divergence_transpose,
    grad_dot,
    helmholtz_cg,
    helmholtz_direct,
    inner,
    lap_eigenvalues,
    laplacian,
    norm_l2,
)

RNG = np.random.default_rng(42)


def random_field(grid):
    return RNG.standard_normal(grid.shape)


def test_laplacian_of_constant_is_zero():
    grid = Grid(8, 6, 2.0, 1.5)
    f = np.full(grid.shape, 3.7)
    assert np.all(laplacian(grid, f) == 0.0)


def test_laplacian_cosine_eigenfield():
    # cos(pi x / lx) sampled at centers is an exact eigenfield of the
    # mirrored stencil with eigenvalue -(2/hx^2)(1 - cos(pi hx / lx)).
    grid = Grid(16, 5, 1.0, 1.0)
    x, _ = grid.cell_centers()
    f = np.cos(np.pi * x / grid.lx)
    lam = -(2.0 / grid.hx**2) * (1.0 - np.cos(np.pi * grid.hx / grid.lx))
    np.testing.assert_allclose(laplacian(grid, f), lam * f, rtol=1e-12, atol=1e-12)


def test_laplacian_strip_hand_stencil():
    # 1x3 strip with data (0, 1, 0), hx = 1: mirror ghosts give
    # boundary cells value 1 and the interior cell -2.
    grid = Grid(3, 1, 3.0, 1.0)
    f = np.array([[0.0], [1.0], [0.0]])
    np.testing.assert_allclose(laplacian(grid, f), [[1.0], [-2.0], [1.0]])


def test_laplacian_mean_zero_and_negative_semidefinite():
    grid = Grid(12, 9, 1.3, 0.7)
    for _ in range(5):
        f = random_field(grid)
        lap = laplacian(grid, f)
        assert abs(lap.mean()) <= 1e-13 * np.abs(lap).max()
        assert inner(grid, lap, f) <= 1e-12
    const = np.full(grid.shape, 2.0)
    assert inner(grid, laplacian(grid, const), const) == 0.0


def test_laplacian_self_adjoint():
    grid = Grid(10, 11)
    f, g = random_field(grid), random_field(grid)
    lhs = inner(grid, laplacian(grid, f), g)
    rhs = inner(grid, f, laplacian(grid, g))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_grad_dot_constant_and_linear():
    grid = Grid(5, 4, 5.0, 4.0)  # hx = hy = 1
    const = np.full(grid.shape, 1.23)
    w = random_field(grid)
    assert np.all(grad_dot(grid, const, w) == 0.0)
    assert np.all(grad_dot(grid, w, const) == 0.0)

    # Unit x faces inside; a boundary cell keeps half of its one interior face.
    x, _ = grid.cell_centers()
    g = grad_dot(grid, x, x)
    assert np.all(g[1:-1, :] == 1.0)
    assert np.all(g[0, :] == 0.5) and np.all(g[-1, :] == 0.5)


def test_divergence_of_gradient_matches_laplacian():
    grid = Grid(9, 7, 1.1, 0.9)
    ones = np.ones(grid.shape)
    for f in (random_field(grid), np.cos(np.pi * grid.cell_centers()[0] / grid.lx)):
        for scheme in ("centered", "upwind"):
            composed = divergence(grid, ones, f, scheme)
            np.testing.assert_allclose(composed, laplacian(grid, f), rtol=1e-13, atol=1e-13)


def test_divergence_conservation():
    grid = Grid(6, 5)
    c = np.abs(random_field(grid))
    f = random_field(grid)
    for scheme in ("centered", "upwind"):
        div = divergence(grid, c, f, scheme)
        assert abs(div.mean()) <= 1e-13 * np.abs(div).max()
        assert np.all(divergence(grid, np.zeros(grid.shape), f, scheme) == 0.0)


def test_chemotaxis_flux_constant_a_reduces_to_scaled_laplacian():
    grid = Grid(8, 8)
    sigma = random_field(grid)
    c = 2.5
    np.testing.assert_allclose(
        divergence(grid, np.full(grid.shape, c), sigma, "centered"),
        c * laplacian(grid, sigma), rtol=1e-12, atol=1e-12,
    )


def test_chemotaxis_flux_constant_sigma_is_zero():
    grid = Grid(8, 8)
    a = np.abs(random_field(grid))
    const = np.full(grid.shape, 0.4)
    for scheme in ("centered", "upwind"):
        assert np.all(divergence(grid, a, const, scheme) == 0.0)
        assert np.all(divergence(grid, a, const, scheme, upwind_by=random_field(grid)) == 0.0)


def _upwind_divergence_loop(grid, a, f, by):
    """Scalar reimplementation: donor cells chosen by the face gradient of by."""
    fx = np.zeros((grid.nx + 1, grid.ny))
    fy = np.zeros((grid.nx, grid.ny + 1))
    for i in range(1, grid.nx):
        for j in range(grid.ny):
            donor = a[i - 1, j] if by[i, j] - by[i - 1, j] > 0 else a[i, j]
            fx[i, j] = donor * (f[i, j] - f[i - 1, j]) / grid.hx
    for i in range(grid.nx):
        for j in range(1, grid.ny):
            donor = a[i, j - 1] if by[i, j] - by[i, j - 1] > 0 else a[i, j]
            fy[i, j] = donor * (f[i, j] - f[i, j - 1]) / grid.hy
    div = (fx[1:] - fx[:-1]) / grid.hx + (fy[:, 1:] - fy[:, :-1]) / grid.hy
    scale = max(np.abs(fx).max() / grid.hx, np.abs(fy).max() / grid.hy)
    return div, scale


def test_chemotaxis_flux_upwind_donor_cells():
    # Per-cell check against a scalar reimplementation of donor selection,
    # by the sign of f's own face gradient and by that of upwind_by.
    grid = Grid(6, 5, 1.0, 0.7)
    a = np.abs(random_field(grid))
    sigma = random_field(grid)
    omega = random_field(grid)
    for f, by in ((sigma, None), (omega, sigma)):
        ref, scale = _upwind_divergence_loop(grid, a, f, sigma)
        got = divergence(grid, a, f, "upwind", upwind_by=by)
        assert np.abs(got - ref).max() <= 1e-14 * scale


def test_upwind_donor_rule_is_the_same_for_f_and_a_copy_of_it():
    # Without upwind_by the donor cells follow f through the one rule
    # s_hi > s_lo that upwind_by uses, so passing a copy of f changes no bit,
    # on fields whose neighbours tie (equal values, +0 against -0) and on
    # fields that also hold infinities and NaN. At a tie the face difference
    # is a zero, so the donor shows only through the sign of zero times a
    # coefficient of either sign, or through 0 * inf; c has both.
    grid = Grid(7, 6, 1.0, 0.7)
    ties = np.array([-1.0, -0.0, 0.0, 0.0, 1.0, 1.0, 2.0])
    for values in (ties, np.append(ties, [np.inf, -np.inf, np.nan])):
        for _ in range(20):
            c, f = RNG.choice(values, size=(2, *grid.shape))
            with np.errstate(invalid="ignore"):
                by_itself = divergence(grid, c, f, "upwind")
                by_copy = divergence(grid, c, f, "upwind", upwind_by=f.copy())
            assert by_itself.tobytes() == by_copy.tobytes()


def test_mean_and_inner_basics():
    unit = Grid(4, 4, 1.0, 1.0)
    ones = np.ones(unit.shape)
    assert norm_l2(unit, ones) == pytest.approx(1.0, rel=1e-14)
    f = random_field(unit)
    assert inner(unit, f, f) == pytest.approx(norm_l2(unit, f) ** 2, rel=1e-13)
    # Stacked levels pair as the sum of their per-level pairings.
    grid = Grid(6, 5, 1.3, 0.7)
    fs = RNG.standard_normal((4, *grid.shape))
    gs = RNG.standard_normal((4, *grid.shape))
    per_level = sum(inner(grid, fs[k], gs[k]) for k in range(4))
    scale = sum(inner(grid, np.abs(fs[k]), np.abs(gs[k])) for k in range(4))
    assert abs(inner(grid, fs, gs) - per_level) <= 1e-14 * scale


def test_helmholtz_constant_rhs():
    grid = Grid(8, 8)
    c = 3.0
    x = helmholtz_direct(grid, np.full(grid.shape, c), 2.0)
    np.testing.assert_allclose(x, c / 2.0, rtol=1e-13)


def test_helmholtz_eigenfield_mode_division():
    grid = Grid(16, 16)
    xx, _ = grid.cell_centers()
    b = np.cos(np.pi * xx / grid.lx)
    lam = -(2.0 / grid.hx**2) * (1.0 - np.cos(np.pi * grid.hx / grid.lx))
    x = helmholtz_direct(grid, b, 3.0)
    np.testing.assert_allclose(x, b / (3.0 - lam), rtol=1e-12, atol=1e-14)


def test_helmholtz_residual_and_alpha_guard():
    grid = Grid(12, 10, 1.2, 0.8)
    b = random_field(grid)
    alpha = 0.3
    x = helmholtz_direct(grid, b, alpha)
    res = alpha * x - laplacian(grid, x) - b
    assert norm_l2(grid, res) <= 1e-12 * norm_l2(grid, b)
    for bad_alpha in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(SolverError, match="helmholtz_direct requires"):
            helmholtz_direct(grid, b, bad_alpha)
    bad_field = np.ones(grid.shape)
    bad_field[3, 4] = np.inf
    nan_field = np.ones(grid.shape)
    nan_field[0, 0] = np.nan
    for bad_alpha in (bad_field, nan_field, -bad_field, np.zeros(grid.shape)):
        with pytest.raises(SolverError, match="helmholtz_cg requires"):
            helmholtz_cg(grid, b, bad_alpha)
    # Neither kernel takes the other's alpha.
    with pytest.raises(TypeError):
        helmholtz_direct(grid, b, np.ones(grid.shape))
    with pytest.raises(SolverError, match="grid's shape"):
        helmholtz_cg(grid, b, 2.0)


def test_helmholtz_variable_coefficient_cg():
    grid = Grid(14, 9)
    b = random_field(grid)
    alpha = 2.0 + np.abs(random_field(grid))
    x = helmholtz_cg(grid, b, alpha)
    res = alpha * x - laplacian(grid, x) - b
    assert norm_l2(grid, res) <= 1e-11 * norm_l2(grid, b)
    # Nothing scans the guess; a NaN there surfaces in the loop as p.Ap.
    guess = np.zeros(grid.shape)
    guess[2, 3] = np.nan
    with pytest.raises(SolverError, match="p.Ap"):
        helmholtz_cg(grid, b, alpha, guess)


def test_helmholtz_variable_coefficient_cg_calls_no_stencil(monkeypatch):
    # q = M p is kept by recurrence, so the loop needs no Laplacian; the
    # start costs exactly one, for the initial residual, whether it is a
    # guess or zero.
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return laplacian(*args, **kwargs)

    grid = Grid(12, 10)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(grid.shape)
    alpha = 2.0 + rng.random(grid.shape)
    noise = 1e-3 * rng.standard_normal(grid.shape)
    with monkeypatch.context() as m:
        m.setattr(grid_mod, "laplacian", counted)
        x = helmholtz_cg(grid, b, alpha)
        assert calls == 1
        y = helmholtz_cg(grid, b, alpha, x + noise)
        assert calls == 2
    for z in (x, y):
        res = alpha * z - laplacian(grid, z) - b
        assert norm_l2(grid, res) <= 1e-11 * norm_l2(grid, b)


def test_helmholtz_exact_guess_applies_no_preconditioner(monkeypatch):
    grid = Grid(20, 16)
    rng = np.random.default_rng(5)
    x_true = rng.standard_normal(grid.shape)
    alpha = 6.0 + 3.0 * rng.random(grid.shape)
    b = alpha * x_true - laplacian(grid, x_true)

    def no_transform(*args, **kwargs):
        raise AssertionError("preconditioner applied")

    monkeypatch.setattr(grid_mod, "_dct_pair", no_transform)
    x = helmholtz_cg(grid, b, alpha, x_true)
    np.testing.assert_array_equal(x, x_true)
    assert x is not x_true


def test_helmholtz_guess_validation():
    grid = Grid(8, 6)
    b = random_field(grid)
    alpha = 1.0 + np.abs(random_field(grid))
    with pytest.raises(SolverError, match="shape"):
        helmholtz_cg(grid, b, alpha, np.zeros((6, 8)))
    # The direct solve takes no guess; ignoring one would hide a mistake.
    with pytest.raises(TypeError):
        helmholtz_direct(grid, b, 2.0, np.zeros(grid.shape))


@pytest.mark.parametrize("n, lo, hi", [
    (256, 65.0, 65.35),  # the workloads' 1/tau + 1 + a
    (64, 100.0, 1e6),  # strongly varying alpha: over 100 iterations
])
def test_helmholtz_cg_true_residual(n, lo, hi):
    # The recurrence for M p drifts from the stencil only by round-off, so
    # the residual computed with the stencil meets the CG tolerance, from a
    # cold start, a guess near the solution and a bad guess alike.
    grid = Grid(n, n)
    rng = np.random.default_rng(n)
    b = rng.standard_normal(grid.shape)
    alpha = lo + (hi - lo) * rng.random(grid.shape)
    x_cold = helmholtz_cg(grid, b, alpha)
    near = x_cold + 1e-6 * np.abs(x_cold).max() * rng.standard_normal(grid.shape)
    for x in (x_cold,
              helmholtz_cg(grid, b, alpha, near),
              helmholtz_cg(grid, b, alpha, -10.0 * x_cold)):
        res = alpha * x - laplacian(grid, x) - b
        assert np.linalg.norm(res) <= 1e-11 * np.linalg.norm(b)


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(2, 40), ny=st.integers(2, 40),
    lo=st.floats(1.0, 1e6), spread=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1), scale=st.floats(-10.0, 10.0), noise=st.floats(0.0, 10.0),
)
def test_helmholtz_cg_guess_meets_cold_residual_bound(nx, ny, lo, spread, seed, scale, noise):
    # Any finite guess within ten times the solution's size: beyond that the
    # round-off of x itself (about eps*|x0|) bounds the true residual.
    grid = Grid(nx, ny)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(grid.shape)
    alpha = lo * (1.0 + spread * rng.random(grid.shape))
    x_cold = helmholtz_cg(grid, b, alpha)
    size = np.abs(x_cold).max()
    guess = np.clip(scale * x_cold + noise * size * rng.standard_normal(grid.shape),
                    -10.0 * size, 10.0 * size)
    for x in (x_cold, helmholtz_cg(grid, b, alpha, guess)):
        res = alpha * x - laplacian(grid, x) - b
        assert np.linalg.norm(res) <= 1e-11 * np.linalg.norm(b)


def test_chemotaxis_flux_rejects_unknown_scheme():
    grid = Grid(6, 5)
    ok = np.ones(grid.shape)
    with pytest.raises(ValueError, match="scheme"):
        divergence(grid, ok, ok, "downwind")


def test_ch_block_zero_mode_by_hand():
    grid = Grid(8, 8)
    tau, s = 0.05, 0.5
    c = 1.7
    phi, mu = ch_block_solve(grid, np.full(grid.shape, c / tau), np.zeros(grid.shape), tau, s)
    np.testing.assert_allclose(phi, c, rtol=1e-12)
    np.testing.assert_allclose(mu, s * c, rtol=1e-12)


def test_ch_block_dense_oracle_4x4():
    grid = Grid(4, 4, 1.0, 1.0)
    n = grid.nx * grid.ny
    tau, s = 0.02, 0.7

    lap_mat = np.zeros((n, n))
    for idx in range(n):
        e = np.zeros(n)
        e[idx] = 1.0
        lap_mat[:, idx] = laplacian(grid, e.reshape(grid.shape)).ravel()
    big = np.block(
        [
            [np.eye(n) / tau, -lap_mat],
            [-lap_mat + s * np.eye(n), -np.eye(n)],
        ]
    )
    rhs_phi = random_field(grid)
    rhs_mu = random_field(grid)
    sol = np.linalg.solve(big, np.concatenate([rhs_phi.ravel(), rhs_mu.ravel()]))
    phi, mu = ch_block_solve(grid, rhs_phi, rhs_mu, tau, s)
    np.testing.assert_allclose(phi.ravel(), sol[:n], rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(mu.ravel(), sol[n:], rtol=1e-10, atol=1e-12)


def test_ch_block_residual_random():
    grid = Grid(16, 12, 1.0, 0.6)
    tau, s = 0.01, 1.0
    rhs_phi = random_field(grid)
    rhs_mu = random_field(grid)
    phi, mu = ch_block_solve(grid, rhs_phi, rhs_mu, tau, s)
    r1 = phi / tau - laplacian(grid, mu) - rhs_phi
    r2 = -laplacian(grid, phi) + s * phi - mu - rhs_mu
    scale = norm_l2(grid, rhs_phi) + norm_l2(grid, rhs_mu)
    assert norm_l2(grid, r1) <= 1e-11 * scale
    assert norm_l2(grid, r2) <= 1e-11 * scale


def test_divergence_grad_dot_summation_by_parts():
    # <div(c_face grad p), w> = -<c, grad_dot(p, w)>: the discrete integration
    # by parts behind the adjoint advective source.
    grid = Grid(7, 6)
    c, p, w = random_field(grid), random_field(grid), random_field(grid)
    lhs = inner(grid, divergence(grid, c, p), w)
    rhs = -inner(grid, c, grad_dot(grid, p, w))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


fields_2d = dict(
    nx=st.integers(1, 32), ny=st.integers(1, 32),
    lx=st.floats(0.1, 10.0), ly=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(**fields_2d)
def test_divergence_grad_dot_summation_by_parts_property(nx, ny, lx, ly, seed):
    grid = Grid(nx, ny, lx, ly)
    rng = np.random.default_rng(seed)
    c, p, w = (rng.standard_normal(grid.shape) for _ in range(3))
    div = divergence(grid, c, p)
    lhs = inner(grid, div, w)
    rhs = -inner(grid, c, grad_dot(grid, p, w))
    # Relative to the Cauchy-Schwarz bound of lhs, which no cancellation shrinks.
    assert abs(lhs - rhs) <= 1e-12 * norm_l2(grid, div) * norm_l2(grid, w)


@settings(max_examples=60, deadline=None)
@given(scheme=st.sampled_from(["centered", "upwind"]), **fields_2d)
def test_divergence_cell_sum_vanishes_property(scheme, nx, ny, lx, ly, seed):
    grid = Grid(nx, ny, lx, ly)
    rng = np.random.default_rng(seed)
    c, f = np.abs(rng.standard_normal(grid.shape)), rng.standard_normal(grid.shape)
    div = divergence(grid, c, f, scheme)
    assert abs(div.sum()) <= 1e-13 * np.abs(div).max()


@settings(max_examples=80, deadline=None)
@given(scheme=st.sampled_from(["centered", "upwind"]), levels=st.sampled_from([0, 3]),
       **fields_2d)
@example(scheme="upwind", levels=3, nx=5, ny=3, lx=1.0, ly=2.5, seed=1)
@example(scheme="upwind", levels=0, nx=1, ny=7, lx=1.0, ly=1.0, seed=2)
def test_divergence_transpose_property(scheme, levels, nx, ny, lx, ly, seed):
    # <divergence(c, sigma, s), w> = <c, D1^T w>: D1^T is the transpose in c.
    # levels = 3 rounds sigma to a few integers, so many faces tie; a tied
    # face carries no product, whichever cell divergence takes as its donor.
    grid = Grid(nx, ny, lx, ly)
    rng = np.random.default_rng(seed)
    c, sigma, w = (rng.standard_normal(grid.shape) for _ in range(3))
    if levels:
        sigma = np.round(sigma * (levels - 1) / 4)
    div = divergence(grid, c, sigma, scheme)
    d1t = divergence_transpose(grid, sigma, w, scheme)
    lhs, rhs = inner(grid, div, w), inner(grid, c, d1t)
    # Relative to the Cauchy-Schwarz bounds of both sides.
    scale = norm_l2(grid, div) * norm_l2(grid, w) + norm_l2(grid, c) * norm_l2(grid, d1t)
    assert abs(lhs - rhs) <= 1e-13 * scale


def test_divergence_transpose_gives_upwind_faces_to_the_donor():
    # A 3x1 strip, h = 1, sigma rising then flat: the face (0, 1) rises, so
    # its product -1*(w1 - w0) goes to cell 0; the tied face (1, 2) carries
    # no product. The centered scheme splits the first face's product.
    grid = Grid(3, 1, 3.0, 1.0)
    sigma = np.array([[0.0], [1.0], [1.0]])
    w = np.array([[2.0], [5.0], [-4.0]])
    np.testing.assert_array_equal(divergence_transpose(grid, sigma, w, "upwind"),
                                  [[-3.0], [0.0], [0.0]])
    np.testing.assert_array_equal(divergence_transpose(grid, sigma, w),
                                  [[-1.5], [-1.5], [0.0]])
    # Falling sigma makes the high cell the donor, and flips the product.
    np.testing.assert_array_equal(divergence_transpose(grid, -sigma, w, "upwind"),
                                  [[0.0], [3.0], [0.0]])
    with pytest.raises(ValueError, match="unknown chemotaxis flux scheme"):
        divergence_transpose(grid, sigma, w, "donor")


def test_eigenvalues_match_operator():
    grid = Grid(8, 6, 1.0, 2.0)
    lam = lap_eigenvalues(grid)
    assert lam[0, 0] == 0.0
    assert np.all(lam <= 0.0)


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(2, 2 * grid_mod.DENSE_DCT_MAX), ny=st.integers(2, 2 * grid_mod.DENSE_DCT_MAX),
    lx=st.floats(0.1, 10.0), ly=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1),
)
@example(nx=16, ny=40, lx=1.0, ly=0.7, seed=0)  # dense products
@example(nx=96, ny=7, lx=2.0, ly=0.3, seed=1)  # face differences
def test_lap_eigenvalues_diagonalize_the_self_adjoint_laplacian(nx, ny, lx, ly, seed):
    # On both sides of DENSE_DCT_MAX: the orthonormal DCT-II turns the
    # stencil into multiplication by lap_eigenvalues, and the stencil is
    # self-adjoint under inner, each to round-off of its Cauchy-Schwarz scale.
    grid = Grid(nx, ny, lx, ly)
    rng = np.random.default_rng(seed)
    f, g = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
    lap_f, lap_g = laplacian(grid, f), laplacian(grid, g)
    lam = lap_eigenvalues(grid)
    fh = sfft.dctn(f, type=2, norm="ortho")
    assert np.linalg.norm(sfft.dctn(lap_f, type=2, norm="ortho") - lam * fh) <= (
        1e-13 * np.abs(lam).max() * np.linalg.norm(f))
    scale = norm_l2(grid, lap_f) * norm_l2(grid, g)
    assert abs(inner(grid, lap_f, g) - inner(grid, f, lap_g)) <= 1e-13 * scale


def test_grid_keyed_caches_tell_side_lengths_apart():
    # Two grids of one shape but different ly have different spacings, so
    # neither may be handed the other's cached eigenvalues or inverses.
    wide, tall = Grid(8, 6, 1.0, 1.0), Grid(8, 6, 1.0, 2.0)
    assert wide.shape == tall.shape
    for cached in (
        lambda gr: lap_eigenvalues(gr),
        lambda gr: grid_mod._helmholtz_inverse(gr, 2.0),
        lambda gr: grid_mod._ch_block_inverse(gr, 0.1, 0.5)[0],
    ):
        a, b = cached(wide), cached(tall)
        assert a is not b
        assert not np.array_equal(a, b)
        # An equal grid, built anew, gets the same cached array.
        assert cached(Grid(8, 6, 1.0, 2.0)) is b
    b = random_field(tall)
    x = helmholtz_direct(tall, b, 2.0)
    res = 2.0 * x - laplacian(tall, x) - b
    assert norm_l2(tall, res) <= 1e-12 * norm_l2(tall, b)


def test_cached_spectral_arrays_are_read_only():
    grid = Grid(8, 6, 1.0, 2.0)
    lam = lap_eigenvalues(grid)
    before = lam.copy()
    with pytest.raises(ValueError):
        lam *= 2
    np.testing.assert_array_equal(lap_eigenvalues(grid), before)
    cached = (
        grid_mod._dct_matrix(8),
        grid_mod._helmholtz_inverse(grid, 2.0),
        *grid_mod._ch_block_inverse(grid, 0.1, 0.5),
    )
    for arr in cached:
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


@pytest.mark.parametrize("shape", [(16, 16), (64, 64), (65, 64), (16, 80), (96, 7), (128, 128)])
def test_dct_pair_matches_scipy_on_both_sides_of_dense_threshold(shape, monkeypatch):
    f = RNG.standard_normal(shape)
    dct2, idct2 = grid_mod._dct_pair(shape)
    fh = dct2(f)
    ref = sfft.dctn(f, type=2, norm="ortho")
    assert np.abs(fh - ref).max() <= 1e-13 * np.abs(ref).max()
    back = idct2(fh)
    ref_back = sfft.idctn(fh, type=2, norm="ortho")
    assert np.abs(back - ref_back).max() <= 1e-13 * np.abs(ref_back).max()
    assert np.abs(back - f).max() <= 1e-13 * np.abs(f).max()

    # The Laplacian follows the same size rule: dense products at or below
    # the threshold, slices above. Both agree with the padded mirror stencil.
    grid = Grid(*shape, 1.0, 0.7)
    fp = np.pad(f, 1, mode="edge")
    lap_ref = ((fp[2:, 1:-1] - 2.0 * f + fp[:-2, 1:-1]) / grid.hx**2
               + (fp[1:-1, 2:] - 2.0 * f + fp[1:-1, :-2]) / grid.hy**2)
    for dense_max in (0, max(shape)):  # sliced, then dense
        monkeypatch.setattr(grid_mod, "DENSE_DCT_MAX", dense_max)
        lap = laplacian(grid, f)
        assert np.abs(lap - lap_ref).max() <= 1e-13 * np.abs(lap_ref).max()


@pytest.mark.parametrize("n", [16, 64, 256])
def test_ch_block_without_second_rhs_is_zero_rhs_byte_for_byte(n):
    grid = Grid(n, n)
    rhs_phi = RNG.standard_normal(grid.shape)
    for transpose in (False, True):
        got = ch_block_solve(grid, rhs_phi, None, 0.01, 1.5, transpose)
        zero = ch_block_solve(grid, rhs_phi, np.zeros(grid.shape), 0.01, 1.5, transpose)
        for a, b in zip(got, zero):
            assert a.tobytes() == b.tobytes()


def test_unchecked_cg_rejects_nonfinite_rhs():
    # Unscanned, a non-finite rhs makes the stopping tolerance infinite or
    # NaN; with a guess it would otherwise return the guess as the solution.
    grid = Grid(8, 6)
    rng = np.random.default_rng(8)
    alpha = 1.0 + rng.random(grid.shape)
    for value in (np.nan, np.inf):
        b = rng.standard_normal(grid.shape)
        b[2, 3] = value
        for guess in (None, np.zeros(grid.shape)):
            with pytest.raises(SolverError, match="^helmholtz CG: the rhs is not finite$"):
                helmholtz_cg(grid, b, alpha, guess)


def test_cg_tells_an_overflowing_rhs_norm_from_a_nonfinite_rhs():
    # Finite entries above about 1e154 overflow ||b||; the message then
    # gives the largest |b|. An infinity or NaN among them is still named
    # as a non-finite rhs.
    grid = Grid(16, 16)
    rng = np.random.default_rng(23)
    alpha = 1.0 + rng.random(grid.shape)
    b = rng.standard_normal(grid.shape)
    b[4, 11] = -4.69e297
    with pytest.raises(SolverError, match=r"^helmholtz CG: the rhs norm overflows "
                                          r"\(max \|b\| = 4\.69e\+297\)$"):
        helmholtz_cg(grid, b, alpha)
    for value in (np.nan, np.inf, -np.inf):
        b[9, 2] = value
        with pytest.raises(SolverError, match="^helmholtz CG: the rhs is not finite$"):
            helmholtz_cg(grid, b, alpha, np.zeros(grid.shape))


def test_ch_block_interleaved_parameters_use_their_own_factors():
    grid = Grid(16, 12, 1.0, 0.6)
    rhs_phi = random_field(grid)
    rhs_mu = random_field(grid)
    scale = norm_l2(grid, rhs_phi) + norm_l2(grid, rhs_mu)
    for _ in range(2):
        for tau in (0.01, 0.2):
            for s in (0.0, 1.5):
                for transpose in (False, True):
                    phi, mu = ch_block_solve(grid, rhs_phi, rhs_mu, tau, s, transpose)
                    lap_phi, lap_mu = laplacian(grid, phi), laplacian(grid, mu)
                    if transpose:
                        # Transposed pair: { phi/tau + (s - Lap) mu = rhs_phi ; -Lap phi - mu = rhs_mu }.
                        r1 = phi / tau - lap_mu + s * mu - rhs_phi
                        r2 = -lap_phi - mu - rhs_mu
                    else:
                        r1 = phi / tau - lap_mu - rhs_phi
                        r2 = -lap_phi + s * phi - mu - rhs_mu
                    assert norm_l2(grid, r1) <= 1e-12 * scale
                    assert norm_l2(grid, r2) <= 1e-12 * scale
    # A numerically singular zero mode (det = -1/tau) raises on every call,
    # not only on the call that first meets it.
    for _ in range(2):
        with pytest.raises(SolverError):
            ch_block_solve(grid, rhs_phi, rhs_mu, 1e15, 0.5)
