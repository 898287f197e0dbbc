"""Linearized solver: nullity, linearity, superposition, and the Taylor test."""

import numpy as np
import pytest

from chks.grid import Grid, SolverError
from chks.linearized import solve_linearized, taylor_remainders
from chks.state import Control, Trajectory, solve_forward, trajectory_distance

from test_state import base_model, make_random_init


@pytest.fixture(scope="module")
def setup():
    grid = Grid(16, 16)
    spec = base_model()
    init = make_random_init(grid, 100)
    nt, T = 32, 0.5
    u = Control(np.clip(0.5 + 0.2 * np.cos(np.arange(nt) / 3.0), 0, 1)[:, None, None]
                * np.ones((nt, grid.nx, grid.ny)), 1.0)
    traj, _ = solve_forward(grid, spec, init, u, T, nt)
    return grid, spec, init, u, traj, T, nt


def smooth_direction(grid, nt, seed):
    rng = np.random.default_rng(seed)
    x, y = grid.cell_centers()
    out = np.zeros((nt, grid.nx, grid.ny))
    for k in range(nt):
        f = sum(
            rng.normal() * np.cos(kx * np.pi * x) * np.cos(ky * np.pi * y)
            for kx in range(3) for ky in range(3)
        )
        out[k] = f / np.abs(f).max()
    return out


def test_zero_direction_gives_zero_trajectory(setup):
    grid, spec, init, u, traj, T, nt = setup
    lin = solve_linearized(traj, spec, np.zeros((nt, grid.nx, grid.ny)))
    for name in ("psi", "eta", "alpha_lin", "nu", "omega"):
        assert np.all(getattr(lin, name) == 0.0)


def test_linearity_scaling(setup):
    grid, spec, init, u, traj, T, nt = setup
    h = smooth_direction(grid, nt, 101)
    lin1 = solve_linearized(traj, spec, h)
    lin2 = solve_linearized(traj, spec, 2.0 * h)
    for name in ("psi", "eta", "alpha_lin", "nu", "omega"):
        a, b = getattr(lin2, name), getattr(lin1, name)
        scale = np.abs(a).max() or 1.0
        assert np.abs(a - 2.0 * b).max() <= 1e-12 * scale


def test_superposition(setup):
    grid, spec, init, u, traj, T, nt = setup
    h1 = smooth_direction(grid, nt, 102)
    h2 = smooth_direction(grid, nt, 103)
    lin_sum = solve_linearized(traj, spec, h1 + h2)
    lin1 = solve_linearized(traj, spec, h1)
    lin2 = solve_linearized(traj, spec, h2)
    for name in ("psi", "eta", "alpha_lin", "nu", "omega"):
        combo = getattr(lin1, name) + getattr(lin2, name)
        target = getattr(lin_sum, name)
        scale = max(np.abs(target).max(), 1e-30)
        assert np.abs(target - combo).max() <= 1e-11 * scale


def test_taylor_remainder_second_order(setup):
    grid, spec, init, u, traj, T, nt = setup
    h = smooth_direction(grid, nt, 104)
    eps = [1e-2, 5e-3, 2.5e-3]
    rem = taylor_remainders(grid, spec, traj, init, u, h, eps, T, nt)
    orders = [np.log2(rem[i] / rem[i + 1]) for i in range(len(rem) - 1)]
    assert min(orders) >= 1.5
    # The remainder is genuinely second order, not just above the floor.
    assert max(orders) <= 2.5


def test_taylor_componentwise_decay(setup):
    grid, spec, init, u, traj, T, nt = setup
    h = smooth_direction(grid, nt, 105)
    lin = solve_linearized(traj, spec, h)
    eps_pair = (1e-2, 5e-3)
    comp_rem = {name: [] for name in ("phi", "a", "n", "sigma")}
    for eps in eps_pair:
        traj_eps, _ = solve_forward(
            grid, spec, init, Control(u.values + eps * h, u.u_max), T, nt
        )
        comp_rem["phi"].append(np.abs(traj_eps.phi - traj.phi - eps * lin.psi).max())
        comp_rem["a"].append(np.abs(traj_eps.a - traj.a - eps * lin.alpha_lin).max())
        comp_rem["n"].append(np.abs(traj_eps.n - traj.n - eps * lin.nu).max())
        comp_rem["sigma"].append(np.abs(traj_eps.sigma - traj.sigma - eps * lin.omega).max())
    for name, (r1, r2) in comp_rem.items():
        if r1 <= 1e-13:
            continue  # remainder already at round-off; no decay left to observe
        order = np.log2(r1 / r2)
        assert order >= 1.5, f"component {name} Taylor order {order}"


def test_upwind_scheme_linearization(setup):
    # The donor-frozen derivative of the upwind flux also passes a Taylor test.
    grid, spec, init, u, traj, T, nt = setup
    traj_up, _ = solve_forward(grid, spec, init, u, T, nt, flux_scheme="upwind")
    h = smooth_direction(grid, nt, 106)
    rem = taylor_remainders(grid, spec, traj_up, init, u, h, [1e-2, 5e-3], T, nt)
    assert np.log2(rem[0] / rem[1]) >= 1.4


def test_shape_mismatch_rejected(setup):
    grid, spec, init, u, traj, T, nt = setup
    with pytest.raises(ValueError):
        solve_linearized(traj, spec, np.zeros((nt + 1, grid.nx, grid.ny)))


def test_linearized_norm_positive(setup):
    grid, spec, init, u, traj, T, nt = setup
    lin = solve_linearized(traj, spec, smooth_direction(grid, nt, 107))
    assert trajectory_distance(lin, Trajectory.zeros(grid, lin.times, lin.fields)) > 0


def test_nan_in_direction_names_the_step(setup):
    grid, spec, init, u, traj, T, nt = setup
    h = smooth_direction(grid, nt, 104)
    h[3, 5, 6] = np.nan
    with pytest.raises(SolverError, match="after step 3$"):
        solve_linearized(traj, spec, h)
