"""Cost, projection, reduced gradient, and projected gradient descent."""

import sys

import numpy as np
import pytest

from chks import control_opt
from chks import grid as grid_mod
from chks.adjoint import ADJOINT_FIELDS, ControlSpec, solve_adjoint
from chks.control_opt import (
    OptimizeOptions,
    control_norm,
    cost,
    optimize,
    project_admissible,
    projected_step,
    reduced_gradient,
    stationarity_residual,
)
from chks.grid import Grid
from chks.state import (
    CONCURRENT_MIN_CELLS,
    FORWARD_FIELDS,
    REPLAY_FIELDS,
    Control,
    Trajectory,
    solve_forward,
)

from test_adjoint import coupled_model
from test_state import make_random_init
from test_linearized import smooth_direction

RNG = np.random.default_rng(77)


@pytest.fixture(scope="module")
def problem():
    grid = Grid(16, 16)
    spec = coupled_model()
    init = make_random_init(grid, 100)
    T, nt = 0.5, 32
    x, y = grid.cell_centers()
    phi_om = 0.5 + 0.2 * np.cos(np.pi * x) * np.cos(np.pi * y)
    phi_q = np.repeat((0.5 * np.ones(grid.shape))[None], nt, axis=0)
    cs = ControlSpec(b1=1.0, b2=1.0, b3=1e-3, phi_q=phi_q, phi_omega=phi_om, u_max=1.0)
    return grid, spec, init, cs, T, nt


def test_cost_perfect_tracking_zero_control(problem):
    grid, spec, init, cs, T, nt = problem
    u = Control(np.zeros((nt, grid.nx, grid.ny)), 1.0)
    traj, _ = solve_forward(grid, spec, init, u, T, nt)
    cs_perfect = ControlSpec(b1=1.0, b2=1.0, b3=1.0, phi_q=traj.phi[1:].copy(),
                             phi_omega=traj.phi[nt].copy(), u_max=1.0)
    assert cost(traj, u, cs_perfect) == 0.0


def test_cost_pure_control_quadrature():
    # b1 = b2 = 0, u = 1 on the unit square with T = 1 gives exactly b3/2.
    grid = Grid(8, 8)
    spec = coupled_model()
    nt = 16
    u = Control(np.ones((nt, grid.nx, grid.ny)), 2.0)
    traj = Trajectory.zeros(grid, np.linspace(0, 1.0, nt + 1), ("phi", "mu", "a", "n", "sigma"))
    b3 = 0.7
    cs = ControlSpec(b1=0.0, b2=0.0, b3=b3,
                     phi_q=np.zeros((nt, grid.nx, grid.ny)),
                     phi_omega=np.zeros(grid.shape), u_max=2.0)
    assert cost(traj, u, cs) == pytest.approx(b3 / 2.0, rel=1e-14)
    u2 = Control(2.0 * u.values, 2.0)
    assert cost(traj, u2, cs) == pytest.approx(4.0 * b3 / 2.0, rel=1e-14)


def test_cost_matches_per_level_quadrature(problem):
    # All three terms weighted, against the rectangle rule written per level.
    grid, spec, init, cs, T, nt = problem
    tau = T / nt
    u = Control(np.clip(0.5 + 0.2 * smooth_direction(grid, nt, 320), 0, 1), 1.0)
    traj, _ = solve_forward(grid, spec, init, u, T, nt)
    cs3 = ControlSpec(b1=0.7, b2=1.3, b3=0.2,
                      phi_q=0.5 + 0.1 * smooth_direction(grid, nt, 321),
                      phi_omega=cs.phi_omega, u_max=1.0)
    area = grid.cell_area
    ref = 0.5 * cs3.b2 * area * np.sum((traj.phi[nt] - cs3.phi_omega) ** 2)
    for k in range(nt):
        ref += 0.5 * cs3.b1 * tau * area * np.sum((traj.phi[k + 1] - cs3.phi_q[k]) ** 2)
        ref += 0.5 * cs3.b3 * tau * area * np.sum(u.values[k] ** 2)
    assert cost(traj, u, cs3) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("name, cell", [("phi_q", (5, 2, 3)), ("phi_omega", (2, 3))],
                         ids=["phi_q", "phi_omega"])
def test_cost_rejects_nonfinite_target(problem, name, cell):
    # A NaN target is named, not returned as a NaN cost.
    grid, spec, init, cs, T, nt = problem
    u = Control(np.zeros((nt, grid.nx, grid.ny)), 1.0)
    traj = Trajectory.zeros(grid, np.linspace(0, T, nt + 1), ("phi", "mu", "a", "n", "sigma"))
    targets = {"phi_q": cs.phi_q.copy(), "phi_omega": cs.phi_omega.copy()}
    targets[name][cell] = np.nan
    bad = ControlSpec(cs.b1, cs.b2, cs.b3, targets["phi_q"], targets["phi_omega"], cs.u_max)
    with pytest.raises(ValueError, match=f"^{name} contains non-finite values$"):
        cost(traj, u, bad)


def test_projection_identity_clamp_nonexpansive():
    u_max = 1.5
    v = RNG.uniform(0.0, u_max, (4, 8, 8))
    np.testing.assert_array_equal(project_admissible(v, u_max), v)
    np.testing.assert_array_equal(
        project_admissible(-np.ones((2, 3, 3)), u_max), np.zeros((2, 3, 3))
    )
    for _ in range(100):
        a = RNG.standard_normal((4, 8, 8)) * 2.0
        b = RNG.standard_normal((4, 8, 8)) * 2.0
        pa, pb = project_admissible(a, u_max), project_admissible(b, u_max)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-14


def test_projection_pointwise_umax_field():
    umax = np.abs(RNG.standard_normal((5, 5))) + 0.1
    v = RNG.standard_normal((3, 5, 5)) * 2.0
    p = project_admissible(v, umax)
    assert np.all(p >= 0.0) and np.all(p <= umax)


def test_reduced_gradient_zero_weights(problem):
    grid, spec, init, cs, T, nt = problem
    u = Control(0.4 * np.ones((nt, grid.nx, grid.ny)), 1.0)
    traj, _ = solve_forward(grid, spec, init, u, T, nt)
    cs0 = ControlSpec(b1=0.0, b2=0.0, b3=0.5, phi_q=cs.phi_q, phi_omega=cs.phi_omega,
                      u_max=1.0)
    adj = solve_adjoint(traj, cs0, spec)
    grad = reduced_gradient(adj, u, cs0.b3)
    np.testing.assert_allclose(grad, 0.5 * u.values, rtol=1e-14)


def test_gradient_matches_central_differences(problem):
    # The load-bearing check: adjoint directional derivatives against
    # central finite differences of the full cost, five seeded directions.
    grid, spec, init, cs, T, nt = problem
    tau = T / nt
    u = Control(np.clip(0.5 + 0.2 * smooth_direction(grid, nt, 300), 0, 1), 1.0)
    traj, _ = solve_forward(grid, spec, init, u, T, nt)
    adj = solve_adjoint(traj, cs, spec)
    grad = reduced_gradient(adj, u, cs.b3)
    eps = 1e-4
    for seed in range(301, 306):
        h = smooth_direction(grid, nt, seed)
        directional = tau * grid.cell_area * float(np.sum(grad * h))
        tp, _ = solve_forward(grid, spec, init, Control(u.values + eps * h, 1.0), T, nt)
        tm, _ = solve_forward(grid, spec, init, Control(u.values - eps * h, 1.0), T, nt)
        fd = (
            cost(tp, Control(u.values + eps * h, 1.0), cs)
            - cost(tm, Control(u.values - eps * h, 1.0), cs)
        ) / (2 * eps)
        assert abs(directional - fd) / abs(fd) <= 1e-3


def test_stationarity_residual_fixed_point(problem):
    grid, spec, init, cs, T, nt = problem
    u = Control(0.4 * np.ones((nt, grid.nx, grid.ny)), 1.0)
    traj, _ = solve_forward(grid, spec, init, u, T, nt)
    adj = solve_adjoint(traj, cs, spec)
    u_fix = Control(project_admissible(-adj.p3[1:] / cs.b3, 1.0), 1.0)
    assert stationarity_residual(u_fix, adj, cs) == 0.0

    cs0 = ControlSpec(b1=0.0, b2=0.0, b3=1.0, phi_q=cs.phi_q, phi_omega=cs.phi_omega,
                      u_max=1.0)
    u0 = Control(np.zeros((nt, grid.nx, grid.ny)), 1.0)
    traj0, _ = solve_forward(grid, spec, init, u0, T, nt)
    adj0 = solve_adjoint(traj0, cs0, spec)
    assert stationarity_residual(u0, adj0, cs0) == 0.0


def test_optimize_trivial_quadratic(problem):
    grid, spec, init, cs, T, nt = problem
    tau = T / nt
    cs0 = ControlSpec(b1=0.0, b2=0.0, b3=1e-3, phi_q=cs.phi_q, phi_omega=cs.phi_omega,
                      u_max=1.0)
    u0 = Control(np.clip(0.5 + 0.3 * smooth_direction(grid, nt, 310), 0, 1), 1.0)
    res = optimize(grid, spec, init, cs0, u0, T, nt,
                   OptimizeOptions(tol_stat=1e-8, max_iters=5))
    assert res.converged
    assert res.iterations <= 5
    assert res.stationarity_history[-1] <= 1e-8
    assert control_norm(grid, tau, res.u_star.values) <= 1e-8


def test_optimize_inverse_crime(problem):
    grid, spec, init, cs, T, nt = problem
    tau = T / nt
    u_true = Control(np.clip(0.6 + 0.3 * smooth_direction(grid, nt, 311), 0, 1), 1.0)
    traj_true, _ = solve_forward(grid, spec, init, u_true, T, nt)
    cs_ic = ControlSpec(b1=1.0, b2=1.0, b3=1e-4, phi_q=traj_true.phi[1:].copy(),
                        phi_omega=traj_true.phi[nt].copy(), u_max=1.0)
    u0 = Control(np.clip(0.5 + 0.2 * smooth_direction(grid, nt, 312), 0, 1), 1.0)
    res = optimize(grid, spec, init, cs_ic, u0, T, nt,
                   OptimizeOptions(tol_stat=1e-8, max_iters=100))
    assert res.converged
    assert res.cost_history[0] / res.cost_history[-1] >= 10.0
    # Armijo guarantee: never increases.
    diffs = np.diff(res.cost_history)
    assert np.all(diffs <= 1e-18)
    # Projection characterization at the reported iterate.
    adj = res.adjoint
    stat = stationarity_residual(res.u_star, adj, cs_ic)
    assert stat <= 1e-6 * (1.0 + control_norm(grid, tau, res.u_star.values))
    # Sampled variational inequality over random admissible controls.
    grad = reduced_gradient(adj, res.u_star, cs_ic.b3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        utest = rng.uniform(0, 1, res.u_star.values.shape)
        vi = tau * grid.cell_area * float(np.sum(grad * (utest - res.u_star.values)))
        du = control_norm(grid, tau, utest - res.u_star.values)
        assert vi >= -1e-8 * du


def test_optimize_zero_budget_returns_initial(problem):
    grid, spec, init, cs, T, nt = problem
    u0 = Control(0.3 * np.ones((nt, grid.nx, grid.ny)), 1.0)
    res = optimize(grid, spec, init, cs, u0, T, nt,
                   OptimizeOptions(tol_stat=1e-16, max_iters=0))
    assert not res.converged
    assert res.iterations == 0
    np.testing.assert_array_equal(res.u_star.values, u0.values)
    assert len(res.stationarity_history) == 1
    assert res.trajectory is not None and res.adjoint is not None


def test_optimize_line_search_failure_returns_the_last_accepted_state(problem, monkeypatch):
    # An infinite sufficient-decrease factor rejects every trial, so the first
    # line search fails and the result holds the initial state and adjoint.
    grid, spec, init, cs, T, nt = problem
    monkeypatch.setattr(control_opt, "ARMIJO_C", float("inf"))
    monkeypatch.setattr(control_opt, "MAX_BACKTRACKS", 2)
    u0 = Control(np.clip(0.5 + 0.3 * smooth_direction(grid, nt, 310), 0, 1), 1.0)
    res = optimize(grid, spec, init, cs, u0, T, nt, OptimizeOptions(tol_stat=0.0, max_iters=5))
    assert res.message == "line search failed after max backtracks"
    assert not res.converged and res.iterations == 0 and res.step_sizes == []
    assert res.u_star.values.tobytes() == u0.values.tobytes()
    assert cost(res.trajectory, res.u_star, cs) == res.cost_history[-1]
    adj = solve_adjoint(res.trajectory, cs, spec, keep=("p3", "p5"))
    assert res.adjoint.p3.tobytes() == adj.p3.tobytes()


def test_optimize_line_search_failure_after_accepted_steps(problem, monkeypatch):
    # At b3 = 1e-5 and backtrack = 0.1 the line searches of this problem take
    # 0, 0, 0 and 2 backtracks. Without backtracks the fourth fails, and the
    # result is bitwise that of a budget of three iterations.
    grid, spec, init, cs, T, nt = problem
    cs5 = ControlSpec(cs.b1, cs.b2, 1e-5, cs.phi_q, cs.phi_omega, cs.u_max)
    u0 = Control(np.clip(0.5 + 0.3 * smooth_direction(grid, nt, 310), 0, 1), 1.0)

    def run(max_iters):
        return optimize(grid, spec, init, cs5, u0, T, nt,
                        OptimizeOptions(tol_stat=0.0, max_iters=max_iters, backtrack=0.1))

    budget = run(3)
    monkeypatch.setattr(control_opt, "MAX_BACKTRACKS", 0)
    res = run(5)
    assert res.message == "line search failed after max backtracks"
    assert res.iterations == 3 and res.backtrack_counts == budget.backtrack_counts == [0, 0, 0]
    assert res.cost_history == budget.cost_history
    assert res.stationarity_history == budget.stationarity_history
    for got, want in ((res.u_star.values, budget.u_star.values),
                      (res.trajectory.data, budget.trajectory.data),
                      (res.adjoint.data, budget.adjoint.data)):
        assert got.tobytes() == want.tobytes()
    assert cost(res.trajectory, res.u_star, cs5) == res.cost_history[-1]


@pytest.mark.parametrize("field_bound", [False, True], ids=["scalar-u_max", "field-u_max"])
def test_projected_step_is_the_projected_gradient_step_bitwise(problem, field_bound):
    grid, spec, init, cs, T, nt = problem
    rng = np.random.default_rng(41)
    u_max = rng.uniform(0.5, 1.5, grid.shape) if field_bound else 1.0
    values = rng.uniform(0.0, 1.0, (nt, grid.nx, grid.ny)) * u_max
    u = Control(values.copy(), u_max)
    adj = Trajectory.zeros(grid, np.linspace(0.0, T, nt + 1), ADJOINT_FIELDS, ("p3",),
                           direction=-1)
    adj.p3[...] = rng.standard_normal(adj.p3.shape)
    p3 = adj.p3.copy()
    upper = np.broadcast_to(u_max, values.shape)
    for s in (0.3, 1.0, 7.0):
        step = projected_step(adj, u, cs.b3, s, u_max)
        want = project_admissible(u.values - s * reduced_gradient(adj, u, cs.b3), u_max)
        assert step.tobytes() == want.tobytes()
        assert np.any(step == 0.0) and np.any(step == upper)
        assert np.any((step > 0.0) & (step < upper))
    assert u.values.tobytes() == values.tobytes() and adj.p3.tobytes() == p3.tobytes()


def test_optimize_rejects_negative_budget(problem):
    # Without the check a negative budget returns no cost, state or adjoint.
    grid, spec, init, cs, T, nt = problem
    u0 = Control(0.3 * np.ones((nt, grid.nx, grid.ny)), 1.0)
    with pytest.raises(ValueError, match="max_iters"):
        optimize(grid, spec, init, cs, u0, T, nt, OptimizeOptions(max_iters=-1))


def test_optimize_iterates_stay_admissible(problem):
    grid, spec, init, cs, T, nt = problem
    u0 = Control(np.clip(0.9 + 0.2 * smooth_direction(grid, nt, 313), 0, 1), 1.0)
    res = optimize(grid, spec, init, cs, u0, T, nt,
                   OptimizeOptions(tol_stat=1e-7, max_iters=30))
    assert np.all(res.u_star.values >= 0.0)
    assert np.all(res.u_star.values <= 1.0)


def count_cg_preconditioner(monkeypatch):
    """A list that grows by one on each preconditioner application inside
    helmholtz_cg; helmholtz_direct's own call is not counted."""
    calls = []
    original, cg_code = grid_mod._precondition, grid_mod.helmholtz_cg.__code__

    def counted(r, inv):
        if sys._getframe(1).f_code is cg_code:
            calls.append(1)
        return original(r, inv)

    monkeypatch.setattr(grid_mod, "_precondition", counted)
    return calls


@pytest.mark.parametrize("side, nt", [(16, 32), (144, 3)], ids=["serial-16", "concurrent-144"])
def test_resolve_with_like_is_bitwise_and_preconditions_nothing(monkeypatch, side, nt):
    # Repeating a solve with itself as like starts each CG from the level it
    # solved for, which passes the stopping test before the first transform.
    grid = Grid(side, side)
    assert (side * side >= CONCURRENT_MIN_CELLS) == (side > 16)
    spec, init, T = coupled_model(), make_random_init(grid, 100), nt / 64
    x, y = grid.cell_centers()
    cs = ControlSpec(b1=1.0, b2=1.0, b3=1e-3, phi_q=np.full((nt, side, side), 0.5),
                     phi_omega=0.5 + 0.2 * np.cos(np.pi * x) * np.cos(np.pi * y))
    u = Control(np.clip(0.5 + 0.3 * smooth_direction(grid, nt, 310), 0, 1), 1.0)
    traj, _ = solve_forward(grid, spec, init, u, T, nt, keep=FORWARD_FIELDS)
    adj = solve_adjoint(traj, cs, spec, keep=ADJOINT_FIELDS)

    calls = count_cg_preconditioner(monkeypatch)
    again, _ = solve_forward(grid, spec, init, u, T, nt, like=traj, keep=FORWARD_FIELDS)
    adj_again = solve_adjoint(traj, cs, spec, like=adj, keep=ADJOINT_FIELDS)
    assert not calls
    for new, old in ((again, traj), (adj_again, adj)):
        for name, f in old.fields.items():
            np.testing.assert_array_equal(new.fields[name], f, err_msg=name)
    # The counter sees the cold solves' work.
    solve_adjoint(traj, cs, spec)
    assert calls


def test_like_of_another_grid_step_count_or_sweep_rejected(problem):
    grid, spec, init, cs, T, nt = problem
    u = Control(0.4 * np.ones((nt, grid.nx, grid.ny)), 1.0)
    traj, _ = solve_forward(grid, spec, init, u, T, nt)
    adj = solve_adjoint(traj, cs, spec, keep=ADJOINT_FIELDS)
    # A like of the other sweep lacks the field whose increments start the
    # CG: sigma for the forward, p5 for the adjoint.
    sweeps = ((traj, adj, "sigma", lambda like: solve_forward(grid, spec, init, u, T, nt,
                                                              like=like)),
              (adj, traj, "p5", lambda like: solve_adjoint(traj, cs, spec, like=like)))
    for ref, other_sweep, name, sweep in sweeps:
        for like in (Trajectory.zeros(grid, ref.times[::2], ref.fields),
                     Trajectory.zeros(Grid(16, 8), ref.times, ref.fields)):
            with pytest.raises(ValueError,
                               match="^like must have the grid and the step count of the solve$"):
                sweep(like)
        with pytest.raises(ValueError, match=f"^like must hold {name} at every level$"):
            sweep(other_sweep)


def test_optimize_agrees_with_cold_solves(problem):
    # optimize starts each solve's CG from an earlier solve's increments, so
    # its results agree with cold solves (without like) at u_star to the CG
    # tolerance, not bitwise. Measured here: forward 3.4e-12, adjoint 2.3e-11 (in p3) and
    # cost 3.5e-16, relative; on six more runs of this problem at b3 = 1e-3
    # and 1e-5, up to 1.0e-11, 5.7e-11 and 5.9e-15. Each bound below is
    # about ten times the largest of these.
    grid, spec, init, cs, T, nt = problem
    u0 = Control(np.clip(0.5 + 0.3 * smooth_direction(grid, nt, 310), 0, 1), 1.0)
    # optimize keeps the unknowns its loop reads, which the cold solves keep too.
    res = optimize(grid, spec, init, cs, u0, T, nt, OptimizeOptions(tol_stat=0.0, max_iters=10))
    assert res.iterations == 10
    assert res.trajectory.names == REPLAY_FIELDS and res.adjoint.names == ("p3", "p5")
    traj, _ = solve_forward(grid, spec, init, res.u_star, T, nt)
    adj = solve_adjoint(traj, cs, spec, keep=res.adjoint.names)

    def rel_max(warm, cold):
        return max(float(np.abs(warm.fields[n] - f).max() / np.abs(f).max())
                   for n, f in cold.fields.items())

    assert rel_max(res.trajectory, traj) <= 1e-10
    assert rel_max(res.adjoint, adj) <= 5e-10
    j_cold = cost(traj, res.u_star, cs)
    assert abs(res.cost_history[-1] - j_cold) <= 1e-13 * j_cold
