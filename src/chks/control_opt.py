"""Tracking cost, admissible-set projection, reduced gradient, and
projected gradient descent with Armijo backtracking.

The reduced problem is

    minimize J(u) = (b1/2) int_Q |phi(u) - phi_Q|^2
                  + (b2/2) int_Om |phi(u)(T) - phi_Om|^2
                  + (b3/2) int_Q |u|^2
    over the box  0 <= u <= u_max,

with the state phi(u) produced by the forward solver. The gradient of J
as a function of the control alone is p3 + b3*u, with p3 the third
adjoint component; the necessary optimality condition is the pointwise
projection identity u* = P(-p3/b3), whose defect is the stationarity
residual used as the stopping rule.

Every integral over Q is the rectangle rule at the step-end levels 1..Nt,
tau * grid.inner over the stacked levels. cost and stationarity_residual
read the grid and tau from the trajectory they are given.

The state depends continuously on the control, and each control optimize
solves for is a short step from one it has solved for already. So each
solve starts its CG solves from the increments of an earlier solve
(Trajectory.extrapolate with like): a line-search trial from the accepted
trajectory's, an adjoint from the previous iteration's adjoint. On the
optimize-64 benchmark workload at seed 7 this cuts the CG preconditioner
applications (DCT pairs) of one run from 5398 to 663. The stopping test
of each CG is unchanged, so each solve agrees with the same solve without
like to the CG tolerance, not bitwise: optimize's results depend on the
history of its solves. That history is fixed by the inputs, so a rerun
gives the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grid as g
from .adjoint import ADJOINT_FIELDS, ControlSpec, solve_adjoint
from .grid import Grid
from .state import FORWARD_FIELDS, Control, InitialData, ModelSpec, Trajectory, solve_forward

# Step reductions the line search tries before it gives up, and the
# sufficient-decrease factor of its Armijo test.
MAX_BACKTRACKS = 40
ARMIJO_C = 1e-4


@dataclass
class OptimizeOptions:
    tol_stat: float = 1e-6
    max_iters: int = 200
    backtrack: float = 0.5
    s_stab: float | None = None
    flux_scheme: str = "centered"


@dataclass
class OptimizeResult:
    u_star: Control
    cost_history: list[float] = field(default_factory=list)
    stationarity_history: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    step_sizes: list[float] = field(default_factory=list)
    backtrack_counts: list[int] = field(default_factory=list)
    message: str = ""
    trajectory: Trajectory | None = None
    adjoint: Trajectory | None = None


def cost(traj: Trajectory, u: Control, cs: ControlSpec) -> float:
    """Tracking cost J of a forward trajectory and the control that drove it."""
    gr, tau = traj.grid, traj.tau
    if u.values.shape != (traj.nt, gr.nx, gr.ny):
        raise ValueError("control shape mismatch")
    cs.check_targets(gr, traj.nt)
    j = 0.0
    if cs.b1:
        d = traj.phi[1:] - cs.phi_q
        j += 0.5 * cs.b1 * tau * g.inner(gr, d, d)
    if cs.b2:
        d = traj.phi[-1] - cs.phi_omega
        j += 0.5 * cs.b2 * g.inner(gr, d, d)
    return j + 0.5 * cs.b3 * tau * g.inner(gr, u.values, u.values)


def project_admissible(values: np.ndarray, u_max: float | np.ndarray) -> np.ndarray:
    """Pointwise clamp of a control-shaped array to the box [0, u_max]."""
    return np.clip(values, 0.0, u_max)


def control_norm(gr: Grid, tau: float, values: np.ndarray) -> float:
    """Discrete L2(Q) norm of a control-shaped array."""
    return float(np.sqrt(tau * g.inner(gr, values, values)))


def reduced_gradient(adj: Trajectory, u: Control, b3: float) -> np.ndarray:
    """Gradient slices p3 + b3*u, with p3 taken at the end level of each interval.

    The duality identity pairs the control slice on [t_k, t_{k+1}) with
    p3 at level k+1; using that level keeps the finite-difference gradient
    check second order in the probe size. ValueError unless adj holds p3 at
    every level.
    """
    adj.check_every_level("adj", ("p3",))
    nt = u.values.shape[0]
    if adj.nt != nt:
        raise ValueError("adjoint and control time grids do not match")
    return adj.p3[1:] + b3 * u.values


def stationarity_residual(u: Control, adj: Trajectory, cs: ControlSpec) -> float:
    """L2(Q) norm of u - P(-p3/b3); zero iff the discrete optimality condition holds.

    ValueError unless adj holds p3 at every level.
    """
    adj.check_every_level("adj", ("p3",))
    target = project_admissible(-adj.p3[1:] / cs.b3, cs.u_max)
    return control_norm(adj.grid, adj.tau, u.values - target)


def optimize(
    gr: Grid,
    spec: ModelSpec,
    init: InitialData,
    cs: ControlSpec,
    u0: Control,
    T: float,
    nt: int,
    opts: OptimizeOptions | None = None,
) -> OptimizeResult:
    """Projected gradient descent u <- P(u - s*(p3 + b3*u)) with Armijo backtracking.

    Each iteration runs one adjoint solve, then a line search on J whose
    trials are forward solves; the accepted trial is the next iteration's
    state. Stops when the stationarity residual drops below
    tol_stat * (1 + ||u||) or the iteration budget of max_iters >= 0
    iterations runs out, so the result always holds the last state and
    adjoint; a negative max_iters raises ValueError. Accepted steps
    never increase J. Each trial starts its CG solves from the accepted
    trajectory's increments and each adjoint from the previous adjoint's
    (see the module docstring); the first forward and adjoint solves start
    from the extrapolation in time.
    """
    opts = opts or OptimizeOptions()
    if opts.max_iters < 0:
        raise ValueError(f"max_iters must be at least 0, got {opts.max_iters}")
    cs.validate()
    u = Control(project_admissible(u0.values, cs.u_max), cs.u_max)
    tau = T / nt

    result = OptimizeResult(u_star=u)

    # Every forward unknown is kept: chks optimize writes all five as
    # snapshots of the last accepted trajectory.
    def forward(uc: Control, like: Trajectory | None = None) -> Trajectory:
        traj, _ = solve_forward(
            gr, spec, init, uc, T, nt, s_stab=opts.s_stab, flux_scheme=opts.flux_scheme,
            like=like, keep=FORWARD_FIELDS,
        )
        return traj

    traj = forward(u)
    j_cur = cost(traj, u, cs)
    step_size = 1.0 / cs.b3
    adj = None
    for it in range(opts.max_iters + 1):
        # Every adjoint unknown is kept: the next solve's warm start (like)
        # reads p5, and chks optimize writes all five as adj_* snapshots.
        adj = solve_adjoint(traj, cs, spec, like=adj, keep=ADJOINT_FIELDS)
        stat = stationarity_residual(u, adj, cs)
        result.cost_history.append(j_cur)
        result.stationarity_history.append(stat)
        result.iterations = it
        result.u_star = u
        result.trajectory = traj
        result.adjoint = adj
        if stat <= opts.tol_stat * (1.0 + control_norm(gr, tau, u.values)):
            result.converged = True
            result.message = "stationarity tolerance reached"
            return result
        if it == opts.max_iters:
            result.message = "iteration budget exhausted"
            return result

        grad = reduced_gradient(adj, u, cs.b3)
        s = step_size
        for bt in range(MAX_BACKTRACKS + 1):
            trial_values = project_admissible(u.values - s * grad, cs.u_max)
            trial = Control(trial_values, cs.u_max)
            step_norm_sq = control_norm(gr, tau, trial_values - u.values) ** 2
            traj_trial = forward(trial, like=traj)
            j_trial = cost(traj_trial, trial, cs)
            if j_trial <= j_cur - ARMIJO_C / max(s, 1e-300) * step_norm_sq:
                u, traj, j_cur = trial, traj_trial, j_trial
                result.step_sizes.append(s)
                result.backtrack_counts.append(bt)
                # Gentle step growth after clean accepts keeps progress fast.
                step_size = min(s * 2.0, 1.0 / cs.b3) if bt == 0 else s
                break
            s *= opts.backtrack
        else:
            result.message = "line search failed after max backtracks"
            return result
