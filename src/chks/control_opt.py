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

optimize stores only what its loop reads, and holds it only while
something reads it. Each forward solve keeps REPLAY_FIELDS (phi, a and
sigma): all that cost, solve_adjoint and the next trial's CG start read.
Each adjoint keeps p3, which the gradient and the stationarity residual
read, and p5, which the next adjoint's CG start reads. While an adjoint
solves, the loop so holds 7 field trajectories: the accepted forward, the
previous adjoint and the new one. While the line search runs it holds 8:
the accepted forward, the adjoint and one trial, for a rejected trial is
dropped before the next is formed. The gradient is not stored: each
trial is formed in one array (projected_step). Holding the previous state,
the last rejected trial and the gradient as well, the loop held 10 and 11
field trajectories, and the optimize-64 benchmark workload's peak_rss_mb
read 79.3 MB where it reads 72.9 MB (medians of 12 runs each, two shared
x86-64 cores). A caller that reads the other unknowns re-solves the
final control with like set to the result's trajectories, as chks
optimize does: each CG then starts from the loop's own answer, and every
level agrees with the loop's to the CG tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grid as g
from .adjoint import ControlSpec, solve_adjoint
from .grid import Grid
from .state import REPLAY_FIELDS, Control, InitialData, ModelSpec, Trajectory, solve_forward

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
    """What optimize returns: the last iterate u_star, the per-iteration
    histories, and the last state and adjoint, which hold only what the
    loop reads: trajectory phi, a and sigma, adjoint p3 and p5, at every
    level (see the module docstring). optimize binds u_star and trajectory
    before each adjoint solve and adjoint right after it, so the result
    never holds a state the loop has left behind."""

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


def _check_adjoint(adj: Trajectory, u: Control) -> None:
    """ValueError unless adj holds p3 at every level on u's grids."""
    adj.check_every_level("adj", ("p3",))
    if u.values.shape != (adj.nt, adj.grid.nx, adj.grid.ny):
        raise ValueError("adjoint and control time grids do not match")


def reduced_gradient(adj: Trajectory, u: Control, b3: float) -> np.ndarray:
    """Gradient slices p3 + b3*u, with p3 taken at the end level of each interval.

    The duality identity pairs the control slice on [t_k, t_{k+1}) with
    p3 at level k+1; using that level keeps the finite-difference gradient
    check second order in the probe size. ValueError unless adj holds p3 at
    every level of u's grids.
    """
    _check_adjoint(adj, u)
    return adj.p3[1:] + b3 * u.values


def projected_step(adj: Trajectory, u: Control, b3: float, s: float,
                   u_max: float | np.ndarray) -> np.ndarray:
    """The trial control P(u - s*(p3 + b3*u)) of a projected gradient step.

    Bitwise project_admissible(u.values - s * reduced_gradient(adj, u, b3),
    u_max), formed in one new array: fl(u - fl(s*g)) = fl(fl(-s*g) + u),
    and the sum p3 + b3*u is formed in the other order, which IEEE addition
    does not change. ValueError as reduced_gradient.
    """
    _check_adjoint(adj, u)
    values = b3 * u.values
    values += adj.p3[1:]
    values *= -s
    values += u.values
    return np.clip(values, 0.0, u_max, out=values)


def stationarity_residual(u: Control, adj: Trajectory, cs: ControlSpec) -> float:
    """L2(Q) norm of u - P(-p3/b3); zero iff the discrete optimality condition holds.

    ValueError unless adj holds p3 at every level of u's grids.
    """
    _check_adjoint(adj, u)
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
    from the extrapolation in time. Every forward keeps phi, a and sigma
    and every adjoint p3 and p5, and so do result.trajectory and
    result.adjoint. The loop holds 7 field trajectories while an adjoint
    solves and 8 while the line search runs (see the module docstring).
    """
    opts = opts or OptimizeOptions()
    if opts.max_iters < 0:
        raise ValueError(f"max_iters must be at least 0, got {opts.max_iters}")
    cs.validate()
    u = Control(project_admissible(u0.values, cs.u_max), cs.u_max)
    tau = T / nt

    result = OptimizeResult(u_star=u)

    # A forward keeps what cost, the adjoint and the next trial's CG start
    # read: phi, a and sigma.
    def forward(uc: Control, like: Trajectory | None = None) -> Trajectory:
        traj, _ = solve_forward(
            gr, spec, init, uc, T, nt, s_stab=opts.s_stab, flux_scheme=opts.flux_scheme,
            like=like, keep=REPLAY_FIELDS,
        )
        return traj

    traj = forward(u)
    j_cur = cost(traj, u, cs)
    step_size = 1.0 / cs.b3
    adj = None
    for it in range(opts.max_iters + 1):
        # The result holds the state, and so releases the previous one,
        # before the adjoint solves; the previous adjoint, the CG start of
        # the new one, is released once the new one is bound.
        result.u_star, result.trajectory = u, traj
        # An adjoint keeps p3, which the gradient and the stationarity
        # residual read, and p5, which the next adjoint's CG start reads.
        adj = result.adjoint = solve_adjoint(traj, cs, spec, like=adj, keep=("p3", "p5"))
        stat = stationarity_residual(u, adj, cs)
        result.cost_history.append(j_cur)
        result.stationarity_history.append(stat)
        result.iterations = it
        if stat <= opts.tol_stat * (1.0 + control_norm(gr, tau, u.values)):
            result.converged = True
            result.message = "stationarity tolerance reached"
            return result
        if it == opts.max_iters:
            result.message = "iteration budget exhausted"
            return result

        s = step_size
        for bt in range(MAX_BACKTRACKS + 1):
            trial = Control(projected_step(adj, u, cs.b3, s, cs.u_max), cs.u_max)
            step_norm_sq = control_norm(gr, tau, trial.values - u.values) ** 2
            traj_trial = forward(trial, like=traj)
            j_trial = cost(traj_trial, trial, cs)
            if j_trial <= j_cur - ARMIJO_C / max(s, 1e-300) * step_norm_sq:
                u, traj, j_cur = trial, traj_trial, j_trial
                result.step_sizes.append(s)
                result.backtrack_counts.append(bt)
                # Gentle step growth after clean accepts keeps progress fast.
                step_size = min(s * 2.0, 1.0 / cs.b3) if bt == 0 else s
                break
            del trial, traj_trial  # a rejected trial is released before the next is formed
            s *= opts.backtrack
        else:
            result.message = "line search failed after max backtracks"
            return result
