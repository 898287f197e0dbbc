"""Optimal control walkthrough: recover a stationary control by projected
gradient descent on a tracking cost with a box constraint.

Targets are produced by an inverse crime: a forward run with a known
admissible dose generates phi_Q and phi_Omega, then the optimizer starts
from a different dose. Because the problem is nonconvex, the result is a
stationary point of the cost, not necessarily the generating control;
what is checked is the projection identity u* = P(-p3/b3).

Run:  python demos/03_optimal_control.py
"""

import numpy as np

from chks import (
    Control,
    ControlSpec,
    Grid,
    InitialData,
    ModelSpec,
    OptimizeOptions,
    PotentialSpec,
    ProliferationSpec,
    inner,
    optimize,
    reduced_gradient,
    solve_forward,
    stationarity_residual,
)
from chks.control_opt import control_norm

grid = Grid(16, 16)
x, y = grid.cell_centers()
model = ModelSpec(
    m=1.0, chi_phi=0.8, chi_a=0.8, c_phi=0.5, c_n=-1.0, c_sigma=0.8, c_0=0.1,
    pot=PotentialSpec("regular", c1=1.0),
    prolif=ProliferationSpec("logistic", h0=0.5, k=2.0),
)
init = InitialData(
    phi0=0.5 + 0.2 * np.cos(np.pi * x) * np.cos(np.pi * y),
    a0=0.7 + 0.2 * np.cos(np.pi * y),
    n0=np.zeros(grid.shape),
    sigma0=0.5 + 0.3 * np.cos(np.pi * x),
)
T, nt = 0.5, 32
tau = T / nt

# Inverse crime: the "clinical targets" come from a known dose.
u_true = Control(
    np.repeat((0.6 + 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y))[None], nt, axis=0),
    u_max=1.0,
)
traj_true, _ = solve_forward(grid, model, init, u_true, T, nt)
cs = ControlSpec(
    b1=1.0, b2=1.0, b3=1e-4,
    phi_q=traj_true.phi[1:].copy(),
    phi_omega=traj_true.phi[nt].copy(),
    u_max=1.0,
)

u0 = Control(0.2 * np.ones((nt, grid.nx, grid.ny)), u_max=1.0)
result = optimize(
    grid, model, init, cs, u0, T, nt,
    OptimizeOptions(tol_stat=1e-9, max_iters=100),
)

print(f"converged:  {result.converged} after {result.iterations} iterations")
print("cost history:")
for i, (j, s) in enumerate(zip(result.cost_history, result.stationarity_history)):
    print(f"   iter {i}: J = {j:.6e}   stationarity = {s:.3e}")

stat = stationarity_residual(result.u_star, result.adjoint, cs)
print(f"\nprojection identity defect ||u* - P(-p3/b3)|| = {stat:.3e}")

# Spot-check the variational inequality against random admissible doses.
grad = reduced_gradient(result.adjoint, result.u_star, cs.b3)
rng = np.random.default_rng(0)
worst = np.inf
for _ in range(20):
    utest = rng.uniform(0.0, 1.0, result.u_star.values.shape)
    vi = tau * inner(grid, grad, utest - result.u_star.values)
    worst = min(worst, vi / control_norm(grid, tau, utest - result.u_star.values))
print(f"worst normalized variational-inequality value over 20 samples: {worst:.3e}")
print("(nonnegative up to round-off at a stationary point)")
