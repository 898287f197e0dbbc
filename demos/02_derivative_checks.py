"""Derivative machinery walkthrough: linearized solver, adjoint solver,
and the three consistency checks that tie them together.

1. Taylor test: || S(u + eps*h) - S(u) - eps*lin(h) || decays at second
   order in eps, so lin(h) really is the directional derivative of the
   control-to-state map.
2. Duality identity: int_Q h*p3 matches the tracking terms paired with
   the linearized phase field, up to an O(tau) residual that halves when
   the step count doubles.
3. Gradient check: the reduced gradient p3 + b3*u against central finite
   differences of the full cost.

Run:  python demos/02_derivative_checks.py
"""

import numpy as np

from chks import (
    FORWARD_FIELDS,
    Control,
    ControlSpec,
    Grid,
    InitialData,
    ModelSpec,
    PotentialSpec,
    ProliferationSpec,
    cost,
    duality_residual,
    inner,
    reduced_gradient,
    solve_adjoint,
    solve_forward,
    solve_linearized,
)
from chks.linearized import taylor_remainders

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

u = Control(0.5 * np.ones((nt, grid.nx, grid.ny)), u_max=1.0)
# The Taylor test compares every forward unknown, so this solve keeps them all.
traj, _ = solve_forward(grid, model, init, u, T, nt, keep=FORWARD_FIELDS)

# A smooth direction, coherent in time, with a nonzero spatial mean so
# the probed functionals are well away from zero.
pattern = 0.5 + 0.5 * np.cos(np.pi * x) * np.cos(np.pi * y)
profile = np.sin(np.pi * (np.arange(nt) + 0.5) * tau / T)
h = profile[:, None, None] * pattern[None]

print("1) Taylor test (expect order ~2):")
eps_list = [1e-2, 5e-3, 2.5e-3]
rem = taylor_remainders(traj, model, init, u, h, eps_list)
for i, eps in enumerate(eps_list):
    order = "" if i == 0 else f"   order {np.log2(rem[i-1] / rem[i]):.3f}"
    print(f"   eps = {eps:.4g}   remainder = {rem[i]:.4e}{order}")

print("\n2) Adjoint duality identity (O(tau) residual):")
phi_q = 0.5 * np.ones((nt, grid.nx, grid.ny))
phi_omega = 0.5 + 0.2 * np.cos(np.pi * x) * np.cos(np.pi * y)
for factor in (1, 2):
    n = nt * factor
    uf = Control(np.repeat(u.values, factor, axis=0), 1.0)
    hf = np.repeat(h, factor, axis=0)
    cs = ControlSpec(b1=1.0, b2=1.0, b3=1e-3,
                     phi_q=np.repeat(phi_q, factor, axis=0),
                     phi_omega=phi_omega, u_max=1.0)
    trajf, _ = solve_forward(grid, model, init, uf, T, n)
    adj = solve_adjoint(trajf, cs, model)
    lin = solve_linearized(trajf, model, hf)
    print(f"   Nt = {n:3d}   residual = {duality_residual(trajf, adj, hf, lin, cs):.4e}")

print("\n3) Reduced gradient vs central finite differences:")
cs = ControlSpec(b1=1.0, b2=1.0, b3=1e-3, phi_q=phi_q, phi_omega=phi_omega, u_max=1.0)
adj = solve_adjoint(traj, cs, model)
grad = reduced_gradient(adj, u, cs.b3)
eps = 1e-4
directional = tau * inner(grid, grad, h)
up = Control(u.values + eps * h, 1.0)
um = Control(u.values - eps * h, 1.0)
tp, _ = solve_forward(grid, model, init, up, T, nt)
tm, _ = solve_forward(grid, model, init, um, T, nt)
fd = (cost(tp, up, cs) - cost(tm, um, cs)) / (2 * eps)
print(f"   adjoint   {directional:+.10e}")
print(f"   central   {fd:+.10e}")
print(f"   rel error {abs(directional - fd) / abs(fd):.3e}")
