"""Forward simulation walkthrough.

Sets up the five-field tumor model on the unit square, integrates it with
the semi-implicit scheme, and inspects the structural monitors: the
sigma bounds, positivity of the vasculature fraction, the mean-value ODE
residual of the phase field, and the free-energy series.

Run:  python demos/01_forward_simulation.py
"""

import numpy as np

from chks import (
    FORWARD_FIELDS,
    Control,
    Grid,
    InitialData,
    ModelSpec,
    PotentialSpec,
    ProliferationSpec,
    check_mean_ode,
    energy,
    solve_forward,
)

grid = Grid(nx=32, ny=32, lx=1.0, ly=1.0)
x, y = grid.cell_centers()

# A tumor blob in the middle, healthy tissue around it; vasculature and
# signal fields start smooth, the nutrient at rest.
model = ModelSpec(
    m=1.0,
    chi_phi=0.3,
    chi_a=0.5,
    c_phi=0.2,
    c_n=-1.0,
    c_sigma=0.3,
    c_0=0.0,
    pot=PotentialSpec("regular", c1=1.0),
    prolif=ProliferationSpec("logistic", h0=0.5, k=2.0),
)
r2 = (x - 0.5) ** 2 + (y - 0.5) ** 2
init = InitialData(
    phi0=0.2 + 0.6 * np.exp(-60.0 * r2),
    a0=0.8 + 0.1 * np.cos(np.pi * x) * np.cos(np.pi * y),
    n0=np.zeros(grid.shape),
    sigma0=0.5 + 0.3 * np.cos(np.pi * x),
)

# A constant medication dose on the first half of the horizon.
T, nt = 0.5, 64
u_values = np.zeros((nt, grid.nx, grid.ny))
u_values[: nt // 2] = 0.4
control = Control(u_values, u_max=1.0)

# energy reads every unknown, so the solve keeps them all at every level;
# a plain solve keeps phi, a and sigma, what the derivative sweeps read.
traj, report = solve_forward(grid, model, init, control, T, nt, keep=FORWARD_FIELDS)

# The report holds per-level monitors; the ranges are their extremes.
print("forward run complete")
print(f"  sigma range       [{report.sigma_min.min():+.3e}, {report.sigma_max.max():.6f}]"
      "  (stays in [0, 1])")
print(f"  min a             {report.a_min.min():+.6f}")
print(f"  phi range         [{traj.phi.min():.4f}, {traj.phi.max():.4f}]")
print(f"  mean-ODE residual {check_mean_ode(traj, model):.3e}  (O(tau) by construction)")
print(f"  clamp events      {report.clamp_events.sum()}")

print("\n energy along the run (should relax smoothly):")
for k in range(0, nt + 1, 8):
    print(f"  t = {traj.times[k]:.3f}   E = {energy(traj, k, model):+.6f}   "
          f"mean(phi) = {report.mean_phi[k]:.5f}")

# Trajectories can be persisted in the snapshot format for later analysis.
from chks.fields_io import write_trajectory

# Every eighth level, each under its own step number.
for k in range(0, nt + 1, nt // 8):
    write_trajectory("out_demo_forward", grid,
                     {"phi": traj.phi[k:k + 1], "sigma": traj.sigma[k:k + 1]}, start=k)
print("\nwrote phi/sigma snapshots to out_demo_forward/")
