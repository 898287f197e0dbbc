"""Directional derivative of the control-to-state map.

Given a stored forward trajectory and a control direction h, this solver
advances the linearized quintuple (psi, eta, alpha, nu, omega) with zero
initial data:

    dt psi - Lap eta = -chi_phi * Lap nu - m*psi + h'(phi*) psi
    eta = -Lap psi + F''(phi*) psi
    dt alpha - Lap alpha = -chi_a div(alpha grad sigma* + a* grad omega)
                           + alpha - 2 a* alpha + h
    dt nu - Lap nu = (chi_phi + c_phi) psi + c_n nu + c_sigma omega
    dt omega - Lap omega = -omega + chi_a alpha - alpha sigma* - a* omega

The discretization is the exact derivative of the forward IMEX map: same
implicit operators, same update ordering (psi -> nu -> omega -> alpha),
with every coefficient frozen from the base trajectory at the level the
forward step used for the corresponding term. That congruence is what
makes the Taylor remainder of the forward map second order in the
direction size. Like the forward sweep, step k reads stored level k of
the returned Trajectory and writes level k + 1 in place; the returned
Trajectory records the base's s_stab and flux scheme.

Like the forward step, a tangent step is two chains that share no level
they write, which Trajectory.advance runs, naming the step in any error:

- psi/eta -> nu reads the base phi at level k and psi, nu and omega at
  level k, and writes psi, eta and nu at level k + 1;
- omega -> alpha reads the base a at level k and sigma at level k + 1,
  omega and alpha at level k (omega also at k - 1, for the CG start) and
  h[k], and writes omega and alpha at level k + 1.

taylor_remainders reads the grid, the step count and the end time from the
base trajectory it is given.
"""

from __future__ import annotations

import numpy as np

from . import grid as g
from .state import (
    Control,
    InitialData,
    ModelSpec,
    Trajectory,
    solve_forward,
    trajectory_distance,
)


def solve_linearized(base: Trajectory, spec: ModelSpec, h: np.ndarray) -> Trajectory:
    """Solve the linearized system along direction h (shape (Nt, nx, ny)).

    base must hold every level: ValueError otherwise.
    """
    base.check_every_level("base")
    gr = base.grid
    nt = base.nt
    if h.shape != (nt, gr.nx, gr.ny):
        raise ValueError("direction shape must match the control layout (nt, nx, ny)")
    if not -np.inf < h.min() <= h.max() < np.inf:
        raise ValueError("direction h contains non-finite values")
    tau = base.tau
    s_stab = base.s_stab
    scheme = base.flux_scheme

    out = Trajectory.zeros(
        gr, base.times, ("psi", "eta", "alpha_lin", "nu", "omega"),
        s_stab=s_stab, flux_scheme=scheme,
    )
    inv_tau = 1.0 / tau
    tau_eff = 1.0 / (inv_tau + spec.m)
    # Right-hand sides are updated in place on fresh arrays, such as the
    # results of h_prime and f_second. The kernels scan nothing: the base
    # levels were checked by the forward sweep and h on entry, and the five
    # outputs are checked at the end of each step.

    def phase(k: int) -> None:
        """psi, eta and nu at level k + 1 from psi, nu and omega at level k."""
        phi_k = base.phi[k]
        psi, nu, omega = out.psi[k], out.nu[k], out.omega[k]

        # psi/eta block: derivative of the stabilized phase-field step.
        rhs_psi = spec.prolif.h_prime(phi_k)
        rhs_psi += inv_tau
        rhs_psi *= psi
        rhs_psi -= spec.chi_phi * g.laplacian(gr, nu)
        rhs_eta = spec.pot.f_second(phi_k)
        np.subtract(s_stab, rhs_eta, out=rhs_eta)
        rhs_eta *= psi
        out.psi[k + 1], out.eta[k + 1] = g.ch_block_solve(gr, rhs_psi, rhs_eta, tau_eff, s_stab)

        # nu: new psi enters, the rest explicit.
        rhs_nu = nu * (inv_tau + spec.c_n)
        rhs_nu += (spec.chi_phi + spec.c_phi) * out.psi[k + 1]
        rhs_nu += spec.c_sigma * omega
        out.nu[k + 1] = g.helmholtz_direct(gr, rhs_nu, inv_tau)

    def chemotaxis(k: int) -> None:
        """omega and alpha at level k + 1 from omega and alpha at levels up to k."""
        a_k = base.a[k]
        sigma_new = base.sigma[k + 1]
        alpha, omega = out.alpha_lin[k], out.omega[k]

        # omega: same implicit operator as the forward sigma update, its CG
        # started from the extrapolation of the stored levels.
        rhs_omega = omega * inv_tau
        rhs_omega += (spec.chi_a - sigma_new) * alpha
        out.omega[k + 1] = g.helmholtz_cg(
            gr, rhs_omega, (inv_tau + 1.0) + a_k, out.extrapolate("omega", k)
        )

        # alpha: linearized chemotaxis flux against the base, new omega, with
        # the upwind donor cells of the base sigma; alpha/tau + (1 - 2 a*)
        # alpha is formed as ((1/tau + 1) - 2 a*) alpha.
        rhs_alpha = g.divergence(gr, alpha, sigma_new, scheme)
        rhs_alpha += g.divergence(gr, a_k, out.omega[k + 1], scheme, upwind_by=sigma_new)
        rhs_alpha *= -spec.chi_a
        rhs_alpha += ((inv_tau + 1.0) - 2.0 * a_k) * alpha
        rhs_alpha += h[k]
        out.alpha_lin[k + 1] = g.helmholtz_direct(gr, rhs_alpha, inv_tau)

    for k in range(nt):
        out.advance("tangent", k, lambda: phase(k), lambda: chemotaxis(k))
    return out


def taylor_remainders(
    base_traj: Trajectory,
    spec: ModelSpec,
    init: InitialData,
    u: Control,
    h: np.ndarray,
    epsilons: list[float],
) -> list[float]:
    """Remainders ||S(u + eps*h) - S(u) - eps*lin(h)|| for a sweep of eps.

    base_traj is S(u); the perturbed runs reuse its grid, step count, end
    time and scheme, and it must hold every level (ValueError otherwise).
    Perturbed controls must stay admissible; callers pick u interior to the
    box and eps*h small enough.
    """
    gr = base_traj.grid
    lin = solve_linearized(base_traj, spec, h)
    remainders = []
    for eps in epsilons:
        u_eps = Control(u.values + eps * h, u.u_max)
        traj_eps, _ = solve_forward(
            gr, spec, init, u_eps, float(base_traj.times[-1]), base_traj.nt,
            s_stab=base_traj.s_stab, flux_scheme=base_traj.flux_scheme,
        )
        predicted = Trajectory(gr, base_traj.times, base_traj.names,
                               base_traj.data + eps * lin.data)
        remainders.append(trajectory_distance(traj_eps, predicted))
    return remainders
