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
direction size.
"""

from __future__ import annotations

import numpy as np

from . import grid as g
from .grid import Grid, SolverError
from .state import (
    Control,
    InitialData,
    ModelSpec,
    Trajectory,
    solve_forward,
    trajectory_distance,
)


def solve_linearized(base: Trajectory, spec: ModelSpec, h: np.ndarray) -> Trajectory:
    """Solve the linearized system along direction h (shape (Nt, nx, ny))."""
    gr = base.grid
    nt = base.nt
    if h.shape != (nt, gr.nx, gr.ny):
        raise ValueError("direction shape must match the control layout (nt, nx, ny)")
    tau = base.tau
    s_stab = base.s_stab
    scheme = base.flux_scheme

    out = Trajectory.zeros(gr, base.times, ("psi", "eta", "alpha_lin", "nu", "omega"))
    psi = np.zeros(gr.shape)
    alpha = np.zeros(gr.shape)
    nu = np.zeros(gr.shape)
    omega = np.zeros(gr.shape)

    inv_tau = 1.0 / tau
    tau_eff = 1.0 / (inv_tau + spec.m)
    for k in range(nt):
        phi_k = base.phi[k]
        a_k = base.a[k]
        sigma_new = base.sigma[k + 1]
        # Right-hand sides are updated in place on fresh arrays, such as the
        # results of h_prime and f_second. The kernels skip their finiteness
        # scans: the base levels were checked by the forward sweep, and a
        # non-finite value from h reaches an output, all five of which are
        # checked at the end of the step.

        # psi/eta block: derivative of the stabilized phase-field step.
        rhs_psi = spec.prolif.h_prime(phi_k)
        rhs_psi += inv_tau
        rhs_psi *= psi
        rhs_psi -= spec.chi_phi * g.laplacian(gr, nu, check_finite=False)
        rhs_eta = spec.pot.f_second(phi_k)
        np.subtract(s_stab, rhs_eta, out=rhs_eta)
        rhs_eta *= psi
        psi_new, eta_new = g.ch_block_solve(
            gr, rhs_psi, rhs_eta, tau_eff, s_stab, check_finite=False
        )

        # nu: new psi enters, the rest explicit.
        rhs_nu = nu * (inv_tau + spec.c_n)
        rhs_nu += (spec.chi_phi + spec.c_phi) * psi_new
        rhs_nu += spec.c_sigma * omega
        nu_new = g.helmholtz_solve(gr, rhs_nu, inv_tau, 1.0, check_finite=False)

        # omega: same implicit operator as the forward sigma update, its CG
        # started from the linear extrapolation of the stored levels.
        rhs_omega = omega * inv_tau
        rhs_omega += (spec.chi_a - sigma_new) * alpha
        omega_new = g.helmholtz_solve(
            gr, rhs_omega, (inv_tau + 1.0) + a_k, 1.0,
            omega if k == 0 else 2.0 * omega - out.omega[k - 1], check_finite=False,
        )

        # alpha: linearized chemotaxis flux against the base, new omega, with
        # the upwind donor cells of the base sigma; alpha/tau + (1 - 2 a*)
        # alpha is formed as ((1/tau + 1) - 2 a*) alpha.
        rhs_alpha = g.divergence(gr, alpha, sigma_new, scheme, check_finite=False)
        rhs_alpha += g.divergence(
            gr, a_k, omega_new, scheme, upwind_by=sigma_new, check_finite=False
        )
        rhs_alpha *= -spec.chi_a
        rhs_alpha += ((inv_tau + 1.0) - 2.0 * a_k) * alpha
        rhs_alpha += h[k]
        alpha_new = g.helmholtz_solve(gr, rhs_alpha, inv_tau, 1.0, check_finite=False)

        psi, eta, nu, omega, alpha = psi_new, eta_new, nu_new, omega_new, alpha_new
        for f in (psi, eta, alpha, nu, omega):
            if not np.isfinite(f).all():
                raise SolverError(f"non-finite linearized state after step {k}")
        out.psi[k + 1] = psi
        out.eta[k + 1] = eta
        out.alpha_lin[k + 1] = alpha
        out.nu[k + 1] = nu
        out.omega[k + 1] = omega
    return out


def taylor_remainders(
    gr: Grid,
    spec: ModelSpec,
    base_traj: Trajectory,
    init: InitialData,
    u: Control,
    h: np.ndarray,
    epsilons: list[float],
    T: float,
    nt: int,
) -> list[float]:
    """Remainders ||S(u + eps*h) - S(u) - eps*lin(h)|| for a sweep of eps.

    Perturbed controls must stay admissible; callers pick u interior to the
    box and eps*h small enough.
    """
    lin = solve_linearized(base_traj, spec, h)
    remainders = []
    for eps in epsilons:
        u_eps = Control(u.values + eps * h, u.u_max)
        traj_eps, _ = solve_forward(
            gr, spec, init, u_eps, T, nt,
            s_stab=base_traj.s_stab, flux_scheme=base_traj.flux_scheme,
        )
        predicted = Trajectory(gr, base_traj.times, {
            name: f + eps * df
            for (name, f), df in zip(base_traj.fields.items(), lin.fields.values())
        })
        remainders.append(trajectory_distance(traj_eps, predicted))
    return remainders
