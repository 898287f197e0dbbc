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

The sweep stores the unknowns its caller keeps (see Trajectory.zeros). The
tracking cost reads phi only, so the duality identity pairs its misfit with
psi alone, the phi part of the tangent: by default solve_linearized keeps
psi at every level and steps on a ring of three levels, level k in slot
k mod 3, which holds the other four unknowns whatever Nt. The Taylor rows,
and any check of eta, alpha_lin, nu or omega, keep TANGENT_FIELDS, and the
sweep then steps in place on one stored trajectory.

Like the forward step, a tangent step is two chains (k, old, new) that
share no level they write, which Trajectory.advance runs, naming the step
in any error:

- psi/eta -> nu reads the base phi at level k and psi, nu and omega at
  old, and writes psi, eta and nu at new;
- omega -> alpha reads the base a at level k and sigma at level k + 1,
  omega and alpha at old (omega also one level behind, for the CG start)
  and h[k], and writes omega and alpha at new.

taylor_remainders reads the grid, the step count and the end time from the
base trajectory it is given.
"""

from __future__ import annotations

import numpy as np

from . import grid as g
from .state import (
    FORWARD_FIELDS,
    Control,
    InitialData,
    ModelSpec,
    Trajectory,
    solve_forward,
    trajectory_distance,
)

TANGENT_FIELDS = ("psi", "eta", "alpha_lin", "nu", "omega")


def solve_linearized(
    base: Trajectory, spec: ModelSpec, h: np.ndarray, keep=("psi",)
) -> Trajectory:
    """Solve the linearized system along direction h (shape (Nt, nx, ny))
    and return the unknowns in keep at every level, level 0 zero, as a
    Trajectory that records the base's s_stab and flux scheme.

    With every unknown in keep (TANGENT_FIELDS) the sweep steps in place on
    the returned trajectory; with fewer it steps on a ring of three levels
    (see the module docstring), and advance copies each level of keep out
    of the ring once it has checked it. base must hold phi, a and sigma at
    every level, and keep may name only tangent unknowns: ValueError
    otherwise.
    """
    base.check_every_level("base", ("phi", "a", "sigma"))
    gr = base.grid
    nt = base.nt
    if h.shape != (nt, gr.nx, gr.ny):
        raise ValueError("direction shape must match the control layout (nt, nx, ny)")
    if not -np.inf < h.min() <= h.max() < np.inf:
        raise ValueError("direction h contains non-finite values")
    tau = base.tau
    s_stab = base.s_stab
    scheme = base.flux_scheme

    lin = Trajectory.zeros(gr, base.times, TANGENT_FIELDS, keep,
                           s_stab=s_stab, flux_scheme=scheme)
    inv_tau = 1.0 / tau
    tau_eff = 1.0 / (inv_tau + spec.m)
    # Right-hand sides are updated in place on fresh arrays, such as the
    # results of h_prime and f_second. The kernels scan nothing: the base
    # levels were checked by the forward sweep and h on entry, and the five
    # outputs are checked at the end of each step.

    def phase(k: int, old: int, new: int) -> None:
        """psi, eta and nu at new from psi, nu and omega at old."""
        phi_k = base.phi[k]
        psi, nu, omega = lin.psi[old], lin.nu[old], lin.omega[old]

        # psi/eta block: derivative of the stabilized phase-field step.
        rhs_psi = spec.prolif.h_prime(phi_k)
        rhs_psi += inv_tau
        rhs_psi *= psi
        rhs_psi -= spec.chi_phi * g.laplacian(gr, nu)
        rhs_eta = spec.pot.f_second(phi_k)
        np.subtract(s_stab, rhs_eta, out=rhs_eta)
        rhs_eta *= psi
        lin.psi[new], lin.eta[new] = g.ch_block_solve(gr, rhs_psi, rhs_eta, tau_eff, s_stab)

        # nu: new psi enters, the rest explicit.
        rhs_nu = nu * (inv_tau + spec.c_n)
        rhs_nu += (spec.chi_phi + spec.c_phi) * lin.psi[new]
        rhs_nu += spec.c_sigma * omega
        lin.nu[new] = g.helmholtz_direct(gr, rhs_nu, inv_tau)

    def chemotaxis(k: int, old: int, new: int) -> None:
        """omega and alpha at new from omega and alpha at old and behind."""
        a_k = base.a[k]
        sigma_new = base.sigma[k + 1]
        alpha, omega = lin.alpha_lin[old], lin.omega[old]

        # omega: same implicit operator as the forward sigma update, its CG
        # started from the extrapolation of the stored levels.
        rhs_omega = omega * inv_tau
        rhs_omega += (spec.chi_a - sigma_new) * alpha
        lin.omega[new] = g.helmholtz_cg(
            gr, rhs_omega, (inv_tau + 1.0) + a_k, lin.extrapolate("omega", k)
        )

        # alpha: linearized chemotaxis flux against the base, new omega, with
        # the upwind donor cells of the base sigma; alpha/tau + (1 - 2 a*)
        # alpha is formed as ((1/tau + 1) - 2 a*) alpha.
        rhs_alpha = g.divergence(gr, alpha, sigma_new, scheme)
        rhs_alpha += g.divergence(gr, a_k, lin.omega[new], scheme, upwind_by=sigma_new)
        rhs_alpha *= -spec.chi_a
        rhs_alpha += ((inv_tau + 1.0) - 2.0 * a_k) * alpha
        rhs_alpha += h[k]
        lin.alpha_lin[new] = g.helmholtz_direct(gr, rhs_alpha, inv_tau)

    for k in range(nt):
        lin.advance("tangent", k, phase, chemotaxis)
    return lin.kept


def taylor_remainders(
    base_traj: Trajectory,
    spec: ModelSpec,
    init: InitialData,
    u: Control,
    h: np.ndarray,
    epsilons: list[float],
) -> list[float]:
    """Remainders ||S(u + eps*h) - S(u) - eps*lin(h)|| for a sweep of eps.

    base_traj is S(u), and lin(h) is the tangent along h with every unknown
    kept (TANGENT_FIELDS), whose unknowns pair with the forward ones by
    position. The perturbed runs reuse base_traj's grid, step count, end
    time and scheme, and it must hold every forward unknown at every level
    (ValueError otherwise). Perturbed controls must stay admissible; callers pick u
    interior to the box and eps*h small enough.
    """
    base_traj.check_every_level("base", FORWARD_FIELDS)
    gr = base_traj.grid
    lin = solve_linearized(base_traj, spec, h, TANGENT_FIELDS)
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
