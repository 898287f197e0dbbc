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

The sweep steps in place on a ring of three levels (see Trajectory), level
k in slot k mod 3: step k reads level k and writes level k + 1 into the
slot of level k - 2. The tracking cost reads phi only, so the duality
identity pairs its misfit with psi alone, the phi part of the tangent.
solve_linearized thus keeps psi at every level, one (Nt+1, nx, ny) array,
and the other four unknowns only in the ring, whatever Nt. Its on_level
hook sees each level of the ring as it is finished; tangent_trajectory,
which keeps every unknown at every level for the Taylor rows, is that hook
copying each level out, so one sweep serves both.

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

from collections.abc import Callable

import numpy as np

from . import grid as g
from .grid import Grid
from .state import (
    Control,
    InitialData,
    ModelSpec,
    Trajectory,
    solve_forward,
    trajectory_distance,
)

TANGENT_FIELDS = ("psi", "eta", "alpha_lin", "nu", "omega")


class TangentPsi(np.ndarray):
    """psi at levels 0 .. Nt, one (Nt+1, nx, ny) array, as solve_linearized
    returns it. grid and nt name the sweep it came from, as a Trajectory's
    do: the benchmark's tracer reads them off each sweep's result. An
    index, arithmetic or a reduction on it gives a plain ndarray or scalar,
    without them.
    """

    grid: Grid
    nt: int

    def __array_wrap__(self, obj, context=None, return_scalar=False):
        obj = obj.view(np.ndarray)
        return obj[()] if return_scalar else obj

    def __getitem__(self, key):
        return self.view(np.ndarray)[key]


def solve_linearized(
    base: Trajectory, spec: ModelSpec, h: np.ndarray,
    on_level: Callable[[Trajectory, int], None] | None = None,
) -> TangentPsi:
    """Solve the linearized system along direction h (shape (Nt, nx, ny))
    and return psi at every level, one (Nt+1, nx, ny) array whose level 0
    is zero.

    The sweep runs on a ring of three levels (see the module docstring).
    Level k + 1 of psi is copied out of the ring once advance has checked
    it. base must hold every level: ValueError otherwise.

    on_level(ring, k), if given, is called once for each level
    k = 0 .. Nt, in order, and may read level k of the ring only: for
    k < Nt inside step k, on the calling thread ahead of its psi/eta -> nu
    chain, and for Nt after the last step; step k writes level k + 1 into
    the slot of level k - 2. on_level must not write into the ring, and an
    error it raises ends the solve. After a SolverError at step j it has
    seen levels 0 .. j.
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

    ring = Trajectory.zeros(gr, base.times, TANGENT_FIELDS, ring=True,
                            s_stab=s_stab, flux_scheme=scheme)
    psi_levels = np.zeros((nt + 1, gr.nx, gr.ny)).view(TangentPsi)
    psi_levels.grid, psi_levels.nt = gr, nt
    inv_tau = 1.0 / tau
    tau_eff = 1.0 / (inv_tau + spec.m)
    # Right-hand sides are updated in place on fresh arrays, such as the
    # results of h_prime and f_second. The kernels scan nothing: the base
    # levels were checked by the forward sweep and h on entry, and the five
    # outputs are checked at the end of each step.

    def phase(k: int, old: int, new: int) -> None:
        """psi, eta and nu at level k + 1 (slot new) from psi, nu and omega
        at level k (slot old)."""
        if on_level is not None:
            on_level(ring, k)
        phi_k = base.phi[k]
        psi, nu, omega = ring.psi[old], ring.nu[old], ring.omega[old]

        # psi/eta block: derivative of the stabilized phase-field step.
        rhs_psi = spec.prolif.h_prime(phi_k)
        rhs_psi += inv_tau
        rhs_psi *= psi
        rhs_psi -= spec.chi_phi * g.laplacian(gr, nu)
        rhs_eta = spec.pot.f_second(phi_k)
        np.subtract(s_stab, rhs_eta, out=rhs_eta)
        rhs_eta *= psi
        ring.psi[new], ring.eta[new] = g.ch_block_solve(gr, rhs_psi, rhs_eta, tau_eff, s_stab)

        # nu: new psi enters, the rest explicit.
        rhs_nu = nu * (inv_tau + spec.c_n)
        rhs_nu += (spec.chi_phi + spec.c_phi) * ring.psi[new]
        rhs_nu += spec.c_sigma * omega
        ring.nu[new] = g.helmholtz_direct(gr, rhs_nu, inv_tau)

    def chemotaxis(k: int, old: int, new: int) -> None:
        """omega and alpha at level k + 1 (slot new) from omega and alpha at
        levels up to k (level k in slot old)."""
        a_k = base.a[k]
        sigma_new = base.sigma[k + 1]
        alpha, omega = ring.alpha_lin[old], ring.omega[old]

        # omega: same implicit operator as the forward sigma update, its CG
        # started from the extrapolation of the stored levels.
        rhs_omega = omega * inv_tau
        rhs_omega += (spec.chi_a - sigma_new) * alpha
        ring.omega[new] = g.helmholtz_cg(
            gr, rhs_omega, (inv_tau + 1.0) + a_k, ring.extrapolate("omega", k)
        )

        # alpha: linearized chemotaxis flux against the base, new omega, with
        # the upwind donor cells of the base sigma; alpha/tau + (1 - 2 a*)
        # alpha is formed as ((1/tau + 1) - 2 a*) alpha.
        rhs_alpha = g.divergence(gr, alpha, sigma_new, scheme)
        rhs_alpha += g.divergence(gr, a_k, ring.omega[new], scheme, upwind_by=sigma_new)
        rhs_alpha *= -spec.chi_a
        rhs_alpha += ((inv_tau + 1.0) - 2.0 * a_k) * alpha
        rhs_alpha += h[k]
        ring.alpha_lin[new] = g.helmholtz_direct(gr, rhs_alpha, inv_tau)

    for k in range(nt):
        old, new = ring.slot(k), ring.slot(k + 1)
        ring.advance("tangent", k, lambda: phase(k, old, new), lambda: chemotaxis(k, old, new))
        psi_levels[k + 1] = ring.psi[new]
    if on_level is not None:
        on_level(ring, nt)
    return psi_levels


def tangent_trajectory(base: Trajectory, spec: ModelSpec, h: np.ndarray) -> Trajectory:
    """Every tangent unknown at every level along direction h, as a
    Trajectory that records the base's s_stab and flux scheme.

    This is solve_linearized with an on_level hook that copies each level
    out of the ring, so its levels are bitwise the sweep's; taylor_remainders
    and any check of eta, alpha_lin, nu or omega read it. base must hold
    every level: ValueError otherwise.
    """
    lin = Trajectory.zeros(base.grid, base.times, TANGENT_FIELDS,
                           s_stab=base.s_stab, flux_scheme=base.flux_scheme)

    def keep(ring: Trajectory, k: int) -> None:
        lin.data[:, k] = ring.data[:, ring.slot(k)]

    solve_linearized(base, spec, h, keep)
    return lin


def taylor_remainders(
    base_traj: Trajectory,
    spec: ModelSpec,
    init: InitialData,
    u: Control,
    h: np.ndarray,
    epsilons: list[float],
) -> list[float]:
    """Remainders ||S(u + eps*h) - S(u) - eps*lin(h)|| for a sweep of eps.

    base_traj is S(u), and lin(h) is every tangent unknown at every level
    (tangent_trajectory), which trajectory_distance pairs with the forward
    unknowns by position. The perturbed runs reuse base_traj's grid, step
    count, end time and scheme, and it must hold every level (ValueError
    otherwise). Perturbed controls must stay admissible; callers pick u
    interior to the box and eps*h small enough.
    """
    gr = base_traj.grid
    lin = tangent_trajectory(base_traj, spec, h)
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
