"""Backward-in-time adjoint system for the tracking cost.

The adjoint quintuple (p1, ..., p5) pairs with (phi, mu, a, n, sigma) and
solves, backward from T with final data p1(T) = b2*(phi*(T) - phi_Omega)
and (p3, p4, p5)(T) = 0:

    -dt p1 - Lap p2 + (m - h'(phi*)) p1 + F''(phi*) p2 - (chi_phi + c_phi) p4
        = b1 (phi* - phi_Q)
    p2 = -Lap p1
    -dt p3 - Lap p3 - chi_a grad(sigma*).grad(p3) + (2 a* - 1) p3
        + (sigma* - chi_a) p5 = 0
    -dt p4 - Lap p4 - c_n p4 + chi_phi Lap p1 = 0
    -dt p5 - Lap p5 + chi_a div(a* grad p3) + (1 + a*) p5 - c_sigma p4 = 0

This is the continuous adjoint system discretized to transpose the
forward IMEX sweep as closely as possible (update order a -> sigma -> n
-> phi/mu, the reverse of the forward order; coefficient freezing levels
chosen adjoint-consistent with the forward freezing). It is deliberately
not the exact transpose of the discrete forward map: the final condition
is imposed in its clean continuous form, and the stabilization terms of
the phase-field block are dropped from the (p1, p2) pair, so the duality
identity

    int_Q h p3 = b1 int_Q (phi* - phi_Q) psi + b2 int_Om (phi*(T) - phi_Om) psi(T)

holds with an O(tau) residual, which duality_residual quantifies.

The advective term grad(sigma*).grad(p3) is evaluated with centered face
gradients and averaged back to cell centers (grid.grad_dot), and
div(a* grad p3) with the centered face mean of a*; no upwinding in the
adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as g
from .grid import SolverError
from .potentials import AdmissibilityError
from .state import ModelSpec, Trajectory


@dataclass
class ControlSpec:
    """Cost weights, tracking targets and the control box bound.

    phi_q has shape (Nt, nx, ny); slice k is the running target on the
    step interval ending at t_{k+1}. phi_omega is the final-time target.
    """

    b1: float
    b2: float
    b3: float
    phi_q: np.ndarray
    phi_omega: np.ndarray
    u_max: float | np.ndarray = 1.0

    def validate(self) -> None:
        # Written so that a NaN fails each test; u_max may be infinite.
        if not (0 <= self.b1 < np.inf and 0 <= self.b2 < np.inf):
            raise AdmissibilityError("(6.3): b1 and b2 must be finite and nonnegative")
        if not 0 < self.b3 < np.inf:
            raise AdmissibilityError("(6.3): b3 must be finite and positive")
        if not np.min(self.u_max) >= 0:
            raise AdmissibilityError("(6.4): u_max must be nonnegative, not NaN")


def solve_adjoint(base: Trajectory, cost: ControlSpec, spec: ModelSpec) -> Trajectory:
    """Backward sweep from step Nt to 0; see the module docstring."""
    gr = base.grid
    nt = base.nt
    tau = base.tau
    cost.validate()
    if cost.phi_q.shape != (nt, gr.nx, gr.ny):
        raise ValueError("phi_q must have shape (nt, nx, ny)")
    if cost.phi_omega.shape != gr.shape:
        raise ValueError("phi_omega must match the grid shape")

    adj = Trajectory.zeros(gr, base.times, ("p1", "p2", "p3", "p4", "p5"))
    p1_final = cost.b2 * (base.phi[nt] - cost.phi_omega)
    p3 = np.zeros(gr.shape)
    p4 = np.zeros(gr.shape)
    p5 = np.zeros(gr.shape)
    adj.p1[nt], adj.p2[nt] = p1_final, -g.laplacian(gr, p1_final)

    inv_tau = 1.0 / tau
    tau_eff = 1.0 / (inv_tau + spec.m)
    s_stab = base.s_stab
    # Weak imposition of the final condition: the final data (and the
    # running misfit sampled on the last interval) enters the sweep
    # through one application of the implicit block, the same way the
    # transpose of the forward map pairs the terminal cost with the last
    # step. Imposing it strongly instead would leave the high modes of
    # the final misfit undamped (an O(tau*lambda^2) error).
    rhs_final = p1_final / tau
    if cost.b1:
        rhs_final = rhs_final + cost.b1 * (base.phi[nt] - cost.phi_q[nt - 1])
    p1, p2 = g.ch_block_solve(gr, rhs_final, None, tau_eff, s_stab, transpose=True)
    for k in range(nt - 1, -1, -1):
        a_k = base.a[k]
        sigma_new = base.sigma[k + 1]
        # Right-hand sides are updated in place on fresh arrays, such as the
        # results of grad_dot, divergence and h_prime. The kernels skip their
        # finiteness scans: the base levels were checked by the forward
        # sweep, and a non-finite value from the targets reaches an output,
        # all five of which are checked at the end of the step.

        # p3: transport source from centered face gradients, reaction
        # explicit; p3/tau + (1 - 2 a*) p3 is formed as ((1/tau + 1) - 2 a*) p3.
        rhs_p3 = g.grad_dot(gr, sigma_new, p3, check_finite=False)
        rhs_p3 *= spec.chi_a
        rhs_p3 += ((inv_tau + 1.0) - 2.0 * a_k) * p3
        rhs_p3 -= (sigma_new - spec.chi_a) * p5
        p3_new = g.helmholtz_solve(gr, rhs_p3, inv_tau, 1.0, check_finite=False)

        # p5: same implicit operator family as the forward sigma update.
        # a* is frozen at level k here; the forward step that produced the
        # level-k sigma froze level k-1, so this choice staggers the
        # coefficient by one step and is the O(tau) gap the duality
        # residual measures.
        rhs_p5 = g.divergence(gr, a_k, p3_new, check_finite=False)
        rhs_p5 *= -spec.chi_a
        rhs_p5 += p5 * inv_tau
        rhs_p5 += spec.c_sigma * p4
        # Its CG starts from the linear extrapolation of the stored levels.
        p5_guess = p5 if k == nt - 1 else 2.0 * p5 - adj.p5[k + 2]
        p5_new = g.helmholtz_solve(
            gr, rhs_p5, (inv_tau + 1.0) + a_k, 1.0, p5_guess, check_finite=False
        )

        # p4: nutrient adjoint with the phase coupling explicit. The second
        # row of the transposed block, -Lap p1 - p2 = 0, makes p2 = -Lap p1,
        # so -chi_phi Lap p1 is read as chi_phi p2 (equal up to round-off).
        rhs_p4 = spec.chi_phi * p2
        rhs_p4 += (inv_tau + spec.c_n) * p4
        p4_new = g.helmholtz_solve(gr, rhs_p4, inv_tau, 1.0, check_finite=False)

        # (p1, p2) block, transposed so that p2 = -Lap p1 holds exactly
        # and the stabilization terms mirror the forward s_stab*(phi+ - phi).
        # The running-cost samples pair with levels 1..Nt (right-endpoint
        # rule); the formal level 0 carries none. phi* is frozen at level k,
        # the level the forward step k -> k+1 used.
        phi_k = base.phi[k]
        rhs_p1 = spec.prolif.h_prime(phi_k)
        rhs_p1 += inv_tau
        rhs_p1 *= p1
        rhs_p1 += (s_stab - spec.pot.f_second(phi_k)) * p2
        rhs_p1 += (spec.chi_phi + spec.c_phi) * p4_new
        if cost.b1 and k >= 1:
            rhs_p1 += cost.b1 * (phi_k - cost.phi_q[k - 1])
        p1_new, p2_new = g.ch_block_solve(
            gr, rhs_p1, None, tau_eff, s_stab, transpose=True, check_finite=False
        )

        p1, p2, p3, p4, p5 = p1_new, p2_new, p3_new, p4_new, p5_new
        for f in (p1, p2, p3, p4, p5):
            if not np.isfinite(f).all():
                raise SolverError(f"non-finite adjoint state at backward step {k}")
        adj.p1[k], adj.p2[k], adj.p3[k], adj.p4[k], adj.p5[k] = p1, p2, p3, p4, p5
    return adj


def duality_residual(
    base: Trajectory,
    adj: Trajectory,
    h: np.ndarray,
    lin: Trajectory,
    cost: ControlSpec,
) -> float:
    """Relative gap of the adjoint/linearized duality identity.

    LHS = int_Q h p3, RHS = b1 int_Q (phi* - phi_Q) psi
                          + b2 int_Om (phi*(T) - phi_Om) psi(T),
    rectangle rule in time with p3 and psi paired at the step end levels.
    Returns |LHS - RHS| / (|LHS| + |RHS| + 1e-30).
    """
    gr = base.grid
    nt = base.nt
    tau = base.tau
    if lin.nt != nt or adj.nt != nt:
        raise ValueError("trajectories must share the time grid")
    lhs = sum(tau * g.inner(gr, h[k], adj.p3[k + 1]) for k in range(nt))
    rhs = cost.b2 * g.inner(gr, base.phi[nt] - cost.phi_omega, lin.psi[nt])
    if cost.b1:
        rhs += cost.b1 * sum(
            tau * g.inner(gr, base.phi[k + 1] - cost.phi_q[k], lin.psi[k + 1])
            for k in range(nt)
        )
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-30)
