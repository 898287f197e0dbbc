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

The sweep stores the unknowns its caller keeps (see Trajectory.zeros),
and the returned trajectory records the base's s_stab and flux scheme.
The control enters the state through the a equation alone, so the
reduced gradient, the optimality condition u = P(-p3/b3) and the duality
identity read p3 alone: by default solve_adjoint keeps p3 at every level
and steps backward on a ring of three levels, level k in slot k mod 3,
which holds the other four unknowns whatever Nt. optimize, whose warm
start reads p5 and whose caller writes every unknown, keeps
ADJOINT_FIELDS, and the sweep then steps in place on one stored
trajectory.

A backward step is two chains (k, old, new) that share no level they
write, which Trajectory.advance runs, naming the step in any SolverError:

- p3 -> p5 reads the base a at level k and sigma at level k + 1, and p3,
  p4 and p5 at old (p5 also one level behind, or a reference adjoint's p5
  increment over the step, for the CG start), and writes p3 and p5 at new;
- p4 -> p1/p2 reads the base phi at level k, phi_Q, and p1, p2 and p4 at
  old (p4 at old is the one unknown both chains read), and writes p4, p1
  and p2 at new. The first backward step reads the weakly imposed final
  (p1, p2) instead (see solve_adjoint), while level Nt keeps p1(T).

The advective term grad(sigma*).grad(p3) is evaluated with centered face
gradients and averaged back to cell centers (grid.grad_dot), and
div(a* grad p3) with the centered face mean of a*; no upwinding in the
adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as g
from .potentials import AdmissibilityError
from .state import ModelSpec, Trajectory

ADJOINT_FIELDS = ("p1", "p2", "p3", "p4", "p5")


@dataclass
class ControlSpec:
    """Cost weights, tracking targets and the control box bound.

    phi_q has shape (Nt, nx, ny); slice k is the running target on the
    step interval ending at t_{k+1}. phi_omega is the final-time target.
    phi_q may be a read-only view that repeats one field on every step (as
    load_config builds it), so a caller that changes it copies it first.
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

    def check_targets(self, gr: g.Grid, nt: int) -> None:
        """ValueError naming phi_q or phi_omega unless it fits the grid and nt and is finite."""
        if self.phi_q.shape != (nt, gr.nx, gr.ny):
            raise ValueError("phi_q must have shape (nt, nx, ny)")
        if self.phi_omega.shape != gr.shape:
            raise ValueError("phi_omega must match the grid shape")
        # Scanned by min and max, which build no whole-array temporary.
        for name, f in (("phi_q", self.phi_q), ("phi_omega", self.phi_omega)):
            if not -np.inf < f.min() <= f.max() < np.inf:
                raise ValueError(f"{name} contains non-finite values")


def solve_adjoint(
    base: Trajectory, cost: ControlSpec, spec: ModelSpec, like: Trajectory | None = None,
    keep=("p3",),
) -> Trajectory:
    """Backward sweep from step Nt to 0; see the module docstring. Returns
    the unknowns in keep at every level as a Trajectory.

    With every unknown in keep (ADJOINT_FIELDS) the sweep steps in place on
    the returned trajectory; with fewer it steps on a ring of three levels,
    and advance copies each level of keep out of the ring once it has
    checked it. Every kept level is bitwise that of the stored solve.
    like is an optional adjoint trajectory on the base's grid with its step
    count that holds every unknown at every level, such as the adjoint of a
    nearby control: each backward step's p5 CG then starts from the new
    level k + 1 plus like's p5 increment over the same step
    (Trajectory.extrapolate), not from the extrapolation in time. That
    changes the work, not what is solved. Any other like, a base that does
    not hold phi, a and sigma at every level, or a keep that names anything
    but adjoint unknowns raises ValueError.
    """
    base.check_every_level("base", ("phi", "a", "sigma"))
    gr = base.grid
    nt = base.nt
    tau = base.tau
    cost.validate()
    cost.check_targets(gr, nt)

    adj = Trajectory.zeros(gr, base.times, ADJOINT_FIELDS, keep,
                           s_stab=base.s_stab, flux_scheme=base.flux_scheme, direction=-1)
    adj.check_like(like)
    # The kernels scan nothing: the forward sweep checked the base levels,
    # check_targets the targets, and each step checks its outputs.
    p1_final = cost.b2 * (base.phi[nt] - cost.phi_omega)
    last = adj.slot(nt)
    adj.p1[last], adj.p2[last] = p1_final, -g.laplacian(gr, p1_final)
    adj.keep_level(nt)

    inv_tau = 1.0 / tau
    tau_eff = 1.0 / (inv_tau + spec.m)
    s_stab = base.s_stab
    # Weak imposition of the final condition: the final data (and the
    # running misfit sampled on the last interval) enters the sweep
    # through one application of the implicit block, the same way the
    # transpose of the forward map pairs the terminal cost with the last
    # step. Imposing it strongly instead would leave the high modes of
    # the final misfit undamped (an O(tau*lambda^2) error). So the first
    # backward step reads this (p1, p2) pair, not stored level nt.
    rhs_final = p1_final / tau
    if cost.b1:
        rhs_final = rhs_final + cost.b1 * (base.phi[nt] - cost.phi_q[nt - 1])
    weak = g.ch_block_solve(gr, rhs_final, None, tau_eff, s_stab, transpose=True)
    # Right-hand sides are updated in place on fresh arrays, such as the
    # results of grad_dot, divergence and h_prime.

    def transport(k: int, old: int, new: int) -> None:
        """p3 and p5 at new from p3, p4 and p5 at old and behind."""
        a_k = base.a[k]
        sigma_new = base.sigma[k + 1]
        p3, p4, p5 = adj.p3[old], adj.p4[old], adj.p5[old]

        # p3: transport source from centered face gradients, reaction
        # explicit; p3/tau + (1 - 2 a*) p3 is formed as ((1/tau + 1) - 2 a*) p3.
        rhs_p3 = g.grad_dot(gr, sigma_new, p3)
        rhs_p3 *= spec.chi_a
        rhs_p3 += ((inv_tau + 1.0) - 2.0 * a_k) * p3
        rhs_p3 -= (sigma_new - spec.chi_a) * p5
        adj.p3[new] = g.helmholtz_direct(gr, rhs_p3, inv_tau)

        # p5: same implicit operator family as the forward sigma update,
        # its CG started from the extrapolation of the stored levels, or
        # from like's increment over this step.
        # a* is frozen at level k here; the forward step that produced the
        # level-k sigma froze level k-1, so this choice staggers the
        # coefficient by one step and is the O(tau) gap the duality
        # residual measures.
        rhs_p5 = g.divergence(gr, a_k, adj.p3[new])
        rhs_p5 *= -spec.chi_a
        rhs_p5 += p5 * inv_tau
        rhs_p5 += spec.c_sigma * p4
        adj.p5[new] = g.helmholtz_cg(
            gr, rhs_p5, (inv_tau + 1.0) + a_k, adj.extrapolate("p5", k, like)
        )

    def phase(k: int, old: int, new: int) -> None:
        """p4, p1 and p2 at new from p1, p2 and p4 at old, or at the first
        backward step from the weak pair and p4 at old."""
        p1, p2 = weak if k == nt - 1 else (adj.p1[old], adj.p2[old])
        # p4: nutrient adjoint with the phase coupling explicit. The second
        # row of the transposed block, -Lap p1 - p2 = 0, makes p2 = -Lap p1,
        # so -chi_phi Lap p1 is read as chi_phi p2 (equal up to round-off).
        rhs_p4 = spec.chi_phi * p2
        rhs_p4 += (inv_tau + spec.c_n) * adj.p4[old]
        adj.p4[new] = g.helmholtz_direct(gr, rhs_p4, inv_tau)

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
        rhs_p1 += (spec.chi_phi + spec.c_phi) * adj.p4[new]
        if cost.b1 and k >= 1:
            rhs_p1 += cost.b1 * (phi_k - cost.phi_q[k - 1])
        adj.p1[new], adj.p2[new] = g.ch_block_solve(gr, rhs_p1, None, tau_eff, s_stab,
                                                    transpose=True)

    for k in range(nt - 1, -1, -1):
        adj.advance("adjoint", k, transport, phase)
    return adj.kept


def duality_residual(
    base: Trajectory,
    adj: Trajectory,
    h: np.ndarray,
    lin: Trajectory,
    cost: ControlSpec,
) -> float:
    """Relative gap of the adjoint/linearized duality identity.

    lin is the tangent along h as solve_linearized returns it; the cost
    reads phi only, so psi is the one tangent unknown the identity pairs,
    and the one lin must keep.

    LHS = int_Q h p3, RHS = b1 int_Q (phi* - phi_Q) psi
                          + b2 int_Om (phi*(T) - phi_Om) psi(T),
    rectangle rule in time with p3 and psi paired at the step end levels
    (tau * grid.inner over the stacked levels 1..Nt for the LHS, and level
    by level for the running misfit, which would otherwise be a temporary
    the size of one field of a trajectory).
    Returns |LHS - RHS| / (|LHS| + |RHS| + 1e-30). ValueError unless base
    holds phi, adj p3 and lin psi at every level, naming base, adj or lin,
    and unless adj and lin are on base's grid and time grid.
    """
    base.check_every_level("base", ("phi",))
    adj.check_every_level("adj", ("p3",))
    lin.check_every_level("lin", ("psi",))
    gr = base.grid
    tau = base.tau
    if not adj.grid == lin.grid == gr or not adj.nt == lin.nt == base.nt:
        raise ValueError("adj and lin must be on the base's grid and time grid")
    psi = lin.psi
    lhs = tau * g.inner(gr, h, adj.p3[1:])
    rhs = cost.b2 * g.inner(gr, base.phi[-1] - cost.phi_omega, psi[-1])
    if cost.b1:
        rhs += cost.b1 * tau * sum(g.inner(gr, phi - phi_q, psi_k) for phi, phi_q, psi_k
                                   in zip(base.phi[1:], cost.phi_q, psi[1:]))
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-30)
