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

The sweep stores the unknowns its caller keeps at every level and steps
the others backward on a ring of three levels (see Trajectory.zeros), and
the returned trajectory records the base's s_stab and flux scheme. The
control enters the state through the a equation alone, so the reduced
gradient, the optimality condition u = P(-p3/b3) and the duality identity
read p3 alone: by default solve_adjoint keeps p3. optimize keeps p3 and
p5, which its next adjoint's warm start reads; chks optimize, which writes
every unknown, re-solves the final adjoint on optimize's trajectory,
keeping ADJOINT_FIELDS.

solve_exact_adjoint is the other adjoint: the exact transpose of the
tangent step (see its docstring), whose dot-product identity with
solve_linearized holds to the CG tolerance. optimize does not call it yet.

A backward step is two chains (k, old, new) that share no level they
write, which Trajectory.advance runs, naming the step in any SolverError;
old and new are the views of the levels read and written:

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
from .linearized import TANGENT_FIELDS
from .potentials import AdmissibilityError
from .state import REPLAY_FIELDS, ModelSpec, Trajectory

ADJOINT_FIELDS = ("p1", "p2", "p3", "p4", "p5")
# The unknowns of the exact adjoint (solve_exact_adjoint): the adjoints of
# the tangent's psi, nu and alpha_lin, the two chains' parts of omega's,
# and the alpha and omega solves' results.
EXACT_ADJOINT_FIELDS = ("lam_psi", "lam_nu", "lam_omega_n", "lam_alpha", "lam_omega_a",
                        "mu_a", "mu_omega")


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

    The other unknowns step on a ring of three levels, and every kept
    level is bitwise that of a keep-all solve. like is an optional adjoint
    trajectory on the base's grid with its step count that holds p5 at
    every level, such as the adjoint of a nearby control: each backward
    step's p5 CG then starts from the new level k + 1 plus like's p5
    increment over the same step (Trajectory.extrapolate), not from the
    extrapolation in time. That changes the work, not what is solved. Any
    other like, a base that does not hold phi, a and sigma at every level,
    or a keep that names anything but adjoint unknowns raises ValueError.
    """
    base.check_every_level("base", REPLAY_FIELDS)
    gr = base.grid
    nt = base.nt
    tau = base.tau
    cost.validate()
    cost.check_targets(gr, nt)

    adj = Trajectory.zeros(gr, base.times, ADJOINT_FIELDS, keep,
                           s_stab=base.s_stab, flux_scheme=base.flux_scheme, direction=-1)
    adj.check_like(like, "p5")
    # The kernels scan nothing: the forward sweep checked the base levels,
    # check_targets the targets, and each step checks its outputs.
    p1_final = cost.b2 * (base.phi[nt] - cost.phi_omega)
    end = adj.level(nt)
    end.p1[...], end.p2[...] = p1_final, -g.laplacian(gr, p1_final)

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

    def transport(k: int, old, new) -> None:
        """p3 and p5 at new from p3, p4 and p5 at old and behind."""
        a_k = base.a[k]
        sigma_new = base.sigma[k + 1]
        p3, p4, p5 = old.p3, old.p4, old.p5

        # p3: transport source from centered face gradients, reaction
        # explicit; p3/tau + (1 - 2 a*) p3 is formed as ((1/tau + 1) - 2 a*) p3.
        rhs_p3 = g.grad_dot(gr, sigma_new, p3)
        rhs_p3 *= spec.chi_a
        rhs_p3 += ((inv_tau + 1.0) - 2.0 * a_k) * p3
        rhs_p3 -= (sigma_new - spec.chi_a) * p5
        new.p3[...] = g.helmholtz_direct(gr, rhs_p3, inv_tau)

        # p5: same implicit operator family as the forward sigma update,
        # its CG started from the extrapolation of the levels behind, or
        # from like's increment over this step.
        # a* is frozen at level k here; the forward step that produced the
        # level-k sigma froze level k-1, so this choice staggers the
        # coefficient by one step and is the O(tau) gap the duality
        # residual measures.
        rhs_p5 = g.divergence(gr, a_k, new.p3)
        rhs_p5 *= -spec.chi_a
        rhs_p5 += p5 * inv_tau
        rhs_p5 += spec.c_sigma * p4
        new.p5[...] = g.helmholtz_cg(
            gr, rhs_p5, (inv_tau + 1.0) + a_k, adj.extrapolate("p5", k, like)
        )

    def phase(k: int, old, new) -> None:
        """p4, p1 and p2 at new from p1, p2 and p4 at old, or at the first
        backward step from the weak pair and p4 at old."""
        p1, p2 = weak if k == nt - 1 else (old.p1, old.p2)
        # p4: nutrient adjoint with the phase coupling explicit. The second
        # row of the transposed block, -Lap p1 - p2 = 0, makes p2 = -Lap p1,
        # so -chi_phi Lap p1 is read as chi_phi p2 (equal up to round-off).
        rhs_p4 = spec.chi_phi * p2
        rhs_p4 += (inv_tau + spec.c_n) * old.p4
        new.p4[...] = g.helmholtz_direct(gr, rhs_p4, inv_tau)

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
        rhs_p1 += (spec.chi_phi + spec.c_phi) * new.p4
        if cost.b1 and k >= 1:
            rhs_p1 += cost.b1 * (phi_k - cost.phi_q[k - 1])
        new.p1[...], new.p2[...] = g.ch_block_solve(gr, rhs_p1, None, tau_eff, s_stab,
                                                    transpose=True)

    for k in range(nt - 1, -1, -1):
        adj.advance("adjoint", k, transport, phase)
    return adj.finish()


def solve_exact_adjoint(
    base: Trajectory, spec: ModelSpec, sources: dict[str, np.ndarray]
) -> Trajectory:
    """The exact discrete adjoint: the transpose of solve_linearized's map.

    sources maps tangent unknowns (TANGENT_FIELDS) to (Nt, nx, ny) arrays,
    slice k - 1 the source on level k = 1 .. Nt; an unknown left out has
    none. The sweep runs backward from level Nt on the base's grid, step
    count, s_stab and flux scheme, and returns mu_a at every level as a
    Trajectory; the other unknowns (EXACT_ADJOINT_FIELDS) step on a ring of
    three levels. Level k of mu_a is gradient slice k (k = 0 .. Nt - 1;
    level Nt is zero): with x_k the tangent along h at level k,

        sum_k <mu_a[k], h[k]> = sum_{k=1..Nt} sum_f <sources[f][k - 1], x_k.f>

    up to the CG tolerance of the omega solves, for every h. The gradient
    of a cost with misfit sources in the L2(Q) pairing is mu_a[k] / tau.

    With lam the adjoint at level k + 1 of the tangent's (psi, eta, nu,
    alpha_lin, omega), every later step and the source already added in,
    H = 1/tau - Lap and A_k = (1/tau + 1 + a_k) - Lap, backward step k is
    two chains (k, old, new), old the views of level k + 1 and new those of
    level k, which transpose the tangent's two chains:

    - alpha -> omega, from the base a at level k and sigma at level k + 1:
      mu_a = H^-1 lam_alpha; mu_omega = A_k^-1 (lam_omega - chi_a
      div(a_k grad mu_a)), the divergence with the base sigma's donor
      cells, which is symmetric in its second argument;
      lam_alpha = -chi_a D1^T mu_a + ((1/tau + 1) - 2 a_k) mu_a
      + (chi_a - sigma_{k+1}) mu_omega, D1^T from
      grid.divergence_transpose; this chain's part of lam_omega is
      mu_omega / tau. mu_omega's CG starts from the extrapolation of the
      levels behind.
    - nu -> psi/eta, from the base phi at level k: mu_nu = H^-1 lam_nu;
      (mu_psi, mu_eta) is the transposed phi/mu block solved for
      (lam_psi + (chi_phi + c_phi) mu_nu, lam_eta); lam_psi =
      (h'(phi_k) + 1/tau) mu_psi + (s_stab - F''(phi_k)) mu_eta; lam_nu =
      (1/tau + c_n) mu_nu - chi_phi Lap mu_psi, where the block's second
      row, -Lap mu_psi - mu_eta = lam_eta, gives -Lap mu_psi as
      mu_eta + lam_eta, as solve_adjoint reads p2; this chain's part of
      lam_omega is c_sigma mu_nu.

    No step of the tangent reads eta, so lam_eta is its source alone. The
    two parts of lam_omega are stored apart, lam_omega_a (with omega's
    source) and lam_omega_n, and summed where the alpha -> omega chain reads
    them, so that neither chain writes what the other reads and the
    step-end check of advance sees every unknown of the level.

    It transposes the tangent, not the forward map. The forward sigma step
    freezes max(a, 0) where the tangent freezes a_k; the two agree wherever
    a > 0, which acceptance criterion 11 keeps, and no dot-product test can
    see where they differ.

    base must hold phi, a and sigma at every level; a source named other
    than a tangent unknown, of another shape or with a non-finite value
    raises ValueError.
    """
    base.check_every_level("base", REPLAY_FIELDS)
    gr = base.grid
    nt = base.nt
    for name, src in sources.items():
        if name not in TANGENT_FIELDS:
            raise ValueError(f"source on {name!r}, not one of {', '.join(TANGENT_FIELDS)}")
        if src.shape != (nt, gr.nx, gr.ny):
            raise ValueError(f"source on {name} must have shape (nt, nx, ny)")
        if not -np.inf < src.min() <= src.max() < np.inf:
            raise ValueError(f"source on {name} contains non-finite values")
    src_psi, src_eta, src_alpha, src_nu, src_omega = (
        sources.get(name) for name in TANGENT_FIELDS)
    inv_tau = 1.0 / base.tau
    tau_eff = 1.0 / (inv_tau + spec.m)
    s_stab = base.s_stab
    scheme = base.flux_scheme

    lam = Trajectory.zeros(gr, base.times, EXACT_ADJOINT_FIELDS, ("mu_a",),
                           s_stab=s_stab, flux_scheme=scheme, direction=-1)
    end = lam.level(nt)
    for field, src in ((end.lam_psi, src_psi), (end.lam_alpha, src_alpha),
                       (end.lam_nu, src_nu), (end.lam_omega_a, src_omega)):
        if src is not None:
            field[...] = src[nt - 1]

    def add_source(out: np.ndarray, src: np.ndarray | None, k: int) -> np.ndarray:
        """out plus the source on level k, if any; level 0 carries none."""
        if src is not None and k >= 1:
            out += src[k - 1]
        return out

    def transport(k: int, old, new) -> None:
        """mu_a, mu_omega, lam_alpha and lam_omega_a at new from lam_alpha
        and both parts of lam_omega at old, and mu_omega behind."""
        a_k = base.a[k]
        sigma_new = base.sigma[k + 1]
        mu_a = new.mu_a
        mu_a[...] = g.helmholtz_direct(gr, old.lam_alpha, inv_tau)

        rhs_omega = g.divergence(gr, a_k, mu_a, scheme, upwind_by=sigma_new)
        rhs_omega *= -spec.chi_a
        rhs_omega += old.lam_omega_a
        rhs_omega += old.lam_omega_n
        new.mu_omega[...] = g.helmholtz_cg(
            gr, rhs_omega, (inv_tau + 1.0) + a_k, lam.extrapolate("mu_omega", k)
        )

        lam_alpha = g.divergence_transpose(gr, sigma_new, mu_a, scheme)
        lam_alpha *= -spec.chi_a
        lam_alpha += ((inv_tau + 1.0) - 2.0 * a_k) * mu_a
        lam_alpha += (spec.chi_a - sigma_new) * new.mu_omega
        new.lam_alpha[...] = add_source(lam_alpha, src_alpha, k)
        new.lam_omega_a[...] = add_source(new.mu_omega * inv_tau, src_omega, k)

    def phase(k: int, old, new) -> None:
        """lam_psi, lam_nu and lam_omega_n at new from lam_psi and lam_nu at
        old and the source on eta at level k + 1."""
        phi_k = base.phi[k]
        mu_nu = g.helmholtz_direct(gr, old.lam_nu, inv_tau)
        lam_eta = None if src_eta is None else src_eta[k]
        rhs_psi = (spec.chi_phi + spec.c_phi) * mu_nu
        rhs_psi += old.lam_psi
        mu_psi, mu_eta = g.ch_block_solve(gr, rhs_psi, lam_eta, tau_eff, s_stab, transpose=True)

        lam_psi = spec.prolif.h_prime(phi_k)
        lam_psi += inv_tau
        lam_psi *= mu_psi
        lam_psi += (s_stab - spec.pot.f_second(phi_k)) * mu_eta
        new.lam_psi[...] = add_source(lam_psi, src_psi, k)

        if lam_eta is not None:
            mu_eta += lam_eta  # -Lap mu_psi
        lam_nu = (inv_tau + spec.c_n) * mu_nu
        lam_nu += spec.chi_phi * mu_eta
        new.lam_nu[...] = add_source(lam_nu, src_nu, k)
        new.lam_omega_n[...] = spec.c_sigma * mu_nu

    for k in range(nt - 1, -1, -1):
        lam.advance("exact adjoint", k, transport, phase)
    return lam.finish()


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
