"""Forward-in-time integration of the coupled phase-field / chemotaxis system.

Unknowns at cell centers: phi (tumor phase), mu (chemical potential),
a (vasculature fraction), n (nutrient), sigma (signal concentration).
The continuous system, with homogeneous Neumann conditions throughout:

    dt phi - Lap mu = -chi_phi * Lap n - m*phi + h(phi)
    mu = -Lap phi + F'(phi)
    dt a - Lap a = -chi_a * div(a grad sigma) + a - a^2 + u
    dt n - Lap n = (chi_phi + c_phi)*phi + c_n*n + c_sigma*sigma + c_0
    dt sigma - Lap sigma = (1 - sigma) + a*(chi_a - sigma)

One time step is a first-order IMEX sweep in the fixed order
phi -> n -> sigma -> a:

1. phi/mu block, stabilized semi-implicit: the Laplacians and the m*phi
   relaxation are implicit, F' and h explicit, plus s_stab*(phi+ - phi)
   added to mu. The m-term is absorbed by calling the block solve with
   the effective step 1/(1/tau + m); this makes the discrete mean of phi
   obey the implicit-Euler mean ODE exactly (up to the explicit h lag).
2. n: implicit diffusion, reactions explicit, phi taken at the new level.
3. sigma: diffusion and the full reaction (1 + a)*sigma implicit with a
   frozen at max(a, 0), source 1 + chi_a*a explicit. The system matrix is
   an M-matrix and the right side is nonnegative for admissible states,
   which keeps sigma in [0, 1] up to solver tolerance.
4. a: implicit diffusion, explicit chemotaxis flux against the *new*
   sigma, explicit logistic term and control source.

The forward sweep only steps and stores the full trajectory, which the
linearized/adjoint replays need; monitors are computed from the stored levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grid as g
from .grid import Grid, SolverError
from .potentials import (
    AdmissibilityError,
    PotentialSpec,
    ProliferationSpec,
    default_s_stab,
    derive_constants,
)


@dataclass
class ModelSpec:
    """Structural parameters of the system."""

    m: float = 1.0
    chi_phi: float = 0.2
    chi_a: float = 0.3
    c_phi: float = 0.1
    c_n: float = -1.0
    c_sigma: float = 0.1
    c_0: float = 0.0
    pot: PotentialSpec = field(default_factory=PotentialSpec)
    prolif: ProliferationSpec = field(default_factory=ProliferationSpec)

    def validate(self) -> None:
        """Check the structural admissibility conditions (see README table)."""
        if not self.m > 0:
            raise AdmissibilityError("(2.3): m must be positive")
        if not (0.0 < self.chi_phi < 1.0):
            raise AdmissibilityError("(2.3): chi_phi must lie in (0, 1)")
        if not (0.0 < self.chi_a < 1.0):
            raise AdmissibilityError("(2.3): chi_a must lie in (0, 1)")
        for name in ("c_phi", "c_n", "c_sigma", "c_0"):
            if not np.isfinite(getattr(self, name)):
                raise AdmissibilityError(f"(2.3): {name} must be a finite real")


@dataclass
class InitialData:
    phi0: np.ndarray
    a0: np.ndarray
    n0: np.ndarray
    sigma0: np.ndarray

    def validate(self, spec: ModelSpec) -> None:
        """Check the data admissibility conditions against the model spec."""
        for name in ("phi0", "a0", "n0", "sigma0"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise AdmissibilityError(f"initial field {name} contains non-finite values")
        if not spec.pot.contains(float(self.phi0.min()), float(self.phi0.max())):
            raise AdmissibilityError(
                "(2.10): range of phi0 must lie inside the potential domain"
            )
        if not float(self.a0.min()) > 0.0:
            raise AdmissibilityError("(2.12): a0 must be positive everywhere")
        if float(self.sigma0.min()) < 0.0 or float(self.sigma0.max()) > 1.0:
            raise AdmissibilityError("(2.13): sigma0 must take values in [0, 1]")
        derive_constants(spec.m, spec.pot, spec.prolif, float(self.phi0.mean()))


@dataclass
class Control:
    """Piecewise-constant-in-time distributed source: values[k] acts on step k."""

    values: np.ndarray  # (Nt, nx, ny)
    u_max: float | np.ndarray = 1.0

    def validate(self) -> None:
        # Written so that a NaN fails each test; u_max may be infinite.
        if not np.min(self.u_max) >= 0:
            raise AdmissibilityError("(2.15): u_max must be nonnegative, not NaN")
        if not (self.values.min() >= 0.0 and self.values.max() < np.inf
                and np.all(self.values <= self.u_max)):
            raise AdmissibilityError("(2.14): control must be finite with 0 <= u <= u_max")


@dataclass
class State:
    """One time level of the solution quintuple."""

    phi: np.ndarray
    mu: np.ndarray
    a: np.ndarray
    n: np.ndarray
    sigma: np.ndarray


@dataclass
class Trajectory:
    """A stored sweep on the uniform step grid t_k = k * tau.

    fields maps each unknown's name to its (Nt+1, nx, ny) array, in the
    order phi, mu, a, n, sigma for the forward sweep, psi, eta, alpha_lin,
    nu, omega for the tangent sweep and p1, ..., p5 for the adjoint sweep.
    Fields also read as attributes bound to the same arrays (traj.phi,
    lin.psi, adj.p3), so write into them in place. s_stab and
    flux_scheme record the forward scheme, which the replays reuse.
    """

    grid: Grid
    times: np.ndarray  # (Nt+1,)
    fields: dict[str, np.ndarray]
    s_stab: float = 0.0
    flux_scheme: str = "centered"

    @classmethod
    def zeros(cls, grid: Grid, times: np.ndarray, names, **kwargs) -> Trajectory:
        """A trajectory whose named fields are all zero on every step."""
        shape = (len(times), grid.nx, grid.ny)
        return cls(grid, times, {name: np.zeros(shape) for name in names}, **kwargs)

    def __post_init__(self):
        # Bound as plain attributes: the sweeps read fields several times per
        # step, and a __getattr__ hook would run Python code on every read.
        vars(self).update(self.fields)

    @property
    def nt(self) -> int:
        return len(self.times) - 1

    @property
    def tau(self) -> float:
        return float(self.times[1] - self.times[0])


@dataclass
class InvariantReport:
    sigma_min: float
    sigma_max: float
    a_min: float
    phi_min: float
    phi_max: float
    mean_ode_residual: float
    clamp_events: np.ndarray  # (Nt+1,) per level: PotentialSpec.clamp_counts(traj.phi)


def step(
    gr: Grid,
    state: State,
    u_k: np.ndarray,
    spec: ModelSpec,
    tau: float,
    s_stab: float,
    flux_scheme: str = "centered",
    sigma_guess: np.ndarray | None = None,
) -> State:
    """Advance one IMEX step; see the module docstring for the scheme.

    sigma_guess, when given, starts the sigma CG solve (see
    grid.helmholtz_solve); it changes the work, not what is solved.
    The kernels skip their finiteness scans: a non-finite value in what
    the step reads reaches an output or stops a solve, and the five
    outputs are checked once at the end.
    """
    if tau <= 0:
        raise SolverError("step requires tau > 0")
    phi, a, n, sigma = state.phi, state.a, state.n, state.sigma

    inv_tau = 1.0 / tau
    # Right-hand sides are updated in place on fresh arrays, such as the
    # results of h_value, f_prime, divergence and laplacian.

    # 1. phi/mu block. m is implicit via the effective step.
    tau_eff = 1.0 / (inv_tau + spec.m)
    rhs_phi = spec.prolif.h_value(phi)
    rhs_phi += phi * inv_tau
    rhs_phi -= spec.chi_phi * g.laplacian(gr, n, check_finite=False)
    rhs_mu = spec.pot.f_prime(phi)
    np.subtract(s_stab * phi, rhs_mu, out=rhs_mu)
    phi_new, mu_new = g.ch_block_solve(gr, rhs_phi, rhs_mu, tau_eff, s_stab, check_finite=False)

    # 2. n: implicit diffusion, explicit reactions, new phi.
    rhs_n = n * (inv_tau + spec.c_n)
    rhs_n += (spec.chi_phi + spec.c_phi) * phi_new
    rhs_n += spec.c_sigma * sigma + spec.c_0
    n_new = g.helmholtz_solve(gr, rhs_n, inv_tau, 1.0, check_finite=False)

    # 3. sigma: monotone implicit reaction with frozen a >= 0.
    a_frozen = np.maximum(a, 0.0)
    rhs_sigma = sigma * inv_tau
    rhs_sigma += spec.chi_a * a_frozen + 1.0
    sigma_new = g.helmholtz_solve(
        gr, rhs_sigma, (inv_tau + 1.0) + a_frozen, 1.0, sigma_guess, check_finite=False
    )

    # 4. a: implicit diffusion, explicit chemotaxis against new sigma;
    # a/tau + a - a^2 is formed as a*((1/tau + 1) - a).
    rhs_a = g.divergence(gr, a, sigma_new, flux_scheme, check_finite=False)
    rhs_a *= -spec.chi_a
    rhs_a += a * ((inv_tau + 1.0) - a)
    rhs_a += u_k
    a_new = g.helmholtz_solve(gr, rhs_a, inv_tau, 1.0, check_finite=False)

    for name, f in (("phi", phi_new), ("mu", mu_new), ("n", n_new), ("sigma", sigma_new), ("a", a_new)):
        if not np.isfinite(f).all():
            raise SolverError(f"non-finite {name} after step")
    return State(phi_new, mu_new, a_new, n_new, sigma_new)


def solve_forward(
    gr: Grid,
    spec: ModelSpec,
    init: InitialData,
    u: Control,
    T: float,
    nt: int,
    s_stab: float | None = None,
    flux_scheme: str = "centered",
    check_admissibility: bool = True,
) -> tuple[Trajectory, InvariantReport]:
    """Integrate the system on [0, T] with nt uniform steps.

    mu at step 0 is the diagnostic value -Lap(phi0) + F'(phi0); afterwards
    it is a solved unknown. Set check_admissibility=False to run
    deliberately degenerate data (used by the verification suites).
    """
    if nt < 1:
        raise ValueError("nt must be at least 1")
    if u.values.shape != (nt, gr.nx, gr.ny):
        raise ValueError("control shape must be (nt, nx, ny)")
    if check_admissibility:
        spec.validate()
        init.validate(spec)
        u.validate()
    if s_stab is None:
        s_stab = default_s_stab(spec.pot)

    tau = T / nt
    traj = Trajectory.zeros(
        gr, np.linspace(0.0, T, nt + 1), ("phi", "mu", "a", "n", "sigma"),
        s_stab=s_stab, flux_scheme=flux_scheme,
    )
    cur = State(
        init.phi0.copy(),
        -g.laplacian(gr, init.phi0) + spec.pot.f_prime(init.phi0),
        init.a0.copy(),
        init.n0.copy(),
        init.sigma0.copy(),
    )
    for k in range(nt + 1):
        traj.phi[k], traj.mu[k] = cur.phi, cur.mu
        traj.a[k], traj.n[k], traj.sigma[k] = cur.a, cur.n, cur.sigma
        if k == nt:
            break
        # Linear extrapolation of the two stored sigma levels starts its solve.
        guess = cur.sigma if k == 0 else 2.0 * cur.sigma - traj.sigma[k - 1]
        try:
            cur = step(gr, cur, u.values[k], spec, tau, s_stab, flux_scheme, guess)
        except SolverError as exc:
            raise SolverError(f"forward step {k} failed: {exc}") from exc

    report = InvariantReport(
        sigma_min=float(traj.sigma.min()),
        sigma_max=float(traj.sigma.max()),
        a_min=float(traj.a.min()),
        phi_min=float(traj.phi.min()),
        phi_max=float(traj.phi.max()),
        mean_ode_residual=check_mean_ode(traj, spec),
        clamp_events=spec.pot.clamp_counts(traj.phi),
    )
    return traj, report


def energy(gr: Grid, state: State, spec: ModelSpec) -> float:
    """Free energy: entropy of a, chemotaxis couplings, gradient terms, and F(phi).

    E = int a*(ln a - 1) - chi_phi int n*phi - chi_a int a*sigma
        + (1/2) int (|grad phi|^2 + |grad n|^2 + |grad sigma|^2) + int F(phi)

    The entropy term clamps a at 1e-14 from below.
    """
    a_safe = np.maximum(state.a, 1e-14)
    area = gr.cell_area
    ent = area * float(np.sum(a_safe * (np.log(a_safe) - 1.0)))
    coup = -spec.chi_phi * g.inner(gr, state.n, state.phi) - spec.chi_a * g.inner(
        gr, state.a, state.sigma
    )
    grads = 0.5 * (
        g.grad_norm_sq(gr, state.phi)
        + g.grad_norm_sq(gr, state.n)
        + g.grad_norm_sq(gr, state.sigma)
    )
    pot = area * float(np.sum(spec.pot.f_value(state.phi)))
    return ent + coup + grads + pot


def energy_series(traj: Trajectory, spec: ModelSpec) -> np.ndarray:
    """Free energy of each stored level of a forward trajectory."""
    levels = zip(*traj.fields.values())  # phi, mu, a, n, sigma: State's field order
    return np.array([energy(traj.grid, State(*level), spec) for level in levels])


def energy_phi_part(gr: Grid, phi: np.ndarray, spec: ModelSpec) -> float:
    """Phase-field part of the energy: (1/2) int |grad phi|^2 + int F(phi)."""
    return 0.5 * g.grad_norm_sq(gr, phi) + gr.cell_area * float(
        np.sum(spec.pot.f_value(phi))
    )


def check_mean_ode(traj: Trajectory, spec: ModelSpec) -> float:
    """Max residual of the mean-value ODE  d/dt mean(phi) + m*mean(phi) = mean(h(phi)).

    Measured in backward-Euler form at the new level:

        |(mean_{k+1} - mean_k)/tau + m*mean_{k+1} - mean(h(phi_{k+1}))|

    The scheme satisfies this identity with h lagged at level k, so the
    residual equals the one-step lag of mean(h(phi)) and is O(tau); it
    vanishes to round-off when h is constant (in particular h = 0 and
    h = m*r0).
    """
    tau = traj.tau
    means = traj.phi.mean(axis=(1, 2))
    hbar = np.array([float(spec.prolif.h_value(traj.phi[k]).mean()) for k in range(traj.nt + 1)])
    res = 0.0
    for k in range(traj.nt):
        r = abs((means[k + 1] - means[k]) / tau + spec.m * means[k + 1] - hbar[k + 1])
        res = max(res, r)
    return res


def trajectory_distance(t1: Trajectory, t2: Trajectory) -> float:
    """Combined norm of the difference of two trajectories.

    Fields pair by position, not by name, so the norm of a tangent
    trajectory is its distance from Trajectory.zeros. Sum over the five
    components of sup-in-time L2 norms plus L2-in-time H1-seminorm
    contributions; mesh-independent quadratures so values are comparable
    across grids.
    """
    gr = t1.grid
    tau = t1.tau
    total = 0.0
    for f1, f2 in zip(t1.fields.values(), t2.fields.values(), strict=True):
        d = f1 - f2
        sup_l2 = max(g.norm_l2(gr, d[k]) for k in range(d.shape[0]))
        h1_acc = sum(
            tau * (g.norm_l2(gr, d[k]) ** 2 + g.grad_norm_sq(gr, d[k]))
            for k in range(d.shape[0])
        )
        total += sup_l2 + np.sqrt(h1_acc)
    return float(total)
