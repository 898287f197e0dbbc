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

The forward sweep steps in place on a Trajectory. What it stores is
solve_forward's keep, the unknowns its caller reads at every level (see
Trajectory.zeros). The linearized/adjoint replays read every unknown, so a
plain solve keeps them all and steps on one stored trajectory. chks
simulate, which writes each level as it comes, keeps none: the sweep then
steps on a ring of three levels, level k in slot k mod 3, and its memory
does not grow with Nt. The tangent sweep, and the adjoint backward from
level Nt, step on rings the same way. A Trajectory holds its fields in one
(fields, levels, nx, ny) array, so the check of a new level is one scan.
Within a step, (a, sigma) reaches (phi, mu, n) only through the lagged
source c_sigma*sigma, so the step is two chains (k, old, new) that share
no level they write (old and new are slots; see Trajectory.advance):

- phi/mu -> n reads phi, n and sigma at old and writes phi, mu and n at new;
- sigma -> a reads a and sigma at old (and, for the CG start, sigma one
  level behind or a reference trajectory's sigma increment over the step)
  and writes sigma and a at new.

That independence lets Trajectory.advance, which runs each step of all three
sweeps and names it in any SolverError, run the two at once on large grids
with every stored level bitwise that of the order above. solve_forward's
report holds the per-level reductions (InvariantReport): a sweep on a
stored trajectory reduces all its levels after the sweep, one on a ring
level k just before the hook sees it, to the same bits. The monitors of a
nonlinear function, the mean-ODE residual (h(phi)) and the energy, run one
level at a time and only when a caller asks for them: after the sweep, or
during it through solve_forward's on_level hook, which sees each level as
soon as it is stored. Step k calls the hook for level k, after a ring's
reductions of that level, on the calling thread ahead of its
phi/mu -> n chain, so on large grids that work overlaps the worker's
sigma -> a chain; it reads only levels up to k (levels k - 1 and k in a
ring), which no chain of step k writes.

Two chains at once
------------------
On grids of at least CONCURRENT_MIN_CELLS = 144^2 cells, advance runs a
step's later chain in the serial order on one persistent worker thread
while the caller runs the earlier one; on smaller grids it runs them one
after the other. pocketfft and numpy release the interpreter lock on such
arrays, and each chain makes the same calls on the same inputs, so the
results are bitwise those of the serial order. Below the crossover a call
is too short to pay for passing the interpreter lock between the threads.
The phi/mu -> n chain is the shorter one, so the caller's thread has time
to spare in each step, which chks simulate spends on one level's report
reductions and its on_level hook. scipy.fft's own workers=2, which splits
one transform over two threads, stays out: it would share only the
transforms, about half of a step, and on two cores it would compete with
the worker. CHANGES.md records the measured crossover and timings.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cached_property

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

# Fewest cells at which Trajectory.advance runs a step's two chains at once;
# see "Two chains at once" in the module docstring.
CONCURRENT_MIN_CELLS = 144 * 144
# Levels a ring holds: the two a step reads and the one it writes, levels
# newest - 1 .. newest + 1 in either direction (Trajectory.slot).
RING_LEVELS = 3
FORWARD_FIELDS = ("phi", "mu", "a", "n", "sigma")

_CHAIN_WORKER: ThreadPoolExecutor


def _new_chain_worker() -> None:
    """Bind the one thread that Trajectory.advance hands a step's second chain.

    The executor starts the thread on first use. A forked child binds a new
    executor, since the parent's thread does not exist there.
    """
    global _CHAIN_WORKER
    _CHAIN_WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="chks-chain")


_new_chain_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_chain_worker)


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
    """Piecewise-constant-in-time distributed source: values[k] acts on step k.

    values may be a read-only view that repeats one field on every step (as
    load_config builds it), so a caller that changes it copies it first.
    """

    values: np.ndarray  # (Nt, nx, ny)
    u_max: float | np.ndarray = 1.0

    def validate(self) -> None:
        # Written so that a NaN fails each test; u_max may be infinite. A
        # scalar bound is tested on the maximum: NaN values fail min >= 0.
        if not np.min(self.u_max) >= 0:
            raise AdmissibilityError("(2.15): u_max must be nonnegative, not NaN")
        hi = self.values.max()
        if not (self.values.min() >= 0.0 and hi < np.inf
                and (hi <= self.u_max if np.ndim(self.u_max) == 0
                     else np.all(self.values <= self.u_max))):
            raise AdmissibilityError("(2.14): control must be finite with 0 <= u <= u_max")


@dataclass
class Trajectory:
    """A sweep on the uniform step grid t_k = k * tau.

    data holds every unknown at every stored level in one
    (fields, slots, nx, ny) array, the unknowns in the order of names: phi,
    mu, a, n, sigma (FORWARD_FIELDS) for the forward sweep, psi, eta,
    alpha_lin, nu, omega for the tangent sweep and p1, ..., p5 for the
    adjoint sweep. A stored trajectory has Nt+1 slots, level k in slot k. A
    ring has RING_LEVELS slots, level k in slot k mod 3, and holds the
    levels newest - 1 .. newest + 1 (see slot); holds_every_level tells the
    two apart, and slot(k) is where level k lives in either. zeros makes a
    ring whenever the caller keeps fewer than all the unknowns; the ring's
    kept trajectory stores those at every level, and advance copies each
    level into it once checked. A stored trajectory is its own kept, and a
    sweep returns kept. direction is the way the sweep runs, 1 forward
    (level 0 first) or -1 backward (level Nt first). newest is the level
    advance checked last (the sweep's first level before its first step).
    fields maps each name to its (slots, nx, ny) slice of data, and the
    same slices read as attributes (traj.phi, lin.psi, adj.p3), so write
    into them in place: a field rebound to an array of its own would escape
    the step-end check, which scans one level of data.
    A trajectory is its sweep's only state, stepped by advance. s_stab and
    flux_scheme record the forward scheme, which the replays reuse.
    """

    grid: Grid
    times: np.ndarray  # (Nt+1,)
    names: tuple[str, ...]
    data: np.ndarray  # (len(names), Nt+1, nx, ny)
    s_stab: float = 0.0
    flux_scheme: str = "centered"
    direction: int = 1

    @classmethod
    def zeros(cls, grid: Grid, times: np.ndarray, names, keep=None, **kwargs) -> Trajectory:
        """An all-zero trajectory of the unknowns names for a sweep whose
        caller reads the unknowns keep (all of names if None) at every level.

        If keep names every unknown, it stores every level and is its own
        kept. Otherwise, whatever the step count, it is a ring of
        RING_LEVELS slots, and its kept trajectory, with the same grid,
        times and kwargs, stores the unknowns of keep, in the order of
        names, at every level. ValueError for an entry of keep that is not
        one of names.
        """
        names = tuple(names)
        keep = names if keep is None else tuple(keep)
        for name in keep:
            if name not in names:
                raise ValueError(f"keep names {name!r}, not one of {', '.join(names)}")
        ring = set(keep) != set(names)
        data = np.zeros((len(names), RING_LEVELS if ring else len(times), grid.nx, grid.ny))
        traj = cls(grid, times, names, data, **kwargs)
        if ring:
            # At Nt = 2 the ring has as many slots as levels.
            traj.holds_every_level = False
            traj._kept = cls.zeros(grid, times, [n for n in names if n in keep], **kwargs)
        return traj

    def __post_init__(self):
        self.names = tuple(self.names)
        slots = self.data.shape[1] if self.data.ndim == 4 else None
        if (self.data.shape != (len(self.names), slots, self.grid.nx, self.grid.ny)
                or slots not in (len(self.times), RING_LEVELS)):
            raise ValueError("data must have shape (len(names), len(times) or 3, nx, ny)")
        if self.direction not in (1, -1):
            raise ValueError(f"direction must be 1 or -1, not {self.direction!r}")
        self.holds_every_level = slots == len(self.times)
        self.newest = 0 if self.direction > 0 else len(self.times) - 1
        # None for a trajectory that is its own kept: a reference to itself
        # would leave it to the cycle collector instead of freeing it.
        self._kept: Trajectory | None = None
        self.fields = dict(zip(self.names, self.data))
        # Bound as plain attributes: the sweeps read fields several times per
        # step, and a __getattr__ hook would run Python code on every read.
        vars(self).update(self.fields)

    @property
    def kept(self) -> Trajectory:
        """The trajectory that stores the kept unknowns at every level."""
        return self if self._kept is None else self._kept

    @cached_property
    def nt(self) -> int:
        return len(self.times) - 1

    @cached_property
    def tau(self) -> float:
        return float(self.times[1] - self.times[0])

    def slot(self, k: int) -> int:
        """The index along data's level axis of stored level k: k itself, or
        k mod RING_LEVELS in a ring.

        A ring, in either direction, holds levels newest - 1 .. newest + 1,
        clipped to 0 .. Nt: the level the next step reads (see advance),
        the one behind it, which its CG start reads, and the one it writes.
        ValueError naming that window for any other k, whose slot holds
        another level or is being overwritten.
        """
        if self.holds_every_level:
            return k
        lo, hi = max(self.newest - 1, 0), min(self.newest + 1, self.nt)
        if not lo <= k <= hi:
            raise ValueError(f"level {k} is not in the ring, which holds levels {lo} to {hi}")
        return k % RING_LEVELS

    def check_every_level(self, role: str, names=()) -> None:
        """ValueError naming role unless this trajectory holds every level,
        and stores each unknown in names."""
        if not self.holds_every_level:
            raise ValueError(f"{role} must hold every level, not a ring of {RING_LEVELS}")
        missing = [name for name in names if name not in self.fields]
        if missing:
            raise ValueError(f"{role} must hold {', '.join(missing)} at every level")

    def keep_level(self, level: int) -> None:
        """Copy the given level of a ring into its kept trajectory, where it
        becomes newest; nothing for a trajectory that is its own kept.
        advance calls this for each level it checks, and a sweep for the
        level it writes before its first step."""
        kept = self._kept
        if kept is not None:
            j = self.slot(level)
            for name, f in kept.fields.items():
                f[level] = self.fields[name][j]
            kept.newest = level

    def extrapolate(self, name: str, k: int, like: Trajectory | None = None) -> np.ndarray:
        """CG start for the level of a field that step k writes.

        With j the level step k reads (see advance) and d = direction,
        there are two starts:

        - Without like, the extrapolation in time 2 f_j - f_{j - d} of the
          two stored levels behind the new one, or f_j itself at the
          sweep's first step.
        - With like, a reference sweep of the same grid and step count
          whose field g is like.fields[name], the start f_j + (g_{j+d} - g_j):
          the reference's increment over the same step (Fischer, CMAME 163,
          1998). It is formed as g_{j+d} + (f_j - g_j), so a sweep that
          repeats the reference's solve starts from its result bitwise.

        Either start changes the CG's work, not what it solves. In a ring,
        step k reads levels j and j - d, which slot accepts either way.
        """
        direction = self.direction
        j = self._step_levels(k)[0]
        f = self.fields[name]
        f_j = f[self.slot(j)]
        if like is not None:
            g_ref = like.fields[name]
            return g_ref[j + direction] + (f_j - g_ref[j])
        if not 0 <= j - direction <= self.nt:
            return f_j
        return 2.0 * f_j - f[self.slot(j - direction)]

    def check_like(self, like: Trajectory | None) -> None:
        """ValueError naming like unless it is None or holds every level and
        has this trajectory's grid, step count and field names."""
        if like is None:
            return
        if like.grid != self.grid or like.nt != self.nt or like.names != self.names:
            raise ValueError("like must have the grid, the step count and the fields of the solve")
        like.check_every_level("like")

    def _step_levels(self, k: int) -> tuple[int, int]:
        """The level step k reads and the level it writes (see advance)."""
        return (k, k + 1) if self.direction > 0 else (k + 1, k)

    def advance(self, sweep: str, k: int, first, second) -> None:
        """Run step k of a sweep and check the level it wrote.

        Step k reads level k and writes level k + 1 forward, and reads
        k + 1 and writes k backward. With old and new the slots of those two
        levels, advance runs the step's chains first(k, old, new) and
        second(k, old, new). The level written becomes newest once both are
        done and, once checked, is copied into kept (keep_level).

        Neither chain may read what the other writes. Below
        CONCURRENT_MIN_CELLS cells they run one after the other; from there
        the worker thread runs second while the caller runs first. Each
        chain makes the same calls on the same inputs either way, so every
        stored level is bitwise that of the serial order. Both chains have
        finished before the check, and before any error leaves, so no write
        lands later; after an error, though, the levels that second writes
        may hold its results where the serial order never ran it. The error
        is the one the serial order meets first: first's, else second's,
        else "non-finite <name>" for the first non-finite field of the new
        level, in the order of names. The check is one scan of the level
        in data; the field is looked up only when it fails. A SolverError,
        a FloatingPointError or a RuntimeWarning raised as an error (as
        under error::RuntimeWarning) is raised again as SolverError
        "<sweep> step k failed: <cause>"; any other error passes unchanged.
        """
        read, level = self._step_levels(k)
        old, new = self.slot(read), self.slot(level)
        try:
            if self.grid.nx * self.grid.ny < CONCURRENT_MIN_CELLS:
                first(k, old, new)
                second(k, old, new)
            else:
                later = _CHAIN_WORKER.submit(second, k, old, new)
                try:
                    first(k, old, new)
                finally:
                    wait((later,))
                later.result()
            written = self.data[:, new]
            self.newest = level
            if not np.isfinite(written).all():
                bad = next(n for n, f in zip(self.names, written) if not np.isfinite(f).all())
                raise SolverError(f"non-finite {bad}")
        except (SolverError, FloatingPointError, RuntimeWarning) as exc:
            raise SolverError(f"{sweep} step {k} failed: {exc}") from exc
        self.keep_level(level)


# Bounds of the forward monitors, which chks simulate and the invariants
# suite both apply: sigma stays in [0, 1] and, under the upwind flux, a
# stays nonnegative, each up to round-off.
SIGMA_RANGE = (-1e-8, 1.0 + 1e-8)
A_MIN_UPWIND = -1e-10


@dataclass
class InvariantReport:
    """Per-level monitors of a forward trajectory, each an (Nt+1,) array and
    a column of series.csv. A check over the run takes its .min() or .max().

    reduce fills the entries of a block of levels with one reduction per
    column over the block: a sweep on a stored trajectory reduces all its
    levels after the sweep, one on a ring each level as the sweep reaches
    it. Each level's entries are bitwise the same either way.
    """

    mean_phi: np.ndarray
    sigma_min: np.ndarray
    sigma_max: np.ndarray
    a_min: np.ndarray
    clamp_events: np.ndarray  # PotentialSpec.clamp_counts(traj.phi)

    @classmethod
    def empty(cls, nt: int) -> InvariantReport:
        """A report of nt + 1 levels whose entries reduce has yet to fill."""
        return cls(*(np.empty(nt + 1) for _ in range(4)), np.empty(nt + 1, dtype=int))

    def reduce(self, traj: Trajectory, start: int, stop: int, pot: PotentialSpec) -> None:
        """Fill the entries of levels start .. stop - 1 from traj, which must
        hold them in consecutive slots: every level of a stored sweep, or one
        level of a ring."""
        lo, hi = traj.slot(start), traj.slot(stop - 1) + 1
        phi = traj.phi[lo:hi]
        self.mean_phi[start:stop] = phi.mean(axis=(1, 2))
        self.sigma_min[start:stop] = traj.sigma[lo:hi].min(axis=(1, 2))
        self.sigma_max[start:stop] = traj.sigma[lo:hi].max(axis=(1, 2))
        self.a_min[start:stop] = traj.a[lo:hi].min(axis=(1, 2))
        self.clamp_events[start:stop] = pot.clamp_counts(phi)


def step(
    traj: Trajectory, k: int, u_k: np.ndarray, spec: ModelSpec,
    like: Trajectory | None = None, on_level: Callable[[Trajectory, int], None] | None = None,
) -> None:
    """Advance the forward sweep one IMEX step, from stored level k to k + 1.

    See the module docstring for the scheme; the grid, tau, s_stab and the
    flux scheme are the trajectory's. The step is two chains that share no
    level they write, phi/mu -> n and sigma -> a, which traj.advance runs
    (at once on large grids). The sigma CG starts from
    traj.extrapolate("sigma", k, like=like): the extrapolation in time of
    traj's own levels, or, given a forward trajectory like of the same grid
    and step count (solve_forward checks it), traj's level k plus like's
    sigma increment over step k. That changes the work, not what is solved.
    The kernels scan nothing: a non-finite value in what the step reads
    reaches an output or stops a solve, and advance checks the new level,
    its five fields in one scan, and names the step in any SolverError.
    traj may be a ring (see Trajectory).
    on_level(traj, k), if given, runs at the head of the phi/mu -> n chain,
    on the calling thread, and while it runs on a large grid the worker runs
    sigma -> a. It may read levels up to k, which the step does not write;
    in a ring, levels k - 1 and k, since level k + 1 goes into the slot of
    level k - 2.
    """
    gr = traj.grid
    # Right-hand sides are updated in place on fresh arrays, such as the
    # results of h_value, f_prime, divergence and laplacian, in both chains.

    def phase_nutrient(k: int, old: int, new: int) -> None:
        """Steps 1 and 2: phi, mu and n at new from phi, n and sigma at old."""
        if on_level is not None:
            on_level(traj, k)
        if traj.tau <= 0:
            raise SolverError("step requires tau > 0")
        inv_tau, s_stab = 1.0 / traj.tau, traj.s_stab
        phi, n, sigma = traj.phi[old], traj.n[old], traj.sigma[old]

        # 1. phi/mu block. m is implicit via the effective step.
        tau_eff = 1.0 / (inv_tau + spec.m)
        rhs_phi = spec.prolif.h_value(phi)
        rhs_phi += phi * inv_tau
        rhs_phi -= spec.chi_phi * g.laplacian(gr, n)
        rhs_mu = spec.pot.f_prime(phi)
        np.subtract(s_stab * phi, rhs_mu, out=rhs_mu)
        traj.phi[new], traj.mu[new] = g.ch_block_solve(gr, rhs_phi, rhs_mu, tau_eff, s_stab)

        # 2. n: implicit diffusion, explicit reactions, new phi.
        rhs_n = n * (inv_tau + spec.c_n)
        rhs_n += (spec.chi_phi + spec.c_phi) * traj.phi[new]
        rhs_n += spec.c_sigma * sigma + spec.c_0
        traj.n[new] = g.helmholtz_direct(gr, rhs_n, inv_tau)

    def chemotaxis(k: int, old: int, new: int) -> None:
        """Steps 3 and 4: sigma and a at new from a and sigma at old and behind."""
        inv_tau = 1.0 / traj.tau
        a, sigma = traj.a[old], traj.sigma[old]

        # 3. sigma: monotone implicit reaction with frozen a >= 0.
        a_frozen = np.maximum(a, 0.0)
        rhs_sigma = sigma * inv_tau
        rhs_sigma += spec.chi_a * a_frozen + 1.0
        traj.sigma[new] = g.helmholtz_cg(
            gr, rhs_sigma, (inv_tau + 1.0) + a_frozen, traj.extrapolate("sigma", k, like=like)
        )

        # 4. a: implicit diffusion, explicit chemotaxis against new sigma;
        # a/tau + a - a^2 is formed as a*((1/tau + 1) - a).
        rhs_a = g.divergence(gr, a, traj.sigma[new], traj.flux_scheme)
        rhs_a *= -spec.chi_a
        rhs_a += a * ((inv_tau + 1.0) - a)
        rhs_a += u_k
        traj.a[new] = g.helmholtz_direct(gr, rhs_a, inv_tau)

    traj.advance("forward", k, phase_nutrient, chemotaxis)


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
    like: Trajectory | None = None,
    on_level: Callable[[Trajectory, int], None] | None = None,
    *,
    keep=FORWARD_FIELDS,
) -> tuple[Trajectory, InvariantReport]:
    """Integrate the system on [0, T] with nt uniform steps.

    mu at step 0 is the diagnostic value -Lap(phi0) + F'(phi0); afterwards
    it is a solved unknown. Set check_admissibility=False to run
    deliberately degenerate data (used by the verification suites). like
    is an optional forward trajectory on the same grid with nt steps that
    holds every level, such as the solve for a nearby control, whose sigma
    increments start each step's CG (see step); any other like raises
    ValueError.

    on_level(traj, k), if given, is called once for each stored level
    k = 0 .. nt, in order, and may read levels 0 .. k only: for k < nt
    inside step k, ahead of its phi/mu -> n chain (see step), and for nt
    after the last step. It must not write into traj, and an error it
    raises ends the solve. After a SolverError at step j it has seen levels
    0 .. j.

    keep names the unknowns the caller reads at every level, which the
    returned trajectory stores (see Trajectory.zeros). With every unknown,
    the default, the sweep steps in place on that trajectory. With fewer,
    such as keep=(), it steps on a ring of three levels at any nt, so
    memory does not grow with nt beyond what keep stores, and every level
    is bitwise that of a stored solve; on_level then reads the ring,
    levels k - 1 and k only, since step k writes level k + 1 into the slot
    of level k - 2. A sweep on a ring reduces the report's entries for
    level k ahead of on_level(traj, k); one on a stored trajectory reduces
    all its levels after the sweep, to the same bits. Returns the
    trajectory and its per-level monitors; check_mean_ode and energy
    compute the others, check_mean_ode from a trajectory that holds phi at
    every level.
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

    traj = Trajectory.zeros(gr, np.linspace(0.0, T, nt + 1), FORWARD_FIELDS, keep,
                            s_stab=s_stab, flux_scheme=flux_scheme)
    traj.check_like(like)
    # Level 0 is in slot 0 of a ring too.
    traj.phi[0], traj.a[0], traj.n[0] = init.phi0, init.a0, init.n0
    traj.sigma[0] = init.sigma0
    traj.mu[0] = -g.laplacian(gr, init.phi0) + spec.pot.f_prime(init.phi0)
    traj.keep_level(0)
    report = InvariantReport.empty(nt)
    hook = on_level
    ring = not traj.holds_every_level
    if ring:
        def hook(traj: Trajectory, k: int) -> None:
            report.reduce(traj, k, k + 1, spec.pot)
            if on_level is not None:
                on_level(traj, k)

    for k in range(nt):
        step(traj, k, u.values[k], spec, like, hook)
    if hook is not None:
        hook(traj, nt)
    if not ring:
        report.reduce(traj, 0, nt + 1, spec.pot)
    return traj.kept, report


def energy(traj: Trajectory, k: int, spec: ModelSpec) -> float:
    """Free energy of stored level k of a forward trajectory, or of a ring.

    E = int a*(ln a - 1) - chi_phi int n*phi - chi_a int a*sigma
        + (1/2) int (|grad phi|^2 + |grad n|^2 + |grad sigma|^2) + int F(phi)

    The entropy term clamps a at 1e-14 from below.
    """
    gr = traj.grid
    j = traj.slot(k)
    phi, a, n, sigma = traj.phi[j], traj.a[j], traj.n[j], traj.sigma[j]
    a_safe = np.maximum(a, 1e-14)
    area = gr.cell_area
    ent = area * float(np.sum(a_safe * (np.log(a_safe) - 1.0)))
    coup = -spec.chi_phi * g.inner(gr, n, phi) - spec.chi_a * g.inner(gr, a, sigma)
    grads = 0.5 * (
        g.grad_norm_sq(gr, phi) + g.grad_norm_sq(gr, n) + g.grad_norm_sq(gr, sigma)
    )
    pot = area * float(np.sum(spec.pot.f_value(phi)))
    return ent + coup + grads + pot


def energy_phi_part(gr: Grid, phi: np.ndarray, spec: ModelSpec) -> float:
    """Phase-field part of the energy: (1/2) int |grad phi|^2 + int F(phi)."""
    return 0.5 * g.grad_norm_sq(gr, phi) + gr.cell_area * float(
        np.sum(spec.pot.f_value(phi))
    )


def mean_ode_residuals(traj: Trajectory, spec: ModelSpec) -> np.ndarray:
    """Per-step residuals of the mean-value ODE  d/dt mean(phi) + m*mean(phi) = mean(h(phi)).

    Measured in backward-Euler form at the new level, for k = 0 .. Nt-1:

        (mean_{k+1} - mean_k)/tau + m*mean_{k+1} - mean(h(phi_{k+1}))

    The scheme satisfies this identity with h lagged at level k, so the
    residual equals the one-step lag of mean(h(phi)) and is O(tau); it
    vanishes to round-off when h is constant (in particular h = 0 and
    h = m*r0).
    """
    traj.check_every_level("traj", ("phi",))
    means = traj.phi.mean(axis=(1, 2))
    # h(phi) one level at a time: on the whole trajectory it raises
    # peak_rss_mb by 13% on a 256^2 forward run. Level 0's is never read.
    hbar = np.array([spec.prolif.h_value(phi).mean() for phi in traj.phi[1:]])
    return np.diff(means) / traj.tau + spec.m * means[1:] - hbar


def check_mean_ode(traj: Trajectory, spec: ModelSpec) -> float:
    """Max over the steps of |mean_ode_residuals|."""
    return float(np.abs(mean_ode_residuals(traj, spec)).max())


def trajectory_distance(t1: Trajectory, t2: Trajectory) -> float:
    """Combined norm of the difference of two trajectories.

    Both must hold the same unknowns at every level (ValueError naming t1
    or t2 otherwise), which pair by name, so the norm of a tangent
    trajectory is its distance from Trajectory.zeros with its names. Sum
    over the components of sup-in-time L2 norms plus L2-in-time
    H1-seminorm contributions; mesh-independent quadratures so values are
    comparable across grids.
    """
    t1.check_every_level("t1", t2.names)
    t2.check_every_level("t2", t1.names)
    gr = t1.grid
    total = 0.0
    for name, f1 in t1.fields.items():
        d = f1 - t2.fields[name]
        l2_sq = gr.cell_area * np.einsum("kij,kij->k", d, d)
        # Per level: whole-trajectory face differences would be two more
        # temporaries the size of d.
        grad_sq = [g.grad_norm_sq(gr, level) for level in d]
        total += np.sqrt(l2_sq.max()) + np.sqrt(t1.tau * np.sum(l2_sq + grad_sq))
    return float(total)
