"""Oracle suites: gradient check, Taylor sweep, adjoint duality, structural
invariants, and the empirical continuous-dependence (Lipschitz) ratio.

Each suite returns a list of CheckResult rows; the CLI writes them to
verify_report.csv and exits nonzero when any row fails. Tests reuse the
same functions so the command line and the test suite agree on what was
measured. All randomness derives from the config seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grid as g
from .adjoint import ControlSpec, duality_residual, solve_adjoint
from .config import RunConfig, generate_field
from .control_opt import control_norm, cost, reduced_gradient
from .grid import Grid
from .linearized import solve_linearized, taylor_remainders
from .potentials import PotentialSpec, ProliferationSpec
from .state import (
    Control,
    InitialData,
    ModelSpec,
    energy_phi_part,
    solve_forward,
    trajectory_distance,
)


@dataclass
class CheckResult:
    suite: str
    check: str
    value: float
    threshold: float
    passed: bool
    note: str = ""

    def row(self) -> dict:
        return {
            "suite": self.suite,
            "check": self.check,
            "value": f"{self.value:.6e}",
            "threshold": f"{self.threshold:.6e}",
            "passed": int(self.passed),
            "note": self.note,
        }


REPORT_COLUMNS = ["suite", "check", "value", "threshold", "passed", "note"]


def _smooth_direction(gr: Grid, nt: int, rng: np.random.Generator, modes: int = 2) -> np.ndarray:
    """Smooth, bounded control-shaped direction with entries in [-1, 1]."""
    x, y = gr.cell_centers()
    out = np.zeros((nt, gr.nx, gr.ny))
    for k in range(nt):
        f = np.zeros(gr.shape)
        for kx in range(modes + 1):
            for ky in range(modes + 1):
                f += rng.normal() * np.cos(kx * np.pi * x / gr.lx) * np.cos(
                    ky * np.pi * y / gr.ly
                )
        peak = float(np.abs(f).max())
        out[k] = f / peak if peak > 0 else f
    return out


def _interior_control(cfg: RunConfig, rng: np.random.Generator) -> Control:
    """Admissible control bounded away from both box faces."""
    umax = cfg.control_spec.u_max
    base = 0.5 * umax * np.ones((cfg.nt, cfg.grid.nx, cfg.grid.ny))
    wig = 0.2 * umax * _smooth_direction(cfg.grid, cfg.nt, rng)
    return Control(base + wig, umax)


def _forward(cfg: RunConfig, u: Control, nt: int | None = None):
    return solve_forward(
        cfg.grid,
        cfg.model,
        cfg.init,
        u,
        cfg.T,
        nt if nt is not None else cfg.nt,
        s_stab=cfg.s_stab,
        flux_scheme=cfg.flux_scheme,
    )


def suite_gradcheck(
    cfg: RunConfig, n_directions: int = 5, eps: float = 1e-4, threshold: float = 1e-3
) -> list[CheckResult]:
    """Adjoint directional derivative against central finite differences of J."""
    rng = np.random.default_rng(cfg.seed)
    gr, nt, tau = cfg.grid, cfg.nt, cfg.tau
    cs = cfg.control_spec
    u = _interior_control(cfg, rng)
    traj, _ = _forward(cfg, u)
    adj = solve_adjoint(traj, cs, cfg.model)
    grad = reduced_gradient(adj, u, cs.b3)

    results = []
    for d in range(n_directions):
        h = _smooth_direction(gr, nt, rng)
        directional = tau * g.inner(gr, grad, h)
        u_p = Control(u.values + eps * h, u.u_max)
        u_m = Control(u.values - eps * h, u.u_max)
        j_p = cost(_forward(cfg, u_p)[0], u_p, cs)
        j_m = cost(_forward(cfg, u_m)[0], u_m, cs)
        fd = (j_p - j_m) / (2.0 * eps)
        rel = abs(directional - fd) / max(abs(fd), 1e-30)
        results.append(
            CheckResult("gradcheck", f"direction_{d}", rel, threshold, rel <= threshold,
                        f"adjoint={directional:.8e} fd={fd:.8e}")
        )
    return results


def suite_taylor(
    cfg: RunConfig,
    epsilons: tuple[float, ...] = (1e-2, 5e-3, 2.5e-3),
    min_order: float = 1.5,
) -> list[CheckResult]:
    """Decay order of || S(u + eps h) - S(u) - eps lin(h) || under eps halving."""
    rng = np.random.default_rng(cfg.seed + 1)
    u = _interior_control(cfg, rng)
    h = _smooth_direction(cfg.grid, cfg.nt, rng)
    # Keep u +/- eps*h admissible for every eps in the sweep.
    margin = max(epsilons)
    umax = cfg.control_spec.u_max
    u = Control(np.clip(u.values, 1.5 * margin, umax - 1.5 * margin), umax)
    traj, _ = _forward(cfg, u)
    rem = taylor_remainders(traj, cfg.model, cfg.init, u, h, list(epsilons))
    results = []
    for i in range(len(epsilons) - 1):
        ratio = epsilons[i] / epsilons[i + 1]
        order = math.log(rem[i] / rem[i + 1]) / math.log(ratio) if rem[i + 1] > 0 else 2.0
        results.append(
            CheckResult("taylor", f"order_{epsilons[i]:g}_to_{epsilons[i+1]:g}",
                        order, min_order, order >= min_order,
                        f"remainders {rem[i]:.3e} -> {rem[i+1]:.3e}")
        )
    return results


def suite_duality(
    cfg: RunConfig, threshold: float = 1e-3, min_decrease: float = 1.5
) -> list[CheckResult]:
    """Duality residual at Nt and 2*Nt on the same grid.

    The control and the direction are drawn once on the coarse step grid
    and refined by slice repetition, so the two residuals measure the
    same problem at two resolutions. The direction is coherent in time (a
    fixed spatial pattern under a smooth profile): a slicewise-random
    direction has a near-cancelling time integral, which would leave the
    relative residual comparing discretization artifacts instead of the
    duality gap.
    """
    rng = np.random.default_rng(cfg.seed + 2)
    umax = cfg.control_spec.u_max
    u_pattern = _smooth_direction(cfg.grid, 1, rng)[0]
    u_coarse = np.repeat(
        (0.5 * umax * np.ones(cfg.grid.shape) + 0.2 * umax * u_pattern)[None],
        cfg.nt, axis=0,
    )
    h_pattern = _smooth_direction(cfg.grid, 1, np.random.default_rng(cfg.seed + 3))[0]
    t_mid = (np.arange(cfg.nt) + 0.5) * (cfg.T / cfg.nt)
    profile = np.sin(np.pi * t_mid / cfg.T)
    h_coarse = profile[:, None, None] * h_pattern[None]
    residuals = {}
    for factor in (1, 2):
        nt = cfg.nt * factor
        u = Control(np.repeat(u_coarse, factor, axis=0), cfg.control_spec.u_max)
        h = np.repeat(h_coarse, factor, axis=0)
        cs = ControlSpec(
            b1=cfg.control_spec.b1,
            b2=cfg.control_spec.b2,
            b3=cfg.control_spec.b3,
            phi_q=np.repeat(cfg.control_spec.phi_q, factor, axis=0),
            phi_omega=cfg.control_spec.phi_omega,
            u_max=cfg.control_spec.u_max,
        )
        traj, _ = _forward(cfg, u, nt=nt)
        adj = solve_adjoint(traj, cs, cfg.model)
        lin = solve_linearized(traj, cfg.model, h)
        residuals[factor] = duality_residual(traj, adj, h, lin, cs)
    res1, res2 = residuals[1], residuals[2]
    decrease = res1 / res2 if res2 > 0 else math.inf
    tau = cfg.T / cfg.nt
    return [
        CheckResult("duality", f"residual_nt_{cfg.nt}", res1, threshold,
                    res1 <= threshold, f"tau={tau:.6g}"),
        CheckResult("duality", f"residual_nt_{2 * cfg.nt}", res2, threshold,
                    res2 <= threshold, f"tau={tau / 2:.6g}"),
        CheckResult("duality", "tau_halving_decrease", decrease, min_decrease,
                    decrease >= min_decrease, f"{res1:.3e} -> {res2:.3e}"),
    ]


def _matrix_specs(cfg: RunConfig, seed: int):
    """The verify matrix: both potentials x both flux schemes x 3 seeds."""
    for pot_kind in ("regular", "logarithmic"):
        for scheme in ("centered", "upwind"):
            for run_seed in (seed, seed + 1, seed + 2):
                yield pot_kind, scheme, run_seed


def _matrix_case(cfg: RunConfig, pot_kind: str, run_seed: int):
    """Admissible model/data/control for one verify-matrix run."""
    rng = np.random.default_rng(run_seed)
    gr = cfg.grid
    if pot_kind == "regular":
        pot = PotentialSpec("regular", c1=1.0)
        prolif = ProliferationSpec("logistic", h0=0.5, k=1.0)
        phi_rng = (0.1, 0.9)
    else:
        pot = PotentialSpec("logarithmic", c2=2.0)
        # Keep h close to m*r0 so the mean-endpoint condition holds.
        prolif = ProliferationSpec("constant", h0=0.5)
        phi_rng = (0.35, 0.65)
    model = ModelSpec(pot=pot, prolif=prolif)
    init = InitialData(
        phi0=generate_field(gr, f"random_smooth {phi_rng[0]} {phi_rng[1]} 2", rng),
        a0=generate_field(gr, "random_smooth 0.2 1.0 2", rng),
        n0=generate_field(gr, "random_smooth -0.2 0.2 2", rng),
        sigma0=generate_field(gr, "random_smooth 0.0 1.0 2", rng),
    )
    u_vals = np.clip(
        0.4 + 0.3 * _smooth_direction(gr, cfg.nt, rng), 0.0, 1.0
    )
    return model, init, Control(u_vals, 1.0)


def suite_invariants(cfg: RunConfig) -> list[CheckResult]:
    """Structural monitors: sigma range, positivity of a, mean ODE, energy."""
    results = []
    gr = cfg.grid

    # sigma maximum principle and a-positivity across the matrix.
    sig_lo, sig_hi = 0.0, 1.0
    a_min_upwind = math.inf
    clamp_total = 0
    for pot_kind, scheme, run_seed in _matrix_specs(cfg, cfg.seed + 10):
        model, init, u = _matrix_case(cfg, pot_kind, run_seed)
        traj, report = solve_forward(
            gr, model, init, u, cfg.T, cfg.nt, flux_scheme=scheme
        )
        sig_lo = min(sig_lo, report.sigma_min)
        sig_hi = max(sig_hi, report.sigma_max)
        if scheme == "upwind":
            a_min_upwind = min(a_min_upwind, report.a_min)
        if pot_kind == "logarithmic":
            clamp_total += int(report.clamp_events.sum())
    results.append(CheckResult("invariants", "sigma_min", sig_lo, -1e-8, sig_lo >= -1e-8))
    results.append(CheckResult("invariants", "sigma_max", sig_hi, 1.0 + 1e-8, sig_hi <= 1.0 + 1e-8))
    results.append(CheckResult("invariants", "a_min_upwind", a_min_upwind, -1e-10,
                               a_min_upwind >= -1e-10))
    results.append(CheckResult("invariants", "log_clamp_events", float(clamp_total), 0.0,
                               clamp_total == 0))

    # a stays identically zero from zero data with no source.
    model, init, _ = _matrix_case(cfg, "regular", cfg.seed + 20)
    init.a0 = np.zeros(gr.shape)
    u0 = Control(np.zeros((cfg.nt, gr.nx, gr.ny)), 1.0)
    traj, _ = solve_forward(
        gr, model, init, u0, cfg.T, cfg.nt,
        flux_scheme="upwind", check_admissibility=False,
    )
    a_abs = float(np.abs(traj.a).max())
    results.append(CheckResult("invariants", "a_zero_equilibrium", a_abs, 0.0, a_abs == 0.0))

    # Mean ODE: stationary closed form (h = m*r0, logarithmic potential).
    model_s = ModelSpec(
        pot=PotentialSpec("logarithmic", c2=2.0), prolif=ProliferationSpec("constant", h0=0.5)
    )
    rng = np.random.default_rng(cfg.seed + 30)
    phi0 = generate_field(gr, "random_smooth 0.4 0.6 2", rng)
    phi0 = phi0 - phi0.mean() + 0.5  # pin the mean at r0
    init_s = InitialData(
        phi0=np.clip(phi0, 0.35, 0.65),
        a0=generate_field(gr, "random_smooth 0.3 0.9 2", rng),
        n0=generate_field(gr, "random_smooth -0.1 0.1 2", rng),
        sigma0=generate_field(gr, "random_smooth 0.1 0.9 2", rng),
    )
    init_s.phi0 = init_s.phi0 - init_s.phi0.mean() + 0.5
    u_mid = Control(0.3 * np.ones((cfg.nt, gr.nx, gr.ny)), 1.0)
    traj_s, report_s = solve_forward(gr, model_s, init_s, u_mid, cfg.T, cfg.nt)
    mean_dev = float(np.abs(traj_s.phi.mean(axis=(1, 2)) - 0.5).max())
    results.append(CheckResult("invariants", "mean_ode_stationary_residual",
                               report_s.mean_ode_residual, 1e-12,
                               report_s.mean_ode_residual <= 1e-12))
    results.append(CheckResult("invariants", "mean_ode_stationary_mean_drift",
                               mean_dev, 1e-12, mean_dev <= 1e-12))

    # Mean ODE: implicit-Euler decay closed form (h = 0, regular potential).
    model_d = ModelSpec(pot=PotentialSpec("regular", c1=1.0), prolif=ProliferationSpec("zero"))
    init_d = InitialData(
        phi0=generate_field(gr, "random_smooth 0.1 0.5 2", rng),
        a0=generate_field(gr, "random_smooth 0.3 0.9 2", rng),
        n0=generate_field(gr, "random_smooth -0.1 0.1 2", rng),
        sigma0=generate_field(gr, "random_smooth 0.1 0.9 2", rng),
    )
    traj_d, report_d = solve_forward(gr, model_d, init_d, u_mid, cfg.T, cfg.nt)
    tau = cfg.tau
    means = traj_d.phi.mean(axis=(1, 2))
    expected = means[0] * (1.0 + model_d.m * tau) ** (-np.arange(cfg.nt + 1))
    decay_dev = float(np.abs(means - expected).max())
    results.append(CheckResult("invariants", "mean_ode_decay_residual",
                               report_d.mean_ode_residual, 1e-12,
                               report_d.mean_ode_residual <= 1e-12))
    results.append(CheckResult("invariants", "mean_ode_decay_closed_form",
                               decay_dev, 1e-12, decay_dev <= 1e-12))

    # Mean ODE: generic residual halves with tau.
    model_g, init_g, u_g = _matrix_case(cfg, "regular", cfg.seed + 40)
    _, rep_1 = solve_forward(gr, model_g, init_g, u_g, cfg.T, cfg.nt)
    u_g2 = Control(np.repeat(u_g.values, 2, axis=0), u_g.u_max)
    _, rep_2 = solve_forward(gr, model_g, init_g, u_g2, cfg.T, 2 * cfg.nt)
    ratio = rep_1.mean_ode_residual / rep_2.mean_ode_residual
    results.append(CheckResult("invariants", "mean_ode_tau_halving_ratio", ratio, 1.6,
                               1.6 <= ratio <= 2.4, "target 2.0 +/- 20%"))

    # Decoupled phase-field energy stability at the default stabilization.
    for i, run_seed in enumerate((cfg.seed + 50, cfg.seed + 51, cfg.seed + 52)):
        worst = energy_stability_worst_increase(gr, cfg.T, cfg.nt, run_seed)
        results.append(CheckResult("invariants", f"decoupled_energy_increase_seed{i}",
                                   worst, 1e-11, worst <= 1e-11,
                                   "max one-step increase of the phase energy"))
    return results


def energy_stability_worst_increase(gr: Grid, T: float, nt: int, seed: int) -> float:
    """Largest one-step increase of the phase energy in the decoupled run.

    chi_phi = 0, m = 0, h = 0 decouple the phase-field pair from the other
    unknowns; the stabilized semi-implicit step, at the potential's default
    s_stab, should then dissipate (1/2)|grad phi|^2 + F(phi) at every step.
    """
    model = ModelSpec(m=0.0, chi_phi=0.0, c_phi=0.0, c_sigma=0.0)  # regular c1 = 1, h = 0
    rng = np.random.default_rng(seed)
    init = InitialData(
        phi0=generate_field(gr, "random_smooth 0.05 0.95 3", rng),
        a0=np.ones(gr.shape),
        n0=np.zeros(gr.shape),
        sigma0=0.5 * np.ones(gr.shape),
    )
    u = Control(np.zeros((nt, gr.nx, gr.ny)), 1.0)
    traj, _ = solve_forward(gr, model, init, u, T, nt, check_admissibility=False)
    energies = np.array([energy_phi_part(gr, traj.phi[k], model) for k in range(nt + 1)])
    return float(np.max(np.diff(energies)))


def suite_lipschitz(
    cfg: RunConfig, n_pairs: int = 10, max_factor: float = 3.0
) -> list[CheckResult]:
    """Empirical Lipschitz ratio of the control-to-state map on two grids."""
    ratios = {}
    for nx in (16, 32):
        gr = Grid(nx, nx, cfg.grid.lx, cfg.grid.ly)
        rng = np.random.default_rng(cfg.seed + 60)
        model, _, _ = _matrix_case(cfg, "regular", cfg.seed + 61)
        init = InitialData(
            phi0=generate_field(gr, "random_smooth 0.2 0.8 2", rng),
            a0=generate_field(gr, "random_smooth 0.3 1.0 2", rng),
            n0=generate_field(gr, "random_smooth -0.1 0.1 2", rng),
            sigma0=generate_field(gr, "random_smooth 0.1 0.9 2", rng),
        )
        worst = 0.0
        for _ in range(n_pairs):
            u1 = Control(np.clip(0.5 + 0.4 * _smooth_direction(gr, cfg.nt, rng), 0, 1), 1.0)
            u2 = Control(np.clip(0.5 + 0.4 * _smooth_direction(gr, cfg.nt, rng), 0, 1), 1.0)
            t1, _ = solve_forward(gr, model, init, u1, cfg.T, cfg.nt)
            t2, _ = solve_forward(gr, model, init, u2, cfg.T, cfg.nt)
            du = control_norm(gr, cfg.tau, u1.values - u2.values)
            if du > 0:
                worst = max(worst, trajectory_distance(t1, t2) / du)
        ratios[nx] = worst
    factor = max(ratios[16], ratios[32]) / min(ratios[16], ratios[32])
    finite = all(math.isfinite(v) for v in ratios.values())
    return [
        CheckResult("lipschitz", "max_ratio_16", ratios[16], math.inf, finite,
                    "finiteness only"),
        CheckResult("lipschitz", "max_ratio_32", ratios[32], math.inf, finite,
                    "finiteness only"),
        CheckResult("lipschitz", "grid_refinement_factor", factor, max_factor,
                    factor <= max_factor),
    ]


SUITES = {
    "gradcheck": suite_gradcheck,
    "taylor": suite_taylor,
    "duality": suite_duality,
    "invariants": suite_invariants,
    "lipschitz": suite_lipschitz,
}


def run_suites(cfg: RunConfig, which: str) -> list[CheckResult]:
    if which == "all":
        names = list(SUITES)
    elif which in SUITES:
        names = [which]
    else:
        raise ValueError(f"unknown verify suite {which!r}; choose from "
                         f"{', '.join(SUITES)} or 'all'")
    results = []
    for name in names:
        results.extend(SUITES[name](cfg))
    return results
