"""Acceptance gate: one test per criterion, each at its stated tolerance.

Reference desk scale: 16x16 grid, T = 0.5, Nt = 32, regular potential
with c1 = 1, unless a criterion states otherwise. Each test prints one
pass/fail line (visible with pytest -s or in captured output).
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from chks.cli import main
from chks.config import load_config
from chks.control_opt import (
    control_norm,
    optimize,
    reduced_gradient,
    stationarity_residual,
)
from chks.grid import Grid
from chks.potentials import PotentialSpec, ProliferationSpec
from chks.state import FORWARD_FIELDS, Control, InitialData, ModelSpec, solve_forward
from chks.verify import (
    suite_duality,
    suite_gradcheck,
    suite_invariants,
    suite_lipschitz,
    suite_taylor,
)

CONFIG_DIR = __import__("pathlib").Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def cfg():
    return load_config(CONFIG_DIR / "verify.cfg")


@pytest.fixture(scope="module")
def invariants(cfg):
    """Rows of the invariants suite by check name; criteria 6, 7, 9 and 11 read them."""
    return {r.check: r for r in suite_invariants(cfg)}


def bounded_values(rows, criterion, bounds):
    """Values of the named rows, after checking each row's threshold is the criterion's bound.

    rows maps check names to a suite's rows, so the bound tested is the one
    chks verify applies."""
    for check, bound in bounds.items():
        threshold = rows[check].threshold
        assert threshold == bound, f"{criterion}: {check} threshold {threshold!r} is not {bound!r}"
    return [rows[check].value for check in bounds]


def report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_gradient_consistency(cfg):
    results = suite_gradcheck(cfg)
    bounded_values({r.check: r for r in results}, "criterion 1",
                   {f"direction_{d}": 1e-3 for d in range(5)})
    worst = max(r.value for r in results)
    report(
        "criterion 1 (gradient consistency)",
        all(r.passed for r in results) and len(results) >= 5,
        f"max relative error {worst:.3e} <= 1e-3 over {len(results)} directions",
    )


def test_criterion_02_linearization_remainder(cfg):
    results = suite_taylor(cfg)
    bounded_values({r.check: r for r in results}, "criterion 2",
                   {"order_0.01_to_0.005": 1.5, "order_0.005_to_0.0025": 1.5})
    worst = min(r.value for r in results)
    report(
        "criterion 2 (linearization remainder)",
        all(r.passed for r in results),
        f"observed Taylor orders >= {worst:.3f} (threshold 1.5)",
    )


def test_criterion_03_adjoint_duality(cfg):
    results = suite_duality(cfg)
    bounded_values({r.check: r for r in results}, "criterion 3",
                   {"residual_nt_32": 1e-3, "residual_nt_64": 1e-3, "tau_halving_decrease": 1.5})
    res32 = next(r for r in results if r.check.startswith("residual"))
    dec = next(r for r in results if r.check == "tau_halving_decrease")
    report(
        "criterion 3 (adjoint duality)",
        res32.passed and dec.passed,
        f"residual {res32.value:.3e} <= 1e-3 at Nt=32, decrease factor "
        f"{dec.value:.2f} >= 1.5 at Nt=64",
    )


def test_criterion_04_projection_characterization():
    cfg_ic = load_config(CONFIG_DIR / "optimize_inverse_crime.cfg")
    gr, T, nt = cfg_ic.grid, cfg_ic.T, cfg_ic.nt
    tau = T / nt
    res = optimize(gr, cfg_ic.model, cfg_ic.init, cfg_ic.control_spec, cfg_ic.u0,
                   T, nt, cfg_ic.opts)
    assert res.converged, "inverse-crime optimize run did not converge"
    stat = stationarity_residual(res.u_star, res.adjoint, cfg_ic.control_spec)
    bound = 1e-6 * (1.0 + control_norm(gr, tau, res.u_star.values))
    proj_ok = stat <= bound

    grad = reduced_gradient(res.adjoint, res.u_star, cfg_ic.control_spec.b3)
    rng = np.random.default_rng(cfg_ic.seed)
    worst_vi = np.inf
    for _ in range(20):
        utest = rng.uniform(0.0, 1.0, res.u_star.values.shape)
        vi = tau * gr.cell_area * float(np.sum(grad * (utest - res.u_star.values)))
        du = control_norm(gr, tau, utest - res.u_star.values)
        worst_vi = min(worst_vi, vi / du)
    vi_ok = worst_vi >= -1e-8
    report(
        "criterion 4 (projection characterization)",
        proj_ok and vi_ok,
        f"||u*-P(-p3/b3)|| = {stat:.3e} <= {bound:.3e}; worst normalized "
        f"variational-inequality value {worst_vi:.3e} >= -1e-8",
    )


def test_criterion_05_trivial_optimum():
    cfg_t = load_config(CONFIG_DIR / "trivial_optimum.cfg")
    gr, T, nt = cfg_t.grid, cfg_t.T, cfg_t.nt
    res = optimize(gr, cfg_t.model, cfg_t.init, cfg_t.control_spec, cfg_t.u0,
                   T, nt, cfg_t.opts)
    u_norm = control_norm(gr, T / nt, res.u_star.values)
    report(
        "criterion 5 (trivial optimum)",
        res.converged
        and res.iterations <= 5
        and res.stationarity_history[-1] <= 1e-8
        and u_norm <= 1e-8,
        f"converged in {res.iterations} iterations, stationarity "
        f"{res.stationarity_history[-1]:.2e} <= 1e-8, ||u*|| = {u_norm:.2e}",
    )


def test_criterion_06_sigma_maximum_principle(invariants):
    lo, hi = bounded_values(invariants, "criterion 6",
                            {"sigma_min": -1e-8, "sigma_max": 1.0 + 1e-8})
    report(
        "criterion 6 (sigma maximum principle)",
        lo >= -1e-8 and hi <= 1.0 + 1e-8,
        f"sigma in [{lo:.3e}, {hi:.6f}] over the 12 matrix runs "
        "(both potentials, both flux schemes, 3 seeds)",
    )


def test_criterion_07_mean_value_ode(invariants):
    stationary, decay, ratio = bounded_values(invariants, "criterion 7", {
        "mean_ode_stationary_residual": 1e-12,
        "mean_ode_decay_residual": 1e-12,
        "mean_ode_tau_halving_ratio": 1.6,
    })
    report(
        "criterion 7 (mean-value ODE)",
        stationary <= 1e-12 and decay <= 1e-12 and 1.6 <= ratio <= 2.4,
        f"stationary residual {stationary:.2e} <= 1e-12, decay residual {decay:.2e} "
        f"<= 1e-12, halving ratio {ratio:.3f} in [1.6, 2.4]",
    )


def test_criterion_08_homogeneous_ode_equivalence():
    gr = Grid(16, 16)
    spec = ModelSpec(
        m=1.0, chi_phi=0.2, chi_a=0.3, c_phi=0.1, c_n=-1.0, c_sigma=0.1, c_0=0.0,
        pot=PotentialSpec("regular", c1=1.0), prolif=ProliferationSpec("zero"),
    )
    phi0, a0 = 0.005, 1.0
    sigma0 = (1.0 + spec.chi_a) / 2.0
    n0 = spec.c_sigma * sigma0 / -spec.c_n
    T = 0.5
    nt = 5000  # tau = 1e-4
    init = InitialData(
        phi0=np.full(gr.shape, phi0),
        a0=np.full(gr.shape, a0),
        n0=np.full(gr.shape, n0),
        sigma0=np.full(gr.shape, sigma0),
    )
    u = Control(np.zeros((nt, gr.nx, gr.ny)), 1.0)
    traj, _ = solve_forward(gr, spec, init, u, T, nt, keep=FORWARD_FIELDS)

    def rhs(t, y):
        phi, a, n, sigma = y
        return [
            -spec.m * phi,
            a - a * a,
            (spec.chi_phi + spec.c_phi) * phi + spec.c_n * n + spec.c_sigma * sigma,
            (1.0 - sigma) + a * (spec.chi_a - sigma),
        ]

    ref = solve_ivp(rhs, (0, T), [phi0, a0, n0, sigma0], rtol=1e-12, atol=1e-14)
    got = np.array([traj.phi[-1, 0, 0], traj.a[-1, 0, 0],
                    traj.n[-1, 0, 0], traj.sigma[-1, 0, 0]])
    sup_err = float(np.abs(got - ref.y[:, -1]).max())
    report(
        "criterion 8 (homogeneous ODE equivalence)",
        sup_err <= 1e-6,
        f"sup error {sup_err:.3e} <= 1e-6 at T with tau = 1e-4",
    )


def test_criterion_09_decoupled_energy_stability(invariants):
    worst = max(bounded_values(invariants, "criterion 9", {
        f"decoupled_energy_increase_seed{i}": 1e-11 for i in range(3)
    }))
    report(
        "criterion 9 (decoupled phase-field energy stability)",
        worst <= 1e-11,
        f"max one-step energy increase {worst:.2e} <= 1e-11 over 3 seeds "
        "at the default stabilization",
    )


def test_criterion_10_empirical_continuous_dependence(cfg):
    results = suite_lipschitz(cfg)
    bounded_values({r.check: r for r in results}, "criterion 10",
                   {"max_ratio_16": np.inf, "max_ratio_32": np.inf, "grid_refinement_factor": 3.0})
    by_name = {r.check: r for r in results}
    factor = by_name["grid_refinement_factor"]
    finite = all(np.isfinite(r.value) for r in results)
    report(
        "criterion 10 (empirical continuous dependence)",
        finite and factor.passed,
        f"max Lipschitz ratios {by_name['max_ratio_16'].value:.3f} (16^2) vs "
        f"{by_name['max_ratio_32'].value:.3f} (32^2), grid factor "
        f"{factor.value:.3f} <= 3",
    )


def test_criterion_11_positivity_of_a(invariants):
    worst, a_abs = bounded_values(invariants, "criterion 11",
                                  {"a_min_upwind": -1e-10, "a_zero_equilibrium": 0.0})
    report(
        "criterion 11 (positivity of a)",
        worst >= -1e-10 and a_abs == 0.0,
        f"min a = {worst:.3e} >= -1e-10 over the 6 upwind matrix runs; "
        f"a stays exactly zero from zero data (max |a| = {a_abs})",
    )


def test_criterion_12_determinism(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    cfg_path = str(CONFIG_DIR / "simulate.cfg")
    assert main(["simulate", cfg_path, "--out", str(out1)]) == 0
    assert main(["simulate", cfg_path, "--out", str(out2)]) == 0
    same_series = (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()
    snaps = sorted(out1.glob("*.fld"))
    same_snaps = all(
        s.read_bytes() == (out2 / s.name).read_bytes() for s in snaps
    )
    report(
        "criterion 12 (determinism)",
        same_series and same_snaps and len(snaps) == 5 * 33,
        f"series.csv and {len(snaps)} snapshots bit-identical across reruns",
    )
