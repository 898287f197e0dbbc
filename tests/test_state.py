"""Forward solver: scalar oracles, maximum principles, mean ODE, energy law."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from chks.grid import Grid, SolverError
from chks.potentials import AdmissibilityError, PotentialSpec, ProliferationSpec
from chks.state import (
    Control,
    InitialData,
    ModelSpec,
    State,
    energy,
    solve_forward,
    step,
)
from chks.verify import energy_stability_worst_increase


def base_model(**kw):
    defaults = dict(
        m=1.0, chi_phi=0.2, chi_a=0.3, c_phi=0.1, c_n=-1.0, c_sigma=0.1, c_0=0.0,
        pot=PotentialSpec("regular", c1=1.0),
        prolif=ProliferationSpec("logistic", h0=0.5, k=1.0),
    )
    defaults.update(kw)
    return ModelSpec(**defaults)


def homogeneous_state(grid, phi, a, n, sigma, spec):
    const = lambda v: np.full(grid.shape, float(v))
    mu = spec.pot.f_prime(const(phi))  # Laplacian of a constant vanishes
    return State(const(phi), mu, const(a), const(n), const(sigma))


def scalar_imex_step(vals, u, spec, tau, s_stab):
    """Scalar reimplementation of one IMEX step for homogeneous states."""
    phi, a, n, sigma = vals
    phi_new = (phi / tau + float(spec.prolif.h_value(phi))) / (1.0 / tau + spec.m)
    a_pos = max(a, 0.0)
    sigma_new = (sigma / tau + 1.0 + spec.chi_a * a_pos) / (1.0 / tau + 1.0 + a_pos)
    n_new = (
        n / tau
        + (spec.chi_phi + spec.c_phi) * phi_new
        + spec.c_n * n
        + spec.c_sigma * sigma
        + spec.c_0
    ) * tau
    a_new = (a / tau + a - a * a + u) * tau
    return phi_new, a_new, n_new, sigma_new


def test_step_matches_scalar_oracle_on_homogeneous_state():
    grid = Grid(16, 16)
    spec = base_model()
    tau, s_stab = 0.02, 0.5
    st = homogeneous_state(grid, 0.4, 0.8, 0.1, 0.6, spec)
    u = np.full(grid.shape, 0.3)
    new = step(grid, st, u, spec, tau, s_stab)
    ph, an, nn, sn = scalar_imex_step((0.4, 0.8, 0.1, 0.6), 0.3, spec, tau, s_stab)
    np.testing.assert_allclose(new.phi, ph, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(new.a, an, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(new.n, nn, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(new.sigma, sn, rtol=1e-12, atol=1e-13)
    mu_expect = float(spec.pot.f_prime(0.4)) + s_stab * (ph - 0.4)
    np.testing.assert_allclose(new.mu, mu_expect, rtol=1e-11, atol=1e-13)


def test_step_zero_a_is_equilibrium():
    grid = Grid(8, 8)
    spec = base_model()
    st = homogeneous_state(grid, 0.5, 0.0, 0.0, 0.5, spec)
    st.a[:] = 0.0
    new = step(grid, st, np.zeros(grid.shape), spec, 0.05, 0.5)
    assert np.all(new.a == 0.0)


def test_sigma_relaxation_closed_form_and_first_order():
    # With a = 0 the sigma update is implicit Euler for sigma' = 1 - sigma.
    grid = Grid(8, 8)
    spec = base_model()
    s_bar = 0.2
    T = 0.5

    def run(nt):
        tau = T / nt
        st = homogeneous_state(grid, 0.5, 0.0, 0.0, s_bar, spec)
        st.a[:] = 0.0
        vals = [s_bar]
        for _ in range(nt):
            st = step(grid, st, np.zeros(grid.shape), spec, tau, 0.5)
            vals.append(float(st.sigma[0, 0]))
        discrete = s_bar
        for k in range(1, nt + 1):
            discrete = (discrete / tau + 1.0) * tau / (1.0 + tau)
        assert vals[-1] == pytest.approx(discrete, rel=1e-12)
        return vals[-1]

    exact = 1.0 + (s_bar - 1.0) * np.exp(-T)
    err = [abs(run(nt) - exact) for nt in (16, 32, 64)]
    assert err[0] / err[1] == pytest.approx(2.0, rel=0.15)
    assert err[1] / err[2] == pytest.approx(2.0, rel=0.15)


def test_forward_homogeneous_matches_adaptive_ode_reference():
    # Gentle near-equilibrium config integrated at tau = 2.5e-4; the full
    # acceptance criterion repeats this at tau = 1e-4 with a 1e-6 bound.
    grid = Grid(8, 8)
    spec = base_model(prolif=ProliferationSpec("zero"))
    phi0, a0 = 0.005, 1.0
    sigma0 = (1.0 + spec.chi_a) / 2.0
    n0 = spec.c_sigma * sigma0 / -spec.c_n
    T, nt = 0.5, 2000

    init = InitialData(
        phi0=np.full(grid.shape, phi0),
        a0=np.full(grid.shape, a0),
        n0=np.full(grid.shape, n0),
        sigma0=np.full(grid.shape, sigma0),
    )
    u = Control(np.zeros((nt, grid.nx, grid.ny)), 1.0)
    traj, _ = solve_forward(grid, spec, init, u, T, nt)

    def rhs(t, y):
        phi, a, n, sigma = y
        return [
            -spec.m * phi,
            a - a * a,
            (spec.chi_phi + spec.c_phi) * phi + spec.c_n * n + spec.c_sigma * sigma,
            (1.0 - sigma) + a * (spec.chi_a - sigma),
        ]

    ref = solve_ivp(rhs, (0, T), [phi0, a0, n0, sigma0], rtol=1e-12, atol=1e-14,
                    dense_output=True)
    y_end = ref.sol(T)
    got = [traj.phi[-1, 0, 0], traj.a[-1, 0, 0], traj.n[-1, 0, 0], traj.sigma[-1, 0, 0]]
    assert max(abs(g - e) for g, e in zip(got, y_end)) <= 3e-6


def make_random_init(grid, seed, phi_rng=(0.1, 0.9)):
    rng = np.random.default_rng(seed)
    x, y = grid.cell_centers()

    def smooth(lo, hi):
        f = sum(
            rng.normal() * np.cos(kx * np.pi * x) * np.cos(ky * np.pi * y)
            for kx in range(3)
            for ky in range(3)
        )
        f = (f - f.min()) / max(f.max() - f.min(), 1e-12)
        return lo + (hi - lo) * f

    return InitialData(
        phi0=smooth(*phi_rng),
        a0=smooth(0.2, 1.0),
        n0=smooth(-0.2, 0.2),
        sigma0=smooth(0.0, 1.0),
    )


def test_sigma_maximum_principle_random_runs():
    grid = Grid(16, 16)
    spec = base_model()
    for seed in (0, 1):
        init = make_random_init(grid, seed)
        u = Control(0.5 * np.ones((32, grid.nx, grid.ny)), 1.0)
        _, report = solve_forward(grid, spec, init, u, 0.5, 32)
        assert report.sigma_min >= -1e-8
        assert report.sigma_max <= 1.0 + 1e-8


def test_mean_ode_stationary_and_decay():
    grid = Grid(16, 16)
    # Stationary: h = m*r0 with the logarithmic potential, mean pinned at 1/2.
    spec_s = base_model(
        pot=PotentialSpec("logarithmic", c2=2.0),
        prolif=ProliferationSpec("constant", h0=0.5),
    )
    init = make_random_init(grid, 3, phi_rng=(0.4, 0.6))
    init.phi0 = init.phi0 - init.phi0.mean() + 0.5
    u = Control(0.2 * np.ones((32, grid.nx, grid.ny)), 1.0)
    traj, report = solve_forward(grid, spec_s, init, u, 0.5, 32)
    assert report.mean_ode_residual <= 1e-12
    np.testing.assert_allclose(traj.phi.mean(axis=(1, 2)), 0.5, rtol=0, atol=1e-13)

    # Decay: h = 0 follows the implicit-Euler geometric sequence exactly.
    spec_d = base_model(prolif=ProliferationSpec("zero"))
    init_d = make_random_init(grid, 4, phi_rng=(0.2, 0.6))
    traj_d, report_d = solve_forward(grid, spec_d, init_d, u, 0.5, 32)
    tau = 0.5 / 32
    means = traj_d.phi.mean(axis=(1, 2))
    expected = means[0] * (1.0 + spec_d.m * tau) ** (-np.arange(33))
    np.testing.assert_allclose(means, expected, rtol=0, atol=1e-13)
    assert report_d.mean_ode_residual <= 1e-12


def test_mean_ode_residual_halves_with_tau():
    grid = Grid(16, 16)
    spec = base_model()  # logistic proliferation: genuinely nonlinear mean ODE
    init = make_random_init(grid, 5)
    res = {}
    for nt in (32, 64):
        u = Control(0.3 * np.ones((nt, grid.nx, grid.ny)), 1.0)
        _, report = solve_forward(grid, spec, init, u, 0.5, nt)
        res[nt] = report.mean_ode_residual
    ratio = res[32] / res[64]
    assert 1.6 <= ratio <= 2.4


def test_energy_entropy_term_only():
    grid = Grid(10, 10)  # unit square
    spec = base_model()
    st = State(
        phi=np.zeros(grid.shape),
        mu=np.zeros(grid.shape),
        a=np.ones(grid.shape),
        n=np.zeros(grid.shape),
        sigma=np.zeros(grid.shape),
    )
    assert energy(grid, st, spec) == pytest.approx(-1.0, rel=1e-13)


def test_energy_shift_in_n_changes_coupling_only():
    grid = Grid(12, 12)
    spec = base_model()
    rng = np.random.default_rng(9)
    st = State(
        phi=rng.uniform(0.1, 0.9, grid.shape),
        mu=np.zeros(grid.shape),
        a=rng.uniform(0.5, 1.5, grid.shape),
        n=rng.standard_normal(grid.shape),
        sigma=rng.uniform(0, 1, grid.shape),
    )
    c = 0.37
    shifted = State(st.phi, st.mu, st.a, st.n + c, st.sigma)
    delta = energy(grid, shifted, spec) - energy(grid, st, spec)
    expected = -spec.chi_phi * c * grid.cell_area * st.phi.sum()
    assert delta == pytest.approx(expected, rel=1e-10)


def test_decoupled_energy_stability_at_default_s_stab():
    grid = Grid(16, 16)
    for seed in (11, 12, 13):
        worst = energy_stability_worst_increase(grid, 0.5, 32, seed)
        assert worst <= 1e-11


def test_determinism_bitwise():
    grid = Grid(16, 16)
    spec = base_model()
    init = make_random_init(grid, 21)
    u = Control(0.4 * np.ones((16, grid.nx, grid.ny)), 1.0)
    t1, _ = solve_forward(grid, spec, init, u, 0.25, 16)
    t2, _ = solve_forward(grid, spec, init, u, 0.25, 16)
    for name in ("phi", "mu", "a", "n", "sigma"):
        assert getattr(t1, name).tobytes() == getattr(t2, name).tobytes()


def test_mu0_is_diagnostic_formula():
    grid = Grid(16, 16)
    spec = base_model()
    init = make_random_init(grid, 22)
    u = Control(np.zeros((4, grid.nx, grid.ny)), 1.0)
    traj, _ = solve_forward(grid, spec, init, u, 0.1, 4)
    from chks.grid import laplacian

    np.testing.assert_allclose(
        traj.mu[0], -laplacian(grid, init.phi0) + spec.pot.f_prime(init.phi0),
        rtol=1e-12, atol=1e-13,
    )


def test_separation_monitor_logarithmic():
    grid = Grid(16, 16)
    spec = base_model(
        pot=PotentialSpec("logarithmic", c2=2.0),
        prolif=ProliferationSpec("constant", h0=0.5),
    )
    init = make_random_init(grid, 23, phi_rng=(0.35, 0.65))
    u = Control(0.3 * np.ones((32, grid.nx, grid.ny)), 1.0)
    _, report = solve_forward(grid, spec, init, u, 0.5, 32)
    assert not report.clamp_events.any()
    assert report.phi_min > spec.pot.eps_clamp
    assert report.phi_max < 1.0 - spec.pot.eps_clamp


def test_admissibility_rejections():
    grid = Grid(8, 8)
    spec = base_model(
        pot=PotentialSpec("logarithmic", c2=2.0),
        prolif=ProliferationSpec("constant", h0=0.5),
    )
    good = make_random_init(grid, 30, phi_rng=(0.4, 0.6))
    u = Control(np.zeros((4, grid.nx, grid.ny)), 1.0)

    bad_phi = make_random_init(grid, 30, phi_rng=(0.4, 1.2))
    with pytest.raises(AdmissibilityError, match=r"\(2\.10\)"):
        solve_forward(grid, spec, bad_phi, u, 0.1, 4)

    bad_a = make_random_init(grid, 30, phi_rng=(0.4, 0.6))
    bad_a.a0 = bad_a.a0 - bad_a.a0.min()  # touches zero
    with pytest.raises(AdmissibilityError, match=r"\(2\.12\)"):
        solve_forward(grid, spec, bad_a, u, 0.1, 4)

    bad_sig = make_random_init(grid, 30, phi_rng=(0.4, 0.6))
    bad_sig.sigma0 = bad_sig.sigma0 + 1.0
    with pytest.raises(AdmissibilityError, match=r"\(2\.13\)"):
        solve_forward(grid, spec, bad_sig, u, 0.1, 4)

    spec_bad_mean = base_model(
        pot=PotentialSpec("logarithmic", c2=2.0), prolif=ProliferationSpec("zero")
    )
    with pytest.raises(AdmissibilityError, match=r"\(2\.11\)"):
        solve_forward(grid, spec_bad_mean, good, u, 0.1, 4)

    bad_u = Control(-np.ones((4, grid.nx, grid.ny)), 1.0)
    with pytest.raises(AdmissibilityError, match=r"\(2\.14\)"):
        solve_forward(grid, spec, good, bad_u, 0.1, 4)


@pytest.mark.parametrize("values, u_max, condition", [
    (np.nan, 1.0, "2.14"),
    (np.inf, np.inf, "2.14"),
    (-np.inf, 1.0, "2.14"),
    (0.5, np.nan, "2.15"),
])
def test_control_rejects_nonfinite_data(values, u_max, condition):
    u = np.full((3, 4, 4), 0.5)
    u[1, 2, 0] = values
    with pytest.raises(AdmissibilityError, match=rf"\({condition}\)"):
        Control(u, u_max).validate()
    with pytest.raises(AdmissibilityError, match=rf"\({condition}\)"):
        Control(u, np.full((4, 4), u_max)).validate()


def test_model_spec_rejections():
    with pytest.raises(AdmissibilityError, match=r"\(2\.3\)"):
        base_model(m=0.0).validate()
    with pytest.raises(AdmissibilityError, match=r"\(2\.3\)"):
        base_model(chi_phi=1.5).validate()
    with pytest.raises(AdmissibilityError, match=r"\(2\.3\)"):
        base_model(chi_a=0.0).validate()


def test_forward_step_end_catches_unchecked_nan():
    # With admissibility off nothing scans n0 on entry; the NaN reaches the
    # step's outputs, and the step-end check names the step.
    grid = Grid(8, 8)
    init = make_random_init(grid, 5)
    init.n0[3, 4] = np.nan
    u = Control(np.zeros((4, grid.nx, grid.ny)), 1.0)
    with pytest.raises(SolverError, match="forward step 0"):
        solve_forward(grid, base_model(), init, u, 0.1, 4, check_admissibility=False)
