"""Forward solver: scalar oracles, maximum principles, mean ODE, energy law."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from chks.grid import Grid, SolverError
from chks.potentials import AdmissibilityError, PotentialSpec, ProliferationSpec
from chks.state import (
    SIGMA_RANGE,
    Control,
    InitialData,
    ModelSpec,
    Trajectory,
    check_mean_ode,
    energy,
    mean_ode_residuals,
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


FORWARD_FIELDS = ("phi", "mu", "a", "n", "sigma")


def homogeneous_trajectory(grid, phi, a, n, sigma, spec, tau, nt=1, s_stab=0.5):
    """A forward trajectory of nt steps whose level 0 is a homogeneous state."""
    traj = Trajectory.zeros(grid, tau * np.arange(nt + 1), FORWARD_FIELDS, s_stab=s_stab)
    traj.phi[0], traj.a[0], traj.n[0], traj.sigma[0] = phi, a, n, sigma
    traj.mu[0] = spec.pot.f_prime(traj.phi[0])  # Laplacian of a constant vanishes
    return traj


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
    traj = homogeneous_trajectory(grid, 0.4, 0.8, 0.1, 0.6, spec, tau, s_stab=s_stab)
    u = np.full(grid.shape, 0.3)
    step(traj, 0, u, spec)
    ph, an, nn, sn = scalar_imex_step((0.4, 0.8, 0.1, 0.6), 0.3, spec, tau, s_stab)
    np.testing.assert_allclose(traj.phi[1], ph, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(traj.a[1], an, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(traj.n[1], nn, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(traj.sigma[1], sn, rtol=1e-12, atol=1e-13)
    mu_expect = float(spec.pot.f_prime(0.4)) + s_stab * (ph - 0.4)
    np.testing.assert_allclose(traj.mu[1], mu_expect, rtol=1e-11, atol=1e-13)


def test_step_zero_a_is_equilibrium():
    grid = Grid(8, 8)
    spec = base_model()
    traj = homogeneous_trajectory(grid, 0.5, 0.0, 0.0, 0.5, spec, 0.05)
    step(traj, 0, np.zeros(grid.shape), spec)
    assert np.all(traj.a[1] == 0.0)


def test_sigma_relaxation_closed_form_and_first_order():
    # With a = 0 the sigma update is implicit Euler for sigma' = 1 - sigma.
    grid = Grid(8, 8)
    spec = base_model()
    s_bar = 0.2
    T = 0.5

    def run(nt):
        tau = T / nt
        traj = homogeneous_trajectory(grid, 0.5, 0.0, 0.0, s_bar, spec, tau, nt=nt)
        for k in range(nt):
            step(traj, k, np.zeros(grid.shape), spec)
        vals = traj.sigma[:, 0, 0]
        discrete = s_bar
        for k in range(1, nt + 1):
            discrete = (discrete / tau + 1.0) * tau / (1.0 + tau)
        assert vals[-1] == pytest.approx(discrete, rel=1e-12)
        return vals[-1]

    exact = 1.0 + (s_bar - 1.0) * np.exp(-T)
    err = [abs(run(nt) - exact) for nt in (16, 32, 64)]
    assert err[0] / err[1] == pytest.approx(2.0, rel=0.15)
    assert err[1] / err[2] == pytest.approx(2.0, rel=0.15)


def test_step_writes_only_the_next_level():
    # Step k reads stored levels up to k and writes level k + 1: with every
    # later level NaN it reproduces the sweep's level k + 1 bit for bit and
    # leaves the other levels as they were.
    grid = Grid(8, 8)
    spec = base_model()
    init = make_random_init(grid, 6)
    u = Control(0.4 * np.ones((4, grid.nx, grid.ny)), 1.0)
    ref, _ = solve_forward(grid, spec, init, u, 0.2, 4)
    k = 1
    traj = Trajectory(ref.grid, ref.times, ref.names, ref.data.copy(),
                      s_stab=ref.s_stab, flux_scheme=ref.flux_scheme)
    for f in traj.fields.values():
        f[k + 1:] = np.nan
    step(traj, k, u.values[k], spec)
    for name in FORWARD_FIELDS:
        got, want = traj.fields[name], ref.fields[name]
        assert got[: k + 2].tobytes() == want[: k + 2].tobytes(), name
        assert np.isnan(got[k + 2:]).all(), name


def test_trajectory_extrapolate_both_directions():
    grid = Grid(4, 3)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, *grid.shape))
    traj = Trajectory(grid, 0.1 * np.arange(5), ("x",), x[None])
    back = Trajectory(grid, traj.times, ("x",), x[None], direction=-1)
    # First forward step: only level 0 is stored behind level 1.
    assert traj.extrapolate("x", 0).tobytes() == x[0].tobytes()
    # First backward step (k = nt - 1 writes level nt - 1 from level nt).
    assert back.extrapolate("x", 3).tobytes() == x[4].tobytes()
    # In between, linear extrapolation of the two levels behind the new one.
    assert traj.extrapolate("x", 2).tobytes() == (2.0 * x[2] - x[1]).tobytes()
    assert back.extrapolate("x", 1).tobytes() == (2.0 * x[2] - x[3]).tobytes()


def test_trajectory_advance_names_sweep_step_and_first_nonfinite_field():
    grid = Grid(4, 4)
    traj = Trajectory.zeros(grid, 0.1 * np.arange(5), ("x", "y", "z"))
    # A backward sweep on the same levels.
    back = Trajectory(grid, traj.times, traj.names, traj.data, direction=-1)
    traj.y[3, 1, 2] = np.nan
    traj.z[3, 0, 0] = np.inf
    calls = []

    def noop(k, old, new):
        calls.append(None)

    # Step 2 forward and step 3 backward both write level 3.
    with pytest.raises(SolverError, match=r"^forward step 2 failed: non-finite y$"):
        traj.advance("forward", 2, noop, noop)
    with pytest.raises(SolverError, match=r"^adjoint step 3 failed: non-finite y$"):
        back.advance("adjoint", 3, noop, noop)
    traj.y[3] = 0.0
    with pytest.raises(SolverError, match=r"^tangent step 2 failed: non-finite z$"):
        traj.advance("tangent", 2, noop, noop)
    # The levels the other steps wrote are finite.
    traj.advance("forward", 1, noop, noop)
    back.advance("adjoint", 2, noop, noop)
    assert len(calls) == 10

    # A chain's SolverError is named the same way, and its cause is kept.
    def fails(k, old, new):
        raise SolverError("helmholtz CG: the rhs norm is not finite")

    with pytest.raises(SolverError, match=r"^adjoint step 0 failed: helmholtz CG: ") as info:
        back.advance("adjoint", 0, noop, fails)
    assert str(info.value.__cause__) == "helmholtz CG: the rhs norm is not finite"


def test_step_names_a_nonpositive_tau():
    grid = Grid(4, 4)
    traj = Trajectory.zeros(grid, np.zeros(3), ("phi", "mu", "a", "n", "sigma"))
    with pytest.raises(SolverError, match=r"^forward step 1 failed: step requires tau > 0$"):
        step(traj, 1, np.zeros(grid.shape), base_model())


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
        assert report.sigma_min.min() >= -1e-8
        assert report.sigma_max.max() <= 1.0 + 1e-8


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(2, 12), ny=st.integers(2, 12),
    lx=st.floats(0.2, 5.0), ly=st.floats(0.2, 5.0),
    T=st.floats(1e-3, 2.0), nt=st.integers(1, 4), chi_a=st.floats(0.01, 0.99),
    scheme=st.sampled_from(["centered", "upwind"]), seed=st.integers(0, 2**32 - 1),
)
def test_sigma_stays_in_range_property(nx, ny, lx, ly, T, nt, chi_a, scheme, seed):
    # The sigma step freezes max(a, 0), so its matrix is an M-matrix and
    # sigma stays in [0, 1] for every tau, under either flux, whatever the
    # sign of a. The data are constant on a few blocks, so that whole
    # regions sit at the bounds sigma = 0 or 1. a0 takes negative values,
    # which the centered flux reaches from admissible data; the other fields
    # are admissible.
    grid = Grid(nx, ny, lx, ly)
    rng = np.random.default_rng(seed)

    def blocks(values):
        m = int(rng.integers(2, 4))
        coarse = rng.choice(values, (m, m))
        return coarse[np.ix_(np.arange(nx) * m // nx, np.arange(ny) * m // ny)]

    init = InitialData(
        phi0=rng.random(grid.shape),
        a0=blocks([-0.5, 1e-6, 1e-3, 1.0]),
        n0=rng.uniform(-1.0, 1.0, grid.shape),
        sigma0=blocks([0.0, 1.0]),
    )
    u = Control(np.broadcast_to(blocks([0.0, 1.0]), (nt, nx, ny)), 1.0)
    _, report = solve_forward(grid, base_model(chi_a=chi_a), init, u, T, nt,
                              flux_scheme=scheme, check_admissibility=False)
    assert SIGMA_RANGE[0] <= report.sigma_min.min()
    assert report.sigma_max.max() <= SIGMA_RANGE[1]


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
    traj, _ = solve_forward(grid, spec_s, init, u, 0.5, 32)
    assert check_mean_ode(traj, spec_s) <= 1e-12
    np.testing.assert_allclose(traj.phi.mean(axis=(1, 2)), 0.5, rtol=0, atol=1e-13)

    # Decay: h = 0 follows the implicit-Euler geometric sequence exactly.
    spec_d = base_model(prolif=ProliferationSpec("zero"))
    init_d = make_random_init(grid, 4, phi_rng=(0.2, 0.6))
    traj_d, _ = solve_forward(grid, spec_d, init_d, u, 0.5, 32)
    tau = 0.5 / 32
    means = traj_d.phi.mean(axis=(1, 2))
    expected = means[0] * (1.0 + spec_d.m * tau) ** (-np.arange(33))
    np.testing.assert_allclose(means, expected, rtol=0, atol=1e-13)
    assert check_mean_ode(traj_d, spec_d) <= 1e-12


@pytest.mark.parametrize("seed", [5, 4, 8])
def test_mean_ode_residual_halves_with_tau(seed):
    # The l1 norm in time, as the verify row measures it: the maximum over
    # the steps picks one step's residual, whose halving ratio depends on the
    # data (0.76-1.41 on seeds 4 and 8).
    grid = Grid(16, 16)
    spec = base_model()  # logistic proliferation: genuinely nonlinear mean ODE
    init = make_random_init(grid, seed)
    l1 = {}
    for nt in (32, 64):
        u = Control(0.3 * np.ones((nt, grid.nx, grid.ny)), 1.0)
        traj, _ = solve_forward(grid, spec, init, u, 0.5, nt)
        l1[nt] = traj.tau * np.abs(mean_ode_residuals(traj, spec)).sum()
    ratio = l1[32] / l1[64]
    assert 1.6 <= ratio <= 2.4


def test_check_mean_ode_matches_per_level_loop():
    grid = Grid(16, 16)
    spec = base_model()  # logistic proliferation
    init = make_random_init(grid, 7)
    nt, T = 32, 0.5
    u = Control(0.3 * np.ones((nt, grid.nx, grid.ny)), 1.0)
    traj, _ = solve_forward(grid, spec, init, u, T, nt)
    tau = T / nt
    ref = 0.0
    for k in range(nt):
        new, old = traj.phi[k + 1].mean(), traj.phi[k].mean()
        hbar = spec.prolif.h_value(traj.phi[k + 1]).mean()
        ref = max(ref, abs((new - old) / tau + spec.m * new - hbar))
    assert check_mean_ode(traj, spec) == pytest.approx(ref, rel=1e-12)


def test_solve_forward_evaluates_h_once_per_step(monkeypatch):
    # h(phi) runs in each step's phi/mu block and nowhere else: the report
    # holds no mean-ODE residual, which check_mean_ode computes on request.
    grid = Grid(16, 16)
    spec = base_model()  # logistic proliferation
    nt = 8
    u = Control(0.3 * np.ones((nt, grid.nx, grid.ny)), 1.0)
    calls = []
    h_value = ProliferationSpec.h_value
    monkeypatch.setattr(ProliferationSpec, "h_value",
                        lambda self, r: calls.append(r) or h_value(self, r))
    solve_forward(grid, spec, make_random_init(grid, 7), u, 0.5, nt)
    assert len(calls) == nt


def test_report_holds_each_levels_reductions_bitwise():
    # series.csv writes these arrays, so each entry must be the per-level
    # reduction it replaced, to the bit.
    grid = Grid(16, 12)
    spec = base_model()
    nt = 8
    u = Control(0.3 * np.ones((nt, grid.nx, grid.ny)), 1.0)
    traj, report = solve_forward(grid, spec, make_random_init(grid, 7), u, 0.5, nt)
    for name, field, reduce in (("mean_phi", traj.phi, np.mean), ("sigma_min", traj.sigma, np.min),
                                ("sigma_max", traj.sigma, np.max), ("a_min", traj.a, np.min)):
        levels = getattr(report, name)
        assert levels.shape == (nt + 1,), name
        assert levels.tobytes() == np.array([reduce(f) for f in field]).tobytes(), name


def test_energy_entropy_term_only():
    grid = Grid(10, 10)  # unit square
    spec = base_model()
    level = Trajectory.zeros(grid, np.zeros(1), FORWARD_FIELDS)
    level.a[0] = 1.0
    assert energy(level, 0, spec) == pytest.approx(-1.0, rel=1e-13)


def test_energy_shift_in_n_changes_coupling_only():
    grid = Grid(12, 12)
    spec = base_model()
    rng = np.random.default_rng(9)
    traj = Trajectory.zeros(grid, np.arange(2.0), FORWARD_FIELDS)
    traj.phi[:] = rng.uniform(0.1, 0.9, grid.shape)
    traj.a[:] = rng.uniform(0.5, 1.5, grid.shape)
    traj.n[:] = rng.standard_normal(grid.shape)
    traj.sigma[:] = rng.uniform(0, 1, grid.shape)
    c = 0.37
    traj.n[1] += c  # level 1 is level 0 with n shifted by c
    delta = energy(traj, 1, spec) - energy(traj, 0, spec)
    expected = -spec.chi_phi * c * grid.cell_area * traj.phi[0].sum()
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
    traj, report = solve_forward(grid, spec, init, u, 0.5, 32)
    assert not report.clamp_events.any()
    assert traj.phi.min() > spec.pot.eps_clamp
    assert traj.phi.max() < 1.0 - spec.pot.eps_clamp


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


def test_control_validate_verdicts_match_full_comparison():
    # The verdict of the three-pass test min >= 0, max < inf and
    # all(values <= u_max), for scalar and array bounds.
    def admissible_by_full_comparison(values, u_max):
        return bool(values.min() >= 0.0 and values.max() < np.inf
                    and np.all(values <= u_max))

    u_max = 0.75
    above = np.nextafter(u_max, np.inf)
    cases = []
    for cell in (np.nan, np.inf, -0.25, above, u_max, 0.5):
        values = np.full((3, 4, 4), 0.5)
        values[1, 2, 0] = cell
        cases += [(values, u_max), (values, np.inf)]
    bound = np.full((4, 4), u_max)
    bound[3, 1] = 0.25
    values = np.full((3, 4, 4), 0.25)
    cases += [(values, bound)]
    values = values.copy()
    values[2, 3, 1] = 0.5  # above its cell's bound, below the bound's maximum
    cases += [(values, bound)]
    verdicts = []
    for values, bound in cases:
        try:
            Control(values, bound).validate()
            verdicts.append(True)
        except AdmissibilityError:
            verdicts.append(False)
    assert verdicts == [admissible_by_full_comparison(v, b) for v, b in cases]
    # NaN, +inf and negative cells fail under both bounds; just above u_max
    # fails only the finite one; at u_max passes; the array bound's one
    # exceeded cell fails.
    assert verdicts == [False, False, False, False, False, False,
                        False, True, True, True, True, True, True, False]


def test_model_spec_rejections():
    with pytest.raises(AdmissibilityError, match=r"\(2\.3\)"):
        base_model(m=0.0).validate()
    with pytest.raises(AdmissibilityError, match=r"\(2\.3\)"):
        base_model(chi_phi=1.5).validate()
    with pytest.raises(AdmissibilityError, match=r"\(2\.3\)"):
        base_model(chi_a=0.0).validate()


def test_forward_step_end_catches_unchecked_nan():
    # With admissibility off nothing scans the initial data on entry; a NaN
    # or an infinity in any field reaches the step's outputs, stops a solve
    # or raises through the RuntimeWarning filter in the step's arithmetic,
    # and the error names the step. phi0 is tested with NaN only: an
    # infinite phi0 fails in level 0's diagnostic mu, which no step computes.
    grid = Grid(8, 8)
    u = Control(np.zeros((4, grid.nx, grid.ny)), 1.0)
    for name, bad in [("phi0", np.nan),
                      *((name, bad) for name in ("a0", "n0", "sigma0")
                        for bad in (np.nan, np.inf, -np.inf))]:
        init = make_random_init(grid, 5)
        getattr(init, name)[3, 4] = bad
        with pytest.raises(SolverError, match="^forward step 0 failed"):
            solve_forward(grid, base_model(), init, u, 0.1, 4, check_admissibility=False)
