"""Adjoint solver: final conditions, homogeneity, duality."""

from pathlib import Path

import numpy as np
import pytest

from chks import grid as grid_mod
from chks.adjoint import (
    ADJOINT_FIELDS,
    ControlSpec,
    duality_residual,
    solve_adjoint,
    solve_exact_adjoint,
)
from chks.config import load_config
from chks.grid import Grid, inner, laplacian
from chks.linearized import TANGENT_FIELDS, solve_linearized
from chks.potentials import AdmissibilityError, PotentialSpec, ProliferationSpec
from chks.state import CONCURRENT_MIN_CELLS, Control, ModelSpec, solve_forward

from test_state import make_random_init
from test_linearized import smooth_direction


def coupled_model():
    return ModelSpec(
        m=1.0, chi_phi=0.8, chi_a=0.8, c_phi=0.5, c_n=-1.0, c_sigma=0.8, c_0=0.1,
        pot=PotentialSpec("regular", c1=1.0),
        prolif=ProliferationSpec("logistic", h0=0.5, k=2.0),
    )


@pytest.fixture(scope="module")
def problem():
    grid = Grid(16, 16)
    spec = coupled_model()
    init = make_random_init(grid, 100)
    T, nt = 0.5, 32
    u = Control(0.5 * np.ones((nt, grid.nx, grid.ny)), 1.0)
    traj, _ = solve_forward(grid, spec, init, u, T, nt)
    x, y = grid.cell_centers()
    phi_om = 0.5 + 0.2 * np.cos(np.pi * x) * np.cos(np.pi * y)
    phi_q = np.repeat((0.5 * np.ones(grid.shape))[None], nt, axis=0)
    cs = ControlSpec(b1=1.0, b2=1.0, b3=1e-3, phi_q=phi_q, phi_omega=phi_om, u_max=1.0)
    return grid, spec, init, u, traj, cs, T, nt


def test_zero_weights_give_zero_adjoint(problem):
    grid, spec, init, u, traj, cs, T, nt = problem
    cs0 = ControlSpec(b1=0.0, b2=0.0, b3=1.0, phi_q=cs.phi_q, phi_omega=cs.phi_omega,
                      u_max=1.0)
    adj = solve_adjoint(traj, cs0, spec, keep=ADJOINT_FIELDS)
    for i in range(1, 6):
        assert np.all(getattr(adj, f"p{i}") == 0.0)


def test_perfect_tracking_gives_zero_adjoint(problem):
    grid, spec, init, u, traj, cs, T, nt = problem
    cs_perfect = ControlSpec(
        b1=1.0, b2=1.0, b3=1e-3,
        phi_q=traj.phi[1:].copy(), phi_omega=traj.phi[nt].copy(), u_max=1.0,
    )
    adj = solve_adjoint(traj, cs_perfect, spec, keep=ADJOINT_FIELDS)
    for i in range(1, 6):
        assert np.abs(getattr(adj, f"p{i}")).max() <= 1e-14


def test_final_conditions_exact(problem):
    grid, spec, init, u, traj, cs, T, nt = problem
    adj = solve_adjoint(traj, cs, spec, keep=ADJOINT_FIELDS)
    np.testing.assert_array_equal(adj.p1[nt], cs.b2 * (traj.phi[nt] - cs.phi_omega))
    np.testing.assert_allclose(
        adj.p2[nt], -laplacian(grid, adj.p1[nt]), rtol=1e-13, atol=1e-15
    )
    for i in (3, 4, 5):
        assert np.all(getattr(adj, f"p{i}")[nt] == 0.0)


def test_homogeneity_in_tracking_weights(problem):
    grid, spec, init, u, traj, cs, T, nt = problem
    cs2 = ControlSpec(b1=2 * cs.b1, b2=2 * cs.b2, b3=cs.b3, phi_q=cs.phi_q,
                      phi_omega=cs.phi_omega, u_max=1.0)
    adj1 = solve_adjoint(traj, cs, spec, keep=ADJOINT_FIELDS)
    adj2 = solve_adjoint(traj, cs2, spec, keep=ADJOINT_FIELDS)
    for i in range(1, 6):
        a2 = getattr(adj2, f"p{i}")
        a1 = getattr(adj1, f"p{i}")
        scale = max(np.abs(a2).max(), 1e-30)
        assert np.abs(a2 - 2.0 * a1).max() <= 1e-12 * scale


def test_duality_residual_small_and_tau_decreasing(problem):
    grid, spec, init, u, traj, cs, T, nt = problem
    residuals = {}
    for factor in (1, 2):
        n = nt * factor
        uf = Control(np.repeat(u.values, factor, axis=0), 1.0)
        trajf, _ = solve_forward(grid, spec, init, uf, T, n)
        csf = ControlSpec(b1=cs.b1, b2=cs.b2, b3=cs.b3,
                          phi_q=np.repeat(cs.phi_q, factor, axis=0),
                          phi_omega=cs.phi_omega, u_max=1.0)
        h = np.repeat(smooth_direction(grid, nt, 200), factor, axis=0)
        adj = solve_adjoint(trajf, csf, spec)
        lin = solve_linearized(trajf, spec, h)
        residuals[factor] = duality_residual(trajf, adj, h, lin, csf)
    assert residuals[1] <= 1e-3
    assert residuals[1] / residuals[2] >= 1.5


def test_duality_residual_matches_per_level_sums(problem):
    # An upwind base, a non-constant running target, and both sides of the
    # identity written per level.
    grid, spec, init, u, traj, cs, T, nt = problem
    tau = T / nt
    base, _ = solve_forward(grid, spec, init, u, T, nt, flux_scheme="upwind")
    csr = ControlSpec(b1=0.7, b2=1.3, b3=cs.b3,
                      phi_q=0.5 + 0.1 * smooth_direction(grid, nt, 210),
                      phi_omega=cs.phi_omega, u_max=1.0)
    h = smooth_direction(grid, nt, 211)
    adj = solve_adjoint(base, csr, spec)
    lin = solve_linearized(base, spec, h)
    psi = lin.psi
    # The adjoint trajectory records the scheme of the forward one.
    assert adj.flux_scheme == "upwind"
    assert adj.s_stab == base.s_stab > 0
    area = grid.cell_area
    lhs = sum(tau * area * np.sum(h[k] * adj.p3[k + 1]) for k in range(nt))
    rhs = csr.b2 * area * np.sum((base.phi[nt] - csr.phi_omega) * psi[nt])
    rhs += csr.b1 * sum(tau * area * np.sum((base.phi[k + 1] - csr.phi_q[k]) * psi[k + 1])
                        for k in range(nt))
    ref = abs(lhs - rhs) / (abs(lhs) + abs(rhs))
    got = duality_residual(base, adj, h, lin, csr)
    assert ref > 1e-8  # a residual, not round-off, is compared
    # The residual is divided by |lhs| + |rhs|, so round-off in either side
    # moves it by about 1e-16 absolute, whatever the residual's size.
    assert abs(got - ref) <= 1e-14


def test_duality_zero_direction_guard(problem):
    grid, spec, init, u, traj, cs, T, nt = problem
    adj = solve_adjoint(traj, cs, spec)
    h = np.zeros((nt, grid.nx, grid.ny))
    lin = solve_linearized(traj, spec, h)
    assert duality_residual(traj, adj, h, lin, cs) == 0.0


def test_duality_residual_rejects_psi_off_the_time_grid(problem):
    grid, spec, init, u, traj, cs, T, nt = problem
    adj = solve_adjoint(traj, cs, spec)
    h = smooth_direction(grid, nt, 212)
    lin = solve_linearized(traj, spec, h)
    assert lin.names == ("psi",) and lin.psi.shape == (nt + 1, grid.nx, grid.ny)
    assert duality_residual(traj, adj, h, lin, cs) > 0
    # A tangent on twice the steps, or on another grid, is off the base's grids.
    coarse = Grid(8, 8)
    traj2, _ = solve_forward(grid, spec, init, Control(np.repeat(u.values, 2, axis=0), 1.0),
                             T, 2 * nt)
    traj8, _ = solve_forward(coarse, spec, make_random_init(coarse, 3),
                             Control(np.full((nt, 8, 8), 0.5), 1.0), T, nt)
    for bad in (solve_linearized(traj2, spec, np.repeat(h, 2, axis=0)),
                solve_linearized(traj8, spec, np.zeros((nt, 8, 8)))):
        with pytest.raises(ValueError, match="^adj and lin must be on the base's grid and time grid$"):
            duality_residual(traj, adj, h, bad, cs)
    # A tangent that does not keep psi cannot be paired.
    with pytest.raises(ValueError, match="^lin must hold psi at every level$"):
        duality_residual(traj, adj, h, solve_linearized(traj, spec, h, ("nu",)), cs)


def test_p4_vanishes_with_zero_weights_and_zero_f14(problem):
    grid, spec, init, u, traj, cs, T, nt = problem
    spec0 = coupled_model()
    spec0.c_phi = -spec0.chi_phi  # f14 = 0
    u0 = Control(0.5 * np.ones((nt, grid.nx, grid.ny)), 1.0)
    traj0, _ = solve_forward(grid, spec0, init, u0, T, nt)
    cs0 = ControlSpec(b1=0.0, b2=0.0, b3=1.0, phi_q=cs.phi_q, phi_omega=cs.phi_omega,
                      u_max=1.0)
    adj = solve_adjoint(traj0, cs0, spec0, keep=ADJOINT_FIELDS)
    assert np.all(adj.p4 == 0.0)


def test_weight_validation(problem):
    grid, spec, init, u, traj, cs, T, nt = problem
    with pytest.raises(AdmissibilityError, match=r"\(6\.3\)"):
        ControlSpec(b1=1.0, b2=0.0, b3=0.0, phi_q=cs.phi_q,
                    phi_omega=cs.phi_omega).validate()
    with pytest.raises(AdmissibilityError, match=r"\(6\.3\)"):
        ControlSpec(b1=-1.0, b2=0.0, b3=1.0, phi_q=cs.phi_q,
                    phi_omega=cs.phi_omega).validate()
    with pytest.raises(AdmissibilityError, match=r"\(6\.4\)"):
        ControlSpec(b1=1.0, b2=0.0, b3=1.0, phi_q=cs.phi_q,
                    phi_omega=cs.phi_omega, u_max=-0.5).validate()


@pytest.mark.parametrize("weights, u_max, condition", [
    ((np.nan, 0.0, 1.0), 1.0, "6.3"),
    ((1.0, np.inf, 1.0), 1.0, "6.3"),
    ((1.0, 0.0, np.nan), 1.0, "6.3"),
    ((1.0, 0.0, np.inf), 1.0, "6.3"),
    ((1.0, 0.0, 1.0), np.nan, "6.4"),
])
def test_weight_validation_rejects_nonfinite(problem, weights, u_max, condition):
    cs = problem[5]
    b1, b2, b3 = weights
    with pytest.raises(AdmissibilityError, match=rf"\({condition}\)"):
        ControlSpec(b1=b1, b2=b2, b3=b3, phi_q=cs.phi_q, phi_omega=cs.phi_omega,
                    u_max=u_max).validate()


def test_mismatched_shapes_rejected(problem):
    grid, spec, init, u, traj, cs, T, nt = problem
    bad = ControlSpec(b1=1.0, b2=1.0, b3=1.0, phi_q=cs.phi_q[:-1],
                      phi_omega=cs.phi_omega, u_max=1.0)
    with pytest.raises(ValueError):
        solve_adjoint(traj, bad, spec)


# 2-D transforms one forward, adjoint and tangent sweep made on
# configs/verify.cfg before their CG solves took a guess and the adjoint
# block stopped transforming its all-zero second right-hand side.
TRANSFORMS_COLD = 1438


def test_sweeps_transform_budget(monkeypatch):
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "verify.cfg")
    calls = []
    original = grid_mod._dct_pair

    def counted(transform):
        def run(f):
            calls.append(1)
            return transform(f)
        return run

    monkeypatch.setattr(grid_mod, "_dct_pair", lambda shape: tuple(map(counted, original(shape))))
    traj, _ = solve_forward(cfg.grid, cfg.model, cfg.init, cfg.u0, cfg.T, cfg.nt,
                            s_stab=cfg.s_stab, flux_scheme=cfg.flux_scheme)
    adj = solve_adjoint(traj, cfg.control_spec, cfg.model)
    solve_linearized(traj, cfg.model, adj.p3[1:])
    assert len(calls) <= 0.95 * TRANSFORMS_COLD


def test_nan_in_running_target_rejected_at_entry(problem):
    # A non-finite target is bad input, not a solver failure: it is named
    # before the first backward step, not found after the step it enters.
    grid, spec, init, u, traj, cs, T, nt = problem
    phi_q = cs.phi_q.copy()
    phi_q[5, 2, 3] = np.nan
    bad = ControlSpec(cs.b1, cs.b2, cs.b3, phi_q, cs.phi_omega, cs.u_max)
    with pytest.raises(ValueError, match="^phi_q contains non-finite values$"):
        solve_adjoint(traj, bad, spec)


@pytest.mark.parametrize("value, cells", [(np.nan, np.s_[:, :]), (-np.inf, np.s_[4, 7])],
                         ids=["all-nan", "one-inf"])
def test_nonfinite_final_target_rejected_at_entry(problem, value, cells):
    grid, spec, init, u, traj, cs, T, nt = problem
    phi_omega = cs.phi_omega.copy()
    phi_omega[cells] = value
    bad = ControlSpec(cs.b1, cs.b2, cs.b3, cs.phi_q, phi_omega, cs.u_max)
    with pytest.raises(ValueError, match="^phi_omega contains non-finite values$"):
        solve_adjoint(traj, bad, spec)


@pytest.mark.parametrize("side", [16, 64, 144])
@pytest.mark.parametrize("scheme", ["centered", "upwind"])
def test_exact_adjoint_is_the_transpose_of_the_tangent(scheme, side):
    # The dot-product test, with random sources on every tangent unknown at
    # levels 1..Nt and a random h: sum_k <mu_a[k], h[k]> must equal
    # sum_k sum_f <src_f[k], x_f at level k + 1> up to the omega CG's
    # tolerance of 1e-12. Measured: gaps of 1.8e-17 to 1.3e-16 of the
    # Cauchy-Schwarz scale at 16^2, 64^2 and 144^2, where the chains run at
    # once. h reaches psi only through alpha -> omega -> nu -> psi, one step
    # each, so Nt = 8 and both sides must be nonzero.
    grid = Grid(side, side)
    assert (side * side >= CONCURRENT_MIN_CELLS) == (side == 144)
    nt = 8
    spec = coupled_model()
    base, _ = solve_forward(grid, spec, make_random_init(grid, 100),
                            Control(np.full((nt, side, side), 0.5), 1.0), nt / 64, nt,
                            flux_scheme=scheme)
    rng = np.random.default_rng(side)
    h = rng.standard_normal((nt, side, side))
    sources = {name: rng.standard_normal((nt, side, side)) for name in TANGENT_FIELDS}
    lin = solve_linearized(base, spec, h, keep=TANGENT_FIELDS)
    exact = solve_exact_adjoint(base, spec, sources)
    assert exact.names == ("mu_a",) and exact.flux_scheme == scheme
    assert not exact.mu_a[nt].any()
    assert lin.psi[-1].any()

    def norm(f):
        return np.sqrt(inner(grid, f, f))

    grad = exact.mu_a[:-1]
    lhs = inner(grid, grad, h)
    rhs = sum(inner(grid, sources[name], lin.fields[name][1:]) for name in TANGENT_FIELDS)
    scale = norm(grad) * norm(h) + sum(norm(sources[name]) * norm(lin.fields[name][1:])
                                       for name in TANGENT_FIELDS)
    assert lhs != 0.0 and rhs != 0.0
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_exact_adjoint_rejects_bad_sources(problem):
    grid, spec, init, u, traj, cs, T, nt = problem
    good = np.ones((nt, grid.nx, grid.ny))
    bad_value = good.copy()
    bad_value[3, 1, 2] = np.inf
    for sources, message in (
        ({"phi": good}, "^source on 'phi', not one of psi, eta, alpha_lin, nu, omega$"),
        ({"psi": good[1:]}, r"^source on psi must have shape \(nt, nx, ny\)$"),
        ({"nu": bad_value}, "^source on nu contains non-finite values$"),
    ):
        with pytest.raises(ValueError, match=message):
            solve_exact_adjoint(traj, spec, sources)
    # Without a source the adjoint is zero.
    exact = solve_exact_adjoint(traj, spec, {})
    assert exact.names == ("mu_a",) and not exact.data.any()
