"""Adjoint solver: final conditions, homogeneity, duality."""

from pathlib import Path

import numpy as np
import pytest

from chks import grid as grid_mod
from chks.adjoint import (
    ControlSpec,
    duality_residual,
    solve_adjoint,
)
from chks.config import load_config
from chks.grid import Grid, SolverError, laplacian
from chks.linearized import solve_linearized
from chks.potentials import AdmissibilityError, PotentialSpec, ProliferationSpec
from chks.state import Control, ModelSpec, solve_forward

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
    adj = solve_adjoint(traj, cs0, spec)
    for i in range(1, 6):
        assert np.all(getattr(adj, f"p{i}") == 0.0)


def test_perfect_tracking_gives_zero_adjoint(problem):
    grid, spec, init, u, traj, cs, T, nt = problem
    cs_perfect = ControlSpec(
        b1=1.0, b2=1.0, b3=1e-3,
        phi_q=traj.phi[1:].copy(), phi_omega=traj.phi[nt].copy(), u_max=1.0,
    )
    adj = solve_adjoint(traj, cs_perfect, spec)
    for i in range(1, 6):
        assert np.abs(getattr(adj, f"p{i}")).max() <= 1e-14


def test_final_conditions_exact(problem):
    grid, spec, init, u, traj, cs, T, nt = problem
    adj = solve_adjoint(traj, cs, spec)
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
    adj1 = solve_adjoint(traj, cs, spec)
    adj2 = solve_adjoint(traj, cs2, spec)
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


def test_duality_zero_direction_guard(problem):
    grid, spec, init, u, traj, cs, T, nt = problem
    adj = solve_adjoint(traj, cs, spec)
    h = np.zeros((nt, grid.nx, grid.ny))
    lin = solve_linearized(traj, spec, h)
    assert duality_residual(traj, adj, h, lin, cs) == 0.0


def test_p4_vanishes_with_zero_weights_and_zero_f14(problem):
    grid, spec, init, u, traj, cs, T, nt = problem
    spec0 = coupled_model()
    spec0.c_phi = -spec0.chi_phi  # f14 = 0
    u0 = Control(0.5 * np.ones((nt, grid.nx, grid.ny)), 1.0)
    traj0, _ = solve_forward(grid, spec0, init, u0, T, nt)
    cs0 = ControlSpec(b1=0.0, b2=0.0, b3=1.0, phi_q=cs.phi_q, phi_omega=cs.phi_omega,
                      u_max=1.0)
    adj = solve_adjoint(traj0, cs0, spec0)
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
    for name in ("_dct2", "_idct2"):
        original = getattr(grid_mod, name)

        def counted(f, original=original):
            calls.append(1)
            return original(f)

        monkeypatch.setattr(grid_mod, name, counted)
    traj, _ = solve_forward(cfg.grid, cfg.model, cfg.init, cfg.u0, cfg.T, cfg.nt,
                            s_stab=cfg.s_stab, flux_scheme=cfg.flux_scheme)
    adj = solve_adjoint(traj, cfg.control_spec, cfg.model)
    solve_linearized(traj, cfg.model, adj.p3[1:])
    assert len(calls) <= 0.95 * TRANSFORMS_COLD


def test_nan_in_running_target_names_the_step(problem):
    # phi_q[k] enters the backward step k + 1; the terminal step, which
    # reads phi_q[nt - 1], scans its data on entry.
    grid, spec, init, u, traj, cs, T, nt = problem
    phi_q = cs.phi_q.copy()
    phi_q[5, 2, 3] = np.nan
    bad = ControlSpec(cs.b1, cs.b2, cs.b3, phi_q, cs.phi_omega, cs.u_max)
    with pytest.raises(SolverError, match="backward step 6$"):
        solve_adjoint(traj, bad, spec)
