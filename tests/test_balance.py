"""Balance laws: the spatial means of n, sigma and a obey the scheme's mean
identities exactly, at the lags the step uses.

With homogeneous Neumann conditions the discrete Laplacian and the
conservative chemotaxis divergence sum to zero over the cells, so averaging
each implicit update over the grid (M, the spatial mean) leaves, for step
k -> k + 1:

    n:     M(n_{k+1})/tau = (1/tau + c_n) M(n_k) + (chi_phi + c_phi) M(phi_{k+1})
                            + c_sigma M(sigma_k) + c_0
    sigma: M((1/tau + 1 + a+_k) sigma_{k+1}) = M(sigma_k)/tau + chi_a M(a+_k) + 1
    a:     M(a_{k+1})/tau = M(a_k ((1/tau + 1) - a_k)) + M(u_k)

with a+ = max(a, 0). Every source term of the three updates appears here,
so dropping or mis-lagging one breaks an identity by that term's mean. The
n and a updates are direct solves, so their identities hold to round-off;
sigma's CG stops at a relative residual of CG_RELATIVE_TOL, which bounds its
identity instead.

Bounds. For a sum of terms t_i, the round-off bound is
ROUNDOFF * sum(max |t_i|): forming a right-hand side costs a few roundings
per cell, each of the DCT pair and each mean a pairwise sum over the N
cells, log2(N) roundings deep, so 8 log2(N) machine epsilons cover them
together. For sigma, |M(r)| <= ||r||_2 / sqrt(N) <= CG_RELATIVE_TOL ||b||_2 /
sqrt(N) for the CG residual r and right-hand side b, plus the same
round-off bound. The divergence enters the a bound through the largest
face flux it sums, each cell's divergence a difference of four of them.
"""

from pathlib import Path

import numpy as np
import pytest

from chks import grid as g
from chks.config import load_config
from chks.state import FORWARD_FIELDS, solve_forward

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
EPS = np.finfo(float).eps


def roundoff(grid, *terms):
    """8 log2(N) machine epsilons of the sum of the terms' largest magnitudes."""
    return 8 * np.log2(grid.nx * grid.ny) * EPS * sum(float(np.abs(t).max()) for t in terms)


def max_face_flux(grid, c, f):
    """The largest |c| |f_high - f_low| / h^2 over the interior faces, a bound
    on each face flux that divergence(grid, c, f) differences."""
    c_max = float(np.abs(c).max())
    return c_max * max(float(np.abs(np.diff(f, axis=0)).max()) / grid.hx**2,
                       float(np.abs(np.diff(f, axis=1)).max()) / grid.hy**2)


@pytest.fixture(scope="module", params=[
    ("verify.cfg", "centered"), ("verify.cfg", "upwind"),
    ("optimize_inverse_crime.cfg", "centered"), ("optimize_inverse_crime.cfg", "upwind"),
], ids=lambda p: f"{p[0]}-{p[1]}")
def run(request):
    config, scheme = request.param
    cfg = load_config(CONFIG_DIR / config)
    # c_0 is nonzero in both configs, so its term is tested.
    assert cfg.model.c_0 != 0
    traj, _ = solve_forward(cfg.grid, cfg.model, cfg.init, cfg.u0, cfg.T, cfg.nt,
                            s_stab=cfg.s_stab, flux_scheme=scheme, keep=FORWARD_FIELDS)
    return cfg, traj


def test_nutrient_mean_balance(run):
    cfg, traj = run
    spec, gr, inv_tau = cfg.model, cfg.grid, 1.0 / traj.tau
    for k in range(traj.nt):
        terms = (traj.n[k + 1] * inv_tau, (inv_tau + spec.c_n) * traj.n[k],
                 (spec.chi_phi + spec.c_phi) * traj.phi[k + 1], spec.c_sigma * traj.sigma[k],
                 np.float64(spec.c_0))
        lhs = terms[0].mean()
        rhs = terms[1].mean() + terms[2].mean() + terms[3].mean() + spec.c_0
        assert abs(lhs - rhs) <= roundoff(gr, *terms), (k, lhs - rhs)


def test_signal_mean_balance(run):
    cfg, traj = run
    spec, gr, inv_tau = cfg.model, cfg.grid, 1.0 / traj.tau
    cells = gr.nx * gr.ny
    for k in range(traj.nt):
        a_plus = np.maximum(traj.a[k], 0.0)
        b = traj.sigma[k] * inv_tau + spec.chi_a * a_plus + 1.0
        implicit = ((inv_tau + 1.0) + a_plus) * traj.sigma[k + 1]
        gap = implicit.mean() - (traj.sigma[k].mean() * inv_tau + spec.chi_a * a_plus.mean() + 1.0)
        bound = (g.CG_RELATIVE_TOL * float(np.linalg.norm(b)) / np.sqrt(cells)
                 + roundoff(gr, implicit, b, g.laplacian(gr, traj.sigma[k + 1])))
        assert abs(gap) <= bound, (k, gap)


def test_vasculature_mean_balance(run):
    cfg, traj = run
    spec, gr, inv_tau = cfg.model, cfg.grid, 1.0 / traj.tau
    for k in range(traj.nt):
        a, u = traj.a[k], cfg.u0.values[k]
        logistic = a * ((inv_tau + 1.0) - a)
        gap = (traj.a[k + 1] * inv_tau).mean() - (logistic.mean() + u.mean())
        flux = 4 * spec.chi_a * max_face_flux(gr, a, traj.sigma[k + 1])
        bound = roundoff(gr, traj.a[k + 1] * inv_tau, logistic, u, np.float64(flux))
        assert abs(gap) <= bound, (k, gap)
