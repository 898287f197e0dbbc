"""Time-constant controls and targets: one read-only field shared by every step.

load_config stores u0, u_true and a fields-target phi_q once and hands every
step a stride-0 view of that field. The solvers only read them, so views and
full per-step copies must give the same bits.
"""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chks.adjoint import ADJOINT_FIELDS, duality_residual, solve_adjoint
from chks.config import load_config
from chks.control_opt import cost, optimize
from chks.linearized import TANGENT_FIELDS, solve_linearized
from chks.state import FORWARD_FIELDS, Control, solve_forward

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ["verify.cfg", "optimize_inverse_crime.cfg"]  # targets = fields, simulation


def shared_fields(cfg):
    """The (Nt, nx, ny) arrays that load_config builds from one generated field."""
    fields = {"u0": cfg.u0.values}
    if cfg.u_true is None:
        fields["phi_q"] = cfg.control_spec.phi_q
    else:
        fields["u_true"] = cfg.u_true
    return fields


def with_copies(cfg):
    """cfg with every shared field replaced by a full array of its values."""
    return dataclasses.replace(
        cfg,
        u0=Control(np.array(cfg.u0.values), cfg.u0.u_max),
        control_spec=dataclasses.replace(cfg.control_spec,
                                         phi_q=np.array(cfg.control_spec.phi_q)),
        u_true=None if cfg.u_true is None else np.array(cfg.u_true),
    )


@pytest.mark.parametrize("name", CONFIGS)
def test_time_constant_fields_are_read_only_views(name):
    cfg = load_config(ROOT / "configs" / name)
    for key, x in shared_fields(cfg).items():
        assert x.shape == (cfg.nt, cfg.grid.nx, cfg.grid.ny), key
        assert not x.flags.writeable, key
        assert np.shares_memory(x[0], x[-1]), key
        with pytest.raises(ValueError, match="read-only"):
            x[1] = 0.0
    if cfg.u_true is not None:
        # The simulated running target varies in time: one array per step.
        phi_q = cfg.control_spec.phi_q
        assert phi_q.flags.writeable and not np.shares_memory(phi_q[0], phi_q[-1])


def solve_all(cfg):
    """Every solver output that reads a shared field, keyed by name."""
    out = {}
    controls = {"u0": cfg.u0}
    if cfg.u_true is not None:
        controls["u_true"] = Control(cfg.u_true, cfg.u0.u_max)
    cs = cfg.control_spec
    for label, u in controls.items():
        traj, _ = solve_forward(cfg.grid, cfg.model, cfg.init, u, cfg.T, cfg.nt,
                                s_stab=cfg.s_stab, flux_scheme=cfg.flux_scheme,
                                keep=FORWARD_FIELDS)
        adj = solve_adjoint(traj, cs, cfg.model, keep=ADJOINT_FIELDS)
        lin = solve_linearized(traj, cfg.model, u.values, TANGENT_FIELDS)
        fields = {**traj.fields, **adj.fields, **lin.fields}
        out.update({f"{label}.{key}": f for key, f in fields.items()})
        out[f"{label}.duality"] = duality_residual(traj, adj, u.values, lin, cs)
        out[f"{label}.cost"] = cost(traj, u, cs)
    res = optimize(cfg.grid, cfg.model, cfg.init, cs, cfg.u0, cfg.T, cfg.nt,
                   dataclasses.replace(cfg.opts, max_iters=3))
    assert res.iterations == 3 or res.converged
    out["optimize.u_star"] = res.u_star.values
    out["optimize.costs"] = np.array(res.cost_history)
    out["optimize.stationarity"] = np.array(res.stationarity_history)
    return out


@pytest.mark.parametrize("name", CONFIGS)
def test_views_and_copies_give_identical_results(name):
    cfg = load_config(ROOT / "configs" / name)
    from_views = solve_all(cfg)
    from_copies = solve_all(with_copies(cfg))
    assert from_views.keys() == from_copies.keys()
    for key, value in from_views.items():
        assert np.array_equal(value, from_copies[key]), key


def test_load_config_stores_no_per_step_copy():
    # tracemalloc sees numpy's buffers, so this guard reads the same on every
    # platform: one (Nt, nx, ny) array of optimize-64 is 1 MiB, and repeating
    # u0 or phi_q over the steps would put the peak above it.
    path = ROOT / "perfbench" / "configs" / "optimize-64.cfg"
    tracemalloc.start()
    try:
        cfg = load_config(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_step_array = cfg.nt * cfg.grid.nx * cfg.grid.ny * 8
    assert per_step_array >= 2**20
    assert peak < per_step_array / 2, f"peak {peak} B against a {per_step_array} B array"
