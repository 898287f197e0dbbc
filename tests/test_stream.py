"""Sweeps on a ring of three levels, bitwise a stored solve.

solve_forward(stream=True) keeps level k in slot k mod 3 and reduces the
report one level at a time; chks simulate is its one caller. The tangent
sweep always runs on a ring and keeps psi alone at every level. A ring
refuses a level it no longer holds, and everything that needs the whole
history refuses a ring, each with a ValueError.
"""

import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from chks import cli
from chks import grid as grid_mod
from chks import state as state_mod
from chks.adjoint import solve_adjoint
from chks.config import load_config
from chks.fields_io import write_csv, write_trajectory
from chks.linearized import solve_linearized, tangent_trajectory, taylor_remainders
from chks.state import (
    RING_LEVELS,
    Control,
    Trajectory,
    check_mean_ode,
    energy,
    mean_ode_residuals,
    solve_forward,
    trajectory_distance,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def forward_args(cfg, scheme=None, nt=None):
    """solve_forward's arguments for a config, with its flux scheme or step
    count replaced; a longer run repeats the first step's control."""
    u = cfg.u0
    if nt is not None:
        u = Control(np.repeat(cfg.u0.values[:1], nt, axis=0), cfg.u0.u_max)
    args = (cfg.grid, cfg.model, cfg.init, u, cfg.T, nt or cfg.nt)
    return args, {"s_stab": cfg.s_stab, "flux_scheme": scheme or cfg.flux_scheme}


def levels_seen(args, kwargs, stream):
    """Solve, and keep a copy of every level as on_level sees it."""
    seen = []

    def on_level(traj, k):
        seen.append(traj.data[:, traj.slot(k)].copy())

    traj, report = solve_forward(*args, **kwargs, on_level=on_level, stream=stream)
    return traj, report, seen


@pytest.mark.parametrize("chains", ["serial", "concurrent"])
@pytest.mark.parametrize("scheme", ["centered", "upwind"])
@pytest.mark.parametrize("config", ["verify.cfg", "simulate.cfg"])
def test_ring_solve_matches_stored_solve_bitwise(monkeypatch, config, scheme, chains):
    cfg = load_config(CONFIG_DIR / config)
    # At 16x16 the chains run serially unless the threshold is lowered.
    monkeypatch.setattr(state_mod, "CONCURRENT_MIN_CELLS",
                        np.inf if chains == "serial" else cfg.grid.nx * cfg.grid.ny)
    threads = set()
    original = grid_mod.helmholtz_direct

    def recorded(*args, **kwargs):
        threads.add(threading.current_thread().name)
        return original(*args, **kwargs)

    monkeypatch.setattr(grid_mod, "helmholtz_direct", recorded)
    args, kwargs = forward_args(cfg, scheme)
    stored, stored_report, stored_seen = levels_seen(args, kwargs, stream=False)
    ring, ring_report, ring_seen = levels_seen(args, kwargs, stream=True)
    assert any(name.startswith("chks-chain") for name in threads) == (chains == "concurrent")

    assert stored.holds_every_level and not ring.holds_every_level
    assert ring.data.shape == (5, RING_LEVELS, cfg.grid.nx, cfg.grid.ny)
    assert len(stored_seen) == len(ring_seen) == cfg.nt + 1
    for k, (want, got) in enumerate(zip(stored_seen, ring_seen)):
        assert want.tobytes() == stored.data[:, k].tobytes(), k
        assert got.tobytes() == want.tobytes(), k
    for name, column in vars(stored_report).items():
        assert column.dtype == getattr(ring_report, name).dtype, name
        assert column.tobytes() == getattr(ring_report, name).tobytes(), name


@pytest.mark.parametrize("nt", [32, 128])
def test_ring_holds_three_levels_whatever_the_step_count(nt):
    cfg = load_config(CONFIG_DIR / "verify.cfg")
    args, kwargs = forward_args(cfg, nt=nt)
    ring, _ = solve_forward(*args, **kwargs, stream=True)
    stored, _ = solve_forward(*args, **kwargs)
    assert ring.nt == stored.nt == nt
    assert ring.data.shape == (5, RING_LEVELS, cfg.grid.nx, cfg.grid.ny)
    assert stored.data.shape == (5, nt + 1, cfg.grid.nx, cfg.grid.ny)
    # The last three levels are still there, each in its slot.
    for k in range(nt - 2, nt + 1):
        assert ring.slot(k) == k % 3
        assert ring.data[:, ring.slot(k)].tobytes() == stored.data[:, k].tobytes(), k
        assert energy(ring, k, cfg.model) == energy(stored, k, cfg.model)
    # A one-step solve holds its two levels, which is every level.
    args, kwargs = forward_args(cfg, nt=1)
    assert solve_forward(*args, **kwargs, stream=True)[0].holds_every_level


def test_trajectory_rejects_other_slot_counts():
    grid = grid_mod.Grid(4, 4)
    times = 0.1 * np.arange(6)
    for slots in (6, RING_LEVELS):
        Trajectory(grid, times, ("x",), np.zeros((1, slots, 4, 4)))
    for slots in (2, 4, 7):
        with pytest.raises(ValueError, match="data must have shape"):
            Trajectory(grid, times, ("x",), np.zeros((1, slots, 4, 4)))


@pytest.mark.parametrize("side", [16, 64, 256])
def test_one_level_reductions_match_the_block_reductions(side):
    # A ring reduces the report one level at a time, a stored solve over all
    # its levels at once; series.csv writes these values, so they must agree
    # to the bit. min, max and the clamp counts are exact; the mean is a sum.
    rng = np.random.default_rng(side)
    block = rng.uniform(0.1, 0.9, (4, side, side))
    means = block.mean(axis=(1, 2))
    for k, level in enumerate(block):
        assert level.mean() == means[k], k
        assert block[k:k + 1].mean(axis=(1, 2))[0] == means[k], k


def test_cmd_simulate_writes_what_a_stored_solve_writes_level_by_level(tmp_path, monkeypatch):
    cfg = load_config(CONFIG_DIR / "simulate.cfg")
    streamed = []
    original = cli.solve_forward

    def recorded(*args, **kwargs):
        traj, report = original(*args, **kwargs)
        streamed.append(not traj.holds_every_level)
        return traj, report

    monkeypatch.setattr(cli, "solve_forward", recorded)
    assert cli.cmd_simulate(cfg, tmp_path / "ring", strict=False) == 0
    assert streamed == [True]

    stored_out = tmp_path / "stored"
    args, kwargs = forward_args(cfg)
    traj, report = original(*args, **kwargs)
    energies = [energy(traj, k, cfg.model) for k in range(traj.nt + 1)]
    for k in range(traj.nt + 1):
        write_trajectory(stored_out, traj.grid,
                         {name: f[k:k + 1] for name, f in traj.fields.items()}, start=k)
    write_csv(stored_out / "series.csv", cli._series_rows(traj, report, energies))

    names = sorted(p.name for p in stored_out.iterdir())
    assert len(names) == 5 * (cfg.nt + 1) + 1
    assert sorted(p.name for p in (tmp_path / "ring").iterdir()) == names
    for name in names:
        assert ((tmp_path / "ring" / name).read_bytes()
                == (stored_out / name).read_bytes()), name


@pytest.fixture(scope="module")
def solves():
    """verify.cfg, its solve_forward arguments, and its ring and stored solves."""
    cfg = load_config(CONFIG_DIR / "verify.cfg")
    args, kwargs = forward_args(cfg)
    ring, _ = solve_forward(*args, **kwargs, stream=True)
    stored, _ = solve_forward(*args, **kwargs)
    return SimpleNamespace(cfg=cfg, args=args, kwargs=kwargs, ring=ring, stored=stored)


# Each use of a trajectory that reads more than its last three levels, and
# the role it names.
GUARDS = {
    "solve_adjoint": (lambda s: solve_adjoint(s.ring, s.cfg.control_spec, s.cfg.model), "base"),
    "solve_linearized": (lambda s: solve_linearized(s.ring, s.cfg.model, s.cfg.u0.values),
                         "base"),
    "tangent_trajectory": (lambda s: tangent_trajectory(s.ring, s.cfg.model, s.cfg.u0.values),
                           "base"),
    "check_like": (lambda s: s.stored.check_like(s.ring), "like"),
    "solve_forward_like": (lambda s: solve_forward(*s.args, **s.kwargs, like=s.ring), "like"),
    "mean_ode_residuals": (lambda s: mean_ode_residuals(s.ring, s.cfg.model), "traj"),
    "check_mean_ode": (lambda s: check_mean_ode(s.ring, s.cfg.model), "traj"),
    "trajectory_distance_first": (lambda s: trajectory_distance(s.ring, s.stored), "t1"),
    "trajectory_distance_second": (lambda s: trajectory_distance(s.stored, s.ring), "t2"),
    "taylor_remainders": (lambda s: taylor_remainders(s.ring, s.cfg.model, s.cfg.init, s.cfg.u0,
                                                      s.cfg.u0.values, [1e-3]), "base"),
}


@pytest.mark.parametrize("use", GUARDS)
def test_a_ring_is_refused_where_every_level_is_read(solves, use):
    run, role = GUARDS[use]
    with pytest.raises(ValueError, match=f"^{role} must hold every level, not a ring of 3$"):
        run(solves)


def test_a_ring_refuses_a_level_it_no_longer_holds():
    # After 32 steps the ring holds levels 30 to 32; level 0's slot holds
    # level 30, whose energy the ring would otherwise return for level 0.
    cfg = load_config(CONFIG_DIR / "simulate.cfg")
    args, kwargs = forward_args(cfg)
    ring, _ = solve_forward(*args, **kwargs, stream=True)
    stored, _ = solve_forward(*args, **kwargs)
    assert ring.newest == stored.newest == cfg.nt == 32
    with pytest.raises(ValueError, match="^level 0 is not in the ring, which holds levels 30 to 32$"):
        energy(ring, 0, cfg.model)
    with pytest.raises(ValueError, match="^level 34 is not in the ring"):
        ring.slot(34)
    assert ring.slot(33) == 0  # the level a next step would write
    assert energy(ring, 30, cfg.model) == energy(stored, 30, cfg.model)
    # A stored trajectory holds every level wherever its sweep stands.
    assert [stored.slot(k) for k in range(cfg.nt + 1)] == list(range(cfg.nt + 1))
    assert energy(stored, 0, cfg.model) != energy(stored, 30, cfg.model)


def _forward_with_hook(cfg, on_level):
    args, kwargs = forward_args(cfg)
    solve_forward(*args, **kwargs, on_level=on_level, stream=True)


def _tangent_with_hook(cfg, on_level):
    args, kwargs = forward_args(cfg)
    base, _ = solve_forward(*args, **kwargs)
    solve_linearized(base, cfg.model, cfg.u0.values, on_level)


@pytest.mark.parametrize("sweep", [_forward_with_hook, _tangent_with_hook],
                         ids=["forward", "tangent"])
def test_a_hook_reading_three_levels_back_is_refused(sweep):
    cfg = load_config(CONFIG_DIR / "verify.cfg")
    seen = []

    def on_level(ring, k):
        seen.append(k)
        if k >= 2:
            ring.slot(k - 2)  # still in the ring until step k writes level k + 1
        if k >= 3:
            ring.slot(k - 3)

    with pytest.raises(ValueError, match="^level 0 is not in the ring, which holds levels 1 to 3$"):
        sweep(cfg, on_level)
    assert seen == [0, 1, 2, 3]


@pytest.mark.parametrize("chains", ["serial", "concurrent"])
def test_tangent_hook_sees_each_level_once_in_order(monkeypatch, chains):
    cfg = load_config(CONFIG_DIR / "verify.cfg")
    args, kwargs = forward_args(cfg)
    base, _ = solve_forward(*args, **kwargs)
    h = np.random.default_rng(3).standard_normal((cfg.nt, cfg.grid.nx, cfg.grid.ny))
    monkeypatch.setattr(state_mod, "CONCURRENT_MIN_CELLS",
                        np.inf if chains == "serial" else 16 * 16)
    assert cfg.grid.nx * cfg.grid.ny == 16 * 16
    workers = set()
    original = grid_mod.helmholtz_direct

    def recorded(*args, **kwargs):
        workers.add(threading.current_thread().name)
        return original(*args, **kwargs)

    monkeypatch.setattr(grid_mod, "helmholtz_direct", recorded)
    seen, threads = [], set()

    def on_level(ring, k):
        threads.add(threading.current_thread())
        assert not ring.holds_every_level
        assert ring.data.shape == (5, RING_LEVELS, cfg.grid.nx, cfg.grid.ny)
        seen.append((k, ring.data[:, ring.slot(k)].copy()))

    psi = solve_linearized(base, cfg.model, h, on_level)
    assert any(name.startswith("chks-chain") for name in workers) == (chains == "concurrent")
    assert threads == {threading.current_thread()}
    assert [k for k, _ in seen] == list(range(cfg.nt + 1))
    assert not seen[0][1].any()
    assert psi.shape == (cfg.nt + 1, cfg.grid.nx, cfg.grid.ny)
    for k, level in seen:
        assert level[0].tobytes() == psi[k].tobytes(), k
    # tangent_trajectory is the same sweep, every unknown kept.
    lin = tangent_trajectory(base, cfg.model, h)
    assert lin.holds_every_level and lin.names == ("psi", "eta", "alpha_lin", "nu", "omega")
    for k, level in seen:
        assert level.tobytes() == lin.data[:, k].tobytes(), k


def test_tangent_sweep_holds_psi_and_a_ring_only():
    # tracemalloc sees numpy's buffers. Beside the returned psi, the sweep
    # holds a ring of 5 x 3 levels and one step's temporaries, about 0.9 of
    # a psi array at 64^2 with 32 steps; every unknown at every level would
    # be 5 psi arrays.
    cfg = load_config(CONFIG_DIR.parent / "perfbench" / "configs" / "optimize-64.cfg")
    args, kwargs = forward_args(cfg)
    base, _ = solve_forward(*args, **kwargs)
    tracemalloc.start()
    try:
        psi = solve_linearized(base, cfg.model, cfg.u0.values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert psi.nbytes == (cfg.nt + 1) * cfg.grid.nx * cfg.grid.ny * 8
    assert peak < 2.5 * psi.nbytes, f"peak {peak} B against a {psi.nbytes} B psi array"
