"""What a sweep stores: the unknowns its caller keeps, bitwise a stored solve.

A sweep given keep, the unknowns its caller reads at every level, steps in
place on one stored trajectory when keep names every unknown, and otherwise
on a ring of three levels, level k in slot k mod 3, whose kept trajectory
stores the keep fields at every level, whatever the step count. A forward
sweep on a ring reduces its report one level at a time; chks simulate
keeps nothing. The tangent sweep keeps psi by default, and the adjoint
sweep, which runs backward from level Nt, p3. A ring, in either direction,
accepts only the levels newest - 1 .. newest + 1, and everything that reads
a whole history refuses a ring, or a trajectory without an unknown it
reads, each with a ValueError that names its role.
"""

import dataclasses
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from chks import cli
from chks import grid as grid_mod
from chks import state as state_mod
from chks.adjoint import ADJOINT_FIELDS, duality_residual, solve_adjoint
from chks.config import load_config
from chks.control_opt import reduced_gradient, stationarity_residual
from chks.fields_io import write_csv, write_trajectory
from chks.linearized import TANGENT_FIELDS, solve_linearized, taylor_remainders
from chks.state import (
    FORWARD_FIELDS,
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


def levels_seen(args, kwargs, keep):
    """Solve, and keep a copy of every level as on_level sees it, and the
    trajectory the sweep steps on."""
    seen, stepped = [], []

    def on_level(traj, k):
        if not stepped or stepped[-1] is not traj:
            stepped.append(traj)
        seen.append(traj.data[:, traj.slot(k)].copy())

    traj, report = solve_forward(*args, **kwargs, on_level=on_level, keep=keep)
    (ring,) = stepped
    return traj, report, seen, ring


def record_threads(monkeypatch, chains, side):
    """Run the chains serially or at once on a side x side grid, and return
    the names of the threads that call helmholtz_direct."""
    # At 16x16 the chains run serially unless the threshold is lowered.
    monkeypatch.setattr(state_mod, "CONCURRENT_MIN_CELLS",
                        np.inf if chains == "serial" else side * side)
    threads = set()
    original = grid_mod.helmholtz_direct

    def recorded(*args, **kwargs):
        threads.add(threading.current_thread().name)
        return original(*args, **kwargs)

    monkeypatch.setattr(grid_mod, "helmholtz_direct", recorded)
    return threads


@pytest.mark.parametrize("chains", ["serial", "concurrent"])
@pytest.mark.parametrize("scheme", ["centered", "upwind"])
@pytest.mark.parametrize("config", ["verify.cfg", "simulate.cfg"])
def test_ring_solve_matches_stored_solve_bitwise(monkeypatch, config, scheme, chains):
    cfg = load_config(CONFIG_DIR / config)
    assert cfg.grid.nx * cfg.grid.ny == 16 * 16
    threads = record_threads(monkeypatch, chains, 16)
    args, kwargs = forward_args(cfg, scheme)
    stored, stored_report, stored_seen, stepped = levels_seen(args, kwargs, FORWARD_FIELDS)
    assert any(name.startswith("chks-chain") for name in threads) == (chains == "concurrent")
    assert stepped is stored and stored.kept is stored
    assert stored.holds_every_level and stored.names == FORWARD_FIELDS
    assert len(stored_seen) == cfg.nt + 1
    for k, level in enumerate(stored_seen):
        assert level.tobytes() == stored.data[:, k].tobytes(), k

    for keep in ((), ("sigma",)):
        kept, report, seen, ring = levels_seen(args, kwargs, keep)
        assert ring.kept is kept and ring.data.shape == (5, RING_LEVELS, cfg.grid.nx, cfg.grid.ny)
        assert kept.holds_every_level and kept.names == keep and kept.newest == cfg.nt
        assert kept.data.shape == (len(keep), cfg.nt + 1, cfg.grid.nx, cfg.grid.ny)
        for name in keep:
            assert kept.fields[name].tobytes() == stored.fields[name].tobytes(), name
        assert len(seen) == cfg.nt + 1
        for k, (want, got) in enumerate(zip(stored_seen, seen)):
            assert got.tobytes() == want.tobytes(), (keep, k)
        for name, column in vars(stored_report).items():
            assert column.dtype == getattr(report, name).dtype, name
            assert column.tobytes() == getattr(report, name).tobytes(), (keep, name)


@pytest.mark.parametrize("nt", [32, 128])
def test_ring_holds_three_levels_whatever_the_step_count(nt):
    cfg = load_config(CONFIG_DIR / "verify.cfg")
    args, kwargs = forward_args(cfg, nt=nt)
    kept, _, _, ring = levels_seen(args, kwargs, ())
    stored, _ = solve_forward(*args, **kwargs)
    assert ring.nt == kept.nt == stored.nt == nt
    assert ring.data.shape == (5, RING_LEVELS, cfg.grid.nx, cfg.grid.ny)
    assert kept.data.nbytes == 0
    assert stored.data.shape == (5, nt + 1, cfg.grid.nx, cfg.grid.ny)
    # The last two levels are still there, each in its slot; the slot of
    # level nt - 2 is the one a next step would write.
    for k in range(nt - 1, nt + 1):
        assert ring.slot(k) == k % 3
        assert ring.data[:, ring.slot(k)].tobytes() == stored.data[:, k].tobytes(), k
        assert energy(ring, k, cfg.model) == energy(stored, k, cfg.model)
    with pytest.raises(ValueError, match=f"^level {nt - 2} is not in the ring, which holds "
                                         f"levels {nt - 1} to {nt}$"):
        ring.slot(nt - 2)
    # A one-step solve steps on a ring too, and its kept trajectory, which
    # is its own kept, stores no unknown.
    args, kwargs = forward_args(cfg, nt=1)
    one, _ = solve_forward(*args, **kwargs, keep=())
    assert one.holds_every_level and one.kept is one and one.names == ()


@pytest.mark.parametrize("nt", [1, 2, 3])
def test_keep_decides_ring_or_stored_at_every_step_count(nt):
    # A sweep of one or two steps has no more levels than a ring, and keeps
    # what keep names all the same, bitwise a keep-all solve.
    cfg = load_config(CONFIG_DIR / "verify.cfg")
    args, kwargs = forward_args(cfg, nt=nt)
    stored, stored_report = solve_forward(*args, **kwargs)
    assert stored.holds_every_level and stored.names == FORWARD_FIELDS
    for keep in ((), ("phi",)):
        kept, report, _, ring = levels_seen(args, kwargs, keep)
        assert not ring.holds_every_level and ring.kept is kept
        assert kept.names == keep and kept.nt == nt and kept.newest == nt
        for name in keep:
            assert kept.fields[name].tobytes() == stored.fields[name].tobytes(), name
        for name, column in vars(stored_report).items():
            assert column.tobytes() == getattr(report, name).tobytes(), (keep, name)

    h = np.random.default_rng(nt).standard_normal((nt, cfg.grid.nx, cfg.grid.ny))
    lin = solve_linearized(stored, cfg.model, h)
    assert lin.names == ("psi",) and lin.holds_every_level
    assert lin.psi.tobytes() == solve_linearized(stored, cfg.model, h, TANGENT_FIELDS).psi.tobytes()
    cs = dataclasses.replace(cfg.control_spec, phi_q=cfg.control_spec.phi_q[:nt])
    adj = solve_adjoint(stored, cs, cfg.model)
    assert adj.names == ("p3",) and adj.holds_every_level and adj.newest == 0
    assert adj.p3.tobytes() == solve_adjoint(stored, cs, cfg.model,
                                             keep=ADJOINT_FIELDS).p3.tobytes()


def test_keep_names_only_the_sweeps_unknowns():
    cfg = load_config(CONFIG_DIR / "verify.cfg")
    args, kwargs = forward_args(cfg)
    with pytest.raises(ValueError, match="^keep names 'psi', not one of phi, mu, a, n, sigma$"):
        solve_forward(*args, **kwargs, keep=("phi", "psi"))
    base, _ = solve_forward(*args, **kwargs)
    with pytest.raises(ValueError,
                       match="^keep names 'phi', not one of psi, eta, alpha_lin, nu, omega$"):
        solve_linearized(base, cfg.model, cfg.u0.values, keep=("phi",))
    with pytest.raises(ValueError, match="^keep names 'psi', not one of p1, p2, p3, p4, p5$"):
        solve_adjoint(base, cfg.control_spec, cfg.model, keep=("p3", "psi"))


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


@pytest.mark.parametrize("nt", [1, 2, 32])
def test_cmd_simulate_writes_what_a_stored_solve_writes_level_by_level(tmp_path, monkeypatch, nt):
    text = (CONFIG_DIR / "simulate.cfg").read_text()
    assert "\nNt = 32\n" in text
    path = tmp_path / "simulate.cfg"
    path.write_text(text.replace("\nNt = 32\n", f"\nNt = {nt}\n"))
    cfg = load_config(path)
    assert cfg.nt == nt
    kept = []
    original = cli.solve_forward

    def recorded(*args, **kwargs):
        traj, report = original(*args, **kwargs)
        kept.append((kwargs["keep"], traj.names))
        return traj, report

    monkeypatch.setattr(cli, "solve_forward", recorded)
    assert cli.cmd_simulate(cfg, tmp_path / "ring", strict=False) == 0
    assert kept == [((), ())]

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
    """verify.cfg, its solve_forward arguments, and its solves: stored, one
    keeping nothing, one keeping n alone and the ring a forward hook saw,
    with the adjoint and tangent of the stored one."""
    cfg = load_config(CONFIG_DIR / "verify.cfg")
    args, kwargs = forward_args(cfg)
    stored, _ = solve_forward(*args, **kwargs)
    none, _, _, ring = levels_seen(args, kwargs, ())
    lacking, _ = solve_forward(*args, **kwargs, keep=("n",))
    adj = solve_adjoint(stored, cfg.control_spec, cfg.model)
    lin = solve_linearized(stored, cfg.model, cfg.u0.values)
    return SimpleNamespace(cfg=cfg, args=args, kwargs=kwargs, stored=stored, none=none,
                           lacking=lacking, ring=ring, adj=adj, lin=lin)


# Each use of a trajectory that reads more than its last three levels, as a
# function of the solves and the trajectory put in, and the role it names.
GUARDS = {
    "solve_adjoint": (lambda s, t: solve_adjoint(t, s.cfg.control_spec, s.cfg.model), "base"),
    "solve_linearized": (lambda s, t: solve_linearized(t, s.cfg.model, s.cfg.u0.values),
                         "base"),
    "duality_residual": (lambda s, t: duality_residual(t, s.adj, s.cfg.u0.values, s.lin,
                                                       s.cfg.control_spec), "base"),
    "check_like": (lambda s, t: s.stored.check_like(t), "like"),
    "solve_forward_like": (lambda s, t: solve_forward(*s.args, **s.kwargs, like=t), "like"),
    "mean_ode_residuals": (lambda s, t: mean_ode_residuals(t, s.cfg.model), "traj"),
    "check_mean_ode": (lambda s, t: check_mean_ode(t, s.cfg.model), "traj"),
    "trajectory_distance_first": (lambda s, t: trajectory_distance(t, s.stored), "t1"),
    "trajectory_distance_second": (lambda s, t: trajectory_distance(s.stored, t), "t2"),
    "taylor_remainders": (lambda s, t: taylor_remainders(t, s.cfg.model, s.cfg.init, s.cfg.u0,
                                                         s.cfg.u0.values, [1e-3]), "base"),
}


@pytest.mark.parametrize("use", GUARDS)
def test_a_ring_is_refused_where_every_level_is_read(solves, use):
    run, role = GUARDS[use]
    run(solves, solves.stored)
    # Every use reads phi, which neither a solve keeping nothing nor one
    # keeping n alone stores.
    for traj in (solves.none, solves.lacking):
        with pytest.raises(ValueError, match=f"^{role} must "):
            run(solves, traj)
    with pytest.raises(ValueError, match=f"^{role} must hold every level, not a ring of 3$"):
        run(solves, solves.ring)


def test_a_ring_refuses_a_level_it_no_longer_holds():
    # After 32 steps the ring holds levels 31 and 32, and no level 33 is
    # left to write; level 0's slot holds level 30, whose energy the ring
    # would otherwise return for level 0.
    cfg = load_config(CONFIG_DIR / "simulate.cfg")
    args, kwargs = forward_args(cfg)
    kept, _, _, ring = levels_seen(args, kwargs, ())
    stored, _ = solve_forward(*args, **kwargs)
    assert ring.newest == kept.newest == stored.newest == cfg.nt == 32
    with pytest.raises(ValueError, match="^level 0 is not in the ring, which holds levels 31 to 32$"):
        energy(ring, 0, cfg.model)
    for k in (30, 33, 34):
        with pytest.raises(ValueError, match=f"^level {k} is not in the ring, which holds levels "
                                             "31 to 32$"):
            ring.slot(k)
    assert energy(ring, 31, cfg.model) == energy(stored, 31, cfg.model)
    # A stored trajectory holds every level wherever its sweep stands.
    assert [stored.slot(k) for k in range(cfg.nt + 1)] == list(range(cfg.nt + 1))
    assert energy(stored, 0, cfg.model) != energy(stored, 31, cfg.model)


@pytest.mark.parametrize("keep", [(), ("phi",)], ids=["forward", "forward_keeping_phi"])
def test_a_hook_reading_three_levels_back_is_refused(keep):
    # Whatever the ring's kept trajectory stores, the ring holds three levels.
    cfg = load_config(CONFIG_DIR / "verify.cfg")
    args, kwargs = forward_args(cfg)
    seen = []

    def on_level(ring, k):
        seen.append(k)
        if k >= 1:
            ring.slot(k - 1)  # step k reads it for its CG start
        if k >= 2:
            ring.slot(k - 2)  # step k writes level k + 1 into its slot

    with pytest.raises(ValueError, match="^level 0 is not in the ring, which holds levels 1 to 3$"):
        solve_forward(*args, **kwargs, on_level=on_level, keep=keep)
    assert seen == [0, 1, 2]


def test_the_window_holds_while_the_chains_run_at_once(monkeypatch):
    # With CONCURRENT_MIN_CELLS lowered to 16^2 the worker writes level
    # k + 1 into the slot of level k - 2 while the forward hook of step k
    # runs, so the hook may read levels k - 1 and k and no older one.
    cfg = load_config(CONFIG_DIR / "simulate.cfg")
    args, kwargs = forward_args(cfg)
    nt = cfg.nt
    threads = record_threads(monkeypatch, "concurrent", 16)
    stored, _ = solve_forward(*args, **kwargs)
    refused, behind = {}, {}

    def on_level(ring, k):
        if k >= 1:
            behind[k - 1] = ring.data[:, ring.slot(k - 1)].copy()
        if k >= 2:
            try:
                ring.slot(k - 2)
            except ValueError as exc:
                refused[k] = str(exc)

    solve_forward(*args, **kwargs, on_level=on_level, keep=())
    assert any(name.startswith("chks-chain") for name in threads)
    assert refused == {k: f"level {k - 2} is not in the ring, which holds levels {k - 1} to "
                          f"{min(k + 1, nt)}" for k in range(2, nt + 1)}
    assert sorted(behind) == list(range(nt))
    for k, level in behind.items():
        assert level.tobytes() == stored.data[:, k].tobytes(), k

    # A backward step k reads levels k + 1 and k + 2 and writes level k;
    # level k + 3, the newest + 2 of its ring, is refused on the worker too.
    grid = grid_mod.Grid(16, 16)
    ring = Trajectory.zeros(grid, 0.1 * np.arange(9), ADJOINT_FIELDS, ("p3",), direction=-1)
    refused.clear()

    def second(k, old, new):
        threads.add(threading.current_thread().name + "/backward")
        for level in range(k, min(k + 2, 8) + 1):
            ring.slot(level)
        try:
            ring.slot(k + 3)
        except ValueError as exc:
            refused[k] = str(exc)

    for k in range(7, -1, -1):
        ring.advance("adjoint", k, lambda *_: None, second)
    assert any(name.startswith("chks-chain") and name.endswith("/backward") for name in threads)
    assert refused == {k: f"level {k + 3} is not in the ring, which holds levels {k} to "
                          f"{min(k + 2, 8)}" for k in range(8)}


@pytest.mark.parametrize("chains", ["serial", "concurrent"])
@pytest.mark.parametrize("keep", [ADJOINT_FIELDS, ("p3",)], ids=["stored", "ring"])
@pytest.mark.parametrize("direction", [1, -1])
def test_advance_hands_both_chains_the_slots_of_the_levels_read_and_written(
        monkeypatch, chains, keep, direction):
    # Forward, step k reads level k and writes k + 1; backward, it reads
    # k + 1 and writes k. Each chain gets (k, slot read, slot written), the
    # second on the worker thread when the chains run at once.
    monkeypatch.setattr(state_mod, "CONCURRENT_MIN_CELLS",
                        np.inf if chains == "serial" else 16 * 16)
    nt = 7
    traj = Trajectory.zeros(grid_mod.Grid(16, 16), 0.1 * np.arange(nt + 1), ADJOINT_FIELDS, keep,
                            direction=direction)
    calls = {"first": [], "second": []}

    def chain(name):
        def run(k, old, new):
            calls[name].append((k, old, new, threading.current_thread()))
        return run

    steps = range(nt) if direction > 0 else range(nt - 1, -1, -1)
    for k in steps:
        traj.advance("sweep", k, chain("first"), chain("second"))
    slot = (lambda level: level % 3) if keep == ("p3",) else (lambda level: level)
    expected = [(k, slot(k), slot(k + 1)) if direction > 0 else (k, slot(k + 1), slot(k))
                for k in steps]
    for name in ("first", "second"):
        assert [call[:3] for call in calls[name]] == expected, name
    assert {call[3] for call in calls["first"]} == {threading.current_thread()}
    (second_thread,) = {call[3] for call in calls["second"]}
    if chains == "concurrent":
        assert second_thread.name.startswith("chks-chain")
    else:
        assert second_thread is threading.current_thread()


@pytest.mark.parametrize("chains", ["serial", "concurrent"])
def test_tangent_ring_matches_stored_tangent_bitwise(monkeypatch, chains):
    cfg = load_config(CONFIG_DIR / "verify.cfg")
    args, kwargs = forward_args(cfg)
    base, _ = solve_forward(*args, **kwargs)
    h = np.random.default_rng(3).standard_normal((cfg.nt, cfg.grid.nx, cfg.grid.ny))
    assert cfg.grid.nx * cfg.grid.ny == 16 * 16
    threads = record_threads(monkeypatch, chains, 16)
    stored = solve_linearized(base, cfg.model, h, TANGENT_FIELDS)
    assert any(name.startswith("chks-chain") for name in threads) == (chains == "concurrent")
    assert stored.holds_every_level and stored.kept is stored and stored.names == TANGENT_FIELDS
    # Level 0 is zero; by the last level h has reached every unknown.
    assert not stored.data[:, 0].any() and stored.data[:, -1].any(axis=(1, 2)).all()
    for keep in ((), ("psi",), ("omega",)):
        kept = solve_linearized(base, cfg.model, h, keep)
        assert kept.holds_every_level and kept.names == keep and kept.newest == cfg.nt
        assert kept.data.shape == (len(keep), cfg.nt + 1, cfg.grid.nx, cfg.grid.ny)
        for name in keep:
            assert kept.fields[name].tobytes() == stored.fields[name].tobytes(), name
        assert (kept.grid, kept.s_stab, kept.flux_scheme) == (base.grid, base.s_stab,
                                                              base.flux_scheme)


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
        psi = solve_linearized(base, cfg.model, cfg.u0.values).psi
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert psi.nbytes == (cfg.nt + 1) * cfg.grid.nx * cfg.grid.ny * 8
    assert peak < 2.5 * psi.nbytes, f"peak {peak} B against a {psi.nbytes} B psi array"


@pytest.mark.parametrize("stored_like", [False, True], ids=["cold", "like"])
@pytest.mark.parametrize("chains", ["serial", "concurrent"])
@pytest.mark.parametrize("scheme", ["centered", "upwind"])
def test_adjoint_ring_matches_stored_adjoint_bitwise(monkeypatch, scheme, chains, stored_like):
    cfg = load_config(CONFIG_DIR / "verify.cfg")
    args, kwargs = forward_args(cfg, scheme)
    base, _ = solve_forward(*args, **kwargs)
    like = None
    if stored_like:
        # The adjoint of a nearby control, as optimize passes it.
        nearby = Control(0.9 * cfg.u0.values, cfg.u0.u_max)
        near, _ = solve_forward(*args[:3], nearby, *args[4:], **kwargs)
        like = solve_adjoint(near, cfg.control_spec, cfg.model, keep=ADJOINT_FIELDS)
    assert cfg.grid.nx * cfg.grid.ny == 16 * 16
    threads = record_threads(monkeypatch, chains, 16)
    stored = solve_adjoint(base, cfg.control_spec, cfg.model, like, ADJOINT_FIELDS)
    assert any(name.startswith("chks-chain") for name in threads) == (chains == "concurrent")
    assert stored.holds_every_level and stored.kept is stored and stored.names == ADJOINT_FIELDS
    # p3, p4 and p5 are zero at level Nt; by level 0 the misfit has reached
    # every unknown.
    assert not stored.data[2:, -1].any() and stored.data[:, 0].any(axis=(1, 2)).all()
    for keep in ((), ("p3",), ("p5",), ADJOINT_FIELDS):
        kept = solve_adjoint(base, cfg.control_spec, cfg.model, like, keep)
        assert kept.holds_every_level and kept.names == keep and kept.newest == 0
        assert kept.data.shape == (len(keep), cfg.nt + 1, cfg.grid.nx, cfg.grid.ny)
        for name in keep:
            assert kept.fields[name].tobytes() == stored.fields[name].tobytes(), (keep, name)
        assert (kept.grid, kept.s_stab, kept.flux_scheme) == (base.grid, base.s_stab,
                                                              base.flux_scheme)


def test_adjoint_sweep_holds_p3_and_a_ring_only():
    # tracemalloc sees numpy's buffers. Beside the returned p3, the sweep
    # holds a ring of 5 x 3 levels, the final condition's (p1, p2) pair and
    # one step's temporaries, about 1 p3 array at 64^2 with 32 steps; every
    # unknown at every level would be 5 p3 arrays.
    cfg = load_config(CONFIG_DIR.parent / "perfbench" / "configs" / "optimize-64.cfg")
    args, kwargs = forward_args(cfg)
    base, _ = solve_forward(*args, **kwargs)
    tracemalloc.start()
    try:
        p3 = solve_adjoint(base, cfg.control_spec, cfg.model).p3
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p3.nbytes == (cfg.nt + 1) * cfg.grid.nx * cfg.grid.ny * 8
    assert peak < 2.5 * p3.nbytes, f"peak {peak} B against a {p3.nbytes} B p3 array"


def test_a_backward_ring_refuses_a_level_it_no_longer_holds():
    # A backward sweep starts at level Nt = 32; step k reads levels k + 1
    # and k + 2 and writes level k into the slot of level k + 3.
    grid = grid_mod.Grid(4, 4)
    ring = Trajectory.zeros(grid, 0.1 * np.arange(33), ADJOINT_FIELDS, ("p3",), direction=-1)
    assert not ring.holds_every_level and ring.newest == 32
    # Before the first step the ring holds level Nt and the one the first
    # step writes.
    with pytest.raises(ValueError,
                       match="^level 30 is not in the ring, which holds levels 31 to 32$"):
        ring.slot(30)
    assert ring.slot(31) == 1  # the level the first step writes
    for k in range(31, 1, -1):
        ring.advance("adjoint", k, lambda *_: None, lambda *_: None)
    assert ring.newest == ring.kept.newest == 2
    for k in (0, 4, 5):
        with pytest.raises(ValueError,
                           match=f"^level {k} is not in the ring, which holds levels 1 to 3$"):
            ring.slot(k)
    assert [ring.slot(k) for k in range(1, 4)] == [1, 2, 0]


def test_readers_of_p3_refuse_an_adjoint_without_it(solves):
    cfg, stored = solves.cfg, solves.stored
    u, h, cs = cfg.u0, cfg.u0.values, cfg.control_spec
    readers = (lambda adj: reduced_gradient(adj, u, cs.b3),
               lambda adj: stationarity_residual(u, adj, cs),
               lambda adj: duality_residual(stored, adj, h, solves.lin, cs))
    lacking = solve_adjoint(stored, cs, cfg.model, keep=("p5",))
    for read in readers:
        read(solves.adj)
        with pytest.raises(ValueError, match="^adj must hold p3 at every level$"):
            read(lacking)
