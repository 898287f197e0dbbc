"""What a sweep stores: the unknowns its caller keeps, bitwise a keep-all solve.

A sweep given keep, the unknowns its caller reads at every level, stores
those at every level and steps the others on a ring of three levels, level
k in slot k mod 3, whatever the step count; each unknown has one array,
which the step writes in place, and the ring is freed when the sweep ends.
The forward sweep keeps phi, a and sigma by default (REPLAY_FIELDS), what
its readers read, and reduces its report from them after the sweep; chks
simulate keeps nothing, and its sweep reduces the report one level at a
time. The tangent sweep keeps psi by default, and the adjoint sweep, which
runs backward from level Nt, p3. While the ring holds an unknown, in either
direction, a level is read only within newest - 1 .. newest + 1, and
everything that reads a whole history refuses a trajectory without an
unknown it reads at every level, with a ValueError that names its role.
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
from chks.control_opt import cost, reduced_gradient, stationarity_residual
from chks.fields_io import write_csv, write_trajectory
from chks.linearized import TANGENT_FIELDS, solve_linearized, taylor_remainders
from chks.state import (
    FORWARD_FIELDS,
    REPLAY_FIELDS,
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
    """Solve, and keep a copy of every level as on_level sees it, its
    unknowns in the order of FORWARD_FIELDS, and the names on the ring of
    the trajectory the sweep steps on, which is the one it returns."""
    seen, stepped = [], set()

    def on_level(traj, k):
        stepped.add((id(traj), traj.ring_names, traj.ring.shape))
        level = traj.level(k)
        seen.append(np.stack([getattr(level, name) for name in FORWARD_FIELDS]))

    traj, report = solve_forward(*args, **kwargs, on_level=on_level, keep=keep)
    ((returned, ring_names, shape),) = stepped
    assert returned == id(traj)
    assert shape == (len(ring_names), RING_LEVELS, traj.grid.nx, traj.grid.ny)
    # The sweep over, its ring is freed.
    assert traj.ring_names == () and traj.ring.size == 0
    return traj, report, seen, ring_names


def stacked(level):
    """A copy of a level's views, stacked in the order level gives them."""
    return np.stack(list(vars(level).values()))


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
    stored, stored_report, stored_seen, ring_names = levels_seen(args, kwargs, FORWARD_FIELDS)
    assert any(name.startswith("chks-chain") for name in threads) == (chains == "concurrent")
    assert ring_names == () and stored.names == FORWARD_FIELDS
    assert len(stored_seen) == cfg.nt + 1
    for k, level in enumerate(stored_seen):
        assert level.tobytes() == stored.data[:, k].tobytes(), k

    # REPLAY_FIELDS is a plain solve's keep, whose report is reduced from the
    # kept phi, a and sigma after the sweep; the others reduce it level by level.
    for keep in ((), ("sigma",), REPLAY_FIELDS):
        kept, report, seen, ring_names = levels_seen(args, kwargs, keep)
        assert ring_names == tuple(name for name in FORWARD_FIELDS if name not in keep)
        assert kept.names == keep and kept.newest == cfg.nt
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
    stored, _ = solve_forward(*args, **kwargs, keep=FORWARD_FIELDS)
    assert stored.data.shape == (5, nt + 1, cfg.grid.nx, cfg.grid.ny)
    last = []

    def on_level(ring, k):
        assert ring.ring.shape == (5, RING_LEVELS, cfg.grid.nx, cfg.grid.ny)
        assert ring.data.nbytes == 0
        if k < nt:
            return
        # At the last level, the last two levels are still there, each in its
        # slot; the slot of level nt - 2 is the one a next step would write.
        for j in range(nt - 1, nt + 1):
            assert ring.slot(j) == j % 3
            assert stacked(ring.level(j)).tobytes() == stored.data[:, j].tobytes(), j
            assert energy(ring, j, cfg.model) == energy(stored, j, cfg.model)
        with pytest.raises(ValueError, match=f"^level {nt - 2} is not in the ring, which holds "
                                             f"levels {nt - 1} to {nt}$"):
            ring.level(nt - 2)
        last.append(k)

    kept, _ = solve_forward(*args, **kwargs, on_level=on_level, keep=())
    assert last == [nt] and kept.nt == nt and kept.names == () and kept.data.nbytes == 0
    # A one-step solve steps on a ring too, and stores no unknown.
    args, kwargs = forward_args(cfg, nt=1)
    one, _ = solve_forward(*args, **kwargs, keep=())
    assert one.names == () and one.data.nbytes == 0


@pytest.mark.parametrize("nt", [1, 2, 3])
def test_keep_decides_ring_or_stored_at_every_step_count(nt):
    # A sweep of one or two steps has no more levels than a ring, and keeps
    # what keep names all the same, bitwise a keep-all solve.
    cfg = load_config(CONFIG_DIR / "verify.cfg")
    args, kwargs = forward_args(cfg, nt=nt)
    stored, stored_report = solve_forward(*args, **kwargs, keep=FORWARD_FIELDS)
    assert stored.names == FORWARD_FIELDS
    for keep in ((), ("phi",)):
        kept, report, _, ring_names = levels_seen(args, kwargs, keep)
        assert ring_names == tuple(name for name in FORWARD_FIELDS if name not in keep)
        assert kept.names == keep and kept.nt == nt and kept.newest == nt
        for name in keep:
            assert kept.fields[name].tobytes() == stored.fields[name].tobytes(), name
        for name, column in vars(stored_report).items():
            assert column.tobytes() == getattr(report, name).tobytes(), (keep, name)

    h = np.random.default_rng(nt).standard_normal((nt, cfg.grid.nx, cfg.grid.ny))
    lin = solve_linearized(stored, cfg.model, h)
    assert lin.names == ("psi",) and lin.data.shape[1] == nt + 1
    assert lin.psi.tobytes() == solve_linearized(stored, cfg.model, h, TANGENT_FIELDS).psi.tobytes()
    cs = dataclasses.replace(cfg.control_spec, phi_q=cfg.control_spec.phi_q[:nt])
    adj = solve_adjoint(stored, cs, cfg.model)
    assert adj.names == ("p3",) and adj.data.shape[1] == nt + 1 and adj.newest == 0
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
    # data stores every level; only zeros puts unknowns on a ring.
    grid = grid_mod.Grid(4, 4)
    times = 0.1 * np.arange(6)
    assert Trajectory(grid, times, ("x",), np.zeros((1, 6, 4, 4))).ring_names == ()
    for slots in (2, RING_LEVELS, 4, 7):
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
    traj, report = original(*args, **kwargs, keep=FORWARD_FIELDS)
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
    keeping nothing, one keeping n alone and a forward trajectory whose ring
    holds every unknown, as a sweep keeping nothing steps on, with the
    adjoint and tangent of the stored one."""
    cfg = load_config(CONFIG_DIR / "verify.cfg")
    args, kwargs = forward_args(cfg)
    stored, _ = solve_forward(*args, **kwargs, keep=FORWARD_FIELDS)
    none, _ = solve_forward(*args, **kwargs, keep=())
    ring = Trajectory.zeros(cfg.grid, stored.times, FORWARD_FIELDS, ())
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
    "check_like": (lambda s, t: s.stored.check_like(t, "sigma"), "like"),
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
    # Every use reads phi or sigma, which neither a solve keeping nothing,
    # nor one keeping n alone, nor a ring stores at every level.
    for traj in (solves.none, solves.lacking, solves.ring):
        with pytest.raises(ValueError, match=f"^{role} must hold [a-z, ]*(phi|sigma)[a-z, ]* "
                                             "at every level$"):
            run(solves, traj)


def test_a_default_forward_serves_every_reader_of_phi_a_and_sigma(solves):
    # A plain solve keeps phi, a and sigma: the replays, the duality
    # residual, the cost and the mean-ODE check read nothing else, and each
    # gives the bits it gives on a solve that keeps every unknown.
    cfg, stored = solves.cfg, solves.stored
    default, _ = solve_forward(*solves.args, **solves.kwargs)
    assert default.names == REPLAY_FIELDS and default.data.shape[1] == cfg.nt + 1
    for name in REPLAY_FIELDS:
        assert default.fields[name].tobytes() == stored.fields[name].tobytes(), name
    h, cs = cfg.u0.values, cfg.control_spec
    lin = solve_linearized(default, cfg.model, h)
    adj = solve_adjoint(default, cs, cfg.model)
    assert lin.psi.tobytes() == solves.lin.psi.tobytes()
    assert adj.p3.tobytes() == solves.adj.p3.tobytes()
    assert duality_residual(default, adj, h, lin, cs) == duality_residual(
        stored, solves.adj, h, solves.lin, cs)
    assert cost(default, cfg.u0, cs) == cost(stored, cfg.u0, cs)
    assert check_mean_ode(default, cfg.model) == check_mean_ode(stored, cfg.model)
    # The readers of mu and n refuse it and name what it lacks.
    with pytest.raises(ValueError, match="^base must hold mu, n at every level$"):
        taylor_remainders(default, cfg.model, cfg.init, cfg.u0, h, [1e-3])
    with pytest.raises(ValueError, match="^t1 must hold mu, n at every level$"):
        trajectory_distance(default, stored)
    with pytest.raises(ValueError, match="^t2 must hold mu, n at every level$"):
        trajectory_distance(stored, default)


def test_a_default_forward_serves_as_like():
    # like's CG starts read its sigma alone, so a plain solve, which keeps
    # phi, a and sigma, is as good a like as one that keeps every unknown.
    cfg = load_config(CONFIG_DIR / "verify.cfg")
    args, kwargs = forward_args(cfg)
    nearby = (*args[:3], Control(0.9 * cfg.u0.values, cfg.u0.u_max), *args[4:])
    like_default, _ = solve_forward(*nearby, **kwargs)
    like_stored, _ = solve_forward(*nearby, **kwargs, keep=FORWARD_FIELDS)
    cold, _ = solve_forward(*args, **kwargs)
    warm, _ = solve_forward(*args, **kwargs, like=like_default)
    assert warm.names == REPLAY_FIELDS
    assert warm.sigma.tobytes() == solve_forward(*args, **kwargs,
                                                 like=like_stored)[0].sigma.tobytes()
    # The start changes the CG's work, so only the tolerance ties it to a
    # cold solve.
    np.testing.assert_allclose(warm.sigma, cold.sigma, rtol=1e-8, atol=1e-10)


def test_a_ring_refuses_a_level_it_no_longer_holds():
    # After 32 steps the ring holds levels 31 and 32, and no level 33 is
    # left to write; level 0's slot holds level 30, whose energy the ring
    # would otherwise return for level 0.
    cfg = load_config(CONFIG_DIR / "simulate.cfg")
    args, kwargs = forward_args(cfg)
    stored, _ = solve_forward(*args, **kwargs, keep=FORWARD_FIELDS)
    last = []

    def on_level(ring, k):
        if k < cfg.nt:
            return
        assert ring.newest == cfg.nt == 32
        with pytest.raises(ValueError,
                           match="^level 0 is not in the ring, which holds levels 31 to 32$"):
            energy(ring, 0, cfg.model)
        for j in (30, 33, 34):
            with pytest.raises(ValueError, match=f"^level {j} is not in the ring, which holds "
                                                 "levels 31 to 32$"):
                ring.level(j)
        assert energy(ring, 31, cfg.model) == energy(stored, 31, cfg.model)
        last.append(k)

    solve_forward(*args, **kwargs, on_level=on_level, keep=())
    assert last == [cfg.nt] and stored.newest == cfg.nt
    # A trajectory without a ring holds every level wherever its sweep stands.
    for k in range(cfg.nt + 1):
        assert stacked(stored.level(k)).tobytes() == stored.data[:, k].tobytes(), k
    assert energy(stored, 0, cfg.model) != energy(stored, 31, cfg.model)


def test_energy_names_the_unknowns_a_trajectory_lacks():
    # energy reads phi, a, n and sigma; a plain solve stores no n, and once
    # a sweep that keeps nothing ends, its trajectory holds no unknown.
    cfg = load_config(CONFIG_DIR / "verify.cfg")
    args, kwargs = forward_args(cfg)
    default, _ = solve_forward(*args, **kwargs)
    none, _ = solve_forward(*args, **kwargs, keep=())
    for k in (0, cfg.nt):
        with pytest.raises(ValueError, match="^traj must hold n$"):
            energy(default, k, cfg.model)
        with pytest.raises(ValueError, match="^traj must hold phi, a, n, sigma$"):
            energy(none, k, cfg.model)
    keep = ("phi", "a", "n", "sigma")
    stored, _ = solve_forward(*args, **kwargs, keep=keep)
    assert energy(stored, cfg.nt, cfg.model) == energy(
        solve_forward(*args, **kwargs, keep=FORWARD_FIELDS)[0], cfg.nt, cfg.model)


def test_a_default_forward_writes_phi_a_and_sigma_once():
    # The hook's views of phi, a and sigma are the returned arrays' levels:
    # the sweep writes each level of those once, in place, and puts only mu
    # and n on its ring.
    cfg = load_config(CONFIG_DIR / "verify.cfg")
    args, kwargs = forward_args(cfg)
    seen = []

    def on_level(traj, k):
        assert traj.ring_names == ("mu", "n")
        assert traj.ring.shape == (2, RING_LEVELS, cfg.grid.nx, cfg.grid.ny)
        seen.append((k, traj.level(k)))

    traj, _ = solve_forward(*args, **kwargs, on_level=on_level)
    assert [k for k, _ in seen] == list(range(cfg.nt + 1))
    for k, level in seen:
        for name in REPLAY_FIELDS:
            assert np.shares_memory(getattr(level, name), traj.fields[name][k]), (k, name)
        for name in ("mu", "n"):
            assert not np.shares_memory(getattr(level, name), traj.data), (k, name)


@pytest.mark.parametrize("keep", [(), ("phi",)], ids=["forward", "forward_keeping_phi"])
def test_a_hook_reading_three_levels_back_is_refused(keep):
    # Whatever the trajectory stores, its ring holds three levels.
    cfg = load_config(CONFIG_DIR / "verify.cfg")
    args, kwargs = forward_args(cfg)
    seen = []

    def on_level(ring, k):
        seen.append(k)
        if k >= 1:
            ring.level(k - 1)  # step k reads it for its CG start
        if k >= 2:
            ring.level(k - 2)  # step k writes level k + 1 into its slot

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
    stored, _ = solve_forward(*args, **kwargs, keep=FORWARD_FIELDS)
    refused, behind = {}, {}

    def on_level(ring, k):
        if k >= 1:
            behind[k - 1] = stacked(ring.level(k - 1))
        if k >= 2:
            try:
                ring.level(k - 2)
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
            ring.level(level)
        try:
            ring.level(k + 3)
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
    # k + 1 and writes k. Each chain gets (k, old, new), the views of every
    # unknown at the level read and the level written: for a stored unknown
    # its level in data, for one on the ring the slot of that level. The
    # second chain runs on the worker thread when the chains run at once.
    monkeypatch.setattr(state_mod, "CONCURRENT_MIN_CELLS",
                        np.inf if chains == "serial" else 16 * 16)
    nt = 7
    traj = Trajectory.zeros(grid_mod.Grid(16, 16), 0.1 * np.arange(nt + 1), ADJOINT_FIELDS, keep,
                            direction=direction)
    calls = {"first": [], "second": []}

    def where(views):
        """Each view's block and its index along the level axis."""
        located = []
        for name, view in vars(views).items():
            block = traj.fields[name] if name in traj.names else (
                traj.ring[traj.ring_names.index(name)])
            (index,) = [j for j, f in enumerate(block) if np.shares_memory(view, f)]
            located.append((name, len(block), index))
        return located

    def chain(name):
        def run(k, old, new):
            calls[name].append((k, where(old), where(new), threading.current_thread()))
        return run

    steps = range(nt) if direction > 0 else range(nt - 1, -1, -1)
    for k in steps:
        traj.advance("sweep", k, chain("first"), chain("second"))
    assert traj.ring_names == tuple(name for name in ADJOINT_FIELDS if name not in keep)

    def at(level):
        return [(name, nt + 1, level) if name in keep else (name, RING_LEVELS, level % 3)
                for name in (*keep, *traj.ring_names)]

    expected = [(k, at(k), at(k + 1)) if direction > 0 else (k, at(k + 1), at(k)) for k in steps]
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
    assert stored.names == TANGENT_FIELDS and stored.ring.size == 0
    # Level 0 is zero; by the last level h has reached every unknown.
    assert not stored.data[:, 0].any() and stored.data[:, -1].any(axis=(1, 2)).all()
    for keep in ((), ("psi",), ("omega",)):
        kept = solve_linearized(base, cfg.model, h, keep)
        assert kept.names == keep and kept.newest == cfg.nt and kept.ring.size == 0
        assert kept.data.shape == (len(keep), cfg.nt + 1, cfg.grid.nx, cfg.grid.ny)
        for name in keep:
            assert kept.fields[name].tobytes() == stored.fields[name].tobytes(), name
        assert (kept.grid, kept.s_stab, kept.flux_scheme) == (base.grid, base.s_stab,
                                                              base.flux_scheme)


def test_forward_sweep_holds_phi_a_sigma_and_a_ring_only(tmp_path):
    # tracemalloc sees numpy's buffers. A plain solve stores phi, a and sigma
    # at every level, 3 field trajectories of (Nt + 1) nx ny doubles; beside
    # them it holds a ring of mu and n, 2 x 3 levels, and one step's
    # temporaries, the sigma CG's vectors among them, under the 1.5 field
    # trajectories the tangent and adjoint tests allow their one kept array.
    # A fourth stored unknown would break the bound; every unknown at every
    # level would be 5.
    text = (CONFIG_DIR / "verify.cfg").read_text()
    for old, new in (("nx = 16", "nx = 64"), ("ny = 16", "ny = 64")):
        assert f"\n{old}\n" in text
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    path = tmp_path / "verify-64.cfg"
    path.write_text(text)
    cfg = load_config(path)
    assert (cfg.grid.nx, cfg.grid.ny, cfg.nt) == (64, 64, 32)
    args, kwargs = forward_args(cfg)
    solve_forward(*args, **kwargs, keep=())  # fills the grid's caches outside the trace
    tracemalloc.start()
    try:
        traj, _ = solve_forward(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    field = (cfg.nt + 1) * cfg.grid.nx * cfg.grid.ny * 8
    assert traj.names == REPLAY_FIELDS and traj.data.nbytes == 3 * field
    assert peak < 4.5 * field, f"peak {peak} B against a {field} B field trajectory"


def test_tangent_sweep_holds_psi_and_a_ring_only():
    # tracemalloc sees numpy's buffers. Beside the returned psi, the sweep
    # holds a ring of 4 x 3 levels and one step's temporaries, about 0.9 of
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
    assert stored.names == ADJOINT_FIELDS and stored.ring.size == 0
    # p3, p4 and p5 are zero at level Nt; by level 0 the misfit has reached
    # every unknown.
    assert not stored.data[2:, -1].any() and stored.data[:, 0].any(axis=(1, 2)).all()
    for keep in ((), ("p3",), ("p5",), ADJOINT_FIELDS):
        kept = solve_adjoint(base, cfg.control_spec, cfg.model, like, keep)
        assert kept.names == keep and kept.newest == 0 and kept.ring.size == 0
        assert kept.data.shape == (len(keep), cfg.nt + 1, cfg.grid.nx, cfg.grid.ny)
        for name in keep:
            assert kept.fields[name].tobytes() == stored.fields[name].tobytes(), (keep, name)
        assert (kept.grid, kept.s_stab, kept.flux_scheme) == (base.grid, base.s_stab,
                                                              base.flux_scheme)


def test_adjoint_sweep_holds_p3_and_a_ring_only():
    # tracemalloc sees numpy's buffers. Beside the returned p3, the sweep
    # holds a ring of 4 x 3 levels, the final condition's (p1, p2) pair and
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
    assert ring.ring_names == ("p1", "p2", "p4", "p5") and ring.newest == 32
    # Before the first step the ring holds level Nt and the one the first
    # step writes.
    with pytest.raises(ValueError,
                       match="^level 30 is not in the ring, which holds levels 31 to 32$"):
        ring.level(30)
    assert ring.slot(31) == 1  # the level the first step writes
    for k in range(31, 1, -1):
        ring.advance("adjoint", k, lambda *_: None, lambda *_: None)
    assert ring.newest == 2
    for k in (0, 4, 5):
        with pytest.raises(ValueError,
                           match=f"^level {k} is not in the ring, which holds levels 1 to 3$"):
            ring.level(k)
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
