"""The two chains of a sweep step: concurrent on large grids, serial below.

Every test runs on a grid just at the size where Trajectory.advance hands
the second chain to its worker thread, and forces the serial path by raising
state.CONCURRENT_MIN_CELLS out of reach. The on_level hook's contract is
also checked on the bundled 16x16 verify config, where the chains are serial.
"""

import math
import multiprocessing
import threading
import time
from pathlib import Path
from queue import Empty

import numpy as np
import pytest

from chks import grid as grid_mod
from chks import state as state_mod
from chks.adjoint import ADJOINT_FIELDS, ControlSpec, solve_adjoint
from chks.cli import cmd_simulate
from chks.config import load_config
from chks.fields_io import read_field, write_trajectory
from chks.grid import Grid, SolverError
from chks.linearized import TANGENT_FIELDS, solve_linearized
from chks.state import Control, InitialData, Trajectory, solve_forward, step

from test_linearized import smooth_direction
from test_state import base_model, make_random_init

SIDE = 144
NT = 3
T = 0.05
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def serial(monkeypatch):
    monkeypatch.setattr(state_mod, "CONCURRENT_MIN_CELLS", math.inf)


def checked_block_solve(monkeypatch):
    """Scan rhs_phi before each ch_block_solve, which only the phase chains
    call in the sweep loops, so that a NaN there raises inside that chain
    rather than at the step-end check."""
    original = grid_mod.ch_block_solve

    def checked(grid, rhs_phi, *args, **kwargs):
        if not np.isfinite(rhs_phi).all():
            raise SolverError("rhs_phi contains non-finite values")
        return original(grid, rhs_phi, *args, **kwargs)

    monkeypatch.setattr(grid_mod, "ch_block_solve", checked)


class Problem:
    def __init__(self, scheme="centered"):
        self.grid = Grid(SIDE, SIDE)
        assert SIDE * SIDE >= state_mod.CONCURRENT_MIN_CELLS
        self.spec = base_model()
        self.init = make_random_init(self.grid, 12)
        self.u = Control(0.4 * np.ones((NT, SIDE, SIDE)), 1.0)
        self.scheme = scheme
        x, y = self.grid.cell_centers()
        self.cost = ControlSpec(
            b1=1.0, b2=1.0, b3=1e-3, phi_q=np.full((NT, SIDE, SIDE), 0.5),
            phi_omega=0.5 + 0.2 * np.cos(np.pi * x) * np.cos(np.pi * y),
        )
        self.h = smooth_direction(self.grid, NT, 5)

    def forward(self, injected=()):
        """The forward sweep, with values put into one cell of its data.

        injected maps "phi0", "a0", "n0" or "sigma0" to a value, and "u" to
        a (step, value) pair; admissibility is not checked.
        """
        init = InitialData(*(f.copy() for f in vars(self.init).values()))
        u = Control(self.u.values.copy(), self.u.u_max)
        for name, value in dict(injected).items():
            if name == "u":
                u.values[value[0], 7, 9] = value[1]
            else:
                getattr(init, name)[7, 9] = value
        traj, _ = solve_forward(self.grid, self.spec, init, u, T, NT,
                                flux_scheme=self.scheme, check_admissibility=False)
        return traj

    def sweeps(self):
        """Every field of the forward, adjoint and tangent sweeps."""
        traj = self.forward()
        adj = solve_adjoint(traj, self.cost, self.spec, keep=ADJOINT_FIELDS)
        lin = solve_linearized(traj, self.spec, self.h, TANGENT_FIELDS)
        return {**traj.fields, **adj.fields, **lin.fields}


@pytest.mark.parametrize("scheme", ["centered", "upwind"])
def test_concurrent_chains_match_serial_bitwise(monkeypatch, scheme):
    problem = Problem(scheme)
    threads = set()
    original = grid_mod.helmholtz_direct

    def recorded(*args, **kwargs):
        threads.add(threading.current_thread().name)
        return original(*args, **kwargs)

    monkeypatch.setattr(grid_mod, "helmholtz_direct", recorded)
    concurrent = problem.sweeps()
    assert any(name.startswith("chks-chain") for name in threads)
    rerun = problem.sweeps()
    with monkeypatch.context() as m:
        serial(m)
        threads.clear()
        reference = problem.sweeps()
        assert not any(name.startswith("chks-chain") for name in threads)
    assert len(reference) == 15
    for name, f in reference.items():
        assert np.array_equal(concurrent[name], f), name
        # Criterion 12 where the worker runs: a rerun gives the same bytes.
        assert rerun[name].tobytes() == concurrent[name].tobytes(), name


def error_of(run):
    with pytest.raises(Exception) as info:
        run()
    return type(info.value), str(info.value)


def poisoned(traj, **levels):
    """A copy of a trajectory with one cell of each named field replaced at a level."""
    copy = Trajectory(traj.grid, traj.times, traj.names, traj.data.copy(), traj.s_stab,
                      traj.flux_scheme)
    for name, (k, value) in levels.items():
        copy.fields[name][k, 7, 9] = value
    return copy


# Each case names the sweep, what is injected at one step, and the error the
# serial path raises: a phase-chain NaN raises in the checked block solve,
# a NaN or nonpositive coefficient in the chemotaxis chain stops its CG, and
# with both the chain that comes first in the serial order wins.
NOT_POSITIVE = -100.0  # a* with (1/tau + 1) + a* < 0, the CG's coefficient
CASES = {
    "forward-phase": ("forward", {"n0": np.nan}, "forward step 0 failed: rhs_phi"),
    "forward-chemotaxis": ("forward", {"a0": np.nan},
                           "forward step 0 failed: helmholtz_cg requires a finite alpha"),
    "forward-both": ("forward", {"n0": np.nan, "a0": np.nan},
                     "forward step 0 failed: rhs_phi"),
    "forward-control": ("forward", {"u": (1, np.nan)}, "forward step 1 failed: non-finite a"),
    "tangent-phase": ("tangent", {"phi": (1, np.nan)}, "tangent step 1 failed: rhs_phi"),
    "tangent-chemotaxis": ("tangent", {"a": (1, NOT_POSITIVE)},
                           "tangent step 1 failed: helmholtz_cg requires a finite alpha"),
    "tangent-both": ("tangent", {"phi": (1, np.nan), "a": (1, NOT_POSITIVE)},
                     "tangent step 1 failed: rhs_phi"),
    "adjoint-transport": ("adjoint", {"a": (1, NOT_POSITIVE)},
                          "adjoint step 1 failed: helmholtz_cg requires a finite alpha"),
    "adjoint-phase": ("adjoint", {"phi": (1, np.nan)}, "adjoint step 1 failed: rhs_phi"),
    "adjoint-both": ("adjoint", {"phi": (1, np.nan), "a": (1, NOT_POSITIVE)},
                     "adjoint step 1 failed: helmholtz_cg requires a finite alpha"),
}


@pytest.fixture(scope="module")
def reference():
    problem = Problem()
    with pytest.MonkeyPatch.context() as m:
        serial(m)
        base = problem.forward()
        return problem, base, problem.sweeps()


@pytest.mark.parametrize("case", CASES)
def test_chain_errors_match_serial(monkeypatch, reference, case):
    problem, base, fields = reference
    sweep, injected, message = CASES[case]
    checked_block_solve(monkeypatch)

    def run():
        if sweep == "forward":
            problem.forward(injected)
        elif sweep == "tangent":
            solve_linearized(poisoned(base, **injected), problem.spec, problem.h)
        else:
            solve_adjoint(poisoned(base, **injected), problem.cost, problem.spec)

    concurrent = error_of(run)
    with monkeypatch.context() as m:
        serial(m)
        expected = error_of(run)
    assert expected[0] is SolverError
    assert expected[1].startswith(message)
    assert concurrent == expected
    # The worker is free again: the clean sweeps complete and match.
    for name, f in problem.sweeps().items():
        assert np.array_equal(f, fields[name]), name


def test_step_raises_after_the_worker_finished(monkeypatch, reference):
    # The phase chain raises at once; the chemotaxis chain, slowed down on
    # the worker, has still written a at level k + 1 when step raises.
    problem, base, _ = reference
    k = 1
    checked_block_solve(monkeypatch)
    original = grid_mod.divergence

    def slow(*args, **kwargs):
        time.sleep(0.05)
        return original(*args, **kwargs)

    monkeypatch.setattr(grid_mod, "divergence", slow)
    traj = poisoned(base, n=(k, np.nan))
    for f in traj.fields.values():
        f[k + 1:] = np.nan
    with pytest.raises(SolverError, match="^forward step 1 failed: rhs_phi"):
        step(traj, k, problem.u.values[k], problem.spec)
    assert np.array_equal(traj.a[k + 1], base.a[k + 1])
    assert np.array_equal(traj.sigma[k + 1], base.sigma[k + 1])


def _forward_in_child(problem, expected, queue):
    queue.put(np.array_equal(problem.forward().a, expected))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_child_gets_its_own_worker(reference):
    # The parent's worker thread runs a chain before the fork; it does not
    # exist in the forked child, which must start its own.
    problem, base, _ = reference
    problem.forward()
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_forward_in_child, args=(problem, base.a, queue))
    child.start()
    try:
        matched = queue.get(timeout=30)
    except Empty:
        matched = None
    child.join(timeout=5)
    if child.is_alive():
        child.kill()
    assert matched is not None, "the forked child's sweep did not finish"
    assert matched
    assert child.exitcode == 0


def _verify_forward_args():
    cfg = load_config(CONFIG_DIR / "verify.cfg")
    return (cfg.grid, cfg.model, cfg.init, cfg.u0, cfg.T, cfg.nt), {"s_stab": cfg.s_stab}


def _problem_forward_args():
    problem = Problem()
    return (problem.grid, problem.spec, problem.init, problem.u, T, NT), {}


@pytest.mark.parametrize("forward_args", [_verify_forward_args, _problem_forward_args],
                         ids=["verify-16", "concurrent-144"])
def test_on_level_sees_each_finished_level_once_in_order(forward_args):
    args, kwargs = forward_args()
    plain, plain_report = solve_forward(*args, **kwargs)
    seen, threads = [], set()

    def on_level(traj, k):
        threads.add(threading.current_thread())
        seen.append((k, {name: f[:k + 1].copy() for name, f in traj.fields.items()}))

    traj, report = solve_forward(*args, **kwargs, on_level=on_level)
    assert [k for k, _ in seen] == list(range(traj.nt + 1))
    assert threads == {threading.current_thread()}
    for k, levels in seen:
        for name, f in levels.items():
            assert f.tobytes() == traj.fields[name][:k + 1].tobytes(), (k, name)
    for name, f in plain.fields.items():
        assert f.tobytes() == traj.fields[name].tobytes(), name
    for name, column in vars(plain_report).items():
        assert column.tobytes() == getattr(report, name).tobytes(), name


def test_simulate_writes_the_same_bytes_concurrent_and_serial(tmp_path, monkeypatch):
    # cmd_simulate writes each level from its on_level hook, which overlaps
    # the worker's chain at this size; the serial run must write the same files.
    text = (CONFIG_DIR / "simulate.cfg").read_text()
    for old, new in (("nx = 16", f"nx = {SIDE}"), ("ny = 16", f"ny = {SIDE}"),
                     ("Nt = 32", f"Nt = {NT}")):
        assert f"\n{old}\n" in text
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    path = tmp_path / "simulate-144.cfg"
    path.write_text(text)
    cfg = load_config(path)
    assert cfg.grid.nx * cfg.grid.ny >= state_mod.CONCURRENT_MIN_CELLS
    assert cmd_simulate(cfg, tmp_path / "concurrent", strict=False) == 0
    with monkeypatch.context() as m:
        m.setattr(state_mod, "CONCURRENT_MIN_CELLS", SIDE * SIDE + 1)
        assert cmd_simulate(cfg, tmp_path / "serial", strict=False) == 0
    names = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert len(names) == 5 * (NT + 1) + 1 and "series.csv" in names
    assert sorted(p.name for p in (tmp_path / "concurrent").iterdir()) == names
    for name in names:
        assert ((tmp_path / "concurrent" / name).read_bytes()
                == (tmp_path / "serial" / name).read_bytes()), name

    # One level written on its own, with start, gets that level's file name.
    k = 2
    grid, phi_k = read_field(tmp_path / "serial" / f"phi_{k:06}.fld")
    write_trajectory(tmp_path / "one", grid, {"phi": phi_k[None]}, start=k)
    assert [p.name for p in (tmp_path / "one").iterdir()] == ["phi_000002.fld"]
    assert ((tmp_path / "one" / "phi_000002.fld").read_bytes()
            == (tmp_path / "serial" / "phi_000002.fld").read_bytes())


def test_sweep_fields_are_slices_of_the_array_advance_scans():
    # advance checks a level with one scan of traj.data, so every field of
    # each sweep must be its slice of data: a field rebound to an array of
    # its own would escape the check.
    cfg = load_config(CONFIG_DIR / "verify.cfg")
    traj, _ = solve_forward(cfg.grid, cfg.model, cfg.init, cfg.u0, cfg.T, cfg.nt,
                            s_stab=cfg.s_stab, flux_scheme=cfg.flux_scheme)
    adj = solve_adjoint(traj, cfg.control_spec, cfg.model, keep=ADJOINT_FIELDS)
    lin = solve_linearized(traj, cfg.model, adj.p3[1:], TANGENT_FIELDS)
    level = 5
    # Each sweep with the step that writes level 5.
    for sweep, name, k in ((traj, "forward", 4), (lin, "tangent", 4), (adj, "adjoint", 5)):
        assert len(sweep.names) == 5
        assert list(sweep.fields) == list(sweep.names)
        for i, field in enumerate(sweep.names):
            f = sweep.fields[field]
            assert getattr(sweep, field) is f
            assert f.shape == sweep.data[i].shape
            assert np.shares_memory(f, sweep.data[i]), (name, field)
        # A NaN put into any one field of the level is named by advance.
        for field in sweep.names:
            copy = Trajectory(sweep.grid, sweep.times, sweep.names, sweep.data.copy(),
                              direction=sweep.direction)
            copy.advance(name, k, lambda *_: None, lambda *_: None)
            getattr(copy, field)[level, 3, 4] = np.nan
            with pytest.raises(SolverError, match=rf"^{name} step {k} failed: non-finite {field}$"):
                copy.advance(name, k, lambda *_: None, lambda *_: None)
