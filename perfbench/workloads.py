"""The benchmark's workloads: one configuration, one timed operation and one
output check each.

Every workload loads a configuration the benchmark owns (``configs/``, each
derived from a bundled one) with ``load_config(path, seed_override=seed)``
and drives chks through its public functions, the same calls the ``chks``
command makes. Checks are structural, not bitwise, so a legitimate numerical
change still passes. Each check also states how many forward, tangent and
adjoint sweeps the operation's results imply; ``cell_steps_per_ref`` is
built from those counts and the traced run asserts that its spans agree.
"""

from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

# Calls go through the module objects so that the tracer's rebinding reaches them.
from chks import adjoint, cli, control_opt, linearized, state
from chks.config import RunConfig
from spans import FIELD_HEADER_BYTES

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
SIGMA_SLACK = 1e-8
DUALITY_TOL = 1e-3
# optimize-64 lowers its cost by 5e-5 to 1.2e-4 of the start (seeds 1-5); a
# run whose cost moves by no more than roundoff has not optimized anything.
MIN_COST_DECREASE = 1e-8
FIELDS_PER_LEVEL = 5  # phi, mu, a, n, sigma


@dataclass
class Outcome:
    """Output check of one operation, and the sweeps its results imply."""

    failures: list[str] = field(default_factory=list)
    sweeps: dict[str, int] = field(default_factory=dict)
    cells_per_sweep: int = 0

    @property
    def cell_steps(self) -> int:
        return sum(self.sweeps.values()) * self.cells_per_sweep


def _sweeps(fwd: int = 0, lin: int = 0, adj: int = 0) -> dict[str, int]:
    return {
        "state.solve_forward": fwd,
        "linearized.solve_linearized": lin,
        "adjoint.solve_adjoint": adj,
    }


def _cells(cfg: RunConfig) -> int:
    return cfg.grid.nx * cfg.grid.ny * cfg.nt


@dataclass
class Workload:
    name: str
    # prepare(cfg, workdir) -> thunk; only the thunk is timed.
    prepare: Callable[[RunConfig, Path], Callable[[], Any]]
    check: Callable[[RunConfig, Path, Any], Outcome]

    @property
    def config_path(self) -> Path:
        return CONFIG_DIR / f"{self.name}.cfg"


# ---- simulate: the `chks simulate` path, snapshot writes included ----------
# Every operation of a run writes into the same directory, overwriting the
# previous snapshots as a user re-running into one --out does. Deleting and
# re-creating 165 files per operation would time the kernel's file creation,
# which slows while the file system catches up on freed blocks, more than chks.

def _prepare_simulate(cfg: RunConfig, workdir: Path):
    out = workdir / "simulate"
    # cmd_simulate writes series.csv after every snapshot, so a fresh
    # series.csv shows that this operation wrote all of them.
    (out / "series.csv").unlink(missing_ok=True)

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.cmd_simulate(cfg, out, strict=False)

    return run


def _check_simulate(cfg: RunConfig, workdir: Path, status: int) -> Outcome:
    out = workdir / "simulate"
    outcome = Outcome(sweeps=_sweeps(fwd=1), cells_per_sweep=_cells(cfg))
    if status != 0:
        outcome.failures.append(f"cmd_simulate returned {status}")
    expected_size = FIELD_HEADER_BYTES + 8 * cfg.grid.nx * cfg.grid.ny
    sizes = [p.stat().st_size for p in out.glob("*.fld")]
    if len(sizes) != FIELDS_PER_LEVEL * (cfg.nt + 1) or set(sizes) != {expected_size}:
        outcome.failures.append(f"{len(sizes)} snapshots of sizes {sorted(set(sizes))}, expected "
                                f"{FIELDS_PER_LEVEL * (cfg.nt + 1)} of {expected_size} bytes")
    with open(out / "series.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != cfg.nt + 1:
        outcome.failures.append(f"series.csv has {len(rows)} rows, expected {cfg.nt + 1}")
    lo = min(float(r["sigma_min"]) for r in rows)
    hi = max(float(r["sigma_max"]) for r in rows)
    if lo < -SIGMA_SLACK or hi > 1.0 + SIGMA_SLACK:
        outcome.failures.append(f"sigma range [{lo:.3e}, {hi:.3e}]")
    return outcome


# ---- duality: forward, tangent and adjoint sweeps on one trajectory ---------

def _prepare_duality(cfg: RunConfig, workdir: Path):
    def run():
        traj, _ = state.solve_forward(
            cfg.grid, cfg.model, cfg.init, cfg.u0, cfg.T, cfg.nt,
            s_stab=cfg.s_stab, flux_scheme=cfg.flux_scheme,
        )
        adj = adjoint.solve_adjoint(traj, cfg.control_spec, cfg.model)
        # Along the adjoint's own control gradient the pairing int_Q h p3 is a
        # sum of squares, so the relative residual never divides by a
        # cancelled pairing, as it can for an arbitrary direction.
        h = adj.p3[1:]
        lin = linearized.solve_linearized(traj, cfg.model, h)
        return adjoint.duality_residual(traj, adj, h, lin, cfg.control_spec), h

    return run


def _check_duality(cfg: RunConfig, workdir: Path, result) -> Outcome:
    residual, h = result
    outcome = Outcome(sweeps=_sweeps(fwd=1, lin=1, adj=1),
                      cells_per_sweep=_cells(cfg))
    # The configs weight a nonzero misfit (b1 = b2 = 1), so p3 cannot vanish;
    # a zero direction would make both sides of the identity 0 and the
    # residual 0 whatever the sweeps computed.
    h_norm = float(np.linalg.norm(h))
    if not (np.isfinite(h_norm) and h_norm > 0.0):
        outcome.failures.append(f"duality direction p3 has norm {h_norm:g}")
    if not residual <= DUALITY_TOL:
        outcome.failures.append(f"duality residual {residual:.3e} > {DUALITY_TOL:g}")
    return outcome


# ---- optimize: projected gradient with a fixed iteration budget -------------

def _prepare_optimize(cfg: RunConfig, workdir: Path):
    def run():
        return control_opt.optimize(cfg.grid, cfg.model, cfg.init, cfg.control_spec,
                                    cfg.u0, cfg.T, cfg.nt, cfg.opts)

    return run


def _check_optimize(cfg: RunConfig, workdir: Path, result) -> Outcome:
    forwards = 1 + sum(bt + 1 for bt in result.backtrack_counts)
    outcome = Outcome(sweeps=_sweeps(fwd=forwards, adj=result.iterations + 1),
                      cells_per_sweep=_cells(cfg))
    costs = np.asarray(result.cost_history)
    if np.any(np.diff(costs) > 0):
        outcome.failures.append("cost history increases")
    if not costs[-1] < costs[0] * (1.0 - MIN_COST_DECREASE):
        outcome.failures.append(f"cost went from {costs[0]:.9e} to {costs[-1]:.9e}")
    u = result.u_star.values
    if float(u.min()) < 0.0 or np.any(u > cfg.control_spec.u_max):
        outcome.failures.append("control leaves the box [0, u_max]")
    # tol_stat = 0 never converges, and with backtrack = 0.1 the 40 trials of
    # a line search shrink the step to 1e-40 of the first, so a line search
    # always accepts a step: a run that stops before the iteration budget
    # has failed. A wrong gradient also gets its steps accepted, too small to
    # move u, which the cost check above catches.
    if result.converged or result.iterations != cfg.opts.max_iters:
        outcome.failures.append(
            f"{result.iterations} of {cfg.opts.max_iters} iterations ({result.message})")
    return outcome


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("simulate-256", _prepare_simulate, _check_simulate),
        Workload("duality-256", _prepare_duality, _check_duality),
        Workload("duality-16", _prepare_duality, _check_duality),
        Workload("optimize-64", _prepare_optimize, _check_optimize),
    )
}
