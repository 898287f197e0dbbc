"""Command-line entry point.

    chks simulate <cfg> [--out DIR] [--strict] [--seed N]
    chks optimize <cfg> [--out DIR] [--seed N]
    chks verify   <cfg> --suite NAME [--out DIR] [--seed N]

Exit status is 0 iff every monitor or suite passes, 2 for a rejected command
line or config and 3 for a solver failure, also one met while the config
loads. All file formats are described in the README; outputs land in --out
(default ./out). Once the config has loaded, main deletes the files its
command writes (OUTPUTS) from --out, so --out holds one run's files: after
a solver failure at step j, simulate leaves the snapshots of levels 0 .. j,
written during the sweep, and no series.csv.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .control_opt import optimize
from .fields_io import write_csv, write_trajectory
from .grid import SolverError
from .state import A_MIN_UPWIND, SIGMA_RANGE, energy, solve_forward
from .verify import SUITES, run_suites

# The files each command writes into --out, as globs. simulate and optimize
# both write snapshots ({field}_{step:06}.fld), so each also deletes the CSV
# that describes the other's.
_RUN = ("*_" + "[0-9]" * 6 + ".fld", "series.csv", "optimize.csv")
OUTPUTS = {"simulate": _RUN, "optimize": _RUN, "verify": ("verify_report.csv", "duality.csv")}


def _series_rows(traj, report, energies) -> list[dict]:
    return [
        {
            "step": k,
            "time": f"{traj.times[k]:.12g}",
            "energy": f"{energies[k]:.16e}",
            "mean_phi": f"{report.mean_phi[k]:.16e}",
            "sigma_min": f"{report.sigma_min[k]:.16e}",
            "sigma_max": f"{report.sigma_max[k]:.16e}",
            "a_min": f"{report.a_min[k]:.16e}",
            "clamp_events": report.clamp_events[k],
        }
        for k in range(traj.nt + 1)
    ]


def cmd_simulate(cfg: RunConfig, out: Path, strict: bool) -> int:
    energies = np.empty(cfg.nt + 1)

    # Runs inside the sweep (solve_forward's on_level), so a solver failure
    # at step j leaves the snapshots of levels 0 .. j and no series.csv.
    # Nothing reads a level later, so the solve keeps none: it steps on a
    # ring of three levels, and the hook reads level k only.
    def on_level(traj, k):
        energies[k] = energy(traj, k, cfg.model)
        level = vars(traj.level(k))
        write_trajectory(out, traj.grid, {name: f[None] for name, f in level.items()}, start=k)

    traj, report = solve_forward(
        cfg.grid, cfg.model, cfg.init, cfg.u0, cfg.T, cfg.nt,
        s_stab=cfg.s_stab, flux_scheme=cfg.flux_scheme, on_level=on_level, keep=(),
    )
    write_csv(out / "series.csv", _series_rows(traj, report, energies))
    sigma_lo, sigma_hi = report.sigma_min.min(), report.sigma_max.max()
    failures = []
    if sigma_lo < SIGMA_RANGE[0] or sigma_hi > SIGMA_RANGE[1]:
        failures.append(f"sigma range [{sigma_lo:.3e}, {sigma_hi:.3e}]")
    clamp_total = int(report.clamp_events.sum())
    if strict and clamp_total > 0:
        failures.append(f"{clamp_total} potential clamp events")
    if strict and cfg.flux_scheme == "upwind" and report.a_min.min() < A_MIN_UPWIND:
        failures.append(f"a_min {report.a_min.min():.3e}")
    for msg in failures:
        print(f"monitor tripped: {msg}", file=sys.stderr)
    print(f"simulate: {cfg.nt} steps, energy {energies[-1]:.6e}, "
          f"sigma in [{sigma_lo:.3e}, {sigma_hi:.3e}], wrote {out}")
    return 1 if failures else 0


def cmd_optimize(cfg: RunConfig, out: Path) -> int:
    result = optimize(
        cfg.grid, cfg.model, cfg.init, cfg.control_spec, cfg.u0, cfg.T, cfg.nt, cfg.opts
    )
    # Iteration i > 0 reports the step that produced its control.
    rows = [
        {
            "iteration": i,
            "cost": f"{result.cost_history[i]:.16e}",
            "stationarity": f"{result.stationarity_history[i]:.16e}",
            "step_size": f"{result.step_sizes[i - 1]:.6e}" if i else "",
            "backtracks": result.backtrack_counts[i - 1] if i else "",
        }
        for i in range(len(result.cost_history))
    ]
    write_csv(out / "optimize.csv", rows)
    write_trajectory(out, cfg.grid, {"control": result.u_star.values})
    write_trajectory(out, cfg.grid, result.trajectory.fields)
    write_trajectory(out, cfg.grid, result.adjoint.fields, prefix="adj_")
    print(
        f"optimize: {result.iterations} iterations, cost {result.cost_history[-1]:.6e}, "
        f"stationarity {result.stationarity_history[-1]:.3e}, converged={result.converged}"
    )
    return 0 if result.converged else 1


def cmd_verify(cfg: RunConfig, out: Path, suite: str) -> int:
    results = run_suites(cfg, suite)
    write_csv(out / "verify_report.csv", [r.row() for r in results])
    duality_rows = [
        {"tau": f"{cfg.tau / (2 ** i):.9g}", "residual": f"{r.value:.9e}"}
        for i, r in enumerate(r for r in results if r.suite == "duality"
                              and r.check.startswith("residual"))
    ]
    if duality_rows:
        write_csv(out / "duality.csv", duality_rows)
    ok = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.suite}/{r.check}: value {r.value:.6e} vs {r.threshold:.6e} {r.note}")
        ok = ok and r.passed
    return 0 if ok else 1


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take nonnegative integers only."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="chks", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name in ("simulate", "optimize", "verify"):
        p = commands[name] = sub.add_parser(name)
        p.add_argument("config", type=Path)
        p.add_argument("--out", type=Path, default=Path("out"))
        p.add_argument("--seed", type=_seed, default=None)
        if name == "simulate":
            p.add_argument("--strict", action="store_true")
        if name == "verify":
            p.add_argument("--suite", default="all", choices=["all", *SUITES])
    args = parser.parse_args(argv)
    # Checked before the run, which could take long and would fail at its end:
    # the nearest existing path of --out and its parents must be a directory.
    existing = next(p for p in (args.out, *args.out.parents) if p.exists())
    if not existing.is_dir():
        commands[args.command].error(
            f"--out {str(args.out)!r}: {str(existing)!r} exists and is not a directory")

    try:
        cfg = load_config(args.config, seed_override=args.seed)
        for pattern in OUTPUTS[args.command]:
            for path in args.out.glob(pattern):
                if path.is_file():
                    path.unlink()
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out, args.strict)
        if args.command == "optimize":
            return cmd_optimize(cfg, args.out)
        return cmd_verify(cfg, args.out, args.suite)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
