"""Command-line entry point.

    chks simulate <cfg> [--out DIR] [--strict] [--seed N]
    chks optimize <cfg> [--out DIR] [--seed N]
    chks verify   <cfg> --suite NAME [--out DIR] [--seed N]

Exit status is 0 iff every monitor or suite passes, 2 for a rejected command
line or config and 3 for a solver failure. All file formats are described in
the README; outputs land in --out (default ./out).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, load_config
from .control_opt import optimize
from .fields_io import write_csv, write_field, write_series, write_trajectory
from .grid import SolverError
from .state import energy_series, solve_forward
from .verify import REPORT_COLUMNS, SUITES, run_suites


def _series_rows(traj, report, energies) -> list[dict]:
    rows = []
    for k in range(traj.nt + 1):
        rows.append(
            {
                "step": k,
                "time": f"{traj.times[k]:.12g}",
                "energy": f"{energies[k]:.16e}",
                "mean_phi": f"{traj.phi[k].mean():.16e}",
                "sigma_min": f"{traj.sigma[k].min():.16e}",
                "sigma_max": f"{traj.sigma[k].max():.16e}",
                "a_min": f"{traj.a[k].min():.16e}",
                "clamp_events": report.clamp_events[k],
            }
        )
    return rows


def cmd_simulate(cfg: RunConfig, out: Path, strict: bool) -> int:
    traj, report = solve_forward(
        cfg.grid, cfg.model, cfg.init, cfg.u0, cfg.T, cfg.nt,
        s_stab=cfg.s_stab, flux_scheme=cfg.flux_scheme,
    )
    energies = energy_series(traj, cfg.model)
    write_trajectory(out, traj.grid, traj.fields)
    write_series(out, _series_rows(traj, report, energies))
    failures = []
    if report.sigma_min < -1e-8 or report.sigma_max > 1.0 + 1e-8:
        failures.append(f"sigma range [{report.sigma_min:.3e}, {report.sigma_max:.3e}]")
    clamp_total = int(report.clamp_events.sum())
    if strict and clamp_total > 0:
        failures.append(f"{clamp_total} potential clamp events")
    if strict and cfg.flux_scheme == "upwind" and report.a_min < -1e-10:
        failures.append(f"a_min {report.a_min:.3e}")
    for msg in failures:
        print(f"monitor tripped: {msg}", file=sys.stderr)
    print(f"simulate: {cfg.nt} steps, energy {energies[-1]:.6e}, "
          f"sigma in [{report.sigma_min:.3e}, {report.sigma_max:.3e}], wrote {out}")
    return 1 if failures else 0


def cmd_optimize(cfg: RunConfig, out: Path) -> int:
    result = optimize(
        cfg.grid, cfg.model, cfg.init, cfg.control_spec, cfg.u0, cfg.T, cfg.nt, cfg.opts
    )
    rows = []
    for i in range(len(result.cost_history)):
        rows.append(
            {
                "iteration": i,
                "cost": f"{result.cost_history[i]:.16e}",
                "stationarity": f"{result.stationarity_history[i]:.16e}",
                "step_size": f"{result.step_sizes[i - 1]:.6e}" if 0 < i <= len(result.step_sizes) else "",
                "backtracks": result.backtrack_counts[i - 1] if 0 < i <= len(result.backtrack_counts) else "",
            }
        )
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "optimize.csv",
              ["iteration", "cost", "stationarity", "step_size", "backtracks"], rows)
    for k in range(cfg.nt):
        write_field(out / f"control_{k:06}.fld", cfg.grid, result.u_star.values[k])
    if result.trajectory is not None:
        write_trajectory(out, cfg.grid, result.trajectory.fields)
    if result.adjoint is not None:
        write_trajectory(out, cfg.grid, result.adjoint.fields, prefix="adj_")
    print(
        f"optimize: {result.iterations} iterations, cost {result.cost_history[-1]:.6e}, "
        f"stationarity {result.stationarity_history[-1]:.3e}, converged={result.converged}"
    )
    return 0 if result.converged else 1


def cmd_verify(cfg: RunConfig, out: Path, suite: str) -> int:
    results = run_suites(cfg, suite)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "verify_report.csv", REPORT_COLUMNS, [r.row() for r in results])
    duality_rows = [
        {"tau": f"{cfg.tau / (2 ** i):.9g}", "residual": f"{r.value:.9e}"}
        for i, r in enumerate(r for r in results if r.suite == "duality"
                              and r.check.startswith("residual"))
    ]
    if duality_rows:
        write_csv(out / "duality.csv", ["tau", "residual"], duality_rows)
    ok = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.suite}/{r.check}: value {r.value:.6e} vs {r.threshold:.6e} {r.note}")
        ok = ok and r.passed
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="chks", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name in ("simulate", "optimize", "verify"):
        p = commands[name] = sub.add_parser(name)
        p.add_argument("config", type=Path)
        p.add_argument("--out", type=Path, default=Path("out"))
        p.add_argument("--seed", type=int, default=None)
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out, args.strict)
        if args.command == "optimize":
            return cmd_optimize(cfg, args.out)
        return cmd_verify(cfg, args.out, args.suite)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
