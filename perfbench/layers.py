"""Per-layer metrics of a traced run, named ``<module>.<function>.<stat>``.

Counts are those of the run's first traced operation, which solves the
problem the run's own seed gives, so they repeat exactly for a seed. Times
are the median over traced operations of the per-operation total. A layer
that a workload never calls reports 0.
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import SWEEPS, SpanTable

CALLS = (
    "grid.helmholtz_cg", "grid.helmholtz_direct", "grid.ch_block_solve", "grid.laplacian",
    "state.step", "state.solve_forward", "state.energy", "linearized.solve_linearized",
    "adjoint.solve_adjoint",
)
SELF_TIMES = (
    "grid.helmholtz_cg", "grid.helmholtz_direct", "grid.ch_block_solve", "grid.laplacian",
    "grid.chemotaxis_flux", "grid.divergence", "state.solve_forward", "state.energy",
    "linearized.solve_linearized", "adjoint.solve_adjoint", "control_opt.cost",
)


def op_counts(t: SpanTable) -> dict[str, int]:
    """Exact per-operation counts, from the spans of one traced operation."""
    counts = {f"{layer}.calls": t.calls(layer) for layer in CALLS}
    counts["grid.helmholtz_cg.iters"] = t.children_of("grid.laplacian", "grid.helmholtz_cg")
    optimize_notes = t.noted("control_opt.optimize")
    forwards = t.children_of("state.solve_forward", "control_opt.optimize")
    counts["control_opt.iterations"] = sum(n[0] for n in optimize_notes)
    counts["control_opt.forward_solves"] = forwards
    counts["control_opt.adjoint_solves"] = t.children_of("adjoint.solve_adjoint", "control_opt.optimize")
    # Every forward solve but the first of each run tries one step; the rest
    # of the trials were rejected, including those of a line search that failed.
    counts["control_opt.backtracks"] = forwards - sum(1 + n[1] for n in optimize_notes)
    counts["fields_io.write_trajectory.bytes"] = sum(t.noted("fields_io.write_trajectory"))
    counts["sweeps.cell_steps"] = sum(n[1] for name in SWEEPS for n in t.noted(name))
    return counts


def _step_ms(tables: list[SpanTable], sweep: str) -> float:
    """Median milliseconds per time step of a sweep, over its traced calls."""
    per_step = [d / n[0] * 1e3 for t in tables for d, n in zip(t.durations(sweep), t.noted(sweep))]
    return statistics.median(per_step) if per_step else 0.0


def layer_metrics(ops: list[SpanTable], setups: list[SpanTable],
                  counts: dict[str, int], overhead_frac: float) -> dict[str, float]:
    metrics: dict[str, float] = dict(counts)
    for layer in SELF_TIMES:
        metrics[f"{layer}.self_s"] = statistics.median(t.self_s(layer) for t in ops)
    steps = np.concatenate([t.durations("state.step") for t in ops]) * 1e3
    metrics["state.step.p50_ms"] = float(np.percentile(steps, 50))
    metrics["state.step.p90_ms"] = float(np.percentile(steps, 90))
    metrics["linearized.solve_linearized.step_ms"] = _step_ms(ops, "linearized.solve_linearized")
    metrics["adjoint.solve_adjoint.step_ms"] = _step_ms(ops, "adjoint.solve_adjoint")
    # Snapshot writes are write_field children of write_trajectory, so the
    # layer's time is its total, not its self time.
    metrics["fields_io.write_trajectory.total_s"] = statistics.median(
        t.total_s("fields_io.write_trajectory") for t in ops)
    metrics["config.load_config.total_s"] = statistics.median(
        t.total_s("config.load_config") for t in setups)
    metrics["trace.overhead_frac"] = overhead_frac
    return metrics
