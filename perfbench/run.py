"""Benchmark harness for chks: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1

Run it from the repository root; it imports chks from ``src/``. BENCHMARK.json
names the workloads and the metrics, with their units and bounds.

One run loads the workload's configuration with the given seed several times,
then repeats the workload's operation, one after another in this one
process, on problem instances derived from the seed, until ``--seconds``
have passed, and checks every operation's output. A fixed reference kernel
(numpy/scipy only) is timed before and after every set-up and every
operation: ``wall_ref`` is the median of operation time over the mean of the
two reference times around it, ``cell_steps_per_ref`` the cell-steps per
reference time, and ``setup_s`` the median set-up time over reference time,
converted to seconds with the kernel's fixed nominal time (``REFERENCE_S``).
The summary also prints ``wall_s``, ``cell_steps_per_s`` and the raw set-up
seconds, which drift with the machine's speed. With ``--trace 0`` it
reports the end-to-end metrics. With ``--trace 1`` it times every instance
untraced and then traced: the traced operations give the per-layer metrics,
and the median ratio of the two times, minus 1, is ``trace.overhead_frac``.
A traced run also asserts that its span counts match the sweep counts the
operations' results imply, so a call site the tracer missed fails the run,
and writes its spans to ``.bench_out/traces/<workload>-seed<N>.npz``.

Output: a summary and an ``env`` line, then, as the last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
status is nonzero when any operation raised or failed its output check.
``--workload all`` runs each workload in its own process and exits nonzero if
any of them does.
"""

from __future__ import annotations

import os

# OpenBLAS's spinning worker threads make timings on a small shared machine
# swing between processes, so BLAS runs single-threaded unless the caller
# says otherwise. The values in effect are printed on the env line.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

# Operation j of a run solves problem instance j, loaded with seed
# instance_seed(seed, j); instance 0 is the run's own seed. How much work an
# optimize-64 operation does depends on its problem (56 to 95 sweeps over
# seeds 1-30), so a run spreads its median over several instances.
INSTANCE_STRIDE = 100_003
# Set-ups per run. A fixed count, not a time budget: the heap layout the
# set-ups leave behind moves peak_rss_mb by 16 MB at 256x256 depending on
# whether their number is odd or even.
SETUP_REPS = 11
# setup_s is in seconds at a fixed machine speed: the median over set-ups of
# set-up time over the reference kernel's time around it, times REFERENCE_S,
# about the kernel's median time on the two-core x86-64 machine the bounds
# were set on. Raw set-up seconds drift with the machine's speed between
# runs, as operation seconds do.
REFERENCE_S = 0.040


@dataclass
class Op:
    wall: float
    outcome: object  # workloads.Outcome
    traced: bool
    span_range: tuple[int, int] | None


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k in THREAD_VARS or "THREAD" in k},
    }


def instance_seed(seed: int, j: int) -> int:
    return seed + j * INSTANCE_STRIDE


def over_reference(times: list[float], refs: list[float]) -> list[float]:
    """Each time over the mean of the two reference times taken around it."""
    return [t / ((a + b) / 2) for t, a, b in zip(times, refs, refs[1:])]


def tail_text(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return ""
    pct = int(100 * (1 - 10 / n))
    return f"; p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.6g} s"


def reference_kernel() -> float:
    """Seconds for a fixed piece of numpy/scipy work that does not involve chks.

    A run times it before and after every operation and divides each
    operation's time by the mean of the two. The machine's speed drifts by
    tens of percent over tens of seconds when other work shares its cores,
    and the drift slows both alike, so the ratio holds still where seconds
    do not. It mixes 256x256 transforms with a loop of 16x16 ones, like the
    workloads' large and small arrays, and runs single-threaded explicitly.
    """
    import numpy as np
    import scipy.fft as sfft

    rng = np.random.default_rng(0)
    big, small = rng.random((256, 256)), rng.random((16, 16))
    t0 = perf_counter()
    for _ in range(8):
        y = sfft.dctn(big, norm="ortho", workers=1)
        big = sfft.idctn(y / (1.0 + np.abs(y)), norm="ortho", workers=1) + 0.5 * np.pad(
            big, 1, mode="edge")[1:-1, 1:-1]
    for _ in range(200):
        y = sfft.dctn(small, norm="ortho", workers=1)
        small = sfft.idctn(y / (1.0 + np.abs(y)), norm="ortho", workers=1) + 0.5 * np.pad(
            small, 1, mode="edge")[1:-1, 1:-1]
    return perf_counter() - t0


def clear_caches() -> None:
    """Empty every functools cache in chks, so each set-up starts cold."""
    for name, mod in list(sys.modules.items()):
        if name == "chks" or name.startswith("chks."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def set_up(wl, seed: int):
    """load_config plus first-call warm-up: one forward step on the loaded data."""
    from chks import config, state

    clear_caches()
    t0 = perf_counter()
    cfg = config.load_config(wl.config_path, seed_override=seed)
    first = state.Control(cfg.u0.values[:1], cfg.u0.u_max)
    state.solve_forward(cfg.grid, cfg.model, cfg.init, first, cfg.tau, 1,
                        s_stab=cfg.s_stab, flux_scheme=cfg.flux_scheme)
    return cfg, perf_counter() - t0


def run_op(wl, cfg, workdir: Path, tracer) -> Op:
    from workloads import Outcome

    thunk = wl.prepare(cfg, workdir)
    if tracer is not None:
        tracer.install()
        lo = tracer.mark()
    result, error = None, None
    t0 = perf_counter()
    try:
        result = thunk()
    except Exception:  # an operation that raises counts as failed; the run goes on
        error = traceback.format_exc()
    wall = perf_counter() - t0
    span_range = None
    if tracer is not None:
        span_range = (lo, tracer.mark())
        tracer.uninstall()
    if error is None:
        try:
            outcome = wl.check(cfg, workdir, result)
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        print(error, file=sys.stderr)
        outcome = Outcome(failures=[error.strip().splitlines()[-1]])
    for msg in outcome.failures:
        print(f"operation failed its check: {msg}", file=sys.stderr)
    return Op(wall, outcome, tracer is not None, span_range)


def check_trace(tracer, ops: list[Op], tables) -> dict[str, int]:
    """Self-check of the traced run; returns the counts of its first operation.

    Later traced operations solve other instances, so their counts differ;
    each is checked against the sweep counts its own results imply.
    """
    import layers
    from spans import SWEEPS

    problems, per_op = [], []
    for op, table in zip(ops, tables):
        counts = layers.op_counts(table)
        per_op.append(counts)
        if op.outcome.failures:
            continue
        for sweep in SWEEPS:
            if table.calls(sweep) != op.outcome.sweeps[sweep]:
                problems.append(f"{table.calls(sweep)} {sweep} spans, results imply "
                                f"{op.outcome.sweeps[sweep]}")
        if counts["sweeps.cell_steps"] != op.outcome.cell_steps:
            problems.append(f"{counts['sweeps.cell_steps']} traced cell-steps, results imply "
                            f"{op.outcome.cell_steps}")
        forward_steps = sum(n[0] for n in table.noted("state.solve_forward"))
        if counts["state.step.calls"] != forward_steps:
            problems.append(f"{counts['state.step.calls']} step spans inside forward sweeps "
                            f"of {forward_steps} steps")
    if problems:
        raise RuntimeError("trace self-check failed:\n  " + "\n  ".join(problems))
    return per_op[0]


def run_one(args) -> int:
    import layers
    import workloads
    from chks import config
    from spans import Tracer

    spec = load_spec()
    wl = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{wl.name}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        setups, setup_ranges = [], []
        setup_refs = [reference_kernel()]
        for _ in range(SETUP_REPS):
            if tracer is not None:
                tracer.install()
                lo = tracer.mark()
            cfg, seconds = set_up(wl, args.seed)
            if tracer is not None:
                setup_ranges.append((lo, tracer.mark()))
                tracer.uninstall()
            setups.append(seconds)
            setup_refs.append(reference_kernel())

        ops: list[Op] = []
        configs = {0: cfg}
        refs = [] if tracer else [reference_kernel()]
        deadline = perf_counter() + args.seconds
        while True:
            # A traced run times each instance twice, untraced and then traced.
            j = len(ops) // 2 if tracer else len(ops)
            traced = tracer is not None and len(ops) % 2 == 1
            if j not in configs:
                configs = {j: config.load_config(wl.config_path,
                                                  seed_override=instance_seed(args.seed, j))}
            ops.append(run_op(wl, configs[j], workdir, tracer if traced else None))
            if tracer is None:
                refs.append(reference_kernel())
            if perf_counter() >= deadline and not (tracer and len(ops) % 2):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops)
    failed = sum(1 for op in ops if op.outcome.failures)
    plain = [op for op in ops if not op.traced]
    if args.trace:
        traced = [op for op in ops if op.traced]
        tables = [tracer.spans(*op.span_range) for op in traced]
        counts = check_trace(tracer, traced, tables)
        overhead = statistics.median(t.wall / u.wall for u, t in zip(plain, traced)) - 1.0
        metrics = layers.layer_metrics(tables, [tracer.spans(*r) for r in setup_ranges],
                                       counts, overhead)
        tracer.dump(OUT / "traces" / f"{wl.name}-seed{args.seed}.npz",
                    [("setup", *r) for r in setup_ranges]
                    + [("op", *op.span_range) for op in traced])
        wanted = spec["per_layer"]
        samples = {"trace.overhead_frac": f"median of {len(traced)} traced/untraced pairs"}
    else:
        ratios = over_reference([op.wall for op in plain], refs)
        good = [(op, q) for op, q in zip(plain, ratios) if not op.outcome.failures]
        walls = [op.wall for op in plain]
        metrics = {
            "setup_s": statistics.median(over_reference(setups, setup_refs)) * REFERENCE_S,
            "wall_ref": statistics.median(ratios),
            "cell_steps_per_ref": statistics.median(
                [op.outcome.cell_steps / q for op, q in good] or [0.0]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        wanted = spec["end_to_end"]
        samples = {"setup_s": f"median of {len(setups)} set-ups, at reference speed; "
                              f"raw median {statistics.median(setups):.6g} s",
                   "wall_ref": f"median of {len(ratios)} operations",
                   "cell_steps_per_ref": f"median of {len(good)} operations"}
        print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
        print(f"wall_s = {statistics.median(walls):.6g} s (median of {len(walls)} operations"
              f"{tail_text(walls)})")
        print(f"cell_steps_per_s = "
              f"{statistics.median([op.outcome.cell_steps / op.wall for op, _ in good] or [0.0]):.6g}"
              f" 1/s (median of {len(good)} operations)")
        print(f"reference_kernel = {statistics.median(refs):.6g} s (median of {len(refs)})")
    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    for name, unit in units.items():
        note = f" ({samples[name]})" if name in samples else ""
        print(f"{name} = {metrics[name]:.6g} {unit}{note}")
    print("env " + json.dumps(environment(args)))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    status, attempted, failed, metrics = 0, 0, 0, {}
    for wl in load_spec()["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"== {wl['name']}", *lines[:-1], sep="\n", flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{wl['name']}: exit status {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, value in result["metrics"].items():
            metrics[f"{wl['name']}.{name}"] = value
    print(json.dumps({"correct": status == 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
