"""Repeated benchmark runs: run-to-run spread, and exact repetition of counts.

    python3 perfbench/measure.py spread --seeds 1-10 [--workloads a,b] [--out FILE]
    python3 perfbench/measure.py repeat --seed 7 [--workloads a,b] [--out FILE]
    python3 perfbench/measure.py compare FIRST SECOND

``spread`` runs every workload untraced once per seed, one run at a time, and
reports for each end-to-end metric the median of the runs and the distance
between the first and third quartile as a share of the median, next to the
metric's bound. ``repeat`` makes two traced runs of every workload with the
same seed and reports whether every count metric came out identical. Both
print a JSON record, with the environment of the runs, and write it to
``--out`` when given. ``compare`` reads two ``spread`` records and reports,
for every workload and end-to-end metric, how much worse the second median
is than the first as a share of the first, next to the metric's bound; it
exits 1 if any is worse by more than its bound. Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
COUNT_UNITS = ("count", "bytes")


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit status {proc.returncode}")
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    return json.loads(lines[-1]), env


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(spec: dict, workloads: list[str], seeds: list[int]) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for wl in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seeds:
            result, env = run(wl, seed, spec["run_seconds"], 0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), file=sys.stderr, flush=True)
        stats = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            stats[name] = {"median": med, "spread": (q3 - q1) / med, "bound": bounds[name],
                           "values": vals}
        record["workloads"][wl] = stats
        record["env"] = env
    return record


def repeat(spec: dict, workloads: list[str], seed: int) -> dict:
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    counts = [n for n, u in units.items() if u in COUNT_UNITS]
    record = {"seed": seed, "seconds": spec["run_seconds"], "workloads": {}}
    for wl in workloads:
        first, env = run(wl, seed, spec["run_seconds"], 1)
        second, _ = run(wl, seed, spec["run_seconds"], 1)
        a = {n: first["metrics"][n]["value"] for n in counts}
        b = {n: second["metrics"][n]["value"] for n in counts}
        record["workloads"][wl] = {
            "identical": a == b, "counts": a,
            "differing": sorted(n for n in counts if a[n] != b[n]),
            "trace.overhead_frac": [r["metrics"]["trace.overhead_frac"]["value"]
                                    for r in (first, second)],
        }
        record["env"] = env
        print(f"{wl}: counts identical = {a == b}", file=sys.stderr, flush=True)
    return record


def compare(spec: dict, first: dict, second: dict) -> dict:
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    record, within = {}, True
    for wl, stats in first["workloads"].items():
        for name, a in stats.items():
            b = second["workloads"][wl][name]
            sign = 1.0 if better[name] == "lower" else -1.0
            worse = sign * (b["median"] - a["median"]) / a["median"]
            within &= worse <= a["bound"]
            record[f"{wl}.{name}"] = {"first": a["median"], "second": b["median"],
                                      "worse": worse, "bound": a["bound"]}
    return {"within_bounds": within, "metrics": record}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("spread", "repeat", "compare"))
    parser.add_argument("records", nargs="*", type=Path)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    if args.mode == "compare":
        first, second = (json.loads(path.read_text()) for path in args.records)
        record = compare(spec, first, second)
    elif args.mode == "spread":
        record = spread(spec, workloads, seeds_arg(args.seeds))
    else:
        record = repeat(spec, workloads, args.seed)
    text = json.dumps(record, indent=1)
    print(text)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
    if args.mode == "repeat":
        return 0 if all(w["identical"] for w in record["workloads"].values()) else 1
    if args.mode == "compare":
        return 0 if record["within_bounds"] else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
