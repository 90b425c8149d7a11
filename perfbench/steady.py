"""Repeat runs of the benchmark and report how steady each metric is.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --runs 10                 # every workload, seeds 1..10
    python3 perfbench/steady.py --runs 1                  # every workload once
    python3 perfbench/steady.py --workloads synth_sweep --runs 5 --first-seed 20
    python3 perfbench/steady.py --counts                  # traced twice at one seed

For each workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
metric's bound from BENCHMARK.json.  --counts runs the traced benchmark twice
at the same seed and checks that every count metric repeats exactly.
--out writes everything, with the host facts, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_SUFFIXES = (".calls", "synthesize.candidates", "synthesize.log_entries")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(result JSON, wall seconds) of one benchmark run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def host_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "machine": platform.machine()}
    try:
        import numpy
        facts["numpy"] = numpy.__version__
    except ImportError:
        facts["numpy"] = None
    return facts


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def steadiness(bench: dict, workloads: list, runs: int, first_seed: int) -> dict:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in workloads:
        samples: dict = {}
        walls = []
        for seed in range(first_seed, first_seed + runs):
            result, wall = run_once(workload, seed, bench["run_seconds"], 0)
            walls.append(wall)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed")
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} done in {wall:.1f} s", file=sys.stderr,
                  flush=True)
        report[workload] = {"wall_s": walls}
        print(f"\n{workload}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}, "
              f"wall {min(walls):.1f}..{max(walls):.1f} s per run")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, values in samples.items():
            row = summarize(values)
            report[workload][name] = row
            flag = "" if row["spread"] < bounds[name] / 3 else "  <-- over bound/3"
            print(f"  {name:28s} {row['median']:12.6g} {row['q1']:12.6g} "
                  f"{row['q3']:12.6g} {row['spread']:8.3f} {bounds[name]:6.2f}{flag}")
    return report


def exact_counts(workloads: list, seed: int) -> dict:
    report = {}
    for workload in workloads:
        first, second = (run_once(workload, seed, 1, 1)[0]["metrics"] for _ in range(2))
        counts = {name: (first[name]["value"], second[name]["value"])
                  for name in first if name.endswith(COUNT_SUFFIXES)}
        same = all(a == b for a, b in counts.values())
        report[workload] = {"seed": seed, "repeat_exactly": same,
                            "counts": {k: v[0] for k, v in counts.items()}}
        print(f"{workload} seed {seed}: {len(counts)} count metrics "
              f"{'repeat exactly' if same else 'DIFFER between runs'}")
        for name, (a, b) in counts.items():
            if a != b:
                print(f"  {name}: {a} then {b}")
    return report


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--counts", action="store_true")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    out = {"host": host_facts(), "run_seconds": bench["run_seconds"]}
    if args.counts:
        out["counts"] = exact_counts(args.workloads, args.first_seed)
    else:
        out["steadiness"] = steadiness(bench, args.workloads, args.runs, args.first_seed)
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
