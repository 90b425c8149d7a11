"""gnoc benchmark: one workload per run, end-to-end metrics or a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analyze_long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --record     # re-record perfbench/expected/ from this tree

A run measures all three user operations -- link analysis, link synthesis and
CLI commands -- so that every end-to-end metric exists on every workload.  The
workload picks which operation is heavy and fills --seconds; the other two
run a fixed light sample (see README.md).  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"
OUT = ROOT / ".perfbench_out"

# workload -> which input set each phase gets: (analysis, synthesis, cli)
WORKLOADS = {
    "analyze_long": ("long", "base-specs", "base-cli"),
    "synth_sweep": ("base-links", "sweep", "base-cli"),
    "cli_batch": ("base-links", "base-specs", "cli"),
}
SETUP_REPS = 5          # cold set-ups per run; setup_s is their median
MIN_ROUNDS = 3          # rounds per run, at least
HEAVY_ROUND_S = 3.0     # per round, the heavy operation repeats passes this long
# and each light sample this long (one pass at least): about one analysis
# pass, a hundred cheap specs, three passes of the five commands
LIGHT_ROUND_S = {"analysis": 1.2, "synthesis": 0.6, "cli": 3.0}
IMPORT_REPS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="write expected outputs for the default and held-out seeds")
    args = ap.parse_args(argv)
    if not args.record and args.workload is None:
        ap.error("--workload is required unless --record is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gnoc" / "__init__.py").is_file():
        print(f"perfbench: no gnoc sources under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gen

    # One CPU for this process and every child it starts: the host-speed
    # probe then measures the same CPU as the work it scales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    seed = gen.DEFAULT_SEED if args.seed is None else args.seed
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        if args.record:
            return record(work)
        if args.trace:
            result = traced_run(args.workload, seed, work)
        else:
            result = timed_run(args.workload, seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------------ set-up

def load_gnoc():
    from gnoc import characterize, techlib
    from hostspeed import ScaledClock
    from phases import Gnoc

    cfg = techlib.default_tech_config()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return Gnoc(cfg_text=techlib.serialize_tech_config(cfg), cfg=cfg,
                ts=characterize.build_tables(cfg), env=env, clock=ScaledClock())


def expected_for(seed: int) -> dict:
    path = EXPECTED / f"seed-{seed}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


class Workload:
    """The generated inputs of one run and the three phases over them."""

    def __init__(self, workload: str, seed: int, g, work: Path):
        import gen
        import phases

        self.keys = WORKLOADS[workload]
        a_key, s_key, _ = self.keys
        make = {"long": gen.long_corpus, "base-links": gen.base_corpus,
                "sweep": gen.sweep_specs, "base-specs": gen.base_specs}
        self.ledger = phases.Ledger()
        cli_inputs = gen.cli_inputs(seed)
        self.argvs = phases.cli_argvs(work, cli_inputs)
        self.cli_reference = phases.cli_expected(g, work, self.argvs, cli_inputs,
                                                 self.ledger)
        self.analysis = phases.AnalysisPhase(g, make[a_key](seed), self.ledger)
        self.synthesis = phases.SynthesisPhase(g, make[s_key](seed), self.ledger)
        self.cli = phases.CliPhase(g, work, self.argvs, self.cli_reference, self.ledger)

    def check(self, expected: dict) -> None:
        import phases

        self.analysis.check()
        self.synthesis.check()
        a_key, s_key, _ = self.keys
        problems = []
        if a_key in expected:
            problems += phases.compare_analysis(self.analysis.fingerprints,
                                                expected[a_key])
        if s_key in expected:
            problems += phases.compare_synthesis(self.synthesis.outputs, expected[s_key])
        if self.cli.passes and "cli" in expected:
            problems += phases.compare_cli(self.cli.outputs, expected["cli"])
        for problem in problems:
            self.ledger.fail(1, f"recorded output: {problem}")


# ---------------------------------------------------------------- timed run

def measure_setup(g, work: Path) -> list:
    """Seconds of SETUP_REPS cold set-ups in fresh interpreters, as measured.

    Unlike the other figures these are not scaled: in trials the probe made
    the median of cold starts less steady (quartile spread 18% against 10%).
    """
    tech = work / "setup-tech.cfg"
    tech.write_text(g.cfg_text)
    samples = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                               str(SRC), str(tech)],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return samples


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_rounds(heavy, light: list, seconds: float) -> dict:
    """Rounds in which every phase repeats its pass for its share of time.

    Rounds repeat while another is expected to fit in `seconds`, at least
    MIN_ROUNDS times, so every operation's repetitions spread over the run.
    Returns the wall seconds spent per phase.
    """
    share = {heavy: HEAVY_ROUND_S, **{ph: LIGHT_ROUND_S[ph.name] for ph in light}}
    took = dict.fromkeys(share, 0.0)
    start = perf_counter()
    rounds = 0
    while True:
        for ph, budget in share.items():
            t0 = perf_counter()
            ph.run_pass()
            while perf_counter() - t0 < budget:
                ph.run_pass()
            took[ph] += perf_counter() - t0
        rounds += 1
        elapsed = perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > seconds:
            return took


def e2e_metrics(analysis, synthesis, cli_wall: dict, kind: int) -> list:
    """(name, value, unit, note) for every end-to-end metric the phases give.

    An in-process operation's time is the median over its repetitions, a
    CLI command's the mean of its fastest third; the percentiles are over
    operations.  kind 0 takes times as measured, kind 1 scaled to the
    reference host speed (see hostspeed.py).
    """
    import phases

    rows = []
    cases = analysis.per_case(kind)
    n, link_s = len(cases), [c[1] for c in cases]
    segments = sum(c[0] for c in cases)
    reps = f"median of {analysis.passes}"
    rows.append(("analyze.segments_per_s", segments / sum(link_s), "seg/s",
                 f"{n} links, {reps}"))
    rows.append(("analyze.link_ms.p50", 1e3 * statistics.median(link_s), "ms",
                 f"n={n}, {reps}"))
    rows.append(("analyze.link_ms.p90", 1e3 * phases.percentile(link_s, 0.9), "ms",
                 f"n={n}, {phases.above_p90(n)} above, {reps}"))
    rows.append(("path.segments_per_s", 2 * segments / sum(c[2] for c in cases), "seg/s",
                 f"{2 * n} paths, {reps}"))
    spec_s = synthesis.per_spec(kind)
    n, reps = len(spec_s), f"median of {synthesis.passes}"
    rows.append(("synth.specs_per_s", n / sum(spec_s), "1/s", f"{n} specs, {reps}"))
    rows.append(("synth.spec_ms.p50", 1e3 * statistics.median(spec_s), "ms",
                 f"n={n}, {reps}"))
    rows.append(("synth.spec_ms.p90", 1e3 * phases.percentile(spec_s, 0.9), "ms",
                 f"n={n}, {phases.above_p90(n)} above, {reps}"))
    for cmd in phases.CLI_COMMANDS:
        samples = cli_wall[cmd]
        rows.append((f"cli.{cmd}_s", phases.fast_third(samples, kind), "s",
                     f"fastest third of {len(samples)}"))
    return rows


def timed_run(workload: str, seed: int, seconds: float, work: Path) -> dict:
    import phases

    t_start = perf_counter()
    g = load_gnoc()
    setup = measure_setup(g, work)
    w = Workload(workload, seed, g, work)
    heavy = {"long": w.analysis, "sweep": w.synthesis, "cli": w.cli}
    heavy = next(heavy[k] for k in w.keys if k in heavy)
    light = [ph for ph in (w.analysis, w.synthesis, w.cli) if ph is not heavy]
    took = run_rounds(heavy, light, seconds)
    t0 = perf_counter()
    w.check(expected_for(seed))
    checks_s = perf_counter() - t0

    rows, measured = [], []
    for kind, out in ((1, rows), (0, measured)):
        out.append(("setup_s", statistics.median(setup), "s",
                    f"median of n={len(setup)}, not scaled"))
        out.append(("peak_rss_mb", peak_rss_mb(), "MB",
                    "max over this process and its children"))
        out += e2e_metrics(w.analysis, w.synthesis, w.cli.wall_s, kind)
    print(f"# workload={workload} seed={seed} seconds={seconds:g} "
          f"wall={perf_counter() - t_start:.1f}s attempted={w.ledger.attempted} "
          f"failed={w.ledger.failed} "
          f"fail_ratio={w.ledger.failed / max(w.ledger.attempted, 1):.6g}")
    print(f"# phase wall s: analysis={took[w.analysis]:.1f} "
          f"synthesis={took[w.synthesis]:.1f} cli={took[w.cli]:.1f} checks={checks_s:.1f}")
    probes = g.clock.probes
    print(f"# host speed: {len(probes)} probes, median {1e3 * statistics.median(probes):.4f} "
          f"ms, fastest {1e3 * min(probes):.4f} ms; figures are scaled to a 1 ms probe, "
          f"as measured in brackets")
    candidates, log_entries = w.synthesis.counts()
    print(f"# synthesize.candidates={candidates} synthesize.log_entries={log_entries} "
          f"(synthesis phase, one pass)")
    return finish(rows, w.ledger, measured)


def finish(rows: list, ledger, measured: list = None) -> dict:
    for i, (name, value, unit, note) in enumerate(rows):
        raw = f"[{measured[i][1]:.6g}] " if measured else ""
        print(f"{name:36s} {value:14.6g} {unit:6s} {raw}{note}")
    for message in ledger.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, value, unit, _ in rows}}


# --------------------------------------------------------------- traced run

def import_times(g, work: Path) -> tuple:
    """Median `-X importtime` cumulative ms of gnoc.cli and of numpy within it."""
    cli_ms, numpy_ms = [], []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gnoc.cli"],
                              cwd=work, env=g.env, capture_output=True, text=True,
                              timeout=120, check=True)
        found = {"cli": 0.0, "numpy": 0.0}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cumulative_ms = int(parts[1]) / 1e3
            if parts[2] == " gnoc.cli":
                found["cli"] = cumulative_ms
            elif parts[2].strip() == "numpy":
                found["numpy"] = cumulative_ms
        cli_ms.append(found["cli"])
        numpy_ms.append(found["numpy"])
    return statistics.median(cli_ms), statistics.median(numpy_ms)


def traced_run(workload: str, seed: int, work: Path) -> dict:
    """One untraced and one traced pass of every phase; per-layer metrics."""
    import phases
    from gnoc import characterize
    from tracing import Tracer

    g = load_gnoc()
    plain = Workload(workload, seed, g, work)
    for ph in (plain.analysis, plain.synthesis, plain.cli):
        ph.run_pass()
    plain.check(expected_for(seed))

    traced = Workload(workload, seed, g, work)
    ledger = traced.ledger
    tracer = Tracer()
    tracer.install()
    try:
        characterize.build_tables(g.cfg)
        tracer.wrap("bench.analysis", traced.analysis.run_pass)()
        tracer.wrap("bench.synthesis", traced.synthesis.run_pass)()
        traced_cli = tracer.wrap("bench.cli", phases.cli_pass_in_process)(
            traced.argvs, plain.cli_reference, ledger)
    finally:
        tracer.uninstall()
    if (traced.analysis.first != plain.analysis.first
            or traced.synthesis.first != plain.synthesis.first):
        ledger.fail(1, "traced outputs differ from untraced outputs")
    ledger.attempted += plain.ledger.attempted
    ledger.failed += plain.ledger.failed
    ledger.messages += plain.ledger.messages

    totals = tracer.totals()
    count = tracer.counters
    phase = "bench.synthesis"
    if (count[phase, "candidates"], count[phase, "log_entries"]) != plain.synthesis.counts():
        ledger.fail(1, "traced synthesis counts differ from the untraced run")

    def calls(name):
        return totals[name]["calls"]

    def total_ms(name):
        return 1e3 * totals[name]["total_s"]

    def mean_us(name):
        return 1e6 * totals[name]["total_s"] / max(calls(name), 1)

    def us_per_size(name):
        return 1e6 * totals[name]["total_s"] / max(totals[name]["size"], 1)

    small = tracer.per_segment_us("hasta.analyze_link", "bench.analysis", 0, 1000)
    large = tracer.per_segment_us("hasta.analyze_link", "bench.analysis", 5000, 10**9)
    import_ms, numpy_ms = import_times(g, work)
    rows = [
        ("hasta.analyze_link.calls", calls("hasta.analyze_link"), "count"),
        ("hasta.analyze_link.self_ms", 1e3 * totals["hasta.analyze_link"]["self_s"], "ms"),
        ("hasta.analyze_link.us_per_seg.small", small, "us/seg"),
        ("hasta.analyze_link.us_per_seg.large", large, "us/seg"),
        ("hasta.analyze_link.growth", large / small, "ratio"),
        ("hasta.analyze_path.us_per_seg", us_per_size("hasta.analyze_path"), "us/seg"),
        ("grammar.segment_decompose.calls", calls("grammar.segment_decompose"), "count"),
        ("grammar.segment_decompose.us_per_seg", us_per_size("grammar.segment_decompose"),
         "us/seg"),
        ("grammar.parse_link.ms", total_ms("grammar.parse_link"), "ms"),
        ("characterize.table_lookup.calls", calls("characterize.table_lookup"), "count"),
        ("characterize.table_lookup.us", mean_us("characterize.table_lookup"), "us"),
        ("characterize.reconstruct_lookup.calls", calls("characterize.reconstruct_lookup"),
         "count"),
        ("characterize.reconstruct_lookup.us", mean_us("characterize.reconstruct_lookup"),
         "us"),
        ("characterize.lookup.clamped_ratio", count["clamped"] / max(count["lookups"], 1),
         "ratio"),
        ("characterize.build_tables.ms", total_ms("characterize.build_tables"), "ms"),
        ("characterize.load_tables.ms", total_ms("characterize.load_tables"), "ms"),
        ("characterize.save_tables.ms", total_ms("characterize.save_tables"), "ms"),
        ("golden.golden_segment.calls", calls("golden.golden_segment"), "count"),
        ("golden.golden_segment.us", mean_us("golden.golden_segment"), "us"),
        ("golden.clock_stage_delay.calls", calls("golden.clock_stage_delay"), "count"),
        ("techlib.digest.calls", calls("techlib.digest"), "count"),
        ("techlib.digest.ms", total_ms("techlib.digest"), "ms"),
        ("techlib.load_tech_config.ms", total_ms("techlib.load_tech_config"), "ms"),
        ("synthesize.self_ms", 1e3 * totals["synthesize.synthesize_link"]["self_s"], "ms"),
        ("synthesize.candidates", count[phase, "candidates"], "count"),
        ("synthesize.accept_ratio",
         count[phase, "valid"] / max(count[phase, "candidates"], 1), "ratio"),
        ("synthesize.is_valid.calls", calls("synthesize.is_valid"), "count"),
        ("synthesize.assign_clock_subtypes.ms", total_ms("synthesize.assign_clock_subtypes"),
         "ms"),
        ("synthesize.log_entries", count[phase, "log_entries"], "count"),
        ("dse.dse_loop.ms", total_ms("dse.dse_loop"), "ms"),
        ("dse.evaluate_candidate.calls", calls("dse.evaluate_candidate"), "count"),
        ("dse.repeat_spec_ratio",
         count["dse.repeat_specs"] / max(count["dse.synth_calls"], 1), "ratio"),
        ("cli.import.ms", import_ms, "ms"),
        ("cli.import_numpy.ms", numpy_ms, "ms"),
    ]
    rows += [(f"cli.stdout_bytes.{cmd}", plain.cli.stdout_bytes.get(cmd, 0), "bytes")
             for cmd in phases.CLI_COMMANDS]

    print(f"# traced workload={workload} seed={seed} spans={len(tracer.start)}")
    print("# tracing overhead: traced - untraced, same inputs, one pass each "
          "(CLI compared in-process)")
    before_rows = e2e_metrics(plain.analysis, plain.synthesis,
                              {c: [(ref[3],) if ref else (math.nan,)]
                               for c, ref in plain.cli_reference.items()}, 0)
    after_rows = e2e_metrics(traced.analysis, traced.synthesis,
                             {c: [(traced_cli[c],)] for c in phases.CLI_COMMANDS}, 0)
    for (name, before, unit, _), (_, after, _, _) in zip(before_rows, after_rows):
        print(f"# overhead {name:30s} traced {after:12.6g} untraced {before:12.6g} "
              f"diff {after - before:+12.6g} {unit}")

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"trace-{workload}-seed{seed}.tsv.gz"
    tracer.write(spans)
    print(f"# spans written to {spans.relative_to(ROOT)}")
    return finish([(name, value, unit, "") for name, value, unit in rows], ledger)


# ------------------------------------------------------------------ record

def record(work: Path) -> int:
    """Record expected outputs for the default and held-out seeds."""
    import gen

    g = load_gnoc()
    EXPECTED.mkdir(exist_ok=True)
    failed = 0
    for seed in (gen.DEFAULT_SEED, gen.HELD_OUT_SEED):
        out = {}
        for workload in ("analyze_long", "synth_sweep"):
            w = Workload(workload, seed, g, work)
            w.analysis.run_pass()
            w.synthesis.run_pass()
            w.check({})
            out[w.keys[0]] = w.analysis.fingerprints
            out[w.keys[1]] = w.synthesis.outputs
            out["cli"] = {cmd: ref and {"exit": ref[0], "sha256": ref[1]}
                          for cmd, ref in w.cli_reference.items()}
            for message in w.ledger.messages:
                print(f"FAILED: {message}", file=sys.stderr)
            failed += w.ledger.failed
        path = EXPECTED / f"seed-{seed}.json"
        path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
