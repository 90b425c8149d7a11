"""The three timed phases of a run -- analysis, synthesis, CLI -- and their checks.

Every phase is a closed loop: one caller, and each call starts when the
previous one has returned.  Only the calls into gnoc are timed; parsing the
generated sentences, summarizing results and checking them happen outside
the timed regions.  A phase object runs one pass over its inputs per
run_pass() call and keeps every repetition's time.

Every timed call is recorded twice: as measured, and scaled to a reference
host speed by the probe taken around it (hostspeed.ScaledClock).  An
operation's figure is the median over its repetitions, which run.py spreads
over the whole run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from gnoc import characterize, cli, golden, grammar, hasta, synthesize
from gnoc.characterize import LookupMode, LookupPurpose
from gnoc.golden import Corner
from gnoc.techlib import BlockKind, ClockSpec

import reference

SLACK_TOL = 1e-9          # absolute, per path slack
INTERP_TOL = 0.02         # criterion 3: INTERPOLATE vs the oracle
EXACT_TOL = 1e-9          # criterion 2: EXACT vs the oracle
CLI_TIMEOUT_S = 60


@dataclass
class Ledger:
    """Operations attempted and failed, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.messages) < 20:
            self.messages.append(message)


@dataclass
class Gnoc:
    """The program under test, set up once per benchmark process."""

    cfg_text: str
    cfg: object
    ts: object
    env: dict
    clock: object                 # hostspeed.ScaledClock shared by the phases


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def above_p90(n: int) -> int:
    return n - math.ceil(0.9 * n)


def median_rep(reps: list, kind: int) -> float:
    """Median over repetitions of (measured, scaled) pairs; kind 0 or 1."""
    return statistics.median(r[kind] for r in reps)


def fast_third(reps: list, kind: int) -> float:
    """Mean of the fastest third (at least one) of (measured, scaled) pairs.

    For whole processes: start-up delays only ever add time, so the fast end
    of the repetitions is the steady part.  With nine repetitions per command
    the worst quartile spread over ten trial runs was 7.4%, against 11.5% for
    the median and 12.2% for the minimum.
    """
    ordered = sorted(r[kind] for r in reps)
    return statistics.mean(ordered[:max(len(ordered) // 3, 1)])


# ------------------------------------------------------------------ analysis

def _report_summary(report):
    kinds = Counter(v.kind.value for v in report.violations)
    paths = [(p.launch_index, p.capture_index, p.setup_slack, p.hold_slack)
             for p in report.paths]
    return dict(kinds), paths


class AnalysisPhase:
    """analyze_link (PESSIMISTIC) plus analyze_path INTERPOLATE and EXACT per link."""

    name = "analysis"

    def __init__(self, g: Gnoc, cases: list, ledger: Ledger):
        self.g, self.cases, self.ledger = g, cases, ledger
        self.links = [grammar.parse_link(c["sentence"]) for c in cases]
        self.link_times = [[] for _ in cases]     # analyze_link (s, scaled s) per pass
        self.path_times = [[] for _ in cases]     # both analyze_path calls, same
        self.first = [None] * len(cases)          # pass-0 outputs
        self.fingerprints = []
        self.passes = 0

    def run_pass(self) -> None:
        g, ledger, p, clock = self.g, self.ledger, self.passes, self.g.clock
        clock.start()
        for i, (link, c) in enumerate(zip(self.links, self.cases)):
            clk = ClockSpec(period=c["period"])
            ledger.attempted += 3
            try:
                t0 = perf_counter()
                rep = hasta.analyze_link(link, g.ts, g.cfg, clk,
                                         mode=LookupMode.PESSIMISTIC)
                t1 = perf_counter()
                link_s = (t1 - t0, clock.scaled(t1 - t0))
                t0 = perf_counter()
                up = hasta.analyze_path(link, g.ts, c["interp_slew"],
                                        LookupMode.INTERPOLATE,
                                        LookupPurpose.SETUP_MAX)
                ex = hasta.analyze_path(link, g.ts, c["grid_slew"],
                                        LookupMode.EXACT, LookupPurpose.SETUP_MAX)
                t1 = perf_counter()
                path_s = (t1 - t0, clock.scaled(t1 - t0))
            except Exception as exc:  # a failed operation is a result, not a crash
                ledger.fail(3, f"analysis case {i}: {type(exc).__name__}: {exc}")
                clock.start()
                continue
            self.link_times[i].append(link_s)
            self.path_times[i].append(path_s)
            result = (_report_summary(rep), up.arrivals, up.lookup_count,
                      ex.arrivals, ex.lookup_count)
            if p == 0:
                self.first[i] = result
            elif self.first[i] is not None and result != self.first[i]:
                ledger.fail(3, f"analysis case {i}: pass {p} differs from pass 0")
        self.passes += 1

    def per_case(self, kind: int) -> list:
        """(segments, analyze_link s, analyze_path s) per case that ran.

        Each time is the median over passes; kind 0 is as measured, 1 scaled.
        """
        return [(c["segments"], median_rep(lt, kind), median_rep(pt, kind))
                for c, lt, pt in zip(self.cases, self.link_times, self.path_times) if lt]

    def check(self) -> None:
        """Check pass-0 outputs against the reference and the oracle; fingerprint them."""
        for i, (link, c, result) in enumerate(zip(self.links, self.cases, self.first)):
            if result is None:
                self.fingerprints.append(None)
                continue
            problems = _check_analysis(self.g, link, c, result)
            if problems:
                self.ledger.fail(3 * self.passes, f"analysis case {i}: {problems[0]}")
            self.fingerprints.append(_analysis_fingerprint(result))


def _check_analysis(g: Gnoc, link, c, result) -> list:
    (kinds, paths), up, up_count, ex, ex_count = result
    problems = []
    ref_paths, ref_kinds = reference.link_checks(link, g.ts, g.cfg, c["period"])
    if kinds != dict(ref_kinds):
        problems.append(f"violation kinds {kinds} != reference {dict(ref_kinds)}")
    if len(paths) != len(ref_paths):
        problems.append(f"{len(paths)} paths != reference {len(ref_paths)}")
    for got, ref in zip(paths, ref_paths):
        if (got[:2] != ref[:2] or abs(got[2] - ref[2]) > SLACK_TOL
                or abs(got[3] - ref[3]) > SLACK_TOL):
            problems.append(f"path {got[:2]} slacks {got[2:]} != reference {ref}")
            break
    n = c["segments"]
    if not up_count == ex_count == len(up) == len(ex) == n:
        problems.append(f"lookup counts {up_count}/{ex_count} != {n} segments")
    for arrivals, slew, tol, label in ((up, c["interp_slew"], INTERP_TOL, "INTERPOLATE"),
                                       (ex, c["grid_slew"], EXACT_TOL, "EXACT")):
        oracle = golden.golden_path_analyze(link, slew, Corner.MAX, g.cfg).arrivals
        worst = max(abs(a - b) / b for a, b in zip(arrivals, oracle))
        if worst > tol:
            problems.append(f"{label} arrivals off the oracle by {worst:.3g} > {tol}")
    return problems


def _analysis_fingerprint(result) -> dict:
    (kinds, paths), up, _, ex, _ = result
    setup = [p[2] for p in paths]
    hold = [p[3] for p in paths]
    return {"kinds": kinds, "paths": len(paths),
            "setup": [sum(setup), min(setup), max(setup)] if paths else [],
            "hold": [sum(hold), min(hold), max(hold)] if paths else [],
            "interp_total": up[-1], "exact_total": ex[-1]}


def compare_analysis(got: list, want: list) -> list:
    """Differences between analysis fingerprints and recorded ones."""
    if len(got) != len(want):
        return [f"{len(got)} analysis results, {len(want)} recorded"]
    problems = []
    for i, (a, b) in enumerate(zip(got, want)):
        if a is None:
            problems.append(f"analysis case {i} has no output")
            continue
        tol = SLACK_TOL * max(a["paths"], 1)
        close = all(abs(x - y) <= tol for key in ("setup", "hold")
                    for x, y in zip(a[key], b[key]))
        close = close and all(abs(a[k] - b[k]) <= EXACT_TOL * abs(b[k])
                              for k in ("interp_total", "exact_total"))
        if a["kinds"] != b["kinds"] or a["paths"] != b["paths"] or not close:
            problems.append(f"analysis case {i} differs from the recorded output")
    return problems


# ----------------------------------------------------------------- synthesis

class SynthesisPhase:
    """synthesize_link once per (length, period) spec."""

    name = "synthesis"

    def __init__(self, g: Gnoc, specs: list, ledger: Ledger):
        self.g, self.specs, self.ledger = g, specs, ledger
        self.objs = [synthesize.LinkSpec(length_slots=m, period=t) for m, t in specs]
        self.spec_times = [[] for _ in specs]     # (s, scaled s), one per pass
        self.first = [None] * len(specs)          # pass-0 outputs
        self.outputs = []                         # pass-0 [link text, cost]
        self.passes = 0

    def run_pass(self) -> None:
        g, ledger, p, clock = self.g, self.ledger, self.passes, self.g.clock
        clock.start()
        for i, spec in enumerate(self.objs):
            ledger.attempted += 1
            try:
                t0 = perf_counter()
                res = synthesize.synthesize_link(spec, g.ts, g.cfg)
                t1 = perf_counter()
            except Exception as exc:
                ledger.fail(1, f"spec {self.specs[i]}: {type(exc).__name__}: {exc}")
                clock.start()
                continue
            self.spec_times[i].append((t1 - t0, clock.scaled(t1 - t0)))
            text = grammar.serialize_link(res.link) if res.link else None
            result = (text, res.cost, res.valid, res.iterations, len(res.log))
            if p == 0:
                self.first[i] = result
            elif self.first[i] is not None and result != self.first[i]:
                ledger.fail(1, f"spec {self.specs[i]}: pass {p} differs from pass 0")
        self.passes += 1

    def per_spec(self, kind: int) -> list:
        """synthesize_link seconds per spec that ran: median over passes."""
        return [median_rep(t, kind) for t in self.spec_times if t]

    def counts(self) -> tuple:
        """(sum of iterations, sum of log lengths) over pass 0."""
        done = [r for r in self.first if r is not None]
        return sum(r[3] for r in done), sum(r[4] for r in done)

    def check(self) -> None:
        for (m, t), result in zip(self.specs, self.first):
            if result is None:
                self.outputs.append(None)
                continue
            text, cost, valid = result[:3]
            self.outputs.append([text, cost])
            problem = _check_synthesis(self.g, m, t, text, cost, valid)
            if problem:
                self.ledger.fail(self.passes, f"spec {(m, t)}: {problem}")


def own_cost(cfg, text: str) -> float:
    total = 0.0
    for word in text.split():
        kind, _, suffix = word.partition(".")
        total += cfg.area_cost[BlockKind(kind)] + (cfg.cb_surcharge if suffix else 0.0)
    return total


def _check_synthesis(g: Gnoc, m: int, t: float, text, cost, valid):
    if not valid or text is None:
        return "no valid link synthesized"
    words = text.split()
    if len(words) != m + 2 or words[0] != "S" or words[-1] != "S":
        return f"link {text!r} does not span {m} slots between switches"
    if abs(cost - own_cost(g.cfg, text)) > 1e-9:
        return f"cost {cost} != {own_cost(g.cfg, text)} recomputed from the tokens"
    report = hasta.analyze_link(grammar.parse_link(text), g.ts, g.cfg,
                                ClockSpec(period=t), mode=LookupMode.PESSIMISTIC)
    if report.violations:
        return f"synthesized link violates: {report.violations[0]}"
    return None


def compare_synthesis(got: list, want: list) -> list:
    if len(got) != len(want):
        return [f"{len(got)} synthesis results, {len(want)} recorded"]
    return [f"spec {i}: {a} != recorded {b}" for i, (a, b) in enumerate(zip(got, want))
            if a is None or a[0] != b[0] or abs(a[1] - b[1]) > 1e-9]


# ----------------------------------------------------------------------- CLI

CLI_COMMANDS = ("characterize", "analyze", "validate", "synthesize", "dse")


def cli_argvs(work, inputs: dict) -> dict:
    """Write one pass's input files into work/ and return each command's argv."""
    tech, tables = str(work / "tech.cfg"), str(work / "tables.csv")
    (work / "link.gnoc").write_text(inputs["link"] + "\n")
    (work / "candidates.txt").write_text(inputs["candidates"])
    common = ["--tech", tech, "--tables", tables]
    return {
        "characterize": ["characterize", "--tech", tech, "--out", tables],
        "analyze": ["analyze", *common, "--link", str(work / "link.gnoc"),
                    "--period", repr(inputs["period"])],
        "validate": ["validate", *common, "--link", str(work / "link.gnoc"),
                     "--launch-slew", repr(inputs["launch_slew"])],
        "synthesize": ["synthesize", *common, "--length", "30", "--period", "90",
                       "--out", str(work / "synth.gnoc")],
        "dse": ["dse", *common, "--candidates", str(work / "candidates.txt")],
    }


def cli_in_process(argv: list) -> tuple:
    """Run gnoc.cli.main in this process: (exit code, stdout bytes, seconds)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        t0 = perf_counter()
        rc = cli.main(argv)
        elapsed = perf_counter() - t0
    return rc, buf.getvalue().encode(), elapsed


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_expected(g: Gnoc, work, argvs: dict, inputs: dict, ledger: Ledger) -> dict:
    """Run each command once in-process and check it against direct library calls.

    Returns cmd -> (exit code, stdout digest, stdout bytes, seconds), the
    reference that every subprocess run is compared with.
    """
    (work / "tech.cfg").write_text(g.cfg_text)
    expected = {}
    for cmd in CLI_COMMANDS:
        rc, out, elapsed = cli_in_process(argvs[cmd])
        expected[cmd] = (rc, _digest(out), len(out), elapsed)
        problem = _check_cli(g, work, cmd, rc, out, inputs)
        if problem:
            ledger.fail(0, f"cli {cmd} (in-process): {problem}")
            expected[cmd] = None
    return expected


def _check_cli(g: Gnoc, work, cmd: str, rc: int, out: bytes, inputs: dict):
    text = out.decode()
    if cmd == "characterize":
        buf = io.StringIO()
        characterize.save_tables(g.ts, buf)
        if rc != 0 or (work / "tables.csv").read_text() != buf.getvalue():
            return "table file differs from save_tables(build_tables(cfg))"
    elif cmd == "analyze":
        link = grammar.parse_link(inputs["link"])
        report = hasta.analyze_link(link, g.ts, g.cfg, ClockSpec(period=inputs["period"]))
        ref_paths, ref_kinds = reference.link_checks(link, g.ts, g.cfg, inputs["period"])
        kinds, paths = _report_summary(report)
        if kinds != dict(ref_kinds) or len(paths) != len(ref_paths):
            return "analysis disagrees with the reference recomputation"
        if text != hasta.render_report(report) or rc != (0 if report.ok else 1):
            return f"report or exit code {rc} differs from analyze_link"
    elif cmd == "validate":
        last = text.splitlines()[-1] if text else ""
        if rc != 0 or not last.startswith("max_rel_err="):
            return f"exit code {rc}, last line {last!r}"
    elif cmd == "synthesize":
        res = synthesize.synthesize_link(synthesize.LinkSpec(30, 90.0), g.ts, g.cfg)
        if rc != 0 or (work / "synth.gnoc").read_text() != grammar.serialize_link(res.link) + "\n":
            return f"exit code {rc} or written link differs from synthesize_link"
    elif cmd == "dse":
        rows = [line.split(",") for line in text.splitlines()[1:-1]]
        valid = [(float(r[2]), r[0]) for r in rows if r[1] == "1"]
        best = min(valid, key=lambda v: v[0])[1] if valid else None
        if rc != 0 or not text.splitlines()[-1].startswith(f"best={best} "):
            return f"exit code {rc} or best candidate is not the cheapest valid one"
    return None


class CliPhase:
    """Each command as its own `python -m gnoc.cli` process, one at a time."""

    name = "cli"

    def __init__(self, g: Gnoc, work, argvs: dict, expected: dict, ledger: Ledger):
        self.g, self.work, self.argvs = g, work, argvs
        self.expected, self.ledger = expected, ledger
        self.wall_s = {cmd: [] for cmd in CLI_COMMANDS}   # (s, scaled s) per pass
        self.stdout_bytes = {}
        self.outputs = {}                          # cmd -> {"exit", "sha256"}
        self.passes = 0

    def run_pass(self) -> None:
        clock = self.g.clock
        clock.start()
        for cmd in CLI_COMMANDS:
            self.ledger.attempted += 1
            t0 = perf_counter()
            try:
                proc = subprocess.run([sys.executable, "-m", "gnoc.cli", *self.argvs[cmd]],
                                      cwd=self.work, env=self.g.env, capture_output=True,
                                      timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.ledger.fail(1, f"cli {cmd}: timed out")
                clock.start()
                continue
            wall = perf_counter() - t0
            self.wall_s[cmd].append((wall, clock.scaled(wall)))
            self.stdout_bytes[cmd] = len(proc.stdout)
            got = (proc.returncode, _digest(proc.stdout))
            self.outputs[cmd] = {"exit": got[0], "sha256": got[1]}
            if self.expected[cmd] is None or got != self.expected[cmd][:2]:
                self.ledger.fail(1, f"cli {cmd}: exit {got[0]}, stdout {got[1][:12]} "
                                    f"differ from the in-process run; stderr "
                                    f"{proc.stderr.decode()[-200:]!r}")
        self.passes += 1


def cli_pass_in_process(argvs: dict, expected: dict, ledger: Ledger) -> dict:
    """One pass of the commands through gnoc.cli.main in this process."""
    seconds = {}
    for cmd in CLI_COMMANDS:
        ledger.attempted += 1
        rc, out, seconds[cmd] = cli_in_process(argvs[cmd])
        if expected[cmd] is None or (rc, _digest(out)) != expected[cmd][:2]:
            ledger.fail(1, f"cli {cmd} (in-process): exit {rc} or stdout differs")
    return seconds


def compare_cli(got: dict, want: dict) -> list:
    return [f"cli {cmd}: {got.get(cmd)} != recorded {want[cmd]}"
            for cmd in want if got.get(cmd) != want[cmd]]
