"""Table-driven link timing analysis: one lookup per segment.

Data delays and slews come from the characterization tables (MAX corner for
the setup pass, MIN for the hold pass); clock-stage delays come from
golden.clock_stage_delays, the oracle's closed-form clock model.
Flop-to-flop paths between consecutive R/S blocks get setup and hold slacks
with skew and jitter folded in, plus the four structural checks: slew
legality, combinational delay vs. the period, and clock-stage half-period
coverage.

PESSIMISTIC lookups are memoized per TableSet (TableSet.memo): per purpose
and (src, dst) pair, a dict keyed (n_wires, slew_in).  In that mode every
chained slew is a table slew_out cell and every relaunch slew is the clock
slew, so the keys come from a finite set and the memo stays bounded by the
tables, shared by every analysis and synthesis candidate in a process.  A
chain's first lookup, from the caller's launch slew, reads the memo only
when that slew is the clock slew.  INTERPOLATE and EXACT chain continuous
slews that rarely repeat; they look up directly.

Each analyze_link call walks the link's tokens once (grammar.walk_link),
collecting the segments and the clock-buffer tokens together, and runs the
clock model once, per distinct stage length rather than per token: it
yields the NOMINAL delay of each clock stage.  A clock stage is late past
golden.max_clock_run(T) unbuffered slots; that limit is sought, and the stage
spans built in token order, only when the longest stage is late.

Paths are judged in two steps, and synthesis shares both.  flop_paths turns
the chained stages into one record per flop-to-flop path: (span in tokens,
skew, t_su, t_h, delay_max, delay_min, SLEW_RANGE findings as (token
offset, n_wires, slew_out)), delays summed from 0.0 in segment order.  The
skew, capture latency less launch latency, sums the path's own NOMINAL
clock-stage delays from 0.0 in token order, each negated when the clock
enters at the far end.  Positions count from the path's launch token, so a
record holds all its verdict needs.  judge_paths lays records end to end
from a given launch token, so a record judged alone at its own launch token
gives the findings it has inside any longer run of records.  meets_setup and
meets_hold give its SETUP and HOLD verdicts alone, for synthesis's probe that
stops a path as soon as its verdict is known.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from enum import Enum
from itertools import accumulate
from operator import attrgetter, sub
from typing import NamedTuple

# table_lookup and reconstruct_lookup stay importable from here; perfbench's
# tracer wraps them under these names.
from .characterize import (LookupMode, LookupPurpose, TableSet, check_tables,
                           reconstruct_lookup, table_lookup, view_lookup)
from .golden import (Corner, PathResult, StageResult, clock_buffer_indices,
                     clock_stage_delay, clock_stage_delays, clock_stage_fits,
                     max_clock_run)
from .grammar import (Frozen, LinkSentence, Segment, Step, segment_decompose,
                      serialize_link, walk_link)
from .techlib import (ACTIVE_KINDS, BlockKind, ClockSpec, TechConfig,
                      block_params)

# (span in tokens, skew, t_su, t_h, delay_max, delay_min, ((token offset,
#  n_wires, slew_out) per SLEW_RANGE finding)); the skew is the path's own
#  NOMINAL clock-stage delays summed from 0.0 in token order, each negated
#  when the clock enters at the far end; see flop_paths
FlopPath = tuple[int, float, float, float, float, float, tuple]


class PathDirection(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


class ViolationKind(Enum):
    SETUP = "SETUP"
    HOLD = "HOLD"
    SLEW_RANGE = "SLEW_RANGE"
    COMB_GT_PERIOD = "COMB_GT_PERIOD"
    CLOCK_UNBUFFERED_GT_HALF_PERIOD = "CLOCK_UNBUFFERED_GT_HALF_PERIOD"


class Violation(NamedTuple):
    kind: ViolationKind
    location: str
    detail: str


class PathCheck(NamedTuple):
    launch_index: int
    capture_index: int
    path_delay_max: float
    path_delay_min: float
    skew: float
    setup_slack: float
    hold_slack: float

    @property
    def direction(self) -> PathDirection:
        return PathDirection.FORWARD if self.skew >= 0.0 else PathDirection.BACKWARD


class TimingReport(Frozen):
    __slots__ = ("link", "mode", "clock", "setup_stages", "hold_stages", "paths", "violations")

    def __init__(self, link: LinkSentence, mode: LookupMode, clock: ClockSpec,
                 setup_stages: tuple[StageResult, ...], hold_stages: tuple[StageResult, ...],
                 paths: tuple[PathCheck, ...], violations: tuple[Violation, ...]):
        self._set(link, mode, clock, setup_stages, hold_stages, paths, violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def segments(self) -> tuple[Segment, ...]:
        return tuple(segment_decompose(self.link))

    @property
    def clamped(self) -> bool:
        """Whether any lookup of either pass clamped its input slew."""
        return any(st.clamped for st in self.setup_stages + self.hold_stages)


def setup_check(period: float, jitter: float, skew: float,
                path_delay_max: float, t_su: float) -> float:
    """Setup slack; positive skew stretches the effective period."""
    return (period - jitter) + skew - (path_delay_max + t_su)


def hold_check(path_delay_min: float, skew: float, t_h: float,
               jitter: float = 0.0) -> float:
    """Hold slack; jitter is common-path by default (pass it to include)."""
    return path_delay_min - skew - t_h - jitter


def meets_setup(clk: ClockSpec, skew: float, path_delay_max: float, t_su: float) -> bool:
    """Whether judge_paths finds no SETUP violation on such a path."""
    return not setup_check(clk.period, clk.jitter, skew, path_delay_max, t_su) < 0.0


def meets_hold(path_delay_min: float, skew: float, t_h: float) -> bool:
    """Whether judge_paths finds no HOLD violation on such a path."""
    return not hold_check(path_delay_min, skew, t_h) < 0.0


def slew_violation(at: int, n_wires: int, slew_out: float,
                   slew_max: float) -> Violation:
    """SLEW_RANGE finding of the segment from token at over n_wires wires."""
    return Violation(ViolationKind.SLEW_RANGE, f"segment {at}->{at + n_wires + 1}",
                     f"slew {slew_out:.6g} exceeds legal max {slew_max:.6g}")


def path_violations(launch: int, capture: int, setup_slack: float,
                    hold_slack: float, delay_max: float,
                    period: float) -> list[Violation]:
    """SETUP, HOLD and COMB_GT_PERIOD findings of one flop-to-flop path, in that order."""
    loc = f"path {launch}->{capture}"
    found = []
    if setup_slack < 0.0:
        found.append(Violation(ViolationKind.SETUP, loc, f"setup slack {setup_slack:.6g}"))
    if hold_slack < 0.0:
        found.append(Violation(ViolationKind.HOLD, loc, f"hold slack {hold_slack:.6g}"))
    if delay_max > period:
        found.append(Violation(
            ViolationKind.COMB_GT_PERIOD, loc,
            f"combinational delay {delay_max:.6g} > period {period:.6g}"))
    return found


def flop_paths(steps: list[Step], setup: list[StageResult], hold: list[StageResult],
               stage_delays: list[float], cfg: TechConfig) -> list[FlopPath]:
    """The flop-to-flop path records of chained stages, one per R or S capture.

    steps are walk_link's, setup and hold the passes' stages over them, and
    stage_delays the signed clock-stage delays, in token order.
    """
    params = [block_params(cfg, kind) for kind in ACTIVE_KINDS]
    buffer = ACTIVE_KINDS.index(BlockKind.B)
    slew_max = cfg.slew_legal_max
    paths = []
    launch, stage, d_max, d_min, skew, slews = 0, 0, 0.0, 0.0, 0.0, ()
    for (_, dst, n_wires, _, at, dst_buffer), smax, smin in zip(steps, setup, hold):
        if smax.slew_out > slew_max:
            slews += ((at - launch, n_wires, smax.slew_out),)
        d_max += smax.delay
        d_min += smin.delay
        while stage < dst_buffer:  # the clock stages up to the segment's end
            skew += stage_delays[stage]
            stage += 1
        if dst == buffer:  # a flop-to-flop path closes at R or S
            continue
        capture = at + n_wires + 1
        q = params[dst]
        paths.append((capture - launch, skew, q.t_su, q.t_h, d_max, d_min, slews))
        launch, d_max, d_min, skew, slews = capture, 0.0, 0.0, 0.0, ()
    return paths


def judge_paths(paths: Iterable[FlopPath], clk: ClockSpec, slew_max: float,
                launch: int = 0) -> tuple[list[tuple], list[Violation], list[Violation]]:
    """Path checks and findings of path records laid end to end from token launch.

    A check is a plain tuple of PathCheck's fields.  The findings come as two
    lists: every SLEW_RANGE, and each path's SETUP, HOLD and COMB_GT_PERIOD
    in path order.
    """
    period, jitter = clk.period, clk.jitter
    checks, slews, found = [], [], []
    for span, skew, t_su, t_h, d_max, d_min, path_slews in paths:
        for at, n_wires, slew_out in path_slews:
            slews.append(slew_violation(launch + at, n_wires, slew_out, slew_max))
        capture = launch + span
        s_slack = setup_check(period, jitter, skew, d_max, t_su)
        h_slack = hold_check(d_min, skew, t_h)
        checks.append((launch, capture, d_max, d_min, skew, s_slack, h_slack))
        if s_slack < 0.0 or h_slack < 0.0 or d_max > period:
            found += path_violations(launch, capture, s_slack, h_slack, d_max, period)
        launch = capture
    return checks, slews, found


def clock_slew(cfg: TechConfig) -> float:
    """Slew at any clock-buffer output; buffers restore the edge."""
    return block_params(cfg, BlockKind.B).cb_s0


def _chain(steps: list, ts: TableSet, mode: LookupMode, purpose: LookupPurpose,
           launch_slew: float,
           relaunch_slew: float | None = None) -> list[StageResult]:
    """Chain one table lookup per segment, slew feeding forward.

    The first segment starts from launch_slew.  Given relaunch_slew, a later
    segment with a sequential (R or S) source starts from it instead: the path
    relaunches from the clock edge.  In EXACT mode chained slews, which drift
    off the grid, are served by the quantization-free table reconstruction.

    In PESSIMISTIC mode every lookup reads through ts.memo, keyed (n_wires,
    slew_in) per purpose and pair, except a first one whose launch_slew
    differs from relaunch_slew (the clock slew).  Each slew read is then a table
    slew_out cell or the clock slew, so at most K * (9 * L * K + 1) keys per
    pair and purpose arise.  Errors are not stored, so they raise on every
    call.  INTERPOLATE and EXACT slews are continuous and seldom repeat, so
    those modes look up directly.
    """
    views = ts.views[purpose]
    memo = ts.memo[purpose] if mode is LookupMode.PESSIMISTIC else None
    reconstruct = mode is LookupMode.EXACT
    stages = []
    slew = launch_slew
    chained = False
    for src, dst, n_wires, sequential, _, _ in steps:
        if chained and sequential and relaunch_slew is not None:
            slew, chained = relaunch_slew, False
        if memo is not None and (stages or slew == relaunch_slew):
            cell, key = memo[src][dst], (n_wires, slew)
            stage = cell.get(key)
            if stage is None:
                stage = cell[key] = view_lookup(views[src][dst], n_wires, slew,
                                                mode, purpose)
        else:
            stage = view_lookup(views[src][dst], n_wires, slew, mode, purpose,
                                chained and reconstruct)
        stages.append(stage)
        slew = stage.slew_out
        chained = True
    return stages


def analyze_path(link: LinkSentence, ts: TableSet, launch_slew: float,
                 mode: LookupMode, purpose: LookupPurpose) -> PathResult:
    """Chain table lookups over all segments, slew feeding forward.

    This is the table-side mirror of the golden path analysis: no relaunch at
    registers, one lookup per segment.  In EXACT mode the launch slew must be
    a grid row; chained slews that drift off the grid are served by the
    quantization-free table reconstruction.
    """
    stages = _chain(walk_link(link)[0], ts, mode, purpose, launch_slew)
    return PathResult(stages=tuple(stages),
                      arrivals=tuple(accumulate(map(attrgetter("delay"), stages))))


def _clock_violations(buffers: list[int], longest: int, cfg: TechConfig,
                      clk: ClockSpec) -> list[Violation]:
    """CLOCK_UNBUFFERED violations of a link's clock stages, in token order.

    buffers are the link's clock-buffer tokens in token order, longest their
    greatest gap.  A stage spanning n tokens is late when n - 1 > max_clock_run(T),
    taken as -1 when even zero slots reach T/2; it is not sought when the longest fits.
    """
    if clock_stage_fits(longest - 1, cfg, clk.period):
        return []
    limit = max_clock_run(cfg, clk.period) if clock_stage_fits(0, cfg, clk.period) else -1
    return [Violation(ViolationKind.CLOCK_UNBUFFERED_GT_HALF_PERIOD,
                      f"tokens {a}..{b}",
                      f"clock stage delay {clock_stage_delay(b - a - 1, cfg, Corner.MAX):.6g}"
                      f" >= T/2 = {clk.period / 2.0:.6g}")
            for a, b in zip(buffers, buffers[1:]) if b - a - 1 > limit]


def clock_check(link: LinkSentence, cfg: TechConfig,
                clk: ClockSpec) -> list[Violation]:
    """Flag every clock stage whose MAX-corner delay reaches half the period."""
    buffers = clock_buffer_indices(link)
    return _clock_violations(buffers, max(map(sub, buffers[1:], buffers)), cfg, clk)


def analyze_link(link: LinkSentence, ts: TableSet, cfg: TechConfig,
                 clk: ClockSpec, mode: LookupMode = LookupMode.PESSIMISTIC,
                 clock_entry: int = 0,
                 launch_slew: float | None = None) -> TimingReport:
    """Full link timing: segment lookups, clock stages, path checks, violations."""
    check_tables(ts, cfg)
    steps, buffers = walk_link(link)
    cs = clock_slew(cfg)
    # the link starts with S, so without a launch slew it launches from the clock
    first_slew = cs if launch_slew is None else launch_slew
    setup_stages = _chain(steps, ts, mode, LookupPurpose.SETUP_MAX, first_slew,
                          relaunch_slew=cs)
    hold_stages = _chain(steps, ts, mode, LookupPurpose.HOLD_MIN, first_slew,
                         relaunch_slew=cs)
    delay_of = clock_stage_delays(buffers, cfg, Corner.NOMINAL, clock_entry)
    signed = {n: -d for n, d in delay_of.items()} if clock_entry else delay_of
    paths = flop_paths(steps, setup_stages, hold_stages,
                       list(map(signed.__getitem__, map(sub, buffers[1:], buffers))), cfg)
    checks, slews, found = judge_paths(paths, clk, cfg.slew_legal_max)
    violations = slews + found + _clock_violations(buffers, max(delay_of), cfg, clk)
    return TimingReport(
        link=link, mode=mode, clock=clk, setup_stages=tuple(setup_stages),
        hold_stages=tuple(hold_stages), paths=tuple(map(PathCheck._make, checks)),
        violations=tuple(violations))


def link_digest(link: LinkSentence) -> str:
    return hashlib.sha256(serialize_link(link).encode()).hexdigest()[:16]


def render_report(report: TimingReport) -> str:
    """Plain-text report with machine-readable CSV blocks."""
    clk = report.clock
    out = [
        f"link {link_digest(report.link)} tokens={len(report.link)} "
        f"mode={report.mode.value} T={clk.period:.6g} jitter={clk.jitter:.6g}",
        f"lookups setup={len(report.setup_stages)} "
        f"hold={len(report.hold_stages)} clamped={int(report.clamped)}",
        "",
        "seg_index,src,dst,n_wires,slew_in,delay_max,delay_min,slew_out",
    ]
    for j, (seg, smax, smin) in enumerate(zip(report.segments,
                                              report.setup_stages,
                                              report.hold_stages)):
        # slew_in column reports the setup-pass chained value
        prev = report.setup_stages[j - 1].slew_out if j else None
        out.append(f"{j},{seg.src_kind},{seg.dst_kind},{seg.n_wires},"
                   f"{'' if prev is None else format(prev, '.6g')},"
                   f"{smax.delay:.6g},{smin.delay:.6g},{smax.slew_out:.6g}")
    out.append("")
    out.append("launch,capture,skew,setup_slack,hold_slack,direction")
    for p in report.paths:
        out.append(f"{p.launch_index},{p.capture_index},{p.skew:.6g},"
                   f"{p.setup_slack:.6g},{p.hold_slack:.6g},{p.direction.value}")
    out.append("")
    out.append("kind,location,detail")
    for v in report.violations:
        out.append(f"{v.kind.value},{v.location},{v.detail}")
    return "\n".join(out) + "\n"
