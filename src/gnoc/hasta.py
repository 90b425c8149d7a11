"""Table-driven link timing analysis: one lookup per segment.

Data delays and slews come from the characterization tables (MAX corner for
the setup pass, MIN for the hold pass); clock latencies and clock-stage delays
come from golden_clock_analyze, the oracle's closed-form clock model.
Flop-to-flop paths between consecutive R/S blocks get setup and hold slacks
with skew and jitter folded in, plus the four structural checks: slew
legality, combinational delay vs. the period, and clock-stage half-period
coverage.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate

# table_lookup and reconstruct_lookup stay importable from here; perfbench's
# tracer wraps them under these names.
from .characterize import (LookupMode, LookupPurpose, TableSet,
                           reconstruct_lookup, table_lookup, view_lookup)
from .errors import TableMismatch
from .golden import Corner, PathResult, StageResult, golden_clock_analyze
from .grammar import (LinkSentence, Segment, segment_decompose, segment_steps,
                      serialize_link)
from .techlib import (ACTIVE_KINDS, BlockKind, ClockSpec, TechConfig,
                      block_params)


class PathDirection(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


class ViolationKind(Enum):
    SETUP = "SETUP"
    HOLD = "HOLD"
    SLEW_RANGE = "SLEW_RANGE"
    COMB_GT_PERIOD = "COMB_GT_PERIOD"
    CLOCK_UNBUFFERED_GT_HALF_PERIOD = "CLOCK_UNBUFFERED_GT_HALF_PERIOD"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    location: str
    detail: str


@dataclass(frozen=True)
class PathCheck:
    launch_index: int
    capture_index: int
    path_delay_max: float
    path_delay_min: float
    skew: float
    setup_slack: float
    hold_slack: float
    direction: PathDirection


@dataclass(frozen=True)
class TimingReport:
    link: LinkSentence
    mode: LookupMode
    clock: ClockSpec
    setup_stages: tuple[StageResult, ...]
    hold_stages: tuple[StageResult, ...]
    paths: tuple[PathCheck, ...]
    violations: tuple[Violation, ...]

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
    """
    views = ts.views[purpose]
    reconstruct = mode is LookupMode.EXACT
    stages = []
    slew = launch_slew
    chained = False
    for src, dst, n_wires, sequential, _ in steps:
        if chained and sequential and relaunch_slew is not None:
            slew, chained = relaunch_slew, False
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
    stages = _chain(segment_steps(link), ts, mode, purpose, launch_slew)
    return PathResult(stages=tuple(stages),
                      arrivals=tuple(accumulate(st.delay for st in stages)))


def clock_check(link: LinkSentence, cfg: TechConfig,
                clk: ClockSpec) -> list[Violation]:
    """Flag every clock stage whose MAX-corner delay reaches half the period."""
    clock = golden_clock_analyze(link, cfg, Corner.MAX)
    out = []
    for (a, b), d in zip(clock.stage_spans, clock.stage_delays):
        if d >= clk.period / 2.0:
            out.append(Violation(
                ViolationKind.CLOCK_UNBUFFERED_GT_HALF_PERIOD,
                location=f"tokens {a}..{b}",
                detail=f"clock stage delay {d:.6g} >= T/2 = {clk.period / 2.0:.6g}"))
    return out


def analyze_link(link: LinkSentence, ts: TableSet, cfg: TechConfig,
                 clk: ClockSpec, mode: LookupMode = LookupMode.PESSIMISTIC,
                 clock_entry: int = 0,
                 launch_slew: float | None = None) -> TimingReport:
    """Full link timing: segment lookups, clock latencies, path checks, violations."""
    if ts.cfg_digest != cfg.digest():
        raise TableMismatch(f"tables built for cfg {ts.cfg_digest}, "
                            f"analysis cfg is {cfg.digest()}")
    steps = segment_steps(link)
    cs = clock_slew(cfg)
    # the link starts with S, so without a launch slew it launches from the clock
    first_slew = cs if launch_slew is None else launch_slew
    setup_stages = _chain(steps, ts, mode, LookupPurpose.SETUP_MAX, first_slew,
                          relaunch_slew=cs)
    hold_stages = _chain(steps, ts, mode, LookupPurpose.HOLD_MIN, first_slew,
                         relaunch_slew=cs)
    latencies = golden_clock_analyze(link, cfg, Corner.NOMINAL, clock_entry).latencies

    slew_violations = []
    path_violations = []
    paths = []
    buffer = ACTIVE_KINDS.index(BlockKind.B)
    launch, d_max, d_min = 0, 0.0, 0.0
    for (_, dst, n_wires, _, at), smax, smin in zip(steps, setup_stages,
                                                     hold_stages):
        capture = at + n_wires + 1
        if smax.slew_out > cfg.slew_legal_max:
            slew_violations.append(Violation(
                ViolationKind.SLEW_RANGE,
                location=f"segment {at}->{capture}",
                detail=f"slew {smax.slew_out:.6g} exceeds legal max "
                       f"{cfg.slew_legal_max:.6g}"))
        d_max += smax.delay
        d_min += smin.delay
        if dst == buffer:  # a flop-to-flop path closes at R or S
            continue
        skew = latencies[capture] - latencies[launch]
        q = block_params(cfg, ACTIVE_KINDS[dst])
        s_slack = setup_check(clk.period, clk.jitter, skew, d_max, q.t_su)
        h_slack = hold_check(d_min, skew, q.t_h)
        direction = (PathDirection.FORWARD if skew >= 0.0
                     else PathDirection.BACKWARD)
        paths.append(PathCheck(launch, capture, d_max, d_min, skew,
                               s_slack, h_slack, direction))
        loc = f"path {launch}->{capture}"
        if s_slack < 0.0:
            path_violations.append(Violation(ViolationKind.SETUP, loc,
                                             f"setup slack {s_slack:.6g}"))
        if h_slack < 0.0:
            path_violations.append(Violation(ViolationKind.HOLD, loc,
                                             f"hold slack {h_slack:.6g}"))
        if d_max > clk.period:
            path_violations.append(Violation(
                ViolationKind.COMB_GT_PERIOD, loc,
                detail=f"combinational delay {d_max:.6g} > period "
                       f"{clk.period:.6g}"))
        launch, d_max, d_min = capture, 0.0, 0.0
    violations = slew_violations + path_violations + clock_check(link, cfg, clk)

    return TimingReport(
        link=link, mode=mode, clock=clk, setup_stages=tuple(setup_stages),
        hold_stages=tuple(hold_stages), paths=tuple(paths),
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
