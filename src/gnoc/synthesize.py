"""Minimal-cost link synthesis by staged buffer and register insertion.

Candidates start as all plain wire; buffers are added one at a time, evenly
placed, and when no all-wire/buffer mix can close timing the search switches
to registers (again evenly placed), re-buffering each registered sub-run.
The first valid candidate under this schedule is the cheapest even-placement
solution: register count first, then total buffer count.  Clock-buffer
sub-types are assigned afterwards by a greedy half-period rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .characterize import LookupMode, TableSet
from .errors import ClockUnsatisfiable, GnocError, SegmentTooLong, SlewOutOfRange
from .golden import Corner, clock_stage_delay
from .grammar import LinkSentence, serialize_link
from .hasta import analyze_link
from .techlib import (ACTIVE_KINDS, CB_SUBTYPE, DEFAULT_SUBTYPE, BlockKind,
                      ClockSpec, TechConfig)


@dataclass(frozen=True)
class LinkSpec:
    """What a link must achieve: its span in pitch slots and target clock."""

    length_slots: int
    period: float
    jitter: float = 0.0
    name: str = "link"

    def __post_init__(self):
        if self.length_slots < 1:
            raise GnocError(f"length_slots must be >= 1, got {self.length_slots}")
        self.clock  # ClockSpec checks period > jitter >= 0

    @property
    def clock(self) -> ClockSpec:
        return ClockSpec(period=self.period, jitter=self.jitter)


@dataclass(frozen=True)
class SynthesisResult:
    link: LinkSentence | None
    cost: float
    counts: tuple[int, int, int]   # (#W, #B, #R) over interior slots
    iterations: int
    valid: bool
    reasons: tuple[str, ...] = ()
    log: tuple[str, ...] = ()


def insert_evenly(M: int, n: int) -> list[int]:
    """Evenly spread n block positions over M slots (1-based slot indices)."""
    if not 0 <= n <= M:
        raise GnocError(f"cannot place {n} blocks in {M} slots")
    return [int(math.floor(i * (M + 1) / (n + 1) + 0.5)) for i in range(1, n + 1)]


def link_cost(link: LinkSentence, cfg: TechConfig) -> float:
    """Total area in pitch units; the clock-buffered wire pays a surcharge."""
    total = 0.0
    for kind, sub in link.tokens:
        total += cfg.area_cost[kind]
        if sub.clock_buffered:
            total += cfg.cb_surcharge
    return total


def max_clock_run(cfg: TechConfig, period: float) -> int:
    """Largest unbuffered slot count a clock stage tolerates at MAX corner.

    Raises ClockUnsatisfiable when even back-to-back buffers (zero slots)
    breach the half-period bound.
    """
    half = period / 2.0
    if clock_stage_delay(0, cfg, Corner.MAX) >= half:
        raise ClockUnsatisfiable(
            f"clock stage with zero unbuffered slots already >= T/2 = {half:.6g}")
    n = 0
    while clock_stage_delay(n + 1, cfg, Corner.MAX) < half:
        n += 1
    return n


def assign_clock_subtypes(link: LinkSentence, spec: LinkSpec,
                          cfg: TechConfig) -> LinkSentence:
    """Promote the fewest W tokens to W.cb so every clock stage fits in T/2.

    Greedy left-to-right: runs of unbuffered slots grow until one more slot
    would breach the half-period bound, then the current wire takes a clock
    buffer.  Existing .cb tags are discarded and re-derived.
    """
    return _promote_clock_buffers(link, max_clock_run(cfg, spec.period))


def _promote_clock_buffers(link: LinkSentence, limit: int) -> LinkSentence:
    """assign_clock_subtypes for a known max_clock_run limit."""
    tokens = []
    run = 0
    for kind, sub in link.tokens:
        if kind in ACTIVE_KINDS:
            tokens.append((kind, sub))
            run = 0
        elif run + 1 > limit:
            tokens.append((kind, CB_SUBTYPE))
            run = 0
        else:
            tokens.append((kind, DEFAULT_SUBTYPE))
            run += 1
    return LinkSentence(tuple(tokens))


def is_valid(link: LinkSentence, spec: LinkSpec, ts: TableSet,
             cfg: TechConfig) -> tuple[bool, list[str]]:
    """Pessimistic-mode validity: no timing, slew, or clock violations."""
    if len(link) != spec.length_slots + 2:
        return False, [f"token count {len(link)} does not match "
                       f"{spec.length_slots} slots"]
    try:
        report = analyze_link(link, ts, cfg, spec.clock,
                              mode=LookupMode.PESSIMISTIC)
    except (SegmentTooLong, SlewOutOfRange) as exc:
        return False, [f"{type(exc).__name__}: {exc}"]
    if report.violations:
        return False, [f"{v.kind.value} at {v.location}: {v.detail}"
                       for v in report.violations]
    return True, []


def _interior(M: int, reg_pos: list[int], buf_pos: set[int]) -> list[BlockKind]:
    regs = set(reg_pos)
    out = []
    for slot in range(1, M + 1):
        if slot in regs:
            out.append(BlockKind.R)
        elif slot in buf_pos:
            out.append(BlockKind.B)
        else:
            out.append(BlockKind.W)
    return out


def _assemble(M: int, reg_pos: list[int], budgets: tuple[int, ...]) -> LinkSentence:
    """Build S <interior> S with registers at reg_pos and per-sub-run buffers."""
    bounds = [0] + reg_pos + [M + 1]
    buf_pos: set[int] = set()
    for j, b in enumerate(budgets):
        lo, hi = bounds[j], bounds[j + 1]
        for p in insert_evenly(hi - lo - 1, b):
            buf_pos.add(lo + p)
    interior = _interior(M, reg_pos, buf_pos)
    tokens = ([(BlockKind.S, DEFAULT_SUBTYPE)]
              + [(k, DEFAULT_SUBTYPE) for k in interior]
              + [(BlockKind.S, DEFAULT_SUBTYPE)])
    return LinkSentence(tuple(tokens))


def _budget_vectors(bounds: list[int], minima: list[int]):
    """Yield buffer-count vectors in increasing total order, lexicographic within."""
    lo = sum(minima)
    hi = sum(bounds)
    for total in range(lo, hi + 1):
        yield from _compositions(total, bounds, minima, 0)


def _compositions(total, bounds, minima, j):
    if j == len(bounds) - 1:
        if minima[j] <= total <= bounds[j]:
            yield (total,)
        return
    rest_min = sum(minima[j + 1:])
    rest_max = sum(bounds[j + 1:])
    for b in range(max(minima[j], total - rest_max),
                   min(bounds[j], total - rest_min) + 1):
        for tail in _compositions(total - b, bounds, minima, j + 1):
            yield (b,) + tail


def _min_buffers_for_gap(m: int, K: int) -> int:
    """Fewest evenly-placed buffers so no segment exceeds K-1 intervening wires.

    b buffers split m wires into b + 1 runs of at most ceil((m - b) / (b + 1))
    wires, which is at most K - 1 exactly when b + 1 >= (m + 1) / K.
    """
    return -(-(m + 1) // K) - 1


def synthesize_link(spec: LinkSpec, ts: TableSet, cfg: TechConfig) -> SynthesisResult:
    """Search the (registers, buffers) schedule for the first valid candidate."""
    M = spec.length_slots
    iterations = 0
    log: list[str] = []
    last_reasons: list[str] = ["no candidate attempted"]
    # the limit depends only on the period, so it is found once per spec;
    # when it does not exist, every candidate is refused for that reason
    try:
        limit, unsatisfiable = max_clock_run(cfg, spec.period), None
    except ClockUnsatisfiable as exc:
        limit, unsatisfiable = 0, f"ClockUnsatisfiable: {exc}"

    for r in range(0, M + 1):
        reg_pos = insert_evenly(M, r)
        bounds = [0] + reg_pos + [M + 1]
        sub_lens = [hi - lo - 1 for lo, hi in zip(bounds, bounds[1:])]
        minima = [_min_buffers_for_gap(m, ts.K) for m in sub_lens]
        for budgets in _budget_vectors(sub_lens, minima):
            candidate = _assemble(M, reg_pos, budgets)
            iterations += 1
            if unsatisfiable is not None:
                last_reasons = [unsatisfiable]
                log.append(f"{serialize_link(candidate)} -> {unsatisfiable}")
                continue
            candidate = _promote_clock_buffers(candidate, limit)
            ok, reasons = is_valid(candidate, spec, ts, cfg)
            if ok:
                kinds = candidate.kinds()[1:-1]
                counts = (sum(k is BlockKind.W for k in kinds),
                          sum(k is BlockKind.B for k in kinds),
                          sum(k is BlockKind.R for k in kinds))
                log.append(f"{serialize_link(candidate)} -> valid")
                return SynthesisResult(link=candidate,
                                       cost=link_cost(candidate, cfg),
                                       counts=counts, iterations=iterations,
                                       valid=True, log=tuple(log))
            last_reasons = reasons
            log.append(f"{serialize_link(candidate)} -> {'; '.join(reasons)}")

    return SynthesisResult(link=None, cost=math.inf, counts=(0, 0, 0),
                           iterations=iterations, valid=False,
                           reasons=tuple(last_reasons), log=tuple(log))
