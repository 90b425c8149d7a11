"""Analytical delay/slew oracle used as the characterization ground truth.

Wire delay follows a discrete uniform RC ladder (Elmore), block delay is
linear in input slew and load, and output slew combines the driver slew with
wire degradation in quadrature.  Deterministic and corner-derated, so it
doubles as the reference when validating table-based analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import InvalidValue
from .grammar import LinkSentence, segment_decompose
from .techlib import ACTIVE_KINDS, BlockKind, TechConfig, block_params


class Corner(Enum):
    MIN = "min"
    NOMINAL = "nominal"
    MAX = "max"


def derate(cfg: TechConfig, corner: Corner) -> float:
    if corner is Corner.MIN:
        return cfg.derate_min
    if corner is Corner.MAX:
        return cfg.derate_max
    return 1.0


class StageResult(NamedTuple):
    """Delay through one segment and the slew at the destination input pin."""

    delay: float
    slew_out: float
    clamped: bool = False  # input slew was below the table grid (lookup paths only)


def elmore_wire_delay(n: int, r_w: float, c_w: float,
                      r_drv: float, c_load: float) -> float:
    """Elmore delay of a driver plus n identical RC slots into c_load."""
    if n < 0:
        raise InvalidValue(f"slot count must be >= 0, got {n}")
    return r_drv * (n * c_w + c_load) + r_w * c_w * n * (n + 1) / 2 + r_w * n * c_load


def golden_segment(src: BlockKind, dst: BlockKind, n_wires: int, slew_in: float,
                   corner: Corner, cfg: TechConfig) -> StageResult:
    """Exact delay/slew of one segment: src block driving n_wires slots into dst."""
    if src not in ACTIVE_KINDS or dst not in ACTIVE_KINDS:
        raise InvalidValue(f"segment endpoints must be active, got {src}->{dst}")
    if n_wires < 0:
        raise InvalidValue(f"n_wires must be >= 0, got {n_wires}")
    p = block_params(cfg, src)
    q = block_params(cfg, dst)
    # Registers launch from the clock edge: intrinsic delay is clock-to-output.
    d0 = p.d_cq if src is BlockKind.R else p.d0
    c_tot = n_wires * cfg.pitch_c + q.c_in
    d_wire = (cfg.pitch_r * cfg.pitch_c * n_wires * (n_wires + 1) / 2
              + cfg.pitch_r * n_wires * q.c_in)
    delay = derate(cfg, corner) * (d0 + p.k_sl * slew_in + p.r_drv * c_tot + d_wire)
    s_drv = p.s0 + p.k_sin * slew_in + p.k_sload * c_tot
    slew_out = math.hypot(s_drv, cfg.beta * d_wire)
    return StageResult(delay=delay, slew_out=slew_out)


@dataclass(frozen=True)
class PathResult:
    """A chained path analysis, from the oracle or from the tables."""

    stages: tuple[StageResult, ...]
    arrivals: tuple[float, ...]   # cumulative delay at each active block after the first

    @property
    def total_delay(self) -> float:
        return self.arrivals[-1] if self.arrivals else 0.0

    @property
    def lookup_count(self) -> int:
        return len(self.stages)

    @property
    def clamped(self) -> bool:
        """Whether any table lookup clamped its input slew (never for the oracle)."""
        return any(st.clamped for st in self.stages)


def golden_path_analyze(link: LinkSentence, launch_slew: float, corner: Corner,
                        cfg: TechConfig) -> PathResult:
    """Chain golden_segment over the link's segments, slew feeding forward."""
    stages = []
    arrivals = []
    slew = launch_slew
    total = 0.0
    for seg in segment_decompose(link):
        res = golden_segment(seg.src_kind, seg.dst_kind, seg.n_wires, slew, corner, cfg)
        stages.append(res)
        total += res.delay
        arrivals.append(total)
        slew = res.slew_out
    return PathResult(stages=tuple(stages), arrivals=tuple(arrivals))


@dataclass(frozen=True)
class ClockResult:
    latencies: tuple[float, ...]      # per token, at its governing clock buffer
    stage_delays: tuple[float, ...]   # between consecutive clock buffers
    stage_spans: tuple[tuple[int, int], ...]  # (buffer token, next buffer token)


def clock_buffer_indices(link: LinkSentence) -> list[int]:
    """Tokens carrying a clock buffer: every active block plus every W.cb."""
    wire = BlockKind.W
    return [i for i, (kind, sub) in enumerate(link.tokens)
            if kind is not wire or sub.clock_buffered]


def clock_stage_delay(n: int, cfg: TechConfig, corner: Corner) -> float:
    """Delay of one clock stage: buffer plus n unbuffered slots to the next buffer."""
    p = block_params(cfg, BlockKind.B)  # cb_* fields are shared across kinds
    wire = elmore_wire_delay(n, cfg.pitch_r, cfg.pitch_c, p.cb_r_drv, p.cb_c_in)
    return derate(cfg, corner) * (p.cb_d0 + wire)


def golden_clock_analyze(link: LinkSentence, cfg: TechConfig, corner: Corner,
                         entry_index: int = 0) -> ClockResult:
    """Clock latency at every token, for a clock entering at either link end.

    entry_index 0 enters at the first token, len(link) - 1 at the last; the
    buffers are then taken in reverse order.  A token's latency is the arrival
    at its governing buffer, the last buffer at or before it in propagation
    order: the sum of the stage delays before that buffer (zero at the entry).
    A stage's delay depends only on its wire count; each count is evaluated once.
    """
    buffers = clock_buffer_indices(link)
    gaps = [b - a - 1 for a, b in zip(buffers, buffers[1:])]  # wires per stage
    far = entry_index == len(link) - 1
    if far:
        buffers.reverse()
        gaps.reverse()
    elif entry_index != 0:
        raise ValueError(f"clock must enter at a link end, got token {entry_index}")

    delay_of = {g: clock_stage_delay(g, cfg, corner) for g in set(gaps)}
    stage_delays = tuple(map(delay_of.__getitem__, gaps))
    latencies = []  # in propagation order
    lat = 0.0
    for g, d in zip(gaps, stage_delays):
        latencies += [lat] * (g + 1)  # the stage's buffer and its wires
        lat += d
    latencies.append(lat)
    if far:
        latencies.reverse()
    return ClockResult(latencies=tuple(latencies), stage_delays=stage_delays,
                       stage_spans=tuple(zip(buffers, buffers[1:])))
