"""Chip-level design-space exploration: evaluate candidates, keep the cheapest.

A candidate is a set of synchronous islands with pre-characterized fixed
costs plus the link specs connecting them; its cost is the island total plus
the synthesized cost of every link.  The loop keeps the first strictly
cheapest valid candidate in stream order.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .characterize import TableSet
from .errors import GnocError, NoValidCandidate, ParseError
from .synthesize import LinkSpec, synthesize_link
from .techlib import TechConfig


class _CandidateFields(NamedTuple):
    name: str
    islands: tuple            # of (name, cost)
    links: tuple              # of LinkSpec


class Candidate(_CandidateFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        c = super().__new__(cls, *args, **kwargs)
        for iname, cost in c.islands:
            if not 0.0 <= cost < math.inf:  # NaN fails too, as in parse_candidates
                sign = "negative" if cost < 0.0 else "non-finite"
                raise GnocError(f"island {iname!r} has {sign} cost {cost}")
        names = [l.name for l in c.links]
        if len(set(names)) != len(names):
            raise GnocError(f"candidate {c.name!r} has duplicate link names")
        return c


class CandidateEval(NamedTuple):
    name: str
    valid: bool
    cost: float               # inf when invalid
    island_cost: float
    link_costs: tuple         # of (link name, cost)
    reasons: tuple = ()


class DseResult(NamedTuple):
    best_name: str
    best_cost: float
    ledger: tuple             # CandidateEval in stream order
    evaluated: int


def evaluate_candidate(c: Candidate, ts: TableSet,
                       cfg: TechConfig) -> CandidateEval:
    island_cost = sum(cost for _, cost in c.islands)
    link_costs = []
    reasons = []
    for spec in c.links:
        res = synthesize_link(spec, ts, cfg)
        if not res.valid:
            reasons.append(f"link {spec.name!r} unsynthesizable: "
                           f"{'; '.join(res.reasons)}")
            continue
        link_costs.append((spec.name, res.cost))
    total = math.inf if reasons else island_cost + sum(cost for _, cost in link_costs)
    return CandidateEval(c.name, valid=not reasons, cost=total, island_cost=island_cost,
                         link_costs=tuple(link_costs), reasons=tuple(reasons))


def dse_loop(candidates, ts: TableSet, cfg: TechConfig) -> DseResult:
    """Strict-improvement scan: a later candidate wins only if strictly cheaper."""
    ledger = []
    best_name = None
    best_cost = math.inf
    for c in candidates:
        ev = evaluate_candidate(c, ts, cfg)
        ledger.append(ev)
        if ev.valid and ev.cost < best_cost:
            best_name, best_cost = ev.name, ev.cost
    if not ledger:
        raise NoValidCandidate("empty candidate stream")
    if best_name is None:
        raise NoValidCandidate("every candidate is invalid")
    return DseResult(best_name=best_name, best_cost=best_cost,
                     ledger=tuple(ledger), evaluated=len(ledger))


def parse_candidates(text: str) -> list[Candidate]:
    """Parse the line-oriented candidate file format.

    ``candidate <name>`` opens a block closed by ``end``; inside,
    ``island <name> <cost>`` and ``link <name> <length> <period> [jitter]``.
    """
    out = []
    name = None
    islands: list = []
    links: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        kw = words[0]
        if kw == "candidate":
            if name is not None:
                raise ParseError(f"line {lineno}: nested candidate block")
            if len(words) != 2:
                raise ParseError(f"line {lineno}: expected 'candidate <name>'")
            name = words[1]
            islands, links = [], []
        elif kw == "island":
            if name is None:
                raise ParseError(f"line {lineno}: island outside candidate block")
            if len(words) != 3:
                raise ParseError(f"line {lineno}: expected 'island <name> <cost>'")
            cost = _num(words[2], lineno)
            if not 0.0 <= cost < math.inf:
                raise ParseError(f"line {lineno}: island cost must be finite "
                                 f"and >= 0, got {words[2]!r}")
            islands.append((words[1], cost))
        elif kw == "link":
            if name is None:
                raise ParseError(f"line {lineno}: link outside candidate block")
            if len(words) not in (4, 5):
                raise ParseError(f"line {lineno}: expected "
                                 f"'link <name> <length> <period> [jitter]'")
            length = _num(words[2], lineno)
            if not length.is_integer():  # NaN and inf are not either
                raise ParseError(f"line {lineno}: link length must be a whole "
                                 f"number, got {words[2]!r}")
            period = _num(words[3], lineno)
            jitter = _num(words[4], lineno) if len(words) == 5 else 0.0
            try:
                links.append(LinkSpec(name=words[1], length_slots=int(length),
                                      period=period, jitter=jitter))
            except GnocError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        elif kw == "end":
            if name is None:
                raise ParseError(f"line {lineno}: end outside candidate block")
            out.append(Candidate(name, tuple(islands), tuple(links)))
            name = None
        else:
            raise ParseError(f"line {lineno}: unknown keyword {kw!r}")
    if name is not None:
        raise ParseError(f"candidate {name!r} not closed by 'end'")
    return out


def _num(word: str, lineno: int) -> float:
    try:
        return float(word)
    except ValueError:
        raise ParseError(f"line {lineno}: not a number: {word!r}") from None


def random_candidates(seed: int, count: int, *,
                      islands_range=(1, 4), island_cost_range=(50.0, 500.0),
                      length_range=(2, 30), period_range=(60.0, 400.0)):
    """Seeded uniform candidate generator for stress runs."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        islands = tuple((f"isl{j}", round(rng.uniform(*island_cost_range), 1))
                        for j in range(rng.randint(*islands_range)))
        links = tuple(LinkSpec(name=f"lnk{j}",
                               length_slots=rng.randint(*length_range),
                               period=round(rng.uniform(*period_range), 1))
                      for j in range(rng.randint(1, 3)))
        out.append(Candidate(f"cand{i}", islands, links))
    return out
