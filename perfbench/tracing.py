"""Spans around gnoc's public functions, recorded from the benchmark's side.

A name bound by ``from .x import y`` lives in the importing module, so each
function is wrapped in every module that calls it (for example
``gnoc.hasta.table_lookup`` and ``gnoc.synthesize.analyze_link``), and
``TechConfig.digest`` on the class.  A span is (name, start, end, parent,
size); spans stay in flat arrays in memory and are written once, at the end.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
from array import array
from collections import defaultdict
from time import perf_counter

from gnoc import characterize, cli, dse, golden, grammar, hasta, synthesize, techlib
from gnoc.techlib import BlockKind


def _segments_in(args, kwargs, result):
    link = args[0]
    return sum(1 for kind, _ in link.tokens if kind is not BlockKind.W) - 1


def _lookup_count(args, kwargs, result):
    return result.lookup_count


def _length(args, kwargs, result):
    return len(result)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.size = array("l")
        self._stack = [-1]
        self._restore: list = []
        self.counters: defaultdict = defaultdict(int)
        self._dse_seen: set = set()

    # -------------------------------------------------------------- recording

    def wrap(self, name, fn, sizer=None, after=None, before=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, start, end = self._stack, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            self.size.append(0)
            if before is not None:
                before(args, kwargs)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if sizer is not None:
                self.size[idx] = sizer(args, kwargs, result)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, **hooks):
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, **hooks))
        self._restore.append((owner, attr, original))

    def outermost(self) -> str:
        """Name of the outermost open span ('' outside any span)."""
        return self.names[self.name[self._stack[1]]] if len(self._stack) > 1 else ""

    def install(self):
        count = self.counters

        def clamped(args, kwargs, result):
            count["lookups"] += 1
            count["clamped"] += result.clamped

        def synthesized(args, kwargs, result):
            # keyed by the outermost span, so a phase's totals can be compared
            # with the same phase run untraced
            phase = self.outermost()
            count[phase, "candidates"] += result.iterations
            count[phase, "valid"] += result.valid
            count[phase, "log_entries"] += len(result.log)

        def dse_start(args, kwargs):
            self._dse_seen.clear()

        def dse_spec(args, kwargs):
            spec = args[0]
            key = (spec.length_slots, spec.period, spec.jitter)
            count["dse.synth_calls"] += 1
            count["dse.repeat_specs"] += key in self._dse_seen
            self._dse_seen.add(key)

        for owner in (hasta, synthesize, cli):
            self.patch(owner, "analyze_link", "hasta.analyze_link", sizer=_segments_in)
        for owner in (hasta, cli):
            self.patch(owner, "analyze_path", "hasta.analyze_path", sizer=_lookup_count)
        for owner in (hasta, golden, grammar):
            self.patch(owner, "segment_decompose", "grammar.segment_decompose",
                       sizer=_length)
        for owner in (cli, grammar):
            self.patch(owner, "parse_link", "grammar.parse_link")
        for owner in (hasta, characterize):
            self.patch(owner, "table_lookup", "characterize.table_lookup", after=clamped)
        self.patch(hasta, "reconstruct_lookup", "characterize.reconstruct_lookup",
                   after=clamped)
        for attr in ("build_tables", "load_tables", "save_tables"):
            self.patch(characterize, attr, f"characterize.{attr}")
        for owner in (characterize, golden):
            self.patch(owner, "golden_segment", "golden.golden_segment")
        # synthesis only: max_clock_run loops over it once per candidate
        self.patch(synthesize, "clock_stage_delay", "golden.clock_stage_delay")
        self.patch(techlib.TechConfig, "digest", "techlib.digest")
        for owner in (cli, techlib):
            self.patch(owner, "load_tech_config", "techlib.load_tech_config")
        for owner in (synthesize, cli):
            self.patch(owner, "synthesize_link", "synthesize.synthesize_link",
                       after=synthesized)
        self.patch(dse, "synthesize_link", "synthesize.synthesize_link",
                   after=synthesized, before=dse_spec)
        self.patch(synthesize, "is_valid", "synthesize.is_valid")
        self.patch(synthesize, "assign_clock_subtypes", "synthesize.assign_clock_subtypes")
        self.patch(dse, "dse_loop", "dse.dse_loop", before=dse_start)
        self.patch(dse, "evaluate_candidate", "dse.evaluate_candidate")

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis

    def totals(self) -> dict:
        """name -> {"calls", "total_s", "self_s", "size"} over all spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
            row["size"] += self.size[i]
        return out

    def per_segment_us(self, name, parent_name, lo, hi) -> float:
        """Mean microseconds per segment of `name` spans under `parent_name`, size in [lo, hi]."""
        nid = self._ids[name]
        pid = self._ids.get(parent_name, -2)
        total, segments = 0.0, 0
        for i in range(len(self.start)):
            p = self.parent[i]
            if (self.name[i] == nid and p >= 0 and self.name[p] == pid
                    and lo <= self.size[i] <= hi):
                total += self.end[i] - self.start[i]
                segments += self.size[i]
        return 1e6 * total / segments if segments else float("nan")

    def write(self, path) -> None:
        """Write every span as TSV (id, parent, name, start_us, end_us, size)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_us\tend_us\tsize\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                         f"{(self.start[i] - t0) * 1e6:.3f}\t"
                         f"{(self.end[i] - t0) * 1e6:.3f}\t{self.size[i]}\n")
