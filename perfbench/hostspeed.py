"""Host-speed probe: a fixed pure-Python loop timed next to every operation.

On a host whose CPUs are shared with other tenants the speed of Python
code drifts; on the 2-CPU baseline host it moved by up to 1.7x over minutes
and by 30% within seconds.  The probe does the same kind of work as gnoc (object creation,
attribute access, small tuples, dict stores, float arithmetic) and never
calls gnoc.  ScaledClock probes right before and right after each timed
operation and scales the operation's time by REFERENCE_S over the mean of
the two, so a figure reads as time on a host whose probe takes REFERENCE_S.
A change to gnoc moves the scaled figures fully; a change of host speed
cancels.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 1.0e-3      # probe time the scaled figures refer to


class _Item:
    __slots__ = ("x", "pair")

    def __init__(self, x, pair):
        self.x = x
        self.pair = pair


def _probe_once() -> float:
    t0 = perf_counter()
    acc = 0.0
    table = {}
    for i in range(3000):
        item = _Item(i * 0.5, (i, i + 1))
        table[i & 63] = item
        acc += item.x * 1.0001 + len(item.pair)
    return perf_counter() - t0


class ScaledClock:
    """Scales each operation's time by the host speed measured around it.

    Call start() right before a series of operations and scaled(seconds)
    right after each one.
    """

    def __init__(self):
        self.probes: list[float] = []
        self._before = 0.0

    def _probe(self) -> float:
        # the faster of two back-to-back probes: one burst does not count
        p = min(_probe_once(), _probe_once())
        self.probes.append(p)
        return p

    def start(self) -> None:
        self._before = self._probe()

    def scaled(self, seconds: float) -> float:
        after = self._probe()
        speed = (self._before + after) / 2.0
        self._before = after
        return seconds * REFERENCE_S / speed
