"""Open-loop request generation from one thread.

Request i is due at ``t0 + i / rate`` whatever happened before it. The
generator sleeps until a request is due, or sends it at once when it is
already late. Latency is measured from the due time, so a stall also
charges the wait it imposes on every later request; the generator's
lateness (start minus due) is recorded beside it.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class OpenLoopResult:
    rate: float
    due: list = field(default_factory=list)
    start: list = field(default_factory=list)
    end: list = field(default_factory=list)
    ok: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.due)

    @property
    def latency(self) -> list:
        """Seconds from due to completion; a failed request never completes."""
        return [e - d if ok else float("inf")
                for d, e, ok in zip(self.due, self.end, self.ok)]

    @property
    def lateness(self) -> list:
        return [s - d for d, s in zip(self.due, self.start)]

    @property
    def service(self) -> list:
        return [e - s for s, e in zip(self.start, self.end)]

    @property
    def achieved_rate(self) -> float:
        """Requests completed per second over the interval the schedule spans."""
        span = self.end[-1] - self.due[0]
        return len(self) / span if span > 0 else float("inf")


def run_open_loop(n: int, rate: float, op, clock=time.perf_counter,
                  sleep=time.sleep) -> OpenLoopResult:
    """Issue ``op(i)`` for i in range(n) at a fixed rate.

    ``op`` returns True on success; a raised exception propagates, so callers
    that count failures catch inside ``op``.
    """
    if n < 1 or rate <= 0:
        raise ValueError("need n >= 1 and a positive rate")
    res = OpenLoopResult(rate=rate)
    period = 1.0 / rate
    t0 = clock()
    for i in range(n):
        due = t0 + i * period
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        ok = op(i)
        res.due.append(due)
        res.start.append(now)
        res.end.append(clock())
        res.ok.append(bool(ok))
    return res


def keeps_up(results: list, tolerance: float = 0.1) -> bool:
    """True unless a backlog grows: completions must keep within ``tolerance``
    of the offered rate over all the results' schedules together.

    A system that cannot keep up completes requests at its own capacity, so
    its achieved rate falls ever further below the offered one; a passing
    stall only dents it, and pooling several schedules dilutes the dent.
    """
    n = sum(len(r) for r in results)
    span = sum(r.end[-1] - r.due[0] for r in results)
    rate = results[0].rate
    return n / span >= (1.0 - tolerance) * rate if span > 0 else True
