"""Rescaling timings to a reference machine speed.

The small shared containers the benchmark runs on change speed by about
±20% within seconds and by up to 2x over minutes, through load outside
the container: process CPU time stretches as much as wall time, and no
time is reported stolen.  Medians within a run cannot remove a drift
that lasts longer than the run.  So while a run measures, a fixed
pure-Python reference loop is timed every ``PERIOD_S`` from a timer
signal (no thread), and each timed segment is multiplied by
``REFERENCE_S`` over the median reference time in and around it.
Timings are then reported as they would read on a machine that runs the
reference loop in ``REFERENCE_S``; the raw timings are printed beside
them.  The time spent in the reference loop is subtracted from the
segments it interrupts.  The loop shares no code or data with the
program.
"""

from __future__ import annotations

import bisect
import gc
import re
import signal
import statistics
import time
from array import array

#: Reference-loop time that defines the reported speed: about its
#: median on a shared 2-vCPU x86-64 container with Python 3.11.
REFERENCE_S = 0.0015

PERIOD_S = 0.25

_ATOM = re.compile(r"\(|\)|[^()\s]+")


def _reference_text() -> str:
    """A fixed bracketed text of 750 small nested nodes."""
    parts = []
    for i in range(150):
        parts.append(f"(S{i % 7} (N{i % 5} w{i}) (V{i % 3} (P x{i}) (Q y{i} z{i})))")
    return " ".join(parts)


_TEXT = _reference_text()


def _reference_loop() -> None:
    # Tokenise, build small dicts and tuples, walk them: the same mix of
    # allocation and dictionary work as the program, which is what the
    # machine's slow spells slow down most.  A pure arithmetic loop
    # tracks them far less closely.
    stack: list[list] = [[]]
    for atom in _ATOM.findall(_TEXT):
        if atom == "(":
            stack.append([])
        elif atom == ")":
            kids = stack.pop()
            stack[-1].append({"label": kids[0], "kids": tuple(kids[1:])})
        else:
            stack[-1].append(atom)
    counts: dict[str, int] = {}
    todo = list(stack[0])
    while todo:
        node = todo.pop()
        if isinstance(node, dict):
            counts[node["label"]] = counts.get(node["label"], 0) + 1
            todo.extend(node["kids"])


def reference_seconds() -> float:
    """Median of three timings of the reference loop, with the garbage
    collector off so that the program's heap does not enter into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _reference_loop()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Rescaler:
    """Reference timings taken on a timer while the context is active."""

    def __init__(self) -> None:
        self.at = array("d")  # when each reference timing was taken
        self.seconds = array("d")  # the reference timings
        self.spent = 0.0  # wall time spent taking them
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        seconds = reference_seconds()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.seconds.append(seconds)
        self.spent += t1 - t0

    def __enter__(self) -> "Rescaler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def factor(self, start: float, end: float) -> float:
        """Rescaling factor for a segment, from the reference timings
        taken within one period of it.  The mean, not the median: a long
        segment's duration adds up the fast and the slow spells alike."""
        lo = bisect.bisect_left(self.at, start - PERIOD_S)
        hi = bisect.bisect_right(self.at, end + PERIOD_S)
        window = self.seconds[lo:hi] or self.seconds
        return REFERENCE_S / statistics.fmean(window)


class Segment:
    """Times one stretch of work, less any reference timing inside it."""

    def __init__(self, rescaler: Rescaler) -> None:
        self.rescaler = rescaler
        self.start = time.perf_counter()
        self._spent = rescaler.spent

    def stop(self) -> "Segment":
        self.end = time.perf_counter()
        self.seconds = self.end - self.start - (self.rescaler.spent - self._spent)
        return self

    def rescaled(self) -> float:
        """Only valid once the rescaler has stopped sampling."""
        return self.seconds * self.rescaler.factor(self.start, self.end)
