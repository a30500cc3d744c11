"""The benchmark's own arithmetic: percentiles, CPU and memory
accounting across processes, figures pooled over the sub-windows
with little host steal, and span self time.

Kept free of any import from the program under test so the tests in
``perfbench/tests`` check it in isolation.
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles considered for a latency tail, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0)
#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10
#: Below this many samples only the median is reported.
TAIL_MIN_SAMPLES = 40


def _rank(pct: float, count: int) -> int:
    """Nearest rank of *pct* among *count* samples (1-based), with the
    product rounded first so 99.9% of 10000 is rank 9990, not 9991."""
    return min(max(math.ceil(round(pct * count / 100.0, 9)), 1), count)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of *values* (need not be sorted)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[_rank(pct, len(values)) - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile of :data:`TAIL_LADDER` with at least ten
    samples beyond it, or ``None`` when there are fewer than forty
    samples (a tail on so few would be no tail)."""
    if count < TAIL_MIN_SAMPLES:
        return None
    for pct in TAIL_LADDER:
        beyond = count - _rank(pct, count)
        if beyond >= TAIL_MIN_BEYOND:
            return pct
    return None


def summarize_ms(latencies_s: Sequence[float]) -> Dict[str, float]:
    """Median and rule-chosen tail of a latency sample, in ms."""
    out: Dict[str, float] = {"n": float(len(latencies_s))}
    if not latencies_s:
        return out
    out["p50_ms"] = percentile(latencies_s, 50.0) * 1e3
    pct = tail_percentile(len(latencies_s))
    if pct is not None:
        out["tail_pct"] = pct
        out["tail_ms"] = percentile(latencies_s, pct) * 1e3
    return out


def spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as the acceptance rule
    computes it, with :func:`statistics.quantiles` (n=4)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    rel = (q3 - q1) / med if med else math.inf
    return med, q1, q3, rel


# ----------------------------------------------------------------------
# CPU and memory of the stack's processes
# ----------------------------------------------------------------------

CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii", errors="replace") as handle:
        return handle.read()


def process_cpu_seconds(pid: int, *,
                        reader: Callable[[str], str] = _read) -> float:
    """User + system CPU seconds of one process, from its ``stat``.

    The command name (field 2) may hold spaces and parentheses, so the
    fields are counted from the last ``)``.
    """
    text = reader(f"/proc/{pid}/stat")
    fields = text[text.rindex(")") + 2:].split()
    # fields[0] is field 3 (state); utime and stime are fields 14, 15.
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / float(CLOCK_TICKS)


def stack_cpu_seconds(pids: Iterable[int], *, exclude: Iterable[int] = (),
                      reader: Callable[[str], str] = _read
                      ) -> Dict[int, float]:
    """CPU seconds per stack process, leaving out *exclude* (the load
    generator's own pid): the generator's work is not the stack's."""
    skip = set(exclude)
    return {
        pid: process_cpu_seconds(pid, reader=reader)
        for pid in sorted(set(pids)) if pid not in skip
    }


def cpu_delta_seconds(before: Dict[int, float],
                      after: Dict[int, float]) -> float:
    """CPU the stack spent between two readings.

    A process must appear in both readings: one that appeared or
    vanished in between (a restart) makes the figure meaningless, so
    it raises instead of silently under-counting.
    """
    if set(before) != set(after):
        raise ValueError(
            f"stack processes changed during the window: "
            f"{sorted(before)} -> {sorted(after)}"
        )
    return sum(after[pid] - before[pid] for pid in before)


# ----------------------------------------------------------------------
# sub-windows and host steal
# ----------------------------------------------------------------------

#: Shorter gaps between two host samples make no sub-window.
SUBWINDOW_MIN_S = 0.5
#: A sub-window is quiet when the hypervisor stole at most this share
#: of the host's CPU time in it.
QUIET_STEAL = 0.03
#: Fewest sub-windows the reported figures are pooled over: when fewer
#: are quiet, the least-stolen ones make up the number.
MIN_QUIET = 5


def subwindows(samples: Sequence[Tuple[float, Sequence[int]]]
               ) -> List[Dict[str, float]]:
    """Split a measured window at the host samples.

    *samples* lists ``(time, host /proc/stat cpu times)``; each gap of
    at least :data:`SUBWINDOW_MIN_S` seconds between two samples is a
    sub-window ``{"t0", "t1", "steal"}`` with the host's steal share
    over it.
    """
    out = [{"t0": t0, "t1": t1, "steal": host_steal_share(h0, h1)}
           for (t0, h0), (t1, h1) in zip(samples, samples[1:])
           if t1 - t0 >= SUBWINDOW_MIN_S]
    if not out:
        raise ValueError("no complete sub-window to measure")
    return out


def quiet_subwindows(subs: Sequence[Dict[str, float]]
                     ) -> List[Dict[str, float]]:
    """The sub-windows with at most :data:`QUIET_STEAL` steal, or the
    :data:`MIN_QUIET` least-stolen ones when fewer are that quiet.

    The hypervisor steals this host's vCPUs in bursts that vary from
    second to second and from minute to minute, and stolen time only
    ever slows the stack, so the figures are read over the seconds in
    which little was stolen.  Each one is still a measurement: a
    count over those seconds, or a median of the latencies that ended
    in them.
    """
    ranked = sorted(subs, key=lambda sub: sub["steal"])
    quiet = [sub for sub in ranked if sub["steal"] <= QUIET_STEAL]
    return quiet if len(quiet) >= MIN_QUIET else ranked[:MIN_QUIET]


def pooled_figures(done: Sequence[Tuple[float, int, int, str, float]],
                   subs: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Rates and median latencies over the sub-windows *subs*.

    *done* lists ``(completion time, ops, decided admissions, kind,
    latency)``; an entry belongs to the sub-window its completion time
    falls in.  Returns ``seconds``, ``ops_per_s``, ``decided_per_s``
    and, where such operations ended in *subs*, ``admit_p50_s`` and
    ``teardown_p50_s``.
    """
    spans = sorted((sub["t0"], sub["t1"]) for sub in subs)
    starts = [t0 for t0, _t1 in spans]
    seconds = sum(t1 - t0 for t0, t1 in spans)
    ops = decided = 0
    latency: Dict[str, List[float]] = {"admit": [], "teardown": []}
    for finished, n_ops, n_decided, kind, elapsed in done:
        index = bisect.bisect_right(starts, finished) - 1
        if index < 0 or finished >= spans[index][1]:
            continue
        ops += n_ops
        decided += n_decided
        if kind in latency:
            latency[kind].append(elapsed)
    out = {"seconds": seconds, "ops_per_s": ops / seconds,
           "decided_per_s": decided / seconds}
    for kind, values in latency.items():
        if values:
            out[f"{kind}_p50_s"] = percentile(values, 50.0)
    return out


def host_steal_share(before: Sequence[int], after: Sequence[int]) -> float:
    """Share of the host's CPU time stolen by the hypervisor between
    two readings of the ``cpu`` line of ``/proc/stat``."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total else 0.0


def host_cpu_times(reader: Callable[[str], str] = _read) -> List[int]:
    return [int(v) for v in reader("/proc/stat").splitlines()[0].split()[1:]]


def process_rss_mb(pid: int, *,
                   reader: Callable[[str], str] = _read) -> float:
    """Resident set size of one process in MiB (``VmRSS``)."""
    for line in reader(f"/proc/{pid}/status").splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmRSS for pid {pid}")


# ----------------------------------------------------------------------
# spans and self time
# ----------------------------------------------------------------------


class SpanBook:
    """Per-thread span stacks folded into per-name totals.

    A span's *self* time is its duration minus the part of it that its
    child spans (same thread, opened while it was open) cover.  Spans
    of kind ``wait`` (blocking on a socket or a reply future) count
    as children of the span around them but add nothing to any
    layer's self time: the time they cover belongs to whoever is on
    the other side of the wait.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        #: name -> [count, total seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        #: free-form counters (frames, bytes, calls ...)
        self.counters: Dict[str, float] = {}

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self) -> None:
        # [start, seconds covered by children]
        self._stack().append([self._clock(), 0.0])

    def exit(self, name: str, count: int = 1) -> float:
        """Close the innermost span; returns its duration."""
        stack = self._stack()
        start, children = stack.pop()
        duration = self._clock() - start
        if stack:
            stack[-1][1] += duration
        own = duration - children
        with self._lock:
            entry = self.spans.get(name)
            if entry is None:
                entry = self.spans[name] = [0, 0.0, 0.0]
            entry[0] += count
            entry[1] += duration
            entry[2] += own
        return duration

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                "spans": {name: list(entry)
                          for name, entry in self.spans.items()},
                "counters": dict(self.counters),
            }


def diff_snapshots(before: Dict, after: Dict) -> Dict:
    """``after - before`` for two :meth:`SpanBook.snapshot` results."""
    spans: Dict[str, List[float]] = {}
    for name, entry in after.get("spans", {}).items():
        prior = before.get("spans", {}).get(name, [0, 0.0, 0.0])
        spans[name] = [a - b for a, b in zip(entry, prior)]
    counters = {
        name: value - before.get("counters", {}).get(name, 0.0)
        for name, value in after.get("counters", {}).items()
    }
    return {"spans": spans, "counters": counters}


def merge_snapshots(snapshots: Iterable[Dict]) -> Dict:
    """Sum several processes' snapshots name by name."""
    spans: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    for snap in snapshots:
        for name, entry in snap.get("spans", {}).items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for index, value in enumerate(entry):
                acc[index] += value
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0.0) + value
    return {"spans": spans, "counters": counters}
