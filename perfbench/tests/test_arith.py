"""The benchmark's own arithmetic.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import itertools
import statistics

import pytest

from perfbench import arith, layers


# -- the percentile rule ------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (0, None), (39, None),          # under forty samples: median only
    (40, 75.0), (99, 75.0),         # p75 is the first with ten beyond
    (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0),
    (10000, 99.9), (250000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_beyond(count, expected):
    assert arith.tail_percentile(count) == expected


def test_chosen_tail_leaves_at_least_ten_samples_beyond():
    for count in range(40, 3000, 7):
        pct = arith.tail_percentile(count)
        values = list(range(count))
        cut = arith.percentile(values, pct)
        assert sum(1 for v in values if v > cut) >= 10
        higher = [p for p in arith.TAIL_LADDER if p > pct]
        for p in higher:
            cut = arith.percentile(values, p)
            assert sum(1 for v in values if v > cut) < 10


def test_nearest_rank_percentile():
    values = [5, 1, 4, 2, 3]
    assert arith.percentile(values, 50) == 3
    assert arith.percentile(values, 100) == 5
    assert arith.percentile(values, 1) == 1
    with pytest.raises(ValueError):
        arith.percentile([], 50)


def test_summary_reports_median_alone_on_small_samples():
    small = arith.summarize_ms([0.001] * 39)
    assert small["p50_ms"] == pytest.approx(1.0)
    assert "tail_ms" not in small
    big = arith.summarize_ms([i / 1000 for i in range(1, 101)])
    assert big["tail_pct"] == 90.0
    assert big["tail_ms"] == pytest.approx(90.0)


def test_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.0, 9.7]
    med, q1, q3, rel = arith.spread(values)
    want_q1, _m, want_q3 = statistics.quantiles(values, n=4)
    assert (med, q1, q3) == (statistics.median(values), want_q1, want_q3)
    assert rel == pytest.approx((want_q3 - want_q1) / med)


# -- CPU accounting across processes --------------------------------------


def _stat(pid, comm, utime, stime):
    # Fields 3..15 of /proc/<pid>/stat: state, ppid ... utime, stime.
    rest = ["S"] + ["0"] * 10 + [str(utime), str(stime)] + ["0"] * 30
    return f"{pid} ({comm}) " + " ".join(rest)


class FakeProc:
    def __init__(self, table):
        self.table = table

    def __call__(self, path):
        pid = int(path.split("/")[2])
        kind = path.split("/")[3]
        if kind == "stat":
            comm, utime, stime = self.table[pid]
            return _stat(pid, comm, utime, stime)
        return f"Name:\t{self.table[pid][0]}\nVmRSS:\t  {pid * 1024} kB\n"


def test_cpu_seconds_parse_names_with_spaces_and_parens():
    reader = FakeProc({7: ("python3 (x) y", 250, 50)})
    assert arith.process_cpu_seconds(7, reader=reader) == pytest.approx(
        300 / arith.CLOCK_TICKS)


def test_stack_cpu_excludes_the_load_generator():
    stack, loadgen = [11, 12, 13], 99
    before = FakeProc({11: ("a", 100, 0), 12: ("b", 10, 10),
                       13: ("c", 0, 0), 99: ("gen", 500, 0)})
    after = FakeProc({11: ("a", 150, 25), 12: ("b", 10, 30),
                      13: ("c", 5, 0), 99: ("gen", 9000, 0)})
    first = arith.stack_cpu_seconds(stack + [loadgen], exclude=[loadgen],
                                    reader=before)
    second = arith.stack_cpu_seconds(stack + [loadgen], exclude=[loadgen],
                                     reader=after)
    assert loadgen not in first and loadgen not in second
    assert arith.cpu_delta_seconds(first, second) == pytest.approx(
        (75 + 20 + 5) / arith.CLOCK_TICKS)


def test_cpu_delta_refuses_a_changed_process_set():
    with pytest.raises(ValueError):
        arith.cpu_delta_seconds({1: 0.0, 2: 0.0}, {1: 1.0, 3: 1.0})


def test_rss_sums_vmrss():
    reader = FakeProc({2: ("a", 0, 0), 3: ("b", 0, 0)})
    total = sum(arith.process_rss_mb(pid, reader=reader) for pid in (2, 3))
    assert total == pytest.approx(5.0)


# -- self time: a span minus its child layers ------------------------------


def _book(ticks):
    clock = iter(ticks)
    return arith.SpanBook(clock=lambda: next(clock))


def test_self_time_subtracts_children_and_waits():
    #          app 0..10
    #            agent 1..9
    #              wire 2..3, wait 3..8
    book = _book([0, 1, 2, 3, 3, 8, 9, 10])
    book.enter()              # app      @0
    book.enter()              # agent    @1
    book.enter()              # wire     @2
    book.exit("wire")         #          @3
    book.enter()              # wait     @3
    book.exit("wait.recv")    #          @8
    book.exit("agent")        #          @9
    book.exit("app")          #          @10
    spans = book.snapshot()["spans"]
    assert spans["app"] == [1, 10, 2]
    assert spans["agent"] == [1, 8, 2]
    assert spans["wire"] == [1, 1, 1]
    assert spans["wait.recv"] == [1, 5, 5]


def test_spans_on_other_threads_do_not_nest():
    import threading

    book = arith.SpanBook()
    book.enter()
    worker = threading.Thread(target=lambda: (book.enter(),
                                              book.exit("inner")))
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    book.exit("outer")
    spans = book.snapshot()["spans"]
    assert spans["outer"][1] == pytest.approx(spans["outer"][2])


def test_snapshot_diff_and_merge():
    ticks = itertools.count()
    book = arith.SpanBook(clock=lambda: float(next(ticks)))
    book.enter()
    book.exit("a")
    book.add("frames", 3)
    first = book.snapshot()
    book.enter()
    book.exit("a", count=4)
    book.add("frames", 2)
    diff = arith.diff_snapshots(first, book.snapshot())
    assert diff == {"spans": {"a": [4, 1.0, 1.0]},
                    "counters": {"frames": 2.0}}
    merged = arith.merge_snapshots([diff, diff])
    assert merged["spans"]["a"] == [8, 2.0, 2.0]
    assert merged["counters"]["frames"] == 4.0


def test_coverage_counts_busy_self_time_not_waits():
    roles = {
        "stack": {"spans": {"controlplane.app": [2, 0.008, 0.002],
                            "edge.agent": [2, 0.006, 0.001],
                            "wait.recv": [2, 0.005, 0.005]},
                  "counters": {}},
        "shard0": {"spans": {"cluster.server": [2, 0.003, 0.003]},
                   "counters": {"runtime.queue_wait_s": 0.001,
                                "runtime.jobs": 1}},
    }
    metrics = layers.layer_metrics(
        roles, ops=2, admits=1, client_latency_s=0.012, retries=0,
        scan_intervals=0, wal_bytes=200, rest=True)
    # http = 12 - 8 ms; busy = 2 + 1 + 3 ms; the queue wait and the
    # wait spans count for no layer.
    assert metrics["controlplane.http_ms"] == pytest.approx(2.0)
    assert metrics["trace.coverage_pct"] == pytest.approx(
        100 * (0.004 + 0.006) / 0.012)
    assert metrics["service.runtime.queue_wait_ms"] == pytest.approx(1.0)
    assert metrics["service.durability.bytes_per_op"] == 100
    assert set(metrics) == {name for name, _unit in layers.PER_LAYER}


# -- sub-windows and host steal -------------------------------------


def _samples(seconds, steal_of):
    """1-s host samples whose steal share follows *steal_of*."""
    out, host = [], [0] * 10
    for second in range(seconds + 1):
        out.append((float(second), list(host)))
        stolen = int(round(1000 * steal_of(second)))
        host = list(host)
        host[0] += 1000 - stolen
        host[7] += stolen
    return out


def test_subwindows_carry_their_span_and_steal():
    subs = arith.subwindows(_samples(3, lambda s: 0.1 * s))
    assert [(s["t0"], s["t1"]) for s in subs] == [(0, 1), (1, 2), (2, 3)]
    assert [s["steal"] for s in subs] == pytest.approx([0.0, 0.1, 0.2])
    with pytest.raises(ValueError):
        arith.subwindows([(0.0, [0] * 10), (0.2, [1] * 10)])


def test_quiet_subwindows_by_threshold_or_least_stolen():
    subs = arith.subwindows(_samples(10, lambda s: 0.01 * s))
    quiet = arith.quiet_subwindows(subs)
    # steal 0-9%: the seconds at or below 3% are quiet, but fewer
    # than MIN_QUIET, so the least-stolen MIN_QUIET are taken.
    assert [s["t0"] for s in quiet] == [0, 1, 2, 3, 4]
    calm = arith.subwindows(_samples(10, lambda s: 0.002 * s))
    assert len(arith.quiet_subwindows(calm)) == 10


def test_pooled_figures_count_only_the_chosen_subwindows():
    # 100 entries per second; latency grows by 1 ms each second.
    done = [(t / 100, 1, t % 2, "admit" if t % 2 else "teardown",
             0.001 * (1 + t // 100)) for t in range(300)]
    subs = arith.subwindows(_samples(3, lambda s: 0.0))
    figures = arith.pooled_figures(done, [subs[0], subs[2]])
    assert figures["seconds"] == pytest.approx(2.0)
    assert figures["ops_per_s"] == pytest.approx(100.0)
    assert figures["decided_per_s"] == pytest.approx(50.0)
    # Latencies pooled over seconds 0 and 2: 1 ms and 3 ms, 50 each,
    # so the nearest-rank median is the last 1 ms one.
    assert figures["admit_p50_s"] == pytest.approx(0.001)
    assert figures["teardown_p50_s"] == pytest.approx(0.001)
    late = arith.pooled_figures(done, [subs[2]])
    assert late["admit_p50_s"] == pytest.approx(0.003)
    assert "admit_p50_s" not in arith.pooled_figures(
        [(0.5, 1, 0, "refresh", 0.1)], subs)


def test_host_steal_share():
    before = [100, 0, 50, 800, 0, 0, 0, 50, 0, 0]
    after = [200, 0, 100, 1000, 0, 0, 0, 100, 0, 0]
    assert arith.host_steal_share(before, after) == pytest.approx(50 / 400)
