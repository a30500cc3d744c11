"""The repo benchmark: one closed-loop load generator against the
broker stack, end-to-end metrics, per-layer metrics (``--trace 1``)
and correctness checks on every run.

Usage, from the repository root::

    python3 perfbench/run.py --workload rest-local --seed 1 --seconds 15
    python3 perfbench/run.py --workload all        # every workload
    python3 perfbench/run.py --workload edge-delay-knee --trace 1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed correctness check
exits 1; a run that cannot start or overruns its time exits 2.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Stack launches per run; ``setup_s`` is their median.
SETUPS = 7
#: Length of the sub-windows the host's steal is read over, in seconds.
SUBWINDOW_S = 1.0
#: Unmeasured load before the measured window, in seconds.
WARMUP_S = 1.5
#: Hard wall-clock limit of one run, in seconds.
RUN_LIMIT_S = 170
#: Scratch space for run directories (inside the checkout).
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")

WORKLOADS = ("rest-local", "rest-spanning", "edge-delay-knee")

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("decided_admits_per_s", "1/s"),
    ("admit_p50_ms", "ms"),
    ("teardown_p50_ms", "ms"),
    ("cpu_ms_per_req", "ms"),
    ("rss_mb", "MB"),
)


class BenchError(Exception):
    """The run could not be carried out (not a correctness failure)."""


class RunTimeout(BenchError):
    pass


# ----------------------------------------------------------------------
# the stack process
# ----------------------------------------------------------------------


class StackProcess:
    """The stack's parent process and its command channel."""

    def __init__(self, workload: str, run_dir: str, trace: bool) -> None:
        from perfbench.stack import MARK

        self.mark = MARK
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                           else []))
        self.trace_dir = os.path.join(run_dir, "trace")
        os.makedirs(self.trace_dir, exist_ok=True)
        env["PERFBENCH_TRACE_DIR"] = self.trace_dir
        env["TMPDIR"] = run_dir
        config = {"workload": workload, "run_dir": run_dir,
                  "trace": trace}
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.stack", json.dumps(config)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        self.ready = self._read()
        if self.ready.get("event") != "ready":
            raise BenchError(f"stack did not start: {self.ready!r}")

    def _read(self) -> Dict[str, Any]:
        for line in self.proc.stdout:
            if line.startswith(self.mark):
                return json.loads(line[len(self.mark):])
        raise BenchError(
            f"stack exited with code {self.proc.wait()} before answering")

    def ask(self, command: str) -> Dict[str, Any]:
        self.proc.stdin.write(json.dumps({"cmd": command}) + "\n")
        self.proc.stdin.flush()
        reply = self._read()
        if "error" in reply:
            raise BenchError(reply["error"])
        return reply

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful stop, then the whole process group by force."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"cmd": "stop"}) + "\n")
                self.proc.stdin.flush()
                self.proc.stdin.close()
            except (BrokenPipeError, OSError, ValueError):
                pass
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def kill(self, signals=(signal.SIGTERM, signal.SIGKILL)) -> None:
        for sig in signals:
            try:
                os.killpg(self.proc.pid, sig)
            except (ProcessLookupError, PermissionError):
                break
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                self.proc.poll()  # reap the leader, or it stays listed
                try:
                    os.killpg(self.proc.pid, 0)
                except (ProcessLookupError, PermissionError):
                    break
                time.sleep(0.05)
        try:
            self.proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            pass
        if self.proc.stdout is not None:
            self.proc.stdout.close()


# ----------------------------------------------------------------------
# closed-loop clients
# ----------------------------------------------------------------------


class Ledger:
    """What the clients were told, and what they hold live."""

    def __init__(self) -> None:
        self.told: Dict[str, Dict[str, Any]] = {}
        self.live: Dict[str, Dict[str, Any]] = {}


class Window:
    """One phase's tallies, shared by the client threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.ops = 0
        self.failed = 0
        self.decided_admits = 0
        self.rejected = 0
        self.admit_s: List[float] = []
        self.teardown_s: List[float] = []
        self.latency_sum = 0.0
        self.errors: List[str] = []
        #: (completion time, ops answered terminally, admissions
        #: decided, kind, latency)
        self.done: List[tuple] = []

    def fail(self, message: str) -> None:
        with self.lock:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(message)


class RestClient:
    """One REST client: its own connection, flows and FIFO."""

    def __init__(self, index: int, port: int, path, seed: int,
                 ledger: Ledger, clock) -> None:
        from perfbench import inputs
        from repro.controlplane.client import ControlPlaneClient

        self.index = index
        self.http = ControlPlaneClient("127.0.0.1", port, timeout=60.0)
        self.flows = inputs.rest_flows(seed, index, path)
        self.fifo: collections.deque = collections.deque()
        self.ledger = ledger
        self.clock = clock
        self.population = inputs.REST_POPULATION

    def _admit(self, window: Window) -> bool:
        flow = next(self.flows)
        started = time.perf_counter()
        reply = self.http.admit(
            flow.flow_id, flow.spec, flow.delay_requirement, flow.path[0],
            flow.path[-1], path_nodes=flow.path, now=self.clock())
        elapsed = time.perf_counter() - started
        decision = reply.body.get("decision", {}) \
            if isinstance(reply.body, dict) else {}
        with window.lock:
            window.ops += 1
            window.latency_sum += elapsed
            window.admit_s.append(elapsed)
        decided = reply.status in (201, 409) and "admitted" in decision
        window.done.append((started + elapsed, int(decided), int(decided),
                            "admit", elapsed))
        if not decided:
            window.fail(f"admit {flow.flow_id}: {reply.status} "
                        f"{reply.body!r:.120}")
            return False
        admitted = bool(decision["admitted"])
        self.ledger.told[flow.flow_id] = {
            "admitted": admitted, "rate": decision.get("rate", 0.0),
            "delay": decision.get("delay", 0.0)}
        with window.lock:
            window.decided_admits += 1
            window.rejected += not admitted
        if admitted:
            self.fifo.append(flow.flow_id)
            self.ledger.live[flow.flow_id] = {
                "spec": flow.spec, "rate": decision["rate"],
                "delay": decision["delay"], "path": flow.path,
                "delay_requirement": flow.delay_requirement}
        return admitted

    def _refresh(self, flow_id: str, window: Window) -> None:
        started = time.perf_counter()
        reply = self.http.refresh(flow_id, now=self.clock())
        elapsed = time.perf_counter() - started
        with window.lock:
            window.ops += 1
            window.latency_sum += elapsed
        window.done.append((started + elapsed, int(reply.status == 200), 0,
                            "refresh", elapsed))
        if reply.status != 200:
            window.fail(f"refresh {flow_id}: {reply.status}")

    def _teardown(self, window: Window) -> None:
        flow_id = self.fifo.popleft()
        started = time.perf_counter()
        reply = self.http.teardown(flow_id, now=self.clock())
        elapsed = time.perf_counter() - started
        with window.lock:
            window.ops += 1
            window.latency_sum += elapsed
            window.teardown_s.append(elapsed)
        torn = reply.status in (200, 204)
        window.done.append((started + elapsed, int(torn), 0, "teardown",
                            elapsed))
        if not torn:
            window.fail(f"teardown {flow_id}: {reply.status}")
            return
        self.ledger.live.pop(flow_id, None)

    def populate(self, window: Window) -> None:
        while len(self.fifo) < self.population:
            self._admit(window)
            if window.failed:
                return

    def rounds(self, deadline: float, window: Window) -> int:
        """Whole rounds of admit -> refresh -> teardown-oldest."""
        done = 0
        while time.perf_counter() < deadline and not window.failed:
            admitted = self._admit(window)
            fresh = self.fifo[-1] if admitted else self.fifo[0]
            self._refresh(fresh, window)
            self._teardown(window)
            done += 1
        return done

    def close(self) -> None:
        self.http.close()


class KneeClient:
    """One edge agent pipelining admission windows, then teardowns."""

    def __init__(self, index: int, port: int, seed: int,
                 ledger: Ledger, clock) -> None:
        from perfbench import inputs
        from repro.edge.agent import EdgeAgent, tcp_connector

        self.index = index
        self.agent = EdgeAgent(
            f"knee-{index}", tcp_connector("127.0.0.1", port),
            op_budget=60.0, attempt_timeout=10.0, codecs=("binary",))
        self.windows = inputs.knee_windows(seed, index)
        self.fifo: collections.deque = collections.deque()
        self.ledger = ledger
        self.clock = clock
        self.teardowns = inputs.KNEE_TEARDOWNS

    def _admit_window(self, window: Window) -> None:
        from repro.edge.agent import AdmitOp
        from repro.traffic.spec import TSpec

        flows = next(self.windows)
        ops = [AdmitOp(flow.flow_id, TSpec(**flow.spec),
                       flow.delay_requirement, flow.path[0], flow.path[-1],
                       path_nodes=flow.path) for flow in flows]
        started = time.perf_counter()
        replies = self.agent.admit_many(ops, now=self.clock())
        elapsed = time.perf_counter() - started
        decided = rejected = 0
        for flow in flows:
            reply = replies.get(flow.flow_id) or {}
            decision = reply.get("decision") or {}
            if reply.get("status") != "ok" or "admitted" not in decision:
                window.fail(f"admit {flow.flow_id}: {reply!r:.120}")
                continue
            admitted = bool(decision["admitted"])
            decided += 1
            rejected += not admitted
            self.ledger.told[flow.flow_id] = {
                "admitted": admitted, "rate": decision.get("rate", 0.0),
                "delay": decision.get("delay", 0.0)}
            if admitted:
                self.fifo.append(flow.flow_id)
                self.ledger.live[flow.flow_id] = {
                    "spec": flow.spec, "rate": decision["rate"],
                    "delay": decision["delay"], "path": flow.path,
                    "delay_requirement": flow.delay_requirement}
        with window.lock:
            window.ops += len(flows)
            window.latency_sum += elapsed
            window.admit_s.append(elapsed)
            window.decided_admits += decided
            window.rejected += rejected
        window.done.append((started + elapsed, decided, decided, "admit",
                            elapsed))

    def _teardown_window(self, window: Window) -> None:
        flow_ids = [self.fifo.popleft() for _ in range(self.teardowns)]
        started = time.perf_counter()
        replies = self.agent.teardown_many(flow_ids, now=self.clock())
        elapsed = time.perf_counter() - started
        torn = 0
        for flow_id in flow_ids:
            reply = replies.get(flow_id) or {}
            if reply.get("status") != "ok":
                window.fail(f"teardown {flow_id}: {reply!r:.120}")
            else:
                torn += 1
                self.ledger.live.pop(flow_id, None)
        with window.lock:
            window.ops += len(flow_ids)
            window.latency_sum += elapsed
            window.teardown_s.append(elapsed)
        window.done.append((started + elapsed, torn, 0, "teardown",
                            elapsed))

    def populate(self, window: Window) -> None:
        from perfbench import inputs

        for _ in range(inputs.KNEE_PREFILL_WINDOWS):
            self._admit_window(window)
            if window.failed:
                return
        if len(self.fifo) < 2 * self.teardowns:
            window.fail(f"standing population only {len(self.fifo)}")

    def rounds(self, deadline: float, window: Window) -> int:
        """Whole rounds of one admission window + one teardown window."""
        done = 0
        while time.perf_counter() < deadline and not window.failed:
            self._admit_window(window)
            self._teardown_window(window)
            done += 1
        return done

    def close(self) -> None:
        self.agent.close()


class HostSampler:
    """Reads the host's CPU times every :data:`SUBWINDOW_S` seconds
    from a thread of the load generator."""

    def __init__(self, start: float) -> None:
        self.samples: List[tuple] = []
        self._stop = threading.Event()
        self._read(start)
        self._thread = threading.Thread(target=self._loop, args=(start,),
                                        daemon=True)
        self._thread.start()

    def _read(self, when: Optional[float] = None) -> None:
        from perfbench import arith

        self.samples.append((when or time.perf_counter(),
                             arith.host_cpu_times()))

    def _loop(self, start: float) -> None:
        due = start
        while True:
            due += SUBWINDOW_S
            if self._stop.wait(max(0.0, due - time.perf_counter())):
                return
            self._read()

    def stop(self) -> List[tuple]:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._read()
        return self.samples


def run_clients(clients, action, *args) -> None:
    """Run ``action(client, *args)`` on every client, one thread each."""
    errors: List[BaseException] = []

    def body(client) -> None:
        try:
            action(client, *args)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(client,), daemon=True)
               for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        while thread.is_alive():
            thread.join(timeout=0.5)
    if errors:
        raise BenchError(f"client failed: {errors[0]!r}") from errors[0]


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------


def wal_bytes(run_dir: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(os.path.join(run_dir, "wal")):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def program_counters(workload: str, counters: Dict[str, Any],
                     clients: List[Any]) -> Dict[str, float]:
    """Scan intervals and agent retries from the program's own stats
    (the knee's agents run in the load generator, as its *clients*)."""
    if workload == "edge-delay-knee":
        service = counters["service"]
        return {"scan_intervals": service["scan_intervals"],
                "retries": sum(client.agent.counters()["retries"]
                               for client in clients)}
    shards = counters["cluster"]["shards"].values()
    return {
        "scan_intervals": sum(s["service"]["scan_intervals"]
                              for s in shards),
        "retries": sum(a["retries"] for a in counters["agents"]),
    }


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rest = workload != "edge-delay-knee"
        self.stack: Optional[StackProcess] = None
        self.clients: List[Any] = []
        self.run_dir = ""

    def _launch(self) -> float:
        """One set-up: fresh run dir, stack start, standing population."""
        from perfbench import inputs

        # A replaced set-up's state is thrown away: no graceful stop.
        self._teardown_stack(graceful=False)
        os.makedirs(RUNS_DIR, exist_ok=True)
        self.run_dir = tempfile.mkdtemp(prefix=f"{self.workload}-",
                                        dir=RUNS_DIR)
        started = time.perf_counter()
        self.stack = StackProcess(self.workload, self.run_dir, self.trace)
        ready = self.stack.ready
        self.ledger = Ledger()
        counter = itertools.count(1)
        clock = lambda: next(counter) * 1e-3  # noqa: E731 - domain time
        if self.rest:
            paths = ready["pod_paths"] if self.workload == "rest-local" \
                else [ready["spanning_paths"][0]] * inputs.CLIENTS
            self.clients = [
                RestClient(i, ready["port"], paths[i], self.seed,
                           self.ledger, clock)
                for i in range(inputs.CLIENTS)]
        else:
            self.clients = [
                KneeClient(i, ready["port"], self.seed, self.ledger, clock)
                for i in range(inputs.CLIENTS)]
        window = Window()
        run_clients(self.clients, lambda c, w: c.populate(w), window)
        if window.failed:
            raise BenchError(f"set-up failed: {window.errors}")
        return time.perf_counter() - started

    def _teardown_stack(self, graceful: bool = True) -> None:
        for client in self.clients:
            try:
                client.close()
            except Exception:
                pass
        self.clients = []
        if self.stack is not None:
            if graceful:
                self.stack.stop()
            else:
                self.stack.kill(signals=(signal.SIGKILL,))
            self.stack = None
        if self.run_dir:
            shutil.rmtree(self.run_dir, ignore_errors=True)
            self.run_dir = ""

    def _snapshot(self) -> Dict[str, Any]:
        from perfbench import arith, trace

        pids = self.stack.ask("pids")["pids"]
        snap: Dict[str, Any] = {
            "pids": pids,
            "cpu": arith.stack_cpu_seconds(pids.values(),
                                           exclude=[os.getpid()]),
            "wal": wal_bytes(self.run_dir),
        }
        if self.trace:
            snap["counters"] = program_counters(
                self.workload, self.stack.ask("counters")["counters"],
                self.clients)
            snap["trace"] = self.stack.ask("trace")["trace"]
            if not self.rest:
                snap["trace"]["loadgen"] = trace.book().snapshot()
        return snap

    def execute(self) -> Dict[str, Any]:
        from perfbench import arith, checks, layers, trace

        if self.trace and not self.rest:
            trace.install("loadgen")
        try:
            setups = [self._launch() for _ in range(SETUPS)]
            warm = Window()
            deadline = time.perf_counter() + WARMUP_S
            run_clients(self.clients, lambda c, d, w: c.rounds(d, w),
                        deadline, warm)
            if warm.failed:
                raise BenchError(f"warm-up failed: {warm.errors}")

            before = self._snapshot()
            window = Window()
            start = time.perf_counter()
            sampler = HostSampler(start)
            try:
                run_clients(self.clients, lambda c, d, w: c.rounds(d, w),
                            start + self.seconds, window)
            finally:
                samples = sampler.stop()
            elapsed = time.perf_counter() - start
            steal = arith.host_steal_share(samples[0][1], samples[-1][1])
            after = self._snapshot()
            subs = arith.subwindows(samples)
            quiet = arith.pooled_figures(window.done,
                                         arith.quiet_subwindows(subs))
            rss = sum(arith.process_rss_mb(pid)
                      for pid in after["pids"].values())
            state = self.stack.ask("state")["state"]
            ready = self.stack.ready
            run_dir = self.run_dir
            self.stack.stop()
            for client in self.clients:
                client.close()
            self.clients = []

            result_extra: Dict[str, Any] = {}
            if self.rest:
                findings, replayed = checks.rest_findings(
                    ready, state, os.path.join(run_dir, "wal"),
                    self.ledger.told, self.ledger.live)
            else:
                findings, replayed = checks.knee_findings(
                    state, os.path.join(run_dir, "wal", "knee"),
                    self.ledger.told, self.ledger.live)
                result_extra["distinct_deadlines"] = {
                    label: len({entry[2] for entry in link["ledger"]})
                    for label, link in state["links"].items()
                    if link["ledger"]}
            if replayed != len(self.ledger.told):
                findings.append(
                    f"oracle: replayed {replayed} admissions, clients "
                    f"were answered {len(self.ledger.told)}")

            cpu = arith.cpu_delta_seconds(before["cpu"], after["cpu"])
            ops = window.ops
            result: Dict[str, Any] = {
                "workload": self.workload,
                "seed": self.seed,
                "attempted": ops,
                "failed": window.failed,
                "errors": window.errors,
                "findings": findings,
                "elapsed_s": elapsed,
                "whole_window": {
                    "ops_per_s": ops / elapsed,
                    "decided_per_s": window.decided_admits / elapsed},
                "subwindows": subs,
                "quiet_s": quiet["seconds"],
                "host_steal_share": steal,
                "rejected": window.rejected,
                "live_flows": len(self.ledger.live),
                "end_to_end": {
                    "setup_s": arith.percentile(setups, 50.0),
                    "throughput_rps": quiet["ops_per_s"],
                    "decided_admits_per_s": quiet["decided_per_s"],
                    "admit_p50_ms": quiet["admit_p50_s"] * 1e3,
                    "teardown_p50_ms": quiet["teardown_p50_s"] * 1e3,
                    "cpu_ms_per_req": cpu * 1e3 / ops,
                    "rss_mb": rss,
                },
                "setups_s": setups,
                **result_extra,
                "admit": arith.summarize_ms(window.admit_s),
                "teardown": arith.summarize_ms(window.teardown_s),
            }
            if self.trace:
                roles = {role: arith.diff_snapshots(
                    before["trace"].get(role, {}), snap)
                    for role, snap in after["trace"].items()}
                result["per_layer"] = layers.layer_metrics(
                    roles, ops=ops, admits=window.decided_admits,
                    client_latency_s=window.latency_sum,
                    retries=after["counters"]["retries"]
                    - before["counters"]["retries"],
                    scan_intervals=after["counters"]["scan_intervals"]
                    - before["counters"]["scan_intervals"],
                    wal_bytes=after["wal"] - before["wal"],
                    rest=self.rest)
            shutil.rmtree(run_dir, ignore_errors=True)
            self.run_dir = ""
            return result
        finally:
            self._teardown_stack()


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def report(result: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    from perfbench import layers

    print(f"== {result['workload']} (seed {result['seed']}): "
          f"{result['attempted']} ops attempted, {result['failed']} failed, "
          f"{result['rejected']} admissions rejected, "
          f"{result['live_flows']} flows live at the end")
    for name, unit in END_TO_END:
        print(f"  {name:<24} {result['end_to_end'][name]:12.4f} {unit}")
    for label in ("admit", "teardown"):
        summary = result[label]
        tail = (f", p{summary['tail_pct']:g} {summary['tail_ms']:.3f} ms"
                if "tail_ms" in summary else "")
        print(f"  {label} latency: n={summary['n']:.0f}, "
              f"p50 {summary.get('p50_ms', 0.0):.3f} ms{tail}")
    steals = ", ".join(f"{100 * sub['steal']:.0f}"
                       for sub in result["subwindows"])
    print(f"  setups: {', '.join(f'{s:.3f}' for s in result['setups_s'])} s;"
          f" host steal {100 * result['host_steal_share']:.1f}%; rates and"
          f" p50s are read over the {result['quiet_s']:.1f} quietest s"
          f" of {len(result['subwindows'])} 1-s sub-windows (steal per"
          f" sub-window: {steals} %); over the whole window:"
          f" {result['whole_window']['ops_per_s']:.1f} ops/s,"
          f" {result['whole_window']['decided_per_s']:.1f} decided"
          f" admits/s, admit p50 {result['admit'].get('p50_ms', 0.0):.3f} ms")
    if "distinct_deadlines" in result:
        print("  distinct deadlines per delay-based link (M): " + ", ".join(
            f"{label} {count}" for label, count in
            sorted(result["distinct_deadlines"].items())))
    for error in result["errors"]:
        print(f"  FAILED OP: {error}")
    for finding in result["findings"]:
        print(f"  CHECK FAILED: {finding}")
    if not result["findings"]:
        print("  checks: capacity, VT-EDF eq. 5, e2e delay bound, "
              "WAL-order oracle, 2PC holds -- all passed")
    if trace:
        for name, unit in layers.PER_LAYER:
            print(f"  {name:<42} {result['per_layer'][name]:12.4f} {unit}")
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in layers.PER_LAYER}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END}
    return {
        "correct": not result["findings"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json-out", default="",
                        help="append each run's full result to this file")
    return parser.parse_args(argv)


def _on_alarm(_signum, _frame) -> None:
    raise RunTimeout(f"run exceeded {RUN_LIMIT_S} s")


def _on_term(signum, _frame) -> None:
    raise BenchError(f"stopped by signal {signum}")


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.alarm(RUN_LIMIT_S * len(workloads))
    summaries = []
    try:
        for workload in workloads:
            result = Run(workload, args.seed, args.seconds,
                         bool(args.trace)).execute()
            summaries.append(report(result, bool(args.trace)))
            if args.json_out:
                with open(args.json_out, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(result) + "\n")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        try:
            os.rmdir(RUNS_DIR)
        except OSError:
            pass
    if len(summaries) == 1:
        final = summaries[0]
    else:
        final = {
            "correct": all(s["correct"] for s in summaries),
            "attempted": sum(s["attempted"] for s in summaries),
            "failed": sum(s["failed"] for s in summaries),
            "metrics": {f"{w}.{name}": value for w, s in
                        zip(workloads, summaries)
                        for name, value in s["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
