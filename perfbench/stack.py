"""The stack under test, as its own process tree.

Run as ``python3 -m perfbench.stack '<config json>'`` from the repo
root (``src`` on ``PYTHONPATH``).  It builds the workload's stack,
prints one ``ready`` message, then answers commands read from stdin,
one JSON object per line, until ``stop``.  Every message it prints
for the load generator starts with :data:`MARK`.

Importing this module starts nothing: ``multiprocessing`` spawn
re-imports the main module in every shard child, and a module-level
stack start would make each child try to start a cluster of its own.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from typing import Any, Dict, List

from perfbench import inputs

MARK = "@@perfbench "


def emit(message: Dict[str, Any]) -> None:
    sys.stdout.write(MARK + json.dumps(message) + "\n")
    sys.stdout.flush()


class RestStack:
    """2 shard processes + 1 gateway worker + coordinator + REST tier."""

    def __init__(self, config: Dict[str, Any]) -> None:
        from repro.cluster import procs
        from repro.controlplane.app import ControlPlaneApp
        from repro.controlplane.server import ControlPlaneServer
        from repro.edge.agent import EdgeAgent, tcp_connector

        if config["trace"]:
            from perfbench import trace

            trace.install("stack")
            procs.shard_process_main = trace.traced_shard_main
            procs.gateway_worker_main = trace.traced_gateway_main
        self.cluster = procs.build_proc_cluster(
            2, run_dir=config["run_dir"], pods=2, hops=inputs.REST_HOPS,
            capacity=inputs.REST_CAPACITY, durable=True, fsync=False,
            workers=2, gateway_workers=1, gateway_lease=inputs.LEASE,
            max_restarts=0, start_timeout=60.0,
        )
        self.cluster.start()
        port = self.cluster.gateway_port
        self.agents = [
            EdgeAgent(f"rest-{index}", tcp_connector("127.0.0.1", port),
                      op_budget=30.0, attempt_timeout=5.0)
            for index in range(inputs.CLIENTS)
        ]
        self.app = ControlPlaneApp(self.agents)
        self.server = ControlPlaneServer(self.app).start()
        self.port = self.server.port

    def ready(self) -> Dict[str, Any]:
        return {
            "port": self.port,
            "pod_paths": [list(p) for p in self.cluster.pod_paths],
            "spanning_paths": [list(p)
                               for p in self.cluster.spanning_paths],
            "links": [list(link) for link in self.cluster.domain.links],
        }

    def pids(self) -> Dict[str, int]:
        pids = {"stack": os.getpid()}
        pids.update(self.cluster.supervisor.pids())
        return pids

    def counters(self) -> Dict[str, Any]:
        return {
            "cluster": self.cluster.merged_stats(),
            "agents": [agent.counters() for agent in self.agents],
        }

    def state(self) -> Dict[str, Any]:
        coordinator = self.cluster.coordinator
        return {
            "dumps": self.cluster.dumps(),
            "supervisor": self.cluster.supervisor.counters(),
            "unresolved": coordinator.unresolved(),
        }

    def children(self) -> Dict[str, int]:
        return {name: pid for name, pid in
                self.cluster.supervisor.pids().items() if pid}

    def stop(self) -> None:
        try:
            self.server.close()
        finally:
            for agent in self.agents:
                agent.close()
            self.cluster.stop()


class KneeStack:
    """EdgeGateway over an in-process BrokerService with a WAL."""

    def __init__(self, config: Dict[str, Any]) -> None:
        from repro.edge.gateway import EdgeGateway
        from repro.service.durability import FileJournal
        from repro.service.runtime import BrokerService

        if config["trace"]:
            from perfbench import trace

            trace.install("stack")
        wal_dir = os.path.join(config["run_dir"], "wal", "knee")
        os.makedirs(wal_dir, exist_ok=True)
        self.broker = inputs.knee_broker()
        self.wal = FileJournal(wal_dir, fsync=False)
        self.service = BrokerService(
            self.broker, workers=2, shards=4, queue_limit=1024,
            batch_limit=16, wal=self.wal,
        ).start()
        self.gateway = EdgeGateway(self.service, name="gw",
                                   lease_duration=inputs.LEASE)
        _host, self.port = self.gateway.listen("127.0.0.1", 0)
        self.gateway.start()

    def ready(self) -> Dict[str, Any]:
        return {"port": self.port, "links": inputs.knee_links()}

    def pids(self) -> Dict[str, int]:
        return {"stack": os.getpid()}

    def counters(self) -> Dict[str, Any]:
        return {"service": self.service.stats().as_dict()}

    def state(self) -> Dict[str, Any]:
        links = {}
        for link in self.broker.node_mib.links():
            label = f"{link.link_id[0]}->{link.link_id[1]}"
            ledger = []
            if link.ledger is not None:
                ledger = [[e.key, e.rate, e.deadline, e.max_packet]
                          for e in link.ledger.iter_entries()]
            links[label] = {
                "capacity": link.capacity,
                "kind": link.kind.name,
                "reserved_rate": link.reserved_rate,
                "rates": {key: link.rate_of(key)
                          for key in link.reservation_keys()},
                "ledger": ledger,
            }
        return {"links": links}

    def children(self) -> Dict[str, int]:
        return {}

    def stop(self) -> None:
        self.gateway.stop_accepting()
        self.gateway.drain_outboxes(timeout=3.0)
        self.gateway.stop()
        self.service.stop()
        self.wal.close()


STACKS = {"rest-local": RestStack, "rest-spanning": RestStack,
          "edge-delay-knee": KneeStack}


def collect_trace(stack, signalled: Dict[str, int]) -> Dict[str, Any]:
    """Snapshot every process's span book: this one directly, the
    children through ``SIGUSR1`` and the files they write.
    *signalled* counts the signals sent to each child so far."""
    from perfbench import trace

    directory = os.environ[trace.TRACE_DIR_ENV]
    result = {"stack": trace.book().snapshot()}
    wanted: Dict[str, str] = {}
    for name, pid in stack.children().items():
        signalled[name] = signalled.get(name, 0) + 1
        wanted[name] = os.path.join(directory,
                                    f"{name}.{signalled[name]}.json")
        os.kill(pid, signal.SIGUSR1)
    deadline = time.monotonic() + 20.0
    for name, path in wanted.items():
        while not os.path.exists(path):
            if time.monotonic() > deadline:
                raise RuntimeError(f"no trace snapshot from {name}")
            time.sleep(0.02)
        with open(path, "r", encoding="utf-8") as handle:
            result[name] = json.load(handle)
    return result


def serve(config: Dict[str, Any]) -> int:
    stack = STACKS[config["workload"]](config)
    signalled: Dict[str, int] = {}
    try:
        emit({"event": "ready", **stack.ready(), "pids": stack.pids()})
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            command = json.loads(line)["cmd"]
            if command == "stop":
                break
            if command == "pids":
                emit({"pids": stack.pids()})
            elif command == "counters":
                emit({"counters": stack.counters()})
            elif command == "state":
                emit({"state": stack.state()})
            elif command == "trace":
                emit({"trace": collect_trace(stack, signalled)})
            else:
                emit({"error": f"unknown command {command!r}"})
    finally:
        stack.stop()
    emit({"event": "stopped"})
    return 0


def main(argv: List[str]) -> int:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    return serve(json.loads(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
