"""Per-layer metrics from a traced run's span books and counters.

Each metric is a mean per client operation unless its name says
otherwise (per RPC, per frame, per commit ...).  ``PER_LAYER`` lists
them with their units; :func:`layer_metrics` computes them.  A layer
that does not run on a workload reports 0.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from perfbench.arith import merge_snapshots
from perfbench.trace import WAIT_SPANS

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("controlplane.http_ms", "ms"),
    ("controlplane.app_self_ms", "ms"),
    ("edge.agent.self_ms", "ms"),
    ("edge.agent.retries_per_kop", "count"),
    ("edge.gateway.self_ms", "ms"),
    ("edge.gateway.frames_per_flush", "count"),
    ("service.transport.frames_per_send", "count"),
    ("service.wire.bytes_per_op", "B"),
    ("service.wire.codec_us_per_frame", "us"),
    ("cluster.gateway_rpc_ms", "ms"),
    ("cluster.coordinator.self_ms", "ms"),
    ("cluster.shard_rpc_ms", "ms"),
    ("cluster.shard_rpcs_per_admit", "count"),
    ("service.runtime.queue_wait_ms", "ms"),
    ("service.runtime.self_ms", "ms"),
    ("service.batching.batch_size", "count"),
    ("core.admission.decide_ms", "ms"),
    ("core.admission.scan_intervals_per_admit", "count"),
    ("core.admission.ledger_checks_per_admit", "count"),
    ("service.durability.append_us", "us"),
    ("service.durability.commit_ms", "ms"),
    ("service.durability.entries_per_commit", "count"),
    ("service.durability.bytes_per_op", "B"),
    ("trace.coverage_pct", "%"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    roles: Mapping[str, Dict[str, Any]],
    *,
    ops: int,
    admits: int,
    client_latency_s: float,
    retries: float,
    scan_intervals: float,
    wal_bytes: float,
    rest: bool,
) -> Dict[str, float]:
    """Compute :data:`PER_LAYER` from per-process span-book diffs.

    *roles* maps a process role (``stack``, ``shard0``, ``gw-0``,
    ``loadgen`` ...) to its window diff.  *client_latency_s* is the
    sum of the client-observed latencies of the window's operations
    (pipelined windows count once per window).

    ``trace.coverage_pct`` is the busy self time of every non-wait
    span in every process, plus the HTTP time outside the REST app,
    over that latency sum.  Queue waits are left out: with pipelined
    windows they overlap other requests' busy time.
    """
    merged = merge_snapshots(roles.values())
    spans, counters = merged["spans"], merged["counters"]

    def count(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(*names: str) -> float:
        return sum(spans.get(name, (0, 0.0, 0.0))[2] for name in names)

    stack_server = roles.get("stack", {}).get("spans", {}).get(
        "cluster.server", (0, 0.0, 0.0))[2]
    http = client_latency_s - total("controlplane.app") if rest else 0.0
    queue_wait = counters.get("runtime.queue_wait_s", 0.0)
    per_op_ms = 1e3 / ops if ops else 0.0
    admit_rpcs = sum(counters.get(f"shard_rpc.{op}", 0.0)
                     for op in ("admit", "prepare", "commit", "abort"))
    busy = sum(entry[2] for name, entry in spans.items()
               if name not in WAIT_SPANS)
    encode, decode = "service.wire.encode", "service.wire.decode"
    return {
        "controlplane.http_ms": http * per_op_ms,
        "controlplane.app_self_ms": own("controlplane.app") * per_op_ms,
        "edge.agent.self_ms": own("edge.agent") * per_op_ms,
        "edge.agent.retries_per_kop": _ratio(retries * 1e3, ops),
        "edge.gateway.self_ms":
            own("edge.gateway", "edge.gateway.flush") * per_op_ms,
        "edge.gateway.frames_per_flush": _ratio(
            counters.get("gateway.flush_frames", 0.0),
            count("edge.gateway.flush")),
        "service.transport.frames_per_send": _ratio(
            counters.get("transport.frames", 0.0),
            counters.get("transport.sends", 0.0)),
        "service.wire.bytes_per_op": _ratio(
            counters.get("wire.bytes_out", 0.0), ops),
        "service.wire.codec_us_per_frame": _ratio(
            (total(encode) + total(decode)) * 1e6,
            count(encode) + count(decode)),
        "cluster.gateway_rpc_ms": _ratio(
            total("cluster.gateway_rpc") * 1e3,
            count("cluster.gateway_rpc")),
        "cluster.coordinator.self_ms": (
            own("cluster.coordinator.admit", "cluster.coordinator.teardown")
            + stack_server) * per_op_ms,
        "cluster.shard_rpc_ms": _ratio(total("cluster.shard_rpc") * 1e3,
                                       count("cluster.shard_rpc")),
        "cluster.shard_rpcs_per_admit": _ratio(
            admit_rpcs, count("cluster.coordinator.admit")),
        "service.runtime.queue_wait_ms": _ratio(
            queue_wait * 1e3, counters.get("runtime.jobs", 0.0)),
        "service.runtime.self_ms": own(
            "service.runtime.submit", "service.runtime.batch",
            "service.runtime.admissions") * per_op_ms,
        "service.batching.batch_size": _ratio(
            counters.get("batching.jobs", 0.0),
            counters.get("batching.batches", 0.0)),
        "core.admission.decide_ms": _ratio(
            total("core.admission") * 1e3, admits),
        "core.admission.scan_intervals_per_admit": _ratio(
            scan_intervals, admits),
        "core.admission.ledger_checks_per_admit": _ratio(
            counters.get("core.ledger_checks", 0.0), admits),
        "service.durability.append_us": _ratio(
            total("service.durability.append") * 1e6,
            count("service.durability.append")),
        "service.durability.commit_ms": _ratio(
            total("service.durability.commit") * 1e3,
            count("service.durability.commit")),
        "service.durability.entries_per_commit": _ratio(
            count("service.durability.append"),
            counters.get("durability.flushing_commits", 0.0)),
        "service.durability.bytes_per_op": _ratio(wal_bytes, ops),
        "trace.coverage_pct": _ratio((busy + http) * 100.0,
                                     client_latency_s),
    }
