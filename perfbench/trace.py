"""Per-layer timing from outside the program.

:func:`install` wraps the public entry points of each layer of the
request path (and a few private ones where the layer has no public
seam) with span timers that fold into one :class:`~arith.SpanBook`
per process.  Nothing inside ``src/`` changes: the wrappers are
installed on the classes at run time, only in a traced run.

Child processes of the stack (shard processes, the gateway worker)
start from :func:`traced_shard_main` / :func:`traced_gateway_main`,
which install the same wrappers before running the program's own
entry point.  Each process writes its book to
``$PERFBENCH_TRACE_DIR/<role>.<n>.json`` on its n-th ``SIGUSR1``.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import threading
import time
from typing import Any, Callable, Optional

from perfbench.arith import SpanBook

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: Span names whose time is a wait on another thread or process: they
#: shield the enclosing span's self time and count for no layer.
WAIT_SPANS = ("wait.recv", "wait.reply")

_book: Optional[SpanBook] = None
_role = ""
_dumps = 0
_tls = threading.local()


def book() -> SpanBook:
    if _book is None:
        raise RuntimeError("tracing is not installed in this process")
    return _book


def _wrap(owner: Any, attr: str, name: str, *,
          count: Optional[Callable[..., int]] = None,
          before: Optional[Callable[..., None]] = None) -> None:
    original = owner.__dict__[attr]
    static = isinstance(original, staticmethod)
    func = original.__func__ if static else original
    spans = _book

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        spans.enter()
        try:
            return func(*args, **kwargs)
        finally:
            spans.exit(name, count(*args, **kwargs) if count else 1)

    setattr(owner, attr, staticmethod(wrapper) if static else wrapper)


def _counter(owner: Any, attr: str, name: str) -> None:
    func = owner.__dict__[attr]
    spans = _book

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        spans.add(name)
        return func(*args, **kwargs)

    setattr(owner, attr, wrapper)


def _patch_layers() -> None:
    from repro.cluster import coordinator, procs, remote, shard
    from repro.controlplane import app
    from repro.core import admission, broker, schedulability
    from repro.edge import agent, gateway
    from repro.service import durability, runtime, transport

    spans = _book

    # controlplane: the WSGI app.
    _wrap(app.ControlPlaneApp, "__call__", "controlplane.app")

    # edge: agent verbs, gateway frame handling and reply flushing.
    for verb in ("admit", "teardown", "refresh"):
        _wrap(agent.EdgeAgent, verb, "edge.agent")
    _wrap(agent.EdgeAgent, "admit_many", "edge.agent",
          count=lambda self, ops, **kw: len(ops))
    _wrap(agent.EdgeAgent, "teardown_many", "edge.agent",
          count=lambda self, ids, **kw: len(ids))
    _wrap(gateway.EdgeGateway, "_handle_frame", "edge.gateway")

    def start_flush(session):
        _tls.flush_frames = 0

    def flushed(session):
        frames = getattr(_tls, "flush_frames", 0)
        _tls.flush_frames = None
        spans.add("gateway.flush_frames", frames)
        return 1

    _wrap(gateway.EdgeGateway, "_flush_outbox", "edge.gateway.flush",
          before=start_flush, count=flushed)

    # cluster: gateway-worker RPC, coordinator, shard RPCs and servers.
    _wrap(procs.ClusterServiceClient, "_execute", "cluster.gateway_rpc")
    _wrap(coordinator.ClusterCoordinator, "admit",
          "cluster.coordinator.admit")
    _wrap(coordinator.ClusterCoordinator, "teardown",
          "cluster.coordinator.teardown")

    def note_rpc(self, op, frame):
        spans.add(f"shard_rpc.{op}")

    _wrap(procs.ReconnectingShardHandle, "_call", "cluster.shard_rpc",
          before=note_rpc)
    _wrap(remote.FrameServer, "_dispatch", "cluster.server")

    # service.runtime / service.batching.
    _wrap(runtime.BrokerService, "submit", "service.runtime.submit")

    def queue_wait(self, jobs):
        now = time.monotonic()
        spans.add("runtime.jobs", len(jobs))
        spans.add("runtime.queue_wait_s", sum(
            now - job.pending.enqueued_at for job in jobs))

    _wrap(runtime.BrokerService, "_serve_batch", "service.runtime.batch",
          before=queue_wait)

    def batch_size(self, jobs):
        spans.add("batching.batches")
        spans.add("batching.jobs", len(jobs))

    _wrap(runtime.BrokerService, "_serve_admissions",
          "service.runtime.admissions", before=batch_size)
    _wrap(runtime.PendingReply, "wait", "wait.reply")

    # core: admission decisions, teardowns, ledger checks.
    _wrap(broker.BandwidthBroker, "admit_resolved", "core.admission")
    _wrap(admission.PerFlowAdmission, "admit_batch", "core.admission",
          count=lambda self, requests, path, **kw: len(requests))
    _wrap(shard.BrokerShard, "_feasible", "core.admission")
    _wrap(broker.BandwidthBroker, "terminate", "core.teardown")
    _counter(schedulability.DeadlineLedger, "admissible",
             "core.ledger_checks")

    # service.durability: the FileJournal WAL.
    _wrap(durability.FileJournal, "append", "service.durability.append")

    def note_commit(self, upto=None):
        if self.position > self.durable_position:
            spans.add("durability.flushing_commits")

    _wrap(durability.FileJournal, "commit", "service.durability.commit",
          before=note_commit)

    # service.wire (through the transport's own references) and
    # service.transport framing; a blocking receive is a wait.
    encode, decode = transport.encode_payload, transport.decode_payload

    @functools.wraps(encode)
    def encode_payload(frame, codec):
        spans.enter()
        try:
            blob = encode(frame, codec)
        finally:
            spans.exit("service.wire.encode")
        spans.add("wire.bytes_out", len(blob))
        return blob

    @functools.wraps(decode)
    def decode_payload(buf):
        spans.enter()
        try:
            return decode(buf)
        finally:
            spans.exit("service.wire.decode")

    transport.encode_payload = encode_payload
    transport.decode_payload = decode_payload

    def send_one(self, frame):
        spans.add("transport.sends")
        spans.add("transport.frames")
        flush = getattr(_tls, "flush_frames", None)
        if flush is not None:
            _tls.flush_frames = flush + 1

    _wrap(transport.TcpConnection, "send", "service.transport.send",
          before=send_one)
    send_many = transport.TcpConnection.__dict__["send_many"]

    @functools.wraps(send_many)
    def send_many_wrapper(self, frames):
        frames = list(frames)
        spans.add("transport.sends")
        spans.add("transport.frames", len(frames))
        flush = getattr(_tls, "flush_frames", None)
        if flush is not None:
            _tls.flush_frames = flush + len(frames)
        spans.enter()
        try:
            return send_many(self, frames)
        finally:
            spans.exit("service.transport.send")

    transport.TcpConnection.send_many = send_many_wrapper
    _wrap(transport.TcpConnection, "recv", "wait.recv")


def _dump(*_args) -> None:
    global _dumps
    directory = os.environ.get(TRACE_DIR_ENV, "")
    if not directory or _book is None:
        return
    _dumps += 1
    path = os.path.join(directory, f"{_role}.{_dumps}.json")
    tmp = path + ".tmp"
    snap = _book.snapshot()
    snap["pid"] = os.getpid()
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(snap, handle)
    os.replace(tmp, path)


def install(role: str) -> SpanBook:
    """Wrap every layer's entry points in this process (idempotent)
    and arm the ``SIGUSR1`` snapshot handler."""
    global _book, _role
    if _book is not None:
        return _book
    _book = SpanBook()
    _role = role
    _patch_layers()
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGUSR1, _dump)
    return _book


def traced_shard_main(spec) -> None:
    """Shard-process entry point with the layer wrappers installed."""
    install(spec.name)
    from repro.cluster import procs

    procs.shard_process_main(spec)


def traced_gateway_main(spec) -> None:
    """Gateway-worker entry point with the layer wrappers installed."""
    install(spec.name)
    from repro.cluster import procs

    procs.gateway_worker_main(spec)
