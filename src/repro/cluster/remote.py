"""Shard handles: in-process and over the length-prefixed transport.

The coordinator talks to shards through a uniform duck-typed handle —
``admit/teardown/view/prepare/commit/abort/release/reap/status/stats/
dump``
each taking a JSON-compatible frame and returning one.  Two
implementations:

* :class:`LocalShardHandle` — direct method calls on a
  :class:`~repro.cluster.shard.BrokerShard` in the same process (the
  benchmark default; the shared-nothing isolation is the shard's own
  locks and WAL, not the process boundary).
* :class:`RemoteShardHandle` + :class:`ShardServer` — the same ops
  framed over :mod:`repro.service.transport` (pipe or TCP).  Requests
  carry a client sequence number; the handle resends on timeout and
  matches replies by it.  Resends are safe end to end because every
  shard op is idempotent by txid/flow id — the at-least-once
  transport composes with the participant's exactly-once effects.

The server and client halves are split into reusable bases —
:class:`FrameServer` (accept loop, per-connection reader threads,
hello codec negotiation, keepalive pongs) and :class:`RemoteOpClient`
(seq-matched request/reply with resend) — so the multi-process layer
(:mod:`repro.cluster.procs`) serves its coordinator over the exact
same machinery.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, Optional, Tuple

from repro.errors import SignalingError
from repro.service.transport import (
    TransportClosed,
    is_ping,
    pong_frame,
)
from repro.service.wire import CODEC_JSON, CODECS, negotiate_codec

from repro.cluster.shard import BrokerShard

__all__ = [
    "FrameServer",
    "LocalShardHandle",
    "RemoteOpClient",
    "RemoteShardHandle",
    "ShardServer",
]

_OPS = (
    "admit", "teardown", "view", "prepare", "commit", "abort",
    "release", "reap", "status", "stats", "dump",
)


class LocalShardHandle:
    """Direct in-process handle to a :class:`BrokerShard`."""

    def __init__(self, shard: BrokerShard) -> None:
        self.shard = shard

    def admit(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return self.shard.admit(frame)

    def teardown(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return self.shard.teardown(frame)

    def view(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return self.shard.view(frame)

    def prepare(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return self.shard.prepare(frame)

    def commit(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return self.shard.commit(frame)

    def abort(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return self.shard.abort(frame)

    def release(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return self.shard.release(frame)

    def reap(self, now: float) -> Dict[str, Any]:
        return self.shard.reap(now)

    def status(self) -> Dict[str, Any]:
        return self.shard.status()

    def stats(self) -> Dict[str, Any]:
        return self.shard.stats()

    def dump(self) -> Dict[str, Any]:
        return self.shard.dump()


class FrameServer:
    """Serve op frames from any number of transport connections.

    Each accepted connection gets its own reader thread (concurrent
    coordinator connections — a pooled handle — are served in
    parallel; per-op serialization is the handle's own job, e.g. the
    shard's operation lock).  The server answers transport keepalive
    pings and negotiates the wire codec on a ``hello`` op.

    :param handle: the object ops are dispatched to.
    :param ops: the allowed op names (anything else is answered with
        ``unknown-op`` instead of being looked up — the wire surface
        is a allow-list, not ``getattr`` on arbitrary strings).
    """

    #: Ops invoked as ``handle.<op>()`` with no frame argument.
    _NO_FRAME_OPS: Tuple[str, ...] = ("status", "stats", "dump")

    def __init__(self, handle: Any, ops: Tuple[str, ...]) -> None:
        self.handle = handle
        self.ops = tuple(ops)
        self.frames_served = 0
        self._closing = threading.Event()
        self._threads: list = []
        self._conns: list = []
        self._lock = threading.Lock()

    @property
    def closing(self) -> bool:
        return self._closing.is_set()

    def serve_connection(self, conn, *, background: bool = True):
        """Serve frames from *conn* until it closes."""
        if background:
            thread = threading.Thread(
                target=self._serve, args=(conn,), daemon=True,
            )
            thread.start()
            with self._lock:
                self._threads.append(thread)
            return thread
        self._serve(conn)
        return None

    def serve_listener(self, listener) -> threading.Thread:
        """Accept-and-serve loop for a :class:`TcpListener`.

        Every accepted connection is served on its own thread, so N
        client connections (a pooled remote handle, or several
        gateway workers dialing one coordinator) proceed
        concurrently.
        """
        def loop() -> None:
            while not self._closing.is_set():
                try:
                    conn = listener.accept(timeout=0.2)
                except (OSError, TransportClosed):
                    return
                if conn is not None:
                    with self._lock:
                        self._conns.append(conn)
                    self.serve_connection(conn)
        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        with self._lock:
            self._threads.append(thread)
        return thread

    def _serve(self, conn) -> None:
        while not self._closing.is_set():
            try:
                frame = conn.recv(timeout=0.2)
            except TransportClosed:
                return
            if frame is None:
                continue
            if is_ping(frame):
                try:
                    conn.send(pong_frame(frame))
                except TransportClosed:
                    return
                continue
            if frame.get("op") == "hello":
                # Codec negotiation (the reply itself is sent in the
                # pre-negotiation codec; an old coordinator never
                # sends hello and stays on JSON).
                codec = negotiate_codec(frame.get("codecs"))
                try:
                    conn.send({
                        "status": "ok", "codec": codec,
                        "client_seq": frame.get("client_seq"),
                    })
                except TransportClosed:
                    return
                if hasattr(conn, "set_codec"):
                    conn.set_codec(codec)
                self.frames_served += 1
                continue
            reply = self._dispatch(frame)
            try:
                conn.send(reply)
            except TransportClosed:
                return
            self.frames_served += 1

    def _invoke(self, op: str, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Run one allowed op against the handle (override to adapt
        argument shapes)."""
        if op == "reap":
            return self.handle.reap(frame.get("now", 0.0))
        if op in self._NO_FRAME_OPS:
            return getattr(self.handle, op)()
        return getattr(self.handle, op)(frame)

    def _dispatch(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        op = frame.get("op", "")
        seq = frame.get("client_seq")
        if op not in self.ops:
            return {
                "status": "error", "error": "unknown-op",
                "detail": f"op {op!r}", "client_seq": seq,
            }
        try:
            result = self._invoke(op, frame)
        except Exception as exc:  # surface, never kill the loop
            result = {
                "status": "error", "error": type(exc).__name__,
                "detail": str(exc),
            }
        result = dict(result)
        result["client_seq"] = seq
        return result

    def close(self) -> None:
        self._closing.set()
        with self._lock:
            threads, self._threads = self._threads, []
            conns, self._conns = self._conns, []
        for thread in threads:
            thread.join(timeout=2.0)
        for conn in conns:
            try:
                conn.close()
            except Exception:
                pass


class ShardServer(FrameServer):
    """Serves one shard's ops over transport connections."""

    def __init__(self, shard: BrokerShard, *,
                 handle: Optional[Any] = None) -> None:
        super().__init__(
            handle if handle is not None else LocalShardHandle(shard),
            _OPS,
        )
        self.shard = shard


class RemoteOpClient:
    """Client half of the op-frame protocol (seq-matched, resending).

    Each call sends an op frame stamped with a client sequence
    number, then waits for the matching reply; on timeout the frame
    is resent (idempotent receiver) up to ``retries`` times before
    raising :class:`SignalingError`.  Stale replies (an earlier
    attempt's answer arriving late) are discarded by sequence match.
    ``_call`` holds the handle lock for the whole round trip — one
    connection carries one op at a time; use a pool of handles for
    concurrency.
    """

    def __init__(self, conn, *, timeout: float = 5.0,
                 retries: int = 2,
                 codecs: Optional[tuple] = None) -> None:
        self.conn = conn
        self.timeout = timeout
        self.retries = retries
        self.codecs = tuple(codecs) if codecs is not None else CODECS
        #: ``None`` until the first op triggers negotiation.
        self.negotiated_codec: Optional[str] = None
        self._seq = itertools.count(1)
        self._lock = threading.Lock()
        self.resends = 0

    def _negotiate(self) -> None:
        """One-shot codec negotiation (caller holds ``_lock``).

        Sends a ``hello`` op; a new server answers with the chosen
        codec, an old server answers ``unknown-op`` — either way the
        handle ends up on a codec both sides speak (JSON when in
        doubt).  A transport error leaves JSON set; the next real op
        surfaces the failure through its own retry path.
        """
        self.negotiated_codec = CODEC_JSON
        seq = next(self._seq)
        try:
            self.conn.send({
                "op": "hello", "client_seq": seq,
                "codecs": list(self.codecs),
            })
            deadline_budget = self.timeout
            while True:
                reply = self.conn.recv(timeout=deadline_budget)
                if reply is None:
                    return
                if reply.get("client_seq") != seq:
                    continue
                codec = reply.get("codec")
                if reply.get("status") == "ok" and codec in self.codecs:
                    self.negotiated_codec = codec
                    if hasattr(self.conn, "set_codec"):
                        self.conn.set_codec(codec)
                return
        except TransportClosed:
            return

    def _call(self, op: str, frame: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            if self.negotiated_codec is None:
                self._negotiate()
            seq = next(self._seq)
            message = dict(frame)
            message["op"] = op
            message["client_seq"] = seq
            for attempt in range(self.retries + 1):
                if attempt:
                    self.resends += 1
                try:
                    self.conn.send(message)
                    deadline_budget = self.timeout
                    while True:
                        reply = self.conn.recv(timeout=deadline_budget)
                        if reply is None:
                            break  # timed out: resend
                        if reply.get("client_seq") == seq:
                            return reply
                        # A stale reply from a resent earlier op.
                except TransportClosed:
                    break
            raise SignalingError(
                f"peer unreachable: no reply to {op!r} "
                f"after {self.retries + 1} attempt(s)"
            )

    def close(self) -> None:
        self.conn.close()


class RemoteShardHandle(RemoteOpClient):
    """Coordinator-side shard handle over a transport connection."""

    def admit(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return self._call("admit", frame)

    def teardown(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return self._call("teardown", frame)

    def view(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return self._call("view", frame)

    def prepare(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return self._call("prepare", frame)

    def commit(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return self._call("commit", frame)

    def abort(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return self._call("abort", frame)

    def release(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return self._call("release", frame)

    def reap(self, now: float) -> Dict[str, Any]:
        return self._call("reap", {"now": now})

    def status(self) -> Dict[str, Any]:
        return self._call("status", {})

    def stats(self) -> Dict[str, Any]:
        return self._call("stats", {})

    def dump(self) -> Dict[str, Any]:
        return self._call("dump", {})
