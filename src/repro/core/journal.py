"""Broker decision journal format: audit trail + exact failover replay.

Checkpoints (:mod:`repro.core.persistence`) alone leave a gap: every
request handled after the last checkpoint is lost on failover.  A
decision journal closes it — it records the *inputs* of every control
operation (service requests, terminations, time advances) in arrival
order, so a standby can

1. restore the latest checkpoint, then
2. :func:`replay` the journal suffix recorded after it,

and arrive at the primary's exact state: because every admission
decision is a deterministic function of broker state and request
inputs, replaying inputs reproduces decisions (verified by tests).
This module defines the record (:class:`JournalEntry`), the request
payload every writer uses (:func:`request_payload`) and the replayer;
the journal itself is the durable, file-backed
:class:`~repro.service.durability.FileJournal`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence, Tuple

from repro.errors import StateError
from repro.core.broker import BandwidthBroker
from repro.traffic.spec import TSpec

__all__ = [
    "JournalEntry",
    "replay",
    "request_payload",
]


def request_payload(flow_id: str, spec: TSpec, delay_requirement: float,
                    ingress: str, egress: str, *,
                    service_class: str = "", path_nodes=None,
                    now: float = 0.0) -> Dict[str, Any]:
    """The JSON-compatible journal payload of one service request.

    The service runtime writes it into the WAL and :func:`replay`
    reads it back, so both sides share one format.
    """
    return {
        "flow_id": flow_id,
        "spec": {
            "sigma": spec.sigma, "rho": spec.rho,
            "peak": spec.peak, "max_packet": spec.max_packet,
        },
        "delay_requirement": delay_requirement,
        "ingress": ingress,
        "egress": egress,
        "service_class": service_class,
        "path_nodes": list(path_nodes) if path_nodes is not None else None,
        "now": now,
    }


@dataclass(frozen=True)
class JournalEntry:
    """One recorded control operation.

    :param epoch: the primary **epoch** under which the entry was
        written (0 for an unreplicated broker).  Replication stamps a
        monotonically increasing epoch into every shipped record so a
        demoted primary's stale writes can be fenced off by followers
        (:mod:`repro.service.replication`); replay ignores it — the
        decision inputs are ``kind``/``payload`` alone.
    """

    seq: int
    kind: str  # "request" | "terminate" | "advance" | "feedback"
               # | "resize" | "lease"
    payload: Dict[str, Any]
    epoch: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation."""
        return {
            "seq": self.seq, "kind": self.kind, "payload": self.payload,
            "epoch": self.epoch,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "JournalEntry":
        """Inverse of :meth:`to_dict` (pre-epoch records read as 0)."""
        return JournalEntry(
            seq=data["seq"], kind=data["kind"], payload=data["payload"],
            epoch=int(data.get("epoch", 0)),
        )


def replay(broker: BandwidthBroker,
           entries: Sequence[JournalEntry],
           *, extension=None) -> Tuple[int, int]:
    """Apply journal *entries* to *broker* in order.

    Rejected requests are re-executed and re-rejected (their outcome is
    a function of the same state). Operations that *raised* on the
    primary (journaling is write-ahead, so a failed terminate is still
    recorded) raise identically here and are **skipped** — in both
    runs they mutated nothing, so equivalence is preserved. Unknown
    entry kinds raise.

    :param extension: optional hook ``extension(broker, entry) -> bool``
        consulted for entry kinds this function does not know.  A
        subsystem that journals its own record kinds into the shared
        WAL (e.g. the cluster 2PC entries of :mod:`repro.cluster`)
        passes a stateful applier here; returning ``False`` (or
        omitting the hook) keeps the unknown-kind :class:`StateError`.

    Returns ``(applied, skipped)``: entries executed to a decision
    versus entries whose re-execution raised the primary's
    deterministic :class:`~repro.errors.StateError` — so a recovery
    path can report exactly what it skipped instead of silently
    counting failures as applied.
    """
    applied = 0
    skipped = 0
    for entry in entries:
        payload = entry.payload
        try:
            if entry.kind == "request":
                spec = TSpec(
                    sigma=payload["spec"]["sigma"],
                    rho=payload["spec"]["rho"],
                    peak=payload["spec"]["peak"],
                    max_packet=payload["spec"]["max_packet"],
                )
                path_nodes = payload.get("path_nodes")
                broker.request_service(
                    payload["flow_id"], spec,
                    payload["delay_requirement"],
                    payload["ingress"], payload["egress"],
                    service_class=payload["service_class"],
                    path_nodes=(
                        tuple(path_nodes) if path_nodes is not None
                        else None
                    ),
                    now=payload["now"],
                )
            elif entry.kind == "terminate":
                broker.terminate(payload["flow_id"], now=payload["now"])
            elif entry.kind == "advance":
                broker.advance(payload["now"])
            elif entry.kind == "feedback":
                # Section 4.2.1 edge feedback: the macroflow's edge
                # buffer drained, so its contingency bandwidth is
                # released early.  Deterministic given state + inputs,
                # exactly like the other kinds.
                broker.aggregate.notify_edge_empty(
                    payload["macroflow_key"], payload["now"]
                )
            elif entry.kind == "resize":
                # Adaptive re-dimensioning (shrink clamps to the safe
                # floor broker-side; inflate is gated by capacity).
                # Both are deterministic functions of state + inputs,
                # so replay reproduces the committed rate exactly.
                if payload["mode"] == "shrink":
                    broker.aggregate.shrink(
                        payload["macroflow_key"], payload["rate"],
                        now=payload["now"],
                    )
                else:
                    broker.aggregate.inflate(
                        payload["macroflow_key"], payload["rate"],
                        now=payload["now"],
                    )
            elif entry.kind == "lease":
                # Edge-plane soft-state marker (grant/expire/reap of a
                # flow lease).  Leases live at the gateway, not in the
                # broker MIBs: the broker-visible effect of a reap is
                # its own "terminate" entry, so the marker replays as
                # a no-op — it exists so a restarted gateway can
                # rebuild its lease table from the same WAL.
                pass
            else:
                if extension is None or not extension(broker, entry):
                    raise StateError(
                        f"unknown journal entry kind {entry.kind!r}"
                    )
        except StateError:
            if entry.kind not in ("request", "terminate", "resize"):
                raise
            # The same deterministic failure occurred on the primary;
            # neither run mutated state for this entry.
            skipped += 1
            continue
        applied += 1
    return applied, skipped
