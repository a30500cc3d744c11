"""Seeded inputs and the shapes of the stacks under test.

Everything a run sends is a pure function of ``--seed``: flow ids,
Table 1 traffic types, delay requirements and window keys.  The
program under test only ever sees these generated requests.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

#: Closed-loop clients, each one thread with one connection.
CLIENTS = 2

# -- REST workloads ------------------------------------------------------

#: Live flows each REST client holds before and during the run.
REST_POPULATION = 100
#: Pod-path hops (all rate-based) and link capacity in b/s.
REST_HOPS = 3
REST_CAPACITY = 45e6
#: Delay requirement = the type's Table 1 loose bound times U(lo, hi).
REST_SLACK = (1.0, 1.25)

# -- edge delay-knee workload ----------------------------------------------

#: Admissions per pipelined window and distinct (TSpec, D_req) keys in it.
KNEE_WINDOW = 32
KNEE_KEYS = 4
#: Teardowns per window once the population stands (FIFO, oldest first).
KNEE_TEARDOWNS = 24
#: Admission-only windows that build the standing population.
KNEE_PREFILL_WINDOWS = 12
#: Capacity of every link on the two knee paths, in b/s.
KNEE_CAPACITY = 10e6
#: Delay requirement = the type's Table 1 loose bound times U(lo, hi).
KNEE_SLACK = (0.55, 1.0)
#: Packet size on every link, in bits (1500 bytes).
MAX_PACKET = 12000.0

#: Table 1 rows: (sigma b, rho b/s, peak b/s, L_max b, loose bound s).
TABLE1 = (
    (60000.0, 50000.0, 100000.0, MAX_PACKET, 2.44),
    (48000.0, 40000.0, 100000.0, MAX_PACKET, 2.74),
    (36000.0, 30000.0, 100000.0, MAX_PACKET, 3.24),
    (24000.0, 20000.0, 100000.0, MAX_PACKET, 4.24),
)

#: Gateway lease length in domain seconds: far beyond any run, so no
#: lease expires and the reaper never tears a benchmark flow down.
LEASE = 1e9


def spec_dict(type_id: int) -> Dict[str, float]:
    sigma, rho, peak, max_packet, _bound = TABLE1[type_id]
    return {"sigma": sigma, "rho": rho, "peak": peak,
            "max_packet": max_packet}


@dataclass(frozen=True)
class FlowInput:
    """One flow as the load generator requests it."""

    flow_id: str
    type_id: int
    delay_requirement: float
    path: Tuple[str, ...]

    @property
    def spec(self) -> Dict[str, float]:
        return spec_dict(self.type_id)


def agent_index(flow_id: str, agents: int = CLIENTS) -> int:
    """The REST tier's agent routing (``crc32(flow_id) % agents``)."""
    return zlib.crc32(flow_id.encode("utf-8")) % agents


def rest_flows(seed: int, client: int, path: Sequence[str]
               ) -> Iterator[FlowInput]:
    """Client *client*'s endless flow sequence for a REST workload.

    Ids are chosen so the REST tier routes every one of them to the
    client's own agent: two clients never queue behind one agent.
    """
    rng = random.Random(f"rest:{seed}:{client}")
    serial = 0
    while True:
        serial += 1
        flow_id = f"s{seed}c{client}n{serial}"
        if agent_index(flow_id) != client:
            continue
        type_id = rng.randrange(len(TABLE1))
        bound = TABLE1[type_id][4]
        yield FlowInput(flow_id, type_id,
                        bound * rng.uniform(*REST_SLACK), tuple(path))


def knee_path(client: int) -> Tuple[str, ...]:
    """Client *client*'s path: one rate-based hop, then two
    delay-based (VT-EDF) hops.  The two clients' paths share no link."""
    return (f"I{client}", f"C{client}", f"D{client}", f"E{client}")


def knee_links() -> List[Tuple[str, str, float, str, float]]:
    """``(src, dst, capacity, kind, max_packet)`` of the knee domain."""
    links = []
    for client in range(CLIENTS):
        nodes = knee_path(client)
        kinds = ("RATE_BASED", "DELAY_BASED", "DELAY_BASED")
        for (src, dst), kind in zip(zip(nodes, nodes[1:]), kinds):
            links.append((src, dst, KNEE_CAPACITY, kind, MAX_PACKET))
    return links


def knee_broker():
    """A fresh broker provisioned with the knee domain.  The stack
    serves from one; the oracle replays the WAL into another."""
    from repro.core.broker import BandwidthBroker
    from repro.vtrs.timestamps import SchedulerKind

    broker = BandwidthBroker()
    for src, dst, capacity, kind, max_packet in knee_links():
        broker.add_link(src, dst, capacity, SchedulerKind[kind],
                        max_packet=max_packet)
    for client in range(CLIENTS):
        broker.routing.pin_path(knee_path(client))
    return broker


def knee_windows(seed: int, client: int) -> Iterator[List[FlowInput]]:
    """Client *client*'s endless sequence of admission windows.

    Each window draws :data:`KNEE_KEYS` (type, D_req) keys with the
    delay requirement continuous, so distinct deadlines accumulate on
    the delay-based links, and cycles through them so the service's
    same-key batcher has work to coalesce.
    """
    rng = random.Random(f"knee:{seed}:{client}")
    path = knee_path(client)
    serial = 0
    while True:
        keys = []
        for _ in range(KNEE_KEYS):
            type_id = rng.randrange(len(TABLE1))
            keys.append((type_id,
                         TABLE1[type_id][4] * rng.uniform(*KNEE_SLACK)))
        window = []
        for index in range(KNEE_WINDOW):
            serial += 1
            type_id, requirement = keys[index % KNEE_KEYS]
            window.append(FlowInput(f"s{seed}k{client}n{serial}",
                                    type_id, requirement, path))
        yield window
