"""Correctness checks on a run's outputs, computed apart from the
program.

* capacity: every link's live reserved rates sum to at most its
  capacity;
* VT-EDF: every delay-based hop's live ``<r, d, L>`` set meets eq. (5)
  at every deadline breakpoint, and its rates fit the link;
* delay: every admitted flow's ``<r, d>`` meets its delay requirement
  under the paper's end-to-end bound (eq. 4), evaluated here;
* oracle: a single fresh ``BandwidthBroker`` fed the WAL's admits and
  teardowns in commit order decides every admission exactly as the
  client was told, and ends holding exactly the live state;
* 2PC: no ``txn:`` hold and no unresolved coordinator op survives.

Each check returns a list of human-readable findings; an empty list
means the check passed.
"""

from __future__ import annotations

import math
import os
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from perfbench import inputs

#: Relative tolerance for comparing rates and delay bounds.
REL_TOL = 1e-9
#: Absolute slack (b/s, bits) for floating-point sums over a link.
ABS_TOL = 1e-6


def base_key(key: str) -> str:
    """A reservation key reduced to its flow id (``f#2`` -> ``f``)."""
    return key.split("#")[0]


# ----------------------------------------------------------------------
# properties of the live state
# ----------------------------------------------------------------------


def check_capacity(capacity: Mapping[str, float],
                   rates: Mapping[str, Mapping[str, float]]) -> List[str]:
    """Sum of live reserved rates per link must not exceed capacity."""
    findings = []
    for label, per_key in sorted(rates.items()):
        total = math.fsum(per_key.values())
        if total > capacity[label] * (1 + REL_TOL) + ABS_TOL:
            findings.append(
                f"capacity: {label} carries {total:.3f} b/s over "
                f"{capacity[label]:.3f} b/s")
    return findings


def check_vt_edf(label: str, capacity: float,
                 entries: Sequence[Tuple[float, float, float]]
                 ) -> List[str]:
    """Eq. (5) on one delay-based hop.

    ``sum_j [r_j (t - d_j) + L_j] 1{t >= d_j} <= C t`` must hold for
    every t; the left side is piecewise linear with breakpoints at the
    deadlines, so it suffices to test every distinct deadline plus the
    slope ``sum_j r_j <= C``.
    """
    findings = []
    slope = math.fsum(rate for rate, _d, _l in entries)
    if slope > capacity * (1 + REL_TOL) + ABS_TOL:
        findings.append(f"vt-edf: {label} rate sum {slope:.3f} > "
                        f"capacity {capacity:.3f}")
    for t in sorted({deadline for _r, deadline, _l in entries}):
        demand = math.fsum(
            rate * (t - deadline) + packet
            for rate, deadline, packet in entries if deadline <= t
        )
        if demand > capacity * t * (1 + REL_TOL) + ABS_TOL:
            findings.append(
                f"vt-edf: {label} demand {demand:.3f} b exceeds "
                f"service {capacity * t:.3f} b at t={t:.6f}s")
            break
    return findings


def e2e_delay_bound(spec: Mapping[str, float], rate: float, delay: float,
                    hops: Sequence[Tuple[str, float, float]]) -> float:
    """The paper's end-to-end bound, eq. (4), for one reservation.

    ``T_on (P - r)/r + (q + 1) L/r + (h - q) d + D_tot`` with
    ``T_on = (sigma - L) / (P - rho)``, ``q`` the rate-based hops of
    the ``h`` hops and ``D_tot = sum_i L_i / C_i`` (error terms of the
    core-stateless schedulers; propagation is zero in these domains).
    *hops* lists ``(kind, capacity, max_packet)`` per hop.
    """
    sigma, rho, peak = spec["sigma"], spec["rho"], spec["peak"]
    packet = spec["max_packet"]
    t_on = (sigma - packet) / (peak - rho)
    r = min(rate, peak)
    h = len(hops)
    q = sum(1 for kind, _c, _l in hops if kind == "RATE_BASED")
    d_tot = math.fsum(link_packet / cap for _k, cap, link_packet in hops)
    return (t_on * (peak - r) / r + (q + 1) * packet / rate
            + (h - q) * delay + d_tot)


def check_delay_bounds(admitted: Mapping[str, Dict[str, Any]],
                       hops_of: Mapping[Tuple[str, ...],
                                        Sequence[Tuple[str, float, float]]]
                       ) -> List[str]:
    """Every admitted ``<r, d>`` must meet its flow's requirement."""
    findings = []
    for flow_id, flow in sorted(admitted.items()):
        bound = e2e_delay_bound(flow["spec"], flow["rate"], flow["delay"],
                                hops_of[tuple(flow["path"])])
        if flow["rate"] < flow["spec"]["rho"] * (1 - REL_TOL):
            findings.append(f"delay: {flow_id} rate {flow['rate']:.3f} "
                            f"below its sustained rate")
        if bound > flow["delay_requirement"] * (1 + REL_TOL):
            findings.append(
                f"delay: {flow_id} bound {bound:.6f}s exceeds its "
                f"requirement {flow['delay_requirement']:.6f}s")
    return findings


def check_no_holds(dumps: Mapping[str, Dict[str, Any]],
                   unresolved: Mapping[str, Any]) -> List[str]:
    """No 2PC hold and no parked coordinator op may survive a run."""
    findings = []
    for shard, dump in sorted(dumps.items()):
        if dump.get("status") != "ok":
            findings.append(f"2pc: shard {shard} answered {dump!r:.80}")
            continue
        for label, state in sorted(dump.get("links", {}).items()):
            for key in state.get("keys", []):
                if key.startswith("txn:"):
                    findings.append(f"2pc: {shard} {label} holds {key}")
    for shard, ops in sorted(unresolved.items()):
        if ops:
            findings.append(f"2pc: {len(ops)} unresolved op(s) on {shard}")
    return findings


# ----------------------------------------------------------------------
# the oracle: one broker fed the WAL in commit order
# ----------------------------------------------------------------------


def _spec(payload: Mapping[str, float]):
    from repro.traffic.spec import TSpec

    return TSpec(sigma=payload["sigma"], rho=payload["rho"],
                 peak=payload["peak"], max_packet=payload["max_packet"])


def _same(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare_decision(flow_id: str, decision, told: Mapping[str, Any]
                     ) -> List[str]:
    """The oracle's decision against what the client was answered."""
    if told is None:
        return [f"oracle: {flow_id} decided in the WAL but never "
                f"answered to a client"]
    if bool(decision.admitted) != bool(told["admitted"]):
        return [f"oracle: {flow_id} oracle admitted={decision.admitted}, "
                f"client told admitted={told['admitted']}"]
    if decision.admitted and not (
            _same(decision.rate, told["rate"])
            and _same(decision.delay, told["delay"])):
        return [f"oracle: {flow_id} oracle <{decision.rate!r}, "
                f"{decision.delay!r}> vs client <{told['rate']!r}, "
                f"{told['delay']!r}>"]
    return []


def oracle_state(broker) -> Dict[str, Dict[str, float]]:
    """Per-link ``{base key: rate}`` of a broker."""
    view: Dict[str, Dict[str, float]] = {}
    for link in broker.node_mib.links():
        label = f"{link.link_id[0]}->{link.link_id[1]}"
        view[label] = {}
        for key in link.reservation_keys():
            view[label][base_key(key)] = link.rate_of(key)
    return view


def compare_live(oracle: Mapping[str, Mapping[str, float]],
                 live_keys: Mapping[str, Iterable[str]],
                 live_reserved: Mapping[str, float]) -> List[str]:
    """Oracle per-link state against the live stack's."""
    findings = []
    for label in sorted(set(oracle) | set(live_keys)):
        want = oracle.get(label, {})
        got = sorted(base_key(k) for k in live_keys.get(label, ()))
        if sorted(want) != got:
            extra = sorted(set(got) - set(want))[:3]
            missing = sorted(set(want) - set(got))[:3]
            findings.append(f"oracle: {label} live keys differ "
                            f"(extra {extra}, missing {missing})")
        total = math.fsum(want.values())
        reserved = live_reserved.get(label, 0.0)
        if not math.isclose(total, reserved, rel_tol=1e-7, abs_tol=1e-3):
            findings.append(f"oracle: {label} live reserves {reserved!r} "
                            f"b/s, oracle {total!r}")
    return findings


def replay_service_wal(wal_dir: str, broker,
                       told: Mapping[str, Mapping[str, Any]]
                       ) -> Tuple[List[str], int]:
    """Feed one service WAL's admits and teardowns to *broker* in
    journal order, checking every decision; returns the findings and
    the number of admissions replayed."""
    from repro.service.durability import read_journal

    findings: List[str] = []
    decided = 0
    for entry in read_journal(wal_dir).entries:
        payload = entry.payload
        if entry.kind == "request":
            path = payload.get("path_nodes")
            decision = broker.request_service(
                payload["flow_id"], _spec(payload["spec"]),
                payload["delay_requirement"], payload["ingress"],
                payload["egress"],
                path_nodes=tuple(path) if path else None,
                now=payload["now"],
            )
            decided += 1
            findings += compare_decision(payload["flow_id"], decision,
                                         told.get(payload["flow_id"]))
        elif entry.kind == "terminate":
            broker.terminate(payload["flow_id"], now=payload["now"])
        elif entry.kind != "lease":
            findings.append(f"oracle: unexpected WAL entry {entry.kind!r}")
    return findings, decided


def cluster_events(wal_root: str) -> List[Tuple[float, int, str, Dict]]:
    """Every shard's and the coordinator's committed admits and
    teardowns, ordered by the domain time each request carried.

    Each shard's WAL is in its own commit order; across shards the
    load generator's domain clock (one shared, strictly increasing
    counter) orders them.  Spanning flows appear once (the
    coordinator's commit decision) and leave once (their first
    segment release); their spec comes from the ``cprepare`` record.
    """
    from repro.service.durability import read_journal

    events: List[Tuple[float, int, str, Dict]] = []
    prepared: Dict[str, Dict[str, Any]] = {}
    released = set()
    seq = 0
    shards = sorted(name for name in os.listdir(wal_root)
                    if name != "coordinator")
    for name in shards:
        for entry in read_journal(os.path.join(wal_root, name)).entries:
            payload, seq = entry.payload, seq + 1
            if entry.kind in ("request", "terminate"):
                events.append((payload["now"], seq, entry.kind, payload))
            elif entry.kind == "cprepare":
                prepared[payload["flow_id"]] = payload
            elif entry.kind == "crelease" and \
                    payload["flow_id"] not in released:
                released.add(payload["flow_id"])
                events.append((payload["now"], seq, "terminate", payload))
    coordinator = os.path.join(wal_root, "coordinator")
    for entry in read_journal(coordinator).entries:
        payload, seq = entry.payload, seq + 1
        if entry.kind == "cdecide" and payload["outcome"] == "commit":
            txn = prepared[payload["flow_id"]]
            nodes = payload["nodes"]
            events.append((payload["now"], seq, "request", {
                "flow_id": payload["flow_id"], "spec": txn["spec"],
                "delay_requirement": txn["delay_requirement"],
                "ingress": nodes[0], "egress": nodes[-1],
                "path_nodes": nodes, "now": payload["now"],
            }))
    events.sort(key=lambda event: (event[0], event[1]))
    return events


def replay_cluster(wal_root: str, broker,
                   told: Mapping[str, Mapping[str, Any]]
                   ) -> Tuple[List[str], int]:
    findings: List[str] = []
    decided = 0
    for _now, _seq, kind, payload in cluster_events(wal_root):
        if kind == "terminate":
            broker.terminate(payload["flow_id"], now=payload["now"])
            continue
        decision = broker.request_service(
            payload["flow_id"], _spec(payload["spec"]),
            payload["delay_requirement"], payload["ingress"],
            payload["egress"], path_nodes=tuple(payload["path_nodes"]),
            now=payload["now"],
        )
        decided += 1
        findings += compare_decision(payload["flow_id"], decision,
                                     told.get(payload["flow_id"]))
    return findings, decided


def fused_broker(links: Sequence[Sequence[Any]],
                 paths: Iterable[Sequence[str]]):
    """One broker owning every link of a domain, paths pinned."""
    from repro.core.broker import BandwidthBroker
    from repro.vtrs.timestamps import SchedulerKind

    broker = BandwidthBroker()
    for src, dst, capacity, kind, max_packet in links:
        broker.add_link(src, dst, capacity, SchedulerKind[kind],
                        max_packet=max_packet)
    for nodes in paths:
        broker.routing.pin_path(tuple(nodes))
    return broker


def hops_of_path(links: Sequence[Sequence[Any]], path: Sequence[str]
                 ) -> List[Tuple[str, float, float]]:
    table = {(src, dst): (kind, capacity, packet)
             for src, dst, capacity, kind, packet in links}
    return [table[(src, dst)] for src, dst in zip(path, path[1:])]


def rest_findings(ready: Dict[str, Any], state: Dict[str, Any],
                  wal_root: str, told: Dict[str, Dict[str, Any]],
                  live: Dict[str, Dict[str, Any]]) -> Tuple[List[str], int]:
    """All checks for a REST (multi-process cluster) run."""
    links = ready["links"]
    paths = [tuple(p) for p in ready["pod_paths"] + ready["spanning_paths"]]
    findings = check_no_holds(state["dumps"], state["unresolved"])
    supervisor = state["supervisor"]
    if supervisor["restarts_total"] or supervisor["failed"]:
        findings.append(f"stack: process restarts {supervisor!r}")
    capacity = {f"{s}->{d}": c for s, d, c, _k, _l in links}
    rates: Dict[str, Dict[str, float]] = {label: {} for label in capacity}
    for flow_id, flow in live.items():
        for src, dst in zip(flow["path"], flow["path"][1:]):
            rates[f"{src}->{dst}"][flow_id] = flow["rate"]
    findings += check_capacity(capacity, rates)
    findings += check_delay_bounds(
        live, {path: hops_of_path(links, path) for path in paths})
    oracle = fused_broker(links, paths)
    replay, decided = replay_cluster(wal_root, oracle, told)
    findings += replay
    live_keys: Dict[str, List[str]] = {}
    live_reserved: Dict[str, float] = {}
    for dump in state["dumps"].values():
        for label, link in dump.get("links", {}).items():
            live_keys[label] = list(link["keys"])
            live_reserved[label] = float(link["reserved_rate"])
    findings += compare_live(oracle_state(oracle), live_keys, live_reserved)
    findings += compare_client_view(oracle_state(oracle), rates)
    return findings, decided


def compare_client_view(oracle: Mapping[str, Mapping[str, float]],
                        client: Mapping[str, Mapping[str, float]]
                        ) -> List[str]:
    """The flows the clients believe live, at the rates they were
    granted, against the oracle's links."""
    findings = []
    for label in sorted(set(oracle) | set(client)):
        want, got = oracle.get(label, {}), client.get(label, {})
        if sorted(want) != sorted(got):
            findings.append(f"oracle: {label} clients hold "
                            f"{len(got)} flows, oracle {len(want)}")
            continue
        for key, rate in got.items():
            if not _same(rate, want[key]):
                findings.append(f"oracle: {label} {key} client rate "
                                f"{rate!r}, oracle {want[key]!r}")
                break
    return findings


def knee_findings(state: Dict[str, Any], wal_dir: str,
                  told: Dict[str, Dict[str, Any]],
                  live: Dict[str, Dict[str, Any]]) -> Tuple[List[str], int]:
    """All checks for the edge delay-knee run."""
    links = inputs.knee_links()
    capacity = {f"{s}->{d}": c for s, d, c, _k, _l in links}
    live_links = state["links"]
    findings = check_capacity(
        capacity, {label: link["rates"] for label, link in
                   live_links.items()})
    for label, link in sorted(live_links.items()):
        if link["kind"] == "DELAY_BASED":
            findings += check_vt_edf(
                label, capacity[label],
                [(rate, deadline, packet)
                 for _key, rate, deadline, packet in link["ledger"]])
    paths = [inputs.knee_path(c) for c in range(inputs.CLIENTS)]
    findings += check_delay_bounds(
        live, {path: hops_of_path(links, path) for path in paths})
    oracle = inputs.knee_broker()
    replay, decided = replay_service_wal(wal_dir, oracle, told)
    findings += replay
    findings += compare_live(
        oracle_state(oracle),
        {label: list(link["rates"]) for label, link in live_links.items()},
        {label: link["reserved_rate"] for label, link in
         live_links.items()})
    client_rates: Dict[str, Dict[str, float]] = {l: {} for l in capacity}
    for flow_id, flow in live.items():
        for src, dst in zip(flow["path"], flow["path"][1:]):
            client_rates[f"{src}->{dst}"][flow_id] = flow["rate"]
    findings += compare_client_view(oracle_state(oracle), client_rates)
    return findings, decided
