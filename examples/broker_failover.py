#!/usr/bin/env python3
"""Broker reliability: checkpoint, journal, failover, dimensioning.

The paper centralizes all QoS state in the broker and flags
reliability as the price (footnote 2). This example operates the
machinery that pays it:

1. a **primary** broker service serves a mixed request stream,
   write-ahead journaling every operation into a durable on-disk WAL
   (:class:`~repro.service.durability.FileJournal`);
2. a **checkpoint** is taken mid-stream; more requests follow;
3. the primary "crashes"; a **standby** runs `recover_broker` on the
   WAL directory — the checkpoint plus a replay of the journal suffix
   — and both answer the next request identically (verified);
4. the crash then tears the journal's tail record, and
   `recover_broker` still rebuilds a consistent state: the torn
   operation was never acknowledged, so it is dropped;
5. finally the broker's state is used for **buffer dimensioning**:
   the worst-case queue each router needs, computed centrally.

Run:  python examples/broker_failover.py
"""

import os
import random
import tempfile
import warnings

from repro.core import BandwidthBroker, ServiceClass, buffer_requirements
from repro.experiments.reporting import render_table
from repro.service import (
    BrokerService,
    FileJournal,
    recover_broker,
    write_checkpoint,
)
from repro.workloads.profiles import flow_type
from repro.workloads.topologies import SchedulerSetting, fig8_domain


def fresh_broker() -> BandwidthBroker:
    broker = BandwidthBroker()
    fig8_domain(SchedulerSetting.MIXED).provision_broker(broker)
    broker.register_class(ServiceClass("gold", 2.44, 0.24))
    return broker


def drive(service: BrokerService, count: int, rng: random.Random,
          start_index: int, now: float) -> float:
    active = []
    for offset in range(count):
        index = start_index + offset
        now += rng.uniform(20.0, 300.0)
        if rng.random() < 0.6 or not active:
            profile = flow_type(rng.randrange(4))
            use_class = rng.random() < 0.35
            reply = service.request(
                f"f{index}", profile.spec,
                0.0 if use_class else profile.loose_delay,
                "I1", "E1",
                service_class="gold" if use_class else "",
                now=now,
            )
            if reply.admitted:
                active.append(f"f{index}")
        else:
            service.teardown(active.pop(0), now=now)
    return now


def failover(state: str, rng: random.Random) -> BandwidthBroker:
    """Steps 1-4 against the WAL directory *state*."""
    wal = FileJournal(state)
    primary = BrokerService(fresh_broker(), workers=1, wal=wal).start()
    now = drive(primary, 30, rng, 0, 0.0)
    print(f"primary after 30 operations: "
          f"{primary.broker.stats().active_flows} active flows, "
          f"journal at seq {wal.position}")

    write_checkpoint(state, primary.broker, wal)
    marker = wal.position
    print(f"checkpoint taken at journal seq {marker}")

    now = drive(primary, 30, rng, 100, now)
    print(f"primary handled {wal.position - marker} more operations "
          f"after the checkpoint\n")

    # ---- the primary "crashes"; bring up the standby -----------------
    report = recover_broker(state)
    standby = report.broker
    print(f"standby restored seq {report.checkpoint_seq} and replayed "
          f"{report.applied} entries ({report.skipped} skipped as "
          f"deterministic failures)")
    a, b = primary.broker.stats(), standby.stats()
    print("failover check           primary  standby")
    print(f"  active flows          {a.active_flows:7d}  {b.active_flows:7d}")
    print(f"  macroflows            {a.macroflows:7d}  {b.macroflows:7d}")
    print(f"  link-state entries    {a.qos_state_entries:7d}  "
          f"{b.qos_state_entries:7d}")
    assert (a.active_flows, a.macroflows, a.qos_state_entries) == (
        b.active_flows, b.macroflows, b.qos_state_entries
    )

    spec = flow_type(0).spec
    now += 50.0
    d1 = primary.request("probe", spec, 2.19, "I1", "E1",
                         now=now).decision
    d2 = standby.request_service("probe", spec, 2.19, "I1", "E1", now=now)
    assert d1.admitted == d2.admitted and abs(d1.rate - d2.rate) < 1e-6
    print(f"  next decision         {'ADMIT' if d1.admitted else 'reject':>7}"
          f"  {'ADMIT' if d2.admitted else 'reject':>7}  "
          f"(r = {d1.rate:.1f} b/s on both)")
    primary.stop()
    wal.close()

    # ---- the crash tears the WAL's tail record -----------------------
    print("\nTorn-tail crash (the last record is half-written):")
    segment = max(
        os.path.join(state, name) for name in os.listdir(state)
        if name.startswith("wal-")
    )
    with open(segment, "r+b") as handle:
        handle.truncate(os.path.getsize(segment) - 5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        torn = recover_broker(state)
    assert torn.torn_tail and torn.applied == report.applied
    print(f"  recovered {torn.applied} entries "
          f"(torn tail: {torn.torn_tail}; "
          f"{len(caught)} warning(s))")
    print(f"  active flows after recovery: "
          f"{torn.broker.stats().active_flows} "
          f"(a crash mid-append tears only an unacknowledged record)")
    return standby


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-failover-") as state:
        standby = failover(state, random.Random(2026))

    # ---- buffer dimensioning from the same state ----------------------
    print("\nWorst-case buffer requirements (from broker state alone):")
    rows = [
        [f"{link_id[0]}->{link_id[1]}", bound.flows,
         f"{bound.bits / 8 / 1024:.1f}", f"{bound.packets_of:.0f}"]
        for link_id, bound in sorted(
            buffer_requirements(standby).items()
        )
    ]
    print(render_table(
        ["link", "reservations", "buffer (KiB)", "(1500B packets)"],
        rows,
    ))


if __name__ == "__main__":
    main()
