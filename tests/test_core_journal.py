"""Decision journal + checkpoint = exact warm failover, on the WAL.

The journal is the durable :class:`~repro.service.durability.
FileJournal` the service runtime write-aheads every control operation
into; recovery is :func:`~repro.service.durability.recover_broker`
(newest checkpoint + :func:`~repro.core.journal.replay` of the suffix).
"""

import json
import random

import pytest

from repro.core.aggregate import ServiceClass
from repro.core.broker import BandwidthBroker
from repro.core.journal import JournalEntry, replay
from repro.errors import StateError
from repro.service.durability import (
    FileJournal,
    read_journal,
    recover_broker,
    write_checkpoint,
)
from repro.service.runtime import BrokerService
from repro.workloads.profiles import flow_type
from repro.workloads.topologies import SchedulerSetting, fig8_domain


def fig8_broker():
    broker = BandwidthBroker()
    fig8_domain(SchedulerSetting.MIXED).provision_broker(broker)
    broker.register_class(ServiceClass("gold", 2.44, 0.24))
    return broker


@pytest.fixture()
def primary(tmp_path):
    """A WAL-backed service over the Figure 8 broker (the primary)."""
    wal = FileJournal(str(tmp_path), fsync=False)
    service = BrokerService(fig8_broker(), workers=1, wal=wal).start()
    yield service
    service.stop()
    wal.close()


def kinds(service):
    return [entry.kind
            for entry in read_journal(service.wal.directory).entries]


def recover(service, **kwargs):
    """Fail over: rebuild a standby broker from the primary's WAL."""
    return recover_broker(service.wal.directory, **kwargs)


def failed_terminate(service, flow_id, now=0.0):
    """A terminate journaled write-ahead that then raised on the
    primary (as when two teardowns of one flow race past the
    service's existence check)."""
    service.wal.append("terminate", {"flow_id": flow_id, "now": now})
    service.wal.commit()
    with pytest.raises(StateError):
        service.broker.terminate(flow_id, now=now)


class TestJournalBasics:
    def test_entries_sequence(self, tmp_path):
        journal = FileJournal(str(tmp_path), fsync=False)
        a = journal.append("request", {"x": 1})
        b = journal.append("terminate", {"y": 2})
        assert (a.seq, b.seq) == (1, 2)
        assert journal.position == 2
        journal.close()
        assert len(read_journal(str(tmp_path)).entries) == 2

    def test_entries_after(self, tmp_path):
        journal = FileJournal(str(tmp_path), fsync=False)
        for index in range(5):
            journal.append("advance", {"now": float(index)})
        journal.commit()
        suffix = journal.entries_after(3)
        assert [entry.seq for entry in suffix] == [4, 5]
        journal.close()

    def test_empty_position_zero(self, tmp_path):
        journal = FileJournal(str(tmp_path), fsync=False)
        assert journal.position == 0
        journal.close()

    def test_entry_roundtrips_through_json(self):
        entry = JournalEntry(seq=7, kind="request", payload={"a": 1.5})
        clone = JournalEntry.from_dict(
            json.loads(json.dumps(entry.to_dict()))
        )
        assert clone == entry

    def test_replay_unknown_kind_raises(self):
        broker = BandwidthBroker()
        with pytest.raises(StateError):
            replay(broker, [JournalEntry(1, "frobnicate", {})])


class TestJournaledBroker:
    """The service journals every control operation write-ahead."""

    def test_operations_recorded(self, primary, type0_spec):
        primary.request("f1", type0_spec, 2.44, "I1", "E1")
        primary.teardown("f1")
        primary.advance(100.0)
        assert kinds(primary) == ["request", "terminate", "advance"]

    def test_rejections_also_recorded(self, primary, type0_spec):
        reply = primary.request("f1", type0_spec, 0.2, "I1", "E1")
        assert not reply.admitted
        assert kinds(primary) == ["request"]


class TestWarmFailover:
    def drive(self, service, operations, rng, now=0.0):
        """Apply a random operation mix through the primary."""
        spec_pool = [flow_type(i).spec for i in range(4)]
        active = []
        for index in range(operations):
            now += rng.uniform(10.0, 400.0)
            roll = rng.random()
            if roll < 0.55 or not active:
                spec = rng.choice(spec_pool)
                use_class = rng.random() < 0.4
                reply = service.request(
                    f"f{now:.3f}", spec,
                    0.0 if use_class else rng.uniform(2.5, 6.0),
                    "I1", "E1",
                    service_class="gold" if use_class else "",
                    now=now,
                )
                if reply.admitted:
                    active.append(f"f{now:.3f}")
            elif roll < 0.85:
                service.teardown(
                    active.pop(rng.randrange(len(active))), now=now
                )
            else:
                service.advance(now)
        return now

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_checkpoint_plus_replay_equals_primary(self, seed, primary,
                                                   type0_spec):
        rng = random.Random(seed)
        # Phase 1: operations before the checkpoint.
        now = self.drive(primary, 25, rng)
        write_checkpoint(primary.wal.directory, primary.broker,
                         primary.wal)
        # Phase 2: operations after the checkpoint.
        now = self.drive(primary, 25, rng, now)

        # Failover: restore the checkpoint + replay the suffix.
        report = recover(primary)
        assert report.checkpoint_path is not None
        standby = report.broker

        a, b = primary.broker.stats(), standby.stats()
        assert (a.active_flows, a.macroflows, a.qos_state_entries) == (
            b.active_flows, b.macroflows, b.qos_state_entries
        )
        for link in primary.broker.node_mib.links():
            twin = standby.node_mib.link(*link.link_id)
            assert twin.reserved_rate == pytest.approx(link.reserved_rate)
        # And the next decision is identical on both.
        now += 100.0
        d1 = primary.request("post", type0_spec, 2.19, "I1", "E1",
                             now=now).decision
        d2 = standby.request_service("post", type0_spec, 2.19, "I1",
                                     "E1", now=now)
        assert d1.admitted == d2.admitted
        if d1.admitted:
            assert d1.rate == pytest.approx(d2.rate)
            assert d1.delay == pytest.approx(d2.delay)

    def test_replay_from_empty_checkpoint(self, primary, type0_spec):
        """Replaying the whole journal onto a fresh broker works too
        (checkpointless cold recovery)."""
        primary.request("f1", type0_spec, 2.44, "I1", "E1")
        primary.request("f2", type0_spec, 0.0, "I1", "E1",
                        service_class="gold", now=10.0)
        primary.teardown("f1", now=20.0)

        report = recover(primary, broker_factory=fig8_broker)
        assert (report.applied, report.skipped) == (3, 0)
        assert report.broker.stats().active_flows == (
            primary.broker.stats().active_flows
        )


class TestWriteAheadFailures:
    def test_failed_terminate_replays_harmlessly(self, primary,
                                                 type0_spec):
        """The WAL can hold a terminate that raised on the primary;
        replay must skip it identically instead of crashing the
        standby."""
        primary.request("f1", type0_spec, 2.44, "I1", "E1")
        failed_terminate(primary, "ghost")
        assert len(kinds(primary)) == 2
        report = recover(primary, broker_factory=fig8_broker)
        assert (report.applied, report.skipped) == (1, 1)
        assert report.broker.stats().active_flows == 1

    def test_unknown_kind_still_raises(self):
        with pytest.raises(StateError):
            replay(fig8_broker(), [JournalEntry(1, "frobnicate", {})])

    def test_capacity_rejections_replay_as_applied(self, primary,
                                                   type0_spec):
        """A capacity rejection is a *decision*, not a failure: replay
        re-executes and re-rejects it, counting it applied — only
        entries that raised on the primary count as skipped — and the
        replayed broker's next decisions match the primary's."""
        admitted = rejected = 0
        index = 0
        # Saturate the I1->E1 capacity so the tail of the stream is
        # genuinely rejected for bandwidth.
        while rejected < 3 and index < 400:
            reply = primary.request(
                f"f{index}", type0_spec, 2.44, "I1", "E1",
                now=float(index),
            )
            if reply.admitted:
                admitted += 1
            else:
                rejected += 1
            index += 1
        assert admitted > 0 and rejected >= 3
        # One failed terminate mid-journal (raised on the primary).
        failed_terminate(primary, "never-admitted", now=float(index))
        report = recover(primary, broker_factory=fig8_broker)
        assert report.applied == admitted + rejected
        assert report.skipped == 1
        a, b = primary.broker.stats(), report.broker.stats()
        assert a.active_flows == b.active_flows
        assert a.rejected_total == b.rejected_total
        d1 = primary.broker.request_service(
            "probe", type0_spec, 2.44, "I1", "E1", now=float(index + 1)
        )
        d2 = report.broker.request_service(
            "probe", type0_spec, 2.44, "I1", "E1", now=float(index + 1)
        )
        assert d1.admitted == d2.admitted
        assert d1.rate == pytest.approx(d2.rate)

    def test_failed_terminate_then_readmit_replays_identically(
            self, primary, type0_spec):
        """Replay over a trace holding a failed terminate keeps later
        entries aligned: the skipped entry must not shift decisions."""
        primary.request("f1", type0_spec, 2.44, "I1", "E1")
        failed_terminate(primary, "f2")        # skipped on replay
        primary.teardown("f1", now=5.0)        # applied
        reply = primary.request("f1", type0_spec, 2.44, "I1", "E1",
                                now=10.0)
        assert reply.admitted    # re-admission after teardown
        report = recover(primary, broker_factory=fig8_broker)
        assert (report.applied, report.skipped) == (3, 1)
        record = report.broker.flow_mib.get("f1")
        assert record is not None and record.admitted_at == 10.0
