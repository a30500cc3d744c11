"""Federated admission on the sharded cluster, checked against one broker.

The headline property: a domain whose links are split across shard
brokers makes *exactly* the decisions a fused single broker makes —
same admitted set, same rate-delay pairs — on any split, including
mixed paths whose delay-based hops live on different shards (the
coordinator stitches per-shard ``view`` snapshots into the whole path
and runs the unmodified Figure-4 scan).  Plus the two-phase protocol's
safety properties: a stale view never over-commits, a refused prepare
leaves no residue, and the participant's own re-validation refuses a
pair its deadline ledger cannot schedule.
"""

import random

import pytest

from repro.cluster import (
    ClusterCoordinator,
    LocalShardHandle,
    PartitionMap,
)
from repro.cluster.shard import BrokerShard, _spec_payload
from repro.core.broker import BandwidthBroker
from repro.errors import TopologyError
from repro.service.durability import FileJournal
from repro.traffic.spec import TSpec
from repro.vtrs.timestamps import SchedulerKind
from repro.workloads.profiles import flow_type
from repro.workloads.topologies import SchedulerSetting, fig8_domain

R, D = SchedulerKind.RATE_BASED, SchedulerKind.DELAY_BASED
SPEC = flow_type(0).spec
PATH1 = ("I1", "R2", "R3", "R4", "R5", "E1")


class SplitDomain:
    """Shard brokers over a link split, their coordinator, and a fused
    oracle broker provisioned with every link."""

    def __init__(self, links, owner_of):
        """*links*: ``(src, dst, capacity, kind, propagation,
        max_packet)`` tuples; *owner_of*: ``(src, dst) -> shard``."""
        owners = {(src, dst): owner_of(src, dst)
                  for src, dst, *_rest in links}
        self.partition = PartitionMap(sorted(set(owners.values())))
        self.atlas = BandwidthBroker()
        self.oracle = BandwidthBroker()
        brokers = {name: BandwidthBroker()
                   for name in self.partition.shards}
        for src, dst, capacity, kind, propagation, max_packet in links:
            self.partition.assign((src, dst), owners[(src, dst)])
            for broker in (self.atlas, self.oracle,
                           brokers[owners[(src, dst)]]):
                broker.add_link(src, dst, capacity, kind,
                                propagation=propagation,
                                max_packet=max_packet)
        self.shards = {
            name: BrokerShard(name, broker, self.partition, workers=1)
            for name, broker in brokers.items()
        }
        self.handles = {
            name: LocalShardHandle(shard)
            for name, shard in self.shards.items()
        }
        self.coordinator = ClusterCoordinator(
            self.partition, self.handles, self.atlas,
        )

    def __enter__(self):
        for shard in self.shards.values():
            shard.start()
        return self

    def __exit__(self, *exc_info):
        for shard in self.shards.values():
            shard.stop()

    def admit(self, flow_id, spec, bound, nodes):
        return self.coordinator.admit(
            flow_id, spec, bound, nodes[0], nodes[-1], path_nodes=nodes,
        )

    def fused(self, flow_id, spec, bound, nodes):
        return self.oracle.request_service(
            flow_id, spec, bound, nodes[0], nodes[-1], path_nodes=nodes,
        )

    def holds(self):
        return [
            key
            for shard in self.shards.values()
            for link in shard.broker.node_mib.links()
            for key in link.reservation_keys()
            if key.startswith("txn:")
        ]

    def link(self, src, dst):
        shard = self.shards[self.partition.shard_of((src, dst))]
        return shard.broker.node_mib.link(src, dst)


def split_fig8(setting=SchedulerSetting.MIXED,
               west_sources=("I1", "I2", "R2")):
    """Figure 8 split at R3: links leaving I1, I2 or R2 go to "west",
    the rest to "east" (path I1..E1 crosses both; in the mixed setting
    its delay-based hops are all in the east).  Adding ``"R3"`` to
    *west_sources* splits the delay-based hops across both shards."""
    domain = fig8_domain(setting)
    return SplitDomain(
        [(plan.src, plan.dst, plan.capacity, plan.kind,
          plan.propagation, plan.max_packet) for plan in domain.links],
        lambda src, dst: "west" if src in west_sources else "east",
    )


@pytest.fixture()
def split():
    with split_fig8() as cluster:
        yield cluster


def race_on_view(cluster, shard, racer):
    """Run *racer* right after *shard* answers its next view."""
    inner = cluster.handles[shard]

    class Racing:
        def __getattr__(self, name):
            return getattr(inner, name)

        def view(self, frame):
            reply = inner.view(frame)
            cluster.coordinator.handles[shard] = inner
            racer()
            return reply

    cluster.coordinator.handles[shard] = Racing()


def grab_west_residual(cluster, flow_id="racer"):
    """Admit a west-local flow that takes all residual of I1->R2."""
    residual = cluster.link("I1", "R2").residual_rate
    greedy = TSpec(sigma=12000.0, rho=residual, peak=residual,
                   max_packet=12000.0)
    decision = cluster.admit(flow_id, greedy, 10.0, ("I1", "R2", "R3"))
    assert decision.admitted and decision.shards == ("west",)


class TestSegmentation:
    def test_path_splits_at_region_border(self, split):
        assert split.partition.segments(PATH1) == [
            ("west", [("I1", "R2"), ("R2", "R3")]),
            ("east", [("R3", "R4"), ("R4", "R5"), ("R5", "E1")]),
        ]

    def test_single_region_path(self, split):
        decision = split.admit("f1", SPEC, 2.44, ("I1", "R2", "R3"))
        assert decision.admitted and decision.shards == ("west",)
        assert split.coordinator.local_admits == 1
        assert split.coordinator.spanning_admits == 0

    def test_unowned_link_rejected(self, split):
        with pytest.raises(TopologyError):
            split.admit("f1", SPEC, 2.44, ("I1", "Mars"))

    def test_short_path_rejected(self, split):
        with pytest.raises(TopologyError):
            split.admit("f1", SPEC, 2.44, ("I1",))


class TestEquivalenceWithCentralized:
    @pytest.mark.parametrize("setting, west_sources", [
        (SchedulerSetting.RATE_ONLY, ("I1", "I2", "R2")),
        (SchedulerSetting.MIXED, ("I1", "I2", "R2")),
        (SchedulerSetting.MIXED, ("I1", "I2", "R2", "R3")),
    ], ids=["rate-only", "mixed", "mixed-split-delay"])
    @pytest.mark.parametrize("bound", [2.44, 2.19])
    def test_same_admissions_and_rates(self, setting, west_sources, bound):
        """Sequential saturation: the cluster admits the same flows at
        the same rate-delay pairs as the fused broker."""
        with split_fig8(setting, west_sources) as cluster:
            index = 0
            while True:
                got = cluster.admit(f"f{index}", SPEC, bound, PATH1)
                want = cluster.fused(f"f{index}", SPEC, bound, PATH1)
                assert got.admitted == want.admitted, index
                if not got.admitted:
                    break
                assert got.rate == pytest.approx(want.rate, abs=1e-9)
                assert got.delay == pytest.approx(want.delay, abs=1e-9)
                index += 1
            assert index in (30, 27)  # Table 2 counts
            assert cluster.holds() == []

    def test_mixed_population_equivalence(self, split):
        """Heterogeneous types and interleaved terminations."""
        log = []
        for index in range(40):
            profile = flow_type(index % 4)
            got = split.admit(
                f"f{index}", profile.spec, profile.tight_delay, PATH1
            )
            want = split.fused(
                f"f{index}", profile.spec, profile.tight_delay, PATH1
            )
            assert got.admitted == want.admitted, index
            if got.admitted:
                assert got.rate == pytest.approx(want.rate, abs=1e-9)
                assert got.delay == pytest.approx(want.delay, abs=1e-9)
                log.append(f"f{index}")
            if index % 7 == 3 and log:
                victim = log.pop(0)
                assert split.coordinator.teardown(victim).status == "ok"
                split.oracle.terminate(victim)


class TestTwoPhaseProtocol:
    def test_commit_books_both_regions(self, split):
        assert split.admit("f1", SPEC, 2.44, PATH1).admitted
        for shard in split.shards.values():
            assert "f1" in shard.broker.flow_mib
        assert split.holds() == []
        assert list(split.coordinator.flows()) == ["f1"]

    def test_terminate_releases_everywhere(self, split):
        split.admit("f1", SPEC, 2.44, PATH1)
        assert split.coordinator.teardown("f1").status == "ok"
        for shard in split.shards.values():
            assert len(shard.broker.flow_mib) == 0
        assert split.link("I1", "R2").reserved_rate == 0
        assert split.link("R4", "R5").reserved_rate == 0

    def test_terminate_unknown_raises(self, split):
        down = split.coordinator.teardown("ghost")
        assert down.status == "error" and down.reason == "unknown-flow"

    def test_duplicate_flow_rejected(self, split):
        split.admit("f1", SPEC, 2.44, PATH1)
        decision = split.admit("f1", SPEC, 2.44, PATH1)
        assert not decision.admitted
        assert decision.reason == "duplicate"
        assert split.holds() == []

    def test_stale_view_cannot_overcommit(self, split):
        """A competing admission lands between view and prepare: the
        shard's live re-validation refuses, the 2PC aborts, and the
        caller is told to try again — with no hold left anywhere."""
        for index in range(5):
            assert split.admit(f"f{index}", SPEC, 2.44, PATH1).admitted
        race_on_view(split, "west", lambda: grab_west_residual(split))
        decision = split.admit("late", SPEC, 2.44, PATH1)
        assert not decision.admitted
        assert decision.status == "rejected"
        assert decision.reason == "try-again"
        assert split.holds() == []
        for shard in split.shards.values():
            assert "late" not in shard.broker.flow_mib
        # The racer holds the link's last bit: nothing over-committed.
        link = split.link("I1", "R2")
        assert link.reserved_rate == pytest.approx(link.capacity)
        # The retry is judged on current state: the fused answer.
        retry = split.admit("late", SPEC, 2.44, PATH1)
        assert not retry.admitted
        assert retry.reason == "insufficient-bandwidth"

    def test_failed_prepare_leaves_no_residue(self, split):
        """Refuse at the *second* prepare (shards prepare in name
        order, east first): east's hold must be rolled back."""
        east = split.shards["east"]
        before = split.link("R4", "R5").reserved_rate
        race_on_view(split, "west", lambda: grab_west_residual(split))
        assert not split.admit("f1", SPEC, 2.44, PATH1).admitted
        assert (east.prepared_total, east.aborted_total) == (1, 1)
        assert split.link("R4", "R5").reserved_rate == before
        assert split.holds() == []

    def test_message_accounting(self, split):
        class Counting:
            def __init__(self, inner):
                self.inner = inner
                self.calls = {}

            def __getattr__(self, name):
                method = getattr(self.inner, name)

                def counted(*args, **kwargs):
                    self.calls[name] = self.calls.get(name, 0) + 1
                    return method(*args, **kwargs)
                return counted

        counters = {
            name: Counting(handle) for name, handle in split.handles.items()
        }
        split.coordinator.handles.update(counters)
        assert split.admit("f1", SPEC, 2.44, PATH1).admitted
        for counter in counters.values():
            assert counter.calls == {"view": 1, "prepare": 1, "commit": 1}


def solo_shard(kind, capacity, wal=None):
    pmap = PartitionMap(["solo"])
    broker = BandwidthBroker()
    broker.add_link("A", "B", capacity, kind, max_packet=12000)
    return BrokerShard("solo", broker, pmap, wal=wal), pmap


def prepare_frame(pmap, txid, flow_id, rate, delay=0.0):
    return {
        "txid": txid, "flow_id": flow_id, "links": [["A", "B"]],
        "spec": _spec_payload(SPEC), "delay_requirement": 2.44,
        "rate": rate, "delay": delay, "now": 0.0, **pmap.stamp(),
    }


class TestRegionalBroker:
    """The participant side: one shard's view and 2PC ops."""

    def test_prepare_blocks_competitors(self):
        """A prepared (uncommitted) hold already consumes capacity —
        that is what makes prepare a lock."""
        shard, pmap = solo_shard(R, 100000)
        assert shard.prepare(
            prepare_frame(pmap, "t1", "f1", 80000)
        )["status"] == "prepared"
        refused = shard.prepare(prepare_frame(pmap, "t2", "f2", 50000))
        assert refused["reason"] == "insufficient-bandwidth"
        shard.abort({"txid": "t1", "now": 0.0, **pmap.stamp()})
        assert shard.prepare(
            prepare_frame(pmap, "t3", "f2", 50000)
        )["status"] == "prepared"

    def test_abort_unknown_txn_is_noop(self):
        shard, pmap = solo_shard(R, 100000)
        reply = shard.abort({"txid": "ghost", "now": 0.0, **pmap.stamp()})
        assert reply["status"] == "aborted"
        assert shard.broker.node_mib.link("A", "B").reserved_rate == 0

    def test_commit_unknown_txn_raises(self):
        """The wire answer for a commit of a never-prepared txid is
        ``unknown`` (an error the coordinator compensates), and
        nothing is booked."""
        shard, pmap = solo_shard(R, 100000)
        reply = shard.commit({"txid": "ghost", "flow_id": "f1",
                              "now": 0.0, **pmap.stamp()})
        assert reply["status"] == "unknown"
        assert len(shard.broker.flow_mib) == 0

    def test_release_unknown_flow_raises(self):
        """Releasing a flow the shard never committed is refused as a
        no-op: no records removed, nothing journaled or counted."""
        shard, pmap = solo_shard(R, 100000)
        reply = shard.release({"flow_id": "ghost", "now": 0.0,
                               **pmap.stamp()})
        assert reply["flows"] == []
        assert shard.released_total == 0

    def test_duplicate_txn_id_refused(self):
        shard, pmap = solo_shard(R, 1e6)
        first = shard.prepare(prepare_frame(pmap, "t1", "f1", 1000))
        again = shard.prepare(prepare_frame(pmap, "t1", "f2", 1000))
        assert again == first  # the cached verdict, not a second hold
        link = shard.broker.node_mib.link("A", "B")
        assert sorted(link.reservation_keys()) == ["txn:t1"]

    def test_delay_based_prepare_validates_ledger(self, tmp_path):
        """The coordinator's pair is re-checked against the local
        deadline ledger; an unschedulable one is refused and
        journals nothing."""
        wal = FileJournal(str(tmp_path), fsync=False)
        shard, pmap = solo_shard(D, 1e5, wal=wal)
        # Deadline too tight for the packet: W(d) < L.
        refused = shard.prepare(
            prepare_frame(pmap, "t1", "f1", 1000, delay=0.01)
        )
        assert refused["reason"] == "unschedulable"
        assert wal.position == 0
        assert shard.broker.node_mib.link("A", "B").reserved_rate == 0
        assert shard.prepare(
            prepare_frame(pmap, "t2", "f1", 1000, delay=0.5)
        )["status"] == "prepared"
        assert wal.position == 1
        wal.close()

    def test_segment_view_snapshot_isolation(self):
        """A view is plain data: later admissions do not change it."""
        shard, pmap = solo_shard(D, 1e6)
        view = shard.view({"links": [["A", "B"]], **pmap.stamp()})
        shard.prepare(prepare_frame(pmap, "t1", "f1", 1000, delay=0.5))
        shard.commit({"txid": "t1", "flow_id": "f1", "now": 0.0,
                      **pmap.stamp()})
        assert view["links"][0]["reserved_rate"] == 0
        assert view["links"][0]["ledger"] == []
        fresh = shard.view({"links": [["A", "B"]], **pmap.stamp()})
        assert fresh["links"][0]["ledger"] == [[0.5, 1000, 12000]]


class TestEquivalenceOnRandomMeshes:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_partition_of_random_mesh(self, seed):
        """Partition a random mesh's links across 2-3 shards at random;
        the cluster must still match the fused broker decision for
        decision across a random request stream."""
        from repro.workloads.random_topologies import random_domain

        rng = random.Random(seed * 101 + 7)
        domain = random_domain(seed, core_nodes=6, extra_links=6)
        names = [f"r{i}" for i in range(rng.choice([2, 3]))]
        owners = {
            link.link_id: rng.choice(names)
            for link in domain.node_mib.links()
        }
        links = [
            (*link.link_id, link.capacity, link.kind, link.propagation,
             link.max_packet)
            for link in domain.node_mib.links()
        ]
        with SplitDomain(
            links, lambda src, dst: owners[(src, dst)]
        ) as cluster:
            active = []
            for index in range(40):
                profile = flow_type(rng.randrange(4))
                ingress = rng.choice(domain.ingresses)
                egress = rng.choice(domain.egresses)
                requirement = rng.uniform(0.5, 4.0)
                nodes = tuple(
                    cluster.oracle.routing.select_path(
                        ingress, egress
                    ).nodes
                )
                got = cluster.admit(
                    f"f{index}", profile.spec, requirement, nodes
                )
                want = cluster.fused(
                    f"f{index}", profile.spec, requirement, nodes
                )
                assert got.admitted == want.admitted, (seed, index)
                if got.admitted:
                    assert got.rate == pytest.approx(want.rate, abs=1e-9)
                    assert got.delay == pytest.approx(
                        want.delay, abs=1e-9
                    )
                    active.append(f"f{index}")
                if active and rng.random() < 0.3:
                    victim = active.pop(rng.randrange(len(active)))
                    assert cluster.coordinator.teardown(
                        victim
                    ).status == "ok"
                    cluster.oracle.terminate(victim)
            assert cluster.holds() == []
