"""Self-test of the correctness checks: each passes on sound input
and fires on a deliberately corrupted copy of it."""

from __future__ import annotations

import copy
import random

import pytest

from perfbench import checks, inputs


# -- capacity -------------------------------------------------------------


def test_capacity_check_fires_on_overbooked_link():
    capacity = {"A->B": 1e6}
    sound = {"A->B": {"f1": 4e5, "f2": 6e5}}
    assert checks.check_capacity(capacity, sound) == []
    corrupt = copy.deepcopy(sound)
    corrupt["A->B"]["f3"] = 1.0
    assert checks.check_capacity(capacity, corrupt)


# -- VT-EDF eq. (5) ---------------------------------------------------------


def test_vt_edf_passes_a_schedulable_set_from_the_broker():
    broker = inputs.knee_broker()
    rng = random.Random(3)
    path = inputs.knee_path(0)
    for serial in range(300):
        type_id = rng.randrange(4)
        broker.request_service(
            f"f{serial}", checks._spec(inputs.spec_dict(type_id)),
            inputs.TABLE1[type_id][4] * rng.uniform(*inputs.KNEE_SLACK),
            path[0], path[-1], path_nodes=path)
    link = broker.node_mib.link("C0", "D0")
    entries = [(e.rate, e.deadline, e.max_packet)
               for e in link.ledger.iter_entries()]
    assert len(entries) > 50
    assert checks.check_vt_edf("C0->D0", link.capacity, entries) == []
    # Corrupt: one more packet at the tightest deadline breaks eq. (5).
    tight = min(entries, key=lambda e: e[1])
    slack = min(link.capacity * d - sum(
        r * (d - dj) + l for r, dj, l in entries if dj <= d)
        for d in {e[1] for e in entries})
    corrupt = entries + [(1.0, tight[1], slack + 1.0)]
    assert checks.check_vt_edf("C0->D0", link.capacity, corrupt)


def test_vt_edf_fires_on_rate_sum_over_capacity():
    assert checks.check_vt_edf("L", 1e6, [(6e5, 1.0, 1.0), (6e5, 2.0, 1.0)])


# -- the end-to-end delay bound ----------------------------------------------


def test_e2e_bound_matches_the_program_on_random_reservations():
    from repro.traffic.spec import TSpec
    from repro.vtrs.delay_bounds import PathProfile, e2e_delay_bound

    rng = random.Random(5)
    for _ in range(200):
        type_id = rng.randrange(4)
        spec = inputs.spec_dict(type_id)
        hops = [(rng.choice(("RATE_BASED", "DELAY_BASED")),
                 rng.choice((1.5e6, 10e6, 45e6)), inputs.MAX_PACKET)
                for _ in range(rng.randrange(1, 8))]
        rate = rng.uniform(spec["rho"], spec["peak"])
        delay = rng.uniform(0.0, 0.5)
        profile = PathProfile(
            hops=len(hops),
            rate_based_hops=sum(k == "RATE_BASED" for k, _c, _l in hops),
            d_tot=sum(l / c for _k, c, l in hops),
            max_packet=inputs.MAX_PACKET)
        want = e2e_delay_bound(TSpec(**spec), rate, delay, profile)
        got = checks.e2e_delay_bound(spec, rate, delay, hops)
        assert got == pytest.approx(want, rel=1e-12)


def test_delay_check_fires_on_an_underprovisioned_grant():
    hops = [("RATE_BASED", 45e6, inputs.MAX_PACKET)] * 3
    spec = inputs.spec_dict(0)
    requirement = inputs.TABLE1[0][4]
    rate = 60000.0
    bound = checks.e2e_delay_bound(spec, rate, 0.0, hops)
    assert bound <= requirement
    flow = {"spec": spec, "rate": rate, "delay": 0.0, "path": ("a",),
            "delay_requirement": requirement}
    assert checks.check_delay_bounds({"f": flow}, {("a",): hops}) == []
    starved = dict(flow, rate=spec["rho"] * 0.99)
    assert checks.check_delay_bounds({"f": starved}, {("a",): hops})
    tight = dict(flow, delay_requirement=bound * 0.999)
    assert checks.check_delay_bounds({"f": tight}, {("a",): hops})


# -- 2PC holds ------------------------------------------------------------------


def test_hold_check_fires_on_txn_keys_and_parked_ops():
    dumps = {"shard0": {"status": "ok",
                        "links": {"A->B": {"keys": ["f1", "f2#1"]}}}}
    assert checks.check_no_holds(dumps, {}) == []
    held = copy.deepcopy(dumps)
    held["shard0"]["links"]["A->B"]["keys"].append("txn:c-000001")
    assert checks.check_no_holds(held, {})
    assert checks.check_no_holds(dumps, {"shard1": [{"op": "release"}]})


# -- the WAL-order oracle ---------------------------------------------------------


def _journaled_knee_run(tmp_path):
    """Admit and tear down flows through a real service with a WAL;
    return the WAL directory, what clients were told, and live state."""
    from repro.service.durability import FileJournal
    from repro.service.runtime import BrokerService

    broker = inputs.knee_broker()
    wal_dir = str(tmp_path / "wal")
    wal = FileJournal(wal_dir, fsync=False)
    told, live = {}, {}
    windows = inputs.knee_windows(9, 0)
    with BrokerService(broker, workers=2, wal=wal) as service:
        for _ in range(4):
            for flow in next(windows):
                reply = service.request(
                    flow.flow_id, checks._spec(flow.spec),
                    flow.delay_requirement, flow.path[0], flow.path[-1],
                    path_nodes=flow.path, now=1.0)
                decision = reply.decision
                told[flow.flow_id] = {"admitted": decision.admitted,
                                      "rate": decision.rate,
                                      "delay": decision.delay}
                if decision.admitted:
                    live[flow.flow_id] = decision
        for flow_id in sorted(live)[:10]:
            service.teardown(flow_id, now=2.0)
            del live[flow_id]
    wal.close()
    return wal_dir, told, broker


def test_oracle_replay_agrees_with_a_sound_run(tmp_path):
    wal_dir, told, broker = _journaled_knee_run(tmp_path)
    oracle = inputs.knee_broker()
    findings, decided = checks.replay_service_wal(wal_dir, oracle, told)
    assert findings == [] and decided == len(told)
    live = checks.oracle_state(broker)
    assert checks.compare_live(
        checks.oracle_state(oracle), {l: list(k) for l, k in live.items()},
        {l: sum(k.values()) for l, k in live.items()}) == []


def test_oracle_fires_on_a_misreported_decision(tmp_path):
    wal_dir, told, _broker = _journaled_knee_run(tmp_path)
    admitted = next(f for f, t in sorted(told.items()) if t["admitted"])
    wrong_rate = copy.deepcopy(told)
    wrong_rate[admitted]["rate"] *= 1.001
    findings, _ = checks.replay_service_wal(
        wal_dir, inputs.knee_broker(), wrong_rate)
    assert any(admitted in f for f in findings)
    flipped = copy.deepcopy(told)
    flipped[admitted]["admitted"] = False
    findings, _ = checks.replay_service_wal(
        wal_dir, inputs.knee_broker(), flipped)
    assert any(admitted in f for f in findings)


def test_oracle_fires_on_live_state_that_diverges(tmp_path):
    wal_dir, told, broker = _journaled_knee_run(tmp_path)
    oracle = inputs.knee_broker()
    checks.replay_service_wal(wal_dir, oracle, told)
    live = checks.oracle_state(broker)
    keys = {label: list(k) for label, k in live.items()}
    reserved = {label: sum(k.values()) for label, k in live.items()}
    extra = copy.deepcopy(keys)
    extra["C0->D0"].append("ghost")
    assert checks.compare_live(checks.oracle_state(oracle), extra, reserved)
    drift = dict(reserved)
    drift["I0->C0"] += 1000.0
    assert checks.compare_live(checks.oracle_state(oracle), keys, drift)
    client = {label: dict(k) for label, k in live.items()}
    assert checks.compare_client_view(checks.oracle_state(oracle),
                                      client) == []
    key = next(iter(client["I0->C0"]))
    client["I0->C0"][key] *= 2
    assert checks.compare_client_view(checks.oracle_state(oracle), client)
