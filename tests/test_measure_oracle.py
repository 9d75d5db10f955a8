"""Differential oracle for ``metrics.measure``.

``reference_measure`` is the trace reader that ``measure`` replaced: it
rebuilds each timeline event's window by filtering the whole record
list, and rescans the records for the bootstrap cutoff, the map
membership at a leave, the probe loss windows and the totals.  It is
slow but obviously windowed, so the single pass must agree with it on
every run and on the hand-built corner cases below.
"""
import dataclasses
import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from topodisc import cli, metrics, scenarios
from topodisc.core import ATTACK_KINDS, PortRef, Protocol, SEC, link_key
from topodisc.harness import Simulation
from topodisc.metrics import EventEntry, RunMetrics
from topodisc.simnet import Trace

from conftest import run_scenario

PROTOCOLS = (Protocol.OFDP, Protocol.OFDPV2, Protocol.SOFTDP)


# -- the reference ------------------------------------------------------------

def _canon_pair(a, b):
    ka, kb = link_key(PortRef.parse(a), PortRef.parse(b))
    return str(ka), str(kb)


def _involves(detail, dpid):
    for key in ("a", "b", "egress", "ingress"):
        v = detail.get(key)
        if v is not None and PortRef.parse(v).dpid == dpid:
            return True
    return False


def reference_measure(trace):
    recs = trace.records
    timeline = [r for r in recs if r.kind == "timeline"]

    probe_sent_ts = {}
    delivered_ids = set()
    for r in recs:
        d = dict(r.detail)
        if r.kind == "probe_sent":
            probe_sent_ts[d["probe_id"]] = r.ts
        elif r.kind == "probe_delivered":
            delivered_ids.add(d["probe_id"])

    events = []

    boot = next((r for r in recs if r.kind == "bootstrap_dispatch"), None)
    if boot is None:
        boot = next((r for r in recs if r.kind == "round_dispatch"), None)
    if boot is not None:
        cutoff = timeline[0].ts if timeline else None
        last_bidi = None
        learned = 0
        for r in recs:
            if cutoff is not None and r.ts >= cutoff:
                break
            if r.kind == "map_link_bidirectional":
                last_bidi = r.ts
                learned += 1
        events.append(EventEntry(
            "bootstrap", boot.ts, resolved=True,
            learning=None if last_bidi is None else last_bidi - boot.ts,
            detail={"links_learned": learned}))

    for i, tr in enumerate(timeline):
        lo = tr.ts
        hi = timeline[i + 1].ts if i + 1 < len(timeline) else None
        d = dict(tr.detail)
        kind = d["event"]
        entry = EventEntry(kind, lo, detail=d)
        window = [r for r in recs
                  if lo <= r.ts and (hi is None or r.ts < hi)]

        if kind == "link_add":
            want = _canon_pair(d["a"], d["b"])
            for r in window:
                rd = dict(r.detail)
                if r.kind == "map_link_bidirectional" and (rd["a"], rd["b"]) == want:
                    entry.learning = r.ts - lo
                    entry.resolved = True
                    break
            for r in window:
                rd = dict(r.detail)
                if r.kind == "adaptation_complete" and \
                        rd.get("pair") == list(want):
                    entry.adaptation = r.ts - lo
                    break

        elif kind == "link_remove":
            ports = {d["a"], d["b"]}
            for r in window:
                rd = dict(r.detail)
                if r.kind == "map_remove_link" and \
                        {rd["egress"], rd["ingress"]} == ports:
                    entry.learning = r.ts - lo
                    entry.resolved = True
                    break
            recovered = [probe_sent_ts[pid] for pid in delivered_ids
                         if probe_sent_ts.get(pid) is not None
                         and probe_sent_ts[pid] >= lo
                         and (hi is None or probe_sent_ts[pid] < hi)]
            if recovered:
                entry.loss_window = min(recovered) - lo

        elif kind == "switch_join":
            dpid = d["dpid"]
            last_bidi = None
            registered = None
            for r in window:
                rd = dict(r.detail)
                if r.kind == "map_link_bidirectional" and _involves(rd, dpid):
                    last_bidi = r.ts
                elif r.kind == "switch_registered" and rd["dpid"] == dpid \
                        and registered is None:
                    registered = r.ts
            if last_bidi is not None:
                entry.learning = last_bidi - lo
                entry.resolved = True
            elif registered is not None:
                entry.learning = registered - lo
                entry.resolved = True
                entry.detail["note"] = "registered, no links learned"

        elif kind == "switch_leave":
            dpid = d["dpid"]
            for r in window:
                rd = dict(r.detail)
                if r.kind == "map_remove_switch" and rd["dpid"] == dpid:
                    entry.learning = r.ts - lo
                    entry.resolved = True
                    break
            if not entry.resolved:
                in_map = set()
                for r in recs:
                    if r.ts >= lo:
                        break
                    rd = dict(r.detail)
                    if r.kind == "map_add_link":
                        in_map.add(PortRef.parse(rd["egress"]).dpid)
                        in_map.add(PortRef.parse(rd["ingress"]).dpid)
                    elif r.kind == "map_remove_switch":
                        in_map.discard(rd["dpid"])
                if dpid not in in_map:
                    entry.resolved = True
                    entry.detail["note"] = "not in map at event"

        elif kind == "attack":
            entry.resolved = True

        events.append(entry)

    msg_counts = Counter()
    per_second = {}
    rounds = []
    suspicious = 0
    attacks = []
    for r in recs:
        d = dict(r.detail)
        if r.kind == "ctrl_delivered":
            msg_counts[d["msg"]] += 1
            per_second.setdefault(r.ts // SEC, Counter())[d["msg"]] += 1
        elif r.kind == "round_dispatch":
            rounds.append((r.ts, d["round"], d["packet_outs"]))
        elif r.kind in ("suspicious_packet_in", "suspicious_bfd_status"):
            suspicious += 1
        elif r.kind == "attack_verdict":
            attacks.append({"ts": r.ts, **d})

    return RunMetrics(
        events=events, msg_counts=dict(msg_counts), per_second=per_second,
        rounds=rounds, suspicious=suspicious,
        probes_sent=len(probe_sent_ts), probes_delivered=len(delivered_ids),
        attacks=attacks)


def assert_matches_reference(trace):
    got, want = metrics.measure(trace), reference_measure(trace)
    # report.json dumps the events without sort_keys, so key order counts
    assert json.dumps(got.as_dict()) == json.dumps(want.as_dict())
    assert got.per_second == want.per_second
    assert metrics.to_csv_text(got) == metrics.to_csv_text(want)
    return got


# -- simulated runs -------------------------------------------------------------

def _runs():
    out = {}
    for p in PROTOCOLS:
        for seed in range(1, 11):
            out[f"random{seed}-{p.value}"] = lambda p=p, seed=seed: (
                dataclasses.replace(scenarios.random_scenario(
                    seed, n_switches=12, n_events=20), protocol=p), None)
        for kind in ATTACK_KINDS:
            out[f"{kind}-{p.value}"] = lambda p=p, kind=kind: (
                scenarios.attack_scenario(kind, p), None)
        for kind in ("inject", "relay"):
            out[f"{kind}-in-window-{p.value}"] = lambda p=p, kind=kind: (
                scenarios.attack_scenario(kind, p, in_window=True), None)
        for n in (2, 4, 8):
            def churned(p=p, n=n):
                spec = scenarios.chain(n, protocol=p)
                return dataclasses.replace(
                    spec, timeline=cli._churn_timeline(spec, 20 * SEC)), 20 * SEC
            out[f"chain{n}-churn-{p.value}"] = churned
    return out


RUNS = _runs()


@pytest.mark.parametrize("case", sorted(RUNS))
def test_single_pass_matches_the_reference(case):
    spec, until = RUNS[case]()
    assert_matches_reference(Simulation(spec, name=case).run(until).engine.trace)


def test_measuring_leaves_the_trace_digest_alone():
    # the OFDP walkthrough's join entry gets a note; it must land on the
    # entry's own copy of the timeline detail, not on the trace record
    sim = run_scenario(scenarios.walkthrough(Protocol.OFDP))
    before = sim.engine.trace.digest()
    m = sim.run_metrics()
    assert any("note" in e.detail for e in m.events)
    assert sim.engine.trace.digest() == before
    assert sim.report()["digest"] == before


# -- hand-built traces ------------------------------------------------------------

def trace_of(*records):
    trace = Trace()
    for ts, kind, detail in records:
        trace.record(ts, kind, **detail)
    return trace


BOOT = (0, "bootstrap_dispatch", {"protocol": "softdp", "probes": 0})


def test_two_timeline_records_at_one_instant():
    m = assert_matches_reference(trace_of(
        BOOT,
        (10, "timeline", {"event": "link_add", "a": "s1.p1", "b": "s2.p1"}),
        (10, "timeline", {"event": "link_add", "a": "s3.p1", "b": "s4.p1"}),
        (12, "map_link_bidirectional", {"a": "s1.p1", "b": "s2.p1"}),
        (13, "map_link_bidirectional", {"a": "s3.p1", "b": "s4.p1"}),
    ))
    _, first, second = m.events
    # the first entry's window is empty: the second instant closes it
    assert (first.learning, first.resolved) == (None, False)
    assert (second.learning, second.resolved) == (3, True)


def test_record_written_before_a_timeline_record_at_its_instant():
    m = assert_matches_reference(trace_of(
        BOOT,
        (4, "map_link_bidirectional", {"a": "s1.p2", "b": "s3.p1"}),
        (10, "map_link_bidirectional", {"a": "s1.p1", "b": "s2.p1"}),
        (10, "timeline", {"event": "link_add", "a": "s1.p1", "b": "s2.p1"}),
    ))
    boot, add = m.events
    assert (boot.learning, boot.detail) == (4, {"links_learned": 1})
    assert (add.learning, add.resolved) == (0, True)


def test_leave_of_a_switch_already_out_of_the_map():
    m = assert_matches_reference(trace_of(
        BOOT,
        (1, "map_add_link", {"egress": "s1.p1", "ingress": "s2.p1"}),
        (2, "map_remove_switch", {"dpid": 1}),
        (5, "timeline", {"event": "switch_leave", "dpid": 1}),
        (6, "timeline", {"event": "switch_leave", "dpid": 2}),
    ))
    _, gone, present = m.events
    assert gone.resolved and gone.learning is None
    assert gone.detail == {"dpid": 1, "event": "switch_leave",
                           "note": "not in map at event"}
    assert not present.resolved and "note" not in present.detail


def test_probe_delivered_after_the_next_instant():
    m = assert_matches_reference(trace_of(
        BOOT,
        (10, "timeline", {"event": "link_remove", "a": "s1.p1", "b": "s2.p1"}),
        (11, "probe_sent", {"probe_id": 0, "src": 1, "dst": 2}),
        (14, "probe_sent", {"probe_id": 1, "src": 1, "dst": 2}),
        (20, "timeline", {"event": "link_remove", "a": "s3.p1", "b": "s4.p1"}),
        (21, "probe_sent", {"probe_id": 2, "src": 1, "dst": 2}),
        (25, "probe_delivered", {"probe_id": 1}),
        (26, "probe_delivered", {"probe_id": 2}),
    ))
    _, first, second = m.events
    assert first.loss_window == 4      # probe 0 was lost, probe 1 got through
    assert second.loss_window == 1
    assert (m.probes_sent, m.probes_delivered) == (3, 2)


PORTS = ("s1.p1", "s2.p1", "s2.p2", "s3.p1")
_port = st.sampled_from(PORTS)
_dpid = st.integers(1, 3)
_pair = st.tuples(_port, _port).filter(lambda ab: ab[0] != ab[1])
_RECORDS = st.one_of(
    _pair.map(lambda ab: ("timeline", {"event": "link_add", "a": ab[0], "b": ab[1]})),
    _pair.map(lambda ab: ("timeline", {"event": "link_remove", "a": ab[0], "b": ab[1]})),
    _dpid.map(lambda d: ("timeline", {"event": "switch_join", "dpid": d})),
    _dpid.map(lambda d: ("timeline", {"event": "switch_leave", "dpid": d})),
    st.just(("timeline", {"event": "attack", "attack": "spoof"})),
    _pair.map(lambda ab: ("map_link_bidirectional", {"a": ab[0], "b": ab[1]})),
    _pair.map(lambda ab: ("adaptation_complete", {"pair": list(ab), "mode": "probe"})),
    _pair.map(lambda ab: ("map_add_link", {"egress": ab[0], "ingress": ab[1]})),
    _pair.map(lambda ab: ("map_remove_link", {"egress": ab[0], "ingress": ab[1]})),
    _dpid.map(lambda d: ("map_remove_switch", {"dpid": d})),
    _dpid.map(lambda d: ("switch_registered", {"dpid": d})),
    st.just(("probe_sent", {})),
    st.integers(0, 50).map(lambda i: ("probe_delivered", {"probe_id": i})),
    st.just(BOOT[1:]),
    st.sampled_from(("PACKET_IN", "BFD_STATUS")).map(
        lambda m: ("ctrl_delivered", {"msg": m})),
    st.just(("round_dispatch", {"round": 0, "packet_outs": 2})),
    st.just(("suspicious_packet_in", {})),
    st.just(("attack_verdict", {"attack": "spoof", "succeeded": False})),
)


@given(st.lists(st.tuples(st.integers(0, 2), _RECORDS), max_size=40))
@settings(max_examples=100, deadline=None)
def test_random_traces_match_the_reference(steps):
    # As in a simulated trace: ts never decreases (and here often
    # repeats), probe ids are unique, a probe is delivered only after it
    # was sent, and discovery rounds start only after the bootstrap.  The
    # reference falls back to the first round for the bootstrap entry,
    # which no simulated trace needs.
    trace, ts, probes, booted = Trace(), 0, 0, False
    for delta, (kind, detail) in steps:
        ts += delta
        booted = booted or kind == "bootstrap_dispatch"
        if kind == "round_dispatch" and not booted:
            continue
        if kind == "probe_sent":
            detail = {"probe_id": probes}
            probes += 1
        elif kind == "probe_delivered":
            if not probes:
                continue
            detail = {"probe_id": detail["probe_id"] % probes}
        trace.record(ts, kind, **detail)
    assert_matches_reference(trace)
