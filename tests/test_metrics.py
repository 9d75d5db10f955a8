"""Timing predictors against hand-expanded constants, and trace
measurement against known deterministic runs.

Every expected duration in this file was worked out on paper from the
stated inputs before the assert was written; none of them came from
running the code under test.
"""
import csv
import io
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from topodisc.core import MS, Protocol, SEC, from_ms
from topodisc.simnet import Trace
from topodisc import metrics, scenarios

from conftest import run_scenario, scale_scenario

NS_PER_MS = 1_000_000


def ms(x) -> int:
    return int(x * NS_PER_MS)


# -- detection bound ---------------------------------------------------------

def test_detect_bound_at_protocol_floor_interval():
    # 16.7 ms echo interval, multiplier 3: bound is 50.1 ms
    p = metrics.predict_bfd_detect(ms(16.7), 3)
    assert p.value == 50_100_000
    assert p.quantity == metrics.BFD_DETECT
    assert abs(p.value - 50 * MS) <= ms(0.2)


def test_detect_bound_simulation_defaults():
    assert metrics.predict_bfd_detect(ms(1), 1).value == ms(1)
    assert metrics.predict_bfd_detect(ms(1), 3).value == ms(3)


@given(st.integers(1, 10**9), st.integers(1, 64))
def test_detect_bound_is_product(interval, mult):
    assert metrics.predict_bfd_detect(interval, mult).value == interval * mult


# -- link-add learning -------------------------------------------------------

def test_add_learning_symmetric_hand_case():
    # every leg 1 ms: reports settle at 1 ms, each direction closes a
    # 3 ms round trip, so the pair is learned 4 ms after carrier-up
    p = metrics.predict_link_add_learn(ms(1), ms(1), ms(1), ms(1), ms(1),
                                       ms(1), ms(1), ms(1))
    assert p.value == 4_000_000


def test_add_learning_asymmetric_hand_case():
    # reports: max(2.0, 0.5) = 2.0
    # a-direction trip: 0.7 + 0.3 + 0.9 = 1.9
    # b-direction trip: 0.4 + 0.6 + 1.1 = 2.1  <- slower side closes it
    p = metrics.predict_link_add_learn(
        pstatus_a=ms(2), pstatus_b=ms(0.5),
        ctrl_to_a=ms(0.7), a_to_b=ms(0.3), b_to_ctrl=ms(0.9),
        ctrl_to_b=ms(0.4), b_to_a=ms(0.6), a_to_ctrl=ms(1.1))
    assert p.value == 4_100_000


def test_add_learning_keeps_its_inputs():
    p = metrics.predict_link_add_learn(1, 2, 3, 4, 5, 6, 7, 8)
    assert dict(p.inputs) == {
        "pstatus_a": 1, "pstatus_b": 2, "ctrl_to_a": 3, "a_to_b": 4,
        "b_to_ctrl": 5, "ctrl_to_b": 6, "b_to_a": 7, "a_to_ctrl": 8}


@given(st.lists(st.integers(0, 10**8), min_size=8, max_size=8))
def test_add_learning_bounds(vals):
    p = metrics.predict_link_add_learn(*vals)
    lo = max(vals[0], vals[1])
    assert lo <= p.value <= lo + sum(vals[2:])


# -- link-remove learning ----------------------------------------------------

def test_remove_learning_first_report_wins():
    p = metrics.predict_link_remove_learn(ms(50.1), ms(1), ms(50.1), ms(3))
    assert p.value == 51_100_000


def test_remove_learning_single_surviving_endpoint():
    p = metrics.predict_link_remove_learn(None, None, ms(50.1), ms(2))
    assert p.value == 52_100_000


def test_remove_learning_no_observer_is_unbounded():
    assert metrics.predict_link_remove_learn(None, None, None, None).value \
        is None


# -- adaptation --------------------------------------------------------------

def test_adaptation_is_learning_plus_group_push_plus_probe():
    p = metrics.predict_adaptation(ms(4), ms(1), ms(0.5))
    assert p.value == 5_500_000
    assert p.quantity == metrics.ADAPTATION


# -- scenario wrappers -------------------------------------------------------

def asymmetric_two_switch():
    from topodisc.core import (ControlChannel, Link, PortRef, ScenarioSpec,
                               SwitchDecl, SwitchId, BfdParams)
    return ScenarioSpec(
        switches=(SwitchDecl(SwitchId(1, "02:00:00:00:00:01"), 1),
                  SwitchDecl(SwitchId(2, "02:00:00:00:00:02"), 1)),
        links=(Link(PortRef(1, 1), PortRef(2, 1), ms(0.3), ms(0.6)),),
        control_channels=(ControlChannel(1, ms(2), ms(0.7)),
                          ControlChannel(2, ms(0.5), ms(0.4))),
        bfd=BfdParams(interval=ms(1), multiplier=1),
        protocol=Protocol.SOFTDP, discovery_period=1 * SEC)


def test_add_wrapper_reads_the_right_channel_fields():
    from topodisc.core import PortRef
    spec = asymmetric_two_switch()
    p = metrics.link_add_prediction(spec, PortRef(1, 1), PortRef(2, 1))
    # reports settle at max(2, 0.5); trips 0.7+0.3+0.5=1.5 and
    # 0.4+0.6+2=3.0; 2 + 3 = 5 ms
    assert p.value == 5_000_000


def test_remove_wrapper_with_unreachable_endpoint():
    from topodisc.core import PortRef
    spec = asymmetric_two_switch()
    p = metrics.link_remove_prediction(spec, PortRef(1, 1), PortRef(2, 1),
                                       unreachable={1})
    assert p.value == ms(1) + ms(0.5)
    both = metrics.link_remove_prediction(spec, PortRef(1, 1), PortRef(2, 1))
    assert both.value == ms(1) + ms(0.5)   # s2's faster uplink wins anyway


def test_timeline_predictions_cover_only_link_events():
    preds = metrics.timeline_predictions(scenarios.walkthrough())
    kinds = [None if p is None else p.quantity for p in preds]
    assert kinds == [None, None, metrics.LINK_ADD_LEARN,
                     metrics.LINK_REMOVE_LEARN]
    assert preds[2].value == ms(4)
    assert preds[3].value == ms(2)


# -- trace measurement -------------------------------------------------------

def walkthrough_metrics():
    return run_scenario(scenarios.walkthrough()).run_metrics()


def test_measure_walkthrough_event_ledger():
    m = walkthrough_metrics()
    assert [e.kind for e in m.events] == [
        "bootstrap", "switch_join", "switch_leave", "link_add", "link_remove"]
    assert all(e.resolved for e in m.events)

    boot, join, leave, add, remove = m.events
    assert boot.detail["links_learned"] == 2
    assert add.learning == ms(4)        # equals the analytic prediction
    assert add.adaptation == ms(6)      # + 1 ms group push + 1 ms probe
    assert remove.learning == ms(2)     # 1 ms detection + 1 ms report
    assert leave.learning == ms(1)      # dead-session notice latency
    assert join.learning == ms(6)
    assert m.suspicious == 0


def test_measure_counts_messages_by_kind():
    m = walkthrough_metrics()
    assert m.msg_counts["FEATURE_REPLY"] == 4    # s1-s3 at boot, s4 at join
    assert m.msg_counts["BFD_STATUS"] == 4       # s1+s3 at leave, s3+s4 at cut
    assert m.probes_sent == m.probes_delivered == 1
    assert m.messages_total() == sum(m.msg_counts.values())


def test_softdp_sends_no_periodic_probes_once_quiet():
    sim = run_scenario(scenarios.square(), until=5 * SEC)
    m = sim.run_metrics()
    late = [sec for sec, counts in m.per_second.items()
            if sec >= 1 and counts.get("PACKET_OUT")]
    assert late == []
    assert m.rounds == []


def test_baseline_round_ledger_counts_ports():
    ofdp = run_scenario(scenarios.chain(3, Protocol.OFDP),
                        until=3 * SEC).run_metrics()
    # chain of 3: end switches one port, middle two
    assert ofdp.rounds and all(n == 4 for (_, _, n) in ofdp.rounds)
    v2 = run_scenario(scenarios.chain(3, Protocol.OFDPV2),
                      until=3 * SEC).run_metrics()
    assert v2.rounds and all(n == 3 for (_, _, n) in v2.rounds)


def test_add_learning_independent_of_topology_size():
    # per-port sessions mean the instrumented edge's learning time cannot
    # move when unrelated switches pile on elsewhere
    values = set()
    for extra in (0, 10, 50):
        sim = run_scenario(scale_scenario(3, extra))
        entry = next(e for e in sim.run_metrics().events
                     if e.kind == "link_add")
        values.add(entry.learning)
    assert len(values) == 1 and None not in values


# -- streaming ---------------------------------------------------------------

def test_measure_reads_an_instants_records_after_its_timeline_records():
    trace = Trace()
    trace.record(0, "bootstrap_dispatch", protocol="softdp", probes=0)
    # written before the event's own record, at its instant
    trace.record(10, "map_link_bidirectional", a="s1.p1", b="s2.p1")
    trace.record(10, "timeline", event="link_add", a="s1.p1", b="s2.p1")
    boot, add = metrics.measure(trace).events
    assert boot.detail["links_learned"] == 0
    assert (add.at, add.learning, add.resolved) == (10, 0, True)


def test_measure_refuses_a_decreasing_ts():
    trace = Trace()
    trace.record(5, "ctrl_delivered", msg="HELLO", src="1", dst="controller")
    trace.record(4, "ctrl_delivered", msg="HELLO", src="1", dst="controller")
    with pytest.raises(ValueError, match="below"):
        metrics.measure(trace)


def test_measure_streams_a_long_trace():
    trace = Trace()
    trace.record(0, "bootstrap_dispatch", protocol="ofdp", probes=0)
    for i in range(1, 50_000):
        if i == 25_000:
            trace.record(i * MS, "timeline", event="link_add",
                         a="s1.p1", b="s2.p1")
        else:
            trace.record(i * MS, "ctrl_delivered",
                         msg=("PACKET_IN", "PACKET_OUT")[i % 2],
                         src=str(i % 7), dst="controller")
    tracemalloc.start()
    try:
        m = metrics.measure(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.messages_total() == 49_998 and len(m.per_second) == 50
    assert peak < 1_000_000


# -- rendering ---------------------------------------------------------------

def test_csv_round_trips_through_the_csv_module():
    m = walkthrough_metrics()
    text = metrics.to_csv_text(m)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == metrics.CSV_HEADER
    assert len(rows) == 1 + len(m.events) + len(m.rounds)
    by_kind = {r[1]: r for r in rows[1:]}
    assert int(by_kind["link_add"][3]) == ms(4)
    assert by_kind["bootstrap"][5] == ""    # no loss window measured


def test_as_dict_is_json_shaped():
    import json
    m = walkthrough_metrics()
    encoded = json.dumps(m.as_dict(), sort_keys=True)
    decoded = json.loads(encoded)
    assert decoded["messages_total"] == m.messages_total()
    assert len(decoded["events"]) == 5
