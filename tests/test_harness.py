"""End-to-end runs of whole scenarios: boot sequencing, presence rules,
liveness handshake timing, convergence to ground truth, adaptation
stamping, the run report, and a closed run's lifetime."""
import gc
import weakref

import pytest

from topodisc.core import (
    AttackDecl,
    AttackStart,
    BfdParams,
    ControlChannel,
    Link,
    LinkAdd,
    LinkRemove,
    MS,
    PortRef,
    Protocol,
    SEC,
    ScenarioSpec,
    SwitchDecl,
    SwitchId,
    SwitchJoin,
    SwitchLeave,
    US,
    VERDICT_SETTLE,
    WINDOW_RULE_PRIORITY,
    from_ms,
)
from topodisc.harness import Simulation
from topodisc import cli, scenarios

from conftest import periodic_probes, records_of, run_scenario


def two_switch_spec(delay_ab, delay_ba, timeline=()):
    return ScenarioSpec(
        switches=(SwitchDecl(SwitchId(1, "02:00:00:00:00:01"), 1),
                  SwitchDecl(SwitchId(2, "02:00:00:00:00:02"), 1)),
        links=(Link(PortRef(1, 1), PortRef(2, 1), delay_ab, delay_ba),),
        control_channels=(ControlChannel(1, from_ms(1), from_ms(1)),
                          ControlChannel(2, from_ms(1), from_ms(1))),
        bfd=BfdParams(interval=from_ms(1), multiplier=1),
        protocol=Protocol.SOFTDP, discovery_period=1 * SEC,
        timeline=tuple(timeline))


def test_handshake_initiator_and_responder_timing():
    # a->b takes 2 ms, b->a takes 3 ms: the initiating end is up after
    # one round trip, the responder one extra forward leg later
    sim = run_scenario(two_switch_spec(from_ms(2), from_ms(3)), until=1 * SEC)
    ups = {dict(r.detail)["port"]: r.ts for r in records_of(sim, "bfd_up")}
    assert ups["s1.p1"] == from_ms(2) + from_ms(3)
    assert ups["s2.p1"] == 2 * from_ms(2) + from_ms(3)


def test_rejected_scenario_raises_value_error():
    spec = two_switch_spec(from_ms(1), from_ms(1))
    bad = ScenarioSpec(**{**spec.__dict__,
                          "links": (Link(PortRef(1, 1), PortRef(9, 1),
                                         from_ms(1), from_ms(1)),)})
    with pytest.raises(ValueError):
        Simulation(bad)


def test_initial_presence_respects_timeline():
    sim = Simulation(scenarios.walkthrough())
    assert sim.fabric.connected == {1, 2, 3}    # s4 joins later, so starts absent
    sim.run()
    assert sim.fabric.connected == {1, 3, 4}    # s2 left at 2 s


@pytest.mark.parametrize("build", ["square", "chain4", "walkthrough",
                                   "adaptation", "failover"])
def test_map_matches_ground_truth_after_quiescence(build):
    sim = run_scenario(scenarios.BUILDERS[build](), until=8 * SEC)
    assert sim.map_matches_ground_truth()


def test_baselines_also_converge_on_static_topology():
    for proto in (Protocol.OFDP, Protocol.OFDPV2):
        sim = run_scenario(scenarios.square(proto), until=3 * SEC)
        assert sim.map_matches_ground_truth()


def test_join_registers_fresh_session_then_links_come_up():
    sim = run_scenario(scenarios.walkthrough())
    regs = [r for r in records_of(sim, "switch_registered")
            if dict(r.detail)["dpid"] == 4]
    assert len(regs) == 1
    assert regs[0].ts > 1 * SEC
    # both s4 links ended up learned in each direction before s3.p2 died
    added = {(dict(r.detail)["egress"], dict(r.detail)["ingress"])
             for r in records_of(sim, "map_add_link")}
    assert ("s1.p2", "s4.p1") in added and ("s4.p1", "s1.p2") in added
    assert ("s4.p2", "s3.p2") in added and ("s3.p2", "s4.p2") in added


def test_leave_noticed_through_channel_and_neighbors_race():
    sim = run_scenario(scenarios.walkthrough())
    leave_at = 2 * SEC
    downs = [r for r in records_of(sim, "bfd_down_detected")
             if r.ts > leave_at and dict(r.detail)["port"] in
             ("s1.p1", "s3.p1")]
    assert len(downs) == 2              # both neighbors notice on their own
    gone = [r for r in records_of(sim, "map_remove_switch")
            if dict(r.detail)["dpid"] == 2]
    assert len(gone) == 1
    # with uniform 1 ms delays the dead-session notice lands one channel
    # delay after the leave, ahead of the neighbors' status reports
    assert gone[0].ts == leave_at + from_ms(1)
    assert dict(gone[0].detail)["cause"] == "channel_closed"


def test_leave_learned_through_neighbors_when_channel_notice_is_slow():
    base = scenarios.walkthrough()
    channels = tuple(
        ControlChannel(ch.dpid, from_ms(10), ch.delay_from_controller)
        if ch.dpid == 2 else ch
        for ch in base.control_channels)
    spec = ScenarioSpec(**{**base.__dict__, "control_channels": channels})
    sim = run_scenario(spec)
    gone = [r for r in records_of(sim, "map_remove_switch")
            if dict(r.detail)["dpid"] == 2]
    assert len(gone) == 1
    assert dict(gone[0].detail)["cause"] == "bfd"
    assert gone[0].ts < 2 * SEC + from_ms(10)


@pytest.mark.parametrize("protocol", [Protocol.OFDP, Protocol.OFDPV2])
def test_baselines_stop_probing_a_switch_once_its_leave_is_noticed(protocol):
    spec = scenarios.walkthrough(protocol)
    sim = run_scenario(spec)
    notice_at = 2 * SEC + spec.channel(2).delay_to_controller
    late = [r for r in records_of(sim, "ctrl_dropped")
            if r.detail["switch"] == "s2" and r.detail["msg"] == "PACKET_OUT"
            and r.ts > notice_at]
    assert late == []
    assert 2 not in sim.controller.registry


@pytest.mark.parametrize("protocol", list(Protocol))
def test_boot_switch_leaving_before_it_registers_still_bootstraps(protocol):
    # s4 leaves before its FEATURE_REPLY: the bootstrap stops waiting for
    # it once the channel close is noticed
    spec = scenarios.chain(4, protocol, timeline=(SwitchLeave(from_ms(1), 4),))
    sim = run_scenario(spec, until=5 * SEC)
    assert len(records_of(sim, "bootstrap_dispatch")) == 1
    if protocol is not Protocol.SOFTDP:
        assert records_of(sim, "round_dispatch")
    assert sim.map_matches_ground_truth()


def test_port_up_before_registration_is_probed_at_registration():
    # s3's PORT_STATUS for the added link reaches the controller before
    # its FEATURE_REPLY and is refused, so only the ports_up it registers
    # with can get its side of the link probed
    spec = scenarios.chain(3, timeline=(
        SwitchJoin(1 * SEC, 3), LinkAdd(from_ms(1001), PortRef(2, 2), PortRef(3, 1))))
    sim = run_scenario(spec, until=3 * SEC)
    assert records_of(sim, "protocol_error")
    assert (PortRef(3, 1), PortRef(2, 2)) in sim.controller.map.directed_links
    assert sim.map_matches_ground_truth()


def test_link_lost_before_its_bfd_session_is_up_leaves_the_map():
    # the flap back up replaces the BFD session before the first loss is
    # detected, and the second loss lands before the new session is up
    a, b = PortRef(1, 1), PortRef(2, 1)
    spec = scenarios.square(timeline=(
        LinkRemove(SEC, a, b), LinkAdd(SEC + MS, a, b), LinkRemove(SEC + 2 * MS, a, b)))
    sim = run_scenario(spec, until=3 * SEC)
    assert (a, b) not in sim.controller.map.directed_links
    assert sim.map_matches_ground_truth()


@pytest.mark.parametrize("join_after, s1p1_detected, digest", [
    (300 * US, False,
     "41f9a9b356a40829eeb2328a382049547c3c8dc19c3918ce54002cf6803f6e03"),
    (2500 * US, False,
     "9499a5e440196d3ae55fb599766c5da48718a9439e625133af02516563c988d9"),
])
def test_rejoin_ends_the_old_agents_bfd_detections(join_after, s1p1_detected,
                                                   digest):
    # s1.p1 loses carrier at 1 s with its session UP, so its detection is
    # due at 1.001 s.  s1 leaves 100 us later and its sessions end there,
    # so the detection never fires, whether the rejoin comes before the
    # due instant or after it.
    spec = scenarios.square(timeline=(
        LinkRemove(SEC, PortRef(1, 1), PortRef(2, 1)),
        SwitchLeave(SEC + 100 * US, 1),
        SwitchJoin(SEC + join_after, 1)))
    sim = run_scenario(spec)
    detected = {dict(r.detail)["port"]
                for r in records_of(sim, "bfd_down_detected")}
    assert {"s2.p1", "s4.p2"} <= detected
    assert ("s1.p1" in detected) is s1p1_detected
    assert sim.engine.trace.digest() == digest


def test_leaver_reports_no_bfd_detection():
    # s1 leaves 100 us after s1.p1 lost carrier, before the detection due
    # at 1.001 s; the neighbours still detect their ends
    spec = scenarios.square(timeline=(
        LinkRemove(SEC, PortRef(1, 1), PortRef(2, 1)),
        SwitchLeave(SEC + 100 * US, 1)))
    sim = run_scenario(spec)
    detected = {dict(r.detail)["port"]
                for r in records_of(sim, "bfd_down_detected")}
    assert "s1.p1" not in detected
    assert {"s2.p1", "s4.p2"} <= detected
    assert not [r for r in records_of(sim, "ctrl_dropped")
                if dict(r.detail)["msg"] == "BFD_STATUS"]


def test_rejoined_switch_bfd_down_is_not_stale():
    # s2 leaves at 8 s and rejoins at 16 s, s11 leaves at 6 s and
    # rejoins at 18 s: the new agents' port epochs restart at 1, so the
    # BFD DOWN of s2.p4 and s11.p2 for the 23 s removal must be taken
    spec = scenarios.random_scenario(11, 15, 30)
    assert spec.protocol is Protocol.SOFTDP
    sim = run_scenario(spec)
    assert not records_of(sim, "stale_bfd_status")
    entries = {(e.kind, e.at): e for e in sim.run_metrics().events}
    for key in (("link_remove", 23 * SEC), ("link_add", 24 * SEC)):
        assert entries[key].resolved and entries[key].learning is not None, key
    assert sim.map_matches_ground_truth()


def test_window_flow_mod_replaces_the_switch_armed_rule():
    # both ends of the added diagonal arm their own window rule at the
    # carrier transition, then get the controller's FLOW_MOD for it
    new_ports = (PortRef(1, 3), PortRef(3, 3))
    sim = run_scenario(scenarios.adaptation_scenario(), until=SEC + 100 * MS)
    flow_mods = {dict(r.detail)["dst"] for r in records_of(sim, "ctrl_delivered")
                 if r.ts > SEC and dict(r.detail)["msg"] == "FLOW_MOD"}
    assert flow_mods == {"1", "3"}
    for port in new_ports:
        rules = [r for r in sim.agents[port.dpid].flow_table.values()
                 if r.match_ingress == port]
        assert [r.priority for r in rules] == [WINDOW_RULE_PRIORITY], port
        assert rules[0].installed_at > SEC + MS    # the FLOW_MOD's, not the switch's


def test_dormant_link_stays_down_until_its_add_event():
    spec = scenarios.adaptation_scenario()
    sim = Simulation(spec)
    sim.run(until=from_ms(900))         # before the 1 s add
    key = (PortRef(1, 3), PortRef(3, 3))
    assert not sim.fabric.links[key].alive
    assert key not in {(a, b) for (a, b) in sim.controller.map.directed_links}
    sim.run(until=2 * SEC)
    assert sim.fabric.links[key].alive
    assert sim.map_matches_ground_truth()


def test_adaptation_stamps_after_groups_apply_and_probe_crosses():
    sim = run_scenario(scenarios.adaptation_scenario())
    done = records_of(sim, "adaptation_complete")
    assert len(done) == 1
    d = dict(done[0].detail)
    assert d["pair"] == ["s1.p3", "s3.p3"]
    assert d["mode"] == "probe"
    entry = next(e for e in sim.run_metrics().events if e.kind == "link_add")
    assert entry.adaptation is not None
    assert entry.adaptation >= entry.learning


@pytest.mark.parametrize("add_after", [0, 2 * MS])
def test_adaptation_probe_waits_for_the_link_to_be_learned(add_after):
    # the removal's group updates are applied while the added diagonal is
    # still unlearned; none of them may start its adaptation probe
    base = scenarios.adaptation_scenario()
    spec = ScenarioSpec(**{**base.__dict__, "timeline": (
        LinkRemove(SEC, PortRef(1, 1), PortRef(2, 1)),
        LinkAdd(SEC + add_after, PortRef(1, 3), PortRef(3, 3)))})
    sim = run_scenario(spec)
    learned, = [r.ts for r in records_of(sim, "map_link_bidirectional")
                if (dict(r.detail)["a"], dict(r.detail)["b"]) == ("s1.p3", "s3.p3")]
    sent, = records_of(sim, "probe_sent")
    assert sent.ts > learned
    entry = next(e for e in sim.run_metrics().events if e.kind == "link_add")
    assert entry.learning == learned - SEC - add_after
    # learning, then 1 ms to deliver the last group, 1 ms probe flight
    assert entry.adaptation == entry.learning + 2 * MS


def test_link_add_with_no_group_fanout_still_completes():
    # two isolated switches joined by their only link: no backup, no
    # groups, adaptation degenerates to the learning instant
    spec = two_switch_spec(from_ms(1), from_ms(1))
    spec = ScenarioSpec(**{**spec.__dict__,
                           "links": (Link(PortRef(1, 1), PortRef(2, 1),
                                          from_ms(1), from_ms(1),
                                          alive=False),),
                           "timeline": (LinkAdd(1 * SEC, PortRef(1, 1),
                                                PortRef(2, 1)),)})
    sim = run_scenario(spec)
    done = records_of(sim, "adaptation_complete")
    assert len(done) == 1
    assert dict(done[0].detail)["mode"] == "no_groups"


def test_failover_drops_no_probe_traffic():
    sim = Simulation(scenarios.failover_scenario())
    periodic_probes(sim, ((1, 3),), from_ms(10), from_ms(500))
    sim.run(until=2 * SEC + from_ms(5))
    m = sim.run_metrics()
    assert m.probes_sent > 50
    assert m.probes_delivered == m.probes_sent
    assert records_of(sim, "probe_lost") == []


def test_probe_without_any_path_is_lost():
    sim = Simulation(scenarios.square())
    sim.run(until=1 * SEC)
    sim.send_probe(1, 99)
    lost = records_of(sim, "probe_lost")
    assert len(lost) == 1
    assert dict(lost[0].detail)["reason"] == "no_path"


def test_default_horizon_covers_attack_verdicts():
    decl = AttackDecl("spoof", {"observe": scenarios.H1, "duration": "3s"})
    spec = scenarios.testbed_chain(Protocol.OFDP,
                                timeline=(AttackStart(2 * SEC, decl),))
    sim = Simulation(spec)
    assert sim.default_until() >= 2 * SEC + 3 * SEC + VERDICT_SETTLE
    sim.run()
    assert len(sim.attack_results) == 1


def test_report_shape_and_prediction_alignment():
    sim = run_scenario(scenarios.walkthrough())
    rep = sim.report()
    for key in ("scenario", "protocol", "seed", "horizon", "digest",
                "metrics", "prediction_deltas", "attacks", "map",
                "fabric_counters", "controller_counters"):
        assert key in rep
    assert rep["protocol"] == "softdp"
    assert isinstance(rep["digest"], str) and len(rep["digest"]) == 64
    deltas = rep["prediction_deltas"]
    assert len(deltas) == len(sim.spec.timeline)
    # join and leave entries carry no closed-form model
    assert deltas[0] is None and deltas[1] is None
    assert deltas[2]["quantity"] == "link_add_learn"
    assert deltas[2]["delta"] == 0
    assert deltas[3]["quantity"] == "link_remove_learn"
    assert deltas[3]["delta"] is not None and deltas[3]["delta"] >= 0


def test_identical_runs_share_a_digest():
    a = run_scenario(scenarios.walkthrough()).engine.trace.digest()
    b = run_scenario(scenarios.walkthrough()).engine.trace.digest()
    assert a == b


def test_different_protocols_diverge_in_digest():
    a = run_scenario(scenarios.square(Protocol.SOFTDP), until=2 * SEC)
    b = run_scenario(scenarios.square(Protocol.OFDP), until=2 * SEC)
    assert a.engine.trace.digest() != b.engine.trace.digest()


# -- lifetime ----------------------------------------------------------------

@pytest.fixture
def collector_off(monkeypatch):
    """Only reference counting may free anything inside the test: the
    automatic collector is off and an explicit collection does nothing."""
    monkeypatch.setattr(gc, "collect", lambda generation=2: 0)
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _weakrefs(sim) -> dict:
    parts = {"simulation": sim, "engine": sim.engine, "fabric": sim.fabric,
             "controller": sim.controller, "trace": sim.engine.trace}
    parts.update({f"agent s{dpid}": agent for dpid, agent in sim.agents.items()})
    return {name: weakref.ref(obj) for name, obj in parts.items()}


def _alive(refs: dict) -> list:
    return sorted(name for name, ref in refs.items() if ref() is not None)


def _run(spec, until=None):
    return Simulation(spec).run(until)


LIFETIME_CASES = {
    **{f"walkthrough-{p.value}": (lambda p=p: _run(scenarios.walkthrough(p)))
       for p in Protocol},
    # stopped while the boot probes' LLDP windows are still open
    "walkthrough-softdp-open-windows":
        lambda: _run(scenarios.walkthrough(), until=5 * MS),
    **{f"{kind}-{p.value}": (lambda kind=kind, p=p:
                             _run(scenarios.attack_scenario(kind, protocol=p)))
       for kind in ("flood", "inject", "relay")
       for p in (Protocol.OFDP, Protocol.SOFTDP)},
    "random-7-20-20-softdp": lambda: _run(scenarios.random_scenario(7, 20, 20)),
}


@pytest.mark.parametrize("run", LIFETIME_CASES.values(), ids=LIFETIME_CASES)
def test_closed_run_is_freed_by_reference_counting(run, collector_off):
    sim = run()
    refs = _weakrefs(sim)
    sim.close()
    del sim
    assert _alive(refs) == []


def test_compare_cell_frees_its_simulation(monkeypatch, collector_off):
    built = []

    class Recorded(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(_weakrefs(self))

    monkeypatch.setattr(cli, "Simulation", Recorded)
    cli._compare_cell(4, Protocol.SOFTDP, 0)
    assert len(built) == 1
    assert _alive(built[0]) == []


def test_closed_run_stays_readable_and_refuses_to_run():
    with Simulation(scenarios.walkthrough(), name="walk") as sim:
        sim.run()
        report = sim.report()
    assert sim.engine.closed
    assert (sim.name, sim.spec.protocol) == ("walk", Protocol.SOFTDP)
    assert sim.report() == report
    assert sim.map_matches_ground_truth()
    with pytest.raises(RuntimeError, match="closed"):
        sim.run()
    sim.close()  # a second close is harmless
    assert sim.engine.trace.digest() == report["digest"]
