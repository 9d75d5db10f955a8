"""Properties over decode -> validate -> run.

A scenario file is a walkthrough topology plus random link and switch
churn.  Decoded, it is either refused with violations located in its
timeline, or every engine's map matches the fabric's ground truth once
the churn has settled, and the two baselines agree on the map.  Under
sOFTDP the trace also shows no adaptation ahead of its link's learning
and no BFD detection on a switch that has left; under the baselines, no
probe to a switch that has left after the controller hears of it.
"""
import dataclasses

from hypothesis import example, given, settings, strategies as st

from topodisc import metrics, scenarios
from topodisc.core import (
    MS,
    SEC,
    LinkAdd,
    LinkRemove,
    PortRef,
    Protocol,
    SwitchJoin,
    SwitchLeave,
    decode_scenario,
    encode_scenario,
    validate_scenario,
)

from conftest import run_scenario

BASES = {
    "square": scenarios.square,
    "chain4": lambda: scenarios.chain(4),
    "mesh4": lambda: scenarios.mesh(4),
    "walkthrough": scenarios.walkthrough,
    "adaptation": scenarios.adaptation_scenario,
}
SETTLE = 5 * SEC


@st.composite
def documents(draw) -> str:
    """A base scenario's file with 1-6 link and switch events, 1 ms to
    1 s apart, merged into its timeline."""
    base = BASES[draw(st.sampled_from(sorted(BASES)))]()
    dpids = [decl.id.dpid for decl in base.switches]
    events, at = [], 0
    for _ in range(draw(st.integers(1, 6))):
        at += draw(st.integers(MS, SEC))
        event = draw(st.sampled_from((LinkAdd, LinkRemove, SwitchJoin, SwitchLeave)))
        if event in (LinkAdd, LinkRemove):
            link = draw(st.sampled_from(base.links))
            events.append(event(at, link.a, link.b))
        else:
            events.append(event(at, draw(st.sampled_from(dpids))))
    timeline = sorted(base.timeline + tuple(events), key=lambda ev: ev.at)
    return encode_scenario(dataclasses.replace(base, timeline=tuple(timeline)))


def check_document(text: str) -> None:
    spec = decode_scenario(text)
    violations = validate_scenario(spec)
    if violations:
        assert all(v.element.startswith("timeline[") for v in violations), violations
        return
    until = spec.timeline[-1].at + SETTLE
    maps = {}
    for protocol in Protocol:
        sim = run_scenario(dataclasses.replace(spec, protocol=protocol), until=until)
        assert sim.map_matches_ground_truth(), (protocol, text)
        maps[protocol] = (sim.controller.map.switches, sim.controller.map.directed_links)
        if protocol is Protocol.SOFTDP:
            check_softdp_trace(sim.engine.trace, text)
        else:
            check_baseline_trace(sim.engine.trace, spec, text)
    assert maps[Protocol.OFDP] == maps[Protocol.OFDPV2]


def check_softdp_trace(trace, text: str) -> None:
    """Read off the trace and ``measure`` only: an added link's adaptation
    is never ahead of its learning, and a switch reports no BFD detection
    between its leave and its next join."""
    for e in metrics.measure(trace).events:
        if e.kind == LinkAdd.name and e.adaptation is not None:
            assert e.learning is not None and e.adaptation >= e.learning, (e, text)
    moves = _moves(trace)
    for r in trace.records:
        if r.kind == "bfd_down_detected":
            dpid = PortRef.parse(r.detail["port"]).dpid
            last = [event for ts, event in moves.get(dpid, ()) if ts <= r.ts]
            assert not last or last[-1] != SwitchLeave.name, (r, text)


def _moves(trace) -> dict:
    """Per switch, the ts and name of its leave and join records, in
    trace order."""
    moves = {}
    for r in trace.records:
        if r.kind == "timeline" and r.detail["event"] in (SwitchLeave.name,
                                                           SwitchJoin.name):
            moves.setdefault(r.detail["dpid"], []).append((r.ts, r.detail["event"]))
    return moves


def check_baseline_trace(trace, spec, text: str) -> None:
    """Read off the trace and the spec only: a PACKET_OUT dropped on a
    switch's closed channel is dropped no later than the controller
    hears of the switch's last leave, one channel delay after it."""
    moves = _moves(trace)
    for r in trace.records:
        if (r.kind == "ctrl_dropped" and r.detail["msg"] == "PACKET_OUT"
                and r.detail["reason"] == "channel_closed"):
            dpid = int(r.detail["switch"][1:])
            last = [(ts, event) for ts, event in moves.get(dpid, ()) if ts <= r.ts]
            assert last and last[-1][1] == SwitchLeave.name, (r, text)
            notice = last[-1][0] + spec.channel(dpid).delay_to_controller
            assert r.ts <= notice, (r, text)


def _with_timeline(base, *events) -> str:
    return encode_scenario(dataclasses.replace(base, timeline=events))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(documents())
# groups of the removal's retag land before the added link is learned
@example(_with_timeline(scenarios.adaptation_scenario(),
                        LinkRemove(SEC, PortRef(1, 1), PortRef(2, 1)),
                        LinkAdd(SEC + 2 * MS, PortRef(1, 3), PortRef(3, 3))))
# s2 leaves for good: the baselines stop probing it once they hear of it
@example(encode_scenario(scenarios.walkthrough()))
# s1 leaves with the detection of its dead s1.p1 still pending
@example(_with_timeline(scenarios.square(),
                        LinkRemove(SEC, PortRef(1, 1), PortRef(2, 1)),
                        SwitchLeave(SEC + MS // 10, 1)))
def test_document_is_refused_where_it_is_wrong_or_every_engine_converges(text):
    check_document(text)
