"""Properties over decode -> validate -> run.

A scenario file is a walkthrough topology plus random link and switch
churn.  Decoded, it is either refused with violations located in its
timeline, or every engine's map matches the fabric's ground truth once
the churn has settled, and the two baselines agree on the map.
"""
import dataclasses

from hypothesis import given, settings, strategies as st

from topodisc import scenarios
from topodisc.core import (
    MS,
    SEC,
    LinkAdd,
    LinkRemove,
    Protocol,
    SwitchJoin,
    SwitchLeave,
    decode_scenario,
    encode_scenario,
    validate_scenario,
)
from topodisc.harness import run_scenario

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
    assert maps[Protocol.OFDP] == maps[Protocol.OFDPV2]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(documents())
def test_document_is_refused_where_it_is_wrong_or_every_engine_converges(text):
    check_document(text)
