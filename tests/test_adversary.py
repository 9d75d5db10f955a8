"""The compromised-host attack suite against both engine families.

The baselines emit plaintext LLDP out of every declared port, hosts
included, so each attack has material to work with.  The event-driven
engine probes inter-switch ports only and drops LLDP everywhere else,
which starves every host-side attack of input; the in-window variants
document that hosts cannot race the pending windows either, because
windows never open on host-facing ports.
"""
import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from topodisc.core import (
    ATTACK_KINDS,
    ATTACK_PARAMS,
    REQUIRED,
    AttackDecl,
    AttackStart,
    PortRef,
    Protocol,
    SEC,
    ScenarioSpec,
    VERDICT_SETTLE,
    attack_span,
    from_ms,
)
from topodisc import adversary, scenarios
from topodisc.harness import Simulation
from topodisc.simnet import Engine

from conftest import run_scenario


def run_attack(kind, protocol, in_window=False):
    spec = scenarios.attack_scenario(kind, protocol, in_window=in_window)
    sim = run_scenario(spec)
    assert len(sim.attack_results) == 1
    return sim.attack_results[0], sim


# -- horizon sizing ----------------------------------------------------------

def test_attack_span_duration_form():
    decl = AttackDecl("spoof", {"observe": scenarios.H1, "duration": "3s"})
    assert attack_span(decl) == 3 * SEC + VERDICT_SETTLE


def test_attack_span_burst_form():
    decl = AttackDecl("inject", {"count": 3, "spacing": "500ms"})
    assert attack_span(decl) == SEC + VERDICT_SETTLE
    single = AttackDecl("inject", {"count": 1, "spacing": "500ms"})
    assert attack_span(single) == VERDICT_SETTLE


@pytest.mark.parametrize("kind, params", [
    *((kind, {}) for kind in ATTACK_KINDS),
    ("inject", {"count": 5}),
], ids=[*ATTACK_KINDS, "inject_count_5"])
def test_default_horizon_covers_the_default_params(kind, params):
    # only the required ports are given: every other param takes the
    # launcher's default, and the default horizon must still reach the
    # verdict
    spec = scenarios.attack_scenario(kind, Protocol.SOFTDP)
    ev = spec.timeline[0]
    ports = {k: ev.attack.params[k] for k, (_, default) in ATTACK_PARAMS[kind].items()
             if default == REQUIRED}
    spec = dataclasses.replace(spec, timeline=(
        AttackStart(ev.at, AttackDecl(kind, {**ports, **params})),))
    sim = run_scenario(spec)
    assert [v.kind for v in sim.attack_results] == [kind]


def test_launch_rejects_unknown_kind():
    sim = run_scenario(scenarios.testbed_chain(Protocol.OFDP), until=1)
    with pytest.raises(ValueError):
        adversary.launch(sim, AttackDecl("mitm", {}))


def test_one_launcher_per_attack_kind():
    assert sorted(adversary._LAUNCHERS) == sorted(ATTACK_KINDS)


# -- switch spoofing ---------------------------------------------------------

def test_spoof_succeeds_against_plaintext_discovery():
    v, sim = run_attack("spoof", Protocol.OFDP)
    assert v.succeeded
    assert v.evidence["observed_frames"] > 0
    assert v.evidence["session_accepted"] is True
    # the chassis id read off the wire is s1's own management MAC
    mac = sim.spec.switch(1).id.local_mac
    assert v.evidence["claimed_chassis"] == mac.encode().hex()


def test_spoof_starves_without_host_port_probes():
    v, _ = run_attack("spoof", Protocol.SOFTDP)
    assert not v.succeeded
    assert v.evidence == {"observed_frames": 0, "reason": "no LLDP observed"}


# -- link fabrication by injection -------------------------------------------

def test_inject_fabricates_directed_link_against_baseline():
    v, sim = run_attack("inject", Protocol.OFDP)
    assert v.succeeded
    assert v.evidence["fake_links_in_map"]
    # the forged identity names the far switch's port: a phantom edge
    # touching s3.p2 is now in the map
    assert any("s3.p2" in s for s in v.evidence["fake_links_in_map"])


@pytest.mark.parametrize("in_window", [False, True])
def test_inject_dies_at_the_drop_rule(in_window):
    v, sim = run_attack("inject", Protocol.SOFTDP, in_window=in_window)
    assert not v.succeeded
    assert v.evidence["fake_links_in_map"] == []
    assert v.evidence["fake_links_ever_added"] == 0
    # no window ever opens on a host-facing port, so the frames are
    # dropped in the dataplane and the controller never even sees them
    assert v.evidence["suspicious_delta"] == 0


# -- link fabrication by relay -----------------------------------------------

def test_relay_builds_bidirectional_phantom_link_against_baseline():
    v, _ = run_attack("relay", Protocol.OFDP)
    assert v.succeeded
    assert v.evidence["relayed_frames"] > 0
    assert v.evidence["bidirectional"] is True
    assert "residual_in_window_rate" not in v.evidence


@pytest.mark.parametrize("in_window", [False, True])
def test_relay_has_nothing_to_capture(in_window):
    v, _ = run_attack("relay", Protocol.SOFTDP, in_window=in_window)
    assert not v.succeeded
    assert v.evidence["relayed_frames"] == 0
    assert v.evidence["fake_links_ever_added"] == 0
    # reported as a measurement, not assumed away
    assert v.evidence["residual_in_window_rate"] == 0.0


# -- flooding ----------------------------------------------------------------

def test_flood_swamps_baseline_controller():
    v, _ = run_attack("flood", Protocol.OFDP)
    assert v.succeeded
    assert v.evidence["frames_injected"] == 10_000
    assert v.evidence["forwarded"] >= 10_000
    assert v.evidence["rate_per_sec"] > adversary.FLOOD_THRESHOLD_PER_SEC


@pytest.mark.parametrize("in_window", [False, True])
def test_flood_is_absorbed_in_the_dataplane(in_window):
    v, _ = run_attack("flood", Protocol.SOFTDP, in_window=in_window)
    assert not v.succeeded
    assert v.evidence["forwarded"] == 0
    assert v.evidence["rate_per_sec"] == 0.0


# -- controller fingerprinting -----------------------------------------------

def test_fingerprint_identifies_baseline_by_content_and_cadence():
    v, _ = run_attack("fingerprint", Protocol.OFDP)
    assert v.succeeded
    assert v.evidence["identified"] == "aster-ctl-1s"
    assert v.evidence["identified"] == v.evidence["expected"]
    assert v.evidence["frames"] >= 3
    assert abs(v.evidence["period_ns"] - SEC) <= SEC // 5


def test_fingerprint_sees_nothing_from_event_driven_engine():
    v, _ = run_attack("fingerprint", Protocol.SOFTDP)
    assert not v.succeeded
    assert v.evidence["reason"] == "no periodic LLDP observed"


def test_fingerprint_discriminates_decoy_sharing_content():
    # two database entries share the same system description and differ
    # only in cadence; a 10 s round period must resolve to the slow one
    base = scenarios.testbed_chain(Protocol.OFDP)
    decl = AttackDecl("fingerprint", {"observe": scenarios.H1,
                                      "duration": "25s"})
    spec = ScenarioSpec(**{**base.__dict__,
                           "discovery_period": 10 * SEC,
                           "timeline": (AttackStart(0, decl),)})
    sim = run_scenario(spec)
    v = sim.attack_results[0]
    assert v.succeeded
    assert v.evidence["identified"] == "aster-ctl-10s"


def test_fingerprint_fails_on_unknown_product():
    base = scenarios.attack_scenario("fingerprint", Protocol.OFDP)
    sim = Simulation(base)
    sim.controller.product = b"homegrown-ctl/0.1"
    sim.run()
    v = sim.attack_results[0]
    assert not v.succeeded
    assert v.evidence["identified"] is None
    assert v.evidence["expected"] is None


def test_replicating_baseline_is_fingerprintable_too():
    v, _ = run_attack("fingerprint", Protocol.OFDPV2)
    assert v.succeeded


# -- cross-cutting -----------------------------------------------------------

def test_full_matrix_headline():
    expected = {
        ("spoof", Protocol.OFDP): True, ("spoof", Protocol.SOFTDP): False,
        ("inject", Protocol.OFDP): True, ("inject", Protocol.SOFTDP): False,
        ("relay", Protocol.OFDP): True, ("relay", Protocol.SOFTDP): False,
        ("flood", Protocol.OFDP): True, ("flood", Protocol.SOFTDP): False,
        ("fingerprint", Protocol.OFDP): True,
        ("fingerprint", Protocol.SOFTDP): False,
    }
    for (kind, proto), want in expected.items():
        v, _ = run_attack(kind, proto)
        assert v.succeeded is want, (kind, proto)
        assert v.kind == kind


def test_verdicts_land_in_trace_and_report():
    v, sim = run_attack("spoof", Protocol.OFDP)
    recs = [r for r in sim.engine.trace.records if r.kind == "attack_verdict"]
    assert len(recs) == 1
    assert dict(recs[0].detail)["succeeded"] is True
    rep = sim.report()
    assert rep["attacks"] == [v.as_dict()]


# -- verdict scans against plain loops ----------------------------------------

def reference_packet_in_counts(records, lo, mid, hi):
    before = during = 0
    for ts, kind, detail in records:
        if kind == "ctrl_delivered" and detail["msg"] == "PACKET_IN":
            if lo <= ts < mid:
                before += 1
            elif mid <= ts < hi:
                during += 1
    return before, during


def reference_ever_added_touching(records, ports):
    texts = {str(p) for p in ports}
    count = 0
    for _, kind, detail in records:
        if kind == "map_add_link" and (detail["egress"] in texts
                                       or detail["ingress"] in texts):
            count += 1
    return count


_P1, _P2, _P3 = PortRef(1, 1), PortRef(2, 1), PortRef(3, 2)

# (ts step, kind, msg or (egress, ingress)): deliveries of PACKET_IN and
# of other messages, learned links on and off the watched ports, and
# records of other kinds
_row = st.tuples(
    st.integers(0, 3),
    st.sampled_from(["ctrl_delivered", "map_add_link", "window_open"]),
    st.sampled_from(["PACKET_IN", "PACKET_OUT", "HELLO"]),
    st.sampled_from([(_P1, _P2), (_P2, _P1), (_P3, _P2), (_P2, _P3)]))


def _scanned_sim(rows):
    """A stand-in simulation whose trace holds ``rows``, ts ascending."""
    engine, ts = Engine(), 0
    for step, kind, msg, (egress, ingress) in rows:
        ts += step
        if kind == "ctrl_delivered":
            engine.trace.record(ts, kind, msg=msg, src="s1", dst="c")
        elif kind == "map_add_link":
            engine.trace.record(ts, kind, egress=str(egress),
                                ingress=str(ingress))
        else:
            engine.trace.record(ts, kind, port=str(egress))
    return SimpleNamespace(engine=engine)


# ts 1, 2, 3, 3, 3, 5, 5: PACKET_INs at 1, 3 and 5, other rows between
_AT_BOUNDS = [(step, kind, msg, (_P1, _P2)) for step, kind, msg in (
    (1, "ctrl_delivered", "PACKET_IN"), (1, "ctrl_delivered", "PACKET_OUT"),
    (1, "ctrl_delivered", "PACKET_IN"), (0, "map_add_link", "HELLO"),
    (0, "ctrl_delivered", "HELLO"), (2, "ctrl_delivered", "PACKET_IN"),
    (0, "window_open", "HELLO"))]


@given(st.lists(_row, max_size=40), st.lists(st.integers(0, 130), min_size=3,
                                             max_size=3))
@example(_AT_BOUNDS, [1, 3, 5])     # a PACKET_IN at each of lo, mid and hi
@example(_AT_BOUNDS, [2, 2, 2])
def test_verdict_scans_match_plain_loops(rows, bounds):
    sim = _scanned_sim(rows)
    lo, mid, hi = sorted(bounds)
    records = sim.engine.trace.records
    assert adversary._packet_in_counts(sim, lo, mid, hi) == \
        reference_packet_in_counts(records, lo, mid, hi)
    for ports in ({_P1}, {_P3, _P1}, {PortRef(9, 9)}):
        assert adversary._ever_added_touching(sim, ports) == \
            reference_ever_added_touching(records, ports)


def test_verdict_scans_match_plain_loops_on_attack_runs():
    _, flood = run_attack("flood", Protocol.OFDP)
    start, end = flood.spec.timeline[0].at, flood.engine.now
    records = flood.engine.trace.records
    for lo, mid, hi in ((0, start, end), (start - 1, start, start + SEC),
                        (records[5].ts, records[9].ts, records[-1].ts)):
        assert adversary._packet_in_counts(flood, lo, mid, hi) == \
            reference_packet_in_counts(records, lo, mid, hi)
    _, inject = run_attack("inject", Protocol.OFDP)
    ports = {inject.spec.timeline[0].attack.params["inject"]}
    assert adversary._ever_added_touching(inject, ports) == \
        reference_ever_added_touching(inject.engine.trace.records, ports) > 0
