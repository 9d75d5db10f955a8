"""Builder sanity: every canned scenario validates, port conventions
hold, and the randomized churn generator emits only feasible timelines."""
import random

import pytest

from topodisc.core import (
    ATTACK_KINDS,
    AttackStart,
    LinkAdd,
    LinkRemove,
    Protocol,
    SwitchJoin,
    SwitchLeave,
    validate_scenario,
)
from topodisc import scenarios


def referenced_ports(spec):
    out = set()
    for l in spec.links:
        out.add(l.a)
        out.add(l.b)
    return out


def test_all_named_builders_validate():
    for name, build in scenarios.BUILDERS.items():
        assert validate_scenario(build()) == [], name


@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_every_attack_scenario_validates(kind):
    # validation rejects params a kind never reads, so the shipped attack
    # scenarios must name only params their launcher reads
    for protocol in Protocol:
        for in_window in (False, True):
            spec = scenarios.attack_scenario(kind, protocol, in_window=in_window)
            assert validate_scenario(spec) == [], (protocol, in_window)


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_chain_every_port_is_inter_switch(n):
    spec = scenarios.chain(n)
    refd = referenced_ports(spec)
    declared = {(d.id.dpid, p) for d in spec.switches
                for p in range(1, d.port_count + 1)}
    assert {(p.dpid, p.port_no) for p in refd} == declared
    assert len(spec.links) == n - 1


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_mesh_port_counts_and_link_count(n):
    spec = scenarios.mesh(n)
    assert validate_scenario(spec) == []
    assert all(d.port_count == n - 1 for d in spec.switches)
    assert len(spec.links) == n * (n - 1) // 2


def test_chain_and_mesh_reject_singletons():
    with pytest.raises(ValueError):
        scenarios.chain(1)
    with pytest.raises(ValueError):
        scenarios.mesh(1)


def test_testbed_has_host_ports_on_the_end_switches():
    spec = scenarios.testbed_chain(Protocol.OFDP)
    refd = referenced_ports(spec)
    assert scenarios.H1 not in refd
    assert scenarios.H2 not in refd
    # both are declared, so the baseline will probe them
    assert spec.switch(1).port_count >= scenarios.H1.port_no
    assert spec.switch(3).port_count >= scenarios.H2.port_no


def test_attack_scenario_every_kind_builds():
    for kind in ("spoof", "inject", "relay", "flood", "fingerprint"):
        for proto in (Protocol.OFDP, Protocol.SOFTDP):
            spec = scenarios.attack_scenario(kind, proto)
            assert validate_scenario(spec) == []
            starts = [e for e in spec.timeline if isinstance(e, AttackStart)]
            assert len(starts) == 1
            assert starts[0].attack.kind == kind


def test_attack_scenario_unknown_kind_raises():
    with pytest.raises(ValueError):
        scenarios.attack_scenario("mitm", Protocol.SOFTDP)


def test_attack_scenario_in_window_starts_earlier():
    normal = scenarios.attack_scenario("inject", Protocol.SOFTDP)
    early = scenarios.attack_scenario("inject", Protocol.SOFTDP,
                                      in_window=True)
    assert early.timeline[0].at < normal.timeline[0].at
    assert early.timeline[0].at < early.lldp_window


def test_measurement_scenarios_differ_by_seed_but_not_by_call():
    a1 = scenarios.link_add_scenario(7)
    a2 = scenarios.link_add_scenario(7)
    b = scenarios.link_add_scenario(8)
    assert a1 == a2
    assert a1 != b
    assert a1.rng_seed == 7


def test_scale_scenario_keeps_the_measured_edge_fixed():
    base = scenarios.link_add_scenario(3)
    for extra in (0, 5, 20):
        s = scenarios.scale_scenario(3, extra)
        assert s.links == base.links
        assert s.control_channels[:2] == base.control_channels
        assert len(s.switches) == 2 + extra
        assert validate_scenario(s) == []


def test_random_scenario_deterministic_per_seed():
    assert scenarios.random_scenario(11) == scenarios.random_scenario(11)
    assert scenarios.random_scenario(11) != scenarios.random_scenario(12)


@pytest.mark.parametrize("seed", range(8))
def test_random_scenario_validates_and_timeline_is_feasible(seed):
    spec = scenarios.random_scenario(seed)
    assert validate_scenario(spec) == []
    assert len(spec.timeline) == 50

    # replay the timeline against declared state and check each event
    # was possible at its instant
    alive = set(spec.initially_alive())
    present = set(spec.initially_present())
    link_keys = {l.key() for l in spec.links}
    for ev in spec.timeline:
        if isinstance(ev, LinkRemove):
            key = spec.link_between(ev.a, ev.b).key()
            assert key in alive
            alive.discard(key)
        elif isinstance(ev, LinkAdd):
            key = spec.link_between(ev.a, ev.b).key()
            assert key in link_keys and key not in alive
            assert key[0].dpid in present and key[1].dpid in present
            alive.add(key)
        elif isinstance(ev, SwitchLeave):
            assert ev.dpid in present and len(present) > 2
            present.discard(ev.dpid)
            alive = {k for k in alive
                     if ev.dpid not in (k[0].dpid, k[1].dpid)}
        elif isinstance(ev, SwitchJoin):
            assert ev.dpid not in present
            present.add(ev.dpid)
            for key in link_keys - alive:
                if ev.dpid in (key[0].dpid, key[1].dpid) and \
                        key[0].dpid in present and key[1].dpid in present:
                    alive.add(key)
        else:
            pytest.fail(f"unexpected event {ev!r}")


def test_random_scenario_topology_is_connected():
    for seed in range(5):
        spec = scenarios.random_scenario(seed)
        adj = {}
        for l in spec.links:
            adj.setdefault(l.a.dpid, set()).add(l.b.dpid)
            adj.setdefault(l.b.dpid, set()).add(l.a.dpid)
        seen = set()
        stack = [spec.switches[0].id.dpid]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adj.get(v, ()))
        assert seen == {d.id.dpid for d in spec.switches}


def test_random_scenario_size_override():
    spec = scenarios.random_scenario(4, n_switches=12, n_events=9)
    assert len(spec.switches) == 12
    assert len(spec.timeline) == 9
