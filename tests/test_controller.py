"""Controller behavior: windows, learning, removal guards, path tags.

Path-tag assertions run against networkx as an independent oracle; the
controller itself computes tags with its own incremental machinery.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from topodisc.core import (
    BfdParams,
    ControlChannel,
    ControlMessage,
    FeatureReplyBody,
    Link,
    LldpFrame,
    MsgKind,
    PacketInBody,
    PortRef,
    PortStatusBody,
    BfdStatusBody,
    Protocol,
    SEC,
    ScenarioSpec,
    SwitchDecl,
    SwitchId,
    from_ms,
    link_key,
    mac_bytes,
)
from topodisc.controller import Controller, IdentityHasher, PathTags, TopologyMap
from topodisc import scenarios

from conftest import StubServices


def _mac(i):
    return f"02:00:00:00:00:{i:02x}"


def _spec_for(n, protocol=Protocol.SOFTDP, port_count=8, links=()):
    return ScenarioSpec(
        switches=tuple(SwitchDecl(SwitchId(i, _mac(i)), port_count)
                       for i in range(1, n + 1)),
        links=tuple(links),
        control_channels=tuple(ControlChannel(i, from_ms(1), from_ms(1))
                               for i in range(1, n + 1)),
        bfd=BfdParams(from_ms(1), 1),
        protocol=protocol,
        discovery_period=SEC)


def _registered(n, protocol=Protocol.SOFTDP, ports_up=(), port_count=8):
    """Controller with n switches registered and bootstrap completed."""
    spec = _spec_for(n, protocol, port_count)
    services = StubServices()
    ctrl = Controller(spec, services)
    for i in range(1, n + 1):
        ctrl.handle(ControlMessage(
            MsgKind.FEATURE_REPLY, src=i, dst="controller",
            body=FeatureReplyBody(i, _mac(i), port_count, tuple(ports_up))))
    return ctrl, services


def _port_up(ctrl, port, epoch=1):
    ctrl.on_port_status(PortStatusBody(port, True, epoch))


def _probe_frames(services):
    """PACKET_OUT frames sent so far, keyed by egress port."""
    return {m.body.egress: m.body.frame for m in services.sent
            if m.kind == MsgKind.PACKET_OUT}


def _deliver_probe(ctrl, services, egress, ingress):
    frame = _probe_frames(services)[egress]
    ctrl.handle(ControlMessage(MsgKind.PACKET_IN, src=ingress.dpid,
                               dst="controller",
                               body=PacketInBody(ingress, frame)))


def _learn_link(ctrl, services, a, b):
    _port_up(ctrl, a)
    _port_up(ctrl, b)
    _deliver_probe(ctrl, services, a, b)
    _deliver_probe(ctrl, services, b, a)


# -- registration and bootstrap ---------------------------------------------

def test_isolated_switch_registers_but_stays_out_of_map():
    ctrl, services = _registered(1)
    assert 1 in ctrl.registry
    assert ctrl.map.switches == {}


def test_bootstrap_probes_only_reported_up_ports():
    spec = _spec_for(2, port_count=4)
    services = StubServices()
    ctrl = Controller(spec, services)
    for i, up in ((1, (1,)), (2, (1,))):
        ctrl.handle(ControlMessage(
            MsgKind.FEATURE_REPLY, src=i, dst="controller",
            body=FeatureReplyBody(i, _mac(i), 4, up)))
    outs = [m for m in services.sent if m.kind == MsgKind.PACKET_OUT]
    assert [m.body.egress for m in outs] == [PortRef(1, 1), PortRef(2, 1)]
    # probes are hashed identities plus a nonce, never plaintext
    for m in outs:
        reg = ctrl.registry[m.body.egress.dpid]
        assert mac_bytes(reg.id.local_mac) not in m.body.frame.chassis_id
        assert m.body.frame.nonce


def test_learning_requires_both_directions():
    ctrl, services = _registered(2)
    a, b = PortRef(1, 1), PortRef(2, 1)
    _port_up(ctrl, a)
    _port_up(ctrl, b)
    _deliver_probe(ctrl, services, a, b)
    assert ctrl.map.has_link(a, b) and not ctrl.map.bidirectional(a, b)
    assert ctrl.map.switches.keys() == {1, 2}
    _deliver_probe(ctrl, services, b, a)
    assert ctrl.map.bidirectional(a, b)
    assert [k for k, _ in services.records].count("map_link_bidirectional") == 1


def test_duplicate_report_is_idempotent():
    ctrl, services = _registered(2)
    a, b = PortRef(1, 1), PortRef(2, 1)
    _learn_link(ctrl, services, a, b)
    adds = [k for k, _ in services.records].count("map_add_link")
    _port_up(ctrl, a, epoch=2)
    _deliver_probe(ctrl, services, a, b)
    assert [k for k, _ in services.records].count("map_add_link") == adds


# -- windows ----------------------------------------------------------------

def test_unknown_nonce_is_suspicious():
    ctrl, services = _registered(2)
    forged = LldpFrame(b"x", b"y", b"z", nonce=b"not-a-nonce")
    ctrl.handle(ControlMessage(MsgKind.PACKET_IN, src=2, dst="controller",
                               body=PacketInBody(PortRef(2, 1), forged)))
    assert ctrl.suspicious == 1
    assert services.records[-1][1]["reason"] == "no_open_window_for_nonce"
    assert not ctrl.map.directed_links


def test_expired_window_rejects_probe_return():
    ctrl, services = _registered(2)
    a, b = PortRef(1, 1), PortRef(2, 1)
    _port_up(ctrl, a)
    frame = _probe_frames(services)[a]
    services.clock = ctrl.spec.lldp_window + 1
    services.fire_due()  # window expiry timer
    ctrl.handle(ControlMessage(MsgKind.PACKET_IN, src=2, dst="controller",
                               body=PacketInBody(b, frame)))
    assert ctrl.suspicious == 1
    assert not ctrl.map.directed_links


def test_rotation_supersedes_old_nonce_quietly():
    ctrl, services = _registered(2)
    a, b = PortRef(1, 1), PortRef(2, 1)
    _port_up(ctrl, a)
    old = _probe_frames(services)[a]
    _port_up(ctrl, b)  # rotates the window on a with a fresh nonce
    assert any(k == "window_rotated" for k, _ in services.records)
    ctrl.handle(ControlMessage(MsgKind.PACKET_IN, src=2, dst="controller",
                               body=PacketInBody(b, old)))
    assert ctrl.suspicious == 0
    assert ctrl.counters["superseded_probe"] == 1
    assert not ctrl.map.directed_links
    # the fresh probe still completes the direction
    _deliver_probe(ctrl, services, a, b)
    assert ctrl.map.has_link(a, b)


def test_replayed_consumed_nonce_is_suspicious():
    ctrl, services = _registered(2)
    a, b = PortRef(1, 1), PortRef(2, 1)
    _port_up(ctrl, a)
    frame = _probe_frames(services)[a]
    ctrl.handle(ControlMessage(MsgKind.PACKET_IN, src=2, dst="controller",
                               body=PacketInBody(b, frame)))
    ctrl.handle(ControlMessage(MsgKind.PACKET_IN, src=2, dst="controller",
                               body=PacketInBody(b, frame)))
    assert ctrl.suspicious == 1


def test_implausible_ingress_rejected():
    ctrl, services = _registered(2)
    a = PortRef(1, 1)
    _port_up(ctrl, a)
    frame = _probe_frames(services)[a]
    for ingress in (PortRef(1, 2), PortRef(9, 1), PortRef(2, 99)):
        ctrl.handle(ControlMessage(MsgKind.PACKET_IN, src=2, dst="controller",
                                   body=PacketInBody(ingress, frame)))
    assert ctrl.suspicious == 3
    assert not ctrl.map.directed_links


def test_in_window_forged_nonce_rejected():
    # a frame arriving during an open window still needs the exact nonce
    ctrl, services = _registered(2)
    a, b = PortRef(1, 1), PortRef(2, 1)
    _port_up(ctrl, a)
    real = _probe_frames(services)[a]
    forged = LldpFrame(real.chassis_id, real.port_id,
                       real.system_description, nonce=b"guess")
    ctrl.handle(ControlMessage(MsgKind.PACKET_IN, src=2, dst="controller",
                               body=PacketInBody(b, forged)))
    assert ctrl.suspicious == 1
    assert not ctrl.map.directed_links


# -- removal ----------------------------------------------------------------

def test_first_bfd_status_removes_second_is_redundant():
    ctrl, services = _registered(2)
    a, b = PortRef(1, 1), PortRef(2, 1)
    _learn_link(ctrl, services, a, b)
    ctrl.on_bfd_status(BfdStatusBody(a, "DOWN", epoch=1))
    assert not ctrl.map.directed_links
    assert not ctrl.map.switches  # both lost their only link
    ctrl.on_bfd_status(BfdStatusBody(b, "DOWN", epoch=1))
    assert ctrl.counters["redundant_bfd_status"] == 1


def test_stale_epoch_bfd_status_is_noop():
    ctrl, services = _registered(2)
    a, b = PortRef(1, 1), PortRef(2, 1)
    _learn_link(ctrl, services, a, b)
    _port_up(ctrl, a, epoch=2)  # link flapped back up; controller saw epoch 2
    ctrl.on_bfd_status(BfdStatusBody(a, "DOWN", epoch=1))
    assert ctrl.counters["stale_bfd_status"] == 1
    assert ctrl.map.has_link(a, b)


def test_port_down_removes_touching_links_and_closes_the_window():
    ctrl, services = _registered(3)
    a, b = PortRef(1, 1), PortRef(2, 1)
    c, d = PortRef(1, 2), PortRef(3, 1)
    _learn_link(ctrl, services, a, b)
    _learn_link(ctrl, services, c, d)
    _port_up(ctrl, a, epoch=2)  # opens a fresh window on a
    pending = _probe_frames(services)[a]
    ctrl.handle(ControlMessage(MsgKind.PORT_STATUS, src=1, dst="controller",
                               body=PortStatusBody(a, False, 2)))
    removed = [(r["egress"], r["ingress"], r["cause"])
               for k, r in services.records if k == "map_remove_link"]
    assert removed == [(str(a), str(b), "port_down"),
                       (str(b), str(a), "port_down")]
    assert ctrl.map.directed_links == {(c, d), (d, c)}
    assert ctrl.map.switches.keys() == {1, 3}
    # the window on a closed with the port: its probe coming back now is
    # not our own late traffic but an unexplained nonce
    ctrl.handle(ControlMessage(MsgKind.PACKET_IN, src=2, dst="controller",
                               body=PacketInBody(b, pending)))
    assert ctrl.suspicious == 1
    assert services.records[-1][1]["reason"] == "no_open_window_for_nonce"
    assert ctrl.counters["superseded_probe"] == 0
    assert not ctrl.map.has_link(a, b)


def test_a_packet_out_at_the_controller_is_a_protocol_error():
    ctrl, services = _registered(2)
    records, sent = list(services.records), list(services.sent)
    ctrl.handle(ControlMessage(MsgKind.PACKET_OUT, src=1, dst="controller",
                               body=None))
    assert services.records == records + [
        ("protocol_error", {"msg": "PACKET_OUT", "src": 1})]
    assert services.sent == sent
    assert ctrl.counters["protocol_error"] == 1


@pytest.mark.parametrize("protocol", [Protocol.OFDP, Protocol.OFDPV2])
def test_baselines_only_count_port_and_bfd_status(protocol):
    ctrl, services = _registered(2, protocol)
    a, b = PortRef(1, 1), PortRef(2, 1)
    frame = LldpFrame(_mac(1).encode(), b"s1.p1", b"x")
    ctrl.handle(ControlMessage(MsgKind.PACKET_IN, src=2, dst="controller",
                               body=PacketInBody(b, frame)))
    assert ctrl.map.has_link(a, b)
    records, sent = list(services.records), list(services.sent)
    links, counters = set(ctrl.map.directed_links), dict(ctrl.counters)
    ctrl.handle(ControlMessage(MsgKind.PORT_STATUS, src=1, dst="controller",
                               body=PortStatusBody(a, False, 2)))
    ctrl.handle(ControlMessage(MsgKind.BFD_STATUS, src=1, dst="controller",
                               body=BfdStatusBody(a, "DOWN", 2)))
    assert services.records == records and services.sent == sent
    assert ctrl.map.directed_links == links
    assert dict(ctrl.counters) == {**counters, "ignored_port_status": 1,
                                   "ignored_bfd_status": 1}


def test_bfd_status_for_unknown_port_is_suspicious():
    ctrl, services = _registered(2)
    ctrl.on_bfd_status(BfdStatusBody(PortRef(9, 1), "DOWN", epoch=1))
    ctrl.on_bfd_status(BfdStatusBody(PortRef(1, 99), "DOWN", epoch=1))
    assert ctrl.suspicious == 2


def test_channel_close_removes_switch_and_links():
    ctrl, services = _registered(3)
    _learn_link(ctrl, services, PortRef(1, 1), PortRef(2, 1))
    _learn_link(ctrl, services, PortRef(2, 2), PortRef(3, 1))
    ctrl.on_channel_closed(2)
    assert 2 not in ctrl.map.switches
    assert not ctrl.map.links_of_switch(2)
    # s1 and s3 lost their only links too
    assert ctrl.map.switches == {}
    ctrl.on_channel_closed(2)  # second close is a no-op


# -- identity hashing and admission -----------------------------------------

def test_hashes_differ_across_seeds_and_hide_input():
    h1 = IdentityHasher.from_seed(1)
    h2 = IdentityHasher.from_seed(2)
    payload = mac_bytes(_mac(1))
    assert h1.digest(payload) != h2.digest(payload)
    assert payload not in h1.digest(payload)
    assert h1.digest(payload) == IdentityHasher.from_seed(1).digest(payload)


def test_nonces_are_unique():
    h = IdentityHasher.from_seed(3)
    nonces = {h.next_nonce() for _ in range(100)}
    assert len(nonces) == 100


def test_accept_switch_session_rejects_captured_digest():
    ctrl, services = _registered(2)
    assert ctrl.accept_switch_session(_mac(1).encode()) is True
    digest = ctrl.hasher.digest(mac_bytes(_mac(1)))
    assert ctrl.accept_switch_session(digest) is False
    assert ctrl.accept_switch_session(b"\xff\xfe") is False
    assert ctrl.accept_switch_session(b"02:99:99:99:99:99") is False


# -- baselines ---------------------------------------------------------------

def test_ofdp_round_emits_one_packet_out_per_port():
    ctrl, services = _registered(3, Protocol.OFDP, port_count=2)
    outs = [m for m in services.sent if m.kind == MsgKind.PACKET_OUT]
    assert len(outs) == 6  # 3 switches x 2 ports, every round
    assert all(m.body.egress is not None for m in outs)
    # frames are plaintext: chassis is the MAC, no nonce
    assert outs[0].body.frame.chassis_id == _mac(1).encode()


def test_ofdpv2_round_emits_one_packet_out_per_switch():
    ctrl, services = _registered(3, Protocol.OFDPV2, port_count=2)
    outs = [m for m in services.sent if m.kind == MsgKind.PACKET_OUT]
    assert len(outs) == 3
    assert all(m.body.egress is None for m in outs)


def test_baseline_learns_from_cleartext_and_never_tags():
    ctrl, services = _registered(2, Protocol.OFDP, port_count=2)
    frame = LldpFrame(_mac(1).encode(), b"s1.p1", b"x")
    for ingress, fr in ((PortRef(2, 1), frame),):
        ctrl.handle(ControlMessage(MsgKind.PACKET_IN, src=2, dst="controller",
                                   body=PacketInBody(ingress, fr)))
    reverse = LldpFrame(_mac(2).encode(), b"s2.p1", b"x")
    ctrl.handle(ControlMessage(MsgKind.PACKET_IN, src=1, dst="controller",
                               body=PacketInBody(PortRef(1, 1), reverse)))
    assert ctrl.map.bidirectional(PortRef(1, 1), PortRef(2, 1))
    assert ctrl.map.path_tags == {}
    assert ctrl.retag_paths([]) == []


@pytest.mark.parametrize("port_id, reason", [
    (b"s2.p1", "chassis_port_mismatch"),
    (b"s1.p99", "unknown_port"),    # s1 has two ports
    (b"s1.p0", "unknown_port"),
    (b"\xff\xfe", "unknown_port"),
])
def test_baseline_chassis_port_mismatch_is_suspicious(port_id, reason):
    ctrl, services = _registered(2, Protocol.OFDP, port_count=2)
    lying = LldpFrame(_mac(1).encode(), port_id, b"x")
    ctrl.handle(ControlMessage(MsgKind.PACKET_IN, src=2, dst="controller",
                               body=PacketInBody(PortRef(2, 1), lying)))
    assert ctrl.suspicious == 1
    assert [d["reason"] for k, d in services.records
            if k == "suspicious_packet_in"] == [reason]
    assert ctrl.map.directed_links == set()


def test_baseline_packet_in_for_a_departed_switch_is_late_only_within_the_bound():
    # every channel takes 1 ms toward the controller
    ctrl, services = _registered(3, Protocol.OFDP, port_count=2)
    frame = LldpFrame(_mac(2).encode(), b"s2.p1", b"x")

    def packet_in(frame):
        ctrl.handle(ControlMessage(MsgKind.PACKET_IN, src=1, dst="controller",
                                   body=PacketInBody(PortRef(1, 1), frame)))

    def reasons():
        return [d["reason"] for k, d in services.records
                if k == "suspicious_packet_in"]

    services.clock = 5 * SEC
    ctrl.on_channel_closed(2)
    services.clock += from_ms(1)
    packet_in(frame)
    assert ctrl.suspicious == 0 and ctrl.counters["late_packet_in"] == 1
    assert services.records[-1] == ("late_packet_in", {"dpid": 2, "ingress": "s1.p1"})
    assert ctrl.map.directed_links == set()
    # a chassis that never registered is suspicious at any time
    packet_in(LldpFrame(_mac(9).encode(), b"s9.p1", b"x"))
    assert reasons() == ["unknown_chassis"]
    # and so is the departed one, once past the bound
    services.clock += 1
    packet_in(frame)
    assert reasons() == ["unknown_chassis"] * 2
    assert ctrl.counters["late_packet_in"] == 1
    # registering again clears it: closed later, it gets a new bound
    ctrl.handle(ControlMessage(MsgKind.FEATURE_REPLY, src=2, dst="controller",
                               body=FeatureReplyBody(2, _mac(2), 2, ())))
    packet_in(frame)
    assert ctrl.map.has_link(PortRef(2, 1), PortRef(1, 1))
    assert ctrl._departed == {}
    services.clock += 10 * SEC
    ctrl.on_channel_closed(2)
    services.clock += from_ms(1)
    packet_in(frame)
    assert ctrl.counters["late_packet_in"] == 2 and ctrl.suspicious == 2


def test_baseline_prunes_unconfirmed_links_after_one_missed_round():
    ctrl, services = _registered(2, Protocol.OFDP, port_count=2)
    frame = LldpFrame(_mac(1).encode(), b"s1.p1", b"x")
    ctrl.handle(ControlMessage(MsgKind.PACKET_IN, src=2, dst="controller",
                               body=PacketInBody(PortRef(2, 1), frame)))
    assert ctrl.map.has_link(PortRef(1, 1), PortRef(2, 1))
    # the entry was confirmed in round 0; it survives the round-1 dispatch
    # and is pruned at round 2
    ctrl._dispatch_round()
    assert ctrl.map.has_link(PortRef(1, 1), PortRef(2, 1))
    ctrl._dispatch_round()
    assert not ctrl.map.directed_links


def test_baseline_prune_keeps_the_reconfirmed_direction():
    ctrl, services = _registered(2, Protocol.OFDP, port_count=2)
    fwd = (PortRef(1, 1), PortRef(2, 1))

    def confirm(egress, ingress):
        frame = LldpFrame(_mac(egress.dpid).encode(), str(egress).encode(), b"x")
        ctrl.handle(ControlMessage(MsgKind.PACKET_IN, src=ingress.dpid,
                                   dst="controller",
                                   body=PacketInBody(ingress, frame)))

    confirm(*fwd)
    confirm(fwd[1], fwd[0])
    assert ctrl.map.bidirectional(*fwd)
    ctrl._dispatch_round()
    confirm(*fwd)           # only s1.p1 -> s2.p1 is seen again
    while ctrl.map.has_link(fwd[1], fwd[0]):
        ctrl._dispatch_round()
    assert ctrl.map.directed_links == {fwd}
    assert sorted(ctrl.map.switches) == [1, 2]


# -- topology map indexes ----------------------------------------------------

def test_map_adjacency_counts_parallel_links_and_skips_one_way_links():
    m = TopologyMap()
    a1, b1, a2, b2 = PortRef(1, 1), PortRef(2, 1), PortRef(1, 2), PortRef(2, 2)
    m.add_link(a1, b1)
    assert m.first_hop_port(1, 2) is None      # confirmed one way only
    assert 1 not in m.adj
    for link in ((b1, a1), (a2, b2), (b2, a2)):
        assert m.add_link(*link)
    assert not m.add_link(a2, b2)
    assert (m.first_hop_port(1, 2), m.first_hop_port(2, 1)) == (a1, b1)
    m.remove_link(a1, b1)
    # the parallel link keeps s1 and s2 adjacent
    assert (m.first_hop_port(1, 2), m.first_hop_port(2, 1)) == (a2, b2)
    assert m.links_touching(a1) == [(b1, a1)]
    m.remove_link(a2, b2)
    assert m.adj == {}
    assert m.links_of_switch(1) == [(b1, a1), (b2, a2)]
    assert not m.remove_link(a2, b2)


# -- path tags vs networkx oracle -------------------------------------------

def _fill_map(ctrl, edges):
    """Install bidirectional links for the given dpid edges, assigning
    distinct ports per switch in edge order."""
    next_port = {}
    for (u, v) in edges:
        pu = PortRef(u, next_port.get(u, 0) + 1)
        next_port[u] = pu.port_no
        pv = PortRef(v, next_port.get(v, 0) + 1)
        next_port[v] = pv.port_no
        ctrl.map.add_link(pu, pv)
        ctrl.map.add_link(pv, pu)
        for d in (u, v):
            ctrl.map.switches.setdefault(d, SwitchId(d, _mac(d)))


def _oracle_tags(edges):
    g = nx.Graph(edges)
    bridges = {frozenset(e) for e in nx.bridges(g)}
    tags = {}
    for a in sorted(g.nodes):
        for b in sorted(g.nodes):
            if a >= b or not nx.has_path(g, a, b):
                continue
            primary = tuple(min(nx.all_shortest_paths(g, a, b)))
            avoid = next((frozenset((u, v))
                          for u, v in zip(primary, primary[1:])
                          if frozenset((u, v)) not in bridges), None)
            if avoid is None:
                tags[(a, b)] = PathTags(primary, ())
            else:
                h = g.copy()
                h.remove_edge(*tuple(avoid))
                backup = tuple(min(nx.all_shortest_paths(h, a, b)))
                tags[(a, b)] = PathTags(primary, (backup,))
    return tags


def _random_connected_edges(rng, n):
    nodes = list(range(1, n + 1))
    rng.shuffle(nodes)
    edges = {tuple(sorted((nodes[i - 1], nodes[i]))) for i in range(1, n)}
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < 0.3:
                edges.add((u, v))
    return sorted(edges)


@pytest.mark.parametrize("seed", range(12))
def test_tags_match_oracle_on_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    edges = _random_connected_edges(rng, n)
    ctrl, _ = _registered(0)
    _fill_map(ctrl, edges)
    ctrl.retag_paths([])
    assert ctrl.map.path_tags == _oracle_tags(edges)


def test_tags_on_cycle_have_backups_on_path_none_on_bridge():
    # square cycle plus a pendant: cycle pairs get backups, pendant none
    edges = [(1, 2), (2, 3), (3, 4), (1, 4), (4, 5)]
    ctrl, _ = _registered(0)
    _fill_map(ctrl, edges)
    ctrl.retag_paths([])
    tags = ctrl.map.path_tags
    assert tags[(1, 2)].primary == (1, 2)
    assert tags[(1, 2)].backups == ((1, 4, 3, 2),)
    assert tags[(1, 3)].primary == (1, 2, 3)  # lex-min of the two 2-hop routes
    assert tags[(4, 5)].backups == ()  # pendant edge is a bridge
    assert tags[(1, 5)].primary == (1, 4, 5)


def test_incremental_retag_equals_full_recompute():
    rng = random.Random(99)
    n = 8
    ctrl, _ = _registered(0)
    edges = _random_connected_edges(rng, n)
    _fill_map(ctrl, edges)
    ctrl.retag_paths([])
    port_of = {}
    for (pu, pv) in list(ctrl.map.directed_links):
        port_of[(pu.dpid, pv.dpid)] = (pu, pv)
    present = set(edges)
    for _ in range(40):
        if present and rng.random() < 0.5:
            u, v = rng.choice(sorted(present))
            present.discard((u, v))
            pu, pv = port_of[(u, v)]
            ctrl.map.remove_link(pu, pv)
            ctrl.map.remove_link(pv, pu)
        else:
            candidates = [e for e in edges if e not in present]
            if not candidates:
                continue
            u, v = rng.choice(candidates)
            present.add((u, v))
            pu, pv = port_of[(u, v)]
            ctrl.map.add_link(pu, pv)
            ctrl.map.add_link(pv, pu)
        pu, pv = port_of[(u, v)]
        ctrl.retag_paths([link_key(pu, pv)])

        fresh, _srv = _registered(0)
        for link in sorted(ctrl.map.directed_links):
            fresh.map.add_link(*link)
        fresh.retag_paths([])
        assert ctrl.map.path_tags == fresh.map.path_tags


def test_group_push_buckets_watch_first_hop():
    ctrl, services = _registered(4)
    # square: 1-2-3-4-1
    _learn_link(ctrl, services, PortRef(1, 1), PortRef(2, 1))
    _learn_link(ctrl, services, PortRef(2, 2), PortRef(3, 1))
    _learn_link(ctrl, services, PortRef(3, 2), PortRef(4, 1))
    _learn_link(ctrl, services, PortRef(4, 2), PortRef(1, 2))
    mods = [m for m in services.sent if m.kind == MsgKind.GROUP_MOD]
    assert mods, "cycle completion must push failover groups"
    for m in mods:
        assert m.body.dpid == m.dst
        assert 1 <= len(m.body.buckets) <= 2
        for bucket in m.body.buckets:
            assert bucket.watch == bucket.out
            assert bucket.watch.dpid == m.body.dpid
    # no re-push when nothing changed
    before = len(mods)
    ctrl.retag_paths([])
    mods_after = [m for m in services.sent if m.kind == MsgKind.GROUP_MOD]
    assert len(mods_after) == before


def test_safe_to_remove_marks_only_the_changed_link():
    ctrl, services = _registered(3)
    a1, b1 = PortRef(1, 1), PortRef(2, 1)
    _learn_link(ctrl, services, a1, b1)
    _learn_link(ctrl, services, PortRef(2, 2), PortRef(3, 1))
    assert ctrl.map.safe_to_remove == set()  # chain: no alternatives
    closing = (PortRef(3, 2), PortRef(1, 2))
    _learn_link(ctrl, services, *closing)
    # the link whose arrival created the redundancy gets the mark; the
    # older chain links are not retroactively re-marked
    assert link_key(*closing) in ctrl.map.safe_to_remove
    assert link_key(a1, b1) not in ctrl.map.safe_to_remove


def test_safe_to_remove_cleared_when_link_dies():
    ctrl, services = _registered(3)
    _learn_link(ctrl, services, PortRef(1, 1), PortRef(2, 1))
    _learn_link(ctrl, services, PortRef(2, 2), PortRef(3, 1))
    closing = (PortRef(3, 2), PortRef(1, 2))
    _learn_link(ctrl, services, *closing)
    assert link_key(*closing) in ctrl.map.safe_to_remove
    epoch = services.now() + 1
    ctrl.on_bfd_status(BfdStatusBody(port=PortRef(3, 2), state="DOWN",
                                     epoch=epoch))
    assert link_key(*closing) not in ctrl.map.safe_to_remove
