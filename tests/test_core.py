"""Scenario model: durations, references, validation, file round-trip."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from topodisc.core import (
    CONTROLLER,
    BfdParams,
    ControlChannel,
    ControlMessage,
    GroupBucket,
    GroupModBody,
    Link,
    LinkAdd,
    LinkRemove,
    LldpFrame,
    MS,
    MsgKind,
    PacketInBody,
    PacketOutBody,
    PortRef,
    Protocol,
    SEC,
    ScenarioSpec,
    SwitchDecl,
    SwitchId,
    SwitchJoin,
    SwitchLeave,
    US,
    decode_scenario,
    encode_scenario,
    format_duration,
    from_ms,
    link_key,
    parse_duration,
    validate_scenario,
)
from topodisc.simnet import TraceRecord
from topodisc import scenarios


# -- durations --------------------------------------------------------------

def test_duration_units():
    assert parse_duration("1ns") == 1
    assert parse_duration("250us") == 250 * US
    assert parse_duration("16.7ms") == 16_700_000
    assert parse_duration("1s") == SEC
    assert parse_duration("500ms") == 500 * MS
    assert parse_duration(42) == 42


def test_duration_rejects_garbage():
    for bad in ("", "12", "ms", "1 parsec", "-5ms"):
        with pytest.raises(ValueError):
            parse_duration(bad)


def test_duration_is_exact_for_long_decimals():
    assert parse_duration("1.000000007s") == SEC + 7
    # a float product lands one ns short here
    assert parse_duration("9999999.999999999s") == 9_999_999_999_999_999
    with pytest.raises(ValueError):
        parse_duration("1.0000000001s")


def test_format_duration_picks_exact_unit():
    assert format_duration(SEC) == "1s"
    assert format_duration(1500 * US) == "1500us"
    assert format_duration(3) == "3ns"


@given(st.integers(min_value=0, max_value=10**15))
def test_duration_round_trip(ns):
    assert parse_duration(format_duration(ns)) == ns


# -- references -------------------------------------------------------------

def test_portref_parse_and_str():
    p = PortRef.parse("s3.p17")
    assert p == PortRef(3, 17)
    assert str(p) == "s3.p17"
    with pytest.raises(ValueError):
        PortRef.parse("s3p17")


_port_ids = st.integers(min_value=0, max_value=2**40)


@given(_port_ids, _port_ids, _port_ids, _port_ids)
def test_portref_is_an_immutable_pair(d, p, d2, p2):
    ref, other = PortRef(d, p), PortRef(d2, p2)
    # sets and dicts of ports, and so the traces, iterate in this order
    assert hash(ref) == hash((d, p))
    assert (ref < other) == ((d, p) < (d2, p2))
    assert (ref <= other) == ((d, p) <= (d2, p2))
    assert (ref == other) == ((d, p) == (d2, p2))
    assert sorted([other, ref]) == [PortRef(*t) for t in sorted([(d2, p2), (d, p)])]
    assert PortRef.parse(str(ref)) == ref
    assert (ref.dpid, ref.port_no) == (d, p)
    with pytest.raises(AttributeError):
        ref.dpid = d + 1
    with pytest.raises(AttributeError):
        ref.port_no = p + 1


def test_messages_build_from_keywords_and_read_fields_by_name():
    a, b = PortRef(dpid=1, port_no=2), PortRef(dpid=3, port_no=1)
    frame = LldpFrame(chassis_id=b"c", port_id=b"p", system_description=b"d")
    assert (frame.chassis_id, frame.port_id, frame.system_description,
            frame.nonce) == (b"c", b"p", b"d", b"")
    assert LldpFrame(b"c", b"p", b"d", nonce=b"n").nonce == b"n"
    out = PacketOutBody(egress=None, frame=frame)
    assert out.egress is None and out.frame is frame
    pin = PacketInBody(ingress=a, frame=frame)
    assert pin.ingress == a and pin.frame is frame
    bucket = GroupBucket(watch=a, out=b)
    assert (bucket.watch, bucket.out) == (a, b)
    mod = GroupModBody(dpid=1, group_id=3, buckets=(bucket,))
    assert (mod.dpid, mod.group_id, mod.buckets) == (1, 3, (bucket,))
    msg = ControlMessage(kind=MsgKind.GROUP_MOD, src=CONTROLLER, dst=1, body=mod)
    assert (msg.kind, msg.src, msg.dst, msg.body) == (
        MsgKind.GROUP_MOD, CONTROLLER, 1, mod)
    rec = TraceRecord(ts=5, kind="k", detail={"x": 1})
    assert (rec.ts, rec.kind, rec.detail) == (5, "k", {"x": 1})
    for value, field in ((frame, "nonce"), (out, "egress"), (pin, "ingress"),
                         (bucket, "out"), (mod, "buckets"), (msg, "body"),
                         (rec, "detail")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    # equal fields, equal values: messages compare and hash by content
    assert ControlMessage(MsgKind.HELLO, 1, CONTROLLER, None) == \
        ControlMessage(kind=MsgKind.HELLO, src=1, dst=CONTROLLER, body=None)
    assert hash(GroupBucket(a, b)) == hash(GroupBucket(watch=a, out=b))


def test_link_normalizes_endpoint_order():
    fwd = Link(PortRef(1, 1), PortRef(2, 1), from_ms(1), from_ms(2))
    rev = Link(PortRef(2, 1), PortRef(1, 1), from_ms(2), from_ms(1))
    assert fwd == rev
    assert fwd.key() == (PortRef(1, 1), PortRef(2, 1))
    # direction-specific delays follow their endpoints through the swap
    assert rev.delay_ab == from_ms(1)
    assert rev.delay_ba == from_ms(2)


def test_link_key_matches_free_function():
    a, b = PortRef(4, 2), PortRef(3, 2)
    assert Link(a, b, 1, 1).key() == link_key(a, b)


# -- validation -------------------------------------------------------------

def _spec(**overrides):
    base = dict(
        switches=(SwitchDecl(SwitchId(1, "02:00:00:00:00:01"), 1),
                  SwitchDecl(SwitchId(2, "02:00:00:00:00:02"), 1)),
        links=(Link(PortRef(1, 1), PortRef(2, 1), from_ms(1), from_ms(1)),),
        control_channels=(ControlChannel(1, from_ms(1), from_ms(1)),
                          ControlChannel(2, from_ms(1), from_ms(1))),
        bfd=BfdParams(from_ms(1), 1),
        protocol=Protocol.SOFTDP,
        discovery_period=SEC,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def test_valid_spec_has_no_violations():
    assert validate_scenario(_spec()) == []


def test_unknown_switch_in_link():
    spec = _spec(links=(Link(PortRef(1, 1), PortRef(9, 1), 1, 1),))
    msgs = [str(v) for v in validate_scenario(spec)]
    assert any("unknown switch s9" in m for m in msgs)


def test_port_out_of_range():
    spec = _spec(links=(Link(PortRef(1, 1), PortRef(2, 5), 1, 1),))
    msgs = [str(v) for v in validate_scenario(spec)]
    assert any("undeclared port s2.p5" in m for m in msgs)


def test_duplicate_dpid_and_missing_channel():
    spec = _spec(
        switches=(SwitchDecl(SwitchId(1, "02:00:00:00:00:01"), 1),
                  SwitchDecl(SwitchId(1, "02:00:00:00:00:03"), 1)),
        control_channels=(ControlChannel(1, from_ms(1), from_ms(1)),),
        links=())
    msgs = [str(v) for v in validate_scenario(spec)]
    assert any("duplicate" in m for m in msgs)


def test_port_on_two_links_rejected():
    spec = _spec(
        switches=(SwitchDecl(SwitchId(1, "02:00:00:00:00:01"), 2),
                  SwitchDecl(SwitchId(2, "02:00:00:00:00:02"), 1),
                  SwitchDecl(SwitchId(3, "02:00:00:00:00:03"), 1)),
        control_channels=(ControlChannel(1, 1, 1), ControlChannel(2, 1, 1),
                          ControlChannel(3, 1, 1)),
        links=(Link(PortRef(1, 1), PortRef(2, 1), 1, 1),
               Link(PortRef(1, 1), PortRef(3, 1), 1, 1)))
    msgs = [str(v) for v in validate_scenario(spec)]
    assert any("more than one link" in m for m in msgs)


def test_timeline_event_for_undeclared_link():
    spec = _spec(timeline=(LinkRemove(SEC, PortRef(1, 1), PortRef(9, 9)),))
    msgs = [str(v) for v in validate_scenario(spec)]
    assert any("no declared link" in m for m in msgs)


def test_timeline_events_respect_presence():
    def msgs(*timeline):
        return [str(v) for v in validate_scenario(scenarios.square(timeline=timeline))]

    add = LinkAdd(2 * SEC, PortRef(1, 1), PortRef(2, 1))
    assert msgs(SwitchLeave(SEC, 2), add) == ["timeline[1]: link_add while s2 is absent"]
    # a switch whose first event is a join is absent until then
    assert msgs(dataclasses.replace(add, at=SEC), SwitchJoin(2 * SEC, 2)) == [
        "timeline[0]: link_add while s2 is absent"]
    assert msgs(SwitchJoin(SEC, 2), SwitchJoin(2 * SEC, 2)) == [
        "timeline[1]: switch_join while s2 is present"]
    assert msgs(SwitchLeave(SEC, 2), SwitchJoin(2 * SEC, 2),
                dataclasses.replace(add, at=3 * SEC)) == []


def test_builders_all_validate():
    for name, build in scenarios.BUILDERS.items():
        assert validate_scenario(build()) == [], name


# -- presence rules ---------------------------------------------------------

def test_join_first_means_initially_absent():
    spec = _spec(timeline=(SwitchJoin(SEC, 2),))
    assert spec.initially_present() == {1}
    # the link's endpoint starts absent, so the link starts dead
    assert spec.initially_alive() == set()


def test_leave_first_means_initially_present():
    spec = _spec(timeline=(SwitchLeave(SEC, 2), SwitchJoin(2 * SEC, 2)))
    assert spec.initially_present() == {1, 2}
    assert spec.initially_alive() == {spec.links[0].key()}


def test_link_add_first_means_initially_dead():
    spec = _spec(timeline=(LinkAdd(SEC, PortRef(1, 1), PortRef(2, 1)),))
    assert spec.initially_present() == {1, 2}
    assert spec.initially_alive() == set()


def test_declared_dead_link_stays_dead_until_added():
    spec = _spec(links=(Link(PortRef(1, 1), PortRef(2, 1), from_ms(1),
                             from_ms(1), alive=False),))
    assert spec.initially_alive() == set()


def test_host_ports_are_unlinked_declared_ports():
    spec = scenarios.testbed_chain(Protocol.OFDP)
    hosts = set(spec.host_ports())
    assert PortRef(1, 2) in hosts and PortRef(3, 2) in hosts
    assert all(p not in spec.linked_ports() for p in hosts)


# -- file round-trip --------------------------------------------------------

def test_round_trip_all_builders():
    for name, build in scenarios.BUILDERS.items():
        spec = build()
        assert decode_scenario(encode_scenario(spec)) == spec, name


def test_round_trip_attack_and_random():
    for kind in ("spoof", "inject", "relay", "flood", "fingerprint"):
        spec = scenarios.attack_scenario(kind, Protocol.SOFTDP)
        assert decode_scenario(encode_scenario(spec)) == spec
    for seed in (7, 8):
        spec = scenarios.random_scenario(seed, n_events=20)
        assert decode_scenario(encode_scenario(spec)) == spec


def test_decode_missing_field_raises():
    with pytest.raises(ValueError):
        decode_scenario("switches: []\n")


_delays = st.integers(min_value=1, max_value=10 * MS)


@given(n=st.integers(min_value=2, max_value=6),
       delays=st.lists(_delays, min_size=12, max_size=12),
       seed=st.integers(min_value=0, max_value=2**16))
def test_round_trip_random_chains(n, delays, seed):
    it = iter(delays * 2)
    switches = tuple(SwitchDecl(SwitchId(i, f"02:00:00:00:00:{i:02x}"),
                                2 if 1 < i < n else 1)
                     for i in range(1, n + 1))
    links = tuple(Link(PortRef(i, 1 if i == 1 else 2), PortRef(i + 1, 1),
                       next(it), next(it)) for i in range(1, n))
    spec = ScenarioSpec(
        switches=switches, links=links,
        control_channels=tuple(ControlChannel(i, next(it), next(it))
                               for i in range(1, n + 1)),
        bfd=BfdParams(from_ms(1), 1), protocol=Protocol.SOFTDP,
        discovery_period=SEC, rng_seed=seed)
    assert decode_scenario(encode_scenario(spec)) == spec


def test_replace_protocol_keeps_rest():
    spec = scenarios.square()
    other = dataclasses.replace(spec, protocol=Protocol.OFDP)
    assert other.protocol is Protocol.OFDP
    assert other.links == spec.links
