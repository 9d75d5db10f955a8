"""Scenario model: durations, references, validation, file round-trip."""

import dataclasses
from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from topodisc import core
from topodisc.core import (
    ATTACK_KINDS,
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
    OFPP_MAX,
    PacketInBody,
    PacketOutBody,
    PortRef,
    Protocol,
    SEC,
    ScenarioFormatError,
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
from test_properties import documents


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


def test_port_count_is_bounded_by_ofpp_max():
    def msgs(ports):
        return [str(v) for v in validate_scenario(_spec(switches=(
            SwitchDecl(SwitchId(1, "02:00:00:00:00:01"), ports),
            SwitchDecl(SwitchId(2, "02:00:00:00:00:02"), 1))))]

    assert OFPP_MAX == 65_280
    assert msgs(OFPP_MAX) == []
    assert msgs(OFPP_MAX + 1) == ["s1: port count 65281 above OFPP_MAX (65280)"]
    assert "s1: negative port count" in msgs(-1)


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


# -- decode against PyYAML's pure-Python loader -------------------------------

_SQUARE = encode_scenario(scenarios.square())

# Edits that matter to a YAML scanner: indicators, tabs, directives, tags,
# a BOM, a lone surrogate, control and non-ASCII characters.
_EDITS = st.one_of(
    st.sampled_from(["\t", " ", "\n", "\r", "-", ":", ": ", "?", "? ", "!", "!!",
                     "%", "%YAML 1.3\n---\n", "#", "&a ", "*a", ",", "[", "]",
                     "{", "}", "'", '"', "|", ">", "\\", "---\n", "...\n",
                     "\ufeff", "\ud800", "\x00", "\x07", "\x85", "\u2028",
                     "\xe9", "yes", "0x1F", "1_000", "1:30", "~"]),
    st.characters())


@st.composite
def _scenario_texts(draw) -> str:
    """An encoded scenario, the same with a few edits, or any text."""
    shape = draw(st.sampled_from(("document", "edited", "garbage")))
    if shape == "garbage":
        return draw(st.text(max_size=80))
    text = draw(documents())
    if shape == "edited":
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(_EDITS) + text[at + draw(st.integers(0, 3)):]
    return text


def _decoded(text):
    """The spec, or the text of the ScenarioFormatError."""
    try:
        return decode_scenario(text)
    except ScenarioFormatError as exc:
        return ("ScenarioFormatError", str(exc))


def _pure_decoded(text):
    """``_decoded`` with PyYAML's pure-Python SafeLoader as the loader."""
    with mock.patch.object(core, "_LOADER", yaml.SafeLoader):
        return _decoded(text)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_scenario_texts())
@example("protocol: softdp\nbfd:\n\tinterval: 1ms\n")          # tab indent
@example(_SQUARE.replace(": ", ":\t", 1))                         # tab after a key
@example("protocol: 'softdp\nbfd: {}\n")                         # unterminated quote
@example("a: [")
@example(_SQUARE.replace("softdp", "soft\x07dp"))                 # control character
@example("a: \ud800")                                              # lone surrogate
@example(_SQUARE + "x: !!python/object:os.system {}\n")
@example("\ufeff" + _SQUARE)                                      # BOM
@example(_SQUARE + "protocol: ofdp\n")                            # duplicate key
@example(_SQUARE + "\ufeffx: 1\n")                               # BOM mid-text
@example("%YAML 1.3\n---\n" + _SQUARE)
@example("%FOO bar\n---\n" + _SQUARE)
@example(_SQUARE + "x: {a:}\n")
@example(_SQUARE + "x: {a?}\n")
@example(_SQUARE + "x: [?, 1]\n")
@example(_SQUARE + "x: [!, 1]\n")
@example(_SQUARE + "x: >#\n")
@example(_SQUARE + "x: 2001-13-45\n")                             # no such date
@example(_SQUARE + 'x: "\\U00110000"\n')                          # no such character
@example(_SQUARE + "x: " + "[" * 50_000 + "]" * 50_000 + "\n")    # deep nesting
def test_decode_matches_the_pure_python_loader(text):
    assert _decoded(text) == _pure_decoded(text)


@pytest.mark.parametrize("text", ["[" * 50_000 + "]" * 50_000, "- " * 50_000 + "a",
                                  "{a: " * 50_000 + "1" + "}" * 50_000],
                         ids=["flow-sequences", "block-sequences", "flow-mappings"])
def test_decode_refuses_deep_nesting(text):
    # libyaml's own composer recurses in C and overflows the stack here
    with pytest.raises(ScenarioFormatError, match="nested too deeply"):
        decode_scenario(text)


def test_the_codec_is_libyaml_where_pyyaml_has_it():
    if yaml.__with_libyaml__:
        assert core._DUMPER is yaml.CSafeDumper
        assert issubclass(core._LOADER, yaml.CSafeLoader)
    else:
        assert (core._LOADER, core._DUMPER) == (yaml.SafeLoader, yaml.SafeDumper)


_ENCODED = {
    **scenarios.BUILDERS,
    **{f"attack-{kind}-{p.value}": (lambda k=kind, p=p: scenarios.attack_scenario(k, p))
       for kind in ATTACK_KINDS for p in Protocol},
    **{f"random-{n}": (lambda n=n: scenarios.random_scenario(7, n, 100))
       for n in (30, 60, 200)},
}


@pytest.mark.parametrize("name", sorted(_ENCODED))
def test_encode_writes_the_bytes_of_the_pure_python_emitter(name):
    text = encode_scenario(_ENCODED[name]())
    assert core._LIBYAML_TEXT.fullmatch(text)  # so libyaml reads it back
    # the document the file holds, read back and written by pure Python
    doc = yaml.load(text, Loader=yaml.SafeLoader)
    assert text == yaml.dump(doc, Dumper=yaml.SafeDumper, sort_keys=False,
                             default_flow_style=None)


def test_replace_protocol_keeps_rest():
    spec = scenarios.square()
    other = dataclasses.replace(spec, protocol=Protocol.OFDP)
    assert other.protocol is Protocol.OFDP
    assert other.links == spec.links
