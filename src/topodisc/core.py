"""Shared domain types for the topology-discovery simulator.

Time is integer nanoseconds everywhere.  All types in this module are
immutable value objects; mutable runtime state (port flags, link liveness,
flow tables) lives in the modules that own it.  The types every event
makes (``PortRef``, ``LldpFrame``, ``ControlMessage`` and the packet and
group bodies) are immutable tuples with named fields, so they build, hash
and compare at C speed; ``PortRef`` hashes and orders as its
``(dpid, port_no)`` tuple, which fixes the iteration order of port sets
and so of the traces.  Scenario files are YAML with durations written as
exact unit-suffixed strings ("1ms", "500us"); parsing and re-encoding
round-trips to the same object.  Where PyYAML was built with libyaml,
files are written by its C emitter, byte for byte as the pure-Python one
writes them, and read by its C parser wherever that reads a text as the
pure-Python parser does; PyYAML's own composer, safe constructor and
resolver build the document either way.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Any, ClassVar, NamedTuple, Optional, Union

import yaml
from yaml.composer import Composer

# ---------------------------------------------------------------------------
# time

SimTime = int  # nanoseconds

NS = 1
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000


def from_ms(value: float) -> SimTime:
    return int(round(value * MS))


_DURATION_RE = re.compile(r"^\s*(\d+)(?:\.(\d+))?\s*(ns|us|ms|s)\s*$")
_UNIT_NS = {"ns": NS, "us": US, "ms": MS, "s": SEC}


def parse_duration(text: Union[str, int]) -> SimTime:
    """Parse "1ms" / "500us" / "2s" / bare integer nanoseconds."""
    if isinstance(text, bool):
        raise ValueError(f"not a duration: {text!r}")
    if isinstance(text, int):
        return text
    m = _DURATION_RE.match(str(text))
    if not m:
        raise ValueError(f"not a duration: {text!r}")
    whole, frac, unit = m.group(1), m.group(2) or "", m.group(3)
    # integer arithmetic, so every decimal input converts exactly
    ns, rest = divmod(int(whole + frac) * _UNIT_NS[unit], 10 ** len(frac))
    if rest:
        raise ValueError(f"duration {text!r} is not a whole number of ns")
    return ns


def format_duration(t: SimTime) -> str:
    """Render nanoseconds with the largest exact unit (lossless)."""
    for unit, scale in (("s", SEC), ("ms", MS), ("us", US)):
        if t % scale == 0:
            return f"{t // scale}{unit}"
    return f"{t}ns"


# ---------------------------------------------------------------------------
# identifiers

_MAC_RE = re.compile(r"^([0-9a-f]{2}:){5}[0-9a-f]{2}$")


def mac_bytes(mac: str) -> bytes:
    return bytes(int(part, 16) for part in mac.split(":"))


@dataclass(frozen=True, order=True)
class SwitchId:
    """Datapath identity: the DPID the controller tracks and the local MAC
    it is derived from (the value cleartext LLDP would leak)."""

    dpid: int
    local_mac: str

    def __str__(self) -> str:
        return f"s{self.dpid}"


_PORT_RE = re.compile(r"s(\d+)\.p(\d+)")


class PortRef(NamedTuple):
    """(switch, port) reference.  Port numbers start at 1; the OpenFlow
    internal/local port is not modeled as a PortRef and never carries BFD.
    It is the tuple ``(dpid, port_no)``: it hashes, compares and sorts as
    that tuple."""

    dpid: int
    port_no: int

    def __str__(self) -> str:
        return f"s{self.dpid}.p{self.port_no}"

    @classmethod
    def parse(cls, text: str) -> "PortRef":
        m = _PORT_RE.fullmatch(text)
        if m is None:
            raise ValueError(f"not a port reference: {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))


# OpenFlow 1.0's highest physical port number: a switch declares at most
# this many ports.
OFPP_MAX = 0xFF00


@dataclass(frozen=True)
class SwitchDecl:
    id: SwitchId
    port_count: int


@dataclass(frozen=True)
class Link:
    """Bidirectional link between two ports with per-direction delays.

    ``alive`` is the declared initial state; runtime liveness is tracked by
    the simulation fabric.  Endpoint order is normalized at construction
    (a < b, delays swapped to match) so a link has one canonical identity.
    """

    a: PortRef
    b: PortRef
    delay_ab: SimTime
    delay_ba: SimTime
    alive: bool = True

    def __post_init__(self):
        if not self.a <= self.b:
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)
            d_ab, d_ba = self.delay_ab, self.delay_ba
            object.__setattr__(self, "delay_ab", d_ba)
            object.__setattr__(self, "delay_ba", d_ab)

    def key(self) -> tuple:
        return (self.a, self.b)

    def __str__(self) -> str:
        return f"{self.a}<->{self.b}"


def link_key(a: PortRef, b: PortRef) -> tuple:
    """Canonical unordered key for a port pair."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class ControlChannel:
    """Per-switch control connection with asymmetric one-way delays."""

    dpid: int
    delay_to_controller: SimTime
    delay_from_controller: SimTime


@dataclass(frozen=True)
class BfdParams:
    """Liveness detection parameters: transmit interval and the multiplier
    after which a silent peer is declared down."""

    interval: SimTime
    multiplier: int


class Protocol(Enum):
    OFDP = "ofdp"
    OFDPV2 = "ofdpv2"
    SOFTDP = "softdp"


# ---------------------------------------------------------------------------
# frames and control messages

class LldpFrame(NamedTuple):
    """Discovery frame.  Under the baselines chassis/port/description are
    cleartext; the event-driven protocol carries salted digests plus a
    per-window nonce.  A tuple, because a flood makes tens of thousands."""

    chassis_id: bytes
    port_id: bytes
    system_description: bytes
    nonce: bytes = b""


class MsgKind(Enum):
    HELLO = "HELLO"
    FEATURE_REQUEST = "FEATURE_REQUEST"
    FEATURE_REPLY = "FEATURE_REPLY"
    PACKET_OUT = "PACKET_OUT"
    PACKET_IN = "PACKET_IN"
    PORT_STATUS = "PORT_STATUS"
    BFD_STATUS = "BFD_STATUS"
    FLOW_MOD = "FLOW_MOD"
    GROUP_MOD = "GROUP_MOD"


CONTROLLER = "c"

# The wire names of the message kinds only a switch may send (BFD_STATUS
# in particular never originates at the controller; HELLO goes both ways).
SWITCH_ONLY = frozenset(k.value for k in (
    MsgKind.FEATURE_REPLY, MsgKind.PACKET_IN, MsgKind.PORT_STATUS,
    MsgKind.BFD_STATUS))


@dataclass(frozen=True)
class PortStatusBody:
    port: PortRef
    up: bool
    epoch: int


@dataclass(frozen=True)
class BfdStatusBody:
    port: PortRef
    state: str  # "DOWN" is the only state reported today
    epoch: int


class PacketOutBody(NamedTuple):
    egress: Optional[PortRef]  # None = replicate out every admin-up port
    frame: LldpFrame


class PacketInBody(NamedTuple):
    ingress: PortRef
    frame: LldpFrame


@dataclass(frozen=True)
class FeatureReplyBody:
    dpid: int
    local_mac: str
    port_count: int
    ports_up: tuple[int, ...]


# The priority of a port's LLDP window rule, which a switch arms itself
# when the port comes up and the controller's FLOW_MOD then re-asserts.
# One value, so that the FLOW_MOD replaces the switch's rule, as a rule
# with the same (priority, match) does, rather than adding a second one.
WINDOW_RULE_PRIORITY = 100


@dataclass(frozen=True)
class FlowModBody:
    dpid: int
    priority: int
    match_ingress: Optional[PortRef]  # LLDP arriving here; None = any port
    action: tuple  # ("to_controller",) | ("drop",)
    hard_timeout: Optional[SimTime]


class GroupBucket(NamedTuple):
    watch: PortRef
    out: PortRef


class GroupModBody(NamedTuple):
    dpid: int
    group_id: int
    buckets: tuple[GroupBucket, ...]


class ControlMessage(NamedTuple):
    kind: MsgKind
    src: Union[int, str]  # dpid or CONTROLLER
    dst: Union[int, str]
    body: Any


# ---------------------------------------------------------------------------
# timeline
#
# Each event class's ``name`` is its ``event`` in a scenario file and in
# the run's ``timeline`` trace records.

@dataclass(frozen=True)
class LinkAdd:
    name: ClassVar[str] = "link_add"
    at: SimTime
    a: PortRef
    b: PortRef


@dataclass(frozen=True)
class LinkRemove:
    name: ClassVar[str] = "link_remove"
    at: SimTime
    a: PortRef
    b: PortRef


@dataclass(frozen=True)
class SwitchJoin:
    name: ClassVar[str] = "switch_join"
    at: SimTime
    dpid: int


@dataclass(frozen=True)
class SwitchLeave:
    name: ClassVar[str] = "switch_leave"
    at: SimTime
    dpid: int


# What an attack param holds: a port ([dpid, port_no] in scenario files),
# a duration, or a count (an integer >= 1).
PORT, DURATION, COUNT = "port", "duration", "count"
# An attack cannot launch without a REQUIRED param.  A kind's OPTIONAL
# params come as a set: all of them or none.
REQUIRED, OPTIONAL = "required", "optional"

# Every param each attack kind reads: what it holds, and the value it
# takes when omitted (or REQUIRED / OPTIONAL).  A param name holds the
# same thing in every kind.
ATTACK_PARAMS = {
    "fingerprint": {"observe": (PORT, REQUIRED), "duration": (DURATION, "3500ms")},
    "flood": {"inject": (PORT, REQUIRED), "rate": (COUNT, 10_000),
              "duration": (DURATION, "1s")},
    "inject": {"inject": (PORT, REQUIRED), "victim_port": (PORT, REQUIRED),
               "count": (COUNT, 3), "spacing": (DURATION, "500ms")},
    "relay": {"observe": (PORT, REQUIRED), "inject": (PORT, REQUIRED),
              "observe_b": (PORT, OPTIONAL), "inject_b": (PORT, OPTIONAL),
              "tunnel_delay": (DURATION, "1ms"), "duration": (DURATION, "3s")},
    "spoof": {"observe": (PORT, REQUIRED), "duration": (DURATION, "3s")},
}
ATTACK_KINDS = tuple(ATTACK_PARAMS)
PARAM_HOLDS = {key: holds for params in ATTACK_PARAMS.values()
               for key, (holds, _) in params.items()}


@dataclass(frozen=True)
class AttackDecl:
    """Protocol-independent attack declaration; the adversary module
    interprets ``kind``/``params``.  Params values are scalars, port pairs
    or durations so the declaration serializes cleanly."""

    kind: str
    params: dict


@dataclass(frozen=True)
class AttackStart:
    name: ClassVar[str] = "attack"
    at: SimTime
    attack: AttackDecl


TimelineEvent = Union[LinkAdd, LinkRemove, SwitchJoin, SwitchLeave, AttackStart]
TIMELINE_EVENTS = (LinkAdd, LinkRemove, SwitchJoin, SwitchLeave, AttackStart)


@dataclass(frozen=True)
class ScenarioSpec:
    switches: tuple[SwitchDecl, ...]
    links: tuple[Link, ...]
    control_channels: tuple[ControlChannel, ...]
    bfd: BfdParams
    protocol: Protocol
    discovery_period: SimTime
    timeline: tuple[TimelineEvent, ...] = ()
    lldp_window: SimTime = 500 * MS
    rng_seed: int = 0

    # -- lookups ----------------------------------------------------------
    def switch(self, dpid: int) -> SwitchDecl:
        for decl in self.switches:
            if decl.id.dpid == dpid:
                return decl
        raise KeyError(f"no switch s{dpid}")

    def channel(self, dpid: int) -> ControlChannel:
        for ch in self.control_channels:
            if ch.dpid == dpid:
                return ch
        raise KeyError(f"no control channel for s{dpid}")

    def link_between(self, a: PortRef, b: PortRef) -> Link:
        want = link_key(a, b)
        for link in self.links:
            if link.key() == want:
                return link
        raise KeyError(f"no link {a}<->{b}")

    def all_ports(self) -> list[PortRef]:
        out = []
        for decl in self.switches:
            out.extend(PortRef(decl.id.dpid, n) for n in range(1, decl.port_count + 1))
        return out

    def linked_ports(self) -> set[PortRef]:
        used = set()
        for link in self.links:
            used.add(link.a)
            used.add(link.b)
        return used

    def host_ports(self) -> list[PortRef]:
        """Declared ports not referenced by any link are host-facing."""
        used = self.linked_ports()
        return [p for p in self.all_ports() if p not in used]

    # -- initial presence (derived, see timeline rules in the README) -----
    def initially_present(self) -> set[int]:
        absent = set()
        seen = set()
        for ev in self.timeline:
            if isinstance(ev, SwitchJoin) and ev.dpid not in seen:
                absent.add(ev.dpid)
            if isinstance(ev, (SwitchJoin, SwitchLeave)):
                seen.add(ev.dpid)
        return {decl.id.dpid for decl in self.switches} - absent

    def initially_alive(self) -> set[tuple]:
        """Canonical keys of links alive at t=0."""
        present = self.initially_present()
        first_added = set()
        seen = set()
        for ev in self.timeline:
            if isinstance(ev, (LinkAdd, LinkRemove)):
                key = link_key(ev.a, ev.b)
                if key not in seen and isinstance(ev, LinkAdd):
                    first_added.add(key)
                seen.add(key)
        out = set()
        for link in self.links:
            if not link.alive:
                continue
            if link.a.dpid not in present or link.b.dpid not in present:
                continue
            if link.key() in first_added:
                continue
            out.add(link.key())
        return out


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class Violation:
    element: str
    problem: str

    def __str__(self) -> str:
        return f"{self.element}: {self.problem}"


def validate_scenario(spec: ScenarioSpec) -> list[Violation]:
    """Static checks; returns one Violation per offending element."""
    out: list[Violation] = []
    dpids = [d.id.dpid for d in spec.switches]
    macs = [d.id.local_mac for d in spec.switches]
    for dpid in sorted({d for d in dpids if dpids.count(d) > 1}):
        out.append(Violation(f"s{dpid}", "duplicate dpid"))
    for mac in sorted({m for m in macs if macs.count(m) > 1}):
        out.append(Violation(mac, "duplicate local_mac"))
    for decl in spec.switches:
        if decl.port_count < 0:
            out.append(Violation(str(decl.id), "negative port count"))
        elif decl.port_count > OFPP_MAX:
            out.append(Violation(str(decl.id),
                                 f"port count {decl.port_count} above OFPP_MAX ({OFPP_MAX})"))
        if not _MAC_RE.match(decl.id.local_mac):
            out.append(Violation(str(decl.id), f"malformed local_mac {decl.id.local_mac!r}"))

    dpid_set = set(dpids)
    declared = set(spec.all_ports())

    def check_port(p: PortRef, element: str):
        if p.dpid not in dpid_set:
            out.append(Violation(element, f"references unknown switch s{p.dpid}"))
        elif p not in declared:
            out.append(Violation(element, f"references undeclared port {p}"))

    seen_keys = set()
    port_use: dict[PortRef, str] = {}
    for link in spec.links:
        el = str(link)
        check_port(link.a, el)
        check_port(link.b, el)
        if link.a == link.b:
            out.append(Violation(el, "link endpoints are the same port"))
        if link.a.dpid == link.b.dpid and link.a != link.b:
            out.append(Violation(el, "self-loop between ports of one switch"))
        if link.delay_ab < 0 or link.delay_ba < 0:
            out.append(Violation(el, "negative link delay"))
        if link.key() in seen_keys:
            out.append(Violation(el, "duplicate link"))
        seen_keys.add(link.key())
        for p in (link.a, link.b):
            if p in port_use:
                out.append(Violation(str(p), "port used by more than one link"))
            port_use[p] = el

    chan_dpids = [ch.dpid for ch in spec.control_channels]
    for dpid in sorted({d for d in chan_dpids if chan_dpids.count(d) > 1}):
        out.append(Violation(f"s{dpid}", "more than one control channel"))
    for dpid in sorted(dpid_set - set(chan_dpids)):
        out.append(Violation(f"s{dpid}", "no control channel"))
    for dpid in sorted(set(chan_dpids) - dpid_set):
        out.append(Violation(f"s{dpid}", "control channel for unknown switch"))
    for ch in spec.control_channels:
        if ch.delay_to_controller < 0 or ch.delay_from_controller < 0:
            out.append(Violation(f"s{ch.dpid}", "negative control channel delay"))

    if spec.bfd.interval <= 0:
        out.append(Violation("bfd", "interval must be > 0"))
    if spec.bfd.multiplier < 1:
        out.append(Violation("bfd", "multiplier must be >= 1"))
    if spec.lldp_window <= 0:
        out.append(Violation("lldp_window", "must be > 0"))
    if spec.discovery_period <= 0:
        out.append(Violation("discovery_period", "must be > 0"))

    last_at = None
    present = spec.initially_present()
    for idx, ev in enumerate(spec.timeline):
        el = f"timeline[{idx}]"
        if last_at is not None and ev.at < last_at:
            out.append(Violation(el, "timeline not sorted by time"))
        last_at = ev.at
        if ev.at < 0:
            out.append(Violation(el, "negative event time"))
        if isinstance(ev, (LinkAdd, LinkRemove)):
            check_port(ev.a, el)
            check_port(ev.b, el)
            if link_key(ev.a, ev.b) not in seen_keys:
                out.append(Violation(el, f"no declared link {ev.a}<->{ev.b}"))
            if isinstance(ev, LinkAdd) and not (ev.a.dpid in present and ev.b.dpid in present):
                for dpid in sorted(({ev.a.dpid, ev.b.dpid} & dpid_set) - present):
                    out.append(Violation(el, f"link_add while s{dpid} is absent"))
        elif isinstance(ev, (SwitchJoin, SwitchLeave)):
            if ev.dpid not in dpid_set:
                out.append(Violation(el, f"references unknown switch s{ev.dpid}"))
            elif isinstance(ev, SwitchLeave):
                present.discard(ev.dpid)
            elif ev.dpid in present:
                out.append(Violation(el, f"switch_join while s{ev.dpid} is present"))
            else:
                present.add(ev.dpid)
        elif isinstance(ev, AttackStart):
            kind, params = ev.attack.kind, ev.attack.params
            table = ATTACK_PARAMS.get(kind)
            if table is None:
                out.append(Violation(el, f"unknown attack kind {kind!r}"))
            else:
                for key in sorted(params.keys() - table.keys(), key=str):
                    out.append(Violation(f"{el}.params.{key}",
                                         f"unknown param: {kind} never reads it"))
                given = {table[key][1] for key in params.keys() & table.keys()}
                needed = {REQUIRED} | ({OPTIONAL} & given)
                for key, (_, default) in table.items():
                    if default in needed and key not in params:
                        out.append(Violation(f"{el}.params.{key}",
                                             f"missing: {kind} needs this port"))
            for key in sorted(params.keys() & PARAM_HOLDS.keys()):
                where, v, holds = f"{el}.params.{key}", params[key], PARAM_HOLDS[key]
                if holds == PORT:
                    check_port(v, where)
                elif holds == DURATION:
                    try:
                        parse_duration(v)
                    except ValueError as exc:
                        out.append(Violation(where, str(exc)))
                elif holds == COUNT and (isinstance(v, bool) or not isinstance(v, int)
                                         or v < 1):
                    out.append(Violation(where, f"expected an integer >= 1, got {v!r}"))
    return out


# ---------------------------------------------------------------------------
# serialization (YAML scenario files)

class ScenarioFormatError(ValueError):
    pass


if yaml.__with_libyaml__:
    class _CSafeLoader(Composer, yaml.CSafeLoader):
        """libyaml's scanner and parser under PyYAML's Python composer:
        libyaml's composer recurses in C with no depth limit, and a file
        nested 40,000 levels deep kills the process with SIGSEGV."""

        def __init__(self, stream):
            yaml.CSafeLoader.__init__(self, stream)
            Composer.__init__(self)

    _LOADER, _DUMPER = _CSafeLoader, yaml.CSafeDumper
else:
    _LOADER, _DUMPER = yaml.SafeLoader, yaml.SafeDumper

# libyaml reads only texts made of the characters an encoded scenario
# uses, plus comments: on these, fuzzing against PyYAML's pure-Python
# parser found no difference.  Tabs, "?", "!", "%", block scalars, a BOM
# and other non-ASCII text can read differently, so those, and every text
# libyaml refuses, go to the pure-Python loader, whose document or error
# then stands.
_LIBYAML_TEXT = re.compile(r"[0-9A-Za-z_ \n\r:,\[\]{}'\".#-]*")


def _load_yaml(text: str):
    if _LIBYAML_TEXT.fullmatch(text):
        try:
            return yaml.load(text, Loader=_LOADER)
        except yaml.YAMLError:
            pass
    return yaml.load(text, Loader=yaml.SafeLoader)


def _port_to_list(p: PortRef) -> list:
    return [p.dpid, p.port_no]


def _port_from_list(v, where: str) -> PortRef:
    if (not isinstance(v, (list, tuple))) or len(v) != 2:
        raise ScenarioFormatError(f"{where}: expected [dpid, port_no], got {v!r}")
    d, n = v
    if not isinstance(d, int) or not isinstance(n, int):
        raise ScenarioFormatError(f"{where}: expected integers in [dpid, port_no]")
    return PortRef(d, n)


def encode_scenario(spec: ScenarioSpec) -> str:
    doc: dict[str, Any] = {
        "protocol": spec.protocol.value,
        "rng_seed": spec.rng_seed,
        "discovery_period": format_duration(spec.discovery_period),
        "lldp_window": format_duration(spec.lldp_window),
        "bfd": {
            "interval": format_duration(spec.bfd.interval),
            "multiplier": spec.bfd.multiplier,
        },
        "switches": [
            {"dpid": d.id.dpid, "local_mac": d.id.local_mac, "ports": d.port_count}
            for d in spec.switches
        ],
        "links": [
            {
                "a": _port_to_list(l.a),
                "b": _port_to_list(l.b),
                "delay_ab": format_duration(l.delay_ab),
                "delay_ba": format_duration(l.delay_ba),
                **({} if l.alive else {"alive": False}),
            }
            for l in spec.links
        ],
        "control_channels": [
            {
                "dpid": ch.dpid,
                "to_controller": format_duration(ch.delay_to_controller),
                "from_controller": format_duration(ch.delay_from_controller),
            }
            for ch in spec.control_channels
        ],
        "timeline": [_encode_event(ev) for ev in spec.timeline],
    }
    return yaml.dump(doc, Dumper=_DUMPER, sort_keys=False, default_flow_style=None)


def _encode_event(ev: TimelineEvent) -> dict:
    head = {"at": format_duration(ev.at), "event": ev.name}
    if isinstance(ev, (LinkAdd, LinkRemove)):
        return {**head, "a": _port_to_list(ev.a), "b": _port_to_list(ev.b)}
    if isinstance(ev, (SwitchJoin, SwitchLeave)):
        return {**head, "dpid": ev.dpid}
    if isinstance(ev, AttackStart):
        return {**head, "kind": ev.attack.kind,
                "params": _encode_attack_params(ev.attack.params)}
    raise TypeError(f"unknown timeline event {ev!r}")


def _encode_attack_params(params: dict) -> dict:
    return {k: _port_to_list(v) if isinstance(v, PortRef) else v
            for k, v in sorted(params.items())}


def _decode_attack_params(raw: dict, where: str) -> dict:
    return {k: _port_from_list(v, f"{where}.{k}") if PARAM_HOLDS.get(k) == PORT else v
            for k, v in raw.items()}


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioFormatError(
            f"{where}: expected a mapping, got {type(value).__name__}")
    return value


def _list(value, where: str) -> list:
    """A section that holds a list; an absent or empty one is []."""
    if value is None:
        return []
    if not isinstance(value, list):
        raise ScenarioFormatError(
            f"{where}: expected a list, got {type(value).__name__}")
    return value


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioFormatError(f"{where}: expected an integer, got {value!r}")
    return value


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ScenarioFormatError(f"{where}: missing required field {key!r}")
    return doc[key]


def decode_scenario(text: str) -> ScenarioSpec:
    try:
        doc = _load_yaml(text)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a date or escape out of range
        raise ScenarioFormatError(f"not valid YAML: {exc}") from exc
    except RecursionError:
        raise ScenarioFormatError("not valid YAML: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario file must be a mapping")

    try:
        protocol = Protocol(_require(doc, "protocol", "scenario"))
    except ValueError as exc:
        raise ScenarioFormatError(f"protocol: {exc}") from exc

    def dur(value, where):
        try:
            return parse_duration(value)
        except ValueError as exc:
            raise ScenarioFormatError(f"{where}: {exc}") from exc

    bfd_doc = _mapping(_require(doc, "bfd", "scenario"), "bfd")
    bfd = BfdParams(
        interval=dur(_require(bfd_doc, "interval", "bfd"), "bfd.interval"),
        multiplier=_int(_require(bfd_doc, "multiplier", "bfd"), "bfd.multiplier"),
    )

    switches = []
    for i, s in enumerate(_list(_require(doc, "switches", "scenario"), "switches")):
        where = f"switches[{i}]"
        s = _mapping(s, where)
        switches.append(
            SwitchDecl(
                id=SwitchId(_int(_require(s, "dpid", where), f"{where}.dpid"),
                            str(_require(s, "local_mac", where))),
                port_count=_int(_require(s, "ports", where), f"{where}.ports"),
            )
        )

    links = []
    for i, l in enumerate(_list(doc.get("links"), "links")):
        where = f"links[{i}]"
        l = _mapping(l, where)
        a = _port_from_list(_require(l, "a", where), where)
        b = _port_from_list(_require(l, "b", where), where)
        delay_ab = dur(_require(l, "delay_ab", where), f"{where}.delay_ab")
        delay_ba = dur(_require(l, "delay_ba", where), f"{where}.delay_ba")
        alive = l.get("alive", True)
        if not isinstance(alive, bool):
            raise ScenarioFormatError(
                f"{where}.alive: expected true or false, got {alive!r}")
        links.append(Link(a, b, delay_ab, delay_ba, alive=alive))

    channels = []
    for i, c in enumerate(_list(_require(doc, "control_channels", "scenario"),
                                "control_channels")):
        where = f"control_channels[{i}]"
        c = _mapping(c, where)
        channels.append(
            ControlChannel(
                dpid=_int(_require(c, "dpid", where), f"{where}.dpid"),
                delay_to_controller=dur(_require(c, "to_controller", where), where),
                delay_from_controller=dur(_require(c, "from_controller", where), where),
            )
        )

    timeline = []
    for i, e in enumerate(_list(doc.get("timeline"), "timeline")):
        where = f"timeline[{i}]"
        e = _mapping(e, where)
        at = dur(_require(e, "at", where), f"{where}.at")
        kind = _require(e, "event", where)
        cls = next((c for c in TIMELINE_EVENTS if c.name == kind), None)
        if cls in (LinkAdd, LinkRemove):
            timeline.append(cls(at, _port_from_list(_require(e, "a", where), where),
                                _port_from_list(_require(e, "b", where), where)))
        elif cls in (SwitchJoin, SwitchLeave):
            timeline.append(cls(at, _int(_require(e, "dpid", where), f"{where}.dpid")))
        elif cls is AttackStart:
            timeline.append(
                AttackStart(
                    at,
                    AttackDecl(
                        kind=str(_require(e, "kind", where)),
                        params=_decode_attack_params(
                            _mapping(e.get("params") or {}, f"{where}.params"),
                            where),
                    ),
                )
            )
        else:
            raise ScenarioFormatError(f"{where}: unknown event kind {kind!r}")

    return ScenarioSpec(
        switches=tuple(switches),
        links=tuple(links),
        control_channels=tuple(channels),
        bfd=bfd,
        protocol=protocol,
        discovery_period=dur(_require(doc, "discovery_period", "scenario"), "discovery_period"),
        timeline=tuple(timeline),
        lldp_window=dur(doc.get("lldp_window", 500 * MS), "lldp_window"),
        rng_seed=_int(doc.get("rng_seed", 0), "rng_seed"),
    )
