"""Simulated OpenFlow switch: port lifecycle, a priority flow table with
hard timeouts (one rule per priority and ingress match), a fast-failover
group table (each group id's bucket tuple), BFD session endpoints, and
emission of PORT_STATUS / BFD_STATUS / PACKET_IN.

The harness feeds the agent port events, frames and control messages.
The agent emits, and keeps its own timers (flow-rule hard timeouts, BFD
detection), only through the injected services object (send_control /
send_frame / schedule / now / record / layout / append), never through
the engine itself, so a stub services object with a fake clock can drive
it in unit tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import (
    CONTROLLER,
    WINDOW_RULE_PRIORITY,
    BfdParams,
    BfdStatusBody,
    ControlMessage,
    FeatureReplyBody,
    FlowModBody,
    GroupBucket,
    GroupModBody,
    LldpFrame,
    MsgKind,
    PacketInBody,
    PacketOutBody,
    PortRef,
    PortStatusBody,
    Protocol,
    SimTime,
    SwitchDecl,
)

# BFD session states
BFD_INIT = "INIT"
BFD_UP = "UP"
BFD_DOWN = "DOWN"

# The default LLDP disposition (drop under the event-driven protocol,
# forward under the baselines); core.WINDOW_RULE_PRIORITY outranks it.
DEFAULT_LLDP_PRIORITY = 10


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def bfd_down_time(up_at: SimTime, interval: SimTime, multiplier: int,
                  failed_at: SimTime) -> SimTime:
    """Time at which a session endpoint declares DOWN for a failure at
    ``failed_at``, given ticks every ``interval`` anchored at ``up_at``.

    This is the closed form of stepping the session at every tick with the
    peer's control packets arriving continuously until the failure instant:
    the first countable miss is the first tick whose whole preceding
    interval saw silence, and DOWN lands ``multiplier`` ticks later.  The
    detection delay is therefore in [M*T_i, (M+1)*T_i), hitting M*T_i
    exactly when the failure falls on a tick boundary.
    """
    if failed_at < up_at:
        raise ValueError("failure before session establishment")
    first_tick_at_or_after_failure = up_at + ceil_div(failed_at - up_at, interval) * interval
    return first_tick_at_or_after_failure + multiplier * interval


@dataclass
class BfdSession:
    """Per-port liveness session endpoint.

    state UP requires the three-way handshake to have completed; the
    UP->DOWN transition happens at the instant ``bfd_down_time`` gives
    for the agent's ``bfd_params``.
    """

    remote: PortRef
    state: str = BFD_INIT
    up_at: Optional[SimTime] = None
    epoch: int = 0

    def establish(self, up_at: SimTime) -> None:
        self.state = BFD_UP
        self.up_at = up_at


@dataclass
class FlowRule:
    """An LLDP rule.  Only discovery frames reach the flow table (data
    probes go through the group table), so a rule matches on ingress
    alone; ``match_ingress=None`` matches every port."""

    priority: int
    match_ingress: Optional[PortRef]
    action: tuple  # ("drop",) | ("to_controller",)
    hard_timeout: Optional[SimTime]
    installed_at: SimTime
    seq: int
    # installed_at + hard_timeout, or None for a rule without a timeout
    expires_at: Optional[SimTime] = field(init=False)

    def __post_init__(self) -> None:
        self.expires_at = (None if self.hard_timeout is None
                           else self.installed_at + self.hard_timeout)


@dataclass
class PortState:
    link_up: bool = False
    epoch: int = 0


@dataclass(frozen=True)
class DataFrame:
    """Minimal data-plane probe; hosts and the harness use it to measure
    switchover.  Not an LLDP frame."""

    src_dpid: int
    dst_dpid: int
    probe_id: int


class SwitchAgent:
    """One simulated switch bound to a services object providing now(),
    send_control(msg), send_frame(egress, frame), schedule(delay, kind, fn),
    record(kind, **detail), layout(kind, *keys), append(row) and the
    lldp_window length."""

    def __init__(self, decl: SwitchDecl, protocol: Protocol, bfd: BfdParams, services):
        self.decl = decl
        self.id = decl.id
        self._text = str(decl.id)
        self.softdp = protocol is Protocol.SOFTDP
        self.bfd_params = bfd
        self.services = services
        self.ports: dict[PortRef, PortState] = {
            PortRef(decl.id.dpid, n): PortState()
            for n in range(1, decl.port_count + 1)
        }
        # each port with its id as the baselines' frames write it, in
        # port order: the copies of a replicate-to-all PACKET_OUT
        self._port_ids: tuple[tuple[PortRef, bytes], ...] = tuple(
            (ref, str(ref).encode()) for ref in sorted(self.ports))
        # (priority, match_ingress) -> the one rule of that match
        self.flow_table: dict[tuple, FlowRule] = {}
        # group id -> its buckets, first live bucket wins
        self.group_table: dict[int, tuple[GroupBucket, ...]] = {}
        # bucket list of a GROUP_MOD -> its "watch->out" texts
        self._bucket_texts: dict[tuple[GroupBucket, ...], tuple[str, ...]] = {}
        services.layout("group_installed", "buckets", "group_id", "switch")
        self.bfd_sessions: dict[PortRef, BfdSession] = {}
        self._rule_seq = 0
        if self.softdp:
            # The event-driven protocol ships switches with a standing
            # drop-lldp rule; discovery traffic is only forwarded through
            # explicit window rules.
            self._install_rule(priority=DEFAULT_LLDP_PRIORITY, match_ingress=None,
                               action=("drop",), hard_timeout=None)
        else:
            # Baselines forward every LLDP frame to the controller.
            self._install_rule(priority=DEFAULT_LLDP_PRIORITY, match_ingress=None,
                               action=("to_controller",), hard_timeout=None)

    # -- helpers ----------------------------------------------------------
    def _send(self, kind: str, body) -> None:
        # built in C, without the NamedTuple's Python-level __new__
        self.services.send_control(
            tuple.__new__(ControlMessage, (kind, self.id.dpid, CONTROLLER, body)))

    def port(self, ref: PortRef) -> PortState:
        if ref not in self.ports:
            raise KeyError(f"{ref} does not belong to {self.id}")
        return self.ports[ref]

    # -- join handshake ---------------------------------------------------
    def hello(self) -> None:
        self._send(MsgKind.HELLO, None)

    def feature_reply(self) -> None:
        """Report port inventory and which ports currently have carrier.
        A switch joining mid-run answers before its uplinks are patched in,
        so it naturally reports every port down; the initial roster answers
        with its ports already live."""
        ports_up = tuple(sorted(
            ref.port_no for ref, p in self.ports.items() if p.link_up))
        self._send(MsgKind.FEATURE_REPLY,
                   FeatureReplyBody(self.id.dpid, self.id.local_mac,
                                    self.decl.port_count, ports_up))

    def handle_control(self, msg: ControlMessage) -> None:
        """HELLO needs no answer here; any other kind a switch does not
        act on is ignored."""
        kind, _, _, body = msg
        match kind:
            case MsgKind.GROUP_MOD:
                self._install_group(body)
            case MsgKind.PACKET_OUT:
                self.handle_packet_out(body)
            case MsgKind.FLOW_MOD:
                self.apply_mod(msg)
            case MsgKind.FEATURE_REQUEST:
                self.feature_reply()

    # -- port lifecycle ---------------------------------------------------
    def boot_port_up(self, port: PortRef, peer: Optional[PortRef] = None) -> None:
        """Carrier present at switch boot, before the control session
        exists: same local actions as a live port-up (window rule, BFD
        session) but no PORT_STATUS."""
        state = self.port(port)
        state.link_up = True
        state.epoch += 1
        self._port_up_actions(state, port, peer)

    def on_port_up(self, port: PortRef, peer: Optional[PortRef] = None) -> None:
        """Carrier coming up on a live switch: the boot actions (under the
        event-driven protocol, the 500 ms LLDP-forward window rule and a
        BFD session), then exactly one PORT_STATUS."""
        self.boot_port_up(port, peer)
        self._send(MsgKind.PORT_STATUS,
                   PortStatusBody(port, True, self.ports[port].epoch))

    def on_carrier_down(self, port: PortRef) -> None:
        """Physical link death.  The group table reacts to link_up
        instantly, and the controller hears about it through BFD, not
        PORT_STATUS: an UP session times out at the instant
        ``bfd_down_time`` gives, unless the port holds a new session by
        then.  A session that never came up cannot time out, so the port
        reports the loss itself."""
        state = self.port(port)
        state.link_up = False
        session = self.bfd_sessions.get(port)
        if session is None:
            return
        if session.state != BFD_UP:
            self._send(MsgKind.PORT_STATUS, PortStatusBody(port, False, state.epoch))
            return
        now = self.services.now()
        at = bfd_down_time(session.up_at, self.bfd_params.interval,
                           self.bfd_params.multiplier, now)

        def timeout():
            if self.bfd_sessions.get(port) is session:
                self.bfd_detect_down(port)

        self.services.schedule(at - now, "bfd_timeout", timeout)

    def _port_up_actions(self, state: PortState, port: PortRef,
                         peer: Optional[PortRef]) -> None:
        if not self.softdp:
            return
        self._arm_window_rule(port)
        if peer is not None:
            self.bfd_sessions[port] = BfdSession(remote=peer, epoch=state.epoch)

    def _arm_window_rule(self, port: PortRef) -> None:
        self._install_rule(priority=WINDOW_RULE_PRIORITY, match_ingress=port,
                           action=("to_controller",),
                           hard_timeout=self.services.lldp_window)

    # -- BFD --------------------------------------------------------------
    def bfd_session_established(self, port: PortRef, up_at: SimTime) -> None:
        session = self.bfd_sessions.get(port)
        if session is None:
            return
        session.establish(up_at)
        self.services.record("bfd_up", port=str(port), peer=str(session.remote))

    def drop_bfd_sessions(self) -> None:
        """The switch left: its sessions end without a word, and their
        pending detections with them.  A rejoin boots a new agent."""
        self.bfd_sessions.clear()

    def bfd_detect_down(self, port: PortRef) -> None:
        """Detection instant reached: flip the session and emit the single
        DOWN notification."""
        session = self.bfd_sessions.get(port)
        if session is None or session.state != BFD_UP:
            return
        session.state = BFD_DOWN
        self.services.record("bfd_down_detected", port=str(port), epoch=session.epoch)
        self._send(MsgKind.BFD_STATUS, BfdStatusBody(port, BFD_DOWN, session.epoch))

    # -- forwarding -------------------------------------------------------
    def forward(self, frame: LldpFrame, ingress: PortRef) -> tuple:
        """Apply the highest-priority matching unexpired rule (newest wins
        ties) and return the action taken: ("to_controller",) or
        ("drop", reason)."""
        if ingress not in self.ports:
            raise KeyError(f"{ingress} does not belong to {self.id}")
        now = best = None
        for rule in self.flow_table.values():
            exp = rule.expires_at
            if exp is not None:
                now = self.services.now() if now is None else now
                if now >= exp:
                    continue
            match = rule.match_ingress
            if match is not None and match != ingress:
                continue
            if best is None or (rule.priority, rule.seq) > (best.priority, best.seq):
                best = rule
        if best is None:
            return ("drop", "no_matching_rule")
        if best.action[0] == "drop":
            return ("drop", "rule_drop")
        self._send(MsgKind.PACKET_IN, tuple.__new__(PacketInBody, (ingress, frame)))
        return ("to_controller",)

    def forward_via_group(self, group_id: int, frame) -> tuple:
        """First-live-bucket semantics; bucket liveness is the watch port's
        link_up flag, so data-plane switchover never waits on the
        controller."""
        buckets = self.group_table.get(group_id)
        if buckets is None:
            return ("drop", "no_such_group")
        for bucket in buckets:
            watch = self.ports.get(bucket.watch)
            if watch is not None and watch.link_up:
                self.services.send_frame(bucket.out, frame)
                return ("output", bucket.out)
        return ("drop", "no_live_bucket")

    # -- controller-pushed state ------------------------------------------
    def apply_mod(self, msg: ControlMessage) -> None:
        body = msg.body
        if isinstance(body, FlowModBody):
            if body.dpid != self.id.dpid:
                raise KeyError(f"FLOW_MOD for s{body.dpid} delivered to {self.id}")
            self._install_rule(priority=body.priority,
                               match_ingress=body.match_ingress,
                               action=body.action,
                               hard_timeout=body.hard_timeout)
        elif isinstance(body, GroupModBody):
            self._install_group(body)
        else:
            raise TypeError(f"not a mod message: {msg.kind}")

    def _install_group(self, body: GroupModBody) -> None:
        dpid, group_id, buckets = body
        if dpid != self.id.dpid:
            raise KeyError(f"GROUP_MOD for s{dpid} delivered to {self.id}")
        # last-writer-wins on duplicate group ids
        self.group_table[group_id] = buckets
        texts = self._bucket_texts.get(buckets)
        if texts is None:
            texts = self._bucket_texts[buckets] = tuple(
                f"{b.watch}->{b.out}" for b in buckets)
        self.services.append(("group_installed", (texts, group_id, self._text)))

    def handle_packet_out(self, body: PacketOutBody) -> None:
        """Emit the controller-supplied frame.  egress=None is the
        replicate-to-all-ports form: the switch rewrites the port identity
        per copy (the OFDPv2 optimization)."""
        if body.egress is not None:
            self.services.send_frame(body.egress, body.frame)
            return
        chassis_id, _, description, nonce = body.frame
        for ref, port_id in self._port_ids:
            # built in C, without the NamedTuple's Python-level __new__
            self.services.send_frame(ref, tuple.__new__(
                LldpFrame, (chassis_id, port_id, description, nonce)))

    def _install_rule(self, priority: int, match_ingress: Optional[PortRef],
                      action: tuple, hard_timeout: Optional[SimTime]) -> FlowRule:
        now = self.services.now()
        rule = FlowRule(priority=priority, match_ingress=match_ingress, action=action,
                        hard_timeout=hard_timeout, installed_at=now,
                        seq=self._rule_seq)
        self._rule_seq += 1
        # same (priority, match) replaces the previous rule
        key = (priority, match_ingress)
        self.flow_table[key] = rule
        if hard_timeout is not None:
            def expire():
                if self.flow_table.get(key) is rule:
                    del self.flow_table[key]
                    self.services.record("flow_rule_expired", switch=self._text,
                                         port=str(match_ingress) if match_ingress else "any")

            self.services.schedule(hard_timeout, "flow_rule_expiry", expire)
        return rule
