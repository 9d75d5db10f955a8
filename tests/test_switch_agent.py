"""Switch-local behavior: BFD timing, flow table, groups, replication."""

from hypothesis import given, strategies as st

from topodisc.core import (
    BfdParams,
    ControlMessage,
    FlowModBody,
    GroupBucket,
    GroupModBody,
    LldpFrame,
    MS,
    MsgKind,
    PacketOutBody,
    PortRef,
    Protocol,
    SwitchDecl,
    SwitchId,
    from_ms,
)
from topodisc.switch_agent import (
    BFD_DOWN,
    BFD_UP,
    DataFrame,
    SwitchAgent,
    bfd_down_time,
)

from conftest import StubServices


# -- BFD closed form vs discrete stepping -----------------------------------

class SteppedSession:
    """Discrete-stepping BFD endpoint, the oracle for ``bfd_down_time``:
    ``misses`` resets on every received control packet, and the session
    goes DOWN exactly when misses reaches the multiplier."""

    def __init__(self, multiplier):
        self.multiplier = multiplier
        self.state = BFD_UP
        self.misses = 0
        self._received_since_tick = False

    def on_control_packet(self):
        if self.state == BFD_UP:
            self.misses = 0
            self._received_since_tick = True

    def step(self):
        """One tick-boundary evaluation; returns True when this step
        transitions the session to DOWN (exactly once per failure)."""
        if self.state != BFD_UP:
            return False
        if self._received_since_tick:
            self._received_since_tick = False
            return False
        self.misses += 1
        if self.misses >= self.multiplier:
            self.state = BFD_DOWN
            return True
        return False


def _oracle_down_time(up_at, interval, multiplier, failed_at):
    """Step the session at every tick with the peer transmitting
    continuously until the failure instant; return the DOWN tick."""
    s = SteppedSession(multiplier)
    # every tick at or before the failure saw traffic, so its net effect is
    # the just-established state; skip straight to the last such tick
    t = up_at + max(0, (failed_at - up_at) // interval) * interval
    for _ in range(10_000):
        t += interval
        if failed_at > t - interval:  # at least one packet in (t-T, t]
            s.on_control_packet()
        if s.step():
            return t
    raise AssertionError("no DOWN within bound")


@given(up_at=st.integers(min_value=0, max_value=10**9),
       interval=st.integers(min_value=1, max_value=10**7),
       multiplier=st.integers(min_value=1, max_value=5),
       gap=st.integers(min_value=0, max_value=10**8))
def test_bfd_down_time_matches_discrete_stepping(up_at, interval, multiplier, gap):
    failed_at = up_at + gap
    assert bfd_down_time(up_at, interval, multiplier, failed_at) == \
        _oracle_down_time(up_at, interval, multiplier, failed_at)


@given(up_at=st.integers(min_value=0, max_value=10**9),
       interval=st.integers(min_value=1, max_value=10**7),
       multiplier=st.integers(min_value=1, max_value=5),
       gap=st.integers(min_value=0, max_value=10**8))
def test_bfd_detection_delay_bounds(up_at, interval, multiplier, gap):
    failed_at = up_at + gap
    delay = bfd_down_time(up_at, interval, multiplier, failed_at) - failed_at
    assert multiplier * interval <= delay < (multiplier + 1) * interval


def test_bfd_detection_hits_floor_on_tick_aligned_failure():
    interval, multiplier = from_ms(1), 3
    down = bfd_down_time(0, interval, multiplier, 7 * interval)
    assert down - 7 * interval == multiplier * interval


def test_bfd_session_recovers_miss_count_on_traffic():
    s = SteppedSession(multiplier=3)
    assert s.step() is False and s.misses == 1
    assert s.step() is False and s.misses == 2
    s.on_control_packet()
    assert s.misses == 0
    assert s.step() is False  # the received flag absorbs this tick
    assert s.step() is False and s.step() is False and s.step() is True
    assert s.state == BFD_DOWN
    assert s.step() is False  # DOWN fires exactly once


# -- fixtures ---------------------------------------------------------------

def _agent(protocol=Protocol.SOFTDP, ports=3, dpid=1):
    decl = SwitchDecl(SwitchId(dpid, f"02:00:00:00:00:{dpid:02x}"), ports)
    services = StubServices()
    return SwitchAgent(decl, protocol, BfdParams(from_ms(1), 1), services), services


LLDP = LldpFrame(b"c", b"p", b"d")


# -- default rules ----------------------------------------------------------

def test_event_driven_default_drops_lldp():
    agent, services = _agent(Protocol.SOFTDP)
    assert agent.forward(LLDP, PortRef(1, 1)) == ("drop", "rule_drop")
    assert services.sent == []


def test_baseline_default_forwards_lldp_to_controller():
    for proto in (Protocol.OFDP, Protocol.OFDPV2):
        agent, services = _agent(proto)
        assert agent.forward(LLDP, PortRef(1, 1)) == ("to_controller",)
        assert services.sent_kinds() == ["PACKET_IN"]


def test_window_rule_outranks_default_then_expires():
    agent, services = _agent(Protocol.SOFTDP)
    agent.boot_port_up(PortRef(1, 1), peer=PortRef(2, 1))
    assert agent.forward(LLDP, PortRef(1, 1)) == ("to_controller",)
    # frames on other ports still hit the drop rule
    assert agent.forward(LLDP, PortRef(1, 2))[0] == "drop"
    services.clock = services.lldp_window
    services.fire_due()
    assert agent.forward(LLDP, PortRef(1, 1))[0] == "drop"


def test_same_match_replaces_and_tie_newest_wins():
    agent, services = _agent(Protocol.SOFTDP)
    base = len(agent.flow_table)
    mod = lambda action: ControlMessage(
        MsgKind.FLOW_MOD, src=0, dst=1,
        body=FlowModBody(dpid=1, priority=50,
                         match_ingress=PortRef(1, 2), action=action,
                         hard_timeout=None))
    agent.apply_mod(mod(("drop",)))
    agent.apply_mod(mod(("to_controller",)))
    assert len(agent.flow_table) == base + 1  # second replaced the first
    assert agent.forward(LLDP, PortRef(1, 2)) == ("to_controller",)


def test_higher_priority_wins_regardless_of_age():
    agent, services = _agent(Protocol.OFDP)
    agent.apply_mod(ControlMessage(
        MsgKind.FLOW_MOD, src=0, dst=1,
        body=FlowModBody(dpid=1, priority=99,
                         match_ingress=None, action=("drop",),
                         hard_timeout=None)))
    assert agent.forward(LLDP, PortRef(1, 1))[0] == "drop"


# -- groups -----------------------------------------------------------------

def _group_mod(buckets):
    return ControlMessage(MsgKind.GROUP_MOD, src=0, dst=1,
                          body=GroupModBody(dpid=1, group_id=7, buckets=buckets))


def test_group_first_live_bucket_and_switchover():
    agent, services = _agent(Protocol.SOFTDP)
    agent.boot_port_up(PortRef(1, 1), peer=PortRef(2, 1))
    agent.boot_port_up(PortRef(1, 2), peer=PortRef(3, 1))
    agent.apply_mod(_group_mod((
        GroupBucket(watch=PortRef(1, 1), out=PortRef(1, 1)),
        GroupBucket(watch=PortRef(1, 2), out=PortRef(1, 2)))))
    probe = DataFrame(src_dpid=9, dst_dpid=1, probe_id=0)
    assert agent.forward_via_group(7, probe) == ("output", PortRef(1, 1))
    # carrier loss flips the watch flag with no controller involvement
    agent.on_carrier_down(PortRef(1, 1))
    assert agent.forward_via_group(7, probe) == ("output", PortRef(1, 2))
    agent.on_carrier_down(PortRef(1, 2))
    assert agent.forward_via_group(7, probe) == ("drop", "no_live_bucket")


def test_unknown_group_drops():
    agent, _ = _agent()
    assert agent.forward_via_group(42, DataFrame(1, 2, 0)) == \
        ("drop", "no_such_group")


def test_group_replacement_last_writer_wins():
    agent, _ = _agent()
    agent.boot_port_up(PortRef(1, 2), peer=PortRef(3, 1))
    agent.apply_mod(_group_mod((GroupBucket(PortRef(1, 1), PortRef(1, 1)),)))
    agent.apply_mod(_group_mod((GroupBucket(PortRef(1, 2), PortRef(1, 2)),)))
    assert agent.forward_via_group(7, DataFrame(1, 2, 0)) == \
        ("output", PortRef(1, 2))


# -- port lifecycle ---------------------------------------------------------

def test_port_event_emits_exactly_one_port_status_with_epoch():
    agent, services = _agent()
    agent.on_port_event(PortRef(1, 1), True, peer=PortRef(2, 1))
    assert services.sent_kinds() == ["PORT_STATUS"]
    body = services.sent[0].body
    assert body.up is True and body.epoch == 1
    agent.on_port_event(PortRef(1, 1), False)
    assert services.sent_kinds() == ["PORT_STATUS", "PORT_STATUS"]
    assert services.sent[1].body.up is False


def test_boot_port_up_is_silent():
    agent, services = _agent()
    agent.boot_port_up(PortRef(1, 1), peer=PortRef(2, 1))
    assert services.sent == []
    assert agent.port(PortRef(1, 1)).link_up


def test_carrier_down_is_silent_flag_change():
    agent, services = _agent()
    agent.boot_port_up(PortRef(1, 1), peer=PortRef(2, 1))
    agent.bfd_session_established(PortRef(1, 1), up_at=0)
    agent.on_carrier_down(PortRef(1, 1))
    assert services.sent == []
    assert not agent.port(PortRef(1, 1)).link_up


def test_carrier_down_before_bfd_is_up_reports_port_status():
    # no session is up to time out, so the port reports the loss itself
    agent, services = _agent()
    agent.boot_port_up(PortRef(1, 1), peer=PortRef(2, 1))
    agent.on_carrier_down(PortRef(1, 1))
    assert services.sent_kinds() == ["PORT_STATUS"]
    body = services.sent[0].body
    assert (body.port, body.up, body.epoch) == (PortRef(1, 1), False, 1)


def test_bfd_down_emits_single_status():
    agent, services = _agent()
    agent.boot_port_up(PortRef(1, 1), peer=PortRef(2, 1))
    agent.bfd_session_established(PortRef(1, 1), up_at=0)
    assert agent.bfd_sessions[PortRef(1, 1)].state == BFD_UP
    agent.bfd_detect_down(PortRef(1, 1))
    agent.bfd_detect_down(PortRef(1, 1))  # second call is a no-op
    assert services.sent_kinds() == ["BFD_STATUS"]
    assert services.sent[0].body.state == BFD_DOWN


def _up_session_lost(services, agent, up_at, lost_at):
    """Port s1.p1 with an UP session since ``up_at`` loses carrier at
    ``lost_at``; returns the detection timers scheduled."""
    agent.boot_port_up(PortRef(1, 1), peer=PortRef(2, 1))
    agent.bfd_session_established(PortRef(1, 1), up_at=up_at)
    services.clock = lost_at
    agent.on_carrier_down(PortRef(1, 1))
    return [s for s in services.scheduled if s[1] == "bfd_timeout"]


def test_carrier_loss_of_up_session_times_out_on_its_own():
    services = StubServices()
    bfd = BfdParams(from_ms(2), 3)
    agent = SwitchAgent(SwitchDecl(SwitchId(1, "02:00:00:00:00:01"), 3),
                        Protocol.SOFTDP, bfd, services)
    lost_at = from_ms(7) + 1
    timers = _up_session_lost(services, agent, from_ms(1), lost_at)
    due = bfd_down_time(from_ms(1), bfd.interval, bfd.multiplier, lost_at)
    assert [t[0] for t in timers] == [due]
    assert services.sent == []
    services.clock = due - 1
    services.fire_due()
    assert services.sent == []
    services.clock = due
    services.fire_due()
    assert services.sent_kinds() == ["BFD_STATUS"]
    body = services.sent[0].body
    assert (body.port, body.state, body.epoch) == (PortRef(1, 1), BFD_DOWN, 1)


def test_port_up_before_the_timeout_voids_it():
    agent, services = _agent()
    (due, *_), = _up_session_lost(services, agent, 0, from_ms(3))
    services.clock = due - 1
    agent.on_port_event(PortRef(1, 1), True, peer=PortRef(2, 1))
    # the new session is UP too before the old one's timer comes due
    agent.bfd_session_established(PortRef(1, 1), up_at=due - 1)
    services.clock = due
    services.fire_due()
    assert services.sent_kinds() == ["PORT_STATUS"]     # the port-up's own
    assert not [r for r in services.records if r[0] == "bfd_down_detected"]


def test_dropped_sessions_never_time_out():
    agent, services = _agent()
    (due, *_), = _up_session_lost(services, agent, 0, from_ms(3))
    agent.drop_bfd_sessions()
    assert agent.bfd_sessions == {}
    services.clock = due
    services.fire_due()
    assert services.sent == []
    assert not [r for r in services.records if r[0] == "bfd_down_detected"]


def test_carrier_loss_without_an_up_session_schedules_nothing():
    for proto in Protocol:
        agent, services = _agent(proto)
        agent.boot_port_up(PortRef(1, 1), peer=PortRef(2, 1))
        agent.on_carrier_down(PortRef(1, 1))
        assert not [s for s in services.scheduled if s[1] == "bfd_timeout"]


def test_feature_reply_reports_live_ports_only():
    agent, services = _agent(ports=3)
    agent.boot_port_up(PortRef(1, 2), peer=PortRef(2, 1))
    agent.feature_reply()
    body = services.sent[-1].body
    assert body.ports_up == (2,)
    assert body.port_count == 3


# -- packet out -------------------------------------------------------------

def test_packet_out_single_egress():
    agent, services = _agent()
    agent.handle_packet_out(PacketOutBody(PortRef(1, 2), LLDP))
    assert services.frames == [(PortRef(1, 2), LLDP)]


def test_packet_out_replicates_and_rewrites_port_id():
    agent, services = _agent(Protocol.OFDPV2, ports=3)
    agent.ports[PortRef(1, 2)].admin_up = False
    agent.handle_packet_out(PacketOutBody(None, LLDP))
    sent_ports = [p for (p, _) in services.frames]
    assert sent_ports == [PortRef(1, 1), PortRef(1, 3)]
    for port, frame in services.frames:
        assert frame.port_id == str(port).encode()
        assert frame.chassis_id == LLDP.chassis_id
