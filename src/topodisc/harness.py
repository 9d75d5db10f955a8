"""Scenario runner.

Builds the engine, fabric, switch agents and controller for a scenario,
schedules its timeline, and assembles the run report.  The harness owns
the wire between the layers: it hands control messages, frames and
carrier changes to the switch that is present, runs the BFD handshake
across each live link, and tells a new agent when its session is UP.
Each switch then times out its own sessions.  The harness also owns the
two measurement aids that are not part of any protocol: data probes,
sent through ``send_probe`` and routed through installed groups (falling
back to the controller's path tags), and the adaptation watcher.  Once
an added link is learned, the watcher waits until the group updates its
learning sent have been applied, then sends a probe across the new path
and stamps adaptation completion when it arrives.  A run sends no other
probe; a caller that wants a loss window sends its own.

Presence rules: a switch is present while its control channel is open
(``fabric.connected``).  Switches whose first timeline reference is a
join start absent with their links dead.  A join boots a fresh agent and
brings back every dead link of the joiner whose declared state is alive
and whose peer is present; links declared dormant (``alive: false``)
wait for their own link-add event.  A leaving switch closes its channel
and ends its BFD sessions, then takes its live links down with it.

Lifetime: a running simulation is full of reference cycles (pending
events, the fabric's callbacks, the controller's hook).  ``close()``, or
leaving ``with Simulation(spec) as sim:``, breaks all of them, so a
closed run holds no cycle and dropping it frees it by reference counting
alone, with no cyclic collection.
"""
from __future__ import annotations

from operator import attrgetter
from typing import Optional

from .core import (
    AttackStart,
    Link,
    LinkAdd,
    LinkRemove,
    MsgKind,
    PortRef,
    Protocol,
    RUN_TAIL,
    ScenarioSpec,
    SimTime,
    SwitchJoin,
    SwitchLeave,
    event_end,
    link_key,
    validate_scenario,
)
from .simnet import Engine, Fabric
from .switch_agent import DataFrame, SwitchAgent
from .controller import Controller
from . import adversary
from . import metrics as metrics_mod

# read per message: on Python 3.11 an Enum member read off its class is slow
_FEATURE_REQUEST, _GROUP_MOD = MsgKind.FEATURE_REQUEST, MsgKind.GROUP_MOD


class Services:
    """What agents and the controller are allowed to touch: the clock,
    the trace, the scheduler, and the transport."""

    def __init__(self, engine: Engine, fabric: Fabric, spec: ScenarioSpec):
        self._engine = engine
        self.lldp_window: SimTime = spec.lldp_window
        # record(kind, **detail), shared(kind, **detail) and append(row):
        # the engine's own, stamped with its clock; layout(kind, *keys):
        # the trace's own; send_control(msg) and send_frame(egress,
        # frame): the fabric's own
        self.record = engine.record
        self.shared = engine.shared
        self.append = engine.append
        self.layout = engine.trace.layout
        self.send_control = fabric.send_control
        self.send_frame = fabric.send_frame

    def now(self) -> SimTime:
        return self._engine.now

    def schedule(self, delay: SimTime, kind: str, action):
        return self._engine.schedule(delay, kind, action)


class Simulation:
    def __init__(self, spec: ScenarioSpec, name: str = "scenario"):
        violations = validate_scenario(spec)
        if violations:
            raise ValueError("invalid scenario:\n" + "\n".join(
                f"  {v}" for v in violations))
        self.spec = spec
        self.name = name
        self.engine = Engine()
        self.fabric = Fabric(self.engine, spec)
        self.services = Services(self.engine, self.fabric, spec)
        self.agents: dict[int, SwitchAgent] = {
            d.id.dpid: SwitchAgent(d, spec.protocol, spec.bfd, self.services)
            for d in spec.switches
        }
        self.controller = Controller(spec, self.services)
        self.pending_joins: set[int] = set()
        self.attack_results: list = []
        self._host_listeners: dict[PortRef, list] = {}
        self._probe_seq = 0
        # adaptation probe id -> the link whose adaptation it completes
        self._adapt_probes: dict[int, tuple[PortRef, PortRef]] = {}
        # added link -> the group sends still to be applied, or None
        # while the link is not learned yet
        self._adapt_watch: dict[tuple[PortRef, PortRef], Optional[set]] = {}

        self.fabric.deliver_to_switch = self._deliver_to_switch
        self.fabric.deliver_to_controller = self.controller.handle
        self.fabric.frame_arrival = self._frame_arrival
        self.fabric.link_flag_change = self._link_flag_change
        self.fabric.host_frame_hook = self._host_frame
        self.controller.link_learned_hook = self._on_link_learned

        # boot: channels up, carrier flags armed silently, hellos at t=0
        present = sorted(spec.initially_present())
        for dpid in present:
            self.fabric.open_channel(dpid)
        alive_keys = spec.initially_alive()
        for link in spec.links:
            if link.key() not in alive_keys:
                continue
            for port, peer in ((link.a, link.b), (link.b, link.a)):
                self.agents[port.dpid].boot_port_up(port, peer)
            if spec.protocol is Protocol.SOFTDP:
                self._start_bfd_handshake(link)
        for dpid in present:
            self.engine.schedule(0, "switch_hello",
                                 lambda d=dpid: self.agents[d].hello())

        # the timeline as one series: one pending event, however long
        timeline = spec.timeline
        self.engine.schedule_series(
            map(attrgetter("at"), timeline), len(timeline), "timeline",
            lambda k: self._dispatch_timeline(timeline[k]))

    # -- delivery hooks ----------------------------------------------------
    def _deliver_to_switch(self, msg) -> None:
        kind, _, dst, body = msg
        self.agents[dst].handle_control(msg)
        if kind is _GROUP_MOD:
            if self._adapt_watch:
                self._note_group_applied(dst, body.group_id)
        elif kind is _FEATURE_REQUEST and dst in self.pending_joins:
            # the joiner has answered with all ports down; now its cables
            # get patched in, so PORT_STATUS reports follow registration
            self.pending_joins.discard(dst)
            self.engine.schedule(0, "join_links_up",
                                 lambda d=dst: self._activate_join_links(d))

    def _frame_arrival(self, port: PortRef, frame) -> None:
        if isinstance(frame, DataFrame):
            if frame.dst_dpid == port.dpid:
                self.engine.record("probe_delivered", probe_id=frame.probe_id)
                pair = self._adapt_probes.pop(frame.probe_id, None)
                if pair is not None:
                    self.engine.record("adaptation_complete",
                                       pair=[str(pair[0]), str(pair[1])],
                                       mode="probe")
                return
            self._route_probe_from(port.dpid, frame)
            return
        if port.dpid in self.fabric.connected:
            self.agents[port.dpid].forward(frame, port)

    def _host_frame(self, port: PortRef, frame) -> None:
        for fn in self._host_listeners.get(port, []):
            fn(port, frame)

    def add_host_observer(self, port: PortRef, fn) -> None:
        self._host_listeners.setdefault(port, []).append(fn)

    # -- carrier changes and BFD ------------------------------------------
    def _link_flag_change(self, port: PortRef, alive: bool) -> None:
        if port.dpid not in self.fabric.connected:
            return
        agent = self.agents[port.dpid]
        st = self.fabric.port_link[port]
        if alive:
            agent.on_port_up(port, peer=st.peer(port))
            if self.spec.protocol is Protocol.SOFTDP and port == st.spec.a:
                self._start_bfd_handshake(st.spec)
        else:
            agent.on_carrier_down(port)

    def _start_bfd_handshake(self, link: Link) -> None:
        """Three one-way delays establish the session: the initiator is UP
        on seeing the reply, the responder on seeing the closing ack.  A
        link that went down meanwhile has a new generation and the
        handshake is void; that covers a switch that left, and perhaps
        rejoined as a new agent, too, as it took its links down."""
        st = self.fabric.links[link.key()]
        gen = st.generation

        def established(port: PortRef):
            def fire():
                if st.alive and st.generation == gen:
                    self.agents[port.dpid].bfd_session_established(
                        port, self.engine.now)
            return fire

        self.engine.schedule(link.delay_ab + link.delay_ba, "bfd_established",
                             established(link.a))
        self.engine.schedule(2 * link.delay_ab + link.delay_ba, "bfd_established",
                             established(link.b))

    # -- timeline ----------------------------------------------------------
    def _dispatch_timeline(self, ev) -> None:
        if isinstance(ev, (LinkAdd, LinkRemove)):
            st = self.fabric.link_state(ev.a, ev.b)
            i = 1 if ev.a == st.spec.a else 2     # ev.a's place in st.texts
            self.engine.record("timeline", event=ev.name, a=st.texts[i],
                               b=st.texts[3 - i])
            if isinstance(ev, LinkAdd):
                self._adapt_watch[link_key(ev.a, ev.b)] = None
            self.fabric.set_link_alive(ev.a, ev.b, isinstance(ev, LinkAdd))
        elif isinstance(ev, SwitchJoin):
            self.engine.record("timeline", event=ev.name, dpid=ev.dpid)
            self._do_join(ev.dpid)
        elif isinstance(ev, SwitchLeave):
            self.engine.record("timeline", event=ev.name, dpid=ev.dpid)
            self._do_leave(ev.dpid)
        elif isinstance(ev, AttackStart):
            self.engine.record("timeline", event=ev.name, attack=ev.attack.kind)
            adversary.launch(self, ev.attack)
        else:
            raise TypeError(f"unknown timeline event {ev!r}")

    def _do_join(self, dpid: int) -> None:
        # a joining switch is a fresh boot: new agent, default rules only
        self.agents[dpid] = SwitchAgent(self.spec.switch(dpid),
                                        self.spec.protocol, self.spec.bfd,
                                        self.services)
        self.pending_joins.add(dpid)
        self.fabric.open_channel(dpid)
        self.agents[dpid].hello()

    def _activate_join_links(self, dpid: int) -> None:
        for link in sorted(self.spec.links, key=Link.key):
            if dpid not in (link.a.dpid, link.b.dpid) or not link.alive:
                continue
            peer = link.b.dpid if link.a.dpid == dpid else link.a.dpid
            st = self.fabric.links[link.key()]
            if peer in self.fabric.connected and not st.alive:
                self.fabric.set_link_alive(link.a, link.b, True)

    def _do_leave(self, dpid: int) -> None:
        # closed first, so the leaver hears nothing of its own links going;
        # its sessions, and their pending detections, end with it
        self.fabric.close_channel(dpid)
        self.agents[dpid].drop_bfd_sessions()
        self.pending_joins.discard(dpid)
        for key in sorted(self.fabric.links):
            st = self.fabric.links[key]
            if st.alive and dpid in (key[0].dpid, key[1].dpid):
                self.fabric.set_link_alive(key[0], key[1], False)
        # the controller notices the dead session only after the channel
        # latency; neighbor BFD reports race it, first signal wins
        notice = self.spec.channel(dpid).delay_to_controller

        def fire(d=dpid):
            if d in self.fabric.connected:
                return      # rejoined already; the stale notice is moot
            self.controller.on_channel_closed(d)

        self.engine.schedule(notice, "channel_close_notice", fire)

    # -- adaptation watcher ------------------------------------------------
    def _on_link_learned(self, pair: tuple[PortRef, PortRef], sends: list) -> None:
        if pair not in self._adapt_watch:
            return
        if not sends:
            del self._adapt_watch[pair]
            self.engine.record("adaptation_complete",
                               pair=[str(pair[0]), str(pair[1])],
                               mode="no_groups")
            return
        self._adapt_watch[pair] = set(sends)

    def _note_group_applied(self, dpid: int, group_id: int) -> None:
        for pair in sorted(self._adapt_watch):
            waiting = self._adapt_watch[pair]
            if waiting is None:
                continue
            waiting.discard((dpid, group_id))
            if not waiting:
                del self._adapt_watch[pair]
                a, b = pair[0].dpid, pair[1].dpid
                self.engine.schedule(
                    0, "adaptation_probe",
                    lambda s=min(a, b), d=max(a, b), p=pair:
                    self.send_probe(s, d, adaptation_pair=p))

    # -- probes ------------------------------------------------------------
    def send_probe(self, src: int, dst: int,
                   adaptation_pair: Optional[tuple[PortRef, PortRef]] = None
                   ) -> int:
        """Send a data probe from ``src`` toward ``dst``; returns its id."""
        pid = self._probe_seq
        self._probe_seq += 1
        self.engine.record("probe_sent", probe_id=pid, src=src, dst=dst)
        if adaptation_pair is not None:
            self._adapt_probes[pid] = adaptation_pair
        self._route_probe_from(src, DataFrame(src, dst, pid))
        return pid

    def _route_probe_from(self, at_dpid: int, frame: DataFrame) -> None:
        def lost(reason: str) -> None:
            self.engine.record("probe_lost", probe_id=frame.probe_id,
                               at=f"s{at_dpid}", reason=reason)

        if at_dpid not in self.fabric.connected:
            lost("switch_absent")
            return
        agent = self.agents[at_dpid]
        if frame.dst_dpid in agent.group_table:
            result = agent.forward_via_group(frame.dst_dpid, frame)
            if result[0] == "drop":
                lost(result[1])
            return
        # no installed group: follow the controller's primary tag
        pair = (min(at_dpid, frame.dst_dpid), max(at_dpid, frame.dst_dpid))
        tags = self.controller.map.path_tags.get(pair)
        if tags is None or len(tags.primary) < 2:
            lost("no_path")
            return
        path = tags.primary if tags.primary[0] == at_dpid \
            else tuple(reversed(tags.primary))
        if path[0] != at_dpid:
            lost("off_path")
            return
        port = self.controller.map.first_hop_port(at_dpid, path[1])
        if port is None:
            lost("no_first_hop_port")
            return
        self.fabric.send_frame(port, frame)

    # -- run and report ----------------------------------------------------
    def default_until(self) -> SimTime:
        """RUN_TAIL past the end of the last timeline event, verdicts
        included; validation keeps it within MAX_TIME."""
        return max(map(event_end, self.spec.timeline), default=0) + RUN_TAIL

    def run(self, until: Optional[SimTime] = None) -> "Simulation":
        self.engine.run_until(self.default_until() if until is None else until)
        return self

    def close(self) -> None:
        """End the run for good.  Drops the pending events and cuts the
        callbacks that tie the fabric, the controller and the attack
        observers back to this simulation, so a closed run holds no
        reference cycle and is freed as soon as the last reference to it
        goes.  The trace, ``report()``, the map, the counters and the
        ground truth stay readable; ``run()`` raises RuntimeError.
        Closing twice is harmless."""
        self.engine.close()
        self.fabric.detach()
        self.controller.link_learned_hook = None
        self._host_listeners.clear()

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def ground_truth(self) -> tuple[set[int], set[tuple[PortRef, PortRef]]]:
        """What the map should contain right now: both directions of every
        live link, and every switch such a link touches."""
        directed = self.fabric.live_directed_links()
        switches = {p.dpid for (p, _) in directed}
        return switches, directed

    def map_matches_ground_truth(self) -> bool:
        switches, directed = self.ground_truth()
        return (set(self.controller.map.switches) == switches
                and self.controller.map.directed_links == directed)

    def run_metrics(self) -> metrics_mod.RunMetrics:
        return metrics_mod.measure(self.engine.trace)

    def report(self) -> dict:
        m = self.run_metrics()
        preds = metrics_mod.timeline_predictions(self.spec)
        timeline_entries = [e for e in m.events if e.kind != "bootstrap"]
        deltas = []
        for entry, pred in zip(timeline_entries, preds):
            if pred is None:
                deltas.append(None)
                continue
            measured = entry.learning
            deltas.append({
                "quantity": pred.quantity,
                "predicted": pred.value,
                "measured": measured,
                "delta": (None if measured is None or pred.value is None
                          else measured - pred.value),
            })
        return {
            "scenario": self.name,
            "protocol": self.spec.protocol.value,
            "seed": self.spec.rng_seed,
            "horizon": self.engine.now,
            "digest": self.engine.trace.digest(),
            "metrics": m.as_dict(),
            "prediction_deltas": deltas,
            "attacks": [v.as_dict() for v in self.attack_results],
            "map": self.controller.map.dump(),
            "fabric_counters": dict(sorted(self.fabric.counters.items())),
            "controller_counters": dict(sorted(self.controller.counters.items())),
        }
