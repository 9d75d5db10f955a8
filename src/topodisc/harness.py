"""Scenario runner.

Builds the engine, fabric, switch agents and controller for a scenario,
schedules its timeline, and assembles the run report.  The harness owns
the wire between the layers: it hands control messages, frames and
carrier changes to the switch that is present, runs the BFD handshake
across each live link, and tells a new agent when its session is UP.
Each switch then times out its own sessions.  The harness also owns the
two measurement aids that are not part of any protocol: data probes
routed through installed groups (falling back to the controller's path
tags), and the watcher that stamps adaptation completion when a newly
learned link's group updates have been applied and traffic has crossed
the new path.

Presence rules: a switch is present while its control channel is open
(``fabric.connected``).  Switches whose first timeline reference is a
join start absent with their links dead.  A join boots a fresh agent and
brings back every dead link of the joiner whose declared state is alive
and whose peer is present; links declared dormant (``alive: false``)
wait for their own link-add event.  A leaving switch closes its channel,
then takes its live links down with it.

Lifetime: a running simulation is full of reference cycles (pending
events, the fabric's callbacks, the controller's hook).  ``close()``, or
leaving ``with Simulation(spec) as sim:``, breaks all of them, so a
closed run holds no cycle and dropping it frees it by reference counting
alone, with no cyclic collection.
"""
from __future__ import annotations

from typing import Optional

from .core import (
    AttackStart,
    Link,
    LinkAdd,
    LinkRemove,
    MsgKind,
    PortRef,
    Protocol,
    ScenarioSpec,
    SEC,
    SimTime,
    SwitchJoin,
    SwitchLeave,
    link_key,
    validate_scenario,
)
from .simnet import Engine, Fabric
from .switch_agent import DataFrame, SwitchAgent
from .controller import Controller, DEFAULT_PRODUCT
from . import adversary
from . import metrics as metrics_mod


class Services:
    """What agents and the controller are allowed to touch: the clock,
    the trace, the scheduler, and the transport."""

    def __init__(self, engine: Engine, fabric: Fabric, spec: ScenarioSpec):
        self._engine = engine
        self._fabric = fabric
        self.lldp_window: SimTime = spec.lldp_window
        # record(kind, **detail): the engine's own, stamped with its clock
        self.record = engine.record

    def now(self) -> SimTime:
        return self._engine.now

    def send_control(self, msg) -> None:
        self._fabric.send_control(msg)

    def send_frame(self, egress: PortRef, frame) -> None:
        self._fabric.send_frame(egress, frame)

    def schedule(self, delay: SimTime, kind: str, action):
        return self._engine.schedule(delay, kind, action)


class Simulation:
    def __init__(self, spec: ScenarioSpec, name: str = "scenario",
                 product: bytes = DEFAULT_PRODUCT,
                 probe_pairs: tuple = (), probe_cadence: Optional[SimTime] = None,
                 probe_start: SimTime = 0):
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
        self.controller = Controller(spec, self.services, product=product)
        self.pending_joins: set[int] = set()
        self.attack_results: list = []
        self.probe_pairs = tuple(probe_pairs)
        self.probe_cadence = probe_cadence
        self.probe_start = probe_start
        self._host_listeners: dict[PortRef, list] = {}
        self._probe_seq = 0
        self._probe_meta: dict[int, dict] = {}
        self._adapt_watch: dict[tuple[str, str], set] = {}

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

        for ev in spec.timeline:
            self.engine.schedule_at(ev.at, "timeline",
                                    lambda e=ev: self._dispatch_timeline(e))

        if self.probe_pairs and self.probe_cadence:
            self.engine.schedule_at(self.probe_start, "probe_tick",
                                    self._probe_tick)

    # -- delivery hooks ----------------------------------------------------
    def _deliver_to_switch(self, msg) -> None:
        self.agents[msg.dst].handle_control(msg)
        if msg.kind is MsgKind.FEATURE_REQUEST and msg.dst in self.pending_joins:
            # the joiner has answered with all ports down; now its cables
            # get patched in, so PORT_STATUS reports follow registration
            self.pending_joins.discard(msg.dst)
            self.engine.schedule(0, "join_links_up",
                                 lambda d=msg.dst: self._activate_join_links(d))
        elif msg.kind is MsgKind.GROUP_MOD:
            self._note_group_applied(msg.dst, msg.body.group_id)

    def _frame_arrival(self, port: PortRef, frame) -> None:
        if isinstance(frame, DataFrame):
            if frame.dst_dpid == port.dpid:
                self.engine.record("probe_delivered", probe_id=frame.probe_id)
                meta = self._probe_meta.get(frame.probe_id, {})
                pair = meta.get("adaptation_pair")
                if pair is not None:
                    self.engine.record("adaptation_complete",
                                       pair=[pair[0], pair[1]], mode="probe")
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
            agent.on_port_event(port, True, peer=st.peer(port))
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
        if isinstance(ev, LinkAdd):
            self.engine.record("timeline", event=ev.name,
                               a=str(ev.a), b=str(ev.b))
            ka, kb = link_key(ev.a, ev.b)
            self._adapt_watch.setdefault((str(ka), str(kb)), set())
            self.fabric.set_link_alive(ev.a, ev.b, True)
        elif isinstance(ev, LinkRemove):
            self.engine.record("timeline", event=ev.name,
                               a=str(ev.a), b=str(ev.b))
            self.fabric.set_link_alive(ev.a, ev.b, False)
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
        # a joining switch is a fresh boot: new agent, default rules only;
        # the old agent's sessions, and their pending detections, end here
        self.agents[dpid].drop_bfd_sessions()
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
        # closed first, so the leaver hears nothing of its own links going
        self.fabric.close_channel(dpid)
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
        key = (str(pair[0]), str(pair[1]))
        if key not in self._adapt_watch:
            return
        if not sends:
            del self._adapt_watch[key]
            self.engine.record("adaptation_complete",
                               pair=[key[0], key[1]], mode="no_groups")
            return
        self._adapt_watch[key] = set(sends)

    def _note_group_applied(self, dpid: int, group_id: int) -> None:
        for key in sorted(self._adapt_watch):
            waiting = self._adapt_watch[key]
            waiting.discard((dpid, group_id))
            if not waiting:
                del self._adapt_watch[key]
                a, b = PortRef.parse(key[0]), PortRef.parse(key[1])
                src, dst = min(a.dpid, b.dpid), max(a.dpid, b.dpid)
                self.engine.schedule(
                    0, "adaptation_probe",
                    lambda s=src, d=dst, k=key:
                    self.send_probe(s, d, adaptation_pair=k))

    # -- probes ------------------------------------------------------------
    def send_probe(self, src: int, dst: int,
                   adaptation_pair: Optional[tuple] = None) -> int:
        pid = self._probe_seq
        self._probe_seq += 1
        self.engine.record("probe_sent", probe_id=pid, src=src, dst=dst)
        self._probe_meta[pid] = {"adaptation_pair": adaptation_pair}
        self._route_probe_from(src, DataFrame(src, dst, pid))
        return pid

    def _probe_tick(self) -> None:
        for (src, dst) in self.probe_pairs:
            self.send_probe(src, dst)
        self.engine.schedule(self.probe_cadence, "probe_tick", self._probe_tick)

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
        last = 0
        for ev in self.spec.timeline:
            end = ev.at
            if isinstance(ev, AttackStart):
                end += adversary.attack_span(ev.attack)
            last = max(last, end)
        return last + 1 * SEC

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


def run_scenario(spec: ScenarioSpec, name: str = "scenario",
                 until: Optional[SimTime] = None, **kwargs) -> Simulation:
    return Simulation(spec, name=name, **kwargs).run(until)
