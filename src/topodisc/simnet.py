"""Discrete-event engine and physical fabric.

The engine fires events in (fire_at, insertion seq) order on an integer
nanosecond clock (a series reserves the seqs of all its events when it is
scheduled), so two runs of the same scenario produce byte-identical
traces.  The fabric moves frames across links and control messages across
per-switch channels; frames in flight on a link that dies before arrival
are dropped and counted, never silently lost.
"""
from __future__ import annotations

import hashlib
import heapq
import json
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from .core import (
    CONTROLLER,
    ControlMessage,
    Link,
    LldpFrame,
    MsgKind,
    PortRef,
    ScenarioSpec,
    SimTime,
    SWITCH_EMITTED,
    link_key,
)


# ---------------------------------------------------------------------------
# engine

# One encoder for every record, with json.dumps's defaults otherwise;
# json.dumps builds a fresh encoder for each call with non-default args.
_payload_json = json.JSONEncoder(separators=(",", ":")).encode


@dataclass(slots=True)
class SimEvent:
    fire_at: SimTime
    seq: int
    kind: str
    action: Callable[[], None]
    cancelled: bool = False

    def cancel(self) -> None:
        self.cancelled = True


@dataclass(frozen=True, slots=True)
class TraceRecord:
    ts: SimTime
    kind: str
    detail: dict  # primitive values; keys sorted, as the digest and report.json expect

    def payload_json(self) -> str:
        return _payload_json(self.detail)


class Trace:
    """Append-only event log with a run digest over its ordered lines."""

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []

    def record(self, ts: SimTime, kind: str, **detail) -> TraceRecord:
        """Writers pass JSON primitives (str, int, float, bool, None and
        lists of them); the record keeps them as given, keys sorted."""
        rec = TraceRecord(ts, kind, dict(sorted(detail.items())))
        self.records.append(rec)
        return rec

    def digest(self) -> str:
        """sha256 over one line per record, ``<ts> <kind> <detail hash>``,
        the detail hash being the first 12 hex digits of the sha256 of
        the record's ``payload_json``.  Hashed record by record."""
        h = hashlib.sha256()
        for r in self.records:
            detail_hash = hashlib.sha256(
                _payload_json(r.detail).encode()).hexdigest()[:12]
            h.update(f"{r.ts} {r.kind} {detail_hash}\n".encode())
        return h.hexdigest()

    def find(self, kind: str, **match) -> list[TraceRecord]:
        return [r for r in self.records if r.kind == kind
                and all(r.detail.get(k) == v for k, v in match.items())]


class Engine:
    """Event queue + clock + trace.  schedule() refuses events in the past;
    cancelled events never fire."""

    def __init__(self) -> None:
        self.now: SimTime = 0
        self.trace = Trace()
        self._heap: list[tuple[SimTime, int, SimEvent]] = []
        self._seq = 0
        self.fired = 0

    def _push(self, at: SimTime, seq: int, kind: str,
              action: Callable[[], None]) -> SimEvent:
        ev = SimEvent(at, seq, kind, action)
        heapq.heappush(self._heap, (at, seq, ev))
        return ev

    def schedule_at(self, at: SimTime, kind: str, action: Callable[[], None]) -> SimEvent:
        if at < self.now:
            raise ValueError(f"cannot schedule {kind!r} at {at} before now={self.now}")
        ev = self._push(at, self._seq, kind, action)
        self._seq += 1
        return ev

    def schedule(self, delay: SimTime, kind: str, action: Callable[[], None]) -> SimEvent:
        if delay < 0:
            raise ValueError(f"negative delay for {kind!r}")
        return self.schedule_at(self.now + delay, kind, action)

    def schedule_series(self, delay: SimTime, spacing: SimTime, count: int,
                        kind: str, action: Callable[[int], None]) -> None:
        """Call ``action(k)`` at now + delay + k * spacing for each k < count.

        The series fires exactly as ``count`` schedule() calls made now
        would, because it reserves their ``count`` consecutive seqs now.
        It keeps one event pending: event k pushes event k + 1 when it
        fires, so a long series costs no heap or memory up front."""
        if min(delay, spacing, count) < 0:
            raise ValueError(f"negative delay, spacing or count for {kind!r}")
        start, first = self.now + delay, self._seq
        self._seq += count

        def fire(k: int) -> None:
            if k + 1 < count:
                self._push(start + (k + 1) * spacing, first + k + 1, kind,
                           lambda: fire(k + 1))
            action(k)

        if count > 0:
            self._push(start, first, kind, lambda: fire(0))

    def record(self, kind: str, **detail) -> TraceRecord:
        return self.trace.record(self.now, kind, **detail)

    def _pop_due(self, until: Optional[SimTime]) -> Optional[SimEvent]:
        while self._heap:
            at, _, ev = self._heap[0]
            if until is not None and at > until:
                return None
            heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            return ev
        return None

    def run_until(self, t: SimTime) -> None:
        """Fire every event with fire_at <= t (including ones scheduled
        while running), then set the clock to t."""
        if t < self.now:
            raise ValueError(f"cannot run backwards to {t} from {self.now}")
        while True:
            ev = self._pop_due(t)
            if ev is None:
                break
            self.now = ev.fire_at
            self.fired += 1
            ev.action()
        self.now = t

    def run_all(self) -> None:
        while True:
            ev = self._pop_due(None)
            if ev is None:
                break
            self.now = ev.fire_at
            self.fired += 1
            ev.action()


# ---------------------------------------------------------------------------
# fabric

@dataclass
class LinkState:
    spec: Link
    alive: bool
    generation: int = 0

    def peer(self, port: PortRef) -> PortRef:
        return self.spec.b if port == self.spec.a else self.spec.a

    def delay_from(self, egress: PortRef) -> SimTime:
        return self.spec.delay_ab if egress == self.spec.a else self.spec.delay_ba


class Fabric:
    """Physical topology state and transport.

    Protocol logic is injected through callbacks so the fabric stays
    protocol-agnostic:

      deliver_to_switch(msg)        control message reached a switch
      deliver_to_controller(msg)    control message reached the controller
      frame_arrival(port, frame)    frame reached a switch port (ingress)
      link_flag_change(port, up)    carrier changed on a switch port
    """

    def __init__(self, engine: Engine, spec: ScenarioSpec) -> None:
        self.engine = engine
        self.spec = spec
        self.links: dict[tuple, LinkState] = {
            l.key(): LinkState(l, alive=l.key() in spec.initially_alive()) for l in spec.links
        }
        self.port_link: dict[PortRef, LinkState] = {}
        for st in self.links.values():
            self.port_link[st.spec.a] = st
            self.port_link[st.spec.b] = st
        self.channels = {ch.dpid: ch for ch in spec.control_channels}
        self.connected: set[int] = set()
        self.channel_generation: Counter = Counter()
        self.counters: Counter = Counter()

        self.deliver_to_switch: Callable[[ControlMessage], None] = lambda msg: None
        self.deliver_to_controller: Callable[[ControlMessage], None] = lambda msg: None
        self.frame_arrival: Callable[[PortRef, LldpFrame], None] = lambda p, f: None
        self.link_flag_change: Callable[[PortRef, bool], None] = lambda p, up: None
        self.host_frame_hook: Optional[Callable[[PortRef, LldpFrame], None]] = None

    # -- link lifecycle ---------------------------------------------------
    def link_state(self, a: PortRef, b: PortRef) -> LinkState:
        return self.links[link_key(a, b)]

    def set_link_alive(self, a: PortRef, b: PortRef, alive: bool) -> None:
        st = self.link_state(a, b)
        if st.alive == alive:
            return
        st.alive = alive
        st.generation += 1
        self.engine.record("link_up" if alive else "link_down",
                           link=str(st.spec), a=str(st.spec.a), b=str(st.spec.b))
        for port in (st.spec.a, st.spec.b):
            self.link_flag_change(port, alive)

    def live_directed_links(self) -> set[tuple[PortRef, PortRef]]:
        out = set()
        for st in self.links.values():
            if st.alive:
                out.add((st.spec.a, st.spec.b))
                out.add((st.spec.b, st.spec.a))
        return out

    # -- channel lifecycle ------------------------------------------------
    def open_channel(self, dpid: int) -> None:
        if dpid not in self.channels:
            raise KeyError(f"no control channel for s{dpid}")
        self.connected.add(dpid)
        self.channel_generation[dpid] += 1

    def close_channel(self, dpid: int) -> None:
        self.connected.discard(dpid)
        self.channel_generation[dpid] += 1

    # -- transport --------------------------------------------------------
    def send_control(self, msg: ControlMessage) -> None:
        """Queue a control message toward its destination; drops (with a
        counter) if the channel is closed at send or delivery time."""
        if msg.src == CONTROLLER:
            dpid, direction = msg.dst, "to_switch"
            if msg.kind in SWITCH_EMITTED and msg.kind is not MsgKind.HELLO:
                raise ValueError(f"{msg.kind} cannot originate at the controller")
        else:
            dpid, direction = msg.src, "to_controller"
        chan = self.channels.get(dpid)
        if chan is None:
            raise KeyError(f"no control channel for s{dpid}")
        self.counters["ctrl_sent"] += 1
        if dpid not in self.connected:
            self.counters["ctrl_dropped"] += 1
            self.engine.record("ctrl_dropped", msg=msg.kind.value, reason="channel_closed",
                               switch=f"s{dpid}")
            return
        gen = self.channel_generation[dpid]
        delay = chan.delay_to_controller if direction == "to_controller" else chan.delay_from_controller

        def arrive():
            if dpid not in self.connected or self.channel_generation[dpid] != gen:
                self.counters["ctrl_dropped"] += 1
                self.engine.record("ctrl_dropped", msg=msg.kind.value,
                                   reason="channel_closed_in_flight", switch=f"s{dpid}")
                return
            self.counters["ctrl_delivered"] += 1
            self.engine.record("ctrl_delivered", msg=msg.kind.value,
                               src=str(msg.src), dst=str(msg.dst))
            if direction == "to_controller":
                self.deliver_to_controller(msg)
            else:
                self.deliver_to_switch(msg)

        self.engine.schedule(delay, f"ctrl:{msg.kind.value}", arrive)

    def send_frame(self, egress: PortRef, frame: LldpFrame) -> None:
        """Emit a frame out a switch port.  Host-facing ports hand it to the
        attached host's observers; linked ports cross the link unless it is
        (or goes) down."""
        self.counters["frames_sent"] += 1
        st = self.port_link.get(egress)
        if st is None:
            self.counters["frames_to_hosts"] += 1
            self.engine.record("frame_at_host", port=str(egress),
                               nonce=getattr(frame, "nonce", b"").hex())
            if self.host_frame_hook is not None:
                self.host_frame_hook(egress, frame)
            return
        if not st.alive:
            self.counters["frames_dropped"] += 1
            self.engine.record("frame_dropped", reason="link_down_at_send", port=str(egress))
            return
        gen = st.generation
        peer = st.peer(egress)

        def arrive():
            if not st.alive or st.generation != gen:
                self.counters["frames_dropped"] += 1
                self.engine.record("frame_dropped", reason="link_died_in_flight",
                                   link=str(st.spec))
                return
            self.counters["frames_delivered"] += 1
            self.frame_arrival(peer, frame)

        self.engine.schedule(st.delay_from(egress), "frame", arrive)

    def inject_frame(self, ingress: PortRef, frame: LldpFrame) -> None:
        """Adversarial injection: a host pushes a frame into the switch port
        it is attached to (no link traversal)."""
        self.counters["frames_injected"] += 1
        self.frame_arrival(ingress, frame)
