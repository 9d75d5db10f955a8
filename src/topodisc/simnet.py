"""Discrete-event engine and physical fabric.

The engine fires events in (fire_at, insertion seq) order on an integer
nanosecond clock (a series reserves the seqs of all its events when it is
scheduled), so two runs of the same scenario produce byte-identical
traces.  The fabric moves frames across links and control messages across
per-switch channels; frames in flight on a link that dies before arrival
are dropped and counted, never silently lost.

A trace keeps its records in three columns: the ts of each in an
``array('q')``, its kind and its detail dict in two lists, so a record
costs no object of its own.  ``Trace.record`` appends to them and returns
nothing.  ``Trace.records`` is a read-only sequence view over the
columns that builds an immutable ``(ts, kind, detail)`` tuple with named
fields (a ``TraceRecord``) on each access.  A detail is read-only:
records of one kind with equal payloads of str, int, bool and None values
may hold one and the same dict, which the digest and the ndjson export
encode once.

Every event but a series' own, frames and control messages included, is
queued through ``Engine.schedule_at``, so one wrapper around it sees them.
"""
from __future__ import annotations

import hashlib
import heapq
import json
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, Iterator, NamedTuple, Optional

from .core import (
    CONTROLLER,
    MAX_TIME,
    ControlMessage,
    Link,
    LldpFrame,
    PortRef,
    ScenarioSpec,
    SimTime,
    SWITCH_ONLY,
    link_key,
)


# ---------------------------------------------------------------------------
# engine

# One encoder for every record, with json.dumps's defaults otherwise;
# json.dumps builds a fresh encoder for each call with non-default args.
_payload_json = json.JSONEncoder(separators=(",", ":")).encode
# An ndjson row: the record's ts and kind beside its detail's keys.
_ndjson_row = json.JSONEncoder(sort_keys=True).encode

# The value types whose equal values always encode alike (1 == True and
# 0.0 == -0.0 differ in type or encoding), and that can be dict keys.
_SHAREABLE = frozenset({str, int, bool, type(None)})


@dataclass(slots=True)
class SimEvent:
    fire_at: SimTime
    seq: int
    kind: str
    action: Optional[Callable[[], None]]
    cancelled: bool = False

    def cancel(self) -> None:
        """The event will not fire, so it lets go of its action, and of
        whatever the action holds, at once."""
        self.cancelled = True
        self.action = None


class TraceRecord(NamedTuple):
    ts: SimTime
    kind: str
    detail: dict  # primitive values; keys sorted, as the digest and report.json expect

    def payload_json(self) -> str:
        return _payload_json(self.detail)


def _as_records(ts, kinds, details) -> Iterator[TraceRecord]:
    """The rows of three columns as records, each built in C from its
    ``(ts, kind, detail)`` tuple, without the NamedTuple's Python-level
    ``__new__``."""
    return map(tuple.__new__, repeat(TraceRecord), zip(ts, kinds, details))


class TraceRecords(Sequence):
    """A read-only view of a trace's records, in record order: ``len``,
    index, slice and iteration build each ``TraceRecord`` on access.  It
    holds the trace's columns, not the trace, and sees later records."""

    __slots__ = ("_ts", "_kinds", "_details")

    def __init__(self, ts: array, kinds: list, details: list) -> None:
        self._ts, self._kinds, self._details = ts, kinds, details

    def __len__(self) -> int:
        return len(self._ts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(_as_records(self._ts[i], self._kinds[i], self._details[i]))
        return tuple.__new__(TraceRecord, (self._ts[i], self._kinds[i], self._details[i]))

    def __iter__(self) -> Iterator[TraceRecord]:
        return _as_records(self._ts, self._kinds, self._details)


class Trace:
    """Append-only event log with a run digest over its ordered lines."""

    def __init__(self) -> None:
        # one row per record: ts (ns, up to MAX_TIME), kind, detail
        self._ts = array("q")
        self._kinds: list[str] = []
        self._details: list[dict] = []
        # (kind, keys, values, value types), in the writer's key order and
        # in sorted order -> the one detail dict of that payload
        self._shared: dict[tuple, dict] = {}

    @property
    def records(self) -> TraceRecords:
        # built per access: a view stored on the trace would hold it in a
        # reference cycle
        return TraceRecords(self._ts, self._kinds, self._details)

    @property
    def columns(self) -> tuple[array, list[str], list[dict]]:
        """The three columns, ts, kind and detail, one row per record in
        record order; for reading only."""
        return self._ts, self._kinds, self._details

    def record(self, ts: SimTime, kind: str, **detail) -> None:
        """Writers pass JSON primitives (str, int, float, bool, None and
        lists of them); the record keeps them as given, keys sorted.  The
        detail is read-only: records of this kind whose values are all
        str, int, bool or None and equal in type and value get one dict."""
        values = detail.values()
        types = tuple(map(type, values))
        if _SHAREABLE.issuperset(types):
            key = (kind, *detail, *values, *types)
            payload = self._shared.get(key)
            if payload is None:
                payload = dict(sorted(detail.items()))
                values = payload.values()
                payload = self._shared.setdefault(
                    (kind, *payload, *values, *map(type, values)), payload)
                self._shared[key] = payload
        else:
            payload = dict(sorted(detail.items()))
        self._ts.append(ts)
        self._kinds.append(kind)
        self._details.append(payload)

    def _shared_ids(self) -> set[int]:
        return {id(d) for d in self._shared.values()}

    def digest(self) -> str:
        """sha256 over one line per record, ``<ts> <kind> <detail hash>``,
        the detail hash being the first 12 hex digits of the sha256 of
        the record's ``payload_json``.  Hashed record by record, a shared
        detail once per call."""
        h = hashlib.sha256()
        shared, hashes = self._shared_ids(), {}
        for ts, kind, detail in zip(self._ts, self._kinds, self._details):
            detail_hash = hashes.get(id(detail))
            if detail_hash is None:
                detail_hash = hashlib.sha256(
                    _payload_json(detail).encode()).hexdigest()[:12]
                if id(detail) in shared:
                    hashes[id(detail)] = detail_hash
            h.update(f"{ts} {kind} {detail_hash}\n".encode())
        return h.hexdigest()

    def ndjson_rows(self) -> Iterator[str]:
        """Yield each record as one JSON object with its ``ts``, ``kind``
        and detail keys sorted, newline included.  A shared detail is
        encoded once per kind and call, as the text before and after its
        ts: ``record()`` cannot write a ``ts`` or ``kind`` key."""
        shared, parts = self._shared_ids(), {}
        for ts, kind, detail in zip(self._ts, self._kinds, self._details):
            key = (kind, id(detail))
            part = parts.get(key)
            if part is None:
                if key[1] not in shared:
                    yield _ndjson_row({"ts": ts, "kind": kind, **detail}) + "\n"
                    continue
                row = _ndjson_row({"ts": 0, "kind": kind, **detail})
                at = row.index('"ts": 0') + len('"ts": ')
                part = parts[key] = (row[:at], row[at + 1:] + "\n")
            yield part[0] + str(ts) + part[1]


class Engine:
    """Event queue + clock + trace.  schedule() refuses events in the past;
    cancelled events never fire; a closed engine never runs again."""

    def __init__(self) -> None:
        self.now: SimTime = 0
        self.trace = Trace()
        self._heap: list[tuple[SimTime, int, SimEvent]] = []
        self._seq = 0
        self.fired = 0
        self.closed = False

    def _push(self, at: SimTime, seq: int, kind: str,
              action: Callable[[], None]) -> SimEvent:
        ev = SimEvent(at, seq, kind, action)
        heapq.heappush(self._heap, (at, seq, ev))
        return ev

    def schedule_at(self, at: SimTime, kind: str, action: Callable[[], None]) -> SimEvent:
        if at < self.now:
            raise ValueError(f"cannot schedule {kind!r} at {at} before now={self.now}")
        seq = self._seq
        self._seq = seq + 1
        ev = SimEvent(at, seq, kind, action)
        heapq.heappush(self._heap, (at, seq, ev))
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
        if count > 0:
            self._push(start, first, kind, partial(
                self._fire_series, (start, first, spacing, count, kind, action), 0))

    def _fire_series(self, series: tuple, k: int) -> None:
        # A method, not a closure that names itself: the series is then
        # referenced only by its one pending event.
        start, first, spacing, count, kind, action = series
        if k + 1 < count:
            self._push(start + (k + 1) * spacing, first + k + 1, kind,
                       partial(self._fire_series, series, k + 1))
        action(k)

    def record(self, kind: str, **detail) -> None:
        self.trace.record(self.now, kind, **detail)

    def close(self) -> None:
        """Drop every pending event unfired, with its action, so no
        closure the run scheduled outlives it.  The clock, the trace and
        the fired count stay readable; running again raises RuntimeError."""
        for _, _, ev in self._heap:
            ev.action = None
        self._heap.clear()
        self.closed = True

    def run_until(self, t: SimTime) -> None:
        """Fire every event with fire_at <= t (including ones scheduled
        while running), then set the clock to t, which is at most
        MAX_TIME."""
        if self.closed:
            raise RuntimeError("the engine is closed")
        if t < self.now:
            raise ValueError(f"cannot run backwards to {t} from {self.now}")
        if t > MAX_TIME:
            raise ValueError(f"cannot run to {t}, above MAX_TIME={MAX_TIME}")
        heap, pop = self._heap, heapq.heappop
        while heap and heap[0][0] <= t:
            at, _, ev = pop(heap)
            if ev.cancelled:
                continue
            self.now = at
            self.fired += 1
            ev.action()
        self.now = t


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


def _ignore(*args) -> None:
    """The callback of a fabric that nothing is attached to."""


class Fabric:
    """Physical topology state and transport.

    Protocol logic is injected through callbacks so the fabric stays
    protocol-agnostic:

      deliver_to_switch(msg)        control message reached a switch
      deliver_to_controller(msg)    control message reached the controller
      frame_arrival(port, frame)    frame reached a switch port (ingress)
      link_flag_change(port, up)    carrier changed on a switch port
      host_frame_hook(port, frame)  frame left a host-facing port

    ``detach()`` puts every callback back to a no-op.
    """

    def __init__(self, engine: Engine, spec: ScenarioSpec) -> None:
        self.engine = engine
        self.spec = spec
        alive = spec.initially_alive()
        self.links: dict[tuple, LinkState] = {
            l.key(): LinkState(l, alive=l.key() in alive) for l in spec.links
        }
        self.port_link: dict[PortRef, LinkState] = {}
        for st in self.links.values():
            self.port_link[st.spec.a] = st
            self.port_link[st.spec.b] = st
        self.channels = {ch.dpid: ch for ch in spec.control_channels}
        self.connected: set[int] = set()
        self.channel_generation: Counter = Counter()
        self.counters: Counter = Counter()
        self.detach()

    def detach(self) -> None:
        """Point every callback at a no-op, letting go of the protocol
        logic attached through them."""
        self.deliver_to_switch: Callable[[ControlMessage], None] = _ignore
        self.deliver_to_controller: Callable[[ControlMessage], None] = _ignore
        self.frame_arrival: Callable[[PortRef, LldpFrame], None] = _ignore
        self.link_flag_change: Callable[[PortRef, bool], None] = _ignore
        self.host_frame_hook: Callable[[PortRef, LldpFrame], None] = _ignore

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
        name = msg.kind._value_   # the plain attribute behind .value
        src, dst = msg.src, msg.dst
        to_controller = src != CONTROLLER
        if to_controller:
            dpid = src
        else:
            dpid = dst
            if name in SWITCH_ONLY:
                raise ValueError(f"{msg.kind} cannot originate at the controller")
        chan = self.channels.get(dpid)
        if chan is None:
            raise KeyError(f"no control channel for s{dpid}")
        self.counters["ctrl_sent"] += 1
        if dpid not in self.connected:
            self.counters["ctrl_dropped"] += 1
            self.engine.record("ctrl_dropped", msg=name, reason="channel_closed",
                               switch=f"s{dpid}")
            return
        gen = self.channel_generation[dpid]
        delay = chan.delay_to_controller if to_controller else chan.delay_from_controller

        def arrive():
            if dpid not in self.connected or self.channel_generation[dpid] != gen:
                self.counters["ctrl_dropped"] += 1
                self.engine.record("ctrl_dropped", msg=name,
                                   reason="channel_closed_in_flight", switch=f"s{dpid}")
                return
            self.counters["ctrl_delivered"] += 1
            self.engine.record("ctrl_delivered", msg=name, src=str(src), dst=str(dst))
            if to_controller:
                self.deliver_to_controller(msg)
            else:
                self.deliver_to_switch(msg)

        self.engine.schedule(delay, f"ctrl:{name}", arrive)

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
