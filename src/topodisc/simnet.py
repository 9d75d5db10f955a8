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
nothing.  ``Trace.records`` builds, on each access, a new list of
immutable ``(ts, kind, detail)`` tuples with named fields
(``TraceRecord``s).  A detail is read-only: records of one kind with
equal payloads of str, int, bool and None values may hold one and the
same dict, which the digest and the ndjson export encode once.  A
record looks its detail up by kind, keys and values; a detail with an
int or bool value is then told apart by its value types, and one with a
float value is not shared.  Nor is any detail of a kind that has
carried a list, which is not looked up.

An event is its own heap entry, a ``SimEvent``: the list ``[fire_at,
seq, action, kind]``, which heapq orders by (fire_at, seq) alone, as
seqs are unique.  ``cancel()`` drops the action, and an entry without
one does not fire.  A series is one entry that goes back on the heap,
moved to its next instant, each time it fires.  Every event but a
series' own, frames and control messages included, is queued through
``Engine.schedule_at``, so one wrapper around it sees them.
"""
from __future__ import annotations

import hashlib
import heapq
import json
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import islice, repeat
from typing import Callable, Iterator, NamedTuple

from .core import (
    CONTROLLER,
    MAX_TIME,
    ControlMessage,
    Link,
    LldpFrame,
    MsgKind,
    PortRef,
    ScenarioSpec,
    SimTime,
    SWITCH_ONLY,
    link_key,
)


# ---------------------------------------------------------------------------
# engine

def _encoder(**options) -> Callable[[object], str]:
    """``json.JSONEncoder(**options).encode``, with json.dumps's defaults
    otherwise, as one C encoder built once: ``encode`` builds a fresh one,
    with a markers dict and a float formatter, on every call.  It skips
    the circular-reference check, which a record's primitives and lists
    of them never need, and gives the same text."""
    make = json.encoder.c_make_encoder
    if make is None:
        raise ImportError("topodisc needs the C accelerator of the json module")
    encoder = json.JSONEncoder(**options)
    encode = make(None, encoder.default, json.encoder.encode_basestring_ascii,
                  None, encoder.key_separator, encoder.item_separator,
                  encoder.sort_keys, encoder.skipkeys, encoder.allow_nan)
    return lambda obj: "".join(encode(obj, 0))


# One encoder for every record's detail, and one for an ndjson row: the
# record's ts and kind beside its detail's keys.
_payload_json = _encoder(separators=(",", ":"))
_ndjson_row = _encoder(sort_keys=True)

# The value types whose equal values always encode alike (1 == True and
# 0.0 == -0.0 differ in type or encoding), and that can be dict keys.
_SHAREABLE = frozenset({str, int, bool, type(None)})
# The value types no value of another type equals: a detail of these
# alone is shared by its kind, keys and values, without their types.
_EXACT = frozenset({str, type(None)})

# Per wire name of a message kind: the kind of its delivery event.
_CTRL_EVENT_KINDS = {kind.value: f"ctrl:{kind.value}" for kind in MsgKind}

# Rows hashed per sha256 update in Trace.digest: enough to spread the
# cost of a call, and few enough that a batch's text stays small (4,096
# rows held about 0.7 MB more at the peak of a seed-7 churn digest).
_DIGEST_BATCH = 512


class SimEvent(list):
    """A pending event as its heap entry, ``[fire_at, seq, action, kind]``.
    Cancelling it drops the action, and whatever the action holds, at
    once; an entry without an action does not fire."""

    __slots__ = ()

    def cancel(self) -> None:
        self[2] = None

    @property
    def cancelled(self) -> bool:
        return self[2] is None


def _closed() -> None:
    """The action of an event that was pending when its engine closed."""


class TraceRecord(NamedTuple):
    ts: SimTime
    kind: str
    detail: dict  # primitive values; keys sorted, as the digest and report.json expect

    def payload_json(self) -> str:
        return _payload_json(self.detail)


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
        # kind -> whether it has carried a list value, so that its
        # details are not shared
        self._unshared: dict[str, bool] = {}

    @property
    def records(self) -> list[TraceRecord]:
        """A new list of the records so far, in record order, each built
        in C without the NamedTuple's Python-level ``__new__``."""
        return list(map(tuple.__new__, repeat(TraceRecord),
                        zip(self._ts, self._kinds, self._details)))

    @property
    def columns(self) -> tuple[array, list[str], list[dict]]:
        """The three columns, ts, kind and detail, one row per record in
        record order; for reading only."""
        return self._ts, self._kinds, self._details

    def record(self, ts: SimTime, kind: str, **detail) -> None:
        """Writers pass JSON primitives (str, int, float, bool, None and
        lists of them); the record keeps them as given, keys sorted.  The
        detail is read-only: records of one kind whose values are all
        str, int, bool or None and equal in type and value get one dict,
        unless the kind has carried a list.  A kind whose first record
        carries a list, as the group records do, is never looked up; one
        that carries a list later is not looked up from then on."""
        unshared = self._unshared.get(kind)
        if unshared is None:
            unshared = self._unshared[kind] = list in map(type, detail.values())
        if unshared:
            payload = dict(sorted(detail.items()))
        else:
            values = detail.values()
            key = (kind, *detail, *values)
            try:
                payload = self._shared.get(key)
            except TypeError:           # a list value
                self._unshared[kind] = True
                payload = dict(sorted(detail.items()))
            else:
                if payload is None:
                    payload = self._share(key, detail)
        self._ts.append(ts)
        self._kinds.append(kind)
        self._details.append(payload)

    def _share(self, key: tuple, detail: dict) -> dict:
        """The detail of a record whose kind, keys and values (``key``)
        found no shared detail: the one shared under its value types
        too, else a new one, shared from then on under the writer's key
        order and under sorted order if its value types allow it."""
        types = tuple(map(type, detail.values()))
        if not _SHAREABLE.issuperset(types):
            return dict(sorted(detail.items()))
        typed = not _EXACT.issuperset(types)
        if typed:
            # 1 == True, yet they encode apart: keyed by type as well
            key = (*key, *types)
            payload = self._shared.get(key)
            if payload is not None:
                return payload
        payload = dict(sorted(detail.items()))
        values = payload.values()
        payload = self._shared.setdefault(
            (key[0], *payload, *values, *(map(type, values) if typed else ())),
            payload)
        self._shared[key] = payload
        return payload

    def _shared_ids(self) -> set[int]:
        return {id(d) for d in self._shared.values()}

    def digest(self) -> str:
        """sha256 over one line per record, ``<ts> <kind> <detail hash>``,
        the detail hash being the first 12 hex digits of the sha256 of
        the record's ``payload_json``.  Hashed in batches of lines, a
        shared detail once per call (it has one kind)."""
        h = hashlib.sha256()
        shared, tails = self._shared_ids(), {}
        rows = zip(self._ts, self._kinds, self._details)
        while True:
            lines = []
            for ts, kind, detail in islice(rows, _DIGEST_BATCH):
                tail = tails.get(id(detail))
                if tail is None:
                    detail_hash = hashlib.sha256(
                        _payload_json(detail).encode()).hexdigest()[:12]
                    tail = f" {kind} {detail_hash}\n"
                    if id(detail) in shared:
                        tails[id(detail)] = tail
                lines.append(f"{ts}{tail}")
            if not lines:
                return h.hexdigest()
            h.update("".join(lines).encode())

    def ndjson_rows(self) -> Iterator[str]:
        """Yield each record as one JSON object with its ``ts``, ``kind``
        and detail keys sorted, newline included.  A shared detail (it has
        one kind) is encoded once per call, as the text before and after
        its ts: ``record()`` cannot write a ``ts`` or ``kind`` key."""
        shared, parts = self._shared_ids(), {}
        for ts, kind, detail in zip(self._ts, self._kinds, self._details):
            part = parts.get(id(detail))
            if part is None:
                if id(detail) not in shared:
                    yield _ndjson_row({"ts": ts, "kind": kind, **detail}) + "\n"
                    continue
                row = _ndjson_row({"ts": 0, "kind": kind, **detail})
                at = row.index('"ts": 0') + len('"ts": ')
                part = parts[id(detail)] = (row[:at], row[at + 1:] + "\n")
            yield part[0] + str(ts) + part[1]


class Engine:
    """Event queue + clock + trace.  schedule() refuses events in the past;
    cancelled events never fire; a closed engine never runs again."""

    def __init__(self) -> None:
        self.now: SimTime = 0
        self.trace = Trace()
        self._heap: list[SimEvent] = []
        self._seq = 0
        self.fired = 0
        self.closed = False

    def schedule_at(self, at: SimTime, kind: str, action: Callable[[], None]) -> SimEvent:
        if at < self.now:
            raise ValueError(f"cannot schedule {kind!r} at {at} before now={self.now}")
        seq = self._seq
        self._seq = seq + 1
        ev = SimEvent((at, seq, action, kind))
        heapq.heappush(self._heap, ev)
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
        It is one pending event: when event k fires, its entry goes back
        on the heap as event k + 1, so a long series costs no heap or
        memory up front."""
        if min(delay, spacing, count) < 0:
            raise ValueError(f"negative delay, spacing or count for {kind!r}")
        first = self._seq
        self._seq += count
        if count == 0:
            return
        heap = self._heap
        entry = SimEvent((self.now + delay, first, None, kind))

        def fire() -> None:
            k = entry[1] - first
            if k + 1 < count:
                entry[0] += spacing
                entry[1] += 1
                heapq.heappush(heap, entry)
            else:
                # the last event lets go of the entry it refers to
                entry[2] = None
            action(k)

        entry[2] = fire
        heapq.heappush(heap, entry)

    def record(self, kind: str, **detail) -> None:
        self.trace.record(self.now, kind, **detail)

    def close(self) -> None:
        """Drop every pending event unfired, with its action, so no
        closure the run scheduled outlives it.  The clock, the trace and
        the fired count stay readable, as does whether an event was
        cancelled; running again raises RuntimeError."""
        for ev in self._heap:
            if ev[2] is not None:
                ev[2] = _closed
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
            at, _, action, _ = pop(heap)
            if action is None:
                continue
            self.now = at
            self.fired += 1
            action()
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
        # each switch's dpid as the text control message records write
        self._dpid_text = {dpid: str(dpid) for dpid in self.channels}
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
        kind, src, dst, _ = msg
        name = kind._value_   # the plain attribute behind .value
        to_controller = src != CONTROLLER
        if to_controller:
            dpid = src
        else:
            dpid = dst
            if name in SWITCH_ONLY:
                raise ValueError(f"{kind} cannot originate at the controller")
        chan = self.channels.get(dpid)
        if chan is None:
            raise KeyError(f"no control channel for s{dpid}")
        counters = self.counters
        counters["ctrl_sent"] += 1
        if dpid not in self.connected:
            counters["ctrl_dropped"] += 1
            self.engine.record("ctrl_dropped", msg=name, reason="channel_closed",
                               switch=f"s{dpid}")
            return
        if to_controller:
            delay = chan.delay_to_controller
        else:
            delay = chan.delay_from_controller
        engine = self.engine
        # a partial of the plain function, not a closure or a bound method:
        # two objects for the collector to track per message, not eleven
        engine.schedule_at(engine.now + delay, _CTRL_EVENT_KINDS[name], partial(
            Fabric._control_arrives, self, msg, dpid, self.channel_generation[dpid]))

    def _control_arrives(self, msg: ControlMessage, dpid: int, gen: int) -> None:
        """Deliver a control message sent on channel generation ``gen`` of
        switch ``dpid``, unless that channel closed since."""
        kind, src, _, _ = msg
        name = kind._value_
        if dpid not in self.connected or self.channel_generation[dpid] != gen:
            self.counters["ctrl_dropped"] += 1
            self.engine.record("ctrl_dropped", msg=name,
                               reason="channel_closed_in_flight", switch=f"s{dpid}")
            return
        self.counters["ctrl_delivered"] += 1
        if src != CONTROLLER:
            self.engine.record("ctrl_delivered", msg=name,
                               src=self._dpid_text[dpid], dst=CONTROLLER)
            self.deliver_to_controller(msg)
        else:
            self.engine.record("ctrl_delivered", msg=name,
                               src=CONTROLLER, dst=self._dpid_text[dpid])
            self.deliver_to_switch(msg)

    def send_frame(self, egress: PortRef, frame: LldpFrame) -> None:
        """Emit a frame out a switch port.  Host-facing ports hand it to the
        attached host's observers; linked ports cross the link unless it is
        (or goes) down."""
        counters = self.counters
        counters["frames_sent"] += 1
        st = self.port_link.get(egress)
        if st is None:
            counters["frames_to_hosts"] += 1
            self.engine.record("frame_at_host", port=str(egress),
                               nonce=getattr(frame, "nonce", b"").hex())
            self.host_frame_hook(egress, frame)
            return
        if not st.alive:
            counters["frames_dropped"] += 1
            self.engine.record("frame_dropped", reason="link_down_at_send", port=str(egress))
            return
        link = st.spec
        if egress == link.a:
            peer, delay = link.b, link.delay_ab
        else:
            peer, delay = link.a, link.delay_ba
        engine = self.engine
        engine.schedule_at(engine.now + delay, "frame", partial(
            Fabric._frame_arrives, self, st, st.generation, peer, frame))

    def _frame_arrives(self, st: LinkState, gen: int, peer: PortRef,
                       frame: LldpFrame) -> None:
        """Hand a frame to ``peer`` unless its link, ``st``, went down
        since it was sent in generation ``gen``."""
        if not st.alive or st.generation != gen:
            self.counters["frames_dropped"] += 1
            self.engine.record("frame_dropped", reason="link_died_in_flight",
                               link=str(st.spec))
            return
        self.counters["frames_delivered"] += 1
        self.frame_arrival(peer, frame)

    def inject_frame(self, ingress: PortRef, frame: LldpFrame) -> None:
        """Adversarial injection: a host pushes a frame into the switch port
        it is attached to (no link traversal)."""
        self.counters["frames_injected"] += 1
        self.frame_arrival(ingress, frame)
