"""Discrete-event engine and physical fabric.

The engine fires events in (fire_at, insertion seq) order on an integer
nanosecond clock (a series reserves the seqs of all its events when it is
scheduled), so two runs of the same scenario produce byte-identical
traces.  The fabric moves frames across links and control messages across
per-switch channels; frames in flight on a link that dies before arrival
are dropped and counted, never silently lost.

A trace keeps its records in three columns: the ts of each in an
``array('q')``, its kind and its detail in two lists, so a record costs
no object of its own.  ``Trace.record`` appends to them and returns
nothing.  ``Trace.records`` builds, on each access, a new list of
immutable ``(ts, kind, detail)`` tuples with named fields
(``TraceRecord``s).  A detail is read-only: records of one kind with
equal payloads of str, int, bool and None values may hold one and the
same dict, which the digest and the ndjson export encode once.  A
record looks its detail up by kind, keys and values; a detail with an
int or bool value is then told apart by its value types, and one with a
float value is not shared.  Nor is any detail of a kind that has
carried a list, which is not looked up.  A kind laid out by its keys
(``Trace.layout``) writes rows whose detail is a tuple of its values in
key order, no dict; the export fills them into its layout's template,
and ``Trace.records`` reads each as a dict with its tuples as lists.

An event is its own heap entry, a ``SimEvent``: the list ``[fire_at,
seq, action, kind]``, which heapq orders by (fire_at, seq) alone, as
seqs are unique.  ``cancel()`` drops the action, and an entry without
one does not fire.  A series, such as a run's timeline or a flood's
frames, is one entry that goes back on the heap, moved to its next
instant, each time it fires.  Every pending entry, a series' included,
and frames and control messages too, is queued through
``Engine.schedule_at``, so one wrapper around it sees every event fire.
"""
from __future__ import annotations

import hashlib
import heapq
import json
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from functools import partial
from itertools import islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

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

# Per message kind, each the name of its MsgKind constant: the kind of
# its delivery event.
_CTRL_EVENT_KINDS = {kind: f"ctrl:{kind}" for kind in vars(MsgKind) if kind.isupper()}

# Rows per chunk of Trace.digest and Trace.ndjson_chunks text: enough to
# spread the cost of a call, and few enough that a chunk stays small (4,096
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


def _spent() -> None:
    """The action left on an event that will not fire again: the last
    event of a series, once fired, and every event that was pending when
    its engine closed."""


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
        # kind -> the sorted keys of its laid-out rows' detail tuples
        self._layouts: dict[str, tuple[str, ...]] = {}

    @property
    def records(self) -> list[TraceRecord]:
        """A new list of the records so far, in record order, each built
        in C without the NamedTuple's Python-level ``__new__``; a laid-out
        row's detail is a new dict of its keys, a tuple value as a list."""
        details = self._details
        if self._layouts:
            details = [self._as_dict(kind, detail) if detail.__class__ is tuple
                       else detail for kind, detail in zip(self._kinds, details)]
        return list(map(tuple.__new__, repeat(TraceRecord),
                        zip(self._ts, self._kinds, details)))

    def _as_dict(self, kind: str, values: tuple) -> dict:
        return {key: list(value) if value.__class__ is tuple else value
                for key, value in zip(self._layouts[kind], values)}

    @property
    def columns(self) -> tuple[array, list[str], list]:
        """The three columns, ts, kind and detail, one row per record in
        record order; for reading only.  A laid-out row's detail is its
        tuple of values."""
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

    def shared(self, kind: str, **detail) -> tuple[str, dict]:
        """The row ``(kind, detail)`` to ``append`` again and again, its
        detail the dict ``record()`` shares for these values; ValueError
        for values ``record()`` would not share."""
        if self._unshared.get(kind) or not _SHAREABLE.issuperset(map(type, detail.values())):
            raise ValueError(f"a {kind!r} record with {detail} is not shared")
        return kind, self._share((kind, *detail, *detail.values()), detail)

    def layout(self, kind: str, *keys: str) -> None:
        """Lay out ``kind``'s rows by ``keys``, which are sorted: a row
        ``(kind, values)`` for ``append`` whose detail is the tuple of its
        values in that order, each a str, int, bool or None, or a tuple
        of those, which reads as a list; never a float, which the export
        refuses.  Laying a kind out again by the same keys does nothing;
        by others, or by ``ts`` or ``kind``, it raises ValueError."""
        known = self._layouts.get(kind)
        if known == keys:
            return
        if (known is not None or list(keys) != sorted(set(keys))
                or {"ts", "kind"} & set(keys)):
            raise ValueError(f"{kind!r} rows cannot be laid out by {keys}")
        self._layouts[kind] = keys

    def append(self, ts: SimTime, row: tuple) -> None:
        """Write a row: a ``shared()`` row, or a laid-out one (``layout``);
        a pair, as a shared detail has one kind."""
        kind, detail = row
        self._ts.append(ts)
        self._kinds.append(kind)
        self._details.append(detail)

    def _shared_texts(self, text: Callable[[str, dict], object]) -> dict:
        """id of each shared detail -> ``text(kind, detail)``, made once
        per export and per detail, which is shared under several keys."""
        details = {id(detail): (key[0], detail) for key, detail in self._shared.items()}
        return {ident: text(kind, detail) for ident, (kind, detail) in details.items()}

    def digest(self) -> str:
        """sha256 over one line per record, ``<ts> <kind> <detail hash>``,
        the detail hash being the first 12 hex digits of the sha256 of
        the record's ``payload_json``.  A shared detail's line after its
        ts is made once; a laid-out row's payload comes from its layout's
        template."""
        get = self._shared_texts(
            lambda kind, detail: f" {kind} {_detail_hash(_payload_json(detail))}\n").get
        text = _ValueTexts(_payload_json).__getitem__
        forms = {kind: _digest_form(kind, keys, text)
                 for kind, keys in self._layouts.items()}
        h = hashlib.sha256()
        rows = zip(self._ts, self._kinds, self._details)
        while chunk := [f"{ts}{tail}" if (tail := get(id(detail)))
                        else forms[kind](ts, detail) if detail.__class__ is tuple
                        else f"{ts} {kind} {_detail_hash(_payload_json(detail))}\n"
                        for ts, kind, detail in islice(rows, _DIGEST_BATCH)]:
            h.update("".join(chunk).encode())
        return h.hexdigest()

    def ndjson_chunks(self) -> Iterator[str]:
        """The records as ndjson text in chunks of ``_DIGEST_BATCH`` rows:
        one JSON object each, ``ts``, ``kind`` and detail keys sorted,
        newline included (``record()`` cannot write a ``ts`` or ``kind``
        key, nor can a layout hold one).  A shared detail's text before
        and after its ts is made once; a laid-out row comes from its
        layout's template."""
        def split(kind: str, detail: dict) -> tuple[str, str]:
            row = _ndjson_row({"ts": 0, "kind": kind, **detail})
            at = row.index('"ts": 0') + len('"ts": ')
            return row[:at], row[at + 1:] + "\n"

        get = self._shared_texts(split).get
        text = _ValueTexts(_ndjson_row).__getitem__
        forms = {kind: _ndjson_form(kind, keys, text)
                 for kind, keys in self._layouts.items()}
        rows = zip(self._ts, self._kinds, self._details)
        while chunk := [f"{part[0]}{ts}{part[1]}" if (part := get(id(detail)))
                        else forms[kind](ts, detail) if detail.__class__ is tuple
                        else _ndjson_row({"ts": ts, "kind": kind, **detail}) + "\n"
                        for ts, kind, detail in islice(rows, _DIGEST_BATCH)]:
            yield "".join(chunk)


def _detail_hash(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


class _ValueTexts(dict):
    """A laid-out row's value -> its JSON text as ``encode`` writes it,
    kept for the values that no other value a row may hold equals: strs,
    tuples of strs, None, and ints but 0 and 1, which equal False and
    True.  A row holds no float, as an integral one would find the text
    of the int it equals; the forms refuse one."""

    def __init__(self, encode: Callable[[object], str]) -> None:
        super().__init__()
        self.encode = encode

    def __missing__(self, value) -> str:
        text = self.encode(value)
        cls = value.__class__
        if (cls is str or value is None or (cls is int and not 0 <= value <= 1)
                or (cls is tuple and all(v.__class__ is str for v in value))):
            self[value] = text
        return text


def _template_key(key: str) -> str:
    """A detail key as JSON text, escaped for a %-template."""
    return json.encoder.encode_basestring_ascii(key).replace("%", "%%")


def _digest_form(kind: str, keys: tuple[str, ...],
                 text: Callable[[object], str]) -> Callable[[SimTime, tuple], str]:
    """A laid-out row's digest line, from the template of its payload:
    its keys in order, compact, as ``_payload_json`` writes a dict."""
    template = "{%s}" % ",".join(f"{_template_key(key)}:%s" for key in keys)
    head = f" {kind} "

    def form(ts: SimTime, values: tuple) -> str:
        if float in map(type, values):
            raise TypeError(f"a laid-out row holds a float: {values}")
        return f"{ts}{head}{_detail_hash(template % tuple(map(text, values)))}\n"
    return form


def _ndjson_form(kind: str, keys: tuple[str, ...],
                 text: Callable[[object], str]) -> Callable[[SimTime, tuple], str]:
    """A laid-out row's ndjson line, from a template of its keys and
    ``kind`` and ``ts`` in sorted order, spaced as ``_ndjson_row``
    writes them."""
    slots = {key: f"{_template_key(key)}: %s" for key in keys}
    slots["kind"] = '"kind": ' + _template_key(kind)
    slots["ts"] = '"ts": %d'
    template = "{%s}\n" % ", ".join(slots[key] for key in sorted(slots))
    cut = sum(key < "ts" for key in keys)      # the values before ts
    last = cut == len(keys)

    def form(ts: SimTime, values: tuple) -> str:
        if float in map(type, values):
            raise TypeError(f"a laid-out row holds a float: {values}")
        if last:
            return template % (*map(text, values), ts)
        texts = tuple(map(text, values))
        return template % (*texts[:cut], ts, *texts[cut:])
    return form


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

    def schedule_series(self, instants: Iterable[SimTime], count: int,
                        kind: str, action: Callable[[int], None]) -> Optional[SimEvent]:
        """Call ``action(k)`` at the k-th of ``instants`` for each k < count.

        The instants never decrease.  They are drawn one at a time as the
        series goes, so a timeline's own instants serve, and so does
        ``itertools.count(start, spacing)`` for evenly spaced ones, with
        spacing 0 too.  The series fires exactly as ``count``
        schedule_at() calls made now would, because it reserves their
        ``count`` consecutive seqs now.  It is one pending event, queued
        through one ``schedule_at`` call: when event k fires, its entry
        goes back on the heap as event k + 1, so a long series costs no
        heap or memory up front.  Returns that entry, None for count 0;
        cancelling it drops the events still to come, and a finished
        series does not read as cancelled."""
        if count < 0:
            raise ValueError(f"negative count for {kind!r}")
        if count == 0:
            return None
        instants = iter(instants)
        first = self._seq
        heap, push, last = self._heap, heapq.heappush, first + count - 1

        def fire() -> None:
            seq = entry[1]
            if seq < last:
                at = next(instants, None)
                if at is None or at < entry[0]:
                    raise ValueError(f"{kind!r} series: instant {seq - first + 1} "
                                     f"is missing or before {entry[0]}")
                entry[0] = at
                entry[1] = seq + 1
                push(heap, entry)
            else:
                # the last event lets go of the actions it refers to
                entry[2] = _spent
            action(seq - first)

        at = next(instants, None)
        if at is None:
            raise ValueError(f"{kind!r} series: no instants")
        entry = self.schedule_at(at, kind, fire)
        self._seq += count - 1
        return entry

    def record(self, kind: str, **detail) -> None:
        self.trace.record(self.now, kind, **detail)

    def append(self, row: tuple[str, dict]) -> None:
        self.trace.append(self.now, row)

    def close(self) -> None:
        """Drop every pending event unfired, with its action, so no
        closure the run scheduled outlives it.  The clock, the trace and
        the fired count stay readable, as does whether an event was
        cancelled; running again raises RuntimeError."""
        for ev in self._heap:
            if ev[2] is not None:
                ev[2] = _spent
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
    texts: tuple[str, ...] = ()     # the link, a and b as record text

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

    A channel delivers in send order in each direction, as its delay
    there is fixed, so the messages in flight on a direction wait in its
    lane, a deque, each followed by the channel generation it was sent
    in, and every event of the direction delivers the oldest.
    """

    def __init__(self, engine: Engine, spec: ScenarioSpec) -> None:
        self.engine = engine
        self.spec = spec
        alive = spec.initially_alive()
        self.links: dict[tuple, LinkState] = {
            l.key(): LinkState(l, l.key() in alive, texts=(str(l), str(l.a), str(l.b)))
            for l in spec.links
        }
        self.port_link: dict[PortRef, LinkState] = {}
        for st in self.links.values():
            self.port_link[st.spec.a] = st
            self.port_link[st.spec.b] = st
        self.channels = {ch.dpid: ch for ch in spec.control_channels}
        self.connected: set[int] = set()
        self.channel_generation: Counter = Counter()
        self.counters: Counter = Counter()
        # (kind, src, dpid) -> its ctrl_delivered row
        self._delivered: dict[tuple, tuple[str, dict]] = {}
        self.detach()

    def detach(self) -> None:
        """Point every callback at a no-op, letting go of the protocol
        logic attached through them, and drop the lanes, whose delivery
        actions refer back to the fabric."""
        # dpid -> (lane, the action that delivers its oldest message), for
        # messages toward the controller and toward the switch
        self._up_lanes: dict[int, tuple[deque, Callable[[], None]]] = {}
        self._down_lanes: dict[int, tuple[deque, Callable[[], None]]] = {}
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
                           link=st.texts[0], a=st.texts[1], b=st.texts[2])
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
        to_controller = src != CONTROLLER
        if to_controller:
            dpid = src
        else:
            dpid = dst
            if kind in SWITCH_ONLY:
                raise ValueError(f"{kind} cannot originate at the controller")
        chan = self.channels.get(dpid)
        if chan is None:
            raise KeyError(f"no control channel for s{dpid}")
        counters = self.counters
        counters["ctrl_sent"] += 1
        if dpid not in self.connected:
            counters["ctrl_dropped"] += 1
            self.engine.record("ctrl_dropped", msg=kind, reason="channel_closed",
                               switch=f"s{dpid}")
            return
        if to_controller:
            delay, lanes = chan.delay_to_controller, self._up_lanes
        else:
            delay, lanes = chan.delay_from_controller, self._down_lanes
        # no object per message for the collector to track but the
        # message and its event
        lane, arrive = lanes.get(dpid) or self._lane(lanes, dpid)
        lane.append(msg)
        lane.append(self.channel_generation[dpid])
        engine = self.engine
        engine.schedule_at(engine.now + delay, _CTRL_EVENT_KINDS[kind], arrive)

    def _lane(self, lanes: dict, dpid: int) -> tuple[deque, Callable[[], None]]:
        lane = deque()
        entry = lanes[dpid] = (lane, partial(Fabric._control_arrives, self, dpid, lane))
        return entry

    def _control_arrives(self, dpid: int, lane: deque) -> None:
        """Deliver the oldest control message on ``lane``, one direction of
        switch ``dpid``'s channel, unless that channel closed since the
        generation it was sent in."""
        msg = lane.popleft()
        gen = lane.popleft()
        kind, src, _, _ = msg
        if dpid not in self.connected or self.channel_generation[dpid] != gen:
            self.counters["ctrl_dropped"] += 1
            self.engine.record("ctrl_dropped", msg=kind,
                               reason="channel_closed_in_flight", switch=f"s{dpid}")
            return
        self.counters["ctrl_delivered"] += 1
        row = self._delivered.get((kind, src, dpid))
        if row is None:
            ends = (src, str(dpid)) if src == CONTROLLER else (str(dpid), CONTROLLER)
            row = self._delivered[kind, src, dpid] = self.engine.trace.shared(
                "ctrl_delivered", msg=kind, src=ends[0], dst=ends[1])
        self.engine.append(row)
        if src != CONTROLLER:
            self.deliver_to_controller(msg)
        else:
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
                               link=st.texts[0])
            return
        self.counters["frames_delivered"] += 1
        self.frame_arrival(peer, frame)

    def inject_frame(self, ingress: PortRef, frame: LldpFrame) -> None:
        """Adversarial injection: a host pushes a frame into the switch port
        it is attached to (no link traversal)."""
        self.counters["frames_injected"] += 1
        self.frame_arrival(ingress, frame)
