"""Event queue determinism, trace export and fabric delivery semantics."""

import dataclasses
import gc
import hashlib
import io
import itertools
import json
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from topodisc.core import (
    CONTROLLER,
    ControlMessage,
    LldpFrame,
    MAX_TIME,
    MS,
    MsgKind,
    PortRef,
    Protocol,
    SEC,
    SWITCH_ONLY,
    ScenarioSpec,
)
from topodisc.harness import Simulation
from topodisc.simnet import (
    _CTRL_EVENT_KINDS, Engine, Fabric, Trace, TraceRecord, _ndjson_row, _payload_json)
from topodisc import cli, scenarios


# -- engine ordering --------------------------------------------------------

def test_fifo_at_same_timestamp():
    eng = Engine()
    out = []
    for tag in "abc":
        eng.schedule_at(5, "t", lambda t=tag: out.append(t))
    eng.schedule_at(1, "t", lambda: out.append("first"))
    eng.run_until(MAX_TIME)
    assert out == ["first", "a", "b", "c"]


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                max_size=60))
def test_fires_in_time_then_insertion_order(times):
    eng = Engine()
    out = []
    for i, t in enumerate(times):
        eng.schedule_at(t, "t", lambda i=i, t=t: out.append((t, i)))
    eng.run_until(MAX_TIME)
    assert out == sorted(out)


def test_run_until_inclusive_and_clock_lands_on_target():
    eng = Engine()
    out = []
    eng.schedule_at(10, "t", lambda: out.append(10))
    eng.schedule_at(11, "t", lambda: out.append(11))
    eng.run_until(10)
    assert out == [10] and eng.now == 10
    eng.run_until(20)
    assert out == [10, 11] and eng.now == 20


def test_events_scheduled_while_running_fire_in_order():
    eng = Engine()
    out = []

    def chain():
        out.append(eng.now)
        if eng.now < 30:
            eng.schedule(10, "t", chain)

    eng.schedule_at(0, "t", chain)
    eng.run_until(MAX_TIME)
    assert out == [0, 10, 20, 30]


def test_cancelled_event_does_not_fire():
    eng = Engine()
    out = []
    ev = eng.schedule_at(5, "t", lambda: out.append("no"))
    ev.cancel()
    eng.run_until(MAX_TIME)
    assert out == []


# -- event series -----------------------------------------------------------

# (delay, delays of the children the event's action schedules); small
# times, so that events of every origin collide at one instant
_timed = st.tuples(st.integers(0, 6), st.lists(st.integers(0, 3), max_size=2))
# A series' instants as delays from now: evenly spaced, spacing 0
# included, as (delay, spacing, count), or any nondecreasing list
_spaced = st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 6))
_nondecreasing = st.lists(st.integers(0, 8), max_size=6).map(sorted)
# (instants, delays of the children each event schedules)
_series = st.tuples(st.one_of(_spaced, _nondecreasing),
                    st.lists(st.integers(0, 3), max_size=2))
_programs = st.fixed_dictionaries({
    "start": st.integers(0, 3),
    "before": st.lists(_timed, max_size=4),
    "series": st.lists(_series, min_size=1, max_size=3),
    "after": st.lists(_timed, max_size=4),
    "cut": st.integers(0, 20),
    "late": st.lists(_timed, max_size=4),
    "close": st.booleans(),
})


def _fired(program, series: bool) -> tuple[list, list]:
    """Run ``program`` and return the fired (time, kind, tag) sequence and
    whether each series reads as cancelled at the end.  With ``series``
    each series goes through ``schedule_series``, else through one
    schedule() call per instant up front.  With ``close`` the engine
    closes at the cut, often in the middle of a series, instead of
    running on."""
    eng = Engine()
    fired, handles = [], []

    def event(kind, tag, children):
        def act():
            fired.append((eng.now, kind, tag))
            for i, delay in enumerate(children):
                eng.schedule(delay, "child", event("child", f"{kind}.{tag}/{i}", ()))
        return act

    def timed(name, items):
        for i, (delay, children) in enumerate(items):
            eng.schedule(delay, name, event(name, i, children))

    eng.run_until(program["start"])
    timed("before", program["before"])
    for j, (instants, children) in enumerate(program["series"]):
        kind = f"series{j}"
        if isinstance(instants, tuple):
            delay, spacing, count = instants
            at, delays = itertools.count(eng.now + delay, spacing), \
                [delay + k * spacing for k in range(count)]
        else:
            at, delays = [eng.now + delay for delay in instants], instants
        if series:
            handles.append(eng.schedule_series(
                at, len(delays), kind,
                lambda k, kind=kind, ch=children: event(kind, k, ch)()))
        else:
            handles.append(None)
            for k, delay in enumerate(delays):
                eng.schedule(delay, kind, event(kind, k, children))
    timed("after", program["after"])
    eng.run_until(eng.now + program["cut"])  # often in the middle of a series
    if program["close"]:
        eng.close()
        with pytest.raises(RuntimeError):
            eng.run_until(MAX_TIME)
    else:
        timed("late", program["late"])
        eng.run_until(MAX_TIME)
    return fired, [h is not None and h.cancelled for h in handles]


@given(_programs)
@example({"start": 0, "before": [(2, [])], "series": [((0, 2, 3), [0]), ([0, 0, 2], [])],
          "after": [(0, []), (2, [])], "cut": 2, "late": [], "close": True})
def test_series_fires_like_schedule_calls_made_up_front(program):
    """Same events at the same instants in the same order, other events
    at the series' instants included; a finished or closed series does
    not read as cancelled."""
    assert _fired(program, series=True) == _fired(program, series=False)


def test_series_refuses_instants_that_decrease_or_run_out():
    for instants, count in (([5, 4], 2), ([5], 2)):
        eng = Engine()
        eng.schedule_series(instants, count, "s", lambda k: None)
        with pytest.raises(ValueError, match="series"):
            eng.run_until(MAX_TIME)
    eng = Engine()
    with pytest.raises(ValueError, match="series"):
        eng.schedule_series([], 1, "s", lambda k: None)
    eng.run_until(10)
    with pytest.raises(ValueError, match="before now"):
        eng.schedule_series([5], 1, "s", lambda k: None)
    with pytest.raises(ValueError, match="negative count"):
        eng.schedule_series([], -1, "s", lambda k: None)
    assert eng.schedule_series([], 0, "s", lambda k: None) is None


# -- kernel oracle ----------------------------------------------------------

class _ReferenceEvent:
    def __init__(self, ref, seq):
        self.ref, self.seq, self.cancelled = ref, seq, False

    def cancel(self):
        self.cancelled = True
        self.ref.pending.pop(self.seq, None)


class _ReferenceSeries(_ReferenceEvent):
    def __init__(self, ref, seqs):
        super().__init__(ref, None)
        self.seqs = seqs

    def cancel(self):
        self.cancelled = True
        for seq in self.seqs:
            self.ref.pending.pop(seq, None)


class ReferenceEngine:
    """The engine's contract run the slow way: every pending event, each
    of a series' events included, sits in a dict by seq, and each step
    fires the least (fire_at, seq) at or before the target.  A series
    takes its seqs when it is scheduled."""

    def __init__(self):
        self.now = 0
        self.fired = 0
        self.seq = 0
        self.pending = {}       # seq -> (fire_at, action)

    def schedule_at(self, at, kind, action):
        self.seq += 1
        self.pending[self.seq] = (at, action)
        return _ReferenceEvent(self, self.seq)

    def schedule_series(self, instants, count, kind, action):
        if count == 0:
            return None
        seqs = []
        for k, at in zip(range(count), instants):
            self.seq += 1
            seqs.append(self.seq)
            self.pending[self.seq] = (at, lambda k=k: action(k))
        return _ReferenceSeries(self, seqs)

    def run_until(self, t):
        while True:
            due = sorted((at, seq) for seq, (at, _) in self.pending.items()
                         if at <= t)
            if not due:
                break
            at, seq = due[0]
            _, action = self.pending.pop(seq)
            self.now = at
            self.fired += 1
            action()
        self.now = t


# Indices into the events scheduled so far, taken modulo their number.
_cancels = st.lists(st.integers(0, 40), max_size=2)
# An event: (delay, the events it cancels when it fires, its children as
# (delay, cancels)).  Small times, so events of every origin collide at
# one instant and cancel one another there.
_kernel_event = st.tuples(
    st.integers(0, 4), _cancels,
    st.lists(st.tuples(st.integers(0, 3), _cancels), max_size=2))
_kernel_programs = st.lists(st.one_of(
    st.tuples(st.just("at"), _kernel_event),
    # (delay, spacing, count, event fired at each of the series' instants)
    st.tuples(st.just("series"), st.integers(0, 4), st.integers(0, 3),
              st.integers(0, 5), _kernel_event),
    # (nondecreasing delays, event fired at each of them)
    st.tuples(st.just("instants"), _nondecreasing, _kernel_event),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("run"), st.integers(0, 6))), max_size=25)


def _kernel_run(program, eng):
    """Run ``program`` on ``eng``; return what fired, as (time, tag), each
    scheduled event's ``cancelled``, the fired count and the clock."""
    fired, handles = [], []

    def cancel(i):
        if handles:
            handles[i % len(handles)].cancel()

    def action(tag, cancels, children):
        def act():
            fired.append((eng.now, tag))
            for i in cancels:
                cancel(i)
            for i, (delay, child_cancels) in enumerate(children):
                schedule(delay, f"{tag}/{i}", child_cancels, ())
        return act

    def schedule(delay, tag, cancels, children):
        handles.append(eng.schedule_at(eng.now + delay, "t",
                                       action(tag, cancels, children)))

    for n, op in enumerate(program):
        if op[0] == "at":
            schedule(op[1][0], str(n), *op[1][1:])
        elif op[0] in ("series", "instants"):
            if op[0] == "series":
                _, delay, spacing, count, (_, cancels, children) = op
                instants = itertools.count(eng.now + delay, spacing)
            else:
                _, delays, (_, cancels, children) = op
                instants, count = [eng.now + d for d in delays], len(delays)
            handle = eng.schedule_series(
                instants, count, "s",
                lambda k, n=n, c=cancels, ch=children: action(f"{n}.{k}", c, ch)())
            if handle is not None:     # a series is cancelled as a whole
                handles.append(handle)
        elif op[0] == "cancel":
            cancel(op[1])
        else:
            eng.run_until(eng.now + op[1])
    eng.run_until(MAX_TIME)
    return fired, [h.cancelled for h in handles], eng.fired, eng.now


@given(_kernel_programs)
@example([("at", (0, [1], [])), ("at", (0, [], [])),
          ("run", 0)])   # a firing event cancels one due at its instant
def test_engine_fires_as_the_reference_does(program):
    assert _kernel_run(program, Engine()) == _kernel_run(program, ReferenceEngine())


def test_launched_flood_keeps_one_event_pending():
    spec = scenarios.attack_scenario("flood", Protocol.OFDP)
    sim = Simulation(spec)
    (launch,) = [ev.at for ev in spec.timeline]

    def pending():
        # a heap entry is the event itself: [fire_at, seq, action, kind]
        return sum(kind == "attack_flood" for _, _, _, kind in sim.engine._heap)

    for t in (launch, launch + 100 * MS, launch + 500 * MS):
        sim.engine.run_until(t)
        assert pending() == 1
    sim.run()
    assert pending() == 0
    assert sim.fabric.counters["frames_injected"] == 10_000


def test_a_long_timeline_keeps_one_event_pending():
    """A 20,000-event timeline is one pending entry, and the run it gives
    up to 300 s is the run of the same spec with its timeline cut there."""
    spec = scenarios.chain(16, Protocol.OFDP)
    spec = dataclasses.replace(spec, timeline=cli._churn_timeline(spec, 20_001 * SEC))
    cut = 300 * SEC
    short = dataclasses.replace(
        spec, timeline=tuple(ev for ev in spec.timeline if ev.at <= cut))
    assert len(spec.timeline) == 20_000 and len(short.timeline) == 300
    with Simulation(spec) as sim, Simulation(short) as oracle:
        for t in (0, 100 * SEC, cut):
            sim.engine.run_until(t)
            assert sum(kind == "timeline" for _, _, _, kind in sim.engine._heap) == 1
        oracle.engine.run_until(cut)
        assert sim.engine.trace.records == oracle.engine.trace.records
        assert sim.engine.trace.digest() == oracle.engine.trace.digest()


def test_series_events_go_through_schedule_at(monkeypatch):
    """The timeline's and the injection's series each reach the heap
    through one schedule_at call, whose action then fires every one of
    their events."""
    original, queued, fired = Engine.schedule_at, Counter(), Counter()

    def spy(engine, at, kind, action):
        def counted():
            fired[kind] += 1
            action()
        queued[kind] += 1
        return original(engine, at, kind, counted)

    monkeypatch.setattr(Engine, "schedule_at", spy)
    spec = scenarios.attack_scenario("inject", Protocol.OFDP)
    with Simulation(spec) as sim:
        sim.run()
        assert sim.fabric.counters["frames_injected"] == 3
    assert queued["timeline"] == queued["attack_inject"] == 1
    assert fired["timeline"] == len(spec.timeline) and fired["attack_inject"] == 3


@pytest.mark.parametrize("protocol", sorted(Protocol, key=lambda p: p.value),
                         ids=lambda p: p.value)
def test_every_frame_and_message_event_goes_through_schedule_at(
        monkeypatch, protocol):
    """The benchmark's tracer times events by wrapping Engine.schedule_at,
    so a layer that pushed frames or control messages onto the heap some
    other way would fire events the spy never saw."""
    original, fired = Engine.schedule_at, Counter()

    def spy(engine, at, kind, action):
        def counted():
            fired["ctrl" if kind.startswith("ctrl:") else kind] += 1
            action()
        return original(engine, at, kind, counted)

    monkeypatch.setattr(Engine, "schedule_at", spy)
    with Simulation(scenarios.walkthrough(protocol)) as sim:
        sim.run()
        drops = Counter(r.detail["reason"] for r in sim.engine.trace.records
                        if r.kind in ("frame_dropped", "ctrl_dropped"))
        counters = sim.fabric.counters
        # every arrival event ends in one delivery or one in-flight drop
        assert fired["frame"] == counters["frames_delivered"] \
            + drops["link_died_in_flight"] > 0
        assert fired["ctrl"] == counters["ctrl_delivered"] \
            + drops["channel_closed_in_flight"] > 0


# -- trace ------------------------------------------------------------------

def test_trace_digest_stable_and_sensitive():
    def build(flip):
        eng = Engine()
        eng.schedule_at(3, "x", lambda: eng.record("mark", value=2 if flip else 1))
        eng.run_until(MAX_TIME)
        return eng.trace.digest()

    assert build(False) == build(False)
    assert build(False) != build(True)


# The per-record export of a trace before equal payloads shared one
# detail dict: every record's detail encoded and hashed on its own.

_REFERENCE_PAYLOAD = json.JSONEncoder(separators=(",", ":")).encode
_REFERENCE_ROW = json.JSONEncoder(sort_keys=True).encode


def reference_digest(records) -> str:
    h = hashlib.sha256()
    for ts, kind, detail in records:
        detail_hash = hashlib.sha256(
            _REFERENCE_PAYLOAD(detail).encode()).hexdigest()[:12]
        h.update(f"{ts} {kind} {detail_hash}\n".encode())
    return h.hexdigest()


def reference_ndjson(records) -> str:
    return "".join(_REFERENCE_ROW({"ts": ts, "kind": kind, **detail}) + "\n"
                   for ts, kind, detail in records)


def _ndjson(trace) -> str:
    buf = io.StringIO()
    cli.trace_ndjson(trace, buf)
    return buf.getvalue()


# Values that compare (and hash) equal but encode differently, so a
# payload shared by equality alone would export the wrong bytes.
_colliding = st.sampled_from(
    [1, True, 1.0, 0, False, 0.0, -0.0, None, "", [1], [True], [-0.0]])
# keys sorting before, between and after the row's "kind" and "ts"
_keys = st.sampled_from(["a", "m", "tsx"])


# Values of a laid-out row: text that JSON escapes, ints beside the
# bools they equal, None, and tuples (read as lists) of text or of ints
# and bools.
_laid = st.sampled_from(
    ["", 'q"\\', "\x00\n\u00e9\U0001f600", 0, 1, 2, -7, 10 ** 30, True,
     False, None, (), ("a", 'q"'), ("\u00e9",), (1, True), (0, None)])
# the layout of the laid-out kind: keys sorting before, between and after
# the row's "kind" and "ts"
_LAYOUT = ("a", "m", "tsx")


@st.composite
def _trace_ops(draw):
    """Records of two kinds whose details hold one key set, given in
    either order, so that equal and colliding payloads are common; about
    one op in four records the payload of an earlier record again, under
    any kind, and one in four writes a held row of such a payload twice.
    One in five writes a laid-out row of "x" or "g" instead."""
    keys = draw(st.lists(_keys, unique=True, max_size=2))
    ops = []
    for _ in range(draw(st.integers(1, 30))):
        ts = draw(st.integers(0, 3))
        op = draw(st.sampled_from(["record", "record", "hold", "reuse", "lay"]))
        if op == "reuse":
            ops.append(("reuse", ts, draw(st.sampled_from("xyz")),
                        draw(st.integers(0, 50))))
        elif op == "lay":
            ops.append(("lay", ts, draw(st.sampled_from("xg")),
                        tuple(draw(_laid) for _ in _LAYOUT)))
        else:
            names = keys if draw(st.booleans()) else keys[::-1]
            ops.append((op, ts, draw(st.sampled_from("xy")),
                        {k: draw(_colliding) for k in names}))
    return ops


# More rows than two export chunks hold: held rows of "x" between shared
# records of "x", unshared records of "y" and laid-out rows of "g" and "x".
_MANY_ROWS = [row for t in range(400) for row in (
    ("hold", t % 4, "x", {"a": (1, True, "s", None)[t % 4]}),
    ("record", t % 4, "x", {"a": (True, 1, None)[t % 3]}),
    ("record", t % 4, "y", {"a": (0.5, [t], -0.0)[t % 3]}),
    ("lay", t % 4, "gx"[t % 2], ((t, "\u00e9"), (1, True, t)[t % 3], 'q"')))]


@given(_trace_ops(), st.dictionaries(_keys, _colliding, max_size=2))
@example([("record", 0, "x", {"a": v}) for v in (1, True, 1.0, [1], [True])]
         + [("record", 1, "x", {"m": v, "a": None}) for v in (0, False, 0.0, -0.0)]
         + [("reuse", 2, "y", 0), ("reuse", 3, "y", 5)], {"tsx": 1})
@example([("hold", 0, "x", {"a": v}) for v in (1, True, None, 0.0)]
         + [("record", 1, "x", {"a": v}) for v in (True, 1, [1])]
         + [("hold", 2, "x", {"a": 1}), ("reuse", 3, "y", 1)], {})
@example([("lay", 0, "g", (v, v, (v,))) for v in (1, True, 0, False, None, 2)]
         + [("lay", 1, "x", (("a",), "a", ())), ("record", 1, "x", {"a": ["a"]}),
            ("lay", 2, "g", ('q"\\', "\n", ('q"', "\u00e9")))], {})
@example(_MANY_ROWS, {"m": "s"})
def test_trace_export_matches_per_record_encoding(ops, direct):
    trace, expected, listed = Trace(), [], set()
    for kind in "xg":
        trace.layout(kind, *_LAYOUT)
    for op, ts, kind, arg in ops:
        if op == "reuse":
            if not expected:
                continue
            op, arg = "record", expected[arg % len(expected)][2]
        if op == "lay":
            trace.append(ts, (kind, arg))
            expected.append((ts, kind, {key: list(v) if type(v) is tuple else v
                                        for key, v in zip(_LAYOUT, arg)}))
            continue
        detail = dict(sorted(arg.items()))
        if op == "record":
            trace.record(ts, kind, **arg)
            expected.append((ts, kind, detail))
            listed.update(kind for v in arg.values() if type(v) is list)
        elif kind in listed or {float, list} & set(map(type, arg.values())):
            # a detail record() would not share
            with pytest.raises(ValueError):
                trace.shared(kind, **arg)
        else:
            row = trace.shared(kind, **arg)
            for t in (ts, ts + 1):      # held, and written again
                trace.append(t, row)
                expected.append((t, kind, detail))
    # one payload recorded under two kinds
    for kind in ("x", "w"):
        trace.record(7, kind, **direct)
        expected.append((7, kind, dict(sorted(direct.items()))))
    for _ in range(2):  # a second pass reads the same bytes
        assert trace.digest() == reference_digest(expected)
        assert _ndjson(trace) == reference_ndjson(expected)
    records = trace.records
    assert records == expected
    assert all(r.detail == json.loads(r.payload_json()) for r in records)


_primitive = (st.text() | st.floats() | st.integers() | st.booleans()
              | st.none())


@given(st.dictionaries(st.text(), _primitive | st.lists(_primitive, max_size=4),
                       max_size=6))
@example({"ü": "é \U0001f600\ud800", "x": [1.5, -0.0, float("nan"), float("inf")],
          "n": 10 ** 30, "b": [True, None, "\x00"]})
def test_record_encoders_write_what_json_dumps_writes(detail):
    """The trace's encoders, built from json's C encoder, give json.dumps's
    text for every detail a writer may pass: non-ASCII and control text,
    floats, big ints and lists of them."""
    assert _payload_json(detail) == json.dumps(detail, separators=(",", ":"))
    assert _ndjson_row(detail) == json.dumps(detail, sort_keys=True)


def test_equal_primitive_payloads_of_one_kind_share_one_dict():
    trace = Trace()
    trace.record(1, "m", s="a", i=1, b=False, n=None)
    trace.record(2, "m", n=None, b=False, i=1, s="a")
    recs = trace.records
    assert recs[1].detail is recs[0].detail
    assert list(recs[1].detail) == ["b", "i", "n", "s"]
    trace.record(3, "m")
    trace.record(4, "m")
    recs = trace.records
    assert recs[2].detail is recs[3].detail
    # equal as keys, yet encoded differently: never one object
    trace.record(5, "m", v=1)
    trace.record(6, "m", v=True)
    recs = trace.records
    assert recs[4].detail is not recs[5].detail
    trace.record(7, "m", v=0.0)
    trace.record(8, "m", v=-0.0)
    recs = trace.records
    assert recs[6].detail is not recs[7].detail
    # a held row's detail is the dict record() shares for those values,
    # kept apart by value type as record() keeps them
    assert trace.shared("m", i=1, s="a", n=None, b=False) == ("m", recs[0].detail)
    assert trace.shared("m", i=1, s="a", n=None, b=False)[1] is recs[0].detail
    assert trace.shared("m", v=1)[1] is recs[4].detail
    assert trace.shared("m", v=True)[1] is recs[5].detail
    assert trace.shared("n", v=1)[1] is not recs[4].detail
    # a float or list value is not shared, so no row holds it
    for value in (0.0, -0.0, [1]):
        with pytest.raises(ValueError):
            trace.shared("m", v=value)
    # a list payload is not shared, and is still written whole
    trace.record(9, "m", v=[1])
    trace.record(10, "m", v=[1])
    recs = trace.records
    assert recs[8].detail is not recs[9].detail
    assert [r.ts for r in trace.records] == list(range(1, 11))
    # nor, from then on, is any detail of its kind
    with pytest.raises(ValueError):
        trace.shared("m", v=1)
    trace.append(11, trace.shared("n", v=1))
    assert trace.records[-1] == (11, "n", {"v": 1})


def test_a_layout_is_sorted_keys_fixed_per_kind():
    trace = Trace()
    trace.layout("g", "a", "b")
    trace.layout("g", "a", "b")     # again, by the same keys
    for kind, keys in (("g", ("a",)), ("h", ("b", "a")), ("h", ("a", "a")),
                       ("h", ("a", "ts")), ("h", ("kind",))):
        with pytest.raises(ValueError):
            trace.layout(kind, *keys)
    trace.append(3, ("g", (("x",), 2)))
    assert trace.records == [(3, "g", {"a": ["x"], "b": 2})]
    # an integral float would find the text of the int it equals
    trace.append(4, ("g", ((), 2.0)))
    with pytest.raises(TypeError):
        trace.digest()
    with pytest.raises(TypeError):
        _ndjson(trace)


def test_records_list_the_rows_written_in_order():
    trace = Trace()
    rows = [(0, "a", {"v": 1}), (0, "b", {"v": 1}), (5, "a", {"v": 1}),
            (9, "c", {"l": [1, 2]}), (2**63 - 1, "a", {})]
    for ts, kind, detail in rows:
        trace.record(ts, kind, **detail)
    recs = trace.records
    assert type(recs) is list and recs == rows
    assert all(type(r) is TraceRecord for r in recs)
    assert [(r.ts, r.kind, r.detail) for r in recs] == rows
    # one kind, one payload: one dict, however often it is read
    assert recs[0].detail is recs[2].detail is trace.records[2].detail
    assert recs[0].detail is not recs[1].detail
    # each read is a new list: later records show in the next one only
    trace.record(10**12, "d")
    assert len(recs) == len(rows)
    assert trace.records == [*rows, (10**12, "d", {})]


def test_shared_records_add_no_tracked_objects():
    trace = Trace()
    trace.record(0, "m", port="s1.p1", n=1)
    gc.collect()
    before = len(gc.get_objects())
    for ts in range(1, 20_001):
        trace.record(ts, "m", port="s1.p1", n=1)
    assert len(gc.get_objects()) - before < 10
    assert len(trace.records) == 20_001


def test_ts_column_refuses_a_ts_above_max_time():
    trace = Trace()
    trace.record(MAX_TIME, "m")
    with pytest.raises(OverflowError):
        trace.record(MAX_TIME + 1, "m")
    assert len(trace.records) == 1


def test_engine_refuses_to_run_past_max_time():
    eng = Engine()
    eng.schedule_at(MAX_TIME, "last", lambda: eng.record("last"))
    with pytest.raises(ValueError, match="MAX_TIME"):
        eng.run_until(MAX_TIME + 1)
    assert eng.now == 0 and eng.fired == 0
    eng.run_until(MAX_TIME)
    assert eng.now == MAX_TIME and eng.trace.records[0] == (MAX_TIME, "last", {})


# -- fabric -----------------------------------------------------------------

def _fabric():
    spec = scenarios.square()
    eng = Engine()
    return spec, eng, Fabric(eng, spec)


def test_fabric_reads_the_initially_alive_links_once(monkeypatch):
    calls = []
    original = ScenarioSpec.initially_alive

    def counting(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(ScenarioSpec, "initially_alive", counting)
    spec = scenarios.square()
    fabric = Fabric(Engine(), spec)
    assert len(spec.links) > 1 and len(calls) == 1
    assert {k for k, state in fabric.links.items() if state.alive} == original(spec)


def test_control_delivery_delay_and_drop_on_closed_channel():
    spec, eng, fab = _fabric()
    got = []
    fab.deliver_to_controller = lambda msg: got.append(eng.now)
    fab.deliver_to_switch = lambda dpid, msg: got.append((dpid, msg))
    fab.open_channel(1)
    fab.send_control(ControlMessage(MsgKind.HELLO, src=1, dst=CONTROLLER,
                                    body=None))
    assert got == []
    eng.run_until(eng.now + SEC)
    assert got == [spec.channel(1).delay_to_controller]

    fab.send_control(ControlMessage(MsgKind.HELLO, src=2, dst=CONTROLLER,
                                    body=None))  # channel 2 never opened
    eng.run_until(eng.now + SEC)
    assert len(got) == 1
    assert fab.counters["ctrl_dropped"] == 1


def test_channel_close_drops_in_flight():
    spec, eng, fab = _fabric()
    got = []
    fab.deliver_to_switch = lambda dpid, msg: got.append(msg)
    fab.deliver_to_controller = got.append
    fab.open_channel(1)
    fab.send_control(ControlMessage(MsgKind.HELLO, src=CONTROLLER, dst=1,
                                    body=None))
    fab.close_channel(1)
    eng.run_until(eng.now + SEC)
    assert got == []


# The control-message kinds by wire name, and those only a switch sends.
WIRE_NAMES = ("HELLO", "FEATURE_REQUEST", "FEATURE_REPLY", "PACKET_OUT",
              "PACKET_IN", "PORT_STATUS", "BFD_STATUS", "FLOW_MOD", "GROUP_MOD")
SWITCH_SENT = ("FEATURE_REPLY", "PACKET_IN", "PORT_STATUS", "BFD_STATUS")


def test_every_message_kind_is_its_wire_name_with_a_delivery_event_kind():
    kinds = {k: v for k, v in vars(MsgKind).items() if not k.startswith("_")}
    assert kinds == {name: name for name in WIRE_NAMES}
    assert _CTRL_EVENT_KINDS == {name: f"ctrl:{name}" for name in WIRE_NAMES}
    assert SWITCH_ONLY == frozenset(SWITCH_SENT)


@pytest.mark.parametrize("name", SWITCH_SENT)
def test_a_switch_only_kind_cannot_originate_at_the_controller(name):
    spec, eng, fab = _fabric()
    fab.open_channel(1)
    msg = ControlMessage(getattr(MsgKind, name), src=CONTROLLER, dst=1, body=None)
    with pytest.raises(ValueError) as err:
        fab.send_control(msg)
    assert str(err.value) == f"{name} cannot originate at the controller"
    assert fab.counters["ctrl_sent"] == 0


def test_group_mod_and_hello_originate_at_the_controller():
    spec, eng, fab = _fabric()
    got = []
    fab.deliver_to_switch = got.append
    fab.open_channel(1)
    sent = [ControlMessage(kind, src=CONTROLLER, dst=1, body=None)
            for kind in (MsgKind.GROUP_MOD, MsgKind.HELLO)]
    for msg in sent:
        fab.send_control(msg)
    eng.run_until(eng.now + SEC)
    assert got == sent


def test_frame_flight_time_and_down_link_drop():
    spec, eng, fab = _fabric()
    seen = []
    fab.frame_arrival = lambda port, frame: seen.append((port, eng.now))
    link = spec.links[0]
    frame = LldpFrame(b"c", b"p", b"d")
    fab.send_frame(link.a, frame)
    eng.run_until(eng.now + SEC)
    assert seen == [(link.b, link.delay_ab)]

    fab.set_link_alive(link.a, link.b, False)
    fab.send_frame(link.a, frame)
    eng.run_until(eng.now + SEC)
    assert len(seen) == 1
    assert fab.counters["frames_dropped"] >= 1


def test_link_death_drops_in_flight_frame():
    spec, eng, fab = _fabric()
    seen = []
    fab.frame_arrival = lambda port, frame: seen.append(port)
    link = spec.links[0]
    fab.send_frame(link.a, LldpFrame(b"c", b"p", b"d"))
    # kill the link while the frame is mid-flight
    eng.schedule_at(link.delay_ab // 2, "cut",
                    lambda: fab.set_link_alive(link.a, link.b, False))
    eng.run_until(eng.now + SEC)
    assert seen == []


def test_flap_generation_isolates_old_traffic():
    spec, eng, fab = _fabric()
    seen = []
    fab.frame_arrival = lambda port, frame: seen.append(port)
    link = spec.links[0]
    fab.send_frame(link.a, LldpFrame(b"c", b"p", b"d"))
    half = link.delay_ab // 2
    eng.schedule_at(half, "cut", lambda: fab.set_link_alive(link.a, link.b, False))
    eng.schedule_at(half + 1, "heal", lambda: fab.set_link_alive(link.a, link.b, True))
    eng.run_until(eng.now + SEC)
    # the pre-flap frame died with its generation even though the link is
    # alive again by its scheduled arrival
    assert seen == []


def test_host_port_frame_is_observable():
    spec = scenarios.testbed_chain(scenarios.Protocol.OFDP)
    eng = Engine()
    fab = Fabric(eng, spec)
    host_port = PortRef(1, 2)
    fab.send_frame(host_port, LldpFrame(b"c", b"p", b"d"))
    eng.run_until(eng.now + SEC)
    assert fab.counters["frames_to_hosts"] == 1
    assert [r for r in eng.trace.records if r.kind == "frame_at_host"
            and r.detail["port"] == str(host_port)]


def test_inject_frame_arrives_immediately():
    spec, eng, fab = _fabric()
    seen = []
    fab.frame_arrival = lambda port, frame: seen.append(port)
    fab.inject_frame(PortRef(1, 1), LldpFrame(b"c", b"p", b"d"))
    assert seen == [PortRef(1, 1)]
