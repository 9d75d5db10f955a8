"""Timing predictors for topology events and measurements derived from
run traces.

Predictions carry the exact inputs they were computed from, so a reader
can recompute every value.  Measurements come from the trace alone: each
topology event becomes one report entry, and an entry whose expected map
update never shows up is flagged unresolved rather than dropped.
"""
from __future__ import annotations

import csv
import io
import json
from bisect import bisect_left
from collections import Counter
from itertools import chain, compress, count, islice, repeat
from operator import eq, gt, itemgetter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .core import PortRef, ScenarioSpec, SEC, SimTime, link_key
from .core import AttackStart, LinkAdd, LinkRemove, SwitchJoin, SwitchLeave
from .simnet import Trace

BFD_DETECT = "bfd_detect"
LINK_ADD_LEARN = "link_add_learn"
LINK_REMOVE_LEARN = "link_remove_learn"
ADAPTATION = "adaptation"


@dataclass(frozen=True)
class TimingPrediction:
    """A predicted duration plus the inputs that produced it."""

    quantity: str
    value: Optional[SimTime]
    inputs: tuple  # sorted (name, value) pairs


def _inputs(**kv) -> tuple:
    return tuple(sorted(kv.items()))


def predict_bfd_detect(interval: SimTime, multiplier: int) -> TimingPrediction:
    """Worst-case liveness detection: the full run of missed intervals."""
    return TimingPrediction(BFD_DETECT, interval * multiplier,
                            _inputs(interval=interval, multiplier=multiplier))


def predict_link_add_learn(pstatus_a: SimTime, pstatus_b: SimTime,
                           ctrl_to_a: SimTime, a_to_b: SimTime, b_to_ctrl: SimTime,
                           ctrl_to_b: SimTime, b_to_a: SimTime, a_to_ctrl: SimTime,
                           ) -> TimingPrediction:
    """Time from carrier-up to the link confirmed in both directions.

    Both endpoints report carrier-up; probes issued at the later report
    settle the race, then each direction closes after one probe round
    trip (controller to egress switch, across the link, back up from the
    ingress switch).  The pair is learned when the slower direction lands.
    """
    report = max(pstatus_a, pstatus_b)
    rtt_ab = ctrl_to_a + a_to_b + b_to_ctrl
    rtt_ba = ctrl_to_b + b_to_a + a_to_ctrl
    return TimingPrediction(
        LINK_ADD_LEARN, report + max(rtt_ab, rtt_ba),
        _inputs(pstatus_a=pstatus_a, pstatus_b=pstatus_b,
                ctrl_to_a=ctrl_to_a, a_to_b=a_to_b, b_to_ctrl=b_to_ctrl,
                ctrl_to_b=ctrl_to_b, b_to_a=b_to_a, a_to_ctrl=a_to_ctrl))


def predict_link_remove_learn(detect_a: Optional[SimTime], to_ctrl_a: Optional[SimTime],
                              detect_b: Optional[SimTime], to_ctrl_b: Optional[SimTime],
                              ) -> TimingPrediction:
    """Time from link failure to its removal from the map: the first
    endpoint status report to land wins.  Pass None for an endpoint that
    cannot detect or report; with neither endpoint able, the value is None.
    """
    candidates = []
    for det, up in ((detect_a, to_ctrl_a), (detect_b, to_ctrl_b)):
        if det is not None and up is not None:
            candidates.append(det + up)
    return TimingPrediction(
        LINK_REMOVE_LEARN, min(candidates) if candidates else None,
        _inputs(detect_a=detect_a, to_ctrl_a=to_ctrl_a,
                detect_b=detect_b, to_ctrl_b=to_ctrl_b))


def predict_adaptation(learn: SimTime, group_delivery: SimTime,
                       probe_flight: SimTime) -> TimingPrediction:
    """Learning plus pushing the new group config plus one probe flight
    over the new path."""
    return TimingPrediction(
        ADAPTATION, learn + group_delivery + probe_flight,
        _inputs(learn=learn, group_delivery=group_delivery,
                probe_flight=probe_flight))


# -- scenario-driven convenience wrappers -----------------------------------

def link_add_prediction(spec: ScenarioSpec, a: PortRef, b: PortRef) -> TimingPrediction:
    link = spec.link_between(a, b)
    ca = spec.channel(link.a.dpid)
    cb = spec.channel(link.b.dpid)
    return predict_link_add_learn(
        ca.delay_to_controller, cb.delay_to_controller,
        ca.delay_from_controller, link.delay_ab, cb.delay_to_controller,
        cb.delay_from_controller, link.delay_ba, ca.delay_to_controller)


def link_remove_prediction(spec: ScenarioSpec, a: PortRef, b: PortRef,
                           unreachable: Iterable[int] = ()) -> TimingPrediction:
    link = spec.link_between(a, b)
    detect = spec.bfd.interval * spec.bfd.multiplier
    dead = set(unreachable)

    def endpoint(p: PortRef):
        if p.dpid in dead:
            return None, None
        return detect, spec.channel(p.dpid).delay_to_controller

    da, ua = endpoint(link.a)
    db, ub = endpoint(link.b)
    return predict_link_remove_learn(da, ua, db, ub)


def timeline_predictions(spec: ScenarioSpec) -> list:
    """One prediction per timeline entry; None for event kinds that have
    no closed-form timing model (joins, leaves, attacks)."""
    out = []
    for ev in spec.timeline:
        if isinstance(ev, LinkAdd):
            out.append(link_add_prediction(spec, ev.a, ev.b))
        elif isinstance(ev, LinkRemove):
            out.append(link_remove_prediction(spec, ev.a, ev.b))
        else:
            out.append(None)
    return out


# -- measurements -----------------------------------------------------------

@dataclass
class EventEntry:
    """One report row: a topology event and what the trace says became of
    it.  Durations are relative to the event instant, in ns."""

    kind: str
    at: SimTime
    learning: Optional[SimTime] = None
    adaptation: Optional[SimTime] = None
    loss_window: Optional[SimTime] = None
    resolved: bool = False
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind, "at": self.at, "learning": self.learning,
            "adaptation": self.adaptation, "loss_window": self.loss_window,
            "resolved": self.resolved, "detail": self.detail,
        }


@dataclass
class RunMetrics:
    events: list
    msg_counts: dict
    per_second: dict
    rounds: list
    suspicious: int
    probes_sent: int
    probes_delivered: int
    attacks: list

    def messages_total(self) -> int:
        return sum(self.msg_counts.values())

    def as_dict(self) -> dict:
        return {
            "events": [e.as_dict() for e in self.events],
            "msg_counts": dict(sorted(self.msg_counts.items())),
            "rounds": [{"at": ts, "round": r, "packet_outs": n}
                       for (ts, r, n) in self.rounds],
            "suspicious": self.suspicious,
            "probes_sent": self.probes_sent,
            "probes_delivered": self.probes_delivered,
            "attacks": self.attacks,
            "messages_total": self.messages_total(),
        }


def _canon_pair(a: str, b: str) -> tuple[str, str]:
    pa, pb = PortRef.parse(a), PortRef.parse(b)
    ka, kb = link_key(pa, pb)
    return str(ka), str(kb)


def _involves(detail: dict, dpid: int) -> bool:
    for key in ("a", "b", "egress", "ingress"):
        v = detail.get(key)
        if v is not None and PortRef.parse(v).dpid == dpid:
            return True
    return False


def _learned(entry: EventEntry, ts: SimTime) -> None:
    entry.learning = ts - entry.at
    entry.resolved = True


# The record kinds ``measure`` reads in reading order; the messages
# delivered and the suspicious reports it counts in bulk instead.
_READ_IN_ORDER = frozenset({
    "timeline", "map_link_bidirectional", "switch_registered",
    "adaptation_complete", "map_remove_link", "map_add_link",
    "map_remove_switch", "probe_sent", "probe_delivered", "round_dispatch",
    "attack_verdict", "bootstrap_dispatch"})


def _reading_order(ts, kinds, details) -> Iterator[Iterable[tuple]]:
    """The rows of three trace columns, ``(ts, kind, detail)``, as runs
    to read one after the other, so that an instant's timeline records
    come before its other records and those land in the window of the
    last of them.  An instant with a record before one of its timeline
    records is rebuilt as two runs, its timeline records and then the
    others; the stretches between are read straight off the columns, with
    only the rows of the kinds in ``_READ_IN_ORDER``."""
    rows = zip(ts, kinds, details)
    read = map(_READ_IN_ORDER.__contains__, kinds)   # in step with rows
    done = 0                    # rows handed out or passed over so far
    i = -1
    while True:
        try:
            i = kinds.index("timeline", i + 1)
        except ValueError:
            break
        t, start = ts[i], i
        while start > done and ts[start - 1] == t:
            start -= 1
        if start == i:
            continue
        end = i + 1
        while end < len(ts) and ts[end] == t:
            end += 1
        yield compress(islice(rows, start - done), islice(read, start - done))
        instant = [(t, kinds[j], details[j]) for j in range(start, end)]
        yield [row for row in instant if row[1] == "timeline"]
        yield [row for row in instant if row[1] != "timeline"]
        skip = end - start      # what was rebuilt
        next(islice(rows, skip, skip), None)
        next(islice(read, skip, skip), None)
        done, i = end, end - 1
    yield compress(rows, read)


def _message_counts(ts, kinds, details) -> tuple[dict, dict]:
    """Delivered control messages by wire name, and by second and wire
    name, each in first-delivery order; one second's slice of the
    columns at a time, as the ts never decreases."""
    msg_counts: Counter = Counter()
    per_second: dict[int, Counter] = {}
    kinds, details = iter(kinds), iter(details)
    start, end = 0, len(ts)
    while start < end:
        second = ts[start] // SEC
        stop = bisect_left(ts, (second + 1) * SEC, start)
        counts = Counter(map(itemgetter("msg"), compress(
            islice(details, stop - start),
            map(eq, islice(kinds, stop - start), repeat("ctrl_delivered")))))
        if counts:
            msg_counts.update(counts)
            per_second[second] = counts
        start = stop
    return dict(msg_counts), per_second


def measure(trace: Trace) -> RunMetrics:
    """Read the report entries and totals off a trace's columns: the
    message and suspicious-report totals in bulk, and the rest in one
    streaming pass over the records it reads.  That needs each ts to be
    at least the one before it (the engine's clock never runs
    backwards); a trace whose ts decreases raises ValueError.

    A record belongs to the entry of the last timeline instant at or
    before its ts.  Records before the first instant belong to the
    bootstrap entry, which exists once the controller has bootstrapped
    and, like a join, is learned at its last bidirectional link.  A join
    or leave entry may be resolved with a note that a later record of
    its window overrules.
    """
    stamps, kinds, details = trace.columns
    below = next(compress(count(1), map(gt, stamps, islice(stamps, 1, None))),
                 None)
    if below is not None:
        raise ValueError(f"trace ts {stamps[below]} ({kinds[below]}) is below "
                         f"the ts {stamps[below - 1]} before it")
    msg_counts, per_second = _message_counts(stamps, kinds, details)
    suspicious = (kinds.count("suspicious_packet_in")
                  + kinds.count("suspicious_bfd_status"))
    boot = entry = EventEntry("bootstrap", 0, resolved=True,
                              detail={"links_learned": 0})
    boot_at = boot_bidi = want = ports = None
    events: list[EventEntry] = []
    rounds = []
    attacks = []
    in_map: set[int] = set()    # switches in the map as of the records read
    sent: dict[int, tuple[SimTime, EventEntry]] = {}  # probe id -> (ts, window)
    delivered: set[int] = set()

    for ts, kind, d in chain.from_iterable(
            _reading_order(stamps, kinds, details)):
        if kind == "timeline":
            # a copy, so that notes stay out of the trace
            entry = EventEntry(d["event"], ts, detail=d.copy())
            events.append(entry)
            want = _canon_pair(d["a"], d["b"]) if entry.kind == LinkAdd.name else None
            ports = {d["a"], d["b"]} if entry.kind == LinkRemove.name else None
            if entry.kind == AttackStart.name:
                entry.resolved = True
            elif entry.kind == SwitchLeave.name and d["dpid"] not in in_map:
                # it fell out of the map already, with its last link
                entry.resolved = True
                entry.detail["note"] = "not in map at event"
        elif kind == "map_link_bidirectional":
            if entry is boot:
                boot_bidi = ts
                boot.detail["links_learned"] += 1
            elif (d["a"], d["b"]) == want and not entry.resolved:
                _learned(entry, ts)
            elif entry.kind == SwitchJoin.name and _involves(d, entry.detail["dpid"]):
                _learned(entry, ts)
                entry.detail.pop("note", None)
        elif kind == "switch_registered":
            if entry.kind == SwitchJoin.name and not entry.resolved \
                    and d["dpid"] == entry.detail["dpid"]:
                _learned(entry, ts)
                entry.detail["note"] = "registered, no links learned"
        elif kind == "adaptation_complete":
            if want is not None and entry.adaptation is None \
                    and d.get("pair") == list(want):
                entry.adaptation = ts - entry.at
        elif kind == "map_remove_link":
            if {d["egress"], d["ingress"]} == ports and not entry.resolved:
                _learned(entry, ts)
        elif kind == "map_add_link":
            in_map.add(PortRef.parse(d["egress"]).dpid)
            in_map.add(PortRef.parse(d["ingress"]).dpid)
        elif kind == "map_remove_switch":
            in_map.discard(d["dpid"])
            if entry.kind == SwitchLeave.name and entry.learning is None \
                    and d["dpid"] == entry.detail["dpid"]:
                _learned(entry, ts)
                entry.detail.pop("note", None)
        elif kind == "probe_sent":
            sent[d["probe_id"]] = (ts, entry)
        elif kind == "probe_delivered":
            delivered.add(d["probe_id"])
            sent_at, window = sent.get(d["probe_id"], (0, boot))
            if window.kind == LinkRemove.name and (
                    window.loss_window is None
                    or sent_at - window.at < window.loss_window):
                window.loss_window = sent_at - window.at
        elif kind == "round_dispatch":
            rounds.append((ts, d["round"], d["packet_outs"]))
        elif kind == "attack_verdict":
            attacks.append({"ts": ts, **d})
        elif kind == "bootstrap_dispatch" and boot_at is None:
            boot_at = ts

    if boot_at is not None:
        boot.at = boot_at
        boot.learning = None if boot_bidi is None else boot_bidi - boot_at
        events.insert(0, boot)
    return RunMetrics(
        events=events, msg_counts=msg_counts, per_second=per_second,
        rounds=rounds, suspicious=suspicious,
        probes_sent=len(sent), probes_delivered=len(delivered),
        attacks=attacks)


# -- report rendering -------------------------------------------------------

CSV_HEADER = ["row_type", "kind", "at_ns", "learning_ns", "adaptation_ns",
              "loss_ns", "resolved", "detail"]


def to_csv_text(metrics: RunMetrics) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for e in metrics.events:
        w.writerow(["event", e.kind, e.at,
                    "" if e.learning is None else e.learning,
                    "" if e.adaptation is None else e.adaptation,
                    "" if e.loss_window is None else e.loss_window,
                    int(e.resolved),
                    json.dumps(e.detail, sort_keys=True)])
    for (ts, rnd, outs) in metrics.rounds:
        w.writerow(["round", f"round_{rnd}", ts, "", "", "", 1,
                    json.dumps({"packet_outs": outs})])
    return buf.getvalue()
