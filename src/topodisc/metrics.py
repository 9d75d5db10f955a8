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
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .core import PortRef, ScenarioSpec, SEC, SimTime, link_key
from .core import LinkAdd, LinkRemove
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

    def inputs_dict(self) -> dict:
        return dict(self.inputs)


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

    def delivered_per_sim_second(self, horizon: Optional[SimTime] = None) -> float:
        if horizon is None:
            horizon = max((max(self.per_second) + 1) * SEC, SEC) if self.per_second else SEC
        return self.messages_total() * SEC / horizon

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


def measure(trace: Trace) -> RunMetrics:
    recs = trace.records
    timeline = [r for r in recs if r.kind == "timeline"]

    probe_sent_ts: dict[int, SimTime] = {}
    delivered_ids: set[int] = set()
    for r in recs:
        d = dict(r.detail)
        if r.kind == "probe_sent":
            probe_sent_ts[d["probe_id"]] = r.ts
        elif r.kind == "probe_delivered":
            delivered_ids.add(d["probe_id"])

    events: list[EventEntry] = []

    boot = next((r for r in recs if r.kind == "bootstrap_dispatch"), None)
    if boot is None:
        boot = next((r for r in recs if r.kind == "round_dispatch"), None)
    if boot is not None:
        cutoff = timeline[0].ts if timeline else None
        last_bidi = None
        learned = 0
        for r in recs:
            if cutoff is not None and r.ts >= cutoff:
                break
            if r.kind == "map_link_bidirectional":
                last_bidi = r.ts
                learned += 1
        events.append(EventEntry(
            "bootstrap", boot.ts, resolved=True,
            learning=None if last_bidi is None else last_bidi - boot.ts,
            detail={"links_learned": learned}))

    for i, tr in enumerate(timeline):
        lo = tr.ts
        hi = timeline[i + 1].ts if i + 1 < len(timeline) else None
        d = dict(tr.detail)
        kind = d["event"]
        entry = EventEntry(kind, lo, detail=d)
        window = [r for r in recs
                  if lo <= r.ts and (hi is None or r.ts < hi)]

        if kind == "link_add":
            want = _canon_pair(d["a"], d["b"])
            for r in window:
                rd = dict(r.detail)
                if r.kind == "map_link_bidirectional" and (rd["a"], rd["b"]) == want:
                    entry.learning = r.ts - lo
                    entry.resolved = True
                    break
            for r in window:
                rd = dict(r.detail)
                if r.kind == "adaptation_complete" and \
                        rd.get("pair") == list(want):
                    entry.adaptation = r.ts - lo
                    break

        elif kind == "link_remove":
            ports = {d["a"], d["b"]}
            for r in window:
                rd = dict(r.detail)
                if r.kind == "map_remove_link" and \
                        {rd["egress"], rd["ingress"]} == ports:
                    entry.learning = r.ts - lo
                    entry.resolved = True
                    break
            recovered = [probe_sent_ts[pid] for pid in delivered_ids
                         if probe_sent_ts.get(pid) is not None
                         and probe_sent_ts[pid] >= lo
                         and (hi is None or probe_sent_ts[pid] < hi)]
            if recovered:
                entry.loss_window = min(recovered) - lo

        elif kind == "switch_join":
            dpid = d["dpid"]
            last_bidi = None
            registered = None
            for r in window:
                rd = dict(r.detail)
                if r.kind == "map_link_bidirectional" and _involves(rd, dpid):
                    last_bidi = r.ts
                elif r.kind == "switch_registered" and rd["dpid"] == dpid \
                        and registered is None:
                    registered = r.ts
            if last_bidi is not None:
                entry.learning = last_bidi - lo
                entry.resolved = True
            elif registered is not None:
                entry.learning = registered - lo
                entry.resolved = True
                entry.detail["note"] = "registered, no links learned"

        elif kind == "switch_leave":
            dpid = d["dpid"]
            for r in window:
                rd = dict(r.detail)
                if r.kind == "map_remove_switch" and rd["dpid"] == dpid:
                    entry.learning = r.ts - lo
                    entry.resolved = True
                    break
            if not entry.resolved:
                # the switch may have already fallen out of the map when
                # its last link went; replay map membership up to the event
                in_map: set[int] = set()
                for r in recs:
                    if r.ts >= lo:
                        break
                    rd = dict(r.detail)
                    if r.kind == "map_add_link":
                        in_map.add(PortRef.parse(rd["egress"]).dpid)
                        in_map.add(PortRef.parse(rd["ingress"]).dpid)
                    elif r.kind == "map_remove_switch":
                        in_map.discard(rd["dpid"])
                if dpid not in in_map:
                    entry.resolved = True
                    entry.detail["note"] = "not in map at event"

        elif kind == "attack":
            entry.resolved = True

        events.append(entry)

    msg_counts: Counter = Counter()
    per_second: dict[int, Counter] = {}
    rounds = []
    suspicious = 0
    attacks = []
    for r in recs:
        d = dict(r.detail)
        if r.kind == "ctrl_delivered":
            msg_counts[d["msg"]] += 1
            per_second.setdefault(r.ts // SEC, Counter())[d["msg"]] += 1
        elif r.kind == "round_dispatch":
            rounds.append((r.ts, d["round"], d["packet_outs"]))
        elif r.kind in ("suspicious_packet_in", "suspicious_bfd_status"):
            suspicious += 1
        elif r.kind == "attack_verdict":
            attacks.append({"ts": r.ts, **d})

    return RunMetrics(
        events=events, msg_counts=dict(msg_counts), per_second=per_second,
        rounds=rounds, suspicious=suspicious,
        probes_sent=len(probe_sent_ts), probes_delivered=len(delivered_ids),
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
