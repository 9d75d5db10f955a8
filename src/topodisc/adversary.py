"""Link-discovery attacks run from compromised hosts.

Every attack is launched against a running simulation at its timeline
instant and schedules its own verdict evaluation; verdicts are computed
only from controller state and the trace, never from adversary-side
bookkeeping about what "should" have happened.
"""
from __future__ import annotations

import statistics
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, count, islice, repeat
from operator import eq, itemgetter
from typing import Optional

from .core import (
    ATTACK_KINDS,
    VERDICT_SETTLE,
    AttackDecl,
    LldpFrame,
    PortRef,
    Protocol,
    SEC,
    SimTime,
    attack_params,
)

FLOOD_THRESHOLD_PER_SEC = 100

# Period tolerance when matching an observed probe cadence against a
# known controller signature.
PERIOD_TOLERANCE_FRACTION = 5  # one fifth


@dataclass(frozen=True)
class Signature:
    name: str
    system_description: bytes
    period: SimTime


# Known-controller fingerprint database.  Two entries deliberately share
# a system description and differ only in probe period, so content alone
# cannot identify the product.
SIGNATURES = (
    Signature("aster-ctl-1s", b"aster-ctl/2.1", 1 * SEC),
    Signature("aster-ctl-10s", b"aster-ctl/2.1", 10 * SEC),
    Signature("boreal-ctl-1s", b"boreal-ctl/0.9", 1 * SEC),
    Signature("cirrus-ctl-5s", b"cirrus-ctl/3.4", 5 * SEC),
)


@dataclass
class AttackVerdict:
    kind: str
    succeeded: bool
    evidence: dict

    def as_dict(self) -> dict:
        return {"kind": self.kind, "succeeded": self.succeeded,
                "evidence": self.evidence}


def _finish(sim, verdict: AttackVerdict) -> None:
    sim.attack_results.append(verdict)
    sim.engine.record("attack_verdict", attack=verdict.kind,
                      succeeded=verdict.succeeded, **verdict.evidence)


def _packet_in_counts(sim, lo: SimTime, mid: SimTime,
                      hi: SimTime) -> tuple[int, int]:
    """PACKET_INs delivered in [lo, mid) and in [mid, hi), for lo <= mid
    <= hi: each counted in bulk over the rows between its instants, as
    the ts never decreases."""
    ts, kinds, details = sim.engine.trace.columns
    start, split, stop = (bisect_left(ts, t) for t in (lo, mid, hi))

    def packet_ins(i: int, j: int) -> int:
        delivered = compress(islice(details, i, j), map(
            eq, islice(kinds, i, j), repeat("ctrl_delivered")))
        return sum(map(eq, map(itemgetter("msg"), delivered), repeat("PACKET_IN")))
    return packet_ins(start, split), packet_ins(split, stop)


def _map_links_touching(sim, ports: set[PortRef]) -> list[str]:
    out = []
    for (e, i) in sorted(sim.controller.map.directed_links):
        if e in ports or i in ports:
            out.append(f"{e}->{i}")
    return out


def _ever_added_touching(sim, ports: set[PortRef]) -> int:
    strs = {str(p) for p in ports}
    _, kinds, details = sim.engine.trace.columns
    added = compress(details, map(eq, kinds, repeat("map_add_link")))
    return sum(1 for detail in added
               if detail["egress"] in strs or detail["ingress"] in strs)


# -- spoof -------------------------------------------------------------------

def _launch_spoof(sim, params: dict) -> None:
    port: PortRef = params["observe"]
    duration = params["duration"]
    seen: list[LldpFrame] = []
    sim.add_host_observer(
        port, lambda p, f: seen.append(f) if isinstance(f, LldpFrame) else None)

    def verdict():
        if not seen:
            _finish(sim, AttackVerdict("spoof", False, {
                "observed_frames": 0,
                "reason": "no LLDP observed"}))
            return
        chassis = seen[0].chassis_id
        accepted = sim.controller.accept_switch_session(chassis)
        _finish(sim, AttackVerdict("spoof", accepted, {
            "observed_frames": len(seen),
            "claimed_chassis": chassis.hex(),
            "session_accepted": accepted}))

    sim.engine.schedule(duration, "attack_verdict", verdict)


# -- fabricate by injection --------------------------------------------------

def _launch_inject(sim, params: dict) -> None:
    inject_port: PortRef = params["inject"]
    victim: PortRef = params["victim_port"]
    n_frames = params["count"]
    spacing = params["spacing"]
    victim_mac = sim.spec.switch(victim.dpid).id.local_mac
    forged = LldpFrame(chassis_id=victim_mac.encode(),
                       port_id=str(victim).encode(),
                       system_description=b"forged")
    suspicious_before = sim.controller.counters.get("suspicious", 0)
    sim.engine.schedule_series(
        count(sim.engine.now, spacing), n_frames, "attack_inject",
        lambda k: sim.fabric.inject_frame(inject_port, forged))

    def verdict():
        ports = {victim, inject_port}
        in_map = _map_links_touching(sim, ports)
        ever = _ever_added_touching(sim, ports)
        _finish(sim, AttackVerdict("inject", bool(in_map) or ever > 0, {
            "frames_injected": n_frames,
            "fake_links_in_map": in_map,
            "fake_links_ever_added": ever,
            "suspicious_delta":
                sim.controller.counters.get("suspicious", 0) - suspicious_before}))

    sim.engine.schedule((n_frames - 1) * spacing + VERDICT_SETTLE,
                        "attack_verdict", verdict)


# -- relay -------------------------------------------------------------------

def _launch_relay(sim, params: dict) -> None:
    pairs = [(params["observe"], params["inject"])]
    if "observe_b" in params:
        pairs.append((params["observe_b"], params["inject_b"]))
    tunnel = params["tunnel_delay"]
    duration = params["duration"]
    deadline = sim.engine.now + duration
    state = {"relayed": 0}

    for (obs, inj) in pairs:
        def listener(p, f, inj=inj):
            if not isinstance(f, LldpFrame) or sim.engine.now > deadline:
                return
            state["relayed"] += 1
            sim.engine.schedule(tunnel, "attack_relay",
                                lambda fr=f, ip=inj: sim.fabric.inject_frame(ip, fr))
        sim.add_host_observer(obs, listener)

    def verdict():
        ports = {p for pair in pairs for p in pair}
        in_map = _map_links_touching(sim, ports)
        ever = _ever_added_touching(sim, ports)
        directed_now = {tuple(s.split("->")) for s in in_map}
        bidirectional = any((b, a) in directed_now for (a, b) in directed_now)
        evidence = {
            "relayed_frames": state["relayed"],
            "fake_links_in_map": in_map,
            "fake_links_ever_added": ever,
            "bidirectional": bidirectional,
        }
        if sim.spec.protocol is Protocol.SOFTDP:
            # fabrication is only conceivable inside open windows; report
            # the measured residual instead of asserting it away
            evidence["residual_in_window_rate"] = (
                ever / state["relayed"] if state["relayed"] else 0.0)
        _finish(sim, AttackVerdict("relay", bool(in_map) or ever > 0, evidence))

    sim.engine.schedule(duration + VERDICT_SETTLE, "attack_verdict", verdict)


# -- flood -------------------------------------------------------------------

def _launch_flood(sim, params: dict) -> None:
    port: PortRef = params["inject"]
    rate = params["rate"]
    duration = params["duration"]
    start = sim.engine.now
    n_frames = max(1, rate * duration // SEC)
    spacing = duration // n_frames

    inject, new = sim.fabric.inject_frame, tuple.__new__

    def send(k: int) -> None:
        # (chassis_id, port_id, system_description, nonce), built in C
        # without the NamedTuple's Python-level __new__
        inject(port, new(LldpFrame, (b"flood", b"flood%d" % k, b"flood", b"")))

    sim.engine.schedule_series(count(start, spacing), n_frames, "attack_flood", send)

    def verdict():
        now = sim.engine.now
        span = now - start
        before, during = _packet_in_counts(sim, max(0, start - span), start, now)
        attributable = max(0, during - before)
        rate_obs = attributable * SEC / span if span else 0.0
        _finish(sim, AttackVerdict(
            "flood", rate_obs > FLOOD_THRESHOLD_PER_SEC, {
                "frames_injected": n_frames,
                "packet_ins_during": during,
                "packet_ins_before": before,
                "forwarded": attributable,
                "rate_per_sec": rate_obs,
                "threshold_per_sec": FLOOD_THRESHOLD_PER_SEC}))

    sim.engine.schedule(duration + VERDICT_SETTLE, "attack_verdict", verdict)


# -- fingerprint -------------------------------------------------------------

def _launch_fingerprint(sim, params: dict) -> None:
    port: PortRef = params["observe"]
    duration = params["duration"]
    start = sim.engine.now
    seen: list[tuple[SimTime, LldpFrame]] = []
    sim.add_host_observer(
        port,
        lambda p, f: seen.append((sim.engine.now, f))
        if isinstance(f, LldpFrame) else None)

    def expected_name() -> Optional[str]:
        for s in SIGNATURES:
            if s.system_description == sim.controller.product \
                    and s.period == sim.spec.discovery_period:
                return s.name
        return None

    def verdict():
        frames = [(t, f) for (t, f) in seen if t <= start + duration]
        if len(frames) < 2:
            _finish(sim, AttackVerdict("fingerprint", False, {
                "frames": len(frames),
                "reason": "no periodic LLDP observed"}))
            return
        gaps = [t2 - t1 for ((t1, _), (t2, _)) in zip(frames, frames[1:])]
        period = int(statistics.median(gaps))
        content = frames[0][1].system_description
        best = None
        for s in SIGNATURES:
            if s.system_description != content:
                continue
            if abs(period - s.period) > s.period // PERIOD_TOLERANCE_FRACTION:
                continue
            if best is None or abs(period - s.period) < abs(period - best.period):
                best = s
        identified = best.name if best else None
        expected = expected_name()
        _finish(sim, AttackVerdict(
            "fingerprint",
            identified is not None and identified == expected, {
                "frames": len(frames),
                "period_ns": period,
                "content": content.hex(),
                "identified": identified,
                "expected": expected}))

    sim.engine.schedule(duration, "attack_verdict", verdict)


# one launcher per kind, named _launch_<kind>
_LAUNCHERS = {kind: globals()[f"_launch_{kind}"] for kind in ATTACK_KINDS}


def launch(sim, decl: AttackDecl) -> None:
    fn = _LAUNCHERS.get(decl.kind)
    if fn is None:
        raise ValueError(f"unknown attack kind {decl.kind!r}")
    fn(sim, attack_params(decl))
