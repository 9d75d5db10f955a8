"""Shared test plumbing: a stub services object that lets controller and
switch-agent units run without the full simulation harness, helpers that
build, drive and read whole runs, and the measurement scenarios only
tests use."""

import dataclasses
import random

from topodisc import scenarios
from topodisc.core import MS, SEC, ControlMessage, LinkRemove, ScenarioSpec
from topodisc.harness import Simulation


def link_remove_scenario(seed: int) -> ScenarioSpec:
    """``scenarios.link_add_scenario(seed)`` with its link live from the
    start and failing at t=1s; detection runs at a 1 ms interval with
    multiplier 1."""
    base = scenarios.link_add_scenario(seed)
    link = base.links[0]
    return dataclasses.replace(
        base, timeline=(LinkRemove(1 * SEC, link.a, link.b),))


def scale_scenario(seed: int, extra_switches: int) -> ScenarioSpec:
    """The link-add measurement plus k unrelated isolated switches; the
    measured link and its channels are drawn before the extras so the
    event's delays are identical at every k."""
    base = scenarios.link_add_scenario(seed)
    rng = random.Random(seed * 31 + extra_switches + 1)
    extras = tuple(scenarios._switch(100 + i, 1) for i in range(extra_switches))
    return dataclasses.replace(
        base, switches=base.switches + extras,
        control_channels=base.control_channels + scenarios._rand_channels(
            [d.id.dpid for d in extras], rng))


def run_scenario(spec, name="scenario", until=None) -> Simulation:
    """Build a simulation and run it to ``until``, by default past the
    end of its timeline."""
    return Simulation(spec, name=name).run(until)


def periodic_probes(sim, pairs, cadence, start) -> None:
    """From ``start`` on, send a probe for each ``(src, dst)`` of
    ``pairs`` every ``cadence``.  Call it right after building ``sim``,
    before it runs: the first tick is then scheduled after the boot and
    timeline events, so at an instant they share it fires after them."""
    def tick():
        for src, dst in pairs:
            sim.send_probe(src, dst)
        sim.engine.schedule(cadence, "probe_tick", tick)
    sim.engine.schedule_at(start, "probe_tick", tick)


def records_of(sim, kind):
    return [r for r in sim.engine.trace.records if r.kind == kind]


class FakeTimer:
    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class StubServices:
    """Collects outbound traffic and scheduled callbacks instead of
    executing them.  Time is advanced by poking ``clock`` directly;
    ``fire_due`` runs callbacks whose deadline has passed, in order."""

    def __init__(self, lldp_window=500 * MS):
        self.clock = 0
        self.lldp_window = lldp_window
        self.sent: list[ControlMessage] = []
        self.frames: list[tuple] = []
        self.scheduled: list[tuple[int, str, object, FakeTimer]] = []
        self.records: list[tuple[str, dict]] = []
        self.layouts: dict[str, tuple[str, ...]] = {}

    def now(self):
        return self.clock

    def send_control(self, msg):
        self.sent.append(msg)

    def send_frame(self, egress, frame):
        self.frames.append((egress, frame))

    def schedule(self, delay, kind, action):
        timer = FakeTimer()
        self.scheduled.append((self.clock + delay, kind, action, timer))
        return timer

    def record(self, kind, **detail):
        self.records.append((kind, detail))

    def shared(self, kind, **detail):
        return kind, detail

    def layout(self, kind, *keys):
        self.layouts[kind] = keys

    def append(self, row):
        """A laid-out row is kept as ``Trace.records`` reads it: a dict of
        its keys, a tuple value as a list."""
        kind, detail = row
        if type(detail) is tuple:
            detail = {key: list(value) if type(value) is tuple else value
                      for key, value in zip(self.layouts[kind], detail)}
        self.records.append((kind, detail))

    def sent_kinds(self):
        return [m.kind.name for m in self.sent]

    def fire_due(self):
        due = [s for s in self.scheduled if s[0] <= self.clock and not s[3].cancelled]
        self.scheduled = [s for s in self.scheduled if s not in due]
        for _, _, action, _ in sorted(due, key=lambda s: s[0]):
            action()
