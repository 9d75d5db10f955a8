"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of topodisc from outside the program:
class attributes for methods, and module attributes (in every loaded
topodisc module that holds the same function object) for functions.
``restore()`` puts every original back, so a traced run leaves the
program exactly as it found it.

A span is one call of a wrapped function: its name, the span that was
open in the same thread when it started (its parent), the thread, and
host wall time (``time.perf_counter``) and per-thread CPU time
(``time.thread_time``) at start and end.  Spans are kept in memory and
aggregated or written out after the run.
"""
from __future__ import annotations

import csv
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple, Optional

DISPATCH = "simnet.engine.dispatch."


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    thread: int
    name: str
    start: float
    end: float
    cpu_start: float
    cpu_end: float


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.scheduled: list = []     # every SimEvent scheduled while installed
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def call(self, name: str, fn: Callable, /, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            stack.pop()
            self.spans.append(Span(sid, parent, threading.get_ident(), name,
                                   t0, t1, c0, c1))

    # -- wrappers ----------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]

        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)
        self._set(cls, attr, wrapper)

    def wrap_function(self, module, attr: str, name: str) -> None:
        """Wrap ``module.attr`` and every other topodisc module's binding
        of the same function (``from .x import f`` copies the name)."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name.split(".")[0] == "topodisc" and \
                    mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapper)

    def wrap_dispatch(self, engine_cls) -> None:
        """Time each fired event under ``simnet.engine.dispatch.<kind>`` by
        wrapping the action ``Engine.schedule_at`` receives, and keep the
        scheduled events so cancellations can be counted afterwards."""
        original = engine_cls.__dict__["schedule_at"]

        def schedule_at(engine, at, kind, action):
            ev = original(engine, at, kind,
                          lambda: self.call(DISPATCH + kind, action))
            self.scheduled.append(ev)
            return ev
        self._set(engine_cls, "schedule_at", schedule_at)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------
    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(Span._fields)
            out.writerows(self.spans)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the benchmark reports on."""
    from topodisc import (adversary, cli, controller, core, harness,
                          metrics, scenarios, simnet, switch_agent)

    tracer.wrap_dispatch(simnet.Engine)
    for cls, attr, name in (
            (simnet.Engine, "run_until", "simnet.engine.run_until"),
            (simnet.Fabric, "send_frame", "simnet.fabric.send_frame"),
            (simnet.Fabric, "send_control", "simnet.fabric.send_control"),
            (simnet.Fabric, "inject_frame", "simnet.fabric.inject_frame"),
            (simnet.Trace, "record", "simnet.trace.record"),
            (simnet.Trace, "digest", "simnet.trace.digest"),
            (switch_agent.SwitchAgent, "forward", "switch_agent.forward"),
            (switch_agent.SwitchAgent, "handle_control",
             "switch_agent.handle_control"),
            (switch_agent.SwitchAgent, "forward_via_group",
             "switch_agent.forward_via_group"),
            (controller.Controller, "handle", "controller.handle"),
            (controller.Controller, "retag_paths", "controller.retag_paths"),
            (harness.Simulation, "__init__", "harness.Simulation.init"),
            (harness.Simulation, "report", "harness.Simulation.report")):
        tracer.wrap_method(cls, attr, name)
    for module, attr, name in (
            (metrics, "measure", "metrics.measure"),
            (metrics, "to_csv_text", "metrics.to_csv_text"),
            (cli, "trace_ndjson", "cli.trace_ndjson"),
            (cli, "cmd_run", "cli.cmd_run"),
            (cli, "cmd_compare", "cli.cmd_compare"),
            (adversary, "launch", "adversary.launch"),
            (core, "validate_scenario", "core.validate_scenario"),
            (core, "decode_scenario", "core.decode_scenario"),
            (scenarios, "random_scenario", "scenarios.random_scenario")):
        tracer.wrap_function(module, attr, name)


def self_times(spans: Iterable[Span]) -> dict[str, list]:
    """Per span name: [calls, self wall seconds, self CPU seconds].

    Self time is a span's duration minus the durations of its children.
    A child is opened and closed inside its parent on the parent's own
    thread, so children never overlap one another and their durations add
    up to the part of the parent's interval they cover.
    """
    spans = list(spans)
    child_wall: dict[int, float] = defaultdict(float)
    child_cpu: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_wall[s.parent] += s.end - s.start
            child_cpu[s.parent] += s.cpu_end - s.cpu_start
    out: dict[str, list] = {}
    for s in spans:
        row = out.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (s.end - s.start) - child_wall[s.id]
        row[2] += (s.cpu_end - s.cpu_start) - child_cpu[s.id]
    return out
