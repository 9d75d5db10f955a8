"""topodisc benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` and
``failed`` count simulations (1 per churn operation, 15 per grid, 11 per
matrix); a simulation fails when its command exits non-zero or an output
differs from its pin or oracle.

``--trace 0`` reports the end-to-end metrics, all host time:

- ``wall_s``: mean seconds of one whole operation over the run, from
  spec construction to every output file written;
- ``setup_s``: median seconds of spec construction plus ``Simulation``
  construction alone, repeated twice before every operation;
- ``sim_s_per_s``: simulated seconds of one operation per ``wall_s``;
- ``peak_rss_mb``: peak resident memory of the benchmark's process after
  its first operation, which runs before anything else.

``--trace 1`` reports the per-layer split from operations run with span
wrappers installed (see ``tracer.py``), next to untraced operations of
the same run.  The spans of the last traced operation go to
``.bench_out/spans-<workload>.csv`` and the layer table to
``.bench_out/layers-<workload>.json``.

``--pin`` rewrites ``pins.json`` from the current program at the pin
seed; do that only for a change that alters traces on purpose.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Optional

from tracer import DISPATCH, Tracer, install, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
PINS = HERE / "pins.json"
PIN_SEED = 7

SETUPS_PER_OP = 2
MIN_OPS = 3

# Event kinds reported one by one; any other kind is summed under "other".
DISPATCH_KINDS = (
    "adaptation_probe", "attack_flood", "attack_inject", "attack_relay",
    "attack_verdict", "bfd_established", "bfd_timeout", "channel_close_notice",
    "ctrl-BFD_STATUS", "ctrl-FEATURE_REPLY", "ctrl-FEATURE_REQUEST",
    "ctrl-FLOW_MOD", "ctrl-GROUP_MOD", "ctrl-HELLO", "ctrl-PACKET_IN",
    "ctrl-PACKET_OUT", "ctrl-PORT_STATUS", "discovery_round",
    "flow_rule_expiry", "frame", "join_links_up", "superseded_purge",
    "switch_hello", "timeline")

# Wrapped layers, each reported as .calls, .self_s and .self_cpu_s.
LAYERS = (
    "simnet.engine.run_until",
    "simnet.fabric.send_frame",
    "simnet.fabric.send_control",
    "simnet.fabric.inject_frame",
    "simnet.trace.record",
    "simnet.trace.digest",
    "switch_agent.forward",
    "switch_agent.handle_control",
    "switch_agent.forward_via_group",
    "controller.handle",
    "controller.retag_paths",
    "metrics.measure",
    "metrics.to_csv_text",
    "cli.trace_ndjson",
    "cli.cmd_run",
    "cli.cmd_compare",
    "adversary.launch",
    "harness.Simulation.init",
    "harness.Simulation.report",
    "core.validate_scenario",
    "core.decode_scenario",
    "scenarios.random_scenario",
)
ROOT_SPAN = "bench.op"


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or ".dispatch_s." in name:
        return "s"
    if name.endswith(("_ratio", "_per_pair")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------

class Run:
    """One benchmark run of one workload: counts operations and failures,
    and checks that every operation reproduces the first one's digests."""

    def __init__(self, workload, seed: int, workdir: str, pins: dict):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.failures: dict = {}
        self.reference: dict = {}

    def account(self, checked, label: str) -> None:
        failures = dict(checked.failures)
        for key, digest in checked.digests.items():
            if digest is None or key in failures:
                continue
            ref = self.reference.setdefault(key, digest)
            if digest != ref:
                failures[key] = f"digest {digest[:12]} differs from an " \
                                f"earlier operation's {ref[:12]}"
        self.attempted += len(checked.digests)
        self.failed += len(failures)
        for key, reason in failures.items():
            self.failures.setdefault(f"{label}:{key}", reason)

    def op(self, label: str, tracer: Optional[Tracer] = None,
           capture: bool = True):
        """One timed operation, traced when a tracer is given.  Returns (wall
        seconds, process CPU seconds, captured simulations by key, check
        result).  Without ``capture`` no simulation outlives its command
        and the checks read the output files only."""
        from workloads import capture_simulations
        # no output of an earlier operation may pass for this one's
        shutil.rmtree(self.workdir)
        os.mkdir(self.workdir)
        gc.collect()
        hook = capture_simulations() if capture else contextlib.nullcontext(None)
        with hook as captured:
            if tracer is None:
                t0, c0 = time.perf_counter(), time.process_time()
                codes = self.workload.run(self.seed, self.workdir)
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
            else:
                install(tracer)
                try:
                    c0 = time.process_time()
                    codes = tracer.call(ROOT_SPAN, self.workload.run,
                                        self.seed, self.workdir)
                    cpu = time.process_time() - c0
                finally:
                    tracer.restore()
                root = next(s for s in tracer.spans if s.name == ROOT_SPAN)
                wall = root.end - root.start
        sims = (None if captured is None
                else {self.workload.sim_key(s): s for s in captured})
        checked = self.workload.check(self.workdir, codes, sims, self.pins)
        self.account(checked, label)
        return wall, cpu, sims, checked


def end_to_end(run: Run, seconds: float) -> dict:
    start = time.perf_counter()
    # The first operation runs before anything else has grown the heap, and
    # without the capture hook, which would keep every simulation alive: the
    # process's peak after it is that of a fresh process running it once.
    wall, _, _, checked = run.op("op0", capture=False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups, walls, sim_seconds = [], [wall], checked.sim_seconds
    while len(walls) < MIN_OPS or time.perf_counter() - start < seconds:
        # set-up repetitions are spread over the run like the operations
        for _ in range(SETUPS_PER_OP):
            gc.collect()
            t0 = time.perf_counter()
            run.workload.setup(run.seed, run.workdir)
            setups.append(time.perf_counter() - t0)
        wall, _, sims, checked = run.op(f"op{len(walls)}")
        del sims
        walls.append(wall)
        sim_seconds = checked.sim_seconds
    # The host's speed drifts over tens of seconds; the mean integrates the
    # whole run, where a median of a few operations follows the drift.
    wall_s = statistics.fmean(walls)
    print(f"wall_s per operation: {', '.join(f'{w:.4f}' for w in walls)}",
          file=sys.stderr)
    return {
        "wall_s": _metric(wall_s, "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "sim_s_per_s": _metric(sim_seconds / wall_s, "sim_s/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def layer_metrics(tracer, sims: dict, wall: float, cpu: float,
                  untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced operation, and the per-kind trace
    record counts behind them."""
    times = self_times(tracer.spans)
    m: dict = {}
    for layer in LAYERS:
        calls, self_wall, self_cpu = times.get(layer, (0, 0.0, 0.0))
        m[f"{layer}.calls"] = calls
        m[f"{layer}.self_s"] = self_wall
        m[f"{layer}.self_cpu_s"] = self_cpu

    kinds = dict.fromkeys(DISPATCH_KINDS + ("other",), 0.0)
    dispatch_wall = dispatch_cpu = 0.0
    for name, (_, self_wall, self_cpu) in times.items():
        if name.startswith(DISPATCH):
            kind = name[len(DISPATCH):].replace(":", "-")
            kinds[kind if kind in kinds else "other"] += self_wall
            dispatch_wall += self_wall
            dispatch_cpu += self_cpu
    m["simnet.engine.dispatch_self_s"] = dispatch_wall
    m["simnet.engine.dispatch_self_cpu_s"] = dispatch_cpu
    for kind, value in kinds.items():
        m[f"simnet.engine.dispatch_s.{kind}"] = value

    # counters, read from the simulations' public state after the run
    sims = list(sims.values())
    fired = sum(s.engine.fired for s in sims)
    m["simnet.engine.events_fired"] = fired
    m["simnet.engine.events_scheduled"] = len(tracer.scheduled)
    m["simnet.engine.events_cancelled"] = sum(
        1 for ev in tracer.scheduled if ev.cancelled)
    m["simnet.engine.events_per_s"] = fired / untraced_wall
    fabric = Counter()
    for s in sims:
        fabric.update(s.fabric.counters)
    m["simnet.fabric.frame_delivery_ratio"] = (
        fabric["frames_delivered"] / fabric["frames_sent"]
        if fabric["frames_sent"] else 0.0)
    records = Counter()
    pairs = 0
    for s in sims:
        for r in s.engine.trace.records:
            records[r.kind] += 1
            if r.kind == "retag":
                pairs += dict(r.detail)["pairs_recomputed"]
    m["simnet.trace.records"] = sum(records.values())
    m["controller.retag_paths.pairs_recomputed"] = pairs
    m["controller.retag_paths.group_sends"] = records["group_dispatch"]
    m["controller.retag_paths.groups_per_pair"] = (
        records["group_dispatch"] / pairs if pairs else 0.0)

    m["bench.traced_wall_s"] = wall
    m["trace_overhead_s"] = wall - untraced_wall
    m["bench.unattributed.self_s"] = wall - sum(
        row[1] for name, row in times.items() if name != ROOT_SPAN)
    m["bench.unattributed.self_cpu_s"] = cpu - sum(
        row[2] for name, row in times.items() if name != ROOT_SPAN)
    controller = Counter()
    for s in sims:
        controller.update(s.controller.counters)
    detail = {"trace_records_per_kind": dict(sorted(records.items())),
              "fabric_counters": dict(sorted(fabric.items())),
              "controller_counters": dict(sorted(controller.items()))}
    return m, detail


def per_layer(run: Run, workload_name: str, seconds: float) -> dict:
    """Alternate untraced and traced operations for ``seconds``; report the
    median of each layer metric over the traced ones."""
    samples: list[dict] = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        n = len(samples)
        untraced_wall, _, sims, _ = run.op(f"untraced{n}")
        del sims
        # a traced digest that differs from the untraced ones is a failure
        # in Run.account, like any other change between operations
        tracer = Tracer()
        wall, cpu, sims, _ = run.op(f"traced{n}", tracer)
        metrics, detail = layer_metrics(tracer, sims, wall, cpu, untraced_wall)
        samples.append(metrics)
        del sims
    OUT.mkdir(exist_ok=True)
    tracer.write_csv(str(OUT / f"spans-{workload_name}.csv"))
    with open(OUT / f"layers-{workload_name}.json", "w") as fh:
        json.dump({"metrics": samples[-1], **detail}, fh, indent=1)
    out = {}
    for name in samples[0]:
        value = statistics.median(s[name] for s in samples)
        out[name] = _metric(value, _unit(name))
    return out


def per_layer_names() -> list[str]:
    """Every per-layer metric name ``--trace 1`` reports, in order."""
    names = [f"{layer}.{stat}" for layer in LAYERS
             for stat in ("calls", "self_s", "self_cpu_s")]
    names += ["simnet.engine.dispatch_self_s",
              "simnet.engine.dispatch_self_cpu_s"]
    names += [f"simnet.engine.dispatch_s.{k}" for k in DISPATCH_KINDS + ("other",)]
    names += ["simnet.engine.events_fired", "simnet.engine.events_scheduled",
              "simnet.engine.events_cancelled", "simnet.engine.events_per_s",
              "simnet.fabric.frame_delivery_ratio", "simnet.trace.records",
              "controller.retag_paths.pairs_recomputed",
              "controller.retag_paths.group_sends",
              "controller.retag_paths.groups_per_pair",
              "bench.traced_wall_s", "trace_overhead_s",
              "bench.unattributed.self_s", "bench.unattributed.self_cpu_s"]
    return names


def write_pins(all_workloads: dict, workdir: str) -> None:
    from workloads import capture_simulations
    pins: dict = {"seed": PIN_SEED}
    for name, wl in all_workloads.items():
        with capture_simulations() as captured:
            codes = wl.run(PIN_SEED, workdir)
        sims = {wl.sim_key(s): s for s in captured}
        if any(codes.values()):
            raise SystemExit(f"{name}: a simulation failed: {codes}")
        digests = {key: sims[key].engine.trace.digest() for key in sorted(codes)}
        pins[name] = digests
        if name == "compare_grid":
            with open(os.path.join(workdir, "compare.csv")) as fh:
                pins[name] = {"digests": digests, "compare_csv": fh.read()}
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite pins.json at the pin seed and exit")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "topodisc" / "__init__.py").is_file():
        print(f"bench: no topodisc sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if not args.pin and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.pin:
            write_pins(WORKLOADS, str(workdir))
            return 0
        with open(PINS) as fh:
            pins = json.load(fh)
        if args.seed != pins["seed"]:
            pins = {"compare_grid": {"compare_csv":
                                     pins["compare_grid"]["compare_csv"]}}
        run = Run(WORKLOADS[args.workload], args.seed, str(workdir), pins)
        if args.trace:
            metrics = per_layer(run, args.workload, args.seconds)
        else:
            metrics = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for label, reason in sorted(run.failures.items()):
        print(f"FAIL {label}: {reason}", file=sys.stderr)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
