"""Command line front end.

Three subcommands: ``run`` executes one scenario and writes the trace,
metric CSV, and JSON report; ``compare`` tabulates controller message
load for all three protocols across a list of topology sizes; ``attack``
launches one attack and prints the verdict with its evidence.

Exit codes are a stable contract: 0 success, 2 scenario problem
(validation failures are listed one per line), 3 anything else.  Output
files are written to a temp file and renamed so a crashed run never
leaves a truncated result behind.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import tempfile
from typing import Optional

from . import scenarios
from .core import (
    ATTACK_KINDS,
    AttackStart,
    LinkAdd,
    LinkRemove,
    MAX_TIME,
    Protocol,
    ScenarioSpec,
    SEC,
    decode_scenario,
    parse_duration,
)
from .harness import Simulation
from .metrics import to_csv_text

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_FAILURE = 3

COMPARE_HORIZON = 200 * SEC
COMPARE_SIZES = (0, 2, 4, 8, 16)

PROTOCOLS = {p.value: p for p in Protocol}


class ScenarioError(Exception):
    """Anything wrong with the scenario reference or its content."""


def load_scenario(ref: str, seed: int) -> tuple[str, ScenarioSpec]:
    """Resolve a scenario reference: a builder name, ``random``, or a
    YAML file path.  Returns (scenario id, spec)."""
    if ref in scenarios.BUILDERS:
        return ref, scenarios.BUILDERS[ref]()
    if ref == "random":
        return f"random-{seed}", scenarios.random_scenario(seed)
    try:
        with open(ref, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {ref!r}: {exc}")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"cannot read scenario {ref!r}: not UTF-8 "
                            f"({exc.reason}) at byte offset {exc.start}")
    try:
        spec = decode_scenario(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise ScenarioError(f"cannot parse scenario {ref!r}: {exc}")
    name = os.path.splitext(os.path.basename(ref))[0]
    return name, spec


@contextlib.contextmanager
def atomic_write(path: str):
    """Yield a temp file beside ``path`` and rename it to ``path`` once the
    block completes; on any error the temp file is removed instead."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def trace_ndjson(trace, fh) -> None:
    """Write one JSON object per record to ``fh``, one write per chunk of
    rows; an empty trace writes nothing."""
    fh.writelines(trace.ndjson_chunks())


def _parse_until(value: Optional[str]):
    """``--until`` is decimal seconds, converted exactly to ns."""
    if value is None:
        return None
    try:
        until = parse_duration(value + "s")
    except ValueError:
        raise ScenarioError(
            f"--until: expected decimal seconds such as 2.5, got {value!r}")
    if until > MAX_TIME:
        raise ScenarioError(f"--until: {value} s is above MAX_TIME ({MAX_TIME} ns)")
    return until


def _apply_overrides(spec: ScenarioSpec, args) -> ScenarioSpec:
    changes = {}
    if getattr(args, "protocol", None):
        changes["protocol"] = PROTOCOLS[args.protocol]
    if getattr(args, "seed", None) is not None:
        changes["rng_seed"] = args.seed
    return dataclasses.replace(spec, **changes) if changes else spec


# ---------------------------------------------------------------------------
# run

def _run_closed(spec: ScenarioSpec, name: str, until) -> Simulation:
    """Run ``spec`` to ``until`` and close the run, which stays readable;
    a spec the harness refuses is a scenario error."""
    try:
        sim = Simulation(spec, name=name)
    except ValueError as exc:
        raise ScenarioError(str(exc))
    with sim:
        sim.run(until)
    return sim


def cmd_run(args) -> int:
    until = _parse_until(args.until)
    name, spec = load_scenario(args.scenario, args.seed or 0)
    spec = _apply_overrides(spec, args)
    sim = _run_closed(spec, name, until)
    report = sim.report()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with atomic_write(os.path.join(args.out, "trace.ndjson")) as fh:
            trace_ndjson(sim.engine.trace, fh)
        with atomic_write(os.path.join(args.out, "metrics.csv")) as fh:
            fh.write(to_csv_text(sim.run_metrics()))
        with atomic_write(os.path.join(args.out, "report.json")) as fh:
            fh.write(json.dumps(report, indent=2, default=str) + "\n")
        print(f"{name}: protocol={report['protocol']} "
              f"events={len(report['metrics']['events'])} "
              f"digest={report['digest'][:12]} -> {args.out}")
    else:
        json.dump(report, sys.stdout, indent=2, default=str)
        print()
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare

def _churn_timeline(spec: ScenarioSpec, horizon) -> tuple:
    """One topology event per simulated second: the first declared link
    flaps down and up alternately for the whole horizon."""
    if not spec.links:
        return ()
    link = spec.links[0]
    events, alive, t = [], link.alive, 1 * SEC
    while t < horizon:
        cls = LinkRemove if alive else LinkAdd
        events.append(cls(t, link.a, link.b))
        alive = not alive
        t += 1 * SEC
    return tuple(events)


def _compare_cell(n: int, protocol: Protocol, seed: int) -> dict:
    if n == 0:
        spec = scenarios.empty_scenario(protocol)
    else:
        spec = scenarios.chain(n, protocol=protocol)
    spec = dataclasses.replace(
        spec, rng_seed=seed, timeline=_churn_timeline(spec, COMPARE_HORIZON))
    with Simulation(spec, name=f"chain{n}") as sim:
        m = sim.run(COMPARE_HORIZON).run_metrics()
    per_round = max((outs for (_, _, outs) in m.rounds), default=0)
    total = m.messages_total()
    seconds = COMPARE_HORIZON // SEC
    return {
        "n": n,
        "protocol": protocol.value,
        "packet_outs_per_round": per_round,
        "rounds": len(m.rounds),
        "packet_ins": m.msg_counts.get("PACKET_IN", 0),
        "total_ctrl_msgs": total,
        "msgs_per_sec": round(total / seconds, 3),
    }


COMPARE_COLUMNS = ("n", "protocol", "packet_outs_per_round", "rounds",
                   "packet_ins", "total_ctrl_msgs", "msgs_per_sec")


def cmd_compare(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",")] if args.sizes \
            else list(COMPARE_SIZES)
    except ValueError:
        raise ScenarioError(f"--sizes: expected comma separated switch "
                            f"counts such as 2,4,8, got {args.sizes!r}")
    for n in sizes:
        if n == 1 or n < 0:
            raise ScenarioError(f"size {n} not buildable: use 0 or >= 2")
    seed = args.seed or 0
    rows = [_compare_cell(n, proto, seed) for n in sizes for proto in
            (Protocol.OFDP, Protocol.OFDPV2, Protocol.SOFTDP)]

    by_key = {(r["n"], r["protocol"]): r for r in rows}
    violations = []
    for n in sizes:
        ofdp = by_key[(n, "ofdp")]["packet_outs_per_round"]
        v2 = by_key[(n, "ofdpv2")]["packet_outs_per_round"]
        soft = by_key[(n, "softdp")]["packet_outs_per_round"]
        if not ofdp >= v2 >= soft:
            violations.append(f"n={n}: periodic load {ofdp} >= {v2} >= {soft} fails")

    widths = [max(len(c), *(len(str(r[c])) for r in rows)) for c in COMPARE_COLUMNS]
    header = "  ".join(c.ljust(w) for c, w in zip(COMPARE_COLUMNS, widths))
    print(header)
    print("-" * len(header))
    for r in rows:
        print("  ".join(str(r[c]).ljust(w)
                        for c, w in zip(COMPARE_COLUMNS, widths)))

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        csv_lines = [",".join(COMPARE_COLUMNS)]
        csv_lines += [",".join(str(r[c]) for c in COMPARE_COLUMNS) for r in rows]
        with atomic_write(os.path.join(args.out, "compare.csv")) as fh:
            fh.write("\n".join(csv_lines) + "\n")

    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# attack

def cmd_attack(args) -> int:
    until = _parse_until(args.until)
    protocol = PROTOCOLS[args.protocol or "softdp"]
    if args.scenario:
        name, spec = load_scenario(args.scenario, args.seed or 0)
        spec = _apply_overrides(spec, args)
        declared = [ev.attack.kind for ev in spec.timeline
                    if isinstance(ev, AttackStart)]
        if args.attack not in declared:
            raise ScenarioError(
                f"scenario {name!r} declares no {args.attack!r} attack "
                f"(found: {declared or 'none'})")
    else:
        name = f"{args.attack}-{protocol.value}"
        spec = scenarios.attack_scenario(args.attack, protocol=protocol)
        if args.seed is not None:
            spec = dataclasses.replace(spec, rng_seed=args.seed)
    sim = _run_closed(spec, name, until)
    if not sim.attack_results:
        print("no verdict reached inside the horizon", file=sys.stderr)
        return EXIT_FAILURE
    for v in sim.attack_results:
        print(f"attack={v.kind} protocol={spec.protocol.value} "
              f"succeeded={v.succeeded}")
        for key in sorted(v.evidence):
            print(f"  {key}: {v.evidence[key]}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        payload = {"scenario": name, "protocol": spec.protocol.value,
                   "verdicts": [v.as_dict() for v in sim.attack_results]}
        with atomic_write(os.path.join(args.out, "attack.json")) as fh:
            fh.write(json.dumps(payload, indent=2, default=str) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topodisc",
        description="Discrete-event simulator for event-driven and "
                    "periodic SDN topology discovery.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario end to end")
    run.add_argument("--scenario", required=True,
                     help="YAML file, builder name "
                          f"({', '.join(sorted(scenarios.BUILDERS))}), or 'random'")
    run.add_argument("--protocol", choices=sorted(PROTOCOLS))
    run.add_argument("--seed", type=int)
    run.add_argument("--until", metavar="SIM_SECONDS",
                     help="stop the clock here instead of the scenario "
                          "default (decimal seconds, exact to the ns)")
    run.add_argument("--out", help="directory for trace.ndjson, metrics.csv, "
                                   "report.json")
    run.set_defaults(func=cmd_run)

    comp = sub.add_parser("compare",
                          help="message-load table for all three protocols")
    comp.add_argument("--sizes", help="comma separated switch counts "
                                      f"(default {','.join(map(str, COMPARE_SIZES))})")
    comp.add_argument("--seed", type=int)
    comp.add_argument("--out", help="directory for compare.csv")
    comp.set_defaults(func=cmd_compare)

    atk = sub.add_parser("attack", help="launch one attack, print the verdict")
    atk.add_argument("--attack", required=True, choices=ATTACK_KINDS)
    atk.add_argument("--protocol", choices=sorted(PROTOCOLS))
    atk.add_argument("--scenario",
                     help="optional scenario that declares the attack; "
                          "default is a two-host testbed chain")
    atk.add_argument("--seed", type=int)
    atk.add_argument("--until", metavar="SIM_SECONDS")
    atk.add_argument("--out", help="directory for attack.json")
    atk.set_defaults(func=cmd_attack)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SCENARIO
    except Exception as exc:  # noqa: BLE001 - contract maps these to exit 3
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
