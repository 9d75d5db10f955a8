"""Self-tests of the benchmark: span arithmetic, wrapper removal, and the
correctness gate.

    python3 -m pytest bench -q
"""
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest  # noqa: E402

from topodisc import harness, scenarios  # noqa: E402
from topodisc.core import validate_scenario  # noqa: E402

import workloads  # noqa: E402
from run import ROOT_SPAN, Run, layer_metrics  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def span(sid, parent, name, start, end, thread=1):
    return Span(sid, parent, thread, name, start, end, start / 2, end / 2)


def test_self_time_of_nested_spans():
    spans = [
        span(0, None, "root", 0.0, 10.0),
        span(1, 0, "a", 1.0, 4.0),
        span(2, 1, "b", 2.0, 3.0),
        span(3, 0, "a", 5.0, 6.0),
    ]
    times = self_times(spans)
    assert times["root"] == [1, 6.0, 3.0]
    assert times["a"] == [2, 3.0, 1.5]
    assert times["b"] == [1, 1.0, 0.5]
    assert sum(row[1] for row in times.values()) == 10.0


def test_self_time_of_overlapping_threads():
    # thread 2's spans overlap thread 1's in time but are not its children
    spans = [
        span(0, None, "main", 0.0, 10.0, thread=1),
        span(1, 0, "work", 2.0, 4.0, thread=1),
        span(2, None, "work", 1.0, 9.0, thread=2),
        span(3, 2, "leaf", 3.0, 8.0, thread=2),
    ]
    times = self_times(spans)
    assert times["main"][1] == 8.0
    assert times["work"] == [2, 5.0, 2.5]
    assert times["leaf"][1] == 5.0


def test_spans_nest_per_thread():
    tr = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def inner():
        barrier.wait()

    def worker():
        tr.call("outer", tr.call, "inner", inner)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    by_id = {s.id: s for s in tr.spans}
    inners = [s for s in tr.spans if s.name == "inner"]
    assert len(inners) == 2
    for s in inners:
        parent = by_id[s.parent]
        assert parent.name == "outer" and parent.thread == s.thread
    assert {s.thread for s in inners} == {t.ident for t in threads}


def _program_attributes():
    """Every module and class attribute of the program, by identity."""
    mods = [m for name, m in sys.modules.items()
            if name.split(".")[0] == "topodisc"]
    classes = [v for m in mods for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("topodisc")]
    return ({(m.__name__, k): v for m in mods for k, v in vars(m).items()},
            {(c.__qualname__, k): v for c in classes
             for k, v in vars(c).items()})


def _walkthrough(seed):
    return [("walk", scenarios.walkthrough())]


def _walk_workload():
    return workloads.Workload(
        setup=None,
        run=lambda seed, wd: workloads.run_pipeline(_walkthrough, seed, wd),
        check=workloads.churn_check, sim_key=lambda sim: sim.name)


def test_traced_run_restores_program_and_keeps_digests(tmp_path):
    before = _program_attributes()
    run = Run(_walk_workload(), 0, str(tmp_path), {})
    untraced_wall, _, _, plain = run.op("plain")
    tr = Tracer()
    wall, cpu, sims, traced = run.op("traced", tr)
    assert _program_attributes() == before
    assert harness.Simulation.__init__ is before[1][("Simulation", "__init__")]
    assert traced.digests == plain.digests
    _, _, _, after = run.op("after")
    assert after.digests == plain.digests
    assert run.failed == 0 and run.attempted == 3

    metrics, _ = layer_metrics(tr, sims, wall, cpu, untraced_wall)
    assert metrics["metrics.measure.calls"] == 2
    assert metrics["harness.Simulation.init.calls"] == 1
    assert metrics["simnet.engine.events_fired"] == sims["walk"].engine.fired
    layers = sum(row[1] for name, row in self_times(tr.spans).items()
                 if name != ROOT_SPAN)
    assert metrics["bench.unattributed.self_s"] + layers == pytest.approx(wall)


def test_wrong_pin_counts_as_failure(tmp_path):
    run = Run(_walk_workload(), 0, str(tmp_path), {})
    _, _, _, first = run.op("first")
    digest = first.digests["walk"]
    assert run.failed == 0

    run.pins = {"churn_softdp": {"walk": digest}}
    run.op("right")
    assert run.failed == 0

    run.pins = {"churn_softdp": {"walk": "0" * 64}}
    run.op("wrong")
    assert run.failed == 1 and run.attempted == 3
    assert "pin" in run.failures["wrong:walk"]


def test_wrong_verdict_counts_as_failure(tmp_path, monkeypatch):
    kind, protocol, in_window, succeeds = workloads.MATRIX[0]
    monkeypatch.setattr(workloads, "MATRIX",
                        ((kind, protocol, in_window, not succeeds),))
    spec = scenarios.attack_scenario(kind, protocol, in_window=in_window)
    key = workloads.matrix_key(kind, protocol, in_window)
    workload = workloads.Workload(
        setup=None,
        run=lambda seed, wd: workloads.run_pipeline(
            lambda s: [(key, spec)], seed, wd),
        check=workloads.matrix_check, sim_key=lambda sim: sim.name)
    run = Run(workload, 0, str(tmp_path), {})
    run.op("op")
    assert run.failed == 1 and "verdict" in run.failures[f"op:{key}"]


def test_relabel_keeps_structure_and_moves_labels():
    base = scenarios.random_scenario(3, n_switches=12, n_events=10)
    moved = workloads.relabel(base, 5)
    assert moved.rng_seed == 5
    assert sorted(l.delay_ab + l.delay_ba for l in moved.links) == \
        sorted(l.delay_ab + l.delay_ba for l in base.links)
    assert [type(ev) for ev in moved.timeline] == \
        [type(ev) for ev in base.timeline]
    assert {l.key() for l in moved.links} != {l.key() for l in base.links}
    assert validate_scenario(moved) == []
