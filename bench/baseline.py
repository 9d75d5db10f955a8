"""Measure the benchmark's baseline and write ``bench/baseline.json``.

    python3 bench/baseline.py

Runs every workload once per seed from 1 to 10 with ``--trace 0`` and
once at the pin seed with ``--trace 1``, using ``run_seconds`` from
``BENCHMARK.json``.
For each end-to-end metric it records the number of runs, the median and
quartiles over the runs (``statistics.quantiles(values, n=4)``), the
spread (interquartile range over median) and the metric's bound, and it
names every spread that exceeds a third of its bound.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list, bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"runs": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound}


def main() -> int:
    seeds = list(range(1, 11))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]

    out = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    wide = []
    for name in names:
        results = []
        for seed in seeds:
            results.append(run_once(name, seed, bench["run_seconds"], 0))
            print(f"{name} seed {seed}: "
                  f"{json.dumps(results[-1]['metrics'])}", file=sys.stderr)
        traced = run_once(name, 7, bench["run_seconds"], 1)
        entry = {
            "attempted": sum(r["attempted"] for r in results + [traced]),
            "failed": sum(r["failed"] for r in results + [traced]),
            "correct": all(r["correct"] for r in results + [traced]),
            "end_to_end": {},
            "per_layer_seed7": {k: v["value"]
                                for k, v in traced["metrics"].items()},
        }
        for metric in bench["end_to_end"]:
            summary = summarize(
                [r["metrics"][metric["name"]]["value"] for r in results],
                metric["bound"])
            entry["end_to_end"][metric["name"]] = summary
            if summary["spread"] > metric["bound"] / 3:
                wide.append(f"{name}.{metric['name']}: spread "
                            f"{summary['spread']:.3f} > bound/3")
        out["workloads"][name] = entry

    with open(HERE / "baseline.json", "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for line in wide:
        print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
