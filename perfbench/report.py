#!/usr/bin/env python3
"""Run every workload untraced and traced, check the results, print a table.

    python3 perfbench/report.py --tiny          # smoke test, under a minute
    python3 perfbench/report.py --seed 0        # full size, about five minutes

For each workload of ``BENCHMARK.json``, and for ``adapt-s-2w``, this
runs ``run.py`` with ``--trace 0`` and ``--trace 1`` and checks that

* both runs report correct results and no failed call;
* their metric names and units are exactly the ones ``BENCHMARK.json``
  lists as end-to-end and per-layer metrics;
* the traced run's estimate equals the untraced run's bit for bit;
* ``adapt-s-2w`` reproduces ``adapt-s`` (estimate and total work) bit for
  bit and started a worker pool.

It prints every metric by name with its unit and exits 1 on any problem.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, OUT, ROOT, record_stem

RUN_TIMEOUT_S = 600
TINY_SECONDS = 0.5
# Run here but not by the benchmark's regression gate: the only workload
# that starts the worker pool, and too noisy on two vCPUs to be gated.
UNGATED = ("adapt-s-2w",)


def run(workload, seed, seconds, trace, tiny):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if proc.returncode != 0:
        return None, f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = record_stem(workload, seed, trace, tiny)
    record = json.loads((OUT / f"{stem}.json").read_text())
    return (result, record), None


def outputs(record):
    """(estimate, total_work) of every call in a run record."""
    return {
        (c["outcome"]["estimate"].hex(), c["outcome"]["total_work"])
        for c in record["calls"]
        if c["outcome"] is not None
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = TINY_SECONDS if args.tiny else bench["run_seconds"]
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }

    problems = []
    seen = {}
    for name in [w["name"] for w in bench["workloads"]] + list(UNGATED):
        for trace in (0, 1):
            got, error = run(name, args.seed, seconds, trace, args.tiny)
            if error:
                problems.append(error)
                continue
            result, record = got
            seen[name, trace] = record
            where = f"{name} trace={trace}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} failed call(s)")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(
                    f"{where}: metrics differ from BENCHMARK.json: "
                    f"missing {sorted(set(expected[trace]) - set(units))}, "
                    f"extra {sorted(set(units) - set(expected[trace]))}, "
                    f"units {sorted((k, u) for k, u in units.items() if expected[trace].get(k, u) != u)}"
                )
            print(f"{name}  trace={trace}  seed={args.seed}  "
                  f"attempted={result['attempted']}  failed={result['failed']}")
            for metric, v in result["metrics"].items():
                print(f"  {metric:40s} {v['value']:>14.6g} {v['unit']}")
        if (name, 0) in seen and (name, 1) in seen:
            if len(outputs(seen[name, 0]) | outputs(seen[name, 1])) != 1:
                problems.append(f"{name}: traced and untraced estimates differ")

    if ("adapt-s", 0) in seen and ("adapt-s-2w", 0) in seen:
        if outputs(seen["adapt-s", 0]) != outputs(seen["adapt-s-2w", 0]):
            problems.append("adapt-s-2w does not reproduce adapt-s bit for bit")
    for trace in (0, 1):
        record = seen.get(("adapt-s-2w", trace))
        if record and not any(c["pools_started"] for c in record["calls"]):
            problems.append(f"adapt-s-2w trace={trace}: no worker pool started")

    for p in problems:
        print(f"PROBLEM: {p}")
    print("perfbench report: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
