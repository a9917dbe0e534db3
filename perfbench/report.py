"""Run every workload untraced and traced, and print one report.

Usage, from the repository root::

    python3 perfbench/report.py [--seed 1]

Prints the end-to-end metrics of each workload by name and unit, then
the per-layer table of the traced runs (one column per workload, with
``trace.overhead``).  Each run is a separate ``run.py`` process that
measures for ``BENCHMARK.json``'s ``run_seconds``, as the benchmark is
meant to be run.  Exits non-zero if any run was incorrect.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import declared, metric_units  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["meta"] = json.loads(lines[-3])["meta"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    names = [w["name"] for w in declared("workloads")]
    seconds = declared("run_seconds")
    plain = {name: run_once(name, args.seed, seconds, 0) for name in names}
    traced = {name: run_once(name, args.seed, seconds, 1) for name in names}

    print(json.dumps({"meta": plain[names[0]]["meta"]}))
    print()
    print(f"{'workload':<26} {'metric':<14} {'unit':<5} {'value':>12}  "
          f"error_rate")
    for name in names:
        result = plain[name]
        rate = f"{result['failed']}/{result['attempted']}"
        for metric, unit in metric_units("end_to_end").items():
            value = result["metrics"][metric]["value"]
            print(f"{name:<26} {metric:<14} {unit:<5} {value:>12.6g}  "
                  f"{rate}")
    print()
    print(f"{'layer metric':<30} {'unit':<6}"
          + "".join(f" {name[:18]:>18}" for name in names))
    for metric, unit in metric_units("per_layer").items():
        cells = "".join(f" {traced[name]['metrics'][metric]['value']:>18.6g}"
                        for name in names)
        print(f"{metric:<30} {unit:<6}{cells}")
    runs = list(plain.values()) + list(traced.values())
    return 0 if all(result["correct"] for result in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
