"""Record the reference fingerprints the benchmark checks outputs against.

Usage, from the repository root::

    python3 perfbench/record_references.py

Runs every workload's journey once per seed in ``range(SEEDS)`` and
writes ``perfbench/references.json``.  A run whose seed has no entry
falls back to checking every repetition against its warm-up
repetition.  Re-record only for a change that is meant to alter the
simulated outputs.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (needs the package path above)

REFERENCES = os.path.join(HERE, "references.json")
#: Seeds recorded per workload.
SEEDS = 64


def main() -> int:
    table = {}
    workdir = os.path.join(os.getcwd(), ".perfbench_work", "references")
    for name, workload in workloads.WORKLOADS.items():
        seeds = {}
        for seed in range(SEEDS):
            outcome = workloads.journey(workload, seed, workdir)
            if outcome.problems:
                raise SystemExit(f"{name} seed {seed}: {outcome.problems}")
            seeds[str(seed)] = outcome.fingerprints
        table[name] = {"scale": workload.scale, "n_runs": workload.n_runs,
                       "seeds": seeds}
        print(f"{name}: {len(seeds)} seeds", flush=True)
    with open(REFERENCES, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
