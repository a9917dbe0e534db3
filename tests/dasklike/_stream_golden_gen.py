"""One-shot generator for the ordered-stream goldens.

Prints the sha256 of every ``mofka/*.meta.jsonl``, ``logs.jsonl`` and
``job.json`` that ``tests/workflows/test_stream_goldens.py`` pins.  The
digests depend on ``PYTHONHASHSEED`` (the intake order of
``update_graph`` follows string hashes), so always run it pinned::

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/dasklike/_stream_golden_gen.py

The test runs :func:`digests` in a subprocess under the same hash seed
and compares against the inlined output.
"""

import hashlib
import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve()
                       .parents[2] / "src"))

from repro.workflows import (  # noqa: E402
    ResNet152Workflow,
    XGBoostWorkflow,
    run_workflow,
)

#: ``(label, workflow factory, seed)``: the runs whose ordered streams
#: are pinned.  ResNet152 seed 40 has a batch-full kick and the final
#: drain's ``close()`` at one timestamp; XGBoost seeds 2 and 3 have
#: idle producers whose linger grids run in lockstep.
RUNS = (
    ("resnet152-s40", lambda: ResNet152Workflow(scale=0.1), 40),
    ("xgboost-s2", lambda: XGBoostWorkflow(scale=0.1), 2),
    ("xgboost-s3", lambda: XGBoostWorkflow(scale=0.1), 3),
)


def pinned_files(run_dir: pathlib.Path) -> list[pathlib.Path]:
    return (sorted((run_dir / "mofka").glob("*.meta.jsonl"))
            + [run_dir / "logs.jsonl", run_dir / "job.json"])


def digests() -> dict:
    out = {}
    for label, factory, seed in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            run_workflow(factory(), seed=seed, persist_dir=tmp)
            run_dir = next(pathlib.Path(tmp).glob("*/run0000"))
            out[label] = {
                str(path.relative_to(run_dir)):
                    hashlib.sha256(path.read_bytes()).hexdigest()
                for path in pinned_files(run_dir)
            }
    return out


if __name__ == "__main__":
    print(json.dumps(digests(), indent=2, sort_keys=True))
