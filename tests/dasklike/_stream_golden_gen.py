"""One-shot generator for the ordered-stream goldens.

Prints the sha256 of every host-independent persisted file that
``tests/workflows/test_stream_goldens.py`` pins: each
``mofka/*.meta.jsonl``, ``mofka/*.warabi`` and ``mofka/MANIFEST``, the
decompressed JSON of each ``darshan/*.darshan.json.gz``, ``logs.jsonl``
and ``job.json``.  A Darshan log is hashed after ``gzip.decompress``
because its compressed bytes depend on the zlib build; the logs' raw
bytes are compared between two commits on one host instead (see
``tests/darshan/test_log_codec.py``).  ``provenance.json`` stays
unpinned: it records the Python version.

The digests depend on ``PYTHONHASHSEED`` (the intake order of
``update_graph`` follows string hashes), so always run it pinned::

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/dasklike/_stream_golden_gen.py

The test runs :func:`digests` in a subprocess under the same hash seed
and compares against the inlined output.
"""

import gzip
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
    mofka = run_dir / "mofka"
    return (sorted(mofka.glob("*.meta.jsonl"))
            + sorted(mofka.glob("*.warabi"))
            + [mofka / "MANIFEST"]
            + sorted((run_dir / "darshan").glob("*.darshan.json.gz"))
            + [run_dir / "logs.jsonl", run_dir / "job.json"])


def pinned_bytes(path: pathlib.Path) -> bytes:
    """The bytes pinned for ``path``: decompressed for a ``.gz`` file,
    raw for every other."""
    data = path.read_bytes()
    return gzip.decompress(data) if path.suffix == ".gz" else data


def digests() -> dict:
    out = {}
    for label, factory, seed in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            run_workflow(factory(), seed=seed, persist_dir=tmp)
            run_dir = next(pathlib.Path(tmp).glob("*/run0000"))
            out[label] = {
                str(path.relative_to(run_dir)):
                    hashlib.sha256(pinned_bytes(path)).hexdigest()
                for path in pinned_files(run_dir)
            }
    return out


if __name__ == "__main__":
    print(json.dumps(digests(), indent=2, sort_keys=True))
