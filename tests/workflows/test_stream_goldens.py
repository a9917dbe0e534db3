"""Ordered-stream pins: persisted Mofka partitions, logs and job record.

The parity goldens (``tests/dasklike/test_scheduler_scale_parity.py``)
hash the *sorted* transition set, so they cannot see two same-timestamp
events trade places inside a partition.  These digests pin the bytes of
every ``mofka/*.meta.jsonl``, ``logs.jsonl`` and ``job.json`` of three
runs whose streams hold same-instant ties that a change to the order of
engine events would flip:

* ResNet152 (scale 0.1, seed 40) has a batch-full kick at the instant
  the final drain calls ``close()``;
* XGBoost (scale 0.1, seeds 2 and 3) has idle producers whose linger
  grids run in lockstep.

The intake order of ``update_graph`` still follows string hashes, so
the runs are made in one subprocess under ``PYTHONHASHSEED=0``.  The
digests come from ``tests/dasklike/_stream_golden_gen.py``.  Making
``TaskGraph.dependents`` insertion-ordered (ROADMAP item 2) changes
that intake order and will re-record them.
"""

import json
import os
import pathlib
import subprocess
import sys

GENERATOR = (pathlib.Path(__file__).resolve().parents[1]
             / "dasklike" / "_stream_golden_gen.py")

GOLDENS = {
    "resnet152-s40": {
        "job.json": "6d7a59360dcf652c84150645f62c7dfa"
                    "56bec98d88dc670d9905c454e7a2e7aa",
        "logs.jsonl": "aebe920ac77fbd5be949071383558e49"
                      "5219e18aedfea481120fa50e79878185",
        "mofka/dask-provenance.0.meta.jsonl":
            "e594952c38cbfe52ab2adcfad0b25db3b6c5e532d6497d1eb5e7bf72d4c58b23",
        "mofka/dask-provenance.1.meta.jsonl":
            "4d8f6a93f84a289f8ab44408776ef14ed6e4ae235faf35834c8271e52d9ebce8",
        "mofka/dask-provenance.2.meta.jsonl":
            "23e49103c6fe47404c041f138a34875f504bb7c55b21ad562c5e040ca14303e0",
        "mofka/dask-provenance.3.meta.jsonl":
            "c75cdf7c5991c5f4a30b483878b06d5309b8ffe442b4d28225830f09920c16e9",
    },
    "xgboost-s2": {
        "job.json": "f5643f11e2a36010dd740a31babaf29b"
                    "fd1b03254c3bf2791c23d3b9e71e945a",
        "logs.jsonl": "e0865f74c90604884de7b4fae2a91b0d"
                      "1da2d7b0c667283edcd5d370e221aaab",
        "mofka/dask-provenance.0.meta.jsonl":
            "95937957b60d4e9da767b8b9676ac77b105bad731cb7bfe6d1e8fa9bfb208efd",
        "mofka/dask-provenance.1.meta.jsonl":
            "797b1adde3b440a68a7b6089514434d4e513918a8e5df0c4296268c7e4598552",
        "mofka/dask-provenance.2.meta.jsonl":
            "ac4b0ff9b0f439caa49d8b6d29059f6ba9b7d6c24b77e1d22fb3c9695a3a382a",
        "mofka/dask-provenance.3.meta.jsonl":
            "7b34c806b9a2f7692698e4e038b39b3ef00921e2b4b627b3568d6ddf15ea051b",
    },
    "xgboost-s3": {
        "job.json": "5dbcecc4106c2403c5baed05bb209f4e"
                    "6dbd4c43a73babbd6c036b691916a571",
        "logs.jsonl": "52322236bcf48f8a475fe17c64bde6ed"
                      "3a4a6f6da775b1a6f1b975ee36152636",
        "mofka/dask-provenance.0.meta.jsonl":
            "0e66ea797425aa4f53da616b817164895493a3fc6a199d265256304e30659f41",
        "mofka/dask-provenance.1.meta.jsonl":
            "8751a7eae4f98444c56d079df4980912b30d972c1adc28251a9983ed2ae74e84",
        "mofka/dask-provenance.2.meta.jsonl":
            "55d94d64ed2b888ede7e43e32bb171ee89989bc9832e2fe2bd2303bfe894e3ef",
        "mofka/dask-provenance.3.meta.jsonl":
            "c5c57601eefbaa65d2f18bb101407809fac95b82b11511212e8e8c10324a0de0",
    },
}


def test_ordered_streams_byte_identical():
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = subprocess.run([sys.executable, str(GENERATOR)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == GOLDENS
