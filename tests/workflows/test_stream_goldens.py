"""Ordered-stream pins: every host-independent persisted file of a run.

The parity goldens (``tests/dasklike/test_scheduler_scale_parity.py``)
hash the *sorted* transition set, so they cannot see two same-timestamp
events trade places inside a partition.  These digests pin the bytes of
every ``mofka/*.meta.jsonl``, ``mofka/*.warabi``, ``mofka/MANIFEST``,
``logs.jsonl`` and ``job.json``, and the decompressed JSON of every
``darshan/*.darshan.json.gz``, of three runs whose streams hold
same-instant ties that a change to the order of engine events would
flip:

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
        "mofka/MANIFEST":
            "ce276c1de89bb44c0342d6533e24c58872119f7dfb68e64fa4c3cef670d5c2da",
        "mofka/dask-provenance.0.meta.jsonl":
            "3eb799595ceec0ed6b93f7e0260e2896f6bf3ce44e613829ea7362dc72d5cdd0",
        "mofka/dask-provenance.0.warabi":
            "e6f25ee8a745505edc8f2e32cbab78f03f092957cee9e3a7c3abc3a9ce5b55ab",
        "mofka/dask-provenance.1.meta.jsonl":
            "c9f8d9283c212d79c325b444b48c80b936053c0aaf8198ac4beaff2ae2f39a13",
        "mofka/dask-provenance.1.warabi":
            "eebadb4a2810efcd7a6d36f59706a9aaf7b3d534e806dccaae647af2725927c7",
        "mofka/dask-provenance.2.meta.jsonl":
            "a0056f7289dcc47b97d9bba846db880036e9c9f9ce80860f60935495fd53e07e",
        "mofka/dask-provenance.2.warabi":
            "5cb1832ef1945f0c1dc08cb1b4e7db1e6e1e28a55e4fa881f5862e795aeffa8d",
        "mofka/dask-provenance.3.meta.jsonl":
            "65533372e20f8f97cb79d08f46f972c4d939da8573bbbb09c61e2b73f0aad5b5",
        "mofka/dask-provenance.3.warabi":
            "c1bf70b7ddfd8699d94de938961fa89ca80467628fd22202192b2e43d497f164",
        "darshan/worker-000.darshan.json.gz":
            "e4e91521a7a0ed97e2d15358ea3f8612a7cc6253755512055aa0b09f9340cb85",
        "darshan/worker-001.darshan.json.gz":
            "22891c46d758d34d8b3231497fee6fd96eb93dffab360cb1baf884f4730a5ef9",
        "darshan/worker-002.darshan.json.gz":
            "fc213e02248b942b71cdc4adb1efa767877364c2660dd3330d31ab9d73cede80",
        "darshan/worker-003.darshan.json.gz":
            "22f787f53f0a756a84867d304a2be5bd95f2f51691dcfd6d6be95368c5d53628",
        "darshan/worker-004.darshan.json.gz":
            "2a5c3c89cda46ca6e63c8a78a5b8cba3551ce99a88f222edfd1b680ce08a772d",
        "darshan/worker-005.darshan.json.gz":
            "7a46c8601f69ce87564aacdc446d005c4082f391bb1af345831be1f67ab94227",
        "darshan/worker-006.darshan.json.gz":
            "e34f38de232d322d96478f9a9d3755d278c11d3ea0e7a6eb3629806849bc1bc9",
        "darshan/worker-007.darshan.json.gz":
            "8618858ab6630e1673df3954db6fefff263d3a4aafb04071692d342fb7d99723",
    },
    "xgboost-s2": {
        "job.json": "f5643f11e2a36010dd740a31babaf29b"
                    "fd1b03254c3bf2791c23d3b9e71e945a",
        "logs.jsonl": "e0865f74c90604884de7b4fae2a91b0d"
                      "1da2d7b0c667283edcd5d370e221aaab",
        "mofka/MANIFEST":
            "ce276c1de89bb44c0342d6533e24c58872119f7dfb68e64fa4c3cef670d5c2da",
        "mofka/dask-provenance.0.meta.jsonl":
            "abf257000be44ca87e57c63a5362950d97fc8e2374afdbb06d6960eec0ca4c3d",
        "mofka/dask-provenance.0.warabi":
            "5e9fae97821b550878ea55b6b0f9d96f61e08f08b04e3205c6a0e4d744047f0d",
        "mofka/dask-provenance.1.meta.jsonl":
            "d53a56296deb07dfb982af3ae9ddf3c67eec17417c25aedbb4489606516a743b",
        "mofka/dask-provenance.1.warabi":
            "c2dece9c9f14c67b8aafabdcb80793f1cffe95a801e15d648fd214a0522ee825",
        "mofka/dask-provenance.2.meta.jsonl":
            "69520da6290a96a539fe58d55d74019b571f3a7b5596ffb115381844fe13972c",
        "mofka/dask-provenance.2.warabi":
            "2b1b920dc641c4fc04e479010122eb7e8861af9fc9ee2fe3b1e9fcdaaf44ce3b",
        "mofka/dask-provenance.3.meta.jsonl":
            "91743d3277e6770339837d7864fbed813ada2fad07146750e4ce98263d114083",
        "mofka/dask-provenance.3.warabi":
            "e616feaaa718592e1a1e66e32d80c8e66277d6a8b6488fd853ef7081f7dca8ab",
        "darshan/worker-000.darshan.json.gz":
            "52e337607671f9f8a34f292140ad1474d9f8dcafacd9fe548b8be3184c162e7e",
        "darshan/worker-001.darshan.json.gz":
            "c2f55007b875018836dcbaf8ef2d89333f0e827b3cecc9f9545556f4a720802e",
        "darshan/worker-002.darshan.json.gz":
            "2ee72ae29d281c80a2fde5a9588b2f7a1af051d398aae03a4fafef75153d7651",
        "darshan/worker-003.darshan.json.gz":
            "848a7bfd9f9de9b285b8414d23931d22e2bfb90f34966132548cbff0edcba80b",
        "darshan/worker-004.darshan.json.gz":
            "3d9bcbb29daa4bb823a4c86d376a6b60b713785b9beac58ad1cc86824f9b03c7",
        "darshan/worker-005.darshan.json.gz":
            "16a42a7267a933f0f4c0db6881cbe80ae861643b0dfc19d891ab651007ba6a22",
        "darshan/worker-006.darshan.json.gz":
            "b5c0cff1176079606502ce7f55ef3e19a6ee79d263ccdc1bca54b4d2d711aad0",
        "darshan/worker-007.darshan.json.gz":
            "851f6948e6db94a4597b32ba98f06aa5b334c8f18a9e33a3ff90e9581ba635ff",
    },
    "xgboost-s3": {
        "job.json": "5dbcecc4106c2403c5baed05bb209f4e"
                    "6dbd4c43a73babbd6c036b691916a571",
        "logs.jsonl": "52322236bcf48f8a475fe17c64bde6ed"
                      "3a4a6f6da775b1a6f1b975ee36152636",
        "mofka/MANIFEST":
            "ce276c1de89bb44c0342d6533e24c58872119f7dfb68e64fa4c3cef670d5c2da",
        "mofka/dask-provenance.0.meta.jsonl":
            "e8dcf647f736d53689529907b18a8b088bd6b8868027ad55becbfa6a145a9b74",
        "mofka/dask-provenance.0.warabi":
            "2877809b5417e3aef19a1f8e70f8b5b8b4757edc9ce3d5d3991f7407f46c9dd6",
        "mofka/dask-provenance.1.meta.jsonl":
            "0260167ebbeef33a402d796fc831fb2c105b21a213a7b8a38f0e609e6b17b8fc",
        "mofka/dask-provenance.1.warabi":
            "15ac6aff90154c65cf4d4f71cc7c70bc0f8f4b235a329965e51e95869bd3c588",
        "mofka/dask-provenance.2.meta.jsonl":
            "b6a5f9612efd799c73343f08525221dacac84b897bbe489aca235dbba26677d0",
        "mofka/dask-provenance.2.warabi":
            "b70a8b36a22dce2d8436711144a12b44358158aebf8b2e7994e82d3a7c7e005f",
        "mofka/dask-provenance.3.meta.jsonl":
            "f37288fa84c25f8832ca0bf84d1f1a26c6a6c5e4eb4a3f18e151d7850c5cc0aa",
        "mofka/dask-provenance.3.warabi":
            "f2a21c6495254d9eb8b67df4c8152228fe4abcbd0796bbde95327e67e4a1c25a",
        "darshan/worker-000.darshan.json.gz":
            "d3178b8279048e871df73f8892900d8a61002ba3a37f019db8c6a83d1b953022",
        "darshan/worker-001.darshan.json.gz":
            "fa3a7e11af282ec5690c8bdd7960b66fccb871c48eaabec4bde2c56ca9754f50",
        "darshan/worker-002.darshan.json.gz":
            "078482fa47beca881c8ea9b27ca83f2bf8c77a316e6ba80804403819490fb2c3",
        "darshan/worker-003.darshan.json.gz":
            "54266c8c4148ff79d0899eb845be8b44357e78c6612f598e45af9e922d511bd2",
        "darshan/worker-004.darshan.json.gz":
            "51edbe14cac8deed6e0772998737131ecdebc4f96502b176a44a50e0f9b82f5c",
        "darshan/worker-005.darshan.json.gz":
            "20ded14866421b80e1ce05d070c818b1cddac1fdbbdf1fe37e2cc4bad17eeb88",
        "darshan/worker-006.darshan.json.gz":
            "6609a8a43b77a99dac6dd4df2039b3f551977c8b879d0dbade07b03b7743497f",
        "darshan/worker-007.darshan.json.gz":
            "6ba4230dba25ff63acb881bffd99a4f087f2029d3b55841f0d47b0aae2c6e860",
    },
}


def test_ordered_streams_byte_identical():
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = subprocess.run([sys.executable, str(GENERATOR)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == GOLDENS
