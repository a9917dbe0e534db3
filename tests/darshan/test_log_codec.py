"""``write_log`` against the ``json.dump`` writer it replaced.

``write_log`` encodes a log with one ``json.dumps`` and writes the text
once.  :func:`ref_write_log` streams it with ``json.dump``, which runs
the pure-Python encoder.  Both write in this process, with one zlib
build, so the gzip bytes of every Darshan log of the three paper
workflows must be equal.
"""

import gzip
import io
import json
import pathlib

import pytest

from repro.darshan import write_log
from repro.instrument import recorder
from repro.workflows import (
    ImageProcessingWorkflow,
    ResNet152Workflow,
    XGBoostWorkflow,
    run_workflow,
)


def ref_write_log(log, path: str) -> None:
    with gzip.GzipFile(path, "wb", mtime=0) as raw, \
            io.TextIOWrapper(raw, encoding="utf-8") as fh:
        json.dump(log.to_dict(), fh)


@pytest.mark.parametrize("factory", [
    ImageProcessingWorkflow, ResNet152Workflow, XGBoostWorkflow,
])
def test_write_log_matches_json_dump_writer(factory, tmp_path, monkeypatch):
    ref_dir = tmp_path / "ref"
    ref_dir.mkdir()
    written = []

    def write_both(log, path):
        written.append(pathlib.Path(write_log(log, path)))
        # gzip records the file name in its header: keep it the same.
        ref_write_log(log, str(ref_dir / written[-1].name))
        return path

    monkeypatch.setattr(recorder, "write_log", write_both)
    run_workflow(factory(scale=0.05), seed=3,
                 persist_dir=str(tmp_path / "run"))
    assert len(written) == 8
    for path in written:
        assert path.read_bytes() == (ref_dir / path.name).read_bytes()
