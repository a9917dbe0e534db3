"""Tests of the benchmark itself, at tiny scale.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402

TINY_SCALE = {"imageprocessing-offline": 0.03, "resnet152-live": 0.03,
              "xgboost-live": 0.03, "imageprocessing-x10": 0.02}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Every workload at tiny scale, one set-up probe, no recorded
    references, and the working directory in ``tmp_path``."""
    for name, scale in TINY_SCALE.items():
        workload = workloads.WORKLOADS[name]
        monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(
            workload, scale=scale,
            n_runs=min(workload.n_runs, 3)))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "REFERENCES", str(tmp_path / "refs.json"))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_main(capsys, *argv):
    assert run.main([*argv]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(TINY_SCALE))
def test_every_metric_with_its_unit(tiny, capsys, name):
    plain = run_main(capsys, "--workload", name, "--seed", "2",
                     "--seconds", "0", "--trace", "0")
    assert plain["correct"] and plain["failed"] == 0
    assert plain["attempted"] >= run.MIN_REPETITIONS
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == \
        run.metric_units("end_to_end")
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = run_main(capsys, "--workload", name, "--seed", "2",
                      "--seconds", "0", "--trace", "1")
    # ``correct`` also requires every count to repeat exactly between
    # the traced repetitions.
    assert traced["correct"], traced
    metrics = traced["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        run.metric_units("per_layer")
    for key, value in metrics.items():
        if value["unit"] == "s":
            assert value["value"] > 0, key
    # Layer accounting closes: the layers' self times cover the traced
    # run_workflow calls but for a small unattributed remainder.
    assert 0.9 < metrics["trace.attributed_share"]["value"] <= 1.0
    assert metrics["trace.overhead"]["value"] > 0
    assert metrics["sim.makespan_s"]["value"] > 0


def test_planted_wrong_digest_fails_every_repetition(tiny, capsys):
    name = "resnet152-live"
    workload = workloads.WORKLOADS[name]
    outcome = workloads.journey(workload, 2, str(tiny / "ref"))
    wrong = [dict(fp, transition_digest="0" * 16)
             for fp in outcome.fingerprints]
    with open(run.REFERENCES, "w") as fh:
        json.dump({name: {"scale": workload.scale,
                          "n_runs": workload.n_runs,
                          "seeds": {"2": wrong}}}, fh)
    result = run_main(capsys, "--workload", name, "--seed", "2",
                      "--seconds", "0", "--trace", "0")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_fingerprint_ignores_hash_seed(tmp_path):
    code = ("import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]];"
            "import workloads; w = workloads.WORKLOADS['xgboost-live'];"
            "import dataclasses; w = dataclasses.replace(w, scale=0.03);"
            "print(json.dumps(workloads.journey(w, 5, sys.argv[3])"
            ".fingerprints))")
    prints = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", code, os.path.join(ROOT, "src"), BENCH,
             str(tmp_path / hash_seed)],
            env=env, capture_output=True, text=True, check=True,
            timeout=300)
        prints.append(out.stdout)
    assert prints[0] == prints[1]


def test_empty_checkout_fails_without_result(tmp_path):
    """Without the package sources the benchmark exits non-zero and
    prints no result line."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as src, \
            open(tmp_path / "BENCHMARK.json", "w") as dst:
        dst.write(src.read())
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith((".py", ".json")):
            with open(os.path.join(BENCH, name)) as src, \
                    open(bench / name, "w") as dst:
                dst.write(src.read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "xgboost-live",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
