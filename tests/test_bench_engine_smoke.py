"""The engine benchmark's smoke mode runs green.

``bench_engine.py --smoke`` exercises both tiers on tiny sizes under a
wall-time budget: the micro event storms (timed heap, zero-delay fast
lane, mixed) and a small ``run_many`` scaling pass that asserts the
process pool produces the serial run's event streams.  Running it here
keeps the benchmark — the budget guard and the serial-vs-process
parity assertion inside it — from rotting.
"""

import importlib.util
import pathlib

BENCH_PATH = (pathlib.Path(__file__).resolve().parents[1]
              / "benchmarks" / "bench_engine.py")


def test_engine_bench_smoke(capsys):
    spec = importlib.util.spec_from_file_location(
        "bench_engine_smoke", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--smoke"]) == 0
    out = capsys.readouterr().out
    assert "engine benchmark" in out
    assert "timeout_ring" in out
    assert "zero_delay" in out
    assert "mixed" in out
    assert "events/s" in out
    assert "process workers=2" in out
    assert "event streams identical to serial: yes" in out
    assert "smoke OK" in out          # budget guard engaged and passed
