"""Tests for the ``perfrecup`` command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "xgboost"])
        assert args.workflow == "xgboost"
        assert args.runs == 1
        assert args.scale == 0.1

    def test_unknown_workflow_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "not-a-workflow", "--scale", "0.05"])


class TestListWorkflows:
    def test_lists_all(self, capsys):
        assert main(["list-workflows"]) == 0
        out = capsys.readouterr().out
        for name in ("imageprocessing", "resnet152", "xgboost"):
            assert name in out


@pytest.fixture(scope="module")
def persisted_run(tmp_path_factory):
    """One persisted small run, shared by the analyze/provenance tests."""
    out = str(tmp_path_factory.mktemp("cli-results"))
    from repro.workflows import ImageProcessingWorkflow, run_workflow
    result = run_workflow(ImageProcessingWorkflow(scale=0.05), seed=2,
                          persist_dir=out)
    return result.run_dir


class TestRun:
    def test_run_prints_summary(self, capsys, tmp_path):
        code = main(["run", "imageprocessing", "--runs", "2",
                     "--scale", "0.04", "--seed", "5",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "wall_s" in out
        assert out.count("run0") >= 1
        assert os.path.isdir(os.path.join(
            str(tmp_path), "imageprocessing", "run0001"))


class TestAnalyze:
    def test_analyze_persisted_run(self, capsys, persisted_run):
        assert main(["analyze", persisted_run]) == 0
        out = capsys.readouterr().out
        assert "Phase breakdown" in out
        assert "Longest task categories" in out
        assert "Darshan summary" in out

    def test_analyze_rejects_truncated_warabi(self, tmp_path,
                                              persisted_run):
        import shutil
        run_dir = shutil.copytree(persisted_run, tmp_path / "run")
        blobs = run_dir / "mofka" / "dask-provenance.0.warabi"
        blobs.write_bytes(blobs.read_bytes()[:-5])
        with pytest.raises(ValueError, match="truncated Warabi"):
            main(["analyze", str(run_dir)])


class TestProvenance:
    def test_provenance_default_key(self, capsys, persisted_run):
        assert main(["provenance", persisted_run]) == 0
        out = capsys.readouterr().out
        assert "states" in out
        assert "longest task" in out

    def test_provenance_explicit_key(self, capsys, persisted_run):
        from repro.core import AnalysisSession, RunData
        data = RunData.load(persisted_run)
        key = AnalysisSession.of(data).task_view()["key"][0]
        assert main(["provenance", persisted_run, "--key", key]) == 0
        out = capsys.readouterr().out
        assert "execution" in out


class TestCompare:
    def test_compare_needs_two_runs(self, persisted_run):
        import os
        parent = os.path.dirname(persisted_run)
        with pytest.raises(SystemExit):
            main(["compare", parent + "-nonexistent"])

    def test_compare_report(self, capsys, tmp_path):
        from repro.workflows import ImageProcessingWorkflow, run_many
        run_many(lambda: ImageProcessingWorkflow(scale=0.04), n_runs=2,
                 seed=6, persist_dir=str(tmp_path))
        runs_dir = str(tmp_path / "imageprocessing")
        assert main(["compare", runs_dir]) == 0
        out = capsys.readouterr().out
        assert "Phase variability over 2 runs" in out
        assert "Pairwise scheduling comparison" in out


class TestZoom:
    def test_zoom_window_stats(self, capsys, persisted_run):
        assert main(["zoom", persisted_run, "--start", "0",
                     "--end", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "Window [0.0s, 1.0s)" in out
        assert "n_tasks_active" in out
        assert "active categories" in out

    def test_zoom_defaults_to_full_run(self, capsys, persisted_run):
        assert main(["zoom", persisted_run]) == 0
        out = capsys.readouterr().out
        assert "io_ops" in out


class TestReportCLI:
    def test_report_written(self, capsys, persisted_run, tmp_path):
        out_path = str(tmp_path / "rep.html")
        assert main(["report", persisted_run, "--out", out_path]) == 0
        content = open(out_path).read()
        assert "HEATMAP" in content
        assert "Critical path" in content


class TestFigures:
    def test_figures_rendered(self, capsys, persisted_run, tmp_path):
        out_dir = str(tmp_path / "figs")
        assert main(["figures", persisted_run, "--out", out_dir]) == 0
        files = os.listdir(out_dir)
        assert {"per_thread_io.svg", "comm_scatter.svg",
                "parallel_coordinates.svg",
                "warning_distribution.svg"} <= set(files)
        content = open(os.path.join(out_dir, "per_thread_io.svg")).read()
        assert content.startswith("<svg")


class TestLint:
    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == []
        assert args.format == "text"
        assert args.rules is None

    def test_lint_real_tree_clean(self, capsys, shared_lint_run):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_lint_json_format(self, capsys, shared_lint_run):
        import json
        assert main(["lint", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["exit_code"] == 0
        assert "det-wallclock" in document["rules_run"]

    def test_lint_dirty_fixture_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.time()\n")
        assert main(["lint", str(bad)]) == 1

    def test_lint_rule_selection(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.time()\n")
        # Provenance-only run does not see the determinism violation.
        assert main(["lint", "--rules", "provenance", str(bad)]) == 0

    def test_lint_unknown_rule_is_usage_error(self, capsys):
        assert main(["lint", "--rules", "bogus"]) == 2

    def test_lint_write_and_use_baseline(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.time()\n")
        baseline = str(tmp_path / "baseline.json")
        assert main(["lint", "--write-baseline", baseline,
                     str(bad)]) == 0
        assert main(["lint", "--baseline", baseline, str(bad)]) == 0


class TestSanitize:
    def test_sanitize_defaults(self):
        args = build_parser().parse_args(["sanitize", "imageprocessing"])
        assert args.workflow == "imageprocessing"
        assert args.scale == 0.05

    def test_sanitize_small_workflow_clean(self, capsys):
        assert main(["sanitize", "imageprocessing",
                     "--scale", "0.04", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "events_processed=" in out

    def test_sanitize_unknown_workflow_exits(self):
        with pytest.raises(SystemExit):
            main(["sanitize", "not-a-workflow"])


class TestExperiments:
    def test_registry_listing(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for eid in ("T1", "F3", "F8", "A2", "E1"):
            assert eid in out

    def test_single_experiment_claims(self, capsys):
        assert main(["experiments", "--id", "f6"]) == 0
        out = capsys.readouterr().out
        assert "read_parquet-fused-assign" in out

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["experiments", "--id", "Z9"])
