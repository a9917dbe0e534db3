"""Tests for the standalone HTML report."""

import os
from html.parser import HTMLParser

import pytest

from repro.cli import main
from repro.core import RunData, html_report, write_html_report
from repro.workflows import ImageProcessingWorkflow, run_workflow


class _Validator(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.tags = []
        self.stack = []
        self.errors = []

    VOID = {"meta", "br", "hr", "img", "input", "link", "line", "rect",
            "circle", "polyline", "text", "path"}

    def handle_starttag(self, tag, attrs):
        self.tags.append(tag)
        if tag not in self.VOID:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        if tag in self.VOID:
            return
        if self.stack and self.stack[-1] == tag:
            self.stack.pop()
        elif tag in self.stack:
            while self.stack and self.stack[-1] != tag:
                self.stack.pop()
            if self.stack:
                self.stack.pop()


@pytest.fixture(scope="module")
def report_pair(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("report-run"))
    result = run_workflow(ImageProcessingWorkflow(scale=0.05), seed=8,
                          persist_dir=out)
    data = RunData.load(result.run_dir)
    return data, result.run_dir


class TestHtmlReport:
    def test_document_structure(self, report_pair):
        data, run_dir = report_pair
        document = html_report(data)
        validator = _Validator()
        validator.feed(document)
        assert "html" in validator.tags
        assert "svg" in validator.tags
        assert "table" in validator.tags

    def test_headline_numbers_present(self, report_pair):
        data, run_dir = report_pair
        document = html_report(data)
        assert "wall time" in document
        assert "thread utilization" in document
        assert "Critical path" in document
        assert "ImageProcessing" in document

    def test_write_report(self, report_pair, tmp_path):
        data, run_dir = report_pair
        path = write_html_report(data, str(tmp_path / "r" / "report.html"))
        assert os.path.exists(path)
        assert open(path).read().startswith("<!DOCTYPE html>")

    def test_cli_report_subcommand(self, report_pair, capsys):
        data, run_dir = report_pair
        assert main(["report", run_dir]) == 0
        path = capsys.readouterr().out.strip()
        assert path.endswith("report.html")
        assert os.path.exists(path)
