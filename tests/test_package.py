"""Package-level checks: imports, version, public API coherence."""

import importlib
import pathlib
import re

import pytest

SUBPACKAGES = [
    "repro.sim", "repro.platform", "repro.jobs", "repro.dasklike",
    "repro.mofka", "repro.darshan", "repro.instrument", "repro.core",
    "repro.workflows", "repro.cli", "repro.experiments",
]


def test_version():
    """The package, its metadata and its citation name one version."""
    import repro
    assert repro.__version__
    root = pathlib.Path(__file__).resolve().parents[1]
    for name, pattern in (("pyproject.toml", r'^version = "([^"]+)"$'),
                          ("CITATION.cff", r"^version: (\S+)$")):
        text = (root / name).read_text(encoding="utf-8")
        found = re.findall(pattern, text, flags=re.MULTILINE)
        assert found == [repro.__version__], name


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} must carry a module docstring"


@pytest.mark.parametrize("name", [
    "repro.sim", "repro.platform", "repro.jobs", "repro.dasklike",
    "repro.mofka", "repro.darshan", "repro.instrument", "repro.core",
    "repro.workflows",
])
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


def test_experiment_registry_benches_exist():
    import os

    from repro.experiments import EXPERIMENTS
    root = os.path.join(os.path.dirname(__file__), "..")
    for experiment in EXPERIMENTS:
        path = os.path.join(root, experiment.bench)
        assert os.path.exists(path), experiment.bench


def test_every_public_function_documented():
    """Every symbol exported from repro.core has a docstring."""
    core = importlib.import_module("repro.core")
    undocumented = []
    for symbol in core.__all__:
        obj = getattr(core, symbol)
        if callable(obj) and not isinstance(obj, type):
            if not (obj.__doc__ or "").strip():
                undocumented.append(symbol)
    assert undocumented == []
