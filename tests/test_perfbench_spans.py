"""The benchmark's traced run finds every layer it wraps.

``perfbench/spans.py`` (unchanged) names the zerowind functions and methods
that a ``--trace 1`` run wraps, and ``Tracing.__enter__`` looks each one up by
name, so a layer renamed or deleted in the library breaks the traced run.
This test imports the file as ``tests/test_digests.py`` imports
``workloads.py`` and checks every target.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402


@pytest.mark.parametrize("name, module, attr, count", spans.FUNCTIONS, ids=[s[0] for s in spans.FUNCTIONS])
def test_function_target_resolves(name, module, attr, count):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name, module, cls, attr, count", spans.METHODS, ids=[s[0] for s in spans.METHODS])
def test_method_target_resolves(name, module, cls, attr, count):
    assert attr in vars(getattr(importlib.import_module(module), cls))


def test_tracing_wraps_and_restores():
    with spans.Tracing(spans.Recorder()):
        wrapped = spans.installed()
    assert {"zerowind.crossings._detect", "zerowind.crossings._cluster", "zerowind.harness.measure_instance"} <= set(
        wrapped
    )
    assert spans.installed() == []
