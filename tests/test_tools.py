"""tools/tier1_check.py reads each test's outcome from pytest's JUnit XML report."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

SUITE = textwrap.dedent(
    """
    import pytest

    def test_ok():
        pass

    def test_criterion_01_lambda_sharpness():
        assert DOCUMENTED_01

    def test_criterion_06_arg_derivative_estimate():
        assert False

    def test_other():
        assert OTHER

    @pytest.fixture
    def broken():
        raise RuntimeError("fixture")

    def test_errors(broken):
        pass

    @pytest.mark.xfail(strict=True)
    def test_pinned():
        assert False
    """
)


def _tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "tier1_check.py"
    spec = importlib.util.spec_from_file_location("tier1_check", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _run(tmp_path, documented_01: bool, other: bool) -> dict:
    suite = tmp_path / "test_suite.py"
    suite.write_text(f"DOCUMENTED_01 = {not documented_01}\nOTHER = {other}\n" + SUITE)
    junit = tmp_path / "out.xml"
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={junit}", str(suite)]
    subprocess.run(cmd, cwd=tmp_path, capture_output=True, check=False)
    return _tool().outcomes(str(junit))


def test_outcomes_and_problems(tmp_path):
    tool = _tool()
    result = _run(tmp_path, documented_01=True, other=True)
    assert sorted(result.values()) == ["error", "failed", "failed", "passed", "passed", "xfailed"]
    assert tool.problems(result) == ["test_suite::test_errors error"]
    result = _run(tmp_path, documented_01=False, other=False)
    assert tool.problems(result) == [
        "test_suite::test_criterion_01_lambda_sharpness passed, but fails as documented",
        "test_suite::test_other failed",
        "test_suite::test_errors error",
    ]
