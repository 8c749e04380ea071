"""tools/tier1_check.py reads each test's outcome and the slowest tests from pytest's JUnit XML report and counts
the source lines; tools/bench_pairs.py names a checkout by its commit only when its sources are committed."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

SUITE = textwrap.dedent(
    """
    import time

    import pytest

    def test_ok():
        time.sleep(0.3)

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


def _tool(name: str = "tier1_check"):
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
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


def test_slowest_tests(tmp_path):
    result = _run(tmp_path, documented_01=True, other=True)
    slow = _tool().slowest(str(tmp_path / "out.xml"))
    assert len(slow) == 5 and slow[0][0] == "test_suite::test_ok" and slow[0][1] >= 0.3
    assert [seconds for _, seconds in slow] == sorted((seconds for _, seconds in slow), reverse=True)
    assert {test for test, _ in slow} <= set(result)


def test_source_lines(tmp_path):
    # only the package's own modules count: not other files, subpackages or other directories
    package = tmp_path / "src" / "zerowind"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("A = 1\n\nB = 2\n")
    (package / "b.py").write_text("C = 3")
    (package / "notes.txt").write_text("x\ny\n")
    (package / "sub" / "c.py").write_text("D = 4\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "d.py").write_text("E = 5\n")
    assert _tool().source_lines(tmp_path) == 4


def test_head_commit_only_for_committed_sources(tmp_path):
    # a checkout with uncommitted changes under src/ was recorded under its base commit
    def git(*args):
        cmd = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false", *args]
        return subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, check=True).stdout.strip()

    head_commit = _tool("bench_pairs").head_commit
    (tmp_path / "src").mkdir()
    source = tmp_path / "src" / "mod.py"
    source.write_text("X = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    assert head_commit(tmp_path) == git("rev-parse", "HEAD")
    (tmp_path / "notes.txt").write_text("outside src/\n")
    assert head_commit(tmp_path) == git("rev-parse", "HEAD")
    source.write_text("X = 2\n")
    assert head_commit(tmp_path) is None
