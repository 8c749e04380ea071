"""Run the tier-1 suite once and check that only the documented failures fail.

    python3 tools/tier1_check.py

Runs ``python -m pytest -q --continue-on-collection-errors`` from the
repository root with ``src`` first on ``PYTHONPATH`` (ROADMAP's tier-1
command), with a JUnit XML report in a temporary directory added so that
every test's outcome can be read.  It deselects, skips and changes no test.
Prints the passed, failed, errored, xfailed and skipped counts and the wall
time, the five slowest tests by the report's ``time`` attributes, and the
number of lines in ``src/zerowind/*.py``.
Exits 1 when any test other than the two acceptance criteria pinned
to unreachable values fails or errors, or when either of those two does not
fail; otherwise 0.
"""

import os
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# tests/test_acceptance.py's docstring and README's "Acceptance status" argue why these fail.
DOCUMENTED_FAILURES = ("test_criterion_01_lambda_sharpness", "test_criterion_06_arg_derivative_estimate")


def outcomes(junit_xml: str) -> dict[str, str]:
    """Each test's outcome in a pytest JUnit XML report: passed, failed, error, xfailed or skipped."""
    result = {}
    for case in ET.parse(junit_xml).iter("testcase"):
        kinds = [child.tag for child in case if child.tag in ("failure", "error", "skipped")]
        if "error" in kinds:
            outcome = "error"
        elif "failure" in kinds:
            outcome = "failed"
        elif "skipped" in kinds:
            skipped = case.find("skipped")
            outcome = "xfailed" if skipped.get("type") == "pytest.xfail" else "skipped"
        else:
            outcome = "passed"
        result[f"{case.get('classname')}::{case.get('name')}"] = outcome
    return result


def slowest(junit_xml: str) -> list[tuple[str, float]]:
    """The five tests of a pytest JUnit XML report that took longest, slowest first, with their seconds."""
    cases = ET.parse(junit_xml).iter("testcase")
    times = [(f"{case.get('classname')}::{case.get('name')}", float(case.get("time", 0))) for case in cases]
    return sorted(times, key=lambda item: item[1], reverse=True)[:5]


def source_lines(root: Path) -> int:
    """The number of lines in the files ``src/zerowind/*.py`` under ``root``."""
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in (root / "src" / "zerowind").glob("*.py"))


def problems(result: dict[str, str]) -> list[str]:
    """Every departure from the documented state: any other failure or error, or a documented failure that passed."""
    found = []
    for test, outcome in result.items():
        documented = test.rsplit("::", 1)[-1] in DOCUMENTED_FAILURES
        if outcome in ("failed", "error") and not documented:
            found.append(f"{test} {outcome}")
        elif documented and outcome != "failed":
            found.append(f"{test} {outcome}, but fails as documented")
    names = {test.rsplit("::", 1)[-1] for test in result}
    found += [f"{name} did not run, but fails as documented" for name in DOCUMENTED_FAILURES if name not in names]
    return found


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        junit = os.path.join(tmp, "tier1.xml")
        cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", f"--junitxml={junit}"]
        start = time.monotonic()
        subprocess.run(cmd, cwd=ROOT, env=env, check=False)
        wall = time.monotonic() - start
        if not os.path.exists(junit):
            print("tier1_check: pytest wrote no report", file=sys.stderr)
            return 1
        result, slow = outcomes(junit), slowest(junit)
    counts = Counter(result.values())
    kinds = ("passed", "failed", "error", "xfailed", "skipped")
    print(f"tier1_check: {', '.join(f'{counts[k]} {k}' for k in kinds)} in {wall:.1f} s")
    for test, seconds in slow:
        print(f"tier1_check: slow {seconds:.1f} s {test}")
    print(f"tier1_check: src {source_lines(ROOT)} lines")
    found = problems(result)
    for line in found:
        print(f"tier1_check: {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
