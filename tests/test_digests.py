"""The benchmark's reports stay the same bytes.

The golden reports compare floats to a relative 1e-12, so a change in the
last bit of a float passes them.  This test runs the traced inputs of each
benchmark workload at seed 7 (``perfbench/workloads.py``, unchanged) and
hashes their canonical JSON reports, as ``perfbench/run.py`` does for its
``report_digest``.  The digests have not changed since the benchmark was
added; a change that moves any float in any of these reports fails here.
"""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS, canonical  # noqa: E402

DIGESTS = {
    "cosine-sums": "6ed8f37158b7f718270e36e91c69c1cf3f9ddbf7a0afddd5631300517b67d7eb",
    "planted-trig": "28892878dc72cea84bd7eab87633778b0ac7d21b1ee3748180b3f56843c4365f",
    "detour": "3fef2485f46f51653caf90578921ee6f06f80968f09bf382dda3fdfcb5f6b626",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_digest_at_seed_7(name):
    wl = WORKLOADS[name]
    digest = hashlib.sha256()
    for item in wl.inputs(7, wl.trace_ops):
        out = wl.run(item)
        assert out.failure is None, out.failure
        digest.update(canonical(out.report) + b"\n")
    assert digest.hexdigest() == DIGESTS[name]


def test_digest_tool_compares_with_a_saved_run(tmp_path, monkeypatch, capsys):
    # tools/report_digests.py --against: each pool's line against the saved one, exit 1 naming each that differs
    import importlib.util
    import os

    # loading the tool sets thread-count variables and puts src/ and perfbench/ on the path: undone after the test
    monkeypatch.setattr(os, "environ", os.environ.copy())
    monkeypatch.setattr(sys, "path", sys.path[:])
    path = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"
    spec = importlib.util.spec_from_file_location("report_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "pool_digest", lambda name, seed: (f"{name}-{seed}", 0))
    saved = tmp_path / "saved.txt"
    saved.write_text("detour seed=1 sha256=detour-1 failed=0\ndetour seed=2 sha256=detour-2 failed=1\n")
    args = ["--workloads", "detour", "--against", str(saved)]
    assert tool.main(args + ["--seeds", "1"]) == 0
    assert capsys.readouterr().err == ""
    assert tool.main(args + ["--seeds", "1", "2", "3"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"detour seed={n} sha256=detour-{n} failed=0" for n in (1, 2, 3)]
    assert [line.split(" differs")[0] for line in err.splitlines()] == [
        "report_digests: detour seed=2",
        "report_digests: detour seed=3",
    ]
