"""The benchmark's reports stay the same bytes.

The golden reports compare floats to a relative 1e-12, so a change in the
last bit of a float passes them.  This test runs the traced inputs of each
benchmark workload at seed 7 (``perfbench/workloads.py``, unchanged) and
hashes their canonical JSON reports, as ``perfbench/run.py`` does for its
``report_digest``.  The digests have not changed since the benchmark was
added; a change that moves any float in any of these reports fails here.
The whole seed-1 pool of each workload, every input a timed run cycles
through, is pinned too, by the line ``tools/report_digests.py --seeds 1``
prints for it.  The seed-7 run also pins the searches' traffic:
``golden_min`` has no caller, and on ``detour`` ``bisect_zero`` calls its
``fn`` at most 4 times per call.
"""

import hashlib
import sys
from pathlib import Path

import pytest

import zerowind._numeric

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS, canonical  # noqa: E402

DIGESTS = {
    "cosine-sums": "6ed8f37158b7f718270e36e91c69c1cf3f9ddbf7a0afddd5631300517b67d7eb",
    "planted-trig": "28892878dc72cea84bd7eab87633778b0ac7d21b1ee3748180b3f56843c4365f",
    "detour": "3fef2485f46f51653caf90578921ee6f06f80968f09bf382dda3fdfcb5f6b626",
}


def _wrap_everywhere(monkeypatch, name, wrapper):
    """Replace ``zerowind._numeric.<name>`` by ``wrapper(original)`` in every zerowind module that holds it."""
    original = getattr(zerowind._numeric, name)
    wrapped = wrapper(original)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("zerowind") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, wrapped)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_digest_at_seed_7(name, monkeypatch):
    # and the searches' traffic: golden_min has no caller, and bisect_zero's fn calls per bisection stay few
    golden, bisections, fn_calls = [], [], []

    def count_golden(original):
        def counted(*args, **kwargs):
            golden.append(1)
            return original(*args, **kwargs)

        return counted

    def count_bisect(original):
        def counted(fn, *args, **kwargs):
            def counted_fn(q):
                fn_calls.append(1)
                return fn(q)

            bisections.append(1)
            return original(counted_fn, *args, **kwargs)

        return counted

    _wrap_everywhere(monkeypatch, "golden_min", count_golden)
    _wrap_everywhere(monkeypatch, "bisect_zero", count_bisect)
    wl = WORKLOADS[name]
    digest = hashlib.sha256()
    for item in wl.inputs(7, wl.trace_ops):
        out = wl.run(item)
        assert out.failure is None, out.failure
        digest.update(canonical(out.report) + b"\n")
    assert digest.hexdigest() == DIGESTS[name]
    assert golden == []
    if name == "detour":
        # 146 fn calls over 40 bisect_zero calls: both ends, then mostly one call on the predicted paths
        assert bisections and len(fn_calls) <= 4 * len(bisections)


# tools/report_digests.py --seeds 1: the sha256 of each whole pool's canonical reports, none of them failed
POOL_DIGESTS = {
    "cosine-sums": "2f41c5c7e164041d527bb1cb9d1c5647ac23736b0cb43b5b2548d2343cd780b3",
    "planted-trig": "569ca226f0842e01992b3203303a74189b0820b7c2c2c041a71adb03db751956",
    "detour": "13ae7539dabdea618786cdea19f6a19fb1a3508a4432c6244dbba4d3549f6a28",
}


@pytest.mark.parametrize("name", sorted(POOL_DIGESTS))
def test_pool_digest_at_seed_1(name):
    wl = WORKLOADS[name]
    digest, failed = hashlib.sha256(), []
    for item in wl.inputs(1, wl.pool_size):
        out = wl.run(item)
        if out.failure is not None:
            failed.append(out.failure)
        digest.update(canonical(out.report) + b"\n")
    assert failed == []
    assert digest.hexdigest() == POOL_DIGESTS[name]


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


def test_pair_tool_ends_with_a_json_record(tmp_path, monkeypatch, capsys):
    # tools/bench_pairs.py: alternating pairs, then one JSON object with every run and each metric's verdicts
    import importlib.util
    import json

    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("bench_pairs", root / "tools" / "bench_pairs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    names = [m["name"] for m in json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = []

    def run_once(checkout, workload, seed, seconds):
        # the change does 10% more operations per second, and every other metric the same
        calls.append((checkout.name, workload, seed))
        ops = (100.0 + seed) * (1.1 if checkout.name == "change" else 1.0)
        values = {name: ops if name == "ops_per_s" else 2.0 for name in names}
        return {"correct": True, "failed": 0, "attempted": 10, "seed": seed, "src_sha256": f"{checkout.name}-src",
                "metrics": {name: {"value": v} for name, v in values.items()}}

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(tool, "head_commit", lambda checkout: f"{checkout.name}-head")
    monkeypatch.setattr(tool, "source_hash", lambda checkout: f"{checkout.name}-src")
    seeds = [str(s) for s in range(1, 11)]
    args = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "detour", "--seeds", *seeds]
    assert tool.main(args) == 0
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert [side for side, _, _ in calls[:4]] == ["parent", "change", "change", "parent"]
    assert record["workload"] == "detour" and record["seeds"] == list(range(1, 11))
    assert record["commits"] == {"parent": "parent-head", "change": "change-head"}
    assert record["src_sha256"] == {"parent": "parent-src", "change": "change-src"}
    assert {run["src_sha256"] for run in record["runs"]["change"]} == {"change-src"}
    assert [run["seed"] for run in record["runs"]["parent"]] == list(range(1, 11))
    assert len(record["runs"]["change"]) == 10
    by_name = {m["metric"]: m for m in record["metrics"]}
    assert list(by_name) == names
    ops = by_name["ops_per_s"]
    assert ops["parent"]["median"] == 105.5 and ops["change"]["median"] == pytest.approx(116.05)
    assert (ops["won"], ops["lost"], ops["gain_holds"], ops["within_bound"]) == (10, 0, True, True)
    tie = by_name["latency_p50_ms"]
    assert (tie["won"], tie["lost"], tie["gain_holds"], tie["within_bound"]) == (0, 0, False, True)

    # the same sources on both sides: exit 2 before the first run
    del calls[:]
    monkeypatch.setattr(tool, "source_hash", lambda checkout: "same-src")
    assert tool.main(args) == 2
    assert calls == [] and "same sources" in capsys.readouterr().err


def test_pair_tool_reads_the_provenance_hash(tmp_path, monkeypatch):
    # run_once keeps the src_sha256 of the run's provenance line, and source_hash gives the same hash
    import importlib.util
    import subprocess

    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("bench_pairs", root / "tools" / "bench_pairs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    stdout = 'perfbench workload=detour\nprovenance {"src_sha256": "abc"}\nmetric x 1.0 ms\n{"correct": true}\n'
    fake = subprocess.CompletedProcess([], 0, stdout=stdout, stderr="")
    monkeypatch.setattr(tool.subprocess, "run", lambda *args, **kwargs: fake)
    assert tool.run_once(tmp_path, "detour", 1, 1.0) == {"correct": True, "src_sha256": "abc"}
    import bench  # perfbench/ is on the path, as above

    assert tool.source_hash(root) == bench.provenance(root)["src_sha256"]
