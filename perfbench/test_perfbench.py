"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import zerowind  # noqa: E402
from zerowind import _numeric, crossings, curves, polynomials, verify  # noqa: E402

import bench  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, CosineSums, Detour, PlantedTrig  # noqa: E402
from zerowind import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN_MIN = _numeric.golden_min


def _fingerprint(item):
    return item.to_json() if hasattr(item, "to_json") else item


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    wl = WORKLOADS[name]
    first = [_fingerprint(x) for x in wl.inputs(3, 16)]
    assert first == [_fingerprint(x) for x in wl.inputs(3, 16)]
    # a short pool is a prefix of a long one, so traced and timed runs share their first inputs
    assert [_fingerprint(x) for x in wl.inputs(3, 8)] == first[:8]
    assert [_fingerprint(x) for x in wl.inputs(4, 16)] != first


def test_cosine_inputs_hold_each_degree_once_per_block():
    degrees = [len(a) - 1 for a in CosineSums.inputs(5, 24)]
    for block in range(3):
        assert sorted(degrees[8 * block : 8 * block + 8]) == list(range(1, 9))


def test_planted_trig_inputs_hold_each_degree_once_per_block():
    # the degree is read off the trial seed without building the curve; it must be the one the trial plants
    cfgs = PlantedTrig.inputs(5, 18)
    degrees = [harness.random_instance(np.random.default_rng(c.seed), c).polynomial.degree for c in cfgs]
    for block in range(3):
        assert sorted(degrees[6 * block : 6 * block + 6]) == list(range(1, 7))


def test_detour_inputs_hold_each_degree_once_per_block_and_only_simple_zeros():
    insts = Detour.inputs(5, 15)
    for block in range(3):
        assert sorted(i.polynomial.degree for i in insts[5 * block : 5 * block + 5]) == list(range(1, 6))
    assert all(not i.curve.corners and i.lam >= 1 for i in insts)


def test_harrell_davis_quantiles():
    hd = bench.harrell_davis
    assert hd([3.0], 0.5) == 3.0 and hd([3.0], 0.9) == pytest.approx(3.0)
    assert hd([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    assert hd(list(range(101)), 0.5) == pytest.approx(50.0)
    assert 88.0 < hd(list(range(101)), 0.9) < 92.0
    # between two clusters it moves with their weight instead of jumping from one to the other
    low, high = [1.0] * 50, [2.0] * 50
    assert 1.0 < hd(low + high, 0.5) < 2.0
    assert hd(low + high[:-1], 0.5) < hd(low[:-1] + high, 0.5)


def test_host_speed_correction_scales_by_the_local_reference_time():
    assert hostspeed.local_reference([1.0]) == [1.0]
    refs = [1.0] * 10 + [2.0] * 10
    local = hostspeed.local_reference(refs, window=5)
    assert local[:8] == [1.0] * 8 and local[-8:] == [2.0] * 8
    # an operation taking twice as long on a host half as fast costs the same once corrected
    fixed = hostspeed.corrected([0.1] * 10 + [0.2] * 10, [r * 1e-3 for r in refs], window=5)
    assert fixed == pytest.approx([0.1 * hostspeed.REFERENCE_MS] * 20)
    with pytest.raises(ValueError):
        hostspeed.corrected([0.1], [])


def test_timed_loop_times_the_reference_after_each_operation():
    tally = bench.run_ops(CosineSums, [(1.0, 0.5), (0.5, 1.0)], 0.0, 3, reference=hostspeed.reference)
    assert tally.attempted == 3 and len(tally.ref_times) == 3 and all(r > 0 for r in tally.ref_times)


class _Probe:
    """A workload whose operation runs one small cosine-sum check and notes which wrappers it saw."""

    name = "probe"
    seen: list

    def __init__(self):
        self.seen = []

    def describe(self, item):
        return repr(item)

    def run(self, item):
        self.seen.append((spans.installed(), crossings.golden_min is GOLDEN_MIN))
        return CosineSums.run(item)


def _originals():
    return {
        "crossings.golden_min": crossings.golden_min,
        "curves.golden_min": curves.golden_min,
        "crossings.classify_roots": crossings.classify_roots,
        "verify.classify_roots": verify.classify_roots,
        "Polynomial.__call__": polynomials.Polynomial.__dict__["__call__"],
        "JordanCurve.points": curves.JordanCurve.__dict__["points"],
        "JordanCurve.from_segments": curves.JordanCurve.__dict__["from_segments"],
    }


def test_untraced_run_installs_no_wrappers():
    probe = _Probe()
    bench.run_ops(probe, [(1.0, 0.5)], 0.0, 2)
    assert probe.seen == [([], True), ([], True)]


def test_traced_run_restores_every_patched_name():
    before = _originals()
    probe = _Probe()
    rec = spans.Recorder()
    with spans.Tracing(rec):
        tally = bench.run_ops(probe, [(1.0, 0.5)], 0.0, 1, rec)
    wrapped, same = probe.seen[0]
    assert not same and "zerowind.crossings.golden_min" in wrapped and "Polynomial.__call__" in wrapped
    assert spans.installed() == []
    assert _originals() == before
    assert crossings.golden_min is _numeric.golden_min is curves.golden_min is GOLDEN_MIN
    assert tally.failed == 0

    a = rec.arrays()
    names = [spans.SPAN_NAMES[i] for i in a["name_id"]]
    assert names[0] == spans.OP and a["parent"][0] == -1
    assert names.count(spans.OP) == 1 and (a["parent"][1:] >= 0).all()
    for layer in ("polynomials.classify_roots", "crossings.detect", "curves.points", "polynomials.eval"):
        assert layer in names
    # self times account for the whole operation
    total = spans.self_times(a["start"], a["end"], a["parent"]).sum()
    assert total == pytest.approx(a["end"][0] - a["start"][0], rel=1e-9)


def _synthetic(spans_list):
    rec = spans.Recorder()
    for name, parent, start, end, items in spans_list:
        rec.name_id.append(spans.SPAN_NAMES.index(name))
        rec.parent.append(parent)
        rec.op.append(0)
        rec.start.append(start)
        rec.end.append(end)
        rec.items.append(items)
    return rec


def test_self_time_arithmetic_on_a_synthetic_tree():
    rec = _synthetic(
        [
            (spans.OP, -1, 0.0, 10.0, 0),
            ("crossings.count_preimages", 0, 1.0, 6.0, 0),
            ("crossings.detect", 1, 2.0, 3.0, 0),
            ("curves.points", 1, 4.0, 5.5, 1),
            ("curves.points", 0, 7.0, 9.0, 8),
        ]
    )
    a = rec.arrays()
    assert spans.self_times(a["start"], a["end"], a["parent"]).tolist() == [3.0, 2.5, 1.0, 1.5, 2.0]

    m = spans.layer_metrics(rec, ops=1, untraced_s=4.0, traced_s=5.0)
    assert m["trace.unwrapped.self_ms"][0] == pytest.approx(3000.0)
    assert m["crossings.count_preimages.self_ms"][0] == pytest.approx(2500.0)
    assert m["curves.points.self_ms"][0] == pytest.approx(3500.0)
    assert m["curves.points.calls"][0] == 2
    assert m["curves.points.samples"][0] == 9
    assert m["curves.points.scalar_share"][0] == pytest.approx(0.5)
    assert m["crossings.count_preimages.levels"][0] == pytest.approx(1.0)
    assert m["trace.overhead"][0] == pytest.approx(1.25)
    assert sum(v for k, (v, _) in m.items() if k.endswith(".self_ms")) == pytest.approx(10000.0)


def test_failing_operation_is_counted_and_does_not_abort_the_run():
    bad = (0.0, 1.0, 0.5)  # a_0 = 0: verify_trig raises BoundaryCoefficientZero
    good = (1.0, 0.5)
    tally = bench.run_ops(CosineSums, [bad, good], 0.0, 3)
    assert tally.attempted == 3 and tally.failed == 2
    assert all("BoundaryCoefficientZero" in line for line in tally.failures)
    assert tally.failures[0].startswith("op=0 input=0") and tally.failures[1].startswith("op=2 input=0")


def test_detour_check_against_planted_truth(monkeypatch):
    inst = WORKLOADS["detour"].inputs(11, 1)[0]

    def fake(m, lam, winding, holds):
        rep = zerowind.DetourReport(0.1, m, lam, winding, 2 * winding, (), holds, {})
        monkeypatch.setattr(verify, "verify_detour", lambda *args: (rep, None))
        return WORKLOADS["detour"].run(inst)

    target = inst.m + inst.lam
    ok = fake(inst.m, inst.lam, target, True)
    assert ok.failure is None
    flagged = fake(inst.m, inst.lam, target + 1, False)
    assert flagged.failure.startswith("holds=False, winding=")
    # a report that claims success with the wrong classification is a silent wrong answer
    wrong = fake(inst.m + 1, inst.lam - 1, target, True)
    assert wrong.failure.startswith("holds=True, classified")


def test_per_layer_metrics_match_benchmark_json():
    metrics = spans.layer_metrics(spans.Recorder(), ops=1, untraced_s=1.0, traced_s=1.0)
    assert {(k, u) for k, (_, u) in metrics.items()} == {(m["name"], m["unit"]) for m in SPEC["per_layer"]}


def test_end_to_end_run_prints_every_metric_and_checks_outputs():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "planted-trig", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == WORKLOADS["planted-trig"].trace_ops
    got = {(k, v["unit"]) for k, v in result["metrics"].items()}
    assert got == {(m["name"], m["unit"]) for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "detour", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
