"""Closed-loop runner: set-up, timed loop with per-operation checks, set-up probes, traced pass.

One client, one process, no threads: each operation starts when the previous
one has returned.  End-to-end metrics come from untraced runs only; the
traced run (``--trace 1``) reports per-layer metrics from spans.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostspeed
import spans
from workloads import WORKLOADS, canonical

# Set-up is measured in fresh interpreters this many times per run; the median is reported.
SETUP_PROBES = 5
# Reference kernel calls timed before the first set-up probe and after each one.
REF_AROUND_PROBE = 25
# The tail latency percentile: at 30-s runs every workload has at least ten samples beyond it.
TAIL_PERCENTILE = 90
# Set-up ends with one warm-up operation on the first input of this seed, the same for every run.
WARMUP_SEED = 0


@dataclass
class Tally:
    """What a pass of operations did: latencies, failures and the digest of its first reports."""

    latencies: list[float] = field(default_factory=list)
    ref_times: list[float] = field(default_factory=list)
    elapsed: float = 0.0
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    first_report: bytes = b""

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_ops(wl, pool: list, seconds: float, min_ops: int, rec: spans.Recorder | None = None,
            reference=None) -> Tally:
    """Run operations over ``pool`` in order, cycling, until ``seconds`` have passed and ``min_ops`` are done.

    Every operation is checked.  A failing one is recorded and the loop goes
    on.  The digest covers the reports of the first ``min_ops`` operations,
    in input order, as canonical JSON.  When ``reference`` is given, it is
    called and timed after each operation, outside the operation's latency.
    """
    tally = Tally()
    digest = hashlib.sha256()
    start = now = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < min_ops or now < deadline:
        item = pool[i % len(pool)]
        span = rec.begin_op(i) if rec is not None else -1
        t0 = time.perf_counter()
        out = wl.run(item)
        now = time.perf_counter()
        if rec is not None:
            rec.close(span)
        tally.latencies.append(now - t0)
        if reference is not None:
            reference()
            tally.ref_times.append(time.perf_counter() - now)
            now = time.perf_counter()
        if i < min_ops:
            text = canonical(out.report)
            digest.update(text + b"\n")
            if i == 0:
                tally.first_report = text
        if out.failure is not None:
            tally.failures.append(f"op={i} input={i % len(pool)} {wl.describe(item)}: {out.failure}")
        i += 1
    tally.elapsed = now - start
    tally.digest = digest.hexdigest()
    return tally


def make_pool(wl, seed: int, trace: bool) -> list:
    """The run's inputs: the traced set alone, or the whole pool of a timed run."""
    return wl.inputs(seed, wl.trace_ops if trace else wl.pool_size)


def warmup_input(wl):
    """The input of the warm-up operation: the same for every seed, so set-up time does not vary with the seed."""
    return wl.inputs(WARMUP_SEED, 1)[0]


def probe_setup(run_py: Path, root: Path, args) -> float:
    """Seconds from starting a fresh interpreter until it is ready for its first timed operation."""
    cmd = [sys.executable, str(run_py), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=170)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, said {line.strip()!r})")
    return ready


def setup_time(run_py: Path, root: Path, args) -> tuple[float, list[float], float]:
    """Median set-up time over SETUP_PROBES fresh interpreters, host-speed corrected.

    The reference kernel is timed before the first probe and after each one;
    the median of all those samples gives the host speed for the whole set.
    Returns the corrected median, the raw probe times and that kernel median.
    """
    refs = [hostspeed.time_reference() for _ in range(REF_AROUND_PROBE)]
    probes = []
    for _ in range(SETUP_PROBES):
        probes.append(probe_setup(run_py, root, args))
        refs += [hostspeed.time_reference() for _ in range(REF_AROUND_PROBE)]
    ref = statistics.median(refs)
    return statistics.median(probes) * hostspeed.REFERENCE_MS * 1e-3 / ref, probes, ref


def harrell_davis(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the ``q`` quantile: a Beta-weighted mean of the order statistics.

    The latencies cluster by degree, and a single order statistic that sits
    between two clusters jumps from one to the other between seeds.
    Weighting the order statistics near the quantile makes it move smoothly.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    sub = 64  # integration points per order statistic
    t = (np.arange(n * sub) + 0.5) / (n * sub)
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    w = np.exp(log_pdf - log_pdf.max()).reshape(n, sub).sum(axis=1)
    return float(w @ x / w.sum())


def latency_metrics(latencies: list[float], passed: int) -> tuple[dict, str]:
    """Throughput, median and tail latency from host-speed-corrected latencies."""
    n = len(latencies)
    tail = harrell_davis(latencies, TAIL_PERCENTILE / 100.0)
    beyond = sum(lat > tail for lat in latencies)
    note = f"p{TAIL_PERCENTILE} of {n} ops, {beyond} samples beyond it"
    return {
        "ops_per_s": (passed / sum(latencies), "ops/s"),
        "latency_p50_ms": (harrell_davis(latencies, 0.5) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
    }, note


def provenance(root: Path) -> dict:
    sha = None
    if (root / ".git").exists():
        got = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        sha = got.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "zerowind").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def timed_run(wl, root: Path, run_py: Path, args) -> tuple[dict, Tally, list[str], bool]:
    pool = make_pool(wl, args.seed, trace=False)
    wl.run(warmup_input(wl))
    hostspeed.time_reference()
    tally = run_ops(wl, pool, args.seconds, wl.trace_ops, reference=hostspeed.reference)
    again = wl.run(pool[0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s, probes, probe_ref = setup_time(run_py, root, args)

    metrics, tail_note = latency_metrics(hostspeed.corrected(tally.latencies, tally.ref_times),
                                         tally.attempted - tally.failed)
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MiB")
    deterministic = canonical(again.report) == tally.first_report
    refs = sorted(tally.ref_times)
    info = [
        f"error_rate {tally.failed / tally.attempted:.6g} fraction ({tally.failed} of {tally.attempted} ops)",
        f"latency_tail_ms is {tail_note}",
        f"inputs {len(pool)} distinct, {tally.attempted} ops in {tally.elapsed:.3f} s",
        f"reference kernel {statistics.median(refs) * 1e3:.4g} ms median, "
        f"{refs[len(refs) // 10] * 1e3:.4g} to {refs[-1 - len(refs) // 10] * 1e3:.4g} ms from p10 to p90; "
        f"times are scaled to a host where it takes {hostspeed.REFERENCE_MS} ms",
        f"uncorrected: {(tally.attempted - tally.failed) / sum(tally.latencies):.4g} ops/s, "
        f"median latency {statistics.median(tally.latencies) * 1e3:.4g} ms, "
        f"setup probes {[round(ready, 4) for ready in probes]} s with the kernel at {probe_ref * 1e3:.4g} ms",
        f"report_digest sha256:{tally.digest} over the first {wl.trace_ops} reports",
        f"first input's report repeated byte-identically after the timed loop: {deterministic}",
    ]
    return metrics, tally, info, deterministic


def traced_run(wl, root: Path, args) -> tuple[dict, Tally, list[str], bool]:
    pool = make_pool(wl, args.seed, trace=True)
    wl.run(pool[0])
    untraced = run_ops(wl, pool, 0.0, wl.trace_ops)
    rec = spans.Recorder()
    with spans.Tracing(rec):
        traced = run_ops(wl, pool, 0.0, wl.trace_ops, rec)
    left = spans.installed()
    metrics = spans.layer_metrics(rec, traced.attempted, untraced.elapsed, traced.elapsed)

    # per operation, the self times of its spans must add up to its root span's duration
    a = rec.arrays()
    roots = a["parent"] < 0
    op_wall = a["end"][roots] - a["start"][roots]
    op_self = np.bincount(a["op"], weights=spans.self_times(a["start"], a["end"], a["parent"]), minlength=len(op_wall))
    worst = float(np.max(np.abs(op_self - op_wall) / op_wall))
    same = untraced.digest == traced.digest
    out_path = root / ".perfbench-out" / f"{wl.name}.spans.npz"
    rec.save(out_path, seed=np.int64(args.seed), workload=np.array(wl.name))
    info = [
        f"traced {traced.attempted} ops: {len(rec.start)} spans written to {out_path.relative_to(root)}",
        f"per operation, self times match the traced wall time to {worst:.1e} relative; "
        f"{op_wall.sum() * 1e3:.3f} ms in all, of which {metrics['trace.unwrapped.self_ms'][0]:.3f} ms unwrapped",
        f"untraced pass {untraced.elapsed:.3f} s, traced pass {traced.elapsed:.3f} s",
        f"report_digest untraced sha256:{untraced.digest} traced sha256:{traced.digest}",
        f"wrappers left installed after the traced pass: {left or 'none'}",
    ]
    return metrics, traced, info, same and worst < 1e-6 and not left


def parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description="zerowind benchmark, one workload per run")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv: list[str], root: Path) -> int:
    args = parse(argv)
    import zerowind

    src = (root / "src").resolve()
    if src not in Path(zerowind.__file__).resolve().parents:
        print(f"perfbench: imported zerowind from {zerowind.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        make_pool(wl, args.seed, trace=False)
        wl.run(warmup_input(wl))
        print("ready", flush=True)
        return 0

    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance " + json.dumps(provenance(root), sort_keys=True))
    if args.trace:
        metrics, tally, info, consistent = traced_run(wl, root, args)
    else:
        metrics, tally, info, consistent = timed_run(wl, root, Path(__file__).with_name("run.py"), args)
    for line in info:
        print("info " + line)
    for line in tally.failures:
        print("failure " + line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    result = {
        "correct": consistent,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0
