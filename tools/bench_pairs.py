"""Compare two checkouts on one benchmark workload by alternating pairs of timed runs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload detour --seeds 701 702 703 ...

PARENT and CHANGE are the roots of two zerowind checkouts.  Each seed makes
one pair: ``perfbench/run.py --workload W --seed S --trace 0`` runs in each
checkout, for the ``run_seconds`` that ``BENCHMARK.json`` sets, the parent
first on even-numbered pairs and the change first on odd ones.  Each run is
printed as it ends.  Then, for every end-to-end metric of ``BENCHMARK.json``,
one line gives each side's median and quartiles, the pairs the change won
(ties count for neither side), and two verdicts:

* ``gain``: the change won at least nine tenths of the pairs, and its median
  is better than the parent's by more than the parent's interquartile range;
* ``within bound``: the change's median is not worse than the parent's by
  more than the metric's bound.

When every run printed a result, the last line of standard output is one
JSON object, the record of the comparison: the workload, the run length,
the seeds, each checkout's ``git rev-parse HEAD`` (null where that fails,
and null where ``git status --porcelain -- src`` lists any change, so that a
hash names only the sources committed under it) and ``src_sha256``, the
hash of its ``src/zerowind/*.py`` that each run's provenance line prints,
every run's result object in run order per side (with the ``src_sha256``
of its provenance line added), and per metric both sides' quartiles and
median, the pairs won and lost, and the two verdicts.
Save it with ``| tail -n 1 > BENCH_<n>.json``.

The exit status is 2, before any run, when both checkouts hold the same
sources; 1 when a run printed no result, reported ``correct: false`` or ran
other sources than its checkout held at the start; and 0 otherwise.  The
runs take the host's full attention: start nothing else while they go.
This tool is not part of the test suite.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result of one untraced run in ``checkout`` plus its provenance's ``src_sha256``; None when it printed none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench_pairs: {checkout} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-500:]}",
              file=sys.stderr)
        return None
    prov = next((json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("provenance ")), {})
    return {**json.loads(lines[-1]), "src_sha256": prov.get("src_sha256")}


def source_hash(checkout: Path) -> str:
    """The ``src_sha256`` of checkout's sources, as ``perfbench/bench.py``'s provenance hashes them."""
    src = hashlib.sha256()
    for path in sorted((checkout / "src" / "zerowind").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return src.hexdigest()


def head_commit(checkout: Path) -> str | None:
    """``git rev-parse HEAD`` in checkout; None where git gives none or where ``src/`` differs from that commit."""
    status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=checkout, capture_output=True, text=True)
    if status.returncode != 0 or status.stdout.strip():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, median and third quartile of values (one value stands for all three)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(name: str, better: str, bound: float, parent: list[float], change: list[float]) -> tuple[str, dict]:
    """One metric's line and record: both sides' quartiles, the pairs won, and the gain and bound verdicts."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    gain = sign * (cm - pm)
    holds = won >= 0.9 * len(parent) and gain > p3 - p1
    within = -gain <= bound * abs(pm)
    rel = gain / abs(pm) if pm else float("nan")
    line = (f"{name}: parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} [{c1:.4g}, {c3:.4g}]  "
            f"better by {rel:+.1%}  won {won}/{len(parent)} (lost {lost})  parent IQR {p3 - p1:.3g}  "
            f"gain {'holds' if holds else 'not shown'}  {'within' if within else 'BEYOND'} the {bound:.0%} bound")
    record = {"metric": name, "better": better, "bound": bound,
              "parent": {"q1": p1, "median": pm, "q3": p3}, "change": {"q1": c1, "median": cm, "q3": c3},
              "pairs": len(parent), "won": won, "lost": lost, "gain_holds": holds, "within_bound": within}
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True, help="one pair per seed")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(spec["run_seconds"])

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    sources = {side: source_hash(path) for side, path in sides.items()}
    if sources["parent"] == sources["change"]:
        print(f"bench_pairs: both checkouts hold the same sources (src_sha256 {sources['parent']})", file=sys.stderr)
        return 2
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    status = 0
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            out = run_once(sides[side], args.workload, seed, seconds)
            if out is None or not out["correct"]:
                status = 1
            if out is None:
                return status
            if out["src_sha256"] != sources[side]:
                print(f"bench_pairs: {sides[side]} ran sources {out['src_sha256']}, not {sources[side]}",
                      file=sys.stderr)
                status = 1
            results[side].append(out)
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items())
            print(f"pair {i + 1} seed {seed} {side}: failed {out['failed']}/{out['attempted']} "
                  f"correct={out['correct']} {shown}", flush=True)

    print(f"{args.workload}: {len(args.seeds)} pairs of {seconds:g}-s runs")
    for side in ("parent", "change"):
        print(f"{side} failed {sum(r['failed'] for r in results[side])} of "
              f"{sum(r['attempted'] for r in results[side])} operations")
    metrics = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in results}
        line, record = summary(name, metric["better"], float(metric["bound"]), values["parent"], values["change"])
        print(line)
        metrics.append(record)
    record = {"workload": args.workload, "run_seconds": seconds, "seeds": args.seeds,
              "commits": {side: head_commit(path) for side, path in sides.items()}, "src_sha256": sources,
              "runs": results, "metrics": metrics}
    print(json.dumps(record, sort_keys=True))
    return status


if __name__ == "__main__":
    sys.exit(main())
