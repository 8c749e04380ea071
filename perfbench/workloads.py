"""The benchmark's workloads: seeded inputs, one operation each, and its check.

One operation is one verified instance.  Each workload draws its inputs from
the workload seed alone, runs one zerowind entry point per input, and checks
the result against ground truth that does not come from the code under test
(the planted roots, the degree n) or against the library's own independent
self-checks where no planted truth exists (cosine sums).

Entry points are looked up on their module at call time, so that the traced
run's wrappers (see spans.py) see the calls.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from zerowind import harness, verify
from zerowind.harness import HarnessConfig


@dataclass(frozen=True)
class Outcome:
    """What one operation returned, and how it fared against its check.

    ``failure`` names the exception or the failed check, None when the
    operation passed.
    """

    report: dict
    failure: str | None = None


def canonical(report: dict) -> bytes:
    return json.dumps(report, sort_keys=True, separators=(",", ":")).encode()


def _stratified(rng: np.random.Generator, draw, key, levels, count: int) -> list:
    """``count`` items from ``draw()``, in blocks that hold one item of each key level, shuffled within the block.

    Items whose level the current block already holds are dropped.  Cost
    depends mostly on the degree, so blocks keep the cost mix from drifting
    between seeds.  A short list is a prefix of a long one.
    """
    levels = list(levels)
    out: list = []
    while len(out) < count:
        block: dict = {}
        while len(block) < len(levels):
            item = draw()
            block.setdefault(key(item), item)
        out += [block[levels[i]] for i in rng.permutation(len(levels))]
    return out[:count]


def _raised(exc: Exception) -> Outcome:
    return Outcome({"error": type(exc).__name__, "message": str(exc)}, f"{type(exc).__name__}: {exc}")


class CosineSums:
    """verify_trig on random real cosine-sum coefficient vectors (acceptance criterion 8's distribution)."""

    name = "cosine-sums"
    trace_ops = 24  # three of each degree 1..8
    pool_size = 240  # distinct inputs of a timed run, which cycles through them when it runs out

    @staticmethod
    def inputs(seed: int, count: int) -> list[tuple[float, ...]]:
        rng = np.random.default_rng(seed)
        out = []
        while len(out) < count:
            # every block of eight holds each degree once, so the mix of
            # cheap and costly degrees does not drift between seeds
            for n in rng.permutation(np.arange(1, 9)):
                a = rng.uniform(-1.0, 1.0, size=int(n) + 1)
                while abs(a[0]) < 0.05:
                    a[0] = rng.uniform(-1.0, 1.0)
                while abs(a[-1]) < 0.05:
                    a[-1] = rng.uniform(-1.0, 1.0)
                out.append(tuple(float(x) for x in a))
        return out[:count]

    @staticmethod
    def describe(a) -> str:
        return f"coeffs={list(a)}"

    @staticmethod
    def run(a) -> Outcome:
        try:
            rep = verify.verify_trig(list(a))
        except Exception as exc:  # noqa: BLE001 - any exception is a failed operation
            return _raised(exc)
        bad = [f"{flag}=False" for flag in ("bound_holds", "identity_holds") if not getattr(rep, flag)]
        return Outcome(rep.to_json(), ", ".join(bad) or None)


class PlantedTrig:
    """One planted-root harness trial on a trig-perturbed circle (acceptance criterion 4's second family)."""

    name = "planted-trig"
    trace_ops = 60  # ten of each degree 1..6
    pool_size = 480

    @staticmethod
    def inputs(seed: int, count: int) -> list[HarnessConfig]:
        rng = np.random.default_rng(seed)

        def draw() -> HarnessConfig:
            return HarnessConfig(trials=1, max_degree=6, curve_family="trig-perturbed", seed=int(rng.integers(0, 2**32)))

        def degree(cfg: HarnessConfig) -> int:
            # run_harness's first draws from its seed: three harmonic pairs
            # of the trig-perturbed curve, then the degree (the self-tests
            # check this against random_instance, which is too slow to call here)
            trial = np.random.default_rng(cfg.seed)
            trial.uniform(-0.03, 0.03, size=6)
            return int(trial.integers(1, cfg.max_degree + 1))

        return _stratified(rng, draw, degree, range(1, 7), count)

    @staticmethod
    def describe(cfg) -> str:
        return f"harness_seed={cfg.seed}"

    @staticmethod
    def run(cfg) -> Outcome:
        try:
            rep = harness.run_harness(cfg)
        except Exception as exc:  # noqa: BLE001
            return _raised(exc)
        return Outcome(rep.to_json(), None if rep.all_hold else f"all_hold=False ({len(rep.violations)} violations)")


class Detour:
    """verify_detour on planted simple boundary zeros of random circles (acceptance criterion 7, simple zeros)."""

    name = "detour"
    trace_ops = 40  # eight of each degree 1..5
    pool_size = 240
    families = ("circle",)
    max_multiplicity = 1

    @classmethod
    def inputs(cls, seed: int, count: int) -> list:
        rng = np.random.default_rng(seed)
        configs = itertools.cycle([HarnessConfig(trials=1, max_degree=5, curve_family=fam) for fam in cls.families])

        def draw():
            cfg = next(configs)
            inst = harness.random_instance(
                rng, cfg, min_on_curve=1, max_multiplicity=cls.max_multiplicity, separation=0.7
            )
            return cfg.curve_family, inst

        levels = list(itertools.product(cls.families, range(1, 6)))
        picked = _stratified(rng, draw, lambda got: (got[0], got[1].polynomial.degree), levels, count)
        return [inst for _, inst in picked]

    @staticmethod
    def describe(inst) -> str:
        kind = "square" if inst.curve.corners else "circle"
        return f"{kind} degree={inst.polynomial.degree} planted m={inst.m} lam={inst.lam}"

    @staticmethod
    def run(inst) -> Outcome:
        try:
            rep, _ = verify.verify_detour(inst.polynomial, inst.curve, inst.line)
        except Exception as exc:  # noqa: BLE001
            return _raised(exc)
        target = inst.m + inst.lam
        wrong = []
        if rep.winding != target:
            wrong.append(f"winding={rep.winding} but planted m+lam={target}")
        if (rep.m, rep.lam) != (inst.m, inst.lam):
            wrong.append(f"classified (m, lam)=({rep.m}, {rep.lam}) but planted ({inst.m}, {inst.lam})")
        if rep.holds and not wrong:
            return Outcome(rep.to_json())
        # holds=True with a mismatch is a silent wrong answer: the library claims success
        return Outcome(rep.to_json(), ", ".join([f"holds={rep.holds}"] + wrong))


class DetourWide(Detour):
    """Detour with boundary double roots, alternating circles and squares.

    Not a workload of BENCHMARK.json: about one operation in ten fails on it
    (see README.md), and the benchmark's timed workloads must not fail.  It
    stays runnable so those defects can be reproduced and a fix measured.
    """

    name = "detour-wide"
    families = ("circle", "square")
    max_multiplicity = 2


WORKLOADS = {w.name: w for w in (CosineSums, PlantedTrig, Detour, DetourWide)}
