"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 6 are implemented exactly as pinned and are expected to fail:

* Criterion 1 pins the count for (z+1)^n against the real axis to exactly n.
  The boundary zero at -1 always maps into every line through the origin, and
  for odd n it is not one of the n zeros of sin(n t / 2), so any correct
  counter returns n + 1 there (the library, the brute-force oracle, and exact
  enumeration all agree).  The pinned value holds only for even n.

* Criterion 6 demands the probe deviation at radius 1e-3 be strictly smaller
  than at 1e-2 for exact powers (z-1)^k.  For a pure power the angular
  derivative is identically the multiplicity, so the deviation has no
  radius-dependent term at all; it is grid rounding noise, equal (bitwise,
  under factored evaluation) at both radii.  Strict decrease is unsatisfiable;
  the non-strict version passes and the genuinely radius-driven decrease is
  exercised in criterion 5's family in the unit tests.
"""

import time

import numpy as np

from zerowind import (
    Line,
    Polynomial,
    arg_derivative_probe,
    count_disc_preimages,
    count_preimages,
    logderiv_integral,
    unit_circle,
    verify_detour,
    verify_main,
    verify_piecewise,
    winding_count,
)
from zerowind.harness import HarnessConfig, random_instance, run_harness

from oracles import dense_line_crossing_count

TWO_PI = 2 * np.pi
UC = unit_circle()


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_lambda_sharpness():
    """(z+1)^n vs the real axis must count exactly n for n = 1..8."""
    t0 = time.time()
    counts = {}
    for n in range(1, 9):
        f = Polynomial.from_roots([(-1.0, n)])
        counts[n] = count_preimages(f, UC, Line.real_axis()).count
    elapsed = time.time() - t0
    ok = all(counts[n] == n for n in range(1, 9)) and elapsed < 5.0
    detail = f"counts={counts} elapsed={elapsed:.2f}s (pinned: exactly n)"
    assert _report(1, ok, detail), detail


def test_criterion_02_interior_sharpness():
    """z^n crosses every line exactly 2n times, for 8 random angles each."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    bad = []
    for n in range(1, 9):
        f = Polynomial([0] * n + [1])
        for ang in rng.uniform(0.0, np.pi, size=8):
            got = count_preimages(f, UC, Line(float(ang))).count
            if got != 2 * n:
                bad.append((n, float(ang), got))
    elapsed = time.time() - t0
    ok = not bad and elapsed < 10.0
    detail = f"violations={bad} elapsed={elapsed:.2f}s"
    assert _report(2, ok, detail), detail


def _plant_off_curve(rng, max_degree):
    degree = int(rng.integers(1, max_degree + 1))
    roots = []
    total = 0
    while total < degree:
        mult = int(min(degree - total, rng.choice([1, 1, 1, 2])))
        r = rng.uniform(0.15, 0.8) if rng.random() < 0.55 else rng.uniform(1.25, 2.6)
        z = r * np.exp(1j * rng.uniform(0, TWO_PI))
        if all(abs(z - w) > 0.15 for w, _ in roots):
            roots.append((complex(z), mult))
            total += mult
    m = sum(mult for z, mult in roots if abs(z) < 1.0)
    lead = rng.uniform(0.6, 1.8) * np.exp(1j * rng.uniform(0, TWO_PI))
    return Polynomial.from_roots(roots, leading=lead), m


def test_criterion_03_winding_consistency():
    """500 planted polynomials without boundary zeros: winding == m, quadrature within 0.01."""
    t0 = time.time()
    rng = np.random.default_rng(3)
    bad = 0
    for _ in range(500):
        f, m = _plant_off_curve(rng, 8)
        w = winding_count(f, UC)
        q = logderiv_integral(f, UC, 4096)
        if w != m or abs(q - m) >= 0.01:
            bad += 1
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed < 60.0
    detail = f"failures={bad}/500 elapsed={elapsed:.2f}s"
    assert _report(3, ok, detail), detail


def test_criterion_04_main_bound_property():
    """1000 planted instances on circles and wobbled circles: measured >= 2m + lam."""
    t0 = time.time()
    rep_a = run_harness(HarnessConfig(trials=500, max_degree=6, curve_family="circle", seed=4))
    rep_b = run_harness(HarnessConfig(trials=500, max_degree=6, curve_family="trig-perturbed", seed=44))
    elapsed = time.time() - t0
    violations = len(rep_a.violations) + len(rep_b.violations)
    sharp = min(rep_a.min_slack, rep_b.min_slack)
    ok = violations == 0 and elapsed < 300.0
    detail = f"violations={violations}/1000 min_slack={sharp} reruns={rep_a.reruns + rep_b.reruns} elapsed={elapsed:.1f}s"
    assert _report(4, ok, detail), detail


def test_criterion_05_disc_preimage_law():
    """(z-1)^k (z+5) on a radius-1e-3 circle around 1 meets any line 2k times."""
    t0 = time.time()
    bad = []
    for k in range(1, 5):
        f = Polynomial.from_roots([(1.0, k), (-5.0, 1)])
        for line in (Line.real_axis(), Line.imag_axis(), Line(0.73)):
            got = count_disc_preimages(f, 1.0, k, 1e-3, line)
            if got != 2 * k:
                bad.append((k, line.angle, got))
    elapsed = time.time() - t0
    ok = not bad
    detail = f"violations={bad} elapsed={elapsed:.2f}s"
    assert _report(5, ok, detail), detail


def test_criterion_06_arg_derivative_estimate():
    """Probe deviation < 0.1 at eps=1e-2 and strictly smaller at eps=1e-3, for (z-1)^k."""
    rows = {}
    for k in range(1, 6):
        f = Polynomial.from_roots([(1.0, k)])
        _, dev2 = arg_derivative_probe(f, 1.0, 1e-2)
        _, dev3 = arg_derivative_probe(f, 1.0, 1e-3)
        rows[k] = (dev2, dev3)
    leg1 = all(dev2 < 0.1 for dev2, _ in rows.values())
    leg2 = all(dev3 < dev2 for dev2, dev3 in rows.values())
    ok = leg1 and leg2
    devs = {k: (float(f"{a:.3e}"), float(f"{b:.3e}")) for k, (a, b) in rows.items()}
    detail = f"leg1(<0.1 at 1e-2)={leg1} leg2(strict decrease at 1e-3)={leg2} devs={devs}"
    assert _report(6, ok, detail), detail


def test_criterion_07_detour_verification():
    """50 instances with boundary zeros: detour builds, winding == m+lam, count >= 2(m+lam)."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    cfg = HarnessConfig(trials=1, max_degree=5, curve_family="circle", seed=0)
    fails = []
    for i in range(50):
        inst = random_instance(rng, cfg, min_on_curve=1, max_multiplicity=2, separation=0.7)
        try:
            rep, _ = verify_detour(inst.polynomial, inst.curve, inst.line)
        except Exception as exc:  # noqa: BLE001 - any failure indicts the construction
            fails.append((i, type(exc).__name__))
            continue
        if rep.winding != inst.m + inst.lam or rep.preimage_count < 2 * (inst.m + inst.lam):
            fails.append((i, rep.winding, inst.m + inst.lam, rep.preimage_count))
    elapsed = time.time() - t0
    ok = not fails
    detail = f"failures={fails} elapsed={elapsed:.1f}s"
    assert _report(7, ok, detail), detail


def test_criterion_08_cosine_sum_application():
    """500 random coefficient vectors: Z_P + Z_Q >= 2n and the degree identity; comb case exact."""
    t0 = time.time()
    from zerowind import verify_trig

    rng = np.random.default_rng(8)
    bad = 0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        a = rng.uniform(-1.0, 1.0, size=n + 1)
        while abs(a[0]) < 0.05:
            a[0] = rng.uniform(-1.0, 1.0)
        while abs(a[-1]) < 0.05:
            a[-1] = rng.uniform(-1.0, 1.0)
        rep = verify_trig(list(a))
        if not (rep.bound_holds and rep.identity_holds):
            bad += 1
    comb_bad = []
    for n in range(1, 9):
        rep = verify_trig([1.0] + [0.0] * (n - 1) + [1.0])
        if not (rep.z_p == n and rep.z_q == n):
            comb_bad.append((n, rep.z_p, rep.z_q))
    elapsed = time.time() - t0
    ok = bad == 0 and not comb_bad
    detail = f"random_failures={bad}/500 comb_failures={comb_bad} elapsed={elapsed:.1f}s"
    assert _report(8, ok, detail), detail


def test_criterion_09_piecewise_bound_property():
    """200 cornered-curve instances with boundary zeros: the ceiling bound holds; smooth case degenerates."""
    t0 = time.time()
    rep_sq = run_harness(
        HarnessConfig(trials=100, max_degree=6, curve_family="square", seed=9), min_on_curve=1
    )
    rep_l = run_harness(
        HarnessConfig(trials=100, max_degree=6, curve_family="lshape", seed=99), min_on_curve=1
    )
    violations = len(rep_sq.violations) + len(rep_l.violations)

    # smooth degeneration: the piecewise bound must equal the smooth bound
    # exactly, and the planted bound must still be met.  (The classified bound
    # may legitimately differ from the planted one when a planted double root
    # on the curve splits at coefficient-rounding scale.)
    rng = np.random.default_rng(909)
    cfg = HarnessConfig(trials=1, max_degree=5, curve_family="circle", seed=0)
    degen_bad = 0
    for _ in range(20):
        inst = random_instance(rng, cfg, min_on_curve=1)
        a = verify_main(inst.polynomial, inst.curve, inst.line)
        b = verify_piecewise(inst.polynomial, inst.curve, inst.line)
        if not (a.bound == b.bound and a.measured == b.measured and b.measured >= max(b.bound, inst.bound)):
            degen_bad += 1
    elapsed = time.time() - t0
    ok = violations == 0 and degen_bad == 0 and elapsed < 300.0
    detail = (
        f"violations={violations}/200 min_slack={min(rep_sq.min_slack, rep_l.min_slack)} "
        f"degeneration_failures={degen_bad}/20 elapsed={elapsed:.1f}s"
    )
    assert _report(9, ok, detail), detail


def test_criterion_10_oracle_equivalence():
    """count_preimages matches a 1e6-sample brute-force clustering oracle on 100 instances."""
    t0 = time.time()
    rng = np.random.default_rng(10)
    mismatches = []
    for i in range(100):
        fam = "circle" if i % 2 == 0 else "trig-perturbed"
        cfg = HarnessConfig(trials=1, max_degree=6, curve_family=fam, seed=0)
        inst = random_instance(rng, cfg)
        a = count_preimages(inst.polynomial, inst.curve, inst.line).count
        b = dense_line_crossing_count(inst.polynomial, inst.curve, inst.line, samples=1_000_000)
        if a != b:
            mismatches.append((i, a, b))
    elapsed = time.time() - t0
    ok = not mismatches
    detail = f"mismatches={mismatches} elapsed={elapsed:.1f}s"
    assert _report(10, ok, detail), detail
