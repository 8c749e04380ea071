"""Independent oracles used to derive expected values.

Everything here is deliberately naive and separate from the library's own
code paths: power-sum evaluation instead of Horner, binomial expansion by
combinatorics, brute-force dense scans instead of adaptive refinement, and
exact vector geometry for polygon angles.  The ``reference_*`` and ``full_*``
functions are plain forms of library kernels, most of them verbatim copies of
earlier, slower forms, which the faster forms must match bit for bit.
``full_matrix_diameter`` is the diameter over the whole distance table, and
``pointwise_preimage_values`` evaluates preimages one point at a time.
``reference_nearest_parameter``, ``reference_joints``, ``reference_windings``,
``reference_breaks`` and ``reference_corners`` take every segment on its own,
as each curve did before a curve of several arcs was evaluated as one table;
``reference_nearest_parameter`` also measures a one-segment curve's nearest
points before it picks that segment.  ``full_matrix_trig_area`` takes one exponential per entry of a trig
segment's area table.
``reference_laurent_points`` and ``reference_laurent_derivs`` build a trig
segment's Laurent coefficients one harmonic at a time; the earlier cosine and
sine series, ``reference_trig_series``, stay as a second float oracle, checked
against ``mpmath`` within the same bound as the kernel.  ``scan_nearest_parameter`` is
the earlier nearest-point search, which the closed forms on every segment kind
must match up to rounding.  The termwise cosine scan is the rule of an earlier
sampled zero count, and ``sympy_cosine_zero_count`` counts the same zeros by
sympy's exact real-root isolation, as ``sympy_segment_residual_roots`` does
for the line residual on one straight segment.  ``dense_chain`` and
``polyline_chain_meeting`` decide whether a closed chain of arcs and straight
pieces meets itself from 8193 samples per piece, with no library code.
``reference_exact_cosine_zero_count`` is the exact integer count of a cosine
sum's zeros as it was before its kernel was fused, with its helpers, copied
verbatim; the library's count must match it count for count.
"""

from __future__ import annotations

import math

import numpy as np
import sympy

from zerowind.curves import TrigSegment

TWO_PI = 2.0 * np.pi


def naive_poly_eval(coeffs, z):
    """Power-sum evaluation sum_j a_j z^j (no Horner)."""
    return sum(c * z**j for j, c in enumerate(coeffs))


def binomial_shift_coeffs(a: complex, n: int) -> list[complex]:
    """Coefficients of (z + a)^n in ascending degree, via binomial combinatorics."""
    return [math.comb(n, j) * a ** (n - j) for j in range(n + 1)]


def dense_line_crossing_count(f, curve, line, samples: int = 1_000_000, dip_rel: float = 1e-7) -> int:
    """Count distinct zeros of the line residual by brute-force clustering.

    Samples the residual h densely, flags sign flips and near-zero values, and
    counts maximal cyclic runs of flagged samples.
    """
    ts = np.arange(samples) / samples
    h = np.imag(np.exp(-1j * line.angle) * np.asarray(f(curve.points(ts)), dtype=complex))
    scale = float(np.max(np.abs(h)))
    assert scale > 0.0
    nxt = np.roll(h, -1)
    flips = ((h < 0) & (nxt > 0)) | ((h > 0) & (nxt < 0))
    mark = (np.abs(h) < dip_rel * scale) | (h == 0.0) | flips | np.roll(flips, 1)
    if mark.all():
        return 1
    return int(np.sum(mark & ~np.roll(mark, 1)))


def dense_cosine_zero_count(coeffs, samples: int = 1_000_000, dip_rel: float = 1e-7) -> int:
    """Distinct zeros of sum_j c_j cos(j t) on [0, 2*pi), brute force."""
    t = np.arange(samples) * (2.0 * np.pi / samples)
    vals = np.zeros(samples)
    for j, c in enumerate(coeffs):
        vals += c * np.cos(j * t) if j else np.full(samples, float(c))
    scale = float(np.max(np.abs(vals)))
    assert scale > 0.0
    nxt = np.roll(vals, -1)
    flips = ((vals < 0) & (nxt > 0)) | ((vals > 0) & (nxt < 0))
    mark = (np.abs(vals) < dip_rel * scale) | (vals == 0.0) | flips | np.roll(flips, 1)
    if mark.all():
        return 1
    return int(np.sum(mark & ~np.roll(mark, 1)))


def termwise_cosine_zero_count(coeffs, samples: int = 262144) -> int:
    """Distinct zeros of sum_j c_j cos(j t) on [0, 2*pi) by a sampled scan, one np.cos per term.

    Marks the samples in a sign change or under a resolution-scaled dip band
    and counts maximal cyclic runs of them.  Right on well-separated zeros;
    the band merges zeros closer than it resolves (on (1 + z)^8 it counts 7
    of 9).
    """
    t = np.arange(samples) * (TWO_PI / samples)
    vals = np.zeros(samples)
    for j, c in enumerate(coeffs):
        vals += c * np.cos(j * t) if j else np.full(samples, float(c))
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        raise ValueError("cosine sum vanishes identically at scan resolution")

    n = len(coeffs) - 1
    dip_band = max(4.0 * (n * TWO_PI / samples) ** 2, 1e3 * np.finfo(float).eps)
    nxt = np.roll(vals, -1)
    flip = ((vals < 0) & (nxt > 0)) | ((vals > 0) & (nxt < 0))
    mark = flip | np.roll(flip, 1) | (np.abs(vals) < dip_band * scale)
    if mark.all():
        return 1
    if not mark.any():
        return 0
    return int(np.sum(mark & ~np.roll(mark, 1)))


def sympy_cosine_zero_count(coeffs) -> int:
    """Distinct zeros of sum_j c_j cos(j t) on [0, 2*pi) by sympy's exact real-root count.

    The sum is p(cos t) with p = sum_j c_j T_j over the rationals, each float
    taken exactly.  sympy counts the roots of p's square-free part in
    [-1, 1]; the roots 1 and -1 are cos t at one t each (0 and pi), every
    other root at two.
    """
    x = sympy.Symbol("x")
    p = sympy.Poly(sum(sympy.Rational(float(c)) * sympy.chebyshevt(j, x) for j, c in enumerate(coeffs)), x)
    sqf = p.sqf_part()
    ends = int(sqf.eval(1) == 0) + int(sqf.eval(-1) == 0)
    return 2 * (sqf.count_roots(-1, 1) - ends) + ends


def sympy_segment_residual_roots(coeffs, start: complex, end: complex) -> list[float]:
    """Distinct real roots in [0, 1] of h(s) = Im f(start + s (end - start)), by sympy's exact real-root isolation.

    Every float is taken exactly, so dyadic data gives h exactly.  None when
    h vanishes identically on the segment.
    """
    s = sympy.Symbol("s", real=True)

    def exact(c):
        c = complex(c)
        return sympy.Rational(c.real) + sympy.I * sympy.Rational(c.imag)

    z = exact(start) + s * (exact(end) - exact(start))
    h = sympy.im(sympy.expand(sum(exact(c) * z**k for k, c in enumerate(coeffs))))
    poly = sympy.Poly(sympy.expand(h), s)
    if poly.is_zero:
        return None
    return sorted({float(r) for r in poly.real_roots() if 0 <= r <= 1})


def reference_dispatch(curve, t, per_segment):
    """``JordanCurve._dispatch`` as it was before the one-segment path and the per-curve break arrays.

    Every call searches all breaks, clips the index and scatters each
    segment's values through a mask; the library's dispatch must give the
    same bits.
    """
    ts = np.asarray(t, dtype=float)
    scalar = ts.ndim == 0
    ts = np.atleast_1d(ts) % 1.0
    br = np.asarray(curve.breaks)
    idx = np.clip(np.searchsorted(br, ts, side="right") - 1, 0, len(curve.segments) - 1)
    out = np.empty(ts.shape, dtype=complex)
    for i, seg in enumerate(curve.segments):
        mask = idx == i
        if mask.any():
            width = br[i + 1] - br[i]
            out[mask] = per_segment(seg, (ts[mask] - br[i]) / width, width)
    return out[0] if scalar else out


def reference_trig_series(coeffs, theta):
    """One packed series c0 + sum_k (a_k cos(k t) + b_k sin(k t)), one np.cos and np.sin per term."""
    theta = np.asarray(theta, dtype=float)
    out = np.full(theta.shape, float(coeffs[0]))
    for k in range(1, len(coeffs) // 2 + 1):
        out = out + coeffs[2 * k - 1] * np.cos(k * theta)
        if 2 * k < len(coeffs):
            out = out + coeffs[2 * k] * np.sin(k * theta)
    return out


def reference_trig_series_deriv(coeffs, theta):
    """Derivative of :func:`reference_trig_series` with respect to the series variable."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(theta.shape)
    for k in range(1, len(coeffs) // 2 + 1):
        out = out - k * coeffs[2 * k - 1] * np.sin(k * theta)
        if 2 * k < len(coeffs):
            out = out + k * coeffs[2 * k] * np.cos(k * theta)
    return out


def _laurent_coefficients(coeffs_x, coeffs_y):
    """c_0, [c_1 .. c_K] and [c_-1 .. c_-K] of x + i y, built one harmonic at a time.

    With (a, b) the x series' cosine and sine coefficients of harmonic k and
    (c, d) the y series', c_k = ((a + d) + i (c - b)) / 2 and
    c_-k = ((a - d) + i (c + b)) / 2.  A missing coefficient is 0.
    """

    def coeff(coeffs, i):
        return float(coeffs[i]) if i < len(coeffs) else 0.0

    pos, neg = [], []
    for k in range(1, max(len(coeffs_x), len(coeffs_y), 2) // 2 + 1):
        a, b = coeff(coeffs_x, 2 * k - 1), coeff(coeffs_x, 2 * k)
        c, d = coeff(coeffs_y, 2 * k - 1), coeff(coeffs_y, 2 * k)
        pos.append(complex((a + d) / 2, (c - b) / 2))
        neg.append(complex((a - d) / 2, (c + b) / 2))
    return complex(coeff(coeffs_x, 0), coeff(coeffs_y, 0)), pos, neg


def _horner(coeffs, w):
    """sum_k coeffs[k-1] w^k by Horner's rule, from the highest power down."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * w + c
    return acc * w


def reference_laurent_points(coeffs_x, coeffs_y, theta):
    """x + i y as the Laurent polynomial c_0 + sum_k (c_k w^k + c_-k conj(w)^k), w = exp(i theta)."""
    c0, pos, neg = _laurent_coefficients(coeffs_x, coeffs_y)
    w = np.exp(1j * np.asarray(theta, dtype=float))
    return c0 + _horner(pos, w) + _horner(neg, np.conj(w))


def reference_laurent_derivs(coeffs_x, coeffs_y, theta):
    """d/dtheta of :func:`reference_laurent_points`: the coefficients i k c_k and -i k c_-k in the same sum."""
    _, pos, neg = _laurent_coefficients(coeffs_x, coeffs_y)
    dpos = [complex(-k * c.imag, k * c.real) for k, c in enumerate(pos, start=1)]
    dneg = [complex(k * c.imag, -k * c.real) for k, c in enumerate(neg, start=1)]
    w = np.exp(1j * np.asarray(theta, dtype=float))
    return _horner(dpos, w) + _horner(dneg, np.conj(w))


def reference_points(curve, t):
    """Curve points by the reference dispatch, evaluating trig segments by the reference Laurent sum."""

    def per_segment(seg, s, w):
        if isinstance(seg, TrigSegment):
            th = seg.theta0 + np.asarray(s, dtype=float) * (seg.theta1 - seg.theta0)
            return reference_laurent_points(seg.coeffs_x, seg.coeffs_y, th)
        return seg.points(s)

    return reference_dispatch(curve, t, per_segment)


def reference_derivs(curve, t):
    """d(curve)/dt by the reference dispatch, evaluating trig segments by the reference Laurent sum."""

    def per_segment(seg, s, w):
        if isinstance(seg, TrigSegment):
            th = seg.theta0 + np.asarray(s, dtype=float) * (seg.theta1 - seg.theta0)
            span = seg.theta1 - seg.theta0
            return span * reference_laurent_derivs(seg.coeffs_x, seg.coeffs_y, th) / w
        return seg.derivs(s) / w

    return reference_dispatch(curve, t, per_segment)


def reference_nearest_parameter(curve, ps):
    """``nearest_parameter`` as every curve took it before arc tables: each segment's ``nearest`` on its own."""
    br = np.asarray(curve.breaks)
    s = np.array([seg.nearest(ps) for seg in curve.segments])
    gaps = np.abs(np.array([seg.points(si) for seg, si in zip(curve.segments, s)]) - ps)
    i = np.argmin(gaps, axis=0)
    si = s[i, np.arange(len(ps))]
    t = np.where(si == 1.0, br[i + 1], br[i] + si * (br[i + 1] - br[i])) % 1.0
    return t, np.abs(reference_points(curve, t) - ps)


def reference_joints(segments):
    """Each segment's end and the next segment's start, one segment at a time."""
    ends = [complex(seg.points(1.0)) for seg in segments]
    starts = [complex(seg.points(0.0)) for seg in segments[1:] + segments[:1]]
    return np.array(ends), np.array(starts)


def reference_windings(curve, ps):
    """The closed-form winding sum before arc tables: each segment's ``turns`` left to right, plus the joint gaps."""
    ends, starts = (pts[:, np.newaxis] for pts in reference_joints(curve.segments))
    with np.errstate(divide="ignore", invalid="ignore"):
        gaps = np.angle((starts - ps) / (ends - ps)).sum(axis=0) / TWO_PI
        return sum(seg.turns(ps) for seg in curve.segments) + gaps


def reference_breaks(segments) -> tuple:
    """The break points of a chain: 0.0, the cumulative rough lengths over their sum, 1.0."""
    lengths = np.array([max(s.rough_length(), 1e-300) for s in segments]) if len(segments) > 1 else np.ones(1)
    cum = np.concatenate([[0.0], np.cumsum(lengths)]) / lengths.sum()
    cum[-1] = 1.0
    return tuple(cum)


def reference_corners(segments, breaks, corner_tol: float = 1e-6) -> list[tuple[float, complex, float]]:
    """(parameter, location, interior angle) at each joint whose one-sided tangents turn by more than corner_tol.

    One joint at a time: the tangent angles of the segment before and after,
    their difference wrapped to (-pi, pi], and pi minus it for the angle.
    """
    corners = []
    for i, seg in enumerate(segments):
        incoming, outgoing = complex(segments[i - 1].derivs(1.0)), complex(seg.derivs(0.0))
        turn = float(np.pi - (np.pi - (np.angle(outgoing) - np.angle(incoming))) % TWO_PI)
        if abs(turn) > corner_tol:
            corners.append((breaks[i], complex(seg.points(0.0)), np.pi - turn))
    return corners


def full_golden_min(fn, lo, hi):
    """Golden-section minimization that always runs all 80 steps."""
    inv_gold = (np.sqrt(5.0) - 1.0) / 2.0
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    for _ in range(80):
        gap = hi - lo
        c = hi - inv_gold * gap
        d = lo + inv_gold * gap
        keep_low = np.asarray(fn(c)) < np.asarray(fn(d))
        hi = np.where(keep_low, d, hi)
        lo = np.where(keep_low, lo, c)
    return 0.5 * (lo + hi)


def scan_nearest_parameter(curve, ps):
    """``zerowind.curves.nearest_parameter`` as it was before closed-form nearest points.

    One coarse scan and one golden refine on every curve, with the refine
    that always runs all 80 steps (the same bits as the early-stopping one).
    """
    n = max(2048, 512 * len(curve.segments))
    ts = np.arange(n) / n
    i = np.argmin(np.abs(curve.points(ts)[:, None] - ps[None, :]), axis=0)
    tstar = full_golden_min(lambda q: np.abs(curve.points(q) - ps), ts[i] - 1.5 / n, ts[i] + 1.5 / n) % 1.0
    return tstar, np.abs(curve.points(tstar) - ps)


def full_bisect_zero(fn, lo, hi, iters=52):
    """Bisection that always runs all ``iters`` steps."""
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    flo = np.asarray(fn(lo), dtype=float)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = np.asarray(fn(mid), dtype=float)
        same = (np.sign(fm) == np.sign(flo)) & (fm != 0.0)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def chord_area(points) -> float:
    """Half the sum of Im(conj(z_i) z_{i+1}) over consecutive points: the shoelace sum of an open chain.

    On a closed polygon (first point repeated at the end) it is the signed
    area; on samples of one segment it approximates the segment's share of
    it, half the integral of Im(conj(z) dz).
    """
    z = np.asarray(points, dtype=complex)
    return float(0.5 * np.sum((np.conj(z[:-1]) * z[1:]).imag))


def polygon_interior_angle(vertices, i: int) -> float:
    """Interior angle at vertex i of a counterclockwise simple polygon, exactly.

    The wedge from the outgoing edge to the incoming edge, swept through the
    polygon's interior, i.e. (ang(prev - v) - ang(next - v)) mod 2*pi.
    """
    v = complex(vertices[i])
    prev = complex(vertices[i - 1])
    nxt = complex(vertices[(i + 1) % len(vertices)])
    ang = (np.angle(prev - v) - np.angle(nxt - v)) % (2.0 * np.pi)
    return float(ang)


def _scalar_normalized_residual(f, z: complex) -> float:
    denom = sum(abs(c) * max(1.0, abs(z)) ** k for k, c in enumerate(f.coeffs))
    return abs(f(z)) / denom


def _scalar_taylor_magnitudes(f, z: complex) -> np.ndarray:
    mags = np.empty(f.degree + 1)
    g = f
    fact = 1.0
    scale = 1.0 + abs(z)
    for j in range(f.degree + 1):
        mags[j] = abs(g(z)) / fact * scale**j
        if g.degree == 0:
            mags[j + 1 :] = 0.0
            break
        g = g.derivative()
        fact *= j + 1
    return mags


def scalar_vanishing_order(f, z: complex, tol: float = 1e-8) -> int:
    """``zerowind.polynomials.vanishing_order`` as it was before the array kernel: one point, derivatives built on the way."""
    from zerowind.errors import NoConvergence

    mags = _scalar_taylor_magnitudes(f, complex(z))
    top = float(mags.max())
    if top == 0.0:
        raise NoConvergence("all Taylor magnitudes vanished")
    for j, mag in enumerate(mags):
        if mag > tol * top:
            return j
    raise NoConvergence("no Taylor magnitude above tolerance")


def _scalar_clusters_by_radius(points: np.ndarray, radius: float) -> list[np.ndarray]:
    n = len(points)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if abs(points[i] - points[j]) <= radius:
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [np.array(idx) for idx in groups.values()]


def _scalar_polish_root(f, z: complex, mult: int, radius: float) -> complex:
    g = f
    for _ in range(mult - 1):
        g = g.derivative()
    gp = g.derivative() if g.degree >= 1 else None
    if gp is None:
        return z
    out = z
    for _ in range(3):
        d = gp(out)
        if d == 0:
            break
        step = g(out) / d
        if abs(step) > max(radius, 1e-6):
            break
        out = out - step
    return out


def scalar_find_roots(f, tol: float = 1e-10, residual_tol: float | None = None):
    """``zerowind.polynomials.find_roots`` as it was before the array kernel, verbatim in its arithmetic.

    Each cluster centroid is polished and tested on its own, with f's
    derivatives rebuilt for every test.  Returns the sorted
    ``(location, multiplicity, residual)`` triples and the worst residual.
    """
    from zerowind.errors import NoConvergence

    if f.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    if residual_tol is None:
        residual_tol = math.sqrt(tol)
    try:
        raw = np.roots(np.array(f.coeffs[::-1], dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"companion eigenproblem failed: {exc}") from exc
    if len(raw) != f.degree or not np.all(np.isfinite(raw)):
        raise NoConvergence("companion eigenproblem returned an invalid root set")

    for k_cluster in range(1, f.degree + 1):
        radius = tol ** (1.0 / k_cluster)
        groups = _scalar_clusters_by_radius(raw, radius)
        roots = []
        ok = True
        for idx in groups:
            mult = len(idx)
            center = complex(raw[idx].mean())
            center = _scalar_polish_root(f, center, mult, radius)
            if scalar_vanishing_order(f, center, tol=1e-8) != mult:
                ok = False
                break
            roots.append((center, mult))
        if not ok:
            continue
        residual = max(_scalar_normalized_residual(f, z) for z, _ in roots)
        if residual > residual_tol:
            raise NoConvergence(f"root residual {residual:.3g} above {residual_tol:.3g}")
        roots.sort(key=lambda r: (r[0].real, r[0].imag))
        return [(z, m, _scalar_normalized_residual(f, z)) for z, m in roots], residual
    raise NoConvergence("no cluster radius produced multiplicities consistent with the Taylor test")


def sampled_inside(curve, p: complex) -> str:
    """"inside" or "outside" by the sampled winding that classified every curve before the closed form.

    The discrete winding of the curve around p on the 1024-point grid,
    refined until every argument step is below pi/2
    (``zerowind._numeric.adaptive_winding``).  Raises ``AmbiguousClassification``
    where that does not settle on 0 or 1 turns.
    """
    from zerowind._numeric import WindingNotResolved, adaptive_winding
    from zerowind.errors import AmbiguousClassification

    try:
        turns, _, _ = adaptive_winding(lambda ts: curve.points(ts) - p, coarse=curve.grid(1024) - p)
    except WindingNotResolved as exc:
        raise AmbiguousClassification(f"winding around {p} did not converge: {exc}") from exc
    w = round(turns)
    if abs(turns - w) > 0.01 or w not in (0, 1):
        raise AmbiguousClassification(f"winding around {p} is {turns:.6f}")
    return "inside" if w == 1 else "outside"


def segment_probes(segments) -> np.ndarray:
    """Each segment's points at 64 evenly spaced local parameters, segment after segment: what a curve's diameter is taken over."""
    return np.concatenate([seg.points(np.linspace(0.0, 1.0, 64)) for seg in segments])


def full_matrix_trig_area(seg) -> float:
    """``TrigSegment.area`` as it was before its exponentials were gathered: one exp per entry of the full table."""
    c = seg._coefficients
    k = np.arange(len(c)) - len(c) // 2
    d = k - k[:, np.newaxis]
    off = np.exp(1j * d * seg.theta1) - np.exp(1j * d * seg.theta0)
    weights = np.where(d == 0, 1j * k * (seg.theta1 - seg.theta0), k * off / np.where(d == 0, 1, d))
    return 0.5 * float((np.conj(c) @ weights @ c).imag)


def full_matrix_diameter(points) -> float:
    """The largest entry of the full n x n table of |p_i - p_j|, as ``JordanCurve.from_segments`` took its diameter before it was blocked."""
    return float(np.max(np.abs(points[:, None] - points[None, :])))


def pointwise_preimage_values(f, curve, ts) -> list[tuple[float, complex, complex]]:
    """(t, gamma(t), f(gamma(t))) for each t, one ``curve.point`` and one ``f`` call per point, as ``count_preimages`` first did."""
    out = []
    for t in ts:
        z = curve.point(t)
        out.append((float(t), complex(z), complex(f(z))))
    return out


def dense_chain(pieces, samples: int = 8192) -> list[np.ndarray]:
    """Dense polylines of a closed chain of straight pieces and circular arcs, one per piece.

    Each piece is (start, end, sweep).  Sweep 0 is the straight segment; any
    other sweep is the arc that turns by it (counterclockwise when positive)
    about the centre c = (end - start e^{i sweep}) / (1 - e^{i sweep}), which
    maps start to end.  Each polyline has samples + 1 points and keeps the
    exact start and end.
    """
    s = np.linspace(0.0, 1.0, samples + 1)
    lines = []
    for start, end, sweep in pieces:
        if sweep == 0.0:
            pts = start + s * (end - start)
        else:
            turn = np.exp(1j * sweep)
            c = (end - start * turn) / (1.0 - turn)
            pts = c + (start - c) * np.exp(1j * sweep * s)
        pts[0], pts[-1] = start, end
        lines.append(pts)
    return lines


def _side(o, a, b):
    """The sign of the cross product (a - o) x (b - o): which side of the line through o and a b lies on."""
    return np.sign((a - o).real * (b - o).imag - (a - o).imag * (b - o).real)


def _point_to_edge(x, p, q):
    """The distance from each x to the closed edge from p to q."""
    d = q - p
    t = np.clip(((x - p).real * d.real + (x - p).imag * d.imag) / (d.real**2 + d.imag**2), 0.0, 1.0)
    return np.abs(x - (p + t * d))


def _blocks(pts, size):
    """The polyline cut into runs of ``size`` edges, with each run's bounding box as (low, high) corner arrays."""
    runs = [pts[i : i + size + 1] for i in range(0, len(pts) - 1, size)]
    low = np.array([[r.real.min(), r.imag.min()] for r in runs])
    high = np.array([[r.real.max(), r.imag.max()] for r in runs])
    return runs, low, high


def polyline_chain_meeting(polylines, near: float = 1e-3, size: int = 64) -> tuple[bool, float]:
    """Whether two non-adjacent polylines of a closed chain share a point, and how near the others come.

    Returns (meets, closest): meets is True when an edge of one polyline and
    an edge of a non-adjacent one share a point, that is, each edge's ends
    lie on both sides of the other's line or on it and their bounding boxes
    overlap.  closest is the least distance between non-adjacent polylines
    that share no point, the least of the end-to-edge distances of their
    edges, or ``near`` when none comes within ``near``.  Only runs of
    ``size`` edges whose boxes come within ``near`` of each other are
    compared edge by edge.
    """
    k = len(polylines)
    blocks = [_blocks(pts, size) for pts in polylines]
    meets, closest = False, near
    for i in range(k):
        for j in range(i + 2, k - (i == 0)):
            (runs_a, low_a, high_a), (runs_b, low_b, high_b) = blocks[i], blocks[j]
            gap = np.maximum(0.0, np.maximum(low_a[:, None] - high_b[None], low_b[None] - high_a[:, None]))
            pair_meets, pair_closest = False, near
            for a, b in np.argwhere(np.hypot(gap[..., 0], gap[..., 1]) < near):
                ra, rb = runs_a[a], runs_b[b]
                p, q = ra[:-1, None], ra[1:, None]
                r, s = rb[None, :-1], rb[None, 1:]
                boxes = np.ones(p.shape[0:1] + r.shape[1:], dtype=bool)
                for part in (np.real, np.imag):
                    boxes &= np.maximum(np.minimum(part(p), part(q)), np.minimum(part(r), part(s))) <= np.minimum(
                        np.maximum(part(p), part(q)), np.maximum(part(r), part(s))
                    )
                touch = (_side(p, q, r) * _side(p, q, s) <= 0) & (_side(r, s, p) * _side(r, s, q) <= 0) & boxes
                if touch.any():
                    pair_meets = True
                    break
                ends = np.minimum(
                    np.minimum(_point_to_edge(p, r, s), _point_to_edge(q, r, s)),
                    np.minimum(_point_to_edge(r, p, q), _point_to_edge(s, p, q)),
                )
                pair_closest = min(pair_closest, float(ends.min()))
            if pair_meets:
                meets = True
            else:
                closest = min(closest, pair_closest)
    return meets, closest


# ---------------------------------------------------------------------------
# the exact cosine count as it was before its kernel was fused: every
# pseudo-remainder in the general loop, values by Horner's rule, and one
# derivative per Sturm sequence.  The library's kernel must give the same
# count, or raise the same exception with the same message, on every input.

# A coefficient with at most _EXACT_BITS significant bits is taken as exact
# (integers, short dyadics); any other as rounded to the nearest float, off by
# at most 2^-53 of itself.  The exact count resolves the cosine sum to 2^-44
# of the rounded coefficients' sum of magnitudes, 2^9 times the rounding bound.
_EXACT_BITS = 40
_CLUSTER_LEVEL_BITS = 44


def _deflate(p: list[int], r: int) -> list[int] | None:
    """p / (x - r) by synthetic division, coefficients highest degree first; None when r is not a root."""
    acc, quotient = 0, []
    for a in p:
        acc = a + r * acc
        quotient.append(acc)
    return quotient[:-1] if acc == 0 else None


def _primitive(p: list[int]) -> list[int]:
    """p without leading zeros, divided by the gcd of its coefficients (a positive factor)."""
    while p and p[0] == 0:
        p = p[1:]
    g = math.gcd(*p)
    return [a // g for a in p] if g > 1 else p


def _sturm_next(a: list[int], b: list[int]) -> list[int]:
    """The primitive part of -rem(a, b), from the pseudo-remainder lc(b)^k a mod b, k = deg a - deg b + 1.

    Dividing out lc(b)^k and the content multiplies the remainder by a
    positive factor once the sign of lc(b)^k is undone, so the sign changes
    of the sequence are those of the Sturm sequence.
    """
    lead, r = b[0], list(a)
    k = len(a) - len(b) + 1
    for i in range(k):
        q = r[i]
        r[i + 1 :] = [lead * c for c in r[i + 1 :]]
        r[i + 1 : i + len(b)] = [c - q * d for c, d in zip(r[i + 1 : i + len(b)], b[1:])]
    rem = r[k:]
    if lead > 0 or k % 2 == 0:
        rem = [-c for c in rem]
    return _primitive(rem)


def _value(p: list[int], x: int) -> int:
    """p(x), coefficients highest degree first."""
    v = 0
    for a in p:
        v = v * x + a
    return v


def _sign_changes(seq: list[list[int]], x: int) -> int:
    """Sign changes of the sequence's values at x = 1 or x = -1, zeros skipped."""
    signs = [v > 0 for v in (_value(p, x) for p in seq) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _sturm_count(p: list[int]) -> tuple[int, bool]:
    """Distinct roots of p in (-1, 1), for p(1), p(-1) != 0, and whether p is square-free.

    The Sturm sequence of p and p', each remainder's primitive part in place
    of the remainder: its sign changes at -1 and at 1 differ by the count,
    and it ends in a constant exactly when p has no multiple root.
    """
    deg = len(p) - 1
    seq, a, b = [p], p, _primitive([c * (deg - i) for i, c in enumerate(p[:-1])])
    while b:
        seq.append(b)
        a, b = b, _sturm_next(a, b)
    return _sign_changes(seq, -1) - _sign_changes(seq, 1), len(seq[-1]) == 1


def reference_exact_cosine_zero_count(coeffs) -> int:
    """Zeros of P(t) = sum_j c_j cos(j t) on [0, 2*pi), counted exactly in integer arithmetic.

    Independent of the curve/preimage machinery.  With x = cos t the sum is
    the polynomial p(x) = sum_j c_j T_j(x); each root of p in (-1, 1) is cos t
    at two t, the root 1 at t = 0 and the root -1 at t = pi.  Floats are
    dyadic rationals, so a common power of two turns the coefficients into
    ints, and everything after is exact, starting with the monomial
    coefficients of p from T_{j+1} = 2x T_j - T_{j-1}.

    When every coefficient is exact (at most 40 significant bits), the count
    is of the distinct zeros: p is divided by x - 1 and x + 1 while they
    divide it, and a Sturm sequence counts the distinct roots left in
    (-1, 1).  Otherwise P is known only to within its rounding, and the
    count is resolved to eta = 2^-44 sum |c_j| over the rounded c_j: it is
    the number of arcs of t on which |P| <= eta, one per zero of any order,
    and one per cluster of zeros and touches that the rounding could have
    split, merged or lifted off (a decimal root at z = 1 is one).  Each arc
    ends where P crosses eta or -eta, so the count is the number of roots of
    p - eta and p + eta in (-1, 1); where eta is a critical value of p, or
    |p(1)| or |p(-1)|, a crossing is not clean and eta is halved until none
    is.
    """
    ratios = [float(c).as_integer_ratio() for c in coeffs]
    den = max(d for _, d in ratios)
    p = [0] * len(ratios)  # lowest degree first, until reversed below
    prev, cur = [0, 1], [1]  # T_{-1} = T_1 = x, T_0 = 1
    eta = 0  # sum |c_j| over the rounded c_j, times den as p is
    for num, d in ratios:
        a = num * (den // d)
        m = abs(num)
        if m.bit_length() - (m & -m).bit_length() + 1 > _EXACT_BITS:  # significant bits
            eta += abs(a)
        for i, t in enumerate(cur):
            p[i] += a * t
        nxt = [0] + [2 * t for t in cur]
        for i, t in enumerate(prev):
            nxt[i] -= t
        prev, cur = cur, nxt
    p = p[::-1]
    while p and p[0] == 0:
        p = p[1:]
    if not p:
        raise ValueError("cosine sum vanishes identically")

    if not eta:
        ends = 0
        for r in (1, -1):
            q = _deflate(p, r)
            ends += q is not None
            while q is not None:
                p, q = q, _deflate(q, r)
        return 2 * _sturm_count(p)[0] + ends
    for bits in range(_CLUSTER_LEVEL_BITS, _CLUSTER_LEVEL_BITS + 64):
        scaled = [c << bits for c in p]
        count = 0
        for level in (eta, -eta):
            g = scaled[:-1] + [scaled[-1] - level]
            if _value(g, 1) == 0 or _value(g, -1) == 0:
                break
            roots, square_free = _sturm_count(g)
            if not square_free:  # p touches the level
                break
            count += roots
        else:
            return count
    raise ValueError("no clean resolution for the cosine sum")
