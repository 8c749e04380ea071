"""Independent oracles used to derive expected values.

Everything here is deliberately naive and separate from the library's own
code paths: power-sum evaluation instead of Horner, binomial expansion by
combinatorics, brute-force dense scans instead of adaptive refinement, and
exact vector geometry for polygon angles.  The ``reference_*`` and ``full_*``
functions are plain forms of library kernels, most of them verbatim copies of
earlier, slower forms, which the faster forms must match bit for bit.
``full_matrix_diameter`` is the diameter over the whole distance table, and
``pointwise_preimage_values`` evaluates preimages one point at a time.
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
