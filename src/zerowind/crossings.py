"""Counting the distinct curve points whose polynomial image lands on a line through the origin.

For a line at angle phi the signed residual h = Im(u f(gamma)), u = e^{-i phi},
vanishes exactly where f(gamma) belongs to the line.  On every segment h is a
polynomial in the segment's own variable, so its zeros are polynomial roots
(Boyd, SIAM J. Numer. Anal. 40, 2002, and J. Eng. Math. 56, 2006):

* an arc c + R w or a trig segment is a Laurent polynomial z(w) in
  w = e^{i theta} with exponents -K..K.  G(w) = w^{nK} f(z(w)) has degree
  2nK, and on |w| = 1, 2i w^{nK} h = u G(w) - conj(u) G*(w), with G* the
  conjugate reversal of G.  The zeros of h are that polynomial's roots on
  the unit circle, inside the segment's angular range.
* a line segment a + s d gives the real polynomial h(s) = Im(u f(a + s d)),
  whose zeros are its real roots in [0, 1].

The on-curve zeros of f, which always map to the line since it passes through
the origin, are divided out of G before the roots are taken: with
G = prod (w - w_j)^{k_j} q and every |w_j| = 1, the residual polynomial is
prod (w - w_j)^{k_j} (u q - conj(u) c q*), c = prod (-conj(w_j))^{k_j}, and
rounding cannot split the zeros' multiple roots into phantom crossings.  A
zero at a break is divided out of both segments that meet there.  Roots and
zeros closer than ``MERGE_RADIUS`` in the curve parameter are one point, so a
tangency that rounding splits into two roots is counted once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._numeric import TWO_PI, is_integer, polynomial_roots
from .curves import ArcSegment, JordanCurve, LineSegment, circle
from .errors import BelowNoiseFloor
from .polynomials import Polynomial, ZeroReport, classify_roots, find_roots

# A root of a segment's residual polynomial is a zero of h when it lies within
# CIRCLE_TOL of |w| = 1 (arcs and trig segments) or has imaginary part within
# CIRCLE_TOL * (1 + |s|) (line segments).
CIRCLE_TOL = 1e-6
# Candidates closer than this in the global curve parameter are one point.
MERGE_RADIUS = 1e-7
# Local parameter by which a root may pass its segment's ends, so that a
# crossing at a break is not lost to rounding on both sides of it.
_END_SLACK = 1e-9


@dataclass(frozen=True)
class Line:
    """Line through the origin: { r * exp(i*angle) : r real }, angle reduced mod pi."""

    angle: float

    def __post_init__(self):
        a = float(self.angle)
        if not np.isfinite(a):
            raise ValueError(f"line angle must be finite, not {a}")
        a %= np.pi
        # a tiny negative angle reduces to pi itself, which names the same line as 0
        object.__setattr__(self, "angle", 0.0 if a == np.pi else a)

    @classmethod
    def real_axis(cls) -> "Line":
        return cls(0.0)

    @classmethod
    def imag_axis(cls) -> "Line":
        return cls(np.pi / 2.0)

    def residual(self, values) -> np.ndarray:
        """Im(e^{-i angle} v) for each value v: zero exactly where v is on the line."""
        return np.imag(np.exp(-1j * self.angle) * np.asarray(values, dtype=complex))

    def to_json(self):
        return {"angle": self.angle}

    @classmethod
    def from_json(cls, obj) -> "Line":
        if isinstance(obj, str):
            alias = obj.strip()
            if alias == "real-axis":
                return cls.real_axis()
            if alias == "imag-axis":
                return cls.imag_axis()
            raise ValueError(f"unknown line alias {alias!r}")
        return cls(float(obj["angle"]))


@dataclass(frozen=True)
class PreimagePoint:
    t: float
    z: complex
    value: complex
    contact: str  # "transversal" | "tangential" | "zero-of-f"


@dataclass(frozen=True)
class PreimageSet:
    """The distinct preimages of one count: each one's curve parameter t and contact, in increasing t.

    ``points`` evaluates them on its first read, with one ``curve.points``
    call over every t and one call of f, the floats of one call per point.
    A caller that reads only ``count`` evaluates nothing.
    """

    f: Polynomial
    curve: JordanCurve
    found: tuple[tuple[float, str], ...]

    @property
    def count(self) -> int:
        return len(self.found)

    @cached_property
    def points(self) -> tuple[PreimagePoint, ...]:
        ts = np.array([t for t, _ in self.found], dtype=float)
        zs = self.curve.points(ts)
        return tuple(
            PreimagePoint(t, z, value, contact)
            for (_, contact), t, z, value in zip(self.found, ts.tolist(), zs.tolist(), self.f(zs).tolist())
        )

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "points": [
                {"t": p.t, "z": [p.z.real, p.z.imag], "value": [p.value.real, p.value.imag], "contact": p.contact}
                for p in self.points
            ],
        }


def _compose(f: Polynomial, inner: np.ndarray, shift: int, floor: float) -> np.ndarray:
    """Ascending coefficients of x^{n shift} f(inner(x) / x^shift), n = deg f, by Horner's rule.

    Each step multiplies by ``inner`` and adds the next coefficient of f at
    x^{shift (n - j)}: shift 0 composes with a polynomial, shift K with the
    Laurent polynomial whose w^K multiple is ``inner``.  Raises
    BelowNoiseFloor when no coefficient of the result rises above ``floor``.
    """
    n = f.degree
    acc = np.array([f.coeffs[-1]], dtype=complex)
    for j in range(n - 1, -1, -1):
        acc = np.convolve(acc, inner)
        acc[shift * (n - j)] += f.coeffs[j]
    if not np.any(np.abs(acc) > floor):
        raise BelowNoiseFloor(f"f on a curve segment stays under its evaluation noise floor {floor:.3g}")
    return acc


def _deflate(coeffs: np.ndarray, root: complex) -> np.ndarray:
    """Ascending coefficients of the quotient by (x - root), the remainder dropped."""
    out = np.empty(len(coeffs) - 1, dtype=complex)
    acc = 0j
    for k in range(len(coeffs) - 1, 0, -1):
        acc = coeffs[k] + root * acc
        out[k - 1] = acc
    return out


def _in_range(s: np.ndarray, period: float = np.inf) -> np.ndarray:
    """The local parameters on their segment, clipped to [0, 1], up to _END_SLACK past either end.

    ``s`` is taken modulo ``period``: a value just under it lies just before
    the segment's start.
    """
    before = s >= period - _END_SLACK
    keep = before | ((s >= -_END_SLACK) & (s <= 1.0 + _END_SLACK))
    return np.clip(np.where(before, 0.0, s), 0.0, 1.0)[keep]


def _roots(residual: np.ndarray, floor: float) -> np.ndarray | None:
    """Roots of the ascending coefficients ``residual``; None when they all stay under ``floor``, so h vanishes."""
    return polynomial_roots(residual) if np.any(np.abs(residual) > floor) else None


def _segment_roots(f: Polynomial, seg, u: complex, zeros, floor: float, solved: dict) -> np.ndarray | None:
    """Local parameters in [0, 1] of the zeros of h on one segment, other than ``zeros``, the (s, k) of f's zeros on it.

    None when h vanishes on the whole segment.  On an arc or trig segment the
    residual's roots on |w| = 1 depend only on its Laurent coefficients and
    the zeros' (w, k), so ``solved`` keeps them by those: the arcs of one
    circle share one solve, and each maps the roots through its own sweep.
    """
    if isinstance(seg, LineSegment):
        a = seg.start_point
        g = _compose(f, np.array([a, seg.end_point - a]), 0, floor)
        for s, k in zeros:
            for _ in range(k):
                g = _deflate(g, s)
        roots = _roots((u * g).imag, floor)
        if roots is None:
            return None
        return _in_range(roots.real[np.abs(roots.imag) < CIRCLE_TOL * (1.0 + np.abs(roots))])

    # an arc or trig segment is z = sum_k c_k e^{i k theta}, theta from th0 over the segment's sweep
    if isinstance(seg, ArcSegment):
        th0, coeffs = seg.angle0, seg._coefficients
    else:
        th0, coeffs = seg.theta0, seg._root_coefficients
    sweep = seg.sweep
    ws = tuple((np.exp(1j * (th0 + s * sweep)), k) for s, k in zeros)
    key = (coeffs.tobytes(), ws)
    if key not in solved:
        solved[key] = _unit_circle_roots(f, coeffs, u, ws, floor)
    on_circle = solved[key]
    if on_circle is None:
        return None
    return _in_range((np.sign(sweep) * (np.angle(on_circle) - th0)) % TWO_PI / abs(sweep), TWO_PI / abs(sweep))


def _unit_circle_roots(f: Polynomial, coeffs: np.ndarray, u: complex, ws, floor: float) -> np.ndarray | None:
    """Roots on |w| = 1 of the residual of the Laurent polynomial ``coeffs``, f's zeros ``ws`` as (w, k) divided out.

    None when h vanishes there.
    """
    g = _compose(f, coeffs, len(coeffs) // 2, floor)
    c = 1.0 + 0j
    for w, k in ws:
        for _ in range(k):
            g = _deflate(g, w)
        c *= (-np.conj(w)) ** k
    roots = _roots(u * g - np.conj(u) * c * np.conj(g[::-1]), floor)
    if roots is None:
        return None
    return roots[np.abs(np.abs(roots) - 1.0) < CIRCLE_TOL]


def _detect(f: Polynomial, curve: JordanCurve, line: Line, zeros: ZeroReport, floor: float) -> list[tuple]:
    """Every zero of h as (t, order, is a zero of f): each segment's residual roots, and f's on-curve zeros.

    A segment on which h vanishes is one stretch of contact: it adds its two
    ends, and every candidate on it, ends included, moves to its start.
    """
    u = np.exp(-1j * line.angle)
    on_curve = [(float(t) % 1.0, r.multiplicity) for r, t in zip(zeros.on_curve.roots, zeros.on_curve_params)]
    cands = [(t, k, True) for t, k in on_curve]
    stretches, solved = [], {}
    br = curve.breaks
    for i, seg in enumerate(curve.segments):
        lo, width = br[i], br[i + 1] - br[i]
        here = []
        for t, k in on_curve:
            # _in_range for one parameter: s is at least 0, and just under the period lies before the start
            s = ((t - lo) % 1.0) / width
            if s >= 1.0 / width - _END_SLACK:
                here.append((0.0, k))
            elif s <= 1.0 + _END_SLACK:
                here.append((float(min(s, 1.0)), k))
        roots = _segment_roots(f, seg, u, here, floor, solved)
        if roots is None:
            stretches.append((lo, width))
            roots = np.array([0.0, 1.0])
        cands.extend(((lo + s * width) % 1.0, 1, False) for s in roots)
    if len(stretches) == len(curve.segments):
        raise ValueError("the image of the curve lies entirely on the line")
    for lo, width in stretches:
        cands = [(lo if (t - lo + MERGE_RADIUS) % 1.0 <= width + 2 * MERGE_RADIUS else t, k, z) for t, k, z in cands]
    return cands


def _cluster(cands: list[tuple[float, int, bool]]) -> list[tuple[float, str]]:
    """Merge candidates within MERGE_RADIUS of each other, cyclically, into (t, contact) points.

    A group with a zero of f sits at the zero, a lone root at its own t, and
    any other group at its roots' mean.  Its contact is transversal where its
    total order is odd (h changes sign), else tangential, or zero-of-f where
    only a zero of f is there.
    """
    if not cands:
        return []
    items = sorted(cands)
    groups = [[items[0]]]
    for item in items[1:]:
        if item[0] - groups[-1][-1][0] <= MERGE_RADIUS:
            groups[-1].append(item)
        else:
            groups.append([item])
    if len(groups) > 1 and (groups[0][0][0] - groups[-1][-1][0]) % 1.0 <= MERGE_RADIUS:
        groups[0] = groups.pop() + groups[0]

    out = []
    for group in groups:
        zero_ts = [t for t, _, is_zero in group if is_zero]
        if zero_ts:
            t = zero_ts[0]
        elif len(group) == 1:
            t = group[0][0]
        else:
            first = group[0][0]
            t = (first + float(np.mean([(s - first + 0.5) % 1.0 - 0.5 for s, _, _ in group]))) % 1.0
        if sum(k for _, k, _ in group) % 2:
            contact = "transversal"
        else:
            contact = "zero-of-f" if len(zero_ts) == len(group) else "tangential"
        out.append((t, contact))
    out.sort()
    return out


def count_preimages(
    f: Polynomial,
    curve: JordanCurve,
    line: Line,
    *,
    band: float | None = None,
    zeros: ZeroReport | None = None,
) -> PreimageSet:
    """All distinct curve points mapped into the line by f.

    ``zeros`` is f's root classification against the curve, as
    ``classify_roots`` gives it; without one, f's roots are classified here,
    on-curve within ``band`` (None for the curve's default band).  Raises
    BelowNoiseFloor when f's image on some segment does not rise above the
    rounding noise of its evaluation, 64 eps sum_k |f_k| r^k with r the
    curve's coordinate bound ``extent()`` (at least 1): no count is then
    possible.
    """
    if zeros is None:
        zeros = classify_roots(f, curve, band)
    r_max = max(1.0, curve.extent())
    floor = 64.0 * np.finfo(float).eps * sum(abs(c) * r_max**k for k, c in enumerate(f.coeffs))
    return PreimageSet(f, curve, tuple(_cluster(_detect(f, curve, line, zeros, floor))))


def _isolated_root(f: Polynomial, zero: complex, eps: float, what: str, center=None):
    """The root of f at ``zero`` and f's other roots, none within eps of ``center``.

    ``center`` defaults to the located root; pass ``zero`` when the circle is
    drawn around the given point instead.
    """
    roots = find_roots(f).roots
    root = min(roots, key=lambda r: abs(r.location - zero))
    if abs(root.location - zero) > 1e-6:
        raise ValueError(f"{zero} is not a root of f (nearest root {abs(root.location - zero):.3g} away)")
    center = root.location if center is None else center
    others = [r for r in roots if r is not root]
    for r in others:
        if abs(r.location - center) <= eps:
            raise ValueError(f"{what} {eps} does not exclude the root at {r.location}")
    return root, others


def count_disc_preimages(f: Polynomial, zero: complex, multiplicity: int, eps: float, line: Line) -> int:
    """Preimage count of the line on the circle of radius eps around a root of f.

    For small eps this equals twice the root's multiplicity, an integer >= 1
    by ``is_integer``.  The disc must exclude every other root.  Raises
    BelowNoiseFloor when eps is so small that f on the circle stays within
    the rounding noise of its evaluation.
    """
    if not (is_integer(multiplicity) and multiplicity >= 1):
        raise ValueError(f"multiplicity must be an integer >= 1, not {multiplicity!r}")
    zero = complex(zero)
    root, _ = _isolated_root(f, zero, eps, "disc of radius", center=zero)
    if root.multiplicity != multiplicity:
        raise ValueError(f"root at {zero} has multiplicity {root.multiplicity}, not {multiplicity}")
    return count_preimages(f, circle(zero, eps), line, zeros=ZeroReport.empty()).count


def arg_derivative_probe(f: Polynomial, zero: complex, eps: float) -> tuple[float, float]:
    """Finite-difference estimate of d(arg f)/dtheta on the circle zero + eps*e^{i theta}, at 1024 angles.

    Returns (mean, max deviation from the root's multiplicity).  The argument
    is accumulated factorwise from the root decomposition of f, which stays
    accurate arbitrarily close to the probed root; the probed factor
    contributes exactly its multiplicity times theta.
    """
    zero = complex(zero)
    eps = float(eps)
    if not 0.0 < eps < np.inf:
        raise ValueError(f"probe radius must be positive and finite, not {eps}")
    root, others = _isolated_root(f, zero, eps, "probe radius")
    center, mult = root.location, root.multiplicity

    n = 1024
    dtheta = 2.0 * np.pi / n
    theta = np.arange(n + 2, dtype=float) * dtheta  # two extra points to close the central differences
    psi = mult * theta
    w = eps * np.exp(1j * theta)
    for r in others:
        psi = psi + r.multiplicity * np.unwrap(np.angle((center - r.location) + w))

    deriv = (psi[2:] - psi[:-2]) / (2.0 * dtheta)
    return float(np.mean(deriv)), float(np.max(np.abs(deriv - mult)))
