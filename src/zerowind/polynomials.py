"""Complex polynomials: evaluation, roots with multiplicities, zero counting along curves.

The root finder recovers multiple roots by clustering the raw companion-matrix
eigenvalues: an order-k root perturbs like tol**(1/k), so cluster radii are
tried for k = 1, 2, ... until every cluster's size agrees with the local
vanishing order measured from the Taylor coefficients at the cluster centroid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import curves as _curves
from ._numeric import WindingNotResolved, adaptive_winding
from .errors import DegreeZero, NoConvergence, NonIntegerWinding, ZeroOnCurve

# min sampled |f| must exceed LIFT_OFF_FACTOR * band * max sampled |f'| for
# the curve to count as zero-free; separates genuine on-curve zeros from near
# misses at the same scale as the classification band.
LIFT_OFF_FACTOR = 1e3


@dataclass(frozen=True)
class Polynomial:
    """Complex coefficients in ascending degree; the leading coefficient is nonzero."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        cs = [complex(c) for c in self.coeffs]
        if any(not (math.isfinite(c.real) and math.isfinite(c.imag)) for c in cs):
            raise ValueError("coefficients must be finite")
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            raise ValueError("the zero polynomial is not representable")
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        """Horner evaluation; accepts scalars or arrays."""
        zs = np.asarray(z, dtype=complex)
        acc = np.full(zs.shape, self.coeffs[-1], dtype=complex)
        for c in self.coeffs[-2::-1]:
            acc = acc * zs + c
        return acc if acc.shape else complex(acc)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            raise DegreeZero("cannot differentiate a constant into a representable polynomial")
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def scaled(self, factor: complex) -> "Polynomial":
        if factor == 0:
            raise ValueError("scale factor must be nonzero")
        return Polynomial(tuple(factor * c for c in self.coeffs))

    @classmethod
    def from_roots(cls, roots, leading: complex = 1.0) -> "Polynomial":
        """Build leading * prod (z - r)^mult from (root, multiplicity) pairs or plain roots."""
        coeffs = np.array([complex(leading)])
        for item in roots:
            r, mult = item if isinstance(item, tuple) else (item, 1)
            for _ in range(int(mult)):
                coeffs = np.convolve(coeffs, np.array([-complex(r), 1.0]))
        return cls(tuple(coeffs))

    def to_json(self) -> dict:
        if all(c.imag == 0.0 for c in self.coeffs):
            return {"real_coeffs": [c.real for c in self.coeffs]}
        return {"coeffs": [[c.real, c.imag] for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "Polynomial":
        if "real_coeffs" in obj:
            return cls(tuple(complex(float(c)) for c in obj["real_coeffs"]))
        return cls(tuple(complex(re, im) for re, im in obj["coeffs"]))


@dataclass(frozen=True)
class Root:
    location: complex
    multiplicity: int


@dataclass(frozen=True)
class RootSet:
    """Roots with multiplicities plus the worst normalized residual among them."""

    roots: tuple[Root, ...]
    residual: float

    @property
    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)

    def locations(self) -> tuple[complex, ...]:
        return tuple(r.location for r in self.roots)


def _normalized_residual(f: Polynomial, z: complex) -> float:
    denom = sum(abs(c) * max(1.0, abs(z)) ** k for k, c in enumerate(f.coeffs))
    return abs(f(z)) / denom


def _taylor_magnitudes(f: Polynomial, z: complex) -> np.ndarray:
    """|f^(j)(z)| / j! scaled by (1+|z|)^j, for j = 0..degree."""
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


def vanishing_order(f: Polynomial, z: complex, tol: float = 1e-8) -> int:
    """Smallest j whose scaled Taylor magnitude at z rises above tol (relative)."""
    mags = _taylor_magnitudes(f, complex(z))
    top = float(mags.max())
    if top == 0.0:
        raise NoConvergence("all Taylor magnitudes vanished")
    for j, mag in enumerate(mags):
        if mag > tol * top:
            return j
    raise NoConvergence("no Taylor magnitude above tolerance")


def _clusters_by_radius(points: np.ndarray, radius: float) -> list[np.ndarray]:
    """Connected components under |p - q| <= radius (single-linkage)."""
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


def _polish_root(f: Polynomial, z: complex, mult: int, radius: float) -> complex:
    """Newton steps on f^(mult-1), where an order-mult root of f is simple."""
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


def find_roots(f: Polynomial, tol: float = 1e-10, residual_tol: float | None = None) -> RootSet:
    """All roots of f with multiplicities.

    Raw roots come from the companion-matrix eigenproblem; clusters within
    radius tol**(1/k) are merged for increasing k until the Taylor-based
    vanishing order at each centroid matches the cluster size.
    """
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
        groups = _clusters_by_radius(raw, radius)
        roots = []
        ok = True
        for idx in groups:
            mult = len(idx)
            center = complex(raw[idx].mean())
            center = _polish_root(f, center, mult, radius)
            if vanishing_order(f, center, tol=1e-8) != mult:
                ok = False
                break
            roots.append(Root(center, mult))
        if not ok:
            continue
        residual = max(_normalized_residual(f, r.location) for r in roots)
        if residual > residual_tol:
            raise NoConvergence(f"root residual {residual:.3g} above {residual_tol:.3g}")
        roots.sort(key=lambda r: (r.location.real, r.location.imag))
        return RootSet(tuple(roots), residual)
    raise NoConvergence("no cluster radius produced multiplicities consistent with the Taylor test")


# ---------------------------------------------------------------------------
# roots relative to a curve


@dataclass(frozen=True)
class ZeroReport:
    """Roots split by position relative to a curve, with total multiplicities.

    ``m`` counts roots strictly inside and ``lam`` roots on the curve, both
    with multiplicity; ``on_curve_params`` gives the nearest curve parameter
    of each on-curve root, aligned with ``on_curve.roots``.
    """

    inside: RootSet
    on_curve: RootSet
    outside: RootSet
    on_curve_params: tuple[float, ...]

    @classmethod
    def empty(cls) -> "ZeroReport":
        """No roots: what ``count_preimages`` takes for a curve that carries none of f's, such as a detour composite."""
        none = RootSet((), 0.0)
        return cls(none, none, none, ())

    @property
    def m(self) -> int:
        return self.inside.total_multiplicity

    @property
    def lam(self) -> int:
        return self.on_curve.total_multiplicity

    def to_json(self) -> dict:
        def pack(rs: RootSet):
            return [[r.location.real, r.location.imag, r.multiplicity] for r in rs.roots]

        return {
            "m": self.m,
            "lambda": self.lam,
            "inside": pack(self.inside),
            "on_curve": pack(self.on_curve),
            "outside": pack(self.outside),
            "on_curve_params": list(self.on_curve_params),
            "residual": max(self.inside.residual, self.on_curve.residual, self.outside.residual),
        }


def classify_roots(
    f: Polynomial,
    curve: _curves.JordanCurve,
    band: float | None = None,
    root_tol: float = 1e-10,
) -> ZeroReport:
    """Route every root of f through point classification against the curve."""
    rootset = find_roots(f, tol=root_tol)
    locs = _curves.classify_points(curve, rootset.locations(), band)

    def subset(kind: str) -> RootSet:
        rs = tuple(r for r, loc in zip(rootset.roots, locs) if loc.kind == kind)
        res = max((_normalized_residual(f, r.location) for r in rs), default=0.0)
        return RootSet(rs, res)

    return ZeroReport(
        inside=subset("inside"),
        on_curve=subset("on-curve"),
        outside=subset("outside"),
        on_curve_params=tuple(loc.t for loc in locs if loc.kind == "on-curve"),
    )


def _lift_off_threshold(f: Polynomial, curve: _curves.JordanCurve, band: float, n: int = 1024) -> float:
    dmax = float(np.max(np.abs(f.derivative()(curve.grid(n))))) if f.degree >= 1 else 0.0
    return LIFT_OFF_FACTOR * band * dmax


def winding_count(f: Polynomial, curve: _curves.JordanCurve, band: float | None = None) -> int:
    """Winding number of f along the curve: the zero count inside when none sit on it.

    Raises ZeroOnCurve when min |f| over the samples falls under the lift-off
    threshold, and NonIntegerWinding when the accumulated argument variation
    is not within 0.01 of a whole number of turns.
    """
    band = curve.checked_band(band)
    threshold = _lift_off_threshold(f, curve, band)
    probe_vals = f(curve.grid(2048))
    probe = np.abs(probe_vals)
    if float(probe.min()) <= threshold:
        raise ZeroOnCurve(f"min |f| on curve {probe.min():.3g} under lift-off {threshold:.3g}")
    try:
        # the probe's even points are the winding pass's 1024-point grid
        turns, _, vals = adaptive_winding(lambda ts: f(curve.points(ts)), coarse=probe_vals[::2])
    except WindingNotResolved as exc:
        raise NoConvergence(f"winding refinement failed: {exc}") from exc
    if float(np.min(np.abs(vals))) <= threshold:
        raise ZeroOnCurve(f"min |f| on curve {np.min(np.abs(vals)):.3g} under lift-off {threshold:.3g}")
    w = round(turns)
    if abs(turns - w) > 0.01:
        raise NonIntegerWinding(f"argument variation {turns:.4f} turns is not an integer")
    return int(w)


def logderiv_integral(f: Polynomial, curve: _curves.JordanCurve, n: int = 4096, band: float | None = None) -> complex:
    """Trapezoidal quadrature of f'/f along the curve, divided by 2*pi*i.

    Agrees with the winding count within 0.01 at sufficient n whenever the
    curve is zero-free for f.
    """
    band = curve.checked_band(band)
    if f.degree < 1:
        raise DegreeZero("the logarithmic derivative of a constant has no zeros to count")
    pts = curve.grid(n)
    vals = f(pts)
    threshold = _lift_off_threshold(f, curve, band)
    if float(np.min(np.abs(vals))) <= threshold:
        raise ZeroOnCurve("curve is not zero-free at quadrature resolution")
    integrand = f.derivative()(pts) / vals * curve.derivs(np.arange(n) / n)
    return complex(np.mean(integrand) / (2j * np.pi))
