"""Complex polynomials: evaluation, roots with multiplicities, zero counting along curves.

The root finder recovers multiple roots by clustering the raw companion-matrix
eigenvalues: an order-k root splits like a k-th root of the rounding, so cluster
radii ROOT_TOL**(1/k) are tried for k = 1, 2, ... until every cluster's size
agrees with the local vanishing order measured from the Taylor coefficients
at the cluster centroid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import curves as _curves
from ._numeric import WindingNotResolved, adaptive_winding, polynomial_roots
from .errors import DegreeZero, NoConvergence, NonIntegerWinding, ZeroOnCurve

# min sampled |f| must exceed LIFT_OFF_FACTOR * band * max sampled |f'| for
# the curve to count as zero-free; separates genuine on-curve zeros from near
# misses at the same scale as the classification band.
LIFT_OFF_FACTOR = 1e3
# Raw roots within ROOT_TOL**(1/k) of each other are tried as one order-k
# root, and a root is accepted when its normalised residual is at most
# sqrt(ROOT_TOL).
ROOT_TOL = 1e-10
# The vanishing order at z is the first j whose scaled Taylor magnitude
# exceeds TAYLOR_TOL times the largest one.
TAYLOR_TOL = 1e-8


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
    """Roots with multiplicities plus the worst normalized residual among them.

    ``residuals`` holds each root's own normalized residual, aligned with
    ``roots``, so that a subset needs none of them computed again.
    """

    roots: tuple[Root, ...]
    residual: float
    residuals: tuple[float, ...] = ()

    @property
    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)

    def locations(self) -> tuple[complex, ...]:
        return tuple(r.location for r in self.roots)


# Array forms of the one-point root tests.  Each gives, for every point of an
# array, the bits of the scalar form that evaluated one point at a time: |z|
# is np.hypot of the parts, as Python's complex abs computes it (np.abs on a
# complex array rounds differently), powers and the Newton step stay Python
# float and complex arithmetic, and sums keep their left-to-right order.
# Where the scalar form raised, the point keeps that exception, and
# find_roots raises it when its in-order walk over the points reaches it,
# an OverflowError as NoConvergence.


def _derivative_chain(f: Polynomial) -> np.ndarray:
    """Coefficients of f, f', ..., f^(n), built once: row j holds f^(j)'s, ascending and zero-padded.

    Each row is the one before it differentiated as ``Polynomial.derivative``
    does it, ``k * c`` in Python complex arithmetic.
    """
    n = f.degree
    rows = []
    coeffs = list(f.coeffs)
    for j in range(n + 1):
        rows.append(coeffs + [0j] * j)
        coeffs = [k * c for k, c in enumerate(coeffs) if k > 0]
    chain = np.array(rows, dtype=complex)
    if not np.isfinite(chain).all():
        raise ValueError("coefficients must be finite")
    return chain


def _chain_values(chain: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """f^(j)(z) with j down the rows and the points zs across the columns.

    One Horner pass for the whole chain: the row of f^(j), of degree n - j,
    joins at its leading coefficient and then takes the steps
    ``acc * z + c`` that ``Polynomial.__call__`` takes.  The rows run end to
    end in one flat array and every product is a new array: NumPy's complex
    multiply can round a broadcast or in-place operand differently from
    one flat operand into a fresh output.
    """
    n, width = len(chain) - 1, len(zs)
    z_rows = np.empty((n + 1, width), dtype=complex)
    z_rows[:] = zs
    z_rows = z_rows.reshape(-1)
    c_rows = np.repeat(chain, width, axis=0)
    acc = np.empty((n + 1) * width, dtype=complex)
    for k in range(n, -1, -1):
        top = (n - k) * width
        acc[:top] = acc[:top] * z_rows[:top] + c_rows[:top, k]
        acc[top : top + width] = chain[n - k, k]
    return acc.reshape(n + 1, width)


def _moduli(zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|z| for each of zs as Python's complex abs gives it, and where that abs raises: finite parts, overflowing modulus."""
    mods = np.hypot(zs.real, zs.imag)
    return mods, np.isinf(mods) & np.isfinite(zs)


def _taylor_magnitudes(chain: np.ndarray, zs: np.ndarray) -> tuple[np.ndarray, list[OverflowError | None]]:
    """|f^(j)(z)| / j! scaled by (1+|z|)^j, for j = 0..degree down the rows and each of zs across.

    With them, per column, the OverflowError that the one-point form raised
    first, if any: Python's abs of z or of some f^(j)(z), or a power
    (1+|z|)^j, that overflows.  A column with one has no magnitudes to read.
    """
    z_mods, z_over = _moduli(zs)
    mods, over = _moduli(_chain_values(chain, zs))
    facts = [1.0]
    for j in range(1, len(chain)):
        facts.append(facts[-1] * j)
    powers = np.ones(mods.shape)
    errors: list[OverflowError | None] = []
    for i, (s, z_overflows, overflows) in enumerate(zip((1.0 + z_mods).tolist(), z_over.tolist(), over.T.tolist())):
        error = OverflowError("absolute value too large") if z_overflows else None
        for j in range(len(chain) if error is None else 0):
            if overflows[j]:
                error = OverflowError("absolute value too large")
                break
            try:
                powers[j, i] = s**j
            except OverflowError as exc:
                error = exc
                break
        errors.append(error)
    return mods / np.array(facts)[:, np.newaxis] * powers, errors


def _vanishing_orders(chain: np.ndarray, zs: np.ndarray) -> tuple[list[int | Exception], np.ndarray]:
    """Each point's vanishing order, or the exception the one-point test raised there; and the Taylor magnitudes."""
    mags, errors = _taylor_magnitudes(chain, zs)
    top = mags.max(axis=0)
    above = mags > TAYLOR_TOL * top
    first = above.argmax(axis=0).tolist()
    out: list[int | Exception] = []
    for i, t in enumerate(top.tolist()):
        if errors[i] is not None:
            out.append(errors[i])
        elif t == 0.0:
            out.append(NoConvergence("all Taylor magnitudes vanished"))
        elif not above[first[i], i]:
            out.append(NoConvergence("no Taylor magnitude above tolerance"))
        else:
            out.append(first[i])
    return out, mags


def vanishing_order(f: Polynomial, z: complex) -> int:
    """Smallest j whose scaled Taylor magnitude at z rises above TAYLOR_TOL (relative)."""
    (order,), _ = _vanishing_orders(_derivative_chain(f), np.array([complex(z)]))
    if isinstance(order, Exception):
        raise order
    return order


def _cluster_labels(points: np.ndarray, radius: float) -> np.ndarray:
    """Each point's single-linkage cluster under |p - q| <= radius, labelled by the cluster's first index."""
    diff = points[:, np.newaxis] - points[np.newaxis, :]
    # NumPy's scalar abs, which the one-point form took here, overflows to inf without raising
    near = np.hypot(diff.real, diff.imag) <= radius
    label = np.arange(len(points))
    # each point takes its neighbours' smallest label until the labels settle
    while True:
        nxt = np.where(near, label, len(points)).min(axis=1)
        if (nxt == label).all():
            return label
        label = nxt


def _polish_roots(
    chain: np.ndarray, zs: list[complex], mults: list[int], radius: float
) -> tuple[list[complex], list[OverflowError | None]]:
    """Newton steps on f^(mult-1), where an order-mult root of f is simple, for every centre at once.

    A centre stops at a zero derivative or at a step longer than
    max(radius, 1e-6), as the one-point polish did, or where the length of
    its step overflows, which the one-point polish raised; that error is
    returned for the centre.
    """
    limit = max(radius, 1e-6)
    out = list(zs)
    errors: list[OverflowError | None] = [None] * len(out)
    live = list(range(len(out)))
    for _ in range(3):
        if not live:
            break
        vals = _chain_values(chain, np.array([out[i] for i in live]))
        rows = np.array([mults[i] for i in live])
        cols = np.arange(len(live))
        kept = []
        for i, g, d in zip(live, vals[rows - 1, cols].tolist(), vals[rows, cols].tolist()):
            if d == 0:
                continue
            step = g / d
            try:
                too_long = abs(step) > limit
            except OverflowError as exc:
                errors[i] = exc
                continue
            if too_long:
                continue
            out[i] = out[i] - step
            kept.append(i)
        live = kept
    return out, errors


def _normalized_residuals(f: Polynomial, zs: np.ndarray, abs_f: list[float]) -> list[float]:
    """|f(z)| over sum_k |a_k| max(1, |z|)^k for each of zs, given each |f(z)|, in the one-point form's Python arithmetic."""
    out = []
    for a, m in zip(abs_f, _moduli(zs)[0].tolist()):
        base = max(1.0, m)
        out.append(a / sum(abs(c) * base**k for k, c in enumerate(f.coeffs)))
    return out


def find_roots(f: Polynomial) -> RootSet:
    """All roots of f with multiplicities.

    Raw roots come from the companion-matrix eigenproblem; clusters within
    radius ROOT_TOL**(1/k) are merged for increasing k until the Taylor-based
    vanishing order at each centroid matches the cluster size.  The
    derivative chain is built once, and each radius polishes and tests all
    centroids at once.
    """
    if f.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    raw = polynomial_roots(np.array(f.coeffs, dtype=complex))
    if len(raw) != f.degree or not np.all(np.isfinite(raw)):
        raise NoConvergence("companion eigenproblem returned an invalid root set")

    chain = _derivative_chain(f)
    for k_cluster in range(1, f.degree + 1):
        radius = ROOT_TOL ** (1.0 / k_cluster)
        label = _cluster_labels(raw, radius)
        heads = np.flatnonzero(label == np.arange(len(raw)))
        mults = np.bincount(label)[heads].tolist()
        # a one-point mean is the point plus 0.0, which turns a -0.0 part into 0.0
        centres = (raw[heads] + 0.0).tolist()
        for i, (head, mult) in enumerate(zip(heads, mults)):
            if mult > 1:
                centres[i] = complex(raw[label == head].mean())
        centres, polish_errors = _polish_roots(chain, centres, mults, radius)
        centres = np.array(centres)
        orders, mags = _vanishing_orders(chain, centres)
        # the one-point form tested the centres in turn: the first error or mismatch decides
        for polish_error, order, mult in zip(polish_errors, orders, mults):
            error = polish_error or (order if isinstance(order, Exception) else None)
            if isinstance(error, OverflowError):
                raise NoConvergence(f"root test overflowed: {error}") from error
            if error is not None:
                raise error
            if order != mult:
                break
        else:
            # the first Taylor magnitude is |f(z)| itself
            residuals = _normalized_residuals(f, centres, mags[0].tolist())
            residual = max(residuals)
            if residual > math.sqrt(ROOT_TOL):
                raise NoConvergence(f"root residual {residual:.3g} above {math.sqrt(ROOT_TOL):.3g}")
            ranked = sorted(zip(centres.tolist(), mults, residuals), key=lambda r: (r[0].real, r[0].imag))
            return RootSet(
                tuple(Root(z, m) for z, m, _ in ranked), residual, tuple(res for _, _, res in ranked)
            )
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


def classify_roots(f: Polynomial, curve: _curves.JordanCurve, band: float | None = None) -> ZeroReport:
    """Route every root of f through point classification against the curve."""
    rootset = find_roots(f)
    locs = _curves.classify_points(curve, rootset.locations(), band)

    def subset(kind: str) -> RootSet:
        picked = [(r, res) for r, res, loc in zip(rootset.roots, rootset.residuals, locs) if loc.kind == kind]
        residuals = tuple(res for _, res in picked)
        return RootSet(tuple(r for r, _ in picked), max(residuals, default=0.0), residuals)

    return ZeroReport(
        inside=subset("inside"),
        on_curve=subset("on-curve"),
        outside=subset("outside"),
        on_curve_params=tuple(loc.t for loc in locs if loc.kind == "on-curve"),
    )


def _lift_off_threshold(f: Polynomial, curve: _curves.JordanCurve, band: float) -> float:
    dmax = float(np.max(np.abs(f.derivative()(curve.grid(1024))))) if f.degree >= 1 else 0.0
    return LIFT_OFF_FACTOR * band * dmax


def winding_count(f: Polynomial, curve: _curves.JordanCurve, band: float | None = None) -> int:
    """Winding number of f along the curve: the zero count inside when none sit on it.

    Raises ZeroOnCurve when min |f| over the samples falls under the lift-off
    threshold, and NonIntegerWinding when the accumulated argument variation
    is not within 0.01 of a whole number of turns.
    """
    band = curve.checked_band(band)
    # the probe first: the lift-off threshold's 1024-point grid is then a view of its sampling
    probe_vals = f(curve.grid(2048))
    threshold = _lift_off_threshold(f, curve, band)
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
