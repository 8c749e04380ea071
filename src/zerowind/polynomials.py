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


def _derivative_overflow(order: int, power: int, coeff: complex) -> NoConvergence:
    """The error for a derivative coefficient that overflows: z^power's in f^(order), (power + 1) * coeff."""
    return NoConvergence(f"coefficient of z^{power} in derivative {order} overflows: {power + 1} * {coeff!r}")


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
        coeffs = tuple(k * c for k, c in enumerate(self.coeffs) if k > 0)
        try:
            return Polynomial(coeffs)
        except ValueError:
            # self's coefficients are finite, so a non-finite one here is a product that overflowed
            k = next(k for k, c in enumerate(coeffs) if not (math.isfinite(c.real) and math.isfinite(c.imag)))
            raise _derivative_overflow(1, k, self.coeffs[k + 1]) from None

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
        return cls(_json_coeffs(obj))


def _json_coeffs(obj: dict) -> tuple[complex, ...]:
    """A polynomial file's coefficients as it lists them, in ascending degree, trailing zeros kept."""
    if "real_coeffs" in obj:
        return tuple(complex(float(c)) for c in obj["real_coeffs"])
    return tuple(complex(re, im) for re, im in obj["coeffs"])


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
# an OverflowError as NoConvergence.  What depends on f alone (the derivative
# chain, the factorials, the raw roots' distances) is built once per call,
# and a Horner pass evaluates only the chain rows its caller reads.


def _derivative_chain(f: Polynomial) -> np.ndarray:
    """Coefficients of f, f', ..., f^(n), built once: row j holds f^(j)'s from its leading one down, zero-padded.

    Each row is the one before it differentiated as ``Polynomial.derivative``
    does it, ``k * c`` in Python complex arithmetic.  A coefficient that
    overflows raises NoConvergence naming it.
    """
    n = f.degree
    rows = []
    coeffs = list(f.coeffs)
    for j in range(n + 1):
        rows.append(coeffs[::-1] + [0j] * j)
        coeffs = [k * c for k, c in enumerate(coeffs) if k > 0]
    chain = np.array(rows, dtype=complex)
    finite = np.isfinite(chain)
    if not finite.all():
        # f's own coefficients are finite, so a non-finite entry is a product that overflowed: name the first
        # derivative's lowest power, as Polynomial.derivative does
        j = int(finite.all(axis=1).argmin())
        col = n - int(finite[j, ::-1].argmin())
        raise _derivative_overflow(j, n - j - col, complex(chain[j - 1, col]))
    return chain


def _chain_values(chain: np.ndarray, zs: np.ndarray, rows: int | None = None) -> np.ndarray:
    """f^(j)(z) with j = 0..rows-1 down the rows (all n + 1 by default) and the points zs across the columns.

    One Horner pass for those rows: the row of f^(j), of degree n - j,
    starts at its leading coefficient and takes the steps ``acc * z + c``
    that ``Polynomial.__call__`` takes.  Every row starts at once, so the
    rows still stepping are the first ones and those of lower degree finish
    first.  The rows run end to end in one flat array and every product is
    a new array: NumPy's complex multiply can round a broadcast or in-place
    operand differently from one flat operand into a fresh output.  Its
    additions round alike in place or not.
    """
    n, width = len(chain) - 1, len(zs)
    rows = n + 1 if rows is None else rows
    z_rows = np.empty((rows, width), dtype=complex)
    z_rows[:] = zs
    z_rows = z_rows.reshape(-1)
    # c_cols[s] holds every row's s-th coefficient from the top, once for each point
    c_cols = np.repeat(chain[:rows].T, width, axis=1)
    acc = c_cols[0]
    for s in range(1, n + 1):
        top = min(rows, n + 1 - s) * width
        if top == len(acc):
            # every row still steps: the whole arrays, and the sum added into the fresh product
            acc = acc * z_rows
            acc += c_cols[s]
        else:
            acc[:top] = acc[:top] * z_rows[:top] + c_cols[s, :top]
    return acc.reshape(rows, width)


def _factorials(n: int) -> np.ndarray:
    """0!, 1!, ..., n! in a column, as the float products the one-point form took."""
    facts = [1.0]
    for j in range(1, n + 1):
        facts.append(facts[-1] * j)
    return np.array(facts)[:, np.newaxis]


def _vanishing_orders(
    chain: np.ndarray, zs: list[complex], facts: np.ndarray
) -> tuple[list[int | Exception], list[float]]:
    """Each point's vanishing order, or the exception the one-point test raised there; and |f(z)| at each point.

    The order is the first j whose Taylor magnitude |f^(j)(z)| / j! scaled
    by (1+|z|)^j exceeds TAYLOR_TOL times the largest one; ``facts`` holds
    the factorials in a column.  A point where the one-point form's Python
    abs of z or of some f^(j)(z), or a power (1+|z|)^j, overflowed gets the
    OverflowError it raised first.
    """
    vals = _chain_values(chain, np.array(zs, dtype=complex))
    mods = np.hypot(vals.real, vals.imag)
    powers: list[list[float]] = []
    errors: list[OverflowError | None] = []
    for i, (z, unbounded) in enumerate(zip(zs, np.isinf(mods).any(axis=0).tolist())):
        try:
            s = 1.0 + abs(z)
            if unbounded:
                # the one-point form took each |f^(j)(z)| before (1+|z|)^j, and Python's abs raises where np.hypot gave inf from finite parts
                for j, v in enumerate(vals[:, i].tolist()):
                    abs(v)
                    s**j
            powers.append([s**j for j in range(len(chain))])
            errors.append(None)
        except OverflowError as exc:
            powers.append([1.0] * len(chain))
            errors.append(exc)
    mags = mods / facts * np.array(powers).T
    top = mags.max(axis=0)
    above = mags > TAYLOR_TOL * top
    out: list[int | Exception] = []
    for error, t, some, first in zip(errors, top.tolist(), above.any(axis=0).tolist(), above.argmax(axis=0).tolist()):
        if error is not None:
            out.append(error)
        elif t == 0.0:
            out.append(NoConvergence("all Taylor magnitudes vanished"))
        elif not some:
            out.append(NoConvergence("no Taylor magnitude above tolerance"))
        else:
            out.append(first)
    # the first Taylor magnitude is |f(z)| itself
    return out, mods[0].tolist()


def vanishing_order(f: Polynomial, z: complex) -> int:
    """Smallest j whose scaled Taylor magnitude at z rises above TAYLOR_TOL (relative)."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"no vanishing order at the non-finite point {z}")
    (order,), _ = _vanishing_orders(_derivative_chain(f), [z], _factorials(f.degree))
    if isinstance(order, Exception):
        raise order
    return order


def _clusters(raw: np.ndarray, near: np.ndarray) -> tuple[list[complex], list[int]]:
    """The single-linkage clusters of the raw roots under the symmetric relation ``near``, in order of their first points.

    Each comes as its centre, the mean of its points, and its size.
    """
    n = len(raw)
    if np.count_nonzero(near) == n:
        # no two raw roots are near; a one-point mean is the point plus 0.0, which turns a -0.0 part into 0.0
        return (raw + 0.0).tolist(), [1] * n
    label = np.arange(n)
    # each point takes its neighbours' smallest label until the labels settle
    while True:
        nxt = np.where(near, label, n).min(axis=1)
        if (nxt == label).all():
            break
        label = nxt
    heads = np.flatnonzero(label == np.arange(n)).tolist()
    mults = np.bincount(label)[heads].tolist()
    centres = (raw[heads] + 0.0).tolist()
    for i, (head, mult) in enumerate(zip(heads, mults)):
        if mult > 1:
            centres[i] = complex(raw[label == head].mean())
    return centres, mults


def _polish_roots(
    chain: np.ndarray, zs: list[complex], mults: list[int], radius: float
) -> tuple[list[complex], list[OverflowError | None]]:
    """Newton steps on f^(mult-1), where an order-mult root of f is simple, for every centre at once.

    A centre stops at a zero derivative or at a step longer than
    max(radius, 1e-6), as the one-point polish did, or where the length of
    its step overflows, which the one-point polish raised; that error is
    returned for the centre.  Each pass evaluates the chain rows up to the
    highest multiplicity and no further.
    """
    limit = max(radius, 1e-6)
    out = list(zs)
    errors: list[OverflowError | None] = [None] * len(out)
    live = list(range(len(out)))
    rows = max(mults) + 1
    for _ in range(3):
        if not live:
            break
        vals = _chain_values(chain, np.array([out[i] for i in live], dtype=complex), rows).tolist()
        kept = []
        for col, i in enumerate(live):
            d = vals[mults[i]][col]
            if d == 0:
                continue
            step = vals[mults[i] - 1][col] / d
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


def _normalized_residuals(abs_coeffs: list[float], zs: list[complex], abs_f: list[float]) -> list[float]:
    """|f(z)| over sum_k |a_k| max(1, |z|)^k for each of zs, given each |f(z)| and the |a_k|, in the one-point form's Python arithmetic.

    The root test took Python's abs of each z already, so it does not
    overflow here.
    """
    out = []
    for a, z in zip(abs_f, zs):
        base = max(1.0, abs(z))
        out.append(a / sum(c * base**k for k, c in enumerate(abs_coeffs)))
    return out


def find_roots(f: Polynomial) -> RootSet:
    """All roots of f with multiplicities.

    Raw roots come from the companion-matrix eigenproblem; clusters within
    radius ROOT_TOL**(1/k) are merged for increasing k until the Taylor-based
    vanishing order at each centroid matches the cluster size.  The
    derivative chain, the factorials and the raw roots' distances are built
    once, and each radius polishes and tests all centroids at once.
    """
    if f.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    raw = polynomial_roots(np.array(f.coeffs, dtype=complex))
    if len(raw) != f.degree or not np.isfinite(raw).all():
        raise NoConvergence("companion eigenproblem returned an invalid root set")

    chain = _derivative_chain(f)
    facts = _factorials(f.degree)
    diff = raw[:, np.newaxis] - raw[np.newaxis, :]
    # NumPy's scalar abs, which the one-point form took here, overflows to inf without raising
    dist = np.hypot(diff.real, diff.imag)
    for k_cluster in range(1, f.degree + 1):
        radius = ROOT_TOL ** (1.0 / k_cluster)
        centres, mults = _clusters(raw, dist <= radius)
        centres, polish_errors = _polish_roots(chain, centres, mults, radius)
        orders, abs_f = _vanishing_orders(chain, centres, facts)
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
            # the |a_k| are taken here, after every overflow the tests above raise
            residuals = _normalized_residuals([abs(c) for c in f.coeffs], centres, abs_f)
            residual = max(residuals)
            if residual > math.sqrt(ROOT_TOL):
                raise NoConvergence(f"root residual {residual:.3g} above {math.sqrt(ROOT_TOL):.3g}")
            ranked = sorted(zip(centres, mults, residuals), key=lambda r: (r[0].real, r[0].imag))
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
