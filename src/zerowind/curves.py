"""Piecewise-smooth Jordan curves.

A curve is an ordered chain of parametric segments (circular arcs, straight
segments, trigonometric-series arcs) glued end to end and traversed
counterclockwise over a global parameter t in [0, 1).  Each segment is C^1
with nonvanishing derivative on its closed subinterval, so the curve is
piecewise smooth with one-sided tangents at the joints.

Besides representation the module provides point classification against a
curve (inside / outside / on the curve), interior angles at corners, and the
detour construction: given points sitting on the curve, reroute the curve
around each of them along the outer arc of a small disc so that the marked
points end up strictly inside the new curve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from ._numeric import TWO_PI, bisect_zero, polynomial_roots, trig_series, trig_series_deriv, wrap_angle
from .errors import AmbiguousClassification, DetourFailed

# Tangent-direction jump (radians) above which a joint counts as a corner.
CORNER_TOL = 1e-6

# On-curve band, as a fraction of the curve diameter.
DEFAULT_BAND_FACTOR = 1e-9

# The finest sampling t = i / GRID_SAMPLES that a curve caches: a grid of n
# points with n dividing it is a strided view of the one sampling cached.
GRID_SAMPLES = 8192

# The local parameters at which ``JordanCurve.from_segments`` probes each
# segment for finite points and the curve's diameter.
_PROBES = np.linspace(0.0, 1.0, 64)
_PROBES.flags.writeable = False

# The breaks of a curve of one segment, as NumPy floats like every curve's.
_WHOLE_RANGE = (np.float64(0.0), np.float64(1.0))


# ---------------------------------------------------------------------------
# segments


class _HarmonicFacts:
    """What an arc or trig segment, a Laurent polynomial in w = e^{i theta}, computes once from its ``_coefficients``.

    Each fact is built on first use and kept; threads that race on it only
    repeat the work.
    """

    @cached_property
    def _moduli(self) -> np.ndarray:
        """|c_k| for each of ``_coefficients``, from one ``np.abs`` over the array (a scalar ``abs`` can differ)."""
        return np.abs(self._coefficients)

    @cached_property
    def _first_harmonic(self) -> tuple[np.ndarray, np.ndarray, int] | None:
        """The coefficients c_-K .. c_K, their moduli and the index of the larger of |c_-1| and |c_1| (of c_1 on a tie).

        None unless the segment sweeps exactly one full turn.  A full circle
        c + R w gives 0, c, R.
        """
        if abs(_sweep(self)) != TWO_PI:
            return None
        size, k = self._moduli, len(self._coefficients) // 2
        return self._coefficients, size, (k + 1 if size[k + 1] >= size[k - 1] else k - 1)


@dataclass(frozen=True)
class ArcSegment(_HarmonicFacts):
    """Circular arc, swept from angle0 to angle1 (negative sweep = clockwise)."""

    center: complex
    radius: float
    angle0: float
    angle1: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("arc radius must be positive")
        if self.angle0 == self.angle1:
            raise ValueError("arc sweep must be nonzero")
        # angle1 - angle0 rounds at the scale of the larger angle
        slack = 1e-12 * max(TWO_PI, abs(self.angle0), abs(self.angle1))
        if abs(self.angle1 - self.angle0) > TWO_PI + slack:
            raise ValueError("arc sweeps more than one full turn")

    def points(self, s):
        return _arc_points(self.center, self.radius, self.angle0, self.angle1 - self.angle0, s)

    def nearest(self, ps):
        """Local parameter in [0, 1] of the arc point nearest each of ps (see ``_arc_nearest``)."""
        return _arc_nearest(self.center, self.angle0, self.angle1 - self.angle0, ps)

    def _sweeps(self, ps):
        """True for each of ps whose angle about the center the arc sweeps past."""
        return _arc_ahead(self.center, self.angle0, self.angle1 - self.angle0, ps) <= abs(self.angle1 - self.angle0)

    @cached_property
    def _coefficients(self) -> np.ndarray:
        """The arc z = c + R w as the coefficients 0, c, R of w z(w), ascending in w = e^{i angle}."""
        return np.array((0.0, self.center, self.radius), dtype=complex)

    def turns(self, ps):
        """Argument change of z - p along the arc, in turns, for each of ps (none on the arc)."""
        return _unit_arc_turns((ps - self.center) / self.radius, self.angle0, self.angle1 - self.angle0)

    def extent(self):
        """A bound on every coordinate of the arc."""
        return abs(self.center) + self.radius

    def area(self) -> float:
        """Half of the integral of Im(conj(z) dz) along the arc: (R^2 sweep + R Im(conj(c) (e^{i a1} - e^{i a0}))) / 2."""
        chord = np.exp(1j * self.angle1) - np.exp(1j * self.angle0)
        r = self.radius
        return 0.5 * (r * r * (self.angle1 - self.angle0) + r * (np.conj(self.center) * chord).imag)

    def derivs(self, s):
        return _arc_derivs(self.radius, self.angle0, self.angle1 - self.angle0, s)

    def subsegment(self, s0, s1):
        sweep = self.angle1 - self.angle0
        return ArcSegment(self.center, self.radius, self.angle0 + s0 * sweep, self.angle0 + s1 * sweep)

    def reversed(self):
        return ArcSegment(self.center, self.radius, self.angle1, self.angle0)

    def rough_length(self):
        return abs(self.angle1 - self.angle0) * self.radius

    def to_json(self):
        return {
            "kind": "arc",
            "center": [self.center.real, self.center.imag],
            "radius": self.radius,
            "from": self.angle0,
            "to": self.angle1,
        }


@dataclass(frozen=True)
class LineSegment:
    """Straight segment between two distinct points."""

    start_point: complex
    end_point: complex

    def __post_init__(self):
        if self.start_point == self.end_point:
            raise ValueError("line segment endpoints must be distinct")

    def points(self, s):
        return self.start_point + np.asarray(s, dtype=float) * (self.end_point - self.start_point)

    def nearest(self, ps):
        """Local parameter in [0, 1] of the segment point nearest each of ps: the clipped projection."""
        d = self.end_point - self.start_point
        along = ((np.asarray(ps) - self.start_point) * np.conj(d)).real / (d.real**2 + d.imag**2)
        return np.clip(along, 0.0, 1.0)

    def turns(self, ps):
        """Argument change of z - p along the segment, in turns, for each of ps (none on the segment)."""
        return np.angle((self.end_point - ps) / (self.start_point - ps)) / TWO_PI

    def extent(self):
        """A bound on every coordinate of the segment."""
        return max(abs(self.start_point), abs(self.end_point))

    def area(self) -> float:
        """Half of the integral of Im(conj(z) dz) along the segment: Im(conj(a) b) / 2."""
        return 0.5 * (self.start_point.conjugate() * self.end_point).imag

    def derivs(self, s):
        s = np.asarray(s, dtype=float)
        return np.full(s.shape, self.end_point - self.start_point)

    def subsegment(self, s0, s1):
        d = self.end_point - self.start_point
        return LineSegment(self.start_point + s0 * d, self.start_point + s1 * d)

    def reversed(self):
        return LineSegment(self.end_point, self.start_point)

    def rough_length(self):
        return abs(self.end_point - self.start_point)

    def to_json(self):
        return {
            "kind": "line",
            "from": [self.start_point.real, self.start_point.imag],
            "to": [self.end_point.real, self.end_point.imag],
        }


@dataclass(frozen=True)
class TrigSegment(_HarmonicFacts):
    """x(t) + i y(t) with x, y finite cosine/sine series, t on [theta0, theta1].

    Coefficients are packed flat as [c0, a1, b1, a2, b2, ...], meaning
    c0 + sum_k (a_k cos(k t) + b_k sin(k t)).
    """

    coeffs_x: tuple[float, ...]
    coeffs_y: tuple[float, ...]
    theta0: float
    theta1: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs_x", tuple(float(c) for c in self.coeffs_x))
        object.__setattr__(self, "coeffs_y", tuple(float(c) for c in self.coeffs_y))
        if not self.coeffs_x or not self.coeffs_y:
            raise ValueError("trig segment needs at least constant coefficients")
        if self.theta0 == self.theta1:
            raise ValueError("trig segment parameter interval must be nondegenerate")

    @cached_property
    def _laurent(self):
        """(c_0, c_1..K, c_-1..-K, i k c_k, -i k c_-k): z(t) as a Laurent polynomial in w = e^{it}.

        With (a_k, b_k) the x series' cosine and sine coefficients and
        (c_k, d_k) the y series', c_0 = x_0 + i y_0 and
        c_+-k = ((a_k + i c_k) -+ i (b_k + i d_k)) / 2.
        """
        kmax = max(len(self.coeffs_x), len(self.coeffs_y), 2) // 2
        x, y = (co + (0.0,) * (2 * kmax + 1 - len(co)) for co in (self.coeffs_x, self.coeffs_y))
        pos, neg = [], []
        for k in range(1, kmax + 1):
            a, b, c, d = x[2 * k - 1], x[2 * k], y[2 * k - 1], y[2 * k]
            pos.append(complex((a + d) / 2, (c - b) / 2))
            neg.append(complex((a - d) / 2, (c + b) / 2))
        dpos = [complex(-k * p.imag, k * p.real) for k, p in enumerate(pos, start=1)]
        dneg = [complex(k * n.imag, -k * n.real) for k, n in enumerate(neg, start=1)]
        return complex(x[0], y[0]), tuple(pos), tuple(neg), tuple(dpos), tuple(dneg)

    @cached_property
    def _coefficients(self) -> np.ndarray:
        """c_-K .. c_K in one array: the coefficients of w^K z(w), ascending in w = e^{it}."""
        c0, pos, neg, _, _ = self._laurent
        return np.array(neg[::-1] + (c0,) + pos, dtype=complex)

    @cached_property
    def _root_coefficients(self) -> np.ndarray:
        """``_coefficients`` as every root solve takes them: harmonics under eps sum_k |c_k| dropped.

        Such a harmonic moves no curve point by more than its rounding, yet as
        the leading coefficient of a polynomial it makes the companion matrix
        of ``polynomial_roots`` divide by next to nothing: 1e-80 put the roots
        of a preimage count far off, and a subnormal one overflows that
        matrix.  Dropped harmonics become 0, and then outer pairs c_-K, c_K
        that are both 0 are cut, so K falls.  A segment with no such harmonic
        keeps its array.
        """
        c, size = self._coefficients, self._moduli
        k = len(c) // 2
        negligible = (0.0 < size) & (size < np.finfo(float).eps * size.sum()) & (np.arange(len(c)) != k)
        if not negligible.any():
            return c
        c = np.where(negligible, 0.0, c)
        while k > 1 and c[0] == 0.0 and c[-1] == 0.0:
            c, k = c[1:-1], k - 1
        return c

    def _theta(self, s):
        return self.theta0 + np.asarray(s, dtype=float) * (self.theta1 - self.theta0)

    def nearest(self, ps):
        """Local parameter in [0, 1] of the segment point nearest each of ps.

        d/dt |z - p|^2 is X + conj(X) with X = z' conj(z - p).  On |w| = 1,
        conj(z - p) has the coefficients conj(b[::-1]) of b = c - p, and z'
        those of i j c_j, so w^2K d/dt |z - p|^2 is a polynomial of degree 4K
        whose leading coefficient does not depend on p.  The candidates are
        both ends and every root angle that falls on the segment; the nearest
        one wins.
        """
        a, sweep = self._root_coefficients, self.theta1 - self.theta0
        k = len(a) // 2
        da, at_c0 = 1j * np.arange(-k, k + 1) * a, np.arange(len(a)) == k
        out = []
        for p in ps.tolist():
            x = np.convolve(np.conj((a - p * at_c0)[::-1]), da)
            s = (np.sign(sweep) * (np.angle(polynomial_roots(x + np.conj(x[::-1]))) - self.theta0)) % TWO_PI
            s = np.concatenate([[0.0, 1.0], s[s <= abs(sweep)] / abs(sweep)])
            out.append(s[np.argmin(np.abs(self.points(s) - p))])
        return np.array(out)

    def turns(self, ps):
        """Argument change of z - p along the segment, in turns, for each of ps (none on the segment).

        w^K (z(w) - p) is a polynomial in w = e^{it}, so z - p is w^-K times a
        constant times the factors w - r over its roots r: each factor adds
        its own argument change along the segment's angles, and w^-K takes
        K sweep / 2 pi off.
        """
        a = self._root_coefficients
        k = len(a) // 2
        at_c0 = np.arange(len(a)) == k
        roots = [polynomial_roots(a - p * at_c0) for p in ps.tolist()]
        owner = np.repeat(np.arange(len(roots)), [len(r) for r in roots])
        sweep = self.theta1 - self.theta0
        per_root = _unit_arc_turns(np.concatenate([np.empty(0, dtype=complex)] + roots), self.theta0, sweep)
        return np.bincount(owner, per_root, minlength=len(roots)) - k * sweep / TWO_PI

    def extent(self):
        """A bound on every coordinate of the segment: |c_0| + sum_k |c_k|."""
        return float(self._moduli.sum())

    def area(self) -> float:
        """Half of the integral of Im(conj(z) dz) along the segment.

        With z = sum_k c_k e^{ikt} and dz = sum_k i k c_k e^{ikt} dt, the
        integral over [t0, t1] is sum_{j,k} conj(c_j) c_k I_jk, where I_kk =
        i k (t1 - t0) and I_jk = k (e^{i(k-j)t1} - e^{i(k-j)t0}) / (k - j)
        otherwise.  That holds on any range, reversed and partial ones too.
        """
        c = self._coefficients
        k, i_steps, gather, diagonal, divisor = _area_table(len(c))
        # one exp per harmonic difference k - j, gathered into the table
        off = (np.exp(i_steps * self.theta1) - np.exp(i_steps * self.theta0))[gather]
        weights = np.where(diagonal, 1j * k * (self.theta1 - self.theta0), k * off / divisor)
        return 0.5 * float((np.conj(c) @ weights @ c).imag)

    def points(self, s):
        c0, pos, neg, _, _ = self._laurent
        return trig_series(c0, pos, neg, self._theta(s))

    def derivs(self, s):
        _, _, _, dpos, dneg = self._laurent
        return (self.theta1 - self.theta0) * trig_series_deriv(dpos, dneg, self._theta(s))

    def subsegment(self, s0, s1):
        span = self.theta1 - self.theta0
        return TrigSegment(self.coeffs_x, self.coeffs_y, self.theta0 + s0 * span, self.theta0 + s1 * span)

    def reversed(self):
        # Substituting t -> (theta0 + theta1) - t keeps both series in the
        # cosine/sine basis, so a reversed trig segment is again a trig segment.
        c = self.theta0 + self.theta1

        def flip(coeffs):
            out = [coeffs[0]]
            for k in range(1, len(coeffs) // 2 + 1):
                a = coeffs[2 * k - 1]
                b = coeffs[2 * k] if 2 * k < len(coeffs) else 0.0
                out.append(a * np.cos(k * c) + b * np.sin(k * c))
                out.append(a * np.sin(k * c) - b * np.cos(k * c))
            return tuple(out)

        return TrigSegment(flip(self.coeffs_x), flip(self.coeffs_y), self.theta0, self.theta1)

    def rough_length(self):
        s = np.linspace(0.0, 1.0, 65)
        speed = np.abs(self.derivs(s))
        return float((speed[0] / 2 + speed[1:-1].sum() + speed[-1] / 2) / (len(s) - 1))

    def to_json(self):
        return {
            "kind": "trig",
            "coeffs_x": list(self.coeffs_x),
            "coeffs_y": list(self.coeffs_y),
            "t0": self.theta0,
            "t1": self.theta1,
        }


Segment = Union[ArcSegment, LineSegment, TrigSegment]


@cache
def _area_table(n: int) -> tuple[np.ndarray, ...]:
    """What ``TrigSegment.area`` takes from its n = 2K + 1 harmonics alone, read-only.

    They are k = -K .. K; i d for each difference d = -2K .. 2K; the index
    into those differences of k - j at row j, column k; the diagonal k = j;
    and k - j with 1 on the diagonal, the divisor off it.
    """
    k = np.arange(n) - n // 2
    d = k - k[:, np.newaxis]
    table = (k, 1j * np.arange(1 - n, n), d + n - 1, d == 0, np.where(d == 0, 1, d))
    for a in table:
        a.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# arc kernels
#
# Each arc formula, written once.  An ``ArcSegment`` calls them with its own
# fields; an ``_ArcTable`` with its columns, so one expression evaluates every
# arc of a curve.  The operations are elementwise, so each arc's floats have
# the same bits either way.


def _arc_points(center, radius, angle0, sweep, s):
    """c + R e^{i (a0 + s sweep)} at local parameter(s) s."""
    return center + radius * np.exp(1j * (angle0 + np.asarray(s, dtype=float) * sweep))


def _arc_derivs(radius, angle0, sweep, s):
    """d/ds of ``_arc_points``: i sweep R e^{i (a0 + s sweep)}."""
    return 1j * sweep * radius * np.exp(1j * (angle0 + np.asarray(s, dtype=float) * sweep))


def _arc_ahead(center, angle0, sweep, ps):
    """The angle of each of ps - center, measured along the sweep from angle0, in [0, 2 pi)."""
    return (np.sign(sweep) * (np.angle(np.asarray(ps) - center) - angle0)) % TWO_PI


def _arc_nearest(center, angle0, sweep, ps):
    """Local parameter in [0, 1] of the arc point nearest each of ps.

    The angle of p - center, measured along the sweep from angle0, over the
    sweep's length; off the arc's angular span, the nearer endpoint.
    """
    span, ahead = np.abs(sweep), _arc_ahead(center, angle0, sweep, ps)
    past_end = ahead - span
    return np.where(past_end <= 0.0, ahead / span, np.where(past_end < TWO_PI - ahead, 1.0, 0.0))


def _unit_arc_turns(r: np.ndarray, theta0, sweep) -> np.ndarray:
    """Argument change of e^{it} - r as t runs from theta0 over sweep, in turns, for each r off that arc.

    The sweep is cut into pieces of at most pi.  Each piece adds its chord's
    angle, and 2 pi more in the sweep's direction where r lies in the unit
    disc on the arc's side of the chord: there the chord's angle has the sign
    opposite to the sweep's.  For arcs given as columns (theta0 and sweep of
    shape (k, 1), r of shape (k, n)) each row is its own arc's; an arc cut into
    fewer pieces than the most pads its chords with -0.0, which adds nothing.
    """
    sweep = np.asarray(sweep)
    pieces = np.ceil(np.abs(sweep) / np.pi).astype(int)
    most = int(pieces.max())
    verts = np.exp(1j * (theta0 + sweep * np.arange(most + 1) / pieces))[..., np.newaxis]
    r = r[..., np.newaxis, :]
    chord = np.angle((verts[..., 1:, :] - r) / (verts[..., :-1, :] - r))
    if (pieces < most).any():
        chord = np.where((np.arange(most) >= pieces)[..., np.newaxis], -0.0, chord)
    missed = (chord * sweep[..., np.newaxis] < 0.0) & (np.abs(r) < 1.0)
    return (chord.sum(axis=-2) + np.sign(sweep) * TWO_PI * missed.sum(axis=-2)) / TWO_PI


@dataclass(frozen=True, eq=False)
class _ArcTable:
    """The arcs of a curve of two or more arcs, as columns: centres, radii, start angles and sweeps.

    It answers ``points``, ``derivs``, ``nearest`` and ``turns`` as an
    ``ArcSegment`` does, for every row at once.  Indexing gathers rows: an
    index array gives one arc per parameter, and ``[:, np.newaxis]`` puts
    each arc in a row of its own, against which a batch of parameters or
    points broadcasts.
    """

    center: np.ndarray
    radius: np.ndarray
    angle0: np.ndarray
    sweep: np.ndarray

    @classmethod
    def of(cls, segs: Sequence[Segment]) -> _ArcTable | None:
        """The table of segs when they are two or more arcs; None for any other chain."""
        if len(segs) < 2 or not all(isinstance(seg, ArcSegment) for seg in segs):
            return None
        return cls(
            np.array([seg.center for seg in segs], dtype=complex),
            np.array([seg.radius for seg in segs], dtype=float),
            np.array([seg.angle0 for seg in segs], dtype=float),
            np.array([seg.angle1 - seg.angle0 for seg in segs], dtype=float),
        )

    def __getitem__(self, rows) -> _ArcTable:
        return _ArcTable(self.center[rows], self.radius[rows], self.angle0[rows], self.sweep[rows])

    def points(self, s):
        return _arc_points(self.center, self.radius, self.angle0, self.sweep, s)

    def derivs(self, s):
        return _arc_derivs(self.radius, self.angle0, self.sweep, s)

    def nearest(self, ps):
        return _arc_nearest(self.center, self.angle0, self.sweep, ps)

    def turns(self, ps):
        return _unit_arc_turns((ps - self.center) / self.radius, self.angle0, self.sweep)


def _segment_rows(segs: Sequence[Segment], arcs: _ArcTable | None, method: str, s) -> np.ndarray:
    """``getattr(seg, method)(s)`` for each of segs, stacked: one row, or one value for a scalar s, per segment.

    ``arcs`` is the segments' arc table or None; a table answers for all of
    them in one expression, with each arc in a row of its own.
    """
    if arcs is None:
        return np.array([getattr(seg, method)(s) for seg in segs])
    return getattr(arcs[:, np.newaxis] if np.ndim(s) else arcs, method)(s)


def _joint_points(segs: Sequence[Segment], arcs: _ArcTable | None) -> tuple[np.ndarray, np.ndarray]:
    """Each segment's end and the next segment's start."""
    starts = _segment_rows(segs, arcs, "points", 0.0)
    return _segment_rows(segs, arcs, "points", 1.0), np.concatenate((starts[1:], starts[:1]))


def segment_from_json(obj: dict) -> Segment:
    if not isinstance(obj, dict):
        raise ValueError(f"a segment must be a JSON object, not {obj!r}")
    kind = obj.get("kind")
    if kind == "arc":
        return ArcSegment(complex(*obj["center"]), float(obj["radius"]), float(obj["from"]), float(obj["to"]))
    if kind == "line":
        return LineSegment(complex(*obj["from"]), complex(*obj["to"]))
    if kind == "trig":
        return TrigSegment(tuple(obj["coeffs_x"]), tuple(obj["coeffs_y"]), float(obj["t0"]), float(obj["t1"]))
    raise ValueError(f"unknown segment kind: {kind!r}")


# ---------------------------------------------------------------------------
# curves


@dataclass(frozen=True)
class CornerInfo:
    """A parameter where the one-sided tangents disagree.

    ``interior_angle`` is the angle of the curve's interior at the corner,
    in (0, 2*pi); it equals pi exactly when the curve is smooth there.
    """

    parameter: float
    location: complex
    interior_angle: float


@dataclass(frozen=True, eq=False)
class JordanCurve:
    """A closed, positively oriented, piecewise-smooth curve.

    The global parameter domain [0, 1) is split among the segments in
    proportion to their approximate arclengths (``breaks`` holds the split
    points, starting at 0.0 and ending at 1.0).
    """

    segments: tuple[Segment, ...]
    breaks: tuple[float, ...]
    corners: tuple[CornerInfo, ...]
    diameter: float

    # -- construction -------------------------------------------------

    @classmethod
    def from_segments(cls, segments: Iterable[Segment]) -> "JordanCurve":
        """The curve of the chained segments: closed, reversed with a warning if clockwise, and checked simple."""
        segs = tuple(segments)
        if not segs:
            raise ValueError("a curve needs at least one segment")

        arcs = _ArcTable.of(segs)
        # a non-finite segment is reported below, not warned about here
        with np.errstate(invalid="ignore", over="ignore"):
            probes = _segment_rows(segs, arcs, "points", _PROBES)
        bad = np.flatnonzero(~np.isfinite(probes).all(axis=1))
        if len(bad):
            raise ValueError(f"segment {bad[0]} has a non-finite point")
        diameter = _diameter(probes.ravel())
        if diameter <= 0.0:
            raise ValueError("degenerate curve")
        closure_tol = 1e-9 * diameter

        joints = _joint_points(segs, arcs)
        ends, next_starts = (pts.tolist() for pts in joints)
        for i, (end, start) in enumerate(zip(ends, next_starts)):
            gap = abs(end - start)
            if gap > closure_tol:
                raise ValueError(f"segments {i} and {(i + 1) % len(segs)} do not join (gap {gap:.3g})")

        curve = cls._assembled(segs, diameter, arcs, next_starts[-1:] + next_starts[:-1])
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing area is refused below, not warned about
            area = curve.signed_area()
        if not np.isfinite(area):
            raise ValueError(f"curve area {area} is not finite, so its orientation is unknown")
        if area <= 0.0:
            warnings.warn("clockwise curve reversed to counterclockwise orientation", stacklevel=2)
            curve = cls._assembled(tuple(s.reversed() for s in reversed(segs)), diameter)
        else:
            curve.__dict__["_joints"] = tuple(pts[:, np.newaxis] for pts in joints)
        _check_simple(curve)
        return curve

    @classmethod
    def _assembled(
        cls,
        segs: tuple[Segment, ...],
        diameter: float,
        arcs: _ArcTable | None = None,
        starts: list[complex] | None = None,
    ) -> "JordanCurve":
        """The curve of the chained segments, with its breaks and corners.

        ``arcs`` and ``starts``, the segments' arc table (which the curve
        keeps) and their start points, are taken from the segments when not
        given.  A single segment takes the whole range, (0.0, 1.0), whatever
        its length.
        """
        arcs = _ArcTable.of(segs) if arcs is None else arcs
        starts = _segment_rows(segs, arcs, "points", 0.0).tolist() if starts is None else starts
        if len(segs) == 1:
            breaks = _WHOLE_RANGE
        else:
            lengths = np.array([max(s.rough_length(), 1e-300) for s in segs])
            cum = np.concatenate([[0.0], np.cumsum(lengths)]) / lengths.sum()
            cum[-1] = 1.0
            breaks = tuple(cum)
        curve = cls(segs, breaks, _find_corners(segs, breaks, arcs, starts), diameter)
        curve.__dict__["_arcs"] = arcs
        return curve

    # -- evaluation ----------------------------------------------------

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Segment starts, widths and the inner breaks, built on first use.

        Every thread that builds it builds the same arrays, so a race only
        repeats the work.
        """
        br = np.asarray(self.breaks)
        return br[:-1], br[1:] - br[:-1], br[1:-1]

    @cached_property
    def _arcs(self) -> _ArcTable | None:
        """The arc table of a curve of two or more arcs, None for any other curve; built on first use."""
        return _ArcTable.of(self.segments)

    def _dispatch(self, t, per_segment):
        ts = np.asarray(t, dtype=float)
        scalar = ts.ndim == 0
        ts = np.atleast_1d(ts) % 1.0
        starts, widths, inner = self._layout
        if len(self.segments) == 1:
            # breaks are (0.0, 1.0): (t - 0.0) / 1.0 == t exactly
            out = np.asarray(per_segment(self.segments[0], ts, widths[0]), dtype=complex)
        else:
            # t % 1.0 can round up to 1.0; searchsorted still gives the last segment
            idx = np.searchsorted(inner, ts, side="right")
            if self._arcs is not None:
                # each t with its own arc's row of the table: one expression for all of them
                s, w = (ts - starts[idx]) / widths[idx], widths[idx]
                out = np.asarray(per_segment(self._arcs[idx], s, w), dtype=complex)
            else:
                out = np.empty(ts.shape, dtype=complex)
                for i, seg in enumerate(self.segments):
                    mask = idx == i
                    if mask.any():
                        out[mask] = per_segment(seg, (ts[mask] - starts[i]) / widths[i], widths[i])
        return out[0] if scalar else out

    def points(self, t):
        """Curve points at global parameter(s) t (wrapped modulo 1).

        Each t goes to the segment whose break range holds it.  A curve of two
        or more arcs evaluates them all from its arc table in one expression,
        each t with its own arc's centre, radius and angles; any other curve
        evaluates each segment on its own share of the ts.  The bits are the
        same either way.
        """
        return self._dispatch(t, lambda seg, s, w: seg.points(s))

    def grid(self, n: int) -> np.ndarray:
        """The read-only curve points at t = i / n, i = 0 .. n - 1.

        The curve caches one sampling: the largest n dividing GRID_SAMPLES
        asked for so far, evaluated when first asked for.  Any n dividing it
        is a strided view of it: with m cached points, i / n is the float
        (i * m / n) / m, and evaluation is elementwise, so the bits are those
        of ``points(np.arange(n) / n)``.  Any other n evaluates that
        expression.  Threads that race may evaluate a sampling twice or keep
        the smaller one, which repeats work but never changes a bit.
        """
        cached = self.__dict__.get("_sampling")
        if cached is not None and len(cached) % n == 0:
            return cached[:: len(cached) // n]
        pts = self.points(np.arange(n) / n)
        pts.flags.writeable = False
        if GRID_SAMPLES % n == 0:
            self.__dict__["_sampling"] = pts
        return pts

    @cached_property
    def _joints(self) -> tuple[np.ndarray, np.ndarray]:
        """Each segment's end and the next segment's start, as columns: kept by ``from_segments`` or built on first use."""
        ends, starts = _joint_points(self.segments, self._arcs)
        return ends[:, np.newaxis], starts[:, np.newaxis]

    def derivs(self, t):
        """d(curve)/dt at global parameter(s) t; one-sided from the right at joints."""
        return self._dispatch(t, lambda seg, s, w: seg.derivs(s) / w)

    def point(self, t) -> complex:
        return complex(self.points(float(t)))

    def deriv(self, t) -> complex:
        return complex(self.derivs(float(t)))

    # -- global quantities ----------------------------------------------

    def signed_area(self) -> float:
        """The area the curve encloses, positive when it runs counterclockwise: the sum of its segments' ``area()``."""
        return float(sum(seg.area() for seg in self.segments))

    def default_band(self) -> float:
        return DEFAULT_BAND_FACTOR * self.diameter

    def extent(self) -> float:
        """A bound on every coordinate of the curve: the largest of its segments' ``extent()``."""
        return self._extent

    @cached_property
    def _extent(self) -> float:
        """``extent()``, taken on first use and kept."""
        return float(max(seg.extent() for seg in self.segments))

    def checked_band(self, band: float | None) -> float:
        """``band`` as a float, or the default band for None; it must be positive and finite."""
        band = self.default_band() if band is None else float(band)
        if not 0.0 < band < np.inf:
            raise ValueError(f"band must be positive and finite, not {band}")
        return band

    def corner_parameters(self) -> tuple[float, ...]:
        return tuple(c.parameter for c in self.corners)

    def to_json(self) -> dict:
        return {"segments": [s.to_json() for s in self.segments]}

    @classmethod
    def from_json(cls, obj) -> "JordanCurve":
        if isinstance(obj, str):
            return curve_from_alias(obj)
        return cls.from_segments(segment_from_json(s) for s in obj["segments"])


# Rows per block of the diameter's distance table.
_DIAMETER_BLOCK = 64


def _diameter(pts: np.ndarray) -> float:
    """The largest |p_i - p_j| over all pairs of pts, as the float the full n x n table gives.

    Each block of rows is measured against itself and the rows after it: the
    upper triangle, with 64 n values at a time instead of n^2.  fl(a - b) =
    -fl(b - a) and abs ignores the sign, so the pairs left out repeat the
    floats of those kept.
    """
    return float(
        max(
            np.abs(pts[i : i + _DIAMETER_BLOCK, np.newaxis] - pts[np.newaxis, i:]).max()
            for i in range(0, len(pts), _DIAMETER_BLOCK)
        )
    )


def _find_corners(
    segs: tuple[Segment, ...], breaks: tuple[float, ...], arcs: _ArcTable | None, starts: list[complex]
) -> tuple[CornerInfo, ...]:
    """The joints where the tangent turns by more than CORNER_TOL; ``starts`` holds each segment's start point."""
    ends = _segment_rows(segs, arcs, "derivs", 1.0)
    incoming = np.concatenate((ends[-1:], ends[:-1]))
    outgoing = _segment_rows(segs, arcs, "derivs", 0.0)
    corners = []
    for i, turn in enumerate(wrap_angle(np.angle(outgoing) - np.angle(incoming)).tolist()):
        if abs(turn) <= CORNER_TOL:
            continue
        interior = np.pi - turn
        if not 0.0 < interior < TWO_PI:
            raise ValueError(f"cusp at segment joint {i} (turn {turn:.6f} rad)")
        corners.append(CornerInfo(breaks[i], starts[i], interior))
    return tuple(corners)


def _lines_meet(a: LineSegment, b: LineSegment) -> bool:
    """True when two straight segments share a point.

    The ends of each are not both strictly on one side of the other's line, and the bounding boxes overlap, which
    settles collinear segments and keeps apart pieces of one slanted side that rounding puts ulps off each other's line.
    """
    ends = np.array([[a.start_point, a.end_point], [b.start_point, b.end_point]])
    sides = [np.sign(((q - p).conjugate() * (ends[1 - i] - p)).imag).prod() for i, (p, q) in enumerate(ends)]
    return max(sides) <= 0.0 and all(xy.min(axis=1).max() <= xy.max(axis=1).min() for xy in (ends.real, ends.imag))


def _arc_meets_line(arc: ArcSegment, line: LineSegment) -> bool:
    """True when a point of the straight segment lies on the arc.

    The segment a + s d meets the arc's circle where |a + s d - c|^2 = R^2,
    a quadratic in s; a real root s in [0, 1] whose point the arc sweeps
    past is a meeting point.
    """
    d, e = line.end_point - line.start_point, line.start_point - arc.center
    dd, half_b = abs(d) ** 2, (e * d.conjugate()).real
    disc = half_b * half_b - dd * (abs(e) ** 2 - arc.radius**2)
    if disc < 0.0:
        return False
    s = (-half_b + np.array([-1.0, 1.0]) * np.sqrt(disc)) / dd
    s = s[(0.0 <= s) & (s <= 1.0)]
    return bool(arc._sweeps(line.points(s)).any())


def _arcs_meet(a: ArcSegment, b: ArcSegment) -> bool:
    """True when two arcs share a point.

    Arcs of one circle meet when an end of one lies on the other's sweep.  Other circles, centres D apart along the unit
    vector u, meet at c_a + (x +- i y) u, x = (R_a^2 - R_b^2 + D^2) / 2D, y^2 = R_a^2 - x^2 >= 0, if both arcs sweep it.
    """
    if a.center == b.center:
        ends = (0.0, 1.0)
        return a.radius == b.radius and bool(a._sweeps(b.points(ends)).any() or b._sweeps(a.points(ends)).any())
    d = b.center - a.center
    x = (a.radius**2 - b.radius**2 + abs(d) ** 2) / (2.0 * abs(d))
    if x * x > a.radius**2:
        return False
    ps = a.center + (x + np.array([-1j, 1j]) * np.sqrt(a.radius**2 - x * x)) * (d / abs(d))
    return bool((a._sweeps(ps) & b._sweeps(ps)).any())


def _segments_meet(a: Segment, b: Segment) -> bool:
    """True when two straight segments or arcs share a point; False when either is a trig segment."""
    if isinstance(a, LineSegment) and isinstance(b, ArcSegment):
        a, b = b, a
    if isinstance(a, ArcSegment) and isinstance(b, ArcSegment):
        return _arcs_meet(a, b)
    if isinstance(a, ArcSegment) and isinstance(b, LineSegment):
        return _arc_meets_line(a, b)
    return isinstance(a, LineSegment) and isinstance(b, LineSegment) and _lines_meet(a, b)


def _turning_number(pts: np.ndarray) -> float:
    """Total turn of the closed polygon through pts, edge to edge, in full turns."""
    edges = np.diff(pts, append=pts[:1])
    turns = np.angle(edges[1:] * np.conj(edges[:-1])).sum() + np.angle(edges[0] * np.conj(edges[-1]))
    return float(turns / TWO_PI)


# Relative allowance of the dominant-harmonic certificate, far above the few
# ulps by which the Laurent coefficients and their weighted sum are rounded.
_DOMINANCE_SLACK = 1e-9


def _sweep(seg: Segment) -> float:
    """The signed angle of w = e^{i theta} that an arc or trig segment sweeps; 0.0 for a straight segment."""
    if isinstance(seg, ArcSegment):
        return seg.angle1 - seg.angle0
    return seg.theta1 - seg.theta0 if isinstance(seg, TrigSegment) else 0.0


def _first_harmonic_dominates(seg: Segment) -> bool:
    """True when seg sweeps one full turn and its first harmonic proves the closed curve simple.

    Alexander's coefficient criterion for univalence: with z = sum_k c_k w^k
    on w = e^{it}, and w1 != w2 on the unit circle, |w1^k - w2^k| <=
    |k| |w1 - w2| for every integer k, while |w1^s - w2^s| = |w1 - w2| for
    s = +-1.  So

        |z(w1) - z(w2)| >= (|c_s| - sum_{k not in {0, s}} |k| |c_k|) |w1 - w2|,

    and z is one-to-one on the period when the bracket is positive; |z'| is
    bounded below by it too.  The bracket must exceed a relative allowance
    for rounding, so a curve at the boundary is not certified, and neither
    is a curve with a NaN or infinite coefficient.
    """
    harmonic = seg._first_harmonic
    if harmonic is None or not np.isfinite(harmonic[0]).all():
        return False
    c, size, s = harmonic
    k = len(c) // 2
    weighted = np.abs(np.arange(-k, k + 1)) * size
    return bool(2.0 * weighted[s] > (1.0 + _DOMINANCE_SLACK) * weighted.sum())


def _check_simple(curve: JordanCurve) -> None:
    """Simplicity test, one flow for every curve.

    A single full-turn arc, or trig segment whose first harmonic dominates,
    is simple by ``_first_harmonic_dominates``.  Any other curve with a trig
    segment, cut into however many pieces, must have a grid polygon that
    turns once, which rejects a limaçon's inner loop (two turns) and a
    figure eight (none).  Then no two non-adjacent segments may share a
    point, decided exactly for arcs and straight segments by ``_segments_meet``
    (a pair with a trig segment is not tested).  A curve of fewer than four
    segments has no non-adjacent pair.
    """
    segs = curve.segments
    if len(segs) == 1 and _first_harmonic_dominates(segs[0]):
        return
    if any(isinstance(seg, TrigSegment) for seg in segs):
        turns = _turning_number(curve.grid(GRID_SAMPLES))
        if not abs(turns - 1.0) < 0.5:
            raise ValueError(f"curve self-intersects (turning number {turns:.3f})")
    k = len(segs)
    for i in range(k):
        # j runs over the segments after i that do not touch it; the last one touches the first
        for j in range(i + 2, k - (i == 0)):
            if _segments_meet(segs[i], segs[j]):
                raise ValueError(f"curve self-intersects (segments {i} and {j} cross)")


# ---------------------------------------------------------------------------
# common shapes


@cache
def unit_circle() -> JordanCurve:
    """The unit circle with canonical parameterization t -> exp(2*pi*i*t).

    One shared curve per process: it is immutable, so its cached sampling
    serves every caller.
    """
    return JordanCurve.from_segments([ArcSegment(0.0, 1.0, 0.0, TWO_PI)])


def circle(center: complex, radius: float) -> JordanCurve:
    return JordanCurve.from_segments([ArcSegment(complex(center), float(radius), 0.0, TWO_PI)])


def polygon(vertices: Sequence[complex]) -> JordanCurve:
    verts = [complex(v) for v in vertices]
    if len(verts) < 3:
        raise ValueError("a polygon needs at least three vertices")
    return JordanCurve.from_segments(
        LineSegment(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))
    )


def square(center: complex, side: float) -> JordanCurve:
    side = float(side)
    if not 0.0 < side < np.inf:
        raise ValueError(f"square side must be positive and finite, not {side}")
    c, h = complex(center), side / 2.0
    return polygon([c + complex(-h, -h), c + complex(h, -h), c + complex(h, h), c + complex(-h, h)])


def trig_curve_from_complex_fourier(coeffs: dict[int, complex]) -> JordanCurve:
    """Closed curve z(t) = sum_m c_m exp(i m t), t in [0, 2*pi), from complex coefficients.

    Each key m is an integer, or a float with an integer value, which counts
    as that integer; any other key is refused.
    """
    if not coeffs:
        raise ValueError("no Fourier coefficients given")
    terms = []
    for m, c in coeffs.items():
        if not (isinstance(m, (int, np.integer)) or isinstance(m, (float, np.floating)) and float(m).is_integer()):
            raise ValueError(f"Fourier coefficient key {m!r} is not an integer")
        terms.append((int(m), complex(c)))
    # x and y packed flat as [c0, a1, b1, a2, b2, ...]: h > 0 fills slots 2h - 1 (cosine) and 2h (sine)
    kmax = max(abs(m) for m, _ in terms)
    x, y = [0.0] * (2 * kmax + 1), [0.0] * (2 * kmax + 1)
    for m, c in terms:
        if m == 0:
            x[0] += c.real
            y[0] += c.imag
            continue
        h, sign = abs(m), (1.0 if m > 0 else -1.0)
        # Re(c e^{imt}) = Re(c) cos(ht) - sign*Im(c) sin(ht); Im likewise.
        x[2 * h - 1] += c.real
        x[2 * h] -= sign * c.imag
        y[2 * h - 1] += c.imag
        y[2 * h] += sign * c.real
    seg = TrigSegment(tuple(x), tuple(y), 0.0, TWO_PI)
    return JordanCurve.from_segments([seg])


def radial_trig_curve(harmonics: Sequence[tuple[float, float]], base_radius: float = 1.0) -> JordanCurve:
    """Closed smooth curve r(t)*exp(i t) with r(t) = base + sum_k (a_k cos kt + b_k sin kt).

    ``harmonics`` lists (a_k, b_k) starting at k = 1.  The perturbation must
    keep r positive and the derivative nonvanishing, which holds whenever
    sum_k (1 + k)*(|a_k| + |b_k|) < base_radius.
    """
    # r(t) e^{it} in complex Fourier form: radial harmonic k contributes
    # (a_k -+ i b_k)/2 at frequencies k+1 and -(k-1).
    coeffs: dict[int, complex] = {1: complex(base_radius)}
    for k, (a, b) in enumerate(harmonics, start=1):
        for freq, c in ((k + 1, (a - 1j * b) / 2.0), (-(k - 1), (a + 1j * b) / 2.0)):
            coeffs[freq] = coeffs.get(freq, 0.0) + c
    return trig_curve_from_complex_fourier(coeffs)


def curve_from_alias(alias: str) -> JordanCurve:
    """Parse "unit-circle", "circle(c,r)", "square(c,s)" curve shorthands."""
    text = alias.strip()
    if text == "unit-circle":
        return unit_circle()
    for name, builder in (("circle", circle), ("square", square)):
        if text.startswith(name + "(") and text.endswith(")"):
            inner = text[len(name) + 1 : -1]
            parts = [p.strip() for p in inner.split(",")]
            if len(parts) == 2:
                return builder(complex(parts[0]), float(parts[1]))
            if len(parts) == 3:
                return builder(complex(float(parts[0]), float(parts[1])), float(parts[2]))
            raise ValueError(f"cannot parse curve alias {alias!r}")
    raise ValueError(f"unknown curve alias {alias!r}")


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class PointLocation:
    kind: str  # "inside" | "outside" | "on-curve"
    t: float | None = None  # nearest parameter, set for on-curve points


def nearest_parameter(curve: JordanCurve, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest curve parameter and distance for each of ps.

    Each segment gives its nearest point in closed form (its ``nearest``),
    and the nearest segment wins (the first on ties).  A segment end maps
    exactly to the next break, so a corner gets its break.  A curve of one
    segment takes its nearest points without measuring them against any
    other, and their distances from the segment itself, whose breaks are
    (0.0, 1.0).  A curve of two or more arcs takes every arc's nearest points
    and their distances from its arc table, one row per arc, in one
    expression each, with the bits that each arc gives on its own.
    """
    br = np.asarray(curve.breaks)
    arcs = curve._arcs
    one = len(curve.segments) == 1
    if one:
        # an argmin over one row is 0
        i, si = 0, curve.segments[0].nearest(ps)
    else:
        if arcs is None:
            s = np.array([seg.nearest(ps) for seg in curve.segments])
            gaps = np.abs(np.array([seg.points(si) for seg, si in zip(curve.segments, s)]) - ps)
        else:
            s = arcs[:, np.newaxis].nearest(ps)
            gaps = np.abs(arcs[:, np.newaxis].points(s) - ps)
        i = np.argmin(gaps, axis=0)
        si = s[i, np.arange(len(ps))]
    t = np.where(si == 1.0, br[i + 1], br[i] + si * (br[i + 1] - br[i])) % 1.0
    # t lies in [0, 1), where the points of a curve of one segment are the segment's own
    return t, np.abs((curve.segments[0] if one else curve).points(t) - ps)


# A point this close to a curve, relative to the largest coordinate
# involved, is within rounding of it: the closed-form winding cannot place
# it, so it is ambiguous.
_ROUNDING_GUARD = 64.0 * np.finfo(float).eps


def classify_points(curve: JordanCurve, ps: Sequence[complex], band: float | None = None) -> list[PointLocation]:
    """Locate each of ps relative to the curve: on it (within ``band``), inside, or outside.

    A full circle, or a curve of one trig segment sweeping exactly one turn,
    first places what its first-harmonic annulus settles (``_annulus_kinds``).
    Every other point is located through its nearest curve point: within
    ``band`` of it, the point is on the curve.  Otherwise inside/outside is
    decided by the winding number of the curve around the point, summed in
    closed form: every segment's argument change (its ``turns``) plus the
    angle each joint's gap, from a segment's end to the next one's start,
    subtends.  A point outside the band but within rounding of the curve
    cannot be placed and is refused.  Each point's location does not depend
    on the rest of the batch.
    """
    band = curve.checked_band(band)
    ps = np.array([complex(p) for p in ps], dtype=complex)
    for p in ps[~np.isfinite(ps)].tolist():
        raise ValueError(f"cannot locate the non-finite point {p}")
    extent = curve.extent()
    kinds = _annulus_kinds(curve, ps, band, extent)
    if kinds is None:
        return _located(curve, ps, band, extent)
    located = iter(_located(curve, ps[kinds == ""], band, extent))
    return [PointLocation(kind) if kind else next(located) for kind in kinds.tolist()]


def _annulus_kinds(curve: JordanCurve, ps: np.ndarray, band: float, extent: float) -> np.ndarray | None:
    """"inside" or "outside" for each of ps that the first-harmonic annulus places, "" for the rest.

    With z = sum_k c_k w^k, let c_s be the larger of c_1 and c_-1 and
    rho = sum_{k not in {0, s}} |c_k|: the curve lies in the annulus
    |c_s| - rho <= |z - c_0| <= |c_s| + rho.  For r = |p - c_0| below the
    inner radius, |c_s w^s| exceeds the rest of z - p on the curve, so by
    Rouché z - p winds as c_s w^s does, nu = s times the sweep's sign,
    and the curve is at least |c_s| - rho - r from p.  For r above the
    outer radius, |p - c_0| exceeds the rest and the winding is 0, at a
    distance of at least r - |c_s| - rho.  With nu = 1, the winding 1 is
    inside and 0 outside.  Any other nu places nothing, and neither does a
    curve that is not one arc or trig segment sweeping exactly one full turn:
    for both the result is None.  A full circle has rho = 0: its annulus is
    the circle, and a point is placed wherever it clears the allowance below.

    A point is placed when that distance bound clears the band and the
    rounding guard of ``_located`` by an allowance: r, rho and |c_s| are
    each rounded by a few ulps of extent + |p|, and the curve points that
    ``_located`` measures by a few K ulps of extent, both far below
    ``_DOMINANCE_SLACK`` (extent + |p|).  So ``_located`` would find such a
    point neither on the curve nor within rounding of it, and wherever its
    polynomial roots are accurate, with the winding of the certificate: the
    two paths give the same location.
    """
    harmonic = curve.segments[0]._first_harmonic if len(curve.segments) == 1 else None
    if harmonic is None:
        return None
    c, size, s = harmonic
    seg, k = curve.segments[0], len(c) // 2
    if (s - k) * np.sign(_sweep(seg)) != 1:
        return None
    kinds, scale = np.full(len(ps), "", dtype=object), np.abs(ps)
    rho = size.sum() - size[k] - size[s]
    r = np.abs(ps - c[k])
    need = np.maximum(band, _ROUNDING_GUARD * np.maximum(extent, scale)) + _DOMINANCE_SLACK * (extent + scale)
    kinds[size[s] - rho - r > need] = "inside"
    kinds[r - size[s] - rho > need] = "outside"
    return kinds


def _located(curve: JordanCurve, ps: np.ndarray, band: float, extent: float) -> list[PointLocation]:
    """``classify_points`` for finite ps by their nearest curve points and closed-form windings."""
    if not len(ps):
        return []
    tstar, dist = nearest_parameter(curve, ps)
    off = ps[~(dist < band)]
    turns = iter(_windings(curve, off).tolist() if len(off) else ())
    out = []
    for p, t, d in zip(ps.tolist(), tstar.tolist(), dist.tolist()):
        if d < band:
            out.append(PointLocation("on-curve", t))
            continue
        if d <= _ROUNDING_GUARD * max(extent, abs(p)):
            raise AmbiguousClassification(f"{p} lies {d:.3g} from the curve, within rounding of it")
        winding = next(turns)
        w = round(winding)
        if abs(winding - w) > 0.01 or w not in (0, 1):
            raise AmbiguousClassification(f"winding around {p} is {winding:.6f}")
        out.append(PointLocation("inside" if w == 1 else "outside"))
    return out


def _windings(curve: JordanCurve, ps: np.ndarray) -> np.ndarray:
    """The winding number of the curve around each of ps, summed in closed form.

    Every segment's ``turns``, added over the segments left to right, plus
    the angle each joint's gap subtends, from a segment's end to the next
    one's start.
    """
    ends, starts = curve._joints
    # a point within rounding of a vertex can divide by zero; the caller's guard refuses it
    with np.errstate(divide="ignore", invalid="ignore"):
        gaps = np.angle((starts - ps) / (ends - ps)).sum(axis=0) / TWO_PI
        return sum(_segment_rows(curve.segments, curve._arcs, "turns", ps)) + gaps


def classify_point(curve: JordanCurve, p: complex, band: float | None = None) -> PointLocation:
    """Locate one point relative to the curve; see :func:`classify_points`."""
    return classify_points(curve, [p], band)[0]


def interior_angle(curve: JordanCurve, t: float) -> float:
    """Interior angle at parameter t: pi at smooth points, the corner angle at corners within 1e-7 of t."""
    t = float(t) % 1.0
    for c in curve.corners:
        gap = abs(t - c.parameter)
        if min(gap, 1.0 - gap) < 1e-7:
            return c.interior_angle
    return np.pi


# ---------------------------------------------------------------------------
# detour construction


@dataclass(frozen=True)
class DetourCurve:
    """A curve rerouted around marked boundary points.

    ``composite`` follows ``base`` except inside discs around the excised
    points, where it follows the disc boundary arc lying outside the base
    curve; every excised point is strictly inside the composite.
    ``arc_spans`` holds the angular length of each splice arc (these approach
    pi as the disc radius shrinks on a smooth curve).
    """

    base: JordanCurve
    excised: tuple[tuple[complex, float], ...]
    composite: JordanCurve
    arc_spans: tuple[float, ...]


def default_epsilon_schedule(curve: JordanCurve, zeros: Sequence[complex]) -> tuple[float, ...]:
    """Geometric radius schedule 0.2 * 2^-k * (min of pairwise zero distances and curve diameter), k = 0..20."""
    zs = [complex(z) for z in zeros]
    dists = [abs(a - b) for i, a in enumerate(zs) for b in zs[i + 1 :]]
    scale = min(dists + [curve.diameter])
    return tuple(0.2 * scale * 0.5**k for k in range(21))


def _subsegment_span(curve: JordanCurve, t0: float, t1: float) -> list[Segment]:
    """Forward sub-chain of the curve covering global parameters t0 -> t1 (t1 > t0).

    The segment holding t0 is located once; after each finished segment the
    walk steps to the next one by index.  Locating the segment again from
    ``t % 1.0`` could find the finished one when ``lap + break`` rounds down.
    """
    pieces: list[Segment] = []
    br = np.asarray(curve.breaks)
    k = len(curve.segments)
    u = t0 % 1.0
    i = min(int(np.searchsorted(br, u, side="right") - 1), k - 1)
    lap = np.floor(t0 - u)
    t = t0
    # t0 -> t1 touches at most int(t1 - t0) + 2 laps: one pass per segment of each, then the final check
    for _ in range(k * (int(t1 - t0) + 2) + 1):
        if not t < t1 - 1e-14:
            return pieces
        seg_end_global = float(br[i + 1]) + lap
        stop = min(t1, seg_end_global)
        width = br[i + 1] - br[i]
        s0 = (u - br[i]) / width
        s1 = s0 + (stop - t) / width
        if s1 - s0 > 1e-12:
            pieces.append(curve.segments[i].subsegment(float(s0), float(min(s1, 1.0))))
        t = stop
        i += 1
        if i == k:
            i, lap = 0, lap + 1.0
        u = br[i]
    raise DetourFailed(f"subsegment walk from {t0} did not reach {t1}")


def _forward_gap(a: float, b: float) -> float:
    return (b - a) % 1.0


def _try_detour(curve: JordanCurve, marks: list[tuple[float, complex]], eps: float, band: float):
    zs = [z for _, z in marks]
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            if abs(zs[i] - zs[j]) <= 2.2 * eps:
                return None

    n = 8192
    ts = np.arange(n) / n
    pts = curve.grid(n)

    flips = []
    for zj in zs:
        sgn = np.sign(np.abs(pts - zj) - eps)
        flips.append(np.nonzero(sgn * np.roll(sgn, -1) < 0)[0])
        if len(flips[-1]) != 2:
            return None
    # every mark's two crossings in one bisection: column 2j + i is the i-th crossing of mark j
    centers = np.repeat(zs, 2)

    def gfn(q):
        return np.abs(curve.points(q) - centers) - eps

    lo = ts[np.concatenate(flips)]
    roots = bisect_zero(gfn, lo, lo + 1.0 / n).tolist()
    intervals, mids = [], []
    for j, (tj, zj) in enumerate(marks):
        u, v = roots[2 * j] % 1.0, roots[2 * j + 1] % 1.0
        if not _forward_gap(u, tj % 1.0) <= _forward_gap(u, v):
            u, v = v, u
        mids.append((u + 0.5 * _forward_gap(u, v)) % 1.0)
        intervals.append((u, v, zj))
    if (np.abs(curve.points(np.array(mids)) - zs) - eps >= 0.0).any():
        return None

    intervals.sort(key=lambda iv: iv[0])

    segs: list[Segment] = []
    spans: list[float] = []
    ends = curve.points(np.array([(u, v) for u, v, _ in intervals])).tolist()
    for idx, ((u, v, zj), (at_u, at_v)) in enumerate(zip(intervals, ends)):
        # the curve runs counterclockwise with its exterior on its right, so the arc about zj that
        # stays outside it turns counterclockwise from gamma(u) to gamma(v)
        th_a = float(np.angle(at_u - zj))
        sweep = (float(np.angle(at_v - zj)) - th_a) % TWO_PI
        if sweep < 1e-9:
            return None
        arc = ArcSegment(zj, eps, th_a, th_a + sweep)
        segs.append(arc)
        spans.append(arc.angle1 - arc.angle0)

        next_u = intervals[(idx + 1) % len(intervals)][0]
        gap = _forward_gap(v, next_u)
        if gap < 1e-9:
            return None
        segs.extend(_subsegment_span(curve, v, v + gap))

    # a clockwise splice is refused, not reversed: its signed area, summed as signed_area() sums it
    if sum(seg.area() for seg in segs) <= 0.0:
        return None
    try:
        composite = JordanCurve.from_segments(segs)
    except ValueError:
        return None

    try:
        if any(loc.kind != "inside" for loc in classify_points(composite, [zj for _, _, zj in intervals], band)):
            return None
    except AmbiguousClassification:
        return None

    ordered = tuple((zj, eps) for _, _, zj in intervals)
    return DetourCurve(curve, ordered, composite, tuple(spans))


def build_detour(
    curve: JordanCurve,
    zeros_on_curve: Sequence[complex],
    eps_schedule: Sequence[float] | None = None,
    band: float | None = None,
) -> DetourCurve:
    """Reroute the curve around each listed on-curve point.

    Tries each radius in the schedule until the discs are pairwise disjoint,
    each disc boundary crosses the curve exactly twice, and the spliced curve
    is closed, simple, positively oriented, and strictly
    encloses every listed point.  Raises ValueError when a point is listed
    twice or lies off the curve, and DetourFailed when the schedule is
    exhausted.
    """
    band = curve.checked_band(band)
    zs = [complex(z) for z in zeros_on_curve]
    if not zs:
        return DetourCurve(curve, (), curve, ())
    for i, z in enumerate(zs):
        if z in zs[:i]:
            raise ValueError(f"{z} is listed more than once; each point gets one detour")

    params = []
    for z, loc in zip(zs, classify_points(curve, zs, band)):
        if loc.kind != "on-curve":
            raise ValueError(f"{z} does not lie on the curve within band {band:.3g}")
        params.append(loc.t)
    return _detour_at(curve, zs, params, eps_schedule, band)


def _detour_at(
    curve: JordanCurve,
    zs: Sequence[complex],
    params: Sequence[float],
    eps_schedule: Sequence[float] | None,
    band: float,
) -> DetourCurve:
    """``build_detour`` for distinct on-curve points zs whose curve parameters are already known."""
    marks = list(zip(params, zs))
    schedule = tuple(eps_schedule) if eps_schedule is not None else default_epsilon_schedule(curve, zs)
    if not schedule:
        raise ValueError("empty radius schedule")
    for eps in schedule:
        if not 0.0 < eps < np.inf:
            raise ValueError(f"detour radii must be positive and finite, not {eps}")
        result = _try_detour(curve, marks, float(eps), band)
        if result is not None:
            return result
    raise DetourFailed(f"no radius in the schedule produced a valid detour (tried {len(schedule)})")
