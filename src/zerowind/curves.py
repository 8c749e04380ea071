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

from ._numeric import (
    TWO_PI,
    WindingNotResolved,
    adaptive_winding,
    bisect_zero,
    golden_min,
    trig_series,
    trig_series_deriv,
    wrap_angle,
)
from .errors import AmbiguousClassification, DetourFailed

# Tangent-direction jump (radians) above which a joint counts as a corner.
CORNER_TOL = 1e-6

# On-curve band, as a fraction of the curve diameter.
DEFAULT_BAND_FACTOR = 1e-9

# Points of the sampling t = i / GRID_SAMPLES that every curve caches: every
# grid of n points with n dividing it is a strided view of it.
GRID_SAMPLES = 8192


# ---------------------------------------------------------------------------
# segments


@dataclass(frozen=True)
class ArcSegment:
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
        ang = self.angle0 + np.asarray(s, dtype=float) * (self.angle1 - self.angle0)
        return self.center + self.radius * np.exp(1j * ang)

    def nearest(self, ps):
        """Local parameter in [0, 1] of the arc point nearest each of ps.

        The angle of p - center, measured along the sweep from angle0, over
        the sweep's length; off the arc's angular span, the nearer endpoint.
        """
        sweep = self.angle1 - self.angle0
        span = abs(sweep)
        ahead = (np.sign(sweep) * (np.angle(np.asarray(ps) - self.center) - self.angle0)) % TWO_PI
        past_end = ahead - span
        return np.where(past_end <= 0.0, ahead / span, np.where(past_end < TWO_PI - ahead, 1.0, 0.0))

    def derivs(self, s):
        sweep = self.angle1 - self.angle0
        ang = self.angle0 + np.asarray(s, dtype=float) * sweep
        return 1j * sweep * self.radius * np.exp(1j * ang)

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
class TrigSegment:
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

    def _theta(self, s):
        return self.theta0 + np.asarray(s, dtype=float) * (self.theta1 - self.theta0)

    def points(self, s):
        return trig_series(self.coeffs_x, self.coeffs_y, self._theta(s))

    def derivs(self, s):
        span = self.theta1 - self.theta0
        return span * trig_series_deriv(self.coeffs_x, self.coeffs_y, self._theta(s))

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


def _segment_start(seg) -> complex:
    return complex(seg.points(0.0))


def _segment_end(seg) -> complex:
    return complex(seg.points(1.0))


def segment_from_json(obj: dict) -> Segment:
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
    def from_segments(
        cls,
        segments: Iterable[Segment],
        *,
        auto_orient: bool = True,
        check_simple: bool = True,
        band: float | None = None,
    ) -> "JordanCurve":
        segs = tuple(segments)
        if not segs:
            raise ValueError("a curve needs at least one segment")

        probe = np.concatenate([s.points(np.linspace(0.0, 1.0, 64)) for s in segs])
        diameter = float(np.max(np.abs(probe[:, None] - probe[None, :])))
        if diameter <= 0.0:
            raise ValueError("degenerate curve")
        closure_tol = 1e-9 * diameter

        k = len(segs)
        for i in range(k):
            gap = abs(_segment_end(segs[i]) - _segment_start(segs[(i + 1) % k]))
            if gap > closure_tol:
                raise ValueError(f"segments {i} and {(i + 1) % k} do not join (gap {gap:.3g})")

        # the curve returned is the one whose grid the orientation test sampled
        curve = cls._assembled(segs, diameter)
        if curve.signed_area() <= 0.0:
            if not auto_orient:
                raise ValueError("curve is clockwise")
            warnings.warn("clockwise curve reversed to counterclockwise orientation", stacklevel=2)
            curve = cls._assembled(tuple(s.reversed() for s in reversed(segs)), diameter)
        if check_simple:
            _check_simple(curve, band if band is not None else DEFAULT_BAND_FACTOR * diameter)
        return curve

    @classmethod
    def _assembled(cls, segs: tuple[Segment, ...], diameter: float) -> "JordanCurve":
        """The curve of the chained segments, with its breaks and corners."""
        lengths = np.array([max(s.rough_length(), 1e-300) for s in segs])
        cum = np.concatenate([[0.0], np.cumsum(lengths)]) / lengths.sum()
        cum[-1] = 1.0
        breaks = tuple(cum)
        return cls(segs, breaks, _find_corners(segs, breaks), diameter)

    # -- evaluation ----------------------------------------------------

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Segment starts, widths and the inner breaks, built on first use.

        Every thread that builds it builds the same arrays, so a race only
        repeats the work.
        """
        br = np.asarray(self.breaks)
        return br[:-1], br[1:] - br[:-1], br[1:-1]

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
            out = np.empty(ts.shape, dtype=complex)
            for i, seg in enumerate(self.segments):
                mask = idx == i
                if mask.any():
                    out[mask] = per_segment(seg, (ts[mask] - starts[i]) / widths[i], widths[i])
        return out[0] if scalar else out

    def points(self, t):
        """Curve points at global parameter(s) t (wrapped modulo 1)."""
        return self._dispatch(t, lambda seg, s, w: seg.points(s))

    @cached_property
    def _grid(self) -> np.ndarray:
        """The read-only points at t = i / GRID_SAMPLES, evaluated on first use.

        Every thread that builds it builds the same array, so a race only
        repeats the work.
        """
        pts = self.points(np.arange(GRID_SAMPLES) / GRID_SAMPLES)
        pts.flags.writeable = False
        return pts

    def grid(self, n: int) -> np.ndarray:
        """The read-only curve points at t = i / n, i = 0 .. n - 1.

        When n divides GRID_SAMPLES the points are a strided view of the
        curve's cached sampling: i / n is the float (i * GRID_SAMPLES / n) /
        GRID_SAMPLES, and evaluation is elementwise, so the bits are those of
        ``points(np.arange(n) / n)``.  Any other n evaluates that expression.
        """
        if GRID_SAMPLES % n == 0:
            return self._grid[:: GRID_SAMPLES // n]
        pts = self.points(np.arange(n) / n)
        pts.flags.writeable = False
        return pts

    def derivs(self, t):
        """d(curve)/dt at global parameter(s) t; one-sided from the right at joints."""
        return self._dispatch(t, lambda seg, s, w: seg.derivs(s) / w)

    def point(self, t) -> complex:
        return complex(self.points(float(t)))

    def deriv(self, t) -> complex:
        return complex(self.derivs(float(t)))

    # -- global quantities ----------------------------------------------

    def signed_area(self, n: int = 4096) -> float:
        pts = self.grid(n)
        x, y = pts.real, pts.imag
        return float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def default_band(self) -> float:
        return DEFAULT_BAND_FACTOR * self.diameter

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


def _find_corners(segs: tuple[Segment, ...], breaks: tuple[float, ...]) -> tuple[CornerInfo, ...]:
    k = len(segs)
    corners = []
    for i in range(k):
        incoming = complex(segs[i - 1].derivs(1.0))
        outgoing = complex(segs[i].derivs(0.0))
        turn = float(wrap_angle(np.angle(outgoing) - np.angle(incoming)))
        if abs(turn) <= CORNER_TOL:
            continue
        interior = np.pi - turn
        if not 0.0 < interior < TWO_PI:
            raise ValueError(f"cusp at segment joint {i} (turn {turn:.6f} rad)")
        corners.append(CornerInfo(breaks[i], _segment_start(segs[i]), interior))
    return tuple(corners)


def _splits(p: complex, q: complex, r: complex, s: complex) -> bool:
    """True when r and s lie strictly on opposite sides of the line through p and q."""
    d = q - p
    a = d.real * (r - p).imag - d.imag * (r - p).real
    b = d.real * (s - p).imag - d.imag * (s - p).real
    return (a < 0.0 < b) or (b < 0.0 < a)


def _lines_cross(a: LineSegment, b: LineSegment) -> bool:
    """True when two straight segments cross properly: each one's ends lie strictly on both sides of the other."""
    p, q, r, s = a.start_point, a.end_point, b.start_point, b.end_point
    return _splits(p, q, r, s) and _splits(r, s, p, q)


def _check_simple(curve: JordanCurve, band: float, per_segment: int = 96) -> None:
    """Desk-scale simplicity test: non-adjacent segments must not cross, and their samples must stay apart.

    Two straight segments are tested for a proper crossing by the signs of
    their orientations, which sampling can miss between samples.
    """
    k = len(curve.segments)
    if k < 3:
        return
    s = np.linspace(0.0, 1.0, per_segment)
    samples = [seg.points(s) for seg in curve.segments]
    for i in range(k):
        for j in range(i + 1, k):
            if (j - i) % k in (1, k - 1):
                continue
            a, b = curve.segments[i], curve.segments[j]
            if isinstance(a, LineSegment) and isinstance(b, LineSegment) and _lines_cross(a, b):
                raise ValueError(f"curve self-intersects (segments {i} and {j} cross)")
            dmin = np.min(np.abs(samples[i][:, None] - samples[j][None, :]))
            if dmin < band:
                raise ValueError(f"curve nearly self-intersects (segments {i} and {j}, distance {dmin:.3g})")


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
    c, h = complex(center), float(side) / 2.0
    return polygon([c + complex(-h, -h), c + complex(h, -h), c + complex(h, h), c + complex(-h, h)])


def trig_curve_from_complex_fourier(coeffs: dict[int, complex]) -> JordanCurve:
    """Closed curve z(t) = sum_m c_m exp(i m t), t in [0, 2*pi), from complex coefficients."""
    kmax = max(abs(m) for m in coeffs)
    ax = np.zeros(kmax + 1)
    bx = np.zeros(kmax + 1)
    ay = np.zeros(kmax + 1)
    by = np.zeros(kmax + 1)
    for m, c in coeffs.items():
        c = complex(c)
        h = abs(m)
        if m == 0:
            ax[0] += c.real
            ay[0] += c.imag
            continue
        sign = 1.0 if m > 0 else -1.0
        # Re(c e^{imt}) = Re(c) cos(ht) - sign*Im(c) sin(ht); Im likewise.
        ax[h] += c.real
        bx[h] -= sign * c.imag
        ay[h] += c.imag
        by[h] += sign * c.real

    def pack(const, a, b):
        out = [const]
        for k in range(1, kmax + 1):
            out.extend([a[k], b[k]])
        return tuple(out)

    seg = TrigSegment(pack(ax[0], ax, bx), pack(ay[0], ay, by), 0.0, TWO_PI)
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
# sampling and classification


@dataclass(frozen=True)
class CurveSample:
    t: float
    point: complex
    tangent: complex
    at_corner: bool


def sample(curve: JordanCurve, n: int) -> list[CurveSample]:
    """n samples at equispaced parameters with global-parameter tangents.

    Tangents at corner parameters are one-sided (from the right) and flagged.
    """
    if n < 3:
        raise ValueError("need at least three samples")
    ts = np.arange(n) / n
    pts = curve.grid(n)
    tans = curve.derivs(ts)
    corner_params = np.array(curve.corner_parameters())
    out = []
    for t, p, d in zip(ts, pts, tans):
        at_corner = bool(corner_params.size) and bool(
            np.min(np.abs(wrap_angle((corner_params - t) * TWO_PI))) < 1e-12 * TWO_PI
        )
        out.append(CurveSample(float(t), complex(p), complex(d), at_corner))
    return out


@dataclass(frozen=True)
class PointLocation:
    kind: str  # "inside" | "outside" | "on-curve"
    t: float | None = None  # nearest parameter, set for on-curve points


def nearest_parameter(curve: JordanCurve, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest curve parameter and distance for each of ps.

    On a curve of arcs and lines each segment gives its nearest point in
    closed form, and the nearest segment wins (the first on ties).  A segment
    end maps exactly to the next break, so a corner gets its break.  A curve
    with a trig segment takes one coarse scan and one elementwise golden refine.
    """
    if all(hasattr(seg, "nearest") for seg in curve.segments):
        br = np.asarray(curve.breaks)
        s = np.array([seg.nearest(ps) for seg in curve.segments])
        gaps = np.abs(np.array([seg.points(si) for seg, si in zip(curve.segments, s)]) - ps)
        i = np.argmin(gaps, axis=0)
        si = s[i, np.arange(len(ps))]
        t = np.where(si == 1.0, br[i + 1], br[i] + si * (br[i + 1] - br[i])) % 1.0
        return t, np.abs(curve.points(t) - ps)
    n = max(2048, 512 * len(curve.segments))
    ts = np.arange(n) / n
    i = np.argmin(np.abs(curve.grid(n)[:, None] - ps[None, :]), axis=0)
    tstar = golden_min(lambda q: np.abs(curve.points(q) - ps), ts[i] - 1.5 / n, ts[i] + 1.5 / n) % 1.0
    return tstar, np.abs(curve.points(tstar) - ps)


def classify_points(curve: JordanCurve, ps: Sequence[complex], band: float | None = None) -> list[PointLocation]:
    """Locate each of ps relative to the curve: on it (within ``band``), inside, or outside.

    Inside/outside is decided by the discrete winding number of the curve
    around each point, refined until every argument step is below pi/2.
    """
    band = curve.checked_band(band)
    ps = np.array([complex(p) for p in ps], dtype=complex)
    return [_locate(curve, complex(p), float(t), d, band) for p, t, d in zip(ps, *nearest_parameter(curve, ps))]


def classify_point(curve: JordanCurve, p: complex, band: float | None = None) -> PointLocation:
    """Locate one point relative to the curve; see :func:`classify_points`."""
    return classify_points(curve, [p], band)[0]


def _locate(curve: JordanCurve, p: complex, tstar: float, dist: float, band: float) -> PointLocation:
    if dist < band:
        return PointLocation("on-curve", tstar)
    try:
        turns, _, _ = adaptive_winding(lambda ts: curve.points(ts) - p, coarse=curve.grid(1024) - p)
    except WindingNotResolved as exc:
        raise AmbiguousClassification(f"winding around {p} did not converge: {exc}") from exc
    w = round(turns)
    if abs(turns - w) > 0.01 or w not in (0, 1):
        raise AmbiguousClassification(f"winding around {p} is {turns:.6f}")
    return PointLocation("inside" if w == 1 else "outside")


def interior_angle(curve: JordanCurve, t: float, snap_tol: float = 1e-7) -> float:
    """Interior angle at parameter t: pi at smooth points, the corner angle at corners."""
    t = float(t) % 1.0
    for c in curve.corners:
        gap = abs(t - c.parameter)
        if min(gap, 1.0 - gap) < snap_tol:
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


def default_epsilon_schedule(curve: JordanCurve, zeros: Sequence[complex], k_max: int = 20) -> tuple[float, ...]:
    """Geometric radius schedule 0.2 * 2^-k * (min of pairwise zero distances and curve diameter)."""
    zs = [complex(z) for z in zeros]
    dists = [abs(a - b) for i, a in enumerate(zs) for b in zs[i + 1 :]]
    scale = min(dists + [curve.diameter])
    return tuple(0.2 * scale * 0.5**k for k in range(k_max + 1))


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

    intervals = []
    for tj, zj in marks:
        g = np.abs(pts - zj) - eps
        sgn = np.sign(g)
        flips = np.nonzero(sgn * np.roll(sgn, -1) < 0)[0]
        if len(flips) != 2:
            return None

        def gfn(q, _z=zj):
            return np.abs(curve.points(q) - _z) - eps

        roots = bisect_zero(gfn, ts[flips], ts[flips] + 1.0 / n)
        u, v = float(roots[0]) % 1.0, float(roots[1]) % 1.0
        if not _forward_gap(u, tj % 1.0) <= _forward_gap(u, v):
            u, v = v, u
        mid = (u + 0.5 * _forward_gap(u, v)) % 1.0
        if float(gfn(np.array([mid]))[0]) >= 0.0:
            return None
        intervals.append((u, v, zj))

    intervals.sort(key=lambda iv: iv[0])

    arcs = []
    for idx, (u, v, zj) in enumerate(intervals):
        th_a = float(np.angle(curve.point(u) - zj))
        th_b = float(np.angle(curve.point(v) - zj))
        sweep_ccw = (th_b - th_a) % TWO_PI
        for sweep in (sweep_ccw, sweep_ccw - TWO_PI):
            if abs(sweep) >= 1e-9:
                midpt = zj + eps * np.exp(1j * (th_a + 0.5 * sweep))
                arcs.append((idx, ArcSegment(zj, eps, th_a, th_a + sweep), midpt))
    try:
        locs = classify_points(curve, [midpt for _, _, midpt in arcs], band)
    except AmbiguousClassification:
        return None

    segs: list[Segment] = []
    spans: list[float] = []
    for idx, (u, v, zj) in enumerate(intervals):
        chosen = [arc for (i, arc, _), loc in zip(arcs, locs) if i == idx and loc.kind == "outside"]
        if len(chosen) != 1:
            return None
        segs.append(chosen[0])
        spans.append(abs(chosen[0].angle1 - chosen[0].angle0))

        next_u = intervals[(idx + 1) % len(intervals)][0]
        gap = _forward_gap(v, next_u)
        if gap < 1e-9:
            return None
        segs.extend(_subsegment_span(curve, v, v + gap))

    try:
        composite = JordanCurve.from_segments(segs, auto_orient=False, check_simple=True, band=band)
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
    is closed, simple at sample resolution, positively oriented, and strictly
    encloses every listed point.  Raises DetourFailed when the schedule is
    exhausted.
    """
    band = curve.checked_band(band)
    zs = [complex(z) for z in zeros_on_curve]
    if not zs:
        return DetourCurve(curve, (), curve, ())

    marks = []
    for z, loc in zip(zs, classify_points(curve, zs, band)):
        if loc.kind != "on-curve":
            raise ValueError(f"{z} does not lie on the curve within band {band:.3g}")
        marks.append((loc.t, z))

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
