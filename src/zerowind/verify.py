"""End-to-end bound verification.

For a polynomial f, a positively oriented Jordan curve, and a line L through
the origin, the number of distinct curve points mapped into L is at least
2m + lam, where m and lam count the zeros of f inside and on the curve with
multiplicity.  On piecewise-smooth curves each on-curve zero contributes
ceil(lam_j * alpha_j / pi) instead, with alpha_j the interior angle at the
zero (pi at smooth points, so the smooth bound is recovered).  This module
measures both sides and reports whether the bound holds, verifies the detour
construction that moves boundary zeros inside, and applies the machinery to
zero counts of cosine sums.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._numeric import TWO_PI
from .crossings import CrossingConfig, Line, count_preimages
from .curves import DetourCurve, JordanCurve, build_detour, interior_angle, unit_circle
from .errors import BoundaryCoefficientZero, SelfCheckFailed
from .polynomials import Polynomial, ZeroReport, classify_roots, winding_count

# ceil() guard against ratios like 0.5 or 1.0 computed a few ulps high
_CEIL_GUARD = 1e-9


def guarded_ceil(x: float) -> int:
    return int(math.ceil(x - _CEIL_GUARD))


@dataclass(frozen=True)
class CornerTerm:
    """One on-curve zero's contribution to the piecewise bound."""

    multiplicity: int
    interior_angle: float
    ceil_term: int


@dataclass(frozen=True)
class BoundReport:
    """Measured distinct line preimages against the lower bound they must satisfy."""

    measured: int
    bound: int
    m: int
    lam: int
    per_corner: tuple[CornerTerm, ...]
    holds: bool
    instance: dict

    def to_json(self) -> dict:
        return {
            "measured": self.measured,
            "bound": self.bound,
            "m": self.m,
            "lambda": self.lam,
            "per_corner": [
                {"multiplicity": c.multiplicity, "interior_angle": c.interior_angle, "ceil_term": c.ceil_term}
                for c in self.per_corner
            ],
            "holds": self.holds,
            "instance": self.instance,
        }


def _instance_descriptor(f: Polynomial, curve: JordanCurve, line: Line) -> dict:
    return {"polynomial": f.to_json(), "curve": curve.to_json(), "line": line.to_json()}


def _classify(f: Polynomial, curve: JordanCurve, cfg: CrossingConfig) -> ZeroReport:
    return classify_roots(f, curve, band=cfg.band, root_tol=cfg.root_tol)


def verify_main(f: Polynomial, curve: JordanCurve, line: Line, cfg: CrossingConfig | None = None) -> BoundReport:
    """Check measured >= 2m + lam on a smooth curve, where every interior angle is pi."""
    if curve.corners:
        raise ValueError("curve has corners; use verify_piecewise")
    return verify_piecewise(f, curve, line, cfg)


def verify_piecewise(f: Polynomial, curve: JordanCurve, line: Line, cfg: CrossingConfig | None = None) -> BoundReport:
    """Check measured >= 2m + sum ceil(lam_j * alpha_j / pi) on a piecewise-smooth curve."""
    cfg = cfg if cfg is not None else CrossingConfig()
    report = _classify(f, curve, cfg)
    per_corner = []
    for root, t in zip(report.on_curve.roots, report.on_curve_params):
        alpha = interior_angle(curve, t)
        per_corner.append(CornerTerm(root.multiplicity, alpha, guarded_ceil(root.multiplicity * alpha / np.pi)))
    bound = 2 * report.m + sum(c.ceil_term for c in per_corner)
    measured = count_preimages(f, curve, line, replace(cfg, on_curve_params=report.on_curve_params)).count
    return BoundReport(
        measured=measured,
        bound=bound,
        m=report.m,
        lam=report.lam,
        per_corner=tuple(per_corner),
        holds=measured >= bound,
        instance=_instance_descriptor(f, curve, line),
    )


@dataclass(frozen=True)
class DetourReport:
    """Outcome of rerouting the curve around its on-curve zeros.

    With every boundary zero moved inside, the winding count along the
    composite must equal m + lam and the composite must carry at least
    2*(m + lam) distinct line preimages.
    """

    epsilon: float
    m: int
    lam: int
    winding: int
    preimage_count: int
    arc_spans: tuple[float, ...]
    holds: bool
    instance: dict

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "m": self.m,
            "lambda": self.lam,
            "winding": self.winding,
            "preimage_count": self.preimage_count,
            "arc_spans": list(self.arc_spans),
            "holds": self.holds,
            "instance": self.instance,
        }


def verify_detour(
    f: Polynomial,
    curve: JordanCurve,
    line: Line,
    eps_schedule=None,
    cfg: CrossingConfig | None = None,
) -> tuple[DetourReport, DetourCurve]:
    """Build the detour around f's on-curve zeros and verify counts along it."""
    cfg = cfg if cfg is not None else CrossingConfig()
    report = _classify(f, curve, cfg)
    if report.lam < 1:
        raise ValueError("f has no zeros on the curve; the detour adds nothing")
    detour = build_detour(curve, report.on_curve.locations(), eps_schedule, band=cfg.band)
    w = winding_count(f, detour.composite, band=cfg.band)
    preimages = count_preimages(f, detour.composite, line, replace(cfg, on_curve_params=()))
    target = report.m + report.lam
    holds = (w == target) and (preimages.count >= 2 * target)
    rep = DetourReport(
        epsilon=detour.excised[0][1] if detour.excised else 0.0,
        m=report.m,
        lam=report.lam,
        winding=w,
        preimage_count=preimages.count,
        arc_spans=detour.arc_spans,
        holds=holds,
        instance=_instance_descriptor(f, curve, line),
    )
    return rep, detour


# ---------------------------------------------------------------------------
# coefficient reversal and cosine sums


def reverse_poly(f: Polynomial) -> Polynomial:
    """g(z) = z^n f(1/z): the coefficient sequence reversed; roots become reciprocals."""
    if f.coeffs[0] == 0:
        raise BoundaryCoefficientZero("constant coefficient is zero")
    if f.degree == 0:
        raise BoundaryCoefficientZero("reversal needs degree >= 1")
    return Polynomial(f.coeffs[::-1])


def _as_real_coeffs(a) -> tuple[float, ...]:
    coeffs = []
    for i, c in enumerate(a):
        z = complex(c)
        if z.imag != 0.0:
            raise ValueError(f"coefficient {i} is not real: {c!r}")
        coeffs.append(z.real)
    if len(coeffs) < 2:
        raise ValueError("need at least two coefficients")
    if coeffs[0] == 0.0 or coeffs[-1] == 0.0:
        raise BoundaryCoefficientZero("first and last coefficients must be nonzero")
    return tuple(coeffs)


# even, so that the grid is symmetric about t = pi and the scan can mirror
_SCAN_SAMPLES = 262144


@functools.cache
def _half_grid_cos() -> np.ndarray:
    """x_k = cos(t_k) at t_k = 2*pi*k/N for k = 0..N/2, built on first use and read-only."""
    x = np.cos(np.arange(_SCAN_SAMPLES // 2 + 1) * (TWO_PI / _SCAN_SAMPLES))
    x.flags.writeable = False
    return x


def _direct_cosine_zero_count(coeffs) -> int:
    """Distinct zeros of sum_j c_j cos(j t) on [0, 2*pi) by direct 1-D scanning.

    Independent of the curve/preimage machinery.  The sum is evaluated on the
    grid t_k = 2*pi*k/N as the Chebyshev series sum_j c_j T_j(cos t_k) by
    Clenshaw's three-term recurrence, on the half grid k = 0..N/2 only; it is
    even in t, so vals[N-k] = vals[k] mirrors it onto the full grid.  The
    coefficients are first multiplied by an exact power of two that brings
    max|c_j| into [0.5, 1), so no intermediate of the recurrence overflows
    and the count does not depend on the coefficients' scale.

    Zeros are counted as maximal cyclic runs of samples that either sit in a
    sign change or dip under a resolution-scaled band.  The band covers the
    worst sampled minimum of an order-2 touch at this resolution, and flat
    higher-order zeros dip even deeper, so every zero produces one run.
    """
    c = np.asarray(coeffs, dtype=float)
    c = np.ldexp(c, -np.frexp(np.max(np.abs(c)))[1])
    x = _half_grid_cos()
    # b_j = c_j + 2 x b_{j+1} - b_{j+2}, from j = n down to 1, in three buffers
    b1, b2, tmp = np.zeros_like(x), np.zeros_like(x), np.empty_like(x)
    for cj in c[:0:-1]:
        np.multiply(x, b1, out=tmp)
        tmp += tmp
        tmp -= b2
        tmp += cj
        b1, b2, tmp = tmp, b1, b2
    np.multiply(x, b1, out=tmp)
    tmp -= b2
    tmp += c[0]
    vals = np.empty(_SCAN_SAMPLES)
    vals[: len(x)] = tmp
    vals[len(x) :] = tmp[-2:0:-1]  # vals[N-k] = vals[k]

    pos = vals > 0
    neg = vals < 0
    np.abs(vals, out=vals)
    scale = float(vals.max())
    if scale == 0.0:
        raise ValueError("cosine sum vanishes identically at scan resolution")

    n = len(c) - 1
    dip_band = max(4.0 * (n * TWO_PI / _SCAN_SAMPLES) ** 2, 1e3 * np.finfo(float).eps)
    mark = vals < dip_band * scale
    # flip[k]: strict sign change between samples k and k+1, cyclically; the
    # wrap pair is read before pos is overwritten
    flip = np.empty_like(mark)
    flip[-1] = (neg[-1] and pos[0]) or (pos[-1] and neg[0])
    np.logical_and(neg[:-1], pos[1:], out=flip[:-1])
    pos[:-1] &= neg[1:]
    flip[:-1] |= pos[:-1]
    mark |= flip
    mark[1:] |= flip[:-1]
    mark[0] |= flip[-1]
    if mark.all():
        return 1
    if not mark.any():
        return 0
    # one run per marked sample whose predecessor is unmarked
    return int(np.count_nonzero(mark[1:] > mark[:-1])) + int(mark[0] and not mark[-1])


def _checked_trig_count(coeffs: tuple[float, ...], circle_curve: JordanCurve, cfg: CrossingConfig | None) -> int:
    """Imaginary-axis preimages of the coefficients' polynomial, cross-checked by the direct scan."""
    count = count_preimages(Polynomial(coeffs), circle_curve, Line.imag_axis(), cfg).count
    direct = _direct_cosine_zero_count(coeffs)
    if direct != count:
        raise SelfCheckFailed(f"preimage count {count} disagrees with direct cosine-sum count {direct}")
    return count


def trig_zero_count(a, which: str = "P", cfg: CrossingConfig | None = None) -> int:
    """Distinct zeros on [0, 2*pi) of the cosine sum built from coefficients a.

    ``which`` selects the coefficient order: "P" uses a as given, "Q" reversed.
    The count comes from line-preimage counting of the matching polynomial
    against the imaginary axis on the unit circle (the cosine sum is the real
    part of the polynomial there), then is cross-checked against a direct 1-D
    zero count of the sum itself.
    """
    coeffs = _as_real_coeffs(a)
    if which not in ("P", "Q"):
        raise ValueError("which must be 'P' or 'Q'")
    return _checked_trig_count(coeffs if which == "P" else coeffs[::-1], unit_circle(), cfg)


@dataclass(frozen=True)
class TrigReport:
    """Zero counts of the paired cosine sums against their combined lower bound 2n."""

    coeffs: tuple[float, ...]
    z_p: int
    z_q: int
    m_f: int
    m_g: int
    lam: int
    identity_holds: bool  # m_f + m_g + lam == n
    bound_holds: bool  # z_p + z_q >= 2n

    def to_json(self) -> dict:
        return {
            "coeffs": list(self.coeffs),
            "Z_P": self.z_p,
            "Z_Q": self.z_q,
            "m_f": self.m_f,
            "m_g": self.m_g,
            "lambda": self.lam,
            "identity_holds": self.identity_holds,
            "bound_holds": self.bound_holds,
        }


def verify_trig(a, cfg: CrossingConfig | None = None) -> TrigReport:
    """Count zeros of both cosine sums and check the degree identity and the 2n bound.

    Also verifies that the on-circle zeros of the polynomial reappear
    conjugated, with equal multiplicities, among the zeros of its reversal.
    """
    cfg = cfg if cfg is not None else CrossingConfig()
    coeffs = _as_real_coeffs(a)
    n = len(coeffs) - 1
    f = Polynomial(coeffs)
    g = reverse_poly(f)
    circle_curve = unit_circle()
    zf = _classify(f, circle_curve, cfg)
    zg = _classify(g, circle_curve, cfg)

    remaining = list(zg.on_curve.roots)
    for root in zf.on_curve.roots:
        target = root.location.conjugate()
        match = next(
            (r for r in remaining if abs(r.location - target) < 1e-6 and r.multiplicity == root.multiplicity),
            None,
        )
        if match is None:
            raise SelfCheckFailed(f"no conjugate partner among reversed-polynomial zeros for {root.location}")
        remaining.remove(match)
    if remaining:
        raise SelfCheckFailed("reversed polynomial has unmatched on-circle zeros")

    z_p = _checked_trig_count(coeffs, circle_curve, replace(cfg, on_curve_params=zf.on_curve_params))
    z_q = _checked_trig_count(coeffs[::-1], circle_curve, replace(cfg, on_curve_params=zg.on_curve_params))
    return TrigReport(
        coeffs=coeffs,
        z_p=z_p,
        z_q=z_q,
        m_f=zf.m,
        m_g=zg.m,
        lam=zf.lam,
        identity_holds=(zf.m + zg.m + zf.lam == n),
        bound_holds=(z_p + z_q >= 2 * n),
    )
