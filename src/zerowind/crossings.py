"""Counting the distinct curve points whose polynomial image lands on a line through the origin.

For a line at angle phi the signed residual h(t) = Im(e^{-i phi} f(gamma(t)))
vanishes exactly where f(gamma(t)) belongs to the line.  Distinct zeros of h
are found three ways and merged: sign-change brackets refined by bisection,
tangential touches recovered as deep local minima of |h|, and the on-curve
zeros of f themselves, which always map to the line because it passes through
the origin.  Counts are conservative: a reported point always carries a small
residual, while a missed tangency can only lower the count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._numeric import bisect_zero, golden_min
from .curves import JordanCurve
from .errors import ResolutionTooCoarse
from .polynomials import Polynomial, classify_roots, find_roots


@dataclass(frozen=True)
class Line:
    """Line through the origin: { r * exp(i*angle) : r real }, angle reduced mod pi."""

    angle: float

    def __post_init__(self):
        a = float(self.angle) % np.pi
        object.__setattr__(self, "angle", a)

    @classmethod
    def real_axis(cls) -> "Line":
        return cls(0.0)

    @classmethod
    def imag_axis(cls) -> "Line":
        return cls(np.pi / 2.0)

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


def line_residual(f: Polynomial, curve: JordanCurve, line: Line, t):
    """h(t) = Im(e^{-i angle} f(gamma(t))); zero exactly when f(gamma(t)) is on the line."""
    rot = np.exp(-1j * line.angle)
    vals = f(curve.points(t))
    out = np.imag(rot * np.asarray(vals, dtype=complex))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CrossingConfig:
    """Resolution and tolerances for preimage counting.

    ``param_tol`` is the bisection refinement tolerance in parameter units and
    fixes the clustering radius rho = cluster_factor * param_tol.  Candidates
    closer than rho, or separated only by a stretch where |h| never leaves the
    plateau band, describe the same geometric point and are merged.
    """

    samples: int = 4096
    max_samples: int = 1 << 22
    param_tol: float = 1e-9
    cluster_factor: float = 8.0
    contact_rel_tol: float = 1e-8
    dip_prefilter: float = 1e-3
    plateau_rel_band: float = 1e-12
    plateau_max_gap: float = 1e-2
    residual_rel_tol: float = 1e-4
    band: float | None = None
    root_tol: float = 1e-10
    on_curve_params: tuple[float, ...] | None = None

    def tightened(self, resolution_factor: int = 4, tol_factor: float = 0.1) -> "CrossingConfig":
        return replace(
            self,
            samples=self.samples * resolution_factor,
            param_tol=self.param_tol * tol_factor,
            contact_rel_tol=self.contact_rel_tol * tol_factor,
        )


@dataclass(frozen=True)
class PreimagePoint:
    t: float
    z: complex
    value: complex
    contact: str  # "transversal" | "tangential" | "zero-of-f"


@dataclass(frozen=True)
class PreimageSet:
    points: tuple[PreimagePoint, ...]

    @property
    def count(self) -> int:
        return len(self.points)

    def parameters(self) -> tuple[float, ...]:
        return tuple(p.t for p in self.points)

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "points": [
                {"t": p.t, "z": [p.z.real, p.z.imag], "value": [p.value.real, p.value.imag], "contact": p.contact}
                for p in self.points
            ],
        }


_KIND_ZERO = "zero-of-f"


def _detect(h, ts: np.ndarray, vals: np.ndarray, cfg: CrossingConfig) -> tuple[list[tuple[float, str]], float]:
    """Candidate zeros of h from its values ``vals`` on the grid ``ts = i / n``: brackets, exact hits, deep dips."""
    n = len(ts)
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        raise ValueError("the image of the curve lies entirely on the line")

    nxt = np.roll(vals, -1)
    flip = ((vals < 0) & (nxt > 0)) | ((vals > 0) & (nxt < 0))
    cands: list[tuple[float, str]] = []

    if flip.any():
        lo = ts[flip]
        roots = bisect_zero(h, lo, lo + 1.0 / n, iters=48)
        cands.extend((float(r) % 1.0, "transversal") for r in roots)

    for i in np.nonzero(vals == 0.0)[0]:
        a, b = vals[(i - 1) % n], vals[(i + 1) % n]
        kind = "transversal" if (a < 0 < b) or (b < 0 < a) else "tangential"
        cands.append((float(ts[i]), kind))

    mag = np.abs(vals)
    locmin = (mag <= np.roll(mag, 1)) & (mag <= np.roll(mag, -1)) & (mag > 0.0)
    # a dip adjacent to a sign change belongs to that crossing
    near_flip = flip | np.roll(flip, 1)
    dip_idx = np.nonzero(locmin & (mag < cfg.dip_prefilter * scale) & ~near_flip)[0]
    if dip_idx.size:
        lo = ts[dip_idx] - 1.0 / n
        hi = ts[dip_idx] + 1.0 / n
        tstar = np.asarray(golden_min(lambda q: np.abs(h(q)), lo, hi)) % 1.0
        hstar = np.abs(h(tstar))
        for t_, v_ in zip(np.atleast_1d(tstar), np.atleast_1d(hstar)):
            if v_ < cfg.contact_rel_tol * scale:
                cands.append((float(t_), "tangential"))
    return cands, scale


def _plateau_between(h, t0: float, t1: float, scale: float, cfg: CrossingConfig) -> bool:
    gap = (t1 - t0) % 1.0
    if gap > cfg.plateau_max_gap:
        return False
    qs = (t0 + np.linspace(0.0, gap, 96)) % 1.0
    return bool(np.max(np.abs(h(qs))) < cfg.plateau_rel_band * scale)


def _cluster(h, cands: list[tuple[float, str]], scale: float, cfg: CrossingConfig) -> list[tuple[float, str]]:
    """Merge candidates within rho, or joined by a plateau of |h|; pick one representative each."""
    if not cands:
        return []
    rho = cfg.cluster_factor * cfg.param_tol
    items = sorted((t % 1.0, kind) for t, kind in cands)
    groups: list[list[tuple[float, str]]] = [[items[0]]]
    for t, kind in items[1:]:
        prev_t = groups[-1][-1][0]
        if (t - prev_t) <= rho or _plateau_between(h, prev_t, t, scale, cfg):
            groups[-1].append((t, kind))
        else:
            groups.append([(t, kind)])
    if len(groups) > 1:
        first_t = groups[0][0][0]
        last_t = groups[-1][-1][0]
        wrap_gap = (first_t - last_t) % 1.0
        if wrap_gap <= rho or _plateau_between(h, last_t, first_t, scale, cfg):
            groups[0] = groups.pop() + groups[0]

    out = []
    for group in groups:
        kinds = {k for _, k in group}
        zero_ts = [t for t, k in group if k == _KIND_ZERO]
        if "transversal" in kinds:
            label = "transversal"
        elif "tangential" in kinds:
            label = "tangential"
        else:
            label = _KIND_ZERO
        if zero_ts:
            rep = zero_ts[0]
        else:
            rep = next(t for t, k in group if k == label)
        out.append((rep, label))
    out.sort()
    return out


def count_preimages(f: Polynomial, curve: JordanCurve, line: Line, cfg: CrossingConfig | None = None) -> PreimageSet:
    """All distinct curve points mapped into the line by f.

    Scans are repeated at doubled resolution until the merged count is stable
    between two consecutive levels; persistent instability up to max_samples
    raises ResolutionTooCoarse.
    """
    cfg = cfg if cfg is not None else CrossingConfig()

    def h(ts):
        return line_residual(f, curve, line, ts)

    # Evaluation noise floor: Horner on coefficients of size B carries absolute
    # error O(u*B), which can exceed rel-tol * scale when the residual scale is
    # dominated by cancellation (e.g. high-order roots probed at tiny radii).
    r_max = float(np.max(np.abs(curve.points(np.arange(256) / 256.0))))
    coeff_bound = sum(abs(c) * max(1.0, r_max) ** k for k, c in enumerate(f.coeffs))
    noise_floor = 64.0 * np.finfo(float).eps * coeff_bound

    if cfg.on_curve_params is not None:
        injected = tuple(float(t) % 1.0 for t in cfg.on_curve_params)
    else:
        injected = classify_roots(f, curve, band=cfg.band, root_tol=cfg.root_tol).on_curve_params

    n = cfg.samples
    ts = np.arange(n, dtype=float) / n
    vals = np.asarray(h(ts), dtype=float)
    prev = None
    while True:
        cands, scale = _detect(h, ts, vals, cfg)
        cands.extend((t, _KIND_ZERO) for t in injected)
        merged = _cluster(h, cands, scale, cfg)
        if prev is not None and len(merged) == prev:
            break
        prev = len(merged)
        if n >= cfg.max_samples:
            raise ResolutionTooCoarse(f"zero count still unstable at {n} samples")
        # the doubled grid's even points 2i / 2n are the floats i / n, so
        # their residuals are kept and only the odd points are evaluated
        n *= 2
        ts = np.arange(n, dtype=float) / n
        finer = np.empty(n)
        finer[0::2] = vals
        finer[1::2] = np.asarray(h(ts[1::2]), dtype=float)
        vals = finer

    points = []
    rot = np.exp(-1j * line.angle)
    residual_cap = max(cfg.residual_rel_tol * scale, noise_floor)
    for t, kind in merged:
        z = curve.point(t)
        value = f(z)
        if abs(float(np.imag(rot * value))) > residual_cap:
            continue  # phantom: the refined point does not actually touch the line
        points.append(PreimagePoint(float(t), complex(z), complex(value), kind))
    return PreimageSet(tuple(points))


def _isolated_root(f: Polynomial, zero: complex, eps: float, root_tol: float, what: str, center=None):
    """The root of f at ``zero`` and f's other roots, none within eps of ``center``.

    ``center`` defaults to the located root; pass ``zero`` when the circle is
    drawn around the given point instead.
    """
    roots = find_roots(f, tol=root_tol).roots
    root = min(roots, key=lambda r: abs(r.location - zero))
    if abs(root.location - zero) > 1e-6:
        raise ValueError(f"{zero} is not a root of f (nearest root {abs(root.location - zero):.3g} away)")
    center = root.location if center is None else center
    others = [r for r in roots if r is not root]
    for r in others:
        if abs(r.location - center) <= eps:
            raise ValueError(f"{what} {eps} does not exclude the root at {r.location}")
    return root, others


def count_disc_preimages(
    f: Polynomial,
    zero: complex,
    multiplicity: int,
    eps: float,
    line: Line,
    cfg: CrossingConfig | None = None,
) -> int:
    """Preimage count of the line on the circle of radius eps around a root of f.

    For small eps this equals twice the root's multiplicity.  The disc must
    exclude every other root.
    """
    from .curves import circle  # local import to keep module load light

    cfg = cfg if cfg is not None else CrossingConfig()
    zero = complex(zero)
    root, _ = _isolated_root(f, zero, eps, cfg.root_tol, "disc of radius", center=zero)
    if root.multiplicity != int(multiplicity):
        raise ValueError(f"root at {zero} has multiplicity {root.multiplicity}, not {multiplicity}")
    return count_preimages(f, circle(zero, eps), line, replace(cfg, on_curve_params=())).count


def arg_derivative_probe(
    f: Polynomial,
    zero: complex,
    eps: float,
    theta_samples: int = 1024,
    root_tol: float = 1e-10,
) -> tuple[float, float]:
    """Finite-difference estimate of d(arg f)/dtheta on the circle zero + eps*e^{i theta}.

    Returns (mean, max deviation from the root's multiplicity).  The argument
    is accumulated factorwise from the root decomposition of f, which stays
    accurate arbitrarily close to the probed root; the probed factor
    contributes exactly its multiplicity times theta.
    """
    zero = complex(zero)
    eps = float(eps)
    if eps <= 0.0:
        raise ValueError("probe radius must be positive")
    root, others = _isolated_root(f, zero, eps, root_tol, "probe radius")
    center, mult = root.location, root.multiplicity

    n = int(theta_samples)
    if n < 8:
        raise ValueError("need at least eight angular samples")
    dtheta = 2.0 * np.pi / n
    theta = np.arange(n + 2, dtype=float) * dtheta  # two extra points to close the central differences
    psi = mult * theta
    w = eps * np.exp(1j * theta)
    for r in others:
        psi = psi + r.multiplicity * np.unwrap(np.angle((center - r.location) + w))

    deriv = (psi[2:] - psi[:-2]) / (2.0 * dtheta)
    return float(np.mean(deriv)), float(np.max(np.abs(deriv - mult)))
