"""Independent oracles used to derive expected values.

Everything here is deliberately naive and separate from the library's own
code paths: power-sum evaluation instead of Horner, binomial expansion by
combinatorics, brute-force dense scans instead of adaptive refinement, and
exact vector geometry for polygon angles.
"""

from __future__ import annotations

import math

import numpy as np

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
    """The direct cosine scan's rule with one np.cos per term: the reference for its recurrence.

    Same grid, dip band and run counting as ``zerowind.verify``'s scan, with
    the sum evaluated term by term, so the two must give the same count.
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
