"""Shared numeric helpers: angle bookkeeping, vectorized 1-D search, adaptive winding."""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi
_INV_GOLD = (np.sqrt(5.0) - 1.0) / 2.0


class WindingNotResolved(Exception):
    """Internal: argument steps stayed too large at maximum refinement depth."""


def wrap_angle(a):
    """Reduce angles to the principal branch (-pi, pi]."""
    a = np.asarray(a, dtype=float)
    return np.pi - (np.pi - a) % TWO_PI


def golden_min(fn, lo, hi):
    """Vectorized golden-section minimization of ``fn`` over [lo, hi], elementwise (80 steps)."""
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    for _ in range(80):
        gap = hi - lo
        c = hi - _INV_GOLD * gap
        d = lo + _INV_GOLD * gap
        keep_low = np.asarray(fn(c)) < np.asarray(fn(d))
        hi = np.where(keep_low, d, hi)
        lo = np.where(keep_low, lo, c)
    return 0.5 * (lo + hi)


def bisect_zero(fn, lo, hi, iters=52):
    """Vectorized bisection; fn must change sign on each [lo, hi] interval."""
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


def adaptive_winding(fn):
    """Total argument turns of the closed loop t -> fn(t), t in [0, 1).

    Intervals of a 1024-sample grid are split, for at most 24 passes, until
    every argument step is below pi/2 and each chord is short relative to its
    endpoints' moduli (the chord test guards against phase aliasing).

    Returns (turns, parameters, values); raises WindingNotResolved when the
    loop passes through zero or the steps never settle.
    """
    ts = np.arange(1024, dtype=float) / 1024.0
    vals = np.asarray(fn(ts), dtype=complex)
    for _ in range(24):
        if np.any(vals == 0.0):
            raise WindingNotResolved("loop passes exactly through zero")
        nxt = np.roll(vals, -1)
        steps = np.angle(nxt / vals)
        chord = np.abs(nxt - vals)
        small = np.minimum(np.abs(nxt), np.abs(vals))
        bad = (np.abs(steps) >= 0.5 * np.pi) | (chord >= 0.9 * small)
        if not bad.any():
            return float(steps.sum() / TWO_PI), ts, vals
        gaps = np.concatenate([ts[1:], [ts[0] + 1.0]]) - ts
        mids = (ts[bad] + 0.5 * gaps[bad]) % 1.0
        mid_vals = np.asarray(fn(mids), dtype=complex)
        ts = np.concatenate([ts, mids])
        vals = np.concatenate([vals, mid_vals])
        order = np.argsort(ts, kind="stable")
        ts = ts[order]
        vals = vals[order]
    raise WindingNotResolved("argument steps did not settle below the limit")


def trig_series(coeffs, theta):
    """Evaluate c0 + sum_k (a_k cos(k t) + b_k sin(k t)).

    Coefficients are packed flat as [c0, a1, b1, a2, b2, ...]; a trailing sine
    coefficient may be omitted.
    """
    theta = np.asarray(theta, dtype=float)
    out = np.full(theta.shape, float(coeffs[0]))
    for k in range(1, len(coeffs) // 2 + 1):
        out = out + coeffs[2 * k - 1] * np.cos(k * theta)
        if 2 * k < len(coeffs):
            out = out + coeffs[2 * k] * np.sin(k * theta)
    return out


def trig_series_deriv(coeffs, theta):
    """Derivative of :func:`trig_series` with respect to the series variable."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(theta.shape)
    for k in range(1, len(coeffs) // 2 + 1):
        out = out - k * coeffs[2 * k - 1] * np.sin(k * theta)
        if 2 * k < len(coeffs):
            out = out + k * coeffs[2 * k] * np.cos(k * theta)
    return out
