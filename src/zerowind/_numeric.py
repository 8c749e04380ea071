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


def _same_bits(a, b) -> bool:
    """True when two arrays hold the same float bit patterns (so -0.0 differs from 0.0 and NaN equals itself)."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def golden_min(fn, lo, hi):
    """Vectorized golden-section minimization of ``fn`` over [lo, hi], elementwise (at most 80 steps).

    ``fn`` must be pure and elementwise: each output element depends only on
    the input element at the same place, and broadcasting it over a leading
    axis gives the same bits.  Each step then calls ``fn`` once, on both probe
    points stacked as ``np.stack([c, d])`` of shape ``(2,) + lo.shape``, and
    gets what two calls on ``c`` and ``d`` would give.

    Stops early once a step leaves (lo, hi) bit for bit unchanged: every
    later step would repeat it, and the result equals that of all 80 steps.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    for _ in range(80):
        gap = hi - lo
        c = hi - _INV_GOLD * gap
        d = lo + _INV_GOLD * gap
        fc, fd = np.asarray(fn(np.stack([c, d])))
        keep_low = fc < fd
        new_hi = np.where(keep_low, d, hi)
        new_lo = np.where(keep_low, lo, c)
        if _same_bits(new_lo, lo) and _same_bits(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


def bisect_zero(fn, lo, hi, iters=52):
    """Vectorized bisection; fn must change sign on each [lo, hi] interval.

    Stops early, with the result of all ``iters`` steps, once a step leaves
    (lo, hi, fn(lo)) bit for bit unchanged.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    flo = np.asarray(fn(lo), dtype=float)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = np.asarray(fn(mid), dtype=float)
        same = (np.sign(fm) == np.sign(flo)) & (fm != 0.0)
        new_lo = np.where(same, mid, lo)
        new_flo = np.where(same, fm, flo)
        new_hi = np.where(same, hi, mid)
        if _same_bits(new_lo, lo) and _same_bits(new_hi, hi) and _same_bits(new_flo, flo):
            break
        lo, hi, flo = new_lo, new_hi, new_flo
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


def trig_series(coeffs_x, coeffs_y, theta):
    """Evaluate x + i y with x, y = c0 + sum_k (a_k cos(k t) + b_k sin(k t)).

    Coefficients are packed flat as [c0, a1, b1, a2, b2, ...]; a trailing sine
    coefficient may be omitted.  cos(k t) and sin(k t) are computed once per
    harmonic and shared by both series; each series adds its terms in the
    packed order, so it is the same float as the series evaluated alone.
    """
    theta = np.asarray(theta, dtype=float)
    x = np.full(theta.shape, float(coeffs_x[0]))
    y = np.full(theta.shape, float(coeffs_y[0]))
    for k in range(1, max(len(coeffs_x), len(coeffs_y)) // 2 + 1):
        kt = k * theta
        cos_kt, sin_kt = np.cos(kt), np.sin(kt)
        x = _add_harmonic(x, coeffs_x, k, cos_kt, sin_kt)
        y = _add_harmonic(y, coeffs_y, k, cos_kt, sin_kt)
    return x + 1j * y


def _add_harmonic(out, coeffs, k, cos_kt, sin_kt):
    """``out`` plus harmonic k of one packed series, where the series has it."""
    if 2 * k - 1 < len(coeffs):
        out = out + coeffs[2 * k - 1] * cos_kt
    if 2 * k < len(coeffs):
        out = out + coeffs[2 * k] * sin_kt
    return out


def trig_series_deriv(coeffs_x, coeffs_y, theta):
    """Derivative of :func:`trig_series` with respect to the series variable."""
    theta = np.asarray(theta, dtype=float)
    x = np.zeros(theta.shape)
    y = np.zeros(theta.shape)
    for k in range(1, max(len(coeffs_x), len(coeffs_y)) // 2 + 1):
        kt = k * theta
        cos_kt, sin_kt = np.cos(kt), np.sin(kt)
        x = _add_harmonic_deriv(x, coeffs_x, k, cos_kt, sin_kt)
        y = _add_harmonic_deriv(y, coeffs_y, k, cos_kt, sin_kt)
    return x + 1j * y


def _add_harmonic_deriv(out, coeffs, k, cos_kt, sin_kt):
    """``out`` plus the derivative of harmonic k of one packed series, where the series has it."""
    if 2 * k - 1 < len(coeffs):
        out = out - k * coeffs[2 * k - 1] * sin_kt
    if 2 * k < len(coeffs):
        out = out + k * coeffs[2 * k] * cos_kt
    return out
