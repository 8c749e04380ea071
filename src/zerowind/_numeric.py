"""Shared numeric helpers: angle bookkeeping, vectorized 1-D search, adaptive winding."""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi
_INV_GOLD = (np.sqrt(5.0) - 1.0) / 2.0
# Steps read off one ``fn`` call in golden_min and bisect_zero.  A call on a
# handful of points costs mostly NumPy overhead, so a call that serves several
# steps saves most of it.  Deeper trees ran no faster on the benchmark's
# workloads and evaluate more probes that no step uses.
_GOLDEN_DEPTH = 3
_BISECT_DEPTH = 5


class WindingNotResolved(Exception):
    """Internal: argument steps stayed too large at maximum refinement depth."""


def wrap_angle(a):
    """Reduce angles to the principal branch (-pi, pi]."""
    a = np.asarray(a, dtype=float)
    return np.pi - (np.pi - a) % TWO_PI


def _same_bits(a, b) -> bool:
    """True when two arrays hold the same float bit patterns (so -0.0 differs from 0.0 and NaN equals itself)."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _columns(lo, hi):
    """Brackets as flat float columns: (lo, hi, their common shape, the column indices)."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    return lo.reshape(-1), hi.reshape(-1), lo.shape, np.arange(lo.size)


def golden_min(fn, lo, hi):
    """Vectorized golden-section minimization of ``fn`` over [lo, hi], elementwise (80 steps).

    Each call of ``fn`` serves ``_GOLDEN_DEPTH`` steps.  From the current
    bracket it builds the tree of brackets those steps can reach: a bracket's
    probes are c = hi - g (hi - lo) and d = lo + g (hi - lo), its children are
    [lo, d] and [c, hi], and level j of the tree holds 2^j brackets.  One call
    evaluates the probes of every bracket above the leaves, stacked on a
    leading axis, and the steps walk the tree by ``fn(c) < fn(d)``.  Every
    probe is the float a step-by-step search computes, so the result is bit
    for bit that of 80 steps with one ``fn`` call each.

    ``fn`` must be pure and elementwise: each output element depends only on
    the input element at the same place, and broadcasting it over a leading
    axis gives the same bits.

    Stops early once a step leaves (lo, hi) bit for bit unchanged: every
    later step would repeat it, and the result equals that of all 80 steps.
    """
    lo, hi, shape, cols = _columns(lo, hi)
    left = 80
    while left > 0:
        depth = min(_GOLDEN_DEPTH, left)
        left -= depth
        # bracket r of level j splits into bracket r ([lo, d]) and bracket r + 2^j ([c, hi]) of level j + 1
        los, his, cs, ds = [lo[np.newaxis]], [hi[np.newaxis]], [], []
        for j in range(depth):
            step = _INV_GOLD * (his[j] - los[j])
            cs.append(his[j] - step)
            ds.append(los[j] + step)
            if j + 1 < depth:
                los.append(np.concatenate([los[j], cs[j]]))
                his.append(np.concatenate([ds[j], his[j]]))
        probes = np.concatenate(cs + ds)
        inner = len(probes) // 2
        fcd = np.asarray(fn(probes.reshape((2 * inner,) + shape))).reshape(2 * inner, lo.size)
        # row (2^j - 1) + r holds bracket r of level j
        go_high = ~(fcd[:inner] < fcd[inner:])
        node = np.zeros(lo.size, dtype=np.intp)
        for j in range(depth - 1):
            node = node + go_high[(1 << j) - 1 + node, cols] * (1 << j)
        # the last step, as a step-by-step search takes it
        j = depth - 1
        keep_low = ~go_high[(1 << j) - 1 + node, cols]
        prev_lo, prev_hi = los[j][node, cols], his[j][node, cols]
        lo = np.where(keep_low, prev_lo, cs[j][node, cols])
        hi = np.where(keep_low, ds[j][node, cols], prev_hi)
        if _same_bits(lo, prev_lo) and _same_bits(hi, prev_hi):
            break
    return 0.5 * (lo.reshape(shape) + hi.reshape(shape))


def bisect_zero(fn, lo, hi, iters=52):
    """Vectorized bisection; fn must change sign on each [lo, hi] interval.

    Each call of ``fn`` serves ``_BISECT_DEPTH`` steps.  The bracket's dyadic
    grid is built level by level, each new point ``0.5 * (a + b)`` of its two
    neighbours, the operands a step-by-step bisection uses; one call
    evaluates ``fn`` on the grid's inner points, stacked on a leading axis,
    and the steps walk the grid.  ``fn(lo)`` only ever gives way to values
    of its own sign, so a step keeps the right half exactly where
    ``sign(fn(mid)) == sign(fn(lo_0))`` and ``fn(mid) != 0``.  The result is
    bit for bit that of ``iters`` steps with one ``fn`` call each.

    ``fn`` must be pure and elementwise, as for :func:`golden_min`.

    Stops early, with the result of all ``iters`` steps, once a step leaves
    (lo, hi, fn(lo)) bit for bit unchanged.
    """
    lo, hi, shape, cols = _columns(lo, hi)
    flo = np.asarray(fn(lo.reshape(shape)), dtype=float).reshape(lo.size)
    sign0 = np.sign(flo)
    left = iters
    while left > 0:
        depth = min(_BISECT_DEPTH, left)
        left -= depth
        n = 1 << depth
        grid = np.empty((n + 1, lo.size))
        grid[0], grid[n] = lo, hi
        for w in (n >> j for j in range(depth)):
            grid[w // 2 :: w] = 0.5 * (grid[:-1:w] + grid[w::w])
        vals = np.empty((n, lo.size))
        vals[0] = flo
        vals[1:] = np.asarray(fn(grid[1:n].reshape((n - 1,) + shape)), dtype=float).reshape(n - 1, lo.size)
        same = (np.sign(vals) == sign0) & (vals != 0.0)
        # from [grid[a], grid[a + 2w]] a step moves to the right half where same[a + w]
        a = np.zeros(lo.size, dtype=np.intp)
        for w in (n >> j for j in range(1, depth)):
            a = a + same[a + w, cols] * w
        # the last step, as a step-by-step bisection takes it
        mid, keep_right = grid[a + 1, cols], same[a + 1, cols]
        prev_lo, prev_hi, prev_flo = grid[a, cols], grid[a + 2, cols], vals[a, cols]
        lo = np.where(keep_right, mid, prev_lo)
        flo = np.where(keep_right, vals[a + 1, cols], prev_flo)
        hi = np.where(keep_right, prev_hi, mid)
        if _same_bits(lo, prev_lo) and _same_bits(hi, prev_hi) and _same_bits(flo, prev_flo):
            break
    return 0.5 * (lo.reshape(shape) + hi.reshape(shape))


def adaptive_winding(fn, coarse):
    """Total argument turns of the closed loop t -> fn(t), t in [0, 1).

    ``coarse`` holds the loop's values on the grid t = i / 1024, which the
    caller usually has already.  Intervals of that grid are split, for at
    most 24 passes, until every argument step is below pi/2 and each chord is
    short relative to its endpoints' moduli (the chord test guards against
    phase aliasing); ``fn`` gives the values at the new midpoints.

    Returns (turns, parameters, values); raises WindingNotResolved when the
    loop passes through zero or the steps never settle.
    """
    ts = np.arange(1024, dtype=float) / 1024.0
    vals = np.asarray(coarse, dtype=complex)
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


def trig_series(c0, pos, neg, theta):
    """The Laurent polynomial c0 + sum_k (pos[k-1] w^k + neg[k-1] conj(w)^k) at w = exp(i theta).

    A cosine/sine series is a Laurent polynomial in w (Boyd, J. Eng. Math. 56,
    2006), so one complex exp and two Horner passes evaluate it.  ``pos`` and
    ``neg`` hold c_1 .. c_K and c_-1 .. c_-K, both of length K >= 1.
    """
    w = np.exp(1j * np.asarray(theta, dtype=float))
    return c0 + _horner(pos, w) + _horner(neg, np.conj(w))


def trig_series_deriv(pos, neg, theta):
    """d/dtheta of :func:`trig_series`, i (sum_k k c_k w^k - sum_k k c_-k conj(w)^k).

    ``pos`` and ``neg`` hold the derivative's own coefficients, i k c_k and
    -i k c_-k.
    """
    w = np.exp(1j * np.asarray(theta, dtype=float))
    return _horner(pos, w) + _horner(neg, np.conj(w))


def _horner(coeffs, w):
    """sum_k coeffs[k-1] w^k, k = 1 .. len(coeffs), by Horner's rule."""
    p = coeffs[-1]
    for c in coeffs[-2::-1]:
        p = p * w + c
    return p * w
