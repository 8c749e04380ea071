"""Shared numeric helpers: angle bookkeeping, vectorized 1-D search, adaptive winding."""

from __future__ import annotations

import math

import numpy as np

from .errors import NoConvergence

TWO_PI = 2.0 * np.pi
_INV_GOLD = (np.sqrt(5.0) - 1.0) / 2.0
# Steps read off one ``fn`` call in golden_min, and the least that one call
# serves in bisect_zero, which also follows a predicted path below them.  A
# call on a handful of points costs mostly NumPy overhead, so a call that
# serves several steps saves most of it.  Deeper trees ran no faster on the
# benchmark's workloads and evaluate more probes that no step uses.
_GOLDEN_DEPTH = 3
_BISECT_DEPTH = 5


class WindingNotResolved(Exception):
    """Internal: argument steps stayed too large at maximum refinement depth."""


def polynomial_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of the polynomial with the ascending coefficients ``coeffs``: ``np.roots(coeffs[::-1])``, bit for bit.

    The roots are the eigenvalues of the companion matrix (Edelman and
    Murakami, Math. Comp. 64, 1995), built as np.roots builds it: leading and
    trailing zero coefficients are stripped, row 0 is -p[1:] / p[0] over the
    descending p that is left, the subdiagonal holds ones, and each stripped
    trailing zero is a root 0 appended at the end.  Only np.roots' generic
    array handling is skipped, a third or more of its call at degree 4 and
    below.  Raises NoConvergence where the eigenproblem fails, as it does on
    a coefficient that is inf or NaN.
    """
    p = coeffs[::-1]
    nonzero = p.nonzero()[0]
    if not nonzero.size:
        return np.array([])
    trailing = len(p) - 1 - nonzero[-1]
    p = p[nonzero[0] : nonzero[-1] + 1]
    if p.dtype.kind not in "fc":
        p = p.astype(float)
    n = len(p) - 1
    if n:
        a = np.zeros((n, n), dtype=p.dtype)
        a[0] = -p[1:] / p[0]
        a.flat[n :: n + 1] = 1
        try:
            roots = np.linalg.eigvals(a)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"companion eigenproblem failed: {exc}") from exc
    else:
        roots = np.array([])
    return np.concatenate((roots, np.zeros(trailing, roots.dtype))) if trailing else roots


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

    The result is bit for bit that of ``iters`` steps with one ``fn`` call
    each.  Every probe is the float ``0.5 * (a + b)`` of the bracket [a, b]
    that a step-by-step bisection holds there, and ``fn(lo)`` only ever gives
    way to values of its own sign, so a step keeps the right half exactly
    where ``sign(fn(mid)) == sign(fn(lo_0))`` and ``fn(mid) != 0``.

    The first call evaluates both ends of every bracket.  Each later call
    evaluates, for every bracket still going:
    - the dyadic grid of its next ``_BISECT_DEPTH`` steps, each point the
      midpoint of its two neighbours, so that every call serves at least
      that many steps;
    - below the grid cell that holds the secant (regula falsi) root of
      fn(lo) and fn(hi), the midpoints that bisection visits if the root
      lies where the secant puts it.
    The steps walk the grid, then that predicted path while the signs agree
    with it.  The first step that disagrees takes the side its sign gives,
    and the next call starts from there.  The prediction only chooses which
    probes to evaluate, never a step, so it cannot change the result.

    ``fn`` must be pure and elementwise, as for :func:`golden_min`; the
    probes of all brackets go to it stacked on a leading axis.

    A bracket stops early, with the result of all ``iters`` steps, once its
    midpoint equals one of its ends.
    """
    lo, hi, shape, _ = _columns(lo, hi)
    ends = np.asarray(fn(np.stack([lo, hi]).reshape((2,) + shape)), dtype=float).reshape(2, lo.size)
    brackets = [_Bracket(*col, iters) for col in zip(lo.tolist(), hi.tolist(), *ends.tolist())]
    while any(b.left for b in brackets):
        probes = [b.probes() if b.left else [b.lo] for b in brackets]
        width = max(map(len, probes))
        # a short list is padded with its last probe; no step reads the padding's values
        table = np.array([p + p[-1:] * (width - len(p)) for p in probes]).T
        vals = np.asarray(fn(table.reshape((width,) + shape)), dtype=float).reshape(width, lo.size)
        for b, v in zip(brackets, vals.T.tolist()):
            if b.left:
                b.walk(v)
    lo = np.array([b.lo for b in brackets], dtype=float).reshape(shape)
    hi = np.array([b.hi for b in brackets], dtype=float).reshape(shape)
    return 0.5 * (lo + hi)


class _Bracket:
    """One bracket of :func:`bisect_zero`: its ends, fn at both, and the steps it has left."""

    def __init__(self, lo, hi, flo, fhi, steps):
        self.lo, self.hi, self.flo, self.fhi = lo, hi, flo, fhi
        # lo moves to a midpoint exactly where sign * fn(mid) > 0; a zero or NaN fn(lo) never moves it
        self.sign = 1.0 if flo > 0.0 else -1.0 if flo < 0.0 else 0.0
        self.left = 0 if self._settled() else max(steps, 0)

    def _keeps_right(self, v) -> bool:
        return self.sign * v > 0.0

    def _settled(self) -> bool:
        """True once the midpoint equals an end: every later step leaves 0.5 * (lo + hi) as it is.

        The step either moves the other end onto that one, or changes
        nothing, and a bracket [x, x] has midpoint x.
        """
        mid = 0.5 * (self.lo + self.hi)
        return _same_float(mid, self.lo) or _same_float(mid, self.hi)

    def _secant(self) -> float:
        """Where the secant of fn(lo) and fn(hi) crosses zero, as a fraction of the bracket, clipped to it."""
        if not self.sign:
            return 0.0  # every step keeps the left half
        gap = self.flo - self.fhi
        frac = self.flo / gap if gap else 0.5
        return min(max(frac, 0.0), 1.0) if frac == frac else 0.5

    def probes(self) -> list:
        """The points of the next pass: the grid of the next steps, then the predicted path below it."""
        depth = min(_BISECT_DEPTH, self.left)
        n = 1 << depth
        grid = [self.lo] * n + [self.hi]
        for w in (n >> j for j in range(depth)):
            for i in range(w // 2, n, w):
                grid[i] = 0.5 * (grid[i - w // 2] + grid[i + w // 2])
        frac = self._secant() * n
        cell = min(int(frac), n - 1)
        mids, rights = _predicted_path(grid[cell], grid[cell + 1], frac - cell, self.left - depth)
        self._plan = depth, grid, cell, mids, rights
        return grid[1:n] + mids

    def walk(self, vals: list) -> None:
        """Take the pass's steps, given fn at the points :meth:`probes` returned."""
        depth, grid, cell, mids, rights = self._plan
        n = 1 << depth
        at = [self.flo] + vals[: n - 1] + [self.fhi]
        # from [grid[a], grid[a + 2w]] a step moves to the right half where fn(grid[a + w]) keeps it
        a = 0
        for w in (n >> j for j in range(1, depth + 1)):
            if self._keeps_right(at[a + w]):
                a += w
        self.lo, self.hi, self.flo, self.fhi = grid[a], grid[a + 1], at[a], at[a + 1]
        self.left -= depth
        if a == cell:
            for mid, fmid, right in zip(mids, vals[n - 1 :], rights):
                self.left -= 1
                went_right = self._keeps_right(fmid)
                if went_right:
                    self.lo, self.flo = mid, fmid
                else:
                    self.hi, self.fhi = mid, fmid
                if went_right != right:
                    break
        if self._settled():
            self.left = 0


def _same_float(a: float, b: float) -> bool:
    """True when two floats have the same bits (NaN is taken as never equal)."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _predicted_path(a, b, frac, steps):
    """The midpoints of ``steps`` bisection steps on [a, b], and the side each keeps, if the root lies at ``frac`` of it.

    Stops after the first midpoint that equals an end: from there the
    bracket no longer shrinks.
    """
    mids, rights = [], []
    for _ in range(steps):
        mid = 0.5 * (a + b)
        frac *= 2.0
        right = frac >= 1.0
        mids.append(mid)
        rights.append(right)
        if mid == a or mid == b:
            break
        if right:
            a, frac = mid, frac - 1.0
        else:
            b = mid
    return mids, rights


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
