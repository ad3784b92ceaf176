"""Simultaneous complex root finding for the amoeba fiber solves.

Aberth-Ehrlich iteration in the style of Bini (Numer. Algorithms 13, 1996)
and MPSolve (Bini & Robol 2014).  The batch entry point solves many
same-degree polynomials at once, which is what the rasterizer needs: the
fiber sweep hands it a block of pixel columns, one polynomial per sampled
angle of each column.

* Start: a row of degree 1 or 2 starts at its closed-form roots, -c_0 / c_1
  or the cancellation-free quadratic formula (Higham, Accuracy and
  Stability of Numerical Algorithms, sec. 1.8), which usually pass the
  stopping test at once.  Other rows, and a row whose closed form
  overflows or underflows, start on circles whose log-radii are minus the
  slopes of the upper convex hull of (k, log|c_k|), the Newton polygon of
  the row, so roots of very different sizes start at their own scale.
* Stop: a root is frozen once its componentwise backward error
  |p(z)| / sum_k |c_k| |z|^k is at most ``BACKWARD_TOL`` * d * eps, a bound
  above the rounding noise of evaluating p.  Relative, so tiny roots are
  held to the same standard as large ones.
* Large roots: where |z| > 1, p and the Newton step are evaluated through
  the reversed polynomial in 1/z, so neither overflows nor loses digits.
* No silent failures: a root that still fails the test after ``MAX_ITER``
  iterations is returned as NaN.

The kernel works on vectors with one entry per row or per unfinished root,
and keeps its temporaries in place (``out=`` and in-place operators), so a
block of a few thousand rows costs a few MB and no gathers of whole
coefficient rows.  The hull slopes are built by a loop over pairs of
coefficients on length-m vectors rather than as an (m, d + 1, d + 1) array,
which would be the largest temporary of the solve.  Each row's roots depend
only on that row, so the result is the same however the rows are batched.
"""

from __future__ import annotations

import numpy as np

MAX_ITER = 200
BACKWARD_TOL = 4.0
_EPS = np.finfo(float).eps
_LOG_RADIUS_CAP = 700.0  # exp of this stays finite
_SQRT_TINY = np.sqrt(np.finfo(float).tiny)  # |b| below this: b^2 is not a normal number


def _newton_polygon_start(c: np.ndarray) -> np.ndarray:
    """Initial iterates for rows with nonzero constant and leading terms.

    An upper-hull edge of (k, log|c_k|) of width w and slope -s stands for w
    roots of modulus about exp(s); they start equally spaced on that circle.
    """
    m, width = c.shape
    d = width - 1
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(c))
    # zero interior coefficients lie far below the hull; a finite stand-in
    # keeps the slope arithmetic free of inf - inf
    logs = np.maximum(logs, -1e300).T.copy()  # logs[k] is coefficient k of every row
    # hull slope on [j-1, j] is min over i < j of max over l >= j of the
    # slope from i to l; tail holds that max for the current i and l = j
    hull = np.full((d, m), np.inf)
    tail = np.empty(m)
    for i in range(d):
        tail.fill(-np.inf)
        for l in range(d, i, -1):
            np.maximum(tail, (logs[l] - logs[i]) / (l - i), out=tail)
            np.minimum(hull[l - 1], tail, out=hull[l - 1])
    hull = hull.T  # (m, d), nonincreasing along a row
    log_r = np.clip(-hull, -_LOG_RADIUS_CAP, _LOG_RADIUS_CAP)

    # spread the roots of one edge over the whole circle: on coefficients
    # spanning 1e+-30 this takes about 40 % fewer iterations than spacing
    # all d roots 2 pi / d apart
    first = np.empty((m, d), dtype=np.intp)
    edge_width = np.empty((m, d), dtype=np.intp)
    for j in range(d):
        same_edge = np.isclose(hull[:, j, None], hull, rtol=1e-9, atol=1e-9)
        first[:, j] = same_edge.argmax(axis=1)
        edge_width[:, j] = same_edge.sum(axis=1)
    angle = 2.0 * np.pi * ((np.arange(d) - first) / edge_width + first / d) + 0.7
    return np.exp(log_r + 1j * angle)


def _start(c: np.ndarray) -> np.ndarray:
    """Initial iterates: the closed-form roots of rows of degree 1 or 2, the
    Newton-polygon start elsewhere.

    A row falls back to the Newton-polygon start where its closed form is
    not finite or is zero (a term overflowed or underflowed in it), and
    where the square root is zero because b^2 and 4ac underflowed: its start
    -b / 2a is then the critical point of the row, where no Newton step can
    move a root that fails the stopping test.  A zero square root of normal
    numbers comes from a double root, or from a pair closer than rounding
    tells apart, whose midpoint meets that test; one that did not would end
    as NaN, not as a wrong root.
    """
    d = c.shape[1] - 1
    if d > 2:
        return _newton_polygon_start(c)
    with np.errstate(all="ignore"):
        if d == 1:
            z = -c[:, :1] / c[:, 1:]
            underflow = False
        else:
            c0, b, a = c.T
            s = np.sqrt(b * b - 4.0 * a * c0)
            # the sign with |b + s| >= |b|: no cancellation in q
            np.negative(s, out=s, where=(b.conj() * s).real < 0)
            q = -0.5 * (b + s)
            z = np.stack([q / a, c0 / q], axis=1)
            underflow = (s == 0) & (np.abs(b) < _SQRT_TINY)
        fallback = underflow | ~(np.isfinite(z) & (z != 0)).all(axis=1)
    if fallback.any():
        z[fallback] = _newton_polygon_start(c[fallback])
    return z


def _aberth(c: np.ndarray) -> np.ndarray:
    """Roots of rows with nonzero constant and leading terms, NaN where the
    backward-error test still fails after ``MAX_ITER`` iterations."""
    m, width = c.shape
    d = width - 1
    z = _start(c).ravel()
    rows_of_z = z.reshape(m, d)
    tol = BACKWARD_TOL * d * _EPS
    # coefficient k of row i in z^k order at [k, 2i], in (1/z)^k order at [k, 2i + 1]
    both = np.stack([c, c[:, ::-1]], axis=1).reshape(-1, width).T.copy()
    both_abs = np.abs(both)
    idx = np.arange(m * d)
    with np.errstate(all="ignore"):
        for it in range(MAX_ITER + 1):
            zi = z[idx]
            at = np.abs(zi)
            big = at > 1.0
            t = np.divide(1.0, zi)
            np.copyto(t, zi, where=~big)
            pick = 2 * (idx // d) + big
            np.abs(t, out=at)
            # Horner on p and p', with the size sum_k |c_k| |t|^k alongside
            val = both[d].take(pick)
            der = np.zeros_like(val)
            size = both_abs[d].take(pick)
            for k in range(d - 1, -1, -1):
                der *= t
                der += val
                val *= t
                val += both[k].take(pick)
                size *= at
                size += both_abs[k].take(pick)
            np.multiply(tol, size, out=size)
            moving = ~(np.abs(val, out=at) <= size)
            idx, zi = idx[moving], zi[moving]
            if idx.size == 0 or it == MAX_ITER:
                break
            t, val, der, big = t[moving], val[moving], der[moving], big[moving]
            # Newton step val / der, or zi val / (d val - t der) through 1/z
            newton = val / der
            den = np.multiply(d, val)
            den -= np.multiply(t, der, out=der)
            np.multiply(zi, val, out=val)
            np.divide(val, den, out=val)
            np.copyto(newton, val, where=big)
            # Aberth correction: sum over the other roots of the row of 1 / (zi - zj)
            diff = rows_of_z.take(idx // d, axis=0)
            np.subtract(zi[:, None], diff, out=diff)
            diff[np.arange(idx.size), idx % d] = np.inf
            np.divide(1.0, diff, out=diff)
            step = diff.sum(axis=1)
            del diff  # the largest temporary: not alive when the next one is made
            # on a critical point p' = 0 and the Newton step is not finite; the
            # Aberth step N / (1 - N S) tends to -1 / S as N grows
            critical = ~np.isfinite(newton)
            limit = np.divide(-1.0, step[critical])
            np.multiply(newton, step, out=step)
            np.subtract(1.0, step, out=step)
            np.divide(newton, step, out=step)
            bad = ~np.isfinite(step)
            step[bad] = newton[bad]
            step[critical] = limit
            step[~np.isfinite(step)] = 0.0  # S = 0 as well: no direction to move in
            z[idx] = np.subtract(zi, step, out=step)
    z[idx] = np.nan
    return rows_of_z


def aberth_roots_batch(coeffs: np.ndarray) -> np.ndarray:
    """Roots of m degree-d polynomials, returned as an (m, d) array.

    ``coeffs[i, k]`` is the coefficient of z^k of the i-th polynomial; all
    leading coefficients must be nonzero.  Exactly zero low-order
    coefficients give exact zero roots.  Every finite root returned has
    componentwise backward error at most ``BACKWARD_TOL`` * d * eps; a root
    that does not reach it within ``MAX_ITER`` iterations is NaN.
    Deterministic: fixed initial configuration, fixed iteration policy.
    """
    c = np.asarray(coeffs, dtype=complex)
    m, width = c.shape
    d = width - 1
    if d < 1:
        return np.zeros((m, 0), dtype=complex)
    if np.any(c[:, -1] == 0):
        raise ValueError("leading coefficient must be nonzero")
    at_origin = np.argmax(c != 0, axis=1)  # roots at the origin per row
    out = np.zeros((m, d), dtype=complex)
    for k0 in np.unique(at_origin):
        rows = np.flatnonzero(at_origin == k0)
        if k0 < d:
            out[rows, k0:] = _aberth(c[rows, k0:])
    return out


def univariate_roots(coeffs) -> list[complex]:
    """All complex roots (with multiplicity) of a univariate polynomial.

    ``coeffs`` runs from the constant term upward.  Trailing coefficients
    that are exactly zero are trimmed, and only those: a tiny nonzero leading
    coefficient keeps its (huge) roots.  A degree-0 polynomial yields an
    empty list and an identically zero input is an error.  A root that does
    not converge is NaN.
    """
    c = [complex(v) for v in coeffs]
    if not any(c):
        raise ValueError("all-zero coefficient list")
    while c[-1] == 0:
        c.pop()
    if len(c) <= 1:
        return []
    arr = np.array([c], dtype=complex)
    roots = aberth_roots_batch(arr)[0]
    return sorted(roots.tolist(), key=lambda z: (round(z.real, 9), round(z.imag, 9)))
