"""Simultaneous complex root finding for the amoeba fiber solves.

Aberth-Ehrlich iteration in the style of Bini (Numer. Algorithms 13, 1996)
and MPSolve (Bini & Robol 2014).  The batch entry point solves many
same-degree polynomials at once, which is what the rasterizer needs (one
polynomial per sampled angle).

* Start: the roots of a row start on circles whose log-radii are minus the
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
"""

from __future__ import annotations

import numpy as np

MAX_ITER = 200
BACKWARD_TOL = 4.0
_EPS = np.finfo(float).eps
_LOG_RADIUS_CAP = 700.0  # exp of this stays finite


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
    logs = np.maximum(logs, -1e300)
    k = np.arange(width)
    gap = k[None, :] - k[:, None]  # gap[i, j] = j - i
    upper = gap > 0
    slope = np.full((m, width, width), -np.inf)
    slope[:, upper] = (logs[:, None, :] - logs[:, :, None])[:, upper] / gap[upper]
    # hull slope on [j-1, j] is min over i < j of max over l >= j of slope[i, l]
    tail_max = np.maximum.accumulate(slope[:, :, ::-1], axis=2)[:, :, ::-1]
    tail_max[:, ~upper] = np.inf
    hull = tail_max.min(axis=1)[:, 1:]  # (m, d), nonincreasing along a row
    log_r = np.clip(-hull, -_LOG_RADIUS_CAP, _LOG_RADIUS_CAP)

    # spread the roots of one edge over the whole circle: on coefficients
    # spanning 1e+-30 this takes about 40 % fewer iterations than spacing
    # all d roots 2 pi / d apart
    same_edge = np.isclose(hull[:, :, None], hull[:, None, :], rtol=1e-9, atol=1e-9)
    first = same_edge.argmax(axis=2)
    edge_width = same_edge.sum(axis=2)
    angle = 2.0 * np.pi * ((np.arange(d) - first) / edge_width + first / d) + 0.7
    return np.exp(log_r + 1j * angle)


def _aberth(c: np.ndarray) -> np.ndarray:
    """Roots of rows with nonzero constant and leading terms, NaN where the
    backward-error test still fails after ``MAX_ITER`` iterations."""
    m, width = c.shape
    d = width - 1
    z = _newton_polygon_start(c).ravel()
    tol = BACKWARD_TOL * d * _EPS
    # row i in z^k order at [2i], in (1/z)^k order at [2i + 1]
    both = np.stack([c, c[:, ::-1]], axis=1).reshape(-1, width)
    both_abs = np.abs(both)
    idx = np.arange(m * d)
    with np.errstate(all="ignore"):
        for it in range(MAX_ITER + 1):
            zi = z[idx]
            big = np.abs(zi) > 1.0
            t = np.where(big, 1.0 / zi, zi)
            pick = 2 * (idx // d) + big
            a = both[pick]
            a_abs = both_abs[pick]
            at = np.abs(t)
            val = a[:, d]
            der = np.zeros_like(val)
            size = a_abs[:, d]
            for k in range(d - 1, -1, -1):
                der = der * t + val
                val = val * t + a[:, k]
                size = size * at + a_abs[:, k]
            moving = ~(np.abs(val) <= tol * size)
            idx, zi = idx[moving], zi[moving]
            if idx.size == 0 or it == MAX_ITER:
                break
            t, val, der, big = t[moving], val[moving], der[moving], big[moving]
            newton = np.where(big, zi * val / (d * val - t * der), val / der)
            row_start = idx - idx % d
            diff = zi[:, None] - z[row_start[:, None] + np.arange(d)]
            diff[np.arange(idx.size), idx % d] = np.inf
            repulsion = (1.0 / diff).sum(axis=1)
            step = newton / (1.0 - newton * repulsion)
            step = np.where(np.isfinite(step), step, newton)
            step = np.where(np.isfinite(step), step, 0.0)
            z[idx] = zi - step
    z[idx] = np.nan
    return z.reshape(m, d)


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

    ``coeffs`` runs from the constant term upward.  Trailing zero
    coefficients are trimmed; a degree-0 polynomial yields an empty list and
    an identically zero input is an error.  A root that does not converge
    is NaN.
    """
    c = [complex(v) for v in coeffs]
    scale = max((abs(v) for v in c), default=0.0)
    if scale == 0.0:
        raise ValueError("all-zero coefficient list")
    while c and abs(c[-1]) <= 1e-300:
        c.pop()
    if len(c) <= 1:
        return []
    arr = np.array([c], dtype=complex)
    roots = aberth_roots_batch(arr)[0]
    return sorted(roots.tolist(), key=lambda z: (round(z.real, 9), round(z.imag, 9)))
