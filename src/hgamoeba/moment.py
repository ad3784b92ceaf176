"""Moment maps, (weighted) compactified amoebas and Hadamard-power skeletons.

The weighted moment map sends a torus point to the barycenter of the support
with weights |a_s| |x^s|; those weights depend only on the log-moduli.  So the
compactified amoeba is the second view of the one fiber sweep
(``amoeba._sweep``): the log-space raster bins its samples, and the cloud here
maps the same samples through the moment map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .amoeba import DILATION_PIXELS, LogWindow, _sweep, _term_arrays, adaptive_window
from .errors import DomainError
from .laurent import LaurentPolynomial
from .polytope import IntegerPolytope, newton_polytope

MOMENT_BLOCK_ROWS = 1 << 14  # cloud samples mapped through the moment map at a time


@dataclass
class MomentImagePointCloud:
    points: np.ndarray  # (m, n) points inside the Newton polytope
    hadamard_order: float = 1.0


def moment_map(p, x: Sequence[complex], weighted: bool = True) -> np.ndarray:
    """Barycenter of the support with weights |a_s||x^s| (or |x^s| alone)."""
    x = [complex(v) for v in x]
    if any(v == 0 for v in x):
        raise DomainError("torus point must have nonzero coordinates")
    xi = np.array([math.log(abs(v)) for v in x])
    return _moment_from_logs(p, xi.reshape(1, -1), weighted)[0]


def _moment_from_logs(p, xi_rows: np.ndarray, weighted: bool) -> np.ndarray:
    exps, coeffs = _term_arrays(p)
    log_a = np.array([math.log(abs(c)) for c in coeffs]) if weighted else None
    out = np.empty((len(xi_rows), exps.shape[1]))
    # in blocks of rows, in place: the (samples, terms) arrays are a cloud's
    # largest temporaries, and a whole-cloud one would be several times the
    # cloud; every row is computed as it would be in one piece
    starts = list(range(0, len(xi_rows), MOMENT_BLOCK_ROWS))
    if len(starts) > 1 and len(xi_rows) - starts[-1] == 1:
        starts.pop()  # a lone last row would be a vector product, rounded otherwise
    for k, end in zip(starts, starts[1:] + [len(xi_rows)]):
        logs = xi_rows[k:end] @ exps.T
        if weighted:
            logs += log_a
        logs -= logs.max(axis=1, keepdims=True)
        w = np.exp(logs, out=logs)
        np.divide(w @ exps, w.sum(axis=1, keepdims=True), out=out[k:end])
    return out


def rasterize_wca(p, w: Optional[LogWindow] = None, weighted: bool = True) -> MomentImagePointCloud:
    """Point cloud of the (weighted) compactified amoeba of a bivariate polynomial."""
    if p.n != 2:
        raise DomainError("moment-map rasterization is implemented for two variables")
    if w is None:
        w = adaptive_window(p)
    logs = _zero_locus_log_points(p, w)
    if logs.size == 0:
        return MomentImagePointCloud(np.zeros((0, 2)))
    # map through the moment map of the original polynomial so that the
    # cloud lives inside its Newton polytope
    pts = _moment_from_logs(p, logs, weighted)
    return MomentImagePointCloud(pts)


def _zero_locus_log_points(p, w: LogWindow) -> np.ndarray:
    """The fiber sweep's samples as (x, y) log-points of the zero locus."""
    pairs = []
    for axis, _, u, v in _sweep(p, w):
        us = np.full(v.shape, u)
        pairs.append(np.stack((us, v) if axis == 0 else (v, us), axis=1))
    return np.concatenate(pairs) if pairs else np.zeros((0, 2))


def skeleton_approximation(
    p: LaurentPolynomial, r_list: Sequence[float], w: Optional[LogWindow] = None
) -> list[MomentImagePointCloud]:
    """WCA clouds of increasing Hadamard powers, approximating the limit complex."""
    return list(hadamard_clouds(p, r_list, w))


def hadamard_clouds(
    p: LaurentPolynomial, r_list: Sequence[float], w: Optional[LogWindow] = None
) -> Iterator[MomentImagePointCloud]:
    """The clouds of ``skeleton_approximation``, each made only when the
    iterator reaches it, so that one cloud is held at a time.  The arguments
    and every Hadamard power are checked here, before the first cloud."""
    if any(c <= 0 for c in p.terms.values()):
        raise DomainError("Hadamard-power skeleton needs positive coefficients")
    if not r_list:
        raise ValueError("r_list must be nonempty")
    powers = [(float(r), p.hadamard_power(r)) for r in r_list]
    return (MomentImagePointCloud(rasterize_wca(q, w).points, r) for r, q in powers)


def wca_occupancy(
    cloud: MomentImagePointCloud, P: IntegerPolytope, resolution: int = 400
) -> tuple[np.ndarray, tuple[float, float, float, float]]:
    """Boolean occupancy grid of a cloud over the polytope bounding box."""
    lo, hi = P.bounding_box()
    x0, y0 = float(lo[0]), float(lo[1])
    x1, y1 = float(hi[0]), float(hi[1])
    grid = np.zeros((resolution, resolution), dtype=bool)
    if cloud.points.size:
        ix = np.floor((cloud.points[:, 0] - x0) / (x1 - x0) * resolution).astype(int)
        iy = np.floor((cloud.points[:, 1] - y0) / (y1 - y0) * resolution).astype(int)
        keep = (ix >= 0) & (ix < resolution) & (iy >= 0) & (iy < resolution)
        grid[ix[keep], iy[keep]] = True
    from scipy import ndimage

    grid = ndimage.binary_dilation(grid, iterations=DILATION_PIXELS)
    return grid, (x0, x1, y0, y1)


def point_in_wca_gap(
    cloud: MomentImagePointCloud, P: IntegerPolytope, point: Sequence[float],
    resolution: int = 400,
) -> bool:
    """True iff the point's pixel lies in an unoccupied region of the WCA raster."""
    grid, (x0, x1, y0, y1) = wca_occupancy(cloud, P, resolution)
    ix = math.floor((float(point[0]) - x0) / (x1 - x0) * resolution)
    iy = math.floor((float(point[1]) - y0) / (y1 - y0) * resolution)
    if not (0 <= ix < resolution and 0 <= iy < resolution):
        return False
    return not grid[ix, iy]


def containment_violation(cloud: MomentImagePointCloud, p) -> float:
    """Largest violation of the Newton-polytope facet inequalities over the cloud."""
    P = newton_polytope(p)
    worst = 0.0
    for f in P.facets:
        vals = cloud.points @ np.array(f.B, dtype=float) + f.c
        if vals.size:
            worst = max(worst, float(vals.max()))
    return worst
