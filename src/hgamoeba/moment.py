"""Moment maps, (weighted) compactified amoebas and Hadamard-power skeletons.

The weighted moment map sends a torus point to the barycenter of the support
with weights |a_s| |x^s|; those weights depend only on the log-moduli.  So the
compactified amoeba is the second view of the one fiber sweep
(``amoeba._sweep_blocks``): the log-space raster bins its samples, and the
cloud here maps the same samples through the moment map.  With real
coefficients a mirrored fiber repeats the log-moduli of its conjugate, so
each conjugate pair is mapped once and the cloud lists the mapped point
twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .amoeba import DILATION_PIXELS, LogWindow, _sweep_blocks, _term_arrays, adaptive_window
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
    logs, index = _zero_locus_log_points(p, w)
    # through the moment map of the original polynomial, so that the cloud lies
    # in its Newton polytope; a mirrored sample shares its solved twin's point
    mapped = _moment_from_logs(p, logs, weighted)
    del logs  # freed before the whole cloud is made, which is the peak of memory
    return MomentImagePointCloud(mapped[index])


def _zero_locus_log_points(p, w: LogWindow) -> tuple[np.ndarray, np.ndarray]:
    """The fiber sweep's solved samples as (x, y) log-points of the zero
    locus, and the index into them that lists the samples of the whole ring,
    mirrored angles included, in the order of ``amoeba._sweep``."""
    pairs, index, count = [], [], 0
    for axis, _, us, logabs, mirrored in _sweep_blocks(p, w):
        finite = np.isfinite(logabs)
        slot = np.full(logabs.shape, -1)
        slot[finite] = np.arange(count, count + finite.sum())
        count += finite.sum()
        slot = np.concatenate([slot, slot[:, :mirrored][:, ::-1]], axis=1)
        index.append(slot[slot >= 0])
        v = logabs[finite]
        u = np.broadcast_to(us[:, None, None], logabs.shape)[finite]
        pairs.append(np.stack((u, v) if axis == 0 else (v, u), axis=1))
    if not pairs:
        return np.zeros((0, 2)), np.zeros(0, dtype=np.intp)
    return np.concatenate(pairs), np.concatenate(index)


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
        ix = _pixel(cloud.points[:, 0], x0, x1, resolution).astype(int)
        iy = _pixel(cloud.points[:, 1], y0, y1, resolution).astype(int)
        keep = (ix >= 0) & (ix < resolution) & (iy >= 0) & (iy < resolution)
        grid[ix[keep], iy[keep]] = True
    from scipy import ndimage

    grid = ndimage.binary_dilation(grid, iterations=DILATION_PIXELS)
    return grid, (x0, x1, y0, y1)


def _pixel(v, lo: float, hi: float, resolution: int):
    """Float pixel index of v over [lo, hi]; v = hi is in the last pixel."""
    i = np.floor((v - lo) / (hi - lo) * resolution)
    return np.where(i == resolution, resolution - 1, i)


def point_in_wca_gap(
    cloud: MomentImagePointCloud, P: IntegerPolytope, point: Sequence[float],
    resolution: int = 400,
) -> bool:
    """True iff the point's pixel lies in an unoccupied region of the WCA raster."""
    grid, (x0, x1, y0, y1) = wca_occupancy(cloud, P, resolution)
    ix = _pixel(float(point[0]), x0, x1, resolution)
    iy = _pixel(float(point[1]), y0, y1, resolution)
    if not (0 <= ix < resolution and 0 <= iy < resolution):
        return False
    return not grid[int(ix), int(iy)]


def containment_violation(cloud: MomentImagePointCloud, p) -> float:
    """Largest violation of the Newton-polytope facet inequalities over the cloud."""
    P = newton_polytope(p)
    worst = 0.0
    for f in P.facets:
        vals = cloud.points @ np.array(f.B, dtype=float) + f.c
        if vals.size:
            worst = max(worst, float(vals.max()))
    return worst
