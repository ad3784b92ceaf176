"""Moment maps, (weighted) compactified amoebas and Hadamard-power skeletons.

The weighted moment map sends a torus point to the barycenter of the support
with weights |a_s| |x^s|; those weights depend only on the log-moduli, so the
compactified images are computed directly from the same fiber samples that
drive the log-space raster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import ndimage

from .amoeba import LogWindow, _fiber_roots, _shift_nonnegative, _term_arrays, adaptive_window
from .errors import DomainError
from .laurent import LaurentPolynomial
from .polytope import IntegerPolytope, newton_polytope


@dataclass
class MomentImagePointCloud:
    points: np.ndarray  # (m, n) points inside the Newton polytope
    hadamard_order: float = 1.0
    source: str = ""


def moment_map(p, x: Sequence[complex], weighted: bool = True) -> np.ndarray:
    """Barycenter of the support with weights |a_s||x^s| (or |x^s| alone)."""
    x = [complex(v) for v in x]
    if any(v == 0 for v in x):
        raise DomainError("torus point must have nonzero coordinates")
    xi = np.array([math.log(abs(v)) for v in x])
    return _moment_from_logs(p, xi.reshape(1, -1), weighted)[0]


def _moment_from_logs(p, xi_rows: np.ndarray, weighted: bool) -> np.ndarray:
    exps, coeffs = _term_arrays(p)
    logs = xi_rows @ exps.T.real
    if weighted:
        logs = logs + np.array([math.log(abs(c)) for c in coeffs])
    logs = logs - logs.max(axis=1, keepdims=True)
    w = np.exp(logs)
    return (w @ exps.real) / w.sum(axis=1, keepdims=True)


def rasterize_wca(p, w: Optional[LogWindow] = None, weighted: bool = True) -> MomentImagePointCloud:
    """Point cloud of the (weighted) compactified amoeba of a bivariate polynomial."""
    if p.n != 2:
        raise DomainError("moment-map rasterization is implemented for two variables")
    if w is None:
        w = adaptive_window(p)
    q = _shift_nonnegative(p)
    logs = _zero_locus_log_points(q, w)
    if logs.size == 0:
        return MomentImagePointCloud(np.zeros((0, 2)))
    # map through the moment map of the original polynomial so that the
    # cloud lives inside its Newton polytope
    pts = _moment_from_logs(p, logs, weighted)
    return MomentImagePointCloud(pts)


def _zero_locus_log_points(p, w: LogWindow) -> np.ndarray:
    exps, coeffs = _term_arrays(p)
    out = []
    for axis in (0, 1):
        if axis == 0:
            u_min, u_max = w.x_min, w.x_max
        else:
            u_min, u_max = w.y_min, w.y_max
        su = exps[:, axis].astype(int)
        sv = exps[:, 1 - axis].astype(int)
        deg = int(sv.max())
        if deg == 0:
            continue
        M = np.zeros((len(coeffs), deg + 1))
        M[np.arange(len(coeffs)), sv] = 1.0
        angles = 2.0 * np.pi * (np.arange(w.angular_samples) + 0.5) / w.angular_samples
        du = (u_max - u_min) / w.resolution
        log_c = np.log(np.abs(coeffs)) + 1j * np.angle(coeffs)
        for i in range(w.resolution):
            xi = u_min + (i + 0.5) * du
            log_w = np.outer(xi + 1j * angles, su) + log_c
            weights = np.exp(log_w - log_w.real.max(axis=1, keepdims=True))
            roots = _fiber_roots(weights @ M)
            with np.errstate(divide="ignore", invalid="ignore"):
                logabs = np.log(np.abs(roots))
            finite = np.isfinite(logabs)
            us = np.broadcast_to(xi, roots.shape)[finite]
            vs = logabs[finite]
            pair = np.stack([us, vs], axis=1) if axis == 0 else np.stack([vs, us], axis=1)
            out.append(pair)
    if not out:
        return np.zeros((0, 2))
    return np.concatenate(out, axis=0)


def skeleton_approximation(
    p: LaurentPolynomial, r_list: Sequence[float], w: Optional[LogWindow] = None
) -> list[MomentImagePointCloud]:
    """WCA clouds of increasing Hadamard powers, approximating the limit complex."""
    if any(c <= 0 for c in p.terms.values()):
        raise DomainError("Hadamard-power skeleton needs positive coefficients")
    if not r_list:
        raise ValueError("r_list must be nonempty")
    clouds = []
    for r in r_list:
        q = p.hadamard_power(r)
        cloud = rasterize_wca(q, w, weighted=True)
        cloud.hadamard_order = float(r)
        clouds.append(cloud)
    return clouds


def wca_occupancy(
    cloud: MomentImagePointCloud, P: IntegerPolytope, resolution: int = 400,
    dilation_radius: int = 1,
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
    if dilation_radius > 0:
        grid = ndimage.binary_dilation(grid, iterations=dilation_radius)
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
    P = newton_polytope(LaurentPolynomial(p.n, {e: 1 for e in p.terms}))
    worst = 0.0
    for f in P.facets:
        vals = cloud.points @ np.array(f.B, dtype=float) + f.c
        if vals.size:
            worst = max(worst, float(vals.max()))
    return worst
