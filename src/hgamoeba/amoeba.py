"""Amoeba rasterization, complement components, orders and optimality.

The raster works column by column: fix the modulus of one coordinate, sweep
a ring of angles, solve the fiber polynomial in the other coordinate and
mark the log-moduli of the roots.  Both coordinate roles are swept and the
union dilated by one pixel to close sampling gaps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import ndimage

from .errors import DomainError, NeedsDeeperPointError
from .laurent import ComplexLaurentPolynomial, LaurentPolynomial
from .polytope import facet_description, lattice_points, newton_polytope
from .roots import aberth_roots_batch

GENERIC_ANGLE = 0.4136  # fixed fiber angle for winding loops


@dataclass(frozen=True)
class LogWindow:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    resolution: int = 400
    angular_samples: int = 512
    dilation_radius: int = 1

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("window bounds must satisfy min < max")
        if self.resolution < 16:
            raise ValueError("resolution must be at least 16")
        if self.angular_samples < 64:
            raise ValueError("angular_samples must be at least 64")

    def with_resolution(self, resolution: int) -> "LogWindow":
        return LogWindow(
            self.x_min, self.x_max, self.y_min, self.y_max,
            resolution, self.angular_samples, self.dilation_radius,
        )

    def pixel_center(self, ix: int, iy: int) -> tuple[float, float]:
        dx = (self.x_max - self.x_min) / self.resolution
        dy = (self.y_max - self.y_min) / self.resolution
        return (self.x_min + (ix + 0.5) * dx, self.y_min + (iy + 0.5) * dy)


@dataclass
class AmoebaRaster:
    window: LogWindow
    grid: np.ndarray  # bool, [ix, iy], True = amoeba pixel


@dataclass
class ComplementComponent:
    pixel_count: int
    representative: tuple[float, float]
    bounded: bool
    order: Optional[tuple[int, ...]] = None
    label: int = 0
    deep_pixels: list[tuple[int, int]] = field(default_factory=list)


def _term_arrays(p) -> tuple[np.ndarray, np.ndarray]:
    exps = []
    coeffs = []
    for exp, c in p.sorted_terms():
        exps.append(exp)
        coeffs.append(complex(c))
    return np.array(exps, dtype=float), np.array(coeffs, dtype=complex)


def _shift_nonnegative(p):
    mins = tuple(min(e[k] for e in p.terms) for k in range(p.n))
    shift = tuple(-min(m, 0) for m in mins)
    if all(s == 0 for s in shift):
        return p
    if isinstance(p, LaurentPolynomial):
        return p.shift(shift)
    return ComplexLaurentPolynomial(
        p.n, {tuple(e + d for e, d in zip(exp, shift)): c for exp, c in p.terms.items()}
    )


def adaptive_window(
    p, resolution: int = 400, angular_samples: int = 512, pad: float = 4.0
) -> LogWindow:
    """Window around the tropical skeleton of the polynomial.

    Collects the tie points of triples of weighted monomials (the tropical
    vertices), pads the bounding box and enforces a minimum half-width so
    that small examples keep their familiar frames.
    """
    pts = [(np.array(e, dtype=float), math.log(abs(complex(c)))) for e, c in p.sorted_terms()]
    xs, ys = [0.0], [0.0]
    for (e1, l1), (e2, l2), (e3, l3) in itertools.combinations(pts, 3):
        mat = np.array([e2 - e1, e3 - e1])
        rhs = np.array([l1 - l2, l1 - l3])
        det = np.linalg.det(mat)
        if abs(det) < 1e-12:
            continue
        sol = np.linalg.solve(mat, rhs)
        xs.append(sol[0])
        ys.append(sol[1])
    x_lo, x_hi = min(xs) - pad, max(xs) + pad
    y_lo, y_hi = min(ys) - pad, max(ys) + pad
    half = max(5.0, x_hi, -x_lo, y_hi, -y_lo)
    return LogWindow(-half, half, -half, half, resolution, angular_samples)


def _fiber_roots(coeff_rows: np.ndarray) -> np.ndarray:
    """Roots per row, NaN-padded to the common width.

    A row's degree is its highest exactly nonzero coefficient; rows are
    solved in groups of equal degree.  Roots that do not converge, and the
    slots above a row's degree, are NaN.
    """
    m, width = coeff_rows.shape
    out = np.full((m, width - 1), np.nan + 1j * np.nan, dtype=complex)
    nonzero = coeff_rows != 0
    deg = np.where(nonzero.any(axis=1), width - 1 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    for d in np.unique(deg):
        if d < 1:
            continue
        rows = np.flatnonzero(deg == d)
        out[rows, :d] = aberth_roots_batch(coeff_rows[rows, : d + 1])
    return out


def rasterize_amoeba(p, w: LogWindow) -> AmoebaRaster:
    """Sampled amoeba of a bivariate (Laurent) polynomial."""
    if p.n != 2:
        raise DomainError("rasterization is implemented for two variables")
    if len(p.terms) < 2:
        raise DomainError("amoeba of a monomial is empty")
    try:
        newton_polytope(_as_exact_support(p))
    except Exception as exc:
        raise DomainError(f"degenerate support: {exc}") from exc
    p = _shift_nonnegative(p)

    res = w.resolution
    grid = np.zeros((res, res), dtype=bool)
    for axis in (0, 1):
        _sweep(p, w, grid, axis)
    if w.dilation_radius > 0:
        grid = ndimage.binary_dilation(grid, iterations=w.dilation_radius)
    return AmoebaRaster(w, grid)


def _as_exact_support(p) -> LaurentPolynomial:
    return LaurentPolynomial(p.n, {e: 1 for e in p.terms})


def _sweep(p, w: LogWindow, grid: np.ndarray, axis: int) -> None:
    res, m_ang = w.resolution, w.angular_samples
    if axis == 0:
        u_min, u_max, v_min, v_max = w.x_min, w.x_max, w.y_min, w.y_max
    else:
        u_min, u_max, v_min, v_max = w.y_min, w.y_max, w.x_min, w.x_max
    exps, coeffs = _term_arrays(p)
    su = exps[:, axis].astype(int)
    sv = exps[:, 1 - axis].astype(int)
    deg = int(sv.max())
    if deg == 0:
        return
    # indicator matrix: term -> fiber-polynomial coefficient slot
    M = np.zeros((len(coeffs), deg + 1), dtype=float)
    M[np.arange(len(coeffs)), sv] = 1.0

    angles = 2.0 * np.pi * (np.arange(m_ang) + 0.5) / m_ang
    du = (u_max - u_min) / res
    dv = (v_max - v_min) / res
    log_c = np.log(np.abs(coeffs)) + 1j * np.angle(coeffs)
    for i in range(res):
        xi = u_min + (i + 0.5) * du
        log_x = xi + 1j * angles  # (m_ang,)
        # normalize per row in log space: huge coefficient ranges would
        # otherwise overflow exp and poison the fiber polynomials
        log_w = np.outer(log_x, su) + log_c  # (m_ang, terms)
        weights = np.exp(log_w - log_w.real.max(axis=1, keepdims=True))
        fiber = weights @ M  # (m_ang, deg+1)
        roots = _fiber_roots(fiber)
        with np.errstate(divide="ignore", invalid="ignore"):
            logabs = np.log(np.abs(roots))
        vals = logabs[np.isfinite(logabs)]
        iv = np.floor((vals - v_min) / dv).astype(int)
        iv = iv[(iv >= 0) & (iv < res)]
        if axis == 0:
            grid[i, iv] = True
        else:
            grid[iv, i] = True


def complement_components(r: AmoebaRaster) -> list[ComplementComponent]:
    """4-connected components of the non-amoeba pixels, deepest pixel first."""
    free = ~r.grid
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    labels, count = ndimage.label(free, structure=structure)
    dist = ndimage.distance_transform_edt(free)
    comps = []
    for lab in range(1, count + 1):
        mask = labels == lab
        pix = int(mask.sum())
        touches = (
            mask[0, :].any() or mask[-1, :].any()
            or mask[:, 0].any() or mask[:, -1].any()
        )
        d = np.where(mask, dist, -1.0)
        order_idx = np.argsort(d.ravel())[::-1]
        deep = [
            (int(a), int(b))
            for a, b in (np.unravel_index(k, d.shape) for k in order_idx[:8])
        ]
        rep = r.window.pixel_center(*deep[0])
        comps.append(
            ComplementComponent(
                pixel_count=pix, representative=rep, bounded=not touches,
                label=lab, deep_pixels=deep,
            )
        )
    comps.sort(key=lambda c: (-c.pixel_count, c.representative))
    return comps


def _loop_values(p, xi: Sequence[float], j: int, samples: int, angle_offset: float) -> np.ndarray:
    exps, coeffs = _term_arrays(p)
    n = p.n
    t = 2.0 * np.pi * np.arange(samples) / samples
    log_x = np.empty((samples, n), dtype=complex)
    for k in range(n):
        if k == j:
            log_x[:, k] = xi[k] + 1j * t
        else:
            log_x[:, k] = xi[k] + 1j * (GENERIC_ANGLE + angle_offset + 0.1 * k)
    # scale out the dominant weighted monomial to keep magnitudes tame
    logs = np.array([math.log(abs(c)) for c in coeffs]) + exps @ np.asarray(xi, dtype=float)
    shift = logs.max()
    vals = np.einsum("se,te->ts", exps, log_x)
    return (np.exp(vals - shift) * coeffs).sum(axis=1)


def component_order(p, xi: Sequence[float]) -> tuple[int, ...]:
    """Order vector of the complement component containing the log-point xi.

    Each coordinate is the winding number of the polynomial along the torus
    loop that rotates one coordinate while the others stay at a fixed
    generic angle.  Sampling is refined until consecutive argument steps
    stay below pi/2, making the count exact.  Orders are those of the
    polynomial as given: a monomial factor x^a adds a to every order.
    """
    xi = tuple(float(v) for v in xi)
    order = []
    for j in range(p.n):
        order.append(_winding(p, xi, j))
    return tuple(order)


def _winding(p, xi: Sequence[float], j: int) -> int:
    offset = 0.0
    for attempt in range(6):
        samples = 512
        while samples <= 1 << 16:
            vals = _loop_values(p, xi, j, samples, offset)
            mags = np.abs(vals)
            if mags.min() < 1e-8 * max(mags.max(), 1e-300):
                break  # too close to a zero: redraw the generic angle
            args = np.angle(vals)
            steps = np.diff(np.concatenate([args, args[:1]]))
            steps = (steps + np.pi) % (2.0 * np.pi) - np.pi
            if np.abs(steps).max() < 0.5 * np.pi:
                total = steps.sum() / (2.0 * np.pi)
                nu = round(total)
                if abs(total - nu) > 0.25:
                    break
                return int(nu)
            samples *= 2
        offset += 0.37
    raise NeedsDeeperPointError(
        f"winding ill-conditioned at {xi}; pick a point deeper inside the component"
    )


def lopsided_at(p, xi: Sequence[float]) -> Optional[tuple[int, ...]]:
    """Dominant exponent if one weighted monomial outweighs the rest, else None.

    A dominant exponent certifies that xi lies outside the amoeba, in the
    complement component of that order.
    """
    xi = np.asarray(xi, dtype=float)
    exps, coeffs = _term_arrays(p)
    logs = np.array([math.log(abs(c)) for c in coeffs]) + exps @ xi
    k = int(np.argmax(logs))
    rest = np.exp(np.delete(logs, k) - logs[k]).sum()
    if rest < 1.0:
        return tuple(int(v) for v in exps[k])
    return None


def _dominance_point(p, alpha, bound: float):
    """Log-point maximizing the margin of the weighted monomial alpha.

    Solves the linear program max t subject to the monomial alpha
    outweighing every other term by at least t in log scale, within a
    box of the given half-width.  Returns (xi, margin).
    """
    from scipy.optimize import linprog

    exps, coeffs = _term_arrays(p)
    logs = np.array([math.log(abs(c)) for c in coeffs])
    alpha = np.asarray(alpha, dtype=float)
    idx = [k for k in range(len(coeffs)) if not np.array_equal(exps[k], alpha)]
    target = next(k for k in range(len(coeffs)) if np.array_equal(exps[k], alpha))
    A = np.column_stack([exps[idx] - alpha, np.ones(len(idx))])
    b = logs[target] - logs[idx]
    res = linprog(
        [0.0] * p.n + [-1.0], A_ub=A, b_ub=b,
        bounds=[(-bound, bound)] * p.n + [(None, None)], method="highs",
    )
    if res.status != 0:
        return None, -math.inf
    return tuple(float(v) for v in res.x[: p.n]), float(-res.fun)


def resolved_components(p, raster: AmoebaRaster) -> tuple[list[ComplementComponent], list[str]]:
    """Complement components after exact-invariant post-processing.

    Raster components are first assigned winding orders.  Fragments sharing
    an order are merged: the order map of a genuine amoeba complement is
    injective, so equal orders certify fragments of one true component that
    a sampling artifact carved up.  Conversely, a lattice point of the
    Newton polytope whose order is absent is probed at its maximal tropical
    dominance point; a lopsidedness certificate there proves a component the
    raster failed to separate, and it is restored.  Notes record every
    correction.
    """
    raw = complement_components(raster)
    notes: list[str] = []
    for comp in raw:
        comp.order = _order_of_component(p, raster, comp)

    merged: dict[tuple[int, ...], ComplementComponent] = {}
    unresolved: list[ComplementComponent] = []
    tiny = max(9, raster.grid.size // 20000)
    for comp in raw:
        if comp.order is None:
            if comp.pixel_count <= tiny:
                notes.append(
                    f"dropped a {comp.pixel_count}-pixel fragment with no computable order"
                )
            else:
                unresolved.append(comp)
            continue
        if comp.order in merged:
            keeper = merged[comp.order]
            keeper.pixel_count += comp.pixel_count
            keeper.bounded = keeper.bounded and comp.bounded
            notes.append(
                f"merged a {comp.pixel_count}-pixel fragment into the order-{comp.order} "
                "component (equal winding orders)"
            )
        else:
            merged[comp.order] = comp

    w = raster.window
    bound = 4.0 * max(abs(w.x_min), abs(w.x_max), abs(w.y_min), abs(w.y_max)) + 10.0
    N = newton_polytope(_as_exact_support(p))
    vertex_set = set(N.vertices)
    for alpha in sorted(lattice_points(N).points):
        if alpha in merged:
            continue
        xi, margin = _dominance_point(p, alpha, bound)
        if xi is None or margin <= 0.0:
            continue
        if lopsided_at(p, xi) != alpha:
            continue
        comp = ComplementComponent(
            pixel_count=0, representative=xi, bounded=alpha not in vertex_set,
            order=alpha, label=0,
        )
        merged[alpha] = comp
        notes.append(
            f"restored the order-{alpha} component from a lopsidedness certificate "
            f"at {tuple(round(v, 3) for v in xi)} (unresolved in the raster)"
        )

    comps = sorted(merged.values(), key=lambda c: (-c.pixel_count, c.representative))
    comps += unresolved
    if unresolved:
        notes.append(f"{len(unresolved)} sizeable components have no computable order")
    return comps, notes


@dataclass
class OptimalityReport:
    lattice_point_count: int
    components: list[ComplementComponent]
    orders_injective: bool
    vertices_covered: bool
    optimal: Optional[bool]  # None = inconclusive
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "lattice_points": self.lattice_point_count,
            "components": [
                {
                    "order": list(c.order) if c.order is not None else None,
                    "bounded": c.bounded,
                    "representative": [round(c.representative[0], 6),
                                       round(c.representative[1], 6)],
                }
                for c in self.components
            ],
            "optimal": self.optimal,
            "notes": self.notes,
        }


def optimality_report(
    p, w: Optional[LogWindow] = None, raster: Optional[AmoebaRaster] = None
) -> OptimalityReport:
    """Full amoeba-topology report: components, orders, optimality verdict."""
    if p.n != 2:
        raise DomainError("optimality analysis is implemented for two variables")
    if raster is None:
        if w is None:
            w = adaptive_window(p)
        raster = rasterize_amoeba(p, w)
    else:
        w = raster.window
    comps, notes = resolved_components(p, raster)

    N = newton_polytope(_as_exact_support(p))
    npts = len(lattice_points(N).points)
    orders = [c.order for c in comps if c.order is not None]
    injective = len(orders) == len(set(orders))

    vertex_set = set(N.vertices)
    covered = vertex_set <= set(orders)
    if not covered:
        missing = vertex_set - set(orders)
        notes.append(f"window misses vertex components of orders {sorted(missing)}")

    bound = 4.0 * max(abs(w.x_min), abs(w.x_max), abs(w.y_min), abs(w.y_max)) + 10.0
    for comp in comps:
        if comp.order is None:
            continue
        xi, margin = _dominance_point(p, comp.order, bound)
        if xi is None or margin <= 0.0:
            notes.append(f"no lopsided certificate found for order {comp.order}")
        elif lopsided_at(p, xi) != comp.order:
            notes.append(
                f"lopsidedness at the dominance point of order {comp.order} is not strict"
            )

    unresolved = sum(1 for c in comps if c.order is None)
    if not covered or unresolved:
        verdict: Optional[bool] = None
    else:
        verdict = injective and len(comps) == npts
    notes.append("boundedness is relative to the chosen window")
    return OptimalityReport(npts, comps, injective, covered, verdict, notes)


def _order_of_component(p, raster: AmoebaRaster, comp: ComplementComponent):
    for pix in comp.deep_pixels:
        xi = raster.window.pixel_center(*pix)
        try:
            return component_order(p, xi)
        except NeedsDeeperPointError:
            continue
    return None


def cross_polytope_optimal(a: Sequence[float], b: Sequence[float], c: float) -> bool:
    """Closed-form optimality test for c + sum_j (a_j x_j + b_j / x_j).

    True iff sum_j sqrt(a_j b_j) < c / 2 (strict; the boundary case is not
    optimal).
    """
    if len(a) != len(b):
        raise ValueError("a and b must have equal length")
    if any(v <= 0 for v in a) or any(v <= 0 for v in b) or c <= 0:
        raise DomainError("all coefficients must be positive")
    return sum(math.sqrt(float(x) * float(y)) for x, y in zip(a, b)) < float(c) / 2.0
