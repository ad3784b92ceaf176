"""Amoeba rasterization, complement components, orders and optimality.

One numerical primitive serves the module: the fibers of p in one coordinate
over a ring of torus points (``_fiber_rows``), solved by ``_fiber_roots``.
The fiber sweep and the component orders both rest on it.

The fiber sweep samples the zero locus column by column: fix the modulus of
one coordinate, sweep a ring of angles, solve the fiber in the other
coordinate and take the log-moduli of the roots; both coordinate roles are
swept, and the fibers of a block of consecutive columns are solved
together.  For real coefficients half the ring of angles is solved and
mirrored onto the other half, since the fiber at 2 pi - theta has the
conjugate roots of the fiber at theta; complex coefficients get the whole
ring.  The sweep (``_sweep_blocks``) has two views.  The amoeba raster here
bins the samples of each column (``_sweep``) into pixels and dilates the
union by one pixel to close sampling gaps; the compactified amoeba
(``moment.rasterize_wca``) maps the solved samples of each block through the
moment map, and lists each mirrored sample as its solved twin.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, NeedsDeeperPointError
from .polytope import _rank, lattice_points, newton_polytope
from .roots import aberth_roots_batch

ORDER_ANGLES = 64  # ring of fiber angles on which component_order counts roots
CERT_MAX_K = 8  # largest k of the cyclic resultants R_k p tried per lattice point
FIBER_BLOCK_ROWS = 2048  # fiber rows the sweep solves at once, in whole columns
DILATION_PIXELS = 1  # sampling-gap closing of the amoeba and WCA rasters
WINDOW_PAD = 4.0  # log-space margin of adaptive_window around the tropical vertices
FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
UNIT_ROUNDOFF = np.finfo(float).eps / 2


@dataclass(frozen=True)
class LogWindow:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    resolution: int = 400
    angular_samples: int = 512

    def __post_init__(self):
        spans = (self.x_max - self.x_min, self.y_max - self.y_min)
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.y_min, self.y_max) + spans)):
            raise ValueError("window bounds and spans must be finite")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("window bounds must satisfy min < max")
        if self.resolution < 16:
            raise ValueError("resolution must be at least 16")
        if self.angular_samples < 64:
            raise ValueError("angular_samples must be at least 64")

    def pixel_center(self, ix: int, iy: int) -> tuple[float, float]:
        dx = (self.x_max - self.x_min) / self.resolution
        dy = (self.y_max - self.y_min) / self.resolution
        return (self.x_min + (ix + 0.5) * dx, self.y_min + (iy + 0.5) * dy)


@dataclass
class AmoebaRaster:
    window: LogWindow
    grid: np.ndarray  # bool, [ix, iy], True = amoeba pixel

    @cached_property
    def labels(self) -> np.ndarray:
        """4-connected labels of the non-amoeba pixels (0 = amoeba)."""
        from scipy import ndimage

        return ndimage.label(~self.grid, structure=FOUR_CONNECTED)[0]


@dataclass
class ComplementComponent:
    pixel_count: int
    representative: tuple[float, float]
    bounded: bool
    order: Optional[tuple[int, ...]] = None
    label: int = 0
    deep_pixels: list[tuple[int, int]] = field(default_factory=list)


def _term_arrays(p) -> tuple[np.ndarray, np.ndarray]:
    """Exponents and complex coefficients; DomainError if one overflows or is 0."""
    terms = p.sorted_terms()
    try:
        coeffs = np.array([complex(c) for _, c in terms], dtype=complex)
        finite = np.isfinite(coeffs).all() and coeffs.all()
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError("a coefficient overflows or is 0 as a complex float")
    return np.array([e for e, _ in terms], dtype=float), coeffs


def adaptive_window(p, resolution: int = 400, angular_samples: int = 512) -> LogWindow:
    """Window around the tropical skeleton of the polynomial.

    Collects the tie points of triples of weighted monomials (the tropical
    vertices), pads the bounding box and enforces a minimum half-width so
    that small examples keep their familiar frames.  All triples are solved
    in one stacked determinant and one stacked solve.
    """
    if p.n != 2:
        raise DomainError("the adaptive window is implemented for two variables")
    exps = _term_arrays(p)[0]
    logs = np.array([math.log(abs(complex(c))) for _, c in p.sorted_terms()])
    triples = np.array(list(itertools.combinations(range(len(logs)), 3)), dtype=int)
    i, j, k = triples.reshape(-1, 3).T
    mats = np.stack([exps[j] - exps[i], exps[k] - exps[i]], axis=1)  # (triples, 2, 2)
    rhs = np.stack([logs[i] - logs[j], logs[i] - logs[k]], axis=1)
    solvable = np.abs(np.linalg.det(mats)) >= 1e-12
    ties = np.linalg.solve(mats[solvable], rhs[solvable, :, None])[:, :, 0]
    xs = np.append(ties[:, 0], 0.0)
    ys = np.append(ties[:, 1], 0.0)
    x_lo, x_hi = xs.min() - WINDOW_PAD, xs.max() + WINDOW_PAD
    y_lo, y_hi = ys.min() - WINDOW_PAD, ys.max() + WINDOW_PAD
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


def _check_support(p) -> None:
    """The amoeba layer's input check: DomainError unless p has two variables
    and its support has exact integer rank 2, i.e. spans the plane."""
    if p.n != 2:
        raise DomainError("amoeba analysis is implemented for two variables")
    exps = list(p.terms)
    if len(exps) < 2:
        raise DomainError("amoeba of a monomial is empty")
    if _rank([tuple(a - b for a, b in zip(e, exps[0])) for e in exps]) < 2:
        raise DomainError("degenerate support: the Newton polygon is not two-dimensional")


def rasterize_amoeba(p, w: LogWindow) -> AmoebaRaster:
    """Sampled amoeba of a bivariate (Laurent) polynomial."""
    _check_support(p)

    res = w.resolution
    grid = np.zeros((res, res), dtype=bool)
    v_bounds = ((w.y_min, w.y_max), (w.x_min, w.x_max))
    for axis, i, _, vals in _sweep(p, w):
        v_min, v_max = v_bounds[axis]
        iv = np.floor((vals - v_min) / ((v_max - v_min) / res)).astype(int)
        iv = iv[(iv >= 0) & (iv < res)]
        (grid if axis == 0 else grid.T)[i, iv] = True
    from scipy import ndimage

    grid = ndimage.binary_dilation(grid, iterations=DILATION_PIXELS)
    return AmoebaRaster(w, grid)


def _sweep(p, w: LogWindow):
    """The per-column view of ``_sweep_blocks``: (axis, column, u, finite
    log-moduli over the whole ring of angles), the mirrored slot N - 1 - k
    a copy of solved angle k.  A generator, so that the raster never holds
    more than one block of columns of samples."""
    for axis, cols, us, logabs, mirrored in _sweep_blocks(p, w):
        for i, u, col in zip(cols.tolist(), us.tolist(), logabs):
            col = np.concatenate([col, col[:mirrored][::-1]])
            yield axis, i, u, col[np.isfinite(col)]


def _sweep_blocks(p, w: LogWindow):
    """The fiber sweep of the zero locus, one block of pixel columns at a time.

    For each axis and each block of consecutive columns of that coordinate,
    yields (axis, columns, u per column, log-moduli (columns, solved angles,
    roots) of the fiber roots in the other coordinate, NaN where a root did
    not converge or above a fiber's degree, mirrored angles).  The solved
    angles are the ring ``_ring``; the last ``mirrored`` angles of the whole
    ring of N repeat them, angle N - 1 - k the log-moduli of angle k.

    A block has about ``FIBER_BLOCK_ROWS`` fibers, solved together because
    one solve per column leaves the root solver little to batch over.  The
    roots of a fiber do not depend on the block it is solved in.
    """
    exps, coeffs = _term_arrays(p)
    exps -= np.minimum(exps.min(axis=0), 0)  # a monomial factor moves no root
    n_angles = w.angular_samples
    angles = _ring(coeffs, n_angles)
    solved = len(angles)
    block = max(1, FIBER_BLOCK_ROWS // solved)
    log_abs_c = np.log(np.abs(coeffs))
    u_bounds = ((w.x_min, w.x_max), (w.y_min, w.y_max))
    for axis in (0, 1):
        if exps[:, 1 - axis].max() == 0:
            continue
        phases = _ring_phases(exps, coeffs, 1 - axis, angles)
        u_min, u_max = u_bounds[axis]
        du = (u_max - u_min) / w.resolution
        for i0 in range(0, w.resolution, block):
            cols = np.arange(i0, min(i0 + block, w.resolution))
            us = u_min + (cols + 0.5) * du
            log_mod = np.zeros((len(cols), 2))
            log_mod[:, axis] = us
            roots = _fiber_roots(_fiber_rows(exps, log_abs_c, 1 - axis, log_mod, phases))
            with np.errstate(divide="ignore", invalid="ignore"):
                logabs = np.log(np.abs(roots)).reshape(len(cols), solved, -1)
            yield axis, cols, us, logabs, n_angles - solved


def _ring(coeffs: np.ndarray, n_angles: int) -> np.ndarray:
    """The angles (k + 1/2) 2 pi / N of a ring of N fibers that need solving.

    Angle k pairs with N - 1 - k, theta with 2 pi - theta.  With real
    coefficients the fiber at 2 pi - theta is the conjugate of the fiber at
    theta: same root moduli, same count inside the unit circle.  So only the
    angles k < ceil(N / 2) are returned; an odd N keeps its middle angle pi
    once.  Any coefficient with a nonzero imaginary part breaks the symmetry,
    and then all N angles are returned.
    """
    solved = n_angles if coeffs.imag.any() else -(-n_angles // 2)
    return 2.0 * np.pi * (np.arange(solved) + 0.5) / n_angles


def _ring_phases(exps: np.ndarray, coeffs: np.ndarray, j: int, angles: np.ndarray) -> np.ndarray:
    """Unit phases e^{i(theta sum_{k != j} e_tk + arg c_t)}, (angles, terms),
    of the terms on a ring whose coordinates other than x_j all turn by theta."""
    turns = np.delete(exps, j, axis=1).sum(axis=1)
    return np.exp(1j * (angles[:, None] * turns + np.angle(coeffs)))


def _fiber_rows(
    exps: np.ndarray, log_abs_c: np.ndarray, j: int, log_mod: np.ndarray, phases: np.ndarray
) -> np.ndarray:
    """Coefficient rows, in x_j, of the fibers over a ring at each log-modulus.

    ``exps`` (terms, n) are nonnegative exponents and ``log_abs_c`` the logs
    of the coefficient moduli; ``log_mod`` (columns, n) holds real
    log-moduli, column j ignored, and ``phases`` (angles, terms) is
    ``_ring_phases``.  Row c * angles + a is the fiber at column c and angle
    a; its entry k is the coefficient of x_j^k.  A term's weight is its
    modulus, which depends on the column alone, times its phase, which
    depends on the angle alone: one real exponential per column and term,
    and the phases once per ring.  Each row is scaled by its largest term in
    log space: huge coefficient ranges would otherwise overflow exp and
    poison the fibers.
    """
    others = np.arange(exps.shape[1]) != j
    log_w = log_mod[:, others] @ exps[:, others].T + log_abs_c  # (columns, terms)
    moduli = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    sj = exps[:, j].astype(int)
    rows = np.zeros((len(log_mod), len(phases), sj.max() + 1), dtype=complex)
    # each term into its slot, in term order; no BLAS, whose threads cost
    # more than the few additions of a slot at this size
    for t, k in enumerate(sj.tolist()):
        rows[:, :, k] += moduli[:, t, None] * phases[:, t]
    return rows.reshape(-1, sj.max() + 1)


def complement_components(r: AmoebaRaster) -> list[ComplementComponent]:
    """4-connected components of the non-amoeba pixels, deepest pixel first.

    Each keeps up to eight of its pixels deepest by Euclidean distance to
    the amoeba, deepest first and ties in raster order; the representative
    is the centre of the first.
    """
    from scipy import ndimage

    labels = r.labels.ravel()
    depth = ndimage.distance_transform_edt(~r.grid).ravel()
    counts = np.bincount(labels)
    edge = r.labels[[0, -1]].ravel(), r.labels[:, [0, -1]].ravel()
    unbounded = set(np.concatenate(edge).tolist())
    by_depth = np.lexsort((-depth, labels))  # stable: ties stay in raster order
    groups = np.split(by_depth, np.cumsum(counts)[:-1])  # group 0 is the amoeba
    comps = []
    for lab in range(1, len(counts)):
        ix, iy = np.unravel_index(groups[lab][:8], r.grid.shape)
        deep = list(zip(ix.tolist(), iy.tolist()))
        comps.append(
            ComplementComponent(
                pixel_count=int(counts[lab]), representative=r.window.pixel_center(*deep[0]),
                bounded=lab not in unbounded, label=lab, deep_pixels=deep,
            )
        )
    comps.sort(key=lambda c: (-c.pixel_count, c.representative))
    return comps


def component_order(p, xi: Sequence[float]) -> tuple[int, ...]:
    """Order vector of the complement component containing the log-point xi.

    By the argument principle, order j is the number of roots of the fiber
    in x_j with log|x_j| < xi_j, the other x_k at modulus e^{xi_k}, for p
    shifted to nonnegative exponents, plus that shift: a monomial factor x^a
    adds a to every order.  The fiber is solved on the ring (``_ring``) of
    ``ORDER_ANGLES`` angles, all other coordinates turned together; for real
    coefficients half the ring stands for the whole.  A count
    that varies between angles (xi lies on the amoeba) or a root that did
    not converge raises ``NeedsDeeperPointError``.
    """
    xi = np.asarray(xi, dtype=float)
    exps, coeffs = _term_arrays(p)
    shift = np.minimum(exps.min(axis=0), 0)
    exps -= shift
    log_abs_c = np.log(np.abs(coeffs))
    angles = _ring(coeffs, ORDER_ANGLES)
    order = []
    for j in range(p.n):
        # x_j = e^{xi_j} t: rows scaled at xi itself; count the roots with |t| < 1
        phases = _ring_phases(exps, coeffs, j, angles)
        rows = _fiber_rows(exps, log_abs_c + exps[:, j] * xi[j], j, xi[None, :], phases)
        roots = _fiber_roots(rows)
        degree = np.where(rows != 0, np.arange(rows.shape[1]), 0).max(axis=1)
        lost = (~np.isnan(roots)).sum(axis=1) < degree
        counts = (np.abs(roots) < 1.0).sum(axis=1)
        if lost.any() or counts.min() < counts.max():
            raise NeedsDeeperPointError(
                f"fiber root count in x_{j} varies or a root did not converge at "
                f"{tuple(xi.tolist())}; pick a point deeper inside the component"
            )
        order.append(int(counts[0] + shift[j]))
    return tuple(order)


def _dominance_point(exps, logs, alpha, box):
    """Log-point maximizing the margin of the weighted monomial alpha.

    Solves the linear program max t subject to the monomial alpha
    outweighing every other term by at least t in log scale,
    <e - alpha, xi> + t <= log|c_alpha| - log|c_e|, within the box of
    (low, high) bounds per coordinate.  Returns the mean of the vertices of
    the optimal face, or None unless the margin there is positive (alpha
    carrying no monomial has none).

    Each vertex of the LP is cut out by n + 1 of its rows.  An active set of
    rows starts as the box and the n + 2 exponents nearest alpha; all its
    vertices are solved in one stacked solve, and the rows its optimal
    vertices violate join it.  Rows only join, so there are at most as many
    rounds as terms; once no optimal vertex violates a row, the active
    set's optimal face is the LP's.
    """
    alpha = np.asarray(alpha, dtype=float)
    at = (exps == alpha).all(axis=1)
    if not at.any() or at.all():
        return None
    n = len(box)
    lo, hi = np.array(box, dtype=float).T
    d = exps[~at] - alpha
    terms = len(d)
    # rows A (xi, t) <= b: the terms, then xi_j <= hi_j and -xi_j <= -lo_j
    eye, zero = np.eye(n), np.zeros((n, 1))
    A = np.block([[d, np.ones((terms, 1))], [eye, zero], [-eye, zero]])
    b = np.concatenate([logs[at] - logs[~at], hi, -lo])
    # rounding slack, relative to the sizes of b and of the products A (xi, t)
    tol = 1e-12 * (1.0 + np.abs(b).max() + np.abs(d).sum(axis=1).max() * np.abs(b[terms:]).max())
    active = np.zeros(len(b), dtype=bool)
    active[np.argsort((d * d).sum(axis=1), kind="stable")[: n + 2]] = True
    active[terms:] = True
    for _ in range(terms):  # each round but the last adds a term row
        rows = np.flatnonzero(active)
        subsets = np.array(list(itertools.combinations(rows.tolist(), n + 1)))
        mats = A[subsets]
        cut = np.abs(np.linalg.det(mats)) > 0.5  # integer determinants: 0 or at least 1
        z = np.linalg.solve(mats[cut], b[subsets[cut], None])[:, :, 0]
        z = z[(A[rows] @ z.T <= b[rows, None] + tol).all(axis=0)]
        best = z[z[:, n] >= z[:, n].max() - tol]
        violated = (A @ best.T > b[:, None] + tol).any(axis=1)
        if not violated.any():
            break
        active |= violated
    best = best[np.unique(best.round(9), axis=0, return_index=True)[1]]  # once per vertex
    xi = np.clip(best[:, :n].mean(axis=0), lo, hi)
    if (b[:terms] - d @ xi).min() <= 0.0:
        return None
    return tuple(xi.tolist())


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff."""
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


def _scaled_coefficients(exps, coeffs, xi) -> tuple[np.ndarray, float]:
    """p's coefficients scaled at xi, c_e e^{<e, xi>}, largest modulus 1.

    Returns them with rho, a bound on their relative error: each is the
    exponential of a log summed from log|c_e| and <e, xi>, so its error is
    about the unit roundoff times the magnitudes of those logs.
    """
    log_c = np.log(np.abs(coeffs))
    logs = log_c + exps @ xi
    top = logs.max()
    w = np.exp(logs - top) * (coeffs / np.abs(coeffs))
    size = np.abs(log_c) + np.abs(exps) @ np.abs(xi)
    rho = _gamma(4) * float(np.max(1.0 + 2.0 * size + (top - logs)))
    return w, rho


def _cyclic_resultant(exps, w, rho: float, k: int):
    """Coefficients of Q, where R_k p(x) = prod_j p(zeta^j x) = Q(x^k).

    j runs over (Z/k)^2 and zeta = e^{2 pi i / k}.  p has the nonnegative
    integer exponents ``exps`` (terms, 2) and the coefficients ``w``, of
    largest modulus 1 and each within relative error ``rho``.  Q has degree
    k D_i in X_i, D_i the degree of p in x_i, so its coefficients are the
    discrete Fourier transform of its values on the g_0 x g_1 grid of roots
    of unity, g = k D + 1.  Those values are products of the values of p on
    the k^2 sub-grids {m + j g : m < g} of the (k g)-point torus grid, and
    each sub-grid is evaluated by two small matrix products.  The product
    is rescaled by powers of two as it grows.

    Returns (q, scale, err): q[beta] approximates 2^-scale Q_beta, and the
    sum over beta of |q[beta] - 2^-scale Q_beta| is at most err.  The bound
    follows the computation:
    - each value of p on the grid is within delta of exact, delta a gamma
      factor times sum |w| (two roots of unity within gamma_24 each, two
      complex inner products within gamma_{2 D_i + 6}, and rho);
    - so each value of the product V is within |V| (expm1(sum_j delta /
      (|P_j| - delta)) + gamma_{8 k^2}) of exact, the gamma term for the
      k^2 complex products;
    - the transform of that error has, by Parseval, an l1 norm over n =
      g_0 g_1 coefficients of at most its l2 norm, and the FFT adds at most
      log2(n) eta / (1 - log2(n) eta) ||V||_2 (Higham, Accuracy and
      Stability of Numerical Algorithms, 2nd ed., Thm 24.2), with
      eta = u + gamma_4 (sqrt 2 + u).
    Returns None when some value of p on the grid is within 2 delta of 0.
    """
    e = exps.astype(int)
    deg = e.max(axis=0)
    g = k * deg + 1
    coeff = np.zeros(tuple(deg + 1), dtype=complex)
    coeff[e[:, 0], e[:, 1]] = w
    # x^a at the grid points x = exp(2 pi i (j g + m) / (k g)), as (k, g, D + 1)
    powers = [
        np.exp(2j * np.pi * (np.outer(np.arange(k * gi), np.arange(di + 1)) % (k * gi)) / (k * gi))
        .reshape(k, gi, di + 1)
        for gi, di in zip(g.tolist(), deg.tolist())
    ]
    values = (powers[0] @ coeff)[:, None] @ powers[1].transpose(0, 2, 1)[None]  # (k, k, g0, g1)
    values = values.reshape(k * k, *g)
    delta = (3.0 * rho + _gamma(2 * int(deg.sum()) + 60 + len(w))) * float(np.abs(w).sum())
    size = np.abs(values)
    if size.min() <= 2.0 * delta:
        return None
    v = np.ones(tuple(g), dtype=complex)
    scale = 0
    for vals in values:
        v *= vals
        shift = math.frexp(float(np.abs(v).max()))[1]
        v *= 2.0 ** -shift  # exact
        scale += shift
    eta_v = np.expm1((delta / (size - delta)).sum(axis=0)) + _gamma(8 * k * k)
    levels = math.log2(v.size)
    eta_fft = UNIT_ROUNDOFF + _gamma(4) * (math.sqrt(2.0) + UNIT_ROUNDOFF)
    err = float(np.linalg.norm(np.abs(v) * eta_v)) + (
        levels * eta_fft / (1.0 - levels * eta_fft) * float(np.linalg.norm(v))
    )
    return np.fft.fft2(v) / v.size, scale, err


def lopsided_certificates(p, points, box) -> dict[tuple[int, ...], tuple[tuple[float, ...], int]]:
    """Certified representatives of complement components, by lattice point.

    For each lattice point alpha in ``points`` that carries a monomial, the
    dominance LP (``_dominance_point``) in ``box`` gives a log-point xi,
    rounded to 6 decimals.  Then k = 1 .. ``CERT_MAX_K`` are tried: if the
    cyclic resultant R_k p is lopsided at xi with dominant exponent k alpha
    in X = x^k, and its margin exceeds the rounding bound of
    ``_cyclic_resultant``, then xi lies outside the amoeba, in the
    complement component of order alpha (Purbhoo, Duke Math. J. 141, 2008).
    k = 1 is plain lopsidedness of p.  Returns {alpha: (xi, k)} for the
    certified points.
    """
    exps, coeffs = _term_arrays(p)
    logs = np.array([math.log(abs(c)) for c in coeffs])
    shift = exps.min(axis=0)
    lifted = exps - shift  # nonnegative: a monomial factor moves no certificate
    certs = {}
    for alpha in sorted(points):
        xi = _dominance_point(exps, logs, alpha, box)
        if xi is None:
            continue
        xi = tuple(round(v, 6) for v in xi)
        w, rho = _scaled_coefficients(lifted, coeffs, np.array(xi))
        top = tuple(int(a) for a in np.asarray(alpha) - shift)
        for k in range(1, CERT_MAX_K + 1):
            resultant = _cyclic_resultant(lifted, w, rho, k)
            if resultant is None:
                continue
            q, _, err = resultant
            size = np.abs(q)
            dom = size[tuple(k * a for a in top)]
            rest = size.sum() - dom
            # dom > rest makes k alpha the dominant exponent; the gamma term
            # covers the moduli and their sum
            if dom - rest > err + _gamma(size.size + 4) * (dom + rest):
                certs[alpha] = (xi, k)
                break
    return certs


def _report_box(w: LogWindow) -> tuple[tuple[float, float], tuple[float, float]]:
    """The report window shrunk by half about its centre: the LP box.

    Far out in a large window the fiber roots span so many orders of
    magnitude that root counts lose their footing; representatives stay in
    the middle half.
    """
    cx, cy = (w.x_min + w.x_max) / 2, (w.y_min + w.y_max) / 2
    hx, hy = (w.x_max - w.x_min) / 4, (w.y_max - w.y_min) / 4
    return (cx - hx, cx + hx), (cy - hy, cy + hy)


def _interior(N, alpha) -> bool:
    """alpha lies in the interior of the polygon N: its component is bounded."""
    return all(f.value(alpha) < 0 for f in N.facets)


def resolved_components(
    p, raster: AmoebaRaster, N=None, certificates=None
) -> tuple[list[ComplementComponent], list[str]]:
    """Complement components after exact-invariant post-processing.

    Raster components are first assigned winding orders.  Fragments sharing
    an order are merged: the order map of a genuine amoeba complement is
    injective, so equal orders certify fragments of one true component that
    a sampling artifact carved up.  Then the lopsidedness certificates of
    the lattice points of the Newton polytope N (``lopsided_certificates``,
    made here in the raster window's box unless given) are read: a
    certificate for an absent order proves a component the raster failed to
    separate, which is restored; a present order without one is noted.
    Notes record every correction.
    """
    raw = complement_components(raster)
    notes: list[str] = []
    for comp in raw:  # the first deep pixel whose winding count is well conditioned
        for pix in comp.deep_pixels:
            try:
                comp.order = component_order(p, raster.window.pixel_center(*pix))
                break
            except NeedsDeeperPointError:
                continue

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

    if N is None:
        N = newton_polytope(p)
    if certificates is None:
        certificates = lopsided_certificates(
            p, lattice_points(N).points, _report_box(raster.window)
        )
    for alpha in sorted(set(merged) - set(certificates)):
        notes.append(f"no lopsided certificate found for order {alpha}")
    for alpha, (xi, _) in sorted(certificates.items()):
        if alpha not in merged:
            merged[alpha] = ComplementComponent(
                pixel_count=0, representative=xi, bounded=_interior(N, alpha),
                order=alpha, label=0,
            )
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
    """Full amoeba-topology report: components, orders, optimality verdict.

    Optimal means one component per lattice point of the Newton polytope
    (the Forsberg-Passare-Tsikh bound); resolved orders are distinct.  Each
    lattice point is first tried for a lopsidedness certificate
    (``lopsided_certificates``) in the middle half of the report window
    (``w``, the raster's window, or ``adaptive_window``).  When no raster is
    given and every lattice point is certified, the certificates prove the
    verdict: one component per lattice point, bounded iff its order is
    interior, and no raster is made.  Otherwise the amoeba is rasterized and
    its components resolved, with the certificates restoring what the
    raster lacks.
    """
    _check_support(p)
    N = newton_polytope(p)
    if raster is not None:
        w = raster.window
    elif w is None:
        w = adaptive_window(p)
    points = lattice_points(N).points
    certs = lopsided_certificates(p, points, _report_box(w))
    certified = (
        f"{len(certs)} of {len(points)} lattice points certified by lopsided cyclic "
        f"resultants (largest k = {max((k for _, k in certs.values()), default=0)})"
    )
    if raster is None and len(certs) == len(points):
        comps = [
            ComplementComponent(
                pixel_count=0, representative=xi, bounded=_interior(N, alpha), order=alpha,
            )
            for alpha, (xi, _) in sorted(certs.items())
        ]
        return OptimalityReport(len(points), comps, True, True, [certified, "no raster needed"])

    if raster is None:
        raster = rasterize_amoeba(p, w)
    comps, notes = resolved_components(p, raster, N, certs)
    missing = set(N.vertices) - {c.order for c in comps}
    if missing:
        notes.append(f"window misses vertex components of orders {sorted(missing)}")
    inconclusive = missing or any(c.order is None for c in comps)
    verdict = None if inconclusive else len(comps) == len(points)
    notes += [certified, "boundedness is relative to the chosen window"]
    return OptimalityReport(len(points), comps, not missing, verdict, notes)


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
