"""The conjugate-symmetric fiber sweep against a full sweep of every angle.

``full_sweep`` is the sweep as it was before the symmetry was used: it solves
all N angles of every column.  It is kept here as an independent oracle.
Swapped in for ``amoeba._sweep``, and as one-column blocks for
``moment._sweep_blocks``, it gives the rasters and clouds of the full sweep,
which the half sweep must reproduce.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from hgamoeba import (
    ComplexLaurentPolynomial,
    LaurentPolynomial,
    adaptive_window,
    rasterize_amoeba,
    rasterize_wca,
)
from hgamoeba import amoeba, moment

LP = LaurentPolynomial


def full_sweep(p, w):
    exps, coeffs = amoeba._term_arrays(p)
    exps -= np.minimum(exps.min(axis=0), 0)
    angles = 2.0 * np.pi * (np.arange(w.angular_samples) + 0.5) / w.angular_samples
    log_c = np.log(np.abs(coeffs)) + 1j * np.angle(coeffs)
    u_bounds = ((w.x_min, w.x_max), (w.y_min, w.y_max))
    for axis in (0, 1):
        u_min, u_max = u_bounds[axis]
        su = exps[:, axis].astype(int)
        sv = exps[:, 1 - axis].astype(int)
        deg = int(sv.max())
        if deg == 0:
            continue
        M = np.zeros((len(coeffs), deg + 1), dtype=float)
        M[np.arange(len(coeffs)), sv] = 1.0
        du = (u_max - u_min) / w.resolution
        for i in range(w.resolution):
            u = u_min + (i + 0.5) * du
            log_w = np.outer(u + 1j * angles, su) + log_c
            weights = np.exp(log_w - log_w.real.max(axis=1, keepdims=True))
            roots = amoeba._fiber_roots(weights @ M)
            with np.errstate(divide="ignore", invalid="ignore"):
                logabs = np.log(np.abs(roots))
            yield axis, i, u, logabs[np.isfinite(logabs)]


def oracle_raster(p, w):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(amoeba, "_sweep", full_sweep)
        return rasterize_amoeba(p, w).grid


def oracle_cloud(p, w):
    """The cloud of ``full_sweep``, each column a block of one column whose
    samples are one root each of solved angles, none mirrored."""
    columns = []

    def full_sweep_blocks(p, w):
        for axis, i, u, vals in full_sweep(p, w):
            columns.append(i)
            yield axis, np.array([i]), np.array([u]), vals.reshape(1, -1, 1), 0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moment, "_sweep_blocks", full_sweep_blocks)
        points = rasterize_wca(p, w).points
    assert len(columns) == 2 * w.resolution  # the oracle, not the sweep under test, ran
    return points


def rows_per_solve(monkeypatch):
    """Record the number of fiber rows of every ``_fiber_roots`` call.

    The sweep solves whole columns in blocks, so each call holds a multiple
    of the angles solved per column."""
    rows = []
    solve = amoeba._fiber_roots

    def counted(coeff_rows):
        rows.append(coeff_rows.shape[0])
        return solve(coeff_rows)

    monkeypatch.setattr(amoeba, "_fiber_roots", counted)
    return rows


def assert_solved_per_column(rows, solved, w):
    """Every column of both axes solves ``solved`` angles, in whole columns."""
    assert sum(rows) == 2 * w.resolution * solved
    assert all(n % solved == 0 for n in rows)


@pytest.fixture
def laurent():
    return LP(2, {(0, 0): 10, (1, 0): 2, (-1, 0): 1, (0, 1): 1, (0, -1): 3})


@pytest.fixture
def signed_laurent():
    return LP(2, {(0, 0): 10, (1, 0): -2, (-1, 0): 1, (0, 1): -1, (0, -1): 3})


@pytest.mark.parametrize("angles", [64, 65])
@pytest.mark.parametrize(
    "name", ["p1_paper", "p0_paper", "p3_paper", "cross_poly", "laurent", "signed_laurent"]
)
def test_raster_equals_the_full_sweep(name, angles, request, monkeypatch):
    p = request.getfixturevalue(name)
    w = adaptive_window(p, 64, angles)
    want = oracle_raster(p, w)
    rows = rows_per_solve(monkeypatch)
    got = rasterize_amoeba(p, w).grid
    assert want.any() and not want.all()
    assert np.array_equal(got, want)
    # an odd ring solves its self-conjugate angle pi once: 33 of 65
    assert_solved_per_column(rows, (angles + 1) // 2, w)


def test_complex_coefficients_sweep_every_angle(p3_paper, monkeypatch):
    q = p3_paper.monomial_substitution([[1, 0], [0, 1]], t=(0.8 + 0.6j, 1))
    assert isinstance(q, ComplexLaurentPolynomial)
    assert any(c.imag != 0 for c in q.terms.values())
    w = adaptive_window(q, 64, 64)
    want = oracle_raster(q, w)
    rows = rows_per_solve(monkeypatch)
    assert np.array_equal(rasterize_amoeba(q, w).grid, want)
    assert_solved_per_column(rows, 64, w)


def test_real_valued_fractional_hadamard_power_is_mirrored(p3_paper, monkeypatch):
    q = p3_paper.hadamard_power(0.5)
    assert isinstance(q, ComplexLaurentPolynomial)
    assert all(c.imag == 0 for c in q.terms.values())
    w = adaptive_window(q, 64, 64)
    want = oracle_raster(q, w)
    rows = rows_per_solve(monkeypatch)
    assert np.array_equal(rasterize_amoeba(q, w).grid, want)
    assert_solved_per_column(rows, 32, w)


def test_sweep_solves_blocks_of_columns(p1_paper, monkeypatch):
    """At 512 angles a real sweep solves 256 per column, 8 columns a block."""
    w = adaptive_window(p1_paper, 20, 512)
    rows = rows_per_solve(monkeypatch)
    columns = [i for _, i, _, _ in amoeba._sweep(p1_paper, w)]
    assert columns == list(range(20)) * 2
    assert amoeba.FIBER_BLOCK_ROWS == 2048
    assert rows == [2048, 2048, 1024] * 2


@pytest.mark.parametrize("power", [1, 6])
def test_wca_cloud_equals_the_full_sweep(power, p3_paper):
    """Same number of samples, and each within 1e-12 of one of the full
    sweep's; the order of roots inside a mirrored fiber may differ."""
    q = p3_paper.hadamard_power(power)
    w = adaptive_window(q, 48, 64)
    want = oracle_cloud(q, w)
    got = rasterize_wca(q, w).points
    widths = [max(e[k] for e in q.terms) - min(e[k] for e in q.terms) for k in (0, 1)]
    assert len(got) == len(want) == w.resolution * w.angular_samples * sum(widths)
    for a, b in ((got, want), (want, got)):
        dist, _ = cKDTree(b).query(a)
        assert dist.max() <= 1e-12


def slot_product_rows(exps, log_abs_c, j, log_mod, phases):
    """``_fiber_rows`` as a matrix product of the weights, column modulus
    times angle phase, with a 0/1 term-to-slot matrix: the reference for the
    per-slot sums."""
    others = np.arange(exps.shape[1]) != j
    log_w = log_mod[:, others] @ exps[:, others].T + log_abs_c
    moduli = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    weights = (moduli[:, None, :] * phases).reshape(-1, len(exps))
    sj = exps[:, j].astype(int)
    slots = np.zeros((len(exps), sj.max() + 1))
    slots[np.arange(len(exps)), sj] = 1.0
    return weights @ slots


def complex_exp_rows(exps, coeffs, j, log_mod, angles):
    """The fiber rows with each weight one complex exponential of its
    complex log, every coordinate but x_j turned by the angle."""
    others = np.arange(exps.shape[1]) != j
    log_x = (log_mod[:, None, :] + 1j * angles[:, None]).reshape(-1, exps.shape[1])
    log_w = log_x[:, others] @ exps[:, others].T + np.log(np.abs(coeffs)) + 1j * np.angle(coeffs)
    weights = np.exp(log_w - log_w.real.max(axis=1, keepdims=True))
    sj = exps[:, j].astype(int)
    slots = np.zeros((len(exps), sj.max() + 1))
    slots[np.arange(len(exps)), sj] = 1.0
    return weights @ slots


def seeded_blocks(name, request):
    """For each fiber coordinate j, a block of 8 columns of seeded
    log-moduli over a ring of 256 seeded angles: 2048 rows."""
    p = request.getfixturevalue(name)
    exps, coeffs = amoeba._term_arrays(p)
    exps -= np.minimum(exps.min(axis=0), 0)
    rng = np.random.default_rng(14)
    for j in range(p.n):
        log_mod = rng.uniform(-8, 8, (8, p.n))
        angles = rng.uniform(0, 2 * np.pi, 256)
        yield exps, coeffs, j, log_mod, angles


FIBER_ROW_POLYS = ["p1_paper", "p0_paper", "p3_paper", "appell_5443"]


@pytest.mark.parametrize("name", FIBER_ROW_POLYS)
def test_fiber_rows_equal_the_slot_matrix_product(name, request):
    """Bitwise, for both fiber coordinates, on a block of 2048 seeded rows."""
    for exps, coeffs, j, log_mod, angles in seeded_blocks(name, request):
        phases = amoeba._ring_phases(exps, coeffs, j, angles)
        log_abs_c = np.log(np.abs(coeffs))
        got = amoeba._fiber_rows(exps, log_abs_c, j, log_mod, phases)
        want = slot_product_rows(exps, log_abs_c, j, log_mod, phases)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", FIBER_ROW_POLYS)
def test_fiber_rows_are_within_rounding_of_the_complex_exponential(name, request):
    """Modulus times phase moves a coefficient by a few ulps of its row's
    largest weight, against one complex exponential per weight.  That weight
    is 1, the scale of the row; a slot sum can cancel far below it."""
    eps = np.finfo(float).eps
    for exps, coeffs, j, log_mod, angles in seeded_blocks(name, request):
        phases = amoeba._ring_phases(exps, coeffs, j, angles)
        got = amoeba._fiber_rows(exps, np.log(np.abs(coeffs)), j, log_mod, phases)
        want = complex_exp_rows(exps, coeffs, j, log_mod, angles)
        assert (np.abs(got - want) <= 4 * eps).all()
