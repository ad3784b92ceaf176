"""Primary acceptance criteria.

Each test prints one PASS/FAIL line (collected in the terminal summary).
Exact-arithmetic criteria run with zero tolerance; the raster criteria run
at desk scale: resolution 400, 512 angular samples.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from hgamoeba import (
    LatticeSupport,
    LaurentPolynomial,
    adaptive_window,
    annihilator_for_support,
    appell_f1,
    complement_components,
    containment_violation,
    cross_polytope_optimal,
    facet_description,
    horn_system,
    hypergeometric_polynomial,
    is_horn_solution,
    lattice_points,
    newton_polytope,
    optimality_report,
    point_in_wca_gap,
    rasterize_amoeba,
    rasterize_wca,
    reflect_to_reciprocal,
    skeleton_approximation,
)
from hgamoeba import F1Parameters
from conftest import QUADRILATERAL_VERTICES, record_criterion

LP = LaurentPolynomial

RES = 400
ANGLES = 512

_report_cache: dict[str, object] = {}
_raw_labels: dict[str, set] = {}


def desk_report(name, p, res=RES):
    key = f"{name}@{res}"
    if key not in _report_cache:
        raster = rasterize_amoeba(p, adaptive_window(p, res, ANGLES))
        _raw_labels[key] = {c.label for c in complement_components(raster)}
        _report_cache[key] = optimality_report(p, raster=raster)
    return _report_cache[key]


def raster_repairs(name, res=RES):
    """None if the resolved components are exactly the raw raster components
    (nothing merged, dropped or restored), else a description."""
    key = f"{name}@{res}"
    raw = _raw_labels[key]
    resolved = {c.label for c in _report_cache[key].components}
    if resolved == raw:
        return None
    return f"{name}@{res}: {len(raw)} raw components, {len(resolved)} resolved"


def sweep_samples(p, res, angles):
    """Zero-locus samples of a full fiber sweep: the fibers in x_k have the
    width of the support in x_k as degree."""
    widths = [max(e[k] for e in p.terms) - min(e[k] for e in p.terms) for k in range(p.n)]
    return res * angles * sum(widths)


def run_criterion(num, name, fn):
    try:
        ok, detail = fn()
    except Exception:
        record_criterion(num, name, False)
        raise
    record_criterion(num, name, ok)
    assert ok, detail


# -- criterion 1: exact reconstruction ------------------------------------


def affine(n, A, c):
    terms = {(0,) * n: Fraction(c)}
    for j, a in enumerate(A):
        if a:
            e = [0] * n
            e[j] = 1
            terms[tuple(e)] = Fraction(a)
    return LP(n, terms)


def test_criterion_1_exact_reconstruction(p3_paper, p0_constructed,
                                          cross_poly, hirzebruch_poly):
    def check():
        failures = []

        def timed(label, fn):
            t0 = time.monotonic()
            ok = fn()
            dt = time.monotonic() - t0
            if not ok:
                failures.append(label)
            if dt >= 1.0:
                failures.append(f"{label} took {dt:.2f}s")

        # (a) boxes -> products of binomial powers
        def box_case():
            box = facet_description([(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 1),
                                     (2, 3, 0), (2, 0, 1), (0, 3, 1), (2, 3, 1)])
            expected = (
                affine(3, (1, 0, 0), 1) ** 2
                * affine(3, (0, 1, 0), 1) ** 3
                * affine(3, (0, 0, 1), 1)
            ).scaled_to_integers()
            return hypergeometric_polynomial(box) == expected

        timed("box", box_case)

        # (b) simplices -> (1 + sum x_j)^k
        def simplex_case():
            simplex = facet_description([(0, 0), (5, 0), (0, 5)])
            return hypergeometric_polynomial(simplex) == (
                affine(2, (1, 1), 1) ** 5
            ).scaled_to_integers()

        timed("simplex", simplex_case)

        # (c) 2D cross-polytope
        timed("cross", lambda: cross_poly == LP(
            2, {(1, 0): 1, (0, 1): 1, (1, 1): 4, (2, 1): 1, (1, 2): 1}
        ))

        # (d) Hirzebruch
        timed("hirzebruch", lambda: hirzebruch_poly == LP(
            2, {(1, 0): 3, (1, 1): 12, (2, 1): 2, (0, 2): 2, (1, 2): 3}
        ))

        # (e) quadrilateral polynomial, all 8 coefficients
        timed("quadrilateral", lambda: hypergeometric_polynomial(
            facet_description(QUADRILATERAL_VERTICES)
        ) == p3_paper)

        # (f) two marked coefficients of the confluent-system polynomial
        timed("confluent", lambda: (
            p0_constructed.coefficient((0, 0)) == 1
            and p0_constructed.coefficient((1, 0)) == 593775
            and p0_constructed.coefficient((1, 0)) == math.comb(30, 6)
            and p0_constructed.coefficient((1, 1)) == 39331656000
        ))

        return not failures, f"failed: {failures}"

    run_criterion(1, "exact reconstruction", check)


# -- criterion 2: Horn derivation -----------------------------------------


def test_criterion_2_horn_operators(phi_two_lines):
    def check():
        H = horn_system(phi_two_lines)
        refs = [
            (
                affine(2, (2, -1), -2) * affine(2, (2, -1), -1),
                affine(2, (1, -2), 2) * affine(2, (1, 1), -1),
            ),
            (
                affine(2, (1, -2), 1) * affine(2, (1, -2), 2),
                -1 * (affine(2, (2, -1), -2) * affine(2, (1, 1), -1)),
            ),
        ]
        ok = True
        for (P, Q), (Pr, Qr) in zip(H.pairs, refs):
            ok = ok and (
                (P == Pr and Q == Qr) or (P == -1 * Pr and Q == -1 * Qr)
            )
        return ok, f"derived pairs {H.pairs} do not match the reference"

    run_criterion(2, "Horn derivation", check)


# -- criterion 3: exact solution verification -----------------------------


def test_criterion_3_solution_verification(
    phi_two_lines, phi0, phi1, phi2, p0_constructed, p1_paper, p2_paper
):
    def check():
        t0 = time.monotonic()
        two_lines = LP(2, {(1, 0): 1, (0, 1): 1, (1, 1): 6, (2, 2): 1})
        cases = [
            (two_lines, phi_two_lines),
            (p0_constructed, phi0),
            (p1_paper, reflect_to_reciprocal(phi1)),
            (p2_paper, phi2),
        ]
        failures = []
        for k, (p, phi) in enumerate(cases):
            if not is_horn_solution(p, phi):
                failures.append(f"case {k} not recognized as a solution")
            exp = sorted(p.terms)[len(p.terms) // 2]
            perturbed = p + LP(2, {exp: 1})
            if is_horn_solution(perturbed, phi):
                failures.append(f"perturbed case {k} wrongly accepted")
        dt = time.monotonic() - t0
        if dt >= 10.0:
            failures.append(f"took {dt:.1f}s (limit 10s)")
        return not failures, str(failures)

    run_criterion(3, "exact solution verification", check)


# -- criterion 4: annihilator property ------------------------------------


def test_criterion_4_annihilator_property():
    def check():
        t0 = time.monotonic()
        rng = random.Random(20260826)
        failures = []
        for n, trials in ((2, 50), (3, 20)):
            for trial in range(trials):
                k = rng.randint(1, 12)
                pts = {
                    tuple(rng.randint(0, 8) for _ in range(n))
                    for _ in range(k)
                }
                p = LP(n, {
                    e: Fraction(rng.randint(1, 99), rng.randint(1, 13))
                    * (1 if rng.random() < 0.5 else -1)
                    for e in pts
                })
                phi = annihilator_for_support(LatticeSupport.of(n, p.support))
                if not is_horn_solution(p, phi, up_to_monomial=False):
                    failures.append(f"n={n} trial={trial}")
        dt = time.monotonic() - t0
        if dt >= 30.0:
            failures.append(f"took {dt:.1f}s (limit 30s)")
        return not failures, str(failures)

    run_criterion(4, "annihilator property", check)


# -- criterion 5: desk-scale amoeba topology ------------------------------


def test_criterion_5_amoeba_topology(
    cross_poly, hirzebruch_poly, p3_constructed, p0_constructed
):
    def check():
        failures = []
        polys = {
            "line": LP(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}),
            "two_lines_product": LP(
                2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
            ),
            "cross": cross_poly,
            "quadrilateral": p3_constructed,
            "hirzebruch": hirzebruch_poly,
            "confluent": p0_constructed,
        }
        reports = {}
        for name, p in polys.items():
            t0 = time.monotonic()
            reports[name] = desk_report(name, p)
            dt = time.monotonic() - t0
            if dt >= 180.0:
                failures.append(f"{name} took {dt:.0f}s (limit 180s)")

        rep = reports["line"]
        if len(rep.components) != 3 or {c.order for c in rep.components} != {
            (0, 0), (1, 0), (0, 1)
        }:
            failures.append("line: wrong components/orders")

        if len(reports["two_lines_product"].components) != 4:
            failures.append("two_lines_product: wrong component count")

        rep = reports["cross"]
        if len(rep.components) != 4 or (1, 1) in {c.order for c in rep.components}:
            failures.append("cross: wrong components (must lack order (1,1))")

        rep = reports["quadrilateral"]
        orders = {c.order: c for c in rep.components}
        if len(rep.components) != 8 or (2, 2) not in orders or not orders[(2, 2)].bounded:
            failures.append("quadrilateral: needs 8 components incl. bounded (2,2)")

        rep = reports["hirzebruch"]
        if len(rep.components) != 5 or rep.optimal is not True:
            failures.append("hirzebruch: needs 5 components, optimal")

        if reports["confluent"].optimal is not True:
            failures.append("confluent: optimal verdict expected")

        # stability under doubled resolution
        for name, p in polys.items():
            doubled = desk_report(name, p, res=2 * RES)
            if len(doubled.components) != len(reports[name].components):
                failures.append(
                    f"{name}: count {len(reports[name].components)} at {RES} vs "
                    f"{len(doubled.components)} at {2 * RES}"
                )

        # the raster is right on its own: post-processing repairs nothing
        for name in polys:
            for res in (RES, 2 * RES):
                repair = raster_repairs(name, res)
                if repair:
                    failures.append(repair)

        return not failures, str(failures)

    run_criterion(5, "desk-scale amoeba topology", check)


# -- criterion 6: cross-polytope criterion --------------------------------


def test_criterion_6_cross_polytope_criterion(cross_poly):
    def check():
        failures = []
        # 2D hypergeometric data: x + y + 4xy + x^2y + xy^2, normalized
        # center coefficient c = 4, a = b = (1, 1)
        closed_form = cross_polytope_optimal([1, 1], [1, 1], 4)
        numeric = desk_report("cross", cross_poly).optimal
        if closed_form or numeric is not False:
            failures.append("2D case: both verdicts must be 'not optimal'")

        # 3D canonical data: center coefficient 16, vertex coefficients 1
        P3d = facet_description(
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        ).canonical_translate()
        q = hypergeometric_polynomial(P3d)
        center = q.coefficient((1, 1, 1))
        verts = [q.coefficient(v) for v in P3d.vertices]
        if center != 16 or any(v != 1 for v in verts):
            failures.append(f"unexpected 3D coefficients: {center}, {verts}")
        if not cross_polytope_optimal([1, 1, 1], [1, 1, 1], int(center)):
            failures.append("3D case must be optimal")

        # boundary: sum sqrt(a_j b_j) == c/2 is not optimal (strict)
        if cross_polytope_optimal([1, 1], [1, 1], 4):
            failures.append("boundary case must be false")
        if cross_polytope_optimal([Fraction(9, 4)], [1], 3):
            failures.append("boundary case (single direction) must be false")

        return not failures, str(failures)

    run_criterion(6, "cross-polytope criterion", check)


# -- criterion 7: Appell instances ----------------------------------------


def test_criterion_7_appell(appell_5443):
    def check():
        t0 = time.monotonic()
        failures = []
        rep = desk_report("appell", appell_5443)
        npts = len(lattice_points(newton_polytope(appell_5443)).points)
        if rep.optimal is not True or len(rep.components) != npts:
            failures.append(
                f"pentagon instance: {len(rep.components)} components, "
                f"{npts} lattice points, verdict {rep.optimal}"
            )
        # at 400 the one-pixel dilation still cuts single pixels off the tips
        # of the small bounded components; at 800 the raster is right on its own
        desk_report("appell", appell_5443, res=2 * RES)
        repair = raster_repairs("appell", 2 * RES)
        if repair:
            failures.append(repair)
        tri = appell_f1(F1Parameters(-4, 5, -7, 9))
        if set(newton_polytope(tri).vertices) != {(0, 0), (4, 0), (0, 4)}:
            failures.append("triangle instance: Newton polygon is not a triangle")
        dt = time.monotonic() - t0
        if dt >= 300.0:
            failures.append(f"took {dt:.0f}s (limit 300s)")
        return not failures, str(failures)

    run_criterion(7, "Appell instances", check)


# -- criterion 8: moment maps ---------------------------------------------


def test_criterion_8_moment_maps(p3_constructed):
    def check():
        failures = []
        w = adaptive_window(p3_constructed, RES, ANGLES)
        cloud = rasterize_wca(p3_constructed, w)
        v = containment_violation(cloud, p3_constructed)
        if v > 1e-9:
            failures.append(f"plain WCA containment violated by {v}")

        h6 = p3_constructed.hadamard_power(6)
        cloud6 = rasterize_wca(h6, adaptive_window(h6, RES, ANGLES))
        v6 = containment_violation(cloud6, p3_constructed)
        if v6 > 1e-9:
            failures.append(f"Hadamard-6 WCA containment violated by {v6}")
        for label, q, c in (("plain", p3_constructed, cloud), ("Hadamard-6", h6, cloud6)):
            expected = sweep_samples(q, RES, ANGLES)
            if len(c.points) != expected:
                failures.append(f"{label} WCA has {len(c.points)} of {expected} samples")
        P = newton_polytope(p3_constructed)
        if not point_in_wca_gap(cloud6, P, (2.0, 2.0), resolution=RES):
            failures.append("(2,2) must lie in a WCA gap of the 6th power")
        if point_in_wca_gap(cloud6, P, (2.0, 0.5), resolution=RES):
            failures.append("(2,0.5) control point must not be a gap")
        return not failures, str(failures)

    run_criterion(8, "moment maps", check)


# -- criterion 9: paper-scale exclusions ----------------------------------


def test_criterion_9_stretch_and_exclusions(p1_paper, p3_constructed):
    def check():
        notes = []
        # the limit complex itself is out of scope; only the Hadamard-power
        # r-sequence is produced
        clouds = skeleton_approximation(
            p3_constructed, [1, 2, 4],
            adaptive_window(p3_constructed, 120, 128),
        )
        produced = [c.hadamard_order for c in clouds] == [1.0, 2.0, 4.0]

        # stretch goal (not gated): the 37-component octagon polynomial at
        # doubled resolution
        rep = desk_report("octagon", p1_paper, res=800)
        notes.append(
            f"octagon stretch: {len(rep.components)} components of "
            f"{rep.lattice_point_count} lattice points, verdict {rep.optimal}"
        )
        print(f"[stretch] {notes[-1]}")
        return produced, f"r-sequence not produced ({notes})"

    run_criterion(9, "paper-scale exclusions / stretch goal", check)
