"""Command-line interface: construction, Horn derivation and verification,
amoeba analysis and figure-style artifacts.

The numeric modules (amoeba, moment) are imported inside the commands that
use them, so the exact commands (construct, horn, verify, family) load no
numpy.

Exit codes: 0 success / true verdict, 1 false verdict, 2 input-domain error,
3 parse error, 4 inconclusive analysis.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction
from typing import TYPE_CHECKING

from . import families, io
from .errors import DegeneratePolytopeError, DomainError, HgamoebaError, ParseError
from .horn import (
    horn_system,
    hypergeometric_polynomial,
    is_horn_solution,
)
from .laurent import LaurentPolynomial
from .polytope import newton_polytope

if TYPE_CHECKING:
    from .amoeba import LogWindow

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_DOMAIN = 2
EXIT_PARSE = 3
EXIT_INCONCLUSIVE = 4


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_window(args, p) -> LogWindow:
    from . import amoeba as am

    if args.window:
        parts = [float(v) for v in args.window.split(",")]
        if len(parts) != 4:
            raise ParseError("--window expects xmin,xmax,ymin,ymax")
        return am.LogWindow(parts[0], parts[1], parts[2], parts[3],
                            args.res, args.angles)
    return am.adaptive_window(p, args.res, args.angles)


def _term_listing(p: LaurentPolynomial) -> str:
    lines = []
    for exp, c in p.sorted_terms():
        mono = " ".join(f"x{j + 1}^{e}" for j, e in enumerate(exp) if e)
        lines.append(f"{c}  {mono or '1'}")
    return "\n".join(lines) + "\n"


def cmd_construct(args) -> int:
    P = io.polytope_from_json(_read(args.polytope))
    P = P.canonical_translate()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p = hypergeometric_polynomial(P)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    io.atomic_write_text(args.output, io.polynomial_to_json(p))
    print(_term_listing(p), end="")
    return EXIT_OK


def cmd_horn(args) -> int:
    phi = io.oresato_from_json(_read(args.oresato))
    H = horn_system(phi)
    io.atomic_write_text(args.output, io.horn_to_json(H))
    print(f"derived {H.n} operator pairs")
    return EXIT_OK


def cmd_verify(args) -> int:
    p = io.polynomial_from_json(_read(args.polynomial))
    phi = io.oresato_from_json(_read(args.oresato))
    ok = is_horn_solution(p, phi)
    print("solution" if ok else "not a solution")
    return EXIT_OK if ok else EXIT_FALSE


def _analyze(args):
    from . import amoeba as am

    p = io.polynomial_from_json(_read(args.polynomial))
    w = _parse_window(args, p)
    return am.optimality_report(p, w)


def cmd_amoeba(args) -> int:
    from . import amoeba as am

    p = io.polynomial_from_json(_read(args.polynomial))
    raster = am.rasterize_amoeba(p, _parse_window(args, p))
    report = am.optimality_report(p, raster=raster)
    io.write_ppm(args.output, io.amoeba_ppm(raster.grid, report.components, raster.labels))
    io.atomic_write_text(args.report, json.dumps(report.to_json_dict(), indent=2))
    print(f"{len(report.components)} complement components")
    return EXIT_OK


def cmd_orders(args) -> int:
    report = _analyze(args)
    for c in report.components:
        kind = "bounded" if c.bounded else "unbounded"
        print(f"order {c.order}  {kind}  representative {c.representative}")
    return EXIT_OK


def cmd_optimal(args) -> int:
    report = _analyze(args)
    io.atomic_write_text(args.report, json.dumps(report.to_json_dict(), indent=2))
    if report.optimal is None:
        print("inconclusive: " + "; ".join(report.notes))
        return EXIT_INCONCLUSIVE
    print("optimal" if report.optimal else "not optimal")
    print(f"components: {len(report.components)}  lattice points: {report.lattice_point_count}")
    return EXIT_OK if report.optimal else EXIT_FALSE


def cmd_wca(args) -> int:
    from . import moment

    p = io.polynomial_from_json(_read(args.polynomial))
    w = _parse_window(args, p)
    cloud = moment.rasterize_wca(p, w, weighted=not args.unweighted)
    if args.format == "csv":
        io.atomic_write_text(args.output, io.cloud_to_csv([cloud]))
    else:
        P = newton_polytope(p)
        grid, bounds = moment.wca_occupancy(cloud, P, args.res)
        io.write_ppm(args.output, io.wca_ppm(grid, P, bounds))
    print(f"{len(cloud.points)} cloud points")
    return EXIT_OK


def cmd_hadamard(args) -> int:
    from . import moment

    p = io.polynomial_from_json(_read(args.polynomial))
    rs = [float(v) for v in args.r.split(",")]
    w = _parse_window(args, p)
    clouds = moment.hadamard_clouds(p, rs, w)  # checks p and rs before any file is touched
    io.atomic_write_text(args.output, io.cloud_to_csv(clouds))
    print(f"{len(rs)} Hadamard-power clouds")
    return EXIT_OK


def _parse_range(spec: str):
    start, stop, step = (Fraction(v) for v in spec.split(":"))
    if step <= 0:
        raise ParseError(f"range step must be positive, got {step}")
    vals = []
    v = start
    while v <= stop:
        vals.append(v)
        v += step
    return vals


def cmd_aster(args) -> int:
    rows = families.aster_scatter(args.a, _parse_range(args.b_range), _parse_range(args.c_range))
    io.atomic_write_text(args.output, io.aster_to_csv(rows))
    print(f"{len(rows)} roots")
    return EXIT_OK


def cmd_family(args) -> int:
    if args.name == "appell":
        a, b1, b2, c = (Fraction(v) for v in args.params.split(","))
        p = families.appell_f1(families.F1Parameters(a, b1, b2, c))
    elif args.name == "chebyshev":
        p = families.toeplitz_chebyshev(int(args.params), convention=args.minor_convention)
    elif args.name == "biorthogonal":
        alpha = tuple(int(v) for v in args.params.split(","))
        p = families.biorthogonal_vtilde(alpha)
    else:
        raise ParseError(f"unknown family {args.name!r}")
    io.atomic_write_text(args.output, io.polynomial_to_json(p))
    print(_term_listing(p), end="")
    return EXIT_OK


def cmd_gallery(args) -> int:
    """Regenerate small-scale analogues of the paper-style figures."""
    import os

    from . import amoeba as am
    from . import moment
    from .polytope import facet_description

    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    res, angles = args.res, args.angles

    jobs = {}
    jobs["hyperplane"] = LaurentPolynomial(
        2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    )
    jobs["two_lines"] = LaurentPolynomial(
        2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    )
    jobs["zsquare"] = LaurentPolynomial(
        2, {(1, 0): 1, (0, 1): 1, (1, 1): 6, (2, 2): 1}
    )
    jobs["cross_polytope"] = hypergeometric_polynomial(
        facet_description([(1, 0), (0, 1), (-1, 0), (0, -1)]).canonical_translate()
    )
    jobs["hirzebruch"] = hypergeometric_polynomial(
        facet_description([(1, 0), (0, 1), (-1, 1), (0, -1)]).canonical_translate()
    )
    jobs["quadrilateral"] = hypergeometric_polynomial(
        facet_description([(2, 0), (3, 2), (2, 3), (0, 1)])
    )
    jobs["appell"] = families.appell_f1(families.F1Parameters(-5, -4, -4, 3))
    jobs["chebyshev6_dense"] = families.chebyshev_dense(6)
    jobs["biorthogonal_6_10"] = families.biorthogonal_vtilde((6, 10))

    for name, p in jobs.items():
        raster = am.rasterize_amoeba(p, am.adaptive_window(p, res, angles))
        io.write_ppm(os.path.join(outdir, f"{name}_amoeba.ppm"), io.amoeba_ppm(raster.grid))
        io.atomic_write_text(
            os.path.join(outdir, f"{name}.json"), io.polynomial_to_json(p)
        )
        print(f"gallery: {name}")

    # weighted compactified amoeba of the 6th Hadamard power (quadrilateral)
    p3 = jobs["quadrilateral"]
    cloud = moment.rasterize_wca(p3.hadamard_power(6), am.adaptive_window(p3, res, angles))
    P3 = newton_polytope(p3)
    grid, bounds = moment.wca_occupancy(cloud, P3, res)
    io.write_ppm(os.path.join(outdir, "quadrilateral_wca_h6.ppm"), io.wca_ppm(grid, P3, bounds))
    print("gallery: quadrilateral_wca_h6")

    rows = families.aster_scatter(
        -12,
        [Fraction(k, 10) for k in range(1, 41)],
        [Fraction(k, 10) for k in range(1, 41)],
    )
    io.atomic_write_text(os.path.join(outdir, "aster.csv"), io.aster_to_csv(rows))
    print("gallery: aster")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hgamoeba")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_window_flags(sp, raster_use=None):
        sp.add_argument("--window", default=None, help="xmin,xmax,ymin,ymax in log space")
        sp.add_argument("--res", type=int, default=400,
                        help=raster_use and "raster pixels per axis" + raster_use)
        sp.add_argument("--angles", type=int, default=512,
                        help=raster_use and "fiber angles per raster column" + raster_use)

    # optimal and orders prove their answers by lopsidedness certificates first
    uncertified = "; the raster is made only if a lattice point stays uncertified"

    sp = sub.add_parser("construct", help="hypergeometric polynomial of a polytope")
    sp.add_argument("polytope")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("horn", help="derive the Horn system of an Ore-Sato coefficient")
    sp.add_argument("oresato")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=cmd_horn)

    sp = sub.add_parser("verify", help="check a polynomial against a Horn system")
    sp.add_argument("polynomial")
    sp.add_argument("oresato")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("amoeba", help="raster + component report")
    sp.add_argument("polynomial")
    sp.add_argument("-o", "--output", required=True, help="PPM path")
    sp.add_argument("--report", required=True, help="JSON report path")
    add_window_flags(sp)
    sp.set_defaults(func=cmd_amoeba)

    sp = sub.add_parser("orders", help="orders of the complement components")
    sp.add_argument("polynomial")
    add_window_flags(sp, uncertified)
    sp.set_defaults(func=cmd_orders)

    sp = sub.add_parser("optimal", help="optimality verdict")
    sp.add_argument("polynomial")
    sp.add_argument("--report", required=True)
    add_window_flags(sp, uncertified)
    sp.set_defaults(func=cmd_optimal)

    sp = sub.add_parser("wca", help="(weighted) compactified amoeba")
    sp.add_argument("polynomial")
    sp.add_argument("-o", "--output", required=True)
    sp.add_argument("--unweighted", action="store_true")
    sp.add_argument("--format", choices=["csv", "ppm"], default="ppm")
    add_window_flags(sp)
    sp.set_defaults(func=cmd_wca)

    sp = sub.add_parser("hadamard", help="WCA clouds of Hadamard powers")
    sp.add_argument("polynomial")
    sp.add_argument("--r", required=True, help="comma-separated power list")
    sp.add_argument("-o", "--output", required=True)
    add_window_flags(sp)
    sp.set_defaults(func=cmd_hadamard)

    sp = sub.add_parser("aster", help="2F1 root scatter over a parameter grid")
    sp.add_argument("--a", type=int, default=-12)
    sp.add_argument("--b-range", default="1/10:4:1/10")
    sp.add_argument("--c-range", default="1/10:4:1/10")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=cmd_aster)

    sp = sub.add_parser("family", help="emit a named polynomial family member")
    sp.add_argument("name", choices=["appell", "chebyshev", "biorthogonal"])
    sp.add_argument(
        "--params", required=True,
        help="appell: a,b1,b2,c; chebyshev: k; biorthogonal: a1,a2,...",
    )
    sp.add_argument("--minor-convention", choices=["first", "last"], default="first")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=cmd_family)

    sp = sub.add_parser("gallery", help="regenerate figure analogues")
    sp.add_argument("outdir")
    sp.add_argument("--res", type=int, default=200)
    sp.add_argument("--angles", type=int, default=256)
    sp.set_defaults(func=cmd_gallery)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DegeneratePolytopeError, DomainError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except HgamoebaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:  # a missing, unreadable or unwritable file
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, ZeroDivisionError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
