"""Raw and resolved complement-component counts of the reference polynomials.

    python3 bench/figures.py [--res 400] [--angles 512]

Prints, per polynomial, the components of the raw raster, the components
after the program's merge-and-restore step and the merges and restores, as
the traced run's probes count them; then the lattice points of the Newton
polygon and the seconds spent outside the probes.  When the raster is right,
raw equals resolved.  This is the command behind the reference figures of
bench/README.md.
"""

from __future__ import annotations

import argparse
import sys
import time

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--res", type=int, default=400)
    ap.add_argument("--angles", type=int, default=512)
    args = ap.parse_args()
    run.limit_blas_threads()
    run.import_program()
    from fractions import Fraction

    from hgamoeba import LaurentPolynomial, amoeba

    import oracle
    import tracer
    import workloads as wl

    # Appell F1(-5; -4, -4; 3) from Pochhammer symbols: m, n <= 4 and m + n <= 5
    appell = {}
    for m in range(5):
        for n in range(min(4, 5 - m) + 1):
            coeff = Fraction(1)
            for i in range(m + n):
                coeff *= Fraction(-5 + i, 3 + i)
            for i in range(m):
                coeff *= Fraction(-4 + i, i + 1)
            for i in range(n):
                coeff *= Fraction(-4 + i, i + 1)
            appell[(m, n)] = coeff
    polys = {
        "p3": wl.polygon_terms(wl.QUADRILATERAL),
        "appell": appell,
        "p0": wl.P0,
        "p1": wl.P1,
    }
    t = tracer.Tracer(seed=1)
    restore, absent = tracer.install(t)
    if absent:
        sys.exit(f"absent layer targets: {' '.join(absent)}")
    print(f"{'poly':8} {'raw':>5} {'resolved':>9} {'merges':>7} {'restores':>9} "
          f"{'lattice':>8} {'seconds':>8}")
    try:
        for index, (name, terms) in enumerate(polys.items()):
            t.start_pass(index)
            start = time.perf_counter()
            p = LaurentPolynomial(2, {e: Fraction(c) for e, c in terms.items()})
            raster = amoeba.rasterize_amoeba(p, amoeba.adaptive_window(p, args.res, args.angles))
            amoeba.resolved_components(p, raster)
            seconds = time.perf_counter() - start - tracer.probe_seconds(t, index)
            counts = t.counts[index]
            hull = wl.hull_2d(terms)
            lattice = oracle.lattice_points(hull, oracle.polygon_facets(hull))
            print(f"{name:8} {counts['amoeba.raw_components']:5.0f} "
                  f"{counts['amoeba.resolved_components']:9.0f} {counts['amoeba.merges']:7.0f} "
                  f"{counts['amoeba.restores']:9.0f} {len(lattice):8d} {seconds:8.1f}", flush=True)
    finally:
        tracer.uninstall(restore)
    return 0


if __name__ == "__main__":
    sys.exit(main())
