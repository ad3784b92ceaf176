"""The exact integer echelon and what is read off it, against sympy as an
exact oracle, and the import graph the kernel's home sets up."""

import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

from hgamoeba import InvalidTransformError, LaurentPolynomial
from hgamoeba.polytope import _echelon, _normal_from_rows, _pivot, _rank

SRC = Path(__file__).resolve().parent.parent / "src"


def seeded_matrix(rng, m, n):
    """An m-by-n integer matrix; for a third of them, with m >= 2, one row is
    forced to be an integer combination of the others."""
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
    if m >= 2 and rng.random() < 1 / 3:
        i = rng.randrange(m)
        others = [k for k in range(m) if k != i]
        j, k = rng.choice(others), rng.choice(others)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return [tuple(r) for r in rows]


def test_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1968)
    for _ in range(150):
        rows = seeded_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert _rank(rows) == sympy.Matrix(rows).rank()


def test_echelon_is_reduced_and_primitive_with_the_rows_span():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(22)
    for _ in range(60):
        rows = seeded_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        ech = _echelon(rows)
        pivots = [_pivot(r) for r in ech]
        assert pivots == sorted(set(pivots))
        for i, (r, k) in enumerate(zip(ech, pivots)):
            assert r[k] > 0 and gcd(*r) == 1
            assert all(other[k] == 0 for other in ech[:i] + ech[i + 1:])
        assert sympy.Matrix(list(ech) + rows).rank() == len(ech)


def test_normal_from_rows_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    nones = 0
    for _ in range(150):
        n = rng.randint(1, 6)
        rows = seeded_matrix(rng, n - 1, n)
        normal = _normal_from_rows(n, rows)
        if sympy.Matrix(rows).rank() < n - 1:
            assert normal is None
            nones += 1
            continue
        assert normal is not None and len(normal) == n
        assert gcd(*normal) == 1
        assert all(sum(a * b for a, b in zip(normal, r)) == 0 for r in rows)
    assert nones > 10


def test_monomial_substitution_singular_exactly_when_det_is_zero():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    singular = 0
    for _ in range(120):
        n = rng.randint(1, 6)
        v = seeded_matrix(rng, n, n)
        p = LaurentPolynomial(n, {(1,) * n: 1, (0,) * n: 2})
        if sympy.Matrix(v).det() == 0:
            singular += 1
            with pytest.raises(InvalidTransformError):
                p.monomial_substitution(v)
        else:
            assert p.monomial_substitution(v).n == n
    assert 10 < singular < 110


EXACT_MODULES = ["errors", "polytope", "laurent", "horn", "families", "io", "cli"]


def test_every_submodule_imports_first():
    """Each hgamoeba module imports with no other package module loaded, so
    the import graph between them has no cycle.  The package's own
    __init__ is bypassed, since it would import the modules in its order.
    The exact modules come first, and none of them loads numpy, which only
    the numeric layer (amoeba, moment, roots) needs.  With every module
    imported, none of the test-only oracles (sympy, mpmath, hypothesis) is
    loaded, nor orjson or any scipy module, which are imported where they
    are used so that no command pays for them at start-up."""
    code = (
        "import importlib, pkgutil, sys, types\n"
        f"path = [{str(SRC / 'hgamoeba')!r}]\n"
        f"exact = {EXACT_MODULES!r}\n"
        "names = sorted(m.name for m in pkgutil.iter_modules(path))\n"
        "assert set(exact) <= set(names), names\n"
        "for name in exact + sorted(set(names) - set(exact)):\n"
        "    for key in [k for k in sys.modules if k.split('.')[0] == 'hgamoeba']:\n"
        "        del sys.modules[key]\n"
        "    package = types.ModuleType('hgamoeba')\n"
        "    package.__path__ = path\n"
        "    sys.modules['hgamoeba'] = package\n"
        "    importlib.import_module('hgamoeba.' + name)\n"
        "    if name in exact:\n"
        "        assert 'numpy' not in sys.modules, name\n"
        "lazy = {'sympy', 'mpmath', 'hypothesis', 'orjson', 'scipy'}\n"
        "loaded = {k for k in sys.modules if k.split('.')[0] in lazy}\n"
        "assert not loaded, sorted(loaded)\n"
        "print(' '.join(names))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert {"laurent", "polytope", "horn", "amoeba"} <= set(done.stdout.split())


def test_certificate_only_optimal_loads_no_scipy(tmp_path, p1_paper):
    """The octagon p1 is proved optimal by certificates alone, so neither
    importing the package nor ``optimal`` on it loads scipy, which only
    rasters need."""
    from hgamoeba.io import polynomial_to_json

    pfile = tmp_path / "p1.json"
    pfile.write_text(polynomial_to_json(p1_paper))
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import hgamoeba.cli\n"
        f"code = hgamoeba.cli.main(['optimal', {str(pfile)!r}, '--report', "
        f"{str(tmp_path / 'r.json')!r}])\n"
        "assert code == 0, code\n"
        "loaded = sorted(k for k in sys.modules if k.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "optimal" in done.stdout


PUBLIC_NAMES = [
    "AmoebaRaster", "ComplementComponent", "ComplexLaurentPolynomial",
    "DegeneratePolytopeError", "DomainError", "F1Parameters", "Facet", "GammaFactor",
    "HgamoebaError", "HornSystem", "InexactCoefficientError", "IntegerPolytope",
    "InvalidTransformError", "LatticeSupport", "LaurentPolynomial", "LinearForm",
    "LogWindow", "MomentImagePointCloud", "NeedsDeeperPointError", "OptimalityReport",
    "OreSatoCoefficient", "ParseError", "aberth_roots_batch", "adaptive_window",
    "amoeba", "annihilator_for_support", "appell_f1", "apply_horn_operator",
    "aster_scatter", "biorthogonal_vtilde", "chebyshev_dense", "complement_components",
    "component_order", "containment_violation", "cross_polytope_optimal", "errors",
    "facet_description", "families", "gauss_2f1_polynomial", "horn", "horn_system",
    "hypergeometric_polynomial", "is_horn_solution", "is_zn_convex", "lattice_points",
    "laurent", "lopsided_certificates", "moment", "moment_map", "newton_polytope",
    "optimality_report", "pochhammer", "point_in_wca_gap", "polynomial_from_coefficient",
    "polytope", "psi_coefficient", "psi_from_polytope", "rasterize_amoeba",
    "rasterize_wca", "reflect_to_reciprocal", "require_exact", "resolved_components",
    "roots", "skeleton_approximation", "toeplitz_chebyshev", "univariate_roots",
    "wca_occupancy", "zn_connected_components",
]


def test_exact_commands_load_no_numpy(tmp_path, p3_paper):
    """construct, horn, verify and family compute in Fraction arithmetic, so
    neither importing the CLI nor running them loads numpy, scipy or orjson.
    The numeric names of the package are resolved on first access, and the
    public names are those an eager import of every module gave."""
    from hgamoeba import facet_description, psi_from_polytope
    from hgamoeba.io import oresato_to_json, polynomial_to_json, polytope_to_json

    quad = facet_description([(2, 0), (3, 2), (2, 3), (0, 1)])
    (tmp_path / "quad.json").write_text(polytope_to_json(quad))
    (tmp_path / "psi.json").write_text(oresato_to_json(psi_from_polytope(quad)))
    (tmp_path / "p3.json").write_text(polynomial_to_json(p3_paper))
    (tmp_path / "bad.json").write_text("{")
    commands = [
        (["construct", "quad.json", "-o", "p.json"], 0),
        (["horn", "psi.json", "-o", "h.json"], 0),
        (["verify", "p3.json", "psi.json"], 0),
        (["verify", "bad.json", "psi.json"], 3),
        (["family", "chebyshev", "--params", "6", "-o", "c.json"], 0),
    ]
    code = (
        "import os, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        f"os.chdir({str(tmp_path)!r})\n"
        "def numeric():\n"
        "    heavy = {'numpy', 'scipy', 'orjson'}\n"
        "    return sorted(k for k in sys.modules if k.split('.')[0] in heavy)\n"
        "import hgamoeba.cli\n"
        "assert not numeric(), numeric()\n"
        f"for argv, expected in {commands!r}:\n"
        "    assert hgamoeba.cli.main(argv) == expected, argv\n"
        "    assert not numeric(), (argv, numeric())\n"
        "import hgamoeba\n"
        "names = sorted(hgamoeba.__all__)\n"
        f"assert names == {PUBLIC_NAMES!r}, names\n"
        "assert hgamoeba.rasterize_amoeba is hgamoeba.amoeba.rasterize_amoeba\n"
        "scope = {}\n"
        "exec('from hgamoeba import *', scope)\n"
        "assert set(names) <= set(scope), sorted(set(names) - set(scope))\n"
        "assert scope['univariate_roots'] is hgamoeba.roots.univariate_roots\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "solution" in done.stdout
