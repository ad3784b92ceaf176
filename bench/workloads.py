"""The three workloads: their inputs, the CLI commands they run and the
checks each command's output must pass.

Inputs are written in the program's JSON formats by this module's own code;
every check compares against ``oracle`` or against how the input was built,
never against a stored copy of an earlier output.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle

# Faults of the program that make an operation fail every time on inputs
# that do not depend on the seed.  An operation whose only problems are of
# these kinds counts as failed; any other problem makes the run incorrect.
KNOWN_FAULTS = {
    "bounded-flag": (
        "optimal marks a component bounded although its order lies on the "
        "Newton polygon's boundary: the fiber root solve loses roots, so "
        "complement components leak into each other"
    ),
    "csv-number": (
        "io.cloud_to_csv writes numpy scalars with repr, which numpy 2 "
        "renders as np.float64(...), so the cloud CSV is not numeric CSV"
    ),
}

RES, ANGLES = "400", "512"  # the CLI defaults, spelled out
WCA_RES, WCA_ANGLES = "200", "256"


@dataclass
class Op:
    """One CLI command and the check of its outputs."""

    label: str
    argv: list[str]
    check: Callable[[int, str], list[tuple[str, str]]]


@dataclass
class Workload:
    warmup: list[Op]
    ops: list[Op]
    # rounds over ``ops`` an untraced run makes at the least, whatever --seconds says
    rounds: int = 1


# -- input data ------------------------------------------------------------

# p0 solves the confluent system with coefficient
# (Gamma(t+1) Gamma(1+6s-3t) Gamma(31-6s-2t))^{-1}; coefficients span 30
# orders of magnitude.
P0 = {
    (0, 0): 1, (1, 0): 593775, (2, 0): 86493225, (3, 0): 86493225,
    (4, 0): 593775, (5, 0): 1, (1, 1): 39331656000, (2, 1): 34936343442000,
    (3, 1): 55898149507200, (4, 1): 216324108000, (1, 2): 54513675216000,
    (2, 2): 2112950051372160000, (3, 2): 6867087666959520000,
    (4, 2): 10357598291040000, (2, 3): 15382276373989324800000,
    (3, 3): 169205040113882572800000, (4, 3): 33807200821954560000,
    (2, 4): 3045690722049886310400000, (3, 4): 639595051630476125184000000,
    (3, 5): 184203374869577124052992000000,
    (3, 6): 368406749739154248105984000000,
}
PHI0 = [((0, 1), 1), ((6, -3), 1), ((-6, -2), 31)]  # reciprocal Gamma factors (A, c)

# p1: the 37-term octagon polynomial, one complement component per lattice point.
P1 = {
    (2, 0): 21, (3, 0): 64, (4, 0): 21,
    (1, 1): 126, (2, 1): 2016, (3, 1): 4704, (4, 1): 2016, (5, 1): 126,
    (0, 2): 21, (1, 2): 2016, (2, 2): 22050, (3, 2): 47040, (4, 2): 22050,
    (5, 2): 2016, (6, 2): 21,
    (0, 3): 64, (1, 3): 4704, (2, 3): 47040, (3, 3): 98000, (4, 3): 47040,
    (5, 3): 4704, (6, 3): 64,
    (0, 4): 21, (1, 4): 2016, (2, 4): 22050, (3, 4): 47040, (4, 4): 22050,
    (5, 4): 2016, (6, 4): 21,
    (1, 5): 126, (2, 5): 2016, (3, 5): 4704, (4, 5): 2016, (5, 5): 126,
    (2, 6): 21, (3, 6): 64, (4, 6): 21,
}

# Lattice polygons in counterclockwise order, already at the canonical
# translate (componentwise minimum of the vertices at the origin).
CROSS2 = [(1, 0), (2, 1), (1, 2), (0, 1)]
HIRZEBRUCH = [(1, 0), (2, 1), (1, 2), (0, 2)]
QUADRILATERAL = [(2, 0), (3, 2), (2, 3), (0, 1)]
SIMPLEX_K = 5
BOX_HI = (2, 3, 1)
CROSS3_CENTER = (1, 1, 1)
TOEPLITZ_K = 14


def poly_json(n: int, terms: dict) -> str:
    items = [
        {"exp": list(e), "num": str(Fraction(c).numerator), "den": str(Fraction(c).denominator)}
        for e, c in sorted(terms.items())
    ]
    return json.dumps({"n": n, "terms": items})


def oresato_json(n: int, factors) -> str:
    """Reciprocal-only Ore-Sato coefficient 1/prod Gamma(<A, s> + c)."""
    return json.dumps({
        "n": n,
        "factors": [{"A": list(A), "c": str(c), "sign": -1} for A, c in factors],
    })


def psi_factors(facets):
    """psi = 1/prod Gamma(1 - <B, s> - c) as (A, c) pairs."""
    return [(tuple(-b for b in B), 1 - c) for B, c in facets]


def polygon_terms(vertices) -> dict:
    return oracle.psi_polynomial(vertices, oracle.polygon_facets(vertices))


def cross3_vertices(center):
    out = []
    for k in range(3):
        for d in (1, -1):
            out.append(tuple(c + (d if i == k else 0) for i, c in enumerate(center)))
    return out


def box_vertices(hi):
    return [tuple(v) for v in itertools.product(*((0, h) for h in hi))]


# -- reading outputs --------------------------------------------------------

def read_poly(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return {
        tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"])) for t in data["terms"]
    }


def exit_ok(rc: int, out: str):
    return [] if rc == 0 else [("exit", f"exit code {rc}")]


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# -- amoeba_optimal ----------------------------------------------------------

def hull_2d(points):
    """Counterclockwise convex hull (monotone chain), collinear points dropped."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def cross_polytope_optimal(terms: dict, center) -> bool:
    """Closed form for c + sum_j (a_j x_j + b_j / x_j): optimal iff
    sum_j sqrt(a_j b_j) < c / 2 (the boundary case is not optimal)."""
    c = float(terms[center])
    total = 0.0
    for j in range(2):
        up = tuple(v + (1 if k == j else 0) for k, v in enumerate(center))
        down = tuple(v - (1 if k == j else 0) for k, v in enumerate(center))
        total += math.sqrt(float(terms[up]) * float(terms[down]))
    return total < c / 2.0


def check_optimal(terms: dict, expected: bool, report_path: str, rng: random.Random,
                  winding_samples: int = 4):
    """Checks of one `hgamoeba optimal` run against the Newton polygon."""
    hull = hull_2d(terms)
    facets = oracle.polygon_facets(hull)
    lattice = set(oracle.lattice_points(hull, facets))
    items = sorted((e, Fraction(c)) for e, c in terms.items())

    def check(rc: int, out: str):
        problems = []
        if rc != (0 if expected else 1):
            problems.append(("verdict", f"exit code {rc}, expected {0 if expected else 1}"))
        first = out.splitlines()[0] if out else ""
        if first != ("optimal" if expected else "not optimal"):
            problems.append(("verdict", f"printed {first!r}"))
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        if report["optimal"] is not expected:
            problems.append(("verdict", f"report says optimal={report['optimal']}"))
        if report["lattice_points"] != len(lattice):
            problems.append(("lattice", f"{report['lattice_points']} lattice points, "
                                        f"brute force counts {len(lattice)}"))
        comps = report["components"]
        orders = [tuple(c["order"]) for c in comps if c["order"] is not None]
        if len(orders) != len(set(orders)):
            problems.append(("orders", "repeated orders"))
        if not set(orders) <= lattice:
            problems.append(("orders", f"orders off the lattice: {sorted(set(orders) - lattice)}"))
        if expected and (len(comps) != len(lattice) or set(orders) != lattice):
            problems.append(("orders", f"{len(comps)} components for {len(lattice)} lattice points"))
        if not expected and len(comps) >= len(lattice):
            problems.append(("orders", f"{len(comps)} components, verdict not optimal"))
        wrong = [tuple(c["order"]) for c in comps if c["order"] is not None
                 and c["bounded"] != oracle.is_interior(tuple(c["order"]), facets)]
        if wrong:
            problems.append(("bounded-flag", f"bounded flag wrong for orders {sorted(wrong)}"))
        with_order = [c for c in comps if c["order"] is not None]
        for c in rng.sample(with_order, min(winding_samples, len(with_order))):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            got = oracle.winding_order(items, c["representative"], angle)
            if got != tuple(c["order"]):
                problems.append(("winding", f"order {c['order']} at {c['representative']}, "
                                            f"mpmath root count gives {got}"))
        return problems

    return check


def amoeba_optimal(seed: int, work: str) -> Workload:
    """`hgamoeba optimal` at the CLI defaults on p1, p0 and the cross-polytope.

    The inputs do not depend on the seed; the seed picks the component
    representatives whose winding orders are recounted with mpmath.
    """
    rng = random.Random(seed)
    cross = polygon_terms(CROSS2)
    inputs = {
        "hirzebruch": (polygon_terms(HIRZEBRUCH), True),
        "p1": ({e: Fraction(c) for e, c in P1.items()}, True),
        "p0": ({e: Fraction(c) for e, c in P0.items()}, True),
        "cross": (cross, cross_polytope_optimal(cross, (1, 1))),
    }
    ops = {}
    for name, (terms, expected) in inputs.items():
        poly = os.path.join(work, f"{name}.json")
        report = os.path.join(work, f"{name}_report.json")
        _write(poly, poly_json(2, terms))
        # the warm-up pays imports and first calls; its size does not matter
        res, angles = ("100", "128") if name == "hirzebruch" else (RES, ANGLES)
        ops[name] = Op(
            f"optimal {name}",
            ["optimal", poly, "--report", report, "--res", res, "--angles", angles],
            check_optimal(terms, expected, report, random.Random(rng.random())),
        )
    return Workload([ops["hirzebruch"]], [ops["p1"], ops["p0"], ops["cross"]])


# -- wca_hadamard ------------------------------------------------------------

def scan_cloud_csv(path: str, facets, gap=(2.0, 2.0), filled=(2.0, 0.5)):
    """One streaming pass over a cloud CSV.

    numpy scalars written as ``np.float64(x)`` are a known fault: it is
    reported, and the checks go on with the numbers inside.  Returns
    (problems, stats): the Hadamard orders in file order, the
    largest facet violation, the distance from ``gap`` to the nearest r = 6
    point and the number of r = 6 points within 0.02 of ``filled``.
    """
    import numpy as np

    problems = []
    B = np.array([f[0] for f in facets], dtype=float)
    c = np.array([f[1] for f in facets], dtype=float)
    orders: list[float] = []
    worst = -math.inf
    gap_dist = math.inf
    near_filled = 0
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "r,u,v":
            problems.append(("csv-header", f"header {header!r}"))
        while True:
            text = "".join(fh.readlines(1 << 22))
            if not text:
                break
            if "np.float64(" in text:
                if not any(kind == "csv-number" for kind, _ in problems):
                    row = text[:text.index("\n")]
                    problems.append(("csv-number", f"row {row[:60]!r} is not three numbers"))
                text = text.replace("np.float64(", "").replace(")", "")
            arr = np.array(text.replace(",", " ").split(), dtype=float).reshape(-1, 3)
            rcol = arr[:, 0]
            for r in rcol[np.r_[0, np.flatnonzero(np.diff(rcol)) + 1]] if len(rcol) else []:
                if not orders or orders[-1] != r:
                    orders.append(float(r))
            pts = arr[:, 1:]
            if len(pts):
                worst = max(worst, float((pts @ B.T + c).max()))
            six = pts[arr[:, 0] == 6.0]
            if len(six):
                gap_dist = min(gap_dist, float(np.hypot(*(six - gap).T).min()))
                near_filled += int((np.hypot(*(six - filled).T) < 0.02).sum())
    return problems, {"orders": orders, "worst": worst,
                      "gap_dist": gap_dist, "near_filled": near_filled}


def check_hadamard(csv_path: str, facets, rs):
    def check(rc: int, out: str):
        problems = []
        if rc != 0:
            return [("exit", f"exit code {rc}")]
        if out.strip() != f"{len(rs)} Hadamard-power clouds":
            problems.append(("stdout", f"printed {out.strip()!r}"))
        found, stats = scan_cloud_csv(csv_path, facets)
        problems += found
        if stats["orders"] != [float(r) for r in rs]:
            problems.append(("clouds", f"Hadamard orders {stats['orders']}, expected {rs}"))
        if stats["worst"] > 1e-9:
            problems.append(("containment", f"a point lies {stats['worst']:.3g} outside the polygon"))
        if stats["gap_dist"] < 0.2:
            problems.append(("gap", f"r = 6 point at distance {stats['gap_dist']:.3g} from (2, 2)"))
        if stats["near_filled"] == 0:
            problems.append(("gap", "no r = 6 point near (2, 0.5)"))
        return problems

    return check


def read_ppm(path: str):
    import numpy as np

    with open(path, "rb") as fh:
        data = fh.read()
    parts = data.split(b"\n", 3)
    if parts[0] != b"P6" or parts[2] != b"255":
        raise ValueError("not a binary 8-bit PPM")
    w, h = (int(v) for v in parts[1].split())
    img = np.frombuffer(parts[3], dtype=np.uint8)
    if img.size != w * h * 3:
        raise ValueError(f"{img.size} bytes of pixels for {w}x{h}")
    return img.reshape(h, w, 3)


def check_wca_ppm(ppm_path: str, vertices, res: int):
    """The occupancy image spans the polygon's bounding box, row 0 on top."""
    import numpy as np

    facets = oracle.polygon_facets(vertices)
    lo = [min(v[k] for v in vertices) for k in range(2)]
    hi = [max(v[k] for v in vertices) for k in range(2)]

    def pixel(img, u, v):
        ix = math.floor((u - lo[0]) / (hi[0] - lo[0]) * res)
        iy = math.floor((v - lo[1]) / (hi[1] - lo[1]) * res)
        return tuple(int(x) for x in img[res - 1 - iy, ix])

    def check(rc: int, out: str):
        if rc != 0:
            return [("exit", f"exit code {rc}")]
        problems = []
        if not out.strip().endswith("cloud points"):
            problems.append(("stdout", f"printed {out.strip()!r}"))
        try:
            img = read_ppm(ppm_path)
        except ValueError as exc:
            return problems + [("ppm", str(exc))]
        if img.shape != (res, res, 3):
            return problems + [("ppm", f"image shape {img.shape}")]
        if pixel(img, 2.0, 2.0) != (255, 255, 255):
            problems.append(("gap", f"pixel at (2, 2) is {pixel(img, 2.0, 2.0)}, not blank"))
        if pixel(img, 2.0, 0.5) != (0, 0, 0):
            problems.append(("gap", f"pixel at (2, 0.5) is {pixel(img, 2.0, 0.5)}, not occupied"))
        black = np.argwhere((img == 0).all(axis=2))
        if len(black) == 0:
            problems.append(("ppm", "no occupied pixel"))
        else:
            # pixel centres, widened by the one-pixel dilation and the floor
            step = (hi[0] - lo[0]) / res
            u = lo[0] + (black[:, 1] + 0.5) * step
            v = lo[1] + (res - 1 - black[:, 0] + 0.5) * step
            pts = np.stack([u, v], axis=1)
            B = np.array([f[0] for f in facets], dtype=float)
            c = np.array([f[1] for f in facets], dtype=float)
            norms = np.linalg.norm(B, axis=1)
            worst = float(((pts @ B.T + c) / norms).max())
            if worst > 2.5 * step:
                problems.append(("containment", f"occupied pixel {worst:.3g} outside the polygon"))
        return problems

    return check


def wca_hadamard(seed: int, work: str) -> Workload:
    """`hgamoeba hadamard` on p3 with --r 1,2,6, then `hgamoeba wca` on p3's
    6th Hadamard power, at 200 x 256 samples.

    The hadamard input does not depend on the seed.  The wca input is the
    6th Hadamard power of a seeded constant multiple of p3, which has the
    same compactified amoeba.
    """
    rng = random.Random(seed)
    p3 = polygon_terms(QUADRILATERAL)
    scale = rng.randint(1, 999)
    h6 = {e: (scale * c) ** 6 for e, c in p3.items()}
    facets = oracle.polygon_facets(QUADRILATERAL)
    files = {k: os.path.join(work, k) for k in ("p3.json", "h6.json", "h.csv", "w.ppm")}
    _write(files["p3.json"], poly_json(2, p3))
    _write(files["h6.json"], poly_json(2, h6))
    size = ["--res", WCA_RES, "--angles", WCA_ANGLES]
    hadamard = Op("hadamard p3 r=1,2,6",
                  ["hadamard", files["p3.json"], "--r", "1,2,6", "-o", files["h.csv"]] + size,
                  check_hadamard(files["h.csv"], facets, [1, 2, 6]))
    wca = Op("wca p3^(6)", ["wca", files["h6.json"], "-o", files["w.ppm"]] + size,
             check_wca_ppm(files["w.ppm"], QUADRILATERAL, int(WCA_RES)))
    small = ["--res", "64", "--angles", "64"]
    warm = [
        Op("hadamard warm-up", ["hadamard", files["p3.json"], "--r", "1", "-o",
                                files["h.csv"]] + small, exit_ok),
        Op("wca warm-up", ["wca", files["h6.json"], "-o", files["w.ppm"]] + small, exit_ok),
    ]
    return Workload(warm, [hadamard, wca], rounds=2)


# -- exact_algebra -----------------------------------------------------------

def check_construct(out_path: str, expected: dict, lattice):
    def check(rc: int, out: str):
        if rc != 0:
            return [("exit", f"exit code {rc}")]
        got = read_poly(out_path)
        problems = []
        if set(got) != set(lattice):
            problems.append(("support", "support differs from the brute-force lattice points"))
        if got != expected:
            bad = sorted(e for e in set(got) | set(expected) if got.get(e) != expected.get(e))
            problems.append(("coefficients", f"coefficients differ at {bad[:4]}"))
        if len(out.splitlines()) != len(got):
            problems.append(("stdout", "term listing length differs from the polynomial"))
        return problems

    return check


def check_horn(out_path: str, facets, vertices):
    """psi(s) P_j(s) = psi(s + e_j) Q_j(s + e_j) on a box around the support."""
    n = len(vertices[0])
    lo = [min(v[k] for v in vertices) - 1 for k in range(n)]
    hi = [max(v[k] for v in vertices) + 1 for k in range(n)]
    box = list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))

    def check(rc: int, out: str):
        if rc != 0:
            return [("exit", f"exit code {rc}")]
        with open(out_path, encoding="utf-8") as fh:
            data = json.load(fh)
        pairs = data["pairs"]
        problems = []
        if len(pairs) != n:
            return [("horn", f"{len(pairs)} operator pairs for n = {n}")]
        for j, pair in enumerate(pairs):
            P = [(tuple(t["exp"]), Fraction(t["coeff"])) for t in pair["P"]]
            Q = [(tuple(t["exp"]), Fraction(t["coeff"])) for t in pair["Q"]]
            if not any(c for _, c in P) or not any(c for _, c in Q):
                problems.append(("horn", f"pair {j} has a zero operator"))
                continue
            for s in box:
                up = tuple(x + (1 if k == j else 0) for k, x in enumerate(s))
                lhs = oracle.psi(facets, s) * oracle.eval_poly(P, s)
                rhs = oracle.psi(facets, up) * oracle.eval_poly(Q, up)
                if lhs != rhs:
                    problems.append(("recurrence", f"direction {j} fails at s = {s}"))
                    break
        return problems

    return check


def check_verify(expect_solution: bool):
    def check(rc: int, out: str):
        want = (0, "solution") if expect_solution else (1, "not a solution")
        if (rc, out.strip()) != want:
            return [("verify", f"exit {rc} {out.strip()!r}, expected exit {want[0]} {want[1]!r}")]
        return []

    return check


def check_toeplitz(out_path: str, k: int, convention: str, points):
    def check(rc: int, out: str):
        if rc != 0:
            return [("exit", f"exit code {rc}")]
        terms = list(read_poly(out_path).items())
        for x, y in points:
            got = oracle.eval_poly(terms, (x, y))
            want = oracle.toeplitz_value(k, convention, x, y)
            if got != want:
                return [("toeplitz", f"minor at ({x}, {y}) is {got}, elimination gives {want}")]
        return []

    return check


def _seeded_shift(rng: random.Random, n: int):
    """A nonzero shift with first coordinate 0.

    The program scans candidate shifts with the first coordinate slowest,
    so the first coordinate alone would move an accepted shift's search
    time by up to a sixth from seed to seed.
    """
    while True:
        g = (0,) + tuple(rng.randint(-2, 2) for _ in range(n - 1))
        if any(g):
            return g


def _perturb(rng: random.Random, terms: dict) -> dict:
    out = dict(terms)
    e = rng.choice(sorted(out))
    out[e] = out[e] + Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return out


def exact_algebra(seed: int, work: str) -> Workload:
    """construct, horn, verify and family chebyshev through the CLI.

    The seed translates and reorders the polytopes, picks the monomial
    shifts and the perturbed term of the verified polynomials, and the
    rational points the minor is checked at.
    """
    rng = random.Random(seed)
    polytopes = {
        "box": (box_vertices(BOX_HI), oracle.box_facets(BOX_HI), oracle.box_polynomial(BOX_HI)),
        "simplex": ([(0, 0), (SIMPLEX_K, 0), (0, SIMPLEX_K)], None,
                    oracle.simplex_polynomial(SIMPLEX_K)),
        "cross2": (CROSS2, None, None),
        "hirzebruch": (HIRZEBRUCH, None, None),
        "quadrilateral": (QUADRILATERAL, None, None),
        "cross3": (cross3_vertices(CROSS3_CENTER), oracle.cross3_facets(CROSS3_CENTER), None),
    }
    construct_ops, horn_ops = [], []
    for name, (verts, facets, expected) in polytopes.items():
        n = len(verts[0])
        facets = facets or oracle.polygon_facets(verts)
        lattice = oracle.lattice_points(verts, facets)
        if expected is None:
            expected = oracle.psi_polynomial(verts, facets)
        offset = tuple(rng.randint(-5, 5) for _ in range(n))
        moved = [tuple(a + b for a, b in zip(v, offset)) for v in verts]
        shuffled = rng.sample(moved, len(moved))
        src = os.path.join(work, f"{name}_polytope.json")
        out = os.path.join(work, f"{name}_poly.json")
        _write(src, json.dumps({"n": n, "vertices": [list(v) for v in shuffled]}))
        construct_ops.append(Op(f"construct {name}", ["construct", src, "-o", out],
                                check_construct(out, expected, lattice)))
        moved_facets = oracle.translate_facets(facets, offset)
        src = os.path.join(work, f"{name}_psi.json")
        out = os.path.join(work, f"{name}_horn.json")
        _write(src, oresato_json(n, psi_factors(moved_facets)))
        horn_ops.append(Op(f"horn {name}", ["horn", src, "-o", out],
                           check_horn(out, moved_facets, moved)))

    verify_ops = []
    cross3 = cross3_vertices(CROSS3_CENTER)
    q3 = oracle.psi_polynomial(cross3, oracle.cross3_facets(CROSS3_CENTER))
    systems = {
        "p0": (2, {e: Fraction(c) for e, c in P0.items()}, oresato_json(2, PHI0)),
        "cross3": (3, q3, oresato_json(3, psi_factors(oracle.cross3_facets(CROSS3_CENTER)))),
    }
    for name, (n, terms, phi) in systems.items():
        phi_path = os.path.join(work, f"{name}_phi.json")
        _write(phi_path, phi)
        gamma = _seeded_shift(rng, n)
        shifted = {tuple(a + b for a, b in zip(e, gamma)): c for e, c in terms.items()}
        for kind, poly, ok in (("shifted", shifted, True), ("perturbed", _perturb(rng, shifted), False)):
            path = os.path.join(work, f"{name}_{kind}.json")
            _write(path, poly_json(n, poly))
            verify_ops.append(Op(f"verify {name} {kind} by {gamma}",
                                 ["verify", path, phi_path], check_verify(ok)))

    # the CLI's default convention, the same in every run: the other one costs
    # half a second less, which a seeded choice would add to the spread
    points = [(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(3)]
    out = os.path.join(work, "toeplitz.json")
    toeplitz = Op(f"family chebyshev {TOEPLITZ_K} first",
                  ["family", "chebyshev", "--params", str(TOEPLITZ_K),
                   "--minor-convention", "first", "-o", out],
                  check_toeplitz(out, TOEPLITZ_K, "first", points))

    warm_out = os.path.join(work, "warm.json")
    q3_path = os.path.join(work, "cross3_plain.json")
    _write(q3_path, poly_json(3, q3))
    warm = [
        construct_ops[2], horn_ops[2],
        Op("verify warm-up", ["verify", q3_path, os.path.join(work, "cross3_phi.json")],
           check_verify(True)),
        Op("family warm-up", ["family", "chebyshev", "--params", "4", "-o", warm_out],
           check_toeplitz(warm_out, 4, "first", points)),
    ]
    # a round is about 20 s of pure-Python arithmetic, whose speed drifts with
    # the host's load; a third round would not fit the run budget
    return Workload(warm, construct_ops + horn_ops + verify_ops + [toeplitz], rounds=2)


WORKLOADS = {
    "amoeba_optimal": amoeba_optimal,
    "wca_hadamard": wca_hadamard,
    "exact_algebra": exact_algebra,
}
