"""File formats: polynomial / polytope / Ore-Sato JSON, Horn serialization,
CSV scatters and PPM rasters.  Writers go through a temp file and an atomic
rename so that failed runs leave no partial output."""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ParseError
from .horn import GammaFactor, HornSystem, LinearForm, OreSatoCoefficient
from .laurent import LaurentPolynomial
from .polytope import IntegerPolytope, facet_description


# -- atomic writing ------------------------------------------------------

def atomic_write_text(path: str, text: str) -> None:
    _atomic_write(path, text.encode())


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- polynomial JSON -----------------------------------------------------

def polynomial_to_json(p: LaurentPolynomial) -> str:
    terms = [
        {"exp": list(exp), "num": str(c.numerator), "den": str(c.denominator)}
        for exp, c in p.sorted_terms()
    ]
    return json.dumps({"n": p.n, "terms": terms}, indent=2)


def polynomial_from_json(text: str) -> LaurentPolynomial:
    try:
        data = json.loads(text)
        n = int(data["n"])
        seen = set()
        terms = {}
        for item in data["terms"]:
            exp = tuple(int(e) for e in item["exp"])
            if exp in seen:
                raise ParseError(f"duplicate exponent {exp}")
            seen.add(exp)
            terms[exp] = Fraction(int(item["num"]), int(item["den"]))
        return LaurentPolynomial(n, terms)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ParseError(f"malformed polynomial JSON: {exc}") from exc


# -- polytope JSON -------------------------------------------------------

def polytope_to_json(P: IntegerPolytope) -> str:
    return json.dumps({"n": P.n, "vertices": [list(v) for v in P.vertices]}, indent=2)


def polytope_from_json(text: str) -> IntegerPolytope:
    """Facets are always recomputed, never trusted from input."""
    try:
        data = json.loads(text)
        vertices = [tuple(int(x) for x in v) for v in data["vertices"]]
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ParseError(f"malformed polytope JSON: {exc}") from exc
    return facet_description(vertices)


# -- Ore-Sato JSON -------------------------------------------------------

def _rational_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def oresato_to_json(phi: OreSatoCoefficient) -> str:
    data = {
        "n": phi.n,
        "factors": [
            {"A": list(f.A), "c": _rational_str(f.c), "sign": f.sign}
            for f in phi.factors
        ],
        "rational_num": [
            {"A": list(f.A), "c": _rational_str(f.c)} for f in phi.rational_num
        ],
        "rational_den": [
            {"A": list(f.A), "c": _rational_str(f.c)} for f in phi.rational_den
        ],
    }
    if phi.exponential is not None:
        data["exponential"] = [_rational_str(t) for t in phi.exponential]
    return json.dumps(data, indent=2)


def oresato_from_json(text: str) -> OreSatoCoefficient:
    try:
        data = json.loads(text)
        n = int(data["n"])
        factors = tuple(
            GammaFactor(tuple(int(a) for a in f["A"]), Fraction(f["c"]), int(f["sign"]))
            for f in data.get("factors", [])
        )
        num = tuple(
            LinearForm(tuple(int(a) for a in f["A"]), Fraction(f["c"]))
            for f in data.get("rational_num", [])
        )
        den = tuple(
            LinearForm(tuple(int(a) for a in f["A"]), Fraction(f["c"]))
            for f in data.get("rational_den", [])
        )
        expo = data.get("exponential")
        if expo is not None:
            expo = tuple(Fraction(v) for v in expo)
        return OreSatoCoefficient(n, factors, expo, num, den)
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ParseError(f"malformed Ore-Sato JSON: {exc}") from exc


# -- Horn system serialization ------------------------------------------

def _graded_lex_terms(p: LaurentPolynomial):
    return sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))


def horn_to_json(H: HornSystem) -> str:
    pairs = []
    for P, Q in H.pairs:
        pairs.append(
            {
                "P": [
                    {"exp": list(e), "coeff": _rational_str(c)}
                    for e, c in _graded_lex_terms(P)
                ],
                "Q": [
                    {"exp": list(e), "coeff": _rational_str(c)}
                    for e, c in _graded_lex_terms(Q)
                ],
            }
        )
    return json.dumps({"n": H.n, "pairs": pairs}, indent=2)


# -- CSV -----------------------------------------------------------------

def aster_to_csv(rows) -> str:
    lines = ["b,c,re,im"]
    for b, c, z in rows:
        lines.append(f"{float(b)},{float(c)},{z.real!r},{z.imag!r}")
    return "\n".join(lines) + "\n"


def cloud_to_csv(clouds) -> str:
    lines = ["r,u,v"]
    for cloud in clouds:
        r = float(cloud.hadamard_order)
        for u, v in cloud.points.tolist():
            lines.append(f"{r!r},{u!r},{v!r}")
    return "\n".join(lines) + "\n"


# -- PPM rasters ---------------------------------------------------------

def _order_color(order) -> tuple[int, int, int]:
    if order is None:
        return (160, 160, 160)
    i, j = (int(order[0]), int(order[1])) if len(order) >= 2 else (int(order[0]), 0)
    return (
        (67 * i + 93 * j + 70) % 200 + 55,
        (131 * i + 29 * j + 120) % 200 + 55,
        (41 * i + 173 * j + 170) % 200 + 55,
    )


def amoeba_ppm(grid: np.ndarray, components=None, labels=None) -> bytes:
    """P6 image: amoeba pixels black, complement colored by component order."""
    res_x, res_y = grid.shape
    img = np.full((res_x, res_y, 3), 255, dtype=np.uint8)
    if components is not None and labels is not None:
        for comp in components:
            color = _order_color(comp.order)
            img[labels == comp.label] = color
    img[grid] = (0, 0, 0)
    # image rows run top to bottom; our y-index runs bottom to top
    pixels = np.transpose(img, (1, 0, 2))[::-1]
    header = f"P6\n{res_x} {res_y}\n255\n".encode()
    return header + pixels.tobytes()


def wca_ppm(grid: np.ndarray, P=None, bounds=None) -> bytes:
    """P6 image of a WCA occupancy grid with the Newton polygon outlined."""
    res_x, res_y = grid.shape
    img = np.full((res_x, res_y, 3), 255, dtype=np.uint8)
    img[grid] = (0, 0, 0)
    if P is not None and bounds is not None:
        x0, x1, y0, y1 = bounds
        verts = list(P.vertices)
        for k in range(len(verts)):
            a, b = verts[k], verts[(k + 1) % len(verts)]
            steps = 4 * max(res_x, res_y)
            ts = np.linspace(0.0, 1.0, steps)
            xs = a[0] + (b[0] - a[0]) * ts
            ys = a[1] + (b[1] - a[1]) * ts
            ix = np.clip(((xs - x0) / (x1 - x0) * res_x).astype(int), 0, res_x - 1)
            iy = np.clip(((ys - y0) / (y1 - y0) * res_y).astype(int), 0, res_y - 1)
            img[ix, iy] = (200, 30, 30)
    pixels = np.transpose(img, (1, 0, 2))[::-1]
    header = f"P6\n{res_x} {res_y}\n255\n".encode()
    return header + pixels.tobytes()


def write_ppm(path: str, data: bytes) -> None:
    _atomic_write(path, data)
