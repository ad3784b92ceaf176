"""File formats: polynomial / polytope / Ore-Sato JSON, Horn serialization,
CSV scatters and PPM rasters.  Writers go through a temp file and an atomic
rename so that failed runs leave no partial output.

Cloud CSVs are large (one row per fiber-sweep sample), so they are
formatted in C by orjson, a slice of rows at a time, and come out byte for
byte as Python's ``repr`` would write them: shortest round-trip decimals.
Only a slice holding a nonzero magnitude outside [1e-4, 1e16) has its
notation rewritten.
numpy and orjson are imported inside the cloud and PPM writers, so reading
and writing the exact formats loads neither."""

from __future__ import annotations

import json
import os
import re
import tempfile
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import DomainError, ParseError
from .horn import GammaFactor, HornSystem, LinearForm, OreSatoCoefficient
from .laurent import LaurentPolynomial
from .polytope import IntegerPolytope, facet_description

if TYPE_CHECKING:
    import numpy as np


# -- atomic writing ------------------------------------------------------

def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write a string, or an iterable of string chunks, as UTF-8."""
    chunks = text
    if isinstance(text, str):
        # encoded in 1 MiB slices, so a large text is never copied whole as bytes
        step = 1 << 20
        chunks = (text[k : k + step] for k in range(0, len(text), step))
    _atomic_write(path, (chunk.encode() for chunk in chunks))


def _atomic_write(path: str, chunks: Iterable[bytes]) -> None:
    """Write through a temp file in the same directory and rename it over
    ``path``.  The file gets the mode a plain ``open(path, "w")`` would give:
    the old file's mode, or 0o666 less the umask for a new file."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        os.fchmod(fd, mode)
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            # the temp file's name means nothing to the caller; name ``path``
            raise OSError(exc.errno, exc.strerror, path) from exc
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
        terms = {}
        for item in data["terms"]:
            exp = tuple(int(e) for e in item["exp"])
            if exp in terms:
                raise ParseError(f"duplicate exponent {exp}")
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


def _forms_to_json(forms) -> list[dict]:
    return [{"A": list(f.A), "c": _rational_str(f.c)} for f in forms]


def _forms_from_json(items) -> tuple[LinearForm, ...]:
    return tuple(LinearForm(tuple(int(a) for a in f["A"]), Fraction(f["c"])) for f in items)


def oresato_to_json(phi: OreSatoCoefficient) -> str:
    data = {
        "n": phi.n,
        "factors": [
            {"A": list(f.A), "c": _rational_str(f.c), "sign": f.sign}
            for f in phi.factors
        ],
        "rational_num": _forms_to_json(phi.rational_num),
        "rational_den": _forms_to_json(phi.rational_den),
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
        num = _forms_from_json(data.get("rational_num", []))
        den = _forms_from_json(data.get("rational_den", []))
        expo = data.get("exponential")
        if expo is not None:
            expo = tuple(Fraction(v) for v in expo)
        return OreSatoCoefficient(n, factors, expo, num, den)
    except DomainError:
        raise
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


CSV_SLICE_ROWS = 1 << 16  # rows of cloud CSV text formatted at a time

# orjson and repr write the same shortest round-trip digits and differ only
# in notation: orjson writes exponents without repr's sign and two digits
# (1.5e-7 for 1.5e-07, 1e16 for 1e+16), and the band [1e-5, 1e-4) without an
# exponent (0.00001 for 1e-05).  Both write zeros and every magnitude in
# [1e-4, 1e16) alike, so a slice holding only those skips the rewrite.  Both
# patterns open with a literal, which the regex engine finds fast.
_EXPONENT = re.compile(rb"e(-?)([0-9]+)")
_BAND = re.compile(rb"0\.0000[0-9]+")


def _repr_exponent(match: re.Match) -> bytes:
    return b"e" + (match[1] or b"+") + match[2].rjust(2, b"0")


def _repr_band(match: re.Match) -> bytes:
    start = match.start()
    if start and match.string[start - 1] in b"0123456789.":
        return match[0]  # the tail of a number like 10.00001
    return repr(float(match[0])).encode()


def cloud_to_csv(clouds) -> Iterator[str]:
    """The clouds as CSV text (r, u, v per point), yielded in slices of at
    most ``CSV_SLICE_ROWS`` rows so that the whole text is never held.

    Numbers are the shortest decimals that read back to the same float64,
    byte for byte as ``repr`` writes them.  A non-finite point raises
    ValueError.
    """
    import numpy as np

    yield "r,u,v\n"
    for cloud in clouds:
        row_start = f"\n{float(cloud.hadamard_order)!r},".encode()
        for k in range(0, len(cloud.points), CSV_SLICE_ROWS):
            # orjson takes only C-contiguous arrays, and writes float32 digits for float32
            block = np.ascontiguousarray(cloud.points[k : k + CSV_SLICE_ROWS], dtype=np.float64)
            if not np.isfinite(block).all():
                raise ValueError("a cloud point is not finite")
            yield _csv_rows(block, row_start)


def _csv_rows(block: np.ndarray, row_start: bytes) -> str:
    """The rows of a finite (m, 2) float64 block, each opened by
    ``row_start[1:]``.  Each step rebinds ``text``, so at most two copies of
    the slice's text are held at a time."""
    import orjson  # here, not at module level: the import costs every command ~10 ms

    text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)  # [[u,v],[u,v],...]
    size = abs(block)
    if not (((size >= 1e-4) & (size < 1e16)) | (size == 0)).all():
        # only here do orjson's notation and repr's differ
        text = _BAND.sub(_repr_band, _EXPONENT.sub(_repr_exponent, text))
    text = text.replace(b"],[", row_start)
    text = b"".join((row_start[1:], memoryview(text)[2:-2], b"\n"))
    return text.decode()


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
    import numpy as np

    res_x, res_y = grid.shape
    img = np.full((res_x, res_y, 3), 255, dtype=np.uint8)
    if components is not None and labels is not None:
        palette = np.full((int(labels.max()) + 1, 3), 255, dtype=np.uint8)
        for comp in components:  # merged fragments are not listed: they stay white
            if comp.label:  # a restored component owns no pixels
                palette[comp.label] = _order_color(comp.order)
        img = palette[labels]
    img[grid] = (0, 0, 0)
    # image rows run top to bottom; our y-index runs bottom to top
    pixels = np.transpose(img, (1, 0, 2))[::-1]
    header = f"P6\n{res_x} {res_y}\n255\n".encode()
    return header + pixels.tobytes()


def wca_ppm(grid: np.ndarray, P: IntegerPolytope, bounds) -> bytes:
    """P6 image of a WCA occupancy grid with the Newton polygon outlined."""
    import numpy as np

    res_x, res_y = grid.shape
    img = np.full((res_x, res_y, 3), 255, dtype=np.uint8)
    img[grid] = (0, 0, 0)
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
    _atomic_write(path, [data])
