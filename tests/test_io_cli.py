"""Serialization formats and the command-line interface."""

import json
import os
from fractions import Fraction

import pytest

from hgamoeba import (
    GammaFactor,
    LaurentPolynomial,
    LinearForm,
    OreSatoCoefficient,
    ParseError,
    facet_description,
    horn_system,
    io,
    psi_from_polytope,
)
from hgamoeba.cli import main
from conftest import QUADRILATERAL_VERTICES

LP = LaurentPolynomial


# -- JSON round trips -----------------------------------------------------


def test_polynomial_round_trip(p3_paper):
    text = io.polynomial_to_json(p3_paper)
    assert io.polynomial_from_json(text) == p3_paper


def test_polynomial_fraction_round_trip():
    p = LP(2, {(-1, 2): Fraction(-3, 7), (0, 0): Fraction(22, 5)})
    assert io.polynomial_from_json(io.polynomial_to_json(p)) == p


def test_polynomial_duplicate_exponent_rejected():
    bad = json.dumps(
        {"n": 1, "terms": [
            {"exp": [0], "num": "1", "den": "1"},
            {"exp": [0], "num": "2", "den": "1"},
        ]}
    )
    with pytest.raises(ParseError):
        io.polynomial_from_json(bad)


def test_malformed_json_rejected():
    for text in ("{", "[]", '{"n": 2}', '{"n": "x", "terms": []}'):
        with pytest.raises(ParseError):
            io.polynomial_from_json(text)


def test_polytope_round_trip_recomputes_facets():
    P = facet_description(QUADRILATERAL_VERTICES)
    Q = io.polytope_from_json(io.polytope_to_json(P))
    assert Q.vertices == P.vertices
    assert set(Q.facets) == set(P.facets)


def test_oresato_round_trip():
    phi = OreSatoCoefficient(
        2,
        (GammaFactor((1, -2), Fraction(1, 3), -1), GammaFactor((0, 1), 2, 1)),
        exponential=(Fraction(5), Fraction(-1, 2)),
        rational_num=(LinearForm((1, 1), Fraction(-3)),),
        rational_den=(LinearForm((1, 0), Fraction(2)),),
    )
    back = io.oresato_from_json(io.oresato_to_json(phi))
    assert back == phi


def test_horn_serialization_has_pairs():
    H = horn_system(psi_from_polytope(facet_description(QUADRILATERAL_VERTICES)))
    data = json.loads(io.horn_to_json(H))
    assert data["n"] == 2
    assert len(data["pairs"]) == 2
    for pair in data["pairs"]:
        assert pair["P"] and pair["Q"]


# -- CSV and PPM ----------------------------------------------------------


def test_aster_csv_format():
    text = io.aster_to_csv([(Fraction(1, 2), Fraction(3), 0.25 - 1.5j)])
    lines = text.strip().split("\n")
    assert lines[0] == "b,c,re,im"
    assert lines[1].startswith("0.5,3.0,")


def test_cloud_csv_format(p3_paper):
    from hgamoeba import LogWindow, rasterize_wca

    cloud = rasterize_wca(p3_paper, LogWindow(-6, 6, -6, 6, 60, 64))
    text = io.cloud_to_csv([cloud])
    lines = text.strip().split("\n")
    assert lines[0] == "r,u,v"
    assert len(lines) == len(cloud.points) + 1


def test_ppm_header_and_size():
    import numpy as np

    grid = np.zeros((20, 30), dtype=bool)
    grid[3, 4] = True
    data = io.amoeba_ppm(grid)
    assert data.startswith(b"P6\n20 30\n255\n")
    assert len(data) == len(b"P6\n20 30\n255\n") + 20 * 30 * 3


# -- atomic writes --------------------------------------------------------


def test_atomic_write_no_temp_residue(tmp_path):
    target = tmp_path / "out.txt"
    io.atomic_write_text(str(target), "hello")
    assert target.read_text() == "hello"
    io.atomic_write_text(str(target), "world")
    assert target.read_text() == "world"
    assert [f for f in os.listdir(tmp_path) if f.endswith(".tmp")] == []


# -- CLI ------------------------------------------------------------------


@pytest.fixture()
def quad_polytope_file(tmp_path):
    path = tmp_path / "quad.json"
    path.write_text(
        io.polytope_to_json(facet_description(QUADRILATERAL_VERTICES))
    )
    return str(path)


@pytest.fixture()
def p3_file(tmp_path, p3_paper):
    path = tmp_path / "p3.json"
    path.write_text(io.polynomial_to_json(p3_paper))
    return str(path)


@pytest.fixture()
def quad_psi_file(tmp_path):
    path = tmp_path / "psi.json"
    phi = psi_from_polytope(facet_description(QUADRILATERAL_VERTICES))
    path.write_text(io.oresato_to_json(phi))
    return str(path)


def test_cli_construct(tmp_path, quad_polytope_file, p3_paper, capsys):
    out = tmp_path / "poly.json"
    code = main(["construct", quad_polytope_file, "-o", str(out)])
    assert code == 0
    assert io.polynomial_from_json(out.read_text()) == p3_paper
    assert "240" in capsys.readouterr().out


def test_cli_construct_missing_file(tmp_path):
    assert main(["construct", str(tmp_path / "nope.json"), "-o", "x.json"]) == 3


def test_cli_construct_degenerate(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "vertices": [[0, 0], [1, 1], [2, 2]]}))
    assert main(["construct", str(path), "-o", str(tmp_path / "o.json")]) == 2


def test_cli_horn_and_verify(tmp_path, p3_file, quad_psi_file):
    hout = tmp_path / "horn.json"
    assert main(["horn", quad_psi_file, "-o", str(hout)]) == 0
    assert json.loads(hout.read_text())["n"] == 2

    assert main(["verify", p3_file, quad_psi_file]) == 0

    bad = tmp_path / "p3bad.json"
    data = json.loads(open(p3_file).read())
    data["terms"][0]["num"] = str(int(data["terms"][0]["num"]) + 1)
    bad.write_text(json.dumps(data))
    assert main(["verify", str(bad), quad_psi_file]) == 1


def test_cli_verify_malformed(tmp_path, quad_psi_file):
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad), quad_psi_file]) == 3


def test_cli_amoeba_and_optimal(tmp_path, capsys):
    pfile = tmp_path / "line.json"
    pfile.write_text(
        io.polynomial_to_json(LP(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}))
    )
    ppm = tmp_path / "a.ppm"
    rep = tmp_path / "a.json"
    code = main([
        "amoeba", str(pfile), "-o", str(ppm), "--report", str(rep),
        "--res", "100", "--angles", "128",
    ])
    assert code == 0
    assert ppm.read_bytes().startswith(b"P6\n")
    report = json.loads(rep.read_text())
    assert len(report["components"]) == 3

    rep2 = tmp_path / "opt.json"
    code = main([
        "optimal", str(pfile), "--report", str(rep2),
        "--res", "100", "--angles", "128",
    ])
    assert code == 0
    assert json.loads(rep2.read_text())["optimal"] is True
    assert "optimal" in capsys.readouterr().out


def test_cli_optimal_false_verdict(tmp_path, cross_poly):
    pfile = tmp_path / "cross.json"
    pfile.write_text(io.polynomial_to_json(cross_poly))
    rep = tmp_path / "rep.json"
    code = main([
        "optimal", str(pfile), "--report", str(rep),
        "--res", "150", "--angles", "128",
    ])
    assert code == 1
    assert json.loads(rep.read_text())["optimal"] is False


def test_cli_orders(tmp_path, capsys):
    pfile = tmp_path / "line.json"
    pfile.write_text(
        io.polynomial_to_json(LP(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}))
    )
    assert main(["orders", str(pfile), "--res", "100", "--angles", "128"]) == 0
    out = capsys.readouterr().out
    assert "order (0, 0)" in out and "unbounded" in out


def test_cli_wca_and_hadamard(tmp_path, p3_file):
    out_csv = tmp_path / "wca.csv"
    code = main([
        "wca", p3_file, "-o", str(out_csv), "--format", "csv",
        "--res", "60", "--angles", "64",
    ])
    assert code == 0
    assert out_csv.read_text().startswith("r,u,v")

    out_h = tmp_path / "had.csv"
    code = main([
        "hadamard", p3_file, "--r", "1,2", "-o", str(out_h),
        "--res", "60", "--angles", "64",
    ])
    assert code == 0
    lines = out_h.read_text().strip().split("\n")
    assert {ln.split(",")[0] for ln in lines[1:]} == {"1.0", "2.0"}


def test_cli_csv_fields_are_numbers(tmp_path, p3_file):
    for cmd, extra in (("wca", ["--format", "csv"]), ("hadamard", ["--r", "1,2,6"])):
        out = tmp_path / f"{cmd}.csv"
        argv = [cmd, p3_file, "-o", str(out), "--res", "60", "--angles", "64", *extra]
        assert main(argv) == 0
        header, *rows = out.read_text().strip().split("\n")
        assert header == "r,u,v" and rows
        for row in rows:
            assert len([float(field) for field in row.split(",")]) == 3


def test_cli_aster(tmp_path):
    out = tmp_path / "aster.csv"
    code = main([
        "aster", "--a", "-3", "--b-range", "1:2:1", "--c-range", "1:1:1",
        "-o", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "b,c,re,im"
    assert len(lines) == 1 + 2 * 3  # two b values, 3 roots each


def test_cli_family(tmp_path, capsys):
    out = tmp_path / "f.json"
    assert main(["family", "appell", "--params=-1,-1,-1,1", "-o", str(out)]) == 0
    p = io.polynomial_from_json(out.read_text())
    assert p == LP(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})

    assert main(["family", "chebyshev", "--params", "2", "-o", str(out)]) == 0
    assert io.polynomial_from_json(out.read_text()) == LP(2, {(2, 0): 1, (0, 1): -1})

    assert main([
        "family", "chebyshev", "--params", "2",
        "--minor-convention", "last", "-o", str(out),
    ]) == 0
    assert io.polynomial_from_json(out.read_text()) == LP(2, {(0, 2): 1, (1, 0): -1})

    assert main(["family", "biorthogonal", "--params", "2,2", "-o", str(out)]) == 0


def test_cli_family_bad_params(tmp_path):
    out = tmp_path / "f.json"
    assert main(["family", "appell", "--params", "spam", "-o", str(out)]) == 3
    assert main(["family", "appell", "--params=1,1,1,3", "-o", str(out)]) == 2


def test_cli_window_parsing(tmp_path, p3_file):
    out = tmp_path / "w.csv"
    code = main([
        "wca", p3_file, "-o", str(out), "--format", "csv",
        "--window=-5,5,-5,5", "--res", "60", "--angles", "64",
    ])
    assert code == 0
    assert main([
        "wca", p3_file, "-o", str(out), "--format", "csv",
        "--window=-5,5,-5", "--res", "60", "--angles", "64",
    ]) == 3
