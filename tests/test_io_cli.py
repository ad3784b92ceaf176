"""Serialization formats and the command-line interface."""

import argparse
import json
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hgamoeba import (
    GammaFactor,
    LaurentPolynomial,
    LinearForm,
    MomentImagePointCloud,
    OreSatoCoefficient,
    ParseError,
    amoeba,
    facet_description,
    horn_system,
    hypergeometric_polynomial,
    io,
    polynomial_from_coefficient,
    psi_from_polytope,
)
from hgamoeba.cli import build_parser, main
from conftest import P0_TERMS, P1_TERMS, QUADRILATERAL_VERTICES

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
    text = "".join(io.cloud_to_csv([cloud]))
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


def test_atomic_write_of_a_text_longer_than_one_slice(tmp_path):
    """Text of several 1 MiB slices, with multi-byte characters on the slice
    boundaries, is written byte for byte."""
    target = tmp_path / "big.txt"
    text = ("ab\u00e9\u2013\U0001d400\n" * 700_000)[: 3 * (1 << 20) + 5]
    io.atomic_write_text(str(target), text)
    assert target.read_bytes() == text.encode()


def test_cloud_csv_comes_in_bounded_slices(p3_paper, monkeypatch):
    """Each chunk holds at most CSV_SLICE_ROWS rows; together they are the
    rows of every cloud in order."""
    from hgamoeba import LogWindow, rasterize_wca

    cloud = rasterize_wca(p3_paper, LogWindow(-6, 6, -6, 6, 20, 64))
    monkeypatch.setattr(io, "CSV_SLICE_ROWS", 100)
    chunks = list(io.cloud_to_csv([cloud, cloud]))
    assert chunks[0] == "r,u,v\n"
    assert max(chunk.count("\n") for chunk in chunks) == 100
    rows = "".join(chunks[1:]).splitlines()
    want = [f"1.0,{u!r},{v!r}" for u, v in cloud.points.tolist()]
    assert rows == want + want


def _adversarial_points(seed: int) -> np.ndarray:
    """Seeded float64 (u, v) pairs: random bit patterns, subnormals, the band
    [1e-5, 1e-4), values >= 1e16 and named cases, with random signs.  These
    are the numbers whose notation orjson and repr write differently."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64)
    parts = [
        bits[np.isfinite(bits)],
        rng.integers(1, 2**52, 2_000, dtype=np.uint64).view(np.float64),  # subnormal
        rng.uniform(1e-5, 1e-4, 2_000),
        10.0 ** rng.uniform(16, 308, 2_000),
        rng.uniform(-5.0, 5.0, 2_000),
        [0.0, 1e-5, 1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-5, 0.0), 1e16,
         np.nextafter(1e16, 0.0), 5e-324, 1.7976931348623157e308],
    ]
    vals = np.concatenate(parts) * rng.choice([-1.0, 1.0], sum(len(p) for p in parts))
    named = [-0.0, 10.00001, -20.00003, 100.00002, 0.00001, -0.00001]
    vals = np.concatenate([vals, named, named[:-1]])  # an even count
    return rng.permutation(vals).reshape(-1, 2)


def _repr_rows(r: float, points) -> str:
    return "r,u,v\n" + "".join(f"{r!r},{u!r},{v!r}\n" for u, v in points.tolist())


@pytest.mark.parametrize("r", [1.0, 6.0, 2.5e-7, 1e16])
def test_cloud_csv_numbers_are_written_as_repr_writes_them(r):
    points = _adversarial_points(5)
    text = "".join(io.cloud_to_csv([MomentImagePointCloud(points, hadamard_order=r)]))
    assert text == _repr_rows(r, points)


def test_cloud_csv_of_a_strided_or_float32_array():
    points = _adversarial_points(6)
    strided = np.repeat(points, 2, axis=1)[:, ::2]
    assert not strided.flags.c_contiguous
    text = "".join(io.cloud_to_csv([MomentImagePointCloud(strided)]))
    assert text == _repr_rows(1.0, points)
    small = np.random.default_rng(6).uniform(-3.0, 3.0, (5_000, 2)).astype(np.float32)
    text = "".join(io.cloud_to_csv([MomentImagePointCloud(small)]))
    assert text == _repr_rows(1.0, small)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_cloud_csv_rejects_a_non_finite_point(bad):
    points = np.array([[0.5, 1.5], [2.0, bad]])
    with pytest.raises(ValueError):
        "".join(io.cloud_to_csv([MomentImagePointCloud(points)]))


def test_atomic_write_of_text_chunks(tmp_path):
    target = tmp_path / "out.txt"
    io.atomic_write_text(str(target), iter(["a\u00e9,", "", "b\n"]))
    assert target.read_bytes() == "a\u00e9,b\n".encode()


def test_atomic_write_gives_the_mode_of_a_plain_write(tmp_path):
    """A new file gets 0o666 less the umask, as open(path, "w") gives it; an
    existing file keeps its mode."""
    plain = tmp_path / "plain.txt"
    with open(plain, "w") as fh:
        fh.write("x")
    target = tmp_path / "out.txt"
    io.atomic_write_text(str(target), "x")
    assert os.stat(target).st_mode == os.stat(plain).st_mode
    os.chmod(target, 0o640)
    io.atomic_write_text(str(target), "y")
    assert os.stat(target).st_mode & 0o7777 == 0o640


def test_atomic_write_failing_late_keeps_the_old_file(tmp_path):
    """A text that fails to encode after its first slice leaves the old file
    and no temp file."""
    target = tmp_path / "out.txt"
    io.atomic_write_text(str(target), "old")
    with pytest.raises(UnicodeEncodeError):
        io.atomic_write_text(str(target), "x" * (1 << 20) + "\ud800")
    assert target.read_text() == "old"
    assert os.listdir(tmp_path) == ["out.txt"]


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


def test_cli_construct_split_support_warns_once(tmp_path, capsys):
    path = tmp_path / "thin.json"
    path.write_text(io.polytope_to_json(facet_description([(0, 0), (5, 1), (1, 5)])))
    assert main(["construct", str(path), "-o", str(tmp_path / "o.json")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: lattice support splits into")


def test_cli_construct_missing_file(tmp_path):
    assert main(["construct", str(tmp_path / "nope.json"), "-o", "x.json"]) == 3


@pytest.mark.parametrize("command", ["verify", "construct"])
def test_cli_unreadable_input_is_a_file_error(tmp_path, quad_psi_file, capsys, command):
    """A path that cannot be read exits 3 with one line, not a traceback and
    not exit 1, which would read as a false verdict."""
    argv = {
        "verify": ["verify", str(tmp_path), quad_psi_file],
        "construct": ["construct", str(tmp_path), "-o", str(tmp_path / "o.json")],
    }[command]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("file error: ")
    assert err[0].endswith(repr(str(tmp_path)))


def test_cli_failed_write_names_the_output_path(tmp_path, quad_polytope_file, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    target = os.path.join("missing_dir", "x.json")
    assert main(["construct", quad_polytope_file, "-o", target]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("file error: ")
    assert err[0].endswith(repr(target))
    assert os.listdir(tmp_path) == ["quad.json"]


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


def _oresato_file(tmp_path, n, factors):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({
        "n": n, "factors": [{"A": A, "c": "1", "sign": -1} for A in factors],
    }))
    return str(path)


def test_cli_factor_length_mismatch_is_a_parse_error(tmp_path, p3_file, capsys):
    phi = _oresato_file(tmp_path, 2, [[1, 0], [0, 1, 1]])
    assert main(["horn", phi, "-o", str(tmp_path / "h.json")]) == 3
    assert main(["verify", p3_file, phi]) == 3
    assert capsys.readouterr().err.count("parse error:") == 2


def test_cli_verify_dimension_mismatch_is_a_parse_error(tmp_path, quad_psi_file, capsys):
    line = tmp_path / "line.json"
    line.write_text(io.polynomial_to_json(LP(1, {(0,): 1, (1,): 1})))
    assert main(["verify", str(line), quad_psi_file]) == 3
    assert "parse error:" in capsys.readouterr().err


def test_cli_too_few_factors_is_a_domain_error(tmp_path, p3_file):
    phi = _oresato_file(tmp_path, 2, [[1, 1]])
    assert main(["horn", phi, "-o", str(tmp_path / "h.json")]) == 2
    assert main(["verify", p3_file, phi]) == 2


def test_cli_zero_exponential_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({
        "n": 1, "factors": [{"A": [1], "c": "1", "sign": -1}], "exponential": ["0"],
    }))
    assert main(["horn", str(path), "-o", str(tmp_path / "h.json")]) == 2
    assert "must be nonzero" in capsys.readouterr().err
    assert not (tmp_path / "h.json").exists()


def test_cli_verify_reads_the_rational_part_as_value_at(tmp_path):
    """The series of (s + 1) / (Gamma(s + 1) Gamma(5 - s)) solves its Horn system."""
    phi = OreSatoCoefficient(
        1,
        (GammaFactor((1,), 1, -1), GammaFactor((-1,), 5, -1)),
        rational_num=(LinearForm((1,), 1),),
    )
    pfile, phifile = tmp_path / "p.json", tmp_path / "phi.json"
    pfile.write_text(io.polynomial_to_json(polynomial_from_coefficient(phi, (0,), (4,))))
    phifile.write_text(io.oresato_to_json(phi))
    assert main(["verify", str(pfile), str(phifile)]) == 0


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


@pytest.mark.parametrize("name", ["line", "cross"])
def test_cli_amoeba_report_is_the_optimality_report(tmp_path, cross_poly, name):
    """`amoeba --report` writes the report `optimal --report` would write for
    the same raster, and the PPM still colours the resolved components."""
    p = cross_poly if name == "cross" else LP(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    pfile = tmp_path / "p.json"
    pfile.write_text(io.polynomial_to_json(p))
    ppm, rep = tmp_path / "a.ppm", tmp_path / "a.json"
    argv = ["amoeba", str(pfile), "-o", str(ppm), "--report", str(rep)]
    assert main(argv + ["--res", "100", "--angles", "128"]) == 0
    raster = amoeba.rasterize_amoeba(p, amoeba.adaptive_window(p, 100, 128))
    want = amoeba.optimality_report(p, raster=raster).to_json_dict()
    assert json.loads(rep.read_text()) == json.loads(json.dumps(want))
    comps, _ = amoeba.resolved_components(p, raster)
    assert ppm.read_bytes() == io.amoeba_ppm(raster.grid, comps, raster.labels)


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


def test_cli_optimal_support_with_a_gap(tmp_path, capsys):
    pfile = tmp_path / "gap.json"
    pfile.write_text(io.polynomial_to_json(LP(2, {(0, 0): 1, (2, 0): 1, (0, 1): 1})))
    rep = tmp_path / "rep.json"
    code = main(["optimal", str(pfile), "--report", str(rep), "--res", "100", "--angles", "128"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out.splitlines()[0] == "not optimal"
    assert err == ""
    report = json.loads(rep.read_text())
    assert report["optimal"] is False and report["lattice_points"] == 4
    assert len(report["components"]) == 3


@pytest.mark.parametrize("terms, count", [(P1_TERMS, 37), (P0_TERMS, 21)], ids=["p1", "p0"])
def test_cli_optimal_at_gallery_settings(tmp_path, capsys, terms, count):
    """At 200/256 the raster alone calls p1 and p0 not optimal; every lattice
    point carries a certificate, so the verdict needs no raster."""
    pfile = tmp_path / "p.json"
    pfile.write_text(io.polynomial_to_json(LP(2, {e: Fraction(c) for e, c in terms.items()})))
    rep = tmp_path / "rep.json"
    code = main(["optimal", str(pfile), "--report", str(rep), "--res", "200", "--angles", "256"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "optimal"
    assert out[1] == f"components: {count}  lattice points: {count}"
    assert len(json.loads(rep.read_text())["components"]) == count


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


def test_cli_hadamard_csv_has_the_mode_of_a_plain_write(tmp_path, p3_file):
    plain = tmp_path / "plain.csv"
    with open(plain, "w") as fh:
        fh.write("r,u,v\n")
    out = tmp_path / "h.csv"
    argv = ["hadamard", p3_file, "--r", "1", "-o", str(out), "--res", "24", "--angles", "64"]
    assert main(argv) == 0
    assert os.stat(out).st_mode == os.stat(plain).st_mode


def test_cli_hadamard_rejects_bad_input_before_touching_the_output(tmp_path, p3_file):
    """A signed coefficient (exit 2) or an empty --r (exit 3) is rejected
    before the clouds are made: the old output stays, and no temp file."""
    signed = tmp_path / "signed.json"
    signed.write_text(io.polynomial_to_json(LP(2, {(0, 0): 1, (1, 0): -1, (0, 1): 1})))
    out = tmp_path / "h.csv"
    out.write_text("old\n")
    for poly, r, code in ((str(signed), "1,2", 2), (p3_file, "", 3)):
        argv = ["hadamard", poly, "--r", r, "-o", str(out), "--res", "24", "--angles", "64"]
        assert main(argv) == code
        assert out.read_text() == "old\n"
    assert sorted(os.listdir(tmp_path)) == ["h.csv", "p3.json", "signed.json"]


@pytest.mark.parametrize("r", ["500", "nan", "inf", "1e6", "1,500"])
def test_cli_hadamard_power_outside_the_float_range_is_a_domain_error(tmp_path, capsys, r):
    """0.2^500 underflows, 2^1e6 overflows and a non-finite r has no cloud:
    exit 2 with no CSV, instead of the cloud of another polynomial, an
    empty cloud or a traceback."""
    pfile = tmp_path / "p.json"
    pfile.write_text(io.polynomial_to_json(
        LP(2, {(0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 1): Fraction(1, 5)})
    ))
    out = tmp_path / "h.csv"
    assert main(["hadamard", str(pfile), "--r", r, "-o", str(out), "--res", "24", "--angles", "64"]) == 2
    assert "float range" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["p.json"]


@pytest.mark.parametrize("coeff", [10 ** 400, Fraction(1, 10 ** 400)], ids=["huge", "tiny"])
@pytest.mark.parametrize(
    "argv",
    [["optimal", "--report", "r.json"], ["wca", "-o", "w.ppm"], ["hadamard", "--r", "1", "-o", "h.csv"]],
    ids=["optimal", "wca", "hadamard"],
)
@pytest.mark.parametrize("window", [[], ["--window=-5,5,-5,5"]], ids=["adaptive", "given"])
def test_cli_coefficient_outside_the_float_range_is_a_domain_error(tmp_path, capsys, coeff, argv, window):
    """Not a traceback (exit 1, which optimal uses for "not optimal") and
    not a parse error: exit 2 and no output file."""
    pfile = tmp_path / "p.json"
    pfile.write_text(io.polynomial_to_json(LP(2, {(0, 0): 1, (1, 0): coeff, (0, 1): 3})))
    cmd, *rest = argv
    rest = [str(tmp_path / v) if v.endswith((".json", ".ppm", ".csv")) else v for v in rest]
    assert main([cmd, str(pfile), *rest, *window, "--res", "24", "--angles", "64"]) == 2
    assert "input error" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["p.json"]


@pytest.mark.parametrize("window", ["-inf,inf,-5,5", "-1e308,1e308,-5,5", "-5,5,nan,5"])
def test_cli_non_finite_window_is_a_parse_error(tmp_path, window):
    """An infinite window, or one whose span overflows, would write NaN or
    Infinity into the JSON report: exit 3 and no report."""
    pfile = tmp_path / "p.json"
    pfile.write_text(io.polynomial_to_json(LP(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})))
    report = tmp_path / "r.json"
    argv = ["optimal", str(pfile), "--report", str(report), f"--window={window}",
            "--res", "32", "--angles", "64"]
    assert main(argv) == 3
    assert not report.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["optimal", "--report", "r.json"],
        ["amoeba", "-o", "a.ppm", "--report", "r.json"],
        ["wca", "-o", "w.ppm"],
        ["hadamard", "--r", "1,2", "-o", "h.csv"],
    ],
    ids=["optimal", "amoeba", "wca", "hadamard"],
)
def test_cli_three_variables_is_a_domain_error(tmp_path, capsys, argv):
    """psi of the 3-D cross-polytope is a valid polynomial that the planar
    commands do not handle: exit 2 and a two-variables message, not a parse
    error from the window's 2 x 2 solve."""
    P = facet_description(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    ).canonical_translate()
    pfile = tmp_path / "cross3.json"
    pfile.write_text(io.polynomial_to_json(hypergeometric_polynomial(P)))
    cmd, *rest = argv
    rest = [str(tmp_path / v) if v.endswith((".json", ".ppm", ".csv")) else v for v in rest]
    assert main([cmd, str(pfile), *rest, "--res", "24", "--angles", "64"]) == 2
    assert "two variables" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["cross3.json"]


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


@pytest.mark.parametrize("spec", ["1:2:0", "1:2:-1/2"])
def test_cli_aster_rejects_a_step_that_does_not_advance(tmp_path, spec):
    out = tmp_path / "aster.csv"
    assert main(["aster", "--b-range", spec, "-o", str(out)]) == 3
    assert main(["aster", "--c-range", spec, "-o", str(out)]) == 3
    assert not out.exists()


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


def test_readme_command_block_names_every_subcommand():
    """The README's command synopsis and the parser name the same subcommands."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert lines and all(line.startswith("hgamoeba ") for line in lines)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {line.split()[1] for line in lines} == set(sub.choices)
