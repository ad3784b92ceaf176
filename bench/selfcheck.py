"""Shows that every check of the benchmark rejects a deliberately wrong answer.

    python3 bench/selfcheck.py

For each kind of command it runs the program once on a workload's input,
requires the genuine output to pass (apart from the known faults), then
damages the output in one way at a time and requires the check to report
the expected kind of problem.  Takes about half a minute.
"""

from __future__ import annotations

import json
import random
import shutil
import sys

import run


def expect(check, rc, out, kind, what, failures):
    kinds = {k for k, _ in check(rc, out)}
    status = "rejected" if kind in kinds else "NOT REJECTED"
    print(f"  {what}: {status} ({', '.join(sorted(kinds)) or 'no problem'})")
    if kind not in kinds:
        failures.append(what)


def genuine(check, rc, out, known, what, failures):
    kinds = {k for k, _ in check(rc, out)} - set(known)
    print(f"  {what}: {'accepted' if not kinds else 'REJECTED ' + ', '.join(sorted(kinds))}")
    if kinds:
        failures.append(what)


def rewrite_json(path, change):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    change(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def main() -> int:
    run.limit_blas_threads()
    cli = run.import_program()
    import workloads as wl

    work = run.OUT / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = run.Runner(cli, wl.KNOWN_FAULTS)
    failures: list[str] = []

    def call(op):
        rc, _, out = runner.call(op)
        return rc, out

    # -- optimal report --------------------------------------------------
    print("optimal (Hirzebruch polygon, every component's winding order recounted)")
    terms = wl.polygon_terms(wl.HIRZEBRUCH)
    amoeba = wl.amoeba_optimal(1, str(work))
    op = amoeba.warmup[0]
    report = op.argv[op.argv.index("--report") + 1]
    check = wl.check_optimal(terms, True, report, random.Random(1), winding_samples=100)
    rc, out = call(op)
    genuine(check, rc, out, wl.KNOWN_FAULTS, "genuine report", failures)
    saved = open(report, encoding="utf-8").read()

    def damaged(change, kind, what, rc=rc, out=out):
        rewrite_json(report, change)
        expect(check, rc, out, kind, what, failures)
        with open(report, "w", encoding="utf-8") as fh:
            fh.write(saved)

    def swap_orders(d):
        a, b = d["components"][0], d["components"][1]
        a["order"], b["order"] = b["order"], a["order"]

    def flip_bounded(d):
        d["components"][0]["bounded"] = not d["components"][0]["bounded"]

    damaged(lambda d: d.update(lattice_points=d["lattice_points"] + 1), "lattice",
            "lattice-point count off by one")
    damaged(flip_bounded, "bounded-flag", "bounded flag flipped")
    damaged(swap_orders, "winding", "orders of two components swapped")
    damaged(lambda d: d["components"].pop(), "orders", "one component dropped")
    damaged(lambda d: d.update(optimal=False), "verdict", "report verdict flipped")
    damaged(lambda d: None, "verdict", "exit code 1 for an optimal amoeba", rc=1)

    # -- hadamard CSV and wca image --------------------------------------
    print("hadamard CSV and wca image (p3)")
    wca = wl.wca_hadamard(1, str(work))
    hadamard, image = wca.ops
    csv_path = hadamard.argv[hadamard.argv.index("-o") + 1]
    rc, out = call(hadamard)
    genuine(hadamard.check, rc, out, wl.KNOWN_FAULTS, "CSV as the program writes it", failures)
    with open(csv_path, encoding="utf-8") as fh:
        text = fh.read().replace("np.float64(", "").replace(")", "")
    lines = text.splitlines()
    as_repr = [",".join([r] + [f"np.float64({x})" for x in rest])
               for r, *rest in (ln.split(",") for ln in lines[1:])]

    def with_lines(new_lines, kind, what):
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(new_lines) + "\n")
        if kind is None:
            genuine(hadamard.check, rc, out, (), what, failures)
        else:
            expect(hadamard.check, rc, out, kind, what, failures)

    with_lines(lines, None, "CSV with plain numbers")
    with_lines(lines[:1] + as_repr, "csv-number", "numbers written as np.float64(...)")
    with_lines(lines + ["6.0,2.0,2.0"], "gap", "r = 6 point added at (2, 2)")
    with_lines(lines + ["1.0,3.0,3.0"], "containment", "point added outside the polygon")
    far = [ln for ln in lines[1:] if not (ln.startswith("6.0,") and
           abs(float(ln.split(",")[1]) - 2.0) < 0.05 and abs(float(ln.split(",")[2]) - 0.5) < 0.05)]
    with_lines(lines[:1] + far, "gap", "r = 6 points near (2, 0.5) removed")
    with_lines(["r,x,y"] + lines[1:], "csv-header", "header renamed")

    ppm_path = image.argv[image.argv.index("-o") + 1]
    rc, out = call(image)
    genuine(image.check, rc, out, (), "genuine wca image", failures)
    img = wl.read_ppm(ppm_path).copy()
    res = img.shape[0]

    def with_pixel(u, v, color, kind, what):
        damaged_img = img.copy()
        ix, iy = int(u / 3.0 * res), int(v / 3.0 * res)
        damaged_img[res - 1 - iy, ix] = color
        with open(ppm_path, "wb") as fh:
            fh.write(f"P6\n{res} {res}\n255\n".encode() + damaged_img.tobytes())
        expect(image.check, rc, out, kind, what, failures)

    with_pixel(2.0, 2.0, 0, "gap", "pixel at (2, 2) blackened")
    with_pixel(2.0, 0.5, 255, "gap", "pixel at (2, 0.5) blanked")
    with_pixel(0.2, 2.8, 0, "containment", "pixel outside the polygon blackened")

    # -- exact algebra ---------------------------------------------------
    print("construct, horn, verify and the Toeplitz minor")
    exact = wl.exact_algebra(1, str(work))
    by_label = {op.label: op for op in exact.ops}
    for label, change, kind, what in [
        ("construct box", lambda d: d["terms"][0].update(num=str(int(d["terms"][0]["num"]) + 1)),
         "coefficients", "box coefficient off by one"),
        ("construct simplex", lambda d: d["terms"].pop(), "support", "simplex term dropped"),
        ("construct cross3", lambda d: d["terms"][0].update(den="7"), "coefficients",
         "cross-polytope coefficient rescaled"),
        ("horn quadrilateral", lambda d: d["pairs"][0]["P"][0].update(coeff="1234"),
         "recurrence", "Horn operator coefficient changed"),
        ("horn cross3", lambda d: d["pairs"][1].update(Q=[]), "horn", "Horn operator zeroed"),
    ]:
        op = by_label[label]
        rc, out = call(op)
        genuine(op.check, rc, out, (), f"genuine {label}", failures)
        rewrite_json(op.argv[-1], change)
        expect(op.check, rc, out, kind, what, failures)

    toeplitz = next(op for op in exact.ops if op.label.startswith("family"))
    rc, out = call(toeplitz)
    genuine(toeplitz.check, rc, out, (), "genuine Toeplitz minor", failures)
    rewrite_json(toeplitz.argv[-1],
                 lambda d: d["terms"][-1].update(num=str(int(d["terms"][-1]["num"]) * 2)))
    expect(toeplitz.check, rc, out, "toeplitz", "Toeplitz coefficient doubled", failures)

    for op in exact.ops:
        if op.label.startswith("verify"):
            solution = "shifted" in op.label
            right = (0, "solution\n") if solution else (1, "not a solution\n")
            wrong = (1, "not a solution\n") if solution else (0, "solution\n")
            genuine(op.check, *right, (), f"{op.label}: the right exit code", failures)
            expect(op.check, *wrong, "verify", f"{op.label}: the opposite exit code", failures)

    shutil.rmtree(work, ignore_errors=True)
    print(f"\n{'every check rejected its wrong answer' if not failures else 'FAILED: ' + '; '.join(failures)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
