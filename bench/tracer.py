"""Per-layer spans for the traced run, recorded from outside the program.

Each target below names a function of one layer.  ``install`` replaces every
binding of it that a caller looks up (module attributes across hgamoeba,
class attributes, ``scipy.optimize.linprog``) with a wrapper that records a
span (name, start, end, parent) in memory.  Some targets carry a probe: code
of the benchmark that runs after the call, inside a ``bench.probe`` span, to
count what the layer did (roots lost, components merged, bytes written...).
Probe time is excluded from every layer's self time.  A target the program no
longer has is reported as absent, and so is every metric built on it.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import random
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import oracle

PROBE = "bench.probe"
CLI = "cli.main"
# counts the traced run also prints command by command
PER_OP_COUNTS = [
    "amoeba.raw_components", "amoeba.resolved_components", "amoeba.merges",
    "amoeba.restores", "amoeba.oracle_points", "amoeba.oracle_misses", "roots.lost",
    "moment.samples_lost", "moment.cloud_points",
]


class Tracer:
    def __init__(self, seed: int):
        self.seed = seed
        self.spans: list[list] = []  # [name, start, end, parent, pass]
        self.stack: list[int] = []
        self.pass_index = 0
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.samples: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(list))
        self.raster_calls = 0
        self.last_raw = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
                           self.pass_index])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def add(self, key: str, value: float = 1) -> None:
        self.counts[self.pass_index][key] += value

    def sample(self, key: str, value: float) -> None:
        self.samples[self.pass_index][key].append(value)

    def start_pass(self, index: int) -> None:
        self.pass_index = index
        self.raster_calls = 0

    def wrap(self, name: str, fn, probe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx)
                tracer.add(f"{name}.raised.{type(exc).__name__}")
                raise
            tracer.close(idx)
            if probe is not None:
                pidx = tracer.open(PROBE)
                try:
                    probe(tracer, args, kwargs, result)
                finally:
                    tracer.close(pidx)
            return result

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass"],
                       "spans": self.spans}, fh)


# -- probes ----------------------------------------------------------------

def probe_rows(t: Tracer, args, kwargs, result):
    t.add("roots.polys", len(args[0]))


def probe_fiber_roots(t: Tracer, args, kwargs, roots):
    """Roots the fiber degree promises but the solve did not return, and the
    largest relative residual |f(z)| / sum |c_k| |z|^k of those returned."""
    import numpy as np

    coeffs = np.asarray(args[0])
    nonzero = coeffs != 0
    width = coeffs.shape[1]
    degree = np.where(nonzero.any(axis=1), width - 1 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        finite = np.isfinite(np.log(np.abs(roots)))
        t.add("roots.lost", float((degree - finite.sum(axis=1)).sum()))
        z = np.where(finite, roots, 1.0)
        k = np.arange(width)
        log_terms = np.log(np.abs(coeffs))[:, None, :] + k * np.log(np.abs(z))[:, :, None]
        top = np.max(np.where(np.isfinite(log_terms), log_terms, -np.inf), axis=2, keepdims=True)
        scaled = np.exp(np.log(coeffs.astype(complex))[:, None, :]
                        + k * np.log(z.astype(complex))[:, :, None] - top)
        scaled = np.where(nonzero[:, None, :], scaled, 0)
        resid = np.abs(scaled.sum(axis=2)) / np.abs(scaled).sum(axis=2)
    resid = resid[finite & np.isfinite(resid)]
    if resid.size:
        t.sample("roots.max_residual", float(resid.max()))


def probe_oracle(t: Tracer, args, kwargs, raster, fibers: int = 100):
    """Seeded fibers solved by mpmath at 60 digits: roots inside the window,
    and those whose pixel the raster leaves blank."""
    p, w = args[0], args[1]
    terms = list(p.terms.items())
    mins = [min(e[k] for e, _ in terms) for k in range(2)]
    terms = [(tuple(a - m for a, m in zip(e, mins)), c) for e, c in terms]
    rng = random.Random(f"{t.seed}-{t.raster_calls}")
    t.raster_calls += 1
    res, m_ang = w.resolution, w.angular_samples
    bounds = [(w.x_min, w.x_max), (w.y_min, w.y_max)]
    for _ in range(fibers):
        axis, i, k = rng.randrange(2), rng.randrange(res), rng.randrange(m_ang)
        (u0, u1), (v0, v1) = bounds[axis], bounds[1 - axis]
        u = u0 + (i + 0.5) * (u1 - u0) / res
        _, roots = oracle.fiber_roots(terms, axis, u, 2.0 * math.pi * (k + 0.5) / m_ang)
        for v, _ in roots:
            if not v0 <= v < v1:
                continue
            t.add("amoeba.oracle_points")
            iv = min(res - 1, int((v - v0) / (v1 - v0) * res))
            if not (raster.grid[i, iv] if axis == 0 else raster.grid[iv, i]):
                t.add("amoeba.oracle_misses")


def probe_window(t: Tracer, args, kwargs, w):
    t.sample("amoeba.window_halfwidth", (w.x_max - w.x_min) / 2.0)


def probe_raw(t: Tracer, args, kwargs, comps):
    t.add("amoeba.raw_components", len(comps))
    t.last_raw = comps


def probe_resolved(t: Tracer, args, kwargs, result):
    comps = result[0]
    t.add("amoeba.resolved_components", len(comps))
    orders = [c.order for c in (t.last_raw or []) if c.order is not None]
    t.add("amoeba.merges", len(orders) - len(set(orders)))
    t.add("amoeba.restores", sum(1 for c in comps if c.label == 0))


def probe_cloud(t: Tracer, args, kwargs, cloud):
    p = args[0]
    w = args[1] if len(args) > 1 else kwargs.get("w")
    t.add("moment.cloud_points", len(cloud.points))
    if w is not None:
        extent = sum(max(e[k] for e in p.terms) - min(e[k] for e in p.terms) for k in range(2))
        t.add("moment.samples_lost", w.resolution * w.angular_samples * extent - len(cloud.points))


def probe_bytes(t: Tracer, args, kwargs, result):
    t.add("io.bytes_written", os.path.getsize(args[0]))


# (span name, module, attribute path, probe)
TARGETS = [
    ("roots.solve", "hgamoeba.amoeba", "aberth_roots_batch", probe_rows),
    ("amoeba.fiber_roots", "hgamoeba.amoeba", "_fiber_roots", probe_fiber_roots),
    ("amoeba.sweep", "hgamoeba.amoeba", "_sweep", None),
    ("moment.sweep", "hgamoeba.moment", "_zero_locus_log_points", None),
    ("amoeba.rasterize", "hgamoeba.amoeba", "rasterize_amoeba", probe_oracle),
    ("amoeba.window", "hgamoeba.amoeba", "adaptive_window", probe_window),
    ("amoeba.label", "hgamoeba.amoeba", "complement_components", probe_raw),
    ("amoeba.resolve", "hgamoeba.amoeba", "resolved_components", probe_resolved),
    ("amoeba.order", "hgamoeba.amoeba", "component_order", None),
    ("amoeba.report", "hgamoeba.amoeba", "optimality_report", None),
    ("amoeba.lp", "scipy.optimize", "linprog", None),
    ("moment.cloud", "hgamoeba.moment", "rasterize_wca", probe_cloud),
    ("moment.occupancy", "hgamoeba.moment", "wca_occupancy", None),
    ("io.format", "hgamoeba.io", "cloud_to_csv", None),
    ("io.format", "hgamoeba.io", "wca_ppm", None),
    ("io.format", "hgamoeba.io", "amoeba_ppm", None),
    ("io.format", "hgamoeba.io", "polynomial_to_json", None),
    ("io.format", "hgamoeba.io", "horn_to_json", None),
    ("io.write", "hgamoeba.io", "atomic_write_text", probe_bytes),
    ("io.write", "hgamoeba.io", "write_ppm", probe_bytes),
    ("io.parse", "hgamoeba.io", "polynomial_from_json", None),
    ("io.parse", "hgamoeba.io", "oresato_from_json", None),
    ("io.parse", "hgamoeba.io", "polytope_from_json", None),
    ("polytope.hull", "hgamoeba.polytope", "facet_description", None),
    ("polytope.lattice", "hgamoeba.polytope", "lattice_points", None),
    ("polytope.lattice", "hgamoeba.polytope", "zn_connected_components", None),
    ("laurent.eval", "hgamoeba.laurent", "LaurentPolynomial.evaluate_exact", None),
    ("laurent.mul", "hgamoeba.laurent", "LaurentPolynomial.__mul__", None),
    ("horn.verify", "hgamoeba.horn", "is_horn_solution", None),
    ("horn.apply", "hgamoeba.horn", "apply_horn_operator", None),
    ("horn.derive", "hgamoeba.horn", "horn_system", None),
    ("horn.construct", "hgamoeba.horn", "hypergeometric_polynomial", None),
    ("families.toeplitz", "hgamoeba.families", "toeplitz_chebyshev", None),
]


def install(tracer: Tracer):
    """Wrap every target; return (restore list, names of absent targets)."""
    restore, absent = [], []
    for name, modname, path, probe in TARGETS:
        try:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            absent.append(f"{modname}.{path}")
            continue
        wrapper = tracer.wrap(name, original, probe)
        holders = [owner] + [m for n, m in list(sys.modules.items())
                             if n.startswith("hgamoeba") and m is not None]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    restore.append((holder, key, original))
                    setattr(holder, key, wrapper)
    return restore, absent


def uninstall(restore) -> None:
    for holder, key, original in reversed(restore):
        setattr(holder, key, original)


# -- per-layer summary -----------------------------------------------------

def _times(spans, pass_index):
    """Per span name: call count, total time and self time within one pass."""
    calls, total, self_time = defaultdict(int), defaultdict(float), defaultdict(float)
    child = defaultdict(float)
    for name, start, end, parent, p in spans:
        if p == pass_index and parent >= 0:
            child[parent] += end - start
    for idx, (name, start, end, parent, p) in enumerate(spans):
        if p != pass_index:
            continue
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child[idx]
    return calls, total, self_time


# metric -> (unit, span targets it needs, how to compute it)
def _metric_table():
    def n(s):
        return lambda c, tot, slf, cnt, smp: c[s]

    def tot(*ss):
        return lambda c, t, slf, cnt, smp: sum(t[s] for s in ss)

    def self_(*ss):
        return lambda c, t, slf, cnt, smp: sum(slf[s] for s in ss)

    def count(key):
        return lambda c, t, slf, cnt, smp: cnt.get(key, 0.0)

    def largest(key):
        return lambda c, t, slf, cnt, smp: max(smp.get(key) or [0.0])

    def mean(key):
        return lambda c, t, slf, cnt, smp: statistics.fmean(smp.get(key) or [0.0])

    retries = "amoeba.order.raised.NeedsDeeperPointError"
    return {
        "roots.calls": ("count", ["roots.solve"], n("roots.solve")),
        "roots.polys": ("count", ["roots.solve"], count("roots.polys")),
        "roots.s": ("s", ["roots.solve"], tot("roots.solve")),
        "roots.lost": ("count", ["amoeba.fiber_roots"], count("roots.lost")),
        "roots.max_residual": ("ratio", ["amoeba.fiber_roots"],
                               largest("roots.max_residual")),
        "amoeba.oracle_points": ("count", ["amoeba.rasterize"],
                                 count("amoeba.oracle_points")),
        "amoeba.oracle_misses": ("count", ["amoeba.rasterize"],
                                 count("amoeba.oracle_misses")),
        "amoeba.raw_components": ("count", ["amoeba.label"],
                                  count("amoeba.raw_components")),
        "amoeba.resolved_components": ("count", ["amoeba.resolve"],
                                       count("amoeba.resolved_components")),
        "amoeba.merges": ("count", ["amoeba.label", "amoeba.resolve"],
                          count("amoeba.merges")),
        "amoeba.restores": ("count", ["amoeba.resolve"], count("amoeba.restores")),
        "amoeba.order_calls": ("count", ["amoeba.order"], n("amoeba.order")),
        "amoeba.order_retries": ("count", ["amoeba.order"], count(retries)),
        "amoeba.order_s": ("s", ["amoeba.order"], tot("amoeba.order")),
        "amoeba.lp_solves": ("count", ["amoeba.lp"], n("amoeba.lp")),
        "amoeba.lp_s": ("s", ["amoeba.lp"], tot("amoeba.lp")),
        "amoeba.label_s": ("s", ["amoeba.label"], tot("amoeba.label")),
        "amoeba.report_s": ("s", ["amoeba.report", "amoeba.resolve"],
                            self_("amoeba.report", "amoeba.resolve")),
        "amoeba.window_s": ("s", ["amoeba.window"], tot("amoeba.window")),
        "amoeba.window_halfwidth": ("log", ["amoeba.window"],
                                    mean("amoeba.window_halfwidth")),
        "amoeba.raster_s": ("s",
                            ["amoeba.rasterize", "amoeba.sweep", "moment.sweep",
                             "amoeba.fiber_roots"],
                            self_("amoeba.rasterize", "amoeba.sweep", "moment.sweep",
                                  "amoeba.fiber_roots")),
        "moment.cloud_s": ("s", ["moment.cloud"], self_("moment.cloud")),
        "moment.cloud_points": ("count", ["moment.cloud"],
                                count("moment.cloud_points")),
        "moment.samples_lost": ("count", ["moment.cloud"],
                                count("moment.samples_lost")),
        "moment.occupancy_s": ("s", ["moment.occupancy"], tot("moment.occupancy")),
        "io.format_s": ("s", ["io.format"], tot("io.format")),
        "io.write_s": ("s", ["io.write"], tot("io.write")),
        "io.bytes_written": ("count", ["io.write"], count("io.bytes_written")),
        "io.parse_s": ("s", ["io.parse"], tot("io.parse")),
        "laurent.eval_calls": ("count", ["laurent.eval"], n("laurent.eval")),
        "laurent.eval_s": ("s", ["laurent.eval"], tot("laurent.eval")),
        "laurent.mul_calls": ("count", ["laurent.mul"], n("laurent.mul")),
        "laurent.mul_s": ("s", ["laurent.mul"], tot("laurent.mul")),
        "horn.verify_s": ("s", ["horn.verify"], tot("horn.verify")),
        "horn.operator_applications": ("count", ["horn.apply"], n("horn.apply")),
        "horn.derive_s": ("s", ["horn.derive"], tot("horn.derive")),
        "horn.construct_s": ("s", ["horn.construct"], tot("horn.construct")),
        "families.toeplitz_s": ("s", ["families.toeplitz"],
                                tot("families.toeplitz")),
        "polytope.hull_calls": ("count", ["polytope.hull"], n("polytope.hull")),
        "polytope.hull_s": ("s", ["polytope.hull"], tot("polytope.hull")),
        "polytope.lattice_s": ("s", ["polytope.lattice"], tot("polytope.lattice")),
        "cli.self_s": ("s", [], self_(CLI)),
    }


METRICS = _metric_table()


def summarize(tracer: Tracer, absent: list[str], passes: list[int]):
    """Per-layer metrics: counts from the first traced pass, times as the
    median over the traced passes.  Metrics needing an absent target are
    left out and named in the returned list."""
    missing = {name for name, mod, path, _ in TARGETS if f"{mod}.{path}" in absent}
    out, absent_metrics = {}, []
    per_pass = []
    for p in passes:
        calls, total, self_time = _times(tracer.spans, p)
        per_pass.append((calls, total, self_time, tracer.counts[p], tracer.samples[p]))
    for metric, (unit, needs, fn) in METRICS.items():
        if missing & set(needs):
            absent_metrics.append(metric)
            continue
        values = [fn(*args) for args in per_pass]
        value = statistics.median(values) if unit == "s" else values[0]
        out[metric] = {"value": value, "unit": unit}
    return out, absent_metrics


def probe_seconds(tracer: Tracer, pass_index: int) -> float:
    return sum(end - start for name, start, end, _, p in tracer.spans
               if name == PROBE and p == pass_index)
