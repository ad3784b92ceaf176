"""Benchmark of hgamoeba's CLI: one workload per process, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single client in a single process calls ``hgamoeba.cli.main(argv)``, each
command after the previous one completed (a closed loop).  A run sets up
(imports hgamoeba with numpy and scipy, builds the inputs and writes them as
JSON), runs a warm-up pass over the workload's cheapest commands, then
passes over the workload's commands until the passes add up to at least S
seconds and number at least the workload's ``rounds``.  Every output is
checked outside the timed region.

With --trace 0 the last line reports pass_s (median pass), setup_s (median
of this run's set-up and two more in child processes) and peak_rss_mb.
With --trace 1 the run makes one untraced pass and then traced passes, and
reports the per-layer metrics of ``tracer``; spans go to
.bench_out/spans-WORKLOAD-SEED.json.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (no numpy at import time)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 2
OUTPUT_FLAGS = ("-o", "--report")  # the CLI options that name a file a command writes


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (used for setup_s)")
    return ap.parse_args(argv)


def limit_blas_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported.

    The sweep's matrix products are small (angles x terms by terms x degree):
    a second BLAS thread mostly spins, and on a shared machine a pool that
    waits for a descheduled thread makes pass times jumpy.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_program():
    """hgamoeba from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import hgamoeba.cli
    except ImportError as exc:
        sys.exit(f"cannot import hgamoeba from {SRC}: {exc}")
    where = Path(hgamoeba.cli.__file__).resolve()
    if SRC not in where.parents:
        sys.exit(f"hgamoeba was imported from {where}, not from {SRC}")
    return hgamoeba.cli


def set_up(args):
    """Everything a run does before its first pass."""
    limit_blas_threads()
    cli = import_program()
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return cli, work, workloads.WORKLOADS[args.workload](args.seed, str(work))


def setup_in_children(args) -> list[float]:
    """Set-up times of fresh processes; import time only shows in a new process."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


class Runner:
    def __init__(self, cli, known_faults):
        self.cli = cli
        self.known = known_faults
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.fault_notes: dict[str, str] = {}

    def call(self, op):
        # an earlier pass's output must not pass for this command's
        for flag in OUTPUT_FLAGS:
            if flag in op.argv:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(op.argv[op.argv.index(flag) + 1])
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(op.argv)
            except Exception as exc:  # reported as a wrong result, the run goes on
                rc = f"raised {exc!r}"
        return rc, perf_counter() - start, out.getvalue()

    def check(self, op, rc, out, counted: bool) -> None:
        try:
            problems = op.check(rc, out)
        except Exception as exc:  # an unreadable output is a wrong output
            problems = [("unreadable", repr(exc))]
        if counted:
            self.attempted += 1
            self.failed += bool(problems)
        for kind, text in problems:
            if kind in self.known:
                self.fault_notes.setdefault(f"{op.label}: {kind}", text)
            else:
                self.unexpected.append(f"{op.label}: {kind}: {text}")

    def run_pass(self, ops, call=None) -> float:
        """One pass over the commands; returns the time spent inside them."""
        gc.collect()
        elapsed = 0.0
        for op in ops:
            rc, dt, out = (call or self.call)(op)
            elapsed += dt
            self.check(op, rc, out, counted=True)
        return elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    cli, work, wl = set_up(args)
    setup_own = perf_counter() - T0
    try:
        if args.setup_only:
            print(f"{setup_own:.6f}")
            return 0
        runner = Runner(cli, workloads.KNOWN_FAULTS)
        for op in wl.warmup:
            rc, _, out = runner.call(op)
            runner.check(op, rc, out, counted=False)
        if args.trace == 0:
            metrics = untraced(args, runner, wl, setup_own)
        else:
            metrics = traced(args, runner, wl)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note, text in sorted(runner.fault_notes.items()):
        print(f"failed (known fault) {note}: {text}")
    for text in runner.unexpected:
        print(f"WRONG {text}")
    print(json.dumps({
        "correct": not runner.unexpected,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


def untraced(args, runner, wl, setup_own):
    passes = []
    while len(passes) < wl.rounds or sum(passes) < args.seconds:
        passes.append(runner.run_pass(wl.ops))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_own] + setup_in_children(args)
    print(f"passes (s): {' '.join(f'{p:.3f}' for p in passes)}")
    print(f"set-ups (s): {' '.join(f'{s:.3f}' for s in setups)}")
    return {
        "pass_s": {"value": statistics.median(passes), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def traced(args, runner, wl):
    import tracer as tr

    plain = runner.run_pass(wl.ops)
    t = tr.Tracer(args.seed)
    restore, absent = tr.install(t)

    def traced_call(op):
        before = dict(t.counts[t.pass_index])
        idx = t.open(tr.CLI)
        try:
            return runner.call(op)
        finally:
            t.close(idx)
            if t.pass_index == 0:
                after = t.counts[0]
                print(f"{op.label}: {t.spans[idx][2] - t.spans[idx][1]:.3f} s " + " ".join(
                    f"{k}={after[k] - before.get(k, 0):g}" for k in tr.PER_OP_COUNTS
                    if after.get(k, 0) != before.get(k, 0)))

    passes = []
    try:
        while not passes or sum(passes) < args.seconds:
            t.start_pass(len(passes))
            passes.append(runner.run_pass(wl.ops, call=traced_call))
    finally:
        tr.uninstall(restore)
    OUT.mkdir(exist_ok=True)
    t.write(str(OUT / f"spans-{args.workload}-{args.seed}.json"))

    metrics, absent_metrics = tr.summarize(t, absent, list(range(len(passes))))
    probes = [tr.probe_seconds(t, p) for p in range(len(passes))]
    traced_pass = statistics.median(p - q for p, q in zip(passes, probes))
    metrics["trace.overhead_frac"] = {"value": traced_pass / plain - 1.0, "unit": "ratio"}
    metrics["trace.probe_s"] = {"value": statistics.median(probes), "unit": "s"}
    metrics["trace.spans"] = {"value": len(t.spans) / len(passes), "unit": "count"}
    print(f"untraced pass {plain:.3f} s; traced passes (s, probes excluded): "
          f"{' '.join(f'{p - q:.3f}' for p, q in zip(passes, probes))}")
    for name in absent:
        print(f"absent layer target: {name}")
    if absent_metrics:
        print(f"absent metrics: {' '.join(absent_metrics)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
