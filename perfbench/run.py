"""Time-to-verdict benchmark of the liftlap command line.

Run from the repository root:

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 24 --trace 0

One process runs one workload.  It generates the workload's input files
from ``--seed``, imports ``liftlap.cli`` from ``src/`` and calls
``liftlap.cli.main(argv)`` in-process for every case, so interpreter
start-up is not timed.  After an untimed warm-up pass over the full case
list it repeats passes within ``--seconds`` (at least three), checks every
report, and prints the metrics named in ``BENCHMARK.json`` as the last
line of stdout.  Every time is in reference seconds: the reference kernel
of ``perfbench/reference.py`` runs before and after each case, and the
case's time is divided by the kernel's, so that the host's changing speed
cancels.  ``--trace 1`` adds a traced half-run and prints the per-layer
metrics instead.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_REPS = 3
# one BLAS thread: with two on two vCPUs, a 300 x 300 eigensolve ran up to
# five times slower whenever the host was busy
BLAS_THREADS = 1
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
# no pass starts once this much of a run is gone (a run must end within 180 s)
DEADLINE_S = 140.0

COMMANDS = ("union", "abelian", "inclusion", "decompose", "betti", "fixture", "cover_build", "cover_verify")
NOT_WRAPPED = (
    "private helpers, methods, liftlap.perms and the per-face helpers as_face, boundary_faces and "
    "relative_orientation_sign are not wrapped; their time is in the caller's self time"
)


@dataclass
class CaseRun:
    case: object
    seconds: float
    rc: int
    stdout: str
    stderr: str
    ref: float  # mean reference-kernel time just before and just after the case

    @property
    def scaled(self) -> float:
        from perfbench.reference import scale

        return scale(self.seconds, self.ref)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="how long the timed passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="4 x 4 tori and single passes (self-test)")
    return ap.parse_args(argv)


def cap_threads() -> int:
    """Cap BLAS threads at ``BLAS_THREADS``; returns the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return nproc


def environment(nproc: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"].get("version", "unknown")
    except (TypeError, KeyError):
        pass
    return {
        "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas,
        "machine": platform.machine(),
    }


def import_seconds() -> float:
    """Wall time of ``import liftlap.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import liftlap.cli"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - start


def run_pass(cases, cli) -> list[CaseRun]:
    """One call of ``cli.main`` per case, with the reference kernel
    between cases; ``cli.main`` is looked up per call so that the
    tracer's wrapper is the one called while it is installed."""
    from perfbench.reference import kernel_seconds

    runs = []
    before = kernel_seconds()
    for case in cases:
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli.main(case.argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                rc = -1
            seconds = time.perf_counter() - start
        after = kernel_seconds()
        runs.append(CaseRun(case, seconds, rc, out.getvalue(), err.getvalue(), (before + after) / 2))
        before = after
    return runs


def repeat(cases, cli, seconds, minimum, started, on_pass=None) -> list[list[CaseRun]]:
    """At least ``minimum`` passes, then more while the next one (as long
    as the last) would still end within ``seconds``."""
    passes = []
    begin = time.perf_counter()
    last = 0.0
    while True:
        now = time.perf_counter()
        if passes and now - started + last > DEADLINE_S:
            break
        if len(passes) >= minimum and now - begin + last > seconds:
            break
        passes.append(run_pass(cases, cli))
        last = time.perf_counter() - now
        if on_pass:
            on_pass(passes[-1])
    return passes


def _wall(runs) -> float:
    """A pass's time in reference seconds."""
    return sum(r.scaled for r in runs)


def _raw_wall(runs) -> float:
    return sum(r.seconds for r in runs)


def _geomean(runs) -> float:
    return math.exp(sum(math.log(r.scaled) for r in runs) / len(runs))


def _report(run: CaseRun):
    try:
        return json.loads(run.stdout)
    except json.JSONDecodeError:
        return None


class Verifier:
    """Checks every case run and keeps the verdict digest of the first pass."""

    def __init__(self, workloads):
        self.workloads = workloads
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.views = None

    def add(self, runs: list[CaseRun]) -> None:
        views = []
        for run in runs:
            report = _report(run)
            problems = self.workloads.check(run.case, run.rc, report)
            view = self.workloads.digest_view(run.case, report)
            if self.views is not None and view != self.views[len(views)]:
                problems.append(f"{run.case.label}: exact results differ from the first pass")
            if problems and run.rc != 0:
                problems.append(run.stderr.strip().splitlines()[-1] if run.stderr.strip() else "no stderr")
            views.append(view)
            self.attempted += 1
            self.failed += bool(problems)
            self.problems.extend(problems)
        if self.views is None:
            self.views = views

    @property
    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.views, sort_keys=True).encode()).hexdigest()


def stats(values) -> dict:
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"min": min(values), "q1": q1, "median": statistics.median(values), "q3": q3, "n": len(values)}


def command_seconds(passes) -> dict:
    """Per command, its summed case time in each pass, in reference seconds."""
    out = {}
    for command in COMMANDS:
        per_pass = [sum(r.scaled for r in runs if r.case.command == command) for runs in passes]
        if any(per_pass):
            out[command] = per_pass
    return out


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "liftlap" / "cli.py").is_file():
        print(f"perfbench: no liftlap sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    nproc = cap_threads()
    # imported only now: OpenBLAS reads its thread cap when numpy loads
    sys.path[:0] = [str(SRC), str(ROOT)]
    from liftlap import cli

    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = load_spec()
    workdir = WORK / f"{args.workload}-{os.getpid():08d}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, spec, nproc, workdir, started, cli, workloads)
    finally:
        for path in sorted(workdir.iterdir()):
            path.unlink()
        workdir.rmdir()


def measure(args, spec, nproc, workdir, started, cli, workloads) -> int:
    from perfbench.reference import kernel_seconds, scale

    setups, raw_setups = [], []
    before = kernel_seconds()
    for _ in range(SETUP_REPS):
        imported = import_seconds()
        begin = time.perf_counter()
        cases = workloads.build_cases(args.workload, args.seed, workdir, tiny=args.tiny)
        seconds = imported + time.perf_counter() - begin
        after = kernel_seconds()
        raw_setups.append(seconds)
        setups.append(scale(seconds, (before + after) / 2))
        before = after
    verifier = Verifier(workloads)
    warm = run_pass(cases, cli)
    verifier.add(warm)
    setup_s = statistics.median(setups) + _wall(warm)

    if args.trace:
        metrics, detail = traced_run(args, cases, cli, started, verifier)
        expected = spec["per_layer"]
    else:
        minimum = 1 if args.tiny else MIN_PASSES
        passes = repeat(cases, cli, args.seconds, minimum, started)
        for runs in passes:
            verifier.add(runs)
        walls = [_wall(runs) for runs in passes]
        geomeans = [_geomean(runs) for runs in passes]
        metrics = {
            "wall_ref_s": statistics.median(walls),
            "verdict_geomean_ref_s": statistics.median(geomeans),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        detail = {
            "wall_ref_s": stats(walls),
            "verdict_geomean_ref_s": stats(geomeans),
            "pass_walls_ref_s": walls,
            "raw_wall_s": stats(_raw_wall(runs) for runs in passes),
            "reference_kernel_s": stats(r.ref for runs in passes for r in runs),
            "setup_s": {
                "median_of_setups": statistics.median(setups),
                "warmup_pass": _wall(warm),
                "n": SETUP_REPS,
                "raw_median_of_setups": statistics.median(raw_setups),
                "raw_warmup_pass": _raw_wall(warm),
            },
            "per_command_ref_s": {c: stats(v) for c, v in command_seconds(passes).items()},
        }
        expected = spec["end_to_end"]
    if set(metrics) != set(expected):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(expected))} disagree with BENCHMARK.json")

    detail.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "failed_ratio": verifier.failed / verifier.attempted,
            "digest": verifier.digest,
            "inputs": {name: h for case in cases for name, h in case.inputs.items()},
            "environment": environment(nproc),
            "problems": verifier.problems[:20],
        }
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    for name in expected:
        print(f"{name:40s} {metrics[name]:>16.6g} {expected[name]}", file=sys.stderr)
    if verifier.problems:
        print("problems:\n  " + "\n  ".join(verifier.problems[:20]), file=sys.stderr)
    result = {
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": metrics[name], "unit": expected[name]} for name in expected},
    }
    print(json.dumps(result))
    return 0


def traced_run(args, cases, cli, started, verifier) -> tuple[dict, dict]:
    """Untraced passes for half of ``--seconds``, traced ones for the rest.

    Per-layer metrics, in reference seconds: medians of the traced passes'
    self times, the counts of the first traced pass, and the median
    untraced per-command times.
    """
    from perfbench.reference import REF_S
    from perfbench.trace import Tracer

    minimum = 1 if args.tiny else MIN_TRACE_PASSES
    plain = repeat(cases, cli, args.seconds / 2, minimum, started)
    tracer = Tracer()
    tracer.install()
    marks = [0]
    traced_metrics = []

    def close_pass(runs):
        times, counts = tracer.pass_metrics(marks[-1])
        # raw seconds to reference seconds, at the pass's mean kernel time
        factor = REF_S * len(runs) / sum(r.ref for r in runs)
        traced_metrics.append(({name: t * factor for name, t in times.items()}, counts))
        tracer.reset_counts()
        marks.append(len(tracer.spans))

    try:
        traced = repeat(cases, cli, args.seconds / 2, minimum, started, on_pass=close_pass)
    finally:
        tracer.remove()
    for runs in plain + traced:
        verifier.add(runs)
    if any(counts != traced_metrics[0][1] for _, counts in traced_metrics):
        verifier.problems.append("per-layer counts differ between traced passes")
        verifier.failed += 1
    spans = WORK / f"spans-{args.workload}.jsonl"
    tracer.write(spans)

    metrics = {}
    for name in traced_metrics[0][0]:
        metrics[name] = statistics.median(times[name] for times, _ in traced_metrics)
    metrics.update(traced_metrics[0][1])
    metrics["cli.report_bytes"] = sum(len(r.stdout.encode()) for r in traced[0])
    traced_wall = statistics.median(_wall(runs) for runs in traced)
    metrics["trace.overhead_s"] = traced_wall - statistics.median(_wall(runs) for runs in plain)
    per_command = command_seconds(plain)
    for command in COMMANDS:
        metrics[f"{command}_s"] = statistics.median(per_command[command]) if command in per_command else 0.0
    layers = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
    detail = {
        "spans_file": str(spans.relative_to(ROOT)),
        "not_wrapped": NOT_WRAPPED,
        "untraced_wall_ref_s": stats(_wall(runs) for runs in plain),
        "traced_wall_ref_s": stats(_wall(runs) for runs in traced),
        "self_time_ranking": sorted(layers, key=layers.get, reverse=True),
        "per_command_ref_s": {c: stats(v) for c, v in per_command.items()},
    }
    return metrics, detail


if __name__ == "__main__":
    sys.exit(main())
