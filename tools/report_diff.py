"""Compare the JSON reports of two liftlap source trees, case by case.

Run from the repository root:

    python3 tools/report_diff.py PARENT_TREE CHANGE_TREE [--seed 1]

Each tree is a checkout holding ``src/liftlap`` (a ``git archive`` of a
commit, or the working tree itself).  The cases are

* every call of ``liftlap.cli.main`` made by CHANGE_TREE's
  ``tests/test_cli.py``, recorded by running that file under pytest with
  each input file copied aside as the call is made and each ``--out``
  moved into the case's folder at its place relative to the test's
  ``tmp_path`` (so an ``--out`` that cannot be written still cannot), and
* every case of the benchmark workloads, generated at ``--seed`` by this
  repository's ``perfbench.workloads`` (imported, never modified).

Both trees run every case in-process, in this interpreter, on the same
input files and in the same order.  Monkeypatches made inside a test are
not replayed: each recorded call runs against the unpatched library.
For each case the script prints what differs: the exit code, the set of
report keys (list positions collapsed to ``[]``), the verdicts' ``holds``
flags, exact values (integers, strings, lengths), the files the case
creates or changes in its folder (read right after the case runs; each
tree replays from a fresh copy of the inputs, so both start from the same
files) and stderr when the exit code is nonzero; and, where a float
differs, the largest difference between corresponding floats, with its
location.  It exits 1 when an exit code, key set, holds flag, exact value or written
file differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass
class Case:
    label: str
    argv: list
    cwd: Path


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    written: dict  # file name -> bytes, for each file the run created or changed in its folder


def bench_cases(workdir: Path, seed: int) -> list[Case]:
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    out = []
    for workload in workloads.WORKLOADS:
        folder = workdir / workload
        folder.mkdir(parents=True)
        for case in workloads.build_cases(workload, seed, folder):
            out.append(Case(f"bench {workload}: {case.label}", [str(a) for a in case.argv], folder))
    return out


class _Recorder:
    """A pytest plugin that records every ``main(argv)`` a test module makes."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.cases: list[Case] = []

    def _snapshot(self, nodeid: str, argv, tmp_path) -> Case:
        folder = self.workdir / str(len(self.cases))
        folder.mkdir(parents=True)
        argv = [str(a) for a in argv]
        kept = []
        for j, arg in enumerate(argv):
            if j and argv[j - 1] == "--out":
                arg = str(folder / _out_path(Path(arg), tmp_path))
            elif Path(arg).is_file():
                arg = str(shutil.copy(arg, folder / f"{j}_{Path(arg).name}"))
            kept.append(arg)
        return Case(f"{nodeid} (call {len(self.cases)})", kept, folder)

    def pytest_runtest_call(self, item):
        module = item.module
        real = getattr(module, "main", None)
        if real is None:
            return

        def recording(argv=None):
            self.cases.append(self._snapshot(item.nodeid, argv, item.funcargs.get("tmp_path")))
            return real(argv)

        module.main = recording
        item.addfinalizer(lambda: setattr(module, "main", real))


def _out_path(out: Path, tmp_path) -> Path:
    """Where an ``--out`` goes within its case folder: its place relative
    to the test's ``tmp_path`` when it lies there, so that a missing
    parent stays missing and a directory stays a directory; otherwise
    its file name."""
    if tmp_path is not None and out.is_relative_to(tmp_path):
        return out.relative_to(tmp_path)
    return Path(out.name)


def cli_test_cases(tree: Path, workdir: Path) -> list[Case]:
    import pytest

    recorder = _Recorder(workdir)
    _use_tree(tree)
    sink = io.StringIO()
    with redirect_stdout(sink):
        status = pytest.main(
            [str(tree / "tests" / "test_cli.py"), "-q", "-p", "no:cacheprovider",
             "--rootdir", str(tree), "-c", str(tree / "pyproject.toml")],
            plugins=[recorder],
        )
    if status != 0:
        print(f"note: {tree / 'tests' / 'test_cli.py'} did not pass (pytest status {status}); "
              f"its calls are compared all the same", file=sys.stderr)
    return recorder.cases


def _use_tree(tree: Path) -> None:
    """Make ``import liftlap`` load ``tree/src``, forgetting any earlier tree."""
    for name in [m for m in sys.modules if m == "liftlap" or m.startswith("liftlap.")]:
        del sys.modules[name]
    sys.path[:] = [p for p in sys.path if not (Path(p or ".") / "liftlap").is_dir()]
    sys.path.insert(0, str(tree / "src"))


def replay(tree: Path, cases: list[Case]) -> list[Outcome]:
    _use_tree(tree)
    from liftlap.cli import main

    here = os.getcwd()
    outcomes = []
    for case in cases:
        out, err = io.StringIO(), io.StringIO()
        before = _files(case.cwd)
        os.chdir(case.cwd)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(list(case.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash, which the interpreter would end with exit 1
            code = 1
            err.write(f"uncaught {type(exc).__name__}: {exc}\n")
        finally:
            os.chdir(here)
        written = {name: data for name, data in _files(case.cwd).items() if before.get(name) != data}
        outcomes.append(Outcome(code, out.getvalue(), err.getvalue(), written))
    return outcomes


def _files(folder: Path) -> dict:
    return {str(p.relative_to(folder)): p.read_bytes() for p in folder.rglob("*") if p.is_file()}


def _key_paths(obj, prefix="") -> set:
    if isinstance(obj, dict):
        paths = set()
        for key, val in obj.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            paths |= {path} | _key_paths(val, path)
        return paths
    if isinstance(obj, list):
        return set().union(*(_key_paths(v, prefix + "[]") for v in obj)) if obj else set()
    return set()


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _walk(a, b, path, floats, exact):
    """Keep the largest float difference of two reports in ``floats``
    (``[difference, path]``) and list their other differences in ``exact``."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in a.keys() & b.keys():
            _walk(a[key], b[key], f"{path}.{key}" if path else str(key), floats, exact)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            exact.append(f"{path}: length {len(a)} -> {len(b)}")
        for j, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{j}]", floats, exact)
    elif _number(a) and _number(b) and float in (type(a), type(b)):
        if abs(a - b) > floats[0]:
            floats[:] = [abs(a - b), path]
    elif a != b:
        exact.append(f"{path}: {a!r} -> {b!r}")


def compare(parent: Outcome, change: Outcome) -> tuple[list[str], list[str], list]:
    """The differences that fail the comparison, informational lines, and
    the largest float difference with its path (path None: no float differs)."""
    fails, notes, floats = [], [], [0.0, None]
    if parent.code != change.code:
        fails.append(f"exit {parent.code} -> {change.code}")
    for name in sorted(parent.written.keys() | change.written.keys()):
        if parent.written.get(name) != change.written.get(name):
            sizes = [len(w[name]) if name in w else None for w in (parent.written, change.written)]
            fails.append(f"written file {name} differs ({sizes[0]} -> {sizes[1]} bytes)")
    if (parent.code or change.code) and parent.stderr != change.stderr:
        notes.append(f"stderr {parent.stderr.strip()!r} -> {change.stderr.strip()!r}")
    reports = [json.loads(o.stdout) if o.stdout.strip() else None for o in (parent, change)]
    if (reports[0] is None) != (reports[1] is None):
        fails.append(f"report {'present' if reports[0] else 'absent'} -> {'present' if reports[1] else 'absent'}")
    if reports[0] is None or reports[1] is None:
        return fails, notes, floats
    a, b = reports
    ka, kb = _key_paths(a), _key_paths(b)
    if ka != kb:
        fails.append(f"keys only in parent {sorted(ka - kb)}, only in change {sorted(kb - ka)}")
    holds = [[(v.get("claim"), v.get("holds")) for v in r.get("verdicts", [])] for r in (a, b)]
    if holds[0] != holds[1]:
        fails.append(f"holds flags {holds[0]} -> {holds[1]}")
    exact = []
    _walk(a, b, "", floats, exact)
    if floats[1] is not None:
        notes.append(f"max float diff {floats[0]:.3g} at {floats[1]}")
    return fails + exact, notes, floats


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="source tree of the parent commit")
    ap.add_argument("change", type=Path, help="source tree of the change")
    ap.add_argument("--seed", type=int, default=1, help="seed of the benchmark inputs")
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    parent, change = args.parent.resolve(), args.change.resolve()
    with tempfile.TemporaryDirectory(prefix="report_diff_") as tmp:
        work, inputs = Path(tmp) / "cases", Path(tmp) / "inputs"
        cases = cli_test_cases(change, work / "cli") + bench_cases(work / "bench", args.seed)
        shutil.copytree(work, inputs)
        outcomes = {}
        for tree in (parent, change):
            # each tree starts from the inputs alone, not from the files the other wrote
            shutil.rmtree(work)
            shutil.copytree(inputs, work)
            outcomes[tree] = replay(tree, cases)
    failed = 0
    worst = [0.0, None]
    for case, p_out, c_out in zip(cases, outcomes[parent], outcomes[change]):
        fails, notes, floats = compare(p_out, c_out)
        failed += bool(fails)
        print(f"[{'DIFF' if fails else 'same'}] {case.label} (exit {p_out.code} -> {c_out.code})")
        for line in fails + notes:
            print(f"    {line}")
        if floats[0] > worst[0]:
            worst = [floats[0], case.label]
    print(f"{len(cases)} cases, {failed} with a changed exit code, key set, holds flag, exact value or written file; "
          f"largest float difference {worst[0]:.3g}" + (f" ({worst[1]})" if worst[1] else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
