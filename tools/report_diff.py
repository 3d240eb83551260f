"""Compare the JSON reports of two liftlap source trees, case by case.

Run from the repository root:

    python3 tools/report_diff.py PARENT_TREE CHANGE_TREE [--seed 1]

Each tree is a checkout holding ``src/liftlap`` (a ``git archive`` of a
commit, or the working tree itself).  The cases are

* every call of ``liftlap.cli.main`` made by CHANGE_TREE's
  ``tests/test_cli.py``, recorded by running that file under pytest with
  each input file copied aside as the call is made, and
* every case of the benchmark workloads, generated at ``--seed`` by this
  repository's ``perfbench.workloads`` (imported, never modified).

Both trees run every case in-process, in this interpreter, on the same
input files and in the same order.  Monkeypatches made inside a test are
not replayed: each recorded call runs against the unpatched library.
For each case the script prints what differs: the exit code, the set of
report keys (list positions collapsed to ``[]``), the verdicts' ``holds``
flags, exact values (integers, strings, lengths), the bytes of the file
named by ``--out`` (read right after each tree's run, since both trees
write it to the same place) and stderr when the exit code is nonzero; and
in every case the largest difference between corresponding floats, with
its location.  It exits 1 when an exit code, key set, holds flag, exact
value or ``--out`` file differs, 0 otherwise.
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
    written: bytes | None  # the --out file after the run; None when absent


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

    def _snapshot(self, nodeid: str, argv) -> Case:
        folder = self.workdir / str(len(self.cases))
        folder.mkdir(parents=True)
        argv = [str(a) for a in argv]
        kept = []
        for j, arg in enumerate(argv):
            if j and argv[j - 1] == "--out":
                arg = str(folder / Path(arg).name)
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
            self.cases.append(self._snapshot(item.nodeid, argv))
            return real(argv)

        module.main = recording
        item.addfinalizer(lambda: setattr(module, "main", real))


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
        outcomes.append(Outcome(code, out.getvalue(), err.getvalue(), _written(case)))
    return outcomes


def _written(case: Case) -> bytes | None:
    argv = case.argv
    if "--out" not in argv[:-1]:
        return None
    path = case.cwd / argv[argv.index("--out") + 1]
    return path.read_bytes() if path.is_file() else None


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
        if floats[1] is None or abs(a - b) > floats[0]:
            floats[:] = [abs(a - b), path]
    elif a != b:
        exact.append(f"{path}: {a!r} -> {b!r}")


def compare(parent: Outcome, change: Outcome) -> tuple[list[str], list[str], list]:
    """The differences that fail the comparison, informational lines, and
    the largest float difference with its path (path None: no floats)."""
    fails, notes, floats = [], [], [0.0, None]
    if parent.code != change.code:
        fails.append(f"exit {parent.code} -> {change.code}")
    if parent.written != change.written:
        sizes = [None if w is None else len(w) for w in (parent.written, change.written)]
        fails.append(f"--out file differs ({sizes[0]} -> {sizes[1]} bytes)")
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
        work = Path(tmp)
        cases = cli_test_cases(change, work / "cli") + bench_cases(work / "bench", args.seed)
        outcomes = {tree: replay(tree, cases) for tree in (parent, change)}
    failed = 0
    worst = [0.0, None]
    for case, p_out, c_out in zip(cases, outcomes[parent], outcomes[change]):
        fails, notes, floats = compare(p_out, c_out)
        failed += bool(fails)
        print(f"[{'DIFF' if fails else 'same'}] {case.label} (exit {p_out.code} -> {c_out.code})")
        for line in fails + notes:
            print(f"    {line}")
        if floats[1] is not None and floats[0] >= worst[0]:
            worst = [floats[0], case.label]
    print(f"{len(cases)} cases, {failed} with a changed exit code, key set, holds flag, exact value or --out file; "
          f"largest float difference {worst[0]:.3g}" + (f" ({worst[1]})" if worst[1] else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
