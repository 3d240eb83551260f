"""The modules a benchmark run loads.

``np.unique`` imports ``numpy.ma``, about 1 MB of resident memory, so a
command that reaches it shows in the benchmark's ``peak_rss_mb``.  Every
case of every benchmark workload runs here, shrunk, through
``liftlap.cli.main`` in one fresh interpreter, which must end without it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout
from pathlib import Path

from liftlap import cli
from perfbench import workloads

codes = {}
for workload in workloads.WORKLOADS:
    folder = Path(sys.argv[1]) / workload
    folder.mkdir()
    for case in workloads.build_cases(workload, 1, folder, tiny=True):
        with redirect_stdout(io.StringIO()):
            codes[case.label] = cli.main(case.argv)
print(json.dumps({"codes": codes, "numpy.ma": "numpy.ma" in sys.modules}))
"""


def test_no_bench_command_imports_numpy_ma(tmp_path):
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout.splitlines()[-1])
    assert len(out["codes"]) == 11 and set(out["codes"].values()) == {0}, out["codes"]
    assert not out["numpy.ma"]
