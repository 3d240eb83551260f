import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{j}" for j in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})


def _entry_points():
    """The name that starts each top-level comma item of the functions
    column of the README's "Key entry points" table, with its area."""
    table = README.read_text().split("Key entry points:", 1)[1].split("\n\n", 2)[1]
    for row in table.splitlines()[2:]:
        area, functions = (cell.strip() for cell in row.strip("|").split("|"))
        depth, item = 0, ""
        for ch in functions + ",":
            depth += {"(": 1, ")": -1}.get(ch, 0)
            if ch == "," and depth == 0:
                yield area, item.strip()
                item = ""
            else:
                item += ch


ENTRY_POINTS = list(_entry_points())


def test_readme_table_lists_entry_points():
    assert {area for area, _ in ENTRY_POINTS} == {"complexes", "operators", "coverings", "representations", "homology"}


@pytest.mark.parametrize("area, item", ENTRY_POINTS, ids=[item[:40] for _, item in ENTRY_POINTS])
def test_readme_entry_point_is_exported(area, item):
    import liftlap

    m = re.match(r"`([A-Za-z_]\w*)", item)
    assert m, f"{area} item {item[:40]!r} does not start with a backticked name"
    assert hasattr(liftlap, m.group(1)), f"README {area} entry point {m.group(1)} is not exported by liftlap"
