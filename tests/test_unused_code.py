"""Every function, class and method of the package is used by the package.

A definition counts as used when its name is referenced somewhere in
``src/liftlap`` outside its own body and outside ``__init__.py``: as a
name, as an attribute, or as the ``handler`` string of a CLI subparser's
``set_defaults``, which ``cli.main`` looks up by name.  A method or
property is reached through its object, so only an attribute counts for
it: a local variable or a parameter of the same name does not.  Dunder
methods are called by Python itself and are exempt.  A name that only the tests,
the README or ``__init__.py`` read belongs in the tests.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "liftlap"


def _references(tree):
    """``(name, line, is_attribute)`` of every name, attribute and
    subparser handler string in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "set_defaults":
            for keyword in node.keywords:
                if keyword.arg == "handler":
                    for value in ast.walk(keyword.value):
                        if isinstance(value, ast.Constant) and isinstance(value.value, str):
                            yield value.value, value.lineno, False


def unreferenced(package: Path) -> list[str]:
    """``module.py:line name`` of each definition in ``package`` that no
    code of the package outside ``__init__.py`` and its own body references."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(package.glob("*.py"))}
    refs: dict[str, list] = {}
    for module, tree in trees.items():
        if module != "__init__.py":
            for name, line, is_attribute in _references(tree):
                refs.setdefault(name, []).append((module, line, is_attribute))
    unused = []
    for module, tree in trees.items():
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            body = range(node.lineno, node.end_lineno + 1)
            uses = [(m, line) for m, line, is_attribute in refs.get(node.name, []) if is_attribute or id(node) not in methods]
            if all(m == module and line in body for m, line in uses):
                unused.append(f"{module}:{node.lineno} {node.name}")
    return unused


def test_every_definition_is_used_by_the_package():
    assert PACKAGE.is_dir()
    assert unreferenced(PACKAGE) == []


def test_a_definition_used_only_by_itself_is_named(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import helper, used\n")
    (tmp_path / "a.py").write_text(
        "def helper(n):\n"
        "    return helper(n - 1) if n else 0\n\n\n"
        "def used():\n"
        "    return 1\n\n\n"
        "def cmd_run(args):\n"
        "    return used()\n\n\n"
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n\n"
        "    def size(self):\n"
        "        return 0\n\n\n"
        "def build(parser, flag):\n"
        '    parser.set_defaults(handler="cmd_run" if flag else "cmd_run")\n'
        "    return Box()\n"
    )
    (tmp_path / "b.py").write_text("from .a import build\n\nbuild(None, True)\n")
    assert unreferenced(tmp_path) == ["a.py:1 helper", "a.py:17 size"]


# one rule each: a tiny package, and the names the scan must report for it
_RULES = {
    "self-recursion": (
        {"a.py": "def walk(n):\n    return walk(n - 1) if n else 0\n"},
        ["a.py:1 walk"],
    ),
    "init-only": (
        {"__init__.py": "from .a import shown\n\nrun = shown\n", "a.py": "def shown():\n    return 1\n"},
        ["a.py:1 shown"],
    ),
    "other-module": (
        {"a.py": "def shared():\n    return 1\n", "b.py": "from .a import shared\n\nshared()\n"},
        [],
    ),
    "attribute": (
        {"a.py": "class Box:\n    def size(self):\n        return 0\n", "b.py": "from . import a\n\na.Box().size()\n"},
        [],
    ),
    "unused-method": (
        {"a.py": "class Box:\n    def size(self):\n        return 0\n", "b.py": "from .a import Box\n\nBox()\n"},
        ["a.py:2 size"],
    ),
    "dunder": (
        {"a.py": "class Box:\n    def __len__(self):\n        return 0\n", "b.py": "from .a import Box\n\nlen(Box())\n"},
        [],
    ),
    "handler-string": (
        {"a.py": 'def cmd_run(args):\n    return 0\n\n\ndef build(p):\n    p.set_defaults(handler="cmd_run")\n'},
        ["a.py:5 build"],
    ),
    "other-string": (
        {"a.py": 'def cmd_run(args):\n    return 0\n\n\ndef build(p):\n    p.set_defaults(name="cmd_run")\n'},
        ["a.py:1 cmd_run", "a.py:5 build"],
    ),
    "method-named-by-a-variable": (
        {
            "a.py": "class Box:\n    def size(self):\n        return 0\n",
            "b.py": "from .a import Box\n\nsize = 1\nBox(size)\n",
        },
        ["a.py:2 size"],
    ),
    "property-named-by-a-parameter": (
        {
            "a.py": "class Box:\n    @property\n    def vertices(self):\n        return ()\n",
            "b.py": "from .a import Box\n\n\ndef face(vertices):\n    return vertices\n\n\nface(Box())\n",
        },
        ["a.py:3 vertices"],
    ),
    "class-used-in-its-own-body": (
        {"a.py": "class Node:\n    def copy(self):\n        return Node()\n", "b.py": "from . import a\n\na.copy\n"},
        ["a.py:1 Node"],
    ),
}


@pytest.mark.parametrize("rule", list(_RULES))
def test_each_rule_of_the_scan(tmp_path, rule):
    files, expected = _RULES[rule]
    for name, text in {"__init__.py": "", **files}.items():
        (tmp_path / name).write_text(text)
    assert unreferenced(tmp_path) == expected
