import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cutsys"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    """The names that module-level imports bind and the module never reads,
    except those of an import whose line carries `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_check_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import json\nimport os.path\nfrom math import gcd as g, lcm\n"
        "def f(x):\n    return os.path.join(x, str(g(2, 4)))\n"
        "import re  # noqa: F401  (kept on purpose)\n"
    )
    assert _unused_imports(source) == [(2, "json"), (4, "lcm")]


@pytest.mark.parametrize("path", MODULES + sorted((ROOT / "tests").glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_no_assert_statements():
    # python -O strips asserts, so a check that guards soundness must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in [SRC / "__init__.py"] + MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# module-level definitions that no other place in src/cutsys reads, each with
# the reason it stays
UNREFERENCED_OK = {
    "homotopy.hex_escorts": "the hexagon construction on its own (acceptance criterion 7)",
    "complexes.f2_gamma1_eccentricity": "called by perfbench/work.py (f2-diameter)",
    "complexes.f2_gamma_k2_eccentricity": "called by perfbench/work.py (f2-diameter)",
    "complexes.f2_count_vertices_k2": "called by perfbench/work.py (f2-diameter)",
}


def _unreferenced(sources, exported=()):
    """`module.name` of each module-level def or class whose name no other
    top-level statement of any module reads, as a Name or an Attribute, and
    that is not in `exported`."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    reads = []  # (top-level statement, the names read inside it)
    for tree in trees.values():
        for node in tree.body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            reads.append((node, names))
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in exported:
                continue
            if not any(node.name in names for other, names in reads if other is not node):
                out.append(f"{mod}.{node.name}")
    return sorted(out)


def test_the_check_finds_unreferenced_definitions():
    sources = {
        "a": "def used():\n    pass\ndef rec(n):\n    return rec(n - 1)\nclass Gone:\n    pass\n",
        "b": "from . import a\nx = a.used()\ndef shown():\n    pass\n",
    }
    assert _unreferenced(sources, exported={"shown"}) == ["a.Gone", "a.rec"]


def _exported():
    """The names cutsys/__init__.py imports from its modules."""
    init = ast.parse((SRC / "__init__.py").read_text())
    return {a.asname or a.name for n in init.body if isinstance(n, ast.ImportFrom) for a in n.names}


def test_every_definition_is_reached_or_allowed():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert _unreferenced(sources, _exported()) == sorted(UNREFERENCED_OK)


def test_exports_are_the_quick_tour_imports():
    # an export is exempt from the reachability check above, so the list
    # grows only together with README's quick tour
    block = re.search(r"from cutsys import \((.*?)\)", (ROOT / "README.md").read_text(), re.S)
    tour = {name.strip() for name in block.group(1).split(",") if name.strip()}
    assert tour == _exported()


def test_numpy_floor_has_bitwise_count():
    # complexes calls np.bitwise_count, which numpy 2.0 introduced
    deps = re.search(r"^dependencies = \[(.*)\]$", (ROOT / "pyproject.toml").read_text(), re.M).group(1)
    major, minor = re.search(r'"numpy>=(\d+)\.(\d+)', deps).groups()
    assert (int(major), int(minor)) >= (2, 0)
