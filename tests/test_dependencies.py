"""Every import in the library, the tests and the demos is declared.

An import must name the standard library, a dependency listed in
pyproject.toml (runtime or test extra), or code in this checkout.  Other
packages that happen to be installed, such as sympy or mpmath, stay out.
"""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "demos")


def _declared() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    specs = list(project["dependencies"])
    for extra in project.get("optional-dependencies", {}).values():
        specs += extra
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
            .replace("-", "_") for spec in specs}


def _local() -> set[str]:
    packages = {p.name for p in (ROOT / "src").iterdir()
                if (p / "__init__.py").is_file()}
    return packages | {p.stem for p in (ROOT / "tests").glob("*.py")}


def _imports(path: pathlib.Path):
    """(line, top-level module) of every absolute import, nested ones too."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_import_is_stdlib_declared_or_local():
    allowed = set(sys.stdlib_module_names) | _declared() | _local()
    stray = [f"{path.relative_to(ROOT)}:{line} {module}"
             for tree in TREES for path in sorted((ROOT / tree).rglob("*.py"))
             for line, module in _imports(path) if module not in allowed]
    assert stray == []


def test_the_walk_sees_imports_inside_functions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f():\n    import sympy\n    from mpmath import mp\n",
                     encoding="utf-8")
    assert list(_imports(probe)) == [(2, "sympy"), (3, "mpmath")]
