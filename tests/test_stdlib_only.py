"""The package runs on the standard library alone: every module of
src/assetval imports only the standard library and the package itself,
and pyproject.toml declares no runtime dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "assetval").glob("*.py"))


def imported_names(tree):
    """The top-level name of every absolute import in tree, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_modules_found():
    assert "cli.py" in {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = {name for name in imported_names(tree)
               if name != "assetval" and name not in sys.stdlib_module_names}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_no_runtime_dependencies_declared():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.findall(r"^dependencies\s*=.*$", project, re.M) == ["dependencies = []"]
