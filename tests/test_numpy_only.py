"""dimerge is numpy-only: its modules import nothing beyond the standard
library, numpy and dimerge itself."""

import ast
import sys
from pathlib import Path

import dimerge

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "dimerge"}


def imported_packages(path: Path) -> set[str]:
    """The top-level package of every absolute import in the module at ``path``."""
    packages = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def test_modules_import_only_stdlib_and_numpy():
    modules = sorted(Path(dimerge.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    outside = {path.name: sorted(imported_packages(path) - ALLOWED) for path in modules}
    assert not {name: packages for name, packages in outside.items() if packages}
