"""The benchmark harness in perfbench/ imports names from the package, and
its own tests are not part of this suite: a name deleted from the package
would break the benchmark without failing any test here."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def package_imports():
    """(file, module, name) for each `from hotmine.<mod> import name`."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hotmine."):
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_every_name_perfbench_imports_exists_in_the_package():
    imports = list(package_imports())
    assert {module for _, module, _ in imports} >= {"hotmine.pipeline", "hotmine.refining"}
    missing = [
        f"{file}: from {module} import {name}"
        for file, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, missing
