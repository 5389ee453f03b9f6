"""Declared dependencies match imports.

Every ``repro`` module is imported in a fresh interpreter behind a
meta-path finder that refuses any top-level package that is neither in
the standard library nor declared in ``pyproject.toml``'s
``[project] dependencies``.  ``pip install -e .`` installs only the
declared ones, so an undeclared import would break a plain install
while passing here on a machine that happens to have the package.
Standard library only (no ``tomllib``: it is missing on Python 3.10).
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

IMPORT_ALL = r"""
import importlib
import pkgutil
import sys

allowed = set(sys.stdlib_module_names) | set(sys.argv[1:]) | {"repro"}


class Blocker:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top not in allowed:
            raise ModuleNotFoundError(f"undeclared dependency: {name}", name=name)
        return None


sys.meta_path.insert(0, Blocker())
import repro

names = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
]
for name in names:
    importlib.import_module(name)
print(len(names))
"""


def declared_dependencies() -> list[str]:
    """Import names of ``[project] dependencies`` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert match, "pyproject.toml declares no [project] dependencies list"
    requirements = re.findall(r"[\"']([^\"']+)[\"']", match.group(1))
    return [
        re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower().replace("-", "_")
        for req in requirements
    ]


def test_every_module_imports_with_only_declared_dependencies():
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_ALL, *declared_dependencies()],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    # The walk really covered the package.
    assert int(result.stdout.split()[-1]) > 90


def test_no_declared_dependency_is_unused():
    # A declared package no module imports is dead weight on install.
    sources = "\n".join(
        path.read_text() for path in (ROOT / "src").rglob("*.py")
    )
    for name in declared_dependencies():
        assert re.search(rf"^\s*(import|from)\s+{name}\b", sources, re.M), name
