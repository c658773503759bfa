"""Every public name is used by the package itself, or is allowed not to be.

A use is an ``ast.Name`` load or an ``ast.Attribute`` in the code of
``src/gaussatlas/*.py`` other than ``__init__.py``; definitions, imports
and mentions in docstrings do not count.
"""

import ast
from pathlib import Path

import gaussatlas

# exported without a caller inside the package, each for a reason
ALLOWED_UNUSED = {
    "__version__": "package metadata",
    "backend": "recorded in the environment of every benchmark result",
    "SIGMA1": "documented primitive; tests use it as a reference",
    "squeeze": "documented primitive; tests use it as a reference",
    "is_valid_state": "documented primitive; tests use it as a reference",
    "cp_defect": "documented primitive; tests use it as a reference",
}


def _used_names():
    used = set()
    for path in Path(gaussatlas.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_use():
    dead = sorted(set(gaussatlas.__all__) - _used_names() - set(ALLOWED_UNUSED))
    assert not dead, f"exported but unused inside the package: {dead}"


def test_allowlist_holds_only_unused_exports():
    assert set(ALLOWED_UNUSED) <= set(gaussatlas.__all__)
    assert not set(ALLOWED_UNUSED) & _used_names()
