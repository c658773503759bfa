"""Every public name and option is used by the package itself, or is allowed not to be.

A use of a name is an ``ast.Name`` load or an ``ast.Attribute`` in the
code of ``src/gaussatlas/*.py`` other than ``__init__.py``; definitions,
imports and mentions in docstrings do not count.  An option, a parameter
with a default of a function in ``gaussatlas.__all__``, is set when some
``ast.Call`` of that function in the same files passes it by keyword or
by position (or passes ``*args`` or ``**kwargs``).
"""

import ast
import inspect
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

# options no call inside the package sets, each for a reason
ALLOWED_NEVER_SET = {}


def _package_nodes():
    for path in Path(gaussatlas.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            yield from ast.walk(ast.parse(path.read_text(), filename=str(path)))


def _used_names():
    used = set()
    for node in _package_nodes():
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _sets(call, index, name):
    """Whether the call passes the parameter at index, called name."""
    return (len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (name, None) for k in call.keywords))


def _never_set_options():
    calls = {}
    for node in _package_nodes():
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(callee, []).append(node)
    never = set()
    for name in gaussatlas.__all__:
        obj = getattr(gaussatlas, name)
        if not inspect.isfunction(obj):
            continue
        for i, param in enumerate(inspect.signature(obj).parameters.values()):
            if param.default is not inspect.Parameter.empty and \
                    not any(_sets(call, i, param.name) for call in calls.get(name, ())):
                never.add(f"{name}.{param.name}")
    return never


def test_every_export_has_a_use():
    dead = sorted(set(gaussatlas.__all__) - _used_names() - set(ALLOWED_UNUSED))
    assert not dead, f"exported but unused inside the package: {dead}"


def test_allowlist_holds_only_unused_exports():
    assert set(ALLOWED_UNUSED) <= set(gaussatlas.__all__)
    assert not set(ALLOWED_UNUSED) & _used_names()


def test_every_option_is_set_somewhere():
    unset = sorted(_never_set_options() - set(ALLOWED_NEVER_SET))
    assert not unset, f"options no call inside the package sets: {unset}"


def test_option_allowlist_holds_only_never_set_options():
    assert set(ALLOWED_NEVER_SET) <= _never_set_options()
