"""Every public name and option is used by the package itself, or is allowed not to be.

A use of a name is an ``ast.Name`` load or an ``ast.Attribute`` in the
code of ``src/gaussatlas/*.py`` other than ``__init__.py``; definitions,
imports and mentions in docstrings do not count.  An option, a parameter
with a default of a function in ``gaussatlas.__all__``, is set when some
``ast.Call`` of that function in the same files passes it by keyword or
by position (or passes ``*args`` or ``**kwargs``).

The library calls no ``np.linalg`` routine: every 2x2 problem has a
closed form.  Only ``verify.py`` keeps LAPACK, as the independent
reference of its criteria.  Likewise only ``verify.py`` builds
``np.meshgrid`` pairs, and no module builds ``np.repeat`` / ``np.tile``
columns; the library builds its grids from per-axis vectors that
broadcast.
Bulk float text has one route, ``_kernels.text12``: a ``.12g`` format
spec appears only in its Python fallback and in the CLI's scalar helper.
"""

import ast
import inspect
from pathlib import Path

import gaussatlas

PACKAGE = Path(gaussatlas.__file__).parent

# exported without a caller inside the package, each for a reason
ALLOWED_UNUSED = {
    "__version__": "package metadata",
    "backend": "recorded in the environment of every benchmark result",
    "cp_defect": "documented primitive; tests use it as a reference",
}

# options no call inside the package sets, each for a reason
ALLOWED_NEVER_SET = {}


# modules allowed to call np.linalg, each for a reason
ALLOWED_LINALG = {
    "verify.py": "its criteria check the closed forms against LAPACK references",
}

# functions allowed a ".12g" format spec, each for a reason
ALLOWED_TEXT_SPEC = {
    "_kernels.py:_python_text": "text12's fallback: the rows the kernel leaves to Python",
    "cli.py:_fmt": "one float at a time, in messages, record heads and _jsonable",
}

# modules allowed to build np.meshgrid pairs, each for a reason
ALLOWED_MESHGRID = {
    "verify.py": "its criteria keep full-grid expressions as independent references",
}

GRID_COPIES = ("repeat", "tile")  # numpy functions that copy an axis into a full grid


def _module_nodes(path):
    return ast.walk(ast.parse(path.read_text(), filename=str(path)))


def _package_nodes():
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            yield from _module_nodes(path)


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


def _linalg_uses(path):
    """Lines of path that reach numpy.linalg: np.linalg / numpy.linalg, or an import of it."""
    for node in _module_nodes(path):
        if isinstance(node, ast.Attribute):
            found = node.attr == "linalg" and isinstance(node.value, ast.Name) \
                and node.value.id in ("np", "numpy")
        elif isinstance(node, ast.Import):
            found = any(alias.name.startswith("numpy.linalg") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            found = module.startswith("numpy.linalg") or (
                module == "numpy" and any(alias.name == "linalg" for alias in node.names))
        else:
            found = False
        if found:
            yield f"{path.name}:{node.lineno}"


def test_linalg_check_sees_every_route_to_numpy_linalg(tmp_path):
    routes = ["np.linalg.eigvalsh(m)", "la = numpy.linalg", "import numpy.linalg",
              "import numpy.linalg as la", "from numpy import linalg",
              "from numpy.linalg import eigvalsh"]
    for i, line in enumerate(routes):
        path = tmp_path / f"m{i}.py"
        path.write_text(f"import numpy as np\n{line}\n")
        assert list(_linalg_uses(path)) == [f"{path.name}:2"], line


def test_no_linalg_call_outside_the_verification_criteria():
    uses = [line for path in sorted(PACKAGE.glob("*.py"))
            if path.name not in ALLOWED_LINALG for line in _linalg_uses(path)]
    assert not uses, f"numpy.linalg in library code: {uses}"


def test_linalg_allowlist_holds_only_modules_that_call_it():
    for name in ALLOWED_LINALG:
        assert any(_linalg_uses(PACKAGE / name)), name


def _numpy_uses(path, names):
    """Lines of path that reach numpy's names: np.<name> / numpy.<name>, or an import of one."""
    for node in _module_nodes(path):
        if isinstance(node, ast.Attribute):
            found = node.attr in names and isinstance(node.value, ast.Name) \
                and node.value.id in ("np", "numpy")
        elif isinstance(node, ast.ImportFrom):
            found = node.module == "numpy" and any(a.name in names for a in node.names)
        else:
            found = False
        if found:
            yield f"{path.name}:{node.lineno}"


def test_meshgrid_check_sees_every_route_to_numpy_meshgrid(tmp_path):
    routes = ["np.meshgrid(x, x)", "mesh = numpy.meshgrid", "from numpy import meshgrid"]
    for i, line in enumerate(routes):
        path = tmp_path / f"m{i}.py"
        path.write_text(f"import numpy as np\n{line}\n")
        assert list(_numpy_uses(path, ("meshgrid",))) == [f"{path.name}:2"], line


def test_no_meshgrid_outside_the_verification_criteria():
    uses = [line for path in sorted(PACKAGE.glob("*.py"))
            if path.name not in ALLOWED_MESHGRID for line in _numpy_uses(path, ("meshgrid",))]
    assert not uses, f"numpy.meshgrid in library code: {uses}"


def test_meshgrid_allowlist_holds_only_modules_that_call_it():
    for name in ALLOWED_MESHGRID:
        assert any(_numpy_uses(PACKAGE / name, ("meshgrid",))), name


def test_grid_copy_check_sees_every_route_to_numpy_repeat_and_tile(tmp_path):
    routes = ["np.repeat(x, n)", "np.tile(x, n)", "copy = numpy.repeat", "copy = numpy.tile",
              "from numpy import repeat", "from numpy import linspace, tile"]
    for i, line in enumerate(routes):
        path = tmp_path / f"m{i}.py"
        path.write_text(f"import numpy as np\n{line}\n")
        assert list(_numpy_uses(path, GRID_COPIES)) == [f"{path.name}:2"], line


def test_no_repeat_or_tile_grids_in_the_package():
    uses = [line for path in sorted(PACKAGE.glob("*.py"))
            for line in _numpy_uses(path, GRID_COPIES)]
    assert not uses, f"numpy.repeat / numpy.tile in the package: {uses}"


def _text_spec_uses(path):
    """file:function of each ".12g" format spec in path, docstrings aside.

    A %-format, an f-string spec, format() and str.format all keep the
    spec in a string constant; code outside any function reads <module>.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)}

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and ".12g" in node.value and id(node) not in docs:
            yield f"{path.name}:{where}"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)

    return list(visit(tree, "<module>"))


def test_text_spec_check_sees_every_route(tmp_path):
    routes = ['"%.12g" % v', 'f"{v:.12g}"', 'format(v, ".12g")', '"{:.12g}".format(v)',
              '"%s,%.12g" % (k, v)', 'f"{k},{v:.12g}"']
    for i, line in enumerate(routes):
        path = tmp_path / f"m{i}.py"
        path.write_text(f'"""Prints with "%.12g"."""\n\n\ndef f(k, v):\n    """{{v:.12g}}"""\n'
                        f"    return {line}\n\n\nTOP = {line.replace('v', '1.5')}\n")
        assert _text_spec_uses(path) == [f"{path.name}:f", f"{path.name}:<module>"], line


def test_bulk_float_text_goes_through_the_kernel():
    uses = [use for path in sorted(PACKAGE.glob("*.py")) for use in _text_spec_uses(path)]
    assert not sorted(set(uses) - set(ALLOWED_TEXT_SPEC)), f".12g outside text12: {uses}"


def test_text_spec_allowlist_holds_only_functions_that_use_it():
    uses = {use for path in PACKAGE.glob("*.py") for use in _text_spec_uses(path)}
    assert set(ALLOWED_TEXT_SPEC) <= uses
