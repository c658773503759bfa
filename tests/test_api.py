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
Output files have one route, ``cli._emit``: no other function opens or
writes a file, so an unwritable ``--out`` path is refused in one place.

The seven records (``Channel``, the result records and the two
phase-space grids) build by position and by keyword and compare by
identity; a ``Channel`` and a grid refuse assignment, and a ``Channel``
decides its CP verdict once, at construction.
"""

import ast
import inspect
from pathlib import Path

import pytest

import gaussatlas
from gaussatlas import _kernels

PACKAGE = Path(gaussatlas.__file__).parent

# exported without a caller inside the package, each for a reason
ALLOWED_UNUSED = {
    "__version__": "package metadata",
    "backend": "recorded in the environment of every benchmark result",
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

# functions allowed to open or write a file, each for a reason
ALLOWED_FILE_OUTPUT = {
    "cli.py:_emit": "the one writer of output files; an unwritable path is a usage error",
    "cli.py:main": "os.open(os.devnull) takes standard output over after a broken pipe",
}

FILE_OUTPUT = ("open", "write_text", "write_bytes")  # names that open or write a file

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


def _file_output_uses(path):
    """file:function of each route to open or write a file in path.

    A route is the name open, an attribute open (io.open, Path.open,
    os.open), write_text or write_bytes, or an import of one of them;
    code outside any function reads <module>.
    """
    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Name) and node.id in FILE_OUTPUT
                or isinstance(node, ast.Attribute) and node.attr in FILE_OUTPUT
                or isinstance(node, ast.ImportFrom)
                and any(a.name in FILE_OUTPUT for a in node.names)):
            yield f"{path.name}:{where}"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)

    return list(visit(ast.parse(path.read_text(), filename=str(path)), "<module>"))


def test_file_output_check_sees_every_route(tmp_path):
    routes = ['open(p, "wb")', 'io.open(p, "w")', 'Path(p).open("w")', "Path(p).write_text(s)",
              "p.write_bytes(s)", "builtins.open(p)", "writer = Path.write_text",
              "from io import open as io_open", "from pathlib import Path, write_bytes"]
    for i, line in enumerate(routes):
        path = tmp_path / f"m{i}.py"
        path.write_text(f'import io\nfrom pathlib import Path\n\n\ndef f(p, s):\n'
                        f'    """Opens p."""\n    {line}\n\n\n{line}\n')
        assert _file_output_uses(path) == [f"{path.name}:f", f"{path.name}:<module>"], line


def test_output_files_have_one_writer():
    uses = {use for path in sorted(PACKAGE.glob("*.py")) for use in _file_output_uses(path)}
    assert not sorted(uses - set(ALLOWED_FILE_OUTPUT)), f"files opened outside _emit: {uses}"


def test_file_output_allowlist_holds_only_functions_that_use_it():
    uses = {use for path in PACKAGE.glob("*.py") for use in _file_output_uses(path)}
    assert set(ALLOWED_FILE_OUTPUT) <= uses


_UNIT = [[1.0, 0.0], [0.0, 1.0]]

# each record with its constructor's arguments by name, in order
RECORDS = {
    "Channel": {"X": _UNIT, "Y": [[2.0, 0.5], [0.5, 3.0]]},
    "CanonicalForm": {"kind": gaussatlas.Kind.I, "kappa": 1.0, "a": 3.0, "b": 2.0,
                      "channel": gaussatlas.Channel(_UNIT, _UNIT)},
    "BreakingReport": {"form": "form", "cp": True, "eb": True, "ncb": False,
                       "shifted_noise": (3.0, 2.0), "margins": {"cp": 5.0}},
    "OrbitPoint": {"r": 0.5, "a_r": 1.5, "b_r": 4.0, "ncb": True},
    "RegionSweep": {"kind": gaussatlas.Kind.II, "kappa": 2.0, "a": "a", "b": "b",
                    "code": "code", "margins": {}},
    "CharGrid": {"s": 0.0, "axis": "axis", "values": "values"},
    "QuasiGrid": {"s": 1.0, "axis": "axis", "values": "values"},
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_build_by_position_and_keyword_and_compare_by_identity(name, monkeypatch):
    cls, args = getattr(gaussatlas, name), RECORDS[name]
    seen = []
    real = _kernels.herm2_psd
    monkeypatch.setattr(_kernels, "herm2_psd", lambda *a: seen.append(a) or real(*a))
    by_position, by_keyword = cls(*args.values()), cls(**args)
    for record in (by_position, by_keyword):
        for field, value in args.items():
            got = getattr(record, field)
            assert got.tolist() == value if name == "Channel" else got is value, field
    assert by_position == by_position and by_position != by_keyword
    assert len({by_position, by_keyword}) == 2
    if name.endswith("Grid"):
        for field in args:  # a FrozenInstanceError is an AttributeError
            with pytest.raises(AttributeError):
                setattr(by_position, field, None)
    if name == "Channel":
        for _ in range(3):
            assert gaussatlas.is_cp(by_position) and gaussatlas.is_cp(by_keyword)
        assert len(seen) == 2  # one CP test per channel, at construction
        for field in ("_x", "X", "_cp", "det_x", "_noise", "new"):
            with pytest.raises(AttributeError):
                setattr(by_position, field, None)
            with pytest.raises(AttributeError):
                delattr(by_position, field)
        assert by_position._x == (1.0, 0.0, 0.0, 1.0)
