"""Call-path spans around gaussatlas, recorded from outside the package.

``Tracer.install`` wraps every public function of the layer modules, and
the constructor and public methods of every public class they define,
then rebinds each wrapped function in every ``gaussatlas`` namespace that
holds it, so a call made through ``from .breaking import report`` is seen
as well as one made through ``breaking.report``.  Spans nest: a span's
self time is its duration minus the time of the spans it called.

Spans are aggregated per call path (count, total and child time), so
memory stays bounded however many hot inner calls a run makes.
``totals`` folds the paths into one record per span name; a name that
was never called, or no longer exists, reads as zero.
"""

import enum
import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "breaking", "channels", "gaussian_core", "_kernels", "phase_space")

ZERO = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}


class _Node:
    __slots__ = ("children", "calls", "total", "child")

    def __init__(self):
        self.children = {}
        self.calls = 0
        self.total = 0.0
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.root = _Node()
        self._stack = [self.root]
        self._plan = None  # (owner, attr, original, wrapper) for every rebinding

    def wrap(self, name, fn):
        """fn wrapped in a span called name."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = _Node()
            stack.append(node)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                node.calls += 1
                node.total += dt
                parent.child += dt

        return spanned

    def _wrap_class(self, label, cls):
        name = f"{label}.{cls.__name__}"
        for attr, member in list(vars(cls).items()):
            if not inspect.isfunction(member):
                continue
            if attr == "__init__":
                self._plan.append((cls, attr, member, self.wrap(name, member)))
            elif not attr.startswith("_"):
                self._plan.append((cls, attr, member, self.wrap(f"{name}.{attr}", member)))

    def install(self, package="gaussatlas"):
        """Wrap the layer modules of package; a missing module is skipped.

        The wrappers are built on the first call; later calls after
        ``uninstall`` rebind the same wrappers, so spans keep adding up.
        """
        if self._plan is None:
            self._plan = []
            self._build(package)
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._plan or ()):
            setattr(owner, attr, original)

    def _build(self, package):
        importlib.import_module(package)
        wrapped = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                continue
            label = layer.lstrip("_")  # span names start with a letter: kernels.*
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if id(obj) not in wrapped:
                        wrapped[id(obj)] = (obj, self.wrap(f"{label}.{attr}", obj))
                elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                    self._wrap_class(label, obj)
        prefix = package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(prefix)):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._plan.append((mod, attr, obj, hit[1]))

    def paths(self):
        """Every call path as ('a/b/c', calls, total_s, self_s), depth first."""
        out = []

        def visit(node, prefix):
            for name, child in node.children.items():
                path = f"{prefix}/{name}" if prefix else name
                out.append((path, child.calls, child.total, child.total - child.child))
                visit(child, path)

        visit(self.root, "")
        return out

    def totals(self):
        """{name: {calls, busy_s, self_s}} summed over call paths.

        busy_s counts only the outermost span of a name on each path, so
        a recursive call is not timed twice.
        """
        out = {}

        def visit(node, active):
            for name, child in node.children.items():
                rec = out.setdefault(name, dict(ZERO))
                rec["calls"] += child.calls
                rec["self_s"] += child.total - child.child
                if name not in active:
                    rec["busy_s"] += child.total
                visit(child, active | {name})

        visit(self.root, frozenset())
        return out
