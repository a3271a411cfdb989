"""Internal faults are typed errors, never bare asserts."""

import ast
import contextlib
import glob
import io
import json
import os

import pytest

from flagke import einstein as ein
from flagke.cli import main
from flagke.errors import FlagkeError, InternalError

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "flagke")
A2XA2_SOLVE = ["solve", "--group", "A2xA2", "--painted", "1,3", "--z", "1,0,-1,0", "--m1", "1", "--m2", "1"]


def test_no_bare_assert_in_package():
    # python -O strips asserts, and an AssertionError escapes the CLI as a
    # traceback; raise InternalError instead
    files = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert files
    found = []
    for path in files:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += ["%s:%d" % (os.path.basename(path), n.lineno) for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not found, "bare assert in src/flagke: %s" % ", ".join(found)


def _parse(paths):
    for path in paths:
        with open(path) as fh:
            yield path, ast.parse(fh.read(), filename=path)


def test_every_top_level_name_outside_all_has_a_caller():
    # a function or class of the package that is neither exported nor used by
    # the package, the benchmark or the demos is dead code, or a test helper
    # that belongs under tests/; so is a method or property of its classes,
    # dunders aside, whose name the package, the benchmark and the demos never read
    import flagke

    root = os.path.join(SRC, os.pardir, os.pardir)
    defined, methods = {}, {}
    for path, tree in _parse(glob.glob(os.path.join(SRC, "*.py"))):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = "%s:%d" % (os.path.basename(path), node.lineno)
            if isinstance(node, ast.ClassDef):
                methods.update(("%s.%s" % (node.name, m.name), "%s:%d" % (os.path.basename(path), m.lineno))
                               for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                               and not (m.name.startswith("__") and m.name.endswith("__")))
    # the package's module __getattr__ (PEP 562) is called by the interpreter
    assert defined.pop("__getattr__").startswith("__init__.py:")
    used = set()
    users = [os.path.join(root, d, "*.py") for d in ("src/flagke", "benchmarks", "demos")]
    for _, tree in _parse(sorted(p for pattern in users for p in glob.glob(pattern))):
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
            elif isinstance(n, ast.alias):
                used.add(n.name)
    unused = sorted("%s (%s)" % (name, where) for name, where in defined.items()
                    if name not in flagke.__all__ and name not in used)
    unused += sorted("%s (%s)" % (name, where) for name, where in methods.items() if name.split(".")[1] not in used)
    assert not unused, "no caller in src/flagke, benchmarks or demos: %s" % ", ".join(unused)


def test_every_module_level_import_is_read():
    # an import that its module never reads is a leftover of moved or deleted
    # code; names in __all__, lines marked noqa and __future__ imports are exempt
    unread = []
    for path, tree in _parse(sorted(glob.glob(os.path.join(SRC, "*.py")))):
        with open(path) as fh:
            lines = fh.read().splitlines()
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        exported = {name for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for name in ast.literal_eval(node.value)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and name not in exported:
                    unread.append("%s:%d %s" % (os.path.basename(path), node.lineno, name))
    assert not unread, "imported but never read: %s" % ", ".join(unread)


def _called_name(node):
    """The name a call or a function reference uses: f, or the attribute of obj.f."""
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def test_every_defaulted_parameter_is_set_by_a_caller():
    # a default that no call in the package, the benchmark or the demos
    # overrides is a constant in disguise; only the console entry point
    # cli.main(argv) is exempt.  A call passes a parameter by keyword or by
    # position; a function handed to a call, as in tr.call(label, f, *args),
    # receives the arguments that follow it
    root = os.path.join(SRC, os.pardir, os.pardir)
    params = {}  # (name called, parameter) -> (positional index or None, where)
    for path, tree in _parse(sorted(glob.glob(os.path.join(SRC, "*.py")))):
        scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, (ast.ClassDef, ast.FunctionDef))]
        for scope in scopes:
            for fn in ast.iter_child_nodes(scope):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                called = scope.name if fn.name == "__init__" else fn.name
                positional = fn.args.posonlyargs + fn.args.args
                skip = isinstance(scope, ast.ClassDef) and not any(
                    _called_name(d) == "staticmethod" for d in fn.decorator_list)
                where = "%s:%d %s" % (os.path.basename(path), fn.lineno, fn.name)
                first = len(positional) - len(fn.args.defaults)
                for index, arg in enumerate(positional[first:], start=first - skip):
                    params[called, arg.arg] = (index, where)
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                    if default is not None:
                        params[called, arg.arg] = (None, where)
    params.pop(("main", "argv"))
    passed = set()
    users = [os.path.join(root, d, "*.py") for d in ("src/flagke", "benchmarks", "demos")]
    for _, tree in _parse(sorted(p for pattern in users for p in glob.glob(pattern))):
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            targets = [(_called_name(call.func), call.args)]
            targets += [(_called_name(a), call.args[i + 1:]) for i, a in enumerate(call.args)]
            for name, args in targets:
                passed.update((name, kw.arg) for kw in call.keywords)
                passed.update((name, i) for i in range(len(args)))
    unset = sorted("%s(%s)" % (where, param) for (name, param), (index, where) in params.items()
                   if (name, param) not in passed and (name, index) not in passed)
    assert not unset, "defaulted parameters that no caller sets: %s" % ", ".join(unset)


@pytest.fixture
def drifted_end_curvature(monkeypatch):
    fp_fpp = ein.SegmentPolynomial.fp_fpp

    def drifted(self, f):
        fp, fpp = fp_fpp(self, f)
        return fp, fpp + 1e-3

    monkeypatch.setattr(ein.SegmentPolynomial, "fp_fpp", drifted)


def test_end_curvature_drift_raises_internal_error(ke_base, drifted_end_curvature):
    assert issubclass(InternalError, FlagkeError)
    sp = ein.build_segment_polynomial(ke_base, 1, 1)
    with pytest.raises(InternalError, match="f''\\(0\\)"):
        ein.profile_solve(sp)


def test_internal_error_reaches_cli_as_exit_one(drifted_end_curvature):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(A2XA2_SOLVE)
    assert code == 1
    report = json.loads(buf.getvalue())
    assert report["error"].startswith("internal: f''(0)")
