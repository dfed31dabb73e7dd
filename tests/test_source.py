"""Source-level guards over the package modules and the benchmark's use of them."""
import ast
import importlib
import re
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

import goldcut

PACKAGE = Path(goldcut.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_no_assert_statements():
    # python -O strips assert statements, so no check in the package may
    # rely on one; raise an error instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements in goldcut: %s" % ", ".join(found)


def test_no_module_level_caches():
    # what is derived from a circuit lives on that object (bipartition,
    # simulator._run), as long as it does; a functools cache keyed by
    # argument would keep it for as long as the process
    banned = {"functools.lru_cache", "functools.cache"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = ["functools." + a.name for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [_dotted(node)]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name) for name in names
                      if name in banned]
        found += ["%s:%d %s" % (path.name, line, name)
                  for line, name in _module_state_writes(path.read_text(encoding="utf-8"))]
    assert not found, "module-level caches in goldcut: %s" % ", ".join(found)


# calls that change a dict, list or set in place
MUTATORS = {"setdefault", "update", "append", "extend", "insert", "add", "pop", "clear"}
CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _module_state_writes(source):
    """(line, name) of each write, inside a function, to a dict, list or set
    bound at module level: a subscript assigned or deleted, or a mutating
    method call. A function that binds the name itself reads its own local."""
    tree = ast.parse(source)
    shared = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and (
                isinstance(stmt.value, CONTAINERS) or isinstance(stmt.value, ast.Call)
                and _dotted(stmt.value.func).split(".")[-1] in ("dict", "list", "set",
                                                                "defaultdict", "OrderedDict")):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            shared |= {t.id for t in targets if isinstance(t, ast.Name)}
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        local = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)}
        local |= {n.id for n in ast.walk(func) if isinstance(n, ast.Name)
                  and isinstance(n.ctx, ast.Store)}
        for node in ast.walk(func):
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                target = node.value
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS):
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in shared - local:
                found.append((node.lineno, target.id))
    return sorted(set(found))


@pytest.mark.parametrize("source,flagged", [
    ("_SEEN = {}\ndef f(k):\n    _SEEN[k] = 1", ["_SEEN"]),
    ("_SEEN = dict()\ndef f(k, v):\n    return _SEEN.setdefault(k, v)", ["_SEEN"]),
    ("_SEEN = {}\ndef f(d):\n    _SEEN.update(d)", ["_SEEN"]),
    ("_SEEN = []\ndef f(x):\n    _SEEN.append(x)", ["_SEEN"]),
    ("_SEEN = set()\nclass C:\n    def f(self, x):\n        _SEEN.add(x)", ["_SEEN"]),
    ("_SEEN = {}\nf = lambda k: _SEEN.setdefault(k, 0)", ["_SEEN"]),
    ("_SEEN = {}\ndef f(k):\n    del _SEEN[k]", ["_SEEN"]),
    ("MAPS = {'a': 1}\ndef f():\n    return MAPS['a']", []),
    ("MAPS = {}\ndef f(k):\n    MAPS = {}\n    MAPS[k] = 1\n    return MAPS", []),
    ("def f(k):\n    seen = {}\n    seen[k] = 1", []),
])
def test_module_state_writes_are_found(source, flagged):
    assert [name for _, name in _module_state_writes(source)] == flagged


README = Path(__file__).resolve().parents[1] / "README.md"
# math symbols the README writes as calls
README_MATH = {"d_w", "sqrt"}


def test_readme_calls_resolve():
    # every `name(` the README shows, by the last part of a dotted name, is
    # defined at the top of a goldcut module or in the body of a class
    # defined there, so a deleted or renamed function leaves no stale doc
    defined = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__main__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            body = stmt.body if isinstance(stmt, ast.ClassDef) else []
            for node in [stmt, *body]:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.add(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    called = {m.split(".")[-1]
              for m in re.findall(r"`([A-Za-z_][\w.]*)\(", README.read_text(encoding="utf-8"))}
    assert called and not called - defined - README_MATH, (
        "README calls goldcut does not define: %s" % sorted(called - defined - README_MATH))


def _perfbench_trees():
    paths = sorted(PERFBENCH.glob("*.py"))
    assert paths, "no benchmark sources under %s" % PERFBENCH
    return [(p, ast.parse(p.read_text(encoding="utf-8"), str(p))) for p in paths]


def _resolves(module_name, attr):
    return hasattr(importlib.import_module(module_name), attr)


def test_benchmark_imports_resolve():
    # the benchmark imports goldcut names by module path; a deleted or
    # renamed name would only show up when the benchmark runs
    missing = []
    for path, tree in _perfbench_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "goldcut"):
                missing += ["%s:%d %s.%s" % (path.name, node.lineno, node.module, a.name)
                            for a in node.names if not _resolves(node.module, a.name)]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "goldcut" and not hasattr(goldcut, node.attr)):
                missing.append("%s:%d goldcut.%s" % (path.name, node.lineno, node.attr))
    assert not missing, "benchmark names goldcut lacks: %s" % ", ".join(missing)


def test_tracer_targets_resolve():
    # the tracer skips a target goldcut no longer has and drops its per-layer
    # metrics without failing, so a lost metric must be caught here
    (tree,) = [t for p, t in _perfbench_trees() if p.name == "tracer.py"]
    (targets,) = [node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)]
    missing = []
    for row in targets.elts:
        module_name, attr = (ast.literal_eval(e) for e in row.elts[:2])
        module = importlib.import_module(module_name)
        found = [a for a in vars(module) if fnmatchcase(a, attr)]
        if not any(callable(getattr(module, a)) for a in found):
            missing.append("%s.%s" % (module_name, attr))
    assert targets.elts and not missing, "tracer targets goldcut lacks: %s" % missing


def test_public_names_resolve():
    missing = [name for name in goldcut.__all__ if not hasattr(goldcut, name)]
    assert not missing, "goldcut.__all__ names goldcut lacks: %s" % missing


def test_cli_reaches_no_private_name():
    # the CLI is a client of the library: it imports no underscore-prefixed
    # goldcut name, directly or as an attribute of an imported module
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("goldcut")):
            found += ["%d %s" % (node.lineno, a.name) for a in node.names
                      if a.name.startswith("_")]
            modules |= {a.asname or a.name for a in node.names}
    found += ["%d %s.%s" % (node.lineno, node.value.id, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr.startswith("_")]
    assert modules and not found, "cli.py reaches private goldcut names: %s" % found


def _dotted(node):
    """"a.b.c" for a chain of attributes on a name, else ""."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) else ""


def test_randomness_comes_from_stream():
    # the README promises that all randomness derives from the root seed
    # through seeding.stream's named substreams, so no other module draws
    # or seeds on its own; type references such as np.random.Generator in
    # an isinstance check stay allowed
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "seeding.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call):
                names = [_dotted(node.func)]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["%s.%s" % (node.module, a.name) for a in node.names]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name) for name in names
                      if name.split(".")[0] == "random"
                      or name.split(".")[:2] in (["np", "random"], ["numpy", "random"])]
    assert not found, "randomness outside seeding.stream: %s" % ", ".join(found)


def test_private_names_are_used():
    # a module-level name with one leading underscore serves the package, so
    # it must be read somewhere in it besides its own definition; a helper
    # left without callers by a simplification shows up here
    trees = [ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in sorted(PACKAGE.glob("*.py"))]
    defined = []
    for tree in trees:
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(name, stmt) for name in names
                        if name.startswith("_") and not name.startswith("__")]

    def read_outside(name, definition):
        return any(isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
                   or isinstance(node, ast.Attribute) and node.attr == name
                   for tree in trees for stmt in tree.body if stmt is not definition
                   for node in ast.walk(stmt))

    unused = [name for name, stmt in defined if not read_outside(name, stmt)]
    assert defined and not unused, "private goldcut names nothing reads: %s" % unused


def _unused_imports(source):
    """(line, name) of each name an import binds that the module never reads;
    from __future__ imports set compiler flags and bind nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("source,flagged", [
    ("import json\njson.dumps(1)", []),
    ("import os.path\nos.sep", []),
    ("import numpy as np\nx = 1", ["np"]),
    ("from __future__ import annotations\nfrom .a import b, c\nb()", ["c"]),
    ("from .a import T\ndef f(x: T): pass", []),
])
def test_unused_imports_are_found(source, flagged):
    assert [name for _, name in _unused_imports(source)] == flagged


def test_imports_are_used():
    # a module imports a name to use it, not to pass it on: a client imports
    # a name from the module that defines it, and a name a simplification
    # leaves without uses goes with it (the package __init__ re-exports)
    found = ["%s:%d %s" % (path.name, line, name)
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
             for line, name in _unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "imported names goldcut modules never use: %s" % ", ".join(found)


# numpy names added in 2.x (np.bool and np.long came back in 2.0 after
# 1.24 removed them); pyproject.toml promises numpy>=1.24
NUMPY_2_ONLY = {
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "astype", "bitwise_invert",
    "bitwise_left_shift", "bitwise_right_shift", "bool", "concat", "cumulative_prod",
    "cumulative_sum", "isdtype", "long", "matrix_transpose", "matvec", "permute_dims", "pow",
    "strings", "trapezoid", "ulong", "unique_all", "unique_counts", "unique_inverse",
    "unique_values", "unstack", "vecdot", "vecmat",
    *("linalg." + name for name in ("cross", "diagonal", "matmul", "matrix_norm",
                                    "matrix_transpose", "outer", "svdvals", "tensordot",
                                    "trace", "vecdot", "vector_norm")),
}


def test_no_numpy_2_only_names():
    # the package must run on the declared numpy floor, so it reaches no
    # numpy name that only numpy 2 has, as np.<name>, numpy.<name> or a
    # from-import
    import numpy as np
    if int(np.__version__.split(".")[0]) >= 2:
        # every listed name is real, so a typo cannot hide a use
        assert all(_resolves_dotted(np, name) for name in NUMPY_2_ONLY)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute):
                head, _, name = _dotted(node).partition(".")
                names = [name] if head in ("np", "numpy") else []
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                prefix = node.module[len("numpy."):] + "." if "." in node.module else ""
                names = [prefix + a.name for a in node.names]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, n) for n in names if n in NUMPY_2_ONLY]
    assert not found, "numpy 2-only names in goldcut: %s" % ", ".join(found)


def _resolves_dotted(module, dotted):
    for part in dotted.split("."):
        module = getattr(module, part, None)
    return module is not None
