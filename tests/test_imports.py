"""Static checks of the package source: relative imports form no cycle,
certificates do not rest on `assert`, only `problems` touches the
per-problem memo, kernels do not call the public per-pair views, only
the `Fraction` views build `Fraction` rows, only one helper makes
an instance without `__init__`, every experiment option is read by
some suite, and every library name the benchmark imports exists and
takes the arguments the benchmark passes."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "agendalab"
PERFBENCH = PACKAGE.parents[1] / "perfbench"


def _relative_imports(path: Path) -> set[str]:
    """Modules of the package that `path` imports relatively, at any nesting
    level (function-level imports included)."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_package_import_graph_is_acyclic():
    graph = {path.stem: _relative_imports(path) for path in PACKAGE.glob("*.py")}
    assert set().union(*graph.values()) <= set(graph)
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]):
        assert module not in path, "import cycle: " + " -> ".join(path + (module,))
        if module not in done:
            for target in sorted(graph[module]):
                visit(target, path + (module,))
            done.add(module)

    for module in sorted(graph):
        visit(module, ())


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, and with them any check they make
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_memo_is_read_only_through_memoized():
    # a problem's memo, and its compiled forms seeded through `__dict__`,
    # are written only by `problems`' own constructor and `_memoized`
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "problems.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Attribute) and node.attr in ("_memo", "__dict__"))
             or (isinstance(node, ast.Name) and node.id == "__dict__")]
    assert found == []


def test_package_does_not_call_the_public_views():
    # `utility` answers callers; kernels read the ranks and scaled
    # integers that view is built from
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "utility"]
    assert found == []


def _calls_to(tree: ast.AST, name: str) -> list[ast.Call]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def _view_arguments(tree: ast.AST) -> set[int]:
    """The ids of every node inside the arguments of a `_FractionView(...)` call."""
    return {id(inner) for call in _calls_to(tree, "_FractionView")
            for arg in call.args for inner in ast.walk(arg)}


def test_fraction_rows_are_built_only_by_the_views():
    # kernels read scaled integers; `Fraction` rows are made only by the
    # `_FractionView` fields of a problem and of a spatial profile
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = _view_arguments(tree) if path.name in ("problems.py", "spatial.py") else set()
        found += [f"{path.name}:{node.lineno}" for node in _calls_to(tree, "fraction_rows")
                  if id(node) not in allowed]
    assert found == []


def test_instances_skip_init_only_through_assemble():
    # an instance made without `__init__` comes from `rationals._assemble`,
    # whose callers run the class's checks; every `GridBuildResult` the
    # package returns holds integer nodes, so none comes from its constructor
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "rationals.py":
            helper = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == "_assemble")
            allowed = {id(node) for node in ast.walk(helper)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "__new__"
                  and getattr(node.value, "id", None) == "object" and id(node) not in allowed]
        found += [f"{path.name}:{node.lineno}"
                  for node in _calls_to(tree, "GridBuildResult")]
    assert found == []


def test_every_experiment_option_is_read_by_a_suite():
    # the CLI offers each suite only the flags of its own parameters, so a
    # flag no suite reads could never be given
    import inspect

    from agendalab.cli import EXPERIMENT_FLAGS
    from agendalab.suites import SUITES
    read = {name for fn in SUITES.values() for name in inspect.signature(fn).parameters}
    assert sorted(EXPERIMENT_FLAGS) == sorted(read)


def _package_callable(node: ast.expr, names: dict):
    """The package object that a name, or an attribute chain on one, denotes."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _package_callable(node.value, names)
        return None if owner is None else getattr(owner, node.attr, None)
    return None


def test_benchmark_imports_only_names_the_package_has():
    # the benchmark's own tests run outside the tier-1 suite, so a deleted
    # public name or keyword parameter would otherwise first surface
    # there; its files are only read
    import importlib
    import inspect

    import agendalab

    missing = []
    for name in ("workloads.py", "harness.py"):
        tree = ast.parse((PERFBENCH / name).read_text())
        names = {"agendalab": agendalab}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "agendalab"):
                module, attrs = node.module, [alias.name for alias in node.names]
                names.update((alias.asname or alias.name,
                              getattr(importlib.import_module(module), alias.name, None))
                             for alias in node.names)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "agendalab":
                module, attrs = "agendalab", [node.attr]
            else:
                continue
            missing += [f"{name}:{node.lineno} {module}.{attr}" for attr in attrs
                        if not hasattr(importlib.import_module(module), attr)]
        # a direct call, or `tr.call(label, fn, ...)`, which calls fn with the
        # rest, binds to fn's signature: its positional count and its keywords
        # (a call that unpacks `*` or `**` has no count to check)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            fn, args = _package_callable(node.func, names), node.args
            if fn is None and getattr(node.func, "attr", None) == "call" and len(args) > 1:
                fn, args = _package_callable(args[1], names), args[2:]
            if (fn is None or not callable(fn) or any(isinstance(a, ast.Starred) for a in args)
                    or any(kw.arg is None for kw in node.keywords)):
                continue
            try:
                inspect.signature(fn).bind(*args, **{kw.arg: kw for kw in node.keywords})
            except TypeError as exc:
                missing.append(f"{name}:{node.lineno} {fn.__name__}: {exc}")
    assert missing == []
