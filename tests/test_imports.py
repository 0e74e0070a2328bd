"""Static checks of the package source: relative imports form no cycle,
certificates do not rest on `assert`, only `problems` touches the
per-problem memo, only `parse_whole` decides what a whole number is,
no integer builder takes or is handed a `gfa` flag, only `problems`
raises `UnsupportedCombinationError`, only its work meter and the grids'
point bound raise `BudgetExceededError`,
kernels do not call the public per-pair views, only the `Fraction`
views build `Fraction` rows, every view field is required by its
constructor, only one helper makes an instance without
`__init__`, the oracle never reads φ and only its backward step names
the vote table (`test_the_oracle_never_reads_phi`), grids draw only
through `grids._draws`, which alone reads the generator's words, and
square no coordinate difference, every exact
family (`ScaledInts`) holds only its `scale` and one 2-D `array` and no
module names a second form of those integers, every experiment option is
read by some suite, every library name the benchmark imports exists
and takes the arguments the benchmark passes, and only `problems` names
`_CHUNK_COMPARISONS` and sorts the setter row, in `_setter_order`, whose
order is the lexsort of (index, minus setter rank)
(`test_only_problems_sizes_blocks_and_sorts_the_setter_row`)."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_whole_numbers_have_one_reader():
    # `rationals.parse_whole` alone decides what a whole number is: no other
    # module names `numbers.Integral`, and none defines a `_rounds` reader
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if (path.name != "rationals.py" and "Integral" in (
                 getattr(node, "id", None), getattr(node, "attr", None),
                 getattr(node, "name", None)))
             or (isinstance(node, ast.FunctionDef) and node.name == "_rounds")
             or (isinstance(node, ast.Name) and node.id == "_rounds"
                 and isinstance(node.ctx, ast.Store))]
    assert found == []


def test_gfa_is_read_from_the_rows_not_passed_on():
    # a problem derives `gfa` in `_compile`: the integer builders take no flag
    # and none is handed to them
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.FunctionDef)
                 and node.name in ("_scaled_problem", "spatial_problem")
                 and "gfa" in [a.arg for a in node.args.args + node.args.kwonlyargs])
             or (isinstance(node, ast.Call)
                 and "_scaled_problem" in (getattr(node.func, "id", None),
                                           getattr(node.func, "attr", None))
                 and any(k.arg == "gfa" for k in node.keywords))]
    assert found == []


def test_only_problems_refuses_a_combination():
    # which readers refuse an override problem, and which rules pair with
    # one, is decided in `problems` (`_require_voter_rows`, `_require_rule`)
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "problems.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Raise) and node.exc is not None
             and "UnsupportedCombinationError" in (
                 getattr(node.exc, "id", None),
                 getattr(getattr(node.exc, "func", None), "id", None),
                 getattr(getattr(node.exc, "func", None), "attr", None))]
    assert found == []


def test_only_the_meter_and_the_point_bound_refuse_a_budget():
    # what a work budget means and how a refusal reads is decided by one
    # meter, `problems._Meter`; `grids._within_budget` is a one-shot bound
    # on a grid's size
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name not in ("problems.py", "grids.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Raise) and node.exc is not None
             and "BudgetExceededError" in (
                 getattr(node.exc, "id", None),
                 getattr(getattr(node.exc, "func", None), "id", None),
                 getattr(getattr(node.exc, "func", None), "attr", None))]
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
    # `_FractionView` fields of a problem, a spatial profile and a witness trace
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


def test_view_fields_have_no_default():
    # a `_FractionView` hides from its class, so the dataclass sees a field
    # without a default: the public constructor still requires it
    import dataclasses
    import importlib
    import inspect

    from agendalab.rationals import _FractionView

    viewed = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"agendalab.{path.stem}")
        for cls in vars(module).values():
            if not (inspect.isclass(cls) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                continue
            for field in dataclasses.fields(cls):
                if isinstance(vars(cls).get(field.name), _FractionView):
                    viewed.append((cls.__name__, field.name, field.default is dataclasses.MISSING
                                   and field.default_factory is dataclasses.MISSING,
                                   inspect.signature(cls).parameters[field.name].default
                                   is inspect.Parameter.empty))
    assert {(cls, name) for cls, name, *_ in viewed} >= {
        ("SolveReport", "value_table"), ("SolveReport", "pivotal_trace"),
        ("MarginReport", "eta_star"),
        *(("ImprovementTrace", name) for name in (
            "plane_normal", "projected_gradients", "direction", "epsilon",
            "epsilon_off_plane", "beta", "midpoint", "witness"))}
    assert [entry for entry in viewed if not all(entry[2:])] == []


def _names(tree: ast.AST) -> set[str]:
    """Every name and attribute name read or written inside `tree`."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_the_oracle_never_reads_phi():
    # backward induction is the route independent of the favorite-improvement
    # iterates: the solver, the verifier and the play-out name none of their
    # readers, and the backward step alone names the rule's vote table
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    phi = {"_orbit", "_phi_table", "_phi_or_table", "_setter_walk", "phi_iterates",
           "favorite_improvement"}
    found = {name: sorted(_names(functions[name]) & phi)
             for name in ("solve_spe", "_extend_rows", "_action_masks", "_value_table",
                          "_pivotal_trace", "verify_profile", "play_out")}
    assert {name: names for name, names in found.items() if names} == {}
    inside = {id(node) for node in ast.walk(functions["_extend_rows"])}
    table = {node.lineno: id(node) in inside for node in ast.walk(tree)
             if "_wins_table" in (getattr(node, "id", None), getattr(node, "attr", None))}
    assert table and all(table.values()), table


def test_grids_draw_only_through_draws_and_score_through_the_profile():
    # the reference tests force ties by folding the library's draws at
    # `grids._draws` (`coarsely`), so every grid draw must go through it:
    # both lattices call it, no other code of `grids` calls a generator
    # method, only `_draws` reads the generator's words (`getrandbits`), and
    # no module uses numpy's own generators.  And `grids` squares no
    # coordinate difference: `SpatialProfile.scaled_utilities` is the one
    # utility formula
    methods = {"randrange", "randint", "random", "choice", "choices", "shuffle", "sample",
               "uniform", "randbytes", "getrandbits", "_randbelow"}
    grids = ast.parse((PACKAGE / "grids.py").read_text())
    functions = {node.name: node for node in ast.walk(grids) if isinstance(node, ast.FunctionDef)}
    for name in ("_box_lattice", "_simplex_lattice"):
        assert any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_draws"
                   for node in ast.walk(functions[name])), name
    read = {getattr(node, "attr", None) for node in ast.walk(functions["_draws"])}
    assert "getrandbits" in read and "randrange" not in read
    in_draws = {id(node) for node in ast.walk(functions["_draws"])}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = grids if path.name == "grids.py" else ast.parse(path.read_text())
        for node in ast.walk(tree):
            if id(node) in in_draws:
                continue
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in ("getrandbits", "_randbelow") or (
                    tree is grids and isinstance(node, ast.Attribute) and node.attr in methods) or (
                    tree is grids and isinstance(node, ast.ImportFrom)
                    and node.module == "random") or (
                    isinstance(node, ast.Attribute) and node.attr == "random"
                    and getattr(node.value, "id", None) in ("np", "numpy")) or (
                    isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                        "numpy.random" in (getattr(node, "module", None) or "", alias.name)
                        for alias in node.names)):
                found.append(f"{path.name}:{node.lineno}")
    for node in ast.walk(grids):
        if isinstance(node, ast.BinOp) and (
                (isinstance(node.op, ast.Pow) and isinstance(node.left, ast.BinOp)
                 and isinstance(node.left.op, ast.Sub))
                or (isinstance(node.op, ast.Mult) and ast.dump(node.left) == ast.dump(node.right))):
            found.append(f"grids.py:{node.lineno}")
    assert found == []


def test_exact_families_keep_one_array():
    # a family is its common denominator and one integer array, however it
    # was built; no module names the tuple rows, the dtype flag or the
    # list builder that once stood beside that array
    from fractions import Fraction

    import numpy as np

    from agendalab.rationals import ScaledInts

    rows = [[2, -4, 2**70], [6, 8, 10]]
    families = [ScaledInts([[Fraction(1, 2), Fraction(3)], [Fraction(2**70), Fraction(0)]]),
                ScaledInts.from_scaled(rows, 6), ScaledInts.from_scaled(rows[1:], 6),
                ScaledInts.from_scaled(np.array(rows[1:]), 6),
                ScaledInts.from_scaled(np.array(rows, dtype=object), 6)]
    assert [sorted(vars(ints)) for ints in families] == [["array", "scale"]] * 5
    assert all(ints.array.ndim == 2 for ints in families)
    gone = {"vectors", "as_numpy", "_fill"}
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Attribute) and node.attr in gone)
             or (isinstance(node, ast.FunctionDef) and node.name in gone)
             or (isinstance(node, ast.Name) and node.id in gone)]
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


def _sorts_ranks(function: ast.AST) -> list[int]:
    """Lines of `function` that sort, or take a keyed min or max of, an
    expression naming `_ranks` or a name assigned from one."""
    aliases = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = ([(target, node.value)] if not isinstance(target, ast.Tuple) else
                         zip(target.elts, node.value.elts) if isinstance(node.value, ast.Tuple)
                         else [])
                aliases |= {name.id for name, value in pairs if isinstance(name, ast.Name)
                            and "_ranks" in _names(value)}
    found = []
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        keyed = name in ("min", "max") and any(k.arg == "key" for k in node.keywords)
        if (name in ("argsort", "lexsort", "sort", "sorted") or keyed) and (
                _names(node) & (aliases | {"_ranks"})):
            found.append(node.lineno)
    return found


def test_only_problems_sizes_blocks_and_sorts_the_setter_row():
    # `problems._block_width` alone turns the comparison budget into a block's
    # columns, and the setter order is sorted once per problem, in
    # `CollectiveChoiceProblem._setter_order`, which every other reader takes
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name != "problems.py":
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if "_CHUNK_COMPARISONS" in (getattr(node, "id", None),
                                                  getattr(node, "attr", None))]
        found += [f"{path.name}:{line}" for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name != "_setter_order"
                  for line in _sorts_ranks(node)]
    assert sorted(set(found)) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=12), st.integers(1, 2**70))
def test_setter_order_is_rank_down_index_up(setter, scale):
    # ties in the setter's row go to the lowest index, at any magnitude
    from agendalab.problems import _scaled_problem

    m = len(setter)
    rows = [[0] * m, [value * scale for value in setter]]
    order = _scaled_problem([f"x{i}" for i in range(m)], rows, 1)._setter_order
    assert order.tolist() == np.lexsort((np.arange(m), -np.array(setter))).tolist()
    assert not order.flags.writeable
