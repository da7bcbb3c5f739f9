"""Source hygiene of src/cartperm, checked with the standard library's ast
(no linter is needed): no module imports a name it never uses, every
module-private top-level function or class is used somewhere in the
package, so a helper left behind by a removed caller shows up here; no
module imports another module's private name; only the scalar callers
(codes, affine, points) import the scalar row reducer; no family calls
another family's members(); one function raises BudgetExceeded; one writer
encodes reports; one reader (codes.exponent_set) reads a monomial set; one
function (oracle._monic) divides the rows of a map array by their first
nonzero entries; one function (oracle._scaling_classes) reduces a map
array to its classes under row scaling, called by the span kernel and
reduced_pullbacks alone; and within oracle.py only the span kernel
(oracle._span_scan) asks whether a monomial set is closed under division,
for its offset lemma; and no module rebinds its state through a global
statement (the oracle's caches are functools caches)."""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cartperm"
MODULES = {path.name: ast.parse(path.read_text(), str(path))
           for path in sorted(SRC.glob("*.py"))}


def used_names(tree):
    """How often a tree reads each name: each Name and the attribute of
    each Attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def imported_names(tree):
    """The names each import statement of a tree binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_unused_imports():
    # __init__.py imports to re-export
    unused = [f"{name}: {imported}" for name, tree in MODULES.items() if name != "__init__.py"
              for imported in imported_names(tree) if imported not in used_names(tree)]
    assert unused == []


def test_every_private_helper_has_a_caller():
    # a use inside the helper's own definition is no caller
    uses = sum((used_names(tree) for tree in MODULES.values()), Counter())
    orphans = [f"{name}: {node.name}" for name, tree in MODULES.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")
               and uses[node.name] == used_names(node)[node.name]]
    assert orphans == []


def test_no_private_names_cross_modules():
    # a private name is private to its module: another module of the package
    # that needs it should use a public entry point instead
    private = [f"{name}: {alias.name}" for name, tree in MODULES.items()
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "cartperm")
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert private == []


def test_only_scalar_callers_import_the_scalar_reducer():
    # codes reduces generator matrices, affine one map, points one subfield
    # basis; map arrays go through the batched elimination of
    # AffineMaps.invertible.  __init__.py re-exports the reducer.
    scalar = {"rank_ix", "rref_ix"}
    allowed = {"codes.py", "affine.py", "points.py", "__init__.py"}
    importers = [f"{name}: {imported}" for name, tree in MODULES.items() if name not in allowed
                 for imported in imported_names(tree) if imported in scalar]
    assert importers == []


def test_imports_are_at_module_top():
    # an import inside a function body hides a dependency of its module and
    # runs again at every call; no module of the package imports another
    # lazily to break a cycle
    nested = [f"{name}:{node.lineno}" for name, tree in MODULES.items()
              for top in tree.body if not isinstance(top, (ast.Import, ast.ImportFrom))
              for node in ast.walk(top) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_no_family_reads_members():
    # a family builds its own array: another family's members() may be
    # wrapped from outside (a tracer turns it into a stream of objects),
    # so families.py never calls an attribute named members
    calls = [f"families.py:{node.lineno}" for node in ast.walk(MODULES["families.py"])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "members"]
    assert calls == []


def enclosing_functions(tree):
    """Each node of a tree with the name of the innermost function around
    it, None at module level."""
    stack = [(tree, None)]
    while stack:
        node, func = stack.pop()
        yield node, func
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        stack.extend((child, func) for child in ast.iter_child_nodes(node))


def test_one_budget_guard():
    # every budget check goes through oracle.check_budget, so that each
    # BudgetExceeded message is built in one place
    sites = {f"{name}: {func}" for name, tree in MODULES.items()
             for node, func in enclosing_functions(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "BudgetExceeded"}
    assert len(sites) == 1, sorted(sites)


def test_reports_have_one_writer():
    # every report goes through cli.json_text: no json.dump, json.dumps or
    # JSONEncoder call with indent, whose pure-Python encoder json_text
    # replaces, is left beside it
    calls = [f"{name}:{node.lineno}" for name, tree in MODULES.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             in ("dump", "dumps", "JSONEncoder")
             and any(k.arg == "indent" for k in node.keywords)]
    assert calls == []


def test_monomial_sets_have_one_reader():
    # every route reads L through codes.exponent_set, which unwraps a
    # MonomialSet and checks the exponent box once: no other module reads
    # getattr(L, "monomials", ...) beside it
    calls = [f"{name}:{node.lineno}" for name, tree in MODULES.items() if name != "codes.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
             and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
             and node.args[1].value == "monomials"]
    assert calls == []


def row_lead_sites(tree):
    """The calls of a tree that find the first nonzero entry of each row of
    an (N, m, c) array: (x != 0).argmax over the last axis (axis=2 or -1),
    and take_along_axis, which reads one entry per row."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name == "take_along_axis":
            yield node
        elif name == "argmax" and isinstance(node.func, ast.Attribute):
            seen = node.func.value
            axis = [k.value for k in node.keywords if k.arg == "axis"]
            if (isinstance(seen, ast.Compare) and isinstance(seen.ops[0], ast.NotEq)
                    and axis and isinstance(axis[0], (ast.Constant, ast.UnaryOp))
                    and ast.literal_eval(axis[0]) in (2, -1)):
                yield node


def call_sites(name):
    """The functions of the package that call the function name, each as
    "module: function"."""
    return {f"{module}: {func}" for module, tree in MODULES.items()
            for node, func in enclosing_functions(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name}


def test_one_diagonal_normalization():
    # the span route and reduced_pullbacks take one map per class under row
    # scaling through oracle._monic: no other function divides the rows of
    # a map array by their leads, so the classes have one definition
    leads = {id(node) for tree in MODULES.values() for node in row_lead_sites(tree)}
    sites = {f"{name}: {func}" for name, tree in MODULES.items()
             for node, func in enclosing_functions(tree) if id(node) in leads}
    assert sites == {"oracle.py: _monic"}, sorted(sites)
    # and the classes (_monic, then _distinct of the monic maps) are taken
    # in one function, at the span kernel's entry and in reduced_pullbacks:
    # a second layer that dedups the kernel's maps by class, as a memo of
    # the classes would, calls _monic or the reduction from elsewhere
    defined = [f"{name}: {node.name}" for name, tree in MODULES.items()
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name == "_scaling_classes"]
    assert defined == ["oracle.py: _scaling_classes"]
    assert call_sites("_monic") == {"oracle.py: _scaling_classes"}
    assert call_sites("_scaling_classes") == {"oracle.py: _span_scan",
                                              "oracle.py: reduced_pullbacks"}


def test_one_offset_reduction():
    # the span kernel drops the offsets at its entry when its checked
    # members with 1 are closed under division: no other function of the
    # oracle, such as the cache layer (_span_ok), asks for divisor_closed to
    # hand the kernel the linear parts itself
    sites = {site for site in call_sites("divisor_closed") if site.startswith("oracle.py: ")}
    assert sites == {"oracle.py: _span_scan"}, sorted(sites)


def test_no_module_state_is_rebound():
    # module state is built once (constants, functools caches), never
    # replaced from inside a function
    rebinds = [f"{name}: {', '.join(node.names)}" for name, tree in MODULES.items()
               for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert rebinds == []
