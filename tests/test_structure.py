"""Structure of the package: every import at module level, no import cycle
between branchnet modules, only ``chains`` touches the Edge/Atom views,
graphs are read from vertex ids, canonicalization merges rows through one
array helper, only ``costs.evaluate_rows`` branches on the cost family, and
every parameter default is set by some call."""

import ast
from pathlib import Path

import branchnet

PACKAGE = Path(branchnet.__file__).parent
MODULES = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
ROOT = Path(__file__).resolve().parents[1]
CALLER_TREES = [ast.parse(p.read_text(), str(p))
                for d in ("src", "tests", "bnbench") for p in sorted((ROOT / d).rglob("*.py"))]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _branchnet_targets(node) -> set:
    """Package modules a module-level import statement loads."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        if node.module == "branchnet":
            return {a.name if a.name in MODULES else "__init__" for a in node.names}
        names = [node.module]
    else:
        return set()
    return {name.split(".")[1] for name in names if name.startswith("branchnet.")}


def test_no_import_inside_functions_or_classes():
    nested = []
    for stem, tree in MODULES.items():
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested += [f"{stem}.py:{node.lineno} in {scope.name}" for node in ast.walk(scope)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested, nested


def test_module_import_graph_is_acyclic():
    graph = {stem: set().union(*map(_branchnet_targets, tree.body)) - {stem}
             for stem, tree in MODULES.items()}
    assert graph["metrics"].isdisjoint({"optimize", "construct"})
    done, on_path = set(), []

    def visit(stem):
        assert stem not in on_path, " -> ".join(on_path[on_path.index(stem):] + [stem])
        if stem in done:
            return
        on_path.append(stem)
        for dep in sorted(graph[stem]):
            visit(dep)
        on_path.pop()
        done.add(stem)

    for stem in sorted(graph):
        visit(stem)


def test_only_chains_builds_or_reads_edge_and_atom_views():
    """Chains are stored as arrays; the Edge/Atom tuples are views for
    callers outside the package, so no other module builds or reads them."""
    found = []
    for stem, tree in MODULES.items():
        if stem == "chains":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("Edge", "Atom"):
                    found.append(f"{stem}.py:{node.lineno} calls {name}")
            elif isinstance(node, ast.Attribute) and node.attr in ("edges", "atoms"):
                found.append(f"{stem}.py:{node.lineno} reads .{node.attr}")
    assert not found, found


def test_graphs_are_vertex_indexed():
    """Incidence comes from ``Chain1.V``/``ij``: no module asks for endpoint
    tuples through ``.ends()`` or ``.vertices()``, and ``optimize`` builds
    no dict keyed by them."""
    found = []
    for stem, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                name = node.func.attr
                if name in ("ends", "vertices") or (stem == "optimize" and name == "setdefault"):
                    found.append(f"{stem}.py:{node.lineno} calls .{name}()")
    assert not found, found


def _scoped(tree, scope=""):
    """(innermost enclosing function or class, node) for every node of tree."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, (*FUNCTIONS, ast.ClassDef)) else scope
        yield inner, node
        yield from _scoped(node, inner)


def test_canonicalization_merges_rows_through_one_helper():
    """``canonicalize`` and ``canonicalize0`` build no dict and sort no
    tuples: coincident rows are grouped by ``_unique_rows``, the only
    place in ``chains`` that calls ``np.lexsort``."""
    found = []
    for scope, node in _scoped(MODULES["chains"]):
        if isinstance(node, ast.Attribute) and node.attr == "lexsort" and scope != "_unique_rows":
            found.append(f"{scope}:{node.lineno} calls lexsort")
        if scope in ("canonicalize", "canonicalize0"):
            name = getattr(node.func, "id", None) if isinstance(node, ast.Call) else None
            if isinstance(node, (ast.Dict, ast.DictComp)) or name in ("dict", "sorted"):
                found.append(f"{scope}:{node.lineno} builds a dict or sorts")
    assert not found, found
    assert any(isinstance(node, ast.Attribute) and node.attr == "lexsort" and scope == "_unique_rows"
               for scope, node in _scoped(MODULES["chains"]))


def _reads_family(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "family"


def test_only_evaluate_rows_branches_on_the_cost_family():
    """Each cost family's formula is written once: no other function
    compares, matches or indexes by a ``.family`` attribute."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if ((isinstance(node, ast.Compare) and any(map(_reads_family, [node.left, *node.comparators])))
                or (isinstance(node, ast.Match) and _reads_family(node.subject))
                or (isinstance(node, ast.Subscript) and _reads_family(node.slice))):
            found.add(f"{scope}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for stem, tree in MODULES.items():
        visit(tree, stem)
    assert {site.split(":")[0] for site in found} == {"costs.evaluate_rows"}, sorted(found)


def _callee(owner, fn) -> str:
    """The name a call uses: the class name for ``__new__``."""
    return owner.name if owner is not None and fn.name == "__new__" else fn.name


def _parameters() -> dict:
    """(callee, parameter) -> (module, position in a call or None for
    keyword-only, whether it has a default) for every function parameter in
    the package but ``self`` and ``cls``."""
    found = {}
    for stem, tree in MODULES.items():
        scopes = [(None, node) for node in tree.body]
        while scopes:
            owner, fn = scopes.pop()
            if isinstance(fn, ast.ClassDef):
                scopes += [(fn, child) for child in fn.body]
            if not isinstance(fn, FUNCTIONS):
                continue
            scopes += [(None, child) for child in fn.body]
            args = fn.args
            params = args.posonlyargs + args.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            skip = 1 if owner is not None and not static else 0  # self or cls
            first_default = len(params) - len(args.defaults)
            for i in range(skip, len(params)):
                found[_callee(owner, fn), params[i].arg] = (stem, i - skip, i >= first_default)
            for p, d in zip(args.kwonlyargs, args.kw_defaults):
                found[_callee(owner, fn), p.arg] = (stem, None, d is not None)
    return found


def _set_parameters(params: dict) -> set:
    """The parameters some call in the package, its tests or its benchmark
    sets.  An argument that only forwards a parameter of the calling
    function sets the callee's parameter only if the caller's own parameter
    is set; a parameter without a default that no call passes is set by the
    library's users."""
    positions: dict = {}
    for (callee, name), (_, pos, _) in params.items():
        if pos is not None:
            positions[callee, pos] = name
    is_set, forwards, passed = set(), [], set()

    def visit(node, owner, fn):
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            given = [(positions.get((callee, i)), a) for i, a in enumerate(node.args)]
            given += [(k.arg, k.value) for k in node.keywords]
            for name, value in given:
                if (callee, name) not in params:
                    continue
                passed.add((callee, name))
                source = (_callee(owner, fn), value.id) if fn is not None and isinstance(value, ast.Name) else None
                if source in params:
                    forwards.append((source, (callee, name)))
                else:
                    is_set.add((callee, name))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child, None)
            elif isinstance(child, FUNCTIONS):
                visit(child, owner if fn is None else None, child)
            else:
                visit(child, owner, fn)

    for tree in CALLER_TREES:
        visit(tree, None, None)
    is_set |= {key for key, (_, _, default) in params.items() if not default} - passed
    while True:
        more = {target for source, target in forwards if source in is_set} - is_set
        if not more:
            return is_set
        is_set |= more


def test_every_parameter_default_has_a_caller():
    """A parameter with a default that no call ever sets is an option nobody
    uses: its default belongs in the body as a constant."""
    params = _parameters()
    unset = {key for key, (_, _, default) in params.items() if default} - _set_parameters(params)
    assert not unset, sorted(f"{params[key][0]}.{key[0]}({key[1]})" for key in unset)
