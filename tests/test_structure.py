"""Structure of the package: every import at module level, no import cycle
between branchnet modules, importing the package or running a command
without a flat LP loads neither ``scipy.optimize`` nor ``scipy.sparse``,
only ``chains`` touches the Edge/Atom views, graphs are read from vertex
ids, canonicalization merges rows through one array helper, rows are summed
by one group sum, no module enumerates all pairs, canonical form's snap
radius, parallel test and near-pair query are defined only in ``chains``,
points are snapped in batches, the search's hot path calls no numpy wrapper
and no module calls ``np.linalg.norm``, a weight row's norm goes through one
helper, the search's moves hold no Python incidence, only
``costs.evaluate_rows`` branches on the cost family, and every parameter
default is set by some call."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import branchnet
from branchnet.cli import main

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


COLD_START = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import branchnet, branchnet.io, branchnet.cli
mm, mp, two_sided = sys.argv[2:]
lp_modules = ("scipy.optimize", "scipy.sparse")
loaded = {"import": [m for m in lp_modules if m in sys.modules]}
for command in (["cascade", mm, mp, "--depth", "2"], ["optimize", mm, mp, "--cost", "sum_alpha:alpha=0.5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert branchnet.cli.main(command) == 0, command
    loaded[command[0]] = [m for m in lp_modules if m in sys.modules]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert branchnet.cli.main(["flat-bound", two_sided]) == 0
loaded["flat-bound"] = [m for m in lp_modules if m in sys.modules]
print(json.dumps({"loaded": loaded, "flat_bound_stdout": out.getvalue()}))
"""


def test_only_the_flat_lp_loads_scipy_optimize(tmp_path, capsys):
    """A fresh interpreter that imports the package and runs ``cascade`` and
    ``optimize`` loads neither ``scipy.optimize`` nor ``scipy.sparse``; a
    ``flat-bound`` that solves an LP loads ``scipy.optimize`` and prints what
    it prints in process."""
    def write(name, atoms):
        path = tmp_path / name
        path.write_text(json.dumps({"version": 1, "n": 2, "m": 1,
                                    "atoms": [{"p": p, "w": [w]} for p, w in atoms]}))
        return str(path)

    mm = write("mm.json", [([-1.0, 0.0], 1.0), ([1.0, 0.0], 1.0)])
    mp = write("mp.json", [([0.0, 2.0], 2.0)])
    two_sided = write("nu.json", [([0.0, 0.0], 1.0), ([1.0, 0.0], -1.0)])  # one pair at d = 1 < 2
    proc = subprocess.run([sys.executable, "-I", "-c", COLD_START, str(PACKAGE.parent), mm, mp, two_sided],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    loaded = got["loaded"]
    assert loaded["import"] == loaded["cascade"] == loaded["optimize"] == [], loaded
    assert "scipy.optimize" in loaded["flat-bound"], loaded
    assert main(["flat-bound", two_sided]) == 0
    assert got["flat_bound_stdout"] == capsys.readouterr().out


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


def test_rows_are_summed_by_one_group_sum():
    """Rows are grouped by ``chains._unique_rows`` and summed by
    ``chains._sum_rows``: no module calls ``np.unique`` on rows (with an
    ``axis``), and ``np.add.at`` is written once, in ``_sum_rows``."""
    unique, sums = [], []
    for stem, tree in MODULES.items():
        for scope, node in _scoped(tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr == "unique" and any(k.arg == "axis" for k in node.keywords):
                unique.append(f"{stem}.{scope}:{node.lineno}")
            if node.func.attr == "at" and getattr(node.func.value, "attr", None) == "add":
                sums.append(f"{stem}.{scope}")
    assert not unique, f"np.unique on rows in {unique}"
    assert sums == ["chains._sum_rows"], f"np.add.at in {sums}"


def test_no_all_pairs_enumeration():
    """Edge pairs come from the sort-and-sweep broad phase
    (``chains._box_pairs``): no module enumerates every pair."""
    found = [f"{stem}.py:{node.lineno}" for stem, tree in MODULES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "triu_indices"]
    assert not found, found


def test_canonical_form_rules_live_in_chains():
    """Canonical form's geometric rules are each written once, in ``chains``,
    and the other modules call them: only ``chains._near_pairs`` and the
    narrow phase call the broad phase ``_box_pairs``; only
    ``chains._snap_radius`` multiplies ``EPS_REL`` by a
    ``pow2_scale(..., extent=True)``; and no module but ``chains`` defines a
    parallel threshold, which ``_segment_interactions`` reads."""
    box, radius, parallel = set(), {}, []
    for stem, tree in MODULES.items():
        for scope, node in _scoped(tree):
            site = f"{stem}.{scope}"
            if getattr(node, "id", None) == "_box_pairs" or isinstance(node, ast.alias) and node.name == "_box_pairs":
                box.add(site)  # a call, or an import from chains
            if isinstance(node, ast.Name) and node.id == "EPS_REL":
                radius.setdefault(site, set()).add("EPS_REL")
            if (isinstance(node, ast.Call) and _dotted(node.func) == "pow2_scale"
                    and any(k.arg == "extent" for k in node.keywords)):
                radius.setdefault(site, set()).add("L")
        parallel += [f"{stem}.{target.id}" for node in tree.body if isinstance(node, ast.Assign)
                     for target in node.targets if isinstance(target, ast.Name) and "PARALLEL" in target.id.upper()]
    assert box == {"chains._near_pairs", "chains._segment_interactions"}, sorted(box)
    assert {site for site, read in radius.items() if read == {"EPS_REL", "L"}} == {"chains._snap_radius"}, radius
    assert parallel == ["chains._PARALLEL"], parallel
    assert any(isinstance(node, ast.Name) and node.id == "_PARALLEL" and scope == "_segment_interactions"
               for scope, node in _scoped(MODULES["chains"]))


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _snap_calls(node, in_loop=False, scope=""):
    """(scope, line, whether inside a loop or comprehension, argument) of
    every ``.snap(...)`` call under node."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (*FUNCTIONS, ast.ClassDef)) else scope
        if isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "snap":
            yield inner, child.lineno, in_loop, child.args
        yield from _snap_calls(child, in_loop or isinstance(child, LOOPS), inner)


def test_points_are_snapped_in_batches():
    """``chains`` snaps whole arrays: ``canonicalize`` makes two ``snap``
    calls (endpoints, then cut points) and ``canonicalize0`` one, none of
    them in a loop or comprehension or on a literal point, and no grid
    probe (``itertools.product``) is left."""
    calls = list(_snap_calls(MODULES["chains"]))
    assert sorted(scope for scope, *_ in calls) == ["canonicalize", "canonicalize", "canonicalize0"], calls
    found = [f"chains.py:{line} snaps in a loop" for _, line, in_loop, _ in calls if in_loop]
    found += [f"chains.py:{line} snaps a literal point" for _, line, _, args in calls
              if len(args) != 1 or isinstance(args[0], (ast.Tuple, ast.List, *LOOPS))]
    found += [f"chains.py:{node.lineno} uses {node.attr}" for node in ast.walk(MODULES["chains"])
              if isinstance(node, ast.Attribute) and node.attr == "product"]
    found += [f"chains.py:{node.lineno} imports product" for node in ast.walk(MODULES["chains"])
              if isinstance(node, ast.ImportFrom) and any(a.name == "product" for a in node.names)]
    assert not found, found


HOT_PATH = {"chains": {"_unique_rows", "_box_pairs", "_near_pairs", "snap", "_segment_interactions", "canonicalize",
                       "_split_merge", "_merge_rows", "_significant"},
            "optimize": {"relocate_branch_points", "_relocate", "_fermat_point"}}
WRAPPERS = {"np.linalg.norm", "np.sum", "np.any", "np.all", "np.flatnonzero", "np.hstack", "np.column_stack",
            "np.unique"}


def _dotted(node) -> str:
    """``np.linalg.norm`` for the expression np.linalg.norm, "" for anything
    but a chain of names."""
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def test_hot_path_calls_no_numpy_wrappers():
    """The search's small-chain hot path calls ufuncs and array methods:
    ``np.add.reduce`` or ``chains._norms`` for sums and norms, ``.any()``,
    ``.all()`` and ``.nonzero()[0]``, ``np.concatenate`` and ``np.stack``.
    The Python wrappers named in ``WRAPPERS`` compute the same bits at a
    fixed cost of microseconds per call, which is most of the cost of a
    small ``canonicalize``."""
    found = [f"{stem}.{scope}:{node.lineno} calls {_dotted(node.func)}"
             for stem, names in HOT_PATH.items() for scope, node in _scoped(MODULES[stem])
             if scope in names and isinstance(node, ast.Call) and _dotted(node.func) in WRAPPERS]
    assert not found, found
    for stem, names in HOT_PATH.items():  # a renamed function would escape the rule
        assert names <= {node.name for node in ast.walk(MODULES[stem]) if isinstance(node, FUNCTIONS)}, stem


def test_no_module_calls_np_linalg_norm():
    """Norms go through ``chains._norms`` (rows), ``chains.row_dots`` (one
    vector) or ``chains.weight_norms`` (weight rows), which give
    ``np.linalg.norm``'s bits without its wrapper."""
    found = [f"{stem}.{scope}:{node.lineno}" for stem, tree in MODULES.items() for scope, node in _scoped(tree)
             if isinstance(node, ast.Call) and _dotted(node.func) == "np.linalg.norm"]
    assert not found, found


# every function that takes sqrt(row_dots(X, X)), with its X: the helper itself, ``_significant``'s verdict relative
# to its largest row, and geometric norms, whose scale is L or which are of unit vectors
SELF_DOTS = {("chains.weight_norms", "Y"), ("chains._significant", "inputs"), ("chains._significant", "W"),
             ("construct._lattice_chain", "D"), ("costs.derivative_profile", "V"), ("costs.norm_cost_ratio", "U"),
             ("metrics.flat_norm_0chain_component", "diff"), ("metrics.coarea_check", "gv[None]")}


def _self_dots(node) -> list:
    """The X of every ``row_dots(X, X)`` call under node."""
    return [ast.unparse(call.args[0]) for call in ast.walk(node)
            if isinstance(call, ast.Call) and _dotted(call.func) == "row_dots" and len(call.args) == 2
            and ast.dump(call.args[0]) == ast.dump(call.args[1])]


def test_weight_rows_are_normed_by_one_helper():
    """A row of weights is normed by ``chains.weight_norms``, which scales
    each row by a power of two before it squares, so no square leaves the
    floating-point range.  Only the sites in ``SELF_DOTS`` take
    ``sqrt(row_dots(X, X))``: a new weight norm uses the helper, or is added
    there on purpose, and a renamed site fails too."""
    found = {(f"{stem}.{scope}", x) for stem, tree in MODULES.items() for scope, node in _scoped(tree)
             if isinstance(node, ast.Call) and _dotted(node.func) in ("np.sqrt", "math.sqrt") for x in _self_dots(node)}
    assert found == SELF_DOTS, (sorted(found - SELF_DOTS), sorted(SELF_DOTS - found))


MOVES = {"remove_cycles", "straighten", "relocate_branch_points", "_relocate", "_apply_merge",
         "check_multiplicity_bound"}


def _list_of_lists(node) -> bool:
    """A list display or comprehension whose items are lists, or tuples of lists."""
    items = [*node.elts] if isinstance(node, ast.List) else [node.elt] if isinstance(node, ast.ListComp) else []
    items += [x for item in items if isinstance(item, ast.Tuple) for x in item.elts]
    return any(isinstance(item, (ast.List, ast.ListComp)) for item in items)


def test_moves_read_their_graph_from_arrays():
    """The search's moves and the multiplicity check keep their graph in
    the (E, 2) vertex-id array and NumPy masks: they build no set or dict,
    no list of lists, and no list from ``ij`` or ``V``."""
    found = []
    for scope, node in _scoped(MODULES["optimize"]):
        if scope not in MOVES:
            continue
        name = _dotted(node.func) if isinstance(node, ast.Call) else ""
        if (isinstance(node, (ast.Set, ast.SetComp, ast.Dict, ast.DictComp))
                or name in ("set", "frozenset", "dict") or name.endswith(".fromkeys")
                or _list_of_lists(node)
                or name.endswith((".ij.tolist", ".V.tolist"))):
            found.append(f"{scope}:{node.lineno}")
    assert not found, found
    assert MOVES <= {node.name for node in ast.walk(MODULES["optimize"]) if isinstance(node, FUNCTIONS)}


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
