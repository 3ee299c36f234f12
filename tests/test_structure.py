"""Import structure of the package: every import at module level, and no
import cycle between branchnet modules."""

import ast
from pathlib import Path

import branchnet

PACKAGE = Path(branchnet.__file__).parent
MODULES = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


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
