"""Package-wide source guards: modules use only the public names of their
siblings, leave the recursion limit alone and share one union-find, which
only the MST scan builds."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "powertour"


def private_sibling_imports(source: str) -> list[str]:
    """``module.name`` for every underscore name imported from the package."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "powertour":
            continue
        out += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return out


def test_detector_flags_relative_and_absolute_forms():
    assert private_sibling_imports("from .sekanina import _cube_cycle, tree_cube_cycle\n"
                                   "from powertour.mst import _DSU\n"
                                   "from numpy import _globals\n") == [
        "sekanina._cube_cycle", "powertour.mst._DSU"]


def test_no_module_imports_a_private_sibling_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {p.name: private_sibling_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def recursion_limit_calls(source: str) -> int:
    """Number of calls to ``setrecursionlimit``, as ``sys.setrecursionlimit``
    or a bare imported name."""
    calls = [n.func for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)]
    return sum((isinstance(f, ast.Attribute) and f.attr == "setrecursionlimit")
               or (isinstance(f, ast.Name) and f.id == "setrecursionlimit") for f in calls)


def test_recursion_limit_detector_flags_both_forms():
    assert recursion_limit_calls("import sys\nsys.setrecursionlimit(10 ** 5)\n"
                                 "from sys import setrecursionlimit\nsetrecursionlimit(9)\n"
                                 "sys.getrecursionlimit()\n") == 2


def test_no_module_changes_the_recursion_limit():
    """The limit is process-wide: one module's change reaches every caller."""
    found = {p.name: recursion_limit_calls(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: n for name, n in found.items() if n} == {}


def union_find_classes(source: str) -> list[str]:
    """Every class that defines a ``union`` or ``find`` method.  Functions
    nested in functions (``validate``'s own re-check) are not methods."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            and any(isinstance(f, ast.FunctionDef) and f.name in ("union", "find")
                    for f in node.body)]


def test_union_find_detector_flags_methods_only():
    assert union_find_classes("class A:\n    def find(self, x): pass\n"
                              "class B:\n    def union(self, a, b): pass\n"
                              "class C:\n    def other(self): pass\n"
                              "def find(x): pass\n"
                              "def validate():\n    def find(x): pass\n") == ["A", "B"]


def test_one_union_find_class():
    found = [f"{p.stem}.{name}" for p in sorted(PACKAGE.glob("*.py"))
             for name in union_find_classes(p.read_text())]
    assert found == ["structures.DSU"]


def union_find_constructions(source: str) -> int:
    """Number of ``DSU(...)`` calls, as a bare or a dotted name."""
    calls = [n.func for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)]
    return sum((isinstance(f, ast.Name) and f.id == "DSU")
               or (isinstance(f, ast.Attribute) and f.attr == "DSU") for f in calls)


def test_union_find_construction_detector_flags_both_forms():
    assert union_find_constructions("d = DSU(3)\ne = structures.DSU(n)\n"
                                    "class DSU: pass\nf = DSU\n") == 2


def test_only_the_mst_scan_builds_a_union_find():
    """Path systems track their paths by an endpoint map; Kruskal alone
    needs a union-find."""
    found = {p.stem: n for p in sorted(PACKAGE.glob("*.py"))
             if (n := union_find_constructions(p.read_text()))}
    assert set(found) == {"mst"}


def test_retired_names_stay_gone():
    """The trace JSON pair had no caller outside one round-trip test, the
    parity walk replaced the worklist construction with its rooting and
    cycle-order passes, and with them went the tree adjacency map."""
    import powertour
    import powertour.greedy
    import powertour.sekanina
    import powertour.structures

    for name in ("trace_to_json", "trace_from_json"):
        assert not hasattr(powertour, name) and name not in powertour.__all__
        assert not hasattr(powertour.greedy, name)
    for name in ("_root_tree", "_cube_cycle", "_cycle_order", "_usage_counts"):
        assert not hasattr(powertour.sekanina, name)
    assert not hasattr(powertour.structures.SpanningTree, "adjacency")
