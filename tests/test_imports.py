"""Package-wide source guards: modules use only the public names of their
siblings, leave the recursion limit alone and share one union-find, which
only the MST scan builds; one accessor builds a point set's d^2 matrix;
one function splices the planar legs; only the cube cycle builds and
checks its certificate; one formula measures every edge; every exported
name has a caller outside the tests; no function imports."""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "powertour"


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


def function_local_imports(source: str) -> list[str]:
    """The innermost enclosing function of each ``import`` or ``from ...
    import`` statement that is not at module or class level."""
    out = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if function and isinstance(child, (ast.Import, ast.ImportFrom)):
                out.append(function)
            inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                     else function)
            visit(child, inner)

    visit(ast.parse(source), None)
    return out


def test_function_local_import_detector_flags_every_depth():
    assert function_local_imports("import a\nfrom b import c\n"
                                  "def f():\n    from .mst import build_mst\n"
                                  "def g():\n    if x:\n        import h\n"
                                  "class C:\n    def m(self):\n        def n():\n"
                                  "            import i\n"
                                  "def k():\n    return 1\n") == ["f", "g", "n"]


def test_no_module_imports_inside_a_function():
    """Imports run once, at module level, where a cycle between siblings
    shows at import time rather than on some later call."""
    found = {p.name: function_local_imports(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: fns for name, fns in found.items() if fns} == {}


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
    """Path systems track their paths by an endpoint map; only the MST
    module needs a union-find, for Kruskal and for grouping the forest."""
    found = {p.stem: n for p in sorted(PACKAGE.glob("*.py"))
             if (n := union_find_constructions(p.read_text()))}
    assert set(found) == {"mst"}


def scoped_calls(source: str, module: str, wanted) -> list[str]:
    """The scope of each call for which ``wanted(call)`` holds: ``module``,
    then the top-level function or the class and its method.  A function
    nested in a function counts as its outer one."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if (isinstance(node, (ast.Module, ast.ClassDef))
                    and isinstance(child, (ast.FunctionDef, ast.ClassDef))):
                inner = f"{scope}.{child.name}"
            if isinstance(child, ast.Call) and wanted(child):
                out.append(scope)
            visit(child, inner)

    visit(ast.parse(source), module)
    return out


def call_sites(source: str, name: str, module: str) -> list[str]:
    """The scope of each call to ``name``, as a bare or a dotted name."""
    def named(call):
        f = call.func
        return ((isinstance(f, ast.Name) and f.id == name)
                or (isinstance(f, ast.Attribute) and f.attr == name))

    return scoped_calls(source, module, named)


def test_call_site_detector_names_functions_and_methods():
    assert call_sites("def f():\n    g()\n    m.g()\n    def h():\n        g()\n"
                      "class C:\n    def m(self):\n        return g(1)\n"
                      "g()\nf = g\n", "g", "mod") == [
        "mod.f", "mod.f", "mod.f", "mod.C.m", "mod"]


def package_call_sites(name: str) -> list[str]:
    return [site for p in sorted(PACKAGE.glob("*.py"))
            for site in call_sites(p.read_text(), name, p.stem)]


def test_only_the_point_set_builds_its_matrix():
    """The MST, the forest and the greedy read ``PointSet.sq``, the one
    place that checks the size and builds the d^2 matrix; the other size
    checks refuse a whole grid before its first instance."""
    assert package_call_sites("symmetric_sq") == ["geometry.PointSet.sq"]
    assert package_call_sites("check_dense_size") == [
        "cli.cmd_bench", "geometry.PointSet.sq", "suites.suite_bounds_sweep"]


def test_one_function_splices_the_planar_legs():
    """Every planar construction lists its right-triangle legs for
    ``_splice``, the one place that collapses coincident points and runs
    the engine."""
    assert package_call_sites("_rt_seq") == ["planar._splice"]
    assert package_call_sites("_collapse_duplicates") == ["planar._splice"]


def test_only_the_cube_cycle_builds_and_checks_its_certificate():
    """Two-phase reads the cycle's own edges; the walk and the re-check of
    its certificate run inside ``tree_cube_cycle`` alone."""
    assert package_call_sites("_parity_walk") == ["sekanina.tree_cube_cycle"]
    assert package_call_sites("verify_double_cover") == ["sekanina.tree_cube_cycle"]


def test_every_tour_order_has_one_builder_per_construction():
    """Each construction builds its tour in one place: the cube-cycle walk
    builds every MST and forest-tree cycle, two points included, so no
    uncertified small-n tour sits beside it."""
    assert package_call_sites("tour_from_order") == [
        "oracle.exact_min_tour", "planar.non_obtuse_cycle", "planar.newman_square_tour",
        "sekanina.tree_cube_cycle"]


def test_dense_pair_matrices_have_two_builders():
    """Point sets, the oracles' power matrix included, read ``PointSet.sq``;
    only the midball centers build a d^2 matrix of their own."""
    assert package_call_sites("pairwise_sq") == [
        "geometry.symmetric_sq", "mst.mst_ball_packing_check"]


def dotted_name(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def measures_length(call) -> bool:
    """A call of ``np.linalg.norm``, ``math.dist`` or ``einsum``, or a
    ``math.sqrt`` of anything but constants and the dimension ``k``: the
    square root of an expression in k alone is a bound, not a length."""
    name = dotted_name(call.func)
    if name.rsplit(".", 1)[-1] in ("norm", "dist", "einsum"):
        return True
    if name not in ("math.sqrt", "sqrt"):
        return False
    names = {n.id for arg in call.args for n in ast.walk(arg) if isinstance(n, ast.Name)}
    return not names <= {"k"}


def test_length_detector_flags_norms_dists_einsums_and_square_roots_of_data():
    source = ("import math\nimport numpy as np\n"
              "def f(a, b, dd):\n    np.linalg.norm(a - b)\n    math.dist(a, b)\n"
              "    np.einsum('ij,ij->i', a, a)\n    math.sqrt(dd)\n    np.sqrt(dd)\n"
              "def g(k):\n    return math.sqrt(5.0) * math.sqrt(2.0 * k / 3.0)\n"
              "class C:\n    def m(self):\n        return math.sqrt(self.x[0])\n")
    assert scoped_calls(source, "mod", measures_length) == ["mod.f"] * 4 + ["mod.C.m"]


def test_one_length_formula():
    """Every edge weight is ``geometry.edge_lengths`` of its pair.  Outside
    ``geometry`` only two places measure a length, and neither measures an
    input pair: the midball reach of ``verifiers`` (midpoints and radii of
    sampled half-cube pairs) and the anchor arithmetic of ``planar``
    (chains through virtual triangle corners, distances to a segment)."""
    found = sorted({site for p in sorted(PACKAGE.glob("*.py")) if p.stem != "geometry"
                    for site in scoped_calls(p.read_text(), p.stem, measures_length)})
    assert found == ["planar.ExtendedPath.cost_sq", "planar._dist_to_segment",
                     "verifiers.midball_reach", "verifiers.midball_reach_batch"]


def referenced_names(source: str) -> set[str]:
    """Every name, attribute and imported name the source uses, plus the
    last part of each dotted string such as ``"mst.build_mst"``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"\w+(\.\w+)+", node.value)):
            out.add(node.value.rsplit(".", 1)[1])
    return out


def test_reference_detector_skips_definitions():
    assert referenced_names("def f(x): return g(x)\nclass C: pass\n"
                            "import a.b as c\nfrom d import e\n"
                            "h.attr\nCOUNT = {'mst.build_mst': 1, 'a b.c': 2}\n") == {
        "x", "g", "a.b", "e", "h", "attr", "COUNT", "build_mst"}


def test_every_export_has_a_caller_outside_the_tests():
    """Each name in ``__all__`` is used by the package itself, a demo or the
    benchmark (read only here, never edited for this test)."""
    import powertour

    callers = ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
               + sorted((ROOT / "demos").glob("*.py"))
               + sorted((ROOT / "perfbench").glob("*.py")))
    used = set().union(*(referenced_names(p.read_text()) for p in callers))
    assert [name for name in powertour.__all__ if name not in used] == []


def test_retired_names_stay_gone():
    """The trace JSON pair had no caller outside one round-trip test, the
    parity walk replaced the worklist construction with its rooting and
    cycle-order passes, and with them went the tree adjacency map.  The
    replay oracle, the nearest-neighbor check and the numpy shortcut test
    moved into the tests; the JSON form, the point accessor, the triangle's
    side lengths and labeling, and the matching's vertex set had no caller.
    The forest and the greedy read the point set's own matrix, so two-phase
    calls them and their matrix-taking forms went; the path system's join
    test and the cost's edge count had no caller.  Planar membership is one
    mask over all points, and the named bounds have ``dataclasses.asdict``.
    The cube-cycle certificate carries its order and oriented hops, so the
    checker counts the usage itself and needs no wrapper method.  The cost
    keeps no exponent, term tuple or zero count, which nothing read, and
    adds its terms by ``math.fsum`` with no sort; the filter rounds had
    no floor.  Every edge weight comes from ``edge_lengths``, so the
    vector-pair distance went.  Structures are built from index and weight
    arrays only, so the ``edges=`` constructor form, the trace's sequence
    protocol, ``Edge.key`` and the ``Edge`` export went.  The greedy runs
    the sorted prefix in rounds, so its heap's row scan and the prefix's
    fewest-endpoints cut-off went.  The MST scan is Kruskal over the prefix,
    then Prim, at every n, so Filter-Kruskal, its rounds and its size
    constants went."""
    import powertour
    import powertour.geometry
    import powertour.greedy
    import powertour.mst
    import powertour.pairs
    import powertour.planar
    import powertour.sekanina
    import powertour.structures
    import powertour.verifiers

    for name in ("trace_to_json", "trace_from_json"):
        assert not hasattr(powertour, name) and name not in powertour.__all__
        assert not hasattr(powertour.greedy, name)
    for name in ("_root_tree", "_cube_cycle", "_cycle_order", "_usage_counts"):
        assert not hasattr(powertour.sekanina, name)
    assert not hasattr(powertour.structures.SpanningTree, "adjacency")
    for module, name in ((powertour.greedy, "minimum_join_edge"),
                         (powertour.verifiers, "nearest_neighbor_sum_check"),
                         (powertour.verifiers, "NearestNeighborCheck"),
                         (powertour.planar, "shortcut_ok"),
                         (powertour.structures, "to_json_dict"),
                         (powertour.geometry, "Point"),
                         (powertour.mst, "forest_from_sq"),
                         (powertour.mst, "check_cutoff"),
                         (powertour.greedy, "join_paths"),
                         (powertour.planar, "_point_in_triangle"),
                         (powertour.geometry, "_logsumexp_desc"),
                         (powertour.mst, "_ROUND_FLOOR"),
                         (powertour.geometry, "euclidean_distance"),
                         (powertour.greedy, "_scan_row"),
                         (powertour.pairs, "_MIN_ENDS"),
                         (powertour.mst, "_kruskal"),
                         (powertour.mst, "_filter_rounds"),
                         (powertour.mst, "_PRIM_ABOVE"),
                         (powertour.mst, "_ROUND_PER_POINT")):
        assert not hasattr(module, name) and not hasattr(powertour, name)
        assert name not in powertour.__all__
    for cls, name in ((powertour.planar.RightTriangle, "side_a"),
                      (powertour.planar.RightTriangle, "side_b"),
                      (powertour.planar.RightTriangle, "side_c"),
                      (powertour.planar.RightTriangle, "from_vertices"),
                      (powertour.geometry.PointSet, "point"),
                      (powertour.structures.Matching, "vertices"),
                      (powertour.structures.PathSystem, "endpoint_vertices"),
                      (powertour.structures.PathSystem, "can_join"),
                      (powertour.geometry.PowerCost, "edge_count"),
                      (powertour.geometry.NamedBounds, "as_dict"),
                      (powertour.sekanina.UsageCertificate, "validate"),
                      (powertour.sekanina.UsageCertificate, "usage")):
        assert not hasattr(cls, name)
    # a field without a default is no class attribute: check the fields too
    assert [f.name for f in dataclasses.fields(powertour.sekanina.UsageCertificate)] == [
        "order", "hops", "anchor"]
    # the cost dropped "exponent", "log_terms" and "zero_edges"
    assert [f.name for f in dataclasses.fields(powertour.geometry.PowerCost)] == [
        "log_unscaled", "unscaled", "scaled", "overflow"]
    # structures are built from arrays only: ``Edge`` is the read-only view
    assert not hasattr(powertour.geometry.Edge, "key")
    assert not hasattr(powertour.structures.EdgeList, "__getitem__")
    assert "Edge" not in powertour.__all__ and not hasattr(powertour, "Edge")
    for cls in (powertour.structures.SpanningTree, powertour.structures.Tour,
                powertour.structures.HamPath, powertour.structures.Matching,
                powertour.structures.EdgeList):
        assert "edges" not in inspect.signature(cls).parameters


def test_the_package_builds_no_edge():
    """Every ``Edge`` comes from a structure's lazy ``edges`` view, which
    maps the class over the arrays; no code calls it directly."""
    assert package_call_sites("Edge") == []
