import ast
import gc
import importlib
import importlib.util
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from opres import cli, perms
from opres.bar_cobar import CooperadComplex, bar, cobar
from opres.chain_core import homology
from opres.chain_operads import (
    builtin_chain_operad,
    check_composition_maps,
    enumerate_w_basis,
    signed_canon,
    w_act_basis,
    w_boundary,
    w_reduced,
)
from opres.set_operads import build_node, node_leaves, node_lengths, node_tree
from opres.tagged import (
    TreeElement,
    cut,
    edges,
    koszul,
    least_routings,
    replace_item,
    shapes,
    tag,
    untag,
    vertices,
)
from opres.trees import aut_leaf_perms, enumerate_planar, iso_classes

SRC = Path(__file__).resolve().parent.parent / "src" / "opres"
OPERADS = {name: builtin_chain_operad(name) for name in ("ass_sym", "com")}
BARS = {name: CooperadComplex(P, 5) for name, P in OPERADS.items()}


def orbit_least(tree, lam) -> bool:
    """Brute force: lam is no larger than any automorphism image."""
    return all(lam <= tuple(lam[g[p]] for p in range(len(lam))) for g in aut_leaf_perms(tree))


# -- least routings ----------------------------------------------------------


@pytest.mark.parametrize("min_valence,cap", [(1, 3), (2, None)])
def test_least_routings_one_per_orbit(min_valence, cap):
    for n in range(1, 7):
        for cls in iso_classes(n, cap, min_valence):
            lams = least_routings(cls.tree)
            assert len(lams) * cls.aut_order == math.factorial(n), cls.tree.notation()
            assert lams == sorted(set(lams))
            for lam in lams:
                assert orbit_least(cls.tree, lam), (cls.tree.notation(), lam)


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_least_routings_with_stumps(cap):
    """Swaps of leafless siblings move no leaf, so the routings count the
    cosets of the automorphisms' leaf action, not of the whole group."""
    for n in range(5):
        for cls in iso_classes(n, cap, 0):
            lams = least_routings(cls.tree)
            assert len(lams) * len(aut_leaf_perms(cls.tree)) == math.factorial(n)
            for lam in lams:
                assert orbit_least(cls.tree, lam), (cls.tree.notation(), lam)


@pytest.mark.parametrize("min_valence,cap", [(1, 2), (2, None)])
def test_shapes_symmetric_and_planar_agree(min_valence, cap):
    """Each leaf-labeled tree has one planar embedding per ordering of
    the children at each vertex, so the routed classes, weighted by the
    product of valence factorials, count the routed planar trees."""
    for n in range(1, 6):
        sym = shapes(n, cap, min_valence, True)
        planar = shapes(n, cap, min_valence, False)
        assert all(t.children is not None for t, _ in sym + planar)
        assert all(lams == [tuple(range(n))] for _, lams in planar)
        weighted = sum(
            len(lams) * math.prod(math.factorial(v) for v in t.valences()) for t, lams in sym
        )
        assert weighted == len(planar) * math.factorial(n), n


# -- canonical presentations -------------------------------------------------


@st.composite
def marked_trees(draw):
    """A labeled, marked tree in an arbitrary planar presentation."""
    name = draw(st.sampled_from(sorted(OPERADS)))
    P = OPERADS[name]
    n = draw(st.integers(2, 5))
    tree = draw(st.sampled_from(enumerate_planar(n, None, 2)))
    labels = [draw(st.sampled_from(P.names(v))) for v in tree.valences()]
    mask = [draw(st.integers(0, 1)) for _ in range(tree.edge_count)]
    lam = draw(st.permutations(range(n)))
    sigma = tuple(draw(st.permutations(range(n))))
    return name, build_node(tree, labels, mask, lam), sigma


@settings(max_examples=150, deadline=None)
@given(marked_trees())
def test_signed_canon_least_routing_and_round_trip(case):
    name, node, sigma = case
    P = OPERADS[name]
    n = len(sigma)
    sign, canon = signed_canon(P, node)
    assert sign in (1, -1)
    tree = node_tree(canon)
    assert tree == node_tree(node).canonical()
    assert orbit_least(tree, node_leaves(canon))
    assert signed_canon(P, canon) == (1, canon)
    x = TreeElement(n, canon, sum(node_lengths(canon)))
    c1, y = w_act_basis(P, x, sigma)
    c2, z = w_act_basis(P, y, perms.invert(sigma))
    assert orbit_least(node_tree(y.node), node_leaves(y.node))
    assert (z, c1 * c2) == (x, 1)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(BARS)), st.integers(2, 5), st.data())
def test_bar_act_least_routing_and_round_trip(name, n, data):
    C = BARS[name]
    b = data.draw(st.sampled_from(C.elements(n)))
    sigma = tuple(data.draw(st.permutations(range(n))))
    y, c1 = C.signed_act(n, b, sigma)
    z, c2 = C.signed_act(n, y, perms.invert(sigma))
    assert orbit_least(y.tree(), node_leaves(y.node))
    assert (z, c1 * c2) == (b, 1)


def test_edges_depth_first_and_replace_item():
    # root a over (leaf, b over (c, leaf), d)
    c = ("c", (("leaf", 1),))
    b = ("b", (("edge", 1, c), ("leaf", 2)))
    d = ("d", (("leaf", 3),))
    nd = tag(("a", (("leaf", 0), ("edge", 0, b), ("edge", 0, d))), lambda v, lab: 0)
    found = [(p[1], slot, ch[1]) for p, slot, ch in edges(nd)]
    assert found == [("a", 1, "b"), ("b", 0, "c"), ("a", 2, "d")]
    assert [v[1] for v in vertices(nd)] == ["a", "b", "c", "d"]
    parent, slot, _ = list(edges(nd))[1]
    new = replace_item(nd, parent, slot, ("leaf", 7))
    b_cut = ("b", (("leaf", 7), ("leaf", 2)))
    assert untag(new) == ("a", (("leaf", 0), ("edge", 0, b_cut), ("edge", 0, d)))
    uids = [v[0] for v in vertices(nd)]
    assert [v[0] for v in vertices(new)] == uids[:2] + uids[3:]
    assert new[3][2] == nd[3][2]  # the untouched sibling is the same subtree


def test_cut_numbers_leaves_and_hangs_items_in_planar_order():
    # root a over (leaf, edge 5 to b, edge 1 to c over two leaves)
    b = ("b", (("leaf", 0),))
    c = ("c", (("leaf", 1), ("leaf", 3)))
    node = ("a", (("leaf", 2), ("edge", 5, b), ("edge", 1, c)))
    root, hanging = cut(node, lambda f: None if f == 5 else 0)
    assert root == ("a", (("leaf", 0), ("leaf", 1), ("edge", 0, ("c", (("leaf", 2), ("leaf", 3))))))
    assert hanging == [("leaf", 2), ("edge", 5, b), ("leaf", 1), ("leaf", 3)]


def test_koszul_counts_odd_letters_only():
    old = [("a", 1), ("b", 0), ("c", 1), ("d", 1)]
    assert koszul(old, old) == 1
    assert koszul(old, [("c", 1), ("a", 1), ("b", 0), ("d", 1)]) == -1
    assert koszul(old, [("b", 0), ("d", 1), ("a", 1), ("c", 1)]) == 1


# -- shared nodes and the element class --------------------------------------


def _parts(node, out: list) -> None:
    """Append node, its items and, recursively, the parts of its children."""
    out.append(node)
    for it in node[1]:
        out.append(it)
        if it[0] == "edge":
            _parts(it[2], out)


def test_enumerated_nodes_share_equal_parts():
    """Within one enumeration, equal subtrees and equal items are one
    object each: the cylinder basis, each bar arity and a cobar piece."""
    P = OPERADS["ass_sym"]
    B = bar(P, 4)
    bases = {"w": enumerate_w_basis(P, 4)}
    bases.update({f"bar {k}": B.elements(k) for k in range(1, 5)})
    bases["cobar"] = [x for xs in cobar(B, 4).basis.values() for x in xs]
    for name, basis in bases.items():
        parts: list = []
        for x in basis:
            _parts(x.node, parts)
        assert len({id(p) for p in parts}) == len(set(parts)), name

    basis = {x: x for x in bases["w"]}
    x = next(x for x in bases["w"] if x.degree == 2)
    terms = w_boundary(P, x)
    assert terms
    for y in terms:
        twin = basis[y]
        assert y.node is not twin.node  # built apart, equal by value
        assert y == twin and hash(y) == hash(twin)
    assert TreeElement(arity=x.arity, node=x.node, degree=x.degree) == x
    assert repr(x) == f"TreeElement(arity={x.arity!r}, node={x.node!r}, degree={x.degree!r})"
    for attr in ("degree", "node", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, attr, 0)
    assert not hasattr(x, "__dict__")


# -- independence of the two sign disciplines --------------------------------


def _imports(module: str) -> tuple[set, set]:
    """Modules imported from, and every name a module refers to."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    sources, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            sources.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            sources.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return sources, names


def test_tagged_module_owns_no_sign_word():
    sources, _ = _imports("tagged")
    for other in ("chain_operads", "bar_cobar"):
        assert not any(s.split(".")[-1] == other for s in sources), other
        # the node helpers come from tagged, not from the set-level module
        from_set = {
            alias.name
            for node in ast.walk(ast.parse((SRC / f"{other}.py").read_text()))
            if isinstance(node, ast.ImportFrom) and node.module == "set_operads"
            for alias in node.names
        }
        assert from_set <= {"AssOperad", "ComOperad", "InfiniteEnumerationError"}, (other, from_set)


def test_bar_cobar_keeps_its_own_sign_word():
    _, names = _imports("bar_cobar")
    assert not names & {"_word", "_contract_step"}


def test_edge_walks_live_in_tagged():
    """The constructions walk and rewrite tagged trees through tagged."""
    walkers = {
        "chain_operads": {"_marked_edges", "_all_edges", "_set_flag", "_shift_leaves"},
        "bar_cobar": {"_t_edge_list", "_t_replace_edge"},
    }
    for module, banned in walkers.items():
        tree = ast.parse((SRC / f"{module}.py").read_text())
        defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert not defined & banned, (module, defined & banned)
    contract = next(
        n
        for n in ast.walk(ast.parse((SRC / "chain_operads.py").read_text()))
        if isinstance(n, ast.FunctionDef) and n.name == "_contract_step"
    )
    nested = [n.name for n in ast.walk(contract) if isinstance(n, ast.FunctionDef)]
    assert nested == ["_contract_step"]


# -- the public surface ------------------------------------------------------

# Public functions and methods of opres that nothing in src/, scripts/ or
# perfbench/ uses, each with its reason to stay.
UNUSED_ON_PURPOSE = {
    "trees.aut_leaf_perms": "test oracle: the automorphism group by brute force",
    "set_operads.element_sort_key": "test oracle: the report order of the reference enumeration",
    "chain_core.HomologyReport.free_rank": "report accessor",
    "chain_core.HomologyReport.torsion": "report accessor",
    "chain_core.HomologyReport.nonzero_degrees": "report accessor",
    "chain_operads.validate_chain_operad": "awaits `chainw verify --check operad` (ROADMAP item 2)",
    "chain_operads.chain_interval": "awaits the cylinder over any chain segment (ROADMAP item 5)",
    "chain_operads.ChainInterval.vee": "awaits the cylinder over any chain segment (ROADMAP item 5)",
    "chain_operads.ChainInterval.counit": "awaits the cylinder over any chain segment (ROADMAP item 5)",
}


def _uses(paths) -> list:
    """(path, line, name, through an attribute) for every name the files
    use.  perfbench/tracing.py names what it wraps by strings, like
    "SparseMat.mul", so there the last dotted part of a string counts as
    an attribute."""
    out = []
    for path in paths:
        strings = path.parts[-2:] == ("perfbench", "tracing.py")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                out.append((path, node.lineno, node.attr, True))
            elif isinstance(node, ast.Name):
                out.append((path, node.lineno, node.id, False))
            elif isinstance(node, ast.alias):
                out.append((path, node.lineno, node.name, False))
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.append((path, node.lineno, node.value.split(".")[-1], True))
    return out


def test_public_surface_has_callers():
    """A public top-level function is used when its name is; a method only
    when an attribute of its name is.  A top-level function named like a
    method of opres is used only through its own name, as an import or a
    call, since an attribute of that name may be the method.  Uses inside
    its own body, and uses under tests/, do not count."""
    root = SRC.parent.parent
    uses = _uses([*SRC.glob("*.py"), *(root / "scripts").glob("*.py"), *(root / "perfbench").rglob("*.py")])
    modules = {path: ast.parse(path.read_text()).body for path in sorted(SRC.glob("*.py"))}
    methods = {
        m.name
        for body in modules.values()
        for top in body
        if isinstance(top, ast.ClassDef)
        for m in top.body
        if isinstance(m, ast.FunctionDef)
    }
    unused = set()
    for path, body in modules.items():
        for top in body:
            if isinstance(top, ast.FunctionDef):
                defs = [(top.name, top, False)]
            elif isinstance(top, ast.ClassDef):
                defs = [(f"{top.name}.{m.name}", m, True) for m in top.body if isinstance(m, ast.FunctionDef)]
            else:
                continue
            for name, node, method in defs:
                short = name.split(".")[-1]
                if short.startswith("_"):
                    continue
                if not any(
                    used == short
                    and (attr if method else not (attr and short in methods))
                    and not (where == path and node.lineno <= line <= node.end_lineno)
                    for where, line, used, attr in uses
                ):
                    unused.add(f"{path.stem}.{name}")
    assert unused == set(UNUSED_ON_PURPOSE)


def test_no_unused_imports():
    """Every name a module of src/opres/ or scripts/ imports is used in
    it; a dotted import binds its first part."""
    root = SRC.parent.parent
    unused = []
    for path in [*sorted(SRC.glob("*.py")), *sorted((root / "scripts").glob("*.py"))]:
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_no_nested_function_calls_itself():
    """A nested function that refers to its own name is a reference cycle
    (function, closure cell, function), so its locals outlive each call
    until the cyclic collector runs.  Recursive walks live at module level
    and take their accumulators as arguments."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text())):
            if not isinstance(outer, (ast.FunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(outer):
                if node is not outer and isinstance(node, ast.FunctionDef):
                    if any(isinstance(n, ast.Name) and n.id == node.name for n in ast.walk(node)):
                        found.add(f"{path.name}:{node.lineno} {node.name}")
    assert sorted(found) == []


def test_builds_leave_nothing_for_the_collector():
    """With the cyclic collector paused, reference counting alone frees
    every temporary of a build, a homology, a grafting check and a CLI
    call.  The CLI's parser is built once per process, so a first call
    builds it before the count."""
    as_ns, com = builtin_chain_operad("as_ns"), builtin_chain_operad("com")
    argv = ["chainw", "homology", "--operad", "com", "--arity", "3"]
    runs = {
        "w_reduced(as_ns, 6)": lambda: w_reduced(as_ns, 6),
        "homology(w_reduced(com, 5))": lambda: homology(w_reduced(com, 5)),
        "check_composition_maps(com, 3, 3)": lambda: check_composition_maps(com, 3, 3),
        "cli.main(chainw homology)": lambda: cli.main(argv),
    }
    assert cli.main(argv) == 0
    left = {}
    gc.collect()
    gc.disable()
    try:
        for name, run in runs.items():
            run()
            left[name] = gc.collect()
    finally:
        gc.enable()
    assert left == dict.fromkeys(runs, 0)


def test_traced_targets_resolve():
    """Every (module, attribute path) that perfbench/tracing.py wraps is
    defined in opres, so deleting or renaming a traced function fails here
    rather than under perfbench's --trace 1."""
    path = SRC.parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for _, module, attr_path, _, _ in tracing.TARGETS:
        owner = importlib.import_module(f"opres.{module}")
        for part in attr_path.split("."):
            owner = vars(owner).get(part) if owner is not None else None
        if not callable(owner):
            missing.append(f"{module}.{attr_path}")
    assert len(tracing.TARGETS) > 40
    assert missing == []
