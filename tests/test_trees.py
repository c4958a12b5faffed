import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from opres.tagged import build_node
from opres.trees import (
    UNIT,
    PlanarTree,
    aut_generators,
    aut_leaf_perms,
    aut_order,
    build_tree,
    corolla,
    enumerate_planar,
    iso_classes,
    iso_leaf_maps,
)


# -- oracles -----------------------------------------------------------


def count_isos_brute(t1: PlanarTree, t2: PlanarTree) -> int:
    """Number of root-preserving isomorphisms t1 -> t2 by direct backtracking.

    Independent of aut_order: no canonical keys, no factorial formula, just
    recursive matching of child sequences.
    """
    if t1.children is None and t2.children is None:
        return 1
    if t1.children is None or t2.children is None:
        return 0
    if len(t1.children) != len(t2.children):
        return 0
    m = len(t1.children)
    total = 0
    for assignment in itertools.permutations(range(m)):
        prod = 1
        for j in range(m):
            prod *= count_isos_brute(t1.children[j], t2.children[assignment[j]])
            if prod == 0:
                break
        total += prod
    return total


def planar_presentations(t: PlanarTree) -> set[tuple]:
    """Encodings of every planar tree isomorphic to t, by recursive child shuffles."""
    if t.children is None:
        return {t.encoding}
    child_sets = [planar_presentations(c) for c in t.children]
    out: set[tuple] = set()
    for combo in itertools.product(*child_sets):
        for order in itertools.permutations(combo):
            out.add((1,) + tuple(order))
    return out


def small_trees(max_arity: int = 5) -> list[PlanarTree]:
    out = []
    for n in range(2, max_arity + 1):
        out.extend(enumerate_planar(n, min_valence=2))
    return out


tree_strategy = st.sampled_from(small_trees(5))


# -- basic structure ---------------------------------------------------


def test_unit_tree():
    assert UNIT.arity == 1
    assert UNIT.vertex_count == 0
    assert UNIT.edge_count == 0
    assert UNIT.notation() == "|"
    assert UNIT.is_unit


def test_stump():
    t = build_tree("()")
    assert t.arity == 0
    assert t.vertex_count == 1
    assert t.edge_count == 0


def test_parse_roundtrip():
    for text in ["|", "()", "(| |)", "((| |) |)", "(| (()) |)"]:
        assert build_tree(text).notation() == text


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        build_tree("(| |")
    with pytest.raises(ValueError):
        build_tree("")
    with pytest.raises(ValueError):
        build_tree("(| |) |")


def test_arity_additive():
    t = build_tree("((| |) (| | |))")
    assert t.arity == 5
    assert t.vertex_count == 3
    assert t.edge_count == 2


def recount(t):
    """(leaves, vertices) of t by walking it."""
    if t.children is None:
        return 1, 0
    leaves, vertices = 0, 1
    for c in t.children:
        a, v = recount(c)
        leaves += a
        vertices += v
    return leaves, vertices


def test_sizes_are_plain_attributes_outside_equality():
    trees = [UNIT, build_tree("()"), build_tree("(() (| ()) |)")]
    for n in range(7):
        trees += enumerate_planar(n, None, 2) if n >= 2 else enumerate_planar(n, 2)
    for t in trees:
        assert (t.arity, t.vertex_count) == recount(t)
        twin = build_tree(t.notation())  # built afresh, the unit tree aside
        assert twin == t and hash(twin) == hash(t)
        assert repr(t) == f"PlanarTree[{t.notation()}]"
    assert [f.name for f in dataclasses.fields(PlanarTree) if f.compare] == ["children"]


def edge_pairs(t):
    """(parent, child) DFS vertex indices of each internal edge, by edge
    index, as build_node numbers them."""
    pairs = {}

    def walk(node):
        parent, items = node
        for it in items:
            if it[0] == "edge":
                pairs[it[1]] = (parent, it[2][0])
                walk(it[2])

    walk(build_node(t, range(t.vertex_count), range(t.edge_count), range(t.arity)))
    return [pairs[i] for i in range(t.edge_count)]


def test_edges_index_convention():
    # edge i must be the parent edge of DFS vertex i + 1
    t = build_tree("((| (| |)) | ((| |) |))")
    edges = edge_pairs(t)
    assert len(edges) == t.edge_count
    for i, (parent, child) in enumerate(edges):
        assert child == i + 1
        assert parent < child


def test_edges_example():
    t = build_tree("(((| |) |) |)")
    assert edge_pairs(t) == [(0, 1), (1, 2)]
    t2 = build_tree("((| |) (| |))")
    assert edge_pairs(t2) == [(0, 1), (0, 2)]


# -- enumeration -------------------------------------------------------


def test_enumerate_reduced_counts():
    # reduced planar trees by arity follow the super-Catalan sequence
    expected = {1: 1, 2: 1, 3: 3, 4: 11, 5: 45}
    for n, count in expected.items():
        assert len(enumerate_planar(n, min_valence=2)) == count


def test_enumerate_arity4_edge_histogram():
    hist: dict[int, int] = {}
    for t in enumerate_planar(4, min_valence=2):
        hist[t.edge_count] = hist.get(t.edge_count, 0) + 1
    assert hist == {0: 1, 1: 5, 2: 5}


def test_enumerate_arity5_edge_histogram():
    # hand count: 1 corolla; 9 two-vertex trees (2+3+4 child positions);
    # 21 three-vertex (16 path shapes + 5 sibling shapes); 14 binary (Catalan)
    hist: dict[int, int] = {}
    for t in enumerate_planar(5, min_valence=2):
        hist[t.edge_count] = hist.get(t.edge_count, 0) + 1
    assert hist == {0: 1, 1: 9, 2: 21, 3: 14}


def test_enumerate_no_duplicates():
    for n in range(1, 6):
        ts = enumerate_planar(n, min_valence=2)
        assert len(set(t.encoding for t in ts)) == len(ts)


def test_enumerate_respects_bounds():
    for t in enumerate_planar(4, max_edges=1, min_valence=2):
        assert t.edge_count <= 1
    for t in enumerate_planar(4, min_valence=2):
        assert all(v >= 2 for v in t.valences())


def test_enumerate_unbounded_needs_reduced():
    with pytest.raises(ValueError):
        enumerate_planar(3, max_edges=None, min_valence=1)


def test_enumerate_with_unary_and_caps():
    # with unary vertices allowed the edge cap keeps things finite
    ts = enumerate_planar(1, max_edges=2, min_valence=1)
    # |, (|), ((|)), and nothing else: a lone leaf under up to 3 unary vertices
    # capped at 2 internal edges means at most 3 vertices in a chain
    assert sorted(t.notation() for t in ts) == ["(((|)))", "((|))", "(|)", "|"]


def test_enumerate_arity0_with_stumps():
    ts = enumerate_planar(0, max_edges=1, min_valence=0)
    # (), (()) are the arity-0 trees with at most one internal edge
    assert sorted(t.notation() for t in ts) == ["(())", "()"]


def _unpruned_planar(n: int, k: int, v: int, memo: dict) -> list:
    """Every planar tree of arity n with at most k edges and valences >= v,
    in enumerate_planar's order: every root valence, every child arity
    and every enumerated child, with out-of-budget children dropped only
    after they are made."""
    if (n, k, v) not in memo:
        out = [UNIT] if n == 1 else []
        for m in range(max(v, 0), n + k + 1):
            if m == 0:
                out += [PlanarTree(())] if n == 0 else []
                continue
            out += [PlanarTree(kids) for kids in _unpruned_children(m, n, k, v, memo)]
        memo[(n, k, v)] = out
    return memo[(n, k, v)]


def _unpruned_children(slots: int, arity: int, budget: int, v: int, memo: dict):
    if slots == 0:
        if arity == 0:
            yield ()
        return
    for a in range(arity + 1):
        if a == 1:
            for rest in _unpruned_children(slots - 1, arity - 1, budget, v, memo):
                yield (UNIT,) + rest
        if budget >= 1:
            for child in _unpruned_planar(a, budget - 1, v, memo):
                if child.is_unit or child.edge_count + 1 > budget:
                    continue
                for rest in _unpruned_children(slots - 1, arity - a, budget - 1 - child.edge_count, v, memo):
                    yield (child,) + rest


@pytest.mark.parametrize("v", [0, 1, 2])
def test_enumeration_order_matches_unpruned_reference(v):
    memo: dict = {}
    for n in range(7):
        for e in range(5):
            assert enumerate_planar(n, e, v) == _unpruned_planar(n, e, v, memo), (n, e)


# -- canonical forms and isomorphism ------------------------------------


def test_canonical_is_sorted():
    # unit children encode below vertex children, so they come first
    t = build_tree("((| |) |)")
    assert t.canonical().notation() == "(| (| |))"
    assert build_tree("(| (| |))").canonical().notation() == "(| (| |))"


@given(tree_strategy)
def test_canonical_idempotent(t):
    c = t.canonical()
    assert c.canonical() == c


@given(tree_strategy)
def test_canonical_in_presentation_set(t):
    pres = planar_presentations(t)
    assert t.canonical_key in pres
    assert t.canonical_key == min(pres)


def test_iso_classes_arity4():
    classes = iso_classes(4, min_valence=2)
    assert sum(c.planar_count for c in classes) == 11
    by_edges: dict[int, int] = {}
    for c in classes:
        by_edges[c.tree.edge_count] = by_edges.get(c.tree.edge_count, 0) + 1
    # 1 corolla class, 2 two-vertex classes, 2 binary classes
    assert by_edges == {0: 1, 1: 2, 2: 2}


@given(tree_strategy)
@settings(max_examples=60)
def test_planar_count_times_aut_is_valence_product(t):
    pres = planar_presentations(t)
    expected = 1
    for v in t.valences():
        expected *= math.factorial(v)
    assert len(pres) * aut_order(t) == expected


# -- automorphisms ------------------------------------------------------


def test_aut_order_examples():
    assert aut_order(UNIT) == 1
    assert aut_order(corolla(2)) == 2
    assert aut_order(corolla(3)) == 6
    assert aut_order(build_tree("((| |) (| |))")) == 8
    assert aut_order(build_tree("((| |) |)")) == 2
    assert aut_order(build_tree("(() ())")) == 2


@given(tree_strategy)
@settings(max_examples=60)
def test_aut_order_matches_brute_force(t):
    assert aut_order(t) == count_isos_brute(t, t)


@given(tree_strategy)
@settings(max_examples=40)
def test_aut_leaf_perms_faithful_on_reduced(t):
    # no stumps, so the leaf action is faithful
    perms = aut_leaf_perms(t)
    assert len(perms) == aut_order(t)
    assert tuple(range(t.arity)) in perms


def test_aut_leaf_perms_not_faithful_with_stumps():
    t = build_tree("(() ())")
    assert aut_order(t) == 2
    assert aut_leaf_perms(t) == [()]


@given(tree_strategy)
@settings(max_examples=30)
def test_aut_leaf_perms_closed_under_composition(t):
    perms = set(aut_leaf_perms(t))
    sample = sorted(perms)[:6]
    for p in sample:
        for q in sample:
            assert tuple(q[p[i]] for i in range(len(p))) in perms


def test_iso_leaf_maps_between_presentations():
    t1 = build_tree("(| (| |))")
    t2 = build_tree("((| |) |)")
    maps = iso_leaf_maps(t1, t2)
    assert len(maps) == 2
    # leaf 0 of t1 (the bare leaf) must land on leaf 2 of t2
    assert all(m[0] == 2 for m in maps)
    assert iso_leaf_maps(t1, corolla(3)) == []


def test_generators_generate():
    for text in ["((| |) (| |))", "(| | (| |))", "((| |) (| |) (| |))"]:
        t = build_tree(text).canonical()
        gens = [g.leaf_perm for g in aut_generators(t)]
        n = t.arity
        group = {tuple(range(n))}
        frontier = list(group)
        while frontier:
            new = []
            for p in frontier:
                for g in gens:
                    q = tuple(g[p[i]] for i in range(n))
                    if q not in group:
                        group.add(q)
                        new.append(q)
            frontier = new
        assert len(group) == aut_order(t)

