import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import opres.set_operads as so
from opres import perms
from opres.chain_operads import LinearizedOperad, validate_chain_operad
from opres.cli import main
from opres.segments import (
    FiniteSegment,
    SegmentMap,
    chain_segment,
    codiagonal,
    delta1_level,
    diamond,
    diamond_collapse,
    segment_check,
    segment_map_check,
)
from opres.set_operads import (
    AssOperad,
    ComOperad,
    FreePointedOperad,
    GodementTower,
    InfiniteEnumerationError,
    TableOperad,
    WSetOperad,
    W_UNIT,
    build_node,
    canon_node,
    check_godement_level,
    compare_free,
    compare_godement_w,
    confluence_experiment,
    element_sort_key,
    element_to_json,
    enumerate_w_elements,
    godement_simplicial_check,
    node_leaves,
    operad_from_json,
    random_raw_instance,
    reachable_normal_forms,
    rewrite_steps,
    w_act,
    w_compose,
    w_diamond_compare,
    w_eval,
    w_segment_apply,
)
from opres.tagged import TreeElement, map_labels, map_leaves
from opres.trees import PlanarTree, corolla, enumerate_planar, iso_classes

ASS = AssOperad()
COM = ComOperad()
L = PlanarTree(None)


def validate_set_operad(P, arity_bound, name_of=None):
    """The one validator on the degree-0 view of P that keeps the unit."""
    return validate_chain_operad(LinearizedOperad(P, keep_unit=True, name_of=name_of), arity_bound)


def element_from_data(P, tree, labels, lengths, leaves):
    """The canonical element of a presentation, without rewriting."""
    return TreeElement(tree.arity, canon_node(P, build_node(tree, labels, lengths, leaves)), 0)


def _normalize(P, H, tree, labels, lengths, leaves):
    """The normal form of a presentation, as a canonical element."""
    node = build_node(tree, labels, lengths, leaves)
    return W_UNIT if node is None else so._normal_element(P, H, tree.arity, node)


def operad_to_json(P, max_arity):
    """The table serialization of P up to an arity, which operad_from_json reads."""
    rng = range(1, max_arity + 1)
    compose = {
        f"{P.name_of(n, x)} o{i + 1} {P.name_of(m, y)}": P.name_of(n + m - 1, P.compose(n, i, x, m, y))
        for n in rng
        for m in rng
        if n + m - 1 <= max_arity
        for x in P.elements(n)
        for i in range(n)
        for y in P.elements(m)
    }
    actions = {
        f"{P.name_of(n, x)} * {','.join(str(s + 1) for s in sigma)}": P.name_of(n, P.act(n, x, sigma))
        for n in rng
        for x in P.elements(n)
        for sigma in perms.all_perms(n)
        if sigma != perms.identity(n)
    }
    return {
        "symmetric": True,
        "arities": {str(n): [P.name_of(n, x) for x in P.elements(n)] for n in rng if P.elements(n)},
        "unit": P.name_of(1, P.unit),
        "compose": compose,
        "actions": actions,
    }


# -- independent orbit oracle --------------------------------------------------
#
# The orbit partition of decorated presentations under adjacent sibling
# swaps (label twisted by the transposition), computed by plain graph
# search.  No sorting, no canonical forms: an independent count of the
# equivalence classes that enumerate_w_elements claims to list.


def swap_moves(P, node):
    label, items = node
    k = len(items)
    out = []
    for j in range(k - 1):
        tau = list(range(k))
        tau[j], tau[j + 1] = tau[j + 1], tau[j]
        swapped = items[:j] + (items[j + 1], items[j]) + items[j + 2 :]
        out.append((P.act(k, label, tuple(tau)), swapped))
    for j, it in enumerate(items):
        if it[0] == "edge":
            for sub in swap_moves(P, it[2]):
                out.append((label, items[:j] + (("edge", it[1], sub),) + items[j + 1 :]))
    return out


def all_presentations(P, H, arity, min_valence=2):
    lengths_pool = [ln for ln in range(H.size) if ln != H.zero]
    states = set()
    for T in enumerate_planar(arity, None, min_valence):
        if T.children is None:
            continue
        pools = [P.elements(v) for v in T.valences()]
        if any(not p for p in pools):
            continue
        for labels in itertools.product(*pools):
            for lens in itertools.product(lengths_pool, repeat=T.edge_count):
                for leaves in itertools.permutations(range(arity)):
                    states.add(build_node(T, labels, lens, leaves))
    return states


def orbit_count(P, states):
    seen = set()
    count = 0
    for s in states:
        if s in seen:
            continue
        count += 1
        stack = [s]
        seen.add(s)
        while stack:
            cur = stack.pop()
            for nxt in swap_moves(P, cur):
                assert nxt in states, "swap move left the presentation set"
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return count


def test_orbit_oracle_free_on_ass():
    # frozen counts from the oracle: free pointed operad on the Ass collection
    expected = {2: 2, 3: 18}
    for n, want in expected.items():
        states = all_presentations(ASS, chain_segment(1), n)
        assert orbit_count(ASS, states) == want
        canons = {canon_node(ASS, s) for s in states}
        assert len(canons) == want
        listed = enumerate_w_elements(ASS, chain_segment(1), n)
        assert {e.node for e in listed if e.node is not None} == canons
        assert len(listed) == want + (1 if n == 1 else 0)


def test_orbit_oracle_chain2():
    states = all_presentations(ASS, chain_segment(2), 3)
    assert orbit_count(ASS, states) == 30
    assert len(enumerate_w_elements(ASS, chain_segment(2), 3)) == 30


def test_canon_constant_on_swap_neighbors():
    states = all_presentations(ASS, chain_segment(2), 3)
    for s in itertools.islice(states, 40):
        c = canon_node(ASS, s)
        for nxt in swap_moves(ASS, s):
            assert canon_node(ASS, nxt) == c


# -- the word operad and table operads ----------------------------------------


def test_ass_axioms():
    assert validate_set_operad(ASS, 4) == []


def test_com_axioms():
    # every arity names its one element "*", so the view names them apart
    assert validate_set_operad(COM, 4, lambda n, x: f"c{n}") == []


def test_ass_word_semantics():
    # (a0 a1) composed in slot 1 with (b0 b1): a0 (b0 b1) read off as 123
    assert ASS.compose(2, 0, (0, 1), 2, (0, 1)) == (0, 1, 2)
    assert ASS.compose(2, 1, (1, 0), 2, (0, 1)) == (1, 2, 0)
    assert ASS.name_of(3, (1, 2, 0)) == "231"
    # x.sigma feeds input sigma(p) to slot p
    assert ASS.act(3, (0, 1, 2), (2, 0, 1)) == (2, 0, 1)
    assert ASS.act(2, (0, 1), (1, 0)) == (1, 0)


def test_ass_rank_is_the_index_in_elements():
    for n in range(1, 7):
        elems = ASS.elements(n)
        assert [ASS.rank(n, x) for x in elems] == [elems.index(x) for x in elems]
    # not permutations of range(n): wrong arity, a repeat, a letter out of
    # range, a list, a string, and the empty arity
    for n, x in [(3, (0, 1)), (3, (0, 1, 1)), (3, (0, 1, 3)), (3, [0, 1, 2]), (2, "01"), (0, ())]:
        with pytest.raises(ValueError):
            ASS.elements(n).index(x)
        with pytest.raises(ValueError):
            ASS.rank(n, x)


def test_json_round_trip():
    data = operad_to_json(ASS, 3)
    Q = operad_from_json(data)
    assert validate_set_operad(Q, 3) == []
    for n in range(1, 4):
        assert Q.elements(n) == tuple(ASS.name_of(n, x) for x in ASS.elements(n))
    assert Q.compose(2, 0, "12", 2, "21") == ASS.name_of(3, ASS.compose(2, 0, (0, 1), 2, (1, 0)))


def test_table_operad_detects_corruption():
    data = operad_to_json(ASS, 3)
    data["compose"]["12 o1 12"] = "321"
    Q = operad_from_json(data)
    assert validate_set_operad(Q, 3) != []


def z3_table(a_o_a):
    """Arity 1 is {e, a, b} with unit e and a o1 a = a_o_a; the other
    products are those of Z/3."""
    compose = {("a", 0, "a"): a_o_a, ("a", 0, "b"): "e", ("b", 0, "a"): "e", ("b", 0, "b"): "a"}
    return TableOperad({1: ["e", "a", "b"]}, "e", compose, {})


def test_group_in_arity_one_validates():
    # a o1 b lands on the unit, which the view that keeps it has as a basis element
    assert validate_set_operad(z3_table("b"), 3) == []


def test_broken_group_fails_associativity():
    msgs = validate_set_operad(z3_table("a"), 3)
    # (a o1 a) o1 b = a o1 b = e, but a o1 (a o1 b) = a o1 e = a
    assert "nested associativity fails at (a,a,b) slots (0,0)" in msgs


class LeftUnitReverses(AssOperad):
    """Words, except that the unit composed on the left reverses the word."""

    def compose(self, n, i, x, m, y):
        if n == 1:
            return tuple(reversed(y))
        return super().compose(n, i, x, m, y)


def test_failing_left_unit_law_is_reported():
    msgs = validate_set_operad(LeftUnitReverses(), 3)
    assert "left unit law fails on 21" in msgs
    assert not any(m.startswith("right unit law") for m in msgs)


def test_table_operad_rejects_duplicate_names():
    with pytest.raises(ValueError):
        TableOperad({1: ["e"], 2: ["e"]}, "e", {}, {})


def test_missing_table_entry_raises():
    Q = operad_from_json(operad_to_json(ASS, 2))
    with pytest.raises(ValueError, match="missing from table"):
        Q.compose(2, 0, "12", 2, "12")  # arity 3 results were never tabulated


# -- canonical forms -----------------------------------------------------------


def test_presentation_invariance_explicit():
    # swapping the two children of a corolla twists the label
    a = element_from_data(ASS, corolla(2), [(0, 1)], [], (1, 0))
    b = element_from_data(ASS, corolla(2), [(1, 0)], [], (0, 1))
    assert a == b
    assert w_eval(ASS, a) == (1, 0)


def test_canon_idempotent():
    rng = random.Random(3)
    H = chain_segment(2)
    for _ in range(50):
        tree, labels, lengths, leaves = random_raw_instance(rng, ASS, H, rng.randint(1, 4), 3)
        node = build_node(tree, labels, lengths, leaves)
        c = canon_node(ASS, node)
        assert canon_node(ASS, c) == c


@given(st.integers(0, 10**9))
@settings(max_examples=80)
def test_canon_invariant_under_swap_walks(seed):
    rng = random.Random(seed)
    H = chain_segment(2)
    tree, labels, lengths, leaves = random_raw_instance(rng, ASS, H, rng.randint(1, 4), 4)
    node = build_node(tree, labels, lengths, leaves)
    c = canon_node(ASS, node)
    cur = node
    for _ in range(6):
        moves = swap_moves(ASS, cur)
        if not moves:
            break
        cur = rng.choice(moves)
        assert canon_node(ASS, cur) == c


class _TwistCollection:
    """Tiny collection with a nullary element and a free S_2 orbit in
    arity 2, to exercise tie-breaking between identical leafless
    subtrees."""

    def elements(self, n):
        return {0: ("c",), 1: ("e",), 2: ("m", "w")}.get(n, ())

    @property
    def unit(self):
        return "e"

    def act(self, n, x, sigma):
        if n == 2 and sigma == (1, 0):
            return {"m": "w", "w": "m"}[x]
        return x

    def name_of(self, n, x):
        return x


def test_tie_between_identical_stumps():
    T = _TwistCollection()
    stump = ("c", ())
    for lab in ("m", "w"):
        node = (lab, (("edge", 1, stump), ("edge", 1, stump)))
        assert canon_node(T, node) == ("m", (("edge", 1, stump), ("edge", 1, stump)))
    elems = enumerate_w_elements(T, chain_segment(1), 0, vertex_cap=3)
    assert len(elems) == 2  # the stump itself and one m/w orbit over two stumps


def test_uncapped_enumeration_guard():
    T = _TwistCollection()
    with pytest.raises(InfiniteEnumerationError):
        enumerate_w_elements(T, chain_segment(1), 2)


# -- the enumerator against the all-routings reference -----------------------
#
# The reference is the enumerator as first written: every isomorphism class,
# every labeling, length and leaf routing, canonicalized through canon_node,
# de-duplicated in a set and sorted by element_sort_key.  No orbit-least
# routing enters it.


def ref_enumerate(P, H, arity, vertex_cap):
    nullary = bool(P.elements(0))
    extra_unary = any(x != P.unit for x in P.elements(1))
    min_val = 0 if nullary else (1 if extra_unary else 2)
    max_edges = None if vertex_cap is None else max(vertex_cap - 1, 0)
    lengths_pool = [ln for ln in range(H.size) if ln != H.zero]
    out = {W_UNIT} if arity == 1 else set()
    for cls in iso_classes(arity, max_edges, min_val):
        T = cls.tree
        if T.children is None or (vertex_cap is not None and T.vertex_count > vertex_cap):
            continue
        pools = [
            tuple(x for x in P.elements(v) if v != 1 or x != P.unit) for v in T.valences()
        ]
        for labels in itertools.product(*pools):
            for lens in itertools.product(lengths_pool, repeat=T.edge_count):
                for leaves in itertools.permutations(range(arity)):
                    node = build_node(T, labels, lens, leaves)
                    out.add(TreeElement(arity, canon_node(P, node), 0))
    return sorted(out, key=lambda e: element_sort_key(P, e))


ORACLE_SEGMENTS = {
    "chain:1": (chain_segment(1), None, 4),
    "chain:2": (chain_segment(2), None, 4),
    "delta1:1": (delta1_level(1), None, 4),
    "diamond:interval": (diamond(chain_segment(1)), 2, 4),
}


@pytest.mark.parametrize("segment", sorted(ORACLE_SEGMENTS))
@pytest.mark.parametrize("P", [ASS, COM], ids=["ass", "com"])
def test_enumerator_matches_all_routings_reference(P, segment):
    H, cap, max_arity = ORACLE_SEGMENTS[segment]
    for n in range(1, max_arity + 1):
        assert enumerate_w_elements(P, H, n, cap) == ref_enumerate(P, H, n, cap), n


def test_enumerator_matches_reference_with_stumps():
    T = _TwistCollection()
    H = chain_segment(1)
    for n in range(4):
        for cap in range(1, 5):
            assert enumerate_w_elements(T, H, n, cap) == ref_enumerate(T, H, n, cap), (n, cap)


def test_enumerator_matches_reference_on_tower_level():
    level = GodementTower(ASS).level(0)
    for n in range(1, 4):
        assert list(level.elements(n)) == ref_enumerate(level.P, level.H, n, level.vertex_cap), n


# -- the one-pass canonical form against the multi-pass reference ------------
#
# The reference below is the canonical form as first written: every level
# re-walks its subtrees for their keys, and every label is twisted through
# the action, the identity included.  Over tower levels its action is the
# reference action all the way down, so nothing of the one-pass form or of
# the identity shortcuts of w_act enters it.


def ref_bare_encoding(node):
    enc = [1]
    for it in node[1]:
        enc.append((0,) if it[0] == "leaf" else ref_bare_encoding(it[2]))
    return tuple(enc)


def ref_vertex_count(node):
    return 1 + sum(ref_vertex_count(it[2]) for it in node[1] if it[0] == "edge")


def ref_label_key(P, valence, label):
    return P.elements(valence).index(label)


def ref_decorated_key(P, node):
    return (ref_label_key(P, len(node[1]), node[0]), tuple(ref_item_key(P, it) for it in node[1]))


def ref_item_key(P, item):
    if item[0] == "leaf":
        return ((0,), 0, item[1])
    return (ref_bare_encoding(item[2]), item[1], ref_decorated_key(P, item[2]))


def ref_canon(P, node):
    label, items = node
    k = len(items)
    new_items = [it if it[0] == "leaf" else ("edge", it[1], ref_canon(P, it[2])) for it in items]
    keys = [ref_item_key(P, it) for it in new_items]
    sigma = tuple(sorted(range(k), key=lambda j: keys[j]))
    sorted_items = tuple(new_items[j] for j in sigma)
    new_label = P.act(k, label, perms.invert(sigma))
    sorted_keys = [keys[j] for j in sigma]
    runs = []
    start = 0
    for j in range(1, k + 1):
        if j == k or sorted_keys[j] != sorted_keys[start]:
            if j - start > 1:
                runs.append((start, j - start))
            start = j
    if runs:
        best = new_label
        best_key = ref_label_key(P, k, best)
        for taus in itertools.product(*(perms.all_perms(ln) for _, ln in runs)):
            tau = list(range(k))
            for (st_, ln), block in zip(runs, taus):
                for t in range(ln):
                    tau[st_ + t] = st_ + block[t]
            cand = P.act(k, new_label, tuple(tau))
            ck = ref_label_key(P, k, cand)
            if ck < best_key:
                best, best_key = cand, ck
        new_label = best
    return (new_label, sorted_items)


def ref_sort_key(P, node):
    return (1, ref_vertex_count(node), ref_bare_encoding(node), ref_decorated_key(P, node))


class _RefCollection:
    """The collection underlying ASS or a tower level, acted on through
    the reference canonical form on every layer."""

    def __init__(self, K):
        self.K = K
        self.inner = _RefCollection(K.P.K) if isinstance(K, WSetOperad) else None

    def elements(self, n):
        return self.K.elements(n)

    def act(self, n, x, sigma):
        if self.inner is None:
            return self.K.act(n, x, sigma)
        if x.node is None:
            return x
        return TreeElement(x.arity, ref_canon(self.inner, map_leaves(x.node, sigma)), 0)


TOWER = GodementTower(ASS)


def random_twist_node(rng, budget, leaves):
    """Random tree over _TwistCollection, rich in identical stumps so that
    the tie branch runs; leaves numbered in planar order."""
    valence = 0 if budget <= 0 else rng.choice((0, 1, 2, 2))
    label = rng.choice(_TwistCollection().elements(valence))
    items = []
    for _ in range(valence):
        if rng.random() < 0.3:
            items.append(("leaf", next(leaves)))
        else:
            items.append(("edge", rng.randrange(2), random_twist_node(rng, budget - 1, leaves)))
    return (label, tuple(items))


def random_oracle_case(rng, which):
    """(collection for canon_node, the same collection for the reference,
    a raw node)."""
    if which == "twist":
        T = _TwistCollection()
        return T, T, random_twist_node(rng, 3, itertools.count())
    if which in ("ass", "com"):
        P = ASS if which == "ass" else COM
        H, ref = chain_segment(2), _RefCollection(P)
        arity, extra = rng.randint(1, 4), 4
    else:
        level = TOWER.level(int(which[-1]))
        P, H, ref = so._NoComposeWrapper(level), chain_segment(1), _RefCollection(level)
        arity, extra = rng.randint(1, 3), 2
    tree, labels, lengths, leaves = random_raw_instance(rng, P, H, arity, extra)
    return P, ref, build_node(tree, labels, lengths, leaves)


@pytest.mark.parametrize("which", ["ass", "com", "twist", "tower0", "tower1"])
@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_canon_matches_multipass_reference(which, seed):
    P, ref, node = random_oracle_case(random.Random(seed), which)
    c = canon_node(P, node)
    assert c == ref_canon(ref, node)
    assert so.element_sort_key(P, TreeElement(len(node_leaves(c)), c, 0)) == ref_sort_key(ref, c)


def _invariant_families():
    H = chain_segment(2)
    yield ASS, [e for n in range(1, 4) for e in enumerate_w_elements(ASS, H, n)]
    yield COM, [e for n in range(1, 5) for e in enumerate_w_elements(COM, H, n)]
    for k in (0, 1):
        level = TOWER.level(k)
        yield level.P, [e for n in range(1, 4) for e in level.elements(n)]
    rng = random.Random(11)
    D = diamond(chain_segment(1))
    normal = []
    for _ in range(60):
        tree, labels, lengths, leaves = random_raw_instance(rng, ASS, D, rng.randint(1, 4), 3)
        normal.append(so._normal_element(ASS, D, tree.arity, build_node(tree, labels, lengths, leaves)))
    yield ASS, normal


def test_built_elements_hold_canonical_nodes():
    # the invariant behind skipping identity twists: canon_node fixes every
    # built node, and w_act is a right action with the identity acting trivially
    rng = random.Random(5)
    for P, elems in _invariant_families():
        for e in elems:
            if e.node is not None:
                assert canon_node(P, e.node) == e.node
            assert w_act(P, e, perms.identity(e.arity)) == e
            sigma = tuple(rng.sample(range(e.arity), e.arity))
            assert w_act(P, w_act(P, e, sigma), perms.invert(sigma)) == e


def _rank_universes():
    # the label sources that keep rank tables: tower levels 0 and 1 and the
    # diamond comparator's operads (over the interval and its diamond, cap 4)
    tower = GodementTower(ASS)
    H = chain_segment(1)
    yield "tower0", tower.level(0)
    yield "tower1", tower.level(1)
    yield "interval", WSetOperad(H, ASS, 4)
    yield "diamond", WSetOperad(diamond(H), ASS, 4)


@pytest.mark.parametrize("name", ["tower0", "tower1", "interval", "diamond"])
def test_rank_lookup_equals_list_position(name):
    K = dict(_rank_universes())[name]
    wrapper = so._NoComposeWrapper(K)
    for n in range(5):
        elems = K.elements(n)
        # the elements are distinct, so each one's position is its index
        # in the list; a fresh equal copy is found by value, not identity
        assert len(set(elems)) == len(elems)
        fresh = [TreeElement(x.arity, x.node, 0) for x in elems]
        assert [K.rank(n, x) for x in fresh] == list(range(len(elems)))
        assert [wrapper.rank(n, x) for x in fresh] == list(range(len(elems)))
        assert [so._label_key(K, n, x) for x in elems] == list(range(len(elems)))


def test_rank_lookup_falls_back_to_the_base_list():
    for P in (ASS, COM):
        wrapper = so._NoComposeWrapper(P)
        for n in range(1, 5):
            elems = P.elements(n)
            assert [wrapper.rank(n, x) for x in elems] == list(range(len(elems)))


def test_rank_lookup_rejects_a_label_outside_the_list():
    H = chain_segment(1)
    W = WSetOperad(H, ASS, 2)
    inside = W.elements(3)[0]
    # an element of another arity, and one above the vertex cap
    over_cap = next(x for x in WSetOperad(H, ASS).elements(4) if x.vertex_count() > 2)
    for n, x in [(2, inside), (4, over_cap), (3, W_UNIT)]:
        with pytest.raises(ValueError):
            W.rank(n, x)
        with pytest.raises(ValueError):
            so._NoComposeWrapper(W).rank(n, x)
    # a child vertex of valence 4 labeled by an element of arity 3
    tower = GodementTower(ASS)
    child = (inside, tuple(("leaf", g) for g in range(4)))
    with pytest.raises(ValueError):
        canon_node(tower.level(1).P, (tower.elements(0, 2)[0], (("edge", 1, child), ("leaf", 4))))
    with pytest.raises(ValueError):
        so._NoComposeWrapper(ASS).rank(2, (0, 1, 2))


@pytest.mark.parametrize("P", [ASS, COM], ids=["ass", "com"])
def test_wrap_builds_canonical_corollas(P):
    # wrap skips canon_node: a corolla with its leaves in input order is
    # its own canonical form, at every level and for every label below
    tower = GodementTower(P)
    for k in range(3):
        for n in range(1, 5):
            labels = P.elements(n) if k == 0 else tower.elements(k - 1, n)
            for lab in labels:
                w = tower.wrap(k, lab, n)
                assert w.arity == n
                assert canon_node(tower.level(k).P, w.node) == w.node


# -- rewriting ----------------------------------------------------------------


def two_level_tree():
    # root(2) with an inner binary vertex on its first input
    return PlanarTree((PlanarTree((L, L)), L))


def unary_sandwich_tree():
    # root(2) -> [unary vertex -> binary vertex, leaf]
    return PlanarTree((PlanarTree((PlanarTree((L, L)),)), L))


def test_contract_rule():
    H = chain_segment(2)
    got = _normalize(ASS, H, two_level_tree(), [(0, 1), (0, 1)], [0], (0, 1, 2))
    assert got == element_from_data(ASS, corolla(3), [(0, 1, 2)], [], (0, 1, 2))


def test_drop_rule():
    H = chain_segment(2)
    tree = PlanarTree((PlanarTree((L,)), L))
    got = _normalize(ASS, H, tree, [(0, 1), (0,)], [2], (0, 1))
    assert got == element_from_data(ASS, corolla(2), [(0, 1)], [], (0, 1))


def test_promote_and_collapse_rules():
    H = chain_segment(2)
    tree = PlanarTree((corolla(2),))
    got = _normalize(ASS, H, tree, [(0,), (1, 0)], [1], (0, 1))
    assert got == element_from_data(ASS, corolla(2), [(1, 0)], [], (0, 1))
    bare = PlanarTree((L,))
    assert _normalize(ASS, H, bare, [(0,)], [], (0,)) == W_UNIT


def noncommutative_segment():
    # {0, x, y, 1} with x v y = x and y v x = y (left projection band)
    join = (
        (0, 1, 2, 3),
        (1, 1, 1, 3),
        (2, 2, 2, 3),
        (3, 3, 3, 3),
    )
    return FiniteSegment(("0", "x", "y", "1"), 0, 3, join)


def test_noncommutative_segment_is_valid():
    assert segment_check(noncommutative_segment()) == []


def test_join_rule_takes_upper_length_first():
    H = noncommutative_segment()
    got = _normalize(ASS, H, unary_sandwich_tree(), [(0, 1), (0,), (0, 1)], [1, 2], (0, 1, 2))
    want = element_from_data(ASS, two_level_tree(), [(0, 1), (0, 1)], [1], (0, 1, 2))
    assert got == want  # x v y = x, the length nearer the root wins


def test_point_segment_collapses_to_base():
    W = WSetOperad(chain_segment(0), ASS)
    for n in range(1, 4):
        elems = W.elements(n)
        assert len(elems) == len(ASS.elements(n))
        assert sorted(w_eval(ASS, e) for e in elems) == sorted(ASS.elements(n))
        for e in elems:
            assert e.vertex_count() <= 1


def test_enumerated_elements_are_normal():
    H = chain_segment(2)
    for n in range(1, 4):
        for e in enumerate_w_elements(ASS, H, n):
            assert e.node is None or not rewrite_steps(ASS, H, ("node", e.node))


def test_rewrite_steps_empty_on_unit_state():
    assert rewrite_steps(ASS, chain_segment(2), ("unit", 0)) == []


@given(st.integers(0, 10**9))
@settings(max_examples=80)
def test_normalization_preserves_evaluation(seed):
    rng = random.Random(seed)
    H = chain_segment(2)
    arity = rng.randint(1, 4)
    tree, labels, lengths, leaves = random_raw_instance(rng, ASS, H, arity, 4)
    node = build_node(tree, labels, lengths, leaves)
    raw_val = so._eval_raw(ASS, node)
    nf = _normalize(ASS, H, tree, labels, lengths, leaves)
    assert nf.arity == arity
    assert w_eval(ASS, nf) == raw_val


def test_all_orders_confluent_smoke():
    rep = confluence_experiment(ASS, chain_segment(2), 250, seed=5, extra_vertices=4)
    assert rep["status"] == "confluent"
    rep = confluence_experiment(COM, diamond(chain_segment(1)), 250, seed=6, extra_vertices=4)
    assert rep["status"] == "confluent"


def test_confluence_past_the_state_cap_fails(monkeypatch):
    # an instance whose state space is not explored whole is a failure,
    # not a sample
    monkeypatch.setattr(so, "STATE_CAP", 1)
    rep = confluence_experiment(ASS, chain_segment(2), 40, seed=5, extra_vertices=4)
    assert set(rep) == {"instances", "failures", "status"}
    assert rep["status"] == "fail"
    assert rep["failures"]
    assert all(f["normal_forms"] is None for f in rep["failures"])


def test_reachable_normal_forms_singleton():
    rng = random.Random(12)
    H = chain_segment(2)
    for _ in range(30):
        tree, labels, lengths, leaves = random_raw_instance(rng, ASS, H, rng.randint(1, 3), 3)
        node = build_node(tree, labels, lengths, leaves)
        normals = reachable_normal_forms(ASS, H, ("node", node))
        assert normals is not None and len(normals) == 1


# -- the weighted construction is an operad ------------------------------------


def test_w_operad_axioms_chain2():
    assert validate_set_operad(WSetOperad(chain_segment(2), ASS), 3) == []


def test_w_operad_axioms_diamond():
    assert validate_set_operad(WSetOperad(diamond(chain_segment(1)), ASS), 3) == []


def test_free_pointed_operad_axioms():
    assert validate_set_operad(FreePointedOperad(ASS), 3) == []


def test_compose_unit_shortcuts():
    H = chain_segment(2)
    x = enumerate_w_elements(ASS, H, 3)[7]
    assert w_compose(ASS, H, W_UNIT, 0, x) == x
    for i in range(3):
        assert w_compose(ASS, H, x, i, W_UNIT) == x


def test_new_edge_gets_absorbing_length():
    H = chain_segment(2)
    m = element_from_data(ASS, corolla(2), [(0, 1)], [], (0, 1))
    z = w_compose(ASS, H, m, 0, m)
    assert z == element_from_data(ASS, two_level_tree(), [(0, 1), (0, 1)], [H.one], (0, 1, 2))


def test_eval_is_operad_map():
    H = chain_segment(2)
    e2 = enumerate_w_elements(ASS, H, 2)
    for x in e2:
        for y in e2:
            for i in range(2):
                lhs = w_eval(ASS, w_compose(ASS, H, x, i, y))
                rhs = ASS.compose(2, i, w_eval(ASS, x), 2, w_eval(ASS, y))
                assert lhs == rhs
    for x in enumerate_w_elements(ASS, H, 3):
        for sigma in perms.all_perms(3):
            assert w_eval(ASS, w_act(ASS, x, sigma)) == ASS.act(3, w_eval(ASS, x), sigma)


@pytest.mark.parametrize("P", [ASS, COM], ids=["ass", "com"])
@pytest.mark.parametrize("H", [chain_segment(2), diamond(chain_segment(1))], ids=["chain2", "diamond"])
def test_eval_is_operad_map_through_an_internal_edge(P, H):
    # grafting into a two-vertex tree plugs the graft in under its
    # internal edge as often as at the root
    W = WSetOperad(H, P)
    xs = [x for x in W.elements(3) if x.vertex_count() == 2]
    assert xs
    for x in xs:
        for y in W.elements(2):
            for i in range(3):
                lhs = w_eval(P, W.compose(3, i, x, 2, y))
                assert lhs == P.compose(3, i, w_eval(P, x), 2, w_eval(P, y))


def test_segment_apply_is_functorial_and_operadic():
    H2, H1 = chain_segment(2), chain_segment(1)
    f = SegmentMap(H2, H1, (0, 1, 1))
    g = codiagonal()
    gf = SegmentMap(H2, chain_segment(0), (0, 0, 0))
    assert segment_map_check(f) == []
    for x in enumerate_w_elements(ASS, H2, 3):
        assert w_segment_apply(ASS, g, w_segment_apply(ASS, f, x)) == w_segment_apply(ASS, gf, x)
    e2 = enumerate_w_elements(ASS, H2, 2)
    for x in e2:
        for y in e2:
            for i in range(2):
                lhs = w_segment_apply(ASS, f, w_compose(ASS, H2, x, i, y))
                rhs = w_compose(ASS, H1, w_segment_apply(ASS, f, x), i, w_segment_apply(ASS, f, y))
                assert lhs == rhs


def test_element_json_shape():
    H = chain_segment(2)
    assert element_to_json(ASS, W_UNIT) == {"tree": "|", "lengths": [], "labels": [], "leaves": [0]}
    W = WSetOperad(H, ASS)
    names = [W.name_of(3, e) for e in W.elements(3)]
    assert len(set(names)) == len(names)
    data = element_to_json(ASS, W.elements(3)[5])
    assert set(data) == {"tree", "lengths", "labels", "leaves"}
    assert sorted(data["leaves"]) == [0, 1, 2]


# -- free pointed operads -------------------------------------------------------


def test_free_on_com_collection():
    assert len(FreePointedOperad(COM).elements(3)) == 4


def test_compare_free_ass():
    rep = compare_free(ASS, 3)
    assert rep["status"] == "iso"
    assert rep["sizes"] == {1: 1, 2: 2, 3: 18}


def test_compare_free_com():
    rep = compare_free(COM, 3)
    assert rep["status"] == "iso"
    assert rep["sizes"] == {1: 1, 2: 1, 3: 4}


class _FatUnaryCollection:
    def elements(self, n):
        return {1: ("e", "u")}.get(n, ())

    @property
    def unit(self):
        return "e"

    def act(self, n, x, sigma):
        return x

    def name_of(self, n, x):
        return x


def test_compare_free_witnesses(monkeypatch):
    W = WSetOperad(chain_segment(1), ASS)
    right = FreePointedOperad.elements
    monkeypatch.setattr(FreePointedOperad, "elements", lambda self, n: tuple(reversed(right(self, n))))
    assert compare_free(ASS, 3)["witness"] == "element lists differ at arity 2"
    monkeypatch.undo()
    # the fold sends every element to the unit
    monkeypatch.setattr(so, "w_segment_apply", lambda P, f, x: W_UNIT)
    expect = f"counit mismatch at arity 2: {element_to_json(ASS, W.elements(2)[0])}"
    assert compare_free(ASS, 3)["witness"] == expect
    monkeypatch.undo()
    monkeypatch.setattr(FreePointedOperad, "compose", lambda self, n, i, x, m, y: W_UNIT)
    rep = compare_free(ASS, 3)
    assert rep["status"] == "fail"
    assert rep["witness"] == "composition mismatch at arities (1,2) slot 0"


def test_unary_chains_need_cap():
    F = FreePointedOperad(_FatUnaryCollection())
    with pytest.raises(InfiniteEnumerationError):
        F.elements(1)
    F3 = FreePointedOperad(_FatUnaryCollection(), vertex_cap=3)
    assert len(F3.elements(1)) == 4  # unit plus u-chains of one, two, three vertices


# -- cotriple tower -------------------------------------------------------------


def test_godement_sizes():
    tower = GodementTower(ASS)
    for k in range(4):
        assert len(tower.elements(k, 1)) == 1
        assert len(tower.elements(k, 2)) == 2
        assert len(tower.elements(k, 3)) == 18 + 12 * k


def test_godement_simplicial_identities():
    assert godement_simplicial_check(GodementTower(ASS), 2, 3) == []


@pytest.mark.parametrize(
    "method, level, index, expect",
    [
        ("degeneracy", 1, 0, ("ss identity fails", "ds identity fails")),
        ("face", 2, 1, ("dd identity fails", "ds identity fails")),
        ("face", 1, 1, ("augmentation coequalizer fails at arity 3", "ds identity fails")),
    ],
)
def test_godement_simplicial_check_catches_a_wrong_map(monkeypatch, method, level, index, expect):
    # one map wrong at one level and index: the identities that read it
    # must fail, so none of them compares an element with itself
    tower = GodementTower(ASS)
    right = getattr(GodementTower, method)
    # a face lowers the level by one, a degeneracy raises it
    other = tower.elements(level + (1 if method == "degeneracy" else -1), 3)

    def wrong(self, k, i, x):
        y = right(self, k, i, x)
        if (k, i) != (level, index) or y.arity != 3:
            return y
        return next(z for z in other if z != y)

    monkeypatch.setattr(GodementTower, method, wrong)
    bad = godement_simplicial_check(tower, 2, 3)
    for kind in expect:
        assert any(msg.startswith(kind) for msg in bad), kind


def test_godement_augmentation_lands_in_base():
    tower = GodementTower(ASS)
    for x in tower.elements(2, 3):
        assert tower.augment(2, x) in ASS.elements(3)


def test_compare_godement_w():
    sizes = {0: 18, 1: 30, 2: 42}
    tower = GodementTower(ASS)
    for k in range(3):
        rep = compare_godement_w(tower, k, 3)
        assert rep["status"] == "iso", rep["witness"]
        assert rep["sizes"][3] == sizes[k]
        assert rep["sizes"][2] == 2


def _wrong_for(cls, method, fault):
    """cls.method with its result replaced by fault(args, right result)
    where fault does not return None."""
    right = getattr(cls, method)

    def wrong(self, *args):
        y = right(self, *args)
        z = fault(args, y)
        return y if z is None else z

    return wrong


@pytest.mark.parametrize(
    "method, fault, witness",
    [
        # every arity-2 element flattens to the unit
        ("flatten", lambda a, y: W_UNIT if a[0] == 1 and a[1].arity == 2 else None,
         "map not one-to-one at arity 2"),
        # one arity-2 element flattens outside the target
        ("flatten", lambda a, y, first=GodementTower(ASS).elements(1, 2)[0]:
         W_UNIT if a[0] == 1 and a[1] == first else None,
         "map not onto at arity 2: 1 target elements unmatched, 1 images unexpected"),
        ("face", lambda a, y: W_UNIT if a[:2] == (1, 0) and a[2].arity == 2 else None,
         "face 0 mismatch at level 1, arity 2"),
        ("degeneracy", lambda a, y: W_UNIT if a[:2] == (1, 1) and a[2].arity == 2 else None,
         "degeneracy 1 mismatch at level 1, arity 2"),
        ("augment", lambda a, y: ASS.unit, "augmentation mismatch at level 1, arity 2"),
    ],
)
def test_compare_godement_w_witnesses(monkeypatch, method, fault, witness):
    monkeypatch.setattr(GodementTower, method, _wrong_for(GodementTower, method, fault))
    rep = compare_godement_w(GodementTower(ASS), 1, 3)
    assert rep["status"] == "fail"
    assert rep["witness"] == witness


def test_compare_godement_w_composition_mismatch(monkeypatch):
    # the tower composes every pair to the unit, which is enumerated
    monkeypatch.setattr(FreePointedOperad, "compose", lambda self, n, i, x, m, y: W_UNIT)
    rep = compare_godement_w(GodementTower(ASS), 1, 3)
    assert rep["witness"] == "composition mismatch at arities (1,2) slot 0"


def test_compare_godement_w_composite_outside(monkeypatch):
    # a composite missing from the table of flattenings fails loudly
    tower = GodementTower(ASS)
    big = tower.elements(1, 4)[0]
    monkeypatch.setattr(tower.level(1), "compose", lambda n1, i, x, n2, y: big)
    rep = compare_godement_w(tower, 1, 3)
    assert rep["status"] == "fail"
    assert rep["witness"] == "composite outside the enumeration at arities (1,1) slot 0"


def test_godement_compare_reads_each_degeneracy_of_its_walk(monkeypatch, capsys):
    top = GodementTower(ASS).elements(1, 3)
    right = GodementTower.degeneracy

    def at_top(run):
        """The calls degeneracy(1, i, x) that run() makes per (i, x) on
        the level-1 elements of arity 3, counted by a class-level wrapper."""
        calls: collections.Counter = collections.Counter()

        def counted(self, k, i, x):
            calls[(k, i, x)] += 1
            return right(self, k, i, x)

        monkeypatch.setattr(GodementTower, "degeneracy", counted)
        run()
        monkeypatch.undo()
        return {(i, x): calls[(1, i, x)] for x in top for i in range(2)}

    alone = at_top(lambda: compare_godement_w(GodementTower(ASS), 1, 3))
    assert set(alone.values()) == {1}
    identities = at_top(lambda: godement_simplicial_check(GodementTower(ASS), 1, 3))
    both = at_top(lambda: main(["godement", "compare-w", "--operad", "ass", "--level", "1", "--arity", "3"]))
    # the comparison squares read the degeneracies that the identities'
    # walk of level 1 works out, instead of computing them once more;
    # the identities themselves reach some again, through level 0's
    # identities and through labels of the top arity, which no memo keeps
    assert both == identities
    assert "verified" in capsys.readouterr().out


@pytest.mark.parametrize(
    "P, k, fault",
    [
        (ASS, 0, None),
        (ASS, 1, None),
        (ASS, 2, None),
        (COM, 2, None),
        # face 0 swaps the two arity-2 elements: the comparison fails at
        # arity 2, and the walk goes on with the identities of every element
        (ASS, 1, lambda a, y, two=GodementTower(ASS).elements(0, 2):
         two[1 - two.index(y)] if a[:2] == (1, 0) and a[2].arity == 2 else None),
    ],
)
def test_check_godement_level_is_both_checks(monkeypatch, P, k, fault):
    if fault:
        monkeypatch.setattr(GodementTower, "face", _wrong_for(GodementTower, "face", fault))
    both = check_godement_level(GodementTower(P), k, 3)
    assert both == (compare_godement_w(GodementTower(P), k, 3), godement_simplicial_check(GodementTower(P), k, 3))
    assert (both[0]["status"] == "iso") == (fault is None)
    assert bool(both[1]) == (fault is not None)


@pytest.mark.parametrize(
    "check",
    [
        lambda tower: compare_godement_w(tower, 1, 3),
        lambda tower: godement_simplicial_check(tower, 2, 3),
        lambda tower: check_godement_level(tower, 1, 3),
    ],
    ids=["compare", "identities", "both"],
)
def test_label_memo_keeps_lower_arities_for_one_check(monkeypatch, check):
    tower = GodementTower(ASS)
    sizes = []
    right = GodementTower.face

    def watched(self, k, i, x):
        if self._memo is not None:
            sizes.append(len(self._memo))
            for (_, _, _, lab), y in self._memo.items():
                assert lab.arity < 3
                assert not isinstance(y, TreeElement) or y.arity < 3
        return right(self, k, i, x)

    monkeypatch.setattr(GodementTower, "face", watched)
    check(tower)
    assert max(sizes) > 0
    assert tower._memo is None


def test_label_memo_keeps_a_wrong_label_map_wrong(monkeypatch):
    # a wrong level-0 degeneracy on the arity-2 labels: the memo keeps the
    # wrong value, and every identity that reads it through a label of an
    # arity-3 tree fails as without the memo
    right = GodementTower.degeneracy
    other = GodementTower(ASS).elements(1, 2)

    def wrong(self, k, i, x):
        y = right(self, k, i, x)
        if k != 0 or x.arity != 2:
            return y
        return next(z for z in other if z != y)

    monkeypatch.setattr(GodementTower, "degeneracy", wrong)
    tower = GodementTower(ASS)
    bad = godement_simplicial_check(tower, 2, 3)
    unmemoized: list = []
    for k in range(3):
        for n, x, dx, sx in so._level_maps(tower, k, 3):
            so._identity_failures(tower, k, n, x, dx, sx, unmemoized)
    assert bad == unmemoized
    assert "ss identity fails at level 1, pair (0,0), arity 3" in bad
    assert "ds identity fails at level 1, pair (0,0), arity 3" in bad
    rep, identities = check_godement_level(tower, 1, 3)
    assert rep["witness"] == "degeneracy 0 mismatch at level 1, arity 2"
    assert identities == [m for m in bad if "level 2" not in m]


# -- diamond comparison ----------------------------------------------------------


def test_diamond_compare_two_point_chain():
    rep = w_diamond_compare(chain_segment(1), ASS, 3, 4)
    assert rep["status"] == "iso", rep["witness"]
    assert rep["sizes"] == {1: 1, 2: 2, 3: 30}


def test_diamond_compare_point_reduces_to_free():
    rep = w_diamond_compare(chain_segment(0), ASS, 3, 4)
    assert rep["status"] == "iso", rep["witness"]
    assert rep["sizes"] == {1: 1, 2: 2, 3: 18}


def _twist_binary_labels(P, u, universe):
    """An automorphism of the free pointed operad on universe: every
    arity-2 label acted on by the transposition."""
    if u.node is None:
        return u
    node = map_labels(u.node, lambda lab, val: w_act(P, lab, (1, 0)) if val == 2 else lab)
    return TreeElement(u.arity, canon_node(so._NoComposeWrapper(universe), node), 0)


def _first_arity_2(P, H):
    return WSetOperad(diamond(H), P, 4).elements(2)[0]


@pytest.mark.parametrize(
    "fault, witness",
    [
        (lambda u, x, W: W_UNIT if x.arity == 2 else None, "map not one-to-one at arity 2"),
        (lambda u, x, W, first=_first_arity_2(ASS, chain_segment(1)): W_UNIT if x == first else None,
         "map not onto at arity 2: 1 target elements unmatched, 1 images unexpected"),
        # a bijection that respects grafting but is not the inverse of evaluation
        (lambda u, x, W: _twist_binary_labels(ASS, u, W),
         f"round trip fails at arity 2: {element_to_json(ASS, _first_arity_2(ASS, chain_segment(1)))}"),
    ],
    ids=["not-one-to-one", "not-onto", "round-trip"],
)
def test_diamond_compare_unflattening_witnesses(monkeypatch, fault, witness):
    right = so.unflatten_diamond

    def wrong(P, H, x, universe):
        u = right(P, H, x, universe)
        z = fault(u, x, universe)
        return u if z is None else z

    monkeypatch.setattr(so, "unflatten_diamond", wrong)
    rep = w_diamond_compare(chain_segment(1), ASS, 3, 4)
    assert rep["status"] == "fail"
    assert rep["witness"] == witness


def test_diamond_compare_composition_witnesses(monkeypatch):
    # a composite outside the capped enumeration, then a wrong grafting
    # on the free side
    monkeypatch.setattr(WSetOperad, "compose", lambda self, n, i, x, m, y: WSetOperad(self.H, ASS, 4).elements(4)[0])
    rep = w_diamond_compare(chain_segment(1), ASS, 3, 4)
    assert rep["witness"] == "composite outside the enumeration at arities (1,1) slot 0"
    monkeypatch.undo()
    monkeypatch.setattr(FreePointedOperad, "compose", lambda self, n, i, x, m, y: W_UNIT)
    rep = w_diamond_compare(chain_segment(1), ASS, 3, 4)
    assert rep["witness"] == "composition mismatch at arities (1,2) slot 0"


def test_diamond_compare_collapse_witness(monkeypatch):
    monkeypatch.setattr(so, "w_segment_apply", lambda P, f, x: W_UNIT)
    rep = w_diamond_compare(chain_segment(1), ASS, 3, 4)
    x = _first_arity_2(ASS, chain_segment(1))
    assert rep["witness"] == f"collapse square fails at arity 2: {element_to_json(ASS, x)}"


def test_diamond_collapse_is_surjective():
    H = chain_segment(1)
    D = diamond(H)
    f = diamond_collapse(H)
    WD = WSetOperad(D, ASS, 4)
    WH = WSetOperad(H, ASS, 4)
    image = {w_segment_apply(ASS, f, x) for x in WD.elements(2)}
    assert image == set(WH.elements(2))
