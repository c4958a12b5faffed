"""Bar and cobar expansions, twisting cochains, and the cylinder comparison."""

import dataclasses
import gc
import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opres import bar_cobar, perms
from opres.bar_cobar import (
    TwistingCochain,
    bar,
    bar_counit,
    check_twisting,
    cobar,
    cobar_bar_counit,
    compare_w_barcobar,
    _cobar_key,
    _join,
    _root,
    _w_key,
    _w_to_cobar,
)
from opres.chain_core import QQ, KeyedDegree, Ring, change_ring, homology, verify_chain_map
from opres.chain_operads import (
    TableChainOperad,
    builtin_chain_operad,
    enumerate_w_basis,
    w_augmentation,
    w_pseudo,
    w_reduced,
)
from opres.set_operads import InfiniteEnumerationError
from opres.tagged import build_node, labeled_trees, node_leaves, node_tree, node_view, shapes
from test_chain_operads import _committed_table, endv, unary_ns

AS_NS = builtin_chain_operad("as_ns")
ASS = builtin_chain_operad("ass_sym")
COM = builtin_chain_operad("com")


def dims(C):
    return {k: C.dim(k) for k in sorted(C.degrees()) if C.dim(k)}


# -- bar ----------------------------------------------------------------------


def test_bar_dims_as_ns():
    B = bar(AS_NS, 4)
    assert dims(B.piece(2)) == {1: 1}
    assert dims(B.piece(3)) == {1: 1, 2: 2}
    assert dims(B.piece(4)) == {1: 1, 2: 5, 3: 5}


def test_bar_dims_ass_sym():
    B = bar(ASS, 4)
    assert dims(B.piece(2)) == {1: 2}
    assert dims(B.piece(3)) == {1: 6, 2: 12}
    assert dims(B.piece(4)) == {1: 24, 2: 120, 3: 120}


def test_bar_dims_com():
    B = bar(COM, 4)
    assert dims(B.piece(2)) == {1: 1}
    assert dims(B.piece(3)) == {1: 1, 2: 3}
    assert dims(B.piece(4)) == {1: 1, 2: 10, 3: 15}


def test_bar_as_ns_homology_top_degree():
    rep = homology(bar(AS_NS, 3).piece(3))
    assert rep.nonzero_degrees() == [2]
    assert rep.free_rank(2) == 1
    assert rep.torsion(2) == ()


def test_bar_corollas_match_operad_basis():
    B = bar(ASS, 3)
    corollas = [x for x in B.elements(3) if x.tree().edge_count == 0]
    assert sorted(x.labels()[0] for x in corollas) == sorted(
        nm for nm, _ in ASS.basis(3)
    )
    # a corolla sits one degree above its label
    assert {x.degree for x in corollas} == {1}


def test_bar_unary_needs_cap():
    with pytest.raises(InfiniteEnumerationError):
        bar(unary_ns(), 2).elements(2)


def test_bar_d_squared_elementwise():
    B = bar(ASS, 3)
    for x in B.elements(3):
        acc = {}
        for y, c in B.d(3, x).items():
            for z, c2 in B.d(3, y).items():
                acc[z] = acc.get(z, 0) + c * c2
        assert all(v == 0 for v in acc.values())


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(3)), st.permutations(range(3)), st.integers(0, 17))
def test_bar_act_composition_law(s, t, pick):
    B = bar(ASS, 3)
    basis = B.elements(3)
    x = basis[pick % len(basis)]
    y, c1 = B.signed_act(3, x, tuple(s))
    z, c2 = B.signed_act(3, y, tuple(t))
    w, c3 = B.signed_act(3, x, perms.perm_then(tuple(s), tuple(t)))
    assert (c1 * c2, z) == (c3, w)


def test_bar_splits_count_edges():
    B = bar(ASS, 3)
    for x in B.elements(3):
        assert len(B.splits(x)) == x.tree().edge_count


def test_bar_meta():
    C = bar(AS_NS, 3).piece(3)
    assert C.meta["construction"] == "bar"
    assert C.meta["arity"] == 3
    assert C.meta["operad"] == "as_ns"


# -- twisting cochains --------------------------------------------------------


def test_counit_twisting_corpus():
    for P in (AS_NS, ASS, COM):
        assert check_twisting(bar_counit(bar(P, 4))) == []


def test_counit_twisting_unary_capped():
    assert check_twisting(bar_counit(bar(unary_ns(), 2, 3))) == []


def test_counit_twisting_graded():
    for sym in (False, True):
        assert check_twisting(bar_counit(bar(endv(3, sym), 3, 2))) == []


def test_twisting_check_finds_each_family_once(monkeypatch):
    # the differential and the splits of an element read one family lookup
    seen = []

    def counted(self, x):
        seen.append(x)
        return real(self, x)

    real = bar_cobar.CooperadComplex._family
    monkeypatch.setattr(bar_cobar.CooperadComplex, "_family", counted)
    assert check_twisting(bar_counit(bar(ASS, 4))) == []
    monkeypatch.undo()
    assert seen and len(seen) == len(set(seen))


def test_zero_cochain_is_twisting():
    # both sides of the equation vanish identically
    assert check_twisting(TwistingCochain(bar(AS_NS, 3), {})) == []


def test_scaled_counit_fails_naming_arity():
    C = bar(AS_NS, 3)
    tau = bar_counit(C)
    vals = dict(tau.values)
    c3 = next(x for x in vals if x.arity == 3)
    vals[c3] = {nm: 2 * c for nm, c in vals[c3].items()}
    bad = check_twisting(TwistingCochain(C, vals))
    assert bad and all("arity 3" in msg for msg in bad)


def test_wrong_degree_value_reported():
    C = bar(AS_NS, 3)
    vals = dict(bar_counit(C).values)
    x = next(x for x in C.elements(3) if x.tree().edge_count > 0)
    vals[x] = {"a3": 1}
    assert any("not one degree down" in msg for msg in check_twisting(TwistingCochain(C, vals)))


def _check_twisting_unpruned(tau):
    """check_twisting before it skipped the elements tau cannot reach:
    the identity evaluated on every bar element."""
    C = tau.cooperad
    P = C.operad
    bad = []
    for k in range(1, C.max_arity + 1):
        deg_of = {nm: d for nm, d in P.basis(k)}
        for x in C.elements(k):
            for nm in tau.value(x):
                if deg_of.get(nm) != x.degree - 1:
                    bad.append(
                        f"arity {k} degree {x.degree}: value {nm} is not one degree down"
                    )
        for x in C.elements(k):
            lhs = {}
            for nm, c in tau.value(x).items():
                for z, c2 in P.d(k, nm).items():
                    lhs[z] = lhs.get(z, 0) + c * c2
            for y, c in C.d(k, x).items():
                for z, c2 in tau.value(y).items():
                    lhs[z] = lhs.get(z, 0) + c * c2
            rhs = {}
            for sgn, up, i, low, lam2 in C.splits(x):
                tk = -1 if up.degree & 1 else 1
                for p, cp in tau.value(up).items():
                    for q, cq in tau.value(low).items():
                        for z, c3 in P.compose(up.arity, i, p, low.arity, q).items():
                            for w, c4 in P.act(k, z, lam2).items():
                                rhs[w] = rhs.get(w, 0) + sgn * tk * cp * cq * c3 * c4
            lhs = {z: c for z, c in lhs.items() if c}
            rhs = {z: c for z, c in rhs.items() if c}
            if lhs != rhs:
                bad.append(
                    f"arity {k} degree {x.degree}: boundary and cup square differ"
                )
    return bad


def _cochains(C):
    """The counit, the zero cochain, the counit scaled by 2, and the
    counit plus a value on one two-vertex element of arity 3."""
    counit = bar_counit(C).values
    x = next(x for x in C.elements(3) if len(x.labels()) == 2)
    return {
        "counit": counit,
        "zero": {},
        "scaled": {y: {nm: 2 * c for nm, c in v.items()} for y, v in counit.items()},
        "reach2": {**counit, x: {C.operad.basis(3)[0][0]: 1}},
    }


@pytest.mark.parametrize(
    "P, arity, cap, reach2",
    [
        (AS_NS, 4, None, 4),
        (ASS, 4, None, 19),
        # endv(3)'s table stops at arity 3; the cap keeps its unary
        # vertices finite and still leaves three-vertex trees to skip
        (endv(3, False), 3, 3, 18),
        (endv(3, True), 3, 3, 20),
    ],
    ids=["as_ns", "ass_sym", "endv-planar", "endv-sym"],
)
def test_pruned_twisting_check_matches_unpruned(P, arity, cap, reach2):
    C = bar(P, arity, cap)
    for name, vals in _cochains(C).items():
        tau = TwistingCochain(C, vals)
        got = check_twisting(tau)
        assert got == _check_twisting_unpruned(tau), name
        assert bool(got) == (name in ("scaled", "reach2")), name
        if name == "reach2":
            assert len(got) == reach2
            if arity == 4:
                # a value on two vertices reaches the three-vertex trees
                assert "arity 4 degree 3: boundary and cup square differ" in got


def test_counit_twisting_reach():
    assert check_twisting(bar_counit(bar(COM, 6))) == []
    assert check_twisting(bar_counit(bar(AS_NS, 7))) == []


# -- cobar --------------------------------------------------------------------


def test_cobar_dims_match_cylinder():
    for P in (AS_NS, ASS, COM):
        C = bar(P, 4)
        for n in range(2, 5):
            assert dims(cobar(C, n)) == dims(w_pseudo(P, n))


def test_cobar_dims_unary_cap_correspondence():
    # cylinder edge cap c corresponds to total vertex cap c + 1
    U = unary_ns()
    expect = {
        0: {0: 1},
        1: {0: 4, 1: 3},
        2: {0: 10, 1: 15, 2: 6},
        3: {0: 20, 1: 45, 2: 36, 3: 10},
    }
    for c, want in expect.items():
        X = cobar(bar(U, 2, c + 1), 2, c + 1)
        assert dims(X) == want
        assert dims(w_pseudo(U, 2, c)) == want


def test_cobar_refusals():
    C = bar(AS_NS, 3)
    with pytest.raises(ValueError):
        cobar(C, 5)
    capped = bar(unary_ns(), 2, 3)
    # an uncapped expansion over a capped cooperad, or a cap beyond it
    with pytest.raises(ValueError):
        cobar(capped, 2)
    with pytest.raises(ValueError):
        cobar(capped, 2, 4)


def test_cobar_of_trivial_cooperad_is_empty():
    T = TableChainOperad(False, {}, name="unit_only")
    C = bar(T, 3)
    assert dims(C.piece(2)) == {}
    assert dims(cobar(C, 2)) == {}
    assert dims(cobar(C, 3)) == {}


def test_built_differentials_are_untracked():
    # columns of ints hold no reference cycle, so the cyclic collector
    # never walks them, over Z and after a change to Q or F2
    W = w_reduced(COM, 5)
    X = cobar(bar(ASS, 4), 4)
    for C in (W, change_ring(W, QQ), change_ring(W, Ring("Fp", 2)), X):
        assert C.d
        for k, mat in C.d.items():
            assert len(mat.data) == mat.cols
            assert not any(gc.is_tracked(mat.data[j]) for j in range(mat.cols)), k


def test_cobar_meta():
    X = cobar(bar(AS_NS, 3), 3)
    assert X.meta["construction"] == "cobar"
    assert X.meta["arity"] == 3
    assert X.meta["cap"] is None


def test_cobar_deterministic_rebuild():
    a = cobar(bar(ASS, 3), 3)
    b = cobar(bar(ASS, 3), 3)
    assert {k: tuple(a.basis_of(k)) for k in a.degrees()} == {
        k: tuple(b.basis_of(k)) for k in b.degrees()
    }
    for k in a.degrees():
        assert a.diff(k).equals(b.diff(k), a.ring)


# -- templates ----------------------------------------------------------------


def _bar_family_key(P, node, pars=None):
    """A bar tree's family: tree notation, leaves and label parities."""
    text, _, labels, leaves = node_view(node)
    if pars is None:
        vals = node_tree(node).valences()
        pars = tuple(P.degree_of(v, nm) & 1 for v, nm in zip(vals, labels))
    return text, tuple(leaves), pars


@pytest.mark.parametrize(
    "P,n,cap,shared",
    [
        (ASS, 4, None, True),
        (COM, 5, None, False),
        (AS_NS, 5, None, False),
        # vertex cap 2: the comparator's edge cap 1
        (endv(3, False), 3, 2, True),
        (endv(3, True), 3, 2, True),
        (unary_ns(), 2, 3, False),
    ],
    ids=["ass_sym", "com", "as_ns", "endv-planar", "endv-sym", "unary-cap3"],
)
def test_templated_bar_and_cobar_match_references(monkeypatch, P, n, cap, shared):
    """The bar differential and splittings are instantiated from one
    template per bar family, and the cobar's split terms from one
    template per outer family, vertex and split shape.  Every column and
    every split equals the per-element reference, and each template is
    built once; templates are shared across labelings exactly when some
    labelings of one tree and routing share their parities."""
    bar_built, cobar_built = [], []
    real_family, real_split = bar_cobar._bar_family, bar_cobar._split_template

    def family(P, node, pars):
        bar_built.append(_bar_family_key(P, node, pars))
        return real_family(P, node, pars)

    def split(F, tree, lam, pars, v, shape, where):
        cobar_built.append((tree.notation(), tuple(lam), pars, v, shape))
        return real_split(F, tree, lam, pars, v, shape, where)

    monkeypatch.setattr(bar_cobar, "_bar_family", family)
    monkeypatch.setattr(bar_cobar, "_split_template", split)
    C = bar(P, n, cap)
    families = set()
    elements = 0
    for k in range(1, n + 1):
        B = C.piece(k)
        for d in B.degrees():
            below = B.basis_of(d - 1)
            for j, x in enumerate(B.basis_of(d)):
                got = {below[i]: c for i, c in B.diff(d).column(j).items()}
                assert got == bar_cobar._tree_d(P, x, bar_cobar._contractions), x
                assert C.splits(x) == bar_cobar._splits(P, x), x
                families.add(_bar_family_key(P, x.node))
                elements += 1
    assert sorted(bar_built) == sorted(families)
    assert (len(families) < elements) == shared
    for k in range(1, n + 1):
        cobar_built.clear()
        X = cobar(C, k, cap)
        keys = set()
        terms = 0
        for d in X.degrees():
            below = X.basis_of(d - 1)
            for j, x in enumerate(X.basis_of(d)):
                got = {below[i]: c for i, c in X.diff(d).column(j).items()}
                assert got == bar_cobar._tree_d(C, x, bar_cobar._splittings), x
                labels = x.labels()
                pars = tuple(y.degree & 1 for y in labels)
                for v, y in enumerate(labels):
                    for _, up, slot, _, lam2 in C.splits(y):
                        shape = (up.arity, slot, lam2, up.degree & 1)
                        keys.add((x.tree().notation(), tuple(node_leaves(x.node)), pars, v, shape))
                        terms += 1
        assert sorted(cobar_built) == sorted(keys)
        if shared and k == n:
            assert len(keys) < terms


def test_cobar_rejects_a_boundary_outside_the_basis(monkeypatch):
    # a cooperad whose boundary leaves its own basis: every bar label of
    # as_ns with an edge has a contraction, here moved up five degrees.
    # The first degree-1 element in the fill order is the corolla on the
    # label a2 o2 a2; its contraction, the corolla on a3, is the term named
    C = bar(AS_NS, 3)
    honest = C.d
    monkeypatch.setattr(
        C, "d", lambda k, x: {dataclasses.replace(y, degree=y.degree + 5): c for y, c in honest(k, x).items()}
    )
    with pytest.raises(RuntimeError) as err:
        cobar(C, 3)
    assert str(err.value) == (
        "the cobar differential of <(| (| |)) l[a2,a2] c[0,1,2] : 0 1 2> leaves the basis of degree 0"
        " at <(| | |) l[a3] c[0,1,2] : 0 1 2>"
    )


def test_cobar_rejects_a_split_outside_the_basis(monkeypatch):
    # every bar label of as_ns with an edge splits; here each lower
    # factor is moved up five degrees
    C = bar(AS_NS, 3)
    honest = C.splits
    monkeypatch.setattr(C, "splits", lambda x: [
        (s, up, i, dataclasses.replace(low, degree=low.degree + 5), lam2) for s, up, i, low, lam2 in honest(x)
    ])
    with pytest.raises(RuntimeError, match="^the cobar differential of .* leaves the basis of degree "):
        cobar(C, 3)


@pytest.mark.parametrize(
    "P,n,cap",
    [
        (ASS, 4, None),
        (COM, 4, None),
        (_committed_table("endv3_ns.json"), 3, 2),
        (_committed_table("endv3_sym.json"), 3, 2),
        (_committed_table("unary_ns.json"), 2, 3),
    ],
    ids=["ass_sym", "com", "endv3_ns", "endv3_sym", "unary_ns"],
)
def test_cobar_keyed_basis_decodes_to_the_enumeration(P, n, cap):
    # each degree of a built cobar is integer keys until read; read, it is
    # the enumeration of trees of bar labels, element for element and in
    # order
    C = bar(P, n, cap)
    X = cobar(C, n, cap)
    assert all(isinstance(X.basis[k], KeyedDegree) and X.basis[k].source._decoded is None for k in X.basis)
    want: dict = {}
    for x in labeled_trees(C, n, cap, -1, lambda label: label.vertex_count(), (0,)):
        want.setdefault(x.degree, []).append(x)
    assert {k: X.dim(k) for k in X.degrees()} == {k: len(v) for k, v in want.items()}
    for k, xs in want.items():
        assert tuple(X.basis_of(k)) == tuple(xs)


# -- the counit chain map -----------------------------------------------------


def test_counit_chain_map_and_resolution_corpus():
    for P, tops, rank0 in (
        (AS_NS, 4, lambda n: 1),
        (ASS, 3, math.factorial),
        (COM, 4, lambda n: 1),
    ):
        for n in range(2, tops + 1):
            eta = cobar_bar_counit(P, cobar(bar(P, n), n))
            assert verify_chain_map(eta) == []
            rep = homology(eta.source)
            assert rep.nonzero_degrees() == [0]
            assert rep.free_rank(0) == rank0(n)
            assert rep.torsion(0) == ()


def test_counit_chain_map_graded():
    for sym in (False, True):
        P = endv(3, sym)
        assert verify_chain_map(cobar_bar_counit(P, cobar(bar(P, 3, 2), 3, 2))) == []


def test_counit_chain_map_unary():
    P = unary_ns()
    eta = cobar_bar_counit(P, cobar(bar(P, 2, 3), 2, 3))
    assert verify_chain_map(eta) == []


# -- comparison with the cylinder ----------------------------------------------


def test_compare_corpus_uncapped():
    for P in (AS_NS, ASS, COM):
        for n in range(2, 5):
            rep = compare_w_barcobar(P, n)
            assert rep["status"] == "iso", rep["witness"]


def test_compare_capped():
    for c in (0, 1, 2):
        rep = compare_w_barcobar(ASS, 4, c)
        assert rep["status"] == "iso", rep["witness"]
    for c in (0, 1, 2, 3):
        rep = compare_w_barcobar(unary_ns(), 2, c)
        assert rep["status"] == "iso", rep["witness"]


def test_compare_graded_capped():
    for sym in (False, True):
        rep = compare_w_barcobar(endv(3, sym), 3, 1)
        assert rep["status"] == "iso", rep["witness"]


def test_compare_report_shape():
    rep = compare_w_barcobar(AS_NS, 3)
    W = w_pseudo(AS_NS, 3)
    total = sum(W.dim(k) for k in W.degrees())
    assert len(rep["bijection"]) == total
    assert set(rep["rescaling"].values()) <= {1, -1}
    assert len(rep["rescaling"]) == total
    assert sorted(rep) == ["bijection", "rescaling", "status", "witness"]
    assert rep["status"] == "iso" and rep["witness"] is None
    # stable serialization across a rebuild
    again = compare_w_barcobar(AS_NS, 3)
    assert json.dumps(rep, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_compare_rescaling_unique_and_reported():
    """Exhaustive check at a small scale: exactly one diagonal sign
    vector equates the two differentials and augmentations, and it is
    the one in the report."""
    P = AS_NS
    rep = compare_w_barcobar(P, 3)
    assert rep["status"] == "iso"
    W = w_pseudo(P, 3)
    C = bar(P, 3)
    CB = cobar(C, 3)
    gamma = w_augmentation(P, W)
    counit = cobar_bar_counit(P, CB)
    xs = [(k, x) for k in sorted(W.degrees()) for x in W.basis_of(k)]
    phi = {x: _w_to_cobar(P, C, x) for _, x in xs}

    def satisfies(eps):
        for k in sorted(W.degrees()):
            if W.dim(k) and W.dim(k - 1):
                A, B = W.diff(k), CB.diff(k)
                ys = W.basis_of(k - 1)
                for j, x in enumerate(W.basis_of(k)):
                    colb = dict(B.column(CB.index(k, phi[x])))
                    for r, v in A.column(j).items():
                        y = ys[r]
                        if eps[x] * eps[y] * v != colb.get(CB.index(k - 1, phi[y]), 0):
                            return False
            if W.dim(k):
                gm, cm = gamma.mat(k), counit.mat(k)
                for j, x in enumerate(W.basis_of(k)):
                    colg = dict(gm.column(j))
                    colc = dict(cm.column(CB.index(k, phi[x])))
                    if set(colg) != set(colc):
                        return False
                    if any(v != eps[x] * colc[r] for r, v in colg.items()):
                        return False
        return True

    sols = [
        eps
        for bits in itertools.product((1, -1), repeat=len(xs))
        if satisfies(eps := {x: b for (_, x), b in zip(xs, bits)})
    ]
    assert len(sols) == 1
    assert all(sols[0][x] == rep["rescaling"][_w_key(x)] for _, x in xs)


def test_compare_detects_rank_mismatch(monkeypatch):
    # comparing against a differently built side must fail loudly, not
    # silently: build the cylinder side one edge cap short
    rep = compare_w_barcobar(unary_ns(), 2, 1)
    assert rep["status"] == "iso"
    honest = bar_cobar.w_pseudo
    monkeypatch.setattr(bar_cobar, "w_pseudo", lambda P, n, cap: honest(P, n, cap - 1))
    rep = compare_w_barcobar(unary_ns(), 2, 1)
    assert rep["witness"].startswith("rank mismatch in degree ")
    assert rep == {"bijection": [], "rescaling": {}, "status": "fail", "witness": rep["witness"]}


# arity 2: m; arity 3: p, q; m o1 m = p + q and m o2 m = 0.  An operad up
# to arity 3 whose augmentation has a column with two entries, and whose
# cylinder in arity 3 has a component without an augmentation: the tree
# m o2 m and its marking
SPLIT = TableChainOperad(
    False, {2: (("m", 0),), 3: (("p", 0), ("q", 0))}, {}, {("m", 0, "m"): {"p": 1, "q": 1}, ("m", 1, "m"): {}}
)


def _components(W):
    """Each basis element (degree, index) of W -> a representative of its
    component of the graph of W's differential."""
    root = {}

    def find(a):
        while root.setdefault(a, a) != a:
            a = root[a]
        return a

    for k in W.degrees():
        for j, col in enumerate(W.diff(k).data):
            for r in col:
                root[find((k, j))] = find((k - 1, r))
    return {(k, j): find((k, j)) for k in W.degrees() for j in range(W.dim(k))}


def _votes(P, W):
    """The basis elements (degree, index) of W with a nonzero augmentation."""
    gamma = w_augmentation(P, W)
    return {(k, j) for k in W.degrees() for j, col in enumerate(gamma.mat(k).data) if col}


@pytest.mark.parametrize("P,n", [(AS_NS, 4), (ASS, 3), (SPLIT, 3)], ids=["as_ns", "ass_sym", "split"])
def test_compare_negated_counit_flips_voting_components(monkeypatch, P, n):
    """With the counit negated the two sides still match: the rescaling
    of every component that has an augmentation vote flips, and the
    others keep theirs."""
    before = compare_w_barcobar(P, n)
    honest = bar_cobar.cobar_bar_counit

    def negated(P, CB):
        f = honest(P, CB)
        for m in f.mats.values():
            m.data = [{i: -v for i, v in col.items()} for col in m.data]
        return f

    monkeypatch.setattr(bar_cobar, "cobar_bar_counit", negated)
    after = compare_w_barcobar(P, n)
    assert before["status"] == after["status"] == "iso"
    assert after["bijection"] == before["bijection"]
    W = w_pseudo(P, n)
    component = _components(W)
    votes = {component[a] for a in _votes(P, W)}
    voting = {a: c in votes for a, c in component.items()}
    flips = {
        (k, j): after["rescaling"][_w_key(x)] == -before["rescaling"][_w_key(x)]
        for k in W.degrees() for j, x in enumerate(W.basis_of(k))
    }
    assert flips == voting
    assert any(voting.values()) and (P is not SPLIT or not all(voting.values()))


@pytest.mark.parametrize(
    "P,n,cap",
    [(AS_NS, 4, None), (ASS, 3, None), (SPLIT, 3, None), (endv(3, False), 3, 1), (endv(3, True), 3, 1)],
    ids=["as_ns", "ass_sym", "split", "endv_ns", "endv_sym"],
)
def test_compare_rescaling_is_a_certificate(P, n, cap):
    """Read back from the report alone, the bijection and the rescaling
    carry W's differential and augmentation onto the cobar side's, column
    by column, and each component of W without an augmentation vote reads
    +1 at its first element."""
    rep = compare_w_barcobar(P, n, cap)
    assert rep["status"] == "iso", rep["witness"]
    W = w_pseudo(P, n, cap)
    vcap = None if cap is None else cap + 1
    CB = cobar(bar(P, n, vcap), n, vcap)
    gamma, counit = w_augmentation(P, W), cobar_bar_counit(P, CB)
    image = dict(rep["bijection"])
    pos, eps = {}, {}
    for k in W.degrees():
        there = {_cobar_key(y): i for i, y in enumerate(CB.basis_of(k))}
        pos[k] = [there[image[_w_key(x)]] for x in W.basis_of(k)]
        assert sorted(pos[k]) == list(range(CB.dim(k)))
        eps[k] = [rep["rescaling"][_w_key(x)] for x in W.basis_of(k)]
    for k in W.degrees():
        for j, col in enumerate(W.diff(k).data):
            moved = {pos[k - 1][r]: eps[k][j] * eps[k - 1][r] * v for r, v in col.items()}
            assert moved == CB.diff(k).data[pos[k][j]], _w_key(W.basis_of(k)[j])
        for j, col in enumerate(gamma.mat(k).data):
            assert {r: eps[k][j] * v for r, v in col.items()} == counit.mat(k).data[pos[k][j]]
    component = _components(W)
    votes = {component[a] for a in _votes(P, W)}
    firsts: dict = {}
    for a, c in component.items():
        firsts.setdefault(c, a)
    free = [(k, j) for c, (k, j) in firsts.items() if c not in votes]
    assert all(eps[k][j] == 1 for k, j in free)
    assert free or P is not SPLIT


def test_root_walks_a_long_chain_without_recursion():
    # cell i hangs below cell i - 1 with sign s_i: the chain is 200 000
    # deep, past any recursion limit, and reading its last cell returns
    # the product of the signs and links every cell to the root
    n = 200_000
    up = [max(i - 1, 0) for i in range(n)]
    sign = [1] + [-1 if i % 3 == 0 else 1 for i in range(1, n)]
    want = list(itertools.accumulate(sign, lambda a, b: a * b))
    assert _root(up, sign, n - 1) == (0, want[-1])
    assert set(up) == {0} and sign == want
    assert [_root(up, sign, c) for c in (1, 2, 3, n - 2)] == [(0, 1), (0, 1), (0, -1), (0, want[-2])]


def test_conflicting_join_returns_false_and_changes_nothing():
    up, sign = list(range(4)), [1] * 4
    assert _join(up, sign, 1, 2, -1) and _join(up, sign, 2, 3, -1)
    assert _join(up, sign, 3, 1, 1)
    before = (up[:], sign[:])
    assert not _join(up, sign, 1, 3, -1)
    assert (up, sign) == before
    assert [_root(up, sign, c) for c in range(4)] == [(0, 1), (1, 1), (1, -1), (1, 1)]


def _edited(monkeypatch, name, edit):
    """Let edit change each result of bar_cobar.<name> in place."""
    honest = getattr(bar_cobar, name)

    def edited(*args):
        out = honest(*args)
        edit(out)
        return out

    monkeypatch.setattr(bar_cobar, name, edited)


def _edit_entry(mats, degree, change):
    """Replace the first entry of the first nonempty column of
    mats[degree] by change(entry), or drop it for None; returns the
    column's index."""
    j = next(j for j, col in enumerate(mats[degree].data) if col)
    col = mats[degree].data[j]
    r = next(iter(col))
    v = change(col.pop(r))
    if v is not None:
        col[r] = v
    return j


@pytest.mark.parametrize(
    "change,witness",
    [(lambda v: None, "differential support differs at "), (lambda v: 2 * v, "differential magnitude differs at ")],
    ids=["support", "magnitude"],
)
def test_compare_rejects_perturbed_differential(monkeypatch, change, witness):
    cols = []

    _edited(monkeypatch, "w_pseudo", lambda W: cols.append(W.basis_of(1)[_edit_entry(W.d, 1, change)]))
    rep = compare_w_barcobar(AS_NS, 3)
    assert rep == {"bijection": [], "rescaling": {}, "status": "fail", "witness": witness + _w_key(cols[0])}


def test_compare_rejects_a_sign_flip_on_a_cycle(monkeypatch):
    # every entry of d[2] lies on a square x -> y -> z <- y' <- x, since
    # d^2 = 0 with unit entries; one flipped sign leaves no rescaling
    _edited(monkeypatch, "w_pseudo", lambda W: _edit_entry(W.d, 2, lambda v: -v))
    rep = compare_w_barcobar(AS_NS, 4)
    assert rep["status"] == "fail" and rep["bijection"] == [] and rep["rescaling"] == {}
    assert rep["witness"].startswith("no diagonal rescaling: cycle conflict at ")


@pytest.mark.parametrize(
    "P,change,witness",
    [
        (AS_NS, lambda v: None, "augmentation support differs at "),
        (AS_NS, lambda v: 2 * v, "augmentation magnitude differs at "),
        (SPLIT, lambda v: -v, "augmentation rows conflict at "),
    ],
    ids=["support", "magnitude", "rows"],
)
def test_compare_rejects_perturbed_augmentation(monkeypatch, P, change, witness):
    # SPLIT's first nonempty augmentation column, m o1 m -> p + q, is the
    # one with two entries
    cols = []

    _edited(
        monkeypatch, "w_augmentation", lambda f: cols.append(f.source.basis_of(0)[_edit_entry(f.mats, 0, change)])
    )
    rep = compare_w_barcobar(P, 3)
    assert rep == {"bijection": [], "rescaling": {}, "status": "fail", "witness": witness + _w_key(cols[0])}


def test_compare_rejects_conflicting_augmentation_votes(monkeypatch):
    # as_ns in arity 3 is one component, and every degree-0 element votes
    _edited(monkeypatch, "w_augmentation", lambda f: _edit_entry(f.mats, 0, lambda v: -v))
    rep = compare_w_barcobar(AS_NS, 3)
    assert rep["witness"] == "augmentation constraints conflict inside one component"


def test_compare_rejects_an_image_outside_the_basis(monkeypatch):
    honest = bar_cobar._w_to_cobar
    monkeypatch.setattr(
        bar_cobar,
        "_w_to_cobar",
        lambda P, C, x, *memo: dataclasses.replace(honest(P, C, x, *memo), degree=x.degree + 1),
    )
    rep = compare_w_barcobar(AS_NS, 3)
    first = w_pseudo(AS_NS, 3).basis_of(0)[0]
    assert rep["witness"] == f"image of {_w_key(first)} is not a basis element"


# -- basis order ----------------------------------------------------------------


def _product_order(pool, arity, cap, symmetric, cost, shift):
    """Reference enumeration, (node, degree) pairs: itertools.product over
    the (label, degree) pools of each shape, filtered by total cost."""
    min_val = 1 if pool(1) else 2
    max_edges = cap - 1 if cap is not None else max(arity - 2, 0)
    out = []
    for tree, lams in shapes(arity, max_edges, min_val, symmetric):
        for labels in itertools.product(*(pool(v) for v in tree.valences())):
            if cap is not None and sum(cost(lb) for lb, _ in labels) > cap:
                continue
            names = [lb for lb, _ in labels]
            deg = sum(d + shift for _, d in labels)
            for lam in lams:
                out.append((build_node(tree, names, (0,) * tree.edge_count, lam), deg))
    return out


@pytest.mark.parametrize(
    "P,arities,cap",
    [(AS_NS, (1, 2, 3, 4), None), (ASS, (1, 2, 3, 4), None), (COM, (1, 2, 3, 4), None)]
    + [(unary_ns(), (1, 2), c) for c in (1, 2, 3)],
    ids=["as_ns", "ass_sym", "com", "unary-cap1", "unary-cap2", "unary-cap3"],
)
def test_bar_and_cobar_basis_order(P, arities, cap):
    """The `barcobar build` reports list the bases in this order."""
    B = bar(P, max(arities), cap)

    def bar_pool(v):
        return [(x, x.degree) for x in B.elements(v)]

    for n in arities:
        want = _product_order(P.basis, n, cap, P.symmetric, lambda nm: 1, 1)
        assert [(x.node, x.degree) for x in B.elements(n)] == want
        want = _product_order(bar_pool, n, cap, P.symmetric, lambda x: x.tree().vertex_count, -1)
        CB = cobar(B, n, cap)
        for k in CB.degrees():
            assert [(X.node, X.degree) for X in CB.basis_of(k)] == [w for w in want if w[1] == k]
        assert sum(CB.dim(k) for k in CB.degrees()) == len(want)


def _w_product_order(P, arity, edge_cap):
    """Reference cylinder enumeration, (node, degree) pairs: per shape,
    itertools.product over the label pools, then over the marked-edge
    masks, then the routings; a marked edge adds one to the degree."""
    min_val = 1 if P.basis(1) else 2
    max_edges = edge_cap if edge_cap is not None else max(arity - 2, 0)
    out = []
    for tree, lams in shapes(arity, max_edges, min_val, P.symmetric):
        for labels in itertools.product(*(P.basis(v) for v in tree.valences())):
            names = [lb for lb, _ in labels]
            for mask in itertools.product((0, 1), repeat=tree.edge_count):
                deg = sum(d for _, d in labels) + sum(mask)
                for lam in lams:
                    out.append((build_node(tree, names, mask, lam), deg))
    return out


@pytest.mark.parametrize(
    "P,arities,cap",
    [(AS_NS, range(1, 6), None), (ASS, range(1, 6), None), (COM, range(1, 6), None)]
    + [(unary_ns(), (1, 2, 3), c) for c in (0, 1, 2)],
    ids=["as_ns", "ass_sym", "com", "unary-cap0", "unary-cap1", "unary-cap2"],
)
def test_cylinder_basis_order(P, arities, cap):
    """The `chainw build` reports list the basis in this order."""
    for n in arities:
        got = [(x.node, x.degree) for x in enumerate_w_basis(P, n, cap)]
        assert got == _w_product_order(P, n, cap)


# -- bar elements -------------------------------------------------------------


def test_bar_element_accessors():
    B = bar(AS_NS, 3)
    x = next(x for x in B.elements(3) if x.tree().edge_count == 1)
    assert x.arity == 3
    assert x.degree == 2
    assert x.labels() == ("a2", "a2")
    assert sorted(node_leaves(x.node)) == [0, 1, 2]
    assert isinstance(hash(x), int)


def test_bar_act_identity_fast_path():
    B = bar(AS_NS, 3)
    x = B.elements(3)[0]
    assert B.signed_act(3, x, (0, 1, 2)) == (x, 1)
    with pytest.raises(ValueError):
        B.signed_act(3, x, (1, 0, 2))
