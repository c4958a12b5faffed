import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from opres import chain_operads, perms
from opres.chain_core import (
    QQ,
    ZZ,
    ChainComplex,
    ChainMap,
    KeyedDegree,
    Ring,
    SparseMat,
    certified_elimination,
    change_ring,
    homology,
    verify_chain_map,
)
from opres.chain_operads import (
    ChainInterval,
    LinearizedOperad,
    TableChainOperad,
    basis_to_json,
    builtin_chain_operad,
    chain_interval,
    check_composition_maps,
    delta_embedding,
    enumerate_w_basis,
    free_counit,
    free_operad_complex,
    load_chain_operad,
    signed_canon,
    validate_chain_operad,
    verify_w_construction,
    w_act_basis,
    w_augmentation,
    w_basis_labels,
    w_boundary,
    w_compose_basis,
    w_operad_composition,
    w_pseudo,
    w_reduced,
)
from opres.set_operads import AssOperad, InfiniteEnumerationError
from opres.tagged import TreeElement, block_elements, block_walk, build_node, node_lengths, node_tree
from opres.trees import build_tree

ROOT = Path(__file__).resolve().parent.parent
AS_NS = builtin_chain_operad("as_ns")
ASS = builtin_chain_operad("ass_sym")
COM = builtin_chain_operad("com")


def dims(C):
    return {k: C.dim(k) for k in sorted(C.degrees())}


def truncation_inclusion(P, arity, small_cap, big_cap):
    """The inclusion of the smaller edge-cap cylinder into the larger."""
    small, big = w_pseudo(P, arity, small_cap), w_pseudo(P, arity, big_cap)
    mats = {
        k: SparseMat(big.dim(k), small.dim(k), [{big.index(k, x): 1} for x in small.basis_of(k)])
        for k in small.degrees()
    }
    return ChainMap(small, big, 0, mats)


def table_of(E):
    """The JSON table of a TableChainOperad, as load_chain_operad reads it."""
    return {
        "name": E.name,
        "symmetric": E.symmetric,
        "arities": {str(n): [list(b) for b in row] for n, row in E.by_arity.items()},
        "d": E.d_table,
        "compose": {f"{x} o{i + 1} {y}": row for (x, i, y), row in E.compose_table.items()},
        "actions": {
            f"{x} * {','.join(str(s + 1) for s in sigma)}": row
            for (x, sigma), row in E.action_table.items()
        },
    }


def unary_ns():
    """One unary generator composing idempotently under a binary one.

    The pseudo part is nonzero in arity 1, so cylinder enumeration
    must refuse to run without an edge cap."""
    basis = {1: (("u", 0),), 2: (("m", 0),)}
    comp = {
        ("u", 0, "u"): {"u": 1},
        ("m", 0, "u"): {"m": 1},
        ("m", 1, "u"): {"m": 1},
        ("u", 0, "m"): {"m": 1},
    }
    return TableChainOperad(False, basis, {}, comp, name="unary")


def endv(max_arity, symmetric):
    """Multilinear maps on the two-term acyclic complex e1 -> e0.

    Basis name "b_1...b_n;c" records input degrees and the output degree;
    the element degree is c - sum(b).  This is the graded stress case:
    labels of every parity, signs in d, compose, and the action."""
    basis = {}
    for n in range(1, max_arity + 1):
        row = []
        for b in itertools.product((0, 1), repeat=n):
            for c in (0, 1):
                row.append(("".join(map(str, b)) + ";" + str(c), c - sum(b)))
        basis[n] = row

    def parse(nm):
        bs, c = nm.split(";")
        return tuple(int(t) for t in bs), int(c)

    d_table = {}
    for n, row in basis.items():
        for nm, deg in row:
            b, c = parse(nm)
            out = {}
            if c == 1:
                key = "".join(map(str, b)) + ";0"
                out[key] = out.get(key, 0) + 1
            sgn_phi = -1 if deg % 2 else 1
            for i in range(n):
                if b[i] == 0:
                    b2 = b[:i] + (1,) + b[i + 1 :]
                    pre = -1 if sum(b[:i]) % 2 else 1
                    key = "".join(map(str, b2)) + ";" + str(c)
                    out[key] = out.get(key, 0) - sgn_phi * pre
            d_table[nm] = {k: v for k, v in out.items() if v}
    compose_table = {}
    for n in range(1, max_arity + 1):
        for m in range(1, max_arity + 1):
            if n + m - 1 > max_arity:
                continue
            for nx, dx in basis[n]:
                b, c = parse(nx)
                for ny, dy in basis[m]:
                    b2, c2 = parse(ny)
                    for i in range(n):
                        if b[i] != c2:
                            compose_table[(nx, i, ny)] = {}
                            continue
                        sgn = -1 if (dy % 2) and (sum(b[:i]) % 2) else 1
                        z = "".join(map(str, b[:i] + b2 + b[i + 1 :]))
                        compose_table[(nx, i, ny)] = {z + ";" + str(c): sgn}
    action_table = {}
    if symmetric:
        for n in range(1, max_arity + 1):
            for nm, deg in basis[n]:
                b, c = parse(nm)
                for sigma in perms.all_perms(n):
                    if sigma == perms.identity(n):
                        continue
                    tau = perms.invert(sigma)
                    bnew = tuple(b[tau[k]] for k in range(n))
                    cross = sum(
                        1
                        for p in range(n)
                        for q in range(p + 1, n)
                        if tau[p] > tau[q] and bnew[p] and bnew[q]
                    )
                    z = "".join(map(str, bnew)) + ";" + str(c)
                    action_table[(nm, sigma)] = {z: -1 if cross % 2 else 1}
    return TableChainOperad(symmetric, basis, d_table, compose_table, action_table, name="endv")


# ------------------------------------------------------------------ builtins


def test_builtins_validate():
    assert validate_chain_operad(AS_NS, 5) == []
    assert validate_chain_operad(COM, 5) == []
    assert validate_chain_operad(ASS, 4) == []


def test_builtin_unknown_name():
    with pytest.raises(ValueError):
        builtin_chain_operad("nope")


def test_builtin_degrees_are_zero():
    for P in (AS_NS, ASS, COM):
        for n in range(2, 5):
            assert all(deg == 0 for _, deg in P.basis(n))
    assert AS_NS.basis(1) == () and AS_NS.basis(0) == ()


def test_builtins_linearize_the_set_operads():
    # the reduced views drop the unit, the only set-level element of arity 1
    assert ASS.basis(1) == () and COM.basis(1) == ()
    assert ASS.names(3) == ("123", "132", "213", "231", "312", "321")
    assert COM.names(4) == ("c4",)
    assert ASS.compose(2, 0, "12", 2, "21") == {"213": 1}
    assert ASS.signed_act(3, "123", (2, 0, 1)) == ("312", 1)
    assert COM.compose(2, 1, "c2", 3, "c3") == {"c4": 1}
    assert ASS.unit is None and COM.unit is None
    kept = LinearizedOperad(AssOperad(), keep_unit=True)
    assert kept.unit == "1" and kept.basis(1) == (("1", 0),)
    assert validate_chain_operad(kept, 4) == []


# --------------------------------------------------------- cylinder ranks


def test_w_pseudo_as_ns_ranks():
    assert dims(w_pseudo(AS_NS, 2)) == {0: 1}
    assert dims(w_pseudo(AS_NS, 3)) == {0: 3, 1: 2}
    assert dims(w_pseudo(AS_NS, 4)) == {0: 11, 1: 15, 2: 5}
    assert dims(w_pseudo(AS_NS, 5)) == {0: 45, 1: 93, 2: 63, 3: 14}


def test_w_pseudo_ass_sym_ranks():
    assert dims(w_pseudo(ASS, 2)) == {0: 2}
    assert dims(w_pseudo(ASS, 3)) == {0: 18, 1: 12}
    assert dims(w_pseudo(ASS, 4)) == {0: 264, 1: 360, 2: 120}


def test_w_pseudo_ass_sym_arity5_builds():
    # the construction itself checks d^2 = 0 eagerly
    C = w_pseudo(ASS, 5)
    assert dims(C) == {0: 5400, 1: 11160, 2: 7560, 3: 1680}


def test_w_pseudo_com_ranks():
    assert dims(w_pseudo(COM, 3)) == {0: 4, 1: 3}
    assert dims(w_pseudo(COM, 4)) == {0: 26, 1: 40, 2: 15}
    assert dims(w_pseudo(COM, 5)) == {0: 236, 1: 550, 2: 420, 3: 105}


def test_w_reduced_low_arities():
    assert dims(w_reduced(AS_NS, 0)) == {0: 1}
    assert dims(w_reduced(AS_NS, 1)) == {0: 1}
    C = w_reduced(AS_NS, 3)
    assert dims(C) == dims(w_pseudo(AS_NS, 3))


def test_cylinder_homology_as_ns():
    for n in range(2, 6):
        rep = homology(w_reduced(AS_NS, n))
        assert rep.nonzero_degrees() == [0]
        assert rep.free_rank(0) == 1
        assert rep.torsion(0) == ()


def test_cylinder_homology_ass_sym():
    import math

    for n in range(2, 5):
        rep = homology(w_reduced(ASS, n))
        assert rep.free_rank(0) == math.factorial(n)
        assert rep.torsion(0) == ()
        assert rep.nonzero_degrees() == [0]


@pytest.mark.parametrize("name, n, rank0", [("ass_sym", 5, 120), ("com", 6, 1)])
def test_cylinder_homology_reach(name, n, rank0):
    # one arity past what dense Smith normal form could take; every
    # differential is certified by its elimination record
    rep = homology(w_reduced(builtin_chain_operad(name), n))
    assert rep.nonzero_degrees() == [0]
    assert rep.free_rank(0) == rank0
    assert rep.torsion(0) == ()


def _uncleared_homology(C):
    """The homology table of C assembled from each differential's own
    invariant factors, every column kept."""
    factors = {k: certified_elimination(m, C.ring).invariant_factors() for k, m in C.d.items()}
    out = {}
    for k in C.degrees():
        incoming = factors.get(k + 1, ())
        rank = C.dim(k) - len(factors.get(k, ())) - len(incoming)
        out[k] = (rank, tuple(f for f in incoming if f != 1))
    return out


@pytest.mark.parametrize("name, top", [("as_ns", 6), ("ass_sym", 4), ("com", 5)])
def test_clearing_matches_uncleared_elimination(name, top):
    P = builtin_chain_operad(name)
    for n in range(top + 1):
        C = w_reduced(P, n)
        for ring in (ZZ, Ring("Fp", 2)):
            D = change_ring(C, ring)
            assert homology(D).by_degree == _uncleared_homology(D)


@pytest.mark.parametrize("P, arity, cap", [
    (endv(3, False), 2, 2), (endv(3, True), 2, 2), (unary_ns(), 1, 10),
], ids=["endv-planar", "endv-sym", "unary"])
def test_clearing_matches_uncleared_elimination_on_tables(P, arity, cap):
    C = w_reduced(P, arity, cap)
    for ring in (ZZ, Ring("Fp", 2)):
        D = change_ring(C, ring)
        assert homology(D).by_degree == _uncleared_homology(D)


def test_meta_records_construction():
    C = w_pseudo(AS_NS, 3)
    assert C.meta["arity"] == 3
    assert C.meta["edge_cap"] is None
    assert C.meta["construction"] == "w_pseudo"


# ----------------------------------------------------------- edge capping


def test_unary_part_requires_cap():
    U = unary_ns()
    assert validate_chain_operad(U, 2) == []
    with pytest.raises(InfiniteEnumerationError):
        enumerate_w_basis(U, 2, None)


def test_unary_part_capped_ranks():
    U = unary_ns()
    expect = [{0: 1}, {0: 4, 1: 3}, {0: 10, 1: 15, 2: 6}, {0: 20, 1: 45, 2: 36, 3: 10}]
    for cap, want in enumerate(expect):
        assert dims(w_pseudo(U, 2, cap)) == want


def test_truncation_inclusion():
    U = unary_ns()
    f = truncation_inclusion(U, 2, 1, 3)
    assert verify_chain_map(f) == []
    small, big = f.source, f.target
    # the capped complex is spanned by a subset of the bigger basis and
    # its differential is the restriction of the bigger one
    for k in sorted(small.degrees()):
        for lab in small.basis_of(k):
            assert lab in big.basis_of(k)
    for k in sorted(small.degrees()):
        if small.dim(k) == 0 or small.dim(k - 1) == 0:
            continue
        dk = small.diff(k)
        Dk = big.diff(k)
        for j, lab in enumerate(small.basis_of(k)):
            col = dk.column(j)
            bigcol = Dk.column(big.index(k, lab))
            translated = {big.index(k - 1, small.basis_of(k - 1)[r]): v for r, v in col.items()}
            assert translated == {r: v for r, v in bigcol.items() if v}


def test_cap_none_vs_big_cap_agree():
    # for operads with empty unary part a huge cap changes nothing
    assert dims(w_pseudo(AS_NS, 4, 8)) == dims(w_pseudo(AS_NS, 4))


# ------------------------------------------------- structure verification


def test_verify_w_construction_builtins():
    assert verify_w_construction(AS_NS, 2) == []
    assert verify_w_construction(AS_NS, 3) == []
    assert verify_w_construction(AS_NS, 4) == []
    assert verify_w_construction(ASS, 3) == []
    assert verify_w_construction(COM, 4) == []


def test_check_composition_maps_builtins():
    assert check_composition_maps(AS_NS, 2, 2) == []
    assert check_composition_maps(ASS, 2, 2) == []
    assert check_composition_maps(ASS, 2, 3) == []


def test_augmentation_counit_factorisation():
    # gamma restricted along delta is the free-operad counit
    F = free_operad_complex(AS_NS, 4)
    W = w_pseudo(AS_NS, 4)
    gamma = w_augmentation(AS_NS, W)
    delta = delta_embedding(AS_NS, W)
    eps = free_counit(AS_NS, F)
    assert verify_chain_map(gamma) == []
    assert verify_chain_map(delta) == []
    for k in sorted(F.degrees()):
        lhs = gamma.mat(k).mul(delta.mat(k), ZZ)
        assert lhs.equals(eps.mat(k), ZZ)


# ------------------------------------------------------- graded stress case


def test_endv_validates():
    assert validate_chain_operad(endv(3, False), 3) == []
    assert validate_chain_operad(endv(3, True), 3) == []


# ------------------------------------------------------- validator failures
#
# Each table breaks one axiom.  Some are built past the table loader,
# which rejects their shapes before the validator could see them.


class _WithArityZero(TableChainOperad):
    def basis(self, n):
        return (("z", 0),) if n == 0 else super().basis(n)


class _NameInTwoArities(chain_operads.PseudoChainOperad):
    symmetric = False

    def basis(self, n):
        return (("x", 0),) if n in (1, 2) else ()

    def compose(self, n, i, x, m, y):
        return {"x": 1}


class _IdentityNegates(TableChainOperad):
    def act(self, n, x, sigma):
        return {x: -1} if tuple(sigma) == perms.identity(n) else super().act(n, x, sigma)


def _with_unit(P, unit):
    P.unit = unit
    return P


def _binary_and_ternary_signs(c2, c3):
    """c2 o_i c2 = c3, with c2 acted on by the character c2 of S_2 and
    c3 by the sign of S_3 when c3 is -1, trivially otherwise."""
    acts = {("c2", (1, 0)): {"c2": c2}}
    acts.update({("c3", s): {"c3": perms.sign(s) if c3 < 0 else 1} for s in perms.all_perms(3)[1:]})
    return TableChainOperad(True, {2: [("c2", 0)], 3: [("c3", 0)]}, {}, {("c2", i, "c2"): {"c3": 1} for i in (0, 1)}, acts)


VALIDATOR_FAILURES = {
    "arity-0": (_WithArityZero(False, {2: [("m", 0)]}), 2, ["arity 0 must vanish for a pseudo chain operad"]),
    "unit-degree": (
        _with_unit(TableChainOperad(False, {1: [("e", 1)]}), "e"),
        2,
        ["unit 'e' is not a degree-0 cycle of arity 1"],
    ),
    "right-unit": (
        _with_unit(
            TableChainOperad(
                False,
                {1: [("e", 0)], 2: [("m", 0)]},
                {},
                {("e", 0, "e"): {"e": 1}, ("e", 0, "m"): {"m": 1}, ("m", 0, "e"): {"m": 1}, ("m", 1, "e"): {}},
            ),
            "e",
        ),
        2,
        ["right unit law fails on m at slot 2"],
    ),
    "name-reused": (_NameInTwoArities(), 2, ["basis name 'x' reused across arities"]),
    "d-target": (TableChainOperad(False, {2: [("a", 0), ("b", 1)]}, {"b": {"z": 1}}), 2, ["d(b) has a bad target 'z'"]),
    "d-squared": (
        TableChainOperad(False, {2: [("a", 0), ("b", 1), ("c", 2)]}, {"b": {"a": 1}, "c": {"b": 1}}),
        2,
        ["d^2 fails on c"],
    ),
    "composite-degree": (
        TableChainOperad(
            False, {2: [("m", 0)], 3: [("p", 0), ("q", 1)]}, {}, {("m", 0, "m"): {"q": 1}, ("m", 1, "m"): {"p": 1}}
        ),
        3,
        ["m o1 m hits 'q' off degree"],
    ),
    # d n = m, and every composite with n is 0, so d is no derivation
    "composite-chain-map": (
        TableChainOperad(
            False,
            {2: [("m", 0), ("n", 1)], 3: [("p", 0)]},
            {"n": {"m": 1}},
            {("m", 0, "m"): {"p": 1}, ("m", 1, "m"): {"p": 1}}
            | {(x, i, y): {} for x, y in (("m", "n"), ("n", "m"), ("n", "n")) for i in (0, 1)},
        ),
        3,
        [f"composition {x} o{i} {y} is not a chain map" for x, y in (("m", "n"), ("n", "m")) for i in (1, 2)],
    ),
    # a_n o_i a_m = (-1)^(i(m-1)) a_(n+m-1): the suspension's signs on
    # labels of degree 0 keep nested associativity and break disjoint
    "disjoint-associativity": (
        TableChainOperad(
            False,
            {n: [(f"a{n}", 0)] for n in (2, 3, 4)},
            {},
            {
                (f"a{n}", i, f"a{m}"): {f"a{n + m - 1}": (-1) ** (i * (m - 1))}
                for n in (2, 3) for m in (2, 3) if n + m <= 5 for i in range(n)
            },
        ),
        4,
        ["disjoint associativity fails at (a2,a2,a2) slots (0,1)"],
    ),
    "identity-action": (
        _IdentityNegates(True, {2: [("c", 0)]}, {}, {}, {("c", (1, 0)): {"c": 1}}),
        2,
        ["identity action fails on c"]
        + [f"action composition fails on c under {s} then {t}" for s in ((0, 1), (1, 0)) for t in ((0, 1), (1, 0))],
    ),
    "action-chain-map": (
        TableChainOperad(True, {2: [("c", 0), ("e", 1)]}, {"e": {"c": 1}}, {}, {("c", (1, 0)): {"c": 1}, ("e", (1, 0)): {"e": -1}}),
        2,
        ["action of (1, 0) on e is not a chain map"],
    ),
    "action-composition": (
        TableChainOperad(True, {2: [("12", 0), ("21", 0)]}, {}, {}, {("12", (1, 0)): {"21": 1}, ("21", (1, 0)): {"21": 1}}),
        2,
        ["action composition fails on 12 under (1, 0) then (1, 0)"],
    ),
    # S_2 and S_3 both by their sign: the block swap in S_3 is even
    "outer-equivariance": (
        _binary_and_ternary_signs(-1, -1),
        3,
        [f"outer equivariance fails on (c2,c2) at slot {j} under (1, 0)" for j in (1, 2)],
    ),
    # S_3 by its sign alone: a transposition inside a block is odd
    "inner-equivariance": (
        _binary_and_ternary_signs(1, -1),
        3,
        [f"inner equivariance fails on (c2,c2) at slot {i} under (1, 0)" for i in (1, 2)],
    ),
}


@pytest.mark.parametrize("case", sorted(VALIDATOR_FAILURES))
def test_validator_names_the_broken_axiom(case):
    P, bound, msgs = VALIDATOR_FAILURES[case]
    got = validate_chain_operad(P, bound)
    assert got == msgs
    # each message says where its axiom broke, so none repeats
    assert len(set(got)) == len(got)


def test_validator_accepts_the_trivial_actions():
    # the control for the two equivariance cases
    assert validate_chain_operad(_binary_and_ternary_signs(1, 1), 3) == []


def test_endv_cylinders_build():
    # every sign path at once: graded labels, marked edges, actions
    E = endv(3, False)
    Es = endv(3, True)
    for P in (E, Es):
        w_pseudo(P, 2, 2)
        w_pseudo(P, 3, 1)
        assert verify_w_construction(P, 2, 2) == []
        assert check_composition_maps(P, 2, 1, 1) == []


# --------------------------------------------------------------- interval


def test_interval_cells():
    I = chain_interval()
    assert I.basis == (("g0", 0), ("g1", 0), ("g", 1))
    assert I.d("g") == {"g1": 1, "g0": -1}
    assert I.d("g0") == {} and I.d("g1") == {}


def test_interval_product():
    I = chain_interval()
    cells = [nm for nm, _ in I.basis]
    for x in cells:
        assert I.vee("g0", x) == {x: 1}
        assert I.vee(x, "g0") == {x: 1}
    assert I.vee("g1", "g1") == {"g1": 1}
    assert I.vee("g", "g") == {}
    assert I.vee("g", "g1") == {}
    assert I.vee("g1", "g") == {}


def test_interval_counit_and_homology():
    I = chain_interval()
    assert I.counit("g0") == 1 and I.counit("g1") == 1 and I.counit("g") == 0
    # counit kills boundaries
    assert sum(c * I.counit(y) for y, c in I.d("g").items()) == 0
    rep = homology(I.complex())
    assert rep.nonzero_degrees() == [0]
    assert rep.free_rank(0) == 1 and rep.torsion(0) == ()


# ----------------------------------------------- basis-level operations


def test_signed_canon_fixes_enumerated_basis():
    for P in (AS_NS, ASS):
        for x in enumerate_w_basis(P, 3):
            assert signed_canon(P, x.node) == (1, x.node)


def test_act_basis_composition_law():
    xs = enumerate_w_basis(ASS, 3)
    for x in xs[:12]:
        for s in perms.all_perms(3):
            for t in perms.all_perms(3):
                c1, y = w_act_basis(ASS, x, s)
                c2, z = w_act_basis(ASS, y, t)
                c3, w = w_act_basis(ASS, x, perms.perm_then(s, t))
                assert (c1 * c2, z) == (c3, w)


def test_act_basis_identity():
    x = enumerate_w_basis(ASS, 3)[0]
    assert w_act_basis(ASS, x, perms.identity(3)) == (1, x)


def test_act_basis_rejects_ns():
    x = enumerate_w_basis(AS_NS, 3)[0]
    with pytest.raises(ValueError):
        w_act_basis(AS_NS, x, (1, 0, 2))


def test_compose_basis_units():
    unit = TreeElement(1, None, 0)
    x = enumerate_w_basis(AS_NS, 3)[0]
    assert w_compose_basis(AS_NS, unit, 0, x) == (1, x)
    for i in range(3):
        assert w_compose_basis(AS_NS, x, i, unit) == (1, x)


def test_compose_basis_grafts():
    x = enumerate_w_basis(AS_NS, 2)[0]
    sign, z = w_compose_basis(AS_NS, x, 0, x)
    assert sign in (1, -1)
    assert z.arity == 3
    assert z.degree == 0
    # the graft adds one unmarked internal edge
    assert basis_to_json(z)["gamma_edges"] == []
    assert node_tree(z.node).edge_count == 1


def test_operad_composition_maps_are_chain_maps():
    # the table read through the assembled complexes: each composite is a
    # target basis element and sign * d(x o_i y) = dx o_i y + (-1)^|x| x o_i dy
    table = w_operad_composition(AS_NS, 3, 2)
    A, B, T = w_pseudo(AS_NS, 3), w_pseudo(AS_NS, 2), w_pseudo(AS_NS, 4)
    assert len(table) == A.total_dim() * 3 * B.total_dim()
    assert {i for _, i, _ in table} == {0, 1, 2}

    def d(C, x):
        col = C.diff(x.degree).column(C.index(x.degree, x))
        return {C.basis_of(x.degree - 1)[r]: v for r, v in col.items()}

    for (x, i, y), (c, z) in table.items():
        assert z in T.basis_of(x.degree + y.degree)
        rhs = {}
        for x2, a in d(A, x).items():
            c2, z2 = table[(x2, i, y)]
            rhs[z2] = rhs.get(z2, 0) + a * c2
        for y2, b in d(B, y).items():
            c2, z2 = table[(x, i, y2)]
            rhs[z2] = rhs.get(z2, 0) + (-1) ** x.degree * b * c2
        assert {w: c * v for w, v in d(T, z).items()} == {w: v for w, v in rhs.items() if v}


def _pair(i, x, y):
    return f"slot {i + 1}, pair {basis_to_json(x)} o {basis_to_json(y)}: "


def test_composition_check_catches_dropped_sign(monkeypatch):
    honest = chain_operads.w_compose_basis

    def dropped(P, x, i, y):
        c, z = honest(P, x, i, y)
        return (1 if x.degree % 2 and y.degree % 2 else c), z

    table = w_operad_composition(AS_NS, 4, 3)
    assert any(c == -1 and x.degree % 2 and y.degree % 2 for (x, _, y), (c, _) in table.items())
    monkeypatch.setattr(chain_operads, "w_compose_basis", dropped)
    msgs = check_composition_maps(AS_NS, 4, 3)
    assert msgs
    named = {_pair(i, x, y) + "grafting is not a chain map" for x, i, y in table}
    assert set(msgs) <= named


def test_composition_check_catches_composite_outside_basis(monkeypatch):
    honest = chain_operads.w_compose_basis
    xs = enumerate_w_basis(COM, 3)
    x0, y0 = xs[-1], xs[1]

    def misgraded(P, x, i, y):
        c, z = honest(P, x, i, y)
        if (x, i, y) == (x0, 2, y0):
            z = TreeElement(z.arity, z.node, z.degree + 1)
        return c, z

    monkeypatch.setattr(chain_operads, "w_compose_basis", misgraded)
    msgs = check_composition_maps(COM, 3, 3)
    _, z = misgraded(COM, x0, 2, y0)
    assert _pair(2, x0, y0) + f"composite {basis_to_json(z)} is outside the basis" in msgs
    assert all(m.startswith("slot ") and ", pair {" in m for m in msgs)


def test_boundary_lands_in_basis_span():
    W3 = set(enumerate_w_basis(ASS, 3))
    for x in W3:
        for y, c in w_boundary(ASS, x).items():
            assert y in W3
            assert c != 0


@pytest.mark.parametrize(
    "which, n, cap, shared",
    [
        ("ass_sym", 4, None, True),
        ("com", 5, None, False),
        ("as_ns", 6, None, False),
        ("endv_sym", 2, 1, True),
        ("endv_ns", 2, 1, True),
        ("endv_sym", 2, 2, True),
        ("endv_ns", 2, 2, True),
        ("endv_sym", 3, 1, True),
        ("endv_ns", 3, 1, True),
        ("endv_sym", 3, 2, True),
        ("endv_ns", 3, 2, True),
        ("endv_ns", 1, 3, True),
        ("unary", 2, 0, False),
        ("unary", 2, 1, False),
        ("unary", 2, 2, False),
        ("unary/w_reduced", 1, 2, False),
        ("endv_sym/free", 2, 2, False),
        ("ass_sym/free", 4, None, False),
    ],
)
def test_templated_boundaries_match_w_boundary(monkeypatch, which, n, cap, shared):
    # the assembler differentiates each cube once, from contraction templates
    # shared across markings and, when labelings share parities, across
    # labelings; every column it emits must equal the per-element reference
    name, _, build = which.partition("/")
    P = {
        "ass_sym": ASS,
        "com": COM,
        "as_ns": AS_NS,
        "endv_sym": endv(3, True),
        "endv_ns": endv(3, False),
        "unary": unary_ns(),
    }[name]
    built = []

    def counted(*args):
        out = real(*args)
        built.extend(out)
        return out

    real = chain_operads._contraction_templates
    monkeypatch.setattr(chain_operads, "_contraction_templates", counted)
    C = {"": w_pseudo, "w_reduced": w_reduced, "free": free_operad_complex}[build](P, n, cap)
    monkeypatch.undo()
    faces = 0
    contracted = set()
    for k in C.degrees():
        below = C.basis_of(k - 1)
        for j, x in enumerate(C.basis_of(k)):
            assert {below[i]: c for i, c in C.diff(k).column(j).items()} == w_boundary(P, x)
            if x.node is not None:
                text, flags, labels, leaves = chain_operads.node_view(x.node)
                marked = [e for e, f in enumerate(flags) if f]
                faces += len(marked)
                contracted.update((text, tuple(labels), tuple(leaves), e) for e in marked)
    # one template per contracted edge of a tree, routing and parity
    # pattern: fewer than the (labeling, routing, edge) triples exactly when
    # some labelings share their parities, and fewer than the contraction
    # faces whenever a face can share its template, across labelings or
    # across markings; only trees of at most one edge with one label per
    # valence (the unary table with caps 0 and 1, the free span) cannot
    assert len(built) <= len(contracted) <= faces
    assert (len(built) < len(contracted)) == shared
    assert (len(built) < faces) == (shared or len(contracted) < faces)


def test_cube_signs_once_per_skeleton_parities_and_marking(monkeypatch):
    # the sign table of a build is keyed by vertex skeleton: every as_ns
    # block has one labeling, so its cube signs are shared only across
    # blocks, by trees whose leaves and routings differ
    calls = []

    def counted(skel, pars, M, words):
        calls.append((skel, pars, M))
        return real(skel, pars, M, words)

    real = chain_operads._cube
    monkeypatch.setattr(chain_operads, "_cube", counted)
    C = w_reduced(AS_NS, 6)
    monkeypatch.undo()
    cells = set()
    blocks = set()
    for k in C.degrees():
        for x in C.basis_of(k):
            if x.node is not None:
                text, flags, labels, _ = chain_operads.node_view(x.node)
                tree = x.tree()
                pars = tuple(AS_NS.degree_of(v, nm) & 1 for v, nm in zip(tree.valences(), labels))
                cells.add((tuple(chain_operads._parents(tree)), pars, chain_operads._mask_int(flags)))
                blocks.add(text)
    assert len(calls) == len(set(calls))
    assert set(calls) == cells
    assert len({skel for skel, _, _ in cells}) < len(blocks)


def _misgraded(target):
    """A planar table where m o1 m is the target name: a name of the wrong
    degree, or one outside the basis.  Built in Python, it skips the JSON
    reader's checks."""
    basis = {2: (("m", 0),), 3: (("p", 0), ("q", 1))}
    compose = {("m", 0, "m"): {target: 1}, ("m", 1, "m"): {"p": 1}}
    return TableChainOperad(False, basis, {}, compose, name="misgraded")


@pytest.mark.parametrize("target", ["q", "r"])
def test_boundary_leaving_the_basis_names_both_elements(target):
    x = TreeElement(3, build_node(build_tree("((| |) |)"), ["m", "m"], [1], [0, 1, 2]), 1)
    y = TreeElement(3, build_node(build_tree("(| | |)"), [target], [], [0, 1, 2]), 0)
    with pytest.raises(RuntimeError) as err:
        w_pseudo(_misgraded(target), 3)
    assert str(err.value) == f"boundary of {basis_to_json(x)} left the basis at {basis_to_json(y)}"


@pytest.mark.parametrize("symmetric, path", [(False, "endv3_ns.json"), (True, "endv3_sym.json")])
def test_committed_endv_tables(symmetric, path):
    # scripts/report_digests.py pins the reports of these graded tables
    data = json.loads((ROOT / "scripts" / "data" / path).read_text())
    assert data == json.loads(json.dumps(table_of(endv(3, symmetric))))


def test_committed_unary_table():
    # scripts/report_digests.py pins the report of this table at edge cap 10
    data = json.loads((ROOT / "scripts" / "data" / "unary_ns.json").read_text())
    assert data == json.loads(json.dumps(table_of(unary_ns())))


# ---------------------------------------------------------- serialization


def _escaping_table():
    """A planar table whose names hold a quote, a backslash and a
    non-ASCII letter, which the JSON encoder escapes."""
    basis = {2: (('m"', 0),), 3: (("p\\é", 0),)}
    compose = {('m"', 0, 'm"'): {"p\\é": 1}, ('m"', 1, 'm"'): {"p\\é": 1}}
    return TableChainOperad(False, basis, {}, compose, name="escaping")


@pytest.mark.parametrize(
    "name, arity, cap",
    [
        ("as_ns", 6, None),
        ("ass_sym", 4, None),
        ("com", 5, None),
        ("endv_ns", 3, 1),
        ("endv_sym", 3, 1),
        ("unary", 1, 10),
        ("as_ns", 0, None),
        ("as_ns", 1, None),
        ("escaping", 3, None),
    ],
)
def test_w_basis_labels_encode_basis_to_json(name, arity, cap):
    P = {
        "as_ns": lambda: AS_NS,
        "ass_sym": lambda: ASS,
        "com": lambda: COM,
        "endv_ns": lambda: endv(3, False),
        "endv_sym": lambda: endv(3, True),
        "unary": unary_ns,
        "escaping": _escaping_table,
    }[name]()
    enc = json.JSONEncoder(sort_keys=True)
    C = w_reduced(P, arity, cap)
    labels = w_basis_labels(C)
    assert sorted(labels) == C.degrees()
    for k in C.degrees():
        assert labels[k] == [enc.encode(basis_to_json(x)) for x in C.basis_of(k)]
    if name == "unary":
        assert max(len(x.labels()) for x in C.basis_of(C.degrees()[-1])) == 11
    if name == "escaping":
        assert r'"0": "m\"", "1": "m\""' in labels[1][0]
        assert r'"0": "p\\\u00e9"' in labels[0][-1]


def _committed_table(name):
    return load_chain_operad(json.loads((ROOT / "scripts" / "data" / name).read_text()))


@pytest.mark.parametrize(
    "name, arities, cap",
    [
        ("as_ns", range(7), None),
        ("ass_sym", range(5), None),
        ("com", range(6), None),
        ("endv3_ns.json", (0, 1, 2, 3), 1),
        ("endv3_sym.json", (0, 1, 2, 3), 1),
        ("endv3_ns.json", (2,), 2),
        ("endv3_sym.json", (2,), 2),
        ("unary_ns.json", (0, 1, 2), 3),
    ],
)
def test_keyed_basis_decodes_to_the_enumeration(name, arities, cap):
    # each degree of a built complex is integer keys until read; read, it
    # is the enumeration, element for element and in order: with the unit
    # first for w_reduced in arities 0 and 1, and the unmarked elements
    # alone for the free complex
    P = _committed_table(name) if name.endswith(".json") else builtin_chain_operad(name)
    for n in arities:
        full = enumerate_w_basis(P, n, cap)
        unit = (TreeElement(n, None, 0),) if n <= 1 else ()
        cases = [
            (w_reduced, unit + full),
            (w_pseudo, full),
            (free_operad_complex, tuple(x for x in full if not any(node_lengths(x.node)))),
        ]
        for build, elems in cases:
            C = build(P, n, cap)
            want: dict = {}
            for x in elems:
                want.setdefault(x.degree, []).append(x)
            assert all(isinstance(C.basis[k], KeyedDegree) and C.basis[k].source._decoded is None for k in C.basis)
            assert {k: C.dim(k) for k in C.degrees()} == {k: len(v) for k, v in want.items()}
            for k, xs in want.items():
                got = tuple(C.basis_of(k))
                assert got == tuple(xs)
                assert len(set(got)) == len(got)
                assert all(C.index(k, x) == j for j, x in enumerate(got))


def test_keyed_degree_with_equal_keys_fails_the_duplicate_check():
    # the check reads the keys: nothing is decoded (these blocks are empty)
    cells = chain_operads._Cells(2, False, [])
    index, basis = chain_operads._keyed_basis(cells, {0: [5, 5], 1: [6]})
    assert (basis[0].cells, basis[0].distinct, index[0]) == (2, 1, {5: 1})
    with pytest.raises(ValueError, match="duplicate labels in degree 0"):
        ChainComplex(ZZ, basis, {}, check=False)
    _, basis = chain_operads._keyed_basis(cells, {0: [5, 7], 1: [6]})
    C = ChainComplex(ZZ, basis, {}, check=False)
    assert C.dim(0) == 2 and cells._decoded is None


def _walk_cells(arity, blocks):
    """The (block, degree, element) of every element of blocks, in the
    order of block_walk, routings innermost."""
    walk = [(b, d) for b, _, _, d in block_walk(blocks) for _ in blocks[b][1]]
    return [(b, d, x) for (b, d), x in zip(walk, block_elements(arity, blocks))]


def _element_key(fams, x):
    """The integer key the keyed assembler gives the basis element x."""
    text, flags, labels, lvs = chain_operads.node_view(x.node)
    b = fams.block_of[text]
    return fams.fid(b, text, tuple(labels), tuple(lvs)) << fams.width | chain_operads._mask_int(flags)


def test_keyed_complex_turns_keys_into_positions():
    # a hand-made filler over the blocks of the planar cylinder in arity 4,
    # whose degrees are 0, 1 and 2: the assembler alone reads keys as
    # positions, skips zero coefficients and reports the first miss of the
    # lowest degree
    blocks = chain_operads._w_blocks(AS_NS, 4, None)
    cells = _walk_cells(4, blocks)
    fams = chain_operads._Families(blocks)
    key = {x: _element_key(fams, x) for _, _, x in cells}
    by_deg: dict = {}
    for _, d, x in cells:
        by_deg.setdefault(d, []).append(x)

    def run(column):
        seen = []

        def fill(fams, b):
            for b2, d, x in cells:
                if b2 == b:
                    yield d, key[x], column(d, x)

        def left(x, y):
            seen.append((x, y))
            return "left the basis"

        try:
            return chain_operads._keyed_complex(4, blocks, False, fill, left), seen
        except RuntimeError as err:
            assert str(err) == "left the basis"
            return None, seen

    # each column lands at its key's position, and a zero coefficient on a
    # key outside the basis below (here a key of the same degree) is dropped
    def landing(d, x):
        if d != 1:
            return {key[by_deg[d][0]]: 0}
        j = by_deg[1].index(x)
        return {key[by_deg[0][j % 3]]: j + 1, key[by_deg[0][-1]]: -1, key[by_deg[1][0]]: 0}

    C, seen = run(landing)
    assert C is not None and seen == []
    for d, xs in by_deg.items():
        assert tuple(C.basis_of(d)) == tuple(xs)
    for j, x in enumerate(by_deg[1]):
        rows = {by_deg[0][j % 3]: j + 1, by_deg[0][-1]: -1}
        assert C.diff(1).column(j) == {by_deg[0].index(y): c for y, c in rows.items()}
    assert all(C.diff(d).column(j) == {} for d in (0, 2) for j in range(C.dim(d)))

    # misses in degrees 2 and 1, where the first degree 2 miss is filled
    # before any degree 1 miss: the first miss of degree 1 raises, at the
    # first nonzero key of its column outside the basis below
    first2 = next(i for i, (_, d, _) in enumerate(cells) if d == 2)
    late1 = [x for _, d, x in cells[first2:] if d == 1]
    assert len(late1) >= 2

    def missing(d, x):
        if d == 2 or (d == 1 and x in late1):
            return {key[by_deg[d - 1][0]]: 1, key[by_deg[d][0]]: 0, key[by_deg[d][-1]]: 2, key[by_deg[d][1]]: 3}
        return {}

    C, seen = run(missing)
    assert C is None
    assert seen == [(TreeElement(4, late1[0].node, 1), TreeElement(4, by_deg[1][-1].node, 0))]


@pytest.mark.parametrize("which", ["as_ns/5", "ass_sym/4", "endv3_sym.json/3/2", "cobar/ass_sym/4"])
def test_fillers_yield_each_key_of_their_block_in_walk_order(monkeypatch, which):
    # every column filler is a generator fill(fams, b) that yields
    # (degree, key, column) for each element of block b once, in the order
    # of block_walk, and knows no position
    from opres import bar_cobar

    recorded = []

    def spy(arity, blocks, unit, fill, left):
        def recording(fams, b):
            for d, key, col in fill(fams, b):
                recorded.append((b, d, key))
                yield d, key, col

        out = real(arity, blocks, unit, recording, left)
        fams = chain_operads._Families(blocks)
        assert recorded == [(b, d, _element_key(fams, x)) for b, d, x in _walk_cells(arity, blocks)]
        return out

    real = chain_operads._keyed_complex
    monkeypatch.setattr(chain_operads, "_keyed_complex", spy)
    monkeypatch.setattr(bar_cobar, "_keyed_complex", spy)
    parts = which.split("/")
    if parts[0] == "cobar":
        n = int(parts[2])
        C = bar_cobar.cobar(bar_cobar.bar(builtin_chain_operad(parts[1]), n), n)
    elif parts[0].endswith(".json"):
        C = w_pseudo(_committed_table(parts[0]), int(parts[1]), int(parts[2]))
    else:
        C = w_pseudo(builtin_chain_operad(parts[0]), int(parts[1]))
    assert len({key for _, _, key in recorded}) == len(recorded) == sum(C.dim(k) for k in C.degrees())


@pytest.mark.parametrize("ring", [QQ, Ring("Fp", 2), Ring("Fp", 3)])
def test_change_ring_keeps_the_keyed_basis(ring):
    C = w_reduced(ASS, 4)
    image = change_ring(C, ring)
    assert all(image.basis[k] is C.basis[k] for k in C.basis)
    assert image.degrees() == C.degrees() and image.basis[0].source._decoded is None


def test_basis_to_json_shapes():
    unit = TreeElement(1, None, 0)
    assert basis_to_json(unit) == {
        "tree": "|",
        "gamma_edges": [],
        "labels": {},
        "leaf_coset": [0],
    }
    x = max(enumerate_w_basis(ASS, 3), key=lambda e: e.degree)
    data = basis_to_json(x)
    assert set(data) == {"tree", "gamma_edges", "labels", "leaf_coset"}
    assert sorted(data["leaf_coset"]) == [0, 1, 2]
    assert len(data["gamma_edges"]) == x.degree  # the labels have degree 0
    assert all(isinstance(k, str) for k in data["labels"])


def test_operad_json_round_trip():
    E = endv(2, True)
    data = table_of(E)
    F = load_chain_operad(data)
    assert validate_chain_operad(F, 2) == []
    assert F.symmetric
    for n in (1, 2):
        assert tuple(F.basis(n)) == tuple(E.basis(n))
        for nm, _ in E.basis(n):
            assert F.d(n, nm) == E.d(n, nm)
    for (x, i, y), terms in E.compose_table.items():
        n = E.arity_of[x]
        m = E.arity_of[y]
        assert F.compose(n, i, x, m, y) == terms
    for (x, sigma), terms in E.action_table.items():
        assert F.act(E.arity_of[x], x, sigma) == terms


def test_reduced_wrapper():
    C = w_reduced(AS_NS, 3)
    assert dims(C) == {0: 3, 1: 2}


def test_table_operad_missing_entries():
    U = unary_ns()
    with pytest.raises(ValueError, match="missing from table"):
        U.compose(2, 0, "m", 2, "m")


# ------------------------------------------------------------ properties


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_random_presentation_canonizes_back(seed):
    import random

    rng = random.Random(seed)
    xs = enumerate_w_basis(ASS, 4)
    x = rng.choice(xs)
    sigma = tuple(rng.sample(range(4), 4))
    c1, y = w_act_basis(ASS, x, sigma)
    c2, z = w_act_basis(ASS, y, perms.invert(sigma))
    assert (c1 * c2, z) == (1, x)


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_random_boundary_squares_to_zero(seed):
    import random

    rng = random.Random(seed)
    E = endv(3, rng.random() < 0.5)
    xs = enumerate_w_basis(E, rng.choice((2, 3)), 2)
    x = rng.choice(xs)
    acc = {}
    for y, c in w_boundary(E, x).items():
        for z, c2 in w_boundary(E, y).items():
            acc[z] = acc.get(z, 0) + c * c2
    assert all(v == 0 for v in acc.values())
