import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from opres import chain_core
from opres.chain_core import (
    ChainComplex,
    ChainMap,
    QQ,
    Ring,
    SparseMat,
    SelfCheckError,
    VerificationError,
    ZZ,
    assemble_complex,
    certified_elimination,
    change_ring,
    complex_from_json,
    complex_to_json,
    compose_chain_maps,
    eliminate,
    evaluation_map,
    homology,
    invariant_factors,
    rank_over_field,
    ring_from_name,
    smith_normal_form,
    verify_chain_map,
    verify_d_squared,
)
from opres.tagged import koszul


def two_term(ring, entry):
    """0 -> R -> R -> 0 with the differential given by one entry."""
    mat = SparseMat(1, 1, [{0: ring.normalize(entry)} if entry else {}])
    return ChainComplex(ring, {0: ("a",), 1: ("b",)}, {1: mat})


def identity_map(C):
    """The identity chain map of C."""
    mats = {}
    for k in C.degrees():
        n = C.dim(k)
        mats[k] = SparseMat(n, n, [{i: 1} for i in range(n)])
    return ChainMap(C, C, 0, mats)


def interval_complex(ring=ZZ):
    # two degree-0 generators, one degree-1 generator, d(g) = g1 - g0
    mat = SparseMat(2, 1, [{0: ring.normalize(-1), 1: ring.normalize(1)}])
    return ChainComplex(ring, {0: ("g0", "g1"), 1: ("g",)}, {1: mat})


# -- rings ---------------------------------------------------------------


def test_ring_tags():
    assert ZZ.name() == "Z"
    assert QQ.name() == "Q"
    assert Ring("Fp", 5).name() == "F5"
    assert ring_from_name("F7") == Ring("Fp", 7)
    with pytest.raises(ValueError):
        Ring("Fp", 6)
    with pytest.raises(ValueError):
        ring_from_name("R")


def test_ring_arithmetic():
    F3 = Ring("Fp", 3)
    assert F3.add(2, 2) == 1
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert ZZ.parse("-7") == -7
    assert ZZ.show(-7) == "-7"


# -- sparse matrices --------------------------------------------------------


def test_sparse_mul():
    A = SparseMat(2, 2, [{0: 1}, {0: 2, 1: 3}])
    B = SparseMat(2, 1, [{0: 5, 1: -1}])
    C = A.mul(B, ZZ)
    assert C.entries() == [(0, 0, 3), (1, 0, -3)]


RINGS = (ZZ, QQ, Ring("Fp", 5))


@st.composite
def dense_matrix(draw, ring, rows, cols):
    """A rows x cols list of rows of small normalized entries, so that
    products cancel often, with one row and one column forced to zero
    when the shape has any."""
    entry = st.integers(-2, 2)
    if ring == QQ:
        entry = st.one_of(entry, st.fractions(-3, 3, max_denominator=4))
    A = [[ring.normalize(draw(entry)) for _ in range(cols)] for _ in range(rows)]
    if rows and cols:
        A[draw(st.integers(0, rows - 1))] = [ring.zero()] * cols
        c = draw(st.integers(0, cols - 1))
        for row in A:
            row[c] = ring.zero()
    return A


def dense_entries(A):
    return [(i, j, v) for i, row in enumerate(A) for j, v in enumerate(row) if v]


@given(st.sampled_from(RINGS), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_against_dense(ring, m, k, n, data):
    A = data.draw(dense_matrix(ring, m, k))
    B = data.draw(dense_matrix(ring, k, n))
    A2 = data.draw(st.one_of(st.just(A), dense_matrix(ring, m, k)))
    S, T, S2 = sparse(A, k), sparse(B, n), sparse(A2, k)
    assert S.entries() == dense_entries(A)
    assert S.is_zero() == (not dense_entries(A))
    # ranges, not zip(*B), so that a 0-row B keeps its n columns
    prod = [
        [ring.normalize(sum(A[i][t] * B[t][j] for t in range(k))) for j in range(n)]
        for i in range(m)
    ]
    assert S.mul(T, ring).entries() == dense_entries(prod)
    assert S.equals(S2, ring) == (A == A2)
    assert S.mul(T, ring).is_zero() == (not dense_entries(prod))


def test_sparse_shape_checks():
    A = SparseMat(2, 2)
    with pytest.raises(ValueError):
        A.mul(SparseMat(3, 1), ZZ)
    with pytest.raises(IndexError):
        A.add_entry(ZZ, 5, 0, 1)


def test_sparse_column_storage():
    M = SparseMat(2, 3, [{0: 1}, {1: -1}, {}])
    assert M.rows == 2 and M.cols == 3
    assert M.entries() == [(0, 0, 1), (1, 1, -1)]
    assert M.column(1) == {1: -1} and M.column(2) == {}
    assert SparseMat(2, 3).data == [{}, {}, {}]
    with pytest.raises(ValueError):
        SparseMat(2, 3, [{0: 1}])


# -- complexes ---------------------------------------------------------------


def test_d_squared_checked_eagerly():
    # d1 = id, d2 = id gives d1 d2 = id != 0
    d1 = SparseMat(1, 1, [{0: 1}])
    d2 = SparseMat(1, 1, [{0: 1}])
    with pytest.raises(VerificationError, match=r"^d\^2 != 0: \(d\[1\] d\[2\]\)\[0,0\] = 1$"):
        ChainComplex(ZZ, {0: ("a",), 1: ("b",), 2: ("c",)}, {1: d1, 2: d2})


def test_d_squared_deferred():
    d1 = SparseMat(1, 1, [{0: 1}])
    d2 = SparseMat(1, 1, [{0: 1}])
    C = ChainComplex(ZZ, {0: ("a",), 1: ("b",), 2: ("c",)}, {1: d1, 2: d2}, check=False)
    assert verify_d_squared(C)


def test_complex_shape_validation():
    with pytest.raises(ValueError):
        ChainComplex(ZZ, {0: ("a",), 1: ("b",)}, {1: SparseMat(2, 1)})


def test_homology_multiplication_by_two():
    C = two_term(ZZ, 2)
    H = homology(C)
    assert H.free_rank(0) == 0
    assert H.torsion(0) == (2,)
    assert H.free_rank(1) == 0
    assert H.torsion(1) == ()


def test_homology_interval():
    H = homology(interval_complex())
    assert H.free_rank(0) == 1
    assert H.torsion(0) == ()
    assert H.free_rank(1) == 0
    assert H.nonzero_degrees() == [0]


def test_homology_zero_complex():
    C = ChainComplex(ZZ, {}, {})
    assert homology(C).by_degree == {}


def test_homology_identity_differential_contractible():
    C = two_term(ZZ, 1)
    H = homology(C)
    assert H.nonzero_degrees() == []


def test_homology_over_fields():
    C = two_term(Ring("Fp", 2), 2)  # the entry 2 vanishes mod 2
    H = homology(C)
    assert H.free_rank(0) == 1
    assert H.free_rank(1) == 1
    CQ = two_term(QQ, 2)
    HQ = homology(CQ)
    assert HQ.nonzero_degrees() == []


# invariant-factor chains of the prescribed torsion
TORSION = [(), (2,), (3,), (6,), (2, 2), (2, 6), (3, 6), (6, 6)]


def _unimodular(rng, n):
    """A random unimodular n x n integer matrix P and its inverse Q, as
    dense rows, from row additions and row swaps."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Q = [row[:] for row in P]
    for _ in range(3 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        if rng.random() < 0.3:
            P[a], P[b] = P[b], P[a]
            for row in Q:
                row[a], row[b] = row[b], row[a]
        else:
            f = rng.choice((-2, -1, 1, 2))
            P[a] = [x + f * y for x, y in zip(P[a], P[b])]
            for row in Q:
                row[b] -= f * row[a]
    return P, Q


def _dense_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


@given(st.integers(3, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_homology_of_conjugated_normal_forms(top, data):
    # C_k = F_k + S_k + T_k: F_k free homology of rank free[k], S_k mapped
    # by d[k] onto multiples of T_{k-1} by its units and torsion chain, so
    # H_k = Z^free[k] + the torsion of d[k+1]; then every degree changes
    # basis by a random unimodular matrix
    free = [data.draw(st.integers(0, 2)) for _ in range(top + 1)]
    factors = {}
    for k in range(1, top + 1):
        chain = data.draw(st.sampled_from(TORSION))
        factors[k] = [1] * data.draw(st.integers(0 if chain else 1, 2)) + list(chain)
    rng = data.draw(st.randoms(use_true_random=False))
    src = [len(factors.get(k, ())) for k in range(top + 1)]
    tgt = [len(factors.get(k + 1, ())) for k in range(top + 1)]
    dims = [free[k] + src[k] + tgt[k] for k in range(top + 1)]
    change = [_unimodular(rng, n) for n in dims]
    d = {}
    for k in range(1, top + 1):
        D = [[0] * dims[k] for _ in range(dims[k - 1])]
        for t, f in enumerate(factors[k]):
            D[free[k - 1] + src[k - 1] + t][free[k] + t] = f
        d[k] = sparse(_dense_mul(_dense_mul(change[k - 1][1], D), change[k][0]))
        assert not d[k].is_zero()
    basis = {k: tuple(f"e{k}_{i}" for i in range(n)) for k, n in enumerate(dims)}
    C = ChainComplex(ZZ, basis, d)
    degrees = [k for k in range(top + 1) if dims[k]]
    torsion = {k: tuple(f for f in factors.get(k + 1, ()) if f != 1) for k in degrees}
    assert homology(C).by_degree == {k: (free[k], torsion[k]) for k in degrees}
    assert homology(change_ring(C, QQ)).by_degree == {k: (free[k], ()) for k in degrees}
    for p in (2, 3):
        betti = {
            k: free[k] + sum(f % p == 0 for f in factors.get(k, []) + factors.get(k + 1, []))
            for k in degrees
        }
        H = homology(change_ring(C, Ring("Fp", p)))
        assert H.by_degree == {k: (betti[k], ()) for k in degrees}


def test_homology_rejects_bad_complex():
    d1 = SparseMat(1, 1, [{0: 1}])
    d2 = SparseMat(1, 1, [{0: 1}])
    C = ChainComplex(ZZ, {0: ("a",), 1: ("b",), 2: ("c",)}, {1: d1, 2: d2}, check=False)
    with pytest.raises(ValueError):
        homology(C)
    # a ring map keeps the record that d^2 was never verified
    with pytest.raises(ValueError):
        homology(change_ring(C, QQ))


def test_homology_checks_d_squared_once(monkeypatch):
    calls = []
    real = chain_core.verify_d_squared

    def counted(C):
        calls.append(C)
        return real(C)

    monkeypatch.setattr(chain_core, "verify_d_squared", counted)
    C = interval_complex()
    assert C.d_squared_verified and len(calls) == 1
    homology(C)
    homology(change_ring(C, Ring("Fp", 2)))
    assert len(calls) == 1
    # never verified: homology runs the check itself, also on the image
    U = ChainComplex(ZZ, C.basis, C.d, check=False)
    assert not U.d_squared_verified
    assert homology(U).free_rank(0) == 1
    assert calls[-1] is U
    V = change_ring(U, QQ)
    assert homology(V).free_rank(0) == 1
    assert calls[-1] is V and len(calls) == 3


# -- chain maps ----------------------------------------------------------------


def test_identity_chain_map_verifies():
    C = interval_complex()
    assert verify_chain_map(identity_map(C)) == []


def test_chain_map_corrupted_entry():
    C = interval_complex()
    f = identity_map(C)
    f.mats[1] = SparseMat(1, 1, [{0: 2}])
    report = verify_chain_map(f)
    assert report and "degree" in report[0]


def test_chain_map_offset_sign():
    # a degree -1 map must anticommute: d f = -f d; sending g -> q and
    # swapping the endpoint generators achieves exactly that
    C = interval_complex()
    D = ChainComplex(ZZ, {-1: ("p0", "p1"), 0: ("q",)}, {0: SparseMat(2, 1, [{0: -1, 1: 1}])})
    f = ChainMap(C, D, -1, {
        0: SparseMat(2, 2, [{1: 1}, {0: 1}]),
        1: SparseMat(1, 1, [{0: 1}]),
    })
    assert verify_chain_map(f) == []
    # without the swap the sign breaks
    g = ChainMap(C, D, -1, {
        0: SparseMat(2, 2, [{0: 1}, {1: 1}]),
        1: SparseMat(1, 1, [{0: 1}]),
    })
    assert verify_chain_map(g)


def test_evaluation_map_builds_columns_from_values():
    C = interval_complex()
    f = evaluation_map(C, C, lambda x: {x: 1})
    assert verify_chain_map(f) == []
    assert all(f.mat(k).data == identity_map(C).mat(k).data for k in C.degrees())
    # both ends to g0 and g to itself is no chain map: d g = g1 - g0 is
    # kept, while the image of g1 - g0 is 0
    g = evaluation_map(C, C, lambda x: {x: 1} if x == "g" else {"g0": 1})
    assert verify_chain_map(g) == ["degree 1: violation at (0,0) = -1"]


def test_values_outside_the_target_basis_name_the_element():
    # the same error for a complex and a map
    with pytest.raises(RuntimeError) as err:
        assemble_complex({0: ("a",), 1: ("b",)}, lambda x: {"z": 1} if x == "b" else {})
    assert str(err.value) == "'b' reaches 'z', which is outside the basis of degree 0"
    C = interval_complex()
    with pytest.raises(RuntimeError) as err:
        evaluation_map(C, C, lambda x: {"g": 1})
    assert str(err.value) == "'g0' reaches 'g', which is outside the basis of degree 0 of the target"


def test_compose_chain_maps():
    C = interval_complex()
    i = identity_map(C)
    c = compose_chain_maps(i, i)
    assert verify_chain_map(c) == []
    assert c.offset == 0


# -- koszul signs ------------------------------------------------------------------
#
# tagged.koszul(old, new) is the sign of the permutation of the odd letters
# that takes the word old to the word new; a letter is (name, degree).


def test_koszul_sign_identity():
    w = [("a", 1), ("b", 1), ("c", 1)]
    assert koszul(w, w) == 1


def test_koszul_sign_swap():
    assert koszul([("a", 1), ("b", 1)], [("b", 1), ("a", 1)]) == -1
    assert koszul([("a", 1), ("b", 2)], [("b", 2), ("a", 1)]) == 1
    assert koszul([("a", 0), ("b", 1)], [("b", 1), ("a", 0)]) == 1


def test_koszul_sign_three_cycle():
    # moving an odd symbol past two odd symbols costs two signs
    assert koszul([("a", 1), ("b", 1), ("c", 1)], [("b", 1), ("c", 1), ("a", 1)]) == 1
    assert koszul([("a", 1), ("b", 1), ("c", 2)], [("b", 1), ("c", 2), ("a", 1)]) == -1


def test_koszul_block_move():
    # one symbol moved past a block: -1 when both have odd degree
    assert koszul([("x", 1), ("y", 1)], [("y", 1), ("x", 1)]) == -1
    assert koszul([("x", 1), ("y", 1), ("z", 1)], [("y", 1), ("z", 1), ("x", 1)]) == 1
    assert koszul([("x", 2), ("y", 1)], [("y", 1), ("x", 2)]) == 1


# -- smith normal form ----------------------------------------------------------------


def test_snf_examples():
    assert invariant_factors([[2]]) == [2]
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert invariant_factors([[0]]) == []
    assert invariant_factors([[4, 0], [0, 6]]) == [2, 12]


def test_snf_factorization_shape():
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    U, D, V = smith_normal_form(A)
    # diagonal and divisibility chain
    for i in range(3):
        for j in range(3):
            if i != j:
                assert D[i][j] == 0
    facs = [D[i][i] for i in range(3) if D[i][i]]
    for a, b in zip(facs, facs[1:]):
        assert b % a == 0


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=120, deadline=None)
def test_snf_random(m, n, data):
    A = [
        [data.draw(st.integers(-9, 9)) for _ in range(n)]
        for _ in range(m)
    ]
    U, D, V = smith_normal_form(A)  # internal self-check re-multiplies
    facs = [D[i][i] for i in range(min(m, n)) if D[i][i]]
    assert len(facs) == rank_over_field(A, QQ)
    for a, b in zip(facs, facs[1:]):
        assert b % a == 0
    assert all(f > 0 for f in facs)


def test_rank_over_fields():
    A = [[2, 4], [1, 2]]
    assert rank_over_field(A, QQ) == 1
    assert rank_over_field(A, Ring("Fp", 2)) == 1
    B = [[1, 0], [0, 2]]
    assert rank_over_field(B, QQ) == 2
    assert rank_over_field(B, Ring("Fp", 2)) == 1


def test_homology_z_vs_q_rank_agreement():
    rng = random.Random(7)
    for _ in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        entries = {
            (i, j): rng.randint(-4, 4)
            for i in range(rows)
            for j in range(cols)
            if rng.random() < 0.7
        }
        basis = {0: tuple(f"x{i}" for i in range(rows)), 1: tuple(f"y{j}" for j in range(cols))}
        mz, mq = SparseMat(rows, cols), SparseMat(rows, cols)
        for (i, j), v in entries.items():
            if v:
                mz.data[j][i] = v
                mq.data[j][i] = Fraction(v)
        hz = homology(ChainComplex(ZZ, basis, {1: mz}))
        hq = homology(ChainComplex(QQ, basis, {1: mq}))
        for k in (0, 1):
            assert hz.free_rank(k) == hq.free_rank(k)


# -- sparse elimination ----------------------------------------------------------------


def sparse(A, cols=None):
    """A as a SparseMat; cols gives the width of a matrix without rows."""
    cols = len(A[0]) if cols is None else cols
    return SparseMat(len(A), cols, [
        {i: row[j] for i, row in enumerate(A) if row[j]} for j in range(cols)
    ])


@given(st.integers(1, 6), st.integers(1, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_elimination_against_dense_snf(m, n, data):
    A = [[data.draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(m)]
    dense = invariant_factors(A)
    assert certified_elimination(sparse(A), ZZ).invariant_factors() == dense
    for p in (2, 3):
        rank_p = certified_elimination(sparse(A), Ring("Fp", p)).rank()
        assert rank_p == sum(1 for f in dense if f % p)
    assert certified_elimination(sparse(A), QQ).rank() == len(dense)


def test_elimination_unit_pivots_and_torsion_residual():
    # diag(1, 2, 6) under unimodular row and column operations with
    # off-diagonal units, rows then permuted
    A = [[0, 2, 8], [1, 3, 2], [1, 1, 0]]
    E = certified_elimination(sparse(A), ZZ)
    assert 0 < len(E.pivots) < 3  # unit pivots, and a residual is left
    assert E.residual()
    assert E.invariant_factors() == invariant_factors(A) == [1, 2, 6]
    assert E.rank() == rank_over_field(A, QQ) == 3
    assert certified_elimination(sparse(A), Ring("Fp", 2)).rank() == 1
    assert certified_elimination(sparse(A), Ring("Fp", 3)).rank() == 2


def test_elimination_certificate_catches_corruption():
    A = sparse([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    for ring in (ZZ, QQ, Ring("Fp", 5)):
        E = eliminate(A, ring)
        E.check()
        c = next(c for c, col in enumerate(E.ops) if col)
        (j, v), *_ = E.ops[c].items()
        E.ops[c][j] = ring.normalize(v + 1)
        with pytest.raises(ArithmeticError):
            E.check()
    E = eliminate(A, ZZ)
    E.pivots.reverse()  # a pivot order in which M is not triangular
    with pytest.raises(SelfCheckError):
        E.check()


def test_elimination_certificate_checks_every_multiplier():
    A = sparse([
        [1, 2, 0, 1, 3],
        [0, 1, 1, 2, 1],
        [1, 0, 1, -1, 2],
        [2, 1, 1, 1, 0],
    ])
    for ring in (ZZ, QQ, Ring("Fp", 5)):
        off = [(j, c) for c, col in enumerate(eliminate(A, ring).ops) for j in col]
        assert len(off) >= 3
        for j, c in off:
            E = eliminate(A, ring)
            E.ops[c][j] = ring.normalize(E.ops[c][j] + 1)
            with pytest.raises(SelfCheckError, match="M\\*U != A"):
                E.check()
            E = eliminate(A, ring)
            E.ops[j][c] = E.ops[c].pop(j)
            with pytest.raises(SelfCheckError):
                E.check()


def test_elimination_certificate_rejects_multiplier_below_diagonal():
    # the fourth column reduces to zero, so a multiplier in its row leaves
    # M*U unchanged and only the triangularity check can catch it
    A = sparse([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    for ring in (ZZ, QQ, Ring("Fp", 5)):
        E = eliminate(A, ring)
        E.check()
        assert not E.reduced[3]
        E.ops[E.pivots[0][1]][3] = ring.normalize(1)
        with pytest.raises(SelfCheckError, match="U\\[3,"):
            E.check()


def test_elimination_certificate_reads_the_source():
    # an eliminator whose working copy lost an entry of A leaves a record
    # that agrees with itself, but not with A
    A = sparse([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    for ring in (ZZ, QQ, Ring("Fp", 5)):
        for j, i in [(j, i) for j, col in enumerate(A.data) for i in col]:
            lossy = SparseMat(A.rows, A.cols, [dict(col) for col in A.data])
            del lossy.data[j][i]
            eliminate(lossy, ring).check()
            E = dataclasses.replace(eliminate(lossy, ring), source=A)
            with pytest.raises(SelfCheckError, match="M\\*U != A"):
                E.check()


def test_elimination_clears_columns():
    # the third column is the sum of the first two: dropping it keeps
    # every invariant factor, and the certificate holds it empty
    A = sparse([[1, 0, 1], [0, 2, 2], [1, 1, 2]])
    for ring in (ZZ, QQ, Ring("Fp", 2)):
        full = certified_elimination(A, ring).invariant_factors()
        E = certified_elimination(A, ring, {2})
        assert E.invariant_factors() == full
        assert not E.reduced[2] and not E.ops[2]
        E.reduced[2][0] = ring.normalize(1)
        with pytest.raises(SelfCheckError, match="cleared column 2"):
            E.check()


def _corrupt_pivot(E):
    # a non-unit pivot that M*U = A still holds with: A's entry changes too
    E.reduced[0][0] = 2
    return dataclasses.replace(E, source=SparseMat(1, 1, [{0: 2}]))


def _unpivot(E):
    E.pivots.clear()
    return E


def _residual_in_pivot_row(E):
    # column 1 kept as it stands in A, so it still has the pivot row's entry
    E.reduced[1], E.ops[1] = dict(E.source.data[1]), {}
    return E


@pytest.mark.parametrize(
    "A,ring,corrupt,what",
    [
        ([[1, 1]], ZZ, lambda E: E.reduced.append({}) or E, "M and U have 3 and 2 columns, A has 2"),
        ([[1, 0], [0, 1]], ZZ, lambda E: E.pivots.append(E.pivots[0]) or E, "a row or column pivoted twice"),
        ([[1]], ZZ, _corrupt_pivot, "pivot M[0,0] is no unit"),
        ([[1]], QQ, _unpivot, "M[0,0] = 1 left over a field"),
        ([[1, 1]], ZZ, _residual_in_pivot_row, "M[0,1] = 1 above a pivot"),
    ],
    ids=["column-counts", "pivoted-twice", "pivot-unit", "field-residual", "above-pivot"],
)
def test_elimination_certificate_names_each_failure(A, ring, corrupt, what):
    E = eliminate(sparse(A), ring)
    E.check()
    E = corrupt(E)
    with pytest.raises(SelfCheckError) as err:
        E.check()
    assert str(err.value) == f"elimination certificate failed: {what}"


def test_elimination_zero_and_empty():
    assert certified_elimination(SparseMat(3, 2), ZZ).invariant_factors() == []
    assert certified_elimination(SparseMat(0, 0), QQ).rank() == 0
    assert rank_over_field([], QQ) == 0


def test_change_ring_maps_integer_entries():
    mat = SparseMat(2, 2, [{0: 2, 1: 3}, {1: -1}])
    C = ChainComplex(ZZ, {0: ("a", "b"), 1: ("x", "y")}, {1: mat})
    assert change_ring(C, ZZ) is C
    C2 = change_ring(C, Ring("Fp", 2))
    assert C2.ring == Ring("Fp", 2)
    assert C2.diff(1).data == [{1: 1}, {1: 1}]
    assert C2.basis_of(0) == ("a", "b")
    assert change_ring(C, QQ).diff(1).data[0][0] == Fraction(2)
    # an entry that vanishes mod p takes its differential with it
    C3 = change_ring(two_term(ZZ, 3), Ring("Fp", 3))
    assert C3.d == {}
    assert homology(C3).free_rank(0) == 1
    half = two_term(QQ, Fraction(1, 2))
    with pytest.raises(ValueError):
        change_ring(half, ZZ)
    with pytest.raises(ValueError):
        change_ring(half, Ring("Fp", 2))


# -- serialization ----------------------------------------------------------------


def test_complex_json_roundtrip():
    C = interval_complex()
    data = complex_to_json(C)
    assert data["ring"] == "Z"
    assert data["basis"]["0"] == ["g0", "g1"]
    assert data["d"]["1"] == [(0, 0, "-1"), (1, 0, "1")]
    back = complex_from_json(data)
    assert back.dim(0) == 2 and back.dim(1) == 1
    assert back.diff(1).data[0][0] == -1
    H = homology(back)
    assert H.free_rank(0) == 1


def test_complex_json_rational():
    mat = SparseMat(1, 1, [{0: Fraction(1, 2)}])
    C = ChainComplex(QQ, {0: ("a",), 1: ("b",)}, {1: mat})
    back = complex_from_json(complex_to_json(C))
    assert back.diff(1).data[0][0] == Fraction(1, 2)
