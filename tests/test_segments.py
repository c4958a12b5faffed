import itertools

import pytest
from hypothesis import given, strategies as st

from opres.segments import (
    FiniteSegment,
    SegmentMap,
    chain_segment,
    codegeneracy,
    codiagonal,
    coface,
    compose_maps,
    delta1_degeneracy,
    delta1_face,
    delta1_level,
    delta1_operator,
    diamond,
    diamond_collapse,
    diamond_map,
    identity_map,
    segment_check,
    segment_from_json,
    segment_iso,
    segment_map_check,
    segment_to_json,
    terminal_map,
)


def monotone_maps(l, k):
    """All order-preserving maps [l] -> [k] as value tuples of length l + 1."""
    return list(itertools.combinations_with_replacement(range(k + 1), l + 1))


def test_chain_segment_basic():
    H = chain_segment(2)
    assert H.elements == ("0", "1", "2")
    assert H.zero == 0
    assert H.one == 2
    assert H.j(1, 2) == 2
    assert segment_check(H) == []


def test_chain_segment_terminal():
    I = chain_segment(0)
    assert I.size == 1
    assert I.zero == I.one == 0
    assert segment_check(I) == []


def test_chain_segments_valid_up_to_5():
    for m in range(6):
        assert segment_check(chain_segment(m)) == []


def test_segment_check_flags_bad_unit():
    # 0 v 1 = 0 breaks both neutrality and absorption
    H = FiniteSegment(("0", "1"), 0, 1, ((0, 0), (0, 1)))
    report = segment_check(H)
    assert any("expected" in msg for msg in report)
    assert any("!= 1" in msg for msg in report)


def test_segment_check_flags_nonassociative():
    # every 3-element table with forced unit/absorption rows is associative,
    # so use 4 elements: (a a) b = b b = 0 but a (a b) = a 0 = a
    H = FiniteSegment(
        ("0", "a", "b", "1"),
        0,
        3,
        ((0, 1, 2, 3), (1, 2, 0, 3), (2, 0, 0, 3), (3, 3, 3, 3)),
    )
    report = segment_check(H)
    assert any("associativity" in msg for msg in report)


def test_segment_check_flags_collapsed_unit_pair():
    H = FiniteSegment(("0", "x"), 0, 0, ((0, 1), (1, 1)))
    report = segment_check(H)
    assert report  # 1 is not absorbing here, and zero == one


# -- diamond ---------------------------------------------------------------


def test_diamond_of_terminal_is_two_chain():
    D = diamond(chain_segment(0))
    assert D.size == 2
    assert segment_iso(D, chain_segment(1)) is not None


def test_diamond_of_two_chain():
    D = diamond(chain_segment(1))
    assert D.size == 3
    assert segment_check(D) == []
    # old absorbing keeps absorbing old elements, new top beats it
    assert D.j(1, 0) == 1
    assert D.j(1, 2) == 2
    assert segment_iso(D, chain_segment(2)) is not None


def test_iterated_diamond_is_chain():
    H = chain_segment(0)
    for step in range(1, 5):
        H = diamond(H)
        assert segment_iso(H, chain_segment(step)) is not None


def test_diamond_star_name_fresh():
    H = diamond(chain_segment(0))
    D = diamond(H)
    assert len(set(D.elements)) == D.size


def test_diamond_collapse_is_segment_map():
    for m in range(3):
        f = diamond_collapse(chain_segment(m))
        assert segment_map_check(f) == []
        assert f(f.source.size - 1) == m


def test_diamond_functorial():
    # diamond(f) commutes with the collapse maps, table checked
    H = chain_segment(1)
    K = chain_segment(2)
    f = SegmentMap(H, K, (0, 2))
    assert segment_map_check(f) == []
    Df = diamond_map(f)
    assert segment_map_check(Df) == []
    left = compose_maps(Df, diamond_collapse(K))
    right = compose_maps(diamond_collapse(H), f)
    assert left.table == right.table


def test_diamond_functorial_composition():
    # note: segment maps must take 1 to 1, so the terminal segment is not
    # initial; compose a section with a retraction of chains instead
    H, K, L = chain_segment(1), chain_segment(2), chain_segment(1)
    f = SegmentMap(H, K, (0, 2))
    g = SegmentMap(K, L, (0, 1, 1))
    assert segment_map_check(f) == [] and segment_map_check(g) == []
    assert diamond_map(compose_maps(f, g)).table == compose_maps(diamond_map(f), diamond_map(g)).table


# -- segment maps -----------------------------------------------------------


def test_codiagonal_and_terminal():
    assert segment_map_check(codiagonal()) == []
    for m in range(4):
        assert segment_map_check(terminal_map(chain_segment(m))) == []


def test_map_check_catches_violations():
    H = chain_segment(1)
    K = chain_segment(1)
    bad = SegmentMap(H, K, (1, 0))
    assert segment_map_check(bad)


def test_identity_and_compose():
    H = chain_segment(2)
    i = identity_map(H)
    assert segment_map_check(i) == []
    assert compose_maps(i, i).table == i.table


# -- delta1 levels -----------------------------------------------------------


def test_delta1_level_names():
    assert delta1_level(0).elements == ("0", "1")
    assert delta1_level(1).elements == ("00", "01", "11")
    assert delta1_level(2).elements == ("000", "001", "011", "111")


def test_delta1_level_is_chain():
    for k in range(4):
        H = delta1_level(k)
        assert segment_check(H) == []
        iso = segment_iso(H, chain_segment(k + 1))
        assert iso is not None
        # the index map itself is the iso
        assert segment_map_check(SegmentMap(H, chain_segment(k + 1), tuple(range(k + 2)))) == []


def test_monotone_maps_count():
    # |Delta([l],[k])| = C(l+k+1, l+1)
    assert len(monotone_maps(0, 1)) == 2
    assert len(monotone_maps(1, 1)) == 3
    assert len(monotone_maps(2, 1)) == 4
    assert len(monotone_maps(1, 2)) == 6


def test_delta1_operators_are_segment_maps():
    for k in range(4):
        for l in range(3):
            for phi in monotone_maps(l, k):
                f = delta1_operator(k, phi)
                assert segment_map_check(f) == []


def test_delta1_face_k1():
    # both faces at level 1 are surjections onto the 2-element level
    f0 = delta1_face(1, 0)
    f1 = delta1_face(1, 1)
    assert set(f0.table) == {0, 1}
    assert set(f1.table) == {0, 1}
    assert f0.table != f1.table
    # face 0 merges the top pair, face 1 the bottom pair
    assert f0.table == (0, 1, 1)
    assert f1.table == (0, 0, 1)


def test_delta1_degeneracy_injective():
    s0 = delta1_degeneracy(0, 0)
    assert len(set(s0.table)) == s0.source.size
    assert segment_map_check(s0) == []


def test_delta1_operator_rejects_bad_phi():
    with pytest.raises(ValueError):
        delta1_operator(1, (1, 0))
    with pytest.raises(ValueError):
        delta1_operator(1, (0, 2))
    with pytest.raises(ValueError):
        delta1_operator(1, ())


def test_delta1_contravariant():
    # precomposition reverses composition of monotone maps
    for phi in monotone_maps(1, 2):
        for psi in monotone_maps(1, 1):
            comp = tuple(phi[v] for v in psi)
            left = delta1_operator(2, comp)
            right = compose_maps(delta1_operator(2, phi), delta1_operator(1, psi))
            assert left.table == right.table


def test_simplicial_identities_faces():
    # d_i d_j = d_{j-1} d_i for i < j, levels up to 4
    for k in range(2, 5):
        for j in range(k + 1):
            for i in range(j):
                lhs = compose_maps(delta1_face(k, j), delta1_face(k - 1, i))
                rhs = compose_maps(delta1_face(k, i), delta1_face(k - 1, j - 1))
                assert lhs.table == rhs.table


def test_simplicial_identities_degeneracies():
    # s_i s_j = s_{j+1} s_i for i <= j
    for k in range(0, 4):
        for j in range(k + 1):
            for i in range(j + 1):
                lhs = compose_maps(delta1_degeneracy(k, j), delta1_degeneracy(k + 1, i))
                rhs = compose_maps(delta1_degeneracy(k, i), delta1_degeneracy(k + 1, j + 1))
                assert lhs.table == rhs.table


def test_simplicial_identities_mixed():
    # d_i s_j relations, levels up to 4
    for k in range(0, 4):
        for j in range(k + 1):
            for i in range(k + 3):
                if i > k + 1:
                    continue
                after = compose_maps(delta1_degeneracy(k, j), delta1_face(k + 1, i))
                if i < j:
                    expect = compose_maps(delta1_face(k, i), delta1_degeneracy(k - 1, j - 1)) if k >= 1 else None
                    if expect is not None:
                        assert after.table == expect.table
                elif i in (j, j + 1):
                    assert after.table == identity_map(delta1_level(k)).table
                else:
                    expect = compose_maps(delta1_face(k, i - 1), delta1_degeneracy(k - 1, j)) if k >= 1 else None
                    if expect is not None:
                        assert after.table == expect.table


# -- serialization ------------------------------------------------------------


def test_segment_json_roundtrip():
    for H in [chain_segment(2), delta1_level(1), diamond(chain_segment(1))]:
        data = segment_to_json(H)
        back = segment_from_json(data)
        assert back == H


def test_segment_from_json_validates():
    data = segment_to_json(chain_segment(1))
    data["join"][0][1] = 0  # breaks absorption
    with pytest.raises(ValueError):
        segment_from_json(data)


# -- randomized axiom properties ----------------------------------------------


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_chain5_associativity_random(a, b, c):
    H = chain_segment(4)
    assert H.j(H.j(a, b), c) == H.j(a, H.j(b, c))


@given(st.data())
def test_random_tables_reported_or_valid(data):
    # segment_check never crashes; every constructor passes it
    n = data.draw(st.integers(1, 3))
    join = tuple(
        tuple(data.draw(st.integers(0, n - 1)) for _ in range(n)) for _ in range(n)
    )
    H = FiniteSegment(tuple(str(i) for i in range(n)), 0, n - 1, join)
    report = segment_check(H)
    assert isinstance(report, list)
