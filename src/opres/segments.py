"""Finite segments: join monoids with a neutral element 0 and an
absorbing element 1, plus the maps between them.

A segment here is a finite set with an associative binary operation v
(stored as a full index table), a neutral element at index `zero` and an
absorbing element at index `one`.  Commutativity is not required.  The
augmentation (everything maps to the point) is implicit.  Associativity
and the unit/absorption laws are checkable exhaustively via segment_check.

Constructors provided: chain_segment (max on {0..m}), delta1_level (the
monotone maps [k] -> [1] under pointwise max, with simplicial operator
tables), and diamond (adjoin a fresh absorbing element on top).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .chain_core import json_reader


@dataclass(frozen=True)
class FiniteSegment:
    elements: tuple[str, ...]
    zero: int
    one: int
    join: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.elements)
        if n == 0:
            raise ValueError("segment needs at least one element")
        if not (0 <= self.zero < n and 0 <= self.one < n):
            raise ValueError("zero/one index out of range")
        if len(self.join) != n or any(len(row) != n for row in self.join):
            raise ValueError("join table must be square of matching size")

    @property
    def size(self) -> int:
        return len(self.elements)

    def j(self, a: int, b: int) -> int:
        return self.join[a][b]

    def name(self, a: int) -> str:
        return self.elements[a]

    def __repr__(self):  # pragma: no cover
        return f"FiniteSegment({', '.join(self.elements)}; 0={self.name(self.zero)}, 1={self.name(self.one)})"


def segment_check(H: FiniteSegment) -> list[str]:
    """Exhaustive axiom check; returns one message per violated instance."""
    bad: list[str] = []
    n = H.size
    rng = range(n)
    for a in rng:
        for b in rng:
            if not (0 <= H.j(a, b) < n):
                bad.append(f"join({H.name(a)},{H.name(b)}) out of range")
    if bad:
        return bad
    for a in rng:
        if H.j(H.zero, a) != a:
            bad.append(f"0 v {H.name(a)} = {H.name(H.j(H.zero, a))}, expected {H.name(a)}")
        if H.j(a, H.zero) != a:
            bad.append(f"{H.name(a)} v 0 = {H.name(H.j(a, H.zero))}, expected {H.name(a)}")
        if H.j(H.one, a) != H.one:
            bad.append(f"1 v {H.name(a)} != 1")
        if H.j(a, H.one) != H.one:
            bad.append(f"{H.name(a)} v 1 != 1")
    for a in rng:
        for b in rng:
            for c in rng:
                if H.j(H.j(a, b), c) != H.j(a, H.j(b, c)):
                    bad.append(
                        f"associativity fails at ({H.name(a)},{H.name(b)},{H.name(c)})"
                    )
    if n > 1 and H.zero == H.one:
        bad.append("zero and one coincide in a multi-element segment")
    return bad


@dataclass(frozen=True)
class SegmentMap:
    source: FiniteSegment
    target: FiniteSegment
    table: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.table[a]


def segment_map_check(f: SegmentMap) -> list[str]:
    bad: list[str] = []
    H, K = f.source, f.target
    if len(f.table) != H.size:
        return ["table size mismatch"]
    if any(not (0 <= v < K.size) for v in f.table):
        return ["table value out of range"]
    if f.table[H.zero] != K.zero:
        bad.append("does not preserve 0")
    if f.table[H.one] != K.one:
        bad.append("does not preserve 1")
    for a in range(H.size):
        for b in range(H.size):
            if f.table[H.j(a, b)] != K.j(f.table[a], f.table[b]):
                bad.append(f"does not preserve join at ({H.name(a)},{H.name(b)})")
    return bad


def compose_maps(f: SegmentMap, g: SegmentMap) -> SegmentMap:
    """g after f (f first)."""
    if f.target is not g.source and f.target != g.source:
        raise ValueError("composable maps required")
    return SegmentMap(f.source, g.target, tuple(g.table[v] for v in f.table))


def identity_map(H: FiniteSegment) -> SegmentMap:
    return SegmentMap(H, H, tuple(range(H.size)))


def segment_iso(H: FiniteSegment, K: FiniteSegment) -> SegmentMap | None:
    """Brute-force isomorphism search; None when not isomorphic."""
    if H.size != K.size:
        return None
    for perm in itertools.permutations(range(K.size)):
        f = SegmentMap(H, K, perm)
        if not segment_map_check(f):
            return f
    return None


# -- constructors --------------------------------------------------------


def chain_segment(m: int) -> FiniteSegment:
    """The chain {0 < 1 < ... < m} with max as join; m is absorbing."""
    if m < 0:
        raise ValueError("m must be >= 0")
    names = tuple(str(i) for i in range(m + 1))
    join = tuple(tuple(max(a, b) for b in range(m + 1)) for a in range(m + 1))
    return FiniteSegment(names, 0, m, join)


def diamond(H: FiniteSegment) -> FiniteSegment:
    """Adjoin a fresh element absorbing everything; the old 1 keeps its
    behaviour among old elements but is no longer top."""
    star = "*"
    while star in H.elements:
        star += "*"
    n = H.size
    names = H.elements + (star,)
    join = []
    for a in range(n):
        join.append(tuple(H.join[a]) + (n,))
    join.append(tuple([n] * (n + 1)))
    return FiniteSegment(names, H.zero, n, tuple(join))


def diamond_collapse(H: FiniteSegment) -> SegmentMap:
    """The segment map diamond(H) -> H: identity on H, new top to old 1."""
    D = diamond(H)
    return SegmentMap(D, H, tuple(range(H.size)) + (H.one,))


def diamond_map(f: SegmentMap) -> SegmentMap:
    """Functorial extension of f to the diamonds (new top to new top)."""
    DS = diamond(f.source)
    DT = diamond(f.target)
    return SegmentMap(DS, DT, f.table + (DT.size - 1,))


def terminal_map(H: FiniteSegment) -> SegmentMap:
    """The augmentation H -> I onto the one-element segment."""
    return SegmentMap(H, chain_segment(0), (0,) * H.size)


def codiagonal() -> SegmentMap:
    """The fold map I + I -> I, collapsing both elements."""
    return SegmentMap(chain_segment(1), chain_segment(0), (0, 0))


# -- the levels of the 1-simplex ------------------------------------------


def delta1_level(k: int) -> FiniteSegment:
    """Monotone maps [k] -> [1] under pointwise max.

    The element at index j is the map with exactly j ones, displayed as
    its 01-word.  The join of words is the pointwise max, which on this
    chain is the word with the larger number of ones, so the segment is
    isomorphic to chain_segment(k + 1) by the index map.
    """
    if k < 0:
        raise ValueError("level must be >= 0")
    names = tuple("0" * (k + 1 - j) + "1" * j for j in range(k + 2))
    join = tuple(tuple(max(a, b) for b in range(k + 2)) for a in range(k + 2))
    return FiniteSegment(names, 0, k + 1, join)


def delta1_operator(k: int, phi: tuple[int, ...]) -> SegmentMap:
    """Precomposition with a monotone map phi: [l] -> [k]; a segment map
    delta1_level(k) -> delta1_level(l)."""
    l = len(phi) - 1
    if l < 0:
        raise ValueError("phi must be nonempty")
    if any(not (0 <= v <= k) for v in phi):
        raise ValueError("phi values out of range")
    if any(phi[t] > phi[t + 1] for t in range(l)):
        raise ValueError("phi must be monotone")
    src = delta1_level(k)
    dst = delta1_level(l)
    table = []
    for j in range(k + 2):
        word = src.elements[j]
        new_word = "".join(word[v] for v in phi)
        table.append(dst.elements.index(new_word))
    return SegmentMap(src, dst, tuple(table))


def coface(k: int, i: int) -> tuple[int, ...]:
    """The injective monotone map [k-1] -> [k] skipping the value i."""
    if not (0 <= i <= k) or k < 1:
        raise ValueError("coface out of range")
    return tuple(v if v < i else v + 1 for v in range(k))


def codegeneracy(k: int, i: int) -> tuple[int, ...]:
    """The surjective monotone map [k+1] -> [k] repeating the value i."""
    if not (0 <= i <= k):
        raise ValueError("codegeneracy out of range")
    return tuple(v if v <= i else v - 1 for v in range(k + 2))


def delta1_face(k: int, i: int) -> SegmentMap:
    """Face operator delta1_level(k) -> delta1_level(k-1)."""
    return delta1_operator(k, coface(k, i))


def delta1_degeneracy(k: int, i: int) -> SegmentMap:
    """Degeneracy operator delta1_level(k) -> delta1_level(k+1)."""
    return delta1_operator(k, codegeneracy(k, i))


# -- serialization --------------------------------------------------------


def segment_to_json(H: FiniteSegment) -> dict:
    return {
        "elements": list(H.elements),
        "zero": H.zero,
        "one": H.one,
        "join": [list(row) for row in H.join],
    }


@json_reader("segment")
def segment_from_json(data: dict) -> FiniteSegment:
    H = FiniteSegment(
        tuple(data["elements"]),
        int(data["zero"]),
        int(data["one"]),
        tuple(tuple(int(v) for v in row) for row in data["join"]),
    )
    report = segment_check(H)
    if report:
        raise ValueError("invalid segment: " + "; ".join(report[:3]))
    return H
