"""Finite permutations as tuples.

A permutation of n letters is a tuple p of length n with p[t] = image of
letter t (0-based).  Composition convention: perm_then(p, q) applies p
first, then q, so perm_then(p, q)[t] = q[p[t]].  This matches a right
group action act(x, p) satisfying act(act(x, p), q) = act(x, perm_then(p, q)).
"""
from __future__ import annotations

import itertools


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def perm_then(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    if len(p) != len(q):
        raise ValueError("size mismatch")
    return tuple(q[p[t]] for t in range(len(p)))


def invert(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for t, img in enumerate(p):
        out[img] = t
    return tuple(out)


def all_perms(n: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(n)))


def sign(p: tuple[int, ...]) -> int:
    inv = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                inv += 1
    return -1 if inv % 2 else 1


def block_perm(p: tuple[int, ...], sizes: list[int]) -> tuple[int, ...]:
    """Permute contiguous blocks: block t (of sizes[t] letters) moves to
    the position of block p[t].  Returns the induced letter permutation."""
    n = len(p)
    if len(sizes) != n:
        raise ValueError("sizes must match permutation length")
    offs_old = [0] * n
    acc = 0
    for t in range(n):
        offs_old[t] = acc
        acc += sizes[t]
    # new layout: blocks appear in order invert(p)
    order = invert(p)
    offs_new = {}
    acc = 0
    for slot in range(n):
        b = order[slot]
        offs_new[b] = acc
        acc += sizes[b]
    out = [0] * sum(sizes)
    for b in range(n):
        for t in range(sizes[b]):
            out[offs_old[b] + t] = offs_new[b] + t
    return tuple(out)


def blow(p: tuple[int, ...], i: int, m: int) -> tuple[int, ...]:
    """Inflate letter i of p (a permutation of n letters) into a block of
    m letters carried along identically.  Result permutes n + m - 1 letters.

    This is the permutation beta with act(x, p) o_i y = act(x o_{p-image
    adjusted slot} y, beta) in an operad with right actions; concretely
    the block at old position i travels to old-image position p[i]."""
    n = len(p)
    if not (0 <= i < n):
        raise ValueError("slot out of range")
    sizes = [1] * n
    sizes[i] = m
    return block_perm(p, sizes)


def embed(rho: tuple[int, ...], i: int, n: int) -> tuple[int, ...]:
    """Embed a permutation rho of m letters as a block at slot i inside
    the identity on n slots.  Result permutes n + m - 1 letters."""
    m = len(rho)
    if not (0 <= i < n):
        raise ValueError("slot out of range")
    out = list(range(n + m - 1))
    for t in range(m):
        out[i + t] = i + rho[t]
    return tuple(out)
