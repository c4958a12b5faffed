"""Tagged labeled trees: the one tree engine behind the chain-level
cylinder and the bar/cobar expansions.

A plain node is (label, items) with items ("leaf", input) or
("edge", flag, child); in the cylinder flag 1 marks an edge, the bar and
cobar trees leave every flag at 0.  For sign tracking a node is tagged:
(uid, label, parity, items) with edge items ("edge", euid, flag, child),
where every vertex and every edge draws a fresh letter identity from one
counter.

This module walks and canonicalizes tagged trees but owns no sign word.
Each construction linearizes a tagged tree into its own word of
(uid, parity) letters and hands pairs of words to koszul; keeping the
words apart is what keeps the bar/cobar comparison an independent check.
"""

from __future__ import annotations

import itertools

from . import perms
from .trees import PlanarTree, aut_generators

_UIDS = itertools.count()


def fresh_uid() -> int:
    return next(_UIDS)


def tag(node, parity):
    """Annotate a plain node with fresh letter identities; parity(valence,
    label) gives each vertex letter its parity."""
    label, items = node
    out = []
    for it in items:
        if it[0] == "leaf":
            out.append(it)
        else:
            out.append(("edge", next(_UIDS), it[1], tag(it[2], parity)))
    return (next(_UIDS), label, parity(len(items), label) & 1, tuple(out))


def untag(nd):
    out = []
    for it in nd[3]:
        if it[0] == "leaf":
            out.append(it)
        else:
            out.append(("edge", it[2], untag(it[3])))
    return (nd[1], tuple(out))


def leaves(nd) -> list:
    out = []
    for it in nd[3]:
        if it[0] == "leaf":
            out.append(it[1])
        else:
            out.extend(leaves(it[3]))
    return out


def vertices(nd):
    """The tagged vertex nodes in depth-first preorder."""
    yield nd
    for it in nd[3]:
        if it[0] == "edge":
            yield from vertices(it[3])


def graft_replace(nd, uid, new):
    """Replace the vertex with letter uid, and everything above it, by new."""
    if nd[0] == uid:
        return new
    out = []
    for it in nd[3]:
        if it[0] == "edge":
            out.append(("edge", it[1], it[2], graft_replace(it[3], uid, new)))
        else:
            out.append(it)
    return (nd[0], nd[1], nd[2], tuple(out))


def map_leaves(node, table):
    """A plain node with every leaf input g replaced by table[g]."""
    label, items = node
    out = []
    for it in items:
        if it[0] == "leaf":
            out.append(("leaf", table[it[1]]))
        else:
            out.append(("edge", it[1], map_leaves(it[2], table)))
    return (label, tuple(out))


def koszul(old: list, new: list) -> int:
    """Sign of the permutation of odd letters taking one word to another."""
    pos = {u: k for k, (u, p) in enumerate(old) if p & 1}
    return perms.sign([pos[u] for u, p in new if p & 1])


# -- canonical presentations -------------------------------------------------


def canon(act, nd) -> tuple[int, tuple]:
    """Sort the children of every vertex, bottom up, by (bare shape, leaf
    tuple), twisting each label by the inverse of its reordering through
    act(valence, label, sigma) -> (label, sign).

    Sorting by bare shape alone lands on the minimal-encoding planar tree;
    its automorphisms permute equal-shape siblings, whose leaf sets are
    disjoint and nonempty when no vertex has valence zero.  So breaking
    shape ties by leaf tuples reaches the least leaf routing of the orbit
    directly.  Returns the product of the label twists and the sorted
    tree; the Koszul sign of the reordered word is the caller's."""
    sign, out, _, _ = _sort(act, nd)
    return sign, out


def _sort(act, nd):
    uid, label, par, items = nd
    sign = 1
    keyed = []
    for it in items:
        if it[0] == "leaf":
            keyed.append(((0,), (it[1],), it))
        else:
            c, sub, shape, lvs = _sort(act, it[3])
            sign *= c
            keyed.append((shape, lvs, ("edge", it[1], it[2], sub)))
    sigma = tuple(sorted(range(len(keyed)), key=lambda j: keyed[j][:2]))
    if sigma != perms.identity(len(sigma)):
        label, c = act(len(sigma), label, perms.invert(sigma))
        sign *= c
        keyed = [keyed[j] for j in sigma]
    shape = (1,) + tuple(k[0] for k in keyed)
    lvs = tuple(g for k in keyed for g in k[1])
    return sign, (uid, label, par, tuple(k[2] for k in keyed)), shape, lvs


# per shape encoding: the (p, q) leaf positions of each generator, and the
# least routings
PAIR_CACHE: dict[tuple, list] = {}
ROUTING_CACHE: dict[tuple, list] = {}


def least_routings(tree: PlanarTree) -> list:
    """Leaf routings of a canonical tree that are least in their
    automorphism orbit, in lexicographic order.

    The group is generated by adjacent swaps of equal sibling subtrees, and
    a routing is least exactly when no such swap lowers it: lam[p] < lam[q]
    for the first leaves p and q of the two siblings."""
    got = ROUTING_CACHE.get(tree.encoding)
    if got is None:
        pairs = []
        for gen in aut_generators(tree):
            p = next(r for r, s in enumerate(gen.leaf_perm) if r != s)
            pairs.append((p, gen.leaf_perm[p]))
        PAIR_CACHE[tree.encoding] = pairs
        got = [
            lam
            for lam in itertools.permutations(range(tree.arity))
            if all(lam[p] < lam[q] for p, q in pairs)
        ]
        ROUTING_CACHE[tree.encoding] = got
    return got
