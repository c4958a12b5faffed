"""Planar rooted trees with leaves.

A tree is either the unit tree (a bare edge, no vertices, arity 1) or a
root vertex with an ordered tuple of child trees.  A vertex with no
children is a stump (arity 0).  The arity of a tree is its number of
leaves; the unit tree has arity 1.

Internal edges connect two vertices.  Every non-root vertex determines
exactly one internal edge (the one below it), so a tree with V vertices
has max(V - 1, 0) internal edges.  Vertices are indexed in depth-first
pre-order (root = 0, children left to right); internal edge i is the
edge above vertex i + 1.  All edge/vertex indices in this package use
that convention.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache


@dataclass(frozen=True)
class PlanarTree:
    # children is None for the unit tree; a tuple (possibly empty) for a vertex.
    children: tuple["PlanarTree", ...] | None = None
    # leaves and vertices, counted once from the children's counts; plain
    # attributes, outside equality, hashing and repr
    arity: int = field(init=False, compare=False, repr=False)
    vertex_count: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        arity, vertex_count = 1, 0
        if self.children is not None:
            arity, vertex_count = 0, 1
            for c in self.children:
                arity += c.arity
                vertex_count += c.vertex_count
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "vertex_count", vertex_count)

    @property
    def is_unit(self) -> bool:
        return self.children is None

    @property
    def edge_count(self) -> int:
        return max(self.vertex_count - 1, 0)

    @cached_property
    def encoding(self) -> tuple:
        """Nested-tuple encoding; total order on encodings orders trees."""
        if self.children is None:
            return (0,)
        return (1,) + tuple(c.encoding for c in self.children)

    @cached_property
    def canonical_key(self) -> tuple:
        return self.canonical().encoding

    def canonical(self) -> "PlanarTree":
        """Minimal-encoding planar representative of the isomorphism class.

        Computed bottom-up: children are canonicalized, then sorted by
        encoding.  Sorting children realizes an isomorphism, so the result
        is the least planar presentation of the non-planar tree.
        """
        if self.children is None:
            return self
        kids = sorted((c.canonical() for c in self.children), key=lambda t: t.encoding)
        return PlanarTree(tuple(kids))

    def notation(self) -> str:
        if self.children is None:
            return "|"
        return "(" + " ".join(c.notation() for c in self.children) + ")"

    def __repr__(self) -> str:  # pragma: no cover
        return f"PlanarTree[{self.notation()}]"

    # -- indexed views -------------------------------------------------

    def subtrees_preorder(self) -> list["PlanarTree"]:
        """All vertex subtrees in DFS pre-order (unit trees excluded)."""
        out: list[PlanarTree] = []
        _preorder(self, out)
        return out

    def valences(self) -> list[int]:
        """Valence (number of input slots) of each vertex, DFS pre-order."""
        return [len(t.children) for t in self.subtrees_preorder()]


def _preorder(t: PlanarTree, out: list) -> None:
    if t.children is None:
        return
    out.append(t)
    for c in t.children:
        _preorder(c, out)


UNIT = PlanarTree(None)


def corolla(n: int) -> PlanarTree:
    return PlanarTree((UNIT,) * n)


def build_tree(text: str) -> PlanarTree:
    """Parse nested-list notation: '|' unit, '(c1 c2 ... ck)' a vertex, '()' a stump."""
    s = text.replace("(", " ( ").replace(")", " ) ").split()
    if not s:
        raise ValueError("empty tree notation")
    tree, pos = _parse(s, 0, text)
    if pos != len(s):
        raise ValueError(f"trailing tokens in tree notation {text!r}")
    return tree


def _parse(s: list, i: int, text: str) -> tuple[PlanarTree, int]:
    tok = s[i]
    if tok == "|":
        return UNIT, i + 1
    if tok != "(":
        raise ValueError(f"unexpected token {tok!r} in tree notation {text!r}")
    kids = []
    i += 1
    while i < len(s) and s[i] != ")":
        child, i = _parse(s, i, text)
        kids.append(child)
    if i >= len(s):
        raise ValueError(f"unbalanced parentheses in tree notation {text!r}")
    return PlanarTree(tuple(kids)), i + 1


# -- enumeration -------------------------------------------------------


def enumerate_planar(arity: int, max_edges: int | None = None, min_valence: int = 0) -> list[PlanarTree]:
    """All planar trees with the given arity, at most max_edges internal
    edges and every vertex valence >= min_valence, in a deterministic order.

    max_edges=None means no edge bound; that is only finite when
    min_valence >= 2 (then a tree with n leaves has at most n - 1 vertices).
    """
    if arity < 0:
        raise ValueError("arity must be >= 0")
    if max_edges is None:
        if min_valence < 2:
            raise ValueError("unbounded enumeration requires min_valence >= 2")
        max_edges = max(arity - 2, 0)
    return list(_enum(arity, max_edges, min_valence))


@lru_cache(maxsize=None)
def _enum(n: int, k: int, v: int) -> tuple[PlanarTree, ...]:
    out: list[PlanarTree] = []
    if n == 1:
        out.append(UNIT)
    # root valence m; children use one edge each unless they are unit trees
    max_valence = n + k  # each arity-0 child costs an edge
    for m in range(max(v, 0), max_valence + 1):
        if m == 0:
            if n == 0:
                out.append(PlanarTree(()))
            continue
        for kids in _children_tuples(n, k, v, m):
            out.append(PlanarTree(kids))
    return tuple(out)


def _children_tuples(n: int, k: int, v: int, m: int) -> list[tuple[PlanarTree, ...]]:
    """All m-tuples of child trees with total arity n within edge budget k."""
    results: list[tuple[PlanarTree, ...]] = []
    _fill_children(m, n, k, v, [], results)
    return results


def _fill_children(slots_left: int, arity_left: int, budget: int, v: int, acc: list, results: list) -> None:
    if slots_left == 0:
        if arity_left == 0:
            results.append(tuple(acc))
        return
    # with v >= 1 every child has arity at least 1, so a child may take
    # only the leaves the slots after it do not need
    low = 1 if v >= 1 else 0
    for a in range(low, arity_left - low * (slots_left - 1) + 1):
        # a child of arity a; unit child only when a == 1
        if a == 1:
            acc.append(UNIT)
            _fill_children(slots_left - 1, arity_left - 1, budget, v, acc, results)
            acc.pop()
        if budget >= 1:
            # _enum(a, budget - 1, v) keeps child.edge_count + 1 <= budget
            for child in _enum(a, budget - 1, v):
                if child.is_unit:
                    continue
                acc.append(child)
                _fill_children(slots_left - 1, arity_left - a, budget - 1 - child.edge_count, v, acc, results)
                acc.pop()


# -- automorphisms -----------------------------------------------------


def aut_order(t: PlanarTree) -> int:
    """Order of the automorphism group of the underlying non-planar tree.

    Children are grouped into isomorphism classes; with k_i children in
    class i having representative T_i, the group is the semidirect
    product of prod Aut(T_i)^{k_i} with prod Sym(k_i).
    """
    if t.children is None:
        return 1
    blocks: dict[tuple, list[PlanarTree]] = {}
    for c in t.children:
        blocks.setdefault(c.canonical_key, []).append(c)
    order = 1
    for key, members in blocks.items():
        order *= aut_order(members[0]) ** len(members) * _factorial(len(members))
    return order


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


@dataclass(frozen=True)
class AutGenerator:
    # adjacent swap of two equal children at some vertex; on a canonical
    # representative these generate the whole automorphism group
    kind: str
    description: str
    leaf_perm: tuple[int, ...]


def iso_leaf_maps(t1: PlanarTree, t2: PlanarTree) -> list[tuple[int, ...]]:
    """Leaf permutations of all isomorphisms t1 -> t2.

    Entry p of a returned tuple is the leaf position in t2 that leaf p of
    t1 is sent to.  Empty list when the trees are not isomorphic.
    """
    if t1.canonical_key != t2.canonical_key:
        return []
    if t1.children is None:
        return [(0,)]
    kids1, kids2 = t1.children, t2.children
    keys1 = [c.canonical_key for c in kids1]
    keys2 = [c.canonical_key for c in kids2]
    out: list[tuple[int, ...]] = []
    _assign(t1, t2, keys1, keys2, [False] * len(kids1), [], out)
    return out


def _assign(t1, t2, keys1, keys2, used: list[bool], target: list[int], out: list) -> None:
    """Match the children of t1 to children of t2 within isomorphism
    classes, the first len(target) already matched, and append the leaf
    maps of every completed matching to out."""
    kids1, kids2 = t1.children, t2.children
    m = len(kids1)
    j = len(target)
    if j == m:
        offs1 = _leaf_offsets(kids1)
        offs2 = _leaf_offsets(kids2)
        child_maps = [iso_leaf_maps(kids1[i], kids2[target[i]]) for i in range(m)]
        for combo in itertools.product(*child_maps):
            perm = [0] * t1.arity
            for i in range(m):
                for p_local, q_local in enumerate(combo[i]):
                    perm[offs1[i] + p_local] = offs2[target[i]] + q_local
            out.append(tuple(perm))
        return
    for i2 in range(m):
        if not used[i2] and keys2[i2] == keys1[j]:
            used[i2] = True
            target.append(i2)
            _assign(t1, t2, keys1, keys2, used, target, out)
            target.pop()
            used[i2] = False


def _leaf_offsets(kids: tuple[PlanarTree, ...]) -> list[int]:
    offs = []
    acc = 0
    for c in kids:
        offs.append(acc)
        acc += c.arity
    return offs


def aut_leaf_perms(t: PlanarTree) -> list[tuple[int, ...]]:
    """The automorphism group of t as a set of leaf permutations."""
    if t.arity == 0:
        # leafless trees act trivially on the empty leaf set
        return [()]
    return sorted(set(iso_leaf_maps(t, t)))


def aut_generators(t: PlanarTree) -> list[AutGenerator]:
    """Generators realizing the semidirect decomposition at each vertex."""
    gens: list[AutGenerator] = []
    _block_generators(t, (), 0, t.arity, gens)
    return gens


def _block_generators(s: PlanarTree, path: tuple[int, ...], leaf_off: int, arity: int, gens: list) -> None:
    if s.children is None:
        return
    offs = _leaf_offsets(s.children)
    # block generators: adjacent transpositions of isomorphic siblings
    for j in range(len(s.children) - 1):
        a, b = s.children[j], s.children[j + 1]
        if a.canonical_key == b.canonical_key:
            perm = list(range(arity))
            wa = a.arity
            wb = b.arity
            base = leaf_off + offs[j]
            for p in range(wa):
                perm[base + p] = base + wb + p
            for p in range(wb):
                perm[base + wa + p] = base + p
            gens.append(
                AutGenerator(
                    "block",
                    f"swap children {j} and {j + 1} at vertex {path}",
                    tuple(perm),
                )
            )
    for j, c in enumerate(s.children):
        _block_generators(c, path + (j,), leaf_off + offs[j], arity, gens)


@dataclass(frozen=True)
class TreeClass:
    tree: PlanarTree  # canonical representative
    aut_order: int
    planar_count: int


def iso_classes(arity: int, max_edges: int | None = None, min_valence: int = 0) -> list[TreeClass]:
    """Isomorphism classes of enumerate_planar output, canonical reps first."""
    groups: dict[tuple, list[PlanarTree]] = {}
    for t in enumerate_planar(arity, max_edges, min_valence):
        groups.setdefault(t.canonical_key, []).append(t)
    classes = []
    for key in sorted(groups):
        members = groups[key]
        rep = members[0].canonical()
        classes.append(TreeClass(rep, aut_order(rep), len(members)))
    return classes

