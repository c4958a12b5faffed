"""Labeled trees: the one node format and tree engine behind all four
constructions (the set-level cylinder, the free pointed operad and its
cotriple tower, the chain-level cylinder, and bar/cobar).

A plain node is (label, items) with items ("leaf", input) or
("edge", flag, child).  The set-level constructions put a segment length
in the flag; the chain-level cylinder puts 1 on a marked edge; the bar
and cobar trees leave every flag at 0.  This module builds plain nodes
from flat data (build_node), reads them back (node_tree, node_labels,
node_lengths, node_leaves, or all four in one walk with node_view), walks
them (map_leaves, map_labels), reads a tree as a tree of trees by cutting
edges (cut), and chooses the tree shapes and leaf routings each
construction enumerates (shapes), for all four constructions, set-level
stumps included.

All four constructions share one graded element class (TreeElement),
whose set-level elements sit in degree 0.  The chain-level ones share
one enumerator (labeled_trees) too: the cylinder, the bar
and the cobar differ only in their label source, the degree shift of a
vertex, what a label costs against the cap, and which edge flags occur.
The enumerator flattens one block per tree shape (label_blocks) in the
order of block_walk, which the keyed assembler of the cylinder and the
cobar, and the cylinder's report labels, also walk.
The nodes of one enumeration share their equal subtrees and items, so
nothing may rely on node identity: nodes are compared by value.

For sign tracking a node is tagged: (uid, label, parity, items) with edge
items ("edge", euid, flag, child), where every vertex and every edge
draws a fresh letter identity from one counter.  The module owns the
walks over tagged trees too: vertices, leaves, the (parent, slot, child)
edges, and replacing a vertex (graft_replace) or one item (replace_item).

This module walks and canonicalizes tagged trees but owns no sign word.
Each construction linearizes a tagged tree into its own word of
(uid, parity) letters and hands pairs of words to koszul; keeping the
words apart is what keeps the bar/cobar comparison an independent check.

Every walk lives at module level and takes its accumulators as
arguments, because a nested function that calls itself is a reference
cycle, and its locals then wait for the cyclic collector.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import perms
from .trees import PlanarTree, aut_generators, enumerate_planar, iso_classes


# -- plain nodes -------------------------------------------------------------


def build_node(tree: PlanarTree, labels, lengths, leaves) -> tuple | None:
    """Assemble a node from flat data: labels per DFS vertex, lengths per
    edge index (edge i sits above DFS vertex i + 1), leaves per planar
    leaf position."""
    if tree.children is None:
        if tuple(leaves) != (0,):
            raise ValueError("bare leaf tree must route its leaf to input 0")
        return None
    labels = list(labels)
    lengths = list(lengths)
    leaves = list(leaves)
    if len(labels) != tree.vertex_count:
        raise ValueError("label count mismatch")
    if len(lengths) != tree.edge_count:
        raise ValueError("length count mismatch")
    if sorted(leaves) != list(range(tree.arity)):
        raise ValueError("leaves must be a bijection onto the inputs")
    return _assemble(tree, iter(labels), iter(lengths), iter(leaves), None)


def _assemble(t: PlanarTree, labels, lengths, leaves, table: dict | None) -> tuple:
    """The node of t, drawing labels, edge lengths and leaf inputs from
    the three iterators in preorder.  With a table, every item and node
    built is swapped for its equal entry there, so that equal subtrees
    become one object."""
    label = next(labels)
    items = []
    for c in t.children:
        if c.children is None:
            it = ("leaf", next(leaves))
        else:
            flag = next(lengths)
            it = ("edge", flag, _assemble(c, labels, lengths, leaves, table))
        items.append(it if table is None else table.setdefault(it, it))
    node = (label, tuple(items))
    return node if table is None else table.setdefault(node, node)


def node_tree(node) -> PlanarTree:
    kids = []
    for it in node[1]:
        if it[0] == "leaf":
            kids.append(PlanarTree(None))
        else:
            kids.append(node_tree(it[2]))
    return PlanarTree(tuple(kids))


def node_labels(node) -> tuple:
    out = [node[0]]
    for it in node[1]:
        if it[0] == "edge":
            out.extend(node_labels(it[2]))
    return tuple(out)


def node_lengths(node) -> tuple:
    out = []
    for it in node[1]:
        if it[0] == "edge":
            out.append(it[1])
            out.extend(node_lengths(it[2]))
    return tuple(out)


def node_leaves(node) -> tuple:
    out = []
    for it in node[1]:
        if it[0] == "leaf":
            out.append(it[1])
        else:
            out.extend(node_leaves(it[2]))
    return tuple(out)


def node_view(node) -> tuple[str, list, list, list]:
    """A plain node's tree notation, edge flags, labels and leaves, all
    read in one walk; the same as node_tree(node).notation(),
    node_lengths, node_labels and node_leaves."""
    text: list = []
    flags: list = []
    labels: list = []
    leaves: list = []
    _view(node, text, flags, labels, leaves)
    return "".join(text), flags, labels, leaves


def _view(node, text, flags, labels, leaves) -> None:
    labels.append(node[0])
    text.append("(")
    for k, it in enumerate(node[1]):
        if k:
            text.append(" ")
        if it[0] == "leaf":
            text.append("|")
            leaves.append(it[1])
        else:
            flags.append(it[1])
            _view(it[2], text, flags, labels, leaves)
    text.append(")")


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


def map_labels(node, fn):
    """A plain node with every label replaced by fn(label, valence); fn is
    called on the vertices in depth-first preorder."""
    label, items = node
    label = fn(label, len(items))
    out = []
    for it in items:
        if it[0] == "leaf":
            out.append(it)
        else:
            out.append(("edge", it[1], map_labels(it[2], fn)))
    return (label, tuple(out))


def cut(node, keep) -> tuple[tuple, list]:
    """Read a plain node as a tree of trees: keep(flag) gives the new flag
    of a kept edge, or None to cut the edge.  Returns the root component,
    its leaves numbered in planar order, and the items hanging under it
    in the same order: its leaves, and its cut edges with their children
    left whole."""
    hanging: list = []
    return _cut(node, keep, hanging), hanging


def _cut(nd, keep, hanging: list) -> tuple:
    label, items = nd
    out = []
    for it in items:
        flag = None if it[0] == "leaf" else keep(it[1])
        if flag is None:
            out.append(("leaf", len(hanging)))
            hanging.append(it)
        else:
            out.append(("edge", flag, _cut(it[2], keep, hanging)))
    return (label, tuple(out))


def shapes(arity: int, max_edges: int | None, min_valence: int, symmetric: bool) -> list:
    """The (tree, leaf routings) pairs a construction enumerates in one
    arity, the bare leaf tree left out: one tree per isomorphism class
    with its orbit-least routings when the operad is symmetric, every
    planar tree with the identity routing when it is not."""
    if symmetric:
        return [
            (cls.tree, least_routings(cls.tree))
            for cls in iso_classes(arity, max_edges, min_valence)
            if cls.tree.children is not None
        ]
    identity = [tuple(range(arity))]
    return [
        (tree, identity)
        for tree in enumerate_planar(arity, max_edges, min_valence)
        if tree.children is not None
    ]


# -- graded labeled trees ----------------------------------------------------


@dataclass(frozen=True)
class TreeElement:
    """One element of a tree construction: a canonical plain node (None
    for the unit), its arity and its degree, which is 0 at set level.
    The hash is computed once, on construction: a tuple does not cache
    its own, and every element is hashed as a dictionary key at least
    once."""

    # slots declared by hand: dataclass(slots=True) breaks the frozen
    # __setattr__ for names that are not fields before Python 3.12
    __slots__ = ("arity", "node", "degree", "_hash")

    arity: int
    node: tuple | None
    degree: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.arity, self.node, self.degree)))

    def __hash__(self) -> int:
        return self._hash

    def tree(self) -> PlanarTree:
        return node_tree(self.node)

    def labels(self) -> tuple:
        return node_labels(self.node)

    def vertex_count(self) -> int:
        return 0 if self.node is None else len(node_labels(self.node))


def labeled_trees(Q, arity: int, cap: int | None, shift: int, cost, flags) -> tuple:
    """The trees of one arity labeled by the label source Q, every vertex
    shifted by shift, every edge flagged from flags, whose labels cost at
    most cap in total; in shape, label, flag and routing order.  A flag
    adds itself to the degree.  This is the flattening of label_blocks."""
    return block_elements(arity, label_blocks(Q, arity, cap, shift, cost, flags))


def label_blocks(Q, arity: int, cap: int | None, shift: int, cost, flags) -> list:
    """The blocks of labeled_trees, one per tree shape in order: (tree,
    routings, choices, masks), where choices holds the (labels, degree)
    pairs of the labelings within the cap and masks the tuples of edge
    flags.  Depth-first over label choices: every remaining vertex costs
    at least one unit of the cap, so dead branches prune early."""
    if arity < 1 or (cap is not None and cap < 1):
        return []
    max_edges = cap - 1 if cap is not None else max(arity - 2, 0)
    min_val = 1 if Q.basis(1) else 2
    pools: dict[int, tuple] = {}
    # one list of labelings per valence sequence and one of flag tuples
    # per edge count, each shared by its blocks
    labelings: dict[tuple, list] = {}
    masks: dict[int, list] = {}
    out = []
    for tree, lams in shapes(arity, max_edges, min_val, Q.symmetric):
        vals = tuple(tree.valences())
        if vals not in labelings:
            for v in vals:
                if v not in pools:
                    pools[v] = tuple((lb, deg + shift, cost(lb)) for lb, deg in Q.basis(v))
            labelings[vals] = []
            _choose_labels([pools[v] for v in vals], cap, 0, 0, [], labelings[vals])
        E = tree.edge_count
        if E not in masks:
            masks[E] = list(itertools.product(flags, repeat=E))
        out.append((tree, lams, labelings[vals], masks[E]))
    return out


def block_walk(blocks):
    """The order of the elements of blocks, defined once for every reader:
    (b, li, mi, degree) for block b, labeling li and flag tuple mi, in
    block, label and flag order, each standing for the block's routings
    in order.  A flag adds itself to the degree."""
    weights: dict = {}
    for b, (_, _, choices, masks) in enumerate(blocks):
        # the blocks of one edge count share their list of flag tuples
        w = weights.get(id(masks))
        if w is None:
            w = weights[id(masks)] = [sum(mask) for mask in masks]
        for li, (_, deg) in enumerate(choices):
            for mi, f in enumerate(w):
                yield b, li, mi, deg + f


def block_elements(arity: int, blocks) -> tuple:
    """The elements of the blocks, in the order of block_walk; equal
    subtrees and items become one object."""
    table: dict = {}
    out = []
    for b, li, mi, d in block_walk(blocks):
        tree, lams, choices, masks = blocks[b]
        chosen, mask = choices[li][0], masks[mi]
        for lam in lams:
            node = _assemble(tree, iter(chosen), iter(mask), iter(lam), table)
            out.append(TreeElement(arity, node, d))
    return tuple(out)


def _choose_labels(pools, cap: int | None, used: int, deg: int, chosen: list, out: list) -> None:
    """Append to out each (labels, degree) that extends chosen by one
    (label, degree, cost) entry of every remaining pool, costing at most
    cap in total."""
    j = len(chosen)
    if j == len(pools):
        out.append((tuple(chosen), deg))
        return
    rem = len(pools) - j - 1
    for lb, d, c in pools[j]:
        if cap is not None and used + c + rem > cap:
            continue
        chosen.append(lb)
        _choose_labels(pools, cap, used + c, deg + d, chosen, out)
        chosen.pop()


# -- tagged nodes ------------------------------------------------------------

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


def vertices(nd) -> list:
    """The tagged vertex nodes in depth-first preorder."""
    out: list = []
    _vertices(nd, out)
    return out


def _vertices(nd, out: list) -> None:
    out.append(nd)
    for it in nd[3]:
        if it[0] == "edge":
            _vertices(it[3], out)


def edges(nd):
    """The (parent, slot, child) triples of the edges, depth first: each
    edge comes right before the edges above its child."""
    for slot, it in enumerate(nd[3]):
        if it[0] == "edge":
            yield nd, slot, it[3]
            yield from edges(it[3])


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


def replace_item(nd, parent, slot, item):
    """Replace item slot of the vertex parent of nd by item."""
    items = parent[3][:slot] + (item,) + parent[3][slot + 1 :]
    return graft_replace(nd, parent[0], parent[:3] + (items,))


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
    for the first leaves p and q of the two siblings.  A swap of two
    leafless siblings (stumps) moves no leaf and constrains nothing."""
    got = ROUTING_CACHE.get(tree.encoding)
    if got is None:
        pairs = []
        for gen in aut_generators(tree):
            p = next((r for r, s in enumerate(gen.leaf_perm) if r != s), None)
            if p is not None:
                pairs.append((p, gen.leaf_perm[p]))
        PAIR_CACHE[tree.encoding] = pairs
        got = [
            lam
            for lam in itertools.permutations(range(tree.arity))
            if all(lam[p] < lam[q] for p, q in pairs)
        ]
        ROUTING_CACHE[tree.encoding] = got
    return got
