"""Bar and cobar transforms of reduced chain operads.

Both transforms build labeled trees through one engine that reads its
labels from a label source: symmetric, basis(k) as (label, degree) pairs,
degree_of(k, x), d(k, x), and signed_act(k, x, sigma) returning (label,
sign).  A reduced chain operad is a label source.  The bar side expands
one into trees with every vertex one degree up, and its differential
adds the contraction of each edge.  The expansion, CooperadComplex, is a
label source in turn: the cobar side builds trees of its elements with
every vertex one degree down, and its differential adds the splittings
(splits) of each label.  Both shifts are odd, so one canonical form and
one differential scaffold serve both levels; only the contractions and
the splittings differ.  The element class and the enumerator are the
tagged module's TreeElement and labeled_trees, which the cylinder of
chain_operads shares.

Both differentials are instantiated from templates, as the cylinder's
cube assembler is: the structure terms of an element (its contractions
at the bar level, its splittings at the cobar level) and the splittings
of a bar label depend only on the element's family, its tree, leaf
routing and label parities, so each is computed once per family over
formal labels, those of chain_operads._SymbolicOperad, and instantiated
per labeling.  The cobar is assembled by the cylinder's keyed
assembler, chain_operads._keyed_complex: its basis is integer family
keys and decoded only when read, and this module supplies only a column
filler over those keys.  The per-element _tree_d and _splits stay as the
references the tests compare against.

The composite resolves the operad; this module also matches it against
the cylinder resolution of chain_operads by an explicit basis bijection
and a diagonal sign rescaling, so the two sign disciplines never have to
agree literally, only up to signs.  The rescaling is one union-find with
parity over cell numbers, joined as each entry of the cylinder's
differential and augmentation is read; no constraint is kept.
"""

import functools
import itertools
from dataclasses import dataclass

from . import perms
from .chain_core import ChainComplex, ChainMap, assemble_complex, evaluation_map, graded
from .chain_operads import _instances, _keyed_complex, _SymbolicOperad, w_augmentation, w_pseudo
from .set_operads import InfiniteEnumerationError
from .tagged import (
    TreeElement,
    build_node,
    canon,
    cut,
    edges,
    fresh_uid,
    graft_replace,
    koszul,
    label_blocks,
    labeled_trees,
    leaves,
    map_labels,
    map_leaves,
    node_labels,
    node_leaves,
    node_view,
    replace_item,
    tag,
    untag,
    vertices,
)


# -- the tree engine ---------------------------------------------------------
#
# Both levels use the tagged shape of the tagged module with every edge
# flag 0.  A vertex letter's parity is its label's degree plus one, for
# the shift up to the bar and down to the cobar alike.  Words are the
# vertices in depth-first preorder, and every sign is a Koszul count over
# those words.


def _t_word(nd):
    return [(v[0], v[2]) for v in vertices(nd)]


def _parity(Q):
    return lambda k, label: Q.degree_of(k, label) + 1


def _canon(Q, node):
    if not Q.symmetric:
        return 1, node
    t0 = tag(node, _parity(Q))
    sign, t1 = canon(Q.signed_act, t0)
    return sign * koszul(_t_word(t0), _t_word(t1)), untag(t1)


def _tree_d(Q, x: TreeElement, terms) -> dict:
    """The shifted boundary of each label, prefix counted exclusively,
    plus the structure terms(Q, nd, w0) yields as (plain node,
    coefficient) pairs; every result canonicalized.  The per-element
    reference for the templated differentials of both levels."""
    nd = tag(x.node, _parity(Q))

    def label_terms():
        s = 1
        for uid, label, par, items in vertices(nd):
            for y, c in Q.d(len(items), label).items():
                yield untag(graft_replace(nd, uid, (uid, y, par, items))), -s * c
            s = -s if par else s

    acc: dict[TreeElement, int] = {}
    for node, c in itertools.chain(label_terms(), terms(Q, nd, _t_word(nd))):
        if c:
            sign, rep = _canon(Q, node)
            key = TreeElement(x.arity, rep, x.degree - 1)
            acc[key] = acc.get(key, 0) + c * sign
    return {k: v for k, v in acc.items() if v}


def _merge(P, nd, w0, parent, slot, child, shift: int):
    """Compose the child into its parent: the tagged results, each with
    the sign of moving the child letter past the letters between the two
    and the Koszul sign of the merged word.  The merged letter's parity
    is the sum of the two plus shift."""
    puid, pname, ppar, pitems = parent
    cuid, cname, cpar, citems = child
    uids = [u for u, _ in w0]
    between = sum(p for _, p in w0[uids.index(puid) + 1 : uids.index(cuid)]) & 1
    move = -1 if (cpar and between) else 1
    mpar = (ppar + cpar + shift) & 1
    mid = [(u, mpar if u == puid else p) for u, p in w0 if u != cuid]
    for zname, c in P.compose(len(pitems), slot, pname, len(citems), cname).items():
        merged = (puid, zname, mpar, pitems[:slot] + citems + pitems[slot + 1 :])
        nd2 = graft_replace(nd, puid, merged)
        yield nd2, move * c * koszul(mid, _t_word(nd2))


# -- templates ---------------------------------------------------------------
#
# A family is a tree shape, a leaf routing and the parities of its labels.
# The canonical sort reads shapes and leaves and never a label, and every
# sign but a label's own reads parities only, so the structure terms of
# both differentials (a contraction at the bar level, a splitting at the
# cobar level) and the splittings of a bar label are computed once per
# family over formal labels, those of chain_operads._SymbolicOperad, and
# instantiated per labeling.  Templates live for one CooperadComplex or
# one cobar call.


def _fill(node, labels) -> tuple:
    """node with its labels replaced by labels, in preorder."""
    it = iter(labels)
    return map_labels(node, lambda label, valence: next(it))


def _slots(exprs) -> list:
    """Formal labels that are vertex labels, each twisted at most once by
    the canonical sort, as (vertex, arity, permutation) triples; arity
    and permutation are None for a label left as it is."""
    return [(e[2], None, None) if e[0] == "x" else (e[3][2], e[2], e[4]) for e in exprs]


def _relabel(act, slots, labels) -> tuple:
    """The sign and the labels that slots take when vertex v is labeled
    labels[v]; act(arity, label, permutation) -> (label, sign)."""
    sign = 1
    names = []
    for v, n, sigma in slots:
        y = labels[v]
        if sigma is not None:
            y, s = act(n, y, sigma)
            sign *= s
        names.append(y)
    return sign, tuple(names)


def _prefix_signs(pars) -> list:
    """The sign of the odd letters before each letter of a word whose
    letters have the parities pars."""
    out, s = [], 1
    for p in pars:
        out.append(s)
        s = -s if p & 1 else s
    return out


# -- the inner level ---------------------------------------------------------


def _contractions(P, nd, w0):
    """One term per edge: the child composed into its parent, with the
    prefix through the parent counted inclusively."""
    pre, s = {}, 1
    for u, p in w0:
        s = -s if p else s
        pre[u] = s
    for parent, slot, child in edges(nd):
        for nd2, c in _merge(P, nd, w0, parent, slot, child, 1):
            yield untag(nd2), pre[parent[0]] * c


def _bar_degree(P, node) -> int:
    label, items = node
    deg = P.degree_of(len(items), label) + 1
    for it in items:
        if it[0] == "edge":
            deg += _bar_degree(P, it[2])
    return deg


def _mk_bar(P, node) -> TreeElement:
    return TreeElement(len(node_leaves(node)), node, _bar_degree(P, node))


def _split_nodes(Q, node) -> list:
    """Quadratic cocomposition of a plain node, upper factor first: one
    term per edge, (sign, upper, slot, lower, routing) with both factors
    canonical plain nodes and the routing the leaf tuple of the standard
    two-vertex composite rebuilding the node."""
    nd = tag(node, _parity(Q))
    w0 = _t_word(nd)
    out = []
    for parent, slot, child in edges(nd):
        block = {u for u, _ in _t_word(child)}
        last = max(i for i, (u, _) in enumerate(w0) if u in block)
        block_par = sum(p for u, p in w0 if u in block) & 1
        tail_par = sum(p for _, p in w0[last + 1 :]) & 1
        ksign = -1 if (block_par and tail_par) else 1
        S = sorted(leaves(child))
        sl, lower = _canon(Q, map_leaves(untag(child), {v: j for j, v in enumerate(S)}))
        upper_t = replace_item(nd, parent, slot, ("leaf", S[0]))
        U = sorted(leaves(upper_t))
        su, upper = _canon(Q, map_leaves(untag(upper_t), {v: j for j, v in enumerate(U)}))
        i = U.index(S[0])
        out.append((ksign * sl * su, upper, i, lower, tuple(U[:i] + S + U[i + 1 :])))
    return out


def _splits(P, x: TreeElement) -> list:
    """The per-element reference for CooperadComplex.splits."""
    return [(s, _mk_bar(P, up), i, _mk_bar(P, low), lam2) for s, up, i, low, lam2 in _split_nodes(P, x.node)]


def _bar_family(P, node, pars) -> tuple:
    """The template of the family of a bar tree whose labels have the
    parities pars: the prefix sign of each vertex letter; per contraction
    (sign, canonical formal node, its formal labels in preorder); per
    split (sign, upper node, its labels as _slots, slot, lower node, its
    labels as _slots, routing, arity of the lower factor)."""
    F = _SymbolicOperad(P.symmetric)
    formal = _fill(node, [("x", p, v) for v, p in enumerate(pars)])
    nd = tag(formal, _parity(F))
    contractions = []
    for node2, c in _contractions(F, nd, _t_word(nd)):
        sign, rep = _canon(F, node2)
        contractions.append((c * sign, rep, node_labels(rep)))
    splits = []
    for sign, upper, slot, lower, lam2 in _split_nodes(F, formal):
        up, low = _slots(node_labels(upper)), _slots(node_labels(lower))
        splits.append((sign, upper, up, slot, lower, low, lam2, len(node_leaves(lower))))
    return _prefix_signs([p + 1 for p in pars]), contractions, splits


class CooperadComplex:
    """Tree expansion of the bar transform: per arity a chain complex,
    plus the cocomposition structure the cobar side consumes.  It is a
    label source like the operad it expands.  The differential and the
    splittings of an element are instantiated from the template of its
    family, built on first use and kept by this expansion."""

    def __init__(self, P, max_arity: int, vertex_cap: int | None = None):
        if P.basis(0):
            raise ValueError("the bar transform needs an operad with empty arity 0")
        if P.basis(1) and vertex_cap is None:
            raise InfiniteEnumerationError(
                "unary labels allow arbitrarily tall trees; give a vertex cap"
            )
        self.operad = P
        self.name = P.name
        self.symmetric = P.symmetric
        self.max_arity = max_arity
        self.vertex_cap = vertex_cap
        self._elements: dict[int, tuple] = {}
        self._pieces: dict[int, ChainComplex] = {}
        # (tree notation, leaves) -> (valences, {label parities: template})
        self._families: dict[tuple, tuple] = {}

    def elements(self, k: int) -> tuple:
        if k not in self._elements:
            self._elements[k] = self.elements_within(k, None)
        return self._elements[k]

    def elements_within(self, k: int, vertices: int | None) -> tuple:
        """The elements of arity k with at most vertices vertices (no
        bound for None), in the order of elements(k), enumerated afresh:
        each vertex costs one unit of the cap."""
        cap = self.vertex_cap
        if vertices is not None and (cap is None or vertices < cap):
            cap = vertices
        return labeled_trees(self.operad, k, cap, 1, lambda name: 1, (0,))

    def basis(self, k: int) -> tuple:
        return tuple((x, x.degree) for x in self.elements(k))

    def degree_of(self, k: int, x: TreeElement) -> int:
        return x.degree

    def piece(self, k: int) -> ChainComplex:
        if k not in self._pieces:
            C = assemble_complex(graded(self.basis(k)), lambda x: self.d(k, x))
            C.meta = {
                "arity": k,
                "vertex_cap": self.vertex_cap,
                "operad": self.name,
                "construction": "bar",
            }
            self._pieces[k] = C
        return self._pieces[k]

    def _family(self, x: TreeElement) -> tuple:
        """The template of x's family, and x's labels, their valences and
        their degrees, in preorder."""
        P = self.operad
        text, _, labels, lvs = node_view(x.node)
        shape = self._families.get((text, tuple(lvs)))
        if shape is None:
            shape = self._families[(text, tuple(lvs))] = (x.tree().valences(), {})
        vals, templates = shape
        degs = [P.degree_of(v, name) for v, name in zip(vals, labels)]
        pars = tuple(d & 1 for d in degs)
        template = templates.get(pars)
        if template is None:
            template = templates[pars] = _bar_family(P, x.node, pars)
        return template, tuple(labels), vals, degs

    def d(self, k: int, x: TreeElement, family: tuple | None = None) -> dict:
        """Inner differential plus one contraction per edge.  family is
        _family(x) when the caller has it already."""
        P = self.operad
        (prefix, contractions, _), labels, vals, _ = family or self._family(x)
        acc: dict[TreeElement, int] = {}
        for v, (val, name) in enumerate(zip(vals, labels)):
            for z, c in P.d(val, name).items():
                # a relabeled canonical tree is canonical
                y = TreeElement(x.arity, _fill(x.node, labels[:v] + (z,) + labels[v + 1 :]), x.degree - 1)
                acc[y] = acc.get(y, 0) - prefix[v] * c
        memo: dict = {}
        for sign, rep, exprs in contractions:
            for c, names in _instances(P, exprs, labels, memo):
                y = TreeElement(x.arity, _fill(rep, names), x.degree - 1)
                acc[y] = acc.get(y, 0) + sign * c
        return {y: c for y, c in acc.items() if c}

    def signed_act(self, k: int, x: TreeElement, sigma) -> tuple:
        """Right action on a bar element: reroute the leaves, recanonize."""
        sigma = tuple(sigma)
        if sigma == perms.identity(k):
            return x, 1
        if not self.symmetric:
            raise ValueError("non-symmetric bar element acted on by a permutation")
        s, node = _canon(self.operad, map_leaves(x.node, sigma))
        return TreeElement(k, node, x.degree), s

    def splits(self, x: TreeElement, family: tuple | None = None) -> list:
        """Quadratic cocomposition, upper factor first.

        One term per edge: (sign, upper, slot, lower, routing) where the
        routing is the leaf tuple of the standard two-vertex composite
        rebuilding the original element.  family is _family(x) when the
        caller has it already."""
        P = self.operad
        (_, _, splits), labels, _, degs = family or self._family(x)
        out = []
        for sign, upper, upper_slots, slot, lower, lower_slots, lam2, m in splits:
            cu, up = _relabel(P.signed_act, upper_slots, labels)
            cl, low = _relabel(P.signed_act, lower_slots, labels)
            low_deg = sum(degs[v] + 1 for v, _, _ in lower_slots)
            out.append((
                sign * cu * cl,
                TreeElement(x.arity - m + 1, _fill(upper, up), x.degree - low_deg),
                slot,
                TreeElement(m, _fill(lower, low), low_deg),
                lam2,
            ))
        return out


def bar(P, arity: int, vertex_cap: int | None = None) -> CooperadComplex:
    """Expand a reduced operad into its tree cooperad, vertices one
    degree up, edge contraction as the extra differential."""
    return CooperadComplex(P, arity, vertex_cap)


# -- twisting cochains -------------------------------------------------------


@dataclass
class TwistingCochain:
    """Degree -1 collection map from bar elements to operad elements."""

    cooperad: CooperadComplex
    values: dict

    def value(self, x: TreeElement) -> dict:
        return self.values.get(x, {})


def bar_counit(C: CooperadComplex) -> TwistingCochain:
    """Projection onto the single-vertex trees."""
    vals = {}
    for k in range(1, C.max_arity + 1):
        for x in C.elements_within(k, 1):
            vals[x] = {x.node[0]: 1}
    return TwistingCochain(C, vals)


def check_twisting(tau: TwistingCochain) -> list[str]:
    """Exact comparison of the boundary of tau with its cup square.

    The identity is evaluated only where tau's support reaches.  Let m be
    the largest vertex count among the elements tau has a value on.  A
    term of the bar differential of x has as many vertices as x (a label
    boundary) or one fewer (a contraction), and every split of x into an
    upper and a lower factor shares x's vertices between the two, at
    least one each.  So when x has more than max(m + 1, 2m) vertices,
    tau(x), tau(dx) and the cup square at x all vanish and the identity
    holds at x; those x are never enumerated.  Neither are they read by
    the degree check, since tau has no value there (m is at most the
    reach)."""
    C = tau.cooperad
    P = C.operad
    m = max((x.vertex_count() for x in tau.values), default=0)
    reach = max(m + 1, 2 * m)
    bad: list[str] = []
    for k in range(1, C.max_arity + 1):
        deg_of = {nm: d for nm, d in P.basis(k)}
        within = C.elements_within(k, reach)
        for x in within:
            for nm in tau.value(x):
                if deg_of.get(nm) != x.degree - 1:
                    bad.append(
                        f"arity {k} degree {x.degree}: value {nm} is not one degree down"
                    )
        for x in within:
            # one family lookup serves the differential and the splits of x
            family = C._family(x)
            lhs: dict = {}
            for nm, c in tau.value(x).items():
                for z, c2 in P.d(k, nm).items():
                    lhs[z] = lhs.get(z, 0) + c * c2
            for y, c in C.d(k, x, family).items():
                for z, c2 in tau.value(y).items():
                    lhs[z] = lhs.get(z, 0) + c * c2
            rhs: dict = {}
            for sgn, up, i, low, lam2 in C.splits(x, family):
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


# -- the outer level ---------------------------------------------------------


def _split_at(nd, w0, vertex, split) -> tuple:
    """Split a vertex of nd, whose word is w0: split is (upper, upper
    degree, slot, lower, lower degree, lower arity, routing).  The upper
    factor takes the vertex, and the lower one grafts above it at slot,
    over the vertex's items routed by the routing.  Returns the plain
    node and its sign, prefix not counted."""
    up, up_deg, slot, low, low_deg, m, lam2 = split
    uid, _, _, items = vertex
    i = next(j for j, (u, _) in enumerate(w0) if u == uid)
    low_uid = fresh_uid()
    low_par = (low_deg + 1) & 1
    up_par = (up_deg + 1) & 1
    routed = tuple(items[g] for g in lam2)
    lower = ("edge", fresh_uid(), 0, (low_uid, low, low_par, routed[slot : slot + m]))
    upper_items = routed[:slot] + (lower,) + routed[slot + m :]
    nd2 = graft_replace(nd, uid, (uid, up, up_par, upper_items))
    natural = w0[:i] + [(uid, up_par), (low_uid, low_par)] + w0[i + 1 :]
    tk = -1 if up_deg & 1 else 1
    return untag(nd2), tk * koszul(natural, _t_word(nd2))


def _splittings(C, nd, w0):
    """One term per splitting of each label: the upper factor takes the
    vertex and the lower factor grafts above it, prefix counted
    exclusively."""
    s = 1
    for vertex in vertices(nd):
        for sgn, up, slot, low, lam2 in C.splits(vertex[1]):
            node, c = _split_at(nd, w0, vertex, (up, up.degree, slot, low, low.degree, low.arity, lam2))
            yield node, s * sgn * c
        s = -s if vertex[2] else s


def _split_template(F, tree, lam, pars, v, shape, fams) -> tuple:
    """The splitting of vertex v of the outer tree tree, routed by lam,
    whose labels have the degree parities pars, by a split of shape
    (upper arity, slot, routing, upper parity), over formal labels: label
    u is formal label u, and the upper and lower factors are V and V + 1
    for V vertices.  Returns (sign, block, notation, routing, slots) with
    the prefix counted: the canonical result's block in fams (None
    outside it), tree notation and routing, and its labels in preorder,
    as _slots gives them."""
    up_arity, slot, lam2, up_par = shape
    V = len(pars)
    formal = build_node(tree, [("x", p, u) for u, p in enumerate(pars)], [0] * tree.edge_count, lam)
    nd = tag(formal, _parity(F))
    w0 = _t_word(nd)
    vertex = vertices(nd)[v]
    low_par = pars[v] ^ up_par
    m = len(vertex[3]) - up_arity + 1
    split = (("x", up_par, V), up_par, slot, ("x", low_par, V + 1), low_par, m, lam2)
    node, c = _split_at(nd, w0, vertex, split)
    sign, rep = _canon(F, node)
    text, _, exprs, lvs = node_view(rep)
    prefix = _prefix_signs([p + 1 for p in pars])[v]
    return prefix * c * sign, fams.block_of.get(text), text, tuple(lvs), _slots(exprs)


def cobar(C, arity: int, cap: int | None = None) -> ChainComplex:
    """One arity piece of the operad rebuilt from a cooperad: any label
    source with splits, expanded up to max_arity under vertex_cap.

    The cap bounds the total vertex count across all labels of one
    element; it must not exceed what the cooperad was expanded with."""
    if arity > C.max_arity:
        raise ValueError("cooperad not expanded far enough for this arity")
    if cap is None and C.vertex_cap is not None:
        raise ValueError("capped cooperad cannot support an uncapped expansion")
    if cap is not None and C.vertex_cap is not None and C.vertex_cap < cap:
        raise ValueError("cooperad vertex cap is smaller than the requested cap")

    def left(x, y):
        return f"the cobar differential of {_cobar_key(x)} leaves the basis of degree {y.degree} at {_cobar_key(y)}"

    # labeled_trees, kept by block
    blocks = label_blocks(C, arity, cap, -1, lambda label: label.vertex_count(), (0,))
    X = _keyed_complex(arity, blocks, False, _cobar_columns(C), left)
    X.meta = {
        "arity": arity,
        "cap": cap,
        "operad": C.name,
        "construction": "cobar",
    }
    return X


def _cobar_columns(C):
    """The column filler of the cobar differential.  A label term only
    relabels one vertex, so it stays canonical; a split term is
    instantiated from the template of its outer family (block, routing,
    label parities), vertex and split shape.  The bar boundary and
    splittings of each label and the twists of the labels are computed
    once per filler, the templates once per block."""
    F = _SymbolicOperad(C.symmetric)
    bar_d, splits, act = (functools.lru_cache(maxsize=None)(f) for f in (C.d, C.splits, C.signed_act))

    def fill(fams, b):
        tree, lams, choices, _ = fams.blocks[b]
        R = len(lams)
        notation = fams.notations[b]
        templates: dict = {}
        for li, (labels, d) in enumerate(choices):
            pars = tuple(x.degree & 1 for x in labels)
            prefix = _prefix_signs([p + 1 for p in pars])
            for ri, lam in enumerate(lams):
                own = (fams.base[b] + li * R + ri) << fams.width
                col: dict = {}
                for v, x in enumerate(labels):
                    for y, c in bar_d(x.arity, x).items():
                        key = fams.fid(b, notation, labels[:v] + (y,) + labels[v + 1 :], lam) << fams.width
                        col[key] = col.get(key, 0) - prefix[v] * c
                    for sgn, up, slot, low, lam2 in splits(x):
                        shape = (up.arity, slot, lam2, up.degree & 1)
                        t = templates.get((ri, pars, v, shape))
                        if t is None:
                            t = templates[(ri, pars, v, shape)] = _split_template(F, tree, lam, pars, v, shape, fams)
                        sign, b2, text, lvs, slots = t
                        s, names = _relabel(act, slots, labels + (up, low))
                        key = fams.fid(b2, text, names, lvs) << fams.width
                        col[key] = col.get(key, 0) + sign * sgn * s
                yield d, own, col

    return fill


# -- the counit down to the operad -------------------------------------------


def _flat_eval(P, flat, n: int) -> dict:
    """Operadic value of a tree of operad labels with a leaf routing."""
    work = [(1, tag(flat, P.degree_of))]
    done: dict[str, int] = {}
    while work:
        c, nd = work.pop()
        edge = next(edges(nd), None)
        if edge is None:
            for w, c2 in P.act(n, nd[1], tuple(leaves(nd))).items():
                done[w] = done.get(w, 0) + c * c2
            continue
        for nd2, c2 in _merge(P, nd, _t_word(nd), *edge, 0):
            work.append((c * c2, nd2))
    return {k: v for k, v in done.items() if v}


def _counit_value(P, X: TreeElement) -> dict:
    """Project every label to its single vertex, then compose."""
    if any(label.vertex_count() > 1 for label in X.labels()):
        return {}
    flat = map_labels(X.node, lambda lab, val: lab.labels()[0])
    return _flat_eval(P, flat, X.arity)


def cobar_bar_counit(P, CB: ChainComplex) -> ChainMap:
    """The chain map from the cobar-of-bar piece onto the operad piece."""
    return evaluation_map(CB, P.complex(CB.meta["arity"]), lambda X: _counit_value(P, X))


# -- comparison with the cylinder --------------------------------------------


def _w_key(x) -> str:
    if x.node is None:
        return "|"
    text, flags, labels, leaves = node_view(x.node)
    marked = ",".join(str(i) for i, f in enumerate(flags) if f)
    return f"{text} g[{marked}] l[{','.join(labels)}] c[{','.join(map(str, leaves))}]"


def _bar_key(b: TreeElement) -> str:
    text, _, labels, leaves = node_view(b.node)
    return f"{text} l[{','.join(labels)}] c[{','.join(map(str, leaves))}]"


def _cobar_key(X: TreeElement) -> str:
    return _cobar_node_key(X.node)


def _cobar_node_key(nd) -> str:
    label, items = nd
    parts = []
    for it in items:
        parts.append(str(it[1]) if it[0] == "leaf" else _cobar_node_key(it[2]))
    return "<" + _bar_key(label) + " : " + " ".join(parts) + ">"


def _w_to_cobar(P, C: CooperadComplex, x, labels: dict | None = None) -> TreeElement:
    """Read a cylinder element as a tree of trees: marked components
    become bar labels, unmarked edges become outer edges.  Unsigned;
    the rescaling search owns all signs.  labels keeps the bar label of
    each marked component met, so a caller reading many elements reads
    each distinct component once."""
    _, onode = _canon(C, _marked_components(P, x.node, {} if labels is None else labels))
    return TreeElement(x.arity, onode, x.degree)


def _marked_components(P, flat, labels: dict) -> tuple:
    inner, hanging = cut(flat, lambda f: 0 if f else None)
    label = labels.get(inner)
    if label is None:
        _, rep = _canon(P, inner)
        label = labels[inner] = _mk_bar(P, rep)
    items = (it if it[0] == "leaf" else ("edge", 0, _marked_components(P, it[2], labels)) for it in hanging)
    return (label, tuple(items))


def _root(up: list, sign: list, a: int) -> tuple:
    """The root of cell a in the parity union-find (up, sign), where
    sign[c] is the sign of cell c relative to cell up[c], and the sign of
    a relative to that root.  Iterative; every cell on the path is then
    linked to the root directly."""
    path = []
    while up[a] != a:
        path.append(a)
        a = up[a]
    s = 1
    for c in reversed(path):
        s *= sign[c]
        up[c], sign[c] = a, s
    return a, s


def _join(up: list, sign: list, a: int, b: int, req: int) -> bool:
    """Require sign(a) * sign(b) == req; False, with nothing changed, if
    the union-find already forces the opposite.  The larger root goes
    under the smaller, so the root of each class is its least cell."""
    ra, sa = _root(up, sign, a)
    rb, sb = _root(up, sign, b)
    if ra == rb:
        return sa * sb == req
    up[max(ra, rb)], sign[max(ra, rb)] = min(ra, rb), sa * sb * req
    return True


def compare_w_barcobar(P, arity: int, edge_cap: int | None = None) -> dict:
    """Match the cylinder piece with the cobar-of-bar piece.

    An edge cap of c on the cylinder side corresponds to capping the
    total vertex count across the inner trees at c + 1; both sides are
    built under that correspondence.  The report has the keys of the
    other comparators' reports, "status" ("iso" or "fail") and
    "witness", and carries the degreewise basis "bijection" and a
    diagonal sign "rescaling" that equates the two differentials and is
    compatible with the two augmentations; a failed report carries
    neither.

    Cell first[k] + j is element j of W's degree k and cell 0 is +1.  A
    cell's sign is read relative to the least cell of its class: cell 0
    where the class has an augmentation vote, else its first element."""
    vcap = None if edge_cap is None else edge_cap + 1
    C = bar(P, arity, vcap)
    CB = cobar(C, arity, vcap)
    # past this point C only twists labels, which reads no family template
    C._families.clear()
    # built last, so that the cobar's build does not hold it
    W = w_pseudo(P, arity, edge_cap)

    def fail(msg):
        return {"bijection": [], "rescaling": {}, "status": "fail", "witness": msg}

    degs = sorted(set(W.degrees()) | set(CB.degrees()))
    for k in degs:
        if W.dim(k) != CB.dim(k):
            return fail(f"rank mismatch in degree {k}: {W.dim(k)} vs {CB.dim(k)}")
    # phi[k][j]: the position of the image of element j of degree k
    phi: dict = {}
    first: dict = {}
    bij = []
    components: dict = {}
    for k in degs:
        first[k] = len(bij) + 1
        images = phi[k] = []
        seen = set()
        here = CB.positions(k)
        for x in W.basis_of(k):
            y = _w_to_cobar(P, C, x, components)
            i = here.get(y)
            if i is None:
                return fail(f"image of {_w_key(x)} is not a basis element")
            if i in seen:
                return fail(f"two degree {k} elements share the image {_cobar_key(y)}")
            seen.add(i)
            images.append(i)
            bij.append([_w_key(x), _cobar_key(y)])

    up = list(range(len(bij) + 1))
    sign = [1] * len(up)
    for k in degs:
        if k - 1 not in phi:
            continue
        B = CB.diff(k).data
        xs, rows = W.basis_of(k), phi[k - 1]
        for j, cola in enumerate(W.diff(k).data):
            colb = B[phi[k][j]]
            if len(cola) != len(colb) or any(rows[r] not in colb for r in cola):
                return fail(f"differential support differs at {_w_key(xs[j])}")
            for r, v in cola.items():
                w = colb[rows[r]]
                if abs(v) != abs(w):
                    return fail(f"differential magnitude differs at {_w_key(xs[j])}")
                if not _join(up, sign, first[k] + j, first[k - 1] + r, 1 if (v > 0) == (w > 0) else -1):
                    return fail(f"no diagonal rescaling: cycle conflict at {_w_key(xs[j])}")

    gamma = w_augmentation(P, W)
    counit = cobar_bar_counit(P, CB)
    for k in degs:
        cm = counit.mat(k).data
        xs = W.basis_of(k)
        for j, colg in enumerate(gamma.mat(k).data):
            colc = cm[phi[k][j]]
            if colg.keys() != colc.keys():
                return fail(f"augmentation support differs at {_w_key(xs[j])}")
            ratios = set()
            for r, v in colg.items():
                if abs(v) != abs(colc[r]):
                    return fail(f"augmentation magnitude differs at {_w_key(xs[j])}")
                ratios.add(1 if (v > 0) == (colc[r] > 0) else -1)
            if len(ratios) > 1:
                return fail(f"augmentation rows conflict at {_w_key(xs[j])}")
            if ratios and not _join(up, sign, first[k] + j, 0, ratios.pop()):
                return fail("augmentation constraints conflict inside one component")

    # bij lists the cylinder elements in the order of their cells
    rescaling = {key: _root(up, sign, c)[1] for c, (key, _) in enumerate(bij, 1)}
    return {"bijection": bij, "rescaling": rescaling, "status": "iso", "witness": None}
