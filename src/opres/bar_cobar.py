"""Bar and cobar transforms of reduced chain operads.

The bar side expands an operad into labeled trees, one extra degree per
vertex, with a differential that contracts edges and composes labels.
The cobar side rebuilds an operad complex out of trees whose vertices
carry bar elements, shifted one degree down, with a differential that
splits them apart again.  The composite resolves the operad; this module
also matches it against the cylinder resolution of chain_operads by an
explicit basis bijection and a diagonal sign rescaling, so the two sign
disciplines never have to agree literally, only up to signs.
"""

import itertools
from dataclasses import dataclass

from . import perms
from .chain_core import ZZ, ChainComplex, ChainMap, assemble_complex, mat_from_columns
from .chain_operads import w_augmentation, w_pseudo
from .set_operads import InfiniteEnumerationError
from .tagged import (
    build_node,
    canon,
    edges,
    fresh_uid,
    graft_replace,
    koszul,
    leaves,
    map_labels,
    map_leaves,
    node_labels,
    node_leaves,
    node_lengths,
    node_tree,
    replace_item,
    shapes,
    tag,
    untag,
    vertices,
)
from .trees import PlanarTree


# -- tagged trees ------------------------------------------------------------
#
# Both levels use the tagged shape of the tagged module with every edge
# flag 0.  At the inner level labels are operad element names with parity
# shifted up one; at the outer level labels are whole bar elements with
# parity shifted down one.  Words are the vertices in depth-first
# preorder, and every sign is a Koszul count over those words.


def _t_word(nd):
    out = [(nd[0], nd[2])]
    for it in nd[3]:
        if it[0] == "edge":
            out.extend(_t_word(it[3]))
    return out


# -- the inner level ---------------------------------------------------------


@dataclass(frozen=True)
class BarElement:
    """One bar basis element: a labeled tree with every vertex one
    degree up, and a leaf routing."""

    arity: int
    node: tuple
    degree: int

    def tree(self) -> PlanarTree:
        return node_tree(self.node)

    def labels(self) -> tuple:
        return node_labels(self.node)

    def leaves(self) -> tuple:
        return node_leaves(self.node)


def _bar_degree(P, node) -> int:
    label, items = node
    deg = P.degree_of(len(items), label) + 1
    for it in items:
        if it[0] == "edge":
            deg += _bar_degree(P, it[2])
    return deg


def _mk_bar(P, node) -> BarElement:
    return BarElement(len(node_leaves(node)), node, _bar_degree(P, node))


def _shifted_up(P):
    """Parity of an inner vertex: its label one degree up."""
    return lambda k, name: P.degree_of(k, name) + 1


def _bar_canon(P, node):
    if not P.symmetric:
        return 1, node
    t0 = tag(node, _shifted_up(P))
    sign, t1 = canon(P.signed_act, t0)
    return sign * koszul(_t_word(t0), _t_word(t1)), untag(t1)


def _bar_d(P, x: BarElement) -> dict:
    """Inner differential plus one contraction per edge.

    The label part carries the usual shift sign; a contraction consumes
    the child letter next to its parent, prefix counted inclusively."""
    nd = tag(x.node, _shifted_up(P))
    w0 = _t_word(nd)
    pos = {u: i for i, (u, _) in enumerate(w0)}
    acc: dict[BarElement, int] = {}

    def add(node, c):
        if not c:
            return
        sign, rep = _bar_canon(P, node)
        key = BarElement(x.arity, rep, x.degree - 1)
        acc[key] = acc.get(key, 0) + c * sign

    for uid, name, par, items in vertices(nd):
        pre = sum(p for _, p in w0[: pos[uid]]) & 1
        s = -1 if pre else 1
        for zname, c in P.d(len(items), name).items():
            nd2 = graft_replace(nd, uid, (uid, zname, (par + 1) & 1, items))
            add(untag(nd2), -s * c)

    for parent, slot, child in edges(nd):
        puid, pname, ppar, pitems = parent
        cuid, cname, cpar, citems = child
        ia, ib = pos[puid], pos[cuid]
        pre = sum(p for _, p in w0[: ia + 1]) & 1
        between = sum(p for _, p in w0[ia + 1 : ib]) & 1
        s = (-1 if pre else 1) * (-1 if (cpar and between) else 1)
        mpar = (ppar + cpar + 1) & 1
        mid = [(u, mpar if u == puid else p) for u, p in w0 if u != cuid]
        for zname, c in P.compose(len(pitems), slot, pname, len(citems), cname).items():
            merged = (puid, zname, mpar, pitems[:slot] + citems + pitems[slot + 1 :])
            nd2 = graft_replace(nd, puid, merged)
            add(untag(nd2), s * c * koszul(mid, _t_word(nd2)))
    return {k: v for k, v in acc.items() if v}


class CooperadComplex:
    """Tree expansion of the bar transform: per arity a chain complex,
    plus the cocomposition structure the cobar side consumes."""

    def __init__(self, P, max_arity: int, vertex_cap: int | None = None):
        if P.basis(0):
            raise ValueError("the bar transform needs an operad with empty arity 0")
        if P.basis(1) and vertex_cap is None:
            raise InfiniteEnumerationError(
                "unary labels allow arbitrarily tall trees; give a vertex cap"
            )
        self.operad = P
        self.max_arity = max_arity
        self.vertex_cap = vertex_cap
        self._basis: dict[int, tuple] = {}
        self._pieces: dict[int, ChainComplex] = {}

    def basis(self, k: int) -> tuple:
        if k not in self._basis:
            self._basis[k] = self._enumerate(k)
        return self._basis[k]

    def _enumerate(self, k: int) -> tuple:
        P = self.operad
        if k < 1 or (self.vertex_cap is not None and self.vertex_cap < 1):
            return ()
        cap = self.vertex_cap - 1 if self.vertex_cap is not None else max(k - 2, 0)
        min_val = 1 if P.basis(1) else 2
        out = []
        for tree, lams in shapes(k, cap, min_val, P.symmetric):
            pools = [P.basis(v) for v in tree.valences()]
            if not all(pools):
                continue
            for labels in itertools.product(*pools):
                names = tuple(nm for nm, _ in labels)
                deg = sum(d for _, d in labels) + tree.vertex_count
                for lam in lams:
                    node = build_node(tree, names, (0,) * tree.edge_count, lam)
                    out.append(BarElement(k, node, deg))
        return tuple(out)

    def piece(self, k: int) -> ChainComplex:
        if k not in self._pieces:
            C = assemble_complex(
                self.basis(k),
                lambda xs: [self.d(x) for x in xs],
                lambda x, y: "boundary left the basis in the bar expansion",
            )
            C.meta = {
                "arity": k,
                "vertex_cap": self.vertex_cap,
                "operad": self.operad.name,
                "construction": "bar",
            }
            self._pieces[k] = C
        return self._pieces[k]

    def d(self, x: BarElement) -> dict:
        return _bar_d(self.operad, x)

    def act(self, x: BarElement, sigma):
        """Right action on a bar element: reroute the leaves, recanonize."""
        sigma = tuple(sigma)
        if sigma == perms.identity(x.arity):
            return 1, x
        if not self.operad.symmetric:
            raise ValueError("non-symmetric bar element acted on by a permutation")
        s, node = _bar_canon(self.operad, map_leaves(x.node, sigma))
        return s, BarElement(x.arity, node, x.degree)

    def splits(self, x: BarElement) -> list:
        """Quadratic cocomposition, upper factor first.

        One term per edge: (sign, upper, slot, lower, routing) where the
        routing is the leaf tuple of the standard two-vertex composite
        rebuilding the original element."""
        P = self.operad
        nd = tag(x.node, _shifted_up(P))
        w0 = _t_word(nd)
        out = []
        for parent, slot, child in edges(nd):
            block = {u for u, _ in _t_word(child)}
            last = max(i for i, (u, _) in enumerate(w0) if u in block)
            block_par = sum(p for u, p in w0 if u in block) & 1
            tail_par = sum(p for _, p in w0[last + 1 :]) & 1
            ksign = -1 if (block_par and tail_par) else 1
            S = sorted(leaves(child))
            lower_raw = map_leaves(untag(child), {v: j for j, v in enumerate(S)})
            sl, lower_node = _bar_canon(P, lower_raw)
            low = _mk_bar(P, lower_node)
            upper_t = replace_item(nd, parent, slot, ("leaf", S[0]))
            U = sorted(leaves(upper_t))
            su, upper_node = _bar_canon(
                P, map_leaves(untag(upper_t), {v: j for j, v in enumerate(U)})
            )
            up = _mk_bar(P, upper_node)
            i = U.index(S[0])
            lam2 = tuple(U[:i] + S + U[i + 1 :])
            out.append((ksign * sl * su, up, i, low, lam2))
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

    def value(self, x: BarElement) -> dict:
        return self.values.get(x, {})


def bar_counit(C: CooperadComplex) -> TwistingCochain:
    """Projection onto the single-vertex trees."""
    vals = {}
    for k in range(1, C.max_arity + 1):
        for x in C.basis(k):
            if x.tree().edge_count == 0:
                vals[x] = {x.labels()[0]: 1}
    return TwistingCochain(C, vals)


def check_twisting(tau: TwistingCochain) -> list[str]:
    """Exact comparison of the boundary of tau with its cup square."""
    C = tau.cooperad
    P = C.operad
    bad: list[str] = []
    for k in range(1, C.max_arity + 1):
        deg_of = {nm: d for nm, d in P.basis(k)}
        for x in C.basis(k):
            for nm in tau.value(x):
                if deg_of.get(nm) != x.degree - 1:
                    bad.append(
                        f"arity {k} degree {x.degree}: value {nm} is not one degree down"
                    )
        for x in C.basis(k):
            lhs: dict = {}
            for nm, c in tau.value(x).items():
                for z, c2 in P.d(k, nm).items():
                    lhs[z] = lhs.get(z, 0) + c * c2
            for y, c in C.d(x).items():
                for z, c2 in tau.value(y).items():
                    lhs[z] = lhs.get(z, 0) + c * c2
            rhs: dict = {}
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


# -- the outer level ---------------------------------------------------------


@dataclass(frozen=True)
class CobarElement:
    """Tree of bar elements: an outer tree, one bar label per vertex,
    everything one degree down."""

    arity: int
    node: tuple
    degree: int


def _shifted_down(k, label):
    """Parity of an outer vertex: its bar label one degree down."""
    return label.degree + 1


def _cobar_canon(C, node):
    if not C.operad.symmetric:
        return 1, node
    t0 = tag(node, _shifted_down)
    sign, t1 = canon(lambda k, label, sigma: C.act(label, sigma)[::-1], t0)
    return sign * koszul(_t_word(t0), _t_word(t1)), untag(t1)


def _cobar_elements(C: CooperadComplex, arity: int, cap: int | None) -> tuple:
    unary = bool(C.basis(1))
    if unary and cap is None:
        raise InfiniteEnumerationError(
            "unary bar labels allow arbitrarily large trees; give a cap"
        )
    if arity < 1 or (cap is not None and cap < 1):
        return ()
    max_edges = cap - 1 if cap is not None else max(arity - 2, 0)
    min_val = 1 if unary else 2
    out = []
    for tree, lams in shapes(arity, max_edges, min_val, C.operad.symmetric):
        flags = (0,) * tree.edge_count
        pools = [
            tuple((lb, lb.tree().vertex_count) for lb in C.basis(v))
            for v in tree.valences()
        ]
        if not all(pools):
            continue
        r = len(pools)
        chosen: list = []

        # depth-first over label choices; every remaining vertex costs
        # at least one unit of the cap, so dead branches prune early
        def rec(j, used):
            if j == r:
                labels = tuple(chosen)
                deg = sum(lb.degree - 1 for lb in labels)
                for lam in lams:
                    out.append(CobarElement(arity, build_node(tree, labels, flags, lam), deg))
                return
            rem = r - j - 1
            for lb, vc in pools[j]:
                if cap is not None and used + vc + rem > cap:
                    continue
                chosen.append(lb)
                rec(j + 1, used + vc)
                chosen.pop()

        rec(0, 0)
    return tuple(out)


def _cobar_d(C: CooperadComplex, X: CobarElement) -> dict:
    """Shifted bar differential on each label plus one splitting per
    label edge, prefix counted exclusively."""
    nd = tag(X.node, _shifted_down)
    w0 = _t_word(nd)
    pos = {u: i for i, (u, _) in enumerate(w0)}
    acc: dict[CobarElement, int] = {}

    def add(node, c):
        if not c:
            return
        s, rep = _cobar_canon(C, node)
        key = CobarElement(X.arity, rep, X.degree - 1)
        acc[key] = acc.get(key, 0) + c * s

    for uid, label, par, items in vertices(nd):
        pre = sum(p for _, p in w0[: pos[uid]]) & 1
        s = -1 if pre else 1
        for y, c in C.d(label).items():
            nd2 = graft_replace(nd, uid, (uid, y, (y.degree + 1) & 1, items))
            add(untag(nd2), -s * c)
        for sgn, up, slot, low, lam2 in C.splits(label):
            tk = -1 if up.degree & 1 else 1
            m = low.arity
            low_uid = fresh_uid()
            low_par = (low.degree + 1) & 1
            up_par = (up.degree + 1) & 1
            upper_items = []
            for j in range(up.arity):
                if j == slot:
                    lower_items = tuple(items[lam2[slot + u]] for u in range(m))
                    upper_items.append(("edge", fresh_uid(), 0, (low_uid, low, low_par, lower_items)))
                elif j < slot:
                    upper_items.append(items[lam2[j]])
                else:
                    upper_items.append(items[lam2[j + m - 1]])
            nd2 = graft_replace(nd, uid, (uid, up, up_par, tuple(upper_items)))
            natural = []
            for u, p in w0:
                if u == uid:
                    natural.append((uid, up_par))
                    natural.append((low_uid, low_par))
                else:
                    natural.append((u, p))
            add(untag(nd2), s * sgn * tk * koszul(natural, _t_word(nd2)))
    return {k: v for k, v in acc.items() if v}


def cobar(C: CooperadComplex, arity: int, cap: int | None = None) -> ChainComplex:
    """One arity piece of the operad rebuilt from the tree cooperad.

    The cap bounds the total vertex count across all labels of one
    element; it must not exceed what the cooperad was expanded with."""
    if arity > C.max_arity:
        raise ValueError("cooperad not expanded far enough for this arity")
    if cap is None and C.vertex_cap is not None:
        raise ValueError("capped cooperad cannot support an uncapped expansion")
    if cap is not None and C.vertex_cap is not None and C.vertex_cap < cap:
        raise ValueError("cooperad vertex cap is smaller than the requested cap")
    X = assemble_complex(
        _cobar_elements(C, arity, cap),
        lambda xs: [_cobar_d(C, x) for x in xs],
        lambda x, y: "boundary left the basis in the cobar expansion",
    )
    X.meta = {
        "arity": arity,
        "cap": cap,
        "operad": C.operad.name,
        "construction": "cobar",
    }
    return X


# -- the counit down to the operad -------------------------------------------


def _flat_eval(P, flat, n: int) -> dict:
    """Operadic value of a tree of operad labels with a leaf routing."""
    work = [(1, tag(flat, P.degree_of))]
    done: dict[str, int] = {}
    while work:
        c, nd = work.pop()
        edge = next(edges(nd), None)
        if edge is None:
            lam = tuple(leaves(nd))
            for w, c2 in P.act(n, nd[1], lam).items():
                done[w] = done.get(w, 0) + c * c2
            continue
        parent, slot, child = edge
        puid, pname, ppar, pitems = parent
        cuid, cname, cpar, citems = child
        w0 = _t_word(nd)
        pos = {u: i for i, (u, _) in enumerate(w0)}
        between = sum(p for _, p in w0[pos[puid] + 1 : pos[cuid]]) & 1
        move = -1 if (cpar and between) else 1
        mpar = (ppar + cpar) & 1
        mid = [(u, mpar if u == puid else p) for u, p in w0 if u != cuid]
        for zname, c2 in P.compose(len(pitems), slot, pname, len(citems), cname).items():
            merged = (puid, zname, mpar, pitems[:slot] + citems + pitems[slot + 1 :])
            nd2 = graft_replace(nd, puid, merged)
            work.append((c * move * c2 * koszul(mid, _t_word(nd2)), nd2))
    return {k: v for k, v in done.items() if v}


def _counit_value(P, X: CobarElement) -> dict:
    """Project every label to its single vertex, then compose."""
    if any(label.tree().edge_count for label in node_labels(X.node)):
        return {}
    flat = map_labels(X.node, lambda lab, val: lab.labels()[0])
    return _flat_eval(P, flat, X.arity)


def cobar_bar_counit(P, CB: ChainComplex) -> ChainMap:
    """The chain map from the cobar-of-bar piece onto the operad piece."""
    D = P.complex(CB.meta["arity"])
    mats = {}
    for k in CB.degrees():
        cols = []
        for X in CB.basis_of(k):
            cols.append({D.index(k, nm): c for nm, c in _counit_value(P, X).items()})
        mats[k] = mat_from_columns(D.dim(k), cols, ZZ)
    return ChainMap(CB, D, 0, mats)


# -- comparison with the cylinder --------------------------------------------


def _w_key(x) -> str:
    if x.node is None:
        return "|"
    marked = ",".join(str(i) for i, f in enumerate(node_lengths(x.node)) if f)
    labs = ",".join(node_labels(x.node))
    lvs = ",".join(map(str, node_leaves(x.node)))
    return f"{node_tree(x.node).notation()} g[{marked}] l[{labs}] c[{lvs}]"


def _bar_key(b: BarElement) -> str:
    labs = ",".join(b.labels())
    lvs = ",".join(map(str, b.leaves()))
    return f"{b.tree().notation()} l[{labs}] c[{lvs}]"


def _cobar_key(X: CobarElement) -> str:
    def rec(nd):
        label, items = nd
        parts = []
        for it in items:
            parts.append(str(it[1]) if it[0] == "leaf" else rec(it[2]))
        return "<" + _bar_key(label) + " : " + " ".join(parts) + ">"

    return rec(X.node)


def _w_to_cobar(P, C: CooperadComplex, x) -> CobarElement:
    """Read a cylinder element as a tree of trees: marked components
    become bar labels, unmarked edges become outer edges.  Unsigned;
    the rescaling search owns all signs."""

    def comp(flat):
        ctr = itertools.count()
        outer_items: list = []

        def walk(ndd):
            label, items = ndd
            out = []
            for it in items:
                if it[0] == "leaf":
                    out.append(("leaf", next(ctr)))
                    outer_items.append(("leaf", it[1]))
                elif it[1] == 1:
                    out.append(("edge", 0, walk(it[2])))
                else:
                    out.append(("leaf", next(ctr)))
                    outer_items.append(("edge", 0, comp(it[2])))
            return (label, tuple(out))

        inner = walk(flat)
        _, rep = _bar_canon(P, inner)
        return (_mk_bar(P, rep), tuple(outer_items))

    _, onode = _cobar_canon(C, comp(x.node))
    return CobarElement(x.arity, onode, x.degree)


def compare_w_barcobar(P, arity: int, edge_cap: int | None = None) -> dict:
    """Match the cylinder piece with the cobar-of-bar piece.

    An edge cap of c on the cylinder side corresponds to capping the
    total vertex count across the inner trees at c + 1; both sides are
    built under that correspondence.  The report has the keys of the
    other comparators' reports, "status" ("iso" or "fail") and
    "witness", and carries the degreewise basis "bijection" and a
    diagonal sign "rescaling" that equates the two differentials and is
    compatible with the two augmentations; a failed report carries
    neither."""
    W = w_pseudo(P, arity, edge_cap)
    vcap = None if edge_cap is None else edge_cap + 1
    C = bar(P, arity, vcap)
    CB = cobar(C, arity, vcap)

    def fail(msg):
        return {"bijection": [], "rescaling": {}, "status": "fail", "witness": msg}

    degs = sorted(set(W.degrees()) | set(CB.degrees()))
    for k in degs:
        if W.dim(k) != CB.dim(k):
            return fail(f"rank mismatch in degree {k}: {W.dim(k)} vs {CB.dim(k)}")
    phi = {}
    bij = []
    for k in degs:
        seen = set()
        for x in W.basis_of(k):
            y = _w_to_cobar(P, C, x)
            try:
                CB.index(k, y)
            except KeyError:
                return fail(f"image of {_w_key(x)} is not a basis element")
            if y in seen:
                return fail(f"two degree {k} elements share the image {_cobar_key(y)}")
            seen.add(y)
            phi[x] = y
            bij.append([_w_key(x), _cobar_key(y)])

    cons = []
    for k in degs:
        if W.dim(k) == 0 or W.dim(k - 1) == 0:
            continue
        A = W.diff(k)
        B = CB.diff(k)
        ys = W.basis_of(k - 1)
        for j, x in enumerate(W.basis_of(k)):
            cola = A.column(j)
            colb = dict(B.column(CB.index(k, phi[x])))
            ta = {CB.index(k - 1, phi[ys[r]]): v for r, v in cola.items()}
            if set(ta) != set(colb):
                return fail(f"differential support differs at {_w_key(x)}")
            for r, v in ta.items():
                if abs(v) != abs(colb[r]):
                    return fail(f"differential magnitude differs at {_w_key(x)}")
            for r, v in cola.items():
                req = 1 if (v > 0) == (colb[CB.index(k - 1, phi[ys[r]])] > 0) else -1
                cons.append((x, ys[r], req))

    gamma = w_augmentation(P, W)
    counit = cobar_bar_counit(P, CB)
    forced = {}
    for k in degs:
        if W.dim(k) == 0:
            continue
        gm = gamma.mat(k)
        cm = counit.mat(k)
        for j, x in enumerate(W.basis_of(k)):
            colg = gm.column(j)
            colc = dict(cm.column(CB.index(k, phi[x])))
            if set(colg) != set(colc):
                return fail(f"augmentation support differs at {_w_key(x)}")
            ratios = set()
            for r, v in colg.items():
                if abs(v) != abs(colc[r]):
                    return fail(f"augmentation magnitude differs at {_w_key(x)}")
                ratios.add(1 if (v > 0) == (colc[r] > 0) else -1)
            if len(ratios) > 1:
                return fail(f"augmentation rows conflict at {_w_key(x)}")
            if ratios:
                forced[x] = ratios.pop()

    adj: dict = {}
    for x, y, req in cons:
        adj.setdefault(x, []).append((y, req))
        adj.setdefault(y, []).append((x, req))
    nodes = [x for k in degs for x in W.basis_of(k)]
    eps: dict = {}
    for root in nodes:
        if root in eps:
            continue
        eps[root] = 1
        members = [root]
        stack = [root]
        while stack:
            a = stack.pop()
            for b, req in adj.get(a, ()):
                want = eps[a] * req
                if b in eps:
                    if eps[b] != want:
                        return fail(f"no diagonal rescaling: cycle conflict at {_w_key(b)}")
                else:
                    eps[b] = want
                    members.append(b)
                    stack.append(b)
        votes = {forced[a] * eps[a] for a in members if a in forced}
        if len(votes) > 1:
            return fail("augmentation constraints conflict inside one component")
        if votes == {-1}:
            for a in members:
                eps[a] = -eps[a]
    for x, y, req in cons:
        if eps[x] * eps[y] != req:
            return fail("rescaling verification failed")
    for x, v in forced.items():
        if eps[x] != v:
            return fail("augmentation incompatible with the rescaling")
    rescaling = {_w_key(x): eps[x] for x in nodes}
    return {"bijection": bij, "rescaling": rescaling, "status": "iso", "witness": None}
