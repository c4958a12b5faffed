"""Finite set-valued symmetric operads and the segment-weighted tree
construction on them.

An element of the weighted construction over a segment H is a planar tree
whose vertices carry operad elements (matching valences), whose internal
edges carry H-elements, and whose leaves are routed to global inputs by a
bijection.  Two decorated trees are equal when a tree isomorphism carries
one onto the other, transporting vertex labels along the induced slot
permutations.  Equality is decided through a canonical representative.

Normal forms: no edge carries the neutral length (such edges contract,
composing the two vertex labels) and no vertex carries the operad unit
(such vertices are deleted, joining or discarding the adjacent lengths).
Composition grafts trees and gives the new edge the absorbing length.

The same machinery specializes to the free pointed operad on a collection
(lengths forced to the absorbing element of the two-element chain) and
iterates to the cotriple tower of the free/forgetful adjunction, whose
level k is compared here against the construction weighted by the segment
of monotone maps [k] -> [1].

Trees are the plain nodes of opres.tagged, which builds, reads and walks
them; this module owns the rewrite system and the set-level canonical
form canon_node, whose representatives the reports print.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import random
from dataclasses import dataclass

from . import perms
from .chain_core import json_reader, table_key
from .segments import (
    FiniteSegment,
    SegmentMap,
    chain_segment,
    codiagonal,
    delta1_degeneracy,
    delta1_face,
    delta1_level,
    diamond,
    diamond_collapse,
)
from .tagged import (
    TreeElement,
    build_node,
    cut,
    map_labels,
    map_leaves,
    node_labels,
    node_leaves,
    node_lengths,
    node_tree,
    shapes,
)
from .trees import PlanarTree, corolla


# -- concrete operads --------------------------------------------------------


@dataclass(frozen=True)
class AssOperad:
    """Words: the element (w_0,...,w_{n-1}) multiplies its inputs in the
    order a_{w_0} a_{w_1} ...; composition substitutes a block and the
    right action relabels letters."""

    symmetric: bool = True

    def elements(self, n: int) -> tuple:
        return tuple(itertools.permutations(range(n))) if n >= 1 else ()

    def rank(self, n: int, x) -> int:
        """The index of x in elements(n), without building them: its
        Lehmer code read in the factorial base, since permutations come
        in lexicographic order.  ValueError when x is not a permutation
        of range(n)."""
        if not isinstance(x, tuple) or len(x) != n or n < 1:
            raise ValueError(f"{x!r} is not an element of arity {n}")
        rest = list(range(n))
        r = 0
        for t in x:
            if t not in rest:
                raise ValueError(f"{x!r} is not an element of arity {n}")
            i = rest.index(t)
            r = r * len(rest) + i
            del rest[i]
        return r

    @property
    def unit(self):
        return (0,)

    def compose(self, n, i, x, m, y):
        out = []
        for letter in x:
            if letter < i:
                out.append(letter)
            elif letter == i:
                out.extend(i + t for t in y)
            else:
                out.append(letter + m - 1)
        return tuple(out)

    def act(self, n, x, sigma):
        return tuple(sigma[t] for t in x)

    def name_of(self, n, x) -> str:
        if n <= 9:
            return "".join(str(t + 1) for t in x)
        return ",".join(str(t + 1) for t in x)


@dataclass(frozen=True)
class ComOperad:
    symmetric: bool = True

    def elements(self, n: int) -> tuple:
        return ("*",) if n >= 1 else ()

    @property
    def unit(self):
        return "*"

    def compose(self, n, i, x, m, y):
        return "*"

    def act(self, n, x, sigma):
        return "*"

    def name_of(self, n, x) -> str:
        return "*"


class TableOperad:
    """Operad given by explicit tables; element names are global."""

    symmetric = True

    def __init__(self, elements_by_arity: dict, unit_name: str, compose_table: dict, action_table: dict):
        self.by_arity = {int(n): tuple(v) for n, v in elements_by_arity.items()}
        self.unit_name = unit_name
        self.compose_table = compose_table
        self.action_table = action_table
        self.arity_of = {}
        for n, elems in self.by_arity.items():
            for e in elems:
                if e in self.arity_of:
                    raise ValueError(f"element name {e!r} not globally unique")
                self.arity_of[e] = n
        if self.arity_of.get(unit_name) != 1:
            raise ValueError("unit must be a declared arity-1 element")

    def elements(self, n: int) -> tuple:
        return self.by_arity.get(n, ())

    @property
    def unit(self):
        return self.unit_name

    def compose(self, n, i, x, m, y):
        if x == self.unit_name:
            return y
        if y == self.unit_name:
            return x
        key = (x, i, y)
        if key not in self.compose_table:
            raise ValueError(f"composition {x} o{i + 1} {y} missing from table")
        return self.compose_table[key]

    def act(self, n, x, sigma):
        if sigma == perms.identity(n):
            return x
        key = (x, sigma)
        if key not in self.action_table:
            raise ValueError(f"action of {sigma} on {x} missing from table")
        return self.action_table[key]

    def name_of(self, n, x) -> str:
        return x


@json_reader("operad table")
def operad_from_json(data: dict) -> TableOperad:
    """The table operad of a serialization; a row that names an undeclared
    element, or a result of the wrong arity, raises ValueError."""
    if not data.get("symmetric", True):
        raise ValueError("set-level operads here are symmetric")
    elements = {int(k): list(v) for k, v in data["arities"].items()}
    arity_of = {e: n for n, v in elements.items() for e in v}

    def find(key, x):
        if x not in arity_of:
            raise ValueError(f"row {key!r} names {x!r}, which is not a declared element")
        return arity_of[x]

    def result_of(key, result, arity):
        if find(key, result) != arity:
            raise ValueError(f"row {key!r} has the result {result!r}, which is not of arity {arity}")
        return result

    compose_table = {}
    for key, result in data.get("compose", {}).items():
        x, i, y = table_key(key, "o", find)
        compose_table[(x, i, y)] = result_of(key, result, find(key, x) + find(key, y) - 1)
    action_table = {}
    for key, result in data.get("actions", {}).items():
        x, sigma = table_key(key, "*", find)
        action_table[(x, sigma)] = result_of(key, result, find(key, x))
    return TableOperad(elements, data["unit"], compose_table, action_table)


def get_builtin_operad(name: str):
    """A builtin by name; it has elements in every arity from one up."""
    if name == "ass":
        return AssOperad()
    if name == "com":
        return ComOperad()
    raise ValueError(f"unknown builtin operad {name!r}")


# -- decorated tree elements --------------------------------------------------
#
# nodes are the plain nodes of the tagged module, each edge flag a length
# index into the segment.  An element is a tagged.TreeElement of degree 0
# whose node is canonical (the output of canon_node), or None for the unit,
# so equal elements are equal tuples and acting by the identity
# permutation may return the element itself.


W_UNIT = TreeElement(1, None, 0)


# canonical forms ----------------------------------------------------------


def _label_key(P, valence: int, label):
    """The index of label in P.elements(valence), looked up in P's rank
    table when P keeps one and found by a scan otherwise; ValueError when
    the label is not an element of that valence."""
    rank = getattr(P, "rank", None)
    if rank is not None:
        return rank(valence, label)
    return P.elements(valence).index(label)


def _subtree_key(P, node, item_keys: tuple) -> tuple:
    """(bare shape, decorated key) of a canonical node from the keys of its
    items in sorted order; the one key builder behind canon_node's child
    order and element_sort_key.  The bare shape leads so that sorting by
    it keeps the planar tree canonical in the undecorated sense;
    decorations only break shape ties."""
    shape = (1,) + tuple(ik[0] for ik in item_keys)
    return shape, (_label_key(P, len(item_keys), node[0]), item_keys)


def _canon(P, node) -> tuple:
    """(canonical node, keys of its items in sorted order), bottom up: each
    child's key is built once from the keys its own pass returned."""
    label, items = node
    new_items = []
    keys = []
    for it in items:
        if it[0] == "leaf":
            new_items.append(it)
            keys.append(((0,), 0, it[1]))
        else:
            child, child_keys = _canon(P, it[2])
            new_items.append(("edge", it[1], child))
            shape, decorated = _subtree_key(P, child, child_keys)
            keys.append((shape, it[1], decorated))
    k = len(items)
    sigma = tuple(sorted(range(k), key=keys.__getitem__))
    if sigma != tuple(range(k)):
        new_items = [new_items[j] for j in sigma]
        keys = [keys[j] for j in sigma]
        label = P.act(k, label, perms.invert(sigma))
    runs = []
    start = 0
    for j in range(1, k + 1):
        if j == k or keys[j] != keys[start]:
            if j - start > 1:
                runs.append((start, j - start))
            start = j
    if runs:
        best = label
        best_key = _label_key(P, k, best)
        for taus in itertools.product(*(perms.all_perms(ln) for _, ln in runs)):
            tau = list(range(k))
            for (st, ln), block in zip(runs, taus):
                for t in range(ln):
                    tau[st + t] = st + block[t]
            cand = P.act(k, label, tuple(tau))
            ck = _label_key(P, k, cand)
            if ck < best_key:
                best, best_key = cand, ck
        label = best
    return (label, tuple(new_items)), tuple(keys)


def canon_node(P, node) -> tuple:
    """Canonical orbit representative: children sorted by decorated keys
    with the vertex label transported along (placing old child sigma(j)
    at new slot j twists the label by the inverse of sigma); key ties,
    which only identical leafless subtrees can produce, are resolved by
    minimizing the label over the Young subgroup of the tie blocks.

    One bottom-up pass computes each subtree's key once.  When the sort
    leaves the children in place the label is kept as it is: the action
    is unital, and a label that is itself a TreeElement already holds a
    canonical node (every element the library builds does, and canon_node
    is idempotent), so twisting it by the identity would give it back."""
    return _canon(P, node)[0]


# rewriting ------------------------------------------------------------------
#
# state = ("node", node) or ("unit", g): the bare leaf routed to input g


def rewrite_steps(P, H: FiniteSegment, state) -> list[tuple[str, tuple]]:
    """All single rewrite steps from a state, innermost-leftmost first.

    contract: an edge of neutral length composes its two vertex labels.
    join: a unit vertex between two edges joins the lengths, upper first.
    drop: a unit vertex above a leaf disappears with its edge length.
    promote: a unit root vertex disappears, its child length dropped.
    collapse: the unit root above a bare leaf is the unit element.
    """
    if state[0] == "unit":
        return []
    root = state[1]
    out: list[tuple[str, tuple]] = []
    _rewrite_visit(P, H, root, [], out)
    r_label, r_items = root
    if r_label == P.unit and len(r_items) == 1:
        sub = r_items[0]
        if sub[0] == "edge":
            out.append(("promote", ("node", sub[2])))
        else:
            out.append(("collapse", ("unit", sub[1])))
    return out


def _rewrite_visit(P, H: FiniteSegment, node, path: list, out: list) -> None:
    """Append to out the rewrites at the edges of node and above it; path
    holds (label, items, slot, length) for each vertex below node."""
    label, items = node
    for j, it in enumerate(items):
        if it[0] != "edge":
            continue
        ln, child = it[1], it[2]
        path.append((label, items, j, ln))
        _rewrite_visit(P, H, child, path, out)
        path.pop()
        c_label, c_items = child
        if ln == H.zero:
            merged = P.compose(len(items), j, label, len(c_items), c_label)
            its = items[:j] + c_items + items[j + 1 :]
            out.append(("contract", ("node", _rebuild(path, (merged, its)))))
        if c_label == P.unit and len(c_items) == 1:
            sub = c_items[0]
            if sub[0] == "edge":
                its = items[:j] + (("edge", H.j(ln, sub[1]), sub[2]),) + items[j + 1 :]
                out.append(("join", ("node", _rebuild(path, (label, its)))))
            else:
                its = items[:j] + (sub,) + items[j + 1 :]
                out.append(("drop", ("node", _rebuild(path, (label, its)))))


def _rebuild(path: list, node) -> tuple:
    """The root node with node in the place path leads to."""
    for label, items, j, ln in reversed(path):
        node = (label, items[:j] + (("edge", ln, node),) + items[j + 1 :])
    return node


def normalize_state(P, H: FiniteSegment, state) -> tuple:
    while True:
        steps = rewrite_steps(P, H, state)
        if not steps:
            return state
        state = steps[0][1]


def _normal_element(P, H: FiniteSegment, arity: int, node) -> TreeElement:
    """Rewrite a raw node to normal form and canonicalize it."""
    state = normalize_state(P, H, ("node", node))
    if state[0] == "unit":
        return W_UNIT
    return TreeElement(arity, canon_node(P, state[1]), 0)


# operations on elements -------------------------------------------------------


def w_act(P, elem: TreeElement, sigma) -> TreeElement:
    if elem.node is None or sigma == perms.identity(elem.arity):
        return elem
    return TreeElement(elem.arity, canon_node(P, map_leaves(elem.node, sigma)), 0)


def w_compose(P, H: FiniteSegment, x: TreeElement, i: int, y: TreeElement) -> TreeElement:
    """Grafting composition; the new edge carries the absorbing length."""
    n, m = x.arity, y.arity
    if not (0 <= i < n):
        raise ValueError("slot out of range")
    if x.node is None:
        return y
    if y.node is None:
        return x
    graft = ("edge", H.one, map_leaves(y.node, range(i, i + m)))
    return _normal_element(P, H, n + m - 1, _plug(x.node, i, m, graft))


def _plug(node, i: int, m: int, graft) -> tuple:
    """The node with the item graft at leaf input i, and its later inputs
    shifted up by m - 1."""
    label, items = node
    out = []
    for it in items:
        if it[0] == "leaf":
            g = it[1]
            if g == i:
                out.append(graft)
            else:
                out.append(("leaf", g if g < i else g + m - 1))
        else:
            out.append(("edge", it[1], _plug(it[2], i, m, graft)))
    return (label, tuple(out))


def _eval_raw(Q, node):
    """Compose the labels of a raw node in the operad Q, planar slots
    right to left, then route the inputs by the leaf bijection."""
    val, n = _eval_planar(Q, node)
    return Q.act(n, val, node_leaves(node))


def _eval_planar(Q, nd) -> tuple:
    """The planar composite of nd's labels and its arity."""
    label, items = nd
    val = label
    n_val = len(items)
    for j in range(len(items) - 1, -1, -1):
        it = items[j]
        if it[0] == "edge":
            child_val, child_ar = _eval_planar(Q, it[2])
            val = Q.compose(n_val, j, val, child_ar, child_val)
            n_val += child_ar - 1
    return val, n_val


def w_eval(P, elem: TreeElement):
    """Augmentation: forget lengths, compose the labels in P, route
    inputs.  With P a weighted construction this evaluates an outer tree
    whose labels are P's elements."""
    if elem.node is None:
        return P.unit
    return _eval_raw(P, elem.node)


def w_segment_apply(P, f: SegmentMap, elem: TreeElement) -> TreeElement:
    """Relabel edge lengths along a segment map, then renormalize."""
    if elem.node is None:
        return elem
    return _normal_element(P, f.target, elem.arity, _relength(elem.node, f.table))


def _relength(node, table) -> tuple:
    """The node with every edge length ln replaced by table[ln]."""
    label, items = node
    out = []
    for it in items:
        if it[0] == "leaf":
            out.append(it)
        else:
            out.append(("edge", table[it[1]], _relength(it[2], table)))
    return (label, tuple(out))


def element_to_json(P, elem: TreeElement) -> dict:
    if elem.node is None:
        return {"tree": "|", "lengths": [], "labels": [], "leaves": [0]}
    t = node_tree(elem.node)
    labels = node_labels(elem.node)
    valences = t.valences()
    return {
        "tree": t.notation(),
        "lengths": list(node_lengths(elem.node)),
        "labels": [
            P.name_of(v, lab) if hasattr(P, "name_of") else str(lab)
            for v, lab in zip(valences, labels)
        ],
        "leaves": list(node_leaves(elem.node)),
    }


# enumeration --------------------------------------------------------------


class InfiniteEnumerationError(ValueError):
    pass


def _collection_profile(K) -> tuple[bool, bool]:
    nullary = bool(K.elements(0))
    extra_unary = any(x != K.unit for x in K.elements(1))
    return nullary, extra_unary


def _eligible_labels(K, valence: int):
    if valence == 1:
        return tuple(x for x in K.elements(1) if x != K.unit)
    return K.elements(valence)


def enumerate_w_elements(P, H: FiniteSegment, arity: int, vertex_cap: int | None = None) -> list[TreeElement]:
    """All normal forms of one arity, optionally capped by vertex count.
    Uncapped enumeration requires empty arity 0 and nothing but the unit
    in arity 1, otherwise every arity is infinite.

    Each canonical tree shape is decorated with every labeling and every
    non-neutral length, but routed only by its orbit-least routings: an
    automorphism of the shape carries any decorated routing to one of them.
    Without stumps each element arises once; the leafless siblings of
    stumps can meet twice, and the dict keeps one."""
    nullary, extra_unary = _collection_profile(P)
    if vertex_cap is None and (nullary or extra_unary):
        raise InfiniteEnumerationError(
            "unbounded enumeration needs empty arity 0 and only the unit in arity 1; pass a vertex cap"
        )
    min_val = 0 if nullary else (1 if extra_unary else 2)
    max_edges = None if vertex_cap is None else max(vertex_cap - 1, 0)
    lengths_pool = [ln for ln in range(H.size) if ln != H.zero]
    keys: dict[TreeElement, tuple] = {W_UNIT: (0,)} if arity == 1 else {}
    for T, lams in shapes(arity, max_edges, min_val, True):
        if vertex_cap is not None and T.vertex_count > vertex_cap:
            continue
        label_pools = [_eligible_labels(P, v) for v in T.valences()]
        if not all(label_pools):
            continue
        for labels in itertools.product(*label_pools):
            for lens in itertools.product(lengths_pool, repeat=T.edge_count):
                for lam in lams:
                    node, item_keys = _canon(P, build_node(T, labels, lens, lam))
                    keys[TreeElement(arity, node, 0)] = _sort_key(P, node, item_keys)
    return sorted(keys, key=keys.__getitem__)


def _sort_key(P, node, item_keys: tuple) -> tuple:
    """The report order of a canonical non-unit node from the item keys
    _canon returned for it: vertex count, bare shape, decorations."""
    return (1, len(node_labels(node))) + _subtree_key(P, node, item_keys)


def element_sort_key(P, e: TreeElement):
    """The order the reports list elements in: the unit first, then by
    vertex count, bare shape and decorations."""
    if e.node is None:
        return (0,)
    return _sort_key(P, e.node, _canon(P, e.node)[1])


class WSetOperad:
    """The weighted-tree operad over a segment; element lists cached, each
    with the table of its elements' positions."""

    symmetric = True

    def __init__(self, H: FiniteSegment, P, vertex_cap: int | None = None):
        self.H = H
        self.P = P
        self.vertex_cap = vertex_cap
        self._cache: dict[int, tuple] = {}
        self._ranks: dict[int, dict] = {}

    def elements(self, n: int):
        if n not in self._cache:
            elems = tuple(enumerate_w_elements(self.P, self.H, n, self.vertex_cap))
            self._cache[n] = elems
            self._ranks[n] = {x: r for r, x in enumerate(elems)}
        return self._cache[n]

    def rank(self, n: int, x) -> int:
        """The index of x in elements(n); ValueError when it is not there."""
        if n not in self._ranks:
            self.elements(n)
        r = self._ranks[n].get(x)
        if r is None:
            raise ValueError(f"{x!r} is not an element of arity {n}")
        return r

    @property
    def unit(self):
        return W_UNIT

    def compose(self, n, i, x, m, y):
        return w_compose(self.P, self.H, x, i, y)

    def act(self, n, x, sigma):
        return w_act(self.P, x, sigma)

    def name_of(self, n, x) -> str:
        return json.dumps(element_to_json(self.P, x), sort_keys=True, separators=(",", ":"))


class _NoComposeWrapper:
    """Forgetful view of an operad (elements, unit, action) for the shared
    tree machinery; label composition must never actually be needed, since
    lengths in a free construction stay absorbing."""

    symmetric = True

    def __init__(self, K):
        self.K = K
        self.unit = K.unit

    def elements(self, n: int):
        return self.K.elements(n)

    def act(self, n, x, sigma):
        return self.K.act(n, x, sigma)

    def rank(self, n: int, x) -> int:
        return _label_key(self.K, n, x)

    def compose(self, n, i, x, m, y):
        raise RuntimeError("free construction must not compose collection labels")

    def name_of(self, n, x):
        return self.K.name_of(n, x) if hasattr(self.K, "name_of") else str(x)


class FreePointedOperad(WSetOperad):
    """Free pointed operad on the collection underlying K (anything with
    elements, unit and action): weighted trees over the two-element chain
    with every length absorbing."""

    def __init__(self, K, vertex_cap: int | None = None):
        super().__init__(chain_segment(1), _NoComposeWrapper(K), vertex_cap)


# comparisons ----------------------------------------------------------------


def _fail(report: dict, witness: str) -> dict:
    """A comparison report marked failed, with its witness."""
    report["status"] = "fail"
    report["witness"] = witness
    return report


def _iso_witness(sizes: dict, images: dict, A, B, phi, target, arity: int, fits=None) -> str | None:
    """Check that phi maps the operad A isomorphically onto B up to an
    arity, and return the first witness against it, or None.  In each
    arity the elements of A and target(n), the elements of B that phi
    must hit, are enumerated first; then each element x of A is mapped
    once, into images[x], and phi must be one-to-one and onto.  Every
    composable pair of A within the arity (that fits, when given) must
    compose to an element already mapped, whose image is the composite
    in B of the images."""
    for n in range(1, arity + 1):
        elems = A.elements(n)
        expected = set(target(n))
        sizes[n] = len(elems)
        seen = set()
        for x in elems:
            y = images[x] = phi(x)
            if y in seen:
                return f"map not one-to-one at arity {n}"
            seen.add(y)
        if seen != expected:
            missing, extra = len(expected - seen), len(seen - expected)
            return f"map not onto at arity {n}: {missing} target elements unmatched, {extra} images unexpected"
    for n1 in range(1, arity + 1):
        for n2 in range(1, arity + 2 - n1):
            for x in A.elements(n1):
                for y in A.elements(n2):
                    if fits is not None and not fits(x, y):
                        continue
                    for i in range(n1):
                        xy = images.get(A.compose(n1, i, x, n2, y))
                        if xy is None:
                            return f"composite outside the enumeration at arities ({n1},{n2}) slot {i}"
                        if xy != B.compose(n1, i, images[x], n2, images[y]):
                            return f"composition mismatch at arities ({n1},{n2}) slot {i}"
    return None


def compare_free(P, arity: int, vertex_cap: int | None = None) -> dict:
    """The construction over the two-element chain against the free
    pointed operad on the underlying collection: the element sets agree,
    compositions agree, and folding the chain onto the point realizes the
    counit (evaluation in P)."""
    W = WSetOperad(chain_segment(1), P, vertex_cap)
    F = FreePointedOperad(P, vertex_cap)
    fold = codiagonal()
    report: dict = {"status": "iso", "witness": None, "sizes": {}}
    for n in range(1, arity + 1):
        ws = W.elements(n)
        fs = F.elements(n)
        report["sizes"][n] = len(ws)
        if list(ws) != list(fs):
            return _fail(report, f"element lists differ at arity {n}")
        for x in ws:
            folded = w_segment_apply(P, fold, x)
            if w_eval(P, folded) != w_eval(P, x):
                return _fail(report, f"counit mismatch at arity {n}: {element_to_json(P, x)}")
    for n1 in range(1, arity + 1):
        for n2 in range(1, arity + 1):
            if n1 + n2 - 1 > arity:
                continue
            for x in W.elements(n1):
                for y in W.elements(n2):
                    for i in range(n1):
                        if W.compose(n1, i, x, n2, y) != F.compose(n1, i, x, n2, y):
                            return _fail(report, f"composition mismatch at arities ({n1},{n2}) slot {i}")
    return report


def unflatten_diamond(P, H: FiniteSegment, elem: TreeElement, label_universe: WSetOperad) -> TreeElement:
    """Cut every edge carrying the adjoined top length of diamond(H); the
    pieces become vertex labels of an outer tree, i.e. an element of the
    free pointed operad on the H-construction.  label_universe is the
    H-construction whose element order ranks the labels."""
    top = H.size  # index of the adjoined absorbing element in diamond(H)
    if elem.node is None:
        return W_UNIT
    wrapper = _NoComposeWrapper(label_universe)
    return TreeElement(elem.arity, canon_node(wrapper, _top_pieces(P, elem.node, top)), 0)


def _top_pieces(P, node, top) -> tuple:
    """The outer tree whose labels are the pieces of node between the
    edges of length top."""
    piece, hanging = cut(node, lambda ln: None if ln == top else ln)
    label = TreeElement(len(hanging), canon_node(P, piece), 0)
    items = (it if it[0] == "leaf" else ("edge", 1, _top_pieces(P, it[2], top)) for it in hanging)
    return (label, tuple(items))


def _total_label_vertices(e: TreeElement) -> int:
    if e.node is None:
        return 0
    return sum(lab.vertex_count() for lab in node_labels(e.node))


def w_diamond_compare(H: FiniteSegment, P, arity: int, vertex_cap: int) -> dict:
    """Compare the construction over diamond(H) with the free pointed
    operad on the H-construction.  Vertex counts correspond exactly under
    the flattening (each outer label contributes its own vertices), so a
    single shared cap bounds both sides.  Evaluating an outer tree in the
    construction over diamond(H), whose grafting gives the outer edges the
    adjoined top length, inverts the unflattening."""
    WD = WSetOperad(diamond(H), P, vertex_cap)
    WH = WSetOperad(H, P, vertex_cap)
    outer = FreePointedOperad(WH, vertex_cap)
    collapse = diamond_collapse(H)
    report: dict = {"status": "iso", "witness": None, "sizes": {}}
    unflat: dict[TreeElement, TreeElement] = {}
    witness = _iso_witness(
        report["sizes"], unflat, WD, outer, lambda x: unflatten_diamond(P, H, x, WH),
        lambda n: [e for e in outer.elements(n) if _total_label_vertices(e) <= vertex_cap], arity,
        fits=lambda x, y: x.vertex_count() + y.vertex_count() <= vertex_cap,
    )
    if witness:
        return _fail(report, witness)
    for n in range(1, arity + 1):
        for x in WD.elements(n):
            if w_eval(WD, unflat[x]) != x:
                return _fail(report, f"round trip fails at arity {n}: {element_to_json(P, x)}")
            if w_segment_apply(P, collapse, x) != w_eval(WH, unflat[x]):
                return _fail(report, f"collapse square fails at arity {n}: {element_to_json(P, x)}")
    return report


# the cotriple tower ---------------------------------------------------------


# a memo miss: a base element may be anything, so None will not do
_MISSING = object()


class GodementTower:
    """Iterated free pointed operad on the forgetful collection: level k
    holds trees nested k + 1 layers deep over the base operad."""

    def __init__(self, P):
        self.P = P
        self._levels: dict[int, FreePointedOperad] = {}
        self._flat_levels: dict[int, WSetOperad] = {}
        # the label memo of the running check, None between checks
        self._memo: dict | None = None
        self._memo_arity = 0

    @contextlib.contextmanager
    def _label_memo(self, max_arity: int):
        """Scope one check up to max_arity: inside it, the face or
        degeneracy of a label of lower arity is computed once.  The memo
        holds only elements below max_arity, which the check enumerates
        anyway, and is dropped on exit."""
        self._memo, self._memo_arity = {}, max_arity
        try:
            yield
        finally:
            self._memo = None

    def _on_label(self, name: str, k: int, i: int, lab: TreeElement):
        """self.face(k, i, lab) or self.degeneracy(k, i, lab), by name,
        through the memo of the running check.  Every miss goes through
        the method, so a replaced method reaches every label."""
        memo = self._memo
        if memo is None or lab.arity >= self._memo_arity:
            return getattr(self, name)(k, i, lab)
        key = (name, k, i, lab)
        y = memo.get(key, _MISSING)
        if y is _MISSING:
            y = memo[key] = getattr(self, name)(k, i, lab)
        return y

    def level(self, k: int) -> FreePointedOperad:
        if k < 0:
            raise ValueError("levels start at 0")
        if k not in self._levels:
            below = self.P if k == 0 else self.level(k - 1)
            self._levels[k] = FreePointedOperad(below)
        return self._levels[k]

    def elements(self, k: int, n: int):
        return self.level(k).elements(n)

    def face(self, k: int, i: int, x: TreeElement):
        """Face i at level k evaluates one layer: the outermost for i = k,
        deeper layers by relabeling; for k = 0 this is the evaluation in
        the base operad (the augmentation)."""
        if not (0 <= i <= k):
            raise ValueError("face index out of range")
        if k == 0:
            return w_eval(self.P, x)
        if i == k:
            return w_eval(self.level(k - 1), x)
        return self._relabel(x, self.level(k - 1), lambda lab, val: self._on_label("face", k - 1, i, lab))

    def degeneracy(self, k: int, i: int, x: TreeElement) -> TreeElement:
        """Degeneracy i at level k wraps the labels of one layer into
        one-vertex trees (the unit of the adjunction)."""
        if not (0 <= i <= k):
            raise ValueError("degeneracy index out of range")
        if i == k:
            return self._relabel(x, self.level(k + 1), lambda lab, val: self.wrap(k, lab, val))
        return self._relabel(x, self.level(k + 1), lambda lab, val: self._on_label("degeneracy", k - 1, i, lab))

    def wrap(self, k: int, lab, valence: int) -> TreeElement:
        """One-vertex level-k tree labeled by a level-(k-1) element (a
        base element when k = 0).  The corolla is already canonical: its
        leaf keys ((0,), 0, g) are distinct and sort in input order, so
        canon_node would neither move a child nor twist the label."""
        return TreeElement(valence, (lab, tuple(("leaf", g) for g in range(valence))), 0)

    def _relabel(self, x: TreeElement, target_level: FreePointedOperad, fn) -> TreeElement:
        """Apply fn(label, valence) to every outer-tree label, then
        renormalize in the target level (a face can in principle turn a
        label into the unit below, which must then be deleted)."""
        if x.node is None:
            return W_UNIT
        return _normal_element(target_level.P, target_level.H, x.arity, map_labels(x.node, fn))

    def augment(self, k: int, x: TreeElement):
        """The composite of zeroth faces all the way into the base."""
        for level in range(k, 0, -1):
            x = self.face(level, 0, x)
        return self.face(0, 0, x)

    def flat_level(self, k: int) -> WSetOperad:
        """The weighted operad over the segment of monotone maps [k] -> [1],
        in which flatten evaluates level k."""
        if k not in self._flat_levels:
            self._flat_levels[k] = WSetOperad(delta1_level(k), self.P)
        return self._flat_levels[k]

    def flatten(self, k: int, x: TreeElement) -> TreeElement:
        """A level-k element as a weighted tree over the segment of monotone
        maps [k] -> [1]: the outermost layer's edges take the top length,
        deeper layers keep their (index-shared) lengths."""
        if x.node is None:
            return W_UNIT
        if k == 0:
            return x
        # flattened level-(k-1) elements read unchanged over the larger
        # segment: length indices 0..k are shared
        flat = map_labels(x.node, lambda lab, val: self.flatten(k - 1, lab))
        return _eval_raw(self.flat_level(k), flat)


def _level_maps(tower: GodementTower, k: int, max_arity: int):
    """Each element x of tower level k up to max_arity, arity by arity, as
    (n, x, dx, sx) with its faces dx and degeneracies sx, each worked out
    once; nothing is held across elements.  Level 0's only face is the
    augmentation, which neither the identities nor the comparison squares
    read, so dx is empty there."""
    for n in range(1, max_arity + 1):
        for x in tower.elements(k, n):
            dx = [tower.face(k, i, x) for i in range(k + 1)] if k else []
            sx = [tower.degeneracy(k, j, x) for j in range(k + 1)]
            yield n, x, dx, sx


def _identity_failures(tower: GodementTower, k: int, n: int, x, dx: list, sx: list, bad: list) -> None:
    """Append to bad each simplicial identity that fails on the level-k
    element x of arity n, with faces dx and degeneracies sx."""
    if k >= 2:
        for j in range(k + 1):
            for i in range(j):
                lhs = tower.face(k - 1, i, dx[j])
                rhs = tower.face(k - 1, j - 1, dx[i])
                if lhs != rhs:
                    bad.append(f"dd identity fails at level {k}, pair ({i},{j}), arity {n}")
    for j in range(k + 1):
        for i in range(j + 1):
            lhs = tower.degeneracy(k + 1, i, sx[j])
            rhs = tower.degeneracy(k + 1, j + 1, sx[i])
            if lhs != rhs:
                bad.append(f"ss identity fails at level {k}, pair ({i},{j}), arity {n}")
    for j in range(k + 1):
        for i in range(k + 2):
            out = tower.face(k + 1, i, sx[j])
            if i == j or i == j + 1:
                expect = x
            elif i < j:
                expect = tower.degeneracy(k - 1, j - 1, dx[i])
            else:
                expect = tower.degeneracy(k - 1, j, dx[i - 1])
            if out != expect:
                bad.append(f"ds identity fails at level {k}, pair ({i},{j}), arity {n}")
    if k == 1:
        if w_eval(tower.P, dx[1]) != tower.face(0, 0, dx[0]):
            bad.append(f"augmentation coequalizer fails at arity {n}")


def check_godement_level(tower: GodementTower, k: int, max_arity: int) -> tuple[dict, list[str]]:
    """The cotriple tower's one walk, over levels 0 to k.  It checks the
    elementwise simplicial identities of every level, and compares level k
    with the weighted construction over the segment of monotone maps
    [k] -> [1]: bijection and composition, then per element the faces
    (tower face i matches segment face k - i: both merge the adjacent
    lengths i and i + 1), the degeneracies with the same index reversal,
    and the augmentation.  Each element's faces and degeneracies are
    worked out once and read by its identities and squares; across
    elements only the check's label memo is held.  The first witness
    fails the report, and the walk goes on with the identities.  Returns
    (report, failed identities)."""
    W = tower.flat_level(k)
    report: dict = {"status": "iso", "witness": None, "sizes": {}}
    bad: list[str] = []
    flat: dict[TreeElement, TreeElement] = {}
    faces = [delta1_face(k, k - i) for i in range(k + 1)] if k else []
    degeneracies = [delta1_degeneracy(k, k - i) for i in range(k + 1)]
    witness = None
    with tower._label_memo(max_arity):
        for level in range(k + 1):
            if level == k:
                witness = _iso_witness(report["sizes"], flat, tower.level(k), W,
                                       lambda x: tower.flatten(k, x), W.elements, max_arity)
            for n, x, dx, sx in _level_maps(tower, level, max_arity):
                if level == k and not witness:
                    witness = _square_witness(tower, k, n, x, flat[x], dx, sx, faces, degeneracies)
                _identity_failures(tower, level, n, x, dx, sx, bad)
    if witness:
        _fail(report, witness)
    return report, bad


def _square_witness(tower: GodementTower, k: int, n: int, x, fx, dx: list, sx: list,
                    faces: list, degeneracies: list) -> str | None:
    """The first face, degeneracy or augmentation square that fails on the
    level-k element x of arity n, flattened to fx, or None."""
    P = tower.P
    for i, face in enumerate(faces):
        if tower.flatten(k - 1, dx[i]) != w_segment_apply(P, face, fx):
            return f"face {i} mismatch at level {k}, arity {n}"
    for i, degeneracy in enumerate(degeneracies):
        if tower.flatten(k + 1, sx[i]) != w_segment_apply(P, degeneracy, fx):
            return f"degeneracy {i} mismatch at level {k}, arity {n}"
    # above level 0 the augmentation goes on from the zeroth face in dx
    if (tower.augment(k - 1, dx[0]) if k else tower.augment(0, x)) != w_eval(P, fx):
        return f"augmentation mismatch at level {k}, arity {n}"
    return None


def compare_godement_w(tower: GodementTower, k: int, max_arity: int) -> dict:
    """The report of check_godement_level(tower, k, max_arity), which
    compares tower level k with the weighted construction over delta1:k."""
    return check_godement_level(tower, k, max_arity)[0]


def godement_simplicial_check(tower: GodementTower, max_level: int, max_arity: int) -> list[str]:
    """The simplicial identities that fail on levels 0 to max_level, as
    check_godement_level(tower, max_level, max_arity) reports them."""
    return check_godement_level(tower, max_level, max_arity)[1]


# randomized confluence experiments --------------------------------------------


def _random_composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Split total leaves among parts child slots, each at least one."""
    if parts == 1:
        return [total]
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    out = []
    prev = 0
    for c in cuts + [total]:
        out.append(c - prev)
        prev = c
    return out


def _random_subtree(rng: random.Random, n: int, budget: int) -> PlanarTree:
    if n == 1 and (budget <= 0 or rng.random() < 0.4):
        return PlanarTree(None)
    if budget <= 0:
        return corolla(n)
    val = rng.randint(1, min(n, 3))
    parts = _random_composition(rng, n, val)
    kids = []
    spend = budget - 1
    for p in parts:
        use = rng.randint(0, max(spend, 0))
        sub = _random_subtree(rng, p, use)
        spend -= sub.vertex_count
        kids.append(sub)
    return PlanarTree(tuple(kids))


def random_raw_instance(rng: random.Random, P, H: FiniteSegment, arity: int, extra_vertices: int):
    """Random decorated tree: unit labels and neutral lengths included, so
    every rewrite rule gets exercised.  Needs nonempty label pools at all
    small arities (and no nullary part)."""
    tree = _random_subtree(rng, arity, extra_vertices)
    if tree.children is None:
        tree = corolla(1)
    labels = [rng.choice(list(P.elements(v))) for v in tree.valences()]
    lengths = [rng.randrange(H.size) for _ in range(tree.edge_count)]
    leaves = list(range(arity))
    rng.shuffle(leaves)
    return tree, labels, lengths, tuple(leaves)


# the largest rewrite state space reachable_normal_forms explores
STATE_CAP = 4000


def reachable_normal_forms(P, H: FiniteSegment, state):
    """All normal forms reachable by rewriting in any order, canonicalized;
    None when the explored state space exceeds STATE_CAP."""
    seen = {state}
    stack = [state]
    normals = set()
    while stack:
        cur = stack.pop()
        steps = rewrite_steps(P, H, cur)
        if not steps:
            if cur[0] == "unit":
                normals.add(W_UNIT)
            else:
                normals.add(TreeElement(len(node_leaves(cur[1])), canon_node(P, cur[1]), 0))
            continue
        for _, nxt in steps:
            if nxt not in seen:
                if len(seen) >= STATE_CAP:
                    return None
                seen.add(nxt)
                stack.append(nxt)
    return normals


def confluence_experiment(P, H: FiniteSegment, count: int, seed: int, max_arity: int = 4,
                          extra_vertices: int = 3) -> dict:
    """Randomized confluence check: every rewrite order of every sampled
    instance reaches the same canonical normal form.  An instance whose
    state space exceeds STATE_CAP is a failure, with normal_forms None."""
    rng = random.Random(seed)
    failures = []
    for trial in range(count):
        arity = rng.randint(1, max_arity)
        tree, labels, lengths, leaves = random_raw_instance(rng, P, H, arity, extra_vertices)
        normals = reachable_normal_forms(P, H, ("node", build_node(tree, labels, lengths, leaves)))
        if normals is None or len(normals) != 1:
            failures.append(
                {
                    "trial": trial,
                    "tree": tree.notation(),
                    "labels": [str(lab) for lab in labels],
                    "lengths": list(lengths),
                    "leaves": list(leaves),
                    "normal_forms": None if normals is None else len(normals),
                }
            )
    return {
        "instances": count,
        "failures": failures,
        "status": "confluent" if not failures else "fail",
    }
