"""Pseudo chain operads over the integers, the three-cell interval
complex with its join, and the chain-level cylinder built on trees with
a marked edge set.

A pseudo chain operad has no arity-0 part and no unit; the cylinder on
the reduced operad adjoins the unit summand itself.  Each arity piece
is a free graded module with a chosen basis, a degree -1 boundary, and
partial compositions; symmetric variants also carry signed permutation
actions.  The cylinder complex in arity n is spanned by trees whose
vertices carry basis labels, together with a subset of marked internal
edges worth one degree each and a routing of the leaves to the inputs.
Unmarked edges are silent: they carry the degree-0 interval cell that
grafting produces.  The basis elements and their enumeration are the
tagged module's TreeElement and labeled_trees, shared with bar/cobar:
edge flags run over 0 and 1 and each vertex costs one unit of the cap.
The assembler and the report labels walk the same blocks (label_blocks)
that the enumeration flattens, in the one order of block_walk.

A built complex holds its basis as those blocks and integer keys: each
degree is a KeyedDegree that knows its size, and the number of distinct
keys that name its cells, without a TreeElement.  The elements are
decoded from the blocks, every degree in one block_elements pass, only
when something reads them; the build, the report and homology do not.
One keyed assembler, _keyed_complex, builds this basis and the
differentials for the cylinder and for the cobar of bar_cobar alike, and
it alone reads a key as a position: each construction supplies a filler
of one block's columns over keys and its own message for a boundary
that leaves the basis.

Signs are mechanical.  Every basis element linearizes to a word: for
each component of the tree under marked edges, in discovery order, the
marked-edge letters (degree 1) followed by the vertex labels.  Any
structural move is a permutation of that word, possibly dropping or
merging letters, and its sign is the Koszul sign of the odd letters.
d^2 = 0 is then a property of the bookkeeping, checked eagerly whenever
a complex is assembled.

Assembly differentiates each cube once.  A family (tree, labels,
routing) spans the cube of its edge markings, and the contraction face
of a marked edge depends on the family and the edge alone: the
canonical sort orders children by bare shape and leaf tuple and never
looks at a label or a flag.  So each tree, routing and parity pattern
gets one contraction template per edge, built over formal labels.  The
Koszul signs of a marking never look at the leaves, the routing or the
labels beyond their parities, so each build keeps its sign caches keyed
by vertex skeleton, the preorder parent array of a tree's vertices, and
computes them on integer sign words once per vertex skeleton and
parities, for every block of that skeleton.  Each labeling evaluates the
templates' formal labels once, through P's compose and act; and every
column is written as integer (family, marking) keys, which the
assembler looks up in the degree below.  w_boundary stays the
per-element definition that the assembled columns are tested against.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json

from . import perms
from .chain_core import (
    ZZ,
    ChainComplex,
    ChainMap,
    KeyedDegree,
    SparseMat,
    VerificationError,
    assemble_complex,
    compose_chain_maps,
    evaluation_map,
    graded,
    json_reader,
    table_key,
    verify_chain_map,
)
from .set_operads import AssOperad, ComOperad, InfiniteEnumerationError
from .tagged import (
    PAIR_CACHE,
    ROUTING_CACHE,
    TreeElement,
    block_elements,
    block_walk,
    build_node,
    canon,
    edges,
    fresh_uid,
    graft_replace,
    koszul,
    label_blocks,
    leaves,
    map_leaves,
    node_lengths,
    node_view,
    replace_item,
    tag,
    untag,
    vertices,
)
from .trees import build_tree, enumerate_planar, iso_classes


# -- pseudo chain operads ----------------------------------------------------


class PseudoChainOperad:
    """Interface for the reduced part of a chain operad.

    Concrete classes provide basis(n) as (name, degree) pairs for n >= 1,
    the boundary d(n, x), partial compositions compose(n, i, x, m, y)
    with 0-based slot i, and, when symmetric, the right action
    act(n, x, sigma).  The linear maps return dicts name -> integer
    coefficient.  Basis names must be globally unique across arities.
    Arity 0 is empty by decree; the cylinder construction needs that.
    unit names an arity-1 unit when the source declares one; the
    cylinder's sources declare none.
    """

    symmetric: bool = True
    name: str = "operad"
    unit: str | None = None

    def basis(self, n: int) -> tuple:
        raise NotImplementedError

    def d(self, n: int, x: str) -> dict:
        return {}

    def compose(self, n: int, i: int, x: str, m: int, y: str) -> dict:
        raise NotImplementedError

    def act(self, n: int, x: str, sigma) -> dict:
        if tuple(sigma) == perms.identity(n):
            return {x: 1}
        if not self.symmetric:
            raise ValueError("non-symmetric operad acted on by a permutation")
        raise NotImplementedError

    # helpers shared by every implementation

    def names(self, n: int) -> tuple:
        return tuple(nm for nm, _ in self.basis(n))

    def degree_of(self, n: int, x: str) -> int:
        cache = getattr(self, "_degree_cache", None)
        if cache is None:
            cache = {}
            self._degree_cache = cache
        if n not in cache:
            cache[n] = dict(self.basis(n))
        return cache[n][x]

    def signed_act(self, n: int, x: str, sigma) -> tuple[str, int]:
        """Action on a basis element that must stay a signed basis element."""
        out = self.act(n, x, sigma)
        if len(out) != 1:
            raise ValueError("action does not permute the basis up to sign")
        ((y, c),) = out.items()
        if c not in (1, -1):
            raise ValueError("action coefficient must be a sign")
        return y, c

    def complex(self, n: int) -> ChainComplex:
        """The arity-n piece as a chain complex over the integers."""
        return assemble_complex(graded(self.basis(n)), lambda nm: self.d(n, nm))


class _NonsymAssociative(PseudoChainOperad):
    """One operation in each arity from two up, concentrated in degree 0."""

    symmetric = False
    name = "as_ns"

    def basis(self, n):
        return ((f"a{n}", 0),) if n >= 2 else ()

    def compose(self, n, i, x, m, y):
        return {f"a{n + m - 1}": 1}


class LinearizedOperad(PseudoChainOperad):
    """A set operad P presented in degree 0, the free abelian group on it.

    The basis of arity n >= 1 is P's elements, named by name_of (P's own
    names by default); compose and act return the name of P's result with
    coefficient 1.  The cylinder's builtins take the reduced view, which
    drops P's unit from arity 1.  With keep_unit the view keeps it and
    names it in unit, so the validator checks the unit laws, and a
    composite that lands on the unit stays in the basis."""

    def __init__(self, P, name: str = "operad", keep_unit: bool = False, name_of=None):
        self.P = P
        self.symmetric = P.symmetric
        self.name = name
        self.name_of = name_of or P.name_of
        self.unit = self.name_of(1, P.unit) if keep_unit else None
        # arity -> (basis, element of each name)
        self._arities: dict[int, tuple] = {}

    def _arity(self, n: int) -> tuple:
        got = self._arities.get(n)
        if got is None:
            P, keep = self.P, n > 1 or self.unit is not None
            elems = P.elements(n) if n >= 1 else ()
            named = {self.name_of(n, x): x for x in elems if keep or x != P.unit}
            got = self._arities[n] = (tuple((nm, 0) for nm in named), named)
        return got

    def basis(self, n):
        return self._arity(n)[0]

    def compose(self, n, i, x, m, y):
        z = self.P.compose(n, i, self._arity(n)[1][x], m, self._arity(m)[1][y])
        return {self.name_of(n + m - 1, z): 1}

    def act(self, n, x, sigma):
        return {self.name_of(n, self.P.act(n, self._arity(n)[1][x], tuple(sigma))): 1}


def builtin_chain_operad(name: str) -> PseudoChainOperad:
    """A builtin by name; its basis is nonempty in every arity from two up.
    ass_sym and com are the reduced linearizations of the set-level ass
    and com; as_ns has no set-level twin."""
    if name == "as_ns":
        return _NonsymAssociative()
    if name == "ass_sym":
        return LinearizedOperad(AssOperad(), "ass_sym")
    if name == "com":
        return LinearizedOperad(ComOperad(), "com", name_of=lambda n, x: f"c{n}")
    raise ValueError(f"unknown chain operad {name!r}")


class TableChainOperad(PseudoChainOperad):
    """Chain operad given by explicit coefficient tables."""

    def __init__(
        self,
        symmetric: bool,
        basis_by_arity: dict,
        d_table: dict | None = None,
        compose_table: dict | None = None,
        action_table: dict | None = None,
        name: str = "table",
    ):
        self.symmetric = bool(symmetric)
        self.name = name
        self.by_arity: dict[int, tuple] = {}
        self.arity_of: dict[str, int] = {}
        for n, entries in sorted((int(k), v) for k, v in basis_by_arity.items()):
            if n <= 0:
                raise ValueError("chain operads here start at arity 1")
            row = []
            for nm, deg in entries:
                nm = str(nm)
                if nm in self.arity_of:
                    raise ValueError(f"element name {nm!r} not globally unique")
                self.arity_of[nm] = n
                row.append((nm, int(deg)))
            self.by_arity[n] = tuple(row)
        self.d_table = {k: dict(v) for k, v in (d_table or {}).items()}
        self.compose_table = {k: dict(v) for k, v in (compose_table or {}).items()}
        self.action_table = {k: dict(v) for k, v in (action_table or {}).items()}

    def basis(self, n):
        return self.by_arity.get(n, ())

    def d(self, n, x):
        return dict(self.d_table.get(x, {}))

    def compose(self, n, i, x, m, y):
        key = (x, i, y)
        if key not in self.compose_table:
            raise ValueError(f"composition {x} o{i + 1} {y} missing from table")
        return dict(self.compose_table[key])

    def act(self, n, x, sigma):
        sigma = tuple(sigma)
        if sigma == perms.identity(n):
            return {x: 1}
        if not self.symmetric:
            raise ValueError("non-symmetric operad acted on by a permutation")
        key = (x, sigma)
        if key not in self.action_table:
            raise ValueError(f"action of {sigma} on {x} missing from table")
        return dict(self.action_table[key])


@json_reader("chain operad table")
def load_chain_operad(data: dict) -> TableChainOperad:
    """Build a chain operad from its table serialization.

    Keys: "arities" mapping arity to [name, degree] pairs, optional "d",
    "compose" keyed "x o1 y" (slots 1-based), "actions" keyed "x * 2,1",
    the flag "symmetric" and a "name"; other keys are ignored.  A row that
    names an element outside the basis, a term of the wrong arity or
    degree, or a key that table_key refuses raises ValueError."""
    basis = {
        int(k): [(str(nm), int(deg)) for nm, deg in v]
        for k, v in data["arities"].items()
    }
    where = {nm: (n, deg) for n, row in basis.items() for nm, deg in row}

    def find(key, x):
        if x not in where:
            raise ValueError(f"row {key!r} names {x!r}, which is outside the basis")
        return where[x]

    def arity_of(key, x):
        return find(key, x)[0]

    def terms(key, row, arity, degree):
        out = {str(t): int(c) for t, c in row.items()}
        for t in out:
            if find(key, t) != (arity, degree):
                raise ValueError(
                    f"row {key!r} has the term {t!r}, which is not of arity {arity} and degree {degree}"
                )
        return out

    d_table = {}
    for x, row in data.get("d", {}).items():
        n, a = find(x, x)
        d_table[x] = terms(x, row, n, a - 1)
    compose_table = {}
    for key, row in data.get("compose", {}).items():
        x, i, y = table_key(key, "o", arity_of)
        (n, a), (m, b) = find(key, x), find(key, y)
        compose_table[(x, i, y)] = terms(key, row, n + m - 1, a + b)
    action_table = {}
    for key, row in data.get("actions", {}).items():
        x, sigma = table_key(key, "*", arity_of)
        action_table[(x, sigma)] = terms(key, row, *find(key, x))
    return TableChainOperad(
        data.get("symmetric", True),
        basis,
        d_table,
        compose_table,
        action_table,
        name=data.get("name", "table"),
    )


# -- linear-extension helpers ------------------------------------------------


def _add_into(acc: dict, terms: dict, scale: int = 1) -> None:
    for k, c in terms.items():
        c = c * scale
        if c:
            acc[k] = acc.get(k, 0) + c


def _clean(acc: dict) -> dict:
    return {k: v for k, v in acc.items() if v}


def _lin_d(P, n: int, xs: dict) -> dict:
    out: dict = {}
    for x, c in xs.items():
        _add_into(out, P.d(n, x), c)
    return _clean(out)


def _lin_compose(P, n: int, i: int, xs: dict, m: int, ys: dict) -> dict:
    out: dict = {}
    for x, cx in xs.items():
        for y, cy in ys.items():
            _add_into(out, P.compose(n, i, x, m, y), cx * cy)
    return _clean(out)


def _lin_act(P, n: int, xs: dict, sigma) -> dict:
    out: dict = {}
    for x, c in xs.items():
        _add_into(out, P.act(n, x, sigma), c)
    return _clean(out)


def validate_chain_operad(P, arity_bound: int) -> list[str]:
    """Exhaustive axiom check up to the arity bound: the unit laws when P
    declares a unit, boundary squares to zero, compositions are chain
    maps, nested and disjoint associativity with the transposition sign,
    and for symmetric operads the action and equivariance laws.  A set
    operad is checked through its LinearizedOperad with keep_unit."""
    bad: list[str] = []
    if P.basis(0):
        bad.append("arity 0 must vanish for a pseudo chain operad")
    e = P.unit
    if e is not None:
        if (e, 0) not in P.basis(1) or P.d(1, e):
            return bad + [f"unit {e!r} is not a degree-0 cycle of arity 1"]
        for n in range(1, arity_bound + 1):
            for x in P.names(n):
                for i in range(n):
                    if P.compose(n, i, x, 1, e) != {x: 1}:
                        bad.append(f"right unit law fails on {x} at slot {i + 1}")
                if P.compose(1, 0, e, n, x) != {x: 1}:
                    bad.append(f"left unit law fails on {x}")
    seen: dict[str, int] = {}
    for n in range(1, arity_bound + 1):
        for nm, deg in P.basis(n):
            if nm in seen:
                bad.append(f"basis name {nm!r} reused across arities")
            seen[nm] = n
            dn = P.d(n, nm)
            for t, c in dn.items():
                if c and (t not in dict(P.basis(n)) or P.degree_of(n, t) != deg - 1):
                    bad.append(f"d({nm}) has a bad target {t!r}")
            if _lin_d(P, n, dn):
                bad.append(f"d^2 fails on {nm}")
    rng = range(1, arity_bound + 1)
    for n in rng:
        for m in rng:
            if n + m - 1 > arity_bound:
                continue
            for x in P.names(n):
                degx = P.degree_of(n, x)
                for y in P.names(m):
                    degy = P.degree_of(m, y)
                    for i in range(n):
                        z = P.compose(n, i, x, m, y)
                        tgt = dict(P.basis(n + m - 1))
                        for t, c in z.items():
                            if c and tgt.get(t) != degx + degy:
                                bad.append(
                                    f"{x} o{i + 1} {y} hits {t!r} off degree"
                                )
                        lhs = _lin_d(P, n + m - 1, z)
                        rhs: dict = {}
                        _add_into(
                            rhs,
                            _lin_compose(P, n, i, P.d(n, x), m, {y: 1}),
                        )
                        _add_into(
                            rhs,
                            _lin_compose(P, n, i, {x: 1}, m, P.d(m, y)),
                            -1 if degx % 2 else 1,
                        )
                        if lhs != _clean(rhs):
                            bad.append(f"composition {x} o{i + 1} {y} is not a chain map")
    for n in rng:
        for m in rng:
            for l in rng:
                if n + m + l - 2 > arity_bound:
                    continue
                for x in P.names(n):
                    for y in P.names(m):
                        degy = P.degree_of(m, y)
                        for z in P.names(l):
                            degz = P.degree_of(l, z)
                            for i in range(n):
                                xy = P.compose(n, i, x, m, y)
                                for j in range(m):
                                    lhs = _lin_compose(
                                        P, n + m - 1, i + j, xy, l, {z: 1}
                                    )
                                    rhs = _lin_compose(
                                        P, n, i, {x: 1}, m + l - 1,
                                        P.compose(m, j, y, l, z),
                                    )
                                    if lhs != rhs:
                                        bad.append(
                                            f"nested associativity fails at ({x},{y},{z}) slots ({i},{j})"
                                        )
                                for j2 in range(i + 1, n):
                                    lhs = _lin_compose(
                                        P, n + m - 1, j2 + m - 1, xy, l, {z: 1}
                                    )
                                    rhs = _lin_compose(
                                        P, n + l - 1, i,
                                        P.compose(n, j2, x, l, z), m, {y: 1},
                                    )
                                    sgn = -1 if (degy % 2) and (degz % 2) else 1
                                    rhs = {k: sgn * v for k, v in rhs.items()}
                                    if lhs != rhs:
                                        bad.append(
                                            f"disjoint associativity fails at ({x},{y},{z}) slots ({i},{j2})"
                                        )
    if P.symmetric:
        for n in rng:
            for x in P.names(n):
                if P.act(n, x, perms.identity(n)) != {x: 1}:
                    bad.append(f"identity action fails on {x}")
                if n > 4:
                    continue
                for s in perms.all_perms(n):
                    xs = P.act(n, x, s)
                    if _lin_d(P, n, xs) != _lin_act(P, n, P.d(n, x), s):
                        bad.append(f"action of {s} on {x} is not a chain map")
                    for t in perms.all_perms(n):
                        if _lin_act(P, n, xs, t) != P.act(
                            n, x, perms.perm_then(s, t)
                        ):
                            bad.append(f"action composition fails on {x} under {s} then {t}")
        for n in rng:
            if n > 3:
                continue
            for m in rng:
                if n + m - 1 > arity_bound or m > 3:
                    continue
                for x in P.names(n):
                    for y in P.names(m):
                        for s in perms.all_perms(n):
                            for j in range(n):
                                lhs = _lin_compose(
                                    P, n, s[j], P.act(n, x, s), m, {y: 1}
                                )
                                rhs = _lin_act(
                                    P, n + m - 1,
                                    P.compose(n, j, x, m, y),
                                    perms.blow(s, j, m),
                                )
                                if lhs != rhs:
                                    bad.append(f"outer equivariance fails on ({x},{y}) at slot {j + 1} under {s}")
                        for rho in perms.all_perms(m):
                            for i in range(n):
                                lhs = _lin_compose(
                                    P, n, i, {x: 1}, m, P.act(m, y, rho)
                                )
                                rhs = _lin_act(
                                    P, n + m - 1,
                                    P.compose(n, i, x, m, y),
                                    perms.embed(rho, i, n),
                                )
                                if lhs != rhs:
                                    bad.append(f"inner equivariance fails on ({x},{y}) at slot {i + 1} under {rho}")
    return bad


# -- the interval ------------------------------------------------------------


class ChainInterval:
    """Three cells: two endpoints in degree 0 and the arc between them."""

    basis = (("g0", 0), ("g1", 0), ("g", 1))

    def d(self, x: str) -> dict:
        return {"g1": 1, "g0": -1} if x == "g" else {}

    def vee(self, a: str, b: str) -> dict:
        """Join: g0 is neutral, g1 absorbs g0 and itself, everything
        else vanishes (the join of the arc with itself or with g1)."""
        if a == "g0":
            return {b: 1}
        if b == "g0":
            return {a: 1}
        if a == "g1" and b == "g1":
            return {"g1": 1}
        return {}

    def counit(self, x: str) -> int:
        return 0 if x == "g" else 1

    def complex(self) -> ChainComplex:
        d1 = SparseMat(2, 1, [{0: -1, 1: 1}])
        return ChainComplex(ZZ, {0: ("g0", "g1"), 1: ("g",)}, {1: d1}, check=True)


def chain_interval() -> ChainInterval:
    return ChainInterval()


# -- cylinder basis elements -------------------------------------------------
#
# A basis element is a TreeElement of the tagged module, whose node is
# None for the unit.  Nodes come in the plain and the tagged shape of the
# tagged module; an edge flag of 1 marks the edge.


def _unit_json() -> dict:
    return {"tree": "|", "gamma_edges": [], "labels": {}, "leaf_coset": [0]}


def basis_to_json(x: TreeElement) -> dict:
    if x.node is None:
        return _unit_json()
    text, flags, labels, leaves = node_view(x.node)
    return {
        "tree": text,
        "gamma_edges": [i for i, f in enumerate(flags) if f],
        "labels": {str(i): nm for i, nm in enumerate(labels)},
        "leaf_coset": leaves,
    }


def w_basis_labels(C: ChainComplex) -> dict[int, list]:
    """The basis of a cylinder complex C, as w_reduced, w_pseudo or
    free_operad_complex built it, as report labels: per degree, in basis
    order, the JSON text of each element's basis_to_json with sorted
    keys, as json.dumps writes it.

    No element is built or walked.  Each fragment is encoded once from
    the blocks C was built from: the tree notation per block, the leaf coset
    per routing and the edge list per flag tuple of a shared list, and
    the labels object per labeling.  An element's text is the
    concatenation of its fragments around the sorted keys gamma_edges,
    labels, leaf_coset and tree."""
    enc = json.JSONEncoder(sort_keys=True)
    out: dict[int, list] = {}
    if not C.basis:
        return out
    cells = next(iter(C.basis.values())).source
    if cells.unit:
        out[0] = [enc.encode(_unit_json())]
    blocks = cells.blocks
    # per block: the text before the labels per flag tuple, the text from
    # the labels to the leaf coset per labeling, and the rest per routing
    gammas: dict = {}
    cosets: dict = {}
    heads, middles, tails = [], [], []
    for tree, lams, choices, masks in blocks:
        if id(masks) not in gammas:
            gammas[id(masks)] = [
                '{"gamma_edges": ' + enc.encode([i for i, f in enumerate(mask) if f]) + ', "labels": '
                for mask in masks
            ]
        if id(lams) not in cosets:
            cosets[id(lams)] = [enc.encode(lam) for lam in lams]
        heads.append(gammas[id(masks)])
        middles.append([
            enc.encode({str(i): nm for i, nm in enumerate(labels)}) + ', "leaf_coset": '
            for labels, _ in choices
        ])
        rest = ', "tree": ' + enc.encode(tree.notation()) + "}"
        tails.append([coset + rest for coset in cosets[id(lams)]])
    for b, li, mi, d in block_walk(blocks):
        head = heads[b][mi] + middles[b][li]
        out.setdefault(d, []).extend([head + tail for tail in tails[b]])
    return out


def _word(nd) -> list:
    """The sign word: per marked-edge component in discovery order, the
    marked-edge letters in global edge order, then the vertex letters."""
    comps: list[tuple[list, list]] = [([], [])]
    _word_walk(nd, comps[0], comps)
    out: list = []
    for edges, verts in comps:
        out.extend(edges)
        out.extend(verts)
    return out


def _word_walk(node, comp: tuple[list, list], comps: list) -> None:
    """Add node's letters to its component comp: a marked edge keeps its
    child in comp, an unmarked edge opens a new component."""
    uid, label, parity, items = node
    comp[1].append((uid, parity))
    for it in items:
        if it[0] != "edge":
            continue
        _, euid, flag, child = it
        if flag:
            comp[0].append((euid, 1))
            _word_walk(child, comp, comps)
        else:
            comps.append(([], []))
            _word_walk(child, comps[-1], comps)


def _prefix_sign(word: list, uid) -> int:
    total = 0
    for u, p in word:
        if u == uid:
            return -1 if total & 1 else 1
        total += p
    raise KeyError(uid)


def _contract_step(P, nd, parent, slot, w0) -> list:
    """Contract the unmarked edge at item slot of the vertex parent of nd,
    whose sign word is w0, merging the child vertex into its parent by
    operad composition.  Returns (coefficient, tagged, word) terms; the
    merged vertex keeps the parent letter.  Only the parent's letter,
    label and other items are read, so its flag on the edge may differ."""
    puid, pname, ppar, pitems = parent
    child = pitems[slot][3]
    cuid, cname, cpar, citems = child
    ia = next(k for k, (u, _) in enumerate(w0) if u == puid)
    ib = next(k for k, (u, _) in enumerate(w0) if u == cuid)
    between = sum(p for _, p in w0[ia + 1 : ib])
    move = -1 if (cpar & 1) and (between & 1) else 1
    merged_par = (ppar + cpar) & 1
    mid = [(u, merged_par if u == puid else p) for u, p in w0 if u != cuid]
    terms = P.compose(len(pitems), slot, pname, len(citems), cname)
    out = []
    for zname, c in terms.items():
        t2 = _contract_tree(nd, parent, slot, zname, merged_par)
        w2 = _word(t2)
        out.append((move * koszul(mid, w2) * c, t2, w2))
    return out


def _contract_tree(nd, parent, slot, label, par):
    """nd with the child at item slot of the vertex parent merged into
    parent, which keeps its letter and takes label and parity par."""
    puid, _, _, pitems = parent
    citems = pitems[slot][3][3]
    return graft_replace(nd, puid, (puid, label, par, pitems[:slot] + citems + pitems[slot + 1 :]))


# -- canonical presentations -------------------------------------------------

# live views of the shape caches of the tagged module: generator pairs and
# least routings per shape, counted by the per-layer statistics
_AUT_CACHE = PAIR_CACHE
_MIN_LEAVES_CACHE = ROUTING_CACHE


def signed_canon(P, node, word=None) -> tuple[int, tuple]:
    """Canonical presentation of a labeled marked tree, with its sign.

    Every vertex's children are sorted by bare shape, then by leaf tuple,
    with the labels twisted along.  The shape sort lands on the
    minimal-encoding planar tree; its automorphism group acts freely on
    leaf routings because no vertex has valence zero, so the tie-break by
    leaf tuples reaches the one representative with the least routing.
    The sign is the label twists times the Koszul sign of the marked-edge
    word.  With a word, node is a tagged tree and word its sign word."""
    if word is None:
        if not P.symmetric:
            return 1, node
        node = tag(node, P.degree_of)
        word = _word(node)
    elif not P.symmetric:
        return 1, untag(node)
    sign, t1 = canon(P.signed_act, node)
    return sign * koszul(word, _word(t1)), untag(t1)


# -- basis enumeration and the complex ---------------------------------------


def _w_blocks(P, arity: int, edge_cap: int | None, flags=(0, 1)) -> list:
    """The enumeration blocks of the cylinder basis, one per tree shape."""
    if P.basis(0):
        raise ValueError("the cylinder needs an operad with empty arity 0")
    if P.basis(1) and edge_cap is None:
        raise InfiniteEnumerationError(
            "unary labels allow arbitrarily long edge chains; give an edge cap"
        )
    # every vertex costs one, and edge_cap edges join edge_cap + 1 vertices
    cap = None if edge_cap is None else edge_cap + 1
    return label_blocks(P, arity, cap, 0, lambda name: 1, flags)


def enumerate_w_basis(P, arity: int, edge_cap: int | None = None) -> tuple:
    """All cylinder basis elements of one arity, edge count capped.

    Without a cap the operad must have no unary part, which bounds trees
    by the arity; the symmetric basis takes one leaf routing per
    automorphism coset."""
    return block_elements(arity, _w_blocks(P, arity, edge_cap))


def w_boundary(P, x: TreeElement) -> dict:
    """Differential of a basis element: label boundaries, unmarking of a
    marked edge, and contraction of a marked edge, in that sign order."""
    if x.node is None:
        return {}
    nd = tag(x.node, P.degree_of)
    w0 = _word(nd)
    acc: dict[TreeElement, int] = {}

    def add(node, c):
        if c:
            key = TreeElement(x.arity, node, x.degree - 1)
            acc[key] = acc.get(key, 0) + c

    for vuid, vname, vpar, vitems in vertices(nd):
        s = _prefix_sign(w0, vuid)
        for zname, c in P.d(len(vitems), vname).items():
            nd2 = graft_replace(nd, vuid, (vuid, zname, (vpar + 1) & 1, vitems))
            add(untag(nd2), s * c)
    for parent, slot, child in edges(nd):
        _, euid, marked, _ = parent[3][slot]
        if not marked:
            continue
        s = _prefix_sign(w0, euid)
        w_minus = [tok for tok in w0 if tok[0] != euid]
        unmarked = replace_item(nd, parent, slot, ("edge", euid, 0, child))
        w1 = _word(unmarked)
        k1 = koszul(w_minus, w1)
        add(untag(unmarked), s * k1)
        for c2, t2, w2 in _contract_step(P, unmarked, parent, slot, w1):
            c3, node3 = signed_canon(P, t2, w2)
            add(node3, -s * k1 * c2 * c3)
    return _clean(acc)


# -- cube assembly -----------------------------------------------------------
#
# A family is a tree with its labels and leaf routing; its basis elements
# are the markings of its edges, the cells of the cube H^{(x)E(T)}.  An
# element's key is fid << width | mask, where fid numbers its family and
# bit j of mask marks edge j, the edge above vertex j + 1 in preorder.
# The filler _block_columns yields columns over these keys and
# differentiates each cube once: the contraction of an edge, sorted into
# canonical form over formal labels, is one template per tree, routing and
# vertex parities; the Koszul signs of a marking are computed on integer
# words once per vertex skeleton and parities, in caches every block of
# one build reads; and each labeling evaluates a template's labels once.


class _SymbolicOperad:
    """Formal labels, each carrying its parity second: ("x", par, v) the
    label of vertex v, ("o", par, n, i, e, m, f) a composition and
    ("s", par, n, e, sigma) an action.  Contracting an edge over them
    records the compositions and label twists of the contraction face for
    every labeling at once.  As a label source, a formal label's degree
    is the parity it carries."""

    def __init__(self, symmetric: bool):
        self.symmetric = symmetric

    def degree_of(self, n, label) -> int:
        return label[1]

    def compose(self, n, i, x, m, y):
        return {("o", x[1] ^ y[1], n, i, x, m, y): 1}

    def signed_act(self, n, x, sigma):
        return ("s", x[1], n, x, sigma), 1


def _evaluate(P, e, labels, memo) -> dict:
    """A formal label as a combination of P's basis names."""
    got = memo.get(e)
    if got is None:
        op = e[0]
        if op == "x":
            got = {labels[e[2]]: 1}
        elif op == "o":
            xs = _evaluate(P, e[4], labels, memo)
            ys = _evaluate(P, e[6], labels, memo)
            got = _lin_compose(P, e[2], e[3], xs, e[5], ys)
        else:
            got = {}
            for y, c in _evaluate(P, e[3], labels, memo).items():
                z, s = P.signed_act(e[2], y, e[4])
                got[z] = got.get(z, 0) + s * c
            got = _clean(got)
        memo[e] = got
    return got


def _instances(P, exprs, labels, memo):
    """The (coefficient, names) pairs that the formal labels exprs take
    when vertex v is labeled labels[v]: the expansion of the product of
    their values."""
    values = [((labels[e[2]], 1),) if e[0] == "x" else _evaluate(P, e, labels, memo).items() for e in exprs]
    for combo in itertools.product(*values):
        c = 1
        for _, k in combo:
            c *= k
        yield c, tuple(z for z, _ in combo)


class _Families:
    """Integer ids of the families of a basis, block by block: the family
    of labeling li and routing ri in block b is base[b] + li * R + ri, with
    R the block's routing count.  A family outside the basis, reached by a
    boundary that leaves it, gets the next free id.

    The blocks of one valence sequence share their list of labelings, and
    those of one planar shape their list of routings, so each list is
    indexed once.  mask_ints[b] holds block b's edge masks as integers
    (bit j is edge j), one list per shared list of masks."""

    def __init__(self, blocks):
        self.blocks = blocks
        self.block_of: dict[str, int] = {}
        self.notations: list[str] = []
        self.base: list[int] = []
        self.label_index: list[dict] = []
        self.routing_index: list[dict] = []
        self.mask_ints: list[list] = []
        shared: dict[int, dict | list] = {}
        count = width = 0
        for b, (tree, lams, choices, masks) in enumerate(blocks):
            self.notations.append(tree.notation())
            self.block_of[self.notations[-1]] = b
            self.base.append(count)
            if id(choices) not in shared:
                shared[id(choices)] = {labels: li for li, (labels, _) in enumerate(choices)}
            if id(lams) not in shared:
                shared[id(lams)] = {lam: ri for ri, lam in enumerate(lams)}
            if id(masks) not in shared:
                shared[id(masks)] = [_mask_int(mask) for mask in masks]
            self.label_index.append(shared[id(choices)])
            self.routing_index.append(shared[id(lams)])
            self.mask_ints.append(shared[id(masks)])
            count += len(choices) * len(lams)
            width = max(width, tree.edge_count)
        self.count = count
        self.width = width
        self.outside: dict[tuple, int] = {}
        self.outside_families: list[tuple] = []

    def fid(self, b, notation: str, labels: tuple, lam: tuple) -> int:
        """The id of a family, where b is the block of its tree, given by
        its notation, or None."""
        if b is not None:
            li = self.label_index[b].get(labels)
            ri = self.routing_index[b].get(lam)
            if li is not None and ri is not None:
                return self.base[b] + li * len(self.blocks[b][1]) + ri
        key = (notation, labels, lam)
        got = self.outside.get(key)
        if got is None:
            got = self.count + len(self.outside_families)
            self.outside[key] = got
            self.outside_families.append(key)
        return got

    def node(self, key: int):
        """The plain node of an element key."""
        fid, mask = key >> self.width, key & ((1 << self.width) - 1)
        if fid < self.count:
            b = bisect.bisect_right(self.base, fid) - 1
            tree, lams, choices, _ = self.blocks[b]
            li, ri = divmod(fid - self.base[b], len(lams))
            labels, lam = choices[li][0], lams[ri]
        else:
            notation, labels, lam = self.outside_families[fid - self.count]
            tree = build_tree(notation)
        flags = [(mask >> j) & 1 for j in range(tree.edge_count)]
        return build_node(tree, labels, flags, lam)


def _mask_int(mask) -> int:
    return sum(f << j for j, f in enumerate(mask))


def _parents(tree) -> list:
    """The parent of each vertex of a planar tree in preorder, -1 at the root."""
    out: list = []
    _parent_walk(tree, -1, out)
    return out


def _parent_walk(t, up: int, out: list) -> None:
    v = len(out)
    out.append(up)
    for c in t.children:
        if c.children is not None:
            _parent_walk(c, v, out)


def _cube_word(order, parent, mask: int, E: int) -> list:
    """The sign word of a tree whose vertices, named by their preorder
    index v in a tree with E edges, are listed in its own preorder with
    their parents: per marked-edge component in discovery order, letter
    v - 1 for each marked edge above a vertex v, then letter E + v for
    each vertex v.  The same word as _word, on integer letters."""
    comp: dict = {}
    comps = []
    for v in order:
        u = parent[v]
        if u >= 0 and mask >> (v - 1) & 1:
            c = comp[u]
            c[0].append(v - 1)
        else:
            c = ([], [])
            comps.append(c)
        c[1].append(E + v)
        comp[v] = c
    word: list = []
    for es, vs in comps:
        word += es
        word += vs
    return word


def _odd_sign(word: list, pars, E: int) -> int:
    """The sign of the order of the odd letters of a word against the
    order of their integer names.  Two words on the same odd letters have
    the Koszul sign koszul(a, b) = _odd_sign(a) * _odd_sign(b)."""
    return perms.sign([k for k in word if k < E or pars[k - E]])


def _cube(skel: tuple, pars, M: int, words: dict) -> tuple:
    """The signs of marking M of a tree with vertex skeleton skel (the
    parent of each vertex in preorder) and vertex parities pars: the
    prefix sign of each vertex letter in the word, and per marked edge e
    the triple (e, unmark sign, contraction sign before the canonical
    sort).  A function of (skeleton, parities, marking) alone, so a build
    computes it once per vertex skeleton and parities; words caches
    _signed_word for the skeleton."""
    E = len(skel) - 1
    w0, s0 = _signed_word(skel, pars, M, words)
    prefix = [1] * (E + 1)
    odd = 0
    for k in w0:
        if k >= E:
            prefix[k - E] = -1 if odd & 1 else 1
            odd += pars[k - E]
        else:
            odd += 1
    marked = []
    for e in range(E):
        if not M >> e & 1:
            continue
        w1, s1 = _signed_word(skel, pars, M ^ (1 << e), words)
        # move the edge letter to the front of w0, then reorder to w1
        u = s0 * s1 * (-1 if bin(M & ((1 << e) - 1)).count("1") & 1 else 1)
        c, p = e + 1, skel[e + 1]
        if pars[c]:
            # move the odd child letter next to its parent's, then merge them
            between = w1[w1.index(E + p) + 1 : w1.index(E + c)]
            move = -1 if sum(1 for k in between if k < E or pars[k - E]) & 1 else 1
            merged = pars[p] ^ 1
            mid = [k for k in w1 if k != E + c and (k < E or (merged if k == E + p else pars[k - E]))]
            contract = move * perms.sign(mid)
        else:
            contract = s1
        marked.append((e, u, -u * contract))
    return tuple(prefix), tuple(marked)


def _signed_word(skel: tuple, pars, M: int, words: dict) -> tuple:
    """The word of marking M of a tree with vertex skeleton skel, with its
    _odd_sign for vertex parities pars, cached in words per (parities,
    marking): once per vertex skeleton and parities in a build."""
    got = words.get((pars, M))
    if got is None:
        E = len(skel) - 1
        w = _cube_word(range(E + 1), skel, M, E)
        got = words[(pars, M)] = (tuple(w), _odd_sign(w, pars, E))
    return got


def _contraction_templates(P, fams, tree, lam, pars) -> list:
    """The contraction of each edge of tree, routed by lam, with vertex
    parities pars, canonically sorted over formal labels.  A template
    holds the target's block (or None), tree notation and routing, its formal
    labels, and its vertices in preorder with their parents and parities,
    each vertex named by its index in tree; the merged vertex keeps its
    parent's index.  Nothing here depends on the marking or the labels."""
    E = tree.edge_count
    formal = [("x", par, v) for v, par in enumerate(pars)]
    sym = _SymbolicOperad(P.symmetric)
    skel = tag(build_node(tree, formal, [0] * E, lam), sym.degree_of)
    vid = {nd[0]: v for v, nd in enumerate(vertices(skel))}
    out = []
    for parent, slot, child in edges(skel):
        p = vid[parent[0]]
        merged = list(pars)
        merged[p] ^= pars[vid[child[0]]]
        (label,) = sym.compose(len(parent[3]), slot, parent[1], len(child[3]), child[1])
        t2 = _contract_tree(skel, parent, slot, label, merged[p])
        if P.symmetric:
            _, t2 = canon(sym.signed_act, t2)
        order: list = []
        up = [-1] * (E + 1)
        labels: list = []
        lvs: list = []
        text: list = []
        _template_walk(t2, -1, vid, order, up, labels, lvs, text)
        notation = "".join(text)
        out.append((fams.block_of.get(notation), notation, tuple(lvs), labels, tuple(order), tuple(up), tuple(merged)))
    return out


def _template_walk(nd, parent: int, vid: dict, order, up, labels, lvs, text) -> None:
    """Append a tagged tree's vertices in preorder to order, their labels
    to labels, its leaves to lvs and its tree notation to text, and set
    up[v] to the parent of vertex v."""
    v = vid[nd[0]]
    order.append(v)
    up[v] = parent
    labels.append(nd[1])
    text.append("(")
    for k, it in enumerate(nd[3]):
        if k:
            text.append(" ")
        if it[0] == "leaf":
            lvs.append(it[1])
            text.append("|")
        else:
            _template_walk(it[3], v, vid, order, up, labels, lvs, text)
    text.append(")")


def _face(template, cache: dict, e: int, unmark: int, rest: int, contract: int) -> tuple:
    """One marked edge's entry (edge, unmark sign, unmarked mask,
    contraction sign, target mask) for the marking rest of the other
    edges.  The odd sign of the contracted word and the target mask are
    pure functions of the template's (order, up, merged) and rest; cache
    holds them per rest for that (order, up, merged)."""
    got = cache.get(rest)
    if got is None:
        _, _, _, _, order, up, merged = template
        E = len(up) - 1
        target = 0
        for k in range(1, len(order)):
            target |= ((rest >> (order[k] - 1)) & 1) << (k - 1)
        got = cache[rest] = (_odd_sign(_cube_word(order, up, rest, E), merged, E), target)
    return e, unmark, rest, contract * got[0], got[1]


def _contraction_targets(P, fams, template, labels, memo) -> list:
    """The (coefficient, target key without mask) terms of a template
    for one labeling."""
    b, notation, lam, exprs, _, _, _ = template
    return [(c, fams.fid(b, notation, names, lam) << fams.width) for c, names in _instances(P, exprs, labels, memo)]


def _label_boundaries(P, fams, b, labels, vals, lam) -> list:
    """The (vertex, coefficient, target key without mask) terms of the
    label boundaries of one labeling and routing."""
    notation = fams.notations[b]
    out = []
    for v, (val, name) in enumerate(zip(vals, labels)):
        for z, c in P.d(val, name).items():
            if c:
                relabeled = labels[:v] + (z,) + labels[v + 1 :]
                out.append((v, c, fams.fid(b, notation, relabeled, lam) << fams.width))
    return out


def _block_columns(P, skeletons, face_signs, fams, b):
    """The column filler of the cylinder: yield (degree, key, column) for
    every element of block b.  Templates live for this block only; the
    Koszul signs are shared by all blocks of one build, since a sign
    reads the vertex skeleton, the parities and the marking, never the
    leaves, the routing or the labels.  skeletons maps a skeleton to its
    caches of _signed_word and _cube per (parities, marking); face_signs
    maps a template's (order, up, merged), the contracted tree's skeleton
    and parities, to _face's cache per marking."""
    tree, lams, choices, _ = fams.blocks[b]
    R = len(lams)
    base = fams.base[b]
    vals = tree.valences()
    skel = tuple(_parents(tree))
    words, cubes = skeletons.setdefault(skel, ({}, {}))
    ints = fams.mask_ints[b]
    has_d = any(P.d(v, nm) for v in set(vals) for nm in P.names(v))
    templates: dict = {}
    faces: dict = {}
    for li, (labels, deg) in enumerate(choices):
        pars = tuple(P.degree_of(v, name) & 1 for v, name in zip(vals, labels))
        memo: dict = {}
        targets: dict = {}
        boundaries: dict = {}
        for M in ints:
            d = deg + bin(M).count("1")
            cube = cubes.get((pars, M))
            if cube is None:
                cube = cubes[(pars, M)] = _cube(skel, pars, M, words)
            prefix, marked = cube
            for ri in range(R):
                own = (base + li * R + ri) << fams.width
                face = faces.get((pars, ri, M))
                if face is None:
                    ts = templates.get((pars, ri))
                    if ts is None and marked:
                        # each template with its face signs, which every
                        # template with the same (order, up, merged) shares
                        ts = templates[(pars, ri)] = [
                            (t, face_signs.setdefault(t[4:], {}))
                            for t in _contraction_templates(P, fams, tree, lams[ri], pars)
                        ]
                    face = [_face(*ts[e], e, u, M ^ (1 << e), contract) for e, u, contract in marked]
                    faces[(pars, ri, M)] = face
                col: dict = {}
                if has_d:
                    terms = boundaries.get(ri)
                    if terms is None:
                        terms = boundaries[ri] = _label_boundaries(P, fams, b, labels, vals, lams[ri])
                    for v, c, tb in terms:
                        key = tb | M
                        col[key] = col.get(key, 0) + prefix[v] * c
                for e, u, rest, sign, target in face:
                    key = own | rest
                    col[key] = col.get(key, 0) + u
                    terms = targets.get((ri, e))
                    if terms is None:
                        terms = targets[(ri, e)] = _contraction_targets(
                            P, fams, templates[(pars, ri)][e][0], labels, memo
                        )
                    for c, tb in terms:
                        key = tb | target
                        col[key] = col.get(key, 0) + sign * c
                yield d, own | M, col


class _Cells:
    """The basis of one keyed build: an optional unit, then the
    flattening of blocks.  decoded() builds the TreeElements of every
    degree in one block_elements pass on its first call and keeps them."""

    def __init__(self, arity: int, unit: bool, blocks: list):
        self.arity = arity
        self.unit = unit
        self.blocks = blocks
        self._decoded: dict | None = None

    def decoded(self) -> dict:
        if self._decoded is None:
            by_deg: dict[int, list] = {0: [TreeElement(self.arity, None, 0)]} if self.unit else {}
            for x in block_elements(self.arity, self.blocks):
                by_deg.setdefault(x.degree, []).append(x)
            self._decoded = {k: tuple(v) for k, v in by_deg.items()}
        return self._decoded


def _assemble_w(P, arity, edge_cap, blocks, unit, construction) -> ChainComplex:
    """The cylinder on an optional unit followed by the flattening of
    blocks.  Its blocks share the sign caches, dropped with the build."""

    def left(x, y):
        return f"boundary of {basis_to_json(x)} left the basis at {basis_to_json(y)}"

    C = _keyed_complex(arity, blocks, unit, functools.partial(_block_columns, P, {}, {}), left)
    C.meta = {
        "arity": arity,
        "edge_cap": edge_cap,
        "operad": P.name,
        "construction": construction,
    }
    return C


def _keyed_basis(cells: _Cells, keys: dict) -> tuple[dict, dict]:
    """The index and the basis of the degrees whose element keys, in basis
    order after the unit, are keys[degree].  The index maps each key to
    its position; each degree of the basis is a KeyedDegree of cells, with
    as many distinct keys as its index holds."""
    if cells.unit:
        keys.setdefault(0, [])
    index = {}
    basis = {}
    for d in sorted(keys):
        ks = keys.pop(d)
        lead = 1 if cells.unit and d == 0 else 0
        index[d] = dict(zip(ks, range(lead, lead + len(ks))))
        basis[d] = KeyedDegree(cells, d, lead + len(ks), lead + len(index[d]))
    return index, basis


def _keyed_complex(arity: int, blocks: list, unit: bool, fill, left) -> ChainComplex:
    """The complex on an optional unit, a cycle, followed by the
    flattening of blocks, on a keyed basis.  For each block b, the
    generator fill(fams, b) yields (degree, key, column) for each of its
    elements, the column a dict key -> coefficient.  Only here does a key
    become a position, in its degree or, for a row, in the degree below;
    a zero coefficient is skipped.  The first nonzero row outside the
    degree below, in the lowest degree with one, raises
    RuntimeError(left(x, y)) for the element x and the term y."""
    fams = _Families(blocks)
    width = fams.width
    keys: dict[int, list] = {}
    for b, li, mi, d in block_walk(blocks):
        R = len(blocks[b][1])
        # the keys of the routings: family ids fid, fid + 1, ... over one mask
        key = (fams.base[b] + li * R) << width | fams.mask_ints[b][mi]
        keys.setdefault(d, []).extend(range(key, key + (R << width), 1 << width))
    # each key maps to its element's position in its degree, after the
    # unit.  The positions, which the entries keep, are made in one run
    # after the keys rather than between them, so that dropping the keys
    # on return frees whole pools of the small-object allocator
    index, basis = _keyed_basis(_Cells(arity, unit, blocks), keys)
    columns: dict[int, list] = {k: [None] * len(v) for k, v in basis.items()}
    misses: dict = {}
    for b in range(len(blocks)):
        for d, src, col in fill(fams, b):
            below = index.get(d - 1, {})
            out = {}
            for key, c in col.items():
                if c:
                    i = below.get(key)
                    if i is None:
                        misses.setdefault(d, (d, src, key))
                    else:
                        out[i] = c
            columns[d][index[d][src]] = out
    if misses:
        d, src, key = misses[min(misses)]
        raise RuntimeError(left(TreeElement(arity, fams.node(src), d), TreeElement(arity, fams.node(key), d - 1)))
    if unit:
        columns[0][0] = {}
    mats = {k: SparseMat(len(basis.get(k - 1, ())), len(v), columns[k]) for k, v in basis.items()}
    return ChainComplex(ZZ, basis, mats, check=True)


def w_pseudo(P, arity: int, edge_cap: int | None = None) -> ChainComplex:
    """The cylinder complex on the pseudo operad in one arity."""
    return _assemble_w(P, arity, edge_cap, _w_blocks(P, arity, edge_cap), False, "w_pseudo")


def w_reduced(P, arity: int, edge_cap: int | None = None) -> ChainComplex:
    """The cylinder on the reduced operad: the pseudo cylinder plus the
    unit summand in arities 0 and 1."""
    blocks = _w_blocks(P, arity, edge_cap) if arity >= 1 else []
    return _assemble_w(P, arity, edge_cap, blocks, arity <= 1, "w_reduced")


def free_operad_complex(P, arity: int, edge_cap: int | None = None) -> ChainComplex:
    """The span of the unmarked basis elements; the differential is the
    label part alone, so this is a subcomplex of the cylinder."""
    return _assemble_w(P, arity, edge_cap, _w_blocks(P, arity, edge_cap, (0,)), False, "free")


def _evaluate_free(P, x: TreeElement) -> dict:
    """Operadic composite of the labels of an unmarked element."""
    nd = tag(x.node, P.degree_of)
    work = [(1, nd, _word(nd))]
    done: dict[str, int] = {}
    while work:
        c, nd, w = work.pop()
        edge = next(edges(nd), None)
        if edge is None:
            lam = tuple(leaves(nd))
            _add_into(done, P.act(x.arity, nd[1], lam), c)
            continue
        for c2, nd2, w2 in _contract_step(P, nd, edge[0], edge[1], w):
            work.append((c * c2, nd2, w2))
    return _clean(done)


def w_augmentation(P, W: ChainComplex) -> ChainMap:
    """The chain map from the cylinder onto the operad piece: kill every
    element with a marked edge, compose the labels of the rest."""
    return evaluation_map(
        W,
        P.complex(W.meta["arity"]),
        lambda x: {} if x.node is None or any(node_lengths(x.node)) else _evaluate_free(P, x),
    )


def delta_embedding(P, W: ChainComplex) -> ChainMap:
    """The inclusion of the unmarked span into the cylinder."""
    F = free_operad_complex(P, W.meta["arity"], W.meta["edge_cap"])
    return evaluation_map(F, W, lambda x: {x: 1})


def free_counit(P, F: ChainComplex) -> ChainMap:
    """Label composition on the unmarked span, as a chain map."""
    return evaluation_map(F, P.complex(F.meta["arity"]), lambda x: _evaluate_free(P, x))


# -- operad structure on the cylinder ----------------------------------------


def w_compose_basis(P, x: TreeElement, i: int, y: TreeElement):
    """Graft y under input i of x along a fresh unmarked edge.  Returns
    the sign and the canonical composite."""
    n, m = x.arity, y.arity
    if not 0 <= i < n:
        raise ValueError("slot out of range")
    if x.node is None:
        return 1, y
    if y.node is None:
        return 1, x
    tx = tag(x.node, P.degree_of)
    ty = tag(map_leaves(y.node, range(i, i + m)), P.degree_of)
    w_xy = _word(tx) + _word(ty)
    nd = _plug(tx, i, m, ("edge", fresh_uid(), 0, ty))
    k = koszul(w_xy, _word(nd))
    c, node = signed_canon(P, untag(nd))
    return k * c, TreeElement(n + m - 1, node, x.degree + y.degree)


def _plug(nd, i: int, m: int, graft) -> tuple:
    """The tagged node nd with the item graft at leaf input i, and its
    later inputs shifted up by m - 1."""
    uid, name, par, items = nd
    out = []
    for it in items:
        if it[0] == "leaf":
            g = it[1]
            if g == i:
                out.append(graft)
            else:
                out.append(("leaf", g if g < i else g + m - 1))
        else:
            out.append(("edge", it[1], it[2], _plug(it[3], i, m, graft)))
    return (uid, name, par, tuple(out))


def w_act_basis(P, x: TreeElement, sigma):
    """Right action on a basis element: reroute the leaves, recanonize."""
    sigma = tuple(sigma)
    if x.node is None or sigma == perms.identity(x.arity):
        return 1, x
    if not P.symmetric:
        raise ValueError("non-symmetric cylinder acted on by a permutation")
    c, node = signed_canon(P, map_leaves(x.node, sigma))
    return c, TreeElement(x.arity, node, x.degree)


def w_operad_composition(P, n: int, m: int, edge_cap: int | None = None) -> dict:
    """The partial compositions on basis pairs: (x, i, y) -> (sign, x o_i y)
    for every enumerated x of arity n, slot i and enumerated y of arity m."""
    xs = enumerate_w_basis(P, n, edge_cap)
    ys = enumerate_w_basis(P, m, edge_cap)
    return {(x, i, y): w_compose_basis(P, x, i, y) for x in xs for y in ys for i in range(n)}


# -- structure checks --------------------------------------------------------


def _census_ranks(P, arity: int, edge_cap: int | None) -> dict[int, int] | None:
    """Expected ranks by marked-edge count when every label has degree 0;
    None when graded labels make the census inapplicable."""
    unary = bool(P.basis(1))
    cap = edge_cap if edge_cap is not None else max(arity - 2, 0)
    min_val = 1 if unary else 2
    expected: dict[int, int] = {}

    def tally(tree, weight):
        pools = [len(P.basis(v)) for v in tree.valences()]
        if any(
            deg != 0
            for v in set(tree.valences())
            for _, deg in P.basis(v)
        ):
            return False
        count = 1
        for p in pools:
            count *= p
        if count:
            e = tree.edge_count
            for d in range(e + 1):
                binom = 1
                for t in range(d):
                    binom = binom * (e - t) // (t + 1)
                expected[d] = expected.get(d, 0) + count * binom * weight
        return True

    if P.symmetric:
        fact = 1
        for t in range(2, arity + 1):
            fact *= t
        for cls in iso_classes(arity, cap, min_val):
            if cls.tree.children is None:
                continue
            if not tally(cls.tree, fact // cls.aut_order):
                return None
    else:
        for tree in enumerate_planar(arity, cap, min_val):
            if tree.children is None:
                continue
            if not tally(tree, 1):
                return None
    return {d: r for d, r in expected.items() if r}


def verify_w_construction(P, arity: int, edge_cap: int | None = None) -> list[str]:
    """Structural checks for one arity piece: the differential squares
    to zero, the augmentation and the embedding are chain maps composing
    to label evaluation, and ranks match the tree census."""
    msgs: list[str] = []
    try:
        W = w_pseudo(P, arity, edge_cap)
    except VerificationError as err:
        return [f"complex construction failed: {err}"]
    gamma = w_augmentation(P, W)
    delta = delta_embedding(P, W)
    msgs += [f"augmentation: {m}" for m in verify_chain_map(gamma)]
    msgs += [f"embedding: {m}" for m in verify_chain_map(delta)]
    composite = compose_chain_maps(delta, gamma)
    counit = free_counit(P, delta.source)
    for k in delta.source.degrees():
        if not composite.mat(k).equals(counit.mat(k), ZZ):
            msgs.append(f"augmentation after embedding is not label evaluation in degree {k}")
    census = _census_ranks(P, arity, edge_cap)
    if census is not None:
        got = {}
        for k in W.degrees():
            if W.dim(k):
                got[k] = W.dim(k)
        if got != census:
            msgs.append(f"rank census mismatch: built {got}, census {census}")
    return msgs


def _in_basis(fams: _Families, arity: int, z: TreeElement) -> bool:
    """Whether z is a basis element of the blocks of fams, whose arity is
    given: its family is one of theirs, its edge flags are 0 or 1, and its
    degree is its labeling's plus its marked edges."""
    if z.node is None or z.arity != arity:
        return False
    notation, flags, labels, lam = node_view(z.node)
    labels = tuple(labels)
    b = fams.block_of.get(notation)
    if b is None or fams.fid(b, notation, labels, tuple(lam)) >= fams.count:
        return False
    labeling = fams.blocks[b][2][fams.label_index[b][labels]]
    return set(flags) <= {0, 1} and z.degree == labeling[1] + sum(flags)


def check_composition_maps(P, n: int, m: int, edge_cap: int | None = None) -> list[str]:
    """Checks on the grafting maps, one basis pair and slot at a time: the
    composite is a basis element of the target, whose cap leaves room for
    the grafting edge; grafting is a chain map for the tensor differential
    d(x o y) = dx o y + (-1)^|x| x o dy; label evaluation turns grafting
    into operad composition; and the action laws hold with signs."""
    msgs: list[str] = []
    table = w_operad_composition(P, n, m, edge_cap)
    xs = list(dict.fromkeys(x for x, _, _ in table))
    ys = list(dict.fromkeys(y for _, _, y in table))
    cap_t = None if edge_cap is None else 2 * edge_cap + 1
    target = _Families(_w_blocks(P, n + m - 1, cap_t))
    bd = {x: w_boundary(P, x) for x in xs + ys}
    ev = {x: {} if any(node_lengths(x.node)) else _evaluate_free(P, x) for x in xs + ys}

    def fail(i, x, y, what):
        msgs.append(f"slot {i + 1}, pair {basis_to_json(x)} o {basis_to_json(y)}: {what}")

    for (x, i, y), (c, z) in table.items():
        if not _in_basis(target, n + m - 1, z):
            fail(i, x, y, f"composite {basis_to_json(z)} is outside the basis")
        rhs: dict = {}
        for x2, a in bd[x].items():
            c2, z2 = table[(x2, i, y)]
            rhs[z2] = rhs.get(z2, 0) + a * c2
        sx = -1 if x.degree % 2 else 1
        for y2, b in bd[y].items():
            c2, z2 = table[(x, i, y2)]
            rhs[z2] = rhs.get(z2, 0) + sx * b * c2
        if {w: c * k for w, k in w_boundary(P, z).items()} != _clean(rhs):
            fail(i, x, y, "grafting is not a chain map")
        gz = {} if any(node_lengths(z.node)) else _evaluate_free(P, z)
        if _clean({k: c * v for k, v in gz.items()}) != _lin_compose(P, n, i, ev[x], m, ev[y]):
            fail(i, x, y, "evaluation does not respect grafting")
    if P.symmetric and n <= 3 and m <= 3:
        for x in xs:
            for s in perms.all_perms(n):
                cs, xs_ = w_act_basis(P, x, s)
                for y in ys:
                    for j in range(n):
                        c1, lhs = table[(xs_, s[j], y)]
                        c0, xy = table[(x, j, y)]
                        c2, rhs = w_act_basis(P, xy, perms.blow(s, j, m))
                        if lhs != rhs or cs * c1 != c0 * c2:
                            fail(j, x, y, f"grafting equivariance fails under {s}")
    return msgs
