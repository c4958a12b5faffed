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

Signs are mechanical.  Every basis element linearizes to a word: for
each component of the tree under marked edges, in discovery order, the
marked-edge letters (degree 1) followed by the vertex labels.  Any
structural move is a permutation of that word, possibly dropping or
merging letters, and its sign is the Koszul sign of the odd letters.
d^2 = 0 is then a property of the bookkeeping, checked eagerly whenever
a complex is assembled.

Assembly computes the boundary once per skeleton, the node with every
label replaced by a variable that keeps its depth-first index and parity,
and instantiates it for each labeling.  This is exact: the canonical sort
orders children by bare shape and leaf tuple and never looks at a label,
so every twist permutation and Koszul sign is fixed by the skeleton, and
labels enter the boundary only through P's compose, d and act.
"""

from __future__ import annotations

import itertools

from . import perms
from .chain_core import (
    ZZ,
    ChainComplex,
    ChainMap,
    VerificationError,
    assemble_complex,
    compose_chain_maps,
    json_reader,
    mat_from_columns,
    verify_chain_map,
)
from .set_operads import AssOperad, InfiniteEnumerationError
from .tagged import (
    PAIR_CACHE,
    ROUTING_CACHE,
    TreeElement,
    canon,
    edges,
    fresh_uid,
    graft_replace,
    koszul,
    labeled_trees,
    leaves,
    map_labels,
    map_leaves,
    node_labels,
    node_lengths,
    node_view,
    replace_item,
    tag,
    untag,
    vertices,
)
from .trees import enumerate_planar, iso_classes


# -- pseudo chain operads ----------------------------------------------------


class PseudoChainOperad:
    """Interface for the reduced part of a chain operad.

    Concrete classes provide basis(n) as (name, degree) pairs for n >= 1,
    the boundary d(n, x), partial compositions compose(n, i, x, m, y)
    with 0-based slot i, and, when symmetric, the right action
    act(n, x, sigma).  The linear maps return dicts name -> integer
    coefficient.  Basis names must be globally unique across arities.
    Arity 0 is empty by decree; the cylinder construction needs that.
    """

    symmetric: bool = True
    name: str = "operad"

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
        by_deg: dict[int, list[str]] = {}
        for nm, deg in self.basis(n):
            by_deg.setdefault(deg, []).append(nm)
        basis = {k: tuple(v) for k, v in sorted(by_deg.items())}
        mats = {}
        for k, row in basis.items():
            below = basis.get(k - 1, ())
            idx = {nm: i for i, nm in enumerate(below)}
            cols = []
            for nm in row:
                cols.append({idx[t]: c for t, c in self.d(n, nm).items() if c})
            mats[k] = mat_from_columns(len(below), cols, ZZ)
        return ChainComplex(ZZ, basis, mats, check=True)


class _NonsymAssociative(PseudoChainOperad):
    """One operation in each arity from two up, concentrated in degree 0."""

    symmetric = False
    name = "as_ns"

    def basis(self, n):
        return ((f"a{n}", 0),) if n >= 2 else ()

    def compose(self, n, i, x, m, y):
        return {f"a{n + m - 1}": 1}


class _SymAssociative(PseudoChainOperad):
    """Permutation words in degree 0 for each arity from two up.

    Composition substitutes a block, the action relabels the letters;
    both reuse the word arithmetic of the set-level operad."""

    symmetric = True
    name = "ass_sym"

    def __init__(self):
        self._words = AssOperad()
        self._tables: dict[int, dict[str, tuple]] = {}

    def _arity_words(self, n: int) -> dict[str, tuple]:
        tab = self._tables.get(n)
        if tab is None:
            tab = {
                self._words.name_of(n, w): w
                for w in itertools.permutations(range(n))
            }
            self._tables[n] = tab
        return tab

    def basis(self, n):
        return tuple((nm, 0) for nm in self._arity_words(n)) if n >= 2 else ()

    def compose(self, n, i, x, m, y):
        wx = self._arity_words(n)[x]
        wy = self._arity_words(m)[y]
        wz = self._words.compose(n, i, wx, m, wy)
        return {self._words.name_of(n + m - 1, wz): 1}

    def act(self, n, x, sigma):
        wx = self._arity_words(n)[x]
        return {self._words.name_of(n, self._words.act(n, wx, tuple(sigma))): 1}


class _TrivialCommutative(PseudoChainOperad):
    """Rank one in degree 0 in each arity from two up, trivial actions."""

    symmetric = True
    name = "com"

    def basis(self, n):
        return ((f"c{n}", 0),) if n >= 2 else ()

    def compose(self, n, i, x, m, y):
        return {f"c{n + m - 1}": 1}

    def act(self, n, x, sigma):
        return {x: 1}


def builtin_chain_operad(name: str) -> PseudoChainOperad:
    """A builtin by name; its basis is nonempty in every arity from two up."""
    if name == "as_ns":
        return _NonsymAssociative()
    if name == "ass_sym":
        return _SymAssociative()
    if name == "com":
        return _TrivialCommutative()
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
    names an element outside the basis, or a term of the wrong arity or
    degree, raises ValueError."""
    basis = {
        int(k): [(str(nm), int(deg)) for nm, deg in v]
        for k, v in data["arities"].items()
    }
    where = {nm: (n, deg) for n, row in basis.items() for nm, deg in row}

    def find(key, x):
        if x not in where:
            raise ValueError(f"row {key!r} names {x!r}, which is outside the basis")
        return where[x]

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
        x, mid, y = key.split(" ")
        if not mid.startswith("o"):
            raise ValueError(f"bad composition key {key!r}")
        (n, a), (m, b) = find(key, x), find(key, y)
        compose_table[(x, int(mid[1:]) - 1, y)] = terms(key, row, n + m - 1, a + b)
    action_table = {}
    for key, row in data.get("actions", {}).items():
        x, star, sig = key.split(" ")
        if star != "*":
            raise ValueError(f"bad action key {key!r}")
        sigma = tuple(int(s) - 1 for s in sig.split(","))
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
    """Exhaustive axiom check up to the arity bound: boundary squares to
    zero, compositions are chain maps, nested and disjoint associativity
    with the transposition sign, and for symmetric operads the action
    and equivariance laws."""
    bad: list[str] = []
    if P.basis(0):
        bad.append("arity 0 must vanish for a pseudo chain operad")
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
                            bad.append(f"action composition fails on {x}")
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
                                    bad.append(f"outer equivariance fails on ({x},{y})")
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
                                    bad.append(f"inner equivariance fails on ({x},{y})")
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
        d1 = mat_from_columns(2, [{0: -1, 1: 1}], ZZ)
        return ChainComplex(ZZ, {0: ("g0", "g1"), 1: ("g",)}, {1: d1}, check=True)


def chain_interval() -> ChainInterval:
    return ChainInterval()


# -- cylinder basis elements -------------------------------------------------
#
# A basis element is a TreeElement of the tagged module, whose node is
# None for the unit.  Nodes come in the plain and the tagged shape of the
# tagged module; an edge flag of 1 marks the edge.


def basis_to_json(x: TreeElement) -> dict:
    if x.node is None:
        return {"tree": "|", "gamma_edges": [], "labels": {}, "leaf_coset": [0]}
    text, flags, labels, leaves = node_view(x.node)
    return {
        "tree": text,
        "gamma_edges": [i for i, f in enumerate(flags) if f],
        "labels": {str(i): nm for i, nm in enumerate(labels)},
        "leaf_coset": leaves,
    }


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
        merged = (puid, zname, merged_par, pitems[:slot] + citems + pitems[slot + 1 :])
        t2 = graft_replace(nd, puid, merged)
        w2 = _word(t2)
        out.append((move * koszul(mid, w2) * c, t2, w2))
    return out


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


def enumerate_w_basis(P, arity: int, edge_cap: int | None = None) -> tuple:
    """All cylinder basis elements of one arity, edge count capped.

    Without a cap the operad must have no unary part, which bounds trees
    by the arity; the symmetric basis takes one leaf routing per
    automorphism coset."""
    if P.basis(0):
        raise ValueError("the cylinder needs an operad with empty arity 0")
    if P.basis(1) and edge_cap is None:
        raise InfiniteEnumerationError(
            "unary labels allow arbitrarily long edge chains; give an edge cap"
        )
    # every vertex costs one, and edge_cap edges join edge_cap + 1 vertices
    cap = None if edge_cap is None else edge_cap + 1
    return labeled_trees(P, arity, cap, 0, lambda name: 1, (0, 1))


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


# -- skeleton templates ------------------------------------------------------
#
# The skeleton of a basis element is its plain node with each label
# replaced by the variable ("x", parity, depth-first index).  Its boundary
# is a template for every labeling: w_boundary run over _SymbolicOperad
# records each composition, label boundary and action as a formal label,
# and a labeling instantiates the formal labels through P.


class _SymbolicOperad:
    """Formal labels over P, each carrying its parity second:
    ("x", par, i) the i-th variable, ("d", par, n, e) a boundary,
    ("o", par, n, i, e, m, f) a composition, ("s", par, n, e, sigma) an
    action.  A boundary appears only in valences where P has one.
    w_boundary reads only the variables' parities; a contraction carries
    the merged parity on its tagged tree."""

    def __init__(self, P):
        self.operad = P
        self.symmetric = P.symmetric
        self._has_d: dict[int, bool] = {}

    def degree_of(self, n, x):
        return x[1]

    def d(self, n, x):
        has = self._has_d.get(n)
        if has is None:
            has = any(self.operad.d(n, nm) for nm in self.operad.names(n))
            self._has_d[n] = has
        return {("d", x[1] ^ 1, n, x): 1} if has else {}

    def compose(self, n, i, x, m, y):
        return {("o", x[1] ^ y[1], n, i, x, m, y): 1}

    def signed_act(self, n, x, sigma):
        return ("s", x[1], n, x, sigma), 1


def _flatten(P, node, key: list, shape: list) -> None:
    """Append prefix codes of the skeleton and the bare shape of a plain
    node to key and shape, depth first.  Per vertex both codes hold the
    valence, key also the parity; a leaf item is -1 - input in key and -1
    in shape, an edge item is its flag in key and 0 in shape, followed by
    the child's code."""
    label, items = node
    n = len(items)
    key.append(n)
    key.append(P.degree_of(n, label) & 1)
    shape.append(n)
    for it in items:
        if it[0] == "leaf":
            key.append(-1 - it[1])
            shape.append(-1)
        else:
            key.append(it[1])
            shape.append(0)
            _flatten(P, it[2], key, shape)


def _evaluate(P, e, labels, memo) -> dict:
    """A formal label as a combination of P's basis names."""
    got = memo.get(e)
    if got is None:
        op = e[0]
        if op == "x":
            got = {labels[e[2]]: 1}
        elif op == "d":
            got = _lin_d(P, e[2], _evaluate(P, e[3], labels, memo))
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


def _instantiate(P, template, labels, arity, degree) -> dict:
    """A template's boundary for one labeling, in P."""
    memo: dict = {}
    acc: dict[TreeElement, int] = {}
    for c, node, exprs in template:
        values = [
            ((labels[e[2]], 1),) if e[0] == "x" else _evaluate(P, e, labels, memo).items()
            for e in exprs
        ]
        for combo in itertools.product(*values):
            coeff = c
            for _, k in combo:
                coeff *= k
            take = iter([nm for nm, _ in combo]).__next__
            key = TreeElement(arity, map_labels(node, lambda lab, val: take()), degree)
            acc[key] = acc.get(key, 0) + coeff
    return _clean(acc)


def _w_boundaries(P, xs):
    """w_boundary of each element of xs, all of one degree, in order.

    Elements are grouped by skeleton within each run of one tree shape,
    and the groups are dropped when the run ends.  A skeleton with one
    labeling goes to w_boundary; one with several is differentiated once
    over _SymbolicOperad and instantiated per labeling.  When no valence
    has two labels, every skeleton has one labeling."""
    if all(len(P.basis(v)) <= 1 for v in range(1, xs[0].arity + 1)):
        for x in xs:
            yield w_boundary(P, x)
        return
    sym = _SymbolicOperad(P)
    run: list = []
    block = None
    for x in xs:
        if x.node is None:
            yield from _run_boundaries(P, sym, run)
            run = []
            yield w_boundary(P, x)
            continue
        key: list = []
        shape: list = []
        _flatten(P, x.node, key, shape)
        shape = tuple(shape)
        if shape != block:
            yield from _run_boundaries(P, sym, run)
            run = []
            block = shape
        run.append((x, tuple(key)))
    yield from _run_boundaries(P, sym, run)


def _run_boundaries(P, sym, run):
    """The boundaries of one run of (element, skeleton code) pairs, in order."""
    count: dict = {}
    for _, key in run:
        count[key] = count.get(key, 0) + 1
    templates: dict = {}
    for x, key in run:
        if count[key] == 1:
            yield w_boundary(P, x)
            continue
        template = templates.get(key)
        if template is None:
            ids = itertools.count()
            sk = map_labels(x.node, lambda lab, val: ("x", P.degree_of(val, lab) & 1, next(ids)))
            bd = w_boundary(sym, TreeElement(x.arity, sk, x.degree))
            template = [(c, y.node, node_labels(y.node)) for y, c in bd.items()]
            templates[key] = template
        yield _instantiate(P, template, node_labels(x.node), x.arity, x.degree - 1)


def _assemble_w(P, elems, arity, edge_cap, construction) -> ChainComplex:
    C = assemble_complex(
        elems,
        lambda xs: _w_boundaries(P, xs),
        lambda x, y: f"boundary of {basis_to_json(x)} left the basis at {basis_to_json(y)}",
    )
    C.meta = {
        "arity": arity,
        "edge_cap": edge_cap,
        "operad": P.name,
        "construction": construction,
    }
    return C


def w_pseudo(P, arity: int, edge_cap: int | None = None) -> ChainComplex:
    """The cylinder complex on the pseudo operad in one arity."""
    elems = enumerate_w_basis(P, arity, edge_cap)
    return _assemble_w(P, elems, arity, edge_cap, "w_pseudo")


def w_reduced(P, arity: int, edge_cap: int | None = None) -> ChainComplex:
    """The cylinder on the reduced operad: the pseudo cylinder plus the
    unit summand in arities 0 and 1."""
    elems: list[TreeElement] = []
    if arity <= 1:
        elems.append(TreeElement(arity, None, 0))
    if arity >= 1:
        elems.extend(enumerate_w_basis(P, arity, edge_cap))
    return _assemble_w(P, tuple(elems), arity, edge_cap, "w_reduced")


def free_operad_complex(P, arity: int, edge_cap: int | None = None) -> ChainComplex:
    """The span of the unmarked basis elements; the differential is the
    label part alone, so this is a subcomplex of the cylinder."""
    elems = tuple(
        x
        for x in enumerate_w_basis(P, arity, edge_cap)
        if not any(node_lengths(x.node))
    )
    return _assemble_w(P, elems, arity, edge_cap, "free")


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
    D = P.complex(W.meta["arity"])
    mats = {}
    for k in W.degrees():
        cols = []
        for x in W.basis_of(k):
            if x.node is not None and not any(node_lengths(x.node)):
                vals = _evaluate_free(P, x)
                cols.append({D.index(k, nm): c for nm, c in vals.items()})
            else:
                cols.append({})
        mats[k] = mat_from_columns(D.dim(k), cols, ZZ)
    return ChainMap(W, D, 0, mats)


def delta_embedding(P, W: ChainComplex) -> ChainMap:
    """The inclusion of the unmarked span into the cylinder."""
    F = free_operad_complex(P, W.meta["arity"], W.meta["edge_cap"])
    mats = {}
    for k in F.degrees():
        cols = [{W.index(k, x): 1} for x in F.basis_of(k)]
        mats[k] = mat_from_columns(W.dim(k), cols, ZZ)
    return ChainMap(F, W, 0, mats)


def free_counit(P, F: ChainComplex) -> ChainMap:
    """Label composition on the unmarked span, as a chain map."""
    arity = F.meta["arity"]
    D = P.complex(arity)
    mats = {}
    for k in F.degrees():
        cols = []
        for x in F.basis_of(k):
            vals = _evaluate_free(P, x)
            cols.append({D.index(k, nm): c for nm, c in vals.items()})
        mats[k] = mat_from_columns(D.dim(k), cols, ZZ)
    return ChainMap(F, D, 0, mats)


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


def check_composition_maps(P, n: int, m: int, edge_cap: int | None = None) -> list[str]:
    """Checks on the grafting maps, one basis pair and slot at a time: the
    composite is a basis element of the target, whose cap leaves room for
    the grafting edge; grafting is a chain map for the tensor differential
    d(x o y) = dx o y + (-1)^|x| x o dy; label evaluation turns grafting
    into operad composition; and the action laws hold with signs."""
    msgs: list[str] = []
    table = w_operad_composition(P, n, m, edge_cap)
    xs = enumerate_w_basis(P, n, edge_cap)
    ys = enumerate_w_basis(P, m, edge_cap)
    cap_t = None if edge_cap is None else 2 * edge_cap + 1
    target = set(enumerate_w_basis(P, n + m - 1, cap_t))
    bd = {x: w_boundary(P, x) for x in xs + ys}
    ev = {x: {} if any(node_lengths(x.node)) else _evaluate_free(P, x) for x in xs + ys}

    def fail(i, x, y, what):
        msgs.append(f"slot {i + 1}, pair {basis_to_json(x)} o {basis_to_json(y)}: {what}")

    for (x, i, y), (c, z) in table.items():
        if z not in target:
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
