"""Exact linear algebra for chain complexes over Z, Q, and prime fields.

Graded modules carry explicit ordered bases; differentials are sparse
matrices with exact entries (python int, Fraction where Q needs one, or
int mod p).  The differential d[k] maps degree k to degree k - 1 and is
stored by columns, one dict row -> entry per degree-k basis vector, the
way it is built and the way the eliminator reads it.

Homology and field ranks go through one sparse eliminator (``eliminate``)
for Z, Q and Fp.  It pivots only on units (+-1 over Z, any nonzero over a
field), in Markowitz order.  Over Z, unit pivots leave the invariant
factors unchanged; the columns left without a unit form a residual block,
and only that block goes to the dense Smith normal form, which
re-multiplies U*A*V and compares with its own diagonal on every call.
``homology`` eliminates each differential once, from the top degree down,
and clears first: it drops from d[k] the columns that are pivot rows of
d[k+1] (Chen and Kerber, "Persistent homology computation with a twist",
2011; Bauer, Kerber and Reininghaus, "Clear and compress", 2014).  That is
exact over Z too, and rests on d^2 = 0, which every complex either records
as verified or has checked before homology.  Every elimination is
certified the same way: the eliminator keeps its working columns as M and
logs its column operations as U, one multiplier each, and each kept
column of A, read from A's own entries, must equal M*U exactly, with U
unit triangular and M triangular with units on the pivots.  A failed
check raises SelfCheckError, so a wrong result can never be silently
consumed downstream.
"""
from __future__ import annotations

import functools
import heapq
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction


# -- rings ----------------------------------------------------------------


@dataclass(frozen=True)
class Ring:
    tag: str  # "Z", "Q", or "Fp"
    p: int = 0

    def __post_init__(self):
        if self.tag not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown ring tag {self.tag!r}")
        if self.tag == "Fp":
            if self.p < 2 or any(self.p % q == 0 for q in range(2, int(self.p**0.5) + 1)):
                raise ValueError(f"{self.p} is not prime")

    def normalize(self, v):
        if self.tag == "Z":
            return int(v)
        if self.tag == "Q":
            # an integer stays an int, which is exact and cheaper
            return v if type(v) is int else Fraction(v)
        return int(v) % self.p

    def zero(self):
        return self.normalize(0)

    def add(self, a, b):
        return self.normalize(a + b)

    def is_zero(self, a) -> bool:
        return self.normalize(a) == self.zero()

    def parse(self, s: str):
        if self.tag == "Q":
            return Fraction(s)
        return self.normalize(int(s))

    def show(self, v) -> str:
        return str(v)

    def name(self) -> str:
        return f"F{self.p}" if self.tag == "Fp" else self.tag


ZZ = Ring("Z")
QQ = Ring("Q")


def ring_from_name(name: str) -> Ring:
    if name == "Z":
        return ZZ
    if name == "Q":
        return QQ
    if name.startswith("F"):
        return Ring("Fp", int(name[1:]))
    raise ValueError(f"unknown ring {name!r}")


# -- sparse matrices -------------------------------------------------------


class SparseMat:
    """Sparse matrix over a ring, stored by columns: data[j] maps row to
    the nonzero entry of column j."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list | None = None):
        if data is None:
            data = [{} for _ in range(cols)]
        elif len(data) != cols:
            raise ValueError(f"{len(data)} columns given for {cols}")
        self.rows = rows
        self.cols = cols
        self.data = data

    def add_entry(self, ring: Ring, i: int, j: int, v) -> None:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
        col = self.data[j]
        new = ring.add(col.get(i, ring.zero()), v)
        if ring.is_zero(new):
            col.pop(i, None)
        else:
            col[i] = new

    def mul(self, other: "SparseMat", ring: Ring) -> "SparseMat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        # integer products need no normalizing; Q and Fp entries do
        norm = None if ring.tag == "Z" else ring.normalize
        left = self.data
        out = []
        for col in other.data:
            acc: dict = {}
            for k, w in col.items():
                for i, v in left[k].items():
                    acc[i] = acc.get(i, 0) + v * w
            if norm is not None:
                acc = {i: norm(v) for i, v in acc.items()}
            out.append({i: v for i, v in acc.items() if v})
        return SparseMat(self.rows, other.cols, out)

    def is_zero(self) -> bool:
        return not any(self.data)

    def entries(self) -> list[tuple[int, int, object]]:
        """The nonzero entries as (row, column, entry), row-major."""
        return sorted((i, j, v) for j, col in enumerate(self.data) for i, v in col.items())

    def column(self, j: int) -> dict[int, object]:
        return dict(self.data[j])

    def equals(self, other: "SparseMat", ring: Ring) -> bool:
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        norm = ring.normalize
        return all(
            norm(a.get(i, 0)) == norm(b.get(i, 0))
            for a, b in zip(self.data, other.data)
            for i in a.keys() | b.keys()
        )

    def __repr__(self):  # pragma: no cover
        return f"SparseMat({self.rows}x{self.cols}, {sum(map(len, self.data))} entries)"


# -- complexes ----------------------------------------------------------------


class VerificationError(ValueError):
    """An identity the program checks, such as d^2 = 0, fails on what it
    built; the message is the witness."""


class KeyedDegree(Sequence):
    """One degree of a basis whose labels are named by integer keys and
    built only when read.

    Its length, and the number of distinct keys among its cells, are
    known without building a label.  The first read of any label calls
    source.decoded(), which builds the labels of every degree at once and
    returns them as a dict degree -> tuple; the source keeps them."""

    __slots__ = ("source", "degree", "cells", "distinct")

    def __init__(self, source, degree: int, cells: int, distinct: int):
        self.source = source
        self.degree = degree
        self.cells = cells
        self.distinct = distinct

    def __len__(self) -> int:
        return self.cells

    def __getitem__(self, i):
        return self.source.decoded()[self.degree][i]

    def __iter__(self):
        return iter(self.source.decoded()[self.degree])


class ChainComplex:
    """Chain complex with chosen bases; d[k]: degree k -> degree k-1.

    basis maps each degree to its sequence of distinct labels: a tuple
    (any other iterable is copied into one), or a KeyedDegree, which is
    kept as it is and never iterated here, so that its labels are built
    only if a caller reads them.  The duplicate check compares a keyed
    degree's distinct keys with its cells.  d squares to zero; this is
    checked at construction unless deferred, a failure raises
    VerificationError, and ``d_squared_verified`` records whether the
    check ran.
    """

    def __init__(self, ring: Ring, basis: dict, d: dict, check: bool = True):
        self.ring = ring
        self.basis = {k: v if isinstance(v, (tuple, KeyedDegree)) else tuple(v) for k, v in basis.items()}
        for k, labels in self.basis.items():
            distinct = labels.distinct if isinstance(labels, KeyedDegree) else len(set(labels))
            if distinct != len(labels):
                raise ValueError(f"duplicate labels in degree {k}")
        self.d: dict[int, SparseMat] = {}
        for k, mat in d.items():
            expect = (self.dim(k - 1), self.dim(k))
            if (mat.rows, mat.cols) != expect:
                raise ValueError(
                    f"d[{k}] has shape {(mat.rows, mat.cols)}, expected {expect}"
                )
            if not mat.is_zero():
                self.d[k] = mat
        self._index_cache: dict[int, dict] = {}
        self.d_squared_verified = bool(check)
        if check:
            report = verify_d_squared(self)
            if report:
                raise VerificationError("d^2 != 0: " + report[0])

    def dim(self, degree: int) -> int:
        return len(self.basis.get(degree, ()))

    def degrees(self) -> list[int]:
        return sorted(k for k, labels in self.basis.items() if labels)

    def basis_of(self, degree: int) -> Sequence:
        return self.basis.get(degree, ())

    def positions(self, degree: int) -> dict:
        """Each label of the degree's basis -> its position, built once."""
        cache = self._index_cache.get(degree)
        if cache is None:
            cache = {lab: i for i, lab in enumerate(self.basis_of(degree))}
            self._index_cache[degree] = cache
        return cache

    def index(self, degree: int, label) -> int:
        return self.positions(degree)[label]

    def diff(self, degree: int) -> SparseMat:
        mat = self.d.get(degree)
        if mat is None:
            return SparseMat(self.dim(degree - 1), self.dim(degree))
        return mat

    def total_dim(self) -> int:
        return sum(self.dim(k) for k in self.degrees())


def linear_columns(xs, value, rows: dict, target: str) -> SparseMat:
    """The matrix with one column per element x of xs: value(x), a dict
    label -> coefficient, with each label at its position in rows.  Every
    complex and chain map built from per-element values is assembled here.
    A label outside rows raises RuntimeError naming x, the label, and
    target, which describes the basis that rows index."""
    cols = []
    for x in xs:
        col = {}
        for y, c in value(x).items():
            i = rows.get(y)
            if i is None:
                raise RuntimeError(f"{x!r} reaches {y!r}, which is outside the basis of {target}")
            if c:
                col[i] = c
        cols.append(col)
    return SparseMat(len(rows), len(cols), cols)


def graded(pairs) -> dict:
    """The labels of (label, degree) pairs as a basis by degree: one tuple
    per degree, in the order given, degrees ascending."""
    by_deg: dict[int, list] = {}
    for x, k in pairs:
        by_deg.setdefault(k, []).append(x)
    return {k: tuple(v) for k, v in sorted(by_deg.items())}


def assemble_complex(basis: dict, boundary) -> ChainComplex:
    """The integer complex on basis, a dict degree -> tuple of labels, with
    boundary(x) the boundary of x as a dict label -> integer coefficient."""
    mats = {
        k: linear_columns(xs, boundary, {y: i for i, y in enumerate(basis.get(k - 1, ()))}, f"degree {k - 1}")
        for k, xs in basis.items()
    }
    return ChainComplex(ZZ, basis, mats, check=True)


def verify_d_squared(C: ChainComplex) -> list[str]:
    bad = []
    for k in list(C.d):
        if k - 1 not in C.d:
            continue  # d[k-1] is zero
        prod = C.d[k - 1].mul(C.d[k], C.ring)
        if not prod.is_zero():
            i, j, v = prod.entries()[0]
            bad.append(f"(d[{k - 1}] d[{k}])[{i},{j}] = {C.ring.show(v)}")
    return bad


@dataclass
class ChainMap:
    """Map of complexes of a fixed degree offset r: f_k: C_k -> D_{k+r},
    commuting with differentials up to the sign (-1)^r."""

    source: ChainComplex
    target: ChainComplex
    offset: int
    mats: dict = field(default_factory=dict)  # degree k -> SparseMat

    def mat(self, degree: int) -> SparseMat:
        m = self.mats.get(degree)
        if m is None:
            return SparseMat(self.target.dim(degree + self.offset), self.source.dim(degree))
        return m


def evaluation_map(source: ChainComplex, target: ChainComplex, value) -> ChainMap:
    """The degree-0 map sending each basis element x of source to value(x),
    a dict target label -> coefficient."""
    mats = {
        k: linear_columns(source.basis_of(k), value, target.positions(k), f"degree {k} of the target")
        for k in source.degrees()
    }
    return ChainMap(source, target, 0, mats)


def verify_chain_map(f: ChainMap) -> list[str]:
    """Per degree k, d f_k against (-1)^r f_{k-1} d compared column by
    column; a difference is reported at its first entry in row-major
    order."""
    bad = []
    ring = f.source.ring
    if f.target.ring != ring:
        return ["ring mismatch"]
    degrees = set(f.source.degrees()) | set(f.mats)
    sign = ring.normalize(-1 if f.offset % 2 else 1)
    for k in sorted(degrees):
        m = f.mat(k)
        expect = (f.target.dim(k + f.offset), f.source.dim(k))
        if (m.rows, m.cols) != expect:
            bad.append(f"degree {k}: shape {(m.rows, m.cols)} != {expect}")
            continue
        left = f.target.diff(k + f.offset).mul(m, ring)
        right = f.mat(k - 1).mul(f.source.diff(k), ring)
        first = None
        for j, (a, b) in enumerate(zip(left.data, right.data)):
            for i in a.keys() | b.keys():
                v = ring.normalize(a.get(i, 0) - sign * b.get(i, 0))
                if v and (first is None or (i, j) < first[:2]):
                    first = (i, j, v)
        if first is not None:
            i, j, v = first
            bad.append(f"degree {k}: violation at ({i},{j}) = {ring.show(v)}")
    return bad


def compose_chain_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    """g after f."""
    if f.target is not g.source:
        raise ValueError("chain maps not composable")
    mats = {}
    for k in f.source.degrees():
        mats[k] = g.mat(k + f.offset).mul(f.mat(k), f.source.ring)
    return ChainMap(f.source, g.target, f.offset + g.offset, mats)


class SelfCheckError(ArithmeticError):
    """A factorization or elimination failed its own exact re-check."""


# -- smith normal form ---------------------------------------------------------


def smith_normal_form(A: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (U, D, V) with U*A*V = D diagonal, invariant factors in a
    divisibility chain.  U and V are products of elementary unimodular
    operations.  The factorization is re-multiplied and compared exactly
    before returning; an inconsistency raises.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [list(map(int, row)) for row in A]
    if any(len(row) != n for row in D):
        raise ValueError("ragged matrix")
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_sub(dst: int, src: int, q: int) -> None:
        if q:
            D[dst] = [a - q * b for a, b in zip(D[dst], D[src])]
            U[dst] = [a - q * b for a, b in zip(U[dst], U[src])]

    def col_sub(dst: int, src: int, q: int) -> None:
        if q:
            for row in D:
                row[dst] -= q * row[src]
            for row in V:
                row[dst] -= q * row[src]

    def row_swap(a: int, b: int) -> None:
        if a != b:
            D[a], D[b] = D[b], D[a]
            U[a], U[b] = U[b], U[a]

    def col_swap(a: int, b: int) -> None:
        if a != b:
            for row in D:
                row[a], row[b] = row[b], row[a]
            for row in V:
                row[a], row[b] = row[b], row[a]

    t = 0
    while t < min(m, n):
        # minimal nonzero pivot in the remaining block
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(D[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        while True:
            # clear the column below the pivot
            dirty = False
            for i in range(t + 1, m):
                if D[i][t]:
                    q = D[i][t] // D[t][t]
                    row_sub(i, t, q)
                    if D[i][t]:
                        row_swap(t, i)  # remainder is smaller, promote it
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if D[t][j]:
                    q = D[t][j] // D[t][t]
                    col_sub(j, t, q)
                    if D[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # divisibility of the remaining block by the pivot
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if D[i][j] % D[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            D[t] = [a + b for a, b in zip(D[t], D[offender])]
            U[t] = [a + b for a, b in zip(U[t], U[offender])]
        if D[t][t] < 0:
            D[t] = [-a for a in D[t]]
            U[t] = [-a for a in U[t]]
        t += 1

    # self-check: exact re-multiplication
    UA = [[sum(U[i][k] * A[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
    UAV = [[sum(UA[i][k] * V[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
    if UAV != D:
        raise SelfCheckError("smith normal form self-check failed")
    for i in range(min(m, n) - 1):
        a, b = D[i][i], D[i + 1][i + 1]
        if b and (a == 0 or b % a):
            raise SelfCheckError("invariant factors not in a divisibility chain")
    return U, D, V


def invariant_factors(A: list[list[int]]) -> list[int]:
    _, D, _ = smith_normal_form(A)
    out = []
    for i in range(min(len(D), len(D[0]) if D else 0)):
        if D[i][i]:
            out.append(D[i][i])
    return out


def rank_over_field(A: list[list], ring: Ring) -> int:
    """Rank over Q or Fp by certified sparse elimination (Z ranks via Q)."""
    field = QQ if ring.tag == "Z" else ring
    n = len(A[0]) if A else 0
    mat = SparseMat(len(A), n, [{i: row[j] for i, row in enumerate(A) if row[j]} for j in range(n)])
    return certified_elimination(mat, field).rank()


# -- sparse elimination ------------------------------------------------------------


@dataclass
class Elimination:
    """Record of one sparse elimination of A: A = M*U on its kept columns.

    The columns in ``cleared`` are dropped before the elimination (see
    ``homology``); every other column is kept.  Each column operation
    subtracts f times a pivot column j, which never changes once chosen,
    from a kept column c not pivoted yet; ops[c][j] = f logs it as the
    entry U[j, c] of a matrix U with ones on its diagonal, which is unit
    upper triangular once the pivot columns are put first in pivot order.
    reduced[c] is column c of M as a dict row -> entry: a pivot column as
    it stood when chosen, or a residual column.  Pivot t sits at
    (pivots[t]) with a unit entry; pivot row r_s is zero in pivot columns
    chosen after s and in every residual column, so M is block triangular
    with unit diagonal.  U is unimodular, so the invariant factors of the
    kept columns of A are those of M: the ones of the residual block plus
    one 1 per pivot.  ``check`` verifies all of this exactly, column by
    column against the entries of A itself, and raises SelfCheckError
    otherwise.
    """

    ring: Ring
    source: SparseMat  # A
    reduced: list  # M, one dict row -> entry per column
    ops: list  # U, one dict pivot column -> multiplier per column
    pivots: list  # (row, col) in pivot order
    cleared: frozenset  # columns of A dropped before the elimination

    def check(self) -> None:
        def fail(what):
            raise SelfCheckError(f"elimination certificate failed: {what}")

        ring, M, U, n = self.ring, self.reduced, self.ops, self.source.cols
        if len(M) != n or len(U) != n:
            fail(f"M and U have {len(M)} and {len(U)} columns, A has {n}")
        order = {j: t for t, (_, j) in enumerate(self.pivots)}
        prow = {r: t for t, (r, _) in enumerate(self.pivots)}
        if len(order) != len(self.pivots) or len(prow) != len(self.pivots):
            fail("a row or column pivoted twice")
        # U: unit upper triangular, pivot columns first in pivot order; its
        # diagonal is implicit, so a logged U[c, c] is out of place too
        for c, col in enumerate(U):
            here = order.get(c, n + c)
            for j, f in col.items():
                if order.get(j, n + j) >= here:
                    fail(f"U[{j},{c}] = {f}")
        # M*U = A on every kept column, read from A's own entries; a
        # cleared column is empty in M and U
        p = ring.p if ring.tag == "Fp" else 0
        for c, want in enumerate(self.source.data):
            if c in self.cleared:
                if M[c] or U[c] or c in order:
                    fail(f"cleared column {c} was eliminated")
                continue
            acc = dict(M[c])
            for j, f in U[c].items():
                for i, v in M[j].items():
                    acc[i] = acc.get(i, 0) + f * v
            for i, v in want.items():
                acc[i] = acc.get(i, 0) - v
            if any(v % p if p else v for v in acc.values()):
                fail("M*U != A")
        # M: units on the pivots; a pivot row is clear of later pivot
        # columns and of the residual, which is empty over a field
        for r, j in self.pivots:
            if not _is_unit(ring, M[j].get(r, 0)):
                fail(f"pivot M[{r},{j}] is no unit")
        for j, col in enumerate(M):
            t = order.get(j)
            for i, v in col.items():
                s = prow.get(i)
                if t is None and ring.tag != "Z":
                    fail(f"M[{i},{j}] = {v} left over a field")
                if s is not None and (t is None or s < t):
                    fail(f"M[{i},{j}] = {v} above a pivot")

    def residual(self) -> list[list[int]]:
        """The dense block of M outside the pivot rows and columns, with its
        zero rows and columns dropped."""
        pcols = {j for _, j in self.pivots}
        prows = {r for r, _ in self.pivots}
        entries = [
            (i, j, v) for j, col in enumerate(self.reduced) if j not in pcols
            for i, v in col.items() if i not in prows
        ]
        rows = {i: a for a, i in enumerate(sorted({i for i, _, _ in entries}))}
        cols = {j: b for b, j in enumerate(sorted({j for _, j, _ in entries}))}
        out = [[0] * len(cols) for _ in rows]
        for i, j, v in entries:
            out[rows[i]][cols[j]] = v
        return out

    def invariant_factors(self) -> list[int]:
        """Nonzero invariant factors of the kept columns of A in a
        divisibility chain; over a field the residual is empty and every
        factor is 1."""
        block = self.residual()
        return [1] * len(self.pivots) + (invariant_factors(block) if block else [])

    def rank(self) -> int:
        return len(self.invariant_factors())


def _is_unit(ring: Ring, v) -> bool:
    return v in (1, -1) if ring.tag == "Z" else v != 0


def eliminate(A: SparseMat, ring: Ring, cleared=()) -> Elimination:
    """Sparse elimination of A by unit pivots and column operations, with
    the columns in cleared dropped first.

    Columns are taken in Markowitz order (fewest nonzeros first, through a
    lazy heap); within a column the pivot is the unit entry whose row has
    fewest nonzeros.  Over a field every nonzero is a unit; over Z only
    +-1 is, and a column with none waits until an update changes it, so
    what is never pivoted is the residual block.  The working columns
    become M and the logged multipliers U; the record is returned
    unchecked, see Elimination.check.
    """
    p = ring.p if ring.tag == "Fp" else 0
    cleared = frozenset(cleared)
    cols: list[dict] = [{} for _ in range(A.cols)]
    on_row: list[set] = [set() for _ in range(A.rows)]
    for j, col in enumerate(A.data):
        if j in cleared:
            continue
        out = cols[j]
        for i, v in col.items():
            v = ring.normalize(v)
            if v:
                out[i] = v
                on_row[i].add(j)
    ops: list[dict] = [{} for _ in range(A.cols)]
    done = [False] * A.cols
    pivots = []
    heap = [(len(col), j) for j, col in enumerate(cols) if col]
    heapq.heapify(heap)
    while heap:
        nnz, j = heapq.heappop(heap)
        col = cols[j]
        if done[j] or nnz != len(col) or not nnz:
            continue
        r, best = -1, None
        for i, v in col.items():
            if _is_unit(ring, v):
                count = len(on_row[i])
                if best is None or count < best or (count == best and i < r):
                    r, best = i, count
        if best is None:
            continue  # no unit yet; requeued if an update changes the column
        done[j] = True
        pivots.append((r, j))
        for i in col:
            on_row[i].discard(j)
        if p:
            inv = pow(col[r], -1, p)
        elif col[r] in (1, -1):
            inv = col[r]  # +-1 is its own inverse, over Z and over Q
        else:
            inv = 1 / Fraction(col[r])
        for c in list(on_row[r]):
            target = cols[c]
            f = target[r] * inv
            if p:
                f %= p
            for i, v in col.items():
                w = target.get(i, 0) - f * v
                if p:
                    w %= p
                if w:
                    if i not in target:
                        on_row[i].add(c)
                    target[i] = w
                elif i in target:
                    del target[i]
                    on_row[i].discard(c)
            ops[c][j] = f
            heapq.heappush(heap, (len(target), c))
    return Elimination(ring, A, cols, ops, pivots, cleared)


def certified_elimination(A: SparseMat, ring: Ring, cleared=()) -> Elimination:
    """eliminate(A, ring, cleared), after its record passed
    Elimination.check."""
    E = eliminate(A, ring, cleared)
    E.check()
    return E


# -- homology -------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyReport:
    ring_name: str
    by_degree: dict  # degree -> (free_rank, tuple of torsion factors > 1)

    def free_rank(self, degree: int) -> int:
        return self.by_degree.get(degree, (0, ()))[0]

    def torsion(self, degree: int) -> tuple:
        return self.by_degree.get(degree, (0, ()))[1]

    def nonzero_degrees(self) -> list[int]:
        return sorted(
            deg for deg, (r, tor) in self.by_degree.items() if r or tor
        )


def homology(C: ChainComplex) -> HomologyReport:
    """Free ranks and torsion of C in every degree, each differential
    eliminated once, from the top degree down, with clearing.

    Clearing drops from d[k] every column that is a pivot row of d[k+1]'s
    elimination (Chen and Kerber, "Persistent homology computation with a
    twist", EuroCG 2011; Bauer, Kerber and Reininghaus, "Clear and
    compress", 2014).  It is exact over Z, not only over fields: d[k+1] =
    M*U with U unimodular, so d^2 = 0 gives d[k]*M = 0, and since M is unit
    triangular on its pivot block, each dropped column is an integer
    combination of the kept ones; the column lattice of d[k], and with it
    every invariant factor, is unchanged.  Clearing therefore rests on
    d^2 = 0: C.d_squared_verified records that it was checked, and
    otherwise it is checked here, and a failure raises ValueError.  Each
    elimination is certified column by column against the kept columns of
    its differential (see Elimination.check)."""
    if not C.d_squared_verified:
        report = verify_d_squared(C)
        if report:
            raise ValueError("cannot take homology, d^2 != 0: " + report[0])
    ring = C.ring
    degs = C.degrees()
    if not degs:
        return HomologyReport(ring.name(), {})
    # over Z the invariant factors of d[k] give both its rank (outgoing)
    # and the torsion it leaves (incoming)
    factors, cleared = {}, {}
    for k in sorted(C.d, reverse=True):
        E = certified_elimination(C.d[k], ring, cleared.pop(k, ()))
        factors[k] = E.invariant_factors()
        cleared[k - 1] = [r for r, _ in E.pivots]
    out = {}
    for k in range(min(degs), max(degs) + 1):
        dim = C.dim(k)
        if dim == 0:
            continue
        rk = len(factors.get(k, ()))
        incoming = factors.get(k + 1, ())
        torsion = tuple(f for f in incoming if f != 1)
        out[k] = (dim - rk - len(incoming), torsion)
    return HomologyReport(ring.name(), out)


def change_ring(C: ChainComplex, ring: Ring) -> ChainComplex:
    """C with its integer entries mapped into ``ring``; entries that vanish
    there (mod p) are dropped.  A non-integral entry raises ValueError
    unless ``ring`` is Q.  A ring map sends d^2 = 0 to d^2 = 0, so a
    verified C gives a verified image."""
    if ring == C.ring:
        return C
    d = {}
    for k, mat in C.d.items():
        cols = []
        for col in mat.data:
            out = {}
            for i, v in col.items():
                if ring.tag != "Q" and v.denominator != 1:
                    raise ValueError(f"entry {v} of d[{k}] is not an integer")
                v = ring.normalize(v)
                if v:
                    out[i] = v
            cols.append(out)
        d[k] = SparseMat(mat.rows, mat.cols, cols)
    image = ChainComplex(ring, C.basis, d, check=False)
    image.d_squared_verified = C.d_squared_verified
    return image


# -- serialization ----------------------------------------------------------------


def json_reader(what: str):
    """Decorate a reader of parsed JSON: a value of the wrong shape, which
    surfaces as TypeError, AttributeError or IndexError, or a missing key
    raises ValueError naming what was read, since the input is at fault."""

    def wrap(read):
        @functools.wraps(read)
        def checked(data):
            try:
                return read(data)
            except KeyError as exc:
                raise ValueError(f"malformed {what}: missing key {exc}") from None
            except (TypeError, AttributeError, IndexError) as exc:
                raise ValueError(f"malformed {what}: {exc}") from None

        return checked

    return wrap


def table_key(key: str, op: str, arity) -> tuple:
    """The parts of an operad table key: "x oi y" (op "o") as (x, i - 1, y)
    and "x * s" (op "*") as (x, sigma), sigma the 0-based permutation s.
    A key without three parts, a slot outside 1..arity(key, x), or an s
    that does not permute 1..arity(key, x) raises ValueError naming it."""
    parts = key.split(" ")
    if len(parts) != 3 or not parts[1].startswith(op) or (op == "*" and parts[1] != "*"):
        raise ValueError(f"bad {'composition' if op == 'o' else 'action'} key {key!r}")
    x, mid, y = parts
    n = arity(key, x)
    if op == "o":
        if mid[1:] not in map(str, range(1, n + 1)):
            raise ValueError(f"composition key {key!r} names a slot outside 1..{n}")
        return x, int(mid[1:]) - 1, y
    if sorted(y.split(",")) != sorted(map(str, range(1, n + 1))):
        raise ValueError(f"action key {key!r} does not permute 1..{n}")
    return x, tuple(int(e) - 1 for e in y.split(","))


def complex_to_json(C: ChainComplex, label_str=str, labels=None) -> dict:
    """The JSON payload of a complex.  Each basis label is label_str of
    the element, unless labels holds every degree's label texts in basis
    order."""
    if labels is None:
        labels = {k: [label_str(lab) for lab in C.basis_of(k)] for k in C.degrees()}
    basis = {}
    for k in C.degrees():
        if len(labels[k]) != C.dim(k):
            raise ValueError(f"{len(labels[k])} labels for {C.dim(k)} basis elements in degree {k}")
        basis[str(k)] = labels[k]
    d = {}
    for k in sorted(C.d):
        d[str(k)] = [(i, j, C.ring.show(v)) for i, j, v in C.d[k].entries()]
    return {"ring": C.ring.name(), "basis": basis, "d": d}


@json_reader("complex")
def complex_from_json(data: dict) -> ChainComplex:
    ring = ring_from_name(data["ring"])
    basis = {int(k): tuple(v) for k, v in data["basis"].items()}
    d = {}
    for k, triples in data.get("d", {}).items():
        k = int(k)
        mat = SparseMat(len(basis.get(k - 1, ())), len(basis.get(k, ())))
        for i, j, entry in triples:
            mat.add_entry(ring, int(i), int(j), ring.parse(entry))
        d[k] = mat
    return ChainComplex(ring, basis, d)
