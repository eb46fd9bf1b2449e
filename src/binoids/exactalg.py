"""Exact integer linear algebra.

Smith normal form with unimodular certificates (for lattice bases and
exact solving), cokernels, cohomology of complexes of free abelian
groups, and universal-coefficient evaluation for symbolic coefficient
groups.  All arithmetic uses Python's arbitrary-precision integers;
nothing here ever touches floats.

Every dense Smith form runs through one kernel, `_smith`, on a list of
integer rows and a column count, tracking U and V only when asked: the
unit lattices read both, the difference group U, and the remainders and
rank checks neither.  IntMatrix remains at the public boundary:
`smith_normal_form`, `solve_columns`, `invariant_factors`, `cokernel`.

Cohomology needs no certificates.  For free groups
Z^a --d_in--> Z^b --d_out--> Z^c,

    ker d_out / im d_in = Z^(b - rk d_in - rk d_out) + torsion(coker d_in),

and the rank and the cokernel torsion are read off the nonzero invariant
factors.  `invariant_factors` finds them in three steps, the first two on
a dict-of-rows copy, each pivot ±1 splitting off a factor 1 (Dumas,
Saunders and Villard, "On efficient sparse integer matrix Smith normal
forms", 2001).  First the free pivots: a unit entry alone in its row or
in its column is cancelled with no fill-in, and that can leave others
alone, so they are taken off a worklist (the coreduction of Mrozek and
Batko, "Coreduction homology algorithm", 2009, applied to a matrix).
Boundary matrices are mostly reduced this way.  Second, the unit entries
left come off a heap, least fill-in (row nonzeros - 1) * (column
nonzeros - 1) first (Markowitz, 1957), with costs refreshed lazily.
Third, the block left without unit entries goes to the dense Smith
normal form, which tracks neither transform: only its diagonal is read.

A complex is given by its ranks and differentials, as sparse rows (or
IntMatrix).  `_sparse_complex` checks d_(j+1) * d_j = 0 sparsely once per
consecutive pair, and `_reduce_complex` then reduces the complex as a
whole, from d_0 upward.  The check is the one place a nonzero composition
is reported: every complex of the package hands it a labeller name(k, r)
-> (degree, label), called only on failure, to name the cell of the row
at fault.

A unit pivot of d_j cancels a summand Z --±1--> Z of the complex
(Kaczynski, Mrozek and Ślusarek, "Homology computation by reduction of
chain complexes", 1998), which changes the neighbouring differentials
only by deleting one row of d_(j-1) and one column of d_(j+1).  So every
later differential is smaller before it is eliminated, and the remainders
left for the dense Smith normal form are smaller too.  Each differential
costs one copy of its rows and one column index: the columns that d_j's
pivots drop from d_(j+1) are deleted through that index, before its
elimination starts, and the rows they drop from d_(j-1) come off its
remainder.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable
from itertools import compress

from ._record import Record, setfield
from .errors import CompositionNonzero


class IntMatrix(Record):
    """An immutable integer matrix: `rows` x `cols`, `entries` a tuple of row tuples.

    >>> A = IntMatrix.from_rows([[1, 2], [3, 4]])
    >>> (A * A).to_lists()
    [[7, 10], [15, 22]]
    """

    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple):
        if rows.__class__ is not int or cols.__class__ is not int:
            raise ValueError("dimensions must be integers, not %r" % ((rows, cols),))
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        if len(entries) != rows:
            raise ValueError("row count mismatch")
        for row in entries:
            if len(row) != cols:
                raise ValueError("column count mismatch")
            if not {int}.issuperset(map(type, row)):  # bool and float are not entries
                raise ValueError("entries must be exact integers")
        setfield(self, "rows", rows)
        setfield(self, "cols", cols)
        setfield(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], cols: int | None = None) -> "IntMatrix":
        data = tuple(map(tuple, rows))
        if data:
            width = len(data[0])
        elif cols is not None:
            width = cols
        else:
            width = 0
        return cls(len(data), width, data)

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def to_lists(self) -> list:
        return [list(row) for row in self.entries]

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        cols = tuple(other.column(j) for j in range(other.cols))
        data = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.entries
        )
        return IntMatrix(self.rows, other.cols, data)


class SmithDecomposition(Record):
    """U * A * V = S with U, V unimodular and S the invariant-factor diagonal."""

    _fields = ("U", "S", "V")

    def __init__(self, U: IntMatrix, S: IntMatrix, V: IntMatrix):
        setfield(self, "U", U)
        setfield(self, "S", S)
        setfield(self, "V", V)

    def diagonal(self) -> tuple:
        return tuple(self.S.entry(i, i) for i in range(min(self.S.rows, self.S.cols)))


def _canonical_torsion(factors: Iterable[int]) -> tuple:
    """Invariant factors (each >= 2, divisibility chain) of ⊕ Z/f.

    Z/a ⊕ Z/b ≅ Z/gcd ⊕ Z/lcm, so sweeping every pair (i < j) to
    (gcd, lcm) leaves each entry dividing all later ones.
    """
    chain = [abs(int(f)) for f in factors]
    if any(f == 0 for f in chain):
        raise ValueError("torsion orders must be nonzero")
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = math.gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] * chain[j] // g
    return tuple(d for d in chain if d > 1)


class FinAbGroup(Record):
    """A finitely generated abelian group Z^free_rank ⊕ ⊕ Z/d_i in canonical form.

    >>> FinAbGroup.from_torsion([2, 3])
    FinAbGroup(free_rank=0, invariant_factors=(6,))
    >>> str(FinAbGroup(1, (2, 4)))
    'Z + Z/2 + Z/4'
    """

    _fields = ("free_rank", "invariant_factors")

    def __init__(self, free_rank: int, invariant_factors: Iterable[int] = ()):
        if free_rank.__class__ is not int:
            raise ValueError("free rank must be an integer, not %r" % (free_rank,))
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        factors = tuple(invariant_factors)
        for d in factors:
            if not isinstance(d, int) or d < 2:
                raise ValueError("invariant factors must be integers >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        setfield(self, "free_rank", free_rank)
        setfield(self, "invariant_factors", factors)

    @classmethod
    def from_torsion(cls, factors: Iterable[int], free_rank: int = 0) -> "FinAbGroup":
        return cls(free_rank, _canonical_torsion(factors))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % d for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.invariant_factors)}


TRIVIAL_GROUP = FinAbGroup(0)


class GroupExpr(Record):
    """G^free_power ⊕ ⊕ G/dG ⊕ ⊕ G[b] for an abstract abelian group G.

    The symbolic pieces are never simplified: what G/dG and G[b] look like
    depends on G, so they stay as data until `evaluate` is given a concrete
    group (Z, or Z/m for test oracles).

    >>> GroupExpr("K*", 0, (), (2,)).evaluate(4)
    FinAbGroup(free_rank=0, invariant_factors=(2,))
    """

    _fields = ("symbol", "free_power", "cotorsion", "torsion_sub")

    def __init__(
        self,
        symbol: str,
        free_power: int,
        cotorsion: Iterable[int] = (),
        torsion_sub: Iterable[int] = (),
    ):
        cotorsion, torsion_sub = tuple(cotorsion), tuple(torsion_sub)
        if free_power.__class__ is not int:
            raise ValueError("free power must be an integer, not %r" % (free_power,))
        if free_power < 0:
            raise ValueError("free power must be nonnegative")
        for field, orders in (("cotorsion", cotorsion), ("torsion_sub", torsion_sub)):
            for d in orders:
                if d.__class__ is not int or d < 2:  # bool is no order
                    raise ValueError("%s orders must be integers >= 2, not %r" % (field, d))
        setfield(self, "symbol", symbol)
        setfield(self, "free_power", free_power)
        setfield(self, "cotorsion", cotorsion)
        setfield(self, "torsion_sub", torsion_sub)

    @property
    def is_trivial(self) -> bool:
        return self.free_power == 0 and not self.cotorsion and not self.torsion_sub

    def evaluate(self, modulus: int | None = None) -> FinAbGroup:
        """The group at G = Z (modulus None) or G = Z/modulus."""
        if modulus is None:
            # Z/dZ = Z/d, Z[b] = 0
            return FinAbGroup.from_torsion(self.cotorsion, self.free_power)
        if modulus < 1:
            raise ValueError("modulus must be positive")
        factors = [modulus] * self.free_power
        factors.extend(math.gcd(d, modulus) for d in self.cotorsion)
        factors.extend(math.gcd(b, modulus) for b in self.torsion_sub)
        return FinAbGroup.from_torsion(f for f in factors if f > 1)

    def __str__(self) -> str:
        parts = []
        if self.free_power == 1:
            parts.append(self.symbol)
        elif self.free_power > 1:
            parts.append("(%s)^%d" % (self.symbol, self.free_power))
        parts.extend("%s/%d" % (self.symbol, d) for d in self.cotorsion)
        parts.extend("%s[%d]" % (self.symbol, b) for b in self.torsion_sub)
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {
            "symbol": self.symbol,
            "free": self.free_power,
            "cotorsion": list(self.cotorsion),
            "torsion_sub": list(self.torsion_sub),
        }


# ---------------------------------------------------------------------------
# Smith normal form


def _smith(rows: Iterable, n: int, u: bool = True, v: bool = True):
    """Lists (U, S, V) with U*A*V = S, for A the given integer rows with n
    columns, left unchanged; U (V) is [] unless u (v) asks for it.

    Every transform, and so every lattice basis, follows from the pivot
    order.  Step t takes the first least |entry| in row order of rows and
    columns t.., stopping at the first ±1, and moves it to (t, t).  Rows
    are cleared below it before columns right of it, and the pivot is
    chosen again until both are clear.  Then the first row with an entry
    the pivot does not divide is added to row t and step t starts over,
    and the sign is fixed last.  The column operations of one pass commute,
    so they are applied at once to the rows that meet column t.
    """
    S = [list(row) for row in rows]
    m = len(S)
    U = [[0] * i + [1] + [0] * (m - 1 - i) for i in range(m)] if u else []
    V = [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)] if v else []
    t = 0
    while t < m and t < n:
        best = 0
        for i in range(t, m):
            row = S[i]
            for j in range(t, n):
                x = abs(row[j])
                if x and (not best or x < best):
                    best, bi, bj = x, i, j
                    if x == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        if bi != t:
            S[t], S[bi] = S[bi], S[t]
            if u:
                U[t], U[bi] = U[bi], U[t]
        if bj != t:
            for T in (S, V):
                for row in T:
                    row[t], row[bj] = row[bj], row[t]
        top = S[t]
        p = top[t]
        clear = True
        for i in range(t + 1, m):
            row = S[i]
            q = row[t] // p
            if q:
                S[i] = row = [a - q * b for a, b in zip(row, top)]
                if u:
                    U[i] = [a - q * b for a, b in zip(U[i], U[t])]
            if row[t]:
                clear = False
        qs = [x // p for x in top]
        qs[t] = 0
        if any(qs):
            for T in (S, V):
                for k, row in enumerate(T):
                    c = row[t]
                    if c:
                        T[k] = [a - q * c for a, q in zip(row, qs)]
        if not clear or any(S[t][t + 1 :]):
            continue
        if p != 1 and p != -1:  # else it divides every entry
            below = range(t + 1, m)
            offender = next((i for i in below if any(x % p for x in S[i][t + 1 :])), None)
            if offender is not None:
                S[t] = [a + b for a, b in zip(S[t], S[offender])]
                if u:
                    U[t] = [a + b for a, b in zip(U[t], U[offender])]
                continue
        if p < 0:
            S[t][t] = -p
            if u:
                U[t] = [-a for a in U[t]]
        t += 1
    return U, S, V


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form with unimodular certificates.

    >>> dec = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> dec.diagonal()
    (2, 4)
    """
    U, S, V = _smith(A.entries, A.cols)
    return SmithDecomposition(
        IntMatrix.from_rows(U, cols=A.rows),
        IntMatrix.from_rows(S, cols=A.cols),
        IntMatrix.from_rows(V, cols=A.cols),
    )


def _sparse_rows(A: IntMatrix) -> dict:
    """Row index -> {column: entry} over the nonzero entries of A."""
    rows = {}
    for i, row in enumerate(A.entries):
        if any(row):
            rows[i] = {j: row[j] for j in compress(range(A.cols), row)}
    return rows


def _eliminate(rows: dict, dropped: Iterable = ()) -> list:
    """Cancel the unit entries of the matrix with these sparse rows.

    First the column index is built, one set of rows per column, and the
    columns in `dropped` are deleted through it; on a complex composing to
    zero they empty no row (see `_reduce_complex`).
    Free pivots come next: a unit entry alone in its row or in its column
    is cancelled with no fill-in, and cancelling it can leave other entries
    alone, so lone rows and columns are taken off a worklist whenever it
    holds one (the coreduction of Mrozek and Batko, 2009, on a matrix); a
    lone entry other than ±1 is never a pivot.  Once the worklist first
    runs dry, the unit entries left go on a heap and come off in order of
    least fill-in (Markowitz), re-costed when popped.  `rows` is reduced in
    place to the block they leave, which has no entry ±1 and is left for
    the dense Smith normal form; the pivots are returned as (row, column)
    pairs, each one invariant factor 1.
    """
    cols = {}
    for i, row in rows.items():
        for j in row:
            if j in cols:
                cols[j].add(i)
            else:
                cols[j] = {i}
    for j in dropped:
        for i in cols.pop(j, ()):
            del rows[i][j]
    lone_rows = [i for i, row in rows.items() if len(row) == 1]
    lone_cols = [j for j, above in cols.items() if len(above) == 1]
    pivots, heap = [], None
    while True:
        if lone_rows:
            p = lone_rows.pop()
            if len(rows.get(p, ())) != 1:
                continue
            (q,) = rows[p]
        elif lone_cols:
            q = lone_cols.pop()
            if len(cols.get(q, ())) != 1:
                continue
            (p,) = cols[q]
        else:
            if heap is None:
                # a key per unit entry left, maybe stale: pushed back when popped if its cost grew
                heap = [
                    ((len(row) - 1) * (len(cols[j]) - 1), i, j)
                    for i, row in rows.items()
                    for j, x in row.items()
                    if x == 1 or x == -1
                ]
                heapq.heapify(heap)
            if not heap:
                break
            cost, p, q = heapq.heappop(heap)
            if rows.get(p, {}).get(q) not in (1, -1):
                continue
            now = (len(rows[p]) - 1) * (len(cols[q]) - 1)
            if now > cost:
                heapq.heappush(heap, (now, p, q))
                continue
        prow = rows[p]
        if prow[q] != 1 and prow[q] != -1:
            continue
        del rows[p]
        for j in prow:
            above = cols[j]
            above.discard(p)
            if len(above) == 1:
                lone_cols.append(j)
        sign = prow.pop(q)
        # a free pivot leaves prow empty or column q without other rows, so
        # only a pivot off the heap makes fill-in
        for i in cols.pop(q):
            row = rows[i]
            f = row.pop(q) * sign
            for j, v in prow.items():
                old = row.get(j, 0)
                x = old - f * v
                if x:
                    if not old:
                        cols[j].add(i)
                    row[j] = x
                    if (x == 1 or x == -1) and old not in (1, -1):
                        heapq.heappush(heap, ((len(row) - 1) * (len(cols[j]) - 1), i, j))
                else:
                    del row[j]
                    cols[j].discard(i)
            if len(row) == 1:
                lone_rows.append(i)
            elif not row:
                del rows[i]
        pivots.append((p, q))
    return pivots


def _dense_factors(rows: list, n: int) -> tuple:
    """The nonzero invariant factors of these integer rows of length n, by
    the dense Smith form tracking neither transform."""
    _, S, _ = _smith(rows, n, False, False)
    return tuple(S[i][i] for i in range(min(len(S), n)) if S[i][i])


def _remainder_factors(rows: dict) -> tuple:
    """The nonzero invariant factors of a block of sparse rows, by the dense Smith form."""
    if not rows:
        return ()
    rest = sorted({j for row in rows.values() for j in row})
    return _dense_factors([[row.get(j, 0) for j in rest] for row in rows.values()], len(rest))


def _dense(rows: dict, m: int, n: int) -> IntMatrix:
    """The m x n IntMatrix with these sparse rows."""
    data = [[0] * n for _ in range(m)]
    for i, row in rows.items():
        for j, x in row.items():
            data[i][j] = x
    return IntMatrix(m, n, tuple(map(tuple, data)))


def _nonzero_product_row(inner: dict, outer: dict) -> int | None:
    """The first row of outer * inner that is not zero, for sparse rows, or None."""
    for r, row in outer.items():
        product = {}
        for t, w in row.items():
            for j, x in inner.get(t, {}).items():
                product[j] = product.get(j, 0) + w * x
        if any(product.values()):
            return r
    return None


def invariant_factors(A: IntMatrix) -> tuple:
    """The nonzero invariant factors of A, each dividing the next.

    Unit pivots are eliminated sparsely, free ones first and then in order
    of least fill-in, and the block they leave goes to the dense Smith
    normal form (see the module docstring).

    >>> invariant_factors(IntMatrix.from_rows([[1, -1], [0, 2]]))
    (1, 2)
    """
    rows = _sparse_rows(A)
    return (1,) * len(_eliminate(rows)) + _remainder_factors(rows)


def cokernel(A: IntMatrix) -> FinAbGroup:
    """Z^rows modulo the column span of A, in canonical form.

    >>> cokernel(IntMatrix.from_rows([[2, 0], [0, 3]]))
    FinAbGroup(free_rank=0, invariant_factors=(6,))
    """
    factors = invariant_factors(A)
    return FinAbGroup(A.rows - len(factors), tuple(d for d in factors if d > 1))


def _divide(U: list, d: list, C) -> list:
    """The rows of Z with S*Z = U*C, for S the diagonal d_1..d_r over zero
    rows and C given by its rows.

    Raises ValueError, as no integer Z exists, when a d_i does not divide
    row i of U*C or a row of U*C below r is not zero.
    """
    width, UC = len(C[0]) if C else 0, []
    for row in U:  # U is mostly a signed permutation: skip its zeros
        y = None
        for u, c in zip(row, C):
            if u:
                y = [u * b for b in c] if y is None else [a + u * b for a, b in zip(y, c)]
        UC.append(y or [0] * width)
    if any(any(y) for y in UC[len(d) :]) or any(x % s for y, s in zip(UC, d) for x in y):
        raise ValueError("no integer solution")
    return [[x // s for x in y] for y, s in zip(UC, d)]


def solve_columns(B: IntMatrix, C: IntMatrix) -> IntMatrix:
    """The unique integer X with B*X = C, for B of full column rank.

    U*B*V = S turns B*X = C into S*Z = U*C with X = V*Z.  Raises ValueError
    when B's rank is short of its column count or no integer solution exists.
    """
    if C.rows != B.rows:
        raise ValueError("shape mismatch")
    U, S, V = _smith(B.entries, B.cols)
    d = [S[i][i] for i in range(min(B.rows, B.cols)) if S[i][i]]
    if len(d) < B.cols:
        raise ValueError("matrix does not have full column rank")
    Z = IntMatrix.from_rows(_divide(U, d, C.entries), cols=C.cols)
    return IntMatrix.from_rows(V, cols=B.cols) * Z


def _sparse_complex(ranks: list, diffs: list, name=None) -> list:
    """The sparse rows of each differential, once the complex is checked.

    diffs[j] maps Z^ranks[j] -> Z^ranks[j+1], as an IntMatrix or as sparse
    rows {row: {column: nonzero entry}}, which are kept as given.  Shapes
    raise ValueError and a nonzero d_(j+1) * d_j raises CompositionNonzero,
    naming the row at fault and, given the labeller name(k, r) -> (degree,
    label) of basis vector r of ranks[k], its degree and label.  The
    labeller is called only then, so a passing check pays nothing for it.
    """
    if len(diffs) != max(len(ranks) - 1, 0):
        raise ValueError("need exactly one differential between consecutive groups")
    sparse = []
    for j, d in enumerate(diffs):
        m, n = ranks[j + 1], ranks[j]
        if isinstance(d, IntMatrix):
            fits = (d.rows, d.cols) == (m, n)
            d = _sparse_rows(d)
        else:  # no empty row, and the row and column indices in range
            used = set().union(*d.values())
            fits = all(d.values()) and (
                not d or 0 <= min(d) and max(d) < m and 0 <= min(used) and max(used) < n
            )
        if not fits:
            raise ValueError("differential %d does not map Z^%d to Z^%d" % (j, n, m))
        sparse.append(d)
    for j in range(1, len(sparse)):
        r = _nonzero_product_row(sparse[j - 1], sparse[j])
        if r is not None:
            at = "" if name is None else " (degree %d, label %r)" % name(j + 1, r)
            raise CompositionNonzero("row %d of d_%d * d_%d is not zero%s" % (r, j, j - 1, at))
    return sparse


def _reduce_complex(ranks: list, diffs: list) -> list:
    """Cohomology of a complex of sparse differentials known to compose to zero.

    A unit entry of d_j at (p, q) splits off the summand Z --±1--> Z of
    the basis vectors q of degree j and p of degree j + 1 (Kaczynski,
    Mrozek and Ślusarek, 1998).  Cancelling it turns column p of d_(j+1)
    and row q of d_(j-1) into integer combinations of the other columns
    and rows, so they are dropped without changing any invariant factor:
    the columns by `_eliminate` on its copy of d_(j+1), through its column
    index, before it cancels anything; the rows from the unit-free
    remainder of d_(j-1) after d_j is eliminated.  No row of d_(j+1) lies
    on those columns alone: d_j's pivots form a unimodular block, so such
    a row would make d_(j+1) * d_j nonzero.  The remainders then go
    to the dense Smith normal form.  Each differential is copied once, row
    by row, so `diffs` is left as it was.
    """
    pivot_counts, remainders, dropped = [], [], ()
    for d in diffs:
        rows = {i: row.copy() for i, row in d.items()}
        pivots = _eliminate(rows, dropped)
        if remainders:
            for _, q in pivots:
                remainders[-1].pop(q, None)
        pivot_counts.append(len(pivots))
        remainders.append(rows)
        dropped = [p for p, _ in pivots]
    factors = [()]
    for units, rows in zip(pivot_counts, remainders):
        factors.append((1,) * units + _remainder_factors(rows))
    factors.append(())
    return [_cohomology(rank, factors[j], factors[j + 1]) for j, rank in enumerate(ranks)]


def _cohomology(rank: int, factors_in: tuple, factors_out: tuple) -> FinAbGroup:
    """H = Z^(rank - rk d_in - rk d_out) ⊕ torsion(coker d_in) at the middle Z^rank."""
    return FinAbGroup(
        rank - len(factors_in) - len(factors_out),
        tuple(d for d in factors_in if d > 1),
    )


def coefficient_cohomology(h_here: FinAbGroup, h_next: FinAbGroup, symbol: str) -> GroupExpr:
    """H^j(C; G) from the integer cohomology in degrees j and j+1.

    For a complex of free abelian groups, universal coefficients give
    H^j(C; G) = G^f ⊕ ⊕ G/dG ⊕ ⊕ G[b] with f, d, b read off H^j(C; Z)
    and the torsion of H^{j+1}(C; Z).
    """
    return GroupExpr(
        symbol,
        h_here.free_rank,
        h_here.invariant_factors,
        h_next.invariant_factors,
    )
