"""Exact linear algebra over Z: Smith and Hermite forms and free quotients.

Everything here works with arbitrary-precision Python integers; there is no
floating point and no modular shortcut anywhere.  Matrices are immutable
values, so all operations return new objects and are safe to share between
threads.

The dense reducer ``_Smith`` works on a list of rows, returns the diagonal
invariant factors and tracks no transform.  After a unit pivot the
reduction skips its divisibility scan, since a unit divides every entry.

``rank_torsion`` and ``cokernel_invariants`` take a ``SparseMatrix``, whose
column dicts serve as the rows of its transpose (same invariants), so a
sparse matrix is never densified for them.  They track no transform and
start with a sparse stage: the nonzeros are held as row dicts with a
column-to-rows index, and ±1 entries are taken as pivots, each replacing
the matrix by its Schur complement.  A unit pivot turns M into diag(1) ⊕ S
by unimodular row and column operations, so inv(M) = (1) ++ inv(S) and
nothing is divided except by ±1, whichever unit is taken.  The order
follows Markowitz's cost (row nnz − 1)·(column nnz − 1) (Markowitz 1957): a
unit alone in its column costs nothing and is taken first, and otherwise
the pivot is a unit of a shortest row that holds one, in its column with
the fewest rows.  A pivot set holds, for each row with a ±1 entry, the set
of its ±1 columns, files those rows in buckets by length, and keeps the
columns whose only nonzero is ±1.  A step writes only in the pivot row's
columns, and the set is updated there, where an entry is written or
cancelled, so it holds live candidates only and no pivot search rescans the
matrix.  A matrix with one nonzero per row and per column skips the pivots.

The block left when no unit entry remains is written out as plain lists,
one per column, and replaced by the reduced column Hermite basis of those
columns (Domich, Kannan and Trotter 1987; Havas, Majewski and Matthews
1998): zero above each pivot, a positive pivot, and every entry in another
column's pivot row in [0, pivot).  It spans the same lattice, so it has the
same nonzero invariants, with only rank-many columns; ``_Smith`` takes
those columns as its rows, the transpose having the same invariants.
Generators are inserted one at a time and only the columns an insertion
touched are reduced again, so the entries stay bounded by the pivots, where
Smith transforms grew to hundreds of thousands of bits.  The dense lattice
operations (images, kernels, preimages, solutions) and the dense matrix
type they work on are built on ``_hermite`` in ``tests/dense_reference.py``.

The one quotient with a splitting of Z^n is ``FreeQuotient``, certified by
``complement_projection``, a triangular peel for the case where a known set
of coordinate vectors should complement a relation lattice.  A relation
column whose only row outside the kept ones is ±1 there fixes the
projection of that row's coordinate vector; the rows it peels leave
further columns with one row to go, and a queue holds them.
When every row is peeled, the pivot columns and the kept coordinate vectors
form a unimodular triangular matrix, and the projection is certified once
it kills every other relation column.  Nothing is eliminated, so nothing
fills in, and there is no gcd step: a row the peel cannot reach with a unit
raises.  The distribution relations on the depth-zero classes peel this way
at every level the package uses, so one pass over the nonzeros replaces
three dense Smith reductions.

Operators on the level module A(f) are permutations or fiber sums, with
about one nonzero per column, so they are ``SparseMatrix`` values: immutable,
column-sparse (each column a ``{row: nonzero}`` dict) and multiplied by
walking nonzeros only.  Products, sums, equality and the zero test all cost
O(nnz), which is what makes the commutation and induction certificates on
A(f) linear in |Xi(f)|.  The operators of the symbol module of
``skcx``, the differentials they induce on its via-N quotient, and the
Koszul-Tate blocks and total complexes of ``chainkit`` are ``SparseMatrix``
values too.

A residual of the sparse stage with one nonzero per row and per column (m
times a signed permutation, as in the almost-free complexes of ``ftate``)
skips the dense stage: its invariants are read off its entries' absolute
values, by the exponents of a coprime base of them in increasing order.

``two_adic_counts`` counts the invariant factors of a ``SparseMatrix`` by
2-adic valuation below a, modulo 2^a, with no elimination over Z: the
entries nonzero mod 2^a are split into the connected components of their
columns, and each component (small ones together) is reduced in a basis
of columns packed one a-bit field per row, keyed by the highest odd
field, one level of valuation at a time, so an int is as long as a times
its component, or a bundle of small ones, is tall.  At a = 1 it is the rank modulo 2.  ``signh``
reads the Tate groups of a sign of order 2^a off it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd


class ShapeMismatch(ValueError):
    """Operands have incompatible dimensions."""


class NotAComplement(ValueError):
    """The kept coordinates are not certified to complement the relation
    lattice: they do not, or the relations do not peel in triangular order."""


class InducedOperatorUndefined(RuntimeError):
    """An operator does not preserve the relations, so it induces no map on
    their quotient."""


class SparseMatrix:
    """Immutable column-sparse integer matrix.

    Column j is held as a dict ``{row: nonzero entry}``; zeros are never
    stored, so two matrices are equal exactly when their column dicts are.
    The operators on A(f) send each class to a short multiset of classes, so
    a product walks only the nonzeros: column j of ``a * b`` is the sum of
    ``b[k, j] * a.column(k)`` over the nonzeros of column j of b, O(nnz) for
    permutations and fiber sums.  Sums and differences merge the column
    dicts, and ``submatrix`` picks rows and columns.

    It is hashable: the hash is cached on first use and equal matrices hash
    alike, so homology computations can memoise their differentials by
    value.
    """

    __slots__ = ("rows", "cols", "entries", "_hash")

    def __init__(self, rows: int, columns):
        """``columns`` is a sequence of ``{row: entry}`` maps; zero entries
        are dropped and every row must lie in range(rows)."""
        rows = int(rows)
        entries = []
        for col in columns:
            col = {int(i): int(v) for i, v in col.items() if v}
            if any(not 0 <= i < rows for i in col):
                raise ShapeMismatch(f"row index outside range({rows})")
            entries.append(col)
        _init_sparse(self, rows, tuple(entries))

    def __setattr__(self, *args):
        raise AttributeError("SparseMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return _sparse(int(n), tuple({i: 1} for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "SparseMatrix":
        return _sparse(int(rows), ({},) * int(cols))

    def column(self, j):
        col = self.entries[j]
        return tuple(col.get(i, 0) for i in range(self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.entries == other.entries
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.rows, tuple(frozenset(col.items()) for col in self.entries)))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch(f"add {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        out = []
        for a, b in zip(self.entries, other.entries):
            acc = dict(a)
            for i, v in b.items():
                acc[i] = acc.get(i, 0) + sign * v
            out.append({i: v for i, v in acc.items() if v})
        return _sparse(self.rows, tuple(out))

    def __mul__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatch(f"mul {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        left = self.entries
        out = []
        for col in other.entries:
            if len(col) == 1:
                (k, b), = col.items()
                if b == 1:
                    # a class map column picks one column; columns are never
                    # mutated, so it can be shared
                    out.append(left[k])
                    continue
            acc = {}
            for k, b in col.items():
                for i, a in left[k].items():
                    acc[i] = acc.get(i, 0) + a * b
            out.append({i: v for i, v in acc.items() if v})
        return _sparse(self.rows, tuple(out))

    def submatrix(self, row_indices, col_indices) -> "SparseMatrix":
        """The entries in the given (distinct) rows and the given columns, in
        that order; O(nnz) of the chosen columns."""
        slot = {i: t for t, i in enumerate(row_indices)}
        entries = self.entries
        return _sparse(
            len(slot),
            tuple({slot[i]: v for i, v in entries[j].items() if i in slot} for j in col_indices),
        )


def _init_sparse(m, rows: int, entries: tuple):
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "cols", len(entries))
    object.__setattr__(m, "entries", entries)


def _sparse(rows: int, entries: tuple) -> SparseMatrix:
    """A SparseMatrix around ``entries``, a tuple of column dicts that hold
    nonzero ints at rows in range(rows); skips ``__init__``'s checks."""
    m = object.__new__(SparseMatrix)
    _init_sparse(m, rows, entries)
    return m


def repeat_diagonal(block: SparseMatrix, copies: int, sign: int = 1) -> SparseMatrix:
    """The block diagonal of ``copies`` copies of sign * block, sign = ±1."""
    n = block.rows
    return _sparse(
        n * copies,
        tuple({k * n + i: sign * v for i, v in col.items()}
              for k in range(copies) for col in block.entries),
    )


@dataclass(frozen=True)
class AbGroupInvariants:
    """A finitely generated abelian group: free rank plus elementary divisors.

    ``torsion`` is the divisibility chain d_1 | d_2 | ... with every d_i >= 2;
    Z/1 factors are dropped.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {self.torsion} is not a divisibility chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion entries must be >= 2")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def is_free(self) -> bool:
        return not self.torsion

    def order(self):
        """Group order, or None if infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _xgcd(a: int, b: int):
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class _Smith:
    """Mutable SNF state: a list of rows, each a list of ints, reduced in
    place by unimodular row and column operations."""

    def __init__(self, rows: list):
        self.r, self.c = len(rows), len(rows[0]) if rows else 0
        self.a = rows

    def row_swap(self, i, t):
        if i == t:
            return
        self.a[i], self.a[t] = self.a[t], self.a[i]

    def col_swap(self, j, t):
        if j == t:
            return
        for row in self.a:
            row[j], row[t] = row[t], row[j]

    def row_negate(self, i):
        self.a[i] = [-x for x in self.a[i]]

    def row_two(self, t, i, s, u, x, y):
        """Rows (t, i) <- (s*row_t + u*row_i, x*row_t + y*row_i); det = +-1."""
        at, ai = self.a[t], self.a[i]
        self.a[t] = [s * p + u * q for p, q in zip(at, ai)]
        self.a[i] = [x * p + y * q for p, q in zip(at, ai)]

    def col_two(self, t, j, s, u, x, y):
        """Cols (t, j) <- (s*col_t + u*col_j, x*col_t + y*col_j); det = +-1."""
        for row in self.a:
            p, q = row[t], row[j]
            row[t] = s * p + u * q
            row[j] = x * p + y * q

    def _find_pivot(self, t):
        best = None
        for i in range(t, self.r):
            row = self.a[i]
            for j in range(t, self.c):
                v = row[j]
                if v:
                    av = -v if v < 0 else v
                    if av == 1:
                        return 1, i, j
                    if best is None or av < best[0]:
                        best = (av, i, j)
        return best

    def _clear_cross(self, t):
        """Zero out column t below and row t to the right of the pivot."""
        while True:
            for i in range(t + 1, self.r):
                v = self.a[i][t]
                if v:
                    p = self.a[t][t]
                    if v % p == 0:
                        self.row_two(t, i, 1, 0, -(v // p), 1)
                    else:
                        g, s, u = _xgcd(p, v)
                        self.row_two(t, i, s, u, -(v // g), p // g)
            row_gcd_steps = False
            for j in range(t + 1, self.c):
                v = self.a[t][j]
                if v:
                    p = self.a[t][t]
                    if v % p == 0:
                        self.col_two(t, j, 1, 0, -(v // p), 1)
                    else:
                        g, s, u = _xgcd(p, v)
                        self.col_two(t, j, s, u, -(v // g), p // g)
                        row_gcd_steps = True
            if not row_gcd_steps:
                # Division-only column operations leave column t untouched,
                # so both the row and the column are now clear.
                return

    def reduce(self):
        k = min(self.r, self.c)
        for t in range(k):
            piv = self._find_pivot(t)
            if piv is None:
                break
            _, i0, j0 = piv
            self.row_swap(t, i0)
            self.col_swap(t, j0)
            while True:
                self._clear_cross(t)
                if self.a[t][t] < 0:
                    self.row_negate(t)
                p = self.a[t][t]
                if p == 1:
                    # every entry is divisible by a unit pivot
                    break
                bad = None
                for i in range(t + 1, self.r):
                    row = self.a[i]
                    for j in range(t + 1, self.c):
                        if row[j] % p:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                # Fold the offending row into the pivot row; the next pass
                # shrinks the pivot to a proper divisor, so this terminates.
                self.row_two(t, bad, 1, 1, 0, 1)
        return tuple(self.a[i][i] for i in range(k))


def _run_smith(rows: list) -> tuple:
    """The diagonal of the Smith normal form of the matrix with the given
    rows, lists of ints that the reduction overwrites; no transform
    tracked."""
    return _Smith(rows).reduce()


def _hermite(columns, height: int) -> dict:
    """Reduced column Hermite basis of the lattice spanned by ``columns``,
    each a list of ``height`` ints, which the insertion takes over.

    Returns {pivot row: column} in pivot order, each column a list of
    ``height`` ints that is zero above its pivot row and positive on it;
    every entry in another column's pivot row lies in [0, that pivot).
    Generators are inserted one at a time: a generator is cleared against
    the pivot of each row it reaches, by subtraction when that pivot divides
    it and by an extended-gcd step on the two columns otherwise, until it
    vanishes or becomes the pivot column of a new row.  Only the columns an
    insertion touched (and those their reduction changes) are reduced
    again.  No transform is tracked, and the entries stay bounded.
    """
    basis = {}
    for v in columns:
        touched = set()
        for i in range(height):
            x = v[i]
            if not x:
                continue
            c = basis.get(i)
            if c is None:
                basis[i] = v if x > 0 else [-z for z in v]
                touched.add(i)
                break
            d = c[i]
            if x % d:
                # (c, v) <- (s*c + u*v, (d/g)*v - (x/g)*c): determinant 1,
                # pivot g = gcd(d, x) in c and 0 in v
                g, s, u = _xgcd(d, x)
                a, b = d // g, x // g
                basis[i] = c[:i] + [s * y + u * z for y, z in zip(c[i:], v[i:])]
                v[i:] = [a * z - b * y for y, z in zip(c[i:], v[i:])]
                touched.add(i)
            else:
                q = x // d
                v[i:] = [z - q * y for y, z in zip(c[i:], v[i:])]
        if touched:
            _rereduce(basis, touched)
    return dict(sorted(basis.items()))


def _rereduce(basis: dict, touched: set):
    """Restore the reduced form after the pivot columns at ``touched`` changed.

    Row by row from the top: a touched pivot row is reduced in every column
    to its left, any other pivot row only in the columns changed so far.
    Subtracting pivot column p changes rows below p only, so the rows above
    stay reduced.
    """
    pivots = sorted(basis)
    dirty = set(touched)
    for t, p in enumerate(pivots):
        c = basis[p]
        for k in pivots[:t] if p in touched else [k for k in dirty if k < p]:
            col = basis[k]
            q = col[p] // c[p]
            if q:
                col[p:] = [y - q * z for y, z in zip(col[p:], c[p:])]
                dirty.add(k)


def _one_per_line(rows: dict, at: dict) -> bool:
    """Whether every row and every column holds at most one nonzero."""
    return all(len(r) == 1 for r in rows.values()) and all(len(hit) < 2 for hit in at.values())


def _unit_pivots(rows: dict, at: dict):
    """Eliminate ±1 pivots from the ``{row: {column: nonzero}}`` dict
    ``rows`` until no ±1 entry is left, yielding each pivot (row, column)
    before it is taken.

    ``at`` maps each column to the rows with a nonzero there, and is kept
    up to date.  A pivot is replaced by its Schur complement: row
    k -= (a_kj / s) * pivot row clears column j, and the column operations
    that then clear the pivot row touch no other row.  The pivot set holds
    live candidates only: ``units`` maps each row that holds a ±1 entry to
    the set of its ±1 columns, ``by_len[n]`` holds those rows with n
    nonzeros, and ``free`` the columns whose only nonzero is ±1.  A step
    writes only in the pivot row's columns, so only they are filed again.
    A unit alone in its column is taken first, since it updates no other
    row; otherwise the pivot is a ±1 entry of a shortest such row, in its
    column with the fewest rows.
    """
    units = {}  # row -> its ±1 columns, for the rows that hold one
    by_len = [set() for _ in range(len(at) + 1)]
    for i, r in rows.items():
        if u := {j for j, v in r.items() if v == 1 or v == -1}:
            units[i] = u
            by_len[len(r)].add(i)
    free = set()
    touched = at  # the columns to file in ``free`` again: all at first
    n = 1  # no row in ``units`` is shorter
    while True:
        for c in touched:
            hit = at[c]
            if len(hit) == 1 and c in units.get(next(iter(hit)), ()):
                free.add(c)
            else:
                free.discard(c)
        if free:
            j = free.pop()
            (i,) = at[j]
            del units[i]
            by_len[len(rows[i])].discard(i)
        else:
            while n < len(by_len) and not by_len[n]:
                n += 1
            if n == len(by_len):
                return
            i = by_len[n].pop()
            j = min(units.pop(i), key=lambda c: len(at[c]))
        yield i, j
        pivot = rows.pop(i)
        for c in pivot:
            at[c].discard(i)
        s = pivot.pop(j)
        for k in at.pop(j):
            r = rows[k]
            # out of the pivot set until its new entries are known
            u = units.pop(k, set())
            by_len[len(r)].discard(k)
            u.discard(j)
            a = r.pop(j) * s
            for c, v in pivot.items():
                old = r.get(c)
                if old is None:
                    w = r[c] = -a * v
                    at[c].add(k)
                elif old == a * v:
                    del r[c]
                    at[c].discard(k)
                    u.discard(c)
                    continue
                else:
                    w = r[c] = old - a * v
                if w == 1 or w == -1:
                    u.add(c)
                else:
                    u.discard(c)
            if u:
                units[k] = u
                by_len[len(r)].add(k)
                n = min(n, len(r))
            elif not r:
                del rows[k]
        touched = pivot


def _invariants(rows, height: int, width: int) -> tuple[int, ...]:
    """Invariant factors of the height x width matrix with the given rows.

    ``rows`` is a sequence of ``{column: nonzero}`` dicts, one per row, which
    the elimination consumes.  A sparse matrix passes its column dicts as
    the rows of its transpose, which has the same invariants.  A matrix
    with one nonzero per row and per column goes straight to its entries.
    """
    rows = {i: r for i, r in enumerate(rows) if r}
    at = {}  # column -> rows with a nonzero entry there
    for i, r in rows.items():
        for j in r:
            at.setdefault(j, set()).add(i)
    done = 0 if _one_per_line(rows, at) else sum(1 for _ in _unit_pivots(rows, at))
    if _one_per_line(rows, at):
        # diag(entries) up to signed permutations of the rows and the columns
        diag = _divisibility_chain([abs(v) for r in rows.values() for v in r.values()])
    else:
        # the residual's columns, over the rows left
        slot = {j: t for t, j in enumerate(j for j, hit in at.items() if hit)}
        columns = [[0] * len(rows) for _ in slot]
        for i, r in enumerate(rows.values()):
            for j, v in r.items():
                columns[slot[j]][i] = v
        # the Hermite basis spans the same column lattice, so it has the same
        # nonzero invariants, with bounded entries and only rank-many
        # columns; they go to _Smith as rows, since the transpose has the
        # same invariants too
        diag = _run_smith(list(_hermite(columns, len(rows)).values()))
    return (1,) * done + diag + (0,) * (min(height, width) - done - len(diag))


def two_adic_counts(m: SparseMatrix, a: int) -> tuple[int, ...]:
    """How many invariant factors of ``m`` have 2-adic valuation j, for each
    j < a, read modulo 2^a with no elimination over Z.

    Only the entries nonzero mod 2^a count.  Two rows are joined when a
    column has such entries in both (union-find, O(nnz)), so the columns
    fall into the connected components of their rows.  Components share no
    row and no sum below mixes two of them, so each is reduced on its own,
    except that small ones are taken together, up to 64 columns, to save
    the set-up of each.  In a group, a column becomes one int with an a-bit
    field per row, rows numbered in order, each field holding the entry
    mod 2^a.  Two columns add field by field modulo 2^a: XOR, then the
    carries (the AND) moved up one bit within each field and added again
    until none is left, so bits 0 and 1 of a sum are x0 ^ y0 and
    x1 ^ y1 ^ (x0 & y0).

    The columns go, fewest entries first, into a basis keyed by the highest
    odd field: a column is added to the basis column keyed there until its
    odd fields are new (it joins the basis) or gone (it is even).  The basis
    is independent mod 2, so its size counts the invariant factors that are
    units, and a combination of the columns is even only where its basis
    coefficients are.  So the even part of the column span is spanned by
    twice the basis and the even columns.  Halved (each field shifted down a
    bit) and read modulo 2^(a - 1), that is the span of the next level,
    where the basis grows by the factors of valuation 1, and so on up to
    a - 1.  In the last level a field is one bit and the sum is XOR, so at
    a = 1 the count is the rank of ``m`` modulo 2.
    """
    mask = (1 << a) - 1
    # each column as the rows of its entries nonzero mod 2^a, fewest first
    cols = [(rows, col) for col in m.entries if (rows := [i for i, v in col.items() if v & mask])]
    cols.sort(key=lambda c: len(c[0]))
    parent = {}

    def find(i):
        while parent.setdefault(i, i) != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for rows, _ in cols:
        root = find(rows[0])
        for i in rows[1:]:
            # a row not seen before joins the root at once
            if (up := parent.setdefault(i, root)) != root and (other := find(up)) != root:
                parent[other] = root
    components = {}
    for c in cols:
        components.setdefault(find(c[0][0]), []).append(c)
    groups = []
    for group in components.values():
        if groups and len(groups[-1]) + len(group) <= 64:
            groups[-1] += group
        else:
            groups.append(group)
    reached = [0] * a  # basis size after each level, summed over the groups
    for group in groups:
        at = {i: a * k for k, i in enumerate(sorted({i for rows, _ in group for i in rows}))}
        # packed one at a time, so that only the basis is held
        pending = (sum((col[i] & mask) << at[i] for i in rows) for rows, col in group)
        basis = {}
        for width in range(a, 1, -1):
            odd = ((1 << a * len(at)) - 1) // mask  # bit 0 of every field
            carries = odd * ((1 << width) - 2)  # bits 1 to width - 1 of every field
            even = []
            for v in pending:
                while low := v & odd:
                    top = low.bit_length()
                    b = basis.get(top)
                    if b is None:
                        basis[top] = v
                        break
                    carry = v & b
                    v ^= b
                    while carry := carry << 1 & carries:
                        carry, v = v & carry, v ^ carry
                else:
                    if v:
                        even.append(v >> 1)
            reached[a - width] += len(basis)
            keep = odd * ((1 << width - 1) - 1)  # the fields mod 2^(width - 1)
            basis = {top: b & keep for top, b in basis.items()}
            pending = even
        # one bit is left in each field: the sum is XOR, and nothing is left
        # to halve
        for v in pending:
            while v:
                top = v.bit_length()
                if top not in basis:
                    basis[top] = v
                    break
                v ^= basis[top]
        reached[a - 1] += len(basis)
    return tuple(n - below for n, below in zip(reached, [0] + reached[:-1]))


def _divisibility_chain(entries) -> tuple[int, ...]:
    """Invariant factors of diag(entries), for positive entries.

    The distinct entries are split over a coprime base: pairwise coprime
    b > 1, of which every entry is a product of powers.  Each prime divides
    at most one b, so the invariants take the exponents of each b in the
    entries in increasing order, as they would at a prime.  The work grows
    with the number of distinct entries times the base, not with the k²/2
    pairs of a gcd/lcm sweep over k entries.
    """
    counts = Counter(entries)
    base: set[int] = set()
    todo = [v for v in counts if v > 1]
    while todo:
        x = todo.pop()
        for b in base:
            g = gcd(x, b)
            if g > 1:
                # g (x/g) (b/g) = xb/g < xb, so the splitting ends
                base.remove(b)
                todo += [y for y in (g, x // g, b // g) if y > 1]
                break
        else:
            base.add(x)
    chain = [1] * len(entries)
    for b in base:
        start = 0
        for e, k in sorted((_valuation(v, b), k) for v, k in counts.items()):
            if e:
                power = b**e
                for i in range(start, start + k):
                    chain[i] *= power
            start += k
    return tuple(chain)


def _valuation(v: int, b: int) -> int:
    e = 0
    while v % b == 0:
        v //= b
        e += 1
    return e


def rank_torsion(m: SparseMatrix) -> tuple[int, tuple[int, ...]]:
    """Rank of ``m`` and the torsion of Z^rows / im(m), with no transform.

    The column dicts of ``m`` are reduced as the rows of its transpose,
    which has the same invariants.  The torsion is the invariant factors
    above 1, a divisibility chain.
    """
    diag = _invariants([dict(col) for col in m.entries], m.cols, m.rows)
    return sum(1 for d in diag if d), tuple(d for d in diag if d > 1)


def cokernel_invariants(m: SparseMatrix) -> AbGroupInvariants:
    """Invariants of Z^rows / im(m), with no transform tracked."""
    rank, torsion = rank_torsion(m)
    return AbGroupInvariants(m.rows - rank, torsion)


def complement_projection(relations: SparseMatrix, keep_rows) -> SparseMatrix:
    """Projection of Z^n onto span(e_i : i in keep_rows) along im(relations).

    Certifies Z^n = span(e_keep) ⊕ im(relations) by a triangular peel.  A
    relation column with exactly one unpeeled row outside ``keep_rows``, and
    ±1 there, peels that row r: the projection P kills the column, so
    P(e_r) = -(±1) · sum of the column's other entries times their P(e_i),
    all known already.  Peeling a row can leave further columns with one
    unpeeled row; they wait in a queue.  The pivot columns and e_keep then
    form a triangular matrix with ±1 on the diagonal, so they are a basis of
    Z^n and P is the projection along the span of the pivot columns; that
    span is im(relations) exactly when P kills every other column, which is
    checked last.  Nothing is eliminated, so nothing fills in.  Raises
    NotAComplement when a row is left unpeeled or a column survives; an
    unpeeled row does not by itself prove that no complement exists.

    Both the relations and the result are ``SparseMatrix``, and nothing of
    size n x n is ever built.  Row t of the result is the coordinate along
    e_{keep_rows[t]}.  Such a projection is unique, so it agrees with any
    other way of computing it.
    """
    n = relations.rows
    keep = list(keep_rows)
    slot = {i: t for t, i in enumerate(keep)}
    if len(slot) != len(keep) or any(not 0 <= i < n for i in keep):
        raise ShapeMismatch("keep_rows must be distinct row indices")
    cols = relations.entries
    proj = [None] * n  # P(e_i) as {slot: coefficient}; None while row i is unpeeled
    for t, i in enumerate(keep):
        proj[i] = {t: 1}
    unpeeled = [0] * len(cols)  # per column: its unpeeled rows outside keep_rows
    meets = {}  # row outside keep_rows -> the columns with a nonzero there
    for j, col in enumerate(cols):
        for i in col:
            if i not in slot:
                meets.setdefault(i, []).append(j)
                unpeeled[j] += 1

    def image(col, skip=None):
        acc = {}
        for i, v in col.items():
            if i != skip:
                for t, a in proj[i].items():
                    acc[t] = acc.get(t, 0) + a * v
        return {t: w for t, w in acc.items() if w}

    ready = [j for j, k in enumerate(unpeeled) if k == 1]
    pivot = [False] * len(cols)
    while ready:
        j = ready.pop()
        if unpeeled[j] != 1:
            continue  # another column peeled its last row
        col = cols[j]
        r = next(i for i in col if proj[i] is None)
        s = col[r]
        if s != 1 and s != -1:
            continue
        proj[r] = {t: -s * w for t, w in image(col, r).items()}
        pivot[j] = True
        for k in meets[r]:
            unpeeled[k] -= 1
            if unpeeled[k] == 1:
                ready.append(k)
    if None in proj:
        raise NotAComplement(f"row {proj.index(None)} is not peeled by a unit pivot")
    if any(image(col) for col, p in zip(cols, pivot) if not p):
        raise NotAComplement("the relations meet the span of the kept rows")
    return _sparse(len(keep), tuple(proj))


@dataclass(frozen=True)
class FreeQuotient:
    """Z^n / im(relations), free on kept coordinates.

    ``projection`` P is the ``complement_projection`` of the relations R
    onto the kept coordinates, so it kills exactly im(R), and ``section`` S
    sends the quotient basis to the kept basis vectors, so P S = 1.  All
    three are ``SparseMatrix``.

    An operator induces P op S on the quotient once it maps im(R) into
    itself.  ``induce_preserving`` forms P op S for a caller that has
    certified the preservation with no product against R:
    the commuting operators of A(f) on ``distmod.UModule``, each induced
    where it is read, the relations being certified to be the columns of
    the nu_p - X_p when the UModule is built, and the
    via-N quotient of ``skcx`` for neg, whose map is checked to keep the
    multiples of each p.
    """

    relations: SparseMatrix
    projection: SparseMatrix
    section: SparseMatrix

    def induce_preserving(self, op: SparseMatrix) -> SparseMatrix:
        """P op S for an operator already known to map im(R) into itself.

        Nothing is checked here: on an operator that moves a relation off
        im(R) the result is not a map of the quotient.
        """
        return self.projection * (op * self.section)
