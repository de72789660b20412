"""Exact linear algebra over Z: Smith normal form, kernels, cokernel presentations.

Everything here works with arbitrary-precision Python integers; there is no
floating point and no modular shortcut anywhere.  Matrices are immutable
values, so all operations return new objects and are safe to share between
threads.

The dense reducer ``_Smith`` returns the diagonal invariant factors together
with the unimodular transforms (and their inverses) realizing them; each
transform is tracked only when a caller asks for it.  After a unit pivot the
reduction skips its divisibility scan, since a unit divides every entry.
``snf`` asks for all four transforms; nothing in the package calls it, and
it stays public as the reference the tests hold the other entry points to.

``snf_invariants`` (and through it ``rank_torsion``, ``cokernel_invariants``
and ``subquotient``) tracks no transform and starts with a sparse stage: the
nonzeros are held as row dicts with a column-to-rows index, and ±1 entries
are taken as pivots in Markowitz order, each replacing the matrix by its
Schur complement.  A unit pivot turns M into diag(1) ⊕ S by unimodular row
and column operations, so inv(M) = (1) ++ inv(S) and nothing is divided
except by ±1; the dense reduction only sees the block left when no unit
entry remains.  The dense ``_Smith`` stays the only reducer that tracks
transforms.

On top of these sit the lattice utilities used by every homology
computation in the package: integer kernels (automatically saturated),
column‑lattice bases, exact linear solves, cokernel presentations with a
splitting of the free part, and subquotient invariants
lattice(num)/lattice(den).

Next to ``snf`` sits ``complement_projection``, a sparse Gauss–Jordan column
elimination for the case where a known set of coordinate vectors should
complement a relation lattice.  It takes the relation columns as dicts,
takes ±1 pivots first in Markowitz order (extended-gcd column steps only when
no unit is left) and either certifies Z^n = span(e_keep) ⊕ im(relations) and
returns the projection along the relations, or raises.  Almost every pivot
of a distribution relation lattice is a unit, so this replaces three dense
Smith reductions by one pass over the nonzeros.

Operators on the level module A(f) are permutations or fiber sums, with
about one nonzero per column, so they are ``SparseMatrix`` values: immutable,
column-sparse (each column a ``{row: nonzero}`` dict) and multiplied by
walking nonzeros only.  Products, equality and the zero test all cost
O(nnz), which is what makes the commutation and induction certificates on
A(f) linear in |Xi(f)|; ``dense()`` hands an ``IntMatrix`` to the callers
that need dense arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress


class ShapeMismatch(ValueError):
    """Operands have incompatible dimensions."""


class NoIntegerSolution(ValueError):
    """A x = b has no solution over Z."""


class NotAComplement(ValueError):
    """The kept coordinates do not complement the relation lattice."""


class IntMatrix:
    """Immutable dense integer matrix.

    Rows are stored as tuples of Python ints, so entries never overflow.
    ``rows == 0`` or ``cols == 0`` are legal and show up routinely as empty
    differentials or empty relation sets.
    """

    __slots__ = ("rows", "cols", "data", "_hash")

    def __init__(self, data, cols=None):
        data = tuple(tuple(map(int, row)) for row in data)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ShapeMismatch("ragged rows")
            if cols is not None and cols != width:
                raise ShapeMismatch("cols does not match row width")
            cols = width
        else:
            cols = 0 if cols is None else int(cols)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, *args):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.diagonal([1] * n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        cols = int(cols)
        return _trusted(((0,) * cols,) * int(rows), cols)

    @classmethod
    def diagonal(cls, entries, rows=None, cols=None) -> "IntMatrix":
        entries = [int(e) for e in entries]
        rows = len(entries) if rows is None else int(rows)
        cols = len(entries) if cols is None else int(cols)
        data = [[0] * cols for _ in range(rows)]
        for i in range(min(rows, cols, len(entries))):
            data[i][i] = entries[i]
        return _trusted(tuple(map(tuple, data)), cols)

    @classmethod
    def from_columns(cls, columns, rows=None) -> "IntMatrix":
        columns = [tuple(c) for c in columns]
        if not columns:
            return cls.zeros(0 if rows is None else rows, 0)
        if any(len(c) != len(columns[0]) for c in columns):
            raise ShapeMismatch("ragged columns")
        return cls(tuple(zip(*columns)), cols=len(columns))

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def column(self, j):
        return tuple(row[j] for row in self.data)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.cols, self.data))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def __neg__(self):
        return _trusted(tuple(tuple(-x for x in row) for row in self.data), self.cols)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch(f"add {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        return _trusted(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)),
            self.cols,
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k: int) -> "IntMatrix":
        k = int(k)
        return _trusted(tuple(tuple(k * x for x in row) for row in self.data), self.cols)

    def __mul__(self, other):
        # Most operators here are permutations or fiber sums, so each row of
        # the right operand is reduced once to its nonzero (column, entry)
        # pairs and every product term walks only those.
        if self.cols != other.rows:
            raise ShapeMismatch(f"mul {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        width = other.cols
        js = range(width)
        nonzeros = [list(zip(compress(js, brow), compress(brow, brow))) for brow in other.data]
        out = []
        for row in self.data:
            acc = [0] * width
            for a, pairs in compress(zip(row, nonzeros), row):
                if a == 1:
                    for j, b in pairs:
                        acc[j] += b
                elif a == -1:
                    for j, b in pairs:
                        acc[j] -= b
                else:
                    for j, b in pairs:
                        acc[j] += a * b
            out.append(tuple(acc))
        return _trusted(tuple(out), width)

    def apply(self, vector):
        """Matrix times column vector (sequence of ints)."""
        vector = list(vector)
        if len(vector) != self.cols:
            raise ShapeMismatch("vector length mismatch")
        return tuple(sum(a * v for a, v in zip(row, vector) if a) for row in self.data)

    def transpose(self) -> "IntMatrix":
        if not self.rows:
            return IntMatrix.zeros(self.cols, 0)
        return _trusted(tuple(zip(*self.data)), self.rows)

    def hstack(self, other) -> "IntMatrix":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack row mismatch")
        return _trusted(
            tuple(r1 + r2 for r1, r2 in zip(self.data, other.data)),
            self.cols + other.cols,
        )

    def vstack(self, other) -> "IntMatrix":
        if self.cols != other.cols:
            raise ShapeMismatch("vstack col mismatch")
        return _trusted(self.data + other.data, self.cols)

    def submatrix(self, row_indices, col_indices) -> "IntMatrix":
        data = self.data
        rows = [data[i] for i in row_indices]
        col_indices = list(col_indices)
        return _trusted(
            tuple(tuple(row[j] for j in col_indices) for row in rows),
            len(col_indices),
        )


def _trusted(data: tuple, cols: int) -> "IntMatrix":
    """An IntMatrix around ``data``, a tuple of equal-length tuples of ints.

    Internal constructors whose entries already are Python ints (they come
    from other matrices or from integer arithmetic) skip ``__init__``'s
    coercion and ragged-row check.
    """
    m = object.__new__(IntMatrix)
    object.__setattr__(m, "rows", len(data))
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "data", data)
    return m


class SparseMatrix:
    """Immutable column-sparse integer matrix.

    Column j is held as a dict ``{row: nonzero entry}``; zeros are never
    stored, so two matrices are equal exactly when their column dicts are.
    The operators on A(f) send each class to a short multiset of classes, so
    a product walks only the nonzeros: column j of ``a * b`` is the sum of
    ``b[k, j] * a.column(k)`` over the nonzeros of column j of b, O(nnz) for
    permutations and fiber sums.  ``dense()`` converts to an ``IntMatrix``
    for the callers that need dense arithmetic.
    """

    __slots__ = ("rows", "cols", "entries")

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

    def column(self, j):
        col = self.entries[j]
        return tuple(col.get(i, 0) for i in range(self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.entries == other.entries
        )

    __hash__ = None

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return not any(self.entries)

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

    def dense(self) -> IntMatrix:
        data = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.entries):
            for i, v in col.items():
                data[i][j] = v
        return _trusted(tuple(map(tuple, data)), self.cols)


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


def block_diagonal(blocks) -> IntMatrix:
    blocks = list(blocks)
    cols = sum(b.cols for b in blocks)
    data = []
    c0 = 0
    for b in blocks:
        left = (0,) * c0
        right = (0,) * (cols - c0 - b.cols)
        data.extend(left + row + right for row in b.data)
        c0 += b.cols
    return _trusted(tuple(data), cols)


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


@dataclass(frozen=True)
class SnfResult:
    """L * M * R = diagonal(invariants), with all four transforms unimodular."""

    invariants: tuple[int, ...]
    left: IntMatrix
    right: IntMatrix
    left_inv: IntMatrix
    right_inv: IntMatrix

    def diagonal(self) -> IntMatrix:
        return IntMatrix.diagonal(self.invariants, rows=self.left.rows, cols=self.right.rows)


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
    """Mutable SNF state; each transform is tracked only when requested."""

    def __init__(self, m: IntMatrix, need_left: bool, need_right: bool,
                 need_left_inv: bool, need_right_inv: bool):
        self.r, self.c = m.rows, m.cols
        self.a = [list(row) for row in m.data]

        def ident(n):
            return [[1 if i == j else 0 for j in range(n)] for i in range(n)]

        self.L = ident(self.r) if need_left else None
        self.Li = ident(self.r) if need_left_inv else None
        self.R = ident(self.c) if need_right else None
        self.Ri = ident(self.c) if need_right_inv else None

    # Elementary operations keep the identities L*M0*R == A, Li == L^-1,
    # Ri == R^-1 at every step.

    def row_swap(self, i, t):
        if i == t:
            return
        self.a[i], self.a[t] = self.a[t], self.a[i]
        if self.L is not None:
            self.L[i], self.L[t] = self.L[t], self.L[i]
        if self.Li is not None:
            for row in self.Li:
                row[i], row[t] = row[t], row[i]

    def col_swap(self, j, t):
        if j == t:
            return
        for row in self.a:
            row[j], row[t] = row[t], row[j]
        if self.R is not None:
            for row in self.R:
                row[j], row[t] = row[t], row[j]
        if self.Ri is not None:
            self.Ri[j], self.Ri[t] = self.Ri[t], self.Ri[j]

    def row_negate(self, i):
        self.a[i] = [-x for x in self.a[i]]
        if self.L is not None:
            self.L[i] = [-x for x in self.L[i]]
        if self.Li is not None:
            for row in self.Li:
                row[i] = -row[i]

    def row_two(self, t, i, s, u, x, y):
        """Rows (t, i) <- (s*row_t + u*row_i, x*row_t + y*row_i); det = +-1."""
        at, ai = self.a[t], self.a[i]
        self.a[t] = [s * p + u * q for p, q in zip(at, ai)]
        self.a[i] = [x * p + y * q for p, q in zip(at, ai)]
        if self.L is not None:
            lt, li = self.L[t], self.L[i]
            self.L[t] = [s * p + u * q for p, q in zip(lt, li)]
            self.L[i] = [x * p + y * q for p, q in zip(lt, li)]
        if self.Li is not None:
            det = s * y - u * x
            for row in self.Li:
                p, q = row[t], row[i]
                row[t] = (y * p - x * q) * det
                row[i] = (-u * p + s * q) * det

    def col_two(self, t, j, s, u, x, y):
        """Cols (t, j) <- (s*col_t + u*col_j, x*col_t + y*col_j); det = +-1."""
        for row in self.a:
            p, q = row[t], row[j]
            row[t] = s * p + u * q
            row[j] = x * p + y * q
        if self.R is not None:
            for row in self.R:
                p, q = row[t], row[j]
                row[t] = s * p + u * q
                row[j] = x * p + y * q
        if self.Ri is not None:
            det = s * y - u * x
            rt, rj = self.Ri[t], self.Ri[j]
            self.Ri[t] = [(y * p - x * q) * det for p, q in zip(rt, rj)]
            self.Ri[j] = [(-u * p + s * q) * det for p, q in zip(rt, rj)]

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


def _run_smith(m, need_left, need_right, need_left_inv, need_right_inv):
    st = _Smith(m, need_left, need_right, need_left_inv, need_right_inv)
    diag = st.reduce()
    pack = lambda rows, n: _trusted(tuple(map(tuple, rows)), n) if rows is not None else None
    return (
        diag,
        pack(st.L, st.r),
        pack(st.R, st.c),
        pack(st.Li, st.r),
        pack(st.Ri, st.c),
    )


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form with transforms: left * m * right = diagonal.

    The invariant factors are nonnegative and form a divisibility chain
    (zeros trail).  ``left``/``right`` and their inverses are unimodular.
    The tests' reference for every other Smith entry point; the package
    itself asks ``_run_smith`` for only the transforms it uses.
    """
    diag, left, right, left_inv, right_inv = _run_smith(m, True, True, True, True)
    return SnfResult(diag, left, right, left_inv, right_inv)


def _markowitz_unit(rows, at):
    """(row, column) of a ±1 entry of least (row nnz − 1)·(column nnz − 1)."""
    best = None
    for i, r in rows.items():
        fill = len(r) - 1
        for j, v in r.items():
            if v == 1 or v == -1:
                cost = fill * (len(at[j]) - 1)
                if not cost:
                    return i, j
                if best is None or cost < best[0]:
                    best = (cost, i, j)
    return None if best is None else best[1:]


def snf_invariants(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors only, with no transform tracked.

    A sparse front end takes ±1 pivots in Markowitz order (fewest
    (row nnz − 1)·(column nnz − 1) first) and replaces the matrix by its
    Schur complement; the dense ``_Smith`` reduces whatever is left once no
    unit entry remains.  A unit pivot makes M ~ diag(1) ⊕ S by unimodular
    row and column operations, so the invariants are (1,) per pivot followed
    by those of S, and nothing is ever divided except by ±1.
    """
    width = range(m.cols)
    rows = {}  # row -> {column: nonzero entry}
    at = {}  # column -> rows with a nonzero entry there
    for i, row in enumerate(m.data):
        if any(row):
            r = rows[i] = dict(zip(compress(width, row), compress(row, row)))
            for j in r:
                at.setdefault(j, set()).add(i)
    units = 0
    while (unit := _markowitz_unit(rows, at)) is not None:
        i, j = unit
        pivot = rows.pop(i)
        for c in pivot:
            at[c].discard(i)
        s = pivot.pop(j)
        # row k -= (a_kj / s) * pivot row clears column j; the column
        # operations that then clear the pivot row touch no other row
        for k in at.pop(j):
            r = rows[k]
            a = r.pop(j) * s
            for c, v in pivot.items():
                old = r.get(c)
                if old is None:
                    r[c] = -a * v
                    at[c].add(k)
                elif old == a * v:
                    del r[c]
                    at[c].discard(k)
                else:
                    r[c] = old - a * v
            if not r:
                del rows[k]
        units += 1
    left = [j for j, hit in at.items() if hit]
    residual = _trusted(tuple(tuple(r.get(j, 0) for j in left) for r in rows.values()), len(left))
    diag = _run_smith(residual, False, False, False, False)[0] if rows else ()
    return (1,) * units + diag + (0,) * (min(m.rows, m.cols) - units - len(diag))


def rank_torsion(m: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """Rank of ``m`` and the torsion of Z^rows / im(m), with no transform.

    The torsion is the invariant factors above 1, a divisibility chain.
    """
    diag = snf_invariants(m)
    return sum(1 for d in diag if d), tuple(d for d in diag if d > 1)


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of {x : m x = 0}.

    The kernel of an integer matrix is a saturated sublattice (Z^n modulo it
    embeds in the free group Z^m), so any basis of it is automatically
    primitive: the SNF of the returned matrix has all invariants 1.
    """
    diag, _, right, _, _ = _run_smith(m, False, True, False, False)
    zero_cols = [j for j in range(m.cols) if j >= len(diag) or diag[j] == 0]
    return right.submatrix(range(m.cols), zero_cols)


def image_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of the lattice spanned by the columns of m."""
    diag, _, _, left_inv, _ = _run_smith(m, False, False, True, False)
    cols = []
    for j, d in enumerate(diag):
        if d:
            cols.append(tuple(d * left_inv.data[i][j] for i in range(m.rows)))
    return IntMatrix.from_columns(cols, rows=m.rows)


def solve(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Some integer X with a @ X = b, or raise NoIntegerSolution.

    When the columns of ``a`` are a lattice basis the solution is unique.
    """
    if a.rows != b.rows:
        raise ShapeMismatch("solve: row mismatch")
    diag, left, right, _, _ = _run_smith(a, True, True, False, False)
    lb = left * b
    y = [[0] * b.cols for _ in range(a.cols)]
    for i in range(a.rows):
        d = diag[i] if i < len(diag) else 0
        for j in range(b.cols):
            v = lb.data[i][j]
            if d == 0:
                if v:
                    raise NoIntegerSolution(f"inconsistent row {i}")
            else:
                q, rem = divmod(v, d)
                if rem:
                    raise NoIntegerSolution(f"divisibility fails at row {i}")
                if i < a.cols:
                    y[i][j] = q
    return right * _trusted(tuple(map(tuple, y)), b.cols)


def lattice_contains(basis_or_gens: IntMatrix, vectors: IntMatrix) -> bool:
    """True when every column of ``vectors`` lies in the span of the columns."""
    try:
        solve(basis_or_gens, vectors)
        return True
    except NoIntegerSolution:
        return False


def _invariants_from_diag(ambient: int, diag) -> AbGroupInvariants:
    nonzero = [d for d in diag if d]
    torsion = tuple(d for d in nonzero if d > 1)
    return AbGroupInvariants(ambient - len(nonzero), torsion)


@dataclass(frozen=True)
class Cokernel:
    """Presentation of Z^n / column-lattice(relations).

    ``section`` maps the free quotient back into Z^n (its columns project to
    a basis of the free part) and ``projection`` gives quotient coordinates;
    projection @ section is the identity.  The pair expresses endomorphisms
    on the quotient whenever the quotient is free.
    """

    invariants: AbGroupInvariants
    section: IntMatrix
    projection: IntMatrix
    relations: IntMatrix

    def induce(self, op: IntMatrix) -> IntMatrix:
        """Matrix of the endomorphism induced on the free quotient.

        Raises NoIntegerSolution when ``op`` does not preserve the relation
        lattice (the induced map would be undefined).
        """
        solve(self.relations, op * self.relations)
        return self.projection * op * self.section


def cokernel(m: IntMatrix, with_section: bool = True) -> Cokernel:
    """Invariants and free-part splitting of Z^rows / im(m).

    With ``with_section`` false only the left transform is tracked and the
    result's ``section`` is None, for callers that need ``projection`` alone.
    """
    n = m.rows
    diag, left, _, left_inv, _ = _run_smith(m, True, False, with_section, False)
    free_idx = [i for i in range(n) if i >= len(diag) or diag[i] == 0]
    section = left_inv.submatrix(range(n), free_idx) if with_section else None
    projection = left.submatrix(free_idx, range(n))
    return Cokernel(_invariants_from_diag(n, diag), section, projection, m)


def cokernel_invariants(m: IntMatrix) -> AbGroupInvariants:
    """Invariants of Z^rows / im(m), with no transform tracked."""
    return _invariants_from_diag(m.rows, snf_invariants(m))


def complement_projection(relations: SparseMatrix, keep_rows) -> SparseMatrix:
    """Projection of Z^n onto span(e_i : i in keep_rows) along im(relations).

    Certifies Z^n = span(e_keep) ⊕ im(relations) by a unimodular Gauss–Jordan
    column elimination of every row outside ``keep_rows``: each such row must
    get a ±1 pivot, and every column left over must be identically zero.
    Pivots are unit entries taken in Markowitz order (fewest updates times
    fill); a row with no unit entry left is first folded to the gcd of its
    entries by extended-gcd steps on two columns.  Raises NotAComplement when
    the certificate fails.

    Both the relations and the result are ``SparseMatrix``: the elimination
    starts from copies of the relation columns and the projection is read off
    the pivot columns, so nothing of size n x n is ever built.  Row t of the
    result is the coordinate along e_{keep_rows[t]}: it is 1 in column
    keep_rows[t], 0 in the other kept columns and -X in the eliminated ones,
    where X is the kept-row part of the pivot columns.  Such a projection is
    unique, so it agrees with any other way of computing it.
    """
    n = relations.rows
    keep = list(keep_rows)
    slot = {i: t for t, i in enumerate(keep)}
    if len(slot) != len(keep) or any(not 0 <= i < n for i in keep):
        raise ShapeMismatch("keep_rows must be distinct row indices")
    cols = [dict(col) for col in relations.entries]
    # For each row still to eliminate: the unpivoted ("free") columns and the
    # pivot columns with a nonzero entry there.  A pivoted row is nonzero in
    # its own pivot column only, so it drops out of both maps.
    free_at = {i: set() for i in range(n) if i not in slot}
    pivot_at = {i: set() for i in free_at}
    for j, col in enumerate(cols):
        for i in col:
            if i in free_at:
                free_at[i].add(j)
    pivot_cols = set()
    pivots = {}

    def fold(t, j, r):
        # cols (t, j) <- (s*t + u*j, -(q/g)*t + (p/g)*j): determinant 1, and
        # row r of column j becomes 0 while row r of column t becomes the gcd
        ct, cj = cols[t], cols[j]
        p, q = ct[r], cj[r]
        g, s, u = _xgcd(p, q)
        x, y = -(q // g), p // g
        for c, (a, b) in ((t, (s, u)), (j, (x, y))):
            new = {}
            for i in ct.keys() | cj.keys():
                w = a * ct.get(i, 0) + b * cj.get(i, 0)
                if w:
                    new[i] = w
                if i in free_at:
                    if w:
                        free_at[i].add(c)
                    else:
                        free_at[i].discard(c)
            cols[c] = new

    while free_at:
        best = None
        for r, free in free_at.items():
            if not free:
                raise NotAComplement(f"row {r} is not reached by the relations")
            updates = len(free) + len(pivot_at[r]) - 1
            for c in free:
                if cols[c][r] in (1, -1):
                    cost = updates * (len(cols[c]) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, r, c)
            if best is not None and best[0] == 0:
                break
        if best is None:
            r = min(free_at, key=lambda i: (len(free_at[i]), i))
            t, *rest = sorted(free_at[r])
            for j in rest:
                if cols[t][r] in (1, -1):
                    break
                fold(t, j, r)
            if cols[t][r] not in (1, -1):
                raise NotAComplement(f"row {r} has no unit pivot")
            c = t
        else:
            _, r, c = best
        piv = cols[c]
        if piv[r] == -1:
            piv = cols[c] = {i: -v for i, v in piv.items()}
        for i in piv:
            if i in free_at:
                free_at[i].discard(c)
                pivot_at[i].add(c)
        pivot_cols.add(c)
        for j in (free_at[r] | pivot_at[r]) - {c}:
            col = cols[j]
            at = pivot_at if j in pivot_cols else free_at
            a = col[r]
            for i, v in piv.items():
                w = col.get(i, 0) - a * v
                if w:
                    if i not in col and i in at:
                        at[i].add(j)
                    col[i] = w
                else:
                    del col[i]
                    if i in at:
                        at[i].discard(j)
        del free_at[r], pivot_at[r]
        pivots[r] = c
    if any(cols[j] for j in range(len(cols)) if j not in pivot_cols):
        raise NotAComplement("the relations meet the span of the kept rows")
    out = [None] * n
    for t, i in enumerate(keep):
        out[i] = {t: 1}
    for r, c in pivots.items():
        out[r] = {slot[i]: -v for i, v in cols[c].items() if i != r}
    return _sparse(len(keep), tuple(out))


@dataclass(frozen=True)
class Subquotient:
    """lattice(numerator)/lattice(denominator) with explicit representatives.

    ``basis`` columns are a lattice basis of the numerator; ``rel`` expresses
    the denominator generators in that basis, so the group is presented as
    Z^s / im(rel) and ``invariants`` describes it.
    """

    invariants: AbGroupInvariants
    basis: IntMatrix
    rel: IntMatrix


def subquotient(numerator_gens: IntMatrix, denominator_gens: IntMatrix) -> Subquotient:
    """Quotient of one column lattice by another; denominator must be contained."""
    basis = image_basis(numerator_gens)
    if denominator_gens.cols == 0:
        rel = IntMatrix.zeros(basis.cols, 0)
    else:
        rel = solve(basis, denominator_gens)
    return Subquotient(cokernel_invariants(rel), basis, rel)


def preimage_lattice(a: IntMatrix, denominator_gens: IntMatrix) -> IntMatrix:
    """Basis of {x : a x in lattice(denominator_gens)}."""
    k = kernel_basis(a.hstack(denominator_gens))
    gens = k.submatrix(range(a.cols), range(k.cols))
    return image_basis(gens)


def homology_pair(d_out: IntMatrix, d_in: IntMatrix) -> Subquotient:
    """ker(d_out)/im(d_in) for one spot of a complex of free groups."""
    if d_out.cols != d_in.rows:
        raise ShapeMismatch("homology_pair: ambient rank mismatch")
    return subquotient(kernel_basis(d_out), d_in)
