"""Dense lattice references that only the tests use.

The package computes homology from invariant factors alone, keeps every
complex sparse and builds A(f) on per-level residue tables.  The
constructions here work with representatives instead: ``IntMatrix``, the
dense integer matrix, with ``dense`` and ``as_sparse`` between it and
``SparseMatrix``; the lattice operations on the package's Hermite basis
(``image_basis``, ``kernel_basis``, ``preimage_lattice`` and ``solve``) and
``snf_invariants`` on its unit-pivot core; the class table
built residue by residue, A(f) built class by class, the fiber-sum
operator X_p of A(f) as a matrix (``x_operator``), the operators of A(f)
induced on U(f) by name, subquotients lattice(num)/lattice(den) on
Hermite bases, chain maps and cones of dense complexes, complexes of
presented groups, the companion
complexes of a Koszul-Tate double complex, and the functoriality, inclusion
and sign-action checks built on them, the fiber identity class by class,
the classical lattice U'(f) on its Hermite basis (``uprime_lattice``),
the u-function at a rational and its distribution relations one by one
(``u_of``, ``distribution_relation_holds``), the characters of (Z/f)^x
with their conductors (``characters``), the rank of a span of vectors on
(Z/f)^x as a count of characters (``_span_rank``),
``snf``, the Smith normal form with its two transforms, and
``norm_matrix``, the norm of a finite-order matrix from its chain of
powers.  They are slow and independent of the package's shortcuts, which
is what makes them references.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, product
from math import gcd

from uod import skcx
from uod.arith import (
    ARCHIMEDEAN,
    GfElement,
    XiClass,
    g_action,
    gf_group,
    xi_classes,
    xi_from_fraction,
    xi_in_level,
    y_fiber,
    y_map,
)
from uod.chainkit import (
    ActionModule,
    ChainComplex,
    HomologyTable,
    NotAComplex,
    scalar_kt_complex,
    total_complex,
)
from uod.distmod import (
    OrderMismatch,
    build_af,
    g_op_name,
    level_partition,
    position_matrix,
    u_module,
    x_op_name,
)
from uod.iwasawa import (
    _cofactor,
    _generator_offsets,
    _level,
    _orbit_table,
    _transform,
    _unit_group,
)
from uod.signh import OrderViolation
from uod.znf import (
    AbGroupInvariants,
    InducedOperatorUndefined,
    ShapeMismatch,
    SparseMatrix,
    _Smith,
    _hermite,
    _invariants,
    _sparse,
    cokernel_invariants,
    rank_torsion,
)


# -- the dense matrix type ---------------------------------------------------

class NoIntegerSolution(ValueError):
    """A x = b has no solution over Z."""


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



def dense(m: SparseMatrix) -> IntMatrix:
    """``m`` as an ``IntMatrix``."""
    data = [[0] * m.cols for _ in range(m.rows)]
    for j, col in enumerate(m.entries):
        for i, v in col.items():
            data[i][j] = v
    return _trusted(tuple(map(tuple, data)), m.cols)


def as_sparse(m) -> SparseMatrix:
    """``m`` as a ``SparseMatrix``: an ``IntMatrix`` is converted, a
    ``SparseMatrix`` is returned as it is."""
    if isinstance(m, SparseMatrix):
        return m
    return _sparse(m.rows, tuple({i: v for i, v in enumerate(col) if v} for col in zip(*m.data))
                   if m.rows else ({},) * m.cols)


def snf_invariants(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors of ``m`` through the package's unit-pivot core,
    with the rows of ``m`` as its rows."""
    width = range(m.cols)
    rows = [dict(zip(compress(width, row), compress(row, row))) for row in m.data]
    return _invariants(rows, m.rows, m.cols)


# -- lattice operations on the Hermite basis ---------------------------------
#
# Every lattice operation goes through the package's reduced column Hermite
# basis ``_hermite``.  ``image_basis`` is that basis.
# ``preimage_lattice(a, d)`` is the part of the basis of the graph
# {(a x + d y, x)} that pivots below a's rows; ``kernel_basis`` is the
# preimage of 0, and ``solve`` reduces (b, 0) against the basis of the graph
# of a, which leaves (0, -x) with a x = b.

def hermite(m: IntMatrix) -> dict:
    """``_hermite`` of the columns of ``m``."""
    return _hermite([list(c) for c in m.columns()], m.rows)


def _reduce(basis: dict, v) -> list:
    """``v`` less the combination of the Hermite ``basis`` that brings each
    of its pivot-row entries into [0, pivot); zero exactly when v lies in
    the lattice."""
    v = list(v)
    for p, c in basis.items():
        q = v[p] // c[p]
        if q:
            v = [z - q * y for y, z in zip(c, v)]
    return v


def _graph(a: IntMatrix, d: IntMatrix) -> IntMatrix:
    """The matrix [[a, d], [1, 0]], whose columns span {(a x + d y, x)}."""
    return a.vstack(IntMatrix.identity(a.cols)).hstack(d.vstack(IntMatrix.zeros(a.cols, d.cols)))



def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of {x : m x = 0}, in reduced Hermite form.

    The kernel of an integer matrix is a saturated sublattice (Z^n modulo it
    embeds in the free group Z^m), so any basis of it is automatically
    primitive: the SNF of the returned matrix has all invariants 1.
    """
    return preimage_lattice(m, IntMatrix.zeros(m.rows, 0))


def image_basis(m: IntMatrix) -> IntMatrix:
    """The reduced Hermite basis of the lattice spanned by the columns of m."""
    return IntMatrix.from_columns(hermite(m).values(), rows=m.rows)


def preimage_lattice(a: IntMatrix, denominator_gens: IntMatrix) -> IntMatrix:
    """Basis of {x : a x in lattice(denominator_gens)}, in reduced Hermite form.

    In the Hermite basis of the graph {(a x + d y, x)} the columns that pivot
    at or below row ``a.rows`` are zero in the first ``a.rows`` rows, and
    their lower parts are a basis of the preimage.
    """
    n = a.rows
    lower = [c[n:] for p, c in hermite(_graph(a, denominator_gens)).items() if p >= n]
    return IntMatrix.from_columns(lower, rows=a.cols)


def solve(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Some integer X with a @ X = b, or raise NoIntegerSolution.

    Each column of (b, 0) is reduced against the Hermite basis of the graph
    columns (a e_j, e_j); b lies in the lattice exactly when that leaves
    (0, -x), and then a x = b.  When the columns of ``a`` are a lattice
    basis the solution is unique.
    """
    if a.rows != b.rows:
        raise ShapeMismatch("solve: row mismatch")
    basis = hermite(_graph(a, IntMatrix.zeros(a.rows, 0)))
    cols = []
    for col in b.vstack(IntMatrix.zeros(a.cols, b.cols)).columns():
        rest = _reduce(basis, col)
        if any(rest[: a.rows]):
            raise NoIntegerSolution("a column of b is outside the lattice of a")
        cols.append([-x for x in rest[a.rows:]])
    return IntMatrix.from_columns(cols, rows=a.cols)



# -- matrices and modules ----------------------------------------------------

def block_diagonal(blocks) -> IntMatrix:
    blocks = list(blocks)
    cols = sum(b.cols for b in blocks)
    rows = []
    c0 = 0
    for b in blocks:
        left = [0] * c0
        right = [0] * (cols - c0 - b.cols)
        rows.extend(left + list(row) + right for row in b.data)
        c0 += b.cols
    return IntMatrix(rows, cols)


@dataclass(frozen=True)
class SnfResult:
    """L * M * R = diagonal(invariants), with both transforms unimodular."""

    invariants: tuple[int, ...]
    left: IntMatrix
    right: IntMatrix

    def diagonal(self) -> IntMatrix:
        return IntMatrix.diagonal(self.invariants, rows=self.left.rows, cols=self.right.rows)


class _TrackedSmith(_Smith):
    """The package's Smith reduction, with every elementary operation also
    applied to L (rows) or R (columns), so that L * M0 * R == A holds at
    every step."""

    def __init__(self, m: IntMatrix):
        super().__init__([list(row) for row in m.data])
        self.c = m.cols  # also when m has no rows
        self.L = [list(row) for row in IntMatrix.identity(self.r).data]
        self.R = [list(row) for row in IntMatrix.identity(self.c).data]

    def row_swap(self, i, t):
        super().row_swap(i, t)
        self.L[i], self.L[t] = self.L[t], self.L[i]

    def col_swap(self, j, t):
        super().col_swap(j, t)
        for row in self.R:
            row[j], row[t] = row[t], row[j]

    def row_negate(self, i):
        super().row_negate(i)
        self.L[i] = [-x for x in self.L[i]]

    def row_two(self, t, i, s, u, x, y):
        super().row_two(t, i, s, u, x, y)
        lt, li = self.L[t], self.L[i]
        self.L[t] = [s * p + u * q for p, q in zip(lt, li)]
        self.L[i] = [x * p + y * q for p, q in zip(lt, li)]

    def col_two(self, t, j, s, u, x, y):
        super().col_two(t, j, s, u, x, y)
        for row in self.R:
            p, q = row[t], row[j]
            row[t] = s * p + u * q
            row[j] = x * p + y * q


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form with transforms: left * m * right = diagonal.

    The invariant factors are nonnegative and form a divisibility chain
    (zeros trail).  ``left`` and ``right`` are unimodular.  The reference
    the tests hold every Smith entry point of the package to.
    """
    st = _TrackedSmith(m)
    diag = st.reduce()
    return SnfResult(diag, IntMatrix(st.L, cols=st.r), IntMatrix(st.R, cols=st.c))


def with_operator(module: ActionModule, name: str, op) -> ActionModule:
    """``module`` with ``op`` added or replaced under ``name``, certified
    again like any new ``ActionModule``."""
    return ActionModule(module.rank, {**module.maps, name: op}, module.nu)


def with_map_uncertified(module: ActionModule, name: str, op) -> ActionModule:
    """A copy of ``module`` whose map under ``name`` is ``op``, past the
    commutation certificate: a tamper that only a later check can see."""
    tampered = copy.copy(module)
    tampered.maps = {**module.maps, name: op}
    return tampered


def x_operator(af, p) -> SparseMatrix:
    """The fiber-sum operator X_p of A(f) as a matrix, built from its map."""
    return af.operators.operator(x_op_name(af.backend, p))


def gamma_order_by_powers(g, bound: int) -> int | None:
    """Least m >= 1 with g^m = 1, from the powers of the matrix g, or None
    past ``bound``.  The oracle for the order certificate of
    ``signh.orbit_sums``, which reads it off the map's cycles."""
    ident = type(g).identity(g.rows)
    power = g
    for m in range(1, bound + 1):
        if power == ident:
            return m
        power = power * g
    return None


def norm_matrix(gamma, m: int):
    """1 + gamma + ... + gamma^(m-1), of gamma's own matrix type, from the
    chain of powers, which must end at gamma^m = 1 (OrderViolation): m - 1
    products in all.  The oracle for the norm that ``signh.tate_spots``
    induces once from the orbit sums of gamma0."""
    if m < 1:
        raise OrderViolation("order must be >= 1")
    ident = type(gamma).identity(gamma.rows)
    out, power = ident, gamma
    for _ in range(m - 1):
        out = out + power
        power = power * gamma
    if power != ident:
        raise OrderViolation(f"gamma^{m} is not the identity")
    return out


def checked_induce(quotient, op: SparseMatrix) -> SparseMatrix:
    """P op S, the map op induces on a ``znf.FreeQuotient``, after checking
    by the product P (op R) that op preserves the relations R, or
    InducedOperatorUndefined.  The oracle for the package's
    ``induce_preserving``, whose callers certify preservation with no
    product against R."""
    if not (quotient.projection * (op * quotient.relations)).is_zero():
        raise InducedOperatorUndefined("operator does not preserve the relations")
    return quotient.induce_preserving(op)


def class_matrix(images, index: dict) -> SparseMatrix:
    """Matrix of a map of basis classes: column j is the basis vector of
    ``images[j]`` in the basis numbered by ``index``."""
    return SparseMatrix(len(index), [{index[target]: 1} for target in images])


@dataclass(frozen=True)
class ReferenceAf:
    basis: tuple
    fibers: dict          # p -> {class of Xi(f/p): its Y_p fiber in basis order}
    operators: dict       # operator name -> SparseMatrix, named as in build_af
    relations: SparseMatrix


def xi_sort_key(bk, xi: XiClass):
    return (bk.ideal_key(xi.order), bk.residue_key(xi.num))


def reference_table(bk, f) -> list:
    """The (class, residue) pairs of Xi(f) in sorted order, built one
    residue at a time as ``arith.LevelTable`` built them before its divisor
    blocks: each residue a mod f reduced to lowest terms by
    ``xi_from_fraction`` (a gcd and a division), then one sort."""
    return sorted(((xi_from_fraction(bk, a, f), a) for a in bk.residues(f)),
                  key=lambda pair: xi_sort_key(bk, pair[0]))


def induced_operator(u, name: str) -> SparseMatrix:
    """The operator of A(f) named ``name`` induced on U(f), P op S, built
    from its map on each call.  No product against the relations is
    needed: ``ActionModule`` certified that the operator commutes with every
    X_p, and building the UModule certified that the relations are the
    columns of the nu_p - X_p, so the operator preserves them."""
    return u.induce_preserving(u.parent.operators.operator(name))


def reference_af(bk, f, nu: dict | None = None) -> ReferenceAf:
    """A(f) built class by class, as ``build_af`` built it before its level
    tables: Xi(f) from ``xi_from_fraction``, the Y_p fibers from ``y_map``,
    X_p from ``xi_in_level`` and the fibers, the group generators and the
    sign from ``g_action`` and ``sign_action`` through ``class_matrix``, and
    the relations nu_p xi - sum(fiber), every matrix through the validating
    ``SparseMatrix`` constructor."""
    nu = dict(nu or {})
    basis = tuple(xi for xi, _ in reference_table(bk, f))
    index = {xi: i for i, xi in enumerate(basis)}
    fibers, operators, relations = {}, {}, []
    for p, _ in bk.factor(f):
        mates: dict = {}
        for eta in basis:
            mates.setdefault(y_map(bk, p, eta), []).append(eta)
        fibers[p] = {xi: tuple(etas) for xi, etas in mates.items()}
        sub, nu_p = bk.divide(f, p), nu.get(p, 1)
        cols = []
        for xi in basis:
            if not xi_in_level(bk, xi, sub):
                cols.append({index[xi]: nu_p})
                continue
            col, rel = {}, {index[xi]: nu_p}
            for eta in fibers[p][xi]:
                col[index[eta]] = col.get(index[eta], 0) + 1
                rel[index[eta]] = rel.get(index[eta], 0) - 1
            cols.append(col)
            relations.append(rel)
        operators[x_op_name(bk, p)] = SparseMatrix(len(basis), cols)
    for gen in gf_group(bk, f).generators():
        operators[g_op_name(bk, gen.residue)] = class_matrix(
            [g_action(bk, gen, xi) for xi in basis], index)
    operators["gamma0"] = class_matrix([sign_action(bk, xi) for xi in basis], index)
    return ReferenceAf(basis, fibers, operators, SparseMatrix(len(basis), relations))


def sign_action(bk, xi: XiClass) -> XiClass:
    """The sign generator acting on a class."""
    if xi.order == bk.one:
        return xi
    num = bk.scalar_mul(bk.sign_scalar, xi.num, xi.order)
    return XiClass(bk.key, xi.order, num)


@dataclass(frozen=True)
class FiberIdentityReport:
    lhs: dict
    rhs: dict
    equal: bool
    multiplicity: int


def lemma411_check(bk, p, f, xi: XiClass) -> FiberIdentityReport:
    """Both sides of the fiber identity for a class of exact order f, as
    multisets of classes: the reference for ``distmod.lemma411_counts``.

    Left side: the full Y_p fiber over Y_p(xi) at level f.  Right side: the
    kernel ker(G_f -> G_{f/p}) applied to xi, plus, when p divides f exactly
    once, the extra term phi^{-1} Y_p xi with phi the class of p at level
    f/p^n.
    """
    if xi.order != f:
        raise OrderMismatch("class must have exact order f")
    if not bk.divides(p, f):
        raise OrderMismatch("p must divide f")
    n = 0
    rest = f
    while bk.divides(p, rest):
        rest = bk.divide(rest, p)
        n += 1
    c = rest

    image = y_map(bk, p, xi)
    lhs: dict = {}
    for eta in y_fiber(bk, p, image, f):
        lhs[eta] = lhs.get(eta, 0) + 1

    rhs: dict = {}
    part = level_partition(bk, f)
    for residue in sorted(part.kernels[p], key=bk.residue_key):
        sigma = GfElement(bk.key, f, residue)
        eta = g_action(bk, sigma, xi)
        rhs[eta] = rhs.get(eta, 0) + 1
    if n == 1:
        if bk.norm(c) == 1:
            extra = image
        else:
            phi = bk.residue_of(p, c)
            phi_inv = bk.residue_inverse(phi, c)
            extra = g_action(bk, GfElement(bk.key, c, phi_inv), image)
        rhs[extra] = rhs.get(extra, 0) + 1

    return FiberIdentityReport(lhs, rhs, lhs == rhs, n)


def lemma411_reference_counts(bk, f) -> tuple[int, int]:
    """(checked, failures) of ``lemma411_check`` over every prime p | f and
    every class of exact order f."""
    exact = [cls for cls in xi_classes(bk, f) if cls.order == f]
    equal = [lemma411_check(bk, p, f, cls).equal for p, _ in bk.factor(f) for cls in exact]
    return len(equal), equal.count(False)


# -- lattices ----------------------------------------------------------------

def lattice_contains(basis_or_gens: IntMatrix, vectors: IntMatrix) -> bool:
    """True when every column of ``vectors`` lies in the span of the columns."""
    if basis_or_gens.rows != vectors.rows:
        raise ShapeMismatch("lattice_contains: row mismatch")
    basis = hermite(basis_or_gens)
    return not any(any(_reduce(basis, col)) for col in vectors.columns())


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
    rel = solve(basis, denominator_gens)
    return Subquotient(cokernel_invariants(as_sparse(rel)), basis, rel)


def homology_pair(d_out: IntMatrix, d_in: IntMatrix) -> Subquotient:
    """ker(d_out)/im(d_in) for one spot of a complex of free groups."""
    if d_out.cols != d_in.rows:
        raise ShapeMismatch("homology_pair: ambient rank mismatch")
    return subquotient(kernel_basis(d_out), d_in)


# -- dense complexes, chain maps and cones -----------------------------------

def dense_differential(c: ChainComplex, n: int) -> IntMatrix:
    return dense(c.differential(n))


def make_complex(ranks, differentials, bottom_degree: int = 0) -> ChainComplex:
    """Complex from a rank list and consecutive differentials.

    ``differentials[i]`` (an ``IntMatrix``, a ``SparseMatrix`` or a list of
    rows) maps degree bottom+i+1 to degree bottom+i and must be shaped
    ranks[i] x ranks[i+1].  The complex holds them as ``SparseMatrix``
    values.  Rejects data violating d*d = 0.
    """
    ranks = list(ranks)
    differentials = [
        as_sparse(d if isinstance(d, (IntMatrix, SparseMatrix)) else IntMatrix(d))
        for d in differentials
    ]
    if len(differentials) != max(len(ranks) - 1, 0):
        raise ShapeMismatch("need exactly len(ranks)-1 differentials")
    rank_map = {bottom_degree + i: r for i, r in enumerate(ranks)}
    diff_map = {bottom_degree + i + 1: d for i, d in enumerate(differentials)}
    return ChainComplex(rank_map, diff_map)


def twist(c: ChainComplex, k: int) -> ChainComplex:
    """Degree shift by k with differentials scaled by (-1)^k."""
    sign = -1 if k % 2 else 1
    ranks = {n + k: r for n, r in c.ranks.items()}
    diff = {n + k: as_sparse(dense_differential(c, n).scale(sign)) for n in c.diff}
    return ChainComplex(ranks, diff)


def shift_eq(a: ChainComplex, b: ChainComplex) -> bool:
    return a.ranks == b.ranks and all(
        dense_differential(a, n) == dense_differential(b, n)
        for n in range(a.lo, a.hi + 2)
    )


def euler_characteristic(c: ChainComplex) -> int:
    return sum((-1) ** n * r for n, r in c.ranks.items())


class ChainMap:
    """Degreewise map commuting with the differentials."""

    def __init__(self, source: ChainComplex, target: ChainComplex, components: dict):
        self.source = source
        self.target = target
        self.components = {}
        for n, m in components.items():
            if m.rows != target.rank(n) or m.cols != source.rank(n):
                raise ShapeMismatch(f"component at degree {n} has wrong shape")
            if m.rows and m.cols:
                self.components[n] = m
        for n in range(min(source.lo, target.lo), max(source.hi, target.hi) + 2):
            lhs = self.component(n - 1) * dense_differential(source, n)
            rhs = dense_differential(target, n) * self.component(n)
            if lhs != rhs:
                raise NotAComplex(n, "chain map does not commute with differentials")

    def component(self, n: int) -> IntMatrix:
        if n in self.components:
            return self.components[n]
        return IntMatrix.zeros(self.target.rank(n), self.source.rank(n))


@dataclass(frozen=True)
class MappingCone:
    """Cone(f) together with the maps realizing 0 -> Y -> Cone -> X[1] -> 0."""

    complex: ChainComplex
    inclusion: ChainMap
    projection: ChainMap


def mapping_cone(f: ChainMap) -> MappingCone:
    x, y = f.source, f.target
    lo = min(x.lo + 1, y.lo)
    hi = max(x.hi + 1, y.hi)
    ranks = {n: x.rank(n - 1) + y.rank(n) for n in range(lo, hi + 1)}
    diff = {}
    for n in range(lo, hi + 2):
        # block differential [[-dX, 0], [f, dY]] from X_{n-1} (+) Y_n
        top = (-dense_differential(x, n - 1)).hstack(
            IntMatrix.zeros(x.rank(n - 2), y.rank(n))
        )
        bottom = f.component(n - 1).hstack(dense_differential(y, n))
        m = top.vstack(bottom)
        if m.rows and m.cols:
            diff[n] = as_sparse(m)
    cone = ChainComplex(ranks, diff)
    incl = ChainMap(
        y,
        cone,
        {
            n: IntMatrix.zeros(x.rank(n - 1), y.rank(n)).vstack(IntMatrix.identity(y.rank(n)))
            for n in range(y.lo, y.hi + 1)
        },
    )
    x1 = twist(x, 1)
    proj = ChainMap(
        cone,
        x1,
        {
            n: IntMatrix.identity(x.rank(n - 1)).hstack(
                IntMatrix.zeros(x.rank(n - 1), y.rank(n))
            )
            for n in range(lo, hi + 1)
        },
    )
    return MappingCone(cone, incl, proj)


# -- presented complexes -----------------------------------------------------

class PresentedComplex:
    """Complex whose terms are presented abelian groups Z^g / relation lattice.

    Differentials are given on generators; at construction it is checked that
    they carry relations into relations and compose to zero modulo relations.
    Homology at degree n is the exact subquotient

        {x : d_n x in relations} / (im d_{n+1} + relations),

    which needs no resolution and no splitting of any term; each distinct
    tuple of the matrices it reads is reduced once.
    """

    def __init__(self, ranks: dict, rels: dict, diff: dict, stable=None):
        self.ranks = {n: r for n, r in ranks.items() if r}
        self.rels = {n: m for n, m in rels.items() if m.cols and not m.is_zero()}
        self.diff = {n: m for n, m in diff.items() if m.rows and m.cols}
        self.stable = stable
        if self.ranks:
            self.lo, self.hi = min(self.ranks), max(self.ranks)
        else:
            self.lo, self.hi = 0, -1
        for n, m in self.diff.items():
            if m.rows != self.rank(n - 1) or m.cols != self.rank(n):
                raise ShapeMismatch(f"differential shape at degree {n}")
        # both checks at degree n depend on these five matrices only, and a
        # periodic complex repeats them, so each distinct tuple runs once
        passed = set()
        for n in self.degrees():
            key = (
                self.differential(n - 1),
                self.differential(n),
                self.relations(n - 2),
                self.relations(n - 1),
                self.relations(n),
            )
            if key in passed:
                continue
            d_prev, d, rel_prev2, rel_prev, rel = key
            moved = d * rel
            if not moved.is_zero() and not lattice_contains(rel_prev, moved):
                raise NotAComplex(n, "differential does not preserve relations")
            composite = d_prev * d
            if not composite.is_zero() and not lattice_contains(rel_prev2, composite):
                raise NotAComplex(n, "d*d is nonzero modulo relations")
            passed.add(key)

    def rank(self, n: int) -> int:
        return self.ranks.get(n, 0)

    def relations(self, n: int) -> IntMatrix:
        rel = self.rels.get(n)
        return IntMatrix.zeros(self.rank(n), 0) if rel is None else rel

    def differential(self, n: int) -> IntMatrix:
        if n in self.diff:
            return self.diff[n]
        return IntMatrix.zeros(self.rank(n - 1), self.rank(n))

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def homology(self) -> HomologyTable:
        entries = {}
        cache = {}
        for n in self.degrees():
            key = (
                self.differential(n),
                self.differential(n + 1),
                self.relations(n - 1),
                self.relations(n),
            )
            if key not in cache:
                d_out, d_in, rel_prev, rel_here = key
                num = preimage_lattice(d_out, rel_prev)
                den = d_in.hstack(rel_here)
                cache[key] = subquotient(num, den).invariants
            entries[n] = cache[key]
        return HomologyTable(entries, stable=self.stable)


# -- the Koszul-Tate double complex ------------------------------------------

def validate_double_complex(kt) -> None:
    """Horizontal and vertical d^2 = 0 and the anticommutation of rows and
    columns, block by block on the per-row data; NotAComplex otherwise."""
    r = len(kt.even) - 1
    h = kt.horizontal
    for m in range(2, r + 1):
        if not (h[m - 1] * h[m]).is_zero():
            raise NotAComplex(m, "horizontal d^2 != 0")
    for m in range(r + 1):
        if not ((kt.even[m] * kt.odd[m]).is_zero() and (kt.odd[m] * kt.even[m]).is_zero()):
            raise NotAComplex(m, "vertical d^2 != 0")
    for m in range(1, r + 1):
        for v in (kt.even, kt.odd):
            if not (h[m] * v[m] + v[m - 1] * h[m]).is_zero():
                raise NotAComplex(m, "rows and columns do not anticommute")


def companion(kt, which: str):
    """One of the named companion complexes of a Koszul-Tate double complex.

    K and T are the edge row and column; Kbar and Tbar are the same shapes
    over the quotient modules, as presented complexes; KTtot is the total
    complex and KTplus its k >= 0 truncation, the total complex of the
    non-negative half of the window.
    """
    lo, hi = kt.window
    r = len(kt.even) - 1
    row = {m: kt.rank(m) for m in range(r + 1)}
    column = {n: kt.rank(0) for n in range(lo, hi + 1)}
    vertical = {n: kt.even[0] if n % 2 == 0 else kt.odd[0] for n in range(lo + 1, hi + 1)}
    if which == "K":
        return ChainComplex(row, {m: kt.horizontal[m] for m in range(1, r + 1)})
    if which == "T":
        return ChainComplex(column, vertical, stable=(lo + 1, hi - 1))
    if which == "Kbar":
        # each Koszul spot modulo the image of the odd (minus) operator
        rels = {m: dense(kt.odd[m]) for m in row}
        diff = {m: dense(kt.horizontal[m]) for m in range(1, r + 1)}
        return PresentedComplex(row, rels, diff)
    if which == "Tbar":
        # the Tate column modulo the images of all Koszul operators: the
        # horizontal map out of the singleton row is [f_1 | ... | f_r]
        rel = dense(kt.horizontal[1]) if r else IntMatrix.zeros(kt.rank(0), 0)
        diff = {n: dense(d) for n, d in vertical.items()}
        return PresentedComplex(column, {n: rel for n in column}, diff,
                                stable=(lo + 1, hi - 1))
    if which == "KTtot":
        return total_complex(kt)
    if which == "KTplus":
        return total_complex(dataclasses.replace(kt, window=(max(lo, 0), hi)))
    raise ValueError(f"unknown companion {which!r}")


# -- sign homology with representatives --------------------------------------

def tate_cycles(gamma: IntMatrix, m: int) -> tuple[Subquotient, Subquotient]:
    """Presented even and odd Tate homology with explicit cycle bases."""
    norm = norm_matrix(gamma, m)
    one_minus = IntMatrix.identity(gamma.rows) - gamma
    even = subquotient(kernel_basis(one_minus), norm)
    odd = subquotient(kernel_basis(norm), one_minus)
    return even, odd


def rank_torsion_tate_pair(gamma, m: int) -> tuple[AbGroupInvariants, AbGroupInvariants]:
    """Even and odd Tate homology from two reductions over Z, at every m:
    the free rank n - rk(1 - gamma) - rk(norm), the torsion of the norm's
    cokernel (even) and of 1 - gamma's (odd).  The oracle for
    ``signh.tate_pair``, which induces the norm once from gamma0's orbit
    sums and reads every m = 2^a off the trace and the invariant factors
    counted modulo 2^a."""
    norm = norm_matrix(gamma, m)
    rank_gamma, tors_gamma = rank_torsion(as_sparse(type(gamma).identity(gamma.rows) - gamma))
    rank_norm, tors_norm = rank_torsion(as_sparse(norm))
    free = gamma.rows - rank_gamma - rank_norm
    return AbGroupInvariants(free, tors_norm), AbGroupInvariants(free, tors_gamma)


def induced_kernel(map_on_modules: IntMatrix, source: Subquotient,
                   target: Subquotient) -> AbGroupInvariants:
    """Kernel invariants of the induced map on presented homology groups."""
    mapped = map_on_modules * source.basis
    coords = solve(target.basis, mapped)
    pre = preimage_lattice(coords, target.rel)
    return subquotient(pre, source.rel).invariants


def acts_as_identity(op: IntMatrix, homology: Subquotient) -> bool:
    """Whether ``op`` induces the identity on the presented ``homology``."""
    coords = solve(homology.basis, op * homology.basis)
    delta = coords - IntMatrix.identity(coords.rows)
    if delta.is_zero():
        return True
    return lattice_contains(homology.rel, delta)


@dataclass(frozen=True)
class FunctorialityReport:
    injective_even: bool
    injective_odd: bool
    kernel_even: AbGroupInvariants
    kernel_odd: AbGroupInvariants
    source_even: AbGroupInvariants
    target_even: AbGroupInvariants
    gens_acting_trivially: int
    gens_total: int

    @property
    def injective(self) -> bool:
        return self.injective_even and self.injective_odd

    @property
    def g_acts_trivially(self) -> bool:
        return self.gens_acting_trivially == self.gens_total


def u_inclusion(u_small, u_big) -> IntMatrix:
    """U(f) -> U(g) on the depth-zero bases, induced by Xi(f) into Xi(g)."""
    small, big = u_small.parent.table, u_big.parent.table
    scale = small.backend.divide(big.level, small.level)
    # [a/f] is [a (g/f) / g]
    incl = position_matrix(len(big.classes), [
        big.position[small.backend.residue_mul(scale, a, big.level)] for a in small.residues
    ])
    return dense(u_big.projection * (incl * u_small.section))


def functoriality_report(bk, f, g, nu: dict | None = None) -> FunctorialityReport:
    """Injectivity of the induced map on sign-homology, and G-triviality.

    Checks (a) that the map induced by U(f) -> U(g) is injective on both
    parities, via an explicit kernel computation on mapped cycle lattices,
    and (b) that every element of the level-g group induces the identity on
    the sign-homology of U(g).
    """
    if not bk.divides(f, g):
        raise ValueError("need f | g")
    m = bk.sign_order
    u_f = u_module(build_af(bk, f, nu))
    u_g = u_module(build_af(bk, g, nu))
    mat = u_inclusion(u_f, u_g)
    gamma_f = dense(induced_operator(u_f, "gamma0"))
    gamma_g = dense(induced_operator(u_g, "gamma0"))
    if mat * gamma_f != gamma_g * mat:
        raise RuntimeError("inclusion does not commute with the sign action")
    ev_f, od_f = tate_cycles(gamma_f, m)
    ev_g, od_g = tate_cycles(gamma_g, m)
    ker_even = induced_kernel(mat, ev_f, ev_g)
    ker_odd = induced_kernel(mat, od_f, od_g)

    trivial_count = 0
    af_g = u_g.parent
    elements = list(af_g.group)
    for sigma in elements:
        perm = class_matrix([g_action(bk, sigma, xi) for xi in af_g.basis], af_g.index)
        op = dense(checked_induce(u_g, perm))
        if acts_as_identity(op, ev_g) and acts_as_identity(op, od_g):
            trivial_count += 1
    return FunctorialityReport(
        ker_even.is_trivial,
        ker_odd.is_trivial,
        ker_even,
        ker_odd,
        ev_f.invariants,
        ev_g.invariants,
        trivial_count,
        len(elements),
    )


# -- the symbol route --------------------------------------------------------

def via_skprime_complex(sk) -> ChainComplex:
    """The total complex whose table ``skcx.via_skprime_homology`` reads:
    ``chainkit.scalar_kt_complex`` of the numerator-0 entries of the
    module's operators, once that function's check on the maps passes."""
    skcx.via_skprime_homology(sk)
    entry = {name: op.shift + op.scale for name, op in sk.module.maps.items()}
    return scalar_kt_complex([entry[name] for name in skcx._ideal_names(sk.primes)],
                             entry["plus"], entry["minus"], sk.window)


def skprime_layout(sk) -> dict:
    """Each total degree t of ``via_skprime_complex`` as its ordered
    list of (m, n, divisor) blocks of size one."""
    lo, hi = sk.window
    layout = {}
    for t in range(lo, hi + len(sk.primes) + 1):
        blocks = []
        for m, divisors in sk.divisors_by_size.items():
            n = t - m
            if lo <= n <= hi:
                blocks.extend((m, n, g) for g in divisors)
        layout[t] = blocks
    return layout


@dataclass(frozen=True)
class InclusionReport:
    injective: bool
    degrees: dict  # n -> (source invariants, target invariants, kernel invariants)


def sk_inclusion_check(f: int, g: int, level: int, window=None) -> InclusionReport:
    """Injectivity of the level inclusion on the numerator-killed route."""
    if g % f:
        raise ValueError("need f | g")
    r_g = len(ARCHIMEDEAN.factor(g))
    if window is None:
        window = (-(r_g + 3), r_g + 3)
    sk_f = skcx.build_sk(f, level, window)
    sk_g = skcx.build_sk(g, level, window)
    total_f, layout_f = via_skprime_complex(sk_f), skprime_layout(sk_f)
    total_g, layout_g = via_skprime_complex(sk_g), skprime_layout(sk_g)
    components = {}
    for t, blocks in layout_f.items():
        rows = total_g.rank(t)
        cols = total_f.rank(t)
        data = [[0] * cols for _ in range(rows)]
        targets = layout_g[t]
        for j, block in enumerate(blocks):
            data[targets.index(block)][j] = 1
        components[t] = IntMatrix(data, cols=cols)
    ChainMap(total_f, total_g, components)  # validates commuting squares

    degrees = {}
    injective = True
    lo_f, hi_f = total_f.stable
    lo_g, hi_g = total_g.stable
    lo, hi = max(lo_f, lo_g), min(hi_f, hi_g)
    for n in range(lo, hi + 1):
        src = homology_pair(dense_differential(total_f, n), dense_differential(total_f, n + 1))
        dst = homology_pair(dense_differential(total_g, n), dense_differential(total_g, n + 1))
        kernel = induced_kernel(components[n], src, dst)
        degrees[n] = (src.invariants, dst.invariants, kernel)
        if not kernel.is_trivial:
            injective = False
    return InclusionReport(injective, degrees)


def sign_action_trivial_on_via_n(sk) -> tuple[int, int]:
    """How many unit classes act as the identity on the boundary-route homology."""
    denom = sk.denominator
    quotient, neg = skcx._via_n_quotient(sk)
    gamma = checked_induce(quotient, neg.matrix())
    ident = IntMatrix.identity(gamma.rows)
    d_even, d_odd = ident + dense(gamma), ident - dense(gamma)
    spots = [homology_pair(d_even, d_odd), homology_pair(d_odd, d_even)]
    units = [t for t in range(denom) if gcd(t, denom) == 1]
    trivial = 0
    for t in units:
        perm = SparseMatrix(denom, [{t * a % denom: 1} for a in range(denom)])
        op = dense(checked_induce(quotient, perm))
        if all(acts_as_identity(op, spot) for spot in spots):
            trivial += 1
    return trivial, len(units)


# -- the u-function at a rational --------------------------------------------

def u_of(value: Fraction) -> Fraction:
    """u at any rational, through the reduced fraction's level."""
    value = Fraction(value) % 1
    phi, scaled = _level(value.denominator)
    return Fraction(scaled[value.numerator], phi)


def distribution_relation_holds(a: Fraction, g: int) -> bool:
    """u(a) = sum_{i<g} u((a+i)/g), checked exactly."""
    total = sum((u_of(Fraction(a + i, g)) for i in range(g)), Fraction(0))
    return total == u_of(a)


# -- Dirichlet characters and their conductors --------------------------------

def local_conductor(loc, exps) -> int:
    """Least p^j such that the character of (Z/p^k)^x with these exponents
    over the generators of ``loc`` is trivial on the units = 1 mod p^j.

    For odd p those units are the powers of the primitive root by multiples
    of (p - 1) p^(j-1); at 2^k, k >= 3, and j >= 2 they are the powers of 5
    by multiples of 2^(j-2).  So a nonzero exponent c on the last generator
    gives p^(k - v_p(c)), which is also 4 for the one nontrivial character
    mod 4.  Otherwise the character is trivial, or it is the sign
    character, of conductor 4.
    """
    c = exps[-1] if exps else 0
    if c:
        v = 0
        while c % loc.p == 0:
            c //= loc.p
            v += 1
        return loc.p ** (loc.k - v)
    return 4 if any(exps) else 1


def conductor(group, exps) -> int:
    """The conductor of the character of ``group`` with these exponents: the
    product of its local conductors."""
    out = 1
    at = 0
    for loc in group.local:
        n = len(loc.orders)
        out *= local_conductor(loc, exps[at : at + n])
        at += n
    return out


@dataclass(frozen=True)
class DirichletChar:
    """Character of (Z/fZ)^x with values recorded as powers of zeta_e."""

    modulus: int
    exponent: int               # e = exponent of the unit group
    gen_exponents: tuple        # chi(g_i) = zeta_e^{gen_exponents[i]}, g_i the
                                # generators of the CRT-local cyclic factors
    conductor: int

    def log_value(self, x: int):
        """k with chi(x) = zeta_e^k, or None when gcd(x, modulus) > 1."""
        ex = _unit_group(self.modulus).log(x)
        if ex is None:
            return None
        return sum(a * k for a, k in zip(self.gen_exponents, ex)) % self.exponent


def characters(f: int) -> list[DirichletChar]:
    """All characters of (Z/fZ)^x with conductors, trivial character first."""
    group = _unit_group(f)
    return [
        DirichletChar(
            f,
            group.exponent,
            tuple(s * c for s, c in zip(group.steps, exps)),
            conductor(group, exps),
        )
        for exps in product(*map(range, group.orders))
    ]


def _span_rank(f: int, units, vectors) -> int:
    """The rank over Q of the Z[G_f]-span of integer vectors on (Z/f)^x,
    each indexed like ``units``.

    The rank over Q is the dimension of the complex span in C[G_f], which
    is the sum of one line per character chi; the span of the translates
    of v is the sum of the lines of the chi at which
    T(v)(chi) = sum_x v(x) chi(x) is nonzero (the group-determinant
    principle).  So the rank is the number of characters at which some
    T(v_i)(chi) is nonzero in Q(zeta_e), that is not divisible by Phi_e in
    Z[x]/(x^e - 1), or again not killed by Psi_e there.

    The vectors are stacked as base-2^b digits of one vector,
    w = sum_i 2^(ib) v_i, and transformed once by the package's packed
    ``_transform``.  The transform is linear, so each coefficient of
    T(w)(chi) Psi_e is sum_i 2^(ib) c_i with c_i the same coefficient of
    T(v_i)(chi) Psi_e, and |c_i| <= ||v_i||_1 ||Psi_e||_1 < 2^(b-2) by the
    choice of b.  Digits that small represent 0 only when each is 0, so
    T(w)(chi) Psi_e is zero exactly when every T(v_i)(chi) Psi_e is.  Those
    coefficients are below 2^(kb-1) for k vectors, so with the slot width
    kb + 2 a zero packed residue is a zero polynomial, as in
    ``iwasawa._certify``.
    """
    group = _unit_group(f)
    norm = max((sum(map(abs, v)) for v in vectors), default=0)
    b = (norm * sum(map(abs, _cofactor(group.exponent)))).bit_length() + 2
    stacked = [sum(v[at] << (i * b) for i, v in enumerate(vectors)) for at in range(len(units))]
    width = b * len(vectors) + 2
    table, reduce, _ = _transform(group, dict(zip(units, stacked)), width)
    # t Psi_e by one shift per nonzero coefficient of Psi_e: the slots are
    # wide here, so that is cheaper than multiplying by packed Psi_e
    psi = [(a, k * width) for k, a in enumerate(_cofactor(group.exponent)) if a]
    return sum(1 for t in table if reduce(sum(a * (t << shift) for a, shift in psi)))


# -- the classical lattice ---------------------------------------------------

class LatticeRankMismatch(RuntimeError):
    pass


@dataclass(frozen=True)
class UPrimeLattice:
    """The classical lattice in Q[G_f]: group translates of u-orbit vectors.

    Coordinates are indexed by the unit residues in ``group`` order; the
    ``basis`` matrix is for the lattice scaled by ``denominator`` (every
    generating vector times the denominator is integral).  The Z-rank always
    equals |G_f|, enforced at construction.  The Hermite-basis reference for
    ``iwasawa.uprime_compare``, which certifies the comparison with no basis
    of the lattice.
    """

    level: int
    group: tuple
    generators: tuple        # rational vectors, one per (divisor, translate)
    denominator: int
    basis: IntMatrix

    @property
    def rank(self) -> int:
        return self.basis.cols


def uprime_lattice(f: int) -> UPrimeLattice:
    units = [el.residue for el in gf_group(ARCHIMEDEAN, f)]
    inverses = [pow(delta, -1, f) for delta in units]
    denom, orbit = _orbit_table(f)
    # coordinate at delta of sigma * (u(delta^-1 / g))_delta, as an index n
    # of u(n/f)
    at = [[dinv * n0 % f for dinv in inverses] for n0 in _generator_offsets(f, units)]
    values = [Fraction(v, denom) for v in orbit]
    generators = tuple(tuple(values[n] for n in col) for col in at)
    basis = image_basis(
        IntMatrix.from_columns([[orbit[n] for n in col] for col in at], rows=len(units))
    )
    if basis.cols != len(units):
        raise LatticeRankMismatch(f"lattice rank {basis.cols}, expected {len(units)}")
    return UPrimeLattice(f, tuple(units), generators, denom, basis)
