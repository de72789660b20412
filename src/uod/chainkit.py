"""Chain complexes of free abelian groups, twists, cones, and the
Koszul-Tate style double complex with its companion complexes.

A double complex here has a finite Koszul direction (rows 0..m_max indexed by
subset size) and an infinite two-periodic direction that is materialized on a
finite degree window.  Interior degrees far enough from the window edges are
exact; ``HomologyTable.stable`` records which ones.

Homology of a complex of free groups needs no representatives.  Since
Z^(c_n) / ker d_n is isomorphic to im d_n, which is free, the sequence
0 -> H_n -> Z^(c_n) / im d_{n+1} -> im d_n -> 0 splits, so

    H_n = Z^(c_n - rk d_n - rk d_{n+1})  +  tors(Z^(c_n) / im d_{n+1}),

and both ranks and the torsion are read off the invariant factors of the
differentials.  ``ChainComplex.homology`` therefore runs one Smith reduction
without transforms per distinct differential, however wide the window.

The Koszul-Tate double complex and its total complexes are sparse: every
block and every total differential is a ``znf.SparseMatrix``.  ``build_kt``
builds the blocks from the operators' columns without validating them: the
module's commutation certificate and plus * minus = 0 already make them a
double complex.  ``total_complex`` offsets each block's column dicts into
the total column.  A window repeats its differentials, so every total
degree whose differential equals an earlier one by value gets that same
object: the d*d check of ``ChainComplex`` multiplies each distinct pair
once, and ``homology`` reduces each distinct differential once through the
sparse unit-pivot core of ``znf``.  Absent blocks and degrees read as zero
matrices of the complex's own type.

Quotient companions (by the image of one operator, or of all Koszul
operators) are returned as complexes of *presented* abelian groups.  Their
homology at degree n is computed by the exact subquotient formula

    {x : d_n x in relations} / (im d_{n+1} + relations),

which needs no resolution and no splitting of any term; each distinct
tuple of the four matrices it reads is reduced once.  Presented complexes
need dense lattice algebra, so the ``Kbar`` and ``Tbar`` companions call
``dense()`` on the sparse blocks they take.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .znf import (
    AbGroupInvariants,
    IntMatrix,
    ShapeMismatch,
    SparseMatrix,
    _sparse,
    as_sparse,
    lattice_contains,
    preimage_lattice,
    rank_torsion,
    repeat_diagonal,
    subquotient,
)


class NotAComplex(ValueError):
    def __init__(self, degree, message="differentials do not compose to zero"):
        self.degree = degree
        super().__init__(f"{message} (degree {degree})")


class PlusMinusNotZero(ValueError):
    pass


class NonCommutingOperators(ValueError):
    pass


class GammaOrderUnbounded(RuntimeError):
    """gamma0 has no finite order up to the module's bound."""


# The bound of a module that is not told its sign order.  The sign generator
# of A(f) has order dividing q - 1 (2 over Z), so ``build_af`` passes the
# backend's ``sign_order`` instead; the bound only has to stop the
# certificate on an operator of infinite order.
GAMMA_ORDER_BOUND = 64


class WindowTooSmall(ValueError):
    pass


@dataclass(frozen=True)
class HomologyTable:
    """Per-degree abelian group invariants.

    ``stable`` is the inclusive degree range that is unaffected by window
    truncation (None means every listed degree is exact).  ``periodic`` marks
    two-periodic theories reported at degrees 0 and 1 only.
    """

    entries: dict
    stable: tuple | None = None
    periodic: bool = False

    def __getitem__(self, n) -> AbGroupInvariants:
        if self.periodic:
            return self.entries[n % 2]
        return self.entries[n]

    def stable_degrees(self):
        if self.stable is None:
            return sorted(self.entries)
        lo, hi = self.stable
        return [n for n in sorted(self.entries) if lo <= n <= hi]

    def agrees_with(self, other: "HomologyTable") -> bool:
        """Equality of invariants on the common stable degrees.

        An empty comparison range counts as disagreement: windows too small
        to overlap provide no evidence.
        """
        if self.periodic and other.periodic:
            return all(self[i] == other[i] for i in (0, 1))
        mine, theirs = set(self.stable_degrees()), set(other.stable_degrees())
        if self.periodic:
            common = theirs
        elif other.periodic:
            common = mine
        else:
            common = mine & theirs
        if not common:
            return False
        return all(self[n] == other[n] for n in common)

    def constant_value(self):
        """The single invariant shared by all stable degrees, or None."""
        values = {self.entries[n] for n in self.stable_degrees()}
        return values.pop() if len(values) == 1 else None


class ChainComplex:
    """Finitely supported complex of free abelian groups.

    ``diff[n]`` is the matrix of the map from degree n to degree n-1; absent
    degrees have rank zero.  Composition of consecutive differentials is
    checked at construction.  The differentials are ``IntMatrix`` or
    ``SparseMatrix`` values, one type per complex (``matrix_type``): the
    check multiplies them in their own type, an absent differential reads
    as a zero matrix of that type, and ``homology`` reduces sparse columns
    as they are and memoises each differential by value.
    """

    def __init__(self, ranks: dict, diff: dict, stable=None, check=True):
        self.ranks = {n: r for n, r in ranks.items() if r}
        self.diff = {}
        self.stable = stable
        first = next(iter(diff.values()), None)
        self.matrix_type = IntMatrix if first is None else type(first)
        if self.ranks:
            self.lo = min(self.ranks)
            self.hi = max(self.ranks)
        else:
            self.lo, self.hi = 0, -1
        for n, m in diff.items():
            if m.rows != self.rank(n - 1) or m.cols != self.rank(n):
                raise ShapeMismatch(
                    f"differential at degree {n} is {m.rows}x{m.cols}, "
                    f"expected {self.rank(n - 1)}x{self.rank(n)}"
                )
            if m.rows and m.cols:
                self.diff[n] = m
        if check:
            # a periodic window shares its matrix objects, so each distinct
            # pair of them is multiplied once
            seen = set()
            for n, d_out in self.diff.items():
                d_in = self.diff.get(n + 1)
                if d_in is None or (id(d_out), id(d_in)) in seen:
                    continue
                if not (d_out * d_in).is_zero():
                    raise NotAComplex(n)
                seen.add((id(d_out), id(d_in)))

    def rank(self, n: int) -> int:
        return self.ranks.get(n, 0)

    def differential(self, n: int):
        if n in self.diff:
            return self.diff[n]
        return self.matrix_type.zeros(self.rank(n - 1), self.rank(n))

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * r for n, r in self.ranks.items())

    def homology(self) -> HomologyTable:
        # the free-complex formula of the module docstring: each distinct
        # differential is reduced once, without transforms
        reduced = {}

        def rank_tors(n):
            d = self.diff.get(n)
            if d is None:
                return 0, ()
            if d not in reduced:
                reduced[d] = rank_torsion(d)
            return reduced[d]

        spots = {n: rank_tors(n) for n in range(self.lo, self.hi + 2)}
        entries = {
            n: AbGroupInvariants(self.rank(n) - spots[n][0] - spots[n + 1][0], spots[n + 1][1])
            for n in self.degrees()
        }
        return HomologyTable(entries, stable=self.stable)

    def shift_eq(self, other: "ChainComplex") -> bool:
        return self.ranks == other.ranks and all(
            self.differential(n) == other.differential(n)
            for n in range(self.lo, self.hi + 2)
        )


def make_complex(ranks, differentials, bottom_degree: int = 0) -> ChainComplex:
    """Complex from a rank list and consecutive differentials.

    ``differentials[i]`` maps degree bottom+i+1 to degree bottom+i and must be
    shaped ranks[i] x ranks[i+1].  Rejects data violating d*d = 0.
    """
    ranks = list(ranks)
    differentials = [
        d if isinstance(d, IntMatrix) else IntMatrix(d) for d in differentials
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
    diff = {n + k: (d if sign == 1 else -d) for n, d in c.diff.items()}
    return ChainComplex(ranks, diff, check=False)


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
            lhs = self.component(n - 1) * source.differential(n)
            rhs = target.differential(n) * self.component(n)
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
        top = (-x.differential(n - 1)).hstack(
            IntMatrix.zeros(x.rank(n - 2), y.rank(n))
        )
        bottom = f.component(n - 1).hstack(y.differential(n))
        m = top.vstack(bottom)
        if m.rows and m.cols:
            diff[n] = m
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


def _permutation(op):
    """The images pi of a permutation matrix (column j is e_{pi[j]}), or
    None unless ``op`` is a ``SparseMatrix`` with one entry 1 per column
    and no row hit twice."""
    if not isinstance(op, SparseMatrix):
        return None
    images = []
    for col in op.entries:
        if len(col) != 1:
            return None
        (i, v), = col.items()
        if v != 1:
            return None
        images.append(i)
    return images if len(set(images)) == len(images) else None


def _commute(a, b, pa, pb) -> bool:
    """Whether a b = b a, given the images ``pa``, ``pb`` of whichever of
    the two is a permutation (None otherwise)."""
    if pa is not None and pb is not None:
        return [pa[k] for k in pb] == [pb[k] for k in pa]
    if pa is None:
        a, b, pa = b, a, pb
    if pa is not None and isinstance(b, SparseMatrix):
        # pi b pi^-1 = b: column pi[j] of b is column j with rows sent by pi
        cols = b.entries
        for j, col in enumerate(cols):
            image = cols[pa[j]]
            if len(image) != len(col):
                return False
            for i, v in col.items():
                if image.get(pa[i]) != v:
                    return False
        return True
    return a * b == b * a


class ActionModule:
    """Free Z-module with named commuting endomorphisms.

    Operator names follow the conventions used downstream: ``X[p]`` for the
    fiber-sum operator of an ideal p, ``G[t]`` for a group element, and
    ``gamma0`` for the sign generator.  ``nu`` holds the integer scalars
    attached to ideal names.

    Construction certifies that every pair of operators commutes and that
    gamma0 has finite order at most ``order_bound``.  A pair with a true
    permutation (a ``SparseMatrix`` with one entry 1 per column and no
    repeated row) needs no product: two permutations commute when their
    compositions agree as index lists, and a permutation pi commutes with a
    ``SparseMatrix`` X when X[pi i, pi j] = X[i, j], checked column by
    column.  Every other pair, and the order of gamma0, is checked by
    products, equality and the identity of the operators' own matrix type,
    so a module of ``SparseMatrix`` operators (as on A(f)) is certified in
    O(nnz) per pair and a dense one as before.
    """

    def __init__(self, rank: int, operators: dict, nu: dict | None = None,
                 order_bound: int = GAMMA_ORDER_BOUND):
        self.rank = rank
        self.operators = dict(operators)
        self.nu = dict(nu or {})
        self.order_bound = order_bound
        for name, op in self.operators.items():
            if op.rows != rank or op.cols != rank:
                raise ShapeMismatch(f"operator {name!r} is not {rank}x{rank}")
        perms = {name: _permutation(op) for name, op in self.operators.items()}
        for a, b in itertools.combinations(sorted(self.operators), 2):
            if not _commute(self.operators[a], self.operators[b], perms[a], perms[b]):
                raise NonCommutingOperators(f"{a!r} and {b!r} do not commute")
        if "gamma0" in self.operators:
            self.gamma_order()

    def operator(self, name: str):
        return self.operators[name]

    def with_operator(self, name: str, op) -> "ActionModule":
        ops = dict(self.operators)
        ops[name] = op
        return ActionModule(self.rank, ops, self.nu, self.order_bound)

    def gamma_order(self) -> int:
        """Least m >= 1 with gamma0^m = 1; GammaOrderUnbounded past the bound."""
        g = self.operators["gamma0"]
        ident = type(g).identity(self.rank)
        power = g
        for m in range(1, self.order_bound + 1):
            if power == ident:
                return m
            power = power * g
        raise GammaOrderUnbounded(f"gamma0 has no order up to {self.order_bound}")


class DoubleComplex:
    """Bigraded free complex: horizontal d of bidegree (-1,0), vertical of (0,-1).

    Rows m run over 0..m_max (Koszul subset size); columns n over the stored
    window.  d^2 = 0 both ways and anticommutation are checked entrywise,
    with products and sums in the blocks' own type (``matrix_type``, one
    per complex), so sparse blocks are checked in O(nnz).  An absent block
    reads as a zero matrix of that type.
    """

    def __init__(self, m_max: int, n_lo: int, n_hi: int, ranks: dict,
                 horiz: dict, vert: dict, check=True):
        self.m_max = m_max
        self.n_lo = n_lo
        self.n_hi = n_hi
        self.ranks = ranks
        self.horiz = horiz
        self.vert = vert
        first = next(iter(horiz.values()), next(iter(vert.values()), None))
        self.matrix_type = IntMatrix if first is None else type(first)
        if check:
            self._validate()

    def rank(self, m: int, n: int) -> int:
        return self.ranks.get((m, n), 0)

    def horizontal(self, m: int, n: int):
        d = self.horiz.get((m, n))
        return self.matrix_type.zeros(self.rank(m - 1, n), self.rank(m, n)) if d is None else d

    def vertical(self, m: int, n: int):
        d = self.vert.get((m, n))
        return self.matrix_type.zeros(self.rank(m, n - 1), self.rank(m, n)) if d is None else d

    def bidegrees(self):
        return [
            (m, n)
            for m in range(self.m_max + 1)
            for n in range(self.n_lo, self.n_hi + 1)
        ]

    def _validate(self):
        # identical matrix objects are shared across the window, so memoize
        # the zero checks by object identity
        seen = set()

        def zero_product(a, b):
            key = (id(a), id(b))
            if key in seen:
                return True
            ok = (a * b).is_zero()
            if ok:
                seen.add(key)
            return ok

        anti_seen = set()
        for m, n in self.bidegrees():
            if m >= 2 and not zero_product(self.horizontal(m - 1, n), self.horizontal(m, n)):
                raise NotAComplex((m, n), "horizontal d^2 != 0")
            if n >= self.n_lo + 2 and not zero_product(
                self.vertical(m, n - 1), self.vertical(m, n)
            ):
                raise NotAComplex((m, n), "vertical d^2 != 0")
            if m >= 1 and n >= self.n_lo + 1:
                h1, v1 = self.horizontal(m, n - 1), self.vertical(m, n)
                v2, h2 = self.vertical(m - 1, n), self.horizontal(m, n)
                key = (id(h1), id(v1), id(v2), id(h2))
                if key in anti_seen:
                    continue
                if not (h1 * v1 + v2 * h2).is_zero():
                    raise NotAComplex((m, n), "rows and columns do not anticommute")
                anti_seen.add(key)


def _check_window(window, r):
    if window is None:
        window = (-(r + 3), r + 3)
    lo, hi = window
    if hi - lo + 1 < 2 * r + 4:
        raise WindowTooSmall(
            f"window [{lo},{hi}] shorter than {2 * r + 4} for {r} Koszul operators"
        )
    if not (lo <= 0 <= hi):
        raise WindowTooSmall("window must contain degree 0")
    return lo, hi


def build_kt(module: ActionModule, ideal_names, plus_name: str, minus_name: str,
             window=None) -> DoubleComplex:
    """The Koszul-Tate double complex of a module with chosen operators.

    Row m is spanned by symbols [I, k] over size-m subsets I of the ideal
    list (kept in the given linear order); the horizontal differential
    removes one ideal at a time with the alternating subset sign, and the
    vertical one applies the plus operator at even k and the minus operator
    at odd k, scaled by (-1)^|I|.

    Every block is a ``SparseMatrix`` built from the operators' columns (a
    dense operator is converted first), and the window shares one object
    per distinct block: one horizontal block per row, and one even and one
    odd vertical block per row.  Only the ``Kbar`` and ``Tbar`` companions
    turn blocks dense again.

    The double complex is not validated.  ``ActionModule`` has certified
    that the module's operators commute pairwise, and plus * minus = 0 is
    checked here; with the alternating subset signs that gives horizontal
    d^2 = 0, vertical d^2 = 0 and the anticommutation of rows and columns.
    ``total_complex`` still checks d*d on the total differentials.
    """
    ideal_names = list(ideal_names)
    r = len(ideal_names)
    n_lo, n_hi = _check_window(window, r)
    ops = [as_sparse(module.operator(name)) for name in ideal_names]
    plus = as_sparse(module.operator(plus_name))
    minus = as_sparse(module.operator(minus_name))
    if not (plus * minus).is_zero():
        raise PlusMinusNotZero(f"{plus_name!r} * {minus_name!r} is not zero")

    d = module.rank
    subsets = {m: list(itertools.combinations(range(r), m)) for m in range(r + 1)}
    index = {m: {s: i for i, s in enumerate(subsets[m])} for m in range(r + 1)}
    ranks = {(m, n): d * len(subsets[m]) for m in range(r + 1) for n in range(n_lo, n_hi + 1)}
    horiz = {}
    vert = {}
    for m in range(1, r + 1):
        # column b of the [I] block is the sum over the i in I, with the
        # alternating sign, of column b of f_i placed in the [I - i] block
        columns = []
        for subset in subsets[m]:
            targets = [
                (-1 if pos % 2 else 1, ops[i].entries,
                 index[m - 1][subset[:pos] + subset[pos + 1:]] * d)
                for pos, i in enumerate(subset)
            ]
            for b in range(d):
                col = {}
                for sign, op, t0 in targets:
                    for a, v in op[b].items():
                        col[t0 + a] = sign * v
                columns.append(col)
        block = SparseMatrix(d * len(subsets[m - 1]), columns)
        for n in range(n_lo, n_hi + 1):
            horiz[(m, n)] = block
    for m in range(r + 1):
        sign = -1 if m % 2 else 1
        count = len(subsets[m])
        even_block = repeat_diagonal(plus, count, sign)
        odd_block = repeat_diagonal(minus, count, sign)
        for n in range(n_lo + 1, n_hi + 1):
            vert[(m, n)] = even_block if n % 2 == 0 else odd_block
    return DoubleComplex(r, n_lo, n_hi, ranks, horiz, vert, check=False)


class PresentedComplex:
    """Complex whose terms are presented abelian groups Z^g / relation lattice.

    Differentials are given on generators; at construction it is checked that
    they carry relations into relations and compose to zero modulo relations.
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
        """The subquotient formula of the module docstring at every degree."""
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


def total_complex(d: DoubleComplex, keep=None, stable=None) -> ChainComplex:
    """Total complex with differential induced by the sum of both directions.

    ``keep`` optionally filters bidegrees (used for the k >= 0 truncation).
    The blocks of ``d`` must be ``SparseMatrix``.  Each column of a total
    differential is the block column of the horizontal map into (m-1, n)
    and of the vertical map into (m, n-1), its rows offset to where those
    blocks sit in the degree below; those two never overlap.  A total
    differential equal by value to an earlier one is that same object, so
    the d*d check of ``ChainComplex`` multiplies each distinct pair once and
    ``homology`` reduces each distinct differential once.  A caller that
    needs dense lattice algebra (``skcx.sk_inclusion_check``) calls
    ``dense()`` on the differentials itself.
    """
    keep = keep or (lambda m, n: True)
    offsets = {}  # total degree -> {kept bidegree: its first row or column}
    ranks = {}
    for total in range(d.n_lo, d.n_hi + d.m_max + 1):
        off, pos = {}, 0
        for m in range(d.m_max + 1):
            n = total - m
            if d.n_lo <= n <= d.n_hi and keep(m, n):
                off[(m, n)] = pos
                pos += d.rank(m, n)
        offsets[total], ranks[total] = off, pos
    diff = {}
    interned = {}
    for t, off in offsets.items():
        below = offsets.get(t - 1)
        if below is None:
            continue
        columns = []
        for m, n in off:
            parts = [
                (block.entries, below[target])
                for block, target in ((d.horiz.get((m, n)), (m - 1, n)),
                                      (d.vert.get((m, n)), (m, n - 1)))
                if block is not None and target in below
            ]
            for j in range(d.rank(m, n)):
                col = {}
                for entries, r0 in parts:
                    for i, v in entries[j].items():
                        col[r0 + i] = v
                columns.append(col)
        mat = _sparse(ranks[t - 1], tuple(columns))
        diff[t] = interned.setdefault(mat, mat)
    return ChainComplex(ranks, diff, stable=stable)


def companion(d: DoubleComplex, which: str):
    """One of the named companion complexes of a KT-style double complex.

    K and T are the edge row and column; Kbar and Tbar are the same shapes
    over the quotient modules (returned as presented complexes); KTtot and
    KTplus are the total complex and its k >= 0 truncation.
    """
    r = d.m_max
    if d.n_hi - d.n_lo + 1 < 2 * r + 4:
        raise WindowTooSmall("double complex window is too small for companions")
    stable = (d.n_lo + r + 2, d.n_hi - 2)
    if which == "K":
        ranks = {m: d.rank(m, 0) for m in range(r + 1)}
        diff = {m: d.horizontal(m, 0) for m in range(1, r + 1)}
        return ChainComplex(ranks, diff)
    if which == "T":
        ranks = {n: d.rank(0, n) for n in range(d.n_lo, d.n_hi + 1)}
        diff = {n: d.vertical(0, n) for n in range(d.n_lo + 1, d.n_hi + 1)}
        return ChainComplex(ranks, diff, stable=(d.n_lo + 1, d.n_hi - 1))
    if which == "Kbar":
        # quotient of each Koszul spot by the image of the odd (minus) operator
        minus = d.vertical(0, _odd_in(d))
        ranks = {m: d.rank(m, 0) for m in range(r + 1)}
        rels = {
            m: repeat_diagonal(minus, d.rank(m, 0) // minus.rows if minus.rows else 0).dense()
            for m in range(r + 1)
        }
        diff = {m: d.horizontal(m, 0).dense() for m in range(1, r + 1)}
        return PresentedComplex(ranks, rels, diff)
    if which == "Tbar":
        # quotient of the Tate column by the images of all Koszul operators:
        # the horizontal map out of the singleton row is [f_1 | ... | f_r]
        rel = d.horizontal(1, 0).dense()
        ranks = {n: d.rank(0, n) for n in range(d.n_lo, d.n_hi + 1)}
        rels = {n: rel for n in ranks}
        diff = {n: d.vertical(0, n).dense() for n in range(d.n_lo + 1, d.n_hi + 1)}
        return PresentedComplex(ranks, rels, diff, stable=(d.n_lo + 1, d.n_hi - 1))
    if which == "KTtot":
        return total_complex(d, stable=stable)
    if which == "KTplus":
        return total_complex(
            d,
            keep=lambda m, n: n >= 0,
            stable=(max(d.n_lo, 0) + r + 2, d.n_hi - 2),
        )
    raise ValueError(f"unknown companion {which!r}")


def _odd_in(d: DoubleComplex):
    for n in range(d.n_lo + 1, d.n_hi + 1):
        if n % 2 == 1:
            return n
    raise WindowTooSmall("window has no odd degree")
