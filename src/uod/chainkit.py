"""Chain complexes of free abelian groups, modules with commuting
operators, and the Koszul-Tate double complex with its total complex.

A Koszul-Tate double complex here has a finite Koszul direction (rows
0..r indexed by subset size) and an infinite two-periodic direction that is
materialized on a finite degree window.  It is stored as per-row data: the
window and, for each row, one horizontal and two vertical blocks, which
serve every degree.  Interior total degrees far enough from the window
edges are exact; ``HomologyTable.stable`` records which ones.

Homology of a complex of free groups needs no representatives.  Since
Z^(c_n) / ker d_n is isomorphic to im d_n, which is free, the sequence
0 -> H_n -> Z^(c_n) / im d_{n+1} -> im d_n -> 0 splits, so

    H_n = Z^(c_n - rk d_n - rk d_{n+1})  +  tors(Z^(c_n) / im d_{n+1}),

and both ranks and the torsion are read off the invariant factors of the
differentials.  ``homology_table`` is that formula on given (rank, torsion)
pairs.  ``ChainComplex.homology`` feeds it one Smith reduction without
transforms per distinct differential, however wide the window; the via-N
complex of ``skcx``, the Tate complex of one involution, feeds it the two
pairs of ``signh.tate_spots`` at m = 2 and is never built.

Every block and every total differential is a ``znf.SparseMatrix``.
``build_kt`` builds the blocks from the operators' columns without
validating them: the module's commutation certificate and plus * minus = 0
already make them a double complex.  Every operator is a ``MapOperator``,
on A(f), on the symbol module and as the 1 x 1 scalars of ``scalar_kt``
alike, so both are read off position maps with no product: each pair by
one O(n) rule on the maps, and plus * minus = 0 on the coefficients of one
involution.  A module keeps each operator only as its map, and builds the
operator's matrix from it where it is read, or only the columns a caller
reads (``ActionModule.columns``).  ``build_kt`` builds one sign block per
distinct (count, sign).  ``total_complex`` offsets each block's column
dicts into the total column.  A window repeats its differentials: the rows
present at t and at t - 1 and the parity of t fix a differential, so each
distinct one is built once, and every total degree whose differential
equals an earlier one by value gets that same object: the d*d check of
``ChainComplex`` multiplies each distinct pair once, and ``homology``,
read once per complex, reduces each distinct differential once through the
sparse unit-pivot core of ``znf``.  ``scalar_kt`` is the homology table of
the total complex of the rank-one module with scalar operators
(``scalar_kt_complex``), which the almost-free, comparison-theorem and
numerator-killed routes all read; the table is memoised per process on its
data and window, so routes and levels with the same data share one table,
and the complex is dropped once it is reduced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .znf import (
    AbGroupInvariants,
    ShapeMismatch,
    SparseMatrix,
    _sparse,
    rank_torsion,
    repeat_diagonal,
)


class NotAComplex(ValueError):
    def __init__(self, degree, message="differentials do not compose to zero"):
        self.degree = degree
        super().__init__(f"{message} (degree {degree})")


class PlusMinusNotZero(ValueError):
    pass


class NonCommutingOperators(ValueError):
    pass


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

    ``diff[n]`` is the ``SparseMatrix`` of the map from degree n to degree
    n-1; absent degrees have rank zero and an absent differential reads as
    a sparse zero matrix.  Composition of consecutive differentials is
    checked at construction, and ``homology`` reduces the sparse columns as
    they are, memoising each differential by value, and keeps its table:
    a complex is not changed once built.
    """

    def __init__(self, ranks: dict, diff: dict, stable=None):
        self.ranks = {n: r for n, r in ranks.items() if r}
        self.diff = {}
        self.stable = stable
        self._table = None
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
        # a periodic window shares its matrix objects, so each distinct pair
        # of them is multiplied once
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
        d = self.diff.get(n)
        return SparseMatrix.zeros(self.rank(n - 1), self.rank(n)) if d is None else d

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def homology(self) -> HomologyTable:
        # read once per complex; each distinct differential is reduced once,
        # without transforms
        if self._table is None:
            reduced, spots = {}, {}
            for n, d in self.diff.items():
                if d not in reduced:
                    reduced[d] = rank_torsion(d)
                spots[n] = reduced[d]
            self._table = homology_table({n: self.rank(n) for n in self.degrees()}, spots,
                                         self.stable)
        return self._table


def homology_table(ranks: dict, spots: dict, stable=None) -> HomologyTable:
    """The free-complex formula of the module docstring at each degree n of
    ``ranks`` (n -> c_n): H_n = Z^(c_n - rk d_n - rk d_(n+1)) plus the
    torsion of d_(n+1), where ``spots`` maps n to the (rank, torsion) of d_n
    and an absent d_n is zero."""
    zero = (0, ())
    entries = {}
    for n, c in ranks.items():
        rank_in, torsion = spots.get(n + 1, zero)
        entries[n] = AbGroupInvariants(c - spots.get(n, zero)[0] - rank_in, torsion)
    return HomologyTable(entries, stable=stable)


class MapOperator:
    """The operator shift * 1 + scale * Op(images, nu) on Z^n, n = len(images).

    Op(y, nu) e_i = sum_{y(k) = i} e_k + nu [i not in im y] e_i is the fiber
    sum of a map y on positions, completed by the scalar nu where the fiber
    is empty.  X_p on A(f) is Op(Y_p, nu_p), a permutation pi is
    Op(pi^-1, 0), on Z^(f^N) the Koszul operator T_p is 1 - Op(b -> pb)
    and the sign pair 1 +- Op(neg), and a scalar c is (c - 1) * 1 + Op(id).
    ``ActionModule`` certifies these on their maps and keeps nothing else:
    each matrix a caller reads is ``matrix()``, built from the map when it
    is read, so the certificate covers it.
    """

    def __init__(self, images: tuple, nu: int = 0, shift: int = 0, scale: int = 1):
        # scale is nonzero
        self.images, self.nu, self.shift, self.scale = images, nu, shift, scale

    @cached_property
    def in_image(self) -> list:
        """[i in im y] for each position i."""
        image = set(self.images)
        return [i in image for i in range(len(self.images))]

    def matrix(self, positions=None) -> SparseMatrix:
        """The matrix of the operator; ``positions``, range(n) as a tuple,
        lets the matrices of one module share their row index objects."""
        shift, scale = self.shift, self.scale
        positions = positions or range(len(self.images))
        if shift:
            cols = [{i: shift} for i in positions]
            for k, i in zip(positions, self.images):
                cols[i][k] = cols[i].get(k, 0) + scale
        else:
            cols = [{} for _ in positions]
            for k, i in zip(positions, self.images):
                cols[i][k] = scale
        if self.nu:
            for i, hit in zip(positions, self.in_image):
                if not hit:
                    cols[i][i] = shift + scale * self.nu
        if shift:
            # only the diagonal can cancel
            for i, col in zip(positions, cols):
                if not col[i]:
                    del col[i]
        return _sparse(len(cols), tuple(cols))

    def columns(self, at, positions) -> list:
        """The columns of ``matrix(positions)`` at the positions ``at``,
        drawn from ``positions``, built alone: column i holds the fiber of i
        under the map, scaled, plus shift on the diagonal.  Every row index
        is an int of ``positions``."""
        shift, scale = self.shift, self.scale
        cols = {i: {i: shift} if shift else {} for i in at}
        for k, i in zip(positions, self.images):
            col = cols.get(i)
            if col is not None:
                col[k] = col.get(k, 0) + scale
        if self.nu:
            flags = self.in_image
            for i, col in cols.items():
                if not flags[i]:
                    col[i] = shift + scale * self.nu
        if shift:
            for i, col in cols.items():
                if not col[i]:
                    del col[i]
        return list(cols.values())


def _maps_commute(a: MapOperator, b: MapOperator) -> bool:
    """The pair rule of ``ActionModule``, in O(n)."""
    y, z = a.images, b.images
    if y == z and a.nu == b.nu:
        return True
    if [y[k] for k in z] != [z[k] for k in y]:
        return False
    for x, other in ((y, b), (z, a)):
        # where the other's nu counts, x must map the other's image into
        # itself and its complement into itself
        if other.nu:
            flags = other.in_image
            if [flags[i] for i in x] != flags:
                return False
    return True


class ActionModule:
    """Free Z-module with named commuting endomorphisms.

    Operator names follow the conventions used downstream: ``X[p]`` for the
    fiber-sum operator of an ideal p and ``G[t]`` for a group element, with
    one more name for the sign generator, whose order ``signh.tate_pair``
    certifies on its map where the order is read.  ``nu`` holds the
    integer scalars attached to ideal names.  Every operator is given as a
    ``MapOperator`` and kept only as that map, in ``maps`` (anything else
    is a ``TypeError``); ``operator(name)`` builds its ``SparseMatrix``
    from the map on each call, so the matrix a caller reads is the
    certified map's, and ``columns(name, at)`` builds only some of its
    columns.  Each map's images are taken over as the module's position
    ints, equal as values, so at rank n the maps and every matrix read from
    them share n int objects.

    Construction certifies that every pair of operators commutes.

    Each pair is certified by one O(n) rule on its maps, with no product.
    Write F_y = Op(y, 0) and E_y for the diagonal projection onto the e_i
    with i not in im y, so Op(y, nu) = F_y + nu E_y.  Op(y, nu) and Op(z, mu)
    commute when
      * y = z and nu = mu, or
      * y o z = z o y, compared as index lists, and where mu != 0, y maps
        im z into im z and the complement of im z into itself, and
        symmetrically where nu != 0.
    Proof: shifts and scales do not matter, since
    (s + c A)(t + d B) - (t + d B)(s + c A) = cd (AB - BA).  In the first
    case the two operators are polynomials in the one operator Op(y, nu).
    This case comes first because the image condition fails for it when y
    is not onto: no position outside im y maps outside im y.  In the
    second, the transpose of F_y is the function matrix M_y
    (M_y e_k = e_{y(k)}), and M_y M_z = M_{y o z}, so F_y F_z = (M_{z o y})^T
    and F_z F_y = (M_{y o z})^T are equal.  Entry (k, i) of F_y E_z is
    [y(k) = i][i not in im z] and that of E_z F_y is
    [k not in im z][y(k) = i], so the image condition gives
    F_y E_z = E_z F_y, and symmetrically F_z E_y = E_y F_z; diagonal
    projections commute.  Expanding both products of F_y + nu E_y and
    F_z + mu E_z then gives equal sums.
    """

    def __init__(self, rank: int, operators: dict, nu: dict | None = None):
        self.rank = rank
        self.maps = dict(operators)
        self._positions = positions = tuple(range(rank))
        shared = {}
        for name, op in self.maps.items():
            if not isinstance(op, MapOperator):
                raise TypeError(f"operator {name!r} is not a MapOperator")
            y = op.images
            if len(y) != rank or (y and not 0 <= min(y) <= max(y) < rank):
                raise ShapeMismatch(f"operator {name!r} is not a map of range({rank})")
            # the images, equal as values, become the module's position ints:
            # one int object per position for all maps and every matrix read
            # from them; y stays referenced, so its id is not reused
            if id(y) not in shared:
                shared[id(y)] = y, tuple([positions[i] for i in y])
            op.images = shared[id(y)][1]
        self.nu = dict(nu or {})
        for a, b in itertools.combinations(sorted(self.maps), 2):
            if not _maps_commute(self.maps[a], self.maps[b]):
                raise NonCommutingOperators(f"{a!r} and {b!r} do not commute")

    def operator(self, name: str) -> SparseMatrix:
        """The matrix of the named operator, built from its map on each call."""
        return self.maps[name].matrix(self._positions)

    def columns(self, name: str, at: slice) -> list:
        """The columns at the positions ``range(rank)[at]`` of the named
        operator's matrix, built from its map alone (``MapOperator.columns``)."""
        return self.maps[name].columns(self._positions[at], self._positions)


@dataclass(frozen=True)
class DoubleComplex:
    """A Koszul-Tate double complex as per-row data.

    Row m (subset size, 0 <= m <= r) has a term of rank ``rank(m)`` at every
    degree n of ``window``, and the same three blocks serve every degree:
    ``horizontal[m]`` maps row m to row m - 1 (row 0's has no rows), and
    the vertical map inside row m is ``even[m]`` out of an even degree and
    ``odd[m]`` out of an odd one.  Every block is a ``SparseMatrix``.
    """

    window: tuple
    horizontal: tuple
    even: tuple
    odd: tuple

    def rank(self, m: int) -> int:
        return self.even[m].cols


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


def check_plus_minus(module: ActionModule, plus_name: str, minus_name: str):
    """plus * minus = 0, or PlusMinusNotZero.

    The check is exact for two operators a + b Op(neg) and c + d Op(neg) on
    one involution neg (neg o neg = id, so Op(neg)^2 = 1); any other pair is
    refused.  Their product is (ac + bd) + (ad + bc) Op(neg).  If neg is not
    the identity, 1 and Op(neg) are independent, so the product vanishes
    exactly when both coefficients do.  If neg is the identity, Op(neg) = 1
    and the product is the scalar (a + b)(c + d).  No matrix is multiplied.
    """
    plus, minus = module.maps[plus_name], module.maps[minus_name]
    neg = plus.images
    ident = list(range(len(neg)))
    a, b, c, d = plus.shift, plus.scale, minus.shift, minus.scale
    if minus.images != neg or [neg[k] for k in neg] != ident:
        zero = False
    elif list(neg) == ident:
        zero = (a + b) * (c + d) == 0
    else:
        zero = a * c + b * d == 0 and a * d + b * c == 0
    if not zero:
        raise PlusMinusNotZero(f"{plus_name!r} * {minus_name!r} is not zero")


def build_kt(module: ActionModule, ideal_names, plus_name: str, minus_name: str,
             window=None) -> DoubleComplex:
    """The Koszul-Tate double complex of a module with chosen operators.

    Row m is spanned by symbols [I, k] over size-m subsets I of the ideal
    list (kept in the given linear order); the horizontal differential
    removes one ideal at a time with the alternating subset sign, and the
    vertical one applies the plus operator at even k and the minus operator
    at odd k, scaled by (-1)^|I|.

    Each row's three blocks are ``SparseMatrix`` values built from the
    operators' columns.  They are not validated as a double complex:
    ``ActionModule`` has certified that the module's operators commute
    pairwise, and plus * minus = 0 is checked here (``check_plus_minus``);
    with the alternating subset signs that gives horizontal d^2 = 0,
    vertical d^2 = 0 and the anticommutation of rows and columns.
    ``total_complex`` still checks d*d on the total differentials.
    """
    ideal_names = list(ideal_names)
    r = len(ideal_names)
    window = _check_window(window, r)
    ops = [module.operator(name) for name in ideal_names]
    check_plus_minus(module, plus_name, minus_name)
    plus, minus = module.operator(plus_name), module.operator(minus_name)

    d = module.rank
    subsets = [list(itertools.combinations(range(r), m)) for m in range(r + 1)]
    horizontal = [SparseMatrix.zeros(0, d)]
    for m in range(1, r + 1):
        # column b of the [I] block is the sum over the i in I, with the
        # alternating sign, of column b of f_i placed in the [I - i] block
        index = {s: i for i, s in enumerate(subsets[m - 1])}
        columns = []
        for subset in subsets[m]:
            targets = [
                (-1 if pos % 2 else 1, ops[i].entries,
                 index[subset[:pos] + subset[pos + 1:]] * d)
                for pos, i in enumerate(subset)
            ]
            for b in range(d):
                col = {}
                for sign, op, t0 in targets:
                    for a, v in op[b].items():
                        col[t0 + a] = sign * v
                columns.append(col)
        horizontal.append(SparseMatrix(d * len(subsets[m - 1]), columns))
    # rows m and r - m have one count, so each (count, sign) block is built once
    keys = [(len(s), -1 if m % 2 else 1) for m, s in enumerate(subsets)]
    even, odd = {}, {}
    for key in keys:
        if key not in even:
            even[key] = repeat_diagonal(plus, *key)
            odd[key] = repeat_diagonal(minus, *key)
    return DoubleComplex(window, tuple(horizontal), tuple(even[k] for k in keys),
                         tuple(odd[k] for k in keys))


def total_complex(d: DoubleComplex) -> ChainComplex:
    """Total complex with differential induced by the sum of both directions.

    Each column of a total differential is the block column of the
    horizontal map into (m-1, n) and of the vertical map into (m, n-1), its
    rows offset to where those blocks sit in the degree below; those two
    never overlap.  Those blocks and offsets depend only on the rows present
    at t and at t - 1 and on the parity of t, so each distinct such key is
    built once; past the window's edges only the parity varies.  A total
    differential equal by value to an earlier one is that same object, so
    the d*d check of ``ChainComplex`` multiplies each distinct pair once and
    ``homology`` reduces each distinct differential once.  The degrees at
    least r + 2 above the window's lower edge and 2 below its upper edge,
    with r the number of Koszul operators, are unaffected by the truncation
    and are marked ``stable``.
    """
    lo, hi = d.window
    r = len(d.even) - 1
    row_rank = [d.rank(m) for m in range(r + 1)]
    offsets = {}  # total degree -> {bidegree: its first row or column}
    ranks = {}
    for total in range(lo, hi + r + 1):
        off, pos = {}, 0
        for m in range(r + 1):
            n = total - m
            if lo <= n <= hi:
                off[(m, n)] = pos
                pos += row_rank[m]
        offsets[total], ranks[total] = off, pos
    diff = {}
    built, interned = {}, {}
    for t, off in offsets.items():
        below = offsets.get(t - 1)
        if below is None:
            continue
        key = (tuple(m for m, _ in off), tuple(m for m, _ in below), t % 2)
        if key in built:
            diff[t] = built[key]
            continue
        columns = []
        for m, n in off:
            vertical = d.even[m] if n % 2 == 0 else d.odd[m]
            parts = [
                (block.entries, below[target])
                for block, target in ((d.horizontal[m], (m - 1, n)), (vertical, (m, n - 1)))
                if target in below
            ]
            for j in range(row_rank[m]):
                col = {}
                for entries, r0 in parts:
                    for i, v in entries[j].items():
                        col[r0 + i] = v
                columns.append(col)
        mat = _sparse(ranks[t - 1], tuple(columns))
        diff[t] = built[key] = interned.setdefault(mat, mat)
    return ChainComplex(ranks, diff, stable=(lo + r + 2, hi - 2))


def scalar_kt_complex(scalars, plus: int, minus: int, window=None) -> ChainComplex:
    """The total Koszul-Tate complex of the rank-one module Z on which the
    Koszul operators act by ``scalars`` and the vertical pair by ``plus``
    and ``minus``; the scalar c is the map shift * 1 + Op(id) with
    shift = c - 1."""
    names = [f"f{i}" for i in range(len(scalars))]
    ops = {name: MapOperator((0,), shift=c - 1)
           for name, c in zip(names + ["plus", "minus"], [*scalars, plus, minus])}
    return total_complex(build_kt(ActionModule(1, ops), names, "plus", "minus", window))


# (scalars, plus, minus, window) -> the homology table of ``scalar_kt``
_SCALAR_KT: dict = {}


def scalar_kt(scalars, plus: int, minus: int, window=None) -> HomologyTable:
    """The homology table of ``scalar_kt_complex``, memoised per process on
    (scalars, plus, minus, window), the window as ``_check_window`` reads
    it.  The numerator-killed route and the KT reference of ``skcx`` have
    the same data at every level, and so do ``thm442`` and ``ftate`` at
    m = 2, so each such table is reduced once; the complex itself, with its
    differentials, is not kept."""
    window = _check_window(window, len(scalars))
    key = (tuple(scalars), plus, minus, window)
    table = _SCALAR_KT.get(key)
    if table is None:
        table = _SCALAR_KT[key] = scalar_kt_complex(scalars, plus, minus, window).homology()
    return table
